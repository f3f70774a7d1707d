//! Predicate-to-column assignment (paper §2.2).

pub mod coloring;
pub mod hashing;

use std::collections::{HashMap, HashSet};

pub use coloring::{BoundedColoring, Coloring, InterferenceGraph};
pub use hashing::{HashComposition, HashFn};

/// A concrete predicate mapping: either pure hashing (no data sample) or a
/// coloring composed with a hash tail (`c(D⊗P,m) ⊕ h(m)`).
#[derive(Debug, Clone)]
pub enum PredMapping {
    Hashed(HashComposition),
    Colored {
        colors: HashMap<String, usize>,
        /// Hash tail over the full column range, used for predicates outside
        /// the colored subset (including predicates first seen after load).
        tail: HashComposition,
    },
}

impl PredMapping {
    /// Candidate column sequence for a predicate (canonical string); the
    /// loader tries them in order, the translator checks all of them.
    pub fn candidates(&self, predicate: &str) -> Vec<usize> {
        match self {
            PredMapping::Hashed(h) => h.candidates(predicate),
            PredMapping::Colored { colors, tail } => match colors.get(predicate) {
                Some(&c) => vec![c],
                None => tail.candidates(predicate),
            },
        }
    }

    /// Number of physical predicate/value column pairs needed.
    pub fn column_count(&self) -> usize {
        match self {
            PredMapping::Hashed(h) => h.range(),
            PredMapping::Colored { colors, tail } => {
                let colored_max = colors.values().max().map(|&c| c + 1).unwrap_or(0);
                colored_max.max(tail.range())
            }
        }
    }
}

/// Everything the translator needs to know about one side (direct =
/// outgoing/DPH, reverse = incoming/RPH) of the entity layout.
#[derive(Debug, Clone)]
pub struct SideLayout {
    pub mapping: PredMapping,
    /// Physical predicate/value column pairs in the table.
    pub ncols: usize,
    /// Predicates (canonical) with at least one multi-valued instance on
    /// this side; their accesses require the DS/RS secondary join.
    pub multivalued: HashSet<String>,
    /// Predicates involved in spills on this side (veto star merging).
    pub spill_preds: HashSet<String>,
    /// The lid the next single→multi-valued promotion on this side takes:
    /// lids are negative and decrease. Kept in memory only (never
    /// persisted): seeded from the secondary table when a load finishes or
    /// the layout is restored, and rolled back with the rest of the layout.
    pub next_lid: i64,
}

impl SideLayout {
    pub fn candidates(&self, predicate: &str) -> Vec<usize> {
        self.mapping
            .candidates(predicate)
            .into_iter()
            .filter(|&c| c < self.ncols)
            .collect()
    }

    pub fn is_multivalued(&self, predicate: &str) -> bool {
        self.multivalued.contains(predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colored_mapping_prefers_color_then_tail() {
        let mut colors = HashMap::new();
        colors.insert("<p>".to_string(), 3);
        let m = PredMapping::Colored { colors, tail: HashComposition::new(2, 8) };
        assert_eq!(m.candidates("<p>"), vec![3]);
        let tail_cand = m.candidates("<unknown>");
        assert!(!tail_cand.is_empty());
        assert!(tail_cand.iter().all(|&c| c < 8));
        assert_eq!(m.column_count(), 8);
    }

    #[test]
    fn column_count_covers_colored_range() {
        let mut colors = HashMap::new();
        colors.insert("<p>".to_string(), 11);
        let m = PredMapping::Colored { colors, tail: HashComposition::new(1, 4) };
        assert_eq!(m.column_count(), 12);
    }

    #[test]
    fn side_layout_filters_out_of_range_candidates() {
        let mut colors = HashMap::new();
        colors.insert("<p>".to_string(), 9);
        let layout = SideLayout {
            mapping: PredMapping::Colored { colors, tail: HashComposition::new(1, 4) },
            ncols: 4,
            multivalued: HashSet::new(),
            spill_preds: HashSet::new(),
            next_lid: -1,
        };
        assert!(layout.candidates("<p>").is_empty());
        assert!(layout.candidates("<q>").iter().all(|&c| c < 4));
    }
}
