//! Dataset statistics — the optimizer input `S` of §3.1.
//!
//! Mirrors the paper's examples: total triple count, average triples per
//! subject and per object, and top-k constants (subjects, objects,
//! predicates) with exact frequencies.

use std::collections::HashMap;

use crate::dict::Dict;

/// Statistics over the loaded dataset. Top-k constants are keyed by their
/// dictionary ID so the optimizer's `S` input speaks the same integer
/// vocabulary as the encoded tables of every layout; lexical forms are
/// retained in [`Stats::top_forms`] for reports and string-keyed estimate
/// lookups.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub total_triples: u64,
    pub distinct_subjects: u64,
    pub distinct_objects: u64,
    /// Mean triples per distinct subject (paper: "Avg triples per subject").
    pub avg_per_subject: f64,
    pub avg_per_object: f64,
    /// Exact counts for the k most frequent subject constants, keyed by
    /// dictionary ID.
    pub top_subjects: HashMap<i64, u64>,
    pub top_objects: HashMap<i64, u64>,
    /// Lexical form of every ID appearing in the top-k maps.
    pub top_forms: HashMap<i64, String>,
    /// Reverse index: canonical term → dictionary ID, for string-keyed
    /// estimate lookups ([`Stats::subject_count`] / [`Stats::object_count`]).
    pub top_ids: HashMap<String, i64>,
    /// Triples per predicate (kept exactly; predicate sets are small).
    pub predicate_counts: HashMap<String, u64>,
    /// Per-predicate fan-out statistics (kept exactly). The paper leaves the
    /// statistics types to the implementation (§3.1); per-predicate averages
    /// sharpen TMC for bound-variable accesses considerably.
    pub predicate_stats: HashMap<String, PredStat>,
}

/// Fan-out statistics for one predicate.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredStat {
    pub count: u64,
    pub distinct_subjects: u64,
    pub distinct_objects: u64,
}

impl PredStat {
    /// Average triples per subject carrying this predicate.
    pub fn subject_fanout(&self) -> f64 {
        if self.distinct_subjects == 0 {
            1.0
        } else {
            self.count as f64 / self.distinct_subjects as f64
        }
    }

    /// Average triples per object carrying this predicate (the fan-in).
    pub fn object_fanout(&self) -> f64 {
        if self.distinct_objects == 0 {
            1.0
        } else {
            self.count as f64 / self.distinct_objects as f64
        }
    }
}

impl Stats {
    /// Record a top-k subject constant (ID, lexical form, exact count).
    pub fn register_top_subject(&mut self, id: i64, canonical: &str, count: u64) {
        self.top_subjects.insert(id, count);
        self.top_forms.insert(id, canonical.to_string());
        self.top_ids.insert(canonical.to_string(), id);
    }

    /// Record a top-k object constant (ID, lexical form, exact count).
    pub fn register_top_object(&mut self, id: i64, canonical: &str, count: u64) {
        self.top_objects.insert(id, count);
        self.top_forms.insert(id, canonical.to_string());
        self.top_ids.insert(canonical.to_string(), id);
    }

    /// Estimated triples per *bound subject* for an access restricted to
    /// `predicate` (canonical), falling back to the global average.
    pub fn subject_fanout(&self, predicate: Option<&str>) -> f64 {
        predicate
            .and_then(|p| self.predicate_stats.get(p))
            .map(PredStat::subject_fanout)
            .unwrap_or_else(|| self.avg_per_subject.max(1.0))
    }

    /// Estimated triples per *bound object* for an access restricted to
    /// `predicate` (canonical), falling back to the global average.
    pub fn object_fanout(&self, predicate: Option<&str>) -> f64 {
        predicate
            .and_then(|p| self.predicate_stats.get(p))
            .map(PredStat::object_fanout)
            .unwrap_or_else(|| self.avg_per_object.max(1.0))
    }

    /// Estimated number of triples with this exact subject constant.
    pub fn subject_count(&self, canonical: &str) -> f64 {
        match self.top_ids.get(canonical).and_then(|id| self.top_subjects.get(id)) {
            Some(&n) => n as f64,
            None => self.avg_per_subject.max(1.0),
        }
    }

    /// Estimated number of triples with this exact object constant.
    pub fn object_count(&self, canonical: &str) -> f64 {
        match self.top_ids.get(canonical).and_then(|id| self.top_objects.get(id)) {
            Some(&n) => n as f64,
            None => self.avg_per_object.max(1.0),
        }
    }

    /// Exact number of triples with this predicate constant (0 if absent).
    pub fn predicate_count(&self, canonical: &str) -> f64 {
        self.predicate_counts.get(canonical).copied().unwrap_or(0) as f64
    }
}

/// The one statistics builder: every layout's bulk load feeds it the same
/// dictionary-encoded triples, sorted twice. No per-term hash maps:
/// distinct counts fall out of run boundaries in the sorted data.
#[derive(Default)]
pub(crate) struct StatsBuilder {
    total: u64,
    distinct_subjects: u64,
    distinct_objects: u64,
    /// (count, id) per distinct subject/object, for top-k selection.
    subj_counts: Vec<(u64, i64)>,
    obj_counts: Vec<(u64, i64)>,
    /// Per-predicate: (count, distinct subjects, distinct objects).
    pub(crate) pred: HashMap<i64, (u64, u64, u64)>,
}

impl StatsBuilder {
    /// Over triples sorted by (subject, pred, object).
    pub(crate) fn direct_pass(&mut self, enc: &[[i64; 3]]) {
        self.total = enc.len() as u64;
        let mut i = 0;
        while i < enc.len() {
            let s = enc[i][0];
            let mut j = i;
            while j < enc.len() && enc[j][0] == s {
                j += 1;
            }
            self.distinct_subjects += 1;
            self.subj_counts.push(((j - i) as u64, s));
            let mut k = i;
            while k < j {
                let p = enc[k][1];
                let mut m = k;
                while m < j && enc[m][1] == p {
                    m += 1;
                }
                let e = self.pred.entry(p).or_default();
                e.0 += (m - k) as u64;
                e.1 += 1;
                k = m;
            }
            i = j;
        }
    }

    /// Over the same triples re-sorted by (object, pred, subject).
    pub(crate) fn reverse_pass(&mut self, enc: &[[i64; 3]]) {
        let mut i = 0;
        while i < enc.len() {
            let o = enc[i][0];
            let mut j = i;
            while j < enc.len() && enc[j][0] == o {
                j += 1;
            }
            self.distinct_objects += 1;
            self.obj_counts.push(((j - i) as u64, o));
            let mut k = i;
            while k < j {
                let p = enc[k][1];
                let mut m = k;
                while m < j && enc[m][1] == p {
                    m += 1;
                }
                if let Some(e) = self.pred.get_mut(&p) {
                    e.2 += 1;
                }
                k = m;
            }
            i = j;
        }
    }

    pub(crate) fn finish(
        mut self,
        top_k: usize,
        dict: &Dict,
        pred_forms: &HashMap<i64, String>,
    ) -> Stats {
        let avg = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let mut stats = Stats {
            total_triples: self.total,
            distinct_subjects: self.distinct_subjects,
            distinct_objects: self.distinct_objects,
            avg_per_subject: avg(self.total, self.distinct_subjects),
            avg_per_object: avg(self.total, self.distinct_objects),
            ..Stats::default()
        };
        for (&p, &(count, ds, dobj)) in &self.pred {
            let form = pred_forms[&p].clone();
            stats.predicate_counts.insert(form.clone(), count);
            stats.predicate_stats.insert(
                form,
                PredStat { count, distinct_subjects: ds, distinct_objects: dobj },
            );
        }
        // Top-k selection: count-descending, ID-ascending — a deterministic
        // tie-break that needs no lexical resolution of every candidate.
        let take_top = |v: &mut Vec<(u64, i64)>| {
            v.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            v.truncate(top_k);
        };
        take_top(&mut self.subj_counts);
        take_top(&mut self.obj_counts);
        for &(count, id) in &self.subj_counts {
            let form = dict.resolve(id).expect("top subject resolves");
            stats.register_top_subject(id, &form, count);
        }
        for &(count, id) in &self.obj_counts {
            let form = dict.resolve(id).expect("top object resolves");
            stats.register_top_object(id, &form, count);
        }
        stats
    }
}

/// The statistics a load of `triples` computes, on every layout (they
/// share the one builder, so they must agree).
#[cfg(test)]
pub(crate) fn stats_of(triples: &[rdf::Triple], top_k: usize) -> Stats {
    use crate::store::{Layout, RdfStore, StoreConfig};
    let mut all = [Layout::Entity, Layout::TripleStore, Layout::Vertical].map(|layout| {
        let mut store = RdfStore::new(StoreConfig { layout, top_k, ..StoreConfig::default() });
        store.load(triples).unwrap();
        store.statistics().clone()
    });
    for other in &all[1..] {
        assert_eq!(other.total_triples, all[0].total_triples);
        assert_eq!(other.distinct_subjects, all[0].distinct_subjects);
        assert_eq!(other.distinct_objects, all[0].distinct_objects);
        assert_eq!(other.top_subjects, all[0].top_subjects);
        assert_eq!(other.top_objects, all[0].top_objects);
        assert_eq!(other.top_ids, all[0].top_ids);
        assert_eq!(other.predicate_counts, all[0].predicate_counts);
    }
    std::mem::take(&mut all[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::{Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn averages_and_totals() {
        let triples = vec![t("a", "p", "x"), t("a", "q", "y"), t("b", "p", "x")];
        let s = stats_of(&triples, 10);
        assert_eq!(s.total_triples, 3);
        assert_eq!(s.distinct_subjects, 2);
        assert!((s.avg_per_subject - 1.5).abs() < 1e-12);
        assert_eq!(s.distinct_objects, 2);
        assert_eq!(s.predicate_count("<p>"), 2.0);
    }

    #[test]
    fn top_k_keeps_most_frequent() {
        let mut triples = Vec::new();
        for i in 0..20 {
            triples.push(t("hub", "p", &format!("o{i}")));
        }
        triples.push(t("solo", "p", "o0"));
        let s = stats_of(&triples, 1);
        assert_eq!(s.top_subjects.len(), 1);
        assert_eq!(s.subject_count("<hub>"), 20.0);
        // non-top subject falls back to the average
        assert!(s.subject_count("<solo>") < 20.0);
    }

    #[test]
    fn object_count_fallback_is_at_least_one() {
        let s = Stats::default();
        assert_eq!(s.object_count("<missing>"), 1.0);
    }

    #[test]
    fn load_keys_top_constants_by_dictionary_id() {
        let s = stats_of(&[t("a", "p", "x"), t("a", "q", "x")], 10);
        // Interned in input order: <a> is id 1 on every layout.
        assert_eq!(s.top_subjects.get(&1), Some(&2));
        assert_eq!(s.top_forms.get(&1).map(String::as_str), Some("<a>"));
        assert_eq!(s.top_ids.get("<a>"), Some(&1));
        assert_eq!(s.subject_count("<a>"), 2.0);
    }
}
