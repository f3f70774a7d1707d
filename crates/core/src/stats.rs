//! Dataset statistics — the optimizer input `S` of §3.1.
//!
//! Mirrors the paper's examples: total triple count, average triples per
//! subject and per object, and top-k constants (subjects, objects,
//! predicates) with exact frequencies.

use std::collections::HashMap;

use rdf::Triple;

use crate::dict::Dict;

/// Statistics over the loaded dataset. Top-k constants are keyed by their
/// dictionary ID so the optimizer's `S` input speaks the same integer
/// vocabulary as the encoded DPH/DS tables; lexical forms are retained in
/// [`Stats::top_forms`] for reports and string-keyed estimate lookups.
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
    /// Collect statistics with the `top_k` most frequent subject/object
    /// constants kept exactly, keyed by a throwaway dictionary. Baseline
    /// layouts (and tests) use this; the entity layout's bulk loader derives
    /// the same quantities from its sorted passes, keyed by the store's
    /// dictionary IDs.
    pub fn collect<'a>(triples: impl IntoIterator<Item = &'a Triple>, top_k: usize) -> Stats {
        let mut dict = Dict::new();
        let mut subj: HashMap<String, u64> = HashMap::new();
        let mut obj: HashMap<String, u64> = HashMap::new();
        let mut pred: HashMap<String, u64> = HashMap::new();
        let mut per_pred: HashMap<String, (std::collections::HashSet<String>, std::collections::HashSet<String>, u64)> =
            HashMap::new();
        let mut total = 0u64;
        for t in triples {
            let (s, p, o) = (t.subject.encode(), t.predicate.encode(), t.object.encode());
            *subj.entry(s.clone()).or_default() += 1;
            *obj.entry(o.clone()).or_default() += 1;
            *pred.entry(p.clone()).or_default() += 1;
            let e = per_pred.entry(p).or_default();
            e.0.insert(s);
            e.1.insert(o);
            e.2 += 1;
            total += 1;
        }
        let predicate_stats = per_pred
            .into_iter()
            .map(|(p, (ss, os, n))| {
                (
                    p,
                    PredStat {
                        count: n,
                        distinct_subjects: ss.len() as u64,
                        distinct_objects: os.len() as u64,
                    },
                )
            })
            .collect();
        let distinct_subjects = subj.len() as u64;
        let distinct_objects = obj.len() as u64;
        let avg = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let mut stats = Stats {
            total_triples: total,
            distinct_subjects,
            distinct_objects,
            avg_per_subject: avg(total, distinct_subjects),
            avg_per_object: avg(total, distinct_objects),
            predicate_counts: pred,
            predicate_stats,
            ..Stats::default()
        };
        // Intern in deterministic (count-desc, then lexical) order so ID
        // assignment is reproducible run to run.
        for (term, n) in take_top(subj, top_k) {
            let id = dict.intern(&term);
            stats.register_top_subject(id, &term, n);
        }
        for (term, n) in take_top(obj, top_k) {
            let id = dict.intern(&term);
            stats.register_top_object(id, &term, n);
        }
        stats
    }

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

fn take_top(counts: HashMap<String, u64>, k: usize) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::Term;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn averages_and_totals() {
        let triples = vec![t("a", "p", "x"), t("a", "q", "y"), t("b", "p", "x")];
        let s = Stats::collect(&triples, 10);
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
        let s = Stats::collect(&triples, 1);
        assert_eq!(s.top_subjects.len(), 1);
        assert_eq!(s.subject_count("<hub>"), 20.0);
        // non-top subject falls back to the average
        assert!(s.subject_count("<solo>") < 20.0);
    }

    #[test]
    fn object_count_fallback_is_at_least_one() {
        let s = Stats::collect(&[], 5);
        assert_eq!(s.object_count("<missing>"), 1.0);
    }

    #[test]
    fn entity_load_keys_top_constants_by_dictionary_id() {
        let mut store = crate::store::RdfStore::entity();
        store.load(&[t("a", "p", "x"), t("a", "q", "x")]).unwrap();
        let s = store.statistics();
        let id = store.dictionary().read().lookup("<a>").expect("top subject interned");
        assert_eq!(s.top_subjects.get(&id), Some(&2));
        assert_eq!(s.top_forms.get(&id).map(String::as_str), Some("<a>"));
        assert_eq!(s.top_ids.get("<a>"), Some(&id));
        assert_eq!(s.subject_count("<a>"), 2.0);
    }
}
