//! Access methods and the triple-method cost function TMC (Def. 3.1).

use sparql::{TermPattern, TriplePattern};

use crate::stats::Stats;

/// Access methods `M` (paper §3.1): full scan, access-by-subject,
/// access-by-object. DB2RDF indexes only the `entry` columns of DPH/RPH, so
/// these are the exact alternatives available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Scan,
    Acs,
    Aco,
}

impl Method {
    pub const ALL: [Method; 3] = [Method::Acs, Method::Aco, Method::Scan];

    pub fn name(&self) -> &'static str {
        match self {
            Method::Scan => "sc",
            Method::Acs => "acs",
            Method::Aco => "aco",
        }
    }
}

/// R(t, m) — variables that must already be bound for the lookup (Def. 3.3).
pub fn required_vars(t: &TriplePattern, m: Method) -> Vec<String> {
    match m {
        Method::Scan => Vec::new(),
        Method::Acs => t.subject.as_var().map(str::to_string).into_iter().collect(),
        Method::Aco => t.object.as_var().map(str::to_string).into_iter().collect(),
    }
}

/// P(t, m) — variables bound after the lookup (Def. 3.2): every variable of
/// the triple that is not required by the method.
pub fn produced_vars(t: &TriplePattern, m: Method) -> Vec<String> {
    let req = required_vars(t, m);
    let mut out = Vec::new();
    for tp in [&t.subject, &t.predicate, &t.object] {
        if let Some(v) = tp.as_var() {
            if !req.iter().any(|r| r == v) && !out.iter().any(|o| o == v) {
                out.push(v.to_string());
            }
        }
    }
    out
}

/// TMC(t, m, S) — estimated cost of evaluating `t` with method `m`
/// (Def. 3.1). Follows the paper's example: exact counts for top-k
/// constants, per-subject/per-object averages for bound variables, and the
/// dataset size for scans.
pub fn tmc(t: &TriplePattern, m: Method, stats: &Stats) -> f64 {
    match m {
        // Paper §3.1.1: TMC(t, sc, S) is the total number of triples — the
        // entity layout has no predicate index, so a scan always reads the
        // whole relation.
        Method::Scan => stats.total_triples.max(1) as f64,
        Method::Acs => {
            let pred = t.predicate.as_term().map(|p| p.encode());
            match &t.subject {
                TermPattern::Term(s) => stats.subject_count(&s.encode()),
                // Bound variable subject: per-predicate fan-out when the
                // predicate is known (an implementation-chosen refinement of
                // S, which the paper leaves open).
                TermPattern::Var(_) => stats.subject_fanout(pred.as_deref()),
            }
        }
        Method::Aco => {
            let pred = t.predicate.as_term().map(|p| p.encode());
            match &t.object {
                TermPattern::Term(o) => stats.object_count(&o.encode()),
                TermPattern::Var(_) => stats.object_fanout(pred.as_deref()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::{Term, Triple};

    fn tp(s: TermPattern, p: TermPattern, o: TermPattern) -> TriplePattern {
        TriplePattern { id: 1, subject: s, predicate: p, object: o }
    }

    fn v(name: &str) -> TermPattern {
        TermPattern::Var(name.into())
    }

    fn c(iri: &str) -> TermPattern {
        TermPattern::Term(Term::iri(iri))
    }

    #[test]
    fn required_and_produced() {
        let t = tp(v("x"), c("founder"), v("y"));
        assert_eq!(required_vars(&t, Method::Acs), vec!["x"]);
        assert_eq!(produced_vars(&t, Method::Acs), vec!["y"]);
        assert_eq!(required_vars(&t, Method::Aco), vec!["y"]);
        assert_eq!(produced_vars(&t, Method::Aco), vec!["x"]);
        assert!(required_vars(&t, Method::Scan).is_empty());
        assert_eq!(produced_vars(&t, Method::Scan), vec!["x", "y"]);
    }

    #[test]
    fn constant_positions_require_nothing() {
        let t = tp(c("s"), c("p"), v("o"));
        assert!(required_vars(&t, Method::Acs).is_empty());
        assert_eq!(produced_vars(&t, Method::Acs), vec!["o"]);
    }

    #[test]
    fn repeated_variable_not_produced_twice() {
        let t = tp(v("x"), v("p"), v("x"));
        assert_eq!(produced_vars(&t, Method::Scan), vec!["x", "p"]);
        assert_eq!(produced_vars(&t, Method::Acs), vec!["p"]);
    }

    #[test]
    fn tmc_matches_paper_example() {
        // Paper §3.1.1: TMC(t4, aco) = 2 (exact count for 'Software'),
        // TMC(t4, sc) = 26 (total triples), TMC(t4, acs) = 5 (avg/subject).
        let mut triples = Vec::new();
        let soft = Term::lit("Software");
        for i in 0..2 {
            triples.push(Triple::new(
                Term::iri(format!("c{i}")),
                Term::iri("industry"),
                soft.clone(),
            ));
        }
        for i in 0..24 {
            triples.push(Triple::new(
                Term::iri(format!("s{}", i % 5)),
                Term::iri(format!("p{i}")),
                Term::iri(format!("o{i}")),
            ));
        }
        let stats = crate::stats::stats_of(&triples, 5);
        assert_eq!(stats.total_triples, 26);
        let t4 = tp(v("y"), c("industry"), TermPattern::Term(soft));
        assert_eq!(tmc(&t4, Method::Aco, &stats), 2.0);
        assert_eq!(tmc(&t4, Method::Scan, &stats), 26.0);
        // With a constant predicate, acs uses the per-predicate subject
        // fan-out (our refinement of S — the paper's example would use the
        // global avg 5): each of the two 'industry' subjects has one triple.
        assert_eq!(tmc(&t4, Method::Acs, &stats), 1.0);
        // With a variable predicate the global average applies.
        let t_anypred = tp(v("y"), v("p"), v("o"));
        assert!((tmc(&t_anypred, Method::Acs, &stats) - stats.avg_per_subject).abs() < 1e-12);
    }
}
