//! SPARQL 1.1 Update applier.
//!
//! An update request (`INSERT DATA` / `DELETE DATA` / `DELETE/INSERT ...
//! WHERE`, `;`-separated) is one mutation request in the sense of
//! [`RdfStore::request`] — the same skeleton a stand-alone
//! `RdfStore::insert` runs through — so it is applied as **one WAL frame**:
//! every operation's row mutations and the request's single
//! `sys_dict`/`sys_meta` flush batch into a frame that crash recovery
//! replays all-or-nothing — a half-applied `DELETE/INSERT` can never become
//! visible. The frame is fsynced before the request returns.
//!
//! Request semantics follow the W3C Update spec for the supported subset:
//!
//! * Operations apply in request order; each sees the effects of the ones
//!   before it.
//! * A `DELETE/INSERT` evaluates its WHERE clause once, against the state
//!   the operation starts from, projecting every pattern variable; the
//!   delete template is instantiated per solution and applied first, then
//!   the insert template.
//! * Template instantiations that leave a variable unbound, or that would
//!   produce invalid RDF (a literal subject, a non-IRI predicate), are
//!   skipped per the spec, not errors.
//! * Counting is effect-based: `inserted`/`deleted` report triples that
//!   actually changed the graph (RDF graphs are sets — re-inserting an
//!   existing triple or deleting an absent one moves nothing).
//!
//! A request that fails midway (an unsupported WHERE shape, a budget
//! error, a failed write or fsync) is rolled back wholesale by the
//! skeleton: the store's tables, side metadata, and the open batch are
//! restored, so the failed request mutates nothing — in memory or on disk.
//! This module only says *which* triples a request adds and removes.

use std::collections::HashMap;

use rdf::{Term, Triple};
use sparql::{GroupPattern, Pattern, Query, QueryForm, SelectVars, TriplePattern, Update, UpdateOp};

use crate::error::Result;
use crate::store::{RdfStore, Request};

/// Effect summary of one applied update request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Triples actually added to the graph.
    pub inserted: u64,
    /// Triples actually removed from the graph.
    pub deleted: u64,
}

/// Apply one parsed update request as a single fsynced WAL frame. On error
/// the store is rolled back to its state before the request.
pub fn apply_update(store: &mut RdfStore, update: &Update) -> Result<UpdateOutcome> {
    store.request(|req| {
        let mut out = UpdateOutcome::default();
        for op in &update.ops {
            match op {
                UpdateOp::InsertData(triples) => apply_triples(req, &[], triples, &mut out)?,
                UpdateOp::DeleteData(triples) => apply_triples(req, triples, &[], &mut out)?,
                UpdateOp::DeleteInsert { delete, insert, pattern } => {
                    let (deletions, insertions) = ground(req.store(), delete, insert, pattern)?;
                    apply_triples(req, &deletions, &insertions, &mut out)?;
                }
            }
        }
        Ok(out)
    })
}

/// Deletes before inserts, counting only triples that changed the graph.
fn apply_triples(
    req: &mut Request<'_>,
    deletions: &[Triple],
    insertions: &[Triple],
    out: &mut UpdateOutcome,
) -> Result<()> {
    for t in deletions {
        out.deleted += req.delete(t)? as u64;
    }
    for t in insertions {
        out.inserted += req.insert(t)? as u64;
    }
    Ok(())
}

/// Evaluate a `DELETE/INSERT` operation's WHERE clause against the current
/// state and instantiate both templates per solution. Pure read: nothing is
/// mutated here, so a WHERE evaluation error aborts the request before it
/// touches the store.
fn ground(
    store: &RdfStore,
    delete: &[TriplePattern],
    insert: &[TriplePattern],
    pattern: &GroupPattern,
) -> Result<(Vec<Triple>, Vec<Triple>)> {
    // An empty store has no solutions (and cannot be queried): both
    // templates instantiate to nothing.
    if !store.is_loaded() {
        return Ok((Vec::new(), Vec::new()));
    }
    let vars = Pattern::Group(pattern.clone()).variables();
    // A fully ground WHERE clause has no projection; ASK decides whether it
    // yields the one empty solution or none.
    let form = if vars.is_empty() {
        QueryForm::Ask
    } else {
        QueryForm::Select { vars: SelectVars::Vars(vars), distinct: false }
    };
    let query = Query {
        form,
        pattern: pattern.clone(),
        group_by: Vec::new(),
        having: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    };
    let mut solutions = store.query_parsed(query)?;
    if solutions.boolean == Some(true) && solutions.rows.is_empty() {
        solutions.rows.push(Vec::new());
    }
    let positions: HashMap<&str, usize> =
        solutions.vars.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect();
    let mut deletions = Vec::new();
    let mut insertions = Vec::new();
    for row in &solutions.rows {
        instantiate(delete, &positions, row, &mut deletions);
        instantiate(insert, &positions, row, &mut insertions);
    }
    Ok((deletions, insertions))
}

/// Instantiate a template against one solution. Per the W3C spec,
/// instantiations with an unbound variable or an invalid term-in-position
/// (literal subject, non-IRI predicate) are skipped silently.
fn instantiate(
    template: &[TriplePattern],
    positions: &HashMap<&str, usize>,
    row: &[Option<Term>],
    out: &mut Vec<Triple>,
) {
    for tp in template {
        let resolve = |p: &sparql::TermPattern| -> Option<Term> {
            match p {
                sparql::TermPattern::Term(t) => Some(t.clone()),
                sparql::TermPattern::Var(v) => {
                    positions.get(v.as_str()).and_then(|&i| row.get(i).cloned().flatten())
                }
            }
        };
        let (Some(s), Some(p), Some(o)) =
            (resolve(&tp.subject), resolve(&tp.predicate), resolve(&tp.object))
        else {
            continue;
        };
        if s.is_literal() || !p.is_iri() {
            continue;
        }
        out.push(Triple::new(s, p, o));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Layout, StoreConfig};
    use sparql::parse_update;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn store_with(layout: Layout, triples: &[Triple]) -> RdfStore {
        let mut store = RdfStore::new(StoreConfig::with_layout(layout));
        store.load(triples).unwrap();
        store
    }

    fn apply(store: &mut RdfStore, text: &str) -> UpdateOutcome {
        let update = parse_update(text).unwrap();
        apply_update(store, &update).unwrap()
    }

    fn all_triples(store: &RdfStore) -> usize {
        store.query("SELECT * WHERE { ?s ?p ?o }").unwrap().len()
    }

    const LAYOUTS: [Layout; 3] = [Layout::Entity, Layout::TripleStore, Layout::Vertical];

    #[test]
    fn insert_data_counts_only_new_triples() {
        for layout in LAYOUTS {
            let mut store = store_with(layout, &[t("http://s/1", "http://p/1", "http://o/1")]);
            let out = apply(
                &mut store,
                "INSERT DATA { <http://s/1> <http://p/1> <http://o/1> . \
                               <http://s/2> <http://p/1> <http://o/2> }",
            );
            assert_eq!(out, UpdateOutcome { inserted: 1, deleted: 0 }, "{layout:?}");
            assert_eq!(all_triples(&store), 2, "{layout:?}");
        }
    }

    #[test]
    fn delete_data_is_effect_based() {
        for layout in LAYOUTS {
            let mut store = store_with(
                layout,
                &[
                    t("http://s/1", "http://p/1", "http://o/1"),
                    t("http://s/2", "http://p/1", "http://o/2"),
                ],
            );
            let out = apply(
                &mut store,
                "DELETE DATA { <http://s/1> <http://p/1> <http://o/1> . \
                               <http://s/9> <http://p/1> <http://o/9> }",
            );
            assert_eq!(out, UpdateOutcome { inserted: 0, deleted: 1 }, "{layout:?}");
            assert_eq!(all_triples(&store), 1, "{layout:?}");
        }
    }

    #[test]
    fn delete_insert_where_rewrites_matching_triples() {
        for layout in LAYOUTS {
            let mut store = store_with(
                layout,
                &[
                    t("http://s/1", "http://p/old", "http://o/1"),
                    t("http://s/2", "http://p/old", "http://o/2"),
                    t("http://s/3", "http://p/other", "http://o/3"),
                ],
            );
            let out = apply(
                &mut store,
                "DELETE { ?s <http://p/old> ?o } INSERT { ?s <http://p/new> ?o } \
                 WHERE { ?s <http://p/old> ?o }",
            );
            assert_eq!(out, UpdateOutcome { inserted: 2, deleted: 2 }, "{layout:?}");
            let renamed = store
                .query("SELECT ?s WHERE { ?s <http://p/new> ?o }")
                .unwrap();
            assert_eq!(renamed.len(), 2, "{layout:?}");
            let old = store.query("SELECT ?s WHERE { ?s <http://p/old> ?o }").unwrap();
            assert_eq!(old.len(), 0, "{layout:?}");
        }
    }

    #[test]
    fn delete_where_shorthand_removes_matches() {
        for layout in LAYOUTS {
            let mut store = store_with(
                layout,
                &[
                    t("http://s/1", "http://p/1", "http://o/1"),
                    t("http://s/2", "http://p/2", "http://o/2"),
                ],
            );
            let out = apply(&mut store, "DELETE WHERE { ?s <http://p/1> ?o }");
            assert_eq!(out, UpdateOutcome { inserted: 0, deleted: 1 }, "{layout:?}");
            assert_eq!(all_triples(&store), 1, "{layout:?}");
        }
    }

    #[test]
    fn operations_apply_in_order() {
        for layout in LAYOUTS {
            let mut store = store_with(layout, &[t("http://s/1", "http://p/1", "http://o/1")]);
            // The second op deletes what the first op just inserted.
            let out = apply(
                &mut store,
                "INSERT DATA { <http://s/2> <http://p/1> <http://o/2> } ; \
                 DELETE WHERE { ?s <http://p/1> ?o }",
            );
            assert_eq!(out, UpdateOutcome { inserted: 1, deleted: 2 }, "{layout:?}");
            assert_eq!(all_triples(&store), 0, "{layout:?}");
        }
    }

    #[test]
    fn unbound_and_invalid_instantiations_are_skipped() {
        for layout in LAYOUTS {
            let mut store = store_with(
                layout,
                &[
                    t("http://s/1", "http://p/1", "http://o/1"),
                    Triple::new(
                        Term::iri("http://s/2"),
                        Term::iri("http://p/1"),
                        Term::lit("a literal"),
                    ),
                ],
            );
            // ?v is only bound via OPTIONAL; ?o can be a literal, which is
            // invalid in subject position — both instantiations skip.
            let out = apply(
                &mut store,
                "INSERT { ?o <http://p/rev> ?s . ?s <http://p/opt> ?v } \
                 WHERE { ?s <http://p/1> ?o OPTIONAL { ?s <http://p/none> ?v } }",
            );
            assert_eq!(out, UpdateOutcome { inserted: 1, deleted: 0 }, "{layout:?}");
        }
    }

    #[test]
    fn failed_request_rolls_back_completely() {
        let mut store = store_with(
            Layout::Vertical,
            &(0..600)
                .map(|i| t(&format!("http://s/{i}"), &format!("http://p/{i}"), "http://o"))
                .collect::<Vec<_>>(),
        );
        let before = store.load_report().triples;
        // First op applies, second op's WHERE uses a variable predicate over
        // more vertical tables than the translator allows — the whole
        // request must roll back, including the first op.
        let update = parse_update(
            "INSERT DATA { <http://s/new> <http://p/0> <http://o/new> } ; \
             DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }",
        )
        .unwrap();
        let err = apply_update(&mut store, &update);
        assert!(err.is_err());
        assert_eq!(store.load_report().triples, before, "first op must not survive");
        assert_eq!(
            store.query("SELECT ?o WHERE { <http://s/new> <http://p/0> ?o }").unwrap().len(),
            0,
            "rolled-back insert must be invisible"
        );
        // The store still works after a rollback.
        let out = apply(&mut store, "INSERT DATA { <http://s/new> <http://p/0> <http://o/new> }");
        assert_eq!(out.inserted, 1);
    }

    #[test]
    fn updates_on_an_empty_store_bootstrap_it() {
        for layout in LAYOUTS {
            let mut store = RdfStore::new(StoreConfig::with_layout(layout));
            // DELETE/INSERT WHERE on the empty store is a no-op, not an error.
            let out = apply(&mut store, "DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }");
            assert_eq!(out, UpdateOutcome::default(), "{layout:?}");
            let out = apply(
                &mut store,
                "INSERT DATA { <http://s/1> <http://p/1> <http://o/1> . \
                               <http://s/2> <http://p/1> <http://o/2> }",
            );
            assert_eq!(out, UpdateOutcome { inserted: 2, deleted: 0 }, "{layout:?}");
            assert_eq!(all_triples(&store), 2, "{layout:?}");
        }
    }
}
