//! Baseline relational RDF layouts (paper §2, Fig. 2): the triple-store and
//! the predicate-oriented (vertically partitioned) schema, each with its own
//! SPARQL→SQL star generation. Both share the hybrid optimizer and the
//! generic CTE-chain translator — only the per-triple access SQL differs.
//! Like the entity layout, both store `BIGINT` dictionary ids, so the three
//! layouts differ in schema alone.

use std::collections::BTreeMap;

use rdf::Triple;
use relstore::{Database, SqlType, TableSchema, Value};
use sparql::TermPattern;

use crate::dict::Dict;
use crate::error::{Result, StoreError};
use crate::optimizer::{PTree, StarNode, StarSem};
use crate::translate::{GenState, PlanDict, StarGen};

/// The dictionary ids of a triple's terms, interning any new term.
fn intern_all(dict: &mut Dict, t: &Triple) -> [Value; 3] {
    [&t.subject, &t.predicate, &t.object].map(|term| Value::Int(dict.intern(&term.encode())))
}

/// The dictionary ids of a triple's terms, or `None` when the dictionary
/// lacks one of them — then no stored row can hold the triple.
fn lookup_all(dict: &Dict, t: &Triple) -> Option<[Value; 3]> {
    let [s, p, o] =
        [&t.subject, &t.predicate, &t.object].map(|term| dict.lookup(&term.encode()));
    Some([s?, p?, o?].map(Value::Int))
}

/// Create a table of `BIGINT` id columns with an index on each of
/// `indexed`.
fn create_id_table(
    db: &mut Database,
    name: &str,
    cols: &[&str],
    indexed: &[&str],
) -> relstore::Result<()> {
    db.create_table(TableSchema::new(
        name,
        cols.iter().map(|c| (c.to_string(), SqlType::Int)).collect(),
    ))?;
    indexed.iter().try_for_each(|c| db.create_index(name, c))
}

// ---------------------------------------------------------------------------
// Triple-store layout
// ---------------------------------------------------------------------------

/// Create the single three-column TRIPLES relation (indexes on subject and
/// object; no predicate index, matching the paper's setup).
pub(crate) fn create_triples_table(db: &mut Database) -> relstore::Result<()> {
    create_id_table(db, "triples", &["subj", "pred", "obj"], &["subj", "obj"])
}

/// Insert one triple unless already present (RDF graphs are sets); returns
/// whether a row was actually added. Presence is checked through the subject
/// hash index, so the probe is O(rows-per-subject), not a table scan.
pub fn insert_triple_store(
    db: &mut Database,
    dict: &mut Dict,
    t: &Triple,
) -> relstore::Result<bool> {
    let [s, p, o] = intern_all(dict, t);
    if find_triple_row(db, &s, &p, &o).is_some() {
        return Ok(false);
    }
    db.insert_rows("triples", [vec![s, p, o]])?;
    Ok(true)
}

/// Row id of `(s, p, o)` in the TRIPLES relation, if present.
fn find_triple_row(db: &Database, s: &Value, p: &Value, o: &Value) -> Option<u32> {
    let table = db.table("triples")?;
    let idx = table.index_on("subj")?;
    idx.lookup(s).iter().copied().find(|&rid| {
        let row = table.row_values(rid);
        &row[1] == p && &row[2] == o
    })
}

/// Delete every row matching `t`; returns whether anything was removed.
/// `delete_row` is swap-remove, so the index is re-probed after each delete
/// rather than trusting previously collected row ids.
pub fn delete_triple_store(db: &mut Database, dict: &Dict, t: &Triple) -> relstore::Result<bool> {
    let Some([s, p, o]) = lookup_all(dict, t) else {
        return Ok(false);
    };
    let mut removed = false;
    while let Some(rid) = find_triple_row(db, &s, &p, &o) {
        db.delete_row("triples", rid)?;
        removed = true;
    }
    Ok(removed)
}

pub struct TripleGen<'a> {
    pub tree: &'a PTree,
    /// Constants become dictionary ids, as in the entity layout.
    pub dict: &'a PlanDict<'a>,
}

impl StarGen for TripleGen<'_> {
    fn gen_star(&self, star: &StarNode, state: &mut GenState) -> Result<()> {
        and_star(star, state, |ti, state| {
            let tp = &self.tree.triples[ti];
            let positions =
                [(&tp.subject, "T.subj"), (&tp.predicate, "T.pred"), (&tp.object, "T.obj")];
            access_cte(state, self.dict, "triples", &positions);
            Ok(())
        })
    }
}

/// A baseline star is its triples' accesses in turn; merged stars are an
/// entity-layout feature.
fn and_star(
    star: &StarNode,
    state: &mut GenState,
    mut gen_one: impl FnMut(usize, &mut GenState) -> Result<()>,
) -> Result<()> {
    if star.sem != StarSem::And {
        return Err(StoreError::Unsupported("merged stars are an entity-layout feature".into()));
    }
    star.triples.iter().try_for_each(|&ti| gen_one(ti, state))
}

/// One CTE that joins `rel AS T` to the chain head. Each position — a
/// pattern term and the `T` column holding it — becomes a condition (a
/// constant's dictionary ID, a join on a bound variable, or on an earlier
/// position holding the same variable) or a new binding.
fn access_cte(
    state: &mut GenState,
    dict: &PlanDict<'_>,
    rel: &str,
    positions: &[(&TermPattern, &str)],
) {
    let name = state.fresh();
    let prior = state.last.clone();
    let mut from: Vec<String> = Vec::new();
    if let Some(p) = &prior {
        from.push(format!("{p} AS P"));
    }
    from.push(format!("{rel} AS T"));
    let mut select: Vec<String> =
        if prior.is_some() { state.prior_projection("P") } else { Vec::new() };
    let mut wheres: Vec<String> = Vec::new();
    let mut new_bound = state.bound.clone();
    let mut local: BTreeMap<String, String> = BTreeMap::new();
    for &(tpat, col) in positions {
        match tpat {
            TermPattern::Term(t) => wheres.push(format!("{col} = {}", dict.const_sql(&t.encode()))),
            TermPattern::Var(v) => {
                if let Some(expr) = local.get(v) {
                    wheres.push(format!("{col} = {expr}"));
                    continue;
                }
                if state.bound.contains_key(v) {
                    let cond = state.join_bound(v, col, &mut select);
                    wheres.push(cond);
                } else {
                    let out = state.col(v);
                    select.push(format!("{col} AS {out}"));
                    new_bound.insert(v.clone(), out);
                }
                local.insert(v.clone(), col.to_string());
            }
        }
    }
    if select.is_empty() {
        select.push("1 AS one".to_string());
    }
    let mut body = format!("SELECT {} FROM {}", select.join(", "), from.join(", "));
    if !wheres.is_empty() {
        body.push_str(" WHERE ");
        body.push_str(&wheres.join(" AND "));
    }
    state.bound = new_bound;
    state.push_cte(name, body);
}

// ---------------------------------------------------------------------------
// Predicate-oriented (vertical partitioning) layout
// ---------------------------------------------------------------------------

/// Predicate → table-name map for the vertical layout.
#[derive(Debug, Clone, Default)]
pub struct VerticalLayout {
    pub tables: BTreeMap<String, String>,
}

/// Create one predicate's two-column table, both columns indexed (the
/// classic column-store emulation of Abadi et al. that the paper compares
/// against).
pub(crate) fn create_vp_table(db: &mut Database, name: &str) -> relstore::Result<()> {
    create_id_table(db, name, &["entry", "val"], &["entry", "val"])
}

/// Insert one triple unless already present; returns whether a row was
/// added. Unseen predicates need a schema change (the dynamic-schema
/// weakness the paper points out — a new table per new predicate).
pub fn insert_vertical(
    db: &mut Database,
    layout: &mut VerticalLayout,
    dict: &mut Dict,
    t: &Triple,
) -> relstore::Result<bool> {
    let [s, _, o] = intern_all(dict, t);
    let pred = t.predicate.encode();
    let table = match layout.tables.get(&pred) {
        Some(t) => t.clone(),
        None => {
            let table = format!("vp{}", layout.tables.len());
            create_vp_table(db, &table)?;
            layout.tables.insert(pred, table.clone());
            table
        }
    };
    if find_vertical_row(db, &table, &s, &o).is_some() {
        return Ok(false);
    }
    db.insert_rows(&table, [vec![s, o]])?;
    Ok(true)
}

/// Row id of `(entry, val)` in a predicate table, if present.
fn find_vertical_row(db: &Database, table: &str, s: &Value, o: &Value) -> Option<u32> {
    let t = db.table(table)?;
    let idx = t.index_on("entry")?;
    idx.lookup(s).iter().copied().find(|&rid| &t.row_values(rid)[1] == o)
}

/// Delete every row matching `t`; returns whether anything was removed.
/// The predicate table itself is never dropped — layouts only grow, which is
/// what lets deletes skip plan-cache invalidation.
pub fn delete_vertical(
    db: &mut Database,
    layout: &VerticalLayout,
    dict: &Dict,
    t: &Triple,
) -> relstore::Result<bool> {
    let Some(table) = layout.tables.get(&t.predicate.encode()) else {
        return Ok(false);
    };
    let Some([s, _, o]) = lookup_all(dict, t) else {
        return Ok(false);
    };
    let mut removed = false;
    while let Some(rid) = find_vertical_row(db, table, &s, &o) {
        db.delete_row(table, rid)?;
        removed = true;
    }
    Ok(removed)
}

pub struct VerticalGen<'a> {
    pub tree: &'a PTree,
    pub layout: &'a VerticalLayout,
    /// Constants become dictionary ids, as in the entity layout.
    pub dict: &'a PlanDict<'a>,
    /// Refuse variable-predicate queries when the union would span more
    /// tables than this (documented vertical-partitioning weakness).
    pub max_union_tables: usize,
}

impl VerticalGen<'_> {
    fn gen_one(&self, ti: usize, state: &mut GenState) -> Result<()> {
        let tp = &self.tree.triples[ti];
        // Resolve the relation: a predicate table, or a UNION view for
        // variable predicates.
        let rel_sql = match &tp.predicate {
            TermPattern::Term(p) => {
                let pe = p.encode();
                match self.layout.tables.get(&pe) {
                    Some(t) => t.clone(),
                    None => {
                        // Unknown predicate: provably empty.
                        let name = state.fresh();
                        let mut select: Vec<String> = state
                            .bound
                            .values()
                            .map(|c| format!("NULL AS {c}"))
                            .collect();
                        let mut new_bound = state.bound.clone();
                        for pos in [&tp.subject, &tp.object] {
                            if let TermPattern::Var(v) = pos {
                                if !new_bound.contains_key(v) {
                                    let col = state.col(v);
                                    select.push(format!("NULL AS {col}"));
                                    new_bound.insert(v.clone(), col);
                                }
                            }
                        }
                        if select.is_empty() {
                            select.push("1 AS one".into());
                        }
                        let body =
                            format!("SELECT {} WHERE FALSE", select.join(", "));
                        state.bound = new_bound;
                        state.push_cte(name, body);
                        return Ok(());
                    }
                }
            }
            TermPattern::Var(_) => {
                if self.layout.tables.len() > self.max_union_tables {
                    return Err(StoreError::Unsupported(format!(
                        "variable predicate over {} vertical tables",
                        self.layout.tables.len()
                    )));
                }
                // Materialize an all-predicates union as its own CTE.
                let name = state.fresh();
                let selects: Vec<String> = self
                    .layout
                    .tables
                    .iter()
                    .map(|(p, t)| {
                        format!("SELECT entry, val, {} AS pred FROM {t}", self.dict.const_sql(p))
                    })
                    .collect();
                state.ctes.push((name.clone(), selects.join(" UNION ALL ")));
                name
            }
        };

        // Only the union has a `pred` column; a constant predicate picked
        // the table.
        let positions =
            [(&tp.predicate, "T.pred"), (&tp.subject, "T.entry"), (&tp.object, "T.val")];
        let skip = usize::from(matches!(tp.predicate, TermPattern::Term(_)));
        access_cte(state, self.dict, &rel_sql, &positions[skip..]);
        Ok(())
    }
}

impl StarGen for VerticalGen<'_> {
    fn gen_star(&self, star: &StarNode, state: &mut GenState) -> Result<()> {
        and_star(star, state, |ti, state| self.gen_one(ti, state))
    }
}
