//! Baseline relational RDF layouts (paper §2, Fig. 2): the triple-store and
//! the predicate-oriented (vertically partitioned) schema, each with its own
//! SPARQL→SQL star generation. Both share the hybrid optimizer and the
//! generic CTE-chain translator — only the per-triple access SQL differs.

use std::collections::BTreeMap;

use rdf::Triple;
use relstore::{quote_str, Database, SqlType, TableSchema, Value};
use sparql::TermPattern;

use crate::error::{Result, StoreError};
use crate::optimizer::{PTree, StarNode, StarSem};
use crate::translate::{GenState, StarGen};

// ---------------------------------------------------------------------------
// Triple-store layout
// ---------------------------------------------------------------------------

/// Load the single three-column TRIPLES relation (indexes on subject and
/// object; no predicate index, matching the paper's setup).
pub fn load_triple_store(db: &mut Database, triples: &[&Triple]) -> relstore::Result<()> {
    db.create_table(TableSchema::new(
        "triples",
        vec![
            ("subj".into(), SqlType::Text),
            ("pred".into(), SqlType::Text),
            ("obj".into(), SqlType::Text),
        ],
    ))?;
    db.insert_rows(
        "triples",
        triples.iter().map(|t| {
            vec![
                Value::str(t.subject.encode()),
                Value::str(t.predicate.encode()),
                Value::str(t.object.encode()),
            ]
        }),
    )?;
    db.create_index("triples", "subj")?;
    db.create_index("triples", "obj")?;
    Ok(())
}

/// Insert one triple unless already present (RDF graphs are sets); returns
/// whether a row was actually added. Presence is checked through the subject
/// hash index, so the probe is O(rows-per-subject), not a table scan.
pub fn insert_triple_store(db: &mut Database, t: &Triple) -> relstore::Result<bool> {
    let s = Value::str(t.subject.encode());
    let p = Value::str(t.predicate.encode());
    let o = Value::str(t.object.encode());
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
pub fn delete_triple_store(db: &mut Database, t: &Triple) -> relstore::Result<bool> {
    let s = Value::str(t.subject.encode());
    let p = Value::str(t.predicate.encode());
    let o = Value::str(t.object.encode());
    let mut removed = false;
    while let Some(rid) = find_triple_row(db, &s, &p, &o) {
        db.delete_row("triples", rid)?;
        removed = true;
    }
    Ok(removed)
}

pub struct TripleGen<'a> {
    pub tree: &'a PTree,
}

impl TripleGen<'_> {
    fn gen_one(&self, ti: usize, state: &mut GenState) -> Result<()> {
        let tp = &self.tree.triples[ti];
        let name = state.fresh();
        let prior = state.last.clone();
        let mut from: Vec<String> = Vec::new();
        if let Some(p) = &prior {
            from.push(format!("{p} AS P"));
        }
        from.push("triples AS T".to_string());
        let mut select: Vec<String> =
            if prior.is_some() { state.prior_projection("P") } else { Vec::new() };
        let mut wheres: Vec<String> = Vec::new();
        let mut new_bound = state.bound.clone();
        let mut local: BTreeMap<String, String> = BTreeMap::new();
        for (tpat, col) in
            [(&tp.subject, "T.subj"), (&tp.predicate, "T.pred"), (&tp.object, "T.obj")]
        {
            match tpat {
                TermPattern::Term(t) => wheres.push(format!("{col} = {}", quote_str(&t.encode()))),
                TermPattern::Var(v) => {
                    if let Some(expr) = local.get(v) {
                        wheres.push(format!("{col} = {expr}"));
                    } else if state.bound.contains_key(v) {
                        let cond = state.join_bound(v, col, &mut select);
                        wheres.push(cond);
                        local.insert(v.clone(), col.to_string());
                    } else {
                        let out = state.col(v);
                        select.push(format!("{col} AS {out}"));
                        new_bound.insert(v.clone(), out);
                        local.insert(v.clone(), col.to_string());
                    }
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
        Ok(())
    }
}

impl StarGen for TripleGen<'_> {
    fn gen_star(&self, star: &StarNode, state: &mut GenState) -> Result<()> {
        if star.sem != StarSem::And {
            return Err(StoreError::Unsupported(
                "merged stars are an entity-layout feature".into(),
            ));
        }
        for &ti in &star.triples {
            self.gen_one(ti, state)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Predicate-oriented (vertical partitioning) layout
// ---------------------------------------------------------------------------

/// Predicate → table-name map for the vertical layout.
#[derive(Debug, Clone, Default)]
pub struct VerticalLayout {
    pub tables: BTreeMap<String, String>,
}

/// One two-column table per predicate, both columns indexed (the classic
/// column-store emulation of Abadi et al. that the paper compares against).
pub fn load_vertical(
    db: &mut Database,
    triples: &[&Triple],
) -> relstore::Result<VerticalLayout> {
    let mut layout = VerticalLayout::default();
    let mut grouped: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for t in triples {
        grouped
            .entry(t.predicate.encode())
            .or_default()
            .push((t.subject.encode(), t.object.encode()));
    }
    for (i, (pred, rows)) in grouped.into_iter().enumerate() {
        let table = format!("vp{i}");
        db.create_table(TableSchema::new(
            &table,
            vec![("entry".into(), SqlType::Text), ("val".into(), SqlType::Text)],
        ))?;
        db.insert_rows(&table, rows.into_iter().map(|(s, o)| vec![Value::str(s), Value::str(o)]))?;
        db.create_index(&table, "entry")?;
        db.create_index(&table, "val")?;
        layout.tables.insert(pred, table);
    }
    Ok(layout)
}

/// Insert one triple unless already present; returns whether a row was
/// added. Unseen predicates need a schema change (the dynamic-schema
/// weakness the paper points out — a new table per new predicate).
pub fn insert_vertical(
    db: &mut Database,
    layout: &mut VerticalLayout,
    t: &Triple,
) -> relstore::Result<bool> {
    let pred = t.predicate.encode();
    let table = match layout.tables.get(&pred) {
        Some(t) => t.clone(),
        None => {
            let table = format!("vp{}", layout.tables.len());
            db.create_table(TableSchema::new(
                &table,
                vec![("entry".into(), SqlType::Text), ("val".into(), SqlType::Text)],
            ))?;
            db.create_index(&table, "entry")?;
            db.create_index(&table, "val")?;
            layout.tables.insert(pred.clone(), table.clone());
            table
        }
    };
    let s = Value::str(t.subject.encode());
    let o = Value::str(t.object.encode());
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
    t: &Triple,
) -> relstore::Result<bool> {
    let Some(table) = layout.tables.get(&t.predicate.encode()) else {
        return Ok(false);
    };
    let s = Value::str(t.subject.encode());
    let o = Value::str(t.object.encode());
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
    /// Refuse variable-predicate queries when the union would span more
    /// tables than this (documented vertical-partitioning weakness).
    pub max_union_tables: usize,
}

impl VerticalGen<'_> {
    fn gen_one(&self, ti: usize, state: &mut GenState) -> Result<()> {
        let tp = &self.tree.triples[ti];
        // Resolve the relation: a predicate table, or a UNION view for
        // variable predicates.
        let (rel_sql, pred_var): (String, Option<&str>) = match &tp.predicate {
            TermPattern::Term(p) => {
                let pe = p.encode();
                match self.layout.tables.get(&pe) {
                    Some(t) => (t.clone(), None),
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
            TermPattern::Var(v) => {
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
                        format!("SELECT entry, val, {} AS pred FROM {t}", quote_str(p))
                    })
                    .collect();
                state.ctes.push((name.clone(), selects.join(" UNION ALL ")));
                (name, Some(v.as_str()))
            }
        };

        let name = state.fresh();
        let prior = state.last.clone();
        let mut from: Vec<String> = Vec::new();
        if let Some(p) = &prior {
            from.push(format!("{p} AS P"));
        }
        from.push(format!("{rel_sql} AS T"));
        let mut select: Vec<String> =
            if prior.is_some() { state.prior_projection("P") } else { Vec::new() };
        let mut wheres: Vec<String> = Vec::new();
        let mut new_bound = state.bound.clone();
        let mut local: BTreeMap<String, String> = BTreeMap::new();
        let positions: Vec<(&TermPattern, &str)> =
            vec![(&tp.subject, "T.entry"), (&tp.object, "T.val")];
        if let Some(pv) = pred_var {
            if state.bound.contains_key(pv) {
                let cond = state.join_bound(pv, "T.pred", &mut select);
                wheres.push(cond);
            } else {
                let out = state.col(pv);
                select.push(format!("T.pred AS {out}"));
                new_bound.insert(pv.to_string(), out);
                // The same variable may reappear in subject/object position
                // (`?s ?p ?p`): record it so those join on T.pred instead of
                // re-projecting the alias (ambiguous column).
                local.insert(pv.to_string(), "T.pred".to_string());
            }
        }
        for (tpat, col) in positions {
            match tpat {
                TermPattern::Term(t) => wheres.push(format!("{col} = {}", quote_str(&t.encode()))),
                TermPattern::Var(v) => {
                    if let Some(expr) = local.get(v) {
                        wheres.push(format!("{col} = {expr}"));
                    } else if state.bound.contains_key(v) {
                        let cond = state.join_bound(v, col, &mut select);
                        wheres.push(cond);
                        local.insert(v.clone(), col.to_string());
                    } else {
                        let out = state.col(v);
                        select.push(format!("{col} AS {out}"));
                        new_bound.insert(v.clone(), out);
                        local.insert(v.clone(), col.to_string());
                    }
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
        Ok(())
    }
}

impl StarGen for VerticalGen<'_> {
    fn gen_star(&self, star: &StarNode, state: &mut GenState) -> Result<()> {
        if star.sem != StarSem::And {
            return Err(StoreError::Unsupported(
                "merged stars are an entity-layout feature".into(),
            ));
        }
        for &ti in &star.triples {
            self.gen_one(ti, state)?;
        }
        Ok(())
    }
}
