//! Star-access SQL generation for the DB2RDF entity layout (paper Figs. 12
//! and 13): single-row DPH/RPH probes, CASE projections for predicates
//! mapped to several columns, DS/RS `LEFT OUTER JOIN` + `COALESCE` for
//! multi-valued predicates, OR-merged stars with the UNNEST value flip, and
//! OPT-merged stars with NULLable CASE projections.

use std::collections::BTreeMap;

use sparql::TermPattern;

use crate::error::{Result, StoreError};
use crate::layout::SideLayout;
use crate::optimizer::{Method, PTree, StarNode, StarSem};
use crate::translate::{GenState, PlanDict, StarGen};

pub struct EntityGen<'a> {
    pub tree: &'a PTree,
    pub direct: &'a SideLayout,
    pub reverse: &'a SideLayout,
    /// Constants in the query become dictionary IDs in the emitted SQL; a
    /// term absent from the dictionary is absent from the data, so its
    /// equality condition degenerates to `FALSE` (and the miss is recorded).
    pub dict: &'a PlanDict<'a>,
}

impl StarGen for EntityGen<'_> {
    fn gen_star(&self, star: &StarNode, state: &mut GenState) -> Result<()> {
        // Scan normalizes to the direct side (an entity access with an
        // unbound entity is a scan).
        let (table, sec, layout, is_direct) = match star.method {
            Method::Acs | Method::Scan => ("dph", "ds", self.direct, true),
            Method::Aco => ("rph", "rs", self.reverse, false),
        };

        let t0 = &self.tree.triples[star.triples[0]];
        let entity_tp = if is_direct { &t0.subject } else { &t0.object };

        let name = state.fresh();
        let prior = state.last.clone();
        let mut from: Vec<String> = Vec::new();
        if let Some(p) = &prior {
            from.push(format!("{p} AS P"));
        }
        from.push(format!("{table} AS T"));
        let mut select: Vec<String> =
            if prior.is_some() { state.prior_projection("P") } else { Vec::new() };
        let mut wheres: Vec<String> = Vec::new();
        let mut joins: Vec<String> = Vec::new();
        let mut new_bound = state.bound.clone();
        // Variable → SQL expression available inside this CTE.
        let mut local: BTreeMap<String, String> = BTreeMap::new();

        match entity_tp {
            TermPattern::Term(t) => {
                wheres.push(format!("T.entry = {}", self.dict.const_sql(&t.encode())));
            }
            TermPattern::Var(v) => {
                local.insert(v.clone(), "T.entry".to_string());
                if state.bound.contains_key(v) {
                    let cond = state.join_bound(v, "T.entry", &mut select);
                    wheres.push(cond);
                } else {
                    let col = state.col(v);
                    select.push(format!("T.entry AS {col}"));
                    new_bound.insert(v.clone(), col);
                }
            }
        }

        // OR-merge bookkeeping.
        let mut or_conds: Vec<String> = Vec::new();
        let mut or_vals: Vec<String> = Vec::new();
        let mut or_shared_var: Option<String> = None;

        for (i, &ti) in star.triples.iter().enumerate() {
            let tp = &self.tree.triples[ti];
            let required = match star.sem {
                StarSem::And => true,
                StarSem::Or => false,
                StarSem::Opt => i < star.n_required,
            };
            let other_tp = if is_direct { &tp.object } else { &tp.subject };

            match &tp.predicate {
                TermPattern::Term(p) => {
                    let pe = p.encode();
                    let cands = layout.candidates(&pe);
                    if cands.is_empty() {
                        // The predicate cannot be stored anywhere: a required
                        // access matches nothing.
                        if required {
                            wheres.push("FALSE".to_string());
                        }
                        continue;
                    }
                    let pid = self.dict.const_sql(&p.encode());
                    let presence = cands
                        .iter()
                        .map(|c| format!("T.pred{c} = {pid}"))
                        .collect::<Vec<_>>()
                        .join(" OR ");
                    let raw = if cands.len() == 1 {
                        format!("T.val{}", cands[0])
                    } else {
                        let branches = cands
                            .iter()
                            .map(|c| format!("WHEN T.pred{c} = {pid} THEN T.val{c}"))
                            .collect::<Vec<_>>()
                            .join(" ");
                        format!("CASE {branches} ELSE NULL END")
                    };
                    // Non-required values must be NULL when the predicate is
                    // absent; a multi-column CASE already guards, and OR
                    // branches get their guard from the flip projection.
                    let guarded = if star.sem != StarSem::Or && !required && cands.len() == 1 {
                        format!("CASE WHEN {presence} THEN {raw} ELSE NULL END")
                    } else {
                        raw
                    };
                    let val = if layout.is_multivalued(&pe) {
                        let alias = format!("S{i}");
                        joins.push(format!(
                            "LEFT OUTER JOIN {sec} AS {alias} ON {guarded} = {alias}.l_id"
                        ));
                        format!("COALESCE({alias}.elm, {guarded})")
                    } else {
                        guarded
                    };

                    match star.sem {
                        StarSem::Or => {
                            // Each branch contributes a guarded flip value:
                            // the UNION ALL semantics (one row per satisfied
                            // branch) come from the UNNEST flip (Fig. 13).
                            let (extra_cond, flip_val): (Option<String>, String) = match other_tp
                            {
                                TermPattern::Term(o) => (
                                    Some(format!("{val} = {}", self.dict.const_sql(&o.encode()))),
                                    "'1'".to_string(),
                                ),
                                TermPattern::Var(v) => {
                                    if let Some(expr) = local.get(v) {
                                        // Object var coincides with the entity
                                        // var: row-level equality, marker flip.
                                        (Some(format!("{val} = {expr}")), "'1'".to_string())
                                    } else {
                                        or_shared_var = Some(v.clone());
                                        (None, val.clone())
                                    }
                                }
                            };
                            let full = match &extra_cond {
                                Some(c) => format!("{presence} AND {c}"),
                                None => presence.clone(),
                            };
                            or_conds.push(format!("({full})"));
                            or_vals
                                .push(format!("CASE WHEN {full} THEN {flip_val} ELSE NULL END"));
                        }
                        _ => {
                            if required {
                                wheres.push(format!("({presence})"));
                            }
                            match other_tp {
                                TermPattern::Term(o) => {
                                    if required {
                                        let id = self.dict.const_sql(&o.encode());
                                        wheres.push(format!("{val} = {id}"));
                                    }
                                    // Optional triple with constant object
                                    // binds nothing: a semantic no-op.
                                }
                                TermPattern::Var(v) => {
                                    if let Some(expr) = local.get(v).cloned() {
                                        if required {
                                            wheres.push(format!("{val} = {expr}"));
                                        }
                                    } else if state.bound.contains_key(v) {
                                        if required {
                                            let cond = state.join_bound(v, &val, &mut select);
                                            wheres.push(cond);
                                        }
                                        // Optional triple on an already-bound
                                        // variable binds nothing new: no-op.
                                    } else {
                                        let col = state.col(v);
                                        select.push(format!("{val} AS {col}"));
                                        new_bound.insert(v.clone(), col);
                                        local.insert(v.clone(), val.clone());
                                        // An OPTIONAL folded into the row
                                        // binds NULL where it does not match.
                                        if !required {
                                            state.maybe_null.insert(v.clone());
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                TermPattern::Var(pv) => {
                    // Variable predicate: single-triple star; flip every
                    // (pred, val) column pair out with UNNEST.
                    debug_assert_eq!(star.triples.len(), 1);
                    if layout.ncols == 0 {
                        return Err(StoreError::Unsupported(
                            "variable predicate over empty layout".into(),
                        ));
                    }
                    let pairs = (0..layout.ncols)
                        .map(|c| format!("(T.pred{c}, T.val{c})"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    from.push(format!("UNNEST ({pairs}) AS L(p, v)"));
                    if state.bound.contains_key(pv) {
                        let cond = state.join_bound(pv, "L.p", &mut select);
                        wheres.push(cond);
                    } else {
                        let col = state.col(pv);
                        select.push(format!("L.p AS {col}"));
                        new_bound.insert(pv.clone(), col);
                        local.insert(pv.clone(), "L.p".to_string());
                    }
                    let val = if layout.multivalued.is_empty() {
                        "L.v".to_string()
                    } else {
                        joins.push(format!(
                            "LEFT OUTER JOIN {sec} AS SV ON L.v = SV.l_id"
                        ));
                        "COALESCE(SV.elm, L.v)".to_string()
                    };
                    match other_tp {
                        TermPattern::Term(o) => {
                            wheres.push(format!("{val} = {}", self.dict.const_sql(&o.encode())));
                        }
                        TermPattern::Var(v) => {
                            if let Some(expr) = local.get(v).cloned() {
                                wheres.push(format!("{val} = {expr}"));
                            } else if state.bound.contains_key(v) {
                                let cond = state.join_bound(v, &val, &mut select);
                                wheres.push(cond);
                            } else {
                                let col = state.col(v);
                                select.push(format!("{val} AS {col}"));
                                new_bound.insert(v.clone(), col);
                                local.insert(v.clone(), val.clone());
                            }
                        }
                    }
                }
            }
        }

        if star.sem == StarSem::Or {
            if or_conds.is_empty() {
                return Err(StoreError::Unsupported("empty OR star".into()));
            }
            wheres.push(format!("({})", or_conds.join(" OR ")));
            // Project each branch value for the flip.
            for (k, v) in or_vals.iter().enumerate() {
                select.push(format!("{v} AS o_{k}"));
            }
        }

        if select.is_empty() {
            select.push("1 AS one".to_string());
        }
        let mut body = format!("SELECT {} FROM {}", select.join(", "), from.join(", "));
        for j in &joins {
            body.push(' ');
            body.push_str(j);
        }
        if !wheres.is_empty() {
            body.push_str(" WHERE ");
            body.push_str(&wheres.join(" AND "));
        }
        state.bound = new_bound;
        state.push_cte(name.clone(), body);

        // OR flip: one output row per satisfied branch (paper Fig. 13,
        // QT23 — `TABLE(T.valm, T.val0)` flipping the CASE projections).
        if star.sem == StarSem::Or {
            let flip = state.fresh();
            let mut cols: Vec<String> =
                state.bound.values().map(|c| format!("{c} AS {c}")).collect();
            let mut where_flip = String::new();
            // Without a shared variable the marker flip only multiplies rows.
            if let Some(v) = &or_shared_var {
                if let Some(col) = state.bound.get(v).cloned() {
                    // Variable already bound upstream: each satisfied
                    // branch must agree with it — null-compatibly if the
                    // upstream column may be SPARQL-unbound.
                    if state.maybe_null.remove(v) {
                        for c in cols.iter_mut() {
                            if *c == format!("{col} AS {col}") {
                                *c = format!("COALESCE({col}, L.x) AS {col}");
                            }
                        }
                        where_flip = format!(" WHERE {col} IS NULL OR L.x = {col}");
                    } else {
                        where_flip = format!(" WHERE L.x = {col}");
                    }
                } else {
                    let col = state.col(v);
                    cols.push(format!("L.x AS {col}"));
                    state.bound.insert(v.clone(), col);
                }
            }
            if cols.is_empty() {
                cols.push("L.x AS one".to_string());
            }
            let tuple =
                (0..or_vals.len()).map(|k| format!("o_{k}")).collect::<Vec<_>>().join(", ");
            let body = format!(
                "SELECT {} FROM {name}, UNNEST ({tuple}) AS L(x){where_flip}",
                cols.join(", ")
            );
            state.push_cte(flip, body);
        }
        Ok(())
    }
}
