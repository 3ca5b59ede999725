//! Semi-naive (delta-driven) evaluation of iterative CTEs.
//!
//! The naive loop produced by the planner re-joins the **entire** CTE table
//! against the graph every iteration, even when only a handful of rows
//! changed in the previous round. Classic semi-naive evaluation instead
//! feeds the iterative join the **delta table** — the rows the last merge
//! actually changed — and folds the resulting contributions back into the
//! full table with a dedup-merge. Late iterations then cost `O(delta)`
//! instead of `O(table)`.
//!
//! # Delta-eligibility
//!
//! Substituting the delta for the full table is only exact for *accumulator*
//! loop bodies, where every output column either carries the old row value
//! through unchanged or folds new contributions into it with a monotone
//! `LEAST`/`GREATEST`. Concretely, the working-table plan must look like
//!
//! ```text
//! Projection: key, LEAST(old, COALESCE(MIN(contrib), old)), ...
//!   Aggregate: groupBy=[anchor columns] aggs=[MIN/MAX over other columns]
//!     Join (anchor ⨝ invariant) ⨝ propagation     -- equi joins, Left/Inner
//!       Join: anchor = TempScan cte, invariant = loop-constant side
//!       propagation = TempScan cte (optionally filtered)
//! ```
//!
//! with these rules (checked by [`apply`]; any failure falls back to full
//! recompute, recorded as `mode=full` in `EXPLAIN ANALYZE`):
//!
//! * the body reads the CTE exactly twice: once as the **anchor** (left
//!   spine of the joins, providing the old row) and once as the
//!   **propagation** side (the rows whose new values spread contributions);
//! * both joins are `INNER`/`LEFT` equi joins on bare columns with no
//!   residual filter, and the upper join's keys touch only the invariant
//!   side (`e.src = prop.node`, never an anchor column);
//! * the invariant side reads nothing the loop writes
//!   ([`LoopStep::is_invariant`]: base tables and pre-loop temps only);
//! * every `GROUP BY` expression is a bare anchor column;
//! * every aggregate is a non-distinct `MIN`/`MAX` whose argument references
//!   only propagation/invariant columns — never the anchor, so a
//!   contribution is fully determined by rows that were once in a delta;
//! * output column `j` is either the bare anchor column `j` (the loop key
//!   must be one of these) or `LEAST(...)`/`GREATEST(...)` containing the
//!   bare anchor column `j` (the running accumulator), where every other
//!   argument is the anchor column `j` itself, a matching-direction
//!   aggregate (`MIN` inside `LEAST`, `MAX` inside `GREATEST`), or
//!   `COALESCE(aggregate, anchor column j)`. A *different* anchor column
//!   in the fold would make the fold change the row's value even with no
//!   aggregate contribution — an update semi-naive would skip, because
//!   rows without contributions never re-run the fold.
//!
//! The accumulator shape is what makes the rewrite *exact*, not just
//! convergence-preserving: by induction over iterations, every value a
//! propagation row ever takes enters the delta when it is created (iteration
//! one seeds the delta with the whole table), its contribution folds into
//! the accumulator the following round, and the accumulator is monotone —
//! so dropping a contribution from an *unchanged* row is harmless, its value
//! was already folded in. Raw aggregate outputs (e.g. the paper-literal SSSP
//! `COALESCE(MIN(..), 9999999)` scratch column) do **not** satisfy this —
//! the minimum over changed rows differs from the minimum over all rows —
//! which is why such bodies (and non-monotone aggregates like PageRank's
//! `SUM`) deliberately take the full-recompute path.
//!
//! # The rewrite
//!
//! For an eligible loop the pass (1) replaces the propagation scan with a
//! scan of `__delta_<cte>`, (2) reorders the joins delta-first so
//! per-iteration join work is proportional to the delta, restoring the
//! original column order with a projection, and (3) forces the merge path
//! with `delta_out` set, so the merge refills the delta with exactly the
//! changed rows — which also makes `UNTIL DELTA` termination `O(delta)`
//! instead of a full-table diff. The invariant side stays where it is, the
//! build side of the delta's join: being loop-invariant, that build is made
//! once and re-probed every round by the executor's join-state cache.
//!
//! ```
//! use spinner_parser::parse_sql;
//! use spinner_plan::builder::SchemaProvider;
//! use spinner_plan::{plan_statement, PlannedStatement};
//! use spinner_common::{DataType, EngineConfig, Field, Schema, SchemaRef};
//! use std::sync::Arc;
//!
//! struct Edges;
//! impl SchemaProvider for Edges {
//!     fn table_schema(&self, name: &str) -> Option<SchemaRef> {
//!         (name == "edges").then(|| {
//!             Arc::new(Schema::new(vec![
//!                 Field::new("src", DataType::Int),
//!                 Field::new("dst", DataType::Int),
//!             ]))
//!         })
//!     }
//!     fn table_primary_key(&self, _name: &str) -> Option<usize> { None }
//! }
//!
//! // Connected components by min-label propagation: an accumulator body.
//! let sql = "WITH ITERATIVE cc (node, label) AS ( \
//!              SELECT src, src FROM edges \
//!            ITERATE SELECT cc.node, LEAST(cc.label, COALESCE(MIN(nbr.label), cc.label)) \
//!              FROM cc LEFT JOIN edges AS e ON cc.node = e.dst \
//!                      LEFT JOIN cc AS nbr ON nbr.node = e.src \
//!              GROUP BY cc.node, cc.label \
//!            UNTIL DELTA < 1 ) \
//!            SELECT node, label FROM cc";
//! let config = EngineConfig::default();
//! let stmt = parse_sql(sql).unwrap();
//! let planned = plan_statement(&stmt, &Edges, &config).unwrap();
//! let optimized = spinner_optimizer::optimize_statement(planned, &config).unwrap();
//! let PlannedStatement::Query(q) = optimized else { unreachable!() };
//! let explain = q.explain();
//! // The loop body now probes the delta table against the invariant side.
//! assert!(explain.contains("TempScan: __delta___cte_cc_1"));
//! // The invariant side stays in the loop body.
//! let body = &explain[explain.find("Initialize loop operator").unwrap()..];
//! assert!(body.contains("TableScan: edges"));
//! ```

use std::sync::Arc;

use spinner_common::{Result, Schema};
use spinner_plan::expr::{AggExpr, AggFunc, ScalarFn};
use spinner_plan::{JoinType, LogicalPlan, LoopKind, LoopStep, PlanExpr, Step};

/// Rewrite every delta-eligible iterative loop in the step program to
/// semi-naive form. Ineligible loops are returned untouched (full
/// recompute); recursive (`FixedPoint`) loops are already delta-driven by
/// construction and are left alone.
pub fn apply(steps: Vec<Step>) -> Result<Vec<Step>> {
    let rewrite = |step| match step {
        Step::Loop(mut l) => {
            // Nested loops first.
            l.body = apply(std::mem::take(&mut l.body))?;
            Ok(Step::Loop(try_rewrite_loop(&l).unwrap_or(l)))
        }
        other => Ok(other),
    };
    steps.into_iter().map(rewrite).collect()
}

/// Attempt the semi-naive rewrite of one iterative loop. `None` means the
/// body is not delta-eligible and the loop keeps full-recompute semantics.
fn try_rewrite_loop(l: &LoopStep) -> Option<LoopStep> {
    let LoopKind::Iterative { working, merge, .. } = &l.kind else {
        return None;
    };
    let work_idx = l
        .body
        .iter()
        .position(|s| matches!(s, Step::Materialize { name, .. } if name == working))?;
    let Step::Materialize { plan, .. } = &l.body[work_idx] else {
        return None;
    };
    let shape = analyze(plan, l)?;
    let delta_name = format!("__delta_{}", l.cte);
    let new_plan = build_delta_plan(&shape, &delta_name);

    let mut body = l.body.clone();
    let Step::Materialize { plan, .. } = &mut body[work_idx] else {
        unreachable!()
    };
    *plan = new_plan;

    if *merge {
        // Existing merge step just gains the delta output.
        let merge_step = body.iter_mut().find_map(|s| match s {
            Step::Merge { cte, delta_out, .. } if *cte == l.cte => Some(delta_out),
            _ => None,
        })?;
        *merge_step = Some(delta_name.clone());
    } else {
        // Rename fast path: replace the trailing rename with a merge that
        // both folds new rows into the table and captures the delta.
        let rename_idx = l.body.iter().position(
            |s| matches!(s, Step::Rename { from, to } if from == working && *to == l.cte),
        )?;
        let merged = format!("__sn_merge_{}", l.cte);
        body.splice(
            rename_idx..rename_idx + 1,
            [
                Step::Merge {
                    cte: l.cte.clone(),
                    working: working.clone(),
                    merged: merged.clone(),
                    key: l.key,
                    cte_display_name: l.cte_display_name.clone(),
                    delta_out: Some(delta_name.clone()),
                },
                Step::Rename {
                    from: merged,
                    to: l.cte.clone(),
                },
            ],
        );
    }

    Some(LoopStep {
        cte: l.cte.clone(),
        cte_display_name: l.cte_display_name.clone(),
        kind: LoopKind::Iterative {
            working: working.clone(),
            merge: true,
            delta: Some(delta_name),
        },
        body,
        termination: l.termination.clone(),
        key: l.key,
        schema: Arc::clone(&l.schema),
    })
}

/// The recognized accumulator body, borrowed from the original plan.
struct Shape<'a> {
    /// Projection on top of the aggregate.
    proj_exprs: &'a [PlanExpr],
    proj_schema: spinner_common::SchemaRef,
    /// The aggregate node.
    group: &'a [PlanExpr],
    aggs: &'a [AggExpr],
    agg_schema: spinner_common::SchemaRef,
    /// Filters between aggregate and upper join (outermost first).
    mid_filters: Vec<&'a PlanExpr>,
    /// Upper join (anchor⨝invariant) ⨝ propagation.
    j2_on: &'a [(PlanExpr, PlanExpr)],
    j2_schema: spinner_common::SchemaRef,
    /// Lower join anchor ⨝ invariant.
    j1_on: &'a [(PlanExpr, PlanExpr)],
    /// Anchor scan of the CTE table.
    anchor_schema: spinner_common::SchemaRef,
    anchor_name: &'a str,
    /// Loop-invariant join input.
    inv: &'a LogicalPlan,
    /// Filters wrapped around the propagation scan (outermost first).
    prop_filters: Vec<&'a PlanExpr>,
    prop_schema: spinner_common::SchemaRef,
}

/// Bare-column index, or `None` for anything more complex.
fn bare(e: &PlanExpr) -> Option<usize> {
    match e {
        PlanExpr::Column(c) => Some(c.index),
        _ => None,
    }
}

/// Check the working-table plan against the delta-eligibility rules in the
/// module docs; return its decomposition when they all hold.
fn analyze<'a>(plan: &'a LogicalPlan, l: &LoopStep) -> Option<Shape<'a>> {
    let (cte, key) = (l.cte.as_str(), l.key);
    // The CTE is read exactly twice: anchor + propagation.
    if plan.count_temp_refs(cte) != 2 {
        return None;
    }
    let LogicalPlan::Projection {
        input,
        exprs: proj_exprs,
        schema: proj_schema,
    } = plan
    else {
        return None;
    };
    let LogicalPlan::Aggregate {
        input: agg_input,
        group,
        aggs,
        schema: agg_schema,
    } = &**input
    else {
        return None;
    };
    let mut below: &LogicalPlan = agg_input;
    let mut mid_filters = Vec::new();
    while let LogicalPlan::Filter { input, predicate } = below {
        mid_filters.push(predicate);
        below = input;
    }
    let LogicalPlan::Join {
        left: j2_left,
        right: j2_right,
        join_type: j2_type,
        on: j2_on,
        filter: None,
        schema: j2_schema,
    } = below
    else {
        return None;
    };
    let LogicalPlan::Join {
        left: anchor,
        right: inv,
        join_type: j1_type,
        on: j1_on,
        filter: None,
        ..
    } = &**j2_left
    else {
        return None;
    };
    if !matches!(j2_type, JoinType::Inner | JoinType::Left)
        || !matches!(j1_type, JoinType::Inner | JoinType::Left)
        || j1_on.is_empty()
        || j2_on.is_empty()
    {
        return None;
    }
    let LogicalPlan::TempScan {
        name: anchor_name,
        schema: anchor_schema,
    } = &**anchor
    else {
        return None;
    };
    if !anchor_name.eq_ignore_ascii_case(cte) {
        return None;
    }
    // Propagation side: the CTE scan, possibly under pushed-down filters.
    let mut prop: &LogicalPlan = j2_right;
    let mut prop_filters = Vec::new();
    while let LogicalPlan::Filter { input, predicate } = prop {
        prop_filters.push(predicate);
        prop = input;
    }
    let LogicalPlan::TempScan {
        name: prop_name,
        schema: prop_schema,
    } = prop
    else {
        return None;
    };
    if !prop_name.eq_ignore_ascii_case(cte) {
        return None;
    }
    // The invariant side must be loop-constant: it reads nothing the body
    // (re)defines, the CTE included.
    if !l.is_invariant(inv) {
        return None;
    }

    let a = anchor_schema.len();
    let e = inv.schema().len();
    let p = prop_schema.len();

    // Lower join keys: anchor column = invariant column.
    for (le, re) in j1_on.iter() {
        if bare(le).is_none_or(|i| i >= a) || bare(re).is_none_or(|i| i >= e) {
            return None;
        }
    }
    // Upper join keys: invariant column = propagation column. An anchor
    // column here would make the delta-first reorder change semantics.
    for (le, re) in j2_on.iter() {
        if bare(le).is_none_or(|i| i < a || i >= a + e) || bare(re).is_none_or(|i| i >= p) {
            return None;
        }
    }
    // Filters above the joins may only look at propagation/invariant
    // columns: anchor-dependent predicates would drop groups differently
    // once unchanged propagation rows stop arriving.
    if mid_filters
        .iter()
        .any(|f| f.referenced_columns().iter().any(|&c| c < a))
    {
        return None;
    }
    // Group keys are bare anchor columns; aggregates are monotone folds
    // over non-anchor columns.
    if group.iter().any(|g| bare(g).is_none_or(|i| i >= a)) {
        return None;
    }
    for agg in aggs.iter() {
        if agg.distinct || !matches!(agg.func, AggFunc::Min | AggFunc::Max) {
            return None;
        }
        let Some(arg) = &agg.arg else { return None };
        if arg.referenced_columns().iter().any(|&c| c < a) {
            return None;
        }
    }
    // Output columns: identity or accumulator, per the module docs.
    if proj_exprs.len() != a {
        return None;
    }
    for (j, out) in proj_exprs.iter().enumerate() {
        if is_old_term(out, j, group) {
            continue; // unchanged column
        }
        if j == key {
            return None; // the merge key must never be re-derived
        }
        if !is_accumulator(out, j, group, aggs) {
            return None;
        }
    }
    Some(Shape {
        proj_exprs,
        proj_schema: Arc::clone(proj_schema),
        group,
        aggs,
        agg_schema: Arc::clone(agg_schema),
        mid_filters,
        j2_on,
        j2_schema: Arc::clone(j2_schema),
        j1_on,
        anchor_schema: Arc::clone(anchor_schema),
        anchor_name,
        inv,
        prop_filters,
        prop_schema: Arc::clone(prop_schema),
    })
}

/// Is `e` a bare group column that carries anchor column `j` through?
fn is_old_term(e: &PlanExpr, j: usize, group: &[PlanExpr]) -> bool {
    matches!(bare(e), Some(gi) if gi < group.len() && bare(&group[gi]) == Some(j))
}

/// Is `e` an aggregate output column whose function matches the fold
/// direction?
fn agg_term(e: &PlanExpr, group: &[PlanExpr], aggs: &[AggExpr], want: AggFunc) -> bool {
    matches!(
        bare(e),
        Some(i) if i >= group.len() && aggs.get(i - group.len()).is_some_and(|a| a.func == want)
    )
}

/// `LEAST(old_j, ...)`/`GREATEST(old_j, ...)` folding matching-direction
/// aggregates (optionally `COALESCE`d back to `old_j`) into the old value.
fn is_accumulator(out: &PlanExpr, j: usize, group: &[PlanExpr], aggs: &[AggExpr]) -> bool {
    let PlanExpr::Scalar { func, args } = out else {
        return false;
    };
    let want = match func {
        ScalarFn::Least => AggFunc::Min,
        ScalarFn::Greatest => AggFunc::Max,
        _ => return false,
    };
    // The bare old value must be an argument: it makes the column monotone
    // (a COALESCE fallback alone fires only when the aggregate is NULL).
    if !args.iter().any(|arg| is_old_term(arg, j, group)) {
        return false;
    }
    args.iter().all(|arg| {
        // Only the accumulator column itself may appear bare: any OTHER
        // anchor column would let the fold change the value on an empty
        // aggregate (LEAST(old_j, other) != old_j), an update the
        // delta-driven body never re-runs for contribution-less rows.
        if is_old_term(arg, j, group) || agg_term(arg, group, aggs, want) {
            return true;
        }
        // COALESCE(agg, old_j): when the delta brings no contribution the
        // fallback must reproduce the old value, or the fold could dip
        // below what full recompute produces.
        if let PlanExpr::Scalar {
            func: ScalarFn::Coalesce,
            args: cargs,
        } = arg
        {
            return cargs.len() >= 2
                && agg_term(&cargs[0], group, aggs, want)
                && cargs[1..].iter().all(|c| is_old_term(c, j, group));
        }
        false
    })
}

/// Build the delta-first working plan for an eligible body.
fn build_delta_plan(shape: &Shape<'_>, delta_name: &str) -> LogicalPlan {
    let a = shape.anchor_schema.len();
    let e = shape.inv.schema().len();
    let p = shape.prop_schema.len();

    // 1. The propagation side scans the delta (same schema as the CTE),
    //    keeping any pushed-down filters.
    let mut prop_side = LogicalPlan::TempScan {
        name: delta_name.to_string(),
        schema: Arc::clone(&shape.prop_schema),
    };
    for pred in shape.prop_filters.iter().rev() {
        prop_side = LogicalPlan::Filter {
            input: Box::new(prop_side),
            predicate: (*pred).clone(),
        };
    }

    // 2. Delta-first join order: probe the (small) delta into the
    //    invariant build — loop-invariant, so the executor builds it once —
    //    then probe the anchor into that (small) result.
    //    J1' = delta ⨝ invariant, on the original upper-join keys.
    let inv_schema = shape.inv.schema();
    let j1_fields: Vec<_> = shape
        .prop_schema
        .fields()
        .iter()
        .chain(inv_schema.fields().iter())
        .cloned()
        .collect();
    let j1_on: Vec<_> = shape
        .j2_on
        .iter()
        .map(|(le, re)| {
            // Left (probe) side is now the delta; right is invariant-local.
            let inv_col = bare(le).expect("checked bare") - a;
            (
                (*re).clone(),
                PlanExpr::column(inv_col, inv_schema.fields()[inv_col].name.clone()),
            )
        })
        .collect();
    let j1 = LogicalPlan::Join {
        left: Box::new(prop_side),
        right: Box::new(shape.inv.clone()),
        join_type: JoinType::Inner,
        on: j1_on,
        filter: None,
        schema: Arc::new(Schema::new(j1_fields)),
    };

    // J2' = anchor ⨝ (delta ⨝ invariant), on the original lower-join keys.
    // Always INNER, even when the source join was LEFT: an anchor row with
    // no delta contribution would only produce out = fold-to-old (the
    // accumulator's empty-aggregate branch), and the merge step already
    // keeps the old row for every key absent from the body's output. Going
    // INNER is what makes late iterations O(delta): the aggregate, the
    // exchange above it, and the merge comparison all shrink to the groups
    // the delta actually touched instead of re-emitting every anchor row.
    let j2_fields: Vec<_> = shape
        .anchor_schema
        .fields()
        .iter()
        .chain(j1.schema().fields().iter())
        .cloned()
        .collect();
    let j2_on: Vec<_> = shape
        .j1_on
        .iter()
        .map(|(le, re)| {
            let inv_col = bare(re).expect("checked bare");
            (
                (*le).clone(),
                PlanExpr::column(p + inv_col, inv_schema.fields()[inv_col].name.clone()),
            )
        })
        .collect();
    let j2 = LogicalPlan::Join {
        left: Box::new(LogicalPlan::TempScan {
            name: shape.anchor_name.to_string(),
            schema: Arc::clone(&shape.anchor_schema),
        }),
        right: Box::new(j1),
        join_type: JoinType::Inner,
        on: j2_on,
        filter: None,
        schema: Arc::new(Schema::new(j2_fields)),
    };

    // 3. Restore the original [anchor, invariant, propagation] column order
    //    so the filters/aggregate/projection above stay untouched.
    let combined = &shape.j2_schema;
    let mut restore = Vec::with_capacity(a + e + p);
    for i in 0..a {
        restore.push(PlanExpr::column(i, combined.fields()[i].name.clone()));
    }
    for k in 0..e {
        restore.push(PlanExpr::column(
            a + p + k,
            combined.fields()[a + k].name.clone(),
        ));
    }
    for k in 0..p {
        restore.push(PlanExpr::column(
            a + k,
            combined.fields()[a + e + k].name.clone(),
        ));
    }
    let mut rebuilt = LogicalPlan::Projection {
        input: Box::new(j2),
        exprs: restore,
        schema: Arc::clone(combined),
    };
    for pred in shape.mid_filters.iter().rev() {
        rebuilt = LogicalPlan::Filter {
            input: Box::new(rebuilt),
            predicate: (*pred).clone(),
        };
    }
    let rebuilt = LogicalPlan::Aggregate {
        input: Box::new(rebuilt),
        group: shape.group.to_vec(),
        aggs: shape.aggs.to_vec(),
        schema: Arc::clone(&shape.agg_schema),
    };
    LogicalPlan::Projection {
        input: Box::new(rebuilt),
        exprs: shape.proj_exprs.to_vec(),
        schema: Arc::clone(&shape.proj_schema),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, EngineConfig, Field, SchemaRef};
    use spinner_parser::parse_sql;
    use spinner_plan::builder::SchemaProvider;
    use spinner_plan::{plan_statement, PlannedStatement, QueryPlan};

    struct Graph;

    impl SchemaProvider for Graph {
        fn table_schema(&self, name: &str) -> Option<SchemaRef> {
            match name {
                "edges" => Some(Arc::new(Schema::new(vec![
                    Field::new("src", DataType::Int),
                    Field::new("dst", DataType::Int),
                    Field::new("weight", DataType::Float),
                ]))),
                _ => None,
            }
        }
        fn table_primary_key(&self, _name: &str) -> Option<usize> {
            None
        }
    }

    fn optimized(sql: &str) -> QueryPlan {
        let config = EngineConfig::default();
        let stmt = parse_sql(sql).unwrap();
        let planned = plan_statement(&stmt, &Graph, &config).unwrap();
        let PlannedStatement::Query(q) = crate::optimize_statement(planned, &config).unwrap()
        else {
            panic!("not a query")
        };
        q
    }

    const CC: &str = "WITH ITERATIVE cc (node, label) AS ( \
            SELECT src, src FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE SELECT cc.node, LEAST(cc.label, COALESCE(MIN(nbr.label), cc.label)) \
             FROM cc LEFT JOIN edges AS e ON cc.node = e.dst \
                     LEFT JOIN cc AS nbr ON nbr.node = e.src \
             GROUP BY cc.node, cc.label \
          UNTIL DELTA < 1 ) \
         SELECT node, label FROM cc ORDER BY node";

    const SSSP_ACC: &str = "WITH ITERATIVE sssp (node, distance) AS ( \
            SELECT src, CASE WHEN src = 1 THEN 0 ELSE 9999999 END \
            FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE SELECT sssp.node, \
                    LEAST(sssp.distance, COALESCE(MIN(inc.distance + e.weight), sssp.distance)) \
             FROM sssp JOIN edges AS e ON sssp.node = e.dst \
                       JOIN sssp AS inc ON inc.node = e.src \
             WHERE inc.distance != 9999999 \
             GROUP BY sssp.node, sssp.distance \
          UNTIL DELTA < 1 ) \
         SELECT node, distance FROM sssp ORDER BY node";

    fn loop_step(q: &QueryPlan) -> &LoopStep {
        q.steps
            .iter()
            .find_map(|s| match s {
                Step::Loop(l) => Some(l),
                _ => None,
            })
            .expect("plan has a loop")
    }

    fn delta_of(l: &LoopStep) -> Option<&str> {
        match &l.kind {
            LoopKind::Iterative { delta, .. } => delta.as_deref(),
            _ => None,
        }
    }

    #[test]
    fn cc_rename_loop_becomes_semi_naive_merge_loop() {
        let q = optimized(CC);
        let l = loop_step(&q);
        assert_eq!(delta_of(l), Some("__delta___cte_cc_1"));
        let LoopKind::Iterative { merge, .. } = &l.kind else {
            panic!()
        };
        assert!(*merge, "rename path must be forced onto the merge path");
        // The merge now captures the changed rows as the next delta.
        assert!(l.body.iter().any(|s| matches!(
            s,
            Step::Merge { delta_out: Some(d), .. } if d == "__delta___cte_cc_1"
        )));
        let text = q.explain();
        assert!(text.contains("TempScan: __delta___cte_cc_1"), "{text}");
        // The invariant side stays in the body, the delta join's build side.
        let body = &text[text.find("Initialize loop operator").unwrap()..];
        assert!(body.contains("TableScan: edges"), "{text}");
    }

    #[test]
    fn accumulator_sssp_is_semi_naive_with_filtered_delta() {
        let q = optimized(SSSP_ACC);
        let l = loop_step(&q);
        assert_eq!(delta_of(l), Some("__delta___cte_sssp_1"));
        // The pushed-down propagation filter survives on the delta scan.
        let text = q.explain();
        let delta_scan = text
            .find("TempScan: __delta___cte_sssp_1")
            .expect("delta scan in explain");
        let filter = text.find("Filter: (inc.distance#1 != 9999999)").unwrap();
        assert!(filter < delta_scan, "filter wraps the delta scan:\n{text}");
    }

    #[test]
    fn delta_plan_keeps_original_column_order() {
        // The restore projection must map [anchor, prop, inv] back to
        // [anchor, inv, prop]; a wrong mapping would feed the aggregate
        // edge weights where it expects labels. (Read before pruning,
        // which narrows it to the columns the aggregate reads.)
        let config = EngineConfig::default();
        let planned = plan_statement(&parse_sql(CC).unwrap(), &Graph, &config).unwrap();
        let PlannedStatement::Query(q) = planned else {
            panic!("not a query")
        };
        let steps = apply(q.steps).unwrap();
        let q = QueryPlan {
            steps,
            root: q.root,
        };
        let l = loop_step(&q);
        let LoopKind::Iterative { working, .. } = &l.kind else {
            panic!()
        };
        let plan = l
            .body
            .iter()
            .find_map(|s| match s {
                Step::Materialize { name, plan, .. } if name == working => Some(plan),
                _ => None,
            })
            .unwrap();
        // Aggregate's input projection: anchor cols first, then edges, then
        // the delta columns mapped from positions [a, a+p).
        let mut restores = Vec::new();
        fn find_projections<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a Vec<PlanExpr>>) {
            if let LogicalPlan::Projection { exprs, .. } = p {
                out.push(exprs);
            }
            for c in p.children() {
                find_projections(c, out);
            }
        }
        find_projections(plan, &mut restores);
        let restore = restores
            .iter()
            .find(|exprs| exprs.len() == 7)
            .expect("restore projection over the combined row");
        let indices: Vec<_> = restore.iter().map(|e| bare(e).unwrap()).collect();
        assert_eq!(indices, vec![0, 1, 4, 5, 6, 2, 3]);
    }

    #[test]
    fn paper_sssp_scratch_column_falls_back_to_full_recompute() {
        // Fig. 7's third column is a raw COALESCE(MIN(..), 9999999) — the
        // minimum over delta rows differs from the minimum over all rows,
        // so the body must not be rewritten.
        let q = optimized(
            "WITH ITERATIVE sssp (node, distance, delta) AS ( \
                SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END \
                FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
              ITERATE SELECT sssp.node, LEAST(sssp.distance, sssp.delta), \
                        COALESCE(MIN(inc.delta + e.weight), 9999999) \
                 FROM sssp LEFT JOIN edges AS e ON sssp.node = e.dst \
                           LEFT JOIN sssp AS inc ON inc.node = e.src \
                 WHERE inc.delta != 9999999 \
                 GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta) \
              UNTIL 10 ITERATIONS ) \
             SELECT node, distance FROM sssp ORDER BY node",
        );
        assert_eq!(delta_of(loop_step(&q)), None);
    }

    #[test]
    fn sum_aggregate_falls_back_to_full_recompute() {
        // PageRank's SUM is not a monotone fold: dropping unchanged
        // contributors changes the total, so no delta rewrite.
        let q = optimized(
            "WITH ITERATIVE pr (node, rank) AS ( \
                SELECT src, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
              ITERATE SELECT pr.node, LEAST(pr.rank, COALESCE(SUM(inc.rank), pr.rank)) \
                 FROM pr LEFT JOIN edges AS e ON pr.node = e.dst \
                         LEFT JOIN pr AS inc ON inc.node = e.src \
                 GROUP BY pr.node, pr.rank \
              UNTIL 5 ITERATIONS ) \
             SELECT node, rank FROM pr ORDER BY node",
        );
        assert_eq!(delta_of(loop_step(&q)), None);
    }

    #[test]
    fn single_cte_reference_falls_back() {
        // Forecast-Friends style: no propagation join at all.
        let q = optimized(
            "WITH ITERATIVE f (node, v) AS ( \
                SELECT src, CAST(count(dst) AS FLOAT) FROM edges GROUP BY src \
              ITERATE SELECT node, v * 2 FROM f \
              UNTIL 3 ITERATIONS ) \
             SELECT node, v FROM f ORDER BY node",
        );
        assert_eq!(delta_of(loop_step(&q)), None);
    }

    #[test]
    fn disabling_the_config_flag_keeps_full_recompute() {
        let config = EngineConfig::default().with_semi_naive(false);
        let stmt = parse_sql(CC).unwrap();
        let planned = plan_statement(&stmt, &Graph, &config).unwrap();
        let PlannedStatement::Query(q) = crate::optimize_statement(planned, &config).unwrap()
        else {
            panic!()
        };
        assert_eq!(delta_of(loop_step(&q)), None);
        assert!(!q.explain().contains("__delta_"));
    }

    #[test]
    fn rederived_key_column_falls_back() {
        // The merge key itself folded through LEAST would re-key rows.
        let q = optimized(
            "WITH ITERATIVE cc (node, label) AS ( \
                SELECT src, src FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
              ITERATE SELECT LEAST(cc.node, COALESCE(MIN(nbr.node), cc.node)), cc.label \
                 FROM cc LEFT JOIN edges AS e ON cc.node = e.dst \
                         LEFT JOIN cc AS nbr ON nbr.node = e.src \
                 GROUP BY cc.node, cc.label \
              UNTIL 3 ITERATIONS ) \
             SELECT node, label FROM cc ORDER BY node",
        );
        assert_eq!(delta_of(loop_step(&q)), None);
    }
}
