//! Restricted predicate push-down into the non-iterative part
//! (paper §V-B, Fig. 10).
//!
//! For regular CTEs a final-query predicate can be pushed into the CTE
//! body unconditionally. For *iterative* CTEs that is wrong in general —
//! in PageRank, filtering to `node = 10` before the loop would also remove
//! node 10's neighbours, corrupting the rank. The rewrite is legal exactly
//! when every row's iterative computation is independent of every other
//! row and the filtered columns never change:
//!
//! 1. the final plan references the CTE exactly once, with the predicate
//!    sitting directly above that scan (general push-down has already
//!    driven it there);
//! 2. the iterative part `Ri` is a pure per-row pipeline over the CTE — a
//!    chain of Projection/Filter over the single `TempScan` of the CTE
//!    (no self-join, no join with other tables, no aggregation); and
//! 3. every column the predicate references is *invariant*: `Ri` passes it
//!    through unchanged (e.g. `node AS node` in the FF query).
//!
//! When all three hold, the predicate moves into `R0`'s materialization,
//! shrinking every iteration's input; the now-redundant copy in the final
//! plan is removed, exactly as MPPDB does for the FF query.

use spinner_common::Result;
use spinner_plan::{LogicalPlan, LoopKind, PlanExpr, Step};

/// Apply the rewrite across the whole step program. Returns the possibly
/// rewritten steps and final plan.
pub fn push_into_non_iterative(
    mut steps: Vec<Step>,
    mut root: LogicalPlan,
) -> Result<(Vec<Step>, LogicalPlan)> {
    // Collect candidate loops: (index of loop step, cte temp name).
    let loops: Vec<(usize, String)> = steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Step::Loop(l) if matches!(l.kind, LoopKind::Iterative { .. }) => {
                Some((i, l.cte.clone()))
            }
            _ => None,
        })
        .collect();
    for (loop_idx, cte) in loops {
        // Condition 1: single reference in the final plan, filter directly
        // above it.
        if root.count_temp_refs(&cte) != 1 {
            continue;
        }
        let Some(predicate) = find_filter_over_scan(&root, &cte) else {
            continue;
        };
        // Condition 2 + 3: Ri is a per-row pipeline and the predicate's
        // columns are invariant.
        let Step::Loop(l) = &steps[loop_idx] else {
            unreachable!()
        };
        let Some(working_plan) = l.body.iter().find_map(|s| match s {
            Step::Materialize { plan, .. } => Some(plan),
            _ => None,
        }) else {
            continue;
        };
        let Some(passthrough) = per_row_passthrough(working_plan, &cte) else {
            continue;
        };
        let safe = predicate
            .referenced_columns()
            .iter()
            .all(|&c| passthrough.get(c).copied().flatten() == Some(c));
        if !safe {
            continue;
        }
        // Find the init materialization of this CTE (the step before the
        // loop that materializes `cte`).
        let Some(init_idx) = steps[..loop_idx].iter().rposition(
            |s| matches!(s, Step::Materialize { name, .. } if name.eq_ignore_ascii_case(&cte)),
        ) else {
            continue;
        };
        // Move the predicate: wrap R0 in the filter (positions in the CTE
        // schema equal positions in R0's output), drop it from the final
        // plan.
        let Step::Materialize {
            name,
            plan,
            distribute_by,
        } = steps[init_idx].clone()
        else {
            unreachable!()
        };
        steps[init_idx] = Step::Materialize {
            name,
            plan: LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: predicate.clone(),
            },
            distribute_by,
        };
        root = remove_filter_over_scan(root, &cte)?;
    }
    Ok((steps, root))
}

/// Find a `Filter` whose input is the TempScan of `cte`; return its
/// predicate.
fn find_filter_over_scan(plan: &LogicalPlan, cte: &str) -> Option<PlanExpr> {
    if let LogicalPlan::Filter { input, predicate } = plan {
        if matches!(&**input, LogicalPlan::TempScan { name, .. } if name.eq_ignore_ascii_case(cte))
        {
            return Some(predicate.clone());
        }
    }
    plan.children()
        .into_iter()
        .find_map(|c| find_filter_over_scan(c, cte))
}

/// Remove the `Filter(TempScan(cte))` found by [`find_filter_over_scan`].
fn remove_filter_over_scan(plan: LogicalPlan, cte: &str) -> Result<LogicalPlan> {
    let scans_cte = |p: &LogicalPlan| match p {
        LogicalPlan::TempScan { name, .. } => name.eq_ignore_ascii_case(cte),
        _ => false,
    };
    match plan {
        LogicalPlan::Filter { input, .. } if scans_cte(&input) => Ok(*input),
        plan => plan.map_children(|c| remove_filter_over_scan(c, cte)),
    }
}

/// If `plan` is a Projection/Filter chain over exactly `TempScan(cte)`,
/// return, for each output column, `Some(input column)` when the column is
/// a pure pass-through and `None` when it is computed. Returns `None`
/// overall when the plan has any other shape (join, aggregate, union, ...).
fn per_row_passthrough(plan: &LogicalPlan, cte: &str) -> Option<Vec<Option<usize>>> {
    match plan {
        LogicalPlan::TempScan { name, schema } if name.eq_ignore_ascii_case(cte) => {
            Some((0..schema.len()).map(Some).collect())
        }
        LogicalPlan::Filter { input, .. } => per_row_passthrough(input, cte),
        LogicalPlan::Projection { input, exprs, .. } => {
            let inner = per_row_passthrough(input, cte)?;
            Some(
                exprs
                    .iter()
                    .map(|e| match e {
                        PlanExpr::Column(c) => inner.get(c.index).copied().flatten(),
                        _ => None,
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use spinner_plan::expr::BinaryOp;
    use spinner_plan::{LoopStep, ScalarFn, TerminationPlan};
    use std::sync::Arc;

    fn cte_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Field::new("node", DataType::Int),
            Field::new("friends", DataType::Float),
        ]))
    }

    fn cte_scan() -> LogicalPlan {
        LogicalPlan::TempScan {
            name: "cte_f".into(),
            schema: cte_schema(),
        }
    }

    /// FF-shaped Ri: node passes through, friends is recomputed.
    fn ff_ri() -> LogicalPlan {
        LogicalPlan::Projection {
            input: Box::new(cte_scan()),
            exprs: vec![
                PlanExpr::column(0, "node"),
                PlanExpr::column(1, "friends").binary(BinaryOp::Multiply, PlanExpr::literal(2.0)),
            ],
            schema: cte_schema(),
        }
    }

    fn program(ri: LogicalPlan, qf_filter: PlanExpr) -> (Vec<Step>, LogicalPlan) {
        let steps = vec![
            Step::Materialize {
                name: "cte_f".into(),
                plan: LogicalPlan::Values {
                    schema: cte_schema(),
                    rows: vec![],
                },
                distribute_by: Some(0),
            },
            Step::Loop(LoopStep {
                cte: "cte_f".into(),
                cte_display_name: "forecast".into(),
                kind: LoopKind::Iterative {
                    working: "w".into(),
                    merge: false,
                    delta: None,
                },
                body: vec![
                    Step::Materialize {
                        name: "w".into(),
                        plan: ri,
                        distribute_by: Some(0),
                    },
                    Step::Rename {
                        from: "w".into(),
                        to: "cte_f".into(),
                    },
                ],
                termination: TerminationPlan::Iterations(5),
                key: 0,
                schema: cte_schema(),
            }),
        ];
        let root = LogicalPlan::Filter {
            input: Box::new(cte_scan()),
            predicate: qf_filter,
        };
        (steps, root)
    }

    fn node_filter() -> PlanExpr {
        PlanExpr::Scalar {
            func: ScalarFn::Mod,
            args: vec![PlanExpr::column(0, "node"), PlanExpr::literal(100i64)],
        }
        .binary(BinaryOp::Eq, PlanExpr::literal(0i64))
    }

    #[test]
    fn ff_predicate_moves_into_r0() {
        let (steps, root) = program(ff_ri(), node_filter());
        let (steps, root) = push_into_non_iterative(steps, root).unwrap();
        // R0 is now filtered...
        let Step::Materialize { plan, .. } = &steps[0] else {
            panic!()
        };
        assert!(matches!(plan, LogicalPlan::Filter { .. }));
        // ...and the final plan's filter is gone.
        assert!(matches!(root, LogicalPlan::TempScan { .. }));
    }

    #[test]
    fn predicate_on_computed_column_stays() {
        // Filter on `friends`, which Ri recomputes — not safe to push.
        let pred = PlanExpr::column(1, "friends").binary(BinaryOp::Gt, PlanExpr::literal(10i64));
        let (steps, root) = program(ff_ri(), pred);
        let (steps, root) = push_into_non_iterative(steps, root).unwrap();
        let Step::Materialize { plan, .. } = &steps[0] else {
            panic!()
        };
        assert!(matches!(plan, LogicalPlan::Values { .. }), "R0 unchanged");
        assert!(matches!(root, LogicalPlan::Filter { .. }), "Qf filter kept");
    }

    #[test]
    fn self_join_in_ri_blocks_pushdown() {
        // PR-shaped Ri: self-join of the CTE — pushing would be incorrect.
        let join_schema = Arc::new(cte_schema().join(&cte_schema()));
        let ri = LogicalPlan::Projection {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(cte_scan()),
                right: Box::new(cte_scan()),
                join_type: spinner_plan::JoinType::Inner,
                on: vec![(PlanExpr::column(0, "node"), PlanExpr::column(0, "node"))],
                filter: None,
                schema: join_schema,
            }),
            exprs: vec![PlanExpr::column(0, "node"), PlanExpr::column(1, "friends")],
            schema: cte_schema(),
        };
        let (steps, root) = program(ri, node_filter());
        let (steps, root) = push_into_non_iterative(steps, root).unwrap();
        let Step::Materialize { plan, .. } = &steps[0] else {
            panic!()
        };
        assert!(matches!(plan, LogicalPlan::Values { .. }), "R0 unchanged");
        assert!(matches!(root, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn multiple_qf_references_block_pushdown() {
        let (steps, _) = program(ff_ri(), node_filter());
        // Qf self-joins the CTE; only one branch is filtered.
        let join_schema = Arc::new(cte_schema().join(&cte_schema()));
        let root = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Filter {
                input: Box::new(cte_scan()),
                predicate: node_filter(),
            }),
            right: Box::new(cte_scan()),
            join_type: spinner_plan::JoinType::Inner,
            on: vec![(PlanExpr::column(0, "node"), PlanExpr::column(0, "node"))],
            filter: None,
            schema: join_schema,
        };
        let (steps, root) = push_into_non_iterative(steps, root).unwrap();
        let Step::Materialize { plan, .. } = &steps[0] else {
            panic!()
        };
        assert!(matches!(plan, LogicalPlan::Values { .. }), "R0 unchanged");
        assert!(find_filter_over_scan(&root, "cte_f").is_some());
    }
}
