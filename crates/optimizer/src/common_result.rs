//! Common-result extraction (paper §V-A, Fig. 5 / Fig. 9).
//!
//! Joins inside the iterative part whose inputs never change across
//! iterations are computed once per iteration by the naive rewrite — and
//! once *total* after this rewrite: the loop-invariant join subtree is
//! materialized before the loop and the loop body re-reads the
//! materialization.
//!
//! To expose invariant subtrees the rule first applies a limited inner-join
//! associativity rewrite,
//!
//! ```text
//! (A ⋈ B) ⋈ C  with the upper keys referencing only B   ⇒   A ⋈ (B ⋈ C)
//! ```
//!
//! which regroups `edges ⨝ vertexStatus` next to each other in the PR-VS
//! query after outer→inner conversion has run (the paper notes general
//! join reordering with outer joins is future work — same here: the
//! rewrite only fires on inner joins).

use std::sync::Arc;

use spinner_common::Result;
use spinner_plan::{JoinType, LogicalPlan, LoopKind, PlanExpr, Step};

/// Scan the step program; for every iterative loop, hoist loop-invariant
/// join subtrees of the working-table plan into pre-loop materializations.
pub fn extract_common_results(steps: Vec<Step>) -> Result<Vec<Step>> {
    let mut out: Vec<Step> = Vec::with_capacity(steps.len());
    let mut counter = 0usize;
    for step in steps {
        match step {
            Step::Loop(mut l) if matches!(l.kind, LoopKind::Iterative { .. }) => {
                let mut commons: Vec<(String, LogicalPlan)> = Vec::new();
                l.body = l
                    .body
                    .into_iter()
                    .map(|body_step| match body_step {
                        Step::Materialize {
                            name,
                            plan,
                            distribute_by,
                        } => {
                            let regrouped = regroup_inner_joins(plan, &l.cte)?;
                            let rewritten =
                                extract_from_plan(regrouped, &l.cte, &mut commons, &mut counter)?;
                            Ok(Step::Materialize {
                                name,
                                plan: rewritten,
                                distribute_by,
                            })
                        }
                        other => Ok(other),
                    })
                    .collect::<Result<_>>()?;
                for (name, plan) in commons {
                    out.push(Step::Materialize {
                        name,
                        plan,
                        distribute_by: None,
                    });
                }
                out.push(Step::Loop(l));
            }
            other => out.push(other),
        }
    }
    Ok(out)
}

/// Replace maximal loop-invariant join subtrees with TempScans, collecting
/// the extracted plans. Top-down: the first qualifying node wins, so the
/// largest invariant region is hoisted.
fn extract_from_plan(
    plan: LogicalPlan,
    cte: &str,
    commons: &mut Vec<(String, LogicalPlan)>,
    counter: &mut usize,
) -> Result<LogicalPlan> {
    if is_invariant_join_subtree(&plan, cte) {
        *counter += 1;
        let name = format!("__common_{counter}");
        let schema = plan.schema();
        commons.push((name.clone(), plan));
        return Ok(LogicalPlan::TempScan { name, schema });
    }
    plan.map_children(|child| extract_from_plan(child, cte, commons, counter))
}

/// A subtree qualifies when it contains at least one join, never reads the
/// iterative CTE, and only reads stable inputs (base tables / other temps).
fn is_invariant_join_subtree(plan: &LogicalPlan, cte: &str) -> bool {
    plan.count_joins() >= 1 && !plan.references_temp(cte)
}

/// Associativity regrouping pass: `(A ⋈i B) ⋈i C` where the upper equi-keys
/// touch only B's columns and A references the CTE while B and C do not
/// becomes `A ⋈i (B ⋈i C)` — exposing `B ⋈ C` as an invariant subtree.
fn regroup_inner_joins(plan: LogicalPlan, cte: &str) -> Result<LogicalPlan> {
    let plan = plan.map_children(|c| regroup_inner_joins(c, cte))?;
    Ok(regroup(plan, cte))
}

/// The regrouping at one node, its children already regrouped.
fn regroup(plan: LogicalPlan, cte: &str) -> LogicalPlan {
    let LogicalPlan::Join {
        left: upper_left,
        right: upper_right,
        join_type: upper_type,
        on: upper_on,
        filter: upper_filter,
        schema: upper_schema,
    } = plan
    else {
        return plan;
    };
    // Only rewrite an inner upper join over an inner/cross lower join.
    let rebuild = |left: Box<LogicalPlan>, right: Box<LogicalPlan>| LogicalPlan::Join {
        left,
        right,
        join_type: upper_type,
        on: upper_on.clone(),
        filter: upper_filter.clone(),
        schema: upper_schema.clone(),
    };
    if upper_type != JoinType::Inner {
        return rebuild(upper_left, upper_right);
    }
    let LogicalPlan::Join {
        left: a,
        right: b,
        join_type: lower_type,
        on: lower_on,
        filter: lower_filter,
        schema: lower_schema,
    } = *upper_left
    else {
        return rebuild(upper_left, upper_right);
    };
    let rebuild_lower = |a: Box<LogicalPlan>, b: Box<LogicalPlan>| {
        Box::new(LogicalPlan::Join {
            left: a,
            right: b,
            join_type: lower_type,
            on: lower_on.clone(),
            filter: lower_filter.clone(),
            schema: lower_schema.clone(),
        })
    };
    if !matches!(lower_type, JoinType::Inner | JoinType::Cross) {
        return rebuild(rebuild_lower(a, b), upper_right);
    }
    let a_width = a.schema().len();
    let b_width = b.schema().len();
    let c = upper_right;
    // Guard: the rewrite only helps (and only preserves key indices) when
    // A is the loop-variant side and B, C are invariant.
    let should = a.references_temp(cte)
        && !b.references_temp(cte)
        && !c.references_temp(cte)
        // Upper keys must reference only B (range [a_width, a_width+b_width)).
        && !upper_on.is_empty()
        && upper_on.iter().all(|(lk, _)| {
            let cols = lk.referenced_columns();
            !cols.is_empty() && cols.iter().all(|&i| i >= a_width && i < a_width + b_width)
        })
        // The lower residual must not span A and B in a way we cannot keep
        // (keeping it in the upper join preserves indices, so any residual
        // is fine — but a residual referencing B must stay semantically a
        // *join* condition; keeping it above the new lower join is exactly
        // that).
        ;
    if !should {
        // Rebuild the original shape.
        return rebuild(rebuild_lower(a, b), c);
    }
    // New lower join: B ⋈ C. Key indices: upper left keys shift by -a_width;
    // right keys (over C) are unchanged.
    let bc_schema = Arc::new(b.schema().join(&c.schema()));
    let bc_on: Vec<(PlanExpr, PlanExpr)> = upper_on
        .iter()
        .map(|(lk, rk)| {
            let shifted = lk
                .remap_columns(&|i| i.checked_sub(a_width))
                .expect("guard ensures keys reference only B");
            (shifted, rk.clone())
        })
        .collect();
    let bc = LogicalPlan::Join {
        left: b,
        right: c,
        join_type: JoinType::Inner,
        on: bc_on,
        filter: None,
        schema: bc_schema,
    };
    // New upper join: A ⋈ (B ⋈ C). Column order A∥B∥C matches the original
    // (A∥B)∥C, so the output schema and any residuals keep their indices.
    // The old lower join's keys (A-side vs B-side) become the upper keys;
    // B-side key indices are already relative to B, which now leads the
    // right side — unchanged.
    let residual = match (lower_filter, upper_filter) {
        (Some(lf), Some(uf)) => Some(lf.binary(spinner_plan::expr::BinaryOp::And, uf)),
        (Some(lf), None) => Some(lf),
        (None, Some(uf)) => Some(uf),
        (None, None) => None,
    };
    LogicalPlan::Join {
        left: a,
        right: Box::new(bc),
        join_type: lower_type,
        on: lower_on,
        filter: residual,
        schema: upper_schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use spinner_plan::{LoopStep, TerminationPlan};
    use std::sync::Arc;

    fn table(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: name.into(),
            schema: Arc::new(Schema::new(
                cols.iter().map(|c| Field::new(*c, DataType::Int)).collect(),
            )),
        }
    }

    fn temp(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::TempScan {
            name: name.into(),
            schema: Arc::new(Schema::new(
                cols.iter().map(|c| Field::new(*c, DataType::Int)).collect(),
            )),
        }
    }

    fn inner(l: LogicalPlan, r: LogicalPlan, lk: usize, rk: usize) -> LogicalPlan {
        let schema = Arc::new(l.schema().join(&r.schema()));
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            join_type: JoinType::Inner,
            on: vec![(PlanExpr::column(lk, "lk"), PlanExpr::column(rk, "rk"))],
            filter: None,
            schema,
        }
    }

    fn loop_step(body_plan: LogicalPlan) -> Step {
        let schema = Arc::new(Schema::new(vec![Field::new("node", DataType::Int)]));
        Step::Loop(LoopStep {
            cte: "cte_pr".into(),
            cte_display_name: "pr".into(),
            kind: LoopKind::Iterative {
                working: "w".into(),
                merge: false,
                delta: None,
            },
            body: vec![
                Step::Materialize {
                    name: "w".into(),
                    plan: body_plan,
                    distribute_by: Some(0),
                },
                Step::Rename {
                    from: "w".into(),
                    to: "cte_pr".into(),
                },
            ],
            termination: TerminationPlan::Iterations(5),
            key: 0,
            schema,
        })
    }

    #[test]
    fn invariant_join_is_hoisted_before_loop() {
        // pr ⋈ (edges ⋈ vs): the right subtree is invariant.
        let invariant = inner(
            table("edges", &["src", "dst"]),
            table("vs", &["node"]),
            1,
            0,
        );
        let body = inner(temp("cte_pr", &["node"]), invariant, 0, 1);
        let steps = extract_common_results(vec![loop_step(body)]).unwrap();
        assert_eq!(steps.len(), 2);
        let Step::Materialize { name, plan, .. } = &steps[0] else {
            panic!("common first")
        };
        assert!(name.starts_with("__common_"));
        assert_eq!(plan.count_joins(), 1);
        let Step::Loop(l) = &steps[1] else { panic!() };
        let Step::Materialize { plan, .. } = &l.body[0] else {
            panic!()
        };
        // The loop body now reads the materialized common result.
        assert!(plan.references_temp(name));
        assert_eq!(plan.count_joins(), 1); // only the variant join remains
    }

    #[test]
    fn variant_join_not_hoisted() {
        // pr ⋈ edges — references the CTE, cannot be hoisted.
        let body = inner(
            temp("cte_pr", &["node"]),
            table("edges", &["src", "dst"]),
            0,
            0,
        );
        let steps = extract_common_results(vec![loop_step(body)]).unwrap();
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn bare_scan_not_hoisted() {
        // A lone invariant scan has no join — materializing it buys nothing.
        let body = inner(
            temp("cte_pr", &["node"]),
            table("edges", &["src", "dst"]),
            0,
            0,
        );
        let steps = extract_common_results(vec![loop_step(body)]).unwrap();
        let Step::Loop(l) = &steps[0] else { panic!() };
        let Step::Materialize { plan, .. } = &l.body[0] else {
            panic!()
        };
        assert!(matches!(
            plan,
            LogicalPlan::Join { right, .. } if matches!(**right, LogicalPlan::TableScan { .. })
        ));
    }

    #[test]
    fn left_deep_inner_run_is_regrouped_and_hoisted() {
        // ((pr ⋈ edges) ⋈ vs) with the vs-join keyed on edges columns —
        // the PR-VS shape after outer→inner conversion.
        let pr = temp("cte_pr", &["node"]); // width 1
        let edges = table("edges", &["src", "dst"]); // width 2
        let vs = table("vs", &["vnode", "status"]);
        let lower = inner(pr, edges, 0, 1); // pr.node = edges.dst
                                            // upper keys: edges.dst (combined index 2) = vs.vnode (index 0)
        let upper = inner(lower, vs, 2, 0);
        let steps = extract_common_results(vec![loop_step(upper)]).unwrap();
        assert_eq!(steps.len(), 2, "expected a hoisted common materialization");
        let Step::Materialize { plan, .. } = &steps[0] else {
            panic!()
        };
        // The hoisted subtree is edges ⋈ vs.
        assert_eq!(plan.count_joins(), 1);
        assert!(!plan.references_temp("cte_pr"));
    }
}
