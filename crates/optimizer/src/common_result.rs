//! Common-result regrouping (paper §V-A, Fig. 5 / Fig. 9).
//!
//! Joins inside the iterative part whose inputs never change across
//! iterations are computed once per iteration by the naive rewrite. The
//! executor's join-state cache (`spinner_exec::cache`) runs every
//! loop-invariant hash-join input — a build side, or a probe side that
//! contains a join — once per statement instead. This rule makes an
//! invariant join *be* such an input: it applies a limited inner-join
//! associativity rewrite,
//!
//! ```text
//! (A ⋈ B) ⋈ C  with the upper keys referencing only B   ⇒   A ⋈ (B ⋈ C)
//! ```
//!
//! which regroups `edges ⨝ vertexStatus` next to each other in the PR-VS
//! query after outer→inner conversion has run, so the invariant `B ⋈ C` is
//! a build side the cache builds once (the paper notes general join
//! reordering with outer joins is future work — same here: the rewrite
//! only fires on inner joins). The rule adds no step.

use std::sync::Arc;

use spinner_common::Result;
use spinner_plan::{JoinType, LogicalPlan, LoopKind, PlanExpr, Step};

/// Scan the step program; in the body of every iterative loop, regroup
/// inner joins so that loop-invariant join subtrees become join inputs.
pub fn regroup_loop_bodies(steps: Vec<Step>) -> Result<Vec<Step>> {
    let regroup_step = |step: Step, cte: &str| match step {
        Step::Materialize {
            name,
            plan,
            distribute_by,
        } => Ok(Step::Materialize {
            name,
            plan: regroup_inner_joins(plan, cte)?,
            distribute_by,
        }),
        other => Ok(other),
    };
    let regroup_loop = |step: Step| match step {
        Step::Loop(mut l) if matches!(l.kind, LoopKind::Iterative { .. }) => {
            let body = std::mem::take(&mut l.body).into_iter();
            l.body = body
                .map(|step| regroup_step(step, &l.cte))
                .collect::<Result<_>>()?;
            Ok(Step::Loop(l))
        }
        other => Ok(other),
    };
    steps.into_iter().map(regroup_loop).collect()
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
        .into_iter()
        .map(|(lk, rk)| {
            let shifted = lk
                .remap_columns(&|i| i.checked_sub(a_width))
                .expect("guard ensures keys reference only B");
            (shifted, rk)
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

    /// The steps `body` regroups to: the rule adds none, so they must be
    /// the one loop, and the body plan is returned.
    fn regrouped(body: LogicalPlan) -> LogicalPlan {
        let steps = regroup_loop_bodies(vec![loop_step(body)]).unwrap();
        let [Step::Loop(l)] = &steps[..] else {
            panic!("the rule adds no step: {steps:?}")
        };
        let Step::Materialize { plan, .. } = &l.body[0] else {
            panic!()
        };
        plan.clone()
    }

    #[test]
    fn invariant_join_stays_in_the_loop_body() {
        // pr ⋈ (edges ⋈ vs): the right subtree is invariant and already a
        // build side, for the join-state cache to build once.
        let invariant = inner(
            table("edges", &["src", "dst"]),
            table("vs", &["node"]),
            1,
            0,
        );
        let body = inner(temp("cte_pr", &["node"]), invariant, 0, 1);
        assert_eq!(regrouped(body.clone()), body);
    }

    #[test]
    fn variant_join_not_hoisted() {
        // ((pr ⋈ edges) ⋈ pr): the upper join's right side reads the CTE,
        // so regrouping would expose no invariant join.
        let lower = inner(
            temp("cte_pr", &["node"]),
            table("edges", &["src", "dst"]),
            0,
            1,
        );
        let body = inner(lower, temp("cte_pr", &["node"]), 1, 0);
        assert_eq!(regrouped(body.clone()), body);
    }

    #[test]
    fn bare_scan_not_hoisted() {
        // pr ⋈ edges: a lone invariant scan has no join to regroup.
        let body = inner(
            temp("cte_pr", &["node"]),
            table("edges", &["src", "dst"]),
            0,
            0,
        );
        assert_eq!(regrouped(body.clone()), body);
    }

    #[test]
    fn left_deep_inner_run_is_regrouped_in_place() {
        // ((pr ⋈ edges) ⋈ vs) with the vs-join keyed on edges columns —
        // the PR-VS shape after outer→inner conversion.
        let pr = temp("cte_pr", &["node"]); // width 1
        let edges = table("edges", &["src", "dst"]); // width 2
        let vs = table("vs", &["vnode", "status"]);
        // pr.node = edges.dst, then edges.dst (combined index 2) = vs.vnode.
        let lower = inner(pr.clone(), edges.clone(), 0, 1);
        let upper = inner(lower, vs.clone(), 2, 0);
        // pr ⋈ (edges ⋈ vs): the lower join's keys now join pr to the
        // invariant edges ⋈ vs, whose keys are shifted onto edges; the
        // columns keep their order.
        let expected = LogicalPlan::Join {
            schema: upper.schema(),
            left: Box::new(pr),
            right: Box::new(inner(edges, vs, 1, 0)),
            join_type: JoinType::Inner,
            on: vec![(PlanExpr::column(0, "lk"), PlanExpr::column(1, "rk"))],
            filter: None,
        };
        assert_eq!(regrouped(upper), expected);
    }
}
