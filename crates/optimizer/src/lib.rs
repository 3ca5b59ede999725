//! Rule-based logical optimizer.
//!
//! Two layers, matching the paper's split:
//!
//! * **General rewrites** applied to every plan tree (constant folding,
//!   filter merging, predicate push-down within a plan, outer→inner join
//!   conversion). These are the optimizations MPPDB already had that
//!   "simply work" for the rewritten iterative query (§V).
//! * **Iterative-CTE rewrites** applied to the step program as a whole:
//!   *common result regrouping* (§V-A, Fig. 9) regroups inner joins so a
//!   loop-invariant join subtree is one join input, which the executor's
//!   join-state cache then computes once per statement, and *restricted predicate push-down*
//!   (§V-B, Fig. 10) moves final-query predicates into the non-iterative
//!   part when Ri provably processes rows independently.
//!
//! * **Semi-naive delta iteration** ([`semi_naive`]): when a loop body is
//!   a monotone accumulator over a self-join of the CTE, substitute the
//!   working *delta* table for the full table on the propagation side so
//!   per-iteration cost tracks the changed-row set instead of the whole
//!   working table. See `DESIGN.md` §7 for the iteration-model spec.
//!
//! * **Required-columns pruning** ([`prune`]), last: below every plan's
//!   root, operators compute only the columns some ancestor reads.
//!
//! Entry points: [`optimize`] for a [`QueryPlan`], [`optimize_statement`]
//! for any planned statement.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common_result;
pub mod fold;
pub mod iterative_pushdown;
pub mod outer_to_inner;
pub mod projection;
pub mod prune;
pub mod pushdown;
pub mod semi_naive;

use spinner_common::{EngineConfig, Result};
use spinner_plan::{LogicalPlan, PlannedStatement, QueryPlan, Step};

/// Maximum fixpoint rounds for the per-plan rule pipeline.
const MAX_PASSES: usize = 10;

/// Optimize one logical plan tree with the general rewrites.
pub fn optimize_plan(mut plan: LogicalPlan) -> Result<LogicalPlan> {
    for _ in 0..MAX_PASSES {
        let mut next = fold::fold_constants(plan.clone())?;
        next = outer_to_inner::convert_outer_joins(next)?;
        next = pushdown::push_down_filters(next)?;
        next = projection::merge_projections(next)?;
        if next == plan {
            return Ok(next);
        }
        plan = next;
    }
    Ok(plan)
}

/// Optimize a full query plan: every step's plan tree, plus the program-
/// level iterative-CTE rewrites.
pub fn optimize(plan: QueryPlan, config: &EngineConfig) -> Result<QueryPlan> {
    let QueryPlan { steps, root } = plan;
    let mut steps = map_plans(steps, &optimize_plan)?;
    let mut root = optimize_plan(root)?;

    if config.predicate_pushdown {
        let rewritten = iterative_pushdown::push_into_non_iterative(steps, root)?;
        steps = rewritten.0;
        root = rewritten.1;
        // The predicate the rewrite moved into R0 sits above R0's whole
        // plan; a second general pass sinks it further (e.g. below the FF
        // query's GROUP BY, into the scan).
        steps = map_plans(steps, &optimize_plan)?;
        root = optimize_plan(root)?;
    }
    if config.common_result_optimization {
        steps = common_result::regroup_loop_bodies(steps)?;
    }
    if config.semi_naive {
        steps = semi_naive::apply(steps)?;
    }
    Ok(QueryPlan {
        steps: map_plans(steps, &prune::prune_columns)?,
        root: prune::prune_columns(root)?,
    })
}

/// `steps` with `f` applied to every materialized plan, loop bodies
/// included.
fn map_plans(
    steps: Vec<Step>,
    f: &impl Fn(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<Vec<Step>> {
    let step = |step| {
        Ok(match step {
            Step::Materialize {
                name,
                plan,
                distribute_by,
            } => Step::Materialize {
                name,
                plan: f(plan)?,
                distribute_by,
            },
            Step::Loop(mut l) => {
                l.body = map_plans(l.body, f)?;
                Step::Loop(l)
            }
            other @ (Step::Rename { .. } | Step::Merge { .. }) => other,
        })
    };
    steps.into_iter().map(step).collect()
}

/// Optimize any planned statement.
pub fn optimize_statement(
    stmt: PlannedStatement,
    config: &EngineConfig,
) -> Result<PlannedStatement> {
    Ok(match stmt {
        PlannedStatement::Query(q) => PlannedStatement::Query(optimize(q, config)?),
        PlannedStatement::Insert { table, source } => PlannedStatement::Insert {
            table,
            source: optimize(source, config)?,
        },
        PlannedStatement::Explain { statement, analyze } => PlannedStatement::Explain {
            statement: Box::new(optimize_statement(*statement, config)?),
            analyze,
        },
        other => other,
    })
}
