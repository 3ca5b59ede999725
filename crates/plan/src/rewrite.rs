//! The functional rewrite of iterative and recursive CTEs — DBSpinner's
//! core algorithm (paper §IV, Algorithm 1).
//!
//! An iterative CTE
//!
//! ```sql
//! WITH ITERATIVE R AS ( R0 ITERATE Ri UNTIL Tc ) Qf
//! ```
//!
//! is expanded into the step program
//!
//! ```text
//! 1. Materialize R0 into cteTable            (Algorithm 1, line 1)
//! 2. Loop (initializes the loop operator):   (line 2)
//!      3. Materialize Ri into workingTable   (line 3)
//!      4a. [no WHERE in Ri, rename optimization on]
//!          Rename workingTable to cteTable   (lines 5-6)
//!      4b. [otherwise]
//!          Merge workingTable into cteTable by key  (lines 8-9)
//!          Rename mergeTable to cteTable
//!      5. update loop, repeat if condition holds     (lines 11-14)
//! ```
//!
//! The merge key is the CTE's **first declared column** (the paper uses the
//! declared primary key or generated row ids; graph queries key on the node
//! id, which is the first column in PR, SSSP and FF alike). A working table
//! with duplicate keys raises [`Error::DuplicateIterationKey`] during the
//! merge, as §II requires.
//!
//! The plan decides the loop state's column types, as PostgreSQL and DuckDB
//! do for recursive CTEs: each CTE column is the common supertype
//! ([`DataType::widen`]) of its anchor's type and its body's. The body is
//! planned against the anchor's types and again against the widened ones
//! until no column widens; the anchor, and a body column that comes out
//! narrower, are cast to the CTE's type. So an anchor's `0` beside a body's
//! `rank + 0.15` makes `rank` a FLOAT column from the first row, and the
//! loop state keeps one type per column for the whole loop.

use std::sync::Arc;

use spinner_common::{DataType, Error, Field, Result, Schema, SchemaRef};
use spinner_parser as ast;
use spinner_parser::Termination;

use crate::builder::{
    apply_declared_columns, plan_query_internal, resolve_expr, CteBinding, PlanContext,
};
use crate::expr::PlanExpr;
use crate::logical::{LogicalPlan, LoopKind, LoopStep, Step, TerminationPlan};

/// Expand an iterative CTE into steps, binding its name for later
/// references. See the module docs for the produced shape.
pub fn build_iterative_cte(
    cte: &ast::Cte,
    init: &ast::Query,
    step: &ast::Query,
    until: &Termination,
    ctx: &mut PlanContext<'_>,
    steps: &mut Vec<Step>,
) -> Result<()> {
    // R0 — planned before the CTE name is visible.
    let init_plan = plan_query_internal(init, ctx, steps)?;
    let anchor = apply_declared_columns(&init_plan.schema(), &cte.columns, &cte.name)?;
    if anchor.is_empty() {
        return Err(Error::plan(format!(
            "iterative CTE '{}' must produce at least one column",
            cte.name
        )));
    }
    let cte_temp = ctx.fresh_temp(&format!("cte_{}", cte.name));
    let working = ctx.fresh_temp(&format!("work_{}", cte.name));
    let merged = ctx.fresh_temp(&format!("merge_{}", cte.name));

    // Ri, with the CTE's references resolving to the cte table. Its own
    // sub-steps (nested CTE materializations) belong inside the loop body
    // so they re-run per iteration.
    let (schema, step_plan, mut body) =
        plan_typed_body(cte, step, &cte_temp, anchor, "iterative", ctx)?;

    // Distribute the CTE table on its merge key, like an MPP planner
    // distributing a table on its primary key.
    steps.push(Step::Materialize {
        name: cte_temp.clone(),
        plan: cast_to(init_plan, &schema),
        distribute_by: Some(0),
    });

    // Algorithm 1, line 4: the rename fast path applies when Ri has no
    // WHERE clause (the whole dataset is replaced). The Fig. 8 baseline
    // disables it via config and always merges.
    let has_where = query_has_top_level_where(step);
    let merge = has_where || !ctx.config.minimize_data_movement;

    body.push(Step::Materialize {
        name: working.clone(),
        plan: step_plan,
        distribute_by: Some(0),
    });
    if merge {
        body.push(Step::Merge {
            cte: cte_temp.clone(),
            working: working.clone(),
            merged: merged.clone(),
            key: 0,
            cte_display_name: cte.name.clone(),
            delta_out: None,
        });
        body.push(Step::Rename {
            from: merged,
            to: cte_temp.clone(),
        });
    } else {
        body.push(Step::Rename {
            from: working.clone(),
            to: cte_temp.clone(),
        });
    }

    let termination = plan_termination(until, &schema, &cte.name)?;
    steps.push(Step::Loop(LoopStep {
        cte: cte_temp,
        cte_display_name: cte.name.clone(),
        kind: LoopKind::Iterative {
            working,
            merge,
            delta: None,
        },
        body,
        termination,
        key: 0,
        schema,
    }));
    Ok(())
}

/// Expand a recursive CTE into a fixed-point loop: materialize the base,
/// then repeatedly evaluate the step against the *delta* (rows added by the
/// previous round), appending new rows until none appear.
pub fn build_recursive_cte(
    cte: &ast::Cte,
    base: &ast::Query,
    step: &ast::Query,
    union_all: bool,
    ctx: &mut PlanContext<'_>,
    steps: &mut Vec<Step>,
) -> Result<()> {
    let base_plan = plan_query_internal(base, ctx, steps)?;
    let anchor = apply_declared_columns(&base_plan.schema(), &cte.columns, &cte.name)?;
    let cte_temp = ctx.fresh_temp(&format!("cte_{}", cte.name));
    let delta_temp = format!("__delta_{cte_temp}");
    let working = ctx.fresh_temp(&format!("work_{}", cte.name));

    // Inside the loop the recursive reference reads the delta.
    let (schema, step_plan, mut body) =
        plan_typed_body(cte, step, &delta_temp, anchor, "recursive", ctx)?;
    steps.push(Step::Materialize {
        name: cte_temp.clone(),
        plan: cast_to(base_plan, &schema),
        distribute_by: Some(0),
    });
    body.push(Step::Materialize {
        name: working.clone(),
        plan: step_plan,
        distribute_by: Some(0),
    });

    steps.push(Step::Loop(LoopStep {
        cte: cte_temp.clone(),
        cte_display_name: cte.name.clone(),
        kind: LoopKind::FixedPoint { working, union_all },
        body,
        // A fixed-point loop stops when an iteration contributes no new
        // rows — precisely "fewer than 1 row changed".
        termination: TerminationPlan::Delta { threshold: 1 },
        key: 0,
        schema: schema.clone(),
    }));

    // After the loop, references read the full accumulated table.
    ctx.bind_cte(
        &cte.name,
        CteBinding {
            temp_name: cte_temp,
            schema,
        },
    );
    Ok(())
}

/// Plan the loop body `step` of `cte` with the CTE's name bound to
/// `temp_name`, and decide the loop's column types: each column is the
/// common supertype of the anchor's type and the body's. The body is
/// planned against the anchor's types, then again against the widened
/// types for as long as a column widens — types only widen, so this ends.
/// Returns the types, the body's plan cast to them and the body's own
/// steps. `role` names the body in errors.
fn plan_typed_body(
    cte: &ast::Cte,
    step: &ast::Query,
    temp_name: &str,
    anchor: SchemaRef,
    role: &str,
    ctx: &mut PlanContext<'_>,
) -> Result<(SchemaRef, LogicalPlan, Vec<Step>)> {
    let temps = ctx.temp_counter;
    let mut schema = anchor;
    loop {
        ctx.temp_counter = temps;
        ctx.bind_cte(
            &cte.name,
            CteBinding {
                temp_name: temp_name.to_string(),
                schema: Arc::clone(&schema),
            },
        );
        let mut body = Vec::new();
        let plan = plan_query_internal(step, ctx, &mut body)?;
        let produced = plan.schema();
        if produced.len() != schema.len() {
            return Err(Error::plan(format!(
                "{role} part of CTE '{}' produces {} columns, expected {}",
                cte.name,
                produced.len(),
                schema.len()
            )));
        }
        let mut widened = Vec::with_capacity(schema.len());
        for (field, body) in schema.fields().iter().zip(produced.fields()) {
            let data_type = field.data_type.widen(body.data_type).ok_or_else(|| {
                Error::plan(format!(
                    "column '{}' of CTE '{}' is {} before its {role} part and {} in it, \
                     and no implicit cast joins them",
                    field.name, cte.name, field.data_type, body.data_type
                ))
            })?;
            widened.push(Field {
                data_type,
                ..field.clone()
            });
        }
        if widened == schema.fields() {
            return Ok((Arc::clone(&schema), cast_to(plan, &schema), body));
        }
        schema = Arc::new(Schema::new(widened));
    }
}

/// `plan` with each INT column that `schema` types FLOAT cast to FLOAT,
/// in its top projection where it has one.
fn cast_to(plan: LogicalPlan, schema: &Schema) -> LogicalPlan {
    let produced = plan.schema();
    let widens = |i: usize| {
        produced.field(i).data_type == DataType::Int && schema.field(i).data_type == DataType::Float
    };
    if !(0..schema.len()).any(widens) {
        return plan;
    }
    let (input, exprs) = match plan {
        LogicalPlan::Projection { input, exprs, .. } => (input, exprs),
        other => {
            let columns = (produced.fields().iter().enumerate())
                .map(|(i, f)| PlanExpr::column(i, f.qualified_name()))
                .collect();
            (Box::new(other), columns)
        }
    };
    let exprs = (exprs.into_iter().enumerate())
        .map(|(i, expr)| {
            if widens(i) {
                PlanExpr::Cast {
                    expr: Box::new(expr),
                    to: DataType::Float,
                }
            } else {
                expr
            }
        })
        .collect();
    let fields = (produced.fields().iter().enumerate()).map(|(i, f)| Field {
        data_type: if widens(i) {
            DataType::Float
        } else {
            f.data_type
        },
        ..f.clone()
    });
    LogicalPlan::Projection {
        input,
        exprs,
        schema: Arc::new(Schema::new(fields.collect())),
    }
}

/// Resolve the termination condition against the CTE schema.
fn plan_termination(
    until: &Termination,
    schema: &spinner_common::Schema,
    cte_name: &str,
) -> Result<TerminationPlan> {
    Ok(match until {
        Termination::Iterations(n) => TerminationPlan::Iterations(*n),
        Termination::Updates(n) => TerminationPlan::Updates(*n),
        Termination::Data { expr, rows } => {
            let predicate = resolve_expr(expr, schema).map_err(|e| {
                Error::plan(format!(
                    "termination condition of CTE '{cte_name}' is invalid: {e}"
                ))
            })?;
            TerminationPlan::Data {
                predicate,
                rows: *rows,
            }
        }
        Termination::Delta { threshold } => TerminationPlan::Delta {
            threshold: *threshold,
        },
    })
}

/// Does the query's top-level SELECT carry a WHERE clause? This is the
/// Algorithm-1 test for "the iterative part updates only a subset".
fn query_has_top_level_where(q: &ast::Query) -> bool {
    fn body_has_where(b: &ast::SetExpr) -> bool {
        match b {
            ast::SetExpr::Select(s) => s.selection.is_some(),
            ast::SetExpr::SetOp { left, right, .. } => {
                body_has_where(left) || body_has_where(right)
            }
        }
    }
    body_has_where(&q.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_parser::parse_sql;

    #[test]
    fn top_level_where_detection() {
        let get = |sql: &str| {
            let ast::Statement::Query(q) = parse_sql(sql).unwrap() else {
                panic!()
            };
            query_has_top_level_where(&q)
        };
        assert!(get("SELECT 1 WHERE 1 = 1"));
        assert!(!get("SELECT 1"));
        // WHERE inside a subquery does not count — only the top level
        // decides whether the whole dataset is replaced.
        assert!(!get("SELECT a FROM (SELECT 1 AS a WHERE 1 = 1) q"));
        assert!(get("SELECT 1 UNION SELECT 2 WHERE 1 = 1"));
    }
}
