//! Projection merging.
//!
//! Planning and the other rewrites can stack projections
//! (`Projection(Projection(x))` — e.g. a subquery alias wrapper over a
//! SELECT list, or the hidden-sort-column machinery). Evaluating two
//! projections costs two row materializations; merging composes the outer
//! expressions over the inner ones so one pass suffices. Identity
//! projections (straight column forwarding with an unchanged width) are
//! removed entirely.

use spinner_common::Result;
use spinner_plan::{LogicalPlan, PlanExpr};

/// One merging pass over the tree (run to fixpoint by the driver).
pub fn merge_projections(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = plan.map_children(merge_projections)?;
    let LogicalPlan::Projection {
        input,
        exprs,
        schema,
    } = plan
    else {
        return Ok(plan);
    };
    match *input {
        // Projection over projection: compose.
        LogicalPlan::Projection {
            input: inner_input,
            exprs: inner_exprs,
            ..
        } => {
            let composed = exprs
                .into_iter()
                .map(|e| e.substitute_columns(&inner_exprs))
                .collect::<Result<Vec<_>>>()?;
            Ok(LogicalPlan::Projection {
                input: inner_input,
                exprs: composed,
                schema,
            })
        }
        other => {
            // Identity projection over anything: drop it, keeping the
            // outer schema only if it matches the input's width AND names
            // do not matter (they do — the projection may re-qualify a
            // subquery alias). We therefore only drop when the schema is
            // structurally identical.
            let is_identity = exprs.len() == other.schema().len()
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, PlanExpr::Column(c) if c.index == i))
                && *schema == *other.schema();
            if is_identity {
                Ok(other)
            } else {
                Ok(LogicalPlan::Projection {
                    input: Box::new(other),
                    exprs,
                    schema,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use spinner_plan::expr::BinaryOp;
    use std::sync::Arc;

    fn scan() -> LogicalPlan {
        LogicalPlan::TempScan {
            name: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ])),
        }
    }

    #[test]
    fn stacked_projections_compose() {
        let inner = LogicalPlan::Projection {
            input: Box::new(scan()),
            exprs: vec![
                PlanExpr::column(1, "b"),
                PlanExpr::column(0, "a").binary(BinaryOp::Plus, PlanExpr::literal(1i64)),
            ],
            schema: Arc::new(Schema::new(vec![
                Field::new("b", DataType::Int),
                Field::new("a1", DataType::Int),
            ])),
        };
        let outer = LogicalPlan::Projection {
            input: Box::new(inner),
            exprs: vec![
                PlanExpr::column(1, "a1").binary(BinaryOp::Multiply, PlanExpr::literal(2i64))
            ],
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int)])),
        };
        let merged = merge_projections(outer).unwrap();
        let LogicalPlan::Projection { input, exprs, .. } = merged else {
            panic!()
        };
        assert!(
            matches!(*input, LogicalPlan::TempScan { .. }),
            "one projection left"
        );
        assert_eq!(exprs[0].to_string(), "((a#0 + 1) * 2)");
    }

    #[test]
    fn identity_projection_removed() {
        let schema = scan().schema();
        let identity = LogicalPlan::Projection {
            input: Box::new(scan()),
            exprs: vec![PlanExpr::column(0, "a"), PlanExpr::column(1, "b")],
            schema,
        };
        let merged = merge_projections(identity).unwrap();
        assert!(matches!(merged, LogicalPlan::TempScan { .. }));
    }

    #[test]
    fn renaming_projection_kept() {
        // Same columns, but the schema differs (alias re-qualification) —
        // must not be dropped.
        let renamed = Arc::new(scan().schema().qualify_all("q"));
        let proj = LogicalPlan::Projection {
            input: Box::new(scan()),
            exprs: vec![PlanExpr::column(0, "a"), PlanExpr::column(1, "b")],
            schema: renamed,
        };
        let merged = merge_projections(proj).unwrap();
        assert!(matches!(merged, LogicalPlan::Projection { .. }));
    }

    #[test]
    fn reordering_projection_kept() {
        let proj = LogicalPlan::Projection {
            input: Box::new(scan()),
            exprs: vec![PlanExpr::column(1, "b"), PlanExpr::column(0, "a")],
            schema: Arc::new(Schema::new(vec![
                Field::new("b", DataType::Int),
                Field::new("a", DataType::Int),
            ])),
        };
        let merged = merge_projections(proj).unwrap();
        assert!(matches!(merged, LogicalPlan::Projection { .. }));
    }
}
