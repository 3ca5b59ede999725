//! Predicate push-down *within* one plan tree.
//!
//! Filters move as close to the scans as legality allows:
//!
//! * through another Filter (merging conjuncts),
//! * through Projection (substituting the projected expressions),
//! * into the legal side(s) of a Join (preserved sides of outer joins),
//! * through Distinct and Sort,
//! * into both branches of UNION / INTERSECT, the left branch of EXCEPT,
//! * below an Aggregate when the conjunct touches only group columns.
//!
//! The *cross-block* push-down into an iterative CTE's non-iterative part
//! — which must be restricted, per the paper — lives in
//! [`crate::iterative_pushdown`], not here.

use spinner_common::Result;
use spinner_plan::expr::{conjoin, split_conjuncts};
use spinner_plan::{JoinType, LogicalPlan, PlanExpr};

/// One pass of push-down over the whole tree (run to fixpoint by the
/// driver).
pub fn push_down_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            push_filter(predicate, push_down_filters(*input)?)
        }
        other => other.map_children(push_down_filters),
    }
}

/// Push `predicate` into `input` as far as one level allows, recursing
/// where the filter sinks.
fn push_filter(predicate: PlanExpr, input: LogicalPlan) -> Result<LogicalPlan> {
    match input {
        // Merge adjacent filters (then retry on the merged predicate).
        LogicalPlan::Filter {
            input: inner,
            predicate: p2,
        } => {
            let merged = conjoin(vec![p2, predicate]).expect("two conjuncts");
            push_filter(merged, *inner)
        }
        // Substitute projection expressions into the predicate and sink it.
        LogicalPlan::Projection {
            input: inner,
            exprs,
            schema,
        } => {
            let substituted = predicate.substitute_columns(&exprs)?;
            let pushed = push_filter(substituted, *inner)?;
            Ok(LogicalPlan::Projection {
                input: Box::new(pushed),
                exprs,
                schema,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => {
            let lwidth = left.schema().len();
            let mut conjuncts = Vec::new();
            split_conjuncts(&predicate, &mut conjuncts);
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            let (push_left_ok, push_right_ok) = match join_type {
                JoinType::Inner | JoinType::Cross => (true, true),
                JoinType::Left => (true, false),
                JoinType::Right => (false, true),
                JoinType::Full => (false, false),
            };
            for c in conjuncts {
                let cols = c.referenced_columns();
                let all_left = cols.iter().all(|&i| i < lwidth);
                let all_right = cols.iter().all(|&i| i >= lwidth);
                if all_left && !cols.is_empty() && push_left_ok {
                    to_left.push(c);
                } else if all_right && !cols.is_empty() && push_right_ok {
                    to_right.push(c.remap_columns(&|i| Some(i - lwidth))?);
                } else {
                    keep.push(c);
                }
            }
            let mut new_left = *left;
            if let Some(p) = conjoin(to_left) {
                new_left = push_filter(p, new_left)?;
            }
            let mut new_right = *right;
            if let Some(p) = conjoin(to_right) {
                new_right = push_filter(p, new_right)?;
            }
            let join = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                join_type,
                on,
                filter,
                schema,
            };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: p,
                },
                None => join,
            })
        }
        LogicalPlan::Aggregate {
            input: inner,
            group,
            aggs,
            schema,
        } => {
            let mut conjuncts = Vec::new();
            split_conjuncts(&predicate, &mut conjuncts);
            let ngroups = group.len();
            let mut below = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let cols = c.referenced_columns();
                if !cols.is_empty() && cols.iter().all(|&i| i < ngroups) {
                    // Rewrite group-column references to the underlying
                    // group expressions and push below.
                    below.push(c.substitute_columns(&group)?);
                } else {
                    keep.push(c);
                }
            }
            let mut new_input = *inner;
            if let Some(p) = conjoin(below) {
                new_input = push_filter(p, new_input)?;
            }
            let agg = LogicalPlan::Aggregate {
                input: Box::new(new_input),
                group,
                aggs,
                schema,
            };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(agg),
                    predicate: p,
                },
                None => agg,
            })
        }
        // The filter commutes with both: push it through.
        node @ (LogicalPlan::Distinct { .. } | LogicalPlan::Sort { .. }) => {
            node.map_children(|inner| push_filter(predicate.clone(), inner))
        }
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            use spinner_plan::SetOpKind;
            let push_right = matches!(op, SetOpKind::Union | SetOpKind::Intersect);
            let new_left = push_filter(predicate.clone(), *left)?;
            let new_right = if push_right {
                push_filter(predicate, *right)?
            } else {
                *right
            };
            Ok(LogicalPlan::SetOp {
                op,
                all,
                left: Box::new(new_left),
                right: Box::new(new_right),
                schema,
            })
        }
        // Leaves and barriers (Limit): the filter stays here.
        other => Ok(LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use spinner_plan::expr::BinaryOp;
    use std::sync::Arc;

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::TempScan {
            name: name.into(),
            schema: Arc::new(Schema::new(
                cols.iter().map(|c| Field::new(*c, DataType::Int)).collect(),
            )),
        }
    }

    fn filt(input: LogicalPlan, pred: PlanExpr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(input),
            predicate: pred,
        }
    }

    #[test]
    fn filter_sinks_through_projection() {
        let proj = LogicalPlan::Projection {
            input: Box::new(scan("t", &["a", "b"])),
            exprs: vec![
                PlanExpr::column(1, "b"),
                PlanExpr::column(0, "a").binary(BinaryOp::Plus, PlanExpr::literal(1i64)),
            ],
            schema: Arc::new(Schema::new(vec![
                Field::new("b", DataType::Int),
                Field::new("a1", DataType::Int),
            ])),
        };
        // filter on output column 0 (= input column 1)
        let pred = PlanExpr::column(0, "b").binary(BinaryOp::Gt, PlanExpr::literal(5i64));
        let out = push_down_filters(filt(proj, pred)).unwrap();
        let LogicalPlan::Projection { input, .. } = out else {
            panic!("projection on top")
        };
        let LogicalPlan::Filter {
            predicate,
            input: below,
        } = *input
        else {
            panic!("filter below projection")
        };
        assert!(matches!(*below, LogicalPlan::TempScan { .. }));
        assert_eq!(predicate.referenced_columns(), vec![1]);
    }

    #[test]
    fn inner_join_splits_conjuncts_to_both_sides() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("l", &["a"])),
            right: Box::new(scan("r", &["b"])),
            join_type: JoinType::Inner,
            on: vec![],
            filter: None,
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ])),
        };
        let pred = PlanExpr::column(0, "a")
            .binary(BinaryOp::Gt, PlanExpr::literal(1i64))
            .binary(
                BinaryOp::And,
                PlanExpr::column(1, "b").binary(BinaryOp::Lt, PlanExpr::literal(9i64)),
            );
        let out = push_down_filters(filt(join, pred)).unwrap();
        let LogicalPlan::Join { left, right, .. } = out else {
            panic!("join on top")
        };
        assert!(matches!(*left, LogicalPlan::Filter { .. }));
        assert!(matches!(*right, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn left_join_keeps_right_side_conjunct_above() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("l", &["a"])),
            right: Box::new(scan("r", &["b"])),
            join_type: JoinType::Left,
            on: vec![],
            filter: None,
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ])),
        };
        let pred = PlanExpr::column(1, "b").binary(BinaryOp::Lt, PlanExpr::literal(9i64));
        let out = push_down_filters(filt(join, pred)).unwrap();
        // The right-side conjunct cannot sink through a LEFT join.
        assert!(matches!(out, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn group_column_filter_sinks_below_aggregate() {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan("t", &["a", "b"])),
            group: vec![PlanExpr::column(0, "a")],
            aggs: vec![],
            schema: Arc::new(Schema::new(vec![Field::new("a", DataType::Int)])),
        };
        let pred = PlanExpr::column(0, "a").binary(BinaryOp::Eq, PlanExpr::literal(3i64));
        let out = push_down_filters(filt(agg, pred)).unwrap();
        let LogicalPlan::Aggregate { input, .. } = out else {
            panic!("agg on top")
        };
        assert!(matches!(*input, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_does_not_cross_limit() {
        let lim = LogicalPlan::Limit {
            input: Box::new(scan("t", &["a"])),
            n: 3,
        };
        let pred = PlanExpr::column(0, "a").binary(BinaryOp::Gt, PlanExpr::literal(0i64));
        let out = push_down_filters(filt(lim, pred)).unwrap();
        assert!(matches!(out, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn union_pushes_into_both_branches() {
        let union = LogicalPlan::SetOp {
            op: spinner_plan::SetOpKind::Union,
            all: true,
            left: Box::new(scan("l", &["a"])),
            right: Box::new(scan("r", &["a"])),
            schema: Arc::new(Schema::new(vec![Field::new("a", DataType::Int)])),
        };
        let pred = PlanExpr::column(0, "a").binary(BinaryOp::Gt, PlanExpr::literal(0i64));
        let out = push_down_filters(filt(union, pred)).unwrap();
        let LogicalPlan::SetOp { left, right, .. } = out else {
            panic!()
        };
        assert!(matches!(*left, LogicalPlan::Filter { .. }));
        assert!(matches!(*right, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn except_pushes_left_only() {
        let except = LogicalPlan::SetOp {
            op: spinner_plan::SetOpKind::Except,
            all: false,
            left: Box::new(scan("l", &["a"])),
            right: Box::new(scan("r", &["a"])),
            schema: Arc::new(Schema::new(vec![Field::new("a", DataType::Int)])),
        };
        let pred = PlanExpr::column(0, "a").binary(BinaryOp::Gt, PlanExpr::literal(0i64));
        let out = push_down_filters(filt(except, pred)).unwrap();
        let LogicalPlan::SetOp { left, right, .. } = out else {
            panic!()
        };
        assert!(matches!(*left, LogicalPlan::Filter { .. }));
        assert!(matches!(*right, LogicalPlan::TempScan { .. }));
    }

    #[test]
    fn adjacent_filters_merge() {
        let two = filt(
            filt(
                scan("t", &["a"]),
                PlanExpr::column(0, "a").binary(BinaryOp::Gt, PlanExpr::literal(0i64)),
            ),
            PlanExpr::column(0, "a").binary(BinaryOp::Lt, PlanExpr::literal(9i64)),
        );
        let out = push_down_filters(two).unwrap();
        let LogicalPlan::Filter { input, .. } = out else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::TempScan { .. }));
    }
}
