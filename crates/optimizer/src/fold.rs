//! Constant folding and trivial predicate simplification.
//!
//! Column-free subexpressions are evaluated at plan time; expressions that
//! would error at run time (division by zero in dead code, overflow) are
//! left untouched so the error surfaces only if the row is actually
//! evaluated. `Filter(TRUE)` disappears; `x AND TRUE` simplifies.

use std::convert::Infallible;

use spinner_common::{Result, Value};
use spinner_plan::expr::BinaryOp;
use spinner_plan::{LogicalPlan, PlanExpr};

/// Fold constants in every expression of the tree, bottom-up.
pub fn fold_constants(plan: LogicalPlan) -> Result<LogicalPlan> {
    let fold_all = |exprs: Vec<PlanExpr>| exprs.into_iter().map(fold_expr).collect();
    Ok(match plan.map_children(fold_constants)? {
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => LogicalPlan::Projection {
            input,
            exprs: fold_all(exprs),
            schema,
        },
        LogicalPlan::Filter { input, predicate } => match fold_expr(predicate) {
            PlanExpr::Literal(Value::Bool(true)) => *input,
            predicate => LogicalPlan::Filter { input, predicate },
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => LogicalPlan::Join {
            left,
            right,
            join_type,
            on: on
                .into_iter()
                .map(|(l, r)| (fold_expr(l), fold_expr(r)))
                .collect(),
            filter: filter.map(fold_expr),
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input,
            group: fold_all(group),
            aggs,
            schema,
        },
        other => other,
    })
}

/// Fold one expression. Never errors: runtime-erroring constants stay
/// unfolded.
pub fn fold_expr(expr: PlanExpr) -> PlanExpr {
    // First fold children.
    let Ok(expr) = expr.map_children(|child| Ok::<_, Infallible>(fold_expr(child)));
    if let PlanExpr::Binary { left, op, right } = &expr {
        if let Some(simpler) = boolean_identity(*op, left, right) {
            return simpler;
        }
    }
    // Then fold this node if it is column-free and evaluates cleanly.
    if !matches!(expr, PlanExpr::Literal(_)) && expr.is_constant() {
        if let Ok(v) = expr.evaluate(&[]) {
            return PlanExpr::Literal(v);
        }
    }
    expr
}

/// `left op right` without its operator, when one side is a TRUE or FALSE
/// that decides or drops out of an AND/OR (sound under three-valued logic).
fn boolean_identity(op: BinaryOp, left: &PlanExpr, right: &PlanExpr) -> Option<PlanExpr> {
    let boolean = |b| PlanExpr::Literal(Value::Bool(b));
    match (op, left, right) {
        (BinaryOp::And, PlanExpr::Literal(Value::Bool(true)), r) => Some(r.clone()),
        (BinaryOp::And, l, PlanExpr::Literal(Value::Bool(true))) => Some(l.clone()),
        (BinaryOp::And, PlanExpr::Literal(Value::Bool(false)), _)
        | (BinaryOp::And, _, PlanExpr::Literal(Value::Bool(false))) => Some(boolean(false)),
        (BinaryOp::Or, PlanExpr::Literal(Value::Bool(false)), r) => Some(r.clone()),
        (BinaryOp::Or, l, PlanExpr::Literal(Value::Bool(false))) => Some(l.clone()),
        (BinaryOp::Or, PlanExpr::Literal(Value::Bool(true)), _)
        | (BinaryOp::Or, _, PlanExpr::Literal(Value::Bool(true))) => Some(boolean(true)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::DataType;
    use spinner_plan::expr::UnaryOp;
    use spinner_plan::ScalarFn;

    #[test]
    fn folds_arithmetic() {
        let e = PlanExpr::literal(2i64).binary(BinaryOp::Plus, PlanExpr::literal(3i64));
        assert_eq!(fold_expr(e), PlanExpr::Literal(Value::Int(5)));
    }

    #[test]
    fn leaves_erroring_constants_alone() {
        let e = PlanExpr::literal(1i64).binary(BinaryOp::Divide, PlanExpr::literal(0i64));
        let folded = fold_expr(e.clone());
        assert_eq!(folded, e);
    }

    #[test]
    fn simplifies_boolean_identities() {
        let x = PlanExpr::column(0, "x");
        let e = PlanExpr::literal(true).binary(BinaryOp::And, x.clone());
        assert_eq!(fold_expr(e), x);
        let e = PlanExpr::column(0, "x").binary(BinaryOp::Or, PlanExpr::literal(true));
        assert_eq!(fold_expr(e), PlanExpr::Literal(Value::Bool(true)));
    }

    #[test]
    fn folds_nested_partially() {
        // (1 + 2) < x  =>  3 < x
        let e = PlanExpr::literal(1i64)
            .binary(BinaryOp::Plus, PlanExpr::literal(2i64))
            .binary(BinaryOp::Lt, PlanExpr::column(0, "x"));
        let folded = fold_expr(e);
        let PlanExpr::Binary { left, .. } = &folded else {
            panic!()
        };
        assert_eq!(**left, PlanExpr::Literal(Value::Int(3)));
    }

    /// Every variant folds its constant children and keeps its shape
    /// around the column: CASE with and without ELSE, an IN list, CAST,
    /// IS NOT NULL, NOT, a scalar function, nested binary operators, an
    /// erroring constant left alone and a `TRUE AND` dropped.
    #[test]
    fn every_variant_folds_around_its_columns() {
        let x = || PlanExpr::column(0, "x");
        let lit = |v: i64| PlanExpr::literal(v);
        let sum = |a: i64, b: i64| lit(a).binary(BinaryOp::Plus, lit(b));
        let not_gt = |bound: PlanExpr| PlanExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(x().binary(BinaryOp::Gt, bound)),
        };
        let not_null = |addend: PlanExpr| PlanExpr::IsNull {
            expr: Box::new(x().binary(BinaryOp::Plus, addend)),
            negated: true,
        };
        let coalesce = |second: PlanExpr| PlanExpr::Scalar {
            func: ScalarFn::Coalesce,
            args: vec![x(), second],
        };
        let in_list = |first: PlanExpr| PlanExpr::InList {
            expr: Box::new(x()),
            list: vec![first, x()],
            negated: false,
        };
        let cast = || PlanExpr::Cast {
            expr: Box::new(x().binary(BinaryOp::Multiply, lit(1).binary(BinaryOp::Divide, lit(0)))),
            to: DataType::Float,
        };
        let positive = || x().binary(BinaryOp::Gt, lit(0));
        // CASE WHEN NOT (x > a) AND (x + b) IS NOT NULL THEN coalesce(x, c)
        //      WHEN x IN (d, x) THEN CAST(x * (1 / 0) AS FLOAT)
        //      ELSE CASE WHEN e THEN x END END
        let case = |a, b, c, d, e| PlanExpr::Case {
            branches: vec![
                (not_gt(a).binary(BinaryOp::And, not_null(b)), coalesce(c)),
                (in_list(d), cast()),
            ],
            else_expr: Some(Box::new(PlanExpr::Case {
                branches: vec![(e, x())],
                else_expr: None,
            })),
        };
        let input = case(
            sum(2, 3),
            sum(0, 1),
            sum(4, 5),
            sum(1, 2),
            PlanExpr::literal(true).binary(BinaryOp::And, positive()),
        );
        let expected = case(lit(5), lit(1), lit(9), lit(3), positive());
        assert_eq!(fold_expr(input), expected);
    }

    #[test]
    fn filter_true_removed() {
        let scan = LogicalPlan::TempScan {
            name: "t".into(),
            schema: std::sync::Arc::new(spinner_common::Schema::empty()),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(scan.clone()),
            predicate: PlanExpr::literal(1i64).binary(BinaryOp::Eq, PlanExpr::literal(1i64)),
        };
        assert_eq!(fold_constants(plan).unwrap(), scan);
    }
}
