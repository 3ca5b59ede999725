//! Outer→inner join conversion.
//!
//! A LEFT (or RIGHT) outer join degenerates to an inner join when a
//! *null-rejecting* predicate on the padded side sits above it — NULL-padded
//! rows cannot satisfy a strict comparison, so the padding is dead weight.
//! The paper relies on this (§V): the PR-VS query's inner join with
//! `vertexStatus ON vs.node = e.dst` makes the earlier `LEFT JOIN edges`
//! effectively inner, which is what lets the common-result rewrite regroup
//! the loop-invariant `edges ⨝ vertexStatus` subtree (Fig. 5).
//!
//! Two trigger shapes are handled:
//! * `Filter(p) over LeftJoin(A, B)` with `p` null-rejecting on B,
//! * an upper join whose equi-keys or residual are null-rejecting on the
//!   padded side of a lower outer join.

use spinner_common::Result;
use spinner_plan::expr::{split_conjuncts, BinaryOp};
use spinner_plan::{JoinType, LogicalPlan, PlanExpr};

/// Apply outer→inner conversion everywhere in the tree (one pass).
pub fn convert_outer_joins(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan.map_children(convert_outer_joins)? {
        LogicalPlan::Filter {
            mut input,
            predicate,
        } => {
            apply_null_rejection(&mut input, &predicate, 0);
            LogicalPlan::Filter { input, predicate }
        }
        // The upper join's own condition can null-reject a lower outer
        // join's padded side. Keys are evaluated per side; the residual
        // spans the combined schema.
        LogicalPlan::Join {
            mut left,
            mut right,
            join_type: JoinType::Inner,
            on,
            filter,
            schema,
        } => {
            let lwidth = left.schema().len();
            // An equi-key is inherently strict: a NULL key never matches.
            // Wrap each key in a synthetic comparison so the strictness
            // test sees a comparison shape.
            let as_strict = |k: &PlanExpr| {
                k.clone().binary(
                    BinaryOp::Eq,
                    PlanExpr::Literal(spinner_common::Value::Int(0)),
                )
            };
            for (lk, _) in &on {
                apply_null_rejection(&mut left, &as_strict(lk), 0);
            }
            for (_, rk) in &on {
                apply_null_rejection(&mut right, &as_strict(rk), 0);
            }
            if let Some(f) = &filter {
                apply_null_rejection(&mut left, f, 0);
                apply_null_rejection(&mut right, f, lwidth);
            }
            LogicalPlan::Join {
                left,
                right,
                join_type: JoinType::Inner,
                on,
                filter,
                schema,
            }
        }
        other => other,
    })
}

/// If `plan` is an outer join whose padded side is null-rejected by
/// `predicate` (whose column indices are relative to `plan`'s schema
/// shifted by `offset`), convert it to inner.
fn apply_null_rejection(plan: &mut LogicalPlan, predicate: &PlanExpr, offset: usize) {
    let LogicalPlan::Join {
        left,
        join_type,
        schema,
        ..
    } = plan
    else {
        return;
    };
    let lwidth = left.schema().len();
    let width = schema.len();
    let rejects = |lo: usize, hi: usize| -> bool {
        let mut conjuncts = Vec::new();
        split_conjuncts(predicate, &mut conjuncts);
        conjuncts.iter().any(|c| {
            is_strict_comparison(c)
                && c.referenced_columns()
                    .iter()
                    .any(|&i| i >= offset + lo && i < offset + hi)
        })
    };
    *join_type = match *join_type {
        JoinType::Left if rejects(lwidth, width) => JoinType::Inner,
        JoinType::Right if rejects(0, lwidth) => JoinType::Inner,
        JoinType::Full => match (rejects(0, lwidth), rejects(lwidth, width)) {
            (true, true) => JoinType::Inner,
            (true, false) => JoinType::Left,
            (false, true) => JoinType::Right,
            (false, false) => JoinType::Full,
        },
        other => other,
    };
}

/// A conjunct is *strict* (null-rejecting on any column it references) when
/// it is a plain comparison over columns, literals and null-propagating
/// arithmetic — no COALESCE / CASE / IS NULL that could absorb a NULL into
/// TRUE.
pub fn is_strict_comparison(expr: &PlanExpr) -> bool {
    match expr {
        PlanExpr::Binary { left, op, right } => {
            matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::NotEq
                    | BinaryOp::Lt
                    | BinaryOp::LtEq
                    | BinaryOp::Gt
                    | BinaryOp::GtEq
            ) && null_propagating(left)
                && null_propagating(right)
        }
        PlanExpr::IsNull {
            negated: true,
            expr,
        } => null_propagating(expr),
        _ => false,
    }
}

/// Does `expr` yield NULL whenever any referenced column is NULL?
fn null_propagating(expr: &PlanExpr) -> bool {
    match expr {
        PlanExpr::Column(_) | PlanExpr::Literal(_) => true,
        PlanExpr::Binary { left, op, right } => {
            matches!(
                op,
                BinaryOp::Plus
                    | BinaryOp::Minus
                    | BinaryOp::Multiply
                    | BinaryOp::Divide
                    | BinaryOp::Modulo
            ) && null_propagating(left)
                && null_propagating(right)
        }
        PlanExpr::Unary { expr, .. } => null_propagating(expr),
        PlanExpr::Cast { expr, .. } => null_propagating(expr),
        // COALESCE, CASE, IS NULL etc. can turn NULL into non-NULL.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use spinner_plan::ScalarFn;
    use std::sync::Arc;

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::TempScan {
            name: name.into(),
            schema: Arc::new(Schema::new(
                cols.iter().map(|c| Field::new(*c, DataType::Int)).collect(),
            )),
        }
    }

    fn left_join(l: LogicalPlan, r: LogicalPlan) -> LogicalPlan {
        let schema = Arc::new(l.schema().join(&r.schema()));
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            join_type: JoinType::Left,
            on: vec![(PlanExpr::column(0, "a"), PlanExpr::column(0, "b"))],
            filter: None,
            schema,
        }
    }

    #[test]
    fn strict_filter_on_padded_side_converts() {
        let join = left_join(scan("l", &["a"]), scan("r", &["b"]));
        // b != 0 references the right (padded) side strictly
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: PlanExpr::column(1, "b").binary(BinaryOp::NotEq, PlanExpr::literal(0i64)),
        };
        let out = convert_outer_joins(plan).unwrap();
        let LogicalPlan::Filter { input, .. } = out else {
            panic!()
        };
        let LogicalPlan::Join { join_type, .. } = *input else {
            panic!()
        };
        assert_eq!(join_type, JoinType::Inner);
    }

    #[test]
    fn coalesce_absorbs_null_no_conversion() {
        let join = left_join(scan("l", &["a"]), scan("r", &["b"]));
        // COALESCE(b, 0) = 0 is satisfied by NULL-padded rows — not strict.
        let pred = PlanExpr::Scalar {
            func: ScalarFn::Coalesce,
            args: vec![PlanExpr::column(1, "b"), PlanExpr::literal(0i64)],
        }
        .binary(BinaryOp::Eq, PlanExpr::literal(0i64));
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: pred,
        };
        let out = convert_outer_joins(plan).unwrap();
        let LogicalPlan::Filter { input, .. } = out else {
            panic!()
        };
        let LogicalPlan::Join { join_type, .. } = *input else {
            panic!()
        };
        assert_eq!(join_type, JoinType::Left);
    }

    #[test]
    fn is_null_predicate_not_strict() {
        let join = left_join(scan("l", &["a"]), scan("r", &["b"]));
        let pred = PlanExpr::IsNull {
            expr: Box::new(PlanExpr::column(1, "b")),
            negated: false,
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: pred,
        };
        let out = convert_outer_joins(plan).unwrap();
        let LogicalPlan::Filter { input, .. } = out else {
            panic!()
        };
        let LogicalPlan::Join { join_type, .. } = *input else {
            panic!()
        };
        assert_eq!(join_type, JoinType::Left);
    }

    #[test]
    fn upper_inner_join_key_converts_lower_outer() {
        // (l LEFT JOIN r) INNER JOIN s ON r.b = s.c  — the PR-VS shape.
        let lower = left_join(scan("l", &["a"]), scan("r", &["b"]));
        let s = scan("s", &["c"]);
        let schema = Arc::new(lower.schema().join(&s.schema()));
        let upper = LogicalPlan::Join {
            left: Box::new(lower),
            right: Box::new(s),
            join_type: JoinType::Inner,
            on: vec![(PlanExpr::column(1, "r.b"), PlanExpr::column(0, "s.c"))],
            filter: None,
            schema,
        };
        let out = convert_outer_joins(upper).unwrap();
        let LogicalPlan::Join { left, .. } = out else {
            panic!()
        };
        let LogicalPlan::Join { join_type, .. } = *left else {
            panic!()
        };
        assert_eq!(join_type, JoinType::Inner);
    }

    #[test]
    fn filter_on_preserved_side_keeps_outer() {
        let join = left_join(scan("l", &["a"]), scan("r", &["b"]));
        let pred = PlanExpr::column(0, "a").binary(BinaryOp::Gt, PlanExpr::literal(0i64));
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: pred,
        };
        let out = convert_outer_joins(plan).unwrap();
        let LogicalPlan::Filter { input, .. } = out else {
            panic!()
        };
        let LogicalPlan::Join { join_type, .. } = *input else {
            panic!()
        };
        assert_eq!(join_type, JoinType::Left);
    }
}
