//! Logical planning layer.
//!
//! This crate turns the parser's AST into an executable *step program*
//! ([`QueryPlan`]): a sequence of [`Step`]s (materialize / rename / merge /
//! loop) followed by a final [`LogicalPlan`] — exactly the shape DBSpinner's
//! functional rewrite produces (paper Table I and Algorithm 1). Iterative
//! and recursive CTEs become [`Step::Loop`] nodes whose bodies are regular
//! materializations; the `rename`-vs-merge decision of Algorithm 1 lives in
//! [`rewrite`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod expr;
pub mod logical;
pub mod rewrite;

pub use builder::{plan_query, plan_statement, PlanContext};
pub use expr::{AggExpr, AggFunc, ColumnRef, PlanExpr, ScalarFn};
pub use logical::{
    JoinType, LogicalPlan, LoopKind, LoopStep, PlannedStatement, QueryPlan, SetOpKind, SortKey,
    Step, TerminationPlan,
};
