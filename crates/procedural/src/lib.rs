//! Baseline execution strategies the paper compares against (§II, §VII-E):
//!
//! * **Stored procedures** — the computation is a statement list executed
//!   one statement at a time *inside* the engine. Each statement is
//!   planned and optimized in isolation, so no loop-level optimization
//!   (rename, common-result regrouping, cross-block push-down) can apply.
//! * **SQLoop-style middleware** — the same statement-at-a-time execution
//!   driven from *outside*, maintaining its intermediate state in real
//!   temporary tables with CREATE/DROP per iteration (metadata churn) and
//!   INSERT/UPDATE/DELETE DML (per-row update cost).
//!
//! [`queries`] holds the canonical SQL for the paper's four workloads in
//! all three formulations (iterative CTE / stored procedure / middleware),
//! and [`runner`] executes the procedural scripts while counting
//! statements and DDL operations.

#![forbid(unsafe_code)]

pub mod queries;
pub mod runner;
pub mod workloads;

pub use queries::{connected_components, ff, pagerank, sssp, sssp_convergent};
pub use runner::{run_script, run_script_with_guard, ProcedureScript, RunReport};
pub use workloads::{
    kmeans_cte, label_propagation_cte, logistic_regression_cte, triangle_rank_cte,
};
