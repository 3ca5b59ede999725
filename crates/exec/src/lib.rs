//! Execution engine.
//!
//! The executor interprets the step program produced by `spinner-plan`
//! (after `spinner-optimizer` has rewritten it): each logical plan
//! fragment is lowered to a [`PhysicalPlan`] with
//! explicit [`Exchange`](physical::PhysicalPlan::Exchange) operators
//! between partition-incompatible stages, then evaluated partition by
//! partition. Two operators are unique to DBSpinner (paper §VI):
//!
//! * **rename** — [`TempRegistry::rename`](spinner_storage::TempRegistry):
//!   an O(1) pointer move in the intermediate-result lookup table, and
//! * **loop** — implemented by [`StatementContext`]: a conditional jump
//!   that re-runs the loop body until the termination condition (metadata
//!   / data / delta) is satisfied.
//!
//! Every statement runs in one [`StatementContext`], which owns its
//! intermediate results and its counters
//! ([`CounterSet`](spinner_common::CounterSet)): rows crossing exchanges,
//! rows materialized, rename and merge operations, and loop iterations —
//! the quantities behind the paper's Figure 8 (data movement)
//! measurements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod cache;
pub mod dml;
pub mod executor;
pub mod fault;
pub mod keys;
pub mod operators;
pub mod physical;
mod retry;

pub use cache::JoinStateCache;
pub use executor::StatementContext;
pub use fault::FaultInjector;
pub use physical::{create_physical_plan, create_stored_plan, ExchangeMode, PhysicalPlan};
