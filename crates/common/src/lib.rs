//! Shared foundation types for the DBSpinner reproduction.
//!
//! This crate holds the pieces every other crate in the workspace needs:
//! scalar [`Value`]s and their [`DataType`]s, relation [`Schema`]s, the
//! in-memory [`Row`]/[`Batch`] representation, the workspace-wide
//! [`Error`] type, and the [`EngineConfig`] feature toggles that drive the
//! paper's ablation experiments (Figures 8-11 of DBSpinner, ICDE 2021).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod approx;
pub mod column;
pub mod config;
pub mod counters;
pub mod error;
pub mod guard;
pub mod memory;
pub mod profile;
pub mod row;
pub mod schema;
pub mod value;

pub use admission::{
    AdmissionController, AdmissionPermit, AdmissionSnapshot, MemoryGate, QueryClass,
};
pub use approx::{floats_approx_eq, rows_approx_eq, values_approx_eq, DEFAULT_TOLERANCE};
pub use column::{Block, Column, Nulls, NO_ROW};
pub use config::{EngineConfig, FaultConfig, FaultKind, FaultSite, FaultTrigger, SessionSettings};
pub use counters::{CounterBlock, CounterSet, StatsSnapshot};
pub use error::{Error, ErrorClass, Result};
pub use guard::QueryGuard;
pub use memory::{
    MemoryAccountant, MemoryMetrics, RegionId, RegionKind, SpillFaultHook, SpillRequest,
    TransientRegion,
};
pub use profile::{IterationProfile, ProfileNode, QueryProfile, RecoveryProfile, SpanKind, Tracer};
pub use row::{batch_of, row_of, Batch, Row};
pub use schema::{Field, Schema, SchemaRef};
pub use value::{Cell, DataType, Value};
