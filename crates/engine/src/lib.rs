//! # spinner-engine — the DBSpinner reproduction's public API
//!
//! An in-process analytical SQL engine with **native iterative CTEs**
//! (`WITH ITERATIVE ... ITERATE ... UNTIL ...`), reproducing *DBSpinner:
//! Making a Case for Iterative Processing in Databases* (ICDE 2021).
//!
//! ```
//! use spinner_engine::Database;
//!
//! let db = Database::default();
//! db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)").unwrap();
//! db.execute("INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0)").unwrap();
//! let batch = db.query(
//!     "WITH ITERATIVE t (k, v) AS (
//!          SELECT src, 1 FROM edges WHERE src = 1
//!      ITERATE
//!          SELECT k, v * 2 FROM t
//!      UNTIL 3 ITERATIONS)
//!      SELECT v FROM t").unwrap();
//! assert_eq!(batch.rows()[0][0], spinner_common::Value::Int(8));
//! ```
//!
//! The engine models a shared-nothing MPP system: tables are hash-
//! partitioned over `EngineConfig::partitions` virtual workers, joins and
//! aggregations insert exchange operators, and [`Database::take_stats`]
//! exposes how many rows crossed partition boundaries — the quantity the
//! paper's rename optimization (Fig. 8) saves.

#![warn(missing_docs)]

pub mod database;
pub mod restart;
pub mod result;
pub mod session;

pub use database::Database;
pub use restart::{AdoptedInput, AdoptedQuery, AdoptionReport, ResumedSummary};
pub use result::QueryResult;
pub use session::Session;

pub use spinner_common::{
    AdmissionController, AdmissionPermit, AdmissionSnapshot, Batch, CounterBlock, DataType,
    EngineConfig, Error, ErrorClass, FaultConfig, FaultKind, FaultSite, FaultTrigger, Field,
    IterationProfile, MemoryGate, ProfileNode, QueryClass, QueryGuard, QueryProfile,
    RecoveryProfile, Result, Row, Schema, StatsSnapshot, Value,
};
