//! In-memory storage layer: catalog, hash-partitioned tables, and the
//! temp-result registry that backs DBSpinner's `rename` operator.
//!
//! The paper's testbed (Futurewei MPPDB) is a shared-nothing MPP engine; we
//! model each node as a *partition*. A [`Table`] stores its rows as one
//! immutable [`Arc`](std::sync::Arc)'d column block per partition, so scans
//! are O(1) snapshots and DML is copy-on-write. The [`TempRegistry`] is the
//! executor's "lookup table that manages intermediate results in memory"
//! (paper §VI-A): `rename` re-points a name at an existing buffer instead
//! of copying rows.
#![warn(missing_docs)]

pub mod catalog;
pub mod checkpoint;
pub mod disk;
pub mod journal;
pub mod partition;
pub mod registry;
mod slot;
pub mod spill;
pub mod table;

pub use catalog::Catalog;
pub use checkpoint::{CheckpointStore, LoopCheckpoint, ResumeSeed};
pub use disk::gc_orphans;
pub use journal::{EpochRecord, InputRecord, JournalEntry, QueryJournal};
pub use partition::{partition_of, placement, Partitioned};
pub use registry::TempRegistry;
pub use spill::{
    read_checkpoint_file, read_partitioned_file, xxh64, SpillEnv, SpillHandle, SpillManager,
};
pub use table::Table;
