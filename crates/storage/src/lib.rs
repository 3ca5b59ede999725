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
#![forbid(unsafe_code)]

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
pub use partition::{estimated_bytes, partition_of, placement, Partitioned, PlacedOn};
pub use registry::TempRegistry;
pub use slot::{Slot, Spillable};
pub use spill::{
    read_checkpoint_file, read_partitioned_file, xxh64, SpillEnv, SpillHandle, SpillManager,
};
pub use table::Table;

/// `std::sync::RwLock` whose accessors recover from poison: the lock of
/// the catalog, the temp-result registry and the checkpoint store. The
/// executor isolates a worker that panics (`WorkerPanicked` fails one
/// statement), so a panic while one of these locks is held must not wedge
/// them for every later statement.
#[derive(Debug, Default)]
struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::RwLock;

    #[test]
    fn rwlock_read_write() {
        let lock = RwLock::new(1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
    }

    #[test]
    fn lock_survives_panicking_writer() {
        let lock = std::sync::Arc::new(RwLock::new(0));
        let writer = std::sync::Arc::clone(&lock);
        let panicked = std::thread::spawn(move || {
            *writer.write() = 1;
            panic!("writer panics holding the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(*lock.read(), 1);
        *lock.write() = 2;
        assert_eq!(*lock.read(), 2);
    }
}
