//! The resident ↔ spilled state machine of one piece of intermediate
//! state, written once for the [`TempRegistry`](crate::TempRegistry)
//! (tables), the [`CheckpointStore`](crate::CheckpointStore) (snapshots)
//! and the executor's join-state cache (loop-invariant inputs).
//!
//! A [`Slot`] holds its value in memory, in a spill file, or both, and
//! keeps the memory accountant's view in step: `register` on creation,
//! `touch` on access, `note_spilled` / `note_rehydrated` as the resident
//! copy goes and comes back, `release` when the owner drops it. Values are
//! immutable (an owner replaces a slot, never edits it), so a file stays a
//! faithful copy for the slot's whole life: rehydrating keeps it, and
//! spilling a slot that already has one — a journaled checkpoint, or an
//! entry spilled before — drops the resident copy without writing the same
//! bytes again. The file goes when the slot does (its
//! [`SpillHandle`] deletes on drop).

use spinner_common::memory::{RegionId, RegionKind};
use spinner_common::Result;

use crate::checkpoint::LoopCheckpoint;
use crate::partition::Partitioned;
use crate::spill::{SpillEnv, SpillHandle, SpillManager};

/// State a [`Slot`] can move to disk and back.
pub trait Spillable: Clone {
    /// Estimated bytes the resident value holds (the accountant's charge).
    fn resident_bytes(&self) -> u64;
    /// Serialize to a fresh spill file.
    fn write(&self, manager: &SpillManager, label: &str) -> Result<SpillHandle>;
    /// Read back, verifying every checksum.
    fn read(manager: &SpillManager, file: &SpillHandle, label: &str) -> Result<Self>;
}

impl Spillable for Partitioned {
    fn resident_bytes(&self) -> u64 {
        self.estimated_bytes()
    }
    fn write(&self, manager: &SpillManager, label: &str) -> Result<SpillHandle> {
        manager.write_partitioned(label, self)
    }
    fn read(manager: &SpillManager, file: &SpillHandle, label: &str) -> Result<Self> {
        manager.read_partitioned(file, label)
    }
}

impl Spillable for LoopCheckpoint {
    fn resident_bytes(&self) -> u64 {
        self.estimated_bytes()
    }
    fn write(&self, manager: &SpillManager, label: &str) -> Result<SpillHandle> {
        manager.write_checkpoint(label, self)
    }
    fn read(manager: &SpillManager, file: &SpillHandle, label: &str) -> Result<Self> {
        manager.read_checkpoint(file, label)
    }
}

/// One value that is resident, on disk, or both — never neither.
///
/// Every method takes the owner's spill environment: a slot stores no
/// `Arc` of its own, and without an environment it is simply a resident
/// value nothing tracks or spills. For the same reason it has no `Drop`
/// release: every path on which an owner drops a slot calls
/// [`release`](Self::release).
#[derive(Debug)]
pub struct Slot<T> {
    resident: Option<T>,
    file: Option<SpillHandle>,
    region: Option<RegionId>,
}

impl<T: Spillable> Slot<T> {
    /// A resident `value`, charged to the accountant as region `name`.
    /// `file` is a copy the owner already wrote (a journaled checkpoint).
    pub fn new(
        env: Option<&SpillEnv>,
        name: &str,
        kind: RegionKind,
        value: T,
        file: Option<SpillHandle>,
    ) -> Self {
        let region = env.map(|e| e.accountant.register(name, kind, value.resident_bytes()));
        Slot {
            resident: Some(value),
            file,
            region,
        }
    }

    /// The value if it is in memory; never does I/O or touches the region.
    pub fn resident(&self) -> Option<&T> {
        self.resident.as_ref()
    }

    /// The accountant region the slot is charged to (`None` without a
    /// spill environment): the id a spill plan names it by.
    pub fn region(&self) -> Option<RegionId> {
        self.region
    }

    /// Whether reading the value needs the disk.
    pub fn is_spilled(&self) -> bool {
        self.resident.is_none()
    }

    /// The slot's on-disk copy, if it has one.
    #[cfg(test)]
    pub(crate) fn file(&self) -> Option<&SpillHandle> {
        self.file.as_ref()
    }

    /// A clone of the resident value, marking the region recently used;
    /// `None` when the value must be [`rehydrate`](Self::rehydrate)d first.
    pub fn get(&self, env: Option<&SpillEnv>) -> Option<T> {
        let value = self.resident.as_ref()?;
        if let (Some(env), Some(region)) = (env, self.region) {
            env.accountant.touch(region);
        }
        Some(value.clone())
    }

    /// Give up the resident copy, writing the file first unless the slot
    /// already has one. `Ok(false)` when nothing was resident. A failed
    /// write leaves the slot resident and untouched.
    pub fn spill(&mut self, env: &SpillEnv, label: &str) -> Result<bool> {
        let Some(value) = &self.resident else {
            return Ok(false);
        };
        if self.file.is_none() {
            self.file = Some(value.write(&env.manager, label)?);
        }
        self.resident = None;
        if let Some(region) = self.region {
            env.accountant.note_spilled(region);
        }
        Ok(true)
    }

    /// The value, read back from the file (every checksum verified) and
    /// made resident again if it was not. The file is kept.
    pub fn rehydrate(&mut self, env: &SpillEnv, label: &str) -> Result<T> {
        if let Some(value) = &self.resident {
            return Ok(value.clone());
        }
        let file = self.file.as_ref().expect("a slot is resident or on disk");
        let value = T::read(&env.manager, file, label)?;
        if let Some(region) = self.region {
            env.accountant.note_rehydrated(region);
        }
        self.resident = Some(value.clone());
        Ok(value)
    }

    /// Follow the `rename` operator: the accountant's region takes the
    /// owner's new key.
    pub fn rename(&self, env: Option<&SpillEnv>, name: &str) {
        if let (Some(env), Some(region)) = (env, self.region) {
            env.accountant.rename(region, name);
        }
    }

    /// The owner dropped the slot: stop tracking it. Dropping `self`
    /// deletes the file.
    pub fn release(self, env: Option<&SpillEnv>) {
        if let (Some(env), Some(region)) = (env, self.region) {
            env.accountant.release(region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema, Value};
    use std::sync::Arc;

    fn table(n: i64) -> Partitioned {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let rows = (0..n).map(|i| row_of([Value::Int(i)])).collect();
        Partitioned::from_rows(schema, rows, Some(0), 2)
    }

    fn slot(env: &SpillEnv, n: i64) -> Slot<Partitioned> {
        Slot::new(Some(env), "t", RegionKind::TempResult, table(n), None)
    }

    #[test]
    fn spill_and_rehydrate_keep_the_accountant_in_step() {
        let env = SpillEnv::new(1, None, None);
        let mut s = slot(&env, 12);
        let charged = table(12).estimated_bytes();
        assert_eq!(env.accountant.resident_bytes(), charged);
        assert!(s.spill(&env, "t").unwrap());
        assert!(s.is_spilled() && s.get(Some(&env)).is_none());
        assert_eq!(env.accountant.resident_bytes(), 0);
        assert!(!s.spill(&env, "t").unwrap(), "already spilled");
        assert_eq!(s.rehydrate(&env, "t").unwrap().total_rows(), 12);
        assert!(!s.is_spilled());
        assert_eq!(env.accountant.resident_bytes(), charged);
        let path = s.file().unwrap().path().to_path_buf();
        s.release(Some(&env));
        assert_eq!(env.accountant.region_count(), 0);
        assert!(!path.exists(), "the file goes with the slot");
    }

    /// A slot that kept its file across a rehydrate spills again without
    /// writing: one write for spill → rehydrate → re-spill.
    #[test]
    fn respilling_a_slot_that_kept_its_file_writes_nothing() {
        let env = SpillEnv::new(1, None, None);
        let mut s = slot(&env, 9);
        assert!(s.spill(&env, "t").unwrap());
        let written = env.metrics().take();
        assert_eq!(written.spill_events, 1);
        assert_eq!(written.spill_bytes_written, s.file().unwrap().file_bytes());
        s.rehydrate(&env, "t").unwrap();
        assert!(s.spill(&env, "t").unwrap());
        let again = env.metrics().take();
        assert_eq!(again.spill_events, 0, "the file is still a faithful copy");
        assert_eq!(again.spill_bytes_written, 0);
        assert_eq!(env.accountant.resident_bytes(), 0);
        assert_eq!(s.rehydrate(&env, "t").unwrap().total_rows(), 9);
        s.release(Some(&env));
    }

    #[test]
    fn a_failed_write_leaves_the_slot_resident() {
        use spinner_common::memory::SpillFaultHook;
        use spinner_common::{Error, FaultSite};
        #[derive(Debug)]
        struct NoWrites;
        impl SpillFaultHook for NoWrites {
            fn hit(&self, site: FaultSite) -> Result<()> {
                match site {
                    FaultSite::SpillWrite => Err(Error::FaultInjected {
                        site: "SpillWrite".into(),
                    }),
                    _ => Ok(()),
                }
            }
        }
        let env = SpillEnv::new(1, None, Some(Arc::new(NoWrites)));
        let mut s = slot(&env, 3);
        assert!(s.spill(&env, "t").is_err());
        assert!(!s.is_spilled() && s.file().is_none());
        assert!(env.accountant.resident_bytes() > 0);
        s.release(Some(&env));
    }

    #[test]
    fn without_an_environment_a_slot_is_a_plain_value() {
        let s = Slot::new(None, "t", RegionKind::TempResult, table(2), None);
        assert_eq!(s.get(None).unwrap().total_rows(), 2);
        s.rename(None, "u");
        s.release(None);
    }
}
