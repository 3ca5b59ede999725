//! The temp-result registry: DBSpinner's in-memory lookup table for
//! intermediate results, and the home of the `rename` operator.
//!
//! Paper §VI-A: "The execution engine has a lookup table that manages
//! intermediate results in memory ... The rename operator looks up the old
//! name and updates it with the new value. If the new name already exists
//! ... MPPDB simply removes that entry and releases the memory associated
//! with it." `rename` here is a HashMap re-key: O(1), no row copying —
//! which is precisely the data-movement saving Figure 8 measures.
//!
//! Under memory pressure an entry may live on disk instead of in memory:
//! every entry is a `Slot` (resident, spilled to a [`SpillHandle`]'s
//! file, or both — the state machine lives in `slot.rs`).
//! [`TempRegistry::get`] rehydrates spilled entries transparently, and
//! `rename` re-keys a slot in either state — the rename fast path stays an
//! O(1) pointer move even when one side of the rename is on disk.
//!
//! [`SpillHandle`]: crate::SpillHandle

use std::collections::HashMap;
use std::sync::Arc;

use spinner_common::memory::RegionKind;
use spinner_common::{Error, Result};

use crate::partition::Partitioned;
use crate::slot::Slot;
use crate::spill::SpillEnv;
use crate::RwLock;

/// Named intermediate results for one query execution.
#[derive(Debug)]
pub struct TempRegistry {
    env: Option<Arc<SpillEnv>>,
    entries: RwLock<HashMap<String, Slot<Partitioned>>>,
}

impl TempRegistry {
    /// Empty registry. With a spill environment every `put` registers a
    /// region with its accountant and entries become spillable; without
    /// one the registry is a plain in-memory lookup table.
    pub fn new(env: Option<Arc<SpillEnv>>) -> Self {
        TempRegistry {
            env,
            entries: RwLock::new(HashMap::new()),
        }
    }

    fn env(&self) -> Option<&SpillEnv> {
        self.env.as_deref()
    }

    /// Store (or replace) a named intermediate result.
    pub fn put(&self, name: &str, data: Partitioned) {
        let key = name.to_ascii_lowercase();
        let kind = RegionKind::of_temp_name(&key);
        let slot = Slot::new(self.env(), &key, kind, data, None);
        if let Some(old) = self.entries.write().insert(key, slot) {
            old.release(self.env());
        }
    }

    /// Snapshot a named result. O(P) Arc bumps when resident; a spilled
    /// entry is read back from disk, made resident again, and returned.
    pub fn get(&self, name: &str) -> Result<Partitioned> {
        let key = name.to_ascii_lowercase();
        let not_found = || Error::execution(format!("intermediate result '{name}' not found"));
        if let Some(data) = self
            .entries
            .read()
            .get(&key)
            .ok_or_else(not_found)?
            .get(self.env())
        {
            return Ok(data);
        }
        // Spilled: read it back under the write lock (another thread may
        // have done so while we waited — `rehydrate` then just clones).
        let env = self
            .env()
            .expect("only a registry with a spill environment spills");
        self.entries
            .write()
            .get_mut(&key)
            .ok_or_else(not_found)?
            .rehydrate(env, &key)
    }

    /// Whether `name` is resident with exactly `data`'s partition buffers
    /// — how the join-state cache proves a cached build is still derived
    /// from the same physical data. A missing or spilled entry never is
    /// (identity is unknowable without I/O; this never rehydrates or
    /// touches the region). Spilling and rehydrating, recovery re-`put`s
    /// and plain replacement all produce new buffers. An in-place merge or
    /// append need not: it takes a table's partitions out of the registry
    /// and puts them back with cells changed, so the answer proves the
    /// same rows only to a caller that holds `data` (as the cache does,
    /// which makes the writer copy) or for a temp no loop writes
    /// ([`Partitioned::same_buffers`]).
    pub fn holds(&self, name: &str, data: &Partitioned) -> bool {
        let entries = self.entries.read();
        let slot = entries.get(&name.to_ascii_lowercase());
        slot.and_then(Slot::resident)
            .is_some_and(|resident| resident.same_buffers(&data.parts))
    }

    /// Move a resident entry to disk and release its memory. A missing or
    /// already-spilled entry is a no-op (the spill plan may race with
    /// renames or removals), returning `Ok(false)`.
    pub fn spill_entry(&self, name: &str) -> Result<bool> {
        let key = name.to_ascii_lowercase();
        let Some(env) = self.env() else {
            return Ok(false);
        };
        match self.entries.write().get_mut(&key) {
            Some(slot) => slot.spill(env, &key),
            None => Ok(false),
        }
    }

    /// Whether a result is registered (resident or spilled).
    pub fn contains(&self, name: &str) -> bool {
        self.entries.read().contains_key(&name.to_ascii_lowercase())
    }

    /// The `rename` operator: re-point `new` at the buffer currently named
    /// `old`, dropping whatever `new` pointed at before. No rows move —
    /// and a spilled source moves as a file handle, no disk I/O either.
    ///
    /// Atomic from the reader's perspective: the remove + insert happen as
    /// a single swap under one write-lock acquisition, so a concurrent
    /// [`get`](Self::get) observes either the old binding of `new` or the
    /// re-pointed one — never a window where neither name resolves.
    /// Recovery replays (which re-run rename-path loop bodies while
    /// observers may be profiling) rely on this.
    pub fn rename(&self, old: &str, new: &str) -> Result<()> {
        let old_key = old.to_ascii_lowercase();
        let new_key = new.to_ascii_lowercase();
        let mut entries = self.entries.write();
        if !entries.contains_key(&old_key) {
            return Err(Error::execution(format!(
                "cannot rename '{old}': not found"
            )));
        }
        if old_key == new_key {
            // Renaming a result to itself is a no-op, not a remove+insert
            // (which would momentarily unbind the name if ever split).
            return Ok(());
        }
        let slot = entries.remove(&old_key).expect("checked above");
        slot.rename(self.env(), &new_key);
        // Insert replaces (and thereby frees) any previous entry under `new`.
        if let Some(replaced) = entries.insert(new_key, slot) {
            replaced.release(self.env());
        }
        Ok(())
    }

    /// Drop one entry (working-table cleanup between iterations).
    pub fn remove(&self, name: &str) {
        if let Some(slot) = self.entries.write().remove(&name.to_ascii_lowercase()) {
            slot.release(self.env());
        }
    }

    /// Drop everything (end of query).
    pub fn clear(&self) {
        for (_, slot) in self.entries.write().drain() {
            slot.release(self.env());
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Number of entries currently spilled to disk (observability/tests).
    pub fn spilled_count(&self) -> usize {
        self.entries
            .read()
            .values()
            .filter(|slot| slot.is_spilled())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema, Value};
    use std::sync::Arc;

    fn part_with(n: i64) -> Partitioned {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        Partitioned::from_rows(
            schema,
            (0..n).map(|i| row_of([Value::Int(i)])).collect(),
            Some(0),
            2,
        )
    }

    fn spill_registry() -> TempRegistry {
        TempRegistry::new(Some(Arc::new(SpillEnv::new(1, None, None))))
    }

    #[test]
    fn put_get_roundtrip() {
        let reg = TempRegistry::new(None);
        reg.put("Work", part_with(5));
        assert_eq!(reg.get("work").unwrap().total_rows(), 5);
    }

    #[test]
    fn rename_moves_without_copying() {
        let reg = TempRegistry::new(None);
        let data = part_with(3);
        let buf_ptr = Arc::as_ptr(&data.parts[0]);
        reg.put("working", data);
        reg.put("cte", part_with(10));
        reg.rename("working", "cte").unwrap();
        assert!(!reg.contains("working"));
        let cte = reg.get("cte").unwrap();
        assert_eq!(cte.total_rows(), 3);
        // The buffer is the same allocation — rename moved a pointer.
        assert_eq!(Arc::as_ptr(&cte.parts[0]), buf_ptr);
    }

    #[test]
    fn rename_missing_source_errors() {
        let reg = TempRegistry::new(None);
        assert!(reg.rename("ghost", "cte").is_err());
    }

    #[test]
    fn rename_drops_previous_target() {
        let reg = TempRegistry::new(None);
        reg.put("a", part_with(1));
        reg.put("b", part_with(2));
        reg.rename("a", "b").unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("b").unwrap().total_rows(), 1);
    }

    #[test]
    fn clear_empties() {
        let reg = TempRegistry::new(None);
        reg.put("a", part_with(1));
        reg.clear();
        assert!(reg.is_empty());
    }

    #[test]
    fn rename_to_self_is_a_noop() {
        let reg = TempRegistry::new(None);
        reg.put("cte", part_with(4));
        reg.rename("cte", "CTE").unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("cte").unwrap().total_rows(), 4);
        assert!(reg.rename("ghost", "ghost").is_err());
    }

    #[test]
    fn spilled_entry_rehydrates_transparently() {
        let reg = spill_registry();
        reg.put("cte", part_with(12));
        assert!(reg.spill_entry("cte").unwrap());
        assert_eq!(reg.spilled_count(), 1);
        // get() rehydrates: same rows, resident again.
        let back = reg.get("cte").unwrap();
        assert_eq!(back.total_rows(), 12);
        assert_eq!(reg.spilled_count(), 0);
    }

    #[test]
    fn spilling_twice_and_missing_names_are_benign() {
        let reg = spill_registry();
        reg.put("cte", part_with(3));
        assert!(reg.spill_entry("cte").unwrap());
        assert!(!reg.spill_entry("cte").unwrap(), "already spilled");
        assert!(!reg.spill_entry("ghost").unwrap(), "missing name");
    }

    #[test]
    fn rename_moves_a_spilled_slot_without_io() {
        let reg = spill_registry();
        reg.put("working", part_with(7));
        reg.put("cte", part_with(2));
        assert!(reg.spill_entry("working").unwrap());
        reg.rename("working", "cte").unwrap();
        assert!(!reg.contains("working"));
        assert_eq!(reg.spilled_count(), 1);
        // Rehydrating the renamed entry yields the working table's rows.
        assert_eq!(reg.get("cte").unwrap().total_rows(), 7);
    }

    #[test]
    fn rename_over_a_spilled_target_deletes_its_file() {
        let reg = spill_registry();
        reg.put("a", part_with(1));
        reg.put("b", part_with(2));
        assert!(reg.spill_entry("b").unwrap());
        reg.rename("a", "b").unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.spilled_count(), 0);
        assert_eq!(reg.get("b").unwrap().total_rows(), 1);
    }

    #[test]
    fn clear_releases_spilled_regions() {
        let reg = spill_registry();
        reg.put("a", part_with(4));
        reg.put("b", part_with(4));
        assert!(reg.spill_entry("a").unwrap());
        reg.clear();
        assert!(reg.is_empty());
        let env = reg.env().unwrap();
        assert_eq!(env.accountant.resident_bytes(), 0);
    }

    #[test]
    fn a_writer_that_panics_leaves_the_registry_usable() {
        let reg = Arc::new(TempRegistry::new(None));
        reg.put("cte", part_with(2));
        let poisoner = Arc::clone(&reg);
        let panicked = std::thread::spawn(move || {
            let _entries = poisoner.entries.write();
            panic!("writer panics holding the registry lock");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(reg.get("cte").unwrap().total_rows(), 2);
        reg.put("working", part_with(3));
        reg.rename("working", "cte").unwrap();
        assert_eq!(reg.get("cte").unwrap().total_rows(), 3);
    }

    /// Regression test for reader-visible rename atomicity: concurrent
    /// `get("cte")` calls during a storm of working→cte renames must never
    /// observe a state where the name is unbound.
    #[test]
    fn rename_is_atomic_for_concurrent_readers() {
        let reg = Arc::new(TempRegistry::new(None));
        reg.put("cte", part_with(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                // Do-while: every reader performs at least one read even if
                // the writer storm finishes before this thread is scheduled
                // (a single-core box can run all 2 000 renames first).
                let mut reads = 0u64;
                loop {
                    assert!(
                        reg.get("cte").is_ok(),
                        "reader observed 'cte' unbound mid-rename"
                    );
                    reads += 1;
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                }
                reads
            }));
        }
        for i in 0..2_000 {
            reg.put("working", part_with(i % 7 + 1));
            reg.rename("working", "cte").unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(reg.len(), 1);
    }
}
