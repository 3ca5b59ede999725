//! Iteration-boundary checkpoints for mid-loop recovery.
//!
//! The insight (shared with Flink's iterative dataflows and REX): at the
//! top of a loop iteration, the CTE table plus the loop counters are a
//! *complete* recovery point — nothing else in the executor carries loop
//! state. A [`CheckpointStore`] keeps the newest such snapshot per running
//! loop; after a transient failure the executor restores the snapshot into
//! the temp registry and replays from the checkpointed iteration instead
//! of restarting the whole query.
//!
//! Snapshots are cheap by construction: [`Partitioned`] stores each
//! partition as an immutable `Arc<Block>`, so cloning a table is O(P)
//! pointer bumps (copy-on-write) — a checkpoint of a rename-path working
//! table costs pointers, not rows. The same sharing is why the store can
//! afford to retain **two epochs** per loop: each [`CheckpointStore::save`]
//! numbers a new epoch (1, 2, … per loop) and demotes the old current to
//! `previous` instead of discarding it. If the newest epoch turns out to be
//! unreadable on rollback — a spilled snapshot whose file the disk mangled
//! surfaces as the typed [`Error::StorageCorrupt`] — the store discards the
//! bad epoch (deleting its file) and falls back to the previous epoch, so
//! recovery replays a little further back rather than failing the query.
//! Only when *no* epoch survives does the typed error propagate; recovery
//! never silently restarts, and never returns unverified rows.
//!
//! An epoch is one `Slot` (`slot.rs`): an optional resident snapshot and
//! an optional file. Under memory pressure a snapshot is a prime spill
//! victim: it is touched only on save and on rollback, so the accountant
//! ranks checkpoints just after the join-state cache's loop-invariant join
//! inputs in coldest-first order. A spilled snapshot is rehydrated by [`CheckpointStore::latest`]
//! — which is why that method is fallible: the read back from disk can hit
//! a fault, and recovery treats that as a transient error, never as "no
//! checkpoint, silently restart".
//!
//! With a journal attached (a resumable statement) the epoch's file is
//! written at save time, *before* the journal names it, and that one file
//! serves both purposes: it is what a restarted engine adopts, and it is
//! the spilled form of the epoch — spilling a journaled epoch drops the
//! resident snapshot and writes nothing. Retention is the store's two
//! slots; the journal records the same two epochs, and a file is deleted
//! exactly when its epoch leaves the store.

use std::collections::HashMap;
use std::sync::Arc;

use spinner_common::memory::RegionKind;
use spinner_common::{Error, FaultSite, Result};

use crate::journal::{EpochRecord, QueryJournal};
use crate::partition::Partitioned;
use crate::slot::Slot;
use crate::spill::SpillEnv;
use crate::RwLock;

/// A consistent snapshot of one loop's recoverable state, taken at an
/// iteration boundary.
#[derive(Debug, Clone)]
pub struct LoopCheckpoint {
    /// The iteration the snapshot was taken *after* (0 = loop entry, before
    /// the first iteration ran). A rollback replays from `iteration + 1`.
    pub iteration: u64,
    /// Cumulative updated-rows counter at the boundary (feeds the
    /// `UNTIL`-style termination checks and the stats counters).
    pub cumulative_updates: u64,
    /// The temp-registry entries captured: the CTE table and, for
    /// fixed-point loops, the delta table.
    pub tables: Vec<(String, Partitioned)>,
}

impl LoopCheckpoint {
    /// Estimated bytes held alive by this snapshot (shared with the live
    /// tables until either side is replaced — see module docs).
    pub fn estimated_bytes(&self) -> u64 {
        self.tables.iter().map(|(_, d)| d.estimated_bytes()).sum()
    }
}

/// One checkpoint epoch: the snapshot and its number (1-based per loop).
#[derive(Debug)]
struct Epoch {
    slot: Slot<LoopCheckpoint>,
    number: u64,
}

/// Epochs a loop retains — the current one and one fallback — which is
/// also how many the journal records.
pub(crate) const RETAINED_EPOCHS: usize = 2;

/// A checkpoint rehydrated from a dead process's files, staged for the
/// loop driver to consume instead of starting from iteration 0.
///
/// `journal_iteration` is the iteration the *journal* names as newest; it
/// can run ahead of `checkpoint.iteration` when the newest epoch was
/// corrupt and adoption fell back to the previous one. The difference is
/// the replayed work the crash harness bounds by one checkpoint interval.
#[derive(Debug, Clone)]
pub struct ResumeSeed {
    /// The adopted snapshot the loop seeds its state from.
    pub checkpoint: LoopCheckpoint,
    /// Epoch number the dead process's journal recorded for the snapshot.
    pub adopted_epoch: u64,
    /// Newest iteration the dead process had durably recorded.
    pub journal_iteration: u64,
}

/// Journal context of the statement this store belongs to: where to
/// record committed epochs so a restart can find them.
#[derive(Debug)]
struct JournalCtx {
    journal: Arc<QueryJournal>,
    query_id: u64,
}

/// Per-query store of the two newest checkpoint epochs of each running
/// loop, keyed by the loop's internal CTE name.
///
/// Writes replace the slot atomically under one lock acquisition, so a
/// failure *while building* a snapshot (the caller clones tables before
/// calling [`save`](Self::save)) leaves the previous checkpoint — and the
/// live loop state — untouched.
#[derive(Debug)]
pub struct CheckpointStore {
    env: Option<Arc<SpillEnv>>,
    /// Per loop, its retained epochs, newest first (never empty).
    slots: RwLock<HashMap<String, Vec<Epoch>>>,
    /// Seeds staged by the adoption pass, consumed once by the loop
    /// driver (keyed by the loop's internal CTE name).
    resume: RwLock<HashMap<String, ResumeSeed>>,
    journal: RwLock<Option<JournalCtx>>,
}

impl CheckpointStore {
    /// Empty store. With a spill environment, snapshots are charged to its
    /// memory accountant and may be spilled.
    pub fn new(env: Option<Arc<SpillEnv>>) -> Self {
        CheckpointStore {
            env,
            slots: RwLock::new(HashMap::new()),
            resume: RwLock::new(HashMap::new()),
            journal: RwLock::new(None),
        }
    }

    fn env(&self) -> Option<&SpillEnv> {
        self.env.as_deref()
    }

    /// Attach the statement's journal context. With one attached, every
    /// [`save`](Self::save) also persists the snapshot to a sealed file
    /// and records the epoch in the journal, making the loop resumable
    /// across a process crash.
    pub fn set_journal(&self, journal: Arc<QueryJournal>, query_id: u64) {
        *self.journal.write() = Some(JournalCtx { journal, query_id });
    }

    /// Stage an adopted checkpoint for the loop keyed by `loop_key`; the
    /// loop driver consumes it via [`take_resume`](Self::take_resume) and
    /// continues from the checkpointed iteration instead of 0.
    pub fn prime_resume(&self, loop_key: &str, seed: ResumeSeed) {
        self.resume
            .write()
            .insert(loop_key.to_ascii_lowercase(), seed);
    }

    /// Consume the staged resume seed for `loop_key`, if any (one-shot).
    pub fn take_resume(&self, loop_key: &str) -> Option<ResumeSeed> {
        self.resume.write().remove(&loop_key.to_ascii_lowercase())
    }

    /// Install `checkpoint` as the newest epoch for `loop_id`. The old
    /// current epoch becomes the fallback; the epoch before that is freed,
    /// its file with it.
    pub fn save(&self, loop_id: &str, checkpoint: LoopCheckpoint) {
        let key = loop_id.to_ascii_lowercase();
        let label = format!("checkpoint:{key}");
        let mut slots = self.slots.write();
        let epochs = slots.entry(key).or_default();
        let number = epochs.first().map_or(0, |e| e.number) + 1;
        let mut file = None;
        if let Some(env) = self.env() {
            let journal = self.journal.read();
            // A journaled snapshot reaches disk *before* the journal names
            // it, so a kill at any point leaves either a complete adoptable
            // epoch or an unreferenced orphan file (GC'd at the next
            // startup) — never an epoch pointing at a torn file. A failed
            // write only leaves this epoch in memory.
            if journal.is_some() {
                file = env.manager.write_checkpoint(&label, &checkpoint).ok();
            }
            // That barrier is its own fault site: the crash harness aborts
            // here to exercise the file-written-epoch-unnamed window. An
            // injected error skips the commit without failing the loop.
            if env.manager.hit(FaultSite::EpochCommit).is_ok() {
                env.metrics().durability_epochs.add(1);
                if let (Some(ctx), Some(file)) = (journal.as_ref(), &file) {
                    ctx.journal.note_epoch(
                        ctx.query_id,
                        EpochRecord {
                            epoch: number,
                            iteration: checkpoint.iteration,
                            file: file.file_name(),
                        },
                    );
                }
            }
        }
        let slot = Slot::new(self.env(), &label, RegionKind::Checkpoint, checkpoint, file);
        epochs.insert(0, Epoch { slot, number });
        for evicted in epochs.drain(RETAINED_EPOCHS.min(epochs.len())..) {
            evicted.slot.release(self.env());
        }
    }

    /// The newest readable snapshot for `loop_id`, if one was saved.
    /// O(tables) Arc bumps when resident; a spilled snapshot is read back
    /// from disk first, with every checksum verified. An unreadable
    /// newest epoch ([`Error::StorageCorrupt`]) is discarded and the
    /// previous epoch is promoted and tried instead; only when no epoch
    /// survives does the typed, transient error propagate (the corrupt
    /// epoch stays put so retries keep failing typed) — recovery never
    /// mistakes a lost disk file for "no checkpoint was taken".
    pub fn latest(&self, loop_id: &str) -> Result<Option<LoopCheckpoint>> {
        let key = loop_id.to_ascii_lowercase();
        let mut slots = self.slots.write();
        let Some(epochs) = slots.get_mut(&key) else {
            return Ok(None);
        };
        if let Some(ckpt) = epochs[0].slot.get(self.env()) {
            return Ok(Some(ckpt));
        }
        let env = self
            .env()
            .expect("only a store with a spill environment spills");
        let label = format!("checkpoint:{key}");
        loop {
            match epochs[0].slot.rehydrate(env, &label) {
                Ok(ckpt) => return Ok(Some(ckpt)),
                // Dropping the bad epoch deletes its corrupt file and
                // promotes the fallback.
                Err(Error::StorageCorrupt { .. }) if epochs.len() > 1 => {
                    epochs.remove(0).slot.release(Some(env));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// The epoch number of the newest retained snapshot (tests/EXPLAIN).
    pub fn current_epoch(&self, loop_id: &str) -> Option<u64> {
        self.slots
            .read()
            .get(&loop_id.to_ascii_lowercase())
            .map(|epochs| epochs[0].number)
    }

    /// Move every resident snapshot of `loop_id` (current and fallback
    /// epoch) to disk and release its memory; an epoch that already has
    /// its file only drops the resident copy. Missing or already-spilled
    /// slots are a no-op returning `Ok(false)`.
    pub fn spill_entry(&self, loop_id: &str) -> Result<bool> {
        let key = loop_id.to_ascii_lowercase();
        let Some(env) = self.env() else {
            return Ok(false);
        };
        let mut slots = self.slots.write();
        let Some(epochs) = slots.get_mut(&key) else {
            return Ok(false);
        };
        let label = format!("checkpoint:{key}");
        let mut spilled = false;
        for epoch in epochs {
            spilled |= epoch.slot.spill(env, &label)?;
        }
        Ok(spilled)
    }

    fn release(&self, epochs: Vec<Epoch>) {
        for epoch in epochs {
            epoch.slot.release(self.env());
        }
    }

    /// Drop the snapshots for `loop_id` (loop finished cleanly), their
    /// files with them — a finished loop has nothing to resume.
    pub fn remove(&self, loop_id: &str) {
        if let Some(epochs) = self.slots.write().remove(&loop_id.to_ascii_lowercase()) {
            self.release(epochs);
        }
    }

    /// Drop every snapshot (end of query). With a journal attached, the
    /// statement's entry is erased too: reaching this point means the
    /// query completed (or failed) in-process, so a later restart must
    /// not re-run it.
    pub fn clear(&self) {
        for (_, epochs) in self.slots.write().drain() {
            self.release(epochs);
        }
        self.resume.write().clear();
        if let Some(ctx) = self.journal.write().take() {
            ctx.journal.finish(ctx.query_id);
        }
    }

    /// Number of loops with a live snapshot.
    pub fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// True when no loop has a live snapshot.
    pub fn is_empty(&self) -> bool {
        self.slots.read().is_empty()
    }

    /// Number of snapshots currently spilled to disk, counting both
    /// epochs of each loop (observability/tests).
    pub fn spilled_count(&self) -> usize {
        self.slots
            .read()
            .values()
            .flatten()
            .filter(|e| e.slot.is_spilled())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalEntry;
    use spinner_common::{row_of, DataType, Field, Schema, Value};
    use std::path::{Path, PathBuf};

    fn part_with(n: i64) -> Partitioned {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        Partitioned::from_rows(
            schema,
            (0..n).map(|i| row_of([Value::Int(i)])).collect(),
            Some(0),
            2,
        )
    }

    fn ckpt(iteration: u64, updates: u64, rows: i64) -> LoopCheckpoint {
        LoopCheckpoint {
            iteration,
            cumulative_updates: updates,
            tables: vec![("pr".into(), part_with(rows))],
        }
    }

    fn spill_store() -> CheckpointStore {
        CheckpointStore::new(Some(Arc::new(SpillEnv::new(1, None, None))))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spinner_ckpt_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn begin(journal: &QueryJournal, query_id: u64) {
        journal.begin(JournalEntry {
            query_id,
            sql: "select".into(),
            settings: vec![],
            loop_key: "pr".into(),
            epochs: vec![],
            inputs: vec![],
        });
    }

    fn files_named(dir: &Path, needle: &str) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().contains(needle))
            .collect();
        files.sort();
        files
    }

    /// The file of loop "pr"'s newest (0) or fallback (1) epoch.
    fn epoch_file(store: &CheckpointStore, age: usize) -> PathBuf {
        let slots = store.slots.read();
        let file = slots["pr"][age].slot.file().expect("spilled");
        file.path().to_path_buf()
    }

    #[test]
    fn save_latest_roundtrip_and_replace() {
        let store = CheckpointStore::new(None);
        assert!(store.latest("pr").unwrap().is_none());
        store.save("PR", ckpt(0, 0, 3));
        store.save("pr", ckpt(5, 42, 4));
        let latest = store.latest("pr").unwrap().expect("snapshot");
        assert_eq!(latest.iteration, 5);
        assert_eq!(latest.cumulative_updates, 42);
        assert_eq!(latest.tables[0].1.total_rows(), 4);
        assert_eq!(store.len(), 1);
        assert_eq!(store.current_epoch("pr"), Some(2));
        store.remove("pr");
        assert!(store.is_empty());
    }

    /// A snapshot must share row buffers with the live table (O(P) Arc
    /// bumps), not copy rows — this is what makes checkpointing cheap
    /// enough to run every iteration.
    #[test]
    fn snapshots_share_buffers_copy_on_write() {
        let live = part_with(100);
        let buf_ptr = Arc::as_ptr(&live.parts[0]);
        let store = CheckpointStore::new(None);
        store.save(
            "pr",
            LoopCheckpoint {
                iteration: 1,
                cumulative_updates: 100,
                tables: vec![("pr".into(), live.clone())],
            },
        );
        drop(live); // the live table moves on; the snapshot keeps the buffer
        let restored = store.latest("pr").unwrap().unwrap();
        assert_eq!(Arc::as_ptr(&restored.tables[0].1.parts[0]), buf_ptr);
        assert_eq!(restored.tables[0].1.total_rows(), 100);
    }

    #[test]
    fn estimated_bytes_sums_tables() {
        let snapshot = LoopCheckpoint {
            iteration: 0,
            cumulative_updates: 0,
            tables: vec![("a".into(), part_with(2)), ("b".into(), part_with(3))],
        };
        assert_eq!(
            snapshot.estimated_bytes(),
            part_with(2).estimated_bytes() + part_with(3).estimated_bytes()
        );
    }

    #[test]
    fn spilled_checkpoint_rehydrates_on_latest() {
        let store = spill_store();
        store.save("pr", ckpt(7, 21, 9));
        assert!(store.spill_entry("pr").unwrap());
        assert_eq!(store.spilled_count(), 1);
        let back = store.latest("pr").unwrap().expect("snapshot");
        assert_eq!(back.iteration, 7);
        assert_eq!(back.cumulative_updates, 21);
        assert_eq!(back.tables[0].1.total_rows(), 9);
        assert_eq!(store.spilled_count(), 0);
    }

    /// Two-epoch retention: replacing a spilled snapshot demotes it to
    /// the fallback slot (still spilled, still charged zero resident
    /// bytes); the third save finally frees it.
    #[test]
    fn replacing_a_spilled_snapshot_demotes_then_releases_it() {
        let store = spill_store();
        store.save("pr", ckpt(1, 5, 4));
        assert!(store.spill_entry("pr").unwrap());
        store.save("pr", ckpt(2, 8, 6));
        // The spilled epoch 1 is retained as the fallback.
        assert_eq!(store.spilled_count(), 1);
        let env = store.env().unwrap();
        // Only the new resident snapshot is charged.
        assert_eq!(
            env.accountant.resident_bytes(),
            ckpt(2, 8, 6).estimated_bytes()
        );
        store.save("pr", ckpt(3, 9, 8));
        // Epoch 1 is gone; epoch 2 (resident) is the fallback.
        assert_eq!(store.spilled_count(), 0);
        assert_eq!(store.current_epoch("pr"), Some(3));
        store.clear();
        assert_eq!(env.accountant.resident_bytes(), 0);
    }

    /// A corrupt newest epoch falls back to the previous epoch; the bad
    /// epoch's file and region are discarded.
    #[test]
    fn corrupt_current_epoch_falls_back_to_previous() {
        let store = spill_store();
        store.save("pr", ckpt(4, 10, 5));
        store.save("pr", ckpt(8, 20, 7));
        assert!(store.spill_entry("pr").unwrap());
        assert_eq!(store.spilled_count(), 2);
        // Mangle the newest epoch's file on disk.
        let bad = epoch_file(&store, 0);
        std::fs::write(&bad, b"garbage").unwrap();
        let back = store.latest("pr").unwrap().expect("fallback epoch");
        assert_eq!(back.iteration, 4, "must fall back to the older epoch");
        assert_eq!(back.cumulative_updates, 10);
        assert_eq!(store.current_epoch("pr"), Some(1));
        assert!(!bad.exists(), "the corrupt file goes with its epoch");
        // The fallback is the only epoch left.
        assert_eq!(store.slots.read()["pr"].len(), 1);
    }

    /// With every epoch corrupt, the typed error propagates — recovery
    /// sees `StorageCorrupt`, never a silent "no checkpoint".
    #[test]
    fn all_epochs_corrupt_is_a_typed_error() {
        let store = spill_store();
        store.save("pr", ckpt(1, 1, 3));
        store.save("pr", ckpt(2, 2, 4));
        assert!(store.spill_entry("pr").unwrap());
        for age in [0, 1] {
            std::fs::write(epoch_file(&store, age), b"garbage").unwrap();
        }
        for _ in 0..2 {
            assert!(matches!(
                store.latest("pr"),
                Err(Error::StorageCorrupt { .. })
            ));
        }
    }

    /// A resumable loop under forced spill: every save writes its epoch
    /// file once (spilling it afterwards writes nothing), the journal and
    /// the directory hold the same two newest epochs after every save,
    /// and the clean-completion path erases both.
    #[test]
    fn journaled_epochs_are_written_once_and_retained_two_deep() {
        let dir = temp_dir("once");
        let env = Arc::new(SpillEnv::new(1, dir.to_str(), None));
        let store = CheckpointStore::new(Some(Arc::clone(&env)));
        let journal = Arc::new(QueryJournal::new(
            &dir,
            77,
            false,
            Arc::clone(env.metrics()),
        ));
        begin(&journal, 5);
        store.set_journal(Arc::clone(&journal), 5);
        let mut written = 0;
        for i in 1..=5u64 {
            store.save("pr", ckpt(i, i, 3 + i as i64));
            written += std::fs::metadata(epoch_file(&store, 0)).unwrap().len();
            // The victim the executor would pick right after the save.
            assert!(store.spill_entry("pr").unwrap());
            let on_disk = files_named(&dir, "checkpoint");
            assert_eq!(
                on_disk.len(),
                (i as usize).min(2),
                "after save {i}: {on_disk:?}"
            );
            let entries = QueryJournal::load(journal.path()).unwrap();
            let mut journaled: Vec<PathBuf> = entries[0]
                .epochs
                .iter()
                .map(|e| dir.join(&e.file))
                .collect();
            journaled.sort();
            assert_eq!(journaled, on_disk, "journal and directory agree");
            assert_eq!(entries[0].epochs[0].epoch, i);
            assert_eq!(entries[0].epochs[0].iteration, i);
        }
        let counted = env.metrics().take();
        assert_eq!(counted.spill_bytes_written, written, "no second copy");
        assert_eq!(counted.spill_events, 5);
        assert_eq!(counted.durability_epochs, 5);
        // A spilled journaled epoch reads back like any other.
        assert_eq!(store.latest("pr").unwrap().unwrap().iteration, 5);
        assert!(files_named(&dir, "manifest").is_empty());
        store.clear();
        assert!(journal.is_empty(), "clear must finish the journal entry");
        assert!(files_named(&dir, "checkpoint").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Epoch numbers belong to the store: two statements sharing one spill
    /// environment (and one loop name) each count 1..n.
    #[test]
    fn stores_sharing_an_environment_number_their_own_epochs() {
        let dir = temp_dir("numbering");
        let env = Arc::new(SpillEnv::new(u64::MAX, dir.to_str(), None));
        let journal = Arc::new(QueryJournal::new(
            &dir,
            78,
            false,
            Arc::clone(env.metrics()),
        ));
        let stores: Vec<CheckpointStore> = (1..=2)
            .map(|query_id| {
                let store = CheckpointStore::new(Some(Arc::clone(&env)));
                begin(&journal, query_id);
                store.set_journal(Arc::clone(&journal), query_id);
                store
            })
            .collect();
        for i in 1..=3 {
            for store in &stores {
                store.save("pr", ckpt(i, i, 3));
            }
        }
        for entry in QueryJournal::load(journal.path()).unwrap() {
            let numbers: Vec<u64> = entry.epochs.iter().map(|e| e.epoch).collect();
            assert_eq!(numbers, [3, 2], "query {}", entry.query_id);
        }
        assert_eq!(env.metrics().take().durability_epochs, 6);
        drop(stores);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeds staged by adoption are consumed exactly once, by loop key.
    #[test]
    fn resume_seed_is_one_shot() {
        let store = CheckpointStore::new(None);
        assert!(store.take_resume("pr").is_none());
        store.prime_resume(
            "PR",
            ResumeSeed {
                checkpoint: ckpt(6, 12, 4),
                adopted_epoch: 2,
                journal_iteration: 8,
            },
        );
        let seed = store.take_resume("pr").expect("staged seed");
        assert_eq!(seed.checkpoint.iteration, 6);
        assert_eq!(seed.adopted_epoch, 2);
        assert_eq!(seed.journal_iteration, 8);
        assert!(store.take_resume("pr").is_none(), "one-shot");
    }
}
