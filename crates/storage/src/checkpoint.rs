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
//! partition as an immutable `Arc<Vec<Row>>`, so cloning a table is O(P)
//! pointer bumps (copy-on-write) — a checkpoint of a rename-path working
//! table costs pointers, not rows. The same sharing is why the store can
//! afford to retain **two epochs** per loop: each [`CheckpointStore::save`] commits a new epoch and demotes the old
//! current to `previous` instead of discarding it. If the newest epoch
//! turns out to be unreadable on rollback — a spilled snapshot whose file
//! the disk mangled surfaces as the typed [`Error::StorageCorrupt`] — the
//! store discards the bad epoch (deleting its file and manifest entry)
//! and falls back to the previous epoch, so recovery replays a little
//! further back rather than failing the query. Only when *no* epoch
//! survives does the typed error propagate; recovery never silently
//! restarts, and never returns unverified rows.
//!
//! Under memory pressure a snapshot is a prime spill victim: it is touched
//! only on save and on rollback, so the accountant ranks checkpoints just
//! after common-result tables in coldest-first order. A spilled snapshot is
//! rehydrated by [`CheckpointStore::latest`] — which is why that method is
//! fallible: the read back from disk can hit a fault, and recovery treats
//! that as a transient error, never as "no checkpoint, silently restart".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use spinner_common::memory::{RegionId, RegionKind};
use spinner_common::{Error, FaultSite, Result};

use crate::journal::{EpochRecord, QueryJournal};
use crate::partition::Partitioned;
use crate::spill::{SpillEnv, SpillHandle};

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

#[derive(Debug)]
enum Slot {
    Resident(LoopCheckpoint),
    Spilled(SpillHandle),
}

/// One committed checkpoint epoch: the snapshot (resident or spilled),
/// its accountant region, and its epoch number (1-based per loop).
#[derive(Debug)]
struct EpochSlot {
    slot: Slot,
    region: Option<RegionId>,
    epoch: u64,
}

#[derive(Debug)]
struct Entry {
    current: EpochSlot,
    previous: Option<EpochSlot>,
}

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
    /// Manifest epoch the snapshot was committed under.
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
#[derive(Debug, Default)]
pub struct CheckpointStore {
    slots: RwLock<HashMap<String, Entry>>,
    taken: AtomicU64,
    bytes: AtomicU64,
    spill: RwLock<Option<Arc<SpillEnv>>>,
    /// Durable-resume side state: the on-disk handles of the two newest
    /// journaled checkpoint files per loop, newest first. Dropping an
    /// evicted handle deletes its file, keeping disk usage bounded at two
    /// epochs — exactly what the journal records.
    durable: RwLock<HashMap<String, Vec<(u64, SpillHandle)>>>,
    /// Seeds staged by the adoption pass, consumed once by the loop
    /// driver (keyed by the loop's internal CTE name).
    resume: RwLock<HashMap<String, ResumeSeed>>,
    journal: RwLock<Option<JournalCtx>>,
}

impl CheckpointStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or remove) the spill environment. With one installed,
    /// snapshots are charged to the memory accountant and may be spilled.
    pub fn set_spill(&self, env: Option<Arc<SpillEnv>>) {
        *self.spill.write() = env;
    }

    /// The installed spill environment, if any.
    pub fn spill_env(&self) -> Option<Arc<SpillEnv>> {
        self.spill.read().clone()
    }

    /// Attach the statement's journal context. With one attached, every
    /// [`save`](Self::save) also persists the snapshot to a sealed file
    /// and records the committed epoch in the journal, making the loop
    /// resumable across a process crash.
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

    fn release_slot(&self, env: &Option<Arc<SpillEnv>>, slot: EpochSlot) {
        if let (Some(env), Some(region)) = (env, slot.region) {
            env.accountant.release(region);
        }
        // Dropping a Spilled slot's handle deletes its file and manifest
        // entry.
    }

    fn release(&self, env: &Option<Arc<SpillEnv>>, entry: Entry) {
        self.release_slot(env, entry.current);
        if let Some(prev) = entry.previous {
            self.release_slot(env, prev);
        }
    }

    /// Install `checkpoint` as the newest epoch for `loop_id`. The old
    /// current epoch is demoted to the fallback slot; the epoch before
    /// that is freed. With a spill environment installed the epoch is
    /// also committed to the on-disk manifest.
    pub fn save(&self, loop_id: &str, checkpoint: LoopCheckpoint) {
        self.taken.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(checkpoint.estimated_bytes(), Ordering::Relaxed);
        let key = loop_id.to_ascii_lowercase();
        let env = self.spill_env();
        let region = env.as_ref().map(|e| {
            e.accountant.register(
                &format!("checkpoint:{key}"),
                RegionKind::Checkpoint,
                checkpoint.estimated_bytes(),
            )
        });
        if let Some(env) = &env {
            // Durable-resume side path: when a journal is attached, the
            // snapshot itself is persisted *before* the epoch naming it is
            // committed, so a kill at any point leaves either a complete
            // adoptable epoch or an unreferenced orphan file (GC'd at the
            // next startup) — never an epoch pointing at a torn file.
            let journaled = self.journal.read().is_some();
            let handle = if journaled {
                env.manager
                    .write_checkpoint(&format!("checkpoint:{key}"), &checkpoint)
                    .ok()
            } else {
                None
            };
            // The commit barrier is its own fault site: the crash harness
            // aborts here to exercise the file-written-epoch-uncommitted
            // window. An injected error skips the commit (degrading this
            // save to in-memory only) without failing the loop.
            if env.manager.hit(FaultSite::ManifestCommit).is_ok() {
                let epoch = env
                    .manager
                    .manifest()
                    .commit_epoch(&format!("checkpoint:{key}"), env.manager.durable());
                env.metrics().durability_epochs.add(1);
                if let Some(handle) = handle {
                    let ctx = self.journal.read();
                    if let Some(ctx) = ctx.as_ref() {
                        ctx.journal.note_epoch(
                            ctx.query_id,
                            EpochRecord {
                                epoch,
                                iteration: checkpoint.iteration,
                                file: handle
                                    .path()
                                    .file_name()
                                    .map(|n| n.to_string_lossy().into_owned())
                                    .unwrap_or_default(),
                            },
                        );
                    }
                    drop(ctx);
                    let mut durable = self.durable.write();
                    let handles = durable.entry(key.clone()).or_default();
                    handles.insert(0, (epoch, handle));
                    handles.truncate(2);
                }
            }
        }
        let evicted;
        {
            let mut slots = self.slots.write();
            match slots.get_mut(&key) {
                Some(entry) => {
                    let fresh = EpochSlot {
                        slot: Slot::Resident(checkpoint),
                        region,
                        epoch: entry.current.epoch + 1,
                    };
                    let demoted = std::mem::replace(&mut entry.current, fresh);
                    evicted = entry.previous.replace(demoted);
                }
                None => {
                    slots.insert(
                        key,
                        Entry {
                            current: EpochSlot {
                                slot: Slot::Resident(checkpoint),
                                region,
                                epoch: 1,
                            },
                            previous: None,
                        },
                    );
                    evicted = None;
                }
            }
        }
        if let Some(old) = evicted {
            self.release_slot(&env, old);
        }
    }

    /// The newest readable snapshot for `loop_id`, if one was saved.
    /// O(tables) Arc bumps when resident; a spilled snapshot is read back
    /// from disk first, with every checksum verified. An unreadable
    /// newest epoch ([`Error::StorageCorrupt`]) is discarded and the
    /// previous epoch is promoted and tried instead; only when no epoch
    /// survives does the typed, transient error propagate — recovery
    /// never mistakes a lost disk file for "no checkpoint was taken".
    pub fn latest(&self, loop_id: &str) -> Result<Option<LoopCheckpoint>> {
        let key = loop_id.to_ascii_lowercase();
        let env = self.spill_env();
        loop {
            {
                let slots = self.slots.read();
                let Some(entry) = slots.get(&key) else {
                    return Ok(None);
                };
                if let Slot::Resident(ckpt) = &entry.current.slot {
                    if let (Some(env), Some(region)) = (&env, entry.current.region) {
                        env.accountant.touch(region);
                    }
                    return Ok(Some(ckpt.clone()));
                }
            }
            match self.rehydrate(&key, &env) {
                Ok(found) => return Ok(found),
                Err(err @ Error::StorageCorrupt { .. }) => {
                    // The newest epoch is unreadable; fall back one epoch
                    // and retry, or surface the typed error if this was
                    // the last one.
                    if !self.discard_current(&key, &env) {
                        return Err(err);
                    }
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
            .map(|e| e.current.epoch)
    }

    fn rehydrate(&self, key: &str, env: &Option<Arc<SpillEnv>>) -> Result<Option<LoopCheckpoint>> {
        let Some(env) = env else {
            // Spilled slots only exist when an environment was installed;
            // if it was torn down since, the snapshot is unrecoverable.
            return Ok(None);
        };
        let mut slots = self.slots.write();
        let Some(entry) = slots.get_mut(key) else {
            return Ok(None);
        };
        match &entry.current.slot {
            Slot::Resident(ckpt) => Ok(Some(ckpt.clone())),
            Slot::Spilled(handle) => {
                let ckpt = env
                    .manager
                    .read_checkpoint(handle, &format!("checkpoint:{key}"))?;
                if let Some(region) = entry.current.region {
                    env.accountant.note_rehydrated(region);
                }
                entry.current.slot = Slot::Resident(ckpt.clone());
                Ok(Some(ckpt))
            }
        }
    }

    /// Discard an unreadable current epoch, promoting the previous epoch
    /// in its place. Returns `false` when there is no fallback epoch (the
    /// corrupt one stays put so retries keep failing typed, not silent).
    fn discard_current(&self, key: &str, env: &Option<Arc<SpillEnv>>) -> bool {
        let bad;
        {
            let mut slots = self.slots.write();
            let Some(entry) = slots.get_mut(key) else {
                return false;
            };
            let Some(prev) = entry.previous.take() else {
                return false;
            };
            bad = std::mem::replace(&mut entry.current, prev);
        }
        // Dropping the bad slot deletes the corrupt file + manifest entry.
        self.release_slot(env, bad);
        true
    }

    /// Serialize every resident snapshot of `loop_id` (current and
    /// fallback epoch) to disk and release its memory. Missing or
    /// already-spilled slots are a no-op returning `Ok(false)`.
    pub fn spill_entry(&self, loop_id: &str) -> Result<bool> {
        let key = loop_id.to_ascii_lowercase();
        let Some(env) = self.spill_env() else {
            return Ok(false);
        };
        let mut slots = self.slots.write();
        let Some(entry) = slots.get_mut(&key) else {
            return Ok(false);
        };
        let mut spilled = false;
        for slot in std::iter::once(&mut entry.current).chain(entry.previous.as_mut()) {
            let Slot::Resident(ckpt) = &slot.slot else {
                continue;
            };
            let handle = env
                .manager
                .write_checkpoint(&format!("checkpoint:{key}"), ckpt)?;
            if let Some(region) = slot.region {
                env.accountant.note_spilled(region);
            }
            slot.slot = Slot::Spilled(handle);
            spilled = true;
        }
        Ok(spilled)
    }

    /// Drop the snapshots for `loop_id` (loop finished cleanly). The
    /// loop's durable checkpoint files go with them — a finished loop has
    /// nothing to resume.
    pub fn remove(&self, loop_id: &str) {
        let env = self.spill_env();
        let key = loop_id.to_ascii_lowercase();
        if let Some(entry) = self.slots.write().remove(&key) {
            self.release(&env, entry);
        }
        self.durable.write().remove(&key);
    }

    /// Drop every snapshot (end of query). With a journal attached, the
    /// statement's entry is erased too: reaching this point means the
    /// query completed (or failed) in-process, so a later restart must
    /// not re-run it.
    pub fn clear(&self) {
        let env = self.spill_env();
        for (_, entry) in self.slots.write().drain() {
            self.release(&env, entry);
        }
        self.durable.write().clear();
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
            .flat_map(|e| std::iter::once(&e.current).chain(e.previous.as_ref()))
            .filter(|s| matches!(s.slot, Slot::Spilled(_)))
            .count()
    }

    /// Lifetime count of snapshots saved (observability; survives
    /// [`clear`](Self::clear)).
    pub fn checkpoints_taken(&self) -> u64 {
        self.taken.load(Ordering::Relaxed)
    }

    /// Lifetime sum of estimated snapshot bytes (observability; survives
    /// [`clear`](Self::clear)).
    pub fn bytes_snapshotted(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
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

    fn ckpt(iteration: u64, updates: u64, rows: i64) -> LoopCheckpoint {
        LoopCheckpoint {
            iteration,
            cumulative_updates: updates,
            tables: vec![("pr".into(), part_with(rows))],
        }
    }

    #[test]
    fn save_latest_roundtrip_and_replace() {
        let store = CheckpointStore::new();
        assert!(store.latest("pr").unwrap().is_none());
        store.save("PR", ckpt(0, 0, 3));
        store.save("pr", ckpt(5, 42, 4));
        let latest = store.latest("pr").unwrap().expect("snapshot");
        assert_eq!(latest.iteration, 5);
        assert_eq!(latest.cumulative_updates, 42);
        assert_eq!(latest.tables[0].1.total_rows(), 4);
        assert_eq!(store.len(), 1);
        assert_eq!(store.current_epoch("pr"), Some(2));
        assert_eq!(store.checkpoints_taken(), 2);
        assert!(store.bytes_snapshotted() > 0);
        store.remove("pr");
        assert!(store.is_empty());
        // Lifetime counters survive removal.
        assert_eq!(store.checkpoints_taken(), 2);
    }

    /// A snapshot must share row buffers with the live table (O(P) Arc
    /// bumps), not copy rows — this is what makes checkpointing cheap
    /// enough to run every iteration.
    #[test]
    fn snapshots_share_buffers_copy_on_write() {
        let live = part_with(100);
        let buf_ptr = Arc::as_ptr(&live.parts[0]);
        let store = CheckpointStore::new();
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
        let store = CheckpointStore::new();
        store.set_spill(Some(Arc::new(SpillEnv::new(1, None, None))));
        store.save("pr", ckpt(7, 21, 9));
        assert!(store.spill_entry("pr").unwrap());
        assert_eq!(store.spilled_count(), 1);
        let env = store.spill_env().unwrap();
        assert_eq!(env.accountant.resident_bytes(), 0);
        let back = store.latest("pr").unwrap().expect("snapshot");
        assert_eq!(back.iteration, 7);
        assert_eq!(back.cumulative_updates, 21);
        assert_eq!(back.tables[0].1.total_rows(), 9);
        assert_eq!(store.spilled_count(), 0);
        assert!(env.accountant.resident_bytes() > 0);
    }

    /// Two-epoch retention: replacing a spilled snapshot demotes it to
    /// the fallback slot (still spilled, still charged zero resident
    /// bytes); the third save finally frees it.
    #[test]
    fn replacing_a_spilled_snapshot_demotes_then_releases_it() {
        let store = CheckpointStore::new();
        store.set_spill(Some(Arc::new(SpillEnv::new(1, None, None))));
        store.save("pr", ckpt(1, 5, 4));
        assert!(store.spill_entry("pr").unwrap());
        store.save("pr", ckpt(2, 8, 6));
        // The spilled epoch 1 is retained as the fallback.
        assert_eq!(store.spilled_count(), 1);
        let env = store.spill_env().unwrap();
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
        let store = CheckpointStore::new();
        store.set_spill(Some(Arc::new(SpillEnv::new(1, None, None))));
        store.save("pr", ckpt(4, 10, 5));
        store.save("pr", ckpt(8, 20, 7));
        assert!(store.spill_entry("pr").unwrap());
        assert_eq!(store.spilled_count(), 2);
        // Mangle the newest epoch's file on disk.
        {
            let slots = store.slots.read();
            let entry = slots.get("pr").unwrap();
            let Slot::Spilled(handle) = &entry.current.slot else {
                panic!("current must be spilled");
            };
            std::fs::write(handle.path(), b"garbage").unwrap();
        }
        let back = store.latest("pr").unwrap().expect("fallback epoch");
        assert_eq!(back.iteration, 4, "must fall back to the older epoch");
        assert_eq!(back.cumulative_updates, 10);
        assert_eq!(store.current_epoch("pr"), Some(1));
        // The fallback is the only epoch left.
        let slots = store.slots.read();
        assert!(slots.get("pr").unwrap().previous.is_none());
    }

    /// With a journal attached, every save persists an adoptable epoch
    /// file and records it; the clean-completion paths erase both again.
    #[test]
    fn journaled_saves_persist_epoch_files_and_clear_erases_them() {
        use crate::journal::{JournalEntry, QueryJournal};
        let dir = std::env::temp_dir().join(format!("spinner_ckpt_jrl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new();
        store.set_spill(Some(Arc::new(SpillEnv::new(
            u64::MAX,
            Some(dir.to_str().unwrap()),
            None,
        ))));
        let journal = Arc::new(QueryJournal::new(&dir, 77, false));
        journal.begin(JournalEntry {
            query_id: 5,
            sql: "select".into(),
            settings: vec![],
            loop_key: "pr".into(),
            epochs: vec![],
            inputs: vec![],
        });
        store.set_journal(Arc::clone(&journal), 5);
        for i in 1..=3 {
            store.save("pr", ckpt(i, i, 3));
        }
        // Two newest epochs on disk + journaled, older files deleted.
        let entries = QueryJournal::load(journal.path()).unwrap();
        assert_eq!(entries[0].epochs.len(), 2);
        assert_eq!(entries[0].epochs[0].epoch, 3);
        assert_eq!(entries[0].epochs[0].iteration, 3);
        let on_disk: Vec<_> = entries[0]
            .epochs
            .iter()
            .map(|e| dir.join(&e.file))
            .collect();
        for p in &on_disk {
            assert!(p.exists(), "journaled epoch file must exist: {p:?}");
            let back = crate::spill::read_checkpoint_file(p, "pr").unwrap();
            assert!(back.iteration >= 2);
        }
        store.clear();
        assert!(journal.is_empty(), "clear must finish the journal entry");
        for p in &on_disk {
            assert!(!p.exists(), "clear must delete durable epoch files");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeds staged by adoption are consumed exactly once, by loop key.
    #[test]
    fn resume_seed_is_one_shot() {
        let store = CheckpointStore::new();
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

    /// With every epoch corrupt, the typed error propagates — recovery
    /// sees `StorageCorrupt`, never a silent "no checkpoint".
    #[test]
    fn all_epochs_corrupt_is_a_typed_error() {
        let store = CheckpointStore::new();
        store.set_spill(Some(Arc::new(SpillEnv::new(1, None, None))));
        store.save("pr", ckpt(1, 1, 3));
        store.save("pr", ckpt(2, 2, 4));
        assert!(store.spill_entry("pr").unwrap());
        {
            let slots = store.slots.read();
            let entry = slots.get("pr").unwrap();
            for slot in std::iter::once(&entry.current).chain(entry.previous.as_ref()) {
                let Slot::Spilled(handle) = &slot.slot else {
                    panic!("both epochs must be spilled");
                };
                std::fs::write(handle.path(), b"garbage").unwrap();
            }
        }
        assert!(matches!(
            store.latest("pr"),
            Err(Error::StorageCorrupt { .. })
        ));
    }
}
