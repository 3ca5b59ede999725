//! Crash-consistent query journal: what was running when we died?
//!
//! Sealed spill files make checkpoint *contents* survive a crash, but a
//! file says nothing about *which statement* it belongs to — without an
//! index a restarted process finds sealed files it cannot interpret and
//! GCs them. The [`QueryJournal`] is that index, and the only one: orphan
//! GC goes by the pid in every file name and needs none. Per in-flight
//! iterative
//! statement it records the normalized SQL, the planner-affecting config
//! overlay, the loop identity (internal CTE name), the durable input-table
//! snapshots, and the newest committed checkpoint epochs (up to the two
//! the [`CheckpointStore`](crate::CheckpointStore) retains). That is
//! exactly enough for a fresh process to re-plan the statement and resume
//! its loop from the checkpointed iteration instead of iteration 0.
//!
//! The journal is one file per process (`spinner_journal_{pid}_{tag}.qjl`
//! under the spill directory), rewritten whole on every update with the
//! same `SPNSPILL` sealed codec and through the same `write_atomic` as
//! the data files it points at, its fsyncs counted in
//! `durability_fsyncs` like theirs — a reader only ever observes
//! a complete, checksummed journal or none at all. Dropping the journal
//! (clean shutdown) deletes the file; only a hard kill leaves it behind,
//! which is precisely the signal the adoption pass keys on: *journal file
//! with a dead owner pid ⇒ in-flight work to adopt*.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use spinner_common::memory::MemoryMetrics;
use spinner_common::{Error, Result};

use crate::checkpoint::RETAINED_EPOCHS;
use crate::disk::{tmp_path, write_atomic};
use crate::spill::{header, put_str, put_u32, put_u64, seal, Reader};

/// One committed checkpoint epoch a journal entry points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Epoch number the statement's checkpoint store gave the snapshot
    /// (1-based per loop).
    pub epoch: u64,
    /// Loop iteration the checkpoint was taken after.
    pub iteration: u64,
    /// File name (not path) of the sealed checkpoint under the spill dir.
    pub file: String,
}

/// One durable input-table snapshot a journal entry depends on. Base
/// tables live only in memory, so a resumable statement snapshots them to
/// sealed spill files up front; adoption recreates the tables from these
/// records with the same partitioning, which is what makes the re-planned
/// statement produce identical hashes and joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputRecord {
    /// Catalog table name.
    pub table: String,
    /// File name (not path) of the sealed snapshot under the spill dir.
    pub file: String,
    /// Primary-key column index, if the table declared one.
    pub primary_key: Option<usize>,
    /// Partition-key column index, if the table declared one.
    pub partition_key: Option<usize>,
}

/// Everything recorded about one in-flight iterative statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Stable query handle, unique per journal (and per server lifetime).
    pub query_id: u64,
    /// The normalized SQL text, re-planned verbatim on adoption.
    pub sql: String,
    /// Planner-affecting config overlay as `(knob, value)` pairs. A
    /// mismatch with the adopting engine's config vetoes adoption — a
    /// different plan shape would not line up with the checkpointed
    /// `__cte_*` / `__delta_*` names.
    pub settings: Vec<(String, String)>,
    /// The loop's internal CTE name (deterministic across re-plans of the
    /// same SQL under the same settings).
    pub loop_key: String,
    /// Committed checkpoint epochs, newest first, at most two — mirroring
    /// the store's two-epoch retention so adoption can fall back
    /// current → previous on [`Error::StorageCorrupt`].
    pub epochs: Vec<EpochRecord>,
    /// Durable input-table snapshots the statement reads.
    pub inputs: Vec<InputRecord>,
}

/// Per-process journal of in-flight resumable statements, stored as
/// `spinner_journal_{pid}_{tag}.qjl` under the spill directory.
///
/// All methods are thread-safe. Updates are best-effort (a journal write
/// failure never fails the query — it only narrows what a later restart
/// can adopt) but crash consistent: the file is rewritten whole behind a
/// temp-file rename, so a kill mid-update leaves the previous complete
/// journal, never a torn one.
#[derive(Debug)]
pub struct QueryJournal {
    path: PathBuf,
    durable: bool,
    metrics: Arc<MemoryMetrics>,
    state: Mutex<BTreeMap<u64, JournalEntry>>,
}

impl QueryJournal {
    /// Journal for this process under `dir`; `tag` distinguishes engines
    /// within one process (same convention as the spill manager), and
    /// `metrics` is the spill environment's sink the fsyncs count into.
    pub fn new(dir: &Path, tag: u64, durable: bool, metrics: Arc<MemoryMetrics>) -> Self {
        Self::for_pid(dir, std::process::id(), tag, durable, metrics)
    }

    /// Journal impersonating another pid — test-only surface for staging
    /// "dead process" fixtures the adoption pass must handle.
    pub fn for_pid(
        dir: &Path,
        pid: u32,
        tag: u64,
        durable: bool,
        metrics: Arc<MemoryMetrics>,
    ) -> Self {
        QueryJournal {
            path: dir.join(format!("spinner_journal_{pid}_{tag}.qjl")),
            durable,
            metrics,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// Path of the journal file (observability/tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record a statement entering its iterative phase. Replaces any
    /// prior entry with the same query id.
    pub fn begin(&self, entry: JournalEntry) {
        let mut state = self.state.lock().expect("journal lock");
        state.insert(entry.query_id, entry);
        self.save(&state);
    }

    /// Record a newly committed checkpoint epoch for `query_id`. Only the
    /// two newest epochs are retained, matching the checkpoint store's
    /// retention (an older file is already deleted by the time this
    /// drops its record).
    pub fn note_epoch(&self, query_id: u64, epoch: EpochRecord) {
        let mut state = self.state.lock().expect("journal lock");
        if let Some(entry) = state.get_mut(&query_id) {
            entry.epochs.insert(0, epoch);
            entry.epochs.truncate(RETAINED_EPOCHS);
            self.save(&state);
        }
    }

    /// The statement completed (or failed) cleanly: nothing to resume.
    pub fn finish(&self, query_id: u64) {
        let mut state = self.state.lock().expect("journal lock");
        if state.remove(&query_id).is_some() {
            self.save(&state);
        }
    }

    /// Number of in-flight entries (observability/tests).
    pub fn len(&self) -> usize {
        self.state.lock().expect("journal lock").len()
    }

    /// True when nothing is journaled.
    pub fn is_empty(&self) -> bool {
        self.state.lock().expect("journal lock").is_empty()
    }

    fn save(&self, state: &BTreeMap<u64, JournalEntry>) {
        let mut buf = header();
        put_u32(&mut buf, state.len() as u32);
        for entry in state.values() {
            put_u64(&mut buf, entry.query_id);
            put_str(&mut buf, &entry.sql);
            put_u32(&mut buf, entry.settings.len() as u32);
            for (k, v) in &entry.settings {
                put_str(&mut buf, k);
                put_str(&mut buf, v);
            }
            put_str(&mut buf, &entry.loop_key);
            put_u32(&mut buf, entry.epochs.len() as u32);
            for e in &entry.epochs {
                put_u64(&mut buf, e.epoch);
                put_u64(&mut buf, e.iteration);
                put_str(&mut buf, &e.file);
            }
            put_u32(&mut buf, entry.inputs.len() as u32);
            for i in &entry.inputs {
                put_str(&mut buf, &i.table);
                put_str(&mut buf, &i.file);
                put_key(&mut buf, i.primary_key);
                put_key(&mut buf, i.partition_key);
            }
        }
        seal(&mut buf);
        // Best-effort (see the type docs): a failed write keeps the
        // previous complete journal.
        let _ = write_atomic(&self.path, &buf, self.durable, &self.metrics);
    }

    /// Parse and seal-verify a journal file. A short, torn or mutated
    /// journal surfaces as the typed [`Error::StorageCorrupt`] — the
    /// adoption pass treats that as "nothing adoptable here", never as
    /// license to guess.
    pub fn load(path: &Path) -> Result<Vec<JournalEntry>> {
        let bytes = std::fs::read(path).map_err(|e| Error::StorageCorrupt {
            region: "journal".to_string(),
            message: format!("journal unreadable: {e}"),
        })?;
        let mut r = Reader::new(&bytes, "journal")?;
        r.header()?;
        let n_entries = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let query_id = r.u64()?;
            let sql = r.str()?;
            let n_settings = r.u32()? as usize;
            let mut settings = Vec::with_capacity(n_settings);
            for _ in 0..n_settings {
                let k = r.str()?;
                let v = r.str()?;
                settings.push((k, v));
            }
            let loop_key = r.str()?;
            let n_epochs = r.u32()? as usize;
            let mut epochs = Vec::with_capacity(n_epochs);
            for _ in 0..n_epochs {
                epochs.push(EpochRecord {
                    epoch: r.u64()?,
                    iteration: r.u64()?,
                    file: r.str()?,
                });
            }
            let n_inputs = r.u32()? as usize;
            let mut inputs = Vec::with_capacity(n_inputs);
            for _ in 0..n_inputs {
                inputs.push(InputRecord {
                    table: r.str()?,
                    file: r.str()?,
                    primary_key: read_key(&mut r)?,
                    partition_key: read_key(&mut r)?,
                });
            }
            entries.push(JournalEntry {
                query_id,
                sql,
                settings,
                loop_key,
                epochs,
                inputs,
            });
        }
        r.finish()?;
        Ok(entries)
    }
}

fn put_key(buf: &mut Vec<u8>, key: Option<usize>) {
    match key {
        None => buf.push(0),
        Some(k) => {
            buf.push(1);
            put_u64(buf, k as u64);
        }
    }
}

fn read_key(r: &mut Reader<'_>) -> Result<Option<usize>> {
    match r.u8()? {
        0 => Ok(None),
        _ => Ok(Some(r.u64()? as usize)),
    }
}

impl Drop for QueryJournal {
    fn drop(&mut self) {
        // A clean shutdown has nothing to resume. Only a hard kill —
        // which skips destructors — leaves the journal for adoption.
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(tmp_path(&self.path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spinner_qjl_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn journal(dir: &Path, tag: u64) -> QueryJournal {
        QueryJournal::new(dir, tag, false, Arc::new(MemoryMetrics::new()))
    }

    fn entry(id: u64) -> JournalEntry {
        JournalEntry {
            query_id: id,
            sql: format!("WITH ITERATIVE pr AS (SELECT {id}) SELECT * FROM pr"),
            settings: vec![
                ("partitions".into(), "4".into()),
                ("semi_naive".into(), "true".into()),
            ],
            loop_key: "__cte_pr_1".into(),
            epochs: vec![EpochRecord {
                epoch: 3,
                iteration: 6,
                file: "spinner_spill_1_0_9_checkpoint.spn".into(),
            }],
            inputs: vec![InputRecord {
                table: "edges".into(),
                file: "spinner_spill_1_0_0_input_edges.spn".into(),
                primary_key: Some(0),
                partition_key: None,
            }],
        }
    }

    #[test]
    fn begin_note_finish_round_trip() {
        let dir = temp_dir("rt");
        let j = journal(&dir, 0);
        assert!(j.is_empty());
        j.begin(entry(7));
        j.note_epoch(
            7,
            EpochRecord {
                epoch: 4,
                iteration: 8,
                file: "spinner_spill_1_0_11_checkpoint.spn".into(),
            },
        );
        let back = QueryJournal::load(j.path()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].query_id, 7);
        assert_eq!(back[0].sql, entry(7).sql);
        assert_eq!(back[0].settings, entry(7).settings);
        assert_eq!(back[0].loop_key, "__cte_pr_1");
        // Newest epoch first, older record demoted behind it.
        assert_eq!(back[0].epochs.len(), 2);
        assert_eq!(back[0].epochs[0].epoch, 4);
        assert_eq!(back[0].epochs[0].iteration, 8);
        assert_eq!(back[0].epochs[1].epoch, 3);
        assert_eq!(back[0].inputs, entry(7).inputs);
        j.finish(7);
        assert!(j.is_empty());
        assert_eq!(QueryJournal::load(j.path()).unwrap().len(), 0);
        let path = j.path().to_path_buf();
        drop(j);
        assert!(!path.exists(), "drop must delete the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_retention_is_two_newest_first() {
        let dir = temp_dir("epochs");
        let j = journal(&dir, 1);
        let mut e = entry(1);
        e.epochs.clear();
        j.begin(e);
        for epoch in 1..=5 {
            j.note_epoch(
                1,
                EpochRecord {
                    epoch,
                    iteration: epoch * 2,
                    file: format!("f{epoch}.spn"),
                },
            );
        }
        let back = QueryJournal::load(j.path()).unwrap();
        assert_eq!(back[0].epochs.len(), 2);
        assert_eq!(back[0].epochs[0].epoch, 5);
        assert_eq!(back[0].epochs[1].epoch, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_journal_is_storage_corrupt() {
        let dir = temp_dir("tamper");
        let j = journal(&dir, 2);
        j.begin(entry(1));
        let mut bytes = std::fs::read(j.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(j.path(), &bytes).unwrap();
        assert!(matches!(
            QueryJournal::load(j.path()),
            Err(Error::StorageCorrupt { .. })
        ));
        // Truncation (torn write) is caught too.
        std::fs::write(j.path(), &bytes[..mid]).unwrap();
        assert!(matches!(
            QueryJournal::load(j.path()),
            Err(Error::StorageCorrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal's barriers are the shared writer's: a durable journal
    /// counts two fsyncs per mutation that rewrites the file, a relaxed
    /// one none.
    #[test]
    fn durable_journal_writes_count_their_fsyncs() {
        let dir = temp_dir("fsyncs");
        let metrics = Arc::new(MemoryMetrics::new());
        let j = QueryJournal::new(&dir, 4, true, Arc::clone(&metrics));
        j.begin(entry(1));
        assert_eq!(metrics.take().durability_fsyncs, 2);
        j.finish(1);
        j.finish(1); // nothing left to remove: no rewrite
        assert_eq!(metrics.take().durability_fsyncs, 2);
        assert!(!tmp_path(j.path()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multiple_entries_survive_and_finish_individually() {
        let dir = temp_dir("multi");
        let j = journal(&dir, 3);
        j.begin(entry(1));
        j.begin(entry(2));
        assert_eq!(j.len(), 2);
        j.finish(1);
        let back = QueryJournal::load(j.path()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].query_id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
