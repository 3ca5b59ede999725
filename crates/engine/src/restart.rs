//! Restart recovery: adopting a dead engine's in-flight queries.
//!
//! When a process is hard-killed (SIGKILL, power loss), its [`QueryJournal`]
//! and the sealed checkpoint/input files it references survive under the
//! spill directory — destructors never ran. A fresh engine pointed at the
//! same directory runs this **adoption pass** before orphan GC:
//!
//! 1. **Scan** the directory for `spinner_journal_{pid}_{tag}.qjl` files
//!    whose owner pid is dead (`/proc/{pid}` gone). Live journals — another
//!    engine sharing the directory — are never touched.
//! 2. **Verify & read**: parse each journal (seal-checked; corruption is a
//!    typed [`StorageCorrupt`](spinner_common::Error::StorageCorrupt), not
//!    a guess), check the recorded planner-settings overlay
//!    ([`EngineConfig::settings_overlay`]) against the adopting engine's
//!    config, and rehydrate the newest committed
//!    checkpoint epoch — falling back newest → previous when the newest
//!    file fails its checksums — plus the input-table snapshots. Everything
//!    is read **into memory here**, before GC deletes the dead files.
//! 3. **Re-plan & resume**: [`Database::resume_adopted`] re-plans the
//!    journaled SQL (CTE temp names are deterministic per statement, so the
//!    re-planned loop key matches the checkpointed one), primes the
//!    statement's checkpoint store with a [`ResumeSeed`], and executes it —
//!    the loop driver continues from the checkpointed iteration *k* instead
//!    of iteration 0.
//!
//! Anything that cannot be adopted — settings mismatch, every epoch
//! corrupt, inputs unreadable — is reported in
//! [`AdoptionReport::skipped`] with a reason and then falls through to the
//! ordinary orphan GC. Adoption never blocks startup on a judgment call.
//!
//! [`Database::resume_adopted`]: crate::Database::resume_adopted

use std::path::Path;

use spinner_common::EngineConfig;
use spinner_storage::{
    read_checkpoint_file, read_partitioned_file, JournalEntry, Partitioned, QueryJournal,
    ResumeSeed,
};

/// One rehydrated input-table snapshot an adopted query depends on.
#[derive(Debug, Clone)]
pub struct AdoptedInput {
    /// Catalog table name to recreate.
    pub table: String,
    /// The snapshot rows, already partitioned as the dead engine saw them.
    pub data: Partitioned,
    /// Primary-key column index the table declared, if any.
    pub primary_key: Option<usize>,
    /// Partition-key column index the table declared, if any.
    pub partition_key: Option<usize>,
}

/// One dead engine's in-flight query, fully rehydrated into memory and
/// ready to resume.
#[derive(Debug, Clone)]
pub struct AdoptedQuery {
    /// The stable query handle the dead engine had issued.
    pub query_id: u64,
    /// The journaled SQL text, re-planned verbatim.
    pub sql: String,
    /// The loop's internal CTE name the checkpoint is keyed by.
    pub loop_key: String,
    /// The adopted checkpoint plus its epoch/iteration provenance.
    pub seed: ResumeSeed,
    /// Input-table snapshots to recreate before re-planning.
    pub inputs: Vec<AdoptedInput>,
}

/// Outcome of the startup adoption scan.
#[derive(Debug, Clone, Default)]
pub struct AdoptionReport {
    /// Queries rehydrated and ready for [`resume_adopted`].
    ///
    /// [`resume_adopted`]: crate::Database::resume_adopted
    pub adopted: Vec<AdoptedQuery>,
    /// Entries that could not be adopted: `(query_id, reason)`.
    /// `query_id` 0 marks a journal file unreadable as a whole.
    pub skipped: Vec<(u64, String)>,
}

/// Summary of one successfully resumed query, for operator logs and the
/// crash harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumedSummary {
    /// The query's stable handle (unchanged across the restart).
    pub query_id: u64,
    /// Epoch number the dead engine journaled for the adopted checkpoint.
    pub adopted_epoch: u64,
    /// Iteration the loop driver was seeded with.
    pub resumed_iteration: u64,
    /// Crash-lost iterations the resumed run re-executed.
    pub replayed_iterations: u64,
    /// Rows in the resumed result (0 for non-row results).
    pub rows: u64,
}

/// Whether `pid` is a live process on this machine. Conservative: if the
/// liveness probe is unavailable the pid is treated as live, so adoption
/// (and the GC behind it) never races a running engine.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        true
    }
}

/// Owner pid of a journal file name (`spinner_journal_{pid}_{tag}.qjl`).
fn journal_owner_pid(name: &str) -> Option<u32> {
    name.strip_prefix("spinner_journal_")?
        .strip_suffix(".qjl")?
        .split('_')
        .next()?
        .parse()
        .ok()
}

/// The adoption scan (steps 1–2 of the module docs): find dead-owner
/// journals under `dir`, verify them, and rehydrate everything adoptable
/// into memory. Pure read pass — deletes nothing; run it *before* orphan
/// GC so the files it reads still exist.
pub fn scan(dir: &Path, config: &EngineConfig) -> AdoptionReport {
    let mut report = AdoptionReport::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return report;
    };
    let mut journal_paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(journal_owner_pid)
                .is_some_and(|pid| !pid_alive(pid))
        })
        .collect();
    journal_paths.sort();
    let expected = config.settings_overlay();
    for path in journal_paths {
        match QueryJournal::load(&path) {
            Ok(entries) => {
                for entry in entries {
                    match adopt_entry(dir, &entry, &expected) {
                        Ok(q) => report.adopted.push(q),
                        Err(reason) => report.skipped.push((entry.query_id, reason)),
                    }
                }
            }
            Err(e) => report.skipped.push((0, format!("journal unreadable: {e}"))),
        }
    }
    // Overlapping dead engines can journal the same handle; keep the
    // first (lowest journal path) and skip the rest so one handle never
    // resumes twice.
    let mut seen = std::collections::HashSet::new();
    report.adopted.retain(|q| {
        let fresh = seen.insert(q.query_id);
        if !fresh {
            report.skipped.push((
                q.query_id,
                "duplicate handle in another dead journal".into(),
            ));
        }
        fresh
    });
    report
}

/// Rehydrate one journal entry, or explain why it cannot be adopted.
fn adopt_entry(
    dir: &Path,
    entry: &JournalEntry,
    expected: &[(String, String)],
) -> Result<AdoptedQuery, String> {
    if entry.settings != expected {
        return Err(format!(
            "planner settings changed since the crash (journaled {:?})",
            entry.settings
        ));
    }
    if entry.epochs.is_empty() {
        return Err("no committed checkpoint epoch to resume from".to_string());
    }
    // Newest epoch first; a corrupt file falls back to the previous one.
    let mut fallback_note = String::new();
    let mut adopted = None;
    for epoch in &entry.epochs {
        match read_checkpoint_file(&dir.join(&epoch.file), "adopt:checkpoint") {
            Ok(ckpt) => {
                adopted = Some((epoch.epoch, ckpt));
                break;
            }
            Err(e) => fallback_note = format!("; newest epoch unreadable: {e}"),
        }
    }
    let Some((adopted_epoch, checkpoint)) = adopted else {
        return Err(format!("every journaled epoch is corrupt{fallback_note}"));
    };
    let mut inputs = Vec::with_capacity(entry.inputs.len());
    for input in &entry.inputs {
        match read_partitioned_file(&dir.join(&input.file), "adopt:input") {
            Ok(data) => inputs.push(AdoptedInput {
                table: input.table.clone(),
                data,
                primary_key: input.primary_key,
                partition_key: input.partition_key,
            }),
            Err(e) => {
                return Err(format!("input snapshot '{}' unreadable: {e}", input.table));
            }
        }
    }
    Ok(AdoptedQuery {
        query_id: entry.query_id,
        sql: entry.sql.clone(),
        loop_key: entry.loop_key.clone(),
        seed: ResumeSeed {
            adopted_epoch,
            journal_iteration: entry.epochs[0].iteration,
            checkpoint,
        },
        inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema, Value};
    use spinner_storage::{EpochRecord, InputRecord, LoopCheckpoint, SpillEnv, SpillHandle};
    use std::path::PathBuf;
    use std::sync::Arc;

    /// A pid that can never be live (beyond Linux's pid_max).
    const DEAD_PID: u32 = 999_999_999;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spinner_adopt_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_data() -> Partitioned {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let rows = vec![
            row_of([Value::Int(1), Value::Int(10)]),
            row_of([Value::Int(2), Value::Int(20)]),
        ];
        Partitioned::from_rows(schema, rows, Some(0), 2)
    }

    /// Write a sealed checkpoint + input snapshot and a dead-pid journal
    /// referencing them. Returns the spill env (keep alive: dropping it
    /// releases nothing here — handles are leaked on purpose, like a
    /// crash would) and the file names.
    fn stage_dead_engine(dir: &Path, query_id: u64) -> (Arc<SpillEnv>, Vec<SpillHandle>) {
        stage_dead_engine_with(dir, query_id, EngineConfig::default().settings_overlay())
    }

    fn stage_dead_engine_with(
        dir: &Path,
        query_id: u64,
        settings: Vec<(String, String)>,
    ) -> (Arc<SpillEnv>, Vec<SpillHandle>) {
        let env = Arc::new(SpillEnv::new(u64::MAX, dir.to_str(), None));
        let ckpt = LoopCheckpoint {
            iteration: 4,
            cumulative_updates: 7,
            tables: vec![("__cte_t_1".to_string(), sample_data())],
        };
        let ckpt_handle = env
            .manager
            .write_checkpoint("checkpoint:adopt", &ckpt)
            .unwrap();
        let input_handle = env
            .manager
            .write_partitioned("input_t", &sample_data())
            .unwrap();
        let file_name =
            |h: &SpillHandle| h.path().file_name().unwrap().to_string_lossy().into_owned();
        let journal = QueryJournal::for_pid(dir, DEAD_PID, 0, false, Default::default());
        journal.begin(JournalEntry {
            query_id,
            sql: "SELECT 1".to_string(),
            settings,
            loop_key: "__cte_t_1".to_string(),
            epochs: vec![EpochRecord {
                epoch: 2,
                iteration: 4,
                file: file_name(&ckpt_handle),
            }],
            inputs: vec![InputRecord {
                table: "t".to_string(),
                file: file_name(&input_handle),
                primary_key: Some(0),
                partition_key: None,
            }],
        });
        // A crash never runs Drop: forget the journal so its file stays.
        std::mem::forget(journal);
        (env, vec![ckpt_handle, input_handle])
    }

    #[test]
    fn empty_directory_adopts_nothing() {
        let dir = temp_dir("empty");
        let report = scan(&dir, &EngineConfig::default());
        assert!(report.adopted.is_empty());
        assert!(report.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pid_journal_is_adopted_with_checkpoint_and_inputs() {
        let dir = temp_dir("adopt");
        let (_env, handles) = stage_dead_engine(&dir, 11);
        let report = scan(&dir, &EngineConfig::default());
        assert_eq!(report.skipped, vec![]);
        assert_eq!(report.adopted.len(), 1);
        let q = &report.adopted[0];
        assert_eq!(q.query_id, 11);
        assert_eq!(q.loop_key, "__cte_t_1");
        assert_eq!(q.seed.adopted_epoch, 2);
        assert_eq!(q.seed.journal_iteration, 4);
        assert_eq!(q.seed.checkpoint.iteration, 4);
        assert_eq!(q.inputs.len(), 1);
        assert_eq!(q.inputs[0].data.total_rows(), 2);
        for h in handles {
            std::mem::forget(h); // crash semantics: files stay for GC tests
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_pid_journal_is_never_adopted() {
        let dir = temp_dir("live");
        // Journal owned by *this* (very alive) process.
        let journal = QueryJournal::new(&dir, 0, false, Default::default());
        journal.begin(JournalEntry {
            query_id: 5,
            sql: "SELECT 1".to_string(),
            settings: EngineConfig::default().settings_overlay(),
            loop_key: "__cte_t_1".to_string(),
            epochs: vec![],
            inputs: vec![],
        });
        let report = scan(&dir, &EngineConfig::default());
        assert!(report.adopted.is_empty());
        assert!(report.skipped.is_empty(), "live journals are invisible");
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_referencing_gcd_epoch_is_skipped_with_reason() {
        let dir = temp_dir("gcd");
        let journal = QueryJournal::for_pid(&dir, DEAD_PID, 1, false, Default::default());
        journal.begin(JournalEntry {
            query_id: 9,
            sql: "SELECT 1".to_string(),
            settings: EngineConfig::default().settings_overlay(),
            loop_key: "__cte_t_1".to_string(),
            epochs: vec![EpochRecord {
                epoch: 3,
                iteration: 6,
                file: "spinner_spill_999999999_0_5_checkpoint.spn".to_string(),
            }],
            inputs: vec![],
        });
        std::mem::forget(journal);
        let report = scan(&dir, &EngineConfig::default());
        assert!(report.adopted.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 9);
        assert!(report.skipped[0].1.contains("epoch is corrupt"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settings_mismatch_vetoes_adoption() {
        let dir = temp_dir("settings");
        let (_env, handles) = stage_dead_engine(&dir, 3);
        let changed = EngineConfig::default().with_partitions(7);
        let report = scan(&dir, &changed);
        assert!(report.adopted.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].1.contains("settings changed"));
        for h in handles {
            std::mem::forget(h);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_a_since_removed_setting_is_skipped_not_adopted() {
        // Engines before the `general_rewrites` knob was deleted journaled
        // it; such an overlay can never equal a current one.
        let dir = temp_dir("oldkey");
        let mut settings = EngineConfig::default().settings_overlay();
        settings.insert(5, ("general_rewrites".to_string(), "true".to_string()));
        let (_env, handles) = stage_dead_engine_with(&dir, 4, settings);
        let report = scan(&dir, &EngineConfig::default());
        assert!(report.adopted.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 4);
        assert!(report.skipped[0].1.contains("settings changed"));
        assert!(report.skipped[0].1.contains("general_rewrites"));
        for h in handles {
            std::mem::forget(h);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_dead_journals_with_the_same_handle_adopt_once() {
        let dir = temp_dir("dup");
        let (_env_a, ha) = stage_dead_engine(&dir, 21);
        // Second dead engine journals the same query id under another tag.
        let (_env_b, hb) = {
            let env = Arc::new(SpillEnv::new(u64::MAX, dir.to_str(), None));
            let ckpt = LoopCheckpoint {
                iteration: 2,
                cumulative_updates: 1,
                tables: vec![("__cte_t_1".to_string(), sample_data())],
            };
            let h = env
                .manager
                .write_checkpoint("checkpoint:dup", &ckpt)
                .unwrap();
            let journal = QueryJournal::for_pid(&dir, DEAD_PID - 1, 9, false, Default::default());
            journal.begin(JournalEntry {
                query_id: 21,
                sql: "SELECT 2".to_string(),
                settings: EngineConfig::default().settings_overlay(),
                loop_key: "__cte_t_1".to_string(),
                epochs: vec![EpochRecord {
                    epoch: 1,
                    iteration: 2,
                    file: h.path().file_name().unwrap().to_string_lossy().into_owned(),
                }],
                inputs: vec![],
            });
            std::mem::forget(journal);
            (env, vec![h])
        };
        let report = scan(&dir, &EngineConfig::default());
        assert_eq!(report.adopted.len(), 1, "one resume per handle");
        assert_eq!(report.adopted[0].query_id, 21);
        assert!(report
            .skipped
            .iter()
            .any(|(id, r)| *id == 21 && r.contains("duplicate handle")));
        for h in ha.into_iter().chain(hb) {
            std::mem::forget(h);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
