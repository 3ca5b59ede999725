//! What is on disk, how it gets there, and how it is reclaimed.
//!
//! A spill directory holds two kinds of file, both sealed `SPNSPILL`
//! payloads that verify themselves on read:
//!
//! * `spinner_spill_{pid}_{tag}_{n}_{label}.spn` — a spilled table, a
//!   loop checkpoint or an input snapshot, owned by a
//!   [`SpillHandle`](crate::SpillHandle) that deletes it on drop;
//! * `spinner_journal_{pid}_{tag}.qjl` — the
//!   [`QueryJournal`](crate::QueryJournal), the one durable index: it
//!   names the checkpoint and input files a restart may adopt.
//!
//! Both are written by `write_atomic`, the only place the temp-file →
//! fsync → rename → directory-fsync sequence exists. Nothing else indexes
//! the directory, and garbage collection needs no index: every file name
//! starts with its owner's pid, so [`gc_orphans`] removes exactly the files
//! whose owner is dead. Restart adoption (the engine's startup pass) reads
//! a dead pid's journal and checkpoints *into memory* before GC runs, so
//! adoption and GC compose without a protect-list.

use std::path::{Path, PathBuf};

use spinner_common::memory::MemoryMetrics;

/// The temp name `write_atomic` stages `path` under (`x.spn` →
/// `x.spn.tmp`); still pid-prefixed, so a crash mid-write leaves a file
/// orphan GC recognizes.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Write `bytes` to `path` crash-consistently: a reader only ever sees the
/// previous complete file or the new one. With `durable`, the data is
/// fsynced before the rename and the directory after it, and every fsync
/// that succeeded is counted in `metrics.durability_fsyncs`; without, the
/// rename is still atomic but the barriers are skipped. On error no temp
/// file is left behind.
pub(crate) fn write_atomic(
    path: &Path,
    bytes: &[u8],
    durable: bool,
    metrics: &MemoryMetrics,
) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let staged = (|| {
        std::fs::write(&tmp, bytes)?;
        if durable {
            std::fs::File::open(&tmp)?.sync_all()?;
            metrics.durability_fsyncs.add(1);
        }
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Directory fds are not openable on every platform; a failure means
    // "no directory sync happened", not that the write failed.
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    if durable && std::fs::File::open(dir).and_then(|d| d.sync_all()).is_ok() {
        metrics.durability_fsyncs.add(1);
    }
    Ok(())
}

/// Remove spill and journal files under `dir` left behind by dead
/// processes (and the `spinner_manifest_*` sidecars older binaries wrote).
/// Returns the number of files removed. Files owned by live processes
/// (including this one) are never touched; on platforms without `/proc`
/// liveness probing, nothing is removed.
pub fn gc_orphans(dir: &Path) -> u64 {
    if !Path::new("/proc/self").exists() {
        return 0;
    }
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = owner_pid(name) else { continue };
        if pid == me || Path::new(&format!("/proc/{pid}")).exists() {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Parse the owning pid out of a `spinner_spill_{pid}_…` /
/// `spinner_journal_{pid}_…` / `spinner_manifest_{pid}_…` file name
/// (including their `.tmp` forms).
fn owner_pid(name: &str) -> Option<u32> {
    let rest = name
        .strip_prefix("spinner_spill_")
        .or_else(|| name.strip_prefix("spinner_journal_"))
        .or_else(|| name.strip_prefix("spinner_manifest_"))?;
    rest.split('_').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spinner_disk_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_counts_its_fsyncs() {
        let dir = temp_dir("atomic");
        let path = dir.join("spinner_spill_1_0_0_x.spn");
        let metrics = MemoryMetrics::new();
        write_atomic(&path, b"first", true, &metrics).unwrap();
        write_atomic(&path, b"second", true, &metrics).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "the temp file is renamed away");
        // Data barrier + name barrier per write (the directory sync may be
        // unavailable on exotic platforms, never the data sync).
        let fsyncs = metrics.take().durability_fsyncs;
        assert!((2..=4).contains(&fsyncs), "fsyncs={fsyncs}");
        write_atomic(&path, b"third", false, &metrics).unwrap();
        assert_eq!(metrics.take().durability_fsyncs, 0, "relaxed writes skip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let dir = temp_dir("fail");
        // The target is a directory: the rename must fail.
        let path = dir.join("occupied");
        std::fs::create_dir_all(path.join("child")).unwrap();
        let metrics = MemoryMetrics::new();
        assert!(write_atomic(&path, b"x", false, &metrics).is_err());
        assert!(!tmp_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_dead_pid_files_and_keeps_live_ones() {
        let dir = temp_dir("gc");
        let dead = dir.join("spinner_spill_999999999_0_0_x.spn");
        let dead_tmp = dir.join("spinner_journal_999999999_0.qjl.tmp");
        let dead_mft = dir.join("spinner_manifest_999999999_0.mft");
        let live = dir.join(format!("spinner_spill_{}_0_0_x.spn", std::process::id()));
        let unrelated = dir.join("keep.txt");
        for p in [&dead, &dead_tmp, &dead_mft, &live, &unrelated] {
            std::fs::write(p, b"x").unwrap();
        }
        let removed = gc_orphans(&dir);
        if Path::new("/proc/self").exists() {
            assert_eq!(removed, 3);
            assert!(!dead.exists() && !dead_tmp.exists() && !dead_mft.exists());
        }
        assert!(live.exists(), "files of the current process are kept");
        assert!(unrelated.exists(), "non-spinner files are never touched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
