//! Per-process spill manifest: the durable index of on-disk state.
//!
//! Every spill/checkpoint file the [`SpillManager`](crate::SpillManager)
//! writes is recorded here together with the newest committed checkpoint
//! epoch per loop, so recovery can always answer two questions without
//! trusting file contents: *which files belong to a live process?* and
//! *what is the newest complete epoch?* The manifest itself is written
//! with the same write-to-temp → fsync → atomic-rename protocol as the
//! data files it describes, and is sealed with an [`xxh64`] checksum so a
//! torn manifest write is detected on load rather than silently trusted.
//!
//! The manifest is advisory for correctness — every data file carries its
//! own checksums and trailer — but authoritative for garbage collection:
//! [`gc_orphans`] removes `spinner_spill_*` / `spinner_manifest_*` /
//! `spinner_journal_*` files whose owning process is dead, so a crashed
//! process never leaks disk. Restart adoption (the engine's startup pass)
//! reads a dead pid's journal and checkpoints *into memory* before GC
//! runs, so adoption and GC compose without a protect-list.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use spinner_common::memory::MemoryMetrics;
use spinner_common::{Error, Result};

use crate::spill::xxh64;

/// First line of every manifest file: format name + version.
const HEADER_LINE: &str = "SPNMFT 1";

#[derive(Debug, Default)]
struct State {
    /// Live spill files owned by this process: file name → on-disk bytes.
    files: BTreeMap<String, u64>,
    /// Newest committed checkpoint epoch per loop key.
    epochs: BTreeMap<String, u64>,
}

/// A parsed, seal-verified manifest (see [`Manifest::load`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSnapshot {
    /// Live spill files at save time: file name → on-disk bytes.
    pub files: BTreeMap<String, u64>,
    /// Newest committed checkpoint epoch per loop key.
    pub epochs: BTreeMap<String, u64>,
}

/// Tracks this process's on-disk spill state in a sealed, atomically
/// replaced manifest file under the spill directory.
///
/// All methods are thread-safe; saves are best-effort (a manifest write
/// failure never fails the query — data files self-verify) but crash
/// consistent (readers only ever observe a complete, sealed manifest).
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    metrics: Arc<MemoryMetrics>,
    state: Mutex<State>,
}

impl Manifest {
    /// Manifest for one spill manager, stored as
    /// `spinner_manifest_{pid}_{tag}.mft` under `dir`.
    pub fn new(dir: &Path, tag: u64, metrics: Arc<MemoryMetrics>) -> Self {
        let path = dir.join(format!("spinner_manifest_{}_{tag}.mft", std::process::id()));
        Manifest {
            path,
            metrics,
            state: Mutex::new(State::default()),
        }
    }

    /// Path of the manifest file (observability/tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record a freshly persisted spill file.
    pub fn record_file(&self, file: &Path, bytes: u64, durable: bool) {
        let name = file_name(file);
        let mut state = self.state.lock().expect("manifest lock");
        state.files.insert(name, bytes);
        self.save(&state, durable);
    }

    /// Remove a spill file's entry (the file was deleted). The rewritten
    /// manifest replaces the old one atomically, so a crash between the
    /// file deletion and this update leaves at worst a stale entry for a
    /// missing file — never a missing entry for a live file.
    pub fn remove_file(&self, file: &Path) {
        let name = file_name(file);
        let mut state = self.state.lock().expect("manifest lock");
        if state.files.remove(&name).is_some() {
            self.save(&state, false);
        }
    }

    /// Commit the next checkpoint epoch for `key` and return it. The
    /// epoch only counts as committed once the sealed manifest naming it
    /// has been atomically renamed into place.
    pub fn commit_epoch(&self, key: &str, durable: bool) -> u64 {
        let mut state = self.state.lock().expect("manifest lock");
        let epoch = state.epochs.get(key).copied().unwrap_or(0) + 1;
        state.epochs.insert(key.to_string(), epoch);
        self.save(&state, durable);
        epoch
    }

    /// The newest committed epoch for `key`, if any.
    pub fn newest_epoch(&self, key: &str) -> Option<u64> {
        self.state
            .lock()
            .expect("manifest lock")
            .epochs
            .get(key)
            .copied()
    }

    /// Number of live file entries (observability/tests).
    pub fn file_count(&self) -> usize {
        self.state.lock().expect("manifest lock").files.len()
    }

    fn render(state: &State) -> String {
        let mut out = String::from(HEADER_LINE);
        out.push('\n');
        for (name, bytes) in &state.files {
            out.push_str(&format!("file {bytes} {name}\n"));
        }
        for (key, epoch) in &state.epochs {
            out.push_str(&format!("epoch {epoch} {key}\n"));
        }
        let seal = xxh64(out.as_bytes());
        out.push_str(&format!("seal {seal:016x}\n"));
        out
    }

    fn save(&self, state: &State, durable: bool) {
        let body = Self::render(state);
        let tmp = self.path.with_extension("mft.tmp");
        if std::fs::write(&tmp, body.as_bytes()).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if durable {
            if std::fs::File::open(&tmp)
                .and_then(|f| f.sync_all())
                .is_err()
            {
                let _ = std::fs::remove_file(&tmp);
                return;
            }
            self.metrics.durability_fsyncs.add(1);
        }
        if std::fs::rename(&tmp, &self.path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if durable && parent_dir_sync(&self.path).is_ok() {
            self.metrics.durability_fsyncs.add(1);
        }
    }

    /// Parse and seal-verify a manifest file. A short, torn or mutated
    /// manifest surfaces as a typed [`Error::StorageCorrupt`].
    pub fn load(path: &Path) -> Result<ManifestSnapshot> {
        let corrupt = |what: &str| Error::StorageCorrupt {
            region: "manifest".to_string(),
            message: format!("{what} in {}", path.display()),
        };
        let text =
            std::fs::read_to_string(path).map_err(|e| corrupt(&format!("unreadable: {e}")))?;
        let sealed_at = text
            .rfind("seal ")
            .ok_or_else(|| corrupt("missing seal line (torn write)"))?;
        let (body, seal_line) = text.split_at(sealed_at);
        let stored = seal_line
            .strip_prefix("seal ")
            .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| corrupt("malformed seal line"))?;
        if xxh64(body.as_bytes()) != stored {
            return Err(corrupt("seal checksum mismatch"));
        }
        let mut lines = body.lines();
        if lines.next() != Some(HEADER_LINE) {
            return Err(corrupt("bad header"));
        }
        let mut files = BTreeMap::new();
        let mut epochs = BTreeMap::new();
        for line in lines {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("file"), Some(bytes), Some(name)) => {
                    let bytes = bytes.parse().map_err(|_| corrupt("malformed file line"))?;
                    files.insert(name.to_string(), bytes);
                }
                (Some("epoch"), Some(epoch), Some(key)) => {
                    let epoch = epoch.parse().map_err(|_| corrupt("malformed epoch line"))?;
                    epochs.insert(key.to_string(), epoch);
                }
                _ => return Err(corrupt("unrecognized line")),
            }
        }
        Ok(ManifestSnapshot { files, epochs })
    }
}

impl Drop for Manifest {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(self.path.with_extension("mft.tmp"));
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string_lossy().into_owned())
}

/// Fsync the parent directory of `path` so a just-renamed file survives a
/// crash. Directory fds are not openable on every platform; callers treat
/// a failure as "no directory sync happened", not as a write error.
pub(crate) fn parent_dir_sync(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

/// Remove spill/manifest files under `dir` left behind by dead processes.
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
/// `spinner_manifest_{pid}_…` / `spinner_journal_{pid}_…` file name
/// (including their `.tmp` forms).
fn owner_pid(name: &str) -> Option<u32> {
    let rest = name
        .strip_prefix("spinner_spill_")
        .or_else(|| name.strip_prefix("spinner_manifest_"))
        .or_else(|| name.strip_prefix("spinner_journal_"))?;
    rest.split('_').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_in(dir: &Path) -> Manifest {
        Manifest::new(dir, 0, Arc::new(MemoryMetrics::new()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spinner_mft_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_commit_and_load_round_trip() {
        let dir = temp_dir("rt");
        let m = manifest_in(&dir);
        m.record_file(&dir.join("spinner_spill_1_0_0_x.spn"), 64, true);
        m.record_file(&dir.join("spinner_spill_1_0_1_y.spn"), 128, true);
        assert_eq!(m.commit_epoch("checkpoint:pr", true), 1);
        assert_eq!(m.commit_epoch("checkpoint:pr", true), 2);
        assert_eq!(m.newest_epoch("checkpoint:pr"), Some(2));
        assert_eq!(m.newest_epoch("checkpoint:cc"), None);
        let snap = Manifest::load(m.path()).unwrap();
        assert_eq!(snap.files.len(), 2);
        assert_eq!(snap.files["spinner_spill_1_0_1_y.spn"], 128);
        assert_eq!(snap.epochs["checkpoint:pr"], 2);
        m.remove_file(&dir.join("spinner_spill_1_0_0_x.spn"));
        assert_eq!(Manifest::load(m.path()).unwrap().files.len(), 1);
        let path = m.path().to_path_buf();
        drop(m);
        assert!(!path.exists(), "drop must delete the manifest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_manifest_is_storage_corrupt() {
        let dir = temp_dir("tamper");
        let m = manifest_in(&dir);
        m.record_file(&dir.join("spinner_spill_1_0_0_x.spn"), 64, false);
        let text = std::fs::read_to_string(m.path()).unwrap();
        // Flip one digit of the recorded size: the seal must catch it.
        std::fs::write(m.path(), text.replace("file 64", "file 65")).unwrap();
        assert!(matches!(
            Manifest::load(m.path()),
            Err(Error::StorageCorrupt { .. })
        ));
        // Truncation (torn write) is caught too.
        std::fs::write(m.path(), &text.as_bytes()[..text.len() / 2]).unwrap();
        assert!(matches!(
            Manifest::load(m.path()),
            Err(Error::StorageCorrupt { .. })
        ));
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_dead_pid_files_and_keeps_live_ones() {
        let dir = temp_dir("gc");
        let dead = dir.join("spinner_spill_999999999_0_0_x.spn");
        let dead_mft = dir.join("spinner_manifest_999999999_0.mft");
        let live = dir.join(format!("spinner_spill_{}_0_0_x.spn", std::process::id()));
        let unrelated = dir.join("keep.txt");
        for p in [&dead, &dead_mft, &live, &unrelated] {
            std::fs::write(p, b"x").unwrap();
        }
        let removed = gc_orphans(&dir);
        if Path::new("/proc/self").exists() {
            assert_eq!(removed, 2);
            assert!(!dead.exists() && !dead_mft.exists());
        }
        assert!(live.exists(), "files of the current process are kept");
        assert!(unrelated.exists(), "non-spinner files are never touched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
