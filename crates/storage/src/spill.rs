//! Spill-to-disk for intermediate state under memory pressure, with the
//! disk treated as a failure domain.
//!
//! The [`SpillManager`] serializes [`Partitioned`] tables (and whole
//! [`LoopCheckpoint`]s) to files under a configurable directory with a
//! small binary format, written and parsed by hand like the profile
//! module's JSON (the offline build has no `serde`). Files preserve the
//! exact partition layout, so a rehydrated table hashes and joins
//! identically to the resident original.
//!
//! Format v2 (`SPNSPILL`, version 2) assumes the disk lies: every
//! partition's byte range carries an [`xxh64`] checksum, and the whole
//! file ends in a sealed trailer (`body length + body checksum +
//! SPNSEAL\0`). A torn write, truncation, or flipped bit fails
//! verification on read and surfaces as the transient
//! [`Error::StorageCorrupt`], which recovery handles by falling back to
//! an older checkpoint epoch or recomputing the region — never by
//! returning silently wrong rows.
//!
//! Writes are crash consistent: every file goes through the crate's one
//! `write_atomic` (payload → `*.tmp` → fsync → atomic rename → fsync
//! directory; the fsyncs elide when the manager is built with durability
//! off, for tests and throwaway workloads). File names start with the
//! owner's pid, which is all orphan GC needs to reclaim what a crashed
//! process left (see `disk.rs`).
//!
//! A [`SpillHandle`] owns its file and deletes it on drop, so dropping a
//! spilled registry entry (end of query, rename-over, explicit remove)
//! cleans the disk automatically. Fault
//! injection reaches this layer through the engine-installed
//! [`SpillFaultHook`]: `FaultSite::SpillWrite` / `SpillRead` abort I/O
//! outright, while the adversarial-disk sites `TornWrite`, `BitFlip`,
//! `DiskFull` and `FsyncFail` corrupt or fail the write the way a real
//! disk would.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spinner_common::memory::{MemoryAccountant, MemoryMetrics, SpillFaultHook};
use spinner_common::{
    Block, Cell, Column, DataType, Error, FaultSite, Field, Result, Schema, SchemaRef, Value,
};

use crate::checkpoint::LoopCheckpoint;
use crate::disk::{gc_orphans, write_atomic};
use crate::partition::{Partitioned, PlacedOn};

/// 8-byte magic + format version prefix of every spill file.
const MAGIC: &[u8; 8] = b"SPNSPILL";
const VERSION: u32 = 2;
/// 8-byte magic closing the trailer; its absence means a torn write.
const TRAILER_MAGIC: &[u8; 8] = b"SPNSEAL\0";
/// Trailer layout: u64 body length + u64 body checksum + trailer magic.
const TRAILER_LEN: usize = 8 + 8 + 8;

/// Distinguishes spill managers within one process so concurrent
/// `Database` instances never collide on file names.
static MANAGER_SEQ: AtomicU64 = AtomicU64::new(0);

// ---- xxh64 -------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn xxh_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// Hand-rolled XXH64 (seed 0) — the checksum sealing every spill file and
/// the journal. Implemented from the public algorithm spec because the
/// workspace builds offline with no external crates; verified against the
/// reference test vectors in this module's tests.
pub fn xxh64(data: &[u8]) -> u64 {
    let len = data.len() as u64;
    let mut rest = data;
    let mut h = if rest.len() >= 32 {
        let mut v1 = P1.wrapping_add(P2);
        let mut v2 = P2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(P1);
        while rest.len() >= 32 {
            v1 = xxh_round(v1, read_u64(&rest[0..]));
            v2 = xxh_round(v2, read_u64(&rest[8..]));
            v3 = xxh_round(v3, read_u64(&rest[16..]));
            v4 = xxh_round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh_merge(h, v1);
        h = xxh_merge(h, v2);
        h = xxh_merge(h, v3);
        xxh_merge(h, v4)
    } else {
        P5
    };
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h = (h ^ xxh_round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let v = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ v.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Everything the spill path needs, bundled so the registry, the
/// checkpoint store and the executor share one accountant and one
/// manager per database.
#[derive(Debug)]
pub struct SpillEnv {
    /// The central memory accountant (region tracking, victim selection).
    pub accountant: MemoryAccountant,
    /// Serializes regions to disk and reads them back.
    pub manager: SpillManager,
}

impl SpillEnv {
    /// Build an environment with a fresh accountant and manager sharing
    /// one metrics sink. `dir = None` uses the OS temp directory.
    /// Durability (fsync-on-write) defaults on; see
    /// [`with_durable`](Self::with_durable).
    pub fn new(
        threshold_bytes: u64,
        dir: Option<&str>,
        hook: Option<Arc<dyn SpillFaultHook>>,
    ) -> Self {
        let metrics = Arc::new(MemoryMetrics::new());
        let dir = dir.map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
        SpillEnv {
            accountant: MemoryAccountant::new(threshold_bytes, Arc::clone(&metrics)),
            manager: SpillManager::new(dir, metrics, hook),
        }
    }

    /// Set whether writes run the full fsync protocol (builder style).
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.manager.durable = durable;
        self
    }

    /// The shared spill/memory metrics sink.
    pub fn metrics(&self) -> &Arc<MemoryMetrics> {
        self.accountant.metrics()
    }
}

/// Owner of one spill file; the file is removed when the handle drops.
#[derive(Debug)]
pub struct SpillHandle {
    path: PathBuf,
    file_bytes: u64,
}

impl SpillHandle {
    /// On-disk size of the spill file in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Path of the spill file (observability/tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's name within the spill directory — what the journal
    /// records, so a restarted engine finds it under its own `spill_dir`.
    pub fn file_name(&self) -> String {
        let name = self.path.file_name().unwrap_or(self.path.as_os_str());
        name.to_string_lossy().into_owned()
    }
}

impl Drop for SpillHandle {
    fn drop(&mut self) {
        // Best-effort: a file that is already gone (vanished-dir race, GC,
        // test tampering) is the desired end state, and one that cannot be
        // removed is reclaimed by orphan GC once this process exits.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes victim regions to spill files and rehydrates them on demand.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    tag: u64,
    seq: AtomicU64,
    metrics: Arc<MemoryMetrics>,
    hook: Option<Arc<dyn SpillFaultHook>>,
    durable: bool,
}

impl SpillManager {
    /// Manager writing files under `dir`, durability on.
    pub fn new(
        dir: PathBuf,
        metrics: Arc<MemoryMetrics>,
        hook: Option<Arc<dyn SpillFaultHook>>,
    ) -> Self {
        SpillManager {
            dir,
            tag: MANAGER_SEQ.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
            metrics,
            hook,
            durable: true,
        }
    }

    /// Process-unique tag embedded in this manager's file names. The
    /// engine's query journal shares it so one directory can host
    /// several engines per process without name collisions.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Remove the files dead processes left in this manager's directory.
    /// Returns the number of files reclaimed.
    pub fn recover_orphans(&self) -> u64 {
        gc_orphans(&self.dir)
    }

    pub(crate) fn hit(&self, site: FaultSite) -> Result<()> {
        match &self.hook {
            Some(h) => h.hit(site),
            None => Ok(()),
        }
    }

    fn next_path(&self, label: &str) -> PathBuf {
        let sanitized: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(40)
            .collect();
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!(
            "spinner_spill_{}_{}_{n}_{sanitized}.spn",
            std::process::id(),
            self.tag
        ))
    }

    /// Seal `payload` and write it crash-consistently. The adversarial
    /// fault sites model a lying disk — `TornWrite`/`BitFlip` corrupt the
    /// payload *and still report success* (detection is the reader's
    /// job), `DiskFull` fails as ENOSPC, `FsyncFail` fails the write at
    /// the sync barrier, leaving neither temp nor final file.
    fn persist(&self, label: &str, mut payload: Vec<u8>) -> Result<SpillHandle> {
        self.hit(FaultSite::SpillWrite)?;
        seal(&mut payload);
        if self.hit(FaultSite::DiskFull).is_err() {
            return Err(disk_full(payload.len() as u64));
        }
        if self.hit(FaultSite::TornWrite).is_err() {
            payload.truncate(payload.len() / 2);
        }
        if self.hit(FaultSite::BitFlip).is_err() {
            let mid = payload.len() / 2;
            if let Some(b) = payload.get_mut(mid) {
                *b ^= 0x10;
            }
        }
        let file_bytes = payload.len() as u64;
        if self.durable && self.hit(FaultSite::FsyncFail).is_err() {
            return Err(Error::SpillUnavailable {
                region: label.to_string(),
                message: "fsync failed; temp file discarded".to_string(),
            });
        }
        let path = self.next_path(label);
        write_atomic(&path, &payload, self.durable, &self.metrics)
            .map_err(|e| map_write_error(label, e, file_bytes))?;
        self.metrics.spill_events.add(1);
        self.metrics.spill_bytes_written.add(file_bytes);
        Ok(SpillHandle { path, file_bytes })
    }

    fn load(&self, handle: &SpillHandle, label: &str) -> Result<Vec<u8>> {
        self.hit(FaultSite::SpillRead)?;
        match std::fs::read(&handle.path) {
            Ok(bytes) => {
                self.metrics.spill_bytes_read.add(bytes.len() as u64);
                Ok(bytes)
            }
            // A missing or unreadable file is lost on-disk state, exactly
            // like a corrupt one: transient, recovery falls back.
            Err(e) => {
                self.metrics.durability_corrupt.add(1);
                Err(Error::StorageCorrupt {
                    region: label.to_string(),
                    message: format!("spill file unreadable: {e}"),
                })
            }
        }
    }

    /// Count the outcome of a verified decode: every fully checked read
    /// counts as verified, every detected corruption as corrupt (the
    /// `durability:` line in EXPLAIN ANALYZE).
    fn note_decode<T>(&self, decoded: Result<T>) -> Result<T> {
        match &decoded {
            Ok(_) => self.metrics.durability_verified.add(1),
            Err(Error::StorageCorrupt { .. }) => self.metrics.durability_corrupt.add(1),
            Err(_) => {}
        }
        decoded
    }

    /// Serialize a partitioned table to a spill file.
    pub fn write_partitioned(&self, label: &str, data: &Partitioned) -> Result<SpillHandle> {
        let mut buf = header();
        encode_partitioned(&mut buf, data);
        self.persist(label, buf)
    }

    /// Read a partitioned table back from its spill file, verifying every
    /// checksum along the way.
    pub fn read_partitioned(&self, handle: &SpillHandle, label: &str) -> Result<Partitioned> {
        let bytes = self.load(handle, label)?;
        self.note_decode(decode_partitioned_bytes(&bytes, label))
    }

    /// Serialize a whole loop checkpoint (counters + named tables).
    pub fn write_checkpoint(&self, label: &str, ckpt: &LoopCheckpoint) -> Result<SpillHandle> {
        let mut buf = header();
        put_u64(&mut buf, ckpt.iteration);
        put_u64(&mut buf, ckpt.cumulative_updates);
        put_u32(&mut buf, ckpt.tables.len() as u32);
        for (name, data) in &ckpt.tables {
            put_str(&mut buf, name);
            encode_partitioned(&mut buf, data);
        }
        self.persist(label, buf)
    }

    /// Read a loop checkpoint back from its spill file, verifying every
    /// checksum along the way.
    pub fn read_checkpoint(&self, handle: &SpillHandle, label: &str) -> Result<LoopCheckpoint> {
        let bytes = self.load(handle, label)?;
        self.note_decode(decode_checkpoint_bytes(&bytes, label))
    }
}

/// Read and fully verify a partitioned table directly from `path`, without
/// a [`SpillManager`] or [`SpillHandle`]. The restart adoption pass uses
/// this to rehydrate a *dead* process's files — there is no live handle to
/// own them, and they must be read before orphan GC reclaims them. Any
/// failure (unreadable, torn, truncated, bit-rotted) is the typed
/// [`Error::StorageCorrupt`], never silently wrong rows.
pub fn read_partitioned_file(path: &Path, label: &str) -> Result<Partitioned> {
    decode_partitioned_bytes(&read_file(path, label)?, label)
}

/// Read and fully verify a loop checkpoint directly from `path` (see
/// [`read_partitioned_file`] for why this exists handle-free).
pub fn read_checkpoint_file(path: &Path, label: &str) -> Result<LoopCheckpoint> {
    decode_checkpoint_bytes(&read_file(path, label)?, label)
}

fn read_file(path: &Path, label: &str) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| Error::StorageCorrupt {
        region: label.to_string(),
        message: format!("spill file unreadable: {e}"),
    })
}

fn decode_partitioned_bytes(bytes: &[u8], label: &str) -> Result<Partitioned> {
    let mut r = Reader::new(bytes, label)?;
    r.header()?;
    let data = r.partitioned()?;
    r.finish()?;
    Ok(data)
}

fn decode_checkpoint_bytes(bytes: &[u8], label: &str) -> Result<LoopCheckpoint> {
    let mut r = Reader::new(bytes, label)?;
    r.header()?;
    let iteration = r.u64()?;
    let cumulative_updates = r.u64()?;
    let n_tables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.str()?;
        let data = r.partitioned()?;
        tables.push((name, data));
    }
    r.finish()?;
    Ok(LoopCheckpoint {
        iteration,
        cumulative_updates,
        tables,
    })
}

fn disk_full(bytes: u64) -> Error {
    Error::ResourceExhausted {
        resource: "spill_disk".to_string(),
        used: bytes,
        limit: 0,
    }
}

/// ENOSPC degrades to the PR-4 fail-fast budget semantics
/// (`ResourceExhausted`, fatal) instead of aborting the process or
/// looping retries against a full disk; everything else is the transient
/// `SpillUnavailable`.
fn map_write_error(label: &str, e: std::io::Error, bytes: u64) -> Error {
    if e.raw_os_error() == Some(28) {
        return disk_full(bytes);
    }
    Error::SpillUnavailable {
        region: label.to_string(),
        message: e.to_string(),
    }
}

// ---- encoding ----------------------------------------------------------

pub(crate) fn header() -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u32(&mut buf, 0); // flags, reserved
    buf
}

/// Append the whole-file trailer: body length + body checksum + seal
/// magic. Verification order on read is the reverse — magic (torn
/// write?), length (truncation?), checksum (bit rot?).
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let body_len = buf.len() as u64;
    let sum = xxh64(buf);
    put_u64(buf, body_len);
    put_u64(buf, sum);
    buf.extend_from_slice(TRAILER_MAGIC);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Null => 4,
    }
}

fn put_cell(buf: &mut Vec<u8>, cell: Cell<'_>) {
    match cell {
        Cell::Null => buf.push(0),
        Cell::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Cell::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Cell::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Cell::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(b));
        }
    }
}

fn encode_partitioned(buf: &mut Vec<u8>, data: &Partitioned) {
    let fields = data.schema.fields();
    put_u32(buf, fields.len() as u32);
    for f in fields {
        put_str(buf, &f.name);
        buf.push(dtype_tag(f.data_type));
        put_opt_str(buf, f.relation.as_deref());
    }
    put_u32(buf, data.parts.len() as u32);
    for part in &data.parts {
        // Each partition's byte range is individually checksummed so a
        // verified read never hands back a partition the disk mangled.
        let start = buf.len();
        // The body is row-major, as it was when partitions were rows:
        // files written before and after read alike.
        put_u64(buf, part.rows() as u64);
        for row in 0..part.rows() {
            for column in part.columns() {
                put_cell(buf, column.cell(row));
            }
        }
        let sum = xxh64(&buf[start..]);
        put_u64(buf, sum);
    }
}

// ---- decoding ----------------------------------------------------------

pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    label: &'a str,
}

impl<'a> Reader<'a> {
    /// Verify the trailer before parsing a single body byte: seal magic
    /// present (else torn write), recorded body length matches (else
    /// truncation), whole-body checksum matches (else bit rot). The
    /// returned reader only ever sees the verified body.
    pub(crate) fn new(bytes: &'a [u8], label: &'a str) -> Result<Self> {
        let corrupt = |pos: usize, what: &str| Error::StorageCorrupt {
            region: label.to_string(),
            message: format!("corrupt spill file: {what} at offset {pos}"),
        };
        if bytes.len() < TRAILER_LEN {
            return Err(corrupt(bytes.len(), "truncated before trailer"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
        if &trailer[16..24] != TRAILER_MAGIC {
            return Err(corrupt(bytes.len(), "missing trailer seal (torn write)"));
        }
        if read_u64(&trailer[0..8]) != body.len() as u64 {
            return Err(corrupt(body.len(), "trailer length mismatch (truncated)"));
        }
        if xxh64(body) != read_u64(&trailer[8..16]) {
            return Err(corrupt(0, "whole-file checksum mismatch"));
        }
        Ok(Reader {
            bytes: body,
            pos: 0,
            label,
        })
    }

    fn corrupt(&self, what: &str) -> Error {
        Error::StorageCorrupt {
            region: self.label.to_string(),
            message: format!("corrupt spill file: {what} at offset {}", self.pos),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.corrupt("truncated"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn header(&mut self) -> Result<()> {
        if self.take(8)? != MAGIC {
            return Err(self.corrupt("bad magic"));
        }
        let version = self.u32()?;
        if version != VERSION {
            return Err(self.corrupt("unsupported version"));
        }
        let flags = self.u32()?;
        if flags != 0 {
            return Err(self.corrupt("unsupported flags"));
        }
        Ok(())
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid utf8"))
    }

    fn opt_str(&mut self) -> Result<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(self.corrupt("bad option tag")),
        }
    }

    fn dtype(&mut self) -> Result<DataType> {
        Ok(match self.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Text,
            3 => DataType::Bool,
            4 => DataType::Null,
            _ => return Err(self.corrupt("bad type tag")),
        })
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().expect("8"))),
            2 => Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8"),
            ))),
            3 => Value::Text(self.str()?),
            4 => Value::Bool(self.u8()? != 0),
            _ => return Err(self.corrupt("bad value tag")),
        })
    }

    fn partitioned(&mut self) -> Result<Partitioned> {
        let n_fields = self.u32()? as usize;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let name = self.str()?;
            let data_type = self.dtype()?;
            let relation = self.opt_str()?;
            let field = match relation {
                Some(r) => Field::qualified(r, name, data_type),
                None => Field::new(name, data_type),
            };
            fields.push(field);
        }
        let schema: SchemaRef = Arc::new(Schema::new(fields));
        let n_parts = self.u32()? as usize;
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let start = self.pos;
            let n_rows = self.u64()? as usize;
            let mut columns = vec![Column::new(); n_fields];
            for _ in 0..n_rows {
                for column in &mut columns {
                    // Checked before the checksum is: a flipped tag byte
                    // (INT and FLOAT cells are both 8 bytes) must not reach
                    // a column of the other type.
                    let value = self.value()?;
                    let held = column.data_type();
                    if !(value.is_null() || held == DataType::Null || held == value.data_type()) {
                        return Err(self.corrupt("cell disagrees with its column"));
                    }
                    column.push(value);
                }
            }
            let sum = xxh64(&self.bytes[start..self.pos]);
            if self.u64()? != sum {
                return Err(self.corrupt("partition checksum mismatch"));
            }
            let columns = columns.into_iter().map(Arc::new).collect();
            parts.push(Arc::new(Block::new(columns, n_rows)));
        }
        // The file does not record placement.
        Ok(Partitioned {
            schema,
            parts,
            placed_on: PlacedOn::UNKNOWN,
        })
    }

    pub(crate) fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, Row};

    /// What is in each partition, to the bit (`Value`'s `Eq` would let
    /// `2` pass for `2.0`).
    fn layout(data: &Partitioned) -> String {
        let parts: Vec<Vec<Row>> = data.parts.iter().map(|p| p.to_rows()).collect();
        format!("{parts:?}")
    }

    fn manager() -> SpillManager {
        SpillManager::new(std::env::temp_dir(), Arc::new(MemoryMetrics::new()), None)
    }

    fn sample() -> Partitioned {
        let schema = Arc::new(Schema::new(vec![
            Field::qualified("t", "k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Text),
            Field::new("b", DataType::Bool),
            Field::new("n", DataType::Null),
        ]));
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                row_of([
                    Value::Int(i),
                    Value::Float(i as f64 * 0.5),
                    Value::Text(format!("row {i} \"quoted\"")),
                    Value::Bool(i % 2 == 0),
                    Value::Null,
                ])
            })
            .collect();
        Partitioned::from_rows(schema, rows, Some(0), 3)
    }

    /// The rows of `testdata/golden_v2.spn`, which the row-partition
    /// engine wrote from them, partition by partition: typed
    /// columns with NULLs, `-0.0`, NaN, an all-NULL column, and a last
    /// column whose cells disagree — `m_cell(true)`; `m_cell(false)` types
    /// that column FLOAT instead, NULL where it held text.
    fn golden_rows(m_cell: impl Fn(i64, bool) -> Value) -> (SchemaRef, Vec<Vec<Row>>) {
        let schema = Arc::new(Schema::new(vec![
            Field::qualified("t", "k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Text),
            Field::new("b", DataType::Bool),
            Field::new("n", DataType::Null),
            Field::new("m", DataType::Float),
        ]));
        let row = |i: i64, m| {
            row_of([
                if i == 5 {
                    Value::Null
                } else {
                    Value::Int(i - 3)
                },
                match i {
                    2 => Value::Float(-0.0),
                    3 => Value::Float(f64::NAN),
                    4 => Value::Null,
                    _ => Value::Float(i as f64 * 0.5),
                },
                if i % 4 == 1 {
                    Value::Null
                } else {
                    Value::Text(format!("row {i} \"é\""))
                },
                Value::Bool(i % 2 == 0),
                Value::Null,
                m_cell(i, m),
            ])
        };
        // Placed as the file places them: by `k`, which tells the rows apart.
        let typed = Partitioned::from_rows(
            Arc::clone(&schema),
            (0..12).map(|i| row(i, false)).collect(),
            Some(0),
            3,
        );
        let parts = (typed.parts.iter())
            .map(|part| {
                let number = |r: &Row| r[0].as_i64().map_or(5, |k| k + 3);
                part.to_rows()
                    .iter()
                    .map(|r| row(number(r), true))
                    .collect()
            })
            .collect();
        (schema, parts)
    }

    /// Column `m` of the golden rows: `2`, `2.0` and `'two'` in turn, or
    /// as FLOAT.
    fn m_cell(i: i64, disagree: bool) -> Value {
        match (i % 3, disagree) {
            (0, true) => Value::Int(2),
            (2, true) => Value::Text("two".into()),
            (2, false) => Value::Null,
            _ => Value::Float(2.0),
        }
    }

    /// A spill file of `parts`, rows of `schema` that need not agree with
    /// its types, encoded a cell at a time as the format lays them out.
    fn encode_rows(schema: &Schema, parts: &[Vec<Row>]) -> Vec<u8> {
        let mut buf = header();
        put_u32(&mut buf, schema.len() as u32);
        for f in schema.fields() {
            put_str(&mut buf, &f.name);
            buf.push(dtype_tag(f.data_type));
            put_opt_str(&mut buf, f.relation.as_deref());
        }
        put_u32(&mut buf, parts.len() as u32);
        for rows in parts {
            let start = buf.len();
            put_u64(&mut buf, rows.len() as u64);
            rows.iter()
                .flat_map(|r| r.iter())
                .for_each(|v| put_cell(&mut buf, v.cell()));
            let sum = xxh64(&buf[start..]);
            put_u64(&mut buf, sum);
        }
        seal(&mut buf);
        buf
    }

    fn encode(data: &Partitioned) -> Vec<u8> {
        let mut buf = header();
        encode_partitioned(&mut buf, data);
        seal(&mut buf);
        buf
    }

    /// Column blocks changed nothing on disk: the golden file is the row
    /// engine's layout of its rows, and typed blocks encode to that layout
    /// and decode from it, byte for byte. The golden file itself holds a
    /// column whose cells disagree, which a column cannot hold: it is
    /// refused as corrupt.
    #[test]
    fn blocks_encode_to_the_row_engines_bytes() {
        let golden: &[u8] = include_bytes!("../testdata/golden_v2.spn");
        let (schema, parts) = golden_rows(m_cell);
        assert_eq!(encode_rows(&schema, &parts), golden);
        let refused = decode_partitioned_bytes(golden, "golden").map(|_| ());
        assert!(
            matches!(&refused, Err(Error::StorageCorrupt { message, .. }) if message.contains("disagrees")),
            "{refused:?}"
        );
        let (_, typed_parts) = golden_rows(|i, _| m_cell(i, false));
        let blocks = typed_parts
            .iter()
            .map(|rows| Arc::new(Block::from_rows(schema.len(), rows.clone())));
        let data = Partitioned {
            schema: Arc::clone(&schema),
            parts: blocks.collect(),
            placed_on: PlacedOn::UNKNOWN,
        };
        let bytes = encode(&data);
        assert_eq!(bytes, encode_rows(&schema, &typed_parts));
        let decoded = decode_partitioned_bytes(&bytes, "typed").unwrap();
        assert_eq!(decoded.schema, data.schema);
        assert_eq!(layout(&decoded), layout(&data));
        assert_eq!(encode(&decoded), bytes);
    }

    /// A file whose checksums all hold but whose column holds an INT cell
    /// and a FLOAT one (a flipped tag byte, or an older build's column) is
    /// corrupt, whichever cell comes first, and never reaches a column.
    #[test]
    fn a_column_that_disagrees_is_corrupt_though_its_checksums_hold() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        for cells in [
            [Value::Int(1), Value::Float(2.0)],
            [Value::Float(1.0), Value::Int(2)],
        ] {
            let parts = vec![cells.map(|c| row_of([c])).to_vec()];
            match decode_partitioned_bytes(&encode_rows(&schema, &parts), "x") {
                Err(Error::StorageCorrupt { region, message }) => {
                    assert_eq!(region, "x");
                    assert!(
                        message.contains("cell disagrees with its column"),
                        "{message}"
                    );
                }
                other => panic!("expected StorageCorrupt, got {other:?}"),
            }
        }
    }

    /// Reference test vectors from the XXH64 specification.
    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Exercise the ≥32-byte striped path and the 8/4/1-byte tails.
        let long: Vec<u8> = (0u8..=255).collect();
        let h = xxh64(&long);
        assert_eq!(h, xxh64(&long), "deterministic");
        assert_ne!(h, xxh64(&long[..255]), "length-sensitive");
    }

    #[test]
    fn partitioned_round_trip_preserves_layout_and_values() {
        let m = manager();
        let data = sample();
        let handle = m.write_partitioned("__cte_pr_1", &data).unwrap();
        assert!(handle.path().exists());
        assert!(handle.file_bytes() > 0);
        let back = m.read_partitioned(&handle, "__cte_pr_1").unwrap();
        assert_eq!(back.schema, data.schema);
        assert_eq!(back.parts.len(), data.parts.len());
        assert_eq!(
            layout(&back),
            layout(&data),
            "partition layout must survive the round trip"
        );
        let path = handle.path().to_path_buf();
        drop(handle);
        assert!(!path.exists(), "drop must delete the spill file");
    }

    #[test]
    fn checkpoint_round_trip() {
        let m = manager();
        let ckpt = LoopCheckpoint {
            iteration: 7,
            cumulative_updates: 99,
            tables: vec![
                ("__cte_pr_1".into(), sample()),
                ("__delta_pr".into(), sample()),
            ],
        };
        let handle = m.write_checkpoint("pr", &ckpt).unwrap();
        let back = m.read_checkpoint(&handle, "pr").unwrap();
        assert_eq!(back.iteration, 7);
        assert_eq!(back.cumulative_updates, 99);
        assert_eq!(back.tables.len(), 2);
        assert_eq!(back.tables[0].0, "__cte_pr_1");
        assert_eq!(layout(&back.tables[1].1), layout(&ckpt.tables[1].1));
    }

    #[test]
    fn metrics_count_bytes_both_ways() {
        let metrics = Arc::new(MemoryMetrics::new());
        let m = SpillManager::new(std::env::temp_dir(), Arc::clone(&metrics), None);
        let handle = m.write_partitioned("x", &sample()).unwrap();
        let _ = m.read_partitioned(&handle, "x").unwrap();
        let c = metrics.take();
        assert_eq!(c.spill_events, 1);
        assert_eq!(c.spill_bytes_written, handle.file_bytes());
        assert_eq!(c.spill_bytes_read, handle.file_bytes());
        assert_eq!(c.durability_verified, 1);
        assert_eq!(c.durability_corrupt, 0);
        assert_eq!(c.durability_fsyncs, 2, "data barrier + name barrier");
    }

    #[test]
    fn non_durable_manager_skips_fsync() {
        let env = SpillEnv::new(1, None, None).with_durable(false);
        let handle = env.manager.write_partitioned("x", &sample()).unwrap();
        let _ = env.manager.read_partitioned(&handle, "x").unwrap();
        assert_eq!(env.metrics().take().durability_fsyncs, 0);
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let m = manager();
        let handle = m.write_partitioned("x", &sample()).unwrap();
        std::fs::write(handle.path(), b"not a spill file").unwrap();
        match m.read_partitioned(&handle, "x") {
            Err(Error::StorageCorrupt { region, message }) => {
                assert_eq!(region, "x");
                assert!(message.contains("corrupt"), "{message}");
            }
            other => panic!("expected StorageCorrupt, got {other:?}"),
        }
        assert_eq!(m.metrics.take().durability_corrupt, 1);
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let m = manager();
        let handle = m.write_partitioned("x", &sample()).unwrap();
        std::fs::remove_file(handle.path()).unwrap();
        assert!(matches!(
            m.read_partitioned(&handle, "x"),
            Err(Error::StorageCorrupt { .. })
        ));
    }

    /// A vanished file (dir cleanup race) must not make the drop path
    /// misbehave.
    #[test]
    fn drop_tolerates_already_missing_file() {
        let m = manager();
        let handle = m.write_partitioned("x", &sample()).unwrap();
        std::fs::remove_file(handle.path()).unwrap();
        drop(handle);
    }

    #[derive(Debug)]
    struct AlwaysFail;
    impl SpillFaultHook for AlwaysFail {
        fn hit(&self, site: FaultSite) -> spinner_common::Result<()> {
            Err(Error::FaultInjected {
                site: site.name().to_string(),
            })
        }
    }

    #[test]
    fn fault_hook_aborts_before_any_io() {
        let m = SpillManager::new(
            std::env::temp_dir(),
            Arc::new(MemoryMetrics::new()),
            Some(Arc::new(AlwaysFail)),
        );
        let err = m.write_partitioned("x", &sample()).unwrap_err();
        assert!(matches!(err, Error::FaultInjected { .. }));
    }

    /// One adversarial hook that fires exactly one site, once.
    #[derive(Debug)]
    struct FireOnce(FaultSite, std::sync::atomic::AtomicBool);
    impl SpillFaultHook for FireOnce {
        fn hit(&self, site: FaultSite) -> spinner_common::Result<()> {
            if site == self.0 && !self.1.swap(true, Ordering::Relaxed) {
                return Err(Error::FaultInjected {
                    site: site.name().to_string(),
                });
            }
            Ok(())
        }
    }

    fn manager_firing(site: FaultSite) -> SpillManager {
        SpillManager::new(
            std::env::temp_dir(),
            Arc::new(MemoryMetrics::new()),
            Some(Arc::new(FireOnce(site, Default::default()))),
        )
    }

    #[test]
    fn torn_write_reports_success_but_read_detects_it() {
        let m = manager_firing(FaultSite::TornWrite);
        let handle = m.write_partitioned("x", &sample()).unwrap();
        assert!(matches!(
            m.read_partitioned(&handle, "x"),
            Err(Error::StorageCorrupt { .. })
        ));
    }

    #[test]
    fn bit_flip_reports_success_but_read_detects_it() {
        let m = manager_firing(FaultSite::BitFlip);
        let handle = m.write_partitioned("x", &sample()).unwrap();
        assert!(matches!(
            m.read_partitioned(&handle, "x"),
            Err(Error::StorageCorrupt { .. })
        ));
    }

    #[test]
    fn disk_full_degrades_to_resource_exhausted() {
        let m = manager_firing(FaultSite::DiskFull);
        match m.write_partitioned("x", &sample()) {
            Err(Error::ResourceExhausted { resource, .. }) => {
                assert_eq!(resource, "spill_disk");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn fsync_fail_discards_the_temp_file() {
        let m = manager_firing(FaultSite::FsyncFail);
        let err = m.write_partitioned("x", &sample()).unwrap_err();
        assert!(matches!(err, Error::SpillUnavailable { .. }), "{err:?}");
        // No temp or final file may survive the failed sync.
        let leaked = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with(&format!("spinner_spill_{}_{}_", std::process::id(), m.tag))
            })
            .count();
        assert_eq!(leaked, 0, "failed fsync must not leak files");
    }
}
