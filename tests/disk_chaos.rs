//! Disk-as-a-failure-domain suite: the spill/checkpoint layer must
//! *detect* every corruption (bit rot, torn writes, truncation, missing
//! files) as a typed `StorageCorrupt`, *recover* from it (fall back to
//! the previous checkpoint epoch, recompute invalidated regions) and
//! *degrade* honestly (ENOSPC is a fail-fast `ResourceExhausted`) —
//! byte-identical results or a typed error, never a silent wrong answer.
//!
//! Storage-level tests drive the codec and the epoch store directly;
//! engine-level tests run the adversarial fault matrix end to end
//! through iterative queries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spinner_common::{row_of, DataType, Field, MemoryMetrics, Row, Schema, SchemaRef, Value};
use spinner_engine::{Database, EngineConfig, Error, FaultConfig, FaultSite};
use spinner_storage::{
    gc_orphans, CheckpointStore, LoopCheckpoint, Partitioned, SpillEnv, SpillManager,
};

mod common;
use common::leaves_nothing_tracked;

/// Deterministic PCG-style generator — no external crates, reproducible
/// failures.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A fresh scratch directory under the OS temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spinner_chaos_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chaos_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::qualified("t", "k", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Text),
        Field::new("b", DataType::Bool),
        Field::new("n", DataType::Null),
    ]))
}

/// A random row exercising every value tag: negative ints, quarter
/// floats, NULL-heavy columns, empty / long / multi-byte strings.
fn random_row(rng: &mut Lcg) -> Row {
    let text = match rng.below(4) {
        0 => String::new(),
        1 => "λαβύρινθος \"quoted\"\n".to_string(),
        2 => "x".repeat(rng.below(300) as usize),
        _ => format!("row {}", rng.next()),
    };
    row_of([
        if rng.below(5) == 0 {
            Value::Null
        } else {
            Value::Int(rng.next() as i64)
        },
        Value::Float((rng.next() as i64 % 1_000) as f64 * 0.25),
        Value::Text(text),
        Value::Bool(rng.below(2) == 0),
        Value::Null,
    ])
}

fn random_table(rng: &mut Lcg) -> Partitioned {
    let rows: Vec<Row> = (0..rng.below(24)).map(|_| random_row(rng)).collect();
    let parts = 1 + rng.below(4) as usize;
    let key = if rng.below(3) == 0 { None } else { Some(0) };
    Partitioned::from_rows(chaos_schema(), rows, key, parts)
}

fn manager_in(dir: &Path) -> SpillManager {
    SpillManager::new(dir.to_path_buf(), Arc::new(MemoryMetrics::new()), None)
}

/// The `.spn` spill files in `dir`, newest sequence number last.
fn spill_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spn"))
        .collect();
    // Names are `spinner_spill_{pid}_{tag}_{seq}_{label}.spn`; the
    // per-manager sequence number orders writes.
    let seq = |p: &Path| -> u64 {
        p.file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.split('_').nth(4))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };
    files.sort_by_key(|p| seq(p));
    files
}

/// Tentpole codec property: random partitioned tables survive the
/// round trip bit-for-bit, and EVERY single-byte mutation of the file —
/// header, body, per-partition checksum, trailer — is detected as a
/// typed `StorageCorrupt`, never decoded into wrong rows.
#[test]
fn codec_round_trips_and_detects_every_single_byte_mutation() {
    let dir = scratch("codec");
    let m = manager_in(&dir);
    let mut rng = Lcg(0xD15C_CAFE);

    // Property sweep: 32 random tables (empty ones included) round-trip.
    for case in 0..32 {
        let data = random_table(&mut rng);
        let label = format!("case_{case}");
        let handle = m.write_partitioned(&label, &data).unwrap();
        let back = m.read_partitioned(&handle, &label).unwrap();
        assert_eq!(back.schema, data.schema, "case {case}: schema drifted");
        let layout = |p: &Partitioned| -> Vec<_> { p.parts.iter().map(|b| b.to_rows()).collect() };
        assert_eq!(
            format!("{:?}", layout(&back)),
            format!("{:?}", layout(&data)),
            "case {case}: rows/layout drifted"
        );
    }

    // Exhaustive mutation sweep over one representative file.
    let data = random_table(&mut rng);
    let handle = m.write_partitioned("mutation_target", &data).unwrap();
    let original = std::fs::read(handle.path()).unwrap();
    assert!(original.len() > 64, "need a non-trivial file to sweep");
    let mut detected = 0usize;
    for i in 0..original.len() {
        for flip in [0x01u8, 0xFF] {
            let mut mutated = original.clone();
            mutated[i] ^= flip;
            std::fs::write(handle.path(), &mutated).unwrap();
            match m.read_partitioned(&handle, "mutation_target") {
                Err(Error::StorageCorrupt { region, message }) => {
                    assert_eq!(region, "mutation_target");
                    assert!(!message.is_empty());
                    detected += 1;
                }
                Ok(_) => panic!("byte {i} flip {flip:#x}: corruption decoded silently"),
                Err(other) => panic!("byte {i} flip {flip:#x}: untyped failure {other:?}"),
            }
        }
    }
    assert_eq!(detected, original.len() * 2, "detection rate below 100%");

    // Truncation at every interesting boundary, the empty file, and the
    // vanished file are all the same typed error.
    for cut in [0, 1, 7, original.len() / 2, original.len() - 1] {
        std::fs::write(handle.path(), &original[..cut]).unwrap();
        assert!(
            matches!(
                m.read_partitioned(&handle, "mutation_target"),
                Err(Error::StorageCorrupt { .. })
            ),
            "truncation to {cut} bytes not detected"
        );
    }
    std::fs::remove_file(handle.path()).unwrap();
    assert!(matches!(
        m.read_partitioned(&handle, "mutation_target"),
        Err(Error::StorageCorrupt { .. })
    ));

    // Restore so the handle's drop has its file back, then clean up.
    std::fs::write(handle.path(), &original).unwrap();
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

fn ckpt(iteration: u64, rows: &[(i64, i64)]) -> LoopCheckpoint {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ]));
    let rows: Vec<Row> = rows
        .iter()
        .map(|&(k, v)| row_of([Value::Int(k), Value::Int(v)]))
        .collect();
    LoopCheckpoint {
        iteration,
        cumulative_updates: iteration * 10,
        tables: vec![(
            "__cte_t".into(),
            Partitioned::from_rows(schema, rows, Some(0), 2),
        )],
    }
}

/// Crash matrix, storage level: with two epochs on disk, corrupting the
/// newest falls back to the previous epoch byte-identically; corrupting
/// both is a typed `StorageCorrupt`, never `Ok(None)` (which the
/// executor would escalate as "nothing to roll back to").
#[test]
fn corrupt_checkpoint_epoch_falls_back_then_fails_typed() {
    let dir = scratch("epochs");
    let store = CheckpointStore::new(Some(Arc::new(SpillEnv::new(1, dir.to_str(), None))));
    let epoch1_rows = [(1, 10), (2, 20), (3, 30)];
    store.save("loop", ckpt(4, &epoch1_rows));
    store.save("loop", ckpt(8, &[(1, 11), (2, 21), (3, 31)]));
    assert!(store.spill_entry("loop").unwrap(), "both epochs must spill");
    assert_eq!(store.spilled_count(), 2);

    let files = spill_files(&dir);
    assert_eq!(files.len(), 2, "expected one file per retained epoch");
    // Mangle the NEWEST epoch's file: simulated bit rot after a clean
    // shutdown. Recovery must land on the previous epoch. (spill_entry
    // writes the current epoch first, so it holds the lower sequence
    // number.)
    std::fs::write(&files[0], b"bit rot").unwrap();
    let back = store
        .latest("loop")
        .unwrap()
        .expect("previous epoch must survive");
    assert_eq!(back.iteration, 4);
    assert_eq!(back.cumulative_updates, 40);
    let mut rows: Vec<Row> = back.tables[0].1.gather();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let expected: Vec<Row> = epoch1_rows
        .iter()
        .map(|&(k, v)| row_of([Value::Int(k), Value::Int(v)]))
        .collect();
    assert_eq!(rows, expected, "fallback epoch must be byte-identical");
    assert_eq!(store.current_epoch("loop"), Some(1));

    // Second store, both epochs rotted: the typed error propagates so
    // the recovery loop can account for it — not a silent empty result.
    let dir2 = scratch("epochs_all_bad");
    let store2 = CheckpointStore::new(Some(Arc::new(SpillEnv::new(1, dir2.to_str(), None))));
    store2.save("loop", ckpt(4, &epoch1_rows));
    store2.save("loop", ckpt(8, &epoch1_rows));
    assert!(store2.spill_entry("loop").unwrap());
    for file in spill_files(&dir2) {
        std::fs::write(&file, b"bit rot").unwrap();
    }
    assert!(matches!(
        store2.latest("loop"),
        Err(Error::StorageCorrupt { .. })
    ));

    store.clear();
    store2.clear();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Orphan GC: files left by dead processes — including the manifest
/// sidecars of binaries that still wrote one — are reclaimed; files owned
/// by live processes (ours) are untouched.
#[test]
fn orphan_gc_reclaims_dead_process_files_only() {
    let dir = scratch("gc");
    // A pid far above any real pid_max: guaranteed dead.
    let dead = "spinner_spill_999999999_0_0_orphan.spn";
    let dead_mft = "spinner_manifest_999999999_0.mft";
    let live = format!("spinner_spill_{}_7_0_keep.spn", std::process::id());
    for name in [dead, dead_mft, live.as_str()] {
        std::fs::write(dir.join(name), b"payload").unwrap();
    }
    let reclaimed = gc_orphans(&dir);
    assert_eq!(reclaimed, 2, "exactly the two dead-pid files");
    assert!(!dir.join(dead).exists());
    assert!(!dir.join(dead_mft).exists());
    assert!(dir.join(&live).exists(), "live-pid file must survive GC");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A simple iterative CTE touching spill, checkpoint and rename sites.
fn counting_cte(iterations: u64) -> String {
    format!(
        "WITH ITERATIVE t (k, v) AS (
             SELECT src, 0 FROM edges
         ITERATE SELECT k, v + 1 FROM t
         UNTIL {iterations} ITERATIONS)
         SELECT * FROM t"
    )
}

fn db_with_edges(config: EngineConfig) -> Database {
    let db = Database::new(config).unwrap();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute(
        "INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 5.0), \
         (4, 1, 1.0)",
    )
    .unwrap();
    db
}

fn sorted_rows(batch: &spinner_engine::Batch) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batch.rows().iter().map(|r| r.to_vec()).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

/// Tentpole crash matrix, engine level: adversarial disk faults
/// (`TornWrite`/`BitFlip` lie about success; `DiskFull`/`FsyncFail`
/// fail at the barrier) × fire position, under forced spill with
/// checkpoints and recovery. Every cell must end in rows identical to
/// the clean run or a typed error — never a silent wrong answer — and
/// the database must stay usable afterwards.
#[test]
fn adversarial_disk_fault_matrix_never_returns_wrong_rows() {
    let sql = counting_cte(6);
    let expected = {
        let db = db_with_edges(EngineConfig::default());
        db.query(&sql).unwrap()
    };
    for site in [
        FaultSite::TornWrite,
        FaultSite::BitFlip,
        FaultSite::DiskFull,
        FaultSite::FsyncFail,
    ] {
        for nth in [1, 2, 3] {
            let db = db_with_edges(
                EngineConfig::default()
                    .with_spill_threshold_bytes(1)
                    .with_checkpoint_interval(2)
                    .with_max_partition_retries(2)
                    .with_max_loop_recoveries(3)
                    .with_fault(FaultConfig::fail_nth(site, nth)),
            );
            match leaves_nothing_tracked(&db, || db.query(&sql)) {
                Ok(batch) => assert_eq!(
                    sorted_rows(&batch),
                    sorted_rows(&expected),
                    "site={site:?}, nth={nth}: WRONG rows"
                ),
                Err(
                    Error::StorageCorrupt { .. }
                    | Error::SpillUnavailable { .. }
                    | Error::RecoveryExhausted { .. }
                    | Error::FaultInjected { .. }
                    | Error::ResourceExhausted { .. },
                ) => {}
                Err(other) => panic!("site={site:?}, nth={nth}: untyped failure {other:?}"),
            }
            // The fault fired once; the database must serve the next
            // statement normally.
            let count = db.query("SELECT COUNT(*) FROM edges").unwrap();
            assert_eq!(count.rows()[0][0], Value::Int(5));
        }
    }
}

/// A full disk is not a corruption and not retryable noise: it degrades
/// to the fail-fast `ResourceExhausted` contract from the admission
/// work, with the typed `spill_disk` resource tag. The loop checkpoints
/// every iteration, so the first write is its snapshot's.
#[test]
fn disk_full_degrades_to_fail_fast_resource_exhausted() {
    let db = db_with_edges(
        EngineConfig::default()
            .with_spill_threshold_bytes(1)
            .with_checkpoint_interval(1)
            .with_fault(FaultConfig::fail_nth(FaultSite::DiskFull, 1)),
    );
    match db.query(&counting_cte(4)) {
        Err(Error::ResourceExhausted { resource, .. }) => assert_eq!(resource, "spill_disk"),
        other => panic!("expected fail-fast ResourceExhausted, got {other:?}"),
    }
    // Fail fast, not fail forever: the statement after the ENOSPC burst
    // succeeds.
    db.query(&counting_cte(4)).unwrap();
}

/// The durability story is observable: EXPLAIN ANALYZE surfaces epoch
/// commits, verified reads and fsync counts; turning `durable_spill`
/// off zeroes the fsyncs while the verified reads remain; the profile
/// JSON round-trips the block. Every fsync belongs to a data file (two
/// per write), and the directory holds no index beside the data files.
#[test]
fn explain_analyze_surfaces_durability_counters() {
    // An injected loop fault forces a rollback, so the run also READS a
    // checkpoint back — otherwise a clean run only ever writes spill
    // files and `verified` would stay 0.
    let sql = counting_cte(8);
    let dir = scratch("durability_counters");
    let chaos = |durable: bool| {
        EngineConfig::default()
            .with_spill_dir(dir.to_str().unwrap())
            .with_spill_threshold_bytes(1)
            .with_checkpoint_interval(2)
            .with_max_loop_recoveries(2)
            .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 5))
            .with_durable_spill(durable)
    };
    let durable = db_with_edges(chaos(true));
    let profile = durable.explain_analyze(&sql).unwrap();
    let d = &profile.durability;
    assert!(
        d.get("epochs") > 0,
        "checkpoint epochs must be committed: {d:?}"
    );
    assert!(
        d.get("verified") > 0,
        "spill reads must be checksum-verified: {d:?}"
    );
    assert_eq!(
        d.get("refsync"),
        2 * profile.spill.get("events"),
        "data barrier + name barrier per file written, nothing else: {d:?}"
    );
    let left_behind: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert!(
        left_behind.is_empty(),
        "a finished statement leaves no files, and the engine writes no \
         spinner_manifest_* sidecar: {left_behind:?}"
    );
    assert_eq!(
        d.get("corrupt_detected"),
        0,
        "clean run detected corruption"
    );
    let rendered = profile.render();
    assert!(
        rendered.contains("durability: epochs="),
        "missing durability line: {rendered}"
    );
    let json = profile.to_json();
    let durability = format!(
        "\"durability\":{{\"epochs\":{},\"verified\":{},\"corrupt_detected\":0,\"refsync\":{}}}",
        d.get("epochs"),
        d.get("verified"),
        d.get("refsync")
    );
    assert!(
        json.contains(&durability),
        "{durability} missing from {json}"
    );

    let relaxed = db_with_edges(chaos(false));
    let d = relaxed.explain_analyze(&sql).unwrap().durability;
    assert_eq!(
        d.get("refsync"),
        0,
        "non-durable mode must skip every fsync"
    );
    assert!(d.get("verified") > 0, "verification is not optional: {d:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
