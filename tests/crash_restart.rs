//! Crash-restart harness: SIGKILL-class process death at adversarial
//! positions, engine restart, resumed-query verification.
//!
//! Each scenario spawns a real `spinner-serve` child on a scratch spill
//! directory with `--resumable --checkpoint-interval 2` and a
//! deterministic `--crash-at SITE:N` self-inflicted abort (SIGKILL
//! semantics: no unwinding, no destructors — the journal, checkpoint
//! and input-snapshot files stay on disk exactly as a hard kill leaves
//! them). A client starts a long iterative statement, captures the
//! stable handle from the early `HANDLE` frame, and watches the
//! connection die. A second server on the same directory must adopt the
//! dead engine's journal, resume the statement from its newest durable
//! checkpoint epoch (falling back to the previous epoch when the newest
//! is corrupt), and serve the result to the reconnecting client's
//! `ATTACH` — row-identical to an uninterrupted run, with no more than
//! one checkpoint interval of iterations replayed.
//!
//! Swept crash positions:
//! - mid-iteration (`loop_iteration`)
//! - mid-checkpoint-write (`checkpoint`, `spill_write`)
//! - mid-epoch-commit (`epoch_commit` — checkpoint file on disk, the
//!   journal not yet naming it)
//! - newest-epoch corruption (bit flip after the crash → the adoption
//!   pass must fall back current → previous)

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use spinner_server::{Client, ReconnectPolicy, Reply};

mod common;

/// Iterations in the workload; with interval 2 this commits several
/// durable epochs before any crash position fires.
const ITERATIONS: u64 = 10;
const CHECKPOINT_INTERVAL: u64 = 2;

fn workload_sql() -> String {
    format!(
        "WITH ITERATIVE t (k, v) AS (
             SELECT src, 0 FROM edges
         ITERATE
             SELECT k, v + 1 FROM t
         UNTIL {ITERATIONS} ITERATIONS)
         SELECT * FROM t"
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spinner_crash_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One resumed-query line printed by a restarted server.
#[derive(Debug, Clone, Copy)]
struct Resumed {
    query_id: u64,
    adopted_epoch: u64,
    resumed_iteration: u64,
    replayed_iterations: u64,
    rows: u64,
}

struct ServeProc {
    child: Child,
    addr: String,
    resumed: Vec<Resumed>,
    skipped: Vec<String>,
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn field(line: &str, key: &str) -> u64 {
    line.split([' ', ':'])
        .filter_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= field in '{line}'"))
}

/// Spawn `spinner-serve` on an ephemeral port over `dir` and parse its
/// startup lines (skipped/resumed queries, then the listening line).
fn spawn_server(dir: &Path, extra: &[&str]) -> ServeProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spinner-serve"));
    cmd.arg("127.0.0.1:0")
        .args(["--spill-dir", dir.to_str().unwrap()])
        .arg("--resumable")
        .args(["--checkpoint-interval", &CHECKPOINT_INTERVAL.to_string()])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn spinner-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut resumed = Vec::new();
    let mut skipped = Vec::new();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("resumed query ") {
            let query_id = rest
                .split(':')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("query id");
            resumed.push(Resumed {
                query_id,
                adopted_epoch: field(&line, "adopted_epoch"),
                resumed_iteration: field(&line, "resumed_iteration"),
                replayed_iterations: field(&line, "replayed_iterations"),
                rows: field(&line, "rows"),
            });
        } else if line.starts_with("skipped query ") {
            skipped.push(line);
        } else if let Some(rest) = line.strip_prefix("spinner-server listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    ServeProc {
        child,
        addr,
        resumed,
        skipped,
    }
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(
        addr,
        ReconnectPolicy {
            max_attempts: 20,
            base_delay_ms: 25,
            max_delay_ms: 500,
        },
    )
    .expect("connect to spinner-serve")
}

fn load_edges(client: &mut Client) {
    let r = client
        .query("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    assert!(r.is_ok(), "DDL failed: {r:?}");
    let r = client
        .query(
            "INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 5.0), \
             (4, 1, 1.0), (5, 2, 2.0), (6, 5, 0.5)",
        )
        .unwrap();
    assert!(r.is_ok(), "INSERT failed: {r:?}");
}

fn sorted_rows(reply: &Reply) -> Vec<Vec<Option<String>>> {
    let mut rows = reply
        .rows()
        .unwrap_or_else(|| panic!("expected rows, got {reply:?}"))
        .to_vec();
    rows.sort();
    rows
}

/// The uninterrupted result every crash scenario must reproduce. Each
/// scenario gets a directory of its own: the tests of this file run side
/// by side, and `scratch` wipes the directory it hands out.
fn baseline_rows(name: &str, sql: &str) -> Vec<Vec<Option<String>>> {
    let dir = scratch(&format!("{name}_baseline"));
    let server = spawn_server(&dir, &[]);
    let mut client = connect(&server.addr);
    load_edges(&mut client);
    let reply = client.query(sql).unwrap();
    assert!(
        client.last_handle().is_some(),
        "resumable server must issue a handle for an iterative statement"
    );
    sorted_rows(&reply)
}

fn wait_for_exit(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server did not crash at {what} within 60s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Flip one payload byte in the most recently written checkpoint file —
/// the newest committed epoch — so adoption must detect the corruption
/// and fall back to the previous epoch.
/// Spill files are `spinner_spill_{pid}_{tag}_{n}_{label}.spn` with a
/// monotone per-statement sequence `n` — the only reliable newest-file
/// order (mtimes of back-to-back checkpoints can collide).
fn spill_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("spinner_spill_")?;
    rest.split('_').nth(2)?.parse().ok()
}

fn corrupt_newest_checkpoint(dir: &Path) {
    let checkpoints: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.contains("checkpoint") && name.ends_with(".spn")
        })
        .collect();
    // One file per retained epoch, forced spill or not: a spilled epoch
    // is its journaled file, not a second copy the journal does not name
    // (which is what this helper used to corrupt under forced spill).
    assert!(
        (1..=2).contains(&checkpoints.len()),
        "expected the two newest epochs' files, found {checkpoints:?}"
    );
    let newest = checkpoints
        .iter()
        .max_by_key(|e| spill_seq(&e.file_name().to_string_lossy()).unwrap_or(0))
        .expect("no checkpoint file to corrupt");
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(newest.path())
        .unwrap();
    let len = file.metadata().unwrap().len();
    assert!(len > 64, "checkpoint file too small to corrupt safely");
    let off = len / 2;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(off)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0x40;
    file.seek(SeekFrom::Start(off)).unwrap();
    file.write_all(&byte).unwrap();
    file.sync_all().unwrap();
}

/// Run one full crash → restart → attach cycle of `sql` and return the
/// resumed summary plus the rows fetched via ATTACH.
fn crash_cycle(
    name: &str,
    sql: &str,
    crash_at: &str,
    corrupt_newest: bool,
) -> (Resumed, Vec<Vec<Option<String>>>) {
    let dir = scratch(name);
    let server = spawn_server(&dir, &["--crash-at", crash_at]);
    assert!(server.resumed.is_empty(), "fresh dir adopted something");
    let mut client = connect(&server.addr);
    load_edges(&mut client);
    // The statement dies with the server; the early HANDLE frame must
    // already have delivered the stable handle.
    let err = client.query(sql);
    assert!(
        err.is_err(),
        "{name}: statement should die with the server, got {err:?}"
    );
    let handle = client
        .last_handle()
        .unwrap_or_else(|| panic!("{name}: no handle before the crash"));
    {
        let mut server = server;
        wait_for_exit(&mut server.child, crash_at);
        // Forget graceful-drop cleanup: the child is already dead.
        server.child.kill().ok();
    }
    if corrupt_newest {
        corrupt_newest_checkpoint(&dir);
    }
    // Restart over the same directory: the dead engine's journal must be
    // adopted and the query resumed before the listening line.
    let restarted = spawn_server(&dir, &[]);
    assert_eq!(
        restarted.resumed.len(),
        1,
        "{name}: expected exactly one resumed query, got {:?} (skipped: {:?})",
        restarted.resumed,
        restarted.skipped
    );
    let summary = restarted.resumed[0];
    assert_eq!(
        summary.query_id, handle,
        "{name}: handle changed across restart"
    );
    let mut client = connect(&restarted.addr);
    let reply = client.attach(handle).unwrap();
    assert!(reply.is_ok(), "{name}: attach({handle}) failed: {reply:?}");
    let rows = sorted_rows(&reply);
    assert_eq!(
        summary.rows as usize,
        rows.len(),
        "{name}: row count mismatch"
    );
    // One-shot: a second attach must yield the typed unknown_handle error.
    let again = client.attach(handle).unwrap();
    assert_eq!(
        again.error_code(),
        Some("unknown_handle"),
        "{name}: second attach must fail typed, got {again:?}"
    );
    (summary, rows)
}

fn assert_cycle(name: &str, sql: &str, crash_at: &str, corrupt_newest: bool) -> Resumed {
    let expected = baseline_rows(name, sql);
    let (summary, rows) = crash_cycle(name, sql, crash_at, corrupt_newest);
    assert_eq!(
        rows, expected,
        "{name}: resumed rows differ from uninterrupted run"
    );
    assert!(
        summary.adopted_epoch > 0,
        "{name}: no durable epoch adopted: {summary:?}"
    );
    assert!(
        summary.resumed_iteration > 0,
        "{name}: resumed from scratch, not from a checkpoint: {summary:?}"
    );
    assert!(
        summary.replayed_iterations <= CHECKPOINT_INTERVAL,
        "{name}: resume cost exceeds one checkpoint interval: {summary:?}"
    );
    summary
}

#[test]
fn crash_mid_iteration_resumes_row_identically() {
    // The 7th loop-iteration fault check: past several committed epochs,
    // before the final iteration.
    assert_cycle("mid_iteration", &workload_sql(), "loop_iteration:7", false);
}

#[test]
fn crash_mid_recursion_resumes_row_identically() {
    // A recursive CTE runs on the same driver, so the same kill works on
    // it: the closure of the harness graph takes 5 rounds, the 4th
    // loop-iteration check dies with the entry and iteration-2 epochs
    // committed, and the resumed run rebuilds its `UNION` dedup set from
    // the adopted table.
    let sql = common::closure_cte();
    let summary = assert_cycle("mid_recursion", &sql, "loop_iteration:4", false);
    assert_eq!(summary.resumed_iteration, 2, "{summary:?}");
}

#[test]
fn crash_mid_checkpoint_snapshot_resumes_row_identically() {
    // Abort while the third checkpoint snapshot (entry, iteration 2,
    // iteration 4) is being taken: two committed epochs exist.
    assert_cycle("mid_checkpoint", &workload_sql(), "checkpoint:3", false);
}

#[test]
fn crash_mid_spill_write_resumes_row_identically() {
    // Abort inside the sealed-file write path. `spill_write` counts every
    // file the spill manager writes, so under SPINNER_SPILL_THRESHOLD=1
    // (the CI `forced-spill` job's run; the children inherit it) the
    // per-iteration working-table spills sit between the checkpoint
    // writes. Hit 6 is past a committed loop checkpoint and before the
    // loop ends either way: without forced spill it is the iteration-8
    // checkpoint (input snapshot, then epochs 0/2/4/6 committed → resume
    // from 6); with it, the iteration-3 working-table spill (input, epoch
    // 0, two table spills, epoch 2 → resume from 2).
    let summary = assert_cycle("mid_spill_write", &workload_sql(), "spill_write:6", false);
    assert!(
        [2, 6].contains(&summary.resumed_iteration),
        "mid_spill_write: the crash position moved: {summary:?}"
    );
}

#[test]
fn crash_mid_epoch_commit_resumes_row_identically() {
    // The narrowest window: the third checkpoint file (iteration 4) is on
    // disk but the journal does not name it yet. Adoption goes by the
    // journal alone, so it resumes from the iteration-2 checkpoint and
    // the unnamed file is an orphan for GC.
    let summary = assert_cycle("mid_epoch_commit", &workload_sql(), "epoch_commit:3", false);
    assert_eq!(summary.resumed_iteration, 2, "{summary:?}");
}

#[test]
fn corrupt_newest_epoch_falls_back_to_previous() {
    let sql = workload_sql();
    let expected = baseline_rows("corrupt_fallback", &sql);
    let (summary, rows) = crash_cycle("corrupt_fallback", &sql, "loop_iteration:7", true);
    assert_eq!(
        rows, expected,
        "fallback: resumed rows differ from uninterrupted run"
    );
    // Falling back one epoch means the replay distance is exactly the
    // checkpoint interval — still within the resume-cost gate.
    assert!(
        summary.replayed_iterations > 0,
        "fallback: expected a non-zero replay distance: {summary:?}"
    );
    assert!(
        summary.replayed_iterations <= CHECKPOINT_INTERVAL,
        "fallback: resume cost exceeds one checkpoint interval: {summary:?}"
    );
}

/// The earliest crash a client can recover from: the server dies entering
/// its *first* iteration. The handle is pushed by the statement's own
/// thread once the journal entry is on disk, so the client already holds
/// it, and the only epoch is the loop-entry one — the restart re-runs the
/// whole loop and still answers the ATTACH.
#[test]
fn crash_entering_the_first_iteration_resumes_from_the_entry_epoch() {
    let sql = workload_sql();
    let expected = baseline_rows("first_iteration", &sql);
    let (summary, rows) = crash_cycle("first_iteration", &sql, "loop_iteration:1", false);
    assert_eq!(rows, expected, "resumed rows differ from uninterrupted run");
    // Only the loop-entry epoch existed: the whole loop re-runs.
    assert_eq!(summary.resumed_iteration, 0, "{summary:?}");
    assert_eq!(summary.replayed_iterations, 0, "{summary:?}");
}

#[test]
fn resumed_explain_analyze_reports_restart_counters() {
    let dir = scratch("explain_restart");
    let server = spawn_server(&dir, &["--crash-at", "loop_iteration:7"]);
    let mut client = connect(&server.addr);
    load_edges(&mut client);
    let sql = format!("EXPLAIN ANALYZE {}", workload_sql());
    assert!(
        client.query(&sql).is_err(),
        "statement should die with the server"
    );
    let handle = client.last_handle().expect("no handle before the crash");
    {
        let mut server = server;
        wait_for_exit(&mut server.child, "loop_iteration:7");
    }
    let restarted = spawn_server(&dir, &[]);
    assert_eq!(
        restarted.resumed.len(),
        1,
        "expected one resumed query (skipped: {:?})",
        restarted.skipped
    );
    let mut client = connect(&restarted.addr);
    let reply = client.attach(handle).unwrap();
    let Reply::Text(text) = reply else {
        panic!("expected the rendered profile, got {reply:?}");
    };
    // The acceptance line: the resumed profile must surface where the
    // statement came back to life.
    assert!(
        text.contains("restart: adopted_epoch="),
        "profile missing restart block:\n{text}"
    );
    assert!(
        text.contains("resumed_iteration=") && text.contains("replayed_iterations="),
        "profile restart block incomplete:\n{text}"
    );
    // Every checkpoint the resumed statement took is in its byte count,
    // the adopted epoch's re-save included. The table never changes size,
    // so an uninterrupted run prices one snapshot; the resumed run came
    // back at iteration 6 and took two: the adopted epoch, under its own
    // journal, and iteration 8.
    let baseline_dir = scratch("explain_restart_baseline");
    let baseline = spawn_server(&baseline_dir, &[]);
    let mut client = connect(&baseline.addr);
    load_edges(&mut client);
    let Reply::Text(uninterrupted) = client.query(&sql).unwrap() else {
        panic!("expected the rendered profile");
    };
    let (checkpoints, bytes) = checkpoint_line(&uninterrupted);
    assert_eq!(checkpoints, 5, "entry + iterations 2, 4, 6, 8");
    let snapshot = bytes / checkpoints;
    assert_eq!(
        checkpoint_line(&text),
        (2, 2 * snapshot),
        "resumed profile:\n{text}"
    );
}

/// `(checkpoints, bytes)` of a rendered profile's
/// `recovery: checkpoints=N (B B)` line.
fn checkpoint_line(profile: &str) -> (u64, u64) {
    let parsed = profile
        .split_once("recovery: checkpoints=")
        .and_then(|(_, rest)| rest.split_once(" B)"))
        .and_then(|(line, _)| line.split_once(" ("))
        .and_then(|(count, bytes)| Some((count.parse().ok()?, bytes.parse().ok()?)));
    parsed.unwrap_or_else(|| panic!("no checkpoint line in profile:\n{profile}"))
}

#[test]
fn sigterm_drains_gracefully_and_leaves_nothing_to_adopt() {
    let dir = scratch("graceful");
    let server = spawn_server(&dir, &[]);
    let mut client = connect(&server.addr);
    load_edges(&mut client);
    let reply = client.query(&workload_sql()).unwrap();
    assert!(reply.is_ok(), "workload failed: {reply:?}");
    // SIGTERM → graceful drain → exit 0, journal finished.
    let mut server = server;
    #[cfg(unix)]
    {
        let pid = server.child.id();
        let status = Command::new("kill")
            .args(["-TERM", &pid.to_string()])
            .status()
            .unwrap();
        assert!(status.success());
        wait_for_exit(&mut server.child, "SIGTERM");
    }
    #[cfg(not(unix))]
    {
        server.child.kill().unwrap();
        server.child.wait().unwrap();
    }
    // A restart over the same directory adopts nothing: every journal
    // entry was finished by the drain.
    let restarted = spawn_server(&dir, &[]);
    assert!(
        restarted.resumed.is_empty(),
        "graceful shutdown left journal entries: {:?}",
        restarted.resumed
    );
}
