//! Server front-end suite: the TCP protocol round-trips every result
//! shape, sessions isolate their guardrail overrides, overload is shed
//! with typed wire errors, dropped connections cancel their statement
//! and release their admission slot, network-path chaos (accept /
//! read / write faults) never wedges the server, and graceful drain
//! refuses new work while letting in-flight statements finish.
//!
//! Every test ends with the leak check: admission slots, temp results,
//! tracked memory regions and resident bytes all back to baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use spinner_datagen::{load_edges_into, load_vertex_status_into, GraphSpec};
use spinner_engine::{Database, EngineConfig, FaultConfig, FaultSite};
use spinner_procedural::queries::{ff, pagerank, sssp_convergent};
use spinner_server::{Client, Reply, Server};

/// Assert that a database holds no leaked per-statement state: no
/// admission slot occupied or queued, no temp results, and the memory
/// accountant back to its post-setup baseline.
fn assert_no_leaks(db: &Database, baseline_bytes: u64, baseline_regions: usize) {
    if let Some(ctrl) = db.admission() {
        // Shed or cancelled statements release their permits on the
        // error path; give stragglers a moment to unwind.
        assert!(
            ctrl.wait_idle(Duration::from_secs(10)),
            "admission controller still busy: {:?}",
            ctrl.snapshot()
        );
        let snap = ctrl.snapshot();
        assert_eq!(snap.active, 0, "leaked admission slot: {snap:?}");
        assert_eq!(snap.queued, 0, "leaked admission queue entry: {snap:?}");
    }
    assert_eq!(db.temp_result_count(), 0, "leaked temp results");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let bytes = db.resident_tracked_bytes();
        let regions = db.tracked_region_count();
        if bytes <= baseline_bytes && regions <= baseline_regions {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leaked tracked memory: {bytes} bytes / {regions} regions \
             (baseline {baseline_bytes} / {baseline_regions})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn server_with(config: EngineConfig) -> Server {
    let db = Arc::new(Database::new(config).unwrap());
    db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, NULL), (3, 'three')")
        .unwrap();
    Server::start(db, "127.0.0.1:0").unwrap()
}

/// An iterative statement that runs long enough to overlap other
/// clients but terminates on its own.
fn slow_cte(iterations: u64) -> String {
    format!(
        "WITH ITERATIVE x (k, v) AS (SELECT a, 0 FROM t \
         ITERATE SELECT k, v + 1 FROM x UNTIL {iterations} ITERATIONS) \
         SELECT COUNT(*) FROM x"
    )
}

#[test]
fn protocol_round_trips_every_result_shape() {
    let server = server_with(EngineConfig::default().with_max_concurrent_queries(2));
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert!(c.session_id() > 0);

    // Rows, including NULL cells and column names.
    let reply = c.query("SELECT a, b FROM t ORDER BY a").unwrap();
    match &reply {
        Reply::Rows { columns, rows } => {
            assert_eq!(columns, &["a".to_string(), "b".to_string()]);
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[1], vec![Some("2".into()), None]);
        }
        other => panic!("expected rows, got {other:?}"),
    }

    // DML, DDL, EXPLAIN, EXPLAIN ANALYZE and errors.
    assert_eq!(
        c.query("INSERT INTO t VALUES (4, 'four')").unwrap(),
        Reply::Affected(1)
    );
    assert_eq!(c.query("CREATE TABLE u (x INT)").unwrap(), Reply::Ddl);
    match c.query("EXPLAIN SELECT * FROM t").unwrap() {
        Reply::Text(text) => assert!(!text.is_empty()),
        other => panic!("expected text, got {other:?}"),
    }
    match c
        .query(&format!("EXPLAIN ANALYZE {}", slow_cte(3)))
        .unwrap()
    {
        Reply::Text(text) => assert!(text.contains("Total"), "profile text: {text}"),
        other => panic!("expected text, got {other:?}"),
    }
    match c.query("SELECT * FROM no_such_table").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, "table_not_found"),
        other => panic!("expected error, got {other:?}"),
    }
    // 20 KB of parentheses, 60,000 `UNION ALL` arms (≈ 1 MB) or 100,000
    // `+`s are parse errors, not a stack overflow in the connection's
    // thread — which would abort the process and take every session with
    // it. This one and a second one both keep answering.
    let deep = format!("SELECT {}1{}", "(".repeat(10_000), ")".repeat(10_000));
    let arms = vec!["SELECT 1"; 60_001].join(" UNION ALL ");
    let sums = format!("SELECT {}", vec!["1"; 100_001].join(" + "));
    for (sql, what) in [(deep, "nested"), (arms, "chains"), (sums, "chains")] {
        match c.query(&sql).unwrap() {
            Reply::Error { code, message } => {
                assert_eq!(code, "parse");
                assert!(message.contains(what), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
    let mut second = Client::connect(server.local_addr()).unwrap();
    for client in [&mut c, &mut second] {
        match client.query("SELECT 1").unwrap() {
            Reply::Rows { rows, .. } => assert_eq!(rows, vec![vec![Some("1".to_string())]]),
            other => panic!("expected rows, got {other:?}"),
        }
    }
    second.close().unwrap();

    c.close().unwrap();
    let db = Arc::clone(server.database());
    let (bytes, regions) = (db.resident_tracked_bytes(), db.tracked_region_count());
    server.shutdown(Duration::from_secs(5));
    assert_no_leaks(&db, bytes, regions);
}

#[test]
fn session_overrides_stay_per_connection() {
    let server = server_with(EngineConfig::default().with_max_concurrent_queries(2));
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    assert_ne!(a.session_id(), b.session_id());

    // Session A starves itself; session B on the same database is
    // untouched by A's override.
    assert_eq!(
        a.query("SET SESSION MAX_ROWS_MATERIALIZED = 1").unwrap(),
        Reply::Ddl
    );
    let starved = a.query(&slow_cte(4)).unwrap();
    assert_eq!(
        starved.error_code(),
        Some("resource_exhausted"),
        "got {starved:?}"
    );
    assert_eq!(b.query(&slow_cte(4)).unwrap().scalar_i64(), Some(3));

    // RESET restores A.
    a.query("RESET SESSION ALL").unwrap();
    assert_eq!(a.query(&slow_cte(4)).unwrap().scalar_i64(), Some(3));

    // A zero timeout is refused with a typed error, not applied.
    let refused = a.query("SET SESSION TIMEOUT_MS = 0").unwrap();
    assert_eq!(refused.error_code(), Some("invalid_config"), "{refused:?}");
    assert_eq!(
        a.query("SELECT COUNT(*) FROM t").unwrap().scalar_i64(),
        Some(3)
    );

    a.close().unwrap();
    b.close().unwrap();
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn overload_is_shed_with_typed_wire_errors() {
    // One slot, a one-deep queue, and a 100 ms admission timeout: while
    // a runaway statement hogs the slot, every probe must come back as
    // a typed shed (`admission_timeout` from the queue, `overloaded`
    // from queue overflow) — never wait unboundedly, never wedge.
    let server = server_with(
        EngineConfig::default()
            .with_max_concurrent_queries(1)
            .with_admission_queue_limit(1)
            .with_admission_timeout_ms(100)
            // Lift the iteration safety bound so the hog genuinely runs
            // until its session deadline, not until the loop limit.
            .with_max_iterations(1_000_000_000),
    );
    let addr = server.local_addr();
    let hog = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        // The runaway is bounded by its own session deadline, proving
        // the "shed or bounded" contract end to end.
        c.query("SET SESSION TIMEOUT_MS = 3000").unwrap();
        let reply = c.query(&slow_cte(100_000_000)).unwrap();
        c.close().unwrap();
        reply
    });
    // Let the hog claim the slot before probing.
    std::thread::sleep(Duration::from_millis(300));

    let mut shed = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while shed < 3 {
        assert!(Instant::now() < deadline, "never observed an overload shed");
        let mut c = Client::connect(addr).unwrap();
        match c.query("SELECT COUNT(*) FROM t").unwrap() {
            Reply::Error { code, message } => {
                assert!(
                    code == "overloaded" || code == "admission_timeout",
                    "unexpected shed code {code}: {message}"
                );
                shed += 1;
            }
            // The hog hit its deadline and the slot is free again.
            reply => assert_eq!(reply.scalar_i64(), Some(3)),
        }
        c.close().unwrap();
    }
    let hog_reply = hog.join().unwrap();
    assert_eq!(
        hog_reply.error_code(),
        Some("timeout"),
        "runaway was not deadline-bounded: {hog_reply:?}"
    );

    let db = Arc::clone(server.database());
    let snap = db.admission().unwrap().snapshot();
    assert!(snap.shed_total() >= 1, "sheds not counted: {snap:?}");
    server.shutdown(Duration::from_secs(5));
    assert_no_leaks(&db, u64::MAX, usize::MAX);
}

#[test]
fn killed_connection_cancels_its_statement_and_releases_the_slot() {
    let server = server_with(
        EngineConfig::default()
            .with_max_concurrent_queries(1)
            .with_admission_queue_limit(4)
            // The orphaned statement must still be looping when the
            // watcher cancels it, not stopped by the iteration bound.
            .with_max_iterations(1_000_000_000),
    );
    let db = Arc::clone(server.database());
    let (bytes, regions) = (db.resident_tracked_bytes(), db.tracked_region_count());
    let addr = server.local_addr();

    // The victim starts an effectively unbounded loop, then the client
    // vanishes without a close frame, mid-query.
    let mut victim = Client::connect(addr).unwrap();
    victim.query("SET SESSION TIMEOUT_MS = 60000").unwrap();
    victim.fire(&slow_cte(100_000_000)).unwrap();
    // Give the statement a beat to be admitted and start looping, then
    // slam the socket shut without reading the reply.
    std::thread::sleep(Duration::from_millis(150));
    victim.kill();

    // The sole admission slot must come back: a fresh client's query
    // succeeds once the watcher cancels the orphaned statement.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut probe = Client::connect(addr).unwrap();
        let reply = probe.query("SELECT COUNT(*) FROM t").unwrap();
        probe.close().unwrap();
        match reply {
            Reply::Rows { .. } => break,
            Reply::Error { ref code, .. }
                if code == "overloaded" || code == "admission_timeout" =>
            {
                assert!(
                    Instant::now() < deadline,
                    "killed connection never released its admission slot"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unexpected probe reply {other:?}"),
        }
    }

    server.shutdown(Duration::from_secs(5));
    assert_no_leaks(&db, bytes, regions);
}

#[test]
fn accept_and_session_faults_shed_connections_without_wedging() {
    // Deterministic chaos on the network path: the 1st accept, the 2nd
    // session read and the 2nd session write each fail once.
    let mut db = Database::new(EngineConfig::default()).unwrap();
    db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, NULL), (3, 'three')")
        .unwrap();
    db.set_config(
        EngineConfig::default()
            .with_max_concurrent_queries(2)
            .with_fault(FaultConfig::fail_nth(FaultSite::Accept, 1))
            .with_fault(FaultConfig::fail_nth(FaultSite::SessionRead, 2))
            .with_fault(FaultConfig::fail_nth(FaultSite::SessionWrite, 2)),
    )
    .unwrap();
    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Connection 1 is shed at the accept site: the server drops the
    // socket before greeting, so connect() fails reading the hello.
    assert!(Client::connect(addr).is_err(), "accept fault did not shed");

    // Later connections ride through read/write faults: each fault
    // kills one connection (typed teardown), never the server.
    let mut survived = 0;
    for _ in 0..8 {
        let Ok(mut c) = Client::connect(addr) else {
            continue;
        };
        match c.query("SELECT COUNT(*) FROM t") {
            Ok(reply) => {
                assert_eq!(reply.scalar_i64(), Some(3));
                survived += 1;
                let _ = c.close();
            }
            // Torn read or torn write: the connection died, by design.
            Err(_) => continue,
        }
    }
    assert!(
        survived >= 5,
        "server wedged after network faults: only {survived}/8 connections served"
    );

    server.shutdown(Duration::from_secs(5));
    assert_no_leaks(&db, u64::MAX, usize::MAX);
}

#[test]
fn graceful_drain_sheds_new_work_and_finishes_in_flight() {
    // The threshold makes the memory accountant track the loops' state
    // (without one it tracks nothing): three loops take about 1.2 KB, so
    // a region leaked per iteration would break the bound long before
    // the loops end.
    const SPILL_THRESHOLD: u64 = 2 << 10;
    let server = server_with(
        EngineConfig::default()
            .with_max_concurrent_queries(4)
            .with_admission_queue_limit(8)
            .with_spill_threshold_bytes(SPILL_THRESHOLD),
    );
    let db = Arc::clone(server.database());
    let (bytes, regions) = (db.resident_tracked_bytes(), db.tracked_region_count());
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let (db, done) = (Arc::clone(&db), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(db.resident_tracked_bytes());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        })
    };

    // Statements in flight when the drain starts (kept under the
    // default iteration bound so they terminate on their own)...
    let in_flight: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.query(&slow_cte(8_000))
            })
        })
        .collect();
    // ...must still finish; give them a moment to be admitted first.
    std::thread::sleep(Duration::from_millis(100));
    let draining = std::thread::spawn(move || server.shutdown(Duration::from_secs(30)));

    // A connection error is also acceptable: the socket may be torn
    // down right after the grace period expires.
    for handle in in_flight {
        if let Ok(reply) = handle.join().unwrap() {
            match reply {
                Reply::Rows { .. } => {}
                // If the drain won the race to the admission gate, the
                // typed shed signal is the acceptable alternative.
                Reply::Error { ref code, .. } if code == "shutting_down" => {}
                other => panic!("in-flight statement got {other:?}"),
            }
        }
    }
    draining.join().unwrap();
    done.store(true, Ordering::SeqCst);
    let peak = monitor.join().unwrap();
    assert!(peak > 0, "the accountant never saw the loops' state");
    assert!(
        peak <= 2 * SPILL_THRESHOLD,
        "resident state peaked at {peak} B (threshold {SPILL_THRESHOLD} B)"
    );

    // After drain: no slot leaked, memory is back to baseline, and the
    // server is gone.
    assert_no_leaks(&db, bytes, regions);
    assert!(
        Client::connect(addr).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn silent_connections_are_reaped_by_the_keepalive() {
    // Satellite: a half-open peer (client alive at the TCP level but
    // silent forever) is reaped once it idles past session_keepalive_ms,
    // while clients that keep issuing statements are untouched — the
    // idle budget resets on every frame.
    let server = server_with(
        EngineConfig::default()
            .with_max_concurrent_queries(2)
            .with_session_keepalive_ms(400),
    );
    let db = Arc::clone(server.database());
    let (bytes, regions) = (db.resident_tracked_bytes(), db.tracked_region_count());
    let addr = server.local_addr();

    // An active client paced just under the keepalive survives several
    // rounds: the deadline is per-frame, not per-connection-lifetime.
    let mut active = Client::connect(addr).unwrap();
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(
            active.query("SELECT COUNT(*) FROM t").unwrap().scalar_i64(),
            Some(3),
            "active client was reaped despite staying under the keepalive"
        );
    }
    active.close().unwrap();

    // A silent client is reaped: after idling past the keepalive the
    // server has closed the socket, so the next statement fails at the
    // wire (write error or torn reply), never with a served response.
    let mut idle = Client::connect(addr).unwrap();
    assert_eq!(
        idle.query("SELECT COUNT(*) FROM t").unwrap().scalar_i64(),
        Some(3)
    );
    std::thread::sleep(Duration::from_millis(1200));
    assert!(
        idle.query("SELECT COUNT(*) FROM t").is_err(),
        "silent connection was not reaped after the keepalive expired"
    );

    // The server itself is healthy: fresh clients are served normally.
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(
        fresh.query("SELECT COUNT(*) FROM t").unwrap().scalar_i64(),
        Some(3)
    );
    fresh.close().unwrap();

    server.shutdown(Duration::from_secs(5));
    assert_no_leaks(&db, bytes, regions);
}

/// The parts of a rendered profile that must not depend on what else the
/// server is running: the `pool:` and `iteration:` lines, every loop's
/// iteration count and every `moved=` figure.
fn statement_counters(profile_text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in profile_text.lines().map(str::trim) {
        if line.starts_with("pool:") || line.starts_with("iteration:") {
            out.push(line.to_string());
        } else {
            out.extend(
                line.split(['(', ',', ')'])
                    .map(str::trim)
                    .filter(|t| t.starts_with("moved=") || t.starts_with("iterations="))
                    .map(String::from),
            );
        }
    }
    out
}

#[test]
fn explain_analyze_is_unaffected_by_another_clients_statements() {
    // The TCP face of `concurrent_sessions_keep_their_own_counters`
    // (tests/mpp.rs): client A profiles iterative queries in a loop while
    // client B runs point statements; every profile must read like the
    // one the same query gets on an otherwise idle server.
    const ROUNDS: usize = 6;
    let db = Database::new(EngineConfig::default().with_spill_threshold_bytes(u64::MAX)).unwrap();
    let spec = GraphSpec {
        nodes: 150,
        edges: 700,
        seed: 23,
        max_weight: 10,
    };
    load_edges_into(&db, "edges", &spec).unwrap();
    load_vertex_status_into(&db, "vertexstatus", &spec, 0.8).unwrap();
    db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    db.execute("INSERT INTO kv VALUES (1, 0), (2, 0)").unwrap();
    let server = Server::start(Arc::new(db), "127.0.0.1:0").unwrap();
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();

    let mut profile = |sql: &str| match a.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
        Reply::Text(text) => statement_counters(&text),
        other => panic!("expected a profile, got {other:?}"),
    };
    let sqls = [
        pagerank(4, true).cte,
        sssp_convergent(1, None).cte,
        ff(4, 10).cte,
    ];
    let alone: Vec<_> = sqls.iter().map(|sql| profile(sql)).collect();
    assert!(
        alone[0].iter().any(|l| l.starts_with("pool:")),
        "PR-VS must report its join builds: {alone:?}"
    );

    /// Stops client B even if client A's side of the test panics.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let (mismatches, points) = std::thread::scope(|s| {
        let point = s.spawn(|| {
            start.wait();
            let mut statements = 0u64;
            while !done.load(Ordering::SeqCst) {
                assert!(b
                    .query("SELECT COUNT(*) FROM edges WHERE src = 7")
                    .unwrap()
                    .is_ok());
                assert!(b
                    .query("UPDATE kv SET v = v + 1 WHERE k = 1")
                    .unwrap()
                    .is_ok());
                statements += 2;
            }
            b.close().unwrap();
            statements
        });
        start.wait();
        let stop = StopOnDrop(&done);
        let mut mismatches = Vec::new();
        for _ in 0..ROUNDS {
            for (sql, want) in sqls.iter().zip(&alone) {
                let got = profile(sql);
                if got != *want {
                    mismatches.push(format!("{sql}: {got:?}, alone {want:?}"));
                }
            }
        }
        drop(stop);
        (mismatches, point.join().unwrap())
    });
    assert!(points > 0, "client B never overlapped the loops");
    assert!(
        mismatches.is_empty(),
        "profiles differ from the idle-server run:\n{}",
        mismatches.join("\n")
    );
    a.close().unwrap();
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn post_statement_leak_check_across_every_result_shape() {
    // Satellite: after EVERY statement — success, typed failure, shed —
    // temp results, accountant regions and resident bytes are back to
    // baseline and no admission slot is held.
    let server = server_with(
        EngineConfig::default()
            .with_max_concurrent_queries(2)
            .with_max_intermediate_bytes(1 << 30),
    );
    let db = Arc::clone(server.database());
    let baseline_bytes = db.resident_tracked_bytes();
    let baseline_regions = db.tracked_region_count();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let statements = [
        "SELECT a, b FROM t ORDER BY a",
        "INSERT INTO t VALUES (10, 'ten')",
        "EXPLAIN SELECT COUNT(*) FROM t",
        &slow_cte(50),
        &format!("EXPLAIN ANALYZE {}", slow_cte(10)),
        "SELECT * FROM no_such_table",
        "SET SESSION MAX_ROWS_MATERIALIZED = 1",
        &slow_cte(50), // now starved: typed failure path
        "RESET SESSION ALL",
    ];
    for sql in statements {
        let _ = c.query(sql).unwrap();
        assert_no_leaks(&db, baseline_bytes, baseline_regions);
    }

    c.close().unwrap();
    server.shutdown(Duration::from_secs(5));
    assert_no_leaks(&db, baseline_bytes, baseline_regions);
}
