//! Spill-to-disk suite: with a tiny `spill_threshold_bytes` every query
//! runs under artificial memory pressure, so intermediate state is
//! constantly written to spill files and rehydrated on access. Results
//! must be row-identical to in-memory runs, spill I/O faults must stay
//! typed-and-transient (absorbed by retry/rollback, never a wrong
//! answer), and the counters must tell the story in stats and
//! `EXPLAIN ANALYZE`.

use spinner_datagen::{load_edges_into, load_vertex_status_into, GraphSpec};
use spinner_engine::{
    Database, EngineConfig, Error, FaultConfig, FaultKind, FaultSite, QueryGuard, Value,
};
use spinner_procedural::{connected_components, pagerank, sssp, sssp_convergent};

mod common;
use common::{closure_cte, leaves_nothing_tracked, walk_cte};

/// Fresh database with the toy cyclic graph the engine tests use.
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

/// A simple iterative CTE touching materialize, rename and loop sites.
fn counting_cte(iterations: u64) -> String {
    format!(
        "WITH ITERATIVE t (k, v) AS (
             SELECT src, 0 FROM edges
         ITERATE SELECT k, v + 1 FROM t
         UNTIL {iterations} ITERATIONS)
         SELECT * FROM t"
    )
}

/// Adds the `vertexstatus` table the `*-VS` workloads join against —
/// the join the common-result rule regroups into a cached build side.
fn add_vertex_status(db: &Database) {
    db.execute("CREATE TABLE vertexstatus (node INT, status INT)")
        .unwrap();
    db.execute("INSERT INTO vertexstatus VALUES (1, 1), (2, 1), (3, 0), (4, 1)")
        .unwrap();
}

/// Rows of a batch, sorted, for order-insensitive comparison.
fn sorted_rows(batch: &spinner_engine::Batch) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batch.rows().iter().map(|r| r.to_vec()).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

/// Force-spill config: a 1-byte high-water mark spills every unprotected
/// region at every pressure check.
fn forced_spill() -> EngineConfig {
    EngineConfig::default().with_spill_threshold_bytes(1)
}

/// Config with spilling explicitly off, even when the CI forced-spill
/// env (`SPINNER_SPILL_THRESHOLD`) is set — for tests that pin down the
/// fail-fast budget semantics of spill-disabled sessions.
fn no_spill() -> EngineConfig {
    EngineConfig {
        spill_threshold_bytes: None,
        ..EngineConfig::default()
    }
}

/// The tentpole acceptance: PageRank and SSSP under a 1-byte threshold
/// produce rows identical to the unconstrained in-memory run, and the
/// engine actually spilled along the way. A loop spills only after its
/// fold, with the state its next iteration reads protected, so COUNT and
/// WALK, which cache no copied join input, checkpoint every iteration:
/// the snapshot is their cold victim.
#[test]
fn forced_spill_matches_in_memory_for_pagerank_and_sssp() {
    let workloads = [
        ("PR", pagerank(8, false).cte, 0),
        ("SSSP", sssp(8, 1, false).cte, 0),
        ("COUNT", counting_cte(8), 1),
        ("CLOSURE", closure_cte(), 0),
        ("WALK", walk_cte(6), 1),
    ];
    for (name, sql, checkpoint_every) in workloads {
        let expected = db_with_edges(EngineConfig::default().with_spill_threshold_bytes(u64::MAX))
            .query(&sql)
            .unwrap();
        let db = db_with_edges(forced_spill().with_checkpoint_interval(checkpoint_every));
        db.take_stats();
        let batch = db.query(&sql).unwrap();
        assert_eq!(
            sorted_rows(&batch),
            sorted_rows(&expected),
            "{name}: forced-spill run must be row-identical to in-memory"
        );
        let stats = db.take_stats();
        assert!(stats.spill_events > 0, "{name}: nothing was spilled");
        assert!(stats.spill_bytes_written > 0, "{name}: no bytes written");
        assert!(
            stats.peak_tracked_bytes > 0,
            "{name}: accountant saw no state"
        );
    }
}

/// A merge loop's solution index holds only for the CTE buffers it was
/// built over. Under a 1-byte threshold each round's checkpoint, which
/// holds the CTE, is spilled; a fault in the third iteration rolls the
/// loop back, the restore reads the CTE back as new buffers, and the
/// index is rebuilt over them. The rows are the in-memory run's, in
/// order and cell for cell.
#[test]
fn a_spilled_solution_set_is_reindexed_with_the_same_rows() {
    for sql in [sssp_convergent(1, None).cte, connected_components(None).cte] {
        let expected = db_with_edges(EngineConfig::default().with_spill_threshold_bytes(u64::MAX))
            .query(&sql)
            .unwrap();
        let db = db_with_edges(
            forced_spill()
                .with_checkpoint_interval(1)
                .with_max_loop_recoveries(1)
                .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 3)),
        );
        db.take_stats();
        let batch = db.query(&sql).unwrap();
        assert_eq!(
            format!("{:?}", batch.rows()),
            format!("{:?}", expected.rows()),
            "{sql}"
        );
        let stats = db.take_stats();
        assert!(stats.merges >= 2, "{sql}");
        assert!(stats.spill_bytes_read > 0, "no table was read back: {sql}");
    }
}

/// A loop body's nested `WITH` stores a temp every iteration that only
/// that iteration's working table reads. Once the fold has consumed the
/// working table the temp is dropped, so the relief after the fold finds
/// nothing unprotected: under a 1-byte threshold SSSP with such a body
/// writes nothing to disk, and returns the in-memory rows.
#[test]
fn a_body_temp_is_dropped_after_the_fold_not_spilled() {
    let sql = "WITH ITERATIVE sssp (node, distance) AS ( \
                 SELECT src, CASE WHEN src = 1 THEN 0 ELSE 9999999 END \
                 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
               ITERATE WITH e AS (SELECT src, dst, weight FROM edges) \
                 SELECT sssp.node, \
                        LEAST(sssp.distance, \
                              COALESCE(MIN(inc.distance + e.weight), sssp.distance)) \
                 FROM sssp LEFT JOIN e ON sssp.node = e.dst \
                   LEFT JOIN sssp AS inc ON inc.node = e.src \
                 GROUP BY sssp.node, sssp.distance \
               UNTIL DELTA < 1) \
               SELECT node, distance FROM sssp ORDER BY node";
    let expected = db_with_edges(no_spill()).query(sql).unwrap();
    let db = db_with_edges(forced_spill());
    db.take_stats();
    let batch = db.query(sql).unwrap();
    assert_eq!(
        format!("{:?}", batch.rows()),
        format!("{:?}", expected.rows())
    );
    let stats = db.take_stats();
    assert!(stats.iterations >= 2, "{stats:?}");
    assert_eq!(
        (stats.spill_events, stats.spill_bytes_written),
        (0, 0),
        "a dead body temp was written to disk"
    );
}

/// Rehydration happens transparently on next access: a rollback must
/// read its checkpoint back from the spill file (checkpoints are cold,
/// so under a 1-byte threshold they are always spilled), converge to the
/// fault-free rows, and count the bytes read.
#[test]
fn rollback_rehydrates_a_spilled_checkpoint() {
    let sql = counting_cte(8);
    let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(
        forced_spill()
            .with_checkpoint_interval(2)
            .with_max_loop_recoveries(2)
            .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 5)),
    )
    .unwrap();
    db.take_stats();
    let batch = db.query(&sql).unwrap();
    assert_eq!(sorted_rows(&batch), sorted_rows(&expected));
    let stats = db.take_stats();
    assert_eq!(stats.loop_rollbacks, 1);
    assert!(
        stats.spill_bytes_read > 0,
        "the restore must have read the spilled checkpoint: {stats:?}"
    );
}

/// The rename fast path must stay correct when the table being renamed
/// over (or the renamed table itself) lives in a spill file: rename
/// moves the file handle, no I/O, and the loop's final rows are exact.
#[test]
fn rename_optimization_survives_forced_spill() {
    // PageRank replaces the whole dataset per iteration (unique node
    // keys), so it runs both the rename fast path and the merge+diff
    // baseline.
    let sql = pagerank(8, false).cte;
    let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
    for minimize in [true, false] {
        let db = db_with_edges(forced_spill().with_minimize_data_movement(minimize));
        db.take_stats();
        let batch = db.query(&sql).unwrap();
        assert_eq!(
            sorted_rows(&batch),
            sorted_rows(&expected),
            "minimize_data_movement={minimize}: wrong rows under forced spill"
        );
        let stats = db.take_stats();
        if minimize {
            assert!(stats.renames > 0, "rename path must have been exercised");
        }
        assert!(stats.spill_events > 0);
    }
}

/// `ResourceExhausted` is still raised when spilling cannot get the
/// resident set under the budget — here by pinning operator hash state
/// bigger than the budget — and is raised eagerly when spilling is off.
#[test]
fn byte_budget_still_enforced_when_spill_cannot_help() {
    // Spilling disabled: the cumulative fail-fast budget trips (seed
    // behaviour preserved).
    let db = db_with_edges(no_spill().with_max_intermediate_bytes(64));
    match db.query(&pagerank(5, false).cte) {
        Err(Error::ResourceExhausted { resource, .. }) => {
            assert_eq!(resource, "intermediate_bytes");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // Spilling enabled with a roomy threshold but a 1-byte *budget*: the
    // resident set can never fit, so the typed error still surfaces.
    let db = db_with_edges(
        EngineConfig::default()
            .with_spill_threshold_bytes(u64::MAX)
            .with_max_intermediate_bytes(1),
    );
    match db.query(&pagerank(5, false).cte) {
        Err(Error::ResourceExhausted { resource, .. }) => {
            assert_eq!(resource, "intermediate_bytes");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // Same budget, but spilling allowed to evict: the query now succeeds
    // because cold state moves to disk instead of counting against the
    // resident budget.
    let db = db_with_edges(forced_spill().with_max_intermediate_bytes(1_000_000));
    db.query(&pagerank(5, false).cte)
        .expect("spilling should keep the resident set under the budget");
}

/// Spill I/O faults are transient: the fault matrix over
/// `SpillWrite`/`SpillRead` × checkpoint_interval {0, 1, 5} must either
/// converge to the exact fault-free rows or fail with a typed,
/// retryable-classified error — never a wrong answer or a hang.
#[test]
fn spill_fault_matrix_across_checkpoint_intervals() {
    let faults = [
        FaultConfig::fail_nth(FaultSite::SpillWrite, 1),
        FaultConfig::fail_nth(FaultSite::SpillWrite, 3),
        FaultConfig::fail_nth(FaultSite::SpillRead, 1),
        FaultConfig::fail_nth(FaultSite::SpillRead, 2),
    ];
    // PR-VS's regrouped edges ⋈ vertexstatus build is copied, so under
    // forced spill the join-state cache writes it out and reads it back.
    let db_with_status = || {
        let db = db_with_edges(EngineConfig::default());
        add_vertex_status(&db);
        db
    };
    let pr_vs = pagerank(6, true).cte;
    for sql in [counting_cte(8), closure_cte(), walk_cte(6), pr_vs] {
        let expected = db_with_status().query(&sql).unwrap();
        for interval in [0u64, 1, 5] {
            for fault in &faults {
                let mut db = db_with_status();
                db.set_config(
                    forced_spill()
                        .with_checkpoint_interval(interval)
                        .with_max_partition_retries(2)
                        .with_max_loop_recoveries(3)
                        .with_fault(fault.clone()),
                )
                .unwrap();
                match leaves_nothing_tracked(&db, || db.query(&sql)) {
                    Ok(batch) => assert_eq!(
                        sorted_rows(&batch),
                        sorted_rows(&expected),
                        "interval={interval}, fault={fault:?}: WRONG rows: {sql}"
                    ),
                    Err(
                        e @ (Error::FaultInjected { .. }
                        | Error::RecoveryExhausted { .. }
                        | Error::SpillUnavailable { .. }
                        | Error::StorageCorrupt { .. }),
                    ) => {
                        // Typed failure is acceptable; silent corruption is not.
                        drop(e);
                    }
                    Err(other) => panic!(
                        "interval={interval}, fault={fault:?}: untyped failure {other:?}: {sql}"
                    ),
                }
                // The database stays usable for the next statement.
                let batch = leaves_nothing_tracked(&db, || db.query("SELECT COUNT(*) FROM edges"));
                let batch = batch.unwrap();
                assert_eq!(batch.rows()[0][0], Value::Int(5));
            }
        }
    }
}

/// A seeded spill-fault storm composed with every recovery rung on:
/// every seed must converge identically or fail typed, and at least some
/// seeds must converge.
#[test]
fn spill_fault_storm_with_recovery_policy_converges_or_fails_typed() {
    let sql = counting_cte(6);
    let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
    let mut converged = 0;
    for seed in 0..10u64 {
        let mut db = db_with_edges(EngineConfig::default());
        db.set_config(
            forced_spill()
                .with_checkpoint_interval(5)
                .with_max_partition_retries(2)
                .with_max_loop_recoveries(3)
                .with_fault(FaultConfig::seeded(
                    FaultSite::SpillWrite,
                    FaultKind::Error,
                    seed,
                    100_000,
                ))
                .with_fault(FaultConfig::seeded(
                    FaultSite::SpillRead,
                    FaultKind::Error,
                    seed.wrapping_add(17),
                    100_000,
                )),
        )
        .unwrap();
        match leaves_nothing_tracked(&db, || db.query(&sql)) {
            Ok(batch) => {
                assert_eq!(
                    sorted_rows(&batch),
                    sorted_rows(&expected),
                    "seed {seed}: storm survivor returned a WRONG answer"
                );
                converged += 1;
            }
            Err(
                Error::FaultInjected { .. }
                | Error::RecoveryExhausted { .. }
                | Error::SpillUnavailable { .. }
                | Error::StorageCorrupt { .. },
            ) => {}
            Err(other) => panic!("seed {seed}: unexpected failure kind: {other:?}"),
        }
    }
    assert!(
        converged > 0,
        "at 10% fault rates some seeds must still converge"
    );
}

/// A disk-level spill failure (directory vanished after validation)
/// surfaces as the typed, retryable `SpillUnavailable`, and the database
/// recovers once the directory is back.
#[test]
fn vanished_spill_dir_is_typed_and_transient() {
    let dir = std::env::temp_dir().join(format!("spinner_vanishing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The checkpoint's snapshot is the first state the loop spills.
    let db = db_with_edges(
        EngineConfig::default()
            .with_spill_threshold_bytes(1)
            .with_checkpoint_interval(1)
            .with_spill_dir(dir.to_str().unwrap()),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    match db.query(&counting_cte(4)) {
        Err(Error::SpillUnavailable { region, message }) => {
            assert!(!region.is_empty());
            assert!(!message.is_empty());
            assert!(
                Error::SpillUnavailable { region, message }.is_retryable(),
                "spill unavailability is transient by contract"
            );
        }
        other => panic!("expected SpillUnavailable, got {other:?}"),
    }
    // Directory restored: the same session works again.
    std::fs::create_dir_all(&dir).unwrap();
    db.query(&counting_cte(4)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Engine-level config validation: an unusable spill directory is rejected
/// at `Database::new`, before any query can hit it — while a merely
/// *missing* (but creatable) one is created on the spot.
#[test]
fn bad_spill_dir_rejected_at_construction() {
    // Uncreatable: the path's parent is a regular file.
    let file = std::env::temp_dir().join(format!("spinner_blocker_{}", std::process::id()));
    std::fs::write(&file, b"x").unwrap();
    match Database::new(
        EngineConfig::default()
            .with_spill_threshold_bytes(1024)
            .with_spill_dir(file.join("sub").to_str().unwrap()),
    ) {
        Err(Error::InvalidConfig(_)) => {}
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("uncreatable spill_dir must be rejected"),
    }
    std::fs::remove_file(&file).unwrap();
    match Database::new(EngineConfig::default().with_spill_threshold_bytes(0)) {
        Err(Error::InvalidConfig(_)) => {}
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("zero threshold must be rejected"),
    }
    // Missing-but-creatable: validation creates it and the engine works.
    let fresh = std::env::temp_dir().join(format!("spinner_fresh_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fresh);
    let db = Database::new(
        EngineConfig::default()
            .with_spill_threshold_bytes(1)
            .with_spill_dir(fresh.to_str().unwrap()),
    )
    .expect("creatable spill_dir must validate");
    db.execute("CREATE TABLE probe (x INT)").unwrap();
    db.execute("INSERT INTO probe VALUES (1), (2)").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM probe").unwrap().rows()[0][0],
        Value::Int(2)
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&fresh);
}

/// `EXPLAIN ANALYZE` carries the statement's spill counters in the text
/// rendering and in the JSON one. The loop checkpoints every iteration,
/// so its snapshots are spilled.
#[test]
fn explain_analyze_reports_spill_counters() {
    let db = db_with_edges(forced_spill().with_checkpoint_interval(1));
    let profile = db.explain_analyze(&counting_cte(6)).unwrap();
    assert!(
        profile.spill.get("events") > 0,
        "profile must see the spills"
    );
    assert!(profile.spill.get("bytes_written") > 0);
    assert!(profile.spill.get("peak_tracked_bytes") > 0);
    assert!(
        profile.render().contains("spill:"),
        "rendering must mention spill activity:\n{}",
        profile.render()
    );
    let json = profile.to_json();
    let spill = format!(
        "\"spill\":{{\"events\":{},\"bytes_written\":{},\"bytes_read\":{},\"peak_tracked_bytes\":{}}}",
        profile.spill.get("events"),
        profile.spill.get("bytes_written"),
        profile.spill.get("bytes_read"),
        profile.spill.get("peak_tracked_bytes"),
    );
    assert!(json.contains(&spill), "{spill} missing from {json}");
    // With spilling off entirely there is nothing to track, so the
    // profile stays spill-silent.
    let db = db_with_edges(no_spill());
    let profile = db.explain_analyze(&counting_cte(6)).unwrap();
    assert_eq!(profile.spill.get("events"), 0);
    assert!(!profile.render().contains("spill: events"));
}

/// Join-state-cache invalidation under memory pressure: the cached build
/// table is registered as an evictable `join_build` region, so when the
/// accountant reclaims it the next probe must rebuild it — running the
/// regrouped edges ⋈ vertexstatus join again, or reading its rows back
/// from disk — instead of reusing a stale pointer. Rows stay identical
/// either way.
#[test]
fn join_cache_rebuilt_after_spill_evicts_build() {
    let sql = pagerank(8, true).cte;
    // In-memory baseline: the invariant build is hashed once and every
    // later iteration re-probes it.
    let db = db_with_edges(EngineConfig::default().with_spill_threshold_bytes(u64::MAX));
    leaves_nothing_tracked(&db, || add_vertex_status(&db));
    db.take_stats();
    let expected = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
    let in_memory = db.take_stats();
    assert!(in_memory.join_builds >= 1);
    assert!(
        in_memory.join_builds_reused > in_memory.join_builds,
        "in memory the cache must win: {} builds / {} reuses",
        in_memory.join_builds,
        in_memory.join_builds_reused
    );
    // 1-byte threshold: every allocation makes the build region a spill
    // victim, so reuse is impossible — each probe rebuilds, and the
    // answer is still row-identical.
    let db = db_with_edges(forced_spill());
    leaves_nothing_tracked(&db, || add_vertex_status(&db));
    db.take_stats();
    let batch = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
    assert_eq!(
        sorted_rows(&batch),
        sorted_rows(&expected),
        "evicting the cached build must never change rows"
    );
    let stats = db.take_stats();
    assert!(
        stats.join_builds > in_memory.join_builds,
        "eviction must force rebuilds: {} spilled vs {} in-memory",
        stats.join_builds,
        in_memory.join_builds
    );
    assert!(stats.spill_events > 0);
}

/// Fig. 9's common result costs no memory of its own: with the rule on,
/// the regrouped invariant join is held once, as the cached build side,
/// so PR-VS and SSSP-VS peak no higher than with the rule off.
#[test]
fn common_result_holds_the_invariant_join_once() {
    let spec = GraphSpec {
        nodes: 400,
        edges: 2_000,
        seed: 3,
        max_weight: 10,
    };
    let peak = |sql: &str, common: bool| {
        let config = EngineConfig::default()
            .with_common_result(common)
            .with_spill_threshold_bytes(u64::MAX);
        let db = Database::new(config).unwrap();
        load_edges_into(&db, "edges", &spec).unwrap();
        load_vertex_status_into(&db, "vertexstatus", &spec, 0.8).unwrap();
        db.take_stats();
        db.query(sql).unwrap();
        db.take_stats().peak_tracked_bytes
    };
    for (name, sql) in [
        ("PR-VS", pagerank(10, true).cte),
        ("SSSP-VS", sssp(10, 1, true).cte),
    ] {
        let (on, off) = (peak(&sql, true), peak(&sql, false));
        assert!(
            on > 0 && on <= off,
            "{name}: {on} B with the rule, {off} B without"
        );
    }
}

/// A durable PageRank pays for each iteration once. Its `edges` table is
/// distributed on `dst`, the join key, so the cached build is the table's
/// own partitions: pinned, never evicted, it is built once and re-probed
/// by every later iteration. The loop spills only after its rename, with
/// the new CTE protected, so no CTE version is written for the rename to
/// drop: every file written is a checkpoint epoch (two fsyncs each, data
/// then name), and nothing is read back.
#[test]
fn durable_pagerank_spills_only_its_checkpoints() {
    let spec = GraphSpec {
        nodes: 400,
        edges: 2_000,
        seed: 5,
        max_weight: 10,
    };
    let sql = pagerank(10, false).cte;
    let load = |config: EngineConfig| {
        let db = Database::new(config).unwrap();
        load_edges_into(&db, "edges", &spec).unwrap();
        db
    };
    let expected = load(no_spill()).query(&sql).unwrap();
    // 4 KiB is below the charge of the 400-row CTE alone.
    let db = load(
        EngineConfig::default()
            .with_spill_threshold_bytes(4 << 10)
            .with_checkpoint_interval(1)
            .with_durable_spill(true),
    );
    db.take_stats();
    let batch = db.query(&sql).unwrap();
    assert_eq!(sorted_rows(&batch), sorted_rows(&expected));
    let stats = db.take_stats();
    assert_eq!(
        (stats.join_builds, stats.join_builds_reused),
        (1, stats.iterations - 1),
        "the cached edges build was evicted"
    );
    assert_eq!(stats.spill_bytes_read, 0, "state was written and read back");
    assert!(stats.checkpoints_taken > 0 && stats.spill_events > 0);
    assert_eq!(
        stats.durability_fsyncs,
        2 * stats.checkpoints_taken,
        "a file other than a checkpoint epoch was written: {stats:?}"
    );
}

/// Checkpoint bytes count against the intermediate-state budget
/// (satellite bugfix): with checkpointing every iteration, a budget that
/// exactly fits the loop tables alone must now trip. The budget is
/// measured, not guessed: an unlimited guard reports the bytes actually
/// charged with and without checkpoints.
#[test]
fn checkpoint_bytes_charge_the_intermediate_budget() {
    let sql = counting_cte(8);
    let measure = |interval: u64| {
        let db = db_with_edges(no_spill().with_checkpoint_interval(interval));
        let guard = QueryGuard::unlimited();
        db.query_with_guard(&sql, &guard).unwrap();
        guard.intermediate_bytes_used()
    };
    let without_ckpt = measure(0);
    let with_ckpt = measure(1);
    assert!(
        with_ckpt > without_ckpt,
        "snapshots must be charged: {with_ckpt} <= {without_ckpt}"
    );
    // A budget that exactly covers the checkpoint-free run passes...
    let db = db_with_edges(no_spill().with_max_intermediate_bytes(without_ckpt));
    db.query(&sql).unwrap();
    // ...and trips once per-iteration snapshots are charged on top.
    let db = db_with_edges(
        no_spill()
            .with_max_intermediate_bytes(without_ckpt)
            .with_checkpoint_interval(1),
    );
    match db.query(&sql) {
        Err(Error::ResourceExhausted { resource, .. }) => {
            assert_eq!(resource, "intermediate_bytes");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}
