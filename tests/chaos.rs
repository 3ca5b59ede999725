//! Chaos suite: injected faults, cancellation, timeouts, resource
//! budgets and worker panics must all surface as *typed* errors, leave
//! nothing tracked by the memory accountant, and leave the `Database`
//! usable for the next statement. Every fault here is deterministic (hit-count or
//! seeded PRNG), so a failure reproduces exactly.

use std::sync::Arc;
use std::time::Duration;

use spinner_engine::{
    Database, EngineConfig, Error, FaultConfig, FaultKind, FaultSite, QueryGuard, Value,
};
use spinner_procedural::{pagerank, sssp_convergent};

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

/// After any failure the same `Database` must answer a follow-up query.
/// (That the failed statement left nothing tracked is checked by running
/// it through [`leaves_nothing_tracked`].)
fn assert_recovered(db: &Database) {
    let batch = db.query("SELECT COUNT(*) FROM edges").unwrap();
    assert_eq!(batch.rows()[0][0], spinner_engine::Value::Int(5));
}

#[test]
fn injected_fault_at_each_site_is_a_clean_error() {
    // (site, expected error-site string, query that reaches the site)
    let cases = [
        (FaultSite::Exchange, "exchange", pagerank(5, false).cte),
        (FaultSite::Materialize, "materialize", counting_cte(5)),
        (FaultSite::Rename, "rename", counting_cte(5)),
        (FaultSite::LoopIteration, "loop_iteration", counting_cte(5)),
    ];
    for (site, name, sql) in cases {
        // Load data under a clean config, then arm the fault, so setup
        // statements cannot consume the single-shot trigger.
        let mut db = db_with_edges(EngineConfig::default());
        db.set_config(EngineConfig::default().with_fault(FaultConfig::fail_nth(site, 1)))
            .unwrap();
        let err = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap_err();
        assert_eq!(
            err,
            Error::FaultInjected {
                site: name.to_string()
            },
            "site {name}: expected the injected fault to surface"
        );
        assert_recovered(&db);
        // The Nth trigger fired once; the same query now succeeds.
        db.query(&sql)
            .unwrap_or_else(|e| panic!("site {name}: retry failed: {e}"));
    }
}

#[test]
fn guard_timeout_stops_pagerank_mid_iteration() {
    // A seeded always-fire delay makes each loop iteration take ≥10 ms,
    // so a 50 ms deadline trips deterministically mid-loop instead of
    // depending on dataset size.
    let config = EngineConfig::default().with_fault(FaultConfig::seeded(
        FaultSite::LoopIteration,
        FaultKind::DelayMs(10),
        1,
        1_000_000,
    ));
    let db = db_with_edges(config);
    db.take_stats();
    let guard = QueryGuard::unlimited().with_timeout_ms(50);
    let err = leaves_nothing_tracked(&db, || {
        db.query_with_guard(&pagerank(200, false).cte, &guard)
    })
    .unwrap_err();
    match err {
        Error::Timeout {
            elapsed_ms,
            limit_ms,
        } => {
            assert_eq!(limit_ms, 50);
            assert!(elapsed_ms >= 50, "elapsed {elapsed_ms} < limit");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    let iterations = db.take_stats().iterations;
    assert!(
        iterations < 200,
        "deadline must stop the loop early, ran {iterations} iterations"
    );
    assert_recovered(&db);
}

#[test]
fn config_timeout_applies_to_plain_execute() {
    let config = EngineConfig::default()
        .with_query_timeout_ms(50)
        .with_fault(FaultConfig::seeded(
            FaultSite::LoopIteration,
            FaultKind::DelayMs(10),
            2,
            1_000_000,
        ));
    let db = db_with_edges(config);
    let err = leaves_nothing_tracked(&db, || db.query(&counting_cte(200))).unwrap_err();
    assert!(
        matches!(err, Error::Timeout { limit_ms: 50, .. }),
        "got {err:?}"
    );
    assert_recovered(&db);
}

#[test]
fn cancel_from_another_thread_stops_the_query() {
    let config = EngineConfig::default().with_fault(FaultConfig::seeded(
        FaultSite::LoopIteration,
        FaultKind::DelayMs(5),
        3,
        1_000_000,
    ));
    let db = db_with_edges(config);
    let guard = Arc::new(QueryGuard::unlimited());
    let canceller = {
        let guard = Arc::clone(&guard);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            guard.cancel();
        })
    };
    let err = leaves_nothing_tracked(&db, || db.query_with_guard(&counting_cte(100_000), &guard))
        .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err, Error::Cancelled);
    assert!(guard.is_cancelled());
    assert_recovered(&db);
}

#[test]
fn row_budget_trips_resource_exhausted() {
    let db = db_with_edges(EngineConfig::default());
    // Each iteration materializes the 4-node working table; a 10-row
    // budget survives setup plus at most a couple of iterations.
    let guard = QueryGuard::unlimited().with_max_rows_materialized(10);
    let err = leaves_nothing_tracked(&db, || db.query_with_guard(&counting_cte(1000), &guard))
        .unwrap_err();
    match err {
        Error::ResourceExhausted {
            resource,
            used,
            limit,
        } => {
            assert_eq!(resource, "rows_materialized");
            assert_eq!(limit, 10);
            assert!(used >= limit, "used {used} must be >= limit {limit}");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_recovered(&db);
}

#[test]
fn rows_moved_budget_applies_to_exchanges() {
    // PageRank's joins shuffle rows every iteration; a tiny movement
    // budget trips via the session config (no explicit guard needed).
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(EngineConfig::default().with_max_rows_moved(3))
        .unwrap();
    let err = leaves_nothing_tracked(&db, || db.query(&pagerank(50, false).cte)).unwrap_err();
    match err {
        Error::ResourceExhausted {
            resource,
            used,
            limit,
        } => {
            assert_eq!(resource, "rows_moved");
            assert!(used >= limit);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_recovered(&db);
}

#[test]
fn intermediate_bytes_budget_trips() {
    // Pin the fail-fast path: with spilling explicitly off (even under
    // the CI forced-spill env) the cumulative budget must trip instead
    // of degrading to disk. tests/spill.rs covers the spill-enabled
    // semantics.
    let config = EngineConfig {
        spill_threshold_bytes: None,
        ..EngineConfig::default()
    };
    let db = db_with_edges(config);
    let guard = QueryGuard::unlimited().with_max_intermediate_bytes(500);
    let err = leaves_nothing_tracked(&db, || db.query_with_guard(&counting_cte(1000), &guard))
        .unwrap_err();
    match err {
        Error::ResourceExhausted {
            resource,
            used,
            limit,
        } => {
            assert_eq!(resource, "intermediate_bytes");
            assert!(used >= limit);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_recovered(&db);
}

#[test]
fn worker_panic_is_isolated_and_typed() {
    let mut db = db_with_edges(EngineConfig::default().with_parallel_partitions(true));
    db.set_config(
        EngineConfig::default()
            .with_parallel_partitions(true)
            .with_fault(FaultConfig::panic_nth(FaultSite::Worker, 1)),
    )
    .unwrap();
    let err = leaves_nothing_tracked(&db, || db.query(&counting_cte(5))).unwrap_err();
    match err {
        Error::WorkerPanicked { partition, message } => {
            assert!(partition < 4, "partition index {partition} out of range");
            assert!(
                message.contains("injected panic at worker"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The panic was confined to the worker: the process is alive, the
    // registry is clean, and the same database keeps answering.
    assert_recovered(&db);
    db.query(&counting_cte(5)).unwrap();
}

#[test]
fn worker_panic_under_seeded_storm_never_poisons() {
    // A 30%-per-hit panic storm across many statements: every failure
    // must be typed, never a propagated panic or poisoned lock.
    let mut db = db_with_edges(EngineConfig::default().with_parallel_partitions(true));
    db.set_config(
        EngineConfig::default()
            .with_parallel_partitions(true)
            .with_fault(FaultConfig::seeded(
                FaultSite::Worker,
                FaultKind::Panic,
                99,
                300_000,
            )),
    )
    .unwrap();
    let mut failures = 0;
    for _ in 0..20 {
        match leaves_nothing_tracked(&db, || db.query(&counting_cte(3))) {
            Ok(_) => {}
            Err(Error::WorkerPanicked { .. }) | Err(Error::Cancelled) => failures += 1,
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
    assert!(
        failures > 0,
        "a 30% panic rate must hit at least once in 20 runs"
    );
    // Disarm the storm; the surviving database must be fully usable.
    db.set_config(EngineConfig::default().with_parallel_partitions(true))
        .unwrap();
    assert_recovered(&db);
}

#[test]
fn iteration_limit_fires_under_delta_termination_in_parallel() {
    let db = db_with_edges(
        EngineConfig::default()
            .with_parallel_partitions(true)
            .with_max_iterations(7),
    );
    db.take_stats();
    // Every iteration rewrites every row, so the delta never reaches 0
    // and the safety limit must fire.
    let err = leaves_nothing_tracked(&db, || {
        db.query(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges
             ITERATE SELECT k, v + 1 FROM t
             UNTIL DELTA < 1)
             SELECT * FROM t",
        )
    })
    .unwrap_err();
    assert!(
        matches!(err, Error::IterationLimitExceeded { limit: 7, .. }),
        "got {err:?}"
    );
    // The stats reflect the partial run: exactly `limit` completed
    // iterations before the limit check stopped the loop.
    assert_eq!(db.take_stats().iterations, 7);
    assert_recovered(&db);
}

#[test]
fn iteration_limit_fires_under_data_termination_in_parallel() {
    let db = db_with_edges(
        EngineConfig::default()
            .with_parallel_partitions(true)
            .with_max_iterations(7),
    );
    db.take_stats();
    // v only grows, so the data condition `v < 0` never holds.
    let err = leaves_nothing_tracked(&db, || {
        db.query(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges
             ITERATE SELECT k, v + 1 FROM t
             UNTIL (v < 0))
             SELECT * FROM t",
        )
    })
    .unwrap_err();
    assert!(
        matches!(err, Error::IterationLimitExceeded { limit: 7, .. }),
        "got {err:?}"
    );
    assert_eq!(db.take_stats().iterations, 7);
    assert_recovered(&db);
}

#[test]
fn faults_injected_counter_tracks_fired_faults() {
    let mut db = db_with_edges(EngineConfig::default());
    db.take_stats();
    db.set_config(
        EngineConfig::default().with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 3)),
    )
    .unwrap();
    let err = leaves_nothing_tracked(&db, || db.query(&counting_cte(10))).unwrap_err();
    assert!(matches!(err, Error::FaultInjected { .. }));
    let stats = db.take_stats();
    assert_eq!(stats.faults_injected, 1);
    // Two full iterations completed before the third one's fault fired.
    assert_eq!(stats.iterations, 2);
}

// ---------------------------------------------------------------------------
// Recovery: iteration-level checkpointing, transient retry, and mid-loop
// rollback-and-replay. Every schedule below is deterministic (Nth or
// seeded), so a failure reproduces exactly.
// ---------------------------------------------------------------------------

/// Rows of a batch, sorted, for order-insensitive comparison.
fn sorted_rows(batch: &spinner_engine::Batch) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batch.rows().iter().map(|r| r.to_vec()).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

/// The acceptance scenario: a fault mid-loop (iteration 4, past the
/// checkpoint interval of 2) rolls the loop back to the iteration-2
/// checkpoint and replays; the final rows are identical to a fault-free
/// run and the stats report the full recovery story — the same story for
/// an iterative loop and for both kinds of recursion, which run on the
/// one driver: same schedule, same rollbacks, same replayed iterations.
#[test]
fn mid_loop_fault_recovers_identically_after_rollback() {
    for sql in [pagerank(8, false).cte, closure_cte(), walk_cte(6)] {
        let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
        let mut db = db_with_edges(EngineConfig::default());
        db.set_config(
            EngineConfig::default()
                .with_checkpoint_interval(2)
                .with_max_loop_recoveries(2)
                .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 4)),
        )
        .unwrap();
        db.take_stats();
        let batch = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
        assert_eq!(
            sorted_rows(&batch),
            sorted_rows(&expected),
            "recovered run must be row-identical to the fault-free run: {sql}"
        );
        let stats = db.take_stats();
        assert_eq!(stats.faults_injected, 1, "{sql}");
        assert_eq!(stats.loop_rollbacks, 1, "{sql}");
        assert_eq!(
            stats.iterations_replayed, 2,
            "fault at iteration 4, checkpoint at 2: iterations 3..=4 replay: {sql}"
        );
        assert!(
            stats.checkpoints_taken >= 2,
            "entry + periodic checkpoints: {sql}"
        );
        assert!(stats.checkpoint_bytes > 0, "{sql}");
        assert_recovered(&db);
    }
}

/// Join-state-cache invalidation across rollback-and-replay (PR 5): the
/// invariant build for PR-VS is hashed on iteration 1, before the
/// iteration-2 checkpoint; when a fault at iteration 4 rolls the loop
/// back and the replay crosses the original build point, the restored
/// registry state must NOT be probed through the pre-fault cache entry —
/// installing the epoch clears the cache, so the replay rebuilds and the
/// rows match a fault-free run exactly.
#[test]
fn join_cache_rebuilt_after_rollback_and_replay() {
    let sql = pagerank(8, true).cte;
    let clean_db = db_with_edges(EngineConfig::default());
    clean_db
        .execute("CREATE TABLE vertexstatus (node INT, status INT)")
        .unwrap();
    clean_db
        .execute("INSERT INTO vertexstatus VALUES (1, 1), (2, 1), (3, 0), (4, 1)")
        .unwrap();
    let expected = clean_db.query(&sql).unwrap();
    clean_db.take_stats();

    let mut db = db_with_edges(EngineConfig::default());
    db.execute("CREATE TABLE vertexstatus (node INT, status INT)")
        .unwrap();
    db.execute("INSERT INTO vertexstatus VALUES (1, 1), (2, 1), (3, 0), (4, 1)")
        .unwrap();
    // Threshold pinned high so the reuse assertion survives CI's
    // forced-spill env (eviction-driven invalidation lives in
    // tests/spill.rs).
    db.set_config(
        EngineConfig::default()
            .with_spill_threshold_bytes(u64::MAX)
            .with_checkpoint_interval(2)
            .with_max_loop_recoveries(2)
            .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 4)),
    )
    .unwrap();
    db.take_stats();
    let batch = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
    assert_eq!(
        sorted_rows(&batch),
        sorted_rows(&expected),
        "replaying through the build point must not serve a stale build"
    );
    let stats = db.take_stats();
    assert_eq!(stats.loop_rollbacks, 1);
    assert!(
        stats.join_builds >= 2,
        "rollback must invalidate the cache and force a rebuild, \
         got {} builds",
        stats.join_builds
    );
    assert!(
        stats.join_builds_reused >= 1,
        "iterations after the rebuild re-probe the fresh entry"
    );
    assert_recovered(&db);
}

/// Same scenario through `EXPLAIN ANALYZE`: the profile's loop node must
/// carry the recovery story (rollback count, replayed range, snapshot
/// bytes) so the operator can see what happened.
#[test]
fn explain_analyze_reports_the_recovery_story() {
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(
        EngineConfig::default()
            .with_checkpoint_interval(2)
            .with_max_loop_recoveries(2)
            .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 4)),
    )
    .unwrap();
    let profile = db.explain_analyze(&pagerank(8, false).cte).unwrap();
    let loops = profile.loops();
    assert_eq!(loops.len(), 1);
    let rec = &loops[0].recovery;
    assert_eq!(rec.rollbacks, 1);
    assert_eq!(rec.replayed_ranges, vec![(3, 4)], "replay covers 3..=4");
    assert!(rec.checkpoints_taken >= 2);
    assert!(rec.bytes_snapshotted > 0);
    // The JSON rendering carries the recovery block.
    let json = profile.to_json();
    let recovery = format!(
        "\"recovery\":{{\"checkpoints_taken\":{},\"bytes_snapshotted\":{},\"retries\":{},\
         \"rollbacks\":1,\"iterations_replayed\":2,\"replayed_ranges\":[{{\"from\":3,\"to\":4}}]}}",
        rec.checkpoints_taken, rec.bytes_snapshotted, rec.retries
    );
    assert!(json.contains(&recovery), "{recovery} missing from {json}");
    // The rendering mentions it.
    assert!(
        profile.render().contains("recovery:"),
        "{}",
        profile.render()
    );
}

/// A transient worker fault is absorbed in place by the per-partition
/// retry — no rollback needed, results identical.
#[test]
fn worker_fault_is_absorbed_by_partition_retry() {
    let sql = counting_cte(6);
    let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let mut db = db_with_edges(EngineConfig::default().with_parallel_partitions(true));
        db.set_config(
            EngineConfig::default()
                .with_parallel_partitions(true)
                .with_max_partition_retries(1)
                .with_fault(FaultConfig {
                    site: FaultSite::Worker,
                    kind,
                    trigger: spinner_engine::FaultTrigger::Nth(5),
                }),
        )
        .unwrap();
        db.take_stats();
        let batch = db.query(&sql).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(sorted_rows(&batch), sorted_rows(&expected));
        let stats = db.take_stats();
        assert_eq!(stats.loop_rollbacks, 0, "{kind:?}: retry, not rollback");
        assert!(
            stats.partition_retries + stats.step_retries >= 1,
            "{kind:?}: the fault must have been retried"
        );
    }
}

/// Satellite (a): a fault killing the checkpoint itself must never
/// corrupt live loop state. Without recovery it surfaces typed; with
/// recovery the loop replays to the exact fault-free rows.
#[test]
fn failed_checkpoint_never_corrupts_live_loop_state() {
    let sql = counting_cte(6);
    let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
    // Recovery off: the checkpoint fault surfaces as a clean typed error.
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(
        EngineConfig::default()
            .with_checkpoint_interval(1)
            .with_fault(FaultConfig::fail_nth(FaultSite::Checkpoint, 3)),
    )
    .unwrap();
    let err = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap_err();
    assert_eq!(
        err,
        Error::FaultInjected {
            site: "checkpoint".to_string()
        }
    );
    assert_recovered(&db);
    // Recovery on: the killed checkpoint rolls back and replays; a
    // corrupted snapshot or live table would change the final rows.
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(
        EngineConfig::default()
            .with_checkpoint_interval(1)
            .with_max_loop_recoveries(1)
            .with_fault(FaultConfig::fail_nth(FaultSite::Checkpoint, 3)),
    )
    .unwrap();
    db.take_stats();
    let batch = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
    assert_eq!(sorted_rows(&batch), sorted_rows(&expected));
    assert_eq!(db.take_stats().loop_rollbacks, 1);
}

/// Satellite (a), restore side: a fault during the rollback's restore
/// consumes another recovery attempt (all-or-nothing restore), and the
/// budget bounds the total attempts.
#[test]
fn fault_during_restore_consumes_another_recovery_attempt() {
    let sql = counting_cte(6);
    let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
    let armed = |recoveries: u64| {
        EngineConfig::default()
            .with_checkpoint_interval(1)
            .with_max_loop_recoveries(recoveries)
            .with_fault(FaultConfig::fail_nth(FaultSite::LoopIteration, 4))
            .with_fault(FaultConfig::fail_nth(FaultSite::Recovery, 1))
    };
    // Budget 2: the first restore is killed, the second lands.
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(armed(2)).unwrap();
    db.take_stats();
    let batch = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
    assert_eq!(sorted_rows(&batch), sorted_rows(&expected));
    let stats = db.take_stats();
    assert_eq!(
        stats.loop_rollbacks, 1,
        "the killed restore must not count as a completed rollback"
    );
    // Budget 1: the killed restore exhausts the budget, typed error.
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(armed(1)).unwrap();
    let err = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap_err();
    match err {
        Error::RecoveryExhausted {
            recoveries, source, ..
        } => {
            assert_eq!(recoveries, 1);
            assert!(source.is_retryable(), "source was transient: {source:?}");
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    assert_recovered(&db);
}

/// A fault that fires on *every* replay exhausts the recovery budget and
/// surfaces as `RecoveryExhausted` wrapping the underlying fault.
#[test]
fn persistent_loop_fault_exhausts_recovery_with_typed_error() {
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(
        EngineConfig::default()
            .with_checkpoint_interval(1)
            .with_max_loop_recoveries(3)
            .with_fault(FaultConfig::seeded(
                FaultSite::LoopIteration,
                FaultKind::Error,
                7,
                1_000_000, // always fire: every attempt of iteration 1 dies
            )),
    )
    .unwrap();
    db.take_stats();
    let err = leaves_nothing_tracked(&db, || db.query(&counting_cte(6))).unwrap_err();
    match err {
        Error::RecoveryExhausted { recoveries, .. } => assert_eq!(recoveries, 3),
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    let stats = db.take_stats();
    assert_eq!(stats.loop_rollbacks, 3, "one rollback per recovery attempt");
    assert_recovered(&db);
}

/// Satellite (d): an every-iteration fault storm (checkpoint_interval=1,
/// seeded faults armed at every loop-path site) must either converge to
/// the exact fault-free answer or fail with `RecoveryExhausted` — never
/// a wrong answer, an untyped error, or a hang.
#[test]
fn every_iteration_fault_storm_converges_or_fails_typed() {
    for sql in [counting_cte(6), closure_cte(), walk_cte(6)] {
        let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
        let mut converged = 0;
        for seed in 0..12u64 {
            let mut db = db_with_edges(EngineConfig::default());
            db.set_config(
                EngineConfig::default()
                    .with_checkpoint_interval(1)
                    .with_max_partition_retries(2)
                    .with_max_loop_recoveries(4)
                    .with_fault(FaultConfig::seeded(
                        FaultSite::LoopIteration,
                        FaultKind::Error,
                        seed,
                        200_000,
                    ))
                    .with_fault(FaultConfig::seeded(
                        FaultSite::Checkpoint,
                        FaultKind::Error,
                        seed.wrapping_add(101),
                        200_000,
                    ))
                    .with_fault(FaultConfig::seeded(
                        FaultSite::Recovery,
                        FaultKind::Error,
                        seed.wrapping_add(202),
                        200_000,
                    ))
                    .with_fault(FaultConfig::seeded(
                        FaultSite::Worker,
                        FaultKind::Error,
                        seed.wrapping_add(303),
                        100_000,
                    )),
            )
            .unwrap();
            match leaves_nothing_tracked(&db, || db.query(&sql)) {
                Ok(batch) => {
                    assert_eq!(
                        sorted_rows(&batch),
                        sorted_rows(&expected),
                        "seed {seed}: storm survivor returned a WRONG answer: {sql}"
                    );
                    converged += 1;
                }
                Err(Error::RecoveryExhausted { .. }) => {}
                Err(other) => panic!("seed {seed}: unexpected failure kind: {other:?}: {sql}"),
            }
        }
        assert!(
            converged > 0,
            "at 20% fault rates some seeds must still converge: {sql}"
        );
    }
}

/// Satellite (f): the fault matrix CI runs in release — partitions=4,
/// parallel workers on, checkpoint_interval in {0, 1, 5}, one
/// deterministic fault per site, over an iterative loop and both kinds of
/// recursion. With retries and recovery enabled, every single-fault
/// schedule must finish with the exact fault-free rows.
#[test]
fn fault_matrix_across_checkpoint_intervals() {
    let faults = [
        FaultConfig::fail_nth(FaultSite::Exchange, 3),
        FaultConfig::fail_nth(FaultSite::Materialize, 2),
        FaultConfig::fail_nth(FaultSite::Rename, 2),
        FaultConfig::fail_nth(FaultSite::LoopIteration, 3),
        FaultConfig::fail_nth(FaultSite::Worker, 5),
        FaultConfig::panic_nth(FaultSite::Worker, 5),
        FaultConfig::fail_nth(FaultSite::Checkpoint, 2),
        FaultConfig::fail_nth(FaultSite::Recovery, 1),
    ];
    for sql in [counting_cte(8), closure_cte(), walk_cte(6)] {
        let expected = db_with_edges(EngineConfig::default()).query(&sql).unwrap();
        for interval in [0u64, 1, 5] {
            for fault in &faults {
                let mut db = db_with_edges(EngineConfig::default());
                db.set_config(
                    EngineConfig::default()
                        .with_partitions(4)
                        .with_parallel_partitions(true)
                        .with_checkpoint_interval(interval)
                        .with_max_partition_retries(2)
                        .with_max_loop_recoveries(3)
                        .with_fault(fault.clone()),
                )
                .unwrap();
                let batch = leaves_nothing_tracked(&db, || db.query(&sql))
                    .unwrap_or_else(|e| panic!("interval={interval}, fault={fault:?}: {e}: {sql}"));
                assert_eq!(
                    sorted_rows(&batch),
                    sorted_rows(&expected),
                    "interval={interval}, fault={fault:?}: wrong rows: {sql}"
                );
            }
        }
    }
}

/// A rename that fails right after an in-place merge — the merge has
/// written the CTE's changed rows where they lie and taken the table out
/// of the registry — is retried in place, or rolls the loop back to the
/// last checkpoint, which shared the table's partitions and so was copied,
/// not written. Either way the rows are the fault-free run's, serially
/// and in parallel: on SSSP, and on a counting merge loop, where a
/// checkpoint the merge had written into would replay one increment too
/// many.
#[test]
fn a_rename_fault_after_an_in_place_merge_recovers_exactly() {
    let counting_merge = "WITH ITERATIVE t (k, v) AS (
             SELECT src, 0 FROM edges UNION SELECT dst, 0 FROM edges
         ITERATE SELECT k, v + 1 FROM t WHERE k < 3
         UNTIL 6 ITERATIONS)
         SELECT k, v FROM t ORDER BY k";
    for sql in [sssp_convergent(1, None).cte, counting_merge.to_string()] {
        for parallel in [false, true] {
            let base = EngineConfig::default()
                .with_partitions(4)
                .with_parallel_partitions(parallel);
            let expected = db_with_edges(base.clone()).query(&sql).unwrap();
            // (recovery knobs, step retries, rollbacks)
            let schedules = [
                (base.clone().with_max_partition_retries(1), 1, 0),
                (
                    base.clone()
                        .with_checkpoint_interval(1)
                        .with_max_loop_recoveries(2),
                    0,
                    1,
                ),
            ];
            for (config, retries, rollbacks) in schedules {
                let mut db = db_with_edges(base.clone());
                db.set_config(config.with_fault(FaultConfig::fail_nth(FaultSite::Rename, 2)))
                    .unwrap();
                db.take_stats();
                let batch = leaves_nothing_tracked(&db, || db.query(&sql)).unwrap();
                let what = format!("parallel={parallel}, rollbacks={rollbacks}: {sql}");
                assert_eq!(
                    format!("{:?}", batch.rows()),
                    format!("{:?}", expected.rows()),
                    "{what}"
                );
                let stats = db.take_stats();
                assert_eq!(stats.faults_injected, 1, "{what}");
                assert_eq!(
                    (stats.step_retries, stats.loop_rollbacks),
                    (retries, rollbacks),
                    "{what}"
                );
                assert!(stats.merges >= 2, "{what}");
                assert_recovered(&db);
            }
        }
    }
}

#[test]
fn invalid_configs_are_rejected_up_front() {
    assert!(matches!(
        Database::new(EngineConfig::default().with_partitions(0)),
        Err(Error::InvalidConfig(_))
    ));
    assert!(matches!(
        Database::new(EngineConfig::default().with_query_timeout_ms(0)),
        Err(Error::InvalidConfig(_))
    ));
    let mut db = Database::new(EngineConfig::default()).unwrap();
    let err = db
        .set_config(EngineConfig::default().with_max_iterations(0))
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)));
    // The rejected config was not installed.
    assert_eq!(db.config().max_iterations, 10_000);
}
