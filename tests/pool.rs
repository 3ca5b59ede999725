//! Worker-pool scheduling and join-state-cache accounting.
//!
//! With `parallel_partitions` on, the persistent pool (PR 5) must absorb
//! every per-partition task — it is the only parallel path, so
//! `threads_spawned` is 0 by construction — and the loop-invariant join
//! cache must build each `__common_*` hash table once and re-probe it on
//! every later iteration. The counters (`threads_spawned`, `pool_tasks`,
//! `join_builds`, `join_builds_reused`) make both claims testable.

use spinner_datagen::{load_edges_into, load_vertex_status_into, GraphSpec};
use spinner_engine::{Database, EngineConfig};
use spinner_procedural::{pagerank, sssp};

fn spec() -> GraphSpec {
    GraphSpec {
        nodes: 200,
        edges: 900,
        seed: 99,
        max_weight: 10,
    }
}

fn load(config: EngineConfig, with_vs: bool) -> Database {
    let db = Database::new(config).unwrap();
    load_edges_into(&db, "edges", &spec()).unwrap();
    if with_vs {
        load_vertex_status_into(&db, "vertexstatus", &spec(), 0.8).unwrap();
    }
    db
}

#[test]
fn pool_absorbs_all_parallel_tasks() {
    let db = load(
        EngineConfig::default()
            .with_partitions(4)
            .with_parallel_partitions(true),
        false,
    );
    db.query(&pagerank(5, false).cte).unwrap();
    let stats = db.take_stats();
    assert_eq!(
        stats.threads_spawned, 0,
        "pool enabled: no operator may spawn its own threads"
    );
    assert!(
        stats.pool_tasks > 0,
        "parallel work must go through the pool"
    );
}

#[test]
fn serial_execution_neither_spawns_nor_pools() {
    let db = load(EngineConfig::default().with_partitions(4), false);
    db.query(&pagerank(5, false).cte).unwrap();
    let stats = db.take_stats();
    assert_eq!(stats.threads_spawned, 0);
    assert_eq!(stats.pool_tasks, 0);
}

#[test]
fn empty_partitions_run_inline() {
    // All rows share one key, so they hash into a single partition; the
    // other seven are empty and must not cost a task or a thread.
    let db = Database::new(
        EngineConfig::default()
            .with_partitions(8)
            .with_parallel_partitions(true),
    )
    .unwrap();
    db.execute("CREATE TABLE l (k INT, v INT)").unwrap();
    db.execute("INSERT INTO l VALUES (7, 1), (7, 2), (7, 3)")
        .unwrap();
    let batch = db
        .query("SELECT k, SUM(v) FROM l WHERE v > 0 GROUP BY k")
        .unwrap();
    assert_eq!(batch.len(), 1);
    let stats = db.take_stats();
    assert_eq!(
        stats.pool_tasks, 0,
        "a single occupied partition runs on the coordinator"
    );
    assert_eq!(stats.threads_spawned, 0);
}

#[test]
fn join_cache_reuses_invariant_build_across_iterations() {
    // PR-VS hoists the loop-invariant edges ⋈ vertexstatus subtree into a
    // `__common_*` temp (paper §V-A); its build side must be hashed once.
    // Threshold pinned high: under CI's forced-spill env the build region
    // would be evicted between probes and reuse legitimately drops to 0
    // (covered by tests/spill.rs).
    let db = load(
        EngineConfig::default().with_spill_threshold_bytes(u64::MAX),
        true,
    );
    db.query(&pagerank(8, true).cte).unwrap();
    let stats = db.take_stats();
    assert!(
        stats.join_builds >= 1,
        "the invariant build must be constructed"
    );
    assert!(
        stats.join_builds_reused >= 1,
        "later iterations must re-probe the cached build, got {} builds / {} reuses",
        stats.join_builds,
        stats.join_builds_reused
    );
    assert!(
        stats.join_builds_reused > stats.join_builds,
        "an 8-iteration loop re-probes far more often than it builds"
    );
}

#[test]
fn join_cache_does_not_change_results() {
    for with_vs in [true, false] {
        let sql = if with_vs {
            sssp(8, 1, true).cte
        } else {
            pagerank(8, false).cte
        };
        let cached = load(EngineConfig::default(), with_vs).query(&sql).unwrap();
        let uncached = load(
            EngineConfig::default().with_join_state_cache(false),
            with_vs,
        )
        .query(&sql)
        .unwrap();
        assert_eq!(cached.rows(), uncached.rows(), "with_vs={with_vs}");
    }
}

#[test]
fn explain_analyze_surfaces_pool_profile_on_fig9_workload() {
    // The PR-5 acceptance check: with parallel partitions on, EXPLAIN
    // ANALYZE of the fig9 common-result workload reports zero mid-loop
    // thread spawns and at least one reused join build.
    let db = load(
        EngineConfig::default()
            .with_partitions(4)
            .with_parallel_partitions(true)
            .with_spill_threshold_bytes(u64::MAX),
        true,
    );
    let profile = db.explain_analyze(&pagerank(8, true).cte).unwrap();
    assert_eq!(profile.pool.get("threads_spawned"), 0);
    assert!(profile.pool.get("pool_tasks") > 0);
    assert!(profile.pool.get("join_builds") >= 1);
    assert!(profile.pool.get("join_builds_reused") >= 1);
    // The pool section round-trips through the profile's JSON codec.
    let json = profile.to_json();
    let back = spinner_engine::QueryProfile::from_json(&json).unwrap();
    assert_eq!(back.pool, profile.pool);
    assert!(profile.render().contains("pool: threads_spawned=0"));
}
