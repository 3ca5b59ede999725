//! Parallel partition scheduling and join-state-cache accounting.
//!
//! With `parallel_partitions` on, a statement's occupied partitions run
//! on its own thread and at most one scoped thread per further core, so
//! fewer threads are spawned than partitions run in parallel; and the
//! loop-invariant join cache must build each hash table whose build side
//! the loop cannot change once and re-probe it on every later iteration.
//! The counters (`threads_spawned`, `pool_tasks`, `join_builds`,
//! `join_builds_reused`) make both claims testable.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use spinner_common::{DataType, Field, Schema};
use spinner_datagen::{load_edges_into, load_vertex_status_into, DatasetPreset, GraphSpec};
use spinner_engine::{Database, EngineConfig, Error, Session};
use spinner_procedural::{pagerank, run_script, sssp};

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
    assert_threads_bounded(stats.threads_spawned, stats.pool_tasks);
}

/// Parallel partitions share the statement's thread and at most one
/// spawned thread per further core: fewer threads than partitions, and
/// some whenever there is a second core to run them on.
fn assert_threads_bounded(threads_spawned: u64, pool_tasks: u64) {
    assert!(pool_tasks > 0, "partitions must run in parallel");
    assert!(
        threads_spawned < pool_tasks,
        "{threads_spawned} threads for {pool_tasks} partitions"
    );
    if thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(threads_spawned > 0, "a second core must get a thread");
    }
}

/// Each statement's partitions run on its own threads, so a point query
/// on a second session answers while a long loop runs on the first
/// instead of queueing behind its partitions.
#[test]
fn point_query_answers_while_a_loop_runs() {
    let db = Arc::new(load(
        EngineConfig::default()
            .with_partitions(4)
            .with_parallel_partitions(true)
            .with_max_iterations(1_000_000),
        false,
    ));
    let looping = Session::new(Arc::clone(&db));
    let point = Session::new(Arc::clone(&db));
    thread::scope(|s| {
        let run = s.spawn(|| looping.execute(&pagerank(1_000_000, false).cte));
        thread::sleep(Duration::from_millis(200));
        let rows = point.execute("SELECT dst FROM edges WHERE src = 1");
        assert!(!rows.unwrap().into_rows().unwrap().is_empty());
        assert!(!run.is_finished(), "the loop must still be running");
        assert!(looping.cancel_current());
        assert!(matches!(run.join().unwrap(), Err(Error::Cancelled)));
    });
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
    // The procedure formulation runs the same body as one statement per
    // iteration: no loop, so no join of it ever goes near the cache. The
    // threshold is pinned high so that forced spill cannot evict the
    // builds this compares against.
    for with_vs in [true, false] {
        let workload = if with_vs {
            sssp(8, 1, true)
        } else {
            pagerank(8, false)
        };
        let config = EngineConfig::default().with_spill_threshold_bytes(u64::MAX);
        let db = load(config, with_vs);
        let cached = db.query(&workload.cte).unwrap();
        assert!(db.take_stats().join_builds_reused > 0, "with_vs={with_vs}");
        let uncached = run_script(&db, &workload.procedure).unwrap().rows;
        assert_eq!(cached.rows(), uncached.rows(), "with_vs={with_vs}");
    }
}

#[test]
fn pagerank_builds_the_edges_table_once() {
    // spinbench's engine and graph: of PageRank's two joins per iteration,
    // the one whose build side is the base table `edges` builds once and
    // is re-probed by the other nine iterations; the one over the CTE
    // table rebuilds every time.
    let mut config = EngineConfig::default()
        .with_partitions(2)
        .with_parallel_partitions(false);
    config.spill_threshold_bytes = None;
    config.spill_dir = None;
    let db = Database::new(config).unwrap();
    let mut spec = DatasetPreset::Dblp.spec(0.02);
    spec.seed = 1;
    let schema = Schema::new(vec![
        Field::new("src", DataType::Int),
        Field::new("dst", DataType::Int),
        Field::new("weight", DataType::Float),
    ]);
    db.create_table_from_rows("edges", schema, spec.generate_normalized(), None, Some(1))
        .unwrap();
    db.query(&pagerank(10, false).cte).unwrap();
    let stats = db.take_stats();
    assert_eq!(stats.joins_executed, 20);
    assert_eq!((stats.join_builds, stats.join_builds_reused), (1, 9));
}

#[test]
fn explain_analyze_surfaces_pool_profile_on_fig9_workload() {
    // With parallel partitions on, EXPLAIN ANALYZE of the fig9
    // common-result workload reports its scoped threads and parallel
    // partitions, and at least one reused join build.
    let db = load(
        EngineConfig::default()
            .with_partitions(4)
            .with_parallel_partitions(true)
            .with_spill_threshold_bytes(u64::MAX),
        true,
    );
    let profile = db.explain_analyze(&pagerank(8, true).cte).unwrap();
    let (threads, tasks) = (
        profile.pool.get("threads_spawned"),
        profile.pool.get("pool_tasks"),
    );
    assert_threads_bounded(threads, tasks);
    assert!(profile.pool.get("join_builds") >= 1);
    assert!(profile.pool.get("join_builds_reused") >= 1);
    // The JSON and text renderings carry the counted values.
    let json = profile.to_json();
    let pool = format!(
        "\"pool\":{{\"threads_spawned\":{threads},\"pool_tasks\":{tasks},\"join_builds\":{},\"join_builds_reused\":{}}}",
        profile.pool.get("join_builds"),
        profile.pool.get("join_builds_reused")
    );
    assert!(json.contains(&pool), "{pool} missing from {json}");
    let line = format!("pool: threads_spawned={threads}, pool_tasks={tasks}");
    assert!(profile.render().contains(&line), "{line}");
}
