//! MPP substrate checks: partitioning must be an implementation detail —
//! any partition count, any distribution column, parallel or sequential
//! workers — while the exchange counters reflect genuine data movement.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use spinner_datagen::{load_edges_into, load_vertex_status_into, GraphSpec};
use spinner_engine::{Database, EngineConfig, ProfileNode, QueryProfile, Value};
use spinner_procedural::pagerank;
use spinner_procedural::queries::{ff, sssp_convergent};

mod common;
use common::leaves_nothing_tracked;

fn load(config: EngineConfig) -> Database {
    let db = Database::new(config).unwrap();
    let spec = GraphSpec {
        nodes: 150,
        edges: 700,
        seed: 23,
        max_weight: 10,
    };
    load_edges_into(&db, "edges", &spec).unwrap();
    db
}

/// Compare result sets cell-by-cell, allowing relative float error: SUM
/// accumulates in partition order, so different partition counts may
/// differ in the last ulps — numerically equal, bitwise not.
fn assert_rows_approx_eq(a: &spinner_engine::Batch, b: &spinner_engine::Batch, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        for (va, vb) in ra.iter().zip(rb.iter()) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() / scale < 1e-9, "{what}: {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "{what}"),
            }
        }
    }
}

#[test]
fn pagerank_equal_across_partition_counts_up_to_float_order() {
    let sql = pagerank(8, false).cte;
    let reference = load(EngineConfig::default().with_partitions(1))
        .query(&sql)
        .unwrap();
    for parts in [2, 3, 4, 7, 16] {
        let got = load(EngineConfig::default().with_partitions(parts))
            .query(&sql)
            .unwrap();
        assert_rows_approx_eq(&got, &reference, &format!("{parts} partitions"));
    }
}

/// Remembered placement does not show in results: PageRank and SSSP give
/// at 2 and 4 partitions what they give at 1. At 4 partitions their exact
/// counts `[rows_routed, rows_moved]` are pinned. `rows_routed`, the rows
/// exchanges hashed, was 17,760 and 9,578 when every hash exchange hashed
/// its whole input; then 13,210 and 4,846 once the CTE table, the delta and
/// the working table passed through where they were already placed
/// (`rows_moved` 10,008 and 3,701). Now each loop body's aggregate
/// exchanges its partial states on the key the working table is stored
/// by, so the Materialize's re-shuffle passes through:
/// * PageRank's routed count drops by iterations × nodes, 10 × 150 = 1,500:
///   the finished rows the Materialize hashed every iteration.
/// * SSSP's drops by twice the groups its body emits, 2 × 770 = 1,540
///   (`rows_materialized` 920 less the 150 anchor rows): its aggregate's
///   input is already placed on the group key, so the partial states (one
///   per group) and the finished rows both pass through.
///
/// `rows_moved` dropped with them, to 8,851 and 2,553. Then PageRank's
/// second join stopped hashing the first join's rows on `src`: its build
/// side, the CTE's 150 rows, is broadcast instead (`rows_broadcast`, not
/// `rows_moved`), the probe rows stay placed on the CTE's key, and the
/// aggregate's exchange passes them through. Its loop hashes no row, so
/// PageRank routes only the anchor's `src` column, 700 rows, and moves 621:
/// 520 of those plus the 101 the final gather fetches. SSSP's counts stay.
/// (Spill threshold pinned high: a temp read back from a spill file has
/// lost its tag and is hashed again.)
#[test]
fn pagerank_and_sssp_agree_across_partitions_and_hash_only_unplaced_rows() {
    let queries = [pagerank(10, false).cte, sssp_convergent(1, None).cte];
    let run = |parts: usize| {
        let config = EngineConfig::default().with_partitions(parts);
        let db = load(config.with_spill_threshold_bytes(u64::MAX));
        let run = |sql: &String| {
            let batch = db.query(sql).unwrap();
            let stats = db.take_stats();
            (batch, [stats.rows_routed, stats.rows_moved])
        };
        queries.iter().map(run).collect::<Vec<_>>()
    };
    let reference = run(1);
    for parts in [1, 2, 4] {
        let got = run(parts);
        assert_rows_approx_eq(&got[0].0, &reference[0].0, &format!("PageRank, {parts}"));
        assert_eq!(got[1].0.rows(), reference[1].0.rows(), "SSSP, {parts}");
        if parts == 4 {
            assert_eq!([got[0].1, got[1].1], [[700, 621], [3_306, 2_553]]);
        }
    }
}

#[test]
fn pagerank_identical_with_parallel_workers() {
    // Same partitioning, so the accumulation order is identical and the
    // comparison can be exact: parallelism itself must not perturb results.
    let sql = pagerank(8, false).cte;
    let seq = load(EngineConfig::default()).query(&sql).unwrap();
    let par = load(EngineConfig::default().with_parallel_partitions(true))
        .query(&sql)
        .unwrap();
    assert_eq!(seq.rows(), par.rows());
}

#[test]
fn single_partition_moves_no_rows() {
    let db = load(EngineConfig::default().with_partitions(1));
    db.query(&pagerank(5, false).cte).unwrap();
    let stats = db.take_stats();
    assert_eq!(stats.rows_moved, 0, "one worker has nowhere to move rows");
}

#[test]
fn join_on_distribution_key_moves_less_than_on_other_key() {
    // `edges` is distributed on dst. Joining on dst should co-locate;
    // joining on weight must reshuffle.
    let db = load(EngineConfig::default().with_partitions(8));
    db.take_stats();
    db.query("SELECT COUNT(*) FROM edges a JOIN edges b ON a.dst = b.dst")
        .unwrap();
    let colocated = db.take_stats().rows_moved;
    db.query("SELECT COUNT(*) FROM edges a JOIN edges b ON a.weight = b.weight")
        .unwrap();
    let reshuffled = db.take_stats().rows_moved;
    assert!(
        colocated < reshuffled / 2,
        "co-located join moved {colocated}, reshuffled join moved {reshuffled}"
    );
}

#[test]
fn outer_joins_survive_skewed_partitions() {
    // All rows share one key -> they all land in a single partition; the
    // other partitions are empty, which exercises the empty-side padding
    // paths of the hash join.
    let db = Database::new(EngineConfig::default().with_partitions(8)).unwrap();
    db.execute("CREATE TABLE l (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE r (k INT, w INT)").unwrap();
    db.execute("INSERT INTO l VALUES (7, 1), (7, 2), (8, 3)")
        .unwrap();
    db.execute("INSERT INTO r VALUES (7, 10)").unwrap();
    let batch = db
        .query("SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.v")
        .unwrap();
    assert_eq!(batch.len(), 3);
    assert_eq!(batch.rows()[0][1], Value::Int(10));
    assert!(batch.rows()[2][1].is_null(), "k=8 unmatched, padded");
    let full = db
        .query("SELECT COUNT(*) FROM l FULL JOIN r ON l.k = r.k")
        .unwrap();
    assert_eq!(full.rows()[0][0], Value::Int(3));
}

#[test]
fn two_phase_aggregation_moves_fewer_rows_same_results() {
    // edges is distributed on dst but grouped on src: each partition
    // pre-aggregates, so at most one partial row per (partition, group)
    // is shipped — never the raw rows a single-phase aggregation would
    // reshuffle. (A group's partials include the one already in its
    // target partition, and the final gather moves at most one row per
    // group, so partitions × groups bounds the whole statement.)
    let sql = "SELECT src, COUNT(*) AS n, SUM(weight) AS w, AVG(weight) AS a, \
               MIN(dst) AS lo, MAX(dst) AS hi \
               FROM edges GROUP BY src ORDER BY src";
    let partitions = 4;
    let one = load(EngineConfig::default().with_partitions(1));
    let many = load(EngineConfig::default().with_partitions(partitions));
    let expected = one.query(sql).unwrap();
    many.take_stats();
    let got = many.query(sql).unwrap();
    let moved = many.take_stats().rows_moved;
    assert_rows_approx_eq(&got, &expected, "two-phase aggregation");
    let bound = partitions as u64 * got.len() as u64;
    let edges = many.query("SELECT COUNT(*) FROM edges").unwrap().rows()[0][0]
        .as_i64()
        .unwrap() as u64;
    assert!(
        moved <= bound && bound < edges,
        "moved {moved} rows; partitions × groups = {bound}, raw rows = {edges}"
    );
}

#[test]
fn distinct_aggregates_correct_under_two_phase_config() {
    let db = load(EngineConfig::default());
    let a = db.query("SELECT COUNT(DISTINCT dst) FROM edges").unwrap();
    let b = db
        .query("SELECT COUNT(*) FROM (SELECT DISTINCT dst FROM edges)")
        .unwrap();
    assert_eq!(a.rows(), b.rows());
    // Grouped DISTINCT falls back to single-phase — still correct.
    let per_src = db
        .query("SELECT src, COUNT(DISTINCT weight) FROM edges GROUP BY src ORDER BY src")
        .unwrap();
    assert!(!per_src.is_empty());
}

/// PageRank's second join broadcasts its build side, the CTE's rows, to
/// every other partition once an iteration: iterations × CTE rows × (P − 1)
/// copies. A statement without a join broadcasts nothing.
#[test]
fn broadcast_counter_tracks_replication() {
    for parts in [2u64, 4] {
        let db = load(EngineConfig::default().with_partitions(parts as usize));
        let nodes = db
            .query("SELECT COUNT(*) FROM (SELECT src FROM edges UNION SELECT dst FROM edges)")
            .unwrap()
            .rows()[0][0]
            .as_i64()
            .unwrap() as u64;
        db.query(&pagerank(10, false).cte).unwrap();
        assert_eq!(db.take_stats().rows_broadcast, 10 * nodes * (parts - 1));
        db.query("SELECT COUNT(*) FROM edges").unwrap();
        assert_eq!(db.take_stats().rows_broadcast, 0);
    }
}

/// PageRank's ranks are the same bits at every partition count. Its second
/// join broadcasts the CTE rather than re-hashing the first join's rows on
/// `src`, so a node's incoming contributions stay in the node's partition,
/// in the order a single partition sums them (`edges` is stored on `dst`,
/// each partition in load order), and the aggregate above folds each node's
/// sum in one partial state.
#[test]
fn pagerank_ranks_are_bit_identical_at_every_partition_count() {
    let sql = pagerank(10, false).cte;
    let ranks = |parts: usize| {
        let db = load(EngineConfig::default().with_partitions(parts));
        format!("{:?}", db.query(&sql).unwrap().rows())
    };
    let one = ranks(1);
    for parts in [2, 4] {
        assert_eq!(ranks(parts), one, "{parts} partitions");
    }
}

#[test]
fn concurrent_readers_share_one_database() {
    // Database is &self for queries; catalog and registry use internal
    // locks, so read-only sessions can share an Arc across threads.
    let db = std::sync::Arc::new(load(EngineConfig::default()));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let db = std::sync::Arc::clone(&db);
            std::thread::spawn(move || {
                let sql = format!(
                    "WITH ITERATIVE t (k, v) AS (
                         SELECT DISTINCT src, {i} FROM edges
                     ITERATE SELECT k, v + 1 FROM t
                     UNTIL 5 ITERATIONS) SELECT MAX(v) FROM t"
                );
                db.query(&sql).unwrap().rows()[0][0].as_i64().unwrap()
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as i64 + 5);
    }
}

/// What a profile reports that must not depend on what else the engine
/// is running: iterations, rows moved, join builds (built, reused) and
/// delta rows (fed, merged).
fn statement_counters(profile: &QueryProfile) -> [u64; 6] {
    fn moved(node: &ProfileNode) -> u64 {
        node.rows_moved + node.children.iter().map(moved).sum::<u64>()
    }
    let loops = profile.loops();
    let modes = || loops.iter().filter_map(|l| l.iteration_mode);
    [
        loops.iter().map(|l| l.iterations.len() as u64).sum(),
        profile.roots.iter().map(moved).sum(),
        profile.pool.get("join_builds"),
        profile.pool.get("join_builds_reused"),
        modes().map(|m| m.delta_rows).sum(),
        modes().map(|m| m.merged_rows).sum(),
    ]
}

#[test]
fn concurrent_sessions_keep_their_own_counters() {
    // Regression: counters used to live in one database-wide set that
    // every statement zeroed on entry, so sessions zeroed and polluted
    // each other's EXPLAIN ANALYZE. Three sessions profile different
    // iterative queries in a loop while a fourth runs point statements;
    // every profile must report what the query reports when run alone.
    // (Spill threshold pinned high: under CI's forced-spill env cached
    // builds are evicted by whatever else is resident.)
    const ROUNDS: usize = 6;
    let db = load(EngineConfig::default().with_spill_threshold_bytes(u64::MAX));
    let spec = GraphSpec {
        nodes: 150,
        edges: 700,
        seed: 23,
        max_weight: 10,
    };
    load_vertex_status_into(&db, "vertexstatus", &spec, 0.8).unwrap();
    db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    db.execute("INSERT INTO kv VALUES (1, 0), (2, 0)").unwrap();
    let sqls = [
        pagerank(4, true).cte,
        sssp_convergent(1, None).cte,
        ff(4, 10).cte,
    ];
    let alone: Vec<[u64; 6]> = sqls
        .iter()
        .map(|sql| statement_counters(&db.explain_analyze(sql).unwrap()))
        .collect();
    assert!(alone[0][3] > 0, "PR-VS must reuse a join build: {alone:?}");
    assert!(alone[1][4] > 0, "SSSP must run delta-driven: {alone:?}");

    let db = Arc::new(db);
    let start = Barrier::new(sqls.len() + 1);
    let profiling = AtomicUsize::new(sqls.len());
    let (mismatches, points) = std::thread::scope(|s| {
        let sessions: Vec<_> = sqls
            .iter()
            .zip(&alone)
            .map(|(sql, want)| {
                let (db, start, profiling) = (&db, &start, &profiling);
                s.spawn(move || {
                    start.wait();
                    let got: Vec<_> = (0..ROUNDS)
                        .map(|_| db.explain_analyze(sql).map(|p| statement_counters(&p)))
                        .collect();
                    profiling.fetch_sub(1, Ordering::SeqCst);
                    got.into_iter()
                        .filter(|got| got.as_ref().ok() != Some(want))
                        .map(|got| format!("{sql}: {got:?}, alone {want:?}"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let point = s.spawn(|| {
            start.wait();
            let mut statements = 0u64;
            while profiling.load(Ordering::SeqCst) > 0 {
                db.query("SELECT COUNT(*) FROM edges WHERE src = 7")
                    .unwrap();
                db.execute("UPDATE kv SET v = v + 1 WHERE k = 1").unwrap();
                statements += 2;
            }
            statements
        });
        let mismatches: Vec<String> = sessions
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (mismatches, point.join().unwrap())
    });
    assert!(points > 0, "the point session never overlapped the loops");
    assert!(
        mismatches.is_empty(),
        "profiles differ from the single-session run:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn empty_table_edge_cases() {
    let db = Database::new(EngineConfig::default().with_partitions(4)).unwrap();
    db.execute("CREATE TABLE empty (a INT, b FLOAT)").unwrap();
    // Scans, joins, aggregates and limits over empty inputs.
    assert_eq!(db.query("SELECT * FROM empty").unwrap().len(), 0);
    assert_eq!(
        db.query("SELECT COUNT(*), SUM(b) FROM empty")
            .unwrap()
            .rows()[0][0],
        Value::Int(0)
    );
    assert_eq!(
        db.query("SELECT * FROM empty e1 JOIN empty e2 ON e1.a = e2.a")
            .unwrap()
            .len(),
        0
    );
    assert_eq!(
        db.query("SELECT a FROM empty ORDER BY a LIMIT 0")
            .unwrap()
            .len(),
        0
    );
    // An iterative CTE over an empty R0 still terminates.
    let batch = db
        .query(
            "WITH ITERATIVE t (a, b) AS (
                 SELECT a, b FROM empty
             ITERATE SELECT a, b + 1 FROM t
             UNTIL 3 ITERATIONS) SELECT COUNT(*) FROM t",
        )
        .unwrap();
    assert_eq!(batch.rows()[0][0], Value::Int(0));
}

#[test]
fn until_any_stops_at_first_satisfying_row() {
    let db = Database::default();
    db.execute("CREATE TABLE seeds (k INT, v INT)").unwrap();
    db.execute("INSERT INTO seeds VALUES (1, 0), (2, 5)")
        .unwrap();
    // Row 2 reaches v > 8 first; ANY stops the loop for everyone.
    db.query(
        "WITH ITERATIVE t (k, v) AS (
             SELECT k, v FROM seeds
         ITERATE SELECT k, v + 1 FROM t
         UNTIL ANY (v > 8))
         SELECT k, v FROM t ORDER BY k",
    )
    .unwrap();
    assert_eq!(db.take_stats().iterations, 4); // 5 + 4 = 9 > 8
}

#[test]
fn rename_is_constant_work_regardless_of_size() {
    // The rename path's registry re-point must not scale with table size:
    // compare renames (not rows) across two very different sizes.
    let run = |nodes: usize| {
        let db = Database::default();
        let spec = GraphSpec {
            nodes,
            edges: nodes * 3,
            seed: 1,
            max_weight: 5,
        };
        load_edges_into(&db, "edges", &spec).unwrap();
        db.query(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT DISTINCT src, 0 FROM edges
             ITERATE SELECT k, v + 1 FROM t
             UNTIL 5 ITERATIONS) SELECT COUNT(*) FROM t",
        )
        .unwrap();
        db.take_stats()
    };
    let small = run(50);
    let large = run(1_000);
    assert_eq!(small.renames, large.renames);
    assert_eq!(small.merges, 0);
    assert_eq!(large.merges, 0);
}

#[test]
fn every_statement_returns_state_to_baseline() {
    // Leak check: after each statement — reads, DML, iterative loops,
    // EXPLAIN ANALYZE, failures — the memory accountant and the admission
    // controller are both back to where they were before it.
    let db = load(
        EngineConfig::default()
            .with_partitions(4)
            .with_max_concurrent_queries(2),
    );
    let statements = [
        "SELECT COUNT(*) FROM edges",
        &pagerank(5, false).cte,
        "INSERT INTO edges VALUES (9001, 9002, 1.0)",
        "EXPLAIN ANALYZE SELECT src, COUNT(*) FROM edges GROUP BY src",
        "SELECT * FROM no_such_table", // typed failure path
        "WITH ITERATIVE t (k, v) AS (
             SELECT DISTINCT src, 0 FROM edges
         ITERATE SELECT k, v + 1 FROM t
         UNTIL 6 ITERATIONS) SELECT COUNT(*) FROM t",
    ];
    for sql in statements {
        // Failures are part of the matrix.
        let _ = leaves_nothing_tracked(&db, || db.execute(sql));
        let snap = db.admission().unwrap().snapshot();
        assert_eq!(
            (snap.active, snap.queued),
            (0, 0),
            "admission leak after {sql:?}: {snap:?}"
        );
    }
}
