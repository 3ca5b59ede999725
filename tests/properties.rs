//! Property-based tests (proptest): invariants that must hold for *random*
//! graphs, values and configurations — not just the fixtures the unit
//! tests pin down.

use proptest::prelude::*;
use spinner_common::Value;
use spinner_datagen::{load_edges_into, load_vertex_status_into, oracle, GraphSpec};
use spinner_engine::{Database, EngineConfig, FaultConfig, FaultSite};
use spinner_procedural::{connected_components, ff, pagerank, run_script, sssp};

mod common;

/// Strategy: a small random graph spec.
fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (8usize..60, 0u64..1_000_000, 1u32..20).prop_flat_map(|(nodes, seed, max_weight)| {
        (Just(nodes), nodes..nodes * 5, Just(seed), Just(max_weight)).prop_map(
            |(nodes, edges, seed, max_weight)| GraphSpec {
                nodes,
                edges,
                seed,
                max_weight,
            },
        )
    })
}

fn load(spec: &GraphSpec, config: EngineConfig) -> Database {
    let db = Database::new(config).unwrap();
    load_edges_into(&db, "edges", spec).unwrap();
    db
}

fn load_with_vs(spec: &GraphSpec, config: EngineConfig, with_vs: bool) -> Database {
    let db = load(spec, config);
    if with_vs {
        load_vertex_status_into(&db, "vertexstatus", spec, 0.8).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rename fast path and the merge path must agree on any graph and
    /// any (keyed, duplicate-free) iterative computation.
    #[test]
    fn rename_and_merge_paths_agree(spec in graph_spec(), iters in 1u64..8) {
        let sql = format!(
            "WITH ITERATIVE t (k, a, b) AS (
                 SELECT DISTINCT src, CAST(src AS FLOAT), 1.0 FROM edges
             ITERATE
                 SELECT k, a + b, a - b FROM t
             UNTIL {iters} ITERATIONS)
             SELECT k, a, b FROM t ORDER BY k"
        );
        let fast = load(&spec, EngineConfig::default()).query(&sql).unwrap();
        let slow = load(&spec, EngineConfig::default().with_minimize_data_movement(false))
            .query(&sql)
            .unwrap();
        prop_assert_eq!(fast.rows(), slow.rows());
    }

    /// SSSP run to convergence equals Dijkstra on any random graph.
    #[test]
    fn sssp_matches_dijkstra(spec in graph_spec()) {
        let db = load(&spec, EngineConfig::default());
        let w = sssp(spec.nodes as u64 + 1, 1, false);
        let batch = db.query(&w.cte).unwrap();
        let dist = oracle::dijkstra(&spec, 1);
        for row in batch.rows() {
            let node = row[0].as_i64().unwrap() as usize;
            let got = row[1].as_f64().unwrap();
            match dist[node] {
                Some(d) => prop_assert!((got - d).abs() < 1e-6,
                    "node {}: sql {} vs dijkstra {}", node, got, d),
                None => prop_assert_eq!(got, 9_999_999.0),
            }
        }
    }

    /// Predicate push-down never changes FF results, for any selectivity.
    #[test]
    fn ff_pushdown_preserves_results(
        spec in graph_spec(),
        mod_x in 1i64..50,
        iters in 1u64..10,
    ) {
        let w = ff(iters, mod_x);
        let on = load(&spec, EngineConfig::default()).query(&w.cte).unwrap();
        let off = load(&spec, EngineConfig::default().with_predicate_pushdown(false))
            .query(&w.cte)
            .unwrap();
        prop_assert_eq!(on.rows(), off.rows());
    }

    /// The three execution strategies agree on FF for random graphs.
    #[test]
    fn strategies_agree_on_random_graphs(spec in graph_spec(), iters in 1u64..6) {
        let w = ff(iters, 5);
        let db = load(&spec, EngineConfig::default());
        let native = db.query(&w.cte).unwrap();
        let proc_rows = run_script(&db, &w.procedure).unwrap().rows;
        prop_assert_eq!(native.rows(), proc_rows.rows());
    }

    /// Connected components by label propagation finds exactly the
    /// constructed components: striped node ids mean node n belongs to
    /// component (n-1) % k, whose minimum id — the converged label — is
    /// ((n-1) % k) + 1.
    #[test]
    fn connected_components_match_construction(
        nodes in 20usize..120,
        k in 1usize..6,
        seed in 0u64..100_000,
    ) {
        let spec = GraphSpec { nodes, edges: nodes * 2, seed, max_weight: 5 };
        let rows = spec.generate_symmetric_components(k);
        let db = Database::default();
        let schema = spinner_common::Schema::new(vec![
            spinner_common::Field::new("src", spinner_common::DataType::Int),
            spinner_common::Field::new("dst", spinner_common::DataType::Int),
            spinner_common::Field::new("weight", spinner_common::DataType::Float),
        ]);
        db.create_table_from_rows("edges", schema, rows, None, Some(1)).unwrap();
        let w = spinner_procedural::connected_components(None);
        let batch = db.query(&w.cte).unwrap();
        prop_assert_eq!(batch.len(), nodes);
        for row in batch.rows() {
            let node = row[0].as_i64().unwrap();
            let label = row[1].as_i64().unwrap();
            let expected = oracle::striped_component_label(node, k);
            prop_assert_eq!(label, expected, "node {} labelled {}", node, label);
        }
    }

    /// ORDER BY returns a permutation sorted by the key.
    #[test]
    fn sort_is_a_sorted_permutation(spec in graph_spec()) {
        let db = load(&spec, EngineConfig::default());
        let sorted = db.query("SELECT weight FROM edges ORDER BY weight").unwrap();
        let unsorted = db.query("SELECT weight FROM edges").unwrap();
        prop_assert_eq!(sorted.len(), unsorted.len());
        let vals: Vec<f64> = sorted.rows().iter().map(|r| r[0].as_f64().unwrap()).collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        let mut a: Vec<Value> = sorted.rows().iter().map(|r| r[0].clone()).collect();
        let mut b: Vec<Value> = unsorted.rows().iter().map(|r| r[0].clone()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// COUNT(*) equals the generated edge count; GROUP BY counts sum to it.
    #[test]
    fn aggregation_conservation(spec in graph_spec()) {
        let db = load(&spec, EngineConfig::default());
        let total = db.query("SELECT COUNT(*) FROM edges").unwrap();
        prop_assert_eq!(total.rows()[0][0].as_i64().unwrap(), spec.edges as i64);
        let per_src = db
            .query("SELECT SUM(n) FROM (SELECT src, COUNT(*) AS n FROM edges GROUP BY src)")
            .unwrap();
        prop_assert_eq!(per_src.rows()[0][0].as_i64().unwrap(), spec.edges as i64);
    }

    /// Partition count never affects results.
    #[test]
    fn partition_count_is_transparent(spec in graph_spec(), parts in 1usize..9) {
        let sql = "SELECT src, COUNT(*) AS n FROM edges GROUP BY src ORDER BY src";
        let base = load(&spec, EngineConfig::default().with_partitions(1))
            .query(sql)
            .unwrap();
        let multi = load(&spec, EngineConfig::default().with_partitions(parts))
            .query(sql)
            .unwrap();
        prop_assert_eq!(base.rows(), multi.rows());
    }

    /// Parallel partitions are semantically invisible: for any random
    /// graph, every benchmark query shape (fig8 FF/PR, fig9 PR-VS, fig11
    /// SSSP-VS, ablation CC) and partitions ∈ {1, 2, 4}, parallel
    /// execution returns exactly the serial rows. Both
    /// sides share one partition count, so even float accumulation order
    /// matches and the comparison is exact.
    #[test]
    fn pooled_parallel_matches_serial(
        spec in graph_spec(),
        shape in 0usize..5,
        parts_idx in 0usize..3,
    ) {
        let parts = [1usize, 2, 4][parts_idx];
        let (sql, with_vs) = match shape {
            0 => (ff(5, 7).cte, false),
            1 => (pagerank(5, false).cte, false),
            2 => (pagerank(5, true).cte, true),
            3 => (sssp(6, 1, true).cte, true),
            _ => (connected_components(Some(8)).cte, false),
        };
        let serial = load_with_vs(&spec, EngineConfig::default().with_partitions(parts), with_vs)
            .query(&sql)
            .unwrap();
        let parallel = load_with_vs(
            &spec,
            EngineConfig::default()
                .with_partitions(parts)
                .with_parallel_partitions(true),
            with_vs,
        )
        .query(&sql)
        .unwrap();
        prop_assert_eq!(
            sorted_rows(&parallel),
            sorted_rows(&serial),
            "shape {} with {} partitions diverged in parallel", shape, parts
        );
    }

    /// UNION is idempotent: (A UNION A) == DISTINCT A.
    #[test]
    fn union_idempotent(spec in graph_spec()) {
        let db = load(&spec, EngineConfig::default());
        let twice = db
            .query("SELECT COUNT(*) FROM (SELECT src FROM edges UNION SELECT src FROM edges)")
            .unwrap();
        let once = db
            .query("SELECT COUNT(*) FROM (SELECT DISTINCT src FROM edges)")
            .unwrap();
        prop_assert_eq!(twice.rows(), once.rows());
    }
}

/// Strategy: one deterministic fault (site × position × kind). Panic
/// kind is restricted to the Worker site — that is the only site behind
/// a catch_unwind boundary; everywhere else a panic is a driver bug by
/// design, not a recoverable fault.
fn single_fault() -> impl Strategy<Value = FaultConfig> {
    (0usize..7, 1u64..60, any::<bool>()).prop_map(|(site_idx, nth, panic)| {
        let site = [
            FaultSite::Exchange,
            FaultSite::Materialize,
            FaultSite::Rename,
            FaultSite::LoopIteration,
            FaultSite::Worker,
            FaultSite::Checkpoint,
            FaultSite::Recovery,
        ][site_idx];
        if panic && site == FaultSite::Worker {
            FaultConfig::panic_nth(site, nth)
        } else {
            FaultConfig::fail_nth(site, nth)
        }
    })
}

/// Strategy: every recovery mechanism enabled — some checkpoint cadence,
/// ≥1 in-place retry, ≥1 loop recovery — applied on top of `config`.
fn enabled_recovery() -> impl Strategy<Value = (u64, u64, u64)> {
    (1u64..5, 1u64..3, 1u64..4)
}

fn with_recovery(
    config: EngineConfig,
    (interval, retries, recoveries): (u64, u64, u64),
) -> EngineConfig {
    config
        .with_checkpoint_interval(interval)
        .with_max_partition_retries(retries)
        .with_max_loop_recoveries(recoveries)
}

/// The loop workloads the recovery and spill properties draw from, with
/// the config of each one's fault-free oracle run. The recursions produce
/// integers only and are checked against a single partition; PageRank
/// and SSSP aggregate floats, whose sums depend on the partitioning, so
/// their oracle keeps it.
fn loop_workload(index: usize) -> (String, EngineConfig) {
    let in_memory = EngineConfig {
        spill_threshold_bytes: None,
        ..EngineConfig::default()
    };
    match index {
        0 => (pagerank(6, false).cte, in_memory),
        1 => (sssp(8, 1, false).cte, in_memory),
        2 => (common::closure_cte(), in_memory.with_partitions(1)),
        _ => (common::walk_cte(4), in_memory.with_partitions(1)),
    }
}

fn sorted_rows(batch: &spinner_common::Batch) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batch.rows().iter().map(|r| r.to_vec()).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery is semantically invisible: for any random graph, any
    /// single-fault schedule, and any enabled retry/checkpoint policy,
    /// PageRank, SSSP and both kinds of recursion return rows identical
    /// to a fault-free run — whether the fault was absorbed by a
    /// partition retry, a step retry, or a full rollback-and-replay (or
    /// never fired at all).
    #[test]
    fn single_fault_with_recovery_is_invisible(
        spec in graph_spec(),
        fault in single_fault(),
        policy in enabled_recovery(),
        parallel in any::<bool>(),
        workload in 0usize..4,
    ) {
        let (sql, oracle_config) = loop_workload(workload);
        let clean = load(&spec, oracle_config).query(&sql).unwrap();
        let config = with_recovery(EngineConfig::default(), policy)
            .with_parallel_partitions(parallel)
            .with_fault(fault.clone());
        let faulty = load(&spec, config).query(&sql).unwrap_or_else(|e| {
            panic!("fault {fault:?} escaped recovery: {e}")
        });
        prop_assert_eq!(
            sorted_rows(&faulty),
            sorted_rows(&clean),
            "fault {:?} changed the result rows", fault
        );
    }

    /// Spilling is semantically invisible: under a 1-byte threshold
    /// (every allocation pushes cold state to disk) PageRank, SSSP and
    /// both kinds of recursion over random graphs return rows identical
    /// to the in-memory run — alone and composed with an enabled
    /// recovery policy, whose checkpoints then live in spill files too.
    #[test]
    fn forced_spill_is_invisible(
        spec in graph_spec(),
        policy in proptest::option::of(enabled_recovery()),
        workload in 0usize..4,
    ) {
        let (sql, oracle_config) = loop_workload(workload);
        let clean = load(&spec, oracle_config).query(&sql).unwrap();
        let mut config = EngineConfig::default().with_spill_threshold_bytes(1);
        if let Some(policy) = policy {
            config = with_recovery(config, policy);
        }
        let db = load(&spec, config);
        db.take_stats();
        let spilled = db.query(&sql).unwrap();
        prop_assert_eq!(
            sorted_rows(&spilled),
            sorted_rows(&clean),
            "forced spill changed the result rows"
        );
        let stats = db.take_stats();
        prop_assert!(stats.spill_events > 0, "a 1-byte threshold must spill");
    }
}
