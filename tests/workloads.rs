//! The PR-10 workload suite: four iterative workloads (k-means, label
//! propagation, triangle-weighted ranking, logistic-regression gradient
//! descent), each checked against its hand-rolled oracle in
//! `spinner_datagen::oracle` over *random* inputs, across partition
//! counts {1, 2, 4} and semi-naive on/off — plus mode-selection
//! assertions (graph workloads take the delta rewrite, non-monotone ML
//! bodies must not) and a fault/spill/checkpoint matrix proving the
//! durability machinery never changes workload results. Float rows are
//! compared with `rows_approx_eq`, which absorbs the aggregation-order
//! drift documented in `spinner_common::approx`; integer workloads
//! compare exactly.

use proptest::prelude::*;
use spinner_common::{
    row_of, rows_approx_eq, EngineConfig, FaultConfig, FaultSite, Row, Value, DEFAULT_TOLERANCE,
};
use spinner_datagen::{
    load_edges_into, load_features_into, load_labeled_graph_into, load_points_into, oracle,
    FeatureSpec, GraphSpec, LabeledGraphSpec, PointsSpec,
};
use spinner_engine::{Database, Error};
use spinner_procedural::{
    kmeans_cte, label_propagation_cte, logistic_regression_cte, triangle_rank_cte,
};

fn config(partitions: usize, semi_naive: bool) -> EngineConfig {
    EngineConfig::default()
        .with_partitions(partitions)
        .with_semi_naive(semi_naive)
}

fn parts() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(4usize)]
}

/// Strategy: a random clustered-points spec (k well-separated clusters).
fn points_spec() -> impl Strategy<Value = PointsSpec> {
    (2usize..5, 0u64..1_000_000, 1u32..8).prop_flat_map(|(clusters, seed, spread)| {
        (clusters * 4..100).prop_map(move |points| PointsSpec {
            points,
            clusters,
            seed,
            spread: spread as f64,
        })
    })
}

/// Strategy: a random partially-labeled symmetric graph.
fn labeled_spec() -> impl Strategy<Value = LabeledGraphSpec> {
    (8usize..40, 0u64..1_000_000, 1usize..4, 0u32..=10).prop_flat_map(
        |(nodes, seed, components, frac)| {
            (nodes..nodes * 3).prop_map(move |edges| LabeledGraphSpec {
                graph: GraphSpec {
                    nodes,
                    edges,
                    seed,
                    max_weight: 5,
                },
                components,
                seed_fraction: frac as f64 / 10.0,
            })
        },
    )
}

/// Strategy: a small directed graph (the triangle oracle is cubic-ish in
/// degree, so keep it compact).
fn tri_graph_spec() -> impl Strategy<Value = GraphSpec> {
    (8usize..24, 0u64..1_000_000).prop_flat_map(|(nodes, seed)| {
        (nodes..nodes * 3).prop_map(move |edges| GraphSpec {
            nodes,
            edges,
            seed,
            max_weight: 5,
        })
    })
}

/// Strategy: a random feature matrix.
fn feature_spec() -> impl Strategy<Value = FeatureSpec> {
    (10usize..100, 0u64..1_000_000).prop_map(|(rows, seed)| FeatureSpec { rows, seed })
}

fn kmeans_oracle_rows(spec: &PointsSpec, iterations: u64) -> Vec<Row> {
    oracle::kmeans(&spec.generate(), spec.clusters, iterations)
        .into_iter()
        .map(|(cid, cx, cy)| row_of([Value::Int(cid), Value::Float(cx), Value::Float(cy)]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// K-means (ARG_MIN assignment + COALESCE'd AVG re-centering) equals
    /// the Lloyd-iteration oracle on any clustered input, at any
    /// partition count, with semi-naive on or off.
    #[test]
    fn kmeans_matches_oracle(
        spec in points_spec(),
        partitions in parts(),
        semi_naive in any::<bool>(),
        iterations in 1u64..5,
    ) {
        let db = Database::new(config(partitions, semi_naive)).unwrap();
        load_points_into(&db, "points", &spec).unwrap();
        let batch = db.query(&kmeans_cte(spec.clusters, iterations)).unwrap();
        let want = kmeans_oracle_rows(&spec, iterations);
        if let Err(msg) = rows_approx_eq(batch.rows(), &want, DEFAULT_TOLERANCE) {
            prop_assert!(false, "kmeans diverged from oracle: {}", msg);
        }
    }

    /// Label propagation run to DELTA-termination equals the integer
    /// min-label fixpoint oracle *exactly* — sparse seeds, unseeded
    /// components and all.
    #[test]
    fn label_propagation_matches_oracle(
        spec in labeled_spec(),
        partitions in parts(),
        semi_naive in any::<bool>(),
    ) {
        let db = Database::new(config(partitions, semi_naive)).unwrap();
        load_labeled_graph_into(&db, "edges", "labels", &spec).unwrap();
        let batch = db.query(&label_propagation_cte()).unwrap();
        let want: Vec<Row> = oracle::min_label_propagation(&spec.edges(), &spec.labels())
            .into_iter()
            .map(|(node, label)| row_of([Value::Int(node), Value::Int(label)]))
            .collect();
        prop_assert_eq!(batch.rows(), &want[..]);
    }

    /// Triangle-weighted ranking (three-way self-join invariant + SUM
    /// redistribution) equals the multiplicity-aware counting oracle.
    #[test]
    fn triangle_rank_matches_oracle(
        spec in tri_graph_spec(),
        partitions in parts(),
        semi_naive in any::<bool>(),
        iterations in 1u64..4,
    ) {
        let db = Database::new(config(partitions, semi_naive)).unwrap();
        load_edges_into(&db, "edges", &spec).unwrap();
        let batch = db.query(&triangle_rank_cte(iterations)).unwrap();
        let want: Vec<Row> = oracle::triangle_rank(&spec.generate(), iterations)
            .into_iter()
            .map(|(node, rank)| row_of([Value::Int(node), Value::Float(rank)]))
            .collect();
        if let Err(msg) = rows_approx_eq(batch.rows(), &want, DEFAULT_TOLERANCE) {
            prop_assert!(false, "triangle rank diverged from oracle: {}", msg);
        }
    }

    /// Logistic-regression gradient descent (wide sigmoid projections
    /// over the scalar `exp` kernel) equals the batch-gradient oracle.
    #[test]
    fn logistic_regression_matches_oracle(
        spec in feature_spec(),
        partitions in parts(),
        semi_naive in any::<bool>(),
        iterations in 1u64..6,
    ) {
        let db = Database::new(config(partitions, semi_naive)).unwrap();
        load_features_into(&db, "observations", &spec).unwrap();
        let batch = db.query(&logistic_regression_cte(iterations, 0.1)).unwrap();
        let (w1, w2, b) = oracle::logistic_regression(&spec.generate(), iterations, 0.1);
        let want = vec![row_of([Value::Float(w1), Value::Float(w2), Value::Float(b)])];
        if let Err(msg) = rows_approx_eq(batch.rows(), &want, DEFAULT_TOLERANCE) {
            prop_assert!(false, "logreg diverged from oracle: {}", msg);
        }
    }

    /// The ARG_MIN/ARG_MAX kernel itself: on random (group, value, key)
    /// tuples at any partition count, each group returns the value whose
    /// (key, value) pair is lexicographically smallest/largest — i.e.
    /// ties on the key break deterministically by value, never by
    /// arrival or merge order.
    #[test]
    fn arg_extremes_match_lexicographic_reference(
        rows in proptest::collection::vec((0i64..5, -20i64..20, -5i64..5), 1..60),
        partitions in parts(),
    ) {
        let db = Database::new(config(partitions, false)).unwrap();
        db.execute("CREATE TABLE t (g INT, v INT, k INT)").unwrap();
        let values: Vec<String> = rows.iter().map(|(g, v, k)| format!("({g}, {v}, {k})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        let batch = db
            .query("SELECT g, ARG_MIN(v, k), ARG_MAX(v, k) FROM t GROUP BY g ORDER BY g")
            .unwrap();
        // (key, value) pairs for the min and max side of each group.
        type ArgPair = (i64, i64);
        let mut best: std::collections::BTreeMap<i64, (ArgPair, ArgPair)> = Default::default();
        for &(g, v, k) in &rows {
            let e = best.entry(g).or_insert(((k, v), (k, v)));
            e.0 = e.0.min((k, v));
            e.1 = e.1.max((k, v));
        }
        let want: Vec<Row> = best
            .into_iter()
            .map(|(g, ((_, vmin), (_, vmax)))| {
                row_of([Value::Int(g), Value::Int(vmin), Value::Int(vmax)])
            })
            .collect();
        prop_assert_eq!(batch.rows(), &want[..]);
    }
}

// ---------------------------------------------------------------------
// Mode selection: the optimizer must pick the right iteration mode for
// each workload — and say so through stats and EXPLAIN ANALYZE.
// ---------------------------------------------------------------------

fn fixed_labeled_spec() -> LabeledGraphSpec {
    LabeledGraphSpec {
        graph: GraphSpec {
            nodes: 24,
            edges: 48,
            seed: 5,
            max_weight: 5,
        },
        components: 2,
        seed_fraction: 0.3,
    }
}

fn fixed_tri_spec() -> GraphSpec {
    GraphSpec {
        nodes: 16,
        edges: 48,
        seed: 9,
        max_weight: 5,
    }
}

#[test]
fn label_propagation_runs_semi_naive() {
    let db = Database::new(config(2, true)).unwrap();
    load_labeled_graph_into(&db, "edges", "labels", &fixed_labeled_spec()).unwrap();
    db.query(&label_propagation_cte()).unwrap();
    let stats = db.stats();
    assert_eq!(stats.semi_naive_loops, 1, "monotone MIN body must rewrite");
    assert!(stats.delta_rows_fed > 0, "delta never consumed");
    let text = db
        .explain_analyze(&label_propagation_cte())
        .unwrap()
        .render();
    assert!(
        text.contains("iteration: mode=semi_naive"),
        "missing semi-naive mode line:\n{text}"
    );
}

#[test]
fn non_monotone_ml_workloads_fall_back_to_full() {
    // Even with semi-naive enabled, ARG_MIN/AVG (k-means), SUM (triangle
    // rank) and the gradient updates (logreg) are not monotone MIN/MAX
    // accumulators — rewriting them would be unsound.
    let pspec = PointsSpec::small();
    let fspec = FeatureSpec::small();
    type Loader = Box<dyn Fn(&Database)>;
    let cases: [(&str, String, Loader); 3] = [
        (
            "kmeans",
            kmeans_cte(pspec.clusters, 3),
            Box::new(move |db| {
                load_points_into(db, "points", &pspec).unwrap();
            }),
        ),
        (
            "triangle_rank",
            triangle_rank_cte(3),
            Box::new(move |db| {
                load_edges_into(db, "edges", &fixed_tri_spec()).unwrap();
            }),
        ),
        (
            "logreg",
            logistic_regression_cte(3, 0.1),
            Box::new(move |db| {
                load_features_into(db, "observations", &fspec).unwrap();
            }),
        ),
    ];
    for (name, sql, load) in cases {
        let db = Database::new(config(2, true)).unwrap();
        load(&db);
        db.query(&sql).unwrap();
        assert_eq!(
            db.stats().semi_naive_loops,
            0,
            "unsound rewrite applied to {name}"
        );
        let text = db.explain_analyze(&sql).unwrap().render();
        assert!(
            text.contains("iteration: mode=full"),
            "{name} missing full mode line:\n{text}"
        );
    }
}

// ---------------------------------------------------------------------
// Fault / spill / checkpoint matrix: the durability machinery must be
// semantically invisible for every new workload.
// ---------------------------------------------------------------------

/// Strategy: one deterministic fault (site × position), panic kind only
/// at the Worker site (the only catch_unwind boundary) — mirrors the
/// matrix in `tests/properties.rs`.
fn single_fault() -> impl Strategy<Value = FaultConfig> {
    (0usize..7, 1u64..40, any::<bool>()).prop_map(|(site_idx, nth, panic)| {
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

/// Strategy: every recovery mechanism enabled — (checkpoint interval,
/// in-place retries, loop recoveries).
fn enabled_recovery() -> impl Strategy<Value = (u64, u64, u64)> {
    (1u64..5, 1u64..3, 1u64..4)
}

/// Load the shape's tables and run its query under `config`.
fn run_workload(shape: usize, config: EngineConfig) -> spinner_common::Batch {
    let db = Database::new(config).unwrap();
    let result = match shape {
        0 => {
            let spec = PointsSpec::small();
            load_points_into(&db, "points", &spec).unwrap();
            db.query(&kmeans_cte(spec.clusters, 4))
        }
        1 => {
            load_labeled_graph_into(&db, "edges", "labels", &fixed_labeled_spec()).unwrap();
            db.query(&label_propagation_cte())
        }
        2 => {
            load_edges_into(&db, "edges", &fixed_tri_spec()).unwrap();
            db.query(&triangle_rank_cte(3))
        }
        _ => {
            load_features_into(&db, "observations", &FeatureSpec::small()).unwrap();
            db.query(&logistic_regression_cte(4, 0.1))
        }
    };
    result.unwrap_or_else(|e| panic!("workload shape {shape} failed: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single fault under any enabled recovery policy — optionally
    /// with every allocation spilling to disk — leaves every workload's
    /// results unchanged (tolerance only covers the replay's aggregation
    /// order; integer label propagation stays exact).
    #[test]
    fn workload_fault_spill_checkpoint_invariance(
        shape in 0usize..4,
        fault in single_fault(),
        (interval, retries, recoveries) in enabled_recovery(),
        spill in any::<bool>(),
    ) {
        let clean = run_workload(shape, EngineConfig::default());
        let mut cfg = EngineConfig::default()
            .with_checkpoint_interval(interval)
            .with_max_partition_retries(retries)
            .with_max_loop_recoveries(recoveries)
            .with_fault(fault.clone());
        if spill {
            cfg = cfg.with_spill_threshold_bytes(1);
        }
        let faulty = run_workload(shape, cfg);
        if let Err(msg) = rows_approx_eq(faulty.rows(), clean.rows(), DEFAULT_TOLERANCE) {
            prop_assert!(
                false,
                "shape {} fault {:?} spill {} changed results: {}",
                shape, fault, spill, msg
            );
        }
    }
}

// ---------------------------------------------------------------------
// Typed errors and EXPLAIN round-trips for the new aggregate.
// ---------------------------------------------------------------------

fn arg_db() -> Database {
    let db = Database::default();
    db.execute("CREATE TABLE t (g INT, v INT, k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10, 3), (1, 20, 1), (2, 30, 2)")
        .unwrap();
    db
}

#[test]
fn arg_extreme_misuse_is_a_typed_plan_error() {
    let db = arg_db();
    let err = db
        .query("SELECT g, ARG_MIN(v) FROM t GROUP BY g")
        .unwrap_err();
    assert!(
        matches!(err, Error::Plan(ref m) if m.contains("exactly two arguments")),
        "{err}"
    );
    let err = db
        .query("SELECT g, ARG_MAX(v, k, g) FROM t GROUP BY g")
        .unwrap_err();
    assert!(
        matches!(err, Error::Plan(ref m) if m.contains("exactly two arguments")),
        "{err}"
    );
    let err = db
        .query("SELECT g, ARG_MIN(DISTINCT v, k) FROM t GROUP BY g")
        .unwrap_err();
    assert!(
        matches!(err, Error::Plan(ref m) if m.contains("DISTINCT")),
        "{err}"
    );
    let err = db
        .query("SELECT g, ARG_MAX(*) FROM t GROUP BY g")
        .unwrap_err();
    assert!(
        matches!(err, Error::Plan(ref m) if m.contains("not supported")),
        "{err}"
    );
}

#[test]
fn explain_round_trips_arg_extremes() {
    let db = arg_db();
    let text = db
        .explain("SELECT g, ARG_MIN(v, k), ARG_MAX(v, k) FROM t GROUP BY g")
        .unwrap();
    // Both aggregates render with both arguments, in callable form.
    assert!(text.contains("arg_min(t.v"), "missing arg_min:\n{text}");
    assert!(text.contains("arg_max(t.v"), "missing arg_max:\n{text}");
    assert!(text.contains("t.k"), "missing the ordering key:\n{text}");
}

#[test]
fn arg_extremes_basic_semantics() {
    let db = arg_db();
    // Group 1: min key 1 carries v=20; max key 3 carries v=10.
    let batch = db
        .query("SELECT g, ARG_MIN(v, k), ARG_MAX(v, k) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    let want = [
        row_of([Value::Int(1), Value::Int(20), Value::Int(10)]),
        row_of([Value::Int(2), Value::Int(30), Value::Int(30)]),
    ];
    assert_eq!(batch.rows(), &want[..]);
    // NULL keys are ignored; an all-NULL-key group yields NULL.
    db.execute("CREATE TABLE n (g INT, v INT, k INT)").unwrap();
    db.execute("INSERT INTO n VALUES (1, 5, NULL), (1, 7, 2), (2, 9, NULL)")
        .unwrap();
    let batch = db
        .query("SELECT g, ARG_MIN(v, k) FROM n GROUP BY g ORDER BY g")
        .unwrap();
    let want = [
        row_of([Value::Int(1), Value::Int(7)]),
        row_of([Value::Int(2), Value::Null]),
    ];
    assert_eq!(batch.rows(), &want[..]);
}
