//! Delta-equivalence suite for the semi-naive optimizer rewrite.
//!
//! The rewrite must be *invisible* in results: every workload, graph, and
//! partition count has to produce byte-identical output with semi-naive
//! execution on and off. Non-monotone loop bodies must not be rewritten at
//! all — they take the full-recompute path, observable through the
//! executor's `semi_naive_loops` counter and the EXPLAIN ANALYZE
//! `iteration:` line.

use proptest::prelude::*;
use spinner_common::{row_of, DataType, EngineConfig, Field, Row, Schema, Value};
use spinner_datagen::{DatasetPreset, GraphSpec};
use spinner_engine::Database;
use spinner_procedural::queries;

fn edge_schema() -> Schema {
    Schema::new(vec![
        Field::new("src", DataType::Int),
        Field::new("dst", DataType::Int),
        Field::new("weight", DataType::Float),
    ])
}

fn database(partitions: usize, semi_naive: bool, rows: Vec<Row>) -> Database {
    let db = Database::new(
        EngineConfig::default()
            .with_partitions(partitions)
            .with_semi_naive(semi_naive),
    )
    .unwrap();
    db.create_table_from_rows("edges", edge_schema(), rows, None, Some(1))
        .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs x every workload x semi-naive on/off x partition
    /// counts {1, 2, 4}: results must be identical.
    #[test]
    fn semi_naive_matches_full_recompute(
        nodes in 10usize..40,
        extra_edges in 0usize..60,
        seed in 0u64..1000,
        partitions in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let spec = GraphSpec {
            nodes,
            edges: nodes + extra_edges,
            seed,
            max_weight: 7,
        };
        let symmetric = spec.generate_symmetric_components(2);
        let directed = spec.generate();
        let workloads = [
            (queries::connected_components(None).cte, symmetric),
            (queries::sssp_convergent(1, None).cte, directed.clone()),
            (queries::sssp(10, 1, false).cte, directed.clone()),
            (queries::pagerank(5, false).cte, directed.clone()),
            (queries::ff(5, 10).cte, directed),
        ];
        for (sql, rows) in workloads {
            let on = database(partitions, true, rows.clone());
            let off = database(partitions, false, rows);
            let got = on.query(&sql).unwrap();
            let want = off.query(&sql).unwrap();
            prop_assert_eq!(got.rows(), want.rows(), "sql: {}", sql);
        }
    }
}

/// A fold over a *different* anchor column (`t.a` inside `LEAST`) changes
/// the row even when the aggregate is empty — an update a delta-driven
/// body would never re-run. Whatever mode the optimizer picks, the result
/// must match full recompute. Node 1 has no incoming edge.
#[test]
fn anchor_column_inside_the_fold_matches_full_recompute() {
    let rows = vec![row_of([Value::Int(1), Value::Int(2), Value::Float(1.0)])];
    let sql = "WITH ITERATIVE t (node, a, b) AS ( \
          SELECT src, src, 100 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
        ITERATE SELECT t.node, t.a, LEAST(t.b, t.a, COALESCE(MIN(nbr.b), t.b)) \
           FROM t LEFT JOIN edges AS e ON t.node = e.dst \
                  LEFT JOIN t AS nbr ON nbr.node = e.src \
           GROUP BY t.node, t.a, t.b \
        UNTIL DELTA < 1 ) \
       SELECT node, a, b FROM t ORDER BY node";
    let got = database(4, true, rows.clone()).query(sql).unwrap();
    let want = database(4, false, rows).query(sql).unwrap();
    assert_eq!(got.rows(), want.rows());
}

#[test]
fn monotone_workloads_run_semi_naive() {
    let spec = GraphSpec {
        nodes: 30,
        edges: 70,
        seed: 7,
        max_weight: 5,
    };
    for sql in [
        queries::connected_components(None).cte,
        queries::sssp_convergent(1, None).cte,
    ] {
        let db = database(2, true, spec.generate_symmetric_components(2));
        db.query(&sql).unwrap();
        let stats = db.stats();
        assert_eq!(stats.semi_naive_loops, 1, "expected rewrite for: {sql}");
        assert!(stats.delta_rows_fed > 0, "delta never consumed for: {sql}");
    }
}

/// The semi-naive body is fed exactly its delta: the anchor's rows once,
/// then each iteration's changed rows, and never a settled row again. On
/// the Fig. 8 dblp-like graph that is 8,367 = 3,170 anchor + 5,197 changed
/// rows over 15 iterations, and 60,325 rows moved against full
/// recompute's 242,683.
#[test]
fn semi_naive_body_is_fed_exactly_its_delta() {
    let rows = DatasetPreset::Dblp.spec(0.01).generate();
    let sql = queries::sssp_convergent(1, None).cte;
    let run = |semi_naive| {
        let db = database(4, semi_naive, rows.clone());
        let profile = db.explain_analyze(&sql).unwrap();
        (profile, db.stats())
    };
    let (profile, sn) = run(true);
    let (_, full) = run(false);
    let iterations = &profile.loops()[0].iterations;
    // The CTE keeps one row per node, i.e. per anchor row.
    let anchor_rows = iterations[0].working_rows;
    let changed: u64 = iterations.iter().map(|it| it.delta_rows).sum();
    assert_eq!(sn.semi_naive_loops, 1);
    assert_eq!(
        sn.delta_rows_fed,
        anchor_rows + changed,
        "{anchor_rows} anchor rows + {changed} changed rows"
    );
    assert!(
        2 * sn.rows_moved < full.rows_moved,
        "semi-naive moved {} rows, full recompute {}",
        sn.rows_moved,
        full.rows_moved
    );
}

#[test]
fn non_monotone_workloads_fall_back_to_full_recompute() {
    let spec = GraphSpec {
        nodes: 30,
        edges: 70,
        seed: 7,
        max_weight: 5,
    };
    // PageRank's SUM is not a monotone accumulator, FF reads its CTE only
    // once (no join to substitute), and the paper-literal SSSP rebuilds a
    // scratch `delta` column from the raw MIN — all three must keep the
    // full-recompute loop even with semi-naive enabled.
    for sql in [
        queries::pagerank(3, false).cte,
        queries::ff(3, 10).cte,
        queries::sssp(3, 1, false).cte,
    ] {
        let db = database(2, true, spec.generate());
        db.query(&sql).unwrap();
        assert_eq!(
            db.stats().semi_naive_loops,
            0,
            "unsound rewrite applied to: {sql}"
        );
    }
}

#[test]
fn explain_analyze_reports_iteration_mode() {
    let spec = GraphSpec {
        nodes: 24,
        edges: 48,
        seed: 3,
        max_weight: 5,
    };
    let cc = queries::connected_components(None).cte;
    let on = database(2, true, spec.generate_symmetric_components(2));
    let text = on.explain_analyze(&cc).unwrap().render();
    assert!(
        text.contains("iteration: mode=semi_naive"),
        "missing semi-naive mode line:\n{text}"
    );
    let off = database(2, false, spec.generate_symmetric_components(2));
    let text = off.explain_analyze(&cc).unwrap().render();
    assert!(
        text.contains("iteration: mode=full"),
        "missing full mode line:\n{text}"
    );
}
