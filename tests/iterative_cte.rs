//! End-to-end iterative-CTE semantics across the full optimization matrix.
//!
//! Every combination of the three paper optimizations (data-movement
//! minimization, common-result extraction, predicate push-down) must
//! produce byte-identical results for every workload — the optimizations
//! change cost, never answers.

use spinner_datagen::{load_edges_into, load_vertex_status_into, GraphSpec};
use spinner_engine::{Database, EngineConfig, Value};
use spinner_procedural::{connected_components, ff, pagerank, sssp, sssp_convergent};

fn fresh_db(config: EngineConfig, spec: &GraphSpec, with_vs: bool) -> Database {
    let db = Database::new(config).unwrap();
    load_edges_into(&db, "edges", spec).unwrap();
    if with_vs {
        load_vertex_status_into(&db, "vertexstatus", spec, 0.8).unwrap();
    }
    db
}

fn all_configs() -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for dm in [true, false] {
        for cr in [true, false] {
            for pp in [true, false] {
                configs.push(
                    EngineConfig::default()
                        .with_minimize_data_movement(dm)
                        .with_common_result(cr)
                        .with_predicate_pushdown(pp),
                );
            }
        }
    }
    configs
}

fn assert_config_invariant(sql: &str, with_vs: bool) {
    let spec = GraphSpec {
        nodes: 200,
        edges: 900,
        seed: 99,
        max_weight: 10,
    };
    let reference = fresh_db(EngineConfig::naive(), &spec, with_vs)
        .query(sql)
        .unwrap();
    for config in all_configs() {
        let got = fresh_db(config.clone(), &spec, with_vs).query(sql).unwrap();
        assert_eq!(
            got.rows(),
            reference.rows(),
            "results diverged under config {config:?}"
        );
    }
}

#[test]
fn pagerank_invariant_under_all_configs() {
    assert_config_invariant(&pagerank(8, false).cte, false);
}

#[test]
fn pagerank_vs_invariant_under_all_configs() {
    assert_config_invariant(&pagerank(8, true).cte, true);
}

#[test]
fn sssp_invariant_under_all_configs() {
    assert_config_invariant(&sssp(8, 1, false).cte, false);
}

#[test]
fn sssp_vs_invariant_under_all_configs() {
    assert_config_invariant(&sssp(8, 1, true).cte, true);
}

#[test]
fn ff_invariant_under_all_configs() {
    assert_config_invariant(&ff(8, 10).cte, false);
}

#[test]
fn ff_pushdown_reduces_materialized_rows() {
    let spec = GraphSpec {
        nodes: 1_000,
        edges: 4_000,
        seed: 5,
        max_weight: 10,
    };
    let measure = |pushdown: bool| {
        let db = fresh_db(
            EngineConfig::default().with_predicate_pushdown(pushdown),
            &spec,
            false,
        );
        db.query(&ff(25, 100).cte).unwrap();
        db.take_stats().rows_materialized
    };
    let with = measure(true);
    let without = measure(false);
    assert!(
        with * 10 < without,
        "push-down should shrink per-iteration work by ~100x: with={with} without={without}"
    );
}

#[test]
fn rename_avoids_merge_work_entirely() {
    let spec = GraphSpec {
        nodes: 500,
        edges: 2_000,
        seed: 6,
        max_weight: 10,
    };
    let measure = |minimize: bool| {
        // Push-down disabled so the CTE keeps all 500 rows and the merge
        // cost is measured on the full table.
        let db = fresh_db(
            EngineConfig::default()
                .with_minimize_data_movement(minimize)
                .with_predicate_pushdown(false),
            &spec,
            false,
        );
        db.query(&ff(25, 10).cte).unwrap();
        db.take_stats()
    };
    let optimized = measure(true);
    let baseline = measure(false);
    assert_eq!(optimized.merges, 0);
    assert_eq!(baseline.merges, 25);
    assert!(baseline.merge_rows_examined >= 25 * 500);
    assert!(optimized.renames >= 25);
}

#[test]
fn common_result_reduces_per_iteration_joins() {
    let spec = GraphSpec {
        nodes: 400,
        edges: 2_000,
        seed: 7,
        max_weight: 10,
    };
    let measure = |common: bool| {
        let db = fresh_db(
            EngineConfig::default().with_common_result(common),
            &spec,
            true,
        );
        db.query(&pagerank(20, true).cte).unwrap();
        db.take_stats()
    };
    let optimized = measure(true);
    let baseline = measure(false);
    // Regrouping the edges ⨝ vertexStatus join into a build side the
    // join-state cache builds once replaces a per-iteration join with a
    // single one: 20 iterations x 3 joins baseline vs 1 + 20 x 2
    // optimized.
    assert!(
        optimized.joins_executed + 19 <= baseline.joins_executed,
        "common-result should save one join per iteration: {} vs {}",
        optimized.joins_executed,
        baseline.joins_executed
    );
}

/// The line after the first that contains `label`, trimmed.
fn line_below<'t>(text: &'t str, label: &str) -> &'t str {
    let mut lines = text.lines().skip_while(|line| !line.contains(label));
    lines.nth(1).map_or("", str::trim)
}

/// A loop-invariant join on the probe side — `edges ⋈ vertexstatus`
/// probing the CTE — is no build side to regroup into, yet the join-state
/// cache runs it once all the same, with the common-result rule on or off,
/// and the rows do not change.
#[test]
fn an_invariant_probe_side_runs_once() {
    let spec = GraphSpec {
        nodes: 300,
        edges: 1_500,
        seed: 3,
        max_weight: 10,
    };
    let iterations = 6;
    let sql = format!(
        "WITH ITERATIVE pr (node, rank) AS ( \
            SELECT src, 1.0 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE SELECT pr.node, 0.5 * pr.rank + SUM(e.weight) \
            FROM edges e JOIN vertexstatus v ON v.node = e.dst JOIN pr ON pr.node = e.src \
            WHERE v.status != 0 \
            GROUP BY pr.node, pr.rank \
          UNTIL {iterations} ITERATIONS ) \
         SELECT node, rank FROM pr ORDER BY node"
    );
    let mut reference = None;
    for partitions in [1, 2, 4] {
        for common in [true, false] {
            let config = EngineConfig::default()
                .with_partitions(partitions)
                .with_common_result(common);
            let db = fresh_db(config, &spec, true);
            let text = db.explain_physical(&sql).unwrap();
            assert_eq!(line_below(&text, "= pr.node"), "Cached", "{text}");
            db.take_stats();
            let got = db.query(&sql).unwrap();
            let stats = db.take_stats();
            let context = format!("partitions={partitions} common={common}");
            assert_eq!(stats.joins_executed, iterations + 1, "{context}");
            let reference = reference.get_or_insert_with(|| got.clone());
            assert_eq!(got.rows(), reference.rows(), "{context}");
        }
    }
}

/// An invariant join that is no join's input — under the body's
/// aggregate, or an arm of its set operation — runs once per statement
/// too. Neither body reads the CTE, so after the first iteration the CTE
/// holds what a plain query of the body returns.
#[test]
fn an_invariant_join_above_no_join_runs_once() {
    let spec = GraphSpec {
        nodes: 200,
        edges: 900,
        seed: 99,
        max_weight: 10,
    };
    let join = "edges e JOIN vertexstatus v ON v.node = e.dst";
    let aggregate = format!("SELECT e.src AS k, COUNT(*) AS v FROM {join} GROUP BY e.src");
    let union = format!("SELECT e.src AS k, v.status AS v FROM {join}");
    for (body, plain) in [
        (aggregate.clone(), aggregate),
        (
            format!("SELECT k, v FROM t UNION {union}"),
            format!("SELECT src AS k, 0 AS v FROM edges UNION {union}"),
        ),
    ] {
        let db = fresh_db(EngineConfig::default(), &spec, true);
        let expected = db.query(&format!("{plain} ORDER BY k, v")).unwrap();
        db.take_stats();
        let sql = format!(
            "WITH ITERATIVE t (k, v) AS (SELECT src, 0 FROM edges \
             ITERATE {body} UNTIL 4 ITERATIONS) SELECT k, v FROM t ORDER BY k, v"
        );
        let got = db.query(&sql).unwrap();
        assert_eq!(got.rows(), expected.rows(), "{body}");
        assert_eq!(db.take_stats().joins_executed, 1, "{body}");
    }
}

#[test]
fn data_termination_matches_iteration_count() {
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1, 2, 1.0), (2, 1, 1.0)")
        .unwrap();
    // Stop when both rows exceed 5: both get +1 per iteration from 0.
    let batch = db
        .query(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges
             ITERATE SELECT k, v + 1 FROM t
             UNTIL (v > 5), 2 ROWS)
             SELECT MIN(v) FROM t",
        )
        .unwrap();
    assert_eq!(batch.rows()[0][0], Value::Int(6));
    assert_eq!(db.take_stats().iterations, 6);
}

#[test]
fn iterative_cte_composes_with_regular_cte() {
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)")
        .unwrap();
    // A regular CTE downstream of the iterative CTE's result.
    let batch = db
        .query(
            "WITH ITERATIVE grow (k, v) AS (
                 SELECT src, 1 FROM edges
             ITERATE SELECT k, v * 2 FROM grow
             UNTIL 4 ITERATIONS)
             SELECT SUM(v) FROM grow",
        )
        .unwrap();
    assert_eq!(batch.rows()[0][0], Value::Int(3 * 16));
}

#[test]
fn two_iterative_ctes_in_one_query() {
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1, 2, 1.0)").unwrap();
    let batch = db
        .query(
            "WITH ITERATIVE a (k, v) AS (
                 SELECT 1, 1 ITERATE SELECT k, v + 1 FROM a UNTIL 3 ITERATIONS),
             b (k, v) AS (
                 SELECT 1, 100 ITERATE SELECT k, v + 10 FROM b UNTIL 2 ITERATIONS)
             SELECT a.v, b.v FROM a JOIN b ON a.k = b.k",
        )
        .unwrap();
    assert_eq!(batch.rows()[0][0], Value::Int(4));
    assert_eq!(batch.rows()[0][1], Value::Int(120));
}

#[test]
fn iterative_result_feeds_downstream_join() {
    // The paper's motivation: use the iterative result directly as input
    // to another SQL query.
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1, 2, 3.0), (2, 3, 4.0)")
        .unwrap();
    let batch = db
        .query(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges UNION SELECT dst, 0 FROM edges
             ITERATE SELECT k, v + k FROM t
             UNTIL 2 ITERATIONS)
             SELECT e.src, e.dst, t.v FROM edges e JOIN t ON t.k = e.dst ORDER BY e.src",
        )
        .unwrap();
    assert_eq!(batch.len(), 2);
    assert_eq!(batch.rows()[0][2], Value::Int(4)); // node 2 accumulated 2+2
}

/// No paper loop goes through the row evaluator, anywhere in its
/// statement, at 1, 2 or 4 partitions with semi-naive evaluation on or
/// off: the plan types the loop state — SSSP's integer anchor is cast to
/// the FLOAT its body computes — and LEAST, GREATEST, COALESCE, CASE,
/// round, ceiling, MOD and CAST run as column kernels. The accumulator
/// loops keep their semi-naive form.
#[test]
fn paper_loops_never_go_through_the_row_evaluator() {
    let spec = GraphSpec {
        nodes: 200,
        edges: 900,
        seed: 99,
        max_weight: 10,
    };
    let loops = [
        ("PR", pagerank(8, false).cte, false),
        ("PR-VS", pagerank(8, true).cte, false),
        ("SSSP", sssp(8, 1, false).cte, false),
        ("SSSP-VS", sssp(8, 1, true).cte, false),
        ("SSSP-convergent", sssp_convergent(1, None).cte, true),
        ("CC", connected_components(None).cte, true),
        ("FF", ff(8, 10).cte, false),
    ];
    for partitions in [1, 2, 4] {
        for semi_naive in [true, false] {
            let config = EngineConfig::default()
                .with_partitions(partitions)
                .with_semi_naive(semi_naive);
            let db = fresh_db(config, &spec, true);
            for (name, sql, accumulates) in &loops {
                db.query(sql).unwrap();
                let stats = db.stats();
                let at = format!("{name}, {partitions} partitions, semi-naive {semi_naive}");
                assert_eq!(stats.rows_evaluated_by_row, 0, "{at}");
                assert_eq!(
                    stats.semi_naive_loops,
                    u64::from(semi_naive && *accumulates),
                    "{at}"
                );
            }
        }
    }
}
