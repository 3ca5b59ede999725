//! Canonical SQL for the paper's workloads, in all three formulations.
//!
//! * `cte` — the native iterative-CTE query (Figures 2, 6, 7 of the
//!   paper; the `-VS` variants add the `vertexStatus` join of §V-A);
//! * `procedure` — a stored-procedure-style statement list (R0 once, Ri in
//!   a loop via DELETE + INSERT + UPDATE on persistent temp tables);
//! * `middleware` — the SQLoop-style external loop of Fig. 1, which also
//!   CREATEs and DROPs its working table every iteration (metadata churn).
//!
//! All three compute identical results so experiments can assert equality
//! before timing anything. One deliberate deviation from the paper's
//! verbatim text: the FF query's `R0` casts `count(dst)` to FLOAT so the
//! dynamically-typed CTE formulation divides in floating point from the
//! first iteration, exactly like the baselines' FLOAT-typed temp tables.

use crate::runner::ProcedureScript;

/// The three formulations of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSql {
    /// Native iterative CTE.
    pub cte: String,
    /// Stored-procedure-style statement loop.
    pub procedure: ProcedureScript,
    /// SQLoop middleware-style loop (DDL per iteration).
    pub middleware: ProcedureScript,
}

/// Fragment shared by the PR/SSSP iterative parts when the `-VS` variant
/// restricts the computation to available nodes (paper §V-A).
fn vs_join(edge_alias: &str) -> String {
    format!(" JOIN vertexstatus AS avail_pr ON avail_pr.node = {edge_alias}.dst")
}

/// PageRank (paper Fig. 2; `with_vertex_status` = the PR-VS variant).
pub fn pagerank(iterations: u64, with_vertex_status: bool) -> WorkloadSql {
    let (join, where_clause) = if with_vertex_status {
        (
            vs_join("IncomingEdges"),
            "WHERE avail_pr.status != 0".to_string(),
        )
    } else {
        (String::new(), String::new())
    };
    let iterative_body = |main: &str| {
        format!(
            "SELECT {main}.node, \
                    {main}.rank + {main}.delta, \
                    0.85 * SUM(IncomingRank.delta * IncomingEdges.weight) \
             FROM {main} \
               LEFT JOIN edges AS IncomingEdges ON {main}.node = IncomingEdges.dst\
               {join} \
               LEFT JOIN {main} AS IncomingRank ON IncomingRank.node = IncomingEdges.src \
             {where_clause} \
             GROUP BY {main}.node, {main}.rank + {main}.delta"
        )
    };
    let cte = format!(
        "WITH ITERATIVE PageRank (node, rank, delta) AS ( \
            SELECT src, 0, 0.15 \
            FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE {} \
          UNTIL {iterations} ITERATIONS ) \
         SELECT node, rank FROM PageRank ORDER BY node",
        iterative_body("PageRank"),
    );
    let create_work = "CREATE TABLE pr_work (node INT, rank FLOAT, delta FLOAT)";
    let create_main = "CREATE TABLE pr_main (node INT, rank FLOAT, delta FLOAT)";
    let init = "INSERT INTO pr_main \
                SELECT src, 0, 0.15 \
                FROM (SELECT src FROM edges UNION SELECT dst FROM edges)";
    let insert_work = format!("INSERT INTO pr_work {}", iterative_body("pr_main"));
    let update = "UPDATE pr_main SET rank = pr_work.rank, delta = pr_work.delta \
                  FROM pr_work WHERE pr_main.node = pr_work.node";
    let final_query = "SELECT node, rank FROM pr_main ORDER BY node";
    let procedure = ProcedureScript {
        name: format!(
            "pagerank{}-procedure",
            if with_vertex_status { "-vs" } else { "" }
        ),
        setup: vec![create_work.into(), create_main.into(), init.into()],
        iteration: vec![
            "DELETE FROM pr_work".into(),
            insert_work.clone(),
            update.into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec!["DROP TABLE pr_work".into(), "DROP TABLE pr_main".into()],
    };
    let middleware = ProcedureScript {
        name: format!(
            "pagerank{}-middleware",
            if with_vertex_status { "-vs" } else { "" }
        ),
        setup: vec![create_main.into(), init.into()],
        iteration: vec![
            create_work.into(),
            insert_work,
            update.into(),
            "DROP TABLE pr_work".into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec![
            "DROP TABLE IF EXISTS pr_work".into(),
            "DROP TABLE pr_main".into(),
        ],
    };
    WorkloadSql {
        cte,
        procedure,
        middleware,
    }
}

/// Single-source shortest path (paper Fig. 7; optional PR-VS-style
/// restriction to available nodes).
pub fn sssp(iterations: u64, source: i64, with_vertex_status: bool) -> WorkloadSql {
    let (join, vs_pred) = if with_vertex_status {
        (vs_join("IncomingEdges"), " AND avail_pr.status != 0")
    } else {
        (String::new(), "")
    };
    let iterative_body = |main: &str| {
        format!(
            "SELECT {main}.node, \
                    LEAST({main}.distance, {main}.delta), \
                    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999) \
             FROM {main} \
               LEFT JOIN edges AS IncomingEdges ON {main}.node = IncomingEdges.dst\
               {join} \
               LEFT JOIN {main} AS IncomingDistance \
                 ON IncomingDistance.node = IncomingEdges.src \
             WHERE IncomingDistance.delta != 9999999{vs_pred} \
             GROUP BY {main}.node, LEAST({main}.distance, {main}.delta)"
        )
    };
    let cte = format!(
        "WITH ITERATIVE sssp (node, distance, delta) AS ( \
            SELECT src, 9999999, CASE WHEN src = {source} THEN 0 ELSE 9999999 END \
            FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE {} \
          UNTIL {iterations} ITERATIONS ) \
         SELECT node, distance FROM sssp ORDER BY node",
        iterative_body("sssp"),
    );
    let create_work = "CREATE TABLE ss_work (node INT, distance FLOAT, delta FLOAT)";
    let create_main = "CREATE TABLE ss_main (node INT, distance FLOAT, delta FLOAT)";
    let init = format!(
        "INSERT INTO ss_main \
         SELECT src, 9999999, CASE WHEN src = {source} THEN 0 ELSE 9999999 END \
         FROM (SELECT src FROM edges UNION SELECT dst FROM edges)"
    );
    let insert_work = format!("INSERT INTO ss_work {}", iterative_body("ss_main"));
    let update = "UPDATE ss_main SET distance = ss_work.distance, delta = ss_work.delta \
                  FROM ss_work WHERE ss_main.node = ss_work.node";
    let final_query = "SELECT node, distance FROM ss_main ORDER BY node";
    let procedure = ProcedureScript {
        name: format!(
            "sssp{}-procedure",
            if with_vertex_status { "-vs" } else { "" }
        ),
        setup: vec![create_work.into(), create_main.into(), init.clone()],
        iteration: vec![
            "DELETE FROM ss_work".into(),
            insert_work.clone(),
            update.into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec!["DROP TABLE ss_work".into(), "DROP TABLE ss_main".into()],
    };
    let middleware = ProcedureScript {
        name: format!(
            "sssp{}-middleware",
            if with_vertex_status { "-vs" } else { "" }
        ),
        setup: vec![create_main.into(), init],
        iteration: vec![
            create_work.into(),
            insert_work,
            update.into(),
            "DROP TABLE ss_work".into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec![
            "DROP TABLE IF EXISTS ss_work".into(),
            "DROP TABLE ss_main".into(),
        ],
    };
    WorkloadSql {
        cte,
        procedure,
        middleware,
    }
}

/// Single-source shortest path in *accumulator* form, running until no
/// distance improves (`UNTIL DELTA < 1`). Unlike the paper-literal
/// [`sssp`], which carries a scratch `delta` column rebuilt from the raw
/// `MIN` every round, this formulation folds the aggregate into the old
/// distance with `LEAST(old, COALESCE(MIN(..), old))` — the monotone
/// accumulator shape the semi-naive optimizer rewrite accepts, so the
/// per-iteration join shrinks with the frontier instead of re-scanning
/// every settled node. No `WHERE distance != 9999999` guard is needed:
/// the sentinel behaves as infinity (`9999999 + w` never beats a real
/// distance under `LEAST`), and once the delta rewrite kicks in the join
/// input is the changed-row set anyway. Both formulations converge to
/// identical distances; this one is spinbench's `sssp_delta` workload.
pub fn sssp_convergent(source: i64, max_iterations_hint: Option<u64>) -> WorkloadSql {
    let until = match max_iterations_hint {
        Some(n) => format!("{n} ITERATIONS"),
        None => "DELTA < 1".to_string(),
    };
    let iterative_body = |main: &str| {
        format!(
            "SELECT {main}.node, \
                    LEAST({main}.distance, \
                          COALESCE(MIN(inc.distance + e.weight), {main}.distance)) \
             FROM {main} \
               LEFT JOIN edges AS e ON {main}.node = e.dst \
               LEFT JOIN {main} AS inc ON inc.node = e.src \
             GROUP BY {main}.node, {main}.distance"
        )
    };
    let init_select = format!(
        "SELECT src, CASE WHEN src = {source} THEN 0 ELSE 9999999 END \
         FROM (SELECT src FROM edges UNION SELECT dst FROM edges)"
    );
    let cte = format!(
        "WITH ITERATIVE sssp (node, distance) AS ( \
            {init_select} \
          ITERATE {} \
          UNTIL {until} ) \
         SELECT node, distance FROM sssp ORDER BY node",
        iterative_body("sssp"),
    );
    // As with connected components, statement loops cannot express delta
    // termination; the procedural baselines run a fixed count.
    let iterations = max_iterations_hint.unwrap_or(64);
    let create_work = "CREATE TABLE sc_work (node INT, distance FLOAT)";
    let create_main = "CREATE TABLE sc_main (node INT, distance FLOAT)";
    let init = format!("INSERT INTO sc_main {init_select}");
    let insert_work = format!("INSERT INTO sc_work {}", iterative_body("sc_main"));
    let update = "UPDATE sc_main SET distance = sc_work.distance \
                  FROM sc_work WHERE sc_main.node = sc_work.node";
    let final_query = "SELECT node, distance FROM sc_main ORDER BY node";
    let procedure = ProcedureScript {
        name: "sssp-convergent-procedure".into(),
        setup: vec![create_work.into(), create_main.into(), init.clone()],
        iteration: vec![
            "DELETE FROM sc_work".into(),
            insert_work.clone(),
            update.into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec!["DROP TABLE sc_work".into(), "DROP TABLE sc_main".into()],
    };
    let middleware = ProcedureScript {
        name: "sssp-convergent-middleware".into(),
        setup: vec![create_main.into(), init],
        iteration: vec![
            create_work.into(),
            insert_work,
            update.into(),
            "DROP TABLE sc_work".into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec![
            "DROP TABLE IF EXISTS sc_work".into(),
            "DROP TABLE sc_main".into(),
        ],
    };
    WorkloadSql {
        cte,
        procedure,
        middleware,
    }
}

/// Forecast-Friends (paper Fig. 6). `mod_x` controls the final-query
/// selectivity: `MOD(node, mod_x) = 0` keeps ~1/mod_x of the rows.
pub fn ff(iterations: u64, mod_x: i64) -> WorkloadSql {
    let iterative_body = |main: &str| {
        format!(
            "SELECT node AS node, \
                    round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends, \
                    friends AS friendsPrev \
             FROM {main}"
        )
    };
    let init_select = "SELECT src AS node, \
                        CAST(count(dst) AS FLOAT) AS friends, \
                        CAST(ceiling(count(dst) * (1.0 - (src % 10) / 100.0)) AS FLOAT) \
                          AS friendsPrev \
                       FROM edges GROUP BY src";
    let final_tail = format!("WHERE MOD(node, {mod_x}) = 0 ORDER BY friends DESC, node LIMIT 10");
    let cte = format!(
        "WITH ITERATIVE forecast (node, friends, friendsPrev) AS ( \
            {init_select} \
          ITERATE {} \
          UNTIL {iterations} ITERATIONS ) \
         SELECT node, friends FROM forecast {final_tail}",
        iterative_body("forecast"),
    );
    let create_work = "CREATE TABLE ff_work (node INT, friends FLOAT, friendsPrev FLOAT)";
    let create_main = "CREATE TABLE ff_main (node INT, friends FLOAT, friendsPrev FLOAT)";
    let init = format!("INSERT INTO ff_main {init_select}");
    let insert_work = format!("INSERT INTO ff_work {}", iterative_body("ff_main"));
    let update = "UPDATE ff_main SET friends = ff_work.friends, \
                  friendsPrev = ff_work.friendsPrev \
                  FROM ff_work WHERE ff_main.node = ff_work.node";
    let final_query = format!("SELECT node, friends FROM ff_main {final_tail}");
    let procedure = ProcedureScript {
        name: "ff-procedure".into(),
        setup: vec![create_work.into(), create_main.into(), init.clone()],
        iteration: vec![
            "DELETE FROM ff_work".into(),
            insert_work.clone(),
            update.into(),
        ],
        iterations,
        final_query: final_query.clone(),
        cleanup: vec!["DROP TABLE ff_work".into(), "DROP TABLE ff_main".into()],
    };
    let middleware = ProcedureScript {
        name: "ff-middleware".into(),
        setup: vec![create_main.into(), init],
        iteration: vec![
            create_work.into(),
            insert_work,
            update.into(),
            "DROP TABLE ff_work".into(),
        ],
        iterations,
        final_query,
        cleanup: vec![
            "DROP TABLE IF EXISTS ff_work".into(),
            "DROP TABLE ff_main".into(),
        ],
    };
    WorkloadSql {
        cte,
        procedure,
        middleware,
    }
}

/// Connected components by min-label propagation — a workload beyond the
/// paper's three, exercising the **delta** termination class at scale: the
/// loop runs until an iteration changes no label. Expects a *symmetric*
/// edge table (see `GraphSpec::generate_symmetric_components`).
pub fn connected_components(max_iterations_hint: Option<u64>) -> WorkloadSql {
    let until = match max_iterations_hint {
        Some(n) => format!("{n} ITERATIONS"),
        None => "DELTA < 1".to_string(),
    };
    let iterative_body = |main: &str| {
        format!(
            "SELECT {main}.node, \
                    LEAST({main}.label, COALESCE(MIN(nbr.label), {main}.label)) \
             FROM {main} \
               LEFT JOIN edges AS e ON {main}.node = e.dst \
               LEFT JOIN {main} AS nbr ON nbr.node = e.src \
             GROUP BY {main}.node, {main}.label"
        )
    };
    let cte = format!(
        "WITH ITERATIVE cc (node, label) AS ( \
            SELECT src, src FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE {} \
          UNTIL {until} ) \
         SELECT node, label FROM cc ORDER BY node",
        iterative_body("cc"),
    );
    // Procedural formulations use a fixed iteration count (statement loops
    // cannot express delta termination — precisely the paper's point about
    // the expressiveness gap).
    let iterations = max_iterations_hint.unwrap_or(64);
    let create_work = "CREATE TABLE cc_work (node INT, label INT)";
    let create_main = "CREATE TABLE cc_main (node INT, label INT)";
    let init = "INSERT INTO cc_main \
                SELECT src, src FROM (SELECT src FROM edges UNION SELECT dst FROM edges)";
    let insert_work = format!("INSERT INTO cc_work {}", iterative_body("cc_main"));
    let update = "UPDATE cc_main SET label = cc_work.label \
                  FROM cc_work WHERE cc_main.node = cc_work.node";
    let final_query = "SELECT node, label FROM cc_main ORDER BY node";
    let procedure = ProcedureScript {
        name: "cc-procedure".into(),
        setup: vec![create_work.into(), create_main.into(), init.into()],
        iteration: vec![
            "DELETE FROM cc_work".into(),
            insert_work.clone(),
            update.into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec!["DROP TABLE cc_work".into(), "DROP TABLE cc_main".into()],
    };
    let middleware = ProcedureScript {
        name: "cc-middleware".into(),
        setup: vec![create_main.into(), init.into()],
        iteration: vec![
            create_work.into(),
            insert_work,
            update.into(),
            "DROP TABLE cc_work".into(),
        ],
        iterations,
        final_query: final_query.into(),
        cleanup: vec![
            "DROP TABLE IF EXISTS cc_work".into(),
            "DROP TABLE cc_main".into(),
        ],
    };
    WorkloadSql {
        cte,
        procedure,
        middleware,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_script;
    use spinner_datagen::{load_edges_into, load_vertex_status_into, GraphSpec};
    use spinner_engine::Database;

    fn small_db(with_vs: bool) -> Database {
        let db = Database::default();
        let spec = GraphSpec::small();
        load_edges_into(&db, "edges", &spec).unwrap();
        if with_vs {
            load_vertex_status_into(&db, "vertexstatus", &spec, 0.8).unwrap();
        }
        db
    }

    fn assert_all_formulations_agree(w: &WorkloadSql, with_vs: bool) {
        let db = small_db(with_vs);
        let cte_rows = db.query(&w.cte).unwrap();
        let proc_rows = run_script(&db, &w.procedure).unwrap().rows;
        let mw_report = run_script(&db, &w.middleware).unwrap();
        assert_eq!(cte_rows.rows(), proc_rows.rows(), "procedure mismatch");
        assert_eq!(
            cte_rows.rows(),
            mw_report.rows.rows(),
            "middleware mismatch"
        );
        // The middleware really pays DDL per iteration.
        assert!(mw_report.ddl_ops as u64 >= 2 * w.middleware.iterations);
    }

    #[test]
    fn pagerank_formulations_agree() {
        assert_all_formulations_agree(&pagerank(5, false), false);
    }

    #[test]
    fn pagerank_vs_formulations_agree() {
        assert_all_formulations_agree(&pagerank(5, true), true);
    }

    #[test]
    fn sssp_formulations_agree() {
        assert_all_formulations_agree(&sssp(5, 1, false), false);
    }

    #[test]
    fn sssp_vs_formulations_agree() {
        assert_all_formulations_agree(&sssp(5, 1, true), true);
    }

    #[test]
    fn sssp_convergent_formulations_agree() {
        assert_all_formulations_agree(&sssp_convergent(1, Some(5)), false);
    }

    #[test]
    fn sssp_convergent_matches_paper_sssp_at_fixpoint() {
        // Both formulations must settle on the same distances once the
        // paper-literal query has run enough rounds to converge.
        let spec = GraphSpec::small();
        let db = small_db(false);
        let convergent = db.query(&sssp_convergent(1, None).cte).unwrap();
        let paper = db.query(&sssp(spec.nodes as u64, 1, false).cte).unwrap();
        assert_eq!(convergent.rows(), paper.rows());
    }

    #[test]
    fn ff_formulations_agree() {
        assert_all_formulations_agree(&ff(5, 10), false);
    }

    #[test]
    fn cc_formulations_agree() {
        // Symmetric two-component graph; fixed iteration count so all
        // three formulations run the same loop.
        let spec = GraphSpec {
            nodes: 60,
            edges: 150,
            seed: 9,
            max_weight: 5,
        };
        let rows = spec.generate_symmetric_components(2);
        let db = Database::default();
        let schema = spinner_common::Schema::new(vec![
            spinner_common::Field::new("src", spinner_common::DataType::Int),
            spinner_common::Field::new("dst", spinner_common::DataType::Int),
            spinner_common::Field::new("weight", spinner_common::DataType::Float),
        ]);
        db.create_table_from_rows("edges", schema, rows, None, Some(1))
            .unwrap();
        let w = connected_components(Some(10));
        let cte_rows = db.query(&w.cte).unwrap();
        let proc_rows = run_script(&db, &w.procedure).unwrap().rows;
        let mw_rows = run_script(&db, &w.middleware).unwrap().rows;
        assert_eq!(cte_rows.rows(), proc_rows.rows());
        assert_eq!(cte_rows.rows(), mw_rows.rows());
    }

    #[test]
    fn sssp_finds_true_shortest_paths() {
        // Shared Dijkstra oracle over the generated graph.
        let spec = GraphSpec::small();
        let dist = spinner_datagen::oracle::dijkstra(&spec, 1);
        // Run enough iterations for full convergence on the small graph.
        let db = small_db(false);
        let w = sssp(spec.nodes as u64, 1, false);
        let batch = db.query(&w.cte).unwrap();
        for row in batch.rows() {
            let node = row[0].as_i64().unwrap() as usize;
            let got = row[1].as_f64().unwrap();
            match dist[node] {
                Some(want) => assert!(
                    (got - want).abs() < 1e-6,
                    "node {node}: sql={got} dijkstra={want}"
                ),
                None => assert_eq!(got, 9_999_999.0, "node {node} unreachable"),
            }
        }
    }
}
