//! Reproduction of the paper's **Table I**: the logical plan DBSpinner's
//! functional rewrite produces for the PR query. `EXPLAIN` renders the same
//! numbered step structure — materialize the non-iterative part, initialize
//! the loop operator, materialize the iterative part, rename, jump back.

use spinner_datagen::{load_edges_into, GraphSpec};
use spinner_engine::{Database, EngineConfig};
use spinner_procedural::{connected_components, ff, pagerank, sssp, sssp_convergent};

fn db() -> Database {
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("CREATE TABLE vertexstatus (node INT, status INT)")
        .unwrap();
    db
}

#[test]
fn table1_pagerank_plan_structure() {
    let text = db().explain(&pagerank(10, false).cte).unwrap();
    // Step 1: materialize the union of src/dst into the CTE table.
    assert!(text.contains("1. Materialize"), "missing step 1:\n{text}");
    assert!(text.contains("Union"), "R0 is a UNION:\n{text}");
    // Step 2: loop operator initialized with the metadata condition, N=10.
    assert!(
        text.contains("Initialize loop operator <<Type:metadata, N:10 iterations, Expr:NONE>>"),
        "missing loop init:\n{text}"
    );
    // Step 3: the iterative part — a GROUP BY over two left outer joins.
    assert!(text.contains("Aggregate"), "Ri aggregates:\n{text}");
    assert!(text.contains("Left Join"), "Ri left-joins:\n{text}");
    // Step 4: rename (PR updates the entire dataset — no merge).
    assert!(text.contains("Rename"), "missing rename:\n{text}");
    assert!(
        !text.contains("Merge"),
        "PR must take the rename path:\n{text}"
    );
    // Step 5/6: the conditional jump.
    assert!(text.contains("Go to step"), "missing loop-back:\n{text}");
}

#[test]
fn naive_config_plans_a_merge_instead() {
    let mut database = db();
    database.set_config(EngineConfig::naive()).unwrap();
    let text = database.explain(&pagerank(10, false).cte).unwrap();
    assert!(
        text.contains("Merge"),
        "baseline always pays the merge (Fig. 8 baseline):\n{text}"
    );
}

/// The operator on the first line of `text` that contains `label`, and
/// every line below it that is indented deeper: its subtree.
fn subtree<'t>(text: &'t str, label: &str) -> Vec<&'t str> {
    let depth = |line: &str| line.len() - line.trim_start().len();
    let mut lines = text.lines().skip_while(|line| !line.contains(label));
    let Some(top) = lines.next() else {
        panic!("no {label}:\n{text}")
    };
    let below = lines.take_while(|line| depth(line) > depth(top));
    std::iter::once(top).chain(below).collect()
}

#[test]
fn common_result_regroups_into_a_cached_build() {
    for sql in [pagerank(10, true).cte, sssp(10, 1, true).cte] {
        // Fig. 9's common result, edges ⨝ vertexStatus, is regrouped into
        // the build side of the join with the CTE, which the join-state
        // cache builds once. Nothing is stored before the loop but the
        // anchor, and nothing under the cached build is cached again.
        let text = db().explain_physical(&sql).unwrap();
        assert!(text.contains("\n2. Initialize loop operator"), "{text}");
        let build = subtree(&text, "HashJoin(Inner, cached build)");
        let joins = build.iter().filter(|l| l.contains("HashJoin(")).count();
        let reads = |table: &str| {
            build
                .iter()
                .any(|l| l.ends_with(&format!("SeqScan: {table}")))
        };
        assert!(
            joins == 2 && reads("edges") && reads("vertexstatus"),
            "{text}"
        );
        let marked = |l: &&str| l.contains("cached build") || l.trim_start() == "Cached";
        assert!(!build[1..].iter().any(marked), "{text}");
        let vs_join = subtree(&text, "= avail_pr.node");
        assert!(!vs_join.iter().any(|l| l.contains("TempScan")), "{text}");
        // With the optimization disabled the vertexStatus join stays above
        // the join with the CTE.
        let mut database = db();
        database
            .set_config(EngineConfig::default().with_common_result(false))
            .unwrap();
        let text = database.explain_physical(&sql).unwrap();
        let vs_join = subtree(&text, "= avail_pr.node");
        assert!(
            vs_join.iter().any(|l| l.contains("TempScan: __cte_")),
            "{text}"
        );
    }
}

#[test]
fn ff_pushdown_filters_the_non_iterative_part() {
    let text = db().explain(&ff(25, 100).cte).unwrap();
    // The MOD predicate must appear inside step 1 (the R0 materialization),
    // i.e. before the loop operator is initialized.
    let filter_pos = text.find("mod(").expect("predicate in plan");
    let loop_pos = text.find("Initialize loop operator").unwrap();
    assert!(
        filter_pos < loop_pos,
        "predicate should be pushed into R0:\n{text}"
    );
    // Without the optimization it stays in the final query (after the loop).
    let mut database = db();
    database
        .set_config(EngineConfig::default().with_predicate_pushdown(false))
        .unwrap();
    let text = database.explain(&ff(25, 100).cte).unwrap();
    let filter_pos = text.find("mod(").expect("predicate in plan");
    let loop_pos = text.find("Initialize loop operator").unwrap();
    assert!(
        filter_pos > loop_pos,
        "baseline keeps the predicate in Qf:\n{text}"
    );
}

#[test]
fn pagerank_pushdown_is_refused() {
    // §V-B: pushing a node filter into PR's R0 would corrupt ranks because
    // the iterative part self-joins the CTE. The engine must refuse.
    let sql = "WITH ITERATIVE PageRank (node, rank, delta) AS ( \
                SELECT src, 0, 0.15 \
                FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
              ITERATE \
                SELECT PageRank.node, PageRank.rank + PageRank.delta, \
                       0.85 * SUM(IncomingRank.delta * IncomingEdges.weight) \
                FROM PageRank \
                  LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst \
                  LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src \
                GROUP BY PageRank.node, PageRank.rank + PageRank.delta \
              UNTIL 10 ITERATIONS ) \
              SELECT node, rank FROM PageRank WHERE node = 10";
    let text = db().explain(sql).unwrap();
    let filter_pos = text.find("= 10)").expect("predicate in plan");
    let loop_pos = text.find("Initialize loop operator").unwrap();
    assert!(
        filter_pos > loop_pos,
        "PR's Qf filter must NOT move into R0:\n{text}"
    );
}

#[test]
fn delta_and_data_conditions_render_in_plan() {
    let database = db();
    let text = database
        .explain(
            "WITH ITERATIVE t (k, v) AS (SELECT 1, 0 ITERATE SELECT k, v + 1 FROM t \
             UNTIL DELTA < 5) SELECT * FROM t",
        )
        .unwrap();
    assert!(text.contains("<<Type:delta, N:5, Expr:NONE>>"), "{text}");
    let text = database
        .explain(
            "WITH ITERATIVE t (k, v) AS (SELECT 1, 0 ITERATE SELECT k, v + 1 FROM t \
             UNTIL (v > 3)) SELECT * FROM t",
        )
        .unwrap();
    assert!(text.contains("<<Type:data, N:1, Expr:"), "{text}");
}

/// Like [`db`], but with rows, so `EXPLAIN ANALYZE` has something to run.
fn db_with_data() -> Database {
    let database = db();
    database
        .execute(
            "INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), \
             (1, 3, 5.0), (4, 1, 1.0)",
        )
        .unwrap();
    database
        .execute("INSERT INTO vertexstatus VALUES (1, 1), (2, 1), (3, 0), (4, 1)")
        .unwrap();
    database
}

#[test]
fn explain_analyze_pagerank_annotates_every_step() {
    // The Figure-2 PR query, executed under EXPLAIN ANALYZE: the rendering
    // must keep the Table-I step structure AND carry actual row counts,
    // timings and a per-iteration metrics table.
    let profile = db_with_data()
        .explain_analyze(&pagerank(10, false).cte)
        .unwrap();
    let text = profile.render();
    // Same numbered skeleton as plain EXPLAIN.
    assert!(text.contains("1. Materialize"), "missing step 1:\n{text}");
    assert!(
        text.contains("Initialize loop operator <<Type:metadata, N:10 iterations, Expr:NONE>>"),
        "missing loop init:\n{text}"
    );
    assert!(text.contains("Rename"), "missing rename:\n{text}");
    assert!(text.contains("Go to step"), "missing loop-back:\n{text}");
    // Actual per-step counters.
    assert!(text.contains("actual rows="), "missing row counts:\n{text}");
    assert!(
        text.contains("execs=10"),
        "body steps ran 10 times:\n{text}"
    );
    assert!(text.contains("time="), "missing timings:\n{text}");
    // Per-iteration convergence table under the loop.
    assert!(text.contains("iter"), "missing iteration table:\n{text}");
    assert!(
        text.contains("working"),
        "missing working-size column:\n{text}"
    );
    // Structured view: one loop with ten iteration records, operators
    // nested under steps, and rows moved through exchanges accounted.
    let loops = profile.loops();
    assert_eq!(loops.len(), 1);
    assert_eq!(loops[0].iterations.len(), 10);
    assert!(loops[0].iterations.iter().all(|it| it.working_rows == 4));
    assert!(profile.find("SeqScan: edges").is_some(), "{text}");
    let materialize = profile.find("Materialize").unwrap();
    assert!(
        !materialize.children.is_empty(),
        "operators nest under steps"
    );
}

/// Forecast-Friends' final query, `ORDER BY friends DESC, node LIMIT 10`,
/// sorts only the ten rows it returns: the limit passes through the
/// gather above the sort, and the labels stay as they were.
#[test]
fn explain_analyze_ff_sorts_only_its_top_ten() {
    let database = db();
    let edges: Vec<String> = (1..=40)
        .map(|n| format!("({n}, {}, 1.0), ({n}, {}, 1.0)", n % 40 + 1, n % 7 + 1))
        .collect();
    database
        .execute(&format!("INSERT INTO edges VALUES {}", edges.join(", ")))
        .unwrap();
    let profile = database.explain_analyze(&ff(5, 1).cte).unwrap();
    let text = profile.render();
    let sort = profile.find("Sort: 2 keys").expect("a sort on two keys");
    assert_eq!(sort.rows_out, 10, "{text}");
    let gathered = &sort.children[0];
    assert_eq!(
        (gathered.label.as_str(), gathered.rows_out),
        ("Exchange: Gather", 40),
        "{text}"
    );
}

/// A select list that is not the sort keys puts a `Project` between the
/// gather and the sort. A projection keeps its input's rows in order, so
/// the limit passes through it as well, and the sort orders only the rows
/// returned.
#[test]
fn explain_analyze_sorts_only_the_top_n_under_a_projection() {
    let database = db_with_data();
    let sql = "SELECT CAST(weight AS INT), CAST(src % 2 = 0 AS INT), \
               CAST(src % 2 = 0 AS FLOAT) FROM edges ORDER BY src, dst LIMIT 3";
    let profile = database.explain_analyze(sql).unwrap();
    let text = profile.render();
    let sort = profile.find("Sort: 2 keys").expect("a sort on two keys");
    assert_eq!(sort.rows_out, 3, "{text}");
    let gathered = &sort.children[0];
    assert_eq!(
        (gathered.label.as_str(), gathered.rows_out),
        ("Exchange: Gather", 5),
        "{text}"
    );
    assert!(text.contains("Project: col_0#0"), "{text}");
}

/// A join's distribution is chosen at run time, and `EXPLAIN ANALYZE`
/// shows the choice where physical `EXPLAIN` shows the planned hash
/// exchanges: at 2 partitions PageRank's second join broadcasts the CTE
/// (150 rows, copied to the one other partition each iteration) and leaves
/// the first join's rows in place, one profile node per plan exchange.
#[test]
fn explain_analyze_shows_the_broadcast_a_join_chose() {
    let database = Database::new(EngineConfig::default().with_partitions(2)).unwrap();
    let spec = GraphSpec {
        nodes: 150,
        edges: 700,
        seed: 23,
        max_weight: 10,
    };
    load_edges_into(&database, "edges", &spec).unwrap();
    let sql = pagerank(3, false).cte;
    let plan = database.explain_physical(&sql).unwrap();
    assert!(
        plan.contains("Exchange: Hash(incomingrank.node#0)"),
        "{plan}"
    );
    assert!(!plan.contains("Broadcast"), "{plan}");
    let profile = database.explain_analyze(&sql).unwrap();
    let text = profile.render();
    let join = profile
        .find("HashJoin(Left): incomingedges.src")
        .expect(&text);
    let sides: Vec<(&str, u64)> = (join.children.iter())
        .map(|c| (c.label.as_str(), c.rows_moved))
        .collect();
    assert_eq!(
        sides,
        [
            ("Exchange: in place instead of Hash(incomingedges.src#3)", 0),
            (
                "Exchange: Broadcast instead of Hash(incomingrank.node#0)",
                3 * 150
            ),
        ],
        "{text}"
    );
}

/// The loop bodies' aggregates group the CTE's rows, not the join rows:
/// PageRank's partial aggregate reads both joins' output as row numbers
/// and numbers its groups at the CTE rows the first join probes with, and
/// so does semi-naive SSSP's over its indexed join; the label says so
/// after the aggregate's own. What the joins emit is unchanged: each
/// PageRank join emits, per iteration, every CTE node paired with each
/// edge into it (or padded), and SSSP's indexed join one row per
/// contribution, as many as the join of the delta with `edges` makes.
#[test]
fn explain_analyze_groups_pagerank_by_its_cte_rows() {
    let database = Database::new(EngineConfig::default().with_partitions(2)).unwrap();
    let spec = GraphSpec {
        nodes: 150,
        edges: 700,
        seed: 23,
        max_weight: 10,
    };
    load_edges_into(&database, "edges", &spec).unwrap();
    let pairs = database
        .query(
            "SELECT count(*) FROM (SELECT src AS node FROM edges UNION SELECT dst FROM edges) n \
             LEFT JOIN edges e ON n.node = e.dst",
        )
        .unwrap();
    let pairs = pairs.rows()[0][0].as_i64().unwrap() as u64;
    let profile = database.explain_analyze(&pagerank(3, false).cte).unwrap();
    let text = profile.render();
    let aggregate = profile
        .find("AggregatePartial: groups=2 aggs=1, grouped by source rows")
        .expect(&text);
    assert_eq!(aggregate.children.len(), 1, "{text}");
    let second = &aggregate.children[0];
    assert!(
        second
            .label
            .starts_with("HashJoin(Left): incomingedges.src"),
        "{text}"
    );
    let first = profile.find("HashJoin(Left, cached build)").expect(&text);
    assert_eq!(
        (first.rows_out, second.rows_out),
        (3 * pairs, 3 * pairs),
        "{text}"
    );

    let profile = database
        .explain_analyze(&sssp_convergent(1, None).cte)
        .unwrap();
    let text = profile.render();
    let aggregate = profile
        .find("AggregatePartial: groups=2 aggs=1, grouped by source rows")
        .expect(&text);
    let indexed = &aggregate.children[0];
    assert!(
        indexed.label.starts_with("HashJoin(Inner, indexed build)"),
        "{text}"
    );
    let contributions = profile.find("HashJoin(Inner, cached build)").expect(&text);
    assert!(contributions.rows_out > 0, "{text}");
    assert_eq!(indexed.rows_out, contributions.rows_out, "{text}");
}

#[test]
fn explain_analyze_delta_termination_reports_convergence() {
    // Delta termination stops when fewer than 5 rows change; v saturates
    // at 10 via LEAST, so deltas shrink monotonically to zero.
    let profile = db_with_data()
        .explain_analyze(
            "WITH ITERATIVE t (k, v) AS (SELECT src, 0 FROM edges \
             ITERATE SELECT k, LEAST(v + 3, 10) FROM t \
             UNTIL DELTA < 1) SELECT * FROM t",
        )
        .unwrap();
    let text = profile.render();
    assert!(text.contains("<<Type:delta, N:1, Expr:NONE>>"), "{text}");
    let loops = profile.loops();
    assert_eq!(loops.len(), 1);
    let iters = &loops[0].iterations;
    // 0 -> 3 -> 6 -> 9 -> 10 -> 10: four changing iterations then a
    // zero-delta one that triggers termination.
    assert_eq!(iters.len(), 5, "{text}");
    assert_eq!(iters.last().unwrap().delta_rows, 0);
    assert!(
        iters.windows(2).all(|w| w[1].delta_rows <= w[0].delta_rows),
        "deltas must not grow: {iters:?}"
    );
}

#[test]
fn explain_analyze_json_round_trips_from_sql() {
    let profile = db_with_data()
        .explain_analyze(&pagerank(5, false).cte)
        .unwrap();
    let json = profile.to_json();
    assert!(json.starts_with(&format!(
        "{{\"total_elapsed_us\":{},\"roots\":[{{\"label\":",
        profile.total_elapsed_us
    )));
    // Every span and every iteration record is in the text.
    let mut spans = profile.roots.iter().collect::<Vec<_>>();
    while let Some(node) = spans.pop() {
        let head = format!(
            "\"rows_out\":{},\"rows_moved\":{},\"bytes\":{},\"elapsed_us\":{},\"execs\":{},",
            node.rows_out, node.rows_moved, node.bytes, node.elapsed_us, node.execs
        );
        assert!(json.contains(&head), "{} missing from {json}", node.label);
        for it in &node.iterations {
            let record = format!(
                "{{\"iteration\":{},\"delta_rows\":{},\"rows_updated\":{},\"working_rows\":{},\"elapsed_us\":{}}}",
                it.iteration, it.delta_rows, it.rows_updated, it.working_rows, it.elapsed_us
            );
            assert!(json.contains(&record), "{record} missing from {json}");
        }
        spans.extend(&node.children);
    }
    assert_eq!(json.matches("\"iteration\":").count(), 5);
    assert!(
        json.contains("\"iteration_mode\":{\"mode\":\"full\","),
        "{json}"
    );
}

#[test]
fn merge_path_explain_shows_merge_step() {
    let text = db()
        .explain(
            "WITH ITERATIVE t (k, v) AS (SELECT src, 0 FROM edges \
             ITERATE SELECT k, v + 1 FROM t WHERE k < 5 \
             UNTIL 3 ITERATIONS) SELECT * FROM t",
        )
        .unwrap();
    assert!(
        text.contains("Merge"),
        "WHERE in Ri forces the merge path:\n{text}"
    );
    assert!(text.contains("by key column #0"), "{text}");
}

/// PageRank's loop body builds the `edges` join once and gathers only the
/// columns the aggregate reads: the physical EXPLAIN shows the join marked
/// as a cached build and both joins' pruned widths, and the logical one
/// the narrowed second scan of the CTE table.
#[test]
fn pagerank_explain_shows_the_cached_build_and_pruned_widths() {
    let sql = pagerank(10, false).cte;
    let physical = db().explain_physical(&sql).unwrap();
    assert!(
        physical.contains("HashJoin(Left, cached build): pagerank.node#0 = incomingedges.dst#1; emits 5 of 6 columns"),
        "{physical}"
    );
    assert!(
        physical.contains(
            "HashJoin(Left): incomingedges.src#3 = incomingrank.node#0; emits 5 of 7 columns"
        ),
        "{physical}"
    );
    assert_eq!(physical.matches("cached build").count(), 1, "{physical}");
    let logical = db().explain(&sql).unwrap();
    assert!(
        logical.contains("Projection: incomingrank.node#0, incomingrank.delta#2"),
        "{logical}"
    );
}

/// A semi-naive merge loop's join of its CTE table with last round's
/// contributions looks the CTE up through the loop's solution index: the
/// physical EXPLAIN marks that join, and only that one. PageRank runs on
/// the rename path and keeps no index; without the semi-naive rewrite the
/// merge body's joins are outer joins, which the index does not serve.
#[test]
fn a_semi_naive_merge_body_looks_the_cte_up_through_its_index() {
    let database = db();
    for (sql, label) in [
        (
            sssp_convergent(1, None).cte,
            "HashJoin(Inner, indexed build): sssp.node#0 = dst#1; emits 4 of 5 columns",
        ),
        (
            connected_components(None).cte,
            "HashJoin(Inner, indexed build): cc.node#0 = dst#1; emits 3 of 4 columns",
        ),
    ] {
        let physical = database.explain_physical(&sql).unwrap();
        assert!(physical.contains(label), "{physical}");
        assert_eq!(physical.matches("indexed build").count(), 1, "{physical}");
    }
    let physical = database.explain_physical(&pagerank(10, false).cte).unwrap();
    assert!(!physical.contains("indexed build"), "{physical}");
    let full = Database::new(
        EngineConfig::default()
            .with_semi_naive(false)
            .with_minimize_data_movement(false),
    )
    .unwrap();
    full.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let physical = full
        .explain_physical(&sssp_convergent(1, None).cte)
        .unwrap();
    assert!(physical.contains("Merge"), "{physical}");
    assert!(!physical.contains("indexed build"), "{physical}");
}

/// The exchange line under every `AggregateFinal` of a physical EXPLAIN:
/// what the two-phase aggregate shuffles its partial states on.
fn between_phases(physical: &str) -> Vec<&str> {
    let lines: Vec<&str> = physical.lines().map(str::trim).collect();
    (lines.windows(2))
        .filter(|w| w[0].starts_with("AggregateFinal"))
        .map(|w| w[1])
        .collect()
}

/// EXPLAIN shows the key that runs: PageRank's loop body stores its
/// aggregate distributed on `node`, so the aggregate shuffles its partial
/// states on `node` alone — not on `(node, rank + delta)` — and the
/// Materialize finds them placed already. A `GROUP BY` that is returned,
/// not stored, still shuffles on every group key.
#[test]
fn a_stored_aggregate_shuffles_on_the_stored_key_alone() {
    let database = db();
    let physical = database.explain_physical(&pagerank(10, false).cte).unwrap();
    assert_eq!(
        between_phases(&physical),
        ["Exchange: Hash(node#0)"],
        "{physical}"
    );
    let physical = database
        .explain_physical("SELECT src, dst, SUM(weight) FROM edges GROUP BY src, dst")
        .unwrap();
    assert_eq!(
        between_phases(&physical),
        ["Exchange: Hash(src#0, dst#1)"],
        "{physical}"
    );
}

/// Statements whose planning goes through every expression walk of the
/// planner and the rule optimizer: aggregate resolution around CASE,
/// BETWEEN, IN, CAST, IS NULL and scalar functions; ORDER BY's unqualified
/// fallback and its hidden sort column; outer→inner conversion; constant
/// folding.
const GOLDEN_SHAPES: [&str; 5] = [
    "SELECT src, CASE COUNT(*) WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END AS c, \
     CAST(SUM(weight) AS INT) AS s, ROUND(AVG(weight), 2) AS a, MAX(dst) IS NULL AS n, \
     MIN(dst) IN (1, 2, 3) AS i, ABS(src + MAX(dst)) AS m \
     FROM edges GROUP BY src \
     HAVING SUM(weight) BETWEEN 0 AND 100 AND COALESCE(MAX(dst), 0) >= 0 \
     AND CASE MIN(dst) WHEN 0 THEN FALSE ELSE TRUE END AND CAST(COUNT(*) AS FLOAT) > 0.5 \
     AND src NOT IN (7, 8) AND MAX(weight) IS NOT NULL",
    "SELECT e.src, e.dst FROM edges e ORDER BY e.src",
    "SELECT dst FROM edges ORDER BY weight DESC, dst",
    "SELECT e.src, v.status FROM edges e LEFT JOIN vertexstatus v ON v.node = e.dst \
     WHERE v.status > 0",
    "SELECT src FROM edges WHERE 1 + 1 = 2 AND dst > 2 * 3 AND (FALSE OR src < 10)",
];

/// The logical EXPLAIN of every CTE workload and of [`GOLDEN_SHAPES`],
/// under the default and the naive configuration, is the text in
/// `tests/golden/plans.txt`. A refactor of the planner or of the rule
/// optimizer must leave it unchanged; a change that means to move a plan
/// regenerates the file with `SPINNER_BLESS_PLANS=1` and shows the diff.
#[test]
fn explain_text_matches_the_golden_plans() {
    let workloads = [
        ("pagerank(10, false)", pagerank(10, false).cte),
        ("pagerank(10, true)", pagerank(10, true).cte),
        ("sssp(10, 1, false)", sssp(10, 1, false).cte),
        ("sssp(10, 1, true)", sssp(10, 1, true).cte),
        ("sssp_convergent(1, None)", sssp_convergent(1, None).cte),
        ("ff(25, 100)", ff(25, 100).cte),
        ("connected_components(None)", connected_components(None).cte),
    ];
    let shapes = GOLDEN_SHAPES.iter().map(|sql| (*sql, sql.to_string()));
    let statements: Vec<(&str, String)> = workloads.into_iter().chain(shapes).collect();
    let mut rendered = String::new();
    for (config_name, config) in [
        ("default", EngineConfig::default()),
        ("naive", EngineConfig::naive()),
    ] {
        let mut database = db();
        database.set_config(config).unwrap();
        for (name, sql) in &statements {
            let text = database.explain(sql).unwrap();
            rendered.push_str(&format!("=== {config_name}: {name}\n{text}\n"));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/plans.txt");
    if std::env::var_os("SPINNER_BLESS_PLANS").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    assert!(
        rendered == golden,
        "EXPLAIN differs from {path}; rerun with SPINNER_BLESS_PLANS=1 and diff it"
    );
}
