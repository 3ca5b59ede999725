//! Negative-path coverage: every user error class must surface as the
//! right `Error` variant with an actionable message — not a panic, not a
//! wrong result.

use std::thread;

use spinner_engine::{Database, EngineConfig, Error};

fn db() -> Database {
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)")
        .unwrap();
    db
}

#[test]
fn parse_errors_carry_position() {
    let err = db().execute("SELECT * FRM edges").unwrap_err();
    assert!(
        matches!(
            err,
            Error::Parse {
                position: Some(_),
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn unknown_table_and_column() {
    assert!(matches!(
        db().execute("SELECT * FROM ghosts").unwrap_err(),
        Error::TableNotFound(_)
    ));
    assert!(matches!(
        db().execute("SELECT ghost FROM edges").unwrap_err(),
        Error::ColumnNotFound(_)
    ));
    assert!(matches!(
        db().execute("SELECT e.ghost FROM edges e").unwrap_err(),
        Error::ColumnNotFound(_)
    ));
}

#[test]
fn unknown_function() {
    let err = db()
        .execute("SELECT frobnicate(src) FROM edges")
        .unwrap_err();
    assert!(matches!(err, Error::Plan(m) if m.contains("frobnicate")));
}

#[test]
fn wrong_function_arity() {
    let err = db().execute("SELECT mod(src) FROM edges").unwrap_err();
    assert!(matches!(err, Error::Plan(m) if m.contains("arguments")));
}

#[test]
fn aggregate_in_where_rejected() {
    let err = db()
        .execute("SELECT src FROM edges WHERE SUM(dst) > 1")
        .unwrap_err();
    assert!(matches!(err, Error::Plan(m) if m.contains("aggregate")));
}

#[test]
fn sum_or_avg_of_text_or_booleans_is_a_plan_error() {
    let d = db();
    d.execute("CREATE TABLE flags (k INT, flag BOOL, name TEXT)")
        .unwrap();
    d.execute("INSERT INTO flags VALUES (1, true, 'a'), (2, true, 'b')")
        .unwrap();
    for (sql, words) in [
        (
            "SELECT SUM(flag) FROM flags",
            "function sum(BOOL) does not exist",
        ),
        (
            "SELECT k, AVG(name) FROM flags GROUP BY k",
            "function avg(TEXT) does not exist",
        ),
    ] {
        let err = d.execute(sql).unwrap_err();
        assert!(matches!(&err, Error::Plan(m) if m == words), "{sql}: {err}");
    }
    // MIN and MAX keep their argument's type.
    assert!(d.execute("SELECT MIN(flag), MAX(name) FROM flags").is_ok());
}

#[test]
fn union_arity_mismatch() {
    let err = db()
        .execute("SELECT src FROM edges UNION SELECT src, dst FROM edges")
        .unwrap_err();
    assert!(matches!(err, Error::Plan(m) if m.contains("column counts")));
}

#[test]
fn cte_column_count_mismatch() {
    let err = db()
        .execute("WITH t (a, b, c) AS (SELECT src FROM edges) SELECT * FROM t")
        .unwrap_err();
    assert!(matches!(err, Error::Plan(_)));
}

#[test]
fn iterative_cte_width_mismatch_between_parts() {
    let err = db()
        .execute(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges
             ITERATE SELECT k FROM t
             UNTIL 2 ITERATIONS) SELECT * FROM t",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Plan(m) if m.contains("columns")));
}

#[test]
fn duplicate_iteration_key_names_the_cte() {
    let err = db()
        .execute(
            "WITH ITERATIVE dup (k, v) AS (
                 SELECT DISTINCT src, 0 FROM edges
             ITERATE SELECT 1, v + 1 FROM dup WHERE k < 99
             UNTIL 2 ITERATIONS) SELECT * FROM dup",
        )
        .unwrap_err();
    let Error::DuplicateIterationKey { cte, .. } = err else {
        panic!("wrong error: {err}")
    };
    assert_eq!(cte, "dup");
}

#[test]
fn invalid_termination_expression_rejected_at_plan_time() {
    let err = db()
        .execute(
            "WITH ITERATIVE t (k) AS (
                 SELECT src FROM edges
             ITERATE SELECT k FROM t
             UNTIL (ghost_column > 3)) SELECT * FROM t",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Plan(m) if m.contains("termination")));
}

#[test]
fn runaway_data_condition_stops_at_safety_limit() {
    let mut database = db();
    let mut config = database.config().clone();
    config.max_iterations = 50;
    database.set_config(config).unwrap();
    let err = database
        .execute(
            "WITH ITERATIVE t (k, v) AS (
                 SELECT 1, 0
             ITERATE SELECT k, v + 1 FROM t
             UNTIL (v < 0)) SELECT * FROM t",
        )
        .unwrap_err();
    assert!(matches!(
        err,
        Error::IterationLimitExceeded { limit: 50, .. }
    ));
}

#[test]
fn insert_width_mismatch() {
    let err = db().execute("INSERT INTO edges VALUES (1, 2)").unwrap_err();
    assert!(matches!(err, Error::Plan(_)));
}

#[test]
fn insert_bad_cast_is_runtime_error() {
    let err = db()
        .execute("INSERT INTO edges VALUES ('not-a-number', 2, 1.0)")
        .unwrap_err();
    assert!(matches!(err, Error::Type(_)));
}

#[test]
fn update_unknown_column() {
    let err = db().execute("UPDATE edges SET ghost = 1").unwrap_err();
    assert!(matches!(err, Error::ColumnNotFound(_)));
}

#[test]
fn recursive_cte_requires_union_shape() {
    let err = db()
        .execute("WITH RECURSIVE r (n) AS (SELECT 1) SELECT * FROM r")
        .unwrap_err();
    assert!(matches!(err, Error::Parse { .. }));
}

#[test]
fn reserved_word_as_column_rejected() {
    let err = db().execute("SELECT select FROM edges").unwrap_err();
    assert!(matches!(err, Error::Parse { .. }));
}

#[test]
fn failed_statement_leaves_tables_intact() {
    let d = db();
    let before = d.query("SELECT COUNT(*) FROM edges").unwrap();
    // Division by zero mid-update must not partially apply.
    let _ = d.execute("UPDATE edges SET weight = 1 / (src - src)");
    let after = d.query("SELECT COUNT(*) FROM edges").unwrap();
    assert_eq!(before.rows(), after.rows());
    // All weights unchanged.
    let sum = d.query("SELECT SUM(weight) FROM edges").unwrap();
    assert_eq!(sum.rows()[0][0].as_f64().unwrap(), 3.0);
}

/// The parser's nesting and chain bounds hold together: the statements
/// that spend the most of both — the longest `+` chain the parser accepts
/// at the bottom of nested subqueries — run end to end on a 2 MiB stack,
/// what every thread but main gets, serially and in parallel. 97 levels
/// around 257 terms used to parse and then overflow the planner's stack.
#[test]
fn deepest_accepted_statements_run_on_a_2_mib_stack() {
    let nested_sum = |levels: usize, terms: usize| {
        format!(
            "SELECT * FROM {}(SELECT {} AS s FROM t){}",
            "(SELECT * FROM ".repeat(levels),
            vec!["k"; terms].join(" + "),
            ")".repeat(levels)
        )
    };
    for parallel in [false, true] {
        let run = move || {
            let config = EngineConfig::default().with_parallel_partitions(parallel);
            let db = Database::new(config).unwrap();
            db.execute("CREATE TABLE t (k INT)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            assert!(matches!(
                db.query(&nested_sum(97, 257)),
                Err(Error::Parse { .. })
            ));
            for levels in [0, 20, 40, 60, 80, 97] {
                let answered = (1..=257)
                    .rev()
                    .map(|terms| db.query(&nested_sum(levels, terms)))
                    .find(|outcome| !matches!(outcome, Err(Error::Parse { .. })));
                match answered {
                    Some(Ok(rows)) => assert_eq!(rows.len(), 3, "{levels} levels"),
                    Some(Err(e)) => eprintln!("{levels} levels: typed error {e}"),
                    None => panic!("no chain accepted at {levels} levels"),
                }
            }
        };
        thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }
}
