//! General SQL semantics: the substrate the iterative rewrite relies on.
//! Hand-computed expectations over a fixed mini-dataset.

use std::sync::Arc;

use spinner_common::Row;
use spinner_engine::{Database, Error, Value};

fn db() -> Database {
    let db = Database::default();
    db.execute_script(
        "CREATE TABLE people (id INT, name TEXT, city TEXT, age INT);
         INSERT INTO people VALUES
             (1, 'ann', 'rome', 30),
             (2, 'bob', 'rome', 25),
             (3, 'cat', 'oslo', 35),
             (4, 'dan', 'oslo', NULL),
             (5, 'eve', 'lima', 28);
         CREATE TABLE visits (person INT, place TEXT);
         INSERT INTO visits VALUES
             (1, 'oslo'), (1, 'lima'), (2, 'rome'), (9, 'nowhere');",
    )
    .unwrap();
    db
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    db.query(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect()
}

#[test]
fn where_with_null_drops_unknown() {
    // dan's age is NULL: excluded by both age > 20 and NOT(age > 20).
    assert_eq!(
        ints(&db(), "SELECT COUNT(*) FROM people WHERE age > 20"),
        vec![4]
    );
    assert_eq!(
        ints(&db(), "SELECT COUNT(*) FROM people WHERE NOT (age > 20)"),
        vec![0]
    );
    assert_eq!(
        ints(&db(), "SELECT COUNT(*) FROM people WHERE age IS NULL"),
        vec![1]
    );
}

#[test]
fn aggregates_over_groups() {
    let batch = db()
        .query(
            "SELECT city, COUNT(*) AS n, AVG(age) AS a FROM people \
             GROUP BY city ORDER BY city",
        )
        .unwrap();
    let rows: Vec<(String, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r[0].to_string(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(
        rows,
        vec![("lima".into(), 1), ("oslo".into(), 2), ("rome".into(), 2)]
    );
    // oslo's AVG ignores dan's NULL: 35.0, not 17.5.
    assert_eq!(batch.rows()[1][2], Value::Float(35.0));
}

#[test]
fn having_filters_groups() {
    assert_eq!(
        ints(
            &db(),
            "SELECT COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 1"
        ),
        vec![2, 2]
    );
}

#[test]
fn count_distinct() {
    assert_eq!(
        ints(&db(), "SELECT COUNT(DISTINCT city) FROM people"),
        vec![3]
    );
}

#[test]
fn inner_left_right_full_joins() {
    let d = db();
    // inner: only people with visits (ann x2, bob x1)
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM people p JOIN visits v ON p.id = v.person"
        ),
        vec![3]
    );
    // left: everyone, plus multiplicity
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM people p LEFT JOIN visits v ON p.id = v.person"
        ),
        vec![6]
    );
    // right: all visits, even person 9
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM people p RIGHT JOIN visits v ON p.id = v.person"
        ),
        vec![4]
    );
    // full: 6 left-join rows + the orphan visit
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM people p FULL JOIN visits v ON p.id = v.person"
        ),
        vec![7]
    );
}

#[test]
fn non_equi_join_falls_back_to_nested_loop() {
    // Pairs of people where the first is strictly older.
    assert_eq!(
        ints(
            &db(),
            "SELECT COUNT(*) FROM people a JOIN people b ON a.age > b.age"
        ),
        vec![6]
    );
}

#[test]
fn cross_join_cardinality() {
    assert_eq!(ints(&db(), "SELECT COUNT(*) FROM people, visits"), vec![20]);
}

#[test]
fn set_operations() {
    let d = db();
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM (SELECT city FROM people UNION SELECT place FROM visits)"
        ),
        vec![4] // rome, oslo, lima, nowhere
    );
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM (SELECT city FROM people UNION ALL SELECT place FROM visits)"
        ),
        vec![9]
    );
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM (SELECT city FROM people EXCEPT SELECT place FROM visits)"
        ),
        vec![0]
    );
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM (SELECT place FROM visits EXCEPT SELECT city FROM people)"
        ),
        vec![1] // nowhere
    );
    assert_eq!(
        ints(
            &d,
            "SELECT COUNT(*) FROM (SELECT city FROM people INTERSECT SELECT place FROM visits)"
        ),
        vec![3]
    );
}

#[test]
fn order_by_with_nulls_and_limit() {
    let batch = db()
        .query("SELECT name, age FROM people ORDER BY age DESC NULLS LAST LIMIT 2")
        .unwrap();
    assert_eq!(batch.rows()[0][0].to_string(), "cat");
    assert_eq!(batch.rows()[1][0].to_string(), "ann");
    let batch = db()
        .query("SELECT name FROM people ORDER BY age ASC NULLS FIRST LIMIT 1")
        .unwrap();
    assert_eq!(batch.rows()[0][0].to_string(), "dan");
}

#[test]
fn distinct_dedupes() {
    assert_eq!(
        ints(
            &db(),
            "SELECT COUNT(*) FROM (SELECT DISTINCT city FROM people)"
        ),
        vec![3]
    );
}

#[test]
fn case_when_and_scalar_functions() {
    let batch = db()
        .query(
            "SELECT name,
                    CASE WHEN age >= 30 THEN 'senior'
                         WHEN age >= 26 THEN 'mid'
                         ELSE 'junior' END AS band,
                    COALESCE(age, -1) AS age2,
                    UPPER(name) AS up
             FROM people ORDER BY id",
        )
        .unwrap();
    assert_eq!(batch.rows()[0][1].to_string(), "senior");
    assert_eq!(batch.rows()[1][1].to_string(), "junior");
    // dan: NULL age falls to ELSE and coalesces to -1
    assert_eq!(batch.rows()[3][1].to_string(), "junior");
    assert_eq!(batch.rows()[3][2], Value::Int(-1));
    assert_eq!(batch.rows()[0][3].to_string(), "ANN");
}

#[test]
fn in_list_and_between() {
    assert_eq!(
        ints(
            &db(),
            "SELECT COUNT(*) FROM people WHERE city IN ('rome', 'lima')"
        ),
        vec![3]
    );
    assert_eq!(
        ints(
            &db(),
            "SELECT COUNT(*) FROM people WHERE age BETWEEN 25 AND 30"
        ),
        vec![3]
    );
}

#[test]
fn scalar_subquery_free_select() {
    assert_eq!(ints(&db(), "SELECT 2 + 3 * 4"), vec![14]);
}

#[test]
fn division_by_zero_is_a_runtime_error() {
    let err = db().query("SELECT age / 0 FROM people").unwrap_err();
    assert!(matches!(err, Error::Arithmetic(_)));
}

#[test]
fn ambiguous_column_is_a_plan_error() {
    let err = db()
        .query("SELECT id FROM people a JOIN people b ON a.id = b.id")
        .unwrap_err();
    assert!(matches!(err, Error::Plan(_)));
}

#[test]
fn recursive_cte_numbers() {
    let batch = db()
        .query(
            "WITH RECURSIVE nums (n) AS (
                 SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 10)
             SELECT SUM(n) FROM nums",
        )
        .unwrap();
    assert_eq!(batch.rows()[0][0], Value::Int(55));
}

#[test]
fn qualified_wildcard_expansion() {
    let batch = db()
        .query("SELECT v.* FROM people p JOIN visits v ON p.id = v.person LIMIT 1")
        .unwrap();
    assert_eq!(batch.schema().len(), 2);
}

#[test]
fn update_and_delete_roundtrip() {
    let d = db();
    d.execute("UPDATE people SET age = age + 1 WHERE city = 'rome'")
        .unwrap();
    assert_eq!(
        ints(&d, "SELECT SUM(age) FROM people WHERE city = 'rome'"),
        vec![57]
    );
    d.execute("DELETE FROM people WHERE age IS NULL").unwrap();
    assert_eq!(ints(&d, "SELECT COUNT(*) FROM people"), vec![4]);
}

/// `t (id INT, v INT)` holding `v = id` for ids 0..40, distributed on `id`
/// over the default 4 partitions.
fn forty() -> Database {
    let d = Database::default();
    d.execute("CREATE TABLE t (id INT, v INT)").unwrap();
    let values: Vec<String> = (0..40).map(|i| format!("({i}, {i})")).collect();
    d.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    d
}

/// Every row of `t`, partition by partition, exactly as stored.
fn stored(d: &Database) -> Vec<Vec<Row>> {
    let t = d.catalog().get("t").unwrap().snapshot();
    t.parts.iter().map(|part| part.to_rows()).collect()
}

/// A DML statement that fails on one row changes no row, in any
/// partition: the partitions before the failing one are not half-applied.
fn fails_leaving_the_table_unchanged(sql: &str) {
    let d = forty();
    let before = stored(&d);
    let err = d.execute(sql).unwrap_err();
    assert_eq!(err, Error::Arithmetic("division by zero".into()));
    assert_eq!(ints(&d, "SELECT SUM(v) FROM t"), vec![780]);
    assert_eq!(ints(&d, "SELECT COUNT(*) FROM t"), vec![40]);
    assert_eq!(stored(&d), before);
}

#[test]
fn a_failing_delete_leaves_the_table_unchanged() {
    fails_leaving_the_table_unchanged("DELETE FROM t WHERE 10 / v < 100");
}

#[test]
fn a_failing_update_leaves_the_table_unchanged() {
    fails_leaving_the_table_unchanged("UPDATE t SET v = 100 / (v - 23)");
}

#[test]
fn a_failing_update_from_leaves_the_table_unchanged() {
    fails_leaving_the_table_unchanged(
        "UPDATE t SET v = 0 FROM t AS f WHERE t.id = f.id AND 100 / (f.v - 23) <> 7",
    );
}

/// `UPDATE … FROM` takes, for each target row, the first FROM row in FROM
/// order that matches its key and passes the rest of the WHERE clause.
/// NULL keys match nothing, on either side.
#[test]
fn update_from_takes_the_first_match_and_never_matches_null() {
    let d = forty();
    d.execute_script(
        "CREATE TABLE src (k INT, w INT);
         INSERT INTO src VALUES (1, 10), (1, 20), (2, 30), (NULL, 40), (1, 50);
         INSERT INTO t VALUES (NULL, 7);",
    )
    .unwrap();
    let r = d
        .execute("UPDATE t SET v = src.w FROM src WHERE t.id = src.k")
        .unwrap();
    assert_eq!(r.affected(), Some(2));
    let v = |d: &Database, id: &str| ints(d, &format!("SELECT v FROM t WHERE {id}"));
    assert_eq!((v(&d, "id = 1"), v(&d, "id = 2")), (vec![10], vec![30]));
    assert_eq!(v(&d, "id IS NULL"), vec![7]);
    // The residual filters the pairs before the first one wins; a key on
    // either side of the `=` works.
    let r = d
        .execute("UPDATE t SET v = src.w FROM src WHERE src.k = t.id AND src.w > 10")
        .unwrap();
    assert_eq!(r.affected(), Some(2));
    assert_eq!(v(&d, "id = 1"), vec![20]);
    // Without an equality, every FROM row is a candidate, in FROM order —
    // the order a scan of `src` returns its rows in.
    let first = ints(&d, "SELECT w FROM src WHERE w >= 30")[0];
    let r = d
        .execute("UPDATE t SET v = src.w FROM src WHERE t.id < 3 AND src.w >= 30")
        .unwrap();
    assert_eq!(r.affected(), Some(3));
    assert_eq!(ints(&d, "SELECT v FROM t WHERE id < 3"), vec![first; 3]);
}

/// The same over a two-column key, a FROM side spread over partitions that
/// repeats each key about twenty times, and NULL key cells on both sides:
/// a target row takes the first FROM row in gather order holding its key,
/// and a key with a NULL cell updates nothing and is matched by nothing.
#[test]
fn update_from_with_repeated_and_null_keys_takes_the_first_in_gather_order() {
    let d = forty();
    let cell = |x: i64, null: bool| {
        if null {
            "NULL".to_string()
        } else {
            x.to_string()
        }
    };
    let from: Vec<String> = (0..120)
        .map(|i| {
            format!(
                "({}, {}, {})",
                cell(i % 6, i % 7 == 0),
                cell(i % 6, i % 5 == 0),
                1000 + i
            )
        })
        .collect();
    d.execute("CREATE TABLE src (k INT, j INT, w INT)").unwrap();
    d.execute(&format!("INSERT INTO src VALUES {}", from.join(", ")))
        .unwrap();
    d.execute("INSERT INTO t VALUES (NULL, 3), (3, NULL), (NULL, NULL)")
        .unwrap();
    // The first `w` of each non-NULL key, in the order a scan of `src`
    // returns its rows.
    let mut first = std::collections::HashMap::new();
    for row in d.query("SELECT k, j, w FROM src").unwrap().rows() {
        if let (Value::Int(k), Value::Int(j)) = (&row[0], &row[1]) {
            first.entry((*k, *j)).or_insert(row[2].clone());
        }
    }
    assert_eq!(first.len(), 6, "k = j for every non-NULL key");
    let r = d
        .execute("UPDATE t SET v = src.w FROM src WHERE t.id = src.k AND t.v = src.j")
        .unwrap();
    assert_eq!(r.affected(), Some(6));
    for row in d.query("SELECT id, v FROM t").unwrap().rows() {
        let want = match (&row[0], &row[1]) {
            (Value::Int(id), Value::Int(_)) if *id < 6 => first[&(*id, *id)].clone(),
            (_, v) => v.clone(),
        };
        assert_eq!(
            format!("{:?}", row[1]),
            format!("{want:?}"),
            "id {:?}",
            row[0]
        );
    }
    assert_eq!(ints(&d, "SELECT SUM(v) FROM t WHERE id < 6"), vec![6027]);
    assert_eq!(
        ints(&d, "SELECT COUNT(*) FROM t WHERE v IS NULL OR id IS NULL"),
        vec![3]
    );
}

/// A key-changing UPDATE leaves every row in the partition `placement`
/// assigns its key, and the partitions it does not touch keep their
/// buffers.
#[test]
fn update_places_changed_keys_and_keeps_untouched_partitions() {
    use spinner_storage::placement;
    let d = forty();
    let before = d.catalog().get("t").unwrap().snapshot();
    d.execute("UPDATE t SET v = -1 WHERE id = 5").unwrap();
    let after = d.catalog().get("t").unwrap().snapshot();
    let kept = (before.parts.iter().zip(&after.parts)).filter(|(b, a)| Arc::ptr_eq(b, a));
    assert_eq!(kept.count(), 3, "only the partition holding id 5 is new");

    d.execute("UPDATE t SET id = id * 7 + 1000 WHERE v >= 0")
        .unwrap();
    let t = d.catalog().get("t").unwrap().snapshot();
    for (p, part) in t.parts.iter().enumerate() {
        let placed = placement(&part.columns()[..1], part.rows(), t.parts.len());
        assert!(placed.iter().all(|&to| to as usize == p), "partition {p}");
    }
    assert_eq!(
        ints(&d, "SELECT COUNT(*) FROM t WHERE id >= 1000"),
        vec![39]
    );
    assert_eq!(ints(&d, "SELECT SUM(v) FROM t"), vec![774]);
}

/// `INSERT … SELECT` appends the query's blocks routed by the table's
/// rule — round-robin by row number in gather order, or by the key — and
/// places every row where `Partitioned::from_rows` over the gathered rows
/// places it.
#[test]
fn insert_select_places_rows_as_from_rows_does() {
    use spinner_storage::Partitioned;
    let d = forty();
    let source = "SELECT id * 3, v FROM t WHERE id % 4 <> 1";
    let rows = d.query(source).unwrap().into_rows();
    for (name, key) in [("rr", None), ("keyed", Some(0))] {
        let schema = d.catalog().get("t").unwrap().schema().clone();
        d.catalog()
            .create_table(name, schema.clone(), 4, key, None)
            .unwrap();
        let r = d.execute(&format!("INSERT INTO {name} {source}")).unwrap();
        assert_eq!(r.affected(), Some(30));
        let placed = d.catalog().get(name).unwrap().snapshot();
        let want = Partitioned::from_rows(schema, rows.clone(), key, 4);
        let as_rows = |p: &Partitioned| -> Vec<Vec<Row>> {
            p.parts.iter().map(|part| part.to_rows()).collect()
        };
        assert_eq!(as_rows(&placed), as_rows(&want), "{name}");
    }
}

/// `INSERT … SELECT … GROUP BY` lowers its source for the table's
/// distribution column: the aggregate shuffles on that key alone, so its
/// result comes out placed where the table keeps it and is appended
/// without routing a row — into an empty table, then onto its rows. Every
/// row sits where `placement` puts it, and each partition holds exactly
/// the rows, bit for bit, that routing the query's result would have put
/// there. A table distributed like its source takes the source's buffers.
#[test]
fn insert_select_appends_a_source_placed_on_the_table_key_as_it_is() {
    use spinner_storage::{placement, Partitioned};
    let d = forty();
    let snapshot = |name: &str| d.catalog().get(name).unwrap().snapshot();
    d.execute("CREATE TABLE sums (k INT, total FLOAT, n INT)")
        .unwrap();
    let source = "SELECT id % 7, SUM(v * 0.1), COUNT(*) FROM t GROUP BY id % 7, v % 3";
    for _ in 0..2 {
        d.execute(&format!("INSERT INTO sums {source}")).unwrap();
    }
    let sums = snapshot("sums");
    for (p, part) in sums.parts.iter().enumerate() {
        let placed = placement(&part.columns()[..1], part.rows(), sums.parts.len());
        assert!(placed.iter().all(|&to| to as usize == p), "partition {p}");
    }
    let rows = d.query(source).unwrap().into_rows();
    assert_eq!((rows.len(), sums.total_rows()), (21, 42));
    let routed = Partitioned::from_rows(
        sums.schema.clone(),
        [rows.clone(), rows].concat(),
        Some(0),
        4,
    );
    let contents = |p: &Partitioned| -> Vec<Vec<String>> {
        let part = |block: &Arc<spinner_common::Block>| {
            let mut rows: Vec<String> = block.to_rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        p.parts.iter().map(part).collect()
    };
    assert_eq!(contents(&sums), contents(&routed));

    d.execute("CREATE TABLE copy (id INT, v INT)").unwrap();
    d.execute("INSERT INTO copy SELECT * FROM t").unwrap();
    let (t, copy) = (snapshot("t"), snapshot("copy"));
    assert_eq!(copy.gather(), t.gather());
    for (from, to) in t.parts.iter().zip(&copy.parts) {
        let shared = (from.columns().iter().zip(to.columns())).all(|(a, b)| Arc::ptr_eq(a, b));
        assert!(shared, "an empty table takes the source's buffers");
    }
}

#[test]
fn insert_select_with_column_list() {
    let d = db();
    d.execute("CREATE TABLE names (nick TEXT, id INT)").unwrap();
    d.execute("INSERT INTO names (id, nick) SELECT id, name FROM people")
        .unwrap();
    let batch = d.query("SELECT nick FROM names WHERE id = 3").unwrap();
    assert_eq!(batch.rows()[0][0].to_string(), "cat");
}

#[test]
fn text_comparisons_and_concat() {
    let batch = db()
        .query("SELECT CONCAT(name, '@', city) FROM people WHERE name = 'eve'")
        .unwrap();
    assert_eq!(batch.rows()[0][0].to_string(), "eve@lima");
}

/// `ORDER BY … LIMIT n` is the first `n` rows of the same `ORDER BY`
/// without a limit — the sort under the gather keeps only its top `n` —
/// over INT, FLOAT (both zeroes, NULLs) and TEXT keys in every direction,
/// and since each order ends on the unique `k`, the rows are the same at
/// 1, 2 and 4 partitions.
#[test]
fn order_by_limit_is_the_head_of_the_full_order_at_every_partition_count() {
    let x = |k: i64| match k % 6 {
        0 => None,
        1 => Some(-0.0),
        2 => Some(0.0),
        n => Some(((k * 7 + n) % 5 - 2) as f64 + 0.5),
    };
    let s = |k: i64| (k % 7 != 3).then(|| format!("s{}", k % 4));
    let values: Vec<String> = (0..40)
        .map(|k| {
            let x = x(k).map_or("NULL".into(), |x| format!("{x:?}"));
            let s = s(k).map_or("NULL".into(), |s| format!("'{s}'"));
            format!("({k}, {x}, {s})")
        })
        .collect();
    let orders = [
        "x DESC, k",
        "x NULLS FIRST, k DESC",
        "s NULLS FIRST, x DESC NULLS LAST, k",
        "k % 3, s DESC, x, k",
    ];
    let mut results = Vec::new();
    for partitions in [1, 2, 4] {
        let d = Database::new(spinner_engine::EngineConfig::default().with_partitions(partitions))
            .unwrap();
        d.execute("CREATE TABLE m (k INT, x FLOAT, s TEXT)")
            .unwrap();
        d.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
            .unwrap();
        let mut fulls = Vec::new();
        // The second select list is not the sort keys: a projection sits
        // between the sort and the limit.
        let select_lists = ["k, x, s", "CAST(k AS FLOAT), s, x IS NULL"];
        for (order, list) in orders.iter().flat_map(|o| select_lists.map(|l| (o, l))) {
            let sql = format!("SELECT {list} FROM m ORDER BY {order}");
            let full = d.query(&sql).unwrap().into_rows();
            assert_eq!(full.len(), 40);
            for n in [0, 1, 7, 40, 41] {
                let head = d.query(&format!("{sql} LIMIT {n}")).unwrap().into_rows();
                let want = &full[..n.min(full.len())];
                assert_eq!(format!("{head:?}"), format!("{want:?}"), "{sql} LIMIT {n}");
            }
            fulls.push(format!("{full:?}"));
        }
        // An integer key is a select-list position: `ORDER BY 1 DESC, 2`
        // is `ORDER BY <first column> DESC, <second>`.
        for (by_position, by_name) in [
            ("1 DESC, 2", "x DESC, k"),
            (
                "3 NULLS FIRST, 1 DESC NULLS LAST, 2",
                "s NULLS FIRST, x DESC NULLS LAST, k",
            ),
        ] {
            let rows = |order: &str| {
                let sql = format!("SELECT x, k, s FROM m ORDER BY {order}");
                format!("{:?}", d.query(&sql).unwrap().into_rows())
            };
            assert_eq!(rows(by_position), rows(by_name), "ORDER BY {by_position}");
        }
        let err = d.query("SELECT x, k, s FROM m ORDER BY 4").unwrap_err();
        assert!(
            matches!(&err, Error::Plan(m) if m == "ORDER BY position 4 is not in select list"),
            "{err}"
        );
        results.push(fulls);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
    // `x DESC, k` by hand: NULLs last (the default), the values down, the
    // two zeroes tied and so ordered by `k`.
    let mut ks: Vec<i64> = (0..40).collect();
    ks.sort_by(|&a, &b| match (x(a), x(b)) {
        (Some(p), Some(q)) => q.partial_cmp(&p).unwrap().then(a.cmp(&b)),
        (p, q) => p.is_none().cmp(&q.is_none()).then(a.cmp(&b)),
    });
    let d = Database::default();
    d.execute("CREATE TABLE m (k INT, x FLOAT, s TEXT)")
        .unwrap();
    d.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
        .unwrap();
    assert_eq!(
        ints(&d, "SELECT k FROM m ORDER BY x DESC, k LIMIT 12"),
        ks[..12]
    );
}

/// A table of each type — `a` INT, `b` FLOAT, `s` TEXT, `f` BOOL — at
/// `partitions` partitions.
fn typed_table(partitions: usize) -> Database {
    let config = spinner_engine::EngineConfig::default().with_partitions(partitions);
    let d = Database::new(config).unwrap();
    d.execute_script(
        "CREATE TABLE t (a INT, b FLOAT, s TEXT, f BOOL);
         INSERT INTO t VALUES (1, 2.5, 'x', true), (2, 3.0, 'y', false), (3, NULL, NULL, NULL);",
    )
    .unwrap();
    d
}

/// Every shape whose arms have no common type — TEXT beside INT, BOOL
/// beside FLOAT — is a plan error worded as PostgreSQL words it, at every
/// partition count; none reaches execution.
#[test]
fn arms_without_a_common_type_are_plan_errors() {
    let statements = [
        (
            "SELECT CASE WHEN a = 1 THEN 'one' ELSE a END FROM t",
            "CASE types TEXT and INT",
        ),
        (
            "SELECT CASE WHEN a = 1 THEN f ELSE b END FROM t",
            "CASE types BOOL and FLOAT",
        ),
        (
            "SELECT COALESCE(s, a) FROM t",
            "COALESCE types TEXT and INT",
        ),
        (
            "SELECT COALESCE(b, f) FROM t",
            "COALESCE types FLOAT and BOOL",
        ),
        ("SELECT LEAST(a, s) FROM t", "LEAST types INT and TEXT"),
        (
            "SELECT GREATEST(f, b) FROM t",
            "GREATEST types BOOL and FLOAT",
        ),
        (
            "SELECT a FROM t UNION ALL SELECT s FROM t",
            "UNION types INT and TEXT",
        ),
        (
            "SELECT f FROM t UNION SELECT b FROM t",
            "UNION types BOOL and FLOAT",
        ),
        (
            "SELECT s FROM t INTERSECT SELECT a FROM t",
            "INTERSECT types TEXT and INT",
        ),
        (
            "SELECT b FROM t EXCEPT SELECT f FROM t",
            "EXCEPT types FLOAT and BOOL",
        ),
        (
            "INSERT INTO t (a) VALUES (1), ('x')",
            "VALUES types INT and TEXT",
        ),
        (
            "INSERT INTO t (b) VALUES (true), (1.5)",
            "VALUES types BOOL and FLOAT",
        ),
        // ABS of a BOOL is a FLOAT, so it does not meet a BOOL either.
        (
            "SELECT ABS(f) FROM t UNION ALL SELECT f FROM t",
            "UNION types FLOAT and BOOL",
        ),
    ];
    for partitions in [1, 2, 4] {
        let d = typed_table(partitions);
        for (sql, words) in statements {
            match d.execute(sql) {
                Err(Error::Plan(m)) => {
                    assert_eq!(m, format!("{words} cannot be matched"), "{sql}")
                }
                other => panic!("{sql}: expected a plan error, got {other:?}"),
            }
        }
        assert_eq!(ints(&d, "SELECT COUNT(*) FROM t"), [3], "no INSERT ran");
    }
}

/// A set operation whose arms are INT and FLOAT is FLOAT, and so is every
/// cell it returns: the INT arm is cast, at every partition count. So is
/// an `INSERT … VALUES` column of INT and FLOAT cells, before the table's
/// own cast.
#[test]
fn a_widening_set_operation_returns_only_floats() {
    for partitions in [1, 2, 4] {
        let d = typed_table(partitions);
        for sql in [
            "SELECT a FROM t UNION ALL SELECT b FROM t",
            "SELECT b FROM t UNION SELECT a FROM t",
            "SELECT a FROM t INTERSECT SELECT b FROM t",
            "SELECT a FROM t EXCEPT SELECT b FROM t",
            "SELECT ABS(f) FROM t UNION ALL SELECT b FROM t",
        ] {
            let mut cells: Vec<String> = (d.query(sql).unwrap().rows().iter())
                .map(|r| format!("{:?}", r[0]))
                .collect();
            assert!(
                cells.iter().all(|c| c.starts_with("Float(") || c == "Null"),
                "{sql}: {cells:?}"
            );
            if sql.starts_with("SELECT a FROM t UNION ALL") {
                cells.sort();
                let want = [
                    "Float(1.0)",
                    "Float(2.0)",
                    "Float(2.5)",
                    "Float(3.0)",
                    "Float(3.0)",
                    "Null",
                ];
                assert_eq!(cells, want, "{partitions} partitions");
            }
        }
        d.execute("INSERT INTO t (a, b) VALUES (4, 1), (5, 4.5)")
            .unwrap();
        let b = d.query("SELECT b FROM t WHERE a >= 4 ORDER BY a").unwrap();
        assert_eq!(format!("{:?}", b.rows()), "[[Float(1.0)], [Float(4.5)]]");
    }
}

/// A bulk load casts each cell to its column's declared type, and one
/// that does not cast fails the load, naming the column, and leaves no
/// table behind.
#[test]
fn a_bulk_load_casts_each_cell_to_its_declared_type() {
    use spinner_engine::{DataType, Field, Schema};
    let d = Database::default();
    let schema = || {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("w", DataType::Float),
        ])
    };
    let row = |k: Value, w: Value| -> Row { vec![k, w].into_boxed_slice() };
    let rows = vec![
        row(Value::Int(1), Value::Int(2)),
        row(Value::from("3"), Value::Null),
    ];
    assert_eq!(
        d.create_table_from_rows("w", schema(), rows, None, Some(0))
            .unwrap(),
        2
    );
    let loaded = d.query("SELECT k, w FROM w ORDER BY k").unwrap();
    assert_eq!(
        format!("{:?}", loaded.rows()),
        "[[Int(1), Float(2.0)], [Int(3), Null]]"
    );
    let bad = vec![
        row(Value::Int(1), Value::Float(0.5)),
        row(Value::from("abc"), Value::Null),
    ];
    let err = d
        .create_table_from_rows("bad", schema(), bad, None, Some(0))
        .unwrap_err();
    assert!(
        matches!(&err, Error::Type(m) if m.contains("column 'k' of table 'bad'") && m.contains("'abc'")),
        "{err}"
    );
    assert!(matches!(
        d.query("SELECT * FROM bad"),
        Err(Error::TableNotFound(_))
    ));
}
