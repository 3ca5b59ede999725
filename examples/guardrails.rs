//! Query guardrails demo: cancellation, timeouts, resource budgets,
//! panic isolation and deterministic fault injection, all driven
//! through the public `spinner_engine` API.
//!
//! ```sh
//! cargo run --release --example guardrails
//! ```
//!
//! Every scenario is expected to fail *cleanly* — a typed error, nothing
//! left tracked by the memory accountant, and a `Database` that keeps
//! answering queries. The example exits non-zero if any expectation is broken.

use std::sync::Arc;
use std::time::Duration;

use spinner_engine::{
    Database, EngineConfig, Error, FaultConfig, FaultKind, FaultSite, QueryGuard,
};
use spinner_procedural::pagerank;

const CTE: &str = "WITH ITERATIVE t (k, v) AS (
     SELECT src, 0 FROM edges
 ITERATE SELECT k, v + 1 FROM t
 UNTIL 50 ITERATIONS)
 SELECT * FROM t";

fn db_with_edges(config: EngineConfig) -> Database {
    let db = Database::new(config).expect("demo config is valid");
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1,2,1.0), (2,3,1.0), (3,4,1.0), (1,3,5.0), (4,1,1.0)")
        .unwrap();
    db
}

/// Run a statement that trips a guardrail, checking that it leaves the
/// memory accountant tracking what it tracked before (regions and resident
/// bytes; both 0 without a spill threshold) and the `Database` answering
/// the next query.
fn fails_cleanly<T>(db: &Database, statement: impl FnOnce() -> T) -> T {
    let tracked = || (db.tracked_region_count(), db.resident_tracked_bytes());
    let before = tracked();
    let out = statement();
    assert_eq!(tracked(), before, "the statement left tracked state behind");
    db.query("SELECT COUNT(*) FROM edges")
        .expect("database must stay usable after a guard trip");
    out
}

fn main() {
    // 1. Wall-clock deadline. A seeded always-fire 10 ms delay per loop
    //    iteration makes a 50 ms deadline trip mid-PageRank.
    let db = db_with_edges(EngineConfig::default().with_fault(FaultConfig::seeded(
        FaultSite::LoopIteration,
        FaultKind::DelayMs(10),
        1,
        1_000_000,
    )));
    let guard = QueryGuard::unlimited().with_timeout_ms(50);
    match fails_cleanly(&db, || {
        db.query_with_guard(&pagerank(200, false).cte, &guard)
    }) {
        Err(Error::Timeout {
            elapsed_ms,
            limit_ms,
        }) => println!("deadline:     Timeout after {elapsed_ms} ms (limit {limit_ms} ms)"),
        other => panic!("expected Timeout, got {other:?}"),
    }
    let iterations = db.take_stats().iterations;
    assert!(iterations < 200, "deadline must stop the loop early");
    println!("              stopped after {iterations}/200 iterations, nothing left tracked");

    // 2. Cross-thread cancellation via the shared guard token.
    let db = db_with_edges(EngineConfig::default().with_fault(FaultConfig::seeded(
        FaultSite::LoopIteration,
        FaultKind::DelayMs(5),
        2,
        1_000_000,
    )));
    let guard = Arc::new(QueryGuard::unlimited());
    let canceller = {
        let guard = Arc::clone(&guard);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            guard.cancel();
        })
    };
    match fails_cleanly(&db, || db.query_with_guard(CTE, &guard)) {
        Err(Error::Cancelled) => println!("cancel:       Cancelled from another thread"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    canceller.join().unwrap();

    // 3. Resource budget: cap materialized rows far below what the
    //    iteration needs; the error reports actual usage.
    let db = db_with_edges(EngineConfig::default());
    let guard = QueryGuard::unlimited().with_max_rows_materialized(10);
    match fails_cleanly(&db, || db.query_with_guard(CTE, &guard)) {
        Err(Error::ResourceExhausted {
            resource,
            used,
            limit,
        }) => {
            assert!(used >= limit);
            println!("budget:       ResourceExhausted({resource}: used {used}, limit {limit})");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }

    // 4. Panic isolation: a worker panic in a parallel partition run is
    //    caught, typed, and leaves the process (and Database) alive.
    let mut db = db_with_edges(EngineConfig::default().with_parallel_partitions(true));
    db.set_config(
        EngineConfig::default()
            .with_parallel_partitions(true)
            .with_fault(FaultConfig::panic_nth(FaultSite::Worker, 1)),
    )
    .unwrap();
    match fails_cleanly(&db, || db.query(CTE)) {
        Err(Error::WorkerPanicked { partition, message }) => {
            println!("panic:        WorkerPanicked(partition {partition}: {message:?})");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    db.query(CTE).expect("one-shot fault: retry must succeed");
    println!("              process alive, retry succeeded");

    // 5. Deterministic fault injection: fail the first materialize step,
    //    then retry — the one-shot trigger has been consumed.
    let mut db = db_with_edges(EngineConfig::default());
    db.set_config(
        EngineConfig::default().with_fault(FaultConfig::fail_nth(FaultSite::Materialize, 1)),
    )
    .unwrap();
    match fails_cleanly(&db, || db.query(CTE)) {
        Err(Error::FaultInjected { site }) => println!("chaos:        FaultInjected(site {site})"),
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    db.query(CTE).expect("retry after one-shot fault");
    println!("              nothing left tracked, retry succeeded");

    println!("\nall guardrails held.");
}
