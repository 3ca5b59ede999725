//! One-shot reproduction of the paper's evaluation (§VII): Table I and
//! Figures 8–11. Prints the same series the paper plots, plus the
//! engine's internal counters, and the measured improvement percentages.
//!
//! ```sh
//! cargo run --release -p spinner-bench --bin repro            # everything
//! cargo run --release -p spinner-bench --bin repro -- fig8    # one artifact
//! ```
//!
//! Artifacts: `table1`, `fig8`, `fig9`, `fig10`, `fig11`, and `all` (the
//! five in order, the default). Timings are min-of-5 wall clock; the
//! repo's performance numbers come from spinbench (`benchmark/`), and its
//! pass/fail gates from the test suites.

use std::time::{Duration, Instant};

use spinner_bench::{setup_db, BenchDataset, ITERATIONS};
use spinner_engine::{Database, EngineConfig, Result};
use spinner_procedural::{ff, pagerank, run_script, sssp, ProcedureScript};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let result = match which.as_str() {
        "table1" => table1(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "all" => table1()
            .and_then(|()| fig8())
            .and_then(|()| fig9())
            .and_then(|()| fig10())
            .and_then(|()| fig11()),
        other => {
            eprintln!("repro: unknown artifact '{other}'; use table1|fig8|fig9|fig10|fig11|all");
            std::process::exit(1);
        }
    };
    if let Err(e) = result {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
}

/// Minimum-of-five wall-clock timing of a query. The minimum is the
/// robust statistic under VM scheduling jitter: every sample includes the
/// true work, noise only ever adds.
fn time_query(db: &Database, sql: &str) -> Result<Duration> {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            db.query(sql)?;
            Ok(t.elapsed())
        })
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .min()
        .ok_or_else(|| spinner_engine::Error::execution("no timing samples"))
}

fn time_script(db: &Database, script: &ProcedureScript) -> Result<Duration> {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            run_script(db, script)?;
            Ok(t.elapsed())
        })
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .min()
        .ok_or_else(|| spinner_engine::Error::execution("no timing samples"))
}

fn improvement(baseline: Duration, optimized: Duration) -> f64 {
    100.0 * (baseline.as_secs_f64() - optimized.as_secs_f64()) / baseline.as_secs_f64()
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Table I: the logical plan of the PR query.
fn table1() -> Result<()> {
    header("Table I — logical plan of the PR query");
    let db = Database::default();
    db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")?;
    let text = db.explain(&pagerank(10, false).cte)?;
    println!("{text}");
    Ok(())
}

/// Figure 8: minimizing data movement (rename vs merge-back baseline).
fn fig8() -> Result<()> {
    header("Figure 8 — minimizing data movement (25 iterations)");
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>9}  {:>12} {:>12}",
        "query", "dataset", "baseline", "rename-opt", "gain", "moved(base)", "moved(opt)"
    );
    for dataset in [BenchDataset::DblpLike, BenchDataset::PokecLike] {
        for (qname, sql) in [
            ("FF", ff(ITERATIONS, 10).cte),
            ("PR", pagerank(ITERATIONS, false).cte),
        ] {
            let base_db = setup_db(
                dataset,
                EngineConfig::default().with_minimize_data_movement(false),
                false,
            );
            let opt_db = setup_db(dataset, EngineConfig::default(), false);
            let base = time_query(&base_db, &sql)?;
            // Stats are per-statement (reset at entry), so this snapshot
            // covers exactly the last of the five timed runs.
            let base_stats = base_db.take_stats();
            let opt = time_query(&opt_db, &sql)?;
            let opt_stats = opt_db.take_stats();
            println!(
                "{:<10} {:<12} {:>14.2?} {:>14.2?} {:>8.1}%  {:>12} {:>12}",
                qname,
                dataset.label(),
                base,
                opt,
                improvement(base, opt),
                base_stats.rows_moved,
                opt_stats.rows_moved,
            );
        }
    }
    println!("(paper: up to 48% for FF; small gain for PR)");
    Ok(())
}

/// Figure 9: common result optimization on PR-VS / SSSP-VS.
fn fig9() -> Result<()> {
    header("Figure 9 — common result optimization (25 iterations)");
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>9}",
        "query", "dataset", "baseline", "common-opt", "gain"
    );
    for dataset in [BenchDataset::DblpLike, BenchDataset::PokecLike] {
        for (qname, sql) in [
            ("PR-VS", pagerank(ITERATIONS, true).cte),
            ("SSSP-VS", sssp(ITERATIONS, 1, true).cte),
        ] {
            let base_db = setup_db(
                dataset,
                EngineConfig::default().with_common_result(false),
                true,
            );
            let opt_db = setup_db(dataset, EngineConfig::default(), true);
            let base = time_query(&base_db, &sql)?;
            let opt = time_query(&opt_db, &sql)?;
            println!(
                "{:<10} {:<12} {:>14.2?} {:>14.2?} {:>8.1}%",
                qname,
                dataset.label(),
                base,
                opt,
                improvement(base, opt),
            );
        }
    }
    println!("(paper: ~20% on DBLP, ~10% on Pokec, same pattern for both queries)");
    Ok(())
}

/// Figure 10: predicate push-down at varying selectivity.
fn fig10() -> Result<()> {
    header("Figure 10 — predicate push-down, FF, 25 iterations");
    println!(
        "{:<14} {:>14} {:>14} {:>9}",
        "selectivity", "baseline", "pushdown", "speedup"
    );
    for mod_x in [2i64, 10, 50, 100] {
        let sql = ff(ITERATIONS, mod_x).cte;
        let base_db = setup_db(
            BenchDataset::DblpLike,
            EngineConfig::default().with_predicate_pushdown(false),
            false,
        );
        let opt_db = setup_db(BenchDataset::DblpLike, EngineConfig::default(), false);
        let base = time_query(&base_db, &sql)?;
        let opt = time_query(&opt_db, &sql)?;
        println!(
            "{:<14} {:>14.2?} {:>14.2?} {:>8.1}x",
            format!("1/{mod_x}"),
            base,
            opt,
            base.as_secs_f64() / opt.as_secs_f64(),
        );
    }
    println!("(paper: baseline flat in selectivity; >10x at high selectivity)");
    Ok(())
}

/// Figure 11: iterative CTEs vs stored procedures vs middleware.
fn fig11() -> Result<()> {
    header("Figure 11 — CTEs vs stored procedures (25 iterations, dblp-like)");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "query", "cte", "procedure", "middleware", "vs proc", "vs middlew"
    );
    let workloads = [
        ("PR-VS", pagerank(ITERATIONS, true), true),
        ("SSSP-VS", sssp(ITERATIONS, 1, true), true),
        ("FF-50%", ff(ITERATIONS, 2), false),
    ];
    for (name, w, with_vs) in workloads {
        let db = setup_db(BenchDataset::DblpLike, EngineConfig::default(), with_vs);
        let cte = time_query(&db, &w.cte)?;
        let procedure = time_script(&db, &w.procedure)?;
        let middleware = time_script(&db, &w.middleware)?;
        println!(
            "{:<10} {:>14.2?} {:>14.2?} {:>14.2?} {:>11.1}% {:>11.1}%",
            name,
            cte,
            procedure,
            middleware,
            improvement(procedure, cte),
            improvement(middleware, cte),
        );
    }
    println!("(paper: CTE ≥25% faster than procedures for PR/SSSP, ~80% for FF)");
    Ok(())
}
