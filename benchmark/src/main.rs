//! `spinbench` — the repo's benchmark.
//!
//! ```text
//! spinbench run   [--workload W] [--seed N] [--seconds S]   end-to-end metrics, tracing off
//! spinbench trace [--workload W] [--seed N] [--seconds S]   per-layer metrics, traced pass
//! spinbench check [--seed N] [--seconds S]                  whole suite twice, compared to the bounds
//! spinbench --workload W --seed N --seconds S --trace 0|1   one workload, as BENCHMARK.json runs it
//! ```
//!
//! Each workload runs in a process of its own (set-up → warm-ups →
//! measured phase → verification) and prints its metrics by name, then one
//! JSON object as the last line of standard output. See `README.md`.

mod api;
mod json;
mod layers;
mod metrics;
mod mix;
mod refspeed;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use metrics::{
    highest_supported_percentile, median, percentile, sorted, unit_of, END_TO_END, PER_LAYER,
};
use workload::{Env, Workload};

/// Measured seconds when `--seconds` is not given; `BENCHMARK.json`
/// records the same value as `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run: `setup_s` is their median, the measured phase runs on
/// the last.
const SETUP_REPS: usize = 3;
/// Counts that must repeat exactly between two runs at one seed.
const EXACT_COUNTS: &[&str] = &[
    "exec.iterations",
    "exec.rows_moved",
    "exec.delta_rows_fed",
    "storage.spill_bytes_written",
    "storage.fsyncs",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// One workload in this process.
    Single {
        trace: bool,
    },
    /// Every workload, each in a child process.
    Suite {
        trace: bool,
    },
    Check,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
}

const USAGE: &str =
    "usage: spinbench [run|trace|check] [--workload pr_full|sssp_delta|pr_durable|serve_mixed] \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace_flag = None;
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            command = Some(first.as_str());
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{USAGE}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace_flag = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let mode = match (command, workload) {
        (None, Some(_)) => Mode::Single {
            trace: trace_flag.unwrap_or(false),
        },
        (None, None) => return Err(format!("--workload is required\n{USAGE}")),
        (Some("check"), None) if trace_flag.is_none() => Mode::Check,
        (Some("check"), _) => {
            return Err(format!(
                "check takes neither --workload nor --trace\n{USAGE}"
            ))
        }
        (Some(cmd @ ("run" | "trace")), _) => {
            let trace = cmd == "trace";
            if trace_flag.is_some_and(|t| t != trace) {
                return Err(format!("--trace contradicts '{cmd}'\n{USAGE}"));
            }
            match workload {
                Some(_) => Mode::Single { trace },
                None => Mode::Suite { trace },
            }
        }
        (Some(other), _) => return Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    Ok(Args {
        mode,
        workload,
        seed,
        seconds,
    })
}

/// `benchmark/`: where `out/` goes and beside which `BENCHMARK.json` lies.
/// `cargo run` exports the manifest directory; a binary started by hand
/// falls back on the directory it was built from.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::Single { trace } => {
            let workload = args.workload.expect("single mode has a workload");
            run_single(workload, trace, args.seed, args.seconds)
        }
        Mode::Suite { trace } => run_suite(trace, args.seed, args.seconds),
        Mode::Check => run_check(args.seed, args.seconds),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("spinbench: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---- one workload, in this process ------------------------------------------

struct RunOutput {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// Plan shape held, the traced pass is trustworthy, nothing failed.
    correct: bool,
}

fn run_single(workload: Workload, trace: bool, seed: u64, seconds: f64) -> Result<bool, String> {
    let spec = api::graph_spec(seed);
    println!(
        "== {}  {}  seed={seed}  seconds={seconds}  partitions={}  dblp x {} ({} nodes, {} edge rows)  cores={} ==",
        workload.name(),
        if trace { "traced pass" } else { "tracing off" },
        api::PARTITIONS,
        api::SCALE,
        spec.nodes,
        spec.edges,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if workload == Workload::PrDurable {
        println!(
            "  flush policy: {}; checkpoint every iteration; spill past {} KiB",
            api::FLUSH_POLICY,
            api::SPILL_THRESHOLD_BYTES >> 10
        );
    }
    let out_dir = benchmark_dir().join("out");
    let (output, names) = if trace {
        (run_traced(workload, seed, seconds, &out_dir)?, PER_LAYER)
    } else {
        (run_untraced(workload, seed, seconds, &out_dir)?, END_TO_END)
    };
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = output
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok((
                *name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let line = Json::obj([
        ("correct", Json::Bool(output.correct)),
        ("attempted", Json::Num(output.attempted as f64)),
        ("failed", Json::Num(output.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(output.correct)
}

fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<RunOutput, String> {
    // Set up several times and keep the last: `setup_s` is the median, so
    // one slow page-cache or allocator warm-up does not decide it. Like the
    // measured phase, each set-up is stated at the box's nominal speed.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    let mut probe_before = refspeed::probe_ms(1);
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let scratch = out_dir.join(format!(
            "spill_{}_{}_{rep}",
            workload.name(),
            std::process::id()
        ));
        let t = Instant::now();
        env = Some(Env::setup(workload, seed, &scratch)?);
        let wall_s = t.elapsed().as_secs_f64();
        let probe_after = refspeed::probe_ms(1);
        setups.push(wall_s * refspeed::scale(1, probe_before, probe_after));
        probe_before = probe_after;
    }
    let env = env.expect("SETUP_REPS is at least 1");
    let samples = workload::run_measured(&env, seed, seconds)?;
    drop(env);

    if samples.loop_ms.is_empty() || samples.point_ms.is_empty() {
        return Err(format!(
            "no verified statement of one class completed ({} attempted, {} failed): {}",
            samples.attempted,
            samples.failed,
            samples.first_failure.as_deref().unwrap_or("run too short")
        ));
    }
    let loop_ms = sorted(samples.loop_ms);
    let point_ms = sorted(samples.point_ms);
    let verified = (samples.attempted - samples.failed) as f64;
    let metrics = vec![
        ("setup_s", median(&setups)),
        ("query_ms_p50", percentile(&loop_ms, 50.0)),
        ("query_ms_p75", percentile(&loop_ms, 75.0)),
        ("point_ms_p50", percentile(&point_ms, 50.0)),
        ("point_ms_p90", percentile(&point_ms, 90.0)),
        ("stmts_per_s", verified / samples.measured_s),
        ("peak_rss_mb", metrics::peak_rss_mib()),
    ];

    let supports = |n: usize| match highest_supported_percentile(n) {
        Some(p) => format!("n={n}, enough for p{p}"),
        None => format!("n={n}, too few even for p50"),
    };
    for (name, value) in &metrics {
        let note = match *name {
            "setup_s" => format!("median of {SETUP_REPS} set-ups"),
            "query_ms_p50" | "query_ms_p75" => supports(loop_ms.len()),
            "point_ms_p50" | "point_ms_p90" => supports(point_ms.len()),
            "stmts_per_s" => format!(
                "{verified} verified statements in {:.2} s of closed loop, {}",
                samples.measured_s,
                if workload == Workload::ServeMixed {
                    "2 clients"
                } else {
                    "1 client"
                }
            ),
            _ => "VmHWM at exit".to_string(),
        };
        println!(
            "  {name:<14} {value:>12.4} {:<4} ({note})",
            unit_of(END_TO_END, name)
        );
    }
    println!(
        "  box speed      {:>12.4}      (of nominal; the rounds took {:.2} s on the wall clock)",
        samples.measured_s / samples.wall_s,
        samples.wall_s
    );
    println!(
        "  failed_share   {:>12.6}      ({} failed of {} attempted)",
        samples.failed as f64 / samples.attempted as f64,
        samples.failed,
        samples.attempted
    );
    if let Some(failure) = &samples.first_failure {
        eprintln!("spinbench: first failure: {failure}");
    }
    Ok(RunOutput {
        metrics,
        attempted: samples.attempted,
        failed: samples.failed,
        correct: samples.failed == 0,
    })
}

fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<RunOutput, String> {
    let traced = layers::run_traced(workload, seed, seconds, out_dir)?;
    for (name, unit) in PER_LAYER {
        if let Some((_, value)) = traced.metrics.iter().find(|(n, _)| n == name) {
            println!("  {name:<36} {value:>16.4} {unit}");
        }
    }
    print!("{}", traced.report);
    for problem in &traced.problems {
        eprintln!("spinbench: {problem}");
    }
    if let Some(failure) = &traced.first_failure {
        eprintln!("spinbench: first failure: {failure}");
    }
    Ok(RunOutput {
        metrics: traced.metrics,
        attempted: traced.attempted,
        failed: traced.failed,
        correct: traced.failed == 0 && traced.problems.is_empty(),
    })
}

// ---- the suite: one child process per workload --------------------------------

/// Run one workload in a child process, passing its output through, and
/// return its result line.
fn run_child(workload: Workload, trace: bool, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = Json::parse(last)
        .map_err(|e| format!("{} printed no result line ({e})", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    Ok(parsed)
}

fn run_suite(trace: bool, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all_ok = true;
    for workload in Workload::ALL {
        match run_child(workload, trace, seed, seconds) {
            Ok(_) => {}
            Err(message) => {
                eprintln!("spinbench: {message}");
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

// ---- check: the suite twice, against the bounds ---------------------------------

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line lacks {name}"))
}

/// `(name, bound)` of every end-to-end metric, from `BENCHMARK.json`: the
/// bounds live in one place.
fn read_bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
        })
        .collect()
}

fn run_check(seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = read_bounds(&benchmark_dir().join("../BENCHMARK.json"))?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _pass in 0..2 {
        for workload in Workload::ALL {
            untraced.push(run_child(workload, false, seed, seconds)?);
            traced.push(run_child(workload, true, seed, seconds)?);
        }
    }
    let n = Workload::ALL.len();
    let mut all_ok = true;
    println!();
    println!("check: seed={seed} seconds={seconds}; every workload run twice, tracing off");
    println!(
        "| workload | metric | run 1 | run 2 | difference | bound | |\n|---|---|---:|---:|---:|---:|---|"
    );
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        for (name, bound) in &bounds {
            let a = metric_value(&untraced[i], name)?;
            let b = metric_value(&untraced[n + i], name)?;
            let diff = (b - a) / a;
            let ok = diff.abs() <= *bound;
            all_ok &= ok;
            println!(
                "| {} | {name} | {a:.4} | {b:.4} | {:+.2} % | {:.0} % | {} |",
                workload.name(),
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    println!();
    println!("check: single-client counts of the traced pass, which must repeat exactly");
    println!("| workload | count | run 1 | run 2 | |\n|---|---|---:|---:|---|");
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        for name in EXACT_COUNTS {
            let a = metric_value(&traced[i], name)?;
            let b = metric_value(&traced[n + i], name)?;
            let ok = a == b;
            all_ok &= ok;
            println!(
                "| {} | {name} | {a} | {b} | {} |",
                workload.name(),
                if ok { "ok" } else { "DIFFERS" }
            );
        }
    }
    let all_correct = untraced
        .iter()
        .chain(&traced)
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    println!();
    println!(
        "check: {}",
        if all_ok && all_correct {
            "every metric within its bound, every count identical, every output verified"
        } else {
            "FAILED"
        }
    );
    Ok(all_ok && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn driver_form_selects_one_workload() {
        let args = parse("--workload sssp_delta --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.mode, Mode::Single { trace: true });
        assert_eq!(args.workload, Some(Workload::SsspDelta));
        assert_eq!((args.seed, args.seconds), (7, 3.0));
    }

    #[test]
    fn commands_select_suite_single_or_check() {
        assert_eq!(parse("run").unwrap().mode, Mode::Suite { trace: false });
        assert_eq!(
            parse("trace --seed 2").unwrap().mode,
            Mode::Suite { trace: true }
        );
        assert_eq!(
            parse("trace --workload pr_full").unwrap().mode,
            Mode::Single { trace: true }
        );
        assert_eq!(parse("check --seconds 5").unwrap().mode, Mode::Check);
        assert_eq!(parse("run").unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "bench",
            "run --workload nope",
            "run --seconds 0",
            "run --seconds x",
            "run --trace 1",
            "check --workload pr_full",
            "--workload pr_full --trace 2",
            "--workload pr_full --seed",
            "run --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `BENCHMARK.json` and the harness name the same workloads, metrics,
    /// units and run length: the file is what the driver reads, the tables
    /// are what the harness prints.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let bounds = read_bounds(&path).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name));
        }
    }
}
