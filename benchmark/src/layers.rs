//! The traced pass: per-layer metrics of one workload.
//!
//! Everything is measured from outside the engine: by timing calls into
//! each crate's public functions, by reading the `QueryProfile` that
//! `EXPLAIN ANALYZE` returns, and by reading counter snapshots after an
//! untraced statement. End-to-end metrics are never taken here; the
//! difference between traced and untraced statements is reported as
//! `trace.overhead_pct`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::api::{self, Connection, Counts, FrontEnd, QueryProfile};
use crate::metrics::{median, percentile, sorted};
use crate::mix::{PointStmt, Rng, AGGREGATE_MAX_BOUND};
use crate::refspeed;
use crate::trace::{group_of_label, ExecBreakdown, Group, Recorder};
use crate::workload::{matches, run_measured, Env, Workload};

/// Calls per statement for the parse/plan/optimize/lower medians.
const FRONT_END_REPS: usize = 200;
const CONNECT_REPS: usize = 20;
const CODEC_REPS: usize = 200;
const CHECKPOINT_REPS: usize = 5;
/// Point lookups probed per cycle: in process, traced and, where the
/// workload serves, over TCP.
const POINT_PROBES_PER_CYCLE: usize = 20;
/// Share of `--seconds` that `serve_mixed` spends on single-statement
/// probes; the rest is a concurrent run for the admission figures.
const SERVE_PROBE_SHARE: f64 = 0.6;

pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    /// Share tables and count spreads, for people.
    pub report: String,
    /// Reasons the pass is not trustworthy (unknown operator labels, a
    /// count that did not repeat); non-empty fails the run.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct FrontEndMedians {
    parse_us: f64,
    plan_us: f64,
    optimize_us: f64,
    lower_us: f64,
    last: FrontEnd,
}

fn front_end_medians(
    env: &Env,
    sql: &str,
    rec: &mut Recorder,
    problems: &mut Vec<String>,
) -> Result<FrontEndMedians, String> {
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut last = FrontEnd::default();
    for _ in 0..FRONT_END_REPS {
        let stmt = rec.next_statement();
        let mut at = Instant::now();
        let fe = api::front_end(&env.db, sql)?;
        let spans = [
            ("parser.parse_sql", fe.parse),
            ("plan.plan_statement", fe.plan),
            ("optimizer.optimize_statement", fe.optimize),
            ("exec.create_physical_plan", fe.lower),
        ];
        // The stages run back to back inside `front_end`.
        for (samples, (name, elapsed)) in stages.iter_mut().zip(spans) {
            rec.record(name, None, stmt, at, elapsed);
            at += elapsed;
            samples.push(us(elapsed));
        }
        last = fe;
    }
    for label in &last.operator_labels {
        if group_of_label(label) == Group::Other {
            problems.push(format!("operator label not in any exec group: {label}"));
        }
    }
    Ok(FrontEndMedians {
        parse_us: median(&stages[0]),
        plan_us: median(&stages[1]),
        optimize_us: median(&stages[2]),
        lower_us: median(&stages[3]),
        last,
    })
}

/// `EXPLAIN ANALYZE` samples of one statement class.
#[derive(Default)]
struct TracedSamples {
    wall_us: Vec<f64>,
    profile_total_us: Vec<f64>,
    /// Wall minus the profile's own total: what the engine spends around
    /// the executor.
    around_exec_us: Vec<f64>,
}

impl TracedSamples {
    /// Run `sql` under `EXPLAIN ANALYZE`, record the call and its
    /// flattened profile as spans of `stmt`, and keep the timings.
    fn run(
        &mut self,
        env: &Env,
        sql: &str,
        rec: &mut Recorder,
        stmt: u64,
    ) -> Result<QueryProfile, String> {
        let at = Instant::now();
        let (elapsed, profile) = api::explain_analyze(&env.db, sql);
        let profile = profile?;
        let call = rec.record("engine.explain_analyze", None, stmt, at, elapsed);
        rec.flatten_profile(&profile, call, stmt);
        self.wall_us.push(us(elapsed));
        self.profile_total_us.push(profile.total_elapsed_us as f64);
        self.around_exec_us
            .push(us(elapsed) - profile.total_elapsed_us as f64);
        Ok(profile)
    }
}

pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Traced, String> {
    let pid = std::process::id();
    let env = Env::setup(
        workload,
        seed,
        &out_dir.join(format!("spill_{}_{pid}_trace", workload.name())),
    )?;
    let mut rec = Recorder::new();
    let mut problems = Vec::new();
    let mut rng = Rng::new(seed ^ 0x7ACE);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_failure: Option<String> = None;
    let mut verify = |ok: bool, what: &str| {
        attempted += 1;
        if !ok {
            failed += 1;
            first_failure.get_or_insert_with(|| format!("{what} returned a wrong answer"));
        }
    };

    // Front end of both statement classes, a fixed number of calls.
    let loop_fe = front_end_medians(&env, &env.loop_sql, &mut rec, &mut problems)?;
    let first_lookup = PointStmt::Lookup {
        src: rng.range(1, env.nodes as i64),
    };
    let point_fe = front_end_medians(&env, &first_lookup.sql(), &mut rec, &mut problems)?;

    // Checkpoint codec with the full flush protocol.
    let probe_dir = out_dir.join(format!("ckpt_probe_{pid}"));
    let checkpoint = api::checkpoint_probe(&env.db, &probe_dir, CHECKPOINT_REPS);
    let _ = std::fs::remove_dir_all(&probe_dir);
    let checkpoint = checkpoint?;

    // Wire protocol, on the workload that serves. The batch workloads have
    // no server on their path: their `server.*` metrics read 0.
    let mut connects = Vec::with_capacity(CONNECT_REPS);
    let mut codec = (Duration::ZERO, Duration::ZERO);
    let mut connection = None;
    if let Some(served) = &env.served {
        for _ in 0..CONNECT_REPS {
            let at = Instant::now();
            let (elapsed, connection) = Connection::open(served.addr())?;
            let stmt = rec.next_statement();
            rec.record("server.connect", None, stmt, at, elapsed);
            connects.push(us(elapsed));
            connection.close();
        }
        // The codec is probed on the largest reply of the point class.
        let widest = PointStmt::Aggregate {
            bound: AGGREGATE_MAX_BOUND,
        };
        codec = api::wire_codec_probe(&env.db, &widest.sql(), CODEC_REPS)?;
        connection = Some(Connection::open(served.addr())?.1);
    }

    // Timed part: untraced and traced statements, alternating.
    let probe_seconds = match workload {
        Workload::ServeMixed => seconds * SERVE_PROBE_SHARE,
        _ => seconds,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(probe_seconds);
    let mut loop_traced = TracedSamples::default();
    let mut loop_untraced_us = Vec::new();
    let mut loop_counts: Vec<Counts> = Vec::new();
    let mut breakdowns = Vec::new();
    let mut point_traced = TracedSamples::default();
    let mut point_local_us = Vec::new();
    let mut point_remote_us = Vec::new();
    let mut speeds = Vec::new();
    while Instant::now() < deadline || breakdowns.is_empty() {
        let probe = refspeed::probe_ms(1);
        speeds.push(refspeed::scale(1, probe, probe));
        let stmt = rec.next_statement();
        let at = Instant::now();
        let (elapsed, got) = api::query(&env.db, &env.loop_sql);
        rec.record("engine.query", None, stmt, at, elapsed);
        verify(
            matches(&got, &env.loop_expected, true),
            "iterative statement",
        );
        loop_untraced_us.push(us(elapsed));
        loop_counts.push(api::take_counts(&env.db));

        let stmt = rec.next_statement();
        let profile = loop_traced.run(&env, &env.loop_sql, &mut rec, stmt)?;
        breakdowns.push(ExecBreakdown::of(&profile));

        for _ in 0..POINT_PROBES_PER_CYCLE {
            let lookup = PointStmt::Lookup {
                src: rng.range(1, env.nodes as i64),
            };
            let sql = lookup.sql();
            let want = env.index.expected(&lookup);
            let stmt = rec.next_statement();

            let at = Instant::now();
            let (elapsed, got) = api::execute(&env.db, &sql);
            rec.record("engine.execute", None, stmt, at, elapsed);
            verify(matches(&got, &want, false), "in-process lookup");
            point_local_us.push(us(elapsed));

            point_traced.run(&env, &sql, &mut rec, stmt)?;

            if let Some(connection) = &mut connection {
                let at = Instant::now();
                let (elapsed, got) = connection.execute(&sql);
                rec.record("server.client_query", None, stmt, at, elapsed);
                verify(matches(&got, &want, false), "lookup over TCP");
                point_remote_us.push(us(elapsed));
            }
        }
    }
    if let Some(connection) = connection {
        connection.close();
    }

    // `serve_mixed` only: the concurrent mix, for what admission saw.
    if workload == Workload::ServeMixed {
        let mixed = run_measured(&env, seed, seconds - probe_seconds)?;
        attempted += mixed.attempted;
        failed += mixed.failed;
        first_failure = first_failure.or(mixed.first_failure);
    }
    let admission = api::admission_counts(&env.db);

    for b in &breakdowns {
        for label in &b.unknown_labels {
            let problem = format!("profile span not in any exec group: {label}");
            if !problems.contains(&problem) {
                problems.push(problem);
            }
        }
    }
    let counts = loop_counts[0];
    let counts_repeat = loop_counts.iter().all(|c| *c == counts);
    if !counts_repeat {
        problems.push(
            "single-client counters of the iterative statement did not repeat exactly".into(),
        );
    }

    let field = |f: fn(&ExecBreakdown) -> u64| {
        median(&breakdowns.iter().map(|b| f(b) as f64).collect::<Vec<_>>())
    };
    let execute_us = median(&loop_untraced_us);
    let traced_us = median(&loop_traced.wall_us);
    let exec_total_us = median(&loop_traced.profile_total_us);
    let front_us = loop_fe.parse_us + loop_fe.plan_us + loop_fe.optimize_us;
    let overhead_us = median(&loop_traced.around_exec_us) - front_us;
    let point_front_us = point_fe.parse_us + point_fe.plan_us + point_fe.optimize_us;
    let point_execute_us = median(&point_local_us);
    let point_exec_us = median(&point_traced.profile_total_us);
    let point_overhead_us = median(&point_traced.around_exec_us) - point_front_us;
    // What a point lookup costs its client: the round trip where the
    // workload serves, the in-process call elsewhere.
    let served = !point_remote_us.is_empty();
    let point_client_us = if served {
        median(&point_remote_us)
    } else {
        point_execute_us
    };
    let roundtrip_overhead_us = point_client_us - point_execute_us;
    let or_zero = |samples: &[f64], stat: fn(&[f64]) -> f64| {
        if samples.is_empty() {
            0.0
        } else {
            stat(samples)
        }
    };
    let reuse_total = counts.join_builds + counts.join_builds_reused;
    let mib = |bytes: u64, d: Duration| bytes as f64 / (1 << 20) as f64 / d.as_secs_f64();

    let trace_path = out_dir.join(format!("trace_{}.json", workload.name()));
    rec.write(&trace_path, workload.name(), seed)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    // Self times by operator group: metrics and rows of the share table.
    let exec_self: [(&'static str, f64); 7] = [
        ("exec.join_us", field(|b| b.join_us)),
        ("exec.aggregate_us", field(|b| b.aggregate_us)),
        ("exec.exchange_us", field(|b| b.exchange_us)),
        ("exec.scan_us", field(|b| b.scan_us)),
        ("exec.rowops_us", field(|b| b.rowops_us)),
        ("exec.step_us", field(|b| b.step_us)),
        ("exec.return_us", field(|b| b.return_us)),
    ];
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("parser.parse_us", loop_fe.parse_us),
        ("parser.point_parse_us", point_fe.parse_us),
        ("plan.plan_us", loop_fe.plan_us),
        ("plan.point_plan_us", point_fe.plan_us),
        ("plan.steps", loop_fe.last.steps as f64),
        ("optimizer.optimize_us", loop_fe.optimize_us),
        ("optimizer.point_optimize_us", point_fe.optimize_us),
        ("optimizer.semi_naive_loops", counts.semi_naive_loops as f64),
        (
            "optimizer.common_results",
            loop_fe.last.common_results as f64,
        ),
        ("exec.lower_us", loop_fe.lower_us),
        ("exec.total_us", exec_total_us),
        ("exec.point_us", point_exec_us),
        ("exec.loop_us", field(|b| b.loop_us)),
        ("exec.iter_first_us", field(|b| b.iter_first_us)),
        ("exec.iter_last_us", field(|b| b.iter_last_us)),
        ("exec.iterations", counts.iterations as f64),
        ("exec.rows_moved", counts.rows_moved as f64),
        ("exec.rows_broadcast", counts.rows_broadcast as f64),
        ("exec.rows_materialized", counts.rows_materialized as f64),
        ("exec.joins_executed", counts.joins_executed as f64),
        ("exec.join_builds", counts.join_builds as f64),
        ("exec.join_builds_reused", counts.join_builds_reused as f64),
        (
            "exec.join_reuse_ratio",
            if reuse_total == 0 {
                0.0
            } else {
                counts.join_builds_reused as f64 / reuse_total as f64
            },
        ),
        ("exec.delta_rows_fed", counts.delta_rows_fed as f64),
        ("exec.delta_rows_emitted", counts.delta_rows_emitted as f64),
        (
            "exec.merge_rows_examined",
            counts.merge_rows_examined as f64,
        ),
        ("exec.renames", counts.renames as f64),
        ("exec.merges", counts.merges as f64),
        ("exec.pool_tasks", counts.pool_tasks as f64),
        ("exec.threads_spawned", counts.threads_spawned as f64),
        ("storage.load_rows_per_s", env.load_rows_per_s),
        ("storage.checkpoints_taken", counts.checkpoints_taken as f64),
        ("storage.checkpoint_bytes", counts.checkpoint_bytes as f64),
        (
            "storage.spill_bytes_written",
            counts.spill_bytes_written as f64,
        ),
        ("storage.spill_bytes_read", counts.spill_bytes_read as f64),
        ("storage.fsyncs", counts.fsyncs as f64),
        ("storage.epochs", counts.epochs as f64),
        (
            "storage.bytes_written_per_user_byte",
            checkpoint.file_bytes as f64 / checkpoint.user_bytes as f64,
        ),
        (
            "storage.ckpt_write_mb_per_s",
            mib(checkpoint.file_bytes, checkpoint.write),
        ),
        (
            "storage.ckpt_read_mb_per_s",
            mib(checkpoint.file_bytes, checkpoint.read),
        ),
        ("engine.execute_us", execute_us),
        ("engine.overhead_us", overhead_us),
        ("engine.point_execute_us", point_execute_us),
        ("engine.point_overhead_us", point_overhead_us),
        ("server.roundtrip_overhead_us", roundtrip_overhead_us),
        ("server.encode_rows_us", us(codec.0)),
        ("server.decode_rows_us", us(codec.1)),
        ("server.connect_us", or_zero(&connects, median)),
        (
            "server.point_ms_p99",
            or_zero(&point_remote_us, |s| {
                percentile(&sorted(s.to_vec()), 99.0) / 1e3
            }),
        ),
        ("common.admission_admitted", admission.admitted as f64),
        ("common.admission_shed", admission.shed as f64),
        (
            "common.admission_peak_queue_depth",
            admission.peak_queue_depth as f64,
        ),
        (
            "common.peak_tracked_bytes",
            counts.peak_tracked_bytes as f64,
        ),
        ("datagen.generate_s", env.generate.as_secs_f64()),
        ("datagen.oracle_s", env.oracle.as_secs_f64()),
        (
            "trace.overhead_pct",
            (traced_us - execute_us) / execute_us * 100.0,
        ),
    ];
    metrics.extend(exec_self);

    // Share tables: layer self time over statement time.
    let mut report = String::new();
    let pct = |part: f64, whole: f64| part / whole * 100.0;
    let _ = writeln!(
        report,
        "  iterative statement, traced wall {traced_us:.0} us (n={}), untraced {execute_us:.0} us",
        loop_traced.wall_us.len()
    );
    let loop_rows = [
        ("parser", loop_fe.parse_us),
        ("plan", loop_fe.plan_us),
        ("optimizer", loop_fe.optimize_us),
    ]
    .into_iter()
    .chain(exec_self.map(|(name, self_us)| (name.trim_end_matches("_us"), self_us)))
    .chain([("engine (around exec)", overhead_us)]);
    for (layer, self_us) in loop_rows {
        let _ = writeln!(
            report,
            "    {layer:<22} {self_us:>12.1} us  {:>6.2} %",
            pct(self_us, traced_us)
        );
    }
    let _ = writeln!(
        report,
        "    exec share {:.2} %, front end (parser+plan+optimizer+engine) {:.3} %, \
         stages / untraced statement {:.3}",
        pct(exec_total_us, traced_us),
        pct(front_us + overhead_us, traced_us),
        (front_us + exec_total_us) / execute_us,
    );
    let _ = if served {
        writeln!(
            report,
            "  point lookup over TCP, {point_client_us:.0} us (n={}), in process {point_execute_us:.0} us",
            point_remote_us.len()
        )
    } else {
        writeln!(
            report,
            "  point lookup in process, {point_execute_us:.0} us (n={})",
            point_local_us.len()
        )
    };
    for (layer, self_us) in [
        ("parser", point_fe.parse_us),
        ("plan", point_fe.plan_us),
        ("optimizer", point_fe.optimize_us),
        ("exec", point_exec_us),
        ("engine (around exec)", point_overhead_us),
        ("server (round trip)", roundtrip_overhead_us),
    ] {
        let _ = writeln!(
            report,
            "    {layer:<22} {self_us:>12.1} us  {:>6.2} %",
            pct(self_us, point_client_us)
        );
    }
    let _ = writeln!(
        report,
        "    front end (parser+plan+optimizer+engine+server) {:.1} % of the lookup",
        pct(
            point_front_us + point_overhead_us + roundtrip_overhead_us,
            point_client_us
        ),
    );
    let _ = writeln!(
        report,
        "  counters of the iterative statement over {} untraced runs: {}",
        loop_counts.len(),
        if counts_repeat {
            "identical every time".to_string()
        } else {
            let range = |f: fn(&Counts) -> u64| {
                let values = loop_counts.iter().map(f);
                format!(
                    "{}..{}",
                    values.clone().min().unwrap_or(0),
                    values.max().unwrap_or(0)
                )
            };
            format!(
                "rows_moved {}, pool_tasks {}",
                range(|c| c.rows_moved),
                range(|c| c.pool_tasks)
            )
        }
    );
    let _ = writeln!(
        report,
        "  box speed {:.3} of nominal during the pass (per-layer times are as measured, not restated)",
        median(&speeds)
    );
    let _ = writeln!(report, "  spans written to {}", trace_path.display());

    Ok(Traced {
        metrics,
        report,
        problems,
        attempted,
        failed,
        first_failure,
    })
}
