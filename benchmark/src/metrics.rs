//! Metric names, units and the statistics they are computed with.

/// End-to-end metrics, printed by every workload with tracing off, in
/// this order. `BENCHMARK.json` carries the same names plus the bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p75", "ms"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("stmts_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload in the traced pass.
/// Unsuffixed front-end times belong to the workload's iterative
/// statement, `point_` ones to the point lookup statement.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_us", "us"),
    ("parser.point_parse_us", "us"),
    ("plan.plan_us", "us"),
    ("plan.point_plan_us", "us"),
    ("plan.steps", "count"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.point_optimize_us", "us"),
    ("optimizer.semi_naive_loops", "count"),
    ("optimizer.common_results", "count"),
    ("exec.lower_us", "us"),
    ("exec.total_us", "us"),
    ("exec.point_us", "us"),
    ("exec.loop_us", "us"),
    ("exec.iter_first_us", "us"),
    ("exec.iter_last_us", "us"),
    ("exec.join_us", "us"),
    ("exec.aggregate_us", "us"),
    ("exec.exchange_us", "us"),
    ("exec.scan_us", "us"),
    ("exec.rowops_us", "us"),
    ("exec.step_us", "us"),
    ("exec.return_us", "us"),
    ("exec.iterations", "count"),
    ("exec.rows_moved", "count"),
    ("exec.rows_broadcast", "count"),
    ("exec.rows_materialized", "count"),
    ("exec.joins_executed", "count"),
    ("exec.join_builds", "count"),
    ("exec.join_builds_reused", "count"),
    ("exec.join_reuse_ratio", "ratio"),
    ("exec.delta_rows_fed", "count"),
    ("exec.delta_rows_emitted", "count"),
    ("exec.merge_rows_examined", "count"),
    ("exec.renames", "count"),
    ("exec.merges", "count"),
    ("exec.pool_tasks", "count"),
    ("exec.threads_spawned", "count"),
    ("storage.load_rows_per_s", "1/s"),
    ("storage.checkpoints_taken", "count"),
    ("storage.checkpoint_bytes", "bytes"),
    ("storage.spill_bytes_written", "bytes"),
    ("storage.spill_bytes_read", "bytes"),
    ("storage.fsyncs", "count"),
    ("storage.epochs", "count"),
    ("storage.bytes_written_per_user_byte", "ratio"),
    ("storage.ckpt_write_mb_per_s", "MiB/s"),
    ("storage.ckpt_read_mb_per_s", "MiB/s"),
    ("engine.execute_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.point_execute_us", "us"),
    ("engine.point_overhead_us", "us"),
    ("server.roundtrip_overhead_us", "us"),
    ("server.encode_rows_us", "us"),
    ("server.decode_rows_us", "us"),
    ("server.connect_us", "us"),
    ("server.point_ms_p99", "ms"),
    ("common.admission_admitted", "count"),
    ("common.admission_shed", "count"),
    ("common.admission_peak_queue_depth", "count"),
    ("common.peak_tracked_bytes", "bytes"),
    ("datagen.generate_s", "s"),
    ("datagen.oracle_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Unit of `name` in one of the two tables above.
pub fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Percentiles a timing may be reported at, lowest first, in tenths of a
/// percent so that the rule below is exact integer arithmetic.
const PERCENTILE_LADDER: &[usize] = &[500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it; `None` when even the median has fewer (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rfind(|&&tenths| n * (1000 - tenths) >= 10 * 1000)
        .map(|&tenths| tenths as f64 / 10.0)
}

/// Linear-interpolation percentile of an ascending slice (the method of
/// numpy's default), `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// `VmHWM` of this process in MiB: the peak resident set since start.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 4.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib() > 0.0);
    }
}
