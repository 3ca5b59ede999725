//! How fast the box runs right now, so that timings taken minutes apart
//! can be compared.
//!
//! The sandbox is a two-thread share of a busy host. For seconds to
//! minutes at a time it executes the same instructions 1.3–1.6 times
//! slower: a fixed loop takes that much longer on the wall clock *and* in
//! process CPU time, with no steal time reported, so neither a longer run
//! nor a lower percentile removes it, and ten wall-clock runs of one
//! commit spread by 15–40 % of their median. The measured phase therefore
//! runs in short rounds and times a fixed kernel between them, while no
//! client runs; every timing of a round is stated at the speed of a box
//! that runs the kernel in its nominal time. The kernel lives here, not in
//! the engine, so an engine change cannot move it, and it does the
//! engine's kind of work — enum cells in heap-allocated rows, a hash
//! build, a probing join, a hash aggregate, a sort — because a kernel of
//! plain integer work follows the box's speed only half as well.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Probe time on this box in an ordinary hour, for a probe of one kernel
/// and of two at once. Any constants would do: they only fix the unit, "ms on
/// a box that runs one kernel in 6 ms and two side by side in 10".
fn nominal_ms(threads: usize) -> f64 {
    match threads {
        1 => 6.0,
        _ => 10.0,
    }
}

const NODES: i64 = 6_341;
const EDGES: usize = 21_000;
const ITERATIONS: usize = 2;

#[derive(Clone, Copy)]
enum Cell {
    Int(i64),
    Float(f64),
}

impl Cell {
    fn int(self) -> i64 {
        match self {
            Cell::Int(i) => i,
            Cell::Float(f) => f as i64,
        }
    }

    fn float(self) -> f64 {
        match self {
            Cell::Int(i) => i as f64,
            Cell::Float(f) => f,
        }
    }
}

type Row = Vec<Cell>;

/// `(src, dst, weight)` rows of a fixed pseudo-random graph, the size of
/// the workloads' own.
fn edges() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..EDGES)
            .map(|_| {
                // xorshift64: the same rows in every process.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let src = (x % NODES as u64) as i64;
                let dst = ((x >> 20) % NODES as u64) as i64;
                vec![Cell::Int(src), Cell::Int(dst), Cell::Float(0.25)]
            })
            .collect()
    })
}

/// Two PageRank-like iterations in the engine's style, every intermediate
/// table allocated afresh.
fn kernel() -> f64 {
    let mut ranks: Vec<Row> = (0..NODES)
        .map(|node| vec![Cell::Int(node), Cell::Float(1.0)])
        .collect();
    for _ in 0..ITERATIONS {
        let build: HashMap<i64, f64> = ranks
            .iter()
            .map(|row| (row[0].int(), row[1].float()))
            .collect();
        let joined: Vec<Row> = edges()
            .iter()
            .filter_map(|edge| {
                let rank = build.get(&edge[0].int())?;
                Some(vec![edge[1], Cell::Float(rank * edge[2].float())])
            })
            .collect();
        let mut sums: HashMap<i64, f64> = HashMap::new();
        for row in &joined {
            *sums.entry(row[0].int()).or_insert(0.0) += row[1].float();
        }
        ranks = sums
            .into_iter()
            .map(|(node, sum)| vec![Cell::Int(node), Cell::Float(0.15 + 0.85 * sum)])
            .collect();
        ranks.sort_unstable_by_key(|row| row[0].int());
    }
    ranks.iter().map(|row| row[1].float()).sum()
}

/// Time, in ms, for `threads` threads to run one kernel each, all at
/// once: as many as the workload has clients, because how well the box
/// runs two threads side by side changes apart from how fast it runs one.
/// Call it only while nothing else of this process runs.
pub fn probe_ms(threads: usize) -> f64 {
    let t = Instant::now();
    if threads == 1 {
        std::hint::black_box(kernel());
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| std::hint::black_box(kernel()));
            }
        });
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Factor that restates a time measured between two probes of `threads`
/// threads at nominal speed: below 1 while the box is slow.
pub fn scale(threads: usize, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    nominal_ms(threads) / ((probe_before_ms + probe_after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_exactly_and_takes_time() {
        assert_eq!(kernel(), kernel());
        assert!(kernel() > 0.0);
        assert!(probe_ms(1) > 0.0 && probe_ms(2) > 0.0);
    }

    #[test]
    fn scale_is_one_at_nominal_speed_and_falls_when_slow() {
        for threads in [1, 2] {
            let nominal = nominal_ms(threads);
            assert_eq!(scale(threads, nominal, nominal), 1.0);
            assert_eq!(scale(threads, 2.0 * nominal, 2.0 * nominal), 0.5);
            assert!((scale(threads, nominal, 2.0 * nominal) - 2.0 / 3.0).abs() < 1e-12);
        }
    }
}
