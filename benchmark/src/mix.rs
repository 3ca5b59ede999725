//! Seeded statement mix of the point class.
//!
//! Everything random in a run comes from `--seed` through this module (the
//! graph generator takes the same seed through `GraphSpec.seed`), so the
//! engine sees identical rows and SQL whenever the seed repeats.

/// splitmix64: tiny, seedable, and independent of the engine's vendored
/// `rand` stand-in, so an engine PR cannot change the statement sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (modulo bias is irrelevant at these ranges).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// Largest `?` of the aggregate statement. Keeps its result a few hundred
/// rows, so the statement stays a point-class one (full scan, small
/// answer) instead of shipping a third of the graph per reply.
pub const AGGREGATE_MAX_BOUND: i64 = 200;

/// One statement of the point class with the parameters it was built from.
#[derive(Debug, Clone, PartialEq)]
pub enum PointStmt {
    /// `SELECT dst, weight FROM edges WHERE src = ?` — 60 %.
    Lookup { src: i64 },
    /// `SELECT src, COUNT(*) FROM edges WHERE dst < ? GROUP BY src ORDER BY src` — 30 %.
    Aggregate { bound: i64 },
    /// `UPDATE vertexstatus SET status = ? WHERE node = ?` — 10 %.
    Update { node: i64, status: i64 },
}

impl PointStmt {
    pub fn sql(&self) -> String {
        match self {
            PointStmt::Lookup { src } => {
                format!("SELECT dst, weight FROM edges WHERE src = {src}")
            }
            PointStmt::Aggregate { bound } => format!(
                "SELECT src, COUNT(*) FROM edges WHERE dst < {bound} GROUP BY src ORDER BY src"
            ),
            PointStmt::Update { node, status } => {
                format!("UPDATE vertexstatus SET status = {status} WHERE node = {node}")
            }
        }
    }
}

/// The 60/30/10 lookup/aggregate/update mix over a graph of `nodes` nodes.
#[derive(Debug, Clone)]
pub struct PointMix {
    rng: Rng,
    nodes: i64,
}

impl PointMix {
    /// `stream` separates the clients of one run so they do not replay
    /// each other's sequence.
    pub fn new(seed: u64, stream: u64, nodes: usize) -> Self {
        PointMix {
            rng: Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)),
            nodes: nodes as i64,
        }
    }

    pub fn next_stmt(&mut self) -> PointStmt {
        match self.rng.range(0, 99) {
            0..=59 => PointStmt::Lookup {
                src: self.rng.range(1, self.nodes),
            },
            60..=89 => PointStmt::Aggregate {
                bound: self.rng.range(2, AGGREGATE_MAX_BOUND.min(self.nodes)),
            },
            _ => PointStmt::Update {
                node: self.rng.range(1, self.nodes),
                status: self.rng.range(0, 2),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements() {
        let draw = |seed, stream| {
            let mut mix = PointMix::new(seed, stream, 6_341);
            (0..500).map(|_| mix.next_stmt().sql()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn mix_shares_and_parameter_ranges() {
        let mut mix = PointMix::new(1, 1, 1_000);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            match mix.next_stmt() {
                PointStmt::Lookup { src } => {
                    assert!((1..=1_000).contains(&src));
                    counts[0] += 1;
                }
                PointStmt::Aggregate { bound } => {
                    assert!((2..=AGGREGATE_MAX_BOUND).contains(&bound));
                    counts[1] += 1;
                }
                PointStmt::Update { node, status } => {
                    assert!((1..=1_000).contains(&node) && (0..=2).contains(&status));
                    counts[2] += 1;
                }
            }
        }
        assert!((5_700..=6_300).contains(&counts[0]), "{counts:?}");
        assert!((2_700..=3_300).contains(&counts[1]), "{counts:?}");
        assert!((800..=1_200).contains(&counts[2]), "{counts:?}");
    }
}
