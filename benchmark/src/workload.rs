//! The four workloads: set-up, closed-loop measured phases, verification.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::api::{self, Connection, Counts, Db, Outcome, Rows, Served};
use crate::mix::{PointMix, PointStmt};
use crate::refspeed;

/// Unmeasured iterative statements run at the end of every set-up.
const WARMUP_STATEMENTS: usize = 3;
/// Point statements a batch client issues after each iterative one.
const POINTS_PER_CYCLE: usize = 10;
/// Length of a round of the measured phase, in seconds; a batch round
/// lasts at least one cycle. Short, because the box changes speed within
/// a second: the probes around a round must see the speed it ran at.
const ROUND_S: f64 = 0.25;
/// |a − b| ≤ TOLERANCE · max(1, |a|, |b|) counts as equal.
const TOLERANCE: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrFull,
    SsspDelta,
    PrDurable,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PrFull,
        Workload::SsspDelta,
        Workload::PrDurable,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrFull => "pr_full",
            Workload::SsspDelta => "sssp_delta",
            Workload::PrDurable => "pr_durable",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pagerank(self) -> bool {
        matches!(self, Workload::PrFull | Workload::PrDurable)
    }
}

// ---- reference answers of the point class --------------------------------

/// Adjacency of the generated graph, for checking point statements.
pub struct GraphIndex {
    /// `out[src]` = `(dst, weight)` of every edge row leaving `src`.
    out: Vec<Vec<(i64, f64)>>,
    /// `into[dst]` = `src` of every edge row entering `dst`.
    into: Vec<Vec<i64>>,
}

impl GraphIndex {
    pub fn new(nodes: usize, edges: &[(i64, i64, f64)]) -> Self {
        let mut out = vec![Vec::new(); nodes + 1];
        let mut into = vec![Vec::new(); nodes + 1];
        for &(src, dst, weight) in edges {
            out[src as usize].push((dst, weight));
            into[dst as usize].push(src);
        }
        GraphIndex { out, into }
    }

    pub fn expected(&self, stmt: &PointStmt) -> Outcome {
        match *stmt {
            PointStmt::Lookup { src } => Outcome::Rows(
                self.out[src as usize]
                    .iter()
                    .map(|&(dst, weight)| vec![dst as f64, weight])
                    .collect(),
            ),
            PointStmt::Aggregate { bound } => {
                let mut per_src = std::collections::BTreeMap::new();
                for sources in &self.into[1..(bound as usize).min(self.into.len())] {
                    for &src in sources {
                        *per_src.entry(src).or_insert(0u64) += 1;
                    }
                }
                Outcome::Rows(
                    per_src
                        .into_iter()
                        .map(|(src, n)| vec![src as f64, n as f64])
                        .collect(),
                )
            }
            PointStmt::Update { .. } => Outcome::Affected(1),
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Whether `got` is the answer `want`. `ordered` is false for statements
/// without ORDER BY, whose rows may arrive in any order.
pub fn matches(got: &Outcome, want: &Outcome, ordered: bool) -> bool {
    match (got, want) {
        (Outcome::Affected(a), Outcome::Affected(b)) => a == b,
        (Outcome::Rows(got), Outcome::Rows(want)) => {
            if got.len() != want.len() {
                return false;
            }
            let same = |a: &Rows, b: &Rows| {
                a.iter()
                    .zip(b)
                    .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| close(p, q)))
            };
            if ordered {
                same(got, want)
            } else {
                let sort = |rows: &Rows| {
                    let mut rows = rows.clone();
                    rows.sort_by(|x, y| {
                        x.iter()
                            .zip(y)
                            .map(|(p, q)| p.total_cmp(q))
                            .find(|o| o.is_ne())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    rows
                };
                same(&sort(got), &sort(want))
            }
        }
        _ => false,
    }
}

fn describe_mismatch(sql: &str, got: &Outcome) -> String {
    let what = match got {
        Outcome::Error(e) => format!("error {e}"),
        Outcome::Rows(rows) => format!("{} rows that differ from the reference", rows.len()),
        Outcome::Affected(n) => format!("{n} rows affected"),
        Outcome::Other => "a reply of the wrong kind".to_string(),
    };
    let sql: String = sql.chars().take(80).collect();
    format!("`{sql}` returned {what}")
}

// ---- set-up ---------------------------------------------------------------

/// Removes the directory when dropped. Declared last in [`Env`], so the
/// engine has closed its files by then.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload, loaded, warmed up and ready to measure.
pub struct Env {
    pub db: Db,
    /// Running server of `serve_mixed`.
    pub served: Option<Served>,
    pub index: GraphIndex,
    pub nodes: usize,
    /// The workload's iterative statement and its reference answer.
    pub loop_sql: String,
    pub loop_expected: Outcome,
    pub generate: Duration,
    pub oracle: Duration,
    pub load_rows_per_s: f64,
    _spill_dir: Option<ScratchDir>,
}

impl Env {
    /// Generate, load, compute the reference answers, start the server
    /// (`serve_mixed`) and run the warm-ups. `scratch` is a directory
    /// name, unique to this set-up, for whatever the engine writes.
    pub fn setup(workload: Workload, seed: u64, scratch: &Path) -> Result<Env, String> {
        let spec = api::graph_spec(seed);
        let edges = api::generate_edges(&spec, workload.pagerank());
        let index = GraphIndex::new(spec.nodes, &api::edge_triples(&edges.rows));

        let t = Instant::now();
        let mut loop_expected = match workload {
            Workload::PrFull | Workload::PrDurable => api::oracle_pagerank(&edges.rows),
            Workload::SsspDelta => api::oracle_sssp(&spec),
            Workload::ServeMixed => Rows::new(),
        };
        let mut oracle = t.elapsed();

        let (db, spill_dir) = match workload {
            Workload::PrFull | Workload::SsspDelta => (api::open_in_memory()?, None),
            Workload::PrDurable => (
                api::open_durable(scratch)?,
                Some(ScratchDir(scratch.to_path_buf())),
            ),
            Workload::ServeMixed => (api::open_served()?, None),
        };
        let edge_rows = edges.rows.len();
        let load = api::load_edges(&db, edges.rows)?;
        api::load_vertex_status(&db, &spec)?;

        let loop_sql = match workload {
            Workload::PrFull | Workload::PrDurable => api::pagerank_sql(),
            Workload::SsspDelta => api::sssp_sql(),
            Workload::ServeMixed => api::ff_sql(),
        };
        if workload == Workload::ServeMixed {
            // No oracle computes Forecast-Friends; the reference is the
            // in-process answer, taken before the server exists.
            let (elapsed, outcome) = api::query(&db, &loop_sql);
            oracle = elapsed;
            match outcome {
                Outcome::Rows(rows) if !rows.is_empty() => loop_expected = rows,
                other => return Err(describe_mismatch(&loop_sql, &other)),
            }
        }
        let loop_expected = Outcome::Rows(loop_expected);

        let served = match workload {
            Workload::ServeMixed => Some(Served::start(&db)?),
            _ => None,
        };
        let mut warm = match &served {
            Some(served) => Some(Connection::open(served.addr())?.1),
            None => None,
        };
        for _ in 0..WARMUP_STATEMENTS {
            let (_, outcome) = match &mut warm {
                Some(connection) => connection.execute(&loop_sql),
                None => api::query(&db, &loop_sql),
            };
            if !matches(&outcome, &loop_expected, true) {
                return Err(format!(
                    "warm-up: {}",
                    describe_mismatch(&loop_sql, &outcome)
                ));
            }
        }
        if let Some(connection) = warm {
            connection.close();
        }
        // Counters of the last warm-up statement: one client, so exact.
        check_plan_shape(workload, &api::take_counts(&db))?;

        Ok(Env {
            db,
            served,
            index,
            nodes: spec.nodes,
            loop_sql,
            loop_expected,
            generate: edges.generate,
            oracle,
            load_rows_per_s: edge_rows as f64 / load.as_secs_f64(),
            _spill_dir: spill_dir,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(served) = self.served.take() {
            served.shutdown();
        }
    }
}

/// The plan shape each workload exists to exercise. A workload that no
/// longer runs the path it is named after measures something else, so
/// this fails the run instead of reporting numbers.
pub fn check_plan_shape(workload: Workload, c: &Counts) -> Result<(), String> {
    let ok = match workload {
        Workload::PrFull => c.delta_rows_fed == 0 && c.renames > 0 && c.spill_bytes_written == 0,
        Workload::SsspDelta => c.semi_naive_loops == 1 && c.delta_rows_fed > 0,
        Workload::PrDurable => c.spill_bytes_written > 0 && c.fsyncs > 0 && c.renames > 0,
        Workload::ServeMixed => c.iterations > 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: the iterative statement no longer has the plan shape this workload measures: {c:?}",
            workload.name()
        ))
    }
}

// ---- measured phases --------------------------------------------------------

/// What a measured phase recorded. Times are stated at the box's nominal
/// speed (see [`refspeed`]); `wall_s` is the one wall-clock figure kept,
/// so `measured_s / wall_s` is the speed the box ran at.
#[derive(Debug, Default)]
pub struct Samples {
    /// Time of every verified iterative statement, ms.
    pub loop_ms: Vec<f64>,
    /// Time of every verified point statement, ms.
    pub point_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Length of the rounds, each from its first statement until the last
    /// client's last reply; the probes between them are not part of it.
    pub measured_s: f64,
    pub wall_s: f64,
}

impl Samples {
    fn note(&mut self, class: Class, elapsed: Duration, ok: bool, sql: &str, got: &Outcome) {
        self.attempted += 1;
        if ok {
            let ms = elapsed.as_secs_f64() * 1e3;
            match class {
                Class::Loop => self.loop_ms.push(ms),
                Class::Point => self.point_ms.push(ms),
            }
        } else {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| describe_mismatch(sql, got));
        }
    }

    /// Add `other`, whose times are as measured, restated by `scale`.
    fn absorb(&mut self, other: Samples, scale: f64) {
        self.loop_ms
            .extend(other.loop_ms.iter().map(|ms| ms * scale));
        self.point_ms
            .extend(other.point_ms.iter().map(|ms| ms * scale));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.measured_s += other.wall_s * scale;
        self.wall_s += other.wall_s;
    }
}

#[derive(Clone, Copy)]
enum Class {
    Loop,
    Point,
}

/// Where a client sends its statements.
enum Target<'a> {
    InProcess(&'a Db),
    Tcp(&'a mut Connection),
}

impl Target<'_> {
    fn execute(&mut self, class: Class, sql: &str) -> (Duration, Outcome) {
        match (self, class) {
            (Target::InProcess(db), Class::Loop) => api::query(db, sql),
            (Target::InProcess(db), Class::Point) => api::execute(db, sql),
            (Target::Tcp(connection), _) => connection.execute(sql),
        }
    }
}

fn run_point(env: &Env, target: &mut Target<'_>, mix: &mut PointMix, samples: &mut Samples) {
    let stmt = mix.next_stmt();
    let sql = stmt.sql();
    let (elapsed, got) = target.execute(Class::Point, &sql);
    let ordered = !matches!(stmt, PointStmt::Lookup { .. });
    let ok = matches(&got, &env.index.expected(&stmt), ordered);
    samples.note(Class::Point, elapsed, ok, &sql, &got);
}

fn run_loop(env: &Env, target: &mut Target<'_>, samples: &mut Samples) {
    let (elapsed, got) = target.execute(Class::Loop, &env.loop_sql);
    let ok = matches(&got, &env.loop_expected, true);
    samples.note(Class::Loop, elapsed, ok, &env.loop_sql, &got);
}

/// One round of a batch workload: one in-process client, closed loop. A
/// cycle is the iterative statement, then [`POINTS_PER_CYCLE`] statements
/// of the seeded point mix, so every end-to-end metric is defined on every
/// workload while the iterative statement keeps > 95 % of the time.
fn batch_round(env: &Env, mix: &mut PointMix, deadline: Instant) -> Samples {
    let mut samples = Samples::default();
    let mut target = Target::InProcess(&env.db);
    while Instant::now() < deadline {
        run_loop(env, &mut target, &mut samples);
        for _ in 0..POINTS_PER_CYCLE {
            run_point(env, &mut target, mix, &mut samples);
        }
    }
    samples
}

/// One round of `serve_mixed`: two TCP connections on two threads, each a
/// closed loop until the deadline. Client A draws the point mix, client B
/// repeats the iterative statement.
fn mixed_round(
    env: &Env,
    point_connection: &mut Connection,
    loop_connection: &mut Connection,
    mix: &mut PointMix,
    deadline: Instant,
) -> Samples {
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut part = Samples::default();
            let mut target = Target::Tcp(point_connection);
            while Instant::now() < deadline {
                run_point(env, &mut target, mix, &mut part);
            }
            part
        });
        let b = scope.spawn(|| {
            let mut part = Samples::default();
            let mut target = Target::Tcp(loop_connection);
            while Instant::now() < deadline {
                run_loop(env, &mut target, &mut part);
            }
            part
        });
        (a.join(), b.join())
    });
    let mut samples = Samples::default();
    for part in [a, b] {
        match part {
            Ok(part) => samples.absorb(part, 1.0),
            Err(_) => {
                samples.attempted += 1;
                samples.failed += 1;
                samples
                    .first_failure
                    .get_or_insert_with(|| "a client thread panicked".to_string());
            }
        }
    }
    samples
}

/// The measured phase: rounds of [`ROUND_S`] for `seconds`, the box's
/// speed probed before, between and after them while every client is
/// idle, and each round's times restated by the two probes around it.
/// Connections, the statement mix and the engine's state carry over from
/// round to round.
pub fn run_measured(env: &Env, seed: u64, seconds: f64) -> Result<Samples, String> {
    let mut mix = PointMix::new(seed, 1, env.nodes);
    let mut connections = match &env.served {
        Some(served) => Some((
            Connection::open(served.addr())?.1,
            Connection::open(served.addr())?.1,
        )),
        None => None,
    };
    // One running thread per client, and as many kernels per probe.
    let clients = if connections.is_some() { 2 } else { 1 };
    let mut total = Samples::default();
    let phase = Instant::now();
    let mut probe_before = refspeed::probe_ms(clients);
    while phase.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(ROUND_S);
        let mut round = match &mut connections {
            Some((a, b)) => mixed_round(env, a, b, &mut mix, deadline),
            None => batch_round(env, &mut mix, deadline),
        };
        round.wall_s = start.elapsed().as_secs_f64();
        let probe_after = refspeed::probe_ms(clients);
        total.absorb(round, refspeed::scale(clients, probe_before, probe_after));
        probe_before = probe_after;
    }
    if let Some((a, b)) = connections {
        a.close();
        b.close();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_index() -> GraphIndex {
        GraphIndex::new(
            4,
            &[
                (1, 2, 3.0),
                (1, 3, 1.0),
                (2, 3, 2.0),
                (4, 1, 5.0),
                (4, 2, 7.0),
            ],
        )
    }

    #[test]
    fn expected_answers_follow_the_adjacency() {
        let index = tiny_index();
        assert_eq!(
            index.expected(&PointStmt::Lookup { src: 1 }),
            Outcome::Rows(vec![vec![2.0, 3.0], vec![3.0, 1.0]])
        );
        assert_eq!(
            index.expected(&PointStmt::Lookup { src: 3 }),
            Outcome::Rows(vec![])
        );
        // dst < 3: edges 1->2, 4->1, 4->2, counted per src, ordered by src.
        assert_eq!(
            index.expected(&PointStmt::Aggregate { bound: 3 }),
            Outcome::Rows(vec![vec![1.0, 1.0], vec![4.0, 2.0]])
        );
        assert_eq!(
            index.expected(&PointStmt::Aggregate { bound: 99 }),
            Outcome::Rows(vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![4.0, 2.0]])
        );
        assert_eq!(
            index.expected(&PointStmt::Update { node: 2, status: 1 }),
            Outcome::Affected(1)
        );
    }

    #[test]
    fn matching_respects_order_tolerance_and_kind() {
        let want = Outcome::Rows(vec![vec![1.0, 0.5], vec![2.0, 0.25]]);
        let swapped = Outcome::Rows(vec![vec![2.0, 0.25], vec![1.0, 0.5]]);
        assert!(matches(&swapped, &want, false));
        assert!(!matches(&swapped, &want, true));
        let near = Outcome::Rows(vec![vec![1.0, 0.5 + 1e-9], vec![2.0, 0.25]]);
        assert!(matches(&near, &want, true));
        let off = Outcome::Rows(vec![vec![1.0, 0.5 + 1e-3], vec![2.0, 0.25]]);
        assert!(!matches(&off, &want, true));
        let short = Outcome::Rows(vec![vec![1.0, 0.5]]);
        assert!(!matches(&short, &want, false));
        let nan = Outcome::Rows(vec![vec![1.0, f64::NAN], vec![2.0, 0.25]]);
        assert!(!matches(&nan, &want, true));
        assert!(!matches(&Outcome::Error("x".into()), &want, true));
        assert!(!matches(&Outcome::Affected(0), &Outcome::Affected(1), true));
    }

    #[test]
    fn plan_shape_gates() {
        let full = Counts {
            renames: 10,
            iterations: 10,
            ..Counts::default()
        };
        assert!(check_plan_shape(Workload::PrFull, &full).is_ok());
        assert!(check_plan_shape(Workload::PrDurable, &full).is_err());
        assert!(check_plan_shape(Workload::SsspDelta, &full).is_err());
        let delta = Counts {
            semi_naive_loops: 1,
            delta_rows_fed: 5,
            renames: 3,
            ..Counts::default()
        };
        assert!(check_plan_shape(Workload::SsspDelta, &delta).is_ok());
        assert!(check_plan_shape(Workload::PrFull, &delta).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// The whole served path once, briefly: set-up, both clients over TCP,
    /// verification of every reply.
    #[test]
    fn serve_mixed_runs_and_verifies() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test_serve_mixed");
        let env = Env::setup(Workload::ServeMixed, 3, &scratch).unwrap();
        let samples = run_measured(&env, 3, 0.5).unwrap();
        assert_eq!(samples.failed, 0, "{:?}", samples.first_failure);
        assert!(!samples.loop_ms.is_empty() && !samples.point_ms.is_empty());
        assert_eq!(
            samples.attempted as usize,
            samples.loop_ms.len() + samples.point_ms.len()
        );
        // At least one whole round; the probes take their share of the 0.5 s.
        assert!(samples.wall_s >= ROUND_S && samples.measured_s > 0.0);
    }

    /// A batch workload once, briefly, with its plan-shape gate.
    #[test]
    fn sssp_delta_runs_and_verifies() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test_sssp_delta");
        let env = Env::setup(Workload::SsspDelta, 4, &scratch).unwrap();
        let samples = run_measured(&env, 4, 0.1).unwrap();
        assert_eq!(samples.failed, 0, "{:?}", samples.first_failure);
        assert!(!samples.loop_ms.is_empty());
    }
}
