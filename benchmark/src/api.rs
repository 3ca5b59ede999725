//! The harness's whole contact surface with the engine.
//!
//! Every call into a workspace crate is made from this module, and every
//! engine type is converted to a plain harness type before it leaves, so
//! a PR that changes an engine API sees in one file what the benchmark
//! depends on. Functions that time a call return the duration of the
//! engine call alone; converting results happens outside the timed part.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use spinner_common::QueryProfile;
use spinner_common::{DataType, EngineConfig, Field, MemoryMetrics, Row, Schema, SchemaRef, Value};
use spinner_datagen::{oracle, DatasetPreset, GraphSpec};
use spinner_engine::{Database, QueryResult};
use spinner_plan::builder::SchemaProvider;
use spinner_plan::{PlannedStatement, Step};
use spinner_procedural::queries;
use spinner_server::{protocol, Client, Reply, Server};
use spinner_storage::{LoopCheckpoint, SpillManager};

/// Partitions of every table. They run one after the other on the calling
/// thread (`parallel_partitions` off, the engine's default): the box's two
/// hardware threads share one core's worth of speed, so two workers bought
/// 10 % on a quiet box, and a worker thread that the host deschedules for
/// a moment stalls every one of a query's pool hand-overs, which no probe
/// of the box's speed sees. One running thread per client is what the
/// speed probe in `refspeed.rs` can follow.
pub const PARTITIONS: usize = 2;
/// Share of the paper's DBLP graph the workloads run on: 6,341 nodes and
/// 20,995 edge rows at every seed.
pub const SCALE: f64 = 0.02;
const PAGERANK_ITERATIONS: u64 = 10;
const SSSP_SOURCE: i64 = 1;
/// Distance the SSSP query reports for unreachable nodes.
const SSSP_UNREACHABLE: f64 = 9_999_999.0;
pub const SPILL_THRESHOLD_BYTES: u64 = 256 << 10;
pub const FLUSH_POLICY: &str = "tmp -> fsync -> rename -> fsync-dir";

pub type Db = Arc<Database>;
/// A result table as plain numbers (every workload column is numeric;
/// NULL and text read as NaN and never compare equal).
pub type Rows = Vec<Vec<f64>>;

// ---- configuration ------------------------------------------------------

fn base_config() -> EngineConfig {
    let mut config = EngineConfig::default()
        .with_partitions(PARTITIONS)
        .with_parallel_partitions(false);
    // `EngineConfig::default()` reads SPINNER_SPILL_* from the
    // environment; the benchmark's settings must not depend on it.
    config.spill_threshold_bytes = None;
    config.spill_dir = None;
    config
}

fn open(config: EngineConfig) -> Result<Db, String> {
    Database::new(config)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Engine of `pr_full` and `sssp_delta`: defaults, nothing on disk.
pub fn open_in_memory() -> Result<Db, String> {
    open(base_config())
}

/// Engine of `pr_durable`: a checkpoint every iteration, spilled past
/// 256 KiB, written with the full flush protocol ([`FLUSH_POLICY`]).
pub fn open_durable(spill_dir: &Path) -> Result<Db, String> {
    open(
        base_config()
            .with_spill_dir(spill_dir.to_string_lossy().into_owned())
            .with_spill_threshold_bytes(SPILL_THRESHOLD_BYTES)
            .with_checkpoint_interval(1)
            .with_durable_spill(true),
    )
}

/// Engine of `serve_mixed`: admission control on the path, sized so that
/// two closed-loop clients are never shed.
pub fn open_served() -> Result<Db, String> {
    open(
        base_config()
            .with_max_concurrent_queries(2)
            .with_admission_queue_limit(8),
    )
}

// ---- data ---------------------------------------------------------------

pub fn graph_spec(seed: u64) -> GraphSpec {
    let mut spec = DatasetPreset::Dblp.spec(SCALE);
    spec.seed = seed;
    spec
}

pub struct Edges {
    pub rows: Vec<Row>,
    pub generate: Duration,
}

/// Generate `edges(src, dst, weight)`; `normalized` gives the PageRank
/// transition weights, otherwise the SSSP distances.
pub fn generate_edges(spec: &GraphSpec, normalized: bool) -> Edges {
    let t = Instant::now();
    let rows = if normalized {
        spec.generate_normalized()
    } else {
        spec.generate()
    };
    Edges {
        generate: t.elapsed(),
        rows,
    }
}

pub fn edge_triples(rows: &[Row]) -> Vec<(i64, i64, f64)> {
    rows.iter()
        .map(|r| (number(&r[0]) as i64, number(&r[1]) as i64, number(&r[2])))
        .collect()
}

/// Load `edges` exactly as `spinner_datagen::load_edges_into` does
/// (distributed on `dst`), timing the bulk load alone.
pub fn load_edges(db: &Db, rows: Vec<Row>) -> Result<Duration, String> {
    let schema = Schema::new(vec![
        Field::new("src", DataType::Int),
        Field::new("dst", DataType::Int),
        Field::new("weight", DataType::Float),
    ]);
    let t = Instant::now();
    db.create_table_from_rows("edges", schema, rows, None, Some(1))
        .map_err(|e| e.to_string())?;
    Ok(t.elapsed())
}

pub fn load_vertex_status(db: &Db, spec: &GraphSpec) -> Result<(), String> {
    spinner_datagen::load_vertex_status_into(db, "vertexstatus", spec, 0.5)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

// ---- statements and their reference results -----------------------------

pub fn pagerank_sql() -> String {
    queries::pagerank(PAGERANK_ITERATIONS, false).cte
}

pub fn sssp_sql() -> String {
    queries::sssp_convergent(SSSP_SOURCE, None).cte
}

pub fn ff_sql() -> String {
    queries::ff(5, 10).cte
}

/// `(node, rank)` ordered by node, as `pagerank_sql` returns it.
pub fn oracle_pagerank(normalized_edges: &[Row]) -> Rows {
    oracle::pagerank_delta(normalized_edges, PAGERANK_ITERATIONS)
        .into_iter()
        .map(|(node, rank)| vec![node as f64, rank])
        .collect()
}

/// `(node, distance)` ordered by node, as `sssp_sql` returns it.
pub fn oracle_sssp(spec: &GraphSpec) -> Rows {
    oracle::dijkstra(spec, SSSP_SOURCE as usize)
        .into_iter()
        .enumerate()
        .skip(1)
        .map(|(node, dist)| vec![node as f64, dist.unwrap_or(SSSP_UNREACHABLE)])
        .collect()
}

// ---- executing statements -----------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Rows(Rows),
    Affected(u64),
    /// DDL, EXPLAIN text: nothing a workload statement should produce.
    Other,
    Error(String),
}

fn number(value: &Value) -> f64 {
    value.as_f64().unwrap_or(f64::NAN)
}

fn outcome_of(result: spinner_common::Result<QueryResult>) -> Outcome {
    match result {
        Ok(QueryResult::Rows(batch)) => Outcome::Rows(
            batch
                .rows()
                .iter()
                .map(|row| row.iter().map(number).collect())
                .collect(),
        ),
        Ok(QueryResult::Affected { rows }) => Outcome::Affected(rows as u64),
        Ok(_) => Outcome::Other,
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// `Database::execute`, in process.
pub fn execute(db: &Db, sql: &str) -> (Duration, Outcome) {
    let t = Instant::now();
    let result = db.execute(sql);
    let elapsed = t.elapsed();
    (elapsed, outcome_of(result))
}

/// `Database::query`, in process (the batch workloads' iterative call).
pub fn query(db: &Db, sql: &str) -> (Duration, Outcome) {
    let t = Instant::now();
    let result = db.query(sql);
    let elapsed = t.elapsed();
    (elapsed, outcome_of(result.map(QueryResult::Rows)))
}

/// `Database::explain_analyze`: run the statement with the engine's
/// tracer on and return the profile it collected.
pub fn explain_analyze(db: &Db, sql: &str) -> (Duration, Result<QueryProfile, String>) {
    let t = Instant::now();
    let result = db.explain_analyze(sql);
    (t.elapsed(), result.map_err(|e| e.to_string()))
}

/// Counters of the most recent plan-executing statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub iterations: u64,
    pub rows_moved: u64,
    pub rows_broadcast: u64,
    pub rows_materialized: u64,
    pub joins_executed: u64,
    pub join_builds: u64,
    pub join_builds_reused: u64,
    pub semi_naive_loops: u64,
    pub delta_rows_fed: u64,
    pub delta_rows_emitted: u64,
    pub merge_rows_examined: u64,
    pub renames: u64,
    pub merges: u64,
    pub pool_tasks: u64,
    pub threads_spawned: u64,
    pub checkpoints_taken: u64,
    pub checkpoint_bytes: u64,
    pub spill_bytes_written: u64,
    pub spill_bytes_read: u64,
    pub fsyncs: u64,
    pub epochs: u64,
    pub peak_tracked_bytes: u64,
}

/// `Database::take_stats`: snapshot and reset.
pub fn take_counts(db: &Db) -> Counts {
    let s = db.take_stats();
    Counts {
        iterations: s.iterations,
        rows_moved: s.rows_moved,
        rows_broadcast: s.rows_broadcast,
        rows_materialized: s.rows_materialized,
        joins_executed: s.joins_executed,
        join_builds: s.join_builds,
        join_builds_reused: s.join_builds_reused,
        semi_naive_loops: s.semi_naive_loops,
        delta_rows_fed: s.delta_rows_fed,
        delta_rows_emitted: s.delta_rows_emitted,
        merge_rows_examined: s.merge_rows_examined,
        renames: s.renames,
        merges: s.merges,
        pool_tasks: s.pool_tasks,
        threads_spawned: s.threads_spawned,
        checkpoints_taken: s.checkpoints_taken,
        checkpoint_bytes: s.checkpoint_bytes,
        spill_bytes_written: s.spill_bytes_written,
        spill_bytes_read: s.spill_bytes_read,
        fsyncs: s.durability_fsyncs,
        epochs: s.durability_epochs,
        peak_tracked_bytes: s.peak_tracked_bytes,
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounts {
    pub admitted: u64,
    pub shed: u64,
    pub peak_queue_depth: u64,
}

/// `Database::admission` snapshot; all zero when the engine has no
/// admission controller (the batch workloads).
pub fn admission_counts(db: &Db) -> AdmissionCounts {
    db.admission().map_or(AdmissionCounts::default(), |ctrl| {
        let snap = ctrl.snapshot();
        AdmissionCounts {
            admitted: snap.admitted_total,
            shed: snap.shed_total(),
            peak_queue_depth: snap.peak_queue_depth,
        }
    })
}

// ---- the front end, stage by stage --------------------------------------

struct CatalogSchemas<'a>(&'a Database);

impl SchemaProvider for CatalogSchemas<'_> {
    fn table_schema(&self, name: &str) -> Option<SchemaRef> {
        self.0
            .catalog()
            .get(name)
            .ok()
            .map(|t| Arc::clone(t.schema()))
    }

    fn table_primary_key(&self, name: &str) -> Option<usize> {
        self.0
            .catalog()
            .get(name)
            .ok()
            .and_then(|t| t.primary_key())
    }
}

/// One pass through the stages `Database::execute` runs before it touches
/// the executor, each timed on its own.
#[derive(Debug, Clone, Default)]
pub struct FrontEnd {
    pub parse: Duration,
    pub plan: Duration,
    pub optimize: Duration,
    /// `create_physical_plan` over every step fragment and the final plan.
    pub lower: Duration,
    /// Steps of the optimized program, loop bodies included.
    pub steps: usize,
    /// `__common_*` results the optimizer hoisted out of loops.
    pub common_results: usize,
    /// Every operator label of the lowered plans.
    pub operator_labels: Vec<String>,
}

pub fn front_end(db: &Db, sql: &str) -> Result<FrontEnd, String> {
    let config = db.config();
    let t = Instant::now();
    let stmt = spinner_parser::parse_sql(sql).map_err(|e| e.to_string())?;
    let parse = t.elapsed();

    let provider = CatalogSchemas(db);
    let t = Instant::now();
    let planned =
        spinner_plan::plan_statement(&stmt, &provider, config).map_err(|e| e.to_string())?;
    let plan = t.elapsed();

    let t = Instant::now();
    let optimized =
        spinner_optimizer::optimize_statement(planned, config).map_err(|e| e.to_string())?;
    let optimize = t.elapsed();

    let mut out = FrontEnd {
        parse,
        plan,
        optimize,
        ..FrontEnd::default()
    };
    if let PlannedStatement::Query(query) = &optimized {
        let mut fragments = vec![&query.root];
        collect_fragments(&query.steps, &mut fragments, &mut out);
        let t = Instant::now();
        let lowered: Vec<_> = fragments
            .into_iter()
            .map(|f| spinner_exec::create_physical_plan(f, config).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        out.lower = t.elapsed();
        for physical in &lowered {
            out.operator_labels
                .extend(physical.to_string().lines().map(|l| l.trim().to_string()));
        }
    }
    Ok(out)
}

fn collect_fragments<'a>(
    steps: &'a [Step],
    fragments: &mut Vec<&'a spinner_plan::LogicalPlan>,
    out: &mut FrontEnd,
) {
    for step in steps {
        out.steps += 1;
        match step {
            Step::Materialize { name, plan, .. } => {
                if name.starts_with("__common_") {
                    out.common_results += 1;
                }
                fragments.push(plan);
            }
            Step::Loop(l) => collect_fragments(&l.body, fragments, out),
            Step::Rename { .. } | Step::Merge { .. } => {}
        }
    }
}

// ---- the server -----------------------------------------------------------

pub struct Served {
    server: Server,
}

impl Served {
    pub fn start(db: &Db) -> Result<Served, String> {
        Server::start(Arc::clone(db), "127.0.0.1:0")
            .map(|server| Served { server })
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn shutdown(self) {
        self.server.shutdown(Duration::from_secs(5));
    }
}

pub struct Connection(Client);

impl Connection {
    /// `Client::connect`, greeting included.
    pub fn open(addr: SocketAddr) -> Result<(Duration, Connection), String> {
        let t = Instant::now();
        let client = Client::connect(addr).map_err(|e| e.to_string())?;
        Ok((t.elapsed(), Connection(client)))
    }

    /// `Client::query`: one statement, one reply, over TCP.
    pub fn execute(&mut self, sql: &str) -> (Duration, Outcome) {
        let t = Instant::now();
        let reply = self.0.query(sql);
        let elapsed = t.elapsed();
        let outcome = match reply {
            Ok(Reply::Rows { rows, .. }) => Outcome::Rows(
                rows.iter()
                    .map(|row| {
                        row.iter()
                            .map(|cell| {
                                cell.as_deref()
                                    .and_then(|text| text.parse::<f64>().ok())
                                    .unwrap_or(f64::NAN)
                            })
                            .collect()
                    })
                    .collect(),
            ),
            Ok(Reply::Affected(n)) => Outcome::Affected(n),
            Ok(Reply::Ddl | Reply::Text(_)) => Outcome::Other,
            Ok(Reply::Error { code, message }) => Outcome::Error(format!("[{code}] {message}")),
            Err(e) => Outcome::Error(format!("connection: {e}")),
        };
        (elapsed, outcome)
    }

    pub fn close(self) {
        // The server notices a dropped socket as well; a failed goodbye
        // frame changes nothing the benchmark measures.
        let _ = self.0.close();
    }
}

fn median_of(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// `protocol::encode_rows` / `decode_rows` on the result of `sql`:
/// median encode and decode time over `reps` calls.
pub fn wire_codec_probe(db: &Db, sql: &str, reps: usize) -> Result<(Duration, Duration), String> {
    let batch = db.query(sql).map_err(|e| e.to_string())?;
    let mut encode = Vec::with_capacity(reps);
    let mut decode = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let payload = protocol::encode_rows(&batch);
        encode.push(t.elapsed());
        let t = Instant::now();
        let decoded = protocol::decode_rows(&payload).map_err(|e| e.to_string())?;
        decode.push(t.elapsed());
        std::hint::black_box(decoded);
    }
    Ok((median_of(encode), median_of(decode)))
}

// ---- the checkpoint codec -------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct CheckpointProbe {
    pub write: Duration,
    pub read: Duration,
    pub file_bytes: u64,
    /// Rows × columns × 8: what the table's numbers occupy unencoded.
    pub user_bytes: u64,
}

/// `SpillManager::write_checkpoint` / `read_checkpoint` (durable, so each
/// write runs the whole flush protocol) on a checkpoint holding the
/// loaded `edges` table: median of `reps` write/read pairs.
pub fn checkpoint_probe(db: &Db, dir: &Path, reps: usize) -> Result<CheckpointProbe, String> {
    let table = db
        .catalog()
        .get("edges")
        .map_err(|e| e.to_string())?
        .snapshot();
    let user_bytes = (table.total_rows() * table.schema.len() * 8) as u64;
    let checkpoint = LoopCheckpoint {
        iteration: 1,
        cumulative_updates: table.total_rows() as u64,
        tables: vec![("edges".to_string(), table)],
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let manager = SpillManager::new(dir.to_path_buf(), Arc::new(MemoryMetrics::new()), None);
    let mut writes = Vec::with_capacity(reps);
    let mut reads = Vec::with_capacity(reps);
    let mut file_bytes = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let handle = manager
            .write_checkpoint("probe", &checkpoint)
            .map_err(|e| e.to_string())?;
        writes.push(t.elapsed());
        file_bytes = handle.file_bytes();
        let t = Instant::now();
        let back = manager
            .read_checkpoint(&handle, "probe")
            .map_err(|e| e.to_string())?;
        reads.push(t.elapsed());
        if back.tables.len() != 1
            || back.tables[0].1.total_rows() != checkpoint.tables[0].1.total_rows()
        {
            return Err("checkpoint did not read back whole".into());
        }
    }
    Ok(CheckpointProbe {
        write: median_of(writes),
        read: median_of(reads),
        file_bytes,
        user_bytes,
    })
}
