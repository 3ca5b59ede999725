//! Per-query observability: execution spans, per-iteration loop metrics,
//! and the structured [`QueryProfile`] behind `EXPLAIN ANALYZE`.
//!
//! The flat statement counters ([`crate::counters`]) answer "how much
//! did this statement cost in total"; this module answers "*which* step,
//! *which* operator and *which* loop iteration paid it". The executor
//! threads a [`Tracer`]
//! through every step and physical operator; when tracing is enabled the
//! tracer builds a tree of [`ProfileNode`]s (one per step-program step and
//! per physical operator) annotated with actual row counts, rows moved
//! through exchanges, estimated bytes and wall time. Loop operators
//! additionally record one [`IterationProfile`] per iteration — delta
//! rows, rows updated, working-table size and per-iteration wall time —
//! so convergence curves (Fig. 11 of the paper) fall out of a single run.
//!
//! The finished [`QueryProfile`] renders either as an annotated Table-I
//! style step program ([`QueryProfile::render`]) or as machine-readable
//! JSON ([`QueryProfile::to_json`]; the writer is hand-rolled because the
//! offline build has no `serde`).

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::counters::{CounterBlock, Group, StatsSnapshot};

/// What a profile span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A step-program step (Materialize / Rename / Merge).
    Step,
    /// A physical operator inside a step's plan fragment.
    Operator,
    /// A `loop` step; carries per-iteration metrics.
    Loop,
    /// The final plan (`Qf` in the paper) that produces the result rows.
    Return,
}

impl SpanKind {
    fn as_str(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Operator => "operator",
            SpanKind::Loop => "loop",
            SpanKind::Return => "return",
        }
    }
}

/// Metrics of one loop iteration (the paper's convergence-curve data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterationProfile {
    /// 1-based iteration number.
    pub iteration: u64,
    /// Rows that changed (iterative CTEs) or were newly added (recursive
    /// CTEs) in this iteration — the delta the termination check watches.
    pub delta_rows: u64,
    /// Rows reported as updated by this iteration's merge/replace.
    pub rows_updated: u64,
    /// Size of the CTE working table after the iteration.
    pub working_rows: u64,
    /// Wall time of the iteration in microseconds.
    pub elapsed_us: u64,
}

/// How an iterative loop evaluated its body — the `EXPLAIN ANALYZE`
/// `iteration:` line. Present only on [`SpanKind::Loop`] spans of
/// iterative CTEs (and omitted from JSON elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterationModeProfile {
    /// `true` when the optimizer proved the body delta-eligible and the
    /// loop ran semi-naive (joining the delta table); `false` for full
    /// recompute.
    pub semi_naive: bool,
    /// Total rows fed to the loop body through the delta table across all
    /// iterations; zero for full recompute.
    pub delta_rows: u64,
    /// Total changed rows the merge (or replace-path diff) folded back
    /// into the CTE table across all iterations.
    pub merged_rows: u64,
}

impl IterationModeProfile {
    /// The `mode=` token in the rendered line.
    pub fn mode(&self) -> &'static str {
        if self.semi_naive {
            "semi_naive"
        } else {
            "full"
        }
    }
}

/// Recovery events attributed to one span — the `EXPLAIN ANALYZE` view
/// of the checkpoint/retry/rollback machinery. All-zero (and omitted
/// from JSON) unless the recovery subsystem did something.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryProfile {
    /// Checkpoints snapshotted for this loop (including the entry
    /// checkpoint at iteration 0).
    pub checkpoints_taken: u64,
    /// Total estimated bytes captured by those snapshots.
    pub bytes_snapshotted: u64,
    /// In-place transient retries (partition workers and step re-runs).
    pub retries: u64,
    /// Rollbacks to the last checkpoint after retries were exhausted.
    pub rollbacks: u64,
    /// Iterations re-executed due to rollbacks (the failed iteration
    /// counts: it runs again).
    pub iterations_replayed: u64,
    /// Inclusive iteration ranges re-executed, one per rollback.
    pub replayed_ranges: Vec<(u64, u64)>,
}

impl RecoveryProfile {
    /// Whether the recovery subsystem recorded anything on this span.
    pub fn is_empty(&self) -> bool {
        self.checkpoints_taken == 0
            && self.bytes_snapshotted == 0
            && self.retries == 0
            && self.rollbacks == 0
            && self.iterations_replayed == 0
            && self.replayed_ranges.is_empty()
    }

    fn absorb(&mut self, other: RecoveryProfile) {
        self.checkpoints_taken += other.checkpoints_taken;
        self.bytes_snapshotted += other.bytes_snapshotted;
        self.retries += other.retries;
        self.rollbacks += other.rollbacks;
        self.iterations_replayed += other.iterations_replayed;
        self.replayed_ranges.extend(other.replayed_ranges);
    }
}

/// One node of the profile tree: a step, operator or loop with its
/// actual (not estimated) runtime counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Human-readable label, mirroring the EXPLAIN line for the same
    /// step/operator (e.g. `Materialize pagerank`, `Exchange: Hash(k)`).
    pub label: String,
    /// What this span measures.
    pub kind: SpanKind,
    /// Rows produced by the span (summed over executions).
    pub rows_out: u64,
    /// Rows that crossed a partition boundary inside the span (simulated
    /// network traffic; broadcast copies count too).
    pub rows_moved: u64,
    /// Estimated bytes of the span's output.
    pub bytes: u64,
    /// Wall time in microseconds (summed over executions).
    pub elapsed_us: u64,
    /// How many times the span executed — body steps of a 10-iteration
    /// loop report 10.
    pub execs: u64,
    /// Per-iteration metrics; non-empty only for [`SpanKind::Loop`].
    pub iterations: Vec<IterationProfile>,
    /// Semi-naive/full evaluation summary; `Some` only for the loop spans
    /// of iterative CTEs.
    pub iteration_mode: Option<IterationModeProfile>,
    /// Recovery events (checkpoints, retries, rollbacks) charged to this
    /// span; all-zero unless recovery is enabled and something failed.
    pub recovery: RecoveryProfile,
    /// Child spans (operators under a step, steps under a loop).
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(kind: SpanKind, label: String) -> Self {
        ProfileNode {
            label,
            kind,
            rows_out: 0,
            rows_moved: 0,
            bytes: 0,
            elapsed_us: 0,
            execs: 0,
            iterations: Vec::new(),
            iteration_mode: None,
            recovery: RecoveryProfile::default(),
            children: Vec::new(),
        }
    }

    /// Fold `other` (the same step re-executed in a later loop iteration)
    /// into this node: counters add up, `execs` counts executions, and
    /// children merge recursively by position + label.
    fn absorb(&mut self, other: ProfileNode) {
        self.rows_out += other.rows_out;
        self.rows_moved += other.rows_moved;
        self.bytes += other.bytes;
        self.elapsed_us += other.elapsed_us;
        self.execs += other.execs;
        self.iterations.extend(other.iterations);
        self.iteration_mode = match (self.iteration_mode, other.iteration_mode) {
            (Some(a), Some(b)) => Some(IterationModeProfile {
                semi_naive: a.semi_naive || b.semi_naive,
                delta_rows: a.delta_rows + b.delta_rows,
                merged_rows: a.merged_rows + b.merged_rows,
            }),
            (a, b) => a.or(b),
        };
        self.recovery.absorb(other.recovery);
        for (i, child) in other.children.into_iter().enumerate() {
            match self.children.get_mut(i) {
                Some(mine) if mine.label == child.label && mine.kind == child.kind => {
                    mine.absorb(child);
                }
                _ => self.children.push(child),
            }
        }
    }

    /// Depth-first search for the first node whose label contains `pat`.
    pub fn find(&self, pat: &str) -> Option<&ProfileNode> {
        if self.label.contains(pat) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(pat))
    }

    fn collect_loops<'a>(&'a self, out: &mut Vec<&'a ProfileNode>) {
        if self.kind == SpanKind::Loop {
            out.push(self);
        }
        for c in &self.children {
            c.collect_loops(out);
        }
    }

    fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("rows_out".into(), Json::Num(self.rows_out)),
            ("rows_moved".into(), Json::Num(self.rows_moved)),
            ("bytes".into(), Json::Num(self.bytes)),
            ("elapsed_us".into(), Json::Num(self.elapsed_us)),
            ("execs".into(), Json::Num(self.execs)),
            (
                "iterations".into(),
                Json::Arr(
                    self.iterations
                        .iter()
                        .map(|it| {
                            Json::Obj(vec![
                                ("iteration".into(), Json::Num(it.iteration)),
                                ("delta_rows".into(), Json::Num(it.delta_rows)),
                                ("rows_updated".into(), Json::Num(it.rows_updated)),
                                ("working_rows".into(), Json::Num(it.working_rows)),
                                ("elapsed_us".into(), Json::Num(it.elapsed_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "children".into(),
                Json::Arr(self.children.iter().map(|c| c.to_json_value()).collect()),
            ),
        ];
        // Like `recovery`, the key appears only on loops that report a
        // mode, keeping older profiles byte-identical.
        if let Some(m) = &self.iteration_mode {
            fields.push((
                "iteration_mode".into(),
                Json::Obj(vec![
                    ("mode".into(), Json::Str(m.mode().into())),
                    ("delta_rows".into(), Json::Num(m.delta_rows)),
                    ("merged_rows".into(), Json::Num(m.merged_rows)),
                ]),
            ));
        }
        // Keep untraced-recovery profiles byte-identical to the PR-2
        // format: the key appears only when recovery did something.
        if !self.recovery.is_empty() {
            let r = &self.recovery;
            fields.push((
                "recovery".into(),
                Json::Obj(vec![
                    ("checkpoints_taken".into(), Json::Num(r.checkpoints_taken)),
                    ("bytes_snapshotted".into(), Json::Num(r.bytes_snapshotted)),
                    ("retries".into(), Json::Num(r.retries)),
                    ("rollbacks".into(), Json::Num(r.rollbacks)),
                    (
                        "iterations_replayed".into(),
                        Json::Num(r.iterations_replayed),
                    ),
                    (
                        "replayed_ranges".into(),
                        Json::Arr(
                            r.replayed_ranges
                                .iter()
                                .map(|&(from, to)| {
                                    Json::Obj(vec![
                                        ("from".into(), Json::Num(from)),
                                        ("to".into(), Json::Num(to)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

/// The structured result of `EXPLAIN ANALYZE`: the executed step program
/// annotated with actual row counts, timings and per-iteration metrics.
///
/// ```
/// use spinner_common::profile::{QueryProfile, SpanKind, Tracer};
///
/// let tracer = Tracer::new();
/// tracer.enter(SpanKind::Step, "Materialize t".to_string());
/// tracer.exit(4, 64);
/// let profile = tracer.finish();
/// assert_eq!(profile.roots[0].rows_out, 4);
///
/// // The machine-readable rendering carries every counter of every span.
/// let json = profile.to_json();
/// assert!(json.contains(r#""label":"Materialize t","kind":"step","rows_out":4,"#));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryProfile {
    /// Top-level spans: the statement's steps, loops and final `Return`.
    pub roots: Vec<ProfileNode>,
    /// End-to-end wall time of the statement in microseconds.
    pub total_elapsed_us: u64,
    /// Spill counters of the statement ([`Group::Spill`]); empty unless
    /// memory pressure made the engine track or spill intermediate state.
    pub spill: CounterBlock,
    /// Parallel-partition / join-cache counters ([`Group::Pool`]); empty for
    /// serial statements with no cacheable joins.
    pub pool: CounterBlock,
    /// Admission-control activity: `waited_ms`, `queue_depth` at enqueue
    /// time and the server-wide `shed` total. Empty when the statement
    /// started without queueing on a server that has shed nothing.
    pub admission: CounterBlock,
    /// Durability counters ([`Group::Durability`]); empty when the
    /// statement never wrote or verified on-disk state.
    pub durability: CounterBlock,
    /// Restart-recovery provenance ([`Group::Restart`]); empty unless this
    /// statement resumed a loop adopted from a dead process's journal.
    pub restart: CounterBlock,
}

impl QueryProfile {
    /// The statement-level counter blocks in print order.
    fn blocks(&self) -> [(Group, &CounterBlock); 5] {
        [
            (Group::Spill, &self.spill),
            (Group::Pool, &self.pool),
            (Group::Admission, &self.admission),
            (Group::Durability, &self.durability),
            (Group::Restart, &self.restart),
        ]
    }

    /// Fill the counter blocks from the finished statement's counters.
    /// The spans carry per-step detail; spill, scheduling, durability and
    /// restart activity is only counted per statement. The admission
    /// block holds derived values and is set by the engine.
    pub fn attach_counters(&mut self, counters: &StatsSnapshot) {
        self.spill = counters.block(Group::Spill);
        self.pool = counters.block(Group::Pool);
        self.durability = counters.block(Group::Durability);
        self.restart = counters.block(Group::Restart);
    }

    /// All loop nodes in the profile, in execution order. Each carries the
    /// per-iteration convergence data in [`ProfileNode::iterations`].
    pub fn loops(&self) -> Vec<&ProfileNode> {
        let mut out = Vec::new();
        for r in &self.roots {
            r.collect_loops(&mut out);
        }
        out
    }

    /// Depth-first search for the first node whose label contains `pat`.
    pub fn find(&self, pat: &str) -> Option<&ProfileNode> {
        self.roots.iter().find_map(|r| r.find(pat))
    }

    /// Machine-readable JSON rendering (the CLI's `\json` toggle). A
    /// span's `iteration_mode` and `recovery` keys, and a statement's
    /// counter blocks, appear only when set.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("total_elapsed_us".into(), Json::Num(self.total_elapsed_us)),
            (
                "roots".into(),
                Json::Arr(self.roots.iter().map(|r| r.to_json_value()).collect()),
            ),
        ];
        // Like the recovery key, a block's key appears only when one of
        // its counters is non-zero.
        for (group, block) in self.blocks() {
            if let (Some((name, _)), false) = (group.block(), block.is_empty()) {
                let values = block
                    .entries()
                    .iter()
                    .map(|&(label, value)| (label.key.into(), Json::Num(value)))
                    .collect();
                fields.push((name.into(), Json::Obj(values)));
            }
        }
        let v = Json::Obj(fields);
        let mut out = String::new();
        v.write(&mut out);
        out
    }

    /// Annotated Table-I style rendering: the numbered step program with
    /// actual rows, movement and timings per step, and a per-iteration
    /// metrics table under every loop operator.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut step_no = 1usize;
        for node in &self.roots {
            render_node(node, &mut step_no, 0, &mut out);
        }
        for (group, block) in self.blocks() {
            block.render(group, &mut out);
        }
        let _ = writeln!(
            out,
            "Total: {:.3} ms",
            self.total_elapsed_us as f64 / 1000.0
        );
        out
    }
}

fn metrics_suffix(node: &ProfileNode) -> String {
    let mut s = format!("(actual rows={}", node.rows_out);
    if node.rows_moved > 0 {
        let _ = write!(s, ", moved={}", node.rows_moved);
    }
    if node.execs > 1 {
        let _ = write!(s, ", execs={}", node.execs);
    }
    let _ = write!(s, ", time={:.3} ms)", node.elapsed_us as f64 / 1000.0);
    s
}

fn render_recovery(node: &ProfileNode, pad: &str, out: &mut String) {
    if node.recovery.is_empty() {
        return;
    }
    let r = &node.recovery;
    let ranges = r
        .replayed_ranges
        .iter()
        .map(|(from, to)| format!("{from}-{to}"))
        .collect::<Vec<_>>()
        .join(",");
    let _ = writeln!(
        out,
        "{pad}   recovery: checkpoints={} ({} B), retries={}, rollbacks={}, \
         replayed={} [{}]",
        r.checkpoints_taken,
        r.bytes_snapshotted,
        r.retries,
        r.rollbacks,
        r.iterations_replayed,
        ranges
    );
}

fn render_node(node: &ProfileNode, step_no: &mut usize, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match node.kind {
        SpanKind::Operator => {
            let _ = writeln!(out, "{pad}{}  {}", node.label, metrics_suffix(node));
            render_recovery(node, &pad, out);
            for c in &node.children {
                render_node(c, step_no, indent + 1, out);
            }
        }
        SpanKind::Step | SpanKind::Return => {
            let _ = writeln!(
                out,
                "{pad}{step_no}. {}  {}",
                node.label,
                metrics_suffix(node)
            );
            *step_no += 1;
            render_recovery(node, &pad, out);
            for c in &node.children {
                render_node(c, step_no, indent + 2, out);
            }
        }
        SpanKind::Loop => {
            let _ = writeln!(
                out,
                "{pad}{step_no}. {}  (iterations={}, time={:.3} ms)",
                node.label,
                node.iterations.len(),
                node.elapsed_us as f64 / 1000.0
            );
            *step_no += 1;
            if let Some(m) = &node.iteration_mode {
                let _ = writeln!(
                    out,
                    "{pad}   iteration: mode={}, delta_rows={}, merged_rows={}",
                    m.mode(),
                    m.delta_rows,
                    m.merged_rows
                );
            }
            let loop_start = *step_no;
            for c in &node.children {
                render_node(c, step_no, indent + 1, out);
            }
            let _ = writeln!(
                out,
                "{pad}{step_no}. Go to step {loop_start} if loop condition holds."
            );
            *step_no += 1;
            if !node.iterations.is_empty() {
                let _ = writeln!(
                    out,
                    "{pad}   {:>5} {:>10} {:>10} {:>10} {:>11}",
                    "iter", "delta", "updated", "working", "time_ms"
                );
                for it in &node.iterations {
                    let _ = writeln!(
                        out,
                        "{pad}   {:>5} {:>10} {:>10} {:>10} {:>11.3}",
                        it.iteration,
                        it.delta_rows,
                        it.rows_updated,
                        it.working_rows,
                        it.elapsed_us as f64 / 1000.0
                    );
                }
            }
            render_recovery(node, &pad, out);
        }
    }
}

// ---- tracer ------------------------------------------------------------

#[derive(Debug)]
struct Frame {
    node: ProfileNode,
    started: Instant,
    /// Aggregated-children count when the current iteration began; children
    /// appended past this index are this iteration's and get folded back at
    /// `end_iteration`.
    iter_base: usize,
    iter_started: Option<Instant>,
}

/// An open span set aside by [`Tracer::suspend`] (nothing, when the
/// tracer is disabled).
#[derive(Debug)]
pub struct SuspendedSpan(Option<(Frame, Instant)>);

struct TracerState {
    started: Instant,
    roots: Vec<ProfileNode>,
    stack: Vec<Frame>,
}

/// Span collector threaded through the executor.
///
/// Disabled tracers ([`Tracer::disabled`]) are free: every method returns
/// before touching the lock. Enabled tracers are `Sync` (the operator
/// context crosses partition-worker threads) but effectively uncontended —
/// spans are opened and closed by the plan-driving thread only.
///
/// Frames left open by an error path are closed by [`Tracer::finish`];
/// profiles of failed statements are discarded by the engine anyway.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    inner: Mutex<TracerState>,
}

impl std::fmt::Debug for TracerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerState")
            .field("roots", &self.roots.len())
            .field("stack", &self.stack.len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// An enabled tracer; the engine creates one per `EXPLAIN ANALYZE`.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            inner: Mutex::new(TracerState {
                started: Instant::now(),
                roots: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// A no-op tracer for untraced statements (the default).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            inner: Mutex::new(TracerState {
                started: Instant::now(),
                roots: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// Whether spans are being collected. Callers use this to skip
    /// metric computations (row counts, byte estimates) that only feed
    /// the profile.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`Tracer::exit`].
    pub fn enter(&self, kind: SpanKind, label: String) {
        if !self.enabled {
            return;
        }
        self.lock().stack.push(Frame {
            node: ProfileNode::new(kind, label),
            started: Instant::now(),
            iter_base: 0,
            iter_started: None,
        });
    }

    /// Close the innermost span, recording its output size.
    pub fn exit(&self, rows_out: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.lock();
        let Some(frame) = state.stack.pop() else {
            return;
        };
        let mut node = frame.node;
        node.rows_out = rows_out;
        node.bytes = bytes;
        node.elapsed_us = frame.started.elapsed().as_micros() as u64;
        node.execs = 1;
        match state.stack.last_mut() {
            Some(parent) => parent.node.children.push(node),
            None => state.roots.push(node),
        }
    }

    /// Take the innermost open span off the stack, its clock stopped, so
    /// that spans opened before [`Tracer::resume`] become its siblings. An
    /// operator that must run two inputs before it can finish either uses
    /// this; a span never resumed is dropped.
    pub fn suspend(&self) -> SuspendedSpan {
        if !self.enabled {
            return SuspendedSpan(None);
        }
        SuspendedSpan(self.lock().stack.pop().map(|frame| (frame, Instant::now())))
    }

    /// Put a [`suspended`](Tracer::suspend) span back as the innermost,
    /// its clock running again, relabeled if `label` is given.
    pub fn resume(&self, span: SuspendedSpan, label: Option<String>) {
        let Some((mut frame, suspended)) = span.0 else {
            return;
        };
        frame.started += suspended.elapsed();
        if let Some(label) = label {
            frame.node.label = label;
        }
        self.lock().stack.push(frame);
    }

    /// Charge rows moved through an exchange to the innermost open span.
    pub fn note_rows_moved(&self, rows: u64) {
        if !self.enabled || rows == 0 {
            return;
        }
        if let Some(frame) = self.lock().stack.last_mut() {
            frame.node.rows_moved += rows;
        }
    }

    /// Mark the start of a loop iteration. Must be called with the loop's
    /// span innermost; body-step spans opened afterwards are attributed to
    /// this iteration until [`Tracer::end_iteration`].
    pub fn begin_iteration(&self) {
        if !self.enabled {
            return;
        }
        if let Some(frame) = self.lock().stack.last_mut() {
            frame.iter_base = frame.node.children.len();
            frame.iter_started = Some(Instant::now());
        }
    }

    /// Close the current loop iteration: fold its body spans into the
    /// loop's aggregated children (summing counters, bumping `execs`) and
    /// record the iteration's convergence metrics.
    pub fn end_iteration(&self, delta_rows: u64, rows_updated: u64, working_rows: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.lock();
        let Some(frame) = state.stack.last_mut() else {
            return;
        };
        let fresh: Vec<ProfileNode> = frame.node.children.split_off(frame.iter_base);
        for (i, child) in fresh.into_iter().enumerate() {
            match frame.node.children.get_mut(i) {
                Some(agg) if agg.label == child.label && agg.kind == child.kind => {
                    agg.absorb(child);
                }
                _ => frame.node.children.push(child),
            }
        }
        let elapsed_us = frame
            .iter_started
            .take()
            .map(|t| t.elapsed().as_micros() as u64)
            .unwrap_or(0);
        let iteration = frame.node.iterations.len() as u64 + 1;
        frame.node.iterations.push(IterationProfile {
            iteration,
            delta_rows,
            rows_updated,
            working_rows,
            elapsed_us,
        });
    }

    /// Record which iteration strategy the innermost open loop span ran
    /// with, adding this iteration's delta/merge row counts to the span's
    /// totals. The executor calls it once per iteration; repeated calls
    /// accumulate, so the rendered line shows whole-loop totals.
    pub fn note_iteration_mode(&self, semi_naive: bool, delta_rows: u64, merged_rows: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.lock();
        if let Some(i) = state
            .stack
            .iter()
            .rposition(|fr| fr.node.kind == SpanKind::Loop)
        {
            let m = state.stack[i]
                .node
                .iteration_mode
                .get_or_insert(IterationModeProfile {
                    semi_naive,
                    delta_rows: 0,
                    merged_rows: 0,
                });
            m.semi_naive = semi_naive;
            m.delta_rows += delta_rows;
            m.merged_rows += merged_rows;
        }
    }

    /// Discard the current (failed) loop iteration: drop the partial body
    /// spans opened since [`Tracer::begin_iteration`] without folding them
    /// into the aggregated children, and close the iteration timer. The
    /// recovery subsystem calls this before rolling back; the rollback
    /// itself is recorded via [`Tracer::note_rollback`].
    pub fn abort_iteration(&self) {
        if !self.enabled {
            return;
        }
        if let Some(frame) = self.lock().stack.last_mut() {
            let base = frame.iter_base;
            if frame.node.children.len() > base {
                frame.node.children.truncate(base);
            }
            frame.iter_started = None;
        }
    }

    /// Attribute a recovery event to the innermost open *loop* span, or —
    /// for retries outside any loop (e.g. the final `Return` query) — to
    /// the innermost span.
    fn with_recovery(&self, f: impl FnOnce(&mut RecoveryProfile)) {
        if !self.enabled {
            return;
        }
        let mut state = self.lock();
        let idx = state
            .stack
            .iter()
            .rposition(|fr| fr.node.kind == SpanKind::Loop)
            .or_else(|| state.stack.len().checked_sub(1));
        if let Some(i) = idx {
            f(&mut state.stack[i].node.recovery);
        }
    }

    /// Record a checkpoint snapshot of `bytes` estimated bytes.
    pub fn note_checkpoint(&self, bytes: u64) {
        self.with_recovery(|r| {
            r.checkpoints_taken += 1;
            r.bytes_snapshotted += bytes;
        });
    }

    /// Record one in-place transient retry (partition worker or step).
    pub fn note_retry(&self) {
        self.with_recovery(|r| r.retries += 1);
    }

    /// Record a rollback that will replay iterations `replay_from` through
    /// `failed_iteration` inclusive.
    pub fn note_rollback(&self, replay_from: u64, failed_iteration: u64) {
        self.with_recovery(|r| {
            r.rollbacks += 1;
            r.iterations_replayed += failed_iteration.saturating_sub(replay_from) + 1;
            r.replayed_ranges.push((replay_from, failed_iteration));
        });
    }

    /// Consume the collected spans into a [`QueryProfile`]. Any spans
    /// still open (error paths) are closed with zero output.
    pub fn finish(&self) -> QueryProfile {
        let mut state = self.lock();
        while let Some(frame) = state.stack.pop() {
            let mut node = frame.node;
            node.elapsed_us = frame.started.elapsed().as_micros() as u64;
            node.execs = 1;
            match state.stack.last_mut() {
                Some(parent) => parent.node.children.push(node),
                None => state.roots.push(node),
            }
        }
        QueryProfile {
            roots: std::mem::take(&mut state.roots),
            total_elapsed_us: state.started.elapsed().as_micros() as u64,
            ..QueryProfile::default()
        }
    }
}

// ---- minimal JSON ------------------------------------------------------
// The offline build has no `serde`, so the profile carries its own tiny
// JSON writer: objects, arrays, strings and unsigned integers.

enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::COUNTERS;

    fn sample_profile() -> QueryProfile {
        let tracer = Tracer::new();
        tracer.enter(SpanKind::Step, "Materialize t".into());
        tracer.enter(SpanKind::Operator, "SeqScan: edges".into());
        tracer.exit(10, 80);
        tracer.exit(10, 80);
        tracer.enter(SpanKind::Loop, "Initialize loop operator for t".into());
        for i in 0..3u64 {
            tracer.begin_iteration();
            tracer.enter(SpanKind::Step, "Materialize __work_t".into());
            tracer.note_rows_moved(2);
            tracer.exit(10, 80);
            tracer.enter(SpanKind::Step, "Rename __work_t to t".into());
            tracer.exit(0, 0);
            tracer.end_iteration(10 - i, 10 - i, 10);
        }
        tracer.exit(10, 80);
        tracer.enter(SpanKind::Return, "Return".into());
        tracer.exit(10, 80);
        tracer.finish()
    }

    #[test]
    fn spans_nest_and_iterations_merge() {
        let p = sample_profile();
        assert_eq!(p.roots.len(), 3);
        let loop_node = &p.roots[1];
        assert_eq!(loop_node.kind, SpanKind::Loop);
        // Body steps merged: 2 aggregated children, each executed 3 times.
        assert_eq!(loop_node.children.len(), 2);
        assert_eq!(loop_node.children[0].execs, 3);
        assert_eq!(loop_node.children[0].rows_out, 30);
        assert_eq!(loop_node.children[0].rows_moved, 6);
        // Three iteration records with decreasing deltas.
        assert_eq!(loop_node.iterations.len(), 3);
        assert_eq!(loop_node.iterations[0].delta_rows, 10);
        assert_eq!(loop_node.iterations[2].delta_rows, 8);
        assert_eq!(loop_node.iterations[2].iteration, 3);
    }

    /// `p` with every wall time fixed, so that its JSON text is exact.
    fn fixed_times(mut p: QueryProfile) -> QueryProfile {
        fn fix(node: &mut ProfileNode) {
            node.elapsed_us = 7;
            node.iterations.iter_mut().for_each(|it| it.elapsed_us = 5);
            node.children.iter_mut().for_each(fix);
        }
        p.total_elapsed_us = 99;
        p.roots.iter_mut().for_each(fix);
        p
    }

    /// Every field of every span and iteration is in the JSON text, in a
    /// fixed order and format.
    #[test]
    fn json_round_trip_is_lossless() {
        let json = fixed_times(sample_profile()).to_json();
        let step = r#""rows_moved":0,"bytes":80,"elapsed_us":7,"execs":1,"iterations":[]"#;
        let expected = [
            r#"{"total_elapsed_us":99,"roots":["#,
            r#"{"label":"Materialize t","kind":"step","rows_out":10,"#,
            step,
            r#","children":[{"label":"SeqScan: edges","kind":"operator","rows_out":10,"#,
            step,
            r#","children":[]}]},"#,
            r#"{"label":"Initialize loop operator for t","kind":"loop","rows_out":10,"#,
            r#""rows_moved":0,"bytes":80,"elapsed_us":7,"execs":1,"iterations":["#,
            r#"{"iteration":1,"delta_rows":10,"rows_updated":10,"working_rows":10,"elapsed_us":5},"#,
            r#"{"iteration":2,"delta_rows":9,"rows_updated":9,"working_rows":10,"elapsed_us":5},"#,
            r#"{"iteration":3,"delta_rows":8,"rows_updated":8,"working_rows":10,"elapsed_us":5}],"#,
            r#""children":[{"label":"Materialize __work_t","kind":"step","rows_out":30,"#,
            r#""rows_moved":6,"bytes":240,"elapsed_us":7,"execs":3,"iterations":[],"children":[]},"#,
            r#"{"label":"Rename __work_t to t","kind":"step","rows_out":0,"#,
            r#""rows_moved":0,"bytes":0,"elapsed_us":7,"execs":3,"iterations":[],"children":[]}]},"#,
            r#"{"label":"Return","kind":"return","rows_out":10,"#,
            step,
            r#","children":[]}]}"#,
        ];
        assert_eq!(json, expected.concat());
    }

    #[test]
    fn json_escapes_special_characters() {
        let tracer = Tracer::new();
        tracer.enter(
            SpanKind::Step,
            "weird \"label\"\\ with\nnewline\tand\u{1}".into(),
        );
        tracer.exit(1, 1);
        let json = tracer.finish().to_json();
        assert!(
            json.contains(r#""label":"weird \"label\"\\ with\nnewline\tand\u0001","#),
            "{json}"
        );
    }

    #[test]
    fn render_numbers_steps_and_prints_iteration_table() {
        let p = sample_profile();
        let text = p.render();
        assert!(text.contains("1. Materialize t"), "{text}");
        assert!(text.contains("actual rows=10"), "{text}");
        assert!(text.contains("2. Initialize loop operator"), "{text}");
        assert!(
            text.contains("Go to step 3 if loop condition holds."),
            "{text}"
        );
        assert!(text.contains("iter"), "{text}");
        assert!(text.contains("execs=3"), "{text}");
        assert!(text.contains("Total:"), "{text}");
    }

    #[test]
    fn disabled_tracer_collects_nothing() {
        let tracer = Tracer::disabled();
        tracer.enter(SpanKind::Step, "Materialize t".into());
        tracer.exit(10, 80);
        let p = tracer.finish();
        assert!(p.roots.is_empty());
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn finish_closes_abandoned_frames() {
        let tracer = Tracer::new();
        tracer.enter(SpanKind::Step, "outer".into());
        tracer.enter(SpanKind::Operator, "inner".into());
        // Error path: no exits. finish() must still produce a tree.
        let p = tracer.finish();
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].children.len(), 1);
    }

    /// A suspended span is off the stack until it is resumed: spans opened
    /// meanwhile are its siblings, moves noted meanwhile are not its own,
    /// and it closes under its new label after them. A span never resumed
    /// is dropped; a disabled tracer suspends nothing.
    #[test]
    fn a_suspended_span_resumes_beside_its_siblings() {
        let tracer = Tracer::new();
        tracer.enter(SpanKind::Operator, "HashJoin(Inner)".into());
        tracer.enter(SpanKind::Operator, "Exchange: Hash(a)".into());
        let probe = tracer.suspend();
        tracer.enter(SpanKind::Operator, "Exchange: Hash(b)".into());
        tracer.enter(SpanKind::Operator, "TempScan: t".into());
        tracer.exit(4, 32);
        let build = tracer.suspend();
        tracer.note_rows_moved(5);
        tracer.resume(probe, Some("Exchange: in place instead of Hash(a)".into()));
        tracer.exit(9, 72);
        tracer.resume(build, None);
        tracer.note_rows_moved(4);
        tracer.exit(8, 64);
        tracer.enter(SpanKind::Operator, "Exchange: Gather".into());
        drop(tracer.suspend());
        tracer.exit(1, 8);
        let p = tracer.finish();
        let join = &p.roots[0];
        let labels: Vec<&str> = join.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            ["Exchange: in place instead of Hash(a)", "Exchange: Hash(b)"]
        );
        let moved: Vec<u64> = join.children.iter().map(|c| c.rows_moved).collect();
        assert_eq!((join.rows_moved, moved), (5, vec![0, 4]));
        assert_eq!(join.children[1].children[0].label, "TempScan: t");
        let disabled = Tracer::disabled();
        disabled.enter(SpanKind::Operator, "x".into());
        disabled.resume(disabled.suspend(), Some("y".into()));
        assert!(disabled.finish().roots.is_empty());
    }

    fn recovery_profile() -> QueryProfile {
        let tracer = Tracer::new();
        tracer.enter(SpanKind::Loop, "Initialize loop operator for t".into());
        tracer.note_checkpoint(128);
        tracer.begin_iteration();
        tracer.enter(SpanKind::Step, "Materialize __work_t".into());
        tracer.exit(10, 80);
        tracer.end_iteration(10, 10, 10);
        // Iteration 2 fails mid-body: partial span discarded, rollback to
        // the entry checkpoint, iterations 1-2 replayed.
        tracer.begin_iteration();
        tracer.enter(SpanKind::Step, "Materialize __work_t".into());
        tracer.exit(3, 24);
        tracer.abort_iteration();
        tracer.note_rollback(1, 2);
        tracer.exit(10, 80);
        tracer.finish()
    }

    #[test]
    fn recovery_events_attach_to_the_loop_span() {
        let p = recovery_profile();
        let loop_node = &p.roots[0];
        assert_eq!(loop_node.recovery.checkpoints_taken, 1);
        assert_eq!(loop_node.recovery.bytes_snapshotted, 128);
        assert_eq!(loop_node.recovery.rollbacks, 1);
        assert_eq!(loop_node.recovery.iterations_replayed, 2);
        assert_eq!(loop_node.recovery.replayed_ranges, vec![(1, 2)]);
        // The aborted iteration's partial span was discarded: the body
        // step aggregates one completed execution only.
        assert_eq!(loop_node.children.len(), 1);
        assert_eq!(loop_node.children[0].execs, 1);
        assert_eq!(loop_node.iterations.len(), 1);
    }

    /// A span's `recovery` and `iteration_mode` objects carry every value
    /// when set and are absent otherwise.
    #[test]
    fn recovery_json_round_trips_and_is_absent_when_empty() {
        let json = recovery_profile().to_json();
        assert!(
            json.contains(
                r#""recovery":{"checkpoints_taken":1,"bytes_snapshotted":128,"retries":0,"rollbacks":1,"iterations_replayed":2,"replayed_ranges":[{"from":1,"to":2}]}"#
            ),
            "{json}"
        );
        let clean_json = sample_profile().to_json();
        assert!(!clean_json.contains("\"recovery\""), "{clean_json}");
        assert!(!clean_json.contains("\"iteration_mode\""), "{clean_json}");
        let tracer = Tracer::new();
        tracer.enter(SpanKind::Loop, "Initialize loop operator for t".into());
        tracer.note_iteration_mode(true, 4, 3);
        tracer.note_iteration_mode(true, 1, 2);
        tracer.exit(10, 80);
        let json = tracer.finish().to_json();
        assert!(
            json.contains(
                r#""iteration_mode":{"mode":"semi_naive","delta_rows":5,"merged_rows":5}"#
            ),
            "{json}"
        );
    }

    #[test]
    fn render_shows_the_recovery_story() {
        let p = recovery_profile();
        let text = p.render();
        assert!(text.contains("recovery: checkpoints=1 (128 B)"), "{text}");
        assert!(text.contains("rollbacks=1"), "{text}");
        assert!(text.contains("[1-2]"), "{text}");
    }

    #[test]
    fn retry_outside_a_loop_lands_on_the_innermost_span() {
        let tracer = Tracer::new();
        tracer.enter(SpanKind::Return, "Return".into());
        tracer.note_retry();
        tracer.exit(5, 40);
        let p = tracer.finish();
        assert_eq!(p.roots[0].recovery.retries, 1);
        assert!(!p.roots[0].recovery.is_empty());
    }

    /// Every counter the table places in an `EXPLAIN ANALYZE` block, set
    /// alone: its line and JSON object appear with exactly that value (and
    /// every other key of the block at 0), and are absent again when it is
    /// zero.
    #[test]
    fn every_block_counter_renders_round_trips_and_is_omitted_when_zero() {
        let clean = sample_profile();
        let clean_json = clean.to_json();
        let clean_text = clean.render();
        for (i, def) in COUNTERS.iter().enumerate() {
            let mut p = clean.clone();
            p.attach_counters(&StatsSnapshot::only(i, 42));
            let Some(label) = &def.block else {
                assert_eq!(p, clean, "{} has no block", def.name);
                continue;
            };
            let (name, _) = def.group.block().unwrap();
            let text = p.render();
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("{name}: ")))
                .unwrap_or_else(|| panic!("no {name} line in {text}"));
            assert!(
                line.contains(&format!("{}=42{}", label.label, label.unit)),
                "{line}"
            );
            let values: Vec<String> = def
                .group
                .block_labels()
                .iter()
                .map(|l| format!("\"{}\":{}", l.key, if *l == label { 42 } else { 0 }))
                .collect();
            let json = p.to_json();
            let object = format!("\"{name}\":{{{}}}", values.join(","));
            assert!(json.contains(&object), "{object} missing from {json}");
            p.attach_counters(&StatsSnapshot::default());
            assert_eq!(p.to_json(), clean_json, "{name} omitted when zero");
            assert_eq!(p.render().lines().count(), clean_text.lines().count());
        }
    }

    #[test]
    fn block_lines_keep_their_formats() {
        let mut p = sample_profile();
        p.attach_counters(&StatsSnapshot {
            spill_events: 1,
            spill_bytes_written: 2,
            spill_bytes_read: 3,
            peak_tracked_bytes: 4,
            pool_tasks: 5,
            join_builds_reused: 6,
            durability_fsyncs: 7,
            restart_adopted_epoch: 4,
            restart_resumed_iteration: 8,
            restart_replayed_iterations: 2,
            ..StatsSnapshot::default()
        });
        p.admission = CounterBlock::new(Group::Admission, &[12, 3, 1]);
        let text = p.render();
        for line in [
            "spill: events=1, written=2 B, read=3 B, peak_tracked=4 B",
            "pool: threads_spawned=0, pool_tasks=5, join_builds=0, join_reused=6",
            "admission: waited_ms=12, queue_depth=3, shed=1",
            "durability: epochs=0 verified=0 corrupt_detected=0 refsync=7",
            "restart: adopted_epoch=4 resumed_iteration=8 replayed_iterations=2",
        ] {
            assert!(text.contains(line), "{line} missing from {text}");
        }
        let json = p.to_json();
        assert!(
            json.ends_with(concat!(
                r#""spill":{"events":1,"bytes_written":2,"bytes_read":3,"peak_tracked_bytes":4},"#,
                r#""pool":{"threads_spawned":0,"pool_tasks":5,"join_builds":0,"join_builds_reused":6},"#,
                r#""admission":{"waited_ms":12,"queue_depth":3,"shed":1},"#,
                r#""durability":{"epochs":0,"verified":0,"corrupt_detected":0,"refsync":7},"#,
                r#""restart":{"adopted_epoch":4,"resumed_iteration":8,"replayed_iterations":2}}"#,
            )),
            "{json}"
        );
    }

    #[test]
    fn find_locates_nested_nodes() {
        let p = sample_profile();
        assert!(p.find("SeqScan").is_some());
        assert!(p.find("Rename __work_t").is_some());
        assert!(p.find("nonexistent").is_none());
        assert_eq!(p.loops().len(), 1);
    }
}
