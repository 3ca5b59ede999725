//! Span recorder of the traced pass and the `QueryProfile` accounting.
//!
//! Spans are recorded from outside the engine: one per timed call into a
//! public function. A `QueryProfile` returned by `EXPLAIN ANALYZE` is
//! flattened into child spans of the call that produced it. Everything is
//! kept in memory and written out once, when the run ends.

use std::path::Path;
use std::time::{Duration, Instant};

use spinner_common::{ProfileNode, QueryProfile, SpanKind};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_stmt: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            next_stmt: 0,
        }
    }

    pub fn next_statement(&mut self) -> u64 {
        self.next_stmt += 1;
        self.next_stmt
    }

    /// Record a call that started at `start` and took `elapsed`.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        stmt: u64,
        start: Instant,
        elapsed: Duration,
    ) -> usize {
        let start_us = start.duration_since(self.origin).as_micros() as u64;
        self.push(
            name.to_string(),
            parent,
            stmt,
            start_us,
            elapsed.as_micros() as u64,
        )
    }

    fn push(
        &mut self,
        name: String,
        parent: Option<usize>,
        stmt: u64,
        start_us: u64,
        dur_us: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_us,
            end_us: start_us + dur_us,
        });
        id
    }

    /// Flatten a profile tree under `parent`. The engine reports each
    /// node's summed duration (a loop-body step is one node however often
    /// it ran), not wall-clock positions, so siblings are laid end to end
    /// from their parent's start: durations are exact, offsets nominal.
    pub fn flatten_profile(&mut self, profile: &QueryProfile, parent: usize, stmt: u64) {
        let mut cursor = self.spans[parent].start_us;
        for root in &profile.roots {
            self.flatten_node(root, parent, stmt, cursor);
            cursor += root.elapsed_us;
        }
    }

    fn flatten_node(&mut self, node: &ProfileNode, parent: usize, stmt: u64, start_us: u64) {
        let name = format!("exec:{}:{}", group_of(node).name(), node.label);
        let id = self.push(name, Some(parent), stmt, start_us, node.elapsed_us);
        let mut cursor = start_us;
        for child in &node.children {
            self.flatten_node(child, id, stmt, cursor);
            cursor += child.elapsed_us;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("stmt", Json::Num(s.stmt as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.render())
    }
}

/// What a profile node's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Join,
    Aggregate,
    Exchange,
    Scan,
    /// Row-at-a-time operators: project, filter, sort, limit, distinct,
    /// set operations, literal rows.
    RowOps,
    /// Materialize / rename / merge steps and loop control.
    Step,
    Return,
    /// A label this harness does not know: the traced pass fails on it, so
    /// a new operator cannot silently fall out of the accounting.
    Other,
}

impl Group {
    pub fn name(self) -> &'static str {
        match self {
            Group::Join => "join",
            Group::Aggregate => "aggregate",
            Group::Exchange => "exchange",
            Group::Scan => "scan",
            Group::RowOps => "rowops",
            Group::Step => "step",
            Group::Return => "return",
            Group::Other => "other",
        }
    }
}

/// Classify an operator label as `PhysicalPlan::describe` prints it.
pub fn group_of_label(label: &str) -> Group {
    const PREFIXES: &[(&str, Group)] = &[
        ("HashJoin(", Group::Join),
        ("NestedLoopJoin(", Group::Join),
        ("HashAggregate:", Group::Aggregate),
        ("AggregatePartial:", Group::Aggregate),
        ("AggregateFinal:", Group::Aggregate),
        ("Exchange:", Group::Exchange),
        ("SeqScan:", Group::Scan),
        ("TempScan:", Group::Scan),
        ("Values:", Group::RowOps),
        ("Project:", Group::RowOps),
        ("Filter:", Group::RowOps),
        ("Sort:", Group::RowOps),
        ("Limit:", Group::RowOps),
    ];
    const EXACT: &[&str] = &[
        "Distinct",
        "Union",
        "Union All",
        "Intersect",
        "Intersect All",
        "Except",
        "Except All",
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map(|(_, group)| *group)
        .or_else(|| EXACT.contains(&label).then_some(Group::RowOps))
        .unwrap_or(Group::Other)
}

pub fn group_of(node: &ProfileNode) -> Group {
    match node.kind {
        SpanKind::Step | SpanKind::Loop => Group::Step,
        SpanKind::Return => Group::Return,
        SpanKind::Operator => group_of_label(&node.label),
    }
}

/// Self times of one profile by group, plus the loop figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecBreakdown {
    pub join_us: u64,
    pub aggregate_us: u64,
    pub exchange_us: u64,
    pub scan_us: u64,
    pub rowops_us: u64,
    pub step_us: u64,
    pub return_us: u64,
    pub other_us: u64,
    /// Labels that fell into [`Group::Other`].
    pub unknown_labels: Vec<String>,
    /// Inclusive time of all loop spans.
    pub loop_us: u64,
    pub iter_first_us: u64,
    pub iter_last_us: u64,
}

impl ExecBreakdown {
    pub fn of(profile: &QueryProfile) -> Self {
        let mut out = ExecBreakdown::default();
        for root in &profile.roots {
            out.visit(root);
        }
        out
    }

    fn visit(&mut self, node: &ProfileNode) {
        // Self time: the span minus the part its children cover.
        let children: u64 = node.children.iter().map(|c| c.elapsed_us).sum();
        let self_us = node.elapsed_us.saturating_sub(children);
        match group_of(node) {
            Group::Join => self.join_us += self_us,
            Group::Aggregate => self.aggregate_us += self_us,
            Group::Exchange => self.exchange_us += self_us,
            Group::Scan => self.scan_us += self_us,
            Group::RowOps => self.rowops_us += self_us,
            Group::Step => self.step_us += self_us,
            Group::Return => self.return_us += self_us,
            Group::Other => {
                self.other_us += self_us;
                self.unknown_labels.push(node.label.clone());
            }
        }
        if node.kind == SpanKind::Loop {
            self.loop_us += node.elapsed_us;
            if let (Some(first), Some(last)) = (node.iterations.first(), node.iterations.last()) {
                self.iter_first_us = first.elapsed_us;
                self.iter_last_us = last.elapsed_us;
            }
        }
        for child in &node.children {
            self.visit(child);
        }
    }

    /// Sum of all self times; equals the sum of the root spans.
    #[cfg(test)]
    pub fn self_total_us(&self) -> u64 {
        self.join_us
            + self.aggregate_us
            + self.exchange_us
            + self.scan_us
            + self.rowops_us
            + self.step_us
            + self.return_us
            + self.other_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::IterationProfile;

    fn node(
        kind: SpanKind,
        label: &str,
        elapsed_us: u64,
        children: Vec<ProfileNode>,
    ) -> ProfileNode {
        ProfileNode {
            label: label.to_string(),
            kind,
            rows_out: 0,
            rows_moved: 0,
            bytes: 0,
            elapsed_us,
            execs: 1,
            iterations: Vec::new(),
            iteration_mode: None,
            recovery: Default::default(),
            children,
        }
    }

    fn profile(roots: Vec<ProfileNode>) -> QueryProfile {
        QueryProfile {
            total_elapsed_us: roots.iter().map(|r| r.elapsed_us).sum(),
            roots,
            spill: Default::default(),
            pool: Default::default(),
            admission: Default::default(),
            durability: Default::default(),
            restart: Default::default(),
        }
    }

    fn sample_profile() -> QueryProfile {
        let join = node(
            SpanKind::Operator,
            "HashJoin(Left): a = b",
            400,
            vec![
                node(
                    SpanKind::Operator,
                    "Exchange: Hash(#0)",
                    150,
                    vec![node(SpanKind::Operator, "TempScan: pagerank", 50, vec![])],
                ),
                node(SpanKind::Operator, "SeqScan: edges", 30, vec![]),
            ],
        );
        let agg = node(
            SpanKind::Operator,
            "AggregateFinal: groups=2 aggs=1",
            700,
            vec![join],
        );
        let materialize = node(
            SpanKind::Step,
            "Materialize pagerank_working",
            800,
            vec![agg],
        );
        let rename = node(
            SpanKind::Step,
            "Rename pagerank_working -> pagerank",
            5,
            vec![],
        );
        let mut lp = node(
            SpanKind::Loop,
            "Loop pagerank",
            900,
            vec![materialize, rename],
        );
        lp.iterations = vec![
            IterationProfile {
                iteration: 1,
                elapsed_us: 500,
                ..IterationProfile::default()
            },
            IterationProfile {
                iteration: 2,
                elapsed_us: 300,
                ..IterationProfile::default()
            },
        ];
        let ret = node(
            SpanKind::Return,
            "Return",
            100,
            vec![node(SpanKind::Operator, "Sort: 1 keys", 60, vec![])],
        );
        profile(vec![lp, ret])
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let b = ExecBreakdown::of(&sample_profile());
        assert_eq!(b.join_us, 400 - 150 - 30);
        assert_eq!(b.exchange_us, 150 - 50);
        assert_eq!(b.scan_us, 50 + 30);
        assert_eq!(b.aggregate_us, 700 - 400);
        // loop (900-805) + materialize (800-700) + rename 5
        assert_eq!(b.step_us, 95 + 100 + 5);
        assert_eq!(b.return_us, 100 - 60);
        assert_eq!(b.rowops_us, 60);
        assert_eq!(b.other_us, 0);
        assert!(b.unknown_labels.is_empty());
        assert_eq!(b.loop_us, 900);
        assert_eq!((b.iter_first_us, b.iter_last_us), (500, 300));
        // Self times partition the root spans exactly.
        assert_eq!(b.self_total_us(), 900 + 100);
    }

    #[test]
    fn a_child_longer_than_its_parent_does_not_underflow() {
        let parent = node(
            SpanKind::Operator,
            "Filter: x",
            10,
            vec![node(SpanKind::Operator, "SeqScan: t", 25, vec![])],
        );
        let b = ExecBreakdown::of(&profile(vec![parent]));
        assert_eq!((b.rowops_us, b.scan_us), (0, 25));
    }

    #[test]
    fn unknown_labels_are_reported() {
        assert_eq!(group_of_label("VectorizedJoin: a = b"), Group::Other);
        let b = ExecBreakdown::of(&profile(vec![node(
            SpanKind::Operator,
            "Mystery: op",
            7,
            vec![],
        )]));
        assert_eq!(b.other_us, 7);
        assert_eq!(b.unknown_labels, vec!["Mystery: op".to_string()]);
    }

    #[test]
    fn flattened_profile_spans_hang_off_their_statement() {
        let mut rec = Recorder::new();
        let stmt = rec.next_statement();
        let start = Instant::now();
        let root = rec.record(
            "engine.explain_analyze",
            None,
            stmt,
            start,
            Duration::from_micros(1_000),
        );
        rec.flatten_profile(&sample_profile(), root, stmt);
        let spans = rec.spans();
        // 1 call span + 10 profile nodes.
        assert_eq!(spans.len(), 11);
        assert!(spans.iter().all(|s| s.stmt == stmt));
        let lp = spans
            .iter()
            .find(|s| s.name == "exec:step:Loop pagerank")
            .unwrap();
        assert_eq!(lp.parent, Some(root));
        assert_eq!(lp.end_us - lp.start_us, 900);
        let ret = spans
            .iter()
            .find(|s| s.name == "exec:return:Return")
            .unwrap();
        assert_eq!(ret.start_us, lp.end_us);
        let scan = spans
            .iter()
            .find(|s| s.name == "exec:scan:TempScan: pagerank")
            .unwrap();
        let exchange = spans
            .iter()
            .find(|s| s.name.starts_with("exec:exchange:"))
            .unwrap();
        assert_eq!(scan.parent, Some(exchange.id));
    }

    #[test]
    fn span_file_round_trips_through_the_json_reader() {
        let mut rec = Recorder::new();
        let stmt = rec.next_statement();
        let id = rec.record(
            "parser.parse",
            None,
            stmt,
            Instant::now(),
            Duration::from_micros(12),
        );
        rec.record(
            "plan.plan",
            Some(id),
            stmt,
            Instant::now(),
            Duration::from_micros(30),
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_test_{}", std::process::id()));
        let path = dir.join("trace_test.json");
        rec.write(&path, "pr_full", 3).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("pr_full"));
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }

    /// Every operator `PhysicalPlan::describe` can print has a group. The
    /// statements below make the real planner print each of them, so a
    /// renamed or new operator fails here before it can fall out of the
    /// traced pass's accounting.
    #[test]
    fn every_physical_operator_label_has_a_group() {
        use crate::api;
        let db = api::open_in_memory().unwrap();
        let mut spec = api::graph_spec(1);
        spec.nodes = 50;
        spec.edges = 200;
        api::load_edges(&db, api::generate_edges(&spec, false).rows).unwrap();
        api::load_vertex_status(&db, &spec).unwrap();
        let statements = [
            api::pagerank_sql(),
            api::sssp_sql(),
            api::ff_sql(),
            "SELECT COUNT(*) FROM edges".to_string(),
            "SELECT COUNT(DISTINCT dst) FROM edges GROUP BY src".to_string(),
            "SELECT DISTINCT src FROM edges ORDER BY src LIMIT 5".to_string(),
            "SELECT e.src FROM edges e CROSS JOIN vertexstatus v WHERE e.weight > v.status"
                .to_string(),
            "SELECT src FROM edges UNION ALL SELECT dst FROM edges".to_string(),
            "SELECT src FROM edges INTERSECT SELECT dst FROM edges".to_string(),
            "SELECT src FROM edges EXCEPT SELECT dst FROM edges".to_string(),
            "SELECT 1".to_string(),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for sql in &statements {
            let front = api::front_end(&db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            for label in front.operator_labels {
                assert_ne!(
                    group_of_label(&label),
                    Group::Other,
                    "no group for `{label}`"
                );
                let kind = label.split([':', '(']).next().unwrap().to_string();
                kinds.insert(kind);
            }
        }
        let expected = [
            "AggregateFinal",
            "AggregatePartial",
            "Distinct",
            "Except",
            "Exchange",
            "Filter",
            "HashAggregate",
            "HashJoin",
            "Intersect",
            "Limit",
            "NestedLoopJoin",
            "Project",
            "SeqScan",
            "Sort",
            "TempScan",
            "Union",
            "Union All",
            "Values",
        ];
        let kinds: Vec<&str> = kinds.iter().map(String::as_str).collect();
        assert_eq!(kinds, expected);
    }
}
