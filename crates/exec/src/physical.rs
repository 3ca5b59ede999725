//! Physical plan and the logical → physical lowering.
//!
//! The lowering mirrors an MPP planner's shuffle decisions: hash joins and
//! grouped aggregations get hash exchanges on their keys, unkeyed joins
//! and global operations (sort, limit, global aggregate, set ops) gather
//! to one partition. Exchanges only *count* rows that actually change
//! partition, so a table already distributed on the join key moves nothing
//! — the same locality a real shared-nothing engine exploits. Nor does
//! such an exchange hash a row: a result remembers the key its rows were
//! placed on (`Partitioned::placed_on`, carried or dropped by every
//! operator at run time), and a hash exchange on that same key passes its
//! input through.
//!
//! A result that is stored distributed on a column — a `Materialize`
//! step's, or an `INSERT … SELECT`'s source — is lowered with that column
//! as its *wanted placement* ([`create_stored_plan`]). The wanted column
//! is followed down through filters and projections that pass it on (a
//! bare column, or a cast of one such as `INSERT` adds); where it
//! reaches a grouped aggregate or a `DISTINCT` and names one of its group
//! keys, the exchange in front of the grouping hashes that one key instead
//! of all of them. Every row of a group still meets in one partition, in
//! source-partition order whichever key routed it, so each group's values
//! are the same bits; only which partition a group ends up in, and the
//! row order inside a partition, change. The result then comes out placed
//! on the column it is stored by, and the store's own exchange passes it
//! through.

use std::fmt;
use std::sync::Arc;

use spinner_common::{DataType, EngineConfig, Field, Result, Schema, SchemaRef};
use spinner_plan::{AggExpr, JoinType, LogicalPlan, LoopStep, PlanExpr, SetOpKind, SortKey};

use crate::aggregate::Accumulator;

/// How an exchange redistributes rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeMode {
    /// Re-partition by the hash of the listed key expressions.
    Hash(Vec<PlanExpr>),
    /// Collect every row into partition 0.
    Gather,
    /// Replicate every row to all partitions.
    Broadcast,
}

impl fmt::Display for ExchangeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeMode::Hash(keys) => {
                let k: Vec<String> = keys.iter().map(|e| e.to_string()).collect();
                write!(f, "Hash({})", k.join(", "))
            }
            ExchangeMode::Gather => f.write_str("Gather"),
            ExchangeMode::Broadcast => f.write_str("Broadcast"),
        }
    }
}

/// Where a hash join's key index comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinBuild {
    /// Built over the build side every time the join runs.
    PerRun,
    /// The build side reads nothing its loop writes, so it is built once
    /// and re-probed through the join-state cache ([`crate::cache`]).
    Cached,
    /// The probe side is the loop's CTE table `cte`, read whole on the
    /// loop key, and the join is inner without a residual: every build row
    /// looks its CTE rows up in the loop's solution index
    /// ([`crate::solution`]), and nothing is built. A stale index runs the
    /// join as [`PerRun`](Self::PerRun).
    Indexed {
        /// Temp-registry name of the loop's CTE table.
        cte: String,
    },
}

/// The executable operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan a base table from the catalog.
    SeqScan {
        /// Catalog table name.
        table: String,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Scan a named temp result (CTE working table) from the registry.
    TempScan {
        /// Temp-registry entry name.
        name: String,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Literal rows (`VALUES ...` / `SELECT <constants>`).
    Values {
        /// One expression list per row; evaluated against the empty row.
        rows: Vec<Vec<PlanExpr>>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Per-row expression evaluation.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// One expression per output column.
        exprs: Vec<PlanExpr>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Boolean filter expression.
        predicate: PlanExpr,
    },
    /// Hash join; both inputs are expected to be co-partitioned on the key
    /// expressions (the planner inserts exchanges).
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Inner / left-outer / etc.
        join_type: JoinType,
        /// Key expressions over the left input.
        left_keys: Vec<PlanExpr>,
        /// Key expressions over the right input.
        right_keys: Vec<PlanExpr>,
        /// Non-equi condition evaluated on the combined row.
        residual: Option<PlanExpr>,
        /// The columns of left ∥ right the join emits, in order; `None`
        /// emits all of them.
        columns: Option<Vec<usize>>,
        /// Where the key index comes from.
        build: JoinBuild,
        /// Output schema (`columns` of left ∥ right).
        schema: SchemaRef,
    },
    /// Fallback join for non-equi / cross joins; inputs are gathered.
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input.
        right: Box<PhysicalPlan>,
        /// Inner / left-outer / etc.
        join_type: JoinType,
        /// Join condition evaluated on the combined row.
        residual: Option<PlanExpr>,
        /// The columns of left ∥ right the join emits, in order; `None`
        /// emits all of them.
        columns: Option<Vec<usize>>,
        /// Output schema (`columns` of left ∥ right).
        schema: SchemaRef,
    },
    /// Grouped hash aggregation (input hash-exchanged on the group key) or
    /// global aggregation (partial per partition + final merge).
    HashAggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Group-key expressions; empty for global aggregation.
        group: Vec<PlanExpr>,
        /// Aggregate functions to compute.
        aggs: Vec<AggExpr>,
        /// Output schema (group keys then aggregates).
        schema: SchemaRef,
    },
    /// Phase 1 of two-phase grouped aggregation: aggregate each partition
    /// locally, emitting `[group keys..., partial states...]` rows.
    AggregatePartial {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Group-key expressions.
        group: Vec<PlanExpr>,
        /// Aggregate functions to compute.
        aggs: Vec<AggExpr>,
        /// Intermediate schema (group keys then partial states).
        schema: SchemaRef,
    },
    /// Phase 2: merge partial-state rows (key-exchanged between phases)
    /// into final aggregate values.
    AggregateFinal {
        /// Input operator (an [`PhysicalPlan::AggregatePartial`] behind an
        /// exchange).
        input: Box<PhysicalPlan>,
        /// How many leading columns are group keys.
        group_len: usize,
        /// Aggregate functions being finalized.
        aggs: Vec<AggExpr>,
        /// Output schema (group keys then aggregates).
        schema: SchemaRef,
    },
    /// Remove duplicate rows (input hash-exchanged on the full row).
    Distinct {
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Sort the gathered result.
    Sort {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` rows of the gathered result.
    Limit {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Row limit.
        n: u64,
    },
    /// UNION / INTERSECT / EXCEPT.
    SetOp {
        /// Which set operation.
        op: SetOpKind,
        /// `true` keeps duplicates (`ALL`).
        all: bool,
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// A loop-invariant input that contains a join: it runs once per
    /// statement, and later iterations re-read its rows through the
    /// join-state cache ([`crate::cache`]).
    Cached {
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Redistribute rows between partitions (simulated network shuffle).
    Exchange {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Hash / gather / broadcast.
        mode: ExchangeMode,
    },
}

impl PhysicalPlan {
    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            PhysicalPlan::SeqScan { schema, .. }
            | PhysicalPlan::TempScan { schema, .. }
            | PhysicalPlan::Values { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::HashJoin { schema, .. }
            | PhysicalPlan::NestedLoopJoin { schema, .. }
            | PhysicalPlan::HashAggregate { schema, .. }
            | PhysicalPlan::AggregatePartial { schema, .. }
            | PhysicalPlan::AggregateFinal { schema, .. }
            | PhysicalPlan::SetOp { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Cached { input }
            | PhysicalPlan::Exchange { input, .. } => input.schema(),
        }
    }

    /// Whether `f` holds for every scan and literal-rows leaf of the tree,
    /// visited left to right until it first fails.
    pub fn all_leaves(&self, f: &mut dyn FnMut(&PhysicalPlan) -> bool) -> bool {
        let mut children = self.children().peekable();
        if children.peek().is_none() {
            return f(self);
        }
        children.all(|c| c.all_leaves(f))
    }

    /// One-line operator label, shared by EXPLAIN output and the profile
    /// spans `EXPLAIN ANALYZE` collects.
    pub fn describe(&self) -> String {
        match self {
            PhysicalPlan::SeqScan { table, .. } => format!("SeqScan: {table}"),
            PhysicalPlan::TempScan { name, .. } => format!("TempScan: {name}"),
            PhysicalPlan::Values { rows, .. } => format!("Values: {} rows", rows.len()),
            PhysicalPlan::Project { exprs, .. } => format!(
                "Project: {}",
                exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            PhysicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                columns,
                build,
                ..
            } => format!(
                "HashJoin({join_type}{}): {}{}",
                match build {
                    JoinBuild::PerRun => "",
                    JoinBuild::Cached => ", cached build",
                    JoinBuild::Indexed { .. } => ", indexed build",
                },
                left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                emits(columns, left, right)
            ),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                columns,
                ..
            } => {
                format!("NestedLoopJoin({join_type}){}", emits(columns, left, right))
            }
            PhysicalPlan::HashAggregate { group, aggs, .. } => {
                format!("HashAggregate: groups={} aggs={}", group.len(), aggs.len())
            }
            PhysicalPlan::AggregatePartial { group, aggs, .. } => format!(
                "AggregatePartial: groups={} aggs={}",
                group.len(),
                aggs.len()
            ),
            PhysicalPlan::AggregateFinal {
                group_len, aggs, ..
            } => format!("AggregateFinal: groups={group_len} aggs={}", aggs.len()),
            PhysicalPlan::Distinct { .. } => "Distinct".into(),
            PhysicalPlan::Sort { keys, .. } => format!("Sort: {} keys", keys.len()),
            PhysicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            PhysicalPlan::SetOp { op, all, .. } => {
                format!("{op}{}", if *all { " All" } else { "" })
            }
            PhysicalPlan::Cached { .. } => "Cached".into(),
            PhysicalPlan::Exchange { mode, .. } => format!("Exchange: {mode}"),
        }
    }

    /// Indented physical EXPLAIN rendering.
    pub fn display_indent(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        out.push_str(&pad);
        out.push_str(&self.describe());
        out.push('\n');
        for c in self.children() {
            c.display_indent(indent + 1, out);
        }
    }

    pub(crate) fn children(&self) -> impl Iterator<Item = &PhysicalPlan> {
        let (first, second) = match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::TempScan { .. }
            | PhysicalPlan::Values { .. } => (None, None),
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Cached { input }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::AggregatePartial { input, .. }
            | PhysicalPlan::AggregateFinal { input, .. } => (Some(input), None),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::SetOp { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second).map(|child| &**child)
    }
}

/// How much of its inputs' width a join emits, for its EXPLAIN label.
fn emits(columns: &Option<Vec<usize>>, left: &PhysicalPlan, right: &PhysicalPlan) -> String {
    let width = left.schema().len() + right.schema().len();
    match columns {
        Some(columns) => format!("; emits {} of {width} columns", columns.len()),
        None => String::new(),
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.display_indent(0, &mut s);
        f.write_str(s.trim_end())
    }
}

/// Lower a logical plan to a physical one, inserting exchanges. No option
/// steers lowering; `_config` keeps the signature its callers use.
pub fn create_physical_plan(plan: &LogicalPlan, _config: &EngineConfig) -> Result<PhysicalPlan> {
    lower(plan, None, None)
}

/// [`create_physical_plan`] for a result stored distributed on column
/// `distribute_by` (`None`: stored as it comes) — a `Materialize` step's
/// plan, or an `INSERT … SELECT`'s source — as a step of `in_loop`'s body
/// if any. The executor and physical EXPLAIN lower every `Materialize`
/// here, and a loop lowers its body once, before its first iteration.
/// Two things differ from a plain query:
/// * a grouped aggregate or `DISTINCT` whose output column `distribute_by`
///   is, through filters and projections that pass it on, one of its
///   group keys exchanges its rows on that key alone (module docs);
/// * in a loop body, a hash join whose build side is loop-invariant
///   ([`LoopStep::is_invariant`]) is marked to build once and re-probe
///   through the join-state cache; any other loop-invariant subtree that
///   contains a join — a probe side with its exchange, a set operation's
///   arm, an aggregate's input — runs once under [`PhysicalPlan::Cached`],
///   its rows re-read through the same cache. A cached input is lowered as
///   outside the loop: nothing under it is cached again;
/// * in a merge loop's body, any other inner hash join without a residual
///   whose probe side is the loop's CTE table, scanned whole and keyed on
///   the loop key, is marked to look the CTE up through the loop's
///   solution index ([`JoinBuild::Indexed`]).
pub fn create_stored_plan(
    plan: &LogicalPlan,
    distribute_by: Option<usize>,
    in_loop: Option<&LoopStep>,
) -> Result<PhysicalPlan> {
    lower(plan, in_loop, distribute_by)
}

/// The lowering of `plan`, a plan of the body of `in_loop` if any, whose
/// output is wanted placed on column `wanted` if it can be.
fn lower(
    plan: &LogicalPlan,
    in_loop: Option<&LoopStep>,
    wanted: Option<usize>,
) -> Result<PhysicalPlan> {
    if in_loop.is_some_and(|l| l.is_invariant(plan)) && plan.count_joins() > 0 {
        let input = Box::new(self::lower(plan, None, wanted)?);
        return Ok(PhysicalPlan::Cached { input });
    }
    let lower = |plan: &LogicalPlan| lower(plan, in_loop, None);
    Ok(match plan {
        LogicalPlan::TableScan { table, schema } => PhysicalPlan::SeqScan {
            table: table.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::TempScan { name, schema } => PhysicalPlan::TempScan {
            name: name.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Values { schema, rows } => PhysicalPlan::Values {
            rows: rows.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => match join_output(input, exprs) {
            Some(columns) => lower_join(input, Some(columns), schema, in_loop)?,
            None => {
                let wanted = wanted.and_then(|c| passed_column(exprs.get(c)?));
                PhysicalPlan::Project {
                    input: Box::new(self::lower(input, in_loop, wanted)?),
                    exprs: exprs.clone(),
                    schema: schema.clone(),
                }
            }
        },
        LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(self::lower(input, in_loop, wanted)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Join { schema, .. } => lower_join(plan, None, schema, in_loop)?,
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let child = lower(input)?;
            // The group keys the rows are exchanged on: the wanted one
            // alone, or all of them.
            let on: Vec<usize> = match wanted.filter(|&c| c < group.len()) {
                Some(c) => vec![c],
                None => (0..group.len()).collect(),
            };
            if group.is_empty() {
                // Global aggregate: partial per partition, merged by the
                // operator itself — no exchange needed.
                PhysicalPlan::HashAggregate {
                    input: Box::new(child),
                    group: group.clone(),
                    aggs: aggs.clone(),
                    schema: schema.clone(),
                }
            } else if aggs.iter().all(|a| !a.distinct) {
                // Two-phase: local partial aggregation, exchange the (far
                // fewer) partial-state rows on the group key, final merge.
                let mut fields: Vec<Field> = schema.fields()[..group.len()].to_vec();
                let in_schema = input.schema();
                let typed = |e: &Option<PlanExpr>| {
                    e.as_ref()
                        .map_or(DataType::Null, |e| e.data_type(&in_schema))
                };
                for (i, a) in aggs.iter().enumerate() {
                    let types = Accumulator::state_types(a.func, typed(&a.arg), typed(&a.by));
                    for (j, t) in types.enumerate() {
                        fields.push(Field::new(format!("__state_{i}_{j}"), t));
                    }
                }
                let partial_schema = Arc::new(Schema::new(fields));
                let keys: Vec<PlanExpr> = (on.iter())
                    .map(|&i| PlanExpr::column(i, partial_schema.field(i).name.clone()))
                    .collect();
                PhysicalPlan::AggregateFinal {
                    input: Box::new(PhysicalPlan::Exchange {
                        input: Box::new(PhysicalPlan::AggregatePartial {
                            input: Box::new(child),
                            group: group.clone(),
                            aggs: aggs.clone(),
                            schema: partial_schema,
                        }),
                        mode: ExchangeMode::Hash(keys),
                    }),
                    group_len: group.len(),
                    aggs: aggs.clone(),
                    schema: schema.clone(),
                }
            } else {
                // Single-phase (DISTINCT aggregates need the raw rows).
                PhysicalPlan::HashAggregate {
                    input: Box::new(PhysicalPlan::Exchange {
                        input: Box::new(child),
                        mode: ExchangeMode::Hash(on.iter().map(|&i| group[i].clone()).collect()),
                    }),
                    group: group.clone(),
                    aggs: aggs.clone(),
                    schema: schema.clone(),
                }
            }
        }
        LogicalPlan::Distinct { input } => {
            let schema = input.schema();
            let key = |i: usize| PlanExpr::column(i, schema.field(i).qualified_name());
            let keys: Vec<PlanExpr> = match wanted.filter(|&c| c < schema.len()) {
                Some(c) => vec![key(c)],
                None => (0..schema.len()).map(key).collect(),
            };
            PhysicalPlan::Distinct {
                input: Box::new(PhysicalPlan::Exchange {
                    input: Box::new(lower(input)?),
                    mode: ExchangeMode::Hash(keys),
                }),
            }
        }
        LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Exchange {
                input: Box::new(lower(input)?),
                mode: ExchangeMode::Gather,
            }),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Exchange {
                input: Box::new(lower(input)?),
                mode: ExchangeMode::Gather,
            }),
            n: *n,
        },
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            let l = lower(left)?;
            let r = lower(right)?;
            if *all && *op == SetOpKind::Union {
                // UNION ALL: no data movement needed — concatenate
                // partition-wise.
                PhysicalPlan::SetOp {
                    op: *op,
                    all: true,
                    left: Box::new(l),
                    right: Box::new(r),
                    schema: schema.clone(),
                }
            } else {
                // Distinct set ops co-partition both sides on all columns.
                let keys = |s: &SchemaRef| -> Vec<PlanExpr> {
                    s.fields()
                        .iter()
                        .enumerate()
                        .map(|(i, f)| PlanExpr::column(i, f.qualified_name()))
                        .collect()
                };
                let lk = keys(&l.schema());
                let rk = keys(&r.schema());
                PhysicalPlan::SetOp {
                    op: *op,
                    all: *all,
                    left: Box::new(PhysicalPlan::Exchange {
                        input: Box::new(l),
                        mode: ExchangeMode::Hash(lk),
                    }),
                    right: Box::new(PhysicalPlan::Exchange {
                        input: Box::new(r),
                        mode: ExchangeMode::Hash(rk),
                    }),
                    schema: schema.clone(),
                }
            }
        }
    })
}

/// The input column `e` is, if it is a bare column.
pub(crate) fn bare_column(e: &PlanExpr) -> Option<usize> {
    match e {
        PlanExpr::Column(c) => Some(c.index),
        _ => None,
    }
}

/// The input column `e` passes on unchanged where it can: a bare column,
/// or a cast of one, which leaves a column already of its type as it is.
fn passed_column(e: &PlanExpr) -> Option<usize> {
    match e {
        PlanExpr::Cast { expr, .. } => bare_column(expr),
        e => bare_column(e),
    }
}

/// A projection of bare columns over a join is the join's output list:
/// the input column of every expression, when `input` is a join and every
/// one is a bare column.
fn join_output(input: &LogicalPlan, exprs: &[PlanExpr]) -> Option<Vec<usize>> {
    let join = matches!(input, LogicalPlan::Join { .. });
    join.then(|| exprs.iter().map(bare_column).collect())
        .flatten()
}

/// Lower `join`, emitting `columns` of its left ∥ right (`None`: all) as
/// `schema`. An equi-join hash-exchanges both sides on their keys; any
/// other gathers both sides for a nested-loop join.
fn lower_join(
    join: &LogicalPlan,
    columns: Option<Vec<usize>>,
    schema: &SchemaRef,
    in_loop: Option<&LoopStep>,
) -> Result<PhysicalPlan> {
    let LogicalPlan::Join {
        left,
        right,
        join_type,
        on,
        filter,
        ..
    } = join
    else {
        unreachable!("lower_join lowers joins");
    };
    // A side its loop cannot change is lowered as outside the loop: the
    // join-state cache runs it once, and nothing under it is cached again.
    // A hash join's build side keeps its key index there; any other side
    // that contains a join is cached exchange and all.
    let exchange = |side: &LogicalPlan, mode, build: bool| {
        let invariant = in_loop.is_some_and(|l| l.is_invariant(side));
        let input = Box::new(lower(side, in_loop.filter(|_| !invariant), None)?);
        let exchange = Box::new(PhysicalPlan::Exchange { input, mode });
        Ok::<_, spinner_common::Error>(match invariant && !build && side.count_joins() > 0 {
            true => Box::new(PhysicalPlan::Cached { input: exchange }),
            false => exchange,
        })
    };
    if on.is_empty() {
        return Ok(PhysicalPlan::NestedLoopJoin {
            left: exchange(left, ExchangeMode::Gather, false)?,
            right: exchange(right, ExchangeMode::Gather, false)?,
            join_type: *join_type,
            residual: filter.clone(),
            columns,
            schema: schema.clone(),
        });
    }
    let left_keys: Vec<PlanExpr> = on.iter().map(|(l, _)| l.clone()).collect();
    let right_keys: Vec<PlanExpr> = on.iter().map(|(_, r)| r.clone()).collect();
    let reads_solution = |l: &LoopStep| {
        let whole_cte = match &**left {
            LogicalPlan::TempScan { name, .. } => name.eq_ignore_ascii_case(&l.cte),
            _ => false,
        };
        let on_key = matches!(&left_keys[..], [k] if bare_column(k) == Some(l.key));
        l.merges() && whole_cte && on_key && *join_type == JoinType::Inner && filter.is_none()
    };
    let build = match in_loop {
        Some(l) if l.is_invariant(right) => JoinBuild::Cached,
        Some(l) if reads_solution(l) => JoinBuild::Indexed { cte: l.cte.clone() },
        _ => JoinBuild::PerRun,
    };
    Ok(PhysicalPlan::HashJoin {
        left: exchange(left, ExchangeMode::Hash(left_keys.clone()), false)?,
        right: exchange(right, ExchangeMode::Hash(right_keys.clone()), true)?,
        join_type: *join_type,
        left_keys,
        right_keys,
        residual: filter.clone(),
        columns,
        build,
        schema: schema.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use spinner_plan::expr::BinaryOp;
    use std::sync::Arc;

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            table: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ])),
        }
    }

    #[test]
    fn equi_join_gets_hash_exchanges() {
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            join_type: JoinType::Inner,
            on: vec![(PlanExpr::column(0, "a"), PlanExpr::column(0, "a"))],
            filter: None,
            schema: Arc::new(scan().schema().join(&scan().schema())),
        };
        let phys = create_physical_plan(&join, &EngineConfig::default()).unwrap();
        let PhysicalPlan::HashJoin { left, right, .. } = phys else {
            panic!()
        };
        assert!(matches!(
            *left,
            PhysicalPlan::Exchange {
                mode: ExchangeMode::Hash(_),
                ..
            }
        ));
        assert!(matches!(
            *right,
            PhysicalPlan::Exchange {
                mode: ExchangeMode::Hash(_),
                ..
            }
        ));
    }

    fn join(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Join {
            schema: Arc::new(left.schema().join(&right.schema())),
            left: Box::new(left),
            right: Box::new(right),
            join_type: JoinType::Inner,
            on: vec![(PlanExpr::column(0, "a"), PlanExpr::column(1, "b"))],
            filter: None,
        }
    }

    fn temp(name: &str) -> LogicalPlan {
        LogicalPlan::TempScan {
            name: name.into(),
            schema: scan().schema(),
        }
    }

    #[test]
    fn bare_projection_over_a_join_is_its_output_list() {
        let projection = |exprs: Vec<PlanExpr>| LogicalPlan::Projection {
            schema: Arc::new(Schema::new(vec![
                Field::new("x", DataType::Int);
                exprs.len()
            ])),
            input: Box::new(join(scan(), scan())),
            exprs,
        };
        let bare = projection(vec![PlanExpr::column(3, "b"), PlanExpr::column(0, "a")]);
        let phys = create_physical_plan(&bare, &EngineConfig::default()).unwrap();
        let PhysicalPlan::HashJoin {
            columns, schema, ..
        } = &phys
        else {
            panic!("{phys}")
        };
        assert_eq!((columns.as_deref(), schema.len()), (Some(&[3, 0][..]), 2));
        assert!(phys.describe().ends_with("; emits 2 of 4 columns"));
        // A computed column stays a projection over the whole join.
        let computed = projection(vec![
            PlanExpr::column(0, "a").binary(BinaryOp::Plus, PlanExpr::column(3, "b"))
        ]);
        let phys = create_physical_plan(&computed, &EngineConfig::default()).unwrap();
        assert!(matches!(phys, PhysicalPlan::Project { .. }));
    }

    /// A rename loop over `cte` whose body stores `work`.
    fn rename_loop() -> LoopStep {
        LoopStep {
            cte: "cte".into(),
            cte_display_name: "cte".into(),
            kind: spinner_plan::LoopKind::Iterative {
                working: "work".into(),
                merge: false,
                delta: None,
            },
            body: vec![spinner_plan::Step::Materialize {
                name: "work".into(),
                plan: temp("cte"),
                distribute_by: None,
            }],
            termination: spinner_plan::TerminationPlan::Iterations(3),
            key: 0,
            schema: scan().schema(),
        }
    }

    #[test]
    fn only_a_build_side_the_loop_cannot_change_is_cached() {
        let l = rename_loop();
        let cached = |plan: &LogicalPlan, in_loop: bool| {
            let phys = match in_loop {
                true => create_stored_plan(plan, None, Some(&l)),
                false => create_physical_plan(plan, &EngineConfig::default()),
            };
            match phys.unwrap() {
                PhysicalPlan::HashJoin { build, .. } => build == JoinBuild::Cached,
                other => panic!("{other}"),
            }
        };
        let invariant = join(temp("cte"), scan());
        assert!(cached(&invariant, true));
        assert!(!cached(&invariant, false), "no loop, no cache");
        assert!(cached(&join(temp("cte"), temp("pre_loop")), true));
        assert!(!cached(&join(scan(), temp("cte")), true));
        assert!(!cached(&join(scan(), temp("work")), true));
        let label = create_stored_plan(&invariant, None, Some(&l))
            .unwrap()
            .describe();
        assert!(
            label.starts_with("HashJoin(Inner, cached build): "),
            "{label}"
        );
    }

    /// The cache marks of `plan`: `(cached builds, Cached inputs)`.
    fn cache_marks(plan: &PhysicalPlan) -> (usize, usize) {
        let own = match plan {
            PhysicalPlan::HashJoin {
                build: JoinBuild::Cached,
                ..
            } => (1, 0),
            PhysicalPlan::Cached { .. } => (0, 1),
            _ => (0, 0),
        };
        let below = plan.children().map(cache_marks);
        below.fold(own, |(b, c), (b2, c2)| (b + b2, c + c2))
    }

    /// A loop-invariant join input that contains a join is cached whole,
    /// on either side, and nothing under it is cached again; a join its
    /// loop cannot change that is no join's input is cached as well.
    #[test]
    fn a_cached_input_carries_the_only_cache_mark() {
        let l = rename_loop();
        let lower = |plan: &LogicalPlan| create_stored_plan(plan, None, Some(&l)).unwrap();
        let invariant = || join(scan(), temp("pre_loop"));
        // The build side: one mark, the outer join's.
        let build = lower(&join(temp("cte"), invariant()));
        assert_eq!(cache_marks(&build), (1, 0), "{build}");
        assert!(build
            .describe()
            .starts_with("HashJoin(Inner, cached build)"));
        // The probe side: cached exchange and all, the join itself per run.
        let probe = lower(&join(invariant(), temp("cte")));
        assert_eq!(cache_marks(&probe), (0, 1), "{probe}");
        let PhysicalPlan::HashJoin { left, build, .. } = &probe else {
            panic!("{probe}")
        };
        assert_eq!(*build, JoinBuild::PerRun);
        let PhysicalPlan::Cached { input } = &**left else {
            panic!("{probe}")
        };
        assert!(matches!(**input, PhysicalPlan::Exchange { .. }), "{probe}");
        // A bare invariant probe side has no join to save.
        assert_eq!(cache_marks(&lower(&join(scan(), temp("cte")))), (0, 0));
        // A whole invariant join — a body arm that never reads the CTE.
        let whole = lower(&invariant());
        assert_eq!(cache_marks(&whole), (0, 1), "{whole}");
        assert!(matches!(whole, PhysicalPlan::Cached { .. }), "{whole}");
        // Outside a loop nothing is cached.
        let plain = create_physical_plan(&join(invariant(), temp("cte")), &EngineConfig::default());
        assert_eq!(cache_marks(&plain.unwrap()), (0, 0));
    }

    /// Only an inner, residual-free join probing the merge loop's whole CTE
    /// on its key looks the CTE up through the solution index.
    #[test]
    fn only_a_whole_cte_probed_on_the_loop_key_is_indexed() {
        let merge_loop = |merge: bool| LoopStep {
            cte: "cte".into(),
            cte_display_name: "cte".into(),
            kind: spinner_plan::LoopKind::Iterative {
                working: "work".into(),
                merge,
                delta: None,
            },
            body: vec![spinner_plan::Step::Materialize {
                name: "work".into(),
                plan: temp("delta"),
                distribute_by: None,
            }],
            termination: spinner_plan::TerminationPlan::Iterations(3),
            key: 0,
            schema: scan().schema(),
        };
        let build = |plan: &LogicalPlan, l: &LoopStep| match create_stored_plan(plan, None, Some(l))
            .unwrap()
        {
            PhysicalPlan::HashJoin { build, .. } => build,
            other => panic!("{other}"),
        };
        let indexed = JoinBuild::Indexed { cte: "cte".into() };
        let probe_cte = join(temp("cte"), temp("work"));
        assert_eq!(build(&probe_cte, &merge_loop(true)), indexed);
        assert_eq!(
            build(&probe_cte, &merge_loop(false)),
            JoinBuild::PerRun,
            "rename loop"
        );
        assert_eq!(
            build(&join(temp("work"), temp("cte")), &merge_loop(true)),
            JoinBuild::PerRun
        );
        let reshape = |f: &dyn Fn(&mut LogicalPlan)| {
            let mut plan = probe_cte.clone();
            f(&mut plan);
            build(&plan, &merge_loop(true))
        };
        let left_join = reshape(&|p| {
            if let LogicalPlan::Join { join_type, .. } = p {
                *join_type = JoinType::Left;
            }
        });
        let residual = reshape(&|p| {
            if let LogicalPlan::Join { filter, .. } = p {
                *filter = Some(PlanExpr::literal(true));
            }
        });
        let off_key = reshape(&|p| {
            if let LogicalPlan::Join { on, .. } = p {
                on[0].0 = PlanExpr::column(1, "b");
            }
        });
        assert_eq!(
            [left_join, residual, off_key],
            [JoinBuild::PerRun, JoinBuild::PerRun, JoinBuild::PerRun]
        );
        let label = create_stored_plan(&probe_cte, None, Some(&merge_loop(true)))
            .unwrap()
            .describe();
        assert!(
            label.starts_with("HashJoin(Inner, indexed build): "),
            "{label}"
        );
    }

    #[test]
    fn cross_join_gathers() {
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            join_type: JoinType::Cross,
            on: vec![],
            filter: None,
            schema: Arc::new(scan().schema().join(&scan().schema())),
        };
        let phys = create_physical_plan(&join, &EngineConfig::default()).unwrap();
        assert!(matches!(phys, PhysicalPlan::NestedLoopJoin { .. }));
    }

    #[test]
    fn grouped_aggregate_lowers_to_two_phases() {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![PlanExpr::column(0, "a")],
            aggs: vec![],
            schema: Arc::new(Schema::new(vec![Field::new("a", DataType::Int)])),
        };
        let phys = create_physical_plan(&agg, &EngineConfig::default()).unwrap();
        let PhysicalPlan::AggregateFinal { input, .. } = phys else {
            panic!("expected final phase on top")
        };
        let PhysicalPlan::Exchange {
            input,
            mode: ExchangeMode::Hash(_),
        } = *input
        else {
            panic!("expected key exchange between phases")
        };
        assert!(matches!(*input, PhysicalPlan::AggregatePartial { .. }));
    }

    /// The partial phase's state columns are typed: COUNT INT, SUM, MIN
    /// and MAX their argument's type, AVG (FLOAT, INT), ARG_MIN/ARG_MAX
    /// (key, val). A NULL-typed field means only that no cell has a value.
    #[test]
    fn partial_states_carry_their_types() {
        use spinner_plan::AggFunc::*;
        let input = LogicalPlan::TableScan {
            table: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("g", DataType::Text),
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("b", DataType::Bool),
            ])),
        };
        let col = |i: usize| Some(PlanExpr::column(i, format!("c{i}")));
        let agg = |func, arg, by| AggExpr {
            func,
            arg,
            by,
            distinct: false,
            name: format!("{func}"),
        };
        let aggs = vec![
            agg(CountStar, None, None),
            agg(Count, col(3), None),
            agg(Sum, col(1), None),
            agg(Min, col(3), None),
            agg(Max, col(2), None),
            agg(Avg, col(1), None),
            agg(ArgMin, col(3), col(2)),
            agg(ArgMax, col(0), col(1)),
        ];
        let outputs = aggs
            .iter()
            .map(|a| Field::new(a.name.clone(), a.output_type(&input.schema())));
        let fields = std::iter::once(Field::new("g", DataType::Text))
            .chain(outputs)
            .collect();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: vec![PlanExpr::column(0, "g")],
            aggs,
            schema: Arc::new(Schema::new(fields)),
        };
        let phys = create_physical_plan(&plan, &EngineConfig::default()).unwrap();
        let PhysicalPlan::AggregateFinal { input, .. } = phys else {
            panic!("expected final phase on top")
        };
        let PhysicalPlan::Exchange { input, .. } = *input else {
            panic!("expected key exchange between phases")
        };
        let PhysicalPlan::AggregatePartial { schema, .. } = *input else {
            panic!("expected the partial phase")
        };
        let types: Vec<String> = schema
            .fields()
            .iter()
            .map(|f| format!("{} {}", f.name, f.data_type))
            .collect();
        assert_eq!(
            types,
            [
                "g TEXT",
                "__state_0_0 INT",
                "__state_1_0 INT",
                "__state_2_0 INT",
                "__state_3_0 BOOL",
                "__state_4_0 FLOAT",
                "__state_5_0 FLOAT",
                "__state_5_1 INT",
                "__state_6_0 FLOAT",
                "__state_6_1 BOOL",
                "__state_7_0 INT",
                "__state_7_1 TEXT",
            ]
        );
    }

    /// The first hash exchange of the tree, as EXPLAIN prints it.
    fn hash_exchange(phys: &PhysicalPlan) -> String {
        match phys {
            PhysicalPlan::Exchange {
                mode: mode @ ExchangeMode::Hash(_),
                ..
            } => mode.to_string(),
            other => (other.children().map(hash_exchange))
                .find(|s| !s.is_empty())
                .unwrap_or_default(),
        }
    }

    /// A stored result's distribution column is followed through bare
    /// projections and filters to the grouping below them, which then
    /// exchanges on that group key alone; anything else keeps every key.
    #[test]
    fn a_grouping_under_a_stored_result_exchanges_on_the_stored_key() {
        let two_columns = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]));
        let grouped = |distinct: bool| LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![PlanExpr::column(0, "a"), PlanExpr::column(1, "b")],
            aggs: vec![spinner_plan::AggExpr {
                func: spinner_plan::AggFunc::Count,
                arg: Some(PlanExpr::column(1, "b")),
                by: None,
                distinct,
                name: "c".into(),
            }],
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("c", DataType::Int),
            ])),
        };
        let over = |input: LogicalPlan, exprs: Vec<PlanExpr>| LogicalPlan::Projection {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(input),
                predicate: PlanExpr::column(2, "c").binary(BinaryOp::GtEq, PlanExpr::literal(0i64)),
            }),
            exprs,
            schema: Arc::clone(&two_columns),
        };
        let b_then_c = || vec![PlanExpr::column(1, "b"), PlanExpr::column(2, "c")];
        let exchange = |plan: &LogicalPlan, on: Option<usize>| {
            hash_exchange(&create_stored_plan(plan, on, None).unwrap())
        };
        let every_key = "Hash(a#0, b#1)";
        for distinct in [false, true] {
            let plan = over(grouped(distinct), b_then_c());
            assert_eq!(exchange(&plan, Some(0)), "Hash(b#1)", "{distinct}");
            // Not stored, stored as it comes, or by an aggregate's column.
            let plain = create_physical_plan(&plan, &EngineConfig::default()).unwrap();
            assert_eq!(hash_exchange(&plain), every_key);
            assert_eq!(exchange(&plan, None), every_key);
            assert_eq!(exchange(&plan, Some(1)), every_key);
            // A computed column is not the group key it is computed from.
            let plus_one = PlanExpr::column(1, "b").binary(BinaryOp::Plus, PlanExpr::literal(1i64));
            let computed = over(grouped(distinct), vec![plus_one, PlanExpr::column(2, "c")]);
            assert_eq!(exchange(&computed, Some(0)), every_key);
        }
        let distinct = LogicalPlan::Distinct {
            input: Box::new(scan()),
        };
        assert_eq!(exchange(&distinct, Some(1)), "Hash(b#1)");
        assert_eq!(exchange(&distinct, None), every_key);
    }

    #[test]
    fn distinct_aggregate_stays_single_phase() {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![PlanExpr::column(0, "a")],
            aggs: vec![spinner_plan::AggExpr {
                func: spinner_plan::AggFunc::Count,
                arg: Some(PlanExpr::column(1, "b")),
                by: None,
                distinct: true,
                name: "c".into(),
            }],
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("c", DataType::Int),
            ])),
        };
        let phys = create_physical_plan(&agg, &EngineConfig::default()).unwrap();
        let PhysicalPlan::HashAggregate { input, .. } = phys else {
            panic!("DISTINCT must use the single-phase path")
        };
        assert!(matches!(
            *input,
            PhysicalPlan::Exchange {
                mode: ExchangeMode::Hash(_),
                ..
            }
        ));
    }

    #[test]
    fn global_aggregate_has_no_exchange() {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![],
            aggs: vec![],
            schema: Arc::new(Schema::empty()),
        };
        let phys = create_physical_plan(&agg, &EngineConfig::default()).unwrap();
        let PhysicalPlan::HashAggregate { input, .. } = phys else {
            panic!()
        };
        assert!(matches!(*input, PhysicalPlan::SeqScan { .. }));
    }
}
