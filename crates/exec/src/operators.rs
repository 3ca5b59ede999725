//! Evaluation of physical operator trees over partitioned column blocks.
//!
//! Every operator reads its children and hands up its rows as row numbers
//! into immutable [`Block`]s — a `Joined` per virtual MPP worker (`Rows`)
//! — and works a column at a time: expressions are evaluated into
//! columns, keys are hashed from columns, and what an operator decides is
//! a vector of row numbers — the rows a filter keeps, the `(probe, build)`
//! pairs a join matched, the group of each row, the order of a sort, the
//! partition each row is bound for. A filter and a join compose theirs
//! into the row numbers they hand up and a bare projection remaps
//! columns, so a reader gathers only the columns it reads. Each mechanism
//! has one path:
//! - cells are gathered where a kernel reads them, and where an operator
//!   needs a block — a build side, a distinct or set operation — inside
//!   its partition's worker;
//! - partitions are laid end to end only by `Rows::concat` (a gather, a
//!   broadcast, a sort, a limit, a nested-loop join's sides, the global
//!   aggregate), which gathers each column once from its sources;
//! - per-partition work runs through `map_rows`, in parallel when
//!   `EngineConfig::parallel_partitions` is set — on the statement's
//!   thread and at most one scoped thread per further core, which share
//!   the occupied partitions. The default is sequential execution for
//!   determinism;
//! - every aggregation phase, grouped or global, folds through one kernel,
//!   `aggregate_joined`.
//!
//! A stored `Partitioned` appears only where rows come from storage or go
//! back to it: the scans, the join-state cache, and [`execute`] and
//! [`exchange`], which the executor calls.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use spinner_common::memory::RegionKind;
use spinner_common::profile::{SpanKind, SuspendedSpan};
use spinner_common::{Block, Column, Error, FaultSite, Result, Row, NO_ROW};
use spinner_plan::{AggExpr, JoinType, PlanExpr, SetOpKind, SortKey};
use spinner_storage::{placement, Partitioned, PlacedOn};

use crate::aggregate::{aggregate, Accumulator, Phase};
use crate::cache::CachedInput;
use crate::executor::StatementContext;
#[cfg(debug_assertions)]
use crate::joined::check_types;
use crate::joined::{concat, read_block, read_columns, Joined, Rows};
use crate::keys::{JoinTable, KeyTable, NIL};
use crate::physical::{bare_column, ExchangeMode, JoinBuild, PhysicalPlan};
use crate::retry::retry;
use crate::sort;

/// Track the approximate bytes of an operator's in-flight hash state (a
/// join build side, aggregation groups) against the memory accountant for
/// the duration of `scope`. Such state is *pinned* — an operator cannot
/// have its hash table moved to disk mid-build — so it contributes to
/// pressure (pushing colder named state out) and to the peak high-water
/// mark, but is never itself a spill victim. No-op without a spill
/// environment.
fn with_transient_tracking<T>(
    ctx: &StatementContext<'_>,
    label: &str,
    kind: RegionKind,
    bytes: u64,
    scope: impl FnOnce() -> Result<T>,
) -> Result<T> {
    match &ctx.spill {
        Some(env) => {
            let _region = env.accountant.track_transient(label, kind, bytes);
            scope()
        }
        None => scope(),
    }
}

/// Execute a physical plan tree to a partitioned result: its rows as row
/// numbers (`run`), gathered.
pub fn execute(plan: &PhysicalPlan, ctx: &StatementContext<'_>) -> Result<Partitioned> {
    Ok(run(plan, usize::MAX, ctx)?.gathered())
}

/// `plan`'s rows as row numbers, for a reader that reads only the first
/// `limit` of them in partition order: a `LIMIT` tells the gather below
/// it, which then stops there instead of collecting — and copying — its
/// whole input, and tells its own input in turn, so a sort under it
/// orders only those rows.
pub(crate) fn run(plan: &PhysicalPlan, limit: usize, ctx: &StatementContext<'_>) -> Result<Rows> {
    in_span(plan, ctx, || match plan {
        PhysicalPlan::SeqScan { table, .. } => {
            let snapshot = ctx.catalog.with_table(table, |t| Ok(t.snapshot()))?;
            let parts = ctx.config.partitions;
            Ok(normalize_partitions(snapshot, parts, plan.schema()))
        }
        PhysicalPlan::TempScan { name, .. } => {
            let data = ctx.registry.get(name)?;
            let parts = ctx.config.partitions;
            Ok(normalize_partitions(data, parts, plan.schema()))
        }
        PhysicalPlan::Values { rows, schema } => {
            let literal = |exprs: &Vec<PlanExpr>| exprs.iter().map(|e| e.evaluate(&[])).collect();
            let rows: Vec<Row> = rows.iter().map(literal).collect::<Result<_>>()?;
            let block = Arc::new(Block::from_rows(schema.len(), rows));
            Ok(in_partition_zero(schema.clone(), Joined::of(block), ctx))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            // A projection keeps its input's rows in their order.
            let data = run(input, limit, ctx)?;
            project(data, exprs, schema, ctx)
        }
        PhysicalPlan::Filter { input, predicate } => {
            filter(run(input, usize::MAX, ctx)?, predicate, ctx)
        }
        PhysicalPlan::Exchange { input, mode } => {
            // A gather's first `limit` rows are its input's first `limit`
            // in partition order: a sort below it need order only those.
            let wanted = match mode {
                ExchangeMode::Gather => limit,
                _ => usize::MAX,
            };
            distribute(run(input, wanted, ctx)?, mode, limit, ctx)
        }
        PhysicalPlan::Cached { input } => Ok(cached_input(input, None, ctx)?.rows.into()),
        PhysicalPlan::HashJoin { .. } => hash_join(plan, ctx),
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            join_type,
            residual,
            columns,
            schema,
        } => {
            // Inputs were gathered to partition 0 by the planner.
            let gathered =
                |side| -> Result<_> { Ok(run(side, usize::MAX, ctx)?.concat(usize::MAX)) };
            let (l, r) = (gathered(left)?, gathered(right)?);
            ctx.stats.joins_executed.add(1);
            let joined =
                nested_loop_join((&l, &r), *join_type, residual.as_ref(), columns.as_deref())?;
            Ok(in_partition_zero(schema.clone(), joined, ctx))
        }
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let data = run(input, usize::MAX, ctx)?;
            if group.is_empty() {
                global_aggregate(&data, aggs, schema.clone(), ctx)
            } else {
                grouped_aggregate(
                    plan,
                    data,
                    (group, false),
                    (aggs, Phase::Single),
                    schema,
                    ctx,
                )
            }
        }
        PhysicalPlan::AggregatePartial {
            input,
            group,
            aggs,
            schema,
        } => {
            let data = run(input, usize::MAX, ctx)?;
            grouped_aggregate(
                plan,
                data,
                (group, false),
                (aggs, Phase::Partial),
                schema,
                ctx,
            )
        }
        PhysicalPlan::AggregateFinal {
            input,
            group_len,
            aggs,
            schema,
        } => {
            // Partial states a hash exchange passed through, because they
            // were placed on its key already, are one row per group: each
            // group's rows were in one partition when they were folded.
            let (data, one_per_group) = match &**input {
                PhysicalPlan::Exchange {
                    input: partial,
                    mode: mode @ ExchangeMode::Hash(_),
                } if matches!(**partial, PhysicalPlan::AggregatePartial { .. }) => {
                    let partials = ExchangeInput::run(partial, mode, ctx)?;
                    let in_place = partials.in_place(ctx);
                    (partials.finish(Route::Planned, ctx)?, in_place)
                }
                _ => (run(input, usize::MAX, ctx)?, false),
            };
            // The keys are the states' first columns.
            let group: Vec<PlanExpr> = (0..*group_len).map(|c| PlanExpr::column(c, "")).collect();
            let phase = (aggs.as_slice(), Phase::Final);
            grouped_aggregate(plan, data, (&group, one_per_group), phase, schema, ctx)
        }
        PhysicalPlan::Distinct { input } => {
            let data = run(input, usize::MAX, ctx)?;
            let is_empty = |i: usize| data.parts[i].len() == 0;
            let parts = map_rows(&data, ctx, &is_empty, &|_, joined| {
                distinct_rows(&joined.gather()).map(Joined::of)
            })?;
            Ok(Rows { parts, ..data })
        }
        PhysicalPlan::Sort { input, keys } => {
            let data = run(input, usize::MAX, ctx)?;
            let sorted = sort_rows(&data.concat(usize::MAX), keys, limit)?;
            Ok(in_partition_zero(data.schema, Joined::of(sorted), ctx))
        }
        PhysicalPlan::Limit { input, n } => {
            // The first `n` rows in partition order, and no row past them.
            let n = usize::try_from(*n).unwrap_or(usize::MAX);
            let data = run(input, n, ctx)?;
            let rows = data.concat(n);
            Ok(in_partition_zero(data.schema, Joined::of(rows), ctx))
        }
        PhysicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            let l = run(left, usize::MAX, ctx)?;
            let r = run(right, usize::MAX, ctx)?;
            same_partitions(l.parts.len(), r.parts.len())?;
            let is_empty = |i: usize| l.parts[i].len() == 0 && r.parts[i].len() == 0;
            let parts = map_rows(&l, ctx, &is_empty, &|i, l| {
                set_op_partition(l, &r.parts[i], *op, *all).map(Joined::of)
            })?;
            // EXCEPT and INTERSECT keep left rows; a union keeps both
            // sides', placed alike only if both sides were.
            let placed_on = if *op != SetOpKind::Union || l.placed_on == r.placed_on {
                l.placed_on
            } else {
                PlacedOn::UNKNOWN
            };
            Ok(Rows {
                schema: schema.clone(),
                parts,
                placed_on,
            })
        }
    })
}

/// Run `plan` by `run` at an operator batch boundary, under the
/// operator's profile span.
fn in_span(
    plan: &PhysicalPlan,
    ctx: &StatementContext<'_>,
    run: impl FnOnce() -> Result<Rows>,
) -> Result<Rows> {
    // Operator batch boundary: every operator in the tree passes through
    // here, so cancellation and deadlines are honoured between operators
    // even when a single plan has no loop.
    ctx.guard.check()?;
    let traced = ctx.tracer.is_enabled();
    if traced {
        ctx.tracer.enter(SpanKind::Operator, plan.describe());
    }
    let result = run();
    #[cfg(debug_assertions)]
    if let Ok(data) = &result {
        check_types(&data.parts, &plan.schema(), || plan.describe());
    }
    if traced {
        match &result {
            Ok(data) => ctx
                .tracer
                .exit(data.total_rows() as u64, data.estimated_bytes()),
            Err(_) => ctx.tracer.exit(0, 0),
        }
    }
    result
}

/// The output column a projection of `exprs` copies input column `c` to,
/// if one is that bare column.
fn output_of(exprs: &[PlanExpr], c: usize) -> Option<usize> {
    exprs.iter().position(|e| bare_column(e) == Some(c))
}

/// `exprs` over every row of `data`, into rows of `schema`. Bare columns
/// remap the input's columns; any other projection evaluates over the
/// columns it reads.
fn project(
    data: Rows,
    exprs: &[PlanExpr],
    schema: &spinner_common::SchemaRef,
    ctx: &StatementContext<'_>,
) -> Result<Rows> {
    if let Some(picked) = exprs.iter().map(bare_column).collect::<Option<Vec<_>>>() {
        return Ok(Rows {
            schema: schema.clone(),
            parts: data.parts.into_iter().map(|j| j.project(&picked)).collect(),
            placed_on: data.placed_on.remap(|c| output_of(exprs, c)),
        });
    }
    let is_empty = |i: usize| data.parts[i].len() == 0;
    let out = map_rows(&data, ctx, &is_empty, &|_, joined| {
        let block = joined.reading(exprs);
        let columns = evaluate_all(exprs, &block)?;
        Ok((Arc::new(Block::new(columns, joined.len())), block))
    })?;
    // An output column that is an input column's very buffer — a bare
    // column, or a cast that left the column as it was — is placed as
    // that input column was. A column no expression reads is none.
    let read = read_columns(exprs);
    let shares = |k: usize, c: usize| {
        read.binary_search(&c).is_ok()
            && (out.iter()).all(|(o, i)| Arc::ptr_eq(&o.columns()[k], &i.columns()[c]))
    };
    let placed_on = (data.placed_on).remap(|c| (0..exprs.len()).find(|&k| shares(k, c)));
    Ok(Rows {
        schema: schema.clone(),
        parts: out.into_iter().map(|(o, _)| Joined::of(o)).collect(),
        placed_on,
    })
}

/// The rows of `data` that pass `predicate`, composed into its row
/// numbers; a partition that keeps every row is handed up as it is.
fn filter(data: Rows, predicate: &PlanExpr, ctx: &StatementContext<'_>) -> Result<Rows> {
    let is_empty = |i: usize| data.parts[i].len() == 0;
    let kept = map_rows(&data, ctx, &is_empty, &|_, joined| {
        let kept = predicate.select(&joined.reading([predicate]))?;
        Ok((kept.len() < joined.len()).then(|| joined.select(kept)))
    })?;
    let parts = data.parts.into_iter().zip(kept);
    Ok(Rows {
        parts: parts.map(|(all, kept)| kept.unwrap_or(all)).collect(),
        ..data
    })
}

/// Each of `exprs` over `block`, a column apiece.
pub(crate) fn evaluate_all<'e>(
    exprs: impl IntoIterator<Item = &'e PlanExpr>,
    block: &Block,
) -> Result<Vec<Arc<Column>>> {
    exprs
        .into_iter()
        .map(|e| e.evaluate_column(block))
        .collect()
}

/// A stored row set as the rows of a scan, in exactly `parts` partitions,
/// preserving data. A result stored under a different configuration is
/// dealt anew, and is then no longer placed on a key.
fn normalize_partitions(
    data: Partitioned,
    parts: usize,
    schema: spinner_common::SchemaRef,
) -> Rows {
    let data = Rows {
        schema,
        ..Rows::from(data)
    };
    if data.parts.len() == parts {
        return data;
    }
    // Round-robin over the rows in partition order.
    let all = data.concat(usize::MAX);
    let nth = |p: usize| (p..all.rows()).step_by(parts).map(|row| row as u32);
    Rows {
        parts: (0..parts)
            .map(|p| Joined::of(Arc::new(all.take(&nth(p).collect::<Vec<_>>()))))
            .collect(),
        placed_on: PlacedOn::UNKNOWN,
        ..data
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Run one partition's work with panic isolation and bounded transient
/// retry.
///
/// A panic inside `f` (user expression evaluation, an injected chaos
/// fault, a bug) is caught at the partition boundary and converted into
/// [`Error::WorkerPanicked`]. Transient failures (see
/// [`Error::is_retryable`]) are retried in place up to
/// `max_partition_retries` times — the partition's input snapshot is
/// immutable, so a retry re-runs exactly the failed subtree, and the
/// siblings keep their results. Only when the budget is exhausted does
/// the guard's *worker abort* fire, stopping sibling partitions at their
/// next batch boundary; the mid-loop recovery driver clears that flag
/// before a replay, whereas external cancellation stays sticky. Fatal
/// errors propagate immediately. The catalog and registry use
/// non-poisoning locks, so the process (and the session) stays usable.
fn run_partition<T>(
    ctx: &StatementContext<'_>,
    partition: usize,
    f: impl Fn() -> Result<T>,
) -> Result<T> {
    let outcome = retry(
        ctx.guard,
        ctx.config.max_partition_retries,
        || {
            // A sibling already gave up: stop retrying, but surface our
            // own (transient) error so the caller sees what happened in
            // this partition, not a misleading `Cancelled`.
            if ctx.guard.worker_abort_requested() {
                return Ok(false);
            }
            ctx.guard.check()?; // deadline
            ctx.stats.partition_retries.add(1);
            ctx.tracer.note_retry();
            Ok(true)
        },
        || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.faults.hit(FaultSite::Worker)?;
                f()
            }))
            .unwrap_or_else(|payload| {
                Err(Error::WorkerPanicked {
                    partition,
                    message: panic_message(payload),
                })
            })
        },
    );
    if outcome.as_ref().is_err_and(Error::is_retryable) {
        // A transient failure survived every retry: stop sibling
        // partitions at their next boundary instead of computing results
        // nobody reads.
        ctx.guard.abort_workers();
    }
    outcome
}

/// Cores this process may run on, read once: `available_parallelism`
/// reads cgroup files, too slow to repeat per operator.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f(i, partition i)` over every partition of `rows` and collect the
/// results in partition order; `is_empty(i)` tells which partitions have
/// no work. Each call is panic-isolated and retried as
/// [`run_partition`] says.
///
/// Scheduling policy:
/// - serial mode, or fewer than two *occupied* partitions: everything
///   runs on the statement's thread, in partition order — deterministic,
///   zero threads;
/// - otherwise the statement's thread and `min(occupied, cores) − 1`
///   scoped threads take occupied partitions from one counter until none
///   is left (`pool_tasks` counts the partitions, `threads_spawned` the
///   threads). A thread that cannot be spawned leaves its share to the
///   others.
///
/// Empty partitions run on the statement's thread after the parallel
/// batch. They still go through `f` (and therefore [`run_partition`]),
/// so fault-injection hit counts and retry accounting are identical in
/// every mode.
fn map_rows<'r, T: Send + Sync>(
    rows: &'r Rows,
    ctx: &StatementContext<'_>,
    is_empty: &dyn Fn(usize) -> bool,
    f: &(dyn Fn(usize, &'r Joined) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    let count = rows.parts.len();
    let work = |i: usize| run_partition(ctx, i, || f(i, &rows.parts[i]));
    // Serially nothing is listed, and an empty list allocates nothing.
    let listed = |i: &usize| ctx.config.parallel_partitions && !is_empty(*i);
    let occupied: Vec<usize> = (0..count).filter(listed).collect();
    if occupied.len() < 2 {
        return (0..count).map(work).collect();
    }
    ctx.stats.pool_tasks.add(occupied.len() as u64);
    let slots: Vec<OnceLock<Result<T>>> = (0..count).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let drain = || {
        while let Some(&i) = occupied.get(next.fetch_add(1, Ordering::Relaxed)) {
            let _ = slots[i].set(work(i));
        }
    };
    thread::scope(|s| {
        let helpers = (1..occupied.len().min(cores()))
            .map_while(|_| {
                let builder = thread::Builder::new().name("spinner-worker".into());
                builder.spawn_scoped(s, drain).ok()
            })
            .count();
        ctx.stats.threads_spawned.add(helpers as u64);
        drain();
    });
    // Every empty partition runs before the first error returns, however
    // an occupied one ended.
    let results: Vec<Result<T>> = (slots.into_iter().enumerate())
        .map(|(i, slot)| slot.into_inner().unwrap_or_else(|| work(i)))
        .collect();
    results.into_iter().collect()
}

/// Two inputs of one operator must have as many partitions.
fn same_partitions(l: usize, r: usize) -> Result<()> {
    match l == r {
        true => Ok(()),
        false => Err(Error::execution(format!(
            "partition count mismatch: {l} vs {r}"
        ))),
    }
}

/// `rows` as partition 0 of an otherwise empty row set — the layout every
/// gathering operator (sort, limit, global aggregate, …) produces.
fn in_partition_zero(
    schema: spinner_common::SchemaRef,
    rows: Joined,
    ctx: &StatementContext<'_>,
) -> Rows {
    let empty = Joined::of(Arc::new(Block::empty(schema.len())));
    let mut parts = vec![empty; ctx.config.partitions];
    parts[0] = rows;
    Rows {
        schema,
        parts,
        placed_on: PlacedOn::UNKNOWN,
    }
}

/// Account `moved` rows as having changed partition.
fn charge_rows_moved(ctx: &StatementContext<'_>, moved: u64) -> Result<()> {
    ctx.guard.charge_rows_moved(moved)?;
    ctx.stats.rows_moved.add(moved);
    ctx.tracer.note_rows_moved(moved);
    Ok(())
}

/// Redistribute rows according to `mode`, counting movement.
///
/// A hash exchange whose input is already placed on its key — every key a
/// bare column, and the input's [`PlacedOn`] names exactly those columns,
/// in that order, at the configured partition count — returns it as it
/// is: the same rows, no key evaluated, no row hashed. Debug builds check
/// every such row against the tag. Any other input is routed: its rows
/// are hashed by [`spinner_storage::placement`] — the rule stored tables
/// and checkpoints were distributed by — once per partition from the
/// key's columns, the only ones gathered to route it (`rows_routed` counts
/// them), and the output is placed on the key. When no row changes
/// partition and the input already has the configured partition count, a
/// hash or gather exchange returns its input's rows. A gather whose reader
/// wants only the first `limit` rows (`usize::MAX`: all) fetches — and
/// counts as moved — no row past them. A gather or broadcast places rows
/// on no key.
fn distribute(
    data: Rows,
    mode: &ExchangeMode,
    limit: usize,
    ctx: &StatementContext<'_>,
) -> Result<Rows> {
    ctx.faults.hit(FaultSite::Exchange)?;
    let parts = ctx.config.partitions;
    match mode {
        ExchangeMode::Hash(keys) => hash_exchange(data, keys, ctx),
        ExchangeMode::Gather => {
            let wanted = data.total_rows().min(limit);
            let moved = wanted.saturating_sub(data.parts.first().map_or(0, Joined::len)) as u64;
            charge_rows_moved(ctx, moved)?;
            if moved == 0 && data.parts.len() == parts {
                return Ok(Rows {
                    placed_on: PlacedOn::UNKNOWN,
                    ..data
                });
            }
            let rows = data.concat(limit);
            Ok(in_partition_zero(data.schema, Joined::of(rows), ctx))
        }
        ExchangeMode::Broadcast => {
            let rows = data.concat(usize::MAX);
            let copies = rows.rows() as u64 * (parts as u64).saturating_sub(1);
            ctx.guard.charge_rows_moved(copies)?;
            ctx.stats.rows_broadcast.add(copies);
            ctx.tracer.note_rows_moved(copies);
            Ok(Rows {
                schema: data.schema,
                parts: vec![Joined::of(rows); parts],
                placed_on: PlacedOn::UNKNOWN,
            })
        }
    }
}

/// Redistribute a partitioned result according to `mode`, counting
/// movement, as an `Exchange` does (`distribute`), gathered. Rows placed
/// on a hash exchange's key already are handed back as they are.
pub fn exchange(
    data: Partitioned,
    mode: &ExchangeMode,
    limit: usize,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    if let ExchangeMode::Hash(keys) = mode {
        if data.placed_for(placed_by(keys), ctx.config.partitions) {
            ctx.faults.hit(FaultSite::Exchange)?;
            return Ok(data);
        }
    }
    Ok(distribute(data.into(), mode, limit, ctx)?.gathered())
}

/// The placement a hash exchange on `keys` gives its output.
fn placed_by(keys: &[PlanExpr]) -> PlacedOn {
    PlacedOn::new(keys.iter().map(bare_column))
}

/// The hash exchange of [`distribute`] on `keys`.
fn hash_exchange(mut data: Rows, keys: &[PlanExpr], ctx: &StatementContext<'_>) -> Result<Rows> {
    let parts = ctx.config.partitions;
    let placed_on = placed_by(keys);
    if data.placed_for(placed_on, parts) {
        return Ok(data);
    }
    // Over more than one partition, rows not placed on the key yet move
    // but by chance: they are gathered once, before their keys are read.
    // Over one, none moves, so a join's output is read for its keys alone
    // and stays row numbers.
    if parts > 1 {
        for joined in &mut data.parts {
            *joined = Joined::of(joined.gather());
        }
    }
    let mut targets = Vec::with_capacity(data.parts.len());
    let mut moved = 0u64;
    for (src, joined) in data.parts.iter().enumerate() {
        let keys = evaluate_all(keys, &joined.reading(keys))?;
        let bound = placement(&keys, joined.len(), parts);
        moved += bound.iter().filter(|&&t| t as usize != src).count() as u64;
        targets.push(bound);
    }
    ctx.stats.rows_routed.add(data.total_rows() as u64);
    charge_rows_moved(ctx, moved)?;
    if moved == 0 && data.parts.len() == parts {
        return Ok(Rows { placed_on, ..data });
    }
    let data = data.gathered();
    Ok(Rows::from(Partitioned {
        parts: data.scatter(&targets, parts),
        schema: data.schema,
        placed_on,
    }))
}

/// How an [`ExchangeInput`] finishes.
enum Route {
    /// The hash exchange the plan put there.
    Planned,
    /// A copy of every row in every partition, in place of the hash.
    Broadcast,
    /// No exchange: every row stays where it is.
    InPlace,
}

/// The input of an `Exchange` node, run under the exchange's own profile
/// span, which is set aside until [`finish`](Self::finish) redistributes
/// the rows: an operator may look at what its exchanges hold before it
/// chooses how to distribute them.
struct ExchangeInput<'p> {
    rows: Rows,
    mode: &'p ExchangeMode,
    span: SuspendedSpan,
}

impl<'p> ExchangeInput<'p> {
    /// Run `input`, the input of an exchange by `mode`.
    fn run(
        input: &PhysicalPlan,
        mode: &'p ExchangeMode,
        ctx: &StatementContext<'_>,
    ) -> Result<Self> {
        ctx.guard.check()?;
        ctx.tracer
            .enter(SpanKind::Operator, format!("Exchange: {mode}"));
        let rows = run(input, usize::MAX, ctx);
        let span = ctx.tracer.suspend();
        Ok(ExchangeInput {
            rows: rows?,
            mode,
            span,
        })
    }

    /// Whether the planned exchange is a hash whose keys the rows are
    /// placed on already, so it would pass them through.
    fn in_place(&self, ctx: &StatementContext<'_>) -> bool {
        let ExchangeMode::Hash(keys) = self.mode else {
            return false;
        };
        self.rows.placed_for(placed_by(keys), ctx.config.partitions)
    }

    /// The rows distributed by `route`: any route is one hit of the
    /// exchange fault site, and one profile node, labeled as the plan's
    /// exchange unless the route replaced it.
    fn finish(self, route: Route, ctx: &StatementContext<'_>) -> Result<Rows> {
        let instead = |what: &str| Some(format!("Exchange: {what} instead of {}", self.mode));
        let label = match route {
            Route::Planned => None,
            Route::Broadcast => instead("Broadcast"),
            Route::InPlace => instead("in place"),
        };
        ctx.tracer.resume(self.span, label);
        let data = match route {
            Route::Planned => distribute(self.rows, self.mode, usize::MAX, ctx),
            Route::Broadcast => distribute(self.rows, &ExchangeMode::Broadcast, usize::MAX, ctx),
            Route::InPlace => ctx.faults.hit(FaultSite::Exchange).map(|()| self.rows),
        };
        match &data {
            Ok(data) if ctx.tracer.is_enabled() => ctx
                .tracer
                .exit(data.total_rows() as u64, data.estimated_bytes()),
            _ => ctx.tracer.exit(0, 0),
        }
        data
    }
}

/// The hash join `plan` as row numbers ([`Joined`]), composed with its
/// probe side's.
fn hash_join(plan: &PhysicalPlan, ctx: &StatementContext<'_>) -> Result<Rows> {
    let PhysicalPlan::HashJoin {
        left,
        right,
        join_type,
        left_keys,
        right_keys,
        residual,
        columns,
        build,
        schema,
    } = plan
    else {
        return Err(Error::execution(format!(
            "not a hash join: {}",
            plan.describe()
        )));
    };
    let join = HashJoinSpec {
        join_type: *join_type,
        left_keys,
        right_keys,
        residual: residual.as_ref(),
        columns: columns.as_deref(),
        ctx,
    };
    let (l, parts) = match (&**left, &**right) {
        (
            PhysicalPlan::Exchange {
                input: probe,
                mode: probe_mode @ ExchangeMode::Hash(_),
            },
            PhysicalPlan::Exchange {
                input: build_rows,
                mode: build_mode @ ExchangeMode::Hash(_),
            },
        ) if *build == JoinBuild::PerRun
            && matches!(join_type, JoinType::Inner | JoinType::Left)
            && ctx.config.partitions > 1 =>
        {
            let probe = ExchangeInput::run(probe, probe_mode, ctx)?;
            let build = ExchangeInput::run(build_rows, build_mode, ctx)?;
            broadcast_or_hash_join(probe, build, &join)?
        }
        _ => {
            let l = run(left, usize::MAX, ctx)?;
            // A loop-invariant build side is built once and re-probed on
            // every later iteration; a merge loop's CTE is looked up
            // through its solution index while that indexes the very
            // blocks just read.
            let indexed = match build {
                JoinBuild::Indexed { cte } => {
                    let blocks = l.parts.iter().map_while(Joined::as_block);
                    ctx.solutions.tables(cte, blocks)
                }
                _ => None,
            };
            let parts = if *build == JoinBuild::Cached {
                cached_hash_join(&l, right, &join)?
            } else {
                let r = run(right, usize::MAX, ctx)?;
                ctx.stats.joins_executed.add(1);
                match indexed {
                    Some(tables) => {
                        same_partitions(l.parts.len(), r.parts.len())?;
                        let is_empty = |i: usize| l.parts[i].len() == 0 && r.parts[i].len() == 0;
                        map_rows(&l, ctx, &is_empty, &|i, l| {
                            let r = r.parts[i].gather();
                            let pairs = join.indexed_pairs(&l.gather(), &r, &tables[i])?;
                            Ok(l.then(&r, pairs, join.output()))
                        })?
                    }
                    None => hash_join_partitions(&l, &r, &join)?,
                }
            };
            (l, parts)
        }
    };
    // Every output row of an inner or left join is a probe row with its
    // cells where `columns` puts them; the others pad the probe side with
    // NULLs.
    let placed_on = match join_type {
        JoinType::Inner | JoinType::Left => l.placed_on.remap(|c| match columns {
            Some(columns) => columns.iter().position(|&o| o == c),
            None => Some(c),
        }),
        _ => PlacedOn::UNKNOWN,
    };
    Ok(Rows {
        schema: schema.clone(),
        parts,
        placed_on,
    })
}

/// A per-run inner or left hash join whose inputs are both hash exchanges,
/// distributed by the rows in hand: with `P` partitions, the build side is
/// broadcast and the probe side stays where it is when the probe side is
/// not placed on its join key already and the broadcast copies fewer rows,
/// `build × (P − 1)`, than the probe side holds; otherwise both sides are
/// hashed as planned. A broadcast keeps the probe side's placement, which
/// the join's output inherits, so an aggregate above it on the same key
/// needs no exchange; hashing the probe side would place the output on the
/// join key instead. One key index is built over the broadcast rows and
/// probed from every partition. Returns the probe side as the join saw it
/// and the joined partitions.
fn broadcast_or_hash_join(
    probe: ExchangeInput<'_>,
    build: ExchangeInput<'_>,
    join: &HashJoinSpec<'_>,
) -> Result<(Rows, Vec<Joined>)> {
    let ctx = join.ctx;
    let copies = build.rows.total_rows() * (ctx.config.partitions - 1);
    let broadcast = !probe.in_place(ctx) && copies < probe.rows.total_rows();
    ctx.stats.joins_executed.add(1);
    if !broadcast {
        let l = probe.finish(Route::Planned, ctx)?;
        let r = build.finish(Route::Planned, ctx)?;
        let parts = hash_join_partitions(&l, &r, join)?;
        return Ok((l, parts));
    }
    let bytes = build.rows.estimated_bytes();
    let l = probe.finish(Route::InPlace, ctx)?;
    let r = build.finish(Route::Broadcast, ctx)?;
    // Every partition holds the one broadcast block.
    let shared = &r.parts[0].gather();
    let parts = with_transient_tracking(
        ctx,
        "hash join build",
        RegionKind::HashJoinBuild,
        bytes,
        || {
            let table = join.build(shared)?;
            map_rows(&l, ctx, &|i| l.parts[i].len() == 0, &|_, l| {
                join.probe(l, shared, &table)
            })
        },
    )?;
    Ok((l, parts))
}

/// Hash join of co-partitioned inputs, a key index built per partition
/// over its build rows, gathered.
fn hash_join_partitions(l: &Rows, r: &Rows, join: &HashJoinSpec<'_>) -> Result<Vec<Joined>> {
    let ctx = join.ctx;
    with_transient_tracking(
        ctx,
        "hash join build",
        RegionKind::HashJoinBuild,
        r.estimated_bytes(),
        || {
            same_partitions(l.parts.len(), r.parts.len())?;
            let is_empty = |i: usize| l.parts[i].len() == 0 && r.parts[i].len() == 0;
            map_rows(l, ctx, &is_empty, &|i, l| {
                let r = r.parts[i].gather();
                join.probe(l, &r, &join.build(&r)?)
            })
        },
    )
}

/// Candidate pairs a join with a residual collects before it evaluates
/// the residual over them, so a selective residual over many key-equal
/// pairs never holds them all.
const RESIDUAL_CHUNK: usize = 1 << 16;

/// The join of `l` (probe side) and `r` (build side) as `(probe, build)`
/// row numbers, [`NO_ROW`] being the padded side, given its candidate
/// pairs: `candidates(row)` is the slice of build rows to pair probe row
/// `row` with, in build order. A pair is kept if it passes `residual`.
/// Pairs come probe row by probe row, each with its kept matches in
/// build-row order (or padded, for an outer join, when it has none), then
/// the unmatched build rows. Without a residual each probe row's slice is
/// copied straight into the output; with one, candidate pairs are
/// collected and filtered a chunk at a time. [`Joined::then`] makes the
/// pairs the join's output.
pub(crate) fn join_pairs<'a>(
    (l, r): (&Block, &Block),
    (join_type, residual): (JoinType, Option<&PlanExpr>),
    candidates: impl Fn(usize) -> &'a [u32],
) -> Result<(Vec<u32>, Vec<u32>)> {
    let pads_build = matches!(join_type, JoinType::Left | JoinType::Full);
    let pads_probe = matches!(join_type, JoinType::Right | JoinType::Full);
    let mut matched_build = vec![false; if pads_probe { r.rows() } else { 0 }];
    let (mut probe, mut build) = (Vec::with_capacity(l.rows()), Vec::with_capacity(l.rows()));
    // One probe row's kept matches, or its padding.
    let mut emit = |probe_row: u32, matched: &[u32]| {
        if matched.is_empty() && pads_build {
            probe.push(probe_row);
            build.push(NO_ROW);
        }
        probe.resize(probe.len() + matched.len(), probe_row);
        build.extend_from_slice(matched);
        if pads_probe {
            for &build_row in matched {
                matched_build[build_row as usize] = true;
            }
        }
    };
    match residual {
        None => (0..l.rows()).for_each(|row| emit(row as u32, candidates(row))),
        Some(residual) => {
            // Only the columns the residual reads are gathered.
            let read = read_columns([residual]);
            let width = l.columns().len() + r.columns().len();
            let (mut chunk_probe, mut chunk_build) = (Vec::new(), Vec::new());
            let mut chunk_start = 0;
            for row in 0..l.rows() {
                chunk_build.extend_from_slice(candidates(row));
                chunk_probe.resize(chunk_build.len(), row as u32);
                if chunk_build.len() < RESIDUAL_CHUNK && row + 1 < l.rows() {
                    continue;
                }
                let pair_cells = |c: usize| match c.checked_sub(l.columns().len()) {
                    None => Arc::new(l.columns()[c].gather(&chunk_probe)),
                    Some(c) => Arc::new(r.columns()[c].gather(&chunk_build)),
                };
                let pairs = read_block((width, chunk_probe.len()), &read, pair_cells);
                let kept = residual.select(&pairs)?;
                chunk_probe = kept.iter().map(|&k| chunk_probe[k as usize]).collect();
                chunk_build = kept.iter().map(|&k| chunk_build[k as usize]).collect();
                let mut next = 0;
                for probe_row in chunk_start as u32..=row as u32 {
                    let first = next;
                    while chunk_probe.get(next) == Some(&probe_row) {
                        next += 1;
                    }
                    emit(probe_row, &chunk_build[first..next]);
                }
                chunk_probe.clear();
                chunk_build.clear();
                chunk_start = row + 1;
            }
        }
    }
    if pads_probe {
        let unmatched = (0..r.rows()).filter(|&row| !matched_build[row]);
        build.extend(unmatched.map(|row| row as u32));
        probe.resize(build.len(), NO_ROW);
    }
    Ok((probe, build))
}

/// Everything a hash join knows besides its input rows.
pub(crate) struct HashJoinSpec<'a> {
    pub(crate) join_type: JoinType,
    pub(crate) left_keys: &'a [PlanExpr],
    pub(crate) right_keys: &'a [PlanExpr],
    pub(crate) residual: Option<&'a PlanExpr>,
    pub(crate) columns: Option<&'a [usize]>,
    pub(crate) ctx: &'a StatementContext<'a>,
}

impl HashJoinSpec<'_> {
    /// The key index over one build partition.
    pub(crate) fn build(&self, r: &Block) -> Result<JoinTable> {
        JoinTable::build(evaluate_all(self.right_keys, r)?, r.rows())
    }

    /// How the join's output is formed from its pairs: which side it may
    /// pad, and the columns it emits.
    pub(crate) fn output(&self) -> (JoinType, Option<&[usize]>) {
        (self.join_type, self.columns)
    }

    /// Probe one partition against the prebuilt index over `r`: only the
    /// probe side's columns that its keys and the residual read are
    /// gathered, and its row numbers are composed with this join's.
    fn probe(&self, l: &Joined, r: &Arc<Block>, table: &JoinTable) -> Result<Joined> {
        let read = l.reading(self.left_keys.iter().chain(self.residual));
        Ok(l.then(r, self.pairs(&read, r, table)?, self.output()))
    }

    /// The [`join_pairs`] of one partition probed against the prebuilt
    /// index over `r`. Which build rows matched is per-call state, so a
    /// build shared across iterations by the join-state cache stays
    /// read-only.
    pub(crate) fn pairs(
        &self,
        l: &Block,
        r: &Block,
        table: &JoinTable,
    ) -> Result<(Vec<u32>, Vec<u32>)> {
        let keys = evaluate_all(self.left_keys, l)?;
        let found = table.find_all(&keys, l.rows());
        // NULL keys never match: the build side left rows with one out.
        join_pairs((l, r), (self.join_type, self.residual), |row| {
            table.group_of(found[row])
        })
    }

    /// The [`pairs`](Self::pairs) of an inner join without a residual,
    /// found from the build side: every row of `r` looks up the rows of `l`
    /// holding its key in `table`, an index over `l`'s keys, and the pairs
    /// are counting-sorted by probe row, build order kept within one —
    /// the order [`join_pairs`] emits. Nothing is built over `r`.
    pub(crate) fn indexed_pairs(
        &self,
        l: &Block,
        r: &Block,
        table: &JoinTable,
    ) -> Result<(Vec<u32>, Vec<u32>)> {
        debug_assert!(self.join_type == JoinType::Inner && self.residual.is_none());
        let keys = evaluate_all(self.right_keys, r)?;
        // The probe rows of each build row: its key's group, none for a
        // NULL key.
        let found = table.find_all(&keys, r.rows());
        let matched = || (found.iter().enumerate()).map(|(row, &id)| (row, table.group_of(id)));
        // Probe row `p`'s pairs are `starts[p]..starts[p + 1]`.
        let mut starts = vec![0u32; l.rows() + 1];
        for (_, rows) in matched() {
            rows.iter().for_each(|&p| starts[p as usize + 1] += 1);
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        let mut build = vec![0u32; starts[l.rows()] as usize];
        for (row, rows) in matched() {
            for &p in rows {
                build[starts[p as usize] as usize] = row as u32;
                starts[p as usize] += 1;
            }
        }
        // Each start is now its probe row's end.
        let mut probe = Vec::with_capacity(build.len());
        for (p, &end) in starts[..l.rows()].iter().enumerate() {
            probe.resize(end as usize, p as u32);
        }
        Ok((probe, build))
    }
}

/// The rows of the loop-invariant input `input` through the
/// [`JoinStateCache`](crate::JoinStateCache) and, for the build side of
/// `index`, a key index per partition.
///
/// On a hit (`join_builds_reused`) `input` is not executed at all — no
/// scan, no join, no exchange, no re-hash. Otherwise (`join_builds`) it
/// executes once — or its rows come back from disk — and a build side's
/// key indexes are built under pinned transient tracking.
fn cached_input(
    input: &PhysicalPlan,
    index: Option<&HashJoinSpec<'_>>,
    ctx: &StatementContext<'_>,
) -> Result<CachedInput> {
    let keys = index.map(|join| join.right_keys);
    let (entry, reused) = ctx.join_cache.get_or_run((input, keys), ctx, |rows| {
        let rows = match rows {
            Some(rows) => rows,
            None => execute(input, ctx)?,
        };
        let tables = match index {
            Some(join) => with_transient_tracking(
                ctx,
                "hash join build",
                RegionKind::HashJoinBuild,
                rows.estimated_bytes(),
                || rows.parts.iter().map(|p| join.build(p)).collect(),
            )?,
            None => Vec::new(),
        };
        Ok((rows, tables))
    })?;
    match reused {
        true => ctx.stats.join_builds_reused.add(1),
        false => ctx.stats.join_builds.add(1),
    }
    Ok(entry)
}

/// Hash join against a loop-invariant build side, its key index cached
/// ([`cached_input`]).
fn cached_hash_join(
    l: &Rows,
    right: &PhysicalPlan,
    join: &HashJoinSpec<'_>,
) -> Result<Vec<Joined>> {
    let ctx = join.ctx;
    ctx.stats.joins_executed.add(1);
    let entry = cached_input(right, Some(join), ctx)?;
    same_partitions(l.parts.len(), entry.rows.parts.len())?;
    map_rows(l, ctx, &|i| l.parts[i].len() == 0, &|i, l| {
        join.probe(l, &entry.rows.parts[i], &entry.tables[i])
    })
}

/// Nested-loop join over gathered inputs: every pair is a candidate.
fn nested_loop_join(
    (l, r): (&Arc<Block>, &Arc<Block>),
    join_type: JoinType,
    residual: Option<&PlanExpr>,
    columns: Option<&[usize]>,
) -> Result<Joined> {
    let every_build_row: Vec<u32> = (0..r.rows() as u32).collect();
    let pairs = join_pairs((l, r), (join_type, residual), |_| &every_build_row)?;
    Ok(Joined::of(Arc::clone(l)).then(r, pairs, (join_type, columns)))
}

/// A grouped aggregation phase of `plan` over `data`, into rows of
/// `schema`; the final phase's keys are the first columns of the partial
/// states it reads. Each partition is folded by [`aggregate_joined`], its
/// groups numbered at the rows of its first source as they are, when that
/// source, which no join padded, holds every column the group expressions
/// read; otherwise at a block of the columns the aggregate reads, gathered
/// first. When the rows a join made are numbered at its source, the
/// operator's profile label says so. Either way the groups are charged as
/// the gathered rows' bytes.
fn grouped_aggregate(
    plan: &PhysicalPlan,
    data: Rows,
    (group, distinct): (&[PlanExpr], bool),
    (aggs, phase): (&[AggExpr], Phase),
    schema: &spinner_common::SchemaRef,
    ctx: &StatementContext<'_>,
) -> Result<Rows> {
    let label = match phase {
        Phase::Single => "hash aggregate",
        Phase::Partial => "partial aggregate",
        Phase::Final => "final aggregate",
    };
    let keys = read_columns(group);
    let args = match phase {
        Phase::Final => (group.len()..data.schema.len()).collect(),
        _ => read_columns(aggs.iter().flat_map(|a| a.arg.iter().chain(&a.by))),
    };
    let at_first = |joined: &Joined| {
        joined.first_source().is_some() && keys.iter().all(|&c| joined.source_of(c).0 == 0)
    };
    let at_source = data.parts.iter().all(at_first);
    if at_source && data.parts.iter().any(Joined::is_join) && ctx.tracer.is_enabled() {
        let span = ctx.tracer.suspend();
        let label = format!("{}, grouped by source rows", plan.describe());
        ctx.tracer.resume(span, Some(label));
    }
    // Otherwise the columns the aggregate reads are gathered first.
    let read = match at_source {
        true => Vec::new(),
        false => {
            let mut read = [&keys[..], &args[..]].concat();
            read.sort_unstable();
            read.dedup();
            read
        }
    };
    let grouped = |joined: &Joined| {
        let (group, aggs) = ((group, distinct), (aggs, phase));
        aggregate_joined(joined, group, aggs, (&keys, &args)).map(Joined::of)
    };
    let is_empty = |i: usize| data.parts[i].len() == 0;
    let bytes = data.estimated_bytes();
    let parts = with_transient_tracking(ctx, label, RegionKind::HashAggregate, bytes, || {
        map_rows(&data, ctx, &is_empty, &|_, joined| match at_source {
            true => grouped(joined),
            false => grouped(&Joined::of(Arc::new(joined.block(&read).into_owned()))),
        })
    })?;
    Ok(Rows {
        schema: schema.clone(),
        parts,
        placed_on: data.placed_on.remap(|c| output_of(group, c)),
    })
}

/// One aggregation phase over one partition: the aggregation kernel. The
/// output is the distinct group keys followed by what each of `aggs`
/// emits in `phase` ([`aggregate`](crate::aggregate::aggregate)), the
/// groups in first-seen order. Without keys (`group` empty) every row is
/// in one group, even over no rows. Each aggregate folds its input
/// columns — its arguments, evaluated over the output's columns `args`,
/// or in the [`Phase::Final`] phase its partial states, the columns that
/// follow the keys — by its rows' group numbers. Of the output, only the
/// columns `args` are gathered.
///
/// With keys, the groups are numbered at the rows of the output's first
/// source, which no join padded and which holds the columns `keys` that
/// the group expressions read. The output visits that source's rows in
/// ascending order, a run of output rows for each row it holds: its
/// *occurring* rows. The group keys are evaluated over those rows alone,
/// each once — so no expression sees a row a join or filter dropped, and
/// one that fails fails as it would over the output, at the same row —
/// and numbered in first-seen order, which, as the runs ascend, is the
/// first-seen order of the output rows; each output row takes its run's
/// group. So the numbering, the order each group folds its rows in, and
/// the key cells kept per group (its first occurring row's, which are its
/// first output row's) are those of grouping the gathered output. Where no
/// row repeats, the runs are the rows themselves. Keys the caller knows
/// to be `distinct` (partial states in place, one per group) are numbered
/// `0..runs` and kept as they are, without a key table, which is the
/// numbering the table would give them.
fn aggregate_joined(
    joined: &Joined,
    (group, distinct): (&[PlanExpr], bool),
    (aggs, phase): (&[AggExpr], Phase),
    (keys, args): (&[usize], &[usize]),
) -> Result<Arc<Block>> {
    let (groups, count, mut columns) = match group {
        [] => (vec![0; joined.len()], 1, Vec::new()),
        _ => number_groups(joined, (group, distinct), keys)?,
    };
    let block = joined.block(args);
    let mut states = block.columns().iter().skip(group.len());
    for agg in aggs {
        let inputs = match phase {
            Phase::Final => (states.by_ref())
                .take(Accumulator::state_width(agg.func))
                .cloned()
                .collect(),
            _ => evaluate_all(agg.arg.iter().chain(&agg.by), &block)?,
        };
        let emitted = aggregate(agg, phase, &inputs, &groups, count)?;
        columns.extend(emitted.into_iter().map(Arc::new));
    }
    Ok(Arc::new(Block::new(columns, count)))
}

/// [`aggregate_joined`]'s numbering of `joined`'s rows by the keys
/// `group`, which read the columns `keys` of its first source: each output
/// row's group, the number of groups and their key cells.
fn number_groups(
    joined: &Joined,
    (group, distinct): (&[PlanExpr], bool),
    keys: &[usize],
) -> Result<(Vec<u32>, usize, Vec<Arc<Column>>)> {
    let Some((source, rows)) = joined.first_source() else {
        return Err(Error::execution("grouped at a padded join side"));
    };
    // Where rows repeat, one pass finds the source row of each run and
    // the run of each output row.
    let repeated = rows.filter(|rows| rows.windows(2).any(|w| w[0] == w[1]));
    let numbered = repeated.map(|rows| {
        let mut occurring = vec![0; rows.len()];
        let (mut runs, mut previous) = (0, NO_ROW);
        let run_of: Vec<u32> = (rows.iter())
            .map(|&row| {
                runs += usize::from(row != previous);
                previous = row;
                occurring[runs - 1] = row;
                runs as u32 - 1
            })
            .collect();
        occurring.truncate(runs);
        (occurring, run_of)
    });
    let occurring = match &numbered {
        Some((occurring, _)) => Some(&occurring[..]),
        None => rows,
    };
    debug_assert!(
        (occurring.iter()).all(|rows| rows.windows(2).all(|w| w[0] < w[1])),
        "a join or filter keeps its first source's row order"
    );
    let runs = occurring.map_or(source.rows(), <[u32]>::len);
    // Every row occurs: the source's own columns are those rows.
    let at_occurring = |c: usize| {
        let column = &source.columns()[joined.source_of(c).1];
        match occurring {
            Some(rows) if runs < source.rows() => Arc::new(column.gather(rows)),
            _ => Arc::clone(column),
        }
    };
    let at_occurring = match joined.as_block() {
        Some(block) => Cow::Borrowed(&**block),
        None => Cow::Owned(read_block((joined.width(), runs), keys, at_occurring)),
    };
    let key_columns = evaluate_all(group, &at_occurring)?;
    let (ids, count, columns) = if distinct {
        let ids: Vec<u32> = (0..runs as u32).collect();
        debug_assert!(
            KeyTable::new(group.len(), runs)
                .insert_all(&key_columns, runs)
                .is_ok_and(|numbered| numbered == ids),
            "keys said to be distinct repeat"
        );
        (ids, runs, key_columns)
    } else {
        let mut table = KeyTable::new(group.len(), runs);
        let ids = table.insert_all(&key_columns, runs)?;
        (ids, table.len(), table.into_keys())
    };
    let groups = match numbered {
        Some((_, run_of)) => run_of.into_iter().map(|run| ids[run as usize]).collect(),
        None => ids,
    };
    #[cfg(debug_assertions)]
    if rows.is_some() {
        check_numbering(joined, (group, keys), (&groups, &columns));
    }
    Ok((groups, count, columns))
}

/// Debug check of [`aggregate_joined`]'s numbering: a key table over the
/// group keys `group` (which read the columns `read`) of the gathered
/// output gives every output row the group `groups` does, and keeps the
/// key cells `columns` holds.
#[cfg(debug_assertions)]
fn check_numbering(
    joined: &Joined,
    (group, read): (&[PlanExpr], &[usize]),
    (groups, columns): (&[u32], &[Arc<Column>]),
) {
    let gathered = joined.block(read);
    let evaluated = evaluate_all(group, &gathered);
    let evaluated = evaluated.expect("group keys evaluate over the rows they came from");
    let mut table = KeyTable::new(evaluated.len(), joined.len());
    let ids = table.insert_all(&evaluated, joined.len());
    assert!(
        ids.is_ok_and(|ids| ids == groups),
        "groups numbered at the source rows"
    );
    let kept = table.into_keys();
    let same = |(held, want): (&Arc<Column>, &Arc<Column>)| {
        (0..want.len()).all(|id| held.same_cell(id, want, id))
    };
    assert!(
        columns.iter().zip(&kept).all(same),
        "key cells kept at the source rows"
    );
}

/// Global aggregation, one output row in partition 0 (even over empty
/// input): each aggregate's partial states per partition, merged in
/// partition order. `DISTINCT` has no partial state to merge, so such an
/// aggregate runs in one phase over all the rows. It folds on the
/// statement's thread, through the aggregation kernel without keys.
fn global_aggregate(
    data: &Rows,
    aggs: &[AggExpr],
    schema: spinner_common::SchemaRef,
    ctx: &StatementContext<'_>,
) -> Result<Rows> {
    let mut columns = Vec::with_capacity(aggs.len());
    for agg in aggs {
        let args = read_columns(agg.arg.iter().chain(&agg.by));
        let phase = |joined: &Joined, phase, args: &[usize]| {
            let agg = (std::slice::from_ref(agg), phase);
            aggregate_joined(joined, (&[], false), agg, (&[], args))
        };
        let row = if agg.distinct {
            phase(&Joined::of(data.concat(usize::MAX)), Phase::Single, &args)?
        } else {
            let partial = |part| phase(part, Phase::Partial, &args).map(Joined::of);
            let partials: Vec<Joined> = data.parts.iter().map(partial).collect::<Result<_>>()?;
            let states = concat(&partials, usize::MAX);
            let every: Vec<usize> = (0..states.columns().len()).collect();
            phase(&Joined::of(states), Phase::Final, &every)?
        };
        columns.extend_from_slice(row.columns());
    }
    let row = Arc::new(Block::new(columns, 1));
    Ok(in_partition_zero(schema, Joined::of(row), ctx))
}

/// The distinct rows of `block`, each where it first occurs.
fn distinct_rows(block: &Block) -> Result<Arc<Block>> {
    let mut rows = KeyTable::new(block.columns().len(), block.rows());
    rows.insert_all(block.columns(), block.rows())?;
    let count = rows.len();
    Ok(Arc::new(Block::new(rows.into_keys(), count)))
}

/// Set operations over one co-partitioned pair. Kept rows come out in
/// left-then-right input order; a distinct variant keeps a row's first
/// occurrence.
fn set_op_partition(l: &Joined, r: &Joined, op: SetOpKind, all: bool) -> Result<Arc<Block>> {
    let kept = if op == SetOpKind::Union {
        concat([l, r], usize::MAX)
    } else {
        let (l, r) = (l.gather(), r.gather());
        // EXCEPT keeps the left rows the right side lacks, INTERSECT those
        // it has; under ALL each right occurrence answers for one left row.
        let mut right = KeyTable::new(r.columns().len(), r.rows());
        let mut occurrences: Vec<usize> = Vec::new();
        for id in right.insert_all(r.columns(), r.rows())? {
            match occurrences.get_mut(id as usize) {
                Some(n) => *n += 1,
                None => occurrences.push(1),
            }
        }
        let found = right.find_all(l.columns(), l.rows());
        let mut in_right = |row: &usize| match found[*row] {
            NIL => false,
            id if all && occurrences[id as usize] == 0 => false,
            id => {
                occurrences[id as usize] -= usize::from(all);
                true
            }
        };
        let wanted = op == SetOpKind::Intersect;
        let kept = (0..l.rows()).filter(|row| in_right(row) == wanted);
        Arc::new(l.take(&kept.map(|row| row as u32).collect::<Vec<_>>()))
    };
    if all {
        Ok(kept)
    } else {
        distinct_rows(&kept)
    }
}

/// The rows of `block` sorted by `keys` (stable), or only the first
/// `limit` of them: the keys are evaluated once, a column each — so an
/// evaluation error surfaces before anything is ordered — and the rows
/// gathered by the sorted row numbers ([`sort::sorted_rows`]).
fn sort_rows(block: &Block, keys: &[SortKey], limit: usize) -> Result<Arc<Block>> {
    let columns = evaluate_all(keys.iter().map(|key| &key.expr), block)?;
    let order = sort::sorted_rows(block.rows(), &columns, keys, limit);
    Ok(Arc::new(block.take(&order)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spinner_common::{
        row_of, DataType, EngineConfig, Field, QueryGuard, Schema, SchemaRef, Value,
    };
    use spinner_plan::expr::BinaryOp;
    use spinner_plan::AggFunc;
    use spinner_storage::Catalog;

    use crate::aggregate::Accumulator;
    use std::collections::BTreeMap;

    use crate::fault::FaultInjector;
    use crate::physical::{create_physical_plan, create_stored_plan};
    use spinner_plan::LogicalPlan;

    fn col(i: usize) -> PlanExpr {
        PlanExpr::column(i, format!("c{i}"))
    }

    fn with_context<T>(partitions: usize, f: impl FnOnce(&StatementContext<'_>) -> T) -> T {
        let catalog = Catalog::new();
        let config = EngineConfig::default().with_partitions(partitions);
        let guard = QueryGuard::unlimited();
        let faults = FaultInjector::disabled();
        let ctx = StatementContext::new(&catalog, &config, &guard, &faults, None);
        f(&ctx)
    }

    fn block(width: usize, rows: &[Row]) -> Arc<Block> {
        Arc::new(Block::from_rows(width, rows.iter().cloned()))
    }

    /// Parallel partitions come back in partition order, each computed
    /// once, whichever thread took it; empty ones run after the batch.
    #[test]
    fn parallel_partitions_return_in_partition_order() {
        let catalog = Catalog::new();
        let config = EngineConfig::default().with_parallel_partitions(true);
        let guard = QueryGuard::unlimited();
        let faults = FaultInjector::disabled();
        let ctx = StatementContext::new(&catalog, &config, &guard, &faults, None);
        let runs: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let work = |i: usize, _: &Joined| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            Ok(block(1, &[row_of([Value::Int(i as i64)])]))
        };
        let rows = Rows {
            schema: Arc::new(Schema::new(vec![Field::new("i", DataType::Int)])),
            parts: vec![Joined::of(Arc::new(Block::empty(1))); 16],
            placed_on: PlacedOn::UNKNOWN,
        };
        let blocks = map_rows(&rows, &ctx, &|i| i % 4 == 0, &work).unwrap();
        let order: Vec<Row> = blocks.iter().map(|b| b.row(0)).collect();
        let expected: Vec<Row> = (0..16).map(|i| row_of([Value::Int(i)])).collect();
        assert_eq!(order, expected);
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        let stats = ctx.stats.snapshot();
        assert_eq!(
            stats.pool_tasks, 12,
            "the four empty partitions run serially"
        );
        assert!(stats.threads_spawned < stats.pool_tasks.min(cores() as u64));
    }

    fn hash_join(
        l: &[Row],
        r: &[Row],
        join_type: JoinType,
        keys: &[(usize, usize)],
        residual: Option<&PlanExpr>,
        (lwidth, rwidth): (usize, usize),
    ) -> Vec<Row> {
        let left_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.0)).collect();
        let right_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.1)).collect();
        with_context(1, |ctx| {
            let join = HashJoinSpec {
                join_type,
                left_keys: &left_keys,
                right_keys: &right_keys,
                residual,
                columns: None,
                ctx,
            };
            let (l, r) = (block(lwidth, l), block(rwidth, r));
            let joined = join
                .probe(&Joined::of(Arc::clone(&l)), &r, &join.build(&r).unwrap())
                .unwrap();
            joined.gather().to_rows()
        })
    }

    /// The join by its definition, a row at a time through the row
    /// evaluator: every pair in left-then-right order that satisfies
    /// `predicate`, an unmatched left row padded in place, unmatched right
    /// rows last. What both join operators are compared against.
    fn reference_join(
        lrows: &[Row],
        rrows: &[Row],
        join_type: JoinType,
        predicate: Option<&PlanExpr>,
        (lwidth, rwidth): (usize, usize),
    ) -> Vec<Row> {
        let combine = |l: &[Value], r: &[Value]| -> Row { l.iter().chain(r).cloned().collect() };
        let mut matched_right = vec![false; rrows.len()];
        let (left_nulls, right_nulls) = (vec![Value::Null; lwidth], vec![Value::Null; rwidth]);
        let mut out = Vec::new();
        for lrow in lrows {
            let mut found = false;
            for (ri, rrow) in rrows.iter().enumerate() {
                let combined = combine(lrow, rrow);
                if predicate.is_none_or(|p| p.matches(&combined).unwrap()) {
                    found = true;
                    matched_right[ri] = true;
                    out.push(combined);
                }
            }
            if !found && matches!(join_type, JoinType::Left | JoinType::Full) {
                out.push(combine(lrow, &right_nulls));
            }
        }
        if matches!(join_type, JoinType::Right | JoinType::Full) {
            let unmatched = rrows.iter().zip(&matched_right).filter(|(_, m)| !**m);
            out.extend(unmatched.map(|(rrow, _)| combine(&left_nulls, rrow)));
        }
        out
    }

    fn sort_key(expr: PlanExpr, asc: bool, nulls_first: bool) -> SortKey {
        SortKey {
            expr,
            asc,
            nulls_first,
        }
    }

    #[test]
    fn sort_rows_respects_desc_and_nulls() {
        let rows = block(
            2,
            &[
                row_of([Value::Float(0.0), Value::Text("x".into())]),
                row_of([Value::Null, Value::Text("y".into())]),
                row_of([Value::Float(3.0), Value::Text("z".into())]),
                row_of([Value::Float(-0.0), Value::Text("w".into())]),
            ],
        );
        let sorted = sort_rows(&rows, &[sort_key(col(0), false, false)], usize::MAX).unwrap();
        // 0.0 and -0.0 tie: the sort is stable, so "x" stays ahead of "w"
        // — and each keeps its own cell: `0.0` is not `-0.0`.
        assert_eq!(
            exact(&sorted.to_rows()),
            exact(&[
                row_of([Value::Float(3.0), Value::Text("z".into())]),
                row_of([Value::Float(0.0), Value::Text("x".into())]),
                row_of([Value::Float(-0.0), Value::Text("w".into())]),
                row_of([Value::Null, Value::Text("y".into())]),
            ])
        );
        // Two keys, NULLs first, the second key computed and ascending.
        let negated = PlanExpr::literal(0i64).binary(BinaryOp::Minus, col(0));
        let keys = [sort_key(col(0), true, true), sort_key(negated, true, true)];
        let sorted = sort_rows(&sorted, &keys, usize::MAX).unwrap().to_rows();
        assert!(sorted[0][0].is_null());
        assert_eq!(sorted[3][1], Value::from("z"));
        // A key that fails to evaluate fails the sort.
        assert!(sort_rows(&rows, &[sort_key(col(9), true, true)], 1).is_err());
        assert_eq!(sort_rows(&block(2, &[]), &keys, 1).unwrap().rows(), 0);
    }

    #[test]
    fn nested_loop_left_join_pads() {
        let l = block(1, &[row_of([Value::Int(1)]), row_of([Value::Int(2)])]);
        let r = block(2, &[row_of([Value::Int(1), Value::Int(10)])]);
        let pred = col(0).binary(BinaryOp::Eq, col(1));
        let out = nested_loop_join((&l, &r), JoinType::Left, Some(&pred), None)
            .unwrap()
            .gather()
            .to_rows();
        assert_eq!(out.len(), 2);
        assert!(out[1][1].is_null()); // unmatched row padded
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let l = vec![row_of([Value::Null]), row_of([Value::Int(1)])];
        let r = vec![row_of([Value::Null]), row_of([Value::Int(1)])];
        let out = hash_join(&l, &r, JoinType::Inner, &[(0, 0)], None, (1, 1));
        assert_eq!(out, vec![row_of([Value::Int(1), Value::Int(1)])]);
        // Outer joins pad the NULL-keyed rows of their side instead.
        let out = hash_join(&l, &r, JoinType::Full, &[(0, 0)], None, (1, 1));
        assert_eq!(
            out,
            vec![
                row_of([Value::Null, Value::Null]),
                row_of([Value::Int(1), Value::Int(1)]),
                row_of([Value::Null, Value::Null]),
            ]
        );
        // One NULL cell makes a multi-column key NULL, on either side: an
        // INT key probing a FLOAT one.
        let l = vec![
            row_of([Value::Int(1), Value::Null]),
            row_of([Value::Int(1), Value::Int(2)]),
        ];
        let r = vec![
            row_of([Value::Null, Value::Float(2.0)]),
            row_of([Value::Float(1.0), Value::Float(2.0)]),
            row_of([Value::Float(1.0), Value::Null]),
        ];
        let keys = [(0, 0), (1, 1)];
        let out = hash_join(&l, &r, JoinType::Inner, &keys, None, (2, 2));
        let both: Row = l[1].iter().chain(r[1].iter()).cloned().collect();
        assert_eq!(exact(&out), exact(&[both]));
        // Empty sides keep their width: the padding has something to pad.
        let out = hash_join(&l, &[], JoinType::Left, &keys, None, (2, 2));
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn hash_join_full_outer_emits_both_sides() {
        let l = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        let r = vec![row_of([Value::Int(2)]), row_of([Value::Int(3)])];
        let mut out = hash_join(&l, &r, JoinType::Full, &[(0, 0)], None, (1, 1));
        out.sort();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn a_join_gathers_only_its_output_columns() {
        let l = vec![
            row_of([Value::Int(1), Value::Int(10), Value::Int(100)]),
            row_of([Value::Int(2), Value::Int(20), Value::Int(200)]),
        ];
        let r = vec![
            row_of([Value::Int(2), Value::Int(30), Value::Int(300)]),
            row_of([Value::Int(3), Value::Int(40), Value::Int(400)]),
        ];
        let (left_keys, right_keys) = ([col(0)], [col(0)]);
        let full = hash_join(&l, &r, JoinType::Full, &[(0, 0)], None, (3, 3));
        let narrow = with_context(1, |ctx| {
            let join = HashJoinSpec {
                join_type: JoinType::Full,
                left_keys: &left_keys,
                right_keys: &right_keys,
                residual: None,
                columns: Some(&[4, 0, 2]),
                ctx,
            };
            let (l, r) = (block(3, &l), block(3, &r));
            join.probe(&Joined::of(Arc::clone(&l)), &r, &join.build(&r).unwrap())
                .unwrap()
                .gather()
        });
        assert_eq!(narrow.columns().len(), 3);
        let picked: Vec<Row> = (full.iter())
            .map(|row| row_of([row[4].clone(), row[0].clone(), row[2].clone()]))
            .collect();
        assert_eq!(narrow.to_rows(), picked, "padded rows included");
    }

    #[test]
    fn a_residual_is_evaluated_in_chunks_without_changing_the_join() {
        // 300 × 300 key-equal pairs: several chunks of candidates, a
        // residual that keeps one pair per probe row.
        let side = |n: i64| -> Vec<Row> {
            (0..n)
                .map(|i| row_of([Value::Int(7), Value::Int(i)]))
                .collect()
        };
        let (l, r) = (side(300), side(300));
        assert!(l.len() * r.len() > RESIDUAL_CHUNK);
        let residual = col(1).binary(BinaryOp::Eq, col(3));
        let out = hash_join(&l, &r, JoinType::Full, &[(0, 0)], Some(&residual), (2, 2));
        let predicate = col(0)
            .binary(BinaryOp::Eq, col(2))
            .binary(BinaryOp::And, residual);
        let want = reference_join(&l, &r, JoinType::Full, Some(&predicate), (2, 2));
        assert_eq!(out.len(), 300);
        assert_eq!(exact(&out), exact(&want));
    }

    fn set_op(l: &[Row], r: &[Row], op: SetOpKind, all: bool) -> Vec<Row> {
        let width = l.iter().chain(r).next().map_or(3, |row| row.len());
        let (l, r) = (Joined::of(block(width, l)), Joined::of(block(width, r)));
        set_op_partition(&l, &r, op, all).unwrap().to_rows()
    }

    #[test]
    fn except_all_is_bag_difference() {
        let l = vec![
            row_of([Value::Int(1)]),
            row_of([Value::Int(1)]),
            row_of([Value::Int(2)]),
        ];
        let r = vec![row_of([Value::Int(1)])];
        assert_eq!(set_op(&l, &r, SetOpKind::Except, true).len(), 2);
    }

    #[test]
    fn union_distinct_dedupes_across_sides() {
        let l = vec![row_of([Value::Int(1)])];
        let r = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        assert_eq!(set_op(&l, &r, SetOpKind::Union, false).len(), 2);
    }

    // ---- differential properties ------------------------------------------

    /// A key cell of one type — `kind` 0 INT, 1 FLOAT, 2 TEXT — or NULL,
    /// from a small domain rich in the cases the hash must get right: an
    /// INT column's `0`, `1` and `2` are a FLOAT column's `-0.0`, `1.0` and
    /// `2.0`; NaN; text.
    fn key_cell(kind: u32) -> impl Strategy<Value = Value> {
        (0i64..7).prop_map(move |n| match (kind, n) {
            (_, 0 | 1) => Value::Null,
            (0, n) => Value::Int(n - 3),
            (1, 2) => Value::Float(-0.0),
            (1, 3) => Value::Float(f64::NAN),
            (1, n) => Value::Float((n - 3) as f64),
            (_, n) => Value::Text(["a", "ab", "b"][n as usize % 3].into()),
        })
    }

    /// The key kinds of the two key columns.
    fn kinds() -> impl Strategy<Value = (u32, u32)> {
        (0u32..3, 0u32..3)
    }

    /// `(key, key, payload)` rows whose key columns hold the `kinds`: few
    /// distinct keys, so both sides repeat.
    fn rows_of((a, b): (u32, u32)) -> impl Strategy<Value = Vec<Row>> {
        let row = (key_cell(a), key_cell(b), 0i64..4);
        proptest::collection::vec(
            row.prop_map(|(a, b, p)| row_of([a, b, Value::Int(p)])),
            0..24,
        )
    }

    /// `(key, key, payload)` rows, each key column of one type: drawn for
    /// two sides, an INT key column meets a FLOAT one (or a TEXT one).
    fn rows() -> impl Strategy<Value = Vec<Row>> {
        kinds().prop_flat_map(rows_of)
    }

    /// Two sides' rows whose columns are typed alike, as the arms of a set
    /// operation are.
    fn typed_alike() -> impl Strategy<Value = (Vec<Row>, Vec<Row>)> {
        kinds().prop_flat_map(|kinds| (rows_of(kinds), rows_of(kinds)))
    }

    /// A schema for `rows`, each of `width` columns typed by its first
    /// value, NULL where it has none.
    fn schema_of(width: usize, rows: &[Row]) -> SchemaRef {
        let typed = |c: usize| {
            let mut types = rows.iter().map(|row| row[c].data_type());
            types
                .find(|&t| t != DataType::Null)
                .unwrap_or(DataType::Null)
        };
        let fields = (0..width).map(|c| Field::new(format!("c{c}"), typed(c)));
        Arc::new(Schema::new(fields.collect()))
    }

    /// `(key, key, payload)` rows, 100–300 of them, whose keys take at most
    /// six values — `{NULL, 0, 1} × {NULL, 1}` — so key groups are long and
    /// either cell of a two-column key may be NULL. The key columns hold
    /// integers or floats (`-0.0` for zero); the payload numbers the row.
    fn long_groups() -> impl Strategy<Value = Vec<Row>> {
        let cells = proptest::collection::vec((0i64..3, 0i64..3), 100..300);
        (cells, any::<bool>()).prop_map(|(cells, floats)| {
            let at = |_: usize, n: i64| match floats {
                false => Value::Int(n),
                true => Value::Float(if n == 0 { -0.0 } else { n as f64 }),
            };
            let rows = cells.into_iter().enumerate().map(|(row, (a, b))| {
                let first = if a == 0 { Value::Null } else { at(row, a - 1) };
                let second = if b == 0 { Value::Null } else { at(row, 1) };
                row_of([first, second, Value::Int(row as i64)])
            });
            rows.collect()
        })
    }

    /// Key column pairs of the join properties: two columns, or the
    /// first column of the probe side against the second of the build side.
    fn join_keys(two_columns: bool) -> &'static [(usize, usize)] {
        if two_columns {
            &[(0, 0), (1, 1)]
        } else {
            &[(0, 1)]
        }
    }

    /// A residual over the two sides' payloads.
    fn payload_residual() -> PlanExpr {
        col(2).binary(BinaryOp::LtEq, col(5))
    }

    /// `keys equal AND residual`: the join's definition over `l ∥ r`.
    fn join_predicate(keys: &[(usize, usize)], residual: Option<PlanExpr>) -> Option<PlanExpr> {
        let mut predicate = residual;
        for &(lk, rk) in keys {
            let eq = col(lk).binary(BinaryOp::Eq, col(3 + rk));
            predicate = Some(match predicate {
                Some(p) => eq.binary(BinaryOp::And, p),
                None => eq,
            });
        }
        predicate
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    /// Rows as text: unlike `Value`'s `Eq` it tells `2` from `2.0` and
    /// `0.0` from `-0.0`, so it checks *which* row's cells were kept.
    fn exact(rows: &[Row]) -> Vec<String> {
        rows.iter().map(|r| format!("{r:?}")).collect()
    }

    /// The inner join of `l` and `r` on `keys`, emitting `columns`, run as
    /// a merge loop's solution index runs it — `l`'s keys indexed, looked
    /// up from `r`'s rows — and by [`HashJoinSpec::probe`].
    fn indexed_and_probed(
        l: &[Row],
        r: &[Row],
        keys: &[(usize, usize)],
        columns: Option<&[usize]>,
    ) -> (Vec<Row>, Vec<Row>) {
        let left_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.0)).collect();
        let right_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.1)).collect();
        with_context(1, |ctx| {
            let join = HashJoinSpec {
                join_type: JoinType::Inner,
                left_keys: &left_keys,
                right_keys: &right_keys,
                residual: None,
                columns,
                ctx,
            };
            let (l, r) = (block(3, l), block(3, r));
            let probed = join
                .probe(&Joined::of(Arc::clone(&l)), &r, &join.build(&r).unwrap())
                .unwrap();
            let solution = evaluate_all(&left_keys, &l).unwrap();
            let solution = JoinTable::build(solution, l.rows()).unwrap();
            let pairs = join.indexed_pairs(&l, &r, &solution).unwrap();
            let indexed = Joined::of(Arc::clone(&l))
                .then(&r, pairs, join.output())
                .gather();
            (indexed.to_rows(), probed.gather().to_rows())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A join looked up through an index over its probe side's keys is
        /// the hash join, row for row and in its order: repeated keys on
        /// both sides, NULL keys, an INT key column against a FLOAT one
        /// (`2` against `2.0`), every output list.
        #[test]
        fn indexed_join_equals_the_hash_join(
            l in rows(),
            r in rows(),
            two_columns in any::<bool>(),
            some_columns in any::<bool>(),
        ) {
            let columns = some_columns.then_some(&[5, 0, 2][..]);
            let (indexed, probed) = indexed_and_probed(&l, &r, join_keys(two_columns), columns);
            prop_assert_eq!(exact(&indexed), exact(&probed));
        }

        /// The hash join is the join's definition over `keys equal AND
        /// residual`, row for row: probe rows in order, each with its
        /// matches in build order, unmatched build rows last. So is the
        /// nested-loop join.
        #[test]
        fn hash_join_equals_nested_loop_join(
            l in rows(),
            r in rows(),
            join_type in prop_oneof![
                Just(JoinType::Inner), Just(JoinType::Left), Just(JoinType::Right), Just(JoinType::Full)
            ],
            two_columns in any::<bool>(),
            with_residual in any::<bool>(),
        ) {
            let keys = join_keys(two_columns);
            let residual = with_residual.then(payload_residual);
            let predicate = join_predicate(keys, residual.clone());
            let hashed = hash_join(&l, &r, join_type, keys, residual.as_ref(), (3, 3));
            let reference = reference_join(&l, &r, join_type, predicate.as_ref(), (3, 3));
            prop_assert_eq!(exact(&hashed), exact(&reference));
            let looped = nested_loop_join((&block(3, &l), &block(3, &r)), join_type, predicate.as_ref(), None)
                .unwrap().gather().to_rows();
            prop_assert_eq!(exact(&looped), exact(&reference));
            prop_assert_eq!(sorted(hashed), sorted(reference));
        }

        /// Grouped aggregation, partial + final over any split of the
        /// input, and the final phase alone over partial states one per
        /// group equal a `BTreeMap` reference: groups in first-seen order,
        /// which also fixes the order floats are summed in.
        #[test]
        fn aggregation_equals_reference(rows in rows(), split in 0usize..24, two_columns in any::<bool>()) {
            let group: Vec<PlanExpr> = if two_columns {
                vec![col(0), col(1)]
            } else {
                vec![col(1).binary(BinaryOp::Eq, col(1))]
            };
            let agg = |func, arg: Option<PlanExpr>| AggExpr {
                func, arg, by: None, distinct: false, name: "a".into(),
            };
            let half = col(2).binary(BinaryOp::Multiply, PlanExpr::literal(0.1));
            let aggs = [
                agg(AggFunc::CountStar, None),
                agg(AggFunc::Sum, Some(half.clone())),
                agg(AggFunc::Min, Some(col(2))),
                agg(AggFunc::Avg, Some(col(2))),
                agg(AggFunc::Count, Some(col(0))),
                agg(AggFunc::Max, Some(col(1))),
            ];
            // Reference: first-seen order kept beside an ordered map of
            // (count, sum, min, non-NULL count, max).
            type Folded = (i64, f64, i64, i64, Option<Value>);
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut groups: BTreeMap<Vec<Value>, Folded> = BTreeMap::new();
            for row in &rows {
                let key: Vec<Value> = group.iter().map(|g| g.evaluate(row).unwrap()).collect();
                let payload = row[2].as_i64().unwrap();
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (0, 0.0, i64::MAX, 0, None)
                });
                entry.0 += 1;
                entry.1 = if entry.0 == 1 { payload as f64 * 0.1 } else { entry.1 + payload as f64 * 0.1 };
                entry.2 = entry.2.min(payload);
                entry.3 += i64::from(!row[0].is_null());
                // MAX by the total order over whatever the cells are; a tie keeps the first.
                if !row[1].is_null() && entry.4.as_ref().is_none_or(|held| row[1].cmp_total(held).is_gt()) {
                    entry.4 = Some(row[1].clone());
                }
            }
            let reference: Vec<Row> = order.iter().map(|key| {
                let (n, sum, min, counted, max) = groups[key].clone();
                let total: i64 = rows.iter()
                    .filter(|r| group.iter().map(|g| g.evaluate(r).unwrap()).collect::<Vec<_>>() == *key)
                    .map(|r| r[2].as_i64().unwrap()).sum();
                let mut row = key.clone();
                row.extend([
                    Value::Int(n), Value::Float(sum), Value::Int(min), Value::Float(total as f64 / n as f64),
                    Value::Int(counted), max.unwrap_or(Value::Null),
                ]);
                row.into_boxed_slice()
            }).collect();
            // The one kernel, over a block: grouped by `group`, whose keys
            // the caller may know to be `distinct`; the final phase's keys
            // are its input's first columns.
            let kernel = |input: &Arc<Block>, (group, distinct): (&[PlanExpr], bool), phase: Phase| {
                let args: Vec<usize> = match phase {
                    Phase::Final => (group.len()..input.columns().len()).collect(),
                    _ => read_columns(aggs.iter().flat_map(|a| a.arg.iter())),
                };
                let joined = Joined::of(Arc::clone(input));
                let (group, aggs) = ((group, distinct), (&aggs[..], phase));
                aggregate_joined(&joined, group, aggs, (&read_columns(group.0), &args)).unwrap()
            };
            let leading: Vec<PlanExpr> = (0..group.len()).map(col).collect();
            let phase = |rows: &[Row], width: usize, phase: Phase| {
                let group = if phase == Phase::Final { &leading } else { &group };
                kernel(&block(width, rows), (group, false), phase).to_rows()
            };
            let grouped = phase(&rows, 3, Phase::Single);
            prop_assert_eq!(exact(&grouped), exact(&reference));
            // Two-phase: partial states of two chunks, merged by the final phase.
            let (head, tail) = rows.split_at(split.min(rows.len()));
            let mut partial = phase(head, 3, Phase::Partial);
            partial.extend(phase(tail, 3, Phase::Partial));
            let state_width = group.len() + 7;
            prop_assert!(partial.iter().all(|r| r.len() == state_width));
            let merged = phase(&partial, state_width, Phase::Final);
            prop_assert_eq!(merged.len(), reference.len());
            // Floats were added in a different association; compare loosely.
            let loosely = |got: &[Value], want: &[Value], sum: usize| {
                got[..sum] == want[..sum]
                    && got[sum + 1..] == want[sum + 1..]
                    && match (&got[sum], &want[sum]) {
                        (Value::Float(a), Value::Float(b)) => (a - b).abs() < 1e-9,
                        (a, b) => a == b,
                    }
            };
            for (got, want) in merged.iter().zip(&reference) {
                prop_assert!(loosely(got, want, group.len() + 1), "{:?} vs {:?}", got, want);
            }
            // Partial states one per group already: finished with `0..rows`
            // as their group numbers, they are the regrouped rows, bit for
            // bit, and the one-phase rows; without a key table, their key
            // columns are kept as they are.
            let states = block(state_width, &phase(&rows, 3, Phase::Partial));
            let finish = |distinct| kernel(&states, (&leading, distinct), Phase::Final);
            let kept = finish(true);
            prop_assert_eq!(exact(&kept.to_rows()), exact(&finish(false).to_rows()));
            prop_assert_eq!(exact(&kept.to_rows()), exact(&grouped));
            let shared = kept.columns().iter().zip(states.columns()).take(group.len());
            prop_assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)));
            // No keys: one group over every row, and over none — in one
            // phase, and as partial states of two chunks merged.
            for rows in [&rows[..0], &rows[..]] {
                let mut want: Row = Box::new([
                    Value::Int(rows.len() as i64), Value::Null, Value::Null, Value::Null,
                    Value::Int(rows.iter().filter(|r| !r[0].is_null()).count() as i64), Value::Null,
                ]);
                let payloads = || rows.iter().map(|r| r[2].as_i64().unwrap());
                if let Some(min) = payloads().min() {
                    let sum = payloads().skip(1).fold(payloads().next().unwrap() as f64 * 0.1, |s, p| s + p as f64 * 0.1);
                    want[1] = Value::Float(sum);
                    want[2] = Value::Int(min);
                    want[3] = Value::Float(payloads().sum::<i64>() as f64 / rows.len() as f64);
                }
                for row in rows {
                    if !row[1].is_null() && (want[5].is_null() || row[1].cmp_total(&want[5]).is_gt()) {
                        want[5] = row[1].clone();
                    }
                }
                let one = kernel(&block(3, rows), (&[], false), Phase::Single).to_rows();
                prop_assert_eq!(exact(&one), exact(&[want.clone()]));
                let (head, tail) = rows.split_at(split.min(rows.len()));
                let mut partial = kernel(&block(3, head), (&[], false), Phase::Partial).to_rows();
                partial.extend(kernel(&block(3, tail), (&[], false), Phase::Partial).to_rows());
                let merged = kernel(&block(7, &partial), (&[], false), Phase::Final).to_rows();
                prop_assert_eq!(merged.len(), 1);
                prop_assert!(loosely(&merged[0], &want, 1), "{:?} vs {:?}", merged[0], want);
            }
        }

        /// Set operations against their definitions over `Value`'s `Eq`.
        #[test]
        fn set_operations_equal_reference((l, r) in typed_alike()) {
            let count = |rows: &[Row], row: &Row| rows.iter().filter(|x| *x == row).count();
            let first = |rows: &[Row], i: usize| !rows[..i].contains(&rows[i]);
            for (op, all) in [
                (SetOpKind::Union, false), (SetOpKind::Except, false), (SetOpKind::Except, true),
                (SetOpKind::Intersect, false), (SetOpKind::Intersect, true),
            ] {
                let got = set_op(&l, &r, op, all);
                let both = [l.clone(), r.clone()].concat();
                let want: Vec<Row> = match (op, all) {
                    (SetOpKind::Union, _) => (0..both.len()).filter(|&i| first(&both, i)).map(|i| both[i].clone()).collect(),
                    (_, false) => (0..l.len())
                        .filter(|&i| first(&l, i) && r.contains(&l[i]) == (op == SetOpKind::Intersect))
                        .map(|i| l[i].clone()).collect(),
                    (_, true) => (0..l.len())
                        // The i-th left row is its key's n-th occurrence; the
                        // right side answers for the first `count` of them.
                        .filter(|&i| (count(&l[..i], &l[i]) < count(&r, &l[i])) == (op == SetOpKind::Intersect))
                        .map(|i| l[i].clone()).collect(),
                };
                prop_assert_eq!(exact(&got), exact(&want), "{:?} all={}", op, all);
            }
            prop_assert_eq!(exact(&set_op(&l, &r, SetOpKind::Union, true)), exact(&[l.clone(), r].concat()));
            prop_assert_eq!(
                exact(&distinct_rows(&block(3, &l)).unwrap().to_rows()),
                exact(&(0..l.len()).filter(|&i| first(&l, i)).map(|i| l[i].clone()).collect::<Vec<_>>())
            );
        }

        /// A hash exchange puts every row where `placement` says its key
        /// belongs, keeps rows of one source in order, and loses none;
        /// gathering them back returns the multiset.
        #[test]
        fn exchange_round_trips(rows in rows(), two_columns in any::<bool>()) {
            for partitions in [1usize, 2, 4] {
                with_context(partitions, |ctx| {
                    // Stored under another partition count on purpose.
                    let data = Partitioned::from_rows(schema_of(3, &rows), rows.clone(), None, 3);
                    let keys = if two_columns { vec![col(0), col(1)] } else { vec![col(1)] };
                    let placed = exchange(data, &ExchangeMode::Hash(keys.clone()), usize::MAX, ctx).unwrap();
                    assert_eq!(placed.parts.len(), partitions);
                    for (i, part) in placed.parts.iter().enumerate() {
                        let key = evaluate_all(&keys, part).unwrap();
                        assert!(placement(&key, part.rows(), partitions).iter().all(|&p| p as usize == i));
                    }
                    let gathered = exchange(placed, &ExchangeMode::Gather, usize::MAX, ctx).unwrap();
                    assert!(gathered.parts[1..].iter().all(|p| p.is_empty()));
                    let as_multiset = |rows: &[Row]| {
                        let mut rows = exact(rows);
                        rows.sort();
                        rows
                    };
                    assert_eq!(as_multiset(&gathered.gather()), as_multiset(&rows));
                });
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The hash join is the join's definition, row for row, also where
        /// build keys repeat tens of times and NULL-keyed rows sit on both
        /// sides: every join type, with and without a residual.
        #[test]
        fn hash_join_equals_reference_over_long_key_groups(
            l in long_groups(),
            r in long_groups(),
            two_columns in any::<bool>(),
        ) {
            let keys = join_keys(two_columns);
            for join_type in [JoinType::Inner, JoinType::Left, JoinType::Right, JoinType::Full] {
                for residual in [None, Some(payload_residual())] {
                    let predicate = join_predicate(keys, residual.clone());
                    let hashed = hash_join(&l, &r, join_type, keys, residual.as_ref(), (3, 3));
                    let reference = reference_join(&l, &r, join_type, predicate.as_ref(), (3, 3));
                    prop_assert_eq!(exact(&hashed), exact(&reference));
                }
            }
            let (indexed, probed) = indexed_and_probed(&l, &r, keys, None);
            prop_assert_eq!(exact(&indexed), exact(&probed));
        }
    }

    /// Where an output row's probe cells came from: `out`'s rows, their
    /// first three cells each, are rows of `input` in its order (one may
    /// repeat, once per match).
    fn in_probe_order(out: &Block, input: &Block) -> bool {
        let input = exact(&input.to_rows());
        let mut at = 0;
        exact(
            &out.to_rows()
                .iter()
                .map(|r| r[..3].into())
                .collect::<Vec<Row>>(),
        )
        .iter()
        .all(|probe| {
            while at < input.len() && input[at] != *probe {
                at += 1;
            }
            at < input.len()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A per-run join over two hash exchanges, run as the executor
        /// chooses — an inner or left join broadcasts its build side when
        /// the probe side is not placed on its key and holds more rows than
        /// the broadcast copies — gives the rows of the join of both sides
        /// hashed on their keys, at every partition count, with and
        /// without a residual, NULL keys on both sides. Broadcast, every
        /// probe row's output stays in its partition and in its order
        /// there, and keeps the probe side's placement; nothing is hashed.
        /// A right or full join is never broadcast.
        #[test]
        fn a_broadcast_join_equals_the_hashed_join(
            big in long_groups(),
            small in rows(),
            two_columns in any::<bool>(),
            probe_placed_on in prop_oneof![Just(None), Just(Some(0)), Just(Some(2))],
        ) {
            let keys = join_keys(two_columns);
            let left_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.0)).collect();
            let right_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.1)).collect();
            let hashed_on = |keys: &[PlanExpr], schema: &SchemaRef, name: &str| Box::new(PhysicalPlan::Exchange {
                input: Box::new(PhysicalPlan::TempScan { name: name.into(), schema: Arc::clone(schema) }),
                mode: ExchangeMode::Hash(keys.to_vec()),
            });
            // The probe side's key is placed already only if it is column 0 alone.
            let in_place = probe_placed_on == Some(0) && !two_columns;
            for partitions in 1..=4 {
                for (probe, build) in [(&big, &small), (&small, &big)] {
                    let (probe_schema, build_schema) = (schema_of(3, probe), schema_of(3, build));
                    let schema: SchemaRef = Arc::new(probe_schema.join(&build_schema));
                    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Right, JoinType::Full] {
                        for residual in [None, Some(payload_residual())] {
                            with_context(partitions, |ctx| {
                                let l = Partitioned::from_rows(Arc::clone(&probe_schema), probe.clone(), probe_placed_on, partitions);
                                let r = Partitioned::from_rows(Arc::clone(&build_schema), build.clone(), None, partitions);
                                ctx.registry.put("l", l.clone());
                                ctx.registry.put("r", r.clone());
                                let plan = PhysicalPlan::HashJoin {
                                    left: hashed_on(&left_keys, &probe_schema, "l"),
                                    right: hashed_on(&right_keys, &build_schema, "r"),
                                    join_type,
                                    left_keys: left_keys.clone(),
                                    right_keys: right_keys.clone(),
                                    residual: residual.clone(),
                                    columns: None,
                                    build: JoinBuild::PerRun,
                                    schema: Arc::clone(&schema),
                                };
                                let got = execute(&plan, ctx).unwrap();
                                let stats = ctx.stats.take();
                                let join = HashJoinSpec {
                                    join_type,
                                    left_keys: &left_keys,
                                    right_keys: &right_keys,
                                    residual: residual.as_ref(),
                                    columns: None,
                                    ctx,
                                };
                                let hash = |data: Partitioned, keys: &[PlanExpr]| {
                                    exchange(data, &ExchangeMode::Hash(keys.to_vec()), usize::MAX, ctx).unwrap()
                                };
                                let hashed = (hash(l.clone(), &left_keys), hash(r, &right_keys));
                                let want = hash_join_partitions(&Rows::from(hashed.0), &Rows::from(hashed.1), &join).unwrap();
                                let want = Partitioned { parts: want.iter().map(Joined::gather).collect(), ..got.clone() };
                                let multiset = |data: &Partitioned| {
                                    let mut rows = exact(&data.gather());
                                    rows.sort();
                                    rows
                                };
                                assert_eq!(multiset(&got), multiset(&want), "{join_type} at {partitions}");
                                let broadcast = partitions > 1
                                    && matches!(join_type, JoinType::Inner | JoinType::Left)
                                    && !in_place
                                    && build.len() * (partitions - 1) < probe.len();
                                let copies = if broadcast { build.len() * (partitions - 1) } else { 0 };
                                assert_eq!(stats.rows_broadcast, copies as u64, "{join_type} at {partitions}");
                                if broadcast {
                                    assert_eq!(stats.rows_routed, 0);
                                    assert_eq!(got.placed_on, l.placed_on);
                                    for (out, input) in got.parts.iter().zip(&l.parts) {
                                        assert!(in_probe_order(out, input), "{join_type} at {partitions}");
                                    }
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    // ---- grouping at the source rows ------------------------------------------

    /// `(key, key, payload)` rows whose key columns hold integers or
    /// floats (`-0.0` and NaN among them) or NULL, and, when `poisoned`, a
    /// last row keyed `100` — a key no other side holds — whose payload 7
    /// fails `100 / (payload - 7)`.
    fn numeric_rows(poisoned: bool) -> impl Strategy<Value = Vec<Row>> {
        (0u32..2, 0u32..2)
            .prop_flat_map(rows_of)
            .prop_map(move |mut rows| {
                if poisoned {
                    let floats = rows.iter().any(|r| matches!(r[0], Value::Float(_)));
                    let key = if floats {
                        Value::Float(100.0)
                    } else {
                        Value::Int(100)
                    };
                    rows.push(row_of([key, Value::Null, Value::Int(7)]));
                }
                rows
            })
    }

    /// One join of a chain: its type, whether it has a residual, whether
    /// both its inputs are hash exchanges.
    fn chain_join() -> impl Strategy<Value = (JoinType, bool, bool)> {
        let join_type = prop_oneof![
            Just(JoinType::Inner),
            Just(JoinType::Left),
            Just(JoinType::Right),
            Just(JoinType::Full)
        ];
        (join_type, any::<bool>(), any::<bool>())
    }

    /// Rows of every partition, in order, each float as its bits; or the
    /// error.
    fn partitions_in_bits(result: Result<Partitioned>) -> String {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            v => format!("{v:?}"),
        };
        let rows = |b: &Arc<Block>| -> Vec<String> {
            (b.to_rows().iter())
                .map(|r| r.iter().map(cell).collect::<Vec<_>>().join(", "))
                .collect()
        };
        match result {
            Ok(data) => format!("{:?}", data.parts.iter().map(rows).collect::<Vec<_>>()),
            Err(e) => format!("{e:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An aggregate over a chain of one or two joins whose group
        /// expressions read only the first probe side numbers its groups
        /// at that side's rows, and gives the rows — group order, key
        /// cells, float bits — and the error of aggregating the gathered
        /// join output, in one phase and as partial states, at 1, 2 and 3
        /// partitions: inner, left, right and full joins (only chains of
        /// inner and left joins group at the source rows), the first a
        /// hash or a nested-loop join, with and without residuals and
        /// exchanges, directly or through a bare-column projection, and
        /// then through a filter that keeps every row, none or some (one
        /// that fails only on a probe row no build row matches) or a
        /// computed projection; NULL, `-0.0` and NaN keys, and a group
        /// expression that fails only on such a probe row. The same rows
        /// laid end to end (`Rows::concat`) are the first rows of their
        /// partitions gathered.
        #[test]
        fn grouping_by_source_rows_equals_grouping_the_gathered_rows(
            a in any::<bool>().prop_flat_map(numeric_rows),
            b in numeric_rows(false),
            c in numeric_rows(false),
            (first, second) in (chain_join(), any::<bool>(), chain_join())
                .prop_map(|(first, two, second)| (first, two.then_some(second))),
            (grouping, projected) in (0usize..4, any::<bool>()),
            (between, nested) in (0usize..5, any::<bool>()),
        ) {
            let scan = |name: &str, rows: &[Row]| Box::new(PhysicalPlan::TempScan {
                name: name.into(),
                schema: schema_of(3, rows),
            });
            let hashed = |input: Box<PhysicalPlan>, key: usize| Box::new(PhysicalPlan::Exchange {
                input,
                mode: ExchangeMode::Hash(vec![col(key)]),
            });
            let join = |left: Box<PhysicalPlan>, right: Box<PhysicalPlan>, (join_type, residual, exchanged): (JoinType, bool, bool), (lk, rk, rp): (usize, usize, usize)| {
                let schema = Arc::new(left.schema().join(&right.schema()));
                let (left, right) = match exchanged {
                    true => (hashed(left, lk), hashed(right, rk)),
                    false => (left, right),
                };
                PhysicalPlan::HashJoin {
                    left,
                    right,
                    join_type,
                    left_keys: vec![col(lk)],
                    right_keys: vec![col(rk)],
                    residual: residual.then(|| col(2).binary(BinaryOp::LtEq, col(rp))),
                    columns: None,
                    build: JoinBuild::PerRun,
                    schema,
                }
            };
            // a ⋈ b on a.0 = b.1, then ⋈ c on b.0 = c.1.
            let mut chain = match nested {
                false => join(scan("a", &a), scan("b", &b), first, (0, 1, 5)),
                // The same join, every pair a candidate.
                true => {
                    let on = col(0).binary(BinaryOp::Eq, col(4));
                    let residual = first.1.then(|| col(2).binary(BinaryOp::LtEq, col(5)));
                    PhysicalPlan::NestedLoopJoin {
                        left: scan("a", &a),
                        right: scan("b", &b),
                        join_type: first.0,
                        residual: Some(residual.map_or(on.clone(), |r| on.binary(BinaryOp::And, r))),
                        columns: None,
                        schema: Arc::new(schema_of(3, &a).join(&schema_of(3, &b))),
                    }
                }
            };
            if let Some(second) = second {
                chain = join(Box::new(chain), scan("c", &c), second, (3, 1, 8));
            }
            // Kept: the first side's columns, b's payload, c's payload.
            let payloads = if second.is_some() { vec![5, 8] } else { vec![5] };
            if projected {
                let picked: Vec<usize> = [0, 1, 2].into_iter().chain(payloads.iter().copied()).collect();
                let schema = chain.schema();
                let fields = picked.iter().map(|&c| schema.fields()[c].clone());
                chain = PhysicalPlan::Project {
                    exprs: picked.iter().map(|&c| col(c)).collect(),
                    schema: Arc::new(Schema::new(fields.collect())),
                    input: Box::new(chain),
                };
            }
            let payloads: Vec<usize> = match projected {
                true => (3..3 + payloads.len()).collect(),
                false => payloads,
            };
            let poison = PlanExpr::literal(100i64)
                .binary(BinaryOp::Divide, col(2).binary(BinaryOp::Minus, PlanExpr::literal(7i64)));
            // What runs between the joins and the aggregate: a filter or a
            // computed projection.
            let predicate = match between {
                // Every row: a's payloads are 0..=3 or 7, or NULL where padded.
                1 => Some(col(2).binary(BinaryOp::GtEq, PlanExpr::literal(0i64)).binary(
                    BinaryOp::Or,
                    PlanExpr::IsNull { expr: Box::new(col(2)), negated: false },
                )),
                2 => Some(col(2).binary(BinaryOp::Lt, PlanExpr::literal(0i64))),
                3 => Some(poison.clone().binary(BinaryOp::Gt, PlanExpr::literal(-20i64)).binary(
                    BinaryOp::Or,
                    col(payloads[0]).binary(BinaryOp::Gt, PlanExpr::literal(2i64)),
                )),
                _ => None,
            };
            let joins = chain.clone();
            let width = joins.schema().len();
            let computed = (between == 4).then(|| {
                let mut exprs: Vec<PlanExpr> = (0..width).map(col).collect();
                exprs[2] = col(2).binary(BinaryOp::Multiply, PlanExpr::literal(1i64));
                exprs
            });
            if let Some(predicate) = &predicate {
                chain = PhysicalPlan::Filter { input: Box::new(chain), predicate: predicate.clone() };
            }
            if let Some(exprs) = &computed {
                let fields = exprs.iter().map(|e| Field::new("p", e.data_type(&joins.schema())));
                chain = PhysicalPlan::Project {
                    schema: Arc::new(Schema::new(fields.collect())),
                    exprs: exprs.clone(),
                    input: Box::new(chain),
                };
            }
            let schema = chain.schema();
            let group = match grouping {
                0 => vec![col(0), col(1)],
                1 => vec![col(1)],
                2 => vec![col(0), poison],
                _ => vec![col(2).binary(BinaryOp::Multiply, PlanExpr::literal(0.5)), col(0)],
            };
            let agg = |func, arg: Option<PlanExpr>| AggExpr {
                func, arg, by: None, distinct: false, name: "a".into(),
            };
            let mut aggs = vec![
                agg(AggFunc::CountStar, None),
                agg(AggFunc::Sum, Some(col(payloads[0]).binary(BinaryOp::Multiply, PlanExpr::literal(0.1)))),
                agg(AggFunc::Min, Some(col(2))),
                agg(AggFunc::Avg, Some(col(payloads[0]))),
                agg(AggFunc::Max, Some(col(1))),
            ];
            aggs.extend(payloads.get(1).map(|&p| agg(AggFunc::Min, Some(col(p)))));
            let keys = group.iter().map(|e| Field::new("g", e.data_type(&schema)));
            let outputs = aggs.iter().map(|a| Field::new("a", a.output_type(&schema)));
            let single: Vec<Field> = keys.clone().chain(outputs).collect();
            let typed = |e: &Option<PlanExpr>| e.as_ref().map_or(DataType::Int, |e| e.data_type(&schema));
            let states = aggs.iter().flat_map(|a| {
                Accumulator::state_types(a.func, typed(&a.arg), DataType::Null).map(|t| Field::new("s", t))
            });
            let partial: Vec<Field> = keys.chain(states).collect();
            let aggregates = |input: PhysicalPlan| {
                let input = Box::new(input);
                [
                    PhysicalPlan::HashAggregate {
                        input: input.clone(),
                        group: group.clone(),
                        aggs: aggs.clone(),
                        schema: Arc::new(Schema::new(single.clone())),
                    },
                    PhysicalPlan::AggregatePartial {
                        input,
                        group: group.clone(),
                        aggs: aggs.clone(),
                        schema: Arc::new(Schema::new(partial.clone())),
                    },
                ]
            };
            let inner_or_left = |(join_type, ..): (JoinType, bool, bool)| {
                matches!(join_type, JoinType::Inner | JoinType::Left)
            };
            // A computed projection hands up rows of its own block.
            let unpadded = inner_or_left(first) && second.is_none_or(inner_or_left) && between != 4;
            let exchanged = (first.2 && !nested) || second.is_some_and(|s| s.2);
            for partitions in 1..=3 {
                let catalog = Catalog::new();
                let config = EngineConfig::default().with_partitions(partitions);
                let guard = QueryGuard::unlimited();
                let faults = FaultInjector::disabled();
                let mut ctx = StatementContext::new(&catalog, &config, &guard, &faults, None);
                ctx.tracer = spinner_common::profile::Tracer::new();
                for (name, rows) in [("a", &a), ("b", &b), ("c", &c)] {
                    ctx.registry.put(name, Partitioned::from_rows(schema_of(3, rows), rows.clone(), None, partitions));
                }
                // The reference: the joins' gathered rows, partition by
                // partition, through the filter or projection a row at a
                // time.
                let by_row = |block: &Arc<Block>| -> Result<Arc<Block>> {
                    let mut rows = Vec::new();
                    for row in block.to_rows() {
                        if predicate.as_ref().map_or(Ok(true), |p| p.matches(&row))? {
                            rows.push(match &computed {
                                Some(exprs) => exprs.iter().map(|e| e.evaluate(&row)).collect::<Result<_>>()?,
                                None => row,
                            });
                        }
                    }
                    Ok(Arc::new(Block::from_rows(width, rows)))
                };
                let joined = execute(&joins, &ctx).unwrap();
                let gathered = match joined.parts.iter().map(by_row).collect::<Result<Vec<_>>>() {
                    Ok(parts) => Partitioned { schema: Arc::clone(&schema), parts, placed_on: PlacedOn::UNKNOWN },
                    // The filter fails on a row a join kept: so does the
                    // aggregate over it, with the same error.
                    Err(e) => {
                        for got in aggregates(chain.clone()) {
                            prop_assert_eq!(partitions_in_bits(execute(&got, &ctx)), format!("{e:?}"));
                        }
                        continue;
                    }
                };
                ctx.registry.put("joined", gathered);
                // The rows handed up, laid end to end, are the first rows
                // of their partitions gathered one after another.
                let rows = run(&chain, usize::MAX, &ctx).unwrap();
                let laid: Vec<Row> = rows.parts.iter().flat_map(|j| j.gather().to_rows()).collect();
                for limit in [0, 1, rows.parts[0].len() + 1, usize::MAX] {
                    let want = &laid[..limit.min(laid.len())];
                    prop_assert_eq!(exact(&rows.concat(limit).to_rows()), exact(want), "limit {}", limit);
                }
                let reference = PhysicalPlan::TempScan { name: "joined".into(), schema: Arc::clone(&schema) };
                for (got, want) in aggregates(chain.clone()).iter().zip(&aggregates(reference)) {
                    let got = partitions_in_bits(execute(got, &ctx));
                    let want = partitions_in_bits(execute(want, &ctx));
                    prop_assert_eq!(got, want, "at {} partitions", partitions);
                }
                let profile = ctx.tracer.finish();
                let grouped_at_source = profile.find("grouped by source rows").is_some();
                if !exchanged || partitions == 1 {
                    prop_assert_eq!(grouped_at_source, unpadded, "at {} partitions", partitions);
                }
            }
        }
    }

    // ---- wanted placement ----------------------------------------------------

    /// A payload cell: an integer (`floats` false) or a float (NaN and
    /// `-0.0` among them), or NULL.
    fn payload(floats: bool) -> impl Strategy<Value = Value> {
        (0i64..8).prop_map(move |n| match (floats, n) {
            (_, 0) => Value::Null,
            (false, n) => Value::Int(n - 4),
            (_, 1) => Value::Float(f64::NAN),
            (_, 2) => Value::Float(-0.0),
            (_, n) => Value::Float(n as f64 * 0.37 - 1.0),
        })
    }

    /// `(g0, g1, int, float)` rows in 2–4 partitions, each row in a random
    /// one: group keys from `key_cell` (INT, FLOAT with `-0.0` and NaN, or
    /// TEXT, and NULL) and a payload column of each numeric type.
    fn partitioned_rows() -> impl Strategy<Value = (usize, Vec<Vec<Row>>)> {
        kinds().prop_flat_map(|(a, b)| {
            let row = (key_cell(a), key_cell(b), payload(false), payload(true));
            let row = row.prop_map(|(a, b, i, f)| row_of([a, b, i, f]));
            let placed = proptest::collection::vec((0usize..4, row), 0..40);
            (2usize..5, placed).prop_map(|(parts, placed)| {
                let mut rows = vec![Vec::new(); parts];
                for (p, row) in placed {
                    rows[p % parts].push(row);
                }
                (parts, rows)
            })
        })
    }

    /// Rows with every float cell as its bits, so `-0.0`, `0.0` and NaNs
    /// of different bits tell apart, sorted.
    fn bits(data: &Partitioned) -> Vec<String> {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            v => format!("{v:?}"),
        };
        let mut rows: Vec<String> = (data.gather().iter())
            .map(|r| r.iter().map(cell).collect::<Vec<_>>().join(", "))
            .collect();
        rows.sort();
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Exchanging a grouping's input on one group key instead of all
        /// of them changes which partition a group ends up in, not its
        /// row: a group's rows (or partial states) still meet in one
        /// partition, in source-partition order. Two-phase aggregates
        /// (SUM, AVG, MIN, MAX, COUNT over int and float columns,
        /// COUNT(*), ARG_MIN), the single-phase path a DISTINCT aggregate
        /// takes, and DISTINCT rows each come out bit for bit alike lowered
        /// for either group key and lowered as a plain query, which
        /// exchanges on every key; lowered for a key, the result is placed
        /// on it.
        #[test]
        fn grouping_on_one_key_gives_every_group_the_same_row((parts, rows) in partitioned_rows()) {
            let schema = schema_of(4, &rows.concat());
            let scan = LogicalPlan::TempScan { name: "t".into(), schema: Arc::clone(&schema) };
            let agg = |func, arg: Option<usize>, distinct| AggExpr {
                func, arg: arg.map(col), by: None, distinct, name: "a".into(),
            };
            let mut two_phase = vec![agg(AggFunc::CountStar, None, false)];
            for c in 2..4 {
                for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Count] {
                    two_phase.push(agg(func, Some(c), false));
                }
            }
            two_phase.push(AggExpr { by: Some(col(3)), ..agg(AggFunc::ArgMin, Some(2), false) });
            let single_phase = vec![
                agg(AggFunc::Count, Some(2), true),
                agg(AggFunc::Sum, Some(3), true),
                agg(AggFunc::Sum, Some(2), false),
                agg(AggFunc::Min, Some(3), false),
            ];
            let aggregate = |aggs: Vec<AggExpr>| {
                let groups = schema.fields()[..2].iter().cloned();
                let outputs = aggs.iter().map(|a| Field::new(a.name.clone(), a.output_type(&schema)));
                let fields = groups.chain(outputs).collect();
                LogicalPlan::Aggregate {
                    input: Box::new(scan.clone()),
                    group: vec![col(0), col(1)],
                    aggs,
                    schema: Arc::new(Schema::new(fields)),
                }
            };
            let plans = [
                aggregate(two_phase),
                aggregate(single_phase),
                LogicalPlan::Distinct { input: Box::new(scan.clone()) },
            ];
            with_context(parts, |ctx| {
                let parts = rows.iter().map(|rows| block(4, rows)).collect();
                ctx.registry.put("t", Partitioned { schema, parts, placed_on: PlacedOn::UNKNOWN });
                for plan in &plans {
                    let config = EngineConfig::default();
                    let every_key = create_physical_plan(plan, &config).unwrap();
                    let want = bits(&execute(&every_key, ctx).unwrap());
                    for key in [0, 1] {
                        let one_key = create_stored_plan(plan, Some(key), None).unwrap();
                        let got = execute(&one_key, ctx).unwrap();
                        prop_assert_eq!(bits(&got), want.clone(), "{}", one_key);
                        prop_assert_eq!(got.placed_on.columns(), [key], "{}", one_key);
                    }
                }
            });
        }
    }

    // ---- exchange ----------------------------------------------------------

    fn key_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("p", DataType::Int),
        ]))
    }

    fn int_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]))
    }

    fn numbered(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| row_of([Value::Int(i % 7), Value::Int(i)]))
            .collect()
    }

    #[test]
    fn exchange_passes_placed_rows_through_and_scatters_the_rest() {
        with_context(4, |ctx| {
            let on_key = ExchangeMode::Hash(vec![col(0)]);
            let moved = || ctx.stats.take().rows_moved;
            // Distributed round-robin, so a hash exchange has work to do.
            let scattered = Partitioned::from_rows(int_schema(), numbered(100), None, 4);
            let placed = exchange(scattered.clone(), &on_key, usize::MAX, ctx).unwrap();
            assert!(moved() > 0);
            // Rows of one source partition arrive in their order.
            for part in &placed.parts {
                let from_first: Vec<i64> = (part.to_rows().iter())
                    .map(|r| r[1].as_i64().unwrap())
                    .filter(|v| v % 4 == 0)
                    .collect();
                assert!(from_first.windows(2).all(|w| w[0] < w[1]));
            }
            // Already placed, and tagged so: the very same partitions come
            // back, and no row is hashed to find that out.
            assert_eq!(placed.placed_on.columns(), [0]);
            let again = exchange(placed.clone(), &on_key, usize::MAX, ctx).unwrap();
            assert_eq!((ctx.stats.rows_routed.get(), moved()), (0, 0));
            assert!(placed.same_buffers(&again.parts));
            // Untagged, the same rows are hashed and stay where they are.
            let untagged = Partitioned {
                placed_on: PlacedOn::UNKNOWN,
                ..placed.clone()
            };
            let again = exchange(untagged, &on_key, usize::MAX, ctx).unwrap();
            assert_eq!(
                (ctx.stats.take().rows_routed, again.placed_on),
                (100, placed.placed_on)
            );
            assert!(placed.same_buffers(&again.parts));
            // The input is a snapshot others may hold: it is never changed.
            assert_eq!(
                scattered.gather(),
                Partitioned::from_rows(int_schema(), numbered(100), None, 4).gather()
            );
            // A gather of rows already in partition 0 moves nothing either.
            let gathered = exchange(placed, &ExchangeMode::Gather, usize::MAX, ctx).unwrap();
            assert!(moved() > 0);
            let regathered =
                exchange(gathered.clone(), &ExchangeMode::Gather, usize::MAX, ctx).unwrap();
            assert_eq!(moved(), 0);
            assert!(Arc::ptr_eq(&regathered.parts[0], &gathered.parts[0]));
            // Broadcast: one block, shared by every partition.
            let everywhere = exchange(gathered, &ExchangeMode::Broadcast, usize::MAX, ctx).unwrap();
            assert_eq!(ctx.stats.take().rows_broadcast, 300);
            assert!(everywhere
                .parts
                .iter()
                .all(|p| Arc::ptr_eq(p, &everywhere.parts[0])));
        });
    }

    /// Whether a hash exchange on `keys` hashed the rows of `plan` again,
    /// rather than passing them through on their tag; either way every row
    /// ends up where `placement` puts it.
    fn hashed_again(plan: PhysicalPlan, keys: &[PlanExpr], ctx: &StatementContext<'_>) -> bool {
        let data = execute(&plan, ctx).unwrap();
        let (rows, input) = (data.total_rows() as u64, data.parts.clone());
        assert!(rows > 0, "{plan}");
        ctx.stats.take();
        let placed = exchange(data, &ExchangeMode::Hash(keys.to_vec()), usize::MAX, ctx).unwrap();
        for (i, part) in placed.parts.iter().enumerate() {
            let key = evaluate_all(keys, part).unwrap();
            let targets = placement(&key, part.rows(), ctx.config.partitions);
            assert!(targets.iter().all(|&p| p as usize == i), "{plan}");
        }
        let routed = ctx.stats.take().rows_routed;
        assert!(routed == rows || (routed == 0 && placed.same_buffers(&input)));
        routed > 0
    }

    fn temp(name: &str) -> Box<PhysicalPlan> {
        let schema = int_schema();
        Box::new(PhysicalPlan::TempScan {
            name: name.into(),
            schema,
        })
    }

    #[test]
    fn a_placement_tag_survives_only_operators_that_keep_rows_in_place() {
        with_context(4, |ctx| {
            let placed = |keys: i64, parts: usize| {
                let rows = (0..100).map(|i| row_of([Value::Int(i % keys), Value::Int(i)]));
                Partitioned::from_rows(int_schema(), rows.collect(), Some(0), parts)
            };
            ctx.registry.put("t", placed(7, 4));
            ctx.registry.put("t3", placed(7, 3));
            // More keys than `t`: a right or full join pads some.
            ctx.registry.put("u", placed(11, 4));
            let on = |c: usize| [col(c)];
            let project = |exprs: Vec<PlanExpr>, schema: SchemaRef| PhysicalPlan::Project {
                input: temp("t"),
                exprs,
                schema,
            };
            // Kept: a scan, a filter, a projection that moves the key.
            assert!(!hashed_again(*temp("t"), &on(0), ctx));
            let predicate = col(1).binary(BinaryOp::Lt, PlanExpr::literal(50i64));
            let filter = PhysicalPlan::Filter {
                input: temp("t"),
                predicate,
            };
            assert!(!hashed_again(filter, &on(0), ctx));
            assert!(!hashed_again(
                project(vec![col(1), col(0)], int_schema()),
                &on(1),
                ctx
            ));
            // Dropped: a computed or cast key, rows dealt anew for another
            // partition count, keys named in another order.
            let plus_zero = col(0).binary(BinaryOp::Plus, PlanExpr::literal(0i64));
            assert!(hashed_again(
                project(vec![plus_zero, col(1)], int_schema()),
                &on(0),
                ctx
            ));
            let text = PlanExpr::Cast {
                expr: Box::new(col(0)),
                to: DataType::Text,
            };
            let text_schema = Arc::new(Schema::new(vec![
                Field::new("k", DataType::Text),
                Field::new("v", DataType::Int),
            ]));
            assert!(hashed_again(
                project(vec![text, col(1)], text_schema),
                &on(0),
                ctx
            ));
            assert!(hashed_again(*temp("t3"), &on(0), ctx));
            let pair = ExchangeMode::Hash(vec![col(0), col(1)]);
            let on_pair = exchange(placed(7, 4), &pair, usize::MAX, ctx).unwrap();
            assert_eq!(on_pair.placed_on.columns(), [0, 1]);
            ctx.registry.put("t01", on_pair);
            assert!(!hashed_again(*temp("t01"), &[col(0), col(1)], ctx));
            assert!(hashed_again(*temp("t01"), &[col(1), col(0)], ctx));
            // `t` joined to `u` on the key, emitting (t.v, t.k, u.k): an
            // inner or left join keeps `t`'s placement, on column 1.
            let join = |join_type| PhysicalPlan::HashJoin {
                left: temp("t"),
                right: temp("u"),
                join_type,
                left_keys: vec![col(0)],
                right_keys: vec![col(0)],
                residual: None,
                columns: Some(vec![1, 0, 2]),
                build: JoinBuild::PerRun,
                schema: key_schema(),
            };
            for (join_type, kept) in [
                (JoinType::Inner, true),
                (JoinType::Left, true),
                (JoinType::Right, false),
                (JoinType::Full, false),
            ] {
                assert_eq!(
                    hashed_again(join(join_type), &on(1), ctx),
                    !kept,
                    "{join_type}"
                );
            }
            // So does a filter over the inner join.
            let filter = PhysicalPlan::Filter {
                input: Box::new(join(JoinType::Inner)),
                predicate: col(0).binary(BinaryOp::Lt, PlanExpr::literal(50i64)),
            };
            assert!(!hashed_again(filter, &on(1), ctx));
            // A computed projection of the join's rows that reads `t.v`
            // alone places no output on the key, though the column it reads
            // stands in for the key column it does not.
            let plus_zero = col(0).binary(BinaryOp::Plus, PlanExpr::literal(0i64));
            let projection = PhysicalPlan::Project {
                input: Box::new(join(JoinType::Inner)),
                exprs: vec![col(0), plus_zero],
                schema: int_schema(),
            };
            assert!(hashed_again(projection, &on(0), ctx));
        });
    }

    /// An indexed join uses the solution index only while it indexes the
    /// very CTE buffers the probe side read; otherwise — here, the CTE
    /// replaced by an equal copy — it runs as the plain hash join. Both
    /// give the plain join's rows in its order.
    #[test]
    fn an_indexed_join_uses_only_an_index_of_the_buffers_it_reads() {
        with_context(4, |ctx| {
            let rows = |keys: i64, n: i64| {
                let rows = (0..n).map(|i| row_of([Value::Int(i % keys), Value::Int(i)]));
                Partitioned::from_rows(int_schema(), rows.collect(), Some(0), 4)
            };
            ctx.registry.put("cte", rows(40, 40));
            ctx.registry.put("delta", rows(9, 60));
            let join = |build: JoinBuild| PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::Exchange {
                    input: temp("cte"),
                    mode: ExchangeMode::Hash(vec![col(0)]),
                }),
                right: Box::new(PhysicalPlan::Exchange {
                    input: temp("delta"),
                    mode: ExchangeMode::Hash(vec![col(0)]),
                }),
                join_type: JoinType::Inner,
                left_keys: vec![col(0)],
                right_keys: vec![col(0)],
                residual: None,
                columns: Some(vec![1, 0, 3]),
                build,
                schema: key_schema(),
            };
            let run = |build: JoinBuild| {
                let out = execute(&join(build), ctx).unwrap();
                format!(
                    "{:?}",
                    out.parts.iter().map(|p| p.to_rows()).collect::<Vec<_>>()
                )
            };
            let plain = run(JoinBuild::PerRun);
            let indexed = JoinBuild::Indexed { cte: "cte".into() };
            let cte = ctx.registry.get("cte").unwrap();
            ctx.solutions.build("cte", &cte, 0).unwrap();
            assert!(ctx.solutions.tables("cte", &cte.parts).is_some());
            assert_eq!(run(indexed.clone()), plain);
            let copy = Partitioned {
                parts: cte
                    .parts
                    .iter()
                    .map(|p| Arc::new(Block::clone(p)))
                    .collect(),
                ..cte
            };
            ctx.registry.put("cte", copy);
            assert!(ctx
                .solutions
                .tables("cte", &ctx.registry.get("cte").unwrap().parts)
                .is_none());
            assert_eq!(run(indexed), plain);
        });
    }

    #[test]
    fn a_spilled_result_comes_back_without_its_tag() {
        let env = Arc::new(spinner_storage::SpillEnv::new(u64::MAX, None, None));
        let (catalog, config) = (Catalog::new(), EngineConfig::default().with_partitions(4));
        let (guard, faults) = (QueryGuard::unlimited(), FaultInjector::disabled());
        let ctx = StatementContext::new(&catalog, &config, &guard, &faults, Some(env));
        let placed = Partitioned::from_rows(int_schema(), numbered(100), Some(0), 4);
        ctx.registry.put("t", placed);
        assert!(!hashed_again(*temp("t"), &[col(0)], &ctx));
        assert!(ctx.registry.spill_entry("t").unwrap());
        assert!(hashed_again(*temp("t"), &[col(0)], &ctx));
    }

    #[test]
    fn a_limit_fetches_only_the_rows_it_keeps() {
        with_context(2, |ctx| {
            let moved = || ctx.stats.take().rows_moved;
            let shared = Partitioned::from_rows(int_schema(), numbered(100), None, 2);
            // The gather below a LIMIT 1 finds its row in partition 0 already.
            let gathered = exchange(shared.clone(), &ExchangeMode::Gather, 1, ctx).unwrap();
            assert_eq!(moved(), 0);
            assert!(Arc::ptr_eq(&gathered.parts[0], &shared.parts[0]));
            assert_eq!(gathered.take_rows(1), shared.gather()[..1]);
            // LIMIT 60 reaches 10 rows into partition 1 and no further.
            let gathered = exchange(shared.clone(), &ExchangeMode::Gather, 60, ctx).unwrap();
            assert_eq!(moved(), 10);
            assert_eq!(gathered.parts[0].to_rows(), shared.gather()[..60]);
            assert_eq!(gathered.total_rows(), 60);
        });
    }

    #[test]
    fn a_filter_that_keeps_everything_and_a_bare_projection_share_their_input() {
        with_context(2, |ctx| {
            let catalog_free = |plan: PhysicalPlan| execute(&plan, ctx).unwrap();
            let data = Partitioned::from_rows(int_schema(), numbered(10), None, 2);
            ctx.registry.put("t", data.clone());
            let scan = || {
                Box::new(PhysicalPlan::TempScan {
                    name: "t".into(),
                    schema: int_schema(),
                })
            };
            let all = catalog_free(PhysicalPlan::Filter {
                input: scan(),
                predicate: col(1).binary(BinaryOp::GtEq, PlanExpr::literal(0i64)),
            });
            assert!(all
                .parts
                .iter()
                .zip(&data.parts)
                .all(|(a, b)| Arc::ptr_eq(a, b)));
            let projected = catalog_free(PhysicalPlan::Project {
                input: scan(),
                exprs: vec![col(1), col(1).binary(BinaryOp::Plus, col(0))],
                schema: int_schema(),
            });
            for (out, input) in projected.parts.iter().zip(&data.parts) {
                assert!(Arc::ptr_eq(&out.columns()[0], &input.columns()[1]));
            }
        });
    }
}
