//! Evaluation of physical operator trees over partitioned column blocks.
//!
//! Every operator consumes and produces a [`Partitioned`] (one immutable
//! [`Block`] per virtual MPP worker) and works a column at a time:
//! expressions are evaluated into columns, keys are hashed from columns,
//! and what an operator decides is a vector of row numbers — the rows a
//! filter keeps, the `(probe, build)` pairs a join matched, the group of
//! each row, the order of a sort, the partition each row is bound for —
//! by which each output column is gathered once. Per-partition work runs
//! in parallel when `EngineConfig::parallel_partitions` is set — on the
//! statement's thread and at most one scoped thread per further core,
//! which share the occupied partitions (see `map_partitions`). The
//! default is sequential execution for determinism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use spinner_common::memory::RegionKind;
use spinner_common::profile::SpanKind;
use spinner_common::{Block, Column, Error, FaultSite, Result, Row, NO_ROW};
use spinner_plan::{AggExpr, JoinType, PlanExpr, SetOpKind, SortKey};
use spinner_storage::{placement, Partitioned, PlacedOn};

use crate::aggregate::{aggregate, Accumulator, Phase};
use crate::executor::StatementContext;
use crate::keys::{hash_keys, null_key, JoinTable, KeyTable};
use crate::physical::{bare_column, ExchangeMode, PhysicalPlan};
use crate::retry::retry;

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

/// Execute a physical plan tree to a partitioned result.
pub fn execute(plan: &PhysicalPlan, ctx: &StatementContext<'_>) -> Result<Partitioned> {
    execute_first(plan, usize::MAX, ctx)
}

/// [`execute`] for a caller that reads only the first `limit` rows in
/// partition order: a `LIMIT` tells the gather below it, which then stops
/// there instead of collecting — and copying — its whole input.
fn execute_first(
    plan: &PhysicalPlan,
    limit: usize,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    // Operator batch boundary: every operator in the tree passes through
    // here, so cancellation and deadlines are honoured between operators
    // even when a single plan has no loop.
    ctx.guard.check()?;
    if !ctx.tracer.is_enabled() {
        return execute_inner(plan, limit, ctx);
    }
    ctx.tracer.enter(SpanKind::Operator, plan.describe());
    match execute_inner(plan, limit, ctx) {
        Ok(data) => {
            ctx.tracer
                .exit(data.total_rows() as u64, data.estimated_bytes());
            Ok(data)
        }
        Err(e) => {
            ctx.tracer.exit(0, 0);
            Err(e)
        }
    }
}

fn execute_inner(
    plan: &PhysicalPlan,
    limit: usize,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    match plan {
        PhysicalPlan::SeqScan { table, .. } => {
            let snapshot = ctx.catalog.with_table(table, |t| Ok(t.snapshot()))?;
            Ok(normalize_partitions(
                snapshot,
                ctx.config.partitions,
                plan.schema(),
            ))
        }
        PhysicalPlan::TempScan { name, .. } => {
            let data = ctx.registry.get(name)?;
            Ok(normalize_partitions(
                data,
                ctx.config.partitions,
                plan.schema(),
            ))
        }
        PhysicalPlan::Values { rows, schema } => {
            let literal = |exprs: &Vec<PlanExpr>| exprs.iter().map(|e| e.evaluate(&[])).collect();
            let rows: Vec<Row> = rows.iter().map(literal).collect::<Result<_>>()?;
            let block = Arc::new(Block::from_rows(schema.len(), rows));
            Ok(in_partition_zero(schema.clone(), block, ctx))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            let out = unary_map(&data, ctx, |block| {
                let columns = evaluate_all(exprs, block, ctx)?;
                Ok(Arc::new(Block::new(columns, block.rows())))
            })?;
            // An output column that is an input column's very buffer — a
            // bare column, or a cast that left the column as it was — is
            // placed as that input column was.
            let shares = |k: usize, c: usize| {
                (out.iter().zip(&data.parts))
                    .all(|(o, i)| Arc::ptr_eq(&o.columns()[k], &i.columns()[c]))
            };
            Ok(Partitioned {
                placed_on: data
                    .placed_on
                    .remap(|c| (0..exprs.len()).find(|&k| shares(k, c))),
                schema: schema.clone(),
                parts: out,
            })
        }
        PhysicalPlan::Filter { input, predicate } => {
            let data = execute(input, ctx)?;
            let out = unary_map(&data, ctx, |block| {
                let kept = predicate.select(block, &ctx.stats.rows_evaluated_by_row)?;
                Ok(if kept.len() == block.rows() {
                    Arc::clone(block)
                } else {
                    Arc::new(block.take(&kept))
                })
            })?;
            Ok(Partitioned { parts: out, ..data })
        }
        PhysicalPlan::Exchange { input, mode } => {
            let data = execute(input, ctx)?;
            exchange(data, mode, limit, ctx)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            columns,
            cached,
            schema,
        } => {
            let l = execute(left, ctx)?;
            let join = HashJoinSpec {
                join_type: *join_type,
                left_keys,
                right_keys,
                residual: residual.as_ref(),
                columns: columns.as_deref(),
                ctx,
            };
            // Every output row of an inner or left join is a probe row with
            // its cells where `columns` puts them; the others pad the probe
            // side with NULLs.
            let placed_on = match join_type {
                JoinType::Inner | JoinType::Left => l.placed_on.remap(|c| match columns {
                    Some(columns) => columns.iter().position(|&o| o == c),
                    None => Some(c),
                }),
                _ => PlacedOn::UNKNOWN,
            };
            // A loop-invariant build side is built once and re-probed on
            // every later iteration.
            let parts = if *cached {
                cached_hash_join(&l, right, &join)?
            } else {
                let r = execute(right, ctx)?;
                ctx.stats.joins_executed.add(1);
                with_transient_tracking(
                    ctx,
                    "hash join build",
                    RegionKind::HashJoinBuild,
                    r.estimated_bytes(),
                    || binary_map(&l, &r, ctx, |l, r| join.probe(l, r, &join.build(r)?)),
                )?
            };
            Ok(Partitioned {
                schema: schema.clone(),
                parts,
                placed_on,
            })
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            join_type,
            residual,
            columns,
            schema,
        } => {
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            ctx.stats.joins_executed.add(1);
            // Inputs were gathered to partition 0 by the planner.
            let l = Block::concat(&l.parts, usize::MAX);
            let r = Block::concat(&r.parts, usize::MAX);
            let joined = nested_loop_join(
                &l,
                &r,
                *join_type,
                residual.as_ref(),
                columns.as_deref(),
                ctx,
            )?;
            Ok(in_partition_zero(schema.clone(), joined, ctx))
        }
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            if group.is_empty() {
                global_aggregate(&data, aggs, schema.clone(), ctx)
            } else {
                let output = (schema, data.placed_on.remap(|c| output_of(group, c)));
                aggregate_partitions(&data, "hash aggregate", output, ctx, |block| {
                    let keys = evaluate_all(group, block, ctx)?;
                    aggregate_block(block, keys, aggs, Phase::Single, ctx)
                })
            }
        }
        PhysicalPlan::AggregatePartial {
            input,
            group,
            aggs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            let output = (schema, data.placed_on.remap(|c| output_of(group, c)));
            aggregate_partitions(&data, "partial aggregate", output, ctx, |block| {
                let keys = evaluate_all(group, block, ctx)?;
                aggregate_block(block, keys, aggs, Phase::Partial, ctx)
            })
        }
        PhysicalPlan::AggregateFinal {
            input,
            group_len,
            aggs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            let output = (
                schema,
                data.placed_on.remap(|c| (c < *group_len).then_some(c)),
            );
            aggregate_partitions(&data, "final aggregate", output, ctx, |block| {
                let keys = block.columns()[..*group_len].to_vec();
                aggregate_block(block, keys, aggs, Phase::Final, ctx)
            })
        }
        PhysicalPlan::Distinct { input } => {
            let data = execute(input, ctx)?;
            let out = unary_map(&data, ctx, |block| distinct_rows(block))?;
            Ok(Partitioned { parts: out, ..data })
        }
        PhysicalPlan::Sort { input, keys } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let rows = Block::concat(&data.parts, usize::MAX);
            Ok(in_partition_zero(schema, sort_rows(&rows, keys, ctx)?, ctx))
        }
        PhysicalPlan::Limit { input, n } => {
            // The first `n` rows in partition order, and no row past them.
            let n = usize::try_from(*n).unwrap_or(usize::MAX);
            let data = execute_first(input, n, ctx)?;
            let schema = data.schema.clone();
            Ok(in_partition_zero(
                schema,
                Block::concat(&data.parts, n),
                ctx,
            ))
        }
        PhysicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            let out = binary_map(&l, &r, ctx, |l, r| set_op_partition(l, r, *op, *all))?;
            // EXCEPT and INTERSECT keep left rows; a union keeps both
            // sides', placed alike only if both sides were.
            let placed_on = if *op != SetOpKind::Union || l.placed_on == r.placed_on {
                l.placed_on
            } else {
                PlacedOn::UNKNOWN
            };
            Ok(Partitioned {
                schema: schema.clone(),
                parts: out,
                placed_on,
            })
        }
    }
}

/// The output column a projection of `exprs` copies input column `c` to,
/// if one is that bare column.
fn output_of(exprs: &[PlanExpr], c: usize) -> Option<usize> {
    exprs.iter().position(|e| bare_column(e) == Some(c))
}

/// Each of `exprs` over `block`, a column apiece.
pub(crate) fn evaluate_all<'e>(
    exprs: impl IntoIterator<Item = &'e PlanExpr>,
    block: &Block,
    ctx: &StatementContext<'_>,
) -> Result<Vec<Arc<Column>>> {
    let by_row = &ctx.stats.rows_evaluated_by_row;
    let columns = exprs.into_iter().map(|e| e.evaluate_column(block, by_row));
    columns.collect()
}

/// Bring a row set to exactly `parts` partitions, preserving data. Used at
/// scan boundaries when a stored result was partitioned under a different
/// configuration; rows dealt anew are no longer placed on a key.
fn normalize_partitions(
    data: Partitioned,
    parts: usize,
    schema: spinner_common::SchemaRef,
) -> Partitioned {
    if data.parts.len() == parts {
        return Partitioned { schema, ..data };
    }
    // Round-robin over the rows in partition order.
    let all = Block::concat(&data.parts, usize::MAX);
    let nth = |p: usize| (p..all.rows()).step_by(parts).map(|row| row as u32);
    Partitioned {
        schema,
        parts: (0..parts)
            .map(|p| Arc::new(all.take(&nth(p).collect::<Vec<_>>())))
            .collect(),
        placed_on: PlacedOn::UNKNOWN,
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
fn run_partition(
    ctx: &StatementContext<'_>,
    partition: usize,
    f: impl Fn() -> Result<Arc<Block>>,
) -> Result<Arc<Block>> {
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

/// Shared scheduling driver for [`unary_map`]/[`binary_map`]: run
/// `work(i)` for every partition index `0..count` and collect the
/// results in partition order.
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
/// batch. They still go through `work` (and therefore [`run_partition`]),
/// so fault-injection hit counts and retry accounting are identical in
/// every mode.
fn map_partitions(
    ctx: &StatementContext<'_>,
    count: usize,
    is_empty: &dyn Fn(usize) -> bool,
    work: &(dyn Fn(usize) -> Result<Arc<Block>> + Sync),
) -> Result<Vec<Arc<Block>>> {
    // Serially nothing is listed, and an empty list allocates nothing.
    let listed = |i: &usize| ctx.config.parallel_partitions && !is_empty(*i);
    let occupied: Vec<usize> = (0..count).filter(listed).collect();
    if occupied.len() < 2 {
        return (0..count).map(work).collect();
    }
    ctx.stats.pool_tasks.add(occupied.len() as u64);
    let slots: Vec<OnceLock<Result<Arc<Block>>>> = (0..count).map(|_| OnceLock::new()).collect();
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
    let results: Vec<Result<Arc<Block>>> = (slots.into_iter().enumerate())
        .map(|(i, slot)| slot.into_inner().unwrap_or_else(|| work(i)))
        .collect();
    results.into_iter().collect()
}

/// Run `f` over every partition of `input`, optionally in parallel.
/// Workers are panic-isolated; see [`run_partition`].
fn unary_map(
    input: &Partitioned,
    ctx: &StatementContext<'_>,
    f: impl Fn(&Arc<Block>) -> Result<Arc<Block>> + Sync,
) -> Result<Vec<Arc<Block>>> {
    unary_map_indexed(input, ctx, |_, block| f(block))
}

/// Like [`unary_map`], but `f` also receives the partition index so the
/// caller can pair each partition with co-indexed external state (the
/// cached join build).
fn unary_map_indexed(
    input: &Partitioned,
    ctx: &StatementContext<'_>,
    f: impl Fn(usize, &Arc<Block>) -> Result<Arc<Block>> + Sync,
) -> Result<Vec<Arc<Block>>> {
    map_partitions(
        ctx,
        input.parts.len(),
        &|i| input.parts[i].is_empty(),
        &|i| run_partition(ctx, i, || f(i, &input.parts[i])),
    )
}

/// Run `f` over co-indexed partition pairs, optionally in parallel.
/// Workers are panic-isolated; see [`run_partition`].
fn binary_map(
    l: &Partitioned,
    r: &Partitioned,
    ctx: &StatementContext<'_>,
    f: impl Fn(&Arc<Block>, &Arc<Block>) -> Result<Arc<Block>> + Sync,
) -> Result<Vec<Arc<Block>>> {
    if l.parts.len() != r.parts.len() {
        return Err(Error::execution(format!(
            "partition count mismatch: {} vs {}",
            l.parts.len(),
            r.parts.len()
        )));
    }
    map_partitions(
        ctx,
        l.parts.len(),
        &|i| l.parts[i].is_empty() && r.parts[i].is_empty(),
        &|i| run_partition(ctx, i, || f(&l.parts[i], &r.parts[i])),
    )
}

/// `block` as partition 0 of an otherwise empty row set — the layout every
/// gathering operator (sort, limit, global aggregate, …) produces.
fn in_partition_zero(
    schema: spinner_common::SchemaRef,
    block: Arc<Block>,
    ctx: &StatementContext<'_>,
) -> Partitioned {
    let mut out = Partitioned::empty(schema, ctx.config.partitions);
    out.parts[0] = block;
    out
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
/// is: the same `Arc`s, no key evaluated, no row hashed. Debug builds
/// check every such row against the tag. Any other input is routed: its
/// rows are hashed by [`spinner_storage::placement`] — the rule stored
/// tables and checkpoints were distributed by — once per partition from
/// the key's columns (`rows_routed` counts them), and the output is placed
/// on the key. When no row changes partition and the input already has
/// the configured partition count, a hash or gather exchange returns its
/// input's `Arc`s. A gather whose reader wants only the first `limit` rows
/// (`usize::MAX`: all) fetches — and counts as moved — no row past them.
/// A gather or broadcast places rows on no key.
pub fn exchange(
    data: Partitioned,
    mode: &ExchangeMode,
    limit: usize,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    ctx.faults.hit(FaultSite::Exchange)?;
    let parts = ctx.config.partitions;
    let schema = data.schema.clone();
    let already_placed = |moved: u64| moved == 0 && data.parts.len() == parts;
    match mode {
        ExchangeMode::Hash(keys) => {
            let placed_on = PlacedOn::new(keys.iter().map(bare_column));
            if data.placed_for(placed_on, parts) {
                return Ok(data);
            }
            let mut targets = Vec::with_capacity(data.parts.len());
            let mut moved = 0u64;
            for (src, block) in data.parts.iter().enumerate() {
                let keys = evaluate_all(keys, block, ctx)?;
                let bound = placement(&keys, block.rows(), parts);
                moved += bound.iter().filter(|&&t| t as usize != src).count() as u64;
                targets.push(bound);
            }
            ctx.stats.rows_routed.add(data.total_rows() as u64);
            charge_rows_moved(ctx, moved)?;
            if already_placed(moved) {
                return Ok(Partitioned { placed_on, ..data });
            }
            Ok(Partitioned {
                parts: data.scatter(&targets, parts),
                schema,
                placed_on,
            })
        }
        ExchangeMode::Gather => {
            let wanted = data.total_rows().min(limit);
            let moved = wanted.saturating_sub(data.parts.first().map_or(0, |p| p.rows())) as u64;
            charge_rows_moved(ctx, moved)?;
            if already_placed(moved) {
                return Ok(Partitioned {
                    placed_on: PlacedOn::UNKNOWN,
                    ..data
                });
            }
            let rows = Block::concat(&data.parts, limit);
            Ok(in_partition_zero(schema, rows, ctx))
        }
        ExchangeMode::Broadcast => {
            let rows = Block::concat(&data.parts, usize::MAX);
            let copies = rows.rows() as u64 * (parts as u64).saturating_sub(1);
            ctx.guard.charge_rows_moved(copies)?;
            ctx.stats.rows_broadcast.add(copies);
            ctx.tracer.note_rows_moved(copies);
            Ok(Partitioned {
                schema,
                parts: vec![rows; parts],
                placed_on: PlacedOn::UNKNOWN,
            })
        }
    }
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
/// collected and filtered a chunk at a time. [`gather_pairs`] turns the
/// pairs into the join's output.
pub(crate) fn join_pairs<'a>(
    (l, r): (&Block, &Block),
    (join_type, residual): (JoinType, Option<&PlanExpr>),
    ctx: &StatementContext<'_>,
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
            let (mut chunk_probe, mut chunk_build) = (Vec::new(), Vec::new());
            let mut chunk_start = 0;
            for row in 0..l.rows() {
                chunk_build.extend_from_slice(candidates(row));
                chunk_probe.resize(chunk_build.len(), row as u32);
                if chunk_build.len() < RESIDUAL_CHUNK && row + 1 < l.rows() {
                    continue;
                }
                let (left, right) = (l.take(&chunk_probe), r.take(&chunk_build));
                let columns = left.columns().iter().chain(right.columns()).cloned();
                let pairs = Block::new(columns.collect(), chunk_probe.len());
                let kept = residual.select(&pairs, &ctx.stats.rows_evaluated_by_row)?;
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

/// Each of `columns` of `l ∥ r`, or every one, gathered once by the
/// `(probe, build)` row numbers of a join.
pub(crate) fn gather_pairs(
    (l, r): (&Block, &Block),
    (probe, build): (&[u32], &[u32]),
    columns: Option<&[usize]>,
) -> Arc<Block> {
    let width = l.columns().len();
    let gather = |c: usize| match c.checked_sub(width) {
        None => Arc::new(l.columns()[c].gather(probe)),
        Some(c) => Arc::new(r.columns()[c].gather(build)),
    };
    let out = match columns {
        Some(columns) => columns.iter().map(|&c| gather(c)).collect(),
        None => (0..width + r.columns().len()).map(gather).collect(),
    };
    Arc::new(Block::new(out, probe.len()))
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
        JoinTable::build(evaluate_all(self.right_keys, r, self.ctx)?, r.rows())
    }

    /// Probe one partition against the prebuilt index over `r`.
    fn probe(&self, l: &Block, r: &Block, table: &JoinTable) -> Result<Arc<Block>> {
        let (probe, build) = self.pairs(l, r, table)?;
        Ok(gather_pairs((l, r), (&probe, &build), self.columns))
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
        let keys = evaluate_all(self.left_keys, l, self.ctx)?;
        let hashes = hash_keys(&keys, l.rows());
        join_pairs(
            (l, r),
            (self.join_type, self.residual),
            self.ctx,
            // NULL keys never match; the build side left its own out.
            |row| match null_key(&keys, row) {
                true => &[],
                false => table.matches(&keys, row, hashes[row]),
            },
        )
    }
}

/// Hash join against a loop-invariant build side, through the
/// [`JoinStateCache`](crate::JoinStateCache).
///
/// On a hit (`join_builds_reused`) the right subtree is not executed at
/// all — no scan, no exchange, no re-hash; the probe runs against the
/// cached partitioned build. Otherwise (`join_builds`) the right subtree
/// executes once — or its rows come back from disk — and the
/// per-partition key indexes are built under pinned transient tracking.
fn cached_hash_join(
    l: &Partitioned,
    right: &PhysicalPlan,
    join: &HashJoinSpec<'_>,
) -> Result<Vec<Arc<Block>>> {
    let ctx = join.ctx;
    ctx.stats.joins_executed.add(1);
    let (entry, reused) = ctx
        .join_cache
        .get_or_build((right, join.right_keys), ctx, |rows| {
            let r = match rows {
                Some(rows) => rows,
                None => execute(right, ctx)?,
            };
            let tables = with_transient_tracking(
                ctx,
                "hash join build",
                RegionKind::HashJoinBuild,
                r.estimated_bytes(),
                || r.parts.iter().map(|p| join.build(p)).collect(),
            )?;
            Ok((r, tables))
        })?;
    match reused {
        true => ctx.stats.join_builds_reused.add(1),
        false => ctx.stats.join_builds.add(1),
    }
    if entry.build.parts.len() != l.parts.len() {
        return Err(Error::execution(format!(
            "partition count mismatch: {} vs {}",
            l.parts.len(),
            entry.build.parts.len()
        )));
    }
    let entry_ref = &entry;
    unary_map_indexed(l, ctx, |i, l| {
        join.probe(l, &entry_ref.build.parts[i], &entry_ref.tables[i])
    })
}

/// Nested-loop join over gathered inputs: every pair is a candidate.
fn nested_loop_join(
    l: &Block,
    r: &Block,
    join_type: JoinType,
    residual: Option<&PlanExpr>,
    columns: Option<&[usize]>,
    ctx: &StatementContext<'_>,
) -> Result<Arc<Block>> {
    let every_build_row: Vec<u32> = (0..r.rows() as u32).collect();
    let (probe, build) = join_pairs((l, r), (join_type, residual), ctx, |_| &every_build_row)?;
    Ok(gather_pairs((l, r), (&probe, &build), columns))
}

/// Run one aggregation phase over every partition of `data`, its groups
/// tracked as pinned hash-aggregate state while it runs, into rows of
/// `schema` placed on `placed_on`.
fn aggregate_partitions(
    data: &Partitioned,
    label: &str,
    (schema, placed_on): (&spinner_common::SchemaRef, PlacedOn),
    ctx: &StatementContext<'_>,
    phase: impl Fn(&Block) -> Result<Arc<Block>> + Sync,
) -> Result<Partitioned> {
    let parts = with_transient_tracking(
        ctx,
        label,
        RegionKind::HashAggregate,
        data.estimated_bytes(),
        || unary_map(data, ctx, |block| phase(block)),
    )?;
    Ok(Partitioned {
        schema: schema.clone(),
        parts,
        placed_on,
    })
}

/// One aggregation phase over one partition. Rows are numbered by their
/// group — `keys` holds the group key of every row, a column per key
/// cell — in first-seen order, which is the output order; each aggregate
/// then folds its input columns by those numbers
/// ([`aggregate`](crate::aggregate::aggregate)). The output is the
/// distinct keys followed by what each aggregate emits in `phase`; in the
/// [`Phase::Final`] phase the inputs are the state columns that follow
/// the keys in `block`. An aggregation without keys has one group, even
/// over no rows.
fn aggregate_block(
    block: &Block,
    keys: Vec<Arc<Column>>,
    aggs: &[AggExpr],
    phase: Phase,
    ctx: &StatementContext<'_>,
) -> Result<Arc<Block>> {
    let (groups, count, mut columns) = if keys.is_empty() {
        (vec![0; block.rows()], 1, Vec::new())
    } else {
        let mut table = KeyTable::new(keys.len(), block.rows());
        let groups = table.insert_all(&keys, block.rows())?;
        (groups, table.len(), table.into_keys())
    };
    let mut states = block.columns()[keys.len()..].iter();
    for agg in aggs {
        let inputs: Vec<Arc<Column>> = match phase {
            Phase::Final => states
                .by_ref()
                .take(Accumulator::state_width(agg.func))
                .cloned()
                .collect(),
            _ => evaluate_all(agg.arg.iter().chain(&agg.by), block, ctx)?,
        };
        let emitted = aggregate(agg, phase, &inputs, &groups, count)?;
        columns.extend(emitted.into_iter().map(Arc::new));
    }
    Ok(Arc::new(Block::new(columns, count)))
}

/// Global aggregation, one output row in partition 0 (even over empty
/// input): each aggregate's partial states per partition, merged in
/// partition order. `DISTINCT` has no partial state to merge, so such an
/// aggregate runs in one phase over all the rows.
fn global_aggregate(
    data: &Partitioned,
    aggs: &[AggExpr],
    schema: spinner_common::SchemaRef,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    let phase = |blocks: &[Arc<Block>], agg: &AggExpr, phase| {
        let agg = std::slice::from_ref(agg);
        let rows = Block::concat(blocks, usize::MAX);
        aggregate_block(&rows, Vec::new(), agg, phase, ctx)
    };
    let mut columns = Vec::with_capacity(aggs.len());
    for agg in aggs {
        let row = if agg.distinct {
            phase(&data.parts, agg, Phase::Single)?
        } else {
            let partial = |part| phase(std::slice::from_ref(part), agg, Phase::Partial);
            let partials: Vec<Arc<Block>> =
                data.parts.iter().map(partial).collect::<Result<_>>()?;
            phase(&partials, agg, Phase::Final)?
        };
        columns.extend_from_slice(row.columns());
    }
    Ok(in_partition_zero(
        schema,
        Arc::new(Block::new(columns, 1)),
        ctx,
    ))
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
fn set_op_partition(
    l: &Arc<Block>,
    r: &Arc<Block>,
    op: SetOpKind,
    all: bool,
) -> Result<Arc<Block>> {
    let kept = if op == SetOpKind::Union {
        Block::concat(&[Arc::clone(l), Arc::clone(r)], usize::MAX)
    } else {
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
        let hashes = hash_keys(l.columns(), l.rows());
        let mut in_right = |row: &usize| match right.find(l.columns(), *row, hashes[*row]) {
            Some(id) if all && occurrences[id] == 0 => false,
            Some(id) => {
                occurrences[id] -= usize::from(all);
                true
            }
            None => false,
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

/// How `keys` order rows `a` and `b`, whose sort-key cells `columns` hold.
fn compare_sort_keys(
    columns: &[Arc<Column>],
    keys: &[SortKey],
    (a, b): (usize, usize),
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (column, key) in columns.iter().zip(keys) {
        let (a, b) = (column.cell(a), column.cell(b));
        let nulls = if key.nulls_first {
            Ordering::Less
        } else {
            Ordering::Greater
        };
        let ord = match (a.is_null(), b.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => nulls,
            (false, true) => nulls.reverse(),
            (false, false) if key.asc => a.cmp_total(&b),
            (false, false) => a.cmp_total(&b).reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The rows of `block` sorted by `keys` (stable): the keys are evaluated
/// once, a column each — so an evaluation error surfaces before anything
/// is ordered — and the rows gathered by the sorted row numbers.
fn sort_rows(block: &Block, keys: &[SortKey], ctx: &StatementContext<'_>) -> Result<Arc<Block>> {
    let columns = evaluate_all(keys.iter().map(|key| &key.expr), block, ctx)?;
    let mut order: Vec<u32> = (0..block.rows() as u32).collect();
    order.sort_by(|&a, &b| compare_sort_keys(&columns, keys, (a as usize, b as usize)));
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
        let work = |i: usize| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            Ok(block(1, &[row_of([Value::Int(i as i64)])]))
        };
        let blocks = map_partitions(&ctx, 16, &|i| i % 4 == 0, &work).unwrap();
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
            let joined = join.probe(&l, &r, &join.build(&r).unwrap()).unwrap();
            assert_eq!(
                ctx.stats.rows_evaluated_by_row.get(),
                0,
                "column keys, typed residual"
            );
            joined.to_rows()
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
        with_context(1, |ctx| {
            let rows = block(
                2,
                &[
                    row_of([Value::Int(1), Value::Text("x".into())]),
                    row_of([Value::Null, Value::Text("y".into())]),
                    row_of([Value::Int(3), Value::Text("z".into())]),
                    row_of([Value::Float(1.0), Value::Text("w".into())]),
                ],
            );
            let sorted = sort_rows(&rows, &[sort_key(col(0), false, false)], ctx).unwrap();
            // 1 and 1.0 tie: the sort is stable, so "x" stays ahead of "w" —
            // and each keeps its own cell: `Int(1)` is not `Float(1.0)`.
            assert_eq!(
                exact(&sorted.to_rows()),
                exact(&[
                    row_of([Value::Int(3), Value::Text("z".into())]),
                    row_of([Value::Int(1), Value::Text("x".into())]),
                    row_of([Value::Float(1.0), Value::Text("w".into())]),
                    row_of([Value::Null, Value::Text("y".into())]),
                ])
            );
            // Two keys, NULLs first, the second key computed and ascending.
            let negated = PlanExpr::literal(0i64).binary(BinaryOp::Minus, col(0));
            let keys = [sort_key(col(0), true, true), sort_key(negated, true, true)];
            let sorted = sort_rows(&sorted, &keys, ctx).unwrap().to_rows();
            assert!(sorted[0][0].is_null());
            assert_eq!(sorted[3][1], Value::from("z"));
            // A key that fails to evaluate fails the sort.
            assert!(sort_rows(&rows, &[sort_key(col(9), true, true)], ctx).is_err());
            assert_eq!(sort_rows(&block(2, &[]), &keys, ctx).unwrap().rows(), 0);
        });
    }

    #[test]
    fn nested_loop_left_join_pads() {
        let l = block(1, &[row_of([Value::Int(1)]), row_of([Value::Int(2)])]);
        let r = block(2, &[row_of([Value::Int(1), Value::Int(10)])]);
        let pred = col(0).binary(BinaryOp::Eq, col(1));
        let out = with_context(1, |ctx| {
            nested_loop_join(&l, &r, JoinType::Left, Some(&pred), None, ctx).unwrap()
        })
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
        // One NULL cell makes a multi-column key NULL, on either side.
        let l = vec![
            row_of([Value::Int(1), Value::Null]),
            row_of([Value::Int(1), Value::Int(2)]),
        ];
        let r = vec![
            row_of([Value::Null, Value::Int(2)]),
            row_of([Value::Float(1.0), Value::Float(2.0)]),
            row_of([Value::Int(1), Value::Null]),
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
            join.probe(&l, &r, &join.build(&r).unwrap()).unwrap()
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
        set_op_partition(&block(width, l), &block(width, r), op, all)
            .unwrap()
            .to_rows()
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

    /// Key cells from a small domain rich in the cases the hash must get
    /// right: NULL, `2` against `2.0`, both zeroes, NaN, text.
    fn key_cell() -> impl Strategy<Value = Value> {
        (0u32..12).prop_map(|pick| match pick {
            0 | 1 => Value::Null,
            2 => Value::Float(-0.0),
            3 => Value::Float(2.0),
            4 => Value::Float(f64::NAN),
            5 => Value::Text("a".into()),
            6 => Value::Text("ab".into()),
            n => Value::Int(i64::from(n) - 7),
        })
    }

    /// An integer key cell, a float one equal to some integer one, or NULL.
    fn int_cell() -> impl Strategy<Value = Value> {
        (0i64..6).prop_map(|n| if n == 5 { Value::Null } else { Value::Int(n) })
    }

    fn float_cell() -> impl Strategy<Value = Value> {
        (0i64..6).prop_map(|n| {
            if n == 5 {
                Value::Null
            } else {
                Value::Float(n as f64)
            }
        })
    }

    /// `(key, key, payload)` rows: few distinct keys, so both sides repeat.
    /// The key columns hold `Mixed` cells, integers only or floats only —
    /// so an integer column also meets a float column, and a typed column a
    /// `Mixed` one.
    fn rows() -> impl Strategy<Value = Vec<Row>> {
        fn of<S: Strategy<Value = Value>>(cell: fn() -> S) -> impl Strategy<Value = Vec<Row>> {
            let row = (cell(), cell(), 0i64..4).prop_map(|(a, b, p)| row_of([a, b, Value::Int(p)]));
            proptest::collection::vec(row, 0..24)
        }
        prop_oneof![of(key_cell), of(int_cell), of(float_cell)]
    }

    /// `(key, key, payload)` rows, 100–300 of them, whose keys take at most
    /// six values — `{NULL, 0, 1} × {NULL, 1}` — so key groups are long and
    /// either cell of a two-column key may be NULL. The key columns hold
    /// integers, floats (`-0.0` for zero) or both; the payload numbers the
    /// row.
    fn long_groups() -> impl Strategy<Value = Vec<Row>> {
        let cells = proptest::collection::vec((0i64..3, 0i64..3), 100..300);
        (cells, 0i64..3).prop_map(|(cells, typing)| {
            let at = |row: usize, n: i64| match (typing, row % 2) {
                (0, _) | (2, 0) => Value::Int(n),
                _ => Value::Float(if n == 0 { -0.0 } else { n as f64 }),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

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
            let looped = with_context(1, |ctx| {
                nested_loop_join(&block(3, &l), &block(3, &r), join_type, predicate.as_ref(), None, ctx)
            }).unwrap().to_rows();
            prop_assert_eq!(exact(&looped), exact(&reference));
            prop_assert_eq!(sorted(hashed), sorted(reference));
        }

        /// Grouped aggregation, and partial + final over any split of the
        /// input, equal a `BTreeMap` reference — groups in first-seen order,
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
            let aggs = vec![
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
            let phase = |rows: &[Row], width: usize, phase: Phase| with_context(1, |ctx| {
                let input = block(width, rows);
                let keys = match phase {
                    Phase::Final => input.columns()[..group.len()].to_vec(),
                    _ => evaluate_all(&group, &input, ctx).unwrap(),
                };
                aggregate_block(&input, keys, &aggs, phase, ctx).unwrap().to_rows()
            });
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
            for (got, want) in merged.iter().zip(&reference) {
                // Floats were added in a different association; compare loosely.
                prop_assert_eq!(&got[..group.len() + 1], &want[..group.len() + 1]);
                prop_assert!((got[group.len() + 1].as_f64().unwrap() - want[group.len() + 1].as_f64().unwrap()).abs() < 1e-9);
                prop_assert_eq!(&got[group.len() + 2..], &want[group.len() + 2..]);
            }
        }

        /// Set operations against their definitions over `Value`'s `Eq`.
        #[test]
        fn set_operations_equal_reference(l in rows(), r in rows()) {
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
                    let data = Partitioned::from_rows(key_schema(), rows.clone(), None, 3);
                    let keys = if two_columns { vec![col(0), col(1)] } else { vec![col(1)] };
                    let placed = exchange(data, &ExchangeMode::Hash(keys.clone()), usize::MAX, ctx).unwrap();
                    assert_eq!(placed.parts.len(), partitions);
                    for (i, part) in placed.parts.iter().enumerate() {
                        let key = evaluate_all(&keys, part, ctx).unwrap();
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
        }
    }

    // ---- wanted placement ----------------------------------------------------

    /// A payload cell: an integer, a float (NaN and `-0.0` among them) or
    /// NULL, drawn from `kinds` (`0..2`: integers, `2..4`: floats, `0..4`:
    /// both, so the column is `Mixed`).
    fn payload(kinds: std::ops::Range<u32>) -> impl Strategy<Value = Value> {
        (kinds, 0i64..8).prop_map(|(kind, n)| match (kind, n) {
            (_, 0) => Value::Null,
            (0 | 1, n) => Value::Int(n - 4),
            (_, 1) => Value::Float(f64::NAN),
            (_, 2) => Value::Float(-0.0),
            (_, n) => Value::Float(n as f64 * 0.37 - 1.0),
        })
    }

    /// `(g0, g1, int, float, mixed)` rows in 2–4 partitions, each row in a
    /// random one: group keys from `key_cell` (`2` beside `2.0`, `-0.0`,
    /// NaN, NULL, text) and a payload column of each kind.
    fn partitioned_rows() -> impl Strategy<Value = (usize, Vec<Vec<Row>>)> {
        let row = (
            key_cell(),
            key_cell(),
            payload(0..2),
            payload(2..4),
            payload(0..4),
        );
        let row = row.prop_map(|(a, b, i, f, m)| row_of([a, b, i, f, m]));
        let placed = proptest::collection::vec((0usize..4, row), 0..40);
        (2usize..5, placed).prop_map(|(parts, placed)| {
            let mut rows = vec![Vec::new(); parts];
            for (p, row) in placed {
                rows[p % parts].push(row);
            }
            (parts, rows)
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
        /// (SUM, AVG, MIN, MAX, COUNT over int, float and `Mixed` columns,
        /// COUNT(*), ARG_MIN), the single-phase path a DISTINCT aggregate
        /// takes, and DISTINCT rows each come out bit for bit alike lowered
        /// for either group key and lowered as a plain query, which
        /// exchanges on every key; lowered for a key, the result is placed
        /// on it.
        #[test]
        fn grouping_on_one_key_gives_every_group_the_same_row((parts, rows) in partitioned_rows()) {
            let schema = Arc::new(Schema::new(
                ["g0", "g1", "i", "f", "m"].map(|n| Field::new(n, DataType::Null)).to_vec(),
            ));
            let scan = LogicalPlan::TempScan { name: "t".into(), schema: Arc::clone(&schema) };
            let agg = |func, arg: Option<usize>, distinct| AggExpr {
                func, arg: arg.map(col), by: None, distinct, name: "a".into(),
            };
            let mut two_phase = vec![agg(AggFunc::CountStar, None, false)];
            for c in 2..5 {
                for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Count] {
                    two_phase.push(agg(func, Some(c), false));
                }
            }
            two_phase.push(AggExpr { by: Some(col(3)), ..agg(AggFunc::ArgMin, Some(4), false) });
            let single_phase = vec![
                agg(AggFunc::Count, Some(4), true),
                agg(AggFunc::Sum, Some(3), true),
                agg(AggFunc::Sum, Some(4), false),
                agg(AggFunc::Min, Some(3), false),
            ];
            let aggregate = |aggs: Vec<AggExpr>| {
                let fields = (0..2 + aggs.len()).map(|i| Field::new(format!("o{i}"), DataType::Null));
                LogicalPlan::Aggregate {
                    input: Box::new(scan.clone()),
                    group: vec![col(0), col(1)],
                    aggs,
                    schema: Arc::new(Schema::new(fields.collect())),
                }
            };
            let plans = [
                aggregate(two_phase),
                aggregate(single_phase),
                LogicalPlan::Distinct { input: Box::new(scan.clone()) },
            ];
            with_context(parts, |ctx| {
                let parts = rows.iter().map(|rows| block(5, rows)).collect();
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
            let key = evaluate_all(keys, part, ctx).unwrap();
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
            let project = |exprs: Vec<PlanExpr>| PhysicalPlan::Project {
                input: temp("t"),
                exprs,
                schema: int_schema(),
            };
            // Kept: a scan, a filter, a projection that moves the key.
            assert!(!hashed_again(*temp("t"), &on(0), ctx));
            let predicate = col(1).binary(BinaryOp::Lt, PlanExpr::literal(50i64));
            let filter = PhysicalPlan::Filter {
                input: temp("t"),
                predicate,
            };
            assert!(!hashed_again(filter, &on(0), ctx));
            assert!(!hashed_again(project(vec![col(1), col(0)]), &on(1), ctx));
            // Dropped: a computed or cast key, rows dealt anew for another
            // partition count, keys named in another order.
            let plus_zero = col(0).binary(BinaryOp::Plus, PlanExpr::literal(0i64));
            assert!(hashed_again(project(vec![plus_zero, col(1)]), &on(0), ctx));
            let text = PlanExpr::Cast {
                expr: Box::new(col(0)),
                to: DataType::Text,
            };
            assert!(hashed_again(project(vec![text, col(1)]), &on(0), ctx));
            assert!(hashed_again(*temp("t3"), &on(0), ctx));
            let pair = ExchangeMode::Hash(vec![col(0), col(1)]);
            let on_pair = exchange(placed(7, 4), &pair, usize::MAX, ctx).unwrap();
            assert_eq!(on_pair.placed_on.columns(), [0, 1]);
            ctx.registry.put("t01", on_pair);
            assert!(!hashed_again(*temp("t01"), &[col(0), col(1)], ctx));
            assert!(hashed_again(*temp("t01"), &[col(1), col(0)], ctx));
            // `t` joined to `u` on the key, emitting (t.v, t.k, u.k): an
            // inner or left join keeps `t`'s placement, on column 1.
            for (join_type, kept) in [
                (JoinType::Inner, true),
                (JoinType::Left, true),
                (JoinType::Right, false),
                (JoinType::Full, false),
            ] {
                let join = PhysicalPlan::HashJoin {
                    left: temp("t"),
                    right: temp("u"),
                    join_type,
                    left_keys: vec![col(0)],
                    right_keys: vec![col(0)],
                    residual: None,
                    columns: Some(vec![1, 0, 2]),
                    cached: false,
                    schema: key_schema(),
                };
                assert_eq!(hashed_again(join, &on(1), ctx), !kept, "{join_type}");
            }
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
            assert_eq!(ctx.stats.rows_evaluated_by_row.get(), 0);
        });
    }
}
