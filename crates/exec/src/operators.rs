//! Evaluation of physical operator trees over partitioned row sets.
//!
//! Every operator consumes and produces a [`Partitioned`] (one immutable
//! row vector per virtual MPP worker). Per-partition work runs in
//! parallel when `EngineConfig::parallel_partitions` is set — as tasks on
//! the database's persistent [`WorkerPool`](crate::WorkerPool), the only
//! parallel path, so no operator ever spawns a thread. The default is
//! sequential execution for determinism.

use std::borrow::Cow;
use std::sync::Arc;

use spinner_common::memory::RegionKind;
use spinner_common::profile::SpanKind;
use spinner_common::{Error, FaultSite, Result, Row, Value};
use spinner_plan::{AggExpr, JoinType, PlanExpr, SetOpKind, SortKey};
use spinner_storage::Partitioned;

use crate::aggregate::Accumulator;
use crate::cache::CachedBuild;
use crate::executor::StatementContext;
use crate::keys::{cells, hash_key, key_matches, load_key, JoinTable, Key, KeyIndex, RowIndex};
use crate::physical::{partition_for_key, ExchangeMode, PhysicalPlan};
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
            let snapshot = ctx.catalog.get(table)?.snapshot();
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
        PhysicalPlan::Values { rows, .. } => {
            let out = rows
                .iter()
                .map(|exprs| project_row(exprs, &[]))
                .collect::<Result<_>>()?;
            Ok(in_partition_zero(plan.schema(), out, ctx))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            let out = unary_map(&data, ctx, |rows| {
                rows.iter().map(|r| project_row(exprs, r)).collect()
            })?;
            Ok(Partitioned {
                schema: schema.clone(),
                parts: out,
            })
        }
        PhysicalPlan::Filter { input, predicate } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let out = unary_map(&data, ctx, |rows| {
                let mut result = Vec::new();
                for r in rows {
                    if predicate.matches(r)? {
                        result.push(r.clone());
                    }
                }
                Ok(result)
            })?;
            Ok(Partitioned { schema, parts: out })
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
            schema,
        } => {
            let l = execute(left, ctx)?;
            let join = HashJoinSpec {
                join_type: *join_type,
                left_keys,
                right_keys,
                residual: residual.as_ref(),
                lwidth: l.schema.len(),
                rwidth: right.schema().len(),
            };
            // A loop-invariant build side (hash repartition of a hoisted
            // §V-A common result) is built once per temp identity and
            // re-probed on every later iteration.
            if ctx.config.join_state_cache {
                if let Some(name) = right.invariant_build_name() {
                    return Ok(Partitioned {
                        schema: schema.clone(),
                        parts: cached_hash_join(&l, right, name, &join, ctx)?,
                    });
                }
            }
            let r = execute(right, ctx)?;
            ctx.stats.joins_executed.add(1);
            let out = with_transient_tracking(
                ctx,
                "hash join build",
                RegionKind::HashJoinBuild,
                r.estimated_bytes(),
                || binary_map(&l, &r, ctx, |lrows, rrows| join.run(lrows, rrows)),
            )?;
            Ok(Partitioned {
                schema: schema.clone(),
                parts: out,
            })
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            join_type,
            residual,
            schema,
        } => {
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            ctx.stats.joins_executed.add(1);
            let (lwidth, rwidth) = (l.schema.len(), r.schema.len());
            // Inputs were gathered to partition 0 by the planner.
            let lrows = gather_rows(l, usize::MAX, ctx);
            let rrows = gather_rows(r, usize::MAX, ctx);
            let joined = nested_loop_join(
                &lrows,
                &rrows,
                *join_type,
                residual.as_ref(),
                lwidth,
                rwidth,
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
                aggregate_partitions(&data, "hash aggregate", schema, ctx, |rows| {
                    grouped_aggregate_partition(rows, group, aggs)
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
            aggregate_partitions(&data, "partial aggregate", schema, ctx, |rows| {
                partial_aggregate_partition(rows, group, aggs)
            })
        }
        PhysicalPlan::AggregateFinal {
            input,
            group_len,
            aggs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            aggregate_partitions(&data, "final aggregate", schema, ctx, |rows| {
                final_aggregate_partition(rows, *group_len, aggs)
            })
        }
        PhysicalPlan::Distinct { input } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let out = unary_map(&data, ctx, |rows| {
                set_op_partition(rows, &[], SetOpKind::Union, false)
            })?;
            Ok(Partitioned { schema, parts: out })
        }
        PhysicalPlan::Sort { input, keys } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let mut rows = gather_rows(data, usize::MAX, ctx);
            sort_rows(&mut rows, keys)?;
            Ok(in_partition_zero(schema, rows, ctx))
        }
        PhysicalPlan::Limit { input, n } => {
            // The first `n` rows in partition order, and no row past them.
            let n = usize::try_from(*n).unwrap_or(usize::MAX);
            let data = execute_first(input, n, ctx)?;
            let schema = data.schema.clone();
            Ok(in_partition_zero(schema, gather_rows(data, n, ctx), ctx))
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
            let out = binary_map(&l, &r, ctx, |lrows, rrows| {
                set_op_partition(lrows, rrows, *op, *all)
            })?;
            Ok(Partitioned {
                schema: schema.clone(),
                parts: out,
            })
        }
    }
}

/// Bring a row set to exactly `parts` partitions, preserving data. Used at
/// scan boundaries when a stored result was partitioned under a different
/// configuration.
fn normalize_partitions(
    data: Partitioned,
    parts: usize,
    schema: spinner_common::SchemaRef,
) -> Partitioned {
    if data.parts.len() == parts {
        return Partitioned {
            schema,
            parts: data.parts,
        };
    }
    let rows = data.gather();
    let buckets = spinner_storage::hash_partition(rows, None, parts);
    Partitioned {
        schema,
        parts: buckets.into_iter().map(Arc::new).collect(),
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
    f: impl Fn() -> Result<Vec<Row>>,
) -> Result<Vec<Row>> {
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

/// Shared scheduling driver for [`unary_map`]/[`binary_map`]: run
/// `work(i)` for every partition index `0..count` and collect the
/// results.
///
/// Scheduling policy:
/// - no worker pool (serial mode), or fewer than two *occupied*
///   partitions: everything runs inline on the coordinator, in partition
///   order — deterministic, zero threads;
/// - otherwise: one pool task per occupied partition (`pool_tasks`
///   counts them; no threads are spawned).
///
/// Empty partitions never get a pool task — their closures run inline on
/// the coordinator after the parallel batch. They still go through `work`
/// (and therefore [`run_partition`]), so fault-injection hit counts and
/// retry accounting are identical in every mode.
fn map_partitions(
    ctx: &StatementContext<'_>,
    count: usize,
    is_empty: &dyn Fn(usize) -> bool,
    work: &(dyn Fn(usize) -> Result<Vec<Row>> + Sync),
) -> Result<Vec<Arc<Vec<Row>>>> {
    let occupied: Vec<usize> = (0..count).filter(|&i| !is_empty(i)).collect();
    let Some(pool) = ctx.pool.filter(|_| occupied.len() > 1) else {
        return (0..count).map(|i| work(i).map(Arc::new)).collect();
    };
    let mut results: Vec<Option<Result<Vec<Row>>>> = (0..count).map(|_| None).collect();
    ctx.stats.pool_tasks.add(occupied.len() as u64);
    let outcomes = pool.scope(occupied.iter().map(|&i| move || work(i)).collect())?;
    for (&i, outcome) in occupied.iter().zip(outcomes) {
        results[i] = Some(outcome.unwrap_or_else(|payload| {
            // Unreachable in practice (run_partition catches panics
            // inside the worker), kept as a second line of defense.
            ctx.guard.abort_workers();
            Err(Error::WorkerPanicked {
                partition: i,
                message: panic_message(payload),
            })
        }));
    }
    for (i, slot) in results.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(work(i));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every partition filled").map(Arc::new))
        .collect()
}

/// Run `f` over every partition of `input`, optionally in parallel.
/// Workers are panic-isolated; see [`run_partition`].
fn unary_map(
    input: &Partitioned,
    ctx: &StatementContext<'_>,
    f: impl Fn(&[Row]) -> Result<Vec<Row>> + Sync,
) -> Result<Vec<Arc<Vec<Row>>>> {
    unary_map_indexed(input, ctx, |_, rows| f(rows))
}

/// Like [`unary_map`], but `f` also receives the partition index so the
/// caller can pair each partition with co-indexed external state (the
/// cached join build).
fn unary_map_indexed(
    input: &Partitioned,
    ctx: &StatementContext<'_>,
    f: impl Fn(usize, &[Row]) -> Result<Vec<Row>> + Sync,
) -> Result<Vec<Arc<Vec<Row>>>> {
    map_partitions(
        ctx,
        input.parts.len(),
        &|i| input.parts[i].is_empty(),
        &|i| run_partition(ctx, i, || f(i, input.parts[i].as_slice())),
    )
}

/// Run `f` over co-indexed partition pairs, optionally in parallel.
/// Workers are panic-isolated; see [`run_partition`].
fn binary_map(
    l: &Partitioned,
    r: &Partitioned,
    ctx: &StatementContext<'_>,
    f: impl Fn(&[Row], &[Row]) -> Result<Vec<Row>> + Sync,
) -> Result<Vec<Arc<Vec<Row>>>> {
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
        &|i| run_partition(ctx, i, || f(l.parts[i].as_slice(), r.parts[i].as_slice())),
    )
}

/// One output row of a projection: `exprs` evaluated against `row`.
fn project_row(exprs: &[PlanExpr], row: &[Value]) -> Result<Row> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(e.evaluate(row)?);
    }
    Ok(out.into_boxed_slice())
}

/// `rows` as partition 0 of an otherwise empty row set — the layout every
/// gathering operator (sort, limit, global aggregate, …) produces.
fn in_partition_zero(
    schema: spinner_common::SchemaRef,
    rows: Vec<Row>,
    ctx: &StatementContext<'_>,
) -> Partitioned {
    let mut out = Partitioned::empty(schema, ctx.config.partitions);
    out.parts[0] = Arc::new(rows);
    out
}

/// The first `limit` rows of `data` in partition order as one vector
/// (`usize::MAX`: all of them). Rows move out of partitions `data`
/// uniquely owns — every operator's own output — and are cloned, and
/// counted as `rows_copied`, only out of shared snapshots.
pub(crate) fn gather_rows(data: Partitioned, limit: usize, ctx: &StatementContext<'_>) -> Vec<Row> {
    let (rows, copied) = data.take_rows(limit);
    ctx.stats.rows_copied.add(copied);
    rows
}

/// Account `moved` rows as having changed partition.
fn charge_rows_moved(ctx: &StatementContext<'_>, moved: u64) -> Result<()> {
    ctx.guard.charge_rows_moved(moved)?;
    ctx.stats.rows_moved.add(moved);
    ctx.tracer.note_rows_moved(moved);
    Ok(())
}

/// Where a hash exchange on `keys` sends each row of `data`, in partition
/// then row order, and how many rows that leaves in the wrong place.
/// Placement is [`partition_for_key`] — the rule stored tables and
/// checkpoints were distributed by — not the in-partition key hash.
fn route(data: &Partitioned, keys: &[PlanExpr], parts: usize) -> Result<(Vec<usize>, u64)> {
    let mut targets = Vec::with_capacity(data.total_rows());
    let mut moved = 0u64;
    let mut key = Key::new();
    for (src, part) in data.parts.iter().enumerate() {
        for row in part.iter() {
            load_key(&mut key, keys, row)?;
            let target = partition_for_key(cells(&key), parts)?;
            moved += u64::from(target != src);
            targets.push(target);
        }
    }
    Ok((targets, moved))
}

/// Redistribute rows according to `mode`, counting movement.
///
/// A hash or gather exchange has three outcomes. When no row changes
/// partition and the input already has the configured partition count, the
/// input is returned as it is — the same `Arc`s, nothing touched. Otherwise
/// rows are *moved* out of every partition this call uniquely owns (an
/// operator's output always is) and *copied* only out of shared ones (a
/// base-table or temp snapshot someone else still reads), which
/// `rows_copied` counts. A gather whose reader wants only the first `limit`
/// rows (`usize::MAX`: all) fetches — and counts as moved — no row past them.
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
            let (targets, moved) = route(&data, keys, parts)?;
            charge_rows_moved(ctx, moved)?;
            if already_placed(moved) {
                return Ok(data);
            }
            let mut sizes = vec![0usize; parts];
            for &target in &targets {
                sizes[target] += 1;
            }
            let mut buckets: Vec<Vec<Row>> = sizes.into_iter().map(Vec::with_capacity).collect();
            let mut targets = targets.into_iter();
            let mut copied = 0u64;
            for part in data.parts {
                match Arc::try_unwrap(part) {
                    Ok(rows) => {
                        for (row, target) in rows.into_iter().zip(&mut targets) {
                            buckets[target].push(row);
                        }
                    }
                    Err(shared) => {
                        copied += shared.len() as u64;
                        for (row, target) in shared.iter().zip(&mut targets) {
                            buckets[target].push(row.clone());
                        }
                    }
                }
            }
            ctx.stats.rows_copied.add(copied);
            Ok(Partitioned {
                schema,
                parts: buckets.into_iter().map(Arc::new).collect(),
            })
        }
        ExchangeMode::Gather => {
            let wanted = data.total_rows().min(limit);
            let moved = wanted.saturating_sub(data.parts.first().map_or(0, |p| p.len())) as u64;
            charge_rows_moved(ctx, moved)?;
            if already_placed(moved) {
                return Ok(data);
            }
            let rows = gather_rows(data, limit, ctx);
            Ok(in_partition_zero(schema, rows, ctx))
        }
        ExchangeMode::Broadcast => {
            let rows = gather_rows(data, usize::MAX, ctx);
            let copies = rows.len() as u64 * (parts as u64).saturating_sub(1);
            ctx.guard.charge_rows_moved(copies)?;
            ctx.stats.rows_broadcast.add(copies);
            ctx.tracer.note_rows_moved(copies);
            let shared = Arc::new(rows);
            Ok(Partitioned {
                schema,
                parts: (0..parts).map(|_| Arc::clone(&shared)).collect(),
            })
        }
    }
}

fn combine_rows(left: &[Value], right: &[Value]) -> Row {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out.into_boxed_slice()
}

/// Everything a hash join knows besides its input rows. `lwidth`/`rwidth`
/// are the schema widths, needed to pad outer-join rows when a partition
/// is empty.
struct HashJoinSpec<'a> {
    join_type: JoinType,
    left_keys: &'a [PlanExpr],
    right_keys: &'a [PlanExpr],
    residual: Option<&'a PlanExpr>,
    lwidth: usize,
    rwidth: usize,
}

impl HashJoinSpec<'_> {
    /// Hash join of one co-partitioned pair.
    fn run(&self, lrows: &[Row], rrows: &[Row]) -> Result<Vec<Row>> {
        self.probe(lrows, rrows, &JoinTable::build(rrows, self.right_keys)?)
    }

    /// Probe one partition against the prebuilt index over `rrows`.
    /// Output order is probe row by probe row, each with its matches in
    /// build-row order, then the unmatched build rows. The `matched_right`
    /// bookkeeping for Right/Full joins is per-call state, so a build
    /// shared across iterations by the join-state cache stays read-only.
    fn probe(&self, lrows: &[Row], rrows: &[Row], table: &JoinTable) -> Result<Vec<Row>> {
        let mut matched_right = vec![false; rrows.len()];
        let left_nulls = vec![Value::Null; self.lwidth];
        let right_nulls = vec![Value::Null; self.rwidth];
        let mut key = Key::new();
        let mut out = Vec::with_capacity(lrows.len());
        for lrow in lrows {
            load_key(&mut key, self.left_keys, lrow)?;
            let mut found = false;
            // NULL keys never match; the build side left its own out.
            if !key.iter().any(|cell| cell.is_null()) {
                for ri in table.candidates(hash_key(cells(&key))) {
                    if !key_matches(self.right_keys, &rrows[ri], &key)? {
                        continue;
                    }
                    let combined = combine_rows(lrow, &rrows[ri]);
                    let keep = match self.residual {
                        Some(p) => p.matches(&combined)?,
                        None => true,
                    };
                    if keep {
                        found = true;
                        matched_right[ri] = true;
                        out.push(combined);
                    }
                }
            }
            if !found && matches!(self.join_type, JoinType::Left | JoinType::Full) {
                out.push(combine_rows(lrow, &right_nulls));
            }
        }
        if matches!(self.join_type, JoinType::Right | JoinType::Full) {
            for (i, rrow) in rrows.iter().enumerate() {
                if !matched_right[i] {
                    out.push(combine_rows(&left_nulls, rrow));
                }
            }
        }
        Ok(out)
    }
}

/// Hash join against a loop-invariant build side, through the
/// [`JoinStateCache`](crate::JoinStateCache).
///
/// On a hit (`join_builds_reused`) the right subtree is not executed at
/// all — no temp scan, no exchange, no re-hash; the probe runs against
/// the cached partitioned build. On a miss (`join_builds`) the right
/// subtree executes once, the per-partition key indexes are built under
/// pinned transient tracking, and the result is cached as an evictable
/// `join_build:<name>` region keyed by the source temp's buffer identity.
fn cached_hash_join(
    l: &Partitioned,
    right: &PhysicalPlan,
    name: &str,
    join: &HashJoinSpec<'_>,
    ctx: &StatementContext<'_>,
) -> Result<Vec<Arc<Vec<Row>>>> {
    ctx.stats.joins_executed.add(1);
    let entry: Arc<CachedBuild> = match ctx.join_cache.lookup(name, &ctx.registry) {
        Some(entry) => {
            ctx.stats.join_builds_reused.add(1);
            entry
        }
        None => {
            let r = execute(right, ctx)?;
            let tables = with_transient_tracking(
                ctx,
                "hash join build",
                RegionKind::HashJoinBuild,
                r.estimated_bytes(),
                || {
                    r.parts
                        .iter()
                        .map(|p| JoinTable::build(p, join.right_keys))
                        .collect::<Result<Vec<JoinTable>>>()
                },
            )?;
            ctx.stats.join_builds.add(1);
            ctx.join_cache
                .insert(name, r, tables, &ctx.registry, ctx.spill.as_ref())
        }
    };
    if entry.build.parts.len() != l.parts.len() {
        return Err(Error::execution(format!(
            "partition count mismatch: {} vs {}",
            l.parts.len(),
            entry.build.parts.len()
        )));
    }
    let entry_ref = &entry;
    unary_map_indexed(l, ctx, |i, lrows| {
        join.probe(lrows, &entry_ref.build.parts[i], &entry_ref.tables[i])
    })
}

/// Nested-loop join over gathered inputs.
fn nested_loop_join(
    lrows: &[Row],
    rrows: &[Row],
    join_type: JoinType,
    residual: Option<&PlanExpr>,
    lwidth: usize,
    rwidth: usize,
) -> Result<Vec<Row>> {
    let mut matched_right = vec![false; rrows.len()];
    let (left_nulls, right_nulls) = (vec![Value::Null; lwidth], vec![Value::Null; rwidth]);
    let mut out = Vec::new();
    for lrow in lrows {
        let mut found = false;
        for (ri, rrow) in rrows.iter().enumerate() {
            let combined = combine_rows(lrow, rrow);
            let keep = match residual {
                Some(p) => p.matches(&combined)?,
                None => true,
            };
            if keep {
                found = true;
                matched_right[ri] = true;
                out.push(combined);
            }
        }
        if !found && matches!(join_type, JoinType::Left | JoinType::Full) {
            out.push(combine_rows(lrow, &right_nulls));
        }
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (ri, rrow) in rrows.iter().enumerate() {
            if !matched_right[ri] {
                out.push(combine_rows(&left_nulls, rrow));
            }
        }
    }
    Ok(out)
}

/// Evaluate one aggregate's argument(s) against a row and feed the
/// accumulator: two-argument aggregates (ARG_MIN/ARG_MAX) evaluate both
/// the value and the ordering key, everything else the single argument
/// (`Value::Null` for `COUNT(*)`, which ignores its input). Arguments are
/// read in place; the accumulator clones what it keeps.
fn update_accumulator(agg: &AggExpr, acc: &mut Accumulator, row: &Row) -> Result<()> {
    match (&agg.arg, &agg.by) {
        (Some(val), Some(key)) => {
            acc.update_pair(&*val.evaluate_ref(row)?, &*key.evaluate_ref(row)?)
        }
        (Some(val), None) => acc.update(&*val.evaluate_ref(row)?),
        (None, _) => acc.update(&Value::Null),
    }
}

fn update_accumulators(aggs: &[AggExpr], accs: &mut [Accumulator], row: &Row) -> Result<()> {
    for (agg, acc) in aggs.iter().zip(accs) {
        update_accumulator(agg, acc, row)?;
    }
    Ok(())
}

/// Run one aggregation phase over every partition of `data`, its groups
/// tracked as pinned hash-aggregate state while it runs.
fn aggregate_partitions(
    data: &Partitioned,
    label: &str,
    schema: &spinner_common::SchemaRef,
    ctx: &StatementContext<'_>,
    phase: impl Fn(&[Row]) -> Result<Vec<Row>> + Sync,
) -> Result<Partitioned> {
    let parts = with_transient_tracking(
        ctx,
        label,
        RegionKind::HashAggregate,
        data.estimated_bytes(),
        || unary_map(data, ctx, phase),
    )?;
    Ok(Partitioned {
        schema: schema.clone(),
        parts,
    })
}

/// The group-lookup loop behind all three aggregation phases.
///
/// `load_group_key` puts a row's group key (`key_width` cells) into the
/// reused buffer; the row's group is looked up by that key — or opened,
/// in first-seen order, which is the output order — and `feed` folds the
/// row into the group's accumulators. Group keys and accumulators live in
/// two flat vectors (stride `key_width` / `aggs.len()`), and each group
/// becomes one output row of `row_width` cells: its key, then whatever
/// `emit` writes per accumulator.
fn aggregate_partition<'a>(
    rows: &'a [Row],
    aggs: &[AggExpr],
    (key_width, row_width): (usize, usize),
    load_group_key: impl Fn(&mut Key<'a>, &'a Row) -> Result<()>,
    feed: impl Fn(&mut [Accumulator], &Row) -> Result<()>,
    emit: impl Fn(Accumulator, &mut Vec<Value>),
) -> Result<Vec<Row>> {
    let mut index = KeyIndex::with_capacity(rows.len());
    let mut group_keys: Vec<Value> = Vec::new();
    let mut accs: Vec<Accumulator> = Vec::new();
    let mut key = Key::new();
    for row in rows {
        load_group_key(&mut key, row)?;
        let hash = hash_key(cells(&key));
        let known = index.candidates(hash).find(|&g| {
            group_keys[g * key_width..][..key_width]
                .iter()
                .eq(cells(&key))
        });
        let group = match known {
            Some(group) => group,
            None => {
                group_keys.extend(key.drain(..).map(Cow::into_owned));
                accs.extend(aggs.iter().map(Accumulator::new));
                index.insert(hash)?
            }
        };
        feed(&mut accs[group * aggs.len()..][..aggs.len()], row)?;
    }
    let (mut group_keys, mut accs) = (group_keys.into_iter(), accs.into_iter());
    let mut out = Vec::with_capacity(index.len());
    for _ in 0..index.len() {
        let mut row = Vec::with_capacity(row_width);
        row.extend(group_keys.by_ref().take(key_width));
        for acc in accs.by_ref().take(aggs.len()) {
            emit(acc, &mut row);
        }
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// Grouped aggregation of one (already key-exchanged) partition.
fn grouped_aggregate_partition(
    rows: &[Row],
    group: &[PlanExpr],
    aggs: &[AggExpr],
) -> Result<Vec<Row>> {
    aggregate_partition(
        rows,
        aggs,
        (group.len(), group.len() + aggs.len()),
        |key, row| load_key(key, group, row),
        |accs, row| update_accumulators(aggs, accs, row),
        |acc, out| out.push(acc.finish()),
    )
}

/// Cells the partial states of `aggs` occupy in a partial-aggregation row.
fn state_width(aggs: &[AggExpr]) -> usize {
    aggs.iter().map(|a| Accumulator::state_width(a.func)).sum()
}

/// Phase 1 of two-phase aggregation: aggregate one partition locally and
/// emit `[group keys..., partial states...]` rows.
fn partial_aggregate_partition(
    rows: &[Row],
    group: &[PlanExpr],
    aggs: &[AggExpr],
) -> Result<Vec<Row>> {
    aggregate_partition(
        rows,
        aggs,
        (group.len(), group.len() + state_width(aggs)),
        |key, row| load_key(key, group, row),
        |accs, row| update_accumulators(aggs, accs, row),
        Accumulator::into_state,
    )
}

/// Phase 2 of two-phase aggregation: merge partial-state rows of one
/// (key-exchanged) partition into final results.
fn final_aggregate_partition(rows: &[Row], group_len: usize, aggs: &[AggExpr]) -> Result<Vec<Row>> {
    aggregate_partition(
        rows,
        aggs,
        (group_len, group_len + aggs.len()),
        |key, row| {
            key.clear();
            key.extend(row[..group_len].iter().map(Cow::Borrowed));
            Ok(())
        },
        |accs, row| {
            let mut offset = group_len;
            for (agg, acc) in aggs.iter().zip(accs) {
                let width = Accumulator::state_width(agg.func);
                acc.merge_state(&row[offset..offset + width])?;
                offset += width;
            }
            Ok(())
        },
        |acc, out| out.push(acc.finish()),
    )
}

/// Global aggregation: partial accumulators per partition, merged, one
/// output row in partition 0 (even over empty input).
fn global_aggregate(
    data: &Partitioned,
    aggs: &[AggExpr],
    schema: spinner_common::SchemaRef,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    let mut final_accs: Vec<Accumulator> = aggs.iter().map(Accumulator::new).collect();
    for part in &data.parts {
        let mut partial: Vec<Accumulator> = aggs.iter().map(Accumulator::new).collect();
        for row in part.iter() {
            update_accumulators(aggs, &mut partial, row)?;
        }
        for (f, p) in final_accs.iter_mut().zip(partial) {
            f.merge(p)?;
        }
    }
    let row: Vec<Value> = final_accs.into_iter().map(Accumulator::finish).collect();
    Ok(in_partition_zero(schema, vec![row.into_boxed_slice()], ctx))
}

/// Set operations over one co-partitioned pair (`DISTINCT` is the union
/// of a partition with nothing). Kept rows come out in left-then-right
/// input order; a distinct variant keeps a row's first occurrence.
fn set_op_partition<'a>(
    lrows: &'a [Row],
    rrows: &'a [Row],
    op: SetOpKind,
    all: bool,
) -> Result<Vec<Row>> {
    if op == SetOpKind::Union && all {
        return Ok([lrows, rrows].concat());
    }
    let mut out = Vec::new();
    let mut seen: RowIndex<&Row> = RowIndex::by_row(if all { 0 } else { lrows.len() });
    let mut first_occurrence = |row: &'a Row| Ok::<_, Error>(all || seen.insert(row, || row)?.1);
    if op == SetOpKind::Union {
        for row in lrows.iter().chain(rrows) {
            if first_occurrence(row)? {
                out.push(row.clone());
            }
        }
        return Ok(out);
    }
    // EXCEPT keeps the left rows the right side lacks, INTERSECT those it
    // has; under ALL each right occurrence answers for one left row.
    let mut right: RowIndex<&Row> = RowIndex::by_row(rrows.len());
    let mut occurrences: Vec<usize> = Vec::new();
    for row in rrows {
        match right.insert(row, || row)? {
            (_, true) => occurrences.push(1),
            (id, false) => occurrences[id] += 1,
        }
    }
    for row in lrows {
        let in_right = match right.find(row) {
            Some(id) if all && occurrences[id] == 0 => false,
            Some(id) => {
                occurrences[id] -= usize::from(all);
                true
            }
            None => false,
        };
        if in_right == (op == SetOpKind::Intersect) && first_occurrence(row)? {
            out.push(row.clone());
        }
    }
    Ok(out)
}

/// How `keys` order two rows' precomputed sort-key cells.
fn compare_sort_keys(
    a: &[Cow<'_, Value>],
    b: &[Cow<'_, Value>],
    keys: &[SortKey],
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for ((a, b), key) in a.iter().zip(b).zip(keys) {
        let nulls = if key.nulls_first {
            Ordering::Less
        } else {
            Ordering::Greater
        };
        let ord = match (a.is_null(), b.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => nulls,
            (false, true) => nulls.reverse(),
            (false, false) if key.asc => a.cmp_total(b),
            (false, false) => a.cmp_total(b).reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort rows in place by the given keys (stable).
pub fn sort_rows(rows: &mut [Row], keys: &[SortKey]) -> Result<()> {
    let width = keys.len();
    let order: Vec<usize> = {
        // Every sort key up front, in one flat vector (stride `width`):
        // expressions are not re-evaluated in the comparator, evaluation
        // errors surface before sorting, and column keys stay borrowed.
        let mut sort_keys: Vec<Cow<'_, Value>> = Vec::with_capacity(rows.len() * width);
        for row in rows.iter() {
            for key in keys {
                sort_keys.push(key.expr.evaluate_ref(row)?);
            }
        }
        let of = |i: usize| &sort_keys[i * width..][..width];
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| compare_sort_keys(of(a), of(b), keys));
        order
    };
    // Rows move into place; none is cloned.
    let sorted: Vec<Row> = order
        .into_iter()
        .map(|i| std::mem::take(&mut rows[i]))
        .collect();
    for (slot, row) in rows.iter_mut().zip(sorted) {
        *slot = row;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spinner_common::{row_of, DataType, EngineConfig, Field, QueryGuard, Schema, SchemaRef};
    use spinner_plan::expr::BinaryOp;
    use spinner_plan::AggFunc;
    use spinner_storage::Catalog;
    use std::collections::BTreeMap;

    use crate::fault::FaultInjector;

    fn col(i: usize) -> PlanExpr {
        PlanExpr::column(i, format!("c{i}"))
    }

    fn hash_join(
        l: &[Row],
        r: &[Row],
        join_type: JoinType,
        keys: &[(usize, usize)],
        residual: Option<&PlanExpr>,
        (lwidth, rwidth): (usize, usize),
    ) -> Result<Vec<Row>> {
        let left_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.0)).collect();
        let right_keys: Vec<PlanExpr> = keys.iter().map(|k| col(k.1)).collect();
        HashJoinSpec {
            join_type,
            left_keys: &left_keys,
            right_keys: &right_keys,
            residual,
            lwidth,
            rwidth,
        }
        .run(l, r)
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
        let mut rows = vec![
            row_of([Value::Int(1), Value::Text("x".into())]),
            row_of([Value::Null, Value::Text("y".into())]),
            row_of([Value::Int(3), Value::Text("z".into())]),
            row_of([Value::Float(1.0), Value::Text("w".into())]),
        ];
        let cells: Vec<*const Value> = rows.iter().map(|r| r.as_ptr()).collect();
        sort_rows(&mut rows, &[sort_key(col(0), false, false)]).unwrap();
        let second: Vec<&Value> = rows.iter().map(|r| &r[1]).collect();
        // 1 and 1.0 tie: the sort is stable, so "x" stays ahead of "w".
        assert_eq!(
            second,
            ["z", "x", "w", "y"]
                .map(Value::from)
                .iter()
                .collect::<Vec<_>>()
        );
        assert!(rows[3][0].is_null());
        // Rows moved into place: the same heap cells, none cloned.
        let mut after: Vec<*const Value> = rows.iter().map(|r| r.as_ptr()).collect();
        assert_eq!(after.len(), 4);
        after.sort();
        let mut before = cells;
        before.sort();
        assert_eq!(after, before);
        // Two keys, NULLs first, the second key computed and ascending.
        let negated = PlanExpr::literal(0i64).binary(BinaryOp::Minus, col(0));
        sort_rows(
            &mut rows,
            &[sort_key(col(0), true, true), sort_key(negated, true, true)],
        )
        .unwrap();
        assert!(rows[0][0].is_null());
        assert_eq!(rows[3][1], Value::from("z"));
        // A key that fails to evaluate fails the sort and leaves the rows.
        let snapshot = rows.clone();
        assert!(sort_rows(&mut rows, &[sort_key(col(9), true, true)]).is_err());
        assert_eq!(rows, snapshot);
    }

    #[test]
    fn nested_loop_left_join_pads() {
        let l = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        let r = vec![row_of([Value::Int(1), Value::Int(10)])];
        let pred = col(0).binary(BinaryOp::Eq, col(1));
        let out = nested_loop_join(&l, &r, JoinType::Left, Some(&pred), 1, 2).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[1][1].is_null()); // unmatched row padded
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let l = vec![row_of([Value::Null]), row_of([Value::Int(1)])];
        let r = vec![row_of([Value::Null]), row_of([Value::Int(1)])];
        let out = hash_join(&l, &r, JoinType::Inner, &[(0, 0)], None, (1, 1)).unwrap();
        assert_eq!(out, vec![row_of([Value::Int(1), Value::Int(1)])]);
        // Outer joins pad the NULL-keyed rows of their side instead.
        let out = hash_join(&l, &r, JoinType::Full, &[(0, 0)], None, (1, 1)).unwrap();
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
        let out = hash_join(&l, &r, JoinType::Inner, &keys, None, (2, 2)).unwrap();
        assert_eq!(out, vec![combine_rows(&l[1], &r[1])]);
    }

    #[test]
    fn hash_join_full_outer_emits_both_sides() {
        let l = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        let r = vec![row_of([Value::Int(2)]), row_of([Value::Int(3)])];
        let mut out = hash_join(&l, &r, JoinType::Full, &[(0, 0)], None, (1, 1)).unwrap();
        out.sort();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn except_all_is_bag_difference() {
        let l = vec![
            row_of([Value::Int(1)]),
            row_of([Value::Int(1)]),
            row_of([Value::Int(2)]),
        ];
        let r = vec![row_of([Value::Int(1)])];
        let out = set_op_partition(&l, &r, SetOpKind::Except, true).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn union_distinct_dedupes_across_sides() {
        let l = vec![row_of([Value::Int(1)])];
        let r = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        let out = set_op_partition(&l, &r, SetOpKind::Union, false).unwrap();
        assert_eq!(out.len(), 2);
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

    /// `(key, key, payload)` rows: few distinct keys, so both sides repeat.
    fn rows() -> impl Strategy<Value = Vec<Row>> {
        let row =
            (key_cell(), key_cell(), 0i64..4).prop_map(|(a, b, p)| row_of([a, b, Value::Int(p)]));
        proptest::collection::vec(row, 0..24)
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

        /// The hash join is the nested-loop join over `keys equal AND
        /// residual`, row for row: probe rows in order, each with its
        /// matches in build order, unmatched build rows last.
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
            let keys: &[(usize, usize)] = if two_columns { &[(0, 0), (1, 1)] } else { &[(0, 1)] };
            let residual = with_residual.then(|| col(2).binary(BinaryOp::LtEq, col(5)));
            let mut predicate = residual.clone();
            for &(lk, rk) in keys {
                let eq = col(lk).binary(BinaryOp::Eq, col(3 + rk));
                predicate = Some(match predicate {
                    Some(p) => eq.binary(BinaryOp::And, p),
                    None => eq,
                });
            }
            let hashed = hash_join(&l, &r, join_type, keys, residual.as_ref(), (3, 3)).unwrap();
            let looped = nested_loop_join(&l, &r, join_type, predicate.as_ref(), 3, 3).unwrap();
            prop_assert_eq!(exact(&hashed), exact(&looped));
            prop_assert_eq!(sorted(hashed), sorted(looped));
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
            ];
            // Reference: first-seen order kept beside an ordered map.
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut groups: BTreeMap<Vec<Value>, (i64, f64, i64)> = BTreeMap::new();
            for row in &rows {
                let key: Vec<Value> = group.iter().map(|g| g.evaluate(row).unwrap()).collect();
                let payload = row[2].as_i64().unwrap();
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (0, 0.0, i64::MAX)
                });
                entry.0 += 1;
                entry.1 = if entry.0 == 1 { payload as f64 * 0.1 } else { entry.1 + payload as f64 * 0.1 };
                entry.2 = entry.2.min(payload);
            }
            let reference: Vec<Row> = order.iter().map(|key| {
                let (n, sum, min) = groups[key];
                let total: i64 = rows.iter()
                    .filter(|r| group.iter().map(|g| g.evaluate(r).unwrap()).collect::<Vec<_>>() == *key)
                    .map(|r| r[2].as_i64().unwrap()).sum();
                let mut row = key.clone();
                row.extend([Value::Int(n), Value::Float(sum), Value::Int(min), Value::Float(total as f64 / n as f64)]);
                row.into_boxed_slice()
            }).collect();
            let grouped = grouped_aggregate_partition(&rows, &group, &aggs).unwrap();
            prop_assert_eq!(exact(&grouped), exact(&reference));
            // Two-phase: partial states of two chunks, merged by the final phase.
            let (head, tail) = rows.split_at(split.min(rows.len()));
            let mut partial = partial_aggregate_partition(head, &group, &aggs).unwrap();
            partial.extend(partial_aggregate_partition(tail, &group, &aggs).unwrap());
            prop_assert!(partial.iter().all(|r| r.len() == group.len() + 5));
            let merged = final_aggregate_partition(&partial, group.len(), &aggs).unwrap();
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
                let got = set_op_partition(&l, &r, op, all).unwrap();
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
            prop_assert_eq!(set_op_partition(&l, &r, SetOpKind::Union, true).unwrap(), [l, r].concat());
        }
    }

    // ---- exchange ----------------------------------------------------------

    fn int_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]))
    }

    fn with_context(partitions: usize, f: impl FnOnce(&StatementContext<'_>)) {
        let catalog = Catalog::new();
        let config = EngineConfig::default().with_partitions(partitions);
        let guard = QueryGuard::unlimited();
        let faults = FaultInjector::disabled();
        let ctx = StatementContext::new(&catalog, &config, &guard, &faults, None, None);
        f(&ctx);
    }

    fn numbered(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| row_of([Value::Int(i % 7), Value::Int(i)]))
            .collect()
    }

    fn cell_addresses(data: &Partitioned) -> Vec<*const Value> {
        let mut cells: Vec<_> = data
            .parts
            .iter()
            .flat_map(|p| p.iter().map(|r| r.as_ptr()))
            .collect();
        cells.sort();
        cells
    }

    #[test]
    fn exchange_passes_through_moves_or_copies() {
        with_context(4, |ctx| {
            let on_key = ExchangeMode::Hash(vec![col(0)]);
            let counts = || {
                let s = ctx.stats.take();
                (s.rows_moved, s.rows_copied)
            };
            // Distributed round-robin, so a hash exchange has work to do.
            let scattered = Partitioned::from_rows(int_schema(), numbered(100), None, 4);
            let before = cell_addresses(&scattered);
            // Uniquely owned: rows move — same heap cells, nothing cloned.
            let placed = exchange(scattered, &on_key, usize::MAX, ctx).unwrap();
            let (moved, copied) = counts();
            assert!(moved > 0);
            assert_eq!(copied, 0);
            assert_eq!(cell_addresses(&placed), before);
            // Already placed: the very same partitions come back.
            let again = exchange(placed.clone(), &on_key, usize::MAX, ctx).unwrap();
            assert_eq!(counts(), (0, 0));
            assert!(again
                .parts
                .iter()
                .zip(&placed.parts)
                .all(|(a, b)| Arc::ptr_eq(a, b)));
            drop(again);
            // Shared (`placed` is still held here): rows are copied and
            // counted, and the source is intact.
            let on_value = ExchangeMode::Hash(vec![col(1)]);
            let snapshot = placed.gather();
            let reshuffled = exchange(placed.clone(), &on_value, usize::MAX, ctx).unwrap();
            let (moved, copied) = counts();
            assert!(moved > 0);
            assert_eq!(copied, 100);
            assert_eq!(placed.gather(), snapshot);
            assert!(cell_addresses(&reshuffled)
                .iter()
                .all(|c| !before.contains(c)));
            // A gather of rows already in partition 0 moves nothing either.
            let gathered = exchange(reshuffled, &ExchangeMode::Gather, usize::MAX, ctx).unwrap();
            assert_eq!(counts().1, 0, "uniquely owned: gathered by moving");
            let regathered =
                exchange(gathered.clone(), &ExchangeMode::Gather, usize::MAX, ctx).unwrap();
            assert_eq!(counts(), (0, 0));
            assert!(Arc::ptr_eq(&regathered.parts[0], &gathered.parts[0]));
        });
    }

    #[test]
    fn hash_then_gather_round_trips_the_multiset() {
        for partitions in [1, 2, 4] {
            with_context(partitions, |ctx| {
                let rows = numbered(50);
                // Stored under another partition count on purpose.
                let data = Partitioned::from_rows(int_schema(), rows.clone(), None, 3);
                let keys = vec![col(0), col(1)];
                let placed =
                    exchange(data, &ExchangeMode::Hash(keys.clone()), usize::MAX, ctx).unwrap();
                assert_eq!(placed.parts.len(), partitions);
                for (i, part) in placed.parts.iter().enumerate() {
                    for row in part.iter() {
                        assert_eq!(partition_for_key(&row[..], partitions).unwrap(), i);
                    }
                }
                let gathered = exchange(placed, &ExchangeMode::Gather, usize::MAX, ctx).unwrap();
                assert_eq!(gathered.parts.len(), partitions);
                assert!(gathered.parts[1..].iter().all(|p| p.is_empty()));
                assert_eq!(sorted(gathered.gather()), sorted(rows));
            });
        }
    }

    #[test]
    fn a_limit_copies_only_the_rows_it_keeps() {
        with_context(2, |ctx| {
            let counts = || {
                let s = ctx.stats.take();
                (s.rows_moved, s.rows_copied)
            };
            let shared = Partitioned::from_rows(int_schema(), numbered(100), None, 2);
            // The gather below a LIMIT 1 finds its row in partition 0 already.
            let gathered = exchange(shared.clone(), &ExchangeMode::Gather, 1, ctx).unwrap();
            assert_eq!(counts(), (0, 0));
            assert_eq!(
                gather_rows(gathered, 1, ctx),
                vec![shared.parts[0][0].clone()]
            );
            assert_eq!(counts(), (0, 1), "LIMIT 1 clones one row, not 100");
            // LIMIT 60 reaches 10 rows into partition 1 and no further.
            let gathered = exchange(shared.clone(), &ExchangeMode::Gather, 60, ctx).unwrap();
            assert_eq!(counts(), (10, 60));
            assert_eq!(gathered.parts[0][..], shared.gather()[..60]);
            assert_eq!(gather_rows(shared.clone(), 0, ctx), Vec::<Row>::new());
            assert_eq!(gather_rows(shared.clone(), 1000, ctx).len(), 100);
            assert_eq!(counts(), (0, 100));
        });
    }
}
