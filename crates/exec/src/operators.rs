//! Evaluation of physical operator trees over partitioned row sets.
//!
//! Every operator consumes and produces a [`Partitioned`] (one immutable
//! row vector per virtual MPP worker). Per-partition work runs in
//! parallel when `EngineConfig::parallel_partitions` is set — as tasks on
//! the database's persistent [`WorkerPool`](crate::WorkerPool), the only
//! parallel path, so no operator ever spawns a thread. The default is
//! sequential execution for determinism.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use spinner_common::memory::RegionKind;
use spinner_common::profile::SpanKind;
use spinner_common::{Error, FaultSite, Result, Row, Value};
use spinner_plan::{AggExpr, JoinType, PlanExpr, SetOpKind, SortKey};
use spinner_storage::Partitioned;

use crate::aggregate::Accumulator;
use crate::cache::{CachedBuild, JoinTable};
use crate::executor::StatementContext;
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
    // Operator batch boundary: every operator in the tree passes through
    // here, so cancellation and deadlines are honoured between operators
    // even when a single plan has no loop.
    ctx.guard.check()?;
    if !ctx.tracer.is_enabled() {
        return execute_inner(plan, ctx);
    }
    ctx.tracer.enter(SpanKind::Operator, plan.describe());
    match execute_inner(plan, ctx) {
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

fn execute_inner(plan: &PhysicalPlan, ctx: &StatementContext<'_>) -> Result<Partitioned> {
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
            let mut out: Vec<Row> = Vec::with_capacity(rows.len());
            for exprs in rows {
                let row: Vec<Value> = exprs
                    .iter()
                    .map(|e| e.evaluate(&[]))
                    .collect::<Result<_>>()?;
                out.push(row.into_boxed_slice());
            }
            let mut parts: Vec<Arc<Vec<Row>>> = (0..ctx.config.partitions)
                .map(|_| Arc::new(Vec::new()))
                .collect();
            parts[0] = Arc::new(out);
            Ok(Partitioned {
                schema: plan.schema(),
                parts,
            })
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            let out = unary_map(&data, ctx, |rows| {
                let mut result = Vec::with_capacity(rows.len());
                for r in rows {
                    let row: Vec<Value> =
                        exprs.iter().map(|e| e.evaluate(r)).collect::<Result<_>>()?;
                    result.push(row.into_boxed_slice());
                }
                Ok(result)
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
            exchange(data, mode, ctx)
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
            // A loop-invariant build side (hash repartition of a hoisted
            // §V-A common result) is built once per temp identity and
            // re-probed on every later iteration.
            if ctx.config.join_state_cache {
                if let Some(name) = right.invariant_build_name() {
                    let out = cached_hash_join(
                        &l,
                        right,
                        name,
                        *join_type,
                        left_keys,
                        right_keys,
                        residual.as_ref(),
                        ctx,
                    )?;
                    return Ok(Partitioned {
                        schema: schema.clone(),
                        parts: out,
                    });
                }
            }
            let r = execute(right, ctx)?;
            ctx.stats.joins_executed.add(1);
            let (lwidth, rwidth) = (l.schema.len(), r.schema.len());
            let out = with_transient_tracking(
                ctx,
                "hash join build",
                RegionKind::HashJoinBuild,
                r.estimated_bytes(),
                || {
                    binary_map(&l, &r, ctx, |lrows, rrows| {
                        hash_join_partition(
                            lrows,
                            rrows,
                            *join_type,
                            left_keys,
                            right_keys,
                            residual.as_ref(),
                            lwidth,
                            rwidth,
                        )
                    })
                },
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
            let lrows = l.gather();
            let rrows = r.gather();
            let joined = nested_loop_join(
                &lrows,
                &rrows,
                *join_type,
                residual.as_ref(),
                lwidth,
                rwidth,
            )?;
            let mut parts: Vec<Arc<Vec<Row>>> = (0..ctx.config.partitions)
                .map(|_| Arc::new(Vec::new()))
                .collect();
            parts[0] = Arc::new(joined);
            Ok(Partitioned {
                schema: schema.clone(),
                parts,
            })
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
                let out = with_transient_tracking(
                    ctx,
                    "hash aggregate",
                    RegionKind::HashAggregate,
                    data.estimated_bytes(),
                    || {
                        unary_map(&data, ctx, |rows| {
                            grouped_aggregate_partition(rows, group, aggs)
                        })
                    },
                )?;
                Ok(Partitioned {
                    schema: schema.clone(),
                    parts: out,
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
            let out = with_transient_tracking(
                ctx,
                "partial aggregate",
                RegionKind::HashAggregate,
                data.estimated_bytes(),
                || {
                    unary_map(&data, ctx, |rows| {
                        partial_aggregate_partition(rows, group, aggs)
                    })
                },
            )?;
            Ok(Partitioned {
                schema: schema.clone(),
                parts: out,
            })
        }
        PhysicalPlan::AggregateFinal {
            input,
            group_len,
            aggs,
            schema,
        } => {
            let data = execute(input, ctx)?;
            let out = with_transient_tracking(
                ctx,
                "final aggregate",
                RegionKind::HashAggregate,
                data.estimated_bytes(),
                || {
                    unary_map(&data, ctx, |rows| {
                        final_aggregate_partition(rows, *group_len, aggs)
                    })
                },
            )?;
            Ok(Partitioned {
                schema: schema.clone(),
                parts: out,
            })
        }
        PhysicalPlan::Distinct { input } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let out = unary_map(&data, ctx, |rows| {
                let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
                let mut result = Vec::new();
                for r in rows {
                    if seen.insert(r.clone()) {
                        result.push(r.clone());
                    }
                }
                Ok(result)
            })?;
            Ok(Partitioned { schema, parts: out })
        }
        PhysicalPlan::Sort { input, keys } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let mut rows = data.gather();
            sort_rows(&mut rows, keys)?;
            let mut parts: Vec<Arc<Vec<Row>>> = (0..ctx.config.partitions)
                .map(|_| Arc::new(Vec::new()))
                .collect();
            parts[0] = Arc::new(rows);
            Ok(Partitioned { schema, parts })
        }
        PhysicalPlan::Limit { input, n } => {
            let data = execute(input, ctx)?;
            let schema = data.schema.clone();
            let mut rows = data.gather();
            rows.truncate(*n as usize);
            let mut parts: Vec<Arc<Vec<Row>>> = (0..ctx.config.partitions)
                .map(|_| Arc::new(Vec::new()))
                .collect();
            parts[0] = Arc::new(rows);
            Ok(Partitioned { schema, parts })
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

/// Redistribute rows according to `mode`, counting movement.
pub fn exchange(
    data: Partitioned,
    mode: &ExchangeMode,
    ctx: &StatementContext<'_>,
) -> Result<Partitioned> {
    ctx.faults.hit(FaultSite::Exchange)?;
    let parts = ctx.config.partitions;
    let schema = data.schema.clone();
    match mode {
        ExchangeMode::Hash(keys) => {
            let mut buckets: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
            let mut moved = 0u64;
            for (src, part) in data.parts.iter().enumerate() {
                for row in part.iter() {
                    let key: Vec<Value> = keys
                        .iter()
                        .map(|k| k.evaluate(row))
                        .collect::<Result<_>>()?;
                    let target = partition_for_key(&key, parts)?;
                    if target != src {
                        moved += 1;
                    }
                    buckets[target].push(row.clone());
                }
            }
            ctx.guard.charge_rows_moved(moved)?;
            ctx.stats.rows_moved.add(moved);
            ctx.tracer.note_rows_moved(moved);
            Ok(Partitioned {
                schema,
                parts: buckets.into_iter().map(Arc::new).collect(),
            })
        }
        ExchangeMode::Gather => {
            let moved: u64 = data
                .parts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 0)
                .map(|(_, p)| p.len() as u64)
                .sum();
            ctx.guard.charge_rows_moved(moved)?;
            ctx.stats.rows_moved.add(moved);
            ctx.tracer.note_rows_moved(moved);
            let rows = data.gather();
            let mut out: Vec<Arc<Vec<Row>>> = (0..parts).map(|_| Arc::new(Vec::new())).collect();
            out[0] = Arc::new(rows);
            Ok(Partitioned { schema, parts: out })
        }
        ExchangeMode::Broadcast => {
            let rows = data.gather();
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

fn null_row(width: usize) -> Vec<Value> {
    vec![Value::Null; width]
}

/// Hash join of one co-partitioned pair. `lwidth`/`rwidth` are the schema
/// widths, needed to pad outer-join rows when a partition is empty.
#[allow(clippy::too_many_arguments)]
fn hash_join_partition(
    lrows: &[Row],
    rrows: &[Row],
    join_type: JoinType,
    left_keys: &[PlanExpr],
    right_keys: &[PlanExpr],
    residual: Option<&PlanExpr>,
    lwidth: usize,
    rwidth: usize,
) -> Result<Vec<Row>> {
    let table = build_join_table(rrows, right_keys)?;
    probe_join_partition(
        lrows, rrows, &table, join_type, left_keys, residual, lwidth, rwidth,
    )
}

/// Build-side hash table for one partition: join key → row indices into
/// `rrows`. NULL keys never participate in matches.
fn build_join_table(rrows: &[Row], right_keys: &[PlanExpr]) -> Result<JoinTable> {
    let mut table: JoinTable = HashMap::with_capacity(rrows.len());
    for (i, row) in rrows.iter().enumerate() {
        let key: Vec<Value> = right_keys
            .iter()
            .map(|k| k.evaluate(row))
            .collect::<Result<_>>()?;
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(i);
    }
    Ok(table)
}

/// Probe one partition against a prebuilt hash table over `rrows`. The
/// `matched_right` bookkeeping for Right/Full joins is per-call state, so
/// a build shared across iterations by the join-state cache stays
/// read-only.
#[allow(clippy::too_many_arguments)]
fn probe_join_partition(
    lrows: &[Row],
    rrows: &[Row],
    table: &JoinTable,
    join_type: JoinType,
    left_keys: &[PlanExpr],
    residual: Option<&PlanExpr>,
    lwidth: usize,
    rwidth: usize,
) -> Result<Vec<Row>> {
    let mut matched_right = vec![false; rrows.len()];
    let mut out = Vec::new();
    for lrow in lrows {
        let key: Vec<Value> = left_keys
            .iter()
            .map(|k| k.evaluate(lrow))
            .collect::<Result<_>>()?;
        let mut found = false;
        if !key.iter().any(Value::is_null) {
            if let Some(candidates) = table.get(&key) {
                for &ri in candidates {
                    let combined = combine_rows(lrow, &rrows[ri]);
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
            }
        }
        if !found && matches!(join_type, JoinType::Left | JoinType::Full) {
            out.push(combine_rows(lrow, &null_row(rwidth)));
        }
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (i, rrow) in rrows.iter().enumerate() {
            if !matched_right[i] {
                out.push(combine_rows(&null_row(lwidth), rrow));
            }
        }
    }
    Ok(out)
}

/// Hash join against a loop-invariant build side, through the
/// [`JoinStateCache`].
///
/// On a hit (`join_builds_reused`) the right subtree is not executed at
/// all — no temp scan, no exchange, no re-hash; the probe runs against
/// the cached partitioned build. On a miss (`join_builds`) the right
/// subtree executes once, the per-partition hash tables are built under
/// pinned transient tracking, and the result is cached as an evictable
/// `join_build:<name>` region keyed by the source temp's buffer identity.
#[allow(clippy::too_many_arguments)]
fn cached_hash_join(
    l: &Partitioned,
    right: &PhysicalPlan,
    name: &str,
    join_type: JoinType,
    left_keys: &[PlanExpr],
    right_keys: &[PlanExpr],
    residual: Option<&PlanExpr>,
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
                        .map(|p| build_join_table(p, right_keys))
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
    let (lwidth, rwidth) = (l.schema.len(), entry.build.schema.len());
    let entry_ref = &entry;
    unary_map_indexed(l, ctx, |i, lrows| {
        probe_join_partition(
            lrows,
            &entry_ref.build.parts[i],
            &entry_ref.tables[i],
            join_type,
            left_keys,
            residual,
            lwidth,
            rwidth,
        )
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
            out.push(combine_rows(lrow, &null_row(rwidth)));
        }
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (ri, rrow) in rrows.iter().enumerate() {
            if !matched_right[ri] {
                out.push(combine_rows(&null_row(lwidth), rrow));
            }
        }
    }
    Ok(out)
}

/// Evaluate one aggregate's argument(s) against a row and feed the
/// accumulator: two-argument aggregates (ARG_MIN/ARG_MAX) evaluate both
/// the value and the ordering key, everything else the single argument
/// (`Value::Null` for `COUNT(*)`, which ignores its input).
fn update_accumulator(agg: &AggExpr, acc: &mut Accumulator, row: &Row) -> Result<()> {
    match (&agg.arg, &agg.by) {
        (Some(val), Some(key)) => acc.update_pair(&val.evaluate(row)?, &key.evaluate(row)?),
        (Some(val), None) => acc.update(&val.evaluate(row)?),
        (None, _) => acc.update(&Value::Null),
    }
}

/// Grouped aggregation of one (already key-exchanged) partition.
fn grouped_aggregate_partition(
    rows: &[Row],
    group: &[PlanExpr],
    aggs: &[AggExpr],
) -> Result<Vec<Row>> {
    // Preserve first-seen group order for deterministic output.
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    for row in rows {
        let key: Vec<Value> = group
            .iter()
            .map(|g| g.evaluate(row))
            .collect::<Result<_>>()?;
        let slot = match index.get(&key) {
            Some(&i) => i,
            None => {
                let i = groups.len();
                index.insert(key.clone(), i);
                groups.push((key, aggs.iter().map(Accumulator::new).collect()));
                i
            }
        };
        let accs = &mut groups[slot].1;
        for (agg, acc) in aggs.iter().zip(accs.iter_mut()) {
            update_accumulator(agg, acc, row)?;
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut row = key;
        row.extend(accs.into_iter().map(Accumulator::finish));
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// Phase 1 of two-phase aggregation: aggregate one partition locally and
/// emit `[group keys..., partial states...]` rows.
fn partial_aggregate_partition(
    rows: &[Row],
    group: &[PlanExpr],
    aggs: &[AggExpr],
) -> Result<Vec<Row>> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    for row in rows {
        let key: Vec<Value> = group
            .iter()
            .map(|g| g.evaluate(row))
            .collect::<Result<_>>()?;
        let slot = match index.get(&key) {
            Some(&i) => i,
            None => {
                let i = groups.len();
                index.insert(key.clone(), i);
                groups.push((key, aggs.iter().map(Accumulator::new).collect()));
                i
            }
        };
        for (agg, acc) in aggs.iter().zip(groups[slot].1.iter_mut()) {
            update_accumulator(agg, acc, row)?;
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut row = key;
        for acc in accs {
            row.extend(acc.into_state());
        }
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// Phase 2 of two-phase aggregation: merge partial-state rows of one
/// (key-exchanged) partition into final results.
fn final_aggregate_partition(rows: &[Row], group_len: usize, aggs: &[AggExpr]) -> Result<Vec<Row>> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    for row in rows {
        let key: Vec<Value> = row[..group_len].to_vec();
        let slot = match index.get(&key) {
            Some(&i) => i,
            None => {
                let i = groups.len();
                index.insert(key.clone(), i);
                groups.push((key, aggs.iter().map(Accumulator::new).collect()));
                i
            }
        };
        let mut offset = group_len;
        for (agg, acc) in aggs.iter().zip(groups[slot].1.iter_mut()) {
            let width = Accumulator::state_width(agg.func);
            acc.merge_state(&row[offset..offset + width])?;
            offset += width;
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut row = key;
        row.extend(accs.into_iter().map(Accumulator::finish));
        out.push(row.into_boxed_slice());
    }
    Ok(out)
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
            for (agg, acc) in aggs.iter().zip(partial.iter_mut()) {
                update_accumulator(agg, acc, row)?;
            }
        }
        for (f, p) in final_accs.iter_mut().zip(partial) {
            f.merge(p)?;
        }
    }
    let row: Vec<Value> = final_accs.into_iter().map(Accumulator::finish).collect();
    let mut parts: Vec<Arc<Vec<Row>>> = (0..ctx.config.partitions)
        .map(|_| Arc::new(Vec::new()))
        .collect();
    parts[0] = Arc::new(vec![row.into_boxed_slice()]);
    Ok(Partitioned { schema, parts })
}

/// Distinct set operations over one co-partitioned pair.
fn set_op_partition(lrows: &[Row], rrows: &[Row], op: SetOpKind, all: bool) -> Result<Vec<Row>> {
    match (op, all) {
        (SetOpKind::Union, true) => {
            let mut out = Vec::with_capacity(lrows.len() + rrows.len());
            out.extend_from_slice(lrows);
            out.extend_from_slice(rrows);
            Ok(out)
        }
        (SetOpKind::Union, false) => {
            let mut seen: HashSet<Row> = HashSet::with_capacity(lrows.len() + rrows.len());
            let mut out = Vec::new();
            for r in lrows.iter().chain(rrows) {
                if seen.insert(r.clone()) {
                    out.push(r.clone());
                }
            }
            Ok(out)
        }
        (SetOpKind::Except, false) => {
            let right: HashSet<&Row> = rrows.iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            let mut out = Vec::new();
            for r in lrows {
                if !right.contains(r) && seen.insert(r.clone()) {
                    out.push(r.clone());
                }
            }
            Ok(out)
        }
        (SetOpKind::Except, true) => {
            // Bag difference: each right occurrence cancels one left.
            let mut counts: HashMap<&Row, usize> = HashMap::new();
            for r in rrows {
                *counts.entry(r).or_insert(0) += 1;
            }
            let mut out = Vec::new();
            for r in lrows {
                match counts.get_mut(r) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => out.push(r.clone()),
                }
            }
            Ok(out)
        }
        (SetOpKind::Intersect, false) => {
            let right: HashSet<&Row> = rrows.iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            let mut out = Vec::new();
            for r in lrows {
                if right.contains(r) && seen.insert(r.clone()) {
                    out.push(r.clone());
                }
            }
            Ok(out)
        }
        (SetOpKind::Intersect, true) => {
            let mut counts: HashMap<&Row, usize> = HashMap::new();
            for r in rrows {
                *counts.entry(r).or_insert(0) += 1;
            }
            let mut out = Vec::new();
            for r in lrows {
                if let Some(c) = counts.get_mut(r) {
                    if *c > 0 {
                        *c -= 1;
                        out.push(r.clone());
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Sort rows in place by the given keys.
pub fn sort_rows(rows: &mut [Row], keys: &[SortKey]) -> Result<()> {
    // Precompute key tuples to avoid re-evaluating expressions in the
    // comparator (and to surface evaluation errors before sorting).
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows.iter() {
        let k: Vec<Value> = keys
            .iter()
            .map(|s| s.expr.evaluate(row))
            .collect::<Result<_>>()?;
        keyed.push((k, row.clone()));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, key) in keys.iter().enumerate() {
            let (a, b) = (&ka[i], &kb[i]);
            let ord = match (a.is_null(), b.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => {
                    if key.nulls_first {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                }
                (false, true) => {
                    if key.nulls_first {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Less
                    }
                }
                (false, false) => {
                    let o = a.cmp_total(b);
                    if key.asc {
                        o
                    } else {
                        o.reverse()
                    }
                }
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    for (slot, (_, row)) in rows.iter_mut().zip(keyed) {
        *slot = row;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::row_of;

    #[test]
    fn sort_rows_respects_desc_and_nulls() {
        let mut rows = vec![
            row_of([Value::Int(1)]),
            row_of([Value::Null]),
            row_of([Value::Int(3)]),
        ];
        let keys = vec![SortKey {
            expr: PlanExpr::column(0, "x"),
            asc: false,
            nulls_first: false,
        }];
        sort_rows(&mut rows, &keys).unwrap();
        assert_eq!(rows[0][0], Value::Int(3));
        assert_eq!(rows[1][0], Value::Int(1));
        assert!(rows[2][0].is_null());
    }

    #[test]
    fn nested_loop_left_join_pads() {
        let l = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        let r = vec![row_of([Value::Int(1), Value::Int(10)])];
        let pred = PlanExpr::column(0, "l")
            .binary(spinner_plan::expr::BinaryOp::Eq, PlanExpr::column(1, "r"));
        let out = nested_loop_join(&l, &r, JoinType::Left, Some(&pred), 1, 2).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[1][1].is_null()); // unmatched row padded
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let l = vec![row_of([Value::Null]), row_of([Value::Int(1)])];
        let r = vec![row_of([Value::Null]), row_of([Value::Int(1)])];
        let keys = vec![PlanExpr::column(0, "k")];
        let out = hash_join_partition(&l, &r, JoinType::Inner, &keys, &keys, None, 1, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(1));
    }

    #[test]
    fn hash_join_full_outer_emits_both_sides() {
        let l = vec![row_of([Value::Int(1)]), row_of([Value::Int(2)])];
        let r = vec![row_of([Value::Int(2)]), row_of([Value::Int(3)])];
        let keys = vec![PlanExpr::column(0, "k")];
        let mut out =
            hash_join_partition(&l, &r, JoinType::Full, &keys, &keys, None, 1, 1).unwrap();
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
}
