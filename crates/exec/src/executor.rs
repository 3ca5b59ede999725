//! The step-program executor: materialize, rename, merge and **loop**.
//!
//! This is where DBSpinner's two new operators live at run time:
//!
//! * `rename` re-points an entry of the temp-result registry — no rows
//!   move (§VI-A);
//! * `loop` evaluates the termination condition after each iteration and
//!   jumps back to the top of the loop body while it holds (§VI-B). The
//!   three condition classes are implemented exactly as the paper
//!   describes: metadata (iteration / cumulative-update counters), data
//!   (`SELECT count(*) FROM cteTable WHERE expr` compared against N) and
//!   delta (rows changed versus the previous iteration, which requires
//!   keeping the previous snapshot).
//!
//! There is one `loop` operator. An iterative CTE and a recursive CTE run
//! on the same driver and differ only in how a round's output is folded
//! into the CTE table — replace-or-merge versus append-what-is-new — with
//! "no new row" being the delta condition at threshold 1. Failure handling
//! is one ladder over one helper (`retry.rs`): a partition is
//! retried in place, then the step, then the loop rolls back to its last
//! checkpoint and replays. Rolling back and resuming after a process
//! crash are the same *epoch install* — put a checkpoint's tables into
//! the registry, continue the driver at its iteration — fed by the
//! statement's checkpoint store or by the dead process's journal.

use std::sync::Arc;

use spinner_common::memory::{RegionKind, SpillRequest};
use spinner_common::profile::{SpanKind, Tracer};
use spinner_common::{
    Batch, Block, CounterSet, EngineConfig, Error, FaultSite, QueryGuard, Result,
};
use spinner_plan::{LogicalPlan, LoopKind, LoopStep, PlanExpr, QueryPlan, Step, TerminationPlan};
use spinner_storage::{
    Catalog, CheckpointStore, LoopCheckpoint, Partitioned, PlacedOn, SpillEnv, TempRegistry,
};

use crate::cache::JoinStateCache;
use crate::fault::FaultInjector;
use crate::joined::Rows;
use crate::keys::{KeyTable, NIL};
use crate::operators;
use crate::physical::{
    create_physical_plan, create_stored_plan, ExchangeMode, JoinBuild, PhysicalPlan,
};
use crate::retry::retry;
use crate::solution::{merge_partition, PartitionMerge, SolutionIndexes};

/// The execution context of one statement: what it borrows from the
/// engine and the state it owns. The loop driver below, every physical
/// operator and the engine all pass this one handle.
///
/// A statement *owns* its intermediate results, loop checkpoints, cached
/// join inputs, solution indexes, counters and profile spans, so
/// concurrent statements on one database can never observe — or zero —
/// each other's; dropping the context releases everything, spill files
/// included, on every exit path.
///
/// The `guard` is consulted at every step and loop-iteration boundary
/// (and inside operators at batch boundaries), so cancellation, deadline
/// and budget violations surface as typed errors between units of work —
/// never mid-mutation. The `faults` injector is a no-op unless the
/// config carries chaos-testing fault plans.
pub struct StatementContext<'a> {
    /// Base tables.
    pub catalog: &'a Catalog,
    /// Optimization toggles and partition count.
    pub config: &'a EngineConfig,
    /// Cancellation / deadline / budget enforcement.
    pub guard: &'a QueryGuard,
    /// Chaos-testing fault injector (no-op outside chaos tests).
    pub faults: &'a FaultInjector,
    /// The engine's memory accountant + spill manager — the one the
    /// `registry` and `checkpoints` below were built over, and the one the
    /// executor, operators and join cache consult. `None` keeps the
    /// fail-fast budget semantics: nothing is tracked, nothing spills.
    pub spill: Option<Arc<SpillEnv>>,
    /// Named temporary results (CTE working tables, merge outputs).
    pub registry: TempRegistry,
    /// Loop checkpoints for mid-loop recovery (unused unless the config
    /// enables checkpointing or recovery).
    pub checkpoints: CheckpointStore,
    /// Loop-invariant hash-join inputs: valid while their sources are the
    /// buffers they were run over, which another statement's temps never
    /// are.
    pub join_cache: JoinStateCache,
    /// Each running merge loop's key index over its CTE table: valid while
    /// the table's partitions are the buffers it indexes.
    pub solutions: SolutionIndexes,
    /// The statement's counters (always on).
    pub stats: CounterSet,
    /// Span collector for `EXPLAIN ANALYZE`; disabled for normal statements.
    pub tracer: Tracer,
}

/// The plan of a `Materialize` step where the caller lowered it already:
/// a loop lowers its body ahead of the first iteration — once per
/// statement, not once per iteration — into one of these beside each step.
type Lowered<'p> = Option<&'p PhysicalPlan>;

/// Result of one step: the number of rows it reported as updated (merges
/// report this; other steps return `None`).
type StepOutcome = Option<u64>;

impl Drop for StatementContext<'_> {
    /// Release on every exit path: a cancelled or faulted statement must
    /// not leave working tables, checkpoints or cached builds charged to
    /// the memory accountant. Clearing also deletes the statement's spill
    /// files (their handles drop with the entries) and finishes its
    /// journal entry.
    fn drop(&mut self) {
        self.registry.clear();
        self.checkpoints.clear();
        self.join_cache.clear();
    }
}

impl<'a> StatementContext<'a> {
    /// A context with empty state, zeroed counters and tracing off, its
    /// stores built over `spill`.
    pub fn new(
        catalog: &'a Catalog,
        config: &'a EngineConfig,
        guard: &'a QueryGuard,
        faults: &'a FaultInjector,
        spill: Option<Arc<SpillEnv>>,
    ) -> Self {
        StatementContext {
            catalog,
            config,
            guard,
            faults,
            registry: TempRegistry::new(spill.clone()),
            checkpoints: CheckpointStore::new(spill.clone()),
            join_cache: JoinStateCache::new(spill.clone()),
            spill,
            solutions: SolutionIndexes::default(),
            stats: CounterSet::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Run a full query plan: steps first, then the final plan; gather the
    /// result into a single batch.
    pub fn run_query(&self, plan: &QueryPlan) -> Result<Batch> {
        let result = self.run_plan(plan, None)?;
        // The statement's edge: the result leaves as heap rows.
        Ok(Batch::new(plan.root.schema(), result.gather()))
    }

    /// [`run_query`](Self::run_query) without the gather: the final
    /// plan's partitioned result, as `INSERT … SELECT` appends it to a
    /// table distributed on column `distribute_by` — lowered to come out
    /// placed on that column where it can ([`create_stored_plan`]).
    pub fn run_plan(&self, plan: &QueryPlan, distribute_by: Option<usize>) -> Result<Partitioned> {
        self.run_steps(&plan.steps)?;
        if self.tracer.is_enabled() {
            self.tracer.enter(SpanKind::Return, "Return".to_string());
        }
        // The final plan only reads (registry + catalog), so a transient
        // failure inside it can be re-run against unchanged inputs.
        let result = create_stored_plan(&plan.root, distribute_by, None)
            .and_then(|root| self.with_transient_retry(|| operators::execute(&root, self)));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.tracer.exit(0, 0);
                return Err(e);
            }
        };
        self.tracer
            .exit(result.total_rows() as u64, result.estimated_bytes());
        Ok(result)
    }

    /// The rows of a logical plan tree, as row numbers.
    pub(crate) fn rows_of(&self, plan: &LogicalPlan) -> Result<Rows> {
        let physical = create_physical_plan(plan, self.config)?;
        operators::run(&physical, usize::MAX, self)
    }

    /// Run a sequence of steps.
    pub fn run_steps(&self, steps: &[Step]) -> Result<()> {
        steps
            .iter()
            .try_for_each(|step| self.run_step(step, None).map(drop))
    }

    /// The step rung of the retry ladder: re-run `f` — an idempotent unit
    /// of work whose inputs are immutable snapshots — up to
    /// `max_partition_retries` times on a transient failure. Where the
    /// per-partition rung inside the physical workers re-runs one
    /// partition, this one covers driver-side failures (exchange fault,
    /// materialize fault) by re-running the whole operator subtree against
    /// the same registry state.
    fn with_transient_retry<T>(&self, f: impl Fn() -> Result<T>) -> Result<T> {
        retry(
            self.guard,
            self.config.max_partition_retries,
            || {
                // The failed attempt may have aborted sibling workers;
                // that flag must not veto the re-run. External
                // cancellation stays sticky.
                self.guard.clear_worker_abort();
                self.guard.check()?;
                self.stats.step_retries.add(1);
                self.tracer.note_retry();
                Ok(true)
            },
            f,
        )
    }

    fn run_step(&self, step: &Step, lowered: Lowered<'_>) -> Result<StepOutcome> {
        self.guard.check()?;
        if matches!(step, Step::Loop(_)) {
            // Loops own their failure handling (rollback + replay).
            return self.run_step_traced(step, lowered);
        }
        // Materialize re-puts its output, Merge consumes its working table
        // only after the fallible work, and Rename mutates nothing before
        // its fault site — so a failed non-loop step can safely be re-run
        // against its unchanged input snapshot.
        self.with_transient_retry(|| self.run_step_traced(step, lowered))
    }

    fn run_step_traced(&self, step: &Step, lowered: Lowered<'_>) -> Result<StepOutcome> {
        if !self.tracer.is_enabled() {
            return self.run_step_inner(step, lowered);
        }
        let kind = match step {
            Step::Loop(_) => SpanKind::Loop,
            _ => SpanKind::Step,
        };
        self.tracer.enter(kind, step_label(step));
        let outcome = self.run_step_inner(step, lowered);
        match &outcome {
            Ok(_) => {
                let (rows, bytes) = self.step_output_size(step);
                self.tracer.exit(rows, bytes);
            }
            Err(_) => self.tracer.exit(0, 0),
        }
        outcome
    }

    /// Rows and bytes of the temp-registry entry a step produced, for the
    /// step's profile span. Traced statements only.
    fn step_output_size(&self, step: &Step) -> (u64, u64) {
        let name = match step {
            Step::Materialize { name, .. } => name,
            Step::Rename { to, .. } => to,
            Step::Merge { merged, .. } => merged,
            Step::Loop(l) => &l.cte,
        };
        match self.registry.get(name) {
            Ok(data) => (data.total_rows() as u64, data.estimated_bytes()),
            Err(_) => (0, 0),
        }
    }

    fn run_step_inner(&self, step: &Step, lowered: Lowered<'_>) -> Result<StepOutcome> {
        match step {
            Step::Materialize {
                name,
                plan,
                distribute_by,
            } => {
                self.faults.hit(FaultSite::Materialize)?;
                let mut data = match lowered {
                    Some(physical) => operators::execute(physical, self)?,
                    None => {
                        let physical = create_stored_plan(plan, *distribute_by, None)?;
                        operators::execute(&physical, self)?
                    }
                };
                if let Some(col) = distribute_by {
                    // Store the result distributed on its key so later
                    // scans, merges and joins on that key are co-located.
                    // Lowered for this key, the result is mostly placed on
                    // it already and passes through.
                    data = operators::exchange(
                        data,
                        &ExchangeMode::Hash(vec![PlanExpr::column(*col, "dist_key")]),
                        usize::MAX,
                        self,
                    )?;
                }
                let total = data.total_rows() as u64;
                self.guard.charge_rows_materialized(total)?;
                let spilling = self.spill.is_some();
                if !spilling {
                    // Fail-fast path (spilling off): the budget is a
                    // cumulative charge that trips before the result is
                    // even stored.
                    self.guard
                        .charge_intermediate_bytes(data.estimated_bytes())?;
                }
                self.stats.rows_materialized.add(total);
                self.registry.put(name, data);
                // A loop body's result (the body is lowered ahead) is
                // consumed by the loop's fold, after which the loop
                // relieves pressure once (`run_iteration`).
                if spilling && lowered.is_none() {
                    self.relieve_memory_pressure(&[name])?;
                }
                Ok(None)
            }
            Step::Rename { from, to } => {
                self.faults.hit(FaultSite::Rename)?;
                self.registry.rename(from, to)?;
                self.stats.renames.add(1);
                Ok(None)
            }
            Step::Merge {
                cte,
                working,
                merged,
                key,
                cte_display_name,
                delta_out,
            } => {
                let updated = self.merge_tables(
                    cte,
                    working,
                    merged,
                    *key,
                    cte_display_name,
                    delta_out.as_deref(),
                )?;
                Ok(Some(updated))
            }
            Step::Loop(l) => {
                self.run_loop(l)?;
                Ok(None)
            }
        }
    }

    /// Merge `working` into `cte` by key equality, producing `merged`.
    ///
    /// Both inputs are hash-exchanged on the key column so the per-
    /// partition merge sees all rows of one key together (MPP co-location).
    /// Each working row is probed through the CTE's solution index
    /// ([`crate::solution`]) — O(working), not O(CTE) — and each CTE row
    /// it changes is overwritten in place, so the merged table is the CTE
    /// table's own buffers, placed on the key as they were: the next
    /// merge's exchange passes it through unhashed, and the index stays
    /// valid. A partition a checkpoint still shares is copied once, not
    /// written. Returns the number of rows whose values actually changed.
    /// Errors on duplicate keys in the working table (paper §II).
    ///
    /// With `delta_out` set (semi-naive loops), the changed rows are also
    /// materialized under that temp name — partitioned exactly like the
    /// merged table, so the next iteration's delta scan is co-located with
    /// the CTE table. The delta falls out of the per-row comparison the
    /// merge already performs; no extra pass over the data is needed.
    fn merge_tables(
        &self,
        cte: &str,
        working: &str,
        merged: &str,
        key: usize,
        cte_display_name: &str,
        delta_out: Option<&str>,
    ) -> Result<u64> {
        let key_expr = vec![PlanExpr::column(key, "merge_key")];
        let mut cte_data = operators::exchange(
            self.registry.get(cte)?,
            &ExchangeMode::Hash(key_expr.clone()),
            usize::MAX,
            self,
        )?;
        let work_data = operators::exchange(
            self.registry.get(working)?,
            &ExchangeMode::Hash(key_expr),
            usize::MAX,
            self,
        )?;
        let tables = self.solutions.current(cte, &cte_data, key)?;
        let parts = tables.iter().zip(&cte_data.parts).zip(&work_data.parts);
        let merges: Vec<PartitionMerge> = parts
            .map(|((table, old), new)| merge_partition(table, (old, new), key, cte_display_name))
            .collect::<Result<_>>()?;
        let updated: u64 = merges.iter().map(|m| m.delta.len() as u64).sum();
        let probed: u64 = merges.iter().map(|m| m.probed).sum();
        self.stats.merges.add(1);
        self.stats.merge_rows_examined.add(probed);
        self.stats.rows_updated.add(updated);
        // Every merged and delta row sits where its key placed it.
        let placed_on = PlacedOn::new([Some(key)]);
        if let Some(d) = delta_out {
            self.stats.delta_rows_emitted.add(updated);
            let delta_parts = (work_data.parts.iter().zip(&merges))
                .map(|(new, m)| Arc::new(new.take(&m.delta)))
                .collect();
            // Replacing last round's delta lets go of the blocks it shares
            // with the CTE table: before iteration 1 it *is* the table.
            self.registry.put(
                d,
                Partitioned {
                    schema: Arc::clone(&cte_data.schema),
                    parts: delta_parts,
                    placed_on,
                },
            );
        }
        // Algorithm 1, line 10: the working table is consumed by the merge.
        self.registry.remove(working);
        // Out of the registry, the CTE's partitions are this merge's alone
        // unless a checkpoint shares them, and are written where they lie.
        self.registry.remove(cte);
        for ((part, new), m) in cte_data.parts.iter_mut().zip(&work_data.parts).zip(&merges) {
            if !m.writes.is_empty() {
                Arc::make_mut(part).overwrite_rows(new, &m.writes);
            }
        }
        cte_data.placed_on = placed_on;
        self.solutions.stamp(cte, &cte_data.parts);
        self.registry.put(merged, cte_data);
        Ok(updated)
    }

    /// With a spill environment installed, bring tracked intermediate
    /// state back under the spill threshold by spilling victims — coldest
    /// loop-invariant state (cached join inputs whose rows were copied,
    /// old checkpoints) first, then working and delta tables, then other
    /// temps. Regions named in `protect` — the state the next step reads —
    /// are never picked. It runs after a statement's `Materialize`, after
    /// a checkpoint and, in a loop, once per iteration after the fold that
    /// consumed the working table, with the loop's new state protected —
    /// and after a body's `Materialize` only when resident state breaks
    /// the budget. The guard's intermediate-bytes budget is then enforced
    /// against what is still *resident*: `ResourceExhausted` fires only
    /// when spilling could not get below the budget, and a failed disk
    /// write surfaces as the typed, transient [`Error::SpillUnavailable`]
    /// — retried with the step outside a loop, by a rollback inside one
    /// (the loop's calls run outside the step rung). Without a spill
    /// environment this is a no-op (the fail-fast cumulative charge in the
    /// caller already ran).
    fn relieve_memory_pressure(&self, protect: &[&str]) -> Result<()> {
        let Some(env) = &self.spill else {
            return Ok(());
        };
        if env.accountant.over_threshold() {
            for victim in env.accountant.spill_plan(protect) {
                self.spill_victim(&victim)?;
            }
        }
        if let Some(limit) = self.guard.intermediate_bytes_limit() {
            let resident = env.accountant.resident_bytes();
            if resident > limit {
                return Err(Error::ResourceExhausted {
                    resource: "intermediate_bytes".to_string(),
                    used: resident,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Whether tracked resident state is over the guard's intermediate-bytes
    /// budget; never without a spill environment, where the budget is a
    /// cumulative charge instead.
    fn over_budget(&self) -> bool {
        match (&self.spill, self.guard.intermediate_bytes_limit()) {
            (Some(env), Some(limit)) => env.accountant.resident_bytes() > limit,
            _ => false,
        }
    }

    /// Dispatch one spill-plan victim to the store that owns it. A victim
    /// that disappeared or was spilled concurrently is a benign no-op.
    fn spill_victim(&self, victim: &SpillRequest) -> Result<()> {
        match victim.kind {
            RegionKind::Checkpoint => {
                let loop_id = victim
                    .name
                    .strip_prefix("checkpoint:")
                    .unwrap_or(&victim.name);
                self.checkpoints.spill_entry(loop_id)?;
            }
            // A cached join input whose rows were copied: reading them
            // back costs less than running the input again (`evict`).
            RegionKind::JoinBuild => {
                self.join_cache.evict(victim.id)?;
            }
            _ => {
                self.registry.spill_entry(&victim.name)?;
            }
        }
        Ok(())
    }

    /// The `loop` operator: one driver for both loop kinds.
    ///
    /// An iterative and a recursive CTE are the same delta loop — seed the
    /// delta, run the body, fold its output into the CTE table, stop when
    /// the termination condition holds (a recursion's is "fewer than 1 row
    /// changed") — and differ only in the folding rule, [`Self::advance`].
    /// Everything else is owned here, once: the resume-or-entry checkpoint,
    /// the guard and iteration-limit checks, periodic checkpoints, rollback
    /// and replay, and the exit clean-up.
    fn run_loop(&self, l: &LoopStep) -> Result<()> {
        // The loop's recovery state: the CTE table and, when the body reads
        // one, the delta table — a rollback must restore the delta the
        // checkpointed iteration would have fed forward.
        let mut tables = vec![l.cte.clone()];
        tables.extend(l.delta_table());
        let delta = tables.get(1).map(String::as_str);
        if let Some(d) = delta {
            // Before iteration 1 every row counts as changed, so the delta
            // starts as the full initial table (an Arc bump, not a copy);
            // each round refills it with only the rows that changed
            // (merge) or are new (append).
            self.registry.put(d, self.registry.get(&l.cte)?);
        }
        if matches!(l.kind, LoopKind::Iterative { delta: Some(_), .. }) {
            self.stats.semi_naive_loops.add(1);
        }
        let lower = |step: &Step| match step {
            Step::Materialize {
                plan,
                distribute_by,
                ..
            } => create_stored_plan(plan, *distribute_by, Some(l)).map(Some),
            _ => Ok(None),
        };
        let body: Vec<Option<PhysicalPlan>> = l.body.iter().map(lower).collect::<Result<_>>()?;
        // An in-place merge or append keeps a table's buffers while its
        // cells change, so the join-state cache, which proves an input
        // current by its sources' buffers, must never cache one of them.
        debug_assert!(
            body.iter()
                .flatten()
                .all(|plan| caches_nothing_written(plan, l)),
            "a cached join input of {} reads a table its loop writes",
            l.cte_display_name
        );
        let ckpt_every = self.config.checkpoint_interval;
        let mut recoveries_used: u64 = 0;
        // Adopted from a dead engine's journal, the loop continues from the
        // rehydrated epoch instead of iteration 0.
        let adopted = self.adopt_epoch(l);
        let mut at = adopted.unwrap_or((0, 0));
        if adopted.is_some() || ckpt_every > 0 || self.config.max_loop_recoveries > 0 {
            // Entry checkpoint: a rollback always has a target even when
            // periodic checkpoints are off, and an adopted epoch — in
            // memory only, the dead pid's files are already collected —
            // is durable again under this statement's journal before the
            // next iteration runs. No iteration has run yet, so a
            // transient failure here mutates nothing and is retried in
            // place, consuming loop-recovery attempts.
            self.with_loop_recovery(l, &mut recoveries_used, || {
                self.save_checkpoint(l, &tables, at.0, at.1)
            })?;
        }
        loop {
            // What the driver derives from the installed tables is built
            // here — at loop entry and after every epoch install — and
            // nowhere else. The dedup set of a `UNION` recursion is
            // exactly the rows accumulated so far; a merge loop's solution
            // index is the CTE table's, indexed on the loop key.
            let (mut iteration, mut cumulative_updates) = at;
            let mut seen = match &l.kind {
                LoopKind::FixedPoint {
                    union_all: false, ..
                } => Some(row_set(&self.registry.get(&l.cte)?)?),
                _ => None,
            };
            if l.merges() {
                let cte = self.registry.get(&l.cte)?;
                self.solutions.build(&l.cte, &cte, l.key)?;
            }
            let err = loop {
                iteration += 1;
                self.guard.check()?;
                if iteration > self.config.max_iterations {
                    return Err(Error::IterationLimitExceeded {
                        cte: l.cte_display_name.clone(),
                        limit: self.config.max_iterations,
                    });
                }
                let outcome = self
                    .run_iteration(l, &body, delta, iteration, cumulative_updates, &mut seen)
                    .and_then(|(stop, updates)| {
                        // The periodic checkpoint is part of the attempt: a
                        // failure while snapshotting rolls back like any
                        // other mid-loop failure.
                        if !stop && ckpt_every > 0 && iteration.is_multiple_of(ckpt_every) {
                            self.save_checkpoint(l, &tables, iteration, updates)?;
                        }
                        Ok((stop, updates))
                    });
                match outcome {
                    Ok((true, _)) => {
                        if let Some(d) = delta {
                            self.registry.remove(d);
                        }
                        self.checkpoints.remove(&l.cte);
                        self.solutions.remove(&l.cte);
                        return Ok(());
                    }
                    Ok((false, updates)) => cumulative_updates = updates,
                    Err(err) => break err,
                }
            };
            at = self.recover_loop(l, iteration, err, &mut recoveries_used)?;
        }
    }

    /// One round of a loop: run the body, fold its output into the CTE
    /// table by the loop kind's rule, evaluate the termination condition.
    /// Returns `(stop, new_cumulative_updates)`.
    fn run_iteration(
        &self,
        l: &LoopStep,
        body: &[Option<PhysicalPlan>],
        delta: Option<&str>,
        iteration: u64,
        cumulative_updates: u64,
        seen: &mut Option<KeyTable>,
    ) -> Result<(bool, u64)> {
        self.faults.hit(FaultSite::LoopIteration)?;
        self.tracer.begin_iteration();
        let appends = matches!(l.kind, LoopKind::FixedPoint { .. });
        let semi_naive = !appends && delta.is_some();
        let mut delta_fed: u64 = 0;
        if let Some(d) = delta.filter(|_| semi_naive) {
            // The body's join consumes the delta table this round; record
            // how many rows it was fed (`semi_naive_equivalence.rs` holds
            // the total to the anchor plus every iteration's delta).
            if let Ok(dt) = self.registry.get(d) {
                delta_fed = dt.total_rows() as u64;
                self.stats.delta_rows_fed.add(delta_fed);
            }
        }
        // Delta termination on the rename path has no merge to count
        // changes, so keep the previous version for a diff (§VI-B:
        // "for this case, we also keep data from the previous
        // iteration"). Semi-naive loops never take this path: their
        // merge maintains the changed-row set, so termination checking
        // is O(delta) instead of a full-table diff.
        let previous = match (&l.kind, &l.termination) {
            (LoopKind::Iterative { merge: false, .. }, TerminationPlan::Delta { .. }) => {
                Some(self.registry.get(&l.cte)?)
            }
            _ => None,
        };
        let mut merge_updates: Option<u64> = None;
        for (step, lowered) in l.body.iter().zip(body) {
            if let Some(u) = self.run_step(step, lowered.as_ref())? {
                merge_updates = Some(u);
            }
            let Step::Materialize { name, .. } = step else {
                continue;
            };
            // Spilling waits for the fold; a body result that breaks the
            // intermediate-bytes budget is held to it now, spilling only
            // what the fold does not read.
            if self.over_budget() {
                let mut protect = vec![name.as_str(), &l.cte];
                protect.extend(delta);
                self.relieve_memory_pressure(&protect)?;
            }
            #[cfg(debug_assertions)]
            {
                let (LoopKind::Iterative { working, .. } | LoopKind::FixedPoint { working, .. }) =
                    &l.kind;
                if name == working {
                    check_loop_types(l, &self.registry.get(name)?, "working table");
                }
            }
        }
        self.stats.iterations.add(1);
        let changed = self.advance(l, delta, merge_updates, previous.as_ref(), seen)?;
        // The fold — rename, merge or append — consumed the working table
        // and installed the loop's next state. What else the body stored —
        // a nested `WITH`'s temp — is dead: the next iteration stores it
        // anew. Dropping it, then relieving pressure here, once, with the
        // loop's state protected, never writes a CTE version a rename
        // drops, one a merge reads back, or a body temp nobody reads.
        for step in &l.body {
            if let Step::Materialize { name, .. } = step {
                if *name != l.cte && Some(name.as_str()) != delta {
                    self.registry.remove(name);
                }
            }
        }
        match delta {
            Some(d) => self.relieve_memory_pressure(&[&l.cte, d])?,
            None => self.relieve_memory_pressure(&[&l.cte])?,
        }
        let current = self.registry.get(&l.cte)?;
        #[cfg(debug_assertions)]
        {
            check_loop_types(l, &current, "CTE table");
            if l.merges() {
                self.solutions.check(&l.cte, &current, l.key);
            }
        }
        let cumulative = cumulative_updates + changed;
        if !appends {
            self.tracer.note_iteration_mode(
                semi_naive,
                delta_fed,
                if semi_naive { changed } else { 0 },
            );
        }
        if self.tracer.is_enabled() {
            // An append loop's new rows are its delta; it updates none.
            self.tracer.end_iteration(
                changed,
                if appends { 0 } else { changed },
                current.total_rows() as u64,
            );
        }
        let stop = match &l.termination {
            TerminationPlan::Iterations(n) => iteration >= *n,
            TerminationPlan::Updates(n) => cumulative >= *n,
            TerminationPlan::Data { predicate, rows } => {
                count_matching(&current, predicate)? >= *rows
            }
            TerminationPlan::Delta { threshold } => changed < *threshold,
        };
        Ok((stop, cumulative))
    }

    /// How the body's output becomes the loop's next state, and how many
    /// rows that changed — the one thing the two loop kinds do differently.
    fn advance(
        &self,
        l: &LoopStep,
        delta: Option<&str>,
        merge_updates: Option<u64>,
        previous: Option<&Partitioned>,
        seen: &mut Option<KeyTable>,
    ) -> Result<u64> {
        match &l.kind {
            // Update semantics: the body's own merge/rename steps already
            // installed the new version; what is left is the count.
            LoopKind::Iterative { .. } => match (merge_updates, previous) {
                (Some(u), _) => Ok(u),
                (None, Some(prev)) => diff_by_key(prev, &self.registry.get(&l.cte)?, l.key),
                // Rename path without delta tracking: the whole dataset
                // is replaced, every row counts as updated.
                (None, None) => {
                    let n = self.registry.get(&l.cte)?.total_rows() as u64;
                    self.stats.rows_updated.add(n);
                    Ok(n)
                }
            },
            LoopKind::FixedPoint { working, .. } => {
                let delta = delta.expect("run_loop names a delta for every fixed-point loop");
                self.append_new_rows(l, working, delta, seen)
            }
        }
    }

    /// Append semantics: filter the body's output to genuinely new rows,
    /// append them to the accumulated table and publish them as the next
    /// round's delta. The CTE and delta tables are mutated last, after
    /// every fallible read, so a failed round leaves the loop state as
    /// the last checkpoint (or entry) recorded it.
    fn append_new_rows(
        &self,
        l: &LoopStep,
        working: &str,
        delta: &str,
        seen: &mut Option<KeyTable>,
    ) -> Result<u64> {
        let produced = self.registry.get(working)?;
        let mut new_parts: Vec<Arc<Block>> = Vec::with_capacity(produced.parts.len());
        for part in &produced.parts {
            let Some(set) = seen.as_mut() else {
                new_parts.push(Arc::clone(part));
                continue;
            };
            // A row is new where it brings the set its next key number.
            let mut new_rows: Vec<u32> = Vec::new();
            let mut next = set.len() as u32;
            for (row, id) in (0..).zip(set.insert_all(part.columns(), part.rows())?) {
                if id == next {
                    new_rows.push(row);
                    next += 1;
                }
            }
            new_parts.push(Arc::new(part.take(&new_rows)));
        }
        self.registry.remove(working);
        let added: u64 = new_parts.iter().map(|rows| rows.rows() as u64).sum();
        if added == 0 {
            return Ok(0);
        }
        let mut current = self.registry.get(&l.cte)?;
        // Replacing last round's delta lets go of the blocks it shares with
        // the table: before iteration 1 it *is* the table.
        self.registry.put(
            delta,
            Partitioned {
                schema: Arc::clone(&produced.schema),
                parts: new_parts.clone(),
                placed_on: produced.placed_on,
            },
        );
        // Out of the registry, the table's partitions are this round's
        // alone unless a checkpoint shares them, and grow in place: a
        // round copies what it appends, not what it appended before. The
        // table stays placed on its key only if the new rows were placed
        // on it.
        self.registry.remove(&l.cte);
        for (part, extra) in current.parts.iter_mut().zip(&new_parts) {
            if !extra.is_empty() {
                Arc::make_mut(part).append(extra);
            }
        }
        if current.placed_on != produced.placed_on {
            current.placed_on = PlacedOn::UNKNOWN;
        }
        self.registry.put(&l.cte, current);
        Ok(added)
    }

    /// Snapshot `tables` plus the loop counters as the latest checkpoint
    /// for this loop. Snapshots are O(partitions) `Arc` bumps, not row
    /// copies. The chaos `Checkpoint` fault site fires after the snapshot
    /// is assembled but before it is installed, so a killed checkpoint
    /// never corrupts the live loop state or the previous snapshot.
    fn save_checkpoint(
        &self,
        l: &LoopStep,
        tables: &[String],
        iteration: u64,
        cumulative_updates: u64,
    ) -> Result<()> {
        let ckpt = LoopCheckpoint {
            iteration,
            cumulative_updates,
            tables: tables
                .iter()
                .map(|name| Ok((name.clone(), self.registry.get(name)?)))
                .collect::<Result<_>>()?,
        };
        let bytes = ckpt.estimated_bytes();
        self.faults.hit(FaultSite::Checkpoint)?;
        if self.spill.is_none() {
            // Snapshots hold real memory until replaced: debit the same
            // budget materialized results are charged against. (They were
            // previously counted in stats but never charged, letting a
            // checkpointed loop exceed `max_intermediate_bytes` unseen.)
            self.guard.charge_intermediate_bytes(bytes)?;
        }
        self.checkpoints.save(&l.cte, ckpt);
        self.stats.checkpoints_taken.add(1);
        self.stats.checkpoint_bytes.add(bytes);
        self.tracer.note_checkpoint(bytes);
        // The snapshot is cold; the tables it holds are the next
        // iteration's input.
        let protect: Vec<&str> = tables.iter().map(String::as_str).collect();
        self.relieve_memory_pressure(&protect)?;
        Ok(())
    }

    /// Epoch install — the single operation behind in-process rollback
    /// and post-crash adoption, which differ only in who held the epoch:
    /// put the checkpoint's tables into the registry and hand back where
    /// the driver continues, `(iteration, cumulative_updates)`. Installing
    /// re-`put`s tables, which gives them new buffers anyway; clearing the
    /// join cache makes dropping every build derived on the abandoned
    /// timeline unconditional rather than incidental.
    fn install_epoch(&self, ckpt: &LoopCheckpoint) -> (u64, u64) {
        for (name, data) in &ckpt.tables {
            self.registry.put(name, data.clone());
        }
        self.join_cache.clear();
        (ckpt.iteration, ckpt.cumulative_updates)
    }

    /// Adoption: install the epoch the engine's restart pass rehydrated
    /// from a dead process's journal and primed for this loop (none in
    /// normal execution), overwriting the freshly seeded iteration-0
    /// state, and record the restart counters. The driver re-saves the
    /// epoch as its entry checkpoint.
    fn adopt_epoch(&self, l: &LoopStep) -> Option<(u64, u64)> {
        let seed = self.checkpoints.take_resume(&l.cte)?;
        self.stats.restart_adopted_epoch.set(seed.adopted_epoch);
        self.stats
            .restart_resumed_iteration
            .set(seed.checkpoint.iteration);
        self.stats.restart_replayed_iterations.set(
            seed.journal_iteration
                .saturating_sub(seed.checkpoint.iteration),
        );
        Some(self.install_epoch(&seed.checkpoint))
    }

    /// Rollback: install the loop's latest checkpoint after iteration
    /// `failed_iteration` failed. The chaos `Recovery` fault site fires
    /// before any table is restored, so a killed restore is all-or-nothing
    /// with respect to the registry.
    fn rollback(&self, l: &LoopStep, failed_iteration: u64) -> Result<(u64, u64)> {
        // Discard the failed iteration's partial spans before replaying so
        // the profile's per-iteration story stays coherent.
        self.tracer.abort_iteration();
        // `latest` rehydrates a spilled snapshot; a failed read surfaces
        // as a transient error the caller retries (consuming a recovery
        // attempt), never as a silent "no checkpoint".
        let ckpt = self.checkpoints.latest(&l.cte)?.ok_or_else(|| {
            Error::execution(format!(
                "no checkpoint to roll back to for iterative CTE '{}'",
                l.cte_display_name
            ))
        })?;
        self.faults.hit(FaultSite::Recovery)?;
        let at = self.install_epoch(&ckpt);
        // The failed attempt aborted sibling workers; clear the flag so
        // replayed iterations are not stillborn. External cancellation
        // stays sticky.
        self.guard.clear_worker_abort();
        self.stats.loop_rollbacks.add(1);
        self.stats
            .iterations_replayed
            .add(failed_iteration - ckpt.iteration);
        self.tracer
            .note_rollback(ckpt.iteration + 1, failed_iteration);
        Ok(at)
    }

    /// The loop rung of the retry ladder: re-run `attempt` after a
    /// transient failure, drawing on the loop's one budget of
    /// `max_loop_recoveries` — `recoveries_used` is shared by the entry
    /// checkpoint and every rollback. A spent budget is the typed
    /// [`Error::RecoveryExhausted`]; with recovery off the failure
    /// surfaces as it is.
    fn with_loop_recovery<T>(
        &self,
        l: &LoopStep,
        recoveries_used: &mut u64,
        attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let budget = self.config.max_loop_recoveries;
        let outcome = retry(
            self.guard,
            budget.saturating_sub(*recoveries_used),
            || {
                *recoveries_used += 1;
                Ok(true)
            },
            attempt,
        );
        match outcome {
            Err(e) if e.is_retryable() && budget > 0 => Err(Error::RecoveryExhausted {
                cte: l.cte_display_name.clone(),
                recoveries: *recoveries_used,
                source: Box::new(e),
            }),
            outcome => outcome,
        }
    }

    /// Roll a loop back to its last checkpoint after `err` escaped the
    /// in-place rungs at iteration `failed_iteration`; returns where the
    /// driver continues — it replays from the checkpointed iteration + 1.
    /// The failed iteration is the failed first attempt, so every rollback
    /// — including one repeated because a fault fired *during* the restore
    /// — consumes one recovery.
    fn recover_loop(
        &self,
        l: &LoopStep,
        failed_iteration: u64,
        err: Error,
        recoveries_used: &mut u64,
    ) -> Result<(u64, u64)> {
        let mut failure = Some(err);
        self.with_loop_recovery(l, recoveries_used, || match failure.take() {
            Some(err) => Err(err),
            None => self.rollback(l, failed_iteration),
        })
    }
}

/// Debug check: every column of `data`, loop state of `l`, holds the type
/// the plan gives it (`spinner_plan::rewrite`) or no value yet.
#[cfg(debug_assertions)]
fn check_loop_types(l: &LoopStep, data: &Partitioned, what: &str) {
    use crate::joined::{check_types, Joined};
    let blocks = data.parts.iter().map(|b| Joined::of(Arc::clone(b)));
    check_types(blocks, &l.schema, || {
        format!("{what} of {}", l.cte_display_name)
    });
}

/// Whether no input of `plan` that the join-state cache runs once — a
/// cached join build or a [`PhysicalPlan::Cached`] input — reads a temp `l`
/// writes.
fn caches_nothing_written(plan: &PhysicalPlan, l: &LoopStep) -> bool {
    let reads_nothing_written = |side: &PhysicalPlan| {
        side.all_leaves(
            &mut |leaf| !matches!(leaf, PhysicalPlan::TempScan { name, .. } if l.writes(name)),
        )
    };
    match plan {
        PhysicalPlan::HashJoin {
            right: input,
            build: JoinBuild::Cached,
            ..
        }
        | PhysicalPlan::Cached { input }
            if !reads_nothing_written(input) =>
        {
            false
        }
        _ => plan
            .children()
            .all(|child| caches_nothing_written(child, l)),
    }
}

/// Profile-span label for a step, mirroring its EXPLAIN rendering.
fn step_label(step: &Step) -> String {
    match step {
        Step::Materialize { name, .. } => format!("Materialize {name}"),
        Step::Rename { from, to } => format!("Rename {from} to {to}"),
        Step::Merge {
            cte, working, key, ..
        } => format!("Merge {working} into {cte} by key column #{key}"),
        Step::Loop(l) => format!(
            "Initialize loop operator {} for {}",
            l.termination, l.cte_display_name
        ),
    }
}

/// Count rows satisfying `predicate` (the data termination condition —
/// equivalent to `SELECT count(*) FROM cteTable WHERE expr`).
fn count_matching(data: &Partitioned, predicate: &PlanExpr) -> Result<u64> {
    let mut n = 0u64;
    for part in &data.parts {
        n += predicate.select(part)?.len() as u64;
    }
    Ok(n)
}

/// Every row of `data`, as a set.
fn row_set(data: &Partitioned) -> Result<KeyTable> {
    let mut set = KeyTable::new(data.schema.len(), data.total_rows());
    for part in &data.parts {
        set.insert_all(part.columns(), part.rows())?;
    }
    Ok(set)
}

/// Number of rows in `current` that differ from the row with the same key
/// in `previous` (new keys count as changed). This is the delta diff the
/// rename path performs only when the termination condition requires it.
fn diff_by_key(previous: &Partitioned, current: &Partitioned, key: usize) -> Result<u64> {
    // Should `previous` repeat a key, its last row is the one compared
    // against: a later holder of a key number replaces the earlier one.
    let mut index = KeyTable::new(1, previous.total_rows());
    let mut holders: Vec<(&Block, usize)> = Vec::with_capacity(previous.total_rows());
    for part in &previous.parts {
        let ids = index.insert_all(&part.columns()[key..=key], part.rows())?;
        holders.resize(index.len(), (part, 0));
        for (row, id) in ids.into_iter().enumerate() {
            holders[id as usize] = (part, row);
        }
    }
    let mut changed = 0u64;
    for part in &current.parts {
        let found = index.find_all(&part.columns()[key..=key], part.rows());
        for (row, id) in found.into_iter().enumerate() {
            let unchanged = id != NIL && {
                let (held, held_row) = holders[id as usize];
                held.eq_rows(held_row, part, row)
            };
            changed += u64::from(!unchanged);
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::SchemaRef;
    use spinner_common::{row_of, Column, DataType, Field, Schema, Value};
    use spinner_parser::parse_sql;
    use spinner_plan::builder::SchemaProvider;
    use spinner_plan::plan_query;

    struct CatalogProvider<'a>(&'a Catalog);

    impl SchemaProvider for CatalogProvider<'_> {
        fn table_schema(&self, name: &str) -> Option<SchemaRef> {
            self.0.get(name).ok().map(|t| Arc::clone(t.schema()))
        }

        fn table_primary_key(&self, name: &str) -> Option<usize> {
            self.0.get(name).ok().and_then(|t| t.primary_key())
        }
    }

    fn setup_edges(catalog: &Catalog, partitions: usize) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("src", DataType::Int),
            Field::new("dst", DataType::Int),
            Field::new("weight", DataType::Float),
        ]));
        catalog
            .create_table("edges", schema, partitions, Some(0), None)
            .unwrap();
        // Small chain graph: 1 -> 2 -> 3 -> 4, plus 1 -> 3.
        let rows = vec![
            row_of([Value::Int(1), Value::Int(2), Value::Float(1.0)]),
            row_of([Value::Int(2), Value::Int(3), Value::Float(1.0)]),
            row_of([Value::Int(3), Value::Int(4), Value::Float(1.0)]),
            row_of([Value::Int(1), Value::Int(3), Value::Float(5.0)]),
        ];
        catalog.with_table_mut("edges", |t| t.insert(rows)).unwrap();
    }

    fn run(catalog: &Catalog, config: &EngineConfig, sql: &str) -> Result<Batch> {
        let stmt = parse_sql(sql)?;
        let spinner_parser::Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        let plan = plan_query(&q, &CatalogProvider(catalog), config)?;
        let guard = QueryGuard::unlimited();
        let faults = FaultInjector::disabled();
        let ctx = StatementContext::new(catalog, config, &guard, &faults, None);
        ctx.run_query(&plan)
    }

    fn run_ok(catalog: &Catalog, config: &EngineConfig, sql: &str) -> Batch {
        run(catalog, config, sql).unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        let batch = run_ok(&catalog, &config, "SELECT dst FROM edges WHERE src = 1");
        let mut vals: Vec<i64> = batch
            .rows()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        vals.sort();
        assert_eq!(vals, vec![2, 3]);
    }

    #[test]
    fn union_distinct_collects_nodes() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        let batch = run_ok(
            &catalog,
            &config,
            "SELECT src FROM edges UNION SELECT dst FROM edges",
        );
        assert_eq!(batch.len(), 4); // nodes 1..4
    }

    #[test]
    fn group_by_counts() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        let batch = run_ok(
            &catalog,
            &config,
            "SELECT src, COUNT(dst) AS n FROM edges GROUP BY src ORDER BY src",
        );
        let rows: Vec<(i64, i64)> = batch
            .rows()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 2), (2, 1), (3, 1)]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        let batch = run_ok(
            &catalog,
            &config,
            "SELECT COUNT(*), SUM(weight) FROM edges WHERE src = 999",
        );
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.rows()[0][0], Value::Int(0));
        assert!(batch.rows()[0][1].is_null());
    }

    #[test]
    fn left_join_pads_unmatched() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // node 4 has no outgoing edge
        let batch = run_ok(
            &catalog,
            &config,
            "SELECT n.dst, e2.dst FROM edges n LEFT JOIN edges e2 ON n.dst = e2.src \
             WHERE n.src = 3",
        );
        assert_eq!(batch.len(), 1);
        assert!(batch.rows()[0][1].is_null());
    }

    #[test]
    fn iterative_cte_rename_path_runs_n_iterations() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // value doubles every iteration: 1 -> 2^5 = 32
        let batch = run_ok(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT 1, 1
             ITERATE
                 SELECT k, v * 2 FROM t
             UNTIL 5 ITERATIONS)
             SELECT v FROM t",
        );
        assert_eq!(batch.rows()[0][0], Value::Int(32));
    }

    #[test]
    fn iterative_cte_merge_path_preserves_unmatched_rows() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // Only rows with k < 3 are updated; others must keep their value.
        let batch = run_ok(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges UNION SELECT dst, 0 FROM edges
             ITERATE
                 SELECT k, v + 1 FROM t WHERE k < 3
             UNTIL 4 ITERATIONS)
             SELECT k, v FROM t ORDER BY k",
        );
        let rows: Vec<(i64, i64)> = batch
            .rows()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 4), (2, 4), (3, 0), (4, 0)]);
    }

    #[test]
    fn iterative_cte_delta_termination_converges() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // v converges to 10 and stops changing -> delta 0 < 1 stops.
        let batch = run_ok(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT 1, 0
             ITERATE
                 SELECT k, LEAST(v + 4, 10) FROM t
             UNTIL DELTA < 1)
             SELECT v FROM t",
        );
        assert_eq!(batch.rows()[0][0], Value::Int(10));
    }

    #[test]
    fn iterative_cte_data_termination() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        let batch = run_ok(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT 1, 0
             ITERATE
                 SELECT k, v + 1 FROM t
             UNTIL (v >= 7))
             SELECT v FROM t",
        );
        assert_eq!(batch.rows()[0][0], Value::Int(7));
    }

    #[test]
    fn iterative_cte_updates_termination() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // One row updated per iteration; stop once >= 3 cumulative updates.
        let batch = run_ok(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT 1, 0
             ITERATE
                 SELECT k, v + 1 FROM t
             UNTIL 3 UPDATES)
             SELECT v FROM t",
        );
        assert_eq!(batch.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn duplicate_iteration_key_raises() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // Ri produces two rows for key 1 while updating a subset (merge
        // path), which must raise the paper's duplicate-key error.
        let err = run(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges UNION SELECT dst, 0 FROM edges
             ITERATE
                 SELECT 1, v + 1 FROM t WHERE k < 3
             UNTIL 2 ITERATIONS)
             SELECT * FROM t",
        )
        .unwrap_err();
        assert!(matches!(err, Error::DuplicateIterationKey { .. }));
    }

    #[test]
    fn runaway_loop_hits_safety_limit() {
        let catalog = Catalog::new();
        let config = EngineConfig::default().with_max_iterations(10);
        setup_edges(&catalog, config.partitions);
        let err = run(
            &catalog,
            &config,
            "WITH ITERATIVE t (k, v) AS (
                 SELECT 1, 0
             ITERATE
                 SELECT k, v + 1 FROM t
             UNTIL (v < 0))
             SELECT v FROM t",
        )
        .unwrap_err();
        assert!(matches!(err, Error::IterationLimitExceeded { .. }));
    }

    #[test]
    fn recursive_cte_transitive_closure() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        let batch = run_ok(
            &catalog,
            &config,
            "WITH RECURSIVE reach (node) AS (
                 SELECT dst FROM edges WHERE src = 1
                 UNION
                 SELECT e.dst FROM edges e JOIN reach r ON e.src = r.node
             )
             SELECT node FROM reach ORDER BY node",
        );
        let nodes: Vec<i64> = batch
            .rows()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(nodes, vec![2, 3, 4]);
    }

    #[test]
    fn recursive_union_all_counts_paths() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        setup_edges(&catalog, config.partitions);
        // 1->2->3->4, 1->3->4: two distinct paths reach node 4.
        let batch = run_ok(
            &catalog,
            &config,
            "WITH RECURSIVE walk (node) AS (
                 SELECT dst FROM edges WHERE src = 1
                 UNION ALL
                 SELECT e.dst FROM edges e JOIN walk w ON e.src = w.node
             )
             SELECT COUNT(*) FROM walk WHERE node = 4",
        );
        assert_eq!(batch.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn rename_path_moves_fewer_rows_than_merge_path() {
        let sql = "WITH ITERATIVE t (k, v) AS (
                 SELECT src, 0 FROM edges UNION SELECT dst, 0 FROM edges
             ITERATE
                 SELECT k, v + 1 FROM t
             UNTIL 10 ITERATIONS)
             SELECT COUNT(*) FROM t";
        let run_with = |config: &EngineConfig| -> (Batch, spinner_common::StatsSnapshot) {
            let catalog = Catalog::new();
            setup_edges(&catalog, config.partitions);
            let stmt = parse_sql(sql).unwrap();
            let spinner_parser::Statement::Query(q) = stmt else {
                panic!()
            };
            let plan = plan_query(&q, &CatalogProvider(&catalog), config).unwrap();
            let guard = QueryGuard::unlimited();
            let faults = FaultInjector::disabled();
            let ctx = StatementContext::new(&catalog, config, &guard, &faults, None);
            let batch = ctx.run_query(&plan).unwrap();
            (batch, ctx.stats.snapshot())
        };
        let optimized = EngineConfig::default();
        let naive = EngineConfig::default().with_minimize_data_movement(false);
        let (b1, s1) = run_with(&optimized);
        let (b2, s2) = run_with(&naive);
        assert_eq!(b1.rows(), b2.rows(), "optimization must not change results");
        assert_eq!(s2.merges, 10, "naive path merges every iteration");
        assert_eq!(s1.merges, 0, "rename path never merges");
        assert!(s1.renames >= 10);
        assert!(
            s2.merge_rows_examined > 0,
            "merge path does per-row work the rename path avoids"
        );
    }

    /// The merge as it was before the solution index: a key table over the
    /// working rows, every CTE row probed, the merged partition gathered
    /// anew from the two. Returns the merged partition, the delta and the
    /// update count.
    fn reference_merge(cte: &Block, work: &Block, key: usize) -> Result<(Block, Block, u64)> {
        let work_key = &work.columns()[key..=key];
        let mut index = KeyTable::new(1, work.rows());
        let mut holders = vec![spinner_common::NO_ROW; work.rows()];
        for (row, id) in (0..).zip(index.insert_all(work_key, work.rows())?) {
            if work_key[0].is_null(row as usize) {
                continue;
            }
            if holders[id as usize] != spinner_common::NO_ROW {
                return Err(Error::DuplicateIterationKey {
                    cte: "t".into(),
                    key: work_key[0].value(row as usize).to_string(),
                });
            }
            holders[id as usize] = row;
        }
        let cte_key = &cte.columns()[key..=key];
        let (mut merged, mut delta) = (Vec::new(), Vec::new());
        for (old, id) in index.find_all(cte_key, cte.rows()).into_iter().enumerate() {
            match (id != NIL).then(|| holders[id as usize]) {
                Some(new) if new != spinner_common::NO_ROW => {
                    if !work.eq_rows(new as usize, cte, old) {
                        delta.push(new);
                    }
                    merged.push(cte.rows() as u32 + new);
                }
                _ => merged.push(old as u32),
            }
        }
        let mut both = cte.clone();
        both.append(work);
        let updated = delta.len() as u64;
        Ok((both.take(&merged), work.take(&delta), updated))
    }

    /// The merge through the solution index, onto a copy of `cte`.
    fn indexed_merge(cte: &Block, work: &Block, key: usize) -> Result<(Block, Block, u64)> {
        let table = crate::keys::JoinTable::build(cte.columns()[key..=key].to_vec(), cte.rows())?;
        let merge = merge_partition(&table, (cte, work), key, "t")?;
        let mut merged = cte.clone();
        merged.overwrite_rows(work, &merge.writes);
        Ok((merged, work.take(&merge.delta), merge.delta.len() as u64))
    }

    /// Merge inputs `(cte, work)`: `(key, value)` rows whose keys repeat or
    /// are NULL, integers or floats (`-0.0` beside `0.0`), and whose values
    /// are integers or floats (`-0.0` beside `0.0`) or NULL — each column
    /// of one type on both sides, as a loop's state is.
    fn merge_inputs(
    ) -> impl proptest::strategy::Strategy<Value = (Vec<spinner_common::Row>, Vec<spinner_common::Row>)>
    {
        use proptest::prelude::*;
        let number = |n: i64, float: bool| match (n, float) {
            (n, false) => Value::Int(n),
            (0, true) => Value::Float(-0.0),
            (n, true) => Value::Float((n - 1) as f64),
        };
        let rows = move |(float_keys, float_values): (bool, bool)| {
            let key = (0i64..6).prop_map(move |n| match n {
                5 => Value::Null,
                n => number(n, float_keys),
            });
            let value = (0i64..4).prop_map(move |n| match n {
                3 => Value::Null,
                n => number(n, float_values),
            });
            proptest::collection::vec((key, value).prop_map(|(k, v)| row_of([k, v])), 0..16)
        };
        (any::<bool>(), any::<bool>()).prop_flat_map(move |types| (rows(types), rows(types)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The merge through the solution index is the merge it replaced,
        /// cell for cell: the merged rows, the delta in its order and the
        /// update count — or the same duplicate key named.
        #[test]
        fn indexed_merge_equals_the_reference_merge((cte, work) in merge_inputs()) {
            let exact = |block: &Block| format!("{:?}", block.to_rows());
            let (cte, work) = (Block::from_rows(2, cte), Block::from_rows(2, work));
            match (indexed_merge(&cte, &work, 0), reference_merge(&cte, &work, 0)) {
                (Ok((merged, delta, updated)), Ok((want, want_delta, want_updated))) => {
                    proptest::prop_assert_eq!(exact(&merged), exact(&want));
                    proptest::prop_assert_eq!(exact(&delta), exact(&want_delta));
                    proptest::prop_assert_eq!(updated, want_updated);
                }
                (Err(e), Err(want)) => proptest::prop_assert_eq!(format!("{e:?}"), format!("{want:?}")),
                (got, want) => proptest::prop_assert!(false, "{got:?} against {want:?}"),
            }
        }
    }

    /// A `UNION ALL` recursion's rounds append to the table's partitions
    /// where they lie: the column buffer the first round grew is the one
    /// every later round grows, so no round copies what earlier ones
    /// appended.
    #[test]
    fn an_append_round_copies_only_what_it_appends() {
        let catalog = Catalog::new();
        let config = EngineConfig::default().with_partitions(1);
        let (guard, faults) = (QueryGuard::unlimited(), FaultInjector::disabled());
        let ctx = StatementContext::new(&catalog, &config, &guard, &faults, None);
        let schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int)]));
        let l = LoopStep {
            cte: "walk".into(),
            cte_display_name: "walk".into(),
            kind: LoopKind::FixedPoint {
                working: "work".into(),
                union_all: true,
            },
            body: Vec::new(),
            termination: TerminationPlan::Delta { threshold: 1 },
            key: 0,
            schema: Arc::clone(&schema),
        };
        let row = |n: i64| {
            Partitioned::from_rows(Arc::clone(&schema), vec![row_of([Value::Int(n)])], None, 1)
        };
        // The table's one column: where its cells are, how many, and how
        // many fit there.
        let buffer = |ctx: &StatementContext<'_>| {
            let table = ctx.registry.get("walk").unwrap();
            match &*table.parts[0].columns()[0] {
                Column::Int(cells, _) => (cells.as_ptr(), cells.len(), cells.capacity()),
                other => panic!("{other:?}"),
            }
        };
        ctx.registry.put("walk", row(0));
        // Before round 1 the delta is the table itself.
        ctx.registry
            .put("__delta_walk", ctx.registry.get("walk").unwrap());
        let mut seen = None;
        let mut before = buffer(&ctx);
        for round in 1..=64 {
            ctx.registry.put("work", row(round));
            let added = ctx.append_new_rows(&l, "work", "__delta_walk", &mut seen);
            assert_eq!(added.unwrap(), 1);
            let after = buffer(&ctx);
            assert_eq!(after.1, before.1 + 1);
            assert!(
                after.0 == before.0 || before.1 == before.2,
                "round {round} moved a buffer with room to spare"
            );
            before = after;
        }
        let all: Vec<i64> = ctx
            .registry
            .get("walk")
            .unwrap()
            .gather()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(all, (0..=64).collect::<Vec<_>>());
    }

    /// The solution index holds only for the CTE buffers it was built
    /// over. A CTE re-`put` as new buffers holding the same rows — what a
    /// spill and its read-back, or an exchange that routed rows, gives it
    /// — finds the index stale: the merge rebuilds it over them and merges
    /// what the kept index merges, cell for cell.
    #[test]
    fn a_cte_with_new_buffers_is_reindexed_by_the_merge() {
        let catalog = Catalog::new();
        let config = EngineConfig::default().with_partitions(2);
        let (guard, faults) = (QueryGuard::unlimited(), FaultInjector::disabled());
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let table = |cells: &[(i64, i64)]| {
            let rows = cells
                .iter()
                .map(|&(k, v)| row_of([Value::Int(k), Value::Int(v)]));
            Partitioned::from_rows(Arc::clone(&schema), rows.collect(), Some(0), 2)
        };
        let cells = [(1, 10), (2, 20), (3, 30), (4, 40)];
        // Index the CTE, merge a working table into it — re-`put` first as
        // a copy, or not — and return the merged rows, the update count,
        // whether the index was stale and whether the merge rebuilt it.
        let merge = |copy: bool| {
            let ctx = StatementContext::new(&catalog, &config, &guard, &faults, None);
            let cte = table(&cells);
            let built = ctx.solutions.build("t", &cte, 0).unwrap();
            let cte = if copy { table(&cells) } else { cte };
            let stale = ctx.solutions.tables("t", &cte.parts).is_none();
            ctx.registry.put("t", cte);
            ctx.registry
                .put("work", table(&[(2, 21), (3, 30), (5, 50)]));
            let updated = ctx.merge_tables("t", "work", "merged", 0, "t", None);
            let merged = ctx.registry.get("merged").unwrap();
            let index = ctx.solutions.tables("t", &merged.parts);
            let index = index.expect("the merge stamps the index");
            let rows = format!("{:?}", merged.gather());
            (rows, updated.unwrap(), stale, !Arc::ptr_eq(&index, &built))
        };
        let (kept, kept_updated, stale, rebuilt) = merge(false);
        assert!(!stale && !rebuilt);
        let (rows, updated, stale, rebuilt) = merge(true);
        assert!(stale && rebuilt, "stale {stale}, rebuilt {rebuilt}");
        assert_eq!((rows, updated), (kept, kept_updated));
    }

    /// With spilling on, the intermediate-bytes budget holds at a loop
    /// body's peak, not only after the fold: a merge loop whose CTE and
    /// working table together break the budget fails typed, although the
    /// merged CTE alone fits it.
    #[test]
    fn a_loop_body_is_held_to_the_budget_before_its_fold() {
        let catalog = Catalog::new();
        let config = EngineConfig::default();
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        catalog
            .create_table("t0", schema, config.partitions, Some(0), None)
            .unwrap();
        let rows = (0..64).map(|k| row_of([Value::Int(k), Value::Int(0)]));
        catalog
            .with_table_mut("t0", |t| t.insert(rows.collect()))
            .unwrap();
        let cte = catalog.with_table("t0", |t| Ok(t.snapshot())).unwrap();
        let cte = cte.estimated_bytes();
        let stmt = parse_sql(
            "WITH ITERATIVE t (k, v) AS (SELECT k, v FROM t0 \
             ITERATE SELECT k, v + 1 FROM t WHERE k >= 0 UNTIL 2 ITERATIONS) \
             SELECT * FROM t",
        )
        .unwrap();
        let spinner_parser::Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        let plan = plan_query(&q, &CatalogProvider(&catalog), &config).unwrap();
        let run_within = |limit: u64| {
            let guard = QueryGuard::unlimited().with_max_intermediate_bytes(limit);
            let env = Arc::new(SpillEnv::new(u64::MAX, None, None));
            let faults = FaultInjector::disabled();
            let ctx = StatementContext::new(&catalog, &config, &guard, &faults, Some(env));
            ctx.run_query(&plan)
        };
        match run_within(cte + cte / 2) {
            Err(Error::ResourceExhausted { resource, used, .. }) => {
                assert_eq!((resource.as_str(), used), ("intermediate_bytes", 2 * cte));
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(run_within(2 * cte).unwrap().len(), 64);
    }

    #[test]
    fn parallel_partitions_match_sequential() {
        let sql = "SELECT src, COUNT(dst) AS n FROM edges GROUP BY src ORDER BY src";
        let catalog = Catalog::new();
        let seq = EngineConfig::default();
        setup_edges(&catalog, seq.partitions);
        let par = EngineConfig::default().with_parallel_partitions(true);
        let b1 = run_ok(&catalog, &seq, sql);
        let b2 = run_ok(&catalog, &par, sql);
        assert_eq!(b1.rows(), b2.rows());
    }
}
