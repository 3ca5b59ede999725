//! The `Database` façade: parse → plan → optimize → execute.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spinner_common::counters::Group;
use spinner_common::memory::SpillFaultHook;
use spinner_common::{
    AdmissionController, AdmissionPermit, Batch, CounterBlock, EngineConfig, Error, FaultSite,
    MemoryGate, QueryClass, QueryGuard, QueryProfile, Result, Row, Schema, SchemaRef,
    StatsSnapshot, Tracer,
};
use spinner_exec::{FaultInjector, StatementContext};
use spinner_parser::{parse_sql, parse_statements, Statement};
use spinner_plan::builder::SchemaProvider;
use spinner_plan::{plan_statement, PlannedStatement, QueryPlan};
use spinner_storage::{
    Catalog, InputRecord, JournalEntry, QueryJournal, ResumeSeed, SpillEnv, SpillHandle,
};

use crate::restart::{self, AdoptedQuery, AdoptionReport, ResumedSummary};

/// An in-process DBSpinner database instance.
///
/// Thread-compatible: wrap in `Arc` to share across sessions. Statements
/// own their execution state (temp registry, loop checkpoints, counters
/// — one [`StatementContext`] each), so concurrent queries never observe
/// — or clear — each other's intermediate results or statistics; catalog
/// access uses internal locks. Configuration changes (`set_config`)
/// still require `&mut self`.
pub struct Database {
    catalog: Catalog,
    config: EngineConfig,
    /// Counters of the plan-executing statement that finished last, kept
    /// for [`Database::stats`]. The live counters belong to the running
    /// statements.
    last_stats: Mutex<StatsSnapshot>,
    /// Chaos-testing fault injector, rebuilt whenever the config changes.
    /// Disabled (zero overhead beyond an emptiness check) by default.
    /// `Arc`'d so the spill manager can fire its sites through it.
    faults: Arc<FaultInjector>,
    /// Memory accountant + spill manager, built when the config sets
    /// `spill_threshold_bytes` and installed into every statement's
    /// temp registry and checkpoint store. `None` preserves the
    /// fail-fast budget semantics.
    spill: Option<Arc<SpillEnv>>,
    /// Global admission controller, built when the config sets
    /// `max_concurrent_queries`. Every plan-executing statement acquires
    /// an [`AdmissionPermit`] before touching the executor; `None`
    /// (the default) admits everything immediately.
    admission: Option<Arc<AdmissionController>>,
    /// Query journal for crash-consistent resumption, present when the
    /// config enables `resumable_queries`. Iterative statements register
    /// here before their first checkpoint; a clean shutdown deletes the
    /// file, a hard kill leaves it for the next process's adoption pass.
    journal: Option<Arc<QueryJournal>>,
    /// Adoption report from the startup scan: queries rehydrated from a
    /// dead engine's journal, waiting for [`Database::resume_adopted`],
    /// plus what was skipped and why.
    adoption: Mutex<AdoptionReport>,
    /// Results of resumed queries, keyed by their stable (pre-crash)
    /// handle, held for a reconnecting client's ATTACH. One-shot: the
    /// attach takes the result out.
    resumed: Mutex<HashMap<u64, super::QueryResult>>,
    /// Next stable query handle. Starts past the highest adopted handle
    /// so handles stay unique across the restart.
    next_query_id: AtomicU64,
}

/// Journaling/resume context of one statement, threaded from the SQL
/// entry points down to plan execution. `Default` = a plain statement:
/// no journal entry, no resume seed.
#[derive(Default)]
struct ExecCtx<'a> {
    /// Raw SQL to journal when the plan is iterative and the engine is
    /// resumable. `None` for inner plans (INSERT sources, UPDATE FROM)
    /// and script statements, which are never adopted.
    sql: Option<&'a str>,
    /// Adopted resume: (stable query id, loop key, seed). The seed is
    /// primed into the statement's checkpoint store for the loop driver.
    resume: Option<(u64, String, ResumeSeed)>,
    /// Told the statement's stable handle once its journal entry is on
    /// disk — on the statement's own thread, before the first iteration.
    on_handle: Option<&'a mut dyn FnMut(u64)>,
}

/// Adapts the engine's spill environment to the admission controller's
/// [`MemoryGate`]: admission defers (rather than admits-then-spills) when
/// tracked intermediate state is already over the spill threshold. Lives
/// here because `spinner-common` cannot see the storage crate's
/// [`SpillEnv`].
#[derive(Debug)]
struct SpillMemoryGate(Arc<SpillEnv>);

impl MemoryGate for SpillMemoryGate {
    fn over_threshold(&self) -> bool {
        self.0.accountant.over_threshold()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new(EngineConfig::default()).expect("default config is valid")
    }
}

struct CatalogProvider<'a>(&'a Catalog);

impl SchemaProvider for CatalogProvider<'_> {
    fn table_schema(&self, name: &str) -> Option<SchemaRef> {
        self.0.with_table(name, |t| Ok(Arc::clone(t.schema()))).ok()
    }

    fn table_primary_key(&self, name: &str) -> Option<usize> {
        self.0.with_table(name, |t| Ok(t.primary_key())).ok()?
    }
}

impl Database {
    /// New database with the given configuration.
    ///
    /// Fails with [`Error::InvalidConfig`] when the configuration is
    /// inconsistent (zero partitions, zero timeout, malformed fault
    /// plans — see [`EngineConfig::validate`]).
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let mut db = Database {
            catalog: Catalog::new(),
            config: EngineConfig::default(),
            last_stats: Mutex::new(StatsSnapshot::default()),
            faults: Arc::new(FaultInjector::disabled()),
            spill: None,
            admission: None,
            journal: None,
            adoption: Mutex::new(AdoptionReport::default()),
            resumed: Mutex::new(HashMap::new()),
            next_query_id: AtomicU64::new(1),
        };
        db.install_config(config);
        Ok(db)
    }

    /// Install a validated config: rebuild the fault injector and the
    /// spill environment handed to each statement's execution state.
    /// With `resumable_queries` on, this is also where restart recovery
    /// happens: dead engines' journals are scanned and rehydrated into
    /// memory *before* orphan GC deletes their files.
    fn install_config(&mut self, config: EngineConfig) {
        self.faults = Arc::new(FaultInjector::from_config(&config));
        // Resumable queries need the durable spill machinery even when no
        // memory threshold is set: an effectively-infinite threshold gives
        // checkpoints a sealed on-disk home without ever spilling for
        // memory pressure.
        let threshold = config
            .spill_threshold_bytes
            .or(config.resumable_queries.then_some(u64::MAX));
        self.journal = None;
        self.spill = threshold.map(|threshold| {
            // Spill I/O fires its fault sites through the engine's injector,
            // so it composes with the fault matrix like every other site.
            let hook: Arc<dyn SpillFaultHook> = self.faults.clone();
            Arc::new(
                SpillEnv::new(threshold, config.spill_dir.as_deref(), Some(hook))
                    .with_durable(config.durable_spill || config.resumable_queries),
            )
        });
        if config.resumable_queries {
            if let (Some(env), Some(dir)) = (&self.spill, config.spill_dir.as_deref()) {
                // Adopt-by-read: rehydrate dead engines' journaled queries
                // into memory first, so the GC below can stay simple — by
                // the time it deletes a dead pid's files, everything worth
                // keeping is already off disk.
                let report = restart::scan(std::path::Path::new(dir), &config);
                let max_id = report
                    .adopted
                    .iter()
                    .map(|q| q.query_id)
                    .chain(report.skipped.iter().map(|(id, _)| *id))
                    .max()
                    .unwrap_or(0);
                self.next_query_id
                    .store(max_id + 1, std::sync::atomic::Ordering::Relaxed);
                *self.adoption.lock().unwrap_or_else(|e| e.into_inner()) = report;
                self.journal = Some(Arc::new(QueryJournal::new(
                    std::path::Path::new(dir),
                    env.manager.tag(),
                    true,
                    Arc::clone(env.metrics()),
                )));
            }
        }
        if let Some(env) = &self.spill {
            // Startup recovery: reclaim the files crashed processes left
            // in this directory before writing our own. Runs after
            // adoption has read what it needs.
            env.manager.recover_orphans();
        }
        self.admission = config.max_concurrent_queries.map(|max| {
            let gate = self
                .spill
                .as_ref()
                .map(|env| Arc::new(SpillMemoryGate(Arc::clone(env))) as Arc<dyn MemoryGate>);
            Arc::new(AdmissionController::new(
                max,
                config.admission_queue_limit,
                config.admission_timeout_ms,
                config.admission_batch_timeout_ms,
                gate,
            ))
        });
        self.config = config;
    }

    /// A fresh execution context for one statement, wired to the engine's
    /// spill environment (shared accountant: concurrent
    /// statements contend for the same memory threshold, as they would
    /// for real memory).
    fn statement<'a>(&'a self, guard: &'a QueryGuard) -> StatementContext<'a> {
        StatementContext::new(
            &self.catalog,
            &self.config,
            guard,
            &self.faults,
            self.spill.clone(),
        )
    }

    /// End of a plan-executing statement, on every exit path: release its
    /// state, fold in what the engine-wide sources (spill manager, fault
    /// injector) counted while it ran, and keep the result for
    /// [`Database::stats`]. Those sources cannot tell statements apart:
    /// under concurrency their readings go to whichever statement
    /// finishes first.
    fn finish_statement(&self, stmt: StatementContext<'_>) -> StatsSnapshot {
        let mut stats = stmt.stats.snapshot();
        drop(stmt);
        if let Some(env) = &self.spill {
            stats.absorb(&env.metrics().take());
        }
        if self.faults.is_enabled() {
            stats.absorb(&self.faults.counters().take());
        }
        *self.last_stats.lock().unwrap_or_else(|e| e.into_inner()) = stats;
        stats
    }

    /// New database with every DBSpinner optimization disabled — the
    /// naive-rewrite baseline of the paper's experiments.
    pub fn naive() -> Self {
        Database::new(EngineConfig::naive()).expect("naive config is valid")
    }

    /// Current configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replace the configuration (affects subsequent statements).
    /// Validates like [`Database::new`]; on error the old configuration
    /// is kept.
    pub fn set_config(&mut self, config: EngineConfig) -> Result<()> {
        config.validate()?;
        self.install_config(config);
        Ok(())
    }

    /// Number of live entries in session-shared temp-result state.
    /// Always 0 between statements — and, since statements own their
    /// temp registries (created at entry, dropped on every exit path,
    /// taking any spill files with them), structurally 0 here: no
    /// intermediate state outlives the statement that made it, even
    /// after injected faults or tripped guardrails.
    pub fn temp_result_count(&self) -> usize {
        0
    }

    /// Direct catalog access (datagen loaders, tests).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The global admission controller, present when the config sets
    /// `max_concurrent_queries`. The server uses it for graceful drain
    /// (`begin_drain` + `wait_idle`) and observability; tests use its
    /// snapshot for the no-leaked-slots invariant.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// Bytes of intermediate state currently tracked as resident by the
    /// memory accountant (0 without a spill environment). Between
    /// statements this returns to its baseline — the leak checks assert
    /// exactly that.
    pub fn resident_tracked_bytes(&self) -> u64 {
        self.spill
            .as_ref()
            .map(|env| env.accountant.resident_bytes())
            .unwrap_or(0)
    }

    /// Number of regions the memory accountant currently tracks, resident
    /// or spilled (0 without a spill environment). Companion to
    /// [`Database::resident_tracked_bytes`] for leak checks.
    pub fn tracked_region_count(&self) -> usize {
        self.spill
            .as_ref()
            .map(|env| env.accountant.region_count())
            .unwrap_or(0)
    }

    /// Route a hit of `site` through the chaos-testing fault injector.
    /// Used by the server front-end for its `Accept`/`SessionRead`/
    /// `SessionWrite` sites, which fire outside any executor pipeline.
    pub fn inject_fault(&self, site: FaultSite) -> Result<()> {
        self.faults.hit(site)
    }

    /// Counters of the plan-executing statement (query or DML — not DDL
    /// or plain `EXPLAIN`) that finished last.
    ///
    /// Every statement counts into its own context, so a snapshot never
    /// mixes two statements, and work done by a failed or cancelled
    /// statement shows here only until the next one finishes. With
    /// several sessions on one database, "last" is across all of them:
    /// use `EXPLAIN ANALYZE` for counters tied to one statement.
    pub fn stats(&self) -> StatsSnapshot {
        *self.last_stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`Database::stats`], leaving zeroed counters behind.
    pub fn take_stats(&self) -> StatsSnapshot {
        std::mem::take(&mut *self.last_stats.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Execute one SQL statement under the session-default guardrails
    /// (the config's `query_timeout_ms` and `max_*` budgets, unlimited
    /// unless set).
    pub fn execute(&self, sql: &str) -> Result<super::QueryResult> {
        self.execute_with_guard(sql, &QueryGuard::from_config(&self.config))
    }

    /// Execute one SQL statement under a caller-supplied [`QueryGuard`].
    ///
    /// Share the guard (e.g. via `Arc`) with another thread to cancel a
    /// running query, or build it with a tighter deadline/budget than
    /// the session defaults.
    pub fn execute_with_guard(&self, sql: &str, guard: &QueryGuard) -> Result<super::QueryResult> {
        self.execute_announcing(sql, guard, &mut |_| {})
    }

    /// [`Database::execute_with_guard`] for a caller that must learn the
    /// statement's stable query handle while it still runs: `on_handle`
    /// is called once, on this thread, when a resumable engine has
    /// journaled the statement — before its first loop iteration — and
    /// never for statements that are not journaled. The server sends the
    /// `HANDLE` frame from it, so a client holds the handle before any
    /// crash can happen.
    pub fn execute_announcing(
        &self,
        sql: &str,
        guard: &QueryGuard,
        on_handle: &mut dyn FnMut(u64),
    ) -> Result<super::QueryResult> {
        let stmt = parse_sql(sql)?;
        let ctx = ExecCtx {
            sql: Some(sql),
            resume: None,
            on_handle: Some(on_handle),
        };
        self.execute_parsed(&stmt, guard, ctx)
    }

    /// Execute a `;`-separated script, returning each statement's result.
    /// Each statement gets a fresh session-default guard, so a
    /// `query_timeout_ms` budget applies per statement, not per script.
    /// Script statements are not journaled for restart resumption (their
    /// per-statement text is not tracked).
    pub fn execute_script(&self, sql: &str) -> Result<Vec<super::QueryResult>> {
        parse_statements(sql)?
            .iter()
            .map(|s| {
                let guard = QueryGuard::from_config(&self.config);
                self.execute_parsed(s, &guard, ExecCtx::default())
            })
            .collect()
    }

    /// Execute a query and return its rows (errors for DDL/DML).
    pub fn query(&self, sql: &str) -> Result<Batch> {
        self.execute(sql)?.into_rows()
    }

    /// [`Database::query`] under a caller-supplied [`QueryGuard`].
    pub fn query_with_guard(&self, sql: &str, guard: &QueryGuard) -> Result<Batch> {
        self.execute_with_guard(sql, guard)?.into_rows()
    }

    /// EXPLAIN a statement without executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match self.execute(&format!("EXPLAIN {sql}"))? {
            super::QueryResult::Explain(text) => Ok(text),
            _ => unreachable!("EXPLAIN always yields Explain"),
        }
    }

    /// `EXPLAIN ANALYZE`: execute the query and return its
    /// [`QueryProfile`] — per-step actual row counts, rows moved, timings
    /// and per-loop-iteration convergence metrics.
    pub fn explain_analyze(&self, sql: &str) -> Result<QueryProfile> {
        match self.execute(&format!("EXPLAIN ANALYZE {sql}"))? {
            super::QueryResult::Analyze(profile) => Ok(profile),
            _ => unreachable!("EXPLAIN ANALYZE always yields Analyze"),
        }
    }

    /// Physical EXPLAIN: the optimized step program with every logical
    /// fragment lowered to physical operators, showing the hash joins and
    /// the exchange (shuffle/gather/broadcast) operators the MPP planner
    /// inserted.
    pub fn explain_physical(&self, sql: &str) -> Result<String> {
        let stmt = parse_sql(sql)?;
        let provider = CatalogProvider(&self.catalog);
        let planned = plan_statement(&stmt, &provider, &self.config)?;
        let planned = spinner_optimizer::optimize_statement(planned, &self.config)?;
        let PlannedStatement::Query(plan) = planned else {
            return Err(Error::unsupported(
                "physical EXPLAIN is only available for queries",
            ));
        };
        let mut out = String::new();
        let mut step_no = 1;
        explain_physical_steps(&plan.steps, &mut step_no, (0, None), &mut out)?;
        out.push_str(&format!("{step_no}. Return:\n"));
        let phys = spinner_exec::create_physical_plan(&plan.root, &self.config)?;
        phys.display_indent(2, &mut out);
        Ok(out)
    }

    /// Bulk-load a table programmatically (used by the dataset generators;
    /// far faster than millions of INSERT statements).
    pub fn create_table_from_rows(
        &self,
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        primary_key: Option<usize>,
        partition_key: Option<usize>,
    ) -> Result<usize> {
        self.catalog.create_table(
            name,
            Arc::new(schema),
            self.config.partitions,
            partition_key.or(primary_key).or(Some(0)),
            primary_key,
        )?;
        self.catalog.with_table_mut(name, |t| t.insert(rows))
    }

    fn execute_parsed(
        &self,
        stmt: &Statement,
        guard: &QueryGuard,
        ctx: ExecCtx<'_>,
    ) -> Result<super::QueryResult> {
        let provider = CatalogProvider(&self.catalog);
        let planned = plan_statement(stmt, &provider, &self.config)?;
        let planned = spinner_optimizer::optimize_statement(planned, &self.config)?;
        self.execute_planned(planned, guard, ctx)
    }

    fn execute_planned(
        &self,
        planned: PlannedStatement,
        guard: &QueryGuard,
        ctx: ExecCtx<'_>,
    ) -> Result<super::QueryResult> {
        // DDL and plain EXPLAIN execute no plan: they need no admission,
        // no execution context, and leave the last statement's counters
        // readable.
        let planned = match planned {
            PlannedStatement::Explain {
                statement,
                analyze: false,
            } => return Ok(super::QueryResult::Explain(explain_planned(&statement))),
            PlannedStatement::CreateTable {
                name,
                schema,
                primary_key,
                partition_key,
                if_not_exists,
            } => {
                let result = self.catalog.create_table(
                    &name,
                    Arc::new(schema),
                    self.config.partitions,
                    partition_key,
                    primary_key,
                );
                return match result {
                    Err(Error::TableExists(_)) if if_not_exists => Ok(super::QueryResult::Ddl),
                    Err(e) => Err(e),
                    Ok(()) => Ok(super::QueryResult::Ddl),
                };
            }
            PlannedStatement::DropTable { name, if_exists } => {
                return match self.catalog.drop_table(&name) {
                    Err(Error::TableNotFound(_)) if if_exists => Ok(super::QueryResult::Ddl),
                    Err(e) => Err(e),
                    Ok(()) => Ok(super::QueryResult::Ddl),
                };
            }
            executes_plan => executes_plan,
        };
        // Admission gates exactly the plan-executing statements. The
        // permit is RAII — held for the rest of this function, released
        // (waking the next queued query) on every exit path including
        // errors and panics.
        let permit: Option<AdmissionPermit> = match &self.admission {
            Some(ctrl) => Some(ctrl.admit(admission_class(&planned))?),
            None => None,
        };
        // EXPLAIN ANALYZE runs the query it wraps with tracing on and
        // answers with the profile instead of the rows.
        let (planned, analyze) = match planned {
            PlannedStatement::Explain { statement, .. } => (*statement, true),
            other => (other, false),
        };
        if analyze && !matches!(planned, PlannedStatement::Query(_)) {
            return Err(Error::unsupported(
                "EXPLAIN ANALYZE is only available for queries",
            ));
        }
        let mut stmt = self.statement(guard);
        if analyze {
            stmt.tracer = Tracer::new();
        }
        if let Some(p) = &permit {
            stmt.stats.admission_waited_us.set(p.waited_us());
            stmt.stats.admission_queue_depth.set(p.queue_depth());
        }
        let result = self.run_statement(planned, &stmt, ctx);
        let profile = analyze.then(|| stmt.tracer.finish());
        let stats = self.finish_statement(stmt);
        let result = result?;
        let Some(mut profile) = profile else {
            return Ok(result);
        };
        // Spill, scheduling and durability activity is counted per
        // statement, not per span; attach it to the profile.
        profile.attach_counters(&stats);
        if let Some(ctrl) = &self.admission {
            profile.admission = CounterBlock::new(
                Group::Admission,
                &[
                    stats.admission_waited_us / 1000,
                    stats.admission_queue_depth,
                    ctrl.snapshot().shed_total(),
                ],
            );
        }
        Ok(super::QueryResult::Analyze(profile))
    }

    /// Run one plan-executing statement in its context.
    fn run_statement(
        &self,
        planned: PlannedStatement,
        stmt: &StatementContext<'_>,
        ctx: ExecCtx<'_>,
    ) -> Result<super::QueryResult> {
        match planned {
            PlannedStatement::Query(plan) => {
                let batch = self.run_query_plan(&plan, stmt, ctx)?;
                Ok(super::QueryResult::Rows(batch))
            }
            dml => Ok(super::QueryResult::Affected {
                rows: spinner_exec::dml::run(stmt, &dml)?,
            }),
        }
    }

    fn run_query_plan(
        &self,
        plan: &QueryPlan,
        stmt: &StatementContext<'_>,
        ctx: ExecCtx<'_>,
    ) -> Result<Batch> {
        let mut forced_id = None;
        if let Some((query_id, loop_key, seed)) = ctx.resume {
            stmt.checkpoints.prime_resume(&loop_key, seed);
            forced_id = Some(query_id);
        }
        // Keep the input-snapshot handles alive while the query runs:
        // dropping them deletes the files, while a crash leaks them for
        // the adoption pass.
        let _input_handles =
            self.begin_statement_journal(stmt, plan, ctx.sql, forced_id, ctx.on_handle);
        let result = stmt.run_query(plan);
        // Finish the journal entry before the input snapshots go, so a
        // crash in between cannot leave an entry whose inputs are gone.
        stmt.checkpoints.clear();
        result
    }

    /// If this statement is journalable — resumable engine, raw SQL known,
    /// plan contains a loop — write durable input-table snapshots, record
    /// the journal entry, and attach the journal to the statement's
    /// checkpoint store so every committed epoch lands in it, then tell
    /// `on_handle` the entry's id. Returns the snapshot handles the caller
    /// must keep alive for the statement. Best-effort: any failure here
    /// simply leaves the statement non-resumable; it never fails the
    /// query.
    fn begin_statement_journal(
        &self,
        stmt: &StatementContext<'_>,
        plan: &QueryPlan,
        sql: Option<&str>,
        forced_id: Option<u64>,
        on_handle: Option<&mut dyn FnMut(u64)>,
    ) -> Vec<SpillHandle> {
        let (Some(journal), Some(env), Some(sql)) = (&self.journal, &self.spill, sql) else {
            return Vec::new();
        };
        let Some(loop_key) = plan_loop_key(plan) else {
            return Vec::new();
        };
        // Snapshot every base table to sealed files so adoption can
        // recreate the catalog the statement planned against. (Catalogs
        // here are small; a selective plan-referenced-only snapshot is a
        // future refinement.)
        let mut inputs = Vec::new();
        let mut handles = Vec::new();
        for name in self.catalog.table_names() {
            let Ok(table) = self.catalog.get(&name) else {
                continue;
            };
            let data = table.snapshot();
            match env
                .manager
                .write_partitioned(&format!("input_{name}"), &data)
            {
                Ok(handle) => {
                    inputs.push(InputRecord {
                        table: name.clone(),
                        file: handle.file_name(),
                        primary_key: table.primary_key(),
                        partition_key: table.partition_key(),
                    });
                    handles.push(handle);
                }
                // Without a complete input set the entry could never be
                // adopted faithfully; skip journaling this statement.
                Err(_) => return Vec::new(),
            }
        }
        let query_id =
            forced_id.unwrap_or_else(|| self.next_query_id.fetch_add(1, Ordering::Relaxed));
        journal.begin(JournalEntry {
            query_id,
            sql: sql.to_string(),
            settings: self.config.settings_overlay(),
            loop_key,
            epochs: Vec::new(),
            inputs,
        });
        stmt.checkpoints.set_journal(Arc::clone(journal), query_id);
        // After `begin`: the client never holds a handle whose entry has
        // not been written.
        if let Some(on_handle) = on_handle {
            on_handle(query_id);
        }
        handles
    }

    /// Resume every query adopted by the startup scan: recreate its input
    /// tables, re-plan its SQL, seed the loop from the adopted checkpoint
    /// and run it to completion. Results are parked for
    /// [`Database::take_resumed_result`]; failures are appended to the
    /// skipped list with a reason. Returns one summary per resumed query.
    pub fn resume_adopted(&self) -> Vec<ResumedSummary> {
        let adopted: Vec<AdoptedQuery> = {
            let mut report = self.adoption.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut report.adopted)
        };
        let mut summaries = Vec::new();
        for query in adopted {
            let query_id = query.query_id;
            match self.resume_one(query) {
                Ok(summary) => summaries.push(summary),
                Err(e) => self
                    .adoption
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .skipped
                    .push((query_id, format!("resume failed: {e}"))),
            }
        }
        summaries
    }

    fn resume_one(&self, query: AdoptedQuery) -> Result<ResumedSummary> {
        for input in &query.inputs {
            if !self.catalog.contains(&input.table) {
                self.catalog.create_table(
                    &input.table,
                    Arc::clone(&input.data.schema),
                    self.config.partitions,
                    input.partition_key.or(input.primary_key).or(Some(0)),
                    input.primary_key,
                )?;
                self.catalog
                    .with_table_mut(&input.table, |t| t.append(&input.data))?;
            }
        }
        let stmt = parse_sql(&query.sql)?;
        let provider = CatalogProvider(&self.catalog);
        let planned = plan_statement(&stmt, &provider, &self.config)?;
        let planned = spinner_optimizer::optimize_statement(planned, &self.config)?;
        // The checkpointed tables are keyed by the dead engine's internal
        // CTE names; temp-name allocation is deterministic per statement,
        // so a re-plan of the same SQL under the same settings reproduces
        // them. Verify rather than trust.
        let replanned_key = planned_loop_key(&planned);
        if replanned_key.as_deref() != Some(query.loop_key.as_str()) {
            return Err(Error::execution(format!(
                "re-planned loop key {:?} does not match journaled '{}'",
                replanned_key, query.loop_key
            )));
        }
        let guard = QueryGuard::from_config(&self.config);
        let result = self.execute_planned(
            planned,
            &guard,
            ExecCtx {
                sql: Some(&query.sql),
                resume: Some((query.query_id, query.loop_key.clone(), query.seed.clone())),
                on_handle: None,
            },
        )?;
        let snap = self.stats();
        let rows = match &result {
            super::QueryResult::Rows(batch) => batch.len() as u64,
            _ => 0,
        };
        self.resumed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(query.query_id, result);
        Ok(ResumedSummary {
            query_id: query.query_id,
            adopted_epoch: snap.restart_adopted_epoch,
            resumed_iteration: snap.restart_resumed_iteration,
            replayed_iterations: snap.restart_replayed_iterations,
            rows,
        })
    }

    /// Take the parked result of a resumed query (one-shot — the frame is
    /// sent once). [`Error::UnknownHandle`] if the handle was never
    /// issued, already fetched, or not adopted across the restart.
    pub fn take_resumed_result(&self, query_id: u64) -> Result<super::QueryResult> {
        self.resumed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&query_id)
            .ok_or(Error::UnknownHandle { handle: query_id })
    }

    /// Journal entries the adoption pass could not resume, with reasons
    /// (observability; also fed by [`Database::resume_adopted`] failures).
    pub fn adoption_skipped(&self) -> Vec<(u64, String)> {
        self.adoption
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .skipped
            .clone()
    }

    /// Number of adopted queries still waiting for
    /// [`Database::resume_adopted`].
    pub fn adoption_pending(&self) -> usize {
        self.adoption
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .adopted
            .len()
    }
}

/// Internal CTE name of the first loop operator in a query plan's step
/// program, if any — the identity the journal and checkpoint store key on.
fn plan_loop_key(plan: &QueryPlan) -> Option<String> {
    fn find(steps: &[spinner_plan::Step]) -> Option<String> {
        for step in steps {
            match step {
                spinner_plan::Step::Loop(l) => return Some(l.cte.clone()),
                _ => continue,
            }
        }
        None
    }
    find(&plan.steps)
}

/// [`plan_loop_key`] lifted over a whole planned statement (descends into
/// EXPLAIN ANALYZE so a resumed analyze round-trips its restart block).
fn planned_loop_key(planned: &PlannedStatement) -> Option<String> {
    match planned {
        PlannedStatement::Query(plan) => plan_loop_key(plan),
        PlannedStatement::Explain {
            analyze: true,
            statement,
            ..
        } => planned_loop_key(statement),
        _ => None,
    }
}

/// Scheduling class of a planned statement for admission control: any
/// statement whose plan contains a loop operator is `Batch` (iterative
/// work runs long, so it gets the batch admission timeout); everything
/// else is `Interactive`.
fn admission_class(planned: &PlannedStatement) -> QueryClass {
    fn plan_is_batch(plan: &QueryPlan) -> bool {
        plan.steps
            .iter()
            .any(|s| matches!(s, spinner_plan::Step::Loop(_)))
    }
    match planned {
        PlannedStatement::Query(plan) => {
            if plan_is_batch(plan) {
                QueryClass::Batch
            } else {
                QueryClass::Interactive
            }
        }
        PlannedStatement::Insert { source, .. } => {
            if plan_is_batch(source) {
                QueryClass::Batch
            } else {
                QueryClass::Interactive
            }
        }
        PlannedStatement::Explain { statement, .. } => admission_class(statement),
        _ => QueryClass::Interactive,
    }
}

/// Render the step program with physical (lowered) plan fragments, each
/// `Materialize` lowered as the executor lowers it.
fn explain_physical_steps(
    steps: &[spinner_plan::Step],
    step_no: &mut usize,
    (indent, in_loop): (usize, Option<&spinner_plan::LoopStep>),
    out: &mut String,
) -> Result<()> {
    use spinner_plan::Step;
    let pad = "  ".repeat(indent);
    for step in steps {
        match step {
            Step::Materialize {
                name,
                plan,
                distribute_by,
            } => {
                out.push_str(&format!("{pad}{step_no}. Materialize {name} with:\n"));
                *step_no += 1;
                let phys = spinner_exec::create_stored_plan(plan, *distribute_by, in_loop)?;
                phys.display_indent(indent + 2, out);
            }
            Step::Rename { from, to } => {
                out.push_str(&format!("{pad}{step_no}. Rename {from} to {to}.\n"));
                *step_no += 1;
            }
            Step::Merge {
                cte,
                working,
                merged,
                key,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}{step_no}. Merge {working} into {cte} by key #{key} -> {merged} \
                     (hash exchange both sides on the key).\n"
                ));
                *step_no += 1;
            }
            Step::Loop(l) => {
                out.push_str(&format!(
                    "{pad}{step_no}. Initialize loop operator {} for {}.\n",
                    l.termination, l.cte_display_name
                ));
                *step_no += 1;
                let loop_start = *step_no;
                explain_physical_steps(&l.body, step_no, (indent + 1, Some(l)), out)?;
                out.push_str(&format!(
                    "{pad}{step_no}. Go to step {loop_start} if loop condition holds.\n"
                ));
                *step_no += 1;
            }
        }
    }
    Ok(())
}

/// Render an EXPLAIN for any planned statement.
fn explain_planned(planned: &PlannedStatement) -> String {
    match planned {
        PlannedStatement::Query(q) => q.explain(),
        PlannedStatement::Insert { table, source } => {
            format!("Insert into {table}:\n{}", source.explain())
        }
        PlannedStatement::Update { table, .. } => format!("Update {table}"),
        PlannedStatement::Delete { table, .. } => format!("Delete from {table}"),
        PlannedStatement::CreateTable { name, .. } => format!("Create table {name}"),
        PlannedStatement::DropTable { name, .. } => format!("Drop table {name}"),
        PlannedStatement::Explain { statement, .. } => explain_planned(statement),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryResult;
    use spinner_common::Value;

    fn db_with_edges() -> Database {
        let db = Database::default();
        db.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        // Cyclic so every node has an incoming edge (like the SNAP
        // datasets the paper uses — PR's LEFT JOIN degrades to NULL ranks
        // on sources with no in-edges, which is faithful SQL semantics).
        db.execute(
            "INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 5.0), \
             (4, 1, 1.0)",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let db = db_with_edges();
        let batch = db.query("SELECT COUNT(*) FROM edges").unwrap();
        assert_eq!(batch.rows()[0][0], Value::Int(5));
    }

    #[test]
    fn insert_casts_to_declared_types() {
        let db = db_with_edges();
        db.execute("INSERT INTO edges VALUES (9, 9, 2)").unwrap(); // 2 (INT) -> FLOAT
        let batch = db.query("SELECT weight FROM edges WHERE src = 9").unwrap();
        assert_eq!(batch.rows()[0][0], Value::Float(2.0));
    }

    #[test]
    fn update_plain() {
        let db = db_with_edges();
        let r = db
            .execute("UPDATE edges SET weight = weight * 2 WHERE src = 1")
            .unwrap();
        assert_eq!(r.affected(), Some(2));
        let batch = db
            .query("SELECT SUM(weight) FROM edges WHERE src = 1")
            .unwrap();
        assert_eq!(batch.rows()[0][0], Value::Float(12.0));
    }

    #[test]
    fn update_with_from_uses_key_match() {
        let db = db_with_edges();
        db.execute("CREATE TABLE fix (node INT, w FLOAT)").unwrap();
        db.execute("INSERT INTO fix VALUES (2, 100.0)").unwrap();
        let r = db
            .execute("UPDATE edges SET weight = fix.w FROM fix WHERE edges.src = fix.node")
            .unwrap();
        assert_eq!(r.affected(), Some(1));
        let batch = db.query("SELECT weight FROM edges WHERE src = 2").unwrap();
        assert_eq!(batch.rows()[0][0], Value::Float(100.0));
    }

    #[test]
    fn delete_removes_rows() {
        let db = db_with_edges();
        let r = db.execute("DELETE FROM edges WHERE weight > 2.0").unwrap();
        assert_eq!(r.affected(), Some(1));
        assert_eq!(
            db.query("SELECT COUNT(*) FROM edges").unwrap().rows()[0][0],
            Value::Int(4)
        );
    }

    #[test]
    fn drop_table_and_if_exists() {
        let db = db_with_edges();
        db.execute("DROP TABLE edges").unwrap();
        assert!(db.execute("DROP TABLE edges").is_err());
        assert_eq!(
            db.execute("DROP TABLE IF EXISTS edges").unwrap(),
            QueryResult::Ddl
        );
    }

    #[test]
    fn create_if_not_exists_is_idempotent() {
        let db = db_with_edges();
        assert!(db.execute("CREATE TABLE edges (x INT)").is_err());
        db.execute("CREATE TABLE IF NOT EXISTS edges (x INT)")
            .unwrap();
    }

    #[test]
    fn explain_shows_loop_operator() {
        let db = db_with_edges();
        let text = db
            .explain(
                "WITH ITERATIVE t (k, v) AS (
                     SELECT src, 0 FROM edges
                 ITERATE SELECT k, v + 1 FROM t
                 UNTIL 10 ITERATIONS)
                 SELECT * FROM t",
            )
            .unwrap();
        assert!(text.contains("Initialize loop operator"));
        assert!(text.contains("Type:metadata"));
        assert!(text.contains("Rename"));
    }

    #[test]
    fn explain_physical_shows_exchanges() {
        let db = db_with_edges();
        let text = db
            .explain_physical(
                "SELECT e1.src, COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src \
                 GROUP BY e1.src",
            )
            .unwrap();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Exchange: Hash"), "{text}");
        assert!(text.contains("SeqScan: edges"), "{text}");
    }

    #[test]
    fn explain_physical_shows_loop_program() {
        let db = db_with_edges();
        let text = db
            .explain_physical(
                "WITH ITERATIVE t (k, v) AS (SELECT src, 0 FROM edges \
                 ITERATE SELECT k, v + 1 FROM t UNTIL 2 ITERATIONS) SELECT * FROM t",
            )
            .unwrap();
        assert!(text.contains("Initialize loop operator"), "{text}");
        assert!(text.contains("TempScan"), "{text}");
        assert!(text.contains("Rename"), "{text}");
    }

    #[test]
    fn explain_physical_rejects_dml() {
        let db = db_with_edges();
        assert!(matches!(
            db.explain_physical("DELETE FROM edges"),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let db = db_with_edges();
        db.query("SELECT src FROM edges ORDER BY src").unwrap();
        let s = db.take_stats();
        assert!(s.rows_moved > 0 || s.rows_materialized == 0);
        let s2 = db.stats();
        assert_eq!(s2.rows_moved, 0);
    }

    #[test]
    fn stats_describe_the_last_statement_only() {
        let db = db_with_edges();
        db.query(
            "WITH ITERATIVE t (k, v) AS (SELECT 1, 0 \
             ITERATE SELECT k, v + 1 FROM t UNTIL 5 ITERATIONS) SELECT * FROM t",
        )
        .unwrap();
        // A second query resets the counters at entry; its snapshot must
        // not include the first query's 5 iterations.
        db.query("SELECT COUNT(*) FROM edges").unwrap();
        assert_eq!(db.stats().iterations, 0);
    }

    #[test]
    fn stats_from_failed_statement_do_not_leak() {
        // Regression: a statement that fails mid-loop used to leave its
        // counters behind, polluting the next statement's snapshot.
        let mut db = db_with_edges();
        db.set_config(EngineConfig::default().with_max_iterations(7))
            .unwrap();
        let err = db
            .query(
                "WITH ITERATIVE t (k, v) AS (SELECT 1, 0 \
                 ITERATE SELECT k, v + 1 FROM t UNTIL (v < 0)) SELECT * FROM t",
            )
            .unwrap_err();
        assert!(matches!(err, Error::IterationLimitExceeded { .. }));
        assert!(db.stats().iterations > 0, "failed run did iterate");
        // The next clean statement's snapshot covers only itself.
        db.query("SELECT COUNT(*) FROM edges").unwrap();
        let s = db.take_stats();
        assert_eq!(s.iterations, 0);
        assert_eq!(s.renames, 0);
    }

    #[test]
    fn ddl_and_plain_explain_keep_the_last_snapshot_readable() {
        let db = db_with_edges();
        db.query(
            "WITH ITERATIVE t (k, v) AS (SELECT 1, 0 \
             ITERATE SELECT k, v + 1 FROM t UNTIL 3 ITERATIONS) SELECT * FROM t",
        )
        .unwrap();
        // Neither DDL nor EXPLAIN executes a plan; both leave the last
        // query's counters in place for inspection.
        db.execute("CREATE TABLE scratch (x INT)").unwrap();
        db.explain("SELECT * FROM edges").unwrap();
        assert_eq!(db.stats().iterations, 3);
    }

    #[test]
    fn explain_analyze_profiles_iterative_query() {
        let db = db_with_edges();
        let profile = db
            .explain_analyze(
                "WITH ITERATIVE t (k, v) AS (SELECT src, 0 FROM edges \
                 ITERATE SELECT k, v + 1 FROM t UNTIL 4 ITERATIONS) SELECT * FROM t",
            )
            .unwrap();
        let loops = profile.loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].iterations.len(), 4);
        assert!(profile.find("Return").is_some());
        // The JSON rendering carries every iteration record.
        let json = profile.to_json();
        for it in &loops[0].iterations {
            let record = format!(
                "{{\"iteration\":{},\"delta_rows\":{},\"rows_updated\":{},\"working_rows\":{},\"elapsed_us\":{}}}",
                it.iteration, it.delta_rows, it.rows_updated, it.working_rows, it.elapsed_us
            );
            assert!(json.contains(&record), "{record} missing from {json}");
        }
    }

    #[test]
    fn explain_analyze_rejects_ddl() {
        let db = db_with_edges();
        assert!(matches!(
            db.execute("EXPLAIN ANALYZE CREATE TABLE t2 (x INT)"),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn script_execution() {
        let db = Database::default();
        let results = db
            .execute_script(
                "CREATE TABLE t (a INT);
                 INSERT INTO t VALUES (1), (2);
                 SELECT COUNT(*) FROM t;",
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        let QueryResult::Rows(b) = &results[2] else {
            panic!()
        };
        assert_eq!(b.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn pagerank_full_query_runs() {
        let db = db_with_edges();
        // Figure 2 of the paper, scaled to the toy graph.
        let batch = db
            .query(
                "WITH ITERATIVE PageRank (Node, Rank, Delta)
                 AS ( SELECT src, 0, 0.15
                      FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
                  ITERATE
                   SELECT PageRank.node,
                     PageRank.rank + PageRank.delta,
                     0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
                   FROM PageRank
                     LEFT JOIN edges AS IncomingEdges
                       ON PageRank.node = IncomingEdges.dst
                     LEFT JOIN PageRank AS IncomingRank
                       ON IncomingRank.node = IncomingEdges.src
                   GROUP BY PageRank.node,
                             PageRank.rank + PageRank.delta
                  UNTIL 10 ITERATIONS )
                 SELECT Node, Rank FROM PageRank ORDER BY Node",
            )
            .unwrap();
        assert_eq!(batch.len(), 4);
        // Every node accumulated a positive rank.
        for row in batch.rows() {
            assert!(row[1].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn sssp_full_query_runs() {
        let db = db_with_edges();
        // Figure 7 of the paper: shortest distance from node 1.
        let batch = db
            .query(
                "WITH ITERATIVE sssp (Node, Distance, Delta)
                 AS (SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
                     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
                  ITERATE
                    SELECT sssp.node,
                      LEAST(sssp.distance, sssp.delta),
                      COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
                    FROM sssp
                     LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
                     LEFT JOIN sssp AS IncomingDistance ON
                         IncomingDistance.node = IncomingEdges.src
                    WHERE IncomingDistance.Delta != 9999999
                    GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
                  UNTIL 10 ITERATIONS)
                 SELECT Distance FROM sssp WHERE Node = 4",
            )
            .unwrap();
        // 1 -> 2 -> 3 -> 4 with weight 1 each = 3 (vs 1 -> 3 (5.0) -> 4 = 6).
        assert_eq!(batch.rows()[0][0].as_f64().unwrap(), 3.0);
    }

    #[test]
    fn admission_disabled_by_default_and_enabled_by_config() {
        let db = db_with_edges();
        assert!(db.admission().is_none());
        let db = Database::new(EngineConfig::default().with_max_concurrent_queries(2)).unwrap();
        let ctrl = db.admission().expect("admission on");
        assert_eq!(ctrl.max_concurrent(), 2);
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT * FROM t").unwrap();
        let snap = db.admission().unwrap().snapshot();
        // DDL is not gated; the two DML/queries each took (and released)
        // a permit.
        assert_eq!(snap.admitted_total, 2);
        assert_eq!(snap.active, 0, "permits released after each statement");
        assert_eq!(snap.queued, 0);
    }

    #[test]
    fn concurrent_queries_beyond_the_cap_queue_or_shed() {
        let db = Arc::new(
            Database::new(
                EngineConfig::default()
                    .with_max_concurrent_queries(1)
                    .with_admission_queue_limit(0),
            )
            .unwrap(),
        );
        db.execute("CREATE TABLE seed (v INT)").unwrap();
        db.execute("INSERT INTO seed VALUES (1)").unwrap();
        // Hold the only slot with a long iterative query on another
        // thread, then observe this thread's query being shed.
        let started = std::sync::mpsc::channel::<()>();
        let runner = {
            let db = Arc::clone(&db);
            let tx = started.0;
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                db.query(
                    "WITH ITERATIVE x (v) AS (SELECT v FROM seed \
                     ITERATE SELECT v + 1 FROM x UNTIL 2000 ITERATIONS) \
                     SELECT COUNT(*) FROM x",
                )
            })
        };
        started.1.recv().unwrap();
        // Wait until the runner actually holds the slot.
        while db.admission().unwrap().snapshot().active == 0 {
            if runner.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        let mut shed = false;
        while !runner.is_finished() {
            match db.query("SELECT COUNT(*) FROM seed") {
                Err(Error::Overloaded { limit, .. }) => {
                    assert_eq!(limit, 0);
                    shed = true;
                    break;
                }
                Ok(_) | Err(_) => std::thread::yield_now(),
            }
        }
        runner.join().unwrap().unwrap();
        if shed {
            assert!(db.admission().unwrap().snapshot().shed_overloaded >= 1);
        }
        // Slots always drain back to zero.
        assert_eq!(db.admission().unwrap().snapshot().active, 0);
    }

    #[test]
    fn explain_analyze_surfaces_admission_profile() {
        let db = Database::new(
            EngineConfig::default()
                .with_max_concurrent_queries(2)
                .with_admission_queue_limit(4),
        )
        .unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let profile = db.explain_analyze("SELECT * FROM t").unwrap();
        // Fast-path admit on an idle engine: all-zero, omitted from JSON
        // (byte-compatible with admission-off profiles).
        assert!(profile.admission.is_empty());
        assert!(!profile.to_json().contains("\"admission\""));
    }

    #[test]
    fn optimizations_do_not_change_results() {
        let sql = "WITH ITERATIVE t (k, v) AS (
                 SELECT DISTINCT src, src * 10 FROM edges
             ITERATE SELECT k, v + 1 FROM t
             UNTIL 5 ITERATIONS)
             SELECT k, v FROM t WHERE MOD(k, 2) = 0 ORDER BY k";
        let optimized = db_with_edges();
        let mut naive = db_with_edges();
        naive.set_config(EngineConfig::naive()).unwrap();
        let b1 = optimized.query(sql).unwrap();
        let b2 = naive.query(sql).unwrap();
        assert_eq!(b1.rows(), b2.rows());
    }
}
