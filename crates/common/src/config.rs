//! Engine configuration and optimization toggles.
//!
//! Every optimization the paper evaluates can be switched off individually,
//! which is how the benchmark harness reproduces the baseline series of
//! Figures 8-10: the baseline is the same engine with the corresponding
//! toggle disabled.
//!
//! Recovery is three numbers, all `0` (off) by default and each set by its
//! own builder: [`EngineConfig::checkpoint_interval`],
//! [`EngineConfig::max_partition_retries`] (the budget of both in-place
//! retry rungs, partition and step) and
//! [`EngineConfig::max_loop_recoveries`] (rollback-and-replay). A retry
//! re-runs immediately.

/// Feature toggles and tuning knobs for a `Database` session (the
/// `Database` type lives in the `spinner-engine` crate, which depends on
/// this one).
///
/// # Guardrail knobs
///
/// Besides the optimization toggles, the config carries the per-session
/// default *guardrails* — limits every statement starts with unless the
/// caller supplies its own `QueryGuard`:
///
/// * [`query_timeout_ms`](Self::query_timeout_ms) — wall-clock deadline
///   per statement; exceeded ⇒ `Error::Timeout`.
/// * [`max_rows_materialized`](Self::max_rows_materialized) — budget on
///   rows written into temp results; exceeded ⇒
///   `Error::ResourceExhausted { resource: "rows_materialized", .. }`.
/// * [`max_rows_moved`](Self::max_rows_moved) — budget on rows crossing
///   exchange operators (shuffle/gather/broadcast).
/// * [`max_intermediate_bytes`](Self::max_intermediate_bytes) — budget on
///   the estimated size of intermediate state.
/// * [`faults`](Self::faults) — deterministic fault-injection points for
///   chaos testing; empty (off) by default.
///
/// All guardrails default to `None`/empty, i.e. unlimited — the paper's
/// benchmark figures run unchanged. Use [`EngineConfig::validate`] (the
/// engine calls it on construction) to reject nonsensical settings as a
/// structured `Error::InvalidConfig` instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of virtual shared-nothing workers (partitions). The paper's
    /// testbed is an MPP cluster; we model it as hash partitions with
    /// explicit exchange operators. Must be >= 1.
    pub partitions: usize,
    /// §IV / Fig. 8 — use the `rename` operator instead of copying the
    /// working table back into the CTE table when the iterative part
    /// replaces the whole dataset. Disabled = baseline that always merges
    /// and diffs.
    pub minimize_data_movement: bool,
    /// §V-A / Fig. 9 — materialize loop-invariant join subtrees once before
    /// the loop and reuse them every iteration.
    pub common_result_optimization: bool,
    /// §V-B / Fig. 10 — push predicates from the final query into the
    /// non-iterative part when provably safe.
    pub predicate_pushdown: bool,
    /// Semi-naive (delta-driven) evaluation of iterative CTEs: when the
    /// loop body is delta-eligible (monotone MIN/MAX propagation joins
    /// over the recursive table), feed only the rows that changed last
    /// iteration into the iterative join instead of the full CTE table,
    /// merging new rows back into the accumulated result. Turns
    /// O(V·E)-per-iteration workloads like SSSP and connected components
    /// into O(changed·E). Ineligible bodies (non-monotone aggregates,
    /// missing propagation join) silently fall back to full recompute;
    /// the decision is recorded in EXPLAIN ANALYZE
    /// (`iteration: mode=semi_naive|full`).
    pub semi_naive: bool,
    /// Two-phase grouped aggregation: partitions pre-aggregate locally and
    /// ship partial states instead of raw rows through the exchange — the
    /// standard MPP optimization. Disabled, every input row crosses the
    /// shuffle. DISTINCT aggregates always use the single-phase path.
    pub two_phase_aggregation: bool,
    /// Execute partitions on the database's persistent worker pool (one
    /// thread per partition, created when the config is installed)
    /// instead of sequentially on the statement's thread. Sequential
    /// execution is deterministic and is the default for tests.
    pub parallel_partitions: bool,
    /// Safety bound on iterations for data/delta termination conditions, so
    /// a non-converging UNTIL cannot loop forever.
    pub max_iterations: u64,
    /// Wall-clock deadline per statement, in milliseconds. `None` =
    /// unlimited.
    pub query_timeout_ms: Option<u64>,
    /// Budget on rows materialized into temp results per statement.
    /// `None` = unlimited.
    pub max_rows_materialized: Option<u64>,
    /// Budget on rows moved through exchange operators per statement.
    /// `None` = unlimited.
    pub max_rows_moved: Option<u64>,
    /// Budget on estimated bytes of intermediate state per statement.
    /// `None` = unlimited.
    pub max_intermediate_bytes: Option<u64>,
    /// Fault-injection points (chaos testing). Empty = off. Faults are
    /// deterministic: triggered by hit count or a seeded PRNG, never by
    /// wall-clock or global randomness.
    pub faults: Vec<FaultConfig>,
    /// Snapshot the live loop state (CTE table, working/delta tables, loop
    /// counters) every this many iterations. `0` disables periodic
    /// checkpoints; when [`max_loop_recoveries`](Self::max_loop_recoveries)
    /// is non-zero an entry checkpoint is still taken at iteration 0 so a
    /// rollback always has a target. Snapshots are cheap: `Partitioned`
    /// clones are O(partitions) `Arc` bumps over shared immutable row
    /// buffers (copy-on-write), not row copies.
    pub checkpoint_interval: u64,
    /// Bounded retries for a *transient* failure of one unit of work (a
    /// partition worker closure, or a non-loop step re-run against its
    /// unchanged input snapshot) before the failure escalates. `0` = no
    /// retry, the PR-1 fail-fast behaviour.
    pub max_partition_retries: u64,
    /// How many times a loop may roll back to its last checkpoint and
    /// replay after retries are exhausted inside the loop body. `0`
    /// disables mid-loop recovery; exhausting a non-zero budget yields
    /// `Error::RecoveryExhausted`.
    pub max_loop_recoveries: u64,
    /// High-water mark in estimated bytes of resident intermediate state.
    /// `None` (the default) disables spilling entirely and preserves the
    /// PR-1 fail-fast budget behaviour; `Some(n)` makes the executor spill
    /// cold intermediate state to disk whenever tracked resident bytes
    /// exceed `n`, degrading to slower-but-correct execution instead of
    /// failing the query.
    pub spill_threshold_bytes: Option<u64>,
    /// Directory for spill files. `None` uses the OS temp directory. Only
    /// consulted when [`spill_threshold_bytes`](Self::spill_threshold_bytes)
    /// is set; validated (created if missing, is a directory, writable) by
    /// [`EngineConfig::validate`].
    pub spill_dir: Option<String>,
    /// Crash-consistency for on-disk state: when on (the default), every
    /// spill/checkpoint file is written to a temp name, fsynced, atomically
    /// renamed into place, and the parent directory is fsynced — so a
    /// process kill at any point leaves either the old complete artifact or
    /// the new complete artifact, never a torn file under the final name.
    /// Off skips the fsyncs (rename is still atomic); checksums are
    /// verified on read either way. The fsync count is surfaced as
    /// `durability: ... refsync=` in stats and EXPLAIN ANALYZE.
    pub durable_spill: bool,
    /// Cap on queries executing plans concurrently. `None` (the default)
    /// disables admission control entirely — every statement starts
    /// immediately, the single-session behaviour. `Some(n)` makes the
    /// engine gate statement start through the global
    /// `AdmissionController`: at most `n` run at once, excess queries
    /// wait in a bounded FIFO queue and are shed with typed
    /// `Error::Overloaded` / `Error::AdmissionTimeout` under overload.
    pub max_concurrent_queries: Option<usize>,
    /// Bound on the admission wait queue. A query arriving when the queue
    /// is already this deep is shed immediately with `Error::Overloaded`
    /// instead of queueing — bounded latency beats unbounded backlog.
    /// Only consulted when [`max_concurrent_queries`](Self::max_concurrent_queries)
    /// is set.
    pub admission_queue_limit: usize,
    /// How long an *interactive* query (no loop operator in its plan) may
    /// wait in the admission queue before being shed with
    /// `Error::AdmissionTimeout`. `None` = wait indefinitely.
    pub admission_timeout_ms: Option<u64>,
    /// How long a *batch* query (its plan contains a loop operator) may
    /// wait in the admission queue. Batch work tolerates more queueing
    /// delay than interactive work, so the two classes get separate
    /// timeouts. `None` = wait indefinitely.
    pub admission_batch_timeout_ms: Option<u64>,
    /// Stall deadline for `WorkerPool::scope`, in milliseconds: if no
    /// submitted task completes within this window, still-queued tasks
    /// are reclaimed and the scope fails with the typed
    /// `Error::PoolStalled` instead of blocking the coordinator forever.
    pub pool_stall_timeout_ms: u64,
    /// Read keepalive for server sessions, in milliseconds: a connection
    /// that sends no frame for this long between statements is reaped —
    /// the socket is closed and its resources released — so a half-open
    /// TCP session (peer vanished without FIN) cannot hold a connection
    /// slot forever waiting for a write failure. `0` disables reaping
    /// (reads block indefinitely, the pre-PR-8 behaviour).
    pub session_keepalive_ms: u64,
    /// Crash-consistent query resumption. When on, every iterative
    /// statement is recorded in an on-disk query journal, its checkpoint
    /// epochs are persisted as sealed files, and a fresh engine started
    /// over the same spill directory *adopts* a dead process's in-flight
    /// loops — re-planning the journaled SQL and resuming from the newest
    /// readable checkpoint epoch — instead of garbage-collecting them.
    /// Requires a spill directory; off (the default) preserves the PR-8
    /// behaviour where durability ends at process death.
    pub resumable_queries: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            partitions: 4,
            minimize_data_movement: true,
            common_result_optimization: true,
            predicate_pushdown: true,
            semi_naive: true,
            two_phase_aggregation: true,
            parallel_partitions: false,
            max_iterations: 10_000,
            query_timeout_ms: None,
            max_rows_materialized: None,
            max_rows_moved: None,
            max_intermediate_bytes: None,
            faults: Vec::new(),
            checkpoint_interval: 0,
            max_partition_retries: 0,
            max_loop_recoveries: 0,
            spill_threshold_bytes: spill_threshold_from_env(),
            spill_dir: std::env::var("SPINNER_SPILL_DIR").ok(),
            durable_spill: true,
            max_concurrent_queries: None,
            admission_queue_limit: 16,
            admission_timeout_ms: None,
            admission_batch_timeout_ms: None,
            pool_stall_timeout_ms: 60_000,
            session_keepalive_ms: 300_000,
            resumable_queries: false,
        }
    }
}

/// Forced-spill override for CI: `SPINNER_SPILL_THRESHOLD=<bytes>` makes
/// every default-configured engine spill once resident intermediate state
/// exceeds that many bytes, so the whole tier-1 suite exercises the spill
/// path. Unset, unparsable, or `0` all mean "disabled".
fn spill_threshold_from_env() -> Option<u64> {
    std::env::var("SPINNER_SPILL_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
}

/// A usable spill directory is creatable, is a directory, and accepts
/// writes. Probed up front so misconfiguration is an
/// [`crate::Error::InvalidConfig`] at `Database::new`, not a mid-loop
/// `SpillUnavailable`. A missing directory is created (like most engines'
/// data dirs) rather than rejected, so a fresh deployment needs no manual
/// `mkdir`.
fn validate_spill_dir(dir: &str) -> crate::Result<()> {
    use crate::Error;
    let path = std::path::Path::new(dir);
    if !path.exists() {
        std::fs::create_dir_all(path).map_err(|e| {
            Error::InvalidConfig(format!("spill_dir '{dir}' cannot be created: {e}"))
        })?;
    }
    if !path.is_dir() {
        return Err(Error::InvalidConfig(format!(
            "spill_dir '{dir}' is not a directory"
        )));
    }
    let probe = path.join(format!(".spinner_spill_probe_{}", std::process::id()));
    match std::fs::write(&probe, b"probe") {
        Ok(()) => {
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(Error::InvalidConfig(format!(
            "spill_dir '{dir}' is not writable: {e}"
        ))),
    }
}

impl EngineConfig {
    /// Configuration with every DBSpinner optimization disabled — the
    /// "naive rewrite" baseline of §VII.
    pub fn naive() -> Self {
        EngineConfig {
            minimize_data_movement: false,
            common_result_optimization: false,
            predicate_pushdown: false,
            semi_naive: false,
            ..Self::default()
        }
    }

    /// Builder-style setter for the partition count.
    ///
    /// Does not validate eagerly; `partitions == 0` is rejected by
    /// [`EngineConfig::validate`] (which `Database::new` calls), so a bad
    /// value surfaces as `Error::InvalidConfig` rather than a panic.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Builder-style setter for the data-movement optimization (Fig. 8).
    pub fn with_minimize_data_movement(mut self, on: bool) -> Self {
        self.minimize_data_movement = on;
        self
    }

    /// Builder-style setter for the common-result optimization (Fig. 9).
    pub fn with_common_result(mut self, on: bool) -> Self {
        self.common_result_optimization = on;
        self
    }

    /// Builder-style setter for predicate push-down (Fig. 10).
    pub fn with_predicate_pushdown(mut self, on: bool) -> Self {
        self.predicate_pushdown = on;
        self
    }

    /// Builder-style setter for semi-naive (delta-driven) iteration.
    /// Off, every iteration re-joins the full CTE table even when the
    /// loop is converging.
    pub fn with_semi_naive(mut self, on: bool) -> Self {
        self.semi_naive = on;
        self
    }

    /// Builder-style setter for the iteration safety bound.
    pub fn with_max_iterations(mut self, limit: u64) -> Self {
        self.max_iterations = limit;
        self
    }

    /// Builder-style setter for parallel partition execution.
    pub fn with_parallel_partitions(mut self, on: bool) -> Self {
        self.parallel_partitions = on;
        self
    }

    /// Builder-style setter for two-phase grouped aggregation.
    pub fn with_two_phase_aggregation(mut self, on: bool) -> Self {
        self.two_phase_aggregation = on;
        self
    }

    /// Builder-style setter for the per-statement wall-clock deadline.
    pub fn with_query_timeout_ms(mut self, limit_ms: u64) -> Self {
        self.query_timeout_ms = Some(limit_ms);
        self
    }

    /// Builder-style setter for the rows-materialized budget.
    pub fn with_max_rows_materialized(mut self, limit: u64) -> Self {
        self.max_rows_materialized = Some(limit);
        self
    }

    /// Builder-style setter for the rows-moved (exchange) budget.
    pub fn with_max_rows_moved(mut self, limit: u64) -> Self {
        self.max_rows_moved = Some(limit);
        self
    }

    /// Builder-style setter for the intermediate-state byte budget.
    pub fn with_max_intermediate_bytes(mut self, limit: u64) -> Self {
        self.max_intermediate_bytes = Some(limit);
        self
    }

    /// Builder-style helper adding one fault-injection point.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.faults.push(fault);
        self
    }

    /// Builder-style setter for the checkpoint interval (0 = off).
    pub fn with_checkpoint_interval(mut self, every_n_iterations: u64) -> Self {
        self.checkpoint_interval = every_n_iterations;
        self
    }

    /// Builder-style setter for the transient-retry budget per unit of
    /// work (0 = fail fast).
    pub fn with_max_partition_retries(mut self, retries: u64) -> Self {
        self.max_partition_retries = retries;
        self
    }

    /// Builder-style setter for the mid-loop recovery budget (0 = off).
    pub fn with_max_loop_recoveries(mut self, recoveries: u64) -> Self {
        self.max_loop_recoveries = recoveries;
        self
    }

    /// Builder-style setter for the spill high-water mark in bytes.
    /// Crossing it spills cold intermediate state to disk instead of
    /// failing the query.
    pub fn with_spill_threshold_bytes(mut self, threshold: u64) -> Self {
        self.spill_threshold_bytes = Some(threshold);
        self
    }

    /// Builder-style setter for the spill-file directory.
    pub fn with_spill_dir(mut self, dir: impl Into<String>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder-style setter for crash-consistent (fsynced) spill and
    /// checkpoint writes. Off skips the fsyncs for speed; checksums are
    /// still verified on read.
    pub fn with_durable_spill(mut self, on: bool) -> Self {
        self.durable_spill = on;
        self
    }

    /// Builder-style setter for the server session read keepalive
    /// (0 = never reap idle connections).
    pub fn with_session_keepalive_ms(mut self, limit_ms: u64) -> Self {
        self.session_keepalive_ms = limit_ms;
        self
    }

    /// Builder-style setter for crash-consistent query resumption.
    /// Validation requires a spill directory when this is on — the
    /// journal and adoptable checkpoint files need a stable home shared
    /// across process generations (the OS temp dir would work but makes
    /// the restart contract accidental).
    pub fn with_resumable_queries(mut self, on: bool) -> Self {
        self.resumable_queries = on;
        self
    }

    /// Builder-style setter enabling admission control with a cap on
    /// concurrently executing queries.
    pub fn with_max_concurrent_queries(mut self, max: usize) -> Self {
        self.max_concurrent_queries = Some(max);
        self
    }

    /// Builder-style setter for the bounded admission-queue depth.
    pub fn with_admission_queue_limit(mut self, limit: usize) -> Self {
        self.admission_queue_limit = limit;
        self
    }

    /// Builder-style setter for the interactive-class admission timeout.
    pub fn with_admission_timeout_ms(mut self, limit_ms: u64) -> Self {
        self.admission_timeout_ms = Some(limit_ms);
        self
    }

    /// Builder-style setter for the batch-class admission timeout.
    pub fn with_admission_batch_timeout_ms(mut self, limit_ms: u64) -> Self {
        self.admission_batch_timeout_ms = Some(limit_ms);
        self
    }

    /// Builder-style setter for the worker-pool stall deadline.
    pub fn with_pool_stall_timeout_ms(mut self, limit_ms: u64) -> Self {
        self.pool_stall_timeout_ms = limit_ms;
        self
    }

    /// Validate the configuration; `Database::new` calls this so a bad
    /// config is a structured [`crate::Error::InvalidConfig`], not a
    /// process abort.
    pub fn validate(&self) -> crate::Result<()> {
        use crate::Error;
        if self.partitions < 1 {
            return Err(Error::InvalidConfig(
                "at least one partition is required".into(),
            ));
        }
        if self.max_iterations < 1 {
            return Err(Error::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        if self.query_timeout_ms == Some(0) {
            return Err(Error::InvalidConfig(
                "query_timeout_ms of 0 would reject every statement; use None for unlimited".into(),
            ));
        }
        if self.spill_threshold_bytes == Some(0) {
            return Err(Error::InvalidConfig(
                "spill_threshold_bytes of 0 would spill every allocation; \
                 use None to disable spilling"
                    .into(),
            ));
        }
        if let Some(dir) = &self.spill_dir {
            validate_spill_dir(dir)?;
        }
        if self.resumable_queries && self.spill_dir.is_none() {
            return Err(Error::InvalidConfig(
                "resumable_queries requires a spill_dir: the query journal and \
                 adoptable checkpoints must live in a directory shared across \
                 process restarts"
                    .into(),
            ));
        }
        if self.max_concurrent_queries == Some(0) {
            return Err(Error::InvalidConfig(
                "max_concurrent_queries of 0 would admit nothing; \
                 use None to disable admission control"
                    .into(),
            ));
        }
        if self.admission_timeout_ms == Some(0) || self.admission_batch_timeout_ms == Some(0) {
            return Err(Error::InvalidConfig(
                "admission timeouts of 0 would shed every queued query; \
                 use None to wait indefinitely"
                    .into(),
            ));
        }
        if self.pool_stall_timeout_ms == 0 {
            return Err(Error::InvalidConfig(
                "pool_stall_timeout_ms of 0 would reclaim every queued pool task".into(),
            ));
        }
        if self.pool_stall_timeout_ms > 3_600_000 {
            return Err(Error::InvalidConfig(format!(
                "pool_stall_timeout_ms {} exceeds the 1h sanity cap",
                self.pool_stall_timeout_ms
            )));
        }
        for fault in &self.faults {
            match fault.trigger {
                FaultTrigger::Nth(0) => {
                    return Err(Error::InvalidConfig(format!(
                        "fault at {:?}: Nth trigger is 1-based, 0 never fires",
                        fault.site
                    )));
                }
                FaultTrigger::Seeded {
                    probability_ppm, ..
                } if probability_ppm > 1_000_000 => {
                    return Err(Error::InvalidConfig(format!(
                        "fault at {:?}: probability_ppm {} exceeds 1_000_000 (= always)",
                        fault.site, probability_ppm
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Pipeline stage a fault attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// An exchange operator (shuffle / gather / broadcast).
    Exchange,
    /// Materialization of a step result into the temp registry.
    Materialize,
    /// The rename fast path swapping the working table in.
    Rename,
    /// The top of every loop iteration.
    LoopIteration,
    /// Inside a per-partition worker closure (parallel or sequential).
    Worker,
    /// While a loop checkpoint is being snapshotted. A firing here must
    /// never corrupt the live loop state or the previous checkpoint.
    Checkpoint,
    /// While a rollback is restoring a checkpoint. Fires *before* any
    /// table is put back, so a failed restore leaves the registry as the
    /// failed iteration left it and consumes another recovery attempt.
    Recovery,
    /// While a victim region is being serialized to a spill file. Fires
    /// before any bytes are written, so a failed spill write leaves the
    /// region resident and untouched.
    SpillWrite,
    /// While a spilled region is being read back. Fires before the file is
    /// opened; a firing is a transient fault, absorbed by step retry or
    /// rollback-and-replay like any other transient I/O failure.
    SpillRead,
    /// When the server accepts a TCP connection, before any session state
    /// exists. An error here sheds the connection; a delay simulates a
    /// slow accept path.
    Accept,
    /// While a session's request frame is being read from the socket. An
    /// error here is treated as a connection failure: the in-flight query
    /// (if any) is cancelled and the session is torn down.
    SessionRead,
    /// While a session's response frame is being written to the socket.
    /// An error here tears the session down after its query completed,
    /// exercising the result-undeliverable path.
    SessionWrite,
    /// Adversarial disk: the spill/checkpoint file is silently truncated
    /// to half its length *and the write still reports success* — the
    /// state a process kill between `write` and `fsync` leaves behind.
    /// Detection must happen at read time via the whole-file trailer.
    TornWrite,
    /// Adversarial disk: one bit of the payload is flipped before the
    /// write, which still reports success — simulated bit rot. Detection
    /// must happen at read time via the partition/file checksums.
    BitFlip,
    /// Adversarial disk: the write fails as if the device were out of
    /// space (ENOSPC). Degrades to the fail-fast budget error
    /// `ResourceExhausted { resource: "spill_disk", .. }` — deliberate
    /// back-pressure, not a retryable fault and not a process abort.
    DiskFull,
    /// Adversarial disk: the fsync after a spill write fails. The temp
    /// file is discarded and the write surfaces as the transient
    /// `SpillUnavailable`, leaving the previous artifact intact.
    FsyncFail,
    /// The barrier between a checkpoint epoch's file reaching disk and
    /// the query journal naming it. The crash harness aborts here to
    /// exercise the file-written-epoch-unnamed window; an injected error
    /// skips the commit (a restart cannot adopt the epoch, the running
    /// loop still rolls back to it) without failing the loop.
    EpochCommit,
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return `Error::FaultInjected` from the faulted step.
    Error,
    /// Sleep this many milliseconds, then continue normally. Used to make
    /// timeout tests deterministic without huge datasets.
    DelayMs(u64),
    /// Panic inside the faulted step (exercises panic isolation).
    Panic,
    /// Abort the whole process at the faulted step, skipping every
    /// destructor — the in-process equivalent of `SIGKILL`. Drop-based
    /// cleanup (spill handles, journals) does not run, leaving
    /// the on-disk state a real crash would, which is exactly what the
    /// restart-recovery harness needs to stage.
    Abort,
}

/// When a fault fires. Deterministic by construction: either an exact
/// hit count or a seeded PRNG — never wall-clock or global randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fire on the n-th hit of the site (1-based), once.
    Nth(u64),
    /// Fire per-hit with probability `probability_ppm` / 1_000_000,
    /// drawn from a PRNG seeded with `seed` (kept in parts-per-million
    /// so the config stays `Eq`).
    Seeded {
        /// PRNG seed; identical seeds replay the same fault sequence.
        seed: u64,
        /// Per-hit firing probability in parts-per-million.
        probability_ppm: u32,
    },
}

/// One configured fault-injection point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Where in the executor the fault fires.
    pub site: FaultSite,
    /// What happens when it fires (error or panic).
    pub kind: FaultKind,
    /// When it fires (n-th hit or seeded probability).
    pub trigger: FaultTrigger,
}

impl FaultConfig {
    /// Error out on the n-th (1-based) hit of `site`.
    pub fn fail_nth(site: FaultSite, n: u64) -> Self {
        FaultConfig {
            site,
            kind: FaultKind::Error,
            trigger: FaultTrigger::Nth(n),
        }
    }

    /// Panic on the n-th (1-based) hit of `site`.
    pub fn panic_nth(site: FaultSite, n: u64) -> Self {
        FaultConfig {
            site,
            kind: FaultKind::Panic,
            trigger: FaultTrigger::Nth(n),
        }
    }

    /// Abort the process (SIGKILL-equivalent, no destructors) on the
    /// n-th (1-based) hit of `site`. Only meaningful from a subprocess
    /// harness that restarts and inspects what survived.
    pub fn abort_nth(site: FaultSite, n: u64) -> Self {
        FaultConfig {
            site,
            kind: FaultKind::Abort,
            trigger: FaultTrigger::Nth(n),
        }
    }

    /// Sleep `ms` milliseconds on the n-th (1-based) hit of `site`. For
    /// a delay on *every* hit, use [`FaultConfig::seeded`] with
    /// `probability_ppm = 1_000_000`.
    pub fn delay_nth(site: FaultSite, n: u64, ms: u64) -> Self {
        FaultConfig {
            site,
            kind: FaultKind::DelayMs(ms),
            trigger: FaultTrigger::Nth(n),
        }
    }

    /// Fire `kind` with `probability_ppm`/1_000_000 per hit, seeded.
    pub fn seeded(site: FaultSite, kind: FaultKind, seed: u64, probability_ppm: u32) -> Self {
        FaultConfig {
            site,
            kind,
            trigger: FaultTrigger::Seeded {
                seed,
                probability_ppm,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_paper_optimizations() {
        let c = EngineConfig::default();
        assert!(c.minimize_data_movement);
        assert!(c.common_result_optimization);
        assert!(c.predicate_pushdown);
        assert!(c.semi_naive);
    }

    #[test]
    fn naive_disables_paper_optimizations_only() {
        let c = EngineConfig::naive();
        assert!(!c.minimize_data_movement);
        assert!(!c.common_result_optimization);
        assert!(!c.predicate_pushdown);
        assert!(!c.semi_naive);
    }

    #[test]
    fn zero_partitions_rejected_by_validate() {
        let config = EngineConfig::default().with_partitions(0);
        match config.validate() {
            Err(crate::Error::InvalidConfig(m)) => {
                assert!(m.contains("at least one partition"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn default_config_validates() {
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig::naive().validate().is_ok());
    }

    #[test]
    fn guardrails_default_to_unlimited() {
        let c = EngineConfig::default();
        assert_eq!(c.query_timeout_ms, None);
        assert_eq!(c.max_rows_materialized, None);
        assert_eq!(c.max_rows_moved, None);
        assert_eq!(c.max_intermediate_bytes, None);
        assert!(c.faults.is_empty());
    }

    #[test]
    fn bad_fault_triggers_rejected() {
        let c = EngineConfig::default().with_fault(FaultConfig::fail_nth(FaultSite::Exchange, 0));
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default().with_fault(FaultConfig::seeded(
            FaultSite::Materialize,
            FaultKind::Error,
            7,
            2_000_000,
        ));
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
    }

    #[test]
    fn zero_timeout_rejected() {
        let c = EngineConfig::default().with_query_timeout_ms(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
    }

    #[test]
    fn recovery_defaults_to_disabled() {
        let c = EngineConfig::default();
        assert_eq!(c.checkpoint_interval, 0);
        assert_eq!(c.max_partition_retries, 0);
        assert_eq!(c.max_loop_recoveries, 0);
    }

    #[test]
    fn admission_defaults_to_disabled() {
        let c = EngineConfig::default();
        assert_eq!(c.max_concurrent_queries, None);
        assert_eq!(c.admission_queue_limit, 16);
        assert_eq!(c.admission_timeout_ms, None);
        assert_eq!(c.admission_batch_timeout_ms, None);
        assert_eq!(c.pool_stall_timeout_ms, 60_000);
    }

    #[test]
    fn degenerate_admission_knobs_rejected() {
        let c = EngineConfig::default().with_max_concurrent_queries(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default().with_admission_timeout_ms(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default().with_admission_batch_timeout_ms(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default().with_pool_stall_timeout_ms(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default().with_pool_stall_timeout_ms(7_200_000);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default()
            .with_max_concurrent_queries(2)
            .with_admission_queue_limit(4)
            .with_admission_timeout_ms(100)
            .with_admission_batch_timeout_ms(1_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn resumable_queries_requires_a_spill_dir() {
        let c = EngineConfig::default().with_resumable_queries(true);
        let c = EngineConfig {
            spill_dir: None,
            ..c
        };
        match c.validate() {
            Err(crate::Error::InvalidConfig(m)) => {
                assert!(m.contains("resumable_queries"), "{m}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let c = EngineConfig::default()
            .with_resumable_queries(true)
            .with_spill_dir(std::env::temp_dir().to_str().unwrap());
        assert!(c.validate().is_ok());
        assert!(!EngineConfig::default().resumable_queries);
    }

    #[test]
    fn zero_spill_threshold_rejected() {
        let c = EngineConfig::default().with_spill_threshold_bytes(0);
        match c.validate() {
            Err(crate::Error::InvalidConfig(m)) => {
                assert!(m.contains("spill_threshold_bytes"), "{m}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn spill_dir_is_created_when_missing_and_rejected_when_uncreatable() {
        // A missing directory is created by validation (fresh-deployment
        // ergonomics), so the engine never fails its first spill on a
        // typo'd-but-creatable path.
        let fresh = std::env::temp_dir().join(format!(
            "spinner_fresh_spill_{}/nested/dir",
            std::process::id()
        ));
        let c = EngineConfig::default()
            .with_spill_threshold_bytes(1024)
            .with_spill_dir(fresh.to_str().unwrap());
        assert!(c.validate().is_ok());
        assert!(fresh.is_dir(), "validation must create the directory");
        std::fs::remove_dir_all(fresh.parent().unwrap().parent().unwrap()).unwrap();

        // A file path is rejected even though it exists...
        let file = std::env::temp_dir().join(format!("spinner_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let c = EngineConfig::default().with_spill_dir(file.to_str().unwrap());
        match c.validate() {
            Err(crate::Error::InvalidConfig(m)) => {
                assert!(m.contains("not a directory"), "{m}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // ...and so is an uncreatable path (its parent is that file).
        let blocked = file.join("sub");
        let c = EngineConfig::default()
            .with_spill_threshold_bytes(1024)
            .with_spill_dir(blocked.to_str().unwrap());
        match c.validate() {
            Err(crate::Error::InvalidConfig(m)) => {
                assert!(m.contains("cannot be created"), "{m}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        std::fs::remove_file(&file).unwrap();
        // The OS temp dir is writable, so this validates.
        let c = EngineConfig::default()
            .with_spill_threshold_bytes(1024)
            .with_spill_dir(std::env::temp_dir().to_str().unwrap());
        assert!(c.validate().is_ok());
    }
}
