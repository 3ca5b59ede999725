//! Cooperative query guardrails: cancellation, deadline, resource budgets.
//!
//! A [`QueryGuard`] is a shared token (wrap it in an `Arc` to signal from
//! another thread) that the executor consults at operator batch
//! boundaries and at every loop iteration. It carries three kinds of
//! limits, all unlimited by default:
//!
//! * a **cancel flag** — [`QueryGuard::cancel`] makes the next
//!   [`QueryGuard::check`] return [`Error::Cancelled`];
//! * a **wall-clock deadline** — `check` returns [`Error::Timeout`] once
//!   the elapsed time passes `query_timeout_ms`;
//! * **atomic budgets** for rows materialized into temp results, rows
//!   moved through exchange operators, and estimated bytes of
//!   intermediate state — the `charge_*` methods return
//!   [`Error::ResourceExhausted`] when a budget trips.
//!
//! Checks are cooperative: a guard never interrupts a worker
//! pre-emptively, it only fails the next boundary check, which keeps
//! catalog and temp-result state consistent (partial working tables are
//! cleaned up by the engine's normal error path).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::config::{EngineConfig, SessionSettings};
use crate::error::{Error, Result};

/// An atomic counter with an upper bound (`u64::MAX` = unlimited).
#[derive(Debug)]
struct Budget {
    used: AtomicU64,
    limit: u64,
}

impl Budget {
    fn unlimited() -> Self {
        Budget {
            used: AtomicU64::new(0),
            limit: u64::MAX,
        }
    }

    fn limited(limit: Option<u64>) -> Self {
        Budget {
            used: AtomicU64::new(0),
            limit: limit.unwrap_or(u64::MAX),
        }
    }

    /// Add `amount`; error once the running total exceeds the limit.
    fn charge(&self, resource: &str, amount: u64) -> Result<()> {
        let used = self
            .used
            .fetch_add(amount, Ordering::Relaxed)
            .saturating_add(amount);
        if used > self.limit {
            return Err(Error::ResourceExhausted {
                resource: resource.to_string(),
                used,
                limit: self.limit,
            });
        }
        Ok(())
    }

    fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// Shared guardrail token for one query (or one script).
///
/// See the [module docs](self) for semantics. Constructed from an
/// [`EngineConfig`] (the engine does this per statement) or explicitly
/// via the builder methods for caller-supplied limits:
///
/// ```
/// use spinner_common::QueryGuard;
/// let guard = QueryGuard::unlimited().with_timeout_ms(50);
/// assert!(guard.check().is_ok());
/// ```
#[derive(Debug)]
pub struct QueryGuard {
    cancelled: AtomicBool,
    worker_abort: AtomicBool,
    started: Instant,
    deadline: Option<Instant>,
    limit_ms: u64,
    rows_materialized: Budget,
    rows_moved: Budget,
    intermediate_bytes: Budget,
}

impl Default for QueryGuard {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl QueryGuard {
    /// A guard with no limits: checks always pass until [`cancel`] is
    /// called.
    ///
    /// [`cancel`]: QueryGuard::cancel
    pub fn unlimited() -> Self {
        QueryGuard {
            cancelled: AtomicBool::new(false),
            worker_abort: AtomicBool::new(false),
            started: Instant::now(),
            deadline: None,
            limit_ms: 0,
            rows_materialized: Budget::unlimited(),
            rows_moved: Budget::unlimited(),
            intermediate_bytes: Budget::unlimited(),
        }
    }

    /// A guard carrying the session-scoped limits of `config`. The clock
    /// starts now.
    pub fn from_config(config: &EngineConfig) -> Self {
        Self::from_settings(&config.session_settings())
    }

    /// A guard carrying `limits` — a config's session-scoped options,
    /// possibly overlaid with one session's overrides. The clock starts
    /// now.
    pub fn from_settings(limits: &SessionSettings) -> Self {
        let started = Instant::now();
        QueryGuard {
            cancelled: AtomicBool::new(false),
            worker_abort: AtomicBool::new(false),
            started,
            deadline: limits
                .query_timeout_ms
                .map(|ms| started + std::time::Duration::from_millis(ms)),
            limit_ms: limits.query_timeout_ms.unwrap_or(0),
            rows_materialized: Budget::limited(limits.max_rows_materialized),
            rows_moved: Budget::limited(limits.max_rows_moved),
            intermediate_bytes: Budget::limited(limits.max_intermediate_bytes),
        }
    }

    /// Builder: wall-clock deadline, measured from guard creation.
    pub fn with_timeout_ms(mut self, limit_ms: u64) -> Self {
        self.deadline = Some(self.started + std::time::Duration::from_millis(limit_ms));
        self.limit_ms = limit_ms;
        self
    }

    /// Builder: budget for rows materialized into temp results.
    pub fn with_max_rows_materialized(mut self, limit: u64) -> Self {
        self.rows_materialized = Budget::limited(Some(limit));
        self
    }

    /// Builder: budget for rows moved through exchange operators.
    pub fn with_max_rows_moved(mut self, limit: u64) -> Self {
        self.rows_moved = Budget::limited(Some(limit));
        self
    }

    /// Builder: budget for estimated bytes of intermediate state.
    pub fn with_max_intermediate_bytes(mut self, limit: u64) -> Self {
        self.intermediate_bytes = Budget::limited(Some(limit));
        self
    }

    /// Request cooperative cancellation; the next [`check`] anywhere in
    /// the pipeline fails with [`Error::Cancelled`]. Safe to call from
    /// any thread, any number of times.
    ///
    /// [`check`]: QueryGuard::check
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`QueryGuard::cancel`] has been called.
    ///
    /// Reflects *external* cancellation only — internal worker aborts
    /// (see [`QueryGuard::abort_workers`]) do not show up here.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Request an *internal* stop of in-flight sibling workers, e.g.
    /// because one partition exhausted its retries. Like [`cancel`] this
    /// makes the next [`check`] fail with [`Error::Cancelled`], but unlike
    /// external cancellation it is clearable: the recovery subsystem calls
    /// [`clear_worker_abort`] before replaying from a checkpoint.
    ///
    /// [`cancel`]: QueryGuard::cancel
    /// [`check`]: QueryGuard::check
    /// [`clear_worker_abort`]: QueryGuard::clear_worker_abort
    pub fn abort_workers(&self) {
        self.worker_abort.store(true, Ordering::Release);
    }

    /// Whether an internal worker abort is pending (and not yet cleared).
    pub fn worker_abort_requested(&self) -> bool {
        self.worker_abort.load(Ordering::Acquire)
    }

    /// Clear a pending internal worker abort so a rollback can replay.
    /// External cancellation ([`QueryGuard::cancel`]) is sticky and is
    /// *not* cleared by this.
    pub fn clear_worker_abort(&self) {
        self.worker_abort.store(false, Ordering::Release);
    }

    /// Milliseconds since the guard was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The boundary check: fails with [`Error::Cancelled`] or
    /// [`Error::Timeout`]. Called at operator batch boundaries, between
    /// step-program steps, and at every loop iteration.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() || self.worker_abort_requested() {
            return Err(Error::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Error::Timeout {
                    elapsed_ms: self.elapsed_ms(),
                    limit_ms: self.limit_ms,
                });
            }
        }
        Ok(())
    }

    /// Charge rows written into a materialized temp result.
    pub fn charge_rows_materialized(&self, rows: u64) -> Result<()> {
        self.rows_materialized.charge("rows_materialized", rows)
    }

    /// Charge rows crossing an exchange (shuffle/gather/broadcast).
    pub fn charge_rows_moved(&self, rows: u64) -> Result<()> {
        self.rows_moved.charge("rows_moved", rows)
    }

    /// Charge estimated bytes of intermediate state.
    pub fn charge_intermediate_bytes(&self, bytes: u64) -> Result<()> {
        self.intermediate_bytes.charge("intermediate_bytes", bytes)
    }

    /// Estimated intermediate bytes so far (observability / tests).
    pub fn intermediate_bytes_used(&self) -> u64 {
        self.intermediate_bytes.used()
    }

    /// The configured intermediate-bytes budget, `None` when unlimited.
    ///
    /// With spilling enabled the executor enforces this limit against
    /// *resident* bytes (after a spill pass) instead of the cumulative
    /// charge, so it needs the raw limit rather than
    /// [`charge_intermediate_bytes`](Self::charge_intermediate_bytes).
    pub fn intermediate_bytes_limit(&self) -> Option<u64> {
        let limit = self.intermediate_bytes.limit;
        (limit != u64::MAX).then_some(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_always_passes() {
        let g = QueryGuard::unlimited();
        assert!(g.check().is_ok());
        assert!(g.charge_rows_materialized(u64::MAX / 2).is_ok());
        assert!(g.charge_rows_moved(u64::MAX / 2).is_ok());
    }

    #[test]
    fn cancel_trips_check() {
        let g = QueryGuard::unlimited();
        assert!(g.check().is_ok());
        g.cancel();
        assert_eq!(g.check(), Err(Error::Cancelled));
    }

    #[test]
    fn cancel_works_across_threads() {
        let g = std::sync::Arc::new(QueryGuard::unlimited());
        let g2 = std::sync::Arc::clone(&g);
        std::thread::spawn(move || g2.cancel()).join().unwrap();
        assert_eq!(g.check(), Err(Error::Cancelled));
    }

    #[test]
    fn deadline_trips_check() {
        let g = QueryGuard::unlimited().with_timeout_ms(5);
        assert!(g.check().is_ok());
        std::thread::sleep(std::time::Duration::from_millis(10));
        match g.check() {
            Err(Error::Timeout {
                elapsed_ms,
                limit_ms,
            }) => {
                assert_eq!(limit_ms, 5);
                assert!(elapsed_ms >= 5, "elapsed {elapsed_ms} < 5");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn budget_reports_used_at_least_limit() {
        let g = QueryGuard::unlimited().with_max_rows_materialized(100);
        assert!(g.charge_rows_materialized(60).is_ok());
        match g.charge_rows_materialized(60) {
            Err(Error::ResourceExhausted {
                resource,
                used,
                limit,
            }) => {
                assert_eq!(resource, "rows_materialized");
                assert_eq!(limit, 100);
                assert!(used >= limit, "used {used} < limit {limit}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn budgets_are_independent() {
        let g = QueryGuard::unlimited().with_max_rows_moved(10);
        assert!(g.charge_rows_materialized(1000).is_ok());
        assert!(g.charge_intermediate_bytes(1000).is_ok());
        assert!(g.charge_rows_moved(11).is_err());
    }

    #[test]
    fn worker_abort_trips_check_but_is_clearable() {
        let g = QueryGuard::unlimited();
        g.abort_workers();
        assert!(g.worker_abort_requested());
        assert_eq!(g.check(), Err(Error::Cancelled));
        // Not an external cancellation...
        assert!(!g.is_cancelled());
        // ...and recovery can clear it and resume.
        g.clear_worker_abort();
        assert!(g.check().is_ok());
    }

    #[test]
    fn external_cancel_survives_worker_abort_clear() {
        let g = QueryGuard::unlimited();
        g.cancel();
        g.abort_workers();
        g.clear_worker_abort();
        assert_eq!(g.check(), Err(Error::Cancelled));
        assert!(g.is_cancelled());
    }

    #[test]
    fn from_config_picks_up_limits() {
        let config = crate::EngineConfig::default()
            .with_max_rows_materialized(5)
            .with_query_timeout_ms(60_000);
        let g = QueryGuard::from_config(&config);
        assert!(g.check().is_ok());
        assert!(g.charge_rows_materialized(6).is_err());
    }
}
