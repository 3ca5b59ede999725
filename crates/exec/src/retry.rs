//! The one bounded-retry loop behind every rung of the recovery ladder:
//! per-partition retry, step retry, the loop-entry checkpoint and
//! rollback-and-replay differ only in the budget they draw on, what they
//! count, and what must hold before a re-run — never in the loop itself.

use spinner_common::{Error, QueryGuard, Result};

/// Run `attempt` until it succeeds, fails with a non-retryable error (see
/// [`Error::is_retryable`]), or has been re-run `budget` times.
///
/// After a retryable failure, external cancellation wins over everything
/// else. A spent budget returns the attempt's error, which is still
/// retryable: that is how callers tell exhaustion from a fatal failure.
/// With budget left, `before_retry` has the last word: it counts the
/// re-run, or stops the loop with its own error (a passed deadline) or —
/// `Ok(false)` — with the attempt's.
pub(crate) fn retry<T>(
    guard: &QueryGuard,
    budget: u64,
    mut before_retry: impl FnMut() -> Result<bool>,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut retries = 0;
    loop {
        match attempt() {
            Err(e) if e.is_retryable() => {
                if guard.is_cancelled() {
                    return Err(Error::Cancelled);
                }
                if retries == budget || !before_retry()? {
                    return Err(e);
                }
                retries += 1;
            }
            outcome => return outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> Error {
        Error::FaultInjected {
            site: "worker".into(),
        }
    }

    /// Fails `failures` times with `err`, then succeeds; returns the
    /// outcome with the attempts made and the retries counted.
    fn run(
        guard: &QueryGuard,
        budget: u64,
        failures: u64,
        err: fn() -> Error,
    ) -> (Result<u64>, u64, u64) {
        let (mut attempts, mut counted) = (0, 0);
        let outcome = retry(
            guard,
            budget,
            || {
                counted += 1;
                Ok(true)
            },
            || {
                attempts += 1;
                if attempts <= failures {
                    Err(err())
                } else {
                    Ok(attempts)
                }
            },
        );
        (outcome, attempts, counted)
    }

    #[test]
    fn retry_honours_budget_fatal_errors_and_cancellation() {
        let guard = QueryGuard::unlimited();
        // The fault-free path is one call and counts nothing.
        assert!(matches!(run(&guard, 2, 0, transient), (Ok(1), 1, 0)));
        // Two failures fit a budget of two re-runs...
        assert!(matches!(run(&guard, 2, 2, transient), (Ok(3), 3, 2)));
        // ...three do not: the last transient error comes back as is.
        let (outcome, attempts, counted) = run(&guard, 2, 3, transient);
        assert!(outcome.is_err_and(|e| e.is_retryable()));
        assert_eq!((attempts, counted), (3, 2));
        // No budget, no re-run.
        assert!(matches!(run(&guard, 0, 1, transient), (Err(_), 1, 0)));

        // A non-retryable error returns at once.
        let (outcome, attempts, counted) = run(&guard, 5, 1, || Error::execution("fatal"));
        assert!(matches!(outcome, Err(Error::Execution(_))));
        assert_eq!((attempts, counted), (1, 0));

        // `before_retry` stops with the attempt's error or with its own.
        let stopped = retry(&guard, 5, || Ok(false), || Err::<(), _>(transient()));
        assert!(matches!(stopped, Err(Error::FaultInjected { .. })));
        let deadline = || Err(Error::execution("deadline"));
        let timed_out = retry(&guard, 5, deadline, || Err::<(), _>(transient()));
        assert!(matches!(timed_out, Err(Error::Execution(_))));

        // Cancellation wins over a remaining budget.
        guard.cancel();
        let (outcome, attempts, counted) = run(&guard, 5, 1, transient);
        assert!(matches!(outcome, Err(Error::Cancelled)));
        assert_eq!((attempts, counted), (1, 0));
    }
}
