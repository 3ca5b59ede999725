//! Workspace-wide error type.
//!
//! A single error enum keeps cross-crate plumbing simple; variants are
//! grouped by pipeline stage (parse, plan, execution, catalog). The
//! `DuplicateIterationKey` variant reproduces the runtime error DBSpinner
//! raises when the iterative part of a CTE yields two updates for the same
//! row key (paper §II).

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// All errors produced by the DBSpinner reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexer/parser failure, with a 1-based character position when known.
    Parse {
        /// What went wrong.
        message: String,
        /// 1-based character offset into the SQL text, when known.
        position: Option<usize>,
    },
    /// Semantic analysis / planning failure (unknown column, arity, ...).
    Plan(String),
    /// Type mismatch discovered during planning or evaluation.
    Type(String),
    /// Runtime execution failure.
    Execution(String),
    /// Catalog object not found.
    TableNotFound(String),
    /// Catalog object already exists.
    TableExists(String),
    /// Column not found in a schema.
    ColumnNotFound(String),
    /// The iterative part produced two or more updates for one row key.
    ///
    /// Per the paper (§II), the user must restate the iterative part with an
    /// aggregation that resolves the duplicates.
    DuplicateIterationKey {
        /// The iterative CTE's user-visible name.
        cte: String,
        /// The duplicated key value, rendered as text.
        key: String,
    },
    /// An iterative CTE exceeded the configured safety bound on iterations.
    IterationLimitExceeded {
        /// The iterative CTE's user-visible name.
        cte: String,
        /// The configured `max_iterations` bound.
        limit: u64,
    },
    /// Arithmetic error (division by zero, overflow).
    Arithmetic(String),
    /// Feature understood by the grammar but not supported by this build.
    Unsupported(String),
    /// I/O error (dataset loading); stringified to keep `Error: Clone + Eq`.
    Io(String),
    /// The query was cancelled cooperatively (via `QueryGuard::cancel`).
    Cancelled,
    /// The query ran past its wall-clock deadline.
    Timeout {
        /// Milliseconds the query had been running when the check fired.
        elapsed_ms: u64,
        /// The configured timeout in milliseconds.
        limit_ms: u64,
    },
    /// A resource budget (rows materialized, rows moved, intermediate
    /// bytes) was exhausted. `used` is the amount observed when the
    /// budget tripped, so `used >= limit` always holds.
    ResourceExhausted {
        /// Which budget tripped (e.g. `rows_materialized`).
        resource: String,
        /// Amount observed when the budget tripped.
        used: u64,
        /// The configured budget.
        limit: u64,
    },
    /// A parallel partition worker panicked; the panic was caught at the
    /// partition boundary and sibling partitions were cancelled.
    WorkerPanicked {
        /// Index of the partition whose worker panicked.
        partition: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A configured fault-injection point fired (testing only).
    FaultInjected {
        /// The fault site that fired.
        site: String,
    },
    /// The engine configuration failed validation.
    InvalidConfig(String),
    /// Memory pressure demanded a spill but the disk write (or read-back)
    /// failed, so the engine could not degrade gracefully. Carries the
    /// region that needed spilling and the underlying failure text.
    SpillUnavailable {
        /// The region (temp result or checkpoint) that needed spilling.
        region: String,
        /// The underlying I/O failure, stringified.
        message: String,
    },
    /// Mid-loop recovery gave up: every rollback budgeted by
    /// `max_loop_recoveries` was spent and the loop still failed. Carries
    /// the error that exhausted the budget.
    RecoveryExhausted {
        /// The iterative CTE's user-visible name.
        cte: String,
        /// Recovery attempts consumed before giving up.
        recoveries: u64,
        /// The failure that exhausted the budget.
        source: Box<Error>,
    },
    /// The admission controller shed this query because the bounded wait
    /// queue was already full — the typed shed-load signal, returned
    /// *instead of* letting the queue grow without bound.
    Overloaded {
        /// Queries running when the shed decision was made.
        active: u64,
        /// Queries already waiting in the admission queue.
        queued: u64,
        /// The configured `admission_queue_limit`.
        limit: u64,
    },
    /// The query waited in the admission queue past its class's admission
    /// timeout and was shed without ever starting.
    AdmissionTimeout {
        /// Milliseconds spent waiting in the queue.
        waited_ms: u64,
        /// The configured admission timeout for the query's class.
        limit_ms: u64,
    },
    /// The server (or admission controller) is draining for shutdown and
    /// no longer admits new queries.
    ShuttingDown,
    /// A `WorkerPool::scope` call made no progress within the stall
    /// deadline and reclaimed its still-queued tasks — a lost-task
    /// surface instead of a coordinator hang.
    PoolStalled {
        /// Milliseconds the scope had been waiting when it gave up.
        waited_ms: u64,
        /// Tasks reclaimed from the queue without ever running.
        pending_tasks: u64,
    },
    /// An on-disk artifact (spill file, checkpoint epoch, journal) failed
    /// its integrity verification on read: bad magic, short/torn file,
    /// checksum mismatch, or the file is missing entirely. Transient by
    /// contract — recovery falls back to an older checkpoint epoch or
    /// recomputes the region, and only gives up through the bounded
    /// `RecoveryExhausted` path.
    StorageCorrupt {
        /// The region (temp result, checkpoint epoch, or journal) whose
        /// on-disk bytes failed verification.
        region: String,
        /// What the verifier found, stringified (offset, expected/actual).
        message: String,
    },
    /// A client tried to attach to a query handle the server does not
    /// know: never issued, already fetched, or belonging to a statement
    /// that was not adopted across the restart.
    UnknownHandle {
        /// The handle the client presented.
        handle: u64,
    },
    /// A client's bounded reconnect budget ran out without ever reaching
    /// the server — the typed end state of retry-with-backoff, so callers
    /// see one structured error instead of the last raw I/O failure.
    ConnectExhausted {
        /// Connection attempts made before giving up.
        attempts: u64,
        /// The final underlying failure, stringified.
        message: String,
    },
}

/// Coarse failure classification used by the recovery subsystem.
///
/// Transient errors (injected faults, worker panics, I/O) are worth
/// retrying against the same input snapshot; fatal errors (bad SQL, type
/// errors, tripped budgets, user cancellation) are deterministic or
/// intentional, and retrying them only wastes the recovery budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Plausibly transient: re-running the same work may succeed.
    Transient,
    /// Deterministic or user-initiated: retrying cannot help.
    Fatal,
}

impl Error {
    /// Parse error without position information.
    pub fn parse(message: impl Into<String>) -> Self {
        Error::Parse {
            message: message.into(),
            position: None,
        }
    }

    /// Parse error anchored at a character offset.
    pub fn parse_at(message: impl Into<String>, position: usize) -> Self {
        Error::Parse {
            message: message.into(),
            position: Some(position),
        }
    }

    /// Planning error.
    pub fn plan(message: impl Into<String>) -> Self {
        Error::Plan(message.into())
    }

    /// Type error.
    pub fn type_error(message: impl Into<String>) -> Self {
        Error::Type(message.into())
    }

    /// Execution error.
    pub fn execution(message: impl Into<String>) -> Self {
        Error::Execution(message.into())
    }

    /// Unsupported-feature error.
    pub fn unsupported(message: impl Into<String>) -> Self {
        Error::Unsupported(message.into())
    }

    /// Classify this error for the recovery subsystem.
    ///
    /// Injected faults, caught worker panics, and I/O errors are
    /// [`ErrorClass::Transient`]; everything else — including cancellation,
    /// deadlines, and resource budgets, which represent deliberate limits —
    /// is [`ErrorClass::Fatal`].
    pub fn class(&self) -> ErrorClass {
        match self {
            Error::FaultInjected { .. }
            | Error::WorkerPanicked { .. }
            | Error::Io(_)
            | Error::SpillUnavailable { .. }
            | Error::StorageCorrupt { .. }
            | Error::PoolStalled { .. } => ErrorClass::Transient,
            // Shed-load decisions (`Overloaded`, `AdmissionTimeout`,
            // `ShuttingDown`) are deliberate back-pressure: retrying
            // inside the engine would defeat the shedding, so they are
            // Fatal here — the *client* is the right retry loop.
            _ => ErrorClass::Fatal,
        }
    }

    /// Whether the recovery subsystem may retry work that failed with this
    /// error. Shorthand for `self.class() == ErrorClass::Transient`.
    pub fn is_retryable(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse {
                message,
                position: Some(p),
            } => {
                write!(f, "parse error at position {p}: {message}")
            }
            Error::Parse {
                message,
                position: None,
            } => write!(f, "parse error: {message}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::TableNotFound(t) => write!(f, "table '{t}' does not exist"),
            Error::TableExists(t) => write!(f, "table '{t}' already exists"),
            Error::ColumnNotFound(c) => write!(f, "column '{c}' does not exist"),
            Error::DuplicateIterationKey { cte, key } => write!(
                f,
                "iterative CTE '{cte}' produced multiple updates for row key {key}; \
                 add an aggregation to the iterative part to resolve duplicates"
            ),
            Error::IterationLimitExceeded { cte, limit } => write!(
                f,
                "iterative CTE '{cte}' exceeded the safety limit of {limit} iterations"
            ),
            Error::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Timeout {
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "query timed out after {elapsed_ms} ms (limit {limit_ms} ms)"
            ),
            Error::ResourceExhausted {
                resource,
                used,
                limit,
            } => write!(
                f,
                "resource budget exhausted: {resource} used {used} of limit {limit}"
            ),
            Error::WorkerPanicked { partition, message } => {
                write!(f, "worker for partition {partition} panicked: {message}")
            }
            Error::FaultInjected { site } => write!(f, "injected fault at {site}"),
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::SpillUnavailable { region, message } => write!(
                f,
                "spill unavailable for '{region}': {message}; \
                 intermediate state cannot be moved to disk"
            ),
            Error::RecoveryExhausted {
                cte,
                recoveries,
                source,
            } => write!(
                f,
                "iterative CTE '{cte}' failed after {recoveries} recovery attempt(s): {source}"
            ),
            Error::Overloaded {
                active,
                queued,
                limit,
            } => write!(
                f,
                "server overloaded: {active} queries running, {queued} queued \
                 (queue limit {limit}); try again later"
            ),
            Error::AdmissionTimeout {
                waited_ms,
                limit_ms,
            } => write!(
                f,
                "admission timed out after waiting {waited_ms} ms (limit {limit_ms} ms); \
                 the query never started"
            ),
            Error::ShuttingDown => write!(f, "server is shutting down; no new queries admitted"),
            Error::PoolStalled {
                waited_ms,
                pending_tasks,
            } => write!(
                f,
                "worker pool made no progress for {waited_ms} ms; \
                 {pending_tasks} queued task(s) reclaimed without running"
            ),
            Error::StorageCorrupt { region, message } => write!(
                f,
                "on-disk state for '{region}' failed verification: {message}; \
                 recovery will fall back or recompute"
            ),
            Error::UnknownHandle { handle } => write!(
                f,
                "unknown query handle {handle}: never issued, already fetched, \
                 or not adopted across the restart"
            ),
            Error::ConnectExhausted { attempts, message } => write!(
                f,
                "could not connect after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = Error::parse_at("unexpected ')'", 17);
        assert_eq!(e.to_string(), "parse error at position 17: unexpected ')'");
    }

    #[test]
    fn duplicate_key_message_mentions_aggregation() {
        let e = Error::DuplicateIterationKey {
            cte: "pr".into(),
            key: "7".into(),
        };
        assert!(e.to_string().contains("aggregation"));
    }

    #[test]
    fn guardrail_errors_carry_their_numbers() {
        let t = Error::Timeout {
            elapsed_ms: 61,
            limit_ms: 50,
        };
        assert_eq!(t.to_string(), "query timed out after 61 ms (limit 50 ms)");
        let r = Error::ResourceExhausted {
            resource: "rows_materialized".into(),
            used: 1200,
            limit: 1000,
        };
        assert!(r
            .to_string()
            .contains("rows_materialized used 1200 of limit 1000"));
        let w = Error::WorkerPanicked {
            partition: 3,
            message: "boom".into(),
        };
        assert!(w.to_string().contains("partition 3"));
        assert!(w.to_string().contains("boom"));
    }

    #[test]
    fn classification_separates_transient_from_fatal() {
        assert!(Error::FaultInjected {
            site: "worker".into()
        }
        .is_retryable());
        assert!(Error::WorkerPanicked {
            partition: 0,
            message: "boom".into()
        }
        .is_retryable());
        assert!(Error::Io("disk".into()).is_retryable());
        // A failed spill is an I/O failure at heart: retryable, so a
        // failed spill *read* mid-loop triggers rollback-and-replay.
        assert!(Error::SpillUnavailable {
            region: "__cte_pr_1".into(),
            message: "disk full".into()
        }
        .is_retryable());
        // Corruption detected on read is transient by contract: recovery
        // falls back to an older epoch or recomputes the region.
        assert!(Error::StorageCorrupt {
            region: "checkpoint:pr".into(),
            message: "checksum mismatch at offset 12".into()
        }
        .is_retryable());
        assert_eq!(Error::Cancelled.class(), ErrorClass::Fatal);
        assert_eq!(
            Error::InvalidConfig("bad".into()).class(),
            ErrorClass::Fatal
        );
        assert_eq!(
            Error::Timeout {
                elapsed_ms: 2,
                limit_ms: 1
            }
            .class(),
            ErrorClass::Fatal
        );
        assert_eq!(Error::execution("oops").class(), ErrorClass::Fatal);
    }

    #[test]
    fn shed_load_errors_are_fatal_and_carry_numbers() {
        let o = Error::Overloaded {
            active: 4,
            queued: 16,
            limit: 16,
        };
        assert!(o.to_string().contains("4 queries running"));
        assert!(o.to_string().contains("queue limit 16"));
        assert_eq!(o.class(), ErrorClass::Fatal);
        let t = Error::AdmissionTimeout {
            waited_ms: 120,
            limit_ms: 100,
        };
        assert!(t.to_string().contains("waiting 120 ms"));
        assert!(t.to_string().contains("never started"));
        assert_eq!(t.class(), ErrorClass::Fatal);
        assert_eq!(Error::ShuttingDown.class(), ErrorClass::Fatal);
    }

    #[test]
    fn pool_stall_is_transient_and_names_reclaimed_tasks() {
        let e = Error::PoolStalled {
            waited_ms: 250,
            pending_tasks: 3,
        };
        assert!(e.to_string().contains("3 queued task(s)"));
        assert!(e.is_retryable(), "a stalled scope is worth one retry");
    }

    #[test]
    fn restart_errors_are_fatal_and_carry_context() {
        let u = Error::UnknownHandle { handle: 42 };
        assert!(u.to_string().contains("handle 42"));
        assert_eq!(u.class(), ErrorClass::Fatal);
        let c = Error::ConnectExhausted {
            attempts: 5,
            message: "connection refused".into(),
        };
        assert!(c.to_string().contains("5 attempt(s)"));
        assert!(c.to_string().contains("connection refused"));
        // The client's retry loop already ran; surfacing Transient here
        // would invite a second, unbounded retry loop around it.
        assert_eq!(c.class(), ErrorClass::Fatal);
    }

    #[test]
    fn recovery_exhausted_wraps_its_source() {
        let e = Error::RecoveryExhausted {
            cte: "pr".into(),
            recoveries: 3,
            source: Box::new(Error::WorkerPanicked {
                partition: 1,
                message: "boom".into(),
            }),
        };
        assert!(e.to_string().contains("after 3 recovery attempt(s)"));
        assert!(e.to_string().contains("partition 1"));
        // Exhaustion itself is terminal, never retried again.
        assert_eq!(e.class(), ErrorClass::Fatal);
    }
}
