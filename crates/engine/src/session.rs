//! Per-connection sessions over a shared [`Database`].
//!
//! A [`Session`] is what the server front-end hands each TCP connection
//! (and what embedders use for multi-tenant access): it owns the
//! connection's guardrail *overrides* and the handle to its currently
//! running query, while the `Database` stays the single shared engine.
//! Statements executed through a session get a fresh [`QueryGuard`]
//! built from the engine config's defaults overlaid with the session's
//! `SET SESSION` overrides, and the guard is published in the session so
//! another thread — the connection reader that just saw EOF, an admin —
//! can [`Session::cancel_current`] it. Per-statement temp state needs no
//! session plumbing: statements own their `StatementContext` wholesale, so
//! two sessions (or two statements racing on one session) can never see
//! each other's intermediates.
//!
//! Session commands (recognised here, before SQL):
//!
//! * `SET SESSION <KNOB> = <value>` — override a guardrail for this
//!   session only;
//! * `RESET SESSION <KNOB>` — drop one override; `RESET SESSION ALL`
//!   drops them all.
//!
//! The knobs, their ranges and their error texts are the session rows of
//! the option table ([`spinner_common::config`]); this module only splits
//! the command into a knob and a value.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spinner_common::{Error, QueryGuard, Result, SessionSettings};

use crate::database::Database;
use crate::result::QueryResult;

/// Monotonic session-id source, process-wide.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// One client's view of a shared [`Database`]. See the module docs.
pub struct Session {
    db: Arc<Database>,
    id: u64,
    /// `SET SESSION` overrides; `None` falls through to the engine config.
    overrides: Mutex<SessionSettings>,
    /// Guard of the statement currently executing through this session,
    /// if any — the cancel handle for connection-drop teardown.
    current: Mutex<Option<Arc<QueryGuard>>>,
}

impl Session {
    /// New session over `db` with no overrides.
    pub fn new(db: Arc<Database>) -> Self {
        Session {
            db,
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            overrides: Mutex::new(SessionSettings::default()),
            current: Mutex::new(None),
        }
    }

    /// This session's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared database this session runs against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    fn overrides(&self) -> std::sync::MutexGuard<'_, SessionSettings> {
        // Plain-Copy state: recovery from poison cannot observe a tear.
        self.overrides.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Build the guard one statement will run under: engine-config
    /// defaults overlaid with this session's `SET SESSION` overrides.
    pub fn build_guard(&self) -> QueryGuard {
        let overrides = *self.overrides();
        QueryGuard::from_settings(&overrides.overlay(self.db.config().session_settings()))
    }

    /// Execute one statement (or session command) on behalf of this
    /// session. The statement's guard is published as the session's
    /// current query for the duration, so [`Session::cancel_current`]
    /// from another thread aborts it cooperatively.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_announcing(sql, &mut |_| {})
    }

    /// [`Session::execute`], passing `on_handle` down to
    /// [`Database::execute_announcing`] (the server writes the `HANDLE`
    /// frame from it).
    pub fn execute_announcing(
        &self,
        sql: &str,
        on_handle: &mut dyn FnMut(u64),
    ) -> Result<QueryResult> {
        if let Some(result) = self.try_session_command(sql)? {
            return Ok(result);
        }
        let guard = Arc::new(self.build_guard());
        {
            let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
            *current = Some(Arc::clone(&guard));
        }
        let result = self.db.execute_announcing(sql, &guard, on_handle);
        {
            let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
            *current = None;
        }
        result
    }

    /// Cooperatively cancel the query currently running through this
    /// session, if any; returns whether one was running. The cancel is
    /// sticky (the running statement fails with `Error::Cancelled` at
    /// its next guard check) but only affects that statement — the
    /// session itself stays usable.
    pub fn cancel_current(&self) -> bool {
        let current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        match current.as_ref() {
            Some(guard) => {
                guard.cancel();
                true
            }
            None => false,
        }
    }

    /// Parse and apply `SET SESSION` / `RESET SESSION`, returning
    /// `Ok(Some(Ddl))` if `sql` was a session command, `Ok(None)` if it
    /// is ordinary SQL for the engine.
    fn try_session_command(&self, sql: &str) -> Result<Option<QueryResult>> {
        let trimmed = sql.trim().trim_end_matches(';').trim();
        let words: Vec<&str> = trimmed.split_whitespace().collect();
        let upper: Vec<String> = words.iter().map(|w| w.to_ascii_uppercase()).collect();
        if upper.len() >= 2 && upper[0] == "SET" && upper[1] == "SESSION" {
            // SET SESSION <KNOB> = <value>  (the '=' may be glued to
            // either side, so re-split on it).
            let rest = words[2..].join(" ");
            let mut parts = rest.splitn(2, '=');
            let knob = parts.next().unwrap_or("").trim().to_ascii_uppercase();
            let value = parts.next().map(str::trim).unwrap_or("");
            if knob.is_empty() || value.is_empty() {
                return Err(Error::unsupported(
                    "SET SESSION syntax: SET SESSION <KNOB> = <value>",
                ));
            }
            let parsed: u64 = value.parse().map_err(|_| {
                Error::unsupported(format!("SET SESSION {knob}: invalid value {value:?}"))
            })?;
            self.overrides().set(&knob, parsed)?;
            return Ok(Some(QueryResult::Ddl));
        }
        if upper.len() >= 3 && upper[0] == "RESET" && upper[1] == "SESSION" {
            self.overrides().reset(&upper[2])?;
            return Ok(Some(QueryResult::Ddl));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::EngineConfig;

    fn session() -> Session {
        let db = Arc::new(Database::default());
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        Session::new(db)
    }

    #[test]
    fn sessions_get_unique_ids_and_run_sql() {
        let s1 = session();
        let s2 = Session::new(Arc::clone(s1.database()));
        assert_ne!(s1.id(), s2.id());
        let rows = s1
            .execute("SELECT COUNT(*) FROM t")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.rows()[0][0].as_i64().unwrap(), 3);
    }

    #[test]
    fn set_session_overrides_guardrails_per_session() {
        let s = session();
        s.execute("SET SESSION MAX_ROWS_MATERIALIZED = 1").unwrap();
        let err = s
            .execute(
                "WITH ITERATIVE x (v) AS (SELECT a FROM t \
                 ITERATE SELECT v + 1 FROM x UNTIL 3 ITERATIONS) SELECT * FROM x",
            )
            .unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted { .. }),
            "expected budget trip, got {err:?}"
        );
        // A sibling session on the same database is unaffected.
        let other = Session::new(Arc::clone(s.database()));
        other.execute("SELECT * FROM t").unwrap();
        // RESET restores the default (unlimited here).
        s.execute("RESET SESSION MAX_ROWS_MATERIALIZED").unwrap();
        s.execute("SELECT * FROM t").unwrap();
    }

    #[test]
    fn set_session_timeout_applies() {
        let s = session();
        s.execute("SET SESSION TIMEOUT_MS = 60000").unwrap();
        // The override reaches the guard, and the statement runs fine
        // well under the deadline.
        assert!(s.build_guard().check().is_ok());
        s.execute("SELECT COUNT(*) FROM t").unwrap();
        s.execute("RESET SESSION ALL").unwrap();
    }

    #[test]
    fn malformed_session_commands_are_rejected() {
        let s = session();
        assert!(s.execute("SET SESSION TIMEOUT_MS").is_err());
        assert!(s.execute("SET SESSION TIMEOUT_MS = abc").is_err());
        assert!(s.execute("SET SESSION NO_SUCH_KNOB = 1").is_err());
        assert!(s.execute("RESET SESSION NO_SUCH_KNOB").is_err());
        // A zero timeout would fail every later statement, so it is
        // refused by name and the session keeps working.
        match s.execute("SET SESSION TIMEOUT_MS = 0") {
            Err(Error::InvalidConfig(m)) => assert!(m.contains("TIMEOUT_MS"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        s.execute("SELECT COUNT(*) FROM t").unwrap();
        // Ordinary SQL still flows through to the parser.
        assert!(s.execute("SET x = 1").is_err());
    }

    #[test]
    fn cancel_current_aborts_a_running_query() {
        let db = Arc::new(Database::new(EngineConfig::default()).unwrap());
        db.execute("CREATE TABLE seed (v INT)").unwrap();
        db.execute("INSERT INTO seed VALUES (1)").unwrap();
        let s = Arc::new(Session::new(db));
        assert!(!s.cancel_current(), "nothing running yet");
        let runner = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                // Effectively unbounded loop; only the cancel stops it.
                s.execute(
                    "WITH ITERATIVE x (v) AS (SELECT v FROM seed \
                     ITERATE SELECT v + 1 FROM x UNTIL 100000000 ITERATIONS) \
                     SELECT COUNT(*) FROM x",
                )
            })
        };
        // Wait for the query to publish its guard, then cancel it.
        loop {
            if s.cancel_current() {
                break;
            }
            std::thread::yield_now();
        }
        let err = runner.join().unwrap().unwrap_err();
        assert!(matches!(err, Error::Cancelled), "got {err:?}");
        // The session survives its cancelled statement.
        let rows = s
            .execute("SELECT COUNT(*) FROM seed")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.rows()[0][0].as_i64().unwrap(), 1);
    }
}
