//! A minimal blocking client for the spinner-server wire protocol.
//!
//! Used by the integration tests, the benchmark's `serve_mixed` workload
//! and the `spinner-client` binary. One [`Client`] maps to one server
//! session; [`Client::query`] is strictly request/response.

use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_affected, decode_error, decode_rows, read_frame, write_frame, TAG_AFFECTED, TAG_ATTACH,
    TAG_CLOSE, TAG_DDL, TAG_ERROR, TAG_HANDLE, TAG_HELLO, TAG_QUERY, TAG_ROWS, TAG_TEXT,
};

/// Retry budget for [`Client::connect_with_retry`]: exponential backoff
/// with deterministic jitter, a delay cap, and a bounded attempt count —
/// a restarting server gets breathing room, a dead one yields a typed
/// [`spinner_common::Error::ConnectExhausted`] instead of a hang.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Total connection attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Delay after the first failed attempt; doubles per attempt.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff delay.
    pub max_delay_ms: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
        }
    }
}

impl ReconnectPolicy {
    /// Backoff before attempt `attempt + 1` (0-based): `base * 2^attempt`
    /// capped at `max_delay_ms`, ± up to 25% deterministic jitter so a
    /// thundering herd of reconnecting clients decorrelates.
    fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms)
            .max(1);
        // xorshift over (pid, attempt): stable within a process, different
        // across the fleet — no clock reads, no external crates.
        let mut x = (u64::from(std::process::id()) << 32) | u64::from(attempt) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter = exp / 4;
        let offset = if jitter > 0 { x % (2 * jitter + 1) } else { 0 };
        Duration::from_millis(exp - jitter + offset)
    }
}

/// One decoded server response to a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A row set: column names plus text-rendered cells (`None` = NULL).
    Rows {
        /// Column names in output order.
        columns: Vec<String>,
        /// Rows of text cells; `None` is SQL NULL.
        rows: Vec<Vec<Option<String>>>,
    },
    /// DML completed, touching this many rows.
    Affected(u64),
    /// DDL or session command completed.
    Ddl,
    /// EXPLAIN / EXPLAIN ANALYZE rendering.
    Text(String),
    /// The statement failed; `code` is the stable token from
    /// [`crate::protocol::error_code`].
    Error {
        /// Machine-readable error token (e.g. `overloaded`).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl Reply {
    /// Whether the statement succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Error { .. })
    }

    /// The error token, if this reply is an error.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            Reply::Error { code, .. } => Some(code),
            _ => None,
        }
    }

    /// The rows, if this reply is a row set.
    pub fn rows(&self) -> Option<&[Vec<Option<String>>]> {
        match self {
            Reply::Rows { rows, .. } => Some(rows),
            _ => None,
        }
    }

    /// First cell of the first row parsed as an integer — the common
    /// shape for `SELECT COUNT(*)`-style probes in tests.
    pub fn scalar_i64(&self) -> Option<i64> {
        self.rows()?.first()?.first()?.as_deref()?.parse().ok()
    }
}

/// A blocking connection to a spinner-server, one session per client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    session_id: u64,
    /// Stable query handle from the most recent statement's `HANDLE`
    /// frame, if the server journaled it for crash resumption.
    last_handle: Option<u64>,
}

impl Client {
    /// Connect and consume the server greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let (tag, payload) = read_frame(&mut stream)?;
        if tag != TAG_HELLO || payload.len() < 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server did not send a greeting frame",
            ));
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&payload[..8]);
        Ok(Client {
            stream,
            session_id: u64::from_be_bytes(id),
            last_handle: None,
        })
    }

    /// Connect with a bounded exponential-backoff retry loop — the shape
    /// a client uses to ride out a server restart. Every attempt that
    /// fails (refused, reset, bad greeting) sleeps the policy's jittered
    /// backoff; when the budget is spent the *typed*
    /// [`spinner_common::Error::ConnectExhausted`] reports how many
    /// attempts were made and the last I/O error.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        policy: ReconnectPolicy,
    ) -> spinner_common::Result<Client> {
        let attempts = policy.max_attempts.max(1);
        let mut last = String::from("no attempt made");
        for attempt in 0..attempts {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = e.to_string(),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(policy.delay(attempt));
            }
        }
        Err(spinner_common::Error::ConnectExhausted {
            attempts: u64::from(attempts),
            message: last,
        })
    }

    /// The server-assigned session id from the greeting.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Stable query handle the server issued for the most recent
    /// statement, if it was journaled for crash resumption. After a
    /// server crash, reconnect and pass it to [`Client::attach`].
    pub fn last_handle(&self) -> Option<u64> {
        self.last_handle
    }

    /// Execute one statement and decode the single response frame.
    /// Engine errors come back as `Ok(Reply::Error { .. })`; an `Err`
    /// here means the connection itself failed (e.g. the server shed
    /// the connection or shut down mid-query).
    pub fn query(&mut self, sql: &str) -> io::Result<Reply> {
        write_frame(&mut self.stream, TAG_QUERY, sql.as_bytes())?;
        self.read_reply()
    }

    /// Fetch the result of a query that was resumed across a server
    /// restart, by the stable handle issued before the crash. One-shot:
    /// a second attach on the same handle yields the `unknown_handle`
    /// error reply.
    pub fn attach(&mut self, handle: u64) -> io::Result<Reply> {
        write_frame(&mut self.stream, TAG_ATTACH, &handle.to_be_bytes())?;
        self.read_reply()
    }

    /// Read response frames until one terminates the statement,
    /// absorbing any `HANDLE` frame into [`Client::last_handle`].
    fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            let (tag, payload) = read_frame(&mut self.stream)?;
            match tag {
                TAG_HANDLE if payload.len() == 8 => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&payload);
                    self.last_handle = Some(u64::from_be_bytes(buf));
                }
                TAG_HANDLE => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "HANDLE frame payload must be 8 bytes",
                    ));
                }
                TAG_ROWS => {
                    let (columns, rows) = decode_rows(&payload)?;
                    return Ok(Reply::Rows { columns, rows });
                }
                TAG_AFFECTED => return Ok(Reply::Affected(decode_affected(&payload)?)),
                TAG_DDL => return Ok(Reply::Ddl),
                TAG_TEXT => {
                    return Ok(Reply::Text(String::from_utf8_lossy(&payload).into_owned()));
                }
                TAG_ERROR => {
                    let (code, message) = decode_error(&payload)?;
                    return Ok(Reply::Error { code, message });
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected response tag {other:#x}"),
                    ));
                }
            }
        }
    }

    /// Send a query frame WITHOUT waiting for the response. Pairs with
    /// [`Client::kill`] in teardown tests that need a statement to be
    /// mid-flight when the connection dies; regular callers want
    /// [`Client::query`].
    pub fn fire(&mut self, sql: &str) -> io::Result<()> {
        write_frame(&mut self.stream, TAG_QUERY, sql.as_bytes())
    }

    /// Polite close: tell the server we are done, then drop the socket.
    pub fn close(mut self) -> io::Result<()> {
        write_frame(&mut self.stream, TAG_CLOSE, &[])
    }

    /// Abrupt teardown without a close frame — simulates a client crash
    /// or network partition. The server must notice, cancel any running
    /// statement, and release its admission slot.
    pub fn kill(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
