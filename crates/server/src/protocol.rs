//! The wire protocol spoken between `spinner-server` and its clients.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length, a
//! 1-byte tag, then the payload. Clients send [`TAG_QUERY`] (UTF-8 SQL
//! text) and [`TAG_CLOSE`]; the server answers each query with exactly
//! one frame — [`TAG_ROWS`], [`TAG_AFFECTED`], [`TAG_DDL`], [`TAG_TEXT`]
//! (EXPLAIN / EXPLAIN ANALYZE renderings) or [`TAG_ERROR`] — and greets
//! every new connection with [`TAG_HELLO`] carrying the session id.
//!
//! Error frames lead with a stable machine-readable code token (see
//! [`error_code`]) so clients can distinguish shed-load signals
//! (`overloaded`, `admission_timeout`, `shutting_down`) from genuine
//! query failures without parsing prose.

use std::io::{self, Read, Write};

use spinner_common::{Batch, Error};

/// Upper bound on a frame payload; larger lengths are treated as a
/// protocol violation and the connection is dropped. Guards the server
/// against a garbage length prefix causing a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Client → server: execute the UTF-8 SQL text in the payload.
pub const TAG_QUERY: u8 = b'Q';
/// Client → server: clean connection close (empty payload).
pub const TAG_CLOSE: u8 = b'X';
/// Server → client greeting: 8-byte big-endian session id.
pub const TAG_HELLO: u8 = b'H';
/// Server → client: a row set (see [`encode_rows`] for the layout).
pub const TAG_ROWS: u8 = b'R';
/// Server → client: DML affected-row count as 8-byte big-endian.
pub const TAG_AFFECTED: u8 = b'A';
/// Server → client: DDL (or session command) completed; empty payload.
pub const TAG_DDL: u8 = b'D';
/// Server → client: error; payload is a length-prefixed code token
/// followed by the human-readable message.
pub const TAG_ERROR: u8 = b'E';
/// Server → client: free-form UTF-8 text (EXPLAIN and EXPLAIN ANALYZE).
pub const TAG_TEXT: u8 = b'P';
/// Server → client: stable query handle (8-byte big-endian) for a
/// journaled iterative statement, sent *before* its result frame. The
/// handle survives an engine restart: a reconnecting client can
/// [`TAG_ATTACH`] to it and fetch the resumed result.
pub const TAG_HANDLE: u8 = b'I';
/// Client → server: attach to a resumed query by its 8-byte big-endian
/// handle and fetch its result (one response frame, like a query).
pub const TAG_ATTACH: u8 = b'T';

/// In a rows frame, the cell length that denotes SQL NULL.
pub const NULL_CELL: u32 = u32::MAX;

/// Write one frame: length, tag, payload.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(payload)?;
    w.flush()
}

/// `read_exact` that survives read timeouts. The server's disconnect
/// watcher sets `SO_RCVTIMEO` on the shared socket (timeouts apply to
/// every clone of the fd), so a blocking read on an idle connection
/// periodically returns `WouldBlock`/`TimedOut`; those mean "no bytes
/// yet", not "connection torn", and must not lose a partial read. With a
/// `deadline`, each timeout wake-up checks the clock and gives up with
/// `ErrorKind::TimedOut` once it passes — the keepalive reaper's signal.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: Option<std::time::Instant>,
) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame, enforcing [`MAX_FRAME_LEN`]. A clean EOF before the
/// length prefix surfaces as `ErrorKind::UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    read_frame_deadline(r, None)
}

/// [`read_frame`] with a keepalive budget: if `idle` is set and no
/// complete frame arrives within it, the read gives up with
/// `ErrorKind::TimedOut` so the server can reap the half-open session.
/// Requires a read timeout on the socket (the watcher's `SO_RCVTIMEO`)
/// so the blocking read wakes up to check the clock.
pub fn read_frame_deadline(
    r: &mut impl Read,
    idle: Option<std::time::Duration>,
) -> io::Result<(u8, Vec<u8>)> {
    let deadline = idle.map(|d| std::time::Instant::now() + d);
    let mut len_buf = [0u8; 4];
    read_full(r, &mut len_buf, deadline)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {MAX_FRAME_LEN}"),
        ));
    }
    let mut tag = [0u8; 1];
    read_full(r, &mut tag, deadline)?;
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, deadline)?;
    Ok((tag[0], payload))
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Encode a [`Batch`] as a rows payload: column count, length-prefixed
/// column names, row count, then cells as length-prefixed UTF-8 text
/// with [`NULL_CELL`] marking SQL NULL.
pub fn encode_rows(batch: &Batch) -> Vec<u8> {
    let names = batch.schema().names();
    let mut buf = Vec::new();
    put_u32(&mut buf, names.len() as u32);
    for name in &names {
        put_str(&mut buf, name);
    }
    put_u32(&mut buf, batch.len() as u32);
    for row in batch.rows() {
        for cell in row.iter() {
            if cell.is_null() {
                put_u32(&mut buf, NULL_CELL);
            } else {
                put_str(&mut buf, &cell.to_string());
            }
        }
    }
    buf
}

/// Encode an error payload: length-prefixed code token, then message.
pub fn encode_error(code: &str, message: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, code);
    buf.extend_from_slice(message.as_bytes());
    buf
}

/// A bounds-checked little reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated frame payload",
            )),
        }
    }

    fn take_u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take_str(&mut self) -> io::Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8 in frame"))
    }
}

/// Decode a rows payload into column names and text cells (`None` =
/// SQL NULL). Inverse of [`encode_rows`].
#[allow(clippy::type_complexity)]
pub fn decode_rows(payload: &[u8]) -> io::Result<(Vec<String>, Vec<Vec<Option<String>>>)> {
    let mut cur = Cursor::new(payload);
    // Counts come off the wire untrusted: validate each against the bytes
    // that could possibly back it BEFORE allocating or looping, so a
    // mutated frame claiming 4 billion columns/rows is a cheap typed
    // error, not a pre-allocation memory bomb or a busy loop.
    let ncols = cur.take_u32()? as usize;
    if ncols > cur.remaining() / 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "column count exceeds frame payload",
        ));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(cur.take_str()?);
    }
    let nrows = cur.take_u32()? as usize;
    if nrows > 0 && (ncols == 0 || nrows > cur.remaining() / (4 * ncols)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "row count exceeds frame payload",
        ));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            // Peek the length: NULL_CELL means a null cell, anything
            // else is a length-prefixed string we re-read in place.
            let len = cur.take_u32()?;
            if len == NULL_CELL {
                row.push(None);
            } else {
                let bytes = cur.take(len as usize)?;
                let text = String::from_utf8(bytes.to_vec()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8 in cell")
                })?;
                row.push(Some(text));
            }
        }
        rows.push(row);
    }
    Ok((columns, rows))
}

/// Decode an error payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> io::Result<(String, String)> {
    let mut cur = Cursor::new(payload);
    let code = cur.take_str()?;
    let message = String::from_utf8_lossy(&payload[cur.pos..]).into_owned();
    Ok((code, message))
}

/// Decode an affected-rows payload (8-byte big-endian count).
pub fn decode_affected(payload: &[u8]) -> io::Result<u64> {
    if payload.len() != 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "affected-rows payload must be 8 bytes",
        ));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(payload);
    Ok(u64::from_be_bytes(b))
}

/// Stable machine-readable code token for an engine error, sent as the
/// leading field of every [`TAG_ERROR`] frame. Tokens are part of the
/// wire contract: clients match on them (notably the shed-load trio
/// `overloaded` / `admission_timeout` / `shutting_down`), so existing
/// tokens must never be renamed.
pub fn error_code(e: &Error) -> &'static str {
    match e {
        Error::Parse { .. } => "parse",
        Error::Plan(_) => "plan",
        Error::Type(_) => "type",
        Error::Execution(_) => "execution",
        Error::TableNotFound(_) => "table_not_found",
        Error::TableExists(_) => "table_exists",
        Error::ColumnNotFound(_) => "column_not_found",
        Error::DuplicateIterationKey { .. } => "duplicate_iteration_key",
        Error::IterationLimitExceeded { .. } => "iteration_limit_exceeded",
        Error::Arithmetic(_) => "arithmetic",
        Error::Unsupported(_) => "unsupported",
        Error::Io(_) => "io",
        Error::Cancelled => "cancelled",
        Error::Timeout { .. } => "timeout",
        Error::ResourceExhausted { .. } => "resource_exhausted",
        Error::WorkerPanicked { .. } => "worker_panicked",
        Error::FaultInjected { .. } => "fault_injected",
        Error::InvalidConfig(_) => "invalid_config",
        Error::SpillUnavailable { .. } => "spill_unavailable",
        Error::RecoveryExhausted { .. } => "recovery_exhausted",
        Error::Overloaded { .. } => "overloaded",
        Error::AdmissionTimeout { .. } => "admission_timeout",
        Error::ShuttingDown => "shutting_down",
        Error::StorageCorrupt { .. } => "storage_corrupt",
        Error::UnknownHandle { .. } => "unknown_handle",
        Error::ConnectExhausted { .. } => "connect_exhausted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema, Value};
    use std::sync::Arc;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_QUERY, b"SELECT 1").unwrap();
        write_frame(&mut buf, TAG_CLOSE, b"").unwrap();
        let mut rd = &buf[..];
        assert_eq!(
            read_frame(&mut rd).unwrap(),
            (TAG_QUERY, b"SELECT 1".to_vec())
        );
        assert_eq!(read_frame(&mut rd).unwrap(), (TAG_CLOSE, Vec::new()));
        assert_eq!(
            read_frame(&mut rd).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        buf.push(TAG_QUERY);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rows_round_trip_including_nulls() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::Text),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                row_of([Value::Int(1), Value::Text("one".into())]),
                row_of([Value::Int(2), Value::Null]),
            ],
        );
        let (cols, rows) = decode_rows(&encode_rows(&batch)).unwrap();
        assert_eq!(cols, vec!["k".to_string(), "name".to_string()]);
        assert_eq!(rows[0], vec![Some("1".into()), Some("one".into())]);
        assert_eq!(rows[1], vec![Some("2".into()), None]);
    }

    #[test]
    fn error_payloads_round_trip() {
        let payload = encode_error("overloaded", "queue full");
        let (code, message) = decode_error(&payload).unwrap();
        assert_eq!(code, "overloaded");
        assert_eq!(message, "queue full");
    }

    #[test]
    fn shed_load_errors_map_to_stable_tokens() {
        assert_eq!(
            error_code(&Error::Overloaded {
                active: 1,
                queued: 2,
                limit: 2
            }),
            "overloaded"
        );
        assert_eq!(
            error_code(&Error::AdmissionTimeout {
                waited_ms: 10,
                limit_ms: 5
            }),
            "admission_timeout"
        );
        assert_eq!(error_code(&Error::ShuttingDown), "shutting_down");
        assert_eq!(error_code(&Error::Cancelled), "cancelled");
    }

    #[test]
    fn restart_errors_map_to_stable_tokens() {
        assert_eq!(
            error_code(&Error::UnknownHandle { handle: 7 }),
            "unknown_handle"
        );
        assert_eq!(
            error_code(&Error::ConnectExhausted {
                attempts: 3,
                message: "refused".into()
            }),
            "connect_exhausted"
        );
    }

    /// Property test for the frame decoder: byte-level corruption of a
    /// valid frame stream — bit flips, truncations, splices — must only
    /// ever produce decoded frames or typed `io::Error`s. No panic, no
    /// unbounded allocation past `MAX_FRAME_LEN`, and guaranteed
    /// termination (every `Ok` consumes at least the 5-byte header).
    #[test]
    fn mutated_frame_streams_never_panic() {
        // Deterministic xorshift so a failure reproduces exactly.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut valid = Vec::new();
        write_frame(
            &mut valid,
            TAG_QUERY,
            b"WITH ITERATIVE t AS (SELECT 1) SELECT * FROM t",
        )
        .unwrap();
        write_frame(&mut valid, TAG_ATTACH, &42u64.to_be_bytes()).unwrap();
        write_frame(&mut valid, TAG_HANDLE, &7u64.to_be_bytes()).unwrap();
        write_frame(
            &mut valid,
            TAG_ERROR,
            &encode_error("overloaded", "queue full"),
        )
        .unwrap();
        write_frame(&mut valid, TAG_CLOSE, b"").unwrap();
        for _ in 0..2000 {
            let mut bytes = valid.clone();
            for _ in 0..(next() % 4 + 1) {
                match next() % 3 {
                    // Bit flip anywhere (length prefixes included).
                    0 => {
                        let i = (next() % bytes.len() as u64) as usize;
                        bytes[i] ^= 1 << (next() % 8);
                    }
                    // Truncate mid-frame.
                    1 => {
                        let keep = (next() % (bytes.len() as u64 + 1)) as usize;
                        bytes.truncate(keep);
                    }
                    // Splice in garbage bytes.
                    _ => {
                        let i = (next() % (bytes.len() as u64 + 1)) as usize;
                        let garbage: Vec<u8> = (0..(next() % 9)).map(|_| next() as u8).collect();
                        bytes.splice(i..i, garbage);
                    }
                }
                if bytes.is_empty() {
                    bytes.push(next() as u8);
                }
            }
            let mut rd = &bytes[..];
            loop {
                match read_frame(&mut rd) {
                    Ok((_tag, payload)) => {
                        assert!(payload.len() as u32 <= MAX_FRAME_LEN);
                        // Whatever the tag claims, payload decoders must
                        // also fail typed rather than panic.
                        let _ = decode_rows(&payload);
                        let _ = decode_error(&payload);
                        let _ = decode_affected(&payload);
                    }
                    Err(e) => {
                        assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                            ),
                            "unexpected error kind {:?}",
                            e.kind()
                        );
                        break;
                    }
                }
            }
        }
    }
}
