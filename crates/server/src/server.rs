//! The multi-session TCP front-end: accept loop, per-connection
//! handlers, connection-drop teardown and graceful drain.
//!
//! ## Layout
//!
//! One thread accepts connections; each accepted connection gets its
//! own handler thread owning a [`Session`] over the shared
//! [`Database`], plus a lightweight *watcher* thread that `peek`s the
//! socket while a statement runs. If the peer vanishes mid-query the
//! watcher sees EOF and calls [`Session::cancel_current`], so the
//! running statement fails at its next guard check, its admission
//! permit is released, and the slot goes back to the pool — a dropped
//! connection can never leak capacity. Between statements, an idle
//! connection is reaped once it stays silent past the configured
//! `session_keepalive_ms` (0 disables), so half-open peers the TCP
//! stack never reports as closed cannot pin connection state forever.
//!
//! ## Overload & drain
//!
//! Admission control itself lives in the engine
//! ([`spinner_common::AdmissionController`], wired by
//! `EngineConfig::max_concurrent_queries`): a statement that cannot be
//! admitted comes back as a typed `Overloaded` / `AdmissionTimeout`
//! error, which the handler forwards as an error frame with a stable
//! code token — clients see explicit shed-load signals, never an
//! unbounded queue. [`Server::shutdown`] drains gracefully: stop
//! admitting (`begin_drain`), give in-flight statements a grace period
//! to finish, then close every connection and join all threads.
//!
//! ## Chaos hooks
//!
//! The accept loop and the per-connection read/write paths consult the
//! engine's fault injector at `FaultSite::Accept`, `SessionRead` and
//! `SessionWrite`, so the storm suites can exercise torn connections
//! the same way they exercise torn partitions.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use spinner_common::{Error, FaultSite, Result};
use spinner_engine::{Database, QueryResult, Session};

use crate::protocol::TAG_AFFECTED;
use crate::protocol::{
    encode_error, encode_rows, error_code, read_frame_deadline, write_frame, TAG_ATTACH, TAG_CLOSE,
    TAG_DDL, TAG_ERROR, TAG_HANDLE, TAG_HELLO, TAG_QUERY, TAG_ROWS, TAG_TEXT,
};

/// How long the watcher sleeps between liveness peeks at the socket.
const WATCH_INTERVAL: Duration = Duration::from_millis(25);

/// Connection state shared between the accept loop, the handlers and
/// [`Server::shutdown`].
struct Shared {
    /// Clones of every live connection's stream, so drain can wake
    /// handlers blocked in `read`.
    conns: Mutex<Vec<TcpStream>>,
    /// Handler threads to join on shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Set once drain starts; the accept loop exits and handlers stop
    /// reading new statements.
    draining: AtomicBool,
}

impl Shared {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_threads(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.threads.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running spinner-server bound to a TCP address. Dropping the server
/// performs a best-effort drain; call [`Server::shutdown`] for the
/// graceful version with an in-flight grace period.
pub struct Server {
    db: Arc<Database>,
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// accepting connections against `db`.
    pub fn start(db: Arc<Database>, addr: impl ToSocketAddrs) -> Result<Server> {
        let listener = TcpListener::bind(addr).map_err(|e| Error::Io(e.to_string()))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::Io(e.to_string()))?;
        let shared = Arc::new(Shared {
            conns: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
        });
        let accept = {
            let db = Arc::clone(&db);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("spinner-accept".into())
                .spawn(move || accept_loop(listener, db, shared))
                .map_err(|e| Error::Io(e.to_string()))?
        };
        Ok(Server {
            db,
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the server is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine behind this server.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Graceful drain: stop admitting new statements, give in-flight
    /// ones up to `grace` to finish, then close every connection and
    /// join all threads. Idempotent.
    pub fn shutdown(mut self, grace: Duration) {
        self.shutdown_inner(grace);
    }

    fn shutdown_inner(&mut self, grace: Duration) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(ctrl) = self.db.admission() {
            ctrl.begin_drain();
            // Let in-flight statements finish (or hit their deadlines);
            // new ones are already being shed with `ShuttingDown`.
            let _ = ctrl.wait_idle(grace);
        }
        // Unblock the accept loop with a throwaway connection; it
        // re-checks `draining` after every accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Wake handlers blocked in `read` so they observe the drain.
        for conn in self.shared.lock_conns().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self.shared.lock_threads().drain(..).collect();
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner(Duration::from_secs(5));
    }
}

fn accept_loop(listener: TcpListener, db: Arc<Database>, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up connection (or any racer) is dropped unserved.
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Chaos hook: a fault at the accept site sheds the connection
        // before a session (or any engine state) exists for it.
        if db.inject_fault(FaultSite::Accept).is_err() {
            drop(stream);
            continue;
        }
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.lock_conns().push(clone);
        }
        let db = Arc::clone(&db);
        let spawned = std::thread::Builder::new()
            .name("spinner-conn".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || handle_connection(stream, db, shared)
            });
        match spawned {
            Ok(handle) => shared.lock_threads().push(handle),
            Err(_) => continue,
        }
    }
}

/// Watch a connection for EOF while statements run; on peer
/// disappearance, cancel the session's current statement so its guard
/// trips and its admission slot is released.
fn watch_for_disconnect(stream: TcpStream, session: Arc<Session>, done: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(WATCH_INTERVAL));
    let mut probe = [0u8; 1];
    while !done.load(Ordering::SeqCst) {
        match stream.peek(&mut probe) {
            // EOF: the peer closed (or was killed). Cancel whatever is
            // running; the handler notices via its own read/write error.
            Ok(0) => {
                session.cancel_current();
                return;
            }
            // Bytes are waiting for the handler to read — the peer is
            // alive; back off so we do not spin while it pipelines.
            Ok(_) => std::thread::sleep(WATCH_INTERVAL),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                session.cancel_current();
                return;
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, db: Arc<Database>, shared: Arc<Shared>) {
    let session = Arc::new(Session::new(Arc::clone(&db)));
    if write_frame(&mut stream, TAG_HELLO, &session.id().to_be_bytes()).is_err() {
        return;
    }
    // Keepalive: a client that goes silent for longer than this between
    // statements is presumed dead and its connection reaped, so half-open
    // peers (pulled cable, frozen process) cannot pin slots forever.
    // 0 disables the reaper.
    let keepalive_ms = db.config().session_keepalive_ms;
    let idle_limit = (keepalive_ms > 0).then(|| Duration::from_millis(keepalive_ms));
    if idle_limit.is_some() {
        // The watcher normally installs this, but its spawn is
        // best-effort; the deadline check needs the periodic wake-up.
        let _ = stream.set_read_timeout(Some(WATCH_INTERVAL));
    }
    let done = Arc::new(AtomicBool::new(false));
    let watcher = stream.try_clone().ok().and_then(|clone| {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name("spinner-watch".into())
            .spawn(move || watch_for_disconnect(clone, session, done))
            .ok()
    });

    loop {
        let (tag, payload) = match read_frame_deadline(&mut stream, idle_limit) {
            Ok(frame) => frame,
            // EOF, torn read, or keepalive expiry: make sure nothing
            // keeps running on behalf of this connection, then tear down.
            Err(_) => {
                session.cancel_current();
                break;
            }
        };
        // Chaos hook: a fault on the read path models a corrupted
        // request — the connection is dropped, never half-served.
        if db.inject_fault(FaultSite::SessionRead).is_err() {
            break;
        }
        match tag {
            TAG_CLOSE => break,
            TAG_QUERY => {
                if shared.draining.load(Ordering::SeqCst) {
                    let payload = encode_error(
                        error_code(&Error::ShuttingDown),
                        &Error::ShuttingDown.to_string(),
                    );
                    let _ = write_frame(&mut stream, TAG_ERROR, &payload);
                    break;
                }
                let sql = String::from_utf8_lossy(&payload);
                // A resumable statement journals itself at execution
                // *start* and hands its stable handle to this callback on
                // this thread, before the first iteration runs — so the
                // client holds the handle before any crash, which is what
                // makes reconnect-and-attach possible. The statement's
                // response is only written after `execute` returns, so the
                // two frames cannot interleave.
                let outcome = session.execute_announcing(&sql, &mut |handle| {
                    let _ = write_frame(&mut stream, TAG_HANDLE, &handle.to_be_bytes());
                });
                // Chaos hook: a fault on the write path models a torn
                // response; the statement already ran, so the only
                // honest move is to drop the connection.
                if db.inject_fault(FaultSite::SessionWrite).is_err() {
                    break;
                }
                if respond(&mut stream, outcome).is_err() {
                    session.cancel_current();
                    break;
                }
            }
            TAG_ATTACH => {
                if payload.len() != 8 {
                    let payload = encode_error("protocol", "ATTACH payload must be 8 bytes");
                    let _ = write_frame(&mut stream, TAG_ERROR, &payload);
                    break;
                }
                let mut buf = [0u8; 8];
                buf.copy_from_slice(&payload);
                let handle = u64::from_be_bytes(buf);
                // One-shot: the parked result of a query resumed across
                // an engine restart. Unknown/taken handles come back as
                // the typed `unknown_handle` error frame.
                if respond(&mut stream, db.take_resumed_result(handle)).is_err() {
                    break;
                }
            }
            _ => {
                let payload = encode_error("protocol", "unknown frame tag");
                let _ = write_frame(&mut stream, TAG_ERROR, &payload);
                break;
            }
        }
    }

    done.store(true, Ordering::SeqCst);
    let _ = stream.shutdown(Shutdown::Both);
    if let Some(handle) = watcher {
        let _ = handle.join();
    }
}

/// Render one statement outcome as its single response frame.
fn respond(stream: &mut TcpStream, outcome: Result<QueryResult>) -> io::Result<()> {
    match outcome {
        Ok(QueryResult::Rows(batch)) => write_frame(stream, TAG_ROWS, &encode_rows(&batch)),
        Ok(QueryResult::Affected { rows }) => {
            write_frame(stream, TAG_AFFECTED, &(rows as u64).to_be_bytes())
        }
        Ok(QueryResult::Ddl) => write_frame(stream, TAG_DDL, &[]),
        Ok(QueryResult::Explain(text)) => write_frame(stream, TAG_TEXT, text.as_bytes()),
        Ok(QueryResult::Analyze(profile)) => {
            write_frame(stream, TAG_TEXT, profile.render().as_bytes())
        }
        Err(e) => write_frame(
            stream,
            TAG_ERROR,
            &encode_error(error_code(&e), &e.to_string()),
        ),
    }
}
