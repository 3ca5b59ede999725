//! # spinner-server — multi-session TCP front-end for the DBSpinner engine
//!
//! Turns the in-process [`spinner_engine::Database`] into a concurrent
//! network service: a length-prefixed SQL protocol over TCP, one
//! handler thread per connection, a [`spinner_engine::Session`] per
//! connection for guardrail overrides and cancellation, and the
//! engine's admission controller gating query start so overload is
//! shed with typed errors instead of queue collapse.
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use spinner_engine::{Database, EngineConfig};
//! use spinner_server::{Client, Server};
//!
//! let config = EngineConfig::default().with_max_concurrent_queries(4);
//! let db = Arc::new(Database::new(config).unwrap());
//! let server = Server::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.query("CREATE TABLE t (a INT)").unwrap();
//! client.query("INSERT INTO t VALUES (1), (2)").unwrap();
//! let reply = client.query("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(reply.scalar_i64(), Some(2));
//! client.close().unwrap();
//!
//! server.shutdown(Duration::from_secs(5));
//! ```
//!
//! See [`protocol`] for the wire format and the stable error-code
//! tokens, [`server`] for the connection lifecycle (watcher-based
//! connection-drop cancellation, graceful drain, chaos hooks), and
//! [`client`] for the blocking test/bench client.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ReconnectPolicy, Reply};
pub use server::Server;
