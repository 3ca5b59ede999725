//! `spinner-serve` — stand up a spinner-server over a fresh database.
//!
//! ```text
//! spinner-serve [ADDR] [--max-concurrent N] [--queue-limit N]
//!               [--admission-timeout-ms N] [--partitions N]
//!               [--spill-dir DIR] [--resumable]
//!               [--checkpoint-interval N]
//!               [--crash-at SITE:N] [--corrupt-at SITE:N]
//! ```
//!
//! Defaults: bind `127.0.0.1:5433`, admission cap 8, queue limit 16.
//! Connect with `spinner-client` or any program speaking the
//! length-prefixed protocol in `spinner_server::protocol`.
//!
//! ## Lifecycle
//!
//! With `--resumable` (requires `--spill-dir`), in-flight iterative
//! statements are journaled; on startup the engine adopts any journal a
//! crashed predecessor left in the spill directory and resumes those
//! queries from their newest durable checkpoint, printing one
//! `resumed query <id>: ...` line per query before the listening line.
//! Reconnecting clients fetch the results via their stable handles.
//!
//! `SIGTERM`/`SIGINT` trigger a graceful drain: stop admitting, give
//! in-flight statements a grace period, close connections, exit 0 —
//! journal entries are finished, nothing is left to adopt. `SIGKILL`
//! is the crash path the journal exists for; `--crash-at SITE:N`
//! self-inflicts it deterministically at an engine fault site for the
//! crash harness, and `--corrupt-at SITE:N` injects adversarial disk
//! faults (torn write / bit flip) at one.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spinner_engine::{Database, EngineConfig, FaultConfig, FaultSite};
use spinner_server::Server;

struct Options {
    addr: String,
    max_concurrent: usize,
    queue_limit: usize,
    admission_timeout_ms: Option<u64>,
    partitions: Option<usize>,
    spill_dir: Option<String>,
    resumable: bool,
    checkpoint_interval: Option<u64>,
    crash_at: Option<(FaultSite, u64)>,
    corrupt_at: Option<(FaultSite, u64)>,
}

/// Parse `SITE:N` for the fault-injection flags. `SITE` is any engine
/// fault site's token ([`FaultSite::name`]).
fn parse_fault_spec(flag: &str, spec: &str) -> Result<(FaultSite, u64), String> {
    let (site, nth) = spec
        .split_once(':')
        .ok_or_else(|| format!("{flag}: expected SITE:N, got '{spec}'"))?;
    let site =
        FaultSite::from_name(site).ok_or_else(|| format!("{flag}: unknown fault site '{site}'"))?;
    let nth = nth
        .parse()
        .map_err(|_| format!("{flag}: N must be a positive integer"))?;
    Ok((site, nth))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:5433".to_string(),
        max_concurrent: 8,
        queue_limit: 16,
        admission_timeout_ms: None,
        partitions: None,
        spill_dir: None,
        resumable: false,
        checkpoint_interval: None,
        crash_at: None,
        corrupt_at: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--max-concurrent" => {
                opts.max_concurrent = flag_value("--max-concurrent")?
                    .parse()
                    .map_err(|_| "--max-concurrent: expected a positive integer".to_string())?;
            }
            "--queue-limit" => {
                opts.queue_limit = flag_value("--queue-limit")?
                    .parse()
                    .map_err(|_| "--queue-limit: expected a positive integer".to_string())?;
            }
            "--admission-timeout-ms" => {
                let v = flag_value("--admission-timeout-ms")?
                    .parse()
                    .map_err(|_| "--admission-timeout-ms: expected milliseconds".to_string())?;
                opts.admission_timeout_ms = Some(v);
            }
            "--partitions" => {
                let v = flag_value("--partitions")?
                    .parse()
                    .map_err(|_| "--partitions: expected a positive integer".to_string())?;
                opts.partitions = Some(v);
            }
            "--spill-dir" => opts.spill_dir = Some(flag_value("--spill-dir")?),
            "--resumable" => opts.resumable = true,
            "--checkpoint-interval" => {
                let v = flag_value("--checkpoint-interval")?.parse().map_err(|_| {
                    "--checkpoint-interval: expected an iteration count".to_string()
                })?;
                opts.checkpoint_interval = Some(v);
            }
            "--crash-at" => {
                opts.crash_at = Some(parse_fault_spec("--crash-at", &flag_value("--crash-at")?)?);
            }
            "--corrupt-at" => {
                opts.corrupt_at = Some(parse_fault_spec(
                    "--corrupt-at",
                    &flag_value("--corrupt-at")?,
                )?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: spinner-serve [ADDR] [--max-concurrent N] [--queue-limit N] \
                     [--admission-timeout-ms N] [--partitions N] [--spill-dir DIR] \
                     [--resumable] [--checkpoint-interval N] [--crash-at SITE:N] \
                     [--corrupt-at SITE:N]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') => opts.addr = other.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.resumable && opts.spill_dir.is_none() {
        return Err("--resumable requires --spill-dir".to_string());
    }
    Ok(opts)
}

/// Set once by the signal handler; the main loop polls it and drains.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc `signal(2)` via the C ABI: no extra crates, and storing
    // to a static atomic is async-signal-safe. SIGKILL cannot be
    // caught by design — that is the crash path the journal covers.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = EngineConfig::default()
        .with_max_concurrent_queries(opts.max_concurrent)
        .with_admission_queue_limit(opts.queue_limit);
    if let Some(ms) = opts.admission_timeout_ms {
        config = config.with_admission_timeout_ms(ms);
    }
    if let Some(p) = opts.partitions {
        config = config.with_partitions(p);
    }
    if let Some(dir) = &opts.spill_dir {
        config = config.with_spill_dir(dir.clone());
    }
    if opts.resumable {
        config = config.with_resumable_queries(true);
    }
    if let Some(n) = opts.checkpoint_interval {
        config = config.with_checkpoint_interval(n);
    }
    if let Some((site, nth)) = opts.crash_at {
        config = config.with_fault(FaultConfig::abort_nth(site, nth));
    }
    if let Some((site, nth)) = opts.corrupt_at {
        config = config.with_fault(FaultConfig::fail_nth(site, nth));
    }
    install_signal_handlers();
    let db = match Database::new(config) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("engine start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Resume anything adopted from a crashed predecessor BEFORE
    // accepting connections, so a reconnecting client's ATTACH finds
    // its result parked and ready.
    for skip in db.adoption_skipped() {
        println!("skipped query {}: {}", skip.0, skip.1);
    }
    for summary in db.resume_adopted() {
        println!(
            "resumed query {}: adopted_epoch={} resumed_iteration={} replayed_iterations={} rows={}",
            summary.query_id,
            summary.adopted_epoch,
            summary.resumed_iteration,
            summary.replayed_iterations,
            summary.rows
        );
    }
    let server = match Server::start(Arc::clone(&db), opts.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "spinner-server listening on {} (admission cap {}, queue limit {})",
        server.local_addr(),
        opts.max_concurrent,
        opts.queue_limit
    );
    // Serve until SIGTERM/SIGINT requests a graceful drain (or the
    // process is killed outright); connection handling lives on the
    // server's own threads.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::park_timeout(Duration::from_millis(100));
    }
    println!("draining: in-flight statements get 10s, new ones are shed");
    server.shutdown(Duration::from_secs(10));
    println!("drained; bye");
    ExitCode::SUCCESS
}
