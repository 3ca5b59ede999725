//! Engine configuration: the option table.
//!
//! Every option is declared exactly once, as a row of the table at the
//! bottom of this file: its name, type, default and doc, the name of its
//! builder, its [`Range`] and its [`Scope`]. Everything else is derived
//! from the rows:
//!
//! * the [`EngineConfig`] struct, its `Default` and every `with_*`
//!   builder;
//! * the range checks of [`EngineConfig::validate`];
//! * [`SessionSettings`] — the [`Scope::Session`] rows, the guardrails a
//!   connection may override with `SET SESSION <KEY> = <n>` and drop with
//!   `RESET SESSION <KEY>`, parsed and range-checked here with the message
//!   `validate` gives;
//! * [`EngineConfig::settings_overlay`] — the [`Scope::Planner`] rows,
//!   which the query journal records so that a restarted engine adopts
//!   only a loop its own plan would reproduce;
//! * [`OPTIONS`], the table itself.
//!
//! Adding an option is one row. Checks across options — the spill
//! directory probe, resumable queries needing a spill directory, fault
//! triggers — are written out in `validate`, and the fault list
//! ([`EngineConfig::faults`]) is declared beside the table.
//!
//! Every optimization the paper evaluates can be switched off
//! individually, which is how the benchmark harness reproduces the
//! baseline series of Figures 8-10: [`EngineConfig::naive`] is the same
//! engine with those switches off.

use crate::{Error, Result};

/// The values an option accepts beyond what its type allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Range {
    /// Any value of the type.
    Any,
    /// Anything but 0, or `Some(0)` for an optional limit (whose `None`
    /// already means unlimited): 0 would leave no partition, no iteration
    /// or no admission slot, or fail, spill or shed every statement.
    NonZero,
}

/// Who reads an option, besides the engine it configures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only the engine.
    Engine,
    /// The planner too: a change alters plan shapes, so the option is part
    /// of [`EngineConfig::settings_overlay`].
    Planner,
    /// Every statement's guard, and a session may override it with
    /// `SET SESSION <key>` (see [`SessionSettings`]).
    Session(&'static str),
}

/// One row of the option table.
#[derive(Debug)]
pub struct OptionDef {
    /// Field name in [`EngineConfig`].
    pub name: &'static str,
    /// Accepted values.
    pub range: Range,
    /// Who reads it.
    pub scope: Scope,
}

impl OptionDef {
    /// The `SET SESSION` key of a [`Scope::Session`] row.
    pub fn session_key(&self) -> Option<&'static str> {
        match self.scope {
            Scope::Session(key) => Some(key),
            Scope::Engine | Scope::Planner => None,
        }
    }
}

/// The 0 a [`Range::NonZero`] row refuses; an unset optional limit is
/// not 0.
trait Zero {
    fn is_zero(&self) -> bool;
}

impl Zero for u64 {
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

impl Zero for usize {
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

impl<T: Zero> Zero for Option<T> {
    fn is_zero(&self) -> bool {
        self.as_ref().is_some_and(Zero::is_zero)
    }
}

/// Whether a row's value is outside its [`Range`].
macro_rules! is_zero {
    (Any, $value:expr) => {
        false
    };
    (NonZero, $value:expr) => {
        Zero::is_zero(&$value)
    };
}

/// Expands to its body; naming a row's session key in a transcription
/// makes it repeat once per [`Scope::Session`] row.
macro_rules! session_row {
    ($key:literal, $($body:tt)*) => {
        $($body)*
    };
}

/// One row's builder: `builder` takes the field's type, `builder(Arg)`
/// takes an `Arg` and sets an `Option` field to `Some`.
macro_rules! builder {
    ($name:ident, $builder:ident, $ty:ty) => {
        #[doc = concat!("Builder-style setter for [`", stringify!($name), "`](Self::", stringify!($name), ").")]
        pub fn $builder(mut self, value: $ty) -> Self {
            self.$name = value;
            self
        }
    };
    ($name:ident, $builder:ident, $ty:ty, $arg:ty) => {
        #[doc = concat!("Builder-style setter for [`", stringify!($name), "`](Self::", stringify!($name), "), to `Some(value)`.")]
        pub fn $builder(mut self, value: $arg) -> Self {
            self.$name = Some(value.into());
            self
        }
    };
}

/// Expands the table into [`EngineConfig`] with its `Default` and
/// builders, [`OPTIONS`] and [`SessionSettings`]. Row syntax:
/// `/// doc` newline
/// `name: Type = default, builder[(Arg)], Range, Scope[("KEY")];`
macro_rules! option_table {
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $ty:ty = $default:expr, $builder:ident $(($arg:ty))?,
            $range:ident, $scope:ident $(($key:literal))?;
    )*) => {
        /// Feature toggles, tuning knobs and guardrail defaults for a
        /// `Database` (the type lives in `spinner-engine`, which depends on
        /// this crate): one field per row of the option table — see the
        /// [module docs](self) — and the fault list. The engine calls
        /// [`EngineConfig::validate`] on construction, so a nonsensical
        /// setting is a structured `Error::InvalidConfig`, not a panic.
        #[derive(Debug, Clone, PartialEq)]
        pub struct EngineConfig {
            $( $(#[doc = $doc])+ pub $name: $ty, )*
            /// Fault-injection points (chaos testing). Empty = off. Faults
            /// are deterministic: triggered by hit count or a seeded PRNG,
            /// never by wall-clock or global randomness.
            pub faults: Vec<FaultConfig>,
        }

        impl Default for EngineConfig {
            fn default() -> Self {
                EngineConfig {
                    $( $name: $default, )*
                    faults: Vec::new(),
                }
            }
        }

        const OPTION_COUNT: usize = [$( stringify!($name), )*].len();

        /// The option table, in declaration order.
        pub static OPTIONS: [OptionDef; OPTION_COUNT] = [
            $( OptionDef {
                name: stringify!($name),
                range: Range::$range,
                scope: Scope::$scope $(($key))?,
            }, )*
        ];

        impl EngineConfig {
            $( builder!($name, $builder, $ty $(, $arg)?); )*

            /// Every option's value as `{:?}` prints it, in table order.
            fn rendered(&self) -> [String; OPTION_COUNT] {
                [ $( format!("{:?}", self.$name), )* ]
            }

            /// Per row, whether the value is outside the row's range.
            fn out_of_range(&self) -> [bool; OPTION_COUNT] {
                [ $( is_zero!($range, self.$name), )* ]
            }

            /// This config's values of the [`Scope::Session`] options.
            pub fn session_settings(&self) -> SessionSettings {
                SessionSettings {
                    $( $( $name: session_row!($key, self.$name), )? )*
                }
            }
        }

        /// The [`Scope::Session`] options: the limits a statement's guard
        /// carries or, as one session's `SET SESSION` overrides, `Some`
        /// where the session overrides the engine config. `Copy`, so a
        /// statement's guard is built without allocating.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SessionSettings {
            $( $(
                #[doc = concat!("[`EngineConfig::", stringify!($name), "`], `SET SESSION ", $key, "`.")]
                pub $name: Option<u64>,
            )? )*
        }

        impl SessionSettings {
            /// `self` where set, `base` elsewhere.
            pub fn overlay(self, base: SessionSettings) -> SessionSettings {
                SessionSettings {
                    $( $( $name: session_row!($key, self.$name.or(base.$name)), )? )*
                }
            }

            /// `SET SESSION <key> = <value>`, refused as `validate` refuses
            /// the option at that value.
            pub fn set(&mut self, key: &str, value: u64) -> Result<()> {
                let (slot, range, name) = match key {
                    $( $( $key => (&mut self.$name, Range::$range, stringify!($name)), )? )*
                    _ => return Err(unknown_session_key(key, "")),
                };
                if range == Range::NonZero && value == 0 {
                    return Err(zero_refused(name, Some(key)));
                }
                *slot = Some(value);
                Ok(())
            }

            /// `RESET SESSION <key>`; `ALL` drops every override.
            pub fn reset(&mut self, key: &str) -> Result<()> {
                match key {
                    "ALL" => *self = SessionSettings::default(),
                    $( $( $key => self.$name = None, )? )*
                    _ => return Err(unknown_session_key(key, "ALL, ")),
                }
                Ok(())
            }
        }
    };
}

/// The error for 0 in a [`Range::NonZero`] option — the same from
/// `validate` and from `SET SESSION`.
fn zero_refused(name: &str, session_key: Option<&str>) -> Error {
    let key = session_key.map_or(String::new(), |key| format!(" (SET SESSION {key})"));
    Error::InvalidConfig(format!("{name}{key} must be at least 1"))
}

/// The error for a `SET`/`RESET SESSION` key no row declares; `also`
/// heads the list of accepted keys.
fn unknown_session_key(key: &str, also: &str) -> Error {
    let keys: Vec<&str> = OPTIONS.iter().filter_map(OptionDef::session_key).collect();
    let (last, rest) = keys.split_last().expect("the table has session rows");
    Error::unsupported(format!(
        "unknown session knob {key} (expected {also}{} or {last})",
        rest.join(", ")
    ))
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
/// [`Error::InvalidConfig`] at `Database::new`, not a mid-loop
/// `SpillUnavailable`. A missing directory is created (like most engines'
/// data dirs) rather than rejected, so a fresh deployment needs no manual
/// `mkdir`.
fn validate_spill_dir(dir: &str) -> Result<()> {
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

    /// Builder-style helper adding one fault-injection point.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.faults.push(fault);
        self
    }

    /// The [`Scope::Planner`] options as `(name, value)` pairs, journaled
    /// with every resumable statement. Adoption refuses an entry whose
    /// overlay differs from the live config's: a different plan shape
    /// would not line up with the checkpointed `__cte_*` / `__delta_*`
    /// names or partitioning.
    pub fn settings_overlay(&self) -> Vec<(String, String)> {
        OPTIONS
            .iter()
            .zip(self.rendered())
            .filter(|(def, _)| def.scope == Scope::Planner)
            .map(|(def, value)| (def.name.to_string(), value))
            .collect()
    }

    /// Validate the configuration; `Database::new` calls this so a bad
    /// config is a structured [`Error::InvalidConfig`], not a process
    /// abort.
    pub fn validate(&self) -> Result<()> {
        if let Some(def) = OPTIONS
            .iter()
            .zip(self.out_of_range())
            .find_map(|(def, out)| out.then_some(def))
        {
            return Err(zero_refused(def.name, def.session_key()));
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

/// Declares [`FaultSite`] from rows of `/// doc` and `Site => "token",`:
/// each site's token is written once, and [`FaultSite::name`] and its
/// inverse [`FaultSite::from_name`] both derive from it.
macro_rules! fault_sites {
    ($($(#[doc = $doc:literal])+ $site:ident => $token:literal,)*) => {
        /// Pipeline stage a fault attaches to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum FaultSite {
            $($(#[doc = $doc])+ $site,)*
        }

        impl FaultSite {
            /// The site's stable lowercase token: the site an injected
            /// fault's error names, and the `SITE` of `spinner-serve`'s
            /// `--crash-at SITE:N` and `--corrupt-at SITE:N`.
            pub fn name(self) -> &'static str {
                match self {
                    $(FaultSite::$site => $token,)*
                }
            }

            /// The site whose [`name`](Self::name) is `token`.
            pub fn from_name(token: &str) -> Option<FaultSite> {
                match token {
                    $($token => Some(FaultSite::$site),)*
                    _ => None,
                }
            }
        }
    };
}

fault_sites! {
    /// An exchange operator (shuffle / gather / broadcast).
    Exchange => "exchange",
    /// Materialization of a step result into the temp registry.
    Materialize => "materialize",
    /// The rename fast path swapping the working table in.
    Rename => "rename",
    /// The top of every loop iteration.
    LoopIteration => "loop_iteration",
    /// Inside a per-partition worker closure (parallel or sequential).
    Worker => "worker",
    /// While a loop checkpoint is being snapshotted. A firing here must
    /// never corrupt the live loop state or the previous checkpoint.
    Checkpoint => "checkpoint",
    /// While a rollback is restoring a checkpoint. Fires *before* any
    /// table is put back, so a failed restore leaves the registry as the
    /// failed iteration left it and consumes another recovery attempt.
    Recovery => "recovery",
    /// While a victim region is being serialized to a spill file. Fires
    /// before any bytes are written, so a failed spill write leaves the
    /// region resident and untouched.
    SpillWrite => "spill_write",
    /// While a spilled region is being read back. Fires before the file is
    /// opened; a firing is a transient fault, absorbed by step retry or
    /// rollback-and-replay like any other transient I/O failure.
    SpillRead => "spill_read",
    /// When the server accepts a TCP connection, before any session state
    /// exists. An error here sheds the connection; a delay simulates a
    /// slow accept path.
    Accept => "accept",
    /// While a session's request frame is being read from the socket. An
    /// error here is treated as a connection failure: the in-flight query
    /// (if any) is cancelled and the session is torn down.
    SessionRead => "session_read",
    /// While a session's response frame is being written to the socket.
    /// An error here tears the session down after its query completed,
    /// exercising the result-undeliverable path.
    SessionWrite => "session_write",
    /// Adversarial disk: the spill/checkpoint file is silently truncated
    /// to half its length *and the write still reports success* — the
    /// state a process kill between `write` and `fsync` leaves behind.
    /// Detection must happen at read time via the whole-file trailer.
    TornWrite => "torn_write",
    /// Adversarial disk: one bit of the payload is flipped before the
    /// write, which still reports success — simulated bit rot. Detection
    /// must happen at read time via the partition/file checksums.
    BitFlip => "bit_flip",
    /// Adversarial disk: the write fails as if the device were out of
    /// space (ENOSPC). Degrades to the fail-fast budget error
    /// `ResourceExhausted { resource: "spill_disk", .. }` — deliberate
    /// back-pressure, not a retryable fault and not a process abort.
    DiskFull => "disk_full",
    /// Adversarial disk: the fsync after a spill write fails. The temp
    /// file is discarded and the write surfaces as the transient
    /// `SpillUnavailable`, leaving the previous artifact intact.
    FsyncFail => "fsync_fail",
    /// The barrier between a checkpoint epoch's file reaching disk and
    /// the query journal naming it. The crash harness aborts here to
    /// exercise the file-written-epoch-unnamed window; an injected error
    /// skips the commit (a restart cannot adopt the epoch, the running
    /// loop still rolls back to it) without failing the loop.
    EpochCommit => "epoch_commit",
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

option_table! {
    /// Number of virtual shared-nothing workers (partitions). The paper's
    /// testbed is an MPP cluster; we model it as hash partitions with
    /// explicit exchange operators.
    partitions: usize = 4, with_partitions, NonZero, Planner;
    /// §IV / Fig. 8 — use the `rename` operator instead of copying the
    /// working table back into the CTE table when the iterative part
    /// replaces the whole dataset. Disabled = baseline that always merges
    /// and diffs.
    minimize_data_movement: bool = true, with_minimize_data_movement, Any, Planner;
    /// §V-A / Fig. 9 — regroup inner joins in a loop body so that a
    /// loop-invariant join subtree becomes one join input, which the
    /// join-state cache computes once per statement. Disabled, such a join
    /// runs in every iteration.
    common_result_optimization: bool = true, with_common_result, Any, Planner;
    /// §V-B / Fig. 10 — push predicates from the final query into the
    /// non-iterative part when provably safe.
    predicate_pushdown: bool = true, with_predicate_pushdown, Any, Planner;
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
    semi_naive: bool = true, with_semi_naive, Any, Planner;
    /// Run each operator's occupied partitions in parallel, on the
    /// statement's thread and at most one scoped thread per further core,
    /// instead of sequentially on the statement's thread. Results are the
    /// same either way; sequential execution is the default.
    parallel_partitions: bool = false, with_parallel_partitions, Any, Engine;
    /// Safety bound on iterations for data/delta termination conditions, so
    /// a non-converging UNTIL cannot loop forever.
    max_iterations: u64 = 10_000, with_max_iterations, NonZero, Planner;
    /// Wall-clock deadline per statement, in milliseconds; exceeded ⇒
    /// `Error::Timeout`. `None` = unlimited.
    query_timeout_ms: Option<u64> = None, with_query_timeout_ms(u64), NonZero, Session("TIMEOUT_MS");
    /// Budget on rows materialized into temp results per statement;
    /// exceeded ⇒ `Error::ResourceExhausted { resource: "rows_materialized", .. }`.
    /// `None` = unlimited.
    max_rows_materialized: Option<u64> = None, with_max_rows_materialized(u64), Any,
        Session("MAX_ROWS_MATERIALIZED");
    /// Budget on rows moved through exchange operators (shuffle, gather,
    /// broadcast) per statement. `None` = unlimited.
    max_rows_moved: Option<u64> = None, with_max_rows_moved(u64), Any, Session("MAX_ROWS_MOVED");
    /// Budget on estimated bytes of intermediate state per statement.
    /// `None` = unlimited.
    max_intermediate_bytes: Option<u64> = None, with_max_intermediate_bytes(u64), Any,
        Session("MAX_INTERMEDIATE_BYTES");
    /// Snapshot the live loop state (CTE table, working/delta tables, loop
    /// counters) every this many iterations. `0` disables periodic
    /// checkpoints; when [`max_loop_recoveries`](Self::max_loop_recoveries)
    /// is non-zero an entry checkpoint is still taken at iteration 0 so a
    /// rollback always has a target. Snapshots are cheap: `Partitioned`
    /// clones are O(partitions) `Arc` bumps over shared immutable row
    /// buffers (copy-on-write), not row copies.
    checkpoint_interval: u64 = 0, with_checkpoint_interval, Any, Planner;
    /// Bounded retries for a *transient* failure of one unit of work (a
    /// partition worker closure, or a non-loop step re-run against its
    /// unchanged input snapshot) before the failure escalates, re-run
    /// immediately. `0` = no retry, fail fast.
    max_partition_retries: u64 = 0, with_max_partition_retries, Any, Engine;
    /// How many times a loop may roll back to its last checkpoint and
    /// replay after retries are exhausted inside the loop body. `0`
    /// disables mid-loop recovery; exhausting a non-zero budget yields
    /// `Error::RecoveryExhausted`.
    max_loop_recoveries: u64 = 0, with_max_loop_recoveries, Any, Engine;
    /// High-water mark in estimated bytes of resident intermediate state.
    /// `None` disables spilling entirely (budgets fail fast); `Some(n)`
    /// makes the executor spill cold intermediate state to disk whenever
    /// tracked resident bytes exceed `n`, degrading to slower-but-correct
    /// execution instead of failing the query. The default is read from
    /// `SPINNER_SPILL_THRESHOLD` (unset = `None`).
    spill_threshold_bytes: Option<u64> = spill_threshold_from_env(),
        with_spill_threshold_bytes(u64), NonZero, Engine;
    /// Directory for spill files. `None` uses the OS temp directory. Only
    /// consulted when [`spill_threshold_bytes`](Self::spill_threshold_bytes)
    /// is set; validated (created if missing, is a directory, writable) by
    /// [`EngineConfig::validate`]. The default is read from
    /// `SPINNER_SPILL_DIR`.
    spill_dir: Option<String> = std::env::var("SPINNER_SPILL_DIR").ok(),
        with_spill_dir(impl Into<String>), Any, Engine;
    /// Crash-consistency for on-disk state: when on (the default), every
    /// spill/checkpoint file is written to a temp name, fsynced, atomically
    /// renamed into place, and the parent directory is fsynced — so a
    /// process kill at any point leaves either the old complete artifact or
    /// the new complete artifact, never a torn file under the final name.
    /// Off skips the fsyncs (rename is still atomic); checksums are
    /// verified on read either way. The fsync count is surfaced as
    /// `durability: ... refsync=` in stats and EXPLAIN ANALYZE.
    durable_spill: bool = true, with_durable_spill, Any, Engine;
    /// Cap on queries executing plans concurrently. `None` (the default)
    /// disables admission control entirely — every statement starts
    /// immediately. `Some(n)` makes the engine gate statement start
    /// through the global `AdmissionController`: at most `n` run at once,
    /// excess queries wait in a bounded FIFO queue and are shed with typed
    /// `Error::Overloaded` / `Error::AdmissionTimeout` under overload.
    max_concurrent_queries: Option<usize> = None, with_max_concurrent_queries(usize), NonZero,
        Engine;
    /// Bound on the admission wait queue. A query arriving when the queue
    /// is already this deep is shed immediately with `Error::Overloaded`
    /// instead of queueing — bounded latency beats unbounded backlog.
    /// Only consulted when [`max_concurrent_queries`](Self::max_concurrent_queries)
    /// is set.
    admission_queue_limit: usize = 16, with_admission_queue_limit, Any, Engine;
    /// How long an *interactive* query (no loop operator in its plan) may
    /// wait in the admission queue before being shed with
    /// `Error::AdmissionTimeout`. `None` = wait indefinitely, as a batch
    /// query (its plan contains a loop operator) always does.
    admission_timeout_ms: Option<u64> = None, with_admission_timeout_ms(u64), NonZero, Engine;
    /// Read keepalive for server sessions, in milliseconds: a connection
    /// that sends no frame for this long between statements is reaped —
    /// the socket is closed and its resources released — so a half-open
    /// TCP session (peer vanished without FIN) cannot hold a connection
    /// slot forever waiting for a write failure. `0` disables reaping.
    session_keepalive_ms: u64 = 300_000, with_session_keepalive_ms, Any, Engine;
    /// Crash-consistent query resumption. When on, every iterative
    /// statement is recorded in an on-disk query journal, its checkpoint
    /// epochs are persisted as sealed files, and a fresh engine started
    /// over the same spill directory *adopts* a dead process's in-flight
    /// loops — re-planning the journaled SQL and resuming from the newest
    /// readable checkpoint epoch — instead of garbage-collecting them.
    /// Requires a spill directory (a stable home shared across process
    /// generations); off, durability ends at process death.
    resumable_queries: bool = false, with_resumable_queries, Any, Engine;
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
                assert!(m.contains("partitions must be at least 1"), "{m}");
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
        assert_eq!(c.session_settings(), SessionSettings::default());
        assert!(c.faults.is_empty());
    }

    #[test]
    fn table_derives_builders_ranges_session_knobs_and_overlay() {
        let d = EngineConfig::default();
        // Every builder, each given a value other than the default.
        let set = d
            .clone()
            .with_partitions(3)
            .with_minimize_data_movement(false)
            .with_common_result(false)
            .with_predicate_pushdown(false)
            .with_semi_naive(false)
            .with_parallel_partitions(true)
            .with_max_iterations(7)
            .with_query_timeout_ms(7)
            .with_max_rows_materialized(7)
            .with_max_rows_moved(7)
            .with_max_intermediate_bytes(7)
            .with_checkpoint_interval(7)
            .with_max_partition_retries(7)
            .with_max_loop_recoveries(7)
            .with_spill_threshold_bytes(7)
            .with_spill_dir("spill_dir_set_by_its_builder")
            .with_durable_spill(false)
            .with_max_concurrent_queries(7)
            .with_admission_queue_limit(7)
            .with_admission_timeout_ms(7)
            .with_session_keepalive_ms(7)
            .with_resumable_queries(true);
        for ((def, before), after) in OPTIONS.iter().zip(d.rendered()).zip(set.rendered()) {
            assert_ne!(before, after, "{}: builder left the default", def.name);
        }

        // Every numeric row at 0: exactly the `NonZero` rows refuse it,
        // naming the option, and `SET SESSION` agrees with `validate`.
        let zeroed = [
            ("partitions", d.clone().with_partitions(0)),
            ("max_iterations", d.clone().with_max_iterations(0)),
            ("query_timeout_ms", d.clone().with_query_timeout_ms(0)),
            (
                "max_rows_materialized",
                d.clone().with_max_rows_materialized(0),
            ),
            ("max_rows_moved", d.clone().with_max_rows_moved(0)),
            (
                "max_intermediate_bytes",
                d.clone().with_max_intermediate_bytes(0),
            ),
            ("checkpoint_interval", d.clone().with_checkpoint_interval(0)),
            (
                "max_partition_retries",
                d.clone().with_max_partition_retries(0),
            ),
            ("max_loop_recoveries", d.clone().with_max_loop_recoveries(0)),
            (
                "spill_threshold_bytes",
                d.clone().with_spill_threshold_bytes(0),
            ),
            (
                "max_concurrent_queries",
                d.clone().with_max_concurrent_queries(0),
            ),
            (
                "admission_queue_limit",
                d.clone().with_admission_queue_limit(0),
            ),
            (
                "admission_timeout_ms",
                d.clone().with_admission_timeout_ms(0),
            ),
            (
                "session_keepalive_ms",
                d.clone().with_session_keepalive_ms(0),
            ),
        ];
        let refusal = |result: Result<()>| match result {
            Ok(()) => None,
            Err(Error::InvalidConfig(m)) => Some(m),
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        };
        for (i, def) in OPTIONS.iter().enumerate() {
            assert!(OPTIONS[..i].iter().all(|d| d.name != def.name));
            let zero = zeroed.iter().find(|(name, _)| *name == def.name);
            let refused = zero.and_then(|(_, c)| refusal(c.validate()));
            assert_eq!(
                refused.is_some(),
                def.range == Range::NonZero,
                "{}",
                def.name
            );
            if let Some(m) = &refused {
                assert!(m.contains(def.name), "{m}");
            }
            let Some(key) = def.session_key() else {
                continue;
            };
            assert!(OPTIONS[..i].iter().all(|d| d.session_key() != Some(key)));
            let mut s = SessionSettings::default();
            s.set(key, 7).unwrap();
            assert_ne!(s, SessionSettings::default(), "{key}");
            // An override wins over the engine's value; no override
            // leaves the engine's value in place.
            let mut engine = SessionSettings::default();
            engine.set(key, 9).unwrap();
            assert_eq!(s.overlay(engine), s, "{key}");
            assert_eq!(SessionSettings::default().overlay(engine), engine);
            s.reset(key).unwrap();
            assert_eq!(s, SessionSettings::default(), "{key}");
            assert_eq!(refusal(s.set(key, 0)), refused, "{key}");
            if let Some(m) = refused {
                assert!(m.contains(key), "{m}");
            }
        }
        let mut s = SessionSettings::default();
        s.set("TIMEOUT_MS", 5).unwrap();
        s.reset("ALL").unwrap();
        assert_eq!(s, SessionSettings::default());
        assert_eq!(
            s.set("NO_SUCH_KNOB", 1),
            Err(Error::unsupported(
                "unknown session knob NO_SUCH_KNOB (expected TIMEOUT_MS, \
                 MAX_ROWS_MATERIALIZED, MAX_ROWS_MOVED or MAX_INTERMEDIATE_BYTES)"
            ))
        );
        assert!(
            matches!(s.reset("NO_SUCH_KNOB"), Err(Error::Unsupported(m)) if m.contains("ALL, "))
        );

        // The journal overlay is the planner rows, rendered by value.
        let overlay = d.settings_overlay();
        let keys: Vec<&str> = overlay.iter().map(|(k, _)| k.as_str()).collect();
        let planner: Vec<&str> = OPTIONS
            .iter()
            .filter(|def| def.scope == Scope::Planner)
            .map(|def| def.name)
            .collect();
        assert_eq!(keys, planner);
        assert_eq!(overlay[0], ("partitions".to_string(), "4".to_string()));
        assert_eq!(
            d.clone().with_max_iterations(9).settings_overlay()[5].1,
            "9"
        );
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
    fn fault_site_tokens_round_trip() {
        for site in [
            FaultSite::Exchange,
            FaultSite::LoopIteration,
            FaultSite::Worker,
            FaultSite::SessionWrite,
            FaultSite::TornWrite,
            FaultSite::FsyncFail,
            FaultSite::EpochCommit,
        ] {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::LoopIteration.name(), "loop_iteration");
        assert_eq!(FaultSite::SpillRead.name(), "spill_read");
        assert_eq!(FaultSite::from_name("loop"), None);
        assert_eq!(FaultSite::from_name("LoopIteration"), None);
    }

    #[test]
    fn admission_defaults_to_disabled() {
        let c = EngineConfig::default();
        assert_eq!(c.max_concurrent_queries, None);
        assert_eq!(c.admission_queue_limit, 16);
        assert_eq!(c.admission_timeout_ms, None);
    }

    #[test]
    fn degenerate_admission_knobs_rejected() {
        let c = EngineConfig::default().with_max_concurrent_queries(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default().with_admission_timeout_ms(0);
        assert!(matches!(c.validate(), Err(crate::Error::InvalidConfig(_))));
        let c = EngineConfig::default()
            .with_max_concurrent_queries(2)
            .with_admission_queue_limit(4)
            .with_admission_timeout_ms(100);
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
