//! The statement counter table.
//!
//! The paper argues with counters — rows moved, rows materialized,
//! iterations (Table I, Figs. 8–10) — and every one the engine reports is
//! declared exactly once, as a row of the table at the bottom of this
//! file: its name, the report group it prints under, how two readings of
//! it merge, and its labels. Everything else is derived from the rows:
//!
//! * [`CounterSet`] — the live atomic set a statement (or an engine-wide
//!   source such as the spill manager) increments;
//! * [`StatsSnapshot`] — the plain copy returned by `Database::stats`,
//!   with [`StatsSnapshot::absorb`] to merge another source's readings
//!   and a one-line `Display` summary;
//! * [`CounterBlock`] — one report group's values as `EXPLAIN ANALYZE`
//!   prints them (text line and JSON object, omitted when all-zero).
//!
//! Adding a counter is one table row plus its increment site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! block_label {
    ($key:literal) => {
        block_label!($key, $key)
    };
    ($key:literal, $label:literal) => {
        block_label!($key, $label, "")
    };
    ($key:literal, $label:literal, $unit:literal) => {
        BlockLabel {
            key: $key,
            label: $label,
            unit: $unit,
        }
    };
}
macro_rules! optional_block {
    () => {
        None
    };
    ($($label:literal),+) => {
        Some(block_label!($($label),+))
    };
}

/// How two readings of one counter combine in [`StatsSnapshot::absorb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Readings sum (work done).
    Add,
    /// The larger reading wins (high-water marks).
    Max,
    /// A non-zero incoming reading replaces the old one (facts recorded
    /// once per statement, such as the admission queue depth).
    Set,
}

/// The report group a counter prints under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Data movement and loop work; always printed.
    Exec,
    /// Checkpoints, retries and rollbacks.
    Recovery,
    /// Spill-to-disk activity of the memory accountant.
    Spill,
    /// Parallel partition scheduling and the join-state cache.
    Pool,
    /// Admission-control queueing.
    Admission,
    /// Semi-naive (delta-driven) iteration.
    SemiNaive,
    /// The checksummed, crash-consistent spill/checkpoint layer.
    Durability,
    /// Provenance of a loop resumed after an engine restart.
    Restart,
}

impl Group {
    /// Name and value separator of the group's `EXPLAIN ANALYZE` block;
    /// `None` for groups that only appear in the one-line summary.
    pub fn block(self) -> Option<(&'static str, &'static str)> {
        match self {
            Group::Spill => Some(("spill", ", ")),
            Group::Pool => Some(("pool", ", ")),
            Group::Admission => Some(("admission", ", ")),
            Group::Durability => Some(("durability", " ")),
            Group::Restart => Some(("restart", " ")),
            Group::Exec | Group::Recovery | Group::SemiNaive => None,
        }
    }

    /// Labels of the group's block values, in print order.
    pub fn block_labels(self) -> Vec<&'static BlockLabel> {
        if self == Group::Admission {
            return ADMISSION_BLOCK.iter().collect();
        }
        COUNTERS
            .iter()
            .filter(|def| def.group == self)
            .filter_map(|def| def.block.as_ref())
            .collect()
    }
}

/// How one value of an `EXPLAIN ANALYZE` block is labelled.
#[derive(Debug, PartialEq, Eq)]
pub struct BlockLabel {
    /// Key in the block's JSON object.
    pub key: &'static str,
    /// Label on the block's text line.
    pub label: &'static str,
    /// Unit suffix on the text line (`" B"` for byte counts).
    pub unit: &'static str,
}

/// The admission block's values are derived by the engine (milliseconds
/// from the microsecond counter, the controller's server-wide shed
/// total), so they are labelled here instead of in the table.
static ADMISSION_BLOCK: [BlockLabel; 3] = [
    block_label!("waited_ms"),
    block_label!("queue_depth"),
    block_label!("shed"),
];

/// One row of the counter table.
#[derive(Debug)]
pub struct CounterDef {
    /// Field name in [`CounterSet`] and [`StatsSnapshot`].
    pub name: &'static str,
    /// Report group.
    pub group: Group,
    /// Merge rule.
    pub merge: Merge,
    /// Label in the one-line `Display` summary (a group's first label may
    /// carry a `group: ` heading).
    pub summary: &'static str,
    /// Labels in the group's `EXPLAIN ANALYZE` block, if it has one.
    pub block: Option<BlockLabel>,
}

/// One live counter. `Relaxed` throughout: a statistic publishes no other
/// data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to at least `n` (high-water marks).
    pub fn raise(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Overwrite the counter with `n`.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// One report group's values as `EXPLAIN ANALYZE` shows them. Empty (the
/// default) when every value is zero, which is also when the block is
/// left out of the text and JSON renderings — profiles of statements that
/// never spilled, queued or resumed stay byte-identical to older ones.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterBlock(Vec<(&'static BlockLabel, u64)>);

impl CounterBlock {
    /// The block of `group` holding `values`, one per
    /// [`Group::block_labels`] entry.
    pub fn new(group: Group, values: &[u64]) -> Self {
        if values.iter().all(|&v| v == 0) {
            return CounterBlock::default();
        }
        CounterBlock(
            group
                .block_labels()
                .into_iter()
                .zip(values.iter().copied())
                .collect(),
        )
    }

    /// Whether every value of the block is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value stored under JSON key `key` (0 when the block is empty).
    pub fn get(&self, key: &str) -> u64 {
        self.0
            .iter()
            .find(|(label, _)| label.key == key)
            .map_or(0, |&(_, value)| value)
    }

    /// Labelled values in print order.
    pub fn entries(&self) -> &[(&'static BlockLabel, u64)] {
        &self.0
    }

    /// Append the block's text line (`spill: events=2, written=640 B, …`)
    /// to `out`; nothing when empty.
    pub fn render(&self, group: Group, out: &mut String) {
        let Some((name, sep)) = group.block().filter(|_| !self.is_empty()) else {
            return;
        };
        let values: Vec<String> = self
            .0
            .iter()
            .map(|(l, value)| format!("{}={value}{}", l.label, l.unit))
            .collect();
        let _ = writeln!(out, "{name}: {}", values.join(sep));
    }
}

/// Expands the table into [`CounterSet`], [`StatsSnapshot`] and
/// [`COUNTERS`]. Row syntax:
/// `/// doc` newline `name: Group, Merge, "summary label" [, block("json key" [, "text label" [, "unit"]])];`
macro_rules! counter_table {
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $group:ident, $merge:ident, $summary:literal
            $(, block($($label:literal),+))?;
    )*) => {
        /// The live counters of one statement — or of an engine-wide
        /// source (the spill manager, the fault injector) whose readings
        /// the engine folds into the statement that observes them. All
        /// fields are atomic so partition workers can update them.
        #[derive(Debug, Default)]
        pub struct CounterSet {
            $( $(#[doc = $doc])+ pub $name: Counter, )*
        }

        /// A plain copy of a [`CounterSet`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $( $(#[doc = $doc])+ pub $name: u64, )*
        }

        const COUNTER_COUNT: usize = [$( stringify!($name), )*].len();

        /// The counter table, in declaration order.
        pub static COUNTERS: [CounterDef; COUNTER_COUNT] = [
            $( CounterDef {
                name: stringify!($name),
                group: Group::$group,
                merge: Merge::$merge,
                summary: $summary,
                block: optional_block!($($($label),+)?),
            }, )*
        ];

        impl CounterSet {
            /// Copy the counters into a plain snapshot.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $( $name: self.$name.get(), )* }
            }

            /// Snapshot and zero the counters in one pass (each counter
            /// is swapped atomically, so no increment is lost).
            pub fn take(&self) -> StatsSnapshot {
                StatsSnapshot { $( $name: self.$name.take(), )* }
            }
        }

        impl StatsSnapshot {
            fn values(&self) -> [u64; COUNTER_COUNT] {
                [ $( self.$name, )* ]
            }

            fn slots(&mut self) -> [&mut u64; COUNTER_COUNT] {
                [ $( &mut self.$name, )* ]
            }
        }
    };
}

impl CounterSet {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StatsSnapshot {
    /// Every counter with its table row, in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> {
        COUNTERS.iter().zip(self.values())
    }

    /// Fold `other` — another source's readings for the same statement —
    /// into `self`, counter by counter under its [`Merge`] rule.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        for ((slot, theirs), def) in self.slots().into_iter().zip(other.values()).zip(&COUNTERS) {
            match def.merge {
                Merge::Add => *slot += theirs,
                Merge::Max => *slot = (*slot).max(theirs),
                Merge::Set if theirs != 0 => *slot = theirs,
                Merge::Set => {}
            }
        }
    }

    /// A snapshot with only the counter at table position `index` set.
    #[cfg(test)]
    pub(crate) fn only(index: usize, value: u64) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        *snap.slots()[index] = value;
        snap
    }

    /// The `EXPLAIN ANALYZE` block of `group`, from the counters the
    /// table places in it.
    pub fn block(&self, group: Group) -> CounterBlock {
        let values: Vec<u64> = self
            .fields()
            .filter(|(def, _)| def.group == group && def.block.is_some())
            .map(|(_, value)| value)
            .collect();
        CounterBlock::new(group, &values)
    }
}

/// One line in table order; every group but the first is left out while
/// all of its counters are zero.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        for (def, value) in self.fields() {
            let live = |(d, v): (&CounterDef, u64)| d.group == def.group && v != 0;
            if def.group == Group::Exec || self.fields().any(live) {
                write!(f, "{sep}{}={value}", def.summary)?;
                sep = " ";
            }
        }
        Ok(())
    }
}

counter_table! {
    /// Rows that changed partition inside hash/gather exchanges — the
    /// simulator's stand-in for network traffic between MPP nodes, and
    /// the quantity the rename optimization of Figure 8 reduces.
    rows_moved: Exec, Add, "moved";
    /// Rows whose target partition a hash exchange computed by hashing
    /// their key, whether or not they then moved. An input already placed
    /// on the exchange's key passes through without a row hashed.
    rows_routed: Exec, Add, "routed";
    /// Rows copied to every partition by broadcast exchanges.
    rows_broadcast: Exec, Add, "broadcast";
    /// Rows an expression sent through the scratch-row evaluator instead
    /// of a typed column loop (scalar functions, `CASE`, `CAST`, `IN`,
    /// non-numeric arithmetic, or a loop that met an error) — a block's
    /// rows once per expression, however many of its nodes went by row:
    /// how a query that fell off the fast path shows.
    rows_evaluated_by_row: Exec, Add, "by_row";
    /// Rows written by Materialize steps.
    rows_materialized: Exec, Add, "materialized";
    /// Rename operations (O(1) pointer moves).
    renames: Exec, Add, "renames";
    /// Merge steps executed.
    merges: Exec, Add, "merges";
    /// CTE rows examined by merge steps (join work the rename path
    /// avoids).
    merge_rows_examined: Exec, Add, "merge_examined";
    /// Loop iterations across all loops in the statement.
    iterations: Exec, Add, "iterations";
    /// Rows reported as updated by merges/replaces.
    rows_updated: Exec, Add, "updated";
    /// Join operators executed (hash or nested-loop). Common-result
    /// extraction reduces this: a hoisted join runs once instead of once
    /// per iteration.
    joins_executed: Exec, Add, "joins";
    /// Faults fired by the chaos-testing injector (0 in production).
    faults_injected: Exec, Add, "faults";

    /// Loop checkpoints snapshotted by the recovery subsystem.
    checkpoints_taken: Recovery, Add, "checkpoints";
    /// Estimated bytes captured by loop checkpoints.
    checkpoint_bytes: Recovery, Add, "ckpt_bytes";
    /// Transient retries of a partition worker closure.
    partition_retries: Recovery, Add, "retries";
    /// Transient re-runs of a whole step (or the final query) against its
    /// unchanged input snapshot.
    step_retries: Recovery, Add, "step_retries";
    /// Loop rollbacks to the last checkpoint after retries were exhausted.
    loop_rollbacks: Recovery, Add, "rollbacks";
    /// Iterations re-executed because of rollbacks.
    iterations_replayed: Recovery, Add, "replayed";

    /// Intermediate-state regions spilled to disk under memory pressure.
    spill_events: Spill, Add, "spills", block("events");
    /// Bytes of serialized intermediate state written to spill files.
    spill_bytes_written: Spill, Add, "spill_written", block("bytes_written", "written", " B");
    /// Bytes read back from spill files on rehydration.
    spill_bytes_read: Spill, Add, "spill_read", block("bytes_read", "read", " B");
    /// High-water mark of resident bytes tracked by the memory accountant.
    peak_tracked_bytes: Spill, Max, "peak_tracked", block("peak_tracked_bytes", "peak_tracked", " B");

    /// Scoped threads spawned to run partitions in parallel: at most one
    /// per further core per operator, so always fewer than `pool_tasks`.
    threads_spawned: Pool, Add, "spawned", block("threads_spawned");
    /// Partitions run in parallel: the occupied partitions of every
    /// operator that had at least two with `parallel_partitions` on.
    pool_tasks: Pool, Add, "pool_tasks", block("pool_tasks");
    /// Loop-invariant hash-join build tables constructed by the
    /// join-state cache (first probe, or rebuild after invalidation).
    join_builds: Pool, Add, "join_builds", block("join_builds");
    /// Loop-invariant hash-join builds served from the join-state cache
    /// instead of being re-hashed.
    join_builds_reused: Pool, Add, "join_reused", block("join_builds_reused", "join_reused");

    /// Microseconds the statement waited in the admission queue before it
    /// was allowed to start (0 with admission control off or a free slot).
    admission_waited_us: Admission, Set, "admission_waited_us";
    /// Admission queue depth at enqueue time (0 = fast-path admit).
    admission_queue_depth: Admission, Set, "admission_queue_depth";

    /// Iterative loops the optimizer proved delta-eligible and ran
    /// semi-naive (joining the delta table instead of the full CTE table).
    semi_naive_loops: SemiNaive, Add, "semi_naive_loops";
    /// Rows fed into loop bodies through delta-table scans, summed over
    /// iterations — the semi-naive replacement for full-table join input.
    delta_rows_fed: SemiNaive, Add, "delta_fed";
    /// Changed rows written into delta tables by merge steps (the next
    /// iteration's join input).
    delta_rows_emitted: SemiNaive, Add, "delta_emitted";

    /// Checkpoint epochs a statement's store numbered while a spill
    /// environment was installed (journaled ones are what a restart adopts).
    durability_epochs: Durability, Add, "durability: epochs", block("epochs");
    /// Spill/checkpoint files read back with every checksum verified.
    durability_verified: Durability, Add, "verified", block("verified");
    /// Reads that failed verification (torn write, bit rot, truncation)
    /// and surfaced as a transient `StorageCorrupt`.
    durability_corrupt: Durability, Add, "corrupt_detected", block("corrupt_detected");
    /// `fsync` calls issued by the write-to-temp → fsync → rename →
    /// fsync-dir protocol (file and directory syncs combined).
    durability_fsyncs: Durability, Add, "refsync", block("refsync");

    /// Durable checkpoint epoch adopted from a dead engine's journal
    /// (0 when the statement started fresh).
    restart_adopted_epoch: Restart, Set, "restart: adopted_epoch", block("adopted_epoch");
    /// Iteration the loop driver was seeded with after adoption.
    restart_resumed_iteration: Restart, Set, "resumed_iteration", block("resumed_iteration");
    /// Iterations lost to the crash (journal head minus adopted
    /// checkpoint) that the resumed run re-executes.
    restart_replayed_iterations: Restart, Set, "replayed_iterations", block("replayed_iterations");
}

#[cfg(test)]
mod tests {
    use super::*;

    use StatsSnapshot as S;

    #[test]
    fn counter_set_snapshots_and_takes() {
        let set = CounterSet::new();
        set.rows_moved.add(5);
        set.renames.add(1);
        set.peak_tracked_bytes.raise(7);
        set.peak_tracked_bytes.raise(3);
        set.admission_queue_depth.set(2);
        let snap = set.snapshot();
        assert_eq!(snap.rows_moved, 5);
        assert_eq!(snap.renames, 1);
        assert_eq!(snap.peak_tracked_bytes, 7);
        assert_eq!(snap.admission_queue_depth, 2);
        assert_eq!(set.take(), snap);
        assert_eq!(set.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn every_counter_absorbs_by_its_merge_rule() {
        for (i, def) in COUNTERS.iter().enumerate() {
            let mut acc = S::only(i, 5);
            acc.absorb(&S::only(i, 3));
            let expected = match def.merge {
                Merge::Add => 8,
                Merge::Max => 5,
                Merge::Set => 3,
            };
            assert_eq!(acc, S::only(i, expected), "{}", def.name);
            // Zero readings never disturb a value, whatever the rule.
            acc.absorb(&StatsSnapshot::default());
            assert_eq!(acc, S::only(i, expected), "{}", def.name);
        }
        let mut acc = StatsSnapshot {
            peak_tracked_bytes: 900,
            ..StatsSnapshot::default()
        };
        acc.absorb(&StatsSnapshot {
            peak_tracked_bytes: 400,
            ..StatsSnapshot::default()
        });
        assert_eq!(acc.peak_tracked_bytes, 900, "high-water marks do not add");
    }

    #[test]
    fn every_counter_shows_in_the_summary_line_when_set() {
        let zero = StatsSnapshot::default().to_string();
        assert_eq!(
            zero,
            "moved=0 routed=0 broadcast=0 by_row=0 materialized=0 renames=0 merges=0 merge_examined=0 \
             iterations=0 updated=0 joins=0 faults=0"
        );
        for (i, def) in COUNTERS.iter().enumerate() {
            let line = S::only(i, 41).to_string();
            assert!(line.contains(&format!("{}=41", def.summary)), "{line}");
        }
        let durable = StatsSnapshot {
            durability_fsyncs: 2,
            ..StatsSnapshot::default()
        };
        assert!(durable
            .to_string()
            .ends_with(" durability: epochs=0 verified=0 corrupt_detected=0 refsync=2"));
    }

    #[test]
    fn table_is_well_formed() {
        for (i, def) in COUNTERS.iter().enumerate() {
            assert!(COUNTERS[..i].iter().all(|d| d.name != def.name));
            // The summary line and the blocks print in table order, so a
            // group's rows must be contiguous.
            let earlier = COUNTERS[..i].iter().rposition(|d| d.group == def.group);
            assert!(earlier.is_none() || earlier == Some(i - 1), "{}", def.name);
            assert!(
                def.block.is_none() || def.group.block().is_some(),
                "{}",
                def.name
            );
        }
    }
}
