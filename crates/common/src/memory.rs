//! Central memory accounting for intermediate state, and the victim
//! selection that drives spill-to-disk under pressure.
//!
//! Every allocator of intermediate state — materialized temp results,
//! working/delta tables, hash-aggregate and hash-join build sides, the
//! join-state cache's loop-invariant join inputs, and checkpoint
//! snapshots — registers a *region* with the [`MemoryAccountant`]. The
//! accountant tracks resident bytes against a high-water mark
//! (`spill_threshold_bytes`); when the mark is crossed,
//! [`MemoryAccountant::spill_plan`] picks victims in coldness order —
//! loop-invariant state first (cached join inputs, then checkpoints), then
//! working tables, then other temp results — and the executor spills them
//! through the storage layer's `SpillManager`.
//!
//! The accountant is bookkeeping only: it never does I/O itself, so it can
//! live in `spinner-common` below the storage crate. Disk writes/reads and
//! their fault-injection hooks ([`SpillFaultHook`]) are wired in by the
//! engine, keeping the crate dependency graph acyclic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::FaultSite;
use crate::counters::CounterSet;
use crate::error::Result;

/// Identifier of one registered memory region.
pub type RegionId = u64;

/// What kind of intermediate state a region holds. The kind determines
/// both which store can spill it and its victim priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// A loop checkpoint snapshot: only read again on rollback.
    Checkpoint,
    /// A working or delta table of a running loop.
    WorkingTable,
    /// Any other named temp result (including the live CTE table).
    TempResult,
    /// A hash-aggregate group table being built; pinned (never spilled).
    HashAggregate,
    /// A hash-join build side being probed, or a cached build whose rows
    /// are its source's own partitions, held across iterations; pinned
    /// (never spilled).
    HashJoinBuild,
    /// A cached loop-invariant join input whose rows were copied
    /// (partitioned rows, and a build side's hash tables) held across
    /// iterations in a slot of the join-state cache — the §V-A common
    /// result. Derived state that can always be run again from its
    /// sources, so it is the coldest state and the first victim, spilled
    /// like a temp: reading it back costs less than routing its rows
    /// again (`JoinStateCache::evict`).
    JoinBuild,
}

impl RegionKind {
    /// Victim-selection priority: lower spills first; `None` means the
    /// region is pinned in memory (operator state in active use).
    pub fn victim_priority(self) -> Option<u8> {
        match self {
            RegionKind::JoinBuild => Some(0),
            RegionKind::Checkpoint => Some(1),
            RegionKind::WorkingTable => Some(2),
            RegionKind::TempResult => Some(3),
            RegionKind::HashAggregate | RegionKind::HashJoinBuild => None,
        }
    }

    /// Stable lowercase name (observability, spill file names).
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::Checkpoint => "checkpoint",
            RegionKind::WorkingTable => "working_table",
            RegionKind::TempResult => "temp_result",
            RegionKind::HashAggregate => "hash_aggregate",
            RegionKind::HashJoinBuild => "hash_join_build",
            RegionKind::JoinBuild => "join_build",
        }
    }

    /// Classify a temp-registry name by the planner's naming conventions:
    /// `__work*` and `__delta_*` are loop working state, everything else is
    /// a plain temp result.
    pub fn of_temp_name(name: &str) -> RegionKind {
        if name.starts_with("__work") || name.starts_with("__delta_") {
            RegionKind::WorkingTable
        } else {
            RegionKind::TempResult
        }
    }
}

/// The metrics sink shared by the accountant and the storage layer's spill
/// manager: an engine-wide [`CounterSet`] whose spill and durability
/// counters the engine folds into each statement as it finishes.
pub type MemoryMetrics = CounterSet;

/// Fault-injection hook for spill I/O, implemented by the engine over its
/// `FaultInjector` so the storage layer can fire `FaultSite::SpillWrite` /
/// `FaultSite::SpillRead` without depending on the exec crate.
pub trait SpillFaultHook: Send + Sync + std::fmt::Debug {
    /// Fire the injection point for `site`; an `Err` aborts the spill
    /// operation as if the disk had failed.
    fn hit(&self, site: FaultSite) -> Result<()>;
}

/// One spill victim chosen by [`MemoryAccountant::spill_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRequest {
    /// The region to spill.
    pub id: RegionId,
    /// The owner's key for the region (temp-registry name or loop id).
    pub name: String,
    /// Region kind; tells the executor which store owns the region.
    pub kind: RegionKind,
    /// Estimated resident bytes the spill would free.
    pub bytes: u64,
}

#[derive(Debug)]
struct Region {
    name: String,
    kind: RegionKind,
    bytes: u64,
    resident: bool,
    last_touch: u64,
}

/// Tracks every live region of intermediate state and decides what to
/// spill when resident bytes cross the configured high-water mark.
///
/// Charge/release protocol: owners call [`register`](Self::register) when
/// state is allocated, [`touch`](Self::touch) on access,
/// [`note_spilled`](Self::note_spilled) / [`note_rehydrated`](Self::note_rehydrated)
/// as the state moves to and from disk, and [`release`](Self::release)
/// when it is dropped. All methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct MemoryAccountant {
    threshold: u64,
    regions: Mutex<HashMap<RegionId, Region>>,
    next_id: AtomicU64,
    clock: AtomicU64,
    resident: AtomicU64,
    metrics: Arc<MemoryMetrics>,
}

impl MemoryAccountant {
    /// Accountant with the given spill high-water mark in bytes.
    pub fn new(threshold: u64, metrics: Arc<MemoryMetrics>) -> Self {
        MemoryAccountant {
            threshold,
            regions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            metrics,
        }
    }

    /// The configured spill high-water mark in bytes.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> &Arc<MemoryMetrics> {
        &self.metrics
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a new resident region of `bytes` estimated bytes.
    pub fn register(&self, name: &str, kind: RegionKind, bytes: u64) -> RegionId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let last_touch = self.tick();
        self.regions.lock().expect("accountant lock").insert(
            id,
            Region {
                name: name.to_string(),
                kind,
                bytes,
                resident: true,
                last_touch,
            },
        );
        let resident = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.metrics.peak_tracked_bytes.raise(resident);
        id
    }

    /// Mark a region as recently used (affects victim coldness order).
    pub fn touch(&self, id: RegionId) {
        let tick = self.tick();
        if let Some(r) = self.regions.lock().expect("accountant lock").get_mut(&id) {
            r.last_touch = tick;
        }
    }

    /// Re-key a region after the `rename` operator moves its owner entry.
    pub fn rename(&self, id: RegionId, name: &str) {
        if let Some(r) = self.regions.lock().expect("accountant lock").get_mut(&id) {
            r.name = name.to_string();
        }
    }

    /// The region moved to disk: its bytes no longer count as resident.
    pub fn note_spilled(&self, id: RegionId) {
        let mut regions = self.regions.lock().expect("accountant lock");
        if let Some(r) = regions.get_mut(&id) {
            if r.resident {
                r.resident = false;
                self.resident.fetch_sub(r.bytes, Ordering::Relaxed);
            }
        }
    }

    /// The region was read back from disk and is resident again.
    pub fn note_rehydrated(&self, id: RegionId) {
        let tick = self.tick();
        let mut regions = self.regions.lock().expect("accountant lock");
        if let Some(r) = regions.get_mut(&id) {
            if !r.resident {
                r.resident = true;
                r.last_touch = tick;
                let resident = self.resident.fetch_add(r.bytes, Ordering::Relaxed) + r.bytes;
                self.metrics.peak_tracked_bytes.raise(resident);
            }
        }
    }

    /// The region's owner dropped it; stop tracking it entirely.
    pub fn release(&self, id: RegionId) {
        let mut regions = self.regions.lock().expect("accountant lock");
        if let Some(r) = regions.remove(&id) {
            if r.resident {
                self.resident.fetch_sub(r.bytes, Ordering::Relaxed);
            }
        }
    }

    /// Bytes of tracked state currently resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of regions currently tracked (resident or spilled). Used by
    /// leak checks: after a statement completes and its temps are dropped,
    /// this must return to its pre-statement baseline.
    pub fn region_count(&self) -> usize {
        self.regions.lock().expect("accountant lock").len()
    }

    /// Whether resident bytes currently exceed the high-water mark.
    pub fn over_threshold(&self) -> bool {
        self.resident_bytes() > self.threshold
    }

    /// Pick spill victims until the projected resident total is back under
    /// the high-water mark. Victims are resident, spillable (see
    /// [`RegionKind::victim_priority`]), not named in `protect`, and
    /// ordered coldest-first: (kind priority, last touch). Regions named in
    /// `protect` — typically the table the executor just wrote — are never
    /// chosen.
    pub fn spill_plan(&self, protect: &[&str]) -> Vec<SpillRequest> {
        let mut resident = self.resident_bytes();
        if resident <= self.threshold {
            return Vec::new();
        }
        let regions = self.regions.lock().expect("accountant lock");
        let mut victims: Vec<(&RegionId, &Region, u8)> = regions
            .iter()
            .filter(|(_, r)| r.resident && !protect.contains(&r.name.as_str()))
            .filter_map(|(id, r)| r.kind.victim_priority().map(|p| (id, r, p)))
            .collect();
        victims.sort_by_key(|(_, r, p)| (*p, r.last_touch));
        let mut plan = Vec::new();
        for (id, r, _) in victims {
            if resident <= self.threshold {
                break;
            }
            plan.push(SpillRequest {
                id: *id,
                name: r.name.clone(),
                kind: r.kind,
                bytes: r.bytes,
            });
            resident = resident.saturating_sub(r.bytes);
        }
        plan
    }

    /// Track a short-lived pinned allocation (hash-aggregate or hash-join
    /// build state); the region is released when the returned guard drops.
    pub fn track_transient(&self, name: &str, kind: RegionKind, bytes: u64) -> TransientRegion<'_> {
        let id = self.register(name, kind, bytes);
        TransientRegion {
            accountant: self,
            id,
        }
    }
}

/// RAII guard for a pinned operator-state region; releases on drop.
#[derive(Debug)]
pub struct TransientRegion<'a> {
    accountant: &'a MemoryAccountant,
    id: RegionId,
}

impl Drop for TransientRegion<'_> {
    fn drop(&mut self) {
        self.accountant.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accountant(threshold: u64) -> MemoryAccountant {
        MemoryAccountant::new(threshold, Arc::new(MemoryMetrics::new()))
    }

    #[test]
    fn register_release_tracks_resident_bytes_and_peak() {
        let a = accountant(1_000);
        let x = a.register("x", RegionKind::TempResult, 300);
        let y = a.register("y", RegionKind::TempResult, 400);
        assert_eq!(a.resident_bytes(), 700);
        a.release(x);
        assert_eq!(a.resident_bytes(), 400);
        a.release(y);
        assert_eq!(a.resident_bytes(), 0);
        assert_eq!(a.metrics().take().peak_tracked_bytes, 700);
    }

    #[test]
    fn spill_plan_empty_under_threshold() {
        let a = accountant(1_000);
        a.register("x", RegionKind::TempResult, 500);
        assert!(!a.over_threshold());
        assert!(a.spill_plan(&[]).is_empty());
    }

    #[test]
    fn spill_plan_orders_cold_loop_invariant_state_first() {
        let a = accountant(100);
        let work = a.register("__work_pr_2", RegionKind::WorkingTable, 200);
        let build = a.register("join_build", RegionKind::JoinBuild, 200);
        let ckpt = a.register("pr", RegionKind::Checkpoint, 200);
        let cte = a.register("__cte_pr_1", RegionKind::TempResult, 200);
        // Touch order must not override kind priority between kinds.
        a.touch(build);
        let plan = a.spill_plan(&[]);
        let order: Vec<RegionId> = plan.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![build, ckpt, work, cte]);
    }

    #[test]
    fn spill_plan_stops_once_under_threshold_and_respects_protect() {
        let a = accountant(250);
        a.register("checkpoint:pr", RegionKind::Checkpoint, 200);
        a.register("b", RegionKind::TempResult, 200);
        let c = a.register("c", RegionKind::TempResult, 200);
        a.touch(c);
        let plan = a.spill_plan(&["b"]);
        // 600 resident; spilling the checkpoint (200) then c (200) reaches
        // 200 <= 250.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].name, "checkpoint:pr");
        assert_eq!(plan[1].name, "c");
    }

    #[test]
    fn pinned_kinds_are_never_victims() {
        let a = accountant(0);
        let _t = a.track_transient("join build", RegionKind::HashJoinBuild, 1_000);
        a.register("agg", RegionKind::HashAggregate, 1_000);
        assert!(a.over_threshold());
        assert!(a.spill_plan(&[]).is_empty());
    }

    #[test]
    fn transient_guard_releases_on_drop() {
        let a = accountant(1_000);
        {
            let _t = a.track_transient("agg p0", RegionKind::HashAggregate, 640);
            assert_eq!(a.resident_bytes(), 640);
        }
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn spill_and_rehydrate_move_bytes_out_and_back() {
        let a = accountant(100);
        let id = a.register("x", RegionKind::TempResult, 400);
        a.note_spilled(id);
        assert_eq!(a.resident_bytes(), 0);
        // Idempotent: double-spill must not underflow.
        a.note_spilled(id);
        assert_eq!(a.resident_bytes(), 0);
        a.note_rehydrated(id);
        assert_eq!(a.resident_bytes(), 400);
        a.note_rehydrated(id);
        assert_eq!(a.resident_bytes(), 400);
        a.release(id);
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn temp_name_classification_follows_planner_conventions() {
        assert_eq!(
            RegionKind::of_temp_name("__work_pr_2"),
            RegionKind::WorkingTable
        );
        assert_eq!(
            RegionKind::of_temp_name("__delta_pr"),
            RegionKind::WorkingTable
        );
        assert_eq!(
            RegionKind::of_temp_name("__cte_pr_1"),
            RegionKind::TempResult
        );
    }
}
