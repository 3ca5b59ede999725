//! Loop-invariant join-state caching.
//!
//! Paper §V-A: work whose inputs do not change across iterations should
//! be done once, not once per iteration. "Spinning Fast Iterative Data
//! Flows" (Ewen et al.) names the cached constant-path build as the
//! dominant win for iterative dataflows; this module is that cache.
//!
//! A [`JoinStateCache`] lives for one statement. When a loop lowers its
//! body it marks every hash join whose build side reads nothing the loop
//! writes (`LoopStep::is_invariant`: base tables, literal rows and temps
//! the body leaves alone). The first time such a join runs, the executor
//! builds the post-exchange partitions and per-partition hash tables and
//! stores them here, keyed by the join's build side — its physical plan
//! and key expressions; later iterations skip the build side entirely
//! and re-probe the cached tables.
//!
//! **Validity.** An entry is valid while every leaf of its build side
//! still reads the very buffers it read at build time: the `Arc`
//! identities of a base table's partitions, or of a resident temp's. The
//! entry holds those source partitions, so no buffer it compares against
//! can be freed and its address reused, and no table can grow one of them
//! in place (`Table::insert` appends in place only to a block nothing else
//! shares). DML from another session, spilling and rehydrating a temp, a
//! recovery re-`put` or any replacement therefore gives a leaf new
//! buffers, and the next lookup drops the entry and rebuilds.
//!
//! **Memory.** Each build is registered with the memory accountant as a
//! [`RegionKind::JoinBuild`] region — evictable derived state. Under
//! pressure the spill planner may pick it as a victim. A build that is its
//! source's own partitions (its exchange moved no row) is dropped: it is
//! rebuilt from them. One whose exchange copied its rows is written to disk
//! and read back on its next use, as any other intermediate result would
//! be: routing every row again would cost more.
//!
//! Lock poisoning degrades, never aborts: every accessor recovers the
//! guard with [`std::sync::PoisonError::into_inner`]. A cache torn by an
//! unwinding holder is harmless by construction — entries are validated
//! on every lookup, so the worst outcome is a spurious rebuild.

use std::sync::{Arc, Mutex, MutexGuard};

use spinner_common::memory::{RegionId, RegionKind};
use spinner_common::Result;
use spinner_plan::PlanExpr;
use spinner_storage::{Partitioned, SpillEnv, SpillHandle};

use crate::executor::StatementContext;
use crate::keys::JoinTable;
use crate::physical::PhysicalPlan;

/// What the scans among `plan`'s leaves read now, in leaf order: a base
/// table's snapshot or a temp's partitions.
fn read_sources(plan: &PhysicalPlan, ctx: &StatementContext<'_>) -> Result<Vec<Partitioned>> {
    let (mut read, mut failed) = (Vec::new(), None);
    plan.all_leaves(&mut |leaf| {
        let source = match leaf {
            PhysicalPlan::SeqScan { table, .. } => {
                ctx.catalog.with_table(table, |t| Ok(t.snapshot()))
            }
            PhysicalPlan::TempScan { name, .. } => ctx.registry.get(name),
            _ => return true,
        };
        match source {
            Ok(source) => read.push(source),
            Err(e) => failed = Some(e),
        }
        failed.is_none()
    });
    failed.map_or(Ok(read), Err)
}

/// Whether `leaf` still reads the buffers it read at build time — for a
/// scan, the next of `held`. A spilled temp is never the same: its
/// identity is unknowable without a read.
fn still_reads(
    leaf: &PhysicalPlan,
    held: &mut std::slice::Iter<'_, Partitioned>,
    ctx: &StatementContext<'_>,
) -> bool {
    match leaf {
        PhysicalPlan::SeqScan { table, .. } => held.next().is_some_and(|held| {
            let holds = ctx.catalog.with_table(table, |t| Ok(t.holds(held)));
            holds.unwrap_or(false)
        }),
        PhysicalPlan::TempScan { name, .. } => held
            .next()
            .is_some_and(|held| ctx.registry.holds(name, held)),
        _ => true,
    }
}

/// A join's build side — its plan and key expressions, the cache's key —
/// and the source partitions its leaves read when it was built.
#[derive(Clone)]
struct BuildSide {
    plan: PhysicalPlan,
    keys: Vec<PlanExpr>,
    /// What each scan among `plan`'s leaves read, in leaf order.
    sources: Vec<Partitioned>,
}

impl BuildSide {
    fn is_for(&self, plan: &PhysicalPlan, keys: &[PlanExpr]) -> bool {
        self.keys == keys && self.plan == *plan
    }

    fn is_current(&self, ctx: &StatementContext<'_>) -> bool {
        let mut held = self.sources.iter();
        self.plan
            .all_leaves(&mut |leaf| still_reads(leaf, &mut held, ctx))
    }
}

/// One cached loop-invariant build: the post-exchange partitioned rows and
/// the hash tables over them.
pub struct CachedBuild {
    side: BuildSide,
    /// Build-side rows, already hash-repartitioned on the join keys.
    pub build: Partitioned,
    /// One key index per partition of `build`, over that partition's rows.
    pub tables: Vec<JoinTable>,
    /// Accountant region holding the build's bytes (None without a spill
    /// environment). Released on drop.
    region: Option<(RegionId, Arc<SpillEnv>)>,
    /// A copy of `build` already on disk, when it was read back from one.
    file: Option<SpillHandle>,
}

impl CachedBuild {
    fn touch(&self) {
        if let Some((id, env)) = &self.region {
            env.accountant.touch(*id);
        }
    }
}

impl Drop for CachedBuild {
    fn drop(&mut self) {
        if let Some((id, env)) = self.region.take() {
            env.accountant.release(id);
        }
    }
}

impl std::fmt::Debug for CachedBuild {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedBuild")
            .field("partitions", &self.build.parts.len())
            .field("rows", &self.build.total_rows())
            .finish()
    }
}

/// What the cache holds for one build side.
enum Entry {
    /// In memory, ready to probe.
    Built(Arc<CachedBuild>),
    /// Evicted with its rows on disk (see [`JoinStateCache::evict`]).
    OnDisk(Box<BuildSide>, SpillHandle),
}

impl Entry {
    fn side(&self) -> &BuildSide {
        match self {
            Entry::Built(built) => &built.side,
            Entry::OnDisk(side, _) => side,
        }
    }
}

/// Statement-scoped cache of loop-invariant hash-join builds, keyed by the
/// join's build side. See the module docs for the lifecycle.
#[derive(Default)]
pub struct JoinStateCache {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for JoinStateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinStateCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl JoinStateCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the entries, recovering from poison (see the module docs:
    /// validation makes a torn cache safe, so recovery only risks a
    /// spurious rebuild — far better than aborting the process).
    fn entries(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The build of the build side `plan` keyed on `keys`, and whether it
    /// was cached. A still-valid cached build is returned as it is. Any
    /// other is made by `build` and cached as an evictable
    /// [`RegionKind::JoinBuild`] region: `build(Some(rows))` indexes rows
    /// read back from disk, `build(None)` runs the build side. The sources
    /// are read before it runs, so one that changes meanwhile can only
    /// make the entry miss later, never hit stale.
    pub fn get_or_build(
        &self,
        (plan, keys): (&PhysicalPlan, &[PlanExpr]),
        ctx: &StatementContext<'_>,
        build: impl FnOnce(Option<Partitioned>) -> Result<(Partitioned, Vec<JoinTable>)>,
    ) -> Result<(Arc<CachedBuild>, bool)> {
        let mut on_disk = None;
        {
            let mut entries = self.entries();
            if let Some(at) = entries.iter().position(|e| e.side().is_for(plan, keys)) {
                let current = entries[at].side().is_current(ctx);
                if let (true, Entry::Built(built)) = (current, &entries[at]) {
                    built.touch();
                    return Ok((Arc::clone(built), true));
                }
                // The entry goes, releasing its region or file; rows on
                // disk that are still current are read back below.
                if let (true, Entry::OnDisk(side, file)) = (current, entries.swap_remove(at)) {
                    on_disk = Some((side, file));
                }
            }
        }
        let (side, file, rows) = match (on_disk, ctx.spill.as_ref()) {
            (Some((side, file)), Some(env)) => {
                let rows = env.manager.read_partitioned(&file, "join_build")?;
                (*side, Some(file), Some(rows))
            }
            _ => {
                let side = BuildSide {
                    plan: plan.clone(),
                    keys: keys.to_vec(),
                    sources: read_sources(plan, ctx)?,
                };
                (side, None, None)
            }
        };
        let (build, tables) = build(rows)?;
        let region = ctx.spill.as_ref().map(|env| {
            let bytes = build.estimated_bytes();
            let id = env
                .accountant
                .register("join_build", RegionKind::JoinBuild, bytes);
            (id, Arc::clone(env))
        });
        let built = Arc::new(CachedBuild {
            side,
            build,
            tables,
            region,
            file,
        });
        self.entries().push(Entry::Built(Arc::clone(&built)));
        Ok((built, false))
    }

    /// Evict the cached build whose accountant region is `region`,
    /// releasing it; returns whether there was one. This is how the spill
    /// planner reclaims the cache's memory. A build whose partitions are
    /// its source's own (its exchange moved no row) owns nothing but its
    /// hash tables, and is dropped. One whose exchange copied its rows is
    /// written to disk first, unless it already is, and only its tables
    /// are rebuilt next time: reading the rows back costs less than
    /// routing them all again.
    pub fn evict(&self, region: RegionId) -> Result<bool> {
        let mut entries = self.entries();
        let of_region = |e: &Entry| match e {
            Entry::Built(built) => built.region.as_ref().is_some_and(|(id, _)| *id == region),
            Entry::OnDisk(..) => false,
        };
        let Some(at) = entries.iter().position(of_region) else {
            return Ok(false);
        };
        let Entry::Built(built) = entries.swap_remove(at) else {
            unreachable!("only a built entry has a region");
        };
        let shares = |source: &Partitioned| source.same_buffers(&built.build.parts);
        if built.side.sources.iter().any(shares) {
            return Ok(true);
        }
        // Probes hold a build only while they run, never across a spill.
        let Ok(mut built) = Arc::try_unwrap(built) else {
            return Ok(true);
        };
        let file = match (built.file.take(), &built.region) {
            (Some(file), _) => file,
            (None, Some((_, env))) => env.manager.write_partitioned("join_build", &built.build)?,
            (None, None) => return Ok(true),
        };
        entries.push(Entry::OnDisk(Box::new(built.side.clone()), file));
        Ok(true)
    }

    /// Drop every cached build, releasing their regions and files. Called
    /// when a statement finishes and when a loop rolls back to a
    /// checkpoint — replay must rebuild from the restored state, never
    /// reuse state derived on the failed timeline.
    pub fn clear(&self) {
        self.entries().clear();
    }

    /// Number of cached builds, in memory or on disk (tests/observability).
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cached build never outlives its statement, and per-statement
/// coordination is single-threaded; `Send + Sync` lets the executor's
/// context (which holds a reference) cross scoped-worker boundaries.
const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn check() {
        assert_send_sync::<JoinStateCache>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, EngineConfig, Field, QueryGuard, Row, Schema, Value};
    use spinner_plan::{JoinType, LogicalPlan, LoopKind, LoopStep, TerminationPlan};
    use spinner_storage::Catalog;

    use crate::fault::FaultInjector;
    use crate::operators::execute;
    use crate::physical::create_stored_plan;

    fn schema(names: &[&str]) -> spinner_common::SchemaRef {
        let field = |n: &&str| Field::new(*n, DataType::Int);
        Arc::new(Schema::new(names.iter().map(field).collect()))
    }

    fn rows(cells: &[(i64, i64)]) -> Vec<Row> {
        let row = |&(a, b): &(i64, i64)| row_of([Value::Int(a), Value::Int(b)]);
        cells.iter().map(row).collect()
    }

    /// A loop over the temp `probe(k, v)` whose body joins it to `side` on
    /// `probe.k = side.b`; `side` is loop-invariant, so the join is cached.
    fn loop_join(side: LogicalPlan) -> PhysicalPlan {
        let probe = LogicalPlan::TempScan {
            name: "probe".into(),
            schema: schema(&["k", "v"]),
        };
        let join = LogicalPlan::Join {
            schema: Arc::new(probe.schema().join(&side.schema())),
            left: Box::new(probe),
            right: Box::new(side),
            join_type: JoinType::Inner,
            on: vec![(PlanExpr::column(0, "k"), PlanExpr::column(1, "b"))],
            filter: None,
        };
        let l = LoopStep {
            cte: "probe".into(),
            cte_display_name: "probe".into(),
            kind: LoopKind::Iterative {
                working: "work".into(),
                merge: false,
                delta: None,
            },
            body: Vec::new(),
            termination: TerminationPlan::Iterations(1),
            key: 0,
            schema: schema(&["k", "v"]),
        };
        let plan = create_stored_plan(&join, None, Some(&l)).unwrap();
        assert!(matches!(plan, PhysicalPlan::HashJoin { cached: true, .. }));
        plan
    }

    fn temp_side() -> LogicalPlan {
        LogicalPlan::TempScan {
            name: "side".into(),
            schema: schema(&["a", "b"]),
        }
    }

    fn partitioned(cells: &[(i64, i64)], names: &[&str]) -> Partitioned {
        Partitioned::from_rows(schema(names), rows(cells), Some(0), 2)
    }

    /// Run `f` in a statement over `catalog` at two partitions, with the
    /// temp `probe` holding keys 1, 2 and 3 and `spill` as its spill
    /// environment.
    fn in_statement<T>(
        catalog: &Catalog,
        spill: Option<Arc<SpillEnv>>,
        f: impl FnOnce(&StatementContext<'_>) -> T,
    ) -> T {
        let config = EngineConfig::default().with_partitions(2);
        let (guard, faults) = (QueryGuard::unlimited(), FaultInjector::disabled());
        let ctx = StatementContext::new(catalog, &config, &guard, &faults, spill);
        ctx.registry.put(
            "probe",
            partitioned(&[(1, 10), (2, 20), (3, 30)], &["k", "v"]),
        );
        f(&ctx)
    }

    /// The joined rows, sorted, and the statement's `(join_builds,
    /// join_builds_reused)` so far.
    fn run(plan: &PhysicalPlan, ctx: &StatementContext<'_>) -> (Vec<Row>, (u64, u64)) {
        let mut out = execute(plan, ctx).unwrap().gather();
        out.sort();
        let stats = &ctx.stats;
        (
            out,
            (stats.join_builds.get(), stats.join_builds_reused.get()),
        )
    }

    #[test]
    fn lookup_hits_while_source_identity_is_stable() {
        in_statement(&Catalog::new(), None, |ctx| {
            ctx.registry
                .put("side", partitioned(&[(7, 1), (8, 3)], &["a", "b"]));
            let plan = loop_join(temp_side());
            let (first, counts) = run(&plan, ctx);
            assert_eq!((first.len(), counts), (2, (1, 0)));
            let (again, counts) = run(&plan, ctx);
            assert_eq!((again, counts), (first, (1, 1)));
            assert_eq!(ctx.join_cache.len(), 1);
        });
    }

    #[test]
    fn replacing_the_source_invalidates() {
        in_statement(&Catalog::new(), None, |ctx| {
            ctx.registry
                .put("side", partitioned(&[(7, 1)], &["a", "b"]));
            let plan = loop_join(temp_side());
            run(&plan, ctx);
            ctx.registry
                .put("side", partitioned(&[(9, 2), (9, 3)], &["a", "b"]));
            let (out, counts) = run(&plan, ctx);
            assert_eq!((out.len(), counts), (2, (2, 0)), "new buffers, a rebuild");
            assert_eq!(ctx.join_cache.len(), 1, "the stale entry was replaced");
        });
    }

    /// A table distributed on `a`, joined on `b`: its exchange copies, so
    /// nothing but the cache entry shares the table's blocks — without
    /// the held snapshot, an INSERT would grow them in place, under the
    /// same addresses.
    #[test]
    fn an_insert_into_a_base_table_invalidates() {
        let catalog = Catalog::new();
        catalog
            .create_table("side", schema(&["a", "b"]), 2, Some(0), None)
            .unwrap();
        let insert = |cells: &[(i64, i64)]| {
            catalog
                .with_table_mut("side", |t| t.insert(rows(cells)))
                .unwrap()
        };
        insert(&[(10, 1), (11, 2), (12, 3), (13, 1), (14, 2), (15, 3)]);
        in_statement(&catalog, None, |ctx| {
            let side = LogicalPlan::TableScan {
                table: "side".into(),
                schema: schema(&["a", "b"]),
            };
            let plan = loop_join(side);
            let (before, _) = run(&plan, ctx);
            assert!(ctx.stats.rows_moved.get() > 0, "the build side was copied");
            assert_eq!(run(&plan, ctx).1, (1, 1));
            insert(&[(16, 1), (17, 2), (18, 3), (19, 1)]);
            let (after, counts) = run(&plan, ctx);
            assert_eq!(counts, (2, 1), "the insert forces a rebuild");
            assert_eq!((before.len(), after.len()), (6, 10));
        });
    }

    #[test]
    fn a_spilled_and_rehydrated_temp_invalidates() {
        let env = Arc::new(SpillEnv::new(u64::MAX, None, None));
        in_statement(&Catalog::new(), Some(env), |ctx| {
            ctx.registry
                .put("side", partitioned(&[(7, 1), (8, 3)], &["a", "b"]));
            let plan = loop_join(temp_side());
            let (first, _) = run(&plan, ctx);
            assert!(ctx.registry.spill_entry("side").unwrap());
            ctx.registry.get("side").unwrap();
            let (again, counts) = run(&plan, ctx);
            assert_eq!((again, counts), (first, (2, 0)));
        });
    }

    #[test]
    fn poisoned_cache_degrades_instead_of_aborting() {
        in_statement(&Catalog::new(), None, |ctx| {
            ctx.registry
                .put("side", partitioned(&[(7, 1)], &["a", "b"]));
            let plan = loop_join(temp_side());
            run(&plan, ctx);
            // Poison the entries mutex from a thread that panics holding it.
            let cache = &ctx.join_cache;
            let res = std::thread::scope(|s| {
                s.spawn(|| {
                    let _guard = cache.entries.lock().unwrap();
                    panic!("poison the join cache");
                })
                .join()
            });
            assert!(res.is_err(), "the poisoning thread panicked");
            assert!(cache.entries.is_poisoned());
            // Every accessor still works: validation protects correctness,
            // so recovered state at worst rebuilds.
            assert_eq!(run(&plan, ctx).1, (1, 1));
            assert_eq!(cache.len(), 1);
            cache.clear();
            assert!(cache.is_empty());
        });
    }

    /// The spill planner's `JoinBuild` victim, evicted.
    fn evict_build(env: &SpillEnv, ctx: &StatementContext<'_>) -> bool {
        let plan = env.accountant.spill_plan(&[]);
        let victim = plan.iter().find(|v| v.kind == RegionKind::JoinBuild);
        let victim = victim.expect("the build is a victim");
        assert!(ctx.join_cache.evict(victim.id).unwrap());
        !ctx.join_cache.evict(victim.id).unwrap()
    }

    /// `side` placed on `b`, the join key, or on `a`.
    fn placed_side(on_key: bool) -> Partitioned {
        let rows = rows(&[(7, 1), (8, 3), (9, 2), (6, 3)]);
        Partitioned::from_rows(schema(&["a", "b"]), rows, Some(usize::from(on_key)), 2)
    }

    #[test]
    fn evict_takes_the_region_the_spill_planner_names() {
        // Placed on `a`, the build side's exchange copies every row: the
        // evicted build goes to disk, and comes back without moving one.
        let env = Arc::new(SpillEnv::new(0, None, None));
        in_statement(&Catalog::new(), Some(Arc::clone(&env)), |ctx| {
            ctx.registry.put("side", placed_side(false));
            let plan = loop_join(temp_side());
            let (first, _) = run(&plan, ctx);
            let moved = ctx.stats.rows_moved.get();
            assert!(moved > 0);
            assert!(evict_build(&env, ctx), "evicted once");
            assert_eq!(ctx.join_cache.len(), 1, "on disk");
            assert!(env.metrics().take().spill_bytes_written > 0);
            let (again, counts) = run(&plan, ctx);
            assert_eq!((again, counts), (first, (2, 0)));
            assert_eq!(ctx.stats.rows_moved.get(), moved, "read back, not routed");
            assert!(env.metrics().take().spill_bytes_read > 0);
            // Evicted again, the build keeps the file it was read from.
            assert!(evict_build(&env, ctx));
            assert_eq!(env.metrics().take().spill_bytes_written, 0);
        });
    }

    #[test]
    fn a_build_that_is_its_source_is_dropped() {
        // Placed on the join key, the build's partitions are the temp's
        // own: eviction frees its tables and writes nothing.
        let env = Arc::new(SpillEnv::new(0, None, None));
        in_statement(&Catalog::new(), Some(Arc::clone(&env)), |ctx| {
            ctx.registry.put("side", placed_side(true));
            let plan = loop_join(temp_side());
            let (first, _) = run(&plan, ctx);
            assert!(evict_build(&env, ctx));
            assert!(ctx.join_cache.is_empty());
            assert_eq!(env.metrics().take().spill_bytes_written, 0);
            assert_eq!(run(&plan, ctx), (first, (2, 0)));
        });
    }
}
