//! Loop-invariant join-state caching.
//!
//! Paper §V-A: work whose inputs do not change across iterations should
//! be done once, not once per iteration. "Spinning Fast Iterative Data
//! Flows" (Ewen et al.) names the cached constant-path input as the
//! dominant win for iterative dataflows; this module is that cache.
//!
//! A [`JoinStateCache`] lives for one statement. When a loop lowers its
//! body it marks every input that reads nothing the loop writes
//! (`LoopStep::is_invariant`: base tables, literal rows and temps the body
//! leaves alone): a hash join's build side as a `cached build`, and any
//! other such subtree that contains a join — a probe side, exchange and
//! all, or a join that is no join's input — as a
//! [`Cached`](PhysicalPlan::Cached) input. The first time it runs, the
//! executor stores its rows here — with a hash table per partition for a
//! build side — keyed by the input: its physical plan and, for a build
//! side, the key expressions it is indexed on. Later iterations skip the
//! input entirely: they re-probe the cached tables, or re-read the cached
//! rows.
//!
//! **Validity.** An entry is valid while every leaf of its input still
//! reads the very buffers it read when it ran: the `Arc` identities of a
//! base table's partitions, or of a resident temp's. The entry holds
//! those source partitions, so no buffer it compares against can be freed
//! and its address reused, and no table can grow one of them in place
//! (`Table::insert` appends in place only to a block nothing else
//! shares). DML from another session, spilling and rehydrating a temp, a
//! recovery re-`put` or any replacement therefore gives a leaf new
//! buffers, and the next lookup drops the entry and runs the input again.
//!
//! **Memory.** Each entry keeps its rows in a [`Slot`] — the resident ↔
//! spilled state machine the temp registry and the checkpoint store use —
//! charged to the memory accountant for its rows' estimate, as any hash
//! join's build side is. An entry whose rows are its sources' own
//! partitions (its exchange moved no row) is pinned
//! [`RegionKind::HashJoinBuild`] state, never a victim: evicting it would
//! free only hash tables the next probe builds again. Its charge stands
//! for the buffers it keeps alive, so a spilled source temp frees nothing
//! the accountant does not still see. One whose rows were copied is a
//! [`RegionKind::JoinBuild`] region, evictable derived state: under
//! pressure the spill planner picks it first, and it is spilled as any
//! other intermediate result would be, since running the input again would
//! cost more. Its file stays with the slot, so it is written once however
//! often it is evicted, and a build side's hash tables, which go with the
//! resident rows, are rebuilt over the rows read back.
//!
//! Lock poisoning degrades, never aborts: every accessor recovers the
//! guard with [`std::sync::PoisonError::into_inner`]. A cache torn by an
//! unwinding holder is harmless by construction — entries are validated
//! on every lookup, so the worst outcome is a spurious rebuild.

use std::sync::{Arc, Mutex, MutexGuard};

use spinner_common::memory::{RegionId, RegionKind};
use spinner_common::Result;
use spinner_plan::PlanExpr;
use spinner_storage::{Partitioned, Slot, SpillEnv};

use crate::executor::StatementContext;
use crate::keys::JoinTable;
use crate::physical::PhysicalPlan;

/// The accountant region name and spill-file label of every entry.
const LABEL: &str = "join_build";

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

/// A loop-invariant input — its plan and, for a build side, the key
/// expressions it is indexed on: the cache's key — and the source
/// partitions its leaves read when it ran.
struct Input {
    plan: PhysicalPlan,
    keys: Option<Vec<PlanExpr>>,
    /// What each scan among `plan`'s leaves read, in leaf order.
    sources: Vec<Partitioned>,
}

impl Input {
    fn is_for(&self, plan: &PhysicalPlan, keys: Option<&[PlanExpr]>) -> bool {
        self.keys.as_deref() == keys && self.plan == *plan
    }

    fn is_current(&self, ctx: &StatementContext<'_>) -> bool {
        let mut held = self.sources.iter();
        self.plan
            .all_leaves(&mut |leaf| still_reads(leaf, &mut held, ctx))
    }
}

/// One cached loop-invariant input as a probe reads it: its rows and, for
/// a build side, the hash tables over them. Cloning bumps reference counts.
#[derive(Clone)]
pub struct CachedInput {
    /// The input's rows; a build side's are hash-repartitioned on its keys.
    pub rows: Partitioned,
    /// A build side's key index per partition of `rows`; empty for any
    /// other input.
    pub tables: Arc<[JoinTable]>,
}

/// What the cache holds for one input.
struct Entry {
    input: Input,
    /// The input's rows, in memory, on disk, or both.
    rows: Slot<Partitioned>,
    /// The key indexes over the resident rows; `None` while they are on
    /// disk.
    tables: Option<Arc<[JoinTable]>>,
}

/// Statement-scoped cache of loop-invariant inputs, keyed by the input.
/// See the module docs for the lifecycle.
pub struct JoinStateCache {
    env: Option<Arc<SpillEnv>>,
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
    /// Empty cache. With a spill environment every entry is charged to its
    /// accountant and can be evicted; without one nothing is tracked.
    pub fn new(env: Option<Arc<SpillEnv>>) -> Self {
        JoinStateCache {
            env,
            entries: Mutex::new(Vec::new()),
        }
    }

    fn env(&self) -> Option<&SpillEnv> {
        self.env.as_deref()
    }

    /// Lock the entries, recovering from poison (see the module docs:
    /// validation makes a torn cache safe, so recovery only risks a
    /// spurious rebuild — far better than aborting the process).
    fn entries(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached run of the input `plan` — a build side indexed on `keys`,
    /// or rows alone without them — and whether it was cached. A
    /// still-valid resident input is returned as it is; an entry without
    /// an index never answers a lookup with keys, so a build always has
    /// its key index. Any other is made by `run` and cached, pinned or
    /// evictable as the module docs say: `run(Some(rows))` takes rows
    /// read back from disk, `run(None)` runs the input; either
    /// returns the rows and, for a build side, their key index. The
    /// sources are read before it runs, so one that changes meanwhile can
    /// only make the entry miss later, never hit stale. The entries are
    /// not locked while an input reads back or runs: a spill inside either
    /// may [`evict`](Self::evict).
    pub fn get_or_run(
        &self,
        (plan, keys): (&PhysicalPlan, Option<&[PlanExpr]>),
        ctx: &StatementContext<'_>,
        run: impl FnOnce(Option<Partitioned>) -> Result<(Partitioned, Vec<JoinTable>)>,
    ) -> Result<(CachedInput, bool)> {
        let env = self.env();
        let on_disk = {
            let mut entries = self.entries();
            let found = entries.iter().position(|e| e.input.is_for(plan, keys));
            match found.map(|at| (at, entries[at].input.is_current(ctx))) {
                Some((at, true)) => {
                    let entry = &entries[at];
                    if let (Some(rows), Some(tables)) = (entry.rows.get(env), &entry.tables) {
                        let tables = Arc::clone(tables);
                        return Ok((CachedInput { rows, tables }, true));
                    }
                    // Current, but on disk: read back below.
                    Some(entries.swap_remove(at))
                }
                Some((at, false)) => {
                    entries.swap_remove(at).rows.release(env);
                    None
                }
                None => None,
            }
        };
        let (input, mut slot) = match on_disk {
            Some(Entry { input, rows, .. }) => (input, Some(rows)),
            None => {
                let input = Input {
                    plan: plan.clone(),
                    keys: keys.map(<[PlanExpr]>::to_vec),
                    sources: read_sources(plan, ctx)?,
                };
                (input, None)
            }
        };
        let read_back = |slot: &mut Slot<Partitioned>| {
            slot.rehydrate(
                env.expect("only a cache with a spill environment spills"),
                LABEL,
            )
        };
        let ran = slot.as_mut().map(read_back).transpose().and_then(run);
        let (rows, tables) = match ran {
            Ok(ran) => ran,
            Err(e) => {
                if let Some(slot) = slot {
                    slot.release(env);
                }
                return Err(e);
            }
        };
        debug_assert_eq!(
            keys.is_some(),
            !tables.is_empty(),
            "only a build is indexed"
        );
        let shares = |s: &Partitioned| s.same_buffers(&rows.parts);
        let kind = match input.sources.iter().any(shares) {
            true => RegionKind::HashJoinBuild,
            false => RegionKind::JoinBuild,
        };
        let slot = slot.unwrap_or_else(|| Slot::new(env, LABEL, kind, rows.clone(), None));
        let tables: Arc<[JoinTable]> = tables.into();
        self.entries().push(Entry {
            input,
            rows: slot,
            tables: Some(Arc::clone(&tables)),
        });
        Ok((CachedInput { rows, tables }, false))
    }

    /// Evict the cached input whose accountant region is `region`; returns
    /// whether one was resident. This is how the spill planner reclaims the
    /// cache's memory. Only an input whose rows were copied is a victim; it
    /// is spilled — written to disk unless its slot already has a file —
    /// and only a build side's tables are rebuilt next time: reading the
    /// rows back costs less than running the input again.
    pub fn evict(&self, region: RegionId) -> Result<bool> {
        let Some(env) = self.env() else {
            return Ok(false);
        };
        let mut entries = self.entries();
        let Some(entry) = entries.iter_mut().find(|e| e.rows.region() == Some(region)) else {
            return Ok(false);
        };
        let spilled = entry.rows.spill(env, LABEL)?;
        if spilled {
            entry.tables = None;
        }
        Ok(spilled)
    }

    /// Drop every cached input, releasing their regions and files. Called
    /// when a statement finishes and when a loop rolls back to a
    /// checkpoint — replay must rebuild from the restored state, never
    /// reuse state derived on the failed timeline.
    pub fn clear(&self) {
        for entry in self.entries().drain(..) {
            entry.rows.release(self.env());
        }
    }

    /// Number of cached inputs, in memory or on disk (tests/observability).
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cached input never outlives its statement, and per-statement
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
        assert!(matches!(
            plan,
            PhysicalPlan::HashJoin {
                build: crate::JoinBuild::Cached,
                ..
            }
        ));
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

    /// Rows cached without a key index never answer a lookup with keys, so
    /// a build always finds its index: the same input is two entries.
    #[test]
    fn an_input_without_an_index_is_its_own_entry() {
        in_statement(&Catalog::new(), None, |ctx| {
            ctx.registry
                .put("side", partitioned(&[(7, 1), (8, 3)], &["a", "b"]));
            let plan = loop_join(temp_side());
            let PhysicalPlan::HashJoin { right, .. } = &plan else {
                unreachable!()
            };
            let rows = |_| Ok((execute(right, ctx)?, Vec::new()));
            let (entry, hit) = ctx.join_cache.get_or_run((right, None), ctx, rows).unwrap();
            assert!(!hit && entry.tables.is_empty());
            let (first, counts) = run(&plan, ctx);
            assert_eq!((first.len(), counts), (2, (1, 0)), "the join built its own");
            assert_eq!(ctx.join_cache.len(), 2);
            assert_eq!(run(&plan, ctx).1, (1, 1));
            let again = ctx
                .join_cache
                .get_or_run((right, None), ctx, |_| unreachable!());
            assert!(again.unwrap().1, "and the rows are still cached");
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
        in_statement(&Catalog::new(), Some(Arc::clone(&env)), |ctx| {
            ctx.registry
                .put("side", partitioned(&[(7, 1), (8, 3)], &["a", "b"]));
            let regions = env.accountant.region_count();
            let plan = loop_join(temp_side());
            let (first, _) = run(&plan, ctx);
            assert!(ctx.registry.spill_entry("side").unwrap());
            ctx.registry.get("side").unwrap();
            let (again, counts) = run(&plan, ctx);
            assert_eq!((again, counts), (first, (2, 0)));
            let builds = env.accountant.region_count() - regions;
            assert_eq!(builds, 1, "the stale entry's region was released");
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
            let regions = env.accountant.region_count();
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
            ctx.join_cache.clear();
            assert_eq!(env.accountant.region_count(), regions, "cleared on disk");
        });
    }

    #[test]
    fn a_build_that_is_its_source_stays_cached() {
        // Placed on the join key, the build's partitions are the temp's
        // own: pinned, the spill planner never names it, and every later
        // probe reuses it. It is charged for the rows it keeps alive, so
        // spilling the temp leaves them counted.
        let env = Arc::new(SpillEnv::new(0, None, None));
        in_statement(&Catalog::new(), Some(Arc::clone(&env)), |ctx| {
            let probe_only = env.accountant.resident_bytes();
            let side = placed_side(true);
            let rows_estimate = side.estimated_bytes();
            ctx.registry.put("side", side);
            let plan = loop_join(temp_side());
            let (first, counts) = run(&plan, ctx);
            assert_eq!(counts, (1, 0));
            let resident = env.accountant.resident_bytes();
            assert_eq!(resident, probe_only + 2 * rows_estimate, "temp and build");
            let victims = env.accountant.spill_plan(&[]);
            assert!(victims.iter().all(|v| v.name != LABEL), "{victims:?}");
            assert_eq!(run(&plan, ctx), (first.clone(), (1, 1)));
            assert!(ctx.registry.spill_entry("side").unwrap());
            let resident = env.accountant.resident_bytes();
            assert_eq!(resident, probe_only + rows_estimate, "the build's rows");
            // Read back, the temp is new buffers: the build is run again.
            assert_eq!(run(&plan, ctx), (first, (2, 1)));
            assert_eq!(ctx.join_cache.len(), 1);
        });
    }
}
