//! Loop-invariant join-state caching.
//!
//! Common-result extraction (optimizer, paper §V-A) materializes a
//! loop-invariant join subtree once before the loop — but the naive
//! executor still *re-hashes* that materialization on every iteration's
//! probe. "Spinning Fast Iterative Data Flows" (Ewen et al.) identifies
//! caching loop-invariant build-side state across iterations as the
//! dominant win for iterative dataflows; this module is that cache.
//!
//! A [`JoinStateCache`] lives for one statement. When a hash join's build
//! side is a hash repartition of a `__common_*` temp, the executor builds
//! the partitioned rows and per-partition hash tables once, stores them
//! here keyed by the temp's *physical identity* (the
//! `TempRegistry::fingerprint` of its partition buffers), and re-probes
//! the cached build on every later iteration.
//!
//! Lock poisoning degrades, never aborts: every accessor recovers the
//! guard with [`std::sync::PoisonError::into_inner`]. A cache torn by an
//! unwinding holder is harmless by construction — entries are validated
//! against the source temp's fingerprint on every lookup, so the worst
//! outcome of recovered-from-poison state is a spurious rebuild.
//!
//! The cached build is registered with the memory accountant as a
//! [`RegionKind::JoinBuild`] region — evictable derived state. Under
//! memory pressure the spill planner may pick it as a victim; eviction
//! simply drops the entry (the build is rebuildable from its source
//! temp), releasing its bytes. Invalidation is automatic: spilling and
//! rehydrating the backing temp, a recovery re-`put`, or any replacement
//! gives the temp new partition buffers, the fingerprint stops matching,
//! and the next probe rebuilds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spinner_common::memory::{RegionId, RegionKind};
use spinner_storage::{Partitioned, SpillEnv, TempRegistry};

use crate::keys::JoinTable;

/// One cached loop-invariant build: the post-exchange partitioned rows
/// and the hash tables over them, plus the identity of the source temp
/// they were derived from.
pub struct CachedBuild {
    /// `TempRegistry::fingerprint` of the source temp at build time.
    fingerprint: Vec<usize>,
    /// Build-side rows, already hash-repartitioned on the join keys.
    pub build: Partitioned,
    /// One key index per partition of `build`, over that partition's rows.
    pub tables: Vec<JoinTable>,
    /// Accountant region holding the build's bytes (None without a spill
    /// environment). Released on drop.
    region: Option<(RegionId, Arc<SpillEnv>)>,
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

/// Statement-scoped cache of loop-invariant hash-join builds, keyed by
/// the (lowercased) name of the hoisted `__common_*` temp they were built
/// from. See the module docs for the lifecycle.
#[derive(Debug, Default)]
pub struct JoinStateCache {
    entries: Mutex<HashMap<String, Arc<CachedBuild>>>,
}

impl JoinStateCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the entries map, recovering from poison (see the module docs:
    /// fingerprint validation makes a torn cache safe, so recovery only
    /// risks a spurious rebuild — far better than aborting the process).
    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<CachedBuild>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A still-valid cached build for `name`, or `None`. Validity means
    /// the source temp is resident with exactly the partition buffers the
    /// build was derived from; a stale entry is dropped (releasing its
    /// region) on the way out so the caller's rebuild replaces it.
    pub fn lookup(&self, name: &str, registry: &TempRegistry) -> Option<Arc<CachedBuild>> {
        let key = name.to_ascii_lowercase();
        let current = registry.fingerprint(name);
        let mut entries = self.entries();
        match entries.get(&key) {
            Some(entry) if current.as_deref() == Some(entry.fingerprint.as_slice()) => {
                entry.touch();
                Some(Arc::clone(entry))
            }
            Some(_) => {
                entries.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Cache a freshly built `build` + `tables` for `name` and return it
    /// for immediate probing. The entry is registered with the accountant
    /// of `spill` (the statement's environment, if it has one) as an
    /// evictable [`RegionKind::JoinBuild`] region named
    /// `join_build:<name>`. If the source temp is not resident right now
    /// (it was spilled while we built), the build is returned for this
    /// probe but not cached — its identity is already unknowable.
    pub fn insert(
        &self,
        name: &str,
        build: Partitioned,
        tables: Vec<JoinTable>,
        registry: &TempRegistry,
        spill: Option<&Arc<SpillEnv>>,
    ) -> Arc<CachedBuild> {
        let key = name.to_ascii_lowercase();
        let Some(fingerprint) = registry.fingerprint(name) else {
            return Arc::new(CachedBuild {
                fingerprint: Vec::new(),
                build,
                tables,
                region: None,
            });
        };
        let region = spill.map(|env| {
            let id = env.accountant.register(
                &format!("join_build:{key}"),
                RegionKind::JoinBuild,
                build.estimated_bytes(),
            );
            (id, Arc::clone(env))
        });
        let entry = Arc::new(CachedBuild {
            fingerprint,
            build,
            tables,
            region,
        });
        self.entries().insert(key, Arc::clone(&entry));
        entry
    }

    /// Drop the cached build for `name` (accepts either the bare temp
    /// name or the accountant's `join_build:<name>` region name),
    /// releasing its region. Returns whether an entry existed. This is
    /// how the spill planner reclaims the cache's memory: the build is
    /// derived state, so eviction is a drop, not a disk write.
    pub fn evict(&self, name: &str) -> bool {
        let key = name
            .strip_prefix("join_build:")
            .unwrap_or(name)
            .to_ascii_lowercase();
        self.entries().remove(&key).is_some()
    }

    /// Drop every cached build, releasing their regions. Called when a
    /// statement finishes and when a loop rolls back to a checkpoint —
    /// replay must rebuild from the restored state, never reuse state
    /// derived on the failed timeline.
    pub fn clear(&self) {
        self.entries().clear();
    }

    /// Number of cached builds (tests/observability).
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
    use spinner_common::{row_of, Block, Schema, Value};

    fn empty_table() -> JoinTable {
        JoinTable::build(Vec::new(), 0).unwrap()
    }

    fn toy(parts: Vec<Vec<i64>>) -> Partitioned {
        let block =
            |p: Vec<i64>| Block::from_rows(1, p.into_iter().map(|v| row_of([Value::Int(v)])));
        Partitioned {
            schema: Arc::new(Schema::empty()),
            parts: parts.into_iter().map(|p| Arc::new(block(p))).collect(),
        }
    }

    #[test]
    fn lookup_hits_while_source_identity_is_stable() {
        let registry = TempRegistry::new(None);
        registry.put("__common_1", toy(vec![vec![1], vec![2]]));
        let cache = JoinStateCache::new();
        assert!(cache.lookup("__common_1", &registry).is_none());
        cache.insert(
            "__common_1",
            toy(vec![vec![1], vec![2]]),
            vec![empty_table(), empty_table()],
            &registry,
            None,
        );
        assert!(cache.lookup("__common_1", &registry).is_some());
        assert!(
            cache.lookup("__COMMON_1", &registry).is_some(),
            "case-folded"
        );
    }

    #[test]
    fn replacing_the_source_invalidates() {
        let registry = TempRegistry::new(None);
        registry.put("__common_1", toy(vec![vec![1]]));
        let cache = JoinStateCache::new();
        cache.insert(
            "__common_1",
            toy(vec![vec![1]]),
            vec![empty_table()],
            &registry,
            None,
        );
        registry.put("__common_1", toy(vec![vec![9]]));
        assert!(
            cache.lookup("__common_1", &registry).is_none(),
            "new buffers, new fingerprint"
        );
        assert!(cache.is_empty(), "stale entry dropped by lookup");
    }

    #[test]
    fn poisoned_cache_degrades_instead_of_aborting() {
        let registry = TempRegistry::new(None);
        registry.put("__common_1", toy(vec![vec![1]]));
        let cache = JoinStateCache::new();
        cache.insert(
            "__common_1",
            toy(vec![vec![1]]),
            vec![empty_table()],
            &registry,
            None,
        );
        // Poison the entries mutex from a thread that panics holding it.
        let res = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.entries.lock().unwrap();
                panic!("poison the join cache");
            })
            .join()
        });
        assert!(res.is_err(), "the poisoning thread panicked");
        assert!(cache.entries.is_poisoned());
        // Every accessor still works: the fingerprint check protects
        // correctness, so recovered state at worst rebuilds.
        assert!(cache.lookup("__common_1", &registry).is_some());
        assert_eq!(cache.len(), 1);
        registry.put("__common_2", toy(vec![vec![2]]));
        cache.insert(
            "__common_2",
            toy(vec![vec![2]]),
            vec![empty_table()],
            &registry,
            None,
        );
        assert!(cache.evict("__common_2"));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn evict_accepts_region_names() {
        let registry = TempRegistry::new(None);
        registry.put("__common_2", toy(vec![vec![1]]));
        let cache = JoinStateCache::new();
        cache.insert(
            "__common_2",
            toy(vec![vec![1]]),
            vec![empty_table()],
            &registry,
            None,
        );
        assert!(cache.evict("join_build:__common_2"));
        assert!(!cache.evict("join_build:__common_2"), "already gone");
        assert!(cache.lookup("__common_2", &registry).is_none());
    }
}
