//! The solution set's key index.
//!
//! A merge loop's CTE table is what Ewen et al. ("Spinning Fast Iterative
//! Data Flows") call the *solution set*: each round updates some of its
//! rows by key. Rebuilding a key lookup over it every round would cost
//! O(CTE) however little changed, so the loop keeps one beside the table:
//! a `SolutionIndex`, one [`JoinTable`] per partition over the loop key.
//! It has two users:
//!
//! * the merge (`merge_partition`) probes each working row through it
//!   and writes only the rows that changed, in place — O(working) probed,
//!   O(changed) written;
//! * a semi-naive body's inner join of the CTE with last round's
//!   contributions looks each contribution's CTE rows up in it, instead of
//!   building a hash table over the contributions (`indexed_pairs` in
//!   `operators.rs`).
//!
//! **Derived state.** The loop driver builds the index at loop entry and
//! after every epoch install (rollback, adoption) — where it builds a
//! recursion's dedup set — and drops it when the loop ends. The index is
//! valid only for the CTE partitions it was built over. It holds them
//! weakly: their rows are not kept alive when the table spills, and no
//! other block can take their addresses while the index holds them. Every
//! use checks that the partitions at hand are those very buffers. A merge
//! changes no key, so its in-place writes keep the index valid; it
//! re-stamps the index with the partitions it installs. Anything else that
//! gives the CTE new buffers — a spill and its rehydrate, an exchange that
//! routed rows — makes the index stale: the merge then rebuilds it, and
//! the join runs as a plain hash join.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use spinner_common::{Block, Error, Result};
use spinner_storage::Partitioned;

use crate::keys::{JoinTable, KeyTable, NIL};

/// One merge loop's key index over its CTE table.
#[derive(Debug)]
struct SolutionIndex {
    /// The CTE partitions `tables` index, held weakly.
    over: Vec<Weak<Block>>,
    /// One index per partition over the loop key.
    tables: Arc<[JoinTable]>,
}

impl SolutionIndex {
    fn build(data: &Partitioned, key: usize) -> Result<SolutionIndex> {
        let tables = (data.parts.iter())
            .map(|part| JoinTable::build(part.columns()[key..=key].to_vec(), part.rows()))
            .collect::<Result<_>>()?;
        Ok(SolutionIndex {
            over: data.parts.iter().map(Arc::downgrade).collect(),
            tables,
        })
    }

    /// Whether `parts` are the very buffers the index was built over (or
    /// re-stamped with).
    fn indexes<'p>(&self, parts: impl IntoIterator<Item = &'p Arc<Block>>) -> bool {
        (self.over.iter().map(Weak::as_ptr)).eq(parts.into_iter().map(Arc::as_ptr))
    }
}

/// The solution indexes of one statement's merge loops, by the CTE's
/// temp-registry name as the plan spells it.
///
/// Lock poisoning degrades, never aborts, as in the join-state cache:
/// every use checks the index against the buffers at hand, so a torn entry
/// costs a rebuild at most.
#[derive(Debug, Default)]
pub struct SolutionIndexes {
    entries: Mutex<HashMap<String, SolutionIndex>>,
}

impl SolutionIndexes {
    fn entries(&self) -> MutexGuard<'_, HashMap<String, SolutionIndex>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Index `data`, the loop's CTE table `cte`, on column `key`, replacing
    /// any index it had; returns the per-partition indexes.
    pub(crate) fn build(
        &self,
        cte: &str,
        data: &Partitioned,
        key: usize,
    ) -> Result<Arc<[JoinTable]>> {
        let index = SolutionIndex::build(data, key)?;
        let tables = Arc::clone(&index.tables);
        self.entries().insert(cte.to_owned(), index);
        Ok(tables)
    }

    /// The per-partition indexes of `cte` if they index exactly `parts`.
    pub(crate) fn tables<'p>(
        &self,
        cte: &str,
        parts: impl IntoIterator<Item = &'p Arc<Block>>,
    ) -> Option<Arc<[JoinTable]>> {
        let entries = self.entries();
        let index = entries.get(cte)?;
        index.indexes(parts).then(|| Arc::clone(&index.tables))
    }

    /// The per-partition indexes of `data`, the CTE table `cte`, on column
    /// `key`: the loop's own while they index these buffers, or else
    /// rebuilt over them.
    pub(crate) fn current(
        &self,
        cte: &str,
        data: &Partitioned,
        key: usize,
    ) -> Result<Arc<[JoinTable]>> {
        match self.tables(cte, &data.parts) {
            Some(tables) => Ok(tables),
            None => self.build(cte, data, key),
        }
    }

    /// Record that `cte`'s index now indexes `parts` — a merge's output,
    /// which holds every key where the indexed partitions held it.
    pub(crate) fn stamp(&self, cte: &str, parts: &[Arc<Block>]) {
        if let Some(index) = self.entries().get_mut(cte) {
            index.over = parts.iter().map(Arc::downgrade).collect();
        }
    }

    /// Drop `cte`'s index.
    pub(crate) fn remove(&self, cte: &str) {
        self.entries().remove(cte);
    }

    /// Debug builds, at every iteration: an index that claims `data`'s
    /// buffers agrees with one rebuilt over them.
    #[cfg(debug_assertions)]
    pub(crate) fn check(&self, cte: &str, data: &Partitioned, key: usize) {
        let Some(tables) = self.tables(cte, &data.parts) else {
            return;
        };
        let rebuilt = SolutionIndex::build(data, key).expect("the index was built once");
        for (p, (kept, fresh)) in tables.iter().zip(rebuilt.tables.iter()).enumerate() {
            assert!(
                kept.agrees_with(fresh),
                "the index of {cte} is stale in partition {p}"
            );
        }
    }
}

/// What merging one working partition into its CTE partition does.
#[derive(Debug, Default)]
pub(crate) struct PartitionMerge {
    /// `(CTE row, working row)` for every CTE row the merge writes, in CTE
    /// row order: each row that changed, and each that is equal but held
    /// in another representation (`2` where the working row has `2.0`).
    pub writes: Vec<(u32, u32)>,
    /// The working row of every CTE row that changed, in CTE row order.
    pub delta: Vec<u32>,
    /// Working rows probed through the index (those with a non-NULL key).
    pub probed: u64,
}

/// Merge working partition `work` into CTE partition `cte`, which `table`
/// indexes on column `key`: every working row with a non-NULL key replaces
/// each CTE row that holds its key. A key two working rows hold is the
/// paper's duplicate-key error, reported for the first row that repeats a
/// key, whether or not the CTE holds it.
pub(crate) fn merge_partition(
    table: &JoinTable,
    (cte, work): (&Block, &Block),
    key: usize,
    cte_name: &str,
) -> Result<PartitionMerge> {
    let work_key = &work.columns()[key..=key];
    // `(CTE row, working row)` of every CTE row a working row's key finds.
    let (mut matched, mut absent): (Vec<(u32, u32)>, Vec<u32>) = (Vec::new(), Vec::new());
    let mut probed = 0;
    for (row, id) in table
        .find_all(work_key, work.rows())
        .into_iter()
        .enumerate()
    {
        // NULL keys can never match an existing row; skip them like SQL
        // equality would.
        if work_key[0].is_null(row) {
            continue;
        }
        probed += 1;
        match id {
            NIL => absent.push(row as u32),
            id => matched.extend(table.group_of(id).iter().map(|&c| (c, row as u32))),
        }
    }
    matched.sort_unstable();
    // A working row repeats a key the CTE holds where it finds a CTE row an
    // earlier one found, and one the CTE lacks where it brings no new key
    // number to a table of those keys.
    let repeats_held =
        (matched.windows(2).filter(|pair| pair[0].0 == pair[1].0)).map(|pair| pair[1].1);
    let mut repeats_absent = None;
    if absent.len() > 1 {
        let keys = [Arc::new(work_key[0].gather(&absent))];
        let ids = KeyTable::new(1, absent.len()).insert_all(&keys, absent.len())?;
        let mut distinct = 0;
        repeats_absent = ids.iter().zip(&absent).find_map(|(&id, &row)| {
            let new = id == distinct;
            distinct += u32::from(new);
            (!new).then_some(row)
        });
    }
    if let Some(row) = repeats_held.chain(repeats_absent).min() {
        return Err(Error::DuplicateIterationKey {
            cte: cte_name.to_owned(),
            key: work_key[0].value(row as usize).to_string(),
        });
    }
    let mut merge = PartitionMerge {
        probed,
        ..PartitionMerge::default()
    };
    let cells = cte.columns().iter().zip(work.columns());
    for (c, w) in matched {
        let (c_row, w_row) = (c as usize, w as usize);
        if !work.eq_rows(w_row, cte, c_row) {
            merge.delta.push(w);
            merge.writes.push((c, w));
        } else if !cells
            .clone()
            .all(|(old, new)| old.same_cell(c_row, new, w_row))
        {
            merge.writes.push((c, w));
        }
    }
    Ok(merge)
}
