//! Keys: numbering them, and indexing rows by them.
//!
//! Every operator that groups or matches rows by key — hash join, the
//! three aggregation phases, `DISTINCT`, the set operations, the loop's
//! merge, delta diff and dedup set — does it through this module, a
//! column at a time, and through two types only:
//!
//! * [`KeyTable`] numbers distinct keys in first-seen order and keeps one
//!   copy of each, in columns of its own. [`KeyTable::insert_all`] numbers
//!   a batch of rows, adding the keys it lacks; [`KeyTable::find_all`]
//!   looks a batch up, adding nothing.
//! * [`JoinTable`] is a join's build side on top of a [`KeyTable`]: each
//!   distinct key once, and its rows laid end to end, so a probe is a key
//!   number and a slice. A merge loop keeps one per partition of its CTE
//!   table as the table's key index (`solution.rs`).
//!
//! **How a key table finds a key.** Its first batch picks its index, once:
//!
//! * *dense* — a key whose first column is INT, with values in a range
//!   not much wider than the rows inserted: a `Vec<u32>` of key numbers
//!   addressed by `first cell − min`, and one slot for NULL. Nothing is
//!   hashed; the other cells of a wider key are confirmed with
//!   [`Column::eq_cells`], so each first cell holds one key. The loops'
//!   node ids are such a column, and their group keys `(node, value)`
//!   such keys.
//! * *hashed* — any other key: `hash_keys` hashes each row's key, a
//!   chained `KeyIndex` over entry ids walks the candidates, and
//!   [`Column::eq_cells`] confirms one against the held copy.
//!
//! A later batch that leaves the dense range grows the array, or converts
//! the table to the hashed index once; so does a batch that brings a
//! second key with a first cell already held. Both indexes answer `Value`'s `Eq`:
//! `2` and `2.0`, `0.0` and `-0.0`, and any two NaNs are one key, and NULL
//! is a key like any other — it is the *caller* that decides whether a NULL
//! key takes part (joins skip it, `GROUP BY` groups it).
//!
//! **What the hash decides, and what it does not.** It picks a bucket
//! inside one partition's index and nothing else. Which *partition* a row
//! belongs to is still `spinner_storage::placement` (SipHash), because
//! stored tables, checkpoints and resumed loops were placed with it. No
//! output order depends on the index either: keys are numbered in
//! first-seen order whichever index holds them, and a join build
//! counting-sorts its row numbers by key number, which keeps each key's
//! rows in build-row order. The hasher is seeded once per process, so
//! bucket collisions cannot be prepared from outside; equal full hashes
//! are always confirmed by comparing keys.

use std::borrow::Borrow;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

use spinner_common::{Column, Error, Nulls, Result};

/// Multiply-rotate hasher (the Fx construction) with an avalanche at the
/// end, because [`KeyIndex`] takes its bucket from the low bits.
#[derive(Clone, Copy)]
struct KeyHasher(u64);

const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail));
        self.add(bytes.len() as u64);
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

fn seeded() -> KeyHasher {
    static SEED: OnceLock<u64> = OnceLock::new();
    KeyHasher(*SEED.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u8)))
}

/// The hash of every row's key, the key's cells held in `keys` — one
/// column per key expression, each `rows` long. Equal keys (under `Value`'s
/// `Eq`) hash equal: each cell is fed as `Value`'s own `Hash` would feed it.
fn hash_keys<C: Borrow<Column>>(keys: &[C], rows: usize) -> Vec<u64> {
    let mut hashers = vec![seeded(); rows];
    for key in keys {
        key.borrow().hash_into(&mut hashers);
    }
    hashers.into_iter().map(|hasher| hasher.finish()).collect()
}

/// Whether any cell of row `row`'s key is NULL.
fn null_key(keys: &[Arc<Column>], row: usize) -> bool {
    keys.iter().any(|key| key.is_null(row))
}

/// Whether row `row` of `keys` holds the key `held` keeps at `id` in
/// every cell after its first.
fn rest_equal(held: &[Column], id: usize, keys: &[Arc<Column>], row: usize) -> bool {
    (held[1..].iter().zip(&keys[1..])).all(|(held, key)| held.eq_cells(id, key, row))
}

/// The key number a lookup answers for a key the table lacks.
pub(crate) const NIL: u32 = u32::MAX;

/// The id the next entry of an index holding `len` entries gets — a
/// typed error past the `u32` id space, never a wrapped id.
fn next_entry_id(len: usize) -> Result<u32> {
    match u32::try_from(len) {
        Ok(id) if id != NIL => Ok(id),
        _ => Err(Error::ResourceExhausted {
            resource: "hash_index_entries".to_string(),
            used: len as u64,
            limit: u64::from(NIL),
        }),
    }
}

/// Chained hash index over entry ids `0..len`, handed out in insertion
/// order. It stores no keys: its [`KeyTable`] keeps them in columns and
/// confirms a candidate with [`Column::eq_cells`].
#[derive(Debug)]
struct KeyIndex {
    /// Bucket → most recently inserted entry, `NIL` when empty. The
    /// length is a power of two.
    heads: Vec<u32>,
    /// Entry → the entry inserted before it into the same bucket.
    next: Vec<u32>,
    /// Entry → its full hash.
    hashes: Vec<u64>,
}

impl KeyIndex {
    /// An empty index sized for `entries` insertions without growing.
    fn with_capacity(entries: usize) -> Self {
        KeyIndex {
            heads: vec![NIL; entries.max(8).next_power_of_two()],
            next: Vec::with_capacity(entries),
            hashes: Vec::with_capacity(entries),
        }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Add an entry with `hash` at the front of its chain and return its
    /// id (the number of entries before it).
    fn insert(&mut self, hash: u64) -> Result<u32> {
        let id = next_entry_id(self.len())?;
        if self.len() >= self.heads.len() {
            self.grow();
        }
        let bucket = self.bucket(hash);
        self.next.push(self.heads[bucket]);
        self.hashes.push(hash);
        self.heads[bucket] = id;
        Ok(id)
    }

    /// Double the bucket array. Re-linking in insertion order keeps every
    /// chain most recent first.
    fn grow(&mut self) {
        self.heads = vec![NIL; self.heads.len() * 2];
        for id in 0..self.len() {
            let bucket = self.bucket(self.hashes[id]);
            self.next[id] = self.heads[bucket];
            self.heads[bucket] = id as u32;
        }
    }

    /// Entries whose full hash equals `hash`, most recently inserted
    /// first. The caller confirms each by comparing keys.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[self.bucket(hash)];
        std::iter::from_fn(move || {
            while at != NIL {
                let id = at as usize;
                at = self.next[id];
                if self.hashes[id] == hash {
                    return Some(id);
                }
            }
            None
        })
    }
}

/// A dense array may span this many slots per row inserted, plus
/// [`DENSE_SLACK`] (DESIGN.md §5h, "Dense keys are addressed").
const DENSE_SLOTS_PER_ROW: usize = 8;
const DENSE_SLACK: usize = 64;

/// Dense keys stay below this magnitude, where every INT is a FLOAT of
/// its own, so a FLOAT probe equals at most one of them.
const EXACT_INTS: i64 = 1 << 53;

/// Key numbers addressed by a key's first cell, an INT, at `key − min`.
#[derive(Debug)]
struct Dense {
    /// The key `slots[0]` addresses; meaningless while `slots` is empty.
    min: i64,
    /// `key − min` → key number, `NIL` where the table lacks the key.
    slots: Vec<u32>,
    /// NULL's key number, `NIL` while the table lacks it.
    null: u32,
    /// Keys numbered.
    len: usize,
    /// Rows inserted, every batch counted: the span the array may cover.
    rows: usize,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            min: 0,
            slots: Vec::new(),
            null: NIL,
            len: 0,
            rows: 0,
        }
    }

    /// Make the array address every non-NULL key of `data` (`rows` rows,
    /// NULL where `nulls` says), growing it, if the keys held and these
    /// still lie in a range the rule allows (DESIGN.md §5h); else `false`,
    /// and the array is as it was.
    fn cover(&mut self, data: &[i64], nulls: &Nulls) -> bool {
        let rows = self.rows + data.len();
        let mut keys = (data.iter().enumerate())
            .filter(|&(row, _)| !nulls.is_null(row))
            .map(|(_, &key)| key);
        let Some(first) = keys.next() else {
            self.rows = rows;
            return true;
        };
        let (mut lo, mut hi) =
            keys.fold((first, first), |(lo, hi), key| (lo.min(key), hi.max(key)));
        if let Some(last) = self.slots.len().checked_sub(1) {
            (lo, hi) = (lo.min(self.min), hi.max(self.min + last as i64));
        }
        let exact = |key: i64| key.unsigned_abs() < EXACT_INTS.unsigned_abs();
        let span = hi
            .checked_sub(lo)
            .and_then(|span| usize::try_from(span).ok());
        let limit = rows
            .saturating_mul(DENSE_SLOTS_PER_ROW)
            .saturating_add(DENSE_SLACK);
        let Some(span) = span.filter(|&span| exact(lo) && exact(hi) && span < limit) else {
            return false;
        };
        if !self.slots.is_empty() && lo < self.min {
            let mut grown = vec![NIL; (self.min - lo) as usize];
            grown.extend_from_slice(&self.slots);
            self.slots = grown;
        }
        self.slots.resize(span + 1, NIL);
        (self.min, self.rows) = (lo, rows);
        true
    }

    /// Number the keys whose first cells are `data`, which
    /// [`cover`](Self::cover) made the array address, in first-seen order;
    /// the rows that brought a key go to `brought_by`. `same(id, row,
    /// brought_by)` confirms that row `row` holds key `id` whose first cell
    /// it shares. `None` where a row does not: a second key with that first
    /// cell, which this index cannot hold — and then no key of the batch is
    /// numbered.
    fn insert_all(
        &mut self,
        data: &[i64],
        nulls: &Nulls,
        brought_by: &mut Vec<u32>,
        same: impl Fn(u32, usize, &[u32]) -> bool,
    ) -> Result<Option<Vec<u32>>> {
        let base = self.len;
        let mut ids = Vec::with_capacity(data.len());
        for (row, &key) in data.iter().enumerate() {
            let slot = match nulls.is_null(row) {
                true => &mut self.null,
                false => &mut self.slots[(key - self.min) as usize],
            };
            if *slot == NIL {
                *slot = next_entry_id(self.len)?;
                self.len += 1;
                brought_by.push(row as u32);
            } else if !same(*slot, row, brought_by) {
                // The table converts, leaving these slots unread.
                self.len = base;
                return Ok(None);
            }
            ids.push(*slot);
        }
        Ok(Some(ids))
    }

    /// The key number of INT key `key`, `NIL` where the table lacks it.
    fn at(&self, key: i64) -> u32 {
        let slot = key
            .checked_sub(self.min)
            .and_then(|at| usize::try_from(at).ok());
        slot.and_then(|at| self.slots.get(at)).map_or(NIL, |&id| id)
    }

    /// The key number of every row of `key`, `NIL` where the table lacks
    /// it.
    fn find_all(&self, key: &Column, rows: usize) -> Vec<u32> {
        match key {
            Column::Int(data, nulls) if !nulls.any() => {
                data[..rows].iter().map(|&key| self.at(key)).collect()
            }
            _ => (0..rows).map(|row| self.find(key, row)).collect(),
        }
    }

    /// The key number of row `row` of `key`. A FLOAT equals an INT key only
    /// when it is that integer exactly (`-0.0` is `0`; NaN and `±inf` are
    /// none), and a BOOL or TEXT none.
    fn find(&self, key: &Column, row: usize) -> u32 {
        match key {
            _ if key.is_null(row) => self.null,
            Column::Int(data, _) => self.at(data[row]),
            Column::Float(data, _) => {
                let x = data[row];
                match x.fract() == 0.0 && x.abs() < EXACT_INTS as f64 {
                    true => self.at(x as i64),
                    false => NIL,
                }
            }
            Column::Bool(..) | Column::Text(..) => NIL,
        }
    }
}

/// How a [`KeyTable`] finds its keys, picked by its first batch.
#[derive(Debug)]
enum Index {
    /// No batch yet, and the number of keys to size a hashed index for.
    Unpicked(usize),
    Dense(Dense),
    Hashed(KeyIndex),
}

/// A hash-join build side: the distinct keys of one partition's rows, and
/// each key's rows laid end to end in build-row order. Rows with a NULL in
/// their key are left out: their key has no rows. Read-only once built, so
/// a cached build is shared across iterations and partition threads as it is.
#[derive(Debug)]
pub struct JoinTable {
    keys: KeyTable,
    /// Key `k`'s rows are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinTable {
    /// Index the `rows` rows whose keys are held in `keys`: number their
    /// distinct keys, then counting-sort the row numbers by key number.
    pub fn build(keys: Vec<Arc<Column>>, rows: usize) -> Result<JoinTable> {
        JoinTable::build_on(KeyTable::new(keys.len(), rows), keys, rows)
    }

    /// [`build`](Self::build) with the key numbers of `table`, which is
    /// empty.
    fn build_on(mut table: KeyTable, keys: Vec<Arc<Column>>, rows: usize) -> Result<JoinTable> {
        // Every row index fits an entry id, so `row as u32` below is exact.
        next_entry_id(rows)?;
        let mut ids = table.insert_all(&keys, rows)?;
        let mut starts = vec![0u32; table.len() + 1];
        for (row, id) in ids.iter_mut().enumerate() {
            match null_key(&keys, row) {
                true => *id = NIL,
                false => starts[*id as usize + 1] += 1,
            }
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        // Each key's start is its cursor while its rows are placed, which
        // leaves it at the next key's start; shifting by one restores it.
        let mut sorted = vec![0u32; total as usize];
        for (row, &id) in ids.iter().enumerate().filter(|&(_, &id)| id != NIL) {
            sorted[starts[id as usize] as usize] = row as u32;
            starts[id as usize] += 1;
        }
        starts.copy_within(..table.len(), 1);
        starts[0] = 0;
        let join = JoinTable {
            keys: table,
            starts,
            rows: sorted,
        };
        #[cfg(debug_assertions)]
        join.check(&keys);
        Ok(join)
    }

    /// The rows of key number `id`, in build-row order; none for [`NIL`]
    /// or a key with a NULL cell.
    pub(crate) fn group_of(&self, id: u32) -> &[u32] {
        match id {
            NIL => &[],
            k => &self.rows[self.starts[k as usize] as usize..self.starts[k as usize + 1] as usize],
        }
    }

    /// The key number of every row of `probe` (`rows` rows), [`NIL`] where
    /// no build row holds its key: [`KeyTable::find_all`].
    pub(crate) fn find_all(&self, probe: &[Arc<Column>], rows: usize) -> Vec<u32> {
        self.keys.find_all(probe, rows)
    }

    /// Whether `other` indexes the same rows under the same keys: keys
    /// numbered alike, equal key for key, with the same rows.
    #[cfg(debug_assertions)]
    pub(crate) fn agrees_with(&self, other: &JoinTable) -> bool {
        let columns = self.keys.keys.iter().zip(&other.keys.keys);
        let equal_keys = |k: usize| columns.clone().all(|(a, b)| a.eq_cells(k, b, k));
        self.starts == other.starts
            && self.rows == other.rows
            && self.keys.len() == other.keys.len()
            && (0..self.keys.len()).all(equal_keys)
    }

    /// Every key's rows ascend and hold that key, and none holds a NULL.
    #[cfg(debug_assertions)]
    fn check(&self, keys: &[Arc<Column>]) {
        for k in 0..self.keys.len() as u32 {
            let group = self.group_of(k);
            let holds = |&row: &u32| {
                let (row, mut cells) = (row as usize, self.keys.keys.iter().zip(keys));
                !null_key(keys, row) && cells.all(|(held, key)| held.eq_cells(k as usize, key, row))
            };
            let ascending = group.windows(2).all(|pair| pair[0] < pair[1]);
            assert!(ascending && group.iter().all(holds), "key {k}: {group:?}");
        }
    }
}

/// Distinct keys numbered in first-seen order — whole rows (`DISTINCT`,
/// the set operations, a recursion's dedup set), group keys, or one
/// column (the loop's merge and delta diff). NULL is a key like any
/// other. The table keeps its own copy of each distinct key, a column
/// per key cell, which is also what `GROUP BY` and `DISTINCT` emit.
#[derive(Debug)]
pub struct KeyTable {
    index: Index,
    keys: Vec<Column>,
}

impl KeyTable {
    /// An empty table for keys of `width` cells, sized for `keys` of them.
    /// Its first batch picks its index.
    pub fn new(width: usize, keys: usize) -> Self {
        KeyTable {
            index: Index::Unpicked(keys),
            keys: vec![Column::new(); width],
        }
    }

    /// An empty table that indexes its keys by hash whatever they are: the
    /// reference a dense table is tested against.
    #[cfg(test)]
    fn hashed(width: usize, keys: usize) -> Self {
        KeyTable {
            index: Index::Hashed(KeyIndex::with_capacity(keys)),
            keys: vec![Column::new(); width],
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        match &self.index {
            Index::Unpicked(_) => 0,
            Index::Dense(dense) => dense.len,
            Index::Hashed(index) => index.len(),
        }
    }

    /// The key number of every row of `keys` (`rows` rows, a column per
    /// key cell), `NIL` where the table lacks the key. Nothing is added.
    pub fn find_all(&self, keys: &[Arc<Column>], rows: usize) -> Vec<u32> {
        debug_assert_eq!(
            keys.len(),
            self.keys.len(),
            "a key is as wide as the table's"
        );
        match &self.index {
            Index::Unpicked(_) => vec![NIL; rows],
            Index::Dense(dense) => {
                let mut ids = dense.find_all(&keys[0], rows);
                if keys.len() > 1 {
                    for (row, id) in ids.iter_mut().enumerate() {
                        if *id != NIL && !rest_equal(&self.keys, *id as usize, keys, row) {
                            *id = NIL;
                        }
                    }
                }
                ids
            }
            Index::Hashed(index) => (hash_keys(keys, rows).into_iter().enumerate())
                .map(|(row, hash)| {
                    let held = |id: &usize| {
                        (self.keys.iter().zip(keys)).all(|(held, key)| held.eq_cells(*id, key, row))
                    };
                    index
                        .candidates(hash)
                        .find(held)
                        .map_or(NIL, |id| id as u32)
                })
                .collect(),
        }
    }

    /// The key number of every row of `keys`, in order; a key the table
    /// lacks is added under the next number. The keys this batch adds are
    /// copied into the table once, a column at a time, when the batch is
    /// done.
    pub fn insert_all(&mut self, keys: &[Arc<Column>], rows: usize) -> Result<Vec<u32>> {
        let int = match keys.first().map(|key| &**key) {
            Some(Column::Int(data, nulls)) => Some((&data[..rows], nulls)),
            _ => None,
        };
        if let Index::Unpicked(capacity) = self.index {
            self.index = match int {
                Some(_) => Index::Dense(Dense::new()),
                None => Index::Hashed(KeyIndex::with_capacity(capacity)),
            };
        }
        if let Index::Dense(dense) = &mut self.index {
            if let Some((data, nulls)) = int.filter(|(data, nulls)| dense.cover(data, nulls)) {
                let base = dense.len;
                // Sized, like the hashed path's, for every row to bring a key.
                let mut brought_by = Vec::with_capacity(rows);
                // A row whose first cell is held holds that cell's key, or
                // the batch is numbered by hash.
                let held = &self.keys;
                let same =
                    |id: u32, row: usize, brought_by: &[u32]| match id.checked_sub(base as u32) {
                        Some(new) => {
                            let from = brought_by[new as usize] as usize;
                            keys[1..].iter().all(|key| key.eq_cells(from, key, row))
                        }
                        None => rest_equal(held, id as usize, keys, row),
                    };
                if let Some(ids) = dense.insert_all(data, nulls, &mut brought_by, same)? {
                    for (held, key) in self.keys.iter_mut().zip(keys) {
                        held.extend_from(key, brought_by.iter().copied());
                    }
                    #[cfg(debug_assertions)]
                    self.check_dense(keys, base, &ids);
                    return Ok(ids);
                }
            }
            self.convert(rows)?;
        }
        self.insert_hashed(keys, rows)
    }

    /// Re-index a dense table's keys by hash, in key-number order, so each
    /// key keeps its number; `rows` more are on their way.
    fn convert(&mut self, rows: usize) -> Result<()> {
        let mut index = KeyIndex::with_capacity(self.len() + rows);
        for hash in hash_keys(&self.keys, self.len()) {
            index.insert(hash)?;
        }
        self.index = Index::Hashed(index);
        Ok(())
    }

    /// [`insert_all`](Self::insert_all) through the hashed index. The keys
    /// this batch adds are compared where they lie — in `keys`, at the row
    /// that brought them.
    fn insert_hashed(&mut self, keys: &[Arc<Column>], rows: usize) -> Result<Vec<u32>> {
        let Index::Hashed(index) = &mut self.index else {
            unreachable!("a table past its first batch that is not dense is hashed");
        };
        let same = |held: &Column, id: usize, key: &Column, row: usize| held.eq_cells(id, key, row);
        let base = index.len();
        // Sized, like the index, for every row to bring a key.
        let mut brought_by: Vec<u32> = Vec::with_capacity(rows);
        let mut ids = Vec::with_capacity(rows);
        for (row, hash) in hash_keys(keys, rows).into_iter().enumerate() {
            let known = index
                .candidates(hash)
                .find(|&id| match id.checked_sub(base) {
                    Some(new) => {
                        let from = brought_by[new] as usize;
                        keys.iter().all(|key| same(key, from, key, row))
                    }
                    None => {
                        (self.keys.iter().zip(keys)).all(|(held, key)| same(held, id, key, row))
                    }
                });
            ids.push(match known {
                Some(id) => id as u32,
                None => {
                    brought_by.push(row as u32);
                    index.insert(hash)?
                }
            });
        }
        for (held, key) in self.keys.iter_mut().zip(keys) {
            held.extend_from(key, brought_by.iter().copied());
        }
        Ok(ids)
    }

    /// Debug check of a dense batch, which allocates nothing: every held
    /// key's first cell addresses that key's own slot, so the held keys
    /// are distinct; every row holds, cell for cell, the key `ids` gives
    /// it; and the keys the batch added were numbered from `base` up as
    /// they were first seen.
    #[cfg(debug_assertions)]
    fn check_dense(&self, keys: &[Arc<Column>], base: usize, ids: &[u32]) {
        let Index::Dense(dense) = &self.index else {
            unreachable!("a dense batch leaves the table dense");
        };
        for k in 0..self.len() {
            assert_eq!(
                dense.find(&self.keys[0], k),
                k as u32,
                "held key {k} repeats"
            );
        }
        for (row, &id) in ids.iter().enumerate() {
            let holds = (self.keys.iter().zip(keys))
                .all(|(held, key)| held.eq_cells(id as usize, key, row));
            assert!(holds, "row {row} numbered as another key");
        }
        let mut next = base as u32;
        for &id in ids.iter().filter(|&&id| id >= base as u32) {
            assert!(id <= next, "key {id} numbered before key {next}");
            next += u32::from(id == next);
        }
        assert_eq!(next as usize, self.len(), "every key added is numbered");
    }

    /// The distinct keys, a column per key cell, in key-number order.
    pub fn into_keys(self) -> Vec<Arc<Column>> {
        self.keys.into_iter().map(Arc::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, Block, Row, Value};
    use std::hash::Hash;

    /// The hash of one key, cell by cell through `Value`'s `Hash`: what
    /// [`hash_keys`] must equal.
    fn hash_key<'a>(cells: impl IntoIterator<Item = &'a Value>) -> u64 {
        let mut hasher = seeded();
        for cell in cells {
            cell.hash(&mut hasher);
        }
        hasher.finish()
    }

    fn h(values: &[Value]) -> u64 {
        hash_key(values)
    }

    #[test]
    fn hash_agrees_with_value_equality() {
        assert_eq!(h(&[Value::Int(2)]), h(&[Value::Float(2.0)]));
        assert_eq!(h(&[Value::Float(-0.0)]), h(&[Value::Float(0.0)]));
        assert_eq!(h(&[Value::Int(0)]), h(&[Value::Float(-0.0)]));
        assert_eq!(
            h(&[Value::Float(f64::NAN)]),
            h(&[Value::Float(-f64::NAN)]),
            "NaN is canonical"
        );
        assert_eq!(h(&[Value::Text("ab".into())]), h(&[Value::from("ab")]));
        assert_eq!(
            h(&[Value::Int(1), Value::Text("x".into()), Value::Null]),
            h(&[Value::Float(1.0), Value::from("x"), Value::Null]),
        );
        // Not required for correctness, but a hash that ignored position,
        // text length or the cell boundary would degrade every index.
        let distinct = [
            h(&[Value::Int(1), Value::Int(2)]),
            h(&[Value::Int(2), Value::Int(1)]),
            h(&[Value::Text("abcdefgh".into())]),
            h(&[Value::Text("abcdefgh\0".into())]),
            h(&[Value::Text("a".into()), Value::Text("b".into())]),
            h(&[Value::Text("ab".into()), Value::Text(String::new())]),
            h(&[Value::Null]),
            h(&[Value::Bool(false)]),
            h(&[Value::Int(0)]),
        ];
        for (i, a) in distinct.iter().enumerate() {
            assert!(distinct[..i].iter().all(|b| a != b), "collision at {i}");
        }
    }

    /// The key columns of `rows`, a column per cell.
    fn columns(width: usize, rows: &[Row]) -> Vec<Arc<Column>> {
        Block::from_rows(width, rows.iter().cloned())
            .columns()
            .to_vec()
    }

    #[test]
    fn keys_hashed_by_column_equal_keys_hashed_by_cell() {
        let rows = [
            row_of([Value::Int(1), Value::Text("x".into()), Value::Null]),
            row_of([Value::Int(5), Value::Null, Value::Float(-0.0)]),
            row_of([
                Value::Int(1),
                Value::Text("x".into()),
                Value::Float(f64::NAN),
            ]),
        ];
        // An int column, a text column with a NULL, a float column.
        let keys = columns(3, &rows);
        let hashes = hash_keys(&keys, rows.len());
        for (row, hash) in rows.iter().zip(&hashes) {
            assert_eq!(*hash, hash_key(row.iter()));
        }
        // The same numbers in a FLOAT column hash as the INT column's do.
        let floats = [1.0, 5.0, 1.0].map(|x| row_of([Value::Float(x)]));
        assert_eq!(
            hash_keys(&columns(1, &floats), 3),
            hash_keys(&keys[..1], 3),
            "1 = 1.0"
        );
        assert_eq!(hash_keys(&keys[..1], 3)[0], hash_keys(&keys[..1], 3)[2]);
        assert_eq!(hash_keys::<Column>(&[], 2), vec![hash_key([]); 2]);
        assert!(!null_key(&keys, 2) && null_key(&keys, 0) && null_key(&keys[..2], 1));
    }

    #[test]
    fn index_chains_are_most_recent_first_through_growth_and_collisions() {
        // Hashes that all land in bucket 0 of the smallest array (8 buckets)
        // and stay there however often it doubles: every entry collides,
        // and growth never separates them either.
        let mut index = KeyIndex::with_capacity(0);
        let colliding = |i: u64| (i % 3) << 40;
        for i in 0..100u64 {
            assert_eq!(index.insert(colliding(i)).unwrap(), i as u32);
        }
        assert!(index.heads.len() >= 100, "the bucket array grew");
        assert_eq!(index.len(), 100);
        for residue in 0..3u64 {
            let got: Vec<usize> = index.candidates(residue << 40).collect();
            let want: Vec<usize> = (0..100usize)
                .rev()
                .filter(|i| *i as u64 % 3 == residue)
                .collect();
            assert_eq!(got, want);
        }
        assert_eq!(index.candidates(7 << 40).count(), 0);
        // Spread hashes: each found exactly once after several doublings.
        let mut index = KeyIndex::with_capacity(0);
        for i in 0..1000u64 {
            index.insert(i.wrapping_mul(MULTIPLIER)).unwrap();
        }
        for i in 0..1000u64 {
            let found: Vec<usize> = index.candidates(i.wrapping_mul(MULTIPLIER)).collect();
            assert_eq!(found, vec![i as usize]);
        }
    }

    #[test]
    fn entry_ids_stop_at_the_u32_space_with_a_typed_error() {
        assert_eq!(next_entry_id(0).unwrap(), 0);
        assert_eq!(next_entry_id(u32::MAX as usize - 1).unwrap(), u32::MAX - 1);
        for len in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            assert!(matches!(
                next_entry_id(len),
                Err(Error::ResourceExhausted { .. })
            ));
        }
    }

    #[test]
    fn join_table_matches_are_each_keys_rows_in_build_order_never_null_keyed() {
        let (a, b) = (|| Value::Text("a".into()), || Value::Text("b".into()));
        let pairs = [
            (Value::Int(1), a()),
            (Value::Null, a()),
            (Value::Int(1), a()),
            (Value::Int(1), b()),
            (Value::Int(1), Value::Null),
            (Value::Int(2), b()),
            (Value::Int(1), a()),
            (Value::Int(1), Value::Null),
            (Value::Int(2), b()),
        ];
        let rows: Vec<Row> = pairs.into_iter().map(|(x, y)| row_of([x, y])).collect();
        let table = JoinTable::build(columns(2, &rows), rows.len()).unwrap();
        assert_eq!(table.rows.len(), 6, "three rows have a NULL in their key");
        // An int key column on the build side probed with a float one, and
        // probes holding a NULL, which the table would answer too.
        let probe = [
            (Value::Float(1.0), a()),
            (Value::Float(1.0), b()),
            (Value::Float(2.0), b()),
            (Value::Float(1.5), a()),
            (Value::Float(2.0), a()),
            (Value::Float(1.0), Value::Null),
            (Value::Null, a()),
        ];
        let probe: Vec<Row> = probe.into_iter().map(|(x, y)| row_of([x, y])).collect();
        let probe = columns(2, &probe);
        let found = table.find_all(&probe, 7);
        let matched: Vec<&[u32]> = found.iter().map(|&id| table.group_of(id)).collect();
        let none: &[u32] = &[];
        assert_eq!(
            matched,
            [&[0, 2, 6][..], &[3], &[5, 8], none, none, none, none]
        );
        // Keyed by the int column alone, which is dense: the float probes
        // find their integers exactly, 1.5 and NULL nothing.
        let table = JoinTable::build(columns(2, &rows)[..1].to_vec(), rows.len()).unwrap();
        assert!(matches!(table.keys.index, Index::Dense(_)));
        let found = table.find_all(&probe[..1], 7);
        let matched: Vec<&[u32]> = found.iter().map(|&id| table.group_of(id)).collect();
        let (ones, twos) = (&[0, 2, 3, 4, 6, 7][..], &[5, 8][..]);
        assert_eq!(matched, [ones, ones, twos, none, twos, ones, none]);
        assert!(JoinTable::build(Vec::new(), 0).is_ok());
        // Keyed by both columns where each first cell holds one key: dense,
        // the second cell confirmed. `(1, b)` and `(2, a)` share a build
        // key's first cell but not its second.
        let pairs = [
            (Value::Int(1), a()),
            (Value::Int(2), b()),
            (Value::Null, a()),
            (Value::Int(1), a()),
            (Value::Int(3), Value::Null),
        ];
        let rows: Vec<Row> = pairs.into_iter().map(|(x, y)| row_of([x, y])).collect();
        let table = JoinTable::build(columns(2, &rows), rows.len()).unwrap();
        assert!(matches!(table.keys.index, Index::Dense(_)));
        let probe = [
            (Value::Int(1), b()),
            (Value::Int(1), a()),
            (Value::Int(2), a()),
            (Value::Int(2), b()),
            (Value::Int(3), Value::Null),
            (Value::Null, a()),
            (Value::Int(4), a()),
        ];
        let probe: Vec<Row> = probe.into_iter().map(|(x, y)| row_of([x, y])).collect();
        let found = table.find_all(&columns(2, &probe), 7);
        let matched: Vec<&[u32]> = found.iter().map(|&id| table.group_of(id)).collect();
        assert_eq!(matched, [none, &[0, 3], none, &[1], none, none, none]);
    }

    /// Which index a table picked, or was converted to.
    fn picked(table: &KeyTable) -> &'static str {
        match table.index {
            Index::Unpicked(_) => "unpicked",
            Index::Dense(_) => "dense",
            Index::Hashed(_) => "hashed",
        }
    }

    /// Insert `batches` into a table that picks its index and into one that
    /// stays hashed, then look `probes` up in both: every key number, `len`
    /// and `into_keys` agree, and so does a [`JoinTable`] over each batch —
    /// its slices and what each probe finds. A batch or probe is a column
    /// per key cell. Returns the index the picking table ended with.
    fn same_as_hashed(batches: &[Vec<Column>], probes: &[Vec<Column>]) -> &'static str {
        let key = |columns: &[Column]| -> Vec<Arc<Column>> {
            columns.iter().cloned().map(Arc::new).collect()
        };
        let width = batches[0].len();
        let (mut table, mut hashed) = (KeyTable::new(width, 0), KeyTable::hashed(width, 0));
        for batch in batches.iter().map(|batch| key(batch)) {
            let rows = batch[0].len();
            let ids = table.insert_all(&batch, rows).unwrap();
            assert_eq!(ids, hashed.insert_all(&batch, rows).unwrap(), "{batch:?}");
            assert_eq!(table.len(), hashed.len());
            let join = JoinTable::build(batch.clone(), rows).unwrap();
            let reference = KeyTable::hashed(width, rows);
            let reference = JoinTable::build_on(reference, batch.clone(), rows).unwrap();
            assert_eq!(
                (&join.starts, &join.rows),
                (&reference.starts, &reference.rows)
            );
            assert_eq!(
                format!("{:?}", join.keys.keys),
                format!("{:?}", reference.keys.keys)
            );
            for probe in probes.iter().map(|probe| key(probe)) {
                let found = join.find_all(&probe, probe[0].len());
                assert_eq!(
                    found,
                    reference.find_all(&probe, probe[0].len()),
                    "{probe:?}"
                );
                let slices = |join: &JoinTable, found: &[u32]| {
                    let groups = found.iter().map(|&id| join.group_of(id).to_vec());
                    groups.collect::<Vec<_>>()
                };
                assert_eq!(slices(&join, &found), slices(&reference, &found));
            }
        }
        for probe in probes.iter().map(|probe| key(probe)) {
            let found = table.find_all(&probe, probe[0].len());
            assert_eq!(found, hashed.find_all(&probe, probe[0].len()), "{probe:?}");
        }
        let index = picked(&table);
        let kept = |table: KeyTable| format!("{:?}", table.into_keys());
        assert_eq!(kept(table), kept(hashed));
        index
    }

    /// FLOAT, BOOL, TEXT and NULL probes beside the INT probe `ints`: each
    /// int as a float, and a half past it, and the floats a cast could
    /// get wrong.
    fn probes_beside(ints: &[Option<i64>]) -> Vec<Vec<Column>> {
        let exact = EXACT_INTS as f64;
        let special = [
            2.0,
            2.5,
            -0.0,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
        ];
        let special = special
            .into_iter()
            .chain([exact, -exact, exact - 1.0, 1e300])
            .map(Some);
        let floats = (ints.iter()).flat_map(|x| [x.map(|x| x as f64), x.map(|x| x as f64 + 0.5)]);
        let floats = Column::from_floats(special.chain(floats).chain([None]));
        let bools = Block::from_rows(
            1,
            [Value::Bool(true), Value::Bool(false), Value::Null].map(|v| row_of([v])),
        );
        let texts = Block::from_rows(
            1,
            [Value::from("1"), Value::from(""), Value::Null].map(|v| row_of([v])),
        );
        let nulls = Column::from_ints([None, None]);
        let (bools, texts) = ((*bools.columns()[0]).clone(), (*texts.columns()[0]).clone());
        let probes = [
            Column::from_ints(ints.iter().copied()),
            floats,
            bools,
            texts,
            nulls,
        ];
        probes.into_iter().map(|probe| vec![probe]).collect()
    }

    /// A key of `width` (2 or 3) columns: the INT first cells `ints`, then
    /// FLOAT and TEXT cells that each row's first cell and its salt pick —
    /// NULL, `±0.0` and NaN among them. Under one salt a first cell has one
    /// key; under another it may have another, or an equal one whose
    /// FLOAT cell is `-0.0` where it was `0.0`.
    fn composite(width: usize, ints: &[Option<i64>], salt: impl Fn(usize) -> u64) -> Vec<Column> {
        let floats = [None, Some(0.0), Some(-0.0), Some(f64::NAN), Some(1.5)];
        let texts = [Value::Null, Value::from("a"), Value::from("b")];
        let pick = |row: usize| {
            let first = ints[row].map_or(11, |key| key.unsigned_abs() % 1000);
            (first * 7 + salt(row) * 3) as usize
        };
        let rows = 0..ints.len();
        let mut key = vec![
            Column::from_ints(ints.iter().copied()),
            Column::from_floats(rows.clone().map(|row| floats[pick(row) % 5])),
        ];
        if width == 3 {
            let mut text = Column::new();
            rows.for_each(|row| text.push(texts[pick(row) / 5 % 3].clone()));
            key.push(text);
        }
        key
    }

    #[test]
    fn dense_tables_grow_in_range_and_convert_out_of_it() {
        let ints = |keys: &[Option<i64>]| vec![Column::from_ints(keys.iter().copied())];
        let range = |keys: std::ops::RangeInclusive<i64>| keys.map(Some).collect::<Vec<_>>();
        let probe = [range(-10..=30), vec![Some(1_000_000), None, Some(i64::MIN)]].concat();
        let probes = probes_beside(&probe);
        let (in_range, above, below) = (range(1..=10), range(11..=20), range(-5..=-3));
        assert_eq!(same_as_hashed(&[ints(&in_range)], &probes), "dense");
        let grown = [
            ints(&in_range),
            ints(&above),
            ints(&below),
            ints(&[None, Some(2)]),
        ];
        assert_eq!(same_as_hashed(&grown, &probes), "dense");
        let far = [ints(&in_range), ints(&[Some(1_000_000)]), ints(&above)];
        assert_eq!(same_as_hashed(&far, &probes), "hashed");
        let past_exact = [ints(&[Some(EXACT_INTS - 1)]), ints(&[Some(EXACT_INTS)])];
        assert_eq!(same_as_hashed(&past_exact, &probes), "hashed");
        // An all-NULL batch picks an empty dense table; a FLOAT batch after
        // it converts it.
        let floats = vec![Column::from_floats([Some(2.0), None, Some(-0.0)])];
        assert_eq!(
            same_as_hashed(&[ints(&[None, None]), floats], &probes),
            "hashed"
        );
        assert_eq!(
            same_as_hashed(&[ints(&[]), ints(&[None])], &probes),
            "dense"
        );
        assert_eq!(
            same_as_hashed(&[ints(&[Some(i64::MIN), Some(i64::MAX)])], &probes),
            "hashed"
        );
    }

    /// Keys near where the dense rule changes its answer: small ones, the
    /// neighbours of `±2^53`, and the ends of the INT range.
    const CENTERS: [i64; 10] = [
        0,
        5,
        100,
        -100,
        1000,
        -1000,
        EXACT_INTS - 4,
        4 - EXACT_INTS,
        i64::MIN,
        i64::MAX,
    ];

    /// Batches of INT keys around one of [`CENTERS`] each — mostly the
    /// same one, so that a table stays in range or grows as often as it
    /// converts — spread narrowly (dense), a little (dense, or grown) or
    /// widely (hashed), with NULLs.
    fn key_batches() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Option<i64>>>> {
        use proptest::prelude::*;
        let batch = move |first: usize| {
            (0usize..3, 0..CENTERS.len(), 0usize..4, 0usize..40).prop_flat_map(
                move |(same, other, spread, rows): (usize, usize, usize, usize)| {
                    let center = CENTERS[if same == 0 { other } else { first }];
                    let spread = [4i64, 16, 40, 1 << 40][spread];
                    // One key in nine is NULL.
                    let key = (0..9, -spread..=spread)
                        .prop_map(move |(n, d)| (n != 0).then(|| center.saturating_add(d)));
                    proptest::collection::vec(key, rows)
                },
            )
        };
        (0..CENTERS.len()).prop_flat_map(move |first| proptest::collection::vec(batch(first), 1..4))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A table that picks its index numbers, keeps and finds keys as
        /// one that stays hashed does, through growth and conversion — keys
        /// of one INT column, and of two or three whose INT first cell
        /// repeats with other cells within a batch (mode 3, a salt per row)
        /// or across batches (mode 2 after mode 0 or 1).
        #[test]
        fn dense_key_table_equals_the_hashed_table(
            batches in key_batches(),
            probe in key_batches(),
            width in 1usize..4,
            modes in proptest::collection::vec(0u64..4, 3),
            salts in proptest::collection::vec(0u64..4, 40),
        ) {
            let probe = probe.concat();
            let salts = &salts;
            let salted = |mode: u64| move |row: usize| match mode {
                0 | 1 => 0,
                2 => 1,
                _ => salts[row % salts.len()],
            };
            let batches: Vec<Vec<Column>> = match width {
                1 => (batches.iter()).map(|b| vec![Column::from_ints(b.iter().copied())]).collect(),
                _ => (batches.iter().zip(&modes)).map(|(b, &mode)| composite(width, b, salted(mode))).collect(),
            };
            let probes = match width {
                1 => probes_beside(&probe),
                _ => {
                    let mut probes: Vec<Vec<Column>> = (0..4).map(|mode| composite(width, &probe, salted(mode))).collect();
                    // The first cells as FLOATs, and as NULLs.
                    let mut floats = composite(width, &probe, salted(0));
                    floats[0] = Column::from_floats(probe.iter().map(|key| key.map(|key| key as f64 + 0.0)));
                    let mut nulls = composite(width, &probe, salted(0));
                    nulls[0] = Column::from_ints(probe.iter().map(|_| None));
                    probes.extend([floats, nulls]);
                    probes
                }
            };
            same_as_hashed(&batches, &probes);
        }
    }

    #[test]
    fn key_table_numbers_distinct_keys_in_first_seen_order() {
        let rows = [
            row_of([Value::Int(1), Value::Null]),
            row_of([Value::Int(2), Value::Null]),
            row_of([Value::Int(1), Value::Null]),
        ];
        let keys = columns(2, &rows);
        let mut seen = KeyTable::new(2, 0);
        // NULL groups with NULL.
        assert_eq!(seen.insert_all(&keys, 3).unwrap(), [0, 1, 0]);
        assert_eq!(seen.len(), 2);
        // Found by a FLOAT key: 2.0 = 2.
        let floats = columns(2, &[row_of([Value::Float(2.0), Value::Null])]);
        assert_eq!(seen.find_all(&floats, 1), [1]);
        // A second batch: keys the table holds, a new one twice, a held one.
        let more = [
            row_of([Value::Int(2), Value::Null]),
            row_of([Value::Int(3), Value::Null]),
            row_of([Value::Int(3), Value::Null]),
            row_of([Value::Int(1), Value::Null]),
        ];
        let other = columns(2, &more);
        assert_eq!(seen.find_all(&other, 4), [1, NIL, NIL, 0]);
        assert_eq!(seen.insert_all(&other, 4).unwrap(), [1, 2, 2, 0]);
        // The table's own copy of each key: the first-seen cells, as they were.
        let held = Block::new(seen.into_keys(), 3).to_rows();
        let first_seen = [&rows[0], &rows[1], &more[1]];
        assert_eq!(format!("{held:?}"), format!("{first_seen:?}"));
        // Keyed by one column, the other cells do not take part.
        let mut by_second = KeyTable::new(1, 2);
        assert_eq!(by_second.insert_all(&keys[1..], 3).unwrap(), [0, 0, 0]);
    }
}
