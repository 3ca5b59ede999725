//! Keys: hashing them, and indexing rows by them.
//!
//! Every operator that groups or matches rows by key — hash join, the
//! three aggregation phases, `DISTINCT`, the set operations, the loop's
//! merge, delta diff and dedup set — does it through this module, a
//! column at a time:
//!
//! * [`hash_keys`] hashes the key of every row of a block from the key's
//!   columns. It feeds each cell through [`Value`](spinner_common::Value)'s
//!   own `Hash` rule into a cheap multiply-rotate hasher, so it agrees
//!   with `Value`'s `Eq` by construction: `2` and `2.0`, `0.0` and `-0.0`, and any two
//!   NaNs hash alike; NULL hashes like any value and it is the *caller*
//!   that decides whether a NULL key takes part (joins skip it,
//!   `GROUP BY` groups it).
//! * [`KeyIndex`] is a chained hash index over `u32` entry ids —
//!   `heads`/`next`/`hashes` arrays, nothing per key. It stores no keys:
//!   its user, [`KeyTable`], keeps them in columns and confirms a
//!   candidate with [`Column::eq_cells`].
//! * [`KeyTable`] numbers distinct keys in first-seen order and keeps one
//!   copy of each, in columns of its own.
//! * [`JoinTable`] is a join's build side on top of a [`KeyTable`]: each
//!   distinct key once, and its rows laid end to end, so a probe is one
//!   chain walk over distinct keys, one key comparison and a slice.
//!
//! **What the hash decides, and what it does not.** It picks a bucket
//! inside one partition's index and nothing else. Which *partition* a row
//! belongs to is still `spinner_storage::placement` (SipHash), because
//! stored tables, checkpoints and resumed loops were placed with it. No
//! output order depends on the hash either: keys are numbered in
//! first-seen order by their entry id, and a join build counting-sorts
//! its row numbers by key number, which keeps each key's rows in
//! build-row order. The hasher is seeded once per process, so bucket
//! collisions cannot be prepared from outside; equal full hashes are
//! always confirmed by comparing keys.

use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

use spinner_common::{Column, Error, Result};

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
pub fn hash_keys(keys: &[Arc<Column>], rows: usize) -> Vec<u64> {
    let mut hashers = vec![seeded(); rows];
    for key in keys {
        key.hash_into(&mut hashers);
    }
    hashers.into_iter().map(|hasher| hasher.finish()).collect()
}

/// Whether any cell of row `row`'s key is NULL.
pub fn null_key(keys: &[Arc<Column>], row: usize) -> bool {
    keys.iter().any(|key| key.is_null(row))
}

const NIL: u32 = u32::MAX;

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
/// order. See the module docs for what it stores and guarantees.
#[derive(Debug)]
pub struct KeyIndex {
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
    pub fn with_capacity(entries: usize) -> Self {
        KeyIndex {
            heads: vec![NIL; entries.max(8).next_power_of_two()],
            next: Vec::with_capacity(entries),
            hashes: Vec::with_capacity(entries),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Add an entry with `hash` at the front of its chain and return its
    /// id (the number of entries before it).
    pub fn insert(&mut self, hash: u64) -> Result<usize> {
        let id = next_entry_id(self.len())?;
        if self.len() >= self.heads.len() {
            self.grow();
        }
        let bucket = self.bucket(hash);
        self.next.push(self.heads[bucket]);
        self.hashes.push(hash);
        self.heads[bucket] = id;
        Ok(id as usize)
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
    pub fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
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
        // Every row index fits an entry id, so `row as u32` below is exact.
        next_entry_id(rows)?;
        let mut table = KeyTable::new(keys.len(), rows);
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

    /// Key `k`'s rows, in build-row order.
    fn group(&self, k: usize) -> &[u32] {
        &self.rows[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// Every key's rows ascend and hold that key, and none holds a NULL.
    #[cfg(debug_assertions)]
    fn check(&self, keys: &[Arc<Column>]) {
        for k in 0..self.keys.len() {
            let group = self.group(k);
            let holds = |&row: &u32| {
                let (row, mut cells) = (row as usize, self.keys.keys.iter().zip(keys));
                !null_key(keys, row) && cells.all(|(held, key)| held.eq_cells(k, key, row))
            };
            let ascending = group.windows(2).all(|pair| pair[0] < pair[1]);
            assert!(ascending && group.iter().all(holds), "key {k}: {group:?}");
        }
    }

    /// Build rows whose key equals the key of row `row` of `probe` (which
    /// hashes to `hash`), in build-row order.
    pub fn matches(&self, probe: &[Arc<Column>], row: usize, hash: u64) -> &[u32] {
        match self.keys.find(probe, row, hash) {
            Some(k) => self.group(k),
            None => &[],
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
    index: KeyIndex,
    keys: Vec<Column>,
}

impl KeyTable {
    /// An empty table for keys of `width` cells, sized for `keys` of them.
    pub fn new(width: usize, keys: usize) -> Self {
        KeyTable {
            index: KeyIndex::with_capacity(keys),
            keys: vec![Column::new(); width],
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The number of the key held in row `row` of `keys` (which hashes to
    /// `hash`), if the table has it.
    pub fn find(&self, keys: &[Arc<Column>], row: usize, hash: u64) -> Option<usize> {
        self.index.candidates(hash).find(|&id| {
            let pairs = self.keys.iter().zip(keys);
            pairs
                .into_iter()
                .all(|(held, key)| held.eq_cells(id, key, row))
        })
    }

    /// The key number of every row of `keys`, in order; a key the table
    /// lacks is added under the next number. The keys this batch adds are compared where
    /// they lie — in `keys`, at the row that brought them — and copied
    /// into the table once, a column at a time, when the batch is done.
    pub fn insert_all(&mut self, keys: &[Arc<Column>], rows: usize) -> Result<Vec<u32>> {
        let same = |held: &Column, id: usize, key: &Column, row: usize| held.eq_cells(id, key, row);
        let base = self.len();
        let mut brought_by: Vec<u32> = Vec::new();
        let mut ids = Vec::with_capacity(rows);
        for (row, hash) in hash_keys(keys, rows).into_iter().enumerate() {
            let known = self
                .index
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
                    self.index.insert(hash)? as u32
                }
            });
        }
        for (held, key) in self.keys.iter_mut().zip(keys) {
            held.extend_from(key, brought_by.iter().copied());
        }
        Ok(ids)
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
                Value::Float(1.0),
                Value::Text("x".into()),
                Value::Bool(true),
            ]),
        ];
        // An int column, a text column with a NULL, a column that disagrees.
        let keys = columns(3, &rows);
        assert!(matches!(&*keys[2], Column::Mixed(_)));
        let hashes = hash_keys(&keys, rows.len());
        for (row, hash) in rows.iter().zip(&hashes) {
            assert_eq!(*hash, hash_key(row.iter()));
        }
        assert_eq!(
            hash_keys(&keys[..1], 3)[0],
            hash_keys(&keys[..1], 3)[2],
            "1 = 1.0"
        );
        assert_eq!(hash_keys(&[], 2), vec![hash_key([]); 2]);
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
            assert_eq!(index.insert(colliding(i)).unwrap(), i as usize);
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
            (Value::Float(1.0), a()),
            (Value::Int(1), b()),
            (Value::Int(1), Value::Null),
            (Value::Int(2), b()),
            (Value::Int(1), a()),
            (Value::Int(1), Value::Null),
            (Value::Float(2.0), b()),
        ];
        let rows: Vec<Row> = pairs.into_iter().map(|(x, y)| row_of([x, y])).collect();
        let table = JoinTable::build(columns(2, &rows), rows.len()).unwrap();
        assert_eq!(table.rows.len(), 6, "three rows have a NULL in their key");
        // An int key column on the build side probed with a float one, and
        // probes holding a NULL, which the table would answer too.
        let probe = [
            (Value::Float(1.0), a()),
            (Value::Int(1), b()),
            (Value::Float(2.0), b()),
            (Value::Float(1.5), a()),
            (Value::Int(2), a()),
            (Value::Int(1), Value::Null),
            (Value::Null, a()),
        ];
        let probe: Vec<Row> = probe.into_iter().map(|(x, y)| row_of([x, y])).collect();
        let probe = columns(2, &probe);
        let hashes = hash_keys(&probe, 7);
        let matched: Vec<&[u32]> = (0..7)
            .map(|row| table.matches(&probe, row, hashes[row]))
            .collect();
        let none: &[u32] = &[];
        assert_eq!(
            matched,
            [&[0, 2, 6][..], &[3], &[5, 8], none, none, none, none]
        );
        assert!(JoinTable::build(Vec::new(), 0).is_ok());
    }

    #[test]
    fn key_table_numbers_distinct_keys_in_first_seen_order() {
        let rows = [
            row_of([Value::Int(1), Value::Null]),
            row_of([Value::Int(2), Value::Null]),
            row_of([Value::Float(1.0), Value::Null]),
        ];
        let keys = columns(2, &rows);
        let mut seen = KeyTable::new(2, 0);
        // 1.0 = 1, NULL groups with NULL.
        assert_eq!(seen.insert_all(&keys, 3).unwrap(), [0, 1, 0]);
        assert_eq!(seen.len(), 2);
        let hashes = hash_keys(&keys, 3);
        assert_eq!(seen.find(&keys, 1, hashes[1]), Some(1));
        // A second batch: keys the table holds, a new one twice, a held one.
        let more = [
            row_of([Value::Float(2.0), Value::Null]),
            row_of([Value::Int(3), Value::Null]),
            row_of([Value::Float(3.0), Value::Null]),
            row_of([Value::Int(1), Value::Null]),
        ];
        let other = columns(2, &more);
        assert_eq!(seen.find(&other, 1, hash_keys(&other, 4)[1]), None);
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
