//! Keys: evaluating them, hashing them, and indexing rows by them.
//!
//! Every operator that groups or matches rows by key — hash join, the
//! three aggregation phases, `DISTINCT`, the set operations, the loop's
//! merge and delta diff — does it through this module, and none of them
//! allocates per row to do so:
//!
//! * [`load_key`] evaluates key expressions into a buffer the caller
//!   reuses from row to row. A column key is read in place (a
//!   `Cow::Borrowed` of the row's cell); only a computed key owns a value.
//! * [`hash_key`] is the one in-partition hash. It feeds
//!   [`Value`]'s own `Hash` impl into a cheap multiply-rotate hasher, so
//!   it agrees with `Value`'s `Eq` by construction: `2` and `2.0`, `0.0`
//!   and `-0.0`, and any two NaNs hash alike; NULL hashes like any value
//!   and it is the *caller* that decides whether a NULL key takes part
//!   (joins skip it, `GROUP BY` groups it).
//! * [`KeyIndex`] is a chained hash index over `u32` entry ids —
//!   `heads`/`next`/`hashes` arrays, nothing per key. It stores no keys:
//!   the caller keeps them wherever they already live (the build rows, a
//!   flat group-key vector) and confirms a candidate itself.
//!
//! **What the hash decides, and what it does not.** It picks a bucket
//! inside one partition's index and nothing else. Which *partition* a row
//! belongs to is still `spinner_storage::partition_of` (SipHash), because
//! stored tables, checkpoints and resumed loops were placed with it. No
//! output order depends on the hash either: a chain yields its entries
//! most recent first, so a join build inserted in reverse returns
//! candidates in build-row order, and groups are numbered in first-seen
//! order by their entry id. The hasher is seeded once per process, so
//! bucket collisions cannot be prepared from outside; equal full hashes
//! are always confirmed by comparing keys.

use std::borrow::Cow;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use spinner_common::{Error, Result, Row, Value};
use spinner_plan::PlanExpr;

/// A key under evaluation: one cell per key expression, borrowed from the
/// row (or the plan's literal) where possible.
pub type Key<'a> = Vec<Cow<'a, Value>>;

/// Evaluate `exprs` against `row` into `key`, replacing its contents.
pub fn load_key<'a>(key: &mut Key<'a>, exprs: &'a [PlanExpr], row: &'a [Value]) -> Result<()> {
    key.clear();
    for e in exprs {
        key.push(e.evaluate_ref(row)?);
    }
    Ok(())
}

/// The cells of a loaded key, as [`hash_key`] and comparisons take them.
pub fn cells<'k>(key: &'k [Cow<'_, Value>]) -> impl Iterator<Item = &'k Value> + Clone {
    key.iter().map(|cell| &**cell)
}

/// Whether `exprs` evaluated against `row` equal `key`, cell by cell
/// under `Value`'s `Eq`. Confirms a join candidate against its build row
/// without materializing the build side's key.
pub fn key_matches(exprs: &[PlanExpr], row: &[Value], key: &[Cow<'_, Value>]) -> Result<bool> {
    for (e, cell) in exprs.iter().zip(key) {
        if *e.evaluate_ref(row)? != **cell {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Multiply-rotate hasher (the Fx construction) with an avalanche at the
/// end, because [`KeyIndex`] takes its bucket from the low bits.
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

/// Hash of a key's cells: equal keys (under `Value`'s `Eq`) hash equal.
pub fn hash_key<'a>(cells: impl IntoIterator<Item = &'a Value>) -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u8));
    let mut hasher = KeyHasher(seed);
    for cell in cells {
        cell.hash(&mut hasher);
    }
    hasher.finish()
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

/// A hash-join build side: the rows of one partition with a non-NULL key,
/// indexed by that key. Read-only once built, so a cached build is shared
/// across iterations and pool workers as it is.
#[derive(Debug)]
pub struct JoinTable {
    index: KeyIndex,
    /// Entry → index of its row in the build partition.
    rows: Vec<u32>,
}

impl JoinTable {
    /// Index `rows` by `keys`. Rows with a NULL in their key are left
    /// out: they can never match.
    pub fn build(rows: &[Row], keys: &[PlanExpr]) -> Result<JoinTable> {
        // Every row index fits an entry id, so `i as u32` below is exact.
        next_entry_id(rows.len())?;
        let mut key = Key::new();
        let mut keyed: Vec<(u32, u64)> = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            load_key(&mut key, keys, row)?;
            if !key.iter().any(|cell| cell.is_null()) {
                keyed.push((i as u32, hash_key(cells(&key))));
            }
        }
        // Keys are evaluated in row order (so the first failing row is the
        // one reported) and inserted in reverse: a chain yields its most
        // recent entry first, which makes candidates come back in
        // build-row order.
        let mut index = KeyIndex::with_capacity(keyed.len());
        let mut entry_rows = Vec::with_capacity(keyed.len());
        for &(row, hash) in keyed.iter().rev() {
            index.insert(hash)?;
            entry_rows.push(row);
        }
        Ok(JoinTable {
            index,
            rows: entry_rows,
        })
    }

    /// Build-row indices whose key hashes to `hash`, in build-row order.
    /// Confirm each with [`key_matches`].
    pub fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        self.index
            .candidates(hash)
            .map(|entry| self.rows[entry] as usize)
    }
}

/// Rows numbered in first-seen order of their key — the whole row
/// (`DISTINCT`, the set operations, a recursion's dedup set) or one
/// column of it (the loop's merge and delta diff). `R` is how a row is
/// held: borrowed from an input partition, or owned.
#[derive(Debug)]
pub struct RowIndex<R> {
    index: KeyIndex,
    rows: Vec<R>,
    column: Option<usize>,
}

impl<R: AsRef<[Value]>> RowIndex<R> {
    /// An empty index keyed by the whole row, sized for `rows` of them.
    pub fn by_row(rows: usize) -> Self {
        RowIndex {
            index: KeyIndex::with_capacity(rows),
            rows: Vec::with_capacity(rows),
            column: None,
        }
    }

    /// An empty index keyed by `column` alone.
    pub fn by_column(column: usize, rows: usize) -> Self {
        RowIndex {
            column: Some(column),
            ..Self::by_row(rows)
        }
    }

    fn key<'r>(&self, row: &'r [Value]) -> &'r [Value] {
        match self.column {
            Some(column) => std::slice::from_ref(&row[column]),
            None => row,
        }
    }

    fn position(&self, hash: u64, key: &[Value]) -> Option<usize> {
        self.index
            .candidates(hash)
            .find(|&id| self.key(self.rows[id].as_ref()) == key)
    }

    /// The number of the held row whose key equals `row`'s, if any.
    pub fn find(&self, row: &[Value]) -> Option<usize> {
        let key = self.key(row);
        self.position(hash_key(key), key)
    }

    /// The held row numbered `id`.
    pub fn get(&self, id: usize) -> &R {
        &self.rows[id]
    }

    /// The number of the held row whose key equals `row`'s; when there is
    /// none, `held()` is kept under the next number. The flag says
    /// whether it was new.
    pub fn insert(&mut self, row: &[Value], held: impl FnOnce() -> R) -> Result<(usize, bool)> {
        let key = self.key(row);
        let hash = hash_key(key);
        if let Some(id) = self.position(hash, key) {
            return Ok((id, false));
        }
        self.rows.push(held());
        Ok((self.index.insert(hash)?, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::row_of;

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

    #[test]
    fn load_key_borrows_columns_and_owns_computed_cells() {
        let exprs = vec![
            PlanExpr::column(1, "b"),
            PlanExpr::column(0, "a")
                .binary(spinner_plan::expr::BinaryOp::Plus, PlanExpr::literal(1i64)),
        ];
        let rows = [
            row_of([Value::Int(1), Value::Text("x".into())]),
            row_of([Value::Int(5), Value::Null]),
        ];
        let mut key = Key::new();
        load_key(&mut key, &exprs, &rows[0]).unwrap();
        assert!(matches!(&key[0], Cow::Borrowed(v) if std::ptr::eq(*v, &rows[0][1])));
        assert_eq!(key[1], Cow::Owned::<Value>(Value::Int(2)));
        assert!(key_matches(&exprs, &rows[0], &key).unwrap());
        assert!(!key_matches(&exprs, &rows[1], &key).unwrap());
        // The buffer is reused, not appended to.
        load_key(&mut key, &exprs, &rows[1]).unwrap();
        assert_eq!(key.len(), 2);
        assert!(key[0].is_null());
        assert!(load_key(&mut key, &[PlanExpr::column(7, "missing")], &rows[0]).is_err());
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
    fn join_table_returns_candidates_in_build_order_and_skips_null_keys() {
        let rows: Vec<Row> = [
            (Value::Int(1), Value::Text("a".into())),
            (Value::Null, Value::Text("a".into())),
            (Value::Float(1.0), Value::Text("a".into())),
            (Value::Int(1), Value::Text("b".into())),
            (Value::Int(1), Value::Null),
            (Value::Int(1), Value::Text("a".into())),
        ]
        .into_iter()
        .map(|(a, b)| row_of([a, b]))
        .collect();
        let keys = vec![PlanExpr::column(0, "a"), PlanExpr::column(1, "b")];
        let table = JoinTable::build(&rows, &keys).unwrap();
        assert_eq!(table.index.len(), 4, "two rows have a NULL in their key");
        let probe: Key = vec![
            Cow::Owned(Value::Float(1.0)),
            Cow::Owned(Value::Text("a".into())),
        ];
        let matched: Vec<usize> = table
            .candidates(hash_key(cells(&probe)))
            .filter(|&i| key_matches(&keys, &rows[i], &probe).unwrap())
            .collect();
        assert_eq!(matched, vec![0, 2, 5]);
    }

    #[test]
    fn row_index_numbers_distinct_rows_in_first_seen_order() {
        let rows = [
            row_of([Value::Int(1), Value::Null]),
            row_of([Value::Int(2), Value::Null]),
            row_of([Value::Float(1.0), Value::Null]),
        ];
        let mut seen: RowIndex<&Row> = RowIndex::by_row(0);
        assert_eq!(seen.insert(&rows[0], || &rows[0]).unwrap(), (0, true));
        assert_eq!(seen.insert(&rows[1], || &rows[1]).unwrap(), (1, true));
        assert_eq!(
            seen.insert(&rows[2], || unreachable!("1.0 = 1, NULL groups with NULL"))
                .unwrap(),
            (0, false)
        );
        assert_eq!(seen.find(&rows[1]), Some(1));
        assert_eq!(seen.find(&[Value::Int(3), Value::Null]), None);
        // Keyed by one column, the other cells do not take part.
        let mut by_second: RowIndex<&Row> = RowIndex::by_column(1, 2);
        assert_eq!(by_second.insert(&rows[0], || &rows[0]).unwrap(), (0, true));
        assert_eq!(by_second.insert(&rows[1], || &rows[1]).unwrap(), (0, false));
        assert!(std::ptr::eq(*by_second.get(0), &rows[0]));
    }
}
