//! The order of `ORDER BY`: which rows, in which order, a sort emits.
//!
//! The key columns are evaluated once by the caller; here each becomes a
//! [`SortColumn`], the form its comparisons take. A numeric or BOOL key is
//! normalized into one integer per row whose unsigned order *is* the
//! key's order — the NULL rank above the value, the value's bits made
//! order-preserving and inverted for `DESC` — so comparing two rows on it
//! compares two integers, not two [`Cell`](spinner_common::Cell)s. A TEXT
//! key compares its strings in place. Ties on every key break on the row
//! number, so the order
//! is the stable one whichever algorithm finds it, and a sort that only
//! its first `limit` rows are read from selects those before it sorts.

use std::cmp::Ordering;
use std::sync::Arc;

use spinner_common::{Column, Nulls};
use spinner_plan::SortKey;

/// The `rows` rows that `columns` (the evaluated `keys`, major first)
/// were evaluated over, in the order `keys` sort them — stable:
/// rows that tie on every key keep their order. Only the first `limit`
/// rows of that order are returned.
pub(crate) fn sorted_rows(
    rows: usize,
    columns: &[Arc<Column>],
    keys: &[SortKey],
    limit: usize,
) -> Vec<u32> {
    debug_assert!(columns.iter().all(|c| c.len() == rows));
    let keys: Vec<SortColumn<'_>> = columns.iter().zip(keys).map(SortColumn::new).collect();
    let order = |a: &u32, b: &u32| {
        let (ra, rb) = (*a as usize, *b as usize);
        let mut keys = keys.iter().map(|key| key.cmp(ra, rb));
        keys.find(|o| o.is_ne()).unwrap_or_else(|| a.cmp(b))
    };
    let mut sorted: Vec<u32> = (0..rows as u32).collect();
    if limit < rows {
        // Top-n: the first `limit` rows of the order, then only they are
        // sorted.
        if let Some(last) = limit.checked_sub(1) {
            sorted.select_nth_unstable_by(last, order);
        }
        sorted.truncate(limit);
    }
    // The order is total, so any sort gives it; the standard library's
    // stable one measured twice as fast as its unstable one on SSSP's
    // 6,341 gathered rows.
    sorted.sort_by(order);
    sorted
}

/// One sort key's cells, in the form its comparisons take.
enum SortColumn<'a> {
    /// A numeric or BOOL key: per row, the NULL rank in the high 64 bits
    /// and the value's order-preserving bits (inverted for `DESC`) in the
    /// low — so the rows' order on this key is the order of these numbers.
    Bits(Vec<u128>),
    /// A TEXT key's strings.
    Text(&'a [String], &'a Nulls, &'a SortKey),
}

impl<'a> SortColumn<'a> {
    fn new((column, key): (&'a Arc<Column>, &'a SortKey)) -> Self {
        match &**column {
            Column::Int(data, nulls) => Self::Bits(normalized(data, nulls, key, int_bits)),
            Column::Float(data, nulls) => Self::Bits(normalized(data, nulls, key, float_bits)),
            Column::Bool(data, nulls) => Self::Bits(normalized(data, nulls, key, u64::from)),
            Column::Text(data, nulls) => Self::Text(data, nulls, key),
        }
    }

    /// How this key orders rows `a` and `b`.
    #[inline]
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            Self::Bits(bits) => bits[a].cmp(&bits[b]),
            Self::Text(data, nulls, key) => {
                let cell = |row: usize| (!nulls.is_null(row)).then(|| data[row].as_str());
                by_key(key, cell(a), cell(b), str::cmp)
            }
        }
    }
}

/// How `key` orders two cells (`None`: NULL) that `cmp` orders ascending
/// when both have a value. NULLs go where `nulls_first` says, whichever
/// the direction.
#[inline]
fn by_key<T>(key: &SortKey, a: Option<T>, b: Option<T>, cmp: fn(T, T) -> Ordering) -> Ordering {
    match (a, b) {
        (Some(a), Some(b)) if key.asc => cmp(a, b),
        (Some(a), Some(b)) => cmp(b, a),
        (a, b) => null_rank(key, a.is_none()).cmp(&null_rank(key, b.is_none())),
    }
}

/// Where a cell stands among NULLs and values on `key`: NULLs first (0),
/// values (1), or NULLs last (2).
#[inline]
fn null_rank(key: &SortKey, null: bool) -> u8 {
    match null {
        false => 1,
        true if key.nulls_first => 0,
        true => 2,
    }
}

/// A numeric or BOOL key as [`SortColumn::Bits`]: `bits` maps each value
/// to a `u64` whose unsigned order is the value's.
fn normalized<T: Copy>(data: &[T], nulls: &Nulls, key: &SortKey, bits: fn(T) -> u64) -> Vec<u128> {
    let rank = |null| u128::from(null_rank(key, null)) << 64;
    let (null, value) = (rank(true), rank(false));
    let flip = if key.asc { 0 } else { u64::MAX };
    let cell = |(row, &x): (usize, &T)| match nulls.is_null(row) {
        true => null,
        false => value | u128::from(bits(x) ^ flip),
    };
    data.iter().enumerate().map(cell).collect()
}

/// An integer's order as an unsigned one: the sign bit flipped.
fn int_bits(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

/// A float's order under the total order of values, as an unsigned one.
/// That order ties `-0.0` with `0.0` and every NaN with every other, above
/// every number: so `-0.0` is read as `0.0` and every NaN as the greatest
/// key. Then a negative float's bits are all flipped and a positive one's
/// sign bit set.
fn float_bits(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spinner_common::Value;
    use spinner_plan::PlanExpr;

    /// The comparator the typed keys replaced, kept as their reference:
    /// how `keys` order rows `a` and `b`, whose sort-key cells `columns`
    /// hold, one `Cell` at a time.
    fn compare_sort_keys(
        columns: &[Arc<Column>],
        keys: &[SortKey],
        (a, b): (usize, usize),
    ) -> Ordering {
        for (column, key) in columns.iter().zip(keys) {
            let (a, b) = (column.cell(a), column.cell(b));
            let nulls = if key.nulls_first {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let ord = match (a.is_null(), b.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => nulls,
                (false, true) => nulls.reverse(),
                (false, false) if key.asc => a.cmp_total(&b),
                (false, false) => a.cmp_total(&b).reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// A key column's cells: one type and NULLs, or NULLs alone. Few
    /// distinct values per type, so keys tie often and the later keys and
    /// the row order decide.
    fn key_cells(rows: usize) -> impl Strategy<Value = Vec<Value>> {
        let ints = [i64::MIN, -1, 0, 1, 7, i64::MAX].map(Value::Int);
        let floats = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ]
        .map(Value::Float);
        let texts = ["", "a", "ab", "b"].map(Value::from);
        let bools = [false, true].map(Value::Bool);
        // One of `cells`, or NULL.
        let one_of = |cells: Vec<Value>| {
            (0..=cells.len()).prop_map(move |i| cells.get(i).cloned().unwrap_or(Value::Null))
        };
        prop_oneof![
            proptest::collection::vec(one_of(ints.to_vec()), rows),
            proptest::collection::vec(one_of(floats.to_vec()), rows),
            proptest::collection::vec(one_of(texts.to_vec()), rows),
            proptest::collection::vec(one_of(bools.to_vec()), rows),
            proptest::collection::vec(Just(Value::Null), rows),
        ]
    }

    /// 0–40 rows of 1–3 key columns, each with its direction and NULL
    /// placement.
    fn sort_input() -> impl Strategy<Value = (usize, Vec<(Vec<Value>, bool, bool)>)> {
        (0usize..40).prop_flat_map(|rows| {
            let key = (key_cells(rows), any::<bool>(), any::<bool>());
            (Just(rows), proptest::collection::vec(key, 1..=3))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The typed keys order rows exactly as the `Cell` comparator's
        /// stable sort does, every key type, direction and NULL placement
        /// alike; and a sort under a limit returns that order's first rows.
        #[test]
        fn typed_sort_equals_the_reference_sort((rows, keys) in sort_input(), k in 2usize..20) {
            let columns: Vec<Arc<Column>> = (keys.iter())
                .map(|(cells, ..)| {
                    let mut column = Column::new();
                    cells.iter().for_each(|cell| column.push(cell.clone()));
                    Arc::new(column)
                })
                .collect();
            let keys: Vec<SortKey> = (keys.iter().enumerate())
                .map(|(i, &(_, asc, nulls_first))| SortKey {
                    expr: PlanExpr::column(i, format!("k{i}")),
                    asc,
                    nulls_first,
                })
                .collect();
            let mut reference: Vec<u32> = (0..rows as u32).collect();
            reference.sort_by(|&a, &b| compare_sort_keys(&columns, &keys, (a as usize, b as usize)));
            for limit in [usize::MAX, 0, 1, k, rows + 1] {
                let want = &reference[..limit.min(rows)];
                prop_assert_eq!(sorted_rows(rows, &columns, &keys, limit), want, "limit {}", limit);
            }
        }
    }
}
