//! Typed column blocks: what a partition is made of.
//!
//! A [`Block`] holds the rows of one partition as one [`Column`] per
//! field, each column behind its own `Arc`, so projecting a bare column,
//! passing a partition through an exchange and keeping every row of a
//! filter share the data instead of copying it. A heap [`Row`] exists
//! only where the engine's contract is rows: bulk load and `VALUES` in,
//! the result batch out, and the spill codec.
//!
//! **A column holds one type, and what it holds decides its variant.** A
//! column is `Int`, `Float`, `Bool` or `Text`, with a [`Nulls`] bitmap
//! beside the data, for as long as its non-NULL cells agree, and `Mixed` —
//! plain [`Value`]s — exactly while two of them do not: every write
//! ([`push`](Column::push), [`extend_from`](Column::extend_from),
//! [`overwrite`](Column::overwrite), [`gather`](Column::gather)) degrades
//! a column only at a written cell that disagrees, and a `Mixed` column
//! whose disagreeing cells are overwritten is typed again. A column that
//! holds nothing but NULLs (or nothing) has no type yet and takes the type
//! of the first cell it is given. It never coerces: `Int(2)` and
//! `Float(2.0)` are equal and hash alike but print differently. The
//! planner makes the cells agree — it types every expression and every
//! loop column and casts where types meet — so `Mixed` comes only from
//! named inputs whose cells disagree with their declared types and from
//! text beside numbers; nothing may depend on *which* variant holds a
//! cell, [`Column::cell`] reads any of them, and the typed variants exist
//! so that loops over `&[i64]` and `&[f64]` can skip it.
//!
//! Row numbers are `u32` throughout (selection vectors, join matches,
//! group ids), and [`NO_ROW`] — or any number past the end of a column —
//! reads as NULL: that is how an outer join pads the side with no match.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, LazyLock};

use crate::row::Row;
use crate::value::{Cell, DataType, Value};

/// The row number that is no row: gathering it yields NULL.
pub const NO_ROW: u32 = u32::MAX;

/// Which rows of a typed column are NULL: bit `i` set means row `i` is.
/// Rows past the last word are not NULL, so a column without NULLs
/// carries an empty bitmap and its loops can skip the test altogether
/// ([`Nulls::any`]).
#[derive(Debug, Clone, Default)]
pub struct Nulls {
    words: Vec<u64>,
    count: usize,
}

impl Nulls {
    /// No NULLs.
    pub const fn new() -> Nulls {
        Nulls {
            words: Vec::new(),
            count: 0,
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.count != 0
            && self
                .words
                .get(i / 64)
                .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Whether any row is NULL.
    #[inline]
    pub fn any(&self) -> bool {
        self.count != 0
    }

    /// Mark row `i` NULL.
    pub fn set(&mut self, i: usize) {
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        if self.words[i / 64] & bit == 0 {
            self.words[i / 64] |= bit;
            self.count += 1;
        }
    }

    /// Mark row `i` not NULL.
    fn clear(&mut self, i: usize) {
        if self.is_null(i) {
            self.words[i / 64] &= !(1u64 << (i % 64));
            self.count -= 1;
        }
    }

    /// Rows NULL in `self` or in `other` — the NULLs of `a op b`.
    pub fn union(&self, other: &Nulls) -> Nulls {
        let (long, short) = if self.words.len() >= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = long.words.clone();
        for (w, o) in words.iter_mut().zip(&short.words) {
            *w |= o;
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Nulls { words, count }
    }
}

/// The cells of one field of a [`Block`]. See the module docs for what
/// the variants mean.
#[derive(Debug, Clone)]
pub enum Column {
    /// Integers, and which of them are NULL.
    Int(Vec<i64>, Nulls),
    /// Floats, and which of them are NULL.
    Float(Vec<f64>, Nulls),
    /// Booleans, and which of them are NULL.
    Bool(Vec<bool>, Nulls),
    /// Strings, and which of them are NULL.
    Text(Vec<String>, Nulls),
    /// Cells that disagree about their type.
    Mixed(Vec<Value>),
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

/// Append `rows` of `src` to `data`; a row past the end of `src`, or NULL
/// in it, appends the type's default and marks the new row NULL.
fn extend_typed<T: Clone + Default>(
    (data, nulls): (&mut Vec<T>, &mut Nulls),
    (src, src_nulls): (&[T], &Nulls),
    rows: impl Iterator<Item = u32>,
) {
    let base = data.len();
    data.extend(
        rows.enumerate()
            .map(|(k, row)| match src.get(row as usize) {
                Some(cell) if !src_nulls.is_null(row as usize) => cell.clone(),
                _ => {
                    nulls.set(base + k);
                    T::default()
                }
            }),
    );
}

/// Overwrite row `to` of `data` with row `from` of `src` for every
/// `(to, from)` of `pairs`; NULL in `src` writes the type's default and
/// marks the row NULL.
fn overwrite_typed<T: Clone + Default>(
    (data, nulls): (&mut [T], &mut Nulls),
    (src, src_nulls): (&[T], &Nulls),
    pairs: &[(u32, u32)],
) {
    for &(to, from) in pairs {
        let (to, from) = (to as usize, from as usize);
        match typed(src, src_nulls, from) {
            Some(cell) => {
                data[to] = cell.clone();
                nulls.clear(to);
            }
            None => {
                data[to] = T::default();
                nulls.set(to);
            }
        }
    }
}

/// Cell `row` of a typed column's data: `None` if it is NULL or past the
/// end.
#[inline]
fn typed<'a, T>(data: &'a [T], nulls: &Nulls, row: usize) -> Option<&'a T> {
    data.get(row).filter(|_| !nulls.is_null(row))
}

fn from_options<T: Default>(cells: impl IntoIterator<Item = Option<T>>) -> (Vec<T>, Nulls) {
    let mut nulls = Nulls::default();
    let mut data = Vec::new();
    for (row, cell) in cells.into_iter().enumerate() {
        if cell.is_none() {
            nulls.set(row);
        }
        data.push(cell.unwrap_or_default());
    }
    (data, nulls)
}

impl Column {
    /// A column with no cells and no type yet.
    pub fn new() -> Column {
        Column::Int(Vec::new(), Nulls::default())
    }

    /// `rows` copies of `value`.
    pub fn repeat(value: &Value, rows: usize) -> Column {
        match value {
            Value::Null => Column::new().nulls_like(rows),
            Value::Int(i) => Column::Int(vec![*i; rows], Nulls::default()),
            Value::Float(f) => Column::Float(vec![*f; rows], Nulls::default()),
            Value::Bool(b) => Column::Bool(vec![*b; rows], Nulls::default()),
            Value::Text(s) => Column::Text(vec![s.clone(); rows], Nulls::default()),
        }
    }

    /// An integer column; `None` is NULL.
    pub fn from_ints(cells: impl IntoIterator<Item = Option<i64>>) -> Column {
        let (data, nulls) = from_options(cells);
        Column::Int(data, nulls)
    }

    /// A float column; `None` is NULL.
    pub fn from_floats(cells: impl IntoIterator<Item = Option<f64>>) -> Column {
        let (data, nulls) = from_options(cells);
        Column::Float(data, nulls)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(d, _) => d.len(),
            Column::Float(d, _) => d.len(),
            Column::Bool(d, _) => d.len(),
            Column::Text(d, _) => d.len(),
            Column::Mixed(d) => d.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The NULL bitmap of a typed column; `None` for `Mixed`, whose NULLs
    /// are cells.
    pub fn nulls(&self) -> Option<&Nulls> {
        match self {
            Column::Int(_, n) | Column::Float(_, n) | Column::Bool(_, n) | Column::Text(_, n) => {
                Some(n)
            }
            Column::Mixed(_) => None,
        }
    }

    /// Whether no cell has a value — such a column has no type yet.
    fn untyped(&self) -> bool {
        self.nulls().is_some_and(|n| n.count == self.len())
    }

    /// Cell `row`, read in place. A row past the end reads as NULL.
    #[inline]
    pub fn cell(&self, row: usize) -> Cell<'_> {
        match self {
            Column::Int(d, n) => match d.get(row) {
                Some(x) if !n.is_null(row) => Cell::Int(*x),
                _ => Cell::Null,
            },
            Column::Float(d, n) => match d.get(row) {
                Some(x) if !n.is_null(row) => Cell::Float(*x),
                _ => Cell::Null,
            },
            Column::Bool(d, n) => match d.get(row) {
                Some(x) if !n.is_null(row) => Cell::Bool(*x),
                _ => Cell::Null,
            },
            Column::Text(d, n) => match d.get(row) {
                Some(x) if !n.is_null(row) => Cell::Text(x),
                _ => Cell::Null,
            },
            Column::Mixed(d) => d.get(row).map_or(Cell::Null, Value::cell),
        }
    }

    /// An owned copy of cell `row`.
    pub fn value(&self, row: usize) -> Value {
        self.cell(row).to_value()
    }

    /// Whether cell `row` is NULL.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.cell(row).is_null()
    }

    /// Whether cell `row` equals cell `other_row` of `other` under
    /// `Value`'s `Eq` (`2 = 2.0`, NULL = NULL, NaN = NaN, `-0.0 = 0.0`).
    #[inline]
    pub fn eq_cells(&self, row: usize, other: &Column, other_row: usize) -> bool {
        match (self, other) {
            (Column::Int(a, an), Column::Int(b, bn)) => {
                typed(a, an, row) == typed(b, bn, other_row)
            }
            (Column::Float(a, an), Column::Float(b, bn)) => {
                match (typed(a, an, row), typed(b, bn, other_row)) {
                    (Some(x), Some(y)) => x == y || x.is_nan() && y.is_nan(),
                    (x, y) => x.is_none() && y.is_none(),
                }
            }
            _ => self.cell(row).cmp_total(&other.cell(other_row)).is_eq(),
        }
    }

    /// Whether cell `row` is cell `other_row` of `other` as it prints:
    /// equal *and* of one type, a float bit for bit — `2` is not `2.0`,
    /// nor `-0.0` `0.0`.
    pub fn same_cell(&self, row: usize, other: &Column, other_row: usize) -> bool {
        match (self.cell(row), other.cell(other_row)) {
            (Cell::Null, Cell::Null) => true,
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (Cell::Float(a), Cell::Float(b)) => a.to_bits() == b.to_bits(),
            (Cell::Text(a), Cell::Text(b)) => a == b,
            (Cell::Bool(a), Cell::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Feed every cell into the hasher at its row, exactly as `Value`'s
    /// `Hash` would: composing this over the columns of a key hashes the
    /// key a column at a time.
    pub fn hash_into<H: Hasher>(&self, states: &mut [H]) {
        match self {
            Column::Int(data, nulls) if !nulls.any() => {
                for (state, x) in states.iter_mut().zip(data) {
                    Cell::Int(*x).hash(state);
                }
            }
            Column::Float(data, nulls) if !nulls.any() => {
                for (state, x) in states.iter_mut().zip(data) {
                    Cell::Float(*x).hash(state);
                }
            }
            _ => {
                for (row, state) in states.iter_mut().enumerate() {
                    self.cell(row).hash(state);
                }
            }
        }
    }

    /// Turn into `Mixed`, cell for cell.
    fn degrade(&mut self) {
        if !matches!(self, Column::Mixed(_)) {
            *self = Column::Mixed((0..self.len()).map(|row| self.value(row)).collect());
        }
    }

    /// `rows` NULL cells of the same variant as `self`.
    fn nulls_like(&self, rows: usize) -> Column {
        let mut out = match self {
            Column::Int(..) => Column::Int(Vec::new(), Nulls::default()),
            Column::Float(..) => Column::Float(Vec::new(), Nulls::default()),
            Column::Bool(..) => Column::Bool(Vec::new(), Nulls::default()),
            Column::Text(..) => Column::Text(Vec::new(), Nulls::default()),
            Column::Mixed(_) => Column::Mixed(Vec::new()),
        };
        out.push_nulls(rows);
        out
    }

    fn push_nulls(&mut self, count: usize) {
        let (start, end) = (self.len(), self.len() + count);
        match self {
            Column::Int(d, _) => d.resize(end, 0),
            Column::Float(d, _) => d.resize(end, 0.0),
            Column::Bool(d, _) => d.resize(end, false),
            Column::Text(d, _) => d.resize(end, String::new()),
            Column::Mixed(d) => d.resize(end, Value::Null),
        }
        if let Column::Int(_, n) | Column::Float(_, n) | Column::Bool(_, n) | Column::Text(_, n) =
            self
        {
            (start..end).for_each(|row| n.set(row));
        }
    }

    /// Append `value`.
    pub fn push(&mut self, value: Value) {
        match (&mut *self, value) {
            (_, Value::Null) => self.push_nulls(1),
            (Column::Int(d, _), Value::Int(x)) => d.push(x),
            (Column::Float(d, _), Value::Float(x)) => d.push(x),
            (Column::Bool(d, _), Value::Bool(x)) => d.push(x),
            (Column::Text(d, _), Value::Text(x)) => d.push(x),
            (Column::Mixed(d), value) => d.push(value),
            (_, value) => {
                if self.untyped() {
                    *self = Column::repeat(&value, 0).nulls_like(self.len());
                } else {
                    self.degrade();
                }
                self.push(value);
            }
        }
    }

    /// Append cells `rows` of `src`, in that order. [`NO_ROW`], or any
    /// row past the end of `src`, appends NULL.
    pub fn extend_from<I>(&mut self, src: &Column, rows: I)
    where
        I: ExactSizeIterator<Item = u32> + Clone,
    {
        if rows.len() == 0 {
            return;
        }
        if src.untyped() {
            return self.push_nulls(rows.len());
        }
        let untyped = self.untyped();
        match (&mut *self, src) {
            (Column::Int(d, n), Column::Int(s, sn)) => extend_typed((d, n), (s, sn), rows),
            (Column::Float(d, n), Column::Float(s, sn)) => extend_typed((d, n), (s, sn), rows),
            (Column::Bool(d, n), Column::Bool(s, sn)) => extend_typed((d, n), (s, sn), rows),
            (Column::Text(d, n), Column::Text(s, sn)) => extend_typed((d, n), (s, sn), rows),
            (Column::Mixed(d), src) => d.extend(rows.map(|row| src.value(row as usize))),
            (_, Column::Int(..) | Column::Float(..) | Column::Bool(..) | Column::Text(..))
                if untyped =>
            {
                *self = src.nulls_like(self.len());
                self.extend_from(src, rows);
            }
            // A cell at a time: the column turns `Mixed` at the first cell
            // that disagrees with it, and only there.
            _ => rows.for_each(|row| self.push(src.value(row as usize))),
        }
    }

    /// Overwrite cell `to` with cell `from` of `src` for every `(to, from)`
    /// of `pairs`, each `to` a row of this column. A typed column of
    /// `src`'s type is written in place. Otherwise the cells are written
    /// one by one and the column ends typed by what it then holds: `Mixed`
    /// only if two of its cells disagree.
    pub fn overwrite(&mut self, src: &Column, pairs: &[(u32, u32)]) {
        if pairs.is_empty() {
            return;
        }
        match (&mut *self, src) {
            (Column::Int(d, n), Column::Int(s, sn)) => overwrite_typed((d, n), (s, sn), pairs),
            (Column::Float(d, n), Column::Float(s, sn)) => overwrite_typed((d, n), (s, sn), pairs),
            (Column::Bool(d, n), Column::Bool(s, sn)) => overwrite_typed((d, n), (s, sn), pairs),
            (Column::Text(d, n), Column::Text(s, sn)) => overwrite_typed((d, n), (s, sn), pairs),
            (Column::Mixed(d), src) => {
                for &(to, from) in pairs {
                    d[to as usize] = src.value(from as usize);
                }
                self.retype();
            }
            (_, src) if src.untyped() => {
                let nulls = self.nulls_like(0);
                self.overwrite(&nulls, pairs);
            }
            _ => {
                if self.untyped() {
                    *self = src.nulls_like(self.len());
                } else {
                    self.degrade();
                }
                self.overwrite(src, pairs);
            }
        }
    }

    /// A `Mixed` column whose cells agree after all becomes typed again.
    fn retype(&mut self) {
        let Column::Mixed(cells) = self else { return };
        let mut types = (cells.iter().map(Value::data_type)).filter(|&t| t != DataType::Null);
        let first = types.next();
        if types.all(|t| Some(t) == first) {
            let mut typed = Column::new();
            std::mem::take(cells)
                .into_iter()
                .for_each(|v| typed.push(v));
            *self = typed;
        }
    }

    /// Cells `rows` of this column as a new column, typed by the cells it
    /// takes.
    pub fn gather(&self, rows: &[u32]) -> Column {
        let mut out = match self {
            Column::Mixed(_) => Column::new(),
            typed => typed.nulls_like(0),
        };
        out.extend_from(self, rows.iter().copied());
        out
    }

    /// The one type of this column's cells: NULL while no cell has a value
    /// (the column has no type yet), `None` when two cells disagree.
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            _ if self.untyped() => DataType::Null,
            Column::Int(..) => DataType::Int,
            Column::Float(..) => DataType::Float,
            Column::Bool(..) => DataType::Bool,
            Column::Text(..) => DataType::Text,
            Column::Mixed(_) => return None,
        })
    }
}

/// The rows of one partition, a column per field. `rows` is kept beside
/// the columns because a block may have none (`SELECT count(*)` reads
/// zero-width rows).
#[derive(Debug, Clone, Default)]
pub struct Block {
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Block {
    /// A block of `columns`, each `rows` long.
    pub fn new(columns: Vec<Arc<Column>>, rows: usize) -> Block {
        assert!(rows < NO_ROW as usize, "row numbers are u32");
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Block { columns, rows }
    }

    /// No rows of `width` fields.
    pub fn empty(width: usize) -> Block {
        // Immutable, so every field of every empty block shares one column.
        static EMPTY: LazyLock<Arc<Column>> = LazyLock::new(Arc::default);
        Block::new(vec![Arc::clone(&EMPTY); width], 0)
    }

    /// Transpose `rows`, each `width` cells wide, moving the cells.
    pub fn from_rows(width: usize, rows: impl IntoIterator<Item = Row>) -> Block {
        let mut columns = vec![Column::new(); width];
        let mut count = 0;
        for row in rows {
            debug_assert_eq!(row.len(), width);
            for (column, value) in columns.iter_mut().zip(row.into_vec()) {
                column.push(value);
            }
            count += 1;
        }
        Block::new(columns.into_iter().map(Arc::new).collect(), count)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the block has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns, in field order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Row `row` as a heap row.
    pub fn row(&self, row: usize) -> Row {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Append the rows of `other`: in place where a column is this
    /// block's alone, onto a copy of it where it is shared.
    pub fn append(&mut self, other: &Block) {
        for (column, extra) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(column).extend_from(extra, 0..other.rows as u32);
        }
        self.rows += other.rows;
        assert!(self.rows < NO_ROW as usize, "row numbers are u32");
    }

    /// Overwrite row `to` with row `from` of `src` for every `(to, from)`
    /// of `pairs` ([`Column::overwrite`]). Only a column with a cell that
    /// is not already [the same](Column::same_cell) is written: in place
    /// where it is this block's alone, onto a copy of it where it is
    /// shared.
    pub fn overwrite_rows(&mut self, src: &Block, pairs: &[(u32, u32)]) {
        for (column, from) in self.columns.iter_mut().zip(&src.columns) {
            let same = |&(to, at): &(u32, u32)| column.same_cell(to as usize, from, at as usize);
            if !pairs.iter().all(same) {
                Arc::make_mut(column).overwrite(from, pairs);
            }
        }
    }

    /// Every row as a heap row.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.rows);
        self.push_rows(usize::MAX, &mut rows);
        rows
    }

    /// Append the first `limit` rows to `out` as heap rows.
    pub fn push_rows(&self, limit: usize, out: &mut Vec<Row>) {
        out.extend((0..self.rows.min(limit)).map(|row| self.row(row)));
    }

    /// Whether row `row` equals row `other_row` of `other`, cell by cell
    /// under `Value`'s `Eq`.
    pub fn eq_rows(&self, row: usize, other: &Block, other_row: usize) -> bool {
        let pairs = self.columns.iter().zip(&other.columns);
        pairs
            .into_iter()
            .all(|(a, b)| a.eq_cells(row, b, other_row))
    }

    /// Rows `rows` of this block, in that order, as a new block.
    pub fn take(&self, rows: &[u32]) -> Block {
        if rows.is_empty() {
            return Block::empty(self.columns.len());
        }
        let columns = self.columns.iter().map(|c| Arc::new(c.gather(rows)));
        Block::new(columns.collect(), rows.len())
    }

    /// The first `limit` rows of `blocks` laid end to end (`usize::MAX`:
    /// all of them). A single block that is wanted whole is shared, not
    /// copied.
    pub fn concat(blocks: &[Arc<Block>], limit: usize) -> Arc<Block> {
        let total: usize = blocks.iter().map(|b| b.rows).sum();
        let wanted = total.min(limit);
        let mut occupied = blocks.iter().filter(|b| b.rows > 0);
        match (occupied.next(), occupied.next()) {
            (None, _) => return blocks.first().cloned().unwrap_or_default(),
            (Some(only), None) if wanted == only.rows => return Arc::clone(only),
            _ => {}
        }
        let column = |c: usize| {
            let mut out = Column::new();
            for block in blocks {
                let rows = block.rows.min(wanted - out.len()) as u32;
                out.extend_from(&block.columns[c], 0..rows);
            }
            Arc::new(out)
        };
        let width = blocks[0].columns.len();
        Arc::new(Block::new((0..width).map(column).collect(), wanted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::row_of;
    use proptest::prelude::*;

    /// Cells that tell representations apart: `2` and `2.0`, both zeroes,
    /// NaN, NULL, text, booleans.
    fn cell() -> impl Strategy<Value = Value> {
        (0u32..12).prop_map(|pick| match pick {
            0 | 1 => Value::Null,
            2 => Value::Float(-0.0),
            3 => Value::Float(2.0),
            4 => Value::Float(f64::NAN),
            5 => Value::Text("ab".into()),
            6 => Value::Bool(true),
            n => Value::Int(i64::from(n) - 7),
        })
    }

    /// A column's worth of cells: mostly of one type (so typed columns
    /// occur), sometimes anything.
    fn cells() -> impl Strategy<Value = Vec<Value>> {
        let typed = |value: fn(i64) -> Value| {
            proptest::collection::vec(
                prop_oneof![Just(Value::Null), (0i64..4).prop_map(value)],
                0..12,
            )
        };
        prop_oneof![
            typed(Value::Int),
            // Both zeroes and both NaNs: equal under `Value`'s `Eq`.
            typed(|x| Value::Float([-0.0, 0.0, f64::NAN, -f64::NAN][x as usize])),
            typed(|x| Value::Text(x.to_string())),
            typed(|x| Value::Bool(x % 2 == 0)),
            proptest::collection::vec(cell(), 0..12),
        ]
    }

    fn exact<T: std::fmt::Debug + ?Sized>(value: &T) -> String {
        format!("{value:?}")
    }

    fn column_of(cells: &[Value]) -> Column {
        let mut column = Column::new();
        cells.iter().for_each(|cell| column.push(cell.clone()));
        column
    }

    fn values(column: &Column) -> Vec<Value> {
        (0..column.len()).map(|row| column.value(row)).collect()
    }

    #[test]
    fn columns_are_typed_by_content_and_never_coerce() {
        let ints = column_of(&[Value::Null, Value::Int(1), Value::Null]);
        assert!(matches!(&ints, Column::Int(data, nulls) if data.len() == 3 && nulls.count == 2));
        // NULLs come first: the column had no type until the float arrived.
        let floats = column_of(&[Value::Null, Value::Float(-0.0)]);
        assert!(matches!(floats, Column::Float(..)));
        assert!(matches!(
            column_of(&[Value::Null, Value::Null]),
            Column::Int(..)
        ));
        // Turns `Mixed` at its last row, keeping every earlier cell as it was.
        let cells = [Value::Int(2), Value::Null, Value::Float(2.0)];
        let mixed = column_of(&cells);
        assert!(matches!(mixed, Column::Mixed(_)));
        assert_eq!(exact(&values(&mixed)), exact(&cells));
        assert!(mixed.eq_cells(0, &mixed, 2), "2 = 2.0");
        assert!(
            mixed.is_null(1) && mixed.is_null(9),
            "past the end reads NULL"
        );
        assert!(matches!(
            Column::repeat(&Value::Null, 2).cell(1),
            Cell::Null
        ));
        assert_eq!(Column::repeat(&Value::Text("x".into()), 2).len(), 2);
    }

    #[test]
    fn rows_to_block_to_rows_is_the_identity_at_the_edges() {
        for (width, rows) in [(0, 0), (0, 3), (2, 0)] {
            let block = Block::from_rows(width, (0..rows).map(|_| row_of([])));
            assert_eq!((block.rows(), block.columns().len()), (rows, width));
            assert_eq!(block.to_rows().len(), rows);
        }
        let rows = vec![
            row_of([Value::Int(2), Value::Float(-0.0), Value::Null]),
            row_of([Value::Float(2.0), Value::Float(f64::NAN), Value::Null]),
            row_of([
                Value::Text("t".into()),
                Value::Float(0.0),
                Value::Bool(false),
            ]),
            row_of([Value::Float(2.0), Value::Float(0.0), Value::Null]),
        ];
        let block = Block::from_rows(3, rows.clone());
        assert_eq!(exact(&block.to_rows()), exact(&rows));
        let mut head = Vec::new();
        block.push_rows(2, &mut head);
        assert_eq!(exact(&head), exact(&rows[..2]));
        assert!(block.eq_rows(0, &block, 3) && !block.eq_rows(0, &block, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rows_to_block_to_rows_is_the_identity(a in cells(), b in cells()) {
            let rows: Vec<Row> = a.iter().zip(&b).map(|(a, b)| row_of([a.clone(), b.clone()])).collect();
            let block = Block::from_rows(2, rows.clone());
            prop_assert_eq!(block.rows(), rows.len());
            prop_assert_eq!(exact(&block.to_rows()), exact(&rows));
            for (row, want) in rows.iter().enumerate() {
                prop_assert_eq!(exact(&block.row(row)), exact(want));
            }
        }

        /// `gather` (with rows past the end and `NO_ROW`), `extend_from`
        /// onto a column of another type, `take` and `concat` against the
        /// same thing done cell by cell.
        #[test]
        fn gather_scatter_and_take_equal_the_row_wise_reference(
            a in cells(),
            b in cells(),
            picks in proptest::collection::vec(0u32..16, 0..20),
            limit in 0usize..30,
        ) {
            let (ca, cb) = (column_of(&a), column_of(&b));
            let picks: Vec<u32> = picks.into_iter().map(|p| if p == 15 { NO_ROW } else { p }).collect();
            let pick = |cells: &[Value], row: u32| cells.get(row as usize).cloned().unwrap_or(Value::Null);
            let want: Vec<Value> = picks.iter().map(|&row| pick(&a, row)).collect();
            prop_assert_eq!(exact(&values(&ca.gather(&picks))), exact(&want));
            // Scatter: append picks of `a` onto all of `b`.
            let mut onto = cb.clone();
            onto.extend_from(&ca, picks.iter().copied());
            let want: Vec<Value> = b.iter().cloned().chain(want).collect();
            prop_assert_eq!(exact(&values(&onto)), exact(&want));
            for (row, cell) in want.iter().enumerate() {
                prop_assert_eq!(onto.is_null(row), cell.is_null());
                prop_assert!(onto.eq_cells(row, &column_of(&want), row));
            }
            // Blocks: take, then concat with a limit.
            let rows = |cells: &[Value]| cells.iter().map(|c| row_of([c.clone(), Value::Int(7)])).collect::<Vec<Row>>();
            let (ba, bb) = (Arc::new(Block::from_rows(2, rows(&a))), Arc::new(Block::from_rows(2, rows(&b))));
            let inside: Vec<u32> = picks.iter().copied().filter(|&p| (p as usize) < a.len()).collect();
            let want: Vec<Row> = inside.iter().map(|&p| rows(&a)[p as usize].clone()).collect();
            prop_assert_eq!(exact(&ba.take(&inside).to_rows()), exact(&want));
            let both: Vec<Row> = rows(&a).into_iter().chain(rows(&b)).take(limit).collect();
            let joined = Block::concat(&[Arc::clone(&ba), Arc::clone(&bb)], limit);
            prop_assert_eq!(exact(&joined.to_rows()), exact(&both));
            if b.is_empty() && limit >= a.len() {
                prop_assert!(Arc::ptr_eq(&joined, &ba) || a.is_empty(), "a whole block is shared");
            }
            // Append: onto a copy, since `ba` shares the columns.
            let mut grown = Block::clone(&ba);
            grown.append(&bb);
            let both: Vec<Row> = rows(&a).into_iter().chain(rows(&b)).collect();
            prop_assert_eq!(exact(&grown.to_rows()), exact(&both));
            prop_assert_eq!(exact(&ba.to_rows()), exact(&rows(&a)));
        }

        /// `overwrite` writes exactly the cells it is given — later pairs
        /// over earlier ones — whatever the two columns' types, and
        /// `overwrite_rows` leaves the block it shares its columns with as
        /// it was.
        #[test]
        fn overwrite_writes_exactly_the_pairs_cells(
            a in cells(),
            b in cells(),
            picks in proptest::collection::vec((0u32..12, 0u32..12), 0..12),
        ) {
            let pairs: Vec<(u32, u32)> = picks
                .into_iter()
                .filter(|&(to, from)| (to as usize) < a.len() && (from as usize) < b.len())
                .collect();
            let mut want = a.clone();
            for &(to, from) in &pairs {
                want[to as usize] = b[from as usize].clone();
            }
            let (ca, cb) = (column_of(&a), column_of(&b));
            let mut written = ca.clone();
            written.overwrite(&cb, &pairs);
            prop_assert_eq!(exact(&values(&written)), exact(&want));
            for (row, cell) in want.iter().enumerate() {
                prop_assert_eq!(written.is_null(row), cell.is_null());
                prop_assert!(written.same_cell(row, &column_of(&want), row));
                for (other, cell) in b.iter().enumerate() {
                    let same = match (&want[row], cell) {
                        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                        (x, y) => exact(x) == exact(y),
                    };
                    prop_assert_eq!(written.same_cell(row, &cb, other), same);
                }
            }
            let rows = |cells: &[Value]| cells.iter().map(|c| row_of([c.clone(), Value::Int(7)])).collect::<Vec<Row>>();
            let (ba, bb) = (Arc::new(Block::from_rows(2, rows(&a))), Block::from_rows(2, rows(&b)));
            let mut grown = Block::clone(&ba);
            grown.overwrite_rows(&bb, &pairs);
            prop_assert_eq!(exact(&grown.to_rows()), exact(&rows(&want)));
            prop_assert_eq!(exact(&ba.to_rows()), exact(&rows(&a)));
            prop_assert!(Arc::ptr_eq(&grown.columns()[1], &ba.columns()[1]), "an unchanged column is shared");
        }

        /// Whatever writes a column — `push`, `extend_from` and `overwrite`
        /// from typed or `Mixed` sources, `gather` — it holds exactly the
        /// cells written, and it is `Mixed` exactly when two of them
        /// disagree about their type.
        #[test]
        fn a_column_is_mixed_only_when_its_cells_disagree(
            start in cells(),
            ops in proptest::collection::vec(
                (0u32..4, cells(), any::<bool>(), proptest::collection::vec((0u32..14, 0u32..14), 0..10)),
                0..8,
            ),
        ) {
            let mut column = column_of(&start);
            let mut want = start;
            for (op, src, mixed, picks) in ops {
                // The source of a write, typed by its cells or forced `Mixed`.
                let from = if mixed { Column::Mixed(src.clone()) } else { column_of(&src) };
                let cell = |row: u32| src.get(row as usize).cloned().unwrap_or(Value::Null);
                match op {
                    0 => {
                        let value = cell(picks.first().map_or(0, |p| p.0));
                        column.push(value.clone());
                        want.push(value);
                    }
                    1 => {
                        let rows: Vec<u32> = picks.iter().map(|p| p.0).collect();
                        column.extend_from(&from, rows.iter().copied());
                        want.extend(rows.iter().map(|&row| cell(row)));
                    }
                    2 => {
                        let pairs: Vec<(u32, u32)> = (picks.iter().copied())
                            .filter(|&(to, from)| (to as usize) < want.len() && (from as usize) < src.len())
                            .collect();
                        column.overwrite(&from, &pairs);
                        for (to, from) in pairs {
                            want[to as usize] = cell(from);
                        }
                    }
                    _ => {
                        let rows: Vec<u32> = picks.iter().map(|p| p.0).collect();
                        column = column.gather(&rows);
                        want = rows.iter().map(|&row| want.get(row as usize).cloned().unwrap_or(Value::Null)).collect();
                    }
                }
                prop_assert_eq!(exact(&values(&column)), exact(&want));
                // The one type of the written cells, or `None` if two disagree.
                let mut types = want.iter().map(Value::data_type).filter(|&t| t != DataType::Null);
                let first = types.next().unwrap_or(DataType::Null);
                let agreed = types.all(|t| t == first).then_some(first);
                prop_assert_eq!(column.data_type(), agreed, "{:?}", column);
            }
        }

        /// A column hashed a column at a time is `Value`'s own hash, and
        /// `eq_cells` its own equality.
        #[test]
        fn typed_hash_and_equality_are_the_values_own(a in cells(), b in cells()) {
            use std::collections::hash_map::DefaultHasher;
            let (ca, cb) = (column_of(&a), column_of(&b));
            let mut states = vec![DefaultHasher::new(); a.len()];
            ca.hash_into(&mut states);
            for (row, state) in states.iter().enumerate() {
                let mut want = DefaultHasher::new();
                a[row].hash(&mut want);
                prop_assert_eq!(state.finish(), want.finish());
                for (other, cell) in b.iter().enumerate() {
                    prop_assert_eq!(ca.eq_cells(row, &cb, other), a[row] == *cell);
                }
            }
            let (na, nb) = (ca.nulls().cloned().unwrap_or_default(), cb.nulls().cloned().unwrap_or_default());
            let either = na.union(&nb);
            for row in 0..a.len().max(b.len()) + 70 {
                prop_assert_eq!(either.is_null(row), na.is_null(row) || nb.is_null(row));
            }
        }
    }
}
