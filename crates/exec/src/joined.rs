//! An operator's output as row numbers.
//!
//! What an operator decides is which rows of its inputs it hands up: the
//! rows a filter keeps, the probe and build row each output row of a join
//! pairs ([`NO_ROW`] where an outer join pads a side). [`Joined`] keeps
//! that decision instead of the cells — the source blocks, one row vector
//! per source, and the source column each output column reads — so a
//! reader gathers only what it reads: column `c` of the output is one
//! `gather` of its source column by its source's rows. A block is a
//! one-source `Joined` that holds neither vector nor column map: its rows
//! are the block's, each once, in order. A filter composes the rows it
//! keeps into the row vectors and a join its `(probe, build)` pairs, a
//! `u32` gather per source, instead of gathering the columns of their
//! input; a bare projection remaps columns; an aggregate numbers its
//! groups at the rows of the source that holds its group columns
//! (`operators::aggregate_joined`, the one aggregation kernel).
//!
//! [`Rows`] — a `Joined` per partition — is what every operator reads and
//! hands up. Partitions are laid end to end in one way, [`concat`]
//! (`Rows::concat`): straight from the sources, a padded row reading NULL.

use std::borrow::Cow;
use std::sync::Arc;

use spinner_common::{Block, Column, SchemaRef, NO_ROW};
use spinner_plan::{JoinType, PlanExpr};
use spinner_storage::{estimated_bytes, Partitioned, PlacedOn};

/// One partition of an operator's output as row numbers.
#[derive(Debug, Clone)]
pub(crate) struct Joined {
    /// Source 0: a block, or the join chain's first probe side.
    first: Arc<Block>,
    /// Sources 1, 2, …: each join's build side, in join order.
    built: Vec<Arc<Block>>,
    /// Per source, the row of it each output row takes; [`NO_ROW`] where a
    /// join padded it. `None`: the first and only source's rows, each
    /// once, in order.
    rows: Option<Vec<Vec<u32>>>,
    /// Per output column, its source and the column of it that it reads.
    /// `None`: the first source's columns, in order.
    columns: Option<Vec<(usize, usize)>>,
    /// Whether no join padded the first source: its rows ascend, and none
    /// is [`NO_ROW`].
    first_unpadded: bool,
}

/// The sources of columns `columns` of a `width`-column pair of sides,
/// or of every one, by `source`.
fn emitted(
    columns: Option<&[usize]>,
    width: usize,
    source: impl Fn(usize) -> (usize, usize),
) -> Vec<(usize, usize)> {
    match columns {
        Some(columns) => columns.iter().map(|&c| source(c)).collect(),
        None => (0..width).map(source).collect(),
    }
}

/// A `width`-column block of `rows` rows whose columns `read` (ascending)
/// are `column(c)`; every other column holds a copy of the first of them,
/// so an expression that reads only columns `read` evaluates over it as
/// over the whole rows. Nothing read, the block has no columns.
pub(crate) fn read_block(
    (width, rows): (usize, usize),
    read: &[usize],
    column: impl Fn(usize) -> Arc<Column>,
) -> Block {
    let Some((&first, rest)) = read.split_first() else {
        return Block::new(Vec::new(), rows);
    };
    let mut columns = vec![column(first); width];
    for &c in rest {
        columns[c] = column(c);
    }
    Block::new(columns, rows)
}

/// The columns `exprs` read, ascending.
pub(crate) fn read_columns<'e>(exprs: impl IntoIterator<Item = &'e PlanExpr>) -> Vec<usize> {
    let mut read = Vec::new();
    for e in exprs {
        e.walk(&mut |e| {
            if let PlanExpr::Column(c) = e {
                read.push(c.index);
            }
        });
    }
    read.sort_unstable();
    read.dedup();
    read
}

impl Joined {
    /// The rows of `block`, each once, in order.
    pub(crate) fn of(block: Arc<Block>) -> Joined {
        Joined {
            first: block,
            built: Vec::new(),
            rows: None,
            columns: None,
            first_unpadded: true,
        }
    }

    /// This output as the probe side of a join that paired its rows with
    /// rows of `r` by `(probe, build)`, emitting `columns` of `self ∥ r`
    /// (every one, for `None`): each source's rows taken at `probe` — a
    /// padded probe row takes none — and `r` a source beside them.
    pub(crate) fn then(
        &self,
        r: &Arc<Block>,
        (probe, build): (Vec<u32>, Vec<u32>),
        (join_type, columns): (JoinType, Option<&[usize]>),
    ) -> Joined {
        let (width, added) = (self.width(), self.built.len() + 1);
        let rows = match &self.rows {
            None => vec![probe, build],
            Some(held) => (held.iter())
                .map(|held| {
                    let row = |p: &u32| held.get(*p as usize).copied().unwrap_or(NO_ROW);
                    probe.iter().map(row).collect()
                })
                .chain([build])
                .collect(),
        };
        let built = self.built.iter().cloned().chain([Arc::clone(r)]).collect();
        let source = |c: usize| match c.checked_sub(width) {
            None => self.source_of(c),
            Some(c) => (added, c),
        };
        Joined {
            first: Arc::clone(&self.first),
            built,
            rows: Some(rows),
            columns: Some(emitted(columns, width + r.columns().len(), source)),
            first_unpadded: self.first_unpadded
                && matches!(join_type, JoinType::Inner | JoinType::Left),
        }
    }

    /// Output rows `kept` (ascending), composed into the row vectors.
    pub(crate) fn select(&self, kept: Vec<u32>) -> Joined {
        let rows = match &self.rows {
            None => vec![kept],
            Some(held) => (held.iter())
                .map(|held| kept.iter().map(|&k| held[k as usize]).collect())
                .collect(),
        };
        Joined {
            first: Arc::clone(&self.first),
            built: self.built.clone(),
            rows: Some(rows),
            columns: self.columns.clone(),
            first_unpadded: self.first_unpadded,
        }
    }

    /// Output columns `picked`, in that order.
    pub(crate) fn project(self, picked: &[usize]) -> Joined {
        let columns = picked.iter().map(|&c| self.source_of(c)).collect();
        Joined {
            columns: Some(columns),
            ..self
        }
    }

    /// Output rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
            .as_ref()
            .map_or(self.first.rows(), |rows| rows[0].len())
    }

    /// Output columns.
    pub(crate) fn width(&self) -> usize {
        (self.columns.as_ref()).map_or(self.first.columns().len(), Vec::len)
    }

    /// Whether a join made these rows: they have a source besides the
    /// first.
    pub(crate) fn is_join(&self) -> bool {
        !self.built.is_empty()
    }

    /// The source and the column of it that output column `c` reads.
    pub(crate) fn source_of(&self, c: usize) -> (usize, usize) {
        self.columns.as_ref().map_or((0, c), |columns| columns[c])
    }

    /// The first source and its row vector (`None`: its rows, each once,
    /// in order), if no join padded it.
    pub(crate) fn first_source(&self) -> Option<(&Arc<Block>, Option<&[u32]>)> {
        let rows = self.rows.as_ref().map(|rows| &rows[0][..]);
        self.first_unpadded.then_some((&self.first, rows))
    }

    /// The block these rows are, if they are a block's own rows and
    /// columns, each once, in order.
    pub(crate) fn as_block(&self) -> Option<&Arc<Block>> {
        (self.rows.is_none() && self.columns.is_none()).then_some(&self.first)
    }

    /// Source column `k` of source `s`.
    fn source_column(&self, (s, k): (usize, usize)) -> &Arc<Column> {
        let source = if s == 0 {
            &self.first
        } else {
            &self.built[s - 1]
        };
        &source.columns()[k]
    }

    /// Output column `c`, gathered.
    fn column(&self, c: usize) -> Arc<Column> {
        let (s, k) = self.source_of(c);
        match &self.rows {
            None => Arc::clone(self.source_column((s, k))),
            Some(rows) => Arc::new(self.source_column((s, k)).gather(&rows[s])),
        }
    }

    /// The output's [`read_block`]: only the columns `read` are gathered.
    /// A block's own rows are the block itself.
    pub(crate) fn block(&self, read: &[usize]) -> Cow<'_, Block> {
        match self.as_block() {
            Some(block) => Cow::Borrowed(block),
            None => Cow::Owned(read_block((self.width(), self.len()), read, |c| {
                self.column(c)
            })),
        }
    }

    /// [`block`](Self::block) for expressions `exprs` over the output,
    /// whose columns are read only when they are gathered.
    pub(crate) fn reading<'e>(
        &self,
        exprs: impl IntoIterator<Item = &'e PlanExpr>,
    ) -> Cow<'_, Block> {
        match self.as_block() {
            Some(block) => Cow::Borrowed(block),
            None => {
                // A join's residual reads its build side's columns too.
                let mut read = read_columns(exprs);
                read.retain(|&c| c < self.width());
                self.block(&read)
            }
        }
    }

    /// Every output column, gathered; a block's own rows are that block.
    pub(crate) fn gather(&self) -> Arc<Block> {
        if let Some(block) = self.as_block() {
            return Arc::clone(block);
        }
        let columns = (0..self.width()).map(|c| self.column(c));
        Arc::new(Block::new(columns.collect(), self.len()))
    }
}

/// Debug check: every output column of `parts` holds the type `schema`
/// gives it, or no value yet. A column the plan types one way and that
/// holds another would panic at the first write that meets a column of
/// its plan type; this names it where it is made. Reads the sources,
/// gathering only a column that would fail. `what` names the rows.
#[cfg(debug_assertions)]
pub(crate) fn check_types<J: std::borrow::Borrow<Joined>>(
    parts: impl IntoIterator<Item = J>,
    schema: &spinner_common::Schema,
    what: impl Fn() -> String,
) {
    for joined in parts {
        let joined = joined.borrow();
        for (c, field) in (0..joined.width()).zip(schema.fields()) {
            let fits = |held| held == spinner_common::DataType::Null || held == field.data_type;
            // A column of another type is gathered: the rows it keeps of its
            // source may hold no value.
            if fits(joined.source_column(joined.source_of(c)).data_type()) {
                continue;
            }
            let held = joined.column(c).data_type();
            if !fits(held) {
                let declared = field.data_type;
                panic!(
                    "{}: column '{}' is {declared} but holds {held}",
                    what(),
                    field.name
                );
            }
        }
    }
}

/// An operator's output: a [`Joined`] per partition, with the schema and
/// placement its gathered rows have.
#[derive(Debug)]
pub(crate) struct Rows {
    pub(crate) schema: SchemaRef,
    pub(crate) parts: Vec<Joined>,
    pub(crate) placed_on: PlacedOn,
}

impl From<Partitioned> for Rows {
    fn from(data: Partitioned) -> Rows {
        Rows {
            schema: data.schema,
            parts: data.parts.into_iter().map(Joined::of).collect(),
            placed_on: data.placed_on,
        }
    }
}

impl Rows {
    /// Rows of every partition.
    pub(crate) fn total_rows(&self) -> usize {
        self.parts.iter().map(Joined::len).sum()
    }

    /// [`PlacedOn::placed_for`] of these rows.
    pub(crate) fn placed_for(&self, on: PlacedOn, parts: usize) -> bool {
        let blocks = self.parts.iter().map(Joined::gather);
        self.placed_on.placed_for(on, parts, blocks)
    }

    /// The first `limit` rows in partition order laid end to end
    /// ([`concat`]).
    pub(crate) fn concat(&self, limit: usize) -> Arc<Block> {
        concat(&self.parts, limit)
    }

    /// [`Partitioned::estimated_bytes`] of the gathered rows, which is
    /// what the rows are charged as, however they are held.
    pub(crate) fn estimated_bytes(&self) -> u64 {
        estimated_bytes(self.total_rows(), self.schema.len())
    }

    /// The rows gathered, a block per partition.
    pub(crate) fn gathered(self) -> Partitioned {
        Partitioned {
            schema: self.schema,
            parts: self.parts.into_iter().map(|j| j.gather()).collect(),
            placed_on: self.placed_on,
        }
    }
}

/// The first `limit` rows of `parts` in order (`usize::MAX`: all of
/// them) laid end to end as one block. Each output column is gathered
/// once, straight from its source columns by the composed row vectors; a
/// padded row ([`NO_ROW`]) reads NULL. A lone occupied part wanted whole
/// is its [`gather`](Joined::gather) — a block's own rows are that block,
/// shared, not copied.
pub(crate) fn concat<'j, I>(parts: I, limit: usize) -> Arc<Block>
where
    I: IntoIterator<Item = &'j Joined>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let Some(first) = parts.clone().next() else {
        return Arc::default();
    };
    let wanted = parts.clone().map(Joined::len).sum::<usize>().min(limit);
    let mut occupied = parts.clone().filter(|j| j.len() > 0);
    match (occupied.next(), occupied.next()) {
        (None, _) => return first.gather(),
        (Some(only), None) if wanted == only.len() => return only.gather(),
        _ => {}
    }
    let column = |c: usize| {
        let mut out = Column::new();
        for joined in parts.clone() {
            let n = joined.len().min(wanted - out.len());
            let source = joined.source_of(c);
            match &joined.rows {
                None => out.extend_from(joined.source_column(source), 0..n as u32),
                Some(rows) => {
                    let rows = rows[source.0][..n].iter().copied();
                    out.extend_from(joined.source_column(source), rows)
                }
            }
        }
        Arc::new(out)
    };
    Arc::new(Block::new((0..first.width()).map(column).collect(), wanted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spinner_common::{row_of, DataType, Field, Row, Schema, Value};

    fn exact(rows: &[Row]) -> String {
        format!("{rows:?}")
    }

    /// Rows `(x, 7)` of the cells `cells`.
    fn block_of(cells: &[Option<i64>]) -> Arc<Block> {
        let row = |x: &Option<i64>| row_of([x.map_or(Value::Null, Value::Int), Value::Int(7)]);
        Arc::new(Block::from_rows(2, cells.iter().map(row)))
    }

    proptest! {
        /// `concat` lays the first `limit` rows of its parts end to end:
        /// two blocks, and a left join of them whose unmatched rows read
        /// NULL on the padded side. A block wanted whole beside an empty
        /// one is shared.
        #[test]
        fn concat_lays_the_first_rows_end_to_end(
            a in proptest::collection::vec(proptest::option::of(0i64..4), 0..12),
            b in proptest::collection::vec(proptest::option::of(0i64..4), 0..12),
            limit in 0usize..30,
        ) {
            let (ba, bb) = (block_of(&a), block_of(&b));
            let parts = [Joined::of(Arc::clone(&ba)), Joined::of(Arc::clone(&bb))];
            let both: Vec<Row> = ba.to_rows().into_iter().chain(bb.to_rows()).take(limit).collect();
            let joined = concat(&parts, limit);
            prop_assert_eq!(exact(&joined.to_rows()), exact(&both));
            if b.is_empty() && limit >= a.len() {
                prop_assert!(Arc::ptr_eq(&joined, &ba) || a.is_empty(), "a whole block is shared");
            }
            // `a ⟕ b` on the first cell: a row of `a` no row of `b` matches
            // pairs with `NO_ROW`.
            let (mut probe, mut build) = (Vec::new(), Vec::new());
            for (p, x) in a.iter().enumerate() {
                let matched: Vec<u32> = (0..b.len() as u32).filter(|&r| x.is_some() && b[r as usize] == *x).collect();
                let pads = if matched.is_empty() { vec![NO_ROW] } else { Vec::new() };
                for r in matched.into_iter().chain(pads) {
                    probe.push(p as u32);
                    build.push(r);
                }
            }
            let left = Joined::of(Arc::clone(&ba)).then(&bb, (probe, build), (JoinType::Left, Some(&[2, 0, 3])));
            let parts = [left.clone(), Joined::of(Arc::clone(&bb)).project(&[0, 0, 1])];
            let laid: Vec<Row> = parts.iter().flat_map(|j| j.gather().to_rows()).take(limit).collect();
            prop_assert_eq!(exact(&concat(&parts, limit).to_rows()), exact(&laid));
        }
    }

    #[cfg(debug_assertions)]
    fn schema(types: [DataType; 3]) -> Schema {
        Schema::new(types.map(|t| Field::new("c", t)).to_vec())
    }

    /// A FLOAT first column whose row 1 holds no value.
    #[cfg(debug_assertions)]
    fn floats() -> Arc<Block> {
        let rows = [
            row_of([Value::Float(2.0), Value::Float(0.0), Value::Null]),
            row_of([Value::Null, Value::Float(1.0), Value::Bool(true)]),
        ];
        Arc::new(Block::from_rows(3, rows))
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_type_check_passes_rows_that_hold_their_types_or_no_value() {
        let rows = [
            row_of([Value::Int(2), Value::Float(-0.0), Value::Null]),
            row_of([Value::Null, Value::Float(f64::NAN), Value::Null]),
            row_of([Value::Int(-1), Value::Float(0.0), Value::Bool(false)]),
        ];
        let block = Arc::new(Block::from_rows(3, rows));
        let typed = schema([DataType::Int, DataType::Float, DataType::Bool]);
        check_types([Joined::of(block)], &typed, || "rows".into());
        // The FLOAT column's kept rows hold no value: it is gathered, and
        // what it keeps fits an INT field.
        let kept = Joined::of(floats()).select(vec![1]);
        check_types([kept], &typed, || "rows".into());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rows: column 'c' is INT but holds FLOAT")]
    fn the_type_check_names_a_column_that_holds_another_type() {
        let typed = schema([DataType::Int, DataType::Float, DataType::Bool]);
        check_types([Joined::of(floats())], &typed, || "rows".into());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rows: column 'c' is INT but holds FLOAT")]
    fn the_type_check_names_a_mistyped_column_that_kept_rows_still_hold() {
        let typed = schema([DataType::Int, DataType::Float, DataType::Bool]);
        let kept = Joined::of(floats()).select(vec![0, 1]);
        check_types([kept], &typed, || "rows".into());
    }
}
