//! A join's output as row numbers.
//!
//! What a join decides is which rows of its two sides meet: for every
//! output row, a row of the probe side and one of the build side
//! ([`NO_ROW`] where an outer join pads a side). [`Joined`] keeps that
//! decision instead of the cells — the source blocks, one row vector per
//! source, and the source column each output column reads — so a reader
//! gathers only what it reads: column `c` of the output is one `gather`
//! of its source column by its source's rows. A join whose probe side is
//! itself a `Joined` composes the row vectors (a `u32` gather per source)
//! instead of gathering the probe side's columns, and an aggregate over a
//! join can number its groups at the rows of the source that holds its
//! group columns (`operators::aggregate_joined`).

use std::sync::Arc;

use spinner_common::{Block, Column, SchemaRef, NO_ROW};
use spinner_plan::{JoinType, PlanExpr};
use spinner_storage::{Partitioned, PlacedOn};

/// One partition of a join's output as row numbers.
#[derive(Debug, Clone)]
pub(crate) struct Joined {
    /// The blocks the output's cells come from: the join chain's first
    /// probe side, then each join's build side.
    sources: Vec<Arc<Block>>,
    /// Per source, the row of it each output row takes; [`NO_ROW`] where a
    /// join padded it.
    rows: Vec<Vec<u32>>,
    /// Per output column, its source and the column of it that it reads.
    columns: Vec<(usize, usize)>,
    /// Whether every join of the chain was an inner or left join, so none
    /// padded the first source: its rows ascend, and none is [`NO_ROW`].
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
    /// The join of `l` (probe side) and `r` by its `(probe, build)` row
    /// numbers, emitting `columns` of `l ∥ r` (every one, for `None`).
    pub(crate) fn pair(
        (l, r): (&Arc<Block>, &Arc<Block>),
        (probe, build): (Vec<u32>, Vec<u32>),
        (join_type, columns): (JoinType, Option<&[usize]>),
    ) -> Joined {
        let width = l.columns().len();
        let source = |c: usize| c.checked_sub(width).map_or((0, c), |c| (1, c));
        Joined {
            sources: vec![Arc::clone(l), Arc::clone(r)],
            rows: vec![probe, build],
            columns: emitted(columns, width + r.columns().len(), source),
            first_unpadded: matches!(join_type, JoinType::Inner | JoinType::Left),
        }
    }

    /// This output as the probe side of a join that paired its rows with
    /// rows of `r` by `(probe, build)`: each source's rows taken at
    /// `probe` — a padded probe row takes none — and `r` a source beside
    /// them.
    pub(crate) fn then(
        &self,
        r: &Arc<Block>,
        (probe, build): (Vec<u32>, Vec<u32>),
        (join_type, columns): (JoinType, Option<&[usize]>),
    ) -> Joined {
        let (width, added) = (self.width(), self.sources.len());
        let at = |rows: &Vec<u32>| -> Vec<u32> {
            let row = |p: &u32| rows.get(*p as usize).copied().unwrap_or(NO_ROW);
            probe.iter().map(row).collect()
        };
        let mut rows: Vec<Vec<u32>> = self.rows.iter().map(at).collect();
        rows.push(build);
        let mut sources = self.sources.clone();
        sources.push(Arc::clone(r));
        let source = |c: usize| match c.checked_sub(width) {
            None => self.columns[c],
            Some(c) => (added, c),
        };
        Joined {
            sources,
            rows,
            columns: emitted(columns, width + r.columns().len(), source),
            first_unpadded: self.first_unpadded
                && matches!(join_type, JoinType::Inner | JoinType::Left),
        }
    }

    /// Output rows.
    pub(crate) fn len(&self) -> usize {
        self.rows[0].len()
    }

    /// Output columns.
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// The source and the column of it that output column `c` reads.
    pub(crate) fn source_of(&self, c: usize) -> (usize, usize) {
        self.columns[c]
    }

    /// The first source and its row vector, if no join padded it.
    pub(crate) fn first_source(&self) -> Option<(&Arc<Block>, &[u32])> {
        self.first_unpadded
            .then(|| (&self.sources[0], &self.rows[0][..]))
    }

    /// Output column `c`, gathered.
    fn column(&self, c: usize) -> Arc<Column> {
        let (s, k) = self.columns[c];
        Arc::new(self.sources[s].columns()[k].gather(&self.rows[s]))
    }

    /// The output's [`read_block`]: only the columns `read` are gathered.
    pub(crate) fn block(&self, read: &[usize]) -> Block {
        read_block((self.width(), self.len()), read, |c| self.column(c))
    }

    /// Every output column, gathered.
    pub(crate) fn gather(&self) -> Arc<Block> {
        let columns = (0..self.width()).map(|c| self.column(c));
        Arc::new(Block::new(columns.collect(), self.len()))
    }

    /// Output columns `picked`, in that order.
    pub(crate) fn project(self, picked: &[usize]) -> Joined {
        let columns = picked.iter().map(|&c| self.columns[c]).collect();
        Joined { columns, ..self }
    }

    /// Debug check: the first output column whose source column holds a
    /// type other than `schema` gives it, and that type, if its gathered
    /// cells hold one too. Reads the sources, gathering only a column
    /// that would fail.
    #[cfg(debug_assertions)]
    fn mistyped(&self, schema: &spinner_common::Schema) -> Option<(String, String)> {
        let fields = schema.fields().iter().enumerate();
        fields.into_iter().find_map(|(c, field)| {
            let (s, k) = self.columns[c];
            let held = self.sources[s].columns()[k].data_type();
            if held == spinner_common::DataType::Null || held == field.data_type {
                return None;
            }
            let held = self.column(c).data_type();
            let wrong = held != spinner_common::DataType::Null && held != field.data_type;
            wrong.then(|| {
                (
                    field.name.clone(),
                    format!("{} but holds {held}", field.data_type),
                )
            })
        })
    }
}

/// One partition of a join's probe side.
#[derive(Clone, Copy)]
pub(crate) enum Probe<'a> {
    /// Rows in a block.
    Rows(&'a Arc<Block>),
    /// Another join's output, as row numbers.
    Joined(&'a Joined),
}

/// An operator's output as a reader that can take a join's row numbers
/// takes it.
#[derive(Debug)]
pub(crate) enum Rows {
    /// Gathered rows, a block per partition.
    Blocks(Partitioned),
    /// A join's output, a [`Joined`] per partition, with the schema and
    /// placement its gathered rows would have.
    Joined {
        schema: SchemaRef,
        parts: Vec<Joined>,
        placed_on: PlacedOn,
    },
}

impl Rows {
    /// The partitions.
    pub(crate) fn partitions(&self) -> usize {
        match self {
            Rows::Blocks(data) => data.parts.len(),
            Rows::Joined { parts, .. } => parts.len(),
        }
    }

    /// Rows of partition `i`.
    pub(crate) fn rows_in(&self, i: usize) -> usize {
        match self {
            Rows::Blocks(data) => data.parts[i].rows(),
            Rows::Joined { parts, .. } => parts[i].len(),
        }
    }

    /// Rows of every partition.
    pub(crate) fn total_rows(&self) -> usize {
        (0..self.partitions()).map(|i| self.rows_in(i)).sum()
    }

    /// Partition `i` as a join's probe side.
    pub(crate) fn probe(&self, i: usize) -> Probe<'_> {
        match self {
            Rows::Blocks(data) => Probe::Rows(&data.parts[i]),
            Rows::Joined { parts, .. } => Probe::Joined(&parts[i]),
        }
    }

    /// The columns the rows are placed on.
    pub(crate) fn placed_on(&self) -> PlacedOn {
        match self {
            Rows::Blocks(data) => data.placed_on,
            Rows::Joined { placed_on, .. } => *placed_on,
        }
    }

    /// The same rows, placed on `on`.
    pub(crate) fn placed(self, on: PlacedOn) -> Rows {
        match self {
            Rows::Blocks(data) => Rows::Blocks(Partitioned {
                placed_on: on,
                ..data
            }),
            Rows::Joined { schema, parts, .. } => Rows::Joined {
                schema,
                parts,
                placed_on: on,
            },
        }
    }

    /// [`Partitioned::placed_for`] of the gathered rows.
    pub(crate) fn placed_for(&self, on: PlacedOn, parts: usize) -> bool {
        match self {
            Rows::Blocks(data) => data.placed_for(on, parts),
            Rows::Joined { .. } => {
                let placed =
                    on != PlacedOn::UNKNOWN && self.placed_on() == on && self.partitions() == parts;
                debug_assert!(!placed || self.gathered().placed_for(on, parts));
                placed
            }
        }
    }

    /// [`Partitioned::estimated_bytes`] of the gathered rows, which is
    /// what the rows are charged as, whichever way they are held.
    pub(crate) fn estimated_bytes(&self) -> u64 {
        match self {
            Rows::Blocks(data) => data.estimated_bytes(),
            Rows::Joined { schema, .. } => {
                self.total_rows() as u64 * (16 + 24 * schema.len() as u64)
            }
        }
    }

    /// The rows gathered, a block per partition.
    pub(crate) fn gathered(&self) -> Partitioned {
        match self {
            Rows::Blocks(data) => data.clone(),
            Rows::Joined {
                schema,
                parts,
                placed_on,
            } => {
                let data = Partitioned {
                    schema: Arc::clone(schema),
                    parts: parts.iter().map(Joined::gather).collect(),
                    placed_on: *placed_on,
                };
                debug_assert_eq!(data.estimated_bytes(), self.estimated_bytes());
                data
            }
        }
    }

    /// [`gathered`](Self::gathered), taking the rows.
    pub(crate) fn into_blocks(self) -> Partitioned {
        match self {
            Rows::Blocks(data) => data,
            joined => joined.gathered(),
        }
    }

    /// Debug check: what [`check_types`](crate::operators) checks of the
    /// gathered rows, gathering only a column that would fail it.
    #[cfg(debug_assertions)]
    pub(crate) fn check_types(&self, schema: &spinner_common::Schema, what: impl Fn() -> String) {
        match self {
            Rows::Blocks(data) => crate::operators::check_types(data, schema, what),
            Rows::Joined { parts, .. } => {
                if let Some((name, wrong)) = parts.iter().find_map(|j| j.mistyped(schema)) {
                    panic!("{}: column '{name}' is {wrong}", what());
                }
            }
        }
    }
}
