//! Hash partitioning of row sets across virtual MPP workers.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use spinner_common::{Block, Cell, Column, Row, SchemaRef, Value};

/// Rows distributed across `P` partitions, each an immutable snapshot.
///
/// This is the shape scans produce, exchanges reshuffle, and the temp
/// registry stores. Cloning is O(P) `Arc` bumps.
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// Schema of every partition.
    pub schema: SchemaRef,
    /// One immutable column block per virtual worker.
    pub parts: Vec<Arc<Block>>,
    /// The key every row was placed by, when it is known.
    pub placed_on: PlacedOn,
}

/// The key columns whose [`placement`] put every row of a [`Partitioned`]
/// in its partition, for the partition count it holds — or
/// [`UNKNOWN`](Self::UNKNOWN): the rows may be anywhere. At most four
/// columns, held inline, so the tag is `Copy` and carrying it allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedOn {
    len: u8,
    columns: [usize; 4],
}

impl PlacedOn {
    /// Rows whose placement is not known.
    pub const UNKNOWN: PlacedOn = PlacedOn {
        len: 0,
        columns: [0; 4],
    };

    /// Placed on `columns`, in that order; unknown when one of them is not
    /// a column (`None`), or there are none or more than four.
    pub fn new(columns: impl IntoIterator<Item = Option<usize>>) -> PlacedOn {
        let mut on = PlacedOn::UNKNOWN;
        for column in columns {
            match column {
                Some(c) if on.len < 4 => {
                    on.columns[usize::from(on.len)] = c;
                    on.len += 1;
                }
                _ => return PlacedOn::UNKNOWN,
            }
        }
        on
    }

    /// The key columns, in key order; none when unknown.
    pub fn columns(&self) -> &[usize] {
        &self.columns[..usize::from(self.len)]
    }

    /// The same placement after an operator moved column `c` to `to(c)`;
    /// unknown when `to` drops one of the key columns.
    pub fn remap(self, to: impl Fn(usize) -> Option<usize>) -> PlacedOn {
        PlacedOn::new(self.columns().iter().map(|&c| to(c)))
    }

    /// Whether rows tagged `self`, a block per partition in `blocks`, sit
    /// where [`placement`] of the columns `on` puts them among `parts`
    /// partitions — so placing them on `on` would move none, and needs no
    /// row hashed. The tag decides; only debug builds read the blocks, to
    /// check every row against it.
    pub fn placed_for<B: Borrow<Block>>(
        self,
        on: PlacedOn,
        parts: usize,
        mut blocks: impl ExactSizeIterator<Item = B>,
    ) -> bool {
        let placed = on != PlacedOn::UNKNOWN && self == on && blocks.len() == parts;
        debug_assert!(
            !placed || (blocks.by_ref().enumerate()).all(|(p, b)| on.holds(b.borrow(), p, parts)),
            "rows tagged as placed on columns {:?} are not",
            on.columns()
        );
        placed
    }

    /// Whether every row of `block` belongs in partition `part` of `parts`
    /// by [`placement`] of these columns: its rule, applied a row at a time
    /// without allocating — the check debug builds make of every exchange
    /// that trusts a tag.
    pub fn holds(&self, block: &Block, part: usize, parts: usize) -> bool {
        let key = |c: usize| &block.columns()[c];
        let target = |row: usize| match self.columns() {
            [] => 0,
            [c] if key(*c).is_null(row) => 0,
            columns => {
                let mut h = DefaultHasher::new();
                columns.iter().for_each(|&c| key(c).cell(row).hash(&mut h));
                h.finish() % parts as u64
            }
        };
        (0..block.rows()).all(|row| target(row) == part as u64)
    }
}

/// Estimated in-memory size in bytes of `rows` rows of `width` columns,
/// used for intermediate-state budgets: per row, a boxed-slice header plus
/// one `Value` slot per column. This is a *logical* size — what the rows
/// would take as heap rows, deliberately under-counting string payloads —
/// and not what the column blocks occupy: budgets, the choice of spill
/// victims and `checkpoint_bytes` need a stable, cheap estimate that does
/// not move when the representation does.
pub fn estimated_bytes(rows: usize, width: usize) -> u64 {
    rows as u64 * (16 + 24 * width as u64)
}

impl Partitioned {
    /// All rows gathered into a single empty-partition layout.
    pub fn empty(schema: SchemaRef, partitions: usize) -> Self {
        let block = Arc::new(Block::empty(schema.len()));
        Partitioned {
            schema,
            parts: vec![block; partitions],
            placed_on: PlacedOn::UNKNOWN,
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Total row count across partitions.
    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(|p| p.rows()).sum()
    }

    /// [`estimated_bytes`] of these rows.
    pub fn estimated_bytes(&self) -> u64 {
        estimated_bytes(self.total_rows(), self.schema.len())
    }

    /// [`PlacedOn::placed_for`] of these rows.
    pub fn placed_for(&self, on: PlacedOn, parts: usize) -> bool {
        let blocks = self.parts.iter().map(|b| &**b);
        self.placed_on.placed_for(on, parts, blocks)
    }

    /// Whether `parts` are the very same buffers as this row set's,
    /// partition by partition — not merely equal rows.
    ///
    /// The same buffers are the same rows only while their cells cannot
    /// change. A loop's in-place merge or append keeps a table's `Arc`s
    /// while it writes their cells (`Arc::make_mut` writes where nothing
    /// else holds the block), so identity proves content to a holder of
    /// the buffers — `self` holding them, as a cached join build holds its
    /// sources, makes `make_mut` copy instead — and otherwise only for
    /// temps the loop never writes.
    pub fn same_buffers(&self, parts: &[Arc<Block>]) -> bool {
        self.parts.len() == parts.len()
            && self.parts.iter().zip(parts).all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Every partition's rows as heap rows, in partition order.
    pub fn gather(&self) -> Vec<Row> {
        self.take_rows(usize::MAX)
    }

    /// The first `limit` rows in partition order (`usize::MAX`: all of
    /// them) as heap rows.
    pub fn take_rows(&self, limit: usize) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.total_rows().min(limit));
        for part in &self.parts {
            part.push_rows(limit - out.len(), &mut out);
        }
        out
    }

    /// Build from a flat row vector by hashing column `key` into `parts`
    /// partitions; NULL keys go to partition 0. `key = None` distributes
    /// round-robin. Rows keep their order within a partition.
    pub fn from_rows(schema: SchemaRef, rows: Vec<Row>, key: Option<usize>, parts: usize) -> Self {
        let block = Arc::new(Block::from_rows(schema.len(), rows));
        let rows = Partitioned {
            schema,
            parts: vec![block],
            placed_on: PlacedOn::UNKNOWN,
        };
        Partitioned {
            parts: rows.route(key, parts),
            schema: rows.schema,
            placed_on: PlacedOn::new(key.map(Some)),
        }
    }

    /// These rows placed into `parts` partitions the way a table
    /// distributed on column `key` places them: by [`placement`] of the
    /// key (NULL to partition 0), or with `key = None` round-robin by
    /// row number in partition order. Rows keep their order within a
    /// partition.
    pub fn route(&self, key: Option<usize>, parts: usize) -> Vec<Arc<Block>> {
        let mut before = 0;
        let targets: Vec<Vec<u32>> = (self.parts.iter())
            .map(|block| {
                let rows = before..before + block.rows();
                before = rows.end;
                match key {
                    Some(k) => placement(&block.columns()[k..=k], block.rows(), parts),
                    None => rows.map(|row| (row % parts) as u32).collect(),
                }
            })
            .collect();
        self.scatter(&targets, parts)
    }

    /// The `parts` partitions `targets` sends these rows to — a target
    /// per row of each partition — each column gathered once per target,
    /// source by source in partition then row order.
    pub fn scatter(&self, targets: &[Vec<u32>], parts: usize) -> Vec<Arc<Block>> {
        let bound_for = |targets: &Vec<u32>| {
            let mut rows = vec![Vec::new(); parts];
            for (row, &target) in targets.iter().enumerate() {
                rows[target as usize].push(row as u32);
            }
            rows
        };
        let rows: Vec<Vec<Vec<u32>>> = targets.iter().map(bound_for).collect();
        let part = |target: usize| {
            let column = |c: usize| {
                let mut out = Column::new();
                for (block, rows) in self.parts.iter().zip(&rows) {
                    out.extend_from(&block.columns()[c], rows[target].iter().copied());
                }
                Arc::new(out)
            };
            let count = rows.iter().map(|rows| rows[target].len()).sum();
            Arc::new(Block::new(
                (0..self.schema.len()).map(column).collect(),
                count,
            ))
        };
        (0..parts).map(part).collect()
    }
}

/// The partition of every row of a key held in `keys`, one column per
/// key expression: a one-column key goes where [`partition_of`] sends
/// its cell (NULL to partition 0), a longer key by the same hash fed all
/// of its cells, and rows without a key stay in partition 0. Stored
/// tables, checkpoints and resumed loops were placed by this rule.
pub fn placement(keys: &[Arc<Column>], rows: usize, parts: usize) -> Vec<u32> {
    assert!(parts > 0, "at least one partition required");
    let place = |cell: Cell<'_>| {
        let mut h = DefaultHasher::new();
        cell.hash(&mut h);
        (h.finish() % parts as u64) as u32
    };
    match keys {
        [] => vec![0; rows],
        [key] => match &**key {
            Column::Int(data, nulls) if !nulls.any() => {
                data.iter().map(|x| place(Cell::Int(*x))).collect()
            }
            key => (0..rows)
                .map(|row| match key.cell(row) {
                    Cell::Null => 0,
                    cell => place(cell),
                })
                .collect(),
        },
        _ => {
            let mut hashers = vec![DefaultHasher::new(); rows];
            for key in keys {
                key.hash_into(&mut hashers);
            }
            let place = |h: &DefaultHasher| (h.finish() % parts as u64) as u32;
            hashers.iter().map(place).collect()
        }
    }
}

/// Partition index for a value under `parts` partitions: its hash modulo
/// `parts`. The hash is `DefaultHasher::new()`, whose keys are fixed, so a
/// value lands in the same partition in every process running one build:
/// a checkpoint read back from disk, or an epoch another process resumes
/// from its journal, is placed as the run that wrote it placed it. The
/// standard library does not promise that algorithm across Rust releases,
/// so the promise holds between processes of one build, not across builds.
pub fn partition_of(v: &Value, parts: usize) -> usize {
    debug_assert!(parts > 0);
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema};

    fn rows_with_keys(keys: &[i64]) -> Vec<Row> {
        keys.iter().map(|k| row_of([Value::Int(*k)])).collect()
    }

    /// `rows` of one column split into `parts` buckets by `from_rows`.
    fn hash_partition(rows: Vec<Row>, key: Option<usize>, parts: usize) -> Vec<Vec<Row>> {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let placed = Partitioned::from_rows(schema, rows, key, parts);
        placed.parts.iter().map(|part| part.to_rows()).collect()
    }

    #[test]
    fn partitioning_is_deterministic_and_complete() {
        let rows = rows_with_keys(&(0..100).collect::<Vec<_>>());
        let a = hash_partition(rows.clone(), Some(0), 4);
        let b = hash_partition(rows, Some(0), 4);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 100);
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let rows = rows_with_keys(&[7, 7, 7, 7]);
        let parts = hash_partition(rows, Some(0), 8);
        let non_empty: Vec<_> = parts.iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(non_empty[0].len(), 4);
    }

    #[test]
    fn null_keys_go_to_partition_zero() {
        let rows = vec![row_of([Value::Null]), row_of([Value::Null])];
        let parts = hash_partition(rows, Some(0), 4);
        assert_eq!(parts[0].len(), 2);
    }

    #[test]
    fn round_robin_balances() {
        let rows = rows_with_keys(&(0..8).collect::<Vec<_>>());
        let parts = hash_partition(rows, None, 4);
        assert!(parts.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn int_and_float_keys_colocate() {
        // Joins rely on Int(2) and Float(2.0) hashing identically.
        assert_eq!(
            partition_of(&Value::Int(2), 16),
            partition_of(&Value::Float(2.0), 16)
        );
    }

    #[test]
    fn gather_roundtrip() {
        let schema = std::sync::Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let rows = rows_with_keys(&[1, 2, 3, 4, 5]);
        let p = Partitioned::from_rows(schema, rows.clone(), Some(0), 3);
        assert_eq!(p.total_rows(), 5);
        let mut gathered = p.gather();
        gathered.sort();
        assert_eq!(gathered, rows);
    }

    /// A tag names one to four columns, and its check agrees with
    /// `placement`: rows scattered by it hold in their partition and in no
    /// other.
    #[test]
    fn a_tag_holds_exactly_where_placement_put_the_rows() {
        assert_eq!(PlacedOn::new([Some(2), Some(0)]).columns(), [2, 0]);
        assert_eq!(PlacedOn::new([Some(1), None]), PlacedOn::UNKNOWN);
        assert_eq!(PlacedOn::new([Some(0); 5]), PlacedOn::UNKNOWN);
        let moved = PlacedOn::new([Some(3), Some(1)]).remap(|c| c.checked_sub(1));
        assert_eq!(moved.columns(), [2, 0]);
        let dropped = PlacedOn::new([Some(0)]).remap(|c| c.checked_sub(1));
        assert_eq!(dropped, PlacedOn::UNKNOWN);
        // An INT column beside a FLOAT one holding the same numbers.
        let cells = [Some(2), None, Some(-9), Some(0), Some(7)];
        let cell = |x: Option<i64>, float: bool| match (x, float) {
            (None, _) => Value::Null,
            (Some(x), false) => Value::Int(x),
            (Some(x), true) => Value::Float(x as f64),
        };
        let pairs = cells.iter().flat_map(|&a| {
            cells
                .iter()
                .map(move |&b| row_of([cell(a, false), cell(b, true)]))
        });
        let block = Arc::new(Block::from_rows(2, pairs));
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("f", DataType::Float),
        ]));
        let data = Partitioned {
            schema,
            parts: vec![Arc::clone(&block)],
            placed_on: PlacedOn::UNKNOWN,
        };
        for parts in [1, 3, 4] {
            for on in [&[0][..], &[1, 0]] {
                let keys: Vec<_> = on
                    .iter()
                    .map(|&c| Arc::clone(&block.columns()[c]))
                    .collect();
                let placed = data.scatter(&[placement(&keys, block.rows(), parts)], parts);
                let tag = PlacedOn::new(on.iter().map(|&c| Some(c)));
                for (p, part) in placed.iter().enumerate() {
                    assert!(tag.holds(part, p, parts));
                    let elsewhere = (p + 1) % parts;
                    assert!(part.is_empty() || parts == 1 || !tag.holds(part, elsewhere, parts));
                }
            }
        }
    }

    #[test]
    fn take_rows_stops_at_the_limit_in_partition_order() {
        let schema = std::sync::Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let p = Partitioned::from_rows(schema, rows_with_keys(&[1, 2, 3, 4, 5, 6]), None, 3);
        let all = p.gather();
        assert_eq!(all, rows_with_keys(&[1, 4, 2, 5, 3, 6]));
        for limit in [0, 1, 2, 3, 6, 9] {
            assert_eq!(p.take_rows(limit), all[..limit.min(6)]);
        }
        assert_eq!(p.estimated_bytes(), 6 * (16 + 24), "a logical size");
    }

    /// Typed placement is `partition_of` over the cells: ints, floats (`2`
    /// beside `2.0`, both zeroes, NaN), NULL, text and booleans, whatever
    /// the column holding them is typed as; longer keys hash all their
    /// cells.
    #[test]
    fn placement_equals_partition_of_the_cells() {
        let cells = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Text("ab".into()),
            Value::Bool(true),
            Value::Int(-9),
        ];
        let column = |pick: &dyn Fn(&Value) -> bool| {
            let rows = cells
                .iter()
                .filter(|c| pick(c))
                .map(|c| row_of([c.clone()]));
            let kept: Vec<Value> = cells.iter().filter(|c| pick(c)).cloned().collect();
            (Arc::clone(&Block::from_rows(1, rows).columns()[0]), kept)
        };
        let columns = [
            column(&|c| matches!(c, Value::Int(_) | Value::Null)),
            column(&|c| matches!(c, Value::Float(_) | Value::Null)),
            column(&|c| matches!(c, Value::Text(_) | Value::Null)),
            column(&|c| matches!(c, Value::Bool(_) | Value::Null)),
        ];
        for parts in [1, 2, 3, 16] {
            for (column, cells) in &columns {
                let want: Vec<u32> = cells
                    .iter()
                    .map(|c| {
                        if c.is_null() {
                            0
                        } else {
                            partition_of(c, parts) as u32
                        }
                    })
                    .collect();
                let keys = [Arc::clone(column)];
                assert_eq!(placement(&keys, cells.len(), parts), want);
                // Two cells: one hash fed both, NULLs included.
                let pair = [Arc::clone(column), Arc::clone(column)];
                let want: Vec<u32> = cells
                    .iter()
                    .map(|c| {
                        let mut h = DefaultHasher::new();
                        c.hash(&mut h);
                        c.hash(&mut h);
                        (h.finish() % parts as u64) as u32
                    })
                    .collect();
                assert_eq!(placement(&pair, cells.len(), parts), want);
            }
            assert_eq!(placement(&[], 3, parts), [0, 0, 0]);
        }
        let ((ints, _), (floats, _)) = (&columns[0], &columns[1]);
        assert_eq!(
            placement(&[Arc::clone(ints)], 1, 16),
            placement(&[Arc::clone(floats)], 1, 16),
            "2 and 2.0 colocate"
        );
    }
}
