//! Base tables: schema + partitioned, copy-on-write column storage.

use std::sync::Arc;

use spinner_common::{Block, Error, Result, Row, SchemaRef};

use crate::partition::{Partitioned, PlacedOn};

/// A named base table, hash-partitioned across the configured number of
/// virtual workers.
///
/// Storage is copy-on-write: readers snapshot the per-partition `Arc`s and
/// a writer replaces the block of each partition it changes. DML works on
/// blocks: `INSERT` appends a partitioned result routed by the table's
/// distribution rule, and `UPDATE` and `DELETE` compute each partition's
/// new block from a snapshot (`spinner_exec::dml`) and install them all
/// at once. Only a bulk load arrives as heap rows. This mirrors an MPP
/// engine where scans never block on DML of other sessions.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    parts: Vec<Arc<Block>>,
    /// Column the table is hash-distributed on. `None` = round-robin.
    partition_key: Option<usize>,
    /// Declared primary-key column, used as the merge key of iterative CTE
    /// updates when present (paper §II).
    primary_key: Option<usize>,
}

impl Table {
    /// Create an empty table with `partitions` partitions.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        partitions: usize,
        partition_key: Option<usize>,
        primary_key: Option<usize>,
    ) -> Self {
        assert!(partitions >= 1);
        // Immutable, so the partitions can share the one empty block.
        let empty = Arc::new(Block::empty(schema.len()));
        Table {
            name: name.into(),
            parts: vec![empty; partitions],
            schema,
            partition_key,
            primary_key,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Declared primary-key column index, if any.
    pub fn primary_key(&self) -> Option<usize> {
        self.primary_key
    }

    /// Column the table is distributed on, if any.
    pub fn partition_key(&self) -> Option<usize> {
        self.partition_key
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.parts.iter().map(|p| p.rows()).sum()
    }

    /// O(P) snapshot of the current contents for scanning, placed on the
    /// distribution key.
    pub fn snapshot(&self) -> Partitioned {
        Partitioned {
            schema: Arc::clone(&self.schema),
            parts: self.parts.clone(),
            placed_on: PlacedOn::new(self.partition_key.map(Some)),
        }
    }

    /// Whether the table still holds exactly `snapshot`'s partition
    /// buffers: no DML has replaced or grown one since it was taken (while
    /// a snapshot is held, a write copies rather than grows in place).
    pub fn holds(&self, snapshot: &Partitioned) -> bool {
        snapshot.same_buffers(&self.parts)
    }

    /// Append heap rows (a bulk load): each cell cast to its column's
    /// declared type by the rule SQL `CAST` follows
    /// ([`Value::cast`](spinner_common::Value::cast)), then
    /// transposed once into a block and [`append`](Self::append)ed. A cell
    /// that does not cast is an error naming the table and column, and
    /// nothing is appended.
    pub fn insert(&mut self, mut rows: Vec<Row>) -> Result<usize> {
        let width = self.schema.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(Error::execution(format!(
                "INSERT row width {} does not match table '{}' width {width}",
                bad.len(),
                self.name
            )));
        }
        for row in &mut rows {
            for (cell, field) in row.iter_mut().zip(self.schema.fields()) {
                if !cell.is_null() && cell.data_type() != field.data_type {
                    *cell = cell.cast(field.data_type).map_err(|e| {
                        let column = format!("column '{}' of table '{}'", field.name, self.name);
                        Error::type_error(format!("{column}: {e}"))
                    })?;
                }
            }
        }
        let rows = Partitioned {
            schema: Arc::clone(&self.schema),
            parts: vec![Arc::new(Block::from_rows(width, rows))],
            placed_on: PlacedOn::UNKNOWN,
        };
        self.append(&rows)
    }

    /// Append `rows`, in partition order, each routed to the partition the
    /// table's distribution rule places it in ([`Partitioned::route`]).
    /// Rows already placed on the distribution column at the table's
    /// partition count ([`Partitioned::placed_for`]) are in those
    /// partitions: their blocks are appended as they are, no row routed.
    /// Returns the number of rows appended.
    pub fn append(&mut self, rows: &Partitioned) -> Result<usize> {
        let width = self.schema.len();
        if rows.schema.len() != width {
            return Err(Error::execution(format!(
                "INSERT row width {} does not match table '{}' width {width}",
                rows.schema.len(),
                self.name
            )));
        }
        let routed = match rows.placed_for(PlacedOn::new([self.partition_key]), self.parts.len()) {
            true => rows.parts.clone(),
            false => rows.route(self.partition_key, self.parts.len()),
        };
        // An empty partition takes the routed block as it is (a bulk load
        // copies nothing); one with rows grows in place — O(new rows) —
        // unless a snapshot still shares its block.
        for (part, extra) in self.parts.iter_mut().zip(routed) {
            if part.is_empty() {
                *part = extra;
            } else if !extra.is_empty() {
                Arc::make_mut(part).append(&extra);
            }
        }
        Ok(rows.total_rows())
    }

    /// Install `parts` as the table's partitions: the new contents of a
    /// DELETE or UPDATE, every block computed before any is installed.
    pub fn replace(&mut self, parts: Vec<Arc<Block>>) {
        assert_eq!(parts.len(), self.parts.len(), "one block per partition");
        self.parts = parts;
    }

    /// Remove every row (`DELETE` without `WHERE`).
    pub fn truncate(&mut self) {
        let empty = Arc::new(Block::empty(self.schema.len()));
        self.parts.fill(empty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema, Value};

    fn test_table() -> Table {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        Table::new("t", schema, 4, Some(0), Some(0))
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| row_of([Value::Int(i), Value::Int(i * 10)]))
            .collect()
    }

    #[test]
    fn insert_routes_and_counts() {
        let mut t = test_table();
        assert_eq!(t.insert(rows(20)).unwrap(), 20);
        assert_eq!(t.row_count(), 20);
    }

    /// Repeated INSERTs cost what they add: a partition no snapshot shares
    /// grows in place — same block, same column buffers — and one that a
    /// snapshot shares is copied once, the snapshot keeping what it saw.
    #[test]
    fn insert_appends_in_place_unless_a_snapshot_shares_the_partition() {
        let buffers = |t: &Table| -> Vec<_> {
            let columns = |p: &Arc<Block>| p.columns().iter().map(Arc::as_ptr).collect::<Vec<_>>();
            t.parts
                .iter()
                .map(|p| (Arc::as_ptr(p), columns(p)))
                .collect()
        };
        let mut t = test_table();
        t.insert(rows(20)).unwrap();
        t.insert(rows(20)).unwrap();
        let before = buffers(&t);
        for _ in 0..50 {
            t.insert(rows(20)).unwrap();
        }
        assert_eq!(buffers(&t), before, "grown in place");
        let snapshot = t.snapshot();
        t.insert(rows(20)).unwrap();
        let after = buffers(&t);
        assert!(before.iter().zip(&after).all(|(b, a)| b.0 != a.0));
        assert_eq!((snapshot.total_rows(), t.row_count()), (1040, 1060));
        let mut ids: Vec<i64> = t
            .snapshot()
            .gather()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).flat_map(|i| [i; 53]).collect::<Vec<_>>());
    }

    /// Rows placed on the distribution key at the table's partition count
    /// are appended as they are: an empty table takes their very blocks.
    /// Rows placed on another column or for another partition count are
    /// routed, and land where the key places them all the same.
    #[test]
    fn append_takes_rows_placed_on_the_key_as_they_are() {
        let schema = Arc::clone(test_table().schema());
        let placed = |key: usize, parts: usize| {
            Partitioned::from_rows(Arc::clone(&schema), rows(20), Some(key), parts)
        };
        let (source, mut t) = (placed(0, 4), test_table());
        assert_eq!(t.append(&source).unwrap(), 20);
        assert!(t.holds(&source), "an empty table takes the placed blocks");
        for other in [placed(1, 4), placed(0, 3)] {
            let mut routed = test_table();
            routed.append(&other).unwrap();
            assert!(!routed.holds(&other));
            let sorted = |t: &Table| -> Vec<Vec<Row>> {
                let part = |p: &Arc<Block>| {
                    let mut rows = p.to_rows();
                    rows.sort();
                    rows
                };
                t.parts.iter().map(part).collect()
            };
            assert_eq!(sorted(&routed), sorted(&t));
        }
    }

    /// A bulk load casts each cell to its column's type: an INT into a
    /// FLOAT column is a FLOAT, `'7'` into an INT column is 7. A cell that
    /// does not cast fails the load, naming the column, and appends none
    /// of its rows.
    #[test]
    fn insert_casts_each_cell_to_its_columns_type() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("w", DataType::Float),
        ]));
        let mut t = Table::new("t", schema, 2, Some(0), None);
        let loaded = vec![
            row_of([Value::Int(1), Value::Int(2)]),
            row_of([Value::from("7"), Value::Null]),
        ];
        assert_eq!(t.insert(loaded).unwrap(), 2);
        let mut held = format!("{:?}", t.snapshot().gather());
        held.retain(|c| c != ' ');
        assert!(
            held.contains("[Int(1),Float(2.0)]") && held.contains("[Int(7),Null]"),
            "{held}"
        );
        let bad = vec![
            row_of([Value::Int(3), Value::Float(0.5)]),
            row_of([Value::from("abc"), Value::Null]),
        ];
        let err = t.insert(bad).unwrap_err().to_string();
        assert!(
            err.contains("column 'id' of table 't'") && err.contains("'abc'"),
            "{err}"
        );
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn insert_rejects_wrong_width() {
        let mut t = test_table();
        assert!(t.insert(vec![row_of([Value::Int(1)])]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn snapshot_is_isolated_from_later_dml() {
        let mut t = test_table();
        t.insert(rows(10)).unwrap();
        let snap = t.snapshot();
        t.insert(rows(10)).unwrap();
        assert_eq!(snap.total_rows(), 10);
        assert_eq!(t.row_count(), 20);
    }

    #[test]
    fn truncate_empties_all_partitions() {
        let mut t = test_table();
        t.insert(rows(10)).unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
    }
}
