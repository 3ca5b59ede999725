//! Base tables: schema + partitioned, copy-on-write column storage.

use std::sync::Arc;

use spinner_common::{Block, Error, Result, Row, SchemaRef, Value};

use crate::partition::{partition_of, Partitioned};

/// A named base table, hash-partitioned across the configured number of
/// virtual workers.
///
/// Storage is copy-on-write: readers snapshot the per-partition `Arc`s and
/// a writer replaces the block of each partition it changes. DML is a row
/// edge — rows come in as heap rows and predicates see one row at a time —
/// so this is where rows are transposed into columns and back. This
/// mirrors an MPP engine where scans never block on DML of other sessions.
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

    /// O(P) snapshot of the current contents for scanning.
    pub fn snapshot(&self) -> Partitioned {
        Partitioned {
            schema: Arc::clone(&self.schema),
            parts: self.parts.clone(),
        }
    }

    /// Whether the table still holds exactly `snapshot`'s partition
    /// buffers: no DML has replaced or grown one since it was taken (while
    /// a snapshot is held, a write copies rather than grows in place).
    pub fn holds(&self, snapshot: &Partitioned) -> bool {
        snapshot.same_buffers(&self.parts)
    }

    /// Append rows, routing each to its hash partition.
    pub fn insert(&mut self, rows: Vec<Row>) -> Result<usize> {
        let width = self.schema.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(Error::execution(format!(
                "INSERT row width {} does not match table '{}' width {width}",
                bad.len(),
                self.name
            )));
        }
        let n = rows.len();
        self.append(rows);
        Ok(n)
    }

    fn append(&mut self, rows: Vec<Row>) {
        let schema = Arc::clone(&self.schema);
        let routed = Partitioned::from_rows(schema, rows, self.partition_key, self.parts.len());
        // An empty partition takes the routed block as it is (a bulk load
        // copies nothing); one with rows grows in place — O(new rows) —
        // unless a snapshot still shares its block.
        for (part, extra) in self.parts.iter_mut().zip(routed.parts) {
            if part.is_empty() {
                *part = extra;
            } else if !extra.is_empty() {
                Arc::make_mut(part).append(&extra);
            }
        }
    }

    /// Delete rows matching `pred`; returns the number removed.
    pub fn delete_where(
        &mut self,
        mut pred: impl FnMut(&[Value]) -> Result<bool>,
    ) -> Result<usize> {
        let mut removed = 0;
        let mut scratch = vec![Value::Null; self.schema.len()];
        for part in &mut self.parts {
            // Evaluate before mutating so a predicate error leaves the
            // partition untouched.
            let mut keep: Vec<u32> = Vec::with_capacity(part.rows());
            for row in 0..part.rows() {
                part.read_row(row, &mut scratch);
                if !pred(&scratch)? {
                    keep.push(row as u32);
                }
            }
            if keep.len() < part.rows() {
                removed += part.rows() - keep.len();
                *part = Arc::new(part.take(&keep));
            }
        }
        Ok(removed)
    }

    /// Update rows in place: `f` returns `Some(new_row)` for rows to change.
    /// Returns the number of rows updated. If the partition-key column of a
    /// row changes, the row is re-routed to its new partition.
    pub fn update_where(
        &mut self,
        mut f: impl FnMut(&[Value]) -> Result<Option<Row>>,
    ) -> Result<usize> {
        let width = self.schema.len();
        let nparts = self.parts.len();
        let pk = self.partition_key;
        let mut updated = 0;
        let mut rerouted: Vec<Row> = Vec::new();
        let mut scratch = vec![Value::Null; width];
        for (pidx, part) in self.parts.iter_mut().enumerate() {
            // Plan all updates for the partition first (error safety).
            let mut changes: Vec<(usize, Row)> = Vec::new();
            for i in 0..part.rows() {
                part.read_row(i, &mut scratch);
                if let Some(new_row) = f(&scratch)? {
                    if new_row.len() != width {
                        return Err(Error::execution(format!(
                            "UPDATE produced row of width {}, table '{}' has width {width}",
                            new_row.len(),
                            self.name
                        )));
                    }
                    changes.push((i, new_row));
                }
            }
            if changes.is_empty() {
                continue;
            }
            updated += changes.len();
            let mut rows = part.to_rows();
            let mut remove: Vec<usize> = Vec::new();
            for (i, new_row) in changes {
                let stays = match pk {
                    Some(k) => {
                        let target = if new_row[k].is_null() {
                            0
                        } else {
                            partition_of(&new_row[k], nparts)
                        };
                        target == pidx
                    }
                    None => true,
                };
                if stays {
                    rows[i] = new_row;
                } else {
                    rerouted.push(new_row);
                    remove.push(i);
                }
            }
            for &i in remove.iter().rev() {
                rows.swap_remove(i);
            }
            *part = Arc::new(Block::from_rows(width, rows));
        }
        if !rerouted.is_empty() {
            self.append(rerouted);
        }
        Ok(updated)
    }

    /// Remove every row (used by the middleware baseline's DELETE FROM).
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
    fn delete_where_removes_matching() {
        let mut t = test_table();
        t.insert(rows(10)).unwrap();
        let removed = t
            .delete_where(|r| Ok(r[0].as_i64().unwrap() % 2 == 0))
            .unwrap();
        assert_eq!(removed, 5);
        assert_eq!(t.row_count(), 5);
    }

    #[test]
    fn update_where_changes_values() {
        let mut t = test_table();
        t.insert(rows(4)).unwrap();
        let n = t
            .update_where(|r| {
                let id = r[0].as_i64()?;
                Ok(if id == 2 {
                    Some(row_of([Value::Int(2), Value::Int(999)]))
                } else {
                    None
                })
            })
            .unwrap();
        assert_eq!(n, 1);
        let all = t.snapshot().gather();
        let v2 = all.iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(v2[1], Value::Int(999));
    }

    #[test]
    fn update_reroutes_changed_partition_key() {
        let mut t = test_table();
        t.insert(rows(8)).unwrap();
        t.update_where(|r| {
            let id = r[0].as_i64()?;
            Ok(Some(row_of([Value::Int(id + 100), r[1].clone()])))
        })
        .unwrap();
        assert_eq!(t.row_count(), 8);
        // every row must live in the partition its new key hashes to
        for (pidx, part) in t.snapshot().parts.iter().enumerate() {
            for r in part.to_rows() {
                assert_eq!(partition_of(&r[0], 4), pidx);
            }
        }
    }

    #[test]
    fn truncate_empties_all_partitions() {
        let mut t = test_table();
        t.insert(rows(10)).unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
    }
}
