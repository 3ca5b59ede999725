//! Hash partitioning of row sets across virtual MPP workers.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use spinner_common::{Row, SchemaRef, Value};

/// Rows distributed across `P` partitions, each an immutable snapshot.
///
/// This is the shape scans produce, exchanges reshuffle, and the temp
/// registry stores. Cloning is O(P) `Arc` bumps.
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// Schema of every partition.
    pub schema: SchemaRef,
    /// One immutable row vector per virtual worker.
    pub parts: Vec<Arc<Vec<Row>>>,
}

impl Partitioned {
    /// All rows gathered into a single empty-partition layout.
    pub fn empty(schema: SchemaRef, partitions: usize) -> Self {
        Partitioned {
            schema,
            parts: (0..partitions).map(|_| Arc::new(Vec::new())).collect(),
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Total row count across partitions.
    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Estimated in-memory size in bytes, used for intermediate-state
    /// budgets: per row, a boxed-slice header plus one `Value` slot per
    /// column. This deliberately under-counts string payloads — budgets
    /// need a stable, cheap estimate, not an exact accounting.
    pub fn estimated_bytes(&self) -> u64 {
        let width = self.schema.len() as u64;
        let per_row = 16 + 24 * width;
        self.total_rows() as u64 * per_row
    }

    /// Gather every partition's rows into one vector (clone of the rows).
    pub fn gather(&self) -> Vec<Row> {
        self.clone().take_rows(usize::MAX).0
    }

    /// The first `limit` rows in partition order (`usize::MAX` gathers
    /// them all), consuming the row set: rows of a partition this value
    /// uniquely owns are moved out, rows of a shared one (a base-table or
    /// temp snapshot) are cloned. Returns the rows and how many of them
    /// were cloned.
    pub fn take_rows(self, limit: usize) -> (Vec<Row>, u64) {
        let wanted = self.total_rows().min(limit);
        let mut out = Vec::with_capacity(wanted);
        let mut copied = 0u64;
        for part in self.parts {
            let room = wanted - out.len();
            match Arc::try_unwrap(part) {
                Ok(rows) => out.extend(rows.into_iter().take(room)),
                Err(shared) => {
                    let n = shared.len().min(room);
                    out.extend_from_slice(&shared[..n]);
                    copied += n as u64;
                }
            }
        }
        (out, copied)
    }

    /// Build from a flat row vector by hashing column `key` into `parts`
    /// partitions. `key = None` distributes round-robin.
    pub fn from_rows(schema: SchemaRef, rows: Vec<Row>, key: Option<usize>, parts: usize) -> Self {
        let bufs = hash_partition(rows, key, parts);
        Partitioned {
            schema,
            parts: bufs.into_iter().map(Arc::new).collect(),
        }
    }
}

/// Deterministic hash of a single value, stable across processes for a given
/// build (we only need intra-run consistency).
pub fn value_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Partition index for a value under `parts` partitions.
pub fn partition_of(v: &Value, parts: usize) -> usize {
    debug_assert!(parts > 0);
    (value_hash(v) % parts as u64) as usize
}

/// Split `rows` into `parts` buckets by hashing column `key`; NULL keys go
/// to partition 0. `key = None` spreads rows round-robin.
pub fn hash_partition(rows: Vec<Row>, key: Option<usize>, parts: usize) -> Vec<Vec<Row>> {
    assert!(parts > 0, "at least one partition required");
    let mut bufs: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
    match key {
        Some(k) => {
            for row in rows {
                let idx = if row[k].is_null() {
                    0
                } else {
                    partition_of(&row[k], parts)
                };
                bufs[idx].push(row);
            }
        }
        None => {
            for (i, row) in rows.into_iter().enumerate() {
                bufs[i % parts].push(row);
            }
        }
    }
    bufs
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, Field, Schema};

    fn rows_with_keys(keys: &[i64]) -> Vec<Row> {
        keys.iter().map(|k| row_of([Value::Int(*k)])).collect()
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

    #[test]
    fn take_rows_moves_owned_partitions_and_copies_shared_ones() {
        let schema = std::sync::Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let owned = Partitioned::from_rows(schema, rows_with_keys(&[1, 2, 3, 4, 5, 6]), None, 3);
        let expected = owned.gather();
        let before: Vec<*const Value> = owned
            .parts
            .iter()
            .flat_map(|p| p.iter().map(|r| r.as_ptr()))
            .collect();
        let shared = owned.clone();
        // Shared with `owned`: every row is cloned, the source is intact.
        let (rows, copied) = shared.take_rows(usize::MAX);
        assert_eq!((rows, copied), (expected.clone(), 6));
        assert_eq!(owned.gather(), expected);
        // Now the only owner: rows move (same heap cells), none is cloned.
        let (rows, copied) = owned.take_rows(usize::MAX);
        assert_eq!(copied, 0);
        assert_eq!(rows.iter().map(|r| r.as_ptr()).collect::<Vec<_>>(), before);
        assert_eq!(rows, expected);
    }

    #[test]
    fn take_rows_stops_at_the_limit_in_partition_order() {
        let schema = std::sync::Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let p = Partitioned::from_rows(schema, rows_with_keys(&[1, 2, 3, 4, 5, 6]), None, 3);
        let all = p.gather();
        let shared = p.clone();
        for limit in [0, 1, 2, 3, 6, 9] {
            let (rows, copied) = shared.clone().take_rows(limit);
            assert_eq!(rows, all[..limit.min(6)]);
            assert_eq!(
                copied,
                limit.min(6) as u64,
                "only the rows taken are cloned"
            );
        }
        drop(shared);
        let (rows, copied) = p.take_rows(3);
        assert_eq!((rows.as_slice(), copied), (&all[..3], 0));
    }
}
