//! The catalog: named base tables, with DDL-cost accounting.
//!
//! The paper argues that middleware solutions pay metadata overhead for
//! every temporary-table CREATE/DROP (§II). The catalog therefore counts
//! DDL operations so experiments can report how many catalog round-trips
//! each execution strategy performed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use spinner_common::{Error, Result, SchemaRef};

use crate::table::Table;
use crate::RwLock;

/// Thread-safe map of table name to [`Table`].
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Table>>,
    ddl_ops: AtomicU64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table. Errors if the name is taken.
    pub fn create_table(
        &self,
        name: &str,
        schema: SchemaRef,
        partitions: usize,
        partition_key: Option<usize>,
        primary_key: Option<usize>,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(Error::TableExists(name.to_owned()));
        }
        tables.insert(
            key.clone(),
            Table::new(key, schema, partitions, partition_key, primary_key),
        );
        self.ddl_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drop a table. Errors if it does not exist.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.write().remove(&key).is_none() {
            return Err(Error::TableNotFound(name.to_owned()));
        }
        self.ddl_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Cheap snapshot clone of a table (Arc-backed partitions).
    pub fn get(&self, name: &str) -> Result<Table> {
        self.with_table(name, |table| Ok(table.clone()))
    }

    /// Read from a table under the read lock, without cloning it.
    pub fn with_table<T>(&self, name: &str, f: impl FnOnce(&Table) -> Result<T>) -> Result<T> {
        let key = name.to_ascii_lowercase();
        let tables = self.tables.read();
        let table = tables.get(&key);
        f(table.ok_or_else(|| Error::TableNotFound(name.to_owned()))?)
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Apply a mutation to a table under the write lock.
    pub fn with_table_mut<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<T>,
    ) -> Result<T> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(&key)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))?;
        f(table)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of CREATE/DROP operations performed so far.
    pub fn ddl_op_count(&self) -> u64 {
        self.ddl_ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field, Schema};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![Field::new("id", DataType::Int)]))
    }

    #[test]
    fn create_get_drop_roundtrip() {
        let cat = Catalog::new();
        cat.create_table("T1", schema(), 2, Some(0), None).unwrap();
        assert!(cat.contains("t1"));
        assert_eq!(cat.get("T1").unwrap().name(), "t1");
        cat.drop_table("t1").unwrap();
        assert!(!cat.contains("t1"));
    }

    #[test]
    fn duplicate_create_fails() {
        let cat = Catalog::new();
        cat.create_table("t", schema(), 1, None, None).unwrap();
        assert_eq!(
            cat.create_table("T", schema(), 1, None, None),
            Err(Error::TableExists("T".into()))
        );
    }

    #[test]
    fn ddl_ops_are_counted() {
        let cat = Catalog::new();
        cat.create_table("a", schema(), 1, None, None).unwrap();
        cat.create_table("b", schema(), 1, None, None).unwrap();
        cat.drop_table("a").unwrap();
        assert_eq!(cat.ddl_op_count(), 3);
    }

    #[test]
    fn missing_table_errors() {
        let cat = Catalog::new();
        assert!(matches!(cat.get("nope"), Err(Error::TableNotFound(_))));
        assert!(matches!(
            cat.drop_table("nope"),
            Err(Error::TableNotFound(_))
        ));
    }
}
