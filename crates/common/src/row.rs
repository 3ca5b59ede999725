//! Row and batch representation: the engine's edges.
//!
//! A [`Row`] is a boxed slice of values, a [`Batch`] couples a vector of
//! rows with their schema. Rows are what a statement takes in (bulk load,
//! `INSERT`, `VALUES`) and hands back (the result batch); between those
//! edges the executor works on column [`Block`](crate::Block)s, which are
//! what the `materialize`, `rename` and `loop` operators act on.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;

/// One tuple. Boxed slice keeps the footprint at two words and makes
/// accidental growth impossible.
pub type Row = Box<[Value]>;

/// Build a row from an iterator of values.
pub fn row_of<I: IntoIterator<Item = Value>>(values: I) -> Row {
    values.into_iter().collect::<Vec<_>>().into_boxed_slice()
}

/// A fully materialized set of rows sharing one schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: SchemaRef,
    rows: Vec<Row>,
}

impl Batch {
    /// Batch from parts. Debug builds assert width agreement.
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Self {
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row width does not match schema width"
        );
        Batch { schema, rows }
    }

    /// Empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Batch {
            schema,
            rows: Vec::new(),
        }
    }

    /// Checked constructor: errors when any row width disagrees with the
    /// schema. Used at ingestion boundaries (INSERT, CSV load).
    pub fn try_new(schema: SchemaRef, rows: Vec<Row>) -> Result<Self> {
        if let Some(bad) = rows.iter().find(|r| r.len() != schema.len()) {
            return Err(Error::execution(format!(
                "row width {} does not match schema width {}",
                bad.len(),
                schema.len()
            )));
        }
        Ok(Batch { schema, rows })
    }

    /// Shared schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Borrow all rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consume into the row vector.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Replace the schema handle without touching the data (rename /
    /// re-qualification). Widths must agree.
    pub fn with_schema(self, schema: SchemaRef) -> Result<Self> {
        if schema.len() != self.schema.len() {
            return Err(Error::execution(format!(
                "cannot retarget batch of width {} to schema of width {}",
                self.schema.len(),
                schema.len()
            )));
        }
        Ok(Batch {
            schema,
            rows: self.rows,
        })
    }

    /// Append the rows of `other`; schemas must have equal width (UNION ALL).
    pub fn append(&mut self, other: Batch) -> Result<()> {
        if other.schema.len() != self.schema.len() {
            return Err(Error::execution(format!(
                "UNION width mismatch: {} vs {}",
                self.schema.len(),
                other.schema.len()
            )));
        }
        self.rows.extend(other.rows);
        Ok(())
    }

    /// Pretty-print as an ASCII table (examples and the repro binary).
    pub fn to_table(&self) -> String {
        let names: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = names.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (name, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {name:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

/// Helper for tests and examples: batch from a schema and literal rows.
pub fn batch_of(schema: Schema, rows: Vec<Vec<Value>>) -> Batch {
    Batch::new(
        Arc::new(schema),
        rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema2() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Text),
        ])
    }

    #[test]
    fn try_new_rejects_ragged_rows() {
        let schema = Arc::new(schema2());
        let rows = vec![row_of([Value::Int(1)])];
        assert!(Batch::try_new(schema, rows).is_err());
    }

    #[test]
    fn append_checks_width() {
        let mut b = batch_of(schema2(), vec![vec![Value::Int(1), Value::from("x")]]);
        let narrow = batch_of(
            Schema::new(vec![Field::new("a", DataType::Int)]),
            vec![vec![Value::Int(2)]],
        );
        assert!(b.append(narrow).is_err());
        let ok = batch_of(schema2(), vec![vec![Value::Int(2), Value::from("y")]]);
        b.append(ok).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn with_schema_keeps_rows() {
        let b = batch_of(schema2(), vec![vec![Value::Int(1), Value::from("x")]]);
        let renamed = b
            .clone()
            .with_schema(Arc::new(schema2().qualify_all("t")))
            .unwrap();
        assert_eq!(renamed.rows(), b.rows());
    }

    #[test]
    fn to_table_renders_header_and_rows() {
        let b = batch_of(schema2(), vec![vec![Value::Int(1), Value::from("hi")]]);
        let t = b.to_table();
        assert!(t.contains("| a | b  |"));
        assert!(t.contains("| 1 | hi |"));
    }
}
