//! Relation schemas.
//!
//! A [`Schema`] is an ordered list of [`Field`]s. Fields carry an optional
//! *relation qualifier* (the table or alias they came from) so that
//! `PageRank.node` and `IncomingRank.node` stay distinguishable after a
//! self-join — the PR query of the paper depends on this.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::DataType;

/// One column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (lower-cased by the parser).
    pub name: String,
    /// Value type.
    pub data_type: DataType,
    /// Table or alias the column belongs to, when known.
    pub relation: Option<String>,
}

impl Field {
    /// Unqualified field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            relation: None,
        }
    }

    /// Field qualified with a relation name.
    pub fn qualified(
        relation: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Self {
        Field {
            name: name.into(),
            data_type,
            relation: Some(relation.into()),
        }
    }

    /// Re-qualify with a new relation (used by subquery aliases and rename).
    pub fn with_relation(&self, relation: impl Into<String>) -> Self {
        Field {
            name: self.name.clone(),
            data_type: self.data_type,
            relation: Some(relation.into()),
        }
    }

    /// `relation.name` when qualified, else just `name`.
    pub fn qualified_name(&self) -> String {
        match &self.relation {
            Some(r) => format!("{r}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An ordered collection of fields describing one relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared schema handle; plans and batches hold `Arc<Schema>` so cloning a
/// plan node never deep-copies field lists.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Schema from a field list.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The empty schema (zero columns).
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Borrow the fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Find the index of a column, honouring an optional qualifier.
    ///
    /// * `index_of(None, "node")` matches any field named `node`, and is
    ///   ambiguous when several relations expose one.
    /// * `index_of(Some("pr"), "node")` matches only `pr.node`.
    pub fn index_of(&self, relation: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name.eq_ignore_ascii_case(name)
                    && match relation {
                        Some(r) => f
                            .relation
                            .as_deref()
                            .is_some_and(|fr| fr.eq_ignore_ascii_case(r)),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(Error::ColumnNotFound(match relation {
                Some(r) => format!("{r}.{name}"),
                None => name.to_owned(),
            })),
            _ => Err(Error::plan(format!(
                "column reference '{name}' is ambiguous ({} candidates)",
                matches.len()
            ))),
        }
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(right.fields.iter().cloned());
        Schema { fields }
    }

    /// Replace every field's qualifier with `relation` (aliasing a subquery
    /// or renaming a temp result).
    pub fn qualify_all(&self, relation: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| f.with_relation(relation))
                .collect(),
        }
    }

    /// Strip all qualifiers (e.g. for final output to the client).
    pub fn unqualified(&self) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field::new(f.name.clone(), f.data_type))
                .collect(),
        }
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.qualified_name(), field.data_type)?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Field> for Schema {
    fn from_iter<T: IntoIterator<Item = Field>>(iter: T) -> Self {
        Schema {
            fields: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pr_schema() -> Schema {
        Schema::new(vec![
            Field::qualified("pr", "node", DataType::Int),
            Field::qualified("pr", "rank", DataType::Float),
            Field::qualified("incoming", "node", DataType::Int),
        ])
    }

    #[test]
    fn unqualified_lookup_is_ambiguous_after_self_join() {
        let s = pr_schema();
        assert!(matches!(s.index_of(None, "node"), Err(Error::Plan(_))));
        assert_eq!(s.index_of(None, "rank").unwrap(), 1);
    }

    #[test]
    fn qualified_lookup_disambiguates() {
        let s = pr_schema();
        assert_eq!(s.index_of(Some("pr"), "node").unwrap(), 0);
        assert_eq!(s.index_of(Some("incoming"), "node").unwrap(), 2);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = pr_schema();
        assert_eq!(s.index_of(Some("PR"), "NODE").unwrap(), 0);
    }

    #[test]
    fn missing_column_reports_qualified_name() {
        let s = pr_schema();
        let err = s.index_of(Some("pr"), "missing").unwrap_err();
        assert_eq!(err, Error::ColumnNotFound("pr.missing".into()));
    }

    #[test]
    fn join_concatenates_in_order() {
        let left = Schema::new(vec![Field::new("a", DataType::Int)]);
        let right = Schema::new(vec![Field::new("b", DataType::Text)]);
        let joined = left.join(&right);
        assert_eq!(joined.names(), vec!["a", "b"]);
    }

    #[test]
    fn qualify_all_rewrites_relations() {
        let s = pr_schema().qualify_all("t");
        assert!(s
            .fields()
            .iter()
            .all(|f| f.relation.as_deref() == Some("t")));
    }
}
