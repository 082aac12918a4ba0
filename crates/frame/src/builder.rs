//! Row-oriented frame construction.

use crate::column::{CellCache, Column};
use crate::dtype::DType;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::schema::Schema;
use crate::value::Value;

/// Builds a [`DataFrame`] row by row against a fixed schema.
///
/// Scenario generators produce tuples one entity at a time; the builder
/// turns those into typed columnar storage with per-row type checking.
#[derive(Debug, Clone)]
pub struct DataFrameBuilder {
    columns: Vec<Column>,
    /// One string-cell cache per column, so equal strings in a column
    /// share one allocation.
    cells: Vec<CellCache>,
}

impl DataFrameBuilder {
    /// Start a builder for the given schema.
    pub fn new(schema: &Schema) -> Self {
        DataFrameBuilder::from_empty(
            schema
                .fields()
                .iter()
                .map(|f| Column::empty(f.name.clone(), f.dtype))
                .collect(),
        )
    }

    /// Start a builder from (name, dtype) pairs.
    pub fn with_fields(fields: &[(&str, DType)]) -> Self {
        DataFrameBuilder::from_empty(
            fields
                .iter()
                .map(|(n, t)| Column::empty(n.to_string(), *t))
                .collect(),
        )
    }

    fn from_empty(columns: Vec<Column>) -> Self {
        let cells = columns.iter().map(|_| CellCache::new()).collect();
        DataFrameBuilder { columns, cells }
    }

    /// Append one tuple. The row must have exactly one value per
    /// column, in schema order. On a mid-row type error the partially
    /// pushed prefix is rolled back is *not* attempted; instead we
    /// validate the whole row first so the builder never ends up
    /// ragged.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(FrameError::LengthMismatch(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(&row) {
            if !col.dtype().admits(v) {
                return Err(FrameError::TypeMismatch {
                    column: col.name().to_string(),
                    expected: col.dtype().to_string(),
                    found: v.type_name().to_string(),
                });
            }
        }
        for ((col, cells), v) in self.columns.iter_mut().zip(&mut self.cells).zip(row) {
            match v {
                Value::Str(s) => col.push_str_cell(cells.cell(&s)),
                v => col.push(v).expect("validated above"),
            }
        }
        Ok(())
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// True iff no rows appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish, producing the frame.
    pub fn build(self) -> DataFrame {
        DataFrame::from_columns(self.columns).expect("builder invariant: equal lengths")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_typed_rows() {
        let mut b = DataFrameBuilder::with_fields(&[
            ("name", DType::Text),
            ("age", DType::Int),
            ("score", DType::Float),
        ]);
        b.push_row(vec!["alice".into(), 30.into(), 1.5.into()])
            .unwrap();
        b.push_row(vec![Value::Null, Value::Null, 7.into()])
            .unwrap();
        assert_eq!(b.len(), 2);
        let df = b.build();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.cell(0, "name").unwrap(), Value::Str("alice".into()));
        assert_eq!(df.cell(1, "score").unwrap(), Value::Float(7.0));
        assert!(df.cell(1, "age").unwrap().is_null());
    }

    #[test]
    fn rejects_ragged_and_mistyped_rows_atomically() {
        let mut b = DataFrameBuilder::with_fields(&[("a", DType::Int), ("b", DType::Int)]);
        assert!(b.push_row(vec![1.into()]).is_err());
        // Second value is mistyped: nothing must be appended.
        assert!(b.push_row(vec![1.into(), "x".into()]).is_err());
        assert_eq!(b.len(), 0);
        b.push_row(vec![1.into(), 2.into()]).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn from_schema() {
        use crate::schema::{Field, Schema};
        let schema = Schema::new(vec![Field::new("x", DType::Float)]).unwrap();
        let mut b = DataFrameBuilder::new(&schema);
        b.push_row(vec![2.5.into()]).unwrap();
        let df = b.build();
        assert_eq!(df.schema(), schema);
    }
}
