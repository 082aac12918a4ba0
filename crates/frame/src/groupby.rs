//! Group-by counting and contingency tables.
//!
//! χ²-based independence profiles (Fig 1 row 7) need the contingency
//! table of two categorical attributes; selectivity discovery needs
//! grouped counts. Both are provided here without a general
//! aggregation engine, which the paper does not require.

use crate::column::ColumnData;
use crate::error::Result;
use crate::frame::DataFrame;
use std::collections::BTreeMap;

/// Render the cell at `off` exactly as `Value`'s `Display` would,
/// without materializing a `Value` (strings borrow instead of clone).
fn render_cell(data: &ColumnData, off: usize) -> std::borrow::Cow<'_, str> {
    match data {
        ColumnData::Int(v) => std::borrow::Cow::Owned(v[off].to_string()),
        ColumnData::Float(v) => std::borrow::Cow::Owned(format!("{}", v[off])),
        ColumnData::Bool(v) => std::borrow::Cow::Owned(v[off].to_string()),
        ColumnData::Str(v) => std::borrow::Cow::Borrowed(&*v[off]),
    }
}

/// A two-way contingency table over the distinct values of two
/// columns. NULL cells are excluded (pairwise deletion).
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    /// Distinct values of the first attribute (row labels), sorted.
    pub rows: Vec<String>,
    /// Distinct values of the second attribute (column labels), sorted.
    pub cols: Vec<String>,
    /// `counts[i][j]` = number of tuples whose first attribute equals
    /// `rows[i]` and second equals `cols[j]`.
    pub counts: Vec<Vec<u64>>,
}

impl ContingencyTable {
    /// Build from two columns of `df`.
    ///
    /// Chunk-wise: the two columns share chunk boundaries (both are
    /// chunked at `CHUNK_ROWS`), so pairwise NULL deletion is a
    /// validity-bitmap AND per chunk and cells are counted straight
    /// off the typed buffers.
    pub fn from_frame(df: &DataFrame, a: &str, b: &str) -> Result<ContingencyTable> {
        let ca = df.column(a)?;
        let cb = df.column(b)?;
        // value of `a` -> value of `b` -> count; nested so the hot
        // loop looks up with borrowed strings and only allocates keys
        // on first sight of a cell.
        let mut cells: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        let mut col_set = std::collections::BTreeSet::new();
        for (sa, sb) in ca.chunks().iter().zip(cb.chunks()) {
            let both = sa.validity().and(sb.validity());
            for off in both.ones() {
                let va = render_cell(sa.data(), off);
                let vb = render_cell(sb.data(), off);
                if !cells.contains_key(va.as_ref()) {
                    cells.insert(va.clone().into_owned(), BTreeMap::new());
                }
                let inner = cells.get_mut(va.as_ref()).expect("inserted above");
                match inner.get_mut(vb.as_ref()) {
                    Some(n) => *n += 1,
                    None => {
                        col_set.insert(vb.clone().into_owned());
                        inner.insert(vb.into_owned(), 1);
                    }
                }
            }
        }
        let rows: Vec<String> = cells.keys().cloned().collect();
        let cols: Vec<String> = col_set.into_iter().collect();
        let mut counts = vec![vec![0u64; cols.len()]; rows.len()];
        for (i, (_, inner)) in cells.into_iter().enumerate() {
            for (vb, n) in inner {
                let j = cols.binary_search(&vb).expect("value in col set");
                counts[i][j] = n;
            }
        }
        Ok(ContingencyTable { rows, cols, counts })
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Row marginals.
    pub fn row_totals(&self) -> Vec<u64> {
        self.counts.iter().map(|r| r.iter().sum()).collect()
    }

    /// Column marginals.
    pub fn col_totals(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.cols.len()];
        for row in &self.counts {
            for (j, &c) in row.iter().enumerate() {
                out[j] += c;
            }
        }
        out
    }
}

/// Counts of each distinct (non-NULL) value of one column, sorted by
/// value.
pub fn group_counts(df: &DataFrame, column: &str) -> Result<Vec<(String, usize)>> {
    Ok(df.column(column)?.value_counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dtype::DType;

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_strings(
                "race",
                DType::Categorical,
                vec![
                    Some("A".into()),
                    Some("A".into()),
                    Some("W".into()),
                    Some("W".into()),
                    Some("W".into()),
                    None,
                ],
            ),
            Column::from_strings(
                "high",
                DType::Categorical,
                vec![
                    Some("no".into()),
                    Some("no".into()),
                    Some("yes".into()),
                    Some("yes".into()),
                    Some("no".into()),
                    Some("yes".into()),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn contingency_counts_and_marginals() {
        let t = ContingencyTable::from_frame(&df(), "race", "high").unwrap();
        assert_eq!(t.rows, vec!["A", "W"]);
        assert_eq!(t.cols, vec!["no", "yes"]);
        assert_eq!(t.counts, vec![vec![2, 0], vec![1, 2]]);
        assert_eq!(t.total(), 5, "NULL rows excluded");
        assert_eq!(t.row_totals(), vec![2, 3]);
        assert_eq!(t.col_totals(), vec![3, 2]);
    }

    #[test]
    fn group_counts_sorted() {
        let counts = group_counts(&df(), "high").unwrap();
        assert_eq!(counts, vec![("no".to_string(), 3), ("yes".to_string(), 3)]);
    }

    #[test]
    fn contingency_spans_chunk_boundaries() {
        use crate::column::CHUNK_ROWS;
        let n = CHUNK_ROWS + 130;
        let a: Vec<Option<String>> = (0..n)
            .map(|i| match i % 5 {
                0 => None,
                j if j % 2 == 0 => Some("x".to_string()),
                _ => Some("y".to_string()),
            })
            .collect();
        let b: Vec<Option<i64>> = (0..n as i64).map(|i| Some(i % 3)).collect();
        let d = DataFrame::from_columns(vec![
            Column::from_strings("a", DType::Categorical, a.clone()),
            Column::from_ints("b", b.clone()),
        ])
        .unwrap();
        let t = ContingencyTable::from_frame(&d, "a", "b").unwrap();
        // Row-at-a-time reference.
        let mut expect: std::collections::BTreeMap<(String, String), u64> = Default::default();
        for i in 0..n {
            if let Some(va) = &a[i] {
                *expect
                    .entry((va.clone(), b[i].unwrap().to_string()))
                    .or_insert(0) += 1;
            }
        }
        assert_eq!(t.total(), expect.values().sum::<u64>());
        for ((va, vb), cnt) in expect {
            let i = t.rows.iter().position(|r| *r == va).unwrap();
            let j = t.cols.iter().position(|c| *c == vb).unwrap();
            assert_eq!(t.counts[i][j], cnt, "cell ({va}, {vb})");
        }
    }

    #[test]
    fn numeric_columns_group_by_rendered_value() {
        let d = DataFrame::from_columns(vec![Column::from_ints(
            "k",
            vec![Some(2), Some(1), Some(2)],
        )])
        .unwrap();
        let t = ContingencyTable::from_frame(&d, "k", "k").unwrap();
        assert_eq!(t.total(), 3);
        assert_eq!(t.counts[0][0] + t.counts[1][1], 3, "diagonal only");
    }
}
