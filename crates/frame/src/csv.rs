//! Minimal CSV reader/writer with type inference.
//!
//! Examples write generated scenario datasets to disk so users can
//! inspect the passing/failing data the framework reasons about, and
//! read datasets back in. The dialect is RFC-4180-ish: comma
//! separator, double-quote quoting with `""` escapes, `\n`/`\r\n`
//! records; empty fields are NULL.

use crate::column::{CellCache, Column};
use crate::dtype::DType;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use std::borrow::Cow;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Split one CSV record into fields, honoring quotes. A record with
/// no quote character splits at every comma, and its fields borrow
/// from `line`.
fn split_record(line: &str, line_no: usize) -> Result<Vec<Cow<'_, str>>> {
    if !line.contains('"') {
        return Ok(line.split(',').map(Cow::Borrowed).collect());
    }
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(FrameError::Csv(format!(
                            "line {line_no}: quote inside unquoted field"
                        )));
                    }
                }
                ',' => fields.push(Cow::Owned(std::mem::take(&mut cur))),
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(FrameError::Csv(format!("line {line_no}: unclosed quote")));
    }
    fields.push(Cow::Owned(cur));
    Ok(fields)
}

fn quote_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Infer a column dtype from raw string fields (empty = NULL).
///
/// Ints that all parse stay `Int`; otherwise floats; otherwise
/// `true`/`false` booleans; string columns become `Categorical` when
/// the distinct-value count is small relative to the data, `Text`
/// otherwise.
fn infer_dtype(raw: &[Option<&str>]) -> DType {
    let present: Vec<&str> = raw.iter().flatten().copied().collect();
    if present.is_empty() {
        return DType::Text;
    }
    if present.iter().all(|s| s.parse::<i64>().is_ok()) {
        return DType::Int;
    }
    if present.iter().all(|s| s.parse::<f64>().is_ok()) {
        return DType::Float;
    }
    if present
        .iter()
        .all(|s| s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false"))
    {
        return DType::Bool;
    }
    let distinct: std::collections::HashSet<&str> = present.iter().copied().collect();
    // Heuristic mirroring common profilers: low cardinality => category.
    if distinct.len() <= 20 || distinct.len() * 2 <= present.len() {
        DType::Categorical
    } else {
        DType::Text
    }
}

/// The non-empty lines of a CSV document; the header is line 1.
fn read_lines<R: Read>(reader: R) -> Result<Vec<String>> {
    let mut lines = Vec::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        if !line.is_empty() {
            lines.push(line);
        }
    }
    if lines.is_empty() {
        return Err(FrameError::Csv("empty document".into()));
    }
    Ok(lines)
}

/// Split data record `line_no`, which must have `n_cols` fields.
fn split_row(line: &str, line_no: usize, n_cols: usize) -> Result<Vec<Cow<'_, str>>> {
    let fields = split_record(line, line_no)?;
    if fields.len() != n_cols {
        return Err(FrameError::Csv(format!(
            "line {line_no}: expected {n_cols} fields, found {}",
            fields.len()
        )));
    }
    Ok(fields)
}

/// Read a CSV document (header row required) with dtype inference.
pub fn read_csv<R: Read>(reader: R) -> Result<DataFrame> {
    let lines = read_lines(reader)?;
    let header = split_record(&lines[0], 1)?;
    let n_cols = header.len();
    let rows = lines
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, line)| split_row(line, i + 1, n_cols))
        .collect::<Result<Vec<_>>>()?;
    let fields: Vec<(&str, DType)> = header
        .iter()
        .enumerate()
        .map(|(j, name)| {
            let col_raw: Vec<Option<&str>> = rows
                .iter()
                .map(|r| Some(&*r[j]).filter(|f| !f.is_empty()))
                .collect();
            (name.as_ref(), infer_dtype(&col_raw))
        })
        .collect();
    // Every field parses as the dtype inferred from its column.
    typed_frame(rows.into_iter().zip(2..).map(Ok), &fields)
}

/// Read a CSV file from a path.
pub fn read_csv_path<P: AsRef<Path>>(path: P) -> Result<DataFrame> {
    let file = std::fs::File::open(path)?;
    read_csv(file)
}

/// Write a frame as CSV (header + rows; NULL as empty field).
///
/// In a one-column frame a NULL is written as `""`: a bare empty field
/// would make a blank line, which readers skip.
pub fn write_csv<W: Write>(df: &DataFrame, mut writer: W) -> Result<()> {
    let names: Vec<String> = df.columns().iter().map(|c| quote_field(c.name())).collect();
    writeln!(writer, "{}", names.join(","))?;
    let null = if df.n_cols() == 1 { "\"\"" } else { "" };
    for i in 0..df.n_rows() {
        let row: Vec<String> = df
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(i);
                if v.is_null() {
                    null.to_string()
                } else {
                    quote_field(&v.to_string())
                }
            })
            .collect();
        writeln!(writer, "{}", row.join(","))?;
    }
    Ok(())
}

/// Write a frame as a CSV file at `path`.
pub fn write_csv_path<P: AsRef<Path>>(df: &DataFrame, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(df, std::io::BufWriter::new(file))
}

/// One column's cells, parsed straight to its declared dtype.
enum TypedCells {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Bool(Vec<Option<bool>>),
    Str(Vec<Option<Arc<str>>>, CellCache),
}

impl TypedCells {
    fn with_capacity(dtype: DType, n: usize) -> TypedCells {
        match dtype {
            DType::Int => TypedCells::Int(Vec::with_capacity(n)),
            DType::Float => TypedCells::Float(Vec::with_capacity(n)),
            DType::Bool => TypedCells::Bool(Vec::with_capacity(n)),
            DType::Categorical | DType::Text => {
                TypedCells::Str(Vec::with_capacity(n), CellCache::new())
            }
        }
    }

    /// Append one raw field (empty = NULL). A string field becomes a
    /// cell straight from the field, shared with equal earlier cells
    /// where the cache has one. A field that does not parse as the
    /// column's dtype is an error.
    fn push(&mut self, field: &str) -> std::result::Result<(), ()> {
        if field.is_empty() {
            match self {
                TypedCells::Int(v) => v.push(None),
                TypedCells::Float(v) => v.push(None),
                TypedCells::Bool(v) => v.push(None),
                TypedCells::Str(v, _) => v.push(None),
            }
            return Ok(());
        }
        match self {
            TypedCells::Int(v) => v.push(Some(field.parse().map_err(|_| ())?)),
            TypedCells::Float(v) => v.push(Some(field.parse().map_err(|_| ())?)),
            TypedCells::Bool(v) if field.eq_ignore_ascii_case("true") => v.push(Some(true)),
            TypedCells::Bool(v) if field.eq_ignore_ascii_case("false") => v.push(Some(false)),
            TypedCells::Bool(_) => return Err(()),
            TypedCells::Str(v, cells) => v.push(Some(cells.cell(field))),
        }
        Ok(())
    }

    fn into_column(self, name: &str, dtype: DType) -> Column {
        match self {
            TypedCells::Int(v) => Column::from_ints(name, v),
            // NaN cells become NULL, as `Value::from(f64)` does.
            TypedCells::Float(v) => Column::from_floats(name, v),
            TypedCells::Bool(v) => Column::from_bools(name, v),
            TypedCells::Str(v, _) => Column::from_shared_strings(name, dtype, v),
        }
    }
}

/// Explicit-schema variant of [`read_csv`] that skips inference. The
/// `(name, dtype)` list must match the header.
///
/// One pass: every field is parsed once, straight to its column's
/// declared dtype. String-typed cells are kept verbatim, and a cell
/// that does not parse as its column's `Int`/`Float`/`Bool` dtype is a
/// [`FrameError::Csv`] naming the line and the column, never a silent
/// NULL.
pub fn read_csv_with_schema<R: Read>(reader: R, fields: &[(&str, DType)]) -> Result<DataFrame> {
    let lines = read_lines(reader)?;
    let header = split_record(&lines[0], 1)?;
    if header.len() != fields.len() {
        return Err(FrameError::Csv(format!(
            "schema has {} columns, file has {}",
            fields.len(),
            header.len()
        )));
    }
    for (found, (name, _)) in header.iter().zip(fields) {
        if found != name {
            return Err(FrameError::Csv(format!(
                "expected column {name:?}, file has {found:?}"
            )));
        }
    }
    typed_frame(
        lines
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, line)| Ok((split_row(line, i + 1, fields.len())?, i + 1))),
        fields,
    )
}

/// Build a frame from `(record, line number)` pairs, parsing every
/// field once, straight to its column's dtype. An empty field is NULL;
/// a string-typed field is kept verbatim; a field that does not parse
/// as its column's `Int`/`Float`/`Bool` dtype is a [`FrameError::Csv`]
/// naming the line and the column.
fn typed_frame<'a>(
    records: impl Iterator<Item = Result<(Vec<Cow<'a, str>>, usize)>>,
    fields: &[(&str, DType)],
) -> Result<DataFrame> {
    let n_rows = records.size_hint().0;
    let mut cols: Vec<TypedCells> = fields
        .iter()
        .map(|(_, dtype)| TypedCells::with_capacity(*dtype, n_rows))
        .collect();
    for record in records {
        let (row, line_no) = record?;
        for ((cells, field), (name, dtype)) in cols.iter_mut().zip(row).zip(fields) {
            cells.push(&field).map_err(|()| {
                FrameError::Csv(format!(
                    "line {line_no}: column {name:?}: expected {dtype}, found {field:?}"
                ))
            })?;
        }
    }
    DataFrame::from_columns(
        cols.into_iter()
            .zip(fields)
            .map(|(cells, (name, dtype))| cells.into_column(name, *dtype))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;
    use proptest::BoxedStrategy;

    #[test]
    fn roundtrip_with_nulls_and_quotes() {
        let mut df = DataFrame::new();
        df.add_column(Column::from_ints("age", vec![Some(30), None]))
            .unwrap();
        df.add_column(Column::from_strings(
            "note",
            DType::Text,
            vec![Some("hello, \"world\"".into()), Some("plain".into())],
        ))
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\"hello, \"\"world\"\"\""));
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.cell(0, "age").unwrap(), Value::Int(30));
        assert!(back.cell(1, "age").unwrap().is_null());
        assert_eq!(
            back.cell(0, "note").unwrap(),
            Value::Str("hello, \"world\"".into())
        );
    }

    #[test]
    fn infers_types() {
        let csv = "a,b,c,d\n1,1.5,true,x\n2,2.5,false,y\n3,,true,x\n";
        let df = read_csv(csv.as_bytes()).unwrap();
        let schema = df.schema();
        assert_eq!(schema.field("a").unwrap().dtype, DType::Int);
        assert_eq!(schema.field("b").unwrap().dtype, DType::Float);
        assert_eq!(schema.field("c").unwrap().dtype, DType::Bool);
        assert_eq!(schema.field("d").unwrap().dtype, DType::Categorical);
        assert!(df.cell(2, "b").unwrap().is_null());
    }

    #[test]
    fn rejects_ragged_rows_and_bad_quotes() {
        assert!(read_csv("a,b\n1\n".as_bytes()).is_err());
        assert!(read_csv("a\n\"unclosed\n".as_bytes()).is_err());
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        // One distinct value would infer Categorical; force Text.
        let csv = "id,tag\n1,aaa\n2,aaa\n";
        let df = read_csv_with_schema(
            csv.as_bytes(),
            &[("id", DType::Float), ("tag", DType::Text)],
        )
        .unwrap();
        assert_eq!(df.schema().field("id").unwrap().dtype, DType::Float);
        assert_eq!(df.schema().field("tag").unwrap().dtype, DType::Text);
        assert_eq!(df.cell(0, "id").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn schema_ingest_rejects_unparsable_numeric_cells_by_line_and_column() {
        let fields = [
            ("id", DType::Int),
            ("score", DType::Float),
            ("ok", DType::Bool),
        ];
        for (csv, line, column, found) in [
            ("id,score,ok\n1,0.5,true\n2x,0.5,true\n", 3, "id", "2x"),
            (
                "id,score,ok\n1,0.5,true\n\n2,abc,false\n",
                3,
                "score",
                "abc",
            ),
            ("id,score,ok\n1,1.5e3,yes\n", 2, "ok", "yes"),
            ("id,score,ok\n1.5,1,true\n", 2, "id", "1.5"),
            (
                "id,score,ok\n9223372036854775808,1,true\n",
                2,
                "id",
                "9223372036854775808",
            ),
        ] {
            let err = read_csv_with_schema(csv.as_bytes(), &fields).unwrap_err();
            let FrameError::Csv(msg) = &err else {
                panic!("{csv:?}: not a CSV error: {err:?}")
            };
            assert!(
                msg.starts_with(&format!("line {line}: column {column:?}")),
                "{msg}"
            );
            assert!(msg.contains(&format!("{found:?}")), "{msg}");
        }
        // Empty fields are NULL in every dtype, not parse failures.
        let df = read_csv_with_schema("id,score,ok\n,,\n".as_bytes(), &fields).unwrap();
        assert!(fields.iter().all(|(c, _)| df.cell(0, c).unwrap().is_null()));
    }

    #[test]
    fn schema_ingest_keeps_string_cells_verbatim() {
        let csv = "code,flag,amount,note\n007,TRUE,1.50,NaN\n+3,False,-0,\" padded \"\n";
        let df = read_csv_with_schema(
            csv.as_bytes(),
            &[
                ("code", DType::Categorical),
                ("flag", DType::Text),
                ("amount", DType::Text),
                ("note", DType::Categorical),
            ],
        )
        .unwrap();
        for (row, col, text) in [
            (0, "code", "007"),
            (0, "flag", "TRUE"),
            (0, "amount", "1.50"),
            (0, "note", "NaN"),
            (1, "code", "+3"),
            (1, "flag", "False"),
            (1, "amount", "-0"),
            (1, "note", " padded "),
        ] {
            assert_eq!(
                df.cell(row, col).unwrap(),
                Value::Str(text.into()),
                "{col}[{row}]"
            );
        }
    }

    #[test]
    fn schema_ingest_keeps_header_and_ragged_row_errors() {
        let fields = [("a", DType::Int), ("b", DType::Int)];
        let msg = |csv: &str| match read_csv_with_schema(csv.as_bytes(), &fields) {
            Err(FrameError::Csv(m)) => m,
            other => panic!("{csv:?}: {other:?}"),
        };
        assert_eq!(msg(""), "empty document");
        assert_eq!(msg("a\n1\n"), "schema has 2 columns, file has 1");
        assert_eq!(msg("a,c\n1,2\n"), "expected column \"b\", file has \"c\"");
        assert_eq!(msg("a,b\n1,2\n3\n"), "line 3: expected 2 fields, found 1");
        assert_eq!(msg("a,b\n1,\"2\n"), "line 2: unclosed quote");
    }

    #[test]
    fn duplicate_headers_are_an_error_not_a_panic() {
        assert_eq!(
            read_csv("a,a\n1,2\n".as_bytes()).unwrap_err(),
            FrameError::DuplicateColumn("a".into())
        );
    }

    const DTYPES: [DType; 5] = [
        DType::Int,
        DType::Float,
        DType::Bool,
        DType::Categorical,
        DType::Text,
    ];

    /// Non-empty cell text (`""` is NULL in this dialect) without
    /// line breaks (records are lines): commas, quotes, padding and
    /// multi-byte characters included.
    fn cell_text() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => "[ -~]{1,10}",
            1 => "[a-z,\"é中😀 ]{1,6}",
            1 => prop::sample::select(vec![
                "007".to_string(),
                "TRUE".to_string(),
                "1.50".to_string(),
                "NaN".to_string(),
                "\"".to_string(),
                " ".to_string(),
            ]),
        ]
    }

    fn cells<T: 'static>(
        cell: impl Strategy<Value = T> + 'static,
        n: usize,
    ) -> impl Strategy<Value = Vec<Option<T>>> {
        prop::collection::vec(prop::option::of(cell), n..=n)
    }

    fn column(j: usize, dtype: DType, n: usize) -> BoxedStrategy<Column> {
        let name = format!("c{j}");
        match dtype {
            DType::Int => cells(i64::MIN..=i64::MAX, n)
                .prop_map(move |v| Column::from_ints(name.clone(), v))
                .boxed(),
            DType::Float => cells(
                (0u64..=u64::MAX).prop_map(|b| {
                    Some(f64::from_bits(b))
                        .filter(|x| x.is_finite())
                        .unwrap_or(0.5)
                }),
                n,
            )
            .prop_map(move |v| Column::from_floats(name.clone(), v))
            .boxed(),
            DType::Bool => cells((0u8..2).prop_map(|b| b == 1), n)
                .prop_map(move |v| Column::from_bools(name.clone(), v))
                .boxed(),
            DType::Categorical | DType::Text => cells(cell_text(), n)
                .prop_map(move |v| Column::from_strings(name.clone(), dtype, v))
                .boxed(),
        }
    }

    /// Frames of 1..=6 columns of random dtypes and 0..12 rows, NULLs
    /// included.
    fn frame() -> impl Strategy<Value = DataFrame> {
        (
            prop::collection::vec(0usize..DTYPES.len(), 1..=6),
            0usize..12,
        )
            .prop_flat_map(|(kinds, n)| {
                let mut cols: BoxedStrategy<Vec<Column>> = Just(Vec::new()).boxed();
                for (j, k) in kinds.into_iter().enumerate() {
                    cols = (cols, column(j, DTYPES[k], n))
                        .prop_map(|(mut cs, c)| {
                            cs.push(c);
                            cs
                        })
                        .boxed();
                }
                cols.prop_map(|cs| DataFrame::from_columns(cs).unwrap())
            })
    }

    fn schema_of(df: &DataFrame) -> Vec<(&str, DType)> {
        df.columns().iter().map(|c| (c.name(), c.dtype())).collect()
    }

    proptest! {
        #[test]
        fn schema_ingest_round_trips_written_frames(df in frame()) {
            let mut buf = Vec::new();
            write_csv(&df, &mut buf).unwrap();
            let back = read_csv_with_schema(&buf[..], &schema_of(&df)).unwrap();
            prop_assert_eq!(&back, &df);
            prop_assert_eq!(schema_of(&back), schema_of(&df));
        }

        #[test]
        fn mutated_csv_is_an_error_or_a_frame_never_a_panic(
            df in frame(),
            edits in prop::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..8),
        ) {
            let mut bytes = Vec::new();
            write_csv(&df, &mut bytes).unwrap();
            for (at, byte, kind) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            if let Ok(back) = read_csv_with_schema(&bytes[..], &schema_of(&df)) {
                prop_assert_eq!(schema_of(&back), schema_of(&df));
            }
            let _ = read_csv(&bytes[..]);
        }
    }

    #[test]
    fn path_roundtrip() {
        let dir = std::env::temp_dir().join("dp_frame_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let df =
            DataFrame::from_columns(vec![Column::from_ints("x", vec![Some(1), Some(2)])]).unwrap();
        write_csv_path(&df, &path).unwrap();
        let back = read_csv_path(&path).unwrap();
        assert_eq!(back.n_rows(), 2);
        std::fs::remove_file(&path).ok();
    }
}
