//! The one writer behind the sweep, serve and advise CSV/JSON tables.
//!
//! A table is a [`Record`] type. Its [`Record::HEADER`] is the table's
//! only column list: the CSV header line, and split on `,` the JSON keys.
//! [`Record::cells`] lists a row's values once, as typed [`Cell`]s that
//! each format spells its own way. [`Table`] frames the rows and renders
//! them into one reused buffer, so `to_csv`/`to_json` and the streamed
//! sinks write the same bytes.

use std::fmt::Write as _;
use std::io;

/// A table's output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// Header line, then one comma-separated line per row.
    Csv,
    /// An array of row objects, one per line.
    Json,
}

/// One typed value of a row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell<'a> {
    /// Text: CSV-quoted only when it holds a comma, quote or newline.
    Str(&'a str),
    /// An unsigned integer.
    Int(u64),
    /// A real, written `{:.6}`.
    Real(f64),
    /// A flag: `0`/`1` in CSV, `false`/`true` in JSON.
    Bit(bool),
    /// An optional real: empty in CSV and `null` in JSON when absent.
    Maybe(Option<f64>),
}

/// A row type of one table.
pub(crate) trait Record {
    /// The column list, comma-separated.
    const HEADER: &'static str;
    /// `false` leaves JSON rows unindented and writes an empty array as
    /// `[\n\n]\n` instead of `[\n]\n` (the advise table's layout).
    const JSON_INDENTED: bool = true;

    /// Lists one value per header column, in order, plus any JSON-only
    /// fields where they belong.
    fn cells(&self, w: &mut Cells<'_>);
}

/// Spells a [`Record`]'s values into the row buffer.
pub(crate) struct Cells<'a> {
    out: &'a mut String,
    format: Format,
    keys: std::str::Split<'static, char>,
    first: bool,
}

impl Cells<'_> {
    /// Writes the value of the next header column.
    pub(crate) fn cell(&mut self, cell: Cell<'_>) {
        let key = self.keys.next().expect("a row lists one value per header column");
        self.field(key, cell);
    }

    /// Writes a field only JSON rows carry.
    pub(crate) fn json_cell(&mut self, key: &str, cell: Cell<'_>) {
        if self.format == Format::Json {
            self.field(key, cell);
        }
    }

    /// Writes a JSON-only field holding an array of nested records.
    pub(crate) fn json_records<R: Record>(&mut self, key: &str, rows: impl Iterator<Item = R>) {
        if self.format == Format::Json {
            self.key(key);
            self.out.push('[');
            for (i, row) in rows.enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                write_row(&row, Format::Json, self.out);
            }
            self.out.push(']');
        }
    }

    fn field(&mut self, key: &str, cell: Cell<'_>) {
        self.key(key);
        let out = &mut *self.out;
        match (cell, self.format) {
            (Cell::Str(s), Format::Csv) => push_csv_str(out, s),
            (Cell::Str(s), Format::Json) => push_json_str(out, s),
            (Cell::Int(n), _) => write!(out, "{n}").expect("String writes cannot fail"),
            (Cell::Real(x) | Cell::Maybe(Some(x)), _) => {
                write!(out, "{x:.6}").expect("String writes cannot fail");
            }
            (Cell::Bit(b), Format::Csv) => out.push(if b { '1' } else { '0' }),
            (Cell::Bit(b), Format::Json) => out.push_str(if b { "true" } else { "false" }),
            (Cell::Maybe(None), Format::Csv) => {}
            (Cell::Maybe(None), Format::Json) => out.push_str("null"),
        }
    }

    /// The separator before a value, and in JSON its key.
    fn key(&mut self, key: &str) {
        match self.format {
            Format::Csv if !self.first => self.out.push(','),
            Format::Csv => {}
            Format::Json => {
                self.out.push(if self.first { '{' } else { ',' });
                self.out.push('"');
                self.out.push_str(key);
                self.out.push_str("\":");
            }
        }
        self.first = false;
    }
}

/// Appends `s` as a CSV field, quoted with inner quotes doubled when it
/// holds a comma, quote or newline.
fn push_csv_str(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n']) {
        write!(out, "\"{}\"", s.replace('"', "\"\"")).expect("String writes cannot fail");
    } else {
        out.push_str(s);
    }
}

/// Appends `s` as a JSON string.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < b' ') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if c < ' ' => {
                    write!(out, "\\u{:04x}", c as u32).expect("String writes cannot fail");
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Appends one unframed row: a CSV line without its newline, or a JSON
/// object.
fn write_row<R: Record>(row: &R, format: Format, out: &mut String) {
    let mut cells = Cells { out, format, keys: R::HEADER.split(','), first: true };
    row.cells(&mut cells);
    debug_assert!(cells.keys.next().is_none(), "a row lists one value per header column");
    if format == Format::Json {
        cells.out.push('}');
    }
}

/// One row as a CSV line (no trailing newline).
pub(crate) fn csv_line<R: Record>(row: &R) -> String {
    let mut out = String::new();
    write_row(row, Format::Csv, &mut out);
    out
}

/// A table in progress: its framing around rows of one [`Record`] type,
/// rendered into a buffer that [`Table::drain_to`] empties into a writer
/// and [`Table::finish`] returns.
pub(crate) struct Table<R> {
    format: Format,
    rows: usize,
    buf: String,
    row_type: std::marker::PhantomData<fn(&R)>,
}

impl<R: Record> Table<R> {
    /// Opens a table with its CSV header line or JSON bracket.
    pub(crate) fn new(format: Format) -> Self {
        let buf = match format {
            Format::Csv => format!("{}\n", R::HEADER),
            Format::Json => "[\n".to_owned(),
        };
        Table { format, rows: 0, buf, row_type: std::marker::PhantomData }
    }

    /// Appends one row.
    pub(crate) fn push(&mut self, row: &R) {
        if self.format == Format::Json {
            if self.rows > 0 {
                self.buf.push_str(",\n");
            }
            if R::JSON_INDENTED {
                self.buf.push_str("  ");
            }
        }
        write_row(row, self.format, &mut self.buf);
        if self.format == Format::Csv {
            self.buf.push('\n');
        }
        self.rows += 1;
    }

    /// Writes the rendered bytes to `out` and empties the buffer.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s I/O errors.
    pub(crate) fn drain_to<W: io::Write>(&mut self, out: &mut W) -> io::Result<()> {
        out.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// Closes the table and returns the bytes not yet drained.
    pub(crate) fn finish(mut self) -> String {
        if self.format == Format::Json {
            if self.rows > 0 || !R::JSON_INDENTED {
                self.buf.push('\n');
            }
            self.buf.push_str("]\n");
        }
        self.buf
    }
}

/// Renders `rows` as a whole table.
pub(crate) fn render<'r, R: Record + 'r>(
    format: Format,
    rows: impl IntoIterator<Item = &'r R>,
) -> String {
    let mut table = Table::new(format);
    for row in rows {
        table.push(row);
    }
    table.finish()
}

/// A chip's runtime breakdown, nested under `per_chip` in sweep JSON.
impl Record for mtp_sim::Breakdown {
    const HEADER: &'static str = "compute,dma_l3_l2,dma_l2_l1,c2c,idle";

    fn cells(&self, w: &mut Cells<'_>) {
        for cycles in [self.compute, self.dma_l3_l2, self.dma_l2_l1, self.c2c, self.idle] {
            w.cell(Cell::Int(cycles));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row(&'static str, bool, Option<f64>);

    impl Record for Row {
        const HEADER: &'static str = "text,bit,maybe";

        fn cells(&self, w: &mut Cells<'_>) {
            w.cell(Cell::Str(self.0));
            w.cell(Cell::Bit(self.1));
            w.json_cell("n", Cell::Int(7));
            w.cell(Cell::Maybe(self.2));
        }
    }

    fn escaped(push: fn(&mut String, &str), s: &str) -> String {
        let mut out = String::new();
        push(&mut out, s);
        out
    }

    #[test]
    fn csv_and_json_escapes() {
        for (raw, csv, json) in [
            ("plain µs", "plain µs", "\"plain µs\""),
            ("a,b", "\"a,b\"", "\"a,b\""),
            ("say \"hi\"", "\"say \"\"hi\"\"\"", "\"say \\\"hi\\\"\""),
            ("two\nlines", "\"two\nlines\"", "\"two\\nlines\""),
            ("back\\slash", "back\\slash", "\"back\\\\slash\""),
            ("tab\tcr\r\u{1}\u{1f}", "tab\tcr\r\u{1}\u{1f}", "\"tab\\tcr\\r\\u0001\\u001f\""),
        ] {
            assert_eq!(escaped(push_csv_str, raw), csv);
            assert_eq!(escaped(push_json_str, raw), json);
        }
    }

    #[test]
    fn bit_and_maybe_render_per_format() {
        let rows = [Row("a", true, Some(0.5)), Row("b", false, None)];
        assert_eq!(render(Format::Csv, &rows), "text,bit,maybe\na,1,0.500000\nb,0,\n");
        assert_eq!(
            render(Format::Json, &rows),
            "[\n  {\"text\":\"a\",\"bit\":true,\"n\":7,\"maybe\":0.500000},\n  \
             {\"text\":\"b\",\"bit\":false,\"n\":7,\"maybe\":null}\n]\n"
        );
        assert_eq!(render::<Row>(Format::Json, []), "[\n]\n");
    }
}
