//! The one writer behind the sweep, serve and advise CSV/JSON tables.
//!
//! A table is a [`Record`] type. Its [`Record::HEADER`] is the table's
//! only column list: the CSV header line, and split on `,` the JSON keys,
//! which each table turns into its `{"key":` / `,"key":` fragments once.
//! [`Record::cells`] lists a row's values once, as typed [`Cell`]s that
//! each format spells its own way, or as labels spelled straight into
//! the row ([`Cells::text`]). [`Table`] frames the rows and renders them
//! into one reused byte buffer, so `to_csv`/`to_json` and the streamed
//! sinks write the same bytes.
//!
//! Numbers never go through `fmt`: integers are written through a
//! two-digit table ([`push_int`]) and `{:.6}` reals through exact integer
//! arithmetic on the `f64`'s mantissa and exponent ([`push_real`]), both
//! byte-identical to `format!` (`DESIGN.md` §16).

use std::io::{self, Write as _};

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

/// A record type's columns as one format writes them: the column count,
/// and for JSON each column's key fragment (`{"first":`, then
/// `,"next":`), built once per table instead of once per row.
struct Keys {
    header: &'static str,
    columns: usize,
    fragments: Vec<Box<[u8]>>,
}

impl Keys {
    fn of(header: &'static str, format: Format) -> Self {
        let columns = header.split(',').count();
        let fragments = match format {
            Format::Csv => Vec::new(),
            Format::Json => header
                .split(',')
                .enumerate()
                .map(|(i, key)| {
                    let open = if i == 0 { '{' } else { ',' };
                    format!("{open}\"{key}\":").into_bytes().into_boxed_slice()
                })
                .collect(),
        };
        Keys { header, columns, fragments }
    }
}

/// Spells a [`Record`]'s values into the row buffer.
pub(crate) struct Cells<'a> {
    out: &'a mut Vec<u8>,
    format: Format,
    keys: &'a Keys,
    /// The table's key fragments of its nested record type, built on the
    /// first nested row.
    nested: &'a mut Option<Keys>,
    column: usize,
}

impl Cells<'_> {
    /// Writes the value of the next header column.
    pub(crate) fn cell(&mut self, cell: Cell<'_>) {
        self.next_column();
        self.value(cell);
    }

    /// Writes the next header column's text through `spell`, which
    /// appends it raw: CSV quoting or JSON escaping is applied afterwards,
    /// and only when the text needs it.
    pub(crate) fn text(&mut self, spell: impl FnOnce(&mut Vec<u8>)) {
        self.next_column();
        self.spell_text(spell);
    }

    /// Writes a field only JSON rows carry.
    pub(crate) fn json_cell(&mut self, key: &str, cell: Cell<'_>) {
        if self.format == Format::Json {
            self.json_key(key);
            self.value(cell);
        }
    }

    /// Writes a JSON-only field holding an array of nested records.
    pub(crate) fn json_records<R: Record>(&mut self, key: &str, rows: impl Iterator<Item = R>) {
        if self.format != Format::Json {
            return;
        }
        self.json_key(key);
        let keys = match self.nested.take() {
            Some(keys) if keys.header == R::HEADER => keys,
            _ => Keys::of(R::HEADER, Format::Json),
        };
        self.out.push(b'[');
        for (i, row) in rows.enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            write_row(&row, Format::Json, self.out, &keys, &mut None);
        }
        self.out.push(b']');
        *self.nested = Some(keys);
    }

    /// The separator before the next header column's value, and in JSON
    /// its key.
    fn next_column(&mut self) {
        let column = self.column;
        assert!(column < self.keys.columns, "a row lists one value per header column");
        match self.format {
            Format::Csv if column > 0 => self.out.push(b','),
            Format::Csv => {}
            Format::Json => self.out.extend_from_slice(&self.keys.fragments[column]),
        }
        self.column += 1;
    }

    /// The key of a JSON-only field, which never opens a row.
    fn json_key(&mut self, key: &str) {
        debug_assert!(self.column > 0, "a JSON-only field follows a header column");
        self.out.extend_from_slice(b",\"");
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    fn value(&mut self, cell: Cell<'_>) {
        match (cell, self.format) {
            (Cell::Str(s), _) => self.spell_text(|out| out.extend_from_slice(s.as_bytes())),
            (Cell::Int(n), _) => push_int(self.out, n),
            (Cell::Real(x) | Cell::Maybe(Some(x)), _) => push_real(self.out, x),
            (Cell::Bit(b), Format::Csv) => self.out.push(if b { b'1' } else { b'0' }),
            (Cell::Bit(b), Format::Json) => {
                self.out.extend_from_slice(if b { b"true" } else { b"false" });
            }
            (Cell::Maybe(None), Format::Csv) => {}
            (Cell::Maybe(None), Format::Json) => self.out.extend_from_slice(b"null"),
        }
    }

    fn spell_text(&mut self, spell: impl FnOnce(&mut Vec<u8>)) {
        let json = self.format == Format::Json;
        if json {
            self.out.push(b'"');
        }
        let start = self.out.len();
        spell(self.out);
        let raw = &self.out[start..];
        let plain = if json {
            !raw.iter().any(|&b| b == b'"' || b == b'\\' || b < b' ')
        } else {
            !raw.iter().any(|&b| matches!(b, b',' | b'"' | b'\n'))
        };
        if !plain {
            let raw = self.out.split_off(start);
            let raw = std::str::from_utf8(&raw).expect("labels are spelled in UTF-8");
            if json {
                push_json_escaped(self.out, raw);
            } else {
                push_csv_quoted(self.out, raw);
            }
        }
        if json {
            self.out.push(b'"');
        }
    }
}

/// Appends `s` as a quoted CSV field with inner quotes doubled.
fn push_csv_quoted(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    out.extend_from_slice(s.replace('"', "\"\"").as_bytes());
    out.push(b'"');
}

/// Appends the body of a JSON string holding `s` (without its quotes).
fn push_json_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b if b < b' ' => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
}

/// `00`, `01`, …, `99`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                  2021222324252627282930313233343536373839\
                                  4041424344454647484950515253545556575859\
                                  6061626364656667686970717273747576777879\
                                  8081828384858687888990919293949596979899";

/// The two digits of `n < 100`.
fn pair(n: u64) -> &'static [u8] {
    let i = n as usize * 2;
    &DIGIT_PAIRS[i..i + 2]
}

/// Appends `n` in decimal: the bytes of `format!("{n}")`.
pub(crate) fn push_int(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(pair(n % 100));
        n /= 100;
    }
    if n >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(pair(n));
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `x` as `format!("{x:.6}")` spells it. Finite values whose
/// magnitude in millionths fits in `u64` (below about 1.8e13) take exact
/// integer arithmetic ([`millionths`]); larger and non-finite values
/// fall back to `fmt`.
pub(crate) fn push_real(out: &mut Vec<u8>, x: f64) {
    let Some(n) = millionths(x) else {
        write!(out, "{x:.6}").expect("writes to a Vec cannot fail");
        return;
    };
    // `fmt` signs every negative value, -0.0 and those rounding to zero
    // included.
    if x.is_sign_negative() {
        out.push(b'-');
    }
    push_int(out, n / 1_000_000);
    let frac = n % 1_000_000;
    out.push(b'.');
    out.extend_from_slice(pair(frac / 10_000));
    out.extend_from_slice(pair(frac / 100 % 100));
    out.extend_from_slice(pair(frac % 100));
}

/// `|x| × 10^6` rounded to the nearest integer, ties to even, which is
/// how `fmt` rounds the exact binary value to six decimals. A finite `x`
/// is exactly `m × 2^e` with `m < 2^53`, so `m × 10^6 < 2^73` and the
/// shift and mask below are exact in `u128`. `None` for non-finite
/// values and for results past `u64`, which every `e >= 0` gives
/// (`|x| >= 2^52`).
fn millionths(x: f64) -> Option<u64> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, exp) =
        if biased == 0 { (fraction, -1074) } else { (fraction | 1 << 52, biased - 1075) };
    // Non-finite values have the largest biased exponent, so `exp > 0`.
    if exp >= 0 {
        return None;
    }
    let scaled = u128::from(mantissa) * 1_000_000;
    let shift = exp.unsigned_abs();
    // scaled < 2^73 <= 2^(shift - 1): below half a millionth.
    if shift >= 74 {
        return Some(0);
    }
    let floor = scaled >> shift;
    let rest = scaled & ((1 << shift) - 1);
    let half = 1u128 << (shift - 1);
    u64::try_from(floor + u128::from(rest > half || (rest == half && floor & 1 == 1))).ok()
}

/// Appends one unframed row: a CSV line without its newline, or a JSON
/// object.
fn write_row<R: Record>(
    row: &R,
    format: Format,
    out: &mut Vec<u8>,
    keys: &Keys,
    nested: &mut Option<Keys>,
) {
    let mut cells = Cells { out, format, keys, nested, column: 0 };
    row.cells(&mut cells);
    debug_assert_eq!(cells.column, keys.columns, "a row lists one value per header column");
    if format == Format::Json {
        cells.out.push(b'}');
    }
}

/// The bytes `spell` appends, as a `String`: the one spelling of a label
/// for callers outside a table.
pub(crate) fn spelled(spell: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    spell(&mut out);
    String::from_utf8(out).expect("labels are spelled in UTF-8")
}

/// One row as a CSV line (no trailing newline).
pub(crate) fn csv_line<R: Record>(row: &R) -> String {
    let keys = Keys::of(R::HEADER, Format::Csv);
    spelled(|out| write_row(row, Format::Csv, out, &keys, &mut None))
}

/// A table in progress: its framing around rows of one [`Record`] type,
/// rendered into a buffer that [`Table::drain_to`] empties into a writer
/// and [`Table::finish`] returns.
pub(crate) struct Table<R> {
    format: Format,
    rows: usize,
    buf: Vec<u8>,
    keys: Keys,
    nested: Option<Keys>,
    row_type: std::marker::PhantomData<fn(&R)>,
}

impl<R: Record> Table<R> {
    /// Opens a table with its CSV header line or JSON bracket.
    pub(crate) fn new(format: Format) -> Self {
        let buf = match format {
            Format::Csv => format!("{}\n", R::HEADER),
            Format::Json => "[\n".to_owned(),
        };
        Table {
            format,
            rows: 0,
            buf: buf.into_bytes(),
            keys: Keys::of(R::HEADER, format),
            nested: None,
            row_type: std::marker::PhantomData,
        }
    }

    /// Appends one row.
    pub(crate) fn push(&mut self, row: &R) {
        if self.format == Format::Json {
            if self.rows > 0 {
                self.buf.extend_from_slice(b",\n");
            }
            if R::JSON_INDENTED {
                self.buf.extend_from_slice(b"  ");
            }
        }
        write_row(row, self.format, &mut self.buf, &self.keys, &mut self.nested);
        if self.format == Format::Csv {
            self.buf.push(b'\n');
        }
        self.rows += 1;
    }

    /// Writes the rendered bytes to `out` and empties the buffer.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s I/O errors.
    pub(crate) fn drain_to<W: io::Write>(&mut self, out: &mut W) -> io::Result<()> {
        out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Closes the table and returns the bytes not yet drained.
    pub(crate) fn finish(mut self) -> String {
        if self.format == Format::Json {
            if self.rows > 0 || !R::JSON_INDENTED {
                self.buf.push(b'\n');
            }
            self.buf.extend_from_slice(b"]\n");
        }
        String::from_utf8(self.buf).expect("the table writer emits UTF-8")
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
    use proptest::prelude::*;

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

    /// One text column, spelled in place.
    struct Label(&'static str);

    impl Record for Label {
        const HEADER: &'static str = "label";

        fn cells(&self, w: &mut Cells<'_>) {
            w.text(|out| out.extend_from_slice(self.0.as_bytes()));
        }
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
            assert_eq!(render(Format::Csv, &[Label(raw)]), format!("label\n{csv}\n"));
            assert_eq!(
                render(Format::Json, &[Label(raw)]),
                format!("[\n  {{\"label\":{json}}}\n]\n")
            );
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

    fn int(n: u64) -> String {
        spelled(|out| push_int(out, n))
    }

    fn real(x: f64) -> String {
        spelled(|out| push_real(out, x))
    }

    #[test]
    fn integers_match_fmt_at_digit_boundaries() {
        let mut n = 1u64;
        while let Some(next) = n.checked_mul(10) {
            for m in [n - 1, n, n + 1, next - 1] {
                assert_eq!(int(m), m.to_string());
            }
            n = next;
        }
        for m in [0, 9, 10, 99, 100, u64::MAX - 1, u64::MAX] {
            assert_eq!(int(m), m.to_string());
        }
    }

    #[test]
    fn reals_match_fmt_at_the_edges() {
        let two53 = 9_007_199_254_740_992.0f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            1.0,
            0.000_000_5,
            0.000_000_499_999_999,
            2.5e-7,
            1.5e-6,
            0.000_001_5,
            -1e-10,
            two53,
            two53 - 1.0,
            two53 + 2.0,
            1e13,
            1.8e13,
            1.9e13,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Exact ties at the seventh decimal: odd multiples of 2^-7 (the
        // only binary fractions with a 5 there and nothing after it).
        for k in (1..2000u32).step_by(2) {
            cases.push(f64::from(k) / 128.0);
            cases.push(f64::from(k) / 64.0 + 1.0 / 128.0);
            cases.push(-f64::from(k) / 128.0);
            // The same ties behind a 40-bit integer part.
            cases.push((1u64 << 40) as f64 + f64::from(k) / 128.0);
        }
        for x in cases {
            assert_eq!(real(x), format!("{x:.6}"), "{x:e}");
        }
    }

    proptest! {
        #[test]
        fn integers_match_fmt(n in 0..=u64::MAX, digits in 0u32..20) {
            let small = n % 10u64.pow(digits);
            prop_assert_eq!(int(n), n.to_string());
            prop_assert_eq!(int(small), small.to_string());
        }

        #[test]
        fn reals_match_fmt(bits in 0..=u64::MAX, m in 0..=u64::MAX, e in 0u32..90) {
            // Any bit pattern (NaNs, infinities and subnormals included),
            // and values spread over the magnitudes tables hold: 2^-93
            // to 2^49.
            let x = f64::from_bits(bits);
            prop_assert_eq!(real(x), format!("{x:.6}"));
            let y = (m >> 11) as f64 * 2f64.powi(e as i32 - 93);
            prop_assert_eq!(real(y), format!("{y:.6}"));
            prop_assert_eq!(real(-y), format!("{:.6}", -y));
        }
    }
}
