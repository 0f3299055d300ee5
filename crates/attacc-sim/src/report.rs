//! Plain-text table rendering for the figure/table regenerators.

use std::fmt;

/// A simple column-aligned text table with a title, used by the
/// `attacc-bench` experiments to print the paper's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. `"Figure 13: normalized execution time"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; shorter rows render padded with empty cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Formats a float with magnitude-appropriate precision.
    #[must_use]
    pub fn num(v: f64) -> String {
        if v == 0.0 {
            "0".to_string()
        } else if v.abs() >= 100.0 {
            format!("{v:.0}")
        } else if v.abs() >= 1.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.4}")
        }
    }

    /// Serializes the table to a JSON object (title, headers, rows).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn arr(items: &[String]) -> String {
            let cells: Vec<String> = items.iter().map(|s| esc(s)).collect();
            format!("[{}]", cells.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {}", arr(r))).collect();
        format!(
            "{{\n  \"title\": {},\n  \"headers\": {},\n  \"rows\": [\n{}\n  ]\n}}",
            esc(&self.title),
            arr(&self.headers),
            rows.join(",\n")
        )
    }

    /// Parses a table back from the JSON emitted by [`Table::to_json`].
    ///
    /// A deliberately small parser: it accepts exactly the object shape
    /// `to_json` produces (string title, flat string arrays), which is all
    /// the round-trip tests and tooling need.
    ///
    /// # Errors
    /// Returns a message describing the first malformed construct.
    pub fn from_json(text: &str) -> Result<Table, String> {
        let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
        p.expect_byte(b'{')?;
        let mut title = None;
        let mut headers = None;
        let mut rows = None;
        loop {
            let key = p.parse_string()?;
            p.expect_byte(b':')?;
            match key.as_str() {
                "title" => title = Some(p.parse_string()?),
                "headers" => headers = Some(p.parse_string_array()?),
                "rows" => rows = Some(p.parse_row_array()?),
                other => return Err(format!("unexpected key {other:?}")),
            }
            p.skip_ws();
            match p.next_byte()? {
                b',' => {}
                b'}' => break,
                c => return Err(format!("expected ',' or '}}', got {:?}", char::from(c))),
            }
        }
        Ok(Table {
            title: title.ok_or("missing \"title\"")?,
            headers: headers.ok_or("missing \"headers\"")?,
            rows: rows.ok_or("missing \"rows\"")?,
        })
    }

    /// Serializes the table to CSV (headers then rows; fields containing
    /// commas or quotes are quoted), for plotting tools.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

/// Cursor over the byte text for [`Table::from_json`].
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        self.skip_ws();
        let b = *self.bytes.get(self.pos).ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        let got = self.next_byte()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected {:?}, got {:?}", char::from(want), char::from(got)))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("bad escape {:?}", char::from(other))),
                    }
                }
                // Multi-byte UTF-8 continues verbatim: re-slice from here.
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len()
                        && !matches!(self.bytes[end], b'"' | b'\\')
                    {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|e| e.to_string())?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn parse_string_array(&mut self) -> Result<Vec<String>, String> {
        self.expect_byte(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.parse_string()?);
            match self.next_byte()? {
                b',' => {}
                b']' => return Ok(out),
                c => return Err(format!("expected ',' or ']', got {:?}", char::from(c))),
            }
        }
    }

    fn parse_row_array(&mut self) -> Result<Vec<Vec<String>>, String> {
        self.expect_byte(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.parse_string_array()?);
            match self.next_byte()? {
                b',' => {}
                b']' => return Ok(out),
                c => return Err(format!("expected ',' or ']', got {:?}", char::from(c))),
            }
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = w.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["a".into(), "1.00".into()]);
        t.push_row(vec!["long-name".into(), "2.50".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn num_formats_by_magnitude() {
        assert_eq!(Table::num(0.0), "0");
        assert_eq!(Table::num(1234.0), "1234");
        assert_eq!(Table::num(7.77159), "7.77");
        assert_eq!(Table::num(0.01234), "0.0123");
    }

    #[test]
    fn csv_escapes_fields() {
        let mut t = Table::new("c", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new("j \"quoted\"\n", &["a", "b,\\c"]);
        t.push_row(vec!["1".into(), "2\tx".into()]);
        t.push_row(vec![String::new()]);
        let back = Table::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new("r", &["a", "b", "c"]);
        t.push_row(vec!["x".into()]);
        let _ = t.to_string();
    }
}
