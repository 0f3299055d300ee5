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
    fn to_json_escapes_every_special_character() {
        let mut t = Table::new("j \"quoted\"\n", &["a", "b,\\c"]);
        t.push_row(vec!["1".into(), "2\tx\u{1}".into()]);
        t.push_row(vec![String::new()]);
        let want = r#"{
  "title": "j \"quoted\"\n",
  "headers": ["a", "b,\\c"],
  "rows": [
    ["1", "2\tx\u0001"],
    [""]
  ]
}"#;
        assert_eq!(t.to_json(), want);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new("r", &["a", "b", "c"]);
        t.push_row(vec!["x".into()]);
        let _ = t.to_string();
    }
}
