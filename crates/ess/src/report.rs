//! Aligned text tables and their CSV form for the experiment harness.
//!
//! Hand-rolled on purpose: the workspace's dependency policy (none — the
//! README's opening section) keeps serialisation crates out, and the
//! harness only needs fixed-width tables and comma-separated files.

use std::fmt::Write as _;

/// A simple column-aligned text table with a CSV serialisation.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == ncols { "\n" } else { "  " };
                let _ = write!(out, "{:<width$}{}", cell, sep, width = widths[i]);
            }
        };
        write_row(&self.headers, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }

    /// Serialises as CSV (quoting cells that contain commas or quotes).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 4 decimal places (the precision the reports use).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats an optional quality value (`-` when absent).
pub fn opt_f4(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), f4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(["name", "q"]);
        t.row(["a", "0.5"]);
        t.row(["longer", "0.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width for the first column.
        assert!(lines[0].starts_with("name  "));
        assert!(lines[2].starts_with("a     "));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["x,y", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(f2(4.67159), "4.67");
        assert_eq!(opt_f4(None), "-");
        assert_eq!(opt_f4(Some(1.0)), "1.0000");
    }
}
