//! Report primitives: aligned text tables for stdout and CSV files for
//! plotting, one per table/figure of the evaluation.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A rendered table (one per paper table/figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id, e.g. `"e2_quality"` (also the CSV file stem).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-text notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        headers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {} in table {}",
            row.len(),
            self.headers.len(),
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table as aligned plain text.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} [{}] ==\n", self.title, self.id));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Writes the table as CSV into `dir/<id>.csv`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from directory creation or file writing.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", csv_line(&self.headers))?;
        for row in &self.rows {
            writeln!(f, "{}", csv_line(row))?;
        }
        Ok(path)
    }
}

fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Formats a number for the hand-laid-out `BENCH_*.json` artifacts:
/// six-digit scientific notation, so committed artifacts diff cleanly,
/// and `null` for non-finite values (JSON has no infinity or NaN).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6e}")
    } else {
        "null".to_string()
    }
}

/// Formats a float compactly for table cells.
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if !(1e-2..1e5).contains(&a) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t1", "Demo", ["a", "b"]);
        t.push_row(["1", "hello"]);
        t.push_row(["22", "w,orld"]);
        t.note("a note");
        t
    }

    #[test]
    fn text_rendering_aligns() {
        let s = sample().render_text();
        assert!(s.contains("Demo"));
        assert!(s.contains("hello"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", "T", ["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn csv_quotes_commas() {
        let dir = std::env::temp_dir().join(format!("mlconf_report_test_{}", std::process::id()));
        let path = sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("\"w,orld\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(3.21159), "3.21");
        assert_eq!(fmt_num(12345.6), "12346");
        assert_eq!(fmt_num(1.23e7), "1.23e7");
        assert_eq!(fmt_num(0.001234), "1.23e-3");
        assert_eq!(fmt_num(f64::INFINITY), "inf");
    }
}
