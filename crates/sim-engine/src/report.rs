//! Plain-text result tables: the rows/series of each paper figure and
//! every CLI report.

use std::fmt::Write as _;

/// Geometric mean of a slice of positive values.
///
/// Returns `None` if the slice is empty or any value is non-positive.
///
/// # Examples
///
/// ```
/// use sim_engine::geomean;
///
/// let g = geomean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert_eq!(geomean(&[]), None);
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// A fixed-width text table builder.
///
/// # Examples
///
/// ```
/// use sim_engine::Table;
///
/// let mut t = Table::new("Fig 9", &["app", "speedup"]);
/// t.row(&["jacobi".to_string(), format!("{:.2}", 3.1)]);
/// let s = t.render();
/// assert!(s.contains("jacobi"));
/// assert!(s.contains("3.10"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let render_line = |cells: &[String]| {
            let mut line = String::new();
            for (cell, width) in cells.iter().zip(&widths) {
                let _ = write!(line, "{cell:<width$}  ");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", render_line(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_line(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, -1.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn geomean_single() {
        assert!((geomean(&[3.5]).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["a", "longheader"]);
        t.row(&["xx".into(), "1".into()]);
        t.row(&["y".into(), "22".into()]);
        let s = t.render();
        assert!(s.starts_with("== T =="));
        assert!(s.contains("longheader"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
