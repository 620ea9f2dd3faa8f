//! ASCII bar charts, so the experiment reports can render paper-figure
//! lookalikes directly in the terminal.

use std::fmt::Write as _;

/// A grouped horizontal bar chart (one group per app, one bar per
/// series — the shape of the paper's Fig 9 and Fig 13).
///
/// # Examples
///
/// ```
/// use sim_engine::BarChart;
///
/// let mut c = BarChart::new("Fig 9", &["p2p", "finepack"]);
/// c.group("jacobi", &[2.8, 3.0]);
/// c.group("pagerank", &[0.5, 1.7]);
/// let s = c.render(40);
/// assert!(s.contains("jacobi"));
/// assert!(s.contains("#"));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    series: Vec<String>,
    groups: Vec<(String, Vec<f64>)>,
}

/// Glyphs used for up to six series.
const GLYPHS: [char; 6] = ['#', '=', '*', '+', 'o', '.'];

impl BarChart {
    /// Creates a chart with named series.
    ///
    /// # Panics
    ///
    /// Panics if more than six series are requested (glyphs run out) or
    /// none.
    pub fn new(title: impl Into<String>, series: &[&str]) -> Self {
        assert!(
            !series.is_empty() && series.len() <= GLYPHS.len(),
            "1..=6 series supported"
        );
        BarChart {
            title: title.into(),
            series: series.iter().map(|s| s.to_string()).collect(),
            groups: Vec::new(),
        }
    }

    /// Adds one group (e.g. one application) with a value per series.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the series count or any
    /// value is negative or non-finite.
    pub fn group(&mut self, label: impl Into<String>, values: &[f64]) {
        assert_eq!(values.len(), self.series.len(), "one value per series");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "values must be non-negative and finite"
        );
        self.groups.push((label.into(), values.to_vec()));
    }

    /// Renders with bars scaled so the maximum value spans `width`
    /// characters.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn render(&self, width: usize) -> String {
        assert!(width > 0, "width must be positive");
        let max = self
            .groups
            .iter()
            .flat_map(|(_, vs)| vs.iter())
            .cloned()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let label_w = self
            .groups
            .iter()
            .map(|(l, _)| l.len())
            .chain(self.series.iter().map(|s| s.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for (label, values) in &self.groups {
            for (i, v) in values.iter().enumerate() {
                let bar_len = ((v / max) * width as f64).round() as usize;
                let name = if i == 0 { label.as_str() } else { "" };
                let _ = writeln!(
                    out,
                    "{name:>label_w$} |{} {v:.2}",
                    GLYPHS[i].to_string().repeat(bar_len.max(1)),
                );
            }
        }
        let _ = write!(out, "{:>label_w$} |", "legend");
        for (i, s) in self.series.iter().enumerate() {
            let _ = write!(out, " {}={s}", GLYPHS[i]);
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scaled_bars() {
        let mut c = BarChart::new("T", &["a", "b"]);
        c.group("g1", &[1.0, 2.0]);
        c.group("g2", &[4.0, 0.0]);
        let s = c.render(8);
        // Max (4.0) spans 8 chars; 2.0 spans 4; 1.0 spans 2; 0.0 floors at 1.
        assert!(s.contains("|######## 4.00"));
        assert!(s.contains("|==== 2.00"));
        assert!(s.contains("|## 1.00"));
        assert!(s.contains("|= 0.00"));
        assert!(s.contains("legend"));
    }

    #[test]
    fn group_labels_appear_once() {
        let mut c = BarChart::new("T", &["x", "y"]);
        c.group("only", &[1.0, 1.0]);
        let s = c.render(10);
        assert_eq!(s.matches("only").count(), 1);
    }

    #[test]
    #[should_panic(expected = "one value per series")]
    fn wrong_arity_panics() {
        let mut c = BarChart::new("T", &["x", "y"]);
        c.group("g", &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_value_panics() {
        let mut c = BarChart::new("T", &["x"]);
        c.group("g", &[-1.0]);
    }
}
