//! Metric values and the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A metric name: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values print in
/// Rust's shortest round-trip form, so every measured digit survives.
///
/// # Panics
///
/// Panics on an invalid or repeated name or a non-finite value: both
/// are bugs in the benchmark, and neither may reach the result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {} reported twice",
            m.name
        );
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_result_grammar() {
        assert!(valid_name("core.egress_s.p2p-stores"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("with space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("run_s", "s", 1.234_567_890_123),
                Metric::new("core.packets", "count", 4096.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"core.packets\": {\"value\": 4096, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn repeated_names_are_a_bug() {
        let m = Metric::new("run_s", "s", 1.0);
        result_json(true, 1, 0, &[m.clone(), m]);
    }
}
