//! Serializable benchmark reports and text-table rendering — the glue
//! between the metrics engine and the table/figure regenerators in the
//! bench crate.

use std::fmt::Write as _;

use crate::metrics::Comparison;
use crate::units::Area;

/// One benchmark evaluated on one technology (a Table II row).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub benchmark: String,
    /// The original-vs-pipelined comparison.
    pub comparison: Comparison,
}

impl BenchmarkRow {
    /// Renders the row in the column layout of Table II.
    pub fn to_table_line(&self) -> String {
        let c = &self.comparison;
        format!(
            "{:<12} {:>5} {:>5} {:>8} {:>8} {:>12.2} {:>12.2} {:>10.2} {:>10.2} {:>12.2} {:>12.2} {:>8.2} {:>8.2}",
            self.benchmark,
            c.original.depth,
            c.pipelined.depth,
            c.original.size,
            c.pipelined.size,
            c.original.area.value(),
            c.pipelined.area.value(),
            c.original.power.value(),
            c.pipelined.power.value(),
            c.original.throughput.value(),
            c.pipelined.throughput.value(),
            c.ta_gain(),
            c.tp_gain(),
        )
    }

    /// The Table II column header matching [`Self::to_table_line`].
    pub fn table_header() -> String {
        format!(
            "{:<12} {:>5} {:>5} {:>8} {:>8} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12} {:>8} {:>8}",
            "Benchmark",
            "D.org",
            "D.wp",
            "S.org",
            "S.wp",
            "Area.org",
            "Area.wp",
            "P.org",
            "P.wp",
            "T.org",
            "T.wp",
            "T/A",
            "T/P"
        )
    }
}

/// Geometric mean of a slice (the right average for ratio data like the
/// Fig 9 gains; the paper reports plain averages, the harness prints
/// both).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Renders a simple aligned two-column table (label, value).
pub fn two_column_table(title: &str, rows: &[(String, String)]) -> String {
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0).max(8);
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    for (label, value) in rows {
        let _ = writeln!(out, "{label:<width$}  {value}");
    }
    out
}

/// Formats an area ratio as the paper does ("×" suffixed).
pub fn format_ratio(numerator: Area, denominator: Area) -> String {
    format!("{:.2}×", numerator / denominator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{compare, evaluate, OperatingMode};
    use crate::technology::Technology;
    use wavepipe::PipelineSpec;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn table_line_renders_all_columns() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 8,
            outputs: 4,
            gates: 60,
            depth: 6,
            seed: 77,
        });
        let r = PipelineSpec::default()
            .build()
            .unwrap()
            .run(&g)
            .unwrap()
            .result;
        let row = BenchmarkRow {
            benchmark: "RAND".to_owned(),
            comparison: compare(&r, &Technology::swd()),
        };
        let line = row.to_table_line();
        assert!(line.starts_with("RAND"));
        // Header and line agree on column count by construction; sanity
        // check that both are non-trivially long and aligned.
        assert_eq!(BenchmarkRow::table_header().split_whitespace().count(), 13);
        assert!(line.split_whitespace().count() >= 13);
    }

    #[test]
    fn serde_roundtrip() {
        let mut n = wavepipe::Netlist::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        let e = evaluate(&n, &Technology::nml(), OperatingMode::Combinational);
        let json = serde_json::to_string(&e).unwrap();
        let back: crate::metrics::Evaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn two_column_rendering() {
        let t = two_column_table(
            "demo",
            &[
                ("alpha".to_owned(), "1".to_owned()),
                ("b".to_owned(), "2".to_owned()),
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("alpha"));
    }
}
