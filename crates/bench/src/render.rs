//! Tiny text-rendering helpers for figure output: ASCII CDF curves,
//! histograms, and aligned numeric tables.

use geokit::stats::Ecdf;
use std::fmt::Write as _;

/// Render an ECDF as `x,F(x)` CSV lines plus a quantile summary.
pub fn render_ecdf(name: &str, values: &[f64], lo: f64, hi: f64, points: usize) -> String {
    let mut out = String::new();
    let ecdf = Ecdf::new(values.to_vec());
    let _ = writeln!(out, "# ECDF {name} (n = {})", ecdf.len());
    for (x, f) in ecdf.curve(lo, hi, points) {
        let _ = writeln!(out, "{x:.3},{f:.4}");
    }
    let _ = writeln!(
        out,
        "# quantiles: p10={:.1} p50={:.1} p90={:.1} p97={:.1}",
        ecdf.quantile(0.10).unwrap_or(f64::NAN),
        ecdf.quantile(0.50).unwrap_or(f64::NAN),
        ecdf.quantile(0.90).unwrap_or(f64::NAN),
        ecdf.quantile(0.97).unwrap_or(f64::NAN),
    );
    out
}

/// Render a histogram over fixed-width bins as `lo..hi: count` lines with
/// a proportional bar.
pub fn render_histogram(name: &str, values: &[f64], lo: f64, hi: f64, bins: usize) -> String {
    assert!(bins > 0 && hi > lo, "bad histogram spec");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    let mut clipped = 0usize;
    for &v in values {
        if v < lo || v >= hi {
            clipped += 1;
            continue;
        }
        counts[((v - lo) / width) as usize] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# histogram {name} (n = {}, clipped = {clipped})",
        values.len()
    );
    for (i, &c) in counts.iter().enumerate() {
        let bar = "#".repeat(c * 50 / max);
        let _ = writeln!(
            out,
            "{:>10.2} .. {:>10.2} | {c:>6} {bar}",
            lo + width * i as f64,
            lo + width * (i + 1) as f64
        );
    }
    out
}

/// Render an x/y scatter as CSV (for plotting outside).
pub fn render_scatter(name: &str, header: &str, points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# scatter {name} (n = {})", points.len());
    let _ = writeln!(out, "{header}");
    for &(x, y) in points {
        let _ = writeln!(out, "{x:.3},{y:.3}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_renders_quantiles() {
        let s = render_ecdf("test", &[1.0, 2.0, 3.0, 4.0], 0.0, 5.0, 6);
        assert!(s.contains("# ECDF test (n = 4)"));
        assert!(s.contains("p50="));
    }

    #[test]
    fn histogram_counts_and_clips() {
        let s = render_histogram("h", &[0.5, 1.5, 1.6, 99.0], 0.0, 2.0, 2);
        assert!(s.contains("clipped = 1"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn scatter_is_csv() {
        let s = render_scatter("s", "x,y", &[(1.0, 2.0)]);
        assert!(s.contains("1.000,2.000"));
    }
}
