//! Descriptive statistics: ECDFs, quantiles, means, correlation.
//!
//! The paper reports its algorithm comparison as empirical CDFs (Fig. 9),
//! uses percentile cutoffs in Octant's delay model (50 % / 75 %), and argues
//! "no correlation" claims (Fig. 20) — all served from here.

/// An empirical cumulative distribution function over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample. NaNs are rejected.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    pub fn new(mut values: Vec<f64>) -> Ecdf {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in ECDF input");
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of the sample ≤ `x`; 0 for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank method.
    /// `None` for an empty sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Evaluate the ECDF at `n` evenly spaced points across `[lo, hi]`,
    /// yielding `(x, F(x))` pairs — the series a CDF plot needs.
    pub fn curve(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "curve needs at least 2 points");
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n − 1 denominator); 0 for fewer than 2 values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Median of a sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Pearson correlation coefficient of paired samples.
/// `None` if fewer than 2 pairs or either side has zero variance.
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for &(x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx < 1e-12 || syy < 1e-12 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation: Pearson on ranks, tie-aware (average ranks).
/// Used for the paper's "size of region is not correlated with distance to
/// the nearest landmark" claim (Fig. 20), which is about monotone
/// association, not linearity.
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let xr = ranks(pairs.iter().map(|p| p.0));
    let yr = ranks(pairs.iter().map(|p| p.1));
    let ranked: Vec<(f64, f64)> = xr.into_iter().zip(yr).collect();
    pearson(&ranked)
}

fn ranks<I: Iterator<Item = f64>>(values: I) -> Vec<f64> {
    let vals: Vec<f64> = values.collect();
    let mut idx: Vec<usize> = (0..vals.len()).collect();
    idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).expect("NaN in rank input"));
    let mut out = vec![0.0; vals.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && vals[idx[j + 1]] == vals[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.5), Some(50.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(100.0));
        assert_eq!(e.quantile(0.75), Some(75.0));
        assert_eq!(Ecdf::new(vec![]).quantile(0.5), None);
    }

    #[test]
    fn ecdf_curve_endpoints() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let c = e.curve(0.0, 4.0, 5);
        assert_eq!(c.first().unwrap().1, 0.0);
        assert_eq!(c.last().unwrap().1, 1.0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn summary_stats() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.138089935299395).abs() < 1e-9);
        assert_eq!(median(&v), Some(4.5));
        assert_eq!(median(&[]), None);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 2.0 * f64::from(i)))
            .collect();
        assert!((pearson(&pts).unwrap() - 1.0).abs() < 1e-12);
        let anti: Vec<(f64, f64)> = (0..10).map(|i| (f64::from(i), -f64::from(i))).collect();
        assert!((pearson(&anti).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert!(pearson(&[(1.0, 1.0)]).is_none());
        assert!(pearson(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| (f64::from(i), f64::from(i).exp()))
            .collect();
        assert!((spearman(&pts).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let pts = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (4.0, 3.0)];
        let r = spearman(&pts).unwrap();
        assert!(r > 0.9 && r <= 1.0, "got {r}");
    }

    #[test]
    fn spearman_no_association_is_near_zero() {
        // x cycles, y alternates — no monotone association.
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| (f64::from(i % 10), if i % 2 == 0 { 1.0 } else { 2.0 }))
            .collect();
        let r = spearman(&pts).unwrap();
        assert!(r.abs() < 0.2, "got {r}");
    }
}
