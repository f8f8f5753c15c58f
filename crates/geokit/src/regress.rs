//! Regression: ordinary least squares, polynomial fits, and the Theil–Sen
//! robust line.
//!
//! Used by:
//! * Spotter's delay model — cubic least squares on the mean and standard
//!   deviation of distance as a function of delay (paper §3.3);
//! * the tool-validation analysis — linear fits of delay vs distance and
//!   slope-ratio tests (paper §4.3, Figs. 4–6);
//! * the proxy self-ping factor η — a robust line through (indirect,
//!   direct) RTT pairs (paper §5.3, Fig. 13), robust because a minority of
//!   proxies see pathological routing.

use crate::linalg::solve;

/// Result of a simple linear fit `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// Intercept (value of `y` at `x = 0`).
    pub intercept: f64,
    /// Slope (change of `y` per unit of `x`).
    pub slope: f64,
}

impl Line {
    /// Evaluate the line at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Ordinary least squares line through `(x, y)` pairs.
///
/// Returns `None` with fewer than 2 points or when all `x` are identical.
pub fn ols_line(points: &[(f64, f64)]) -> Option<Line> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some(Line { intercept, slope })
}

/// Coefficient of determination R² of a fitted predictor over the points.
///
/// `predict` maps x → ŷ. Returns 1.0 when the data has zero variance and
/// the fit is exact, 0.0 when the data has zero variance and the fit is not.
pub fn r_squared<F: Fn(f64) -> f64>(points: &[(f64, f64)], predict: F) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let mean_y: f64 = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - predict(p.0)).powi(2)).sum();
    if ss_tot < 1e-12 {
        return if ss_res < 1e-12 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Theil–Sen estimator: the median of pairwise slopes, with the median of
/// `y − slope·x` as intercept. Breakdown point ≈ 29 %, which is what the
/// paper needs for the η fit where some proxies take pathological routes.
///
/// O(n²) pairwise slopes; fine for the ≤ few-hundred-point inputs here.
/// Returns `None` with fewer than 2 points or no finite pairwise slope.
pub fn theil_sen(points: &[(f64, f64)]) -> Option<Line> {
    if points.len() < 2 {
        return None;
    }
    let mut slopes = Vec::with_capacity(points.len() * (points.len() - 1) / 2);
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            let dx = points[j].0 - points[i].0;
            if dx.abs() > 1e-12 {
                slopes.push((points[j].1 - points[i].1) / dx);
            }
        }
    }
    if slopes.is_empty() {
        return None;
    }
    let slope = median_in_place(&mut slopes);
    let mut residuals: Vec<f64> = points.iter().map(|p| p.1 - slope * p.0).collect();
    let intercept = median_in_place(&mut residuals);
    Some(Line { intercept, slope })
}

fn median_in_place(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A polynomial `c0 + c1·x + c2·x² + …` fitted by least squares.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// Coefficients, lowest order first. Never empty.
    pub coefficients: Vec<f64>,
}

impl Polynomial {
    /// Evaluate at `x` by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coefficients
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluate the derivative at `x`.
    pub fn derivative_at(&self, x: f64) -> f64 {
        self.coefficients
            .iter()
            .enumerate()
            .skip(1)
            .rev()
            .fold(0.0, |acc, (k, &c)| acc * x + c * k as f64)
    }

    /// Degree of the polynomial (length of coefficient vector − 1).
    pub fn degree(&self) -> usize {
        self.coefficients.len() - 1
    }

    /// True if the polynomial is non-decreasing over `[lo, hi]`, checked by
    /// sampling the derivative at 64 evenly spaced points (exact root
    /// isolation is overkill for a cubic sanity gate).
    pub fn is_non_decreasing_on(&self, lo: f64, hi: f64) -> bool {
        if hi <= lo {
            return true;
        }
        (0..=64).all(|i| {
            let x = lo + (hi - lo) * f64::from(i) / 64.0;
            self.derivative_at(x) >= -1e-9
        })
    }
}

/// Least-squares polynomial fit of the given degree.
///
/// Returns `None` when there are fewer than `degree + 1` points or the
/// normal equations are singular (e.g. duplicate x values only).
pub fn fit_polynomial(points: &[(f64, f64)], degree: usize) -> Option<Polynomial> {
    let n = degree + 1;
    if points.len() < n {
        return None;
    }
    // Normal equations: (Xᵀ X) c = Xᵀ y, with X the Vandermonde matrix.
    // To keep the system well conditioned for delay values in the hundreds,
    // x is scaled to [0, 1] before the solve, then coefficients are mapped
    // back.
    let xmax = points
        .iter()
        .map(|p| p.0.abs())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let mut xtx = vec![0.0; n * n];
    let mut xty = vec![0.0; n];
    for &(x, y) in points {
        let xs = x / xmax;
        let mut pow = [0.0f64; 16];
        debug_assert!(n <= 8, "degree too high for power cache");
        let mut v = 1.0;
        for p in pow.iter_mut().take(2 * n - 1) {
            *p = v;
            v *= xs;
        }
        for i in 0..n {
            for j in 0..n {
                xtx[i * n + j] += pow[i + j];
            }
            xty[i] += pow[i] * y;
        }
    }
    let scaled = solve(&xtx, &xty, n)?;
    let coefficients = scaled
        .iter()
        .enumerate()
        .map(|(k, &c)| c / xmax.powi(k as i32))
        .collect();
    Some(Polynomial { coefficients })
}

/// Fit a polynomial of at most `max_degree` that is non-decreasing on
/// `[lo, hi]`, reducing the degree on violation and falling back to a flat
/// line at the mean if even a linear fit decreases.
///
/// This implements Spotter's "constrain each curve to be increasing
/// everywhere (anything more flexible led to severe overfitting)" (§3.3).
pub fn fit_monotone_polynomial(
    points: &[(f64, f64)],
    max_degree: usize,
    lo: f64,
    hi: f64,
) -> Option<Polynomial> {
    if points.is_empty() {
        return None;
    }
    for degree in (1..=max_degree).rev() {
        if let Some(p) = fit_polynomial(points, degree) {
            if p.is_non_decreasing_on(lo, hi) {
                return Some(p);
            }
        }
    }
    // Constant fallback: the mean. Trivially non-decreasing.
    let mean = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    Some(Polynomial {
        coefficients: vec![mean],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 + 2.0 * f64::from(i)))
            .collect();
        let l = ols_line(&pts).unwrap();
        assert!((l.slope - 2.0).abs() < 1e-12);
        assert!((l.intercept - 3.0).abs() < 1e-12);
        assert!((r_squared(&pts, |x| l.eval(x)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ols_degenerate_inputs() {
        assert!(ols_line(&[]).is_none());
        assert!(ols_line(&[(1.0, 2.0)]).is_none());
        assert!(ols_line(&[(1.0, 2.0), (1.0, 3.0)]).is_none()); // vertical
    }

    #[test]
    fn theil_sen_resists_outliers() {
        // True line y = 10 + 0.5x with 20% wild outliers.
        let mut pts: Vec<(f64, f64)> = (0..40)
            .map(|i| (f64::from(i), 10.0 + 0.5 * f64::from(i)))
            .collect();
        for i in 0..8 {
            pts[i * 5].1 += 500.0;
        }
        let l = theil_sen(&pts).unwrap();
        assert!((l.slope - 0.5).abs() < 0.05, "slope {}", l.slope);
        let ols = ols_line(&pts).unwrap();
        assert!(
            (ols.slope - 0.5).abs() > (l.slope - 0.5).abs(),
            "Theil–Sen should beat OLS under contamination"
        );
    }

    #[test]
    fn theil_sen_matches_ols_on_clean_line() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (f64::from(i), 1.0 + 0.49 * f64::from(i)))
            .collect();
        let l = theil_sen(&pts).unwrap();
        assert!((l.slope - 0.49).abs() < 1e-9);
        assert!((l.intercept - 1.0).abs() < 1e-9);
    }

    #[test]
    fn polynomial_eval_and_derivative() {
        let p = Polynomial {
            coefficients: vec![1.0, 2.0, 3.0, 4.0],
        };
        // p(2) = 1 + 4 + 12 + 32 = 49; p'(2) = 2 + 12x + 12x² at 2 → 2+24+48=74? no:
        // p' = 2 + 6x + 12x²; p'(2) = 2 + 12 + 48 = 62.
        assert!((p.eval(2.0) - 49.0).abs() < 1e-12);
        assert!((p.derivative_at(2.0) - 62.0).abs() < 1e-12);
        assert_eq!(p.degree(), 3);
    }

    #[test]
    fn fit_cubic_recovers_coefficients() {
        let truth = [0.5, -1.0, 0.25, 0.01];
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = f64::from(i) * 10.0;
                let y = truth
                    .iter()
                    .enumerate()
                    .map(|(k, c)| c * x.powi(k as i32))
                    .sum();
                (x, y)
            })
            .collect();
        let p = fit_polynomial(&pts, 3).unwrap();
        for (got, want) in p.coefficients.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-6, "got {got} want {want}");
        }
    }

    #[test]
    fn fit_polynomial_insufficient_points() {
        assert!(fit_polynomial(&[(0.0, 0.0), (1.0, 1.0)], 3).is_none());
    }

    #[test]
    fn monotone_fit_degrades_degree() {
        // Strongly non-monotone data (a parabola peak): the cubic and
        // quadratic fits oscillate, so the helper should end at a linear or
        // constant fit that is non-decreasing.
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let x = f64::from(i);
                (x, -(x - 15.0).powi(2))
            })
            .collect();
        let p = fit_monotone_polynomial(&pts, 3, 0.0, 29.0).unwrap();
        assert!(p.is_non_decreasing_on(0.0, 29.0));
    }

    #[test]
    fn monotone_fit_keeps_cubic_when_increasing() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = f64::from(i);
                (x, x + 0.001 * x.powi(3))
            })
            .collect();
        let p = fit_monotone_polynomial(&pts, 3, 0.0, 49.0).unwrap();
        assert_eq!(p.degree(), 3);
    }

    #[test]
    fn is_non_decreasing_detects_dip() {
        let dip = Polynomial {
            coefficients: vec![0.0, -1.0],
        };
        assert!(!dip.is_non_decreasing_on(0.0, 1.0));
        assert!(dip.is_non_decreasing_on(1.0, 1.0)); // empty interval
    }

    #[test]
    fn r_squared_of_mean_predictor_is_zero() {
        let pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)];
        let mean = 3.0;
        assert!(r_squared(&pts, |_| mean).abs() < 1e-12);
    }
}
