//! Spotter's probabilistic delay model (§3.3).
//!
//! Spotter models the distance to the target as a Gaussian whose mean μ
//! and standard deviation σ are functions of the observed delay, fitted
//! over *pooled* landmark–landmark calibration data ("unlike CBG and
//! Octant, a single fit is used for all landmarks"). The paper fits
//! "a polynomial" to each; following its choices we use cubic
//! least-squares constrained to be non-decreasing (μ) — "anything more
//! flexible led to severe overfitting" — degrading the degree when the
//! constraint fails.
//!
//! Fitting detail the paper leaves open: we compute μ(t) and σ(t) on
//! delay-quantile bins (so dense short-delay data doesn't starve the
//! tail) and fit the binned statistics.

use atlas::CalibrationSet;
use geokit::regress::{fit_monotone_polynomial, fit_polynomial, Polynomial};
use geokit::stats::{mean, std_dev};

/// Number of delay-quantile bins used for the μ/σ estimates.
const BINS: usize = 24;

/// The global Spotter delay model.
#[derive(Debug, Clone)]
pub struct SpotterModel {
    mu: Polynomial,
    sigma: Polynomial,
    /// Fit domain (delays outside are clamped to the edge values).
    t_min: f64,
    t_max: f64,
}

impl SpotterModel {
    /// Fit from pooled calibration sets.
    ///
    /// Returns a degenerate single-bin model when the pool is (nearly)
    /// empty — callers in the study always have mesh data.
    pub fn calibrate(sets: &[&CalibrationSet]) -> SpotterModel {
        let mut pooled: Vec<(f64, f64)> = sets
            .iter()
            .flat_map(|s| s.points().iter().map(|&(d, t)| (t, d)))
            .collect();
        if pooled.is_empty() {
            return SpotterModel {
                mu: Polynomial {
                    coefficients: vec![0.0, geokit::FIBER_SPEED_KM_PER_MS / 2.0],
                },
                sigma: Polynomial {
                    coefficients: vec![500.0],
                },
                t_min: 0.0,
                t_max: 300.0,
            };
        }
        pooled.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite delays"));
        let t_min = pooled[0].0;
        let t_max = pooled[pooled.len() - 1].0;

        // Quantile bins over delay.
        let mut mu_pts = Vec::with_capacity(BINS);
        let mut sigma_pts = Vec::with_capacity(BINS);
        let per_bin = pooled.len().div_ceil(BINS);
        for chunk in pooled.chunks(per_bin) {
            let ts: Vec<f64> = chunk.iter().map(|p| p.0).collect();
            let ds: Vec<f64> = chunk.iter().map(|p| p.1).collect();
            let t_mid = mean(&ts);
            mu_pts.push((t_mid, mean(&ds)));
            sigma_pts.push((t_mid, std_dev(&ds).max(1.0)));
        }

        let mu =
            fit_monotone_polynomial(&mu_pts, 3, t_min, t_max).expect("nonempty bin statistics");
        let sigma = fit_polynomial(&sigma_pts, 3)
            .or_else(|| fit_polynomial(&sigma_pts, 1))
            .unwrap_or(Polynomial {
                coefficients: vec![mean(&sigma_pts.iter().map(|p| p.1).collect::<Vec<_>>())],
            });
        SpotterModel {
            mu,
            sigma,
            t_min,
            t_max,
        }
    }

    /// Mean distance for a one-way delay, km (clamped to the fit domain,
    /// never negative).
    pub fn mu_km(&self, one_way_ms: f64) -> f64 {
        let t = one_way_ms.clamp(self.t_min, self.t_max);
        self.mu.eval(t).max(0.0)
    }

    /// Distance standard deviation for a one-way delay, km (floored at a
    /// kilometre to keep likelihoods finite).
    pub fn sigma_km(&self, one_way_ms: f64) -> f64 {
        let t = one_way_ms.clamp(self.t_min, self.t_max);
        self.sigma.eval(t).max(1.0)
    }

    /// Log-density of the distance Gaussian at `dist_km` for an observed
    /// delay — the per-landmark factor in Spotter's Bayes product.
    pub fn log_density(&self, one_way_ms: f64, dist_km: f64) -> f64 {
        let mu = self.mu_km(one_way_ms);
        let sigma = self.sigma_km(one_way_ms);
        let z = (dist_km - mu) / sigma;
        -0.5 * z * z - sigma.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pooled scatter with mean speed ~90 km/ms and spread growing with
    /// delay.
    fn pool() -> CalibrationSet {
        let mut pts = Vec::new();
        for i in 1..=400 {
            let t = f64::from(i) * 0.4; // delays 0.4..160 ms
            let spread = f64::from((i * 31) % 17) - 8.0; // ±8 "units"
            let d = (t * 90.0 + spread * (10.0 + t)).max(0.0);
            pts.push((d, t));
        }
        CalibrationSet::from_points(pts)
    }

    #[test]
    fn mu_tracks_the_speed() {
        let p = pool();
        let m = SpotterModel::calibrate(&[&p]);
        for t in [10.0, 40.0, 100.0, 150.0] {
            let mu = m.mu_km(t);
            assert!(
                (mu - t * 90.0).abs() < 0.25 * t * 90.0 + 200.0,
                "μ({t}) = {mu}, expected ≈ {}",
                t * 90.0
            );
        }
    }

    #[test]
    fn mu_is_monotone() {
        let p = pool();
        let m = SpotterModel::calibrate(&[&p]);
        let mut prev = -1.0;
        for i in 0..160 {
            let mu = m.mu_km(f64::from(i));
            assert!(mu + 1e-6 >= prev, "μ decreasing at {i} ms");
            prev = mu;
        }
    }

    #[test]
    fn sigma_is_positive() {
        let p = pool();
        let m = SpotterModel::calibrate(&[&p]);
        for t in [0.5, 5.0, 50.0, 150.0, 500.0] {
            assert!(m.sigma_km(t) >= 1.0);
        }
    }

    #[test]
    fn log_density_peaks_at_mu() {
        let p = pool();
        let m = SpotterModel::calibrate(&[&p]);
        let t = 50.0;
        let mu = m.mu_km(t);
        let at_mu = m.log_density(t, mu);
        assert!(at_mu > m.log_density(t, mu + 2000.0));
        assert!(at_mu > m.log_density(t, (mu - 2000.0).max(0.0)));
    }

    #[test]
    fn clamps_outside_fit_domain() {
        let p = pool();
        let m = SpotterModel::calibrate(&[&p]);
        // Extrapolation is clamped: a crazy delay doesn't explode μ.
        assert_eq!(m.mu_km(10_000.0), m.mu_km(160.0));
        assert_eq!(m.mu_km(0.0), m.mu_km(0.4));
    }

    #[test]
    fn empty_pool_gives_fallback() {
        let m = SpotterModel::calibrate(&[]);
        assert!(m.mu_km(10.0) > 0.0);
        assert!(m.sigma_km(10.0) >= 1.0);
    }
}
