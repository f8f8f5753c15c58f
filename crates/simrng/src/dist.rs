//! Normal and exponential samplers for the delay model.
//!
//! `geokit::sampling` layers the full distribution menu (lognormal,
//! Pareto, weighted indices) on top of [`Rng`]; these two primitives
//! live here as well so the RNG crate is usable stand-alone — e.g. by
//! the property-test harness when a generator needs Gaussian noise —
//! without pulling in the geodesy crate.

use crate::{Rng, RngExt};

/// A uniform draw in the open interval `(0, 1)`: never exactly zero, so
/// it is safe to take logarithms of.
#[inline]
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 {
            return u;
        }
    }
}

/// A standard normal draw via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open_unit(rng);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A normal draw with mean `mu` and standard deviation `sigma`.
///
/// # Panics
/// Panics if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(
        sigma >= 0.0,
        "normal sigma must be non-negative, got {sigma}"
    );
    mu + sigma * standard_normal(rng)
}

/// An exponential draw with the given rate (mean `1/rate`).
///
/// # Panics
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    -open_unit(rng).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    fn moments(sample: &[f64]) -> (f64, f64) {
        let n = sample.len() as f64;
        let mean = sample.iter().sum::<f64>() / n;
        let var = sample.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let sample: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 10.0, 3.0)).collect();
        let (mean, sd) = moments(&sample);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((sd - 3.0).abs() < 0.1, "sd {sd}");
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let sample: Vec<f64> = (0..20_000).map(|_| exponential(&mut rng, 0.5)).collect();
        assert!(sample.iter().all(|&v| v > 0.0));
        let (mean, _) = moments(&sample);
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_bad_rate_panics() {
        exponential(&mut StdRng::seed_from_u64(1), 0.0);
    }
}
