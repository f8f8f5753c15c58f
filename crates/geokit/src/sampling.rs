//! Deterministic random samplers built directly on [`simrng::Rng`].
//!
//! The network simulator needs normal, lognormal, and Pareto draws for
//! queueing and congestion delays. The `rand_distr` companion crate is
//! outside our dependency budget, so these are implemented from first
//! principles (Box–Muller and inverse-CDF transforms). All functions
//! take the RNG explicitly: the entire project is seeded and reproducible.

use simrng::{Rng, RngExt};

/// A uniform draw in the open interval (0, 1): never exactly 0, so it is
/// safe to take logarithms of.
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

/// A normal draw with the given mean and standard deviation.
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

/// A lognormal draw: `exp(N(mu_log, sigma_log))`.
///
/// Heavy-tailed and strictly positive — the canonical shape for per-hop
/// queueing delays.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu_log: f64, sigma_log: f64) -> f64 {
    normal(rng, mu_log, sigma_log).exp()
}

/// A Pareto draw with minimum `scale` and tail index `shape`.
/// Used for the rare-but-enormous delay outliers (routing detours,
/// bufferbloat) that give real RTT scatter its upper tail.
///
/// # Panics
/// Panics if `scale` or `shape` is not strictly positive.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, scale: f64, shape: f64) -> f64 {
    assert!(scale > 0.0, "pareto scale must be positive, got {scale}");
    assert!(shape > 0.0, "pareto shape must be positive, got {shape}");
    scale / open_unit(rng).powf(1.0 / shape)
}

/// Pick an index in `[0, weights.len())` with probability proportional to
/// `weights[i]`. Zero-weight entries are never picked.
///
/// # Panics
/// Panics if `weights` is empty, contains a negative or non-finite value,
/// or sums to zero.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(
        !weights.is_empty(),
        "weighted_index needs at least one weight"
    );
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
            w
        })
        .sum();
    assert!(total > 0.0, "weights sum to zero");
    let mut target = rng.random_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    // Floating-point slack: return the last positive-weight index.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("unreachable: total > 0")
}

/// A Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    rng.random::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let sample: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 10.0, 3.0)).collect();
        assert!((mean(&sample) - 10.0).abs() < 0.1, "mean {}", mean(&sample));
        assert!(
            (std_dev(&sample) - 3.0).abs() < 0.1,
            "sd {}",
            std_dev(&sample)
        );
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut r = rng();
        let sample: Vec<f64> = (0..20_000).map(|_| lognormal(&mut r, 0.0, 1.0)).collect();
        assert!(sample.iter().all(|&v| v > 0.0));
        // Lognormal(0,1): median = 1, mean = exp(0.5) ≈ 1.6487.
        let m = mean(&sample);
        assert!((m - 1.6487).abs() < 0.1, "mean {m}");
        let med = crate::stats::median(&sample).unwrap();
        assert!((med - 1.0).abs() < 0.05, "median {med}");
    }

    #[test]
    fn pareto_minimum_and_tail() {
        let mut r = rng();
        let sample: Vec<f64> = (0..20_000).map(|_| pareto(&mut r, 2.0, 3.0)).collect();
        assert!(sample.iter().all(|&v| v >= 2.0));
        // Pareto(scale=2, shape=3) mean = shape·scale/(shape−1) = 3.
        assert!((mean(&sample) - 3.0).abs() < 0.15, "mean {}", mean(&sample));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut r, &weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight entry was picked");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn coin_extremes() {
        let mut r = rng();
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
        // And out-of-range p is clamped, not panicking.
        assert!(coin(&mut r, 2.0));
        assert!(!coin(&mut r, -1.0));
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(normal(&mut a, 0.0, 1.0), normal(&mut b, 0.0, 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn weighted_index_zero_total_panics() {
        weighted_index(&mut rng(), &[0.0, 0.0]);
    }
}
