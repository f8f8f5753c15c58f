//! The sampling loop behind the perf gate's smoke suite
//! ([`crate::gate`]), measuring with plain `std::time::Instant`:
//!
//! * warm up the routine briefly and estimate its per-iteration cost;
//! * pick an iteration count per sample targeting ~5 ms of work;
//! * take the requested number of samples and report the median,
//!   10th- and 90th-percentile per-iteration time.
//!
//! Setting the `PV_BENCH_SAMPLES` environment variable overrides the
//! gate's sample count (clamped to a minimum of 2): `PV_BENCH_SAMPLES=5`
//! is the CI smoke mode, seconds long with noisier numbers.
//!
//! No statistical outlier rejection is attempted — this is a regression
//! smoke-harness, not a rigorous measurement tool.

use std::time::{Duration, Instant};

/// Timing summary for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sampled {
    /// Benchmark identifier as printed.
    pub name: String,
    /// Median per-iteration time (ns).
    pub median_ns: f64,
    /// 10th percentile (ns).
    pub p10_ns: f64,
    /// 90th percentile (ns).
    pub p90_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: usize,
}

/// Collects per-iteration timings for one benchmark routine.
///
/// Handed to the `|b| b.iter(...)` closure of [`run_sampled`]; `iter`
/// runs the warmup + sampling loop and stashes the raw samples for
/// [`run_sampled`] to summarise.
pub struct Bencher {
    sample_size: usize,
    /// Per-iteration times in ns, one entry per sample.
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

/// Target wall time per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);
/// Warmup budget before iteration-count calibration.
const WARMUP_TARGET: Duration = Duration::from_millis(50);

impl Bencher {
    fn new(sample_size: usize) -> Bencher {
        Bencher {
            sample_size,
            sample_ns: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Benchmark `routine`, timing every call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warmup + calibration: run until the budget is spent, tracking
        // the observed per-call cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_TARGET && warm_iters < 1_000_000 {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let iters = iters_for_target(per_iter);

        self.iters_per_sample = iters;
        self.sample_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            self.sample_ns.push(elapsed / iters as f64);
        }
    }
}

/// Iterations per sample so one sample takes ~`SAMPLE_TARGET`.
fn iters_for_target(per_iter_secs: f64) -> u64 {
    if per_iter_secs <= 0.0 {
        return 1;
    }
    ((SAMPLE_TARGET.as_secs_f64() / per_iter_secs) as u64).clamp(1, 10_000_000)
}

/// The `PV_BENCH_SAMPLES` override, when set to a usable number.
pub fn env_sample_override() -> Option<usize> {
    std::env::var("PV_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(2))
}

/// Measure one routine at `sample_size` samples (at least 2).
pub fn run_sampled<F>(name: &str, sample_size: usize, f: F) -> Sampled
where
    F: FnOnce(&mut Bencher),
{
    let mut bencher = Bencher::new(sample_size.max(2));
    f(&mut bencher);
    summarize(name, &bencher)
}

fn summarize(name: &str, bencher: &Bencher) -> Sampled {
    let mut ns = bencher.sample_ns.clone();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Sampled {
        name: name.to_string(),
        median_ns: percentile(&ns, 0.50),
        p10_ns: percentile(&ns, 0.10),
        p90_ns: percentile(&ns, 0.90),
        iters_per_sample: bencher.iters_per_sample,
        samples: ns.len(),
    }
}

/// Linear-interpolated percentile of an ascending slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iters_scale_inversely_with_cost() {
        assert_eq!(iters_for_target(1.0), 1); // 1 s per iter → one at a time
        assert!(iters_for_target(1e-9) > 1_000_000); // 1 ns per iter → many
        assert_eq!(iters_for_target(0.0), 1);
    }

    #[test]
    fn bencher_measures_a_cheap_routine() {
        let mut b = Bencher::new(5);
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(std::hint::black_box(17));
            acc
        });
        assert_eq!(b.sample_ns.len(), 5);
        assert!(b.sample_ns.iter().all(|&ns| ns > 0.0));
    }
}
