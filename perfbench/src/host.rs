//! Host measurements and the small statistics the benchmark reports.
//!
//! A slow host phase and a slow commit look the same in wall time. The
//! process CPU time and a fixed reference kernel, recorded beside every
//! wall time, tell them apart: when `host.ref_ms` moves, the host moved.

use std::hint::black_box;
use std::time::Instant;

/// Linux user-space clock ticks per second (`CLK_TCK`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Iterations of the reference kernel: about 10 ms on a 2020s core.
const REF_ITERS: u64 = 4_000_000;

/// User plus system CPU time of this process, seconds, at clock-tick
/// resolution. Zero where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15 of `/proc/self/stat`.
    (stat_field(14) + stat_field(15)) / CLOCK_TICKS_PER_S
}

/// Minor page faults this process has taken so far. In a virtual
/// machine each costs microseconds, so a fresh process's first audit
/// pays for every page of its disk cache; the count explains that share
/// of wall time.
pub fn minor_faults() -> u64 {
    stat_field(10) as u64
}

/// Field `n` (1-based, as `proc(5)` numbers them) of `/proc/self/stat`,
/// or zero where `/proc` is unavailable.
fn stat_field(n: usize) -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The fields after the parenthesised command name start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    rest.split_whitespace()
        .nth(n - 3)
        .and_then(|f| f.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), MB. Zero where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time one pass of a fixed, allocation-free compute kernel, ms. The
/// kernel never changes, so its time tracks the host's speed alone.
pub fn ref_kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..black_box(REF_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).sqrt();
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `values`: the middle one, or the mean of the middle two
/// (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn host_readings_are_positive_on_linux() {
        assert!(ref_kernel_ms() > 0.0);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
