//! Delay-model calibration costs: fitting CBG bestlines, Octant
//! envelopes, and Spotter cubics over a 250-point anchor mesh set.

use atlas::CalibrationSet;
use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use geokit::hull::line_below;
use geokit::{BASELINE_SLOPE_MS_PER_KM, SLOWLINE_SLOPE_MS_PER_KM};
use geoloc::delay_model::{CbgModel, OctantModel, SpotterModel};
use std::hint::black_box;

/// A realistic 250-point scatter: 100 km/ms floor plus deterministic
/// pseudo-noise above it.
fn scatter(n: usize) -> CalibrationSet {
    CalibrationSet::from_points(
        (1..=n)
            .map(|i| {
                let d = (i as f64) * 17_000.0 / n as f64;
                let noise = ((i * 2654435761) % 977) as f64 / 50.0;
                (d, d / 100.0 + 0.3 + noise)
            })
            .collect(),
    )
}

fn bench_fits(c: &mut Criterion) {
    let set = scatter(250);
    c.bench_function("CBG bestline fit (250 pts)", |b| {
        b.iter(|| CbgModel::calibrate(black_box(&set)))
    });
    // The fit itself: `CbgModel::calibrate_with_slowline` only reads the
    // bestline the set stored when it was built.
    c.bench_function("CBG++ slowline fit (250 pts)", |b| {
        b.iter(|| {
            line_below(
                black_box(set.points()),
                BASELINE_SLOPE_MS_PER_KM,
                SLOWLINE_SLOPE_MS_PER_KM,
            )
        })
    });
    c.bench_function("Octant envelope fit (250 pts)", |b| {
        b.iter(|| OctantModel::calibrate(black_box(&set)))
    });
    let pool: Vec<CalibrationSet> = (0..10).map(|_| scatter(250)).collect();
    let refs: Vec<&CalibrationSet> = pool.iter().collect();
    c.bench_function("Spotter cubic fit (2500 pooled pts)", |b| {
        b.iter(|| SpotterModel::calibrate(black_box(&refs)))
    });
}

fn bench_eval(c: &mut Criterion) {
    let set = scatter(250);
    let cbg = CbgModel::calibrate(&set);
    let octant = OctantModel::calibrate(&set);
    let refs = [&set];
    let spotter = SpotterModel::calibrate(&refs);
    c.bench_function("CBG max-distance eval", |b| {
        b.iter(|| cbg.max_distance_km(black_box(42.0)))
    });
    c.bench_function("Octant envelope eval", |b| {
        b.iter(|| {
            (
                octant.min_distance_km(black_box(42.0)),
                octant.max_distance_km(black_box(42.0)),
            )
        })
    });
    c.bench_function("Spotter log-density eval", |b| {
        b.iter(|| spotter.log_density(black_box(42.0), black_box(3000.0)))
    });
}

criterion_group!(benches, bench_fits, bench_eval);
criterion_main!(benches);
