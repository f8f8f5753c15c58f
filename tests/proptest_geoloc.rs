//! Property-based tests for the geolocation core's invariants.

use atlas::CalibrationSet;
use geokit::{CapRaster, GeoGrid, GeoPoint, Region};
use geoloc::algorithms::{Cbg, CbgPlusPlus};
use geoloc::delay_model::{CbgModel, OctantModel};
use geoloc::multilateration::{
    intersect_constraints, max_consistent_subset, DiskCache, RingConstraint,
};
use geoloc::{Geolocator, Observation};
use simrng::prop::prelude::*;

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-80.0f64..80.0, -180.0f64..180.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// The cells of a cached disk as a region on `grid`, painted row by row
/// as the cached intersection evaluates it.
fn disk_region(grid: &std::sync::Arc<GeoGrid>, disk: &CapRaster) -> Region {
    let mut r = Region::empty(std::sync::Arc::clone(grid));
    for row in disk.rows() {
        disk.row_runs(grid.trig(), row, |lo, hi| r.insert_run(row, lo..hi));
    }
    r
}

fn arb_calibration() -> impl Strategy<Value = CalibrationSet> {
    // Points along a speed in [60, 190] km/ms with upward noise.
    (
        60.0f64..190.0,
        prop::collection::vec((50.0f64..15_000.0, 0.0f64..40.0), 3..60),
    )
        .prop_map(|(speed, raw)| {
            CalibrationSet::from_points(
                raw.into_iter()
                    .map(|(d, noise)| (d, d / speed + noise))
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cbg_fit_is_feasible_and_subluminal(set in arb_calibration()) {
        let m = CbgModel::calibrate(&set);
        prop_assert!(m.speed_km_per_ms() <= geokit::FIBER_SPEED_KM_PER_MS + 1e-9);
        for &(x, y) in set.points() {
            prop_assert!(y + 1e-9 >= m.intercept_ms + m.slope_ms_per_km * x);
        }
    }

    #[test]
    fn slowline_fit_bounds_the_speed(set in arb_calibration()) {
        let m = CbgModel::calibrate_with_slowline(&set);
        prop_assert!(m.speed_km_per_ms() <= geokit::FIBER_SPEED_KM_PER_MS + 1e-9);
        prop_assert!(m.speed_km_per_ms() >= geokit::SLOWLINE_SPEED_KM_PER_MS - 1e-9);
    }

    #[test]
    fn slowline_grows_disks_at_meaningful_delays(set in arb_calibration(), t in 200.0f64..500.0) {
        // When the clamp binds decisively (plain fit well below the
        // slowline speed), the clamped disk dominates at any delay large
        // enough that slope, not intercept, controls the bound. At tiny
        // delays the intercept trade-off can locally reverse this, which
        // is fine: sub-millisecond disks are below grid resolution anyway.
        let plain = CbgModel::calibrate(&set);
        let clamped = CbgModel::calibrate_with_slowline(&set);
        prop_assume!(plain.speed_km_per_ms() < geokit::SLOWLINE_SPEED_KM_PER_MS - 5.0);
        prop_assert!(clamped.max_distance_km(t) + 1e-6 >= plain.max_distance_km(t));
    }

    #[test]
    fn octant_envelope_is_ordered(set in arb_calibration(), t in 0.5f64..250.0) {
        let m = OctantModel::calibrate(&set);
        prop_assert!(m.min_distance_km(t) <= m.max_distance_km(t) + 1e-6);
        prop_assert!(m.min_distance_km(t) >= 0.0);
    }

    #[test]
    fn constraint_inflation_is_monotone(
        center in arb_point(),
        min in 0.0f64..2_000.0,
        extra in 0.0f64..2_000.0,
        slack in 0.0f64..300.0,
        probe in arb_point(),
    ) {
        let ring = RingConstraint::ring(center, min, min + extra);
        let inflated = ring.inflated(slack);
        if ring.contains(&probe) {
            prop_assert!(inflated.contains(&probe));
        }
    }

    #[test]
    fn intersection_is_subset_of_each_disk_region(
        a in arb_point(),
        b in arb_point(),
        ra in 300.0f64..4_000.0,
        rb in 300.0f64..4_000.0,
    ) {
        let mask = Region::full(GeoGrid::new(2.0));
        let ca = RingConstraint::disk(a, ra);
        let cb = RingConstraint::disk(b, rb);
        let both = intersect_constraints(&[ca, cb], &mask);
        let only_a = intersect_constraints(&[ca], &mask);
        prop_assert!(both.is_subset_of(&only_a));
    }

    #[test]
    fn subset_search_matches_intersection_when_consistent(
        target in arb_point(),
        radii in prop::collection::vec(400.0f64..3_000.0, 2..8),
    ) {
        let mask = Region::full(GeoGrid::new(2.0));
        // Disks all centred within each radius of the target: guaranteed
        // consistent (they share the target's cell).
        let constraints: Vec<RingConstraint> = radii
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let lm = target.destination(i as f64 * 57.0, r * 0.5);
                RingConstraint::disk(lm, r)
            })
            .collect();
        let subset = max_consistent_subset(&constraints, &mask);
        prop_assert_eq!(subset.satisfied, constraints.len());
        let plain = intersect_constraints(&constraints, &mask);
        prop_assert_eq!(subset.region.cell_count(), plain.cell_count());
    }

    #[test]
    fn disk_cache_quantization_is_sound(
        center in arb_point(),
        radius in 30.0f64..5_000.0,
        res_step in 1u32..5,
    ) {
        // The cache rounds the outer radius *up* to whole grid cells and
        // the inner (annulus-subtrahend) radius *down*: a region built
        // from cached disks can only over-cover the exact rasterized
        // cap, never exclude the true location.
        let grid = GeoGrid::new(f64::from(res_step) * 0.5);
        let cache = DiskCache::new(std::sync::Arc::clone(&grid));
        let exact = Region::from_cap(&grid, &geokit::SphericalCap::new(center, radius));
        prop_assert!(cache.quantized_radius_km(radius) + 1e-9 >= radius);
        let outer = cache.disk(&center, radius);
        prop_assert!(exact.is_subset_of(&disk_region(&grid, &outer)));
        if let Some(inner) = cache.inner_disk(&center, radius) {
            prop_assert!(disk_region(&grid, &inner).is_subset_of(&exact));
        }
    }

    #[test]
    fn cbgpp_region_is_never_empty_and_covers_honest_targets(
        truth in arb_point(),
        speed in 90.0f64..180.0,
    ) {
        // Honest measurements at a speed inside the calibrated range.
        let calib = CalibrationSet::from_points(
            (1..=40)
                .map(|i| {
                    let d = f64::from(i) * 400.0;
                    (d, d / speed + 0.5)
                })
                .collect(),
        );
        let mask = Region::full(GeoGrid::new(2.0));
        let observations: Vec<Observation> = (0..4)
            .map(|i| {
                let lm = truth.destination(f64::from(i) * 90.0 + 13.0, 900.0);
                Observation::new(lm, lm.distance_km(&truth) / speed + 0.5, calib.clone())
            })
            .collect();
        let pp = CbgPlusPlus.locate(&observations, &mask);
        prop_assert!(!pp.region.is_empty());
        prop_assert!(pp.region.contains_point(&truth));
        // And CBG++ is at least as inclusive as CBG here.
        let plain = Cbg.locate(&observations, &mask);
        prop_assert!(plain.region.is_subset_of(&pp.region));
    }
}

/// Regression inputs pinned by the retired external-`proptest` runs
/// (formerly `tests/proptest_geoloc.proptest-regressions`). Each shrunk
/// counterexample is re-encoded as an explicit named case so it stays
/// exercised without any generated-seed machinery.
mod regressions {
    use super::*;

    /// The assertions of `cbg_fit_is_feasible_and_subluminal` and
    /// `octant_envelope_is_ordered`, applied to one pinned input.
    fn assert_fit_invariants(set: &CalibrationSet, t: f64) {
        let cbg = CbgModel::calibrate(set);
        assert!(cbg.speed_km_per_ms() <= geokit::FIBER_SPEED_KM_PER_MS + 1e-9);
        for &(x, y) in set.points() {
            assert!(y + 1e-9 >= cbg.intercept_ms + cbg.slope_ms_per_km * x);
        }
        let slow = CbgModel::calibrate_with_slowline(set);
        assert!(slow.speed_km_per_ms() <= geokit::FIBER_SPEED_KM_PER_MS + 1e-9);
        assert!(slow.speed_km_per_ms() >= geokit::SLOWLINE_SPEED_KM_PER_MS - 1e-9);
        let octant = OctantModel::calibrate(set);
        assert!(octant.min_distance_km(t) <= octant.max_distance_km(t) + 1e-6);
        assert!(octant.min_distance_km(t) >= 0.0);
    }

    /// proptest cc 8a43bb21…: a scatter dominated by a near-zero
    /// short-range cluster with a handful of long-haul points, probed
    /// at t ≈ 162.9 ms.
    #[test]
    fn pinned_cluster_heavy_calibration_at_163ms() {
        let set = CalibrationSet::from_points(vec![
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (12582.611525619173, 159.76262120067406),
            (50.0, 0.6348547790551468),
            (7246.152098475441, 92.00508578955227),
            (50.0, 0.6348547790551468),
            (5300.5162260743, 88.59171702561076),
            (8716.842313017683, 110.67858001378791),
            (8782.237029924334, 111.50890298485082),
            (13900.221198488616, 176.49243715568315),
            (6213.249538949283, 116.14509857561632),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 0.6348547790551468),
            (50.0, 26.382200206738435),
            (11314.592571558724, 143.66246334231835),
            (8676.980181218585, 121.73939531703678),
            (50.0, 35.339620143514466),
            (10092.908452424672, 128.15062331175776),
            (14582.062376679183, 185.1498397663006),
            (14536.224557960106, 184.5678326007952),
        ]);
        assert_fit_invariants(&set, 162.92326821212077);
    }

    /// proptest cc 755dc6a0…: a minimal three-point scatter probed at
    /// the envelope's lower edge (t = 0.5 ms).
    #[test]
    fn pinned_three_point_calibration_at_envelope_floor() {
        let set = CalibrationSet::from_points(vec![
            (4211.646409721719, 70.19410682869531),
            (50.0, 0.8333333333333334),
            (11110.451746078998, 205.7667689738686),
        ]);
        assert_fit_invariants(&set, 0.5);
    }
}
