//! Property-based tests for the geodesy substrate.

use geokit::hull::{lower_hull, PiecewiseLinear};
use geokit::{GeoGrid, GeoPoint, Region, SphericalCap};
use simrng::prop::prelude::*;

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-89.0f64..89.0, -180.0f64..180.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// The three cap-membership enumerations that must agree cell-for-cell:
/// per-row *runs*, per-cell raster iteration, and the brute-force scan
/// of every grid cell against the cap's own membership test. (The run
/// path is what the multilateration engine trusts for word-level region
/// fills, so any divergence here is a correctness bug, not noise.)
fn runs_cells_bruteforce_agree(grid: &GeoGrid, cap: &SphericalCap) -> bool {
    let mut from_runs = Vec::new();
    grid.for_each_run_in_cap(cap, |row, cols| {
        for col in cols {
            from_runs.push(row * grid.cols() + col);
        }
    });
    let mut from_cells = Vec::new();
    grid.for_each_cell_in_cap(cap, |cell| from_cells.push(cell));
    let brute: Vec<u32> = grid
        .all_cells()
        .filter(|&c| cap.contains(&grid.center(c)))
        .collect();
    let mut sorted_runs = from_runs.clone();
    sorted_runs.sort_unstable();
    sorted_runs.dedup();
    // Runs must already be duplicate-free; all three sets must match.
    sorted_runs.len() == from_runs.len() && sorted_runs == brute && {
        let mut cells = from_cells;
        cells.sort_unstable();
        cells == brute
    }
}

/// The adversarial cap geometries the random strategy rarely hits:
/// polar caps, antimeridian-straddling caps, whole-earth and near-empty
/// caps, on both a coarse and a finer grid.
#[test]
fn cap_runs_edge_cases_match_bruteforce() {
    let cases = [
        (GeoPoint::new(89.9, 0.0), 500.0),       // around the north pole
        (GeoPoint::new(-89.9, 123.0), 2_000.0),  // around the south pole
        (GeoPoint::new(60.0, 0.0), 4_000.0),     // swallows the pole
        (GeoPoint::new(10.0, 179.5), 1_500.0),   // straddles the antimeridian
        (GeoPoint::new(-30.0, -179.9), 3_000.0), // straddles it the other way
        (GeoPoint::new(0.0, 180.0), 800.0),      // centred on it
        (GeoPoint::new(45.0, 45.0), 25_000.0),   // whole earth (r > πR)
        (GeoPoint::new(0.0, 0.0), 1.0),          // smaller than one cell
        (GeoPoint::new(52.4, 13.1), 0.0),        // degenerate point cap
    ];
    for grid in [GeoGrid::new(2.0), GeoGrid::new(1.0)] {
        for (center, radius_km) in cases {
            let cap = SphericalCap::new(center, radius_km);
            assert!(
                runs_cells_bruteforce_agree(&grid, &cap),
                "cap at {center} r={radius_km} km disagrees on the {}° grid",
                grid.resolution_deg()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distance_is_symmetric_and_bounded(a in arb_point(), b in arb_point()) {
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
        prop_assert!(d1 <= std::f64::consts::PI * geokit::EARTH_RADIUS_KM + 1e-6);
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
    }

    #[test]
    fn destination_travels_the_requested_distance(
        p in arb_point(),
        bearing in 0.0f64..360.0,
        dist in 0.1f64..15_000.0,
    ) {
        let q = p.destination(bearing, dist);
        prop_assert!((p.distance_km(&q) - dist).abs() < 1e-6 * dist.max(1.0));
    }

    #[test]
    fn cell_round_trip(p in arb_point()) {
        let grid = GeoGrid::new(1.0);
        let cell = grid.cell_of(&p);
        let center = grid.center(cell);
        // A point is never farther from its cell centre than one cell
        // diagonal (conservatively ~160 km at 1°).
        prop_assert!(p.distance_km(&center) < 160.0);
        prop_assert_eq!(grid.cell_of(&center), cell);
    }

    #[test]
    fn region_set_algebra(a in arb_point(), b in arb_point(), ra in 200.0f64..3_000.0, rb in 200.0f64..3_000.0) {
        let grid = GeoGrid::new(2.0);
        let ca = Region::from_cap(&grid, &SphericalCap::new(a, ra));
        let cb = Region::from_cap(&grid, &SphericalCap::new(b, rb));
        let inter = ca.intersection(&cb);
        let mut only_a = ca.clone();
        only_a.subtract(&cb);
        // |A∖B| + |A∩B| = |A|
        prop_assert_eq!(
            only_a.cell_count() + inter.cell_count(),
            ca.cell_count()
        );
        prop_assert!(inter.is_subset_of(&ca));
        prop_assert!(inter.is_subset_of(&cb));
        prop_assert!(only_a.is_subset_of(&ca));
        prop_assert!(!only_a.intersects(&cb));
        // Intersection membership is exactly conjunction.
        for cell in inter.cells().take(64) {
            prop_assert!(ca.contains_cell(cell) && cb.contains_cell(cell));
        }
    }

    #[test]
    fn cap_runs_equal_cells_equal_bruteforce(
        a in arb_point(),
        r in 50.0f64..12_000.0,
    ) {
        let grid = GeoGrid::new(2.0);
        prop_assert!(runs_cells_bruteforce_agree(&grid, &SphericalCap::new(a, r)));
    }

    #[test]
    fn region_area_is_monotone(a in arb_point(), r in 100.0f64..5_000.0) {
        let grid = GeoGrid::new(2.0);
        let small = Region::from_cap(&grid, &SphericalCap::new(a, r));
        let big = Region::from_cap(&grid, &SphericalCap::new(a, r * 1.5));
        prop_assert!(small.is_subset_of(&big));
        prop_assert!(small.area_km2() <= big.area_km2() + 1e-6);
    }

    #[test]
    fn hull_stays_below_points(pts in prop::collection::vec((0.0f64..10_000.0, 0.0f64..300.0), 1..120)) {
        let hull = lower_hull(&pts);
        prop_assert!(!hull.is_empty());
        let pl = PiecewiseLinear::new(hull);
        for &(x, y) in &pts {
            prop_assert!(y >= pl.eval(x) - 1e-9);
        }
    }

    #[test]
    fn ecdf_is_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let ecdf = geokit::stats::Ecdf::new(values);
        let mut prev = 0.0;
        for i in 0..50 {
            let x = -1e6 + i as f64 * (2e6 / 49.0);
            let f = ecdf.eval(x);
            prop_assert!(f >= prev);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert_eq!(ecdf.eval(2e6), 1.0);
    }

    #[test]
    fn theil_sen_recovers_clean_lines(
        slope in -5.0f64..5.0,
        intercept in -100.0f64..100.0,
        n in 5usize..40,
    ) {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64, intercept + slope * i as f64))
            .collect();
        let line = geokit::regress::theil_sen(&pts).unwrap();
        prop_assert!((line.slope - slope).abs() < 1e-9);
        prop_assert!((line.intercept - intercept).abs() < 1e-6);
    }
}
