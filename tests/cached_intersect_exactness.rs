//! `intersect_constraints_cached` folds each cached disk's per-row runs
//! into the rows still alive, and skips the folds that its certified test
//! shows cannot remove a cell. It must give, bit for bit, the region of
//! the plain bitset formulation below, which folds every disk, and must
//! look up exactly the same disk keys in the same order, so the cache's
//! hits, misses, entries and exported keys cannot move either. Nested
//! constraint sets put disks on the skip's own threshold.
//! `constraint_overlaps_region`, which visits only the rows of the
//! region's row band and passes over the band rows where the region has
//! no cells, is pinned against a test over every row of the grid. The
//! subset search's counting sweep, which counts only the mask's rows with
//! +1/−1 marks and one prefix sum per row, is pinned against a per-cell
//! count over the whole globe.

use geokit::{GeoGrid, GeoPoint, Region, SphericalCap};
use geoloc::multilateration::subset::constraint_overlaps_region;
use geoloc::multilateration::{
    intersect_constraints_cached, max_consistent_subset_profiled, DiskCache, RingConstraint,
};
use obs::{Level, Recorder};
use simrng::prop::prelude::*;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use std::sync::Arc;

/// A disk-cache key as `DiskCache::export_keys` reports it.
type Key = (u64, u64, u32);

/// The reference: every disk is a whole-globe `Region` from
/// `Region::from_cap` at the cache's quantized radius (outer radii rounded
/// up to whole cells, at least one; inner radii rounded down, skipped at
/// zero). Constraints are taken in stable `max_km` order; each outer disk
/// is intersected and each inner disk subtracted, and the walk stops
/// before the next constraint once the running set is empty. Returns the
/// region and every (centre, radius in cells) looked up, in order.
fn reference(constraints: &[RingConstraint], mask: &Region) -> (Region, Vec<Key>) {
    let grid = mask.grid();
    let cell_km = grid.resolution_deg() * 111.32;
    let mut lookups = Vec::new();
    if constraints.is_empty() {
        return (mask.clone(), lookups);
    }
    let mut disk = |center: &GeoPoint, cells: u32| {
        lookups.push((center.lat().to_bits(), center.lon().to_bits(), cells));
        Region::from_cap(
            grid,
            &SphericalCap::new(*center, f64::from(cells) * cell_km),
        )
    };
    let mut order: Vec<&RingConstraint> = constraints.iter().collect();
    order.sort_by(|a, b| a.max_km.partial_cmp(&b.max_km).expect("finite radii"));
    let mut out: Option<Region> = None;
    for c in order {
        if out.as_ref().is_some_and(Region::is_empty) {
            break;
        }
        let outer = disk(&c.center, ((c.max_km / cell_km).ceil()).max(1.0) as u32);
        let mut running = match out {
            None => outer,
            Some(mut r) => {
                r.intersect_with(&outer);
                r
            }
        };
        if c.min_km > 0.0 {
            let cells = (c.min_km / cell_km).floor() as u32;
            if cells > 0 {
                running.subtract(&disk(&c.center, cells));
            }
        }
        out = Some(running);
    }
    let mut out = out.expect("at least one constraint");
    out.intersect_with(mask);
    (out, lookups)
}

const RESOLUTIONS: [f64; 3] = [0.5, 1.0, 2.0];

/// A centre: anywhere, or on a pole, or on the antimeridian (±180°).
fn random_centre(rng: &mut StdRng) -> GeoPoint {
    let lat = match rng.random_range(0..6u32) {
        0 => 90.0,
        1 => -90.0,
        _ => rng.random_range(-90.0..90.0),
    };
    let lon = match rng.random_range(0..6u32) {
        0 => 180.0,
        1 => -180.0,
        _ => rng.random_range(-180.0..180.0),
    };
    GeoPoint::new(lat, lon)
}

/// The skip's margin in `intersect_constraints_cached`, km: the nested
/// sets place their radii around the threshold it sets.
const MARGIN_KM: f64 = 1.0;

/// Half the circumference, km: no disk reaches farther.
const HALF_CIRCUMFERENCE_KM: f64 = std::f64::consts::PI * geokit::EARTH_RADIUS_KM;

/// A radius from a tenth of a cell to past half the circumference,
/// log-uniform so every scale is drawn.
fn random_radius(rng: &mut StdRng) -> f64 {
    let ln = rng.random_range(1.0f64.ln()..21_000.0f64.ln());
    ln.exp()
}

/// 1–40 disks and annuli drawn from small pools of centres and radii, so
/// centres repeat and `max_km` ties occur. Most sets are honest: every
/// constraint holds a common target, so the intersection survives; the
/// rest are arbitrary and mostly go empty. Some sets also get a disk far
/// from the target, with a radius taken from the set so that it sorts
/// among the others and empties the running set part-way through. Two
/// sets in five are nested instead ([`nested_constraints`]).
fn random_constraints(rng: &mut StdRng, grid: &GeoGrid) -> Vec<RingConstraint> {
    if rng.random_bool(0.4) {
        return nested_constraints(rng, grid);
    }
    let target = random_centre(rng);
    let honest = rng.random_bool(0.75);
    let centres: Vec<GeoPoint> = (0..rng.random_range(1..8usize))
        .map(|_| random_centre(rng))
        .collect();
    let radii: Vec<f64> = (0..rng.random_range(1..10usize))
        .map(|_| random_radius(rng))
        .collect();
    let n = rng.random_range(1..41usize);
    let mut constraints: Vec<RingConstraint> = (0..n)
        .map(|_| {
            let centre = *rng.choose(&centres).expect("nonempty pool");
            let r = *rng.choose(&radii).expect("nonempty pool");
            let (reach, max_km) = if honest {
                let d = centre.distance_km(&target);
                (d, d + r)
            } else {
                (r, r)
            };
            match rng.random_range(0..4u32) {
                0 => RingConstraint::ring(centre, reach * rng.random_range(0.0..1.0), max_km),
                1 => RingConstraint::ring(centre, reach, max_km),
                _ => RingConstraint::disk(centre, max_km),
            }
        })
        .collect();
    if rng.random_bool(0.3) {
        let far = target.destination(rng.random_range(0.0..360.0), 15_000.0);
        let max_km = rng.choose(&constraints).expect("nonempty set").max_km;
        constraints.push(RingConstraint::disk(far, max_km.min(14_000.0)));
    }
    constraints
}

/// A nested set: the skip's boundary cases. The tightest disk, of one
/// cell or up to 5,000 km, has centre c₀, quantized radius ρ₀ and a point
/// x up to a kilometre inside its edge: a cell centre, or a point seen
/// from a random centre (on a pole or on ±180° a third of the time
/// each). Every further constraint is centred on the great circle
/// through c₀ and x, at a distance d from c₀ such that a whole-cell
/// radius lies within ±2M, ±M/2 or ±1e-6 km of d + ρ₀ + M (the skip's
/// threshold) for a disk centred beyond c₀, whose farthest live point
/// is x, or of d − ρ₀ − M for the inner disk of an annulus centred
/// beyond x, whose nearest live point is x, so that the subtraction
/// cuts at the live set's edge. A skip taken one margin too early
/// keeps x where the reference drops it. Some radii reach past half the
/// circumference, one of them from the point opposite x.
fn nested_constraints(rng: &mut StdRng, grid: &GeoGrid) -> Vec<RingConstraint> {
    let cell_km = grid.resolution_deg() * 111.32;
    let r0 = if rng.random_bool(0.3) {
        cell_km * rng.random_range(0.05..1.0)
    } else {
        rng.random_range(cell_km..5_000.0)
    };
    let rho0 = (r0 / cell_km).ceil().max(1.0) * cell_km;
    let inset = *rng
        .choose(&[0.0, 1e-6, MARGIN_KM / 4.0, MARGIN_KM])
        .expect("insets");
    let (c0, x) = if rng.random_bool(0.5) {
        let x = grid.center(rng.random_range(0..grid.num_cells()));
        (x.destination(rng.random_range(0.0..360.0), rho0 - inset), x)
    } else {
        let c0 = random_centre(rng);
        (
            c0,
            c0.destination(rng.random_range(0.0..360.0), rho0 - inset),
        )
    };
    let towards_x = c0.bearing_to(&x);
    let mut constraints = vec![RingConstraint::disk(c0, r0)];
    for _ in 0..rng.random_range(1..8usize) {
        let scale = *rng
            .choose(&[2.0 * MARGIN_KM, MARGIN_KM / 2.0, 1e-6])
            .expect("scales");
        let off = rng.random_range(-scale..scale);
        let frac = rng.random_range(0.01..0.99);
        if rng.random_bool(0.6) {
            // Outer radius k cells = d + ρ₀ + M + off.
            let lo = ((rho0 + cell_km + 4.0 * MARGIN_KM) / cell_km).ceil() as u32;
            let hi = ((HALF_CIRCUMFERENCE_KM + rho0 + cell_km) / cell_km) as u32;
            let k = f64::from(rng.random_range(lo..=hi));
            let d = k * cell_km - rho0 - MARGIN_KM - off;
            let centre = c0.destination(towards_x + 180.0, d);
            constraints.push(RingConstraint::disk(centre, (k - frac) * cell_km));
        } else {
            // Inner radius j cells = d − ρ₀ − M − off.
            let hi = ((HALF_CIRCUMFERENCE_KM - rho0 - 3.0 * MARGIN_KM) / cell_km) as u32;
            if hi < 1 {
                continue;
            }
            let j = f64::from(rng.random_range(1..=hi));
            let d = j * cell_km + rho0 + MARGIN_KM + off;
            let centre = c0.destination(towards_x, d);
            let max_km = if rng.random_bool(0.3) {
                21_000.0
            } else {
                d + rho0 + rng.random_range(0.0..2.0 * cell_km)
            };
            constraints.push(RingConstraint::ring(centre, (j + frac) * cell_km, max_km));
        }
    }
    if rng.random_bool(0.3) {
        constraints.push(RingConstraint::disk(random_centre(rng), 21_000.0));
    }
    if rng.random_bool(0.3) {
        // Centred on the cell centre opposite x: a cap past half the
        // circumference reaches x only at its clamped edge, and for 40 to
        // 50 % of such centres its raster leaves that cell out.
        let antipode = GeoPoint::new(-x.lat(), x.lon() + 180.0);
        constraints.push(RingConstraint::disk(antipode, 21_000.0));
    }
    constraints
}

/// A mask: the whole grid, nothing, a cap, or random cells.
fn random_mask(rng: &mut StdRng, grid: &Arc<GeoGrid>) -> Region {
    match rng.random_range(0..8u32) {
        0 | 1 => Region::full(Arc::clone(grid)),
        2 => Region::empty(Arc::clone(grid)),
        3 | 4 => Region::from_cap(
            grid,
            &SphericalCap::new(random_centre(rng), random_radius(rng)),
        ),
        _ => {
            let density = rng.random_range(0.05..0.95);
            let mut mask = Region::empty(Arc::clone(grid));
            for cell in grid.all_cells() {
                if rng.random_bool(density) {
                    mask.insert(cell);
                }
            }
            mask
        }
    }
}

/// The constraint tested against every row of the grid: its exact
/// rasterization as a whole-globe region, then one test over all words.
fn overlaps_by_full_scan(c: &RingConstraint, region: &Region) -> bool {
    Region::from_ring(region.grid(), c.center, c.min_km, c.max_km).intersects(region)
}

/// A region for the overlap check: empty, a cap, random runs, or single
/// cells on the first or last column. Runs and cells may sit on the first
/// and the last row.
fn random_region(rng: &mut StdRng, grid: &Arc<GeoGrid>) -> Region {
    let mut region = Region::empty(Arc::clone(grid));
    if rng.random_bool(0.25) {
        return region;
    }
    if rng.random_bool(0.25) {
        let cap = SphericalCap::new(random_centre(rng), random_radius(rng));
        return Region::from_cap(grid, &cap);
    }
    let edge_cells = rng.random_bool(0.5);
    let (first, last) = (0, grid.rows() - 1);
    let mut rows: Vec<u32> = (0..rng.random_range(0..4usize))
        .map(|_| rng.random_range(0..grid.rows()))
        .collect();
    rows.extend([first, last].into_iter().filter(|_| rng.random_bool(0.5)));
    for row in rows {
        let cols = if edge_cells {
            let col = if rng.random_bool(0.5) {
                0
            } else {
                grid.cols() - 1
            };
            col..col + 1
        } else {
            let lo = rng.random_range(0..grid.cols());
            lo..rng.random_range(lo + 1..=grid.cols())
        };
        region.insert_run(row, cols);
    }
    region
}

/// The counting sweep as it was: add one to every cell of every
/// constraint's exact rasterization over the whole globe, then keep the
/// mask cells with the highest count. Returns the winning region and
/// count.
fn sweep_over_the_globe(constraints: &[RingConstraint], mask: &Region) -> (Region, usize) {
    let grid = mask.grid();
    let mut counts = vec![0u32; grid.num_cells() as usize];
    for c in constraints {
        for run in Region::from_ring(grid, c.center, c.min_km, c.max_km).runs() {
            for v in &mut counts[run.start as usize..run.end as usize] {
                *v += 1;
            }
        }
    }
    let best = mask
        .cells()
        .map(|cell| counts[cell as usize])
        .max()
        .unwrap_or(0);
    let mut region = Region::empty(Arc::clone(grid));
    if best > 0 {
        for cell in mask.cells().filter(|&cell| counts[cell as usize] == best) {
            region.insert(cell);
        }
    }
    (region, best as usize)
}

/// The masks the sweep's row band must get right: empty, one cell, one
/// row, the first row, the last row, runs that wrap the antimeridian,
/// the full grid, and a cap (a baseline region).
fn sweep_mask(rng: &mut StdRng, grid: &Arc<GeoGrid>) -> Region {
    let mut mask = Region::empty(Arc::clone(grid));
    let (rows, cols) = (grid.rows(), grid.cols());
    match rng.random_range(0..8u32) {
        0 => {}
        1 => mask.insert(rng.random_range(0..grid.num_cells())),
        2 => mask.insert_run(rng.random_range(0..rows), 0..cols),
        3 => mask.insert_run(0, 0..cols),
        4 => mask.insert_run(rows - 1, 0..cols),
        5 => {
            let first = rng.random_range(0..rows);
            for row in first..(first + rng.random_range(1..4u32)).min(rows) {
                let k = rng.random_range(1..cols / 4);
                mask.insert_run(row, cols - k..cols);
                mask.insert_run(row, 0..k);
            }
        }
        6 => mask = Region::full(Arc::clone(grid)),
        _ => {
            mask = Region::from_cap(
                grid,
                &SphericalCap::new(random_centre(rng), rng.random_range(100.0..3_000.0)),
            )
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_intersection_matches_the_bitset_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = GeoGrid::new(*rng.choose(&RESOLUTIONS).expect("resolutions"));
        let constraints = random_constraints(&mut rng, &grid);
        let mask = random_mask(&mut rng, &grid);
        let (want, lookups) = reference(&constraints, &mask);

        let cache = DiskCache::new(Arc::clone(&grid));
        let got = intersect_constraints_cached(&constraints, &mask, &cache);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.cell_count(), want.cell_count());

        let mut keys = lookups.clone();
        keys.sort_unstable();
        keys.dedup();
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, lookups.len() as u64);
        prop_assert_eq!(stats.misses, keys.len() as u64);
        prop_assert_eq!(stats.entries, keys.len());
        prop_assert_eq!(cache.export_keys(), keys);

        // Served again from the now-warm cache: the same region, and
        // every lookup a hit.
        let again = intersect_constraints_cached(&constraints, &mask, &cache);
        prop_assert_eq!(&again, &want);
        let warm = cache.stats();
        prop_assert_eq!(warm.hits, stats.hits + lookups.len() as u64);
        prop_assert_eq!(warm.misses, stats.misses);
    }

    #[test]
    fn overlap_test_matches_a_full_row_scan(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = GeoGrid::new(*rng.choose(&RESOLUTIONS).expect("resolutions"));
        let region = random_region(&mut rng, &grid);
        let rows = region.row_band();
        for c in random_constraints(&mut rng, &grid) {
            prop_assert_eq!(
                constraint_overlaps_region(&c, &region, &rows),
                overlaps_by_full_scan(&c, &region),
                "constraint {:?}, region of {} cells",
                c,
                region.cell_count()
            );
        }
    }

    // With a ring of zero width added (it holds no cell centre), no set
    // is consistent, so the search must take the counting sweep; without
    // it, the fast path may answer instead. Either way the region and
    // the count are the whole-globe per-cell sweep's.
    #[test]
    fn counting_sweep_matches_the_whole_globe_count(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = GeoGrid::new(*rng.choose(&RESOLUTIONS).expect("resolutions"));
        let mask = sweep_mask(&mut rng, &grid);
        let mut constraints = random_constraints(&mut rng, &grid);
        for forced in [false, true] {
            if forced {
                let c = constraints[0];
                constraints.push(RingConstraint::ring(c.center, c.max_km, c.max_km));
            }
            let rec = Recorder::new(Level::Counters);
            let got = max_consistent_subset_profiled(&constraints, &mask, None, &rec);
            let (want, best) = sweep_over_the_globe(&constraints, &mask);
            if forced {
                let swept = rec.profile_stat("subset.counting_sweep").map(|s| s.count);
                prop_assert_eq!(swept, Some(1));
            }
            prop_assert_eq!(&got.region, &want);
            prop_assert_eq!(got.region.cell_count(), want.cell_count());
            prop_assert_eq!(got.satisfied, best);
        }
    }
}
