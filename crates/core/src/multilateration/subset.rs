//! The largest-consistent-subset search of CBG++ (§5.1).
//!
//! When disks underestimate, the full intersection can be empty — the
//! algorithm would predict *nowhere*. CBG++ instead finds "the largest
//! subset of all the … disks whose intersection is nonempty". The paper
//! implements this by depth-first search over the powerset; we use an
//! exact cell-wise formulation that is both simpler and faster on a grid:
//!
//! > A subset S of constraints has nonempty intersection iff some mask
//! > cell satisfies every constraint in S; hence the maximum-cardinality
//! > consistent subsets are exactly the constraint-sets of the cells that
//! > satisfy the most constraints, and the union of those subsets'
//! > intersections is the set of cells achieving that maximum count.
//!
//! The fast path (everything consistent) avoids the counting sweep
//! entirely.

use crate::multilateration::constraint::{intersect_constraints, ConstraintRaster, RingConstraint};
use geokit::Region;

/// Result of the subset search.
#[derive(Debug)]
pub struct SubsetResult {
    /// Cells consistent with a maximum-cardinality subset of constraints.
    pub region: Region,
    /// Size of the maximum consistent subset.
    pub satisfied: usize,
    /// Total number of constraints given.
    pub total: usize,
}

/// Find the maximal consistent subset region over `mask`.
///
/// With no constraints, the whole mask is trivially consistent.
pub fn max_consistent_subset(constraints: &[RingConstraint], mask: &Region) -> SubsetResult {
    max_consistent_subset_profiled(constraints, mask, None, &obs::Recorder::off())
}

/// The fully-parameterized subset search: optional shared disk cache for
/// the fast-path intersection, and a recorder for wall-clock profile
/// spans (`subset.intersect` around the full-set intersection,
/// `subset.counting_sweep` around the inconsistent-set sweep). No cache
/// and [`obs::Recorder::off`] reduce to [`max_consistent_subset`]
/// exactly.
pub fn max_consistent_subset_profiled(
    constraints: &[RingConstraint],
    mask: &Region,
    cache: Option<&crate::multilateration::DiskCache>,
    rec: &obs::Recorder,
) -> SubsetResult {
    let total = constraints.len();
    if total == 0 {
        return SubsetResult {
            region: mask.clone(),
            satisfied: 0,
            total,
        };
    }

    // Fast path: all constraints already agree somewhere.
    let all = {
        let _span = rec.profile_span("subset.intersect");
        match cache {
            Some(cache) => crate::multilateration::constraint::intersect_constraints_cached(
                constraints,
                mask,
                cache,
            ),
            None => intersect_constraints(constraints, mask),
        }
    };
    if !all.is_empty() {
        return SubsetResult {
            region: all,
            satisfied: total,
            total,
        };
    }
    let _span = rec.profile_span("subset.counting_sweep");
    counting_sweep(constraints, mask)
}

/// The inconsistent-set path: find the cells satisfying the most
/// constraints.
fn counting_sweep(constraints: &[RingConstraint], mask: &Region) -> SubsetResult {
    let total = constraints.len();
    // Counting sweep: for every mask cell, how many constraints hold?
    // Instead of testing every (cell, constraint) pair by distance, each
    // constraint rasterizes once into per-row column runs and bumps a
    // flat per-cell counter over its runs — the sweep is memory adds,
    // with one `acos` per constraint per touched row as the only trig.
    let grid = mask.grid();
    let cols = grid.cols();
    let mut counts = vec![0u32; grid.num_cells() as usize];
    for c in constraints {
        let raster = ConstraintRaster::new(grid, c);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for row in raster.rows() {
            raster.row_runs_into(row, &mut runs);
            let base = (row * cols) as usize;
            for &(lo, hi) in &runs {
                for v in &mut counts[base + lo as usize..base + hi as usize] {
                    *v += 1;
                }
            }
        }
    }
    // Max-scan and region build walk the mask's word-runs instead of
    // decoding cell ids one bit at a time: each run is a contiguous
    // `counts` slice, so both passes are straight-line slice sweeps with
    // no per-cell branch on membership. Pure integer comparisons — the
    // result is identical to the per-cell loop in any iteration order.
    let mut best_count = 0u32;
    for run in mask.runs() {
        for &c in &counts[run.start as usize..run.end as usize] {
            best_count = best_count.max(c);
        }
    }
    let mut region = Region::empty(std::sync::Arc::clone(grid));
    if best_count > 0 {
        for run in mask.runs() {
            // Within a run, insert each maximal sub-run of cells whose
            // count equals the winner as one word-masked splice.
            let base = run.start as usize;
            let slice = &counts[base..run.end as usize];
            let mut i = 0;
            while i < slice.len() {
                if slice[i] == best_count {
                    let mut j = i + 1;
                    while j < slice.len() && slice[j] == best_count {
                        j += 1;
                    }
                    region.insert_id_run((base + i) as u32..(base + j) as u32);
                    i = j;
                } else {
                    i += 1;
                }
            }
        }
    }
    SubsetResult {
        region,
        satisfied: best_count as usize,
        total,
    }
}

/// True if the constraint is consistent with (overlaps) a region: some
/// region cell lies inside the constraint. Used by CBG++ to discard
/// bestline disks that contradict the baseline region (§5.1).
///
/// Evaluated as a run/bitset intersection test per touched row — no
/// per-cell distances. A row where the region has no cells cannot hold a
/// shared cell, so it is passed over on a word scan of the region,
/// without solving for the constraint's runs there.
pub fn constraint_overlaps_region(constraint: &RingConstraint, region: &Region) -> bool {
    let grid = region.grid();
    let raster = ConstraintRaster::new(grid, constraint);
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for row in raster.rows() {
        if !region.intersects_run(row, 0..grid.cols()) {
            continue;
        }
        raster.row_runs_into(row, &mut runs);
        if runs
            .iter()
            .any(|&(lo, hi)| region.intersects_run(row, lo..hi))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::{GeoGrid, GeoPoint};

    fn mask() -> Region {
        Region::full(GeoGrid::new(1.0))
    }

    #[test]
    fn consistent_set_takes_fast_path() {
        let m = mask();
        let cs = [
            RingConstraint::disk(GeoPoint::new(50.0, 5.0), 1000.0),
            RingConstraint::disk(GeoPoint::new(50.0, 10.0), 1000.0),
        ];
        let r = max_consistent_subset(&cs, &m);
        assert_eq!(r.satisfied, 2);
        assert!(!r.region.is_empty());
    }

    #[test]
    fn one_bad_disk_is_dropped() {
        let m = mask();
        // Two agreeing disks in Europe, one contradicting disk in the
        // Pacific: the max subset is the European pair.
        let cs = [
            RingConstraint::disk(GeoPoint::new(50.0, 5.0), 800.0),
            RingConstraint::disk(GeoPoint::new(50.0, 10.0), 800.0),
            RingConstraint::disk(GeoPoint::new(-20.0, -150.0), 500.0),
        ];
        let r = max_consistent_subset(&cs, &m);
        assert_eq!(r.satisfied, 2);
        assert!(r.region.contains_point(&GeoPoint::new(50.0, 7.5)));
        assert!(!r.region.contains_point(&GeoPoint::new(-20.0, -150.0)));
    }

    #[test]
    fn tie_between_subsets_unions_their_intersections() {
        let m = mask();
        // Two disjoint agreeing pairs: both are maximal (size 2), so the
        // result covers both intersection areas.
        let cs = [
            RingConstraint::disk(GeoPoint::new(50.0, 5.0), 700.0),
            RingConstraint::disk(GeoPoint::new(50.0, 9.0), 700.0),
            RingConstraint::disk(GeoPoint::new(-30.0, 140.0), 700.0),
            RingConstraint::disk(GeoPoint::new(-30.0, 144.0), 700.0),
        ];
        let r = max_consistent_subset(&cs, &m);
        assert_eq!(r.satisfied, 2);
        assert!(r.region.contains_point(&GeoPoint::new(50.0, 7.0)));
        assert!(r.region.contains_point(&GeoPoint::new(-30.0, 142.0)));
    }

    #[test]
    fn empty_constraints_return_mask() {
        let m = mask();
        let r = max_consistent_subset(&[], &m);
        assert_eq!(r.satisfied, 0);
        assert_eq!(r.region.cell_count(), m.cell_count());
    }

    #[test]
    fn overlap_test() {
        let grid = GeoGrid::new(1.0);
        let region = Region::from_cap(
            &grid,
            &geokit::SphericalCap::new(GeoPoint::new(50.0, 5.0), 300.0),
        );
        let near = RingConstraint::disk(GeoPoint::new(50.0, 6.0), 300.0);
        let far = RingConstraint::disk(GeoPoint::new(0.0, 100.0), 300.0);
        assert!(constraint_overlaps_region(&near, &region));
        assert!(!constraint_overlaps_region(&far, &region));
    }

    #[test]
    fn counting_respects_mask() {
        let grid = GeoGrid::new(2.0);
        // Mask excludes Europe entirely; two European disks conflict with
        // one Australian disk — but the Europe cells are unavailable, so
        // the best masked cell satisfies only the Australian disk.
        let mask = Region::from_predicate(&grid, |p| p.lat() < 0.0);
        let cs = [
            RingConstraint::disk(GeoPoint::new(50.0, 5.0), 500.0),
            RingConstraint::disk(GeoPoint::new(50.0, 8.0), 500.0),
            RingConstraint::disk(GeoPoint::new(-25.0, 135.0), 500.0),
        ];
        let r = max_consistent_subset(&cs, &mask);
        assert_eq!(r.satisfied, 1);
        assert!(r.region.contains_point(&GeoPoint::new(-25.0, 135.0)));
    }
}
