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

/// The inconsistent-set path: find the mask cells satisfying the most
/// constraints.
///
/// Only the mask's cells can win, so only the rows of its row band are
/// counted, and among them only rows that hold a mask cell. Each
/// constraint's runs on such a row come from its exact
/// [`ConstraintRaster`] (one `acos` per cap per row), never from the
/// disk cache, whose radius-quantized disks would change the counts.
/// A run adds +1 at its first column and −1 just past its last; one
/// prefix sum per row then turns those marks into the number of
/// constraints covering each cell — the same integers as adding one to
/// every covered cell, at a cost per run instead of per cell. The
/// winning count, the winning region and `satisfied` are therefore
/// those of a whole-globe per-cell count.
fn counting_sweep(constraints: &[RingConstraint], mask: &Region) -> SubsetResult {
    let total = constraints.len();
    let grid = mask.grid();
    let cols = grid.cols();
    let band = mask.row_band();
    // `counts` holds the band's rows back to back: cell `id` sits at
    // `id - offset`, so the mask's id runs slice it directly.
    let offset = (band.start * cols) as usize;
    let live: Vec<bool> = band
        .clone()
        .map(|row| mask.intersects_run(row, 0..cols))
        .collect();
    // Rows no run touched stay zero and need no prefix sum.
    let mut marked = vec![false; band.len()];
    let mut counts = vec![0i32; band.len() * cols as usize];
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for c in constraints {
        let raster = ConstraintRaster::new(grid, c);
        let rows = raster.rows();
        for row in rows.start.max(band.start)..rows.end.min(band.end) {
            let r = (row - band.start) as usize;
            if !live[r] {
                continue;
            }
            raster.row_runs_into(row, &mut runs);
            marked[r] |= !runs.is_empty();
            let base = r * cols as usize;
            for &(lo, hi) in &runs {
                counts[base + lo as usize] += 1;
                // A run that reaches the row's end has nothing to close:
                // the prefix sum stops there.
                if hi < cols {
                    counts[base + hi as usize] -= 1;
                }
            }
        }
    }
    for (marks, _) in counts
        .chunks_exact_mut(cols as usize)
        .zip(&marked)
        .filter(|(_, &marked)| marked)
    {
        let mut acc = 0i32;
        for v in marks {
            acc += *v;
            *v = acc;
        }
    }
    // Max-scan and region build walk the mask's word-runs instead of
    // decoding cell ids one bit at a time: each run is a contiguous
    // `counts` slice, so both passes are straight-line slice sweeps with
    // no per-cell branch on membership. Pure integer comparisons — the
    // result is identical to the per-cell loop in any iteration order.
    let mut best_count = 0i32;
    for run in mask.runs() {
        for &c in &counts[run.start as usize - offset..run.end as usize - offset] {
            best_count = best_count.max(c);
        }
    }
    let mut region = Region::empty(std::sync::Arc::clone(grid));
    if best_count > 0 {
        for run in mask.runs() {
            // Within a run, insert each maximal sub-run of cells whose
            // count equals the winner as one word-masked splice.
            let base = run.start as usize;
            let slice = &counts[base - offset..run.end as usize - offset];
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
/// bestline disks that contradict the baseline region (§5.1), and by
/// the robust subset search to name the constraints it discarded.
///
/// `rows` must cover every row that holds a region cell; pass
/// [`Region::row_band`], computed once per region, since one region is
/// tested against many constraints. Only the constraint's rows inside
/// that band are visited, and a band row where the region has no cells
/// is passed over on a word scan of the region, without solving for the
/// constraint's runs there. Each visited row is a run/bitset
/// intersection test — no per-cell distances.
pub fn constraint_overlaps_region(
    constraint: &RingConstraint,
    region: &Region,
    rows: &std::ops::Range<u32>,
) -> bool {
    let grid = region.grid();
    let raster = ConstraintRaster::new(grid, constraint);
    let disk_rows = raster.rows();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for row in disk_rows.start.max(rows.start)..disk_rows.end.min(rows.end) {
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
        let band = region.row_band();
        assert!(constraint_overlaps_region(&near, &region, &band));
        assert!(!constraint_overlaps_region(&far, &region, &band));
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
