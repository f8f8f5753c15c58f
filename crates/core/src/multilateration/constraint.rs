//! Ring/disk constraints and their intersection.
//!
//! A constraint says "the target is between `min_km` and `max_km` from
//! this landmark" (a disk when `min_km` is zero — CBG's case — or an
//! annulus — Octant's). The intersection engine exploits the structure of
//! the problem: the *smallest* disk confines the search, so it is
//! rasterized once and every other constraint is evaluated as a
//! point-in-ring test on the survivors. Most constraints are wildly
//! slack ("ineffective", §5.2), so this is orders of magnitude cheaper
//! than rasterizing every disk.

use crate::multilateration::diskcache::DiskCache;
use geokit::{CapRaster, GeoGrid, GeoPoint, GridTrig, Region, SphericalCap, EARTH_RADIUS_KM};
use std::sync::Arc;

/// One per-landmark distance constraint.
#[derive(Debug, Clone, Copy)]
pub struct RingConstraint {
    /// The landmark.
    pub center: GeoPoint,
    /// Minimum distance, km (0 for a plain disk).
    pub min_km: f64,
    /// Maximum distance, km.
    pub max_km: f64,
}

impl RingConstraint {
    /// A plain disk constraint.
    pub fn disk(center: GeoPoint, max_km: f64) -> RingConstraint {
        RingConstraint {
            center,
            min_km: 0.0,
            max_km,
        }
    }

    /// A ring constraint.
    ///
    /// # Panics
    /// Panics if `min_km > max_km` or either is not finite.
    pub fn ring(center: GeoPoint, min_km: f64, max_km: f64) -> RingConstraint {
        assert!(
            min_km.is_finite() && max_km.is_finite() && min_km >= 0.0 && min_km <= max_km,
            "bad ring bounds [{min_km}, {max_km}]"
        );
        RingConstraint {
            center,
            min_km,
            max_km,
        }
    }

    /// Point-in-constraint test.
    #[inline]
    pub fn contains(&self, p: &GeoPoint) -> bool {
        let d = self.center.distance_km(p);
        d >= self.min_km && d <= self.max_km
    }

    /// Inflate the constraint by `slack_km` on both sides (outer radius
    /// grows, inner radius shrinks, floored at zero).
    ///
    /// Used for coverage-preserving rasterization: a region is the set of
    /// *cell centres* satisfying every constraint, and a cell centre can
    /// be up to half a cell diagonal away from the true location, so any
    /// sound grid evaluation must widen constraints by that much (see
    /// [`grid_slack_km`]). Without this, a constraint tighter than one
    /// cell silently excludes the very cell the target sits in.
    pub fn inflated(&self, slack_km: f64) -> RingConstraint {
        assert!(slack_km >= 0.0, "negative slack {slack_km}");
        RingConstraint {
            center: self.center,
            min_km: (self.min_km - slack_km).max(0.0),
            max_km: self.max_km + slack_km,
        }
    }
}

/// The rasterization slack for a grid: slightly more than half the
/// diagonal of an equatorial cell (cells shrink towards the poles, so
/// this is conservative everywhere).
pub fn grid_slack_km(grid: &geokit::GeoGrid) -> f64 {
    0.75 * grid.resolution_deg() * 111.32
}

/// The per-row allowed column runs of one constraint: the outer cap's
/// runs minus (for annuli) the inner cap's. Cells whose centre is at
/// exactly `min_km` from an annulus centre fall to the inner cap and are
/// excluded — a measure-zero boundary convention shared with
/// [`Region::from_ring`].
pub(crate) struct ConstraintRaster<'g> {
    trig: &'g GridTrig,
    outer: CapRaster,
    inner: Option<CapRaster>,
}

impl<'g> ConstraintRaster<'g> {
    pub(crate) fn new(grid: &'g GeoGrid, c: &RingConstraint) -> ConstraintRaster<'g> {
        ConstraintRaster {
            trig: grid.trig(),
            outer: CapRaster::new(grid, &SphericalCap::new(c.center, c.max_km)),
            inner: (c.min_km > 0.0)
                .then(|| CapRaster::new(grid, &SphericalCap::new(c.center, c.min_km))),
        }
    }

    /// The rows the outer cap touches.
    pub(crate) fn rows(&self) -> std::ops::Range<u32> {
        self.outer.rows()
    }

    /// Replace `out` with `row`'s allowed half-open column runs, sorted
    /// and disjoint. Disk constraints (no inner cap, the common case)
    /// allocate nothing here.
    pub(crate) fn row_runs_into(&self, row: u32, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let Some(inner) = &self.inner else {
            self.outer
                .row_runs(self.trig, row, |lo, hi| out.push((lo, hi)));
            return;
        };
        let (outer, n) = cap_runs(&self.outer, self.trig, row);
        if n == 0 {
            return;
        }
        let (inn, m) = cap_runs(inner, self.trig, row);
        subtract_sorted(&outer[..n], &inn[..m], out);
    }
}

/// `row`'s runs of `cap` (at most two) on the stack, with their count.
fn cap_runs(cap: &CapRaster, trig: &GridTrig, row: u32) -> ([(u32, u32); 2], usize) {
    let (mut runs, mut n) = ([(0u32, 0u32); 2], 0usize);
    cap.row_runs(trig, row, |lo, hi| {
        runs[n] = (lo, hi);
        n += 1;
    });
    (runs, n)
}

/// Append `a \ b` to `out`, for sorted disjoint half-open run lists.
fn subtract_sorted(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    for &(alo, ahi) in a {
        let mut lo = alo;
        for &(blo, bhi) in b {
            if bhi <= lo || blo >= ahi {
                continue;
            }
            if blo > lo {
                out.push((lo, blo));
            }
            lo = lo.max(bhi);
            if lo >= ahi {
                break;
            }
        }
        if lo < ahi {
            out.push((lo, ahi));
        }
    }
}

/// Append `a ∩ b` to `out`, for sorted disjoint half-open run lists.
fn intersect_sorted(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Intersect all constraints with each other and the mask. Returns the
/// (possibly empty) region of mask cells satisfying every constraint.
///
/// The intersection runs row-by-row in closed form: each constraint's
/// allowed columns on a latitude row are at most a handful of contiguous
/// runs (one `acos` per cap per row), and run lists intersect by a
/// linear merge — no per-cell distance is ever computed. Surviving runs
/// land in the output region a whole `u64` word at a time.
pub fn intersect_constraints(constraints: &[RingConstraint], mask: &Region) -> Region {
    let grid = mask.grid();
    if constraints.is_empty() {
        return mask.clone();
    }
    // Anchor on the tightest (smallest max radius) constraint: only its
    // latitude band can survive, so only its rows are visited.
    let anchor = constraints
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.max_km.partial_cmp(&b.1.max_km).expect("finite radii"))
        .map(|(i, _)| i)
        .expect("nonempty constraints");
    let rasters: Vec<ConstraintRaster<'_>> = constraints
        .iter()
        .map(|c| ConstraintRaster::new(grid, c))
        .collect();

    let mut out = Region::empty(Arc::clone(grid));
    let mut cur: Vec<(u32, u32)> = Vec::new();
    let mut other: Vec<(u32, u32)> = Vec::new();
    let mut next: Vec<(u32, u32)> = Vec::new();
    for row in rasters[anchor].rows() {
        rasters[anchor].row_runs_into(row, &mut cur);
        for (i, raster) in rasters.iter().enumerate() {
            if i == anchor || cur.is_empty() {
                continue;
            }
            raster.row_runs_into(row, &mut other);
            next.clear();
            intersect_sorted(&cur, &other, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        for &(lo, hi) in &cur {
            out.insert_run(row, lo..hi);
        }
    }
    out.intersect_with(mask);
    out
}

/// How far inside a disk, km, every live cell centre must provably lie
/// before [`intersect_constraints_cached`] skips folding that disk in.
/// It covers the haversine's rounding and the raster's boundary
/// decision, each below a metre, by orders of magnitude.
const SKIP_MARGIN_KM: f64 = 1.0;

/// Half the circumference: a cap's raster clamps its angular radius to
/// π, so no disk reaches farther than this, whatever its radius.
const HALF_CIRCUMFERENCE_KM: f64 = std::f64::consts::PI * EARTH_RADIUS_KM;

/// [`intersect_constraints`] drawing its disks from a shared
/// [`DiskCache`] instead of rasterizing.
///
/// Radii are quantized by the cache — outer radii **up**, inner radii
/// **down**, each by at most one grid cell — so the result covers the
/// exact intersection (soundness preserved; precision loss bounded by
/// the slack the grid already imposes). Use this on paths that evaluate
/// many constraint sets over a shared constellation (the audit: proxies
/// × landmarks × algorithms); one-off queries should prefer the exact
/// run-based [`intersect_constraints`].
///
/// Constraints are taken tightest first (stable in `max_km`). The
/// running set starts as the first disk's runs and folds each further
/// disk (then, for an annulus, its inner disk) into the rows still
/// alive, evaluating the disk's closed form on those rows only; a row
/// whose runs all vanish is dropped, and once no row is left the
/// remaining constraints are not looked up at all.
///
/// Most disks cannot remove a cell (§5.2's ineffective constraints), and
/// their folds are skipped. Every live cell centre lies within ρ₀, the
/// first disk's quantized radius, of its centre c₀. A disk of quantized
/// radius r around c with `|c₀c| + ρ₀ + 1 km ≤ min(r, πR)` therefore
/// holds every live cell by at least a kilometre (triangle inequality;
/// the raster draws a cap past half the circumference as one of radius
/// πR), so its fold would leave the running set as it is. Skipped disks
/// are still looked up, so the cache's counters and keys do not move.
/// An annulus's inner disk is always subtracted.
pub fn intersect_constraints_cached(
    constraints: &[RingConstraint],
    mask: &Region,
    cache: &DiskCache,
) -> Region {
    if constraints.is_empty() {
        return mask.clone();
    }
    let trig = cache.grid().trig();
    let mut order: Vec<usize> = (0..constraints.len()).collect();
    order.sort_by(|&a, &b| {
        constraints[a]
            .max_km
            .partial_cmp(&constraints[b].max_km)
            .expect("finite radii")
    });
    let first = &constraints[order[0]];
    let (c0, rho0) = (first.center, cache.quantized_radius_km(first.max_km));
    let mut live = LiveRows::default();
    let mut next = LiveRows::default();
    for (k, &i) in order.iter().enumerate() {
        let c = &constraints[i];
        if k > 0 && live.rows.is_empty() {
            break;
        }
        let outer = cache.disk(&c.center, c.max_km);
        let d = c0.distance_km(&c.center);
        if k == 0 {
            live.start(&outer, trig);
        } else if d + rho0 + SKIP_MARGIN_KM
            > cache
                .quantized_radius_km(c.max_km)
                .min(HALF_CIRCUMFERENCE_KM)
        {
            live.fold_into(&mut next, &outer, trig, intersect_sorted);
            std::mem::swap(&mut live, &mut next);
        }
        if c.min_km > 0.0 {
            if let Some(inner) = cache.inner_disk(&c.center, c.min_km) {
                live.fold_into(&mut next, &inner, trig, subtract_sorted);
                std::mem::swap(&mut live, &mut next);
            }
        }
    }
    let mut out = Region::empty(Arc::clone(cache.grid()));
    let mut start = 0usize;
    for &(row, end) in &live.rows {
        for &(lo, hi) in &live.runs[start..end] {
            out.insert_run(row, lo..hi);
        }
        start = end;
    }
    out.intersect_with(mask);
    out
}

/// The running set of [`intersect_constraints_cached`]: only the rows
/// that still hold cells, ascending, each with its sorted, disjoint
/// column runs.
#[derive(Default)]
struct LiveRows {
    /// `(row, end)`: the row owns `runs[previous end..end]`.
    rows: Vec<(u32, usize)>,
    runs: Vec<(u32, u32)>,
}

impl LiveRows {
    /// Become the disk's nonempty rows.
    fn start(&mut self, disk: &CapRaster, trig: &GridTrig) {
        for row in disk.rows() {
            let before = self.runs.len();
            disk.row_runs(trig, row, |lo, hi| self.runs.push((lo, hi)));
            if self.runs.len() > before {
                self.rows.push((row, self.runs.len()));
            }
        }
    }

    /// Replace `out` with `op(row's runs, disk's runs on that row)` for
    /// every live row, keeping the rows it leaves nonempty. The disk's
    /// runs are evaluated on the live rows only.
    fn fold_into<F>(&self, out: &mut LiveRows, disk: &CapRaster, trig: &GridTrig, op: F)
    where
        F: Fn(&[(u32, u32)], &[(u32, u32)], &mut Vec<(u32, u32)>),
    {
        out.rows.clear();
        out.runs.clear();
        let mut start = 0usize;
        for &(row, end) in &self.rows {
            let (runs, n) = cap_runs(disk, trig, row);
            let before = out.runs.len();
            op(&self.runs[start..end], &runs[..n], &mut out.runs);
            if out.runs.len() > before {
                out.rows.push((row, out.runs.len()));
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoGrid;

    fn full_mask() -> Region {
        Region::full(GeoGrid::new(1.0))
    }

    #[test]
    fn single_disk_matches_cap_rasterization() {
        let mask = full_mask();
        let c = RingConstraint::disk(GeoPoint::new(50.0, 10.0), 1200.0);
        let region = intersect_constraints(&[c], &mask);
        let direct = Region::from_cap(
            mask.grid(),
            &SphericalCap::new(GeoPoint::new(50.0, 10.0), 1200.0),
        );
        assert_eq!(region.cell_count(), direct.cell_count());
    }

    #[test]
    fn belgium_style_intersection() {
        // The paper's Fig. 1: Bourges 500 km, Cromer 500 km, Randers
        // 800 km ⇒ roughly Belgium.
        let mask = full_mask();
        let cs = [
            RingConstraint::disk(GeoPoint::new(47.08, 2.40), 500.0), // Bourges
            RingConstraint::disk(GeoPoint::new(52.93, 1.30), 500.0), // Cromer
            RingConstraint::disk(GeoPoint::new(56.46, 10.04), 800.0), // Randers
        ];
        let region = intersect_constraints(&cs, &mask);
        assert!(!region.is_empty());
        assert!(region.contains_point(&GeoPoint::new(50.85, 4.35))); // Brussels
        assert!(!region.contains_point(&GeoPoint::new(48.86, 2.35))); // Paris: too far from Cromer
        assert!(!region.contains_point(&GeoPoint::new(52.52, 13.40))); // Berlin
    }

    #[test]
    fn ring_excludes_inner_disk() {
        let mask = full_mask();
        let center = GeoPoint::new(0.0, 0.0);
        let c = RingConstraint::ring(center, 1000.0, 2500.0);
        let region = intersect_constraints(&[c], &mask);
        assert!(!region.contains_point(&center));
        assert!(region.contains_point(&center.destination(90.0, 1800.0)));
    }

    #[test]
    fn disjoint_constraints_give_empty_region() {
        let mask = full_mask();
        let cs = [
            RingConstraint::disk(GeoPoint::new(60.0, 0.0), 400.0),
            RingConstraint::disk(GeoPoint::new(-60.0, 180.0), 400.0),
        ];
        assert!(intersect_constraints(&cs, &mask).is_empty());
    }

    #[test]
    fn mask_is_respected() {
        let grid = GeoGrid::new(1.0);
        // Mask = northern hemisphere only.
        let mask = Region::from_predicate(&grid, |p| p.lat() > 0.0);
        let c = RingConstraint::disk(GeoPoint::new(0.0, 0.0), 3000.0);
        let region = intersect_constraints(&[c], &mask);
        assert!(!region.is_empty());
        for cell in region.cells() {
            assert!(grid.center(cell).lat() > 0.0);
        }
    }

    #[test]
    fn no_constraints_returns_mask() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::from_predicate(&grid, |p| p.lat().abs() < 10.0);
        let region = intersect_constraints(&[], &mask);
        assert_eq!(region.cell_count(), mask.cell_count());
    }

    #[test]
    #[should_panic(expected = "bad ring bounds")]
    fn inverted_ring_panics() {
        RingConstraint::ring(GeoPoint::new(0.0, 0.0), 10.0, 5.0);
    }

    #[test]
    fn cached_intersection_covers_the_exact_one() {
        let mask = full_mask();
        let cache = crate::multilateration::DiskCache::new(std::sync::Arc::clone(mask.grid()));
        let cs = [
            RingConstraint::disk(GeoPoint::new(47.08, 2.40), 512.0),
            RingConstraint::disk(GeoPoint::new(52.93, 1.30), 487.0),
            RingConstraint::ring(GeoPoint::new(56.46, 10.04), 150.0, 803.0),
        ];
        let exact = intersect_constraints(&cs, &mask);
        let cached = intersect_constraints_cached(&cs, &mask, &cache);
        assert!(!exact.is_empty());
        assert!(
            exact.is_subset_of(&cached),
            "quantization must only over-cover"
        );
        // Growth is bounded by one grid cell of radius per disk: the
        // cached region sits inside the exact intersection of the
        // constraints inflated by one cell.
        let inflated: Vec<RingConstraint> = cs.iter().map(|c| c.inflated(111.33)).collect();
        assert!(cached.is_subset_of(&intersect_constraints(&inflated, &mask)));
        // Second evaluation is served from the memo.
        let before = cache.stats();
        intersect_constraints_cached(&cs, &mask, &cache);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits);
    }
}
