//! Bitset regions over the global grid, with the set algebra and geometry
//! queries multilateration needs.
//!
//! A [`Region`] is the set of grid cells whose centres satisfy some
//! predicate — inside a disk, inside a country, on land. All the paper's
//! prediction regions (CBG disks intersections, Octant rings, Spotter
//! credible sets, CBG++ output) are `Region`s, so "does the prediction
//! overlap the claimed country" is a single bitwise AND.

use crate::grid::{CellId, GeoGrid};
use crate::point::GeoPoint;
use crate::shapes::SphericalCap;
use std::sync::Arc;

/// A set of grid cells on a shared [`GeoGrid`].
#[derive(Clone)]
pub struct Region {
    grid: Arc<GeoGrid>,
    bits: Vec<u64>,
    /// Cached population count; kept in sync by all mutating operations.
    count: u32,
}

impl PartialEq for Region {
    /// Two regions are equal when they live on grids of the same
    /// resolution and contain exactly the same cells.
    fn eq(&self, other: &Region) -> bool {
        self.grid.resolution_deg() == other.grid.resolution_deg() && self.bits == other.bits
    }
}

impl Eq for Region {}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("resolution_deg", &self.grid.resolution_deg())
            .field("cells", &self.count)
            .field("area_km2", &self.area_km2())
            .finish()
    }
}

impl Region {
    /// The empty region on `grid`.
    pub fn empty(grid: Arc<GeoGrid>) -> Region {
        let words = (grid.num_cells() as usize).div_ceil(64);
        Region {
            grid,
            bits: vec![0; words],
            count: 0,
        }
    }

    /// The full region (every cell) on `grid`: whole words of `!0` plus
    /// a masked tail, not `num_cells` single-bit inserts.
    pub fn full(grid: Arc<GeoGrid>) -> Region {
        let n = grid.num_cells();
        let mut r = Region::empty(grid);
        let whole = (n as usize) / 64;
        for w in &mut r.bits[..whole] {
            *w = !0u64;
        }
        let tail = (n as usize) % 64;
        if tail > 0 {
            r.bits[whole] = (1u64 << tail) - 1;
        }
        r.count = n;
        r
    }

    /// Region of all cells whose centre lies within the cap, filled one
    /// horizontal run at a time.
    pub fn from_cap(grid: &Arc<GeoGrid>, cap: &SphericalCap) -> Region {
        let mut r = Region::empty(Arc::clone(grid));
        grid.for_each_run_in_cap(cap, |row, cols| r.insert_run(row, cols));
        r
    }

    /// Region of all cells whose centre is between `min_km` and `max_km`
    /// of `center`: an annulus, as used by ring multilateration.
    ///
    /// Computed as run arithmetic — the outer cap's runs minus the inner
    /// cap's runs — so the cost is proportional to the word count of the
    /// touched rows, with no per-cell distance evaluation. Cells whose
    /// centre lies *exactly* `min_km` from `center` land on the
    /// boundary between the subtracted inner cap and the ring; they are
    /// treated as inside the inner cap (a measure-zero set for measured
    /// radii).
    pub fn from_ring(grid: &Arc<GeoGrid>, center: GeoPoint, min_km: f64, max_km: f64) -> Region {
        assert!(
            min_km <= max_km,
            "ring min {min_km} km exceeds max {max_km} km"
        );
        let outer = SphericalCap::new(center, max_km);
        let mut r = Region::empty(Arc::clone(grid));
        grid.for_each_run_in_cap(&outer, |row, cols| r.insert_run(row, cols));
        if min_km > 0.0 {
            let inner = SphericalCap::new(center, min_km);
            grid.for_each_run_in_cap(&inner, |row, cols| r.remove_run(row, cols));
        }
        r
    }

    /// Region of all cells whose centre satisfies `pred`.
    pub fn from_predicate<F: FnMut(&GeoPoint) -> bool>(grid: &Arc<GeoGrid>, mut pred: F) -> Region {
        let mut r = Region::empty(Arc::clone(grid));
        for cell in grid.all_cells() {
            if pred(&grid.center(cell)) {
                r.insert(cell);
            }
        }
        r
    }

    /// The grid this region lives on.
    pub fn grid(&self) -> &Arc<GeoGrid> {
        &self.grid
    }

    /// Insert one cell. Idempotent.
    pub fn insert(&mut self, cell: CellId) {
        let (w, b) = (cell as usize / 64, cell as usize % 64);
        let mask = 1u64 << b;
        if self.bits[w] & mask == 0 {
            self.bits[w] |= mask;
            self.count += 1;
        }
    }

    /// The word mask covering bit positions `[lo, hi)` of a word, given
    /// the clamped in-word bounds.
    #[inline]
    fn word_mask(lo: usize, hi: usize) -> u64 {
        debug_assert!(lo < hi && hi <= 64);
        (!0u64 >> (64 - (hi - lo))) << lo
    }

    /// Visit every word overlapping the half-open cell-id range
    /// `[lo, hi)` as `(word_index, mask_of_range_bits)`.
    #[inline]
    fn for_each_word_in_range<F: FnMut(&mut u64, u64)>(&mut self, lo: u32, hi: u32, mut f: F) {
        let (lo, hi) = (lo as usize, hi as usize);
        debug_assert!(hi <= self.bits.len() * 64);
        if lo >= hi {
            return;
        }
        let (w0, w1) = (lo / 64, (hi - 1) / 64);
        if w0 == w1 {
            f(
                &mut self.bits[w0],
                Self::word_mask(lo % 64, (hi - 1) % 64 + 1),
            );
            return;
        }
        f(&mut self.bits[w0], Self::word_mask(lo % 64, 64));
        for w in w0 + 1..w1 {
            f(&mut self.bits[w], !0u64);
        }
        f(&mut self.bits[w1], Self::word_mask(0, (hi - 1) % 64 + 1));
    }

    /// Insert the contiguous run of cells `row * cols + cols_range` —
    /// one horizontal grid run — with whole-word stores. Idempotent.
    pub fn insert_run(&mut self, row: u32, cols: std::ops::Range<u32>) {
        let base = row * self.grid.cols();
        let mut added = 0u32;
        self.for_each_word_in_range(base + cols.start, base + cols.end, |w, mask| {
            added += (mask & !*w).count_ones();
            *w |= mask;
        });
        self.count += added;
    }

    /// Remove the contiguous run of cells `row * cols + cols_range` with
    /// whole-word stores. Idempotent.
    pub fn remove_run(&mut self, row: u32, cols: std::ops::Range<u32>) {
        let base = row * self.grid.cols();
        let mut removed = 0u32;
        self.for_each_word_in_range(base + cols.start, base + cols.end, |w, mask| {
            removed += (mask & *w).count_ones();
            *w &= !mask;
        });
        self.count -= removed;
    }

    /// True if any member cell lies within the run `row * cols +
    /// cols_range` (early-exits on the first hit).
    pub fn intersects_run(&self, row: u32, cols: std::ops::Range<u32>) -> bool {
        let base = row * self.grid.cols();
        let (lo, hi) = ((base + cols.start) as usize, (base + cols.end) as usize);
        if lo >= hi {
            return false;
        }
        let (w0, w1) = (lo / 64, (hi - 1) / 64);
        if w0 == w1 {
            return self.bits[w0] & Self::word_mask(lo % 64, (hi - 1) % 64 + 1) != 0;
        }
        if self.bits[w0] & Self::word_mask(lo % 64, 64) != 0 {
            return true;
        }
        for w in w0 + 1..w1 {
            if self.bits[w] != 0 {
                return true;
            }
        }
        self.bits[w1] & Self::word_mask(0, (hi - 1) % 64 + 1) != 0
    }

    /// Membership test.
    #[inline]
    pub fn contains_cell(&self, cell: CellId) -> bool {
        let (w, b) = (cell as usize / 64, cell as usize % 64);
        self.bits[w] >> b & 1 == 1
    }

    /// True if the cell containing `p` is in the region.
    pub fn contains_point(&self, p: &GeoPoint) -> bool {
        self.contains_cell(self.grid.cell_of(p))
    }

    /// Number of cells in the region.
    #[inline]
    pub fn cell_count(&self) -> u32 {
        self.count
    }

    /// True if the region has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn assert_same_grid(&self, other: &Region) {
        assert!(
            Arc::ptr_eq(&self.grid, &other.grid)
                || self.grid.resolution_deg() == other.grid.resolution_deg(),
            "region set operation across mismatched grids ({}° vs {}°)",
            self.grid.resolution_deg(),
            other.grid.resolution_deg()
        );
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Region) {
        self.assert_same_grid(other);
        let mut count = 0u32;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= *b;
            count += a.count_ones();
        }
        self.count = count;
    }

    /// In-place set difference (`self \ other`).
    pub fn subtract(&mut self, other: &Region) {
        self.assert_same_grid(other);
        let mut count = 0u32;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !*b;
            count += a.count_ones();
        }
        self.count = count;
    }

    /// New region: intersection.
    pub fn intersection(&self, other: &Region) -> Region {
        let mut r = self.clone();
        r.intersect_with(other);
        r
    }

    /// True if the two regions share at least one cell (cheaper than
    /// materializing the intersection).
    pub fn intersects(&self, other: &Region) -> bool {
        self.assert_same_grid(other);
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// True if every cell of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Region) -> bool {
        self.assert_same_grid(other);
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Insert every cell of the half-open **raw id** range, with
    /// whole-word stores. Idempotent. The run-based counterpart of
    /// [`insert`](Self::insert) for consumers that work in flat cell-id
    /// space (e.g. a counting sweep over a per-cell array) rather than
    /// (row, column) coordinates — see [`insert_run`](Self::insert_run)
    /// for the row-addressed variant.
    pub fn insert_id_run(&mut self, range: std::ops::Range<CellId>) {
        let mut added = 0u32;
        self.for_each_word_in_range(range.start, range.end, |w, mask| {
            added += (mask & !*w).count_ones();
            *w |= mask;
        });
        self.count += added;
    }

    /// The rows from the first that holds a member cell to the last,
    /// as a half-open range; `0..0` for the empty region.
    ///
    /// Found by scanning words in from both ends, so it costs the words
    /// outside the band, not the region's cells. A per-row query over a
    /// small region (a constraint tested against a baseline region, a
    /// counting sweep over a baseline mask) visits only these rows:
    /// every other row is empty by construction.
    pub fn row_band(&self) -> std::ops::Range<u32> {
        let Some(first) = self.bits.iter().position(|&w| w != 0) else {
            return 0..0;
        };
        let last = self
            .bits
            .iter()
            .rposition(|&w| w != 0)
            .expect("a nonzero word");
        let first_cell = first as u32 * 64 + self.bits[first].trailing_zeros();
        let last_cell = last as u32 * 64 + 63 - self.bits[last].leading_zeros();
        let cols = self.grid.cols();
        first_cell / cols..last_cell / cols + 1
    }

    /// Iterate the region as maximal runs of consecutive member cells,
    /// each a half-open `lo..hi` id range, in ascending order.
    ///
    /// This is the structure-of-arrays access pattern for hot loops:
    /// instead of extracting member cells bit by bit and branching per
    /// cell, a consumer slices its per-cell data by `[lo, hi)` and
    /// iterates words of contiguous memory. Cost is proportional to the
    /// word count plus the run count, never the member count.
    pub fn runs(&self) -> RegionRuns<'_> {
        RegionRuns {
            bits: &self.bits,
            pos: 0,
            limit: self.grid.num_cells(),
        }
    }

    /// Iterate over member cells in ascending id order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros();
                    word &= word - 1;
                    Some((w as u32) * 64 + b)
                }
            })
        })
    }

    /// Total spherical area of the region in km².
    pub fn area_km2(&self) -> f64 {
        self.cells().map(|c| self.grid.cell_area_km2(c)).sum()
    }

    /// Area-weighted centroid, or `None` for an empty region (or the
    /// pathological case of cells perfectly cancelling, e.g. two antipodal
    /// cells).
    pub fn centroid(&self) -> Option<GeoPoint> {
        if self.is_empty() {
            return None;
        }
        let mut acc = [0.0f64; 3];
        for cell in self.cells() {
            let v = self.grid.center(cell).to_unit_vector();
            let w = self.grid.cell_area_km2(cell);
            acc[0] += v[0] * w;
            acc[1] += v[1] * w;
            acc[2] += v[2] * w;
        }
        GeoPoint::from_vector(acc)
    }

    /// Great-circle distance from `p` to the nearest cell centre of the
    /// region; 0 if `p`'s cell is in the region. `None` if empty.
    ///
    /// This is the paper's Fig. 9 panel A metric ("distance from edge to
    /// location"): how far outside the predicted region the true location
    /// lies.
    pub fn distance_from_km(&self, p: &GeoPoint) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        if self.contains_point(p) {
            return Some(0.0);
        }
        let mut best = f64::INFINITY;
        for cell in self.cells() {
            let d = p.distance_km(&self.grid.center(cell));
            if d < best {
                best = d;
            }
        }
        Some(best)
    }
}

/// Iterator over a region's maximal runs of consecutive member cells
/// (see [`Region::runs`]).
pub struct RegionRuns<'a> {
    bits: &'a [u64],
    /// Next bit position to examine.
    pos: u32,
    /// One past the last valid cell id.
    limit: u32,
}

impl RegionRuns<'_> {
    /// First position `>= from` whose bit matches `target` (set bits
    /// when `target`, clear bits otherwise), or `None`/`limit` when the
    /// scan runs off the end.
    fn scan_from(&self, from: u32, target_set: bool) -> u32 {
        let mut w = (from / 64) as usize;
        if w >= self.bits.len() {
            return self.limit;
        }
        // Mask off bits below `from` in the first word; invert for
        // clear-bit scans so trailing_zeros finds the target either way.
        let flip = if target_set { 0 } else { !0u64 };
        let mut word = (self.bits[w] ^ flip) & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let bit = (w as u32) * 64 + word.trailing_zeros();
                return bit.min(self.limit);
            }
            w += 1;
            if w >= self.bits.len() {
                return self.limit;
            }
            word = self.bits[w] ^ flip;
        }
    }
}

impl Iterator for RegionRuns<'_> {
    type Item = std::ops::Range<CellId>;

    fn next(&mut self) -> Option<std::ops::Range<CellId>> {
        if self.pos >= self.limit {
            return None;
        }
        let start = self.scan_from(self.pos, true);
        if start >= self.limit {
            self.pos = self.limit;
            return None;
        }
        let end = self.scan_from(start + 1, false);
        self.pos = end;
        Some(start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Arc<GeoGrid> {
        GeoGrid::new(2.0)
    }

    #[test]
    fn empty_and_full() {
        let g = grid();
        let e = Region::empty(Arc::clone(&g));
        assert!(e.is_empty());
        assert_eq!(e.cell_count(), 0);
        assert_eq!(e.area_km2(), 0.0);
        assert!(e.centroid().is_none());
        let f = Region::full(Arc::clone(&g));
        assert_eq!(f.cell_count(), g.num_cells());
        let sphere = 4.0 * std::f64::consts::PI * crate::EARTH_RADIUS_KM * crate::EARTH_RADIUS_KM;
        assert!((f.area_km2() - sphere).abs() / sphere < 1e-9);
    }

    #[test]
    fn insert_remove_idempotent() {
        let g = grid();
        let mut r = Region::empty(g);
        r.insert(10);
        r.insert(10);
        assert_eq!(r.cell_count(), 1);
        r.remove_run(0, 10..11);
        r.remove_run(0, 10..11);
        assert_eq!(r.cell_count(), 0);
    }

    #[test]
    fn intersection_of_overlapping_caps() {
        let g = grid();
        let a = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(50.0, 0.0), 1500.0));
        let b = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(50.0, 10.0), 1500.0));
        let i = a.intersection(&b);
        assert!(!i.is_empty());
        assert!(i.cell_count() < a.cell_count());
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(a.intersects(&b));
    }

    #[test]
    fn disjoint_caps_do_not_intersect() {
        let g = grid();
        let a = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(50.0, 0.0), 500.0));
        let b = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(-50.0, 180.0), 500.0));
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_empty());
    }

    #[test]
    fn subtract_complement() {
        let g = grid();
        let a = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(0.0, 0.0), 2000.0));
        let b = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(0.0, 0.0), 1000.0));
        let mut ring = a.clone();
        ring.subtract(&b);
        assert_eq!(ring.cell_count(), a.cell_count() - b.cell_count());
        assert!(!ring.intersects(&b));
    }

    #[test]
    fn ring_region_excludes_inner_disk() {
        let g = grid();
        let center = GeoPoint::new(40.0, -100.0);
        let ring = Region::from_ring(&g, center, 1000.0, 2500.0);
        assert!(!ring.contains_point(&center));
        assert!(!ring.contains_point(&center.destination(90.0, 500.0)));
        assert!(ring.contains_point(&center.destination(90.0, 1700.0)));
        assert!(!ring.contains_point(&center.destination(90.0, 3000.0)));
    }

    #[test]
    fn centroid_of_cap_is_near_center() {
        let g = GeoGrid::new(0.5);
        let c = GeoPoint::new(48.0, 11.0);
        let r = Region::from_cap(&g, &SphericalCap::new(c, 800.0));
        let centroid = r.centroid().unwrap();
        assert!(c.distance_km(&centroid) < 40.0, "centroid {centroid}");
    }

    #[test]
    fn centroid_across_antimeridian() {
        let g = GeoGrid::new(0.5);
        let c = GeoPoint::new(0.0, 179.5);
        let r = Region::from_cap(&g, &SphericalCap::new(c, 600.0));
        let centroid = r.centroid().unwrap();
        // Naive lat/lon averaging would put this near lon 0; vector
        // averaging keeps it at the antimeridian.
        assert!(c.distance_km(&centroid) < 60.0, "centroid {centroid}");
    }

    #[test]
    fn distance_from_region() {
        let g = GeoGrid::new(1.0);
        let c = GeoPoint::new(50.0, 10.0);
        let r = Region::from_cap(&g, &SphericalCap::new(c, 500.0));
        assert_eq!(r.distance_from_km(&c), Some(0.0));
        let far = c.destination(0.0, 2000.0);
        let d = r.distance_from_km(&far).unwrap();
        assert!((d - 1500.0).abs() < 120.0, "got {d}");
        assert_eq!(Region::empty(g).distance_from_km(&c), None);
    }

    #[test]
    fn run_ops_match_per_cell_ops() {
        let g = grid();
        let cols = g.cols();
        // Runs chosen to exercise word boundaries: within one word,
        // spanning two, whole row, and single-cell.
        let cases: &[(u32, std::ops::Range<u32>)] = &[
            (0, 3..17),
            (1, 60..70),
            (2, 0..cols),
            (3, 63..64),
            (45, 10..138),
            (89, 0..1),
        ];
        let mut by_runs = Region::empty(Arc::clone(&g));
        let mut by_cells = Region::empty(Arc::clone(&g));
        for (row, run) in cases {
            by_runs.insert_run(*row, run.clone());
            for c in run.clone() {
                by_cells.insert(row * cols + c);
            }
        }
        assert_eq!(by_runs, by_cells);
        for (row, run) in cases {
            assert!(by_runs.intersects_run(*row, run.clone()));
        }
        assert!(!by_runs.intersects_run(4, 0..cols));
        // Removal undoes insertion.
        for (row, run) in cases {
            by_runs.remove_run(*row, run.clone());
        }
        assert!(by_runs.is_empty());
    }

    #[test]
    fn insert_run_is_idempotent_on_count() {
        let g = grid();
        let mut r = Region::empty(g);
        r.insert_run(5, 20..90);
        assert_eq!(r.cell_count(), 70);
        r.insert_run(5, 50..120); // overlaps [50, 90)
        assert_eq!(r.cell_count(), 100);
        r.remove_run(5, 0..40); // only [20, 40) present
        assert_eq!(r.cell_count(), 80);
    }

    #[test]
    fn runs_group_cells_exactly() {
        let g = grid();
        // Word-boundary torture: runs within a word, spanning words,
        // adjacent runs separated by one cell, and a single trailing bit.
        let mut r = Region::empty(Arc::clone(&g));
        for range in [5u32..17, 60..70, 71..72, 128..256, 300..301] {
            r.insert_id_run(range);
        }
        let runs: Vec<std::ops::Range<CellId>> = r.runs().collect();
        assert_eq!(runs, vec![5..17, 60..70, 71..72, 128..256, 300..301]);
        // The runs must partition cells(): same members, same order.
        let from_runs: Vec<CellId> = r.runs().flatten().collect();
        let from_cells: Vec<CellId> = r.cells().collect();
        assert_eq!(from_runs, from_cells);
        assert_eq!(
            r.runs().map(|run| run.len() as u32).sum::<u32>(),
            r.cell_count()
        );
    }

    #[test]
    fn runs_of_caps_and_extremes() {
        let g = grid();
        assert_eq!(Region::empty(Arc::clone(&g)).runs().count(), 0);
        let full = Region::full(Arc::clone(&g));
        let runs: Vec<_> = full.runs().collect();
        assert_eq!(runs, vec![0..g.num_cells()], "full region is one run");
        let cap = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(10.0, 20.0), 900.0));
        let from_runs: Vec<CellId> = cap.runs().flatten().collect();
        assert_eq!(from_runs, cap.cells().collect::<Vec<_>>());
        for w in cap.runs().collect::<Vec<_>>().windows(2) {
            assert!(w[0].end < w[1].start, "runs must be maximal and ordered");
        }
    }

    /// The band by definition: the least and greatest row of any cell.
    fn band_by_cells(r: &Region) -> std::ops::Range<u32> {
        let cols = r.grid().cols();
        match (r.cells().next(), r.cells().last()) {
            (Some(a), Some(b)) => a / cols..b / cols + 1,
            _ => 0..0,
        }
    }

    #[test]
    fn row_band_of_empty_and_full() {
        let g = grid();
        assert_eq!(Region::empty(Arc::clone(&g)).row_band(), 0..0);
        assert_eq!(Region::full(Arc::clone(&g)).row_band(), 0..g.rows());
    }

    #[test]
    fn row_band_of_single_cells_at_the_grid_edges() {
        let g = grid();
        let last = g.num_cells() - 1;
        // First cell, last cell, both ends of a middle row, and cells
        // on either side of a word boundary.
        for cell in [
            0,
            g.cols() - 1,
            g.cols(),
            63,
            64,
            5 * g.cols() + 17,
            last - 1,
            last,
        ] {
            let mut r = Region::empty(Arc::clone(&g));
            r.insert(cell);
            let row = cell / g.cols();
            assert_eq!(r.row_band(), row..row + 1, "cell {cell}");
        }
    }

    #[test]
    fn row_band_spans_gaps_and_matches_the_cells() {
        let g = grid();
        let mut r = Region::empty(Arc::clone(&g));
        r.insert_run(3, 170..180);
        r.insert_run(60, 0..1);
        assert_eq!(r.row_band(), 3..61, "rows between two runs are inside");
        for (centre, km) in [
            ((48.0, 11.0), 900.0),
            ((-89.0, 0.0), 400.0),
            ((10.0, 179.5), 2500.0),
        ] {
            let cap = Region::from_cap(
                &g,
                &SphericalCap::new(GeoPoint::new(centre.0, centre.1), km),
            );
            assert_eq!(cap.row_band(), band_by_cells(&cap), "cap at {centre:?}");
        }
    }

    #[test]
    fn insert_id_run_matches_per_cell_insert() {
        let g = grid();
        let mut by_run = Region::empty(Arc::clone(&g));
        let mut by_cell = Region::empty(Arc::clone(&g));
        for range in [0u32..1, 3..64, 64..128, 100..231, 250..250] {
            by_run.insert_id_run(range.clone());
            for c in range {
                by_cell.insert(c);
            }
        }
        assert_eq!(by_run, by_cell);
        assert_eq!(by_run.cell_count(), by_cell.cell_count());
        // Idempotent on overlap.
        let before = by_run.cell_count();
        by_run.insert_id_run(3..64);
        assert_eq!(by_run.cell_count(), before);
    }

    #[test]
    fn cells_iterator_matches_membership() {
        let g = grid();
        let r = Region::from_cap(&g, &SphericalCap::new(GeoPoint::new(10.0, 20.0), 900.0));
        let listed: Vec<CellId> = r.cells().collect();
        assert_eq!(listed.len() as u32, r.cell_count());
        for c in &listed {
            assert!(r.contains_cell(*c));
        }
        let mut sorted = listed.clone();
        sorted.sort_unstable();
        assert_eq!(listed, sorted, "cells() must iterate in ascending order");
    }
}
