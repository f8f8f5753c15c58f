//! The global equal-angle grid that all prediction regions live on.
//!
//! Multilateration needs set algebra over regions of the Earth's surface:
//! intersect this disk with that disk, mask out the oceans, measure the
//! area that remains, ask which countries it touches. Doing this with exact
//! spherical polygons is an enormous amount of computational-geometry
//! machinery for no benefit at the paper's scales (regions of interest are
//! ≥ 1000 km²). Instead we rasterize everything onto a fixed global grid of
//! `resolution_deg` × `resolution_deg` cells and represent regions as
//! bitsets ([`crate::Region`]).
//!
//! A cell is considered part of a shape iff its **centre** is inside the
//! shape. At the default 0.25° resolution a cell is ≤ 28 km across, well
//! below the uncertainty of any delay-derived distance bound.

use crate::point::GeoPoint;
use crate::shapes::SphericalCap;
use crate::EARTH_RADIUS_KM;
use std::sync::{Arc, OnceLock};

/// Identifier of one grid cell: `row * cols + col`, row 0 at 90°S.
pub type CellId = u32;

/// A global equal-angle latitude/longitude grid.
///
/// Construct once (cheap) and share via [`Arc`]; every [`crate::Region`]
/// holds an `Arc<GeoGrid>` so regions know their own geometry and can refuse
/// set operations across mismatched grids.
#[derive(Debug)]
pub struct GeoGrid {
    resolution_deg: f64,
    rows: u32,
    cols: u32,
    /// Spherical area of one cell in each latitude row, km².
    row_area_km2: Vec<f64>,
    /// Lazily built per-row / per-column trig of cell centres (see
    /// [`GeoGrid::trig`]).
    trig: OnceLock<GridTrig>,
}

impl GeoGrid {
    /// Build a grid with the given cell edge length in degrees.
    ///
    /// The resolution must divide 180 evenly (0.25, 0.5, 1.0, 2.0, …) so the
    /// grid tiles the sphere exactly.
    ///
    /// # Panics
    /// Panics if `resolution_deg` is not in `(0, 30]` or does not evenly
    /// divide 180.
    pub fn new(resolution_deg: f64) -> Arc<GeoGrid> {
        assert!(
            resolution_deg > 0.0 && resolution_deg <= 30.0,
            "grid resolution must be in (0, 30] degrees, got {resolution_deg}"
        );
        let rows_f = 180.0 / resolution_deg;
        assert!(
            (rows_f - rows_f.round()).abs() < 1e-9,
            "grid resolution {resolution_deg}° must evenly divide 180°"
        );
        let rows = rows_f.round() as u32;
        let cols = rows * 2;
        let mut row_area_km2 = Vec::with_capacity(rows as usize);
        let dlon_rad = resolution_deg.to_radians();
        for r in 0..rows {
            let south = (-90.0 + f64::from(r) * resolution_deg).to_radians();
            let north = (-90.0 + f64::from(r + 1) * resolution_deg).to_radians();
            let area = EARTH_RADIUS_KM * EARTH_RADIUS_KM * dlon_rad * (north.sin() - south.sin());
            row_area_km2.push(area);
        }
        Arc::new(GeoGrid {
            resolution_deg,
            rows,
            cols,
            row_area_km2,
            trig: OnceLock::new(),
        })
    }

    /// Cell edge length in degrees.
    #[inline]
    pub fn resolution_deg(&self) -> f64 {
        self.resolution_deg
    }

    /// Number of latitude rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of longitude columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> u32 {
        self.rows * self.cols
    }

    /// The cell containing a point.
    pub fn cell_of(&self, p: &GeoPoint) -> CellId {
        let row = (((p.lat() + 90.0) / self.resolution_deg) as u32).min(self.rows - 1);
        let col = (((p.lon() + 180.0) / self.resolution_deg) as u32).min(self.cols - 1);
        row * self.cols + col
    }

    /// Decompose a cell id into (row, col).
    #[inline]
    pub fn row_col(&self, cell: CellId) -> (u32, u32) {
        (cell / self.cols, cell % self.cols)
    }

    /// Centre point of a cell.
    pub fn center(&self, cell: CellId) -> GeoPoint {
        let (row, col) = self.row_col(cell);
        GeoPoint::new(
            -90.0 + (f64::from(row) + 0.5) * self.resolution_deg,
            -180.0 + (f64::from(col) + 0.5) * self.resolution_deg,
        )
    }

    /// Spherical area of a cell in km².
    #[inline]
    pub fn cell_area_km2(&self, cell: CellId) -> f64 {
        self.row_area_km2[(cell / self.cols) as usize]
    }

    /// Invoke `f(cell)` for every cell whose centre lies inside the cap.
    ///
    /// Runs in time proportional to the number of rows the cap's latitude
    /// band touches plus the number of cells visited: for each row, the
    /// in-cap columns form one (possibly antimeridian-wrapping) contiguous
    /// run that is computed in closed form from the spherical law of
    /// cosines ([`CapRaster`]), not by scanning all columns.
    pub fn for_each_cell_in_cap<F: FnMut(CellId)>(&self, cap: &SphericalCap, mut f: F) {
        let (raster, trig) = (CapRaster::new(self, cap), self.trig());
        let n = i64::from(self.cols);
        for row in raster.rows() {
            let base = row * self.cols;
            match raster.row_span(trig, row) {
                RowSpan::Empty => {}
                RowSpan::Full => {
                    for col in 0..self.cols {
                        f(base + col);
                    }
                }
                RowSpan::Arc { lo, hi } => {
                    // Preserve the historical wrap-order emission
                    // (lo..=hi in unwrapped column space).
                    for c in lo..=hi {
                        f(base + c.rem_euclid(n) as u32);
                    }
                }
            }
        }
    }

    /// Invoke `f(row, col_lo..col_hi)` for every maximal horizontal run
    /// of cells whose centres lie inside the cap.
    ///
    /// Runs are non-wrapping, half-open column ranges in ascending
    /// column order; a row whose in-cap arc crosses the antimeridian
    /// yields two runs. This is the word-level entry point: the run
    /// `(row, lo..hi)` covers the contiguous cell ids
    /// `row * cols + lo .. row * cols + hi`, which
    /// [`crate::Region::insert_run`] fills with whole-`u64` stores.
    pub fn for_each_run_in_cap<F: FnMut(u32, std::ops::Range<u32>)>(
        &self,
        cap: &SphericalCap,
        mut f: F,
    ) {
        let (raster, trig) = (CapRaster::new(self, cap), self.trig());
        for row in raster.rows() {
            raster.row_runs(trig, row, |lo, hi| f(row, lo..hi));
        }
    }

    /// Iterate over all cell ids.
    pub fn all_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        0..self.num_cells()
    }

    /// The grid's cell-centre trig tables, built on first use and cached
    /// for the grid's lifetime. Bulk per-cell distance evaluation (the
    /// Bayesian posterior visits every mask cell for every landmark)
    /// uses these to replace a full haversine per pair with a few cached
    /// multiplies and one `acos`.
    pub fn trig(&self) -> &GridTrig {
        self.trig.get_or_init(|| {
            let mut row_sin = Vec::with_capacity(self.rows as usize);
            let mut row_cos = Vec::with_capacity(self.rows as usize);
            for r in 0..self.rows {
                let lat = (-90.0 + (f64::from(r) + 0.5) * self.resolution_deg).to_radians();
                row_sin.push(lat.sin());
                row_cos.push(lat.cos());
            }
            let mut col_sin = Vec::with_capacity(self.cols as usize);
            let mut col_cos = Vec::with_capacity(self.cols as usize);
            for c in 0..self.cols {
                let lon = (-180.0 + (f64::from(c) + 0.5) * self.resolution_deg).to_radians();
                col_sin.push(lon.sin());
                col_cos.push(lon.cos());
            }
            let row_inv_cos = row_cos.iter().map(|c| 1.0 / c).collect();
            GridTrig {
                cols: self.cols,
                row_sin,
                row_cos,
                row_inv_cos,
                col_sin,
                col_cos,
                cols_per_rad: 180.0 / std::f64::consts::PI / self.resolution_deg,
                full_half_cols: (180.0 - 1e-9) / self.resolution_deg,
            }
        })
    }
}

/// Precomputed sines/cosines of every cell-centre latitude and
/// longitude of a grid (see [`GeoGrid::trig`]).
#[derive(Debug)]
pub struct GridTrig {
    cols: u32,
    row_sin: Vec<f64>,
    row_cos: Vec<f64>,
    /// `1 / row_cos`: cap rasterization trades its per-row division for
    /// a multiply (cell-centre latitudes never reach ±90°, so every
    /// entry is finite).
    row_inv_cos: Vec<f64>,
    col_sin: Vec<f64>,
    col_cos: Vec<f64>,
    /// Columns per radian of longitude offset: a cap's `acos(·)` half
    /// width in radians times this is its arc half-width in columns.
    cols_per_rad: f64,
    /// Column half-width at which a cap's row counts as
    /// [`RowSpan::Full`] (the old `dlon ≥ 180° − 1e-9` test, in column
    /// units).
    full_half_cols: f64,
}

/// A fixed point prepared for repeated cell-distance queries: its trig
/// is evaluated once, not once per cell.
#[derive(Debug, Clone, Copy)]
pub struct PointTrig {
    sin_lat: f64,
    cos_lat: f64,
    sin_lon: f64,
    cos_lon: f64,
}

impl PointTrig {
    /// Prepare `p` for [`GridTrig::distance_to_cell_km`] queries.
    pub fn new(p: &GeoPoint) -> PointTrig {
        let (lat, lon) = (p.lat().to_radians(), p.lon().to_radians());
        PointTrig {
            sin_lat: lat.sin(),
            cos_lat: lat.cos(),
            sin_lon: lon.sin(),
            cos_lon: lon.cos(),
        }
    }
}

impl GridTrig {
    /// Great-circle distance from `p` to the centre of `cell`, km, by
    /// the spherical law of cosines over cached trig. Agrees with
    /// [`GeoPoint::distance_km`] to within ~1e-4 km (the `acos`
    /// formulation loses precision only for near-coincident points,
    /// where the absolute error stays below grid noise).
    #[inline]
    pub fn distance_to_cell_km(&self, p: &PointTrig, cell: CellId) -> f64 {
        let (row, col) = ((cell / self.cols) as usize, (cell % self.cols) as usize);
        let cos_dlon = self.col_cos[col] * p.cos_lon + self.col_sin[col] * p.sin_lon;
        let cos_d = p.sin_lat * self.row_sin[row] + p.cos_lat * self.row_cos[row] * cos_dlon;
        EARTH_RADIUS_KM * cos_d.clamp(-1.0, 1.0).acos()
    }
}

/// The in-cap columns of one grid row, in closed form.
///
/// `Arc { lo, hi }` is an **inclusive** interval in *unwrapped* column
/// space: member columns are `c.rem_euclid(cols)` for `c` in `lo..=hi`,
/// and `hi - lo + 1 < cols` (a complete row is reported as `Full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSpan {
    /// No cell centre of this row lies in the cap.
    Empty,
    /// Every cell centre of this row lies in the cap.
    Full,
    /// The centres within the cap form this contiguous arc of columns.
    Arc {
        /// First unwrapped column (inclusive; may be negative).
        lo: i64,
        /// Last unwrapped column (inclusive; may exceed `cols - 1`).
        hi: i64,
    },
}

/// The per-row closed-form rasterization of one spherical cap: the
/// spherical law of cosines solved for the maximum longitude offset at
/// each latitude row. Constructing one costs three trig calls; each
/// [`row_span`](CapRaster::row_span) costs one `acos`.
///
/// The raster owns only the cap's own numbers and its grid's column
/// count (56 bytes) and reads the grid's cell-centre trig, passed in as
/// a [`GridTrig`], when it evaluates a row. Debug builds check that the
/// trig has the raster's column count, so trig from a grid of another
/// resolution is caught there. It is the primitive beneath
/// [`GeoGrid::for_each_cell_in_cap`] and [`GeoGrid::for_each_run_in_cap`];
/// the multilateration engine also uses it directly to intersect many
/// caps row-by-row without materializing per-cap regions, and its disk
/// cache stores these closed forms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapRaster {
    cos_r: f64,
    sin_lat_c: f64,
    cos_lat_c: f64,
    /// `1 / cos_lat_c` (∞ for a cap centred exactly on a pole — the
    /// pole branch of `row_span` fires before it is used).
    inv_cos_lat_c: f64,
    /// Cap centre in fractional column coordinates.
    center_col: f64,
    row_lo: u32,
    row_hi: u32,
    /// The grid's column count: `row_span` checks its trig against it.
    cols: u32,
}

impl CapRaster {
    /// Set up the closed-form rasterization of `cap` on `grid`. Evaluate
    /// its rows with `grid.trig()`.
    pub fn new(grid: &GeoGrid, cap: &SphericalCap) -> CapRaster {
        let angular_r = (cap.radius_km / EARTH_RADIUS_KM).min(std::f64::consts::PI);
        let lat_c = cap.center.lat().to_radians();
        let dlat = angular_r.to_degrees();
        let row_lo = (((cap.center.lat() - dlat + 90.0) / grid.resolution_deg)
            .floor()
            .max(0.0)) as u32;
        let row_hi = (((cap.center.lat() + dlat + 90.0) / grid.resolution_deg).ceil())
            .min(f64::from(grid.rows)) as u32;
        let cos_lat_c = lat_c.cos();
        CapRaster {
            cos_r: angular_r.cos(),
            sin_lat_c: lat_c.sin(),
            cos_lat_c,
            inv_cos_lat_c: 1.0 / cos_lat_c,
            center_col: (cap.center.lon() + 180.0) / grid.resolution_deg - 0.5,
            row_lo,
            row_hi,
            cols: grid.cols,
        }
    }

    /// The rows the cap's latitude band touches (rows outside this range
    /// are trivially [`RowSpan::Empty`]).
    pub fn rows(&self) -> std::ops::Range<u32> {
        self.row_lo..self.row_hi
    }

    /// The in-cap column span of `row`, over `trig`, the trig of the
    /// grid the raster was set up on.
    pub fn row_span(&self, trig: &GridTrig, row: u32) -> RowSpan {
        debug_assert_eq!(self.cols, trig.cols, "trig of another grid");
        if row < self.row_lo || row >= self.row_hi {
            return RowSpan::Empty;
        }
        if self.cos_r == -1.0 {
            // A radius clamped to π holds the whole sphere. Solving for
            // the half-width would round the antipodal row's `cos Δλ`
            // just above −1 and leave its antipodal cell out.
            return RowSpan::Full;
        }
        let (sin_lat, cos_lat) = (trig.row_sin[row as usize], trig.row_cos[row as usize]);
        // cos(d) = sin φc sin φ + cos φc cos φ cos Δλ  ⇒
        // cos Δλ = (cos r − sin φc sin φ) / (cos φc cos φ)
        // The division is two reciprocal multiplies: 1/cos φc is cached
        // on the raster, 1/cos φ in the grid's trig tables.
        let denom = self.cos_lat_c * cos_lat;
        let half_cols = if denom.abs() < 1e-12 {
            // Either the cap centre or this row is at a pole: the row is
            // entirely in or out, decided by the latitude difference.
            if self.sin_lat_c * sin_lat >= self.cos_r {
                return RowSpan::Full;
            }
            return RowSpan::Empty;
        } else {
            let cos_dlon = (self.cos_r - self.sin_lat_c * sin_lat)
                * self.inv_cos_lat_c
                * trig.row_inv_cos[row as usize];
            if cos_dlon > 1.0 {
                return RowSpan::Empty;
            } else if cos_dlon < -1.0 {
                return RowSpan::Full;
            }
            cos_dlon.acos() * trig.cols_per_rad
        };
        if half_cols >= trig.full_half_cols {
            return RowSpan::Full;
        }
        let lo = (self.center_col - half_cols).ceil() as i64;
        let hi = (self.center_col + half_cols).floor() as i64;
        if lo > hi {
            return RowSpan::Empty;
        }
        if hi - lo + 1 >= i64::from(trig.cols) {
            return RowSpan::Full;
        }
        RowSpan::Arc { lo, hi }
    }

    /// Emit `row`'s span as maximal non-wrapping half-open column runs,
    /// in ascending column order (`f(col_lo, col_hi)` with
    /// `col_lo < col_hi`). A wrapping arc yields two runs.
    pub fn row_runs<F: FnMut(u32, u32)>(&self, trig: &GridTrig, row: u32, mut f: F) {
        let cols = i64::from(trig.cols);
        match self.row_span(trig, row) {
            RowSpan::Empty => {}
            RowSpan::Full => f(0, trig.cols),
            RowSpan::Arc { lo, hi } => {
                let l = lo.rem_euclid(cols);
                let h = l + (hi - lo); // inclusive, < 2*cols
                if h < cols {
                    f(l as u32, (h + 1) as u32);
                } else {
                    // Wraps: [l, cols) and [0, h - cols]; ascending order.
                    f(0, (h - cols + 1) as u32);
                    f(l as u32, cols as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions() {
        let g = GeoGrid::new(1.0);
        assert_eq!(g.rows(), 180);
        assert_eq!(g.cols(), 360);
        assert_eq!(g.num_cells(), 64800);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn non_dividing_resolution_panics() {
        GeoGrid::new(0.7);
    }

    #[test]
    fn cell_of_center_round_trip() {
        let g = GeoGrid::new(0.5);
        for (lat, lon) in [(0.0, 0.0), (51.3, -0.4), (-89.9, 179.9), (89.9, -180.0)] {
            let p = GeoPoint::new(lat, lon);
            let cell = g.cell_of(&p);
            let c = g.center(cell);
            assert!((c.lat() - lat).abs() <= 0.25 + 1e-9, "{lat} vs {}", c.lat());
            assert!(
                crate::angle::lon_delta(c.lon(), lon) <= 0.25 + 1e-9,
                "{lon} vs {}",
                c.lon()
            );
            // The centre of a cell must map back to the same cell.
            assert_eq!(g.cell_of(&c), cell);
        }
    }

    #[test]
    fn total_area_is_sphere() {
        let g = GeoGrid::new(2.0);
        let total: f64 = g.all_cells().map(|c| g.cell_area_km2(c)).sum();
        let sphere = 4.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;
        assert!((total - sphere).abs() / sphere < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "trig of another grid")]
    fn a_raster_rejects_the_trig_of_another_grid() {
        let cap = SphericalCap::new(GeoPoint::new(10.0, 20.0), 500.0);
        let raster = CapRaster::new(&GeoGrid::new(2.0), &cap);
        raster.row_span(GeoGrid::new(1.0).trig(), 50);
    }

    #[test]
    fn cap_rasterization_matches_brute_force() {
        let g = GeoGrid::new(2.0);
        for (lat, lon, r) in [
            (50.0, 10.0, 800.0),
            (0.0, 0.0, 3000.0),
            (-40.0, 175.0, 1500.0), // wraps the antimeridian
            (85.0, 0.0, 1200.0),    // polar
        ] {
            let cap = SphericalCap::new(GeoPoint::new(lat, lon), r);
            let mut fast = Vec::new();
            g.for_each_cell_in_cap(&cap, |c| fast.push(c));
            fast.sort_unstable();
            let brute: Vec<CellId> = g
                .all_cells()
                .filter(|&c| cap.contains(&g.center(c)))
                .collect();
            assert_eq!(fast, brute, "cap at ({lat},{lon}) r={r}");
        }
    }

    #[test]
    fn cap_rasterized_area_approximates_cap_area() {
        let g = GeoGrid::new(0.5);
        let cap = SphericalCap::new(GeoPoint::new(30.0, 40.0), 1000.0);
        let mut area = 0.0;
        g.for_each_cell_in_cap(&cap, |c| area += g.cell_area_km2(c));
        let exact = cap.area_km2();
        assert!(
            (area - exact).abs() / exact < 0.02,
            "raster {area} vs exact {exact}"
        );
    }

    #[test]
    fn whole_earth_cap_covers_all_cells() {
        let g = GeoGrid::new(5.0);
        let cap = SphericalCap::new(GeoPoint::new(12.0, 34.0), crate::MAX_GC_DISTANCE_KM);
        let mut n = 0u32;
        g.for_each_cell_in_cap(&cap, |_| n += 1);
        assert_eq!(n, g.num_cells());
        // Centred on a cell centre, the antipodal cell is the one a
        // half-width solve can drop: every such cap must still hold it.
        for res in [0.5, 1.0, 2.0] {
            let g = GeoGrid::new(res);
            for cell in (0..g.num_cells()).step_by(g.num_cells() as usize / 41) {
                let cap = SphericalCap::new(g.center(cell), 21_000.0);
                let mut n = 0u32;
                g.for_each_run_in_cap(&cap, |_, cols| n += cols.len() as u32);
                assert_eq!(n, g.num_cells(), "cell {cell} at {res}°");
            }
        }
    }

    #[test]
    fn runs_flatten_to_the_same_cells() {
        let g = GeoGrid::new(2.0);
        for (lat, lon, r) in [
            (50.0, 10.0, 800.0),
            (0.0, 0.0, 3000.0),
            (-40.0, 175.0, 1500.0),                  // wraps the antimeridian
            (85.0, 0.0, 1200.0),                     // polar
            (12.0, 34.0, crate::MAX_GC_DISTANCE_KM), // whole earth
        ] {
            let cap = SphericalCap::new(GeoPoint::new(lat, lon), r);
            let mut from_runs = Vec::new();
            g.for_each_run_in_cap(&cap, |row, cols| {
                assert!(cols.start < cols.end, "empty run emitted");
                assert!(cols.end <= g.cols());
                for c in cols {
                    from_runs.push(row * g.cols() + c);
                }
            });
            let mut from_cells = Vec::new();
            g.for_each_cell_in_cap(&cap, |c| from_cells.push(c));
            from_cells.sort_unstable();
            assert_eq!(from_runs, from_cells, "cap at ({lat},{lon}) r={r}");
        }
    }

    #[test]
    fn runs_within_a_row_are_ascending_and_disjoint() {
        let g = GeoGrid::new(1.0);
        let cap = SphericalCap::new(GeoPoint::new(-30.0, 179.0), 2000.0);
        let mut per_row: std::collections::HashMap<u32, Vec<std::ops::Range<u32>>> =
            std::collections::HashMap::new();
        g.for_each_run_in_cap(&cap, |row, cols| per_row.entry(row).or_default().push(cols));
        for (row, runs) in per_row {
            for pair in runs.windows(2) {
                assert!(
                    pair[0].end < pair[1].start,
                    "row {row}: runs {pair:?} overlap or touch"
                );
            }
        }
    }

    #[test]
    fn trig_distance_matches_haversine() {
        let g = GeoGrid::new(2.0);
        let trig = g.trig();
        for (lat, lon) in [(0.0, 0.0), (51.3, -0.4), (-67.0, 143.0), (89.0, -179.0)] {
            let p = GeoPoint::new(lat, lon);
            let pt = PointTrig::new(&p);
            for cell in (0..g.num_cells()).step_by(97) {
                let exact = p.distance_km(&g.center(cell));
                let fast = trig.distance_to_cell_km(&pt, cell);
                assert!(
                    (exact - fast).abs() < 1e-3,
                    "cell {cell}: haversine {exact} vs trig {fast}"
                );
            }
        }
    }

    #[test]
    fn zero_radius_cap_covers_at_most_one_cell() {
        let g = GeoGrid::new(1.0);
        let cap = SphericalCap::new(GeoPoint::new(10.5, 20.5), 0.0);
        let mut cells = Vec::new();
        g.for_each_cell_in_cap(&cap, |c| cells.push(c));
        // The cap centre happens to be exactly a cell centre here.
        assert_eq!(cells, vec![g.cell_of(&GeoPoint::new(10.5, 20.5))]);
    }
}
