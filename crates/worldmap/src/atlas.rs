//! The queryable world atlas: a painted cell→country map on a shared grid,
//! the land mask, and the geolocation plausibility mask.
//!
//! Construction paints country outlines onto the grid in descending area
//! order, so smaller territories override larger ones wherever coarse
//! outlines overlap (enclaves, shared borders). That painted map is the
//! *canonical* country assignment everywhere in the project: both country
//! membership of a prediction region and "which country is this host in"
//! are answered from it, so the study is self-consistent at grid
//! resolution.

use crate::continent::Continent;
use crate::country::{Country, CountryId};
use crate::data::all_countries;
use crate::{MAX_PLAUSIBLE_LAT, MIN_PLAUSIBLE_LAT};
use geokit::grid::CellId;
use geokit::{GeoGrid, GeoPoint, Region};
use simrng::{Rng, RngExt};
use std::sync::Arc;

/// Sentinel in the painted map for "ocean / no country".
const NO_COUNTRY: u16 = u16::MAX;

/// The world atlas on a specific grid.
pub struct WorldAtlas {
    grid: Arc<GeoGrid>,
    countries: Vec<Country>,
    /// Painted map: cell → country index (or `NO_COUNTRY`).
    cell_country: Vec<u16>,
    /// All painted land cells.
    land: Region,
    /// Land ∧ plausible latitudes (< 85° N, > 60° S): the mask applied to
    /// every prediction region (paper §3).
    plausible: Region,
}

impl WorldAtlas {
    /// Build the atlas on the given grid. Cost is proportional to the
    /// number of land cells (≈ 30 % of the grid); at the default 0.25°
    /// resolution this is well under a second.
    pub fn new(grid: Arc<GeoGrid>) -> WorldAtlas {
        let countries: Vec<Country> = all_countries()
            .iter()
            .map(|def| Country::from_def(def))
            .collect();
        assert!(
            countries.len() < NO_COUNTRY as usize,
            "too many countries for u16 painted map"
        );

        // Paint in descending area order: small countries override big
        // ones, so enclaves and coarse-border overlaps resolve to the
        // smaller territory.
        let mut order: Vec<usize> = (0..countries.len()).collect();
        order.sort_by(|&a, &b| {
            countries[b]
                .approx_area_km2()
                .partial_cmp(&countries[a].approx_area_km2())
                .expect("country areas are finite")
        });

        let mut cell_country = vec![NO_COUNTRY; grid.num_cells() as usize];
        for &idx in &order {
            for shape in countries[idx].shapes() {
                paint_shape(&grid, shape, |cell| {
                    cell_country[cell as usize] = idx as u16;
                });
            }
        }

        // Microstates smaller than a grid cell (Vatican, Monaco, Pitcairn…)
        // may own no cell centre at coarse resolutions. Every country must
        // exist on the map — the paper explicitly keeps even the smallest
        // islands (§3) — so paint the capital's cell for any country that
        // ended up empty. (Two sub-cell territories sharing a cell, e.g.
        // Saint-Martin / Sint Maarten at coarse grids, resolve to whichever
        // is processed last; the loser keeps its shape geometry for
        // distance queries.)
        let mut owned = vec![false; countries.len()];
        for &c in &cell_country {
            if c != NO_COUNTRY {
                owned[c as usize] = true;
            }
        }
        for (idx, country) in countries.iter().enumerate() {
            if !owned[idx] {
                let cell = grid.cell_of(&country.capital());
                cell_country[cell as usize] = idx as u16;
            }
        }

        let mut land = Region::empty(Arc::clone(&grid));
        for (cell, &c) in cell_country.iter().enumerate() {
            if c != NO_COUNTRY {
                land.insert(cell as CellId);
            }
        }

        let lat_band = Region::from_predicate(&grid, |p| {
            p.lat() <= MAX_PLAUSIBLE_LAT && p.lat() >= MIN_PLAUSIBLE_LAT
        });
        let plausible = land.intersection(&lat_band);

        WorldAtlas {
            grid,
            countries,
            cell_country,
            land,
            plausible,
        }
    }

    /// The grid this atlas is painted on.
    pub fn grid(&self) -> &Arc<GeoGrid> {
        &self.grid
    }

    /// All countries, indexed by [`CountryId`].
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// Number of countries.
    pub fn num_countries(&self) -> usize {
        self.countries.len()
    }

    /// Look up a country by ISO code.
    pub fn country_by_iso2(&self, iso2: &str) -> Option<CountryId> {
        self.countries.iter().position(|c| c.iso2() == iso2)
    }

    /// The country record for an id.
    pub fn country(&self, id: CountryId) -> &Country {
        &self.countries[id]
    }

    /// Country owning a cell, if any.
    pub fn country_of_cell(&self, cell: CellId) -> Option<CountryId> {
        match self.cell_country[cell as usize] {
            NO_COUNTRY => None,
            c => Some(c as usize),
        }
    }

    /// Country containing a point (at grid resolution), if any.
    pub fn country_of_point(&self, p: &GeoPoint) -> Option<CountryId> {
        self.country_of_cell(self.grid.cell_of(p))
    }

    /// All land cells.
    pub fn land(&self) -> &Region {
        &self.land
    }

    /// The plausibility mask: land, below 85° N, above 60° S. Every final
    /// prediction region is intersected with this (paper §3).
    pub fn plausibility_mask(&self) -> &Region {
        &self.plausible
    }

    /// Rasterize one country as a region (built on demand from the painted
    /// map — O(country bounding cells)).
    pub fn country_region(&self, id: CountryId) -> Region {
        let mut r = Region::empty(Arc::clone(&self.grid));
        for shape in self.countries[id].shapes() {
            paint_shape(&self.grid, shape, |cell| {
                if self.cell_country[cell as usize] == id as u16 {
                    r.insert(cell);
                }
            });
        }
        // Sub-cell territories own only their force-painted capital cell,
        // which shape rasterization may not visit.
        let capital_cell = self.grid.cell_of(&self.countries[id].capital());
        if self.cell_country[capital_cell as usize] == id as u16 {
            r.insert(capital_cell);
        }
        r
    }

    /// The set of countries a region touches, with the touched area in km²
    /// per country, sorted by descending area. Cells outside any country
    /// are ignored.
    pub fn countries_touched(&self, region: &Region) -> Vec<(CountryId, f64)> {
        let mut areas: Vec<f64> = vec![0.0; self.countries.len()];
        for cell in region.cells() {
            if let Some(c) = self.country_of_cell(cell) {
                areas[c] += self.grid.cell_area_km2(cell);
            }
        }
        let mut out: Vec<(CountryId, f64)> = areas
            .into_iter()
            .enumerate()
            .filter(|&(_, a)| a > 0.0)
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("areas are finite"));
        out
    }

    /// The set of continents a region touches (via touched countries).
    pub fn continents_touched(&self, region: &Region) -> Vec<Continent> {
        let mut seen = [false; 8];
        for (c, _) in self.countries_touched(region) {
            seen[self.countries[c].continent().index()] = true;
        }
        Continent::ALL
            .iter()
            .copied()
            .filter(|c| seen[c.index()])
            .collect()
    }

    /// Minimum distance from a point to a country's outline (0 inside).
    /// Used by the ICLab speed-limit checker.
    pub fn distance_to_country_km(&self, p: &GeoPoint, id: CountryId) -> f64 {
        self.countries[id].distance_from_km(p)
    }

    /// Sample a location inside a country: a hub city (weight-proportional)
    /// plus up to `jitter_km` of uniform displacement, re-drawn until the
    /// point lands in the country's painted cells (give up after 32 tries
    /// and return the hub itself, which for a well-formed table is always
    /// in-country at grid resolution).
    pub fn sample_point_in_country<R: Rng + ?Sized>(
        &self,
        id: CountryId,
        jitter_km: f64,
        rng: &mut R,
    ) -> GeoPoint {
        let country = &self.countries[id];
        let weights: Vec<f64> = country.hubs().iter().map(|h| h.weight).collect();
        let hub = &country.hubs()[geokit::sampling::weighted_index(rng, &weights)];
        let hub_point = GeoPoint::new(hub.lat, hub.lon);
        for _ in 0..32 {
            let bearing = rng.random_range(0.0..360.0);
            let dist = jitter_km * rng.random_range(0.0f64..1.0).sqrt();
            let p = hub_point.destination(bearing, dist);
            if self.country_of_point(&p) == Some(id) {
                return p;
            }
        }
        hub_point
    }
}

/// Invoke `f` on every grid cell whose centre is inside the shape.
fn paint_shape<F: FnMut(CellId)>(grid: &Arc<GeoGrid>, shape: &geokit::Shape, mut f: F) {
    match shape {
        geokit::Shape::Cap(cap) => grid.for_each_cell_in_cap(cap, f),
        geokit::Shape::Box(b) => {
            // Walk the box's row/col ranges directly.
            let res = grid.resolution_deg();
            let row_lo = ((b.south() + 90.0) / res).floor().max(0.0) as u32;
            let row_hi = (((b.north() + 90.0) / res).ceil() as u32).min(grid.rows());
            let col_count = (b.lon_span() / res).ceil() as i64 + 1;
            let col_start = ((b.west() + 180.0) / res).floor() as i64;
            let n = i64::from(grid.cols());
            for row in row_lo..row_hi {
                for k in 0..col_count {
                    let col = (col_start + k).rem_euclid(n) as u32;
                    let cell = row * grid.cols() + col;
                    if b.contains(&grid.center(cell)) {
                        f(cell);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;
    use std::sync::OnceLock;

    /// Shared atlas: building at 0.5° is fast but not free, so tests share.
    fn atlas() -> &'static WorldAtlas {
        static ATLAS: OnceLock<WorldAtlas> = OnceLock::new();
        ATLAS.get_or_init(|| WorldAtlas::new(GeoGrid::new(0.5)))
    }

    #[test]
    fn known_city_lookups() {
        let a = atlas();
        let cases = [
            (50.11, 8.68, "de"),    // Frankfurt
            (38.0, -97.0, "us"),    // Kansas
            (51.51, -0.13, "gb"),   // London
            (35.68, 139.69, "jp"),  // Tokyo
            (-33.87, 151.21, "au"), // Sydney
            (55.76, 37.62, "ru"),   // Moscow
            (1.35, 103.82, "sg"),   // Singapore
            (-23.55, -46.63, "br"), // São Paulo
        ];
        for (lat, lon, iso) in cases {
            let got = a
                .country_of_point(&GeoPoint::new(lat, lon))
                .map(|id| a.country(id).iso2());
            assert_eq!(got, Some(iso), "({lat}, {lon})");
        }
    }

    #[test]
    fn oceans_are_not_countries() {
        let a = atlas();
        for (lat, lon) in [
            (0.0, -30.0),    // mid-Atlantic
            (-30.0, -110.0), // South Pacific
            (10.0, 65.0),    // Indian Ocean
            (55.0, -35.0),   // North Atlantic
        ] {
            assert_eq!(
                a.country_of_point(&GeoPoint::new(lat, lon)),
                None,
                "({lat}, {lon}) should be ocean"
            );
        }
    }

    #[test]
    fn enclaves_beat_their_surroundings() {
        let a = atlas();
        // Vatican inside Italy; Hong Kong inside China's coarse box.
        let vatican = a.country_of_point(&GeoPoint::new(41.90, 12.45)).unwrap();
        assert_eq!(a.country(vatican).iso2(), "va");
        let hk = a.country_of_point(&GeoPoint::new(22.32, 114.17)).unwrap();
        assert_eq!(a.country(hk).iso2(), "hk");
    }

    #[test]
    fn plausibility_mask_cuts_poles_and_ocean() {
        let a = atlas();
        let g = a.grid();
        // Northern Greenland (> 85° N would be cut; 81° N is land & kept).
        assert!(a.land().contains_point(&GeoPoint::new(81.0, -40.0)));
        // No cells above 85° N at all.
        for cell in a.plausibility_mask().cells() {
            let p = g.center(cell);
            assert!(p.lat() <= MAX_PLAUSIBLE_LAT && p.lat() >= MIN_PLAUSIBLE_LAT);
        }
        // Ocean cells are excluded.
        assert!(!a
            .plausibility_mask()
            .contains_point(&GeoPoint::new(0.0, -30.0)));
    }

    #[test]
    fn land_area_is_roughly_earths() {
        // Coarse outlines over- and under-shoot, but total land should be
        // within 40 % of the true ~1.49 × 10⁸ km².
        let a = atlas();
        let area = a.land().area_km2();
        assert!(
            (0.6..=1.4).contains(&(area / geokit::EARTH_LAND_AREA_KM2)),
            "land area {area:.3e} km² vs true {:.3e}",
            geokit::EARTH_LAND_AREA_KM2
        );
    }

    #[test]
    fn country_region_round_trip() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        let region = a.country_region(de);
        assert!(!region.is_empty());
        // Every cell of the region maps back to Germany.
        for cell in region.cells() {
            assert_eq!(a.country_of_cell(cell), Some(de));
        }
        // Frankfurt is in it.
        assert!(region.contains_point(&GeoPoint::new(50.11, 8.68)));
    }

    #[test]
    fn countries_touched_by_benelux_disk() {
        let a = atlas();
        let cap = geokit::SphericalCap::new(GeoPoint::new(50.8, 4.4), 250.0);
        let region = Region::from_cap(a.grid(), &cap).intersection(a.land());
        let touched: Vec<&str> = a
            .countries_touched(&region)
            .into_iter()
            .map(|(c, _)| a.country(c).iso2())
            .collect();
        for iso in ["be", "nl", "de", "fr"] {
            assert!(touched.contains(&iso), "{iso} missing from {touched:?}");
        }
    }

    #[test]
    fn continents_touched() {
        let a = atlas();
        let cap = geokit::SphericalCap::new(GeoPoint::new(36.0, -5.5), 600.0);
        let region = Region::from_cap(a.grid(), &cap).intersection(a.land());
        let conts = a.continents_touched(&region);
        assert!(conts.contains(&Continent::Europe)); // Spain
        assert!(conts.contains(&Continent::Africa)); // Morocco
    }

    #[test]
    fn sample_point_in_country_lands_inside() {
        let a = atlas();
        let mut rng = StdRng::seed_from_u64(42);
        for iso in ["de", "us", "sg", "pn", "br"] {
            let id = a.country_by_iso2(iso).unwrap();
            for _ in 0..20 {
                let p = a.sample_point_in_country(id, 100.0, &mut rng);
                assert_eq!(
                    a.country_of_point(&p),
                    Some(id),
                    "{iso}: sampled {p} outside"
                );
            }
        }
    }

    #[test]
    fn distance_to_country() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        assert_eq!(
            a.distance_to_country_km(&GeoPoint::new(50.11, 8.68), de),
            0.0
        );
        let d = a.distance_to_country_km(&GeoPoint::new(48.86, 2.35), de); // Paris
        assert!((100.0..600.0).contains(&d), "Paris→DE = {d}");
    }
}
