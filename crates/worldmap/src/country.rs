//! Country records: the static definition format used by the [`crate::data`]
//! tables and the runtime [`Country`] wrapper with computed geometry.

use crate::continent::Continent;
use geokit::{GeoPoint, Shape};

/// Index of a country within [`crate::data::all_countries`] (and within
/// every [`crate::WorldAtlas`] built from it).
pub type CountryId = usize;

/// A shape in the static data tables (kept `const`-constructible; converted
/// to [`geokit::Shape`] at atlas build time).
#[derive(Debug, Clone, Copy)]
pub enum ShapeDef {
    /// Spherical cap: centre latitude, centre longitude, radius in km.
    Cap(f64, f64, f64),
    /// Latitude/longitude box: south, north, west, east (eastward span,
    /// may wrap the antimeridian).
    Rect(f64, f64, f64, f64),
}

impl ShapeDef {
    /// Convert to a runtime [`Shape`].
    pub fn to_shape(self) -> Shape {
        match self {
            ShapeDef::Cap(lat, lon, r) => Shape::cap(lat, lon, r),
            ShapeDef::Rect(s, n, w, e) => Shape::rect(s, n, w, e),
        }
    }
}

/// Shorthand constructor for a cap [`ShapeDef`] (used by the data tables).
pub const fn cap(lat: f64, lon: f64, radius_km: f64) -> ShapeDef {
    ShapeDef::Cap(lat, lon, radius_km)
}

/// Shorthand constructor for a box [`ShapeDef`] (used by the data tables).
pub const fn rect(south: f64, north: f64, west: f64, east: f64) -> ShapeDef {
    ShapeDef::Rect(south, north, west, east)
}

/// A hub city: a place within the country where people, data centers, and
/// network infrastructure concentrate. Hosts and landmarks are placed at
/// hubs (with jitter); data centers are drawn from hubs of
/// hosting-friendly countries.
#[derive(Debug, Clone, Copy)]
pub struct HubDef {
    /// City name.
    pub name: &'static str,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Relative weight when sampling a hub within the country.
    pub weight: f64,
}

/// A country/territory entry in the static data tables.
#[derive(Debug, Clone, Copy)]
pub struct CountryDef {
    /// ISO 3166-1 alpha-2 code (lower case, as the paper prints them).
    pub iso2: &'static str,
    /// English short name.
    pub name: &'static str,
    /// Continent group per the paper's Appendix A.
    pub continent: Continent,
    /// Ease of leasing servers here, in `[0, 1]`. Drives where VPN
    /// providers actually place hardware ("countries where server hosting
    /// is cheap and reliable", §1) and where data centers exist.
    pub hosting: f64,
    /// Outline as a union of coarse shapes.
    pub shapes: &'static [ShapeDef],
    /// Hub cities. Must be non-empty; the first hub is the "capital".
    pub hubs: &'static [HubDef],
}

/// A country with computed runtime geometry.
#[derive(Debug, Clone)]
pub struct Country {
    def: &'static CountryDef,
    shapes: Vec<Shape>,
    /// Sum of shape areas (double-counts overlaps; used only for painting
    /// priority, where relative order is what matters).
    approx_area_km2: f64,
}

impl Country {
    /// Wrap a static definition.
    pub fn from_def(def: &'static CountryDef) -> Country {
        assert!(
            !def.hubs.is_empty(),
            "country {} has no hub cities",
            def.iso2
        );
        assert!(!def.shapes.is_empty(), "country {} has no shapes", def.iso2);
        let shapes: Vec<Shape> = def.shapes.iter().map(|s| s.to_shape()).collect();
        let approx_area_km2 = shapes.iter().map(Shape::area_km2).sum();
        Country {
            def,
            shapes,
            approx_area_km2,
        }
    }

    /// ISO 3166-1 alpha-2 code.
    pub fn iso2(&self) -> &'static str {
        self.def.iso2
    }

    /// English short name.
    pub fn name(&self) -> &'static str {
        self.def.name
    }

    /// Continent group.
    pub fn continent(&self) -> Continent {
        self.def.continent
    }

    /// Hosting-ease score in `[0, 1]`.
    pub fn hosting(&self) -> f64 {
        self.def.hosting
    }

    /// Hub cities.
    pub fn hubs(&self) -> &'static [HubDef] {
        self.def.hubs
    }

    /// Outline shapes.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Approximate area (sum of shape areas; overlaps double-counted).
    pub fn approx_area_km2(&self) -> f64 {
        self.approx_area_km2
    }

    /// Minimum distance from `p` to the country's outline, 0 if inside.
    pub fn distance_from_km(&self, p: &GeoPoint) -> f64 {
        self.shapes
            .iter()
            .map(|s| s.distance_from_km(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The capital-ish anchor point (first hub).
    pub fn capital(&self) -> GeoPoint {
        let h = &self.def.hubs[0];
        GeoPoint::new(h.lat, h.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_DEF: CountryDef = CountryDef {
        iso2: "xx",
        name: "Testland",
        continent: Continent::Europe,
        hosting: 0.5,
        shapes: &[
            ShapeDef::Cap(50.0, 10.0, 300.0),
            ShapeDef::Rect(48.0, 52.0, 5.0, 8.0),
        ],
        hubs: &[HubDef {
            name: "Test City",
            lat: 50.0,
            lon: 10.0,
            weight: 1.0,
        }],
    };

    #[test]
    fn country_geometry() {
        let c = Country::from_def(&TEST_DEF);
        assert_eq!(c.iso2(), "xx");
        assert_eq!(c.distance_from_km(&GeoPoint::new(50.0, 6.0)), 0.0); // in the rect
        assert!(c.distance_from_km(&GeoPoint::new(30.0, 10.0)) > 0.0);
        assert!(c.approx_area_km2() > 0.0);
        assert_eq!(c.distance_from_km(&GeoPoint::new(50.0, 10.0)), 0.0);
        assert!(c.distance_from_km(&GeoPoint::new(40.0, 10.0)) > 500.0);
        assert_eq!(c.capital().lat(), 50.0);
    }

    #[test]
    fn distance_uses_nearest_shape() {
        let c = Country::from_def(&TEST_DEF);
        // A point just west of the rect should measure distance to the
        // rect, not to the (farther) cap.
        let p = GeoPoint::new(50.0, 4.0);
        let d = c.distance_from_km(&p);
        assert!(d < 100.0, "got {d}");
    }
}
