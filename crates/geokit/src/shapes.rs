//! Simple shapes on the sphere: caps (disks), lat/lon boxes, and unions.
//!
//! The world atlas describes countries as unions of these shapes; the
//! multilateration engine rasterizes caps and rings onto the global grid.
//! Shapes deliberately stay simple — point-in-shape tests and bounding
//! boxes are all the geolocation pipeline requires.

use crate::angle::{lon_delta, lon_in_range, normalize_lon};
use crate::point::GeoPoint;
use crate::EARTH_RADIUS_KM;

/// A spherical cap: all points within `radius_km` (great-circle) of a centre.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalCap {
    /// Centre of the cap.
    pub center: GeoPoint,
    /// Great-circle radius in kilometres; must be non-negative and finite.
    pub radius_km: f64,
}

impl SphericalCap {
    /// Create a cap. Radii are clamped to the maximum meaningful value
    /// (half the circumference: the whole sphere).
    ///
    /// # Panics
    /// Panics if `radius_km` is negative or not finite.
    pub fn new(center: GeoPoint, radius_km: f64) -> Self {
        assert!(
            radius_km.is_finite() && radius_km >= 0.0,
            "cap radius must be finite and non-negative, got {radius_km}"
        );
        SphericalCap {
            center,
            radius_km: radius_km.min(crate::MAX_GC_DISTANCE_KM),
        }
    }

    /// True if `p` lies within the cap (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.center.distance_km(p) <= self.radius_km
    }

    /// Exact spherical area of the cap in km²: `2πR²(1 − cos(r/R))`.
    pub fn area_km2(&self) -> f64 {
        let angular = self.radius_km / EARTH_RADIUS_KM;
        2.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM * (1.0 - angular.cos())
    }
}

/// A latitude/longitude box. `west → east` travels eastward and may cross
/// the antimeridian (`west > east` after normalization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoBox {
    south: f64,
    north: f64,
    west: f64,
    east: f64,
}

impl GeoBox {
    /// Create a box spanning latitudes `[south, north]` and longitudes
    /// eastward from `west` to `east`.
    ///
    /// # Panics
    /// Panics if any bound is not finite or `south > north`.
    pub fn new(south: f64, north: f64, west: f64, east: f64) -> Self {
        assert!(
            south.is_finite() && north.is_finite() && west.is_finite() && east.is_finite(),
            "GeoBox bounds must be finite"
        );
        let south = south.clamp(-90.0, 90.0);
        let north = north.clamp(-90.0, 90.0);
        assert!(south <= north, "GeoBox south {south} > north {north}");
        GeoBox {
            south,
            north,
            west: normalize_lon(west),
            east: normalize_lon(east),
        }
    }

    /// Southern latitude bound.
    pub fn south(&self) -> f64 {
        self.south
    }
    /// Northern latitude bound.
    pub fn north(&self) -> f64 {
        self.north
    }
    /// Western longitude bound (start of eastward span).
    pub fn west(&self) -> f64 {
        self.west
    }

    /// True if the box's longitude span crosses the antimeridian.
    pub fn wraps(&self) -> bool {
        self.west > self.east
    }

    /// Width of the longitude span in degrees, in `[0, 360)`.
    pub fn lon_span(&self) -> f64 {
        if self.wraps() {
            360.0 - (self.west - self.east)
        } else {
            self.east - self.west
        }
    }

    /// True if `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat() >= self.south
            && p.lat() <= self.north
            && lon_in_range(p.lon(), self.west, self.east)
    }

    /// Centre of the box (midpoint in latitude and in eastward longitude).
    pub fn center(&self) -> GeoPoint {
        let lat = (self.south + self.north) / 2.0;
        let lon = normalize_lon(self.west + self.lon_span() / 2.0);
        GeoPoint::new(lat, lon)
    }

    /// Spherical area of the box in km²:
    /// `R² · Δλ · (sin φN − sin φS)`.
    pub fn area_km2(&self) -> f64 {
        let dlon_rad = self.lon_span().to_radians();
        let band = self.north.to_radians().sin() - self.south.to_radians().sin();
        EARTH_RADIUS_KM * EARTH_RADIUS_KM * dlon_rad * band
    }
}

/// A shape on the sphere: the building block for country outlines and
/// plausibility masks.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// A spherical cap (disk).
    Cap(SphericalCap),
    /// A latitude/longitude box.
    Box(GeoBox),
}

impl Shape {
    /// Convenience constructor for a cap.
    pub fn cap(lat: f64, lon: f64, radius_km: f64) -> Shape {
        Shape::Cap(SphericalCap::new(GeoPoint::new(lat, lon), radius_km))
    }

    /// Convenience constructor for a box.
    pub fn rect(south: f64, north: f64, west: f64, east: f64) -> Shape {
        Shape::Box(GeoBox::new(south, north, west, east))
    }

    /// True if `p` lies inside the shape.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        match self {
            Shape::Cap(c) => c.contains(p),
            Shape::Box(b) => b.contains(p),
        }
    }

    /// Approximate area in km² (exact for both variants, actually).
    pub fn area_km2(&self) -> f64 {
        match self {
            Shape::Cap(c) => c.area_km2(),
            Shape::Box(b) => b.area_km2(),
        }
    }

    /// Minimum great-circle distance from `p` to the shape, 0 if inside.
    ///
    /// For boxes this is approximate (distance to the nearest of the box
    /// centre-edge sample points), adequate for the ICLab checker's
    /// "distance to the nearest point of the claimed country" which operates
    /// at hundreds-of-kilometres scales.
    pub fn distance_from_km(&self, p: &GeoPoint) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        match self {
            Shape::Cap(c) => (c.center.distance_km(p) - c.radius_km).max(0.0),
            Shape::Box(b) => {
                // Sample the box boundary: 4 corners + edge midpoints + the
                // latitude-clamped nearest meridian point.
                let mut best = f64::INFINITY;
                let lats = [b.south, (b.south + b.north) / 2.0, b.north];
                let half = b.lon_span() / 2.0;
                let center_lon = b.center().lon();
                let lons = [
                    b.west,
                    normalize_lon(center_lon - half / 2.0),
                    center_lon,
                    normalize_lon(center_lon + half / 2.0),
                    b.east,
                ];
                for &lat in &lats {
                    for &lon in &lons {
                        let d = p.distance_km(&GeoPoint::new(lat, lon));
                        if d < best {
                            best = d;
                        }
                    }
                }
                // Clamped-projection candidate: nearest point when p's
                // longitude is within the box span.
                if lon_in_range(p.lon(), b.west, b.east) {
                    let lat = p.lat().clamp(b.south, b.north);
                    best = best.min(p.distance_km(&GeoPoint::new(lat, p.lon())));
                }
                // And when p's latitude is within the box's band, project to
                // nearest meridian edge.
                if p.lat() >= b.south && p.lat() <= b.north {
                    let dw = lon_delta(p.lon(), b.west);
                    let de = lon_delta(p.lon(), b.east);
                    let lon = if dw < de { b.west } else { b.east };
                    best = best.min(p.distance_km(&GeoPoint::new(p.lat(), lon)));
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_contains_center_and_boundary() {
        let c = SphericalCap::new(GeoPoint::new(50.0, 10.0), 300.0);
        assert!(c.contains(&GeoPoint::new(50.0, 10.0)));
        // Just inside the boundary (exact boundary is a floating-point coin
        // flip, so probe one metre in).
        let edge = c.center.destination(90.0, 299.999);
        assert!(c.contains(&edge));
        let outside = c.center.destination(90.0, 301.0);
        assert!(!c.contains(&outside));
    }

    #[test]
    fn cap_area_small_cap_is_almost_flat() {
        // A 100 km cap is ~ π r² to within 0.01 %.
        let c = SphericalCap::new(GeoPoint::new(0.0, 0.0), 100.0);
        let flat = std::f64::consts::PI * 100.0 * 100.0;
        assert!((c.area_km2() - flat).abs() / flat < 1e-4);
    }

    #[test]
    fn cap_area_hemisphere() {
        // A hemisphere on the mean-radius sphere: radius = (π/2)·R.
        let quarter = std::f64::consts::FRAC_PI_2 * EARTH_RADIUS_KM;
        let c = SphericalCap::new(GeoPoint::new(0.0, 0.0), quarter);
        let hemisphere = 2.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;
        assert!((c.area_km2() - hemisphere).abs() / hemisphere < 1e-3);
    }

    #[test]
    fn box_contains_and_wrap() {
        let fiji = GeoBox::new(-21.0, -12.0, 176.0, -178.0);
        assert!(fiji.wraps());
        assert!(fiji.contains(&GeoPoint::new(-17.7, 178.0)));
        assert!(fiji.contains(&GeoPoint::new(-17.7, -179.0)));
        assert!(!fiji.contains(&GeoPoint::new(-17.7, 0.0)));
        assert!((fiji.lon_span() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn box_center_wrapping() {
        let fiji = GeoBox::new(-21.0, -12.0, 176.0, -178.0);
        let c = fiji.center();
        assert!((c.lat() - -16.5).abs() < 1e-9);
        assert!((c.lon() - 179.0).abs() < 1e-9);
    }

    #[test]
    fn box_area_equator_band() {
        // A 1°×1° box at the equator is ~ (111.19 km)² ≈ 12 364 km².
        let b = GeoBox::new(-0.5, 0.5, 0.0, 1.0);
        assert!(
            (b.area_km2() - 12364.0).abs() < 15.0,
            "got {}",
            b.area_km2()
        );
    }

    #[test]
    fn whole_earth_box_area() {
        let b = GeoBox::new(-90.0, 90.0, -180.0, 179.9999999);
        let sphere = 4.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;
        assert!((b.area_km2() - sphere).abs() / sphere < 1e-6);
    }

    #[test]
    fn shape_distance_cap() {
        let s = Shape::cap(0.0, 0.0, 500.0);
        let p = GeoPoint::new(0.0, 10.0); // ~1112 km away
        let d = s.distance_from_km(&p);
        assert!((d - (p.distance_km(&GeoPoint::new(0.0, 0.0)) - 500.0)).abs() < 1e-9);
        assert_eq!(s.distance_from_km(&GeoPoint::new(0.1, 0.1)), 0.0);
    }

    #[test]
    fn shape_distance_box_projection() {
        let s = Shape::rect(40.0, 50.0, 0.0, 10.0);
        // Directly south of the box: distance is to the south edge.
        let p = GeoPoint::new(35.0, 5.0);
        let expect = p.distance_km(&GeoPoint::new(40.0, 5.0));
        assert!((s.distance_from_km(&p) - expect).abs() < 1.0);
        // Directly west: distance to the west edge at same latitude.
        let p = GeoPoint::new(45.0, -5.0);
        let expect = p.distance_km(&GeoPoint::new(45.0, 0.0));
        assert!((s.distance_from_km(&p) - expect).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "south")]
    fn inverted_box_panics() {
        GeoBox::new(10.0, -10.0, 0.0, 1.0);
    }
}
