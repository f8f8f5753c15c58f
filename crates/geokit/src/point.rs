//! Points on the Earth and great-circle math on the mean-radius sphere.
//!
//! All distances are great-circle ("as the fibre flies is *at least* this
//! far") on a sphere of radius [`crate::EARTH_RADIUS_KM`].
//! Spherical error relative to the WGS84 ellipsoid is below 0.56 %, far
//! below the kilometres-per-millisecond uncertainty of delay measurements,
//! and is the same convention the CBG line of papers uses.

use crate::angle::{clamp_lat, normalize_lon};
use crate::EARTH_RADIUS_KM;

/// A position on the Earth's surface, in degrees.
///
/// Invariants (enforced by [`GeoPoint::new`]): latitude ∈ `[-90, 90]`,
/// longitude ∈ `[-180, 180)`, both finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Create a point, normalizing longitude into `[-180, 180)` and clamping
    /// latitude into `[-90, 90]`.
    ///
    /// # Panics
    /// Panics if either coordinate is not finite — positions come from
    /// internal tables and generators, so a NaN is a programming error, not
    /// a runtime condition to propagate.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        assert!(
            lat_deg.is_finite() && lon_deg.is_finite(),
            "GeoPoint coordinates must be finite, got ({lat_deg}, {lon_deg})"
        );
        GeoPoint {
            lat: clamp_lat(lat_deg),
            lon: normalize_lon(lon_deg),
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `[-180, 180)`.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle distance to `other` in kilometres (haversine formula,
    /// numerically stable for antipodal and for very close points).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // Clamp guards against a = 1 + ulp for antipodal points.
        let c = 2.0 * a.sqrt().min(1.0).asin();
        EARTH_RADIUS_KM * c
    }

    /// Initial bearing (forward azimuth) from this point towards `other`,
    /// in degrees clockwise from north, in `[0, 360)`.
    pub fn bearing_to(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_km` along the great circle
    /// with initial bearing `bearing_deg` (clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_km: f64) -> GeoPoint {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
    }

    /// Convert to a unit vector in Earth-centred Cartesian coordinates.
    /// Used for centroid computation, where averaging (lat, lon) directly
    /// would break across the antimeridian.
    pub fn to_unit_vector(&self) -> [f64; 3] {
        let lat = self.lat.to_radians();
        let lon = self.lon.to_radians();
        [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
    }

    /// Reconstruct a point from a (not necessarily unit) Cartesian vector.
    /// Returns `None` for the zero vector, which has no direction.
    pub fn from_vector(v: [f64; 3]) -> Option<GeoPoint> {
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        if norm < 1e-12 {
            return None;
        }
        let lat = (v[2] / norm).asin().to_degrees();
        let lon = v[1].atan2(v[0]).to_degrees();
        Some(GeoPoint::new(lat, lon))
    }
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.4}°, {:.4}°)", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    #[test]
    fn distance_to_self_is_zero() {
        let x = p(48.85, 2.35);
        assert_eq!(x.distance_km(&x), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = p(48.85, 2.35); // Paris
        let b = p(40.71, -74.0); // New York
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn known_distances() {
        // Paris – New York: ~5 837 km great-circle.
        let d = p(48.8566, 2.3522).distance_km(&p(40.7128, -74.006));
        assert!((d - 5837.0).abs() < 20.0, "got {d}");
        // London – Sydney: ~16 990 km.
        let d = p(51.5074, -0.1278).distance_km(&p(-33.8688, 151.2093));
        assert!((d - 16990.0).abs() < 60.0, "got {d}");
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        // On the mean-radius sphere the half-circumference is π·R; the
        // paper's 20 037.508 km constant uses the (slightly longer)
        // equatorial circumference, so allow that gap.
        let d = p(0.0, 0.0).distance_km(&p(0.0, 180.0));
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1e-6, "got {d}");
        assert!(d < crate::MAX_GC_DISTANCE_KM);
        assert!((crate::MAX_GC_DISTANCE_KM - d) < 25.0);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = p(0.0, 0.0);
        assert!((origin.bearing_to(&p(10.0, 0.0)) - 0.0).abs() < 1e-6);
        assert!((origin.bearing_to(&p(0.0, 10.0)) - 90.0).abs() < 1e-6);
        assert!((origin.bearing_to(&p(-10.0, 0.0)) - 180.0).abs() < 1e-6);
        assert!((origin.bearing_to(&p(0.0, -10.0)) - 270.0).abs() < 1e-6);
    }

    #[test]
    fn destination_round_trip() {
        let start = p(52.2, 0.12);
        for bearing in [0.0, 45.0, 137.0, 260.0] {
            for dist in [1.0, 100.0, 2500.0, 9000.0] {
                let dest = start.destination(bearing, dist);
                let measured = start.distance_km(&dest);
                assert!(
                    (measured - dist).abs() < 1e-6 * dist.max(1.0),
                    "bearing {bearing}, dist {dist}: measured {measured}"
                );
            }
        }
    }

    #[test]
    fn destination_across_antimeridian() {
        let fiji = p(-17.7, 178.0);
        let east = fiji.destination(90.0, 500.0);
        assert!(east.lon() < -177.0, "should wrap to west longitude: {east}");
        assert!((fiji.distance_km(&east) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn unit_vector_round_trip() {
        for (lat, lon) in [(0.0, 0.0), (89.0, 15.0), (-45.0, -179.5), (12.3, 45.6)] {
            let x = p(lat, lon);
            let back = GeoPoint::from_vector(x.to_unit_vector()).unwrap();
            assert!(x.distance_km(&back) < 1e-6, "{x} vs {back}");
        }
    }

    #[test]
    fn from_zero_vector_is_none() {
        assert!(GeoPoint::from_vector([0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_latitude_panics() {
        GeoPoint::new(f64::NAN, 0.0);
    }

    #[test]
    fn longitude_normalized_on_construction() {
        assert_eq!(p(0.0, 190.0).lon(), -170.0);
        assert_eq!(p(95.0, 0.0).lat(), 90.0);
    }
}
