//! Angle helpers: coordinate normalization.

/// Normalize a longitude into the half-open interval `[-180, 180)`.
///
/// Accepts any finite input, e.g. `190 → -170`, `-540 → 180 → -180`.
#[inline]
pub fn normalize_lon(lon: f64) -> f64 {
    let mut l = (lon + 180.0).rem_euclid(360.0) - 180.0;
    // rem_euclid can return exactly 360.0 - 180.0 = 180.0 for inputs like
    // -180.0 - f64::EPSILON scaled; fold the closed end back.
    if l >= 180.0 {
        l -= 360.0;
    }
    l
}

/// Clamp a latitude into `[-90, 90]`.
#[inline]
pub fn clamp_lat(lat: f64) -> f64 {
    lat.clamp(-90.0, 90.0)
}

/// Smallest absolute difference between two longitudes, in degrees,
/// accounting for antimeridian wrap. Always in `[0, 180]`.
#[inline]
pub fn lon_delta(a: f64, b: f64) -> f64 {
    let d = (a - b).abs().rem_euclid(360.0);
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

/// True if longitude `lon` lies within the (possibly antimeridian-wrapping)
/// interval from `west` to `east`, travelling eastward from `west`.
///
/// For a non-wrapping box, `west <= east` and this is a plain interval test;
/// for a wrapping box (e.g. Fiji: west = 176, east = -178) the interval
/// crosses ±180.
#[inline]
pub fn lon_in_range(lon: f64, west: f64, east: f64) -> bool {
    let lon = normalize_lon(lon);
    let west = normalize_lon(west);
    let east = normalize_lon(east);
    if west <= east {
        (west..=east).contains(&lon)
    } else {
        lon >= west || lon <= east
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lon_basic() {
        assert_eq!(normalize_lon(0.0), 0.0);
        assert_eq!(normalize_lon(190.0), -170.0);
        assert_eq!(normalize_lon(-190.0), 170.0);
        assert_eq!(normalize_lon(360.0), 0.0);
        assert_eq!(normalize_lon(180.0), -180.0);
        assert_eq!(normalize_lon(-180.0), -180.0);
        assert_eq!(normalize_lon(540.0), -180.0);
    }

    #[test]
    fn normalize_lon_is_idempotent() {
        for lon in [-720.5, -359.9, -180.0, -0.0, 0.0, 123.4, 359.9, 720.5] {
            let once = normalize_lon(lon);
            assert!((-180.0..180.0).contains(&once), "out of range for {lon}");
            assert_eq!(normalize_lon(once), once);
        }
    }

    #[test]
    fn lon_delta_wraps() {
        assert_eq!(lon_delta(170.0, -170.0), 20.0);
        assert_eq!(lon_delta(-170.0, 170.0), 20.0);
        assert_eq!(lon_delta(0.0, 180.0), 180.0);
        assert_eq!(lon_delta(10.0, 30.0), 20.0);
    }

    #[test]
    fn lon_in_range_plain_and_wrapping() {
        assert!(lon_in_range(5.0, 0.0, 10.0));
        assert!(!lon_in_range(15.0, 0.0, 10.0));
        // Wrapping interval across the antimeridian (e.g. the Pacific).
        assert!(lon_in_range(179.0, 170.0, -170.0));
        assert!(lon_in_range(-179.0, 170.0, -170.0));
        assert!(!lon_in_range(0.0, 170.0, -170.0));
    }

    #[test]
    fn clamp_lat_bounds() {
        assert_eq!(clamp_lat(95.0), 90.0);
        assert_eq!(clamp_lat(-95.0), -90.0);
        assert_eq!(clamp_lat(45.0), 45.0);
    }
}
