//! The ICLab geolocation checker (§6.2).
//!
//! ICLab's checker "only attempts to prove that each proxy is *not* in
//! the claimed country": for each landmark measurement, compute the
//! minimum distance from the landmark to the claimed country; if covering
//! that distance within the observed time would require a speed above
//! 153 km/ms (0.5104 c, slightly faster than the 'speed of internet'),
//! the claim is rejected. The claim is accepted only if no measurement
//! requires a super-limit speed.

use crate::observation::Observation;
use worldmap::{CountryId, WorldAtlas};

/// ICLab's speed limit, km/ms.
pub const ICLAB_SPEED_LIMIT_KM_PER_MS: f64 = 153.0;

/// Verdict of the ICLab checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IclabVerdict {
    /// No measurement contradicts the claim.
    Accepted,
    /// At least one measurement would require a super-limit speed.
    Rejected,
}

/// The checker, at ICLab's [`ICLAB_SPEED_LIMIT_KM_PER_MS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IclabChecker;

impl IclabChecker {
    /// Check a claimed country against landmark measurements.
    ///
    /// Observations carry *one-way* times (the checker reasons about
    /// one-way reach, as the distance bound does).
    pub fn check(
        &self,
        atlas: &WorldAtlas,
        claimed: CountryId,
        observations: &[Observation],
    ) -> IclabVerdict {
        for obs in observations {
            let min_dist = atlas.distance_to_country_km(&obs.landmark, claimed);
            if min_dist <= 0.0 {
                continue; // landmark inside the claimed country
            }
            if obs.one_way_ms <= 0.0 {
                return IclabVerdict::Rejected;
            }
            let required_speed = min_dist / obs.one_way_ms;
            if required_speed > ICLAB_SPEED_LIMIT_KM_PER_MS {
                return IclabVerdict::Rejected;
            }
        }
        IclabVerdict::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};
    use std::sync::OnceLock;

    fn atlas() -> &'static WorldAtlas {
        static A: OnceLock<WorldAtlas> = OnceLock::new();
        A.get_or_init(|| WorldAtlas::new(GeoGrid::new(1.0)))
    }

    fn obs(lat: f64, lon: f64, one_way_ms: f64) -> Observation {
        Observation::new(
            GeoPoint::new(lat, lon),
            one_way_ms,
            CalibrationSet::default(),
        )
    }

    #[test]
    fn plausible_claim_accepted() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        // A Paris landmark, 4 ms one-way: Germany is ~300 km away —
        // 75 km/ms needed, fine.
        let v = IclabChecker.check(a, de, &[obs(48.86, 2.35, 4.0)]);
        assert_eq!(v, IclabVerdict::Accepted);
    }

    #[test]
    fn impossible_claim_rejected() {
        let a = atlas();
        let kp = a.country_by_iso2("kp").unwrap(); // North Korea
                                                   // A Frankfurt landmark with a 5 ms one-way time: North Korea is
                                                   // ~8000 km away — would need 1600 km/ms.
        let v = IclabChecker.check(a, kp, &[obs(50.11, 8.68, 5.0)]);
        assert_eq!(v, IclabVerdict::Rejected);
    }

    #[test]
    fn landmark_inside_claimed_country_never_rejects() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        let v = IclabChecker.check(a, de, &[obs(50.11, 8.68, 0.1)]);
        assert_eq!(v, IclabVerdict::Accepted);
    }

    #[test]
    fn one_bad_measurement_suffices() {
        let a = atlas();
        let kp = a.country_by_iso2("kp").unwrap();
        let observations = vec![
            obs(39.0, 125.8, 2.0), // Pyongyang-ish landmark: consistent
            obs(50.11, 8.68, 5.0), // Frankfurt: impossible
        ];
        let v = IclabChecker.check(a, kp, &observations);
        assert_eq!(v, IclabVerdict::Rejected);
    }

    #[test]
    fn stricter_limit_rejects_more() {
        // ICLab's limit is stricter than light in fibre: a reading that
        // needs just over 153 km/ms is physically possible, yet rejected.
        // One reading either side of the limit, Frankfurt → Spain.
        let a = atlas();
        let es = a.country_by_iso2("es").unwrap();
        let km = a.distance_to_country_km(&GeoPoint::new(50.11, 8.68), es);
        let at_limit_ms = km / ICLAB_SPEED_LIMIT_KM_PER_MS;
        let check = |ms: f64| IclabChecker.check(a, es, &[obs(50.11, 8.68, ms)]);
        assert_eq!(check(at_limit_ms * 1.01), IclabVerdict::Accepted);
        assert!(km / (at_limit_ms * 0.99) < geokit::FIBER_SPEED_KM_PER_MS);
        assert_eq!(check(at_limit_ms * 0.99), IclabVerdict::Rejected);
    }

    #[test]
    fn no_observations_accepts() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        assert_eq!(IclabChecker.check(a, de, &[]), IclabVerdict::Accepted);
    }
}
