//! Original Octant's "height" correction (§3.2 / related work).
//!
//! The original Octant "includes features that depend on route traces,
//! such as a 'height' factor to eliminate the effect of a slow first hop
//! from any given landmark" — the paper omits it ("Quasi-Octant") because
//! proxies break traceroute. For *direct* measurements (the crowd
//! validation, our test-bench servers) traceroute works, so the original
//! algorithm is implementable: per-landmark heights (half the landmark's
//! first-hop RTT) and the target's own height are subtracted from each
//! one-way delay before the envelope evaluation.

use crate::algorithms::{Geolocator, Prediction, QuasiOctant};
use crate::observation::Observation;
use geokit::{GeoPoint, Region};

/// Octant with the height correction restored.
#[derive(Debug, Clone, Default)]
pub struct OctantWithHeight {
    /// Per-landmark one-way heights, ms, matched by landmark location
    /// (half the landmark's measured first-hop RTT).
    pub landmark_heights: Vec<(GeoPoint, f64)>,
    /// The target's own one-way height, ms (half its first-hop RTT; zero
    /// when unknown — e.g. for uncooperative proxies).
    pub target_height_ms: f64,
}

impl OctantWithHeight {
    /// Height for a landmark (0 if not measured).
    fn height_for(&self, landmark: &GeoPoint) -> f64 {
        self.landmark_heights
            .iter()
            .find(|(lm, _)| lm == landmark)
            .map_or(0.0, |&(_, h)| h)
    }
}

impl Geolocator for OctantWithHeight {
    fn name(&self) -> &'static str {
        "Octant (with height)"
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        // Subtract both endpoints' heights from each delay; the envelope
        // then models wire time rather than wire + stack time.
        let corrected: Vec<Observation> = observations
            .iter()
            .map(|o| {
                let h = self.height_for(&o.landmark) + self.target_height_ms;
                Observation::new(
                    o.landmark,
                    (o.one_way_ms - h).max(0.0),
                    o.calibration.clone(),
                )
            })
            .collect();
        QuasiOctant.locate(&corrected, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::GeoGrid;

    /// Calibration whose delays include a fixed 3 ms "stack" overhead on
    /// top of a clean 100 km/ms wire — the regime the height correction
    /// targets.
    fn overheaded_calib() -> CalibrationSet {
        CalibrationSet::from_points(
            (1..=60)
                .map(|i| {
                    let d = f64::from(i) * 150.0;
                    let jitter = 1.0 + 0.002 * f64::from(i % 7);
                    (d, d / 100.0 * jitter + 3.0)
                })
                .collect(),
        )
    }

    #[test]
    fn height_correction_restores_coverage_for_light_targets() {
        // Both the calibration and the measurements carry a fixed 3 ms
        // endpoint overhead. Quasi-Octant treats that overhead as wire
        // time, which skews the envelope; the original Octant subtracts
        // each endpoint's measured height so the envelope models wire
        // time only, and the ring brackets the truth again.
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.5, 8.5);
        let landmarks = [(53.0, 3.0), (46.0, 13.0), (54.0, 13.0)];
        // Measured delays carry the same 3 ms overhead as calibration
        // (1.5 per endpoint): heights of 1.5 ms per side are correct.
        let obs: Vec<Observation> = landmarks
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(
                    lm,
                    lm.distance_km(&truth) / 100.0 * 1.005 + 3.0,
                    overheaded_calib(),
                )
            })
            .collect();
        // Uncorrected baseline for comparison.
        let plain = QuasiOctant.locate(&obs, &mask);
        // Heights must be removed from *both* sides: the measured delays
        // (via OctantWithHeight) and the calibration scatter (rebuilt
        // here), exactly as the original Octant calibrates on
        // height-corrected traces.
        let corrected_calib = CalibrationSet::from_points(
            overheaded_calib()
                .points()
                .iter()
                .map(|&(d, t)| (d, t - 3.0))
                .collect(),
        );
        let obs_corrected_calib: Vec<Observation> = obs
            .iter()
            .map(|o| Observation::new(o.landmark, o.one_way_ms, corrected_calib.clone()))
            .collect();
        let with_height = OctantWithHeight {
            landmark_heights: landmarks
                .iter()
                .map(|&(lat, lon)| (GeoPoint::new(lat, lon), 1.5))
                .collect(),
            target_height_ms: 1.5,
        };
        let corrected = with_height.locate(&obs_corrected_calib, &mask);
        assert!(
            corrected.region.contains_point(&truth),
            "height-corrected Octant must cover the truth"
        );
        // And the corrected region should be at least as accurate as the
        // uncorrected one.
        let miss_plain = plain.region.distance_from_km(&truth).unwrap_or(f64::MAX);
        let miss_corr = corrected.region.distance_from_km(&truth).unwrap();
        assert!(miss_corr <= miss_plain);
    }

    #[test]
    fn zero_heights_reduce_to_quasi_octant() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(48.0, 10.0);
        let obs: Vec<Observation> = [(52.0, 4.0), (45.0, 15.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(
                    lm,
                    lm.distance_km(&truth) / 100.0 * 1.003,
                    overheaded_calib(),
                )
            })
            .collect();
        let a = OctantWithHeight::default().locate(&obs, &mask);
        let b = QuasiOctant.locate(&obs, &mask);
        assert_eq!(a.region.cell_count(), b.region.cell_count());
    }

    #[test]
    fn heights_never_produce_negative_delays() {
        let grid = GeoGrid::new(4.0);
        let mask = Region::full(grid);
        let lm = GeoPoint::new(50.0, 8.0);
        let obs = vec![Observation::new(lm, 0.5, overheaded_calib())];
        let algo = OctantWithHeight {
            landmark_heights: vec![(lm, 10.0)],
            target_height_ms: 10.0,
        };
        // Must not panic on the (0.5 − 20) ms underflow.
        let p = algo.locate(&obs, &mask);
        assert!(!p.region.is_empty());
    }
}
