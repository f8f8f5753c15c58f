//! Quasi-Octant (§3.2): per-landmark min/max rings, plain intersection.

use crate::algorithms::{Geolocator, Prediction};
use crate::delay_model::OctantModel;
use crate::multilateration::{max_consistent_subset, RingConstraint};
use crate::observation::Observation;
use geokit::Region;

/// The Quasi-Octant algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuasiOctant;

impl Geolocator for QuasiOctant {
    fn name(&self) -> &'static str {
        "Quasi-Octant"
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        let slack = crate::multilateration::constraint::grid_slack_km(mask.grid());
        let constraints: Vec<RingConstraint> = observations
            .iter()
            .map(|obs| {
                let model = OctantModel::calibrate(&obs.calibration);
                let max = model.max_distance_km(obs.one_way_ms);
                let min = model.min_distance_km(obs.one_way_ms).min(max);
                RingConstraint::ring(obs.landmark, min, max).inflated(slack)
            })
            .collect();
        // Octant's multilateration is weight-based: every point scores
        // +1 per satisfied constraint and the highest-scoring region is
        // reported (Wong et al.). The max-consistent-subset search is
        // exactly that on the grid — and unlike a strict intersection it
        // degrades to a (wrong) region rather than to nothing when noisy
        // rings conflict, which is the behaviour Fig. 9 shows.
        Prediction {
            region: max_consistent_subset(&constraints, mask).region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};

    /// Clean calibration: speeds tightly around 100 km/ms.
    fn tight_calib() -> CalibrationSet {
        CalibrationSet::from_points(
            (1..=60)
                .map(|i| {
                    let d = f64::from(i) * 150.0;
                    let jitter = 1.0 + 0.002 * f64::from(i % 7); // ±0.7 % spread
                    (d, d / 100.0 * jitter)
                })
                .collect(),
        )
    }

    #[test]
    fn rings_cover_truth_under_clean_delays() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        // Truth sits exactly on a 1° cell centre so ring containment is
        // not at the mercy of grid quantization.
        let truth = GeoPoint::new(50.5, 8.5);
        let observations: Vec<Observation> = [(53.0, 3.0), (46.0, 13.0), (54.0, 13.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                // Delay inside the calibrated envelope (speeds 98.75–100
                // km/ms) so both ring edges bracket the truth.
                Observation::new(lm, lm.distance_km(&truth) / 100.0 * 1.005, tight_calib())
            })
            .collect();
        let p = QuasiOctant.locate(&observations, &mask);
        assert!(!p.region.is_empty());
        assert!(p.region.contains_point(&truth));
    }

    #[test]
    fn min_distance_excludes_the_landmark_itself() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let lm = GeoPoint::new(50.0, 8.0);
        // A substantial delay: the min-distance curve pushes the target
        // away from the landmark.
        let observations = vec![Observation::new(lm, 40.0, tight_calib())];
        let p = QuasiOctant.locate(&observations, &mask);
        assert!(!p.region.is_empty());
        assert!(
            !p.region.contains_point(&lm),
            "ring should exclude the landmark under a 40 ms delay"
        );
    }

    #[test]
    fn queueing_delay_breaks_the_ring() {
        // §2/§5: "a minimum travel distance assumption is invalid in the
        // face of large queueing delays" — inflate the delay and the
        // ring's inner edge overshoots the true location (the weighted
        // region still exists, it is just wrong).
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.0, 8.0);
        let lm = GeoPoint::new(51.0, 9.0); // ~130 km away
        let honest_ms = lm.distance_km(&truth) / 100.0;
        let congested = Observation::new(lm, honest_ms + 30.0, tight_calib());
        let p = QuasiOctant.locate(&[congested], &mask);
        assert!(
            !p.region.contains_point(&truth),
            "min-distance ring should have excluded the nearby truth"
        );
    }

    #[test]
    fn tighter_rings_beat_cbg_on_clean_data() {
        use crate::algorithms::Cbg;
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.5, 8.5);
        let observations: Vec<Observation> = [(53.0, 3.0), (46.0, 13.0), (54.0, 13.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 100.0 * 1.005, tight_calib())
            })
            .collect();
        let octant = QuasiOctant.locate(&observations, &mask);
        let cbg = Cbg.locate(&observations, &mask);
        assert!(
            octant.area_km2() <= cbg.area_km2(),
            "rings should be at most as large as disks on clean data"
        );
    }
}
