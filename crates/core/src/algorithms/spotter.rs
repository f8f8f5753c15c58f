//! Spotter (§3.3): Gaussian ring likelihoods combined by Bayes' rule.

use crate::algorithms::{Geolocator, Prediction};
use crate::delay_model::SpotterModel;
use crate::multilateration::bayes_region;
use crate::observation::Observation;
use geokit::Region;

/// The credible mass of the reported region.
pub const DEFAULT_CREDIBLE_MASS: f64 = 0.95;

/// The Spotter algorithm. Holds the single global delay model ("a single
/// fit is used for all landmarks").
#[derive(Debug, Clone)]
pub struct Spotter {
    model: SpotterModel,
    mass: f64,
}

impl Spotter {
    /// Build with the global model and the default 95 % credible mass.
    pub fn new(model: SpotterModel) -> Spotter {
        Spotter {
            model,
            mass: DEFAULT_CREDIBLE_MASS,
        }
    }

    /// Build with an explicit credible mass (ablation knob).
    pub fn with_mass(model: SpotterModel, mass: f64) -> Spotter {
        assert!(mass > 0.0 && mass <= 1.0, "credible mass {mass}");
        Spotter { model, mass }
    }

    /// Access the underlying model (shared with [`crate::algorithms::Hybrid`]).
    pub fn model(&self) -> &SpotterModel {
        &self.model
    }
}

impl Geolocator for Spotter {
    fn name(&self) -> &'static str {
        "Spotter"
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        let obs: Vec<(geokit::GeoPoint, f64)> = observations
            .iter()
            .map(|o| (o.landmark, o.one_way_ms))
            .collect();
        let out = bayes_region(&obs, &self.model, mask, self.mass);
        Prediction { region: out.region }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};

    fn global_model() -> SpotterModel {
        let mut pts = Vec::new();
        for i in 1..=400 {
            let t = f64::from(i) * 0.4;
            let wiggle = f64::from((i * 13) % 9) - 4.0;
            pts.push(((t * 95.0 + wiggle * (15.0 + t)).max(0.0), t));
        }
        let set = CalibrationSet::from_points(pts);
        SpotterModel::calibrate(&[&set])
    }

    #[test]
    fn finds_a_clean_target() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(48.0, 10.0);
        let observations: Vec<Observation> = [(52.0, 4.0), (45.0, 15.0), (53.0, 14.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 95.0, CalibrationSet::default())
            })
            .collect();
        let spotter = Spotter::new(global_model());
        let p = spotter.locate(&observations, &mask);
        assert!(!p.region.is_empty());
        assert!(p.region.contains_point(&truth));
    }

    #[test]
    fn upward_biased_delays_push_the_region_away() {
        // Spotter believes large delays mean large distances — an
        // upward-noise measurement displaces its credible region, the
        // §5 failure mode on crowdsourced (Windows/web) data.
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(48.0, 10.0);
        let lm = GeoPoint::new(50.0, 8.0); // ~270 km away
        let honest = lm.distance_km(&truth) / 95.0;
        let spotter = Spotter::new(global_model());
        let noisy = vec![Observation::new(
            lm,
            honest + 60.0, // a queueing/outlier spike
            CalibrationSet::default(),
        )];
        let p = spotter.locate(&noisy, &mask);
        assert!(
            !p.region.contains_point(&truth),
            "biased delay should displace Spotter's ring past the truth"
        );
    }

    #[test]
    fn credible_mass_scales_region() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        let obs = vec![Observation::new(
            GeoPoint::new(50.0, 10.0),
            12.0,
            CalibrationSet::default(),
        )];
        let narrow = Spotter::with_mass(global_model(), 0.5).locate(&obs, &mask);
        let wide = Spotter::with_mass(global_model(), 0.99).locate(&obs, &mask);
        assert!(wide.region.cell_count() > narrow.region.cell_count());
    }
}
