//! Spotter's probabilistic multilateration (§3.3).
//!
//! Each landmark contributes a ring-shaped Gaussian likelihood over the
//! Earth's surface (distance ~ N(μ(t), σ(t)²)); the landmarks' rings are
//! combined "using Bayes' Rule" — with a uniform-over-land prior this is
//! a per-cell product of densities. The final prediction region is the
//! smallest credible set: cells accumulated in decreasing probability
//! until the requested mass is covered.

use crate::delay_model::SpotterModel;
use geokit::{GeoPoint, Region};

/// Output of a Bayesian multilateration.
#[derive(Debug)]
pub struct BayesOutput {
    /// The credible region (highest-density cells holding `mass`).
    pub region: Region,
    /// Probability-weighted centroid of the full posterior.
    pub centroid: Option<GeoPoint>,
}

/// Combine landmark observations into a credible region over `mask`.
///
/// `observations` are (landmark, one-way ms) pairs; `mass` is the
/// credible-set probability (the study uses 0.95).
///
/// # Panics
/// Panics if `mass` is not within `(0, 1]`.
pub fn bayes_region(
    observations: &[(GeoPoint, f64)],
    model: &SpotterModel,
    mask: &Region,
    mass: f64,
) -> BayesOutput {
    assert!(
        mass > 0.0 && mass <= 1.0,
        "credible mass {mass} out of range"
    );
    let grid = mask.grid();
    let cells: Vec<geokit::CellId> = mask.cells().collect();
    if cells.is_empty() {
        return BayesOutput {
            region: Region::empty(std::sync::Arc::clone(grid)),
            centroid: None,
        };
    }

    // Log-likelihood per cell (uniform prior over the mask). Distances
    // come from the grid's cached cell-centre trig tables (spherical law
    // of cosines) — each landmark's trig is evaluated once, not once per
    // cell, and agrees with the haversine to ~1e-4 km, far below the
    // delay model's ~100 km σ.
    let trig = grid.trig();
    let landmarks: Vec<(geokit::PointTrig, f64)> = observations
        .iter()
        .map(|(lm, t)| (geokit::PointTrig::new(lm), *t))
        .collect();
    // Landmark-outer accumulation: each landmark streams its density
    // over the flat cell vector in one pass, so the per-cell trig table
    // lookups are sequential and the landmark's (PointTrig, t) pair
    // stays in registers. Per cell, the additions still happen in the
    // same order as the cell-outer loop — landmark 0, landmark 1, …,
    // then the area term — so every logp is bit-identical to before.
    let mut logps: Vec<f64> = vec![0.0; cells.len()];
    for &(ref lm, t) in &landmarks {
        for (logp, &cell) in logps.iter_mut().zip(&cells) {
            *logp += model.log_density(t, trig.distance_to_cell_km(lm, cell));
        }
    }
    // Weight by cell area so the posterior is over *area*, not cells.
    for (logp, &cell) in logps.iter_mut().zip(&cells) {
        *logp += grid.cell_area_km2(cell).ln();
    }

    // Normalize via log-sum-exp.
    let max_logp = logps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut probs: Vec<f64> = logps.iter().map(|&lp| (lp - max_logp).exp()).collect();
    let total: f64 = probs.iter().sum();
    for p in &mut probs {
        *p /= total;
    }

    // Probability-weighted centroid.
    let mut acc = [0.0f64; 3];
    for (&cell, &p) in cells.iter().zip(&probs) {
        let v = grid.center(cell).to_unit_vector();
        acc[0] += v[0] * p;
        acc[1] += v[1] * p;
        acc[2] += v[2] * p;
    }
    let centroid = GeoPoint::from_vector(acc);

    // Credible set: cells in decreasing probability until `mass`.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).expect("finite probs"));
    let mut region = Region::empty(std::sync::Arc::clone(grid));
    let mut acc_mass = 0.0;
    for idx in order {
        region.insert(cells[idx]);
        acc_mass += probs[idx];
        if acc_mass >= mass {
            break;
        }
    }
    BayesOutput { region, centroid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::GeoGrid;

    /// A clean model: distance ≈ 100·t km with σ ≈ 60 + 2t.
    fn model() -> SpotterModel {
        let mut pts = Vec::new();
        for i in 1..=300 {
            let t = f64::from(i) * 0.5;
            let wiggle = f64::from((i * 13) % 7) - 3.0;
            pts.push(((t * 100.0 + wiggle * (20.0 + t)).max(0.0), t));
        }
        let set = CalibrationSet::from_points(pts);
        SpotterModel::calibrate(&[&set])
    }

    #[test]
    fn posterior_peaks_near_truth() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let m = model();
        let truth = GeoPoint::new(48.0, 8.0);
        // Landmarks around the truth, delays = distance / 100 km/ms.
        let landmarks = [
            GeoPoint::new(52.0, 4.0),
            GeoPoint::new(45.0, 12.0),
            GeoPoint::new(50.0, 14.0),
            GeoPoint::new(44.0, 2.0),
        ];
        let obs: Vec<(GeoPoint, f64)> = landmarks
            .iter()
            .map(|lm| (*lm, lm.distance_km(&truth) / 100.0))
            .collect();
        let out = bayes_region(&obs, &m, &mask, 0.95);
        assert!(!out.region.is_empty());
        let c = out.centroid.expect("nonempty posterior");
        assert!(
            c.distance_km(&truth) < 700.0,
            "centroid {c} too far from truth"
        );
        assert!(out.region.contains_point(&truth));
    }

    #[test]
    fn higher_mass_means_bigger_region() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        let m = model();
        let obs = [(GeoPoint::new(50.0, 10.0), 10.0)];
        let small = bayes_region(&obs, &m, &mask, 0.5);
        let big = bayes_region(&obs, &m, &mask, 0.99);
        assert!(big.region.cell_count() >= small.region.cell_count());
    }

    #[test]
    fn empty_mask_yields_empty_output() {
        let grid = GeoGrid::new(4.0);
        let mask = Region::empty(grid);
        let out = bayes_region(&[(GeoPoint::new(0.0, 0.0), 5.0)], &model(), &mask, 0.9);
        assert!(out.region.is_empty());
        assert!(out.centroid.is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_mass_panics() {
        let grid = GeoGrid::new(4.0);
        let mask = Region::full(grid);
        bayes_region(&[], &model(), &mask, 0.0);
    }

    #[test]
    fn no_observations_spreads_over_mask() {
        // With no evidence the posterior is area-uniform: the 50 %
        // credible set covers roughly half the mask area.
        let grid = GeoGrid::new(4.0);
        let mask = Region::full(grid);
        let out = bayes_region(&[], &model(), &mask, 0.5);
        let frac = out.region.area_km2() / mask.area_km2();
        assert!((0.4..0.6).contains(&frac), "fraction {frac}");
    }
}
