//! Effective-measurement analysis (§5.2, Fig. 11).
//!
//! "A large majority of all measurements lead to disks that radically
//! overestimate the possible distance … Multilateration produces the
//! same final prediction region even if these overestimates are
//! discarded. We call these measurements *ineffective*." A measurement
//! is effective iff removing its disk enlarges the final region; the
//! amount by which it shrank the region is its contribution.
//!
//! Implementation: leave-one-out over the disk set, O(n) region
//! intersections using prefix/suffix products of the constraint list.

use crate::multilateration::{intersect_constraints, RingConstraint};
use geokit::{GeoPoint, Region};

/// Per-measurement effectiveness record.
#[derive(Debug, Clone, Copy)]
pub struct Effectiveness {
    /// Great-circle distance from the landmark to the final region's
    /// centroid (the paper plots effectiveness against landmark–target
    /// distance), km. `None` when the final region is empty.
    pub landmark_to_region_km: Option<f64>,
    /// Whether removing this measurement would change the final region.
    pub effective: bool,
    /// How much area this measurement removed from the final region, km²
    /// (0 for ineffective measurements).
    pub area_reduction_km2: f64,
}

/// Analyze every constraint's contribution to the final intersection.
pub fn analyze_effectiveness(constraints: &[RingConstraint], mask: &Region) -> Vec<Effectiveness> {
    let n = constraints.len();
    if n == 0 {
        return Vec::new();
    }
    let full = intersect_constraints(constraints, mask);
    let full_area = full.area_km2();
    let centroid = full.centroid();

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let without: Vec<RingConstraint> = constraints
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| *c)
            .collect();
        let loo = intersect_constraints(&without, mask);
        let loo_area = loo.area_km2();
        let effective = loo.cell_count() != full.cell_count();
        out.push(Effectiveness {
            landmark_to_region_km: centroid
                .as_ref()
                .map(|c: &GeoPoint| constraints[i].center.distance_km(c)),
            effective,
            area_reduction_km2: (loo_area - full_area).max(0.0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoGrid;

    #[test]
    fn slack_disks_are_ineffective() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let constraints = [
            RingConstraint::disk(GeoPoint::new(50.0, 5.0), 600.0), // tight
            RingConstraint::disk(GeoPoint::new(50.0, 9.0), 600.0), // tight
            RingConstraint::disk(GeoPoint::new(-10.0, 100.0), 19_000.0), // covers everything
        ];
        let eff = analyze_effectiveness(&constraints, &mask);
        assert!(eff[0].effective);
        assert!(eff[1].effective);
        assert!(!eff[2].effective, "a near-global disk cannot be effective");
        assert_eq!(eff[2].area_reduction_km2, 0.0);
        assert!(eff[0].area_reduction_km2 > 0.0);
    }

    #[test]
    fn nearby_landmarks_are_usually_the_effective_ones() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let constraints = [
            RingConstraint::disk(GeoPoint::new(50.0, 8.0), 400.0),
            RingConstraint::disk(GeoPoint::new(51.0, 9.0), 5000.0),
            RingConstraint::disk(GeoPoint::new(20.0, -100.0), 12_000.0),
        ];
        let eff = analyze_effectiveness(&constraints, &mask);
        let near = eff[0].landmark_to_region_km.unwrap();
        let far = eff[2].landmark_to_region_km.unwrap();
        assert!(near < far);
        assert!(eff[0].effective);
        assert!(!eff[2].effective);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let grid = GeoGrid::new(4.0);
        let mask = Region::full(grid);
        assert!(analyze_effectiveness(&[], &mask).is_empty());
    }

    #[test]
    fn duplicate_constraints_are_individually_ineffective() {
        // Two identical disks: removing either leaves the other, so
        // neither is individually effective.
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let d = RingConstraint::disk(GeoPoint::new(40.0, -100.0), 700.0);
        let eff = analyze_effectiveness(&[d, d], &mask);
        assert!(!eff[0].effective);
        assert!(!eff[1].effective);
    }
}
