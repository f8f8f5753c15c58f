//! CBG++ (§5.1): CBG hardened against underestimation.
//!
//! Two modifications over CBG:
//!
//! 1. **Slowline.** Bestline speeds are clamped into
//!    `[84.5, 200] km/ms`: no landmark is farther than half the Earth's
//!    circumference, and one-way times over 237 ms carry no information,
//!    so slower calibrations are physically meaningless.
//! 2. **Baseline-region filtering.** First find the largest subset of
//!    *baseline* disks (raw 200 km/ms physics) with nonempty
//!    intersection — the "baseline region". Discard any bestline disk
//!    that does not overlap it. Then find the largest consistent subset
//!    of the surviving bestline disks; its intersection (within the
//!    baseline region) is the prediction.
//!
//! Retested on the crowdsourced hosts, the paper reports this eliminated
//! every remaining case where the prediction missed the true location —
//! the property our crowd-validation integration test checks.

use crate::algorithms::{Geolocator, Prediction};
use crate::delay_model::CbgModel;
use crate::multilateration::subset::constraint_overlaps_region;
use crate::multilateration::{max_consistent_subset_profiled, DiskCache, RingConstraint};
use crate::observation::Observation;
use geokit::Region;

/// The CBG++ algorithm (both §5.1 modifications enabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct CbgPlusPlus;

impl Geolocator for CbgPlusPlus {
    fn name(&self) -> &'static str {
        "CBG++"
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        CbgPlusPlusVariant::default().locate(observations, mask)
    }
}

impl CbgPlusPlus {
    /// [`Geolocator::locate`] with both constraint passes drawing disks
    /// from a shared [`DiskCache`] when one is given, narrating its stage
    /// funnel (baseline region, bestline filter, subset search,
    /// empty-region causes) through an [`obs::Recorder`].
    pub fn locate_traced(
        &self,
        observations: &[Observation],
        mask: &Region,
        cache: Option<&DiskCache>,
        rec: &obs::Recorder,
    ) -> Prediction {
        CbgPlusPlusVariant::default().locate_impl(observations, mask, cache, rec)
    }
}

/// CBG++ with each §5.1 modification individually switchable — the
/// ablation surface for the design-choice benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct CbgPlusPlusVariant {
    /// Clamp bestline speeds at the slowline (84.5 km/ms).
    pub use_slowline: bool,
    /// Filter bestline disks against the baseline region and fall back
    /// to it.
    pub use_baseline_filter: bool,
}

impl Default for CbgPlusPlusVariant {
    fn default() -> Self {
        CbgPlusPlusVariant {
            use_slowline: true,
            use_baseline_filter: true,
        }
    }
}

impl Geolocator for CbgPlusPlusVariant {
    fn name(&self) -> &'static str {
        match (self.use_slowline, self.use_baseline_filter) {
            (true, true) => "CBG++",
            (true, false) => "CBG++ (no baseline filter)",
            (false, true) => "CBG++ (no slowline)",
            (false, false) => "CBG + subset search",
        }
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        self.locate_impl(observations, mask, None, &obs::Recorder::off())
    }
}

impl CbgPlusPlusVariant {
    fn locate_impl(
        &self,
        observations: &[Observation],
        mask: &Region,
        cache: Option<&DiskCache>,
        rec: &obs::Recorder,
    ) -> Prediction {
        let subset = |constraints: &[RingConstraint], m: &Region| {
            max_consistent_subset_profiled(constraints, m, cache, rec)
        };
        let slack = crate::multilateration::constraint::grid_slack_km(mask.grid());

        let search_mask: Region;
        let baseline_region: Option<&Region> = if self.use_baseline_filter {
            let baseline_span = rec.profile_span("cbgpp.baseline");
            // Baseline disks: pure physics, cannot underestimate.
            let baseline: Vec<RingConstraint> = observations
                .iter()
                .map(|o| {
                    RingConstraint::disk(
                        o.landmark,
                        CbgModel::baseline_distance_km(o.one_way_ms),
                    )
                    .inflated(slack)
                })
                .collect();
            let base = subset(&baseline, mask);
            drop(baseline_span);
            search_mask = base.region;
            rec.record("alg.baseline_cells", u64::from(search_mask.cell_count()));
            if rec.events_enabled() {
                rec.event(
                    "cbgpp",
                    "baseline",
                    vec![
                        ("disks", baseline.len().into()),
                        ("satisfied", base.satisfied.into()),
                        ("cells", search_mask.cell_count().into()),
                    ],
                );
            }
            if search_mask.is_empty() {
                rec.count("alg.empty_region", 1);
                if rec.events_enabled() {
                    rec.event(
                        "cbgpp",
                        "empty_region",
                        vec![("stage", "baseline".into())],
                    );
                }
                return Prediction {
                    region: search_mask,
                };
            }
            Some(&search_mask)
        } else {
            None
        };
        let effective_mask = baseline_region.unwrap_or(mask);

        // Covers the bestline build + overlap filter + subset search
        // (early returns drop it at scope exit).
        let _bestline_span = rec.profile_span("cbgpp.bestline");
        let bestline: Vec<RingConstraint> = observations
            .iter()
            .map(|o| {
                let model = if self.use_slowline {
                    CbgModel::calibrate_with_slowline(&o.calibration)
                } else {
                    CbgModel::calibrate(&o.calibration)
                };
                RingConstraint::disk(o.landmark, model.max_distance_km(o.one_way_ms))
                    .inflated(slack)
            })
            .filter(|c| match baseline_region {
                Some(region) => constraint_overlaps_region(c, region),
                None => true,
            })
            .collect();
        let dropped = observations.len() - bestline.len();
        rec.count("alg.bestline_dropped", dropped as u64);
        if rec.events_enabled() {
            rec.event(
                "cbgpp",
                "bestline_filter",
                vec![
                    ("input", observations.len().into()),
                    ("kept", bestline.len().into()),
                ],
            );
        }
        if bestline.is_empty() {
            rec.count("alg.baseline_fallback", 1);
            if rec.events_enabled() {
                rec.event(
                    "cbgpp",
                    "baseline_fallback",
                    vec![("cells", effective_mask.cell_count().into())],
                );
            }
            return Prediction {
                region: effective_mask.clone(),
            };
        }
        let result = subset(&bestline, effective_mask);
        rec.record("alg.region_cells", u64::from(result.region.cell_count()));
        if result.region.is_empty() {
            rec.count("alg.empty_region", 1);
        }
        if rec.events_enabled() {
            rec.event(
                "cbgpp",
                "subset",
                vec![
                    ("satisfied", result.satisfied.into()),
                    ("total", result.total.into()),
                    ("cells", result.region.cell_count().into()),
                ],
            );
            if result.region.is_empty() {
                rec.event(
                    "cbgpp",
                    "empty_region",
                    vec![("stage", "bestline".into())],
                );
            }
        }
        Prediction {
            region: result.region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Cbg;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};

    fn calib() -> CalibrationSet {
        CalibrationSet::from_points(
            (1..=50)
                .map(|i| {
                    let d = f64::from(i) * 200.0;
                    (d, d / 100.0 + 0.2 + f64::from(i % 5))
                })
                .collect(),
        )
    }

    #[test]
    fn agrees_with_cbg_on_clean_data() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.0, 8.0);
        let observations: Vec<Observation> = [(52.0, 4.0), (45.0, 12.0), (55.0, 12.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 100.0 + 0.4, calib())
            })
            .collect();
        let pp = CbgPlusPlus.locate(&observations, &mask);
        assert!(pp.region.contains_point(&truth));
        // On clean data the subset search keeps everything, so CBG++ is
        // no larger than necessary: its region covers CBG's.
        let plain = Cbg.locate(&observations, &mask);
        assert!(plain.region.is_subset_of(&pp.region) || plain.region.is_empty());
    }

    #[test]
    fn never_empty_where_cbg_fails() {
        // The canonical failure: two mutually-exclusive underestimating
        // disks. CBG → empty; CBG++ → drops one disk and survives.
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let a = GeoPoint::new(50.0, 0.0);
        let b = GeoPoint::new(50.0, 40.0);
        let observations = vec![
            Observation::new(a, 1.2, calib()),
            Observation::new(b, 1.2, calib()),
        ];
        assert!(Cbg.locate(&observations, &mask).region.is_empty());
        let pp = CbgPlusPlus.locate(&observations, &mask);
        assert!(!pp.region.is_empty(), "CBG++ must always predict somewhere");
    }

    #[test]
    fn slowline_grows_disks_under_congested_calibration() {
        // A congested calibration (all points slow) makes plain CBG's
        // bestline slow → disks too small → truth missed. The slowline
        // clamp keeps CBG++ honest.
        let slow_calib = CalibrationSet::from_points(
            (1..=40)
                .map(|i| {
                    let d = f64::from(i) * 100.0;
                    (d, d / 40.0 + 1.0) // 40 km/ms effective — nonsense-slow
                })
                .collect(),
        );
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        // Truth on a 1° cell centre; true network speed on measurement
        // day is 80 km/ms — much faster than the congested 40 km/ms
        // calibration, but below the slowline's 84.5 km/ms, so the
        // clamped model must cover it. Delays carry the same ~2.4 ms
        // fixed overhead the calibration's intercept accounts for.
        let truth = GeoPoint::new(48.5, 20.5);
        let observations: Vec<Observation> = [(55.0, 0.0), (38.0, 32.0), (60.0, 30.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 80.0 + 2.4, slow_calib.clone())
            })
            .collect();
        let plain = Cbg.locate(&observations, &mask);
        let pp = CbgPlusPlus.locate(&observations, &mask);
        assert!(
            !plain.region.contains_point(&truth),
            "plain CBG should miss under a congested calibration"
        );
        assert!(
            pp.region.contains_point(&truth),
            "slowline-clamped CBG++ must cover the truth"
        );
    }

    #[test]
    fn baseline_region_is_a_fallback() {
        // If every bestline disk is discarded (all contradict physics),
        // the baseline region itself is returned.
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        // One observation with no calibration: bestline = baseline, so
        // this degenerates gracefully rather than panicking.
        let observations = vec![Observation::new(
            GeoPoint::new(10.0, 10.0),
            5.0,
            CalibrationSet::default(),
        )];
        let pp = CbgPlusPlus.locate(&observations, &mask);
        assert!(!pp.region.is_empty());
    }

    #[test]
    fn region_is_inside_baseline_physics() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.0, 8.0);
        let observations: Vec<Observation> = [(52.0, 4.0), (45.0, 12.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 100.0 + 0.4, calib())
            })
            .collect();
        let pp = CbgPlusPlus.locate(&observations, &mask);
        // Every predicted cell respects every baseline disk.
        for cell in pp.region.cells() {
            let p = pp.region.grid().center(cell);
            for o in &observations {
                let baseline = CbgModel::baseline_distance_km(o.one_way_ms);
                assert!(
                    o.landmark.distance_km(&p) <= baseline + 200.0, // one coarse cell of slack
                    "cell at {p} violates baseline physics"
                );
            }
        }
    }
}
