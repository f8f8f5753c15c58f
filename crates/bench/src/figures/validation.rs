//! Fig. 9 (the four-algorithm comparison on crowdsourced hosts) and
//! Fig. 11 (measurement effectiveness vs landmark distance).

use crate::render::render_ecdf;
use crate::scale::CrowdContext;
use geokit::{GeoPoint, Region, EARTH_LAND_AREA_KM2};
use geoloc::algorithms::{Cbg, CbgPlusPlus, Hybrid, QuasiOctant, ShortestPing, Spotter};
use geoloc::delay_model::{CbgModel, SpotterModel};
use geoloc::effectiveness::analyze_effectiveness;
use geoloc::multilateration::RingConstraint;
use geoloc::{Geolocator, Observation};
use std::fmt::Write as _;

/// Per-algorithm accuracy records for one crowd cohort.
pub struct AlgorithmScores {
    /// Algorithm display name.
    pub name: &'static str,
    /// Distance from the predicted region's edge to the true location,
    /// km (0 = covered). Panel A.
    pub miss_km: Vec<f64>,
    /// Distance from the region centroid to the true location, km.
    /// Panel B.
    pub centroid_km: Vec<f64>,
    /// Region area, km² (Panel C divides it by Earth's land area).
    pub area_km2: Vec<f64>,
    /// Hosts for which the algorithm produced no region at all.
    pub empty: usize,
}

impl AlgorithmScores {
    /// Fraction of hosts whose true location was inside the region. A
    /// host with an empty prediction counts as a miss.
    pub fn coverage(&self) -> f64 {
        let hosts = self.miss_km.len() + self.empty;
        if hosts == 0 {
            return 0.0;
        }
        let hit = self.miss_km.iter().filter(|&&m| m == 0.0).count();
        hit as f64 / hosts as f64
    }
}

/// Score `algo` on each host, given as its true location and the
/// observations to locate it from. Fig. 9 and the ablations both score
/// through here, so one rule decides coverage.
pub fn score_algorithm<'a>(
    algo: &dyn Geolocator,
    mask: &Region,
    hosts: impl IntoIterator<Item = (GeoPoint, &'a [Observation])>,
) -> AlgorithmScores {
    let mut scores = AlgorithmScores {
        name: algo.name(),
        miss_km: Vec::new(),
        centroid_km: Vec::new(),
        area_km2: Vec::new(),
        empty: 0,
    };
    for (truth, observations) in hosts {
        let p = algo.locate(observations, mask);
        match p.region.distance_from_km(&truth) {
            Some(miss) => {
                scores.miss_km.push(miss);
                if let Some(c) = p.region.centroid() {
                    scores.centroid_km.push(c.distance_km(&truth));
                }
                scores.area_km2.push(p.area_km2());
            }
            None => scores.empty += 1,
        }
    }
    scores
}

/// Score every algorithm on every measured crowd host (paired inputs).
pub fn score_algorithms(ctx: &CrowdContext) -> Vec<AlgorithmScores> {
    let mask = ctx.mask();
    // Global Spotter model pooled over the anchor mesh.
    let pool: Vec<&atlas::CalibrationSet> = (0..ctx.constellation.num_anchors())
        .map(|i| ctx.calibration.for_anchor(i))
        .collect();
    let spotter_model = SpotterModel::calibrate(&pool);

    let algorithms: [Box<dyn Geolocator>; 6] = [
        Box::new(ShortestPing),
        Box::new(Cbg),
        Box::new(QuasiOctant),
        Box::new(Spotter::new(spotter_model.clone())),
        Box::new(Hybrid::new(spotter_model)),
        Box::new(CbgPlusPlus),
    ];
    algorithms
        .iter()
        .map(|algo| {
            let hosts = ctx
                .records
                .iter()
                .map(|r| (r.host.true_location, r.observations.as_slice()));
            score_algorithm(algo.as_ref(), &mask, hosts)
        })
        .collect()
}

/// Fig. 9: ECDFs of (A) miss distance, (B) centroid distance, (C) area
/// fraction for the algorithms, plus coverage summaries.
pub fn fig9_algorithm_comparison(ctx: &CrowdContext) -> String {
    let scores = score_algorithms(ctx);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig.9: algorithm comparison over {} crowd hosts",
        ctx.records.len()
    );
    for s in &scores {
        let _ = writeln!(
            out,
            "# {:<13} coverage {:>5.1} %   empty predictions {}",
            s.name,
            s.coverage() * 100.0,
            s.empty
        );
    }
    let _ = writeln!(
        out,
        "# paper shape: CBG covers ~90 %, others ~50 % or less; CBG++ covers everything"
    );
    for s in &scores {
        out.push_str(&render_ecdf(
            &format!("A miss_km {}", s.name),
            &s.miss_km,
            0.0,
            20_000.0,
            41,
        ));
        out.push_str(&render_ecdf(
            &format!("B centroid_km {}", s.name),
            &s.centroid_km,
            0.0,
            20_000.0,
            41,
        ));
        let area_fraction: Vec<f64> = s.area_km2.iter().map(|a| a / EARTH_LAND_AREA_KM2).collect();
        out.push_str(&render_ecdf(
            &format!("C area_fraction {}", s.name),
            &area_fraction,
            0.0,
            1.0,
            41,
        ));
    }
    out
}

/// Fig. 11: which measurements actually shrink the final region, as a
/// function of landmark–target distance.
pub fn fig11_effectiveness(ctx: &mut CrowdContext) -> String {
    let mask = ctx.mask();
    let mut by_bin: Vec<(usize, usize)> = vec![(0, 0); 16]; // (effective, total) per 1000 km
    let mut reductions: Vec<(f64, f64)> = Vec::new(); // (distance, area reduction Mm²)

    // Measure every anchor from each host (the paper measured all 250
    // anchors for this analysis), then leave-one-out.
    let hosts: Vec<(netsim::NodeId, geokit::GeoPoint)> = ctx
        .records
        .iter()
        .take(30) // leave-one-out is quadratic; a subset carries the shape
        .map(|r| (r.host.node, r.host.true_location))
        .collect();
    for (node, truth) in hosts {
        let mut observations: Vec<Observation> = Vec::new();
        for (i, anchor) in ctx.constellation.anchors().iter().enumerate() {
            let Some(rtt) = ctx
                .world
                .network_mut()
                .tcp_connect_rtt(node, anchor.node, 80)
            else {
                continue;
            };
            observations.push(Observation::new(
                anchor.location,
                rtt.as_ms() / 2.0,
                ctx.calibration.for_anchor(i).clone(),
            ));
        }
        let slack = geoloc::multilateration::constraint::grid_slack_km(mask.grid());
        let constraints: Vec<RingConstraint> = observations
            .iter()
            .map(|o| {
                let m = CbgModel::calibrate_with_slowline(&o.calibration);
                RingConstraint::disk(o.landmark, m.max_distance_km(o.one_way_ms)).inflated(slack)
            })
            .collect();
        let eff = analyze_effectiveness(&constraints, &mask);
        for (e, o) in eff.iter().zip(&observations) {
            let dist = o.landmark.distance_km(&truth);
            let bin = ((dist / 1000.0) as usize).min(by_bin.len() - 1);
            by_bin[bin].1 += 1;
            if e.effective {
                by_bin[bin].0 += 1;
                reductions.push((dist, e.area_reduction_km2 / 1e6));
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig.11: effective vs ineffective measurements by distance"
    );
    let _ = writeln!(out, "# bin_km,effective,total,fraction");
    for (i, &(e, t)) in by_bin.iter().enumerate() {
        if t == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{}..{},{e},{t},{:.3}",
            i * 1000,
            (i + 1) * 1000,
            e as f64 / t as f64
        );
    }
    let _ = writeln!(
        out,
        "# effective measurements: distance_km,area_reduction_Mm2"
    );
    for (d, r) in &reductions {
        let _ = writeln!(out, "{d:.0},{r:.4}");
    }
    if reductions.len() >= 3 {
        let corr = geokit::stats::spearman(&reductions);
        let _ = writeln!(
            out,
            "# Spearman(distance, reduction among effective) = {:?} (paper: no correlation)",
            corr
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{score_algorithm, AlgorithmScores};
    use geokit::{GeoGrid, GeoPoint, Region};
    use geoloc::algorithms::Cbg;
    use geoloc::Observation;

    #[test]
    fn coverage_counts_empty_predictions_as_misses() {
        let scores = |miss_km: Vec<f64>, empty| AlgorithmScores {
            name: "test",
            miss_km,
            centroid_km: Vec::new(),
            area_km2: Vec::new(),
            empty,
        };
        assert_eq!(scores(vec![0.0, 0.0, 120.0], 1).coverage(), 0.5);
        assert_eq!(scores(vec![0.0; 189], 1).coverage(), 189.0 / 190.0);
        assert_eq!(scores(Vec::new(), 3).coverage(), 0.0);
        assert_eq!(scores(Vec::new(), 0).coverage(), 0.0);
    }

    #[test]
    fn an_empty_prediction_scores_as_a_miss() {
        let mask = Region::full(GeoGrid::new(2.0));
        let truth = GeoPoint::new(50.0, 8.0);
        let at = |lat, lon| Observation::new(GeoPoint::new(lat, lon), 1.0, Default::default());
        let near = [at(50.0, 8.0)];
        // Frankfurt and Sydney, 1 ms one-way each: the disks cannot
        // meet, so CBG returns an empty region.
        let apart = [at(50.0, 8.0), at(-33.9, 151.2)];
        let hosts = [(truth, &near[..]), (truth, &apart[..]), (truth, &near[..])];
        let s = score_algorithm(&Cbg, &mask, hosts);
        assert_eq!((s.miss_km.len(), s.empty), (2, 1));
        assert_eq!(s.coverage(), 2.0 / 3.0);
    }
}
