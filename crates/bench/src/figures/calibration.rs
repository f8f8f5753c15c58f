//! Fig. 2 (calibration scatter + fitted models) and Fig. 10 (bestline /
//! baseline estimate-to-truth ratios).

use crate::render::{render_histogram, render_scatter};
use crate::scale::CrowdContext;
use geoloc::delay_model::{CbgModel, OctantModel, SpotterModel};
use std::fmt::Write as _;

/// Fig. 2: one European anchor's calibration scatter with the CBG
/// bestline/baseline/slowline, the Quasi-Octant envelopes, and the
/// Spotter μ ± kσ bands.
pub fn fig2_calibration(ctx: &CrowdContext) -> String {
    let mut out = String::new();
    // Anchor 0 is European by construction (Europe's quota comes first).
    let anchor_idx = 0;
    let set = ctx.calibration.for_anchor(anchor_idx);
    let anchor = &ctx.constellation.anchors()[anchor_idx];
    let _ = writeln!(
        out,
        "# Fig.2: calibration for anchor 0 at {} ({} peers)",
        anchor.location,
        set.len()
    );
    out.push_str(&render_scatter(
        "calibration",
        "distance_km,one_way_ms",
        set.points(),
    ));

    let cbg = CbgModel::calibrate(set);
    let cbgpp = CbgModel::calibrate_with_slowline(set);
    let _ = writeln!(
        out,
        "# CBG bestline: t = {:.3} + d/{:.1}  (speed {:.1} km/ms; paper example: 93.5)",
        cbg.intercept_ms,
        cbg.speed_km_per_ms(),
        cbg.speed_km_per_ms()
    );
    let _ = writeln!(
        out,
        "# baseline speed: 200 km/ms; slowline speed: 84.5 km/ms"
    );
    let _ = writeln!(
        out,
        "# CBG++ (slowline-clamped) speed: {:.1} km/ms",
        cbgpp.speed_km_per_ms()
    );

    let octant = OctantModel::calibrate(set);
    let _ = writeln!(out, "# Quasi-Octant envelope (delay_ms,min_km,max_km):");
    for t in [2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0] {
        let _ = writeln!(
            out,
            "{t:.1},{:.0},{:.0}",
            octant.min_distance_km(t),
            octant.max_distance_km(t)
        );
    }

    // Spotter fits pooled data; pool a handful of anchors.
    let pool: Vec<&atlas::CalibrationSet> = (0..ctx.constellation.num_anchors().min(12))
        .map(|i| ctx.calibration.for_anchor(i))
        .collect();
    let spotter = SpotterModel::calibrate(&pool);
    let _ = writeln!(out, "# Spotter bands (delay_ms,mu_km,sigma_km):");
    for t in [2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0] {
        let _ = writeln!(
            out,
            "{t:.1},{:.0},{:.0}",
            spotter.mu_km(t),
            spotter.sigma_km(t)
        );
    }
    out
}

/// Fig. 10: the distribution of bestline and baseline distance-estimate
/// to true-distance ratios over all anchor pairs, slowline applied
/// ("a small fraction of all bestline estimates are still too short").
pub fn fig10_estimate_ratios(ctx: &CrowdContext) -> String {
    let mut best_ratios = Vec::new();
    let mut base_ratios = Vec::new();
    let mut best_under = 0usize;
    let mut base_under = 0usize;
    for i in 0..ctx.constellation.num_anchors() {
        let set = ctx.calibration.for_anchor(i);
        let model = CbgModel::calibrate_with_slowline(set);
        for &(dist, one_way) in set.points() {
            if dist < 50.0 {
                continue; // sub-cell pairs have meaningless ratios
            }
            let best = model.max_distance_km(one_way) / dist;
            let base = CbgModel::baseline_distance_km(one_way) / dist;
            if best < 1.0 {
                best_under += 1;
            }
            if base < 1.0 {
                base_under += 1;
            }
            best_ratios.push(best.min(5.0));
            base_ratios.push(base.min(5.0));
        }
    }
    let mut out = String::new();
    let n = best_ratios.len();
    let _ = writeln!(
        out,
        "# Fig.10: estimate/true distance ratios over {n} anchor-pair measurements"
    );
    let _ = writeln!(
        out,
        "# bestline underestimates: {best_under} ({:.2} %); baseline underestimates: {base_under} ({:.2} %)",
        100.0 * best_under as f64 / n as f64,
        100.0 * base_under as f64 / n as f64
    );
    out.push_str(&render_histogram(
        "bestline ratio",
        &best_ratios,
        0.0,
        5.0,
        25,
    ));
    out.push_str(&render_histogram(
        "baseline ratio",
        &base_ratios,
        0.0,
        5.0,
        25,
    ));
    out
}
