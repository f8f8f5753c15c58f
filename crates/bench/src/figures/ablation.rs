//! Ablations of the design choices DESIGN.md calls out: each CBG++
//! modification individually, the landmark budget, and iterative
//! refinement. Not a paper figure — the paper motivates each choice in
//! §5.1/§5.2; this quantifies them on our substrate.

use crate::scale::CrowdContext;
use geoloc::algorithms::CbgPlusPlusVariant;
use geoloc::Geolocator;
use std::fmt::Write as _;

/// Ablation sweep over the crowd cohort:
/// * CBG++ with slowline/baseline-filter toggled independently;
/// * CBG++ with the observation list truncated to its first k landmarks
///   (the phase-2 budget ablation — the paper uses 25).
pub fn ablation_cbgpp(ctx: &CrowdContext) -> String {
    let mask = ctx.mask();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: CBG++ design choices over {} crowd hosts",
        ctx.records.len()
    );

    let variants = [
        CbgPlusPlusVariant {
            use_slowline: true,
            use_baseline_filter: true,
        },
        CbgPlusPlusVariant {
            use_slowline: true,
            use_baseline_filter: false,
        },
        CbgPlusPlusVariant {
            use_slowline: false,
            use_baseline_filter: true,
        },
        CbgPlusPlusVariant {
            use_slowline: false,
            use_baseline_filter: false,
        },
    ];
    let _ = writeln!(
        out,
        "# variant,coverage,empty,median_area_km2,median_miss_km"
    );
    for v in variants {
        let (coverage, empty, med_area, med_miss) = score(ctx, &mask, &v, usize::MAX);
        let _ = writeln!(
            out,
            "{},{coverage:.3},{empty},{med_area:.0},{med_miss:.0}",
            v.name()
        );
    }

    // Under clean measurements all four variants coincide (nothing to
    // clamp, nothing to filter). The §5.1 machinery earns its keep under
    // *underestimation* stress: deflate a third of each host's delays by
    // 45 % — the congested-calibration / fast-path mismatch regime.
    // Under clean measurements all four variants coincide, so each §5.1
    // mechanism gets the failure scenario it was designed for.

    // Scenario A — congested calibration: every landmark's two-week mesh
    // data was taken under 3× delays, so the unconstrained bestlines are
    // far slower than physics allows. The slowline clamp is the fix.
    let _ = writeln!(
        out,
        "# scenario A (3x congested calibrations): algorithm,coverage,empty"
    );
    let congested: Vec<Vec<geoloc::Observation>> = ctx
        .records
        .iter()
        .map(|r| {
            r.observations
                .iter()
                .map(|o| {
                    geoloc::Observation::new(
                        o.landmark,
                        o.one_way_ms,
                        atlas::CalibrationSet::from_points(
                            o.calibration
                                .points()
                                .iter()
                                .map(|&(d, t)| (d, t * 3.0))
                                .collect(),
                        ),
                    )
                })
                .collect()
        })
        .collect();
    let scenario_a: Vec<Box<dyn Geolocator>> = vec![
        Box::new(geoloc::algorithms::Cbg),
        Box::new(CbgPlusPlusVariant {
            use_slowline: false,
            use_baseline_filter: true,
        }),
        Box::new(CbgPlusPlusVariant::default()),
    ];
    for algo in &scenario_a {
        let (coverage, empty) = score_sets(ctx, &mask, algo.as_ref(), &congested);
        let _ = writeln!(out, "{},{coverage:.3},{empty}", algo.name());
    }
    let _ = writeln!(
        out,
        "# expected: plain CBG collapses; the slowline restores coverage"
    );

    // Scenario B — one corrupted (deflated) measurement per host, the
    // underestimating-disk failure: plain intersection goes empty, the
    // subset search / baseline filter arbitrate it away.
    let _ = writeln!(
        out,
        "# scenario B (one delay deflated to 20 %): algorithm,coverage,empty"
    );
    let corrupted: Vec<Vec<geoloc::Observation>> = ctx
        .records
        .iter()
        .map(|r| {
            r.observations
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let factor = if i == 0 { 0.20 } else { 1.0 };
                    geoloc::Observation::new(
                        o.landmark,
                        o.one_way_ms * factor,
                        o.calibration.clone(),
                    )
                })
                .collect()
        })
        .collect();
    let scenario_b: Vec<Box<dyn Geolocator>> = vec![
        Box::new(geoloc::algorithms::Cbg),
        Box::new(CbgPlusPlusVariant::default()),
    ];
    for algo in &scenario_b {
        let (coverage, empty) = score_sets(ctx, &mask, algo.as_ref(), &corrupted);
        let _ = writeln!(out, "{},{coverage:.3},{empty}", algo.name());
    }
    let _ = writeln!(
        out,
        "# expected: plain CBG often returns nothing; CBG++ never does"
    );

    let _ = writeln!(
        out,
        "# landmark budget (full CBG++): k,coverage,median_area_km2"
    );
    for k in [3usize, 5, 10, 15, 20, 25, 100] {
        let v = CbgPlusPlusVariant::default();
        let (coverage, _, med_area, _) = score(ctx, &mask, &v, k);
        let _ = writeln!(out, "{k},{coverage:.3},{med_area:.0}");
    }
    let _ = writeln!(
        out,
        "# expected shape: more landmarks → smaller regions at equal coverage;\n\
         # dropping the slowline or the baseline filter costs coverage under noise"
    );
    out
}

/// Coverage + empty count of an algorithm over prepared observation sets.
fn score_sets(
    ctx: &CrowdContext,
    mask: &geokit::Region,
    algo: &dyn Geolocator,
    sets: &[Vec<geoloc::Observation>],
) -> (f64, usize) {
    let (mut hits, mut total, mut empty) = (0usize, 0usize, 0usize);
    for (r, obs) in ctx.records.iter().zip(sets) {
        let p = algo.locate(obs, mask);
        match p.region.distance_from_km(&r.host.true_location) {
            None => empty += 1,
            Some(miss) => {
                total += 1;
                if miss == 0.0 {
                    hits += 1;
                }
            }
        }
    }
    (hits as f64 / total.max(1) as f64, empty)
}

fn score(
    ctx: &CrowdContext,
    mask: &geokit::Region,
    algo: &CbgPlusPlusVariant,
    max_obs: usize,
) -> (f64, usize, f64, f64) {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut empty = 0usize;
    let mut areas = Vec::new();
    let mut misses = Vec::new();
    for r in &ctx.records {
        let obs = if r.observations.len() > max_obs {
            &r.observations[..max_obs]
        } else {
            &r.observations[..]
        };
        let p = algo.locate(obs, mask);
        match p.region.distance_from_km(&r.host.true_location) {
            None => empty += 1,
            Some(miss) => {
                total += 1;
                if miss == 0.0 {
                    hits += 1;
                }
                misses.push(miss);
                areas.push(p.area_km2());
            }
        }
    }
    (
        hits as f64 / total.max(1) as f64,
        empty,
        geokit::stats::median(&areas).unwrap_or(f64::NAN),
        geokit::stats::median(&misses).unwrap_or(f64::NAN),
    )
}

/// Constellation map dumps: Fig. 3 (anchors + probes) and Fig. 8 (crowd
/// hosts, volunteers vs workers).
pub fn fig3_fig8_maps(ctx: &CrowdContext) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig.3: landmark locations (kind,lat,lon)");
    for lm in ctx.constellation.landmarks() {
        let kind = if lm.is_anchor { "anchor" } else { "probe" };
        let _ = writeln!(
            out,
            "{kind},{:.3},{:.3}",
            lm.location.lat(),
            lm.location.lon()
        );
    }
    let _ = writeln!(out, "# Fig.8: crowd host locations (cohort,lat,lon,os)");
    for h in &ctx.hosts {
        let cohort = if h.is_volunteer {
            "volunteer"
        } else {
            "worker"
        };
        let _ = writeln!(
            out,
            "{cohort},{:.3},{:.3},{:?}",
            h.true_location.lat(),
            h.true_location.lon(),
            h.os
        );
    }
    // Density summary: the Fig. 3/8 shape is "majority Europe + NA".
    let atlas = ctx.world.atlas();
    let mut by_continent = [0usize; 8];
    for lm in ctx.constellation.landmarks() {
        by_continent[atlas.country(lm.country).continent().index()] += 1;
    }
    let _ = writeln!(out, "# landmarks per continent:");
    for (i, c) in worldmap::Continent::ALL.iter().enumerate() {
        let _ = writeln!(out, "#   {:<16} {}", c.name(), by_continent[i]);
    }
    out
}
