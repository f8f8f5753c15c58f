//! Ablations of the design choices DESIGN.md calls out: each CBG++
//! modification individually, the landmark budget, and iterative
//! refinement. Not a paper figure — the paper motivates each choice in
//! §5.1/§5.2; this quantifies them on our substrate.

use super::validation::{score_algorithm, AlgorithmScores};
use crate::scale::CrowdContext;
use geoloc::algorithms::{Cbg, CbgPlusPlusVariant};
use geoloc::{Geolocator, Observation};
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
        let s = score(ctx, &mask, &v, first(ctx, usize::MAX));
        let _ = writeln!(
            out,
            "{},{:.3},{},{:.0},{:.0}",
            v.name(),
            s.coverage(),
            s.empty,
            median(&s.area_km2),
            median(&s.miss_km)
        );
    }

    // Under clean measurements all four variants coincide (nothing to
    // clamp, nothing to filter), so each §5.1 mechanism gets the failure
    // scenario it was designed for.

    // Scenario A — congested calibration: every landmark's two-week mesh
    // data was taken under 3× delays, so the unconstrained bestlines are
    // far slower than physics allows. The slowline clamp is the fix.
    let _ = writeln!(
        out,
        "# scenario A (3x congested calibrations): algorithm,coverage,empty"
    );
    let congested = rewritten(ctx, |_, o| {
        let points = o.calibration.points().iter().map(|&(d, t)| (d, t * 3.0));
        let calibration = atlas::CalibrationSet::from_points(points.collect());
        Observation::new(o.landmark, o.one_way_ms, calibration)
    });
    let no_slowline = CbgPlusPlusVariant {
        use_slowline: false,
        use_baseline_filter: true,
    };
    let full = CbgPlusPlusVariant::default();
    scenario(
        &mut out,
        ctx,
        &mask,
        &[&Cbg, &no_slowline, &full],
        &congested,
    );
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
    let corrupted = rewritten(ctx, |i, o| {
        let factor = if i == 0 { 0.20 } else { 1.0 };
        Observation::new(o.landmark, o.one_way_ms * factor, o.calibration.clone())
    });
    scenario(&mut out, ctx, &mask, &[&Cbg, &full], &corrupted);
    let _ = writeln!(
        out,
        "# expected: plain CBG often returns nothing; CBG++ never does"
    );

    let _ = writeln!(
        out,
        "# landmark budget (full CBG++): k,coverage,median_area_km2"
    );
    for k in [3usize, 5, 10, 15, 20, 25, 100] {
        let s = score(ctx, &mask, &full, first(ctx, k));
        let _ = writeln!(out, "{k},{:.3},{:.0}", s.coverage(), median(&s.area_km2));
    }
    let _ = writeln!(
        out,
        "# expected shape: more landmarks → smaller regions at equal coverage;\n\
         # dropping the slowline or the baseline filter costs coverage under noise"
    );
    out
}

/// Score `algo` on the crowd hosts, locating each from its set in `sets`.
fn score<'a>(
    ctx: &CrowdContext,
    mask: &geokit::Region,
    algo: &dyn Geolocator,
    sets: impl Iterator<Item = &'a [Observation]>,
) -> AlgorithmScores {
    let truths = ctx.records.iter().map(|r| r.host.true_location);
    score_algorithm(algo, mask, truths.zip(sets))
}

/// Each crowd host's observations, each rewritten by `f` from its index
/// and itself.
fn rewritten(
    ctx: &CrowdContext,
    f: impl Fn(usize, &Observation) -> Observation,
) -> Vec<Vec<Observation>> {
    ctx.records
        .iter()
        .map(|r| {
            r.observations
                .iter()
                .enumerate()
                .map(|(i, o)| f(i, o))
                .collect()
        })
        .collect()
}

/// One `algorithm,coverage,empty` line per algorithm, each locating the
/// crowd hosts from `sets`.
fn scenario(
    out: &mut String,
    ctx: &CrowdContext,
    mask: &geokit::Region,
    algos: &[&dyn Geolocator],
    sets: &[Vec<Observation>],
) {
    for &algo in algos {
        let s = score(ctx, mask, algo, sets.iter().map(Vec::as_slice));
        let _ = writeln!(out, "{},{:.3},{}", s.name, s.coverage(), s.empty);
    }
}

/// Each crowd host's first `k` observations.
fn first(ctx: &CrowdContext, k: usize) -> impl Iterator<Item = &[Observation]> {
    ctx.records
        .iter()
        .map(move |r| &r.observations[..r.observations.len().min(k)])
}

fn median(values: &[f64]) -> f64 {
    geokit::stats::median(values).unwrap_or(f64::NAN)
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
