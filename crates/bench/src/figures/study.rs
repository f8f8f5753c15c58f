//! The §6 study figures: η (Fig. 13) with the §4.2 feasibility survey,
//! disambiguation case studies (Figs. 15–16), the overall assessment
//! (Fig. 17), provider honesty (Figs. 18–19), region-size analysis
//! (Fig. 20), the method comparison (Fig. 21), the confusion matrices
//! (Figs. 22–23), and the headline numbers.

use crate::render::render_scatter;
use crate::scale::StudyContext;
use geokit::regress::{r_squared, theil_sen};
use geoloc::assess::Assessment;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vpnstudy::confusion::{continent_confusion, country_confusion};
use vpnstudy::feasibility::survey_feasibility;
use vpnstudy::report;

/// Fig. 13: direct vs tunnel-self-ping RTTs for the pingable proxies.
/// The robust slope η should land almost exactly at ½. The §4.2 survey
/// of what the whole fleet answers follows it: the pingable share is the
/// population Fig. 13 can use.
pub fn fig13_eta(ctx: &mut StudyContext) -> String {
    let mut out = String::new();
    let client = ctx.study.client;
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let pingable: Vec<netsim::NodeId> = ctx
        .study
        .providers
        .proxies
        .iter()
        .filter(|p| p.pingable)
        .map(|p| p.node)
        .collect();
    for proxy in pingable {
        let mut direct = f64::INFINITY;
        let mut indirect = f64::INFINITY;
        for _ in 0..ctx.study.config.self_ping_attempts {
            if let Some(d) = ctx.study.world.network_mut().ping(client, proxy) {
                direct = direct.min(d.as_ms());
            }
            if let Some(d) = ctx
                .study
                .world
                .network_mut()
                .self_ping_via_proxy_rtt(client, proxy)
            {
                indirect = indirect.min(d.as_ms());
            }
        }
        if direct.is_finite() && indirect.is_finite() {
            pairs.push((indirect, direct));
        }
    }
    let _ = writeln!(
        out,
        "# Fig.13: direct vs indirect RTT, {} proxies",
        pairs.len()
    );
    out.push_str(&render_scatter("eta", "indirect_ms,direct_ms", &pairs));
    if let Some(line) = theil_sen(&pairs) {
        let r2 = r_squared(&pairs, |x| line.eval(x));
        let _ = writeln!(
            out,
            "# robust slope eta = {:.3} (paper: 0.49), intercept {:.2} ms, R² = {:.4} (paper: >0.99)",
            line.slope, line.intercept, r2
        );
    }
    // The survey probes a fork, so the study network's random stream,
    // and with it every later figure, is the same with or without it.
    let mut network = ctx.study.world.network().fork(ctx.study.config.seed ^ 0x42);
    let survey = survey_feasibility(&mut network, client, &ctx.study.providers.proxies);
    let _ = writeln!(
        out,
        "# §4.2 feasibility over {} proxies: ping answered {:.1} % (paper: ~10 %), \
         gateway in traceroute {:.1} % (paper: ~10 %), TCP connect {:.1} % (paper: always)",
        survey.total,
        100.0 * survey.ping_rate(),
        100.0 * survey.gateway_rate(),
        100.0 * survey.tcp_rate()
    );
    out
}

/// Measured records grouped by their provider + AS + /24 key, in key
/// order, each group's record indices ascending.
fn colocation_groups(ctx: &StudyContext) -> BTreeMap<(usize, usize, usize), Vec<usize>> {
    let mut groups: BTreeMap<(usize, usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, r) in ctx.results.records.iter().enumerate() {
        groups.entry(r.proxy.group_key).or_default().push(i);
    }
    groups
}

/// Fig. 16: the largest co-location group — per-member prediction
/// summaries and the group-level resolution, the AS63128-style case.
pub fn fig16_colocation_group(ctx: &StudyContext) -> String {
    let mut out = String::new();
    let atlas = ctx.study.world.atlas();
    // Largest group among measured records, the lowest key on a tie.
    let Some((key, members)) = colocation_groups(ctx)
        .into_iter()
        .min_by_key(|(key, v)| (std::cmp::Reverse(v.len()), *key))
    else {
        return "# Fig.16: no groups\n".into();
    };
    let provider = ctx.study.providers.profiles[key.0].name;
    let _ = writeln!(
        out,
        "# Fig.16: provider {provider}, {} hosts sharing one AS + /24 (true country {})",
        members.len(),
        atlas.country(key.1).iso2()
    );
    let _ = writeln!(out, "# member,claimed,area_km2,countries_touched");
    for &i in &members {
        let r = &ctx.results.records[i];
        let touched: Vec<&str> = r
            .verdict
            .touched
            .iter()
            .map(|&(c, _)| atlas.country(c).iso2())
            .collect();
        let _ = writeln!(
            out,
            "{i},{},{:.0},{}",
            atlas.country(r.proxy.claimed).iso2(),
            r.region_area_km2,
            touched.join("|")
        );
    }
    // Common-country resolution.
    let sets: Vec<Vec<usize>> = members
        .iter()
        .map(|&i| {
            ctx.results.records[i]
                .verdict
                .touched
                .iter()
                .map(|&(c, _)| c)
                .collect()
        })
        .collect();
    let refs: Vec<&[usize]> = sets.iter().map(Vec::as_slice).collect();
    let resolution = geoloc::disambiguate::by_touched_sets(&refs);
    let _ = writeln!(out, "# group resolution: {resolution:?}");
    out
}

/// Fig. 17: the overall assessment block (also covers Fig. 15's effect:
/// with vs without data-center disambiguation).
pub fn fig17_overall(ctx: &StudyContext) -> String {
    let mut out = report::render_overall(&ctx.study, &ctx.results);
    // Alleged vs probable country bars (Fig. 17 bottom).
    let atlas = ctx.study.world.atlas();
    let mut alleged: BTreeMap<usize, usize> = BTreeMap::new();
    let mut probable: BTreeMap<usize, usize> = BTreeMap::new();
    for r in &ctx.results.records {
        *alleged.entry(r.proxy.claimed).or_default() += 1;
        let probable_country = match r.refined.assessment {
            Assessment::Credible => r.proxy.claimed,
            _ => r
                .dc_country
                .or_else(|| r.verdict.touched.first().map(|&(c, _)| c))
                .unwrap_or(r.proxy.claimed),
        };
        *probable.entry(probable_country).or_default() += 1;
    }
    for (name, map) in [("alleged", &alleged), ("probable", &probable)] {
        // Country ids ascending, then a stable sort: ties keep id order.
        let mut rows: Vec<(usize, usize)> = map.iter().map(|(&c, &n)| (c, n)).collect();
        rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let line: Vec<String> = rows
            .iter()
            .take(15)
            .map(|&(c, n)| format!("{}:{n}", atlas.country(c).iso2()))
            .collect();
        let _ = writeln!(out, "{name} countries: {}", line.join(" "));
    }
    out
}

/// Fig. 18: honesty across the most commonly claimed countries.
pub fn fig18_provider_country(ctx: &StudyContext) -> String {
    report::render_provider_country_honesty(&ctx.study, &ctx.results, 20)
}

/// Fig. 19: the same data with a much wider country axis (per-provider
/// world-map source data).
pub fn fig19_provider_maps(ctx: &StudyContext) -> String {
    report::render_provider_country_honesty(&ctx.study, &ctx.results, 60)
}

/// Fig. 20: for the largest co-location group, prediction-region size vs
/// distance to the nearest landmark — the paper finds no correlation.
pub fn fig20_region_size_vs_landmark(ctx: &StudyContext) -> String {
    // Prefer the largest group whose members drew *different* phase-2
    // landmark sets (groups on small continents exhaust the pool and
    // measure identically, collapsing the x-axis — the paper's AS63128
    // group was in North America, where the pool is deep). The stable
    // sort keeps equal sizes in key order.
    let mut candidates: Vec<(usize, Vec<usize>)> = colocation_groups(ctx)
        .into_values()
        .map(|v| (v.len(), v))
        .filter(|(n, _)| *n >= 3)
        .collect();
    candidates.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
    let varied = |members: &[usize]| {
        let mut sets: Vec<Vec<(i64, i64)>> = members
            .iter()
            .map(|&i| {
                let mut s: Vec<(i64, i64)> = ctx.results.records[i]
                    .observations
                    .iter()
                    .map(|(lm, _)| ((lm.lat() * 1e4) as i64, (lm.lon() * 1e4) as i64))
                    .collect();
                s.sort_unstable();
                s
            })
            .collect();
        sets.dedup();
        sets.len() > 1
    };
    let Some((_, members)) = candidates
        .iter()
        .find(|(_, m)| varied(m))
        .or_else(|| candidates.first())
        .cloned()
    else {
        return "# Fig.20: no groups\n".into();
    };
    // Centroid of all members' prediction centroids.
    let mut acc = [0.0f64; 3];
    for &i in &members {
        if let Some(c) = ctx.results.records[i].centroid {
            let v = c.to_unit_vector();
            acc[0] += v[0];
            acc[1] += v[1];
            acc[2] += v[2];
        }
    }
    let Some(center) = geokit::GeoPoint::from_vector(acc) else {
        return "# Fig.20: no centroids\n".into();
    };
    // The phase-1 anchor set is deterministic and shared by every
    // member, which would collapse the x-axis; what varies per member is
    // the *random phase-2* landmark draw (§4.1), so exclude landmarks
    // that every member measured.
    let mut landmark_counts: std::collections::HashMap<(i64, i64), usize> = Default::default();
    let key = |lm: &geokit::GeoPoint| ((lm.lat() * 1e4) as i64, (lm.lon() * 1e4) as i64);
    for &i in &members {
        for (lm, _) in &ctx.results.records[i].observations {
            *landmark_counts.entry(key(lm)).or_default() += 1;
        }
    }
    let shared_by_all = |lm: &geokit::GeoPoint| landmark_counts[&key(lm)] >= members.len();
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for &i in &members {
        let r = &ctx.results.records[i];
        // Small continent pools can make *every* landmark shared; fall
        // back to the unfiltered nearest in that case.
        let nearest_of = |filter: bool| {
            r.observations
                .iter()
                .filter(|(lm, _)| !filter || !shared_by_all(lm))
                .map(|(lm, _)| lm.distance_km(&center))
                .fold(f64::INFINITY, f64::min)
        };
        let mut nearest = nearest_of(true);
        if !nearest.is_finite() {
            nearest = nearest_of(false);
        }
        if nearest.is_finite() {
            pts.push((nearest, r.region_area_km2));
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "# Fig.20: {} group members", pts.len());
    out.push_str(&render_scatter(
        "region size",
        "nearest_landmark_km,region_area_km2",
        &pts,
    ));
    if pts.len() >= 3 {
        let _ = writeln!(
            out,
            "# Spearman correlation = {:?} (paper: none)",
            geokit::stats::spearman(&pts)
        );
    }
    out
}

/// Fig. 21: per-provider agreement of every method with the claims.
pub fn fig21_method_comparison(ctx: &StudyContext) -> String {
    report::render_fig21(&ctx.study, &ctx.results)
}

/// Fig. 22: the continent confusion matrix.
pub fn fig22_continent_confusion(ctx: &StudyContext) -> String {
    let m = continent_confusion(ctx.study.world.atlas(), &ctx.results);
    report::render_confusion(&m, 8)
}

/// Fig. 23: the country confusion matrix (trimmed to countries that
/// appear; full CSV in the output).
pub fn fig23_country_confusion(ctx: &StudyContext) -> String {
    let m = country_confusion(ctx.study.world.atlas(), &ctx.results);
    let mut out = report::render_confusion(&m, 40);
    let trimmed = m.trimmed();
    let _ = writeln!(
        out,
        "# full matrix: {} countries appear in at least one region",
        trimmed.n()
    );
    out
}

/// The paper's headline numbers (§1, §6).
pub fn headline_numbers(ctx: &StudyContext) -> String {
    let mut out = String::new();
    let res = &ctx.results;
    let total = res.records.len();
    let (c, u, f) = res.counts(false);
    let (cr, ur, fr) = res.counts(true);
    let _ = writeln!(
        out,
        "# Headline (paper: 2269 proxies; 989 credible / 642 uncertain / 638 false;"
    );
    let _ = writeln!(
        out,
        "#  353 uncertain reclassified by metadata; ≥1/3 definitely false)"
    );
    let _ = writeln!(out, "proxies measured: {total}");
    let _ = writeln!(out, "raw:     credible {c} uncertain {u} false {f}");
    let _ = writeln!(out, "refined: credible {cr} uncertain {ur} false {fr}");
    let _ = writeln!(out, "uncertain reclassified by metadata: {}", u - ur);
    let _ = writeln!(
        out,
        "fraction definitely false: {:.1} % (paper: ~28 % of all, 'at least a third' with continent-false)",
        100.0 * fr as f64 / total.max(1) as f64
    );
    // Top-10 claimed countries' share of credible and false claims.
    let mut by_claim: BTreeMap<usize, usize> = BTreeMap::new();
    for r in &res.records {
        *by_claim.entry(r.proxy.claimed).or_default() += 1;
    }
    // Country ids ascending, then a stable sort: ties keep id order.
    let mut order: Vec<usize> = by_claim.keys().copied().collect();
    order.sort_by_key(|c| std::cmp::Reverse(by_claim[c]));
    let top10: Vec<usize> = order.into_iter().take(10).collect();
    let share = |want: Assessment| {
        let total_w = res
            .records
            .iter()
            .filter(|r| r.refined.assessment == want)
            .count();
        let in_top = res
            .records
            .iter()
            .filter(|r| r.refined.assessment == want && top10.contains(&r.proxy.claimed))
            .count();
        (in_top, total_w)
    };
    let (ct, cw) = share(Assessment::Credible);
    let (ft, fw) = share(Assessment::False);
    let _ = writeln!(
        out,
        "top-10 claimed countries hold {:.0} % of credible and {:.0} % of false claims (paper: 84 % / 11 %)",
        100.0 * ct as f64 / cw.max(1) as f64,
        100.0 * ft as f64 / fw.max(1) as f64
    );
    let _ = writeln!(
        out,
        "ground-truth honesty: {:.1} % (hidden from the pipeline)",
        ctx.study.providers.ground_truth_honesty() * 100.0
    );
    let _ = writeln!(
        out,
        "pipeline coverage of true country: {:.1} %",
        res.coverage_of_truth() * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_study_context, Scale};

    /// Every renderer that ranks countries or groups must break ties by
    /// id, not by hash order: each `HashMap` draws fresh hash keys, so a
    /// renderer that iterated one in its ordering would print different
    /// bytes from one call to the next.
    #[test]
    fn study_figures_render_the_same_bytes_every_time() {
        let ctx = build_study_context(Scale::Small);
        let render = |ctx: &StudyContext| {
            [
                fig16_colocation_group(ctx),
                fig17_overall(ctx),
                fig18_provider_country(ctx),
                fig19_provider_maps(ctx),
                fig20_region_size_vs_landmark(ctx),
                headline_numbers(ctx),
            ]
        };
        let first = render(&ctx);
        for _ in 0..8 {
            assert_eq!(render(&ctx), first);
        }
    }
}
