//! The observability trace figure (not a paper figure): three views of
//! the merged per-proxy event stream a study run records —
//!
//! * probe outcomes per landmark (completions vs timeouts, anchors
//!   flagged), showing which landmarks the audit leaned on and which
//!   went dark;
//! * retry-depth distribution (`rel.attempts_per_landmark`), the
//!   reliability layer's effort histogram;
//! * the region-size funnel per CBG++ stage: baseline cells →
//!   bestline-filtered cells, plus empty-region and fallback causes.
//!
//! Everything rendered here comes from the deterministic compartment of
//! the recorder, so the output is byte-identical for any `PV_THREADS`.

use crate::scale::StudyContext;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Render the trace summaries from a finished study run.
pub fn trace_observability(ctx: &StudyContext) -> String {
    let obs = &ctx.results.obs;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# observability trace: {} events, level {:?}",
        obs.events_len(),
        obs.level()
    );

    // --- probe outcomes per landmark --------------------------------
    let anchors: BTreeSet<u64> = ctx
        .study
        .constellation
        .anchors()
        .iter()
        .map(|l| u64::from(l.node))
        .collect();
    let landmarks: BTreeSet<u64> = ctx
        .study
        .constellation
        .landmarks()
        .iter()
        .map(|l| u64::from(l.node))
        .collect();
    // node -> (completed, timed out). Tunneled probes carry the node
    // being measured in `target` (their `dst` is the proxy); direct
    // probes are attributed by `dst`.
    let mut per_dst: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    obs.with_events(|events| {
        for e in events {
            if e.target != "netsim" {
                continue;
            }
            let Some(node) = e.field_u64("target").or_else(|| e.field_u64("dst")) else {
                continue;
            };
            if !landmarks.contains(&node) {
                continue;
            }
            match e.name {
                "probe" => per_dst.entry(node).or_default().0 += 1,
                "probe_timeout" => per_dst.entry(node).or_default().1 += 1,
                _ => {}
            }
        }
    });
    let _ = writeln!(
        out,
        "## probe outcomes per landmark ({} probed)",
        per_dst.len()
    );
    let _ = writeln!(out, "# node,kind,completed,timeout");
    let mut silent = 0usize;
    for (&node, &(ok, to)) in &per_dst {
        if ok == 0 && to > 0 {
            silent += 1;
        }
        let kind = if anchors.contains(&node) {
            "anchor"
        } else {
            "probe"
        };
        let _ = writeln!(out, "{node},{kind},{ok},{to}");
    }
    let _ = writeln!(out, "# {} landmarks answered nothing at all", silent);

    // --- retry depth distribution -----------------------------------
    let _ = writeln!(out, "## retry depth (attempts per landmark per proxy)");
    match obs.hist("rel.attempts_per_landmark") {
        Some(h) => {
            let _ = writeln!(out, "{}", h.render_line());
            let _ = writeln!(
                out,
                "# retries {}  fallbacks {}  dead landmarks {}  corrupt readings {}",
                obs.counter("rel.retry"),
                obs.counter("rel.fallback"),
                obs.counter("rel.dead_landmark"),
                obs.counter("rel.corrupt_reading"),
            );
        }
        None => {
            let _ = writeln!(out, "# (no samples — recorder level below Counters?)");
        }
    }

    // --- region-size funnel per algorithm stage ---------------------
    let _ = writeln!(out, "## region-size funnel (CBG++ stages)");
    for (label, name) in [
        ("baseline", "alg.baseline_cells"),
        ("bestline", "alg.region_cells"),
    ] {
        match obs.hist(name) {
            Some(h) => {
                let _ = writeln!(out, "{label:<9} {}", h.render_line());
            }
            None => {
                let _ = writeln!(out, "{label:<9} (no samples)");
            }
        }
    }
    let _ = writeln!(
        out,
        "# observations dropped by bestline filter: {}",
        obs.counter("alg.bestline_dropped")
    );
    let _ = writeln!(
        out,
        "# empty regions {}  baseline fallbacks {}",
        obs.counter("alg.empty_region"),
        obs.counter("alg.baseline_fallback")
    );
    // Empty-region causes, by stage, from the event stream.
    let mut empty_by_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
    obs.with_events(|events| {
        for e in events {
            if e.target == "cbgpp" && e.name == "empty_region" {
                if let Some(stage) = e.field_str("stage") {
                    *empty_by_stage.entry(stage).or_insert(0) += 1;
                }
            }
        }
    });
    for (stage, n) in &empty_by_stage {
        let _ = writeln!(out, "#   empty at {stage}: {n}");
    }
    out
}
