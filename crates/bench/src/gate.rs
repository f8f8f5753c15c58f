//! The workspace's microbenchmark suite and CI perf-regression gate:
//! seventeen smoke benches of set-up's and the audit's layers,
//! re-measured and compared against a committed baseline artifact.
//!
//! The gate's job is to catch *large accidental regressions* (an
//! algorithmic slip that doubles the cost of disk intersection, a cache
//! that stops hitting) without turning CI red on machine noise. Hence:
//!
//! * the smoke suite is tiny and dominated by the hot kernels the paper
//!   pipeline actually spends its time in (cap rasterization, disk
//!   intersection, the cached subset search, the counting sweep over a
//!   whole globe and over a baseline region, the defense's pairwise
//!   flags, disk-cache lookups, one row of the calibration mesh, one
//!   tunnelled probe bare and once more with the audit's Events
//!   recorder, a pass of tunnelled probes whose routes miss the memo,
//!   one full single-proxy audit, and CBG++ over sixteen proxies'
//!   measurements from a cold disk cache);
//! * only **medians** are compared, with a generous relative tolerance —
//!   ±30 % by default ([`DEFAULT_TOLERANCE`]), looser for the few entries
//!   [`suite_tolerance`] names;
//! * sample counts honor `PV_BENCH_SAMPLES`
//!   ([`crate::harness::env_sample_override`]), so CI can run the gate
//!   in a couple of seconds.
//!
//! The baseline lives in `bench_output/BENCH_gate.json` and is refreshed
//! with `perf_gate --update` on the machine that defines the baseline.
//! `perf_gate --self-test` proves the comparator has teeth by doctoring
//! the freshly measured medians down 2× and checking that every entry
//! trips the gate — machine-independent, so it runs in CI.

use crate::artifact::BenchArtifact;
use crate::harness::{run_sampled, Sampled};
use crate::{build_study_context, Scale};
use geokit::{GeoGrid, GeoPoint, Region, SphericalCap};
use geoloc::algorithms::CbgPlusPlus;
use geoloc::assess::assess_claim;
use geoloc::multilateration::{
    intersect_constraints, max_consistent_subset, max_consistent_subset_profiled,
    pairwise_infeasible_flags, robust_max_consistent_subset, DiskCache, RingConstraint,
};
use geoloc::proxy::{ProxyContext, DEFAULT_ETA};
use geoloc::reliability::ProbeScheduler;
use geoloc::twophase::{run_two_phase, run_two_phase_reliable, ProxyProber};
use geoloc::{Geolocator, Observation};
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::hint::black_box;

/// Relative median growth allowed before an entry counts as regressed,
/// unless [`suite_tolerance`] names a looser budget for it.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Each entry's tolerance. The audit entry runs a whole simulated
/// measurement pipeline whose cost moves with the study RNG and
/// allocator behaviour, and the cache-hit entry measures tens of
/// nanoseconds where scheduling jitter alone is a double-digit
/// percentage — both get looser budgets than the default.
pub fn suite_tolerance(name: &str) -> f64 {
    match name {
        "gate/audit_one_proxy" => 0.60,
        "gate/cache_hit" => 0.50,
        // Like cache_hit: a hash-map lookup measured in tens of
        // nanoseconds, where scheduling jitter is a large fraction.
        "gate/verdict_query" => 0.50,
        // Dominated by string formatting and allocation, which moves
        // with allocator state more than with the code under test.
        "gate/metrics_export" => 0.50,
        _ => DEFAULT_TOLERANCE,
    }
}

/// `n` honest disks around a European target, spread evenly in
/// bearing, on a full mask of the given grid.
fn gate_disks(n: u32, grid_res: f64) -> (Vec<RingConstraint>, Region) {
    let target = GeoPoint::new(48.0, 11.0);
    let constraints = (0..n)
        .map(|i| {
            let lm = target.destination(360.0 / f64::from(n) * f64::from(i), 900.0);
            RingConstraint::disk(lm, 1100.0)
        })
        .collect();
    (constraints, Region::full(GeoGrid::new(grid_res)))
}

/// A constraint set whose full intersection is empty (two far-apart
/// tight disks), forcing `max_consistent_subset` off the fast path and
/// into the counting sweep.
fn inconsistent_disks() -> (Vec<RingConstraint>, Region) {
    let europe = GeoPoint::new(48.0, 11.0);
    let pacific = GeoPoint::new(-20.0, -150.0);
    let mut constraints: Vec<RingConstraint> = (0..4)
        .map(|i| {
            let lm = europe.destination(90.0 * f64::from(i), 700.0);
            RingConstraint::disk(lm, 900.0)
        })
        .collect();
    constraints.push(RingConstraint::disk(pacific, 500.0));
    (constraints, Region::full(GeoGrid::new(1.0)))
}

/// A Byzantine constraint set: eight honest disks around a European
/// target plus two deflated colluder disks that pairwise-conflict with
/// them, exercising the defense's full flag-then-trim path.
fn byzantine_disks() -> (Vec<RingConstraint>, Region) {
    let target = GeoPoint::new(48.0, 11.0);
    let mut constraints: Vec<RingConstraint> = (0..8)
        .map(|i| {
            let lm = target.destination(45.0 * f64::from(i), 1_200.0);
            RingConstraint::disk(lm, 1_500.0)
        })
        .collect();
    for i in 0..2 {
        let lm = target.destination(60.0 + 180.0 * f64::from(i), 7_000.0);
        constraints.push(RingConstraint::disk(lm, 400.0));
    }
    (constraints, Region::full(GeoGrid::new(1.0)))
}

/// A bestline pass as the defense's quorum groups run it: 48 disks of
/// continental size around a European target on the paper's 0.5° grid,
/// over a baseline-region mask of about 300 cells. One underestimating
/// disk misses the mask, so the full intersection is empty and the
/// search runs the counting sweep over the mask's rows.
fn banded_sweep_disks() -> (Vec<RingConstraint>, Region) {
    let target = GeoPoint::new(48.0, 11.0);
    let mut constraints: Vec<RingConstraint> = (0..48)
        .map(|i| {
            let km = 500.0 + 60.0 * f64::from(i);
            let lm = target.destination(7.5 * f64::from(i), km);
            RingConstraint::disk(lm, 1.2 * km + 200.0)
        })
        .collect();
    constraints.push(RingConstraint::disk(
        target.destination(90.0, 1_500.0),
        600.0,
    ));
    let grid = GeoGrid::new(0.5);
    let mask = Region::from_cap(&grid, &SphericalCap::new(target, 450.0));
    (constraints, mask)
}

/// 164 baseline disks, one proxy's worth in the hostile audit, centred
/// on the small study's landmarks: each reaches twice its landmark's
/// distance from a European target plus the grid slack, so every pair
/// overlaps and the cost is the pair decisions, as on honest readings.
fn constellation_disks(landmarks: &[atlas::Landmark]) -> Vec<RingConstraint> {
    let target = GeoPoint::new(48.0, 11.0);
    landmarks
        .iter()
        .take(164)
        .map(|lm| RingConstraint::disk(lm.location, 2.0 * lm.location.distance_km(&target) + 42.0))
        .collect()
}

/// The observation sets of the study's first `n` proxies, each measured
/// by the two-phase protocol on a fork of the study network, so the
/// study's own network is left as it was. Proxies that cannot be
/// measured are left out.
fn fleet_observations(
    study: &vpnstudy::Study,
    server: &atlas::LandmarkServer<'_>,
    n: usize,
) -> Vec<Vec<Observation>> {
    let mut net = study.world.network().fork(0x10ca7e);
    study
        .providers
        .proxies
        .iter()
        .take(n)
        .filter_map(|p| {
            let proxy_ctx = ProxyContext::establish(&mut net, study.client, p.node, 0.5, 4)?;
            let mut prober = ProxyProber::new(proxy_ctx, 2);
            let mut rng = StdRng::seed_from_u64(7);
            run_two_phase(&mut net, server, &mut prober, &mut rng).map(|t| t.observations)
        })
        .collect()
}

/// A recorder holding what the audit's per-proxy recorder holds once its
/// proxy is measured: the counters and histograms of one proxy's
/// two-phase run under the study's retry policy and its CBG++ locate,
/// recorded at `Level::Events` on a fork of the study network.
fn measured_proxy_recorder(
    study: &vpnstudy::Study,
    server: &atlas::LandmarkServer<'_>,
    proxy: &vpnstudy::DeployedProxy,
) -> obs::Recorder {
    let rec = obs::Recorder::new(obs::Level::Events);
    let mut net = study.world.network().fork(0x9e7);
    net.set_recorder(rec.clone());
    let config = &study.config;
    let tunnel = ProxyContext::establish(
        &mut net,
        study.client,
        proxy.node,
        DEFAULT_ETA,
        config.self_ping_attempts,
    )
    .expect("tunnel up");
    let prober = ProxyProber::new(tunnel, config.attempts_per_landmark);
    let mut scheduler = ProbeScheduler::new(prober, config.reliability.retry, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let outcome = run_two_phase_reliable(
        &mut net,
        server,
        &mut scheduler,
        &mut rng,
        &config.reliability,
    );
    let observations = outcome.result.expect("measured").observations;
    let cache = DiskCache::new(std::sync::Arc::clone(study.mask.grid()));
    CbgPlusPlus.locate_traced(&observations, &study.mask, Some(&cache), &rec);
    rec
}

/// Measure the gate's smoke suite at `samples` samples per bench.
/// Expensive setup (the small study world) happens once, outside the
/// timed loops.
pub fn smoke_suite(samples: usize) -> Vec<Sampled> {
    let mut out = Vec::new();
    let mut ctx = build_study_context(Scale::Small);

    let grid = GeoGrid::new(1.0);
    out.push(run_sampled("gate/cap_raster", samples, |b| {
        let cap = SphericalCap::new(GeoPoint::new(48.0, 11.0), 800.0);
        b.iter(|| Region::from_cap(black_box(&grid), black_box(&cap)))
    }));

    let (disks, mask) = gate_disks(3, 1.0);
    out.push(run_sampled("gate/disk_intersect", samples, |b| {
        b.iter(|| intersect_constraints(black_box(&disks), black_box(&mask)))
    }));

    // The audit's own intersection path: a full honest constellation on
    // the paper's 0.5° grid, every disk drawn from a warm cache, as each
    // CBG++ pass after the first few proxies sees it.
    let (honest, paper_mask) = gate_disks(25, 0.5);
    let warm = DiskCache::new(std::sync::Arc::clone(paper_mask.grid()));
    let off = obs::Recorder::off();
    max_consistent_subset_profiled(&honest, &paper_mask, Some(&warm), &off);
    out.push(run_sampled("gate/cached_subset", samples, |b| {
        b.iter(|| {
            max_consistent_subset_profiled(
                black_box(&honest),
                black_box(&paper_mask),
                Some(&warm),
                &off,
            )
        })
    }));

    let (bad, bad_mask) = inconsistent_disks();
    out.push(run_sampled("gate/counting_sweep", samples, |b| {
        b.iter(|| max_consistent_subset(black_box(&bad), black_box(&bad_mask)))
    }));

    let (mixed, mixed_mask) = byzantine_disks();
    out.push(run_sampled("gate/robust_subset", samples, |b| {
        b.iter(|| {
            let report = pairwise_infeasible_flags(black_box(&mixed));
            robust_max_consistent_subset(
                black_box(&mixed),
                &report.flagged,
                black_box(&mixed_mask),
                None,
                &off,
            )
        })
    }));

    let (bestline, baseline_mask) = banded_sweep_disks();
    out.push(run_sampled("gate/banded_sweep", samples, |b| {
        b.iter(|| max_consistent_subset(black_box(&bestline), black_box(&baseline_mask)))
    }));

    let baseline = constellation_disks(ctx.study.constellation.landmarks());
    out.push(run_sampled("gate/pairwise_flags", samples, |b| {
        b.iter(|| pairwise_infeasible_flags(black_box(&baseline)))
    }));

    let cache = DiskCache::new(GeoGrid::new(1.0));
    out.push(run_sampled("gate/cache_hit", samples, |b| {
        let lm = GeoPoint::new(48.0, 11.0);
        // Rotate through a handful of radii so the steady state is
        // all-hits over a few keys — the lookup path, not rasterization.
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let radius = 600.0 + 200.0 * (i % 4) as f64;
            black_box(cache.disk(&lm, radius))
        })
    }));

    // The batched phase-1 path: the audit builds one LandmarkServer per
    // run and shares it across every proxy, so the phase-1 anchor set,
    // the per-landmark continent table, and the calibration-anchor
    // mapping are precomputed here instead of per proxy. This entry
    // keeps that precompute honest — it must stay cheap enough that
    // "build once" is never worth undoing.
    out.push(run_sampled("gate/phase1_server_build", samples, |b| {
        b.iter(|| {
            black_box(atlas::LandmarkServer::new(
                black_box(&ctx.study.constellation),
                black_box(&ctx.study.calibration),
                ctx.study.world.atlas(),
            ))
        })
    }));

    // Set-up's kernel: one row of the anchor mesh, the minimum of 40
    // round trips from one anchor to every other anchor, as
    // `CalibrationDb::collect` measures each row. On a fork, so the
    // benches below draw from the study network as before.
    let anchors: Vec<netsim::NodeId> = ctx
        .study
        .constellation
        .anchors()
        .iter()
        .map(|a| a.node)
        .collect();
    let (&from, others) = anchors.split_first().expect("the small world has anchors");
    let mut mesh = ctx.study.world.network().fork(0xca11b);
    out.push(run_sampled("gate/calibration_row", samples, |b| {
        b.iter(|| {
            others
                .iter()
                .filter_map(|&to| mesh.min_of_n_rtt_ms(from, black_box(to), 40))
                .sum::<f64>()
        })
    }));

    let proxy = ctx.study.providers.proxies[0].clone();
    let client = ctx.study.client;

    // The probe layer: one TCP connect through a proxy's tunnel, the
    // kind of probe that makes up most of an audit's probes. The same
    // landmark every time, as a proxy's retries and repeated rounds
    // probe it.
    let landmark = ctx.study.constellation.anchors()[0].node;
    let probe = |net: &mut netsim::Network| {
        net.tcp_connect_via_proxy_rtt(client, black_box(proxy.node), black_box(landmark), 80)
    };
    out.push(run_sampled("gate/tunnel_probe", samples, |b| {
        b.iter(|| probe(ctx.study.world.network_mut()))
    }));

    // The same probe recorded as the audit records it: into a per-proxy
    // recorder that already holds a measured proxy's counters and
    // histograms, with `net.probe` under the spans a phase-2 probe runs
    // in. The difference from `gate/tunnel_probe` is the Events
    // recorder's price per probe (span, counters, RTT sample and one
    // event).
    let atlas = std::sync::Arc::clone(ctx.study.world.atlas());
    let server =
        atlas::LandmarkServer::new(&ctx.study.constellation, &ctx.study.calibration, &atlas);
    let rec = measured_proxy_recorder(&ctx.study, &server, &proxy);
    let quiet = ctx.study.world.network().recorder().clone();
    ctx.study.world.network_mut().set_recorder(rec.clone());
    let spans = [
        rec.profile_span_root("audit.proxy"),
        rec.profile_span("twophase.phase2"),
        rec.profile_span("rel.probe"),
    ];
    out.push(run_sampled("gate/tunnel_probe_events", samples, |b| {
        b.iter(|| probe(ctx.study.world.network_mut()))
    }));
    drop(spans);
    ctx.study.world.network_mut().set_recorder(quiet);

    // Route building, which `gate/tunnel_probe` never reaches: the same
    // probe to every landmark of the small study in turn, on a fresh
    // fork per pass. Each landmark leg misses the fork's route memo, as
    // a proxy's first probe of a landmark does, while the router's core
    // trees stay warm. One iteration is one pass.
    let landmarks: Vec<netsim::NodeId> = ctx
        .study
        .constellation
        .landmarks()
        .iter()
        .map(|lm| lm.node)
        .collect();
    out.push(run_sampled("gate/route_miss", samples, |b| {
        b.iter(|| {
            let mut net = ctx.study.world.network().fork(0x5e7);
            landmarks
                .iter()
                .filter_map(|&lm| {
                    net.tcp_connect_via_proxy_rtt(client, proxy.node, black_box(lm), 80)
                })
                .count()
        })
    }));

    let study_mask = ctx.study.mask.clone();
    // One server for every iteration, mirroring the audit (which builds
    // one per run and shares it across proxies) — the per-iteration cost
    // here is what one additional proxy actually costs the study.
    out.push(run_sampled("gate/audit_one_proxy", samples, |b| {
        b.iter(|| {
            let proxy_ctx =
                ProxyContext::establish(ctx.study.world.network_mut(), client, proxy.node, 0.5, 4)
                    .expect("tunnel up");
            let mut prober = ProxyProber::new(proxy_ctx, 2);
            let mut rng = StdRng::seed_from_u64(7);
            let two_phase = run_two_phase(
                ctx.study.world.network_mut(),
                &server,
                &mut prober,
                &mut rng,
            )
            .expect("measured");
            let prediction = CbgPlusPlus.locate(&two_phase.observations, &study_mask);
            black_box(assess_claim(&atlas, &prediction.region, proxy.claimed))
        })
    }));

    // The locate layer as the audit runs it: CBG++ over the measured
    // observation sets of the small study's first 16 proxies, both passes
    // drawing from one fresh disk cache per iteration, as a run starts
    // cold. The sets are measured once, outside the timed loop, as
    // `gate/audit_one_proxy` measures its proxy.
    let fleet = fleet_observations(&ctx.study, &server, 16);
    out.push(run_sampled("gate/locate_fleet", samples, |b| {
        b.iter(|| {
            let cache = DiskCache::new(std::sync::Arc::clone(study_mask.grid()));
            for observations in &fleet {
                black_box(CbgPlusPlus.locate_traced(
                    black_box(observations),
                    &study_mask,
                    Some(&cache),
                    &off,
                ));
            }
        })
    }));

    // The verdict-store query path: answering "what was this proxy's
    // last verdict and is it still fresh?" from the in-memory index of
    // an opened store. The store exists so this stays cheap relative to
    // re-measurement (one proxy audit above is the thing it avoids);
    // the gate keeps the gap honest.
    let store_path =
        std::env::temp_dir().join(format!("pv-gate-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let mut store = vpnstudy::VerdictStore::open(&store_path).expect("open gate store");
    store
        .append_epoch(&ctx.results, 1_700_000_000_000)
        .expect("populate gate store");
    let nodes: Vec<_> = ctx.results.records.iter().map(|r| r.proxy.node).collect();
    out.push(run_sampled("gate/verdict_query", samples, |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % nodes.len();
            black_box(store.lookup(nodes[i], 1_700_000_100_000, 86_400_000))
        })
    }));
    let _ = std::fs::remove_file(&store_path);

    // The telemetry export path: mapping a finished run's recorder into
    // the OpenMetrics exposition and rendering the text. An operator
    // scrapes this once per epoch; the gate keeps it cheap enough that
    // exporting never competes with measuring.
    out.push(run_sampled("gate/metrics_export", samples, |b| {
        b.iter(|| {
            let set = vpnstudy::ops::study_metrics(black_box(&ctx.results))
                .expect("every study counter is registered");
            black_box(set.render())
        })
    }));

    out
}

/// Measure the smoke suite `passes` times and keep, per bench, the pass
/// with the middle median. A single pass is exposed to whole-run
/// machine-state swings (frequency scaling, cache pressure from a
/// sibling job); the median of several passes centres the committed
/// baseline so the gate's tolerance band covers the real spread.
pub fn measure_baseline(samples: usize, passes: usize) -> Vec<Sampled> {
    median_passes((0..passes.max(1)).map(|_| smoke_suite(samples)).collect())
}

/// Per bench, the whole record of the pass whose median is the middle
/// one, so its percentiles come from the same pass as its median.
fn median_passes(passes: Vec<Vec<Sampled>>) -> Vec<Sampled> {
    (0..passes[0].len())
        .map(|i| {
            let mut bench: Vec<&Sampled> = passes.iter().map(|pass| &pass[i]).collect();
            bench.sort_by(|a, b| a.median_ns.total_cmp(&b.median_ns));
            bench[bench.len() / 2].clone()
        })
        .collect()
}

/// How one measured bench fared against the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline median.
    Pass,
    /// Median shrank past the tolerance — worth refreshing the baseline.
    Improved,
    /// Median grew past the tolerance.
    Regressed,
    /// The baseline has no entry under this name.
    MissingBaseline,
}

/// One row of the gate's comparison report.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Bench identifier.
    pub name: String,
    /// Committed baseline median (ns), when present.
    pub baseline_ns: Option<f64>,
    /// Freshly measured median (ns).
    pub measured_ns: f64,
    /// Relative tolerance applied to this entry.
    pub tolerance: f64,
    /// The outcome.
    pub verdict: Verdict,
}

impl Comparison {
    /// `measured / baseline`, when a baseline exists and is positive.
    pub fn ratio(&self) -> Option<f64> {
        self.baseline_ns
            .filter(|&b| b > 0.0)
            .map(|b| self.measured_ns / b)
    }
}

/// Compare measured medians against the baseline artifact, each at its
/// [`suite_tolerance`]. Every measured bench yields exactly one
/// [`Comparison`]; baseline entries that were not re-measured are
/// ignored (the smoke suite may be a subset of what `--update`
/// recorded).
pub fn compare(baseline: &BenchArtifact, measured: &[Sampled]) -> Vec<Comparison> {
    measured
        .iter()
        .map(|s| {
            let tolerance = suite_tolerance(&s.name);
            let (baseline_ns, verdict) = match baseline.results.iter().find(|r| r.name == s.name) {
                None => (None, Verdict::MissingBaseline),
                Some(r) if r.median_ns <= 0.0 => (Some(r.median_ns), Verdict::MissingBaseline),
                Some(r) => {
                    let ratio = s.median_ns / r.median_ns;
                    let verdict = if ratio > 1.0 + tolerance {
                        Verdict::Regressed
                    } else if ratio < 1.0 - tolerance {
                        Verdict::Improved
                    } else {
                        Verdict::Pass
                    };
                    (Some(r.median_ns), verdict)
                }
            };
            Comparison {
                name: s.name.clone(),
                baseline_ns,
                measured_ns: s.median_ns,
                tolerance,
                verdict,
            }
        })
        .collect()
}

/// Render the comparison as an aligned text table, one row per bench.
pub fn render_comparisons(rows: &[Comparison]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in rows {
        let baseline = c
            .baseline_ns
            .map(|b| format!("{b:.0} ns"))
            .unwrap_or_else(|| "(none)".into());
        let ratio = c
            .ratio()
            .map(|r| format!("{r:+.0}%", r = (r - 1.0) * 100.0))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<28} baseline {:>12}  measured {:>10.0} ns  delta {:>6}  tol ±{:.0}%  {:?}",
            c.name,
            baseline,
            c.measured_ns,
            ratio,
            c.tolerance * 100.0,
            c.verdict,
        );
    }
    out
}

/// A copy of the measured suite with every median halved: a synthetic
/// "the past was 2× faster" baseline. Comparing the real measurements
/// against it must flag **every** entry as regressed (every
/// [`suite_tolerance`] is below 100 %) — that is the gate's self-test,
/// and it holds on any machine because both sides of the comparison
/// come from the same run.
pub fn doctored_baseline(measured: &[Sampled]) -> BenchArtifact {
    let mut results = measured.to_vec();
    for rec in &mut results {
        rec.median_ns /= 2.0;
    }
    BenchArtifact {
        results,
        ..BenchArtifact::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled(name: &str, median: f64) -> Sampled {
        Sampled {
            name: name.into(),
            median_ns: median,
            p10_ns: median,
            p90_ns: median,
            iters_per_sample: 1,
            samples: 3,
        }
    }

    fn baseline(entries: &[(&str, f64)]) -> BenchArtifact {
        BenchArtifact {
            results: entries
                .iter()
                .map(|&(name, median)| sampled(name, median))
                .collect(),
            ..BenchArtifact::default()
        }
    }

    #[test]
    fn within_tolerance_passes_and_2x_regression_is_caught() {
        let base = baseline(&[("gate/a", 1000.0), ("gate/b", 1000.0)]);
        let measured = [sampled("gate/a", 1100.0), sampled("gate/b", 2000.0)];
        let rows = compare(&base, &measured);
        assert_eq!(rows[0].verdict, Verdict::Pass);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert!((rows[1].ratio().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_entry_tolerance_overrides_the_global_default() {
        // +50 % fails at the default 30 % but passes the audit's 60 %.
        let base = baseline(&[("gate/a", 1000.0), ("gate/audit_one_proxy", 1000.0)]);
        let measured = [
            sampled("gate/a", 1500.0),
            sampled("gate/audit_one_proxy", 1500.0),
        ];
        let rows = compare(&base, &measured);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Pass);
        let budgets: Vec<(&str, f64)> = GATE_BENCHES
            .iter()
            .map(|&name| (name, suite_tolerance(name)))
            .filter(|&(_, tol)| tol != DEFAULT_TOLERANCE)
            .collect();
        assert_eq!(
            budgets,
            [
                ("gate/cache_hit", 0.50),
                ("gate/audit_one_proxy", 0.60),
                ("gate/verdict_query", 0.50),
                ("gate/metrics_export", 0.50),
            ]
        );
        assert_eq!(DEFAULT_TOLERANCE, 0.30);
    }

    #[test]
    fn missing_and_nonpositive_baselines_are_flagged() {
        let base = baseline(&[("gate/zero", 0.0)]);
        let measured = [sampled("gate/zero", 10.0), sampled("gate/new", 10.0)];
        let rows = compare(&base, &measured);
        assert_eq!(rows[0].verdict, Verdict::MissingBaseline);
        assert_eq!(rows[1].verdict, Verdict::MissingBaseline);
        assert!(rows[1].ratio().is_none());
    }

    #[test]
    fn large_improvements_are_reported_not_failed() {
        let base = baseline(&[("gate/a", 1000.0)]);
        let rows = compare(&base, &[sampled("gate/a", 500.0)]);
        assert_eq!(rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn doctored_baseline_trips_every_entry() {
        let measured: Vec<Sampled> = GATE_BENCHES
            .iter()
            .map(|&name| sampled(name, 1000.0))
            .collect();
        let doctored = doctored_baseline(&measured);
        let rows = compare(&doctored, &measured);
        assert!(rows.iter().all(|c| c.verdict == Verdict::Regressed));
    }

    /// Every bench of the smoke suite, in order.
    const GATE_BENCHES: [&str; 17] = [
        "gate/cap_raster",
        "gate/disk_intersect",
        "gate/cached_subset",
        "gate/counting_sweep",
        "gate/robust_subset",
        "gate/banded_sweep",
        "gate/pairwise_flags",
        "gate/cache_hit",
        "gate/phase1_server_build",
        "gate/calibration_row",
        "gate/tunnel_probe",
        "gate/tunnel_probe_events",
        "gate/route_miss",
        "gate/audit_one_proxy",
        "gate/locate_fleet",
        "gate/verdict_query",
        "gate/metrics_export",
    ];

    #[test]
    fn smoke_suite_measures_every_gate_bench() {
        let suite = smoke_suite(2);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, GATE_BENCHES);
        assert!(suite.iter().all(|s| s.median_ns > 0.0));
    }

    #[test]
    fn the_new_fixtures_exercise_what_they_name() {
        let (bestline, mask) = banded_sweep_disks();
        assert!(
            (200..=400).contains(&mask.cell_count()),
            "{} mask cells",
            mask.cell_count()
        );
        let rec = obs::Recorder::new(obs::Level::Counters);
        let result = max_consistent_subset_profiled(&bestline, &mask, None, &rec);
        assert_eq!(
            rec.profile_stat("subset.counting_sweep").map(|s| s.count),
            Some(1)
        );
        assert!(result.satisfied < bestline.len() && !result.region.is_empty());

        let ctx = build_study_context(Scale::Small);
        let baseline = constellation_disks(ctx.study.constellation.landmarks());
        assert_eq!(baseline.len(), 164);
        assert!(pairwise_infeasible_flags(&baseline).conflicts.is_empty());

        let atlas = std::sync::Arc::clone(ctx.study.world.atlas());
        let server =
            atlas::LandmarkServer::new(&ctx.study.constellation, &ctx.study.calibration, &atlas);
        let fleet = fleet_observations(&ctx.study, &server, 16);
        assert_eq!(fleet.len(), 16);
        assert!(fleet.iter().all(|set| set.len() > 1));
    }

    #[test]
    fn the_baseline_keeps_the_median_pass_whole() {
        let pass = |median: f64, p10: f64, p90: f64| {
            vec![Sampled {
                p10_ns: p10,
                p90_ns: p90,
                ..sampled("gate/a", median)
            }]
        };
        // The first pass is the slowest; its percentiles must not ride
        // along with another pass's median.
        let passes = vec![
            pass(300.0, 250.0, 400.0),
            pass(100.0, 90.0, 130.0),
            pass(200.0, 180.0, 260.0),
        ];
        let centred = median_passes(passes);
        assert_eq!(centred.len(), 1);
        let s = &centred[0];
        assert_eq!((s.p10_ns, s.median_ns, s.p90_ns), (180.0, 200.0, 260.0));
    }

    #[test]
    fn committed_gate_entries_have_ordered_percentiles() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench_output/BENCH_gate.json"
        );
        let text = std::fs::read_to_string(path).expect("committed gate baseline");
        let art = BenchArtifact::parse(&text).expect("gate baseline parses");
        let names: Vec<&str> = art.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, GATE_BENCHES);
        for r in &art.results {
            assert!(
                r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns,
                "{}: p10 {} median {} p90 {}",
                r.name,
                r.p10_ns,
                r.median_ns,
                r.p90_ns
            );
        }
    }

    #[test]
    fn render_names_each_row() {
        let base = baseline(&[("gate/a", 1000.0)]);
        let rows = compare(&base, &[sampled("gate/a", 2000.0)]);
        let text = render_comparisons(&rows);
        assert!(text.contains("gate/a"));
        assert!(text.contains("Regressed"));
        assert!(text.contains("+100%"));
    }
}
