//! The traced run: the per-layer metrics.
//!
//! The run replays the workload's audit through the public calls
//! `Study::build` and the audit's per-proxy path make, in the same order
//! and with the same seeds, and times each call from here. An
//! `RttProber` wrapper handed to the probe scheduler times every
//! landmark probe. The study is first audited untraced, which warms the
//! process as the end-to-end run's warm-up does: the replay must reach
//! that audit's conclusions bit for bit, and its timed calls must cover
//! its own wall time.

use crate::checks::{
    check_ledger, check_results, proxy_renderings, render_counters, science_digest, Checks, Ledger,
    WorkCounters,
};
use crate::e2e::timed;
use crate::host::{self, median, quantile};
use crate::store::StoreBench;
use crate::workload::{install_hostility, Scale, Workload};
use crate::{Args, Metric, Outcome};
use atlas::{CalibrationDb, Constellation, LandmarkServer};
use geokit::{GeoGrid, Region};
use geoloc::algorithms::CbgPlusPlus;
use geoloc::assess::{assess_claim, Assessment};
use geoloc::defense::{run_defense, TunnelPings};
use geoloc::delay_model::CbgModel;
use geoloc::disambiguate::{by_data_centers, by_touched_sets, Disambiguation};
use geoloc::iclab::IclabChecker;
use geoloc::multilateration::{DiskCache, DiskCacheStats};
use geoloc::observation::Observation;
use geoloc::proxy::{estimate_eta, EtaEstimate, ProxyContext, DEFAULT_ETA};
use geoloc::reliability::{MeasurementDiagnostics, ProbeScheduler};
use geoloc::twophase::{run_two_phase_reliable, MeasurementStatus, ProxyProber, RttProber};
use netsim::{FilterPolicy, Network, NodeId, SimDuration, WorldNet, WorldNetConfig};
use obs::Recorder;
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vpnstudy::audit::plan_shards;
use vpnstudy::{
    DeployedProxy, MeasureFailure, ProviderSet, ProxyRecord, Study, StudyConfig, UnmeasuredProxy,
};
use worldmap::market::MarketSurvey;
use worldmap::{CountryId, DataCenterRegistry, WorldAtlas};

/// Verdict-store rounds per traced run, at least, and the time they
/// fill.
const STORE_ROUNDS: usize = 5;
const STORE_BUDGET: Duration = Duration::from_secs(2);

/// Host time and work of each layer, summed over one replay.
#[derive(Default)]
struct Layers {
    atlas: Duration,
    world_build: Duration,
    place: Duration,
    calibration: Duration,
    deploy: Duration,
    eta: Duration,
    server_build: Duration,
    establish: Duration,
    self_pings: u64,
    /// `run_two_phase_reliable`, its probes included.
    twophase: Duration,
    /// The probe time inside `twophase`.
    twophase_probes: Duration,
    /// Every landmark probe and direct ping, wherever it was sent.
    probes: ProbeTally,
    locate: Duration,
    locate_ms: Vec<f64>,
    observations_located: u64,
    region_cells: Vec<f64>,
    /// The separate bestline re-fit pass, left out of every sum.
    bestline: Duration,
    assess: Duration,
    /// The defense step, its probes excluded.
    defense: Duration,
    challenge_probes: u64,
    flagged_observations: u64,
    relocations: u64,
    absorb: Duration,
    proxy_ms: Vec<f64>,
    sim_ms: Vec<f64>,
}

/// Timed probe calls.
#[derive(Default)]
struct ProbeTally {
    calls: u64,
    unanswered: u64,
    busy: Duration,
    samples_us: Vec<f64>,
}

impl ProbeTally {
    fn add(&mut self, took: Duration, answered: bool) {
        self.calls += 1;
        self.unanswered += u64::from(!answered);
        self.busy += took;
        self.samples_us.push(took.as_secs_f64() * 1e6);
    }
}

/// The through-proxy prober, timing every call it forwards.
struct TimedProber<'t> {
    inner: ProxyProber,
    tally: &'t mut ProbeTally,
}

impl TimedProber<'_> {
    fn timed(&mut self, probe: impl FnOnce(&mut ProxyProber) -> Option<f64>) -> Option<f64> {
        let start = Instant::now();
        let reading = probe(&mut self.inner);
        self.tally.add(start.elapsed(), reading.is_some());
        reading
    }
}

impl RttProber for TimedProber<'_> {
    fn probe(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        self.timed(|p| p.probe(network, landmark))
    }

    fn probe_fallback(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        self.timed(|p| p.probe_fallback(network, landmark))
    }
}

/// Run one workload traced and report its per-layer metrics.
pub fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let config = workload.config(args.scale, args.seed);
    let mut checks = Checks::default();
    let mut ledger = Ledger::open(args.scale.name(), args.seed);
    let mut ref_ms = vec![host::ref_kernel_ms()];

    // The untraced reference comes first: the hostile attack plan is
    // computed from a built study, and its audit warms the process as an
    // untraced run's warm-up does, so the replay after it pays for its
    // memory as the timed audits do. The replay must conclude exactly
    // what the reference concludes.
    let mut study = Study::build(config.clone());
    let (plan, _targets) = workload.arm(&mut study);
    let (results, reference_audit_s) = timed(|| study.run_sharded(1, 1));
    check_results(&mut checks, &study, &results);
    let digest = science_digest(&results);
    check_ledger(
        &mut checks,
        &mut ledger,
        &format!("digest.{}", workload.world()),
        &digest,
    );
    // Every proxy's record or failure, raw verdict and region area
    // included, and the η estimate.
    let expected = proxy_renderings(&results.records, &results.failures);
    let expected_eta = format!("{:?}", results.eta);
    let expected_cache = (config.obs_level != obs::Level::Off).then(|| results.cache_stats());
    let expected_events = results.obs.events_len();
    let mut bench = StoreBench::new(&study, &results);
    bench.run(&mut checks, STORE_ROUNDS, STORE_BUDGET);
    let store = bench.finish();
    drop((results, study));
    ref_ms.push(host::ref_kernel_ms());

    let mut t = Layers::default();
    let (cpu_started, faults_started) = (host::cpu_seconds(), host::minor_faults());
    let started = Instant::now();
    let mut world = build_world(&config, &mut t);
    let (_, arming) = timed(|| {
        if workload == Workload::HostileAudit {
            install_hostility(
                world.net.network_mut(),
                world.constellation.landmarks(),
                &plan,
            );
        }
    });
    let replay = replay_audit(&config, &mut world, &mut t);
    // The bestline pass is pure computation, so it leaves both clocks.
    let wall = started.elapsed().as_secs_f64() - arming - t.bestline.as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_started - t.bestline.as_secs_f64();
    let faults = host::minor_faults() - faults_started;
    drop(world);
    ref_ms.push(host::ref_kernel_ms());

    let replayed = proxy_renderings(&replay.records, &replay.failures);
    let differing = expected.len().abs_diff(replayed.len())
        + expected
            .iter()
            .zip(&replayed)
            .filter(|(a, b)| a != b)
            .count();
    checks.check(
        "replay reproduces every proxy's outcome",
        differing == 0 && format!("{:?}", replay.eta) == expected_eta,
        || format!("{differing} proxies differ, or the η estimate does"),
    );
    if let Some(cache) = expected_cache {
        checks.check(
            "replay reproduces the cache counters",
            cache == replay.cache,
            || format!("untraced {cache:?}, replay {:?}", replay.cache),
        );
    }
    checks.check(
        "replay cache is fill-once",
        replay.cache.misses == replay.cache.entries as u64,
        || format!("{:?}", replay.cache),
    );
    checks.check(
        "replay records every event",
        replay.events == expected_events,
        || {
            format!(
                "untraced {expected_events} events, replay {}",
                replay.events
            )
        },
    );

    let mut totals = MeasurementDiagnostics::default();
    let mut quorum_degraded = 0u64;
    for d in replay
        .records
        .iter()
        .map(|r| &r.diagnostics)
        .chain(replay.failures.iter().map(|f| &f.diagnostics))
    {
        totals.absorb(d);
        quorum_degraded += u64::from(d.quorum_degraded);
    }
    let lookups = replay.cache.hits + replay.cache.misses;
    let counters = WorkCounters::from([
        ("probes", t.probes.calls),
        ("self_pings", t.self_pings),
        ("rasterizations", replay.cache.misses),
        ("disk_lookups", lookups),
        ("observations_located", t.observations_located),
        ("events", replay.events as u64),
        ("retries", totals.retries as u64),
        ("challenge_probes", t.challenge_probes),
    ]);
    check_ledger(
        &mut checks,
        &mut ledger,
        &format!("counters.{}.traced", workload.name()),
        &render_counters(&counters),
    );
    if let Some(ledger) = &ledger {
        ledger.save();
    }

    let secs = |d: Duration| d.as_secs_f64();
    let probe_s = secs(t.probes.busy);
    let twophase_self = secs(t.twophase) - secs(t.twophase_probes);
    let attributed = secs(t.atlas)
        + secs(t.world_build)
        + secs(t.place)
        + secs(t.calibration)
        + secs(t.deploy)
        + secs(t.eta)
        + secs(t.server_build)
        + secs(t.establish)
        + twophase_self
        + probe_s
        + secs(t.locate)
        + secs(t.assess)
        + secs(t.defense)
        + secs(t.absorb);
    let attributed_pct = 100.0 * attributed / wall;
    if args.scale == Scale::Paper && attributed_pct < 90.0 {
        eprintln!(
            "perfbench: warning: timed layer calls cover only {attributed_pct:.1} % of the replay"
        );
    }
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let fleet = (replay.records.len() + replay.failures.len()) as u64;
    let metrics = vec![
        Metric::new("worldmap.atlas_s", secs(t.atlas), "s"),
        Metric::new("netsim.world_build_s", secs(t.world_build), "s"),
        Metric::new("atlas.place_s", secs(t.place), "s"),
        Metric::new("atlas.calibration_s", secs(t.calibration), "s"),
        Metric::new("vpnstudy.deploy_s", secs(t.deploy), "s"),
        Metric::new("geoloc.eta_s", secs(t.eta), "s"),
        Metric::new("atlas.server_build_s", secs(t.server_build), "s"),
        Metric::new("geoloc.establish_s", secs(t.establish), "s"),
        Metric::new("netsim.self_pings", t.self_pings as f64, "count"),
        Metric::new(
            "netsim.self_ping_us",
            per(secs(t.establish) * 1e6, t.self_pings),
            "us",
        ),
        Metric::new("netsim.probe_s", probe_s, "s"),
        Metric::new("netsim.probes", t.probes.calls as f64, "count"),
        Metric::new("netsim.probe_us_p50", median(&t.probes.samples_us), "us"),
        Metric::new(
            "netsim.probe_us_p99",
            quantile(&t.probes.samples_us, 0.99),
            "us",
        ),
        Metric::new(
            "netsim.probes_unanswered",
            t.probes.unanswered as f64,
            "count",
        ),
        Metric::new("netsim.sim_ms_per_proxy_p50", median(&t.sim_ms), "ms"),
        Metric::new("geoloc.twophase_self_s", twophase_self, "s"),
        Metric::new("geoloc.retries", totals.retries as f64, "count"),
        Metric::new("geoloc.fallbacks", totals.fallbacks as f64, "count"),
        Metric::new(
            "geoloc.dead_landmarks",
            totals.dead_landmarks as f64,
            "count",
        ),
        Metric::new("geoloc.quorum_degraded", quorum_degraded as f64, "count"),
        Metric::new("geoloc.locate_s", secs(t.locate), "s"),
        Metric::new("geoloc.locate_ms_p50", median(&t.locate_ms), "ms"),
        Metric::new("geoloc.locate_ms_p99", quantile(&t.locate_ms, 0.99), "ms"),
        Metric::new(
            "geoloc.observations_located",
            t.observations_located as f64,
            "count",
        ),
        Metric::new("geoloc.disk_lookups", lookups as f64, "count"),
        Metric::new("geoloc.rasterizations", replay.cache.misses as f64, "count"),
        Metric::new(
            "geoloc.cache_hit_ratio",
            per(replay.cache.hits as f64, lookups),
            "ratio",
        ),
        Metric::new("geoloc.region_cells_p50", median(&t.region_cells), "cells"),
        Metric::new("geoloc.bestline_fit_s", secs(t.bestline), "s"),
        Metric::new("geoloc.defense_s", secs(t.defense), "s"),
        Metric::new(
            "geoloc.challenge_probes",
            t.challenge_probes as f64,
            "count",
        ),
        Metric::new(
            "geoloc.flagged_observations",
            t.flagged_observations as f64,
            "count",
        ),
        Metric::new("geoloc.relocations", t.relocations as f64, "count"),
        Metric::new("geoloc.assess_s", secs(t.assess), "s"),
        Metric::new("obs.events", replay.events as f64, "count"),
        Metric::new("obs.absorb_s", secs(t.absorb), "s"),
        Metric::new("store.append_ms", store.append_ms, "ms"),
        Metric::new("store.open_ms", store.open_ms, "ms"),
        Metric::new("store.lookup_ns", store.lookup_ns, "ns"),
        Metric::new("store.file_bytes", store.file_bytes as f64, "bytes"),
        Metric::new("vpnstudy.proxy_ms_p50", median(&t.proxy_ms), "ms"),
        Metric::new("vpnstudy.proxy_ms_p99", quantile(&t.proxy_ms, 0.99), "ms"),
        Metric::new("vpnstudy.replay_s", wall, "s"),
        Metric::new("vpnstudy.unattributed_s", wall - attributed, "s"),
        Metric::new("vpnstudy.attributed_pct", attributed_pct, "%"),
        Metric::new("host.cpu_s", cpu_s, "s"),
        Metric::new("host.minor_faults", faults as f64, "count"),
        Metric::new("host.ref_ms", median(&ref_ms), "ms"),
    ];
    let notes = vec![
        format!("{{\"record\":\"counters\",\"counters\":\"{}\"}}", render_counters(&counters)),
        format!(
            "{{\"record\":\"host\",\"replay_wall_s\":{wall},\"replay_cpu_s\":{cpu_s},\"untraced_audit_s\":{reference_audit_s},\"peak_rss_mb\":{},\"ref_ms_samples\":{ref_ms:?}}}",
            host::peak_rss_mb()
        ),
    ];
    Outcome {
        checks,
        attempted: fleet,
        unmeasured: replay.failures.len() as u64,
        metrics,
        notes,
    }
}

/// The pieces `Study::build` assembles, built by the same calls in the
/// same order.
struct World {
    atlas: Arc<WorldAtlas>,
    registry: DataCenterRegistry,
    net: WorldNet,
    constellation: Constellation,
    calibration: CalibrationDb,
    providers: ProviderSet,
    client: NodeId,
    mask: Region,
}

fn build_world(config: &StudyConfig, t: &mut Layers) -> World {
    let start = Instant::now();
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(config.grid_resolution_deg)));
    let registry = DataCenterRegistry::from_atlas(&atlas);
    let survey = MarketSurvey::generate(&atlas, config.seed ^ 0x5a1e5);
    t.atlas = start.elapsed();

    let start = Instant::now();
    let mut net = WorldNet::build(
        Arc::clone(&atlas),
        WorldNetConfig {
            seed: config.seed,
            ..WorldNetConfig::default()
        },
    );
    t.world_build = start.elapsed();

    let start = Instant::now();
    let constellation = Constellation::place(&mut net, &config.constellation);
    t.place = start.elapsed();

    let start = Instant::now();
    let calibration =
        CalibrationDb::collect(net.network_mut(), &constellation, config.calibration_pings);
    t.calibration = start.elapsed();

    let start = Instant::now();
    let providers = ProviderSet::deploy(&mut net, &survey, config);
    let client = net.attach_host(config.client_location, FilterPolicy::default());
    let mask = atlas.plausibility_mask().clone();
    t.deploy = start.elapsed();
    World {
        atlas,
        registry,
        net,
        constellation,
        calibration,
        providers,
        client,
        mask,
    }
}

/// What the replayed audit produced.
struct Replay {
    eta: Option<EtaEstimate>,
    records: Vec<ProxyRecord>,
    failures: Vec<UnmeasuredProxy>,
    cache: DiskCacheStats,
    events: usize,
}

/// The master's half of the audit, then its one shard: η estimation,
/// the shared landmark server, every proxy in fleet order on one
/// worker, and the trace merge.
fn replay_audit(config: &StudyConfig, world: &mut World, t: &mut Layers) -> Replay {
    let World {
        atlas,
        registry,
        net,
        constellation,
        calibration,
        providers,
        client,
        mask,
    } = world;
    let recorder = Recorder::new(config.obs_level);
    let run_span = recorder.profile_span("audit.run");
    net.network_mut().set_recorder(recorder.clone());
    let pingable: Vec<NodeId> = providers
        .proxies
        .iter()
        .filter(|p| p.pingable)
        .map(|p| p.node)
        .collect();
    let eta_span = recorder.profile_span("audit.eta_estimation");
    let start = Instant::now();
    let eta_est = estimate_eta(
        net.network_mut(),
        *client,
        &pingable,
        config.self_ping_attempts,
    );
    t.eta = start.elapsed();
    drop(eta_span);
    let eta = eta_est.map_or(DEFAULT_ETA, |e| e.eta());
    if recorder.events_enabled() {
        recorder.set_now_ns(net.network().now().as_nanos());
        recorder.event(
            "audit",
            "eta_estimated",
            vec![("eta", eta.into()), ("pingable", pingable.len().into())],
        );
    }

    let start = Instant::now();
    let server = LandmarkServer::new(constellation, calibration, atlas);
    t.server_build = start.elapsed();

    let spec = plan_shards(config.seed, providers.proxies.len(), 1)[0];
    let shard_rec = recorder.fork();
    let shard_span = shard_rec.profile_span_root("audit.shard");
    let shard_net = net.network().fork(spec.net_seed);
    let cache = {
        let mut cache = DiskCache::new(Arc::clone(mask.grid()));
        cache.set_recorder(shard_rec.clone());
        cache
    };
    let ctx = ProxyCtx {
        network: &shard_net,
        client: *client,
        eta,
        config,
        server: &server,
        atlas,
        mask,
        registry,
        cache: &cache,
        obs: &shard_rec,
    };
    let outcomes: Vec<(ProxyResult, Recorder)> = providers
        .proxies
        .iter()
        .map(|p| replay_proxy(p.clone(), &ctx, t))
        .collect();

    // Fold the per-proxy traces into the shard in fleet order, reading
    // the per-proxy stats the progress snapshots take on the way.
    let absorb_span = shard_rec.profile_span("audit.absorb");
    let start = Instant::now();
    let mut records = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (result, trace) in outcomes {
        black_box((
            trace.now_ns(),
            trace.counter("net.probe.sent"),
            trace.counter("net.probe.timeout"),
            trace.counter("rel.retry"),
        ));
        shard_rec.absorb(&trace);
        match result {
            ProxyResult::Record(r) => records.push(*r),
            ProxyResult::Failure(f) => failures.push(f),
        }
    }
    t.absorb += start.elapsed();
    drop(absorb_span);
    let cache_stats = cache.stats();
    drop(shard_span);
    drop(run_span);

    let start = Instant::now();
    recorder.absorb(&shard_rec);
    t.absorb += start.elapsed();
    let start = Instant::now();
    apply_group_disambiguation(&mut records);
    t.assess += start.elapsed();
    net.network_mut().set_recorder(Recorder::off());
    Replay {
        eta: eta_est,
        records,
        failures,
        cache: cache_stats,
        events: recorder.events_len(),
    }
}

/// The shared, read-only state every proxy is measured against.
struct ProxyCtx<'a> {
    network: &'a Network,
    client: NodeId,
    eta: f64,
    config: &'a StudyConfig,
    server: &'a LandmarkServer<'a>,
    atlas: &'a WorldAtlas,
    mask: &'a Region,
    registry: &'a DataCenterRegistry,
    cache: &'a DiskCache,
    obs: &'a Recorder,
}

enum ProxyResult {
    Record(Box<ProxyRecord>),
    Failure(UnmeasuredProxy),
}

/// Measure, locate and judge one proxy by the audit's own sequence of
/// calls, timing each layer into `t`.
fn replay_proxy(
    proxy: DeployedProxy,
    ctx: &ProxyCtx<'_>,
    t: &mut Layers,
) -> (ProxyResult, Recorder) {
    let started = Instant::now();
    let bestline_before = t.bestline;
    let config = ctx.config;
    let reliability = &config.reliability;
    let rec = ctx.obs.fork();
    let span = rec.profile_span_root("audit.proxy");
    if rec.events_enabled() {
        rec.event(
            "audit",
            "proxy_start",
            vec![
                ("node", proxy.node.into()),
                ("provider", proxy.provider.into()),
            ],
        );
    }
    let mix = u64::from(proxy.node).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut net = ctx.network.fork(config.seed ^ 0xf0bca ^ mix);
    net.set_recorder(rec.clone());
    let sim_start = net.now();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xaad17 ^ mix);

    let establish_span = rec.profile_span("audit.establish");
    let start = Instant::now();
    let mut establish_attempts = 0usize;
    let mut tunnel = None;
    for attempt in 0..reliability.retry.max_attempts.max(1) {
        if attempt > 0 {
            let wait = (reliability.retry.base_backoff_ms
                * reliability.retry.backoff_factor.powi(attempt as i32 - 1))
            .min(reliability.retry.max_backoff_ms);
            net.advance(SimDuration::from_ms(wait));
        }
        establish_attempts += 1;
        tunnel = ProxyContext::establish(
            &mut net,
            ctx.client,
            proxy.node,
            ctx.eta,
            config.self_ping_attempts,
        );
        if tunnel.is_some() {
            break;
        }
    }
    t.establish += start.elapsed();
    t.self_pings += (establish_attempts * config.self_ping_attempts) as u64;
    drop(establish_span);

    let outcome = 'measure: {
        let Some(tunnel) = tunnel else {
            drop(span);
            break 'measure (
                "tunnel_failed",
                ProxyResult::Failure(UnmeasuredProxy {
                    proxy,
                    failure: MeasureFailure::Unmeasurable,
                    diagnostics: MeasurementDiagnostics {
                        attempts: establish_attempts,
                        retries: establish_attempts - 1,
                        timeouts: establish_attempts,
                        ..Default::default()
                    },
                }),
            );
        };
        let prober = TimedProber {
            inner: ProxyProber::new(tunnel, config.attempts_per_landmark),
            tally: &mut t.probes,
        };
        let mut scheduler = ProbeScheduler::new(
            prober,
            reliability.retry,
            config.seed ^ 0xba0ff ^ u64::from(proxy.node),
        );
        let start = Instant::now();
        let probes_before = scheduler.inner.tally.busy;
        let outcome =
            run_two_phase_reliable(&mut net, ctx.server, &mut scheduler, &mut rng, reliability);
        t.twophase += start.elapsed();
        t.twophase_probes += scheduler.inner.tally.busy - probes_before;
        let mut diagnostics = outcome.diagnostics;
        diagnostics.attempts += establish_attempts;
        diagnostics.retries += establish_attempts - 1;
        diagnostics.infeasible_readings += scheduler.inner.inner.stats.infeasible_readings;
        let two_phase = match (outcome.status, outcome.result) {
            (MeasurementStatus::Ok, Some(r)) => r,
            (status, _) => {
                drop(span);
                let (label, failure) = if status == MeasurementStatus::InsufficientData {
                    ("insufficient_data", MeasureFailure::InsufficientData)
                } else {
                    ("unmeasurable", MeasureFailure::Unmeasurable)
                };
                break 'measure (
                    label,
                    ProxyResult::Failure(UnmeasuredProxy {
                        proxy,
                        failure,
                        diagnostics,
                    }),
                );
            }
        };

        let locate_span = rec.profile_span("audit.locate");
        let start = Instant::now();
        let prediction =
            CbgPlusPlus.locate_traced(&two_phase.observations, ctx.mask, Some(ctx.cache), &rec);
        let took = start.elapsed();
        drop(locate_span);
        t.locate += took;
        t.locate_ms.push(took.as_secs_f64() * 1e3);
        t.observations_located += two_phase.observations.len() as u64;
        t.region_cells
            .push(f64::from(prediction.region.cell_count()));
        // The bestline fits CBG++ just made, made again on their own.
        let start = Instant::now();
        for o in &two_phase.observations {
            black_box(CbgModel::calibrate_with_slowline(&o.calibration));
        }
        t.bestline += start.elapsed();

        let assess_span = rec.profile_span("audit.assess");
        let start = Instant::now();
        let verdict = assess_claim(ctx.atlas, &prediction.region, proxy.claimed);
        let dc_country = match by_data_centers(ctx.registry, &prediction.region) {
            Disambiguation::Resolved(c) => Some(c),
            Disambiguation::Unresolved => None,
        };
        let mut refined = verdict.clone();
        if refined.assessment == Assessment::Uncertain {
            if let Some(c) = dc_country {
                refined.assessment = judged(c, proxy.claimed);
            }
        }
        t.assess += start.elapsed();

        let start = Instant::now();
        let probes_before = scheduler.inner.tally.busy;
        let mut defense = None;
        if config.defense.enabled {
            let defense_span = rec.profile_span("audit.defense");
            let mut defense_obs = two_phase.observations.clone();
            if config.defense.challenge_fraction > 0.0 {
                let landmarks = ctx.server.constellation().landmarks();
                let total = landmarks.len();
                let want = ((total as f64) * config.defense.challenge_fraction).ceil() as usize;
                let stride = total.div_ceil(want.max(1)).max(1);
                let infeasible_before = scheduler.inner.inner.stats.infeasible_readings;
                let mut swept_dead = 0usize;
                let mut swept_ok = 0usize;
                for id in (0..total).step_by(stride) {
                    let lm = &landmarks[id];
                    let seen = defense_obs.iter().any(|o| {
                        o.landmark.lat().to_bits() == lm.location.lat().to_bits()
                            && o.landmark.lon().to_bits() == lm.location.lon().to_bits()
                    });
                    if seen {
                        continue;
                    }
                    t.challenge_probes += 1;
                    let reading = if lm.port_80_open {
                        scheduler.inner.probe(&mut net, lm.node)
                    } else {
                        scheduler.inner.probe_fallback(&mut net, lm.node)
                    };
                    match reading {
                        Some(ms) => {
                            swept_ok += 1;
                            defense_obs.push(Observation::new(
                                lm.location,
                                ms / 2.0,
                                ctx.server.calibration_for(id).clone(),
                            ));
                        }
                        None => swept_dead += 1,
                    }
                }
                diagnostics.infeasible_readings +=
                    scheduler.inner.inner.stats.infeasible_readings - infeasible_before;
                diagnostics.landmarks_measured += swept_ok;
                diagnostics.dead_landmarks += swept_dead;
            }
            let direct_ping_ms = if proxy.pingable {
                let mut best: Option<f64> = None;
                for _ in 0..config.self_ping_attempts {
                    let start = Instant::now();
                    let ping = net.ping(ctx.client, proxy.node);
                    scheduler.inner.tally.add(start.elapsed(), ping.is_some());
                    if let Some(d) = ping {
                        let ms = d.as_ms();
                        best = Some(best.map_or(ms, |b: f64| b.min(ms)));
                    }
                }
                best
            } else {
                None
            };
            let report = run_defense(
                &defense_obs,
                &diagnostics,
                TunnelPings {
                    self_ping_ms: scheduler.inner.inner.ctx.self_ping_ms,
                    direct_ping_ms,
                    eta: ctx.eta,
                },
                ctx.mask,
                Some(ctx.cache),
                &rec,
                &config.defense,
            );
            t.flagged_observations += report.flagged.len() as u64;
            if !report.flagged.is_empty() {
                t.relocations += 1;
                let kept: Vec<_> = defense_obs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !report.flagged.contains(i))
                    .map(|(_, o)| o.clone())
                    .collect();
                let robust = CbgPlusPlus.locate_traced(&kept, ctx.mask, Some(ctx.cache), &rec);
                refined = assess_claim(ctx.atlas, &robust.region, proxy.claimed);
                if refined.assessment == Assessment::Uncertain {
                    if let Disambiguation::Resolved(c) =
                        by_data_centers(ctx.registry, &robust.region)
                    {
                        refined.assessment = judged(c, proxy.claimed);
                    }
                }
            }
            if report.suspicious() && refined.assessment != Assessment::False {
                refined.assessment = Assessment::Suspicious;
            }
            defense = Some(report);
            drop(defense_span);
        }
        t.defense += start.elapsed() - (scheduler.inner.tally.busy - probes_before);

        let start = Instant::now();
        let iclab =
            IclabChecker::default().check(ctx.atlas, proxy.claimed, &two_phase.observations);
        drop(assess_span);
        drop(span);
        let record = ProxyRecord {
            continent_guess: two_phase.continent,
            region_area_km2: prediction.region.area_km2(),
            centroid: prediction.region.centroid(),
            observations: two_phase
                .observations
                .iter()
                .map(|o| (o.landmark, o.one_way_ms))
                .collect(),
            self_ping_ms: scheduler.inner.inner.ctx.self_ping_ms,
            iclab,
            verdict,
            refined,
            dc_country,
            diagnostics,
            defense,
            proxy,
        };
        t.assess += start.elapsed();
        ("measured", ProxyResult::Record(Box::new(record)))
    };

    let (status, result) = outcome;
    rec.count(
        match status {
            "measured" => "audit.measured",
            "insufficient_data" => "audit.insufficient",
            _ => "audit.unmeasurable",
        },
        1,
    );
    rec.set_now_ns(net.now().as_nanos());
    if rec.events_enabled() {
        rec.event("audit", "proxy_done", vec![("status", status.into())]);
    }
    t.sim_ms.push(net.now().since(sim_start).as_ms());
    t.proxy_ms
        .push((started.elapsed() - (t.bestline - bestline_before)).as_secs_f64() * 1e3);
    (result, rec)
}

/// The verdict a uniquely resolved country gives a claim.
fn judged(resolved: CountryId, claimed: CountryId) -> Assessment {
    if resolved == claimed {
        Assessment::Credible
    } else {
        Assessment::False
    }
}

/// Co-location disambiguation as the audit's merge applies it: within a
/// group of proxies sharing a provider, AS and /24, a country common to
/// every member's touched set resolves the members' uncertain verdicts.
fn apply_group_disambiguation(records: &mut [ProxyRecord]) {
    let mut groups: HashMap<(usize, CountryId, usize), Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        groups.entry(r.proxy.group_key).or_default().push(i);
    }
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let touched: Vec<Vec<CountryId>> = members
            .iter()
            .map(|&i| records[i].verdict.touched.iter().map(|&(c, _)| c).collect())
            .collect();
        let refs: Vec<&[CountryId]> = touched.iter().map(Vec::as_slice).collect();
        if let Disambiguation::Resolved(country) = by_touched_sets(&refs) {
            for &i in members {
                if records[i].refined.assessment == Assessment::Uncertain {
                    records[i].refined.assessment = judged(country, records[i].proxy.claimed);
                }
            }
        }
    }
}
