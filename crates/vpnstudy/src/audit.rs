//! The full §6 audit: build the world, deploy the providers, measure
//! every proxy through its tunnel, locate it with CBG++, and judge every
//! country claim.

use crate::config::StudyConfig;
use crate::providers::{DeployedProxy, ProviderSet};
use atlas::{CalibrationDb, Constellation, LandmarkServer};
use geokit::{GeoGrid, GeoPoint, Region};
use geoloc::algorithms::CbgPlusPlus;
use geoloc::assess::{assess_claim, Assessment, ClaimVerdict, ContinentVerdict};
use geoloc::defense::{run_defense, DefenseReport, TunnelPings};
use geoloc::disambiguate::{by_data_centers, by_touched_sets};
use geoloc::iclab::{IclabChecker, IclabVerdict};
use geoloc::multilateration::{DiskCache, DiskCacheStats};
use geoloc::observation::Observation;
use geoloc::proxy::{estimate_eta, EtaEstimate, ProxyContext, DEFAULT_ETA};
use geoloc::reliability::{MeasurementDiagnostics, ProbeScheduler};
use geoloc::twophase::{run_two_phase_reliable, MeasurementStatus, ProxyProber, RttProber};
use netsim::{FilterPolicy, Network, NodeId, SimDuration, WorldNet, WorldNetConfig};
use obs::snapshot::{
    ProgressSnapshot, ProxyOutcome as SnapshotOutcome, ProxyStat, SnapshotBuilder,
};
use obs::Recorder;
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;
use worldmap::market::MarketSurvey;
use worldmap::{Continent, CountryId, DataCenterRegistry, WorldAtlas};

/// Everything the audit measured and concluded about one proxy.
#[derive(Debug)]
pub struct ProxyRecord {
    /// The deployed proxy (ground truth included for evaluation; the
    /// measurement pipeline never reads it).
    pub proxy: DeployedProxy,
    /// Continent inferred in phase 1.
    pub continent_guess: Continent,
    /// The raw CBG++ verdict on the provider's claim.
    pub verdict: ClaimVerdict,
    /// The verdict after data-center and co-location disambiguation.
    pub refined: ClaimVerdict,
    /// Data-center resolution of the prediction region, if unique.
    pub dc_country: Option<CountryId>,
    /// Prediction-region area, km².
    pub region_area_km2: f64,
    /// Prediction-region centroid.
    pub centroid: Option<GeoPoint>,
    /// Lightweight copies of the observations: (landmark, one-way ms).
    pub observations: Vec<(GeoPoint, f64)>,
    /// Minimum tunnel self-ping, ms.
    pub self_ping_ms: f64,
    /// ICLab checker verdict for the claim.
    pub iclab: IclabVerdict,
    /// What the measurement cost: attempts, retries, timeouts, dead
    /// landmarks, quorum degradation.
    pub diagnostics: MeasurementDiagnostics,
    /// What the Byzantine-defense layer found, when the study ran with
    /// [`DefenseConfig::enabled`](geoloc::DefenseConfig). `None` when
    /// the defense is off (the default).
    pub defense: Option<DefenseReport>,
}

/// Why a proxy produced no [`ProxyRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureFailure {
    /// Nothing answered: no tunnel, or no landmark at all.
    Unmeasurable,
    /// Some landmarks answered, but fewer than the configured minimum —
    /// too thin to back a verdict.
    InsufficientData,
}

/// A proxy the audit could not credibly measure, with the evidence of
/// how hard it tried. The paper's pipeline must never *silently* shrink
/// its denominator: every input proxy ends up either in `records` or
/// here.
#[derive(Debug)]
pub struct UnmeasuredProxy {
    /// The proxy in question.
    pub proxy: DeployedProxy,
    /// Which way the measurement fell short.
    pub failure: MeasureFailure,
    /// What was attempted before giving up.
    pub diagnostics: MeasurementDiagnostics,
}

/// The built study, ready to run.
pub struct Study {
    /// Configuration it was built from.
    pub config: StudyConfig,
    /// The simulated world (network + atlas).
    pub world: WorldNet,
    /// The landmark constellation.
    pub constellation: Constellation,
    /// Anchor-mesh calibration.
    pub calibration: CalibrationDb,
    /// The provider fleet.
    pub providers: ProviderSet,
    /// Data-center registry for disambiguation.
    pub registry: DataCenterRegistry,
    /// The market survey (Fig. 14 context).
    pub survey: MarketSurvey,
    /// The measurement client (Frankfurt).
    pub client: NodeId,
    /// Plausibility mask for predictions.
    pub mask: Region,
    /// Wall-clock profile of [`Study::build`]: one `build.*` span per
    /// stage (atlas, world, constellation, calibration, deploy), at the
    /// config's obs level. It holds no events or counters.
    pub build_profile: Recorder,
}

/// Results of a full audit run.
pub struct StudyResults {
    /// One record per successfully measured proxy.
    pub records: Vec<ProxyRecord>,
    /// The η estimate used for tunnel-leg correction.
    pub eta: Option<EtaEstimate>,
    /// Proxies that could not be measured, with explicit verdicts and
    /// diagnostics (`records.len() + failures.len()` equals the number
    /// of proxies deployed).
    pub failures: Vec<UnmeasuredProxy>,
    /// Count of unmeasured proxies (`failures.len()`, kept as a plain
    /// number for quick summaries).
    pub unmeasured: usize,
    /// The study's observability recorder: per-proxy event buffers
    /// merged in proxy order, and every counter and histogram the run
    /// emitted, the disk cache's `cache.disk.*` counts included — all
    /// deterministic for any shard and thread split. Its profile tree
    /// is wall-clock telemetry and never enters a determinism check.
    pub obs: Recorder,
    /// The worker budget the audit was given. The pool runs at most
    /// `min(threads, proxies)` workers.
    pub threads: usize,
    /// How many network lineages the fleet was split into (1 for
    /// [`Study::run`]). Run shape only: the deterministic output is
    /// byte-identical for every value.
    pub shards: usize,
    /// Progress snapshots folded in fleet order, one every
    /// [`StudyConfig::snapshot_every`] proxies plus a final one. Each is
    /// a pure function of the study seed;
    /// [`StudyResults::snapshots_jsonl`] is what the determinism matrix
    /// compares.
    pub snapshots: Vec<ProgressSnapshot>,
}

impl Study {
    /// Build the world, constellation, calibration, and provider fleet.
    pub fn build(config: StudyConfig) -> Study {
        let build_profile = Recorder::new(config.obs_level);
        let span = build_profile.profile_span("build.atlas");
        let grid = GeoGrid::new(config.grid_resolution_deg);
        let atlas = Arc::new(WorldAtlas::new(grid));
        let registry = DataCenterRegistry::from_atlas(&atlas);
        let survey = MarketSurvey::generate(&atlas, config.seed ^ 0x5a1e5);
        drop(span);
        let span = build_profile.profile_span("build.world");
        let mut world = WorldNet::build(
            Arc::clone(&atlas),
            WorldNetConfig {
                seed: config.seed,
                ..WorldNetConfig::default()
            },
        );
        drop(span);
        let span = build_profile.profile_span("build.constellation");
        let constellation = Constellation::place(&mut world, &config.constellation);
        drop(span);
        let span = build_profile.profile_span("build.calibration");
        let calibration = CalibrationDb::collect(
            world.network_mut(),
            &constellation,
            config.calibration_pings,
        );
        drop(span);
        let span = build_profile.profile_span("build.deploy");
        let providers = ProviderSet::deploy(&mut world, &survey, &config);
        let client = world.attach_host(config.client_location, FilterPolicy::default());
        let mask = atlas.plausibility_mask().clone();
        drop(span);
        Study {
            config,
            world,
            constellation,
            calibration,
            providers,
            registry,
            survey,
            client,
            mask,
            build_profile,
        }
    }

    /// Run the audit over every deployed proxy on one shard and
    /// [`parallel::configured_threads`] workers (`PV_THREADS` pins the
    /// count; results are byte-identical for any split — see
    /// [`run_sharded`](Study::run_sharded)).
    pub fn run(&mut self) -> StudyResults {
        self.run_sharded(1, parallel::configured_threads())
    }

    /// Run the audit as one pass over the fleet, split into
    /// `shard_count` network lineages, on a pool of `threads` workers.
    ///
    /// **The determinism contract:** any shard count × any thread count
    /// is byte-identical to the (1-shard, 1-thread) run. η is estimated
    /// serially on the study network first. [`plan_shards`] then cuts
    /// the fleet into contiguous ranges by pure arithmetic, and each
    /// range gets a [`Network::fork`] lineage of its own. Every proxy
    /// re-forks its lineage and seeds every stochastic input from
    /// `(config.seed, proxy.node)` alone; a lineage never probes, so a
    /// fork of it is indistinguishable from a fork of the study
    /// network. All proxies share one landmark server and one fill-once
    /// [`DiskCache`], whose counters are exact for any split. The
    /// results are folded into the run recorder, the snapshot stream and
    /// the record list in fleet order, never in completion order.
    pub fn run_sharded(&mut self, shard_count: usize, threads: usize) -> StudyResults {
        let shard_count = shard_count.max(1);
        let threads = threads.max(1);
        let atlas = Arc::clone(self.world.atlas());
        let recorder = Recorder::new(self.config.obs_level);
        let run_span = recorder.profile_span("audit.run");

        // η estimation over the pingable subset (§5.3, Fig. 13). Runs
        // serially on the study network before any lineage forks, so its
        // events land at the head of the trace in a fixed order and
        // every lineage forks from the same post-η clock.
        self.world.network_mut().set_recorder(recorder.clone());
        let pingable: Vec<NodeId> = self
            .providers
            .proxies
            .iter()
            .filter(|p| p.pingable)
            .map(|p| p.node)
            .collect();
        let eta_span = recorder.profile_span("audit.eta_estimation");
        let eta_est = estimate_eta(
            self.world.network_mut(),
            self.client,
            &pingable,
            self.config.self_ping_attempts,
        );
        drop(eta_span);
        let eta = eta_est.map_or(DEFAULT_ETA, |e| e.eta());
        if recorder.events_enabled() {
            recorder.set_now_ns(self.world.network().now().as_nanos());
            recorder.event(
                "audit",
                "eta_estimated",
                [("eta", eta.into()), ("pingable", pingable.len().into())],
            );
        }

        // One landmark server and one disk cache for the whole fleet:
        // the server's tables are pure functions of the constellation,
        // and a cached disk is bitwise the fresh rasterization.
        let server = LandmarkServer::new(&self.constellation, &self.calibration, &atlas);
        let mut cache = DiskCache::new(Arc::clone(self.mask.grid()));
        cache.set_recorder(recorder.clone());
        let ctx = AuditCtx {
            client: self.client,
            eta,
            config: &self.config,
            server: &server,
            atlas: &atlas,
            mask: &self.mask,
            registry: &self.registry,
            cache: &cache,
            obs: &recorder,
        };

        let proxies = &self.providers.proxies;
        let plan = plan_shards(self.config.seed, proxies.len(), shard_count);
        let lineages: Vec<Network> = plan
            .iter()
            .map(|spec| self.world.network().fork(spec.net_seed))
            .collect();
        let inputs: Vec<(&Network, DeployedProxy)> = plan
            .iter()
            .zip(&lineages)
            .flat_map(|(spec, lineage)| {
                proxies[spec.start..spec.end]
                    .iter()
                    .map(move |proxy| (lineage, proxy.clone()))
            })
            .collect();
        let outcomes = parallel::map_indexed(threads, inputs, |_, (lineage, proxy)| {
            measure_one_proxy(proxy, lineage, &ctx)
        });

        // Fold the worker-local buffers back in fleet order: the trace
        // and the snapshot stream are byte-identical for any split.
        let absorb_span = recorder.profile_span("audit.absorb");
        let mut builder =
            SnapshotBuilder::new(outcomes.len() as u64, self.config.snapshot_every as u64);
        let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
        let mut records: Vec<ProxyRecord> = Vec::with_capacity(outcomes.len());
        let mut failures: Vec<UnmeasuredProxy> = Vec::new();
        for outcome in outcomes {
            // Read the proxy's delta off its still-private trace, before
            // it folds into the run recorder.
            snapshots.extend(builder.push(&proxy_stat(&outcome)));
            recorder.absorb(&outcome.trace);
            match outcome.result {
                ProxyResult::Record(r) => records.push(*r),
                ProxyResult::Failure(f) => failures.push(f),
            }
        }
        drop(absorb_span);

        // Co-location group disambiguation (Fig. 16): within a group, the
        // true country must be common to every member's touched set.
        apply_group_disambiguation(&mut records);

        // Fill-once: every lookup is one hit or one miss, and exactly
        // one worker misses per distinct key, whatever the split.
        let stats = cache.stats();
        recorder.count("cache.disk.hits", stats.hits);
        recorder.count("cache.disk.misses", stats.misses);
        recorder.count("cache.disk.entries", stats.entries as u64);
        drop(run_span);

        // The recorder belongs to this run: detach it from the shared
        // network so later ad-hoc measurements (figure harnesses,
        // benches) don't keep appending to a finished run's trace.
        self.world.network_mut().set_recorder(Recorder::off());

        let unmeasured = failures.len();
        StudyResults {
            records,
            eta: eta_est,
            failures,
            unmeasured,
            obs: recorder,
            threads,
            shards: shard_count,
            snapshots,
        }
    }
}

/// One contiguous range of the fleet, derived by pure
/// `(seed, shard_id, shard_count)` arithmetic — no RNG, no machine
/// state, so every run computes the identical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index in `0..shard_count`.
    pub shard_id: usize,
    /// Total shards in the plan.
    pub shard_count: usize,
    /// First proxy index (inclusive) of the shard's contiguous range.
    pub start: usize,
    /// One past the last proxy index of the range.
    pub end: usize,
    /// Seed for the range's [`Network::fork`] lineage, pure in
    /// `(seed, shard_id)`. The lineage itself never probes — per-proxy
    /// forks re-seed from `(seed, proxy.node)` — so this value shapes no
    /// output byte; it exists so the lineage is still fully specified.
    pub net_seed: u64,
}

/// Compute the shard plan: `shard_count` contiguous, balanced ranges
/// covering `0..total` (sizes differ by at most one; empty ranges are
/// legal when `shard_count > total`). Concatenating the ranges in
/// `start` order *is* fleet order.
pub fn plan_shards(seed: u64, total: usize, shard_count: usize) -> Vec<ShardSpec> {
    let shard_count = shard_count.max(1);
    (0..shard_count)
        .map(|shard_id| ShardSpec {
            shard_id,
            shard_count,
            start: shard_id * total / shard_count,
            end: (shard_id + 1) * total / shard_count,
            net_seed: seed ^ 0x5aa2d ^ (shard_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        })
        .collect()
}

/// Read one finished proxy's deterministic delta off its worker-local
/// trace: probe/retry counters, the final sim-clock stamp, and the
/// outcome classification the `audit.*` ledger counters use.
fn proxy_stat(outcome: &ProxyOutcome) -> ProxyStat {
    let kind = match &outcome.result {
        ProxyResult::Record(_) => SnapshotOutcome::Measured,
        ProxyResult::Failure(f) => match f.failure {
            MeasureFailure::InsufficientData => SnapshotOutcome::Insufficient,
            MeasureFailure::Unmeasurable => SnapshotOutcome::Unmeasurable,
        },
    };
    ProxyStat {
        sim_now_ns: outcome.trace.now_ns(),
        probes_sent: outcome.trace.counter("net.probe.sent"),
        probes_timeout: outcome.trace.counter("net.probe.timeout"),
        retries: outcome.trace.counter("rel.retry"),
        outcome: kind,
    }
}

/// Everything [`measure_one_proxy`] needs beyond the proxy and its
/// network lineage: the shared read-only world, the study knobs, and
/// the observability recorder workers fork their per-proxy buffers
/// from.
struct AuditCtx<'a> {
    client: NodeId,
    eta: f64,
    config: &'a StudyConfig,
    /// The shared landmark server — stood up once per run, never per
    /// proxy (its tables are pure functions of the constellation).
    server: &'a LandmarkServer<'a>,
    atlas: &'a Arc<WorldAtlas>,
    mask: &'a Region,
    registry: &'a DataCenterRegistry,
    cache: &'a DiskCache,
    obs: &'a Recorder,
}

/// What one proxy's measurement produced, plus the worker-local event
/// buffer it recorded along the way (absorbed by the collector in proxy
/// order, never in completion order).
struct ProxyOutcome {
    result: ProxyResult,
    trace: Recorder,
}

enum ProxyResult {
    Record(Box<ProxyRecord>),
    Failure(UnmeasuredProxy),
}

/// Measure, locate, and judge one proxy on a fork of `lineage`. Pure in
/// the parallelism sense: every stochastic input is derived from
/// `(config.seed, proxy.node)` and the shared read-only world, so the
/// outcome is independent of which worker runs it and in what order.
fn measure_one_proxy(proxy: DeployedProxy, lineage: &Network, ctx: &AuditCtx<'_>) -> ProxyOutcome {
    let AuditCtx {
        client,
        eta,
        config,
        server,
        atlas,
        mask,
        registry,
        cache,
        ..
    } = *ctx;
    let reliability = &config.reliability;
    // The per-proxy trace is detached from the study recorder (so
    // workers never interleave) and merged back in proxy order.
    let rec = ctx.obs.fork();
    // Rooted explicitly so the profile tree has the same shape whether
    // this ran inline on the coordinator (1 thread) or on a worker.
    let span = rec.profile_span_root("audit.proxy");
    if rec.events_enabled() {
        rec.event(
            "audit",
            "proxy_start",
            [
                ("node", proxy.node.into()),
                ("provider", proxy.provider.into()),
            ],
        );
    }
    let mix = u64::from(proxy.node).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut net = lineage.fork(config.seed ^ 0xf0bca ^ mix);
    net.set_recorder(rec.clone());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xaad17 ^ mix);
    // Establish the tunnel context with the same retry budget as a
    // probe: a flap during session setup should not write the proxy
    // off. The backoff here is deterministic (no jitter) — it only
    // advances the sim clock.
    let establish_span = rec.profile_span("audit.establish");
    let mut establish_attempts = 0usize;
    let mut ctx_established = None;
    for attempt in 0..reliability.retry.max_attempts.max(1) {
        if attempt > 0 {
            let wait = (reliability.retry.base_backoff_ms
                * reliability.retry.backoff_factor.powi(attempt as i32 - 1))
            .min(reliability.retry.max_backoff_ms);
            net.advance(SimDuration::from_ms(wait));
        }
        establish_attempts += 1;
        ctx_established =
            ProxyContext::establish(&mut net, client, proxy.node, eta, config.self_ping_attempts);
        if ctx_established.is_some() {
            break;
        }
    }
    drop(establish_span);
    let Some(tunnel) = ctx_established else {
        drop(span);
        return finish_proxy(
            rec,
            &net,
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
    let prober = ProxyProber::new(tunnel, config.attempts_per_landmark);
    let mut scheduler = ProbeScheduler::new(
        prober,
        reliability.retry,
        config.seed ^ 0xba0ff ^ u64::from(proxy.node),
    );
    let outcome = run_two_phase_reliable(&mut net, server, &mut scheduler, &mut rng, reliability);
    let mut diagnostics = outcome.diagnostics;
    diagnostics.attempts += establish_attempts;
    diagnostics.retries += establish_attempts - 1;
    // Physically impossible corrected readings (clamped negatives) are
    // tallied by the prober as it probes; fold them into the proxy's
    // diagnostics so the defense layer and the reliability report see
    // them.
    diagnostics.infeasible_readings += scheduler.inner.stats.infeasible_readings;
    let two_phase = match (outcome.status, outcome.result) {
        (MeasurementStatus::Ok, Some(r)) => r,
        (MeasurementStatus::InsufficientData, _) => {
            drop(span);
            return finish_proxy(
                rec,
                &net,
                "insufficient_data",
                ProxyResult::Failure(UnmeasuredProxy {
                    proxy,
                    failure: MeasureFailure::InsufficientData,
                    diagnostics,
                }),
            );
        }
        _ => {
            drop(span);
            return finish_proxy(
                rec,
                &net,
                "unmeasurable",
                ProxyResult::Failure(UnmeasuredProxy {
                    proxy,
                    failure: MeasureFailure::Unmeasurable,
                    diagnostics,
                }),
            );
        }
    };

    let locate_span = rec.profile_span("audit.locate");
    let prediction = CbgPlusPlus.locate_traced(&two_phase.observations, mask, Some(cache), &rec);
    drop(locate_span);
    let assess_span = rec.profile_span("audit.assess");
    let verdict = assess_claim(atlas, &prediction.region, proxy.claimed);

    // Data-center disambiguation (Fig. 15).
    let by_dc = by_data_centers(registry, &prediction.region);
    let mut refined = verdict.clone();
    refined.assessment = by_dc.refine(verdict.assessment, proxy.claimed);

    // Byzantine defense (opt-in): look for evidence of actively shaped
    // measurements, re-locate on the trimmed observation set, and
    // withhold any non-False verdict when evidence is found.
    let mut defense = None;
    if config.defense.enabled {
        let defense_span = rec.profile_span("audit.defense");
        // Challenge sweep: re-probe a deterministic stride across the
        // *whole* constellation. The two-phase path only probes what
        // the (possibly shaped) phase-1 guess selects — the one set an
        // active adversary rehearses — so readings it never expected to
        // produce are the cheapest source of contradictions.
        let mut defense_obs = two_phase.observations.clone();
        if config.defense.challenge_fraction > 0.0 {
            let landmarks = server.constellation().landmarks();
            let total = landmarks.len();
            let want = ((total as f64) * config.defense.challenge_fraction).ceil() as usize;
            let stride = total.div_ceil(want.max(1)).max(1);
            let infeasible_before = scheduler.inner.stats.infeasible_readings;
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
                            server.calibration_for(id).clone(),
                        ));
                    }
                    None => swept_dead += 1,
                }
            }
            diagnostics.infeasible_readings +=
                scheduler.inner.stats.infeasible_readings - infeasible_before;
            diagnostics.landmarks_measured += swept_ok;
            diagnostics.dead_landmarks += swept_dead;
        }
        // Pingable proxies also get the direct-ping cross-check: an
        // honest tunnel satisfies η·C ≈ D (Fig. 13), so a wildly larger
        // self-ping is evidence no amount of reply-shaping can hide.
        let direct_ping_ms = if proxy.pingable {
            let mut best: Option<f64> = None;
            for _ in 0..config.self_ping_attempts {
                if let Some(d) = net.ping(client, proxy.node) {
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
                self_ping_ms: scheduler.inner.ctx.self_ping_ms,
                direct_ping_ms,
                eta,
            },
            mask,
            Some(cache),
            &rec,
            &config.defense,
        );
        if !report.flagged.is_empty() {
            // Re-locate without the flagged observations: the robust
            // verdict stands on the readings no landmark pair disputes
            // (challenge-sweep readings included).
            let kept: Vec<_> = defense_obs
                .iter()
                .enumerate()
                .filter(|(i, _)| !report.flagged.contains(i))
                .map(|(_, o)| o.clone())
                .collect();
            let robust = CbgPlusPlus.locate_traced(&kept, mask, Some(cache), &rec);
            refined = assess_claim(atlas, &robust.region, proxy.claimed);
            refined.assessment =
                by_data_centers(registry, &robust.region).refine(refined.assessment, proxy.claimed);
        }
        // Evidence of tampering withholds any verdict short of False:
        // a proven-false claim stays false (the lie is established), but
        // "credible" readings from a caught manipulator prove nothing.
        if report.suspicious() && refined.assessment != Assessment::False {
            refined.assessment = Assessment::Suspicious;
        }
        defense = Some(report);
        drop(defense_span);
    }

    let iclab = IclabChecker::default().check(atlas, proxy.claimed, &two_phase.observations);
    drop(assess_span);
    drop(span);
    finish_proxy(
        rec,
        &net,
        "measured",
        ProxyResult::Record(Box::new(ProxyRecord {
            continent_guess: two_phase.continent,
            region_area_km2: prediction.region.area_km2(),
            centroid: prediction.region.centroid(),
            observations: two_phase
                .observations
                .iter()
                .map(|o| (o.landmark, o.one_way_ms))
                .collect(),
            self_ping_ms: scheduler.inner.ctx.self_ping_ms,
            iclab,
            verdict,
            refined,
            dc_country: by_dc.country(),
            diagnostics,
            defense,
            proxy,
        })),
    )
}

/// Stamp the closing event on a proxy's trace and package the outcome.
/// Also folds the ledger outcome into the `audit.*` counters the
/// reliability report cross-checks against its recount.
fn finish_proxy(
    rec: Recorder,
    net: &Network,
    status: &'static str,
    result: ProxyResult,
) -> ProxyOutcome {
    rec.count(
        match status {
            "measured" => "audit.measured",
            "insufficient_data" => "audit.insufficient",
            _ => "audit.unmeasurable",
        },
        1,
    );
    // Stamp the final sim time unconditionally (a no-op at Level::Off):
    // the snapshot stream reads it even when the event trace is off.
    rec.set_now_ns(net.now().as_nanos());
    if rec.events_enabled() {
        rec.event("audit", "proxy_done", [("status", status.into())]);
    }
    ProxyOutcome { result, trace: rec }
}

/// One study's reliability ledger: how many proxies got a verdict, how
/// many were refused one (and why), and the summed measurement effort.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilitySummary {
    /// Proxies with a full measurement and verdict.
    pub measured: usize,
    /// Proxies refused a verdict for thin data.
    pub insufficient: usize,
    /// Proxies that never answered anything.
    pub unmeasurable: usize,
    /// Runs that missed the phase-1 quorum and degraded to a sweep.
    pub quorum_degraded: usize,
    /// Summed diagnostics across every proxy (measured or not).
    pub totals: MeasurementDiagnostics,
}

/// Resolve groups (same provider + AS + /24) whose members' regions share
/// exactly one country; upgrade members' uncertain verdicts accordingly.
fn apply_group_disambiguation(records: &mut [ProxyRecord]) {
    use std::collections::HashMap;
    let mut groups: HashMap<(usize, CountryId, usize), Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        groups.entry(r.proxy.group_key).or_default().push(i);
    }
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let touched_sets: Vec<Vec<CountryId>> = members
            .iter()
            .map(|&i| records[i].verdict.touched.iter().map(|&(c, _)| c).collect())
            .collect();
        let refs: Vec<&[CountryId]> = touched_sets.iter().map(Vec::as_slice).collect();
        let group = by_touched_sets(&refs);
        for &i in members {
            let record = &mut records[i];
            record.refined.assessment =
                group.refine(record.refined.assessment, record.proxy.claimed);
        }
    }
}

impl StudyResults {
    /// (credible, uncertain, false) counts under a verdict selector.
    /// Withheld verdicts live outside the 3-way split; see
    /// [`StudyResults::suspicious`].
    pub fn counts(&self, refined: bool) -> (usize, usize, usize) {
        crate::report::tally_records(self, refined).three_way()
    }

    /// Proxies whose verdict was *withheld* by the defense layer under a
    /// verdict selector (always 0 for the baseline selector — only the
    /// refined pipeline degrades to `Suspicious`).
    pub fn suspicious(&self, refined: bool) -> usize {
        crate::report::tally_records(self, refined).suspicious
    }

    /// Fig. 17 row categories: (credible, uncertain-country
    /// continent-credible, uncertain-both, false-country
    /// continent-credible, false-country continent-uncertain,
    /// continent-false), using refined verdicts.
    pub fn fig17_categories(&self) -> [usize; 6] {
        let mut out = [0usize; 6];
        for r in &self.records {
            let idx = match (r.refined.assessment, r.refined.continent) {
                (Assessment::Credible, _) => 0,
                (Assessment::Uncertain, ContinentVerdict::Credible) => 1,
                // A withheld (Suspicious) verdict is maximal uncertainty
                // at both levels.
                (Assessment::Uncertain | Assessment::Suspicious, _) => 2,
                (Assessment::False, ContinentVerdict::Credible) => 3,
                (Assessment::False, ContinentVerdict::Uncertain) => 4,
                (Assessment::False, ContinentVerdict::False) => 5,
            };
            out[idx] += 1;
        }
        out
    }

    /// Agreement rate with provider claims per provider, for a verdict
    /// mode: `generous` counts uncertain as agreement ("generous"), else
    /// only credible ("strict") — Fig. 21's two CBG++ rows.
    pub fn cbgpp_agreement(&self, provider: usize, generous: bool) -> f64 {
        let (mut agree, mut total) = (0usize, 0usize);
        for r in &self.records {
            if r.proxy.provider != provider {
                continue;
            }
            total += 1;
            match r.refined.assessment {
                Assessment::Credible => agree += 1,
                Assessment::Uncertain if generous => agree += 1,
                _ => {}
            }
        }
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// ICLab agreement rate per provider (accepted / total).
    pub fn iclab_agreement(&self, provider: usize) -> f64 {
        let (mut agree, mut total) = (0usize, 0usize);
        for r in &self.records {
            if r.proxy.provider != provider {
                continue;
            }
            total += 1;
            if r.iclab == IclabVerdict::Accepted {
                agree += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// Landmark disk-cache telemetry, read back from the recorder's
    /// `cache.disk.*` counters (all zero at [`obs::Level::Off`]). The
    /// fill-once cache makes the split exact: `misses == entries` and
    /// `hits + misses` equals the lookup count, for any shard and
    /// thread split.
    pub fn cache_stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.obs.counter("cache.disk.hits"),
            misses: self.obs.counter("cache.disk.misses"),
            entries: self.obs.counter("cache.disk.entries") as usize,
        }
    }

    /// The study's full event trace as JSON Lines, one event per line,
    /// merged in proxy order — byte-identical for any thread count.
    /// Empty unless the study ran at [`obs::Level::Events`].
    pub fn trace_jsonl(&self) -> String {
        self.obs.events_jsonl()
    }

    /// Every progress snapshot as JSONL — byte-identical for any
    /// shard × thread split, so the determinism matrix compares it
    /// alongside the event trace, and `figures ops` writes it to disk.
    pub fn snapshots_jsonl(&self) -> String {
        self.snapshots
            .iter()
            .map(ProgressSnapshot::deterministic_jsonl)
            .collect()
    }

    /// Aggregate the per-proxy measurement diagnostics into one
    /// study-level reliability picture.
    pub fn reliability_summary(&self) -> ReliabilitySummary {
        let mut totals = MeasurementDiagnostics::default();
        let mut quorum_degraded = 0usize;
        for r in &self.records {
            totals.absorb(&r.diagnostics);
            if r.diagnostics.quorum_degraded {
                quorum_degraded += 1;
            }
        }
        let mut insufficient = 0usize;
        let mut unmeasurable = 0usize;
        for f in &self.failures {
            totals.absorb(&f.diagnostics);
            if f.diagnostics.quorum_degraded {
                quorum_degraded += 1;
            }
            match f.failure {
                MeasureFailure::InsufficientData => insufficient += 1,
                MeasureFailure::Unmeasurable => unmeasurable += 1,
            }
        }
        ReliabilitySummary {
            measured: self.records.len(),
            insufficient,
            unmeasurable,
            quorum_degraded,
            totals,
        }
    }

    /// Evaluation-only ground-truth check: fraction of records whose
    /// prediction covered the proxy's true country.
    pub fn coverage_of_truth(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let covered = self
            .records
            .iter()
            .filter(|r| {
                r.verdict
                    .touched
                    .iter()
                    .any(|&(c, _)| c == r.proxy.true_country)
            })
            .count();
        covered as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    fn results() -> &'static Mutex<(Study, StudyResults)> {
        static S: OnceLock<Mutex<(Study, StudyResults)>> = OnceLock::new();
        S.get_or_init(|| {
            let mut study = Study::build(StudyConfig::small(41));
            let results = study.run();
            Mutex::new((study, results))
        })
    }

    #[test]
    fn nearly_all_proxies_are_measured() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        assert!(res.records.len() + res.unmeasured == study.providers.proxies.len());
        assert!(
            res.records.len() * 10 >= study.providers.proxies.len() * 9,
            "only {} of {} measured",
            res.records.len(),
            study.providers.proxies.len()
        );
    }

    #[test]
    fn reliability_summary_accounts_for_every_proxy() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        let s = res.reliability_summary();
        assert_eq!(
            s.measured + s.insufficient + s.unmeasurable,
            study.providers.proxies.len(),
            "a proxy fell out of the ledger"
        );
        assert_eq!(res.failures.len(), res.unmeasured);
        assert!(s.totals.attempts > 0);
        assert!(s.totals.landmarks_measured > 0);
        for r in &res.records {
            assert!(!r.diagnostics.is_empty(), "record without diagnostics");
        }
        for f in &res.failures {
            assert!(!f.diagnostics.is_empty(), "failure without diagnostics");
        }
        let rendered = crate::report::render_reliability(res);
        assert!(rendered.contains("measured"));
        assert!(rendered.contains("phase 1"));
    }

    #[test]
    fn disk_cache_is_actually_shared_across_proxies() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        assert!(res.threads >= 1);
        // Every measured proxy queries disks for the same constellation,
        // so once the fleet is larger than a handful the cache must be
        // doing real work.
        let cache = res.cache_stats();
        assert!(
            cache.hits > 0,
            "cache never reused an entry: {} hits / {} misses over {} proxies",
            cache.hits,
            cache.misses,
            study.providers.proxies.len()
        );
        // Fill-once: each distinct key is rasterized by exactly one
        // worker, so the miss count *is* the entry count.
        assert_eq!(cache.entries as u64, cache.misses);
        let rendered = crate::report::render_perf_telemetry(res);
        assert!(rendered.contains("disk cache"));
        assert!(rendered.contains("threads"));
    }

    #[test]
    fn recorder_ledger_agrees_with_reliability_recount() {
        // The audit.* counters are emitted at measurement time; the
        // summary is recounted from the records afterwards. They must
        // tell the same story or a layer is lying.
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        let s = res.reliability_summary();
        assert_eq!(res.obs.counter("audit.measured") as usize, s.measured);
        assert_eq!(
            res.obs.counter("audit.insufficient") as usize,
            s.insufficient
        );
        assert_eq!(
            res.obs.counter("audit.unmeasurable") as usize,
            s.unmeasurable
        );
        assert_eq!(
            res.obs.counter("tp.quorum_degraded") as usize,
            s.quorum_degraded
        );
        assert_eq!(
            s.measured + s.insufficient + s.unmeasurable,
            study.providers.proxies.len()
        );
        assert!(res.obs.counter("net.probe.sent") > 0);
        assert!(
            res.obs.counter("net.probe.sent")
                >= res.obs.counter("net.probe.completed") + res.obs.counter("net.probe.timeout")
        );
    }

    #[test]
    fn trace_has_one_start_and_done_per_proxy_in_proxy_order() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        let n = study.providers.proxies.len();
        res.obs.with_events(|evs| {
            let evs: Vec<_> = evs.collect();
            let starts: Vec<u64> = evs
                .iter()
                .filter(|e| e.name == "proxy_start")
                .map(|e| e.field_u64("node").unwrap())
                .collect();
            assert_eq!(starts.len(), n);
            let expected: Vec<u64> = study
                .providers
                .proxies
                .iter()
                .map(|p| u64::from(p.node))
                .collect();
            assert_eq!(starts, expected, "trace not merged in proxy order");
            assert_eq!(evs.iter().filter(|e| e.name == "proxy_done").count(), n);
        });
        assert_eq!(res.trace_jsonl().lines().count(), res.obs.events_len());
        // Wall compartment: one audit.proxy profile root per proxy,
        // with the measurement stages nested beneath it.
        let proxy_stat = res
            .obs
            .profile_stat("audit.proxy")
            .expect("per-proxy profile root");
        assert_eq!(proxy_stat.count as usize, n);
        assert!(proxy_stat.self_ns <= proxy_stat.cum_ns);
    }

    #[test]
    fn snapshot_stream_covers_every_proxy() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        let n = study.providers.proxies.len() as u64;
        let every = study.config.snapshot_every.max(1) as u64;
        let expected = (n / every) + u64::from(!n.is_multiple_of(every));
        assert_eq!(res.snapshots.len() as u64, expected);
        let last = res.snapshots.last().expect("snapshots emitted");
        assert_eq!(last.proxies_done, n);
        assert_eq!(last.proxies_total, n);
        assert_eq!(last.measured as usize, res.records.len());
        assert_eq!(
            last.measured + last.insufficient + last.unmeasurable,
            n,
            "snapshot outcome tallies must partition the fleet"
        );
        // Per-proxy probe counters sum to at most the study total (the
        // run's own η-estimation probes are outside any proxy).
        assert!(last.probes_sent > 0);
        assert!(last.probes_sent <= res.obs.counter("net.probe.sent"));
        assert!(last.sim_now_ns > 0, "sim clock never stamped");
        // Sequence numbers are dense and done counts are increasing.
        for (i, s) in res.snapshots.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            if i > 0 {
                assert!(s.proxies_done > res.snapshots[i - 1].proxies_done);
            }
        }
        assert_eq!(res.snapshots_jsonl().lines().count(), res.snapshots.len());
    }

    #[test]
    fn profile_tree_covers_the_audit_stages() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        let n = study.providers.proxies.len();
        // Coordinator roots: η, then the one fold of every proxy's
        // trace, both inside the run.
        assert_eq!(res.obs.profile_stat("audit.run").unwrap().count, 1);
        for stage in ["audit.run/audit.eta_estimation", "audit.run/audit.absorb"] {
            assert_eq!(
                res.obs.profile_stat(stage).map(|s| s.count),
                Some(1),
                "{stage}"
            );
        }
        // Worker stages nest under audit.proxy; every measured proxy
        // ran phase 1 and located, and each probe bottoms out in the
        // simulator's net.probe span.
        let measured = res.records.len() as u64;
        assert!(measured > 0);
        let phase1 = res
            .obs
            .profile_stat("audit.proxy/twophase.phase1")
            .expect("phase-1 span");
        assert!(phase1.count as usize <= n);
        let locate = res
            .obs
            .profile_stat("audit.proxy/audit.locate")
            .expect("locate span");
        assert_eq!(locate.count, measured);
        let rel_probe = res
            .obs
            .profile_stat("audit.proxy/twophase.phase1/rel.probe")
            .expect("scheduler probe span");
        let net_probe = res
            .obs
            .profile_stat("audit.proxy/twophase.phase1/rel.probe/net.probe")
            .expect("simulator probe span");
        assert!(net_probe.count >= rel_probe.count);
        // Disk intersections under the locate stage, reaching the cache.
        let intersect = res
            .obs
            .profile_stat("audit.proxy/audit.locate/cbgpp.baseline/subset.intersect")
            .expect("baseline intersection span");
        assert!(intersect.count >= measured);
        let lookup = res
            .obs
            .profile_stat("audit.proxy/audit.locate/cbgpp.baseline/subset.intersect/cache.lookup")
            .expect("disk cache lookup span");
        assert!(lookup.count > 0);
        // Self time never exceeds cumulative anywhere in the tree.
        for (path, stat) in res.obs.profile() {
            assert!(stat.self_ns <= stat.cum_ns, "self > cum at {path}");
        }
        // The rendered tree indents children under their parents.
        let tree = obs::render_profile_from(&res.obs.profile());
        assert!(tree.contains("audit.proxy"));
        assert!(
            tree.contains("  audit.locate"),
            "no indented child:\n{tree}"
        );
    }

    #[test]
    fn build_profile_times_every_setup_stage() {
        let g = results().lock().unwrap();
        let (study, _) = &*g;
        let stages: Vec<(String, u64)> = study
            .build_profile
            .profile()
            .into_iter()
            .map(|(path, stat)| (path, stat.count))
            .collect();
        let want: Vec<(String, u64)> = [
            "build.atlas",
            "build.calibration",
            "build.constellation",
            "build.deploy",
            "build.world",
        ]
        .iter()
        .map(|&path| (path.to_string(), 1))
        .collect();
        assert_eq!(stages, want);
        // Wall-clock only: nothing deterministic is recorded.
        assert!(study.build_profile.counters().is_empty());
        assert_eq!(study.build_profile.events_len(), 0);
    }

    #[test]
    fn defense_run_attributes_its_stages_to_child_spans() {
        let mut cfg = StudyConfig::small(43);
        cfg.total_proxies = 6;
        cfg.defense = geoloc::DefenseConfig::enabled();
        let res = Study::build(cfg).run_sharded(1, 1);
        let defended = res.records.iter().filter(|r| r.defense.is_some()).count() as u64;
        assert!(defended > 0, "no proxy reached the defense");
        for child in ["defense.pairwise", "defense.quorum", "defense.trim"] {
            let path = format!("audit.proxy/audit.assess/audit.defense/defense.run/{child}");
            assert_eq!(
                res.obs.profile_stat(&path).map(|s| s.count),
                Some(defended),
                "{path}"
            );
        }
    }

    #[test]
    fn obs_level_off_records_nothing_but_results_match() {
        let mut cfg = StudyConfig::small(41);
        cfg.total_proxies = 8;
        cfg.obs_level = obs::Level::Off;
        let mut quiet = Study::build(cfg.clone());
        let quiet_res = quiet.run_sharded(1, 2);
        assert_eq!(quiet_res.obs.events_len(), 0);
        assert_eq!(quiet_res.obs.counter("net.probe.sent"), 0);
        cfg.obs_level = obs::Level::Events;
        let mut loud = Study::build(cfg);
        let loud_res = loud.run_sharded(1, 2);
        assert!(loud_res.obs.events_len() > 0);
        // Observability depth never changes the science.
        assert_eq!(quiet_res.records.len(), loud_res.records.len());
        for (a, b) in quiet_res.records.iter().zip(&loud_res.records) {
            assert_eq!(a.proxy.node, b.proxy.node);
            assert_eq!(a.region_area_km2.to_bits(), b.region_area_km2.to_bits());
            assert_eq!(a.verdict.assessment, b.verdict.assessment);
        }
    }

    #[test]
    fn eta_is_estimated_near_half() {
        let g = results().lock().unwrap();
        let (_, res) = &*g;
        if let Some(eta) = res.eta {
            assert!(
                (eta.eta() - 0.5).abs() < 0.1,
                "η = {} from {} samples",
                eta.eta(),
                eta.samples
            );
        }
    }

    #[test]
    fn predictions_cover_the_true_country_mostly() {
        // CBG++'s design goal: be certain the proxy is where we say it
        // is. At small scale a few borderline regions are tolerable.
        let g = results().lock().unwrap();
        let (_, res) = &*g;
        let cov = res.coverage_of_truth();
        assert!(cov >= 0.8, "true-country coverage {cov}");
    }

    #[test]
    fn verdict_mix_is_paper_shaped() {
        // The headline: a sizeable fraction of claims false, a sizeable
        // fraction credible/uncertain.
        let g = results().lock().unwrap();
        let (_, res) = &*g;
        let (credible, uncertain, false_) = res.counts(true);
        let total = credible + uncertain + false_;
        assert!(total > 0);
        assert!(
            false_ * 5 >= total,
            "too few false verdicts: {false_}/{total}"
        );
        assert!(
            credible + uncertain > 0,
            "no claim survived at all — miscalibrated pipeline"
        );
    }

    #[test]
    fn false_verdicts_are_usually_actually_false() {
        // Precision check against ground truth: when the pipeline says
        // "false", the provider claim should indeed be wrong nearly
        // always (the paper's priority: never wrongly accuse).
        let g = results().lock().unwrap();
        let (_, res) = &*g;
        let (mut right, mut total) = (0usize, 0usize);
        for r in &res.records {
            if r.refined.assessment == Assessment::False {
                total += 1;
                if r.proxy.claimed != r.proxy.true_country {
                    right += 1;
                }
            }
        }
        if total > 0 {
            let precision = right as f64 / total as f64;
            assert!(precision >= 0.9, "false-verdict precision {precision}");
        }
    }

    #[test]
    fn refinement_only_resolves_uncertainty() {
        let g = results().lock().unwrap();
        let (_, res) = &*g;
        for r in &res.records {
            if r.verdict.assessment != Assessment::Uncertain {
                assert_eq!(r.verdict.assessment, r.refined.assessment);
            }
        }
        let (_, u_raw, _) = res.counts(false);
        let (_, u_ref, _) = res.counts(true);
        assert!(u_ref <= u_raw, "refinement increased uncertainty");
    }

    #[test]
    fn fig17_categories_partition_records() {
        let g = results().lock().unwrap();
        let (_, res) = &*g;
        let cats = res.fig17_categories();
        assert_eq!(cats.iter().sum::<usize>(), res.records.len());
    }

    #[test]
    fn agreement_rates_are_probabilities() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        for p in 0..study.providers.profiles.len() {
            let strict = res.cbgpp_agreement(p, false);
            let generous = res.cbgpp_agreement(p, true);
            assert!((0.0..=1.0).contains(&strict));
            assert!(generous >= strict);
            let iclab = res.iclab_agreement(p);
            assert!((0.0..=1.0).contains(&iclab));
        }
    }

    /// A results value with nothing in it — no study ran at all.
    fn empty_results() -> StudyResults {
        StudyResults {
            records: Vec::new(),
            eta: None,
            failures: Vec::new(),
            unmeasured: 0,
            obs: Recorder::off(),
            threads: 1,
            shards: 1,
            snapshots: Vec::new(),
        }
    }

    fn dummy_proxy(node: NodeId) -> DeployedProxy {
        DeployedProxy {
            node,
            provider: 0,
            claimed: 0,
            true_country: 0,
            true_location: geokit::GeoPoint::new(0.0, 0.0),
            group_key: (0, 0, 0),
            pingable: false,
            gateway: node,
        }
    }

    #[test]
    fn empty_study_has_all_zero_ledgers() {
        let res = empty_results();
        let s = res.reliability_summary();
        assert_eq!((s.measured, s.insufficient, s.unmeasurable), (0, 0, 0));
        assert_eq!(s.quorum_degraded, 0);
        assert_eq!(res.counts(false), (0, 0, 0));
        assert_eq!(res.counts(true), (0, 0, 0));
        assert_eq!(res.fig17_categories(), [0; 6]);
        assert_eq!(
            res.cache_stats(),
            geoloc::multilateration::DiskCacheStats::default()
        );
        // Rendering must cope: no division by zero, no panic.
        let rendered = crate::report::render_reliability(&res);
        assert!(rendered.contains("0 total"));
        assert!(crate::report::render_observability(&res).contains("0 events"));
        assert!(res.trace_jsonl().is_empty());
    }

    #[test]
    fn all_unmeasured_study_partitions_into_failure_kinds() {
        let mut res = empty_results();
        res.failures = vec![
            UnmeasuredProxy {
                proxy: dummy_proxy(1),
                failure: MeasureFailure::Unmeasurable,
                diagnostics: MeasurementDiagnostics::default(),
            },
            UnmeasuredProxy {
                proxy: dummy_proxy(2),
                failure: MeasureFailure::InsufficientData,
                diagnostics: MeasurementDiagnostics::default(),
            },
            UnmeasuredProxy {
                proxy: dummy_proxy(3),
                failure: MeasureFailure::Unmeasurable,
                diagnostics: MeasurementDiagnostics::default(),
            },
        ];
        res.unmeasured = res.failures.len();
        let s = res.reliability_summary();
        assert_eq!((s.measured, s.insufficient, s.unmeasurable), (0, 1, 2));
        // Nothing was measured, so every verdict table is empty …
        assert_eq!(res.counts(true), (0, 0, 0));
        assert_eq!(res.fig17_categories(), [0; 6]);
        // … but the reliability ledger still accounts for every proxy.
        let rendered = crate::report::render_reliability(&res);
        assert!(rendered.contains("3 total"));
        assert!(rendered.contains("2 unmeasurable"));
    }
}
