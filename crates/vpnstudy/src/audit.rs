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
use geoloc::disambiguate::{by_data_centers, by_touched_sets, Disambiguation};
use geoloc::iclab::{IclabChecker, IclabVerdict};
use geoloc::multilateration::{DiskCache, DiskCacheStats};
use geoloc::proxy::{estimate_eta, EtaEstimate, ProxyContext, DEFAULT_ETA};
use geoloc::reliability::{MeasurementDiagnostics, ProbeScheduler};
use geoloc::observation::Observation;
use geoloc::twophase::{run_two_phase_reliable, MeasurementStatus, ProxyProber, RttProber};
use netsim::{FilterPolicy, Network, NodeId, SimDuration, WorldNet, WorldNetConfig};
use obs::snapshot::{
    ProgressSink, ProgressSnapshot, ProxyOutcome as SnapshotOutcome, ProxyStat, SnapshotBuilder,
    WallProgress,
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
    /// Progress sinks the audit master drives at snapshot intervals
    /// (registered via [`Study::add_progress_sink`], drained into the
    /// next run).
    progress_sinks: Vec<Box<dyn ProgressSink>>,
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
    /// Worker count the audit actually ran with.
    pub threads: usize,
    /// Shard count the audit master fanned out over (1 for the
    /// monolithic path). Wall-side bookkeeping only: the deterministic
    /// output is byte-identical for every value.
    pub shards: usize,
    /// Progress snapshots emitted during the run, one every
    /// [`StudyConfig::snapshot_every`] proxies plus a final one. The
    /// deterministic compartment of each snapshot is a pure function of
    /// the study seed ([`StudyResults::snapshots_jsonl`] is what the
    /// determinism matrix compares); the wall compartment is back-filled at
    /// merge time and stays out of every diff.
    pub snapshots: Vec<ProgressSnapshot>,
    /// Per-shard final gauges (wall-side: the split itself is invisible
    /// to the deterministic output, so anything keyed by shard id is
    /// operational telemetry only).
    pub shard_progress: Vec<ShardProgress>,
}

/// Final per-shard progress gauges, captured at merge time. Everything
/// here is wall-compartment telemetry: shard boundaries are a run-shape
/// choice, so per-shard numbers must never enter a determinism diff.
#[derive(Debug, Clone, Copy)]
pub struct ShardProgress {
    /// The shard's index in the plan.
    pub shard_id: usize,
    /// Proxies the shard audited (records + failures).
    pub proxies_done: u64,
    /// Probes the shard's proxies sent.
    pub probes_sent: u64,
    /// Retries the shard's reliability layer scheduled.
    pub retries: u64,
    /// Hit ratio of the shard's private fill-once disk cache.
    pub cache_hit_ratio: f64,
    /// Fraction of the shard's range finished (1.0 after a completed
    /// run; the field exists so a live sink sees the same shape).
    pub progress_ratio: f64,
}

impl Study {
    /// Build the world, constellation, calibration, and provider fleet.
    pub fn build(config: StudyConfig) -> Study {
        let grid = GeoGrid::new(config.grid_resolution_deg);
        let atlas = Arc::new(WorldAtlas::new(grid));
        let registry = DataCenterRegistry::from_atlas(&atlas);
        let survey = MarketSurvey::generate(&atlas, config.seed ^ 0x5a1e5);
        let mut world = WorldNet::build(
            Arc::clone(&atlas),
            WorldNetConfig {
                seed: config.seed,
                ..WorldNetConfig::default()
            },
        );
        let constellation = Constellation::place(&mut world, &config.constellation);
        let calibration =
            CalibrationDb::collect(world.network_mut(), &constellation, config.calibration_pings);
        let providers = ProviderSet::deploy(&mut world, &survey, &config);
        let client = world.attach_host(config.client_location, FilterPolicy::default());
        let mask = atlas.plausibility_mask().clone();
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
            progress_sinks: Vec::new(),
        }
    }

    /// Register a progress sink for the next run. Sinks receive every
    /// [`ProgressSnapshot`] in `seq` order (wall compartment filled) and
    /// are drained by the run that consumes them.
    pub fn add_progress_sink(&mut self, sink: Box<dyn ProgressSink>) {
        self.progress_sinks.push(sink);
    }

    /// Run the audit over every deployed proxy on one shard and
    /// [`parallel::configured_threads`] workers (`PV_THREADS` pins the
    /// count; results are byte-identical for any split — see
    /// [`run_sharded`](Study::run_sharded)).
    pub fn run(&mut self) -> StudyResults {
        self.run_sharded(1, parallel::configured_threads())
    }

    /// Run the audit as `shard_count` independent shards on `threads`
    /// total workers, then merge.
    ///
    /// **The determinism contract, lifted one level:** any shard count ×
    /// any thread count is byte-identical to the monolithic
    /// (1-shard, 1-thread) run. The master shards the proxy universe by
    /// pure `(seed, shard_id, shard_count)` arithmetic
    /// ([`plan_shards`]); each shard worker gets its own
    /// [`Network::fork`] lineage, a [`Recorder`] forked from the
    /// master's, its own disk cache, and measures its contiguous slice
    /// of proxies; [`StudyResults::merge`] reassembles shard outputs in
    /// shard order. The per-proxy argument is unchanged from the thread
    /// pool's: every stochastic input derives from
    /// `(config.seed, proxy.node)` alone, a fork-of-a-fork that probes
    /// nothing in between is indistinguishable from a fork of the
    /// parent, and the fill-once cache's counters are reconstructed
    /// exactly from per-shard key sets (see
    /// [`merge`](StudyResults::merge)).
    pub fn run_sharded(&mut self, shard_count: usize, threads: usize) -> StudyResults {
        let (master, shards) = self.run_shards(shard_count, threads);
        StudyResults::merge(master, shards)
    }

    /// The master half of [`run_sharded`](Study::run_sharded): estimate
    /// η serially, then fan the shard plan out and return the per-shard
    /// results *unmerged*, along with the master state
    /// ([`StudyResults::merge`] consumes both). Exposed so tests can
    /// exercise merge semantics (ordering, neutrality of empty shards)
    /// directly.
    ///
    /// `threads` is the total worker budget: up to
    /// `min(shard_count, threads)` shards run concurrently, each fanning
    /// its proxies out over an equal share of the remaining budget. Any
    /// split produces the same bytes; the split only shapes wall-clock
    /// time.
    pub fn run_shards(
        &mut self,
        shard_count: usize,
        threads: usize,
    ) -> (ShardMaster, Vec<ShardResults>) {
        let shard_count = shard_count.max(1);
        let threads = threads.max(1);
        let atlas = Arc::clone(self.world.atlas());
        let recorder = Recorder::new(self.config.obs_level);
        let run_span = recorder.profile_span("audit.run");

        // η estimation over the pingable subset (§5.3, Fig. 13). Runs
        // serially on the master network before any shard forks, so its
        // events land at the head of the trace in a fixed order and
        // every shard lineage forks from the same post-η clock.
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
                [
                    ("eta", eta.into()),
                    ("pingable", pingable.len().into()),
                ],
            );
        }

        // One landmark server for the whole fleet: the phase-1 anchor
        // selection, per-landmark continent table, and calibration-anchor
        // mapping are pure functions of the constellation, so every
        // shard shares one read-only server instead of rebuilding it.
        let server = LandmarkServer::new(&self.constellation, &self.calibration, &atlas);
        let master = MasterCtx {
            network: self.world.network(),
            client: self.client,
            eta,
            config: &self.config,
            server: &server,
            atlas: &atlas,
            mask: &self.mask,
            registry: &self.registry,
            obs: &recorder,
        };

        let proxies = self.providers.proxies.clone();
        let plan = plan_shards(self.config.seed, proxies.len(), shard_count);
        let inputs: Vec<(ShardSpec, Vec<DeployedProxy>)> = plan
            .into_iter()
            .map(|spec| {
                let slice = proxies[spec.start..spec.end].to_vec();
                (spec, slice)
            })
            .collect();
        // Split the worker budget: outer workers run shards, each shard
        // fans its proxies out over an equal share of what remains. Any
        // split is byte-equivalent; this one keeps the budget busy.
        let outer = shard_count.min(threads);
        let inner = (threads / outer).max(1);
        let shards = parallel::map_indexed(outer, inputs, |_, (spec, slice)| {
            run_shard(spec, slice, inner, &master)
        });
        drop(run_span);

        // The recorder belongs to this run: detach it from the shared
        // network so later ad-hoc measurements (figure harnesses,
        // benches) don't keep appending to a finished run's trace.
        self.world.network_mut().set_recorder(Recorder::off());

        (
            ShardMaster {
                eta: eta_est,
                obs: recorder,
                threads,
                snapshot_every: self.config.snapshot_every.max(1) as u64,
                sinks: std::mem::take(&mut self.progress_sinks),
            },
            shards,
        )
    }
}

/// One shard's slice of the proxy universe, derived by pure
/// `(seed, shard_id, shard_count)` arithmetic — no RNG, no machine
/// state, so every master computes the identical plan.
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
    /// Seed for the shard's [`Network::fork`] lineage, pure in
    /// `(seed, shard_id)`. The shard fork itself never probes — per-proxy
    /// forks re-seed from `(seed, proxy.node)` — so this value shapes no
    /// output byte; it exists so the lineage is still fully specified.
    pub net_seed: u64,
}

/// Compute the shard plan: `shard_count` contiguous, balanced ranges
/// covering `0..total` (sizes differ by at most one; empty ranges are
/// legal when `shard_count > total`). Contiguity is what makes merging
/// trivial — concatenating shard outputs in `start` order *is* proxy
/// order, so the merged trace and record list match the monolithic run
/// byte for byte.
pub fn plan_shards(seed: u64, total: usize, shard_count: usize) -> Vec<ShardSpec> {
    let shard_count = shard_count.max(1);
    (0..shard_count)
        .map(|shard_id| ShardSpec {
            shard_id,
            shard_count,
            start: shard_id * total / shard_count,
            end: (shard_id + 1) * total / shard_count,
            net_seed: seed
                ^ 0x5aa2d
                ^ (shard_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        })
        .collect()
}

/// What the master keeps for itself while shards run: the η estimate,
/// the master recorder (η events + run-level spans), and the worker
/// budget. [`StudyResults::merge`] folds shard outputs into this.
pub struct ShardMaster {
    /// The η estimate every shard measured with.
    pub eta: Option<EtaEstimate>,
    /// The master recorder; shard traces are absorbed into it in shard
    /// order at merge time.
    pub obs: Recorder,
    /// Total worker budget the run was given.
    pub threads: usize,
    /// Snapshot interval (proxies per snapshot) from the study config.
    pub snapshot_every: u64,
    /// Progress sinks to drive while folding shard outputs.
    pub sinks: Vec<Box<dyn ProgressSink>>,
}

/// One shard's complete, mergeable output: its records and failures in
/// proxy order, its recorder (per-proxy traces already absorbed in
/// proxy order), and enough cache accounting to reconstruct the shared
/// cache's exact counters at merge time.
pub struct ShardResults {
    /// The plan entry this shard executed.
    pub spec: ShardSpec,
    /// Records for the shard's range, in proxy order.
    pub records: Vec<ProxyRecord>,
    /// Failures for the shard's range, in proxy order.
    pub failures: Vec<UnmeasuredProxy>,
    /// The shard recorder: deterministic events/counters for the range,
    /// plus the shard's wall-clock profile subtree.
    pub trace: Recorder,
    /// Per-proxy deterministic deltas in proxy order, captured before
    /// each proxy's trace folded into the shard recorder. Concatenated
    /// in range order at merge time, these drive the snapshot stream.
    pub proxy_stats: Vec<ProxyStat>,
    /// Total disk-cache lookups (hits + misses) this shard issued.
    pub cache_lookups: u64,
    /// Sorted distinct cache keys this shard rasterized
    /// ([`DiskCache::export_keys`]); the union across shards reconstructs
    /// the monolithic cache's entry count.
    pub cache_keys: Vec<(u64, u64, u32)>,
}

/// Read-only master state a shard worker measures against.
struct MasterCtx<'a> {
    network: &'a Network,
    client: NodeId,
    eta: f64,
    config: &'a StudyConfig,
    server: &'a LandmarkServer<'a>,
    atlas: &'a Arc<WorldAtlas>,
    mask: &'a Region,
    registry: &'a DataCenterRegistry,
    obs: &'a Recorder,
}

/// Execute one shard: fork the network lineage and recorder, measure the
/// shard's proxies on `inner_threads` workers, absorb their traces in
/// proxy order, and package the mergeable result.
///
/// The shard's [`Network::fork`] never probes, so per-proxy forks taken
/// from it are bit-identical to forks taken from the master network
/// (same clock, same shared topology, untouched fault state) — the heart
/// of the shard-count-invariance argument.
fn run_shard(
    spec: ShardSpec,
    proxies: Vec<DeployedProxy>,
    inner_threads: usize,
    master: &MasterCtx<'_>,
) -> ShardResults {
    let shard_rec = master.obs.fork();
    // Rooted so the shard subtree has the same profile shape whether the
    // shard ran inline on the coordinator or on an outer worker thread.
    let shard_span = shard_rec.profile_span_root("audit.shard");
    let shard_net = master.network.fork(spec.net_seed);
    // Each shard fills its own cache: lookups profile into the shard
    // recorder, and the exact counters a *shared* cache would have
    // reported are reconstructed at merge time from the per-shard key
    // sets (a cached region is bitwise the fresh rasterization, so the
    // per-proxy lookup sequence is cache-state-independent).
    let cache = {
        let mut cache = DiskCache::new(Arc::clone(master.mask.grid()));
        cache.set_recorder(shard_rec.clone());
        Arc::new(cache)
    };
    let ctx = AuditCtx {
        network: &shard_net,
        client: master.client,
        eta: master.eta,
        config: master.config,
        server: master.server,
        atlas: master.atlas,
        mask: master.mask,
        registry: master.registry,
        cache: &cache,
        obs: &shard_rec,
    };
    let outcomes = parallel::map_indexed(inner_threads, proxies, |_, proxy| {
        measure_one_proxy(proxy, &ctx)
    });

    // Merge the worker-local buffers back in proxy order: the shard
    // trace is byte-identical for any inner thread count.
    let absorb_span = shard_rec.profile_span("audit.absorb");
    let mut records: Vec<ProxyRecord> = Vec::with_capacity(outcomes.len());
    let mut failures: Vec<UnmeasuredProxy> = Vec::new();
    let mut proxy_stats: Vec<ProxyStat> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        // Capture the proxy's deterministic delta off its still-private
        // trace *before* it folds into the shard recorder: the loop is
        // single-threaded and proxy-ordered, so the stat stream is a
        // pure function of the shard's range regardless of how many
        // inner workers measured.
        proxy_stats.push(proxy_stat(&outcome));
        shard_rec.absorb(&outcome.trace);
        match outcome.result {
            ProxyResult::Record(r) => records.push(*r),
            ProxyResult::Failure(f) => failures.push(f),
        }
    }
    drop(absorb_span);
    let stats = cache.stats();
    drop(shard_span);
    ShardResults {
        spec,
        records,
        failures,
        trace: shard_rec,
        proxy_stats,
        cache_lookups: stats.hits + stats.misses,
        cache_keys: cache.export_keys(),
    }
}

/// Read one finished proxy's deterministic delta off its worker-local
/// trace: probe/retry counters, the final sim-clock stamp, and the
/// outcome classification the `audit.*` ledger counters use.
fn proxy_stat(outcome: &ProxyOutcome) -> ProxyStat {
    let (node, kind) = match &outcome.result {
        ProxyResult::Record(r) => (r.proxy.node, SnapshotOutcome::Measured),
        ProxyResult::Failure(f) => (
            f.proxy.node,
            match f.failure {
                MeasureFailure::InsufficientData => SnapshotOutcome::Insufficient,
                MeasureFailure::Unmeasurable => SnapshotOutcome::Unmeasurable,
            },
        ),
    };
    ProxyStat {
        node,
        sim_now_ns: outcome.trace.now_ns(),
        probes_sent: outcome.trace.counter("net.probe.sent"),
        probes_timeout: outcome.trace.counter("net.probe.timeout"),
        retries: outcome.trace.counter("rel.retry"),
        outcome: kind,
    }
}

impl StudyResults {
    /// Reassemble a full study from the master state and the per-shard
    /// outputs of [`Study::run_shards`].
    ///
    /// Merge semantics, and why the result is byte-identical to the
    /// monolithic run:
    ///
    /// * **Order-insensitive.** Shards are re-sorted by their plan range
    ///   before anything is concatenated, so shards handed back in any
    ///   order (a property the tests exercise directly) produce the same
    ///   bytes. Because [`plan_shards`] ranges are contiguous, sorted
    ///   concatenation *is* proxy order — the invariant every
    ///   deterministic output hangs off.
    /// * **Traces.** Each shard recorder already absorbed its per-proxy
    ///   buffers in proxy order; absorbing the shard recorders into the
    ///   master in range order concatenates events exactly as the
    ///   monolithic collector would have, and merges counters and
    ///   histograms additively (both are commutative over disjoint
    ///   proxy sets, but the event stream is not — hence the sort).
    /// * **Cache counters stay exact.** Each shard ran a private
    ///   fill-once cache, so a key rasterized by two shards was counted
    ///   as a miss twice — once per shard — where a shared cache would
    ///   have counted one miss and one hit. The reconstruction uses the
    ///   sorted per-shard key sets ([`DiskCache::export_keys`]): the
    ///   union's size is what a shared cache's `entries` (and, fill-once,
    ///   its `misses`) would have been, and every remaining lookup is a
    ///   hit. Lookup *sequences* are cache-state-independent (a cached
    ///   region is bitwise the fresh rasterization), so summed per-shard
    ///   lookups equal the monolithic lookup count.
    /// * **Empty shards are neutral.** An empty range contributes no
    ///   records, no failures, no events, no keys — merging it in is a
    ///   no-op, which is what makes `shard_count > proxies` legal.
    ///
    /// Co-location group disambiguation (Fig. 16) runs here, after the
    /// merge, because groups span shard boundaries: a shard alone cannot
    /// see a group's full membership.
    pub fn merge(mut master: ShardMaster, mut shards: Vec<ShardResults>) -> StudyResults {
        let recorder = master.obs;
        let merge_span = recorder.profile_span("audit.merge");
        shards.sort_by_key(|s| (s.spec.start, s.spec.shard_id));

        let shard_count = shards.len().max(1);
        let total: usize = shards.iter().map(|s| s.records.len() + s.failures.len()).sum();
        let mut records: Vec<ProxyRecord> = Vec::with_capacity(total);
        let mut failures: Vec<UnmeasuredProxy> = Vec::new();
        let mut proxy_stats: Vec<ProxyStat> = Vec::with_capacity(total);
        let mut shard_progress: Vec<ShardProgress> = Vec::with_capacity(shards.len());
        let mut lookups = 0u64;
        let mut keys: Vec<(u64, u64, u32)> = Vec::new();
        for shard in shards {
            recorder.absorb(&shard.trace);
            shard_progress.push(ShardProgress {
                shard_id: shard.spec.shard_id,
                proxies_done: shard.proxy_stats.len() as u64,
                probes_sent: shard.proxy_stats.iter().map(|s| s.probes_sent).sum(),
                retries: shard.proxy_stats.iter().map(|s| s.retries).sum(),
                cache_hit_ratio: if shard.cache_lookups == 0 {
                    0.0
                } else {
                    shard.cache_lookups.saturating_sub(shard.cache_keys.len() as u64) as f64
                        / shard.cache_lookups as f64
                },
                progress_ratio: 1.0,
            });
            records.extend(shard.records);
            failures.extend(shard.failures);
            proxy_stats.extend(shard.proxy_stats);
            lookups += shard.cache_lookups;
            keys.extend(shard.cache_keys);
        }
        keys.sort_unstable();
        keys.dedup();

        // Co-location group disambiguation (Fig. 16): within a group, the
        // true country must be common to every member's touched set.
        apply_group_disambiguation(&mut records);

        // Reconstructed shared-cache counters: exact for any shard and
        // thread count (misses == entries under fill-once).
        let entries = keys.len() as u64;
        recorder.count("cache.disk.hits", lookups.saturating_sub(entries));
        recorder.count("cache.disk.misses", entries);
        recorder.count("cache.disk.entries", entries);

        // Drive the snapshot stream: the concatenated per-proxy stats
        // are in global proxy order (contiguous ranges, sorted), so the
        // deterministic compartment of every snapshot is a pure function
        // of (seed, snapshot_every). Wall fields are back-filled from
        // the run's own telemetry — total elapsed pro-rated over the
        // stream, the reconstructed shared-cache hit ratio — and never
        // rendered into a determinism diff.
        let elapsed_ms = recorder
            .profile_stat("audit.run")
            .map_or(0, |s| (s.cum_ns / 1_000_000) as u64);
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            lookups.saturating_sub(entries) as f64 / lookups as f64
        };
        let mut builder = SnapshotBuilder::new(proxy_stats.len() as u64, master.snapshot_every);
        let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
        for stat in &proxy_stats {
            if let Some(mut snap) = builder.push(stat) {
                let done_ms = (elapsed_ms as f64 * snap.ratio()) as u64;
                snap.wall = WallProgress {
                    elapsed_ms: done_ms,
                    eta_ms: elapsed_ms.saturating_sub(done_ms),
                    cache_hit_ratio: hit_ratio,
                };
                for sink in &mut master.sinks {
                    sink.emit(&snap);
                }
                snapshots.push(snap);
            }
        }
        drop(merge_span);

        let unmeasured = failures.len();
        StudyResults {
            records,
            eta: master.eta,
            failures,
            unmeasured,
            obs: recorder,
            threads: master.threads.max(1),
            shards: shard_count,
            snapshots,
            shard_progress,
        }
    }
}

/// Everything [`measure_one_proxy`] needs beyond the proxy itself:
/// the shared read-only world, the study knobs, and the observability
/// recorder workers fork their per-proxy buffers from.
struct AuditCtx<'a> {
    network: &'a Network,
    client: NodeId,
    eta: f64,
    config: &'a StudyConfig,
    /// The shared landmark server — stood up once per run, never per
    /// proxy (its tables are pure functions of the constellation).
    server: &'a LandmarkServer<'a>,
    atlas: &'a Arc<WorldAtlas>,
    mask: &'a Region,
    registry: &'a DataCenterRegistry,
    cache: &'a Arc<DiskCache>,
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

/// Measure, locate, and judge one proxy. Pure in the parallelism sense:
/// every stochastic input is derived from `(config.seed, proxy.node)`
/// and the shared read-only world, so the outcome is independent of
/// which worker runs it and in what order.
fn measure_one_proxy(proxy: DeployedProxy, ctx: &AuditCtx<'_>) -> ProxyOutcome {
    let AuditCtx {
        network,
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
    let mut net = network.fork(config.seed ^ 0xf0bca ^ mix);
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
        ctx_established = ProxyContext::establish(
            &mut net,
            client,
            proxy.node,
            eta,
            config.self_ping_attempts,
        );
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
    let prediction =
        CbgPlusPlus.locate_traced(&two_phase.observations, mask, Some(cache), &rec);
    drop(locate_span);
    let assess_span = rec.profile_span("audit.assess");
    let verdict = assess_claim(atlas, &prediction.region, proxy.claimed);

    // Data-center disambiguation (Fig. 15).
    let dc_country = match by_data_centers(registry, &prediction.region) {
        Disambiguation::Resolved(c) => Some(c),
        Disambiguation::Unresolved => None,
    };
    let mut refined = verdict.clone();
    if refined.assessment == Assessment::Uncertain {
        if let Some(c) = dc_country {
            refined.assessment = if c == proxy.claimed {
                Assessment::Credible
            } else {
                Assessment::False
            };
        }
    }

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
            if refined.assessment == Assessment::Uncertain {
                if let Disambiguation::Resolved(c) = by_data_centers(registry, &robust.region) {
                    refined.assessment = if c == proxy.claimed {
                        Assessment::Credible
                    } else {
                        Assessment::False
                    };
                }
            }
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
            dc_country,
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

impl ReliabilitySummary {
    /// The ledger partition `(measured, insufficient, unmeasurable)` —
    /// sums to the number of proxies deployed.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.measured, self.insufficient, self.unmeasurable)
    }
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
        if let Disambiguation::Resolved(country) = by_touched_sets(&refs) {
            for &i in members {
                if records[i].refined.assessment == Assessment::Uncertain {
                    records[i].refined.assessment = if country == records[i].proxy.claimed {
                        Assessment::Credible
                    } else {
                        Assessment::False
                    };
                }
            }
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

    /// The deterministic compartment of every progress snapshot as
    /// JSONL — byte-identical for any shard × thread split, so the
    /// determinism matrix compares it alongside the event trace.
    pub fn snapshots_jsonl(&self) -> String {
        self.snapshots
            .iter()
            .map(ProgressSnapshot::deterministic_jsonl)
            .collect()
    }

    /// Both compartments of every progress snapshot as JSONL (wall
    /// fields under a `"wall"` key) — the operator-facing rendering
    /// `figures ops` writes to disk. **Not** determinism-diff safe.
    pub fn snapshots_full_jsonl(&self) -> String {
        self.snapshots
            .iter()
            .map(ProgressSnapshot::full_jsonl)
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
        assert!(
            res.records.len() + res.unmeasured == study.providers.proxies.len()
        );
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
        let (m, i, u) = s.counts();
        assert_eq!(m + i + u, study.providers.proxies.len());
        assert!(res.obs.counter("net.probe.sent") > 0);
        assert!(
            res.obs.counter("net.probe.sent")
                >= res.obs.counter("net.probe.completed")
                    + res.obs.counter("net.probe.timeout")
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
            assert_eq!(
                evs.iter().filter(|e| e.name == "proxy_done").count(),
                n
            );
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
        // master's own η-estimation probes are outside any proxy).
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
        assert_eq!(
            res.snapshots_jsonl().lines().count(),
            res.snapshots.len()
        );
        // Wall split: the deterministic rendering never mentions wall
        // fields; the full rendering carries them on every line.
        assert!(!res.snapshots_jsonl().contains("wall"));
        assert_eq!(
            res.snapshots_full_jsonl().matches("\"wall\"").count(),
            res.snapshots.len()
        );
        // Per-shard gauges exist for every shard in the plan.
        assert_eq!(res.shard_progress.len(), res.shards);
        let done: u64 = res.shard_progress.iter().map(|s| s.proxies_done).sum();
        assert_eq!(done, n);
    }

    #[test]
    fn progress_sinks_see_the_same_snapshots() {
        use obs::snapshot::{JsonlSink, RingSink};
        use std::sync::{Arc, Mutex};
        let mut cfg = StudyConfig::small(41);
        cfg.total_proxies = 12;
        cfg.snapshot_every = 5;
        let mut study = Study::build(cfg);
        let jsonl = Arc::new(Mutex::new(JsonlSink::deterministic()));
        let ring = Arc::new(Mutex::new(RingSink::new(2)));
        study.add_progress_sink(Box::new(Arc::clone(&jsonl)));
        study.add_progress_sink(Box::new(Arc::clone(&ring)));
        let res = study.run_sharded(1, 2);
        // 12 proxies, k=5 → snapshots at 5, 10, 12.
        assert_eq!(res.snapshots.len(), 3);
        assert_eq!(
            jsonl.lock().unwrap().text(),
            res.snapshots_jsonl(),
            "sink saw different bytes than the stored stream"
        );
        let ring = ring.lock().unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.latest().unwrap().proxies_done, 12);
    }

    #[test]
    fn profile_tree_covers_the_audit_stages() {
        let g = results().lock().unwrap();
        let (study, res) = &*g;
        let n = study.providers.proxies.len();
        // Coordinator roots.
        assert_eq!(res.obs.profile_stat("audit.run").unwrap().count, 1);
        assert_eq!(
            res.obs
                .profile_stat("audit.run/audit.eta_estimation")
                .unwrap()
                .count,
            1
        );
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
            .profile_stat(
                "audit.proxy/audit.locate/cbgpp.baseline/subset.intersect/cache.lookup",
            )
            .expect("disk cache lookup span");
        assert!(lookup.count > 0);
        // Self time never exceeds cumulative anywhere in the tree.
        for (path, stat) in res.obs.profile() {
            assert!(stat.self_ns <= stat.cum_ns, "self > cum at {path}");
        }
        // The rendered tree indents children under their parents.
        let tree = res.obs.render_profile();
        assert!(tree.contains("audit.proxy"));
        assert!(tree.contains("  audit.locate"), "no indented child:\n{tree}");
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
            shard_progress: Vec::new(),
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
        assert_eq!(s.counts(), (0, 0, 0));
        assert_eq!(s.quorum_degraded, 0);
        assert_eq!(res.counts(false), (0, 0, 0));
        assert_eq!(res.counts(true), (0, 0, 0));
        assert_eq!(res.fig17_categories(), [0; 6]);
        assert_eq!(res.cache_stats(), geoloc::multilateration::DiskCacheStats::default());
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
        assert_eq!(s.counts(), (0, 1, 2));
        // Nothing was measured, so every verdict table is empty …
        assert_eq!(res.counts(true), (0, 0, 0));
        assert_eq!(res.fig17_categories(), [0; 6]);
        // … but the reliability ledger still accounts for every proxy.
        let rendered = crate::report::render_reliability(&res);
        assert!(rendered.contains("3 total"));
        assert!(rendered.contains("2 unmeasurable"));
    }
}
