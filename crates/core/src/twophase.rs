//! The two-phase measurement procedure (§4.1).
//!
//! Measuring all ~250 anchors takes minutes and most of them contribute
//! nothing (far landmarks are rarely effective, §5.2), so the paper
//! first pins down the *continent* with three anchors per continent,
//! then measures 25 more randomly chosen landmarks on that continent.
//! Random selection spreads measurement load across the constellation.

use crate::observation::Observation;
use crate::proxy::ProxyContext;
use crate::reliability::{MeasurementDiagnostics, ProbeScheduler, ReliabilityConfig};
use atlas::{LandmarkServer, RttSample, WebTool};
use netsim::{Network, NodeId};
use simrng::rngs::StdRng;
use simrng::Rng;
use worldmap::Continent;

/// Something that can measure an RTT to a landmark on behalf of the
/// geolocation engine. Implementations: a Web-tool client and a
/// through-proxy client.
pub trait RttProber {
    /// One corrected RTT measurement to `landmark`, ms, or `None` if the
    /// landmark was unreachable/filtered.
    fn probe(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64>;

    /// Alternate measurement method, tried by the reliability layer when
    /// the primary method's retry budget is spent (§4.2: when ping gets
    /// no answer, a TCP connect to a port that always answers still
    /// measures the round trip). Default: no fallback available.
    fn probe_fallback(&mut self, _network: &mut Network, _landmark: NodeId) -> Option<f64> {
        None
    }
}

/// Web-tool measurement: min of `attempts` fetch-failure timings, with
/// the 1-vs-2-round-trip ambiguity and OS noise baked in.
pub struct WebProber {
    /// Measuring host (the volunteer's machine).
    pub client: NodeId,
    /// The browser/OS profile.
    pub tool: WebTool,
    /// Fetches per landmark (minimum taken).
    pub attempts: usize,
    /// Noise RNG.
    pub rng: StdRng,
}

impl RttProber for WebProber {
    fn probe(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        let mut best: Option<RttSample> = None;
        for _ in 0..self.attempts {
            if let Some(s) = self
                .tool
                .measure(network, self.client, landmark, &mut self.rng)
            {
                best = Some(match best {
                    None => s,
                    Some(b) if s.rtt_ms < b.rtt_ms => s,
                    Some(b) => b,
                });
            }
        }
        best.map(|s| s.rtt_ms)
    }
}

/// Through-proxy measurement with η correction (§5.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyProberStats {
    /// Readings whose tunnel-leg subtraction went negative and were
    /// clamped to zero (see
    /// [`correct_indirect_rtt_checked`](crate::proxy::correct_indirect_rtt_checked)).
    pub infeasible_readings: usize,
}

/// Through-proxy measurement with η correction (§5.3).
#[derive(Debug, Clone, Copy)]
pub struct ProxyProber {
    /// The established tunnel context.
    pub ctx: ProxyContext,
    /// Tunnel connects per landmark (minimum taken).
    pub attempts: usize,
    /// Tally of physically impossible readings, harvested by the audit
    /// into [`MeasurementDiagnostics::infeasible_readings`] post-run.
    pub stats: ProxyProberStats,
}

impl ProxyProber {
    /// A prober over an established tunnel context.
    pub fn new(ctx: ProxyContext, attempts: usize) -> ProxyProber {
        ProxyProber {
            ctx,
            attempts,
            stats: ProxyProberStats::default(),
        }
    }

    fn checked(&mut self, network: &mut Network, landmark: NodeId, port: u16) -> Option<f64> {
        let (ms, infeasible) =
            self.ctx
                .measure_landmark_port_checked(network, landmark, port, self.attempts)?;
        if infeasible {
            // A negative corrected RTT is physically impossible — the
            // tunnel-leg subtraction overshot the whole measurement. It
            // backs no constraint: count it (the defense layer treats a
            // high count as adversary evidence) and report no reading
            // rather than propagating a clamped zero into a disk.
            self.stats.infeasible_readings += 1;
            network.recorder().count("rel.infeasible_reading", 1);
            return None;
        }
        Some(ms)
    }
}

impl RttProber for ProxyProber {
    fn probe(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        self.checked(network, landmark, 80)
    }

    fn probe_fallback(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        // Port 443: a landmark that filters port 80 may still answer
        // its TLS port.
        self.checked(network, landmark, 443)
    }
}

/// Result of a two-phase measurement run.
#[derive(Debug)]
pub struct TwoPhaseResult {
    /// The continent inferred in phase 1.
    pub continent: Continent,
    /// Observations from the winning continent's phase-1 anchors plus
    /// the phase-2 landmarks.
    pub observations: Vec<Observation>,
}

/// How a reliability-aware measurement run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurementStatus {
    /// Enough landmarks answered for the result to be trusted.
    Ok,
    /// Some landmarks answered, but fewer than the configured minimum —
    /// the partial result is reported but must not back a verdict.
    InsufficientData,
    /// Nothing answered at all.
    Unmeasurable,
}

/// A two-phase run with explicit failure accounting.
#[derive(Debug)]
pub struct ReliableTwoPhase {
    /// The measurement, when anything answered (present even under
    /// `InsufficientData` so callers can inspect the partial evidence).
    pub result: Option<TwoPhaseResult>,
    /// How the run ended.
    pub status: MeasurementStatus,
    /// What it took to get there.
    pub diagnostics: MeasurementDiagnostics,
}

/// Degradation knobs for the shared engine: the legacy path uses
/// `quorum = 1, min = 0, sweep = false`, which reproduces the original
/// control flow exactly (same probes, same RNG stream, same output).
struct InnerConfig {
    phase1_quorum: usize,
    sweep_on_quorum_miss: bool,
}

struct InnerOutcome {
    result: Option<TwoPhaseResult>,
    phase1_responsive: usize,
    phase1_total: usize,
    quorum_degraded: bool,
}

fn two_phase_inner<P: RttProber, R: Rng + ?Sized>(
    network: &mut Network,
    server: &LandmarkServer<'_>,
    prober: &mut P,
    rng: &mut R,
    cfg: &InnerConfig,
) -> InnerOutcome {
    let landmarks = server.constellation().landmarks();
    let continent_of = |id: usize| server.continent_of(id);

    // Phase 1: three anchors per continent; fastest answer wins. The
    // set is precomputed on the server, which the audit shares across
    // every proxy — no per-proxy selection work.
    let phase1 = server.phase1_landmarks();
    let phase1_total = phase1.len();
    if network.recorder().events_enabled() {
        let rec = network.recorder();
        rec.set_now_ns(network.now().as_nanos());
        rec.event(
            "twophase",
            "phase1_start",
            [("anchors", phase1_total.into())],
        );
    }
    let phase1_span = network.recorder().profile_span("twophase.phase1");
    let mut best: Option<(f64, Continent)> = None;
    let mut phase1_obs: Vec<(usize, f64)> = Vec::new();
    for &id in phase1 {
        let Some(rtt) = prober.probe(network, landmarks[id].node) else {
            continue;
        };
        let continent = continent_of(id);
        phase1_obs.push((id, rtt));
        if best.is_none_or(|(b, _)| rtt < b) {
            best = Some((rtt, continent));
        }
    }
    drop(phase1_span);
    let phase1_responsive = phase1_obs.len();
    let quorum_met = phase1_responsive >= cfg.phase1_quorum.max(1);
    {
        let rec = network.recorder();
        rec.count("tp.phase1_responsive", phase1_responsive as u64);
        rec.count("tp.phase1_total", phase1_total as u64);
        if rec.events_enabled() {
            rec.set_now_ns(network.now().as_nanos());
            rec.event(
                "twophase",
                "phase1_done",
                [
                    ("responsive", phase1_responsive.into()),
                    ("total", phase1_total.into()),
                    ("quorum_met", quorum_met.into()),
                    ("continent", best.map_or("none", |(_, c)| c.name()).into()),
                ],
            );
        }
    }

    let mut observations = Vec::new();
    let mut seen = vec![false; landmarks.len()];

    if quorum_met {
        // Trusted continent guess: the original §4.1 procedure.
        let (_, continent) = best.expect("quorum met implies an answer");
        if network.recorder().events_enabled() {
            let rec = network.recorder();
            rec.set_now_ns(network.now().as_nanos());
            rec.event(
                "twophase",
                "phase2_start",
                [("continent", continent.name().into())],
            );
        }
        let _phase2_span = network.recorder().profile_span("twophase.phase2");
        for (id, rtt) in phase1_obs {
            if continent_of(id) == continent {
                observations.push(make_observation(server, id, rtt));
                seen[id] = true;
            }
        }
        for id in server.phase2_landmarks(continent, rng) {
            if seen[id] {
                continue;
            }
            if let Some(rtt) = prober.probe(network, landmarks[id].node) {
                observations.push(make_observation(server, id, rtt));
            }
        }
        network
            .recorder()
            .count("tp.observations", observations.len() as u64);
        return InnerOutcome {
            result: Some(TwoPhaseResult {
                continent,
                observations,
            }),
            phase1_responsive,
            phase1_total,
            quorum_degraded: false,
        };
    }

    if !cfg.sweep_on_quorum_miss {
        // Legacy behaviour (quorum = 1): a miss means nothing answered.
        return InnerOutcome {
            result: None,
            phase1_responsive,
            phase1_total,
            quorum_degraded: false,
        };
    }

    // Quorum missed: the continent guess rests on too few anchors (or
    // none). Degrade loudly — keep whatever phase 1 produced and sweep a
    // phase-2 draw from *every* continent, then take the continent of the
    // fastest responder overall.
    {
        let rec = network.recorder();
        rec.count("tp.quorum_degraded", 1);
        if rec.events_enabled() {
            rec.set_now_ns(network.now().as_nanos());
            rec.event(
                "twophase",
                "quorum_degraded",
                [
                    ("responsive", phase1_responsive.into()),
                    ("quorum", cfg.phase1_quorum.into()),
                ],
            );
        }
    }
    let _sweep_span = network.recorder().profile_span("twophase.sweep");
    for &(id, rtt) in &phase1_obs {
        observations.push(make_observation(server, id, rtt));
        seen[id] = true;
    }
    for &continent in Continent::ALL.iter() {
        for id in server.phase2_landmarks(continent, rng) {
            if seen[id] {
                continue;
            }
            seen[id] = true;
            if let Some(rtt) = prober.probe(network, landmarks[id].node) {
                if best.is_none_or(|(b, _)| rtt < b) {
                    best = Some((rtt, continent_of(id)));
                }
                observations.push(make_observation(server, id, rtt));
            }
        }
    }
    network
        .recorder()
        .count("tp.observations", observations.len() as u64);
    InnerOutcome {
        result: best.map(|(_, continent)| TwoPhaseResult {
            continent,
            observations,
        }),
        phase1_responsive,
        phase1_total,
        quorum_degraded: true,
    }
}

/// Run the two-phase procedure.
///
/// Returns `None` when phase 1 yields no usable measurement at all (a
/// completely unreachable target).
pub fn run_two_phase<P: RttProber, R: Rng + ?Sized>(
    network: &mut Network,
    server: &LandmarkServer<'_>,
    prober: &mut P,
    rng: &mut R,
) -> Option<TwoPhaseResult> {
    two_phase_inner(
        network,
        server,
        prober,
        rng,
        &InnerConfig {
            phase1_quorum: 1,
            sweep_on_quorum_miss: false,
        },
    )
    .result
}

/// Run the two-phase procedure under a reliability policy: the prober is
/// a [`ProbeScheduler`] (retries, backoff, fallback), a missed phase-1
/// quorum degrades to an all-continent sweep instead of trusting a thin
/// continent guess, and the outcome always carries diagnostics.
pub fn run_two_phase_reliable<P: RttProber, R: Rng + ?Sized>(
    network: &mut Network,
    server: &LandmarkServer<'_>,
    scheduler: &mut ProbeScheduler<P>,
    rng: &mut R,
    cfg: &ReliabilityConfig,
) -> ReliableTwoPhase {
    let outcome = two_phase_inner(
        network,
        server,
        scheduler,
        rng,
        &InnerConfig {
            phase1_quorum: cfg.phase1_quorum,
            sweep_on_quorum_miss: true,
        },
    );
    let mut diagnostics = scheduler.take_diagnostics();
    diagnostics.phase1_responsive = outcome.phase1_responsive;
    diagnostics.phase1_total = outcome.phase1_total;
    diagnostics.quorum_degraded = outcome.quorum_degraded;
    let status = match &outcome.result {
        None => MeasurementStatus::Unmeasurable,
        Some(r) if r.observations.len() < cfg.phase2_min_landmarks => {
            MeasurementStatus::InsufficientData
        }
        Some(_) => MeasurementStatus::Ok,
    };
    ReliableTwoPhase {
        result: outcome.result,
        status,
        diagnostics,
    }
}

fn make_observation(server: &LandmarkServer<'_>, id: usize, rtt_ms: f64) -> Observation {
    let lm = &server.constellation().landmarks()[id];
    Observation::new(
        lm.location,
        rtt_ms / 2.0,
        server.calibration_for(id).clone(),
    )
}

/// Landmarks [`run_refined`] adds per refinement round.
const REFINE_BATCH: usize = 10;
/// Refinement rounds at most.
const REFINE_MAX_ROUNDS: usize = 4;
/// Refinement stops when a round shrinks the region by less than this
/// fraction.
const REFINE_MIN_SHRINK: f64 = 0.05;

/// Result of an iteratively refined measurement.
pub struct RefinedResult {
    /// The two-phase result, extended with the refinement observations.
    pub observations: Vec<Observation>,
    /// Continent from phase 1.
    pub continent: Continent,
    /// Final prediction region.
    pub region: geokit::Region,
    /// Region area after each locate (index 0 = pre-refinement).
    pub area_history: Vec<f64>,
}

/// Iterative refinement (§8.1): run the two-phase measurement, then keep
/// adding the unmeasured landmarks closest to the current prediction's
/// centroid — the ones most likely to be *effective* (§5.2) — re-locating
/// with `locator` after each batch, until the region stops shrinking or
/// the rounds are spent.
///
/// This is the paper's proposed fix for the noisy per-measurement
/// variation of Fig. 16: "additional probes and anchors are included in
/// the measurement as necessary to reduce the size of the predicted
/// region."
pub fn run_refined<P: RttProber, R: Rng + ?Sized>(
    network: &mut Network,
    server: &LandmarkServer<'_>,
    prober: &mut P,
    locator: &dyn crate::Geolocator,
    mask: &geokit::Region,
    rng: &mut R,
) -> Option<RefinedResult> {
    let two_phase = run_two_phase(network, server, prober, rng)?;
    let TwoPhaseResult {
        continent,
        mut observations,
    } = two_phase;
    let landmarks = server.constellation().landmarks();

    let mut region = locator.locate(&observations, mask).region;
    let mut area_history = vec![region.area_km2()];

    // Track which landmarks have been used (by location identity).
    let mut used: Vec<bool> = vec![false; landmarks.len()];
    for obs in &observations {
        for (i, lm) in landmarks.iter().enumerate() {
            if lm.location == obs.landmark {
                used[i] = true;
            }
        }
    }

    for _ in 0..REFINE_MAX_ROUNDS {
        let Some(centroid) = region.centroid() else {
            break;
        };
        // Closest unused landmarks on the predicted continent (plus any
        // others if the continent pool runs dry).
        let mut candidates: Vec<(f64, usize)> = server
            .continent_landmarks(continent)
            .iter()
            .copied()
            .filter(|&id| !used[id])
            .map(|id| (landmarks[id].location.distance_km(&centroid), id))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        if candidates.is_empty() {
            break;
        }
        let mut measured_any = false;
        for &(_, id) in candidates.iter().take(REFINE_BATCH) {
            used[id] = true;
            if let Some(rtt) = prober.probe(network, landmarks[id].node) {
                observations.push(make_observation(server, id, rtt));
                measured_any = true;
            }
        }
        if !measured_any {
            break;
        }
        let new_region = locator.locate(&observations, mask).region;
        let old_area = region.area_km2();
        let new_area = new_region.area_km2();
        region = new_region;
        area_history.push(new_area);
        if old_area <= 0.0 || (old_area - new_area) / old_area < REFINE_MIN_SHRINK {
            break;
        }
    }

    Some(RefinedResult {
        observations,
        continent,
        region,
        area_history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::{CalibrationDb, Constellation, ConstellationConfig};
    use geokit::GeoGrid;
    use netsim::{FilterPolicy, WorldNet, WorldNetConfig};
    use simrng::SeedableRng;
    use std::sync::Arc;
    use worldmap::WorldAtlas;

    /// Direct measurement with the CLI tool: min of `attempts` TCP connects.
    #[derive(Debug, Clone, Copy)]
    struct CliProber {
        /// Measuring host.
        client: NodeId,
        /// Connect attempts per landmark (minimum taken).
        attempts: usize,
    }

    impl CliProber {
        fn min_connect(&self, network: &mut Network, landmark: NodeId, port: u16) -> Option<f64> {
            (0..self.attempts)
                .filter_map(|_| network.tcp_connect_rtt(self.client, landmark, port))
                .map(|d| d.as_ms())
                .reduce(f64::min)
        }
    }

    impl RttProber for CliProber {
        fn probe(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
            self.min_connect(network, landmark, 80)
        }

        fn probe_fallback(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
            self.min_connect(network, landmark, 443)
        }
    }

    struct Fixture {
        world: WorldNet,
        constellation: Constellation,
        calibration: CalibrationDb,
    }

    /// A fresh world per test: every test attaches a host and probes, so
    /// a shared one would make results depend on test order.
    fn fixture() -> Fixture {
        let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
        let mut world = WorldNet::build(atlas, WorldNetConfig::default());
        let constellation = Constellation::place(&mut world, &ConstellationConfig::small(21));
        let calibration = CalibrationDb::collect(world.network_mut(), &constellation, 8);
        Fixture {
            world,
            constellation,
            calibration,
        }
    }

    #[test]
    fn continent_guess_is_correct_for_european_host() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(
            geokit::GeoPoint::new(48.2, 11.5), // Munich
            FilterPolicy::default(),
        );
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        let mut prober = CliProber {
            client: host,
            attempts: 3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_two_phase(world.network_mut(), &server, &mut prober, &mut rng).unwrap();
        assert_eq!(result.continent, Continent::Europe);
        assert!(
            result.observations.len() >= 15,
            "only {} observations",
            result.observations.len()
        );
    }

    #[test]
    fn continent_guess_is_correct_for_american_host() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(
            geokit::GeoPoint::new(41.8, -87.7), // Chicago
            FilterPolicy::default(),
        );
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        let mut prober = CliProber {
            client: host,
            attempts: 3,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_two_phase(world.network_mut(), &server, &mut prober, &mut rng).unwrap();
        assert_eq!(result.continent, Continent::NorthAmerica);
    }

    #[test]
    fn observations_are_one_way_times() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(geokit::GeoPoint::new(52.5, 13.4), FilterPolicy::default());
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        let mut prober = CliProber {
            client: host,
            attempts: 2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_two_phase(world.network_mut(), &server, &mut prober, &mut rng).unwrap();
        // Observations share their anchor's scatter; none holds a copy.
        let anchor_scatters: Vec<*const (f64, f64)> = (0..calibration.len())
            .map(|i| calibration.for_anchor(i).points().as_ptr())
            .collect();
        for obs in &result.observations {
            // One-way times are physically bounded below by distance/200,
            // minus the coarse tolerance of the berlin attachment.
            assert!(obs.one_way_ms > 0.0);
            assert!(!obs.calibration.is_empty());
            assert!(
                anchor_scatters.contains(&obs.calibration.points().as_ptr()),
                "observation at {:?} copied its calibration scatter",
                obs.landmark
            );
        }
    }

    #[test]
    fn refinement_never_grows_the_final_region_much() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(
            geokit::GeoPoint::new(48.85, 2.35), // Paris
            FilterPolicy::default(),
        );
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        let mask = atlas.plausibility_mask().clone();
        let locator = crate::algorithms::CbgPlusPlus;
        let mut prober = CliProber {
            client: host,
            attempts: 2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let refined = run_refined(
            world.network_mut(),
            &server,
            &mut prober,
            &locator,
            &mask,
            &mut rng,
        )
        .unwrap();
        assert!(!refined.region.is_empty());
        assert!(refined.area_history.len() >= 2, "no refinement happened");
        let first = refined.area_history[0];
        let last = *refined.area_history.last().unwrap();
        assert!(
            last <= first * 1.05,
            "refinement grew the region: {first} → {last}"
        );
        // The truth stays covered.
        assert!(refined
            .region
            .contains_point(&geokit::GeoPoint::new(48.85, 2.35)));
    }

    fn quick_policy() -> crate::reliability::RetryPolicy {
        crate::reliability::RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        }
    }

    #[test]
    fn dark_phase1_is_unmeasurable_with_diagnostics() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(geokit::GeoPoint::new(48.0, 9.0), FilterPolicy::default());
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        world.network_mut().faults_mut().set_drop_chance(1.0);
        let prober = CliProber {
            client: host,
            attempts: 1,
        };
        let mut sched = ProbeScheduler::new(prober, quick_policy(), 7);
        let mut rng = StdRng::seed_from_u64(5);
        let out = run_two_phase_reliable(
            world.network_mut(),
            &server,
            &mut sched,
            &mut rng,
            &ReliabilityConfig::default(),
        );
        assert_eq!(out.status, MeasurementStatus::Unmeasurable);
        assert!(out.result.is_none());
        assert!(!out.diagnostics.is_empty(), "no attempts recorded");
        assert_eq!(out.diagnostics.phase1_responsive, 0);
        assert!(out.diagnostics.phase1_total > 0);
        assert!(out.diagnostics.dead_landmarks > 0);
        assert!(out.diagnostics.retries > 0, "scheduler never retried");
    }

    #[test]
    fn missed_phase1_quorum_degrades_to_all_continent_sweep() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(
            geokit::GeoPoint::new(48.2, 11.5), // Munich
            FilterPolicy::default(),
        );
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        // Keep exactly one phase-1 anchor (a European one) alive: one
        // responsive anchor misses the default quorum of two.
        let phase1 = server.phase1_landmarks();
        let lms = server.constellation().landmarks();
        let keep = phase1
            .iter()
            .copied()
            .find(|&id| atlas.country(lms[id].country).continent() == Continent::Europe)
            .expect("a European anchor in phase 1");
        let down: Vec<_> = phase1
            .iter()
            .copied()
            .filter(|&id| id != keep)
            .map(|id| lms[id].node)
            .collect();
        let t0 = world.network_mut().now();
        for node in down {
            world
                .network_mut()
                .faults_mut()
                .add_permanent_outage(node, t0);
        }
        let prober = CliProber {
            client: host,
            attempts: 2,
        };
        let mut sched = ProbeScheduler::new(prober, quick_policy(), 8);
        let mut rng = StdRng::seed_from_u64(6);
        let out = run_two_phase_reliable(
            world.network_mut(),
            &server,
            &mut sched,
            &mut rng,
            &ReliabilityConfig::default(),
        );
        assert!(out.diagnostics.quorum_degraded, "quorum miss not flagged");
        assert_eq!(out.diagnostics.phase1_responsive, 1);
        assert_eq!(out.status, MeasurementStatus::Ok);
        let result = out.result.expect("sweep should still measure");
        // The all-continent sweep still finds the right continent: the
        // fastest responders are the European landmarks near the host.
        assert_eq!(result.continent, Continent::Europe);
        assert!(
            result.observations.len() >= 15,
            "only {} observations from the sweep",
            result.observations.len()
        );
    }

    #[test]
    fn thin_phase2_is_flagged_insufficient_not_silently_ok() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(
            geokit::GeoPoint::new(50.1, 8.7), // Frankfurt
            FilterPolicy::default(),
        );
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        // Phase-1 anchors stay up everywhere, so the continent guess is
        // sound — but every *other* European landmark is down, so phase 2
        // contributes nothing beyond the phase-1 anchors.
        let lms = server.constellation().landmarks();
        let phase1 = server.phase1_landmarks();
        let down: Vec<_> = server
            .continent_landmarks(Continent::Europe)
            .iter()
            .copied()
            .filter(|id| !phase1.contains(id))
            .map(|id| lms[id].node)
            .collect();
        let t0 = world.network_mut().now();
        for node in down {
            world
                .network_mut()
                .faults_mut()
                .add_permanent_outage(node, t0);
        }
        let prober = CliProber {
            client: host,
            attempts: 2,
        };
        let mut sched = ProbeScheduler::new(prober, quick_policy(), 9);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = ReliabilityConfig {
            phase2_min_landmarks: 5,
            ..Default::default()
        };
        let out = run_two_phase_reliable(world.network_mut(), &server, &mut sched, &mut rng, &cfg);
        assert_eq!(out.status, MeasurementStatus::InsufficientData);
        let result = out.result.expect("partial evidence is still reported");
        assert!(
            result.observations.len() < 5,
            "{} observations should be thin",
            result.observations.len()
        );
        assert_eq!(result.continent, Continent::Europe);
        assert!(out.diagnostics.dead_landmarks > 0);
    }

    #[test]
    fn reliable_run_without_faults_matches_legacy_byte_for_byte() {
        // Two freshly built, identically seeded worlds: the legacy engine
        // on one, the scheduler-wrapped reliable engine on the other.
        // With no faults the scheduler never retries, so both must
        // consume identical RNG streams and emit identical observations.
        let build = || {
            let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
            let mut world = WorldNet::build(Arc::clone(&atlas), WorldNetConfig::default());
            let constellation = Constellation::place(&mut world, &ConstellationConfig::small(33));
            let calibration = CalibrationDb::collect(world.network_mut(), &constellation, 4);
            let host =
                world.attach_host(geokit::GeoPoint::new(48.2, 11.5), FilterPolicy::default());
            (world, constellation, calibration, host)
        };

        let (mut wa, ca, da, host_a) = build();
        let atlas_a = Arc::clone(wa.atlas());
        let server_a = LandmarkServer::new(&ca, &da, &atlas_a);
        let mut prober = CliProber {
            client: host_a,
            attempts: 2,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let legacy = run_two_phase(wa.network_mut(), &server_a, &mut prober, &mut rng).unwrap();

        let (mut wb, cb, db, host_b) = build();
        let atlas_b = Arc::clone(wb.atlas());
        let server_b = LandmarkServer::new(&cb, &db, &atlas_b);
        let mut sched = ProbeScheduler::new(
            CliProber {
                client: host_b,
                attempts: 2,
            },
            crate::reliability::RetryPolicy::default(),
            99,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let reliable = run_two_phase_reliable(
            wb.network_mut(),
            &server_b,
            &mut sched,
            &mut rng,
            &ReliabilityConfig::default(),
        );
        assert_eq!(reliable.status, MeasurementStatus::Ok);
        assert_eq!(reliable.diagnostics.retries, 0);
        assert_eq!(reliable.diagnostics.fallbacks, 0);
        let got = reliable.result.unwrap();
        assert_eq!(got.continent, legacy.continent);
        assert_eq!(got.observations.len(), legacy.observations.len());
        for (a, b) in legacy.observations.iter().zip(got.observations.iter()) {
            assert_eq!(a.landmark, b.landmark);
            assert_eq!(
                a.one_way_ms.to_bits(),
                b.one_way_ms.to_bits(),
                "observation diverged: {} vs {}",
                a.one_way_ms,
                b.one_way_ms
            );
        }
    }

    #[test]
    fn unreachable_target_returns_none() {
        let Fixture {
            mut world,
            constellation,
            calibration,
        } = fixture();
        let host = world.attach_host(geokit::GeoPoint::new(48.0, 2.0), FilterPolicy::default());
        let atlas = Arc::clone(world.atlas());
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        world.network_mut().faults_mut().set_drop_chance(1.0);
        let mut prober = CliProber {
            client: host,
            attempts: 2,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let result = run_two_phase(world.network_mut(), &server, &mut prober, &mut rng);
        assert!(result.is_none());
    }
}
