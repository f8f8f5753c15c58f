//! Measurement reliability: retries, backoff, method fallback, and
//! degradation accounting.
//!
//! The paper's measurements run against the real Internet, where
//! landmarks go dark mid-campaign and probes get lost (§4.2, §7.1); the
//! simulator injects both faults ([`netsim::FaultPlan`]). A measurement
//! layer that silently shrinks its denominator when landmarks fail
//! produces results that *look* precise but are built on fewer
//! constraints than advertised. This module makes failure explicit:
//! every probe is scheduled with a bounded retry budget and exponential
//! backoff, a failed method falls back to one that "always works" (TCP
//! connect, §4.2), and everything that went wrong is tallied in
//! [`MeasurementDiagnostics`] so the audit layer can refuse to issue a
//! verdict on thin evidence.
//!
//! Determinism contract: with all faults disabled, a
//! [`ProbeScheduler`]-wrapped prober consumes *exactly* the same network
//! RNG stream as the bare prober — the scheduler's own jitter RNG is
//! separate and is consumed only when a retry actually happens.
//!
//! Telemetry: the scheduler counts `rel.retry`, `rel.fallback`, and
//! `rel.dead_landmark`, and records the `rel.attempts_per_landmark` and
//! `rel.backoff_us` histograms — all registered in `obs::registry`
//! (exposed as `pv_retry_total`, `pv_scheduler_fallback_total`,
//! `pv_retry_exhaustion_total`, `pv_landmark_attempts`,
//! `pv_retry_backoff_microseconds`). `rel.retry` feeds the per-proxy
//! progress snapshots, and `rel.dead_landmark` is the counter behind
//! the default `retry_exhaustion` SLO rule, so renaming any of these
//! raw names is a registry change, not a local edit.

use crate::twophase::RttProber;
use netsim::network::DEFAULT_PROBE_TIMEOUT_MS;
use netsim::{Network, NodeId, SimDuration};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

/// Uniform jitter applied to each scheduler backoff, as a fraction (±)
/// of it.
const JITTER_FRAC: f64 = 0.25;

/// Retry/backoff policy for one measurement campaign. A landmark whose
/// primary method spends its budget gets the same budget on the
/// prober's fallback method (§4.2: TCP connect works where ping does
/// not).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per landmark per method before giving up on the method.
    pub max_attempts: usize,
    /// First backoff between attempts, ms (simulation time).
    pub base_backoff_ms: f64,
    /// Multiplicative backoff growth per retry.
    pub backoff_factor: f64,
    /// Backoff ceiling, ms.
    pub max_backoff_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 200.0,
            backoff_factor: 2.0,
            max_backoff_ms: 5_000.0,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff before retry number `retry` (0-based), ms:
    /// the base grown by the factor per earlier retry, capped.
    pub fn backoff_ms(&self, retry: usize) -> f64 {
        (self.base_backoff_ms * self.backoff_factor.powi(retry as i32)).min(self.max_backoff_ms)
    }
}

/// Everything that went wrong (and how hard we tried) during a
/// measurement run. Attached to every audit verdict so "credible" can be
/// distinguished from "credible, but half the landmarks were down".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasurementDiagnostics {
    /// Total probe attempts issued (all methods).
    pub attempts: usize,
    /// Attempts beyond the first per landmark/method.
    pub retries: usize,
    /// Attempts that produced no reply.
    pub timeouts: usize,
    /// Readings discarded as garbage (non-finite or over the timeout).
    pub corrupt_readings: usize,
    /// Landmarks that answered only the fallback method.
    pub fallbacks: usize,
    /// Landmarks that answered nothing at all, ever.
    pub dead_landmarks: usize,
    /// Landmarks that contributed a usable observation.
    pub landmarks_measured: usize,
    /// Phase-1 anchors that answered.
    pub phase1_responsive: usize,
    /// Phase-1 anchors probed.
    pub phase1_total: usize,
    /// Whether the phase-1 continent quorum was missed and the engine
    /// fell back to an all-continent phase-2 sweep.
    pub quorum_degraded: bool,
    /// Corrected readings that went *negative* in the tunnel-leg
    /// subtraction (`A = B − η·C < 0`) and were clamped to zero.
    /// Physically impossible for an honest path — the signature of an
    /// adversary inflating its self-ping (or a badly mis-estimated η) —
    /// so the defense layer treats a high count as evidence.
    pub infeasible_readings: usize,
}

impl MeasurementDiagnostics {
    /// True if no probing happened at all.
    pub fn is_empty(&self) -> bool {
        self.attempts == 0
    }

    /// Fold another diagnostics record into this one (used for
    /// study-level aggregation).
    pub fn absorb(&mut self, other: &MeasurementDiagnostics) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.corrupt_readings += other.corrupt_readings;
        self.fallbacks += other.fallbacks;
        self.dead_landmarks += other.dead_landmarks;
        self.landmarks_measured += other.landmarks_measured;
        self.phase1_responsive += other.phase1_responsive;
        self.phase1_total += other.phase1_total;
        self.quorum_degraded |= other.quorum_degraded;
        self.infeasible_readings += other.infeasible_readings;
    }
}

/// Reliability knobs for a two-phase run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Per-probe retry policy.
    pub retry: RetryPolicy,
    /// Minimum phase-1 anchors that must answer before the continent
    /// guess is trusted; below it, phase 2 sweeps every continent.
    pub phase1_quorum: usize,
    /// Minimum usable observations for a verdict; below it the result is
    /// reported but flagged `InsufficientData`.
    pub phase2_min_landmarks: usize,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            retry: RetryPolicy::default(),
            phase1_quorum: 2,
            phase2_min_landmarks: 5,
        }
    }
}

/// Wraps any [`RttProber`] with retries, backoff, reading sanitation,
/// and method fallback, tallying diagnostics as it goes.
///
/// Backoffs advance the network's simulation clock (a retry *waits*), so
/// a retried probe goes out later, as it would on the wire. A retry
/// recovers a lost probe; a landmark in an outage stays down. The jitter
/// RNG is the scheduler's own: when no retry fires, the network RNG
/// stream is untouched relative to the bare prober.
pub struct ProbeScheduler<P> {
    /// The wrapped prober (public so callers can reach its knobs).
    pub inner: P,
    /// The policy in force.
    pub policy: RetryPolicy,
    /// Diagnostics accumulated since the last [`take_diagnostics`].
    ///
    /// [`take_diagnostics`]: ProbeScheduler::take_diagnostics
    pub diagnostics: MeasurementDiagnostics,
    rng: StdRng,
}

impl<P> ProbeScheduler<P> {
    /// Wrap `inner` under `policy`; `seed` feeds the jitter RNG only.
    pub fn new(inner: P, policy: RetryPolicy, seed: u64) -> ProbeScheduler<P> {
        ProbeScheduler {
            inner,
            policy,
            diagnostics: MeasurementDiagnostics::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Take the accumulated diagnostics, resetting the tally.
    pub fn take_diagnostics(&mut self) -> MeasurementDiagnostics {
        std::mem::take(&mut self.diagnostics)
    }

    /// Backoff before retry number `retry` (0-based), with jitter.
    fn backoff_ms(&mut self, retry: usize) -> f64 {
        self.policy.backoff_ms(retry) * (1.0 + self.rng.random_range(-JITTER_FRAC..JITTER_FRAC))
    }

    /// One method's retry loop. Returns the first sane reading.
    fn try_method(&mut self, network: &mut Network, landmark: NodeId, fallback: bool) -> Option<f64>
    where
        P: RttProber,
    {
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                self.diagnostics.retries += 1;
                let _backoff_span = network.recorder().profile_span("rel.backoff");
                let wait = self.backoff_ms(attempt - 1);
                network.advance(SimDuration::from_ms(wait));
                let rec = network.recorder();
                if rec.counters_enabled() {
                    rec.count("rel.retry", 1);
                    rec.record("rel.backoff_us", (wait * 1_000.0) as u64);
                    if rec.events_enabled() {
                        rec.set_now_ns(network.now().as_nanos());
                        rec.event(
                            "reliability",
                            "retry",
                            [
                                ("landmark", landmark.into()),
                                ("attempt", attempt.into()),
                                ("fallback", fallback.into()),
                                ("backoff_ms", wait.into()),
                            ],
                        );
                    }
                }
            }
            self.diagnostics.attempts += 1;
            let reading = if fallback {
                self.inner.probe_fallback(network, landmark)
            } else {
                self.inner.probe(network, landmark)
            };
            // A reading past the client's probe timeout is a timeout in
            // disguise.
            match reading {
                Some(ms) if ms.is_finite() && ms <= DEFAULT_PROBE_TIMEOUT_MS => return Some(ms),
                Some(_) => {
                    self.diagnostics.corrupt_readings += 1;
                    network.recorder().count("rel.corrupt_reading", 1);
                }
                None => self.diagnostics.timeouts += 1,
            }
        }
        None
    }
}

impl<P: RttProber> RttProber for ProbeScheduler<P> {
    fn probe(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        let _prof = network.recorder().profile_span("rel.probe");
        let attempts_before = self.diagnostics.attempts;
        let result = (|| {
            if let Some(ms) = self.try_method(network, landmark, false) {
                self.diagnostics.landmarks_measured += 1;
                return Some(ms);
            }
            if let Some(ms) = self.try_method(network, landmark, true) {
                self.diagnostics.fallbacks += 1;
                self.diagnostics.landmarks_measured += 1;
                let rec = network.recorder();
                rec.count("rel.fallback", 1);
                if rec.events_enabled() {
                    rec.set_now_ns(network.now().as_nanos());
                    rec.event(
                        "reliability",
                        "fallback_used",
                        [("landmark", landmark.into()), ("rtt_ms", ms.into())],
                    );
                }
                return Some(ms);
            }
            self.diagnostics.dead_landmarks += 1;
            let rec = network.recorder();
            rec.count("rel.dead_landmark", 1);
            if rec.events_enabled() {
                rec.set_now_ns(network.now().as_nanos());
                rec.event(
                    "reliability",
                    "landmark_dead",
                    [("landmark", landmark.into())],
                );
            }
            None
        })();
        // Per-landmark effort: how many attempts this landmark cost,
        // successful or not — the retry-depth distribution the trace
        // figure renders.
        network.recorder().record(
            "rel.attempts_per_landmark",
            (self.diagnostics.attempts - attempts_before) as u64,
        );
        result
    }

    fn probe_fallback(&mut self, network: &mut Network, landmark: NodeId) -> Option<f64> {
        self.inner.probe_fallback(network, landmark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A prober whose landmarks fail a scripted number of times before
    /// answering — no network needed; the Network parameter is a real
    /// (tiny) one so signatures line up.
    struct Scripted {
        fail_first: usize,
        calls: HashMap<NodeId, usize>,
        fallback_answers: bool,
    }

    impl RttProber for Scripted {
        fn probe(&mut self, _network: &mut Network, landmark: NodeId) -> Option<f64> {
            let n = self.calls.entry(landmark).or_insert(0);
            *n += 1;
            if *n > self.fail_first {
                Some(10.0)
            } else {
                None
            }
        }
        fn probe_fallback(&mut self, _network: &mut Network, _landmark: NodeId) -> Option<f64> {
            if self.fallback_answers {
                Some(20.0)
            } else {
                None
            }
        }
    }

    fn tiny_network() -> Network {
        let mut topo = netsim::Topology::new();
        let a = topo.add_node(netsim::topology::plain_node(
            netsim::NodeKind::Host,
            geokit::GeoPoint::new(0.0, 0.0),
        ));
        let b = topo.add_node(netsim::topology::plain_node(
            netsim::NodeKind::Host,
            geokit::GeoPoint::new(1.0, 1.0),
        ));
        topo.add_link(a, b, 1.0);
        Network::new(topo, 9)
    }

    #[test]
    fn retry_recovers_a_flaky_landmark() {
        let mut network = tiny_network();
        let scripted = Scripted {
            fail_first: 2,
            calls: HashMap::new(),
            fallback_answers: false,
        };
        let mut sched = ProbeScheduler::new(scripted, RetryPolicy::default(), 5);
        assert_eq!(sched.probe(&mut network, 0), Some(10.0));
        let d = sched.take_diagnostics();
        assert_eq!(d.attempts, 3);
        assert_eq!(d.retries, 2);
        assert_eq!(d.timeouts, 2);
        assert_eq!(d.landmarks_measured, 1);
        assert_eq!(d.dead_landmarks, 0);
        assert_eq!(d.fallbacks, 0);
    }

    #[test]
    fn backoff_advances_the_simulation_clock() {
        let mut network = tiny_network();
        let scripted = Scripted {
            fail_first: 2,
            calls: HashMap::new(),
            fallback_answers: false,
        };
        let before = network.now();
        let mut sched = ProbeScheduler::new(scripted, RetryPolicy::default(), 5);
        sched.probe(&mut network, 0);
        // Two backoffs, 200 ms then 400 ms, each jittered by a draw from
        // the scheduler's own RNG: replay it from the seed.
        let mut jitter = StdRng::seed_from_u64(5);
        let waits = [200.0_f64, 400.0].map(|raw| raw * (1.0 + jitter.random_range(-0.25..0.25)));
        let expected: u64 = waits
            .iter()
            .map(|&w| SimDuration::from_ms(w).as_nanos())
            .sum();
        assert_eq!(network.now().since(before).as_nanos(), expected);
    }

    #[test]
    fn fallback_runs_after_primary_budget_is_spent() {
        let mut network = tiny_network();
        let scripted = Scripted {
            fail_first: usize::MAX,
            calls: HashMap::new(),
            fallback_answers: true,
        };
        let mut sched = ProbeScheduler::new(scripted, RetryPolicy::default(), 5);
        assert_eq!(sched.probe(&mut network, 0), Some(20.0));
        let d = sched.take_diagnostics();
        assert_eq!(d.fallbacks, 1);
        assert_eq!(d.landmarks_measured, 1);
        assert_eq!(d.timeouts, 3); // primary budget spent first
    }

    #[test]
    fn dead_landmark_is_counted_dead() {
        let mut network = tiny_network();
        let scripted = Scripted {
            fail_first: usize::MAX,
            calls: HashMap::new(),
            fallback_answers: false,
        };
        let mut sched = ProbeScheduler::new(scripted, RetryPolicy::default(), 5);
        assert_eq!(sched.probe(&mut network, 0), None);
        let d = sched.take_diagnostics();
        assert_eq!(d.dead_landmarks, 1);
        assert_eq!(d.landmarks_measured, 0);
        assert_eq!(d.attempts, 6); // 3 primary + 3 fallback
    }

    #[test]
    fn non_finite_readings_are_discarded_not_returned() {
        struct Garbage;
        impl RttProber for Garbage {
            fn probe(&mut self, _n: &mut Network, _l: NodeId) -> Option<f64> {
                Some(f64::NAN)
            }
        }
        let mut network = tiny_network();
        let mut sched = ProbeScheduler::new(Garbage, RetryPolicy::default(), 5);
        assert_eq!(sched.probe(&mut network, 0), None);
        let d = sched.take_diagnostics();
        assert_eq!(d.corrupt_readings, 3);
        assert_eq!(d.dead_landmarks, 1);
    }

    #[test]
    fn no_retry_means_no_jitter_rng_use_and_no_clock_movement() {
        struct Instant;
        impl RttProber for Instant {
            fn probe(&mut self, _n: &mut Network, _l: NodeId) -> Option<f64> {
                Some(5.0)
            }
        }
        let mut network = tiny_network();
        let before = network.now();
        let mut sched = ProbeScheduler::new(Instant, RetryPolicy::default(), 5);
        for lm in 0..10u32 {
            assert_eq!(sched.probe(&mut network, lm), Some(5.0));
        }
        assert_eq!(network.now(), before, "clock moved without retries");
        // The jitter RNG is untouched: a fresh scheduler with the same
        // seed produces the identical next backoff.
        let fresh = ProbeScheduler::new(Instant, RetryPolicy::default(), 5);
        let (mut a, mut b) = (sched, fresh);
        assert_eq!(a.backoff_ms(0).to_bits(), b.backoff_ms(0).to_bits());
    }

    #[test]
    fn scheduler_narrates_retries_and_fallbacks() {
        let mut network = tiny_network();
        network.set_recorder(obs::Recorder::new(obs::Level::Events));
        let scripted = Scripted {
            fail_first: usize::MAX,
            calls: HashMap::new(),
            fallback_answers: true,
        };
        let mut sched = ProbeScheduler::new(scripted, RetryPolicy::default(), 5);
        assert_eq!(sched.probe(&mut network, 0), Some(20.0));
        let rec = network.recorder();
        assert_eq!(rec.counter("rel.retry"), 2); // primary budget: 3 attempts
        assert_eq!(rec.counter("rel.fallback"), 1);
        assert_eq!(rec.counter("rel.dead_landmark"), 0);
        let depth = rec
            .hist("rel.attempts_per_landmark")
            .expect("hist recorded");
        assert_eq!(depth.count, 1);
        assert_eq!(depth.sum, 4); // 3 primary + 1 fallback attempt
        rec.with_events(|evs| {
            let names: Vec<_> = evs.map(|e| e.name).collect();
            assert!(names.contains(&"retry"));
            assert!(names.contains(&"fallback_used"));
        });
    }

    #[test]
    fn diagnostics_absorb_accumulates() {
        let mut total = MeasurementDiagnostics::default();
        let one = MeasurementDiagnostics {
            attempts: 3,
            retries: 2,
            timeouts: 2,
            landmarks_measured: 1,
            phase1_responsive: 4,
            phase1_total: 6,
            quorum_degraded: true,
            ..Default::default()
        };
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.attempts, 6);
        assert_eq!(total.phase1_responsive, 8);
        assert!(total.quorum_degraded);
        assert!(!total.is_empty());
        assert!(MeasurementDiagnostics::default().is_empty());
    }
}
