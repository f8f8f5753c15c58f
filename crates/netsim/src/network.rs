//! The measurement facade: one object bundling topology, routing, delay
//! model, fault plan, and a seeded RNG, with both packet-level and
//! closed-form measurement operations.
//!
//! Rule of use: protocol-faithful operations (`ping`, `tcp_connect_rtt`,
//! `tcp_connect_via_proxy_rtt`, `self_ping_via_proxy_rtt`, `traceroute`)
//! walk a packet hop by hop (see [`crate::engine`]); bulk statistics
//! (`sample_rtt_ms` and friends) draw from the identical delay model over
//! the identical hops in closed form. The `des_and_sampler_agree` test
//! pins the equivalence.
//!
//! Telemetry: probes narrate through the attached [`Recorder`] —
//! counters `net.probe.{sent,completed,timeout}` and `net.loss.*` (by
//! dominant cause), histogram `net.probe.rtt_us`, and per-probe events
//! at `Level::Events`. Every raw name is registered in `obs::registry`
//! (the exposition layer maps them to `pv_probe_total{outcome}`,
//! `pv_probe_loss_total{cause}`, `pv_probe_rtt_microseconds`), and
//! `net.probe.sent − net.probe.completed` is the numerator of the
//! `pv_probe_loss_rate` gauge the SLO engine watches. A count site
//! added here without a registry entry makes `vpnstudy::ops` fail to
//! export any run that emits it; the determinism matrix exports a
//! plain, a faulted and an armed study, so it catches the names those
//! runs reach (`net.adv.*` included).

use crate::adversary::{AdversaryPlan, AdversaryTally};
use crate::delay::{DelayModel, PathDelays, QueueBins, QueueBounds};
use crate::engine::{Engine, LossTally, Outcome, PacketKind, TraceEvent};
use crate::fault::FaultPlan;
use crate::routing::{RouteWork, Routes};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::NodeId;
use obs::Recorder;
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;

/// How long a probe with no reply occupies the clock: the client's
/// timeout (ms).
pub const DEFAULT_PROBE_TIMEOUT_MS: f64 = 2_000.0;

/// A simulated network ready to be measured.
///
/// Topology and router are `Arc`-shared so [`fork`](Network::fork) can
/// hand out independent measurement handles over the same world without
/// copying the graph or the router's core trees.
pub struct Network {
    topo: Arc<Topology>,
    /// Routes over `topo` as it is now: the router is shared with the
    /// forks that share `topo`, the memo of recent routes is this
    /// handle's own, and both are replaced whenever this handle edits
    /// the topology.
    routes: Routes,
    /// `Arc`-shared copy-on-write: [`fork`](Network::fork) shares the
    /// model, and mutation would clone it first (`Arc::make_mut`).
    model: Arc<DelayModel>,
    /// The queueing bounds of [`min_of_n_rtt_ms`](Network::min_of_n_rtt_ms),
    /// built on first use and shared with forks. They are rebuilt
    /// whenever they no longer fit `model`, so an edited model never
    /// reads stale ones.
    bounds: Option<Arc<QueueBounds>>,
    /// The closed-form round trips this handle has drawn.
    round_trips: RoundTripWork,
    /// `Arc`-shared copy-on-write like `model`: probes only read the
    /// plan, so forks always share it and mutation clones first
    /// (`Arc::make_mut`).
    faults: Arc<FaultPlan>,
    /// The active-adversary plan, shared copy-on-write like `faults`.
    adversary: Arc<AdversaryPlan>,
    rng: StdRng,
    /// The persistent simulation clock: probes are injected at `now`,
    /// and `now` advances by each probe's wall time (or the probe
    /// timeout when nothing comes back). Outages start at instants of
    /// this clock.
    now: SimTime,
    /// Observability sink. Defaults to [`Recorder::off`]; attach one with
    /// [`Network::set_recorder`]. Everything measured through this handle
    /// (and the geolocation layers driving it) emits here.
    obs: Recorder,
}

impl Network {
    /// Wrap a topology with the default delay model.
    pub fn new(topo: Topology, seed: u64) -> Network {
        Network::with_model(topo, DelayModel::default(), seed)
    }

    /// Wrap a topology with an explicit delay model.
    pub fn with_model(topo: Topology, model: DelayModel, seed: u64) -> Network {
        Network {
            topo: Arc::new(topo),
            routes: Routes::new(),
            model: Arc::new(model),
            bounds: None,
            round_trips: RoundTripWork::default(),
            faults: Arc::new(FaultPlan::default()),
            adversary: Arc::new(AdversaryPlan::default()),
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            obs: Recorder::off(),
        }
    }

    /// An independent measurement handle over the same world.
    ///
    /// The fork shares the topology, the router's core trees, the delay
    /// model, the fault plan and the adversary plan (all `Arc`; all
    /// read-only during runs, so sharing across threads cannot change
    /// any result), starts an empty memo of recent routes and zero
    /// [`RoundTripWork`], inherits the parent's clock, and starts a
    /// **fresh RNG stream** from `seed`.
    /// Probing through a fork never advances the parent's clock or RNG —
    /// the basis of the audit's per-proxy parallelism: results depend
    /// only on (shared world, per-proxy seed), not on which thread
    /// measures which proxy first.
    pub fn fork(&self, seed: u64) -> Network {
        Network {
            topo: Arc::clone(&self.topo),
            routes: self.routes.fork(),
            model: Arc::clone(&self.model),
            bounds: self.bounds.clone(),
            round_trips: RoundTripWork::default(),
            faults: Arc::clone(&self.faults),
            adversary: Arc::clone(&self.adversary),
            rng: StdRng::seed_from_u64(seed),
            now: self.now,
            // Detached: the fork starts with no recorder. Workers that
            // want per-proxy traces attach their own recorder fork and
            // the audit merges them back in proxy order — sharing the
            // parent's sink here would interleave events in scheduling
            // order and break the determinism contract.
            obs: Recorder::off(),
        }
    }

    /// Attach an observability recorder. Probes through this handle emit
    /// `net.*` counters and (at event level) per-probe events timestamped
    /// on the simulation clock.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = rec;
    }

    /// The attached recorder (a disabled one by default). Layers driving
    /// this network (scheduler, two-phase protocol) emit through it so
    /// their events land in the same per-proxy buffer as the probe
    /// events.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the simulation clock (e.g. a retry backoff sleeping
    /// between measurement attempts).
    pub fn advance(&mut self, d: SimDuration) {
        self.now = self.now + d;
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access. If forks of this network are alive the
    /// topology is copied-on-write — forks keep seeing the world as it was
    /// when they were taken, and keep the router that routes it. This
    /// handle takes a fresh router and an empty route memo for the edited
    /// world.
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.routes = Routes::new();
        Arc::make_mut(&mut self.topo)
    }

    /// The routing work done so far by the router this handle shares
    /// with its forks (see [`RouteWork`]): core trees and routes built.
    /// A handle that edits its topology starts a fresh router.
    pub fn route_work(&self) -> RouteWork {
        self.routes.work()
    }

    /// The closed-form round trips this handle has drawn, settled and
    /// transformed so far (see [`RoundTripWork`]); a fork starts at zero.
    pub fn round_trip_work(&self) -> RoundTripWork {
        self.round_trips
    }

    /// The delay model in force.
    pub fn delay_model(&self) -> &DelayModel {
        &self.model
    }

    /// The fault plan in force (read-only).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable fault plan (drops, outages, adversarial proxies). If
    /// forks share this plan it is copied-on-write — forks keep the plan
    /// as it was when they were taken.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        Arc::make_mut(&mut self.faults)
    }

    /// The active-adversary plan in force (read-only).
    pub fn adversary(&self) -> &AdversaryPlan {
        &self.adversary
    }

    /// Mutable adversary plan (targeted delays, selective timeouts,
    /// self-ping inflation, colluding landmarks). If forks share the
    /// plan it is copied-on-write — forks keep the plan as it was when
    /// they were taken.
    pub fn adversary_mut(&mut self) -> &mut AdversaryPlan {
        Arc::make_mut(&mut self.adversary)
    }

    // --- Packet-level, protocol-faithful operations ---------------------

    fn run_probe(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: PacketKind,
        ttl: Option<u32>,
    ) -> Option<(SimDuration, PacketKind)> {
        let start = self.now;
        let _prof = self.obs.profile_span("net.probe");
        let kind_label = kind.label();
        // For tunneled probes the packet's `dst` is the proxy; the node
        // actually being measured is the tunnel target. Surface it so
        // trace consumers can attribute outcomes per landmark.
        let tunnel_target = match kind {
            PacketKind::TunnelConnect { target, .. } => Some(target),
            _ => None,
        };
        let Some((outcome, losses, adv_tally)) = self.walk(src, dst, kind, ttl, None) else {
            self.obs.count("net.probe.unroutable", 1);
            return None;
        };
        self.obs.count("net.probe.sent", 1);
        self.record_losses(&losses);
        self.record_adversary(&adv_tally);
        match outcome {
            Outcome::Completed { at, reply } => {
                self.now = at;
                let mut rtt = at.since(start);
                // Adversary tactic (d): a colluding landmark answers the
                // proxy's probe before it physically could (pre-sent
                // replies), modelled as deterministic deflation of the
                // completed reading. The clock keeps the true arrival.
                if let Some(target) = tunnel_target {
                    let (deflated, colluded) = self.adversary.collude_reading(dst, target, rtt);
                    if colluded {
                        rtt = deflated;
                        self.obs.count("net.adv.collude", 1);
                    }
                }
                if self.obs.counters_enabled() {
                    self.obs.count("net.probe.completed", 1);
                    self.obs.record("net.probe.rtt_us", rtt.as_nanos() / 1_000);
                    if self.obs.events_enabled() {
                        self.obs.set_now_ns(self.now.as_nanos());
                        let fields = [
                            ("src", src.into()),
                            ("dst", dst.into()),
                            ("kind", kind_label.into()),
                            ("reply", reply.label().into()),
                            ("rtt_ns", rtt.as_nanos().into()),
                            ("target", tunnel_target.unwrap_or_default().into()),
                        ];
                        // `target` only for tunnelled probes.
                        let n = fields.len() - usize::from(tunnel_target.is_none());
                        self.obs.event("netsim", "probe", &fields[..n]);
                    }
                }
                Some((rtt, reply))
            }
            Outcome::TimedOut => {
                self.now = start + SimDuration::from_ms(DEFAULT_PROBE_TIMEOUT_MS);
                if self.obs.counters_enabled() {
                    self.obs.count("net.probe.timeout", 1);
                    if self.obs.events_enabled() {
                        self.obs.set_now_ns(self.now.as_nanos());
                        let fields = [
                            ("src", src.into()),
                            ("dst", dst.into()),
                            ("kind", kind_label.into()),
                            ("cause", losses.dominant().unwrap_or("unanswered").into()),
                            ("target", tunnel_target.unwrap_or_default().into()),
                        ];
                        let n = fields.len() - usize::from(tunnel_target.is_none());
                        self.obs.event("netsim", "probe_timeout", &fields[..n]);
                    }
                }
                None
            }
        }
    }

    /// Walk one probe from `src` to `dst`, starting now, recording its
    /// packet arrivals into `trace` when given: how it ended and what it
    /// lost on the way, or `None` if `dst` is unreachable from `src`.
    fn walk(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: PacketKind,
        ttl: Option<u32>,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> Option<(Outcome, LossTally, AdversaryTally)> {
        let mut engine = Engine::new(
            &self.topo,
            &self.model,
            &self.faults,
            &self.adversary,
            &mut self.rng,
            trace,
        );
        let outcome = engine.run(&mut self.routes, self.now, src, dst, kind, ttl)?;
        Some((outcome, engine.losses, engine.adv_tally))
    }

    /// Fold one probe's adversary tally into the `net.adv.*`
    /// counters. These are deterministic-compartment counters: they are
    /// part of the determinism contract, and they stay at zero when no
    /// adversary is configured.
    fn record_adversary(&self, t: &AdversaryTally) {
        if t.total() == 0 || !self.obs.counters_enabled() {
            return;
        }
        for (n, name) in [
            (t.held_replies, "net.adv.hold"),
            (t.timeouts, "net.adv.timeout"),
            (t.self_ping_padded, "net.adv.self_ping_pad"),
        ] {
            if n > 0 {
                self.obs.count(name, u64::from(n));
            }
        }
    }

    /// Fold one probe's loss tally into the `net.loss.*` counters.
    fn record_losses(&self, t: &LossTally) {
        if t.total() == 0 || !self.obs.counters_enabled() {
            return;
        }
        for (n, name) in [
            (t.outage, "net.loss.outage"),
            (t.random_drop, "net.loss.drop"),
            (t.filtered, "net.loss.filtered"),
        ] {
            if n > 0 {
                self.obs.count(name, u64::from(n));
            }
        }
    }

    /// ICMP echo round-trip time, or `None` if the target (or a fault)
    /// swallows it.
    pub fn ping(&mut self, client: NodeId, target: NodeId) -> Option<SimDuration> {
        match self.run_probe(client, target, PacketKind::EchoRequest, None)? {
            (rtt, PacketKind::EchoReply) => Some(rtt),
            _ => None,
        }
    }

    /// TCP connect round-trip time on `port` — the CLI measurement
    /// primitive (§4.2). Both SYN-ACK and RST count (connect() returning
    /// "refused" still measures one round trip); silence returns `None`.
    pub fn tcp_connect_rtt(
        &mut self,
        client: NodeId,
        target: NodeId,
        port: u16,
    ) -> Option<SimDuration> {
        match self.run_probe(client, target, PacketKind::TcpSyn { port }, None)? {
            (rtt, PacketKind::TcpSynAck) | (rtt, PacketKind::TcpRst) => Some(rtt),
            _ => None,
        }
    }

    /// TCP connect through a VPN proxy: the client observes the sum of the
    /// tunnel leg and the onward leg (§5.3, Fig. 12).
    pub fn tcp_connect_via_proxy_rtt(
        &mut self,
        client: NodeId,
        proxy: NodeId,
        target: NodeId,
        port: u16,
    ) -> Option<SimDuration> {
        match self.run_probe(
            client,
            proxy,
            PacketKind::TunnelConnect { target, port },
            None,
        )? {
            (rtt, PacketKind::TunnelConnectDone { .. }) => Some(rtt),
            _ => None,
        }
    }

    /// Ping the client's own VPN-tunnel address: ≈ 2 × RTT(client↔proxy),
    /// the quantity used to cancel the tunnel leg (§5.3).
    pub fn self_ping_via_proxy_rtt(
        &mut self,
        client: NodeId,
        proxy: NodeId,
    ) -> Option<SimDuration> {
        match self.run_probe(client, proxy, PacketKind::TunnelSelfPing, None)? {
            (rtt, PacketKind::TunnelSelfPingDone) => Some(rtt),
            _ => None,
        }
    }

    /// Traceroute: one probe per TTL, reporting the responding router (or
    /// `None` where time-exceeded was suppressed). Stops after the hop
    /// that reaches the target.
    pub fn traceroute(
        &mut self,
        client: NodeId,
        target: NodeId,
        max_ttl: u32,
    ) -> Vec<Option<NodeId>> {
        let mut hops = Vec::new();
        for ttl in 1..=max_ttl {
            match self.run_probe(client, target, PacketKind::TcpSyn { port: 80 }, Some(ttl)) {
                Some((_, PacketKind::TimeExceeded { router })) => hops.push(Some(router)),
                Some((_, PacketKind::TcpSynAck)) | Some((_, PacketKind::TcpRst)) => {
                    hops.push(Some(target));
                    break;
                }
                _ => hops.push(None),
            }
        }
        hops
    }

    /// Run one TCP connect with full packet tracing: returns the ordered
    /// list of per-node arrivals (the walk's analogue of a packet dump)
    /// and the measured RTT if the probe completed. Used by the Fig. 7
    /// harness and for debugging protocol behaviour.
    pub fn trace_tcp_connect(
        &mut self,
        client: NodeId,
        target: NodeId,
        port: u16,
    ) -> (Vec<TraceEvent>, Option<SimDuration>) {
        let start = self.now;
        let mut trace = Vec::new();
        let syn = PacketKind::TcpSyn { port };
        let Some((outcome, ..)) = self.walk(client, target, syn, None, Some(&mut trace)) else {
            return (Vec::new(), None);
        };
        let rtt = match outcome {
            Outcome::Completed { at, .. } => Some(at.since(start)),
            Outcome::TimedOut => None,
        };
        self.now = match rtt {
            Some(d) => start + d,
            None => start + SimDuration::from_ms(DEFAULT_PROBE_TIMEOUT_MS),
        };
        (trace, rtt)
    }

    // --- Closed-form sampling (bulk experiments) -------------------------

    /// The routed path's delay facts, or `None` if unreachable or if
    /// `src` is `dst`.
    pub fn path_delays(&self, src: NodeId, dst: NodeId) -> Option<PathDelays> {
        self.routes
            .resolve(&self.topo, src, dst)
            .filter(|path| !path.hops.is_empty())
    }

    /// One stochastic RTT draw in ms (sum of two independent one-way
    /// draws over the same path).
    pub fn sample_rtt_ms(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        self.min_of_n_rtt_ms(src, dst, 1)
    }

    /// The minimum of `n` RTT draws, in ms — what repeated measurement
    /// converges to, and what CBG calibration consumes.
    ///
    /// Bit for bit the minimum of `n` [`sample_rtt_ms`](Self::sample_rtt_ms)
    /// draws, and it leaves the RNG where they would, but for `n > 1` it
    /// transforms only the round trips that can set the minimum. It
    /// first reads all `n` round trips' uniforms as integers and bounds
    /// each round trip from both sides (see `RoundTrips` below). Then,
    /// in draw order, it draws outright each round trip whose lower
    /// bound is at most the least upper bound, from a copy of the RNG
    /// taken before it, which replays the same uniforms.
    pub fn min_of_n_rtt_ms(&mut self, src: NodeId, dst: NodeId, n: usize) -> Option<f64> {
        assert!(n > 0, "need at least one draw");
        let path = self
            .routes
            .get(&self.topo, src, dst)
            .filter(|path| !path.hops.is_empty())?;
        let model = &*self.model;
        let trips = if n > 1 {
            if !self.bounds.as_ref().is_some_and(|b| b.fits(model)) {
                self.bounds = Some(Arc::new(QueueBounds::new(model)));
            }
            RoundTrips::new(model, self.bounds.as_deref().expect("built above"), path)
        } else {
            None
        };
        // A local copy of the RNG stays in registers through the loop.
        let mut rng = self.rng.clone();
        let round_trip =
            |rng: &mut StdRng| model.one_way_ms(path, rng) + model.one_way_ms(path, rng);
        let mut best = f64::INFINITY;
        let mut transformed = 0;
        match trips {
            Some(trips) => {
                for mut copy in trips.candidates(n, &mut rng) {
                    best = best.min(round_trip(&mut copy));
                    transformed += 1;
                }
            }
            // One draw, or queueing that may be negative or NaN and so
            // has no bound: every round trip is drawn outright.
            None => {
                for _ in 0..n {
                    best = best.min(round_trip(&mut rng));
                }
                transformed = n as u64;
            }
        }
        self.rng = rng;
        self.round_trips.drawn += n as u64;
        self.round_trips.transformed += transformed;
        Some(best)
    }

    /// The physical floor of the RTT in ms — no draw can beat this.
    pub fn floor_rtt_ms(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let path = self.path_delays(src, dst)?;
        Some(2.0 * self.model.floor_one_way_ms(&path))
    }
}

/// The closed-form round trips a [`Network`] handle has drawn
/// ([`Network::min_of_n_rtt_ms`], [`Network::sample_rtt_ms`]), as work
/// counts like [`RouteWork`]: they are meant to fall, so they stay out of
/// every determinism contract. A fork starts at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTripWork {
    /// Round trips drawn: `n` per call that found a route.
    pub drawn: u64,
    /// Round trips transformed: drawn outright, through the queueing
    /// draws' transcendental functions.
    pub transformed: u64,
}

impl RoundTripWork {
    /// Round trips settled from their bounds alone, with no transform.
    pub fn settled(&self) -> u64 {
        self.drawn - self.transformed
    }

    /// The work done after `earlier`, a reading of the same handle.
    pub fn since(&self, earlier: RoundTripWork) -> RoundTripWork {
        RoundTripWork {
            drawn: self.drawn - earlier.drawn,
            transformed: self.transformed - earlier.transformed,
        }
    }
}

/// The round trips of [`Network::min_of_n_rtt_ms`] over one path,
/// bounded from both sides from their uniforms' integers.
///
/// Each hop's draw is read as [`QueueBins`] and bounded below by
/// [`QueueBounds::hop_ms`] and above by [`QueueBounds::hop_max_ms`], and
/// each bound is summed in the exact sum's order: `floor + q₁ + …` each
/// way, then `fwd + rev`. Floating-point addition is monotone and the
/// queueing here is never negative, so the two sums bound the round
/// trip, and the partial lower sum plus the least the other leg adds
/// never exceeds it. Once that passes the least upper bound of the
/// round trips before, the round trip cannot be the minimum, and its
/// remaining hops only advance the RNG.
struct RoundTrips<'a> {
    bounds: &'a QueueBounds,
    /// The hops that queue (every hop but the source's): each one's
    /// congestion factor and spike threshold
    /// ([`DelayModel::spike_threshold`]).
    queued: Vec<(f64, u64)>,
    /// Each leg's floor: propagation and fixed costs, no queueing.
    floor: f64,
}

impl<'a> RoundTrips<'a> {
    /// The bounded round trips over `path`, or `None` when a congestion
    /// factor is not finite and ≥ 0, so that its queueing could be
    /// negative or NaN.
    fn new(model: &DelayModel, bounds: &'a QueueBounds, path: &PathDelays) -> Option<Self> {
        let queued = &path.hops[1..];
        queued
            .iter()
            .all(|hop| hop.congestion.is_finite() && hop.congestion >= 0.0)
            .then(|| RoundTrips {
                bounds,
                queued: queued
                    .iter()
                    .map(|hop| (hop.congestion, model.spike_threshold(hop.congestion)))
                    .collect(),
                floor: model.floor_one_way_ms(path),
            })
    }

    /// Draw `n` round trips from `rng` and return, in draw order, a copy
    /// of the RNG from before each one whose lower bound is at most the
    /// least upper bound of all `n`. Every other round trip's exact value
    /// is at least its lower bound, so above that least upper bound,
    /// which is at least the exact value of the round trip it bounds,
    /// one of those returned.
    fn candidates(&self, n: usize, rng: &mut StdRng) -> impl Iterator<Item = StdRng> {
        let mut least_upper = f64::INFINITY;
        let mut kept = Vec::with_capacity(n);
        for _ in 0..n {
            let copy = rng.clone();
            if let Some((lower, upper)) = self.bound(least_upper, rng) {
                least_upper = least_upper.min(upper);
                kept.push((copy, lower));
            }
        }
        // A NaN bound, which bounds nothing, is kept too.
        kept.into_iter()
            .filter(move |&(_, lower)| lower <= least_upper || lower.is_nan())
            .map(|(copy, _)| copy)
    }

    /// Draw one round trip's bins from `rng` and bound it from below and
    /// above, or return `None` as soon as its lower bound passes
    /// `least_upper`.
    #[inline]
    fn bound(&self, least_upper: f64, rng: &mut StdRng) -> Option<(f64, f64)> {
        let Some((fwd_lower, fwd_upper)) = self.leg(self.floor, least_upper, rng) else {
            self.advance(&self.queued, rng);
            return None;
        };
        let (rev_lower, rev_upper) = self.leg(fwd_lower, least_upper, rng)?;
        Some((fwd_lower + rev_lower, fwd_upper + rev_upper))
    }

    /// Draw one leg's bins and bound its one-way delay from both sides,
    /// or return `None` as soon as the lower bound plus `other`, a lower
    /// bound on the other leg, passes `least_upper`.
    #[inline]
    fn leg(&self, other: f64, least_upper: f64, rng: &mut StdRng) -> Option<(f64, f64)> {
        let (mut lower, mut upper) = (self.floor, self.floor);
        for (i, &(congestion, spike_below)) in self.queued.iter().enumerate() {
            let bins = QueueBins::draw(rng, spike_below);
            lower += self.bounds.hop_ms(congestion, bins);
            if lower + other > least_upper {
                self.advance(&self.queued[i + 1..], rng);
                return None;
            }
            upper += self.bounds.hop_max_ms(congestion, bins);
        }
        Some((lower, upper))
    }

    /// Advance `rng` past the queueing draws of `hops`.
    #[inline]
    fn advance(&self, hops: &[(f64, u64)], rng: &mut StdRng) {
        for &(_, spike_below) in hops {
            QueueBins::draw(rng, spike_below);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FilterPolicy;
    use crate::topology::{plain_node, NodeKind};
    use geokit::GeoPoint;
    use simrng::Rng;

    /// A little Europe: Frankfurt and Paris IXPs, hosts on each.
    fn net() -> (Network, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let fra = topo.add_node(plain_node(NodeKind::Ixp, GeoPoint::new(50.1, 8.7)));
        let par = topo.add_node(plain_node(NodeKind::Ixp, GeoPoint::new(48.9, 2.3)));
        let client = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(50.0, 8.6)));
        let proxy = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(48.8, 2.4)));
        let lm = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(48.7, 2.2)));
        // ~480 km Frankfurt–Paris at 1.5× circuitousness / 200 km/ms ≈ 3.5 ms.
        topo.add_link(fra, par, 3.5);
        topo.add_link(client, fra, 0.3);
        topo.add_link(proxy, par, 0.3);
        topo.add_link(lm, par, 0.2);
        (Network::new(topo, 42), client, proxy, lm)
    }

    #[test]
    fn tcp_rtt_close_to_floor_on_repeat() {
        let (mut net, client, _, lm) = net();
        let floor = net.floor_rtt_ms(client, lm).unwrap();
        let best = (0..50)
            .filter_map(|_| net.tcp_connect_rtt(client, lm, 80))
            .map(|d| d.as_ms())
            .fold(f64::INFINITY, f64::min);
        assert!(best >= floor, "{best} < {floor}");
        assert!(best < floor + 1.5, "{best} too far above floor {floor}");
    }

    #[test]
    fn des_and_sampler_agree() {
        // The walk and the closed-form sampler must produce statistically
        // indistinguishable RTT distributions for the same pair.
        let (mut net, client, _, lm) = net();
        let des: Vec<f64> = (0..400)
            .filter_map(|_| net.tcp_connect_rtt(client, lm, 80))
            .map(|d| d.as_ms())
            .collect();
        let sam: Vec<f64> = (0..400)
            .filter_map(|_| net.sample_rtt_ms(client, lm))
            .collect();
        let (md, ms) = (
            geokit::stats::median(&des).unwrap(),
            geokit::stats::median(&sam).unwrap(),
        );
        assert!(
            (md - ms).abs() < 0.35,
            "median mismatch: walk {md} vs sampler {ms}"
        );
        let (mind, mins) = (
            des.iter().copied().fold(f64::INFINITY, f64::min),
            sam.iter().copied().fold(f64::INFINITY, f64::min),
        );
        assert!((mind - mins).abs() < 0.5, "min mismatch {mind} vs {mins}");
    }

    #[test]
    fn proxied_rtt_is_sum_of_legs() {
        let (mut net, client, proxy, lm) = net();
        let via: f64 = (0..40)
            .filter_map(|_| net.tcp_connect_via_proxy_rtt(client, proxy, lm, 80))
            .map(|d| d.as_ms())
            .fold(f64::INFINITY, f64::min);
        let leg1 = net.floor_rtt_ms(client, proxy).unwrap();
        let leg2 = net.floor_rtt_ms(proxy, lm).unwrap();
        assert!(via >= leg1 + leg2 - 0.5, "{via} vs {}", leg1 + leg2);
        assert!(via < leg1 + leg2 + 3.0);
    }

    #[test]
    fn self_ping_is_about_twice_direct() {
        let (mut net, client, proxy, _) = net();
        let direct: f64 = (0..40)
            .filter_map(|_| net.ping(client, proxy))
            .map(|d| d.as_ms())
            .fold(f64::INFINITY, f64::min);
        let double: f64 = (0..40)
            .filter_map(|_| net.self_ping_via_proxy_rtt(client, proxy))
            .map(|d| d.as_ms())
            .fold(f64::INFINITY, f64::min);
        let eta = direct / double;
        assert!((eta - 0.5).abs() < 0.06, "η = {eta}");
    }

    #[test]
    fn traceroute_stops_at_target() {
        let (mut net, client, _, lm) = net();
        let hops = net.traceroute(client, lm, 10);
        assert_eq!(hops.len(), 3); // fra, par, target
        assert_eq!(hops[2], Some(lm));
    }

    #[test]
    fn traceroute_blind_spot() {
        let (mut net, client, _, lm) = net();
        // Suppress time-exceeded at every IXP: the trace shows only the
        // final hop (as through a third of VPN tunnels, §4.2).
        for id in [0u32, 1u32] {
            net.topology_mut().node_mut(id).policy.drop_time_exceeded = true;
        }
        let hops = net.traceroute(client, lm, 10);
        assert_eq!(hops[0], None);
        assert_eq!(hops[1], None);
        assert_eq!(hops[2], Some(lm));
    }

    #[test]
    fn filtered_target_unmeasurable_by_ping_but_not_tcp() {
        let (mut net, client, proxy, _) = net();
        net.topology_mut().node_mut(proxy).policy = FilterPolicy::vpn_server();
        assert!(net.ping(client, proxy).is_none());
        assert!(net.tcp_connect_rtt(client, proxy, 443).is_some());
    }

    #[test]
    fn min_of_n_decreases_with_n() {
        let (mut net, client, _, lm) = net();
        let one = net.min_of_n_rtt_ms(client, lm, 1).unwrap();
        let many = net.min_of_n_rtt_ms(client, lm, 200).unwrap();
        assert!(many <= one);
        let floor = net.floor_rtt_ms(client, lm).unwrap();
        assert!(many >= floor);
    }

    /// The plain loop's minimum of `n` round trips over `client → lm` on
    /// a fork of `net` seeded 7, beside the bounded one's, and both
    /// forks' next RNG draws; also the bounded fork's work.
    fn plain_and_bounded(net: &Network, n: usize) -> ([u64; 2], [u64; 2], RoundTripWork) {
        let (client, lm) = (2, 4);
        let path = net.path_delays(client, lm).unwrap();
        let (mut plain, mut bounded) = (net.fork(7), net.fork(7));
        let model = net.delay_model().clone();
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let fwd = model.one_way_ms(&path, &mut plain.rng);
            let rev = model.one_way_ms(&path, &mut plain.rng);
            best = best.min(fwd + rev);
        }
        let got = bounded.min_of_n_rtt_ms(client, lm, n).unwrap();
        (
            [got.to_bits(), best.to_bits()],
            [bounded.rng.next_u64(), plain.rng.next_u64()],
            bounded.round_trip_work(),
        )
    }

    #[test]
    fn min_of_n_matches_the_plain_loop_for_any_congestion() {
        let spiky = DelayModel {
            spike_probability: 1.0,
            ..DelayModel::default()
        };
        for n in [2, 3, 40, 64] {
            for congestion in [0.0, 0.5, 5.0, -1.0, -0.0, f64::NAN, f64::INFINITY] {
                let (mut net, ..) = net();
                net.topology_mut().node_mut(0).congestion = congestion;
                let (bits, next, work) = plain_and_bounded(&net, n);
                assert_eq!(bits[0], bits[1], "congestion {congestion}, n {n}");
                assert_eq!(next[0], next[1], "congestion {congestion}, n {n}");
                assert_eq!(work.drawn, n as u64);
                assert!((1..=n as u64).contains(&work.transformed), "{work:?}");
            }
            // NaN and negative congestion on one path: no bound, so every
            // round trip is transformed.
            let (mut invalid, ..) = net();
            invalid.topology_mut().node_mut(0).congestion = f64::NAN;
            invalid.topology_mut().node_mut(1).congestion = -2.0;
            let (bits, next, work) = plain_and_bounded(&invalid, n);
            assert_eq!((bits[0], next[0]), (bits[1], next[1]), "n {n}");
            assert_eq!(work.transformed, n as u64);
            // Every hop spikes, so no round trip has a finite upper
            // bound, none is settled, and each is transformed.
            let topo = net().0.topology().clone();
            let spiking = Network::with_model(topo, spiky.clone(), 42);
            let (bits, next, work) = plain_and_bounded(&spiking, n);
            assert_eq!((bits[0], next[0]), (bits[1], next[1]), "n {n}");
            assert_eq!(work.transformed, n as u64);
        }
    }

    #[test]
    fn round_trip_work_counts_each_handle_s_draws() {
        let (mut net, client, proxy, lm) = net();
        net.min_of_n_rtt_ms(client, lm, 40).unwrap();
        net.sample_rtt_ms(client, proxy).unwrap();
        // No route from a node to itself: nothing drawn.
        assert!(net.min_of_n_rtt_ms(lm, lm, 40).is_none());
        let work = net.round_trip_work();
        assert_eq!(work.drawn, 41);
        // The one draw is transformed, and so is at least one of the 40.
        assert!((2..=10).contains(&work.transformed), "{work:?}");
        assert_eq!(work.settled(), work.drawn - work.transformed);
        assert_eq!(net.fork(1).round_trip_work(), RoundTripWork::default());
        let before = work;
        net.sample_rtt_ms(client, lm).unwrap();
        let one = net.round_trip_work().since(before);
        assert_eq!((one.drawn, one.transformed, one.settled()), (1, 1, 0));
    }

    #[test]
    fn packet_trace_walks_the_route_and_back() {
        let (mut net, client, _, lm) = net();
        let (trace, rtt) = net.trace_tcp_connect(client, lm, 80);
        assert!(rtt.is_some());
        // SYN walks client → fra → par → lm; SYN-ACK walks back.
        assert!(trace.len() >= 6, "only {} trace events", trace.len());
        // First arrival is the first forwarding hop of the SYN; the final
        // delivered event is the reply landing back at the client.
        assert!(matches!(trace[0].kind, PacketKind::TcpSyn { .. }));
        let last = trace.last().unwrap();
        assert!(last.delivered);
        assert_eq!(last.node, client);
        assert_eq!(last.kind, PacketKind::TcpSynAck);
        // Timestamps are non-decreasing.
        for w in trace.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Exactly one delivery at the landmark.
        assert_eq!(
            trace.iter().filter(|e| e.delivered && e.node == lm).count(),
            1
        );
    }

    #[test]
    fn clock_advances_with_probes() {
        let (mut net, client, _, lm) = net();
        assert_eq!(net.now(), SimTime::ZERO);
        let rtt = net.tcp_connect_rtt(client, lm, 80).unwrap();
        assert_eq!(net.now(), SimTime::ZERO + rtt);
        // An unanswered probe costs the probe timeout.
        net.topology_mut().node_mut(lm).policy.filtered_tcp_ports = vec![80];
        let before = net.now();
        assert!(net.tcp_connect_rtt(client, lm, 80).is_none());
        assert_eq!(net.now().since(before).as_ms(), DEFAULT_PROBE_TIMEOUT_MS);
        // Manual advance (a retry backoff).
        let before = net.now();
        net.advance(SimDuration::from_ms(123.0));
        assert_eq!(net.now().since(before).as_ms(), 123.0);
    }

    #[test]
    fn permanent_outage_never_recovers() {
        let (mut net, client, _, lm) = net();
        net.faults_mut().add_permanent_outage(lm, SimTime::ZERO);
        for _ in 0..5 {
            assert!(net.tcp_connect_rtt(client, lm, 80).is_none());
        }
    }

    #[test]
    fn fork_is_independent_and_deterministic() {
        let (mut parent, client, _, lm) = net();
        // Burn some parent state so forks start from a nontrivial clock.
        parent.tcp_connect_rtt(client, lm, 80);
        let parent_now = parent.now();
        let parent_rng_probe = |n: &mut Network| {
            (0..5)
                .filter_map(|_| n.tcp_connect_rtt(client, lm, 80))
                .map(|d| d.as_nanos())
                .collect::<Vec<_>>()
        };
        // Same seed ⇒ identical fork streams, regardless of what other
        // forks did in between.
        let mut a = parent.fork(7);
        let run_a = parent_rng_probe(&mut a);
        let mut noise = parent.fork(99);
        parent_rng_probe(&mut noise);
        let mut b = parent.fork(7);
        let run_b = parent_rng_probe(&mut b);
        assert_eq!(run_a, run_b);
        // Forks never touched the parent's clock.
        assert_eq!(parent.now(), parent_now);
        // A fork's fault edits are its own: the shared plan is copied on
        // write.
        let mut c = parent.fork(3);
        c.faults_mut().add_permanent_outage(lm, SimTime::ZERO);
        assert!(c.tcp_connect_rtt(client, lm, 80).is_none());
        assert!(parent.tcp_connect_rtt(client, lm, 80).is_some());
    }

    #[test]
    fn parent_topology_edit_does_not_leak_into_forks() {
        let (mut parent, client, _, lm) = net();
        let fork = parent.fork(1);
        parent.topology_mut().node_mut(lm).policy.filtered_tcp_ports = vec![80];
        assert!(parent.tcp_connect_rtt(client, lm, 80).is_none());
        let mut fork = fork;
        assert!(
            fork.tcp_connect_rtt(client, lm, 80).is_some(),
            "fork must keep its copy-on-write view of the world"
        );
    }

    #[test]
    fn parent_topology_growth_does_not_read_fork_routes() {
        // A fork probing its old world must not fill the parent's route
        // cache with routes over the old topology.
        let (mut parent, client, _, lm) = net();
        let mut fork = parent.fork(1);
        let topo = parent.topology_mut();
        let newcomer = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(48.6, 2.1)));
        topo.add_link(newcomer, 1, 0.2);
        assert!(fork.tcp_connect_rtt(client, lm, 80).is_some());
        assert!(parent.tcp_connect_rtt(client, newcomer, 80).is_some());
        assert_eq!(
            parent.traceroute(client, newcomer, 10).last(),
            Some(&Some(newcomer))
        );
    }

    #[test]
    fn recorder_sees_probe_outcomes_and_loss_causes() {
        let (mut net, client, _, lm) = net();
        net.set_recorder(obs::Recorder::new(obs::Level::Events));
        assert!(net.tcp_connect_rtt(client, lm, 80).is_some());
        // Filter the port: the SYN is silently dropped at the landmark.
        net.topology_mut().node_mut(lm).policy.filtered_tcp_ports = vec![80];
        assert!(net.tcp_connect_rtt(client, lm, 80).is_none());
        let rec = net.recorder();
        assert_eq!(rec.counter("net.probe.sent"), 2);
        assert_eq!(rec.counter("net.probe.completed"), 1);
        assert_eq!(rec.counter("net.probe.timeout"), 1);
        assert_eq!(rec.counter("net.loss.filtered"), 1);
        assert_eq!(rec.events_len(), 2);
        rec.with_events(|evs| {
            let evs: Vec<_> = evs.collect();
            assert_eq!(evs[0].name, "probe");
            assert!(evs[0].field_u64("rtt_ns").unwrap() > 0);
            assert_eq!(evs[1].name, "probe_timeout");
            assert_eq!(evs[1].field_str("cause"), Some("filtered"));
            // Timestamps ride the simulation clock.
            assert_eq!(evs[1].t_ns, net.now().as_nanos());
        });
        // Forks are detached: probing a fork leaves the parent's trace
        // untouched.
        let before = net.recorder().events_len();
        let mut f = net.fork(5);
        f.topology_mut().node_mut(lm).policy.filtered_tcp_ports = vec![];
        f.tcp_connect_rtt(client, lm, 80);
        assert_eq!(net.recorder().events_len(), before);
    }

    #[test]
    fn recorder_off_by_default_costs_nothing_visible() {
        let (mut net, client, _, lm) = net();
        assert!(net.tcp_connect_rtt(client, lm, 80).is_some());
        assert_eq!(net.recorder().counter("net.probe.sent"), 0);
        assert_eq!(net.recorder().events_len(), 0);
    }

    #[test]
    fn determinism_same_seed() {
        let build = || {
            let (mut n, c, _, l) = net();
            (0..10)
                .filter_map(|_| n.tcp_connect_rtt(c, l, 80))
                .map(|d| d.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// One full measurement round (tunnel connect + self-ping), nanos.
    fn adversarial_round(
        configure: impl FnOnce(&mut AdversaryPlan, NodeId, NodeId),
    ) -> (Vec<u64>, Vec<u64>) {
        let (mut n, c, p, l) = net();
        configure(n.adversary_mut(), p, l);
        let tunnel = (0..10)
            .filter_map(|_| n.tcp_connect_via_proxy_rtt(c, p, l, 80))
            .map(|d| d.as_nanos())
            .collect();
        let self_ping = (0..10)
            .filter_map(|_| n.self_ping_via_proxy_rtt(c, p))
            .map(|d| d.as_nanos())
            .collect();
        (tunnel, self_ping)
    }

    #[test]
    fn empty_adversary_plan_is_rng_neutral() {
        // Installing (then clearing) a plan must not perturb a single
        // draw: the whole RTT stream is byte-identical to no plan at all.
        let baseline = adversarial_round(|_, _, _| {});
        let cleared = adversarial_round(|adv, p, l| {
            adv.tactic_mut(p).hold_reply(l, 50.0);
            *adv = AdversaryPlan::new();
        });
        assert_eq!(baseline, cleared);
    }

    #[test]
    fn targeted_hold_delays_exactly_the_held_landmark() {
        let baseline = adversarial_round(|_, _, _| {});
        let held = adversarial_round(|adv, p, l| {
            adv.tactic_mut(p).hold_reply(l, 40.0);
        });
        // Every tunnel reading grows by exactly the hold; the RNG stream
        // is untouched, so the difference is exactly 40 ms each.
        for (b, h) in baseline.0.iter().zip(&held.0) {
            assert_eq!(h - b, 40_000_000, "hold must add exactly 40 ms");
        }
        // Self-pings are unaffected by a reply hold.
        assert_eq!(baseline.1, held.1);
    }

    #[test]
    fn selective_timeout_starves_only_tunnel_connects() {
        let (mut n, c, p, l) = net();
        n.adversary_mut().tactic_mut(p).timeout_landmark(l);
        assert!(n.tcp_connect_via_proxy_rtt(c, p, l, 80).is_none());
        // Direct measurement of the same landmark still works: the
        // adversary controls only its own tunnel.
        assert!(n.tcp_connect_rtt(c, l, 80).is_some());
        assert!(n.self_ping_via_proxy_rtt(c, p).is_some());
    }

    #[test]
    fn self_ping_inflation_pads_both_legs() {
        let baseline = adversarial_round(|_, _, _| {});
        let padded = adversarial_round(|adv, p, _| {
            adv.tactic_mut(p).inflate_self_ping(15.0);
        });
        // Tunnel connects are untouched; each self-ping crosses the
        // proxy twice, so it grows by exactly 2 × 15 ms.
        assert_eq!(baseline.0, padded.0);
        for (b, s) in baseline.1.iter().zip(&padded.1) {
            assert_eq!(s - b, 30_000_000, "pad must add exactly 30 ms");
        }
    }

    #[test]
    fn colluding_landmark_deflates_the_reading_not_the_clock() {
        let (mut n, c, p, l) = net();
        let honest = n.tcp_connect_via_proxy_rtt(c, p, l, 80).unwrap();
        let t_after_honest = n.now();
        let (mut n2, c2, p2, l2) = net();
        n2.adversary_mut().tactic_mut(p2).add_colluder(l2, 0.5);
        let deflated = n2.tcp_connect_via_proxy_rtt(c2, p2, l2, 80).unwrap();
        assert!((deflated.as_ms() - honest.as_ms() * 0.5).abs() < 1e-6);
        // The simulation clock still advances by the true arrival time.
        assert_eq!(n2.now(), t_after_honest);
    }
}
