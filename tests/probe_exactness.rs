//! `Network`'s probe walk reproduces, probe by probe, the discrete-event
//! engine it replaced. That engine is kept below as the reference, as it
//! stood before the walk (an event heap, sequence numbers, probe ids, a
//! route rebuilt per leg, a link found by scanning neighbours), together
//! with the `Network` facade code that drove it, less its checks for
//! the faults the plan has since lost (per-link loss, reply rate limits,
//! reading corruption). Three lines differ: `FaultPlan::drops_packet`
//! and the queueing draw lost their node arguments, and `PacketKind`
//! became `Copy`. The queueing draw is the
//! plain body `DelayModel::queue_draw_ms` had before it was split into
//! uniforms and their transform (`geokit::sampling`'s draws in turn),
//! and the closed form is the plain loop `min_of_n_rtt_ms` had before
//! it bounded round trips.
//!
//! For every probe both sides must agree on the result and its RTT bits,
//! the clock, the `net.probe.*`/`net.loss.*`/`net.adv.*` counters, and
//! the packet trace; closed-form `sample_rtt_ms` draws between probes
//! check that both consumed the same RNG draws. A property covers random
//! topologies with every fault and adversary tactic, and another the
//! minimum of up to 64 round trips; ignored tests, which `ci.sh` runs in
//! release, replay the audit's probe kinds over a slice of the paper
//! world's fleet, clean and hostile, and collect the paper's anchor mesh
//! within a budget of transformed round trips.

use atlas::CalibrationDb;
use geokit::sampling;
use netsim::delay::DelayModel;
use netsim::engine::{LossTally, PacketKind, TraceEvent};
use netsim::network::DEFAULT_PROBE_TIMEOUT_MS;
use netsim::policy::SynResponse;
use netsim::routing::Router;
use netsim::topology::{plain_node, NodeKind, Topology};
use netsim::{
    AdversaryPlan, AdversaryTally, FaultPlan, FilterPolicy, Network, NodeId, SimDuration, SimTime,
};
use obs::{Level, Recorder};
use simrng::prop::prelude::*;
use simrng::rngs::StdRng;
use simrng::{Rng, RngExt, SeedableRng};
use std::collections::BinaryHeap;
use vpnstudy::campaign::{shaping_plan, AdversaryModel};
use vpnstudy::{Study, StudyConfig};

// --- The reference engine ----------------------------------------------

/// Unique id of one probe (measurement attempt).
pub type ProbeId = u64;

/// A packet in flight along a precomputed route.
#[derive(Debug, Clone)]
struct Packet {
    probe: ProbeId,
    kind: PacketKind,
    src: NodeId,
    dst: NodeId,
    ttl: u32,
    route: Vec<NodeId>,
    /// Index of the node the packet currently sits at.
    pos: usize,
}

/// How a probe finished.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// A reply arrived at the probe's originator at the given time.
    Completed {
        /// Arrival time of the completing packet.
        at: SimTime,
        /// The packet kind that completed the probe.
        reply: PacketKind,
    },
    /// No reply by the end of the run (filtered, dropped, or unreachable).
    TimedOut,
}

/// One scheduled event: a packet arriving at a node.
struct Event {
    at: SimTime,
    seq: u64,
    packet: Packet,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap: earliest time first; sequence number breaks ties.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event engine for one batch of probes.
pub struct Engine<'a, R: Rng> {
    topo: &'a Topology,
    router: &'a Router,
    model: &'a DelayModel,
    faults: &'a FaultPlan,
    /// Active-adversary hooks (targeted delay, selective timeout,
    /// self-ping padding). `None` — the common case — is equivalent to
    /// an empty plan and costs one branch per relevant packet.
    adversary: Option<&'a AdversaryPlan>,
    rng: &'a mut R,
    queue: BinaryHeap<Event>,
    seq: u64,
    outcomes: Vec<(ProbeId, ProbeOutcome)>,
    /// Per-probe originator (where a completion must arrive).
    originators: Vec<(ProbeId, NodeId)>,
    /// Outstanding proxied connections: (probe, proxy, client) — when the
    /// onward SYN's answer returns to the proxy, it is relayed to the
    /// client.
    relay_targets: Vec<(ProbeId, NodeId, NodeId)>,
    next_probe: ProbeId,
    default_ttl: u32,
    /// When set, every packet arrival is recorded here.
    trace: Option<Vec<TraceEvent>>,
    /// Loss-cause tally for this run (read by the `Network` facade).
    losses: LossTally,
    /// Adversary-intervention tally for this run (read by the facade).
    adv_tally: AdversaryTally,
}

impl<'a, R: Rng> Engine<'a, R> {
    /// Create an engine over shared network state.
    pub fn new(
        topo: &'a Topology,
        router: &'a Router,
        model: &'a DelayModel,
        faults: &'a FaultPlan,
        rng: &'a mut R,
    ) -> Engine<'a, R> {
        Engine {
            topo,
            router,
            model,
            faults,
            adversary: None,
            rng,
            queue: BinaryHeap::new(),
            seq: 0,
            outcomes: Vec::new(),
            originators: Vec::new(),
            relay_targets: Vec::new(),
            next_probe: 0,
            default_ttl: 64,
            trace: None,
            losses: LossTally::default(),
            adv_tally: AdversaryTally::default(),
        }
    }

    /// Attach an adversary plan for this run. Equivalent to not calling
    /// this when the plan is inactive.
    pub fn set_adversary(&mut self, plan: &'a AdversaryPlan) {
        self.adversary = plan.is_active().then_some(plan);
    }

    /// Loss causes tallied so far in this run.
    pub fn losses(&self) -> LossTally {
        self.losses
    }

    /// Adversary interventions tallied so far in this run.
    pub fn adversary_tally(&self) -> AdversaryTally {
        self.adv_tally
    }

    /// Enable packet tracing for this run (records every arrival).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Inject a probe packet at `src` at time `at`; returns its id, or
    /// `None` if the destination is unreachable.
    pub fn inject(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        kind: PacketKind,
        ttl: Option<u32>,
    ) -> Option<ProbeId> {
        let route = self.router.path(self.topo, src, dst)?;
        let probe = self.next_probe;
        self.next_probe += 1;
        self.originators.push((probe, src));
        let packet = Packet {
            probe,
            kind,
            src,
            dst,
            ttl: ttl.unwrap_or(self.default_ttl),
            route,
            pos: 0,
        };
        // The sender pays its network-stack cost up front (the receiver
        // pays at delivery), keeping the DES and the closed-form sampler
        // on the same per-one-way budget.
        let stack = SimDuration::from_ms(self.model.endpoint_ms);
        self.schedule(at + stack, packet);
        Some(probe)
    }

    fn schedule(&mut self, at: SimTime, packet: Packet) {
        self.seq += 1;
        self.queue.push(Event {
            at,
            seq: self.seq,
            packet,
        });
    }

    /// Send a (response) packet from `src` to `dst`, keeping the probe id.
    /// Like [`Engine::inject`], the sender pays its stack cost up front.
    fn send(&mut self, at: SimTime, probe: ProbeId, src: NodeId, dst: NodeId, kind: PacketKind) {
        if let Some(route) = self.router.path(self.topo, src, dst) {
            let packet = Packet {
                probe,
                kind,
                src,
                dst,
                ttl: self.default_ttl,
                route,
                pos: 0,
            };
            let stack = SimDuration::from_ms(self.model.endpoint_ms);
            self.schedule(at + stack, packet);
        }
    }

    /// Run until the event queue drains, then mark unanswered probes as
    /// timed out. Returns `(probe, outcome)` pairs in probe order.
    pub fn run(&mut self) -> Vec<(ProbeId, ProbeOutcome)> {
        while let Some(Event { at, packet, .. }) = self.queue.pop() {
            self.handle_arrival(at, packet);
        }
        let mut outcomes = std::mem::take(&mut self.outcomes);
        // Any probe without an outcome timed out.
        for &(probe, _) in &self.originators {
            if !outcomes.iter().any(|(p, _)| *p == probe) {
                outcomes.push((probe, ProbeOutcome::TimedOut));
            }
        }
        outcomes.sort_by_key(|(p, _)| *p);
        outcomes
    }

    fn handle_arrival(&mut self, at: SimTime, mut packet: Packet) {
        let here = packet.route[packet.pos];
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                at,
                node: here,
                kind: packet.kind,
                delivered: here == packet.dst,
            });
        }
        if here == packet.dst {
            self.handle_delivery(at, packet);
            return;
        }

        // Forwarding through an intermediate node: TTL check, queueing.
        let is_endpoint_origin = packet.pos == 0;
        if !is_endpoint_origin {
            if packet.ttl == 0 {
                // Should have expired earlier; defensive.
                return;
            }
            packet.ttl -= 1;
            if packet.ttl == 0 {
                // Expired here: time-exceeded back to the source, unless
                // suppressed by this router's policy or it's a reply kind.
                if !self.topo.node(here).policy.drop_time_exceeded {
                    let probe = packet.probe;
                    let src = packet.src;
                    self.send(
                        at,
                        probe,
                        here,
                        src,
                        PacketKind::TimeExceeded { router: here },
                    );
                }
                return;
            }
        }

        // Fault injection: outage at the forwarding node, random loss.
        if self.faults.is_down(here, at) {
            self.losses.outage += 1;
            return;
        }
        if self.faults.drops_packet(self.rng) {
            self.losses.random_drop += 1;
            return;
        }

        let queue_ms = if is_endpoint_origin {
            0.0
        } else {
            queue_draw_ms(self.model, self.topo.node(here).congestion, self.rng)
        };
        let next = packet.route[packet.pos + 1];
        let link = self
            .topo
            .neighbours(here)
            .iter()
            .find(|&&(_, n)| n == next)
            .map(|&(l, _)| l)
            .expect("route follows links");
        let extra = self.faults.added_delay_ms(here, self.rng);
        let hop = SimDuration::from_ms(
            self.topo.link(link).propagation_ms + self.model.per_hop_fixed_ms + queue_ms + extra,
        );
        packet.pos += 1;
        self.schedule(at + hop, packet);
    }

    fn handle_delivery(&mut self, at: SimTime, packet: Packet) {
        let here = packet.dst;
        // A node in an outage swallows everything addressed to it — no
        // replies, no tunnel forwarding.
        if self.faults.is_down(here, at) {
            self.losses.outage += 1;
            return;
        }
        let stack = SimDuration::from_ms(self.model.endpoint_ms);
        let mut at = at + stack;
        // Tunnelled packets handled by a proxy pay VPN forwarding
        // overhead (encryption, user-space forwarding): the "extra noise
        // and queueing delays" of through-proxy measurement (§5.3).
        if matches!(
            packet.kind,
            PacketKind::TunnelConnect { .. }
                | PacketKind::TunnelSelfPing
                | PacketKind::TunnelSelfPingReply
        ) {
            at = at + SimDuration::from_ms(self.model.vpn_forward_draw_ms(self.rng));
            // Adversary tactic (c): an adversarial proxy pads its own
            // self-ping legs so the client's η correction over-subtracts.
            if matches!(
                packet.kind,
                PacketKind::TunnelSelfPing | PacketKind::TunnelSelfPingReply
            ) {
                if let Some(adv) = self.adversary {
                    let pad = adv.self_ping_extra_ms(here);
                    if pad > 0.0 {
                        self.adv_tally.self_ping_padded += 1;
                        at = at + SimDuration::from_ms(pad);
                    }
                }
            }
        }
        let policy = self.topo.node(here).policy.clone();
        match packet.kind {
            PacketKind::EchoRequest => {
                if policy.drop_icmp_echo {
                    self.losses.filtered += 1;
                } else {
                    self.send(at, packet.probe, here, packet.src, PacketKind::EchoReply);
                }
            }
            PacketKind::TcpSyn { port } => match policy.syn_response(port) {
                SynResponse::SynAck => {
                    // An adversarial proxy in the middle could have forged
                    // this earlier; that is modelled at the proxy, not here.
                    self.send(at, packet.probe, here, packet.src, PacketKind::TcpSynAck);
                }
                SynResponse::Rst => {
                    self.send(at, packet.probe, here, packet.src, PacketKind::TcpRst);
                }
                SynResponse::Dropped => {
                    self.losses.filtered += 1;
                }
            },
            PacketKind::TunnelConnect { target, port } => {
                // Adversary tactic (b): swallow connects toward landmarks
                // whose constraints would expose the true location. To
                // the client this is indistinguishable from an ordinary
                // probe timeout.
                if self
                    .adversary
                    .is_some_and(|adv| adv.times_out(here, target))
                {
                    self.adv_tally.timeouts += 1;
                    return;
                }
                // The proxy opens the onward connection. An adversarial
                // proxy may instead forge an immediate answer (§8: it sees
                // the SYNs, so it can forge SYN-ACKs without guessing
                // sequence numbers).
                if self.faults.forges_synack(here) {
                    self.send(
                        at,
                        packet.probe,
                        here,
                        packet.src,
                        PacketKind::TunnelConnectDone { refused: false },
                    );
                } else {
                    self.send(at, packet.probe, here, target, PacketKind::TcpSyn { port });
                    // Remember where to relay the answer: the engine keys
                    // relays by probe id — the onward SYN keeps the probe
                    // id, and when its answer arrives back here we relay.
                    // (Stored implicitly: the SYN's src is this proxy, so
                    // the SYN-ACK is delivered here and matched below.)
                    self.relay_targets.push((packet.probe, here, packet.src));
                }
            }
            PacketKind::TcpSynAck | PacketKind::TcpRst => {
                let refused = packet.kind == PacketKind::TcpRst;
                // Is this the return half of a proxied connection?
                if let Some(idx) = self
                    .relay_targets
                    .iter()
                    .position(|&(p, proxy, _)| p == packet.probe && proxy == here)
                {
                    let (_, _, client) = self.relay_targets.swap_remove(idx);
                    // Relaying the answer down the tunnel costs another
                    // VPN forwarding step.
                    let mut at =
                        at + SimDuration::from_ms(self.model.vpn_forward_draw_ms(self.rng));
                    // Adversary tactic (a): hold this landmark's reply so
                    // the client's observed RTT matches the distance from
                    // a faked coordinate (`packet.src` is the landmark
                    // that answered the onward SYN).
                    if let Some(adv) = self.adversary {
                        let hold = adv.hold_ms(here, packet.src);
                        if hold > 0.0 {
                            self.adv_tally.held_replies += 1;
                            at = at + SimDuration::from_ms(hold);
                        }
                    }
                    self.send(
                        at,
                        packet.probe,
                        here,
                        client,
                        PacketKind::TunnelConnectDone { refused },
                    );
                } else {
                    self.complete(packet.probe, here, at, packet.kind);
                }
            }
            PacketKind::TunnelSelfPing => {
                // Leg 2: the proxy routes the tunnel-addressed ping back
                // down to the client.
                self.send(
                    at,
                    packet.probe,
                    here,
                    packet.src,
                    PacketKind::TunnelSelfPingEcho,
                );
            }
            PacketKind::TunnelSelfPingEcho => {
                // Leg 3: the client's tunnel interface answers, up again.
                self.send(
                    at,
                    packet.probe,
                    here,
                    packet.src,
                    PacketKind::TunnelSelfPingReply,
                );
            }
            PacketKind::TunnelSelfPingReply => {
                // Leg 4: proxy relays the reply down to the client.
                self.send(
                    at,
                    packet.probe,
                    here,
                    packet.src,
                    PacketKind::TunnelSelfPingDone,
                );
            }
            PacketKind::EchoReply
            | PacketKind::TimeExceeded { .. }
            | PacketKind::TunnelConnectDone { .. }
            | PacketKind::TunnelSelfPingDone => {
                self.complete(packet.probe, here, at, packet.kind);
            }
        }
    }

    fn complete(&mut self, probe: ProbeId, at_node: NodeId, at: SimTime, reply: PacketKind) {
        // Only the probe's originator completes it; stray deliveries
        // (e.g. time-exceeded racing a reply) keep the first completion.
        let is_originator = self
            .originators
            .iter()
            .any(|&(p, n)| p == probe && n == at_node);
        if !is_originator {
            return;
        }
        if self.outcomes.iter().any(|(p, _)| *p == probe) {
            return;
        }
        self.outcomes
            .push((probe, ProbeOutcome::Completed { at, reply }));
    }
}

// --- The reference facade ----------------------------------------------

/// One queueing draw, in ms, as `DelayModel::queue_draw_ms` drew it
/// before its split: a lognormal base, the spike coin, and a Pareto
/// spike when it lands, scaled by the congestion factor.
fn queue_draw_ms<R: Rng + ?Sized>(model: &DelayModel, congestion: f64, rng: &mut R) -> f64 {
    let base = sampling::lognormal(rng, model.queue_mu_log, model.queue_sigma_log);
    let spike = if sampling::coin(rng, model.spike_probability * congestion.min(3.0)) {
        sampling::pareto(rng, model.spike_scale_ms, model.spike_shape)
    } else {
        0.0
    };
    (base + spike) * congestion
}

/// The `Network` facade as it drove the reference engine: one engine per
/// probe, telemetry folded in afterwards.
struct Reference {
    topo: Topology,
    router: Router,
    model: DelayModel,
    faults: FaultPlan,
    adversary: AdversaryPlan,
    rng: StdRng,
    now: SimTime,
    probe_timeout: SimDuration,
    obs: Recorder,
}

impl Reference {
    /// The reference twin of `net` as it stands, its RNG seeded like a
    /// `Network` built or forked with `seed`.
    fn twin(net: &Network, seed: u64, obs: Recorder) -> Reference {
        Reference {
            topo: net.topology().clone(),
            router: Router::new(),
            model: net.delay_model().clone(),
            faults: net.faults().clone(),
            adversary: net.adversary().clone(),
            rng: StdRng::seed_from_u64(seed),
            now: net.now(),
            probe_timeout: SimDuration::from_ms(DEFAULT_PROBE_TIMEOUT_MS),
            obs,
        }
    }

    fn run_probe(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: PacketKind,
        ttl: Option<u32>,
    ) -> Option<(SimDuration, PacketKind)> {
        let start = self.now;
        let kind_label = kind.label();
        let tunnel_target = match kind {
            PacketKind::TunnelConnect { target, .. } => Some(target),
            _ => None,
        };
        let mut engine = Engine::new(
            &self.topo,
            &self.router,
            &self.model,
            &self.faults,
            &mut self.rng,
        );
        engine.set_adversary(&self.adversary);
        let Some(probe) = engine.inject(start, src, dst, kind, ttl) else {
            self.obs.count("net.probe.unroutable", 1);
            return None;
        };
        let outcomes = engine.run();
        let losses = engine.losses();
        let adv_tally = engine.adversary_tally();
        drop(engine);
        self.obs.count("net.probe.sent", 1);
        self.record_losses(&losses);
        self.record_adversary(&adv_tally);
        match outcomes.into_iter().find(|(p, _)| *p == probe) {
            Some((_, ProbeOutcome::Completed { at, reply })) => {
                self.now = at;
                let mut rtt = at.since(start);
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
                        let mut fields = vec![
                            ("src", src.into()),
                            ("dst", dst.into()),
                            ("kind", kind_label.into()),
                            ("reply", reply.label().into()),
                            ("rtt_ns", rtt.as_nanos().into()),
                        ];
                        if let Some(t) = tunnel_target {
                            fields.push(("target", t.into()));
                        }
                        self.obs.event("netsim", "probe", fields);
                    }
                }
                Some((rtt, reply))
            }
            _ => {
                self.now = start + self.probe_timeout;
                if self.obs.counters_enabled() {
                    self.obs.count("net.probe.timeout", 1);
                    if self.obs.events_enabled() {
                        self.obs.set_now_ns(self.now.as_nanos());
                        let mut fields = vec![
                            ("src", src.into()),
                            ("dst", dst.into()),
                            ("kind", kind_label.into()),
                            ("cause", losses.dominant().unwrap_or("unanswered").into()),
                        ];
                        if let Some(t) = tunnel_target {
                            fields.push(("target", t.into()));
                        }
                        self.obs.event("netsim", "probe_timeout", fields);
                    }
                }
                None
            }
        }
    }

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

    fn now(&self) -> SimTime {
        self.now
    }

    fn recorder(&self) -> &Recorder {
        &self.obs
    }

    fn advance(&mut self, d: SimDuration) {
        self.now = self.now + d;
    }

    fn ping(&mut self, client: NodeId, target: NodeId) -> Option<SimDuration> {
        match self.run_probe(client, target, PacketKind::EchoRequest, None)? {
            (rtt, PacketKind::EchoReply) => Some(rtt),
            _ => None,
        }
    }

    fn tcp_connect_rtt(
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

    fn tcp_connect_via_proxy_rtt(
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

    fn self_ping_via_proxy_rtt(&mut self, client: NodeId, proxy: NodeId) -> Option<SimDuration> {
        match self.run_probe(client, proxy, PacketKind::TunnelSelfPing, None)? {
            (rtt, PacketKind::TunnelSelfPingDone) => Some(rtt),
            _ => None,
        }
    }

    fn traceroute(&mut self, client: NodeId, target: NodeId, max_ttl: u32) -> Vec<Option<NodeId>> {
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

    fn trace_tcp_connect(
        &mut self,
        client: NodeId,
        target: NodeId,
        port: u16,
    ) -> (Vec<TraceEvent>, Option<SimDuration>) {
        let start = self.now;
        let mut engine = Engine::new(
            &self.topo,
            &self.router,
            &self.model,
            &self.faults,
            &mut self.rng,
        );
        engine.set_adversary(&self.adversary);
        engine.enable_trace();
        let Some(probe) = engine.inject(start, client, target, PacketKind::TcpSyn { port }, None)
        else {
            return (Vec::new(), None);
        };
        let outcomes = engine.run();
        let trace = engine.take_trace();
        let rtt = outcomes
            .into_iter()
            .find(|(p, _)| *p == probe)
            .and_then(|(_, o)| match o {
                ProbeOutcome::Completed { at, .. } => Some(at.since(start)),
                ProbeOutcome::TimedOut => None,
            });
        self.now = match rtt {
            Some(d) => start + d,
            None => start + self.probe_timeout,
        };
        (trace, rtt)
    }

    fn sample_rtt_ms(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        self.min_of_n_rtt_ms(src, dst, 1)
    }

    /// The closed form as it was: the node path, its links found by
    /// scanning neighbours, queueing drawn at each intermediate node,
    /// and every one of the `n` round trips summed in full.
    fn min_of_n_rtt_ms(&mut self, src: NodeId, dst: NodeId, n: usize) -> Option<f64> {
        assert!(n > 0, "need at least one draw");
        let path = self.router.path(&self.topo, src, dst)?;
        if path.len() < 2 {
            return None;
        }
        let mut propagation_ms = 0.0;
        for w in path.windows(2) {
            let link = self
                .topo
                .neighbours(w[0])
                .iter()
                .find(|&&(_, n)| n == w[1])
                .map(|&(l, _)| l)
                .expect("route follows links");
            propagation_ms += self.topo.link(link).propagation_ms;
        }
        let mut one_way = || {
            let mut total = propagation_ms
                + self.model.per_hop_fixed_ms * (path.len() - 1) as f64
                + 2.0 * self.model.endpoint_ms;
            for &node in &path[1..path.len() - 1] {
                total += queue_draw_ms(&self.model, self.topo.node(node).congestion, &mut self.rng);
            }
            total
        };
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let fwd = one_way();
            let rev = one_way();
            best = best.min(fwd + rev);
        }
        Some(best)
    }
}

// --- The comparison ----------------------------------------------------

/// One measurement call, issued to both sides.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ping(NodeId, NodeId),
    Connect(NodeId, NodeId, u16),
    Tunnel(NodeId, NodeId, NodeId, u16),
    SelfPing(NodeId, NodeId),
    Traceroute(NodeId, NodeId, u32),
    Trace(NodeId, NodeId, u16),
    Advance(u64),
}

/// What one call returned, with RTTs as exact nanoseconds.
#[derive(Debug, PartialEq)]
enum Reading {
    Rtt(Option<u64>),
    Hops(Vec<Option<NodeId>>),
    Trace(Vec<TraceEvent>, Option<u64>),
    Nothing,
}

/// Issue `op` to a `Network` or a `Reference` (same method names).
macro_rules! apply {
    ($net:expr, $op:expr) => {{
        let net = $net;
        let nanos = |d: Option<SimDuration>| d.map(|d| d.as_nanos());
        match $op {
            Op::Ping(a, b) => Reading::Rtt(nanos(net.ping(a, b))),
            Op::Connect(a, b, port) => Reading::Rtt(nanos(net.tcp_connect_rtt(a, b, port))),
            Op::Tunnel(c, p, t, port) => {
                Reading::Rtt(nanos(net.tcp_connect_via_proxy_rtt(c, p, t, port)))
            }
            Op::SelfPing(c, p) => Reading::Rtt(nanos(net.self_ping_via_proxy_rtt(c, p))),
            Op::Traceroute(a, b, max_ttl) => Reading::Hops(net.traceroute(a, b, max_ttl)),
            Op::Trace(a, b, port) => {
                let (trace, rtt) = net.trace_tcp_connect(a, b, port);
                Reading::Trace(trace, nanos(rtt))
            }
            Op::Advance(us) => {
                net.advance(SimDuration::from_us(us as f64));
                Reading::Nothing
            }
        }
    }};
}

/// Run `ops` on `net` and on its reference twin, comparing after every
/// op; between ops, a closed-form draw over `(a, b)` checks that both
/// RNG streams are still aligned. Returns how many probes completed.
fn replay(
    net: &mut Network,
    reference: &mut Reference,
    ops: &[Op],
    (a, b): (NodeId, NodeId),
) -> usize {
    let mut completed = 0;
    for (i, &op) in ops.iter().enumerate() {
        let got = apply!(&mut *net, op);
        let want = apply!(&mut *reference, op);
        assert_eq!(got, want, "op {i} {op:?}");
        assert_eq!(net.now(), reference.now(), "clock after op {i} {op:?}");
        assert_eq!(
            net.recorder().counters(),
            reference.recorder().counters(),
            "counters after op {i} {op:?}"
        );
        let draw = |x: Option<f64>| x.map(f64::to_bits);
        assert_eq!(
            draw(net.sample_rtt_ms(a, b)),
            draw(reference.sample_rtt_ms(a, b)),
            "RNG streams diverged at op {i} {op:?}"
        );
        completed += usize::from(matches!(got, Reading::Rtt(Some(_))));
    }
    assert_eq!(
        net.recorder().render_deterministic(),
        reference.recorder().render_deterministic()
    );
    assert_eq!(
        net.recorder().events_jsonl(),
        reference.recorder().events_jsonl()
    );
    completed
}

/// Link delays and congestion factors the random worlds draw from.
const DELAYS_MS: [f64; 5] = [0.0, 0.1, 0.4, 2.5, 11.0];
const CONGESTION: [f64; 4] = [0.5, 1.0, 2.2, 5.0];

/// A random world: a backbone of `core` routers (some with a pendant
/// gateway or a chain of them), hosts with every filtering policy, a
/// router that suppresses time-exceeded, an unreachable host, and,
/// when `long` is set, a 70-router chain that outlasts the default TTL.
fn random_world(seed: u64, core: usize, hosts: usize, long: bool) -> (Topology, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::new();
    let node = |topo: &mut Topology, kind, rng: &mut StdRng| {
        let mut n = plain_node(kind, geokit::GeoPoint::new(0.0, 0.0));
        n.congestion = CONGESTION[rng.random_range(0..CONGESTION.len())];
        n.policy.drop_time_exceeded = rng.random_bool(0.2);
        topo.add_node(n)
    };
    let link = |topo: &mut Topology, a, b, rng: &mut StdRng| {
        topo.add_link(a, b, DELAYS_MS[rng.random_range(0..DELAYS_MS.len())]);
    };
    let backbone: Vec<NodeId> = (0..core)
        .map(|_| node(&mut topo, NodeKind::Ixp, &mut rng))
        .collect();
    for i in 1..core {
        let j = rng.random_range(0..i);
        link(&mut topo, backbone[i], backbone[j], &mut rng);
    }
    for _ in 0..core {
        let (i, j) = (rng.random_range(0..core), rng.random_range(0..core));
        if i != j {
            link(&mut topo, backbone[i], backbone[j], &mut rng);
        }
    }
    let mut routers = backbone.clone();
    if long {
        let mut end = backbone[0];
        for _ in 0..70 {
            let next = node(&mut topo, NodeKind::Ixp, &mut rng);
            link(&mut topo, next, end, &mut rng);
            end = next;
        }
        routers.push(end);
    }
    let mut host_ids = Vec::new();
    for _ in 0..hosts {
        let mut attach = routers[rng.random_range(0..routers.len())];
        if rng.random_bool(0.3) {
            let gateway = node(&mut topo, NodeKind::Ixp, &mut rng);
            link(&mut topo, gateway, attach, &mut rng);
            attach = gateway;
        }
        let host = node(&mut topo, NodeKind::Host, &mut rng);
        topo.node_mut(host).policy = match rng.random_range(0..5u32) {
            0 => FilterPolicy::default(),
            1 => FilterPolicy::vpn_server(),
            2 => FilterPolicy::landmark(true),
            3 => FilterPolicy::landmark(false),
            _ => FilterPolicy {
                filtered_tcp_ports: vec![80],
                ..FilterPolicy::default()
            },
        };
        link(&mut topo, host, attach, &mut rng);
        host_ids.push(host);
    }
    host_ids.push(node(&mut topo, NodeKind::Host, &mut rng));
    (topo, host_ids)
}

/// Random faults and adversary tactics over `net`'s world.
fn arm_randomly(net: &mut Network, seed: u64, hosts: &[NodeId]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = net.topology().num_nodes() as NodeId;
    let host = |rng: &mut StdRng| hosts[rng.random_range(0..hosts.len())];
    let faults = net.faults_mut();
    faults.set_drop_chance([0.0, 0.0, 0.02, 0.2][rng.random_range(0..4usize)]);
    for _ in 0..rng.random_range(0..4u32) {
        let start = SimTime::ZERO + SimDuration::from_ms(rng.random_range(0.0..20_000.0));
        faults.add_permanent_outage(rng.random_range(0..nodes), start);
    }
    for _ in 0..rng.random_range(0..3u32) {
        let jitter = [0.0, 0.7][rng.random_range(0..2usize)];
        faults.set_added_delay(
            rng.random_range(0..nodes),
            rng.random_range(0.0..4.0),
            jitter,
        );
    }
    if rng.random_bool(0.3) {
        faults.set_forge_synack(host(&mut rng), true);
    }
    let adversary = net.adversary_mut();
    for _ in 0..rng.random_range(0..3u32) {
        let tactic = adversary.tactic_mut(host(&mut rng));
        for _ in 0..3 {
            match rng.random_range(0..4u32) {
                0 => tactic.hold_reply(host(&mut rng), rng.random_range(0.0..30.0)),
                1 => tactic.timeout_landmark(host(&mut rng)),
                2 => tactic.inflate_self_ping(rng.random_range(0.0..10.0)),
                _ => tactic.add_colluder(host(&mut rng), rng.random_range(0.1..1.0)),
            };
        }
    }
}

/// Random ops, mostly between hosts, sometimes from or to a router or
/// from a node to itself.
fn random_ops(seed: u64, n: usize, hosts: &[NodeId], nodes: u32) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pick = |rng: &mut StdRng| {
        if rng.random_bool(0.85) {
            hosts[rng.random_range(0..hosts.len())]
        } else {
            rng.random_range(0..nodes)
        }
    };
    let port = |rng: &mut StdRng| [80, 443, 1194, 22][rng.random_range(0..4usize)];
    (0..n)
        .map(|_| {
            let (a, b, c) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            match rng.random_range(0..11u32) {
                0 => Op::Ping(a, b),
                1 | 2 => Op::Connect(a, b, port(&mut rng)),
                3..=5 => Op::Tunnel(a, b, c, port(&mut rng)),
                6 => Op::SelfPing(a, b),
                7 => Op::Traceroute(a, b, rng.random_range(1..8u32)),
                8 => Op::Traceroute(a, b, 1),
                9 => Op::Trace(a, b, port(&mut rng)),
                _ => Op::Advance(rng.random_range(0..3_000_000u64)),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_walk_matches_the_event_engine_on_random_worlds(
        seed in 0u64..u64::MAX,
        core in 1usize..8,
        hosts in 2usize..9,
        long in 0u8..2,
    ) {
        let (topo, host_ids) = random_world(seed, core, hosts, long == 1);
        let nodes = topo.num_nodes() as u32;
        let mut net = Network::new(topo, seed ^ 0x5eed);
        arm_randomly(&mut net, seed ^ 0xfa17, &host_ids);
        net.set_recorder(Recorder::new(Level::Events));
        let mut reference = Reference::twin(&net, seed ^ 0x5eed, Recorder::new(Level::Events));
        let ops = random_ops(seed ^ 0x0b5, 48, &host_ids, nodes);
        replay(&mut net, &mut reference, &ops, (host_ids[0], host_ids[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_bounded_minimum_matches_the_plain_loop_on_random_worlds(
        seed in 0u64..u64::MAX,
        core in 1usize..8,
        hosts in 2usize..9,
        long in 0u8..2,
        spiky in 0u8..2,
        calls in prop::collection::vec((0usize..1024, 0usize..1024, 1usize..65), 1..10),
    ) {
        // Congestion 0.5 to 5 and zero-delay links come with the world;
        // the spiky model lands a spike on a third of its draws.
        let (topo, host_ids) = random_world(seed, core, hosts, long == 1);
        let nodes = topo.num_nodes();
        let model = if spiky == 1 {
            DelayModel {
                spike_probability: 0.3,
                ..DelayModel::default()
            }
        } else {
            DelayModel::default()
        };
        let mut net = Network::with_model(topo, model, seed ^ 0x5eed);
        let mut reference = Reference::twin(&net, seed ^ 0x5eed, Recorder::off());
        // Mostly hosts, now and then any node: a router, the unreachable
        // host, or a node and itself.
        let pick = |k: usize| {
            if k.is_multiple_of(4) {
                (k / 4 % nodes) as NodeId
            } else {
                host_ids[k % host_ids.len()]
            }
        };
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        for (i, &(a, b, n)) in calls.iter().enumerate() {
            let (a, b) = (pick(a), pick(b));
            prop_assert_eq!(
                bits(net.min_of_n_rtt_ms(a, b, n)),
                bits(reference.min_of_n_rtt_ms(a, b, n)),
                "call {} ({} -> {}, n = {})", i, a, b, n
            );
            // The RNG's next draws.
            let (c, d) = (host_ids[0], host_ids[1]);
            prop_assert_eq!(
                bits(net.sample_rtt_ms(c, d)),
                bits(reference.sample_rtt_ms(c, d)),
                "RNG streams diverged after call {}", i
            );
        }
    }
}

/// The audit's probe kinds for `proxy`: the tunnel's establishment
/// (direct pings and self-pings), tunnelled connects to `landmarks` on
/// both ports, and direct connects and pings to them.
fn audit_ops(client: NodeId, proxy: NodeId, landmarks: &[NodeId]) -> Vec<Op> {
    let mut ops = vec![
        Op::Ping(client, proxy),
        Op::SelfPing(client, proxy),
        Op::SelfPing(client, proxy),
    ];
    for &lm in landmarks {
        ops.extend([
            Op::Tunnel(client, proxy, lm, 80),
            Op::Tunnel(client, proxy, lm, 80),
            Op::Tunnel(client, proxy, lm, 443),
            Op::Connect(client, lm, 80),
            Op::Ping(client, lm),
        ]);
    }
    ops
}

/// Replay the audit's probe kinds through forks of `study`'s network for
/// every `stride`-th proxy of its fleet; returns the completed probes.
fn replay_fleet_slice(study: &Study, stride: usize) -> usize {
    let net = study.world.network();
    let landmarks: Vec<NodeId> = study
        .constellation
        .landmarks()
        .iter()
        .step_by(17)
        .map(|lm| lm.node)
        .collect();
    let mut completed = 0;
    for (i, proxy) in study.providers.proxies.iter().enumerate().step_by(stride) {
        let seed = 0xa0d17 ^ i as u64;
        let mut fork = net.fork(seed);
        fork.set_recorder(Recorder::new(Level::Events));
        let mut reference = Reference::twin(&fork, seed, Recorder::new(Level::Events));
        let ops = audit_ops(study.client, proxy.node, &landmarks);
        completed += replay(&mut fork, &mut reference, &ops, (study.client, proxy.node));
    }
    completed
}

#[test]
#[ignore = "builds the paper world: run in release with --ignored, as ci.sh does"]
fn the_walk_matches_the_event_engine_on_the_paper_fleet() {
    let mut study = Study::build(StudyConfig::paper());
    assert_eq!(study.providers.proxies.len(), 2269);
    let clean = replay_fleet_slice(&study, 11);
    // The hostile network: probe loss, every tenth landmark dark, and
    // the lying proxies shaping their timing with every tactic.
    let (plan, targets) = shaping_plan(&study, AdversaryModel::FullShaping, 0.66);
    assert!(!targets.is_empty());
    let net = study.world.network_mut();
    let t0 = net.now();
    for lm in study.constellation.landmarks().iter().step_by(10) {
        net.faults_mut().add_permanent_outage(lm.node, t0);
    }
    net.faults_mut().set_drop_chance(0.01);
    *net.adversary_mut() = plan;
    let hostile = replay_fleet_slice(&study, 11);
    assert!(
        clean > hostile && hostile > 0,
        "clean {clean}, hostile {hostile}"
    );
}

#[test]
#[ignore = "builds the paper world: run in release with --ignored, as ci.sh does"]
fn the_bounded_mesh_matches_the_plain_loop_at_paper_scale() {
    let study = Study::build(StudyConfig::paper());
    let seed = 0xca11b;
    let mut net = study.world.network().fork(seed);
    let mut reference = Reference::twin(&net, seed, Recorder::off());
    let mesh = CalibrationDb::collect(&mut net, &study.constellation, 40);
    let anchors = study.constellation.anchors();
    let bits = |(d, t): (f64, f64)| (d.to_bits(), t.to_bits());
    let mut points = 0;
    for (i, a) in anchors.iter().enumerate() {
        let want: Vec<(u64, u64)> = anchors
            .iter()
            .filter(|b| b.node != a.node)
            .filter_map(|b| {
                let rtt = reference.min_of_n_rtt_ms(a.node, b.node, 40)?;
                Some(bits((a.location.distance_km(&b.location), rtt / 2.0)))
            })
            .collect();
        let got: Vec<(u64, u64)> = mesh
            .for_anchor(i)
            .points()
            .iter()
            .copied()
            .map(bits)
            .collect();
        assert_eq!(got, want, "anchor {i}");
        points += got.len();
    }
    assert_eq!(points, 250 * 249);
    // The work budget: each pair's minimum takes one transformed round
    // trip, and a few pairs a second (72,470 in all). Transforming every
    // round trip that may lower the running minimum takes about 278,000,
    // so the budget fails a rule that does so even when the bits match.
    let work = net.round_trip_work();
    assert_eq!(work.drawn, 40 * 250 * 249);
    assert!(work.transformed <= 80_000, "{work:?}");
    // The RNG's next draws.
    let (a, b) = (anchors[0].node, anchors[1].node);
    for _ in 0..4 {
        assert_eq!(
            net.sample_rtt_ms(a, b).map(f64::to_bits),
            reference.sample_rtt_ms(a, b).map(f64::to_bits)
        );
    }
}
