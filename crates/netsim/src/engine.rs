//! The probe walk: one packet in flight, hop by hop along routed paths.
//!
//! A probe is a chain of legs. Each leg carries one packet from a sender
//! to a receiver along the routed path between them; every hop costs
//! link propagation plus a queueing draw at the forwarding node (the same
//! distributions the closed-form sampler uses). At the receiver, the
//! packet kind's delivery rule yields the next leg, a completion, or
//! silence. Endpoints implement the protocol semantics the paper's
//! measurement methods depend on:
//!
//! * **ICMP echo** — answered unless the target's policy drops it (as 90 %
//!   of VPN servers do, §4.2);
//! * **TTL expiry** — emits time-exceeded from the expiring router unless
//!   that router's policy suppresses it (breaking traceroute, §4.2);
//! * **TCP SYN** — SYN-ACK (open), RST (closed: still one measurable
//!   round trip, §4.2), or silence (filtered);
//! * **VPN tunnel forwarding** — a proxy forwards an encapsulated SYN to
//!   the landmark and relays the answer back, so the client observes
//!   RTT(client↔proxy) + RTT(proxy↔landmark);
//! * **tunnel self-ping** — a ping from the client to its own tunnel
//!   address crosses the tunnel twice (≈ 2 × RTT(client↔proxy)), the
//!   Castelluccia-style trick the paper uses to cancel the client↔proxy
//!   leg (§5.3, Fig. 12/13).
//!
//! Every rule sends at most one packet, so a probe never has more than
//! one packet in flight and needs no event queue: the walk follows the
//! packet until it completes or vanishes. Determinism comes from the
//! seeded RNG, drawn in a fixed order along the walk.

use crate::adversary::{AdversaryPlan, AdversaryTally};
use crate::delay::{DelayModel, PathDelays};
use crate::fault::FaultPlan;
use crate::policy::SynResponse;
use crate::routing::Routes;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::NodeId;
use simrng::Rng;

/// The TTL every packet starts with unless the probe sets its own.
const DEFAULT_TTL: u32 = 64;

/// What kind of packet is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// ICMP echo request.
    EchoRequest,
    /// ICMP echo reply.
    EchoReply,
    /// ICMP time-exceeded, emitted by `router`.
    TimeExceeded {
        /// The router where the TTL expired.
        router: NodeId,
    },
    /// TCP SYN to `port`.
    TcpSyn {
        /// Destination port.
        port: u16,
    },
    /// TCP SYN-ACK (connection accepted).
    TcpSynAck,
    /// TCP RST (connection refused).
    TcpRst,
    /// Client→proxy: please open a TCP connection to `target`:`port`.
    TunnelConnect {
        /// Final destination of the proxied connection.
        target: NodeId,
        /// Destination port.
        port: u16,
    },
    /// Proxy→client: the proxied connection completed (`refused` = RST).
    TunnelConnectDone {
        /// True if the landmark refused (RST) rather than accepted.
        refused: bool,
    },
    /// Client→proxy: ping my own tunnel address (leg 1 of 4).
    TunnelSelfPing,
    /// Proxy→client: the self-ping comes back down the tunnel (leg 2).
    TunnelSelfPingEcho,
    /// Client→proxy: tunnel endpoint replies (leg 3).
    TunnelSelfPingReply,
    /// Proxy→client: reply relayed, self-ping complete (leg 4).
    TunnelSelfPingDone,
}

impl PacketKind {
    /// Short static label for telemetry (one per wire kind).
    pub fn label(&self) -> &'static str {
        match self {
            PacketKind::EchoRequest => "echo",
            PacketKind::EchoReply => "echo_reply",
            PacketKind::TimeExceeded { .. } => "time_exceeded",
            PacketKind::TcpSyn { .. } => "syn",
            PacketKind::TcpSynAck => "syn_ack",
            PacketKind::TcpRst => "rst",
            PacketKind::TunnelConnect { .. } => "tunnel_connect",
            PacketKind::TunnelConnectDone { .. } => "tunnel_connect_done",
            PacketKind::TunnelSelfPing => "self_ping",
            PacketKind::TunnelSelfPingEcho => "self_ping_echo",
            PacketKind::TunnelSelfPingReply => "self_ping_reply",
            PacketKind::TunnelSelfPingDone => "self_ping_done",
        }
    }
}

/// Why packets in one probe were swallowed, by cause. The walk tallies
/// causes as they happen; the [`Network`](crate::Network) facade turns
/// the tally into observability counters/events after the probe, so the
/// hot loop never touches a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossTally {
    /// Swallowed by a node in an outage (forwarding or delivery).
    pub outage: u32,
    /// Per-node random loss.
    pub random_drop: u32,
    /// Silently dropped by the destination's filter policy (ICMP
    /// filtered, SYN to a filtered port).
    pub filtered: u32,
}

impl LossTally {
    /// Total packets swallowed, all causes.
    pub fn total(&self) -> u32 {
        self.outage + self.random_drop + self.filtered
    }

    /// The most frequent cause's label, or `None` when nothing was lost
    /// (the probe vanished for a different reason, e.g. an unreachable
    /// destination).
    pub fn dominant(&self) -> Option<&'static str> {
        let causes = [
            (self.outage, "outage"),
            (self.filtered, "filtered"),
            (self.random_drop, "drop"),
        ];
        causes
            .iter()
            .filter(|&&(n, _)| n > 0)
            .max_by_key(|&&(n, _)| n)
            .map(|&(_, label)| label)
    }
}

/// How a probe finished.
#[derive(Debug, PartialEq)]
pub(crate) enum Outcome {
    /// A reply arrived at the probe's originator at the given time.
    Completed {
        /// Arrival time of the completing packet, after the receiver's
        /// stack cost.
        at: SimTime,
        /// The packet kind that completed the probe.
        reply: PacketKind,
    },
    /// No reply came back (filtered, dropped, or unreachable).
    TimedOut,
}

/// One recorded packet-trace entry: a packet arriving at a node.
/// The walk's analogue of the packet dumps event-driven network stacks
/// provide for debugging — consumed by `Network::trace_tcp_connect` and
/// the Fig. 7 harness.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival time.
    pub at: SimTime,
    /// Node the packet arrived at.
    pub node: NodeId,
    /// What arrived.
    pub kind: PacketKind,
    /// True if this node is the packet's final destination (a delivery,
    /// not a forwarding hop).
    pub delivered: bool,
}

/// One packet on its way from `src` to `dst`.
struct Leg {
    kind: PacketKind,
    src: NodeId,
    dst: NodeId,
    ttl: u32,
    /// When the packet leaves `src`: the sender has paid its stack cost.
    at: SimTime,
}

/// How a leg ended.
enum Arrival {
    /// The packet reached the leg's destination at this time.
    Delivered(SimTime),
    /// The TTL ran out at `router`, at this time.
    Expired { router: NodeId, at: SimTime },
    /// A fault swallowed the packet on the way.
    Lost,
}

/// What happens after a leg ends.
enum Step {
    /// `from` sends `kind` to `to` at `at` (before its stack cost).
    Send {
        from: NodeId,
        to: NodeId,
        kind: PacketKind,
        at: SimTime,
    },
    /// The probe is over.
    Done(Outcome),
}

/// The walk of one probe over shared network state.
pub(crate) struct Engine<'a, R: Rng> {
    topo: &'a Topology,
    model: &'a DelayModel,
    faults: &'a FaultPlan,
    /// Active-adversary hooks (targeted delay, selective timeout,
    /// self-ping padding). `None` — the common case — is equivalent to
    /// an empty plan and costs one branch per relevant packet.
    adversary: Option<&'a AdversaryPlan>,
    rng: &'a mut R,
    /// When set, every packet arrival is recorded here.
    trace: Option<&'a mut Vec<TraceEvent>>,
    /// Loss-cause tally for this probe (read by the `Network` facade).
    pub(crate) losses: LossTally,
    /// Adversary-intervention tally for this probe (read by the facade).
    pub(crate) adv_tally: AdversaryTally,
}

impl<'a, R: Rng> Engine<'a, R> {
    /// A walk over shared network state, recording every packet arrival
    /// into `trace` when given; an inactive adversary plan is the same
    /// as none.
    pub(crate) fn new(
        topo: &'a Topology,
        model: &'a DelayModel,
        faults: &'a FaultPlan,
        adversary: &'a AdversaryPlan,
        rng: &'a mut R,
        trace: Option<&'a mut Vec<TraceEvent>>,
    ) -> Engine<'a, R> {
        Engine {
            topo,
            model,
            faults,
            adversary: adversary.is_active().then_some(adversary),
            rng,
            trace,
            losses: LossTally::default(),
            adv_tally: AdversaryTally::default(),
        }
    }

    /// Send a probe from `src` to `dst` at `start` and follow it to its
    /// end, or `None` if no route leads from `src` to `dst`.
    pub(crate) fn run(
        &mut self,
        routes: &mut Routes,
        start: SimTime,
        src: NodeId,
        dst: NodeId,
        kind: PacketKind,
        ttl: Option<u32>,
    ) -> Option<Outcome> {
        // Every sender pays its network-stack cost up front (the receiver
        // pays at delivery), keeping the walk and the closed-form sampler
        // on the same per-one-way budget.
        let stack = SimDuration::from_ms(self.model.endpoint_ms);
        let mut leg = Leg {
            kind,
            src,
            dst,
            ttl: ttl.unwrap_or(DEFAULT_TTL),
            at: start + stack,
        };
        let mut route = routes.get(self.topo, src, dst)?;
        // The (proxy, client) of a tunnelled connect whose onward SYN is
        // out: the answer arriving back at the proxy goes to the client.
        let mut relay = None;
        loop {
            let step = match self.walk(route, &leg) {
                Arrival::Delivered(at) => self.deliver(at, &leg, src, &mut relay),
                Arrival::Expired { router, at }
                    if !self.topo.node(router).policy.drop_time_exceeded =>
                {
                    Step::Send {
                        from: router,
                        to: leg.src,
                        kind: PacketKind::TimeExceeded { router },
                        at,
                    }
                }
                Arrival::Expired { .. } | Arrival::Lost => return Some(Outcome::TimedOut),
            };
            let (from, to, kind, at) = match step {
                Step::Send { from, to, kind, at } => (from, to, kind, at),
                Step::Done(outcome) => return Some(outcome),
            };
            leg = Leg {
                kind,
                src: from,
                dst: to,
                ttl: DEFAULT_TTL,
                at: at + stack,
            };
            // A reply with no route back is never sent.
            route = match routes.get(self.topo, from, to) {
                Some(route) => route,
                None => return Some(Outcome::TimedOut),
            };
        }
    }

    fn record(&mut self, at: SimTime, node: NodeId, kind: PacketKind, delivered: bool) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                at,
                node,
                kind,
                delivered,
            });
        }
    }

    /// Carry the leg's packet along its route. At every forwarding node
    /// (the source included) the order of checks and draws is fixed:
    /// TTL, outage, random drop, queueing, added delay. Each hop's delay
    /// is truncated to whole nanoseconds on its own.
    fn walk(&mut self, route: &PathDelays, leg: &Leg) -> Arrival {
        let mut at = leg.at;
        let mut ttl = leg.ttl;
        for (pos, hop) in route.hops.iter().enumerate() {
            let here = hop.node;
            self.record(at, here, leg.kind, false);
            // The source sends; every later node forwards, so it checks
            // the TTL and queues.
            let forwards = pos > 0;
            if forwards {
                if ttl == 0 {
                    return Arrival::Lost;
                }
                ttl -= 1;
                if ttl == 0 {
                    return Arrival::Expired { router: here, at };
                }
            }
            if self.faults.is_down(here, at) {
                self.losses.outage += 1;
                return Arrival::Lost;
            }
            if self.faults.drops_packet(self.rng) {
                self.losses.random_drop += 1;
                return Arrival::Lost;
            }
            let queue_ms = if forwards {
                self.model.queue_draw_ms(hop.congestion, self.rng)
            } else {
                0.0
            };
            let extra = self.faults.added_delay_ms(here, self.rng);
            let hop_ms = hop.propagation_ms + self.model.per_hop_fixed_ms + queue_ms + extra;
            at = at + SimDuration::from_ms(hop_ms);
        }
        self.record(at, leg.dst, leg.kind, true);
        Arrival::Delivered(at)
    }

    /// The receiver's rule for a packet delivered at `at`: what it sends
    /// next, if anything. `origin` is the probe's originator, the only
    /// node a reply completes the probe at.
    fn deliver(
        &mut self,
        at: SimTime,
        leg: &Leg,
        origin: NodeId,
        relay: &mut Option<(NodeId, NodeId)>,
    ) -> Step {
        let here = leg.dst;
        let silence = Step::Done(Outcome::TimedOut);
        // A node in an outage swallows everything addressed to it — no
        // replies, no tunnel forwarding.
        if self.faults.is_down(here, at) {
            self.losses.outage += 1;
            return silence;
        }
        let mut at = at + SimDuration::from_ms(self.model.endpoint_ms);
        // Tunnelled packets handled by a proxy pay VPN forwarding
        // overhead (encryption, user-space forwarding): the "extra noise
        // and queueing delays" of through-proxy measurement (§5.3).
        if matches!(
            leg.kind,
            PacketKind::TunnelConnect { .. }
                | PacketKind::TunnelSelfPing
                | PacketKind::TunnelSelfPingReply
        ) {
            at = at + SimDuration::from_ms(self.model.vpn_forward_draw_ms(self.rng));
            // Adversary tactic (c): an adversarial proxy pads its own
            // self-ping legs so the client's η correction over-subtracts.
            if matches!(
                leg.kind,
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
        let reply = |kind| Step::Send {
            from: here,
            to: leg.src,
            kind,
            at,
        };
        let topo = self.topo;
        let policy = &topo.node(here).policy;
        match leg.kind {
            PacketKind::EchoRequest => {
                if policy.drop_icmp_echo {
                    self.losses.filtered += 1;
                    silence
                } else {
                    reply(PacketKind::EchoReply)
                }
            }
            PacketKind::TcpSyn { port } => match policy.syn_response(port) {
                // An adversarial proxy in the middle could have forged
                // this earlier; that is modelled at the proxy, not here.
                SynResponse::SynAck => reply(PacketKind::TcpSynAck),
                SynResponse::Rst => reply(PacketKind::TcpRst),
                SynResponse::Dropped => {
                    self.losses.filtered += 1;
                    silence
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
                    return silence;
                }
                // The proxy opens the onward connection. An adversarial
                // proxy may instead forge an immediate answer (§8: it sees
                // the SYNs, so it can forge SYN-ACKs without guessing
                // sequence numbers).
                if self.faults.forges_synack(here) {
                    reply(PacketKind::TunnelConnectDone { refused: false })
                } else {
                    // The SYN's answer comes back here, to be relayed.
                    *relay = Some((here, leg.src));
                    Step::Send {
                        from: here,
                        to: target,
                        kind: PacketKind::TcpSyn { port },
                        at,
                    }
                }
            }
            PacketKind::TcpSynAck | PacketKind::TcpRst => match *relay {
                // The return half of a proxied connection. (Nothing the
                // relayed answer leads to sends the proxy another SYN
                // answer, so the relay needs no clearing.)
                Some((proxy, client)) if proxy == here => {
                    // Relaying the answer down the tunnel costs another
                    // VPN forwarding step.
                    let mut at =
                        at + SimDuration::from_ms(self.model.vpn_forward_draw_ms(self.rng));
                    // Adversary tactic (a): hold this landmark's reply so
                    // the client's observed RTT matches the distance from
                    // a faked coordinate (`leg.src` is the landmark that
                    // answered the onward SYN).
                    if let Some(adv) = self.adversary {
                        let hold = adv.hold_ms(here, leg.src);
                        if hold > 0.0 {
                            self.adv_tally.held_replies += 1;
                            at = at + SimDuration::from_ms(hold);
                        }
                    }
                    Step::Send {
                        from: here,
                        to: client,
                        kind: PacketKind::TunnelConnectDone {
                            refused: leg.kind == PacketKind::TcpRst,
                        },
                        at,
                    }
                }
                _ => complete(here, origin, at, leg.kind),
            },
            // Leg 2: the proxy routes the tunnel-addressed ping back down
            // to the client.
            PacketKind::TunnelSelfPing => reply(PacketKind::TunnelSelfPingEcho),
            // Leg 3: the client's tunnel interface answers, up again.
            PacketKind::TunnelSelfPingEcho => reply(PacketKind::TunnelSelfPingReply),
            // Leg 4: the proxy relays the reply down to the client.
            PacketKind::TunnelSelfPingReply => reply(PacketKind::TunnelSelfPingDone),
            PacketKind::EchoReply
            | PacketKind::TimeExceeded { .. }
            | PacketKind::TunnelConnectDone { .. }
            | PacketKind::TunnelSelfPingDone => complete(here, origin, at, leg.kind),
        }
    }
}

/// A reply delivered at `here` completes the probe only at its
/// originator; anywhere else the probe ends unanswered.
fn complete(here: NodeId, origin: NodeId, at: SimTime, reply: PacketKind) -> Step {
    Step::Done(if here == origin {
        Outcome::Completed { at, reply }
    } else {
        Outcome::TimedOut
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FilterPolicy;
    use crate::topology::{plain_node, NodeKind, Topology};
    use geokit::GeoPoint;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    struct World {
        topo: Topology,
        model: DelayModel,
        faults: FaultPlan,
        client: NodeId,
        proxy: NodeId,
        landmark: NodeId,
        mid: NodeId,
    }

    /// client — A — B — landmark, proxy on B.
    fn world() -> World {
        let mut topo = Topology::new();
        let a = topo.add_node(plain_node(NodeKind::Ixp, GeoPoint::new(50.0, 8.0)));
        let b = topo.add_node(plain_node(NodeKind::Ixp, GeoPoint::new(48.0, 2.0)));
        let client = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(50.1, 8.6)));
        let proxy = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(48.8, 2.3)));
        let landmark = topo.add_node(plain_node(NodeKind::Host, GeoPoint::new(47.9, 1.9)));
        topo.add_link(a, b, 4.0);
        topo.add_link(client, a, 0.5);
        topo.add_link(proxy, b, 0.5);
        topo.add_link(landmark, b, 0.3);
        World {
            topo,
            model: DelayModel::default(),
            faults: FaultPlan::default(),
            client,
            proxy,
            landmark,
            mid: a,
        }
    }

    fn run_one(w: &World, kind: PacketKind, src: NodeId, dst: NodeId, ttl: Option<u32>) -> Outcome {
        let mut rng = StdRng::seed_from_u64(7);
        let adversary = AdversaryPlan::default();
        Engine::new(&w.topo, &w.model, &w.faults, &adversary, &mut rng, None)
            .run(&mut Routes::new(), SimTime::ZERO, src, dst, kind, ttl)
            .expect("routable")
    }

    #[test]
    fn ping_round_trip() {
        let w = world();
        match run_one(&w, PacketKind::EchoRequest, w.client, w.landmark, None) {
            Outcome::Completed { at, reply } => {
                assert_eq!(reply, PacketKind::EchoReply);
                // 2 × (0.5 + 4.0 + 0.3) = 9.6 ms propagation minimum.
                assert!(at.since(SimTime::ZERO).as_ms() >= 9.6);
                assert!(at.since(SimTime::ZERO).as_ms() < 40.0);
            }
            o => panic!("expected completion, got {o:?}"),
        }
    }

    #[test]
    fn ping_dropped_by_policy() {
        let mut w = world();
        w.topo.node_mut(w.landmark).policy = FilterPolicy::vpn_server();
        assert_eq!(
            run_one(&w, PacketKind::EchoRequest, w.client, w.landmark, None),
            Outcome::TimedOut
        );
    }

    #[test]
    fn tcp_connect_open_and_closed() {
        let w = world();
        match run_one(
            &w,
            PacketKind::TcpSyn { port: 80 },
            w.client,
            w.landmark,
            None,
        ) {
            Outcome::Completed { reply, .. } => assert_eq!(reply, PacketKind::TcpSynAck),
            o => panic!("{o:?}"),
        }
        match run_one(
            &w,
            PacketKind::TcpSyn { port: 9999 },
            w.client,
            w.landmark,
            None,
        ) {
            Outcome::Completed { reply, .. } => assert_eq!(reply, PacketKind::TcpRst),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn tcp_filtered_times_out() {
        let mut w = world();
        w.topo.node_mut(w.landmark).policy.filtered_tcp_ports = vec![80];
        assert_eq!(
            run_one(
                &w,
                PacketKind::TcpSyn { port: 80 },
                w.client,
                w.landmark,
                None
            ),
            Outcome::TimedOut
        );
    }

    #[test]
    fn ttl_expiry_yields_time_exceeded() {
        let w = world();
        match run_one(
            &w,
            PacketKind::TcpSyn { port: 80 },
            w.client,
            w.landmark,
            Some(1),
        ) {
            Outcome::Completed { reply, .. } => {
                assert_eq!(reply, PacketKind::TimeExceeded { router: w.mid });
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn ttl_expiry_suppressed() {
        let mut w = world();
        w.topo.node_mut(w.mid).policy.drop_time_exceeded = true;
        assert_eq!(
            run_one(
                &w,
                PacketKind::TcpSyn { port: 80 },
                w.client,
                w.landmark,
                Some(1)
            ),
            Outcome::TimedOut
        );
    }

    #[test]
    fn proxied_connect_sums_both_legs() {
        let w = world();
        let direct_cp = 2.0 * (0.5 + 4.0 + 0.5); // client↔proxy propagation
        let direct_pl = 2.0 * (0.5 + 0.3); // proxy↔landmark propagation
        match run_one(
            &w,
            PacketKind::TunnelConnect {
                target: w.landmark,
                port: 80,
            },
            w.client,
            w.proxy,
            None,
        ) {
            Outcome::Completed { at, reply } => {
                assert_eq!(reply, PacketKind::TunnelConnectDone { refused: false });
                let ms = at.since(SimTime::ZERO).as_ms();
                assert!(ms >= direct_cp + direct_pl, "{ms}");
                assert!(ms < direct_cp + direct_pl + 30.0, "{ms}");
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn tunnel_self_ping_is_two_client_proxy_round_trips() {
        let w = world();
        let one_rtt = 2.0 * (0.5 + 4.0 + 0.5);
        match run_one(&w, PacketKind::TunnelSelfPing, w.client, w.proxy, None) {
            Outcome::Completed { at, reply } => {
                assert_eq!(reply, PacketKind::TunnelSelfPingDone);
                let ms = at.since(SimTime::ZERO).as_ms();
                assert!(ms >= 2.0 * one_rtt, "{ms} < {}", 2.0 * one_rtt);
                assert!(ms < 2.0 * one_rtt + 40.0, "{ms}");
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn forged_synack_shortens_measurement() {
        let mut w = world();
        w.faults.set_forge_synack(w.proxy, true);
        let honest = {
            let w2 = world();
            match run_one(
                &w2,
                PacketKind::TunnelConnect {
                    target: w2.landmark,
                    port: 80,
                },
                w2.client,
                w2.proxy,
                None,
            ) {
                Outcome::Completed { at, .. } => at.since(SimTime::ZERO).as_ms(),
                o => panic!("{o:?}"),
            }
        };
        match run_one(
            &w,
            PacketKind::TunnelConnect {
                target: w.landmark,
                port: 80,
            },
            w.client,
            w.proxy,
            None,
        ) {
            Outcome::Completed { at, .. } => {
                let forged = at.since(SimTime::ZERO).as_ms();
                assert!(
                    forged < honest,
                    "forged {forged} should beat honest {honest}"
                );
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn total_drop_chance_times_out() {
        let mut w = world();
        w.faults.set_drop_chance(1.0);
        assert_eq!(
            run_one(&w, PacketKind::EchoRequest, w.client, w.landmark, None),
            Outcome::TimedOut
        );
    }
}
