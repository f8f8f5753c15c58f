//! The delay model: how long a packet takes to traverse links and routers.
//!
//! One-way delay along a path decomposes as
//!
//! ```text
//!   Σ_links  propagation (cable length / 200 km·ms⁻¹)      — deterministic
//! + Σ_links  serialization / per-hop processing             — small, fixed
//! + Σ_nodes  queueing draw × node congestion factor         — stochastic
//! + endpoint stack latency                                  — small
//! ```
//!
//! The queueing draw is lognormal (usually tens of microseconds) with a
//! rare Pareto spike (congestion events, bufferbloat). This produces
//! exactly the scatter shape the geolocation algorithms calibrate against
//! (paper Fig. 2): a hard linear floor set by propagation, a dense band
//! just above it, and a long upper tail — and it makes *minimum*-of-many
//! measurements approach the floor, which is what CBG's bestline exploits.

use crate::topology::Topology;
use crate::{LinkId, NodeId};
use geokit::sampling;
use simrng::Rng;

/// Tunable parameters of the delay model.
#[derive(Debug, Clone)]
pub struct DelayModel {
    /// Per-hop serialization + processing, ms.
    pub per_hop_fixed_ms: f64,
    /// Lognormal queueing: log-mean (of ms).
    pub queue_mu_log: f64,
    /// Lognormal queueing: log-std.
    pub queue_sigma_log: f64,
    /// Probability of a congestion spike per node visit.
    pub spike_probability: f64,
    /// Pareto scale (minimum) of a spike, ms.
    pub spike_scale_ms: f64,
    /// Pareto shape of a spike (smaller = heavier tail).
    pub spike_shape: f64,
    /// Endpoint network-stack latency per endpoint, ms.
    pub endpoint_ms: f64,
    /// VPN forwarding overhead: lognormal log-mean of the extra
    /// processing a proxy adds per tunnelled packet it handles, ms
    /// (encryption, user-space forwarding — §5.3's "extra noise and
    /// queueing delays" for through-proxy measurements).
    pub vpn_forward_mu_log: f64,
    /// VPN forwarding overhead: lognormal log-std.
    pub vpn_forward_sigma_log: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            per_hop_fixed_ms: 0.05,
            // exp(-2.6) ≈ 0.074 ms median per-hop queueing.
            queue_mu_log: -2.6,
            queue_sigma_log: 1.0,
            spike_probability: 0.02,
            spike_scale_ms: 3.0,
            spike_shape: 1.6,
            endpoint_ms: 0.15,
            // exp(-1.0) ≈ 0.37 ms median per tunnelled packet.
            vpn_forward_mu_log: -1.0,
            vpn_forward_sigma_log: 0.6,
        }
    }
}

impl DelayModel {
    /// One VPN-forwarding overhead draw, in ms.
    pub fn vpn_forward_draw_ms<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        sampling::lognormal(rng, self.vpn_forward_mu_log, self.vpn_forward_sigma_log)
    }

    /// One queueing draw at a node with the given congestion factor, in
    /// ms.
    pub fn queue_draw_ms<R: Rng + ?Sized>(&self, congestion: f64, rng: &mut R) -> f64 {
        let base = sampling::lognormal(rng, self.queue_mu_log, self.queue_sigma_log);
        let spike = if sampling::coin(rng, self.spike_probability * congestion.min(3.0)) {
            sampling::pareto(rng, self.spike_scale_ms, self.spike_shape)
        } else {
            0.0
        };
        (base + spike) * congestion
    }

    /// Stochastic one-way delay along a routed path, in ms. Queueing is
    /// drawn at every *intermediate* node (routers forward; endpoints pay
    /// the stack cost instead).
    pub fn one_way_ms<R: Rng + ?Sized>(&self, path: &PathDelays, rng: &mut R) -> f64 {
        let mut total = path.propagation_ms
            + self.per_hop_fixed_ms * path.hops.len() as f64
            + 2.0 * self.endpoint_ms;
        for hop in path.hops.iter().skip(1) {
            total += self.queue_draw_ms(hop.congestion, rng);
        }
        total
    }

    /// The hard floor of the one-way delay for a path: propagation +
    /// fixed overheads, no queueing. No measurement can beat this.
    pub fn floor_one_way_ms(&self, path: &PathDelays) -> f64 {
        path.propagation_ms
            + self.per_hop_fixed_ms * path.hops.len() as f64
            + 2.0 * self.endpoint_ms
    }
}

/// One hop of a routed path: a node and the link it sends the packet on,
/// with the delay facts of both fixed when the route is built.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// The sending node: the path's source, then each router it crosses.
    pub node: NodeId,
    /// The link to the next node (the first of the node's links that
    /// leads there, in adjacency order).
    pub link: LinkId,
    /// That link's one-way propagation delay, ms.
    pub propagation_ms: f64,
    /// The node's queueing scale factor (`Node::congestion`).
    pub congestion: f64,
}

/// A routed path with its delay facts resolved: what the probe walk
/// crosses hop by hop and what the closed-form sampler sums.
#[derive(Debug, Clone)]
pub struct PathDelays {
    /// The source.
    pub src: NodeId,
    /// The destination.
    pub dst: NodeId,
    /// One hop per link traversed, from the source; empty for the path
    /// from a node to itself.
    pub hops: Vec<Hop>,
    /// Sum of link propagation delays, ms (one way), added in path order.
    pub propagation_ms: f64,
}

impl PathDelays {
    /// Build from an explicit node path using the topology's links.
    ///
    /// # Panics
    /// Panics if the path is empty or consecutive path nodes are not
    /// adjacent.
    pub fn from_node_path(topo: &Topology, path: &[NodeId]) -> PathDelays {
        let (&src, &dst) = path.first().zip(path.last()).expect("path needs a node");
        let mut propagation_ms = 0.0;
        let hops = path
            .windows(2)
            .map(|w| {
                let link = topo
                    .neighbours(w[0])
                    .iter()
                    .find(|&&(_, n)| n == w[1])
                    .map(|&(l, _)| l)
                    .unwrap_or_else(|| panic!("no link {} → {}", w[0], w[1]));
                let hop = Hop {
                    node: w[0],
                    link,
                    propagation_ms: topo.link(link).propagation_ms,
                    congestion: topo.node(w[0]).congestion,
                };
                propagation_ms += hop.propagation_ms;
                hop
            })
            .collect();
        PathDelays {
            src,
            dst,
            hops,
            propagation_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{plain_node, NodeKind};
    use geokit::GeoPoint;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    fn line_topology() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| {
                t.add_node(plain_node(
                    NodeKind::Ixp,
                    GeoPoint::new(0.0, f64::from(i) * 5.0),
                ))
            })
            .collect();
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], 3.0);
        }
        (t, ids)
    }

    #[test]
    fn path_delays_accumulate() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        assert_eq!((p.src, p.dst), (ids[0], ids[3]));
        assert_eq!(p.hops.len(), 3);
        assert_eq!(p.propagation_ms, 9.0);
        let senders: Vec<NodeId> = p.hops.iter().map(|h| h.node).collect();
        assert_eq!(senders, ids[..3]);
        assert_eq!(p.hops[1].link, 1);
        assert_eq!(p.hops[1].congestion, 1.0);
    }

    #[test]
    fn one_way_never_beats_floor() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        let m = DelayModel::default();
        let floor = m.floor_one_way_ms(&p);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let d = m.one_way_ms(&p, &mut rng);
            assert!(d >= floor, "{d} < floor {floor}");
        }
    }

    #[test]
    fn min_of_many_approaches_floor() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        let m = DelayModel::default();
        let floor = m.floor_one_way_ms(&p);
        let mut rng = StdRng::seed_from_u64(2);
        let min = (0..2000)
            .map(|_| m.one_way_ms(&p, &mut rng))
            .fold(f64::INFINITY, f64::min);
        // Two intermediate routers at median ~0.07 ms each: the min of
        // 2000 draws should sit within a few hundred µs of the floor.
        assert!(min - floor < 0.3, "min {min} vs floor {floor}");
    }

    #[test]
    fn delay_has_heavy_upper_tail() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        let m = DelayModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| m.one_way_ms(&p, &mut rng)).collect();
        let med = geokit::stats::median(&samples).unwrap();
        let p999 = geokit::stats::Ecdf::new(samples).quantile(0.999).unwrap();
        // The 99.9th percentile should be far above the median — the
        // congestion-spike regime.
        assert!(p999 > med + 4.0, "p999 {p999} vs median {med}");
    }

    #[test]
    fn congestion_scales_queueing() {
        let (mut t, ids) = line_topology();
        let m = DelayModel::default();
        let p = PathDelays::from_node_path(&t, &ids);
        let mut rng = StdRng::seed_from_u64(1);
        let calm: f64 = (0..4000).map(|_| m.one_way_ms(&p, &mut rng)).sum();
        for id in &ids {
            t.node_mut(*id).congestion = 5.0;
        }
        // A path's hops carry the congestion they were built with.
        let p = PathDelays::from_node_path(&t, &ids);
        let mut rng = StdRng::seed_from_u64(1);
        let congested: f64 = (0..4000).map(|_| m.one_way_ms(&p, &mut rng)).sum();
        assert!(congested > calm * 1.5, "congested {congested} calm {calm}");
    }
}
