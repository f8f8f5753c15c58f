//! Fault injection: random loss, permanent landmark outages, and
//! adversarial proxies.
//!
//! Follows the fault-injection design of event-driven network stacks
//! (random drop/delay knobs exercised by tests), plus the paper's §8
//! threat model: a hostile proxy can selectively delay packets, and —
//! because it terminates the TCP handshake it forwards — it can forge
//! early SYN-ACKs without guessing sequence numbers, shifting the
//! predicted region arbitrarily.
//!
//! The substrate failures are the two the paper's pipeline survives in
//! the wild (§4.2, §7.1):
//!
//! * **probe loss** — every forwarding node drops a packet with the
//!   same probability;
//! * **permanent outages** — a landmark that goes dark at some instant
//!   of simulation time swallows every packet it would have forwarded or
//!   answered from then on.
//!
//! Probing only reads the plan, so every fork of a network shares it.

use crate::time::SimTime;
use crate::NodeId;
use geokit::sampling;
use simrng::Rng;
use std::collections::HashMap;

/// Per-run fault configuration. Default: no faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability that any forwarding node drops a packet.
    drop_chance: f64,
    /// Per-node extra forwarding delay: (mean_ms, jitter_ms).
    added_delay: HashMap<NodeId, (f64, f64)>,
    /// Proxies that forge SYN-ACKs for tunnelled connections.
    forge_synack: HashMap<NodeId, bool>,
    /// Per node id, the first instant of its permanent outage, in
    /// absolute sim time. It reaches only as far as the highest node
    /// taken down, so a plan with no outage answers from its length.
    down_from: Vec<Option<SimTime>>,
}

impl FaultPlan {
    /// Set the global random-drop probability (clamped to `[0, 1]`).
    pub fn set_drop_chance(&mut self, p: f64) {
        self.drop_chance = p.clamp(0.0, 1.0);
    }

    /// Add a constant-plus-jitter delay at a node's forwarding path —
    /// the "selective added delay" attack of Gill et al. discussed in §8.
    pub fn set_added_delay(&mut self, node: NodeId, mean_ms: f64, jitter_ms: f64) {
        assert!(mean_ms >= 0.0 && jitter_ms >= 0.0, "negative delay");
        self.added_delay.insert(node, (mean_ms, jitter_ms));
    }

    /// Make a proxy forge immediate SYN-ACKs for tunnelled connections
    /// (the RTT-deflation attack of Abdou et al. discussed in §8).
    pub fn set_forge_synack(&mut self, proxy: NodeId, forge: bool) {
        self.forge_synack.insert(proxy, forge);
    }

    /// Take a node down permanently from `start` onwards. A node taken
    /// down more than once stays down from the earliest start.
    pub fn add_permanent_outage(&mut self, node: NodeId, start: SimTime) {
        let i = node as usize;
        if self.down_from.len() <= i {
            self.down_from.resize(i + 1, None);
        }
        let from = self.down_from[i].get_or_insert(start);
        *from = (*from).min(start);
    }

    /// Does the forwarding node drop the packet now? (Random loss is the
    /// same at every node.)
    pub fn drops_packet<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.drop_chance > 0.0 && sampling::coin(rng, self.drop_chance)
    }

    /// Is the node down at `at`?
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        matches!(self.down_from.get(node as usize), Some(&Some(from)) if from <= at)
    }

    /// Extra forwarding delay at this node, ms.
    pub fn added_delay_ms<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> f64 {
        match self.added_delay.get(&node) {
            None => 0.0,
            Some(&(mean, jitter)) => {
                if jitter > 0.0 {
                    (mean + sampling::normal(rng, 0.0, jitter)).max(0.0)
                } else {
                    mean
                }
            }
        }
    }

    /// Does this proxy forge SYN-ACKs?
    pub fn forges_synack(&self, proxy: NodeId) -> bool {
        self.forge_synack.get(&proxy).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    #[test]
    fn default_is_faultless() {
        let f = FaultPlan::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!f.drops_packet(&mut rng));
        assert_eq!(f.added_delay_ms(0, &mut rng), 0.0);
        assert!(!f.forges_synack(0));
        assert!(!f.is_down(0, SimTime::ZERO));
    }

    #[test]
    fn drop_chance_statistics() {
        let mut f = FaultPlan::default();
        f.set_drop_chance(0.25);
        let mut rng = StdRng::seed_from_u64(2);
        let drops = (0..10_000).filter(|_| f.drops_packet(&mut rng)).count();
        assert!((2200..2800).contains(&drops), "drops {drops}");
    }

    #[test]
    fn added_delay_is_nonnegative() {
        let mut f = FaultPlan::default();
        f.set_added_delay(3, 2.0, 5.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(f.added_delay_ms(3, &mut rng) >= 0.0);
        }
        assert_eq!(f.added_delay_ms(4, &mut rng), 0.0);
    }

    #[test]
    fn clamp_out_of_range_drop() {
        let mut f = FaultPlan::default();
        f.set_drop_chance(7.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(f.drops_packet(&mut rng));
    }

    #[test]
    fn outage_windows_cover_their_interval() {
        let mut f = FaultPlan::default();
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        f.add_permanent_outage(5, t(20.0));
        // The earliest start wins, whichever order the outages came in.
        f.add_permanent_outage(5, t(10.0));
        f.add_permanent_outage(5, t(15.0));
        assert!(!f.is_down(5, t(9.9)));
        assert!(f.is_down(5, t(10.0)));
        assert!(f.is_down(5, t(1e12)));
        assert!(!f.is_down(6, t(15.0)));
        // Node 0, below the one taken down, and ids past the end of the
        // plan's table.
        assert!(!f.is_down(0, t(15.0)));
        assert!(!f.is_down(6, SimTime::ZERO));
        assert!(!f.is_down(NodeId::MAX, t(1e12)));
        f.add_permanent_outage(0, SimTime::ZERO);
        assert!(f.is_down(0, SimTime::ZERO));
        assert!(!f.is_down(4, t(1e12)));
        assert!(f.is_down(5, t(10.0)));
    }
}
