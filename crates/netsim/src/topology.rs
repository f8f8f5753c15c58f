//! Network topology: nodes (routers, IXPs, hosts), links, adjacency.
//!
//! The topology is a flat graph. By convention (enforced by `WorldNet`):
//! backbone nodes (routers/IXPs) interconnect freely; a host has exactly
//! one access link to a backbone node. Routing accepts any graph, and
//! routes this shape cheaply (see [`crate::routing`]).

use crate::policy::FilterPolicy;
use geokit::GeoPoint;

/// Index of a node in the topology.
pub type NodeId = u32;

/// Index of a link in the topology.
pub type LinkId = u32;

/// What role a node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An interconnection point / core router (backbone).
    Ixp,
    /// An end host: landmark, proxy, client, crowdsourced volunteer.
    Host,
}

/// A node in the network.
#[derive(Debug, Clone)]
pub struct Node {
    /// Role.
    pub kind: NodeKind,
    /// Physical location (drives propagation delay).
    pub location: GeoPoint,
    /// Autonomous system number (0 = unassigned). Hosts inherit their
    /// attachment's AS unless the builder sets one (proxies get provider
    /// ASes for the Fig. 16 metadata analysis).
    pub as_number: u32,
    /// Synthetic IPv4 address (0 = unassigned); /24 grouping of proxies in
    /// the same rack is part of the metadata disambiguation story.
    pub ip: u32,
    /// Packet filtering behaviour.
    pub policy: FilterPolicy,
    /// Per-visit queueing scale factor (regional congestion): multiplies
    /// the delay model's queueing draws at this node.
    pub congestion: f64,
}

/// A bidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// One-way propagation delay contribution in milliseconds — already
    /// includes the cable's geographic circuitousness (cable length ≥
    /// great-circle distance between endpoints).
    pub propagation_ms: f64,
}

/// The network graph.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[node] = list of (link, neighbour).
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a bidirectional link between two existing nodes.
    ///
    /// # Panics
    /// Panics on self-loops, unknown endpoints, or a non-finite/negative
    /// propagation delay.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, propagation_ms: f64) -> LinkId {
        assert!(a != b, "self-loop at node {a}");
        assert!(
            (a as usize) < self.nodes.len() && (b as usize) < self.nodes.len(),
            "link endpoint out of range"
        );
        assert!(
            propagation_ms.is_finite() && propagation_ms >= 0.0,
            "bad propagation delay {propagation_ms}"
        );
        let id = self.links.len() as LinkId;
        self.links.push(Link {
            a,
            b,
            propagation_ms,
        });
        self.adjacency[a as usize].push((id, b));
        self.adjacency[b as usize].push((id, a));
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Mutable node accessor (used to install policies after construction).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id as usize]
    }

    /// Neighbours of a node: (link, neighbour) pairs.
    pub fn neighbours(&self, id: NodeId) -> &[(LinkId, NodeId)] {
        &self.adjacency[id as usize]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len() as NodeId
    }
}

/// Convenience constructor for a plain node.
pub fn plain_node(kind: NodeKind, location: GeoPoint) -> Node {
    Node {
        kind,
        location,
        as_number: 0,
        ip: 0,
        policy: FilterPolicy::default(),
        congestion: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    #[test]
    fn build_small_graph() {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let b = t.add_node(plain_node(NodeKind::Ixp, p(10.0, 10.0)));
        let h = t.add_node(plain_node(NodeKind::Host, p(0.1, 0.1)));
        t.add_link(a, b, 8.0);
        t.add_link(h, a, 0.5);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.neighbours(a).len(), 2);
        assert_eq!(t.neighbours(h), &[(1, a)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        t.add_link(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        t.add_link(a, 99, 1.0);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let b = t.add_node(plain_node(NodeKind::Ixp, p(1.0, 1.0)));
        let l = t.add_link(a, b, 1.0);
        assert!(t.neighbours(a).contains(&(l, b)));
        assert!(t.neighbours(b).contains(&(l, a)));
    }
}
