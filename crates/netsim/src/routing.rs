//! Shortest-path routing over the backbone, with per-source caching.
//!
//! Routing minimizes propagation delay (real interdomain routing does not,
//! which is one source of circuitousness — we bake that circuitousness
//! into link lengths instead, keeping routing itself simple and
//! deterministic). Hosts never forward transit traffic, and ties between
//! equal-delay routes break by node id.
//!
//! Only the backbone core carries transit traffic, so the router splits
//! the topology once, on first use, into that core and its *pendants*. A
//! pendant hangs off one parent router by exactly one link, and its other
//! links, if any, lead to its own pendant children: single-homed hosts,
//! the gateway routers in front of them, and any tree of routers that
//! reaches the rest of the world through one link. A host can be a
//! pendant leaf but never a parent. A route climbs each endpoint's parent
//! chain to the core and crosses the core on a per-source Dijkstra tree
//! over core nodes only.
//!
//! The routes are exactly those of a Dijkstra over the whole graph from
//! the source (the workspace's `routing_exactness` tests compare the two
//! on every pair). A pendant can only be entered from its parent, and a
//! pendant relaxing its parent is never a strict improvement, so pendants
//! never change a core node's distance, predecessor or pop order. From a
//! pendant source, the whole-graph Dijkstra reaches the core through the
//! climb alone, at the distance the climb sums in the same order, and the
//! core tree starts from there.
//!
//! A router serves one topology: a network that edits its topology takes
//! a fresh router (see `Network::topology_mut`).
//!
//! Each measurement handle walks its routes through a `Routes` memo, which
//! keeps the few link-annotated paths it walked last. A proxy's probes
//! repeat the client↔proxy routes on every probe, and its retries repeat
//! the proxy↔landmark ones.

use crate::delay::PathDelays;
use crate::topology::{NodeKind, Topology};
use crate::NodeId;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

/// No node: the parent of a core node, the core index of a pendant, the
/// predecessor of a tree's root or of an unreachable core node.
const NONE: u32 = u32::MAX;

/// Shortest-path router with an interior-mutability cache of per-source
/// core trees (the study asks for many paths from few sources). The cache
/// is behind a `Mutex` so a built network can be shared across threads;
/// there is no lock contention in normal single-threaded use.
pub struct Router {
    /// The core/pendant split of the topology, computed on first use.
    split: OnceLock<Split>,
    /// source → predecessor (core index) of every core node on the
    /// source's core tree.
    trees: Mutex<HashMap<NodeId, Vec<u32>>>,
}

impl Router {
    /// Create a router for a topology.
    pub fn new() -> Router {
        Router {
            split: OnceLock::new(),
            trees: Mutex::new(HashMap::new()),
        }
    }

    /// The node path from `src` to `dst` (inclusive of both), or `None`
    /// if unreachable. Deterministic: ties are broken by node id.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let split = self.split.get_or_init(|| Split::new(topo));
        debug_assert_eq!(
            split.parent.len(),
            topo.num_nodes(),
            "router of another topology"
        );
        // Climb from src to its core anchor, summing link delays in the
        // order a whole-graph Dijkstra from src adds them.
        let mut path = vec![src];
        let mut anchor = src;
        let mut anchor_ms = 0.0;
        while let Some((up, ms)) = split.up(anchor) {
            anchor_ms += ms;
            anchor = up;
            path.push(up);
        }
        // Climb from dst until it meets src's climb or reaches the core;
        // `tail` holds the dst side below that point, dst first.
        let mut tail = Vec::new();
        let mut meet = dst;
        loop {
            if let Some(i) = path.iter().position(|&v| v == meet) {
                path.truncate(i + 1);
                path.extend(tail.iter().rev());
                return Some(path);
            }
            let Some((up, _)) = split.up(meet) else { break };
            tail.push(meet);
            meet = up;
        }
        // Cross the core on src's tree, walking back from meet to anchor.
        let crossing = path.len();
        {
            let mut trees = self.trees.lock().expect("router cache poisoned");
            let root = split.core_index[anchor as usize];
            let prev = trees
                .entry(src)
                .or_insert_with(|| split.core_tree(root, anchor_ms));
            let mut at = split.core_index[meet as usize];
            while at != root {
                if prev[at as usize] == NONE {
                    return None;
                }
                path.push(split.core_nodes[at as usize]);
                at = prev[at as usize];
            }
        }
        path[crossing..].reverse();
        path.extend(tail.iter().rev());
        Some(path)
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

/// How many routes [`Routes`] keeps: a tunnelled probe walks four, two
/// of which every probe of the same proxy walks again.
const MEMO_ROUTES: usize = 8;

/// A router shared with the handles over the same topology, and a memo
/// of the routes this handle walked most recently, each resolved once
/// into link-annotated hops. Hop facts are fixed when a route is built,
/// so a handle that edits its topology takes a fresh `Routes`.
pub(crate) struct Routes {
    router: Arc<Router>,
    /// Most recently used first.
    memo: Vec<PathDelays>,
}

impl Routes {
    /// A fresh router and an empty memo.
    pub(crate) fn new() -> Routes {
        Routes {
            router: Arc::new(Router::new()),
            memo: Vec::with_capacity(MEMO_ROUTES),
        }
    }

    /// The same router with an empty memo, for a handle of its own.
    pub(crate) fn fork(&self) -> Routes {
        Routes {
            router: Arc::clone(&self.router),
            memo: Vec::with_capacity(MEMO_ROUTES),
        }
    }

    /// The route from `src` to `dst`, built now and not memoised, or
    /// `None` if unreachable.
    pub(crate) fn resolve(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<PathDelays> {
        let path = self.router.path(topo, src, dst)?;
        Some(PathDelays::from_node_path(topo, &path))
    }

    /// The route from `src` to `dst` through the memo, or `None` if
    /// unreachable.
    pub(crate) fn get(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<&PathDelays> {
        match self.memo.iter().position(|r| r.src == src && r.dst == dst) {
            Some(i) => self.memo[..=i].rotate_right(1),
            None => {
                let route = self.resolve(topo, src, dst)?;
                self.memo.truncate(MEMO_ROUTES - 1);
                self.memo.insert(0, route);
            }
        }
        self.memo.first()
    }
}

/// A topology split into its transit core and the pendant trees hanging
/// off it.
struct Split {
    /// Per node: its parent if it is a pendant, `NONE` if it is core.
    parent: Vec<u32>,
    /// Per node: the delay (ms) of its link to its parent (0 for core).
    up_ms: Vec<f64>,
    /// Per node: its index among core nodes, `NONE` for pendants. Core
    /// indices ascend with node ids, so a heap tie broken by core index
    /// is broken by node id.
    core_index: Vec<u32>,
    /// Core index → node id.
    core_nodes: Vec<NodeId>,
    /// Per core index: whether the node forwards transit traffic (is not
    /// a host).
    forwards: Vec<bool>,
    /// Per core index: its core neighbours as (core index, delay ms), in
    /// topology adjacency order.
    adj: Vec<Vec<(u32, f64)>>,
}

impl Split {
    fn new(topo: &Topology) -> Split {
        let n = topo.num_nodes();
        let is_host = |v: NodeId| topo.node(v).kind == NodeKind::Host;
        // Peel leaves: a node with exactly one link left to non-pendant
        // nodes, leading to a router, becomes a pendant of that router.
        // A host's links never close (it cannot be a parent), so a host
        // is peeled only when it has a single link.
        let mut open: Vec<u32> = topo
            .node_ids()
            .map(|v| topo.neighbours(v).len() as u32)
            .collect();
        let mut parent = vec![NONE; n];
        let mut up_ms = vec![0.0; n];
        let mut leaves: Vec<NodeId> = topo.node_ids().filter(|&v| open[v as usize] == 1).collect();
        while let Some(v) = leaves.pop() {
            if open[v as usize] != 1 {
                continue;
            }
            let &(link, up) = topo
                .neighbours(v)
                .iter()
                .find(|&&(_, u)| parent[u as usize] == NONE)
                .expect("an open link leads to a non-pendant node");
            if is_host(up) {
                continue;
            }
            parent[v as usize] = up;
            up_ms[v as usize] = topo.link(link).propagation_ms;
            open[v as usize] = 0;
            open[up as usize] -= 1;
            if open[up as usize] == 1 {
                leaves.push(up);
            }
        }

        let core_nodes: Vec<NodeId> = topo
            .node_ids()
            .filter(|&v| parent[v as usize] == NONE)
            .collect();
        let mut core_index = vec![NONE; n];
        for (i, &v) in core_nodes.iter().enumerate() {
            core_index[v as usize] = i as u32;
        }
        let adj = core_nodes
            .iter()
            .map(|&v| {
                topo.neighbours(v)
                    .iter()
                    .filter(|&&(_, next)| core_index[next as usize] != NONE)
                    .map(|&(link, next)| {
                        (core_index[next as usize], topo.link(link).propagation_ms)
                    })
                    .collect()
            })
            .collect();
        let forwards = core_nodes.iter().map(|&v| !is_host(v)).collect();
        Split {
            parent,
            up_ms,
            core_index,
            core_nodes,
            forwards,
            adj,
        }
    }

    /// A pendant's parent and the delay of the link up to it; `None` for
    /// a core node.
    fn up(&self, v: NodeId) -> Option<(NodeId, f64)> {
        let p = self.parent[v as usize];
        (p != NONE).then(|| (p, self.up_ms[v as usize]))
    }

    /// Dijkstra over the core from `root`, which starts at `root_ms`:
    /// each core node's predecessor (core indices). Hosts expand only as
    /// the root; only a strict improvement relaxes a node.
    fn core_tree(&self, root: u32, root_ms: f64) -> Vec<u32> {
        let m = self.core_nodes.len();
        let mut dist_ms = vec![f64::INFINITY; m];
        let mut prev = vec![NONE; m];
        let mut heap = BinaryHeap::new();
        dist_ms[root as usize] = root_ms;
        heap.push(HeapEntry {
            dist: root_ms,
            node: root,
        });
        while let Some(HeapEntry { dist, node }) = heap.pop() {
            if dist > dist_ms[node as usize] {
                continue; // stale entry
            }
            if !self.forwards[node as usize] && node != root {
                continue;
            }
            for &(next, ms) in &self.adj[node as usize] {
                let nd = dist + ms;
                if nd < dist_ms[next as usize] {
                    dist_ms[next as usize] = nd;
                    prev[next as usize] = node;
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
        prev
    }
}

/// Ordered heap entry (min-heap by distance; ties by core index, which
/// orders like node id, for determinism).
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap; distances are finite and non-NaN here.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("NaN distance in Dijkstra heap")
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{plain_node, NodeKind, Topology};
    use geokit::GeoPoint;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    /// a—b—c with a slow direct a—c link; plus host h on a, host k on c.
    fn diamond() -> (Topology, [NodeId; 5]) {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let b = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 5.0)));
        let c = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 10.0)));
        let h = t.add_node(plain_node(NodeKind::Host, p(0.1, 0.0)));
        let k = t.add_node(plain_node(NodeKind::Host, p(0.1, 10.0)));
        t.add_link(a, b, 2.0);
        t.add_link(b, c, 2.0);
        t.add_link(a, c, 10.0); // slower direct path
        t.add_link(h, a, 0.5);
        t.add_link(k, c, 0.5);
        (t, [a, b, c, h, k])
    }

    #[test]
    fn shortest_path_prefers_low_delay() {
        let (t, [a, b, c, _, _]) = diamond();
        let r = Router::new();
        assert_eq!(r.path(&t, a, c), Some(vec![a, b, c]));
    }

    #[test]
    fn host_to_host_via_backbone() {
        let (t, [a, b, c, h, k]) = diamond();
        let r = Router::new();
        assert_eq!(r.path(&t, h, k), Some(vec![h, a, b, c, k]));
        assert_eq!(r.path(&t, k, h), Some(vec![k, c, b, a, h]));
    }

    #[test]
    fn hosts_do_not_transit() {
        // h—a and h—c direct links would make h a shortcut if hosts
        // forwarded traffic.
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let c = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 10.0)));
        let h = t.add_node(plain_node(NodeKind::Host, p(0.0, 5.0)));
        t.add_link(a, c, 10.0);
        t.add_link(h, a, 1.0);
        t.add_link(h, c, 1.0);
        let r = Router::new();
        assert_eq!(r.path(&t, a, c), Some(vec![a, c]));
        // But the host can still originate traffic over either link.
        assert_eq!(r.path(&t, h, c), Some(vec![h, c]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let b = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 5.0)));
        let r = Router::new();
        assert_eq!(r.path(&t, a, b), None);
    }

    #[test]
    fn trivial_self_path() {
        let (t, [a, ..]) = diamond();
        let r = Router::new();
        assert_eq!(r.path(&t, a, a), Some(vec![a]));
    }

    #[test]
    fn cache_survives_many_queries() {
        let (t, [a, _, c, h, k]) = diamond();
        let r = Router::new();
        for _ in 0..100 {
            assert!(r.path(&t, h, k).is_some());
            assert!(r.path(&t, a, c).is_some());
        }
    }

    /// ixp0 — ixp1 backbone; host behind gateway on ixp1; a stub router
    /// with two hosts on ixp0.
    #[test]
    fn gateways_and_stub_routers_hang_off_the_core() {
        let mut t = Topology::new();
        let ixp0 = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let ixp1 = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 5.0)));
        let gw = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 5.1)));
        let proxy = t.add_node(plain_node(NodeKind::Host, p(0.0, 5.1)));
        let stub = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.1)));
        let h1 = t.add_node(plain_node(NodeKind::Host, p(0.0, 0.1)));
        let h2 = t.add_node(plain_node(NodeKind::Host, p(0.0, 0.1)));
        t.add_link(ixp0, ixp1, 2.0);
        t.add_link(ixp1, ixp0, 3.0); // a parallel link keeps both in the core
        t.add_link(gw, ixp1, 0.4);
        t.add_link(proxy, gw, 0.05);
        t.add_link(stub, ixp0, 0.3);
        t.add_link(h1, stub, 0.1);
        t.add_link(h2, stub, 0.1);
        let split = Split::new(&t);
        assert_eq!(split.core_nodes, vec![ixp0, ixp1]);
        assert_eq!(split.up(proxy), Some((gw, 0.05)));
        assert_eq!(split.up(gw), Some((ixp1, 0.4)));
        assert_eq!(split.up(h1), Some((stub, 0.1)));
        let r = Router::new();
        assert_eq!(
            r.path(&t, proxy, h2),
            Some(vec![proxy, gw, ixp1, ixp0, stub, h2])
        );
        assert_eq!(r.path(&t, h1, h2), Some(vec![h1, stub, h2]));
        assert_eq!(
            r.path(&t, stub, proxy),
            Some(vec![stub, ixp0, ixp1, gw, proxy])
        );
        assert_eq!(r.path(&t, gw, ixp1), Some(vec![gw, ixp1]));
    }
}
