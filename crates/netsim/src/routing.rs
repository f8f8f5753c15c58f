//! Shortest-path routing over the backbone, with one cached core tree per
//! anchor.
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
//! chain to the core and crosses the core on a Dijkstra tree over core
//! nodes only, rooted at the source's *anchor*: the core node its climb
//! reaches.
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
//! So the core tree depends on the source only through its anchor and
//! that climb offset. The router builds one tree per anchor, at offset 0,
//! and records with it a certificate: the smallest gap, over every core
//! node, between its best candidate distance and its best candidate
//! through another predecessor, and the largest distance on the tree. A
//! source reuses its anchor's tree when the gap exceeds the rounding that
//! a different offset can cause (`CoreTree::covers`; DESIGN.md derives the
//! bound). Otherwise it gets the tree for its own offset, kept in the same
//! cache. A route is then one walk over the split: the source's climb,
//! the tree from the meeting point back to the anchor, and the
//! destination's climb, each hop written once with the link the split or
//! the tree stored for it. [`Router::path`] is a view of that walk.
//!
//! A router serves one topology: a network that edits its topology takes
//! a fresh router (see `Network::topology_mut`).
//!
//! Each measurement handle walks its routes through a `Routes` memo, which
//! keeps the few link-annotated paths it walked last. A proxy's probes
//! repeat the client↔proxy routes on every probe, and its retries repeat
//! the proxy↔landmark ones.

use crate::delay::{Hop, PathDelays};
use crate::topology::{NodeKind, Topology};
use crate::{LinkId, NodeId};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// No node: the parent of a core node, the core index of a pendant, the
/// predecessor of a tree's root or of an unreachable core node.
const NONE: u32 = u32::MAX;

/// The unit roundoff of `f64` arithmetic, 2⁻⁵³.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The largest core the certificate is derived for (DESIGN.md): above
/// it every offset source gets a tree of its own.
const MAX_CERTIFIED_CORE: usize = 1 << 22;

/// The routing work a [`Router`] has done since it was made. Counts of
/// work, not of results: they are meant to fall, so they stay out of
/// every determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteWork {
    /// Core trees built from an anchor at offset 0, one per anchor
    /// reached.
    pub shared_trees: u64,
    /// Core trees built for a climb offset that its anchor's certificate
    /// does not cover.
    pub offset_trees: u64,
    /// Routes built: every route-memo miss, every unmemoised route and
    /// every [`Router::path`].
    pub routes: u64,
}

impl RouteWork {
    /// Every core tree built.
    pub fn trees(&self) -> u64 {
        self.shared_trees + self.offset_trees
    }

    /// The work done after `earlier`, a reading of the same router.
    pub fn since(&self, earlier: RouteWork) -> RouteWork {
        RouteWork {
            shared_trees: self.shared_trees - earlier.shared_trees,
            offset_trees: self.offset_trees - earlier.offset_trees,
            routes: self.routes - earlier.routes,
        }
    }
}

/// Shortest-path router with an interior-mutability cache of core trees
/// (the study asks for many paths from few anchors). A built network is
/// shared across threads: each anchor's tree is built once behind a
/// `OnceLock` and read without a lock, and the rare offset trees sit
/// behind a `Mutex`.
pub struct Router {
    /// The core/pendant split of the topology and its tree cache,
    /// computed on first use.
    core: OnceLock<Core>,
    shared_trees: AtomicU64,
    offset_trees: AtomicU64,
    routes: AtomicU64,
}

impl Router {
    /// Create a router for a topology.
    pub fn new() -> Router {
        Router {
            core: OnceLock::new(),
            shared_trees: AtomicU64::new(0),
            offset_trees: AtomicU64::new(0),
            routes: AtomicU64::new(0),
        }
    }

    /// The routing work done so far.
    pub fn work(&self) -> RouteWork {
        RouteWork {
            shared_trees: self.shared_trees.load(Ordering::Relaxed),
            offset_trees: self.offset_trees.load(Ordering::Relaxed),
            routes: self.routes.load(Ordering::Relaxed),
        }
    }

    /// The node path from `src` to `dst` (inclusive of both), or `None`
    /// if unreachable: the senders of [`route`](Router::route)'s hops,
    /// then `dst`. Deterministic: ties are broken by node id.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let route = self.route(topo, src, dst)?;
        Some(route.hops.iter().map(|hop| hop.node).chain([dst]).collect())
    }

    /// The route from `src` to `dst` with its delay facts, or `None` if
    /// unreachable. Each hop's link is the first one in the sender's
    /// adjacency order that leads to the next node, as
    /// [`PathDelays::from_node_path`] picks it, and the route allocates
    /// its one hop vector at its final length.
    pub fn route(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<PathDelays> {
        self.routes.fetch_add(1, Ordering::Relaxed);
        let core = self.core.get_or_init(|| Core::new(topo));
        let split = &core.split;
        debug_assert_eq!(
            split.parent.len(),
            topo.num_nodes(),
            "router of another topology"
        );
        // Climb from src to its core anchor, summing link delays in the
        // order a whole-graph Dijkstra from src adds them.
        let (mut anchor, mut offset_ms, mut up) = (src, 0.0, 0);
        while let Some(p) = split.up(anchor) {
            offset_ms += split.up_ms[anchor as usize];
            anchor = p;
            up += 1;
        }
        // Climb from dst until it meets src's climb or reaches the core;
        // `down` pendants lie below that point.
        let (mut meet, mut down) = (dst, 0);
        let joined = loop {
            if let Some(i) = split.climb_position(src, meet) {
                break Some(i);
            }
            let Some(p) = split.up(meet) else { break None };
            meet = p;
            down += 1;
        };
        // Cross the core on the anchor's tree, or on the tree for this
        // offset when the anchor's certificate does not cover it.
        let (up, tree) = match joined {
            Some(i) => (i, None),
            None => {
                let tree = self.tree(core, split.core_index[anchor as usize], offset_ms);
                let at = split.core_index[meet as usize] as usize;
                if tree.links[at].prev == NONE {
                    return None;
                }
                (up, Some((tree, at)))
            }
        };
        let crossing = tree.as_ref().map_or(0, |(tree, at)| tree.links[*at].depth);
        let mut hops = Vec::with_capacity(up + crossing as usize + down);
        let hop = |node: NodeId, link: LinkId| Hop {
            node,
            link,
            propagation_ms: topo.link(link).propagation_ms,
            congestion: topo.node(node).congestion,
        };
        let mut v = src;
        for _ in 0..up {
            hops.push(hop(v, split.up_link[v as usize]));
            v = split.parent[v as usize];
        }
        // The rest is pushed from dst backwards, then turned around:
        // dst's climb down to meet, then the tree from meet to the anchor.
        let turn = hops.len();
        let mut v = dst;
        for _ in 0..down {
            let p = split.parent[v as usize];
            hops.push(hop(p, split.up_link[v as usize]));
            v = p;
        }
        if let Some((tree, mut at)) = tree {
            for _ in 0..crossing {
                let TreeLink { prev, link, .. } = tree.links[at];
                hops.push(hop(split.core_nodes[prev as usize], link));
                at = prev as usize;
            }
        }
        hops[turn..].reverse();
        let propagation_ms = hops.iter().fold(0.0, |sum, hop| sum + hop.propagation_ms);
        Some(PathDelays {
            src,
            dst,
            hops,
            propagation_ms,
        })
    }

    /// The tree from core node `root` that a source at climb offset
    /// `offset_ms` crosses the core on: the anchor's own when its
    /// certificate covers the offset, else the offset's, built on first
    /// use.
    fn tree<'a>(&self, core: &'a Core, root: u32, offset_ms: f64) -> TreeRef<'a> {
        let shared = core.trees.anchored[root as usize].get_or_init(|| {
            self.shared_trees.fetch_add(1, Ordering::Relaxed);
            core.split.core_tree(root, 0.0)
        });
        if shared.covers(offset_ms, core.split.core_nodes.len()) {
            return TreeRef::Shared(shared);
        }
        let mut offsets = core.trees.offsets.lock().expect("router cache poisoned");
        let tree = offsets
            .entry((root, offset_ms.to_bits()))
            .or_insert_with(|| {
                self.offset_trees.fetch_add(1, Ordering::Relaxed);
                Arc::new(core.split.core_tree(root, offset_ms))
            });
        TreeRef::Offset(Arc::clone(tree))
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

    /// The shared router's work so far.
    pub(crate) fn work(&self) -> RouteWork {
        self.router.work()
    }

    /// The route from `src` to `dst`, built now and not memoised, or
    /// `None` if unreachable.
    pub(crate) fn resolve(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<PathDelays> {
        self.router.route(topo, src, dst)
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

/// The split of one topology and the core trees built over it.
struct Core {
    split: Split,
    trees: TreeCache,
}

impl Core {
    fn new(topo: &Topology) -> Core {
        let split = Split::new(topo);
        let trees = TreeCache {
            anchored: (0..split.core_nodes.len())
                .map(|_| OnceLock::new())
                .collect(),
            offsets: Mutex::new(HashMap::new()),
        };
        Core { split, trees }
    }
}

/// The router's one tree cache: per anchor, its tree at offset 0, and
/// the trees of the (anchor, offset) pairs that tree's certificate does
/// not cover.
struct TreeCache {
    /// Per core index: the tree rooted there at offset 0.
    anchored: Vec<OnceLock<CoreTree>>,
    /// (root core index, offset bits) → the tree from there.
    offsets: Mutex<HashMap<(u32, u64), Arc<CoreTree>>>,
}

/// A tree from [`TreeCache`]: borrowed when shared, held when it is an
/// offset's.
enum TreeRef<'a> {
    Shared(&'a CoreTree),
    Offset(Arc<CoreTree>),
}

impl std::ops::Deref for TreeRef<'_> {
    type Target = CoreTree;

    fn deref(&self) -> &CoreTree {
        match self {
            TreeRef::Shared(tree) => tree,
            TreeRef::Offset(tree) => tree,
        }
    }
}

/// One core node's place on a core tree.
#[derive(Debug, Clone, Copy)]
struct TreeLink {
    /// Its predecessor (core index); `NONE` for the root and for nodes
    /// the root does not reach.
    prev: u32,
    /// The link from the predecessor: the first in the predecessor's
    /// adjacency order that leads here.
    link: LinkId,
    /// Links between the root and this node.
    depth: u32,
}

/// A Dijkstra tree over the core from one root at one start offset.
struct CoreTree {
    /// Per core index.
    links: Vec<TreeLink>,
    /// The smallest gap, over every reached core node but the root,
    /// between its distance and its least candidate distance through
    /// another predecessor (∞ when no node has a second candidate).
    min_gap_ms: f64,
    /// The largest distance on the tree.
    max_ms: f64,
}

impl CoreTree {
    /// Whether this tree, built at offset 0 over a core of `m` nodes, is
    /// also the tree from its root at `offset_ms`: the offset is 0, or a
    /// finite positive offset whose rounding, bounded by
    /// `2(m + 2)·2⁻⁵³·(2·max_ms + offset_ms)`, stays below every
    /// predecessor's margin (DESIGN.md, *Routing*, derives the bound).
    fn covers(&self, offset_ms: f64, m: usize) -> bool {
        if offset_ms == 0.0 {
            return true;
        }
        let scale = 2.0 * (m as f64 + 2.0) * UNIT_ROUNDOFF;
        m <= MAX_CERTIFIED_CORE
            && offset_ms > 0.0
            && self.min_gap_ms > scale * (2.0 * self.max_ms + offset_ms)
    }
}

/// A topology split into its transit core and the pendant trees hanging
/// off it.
struct Split {
    /// Per node: its parent if it is a pendant, `NONE` if it is core.
    parent: Vec<u32>,
    /// Per node: the link to its parent, the only one between them
    /// (`NONE` for core).
    up_link: Vec<LinkId>,
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
    /// Per core index: one entry per core neighbour, in the order the
    /// topology's adjacency first reaches it: (core index, the least
    /// delay (ms) of the links to it, the first of those links).
    adj: Vec<Vec<(u32, f64, LinkId)>>,
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
        let mut up_link = vec![NONE; n];
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
            up_link[v as usize] = link;
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
        // Parallel links to one neighbour offer one predecessor: the
        // least delay decides the distance (rounding is monotone), and
        // the first link carries the hop.
        let adj = core_nodes
            .iter()
            .map(|&v| {
                let mut entries: Vec<(u32, f64, LinkId)> = Vec::new();
                for &(link, next) in topo.neighbours(v) {
                    let next = core_index[next as usize];
                    if next == NONE {
                        continue;
                    }
                    let ms = topo.link(link).propagation_ms;
                    match entries.iter_mut().find(|(u, ..)| *u == next) {
                        Some(entry) => entry.1 = entry.1.min(ms),
                        None => entries.push((next, ms, link)),
                    }
                }
                entries
            })
            .collect();
        let forwards = core_nodes.iter().map(|&v| !is_host(v)).collect();
        Split {
            parent,
            up_link,
            up_ms,
            core_index,
            core_nodes,
            forwards,
            adj,
        }
    }

    /// A pendant's parent; `None` for a core node.
    fn up(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v as usize];
        (p != NONE).then_some(p)
    }

    /// How many links `v` lies above `src` on `src`'s climb, or `None`
    /// when the climb does not pass `v`.
    fn climb_position(&self, src: NodeId, v: NodeId) -> Option<usize> {
        let mut at = src;
        for i in 0.. {
            if at == v {
                return Some(i);
            }
            at = self.up(at)?;
        }
        unreachable!("a climb ends at the core")
    }

    /// Dijkstra over the core from `root`, which starts at `root_ms`:
    /// each core node's predecessor, link and depth, and the certificate
    /// [`CoreTree::covers`] reads. Hosts expand only as the root; only a
    /// strict improvement relaxes a node.
    fn core_tree(&self, root: u32, root_ms: f64) -> CoreTree {
        let m = self.core_nodes.len();
        let mut dist_ms = vec![f64::INFINITY; m];
        // The least candidate through a predecessor other than `prev`.
        let mut second_ms = vec![f64::INFINITY; m];
        let mut links = vec![
            TreeLink {
                prev: NONE,
                link: NONE,
                depth: 0,
            };
            m
        ];
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
            // Final now, and so is its predecessor, popped before it.
            let prev = links[node as usize].prev;
            if prev != NONE {
                links[node as usize].depth = links[prev as usize].depth + 1;
            }
            if !self.forwards[node as usize] && node != root {
                continue;
            }
            for &(next, ms, link) in &self.adj[node as usize] {
                let nd = dist + ms;
                let at = &mut links[next as usize];
                if nd < dist_ms[next as usize] {
                    if at.prev != node {
                        second_ms[next as usize] = dist_ms[next as usize];
                    }
                    dist_ms[next as usize] = nd;
                    at.prev = node;
                    at.link = link;
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                } else if at.prev != node {
                    second_ms[next as usize] = second_ms[next as usize].min(nd);
                }
            }
        }
        let (mut min_gap_ms, mut max_ms) = (f64::INFINITY, 0.0f64);
        for (v, (&dist, &second)) in dist_ms.iter().zip(&second_ms).enumerate() {
            if dist.is_finite() {
                max_ms = max_ms.max(dist);
                if v != root as usize {
                    min_gap_ms = min_gap_ms.min(second - dist);
                }
            }
        }
        CoreTree {
            links,
            min_gap_ms,
            max_ms,
        }
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
        let up = |v: NodeId| split.up(v).map(|p| (p, split.up_ms[v as usize]));
        assert_eq!(up(proxy), Some((gw, 0.05)));
        assert_eq!(up(gw), Some((ixp1, 0.4)));
        assert_eq!(up(h1), Some((stub, 0.1)));
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
