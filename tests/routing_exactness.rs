//! `netsim::routing::Router` routes exactly as a Dijkstra over the whole
//! graph does — hosts never transit, heap ties break by node id, and only
//! a strict improvement relaxes a node — for every (source, destination)
//! pair, and each route's hops carry the links `PathDelays::from_node_path`
//! finds by scanning adjacency: on random topologies built to meet the
//! router's core/pendant split from every side, with exactly tied delays
//! (which the per-anchor trees' certificate refuses to share) and with
//! untied random ones (which it shares), on a hand-built near-tie that
//! two climb offsets round apart, on the `StudyConfig::small` world, and,
//! as an ignored test that `ci.sh` runs in release, on the paper world.

use netsim::delay::PathDelays;
use netsim::routing::{RouteWork, Router};
use netsim::topology::{plain_node, NodeKind, Topology};
use netsim::NodeId;
use simrng::prop::prelude::*;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use std::collections::BinaryHeap;
use vpnstudy::{Study, StudyConfig};

/// Min-heap entry: by distance, ties by node id.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
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

/// The reference: a Dijkstra from `src` over every node of the topology.
/// Returns each node's predecessor on the shortest-path tree.
fn reference_tree(topo: &Topology, src: NodeId) -> Vec<Option<NodeId>> {
    let n = topo.num_nodes();
    let mut dist_ms = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist_ms[src as usize] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist, node }) = heap.pop() {
        if dist > dist_ms[node as usize] {
            continue; // stale entry
        }
        // Hosts do not forward transit traffic: expand a host's neighbours
        // only when the host is the source.
        if topo.node(node).kind == NodeKind::Host && node != src {
            continue;
        }
        for &(link, next) in topo.neighbours(node) {
            let nd = dist + topo.link(link).propagation_ms;
            if nd < dist_ms[next as usize] {
                dist_ms[next as usize] = nd;
                prev[next as usize] = Some(node);
                heap.push(HeapEntry {
                    dist: nd,
                    node: next,
                });
            }
        }
    }
    prev
}

fn reference_path(prev: &[Option<NodeId>], src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    prev[dst as usize]?;
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur as usize] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// Whether two routes carry the same hops, bit for bit.
fn same_hops(a: &PathDelays, b: &PathDelays) -> bool {
    (a.src, a.dst) == (b.src, b.dst)
        && a.propagation_ms.to_bits() == b.propagation_ms.to_bits()
        && a.hops.len() == b.hops.len()
        && a.hops.iter().zip(&b.hops).all(|(x, y)| {
            (x.node, x.link) == (y.node, y.link)
                && x.propagation_ms.to_bits() == y.propagation_ms.to_bits()
                && x.congestion.to_bits() == y.congestion.to_bits()
        })
}

/// The first (source, destination) pair whose route differs from the
/// reference, described, or `None` when every pair matches; and the
/// router's work over all of them.
fn check_every_pair(topo: &Topology) -> (Option<String>, RouteWork) {
    let router = Router::new();
    for src in topo.node_ids() {
        let prev = reference_tree(topo, src);
        for dst in topo.node_ids() {
            let path = router.path(topo, src, dst);
            let want = reference_path(&prev, src, dst);
            if path != want {
                let why = format!("{src} → {dst}: router {path:?}, reference {want:?}");
                return (Some(why), router.work());
            }
            let route = router.route(topo, src, dst);
            let scanned = want.map(|path| PathDelays::from_node_path(topo, &path));
            if route.is_some() != scanned.is_some()
                || route.zip(scanned).is_some_and(|(r, s)| !same_hops(&r, &s))
            {
                return (Some(format!("{src} → {dst}: hops differ")), router.work());
            }
        }
    }
    (None, router.work())
}

fn first_mismatch(topo: &Topology) -> Option<String> {
    check_every_pair(topo).0
}

/// Link delays come from a few values (zero and sums that are exact in
/// binary among them), so equal-delay routes tie exactly.
const DELAYS_MS: [f64; 6] = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5];

/// How [`random_topology`] draws link delays.
#[derive(Clone, Copy)]
enum Delays {
    /// From [`DELAYS_MS`], so routes tie exactly.
    Tied,
    /// Uniform in [0.01, 5) ms, so no two routes tie or come near it.
    Untied,
}

/// A random topology with every shape the core/pendant split handles
/// differently: a backbone of `core` routers that need not be connected
/// (parallel links allowed), `stubs` stub routers carrying several hosts
/// with routers hanging off some of them, a two-router island, single-
/// and multi-homed hosts, a host behind a host, a router reachable only
/// through a host, and a lone router and host. Node ids and link order
/// are shuffled so heap ties and adjacency order vary.
fn random_topology(seed: u64, core: usize, stubs: usize, delays: Delays) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kinds: Vec<NodeKind> = Vec::new();
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut add = |kind: NodeKind| {
        kinds.push(kind);
        kinds.len() - 1
    };
    let backbone: Vec<usize> = (0..core).map(|_| add(NodeKind::Ixp)).collect();
    for i in 1..core {
        if rng.random_bool(0.8) {
            links.push((backbone[i], backbone[rng.random_range(0..i)]));
        }
    }
    for _ in 0..core {
        let (a, b) = (rng.random_range(0..core), rng.random_range(0..core));
        if a != b {
            links.push((backbone[a], backbone[b]));
        }
    }
    let mut routers = backbone.clone();
    for _ in 0..stubs {
        let stub = add(NodeKind::Ixp);
        links.push((stub, backbone[rng.random_range(0..core)]));
        for _ in 0..rng.random_range(0..4usize) {
            links.push((add(NodeKind::Host), stub));
        }
        if rng.random_bool(0.5) {
            let sub = add(NodeKind::Ixp);
            links.push((sub, stub));
            if rng.random_bool(0.5) {
                links.push((add(NodeKind::Host), sub));
            }
            routers.push(sub);
        }
        routers.push(stub);
    }
    let (left, right) = (add(NodeKind::Ixp), add(NodeKind::Ixp));
    links.push((left, right));
    links.push((add(NodeKind::Host), right));
    routers.extend([left, right]);
    for _ in 0..=stubs {
        let host = add(NodeKind::Host);
        links.push((host, routers[rng.random_range(0..routers.len())]));
        let multi = add(NodeKind::Host);
        for _ in 0..2 {
            links.push((multi, routers[rng.random_range(0..routers.len())]));
        }
    }
    let front = add(NodeKind::Host);
    links.push((front, routers[rng.random_range(0..routers.len())]));
    links.push((add(NodeKind::Host), front));
    links.push((add(NodeKind::Ixp), front));
    add(NodeKind::Ixp);
    add(NodeKind::Host);

    let mut ids: Vec<NodeId> = (0..kinds.len() as NodeId).collect();
    rng.shuffle(&mut ids);
    let mut kind_of_id = vec![NodeKind::Ixp; kinds.len()];
    for (a, &kind) in kinds.iter().enumerate() {
        kind_of_id[ids[a] as usize] = kind;
    }
    let mut topo = Topology::new();
    for kind in kind_of_id {
        topo.add_node(plain_node(kind, geokit::GeoPoint::new(0.0, 0.0)));
    }
    rng.shuffle(&mut links);
    for (a, b) in links {
        let (a, b) = if rng.random_bool(0.5) { (a, b) } else { (b, a) };
        let ms = match delays {
            Delays::Tied => DELAYS_MS[rng.random_range(0..DELAYS_MS.len())],
            Delays::Untied => rng.random_range(0.01..5.0),
        };
        topo.add_link(ids[a], ids[b], ms);
    }
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn routes_match_whole_graph_dijkstra_on_random_topologies(
        seed in 0u64..u64::MAX,
        core in 1usize..9,
        stubs in 0usize..6,
    ) {
        let topo = random_topology(seed, core, stubs, Delays::Tied);
        if let Some(mismatch) = first_mismatch(&topo) {
            prop_assert!(false, "{mismatch}");
        }
    }

    // Untied delays leave every core node a margin far above the
    // rounding a climb offset can cause, so every source crosses the
    // core on its anchor's tree.
    #[test]
    fn untied_routes_share_one_tree_per_anchor_and_match_dijkstra(
        seed in 0u64..u64::MAX,
        core in 1usize..9,
        stubs in 0usize..6,
    ) {
        let topo = random_topology(seed, core, stubs, Delays::Untied);
        let (mismatch, work) = check_every_pair(&topo);
        if let Some(mismatch) = mismatch {
            prop_assert!(false, "{mismatch}");
        }
        prop_assert_eq!(work.offset_trees, 0);
        prop_assert!(work.shared_trees > 0);
    }
}

/// Two hosts behind one anchor whose climb offsets round a core near-tie
/// apart. From the anchor A, T is 0.05 + 0.25 ms away through X and
/// 0.1 + 0.2 ms through Y, and the sums differ by 2⁻⁵⁴: X wins by less
/// than an offset's rounding. From h1, 0.3 ms up, X still wins; from h2,
/// 0.6 ms up, the rounded sums put Y first. The anchor's certificate must
/// refuse both offsets, and each host's route must follow its own.
#[test]
fn a_near_tie_that_offsets_round_apart_is_not_shared() {
    let mut t = Topology::new();
    let node =
        |t: &mut Topology, kind| t.add_node(plain_node(kind, geokit::GeoPoint::new(0.0, 0.0)));
    let a = node(&mut t, NodeKind::Ixp);
    let x = node(&mut t, NodeKind::Ixp);
    let y = node(&mut t, NodeKind::Ixp);
    let tgt = node(&mut t, NodeKind::Ixp);
    let h1 = node(&mut t, NodeKind::Host);
    let h2 = node(&mut t, NodeKind::Host);
    t.add_link(a, x, 0.05);
    t.add_link(x, tgt, 0.25);
    t.add_link(a, y, 0.1);
    t.add_link(y, tgt, 0.2);
    t.add_link(h1, a, 0.3);
    t.add_link(h2, a, 0.6);
    // The sums the two Dijkstras compare at T, offset first.
    let via = |offset: f64, first: f64, second: f64| (offset + first) + second;
    assert!(
        via(0.0, 0.05, 0.25) < via(0.0, 0.1, 0.2),
        "X wins from the anchor"
    );
    assert!(via(0.3, 0.05, 0.25) < via(0.3, 0.1, 0.2), "X wins from h1");
    assert!(via(0.6, 0.1, 0.2) < via(0.6, 0.05, 0.25), "Y wins from h2");
    let router = Router::new();
    assert_eq!(router.path(&t, a, tgt), Some(vec![a, x, tgt]));
    assert_eq!(router.path(&t, h1, tgt), Some(vec![h1, a, x, tgt]));
    assert_eq!(router.path(&t, h2, tgt), Some(vec![h2, a, y, tgt]));
    let work = router.work();
    assert_eq!((work.shared_trees, work.offset_trees), (1, 2), "{work:?}");
    assert_eq!(first_mismatch(&t), None);
}

fn study_topology(config: StudyConfig) -> Topology {
    Study::build(config).world.network().topology().clone()
}

#[test]
fn routes_match_whole_graph_dijkstra_on_the_small_study_world() {
    let topo = study_topology(StudyConfig::small(77));
    assert_eq!(topo.num_nodes(), 571);
    assert_eq!(first_mismatch(&topo), None);
}

#[test]
#[ignore = "31.9M pairs: run in release with --ignored, as ci.sh does"]
fn routes_match_whole_graph_dijkstra_on_the_paper_world() {
    let topo = study_topology(StudyConfig::paper());
    assert_eq!(topo.num_nodes(), 5646);
    assert_eq!(first_mismatch(&topo), None);
}
