//! `netsim::routing::Router` routes exactly as a Dijkstra over the whole
//! graph does — hosts never transit, heap ties break by node id, and only
//! a strict improvement relaxes a node — for every (source, destination)
//! pair: on random topologies built to meet the router's core/pendant
//! split from every side, on the `StudyConfig::small` world, and, as an
//! ignored test that `ci.sh` runs in release, on the paper world.

use netsim::routing::Router;
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

/// The first (source, destination) pair whose route differs from the
/// reference, described; `None` when every pair matches.
fn first_mismatch(topo: &Topology) -> Option<String> {
    let router = Router::new();
    for src in topo.node_ids() {
        let prev = reference_tree(topo, src);
        for dst in topo.node_ids() {
            let route = router.path(topo, src, dst);
            let want = reference_path(&prev, src, dst);
            if route != want {
                return Some(format!(
                    "{src} → {dst}: router {route:?}, reference {want:?}"
                ));
            }
        }
    }
    None
}

/// Link delays come from a few values (zero and sums that are exact in
/// binary among them), so equal-delay routes tie exactly.
const DELAYS_MS: [f64; 6] = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5];

/// A random topology with every shape the core/pendant split handles
/// differently: a backbone of `core` routers that need not be connected
/// (parallel links allowed), `stubs` stub routers carrying several hosts
/// with routers hanging off some of them, a two-router island, single-
/// and multi-homed hosts, a host behind a host, a router reachable only
/// through a host, and a lone router and host. Node ids and link order
/// are shuffled so heap ties and adjacency order vary.
fn random_topology(seed: u64, core: usize, stubs: usize) -> Topology {
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
        let ms = DELAYS_MS[rng.random_range(0..DELAYS_MS.len())];
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
        let topo = random_topology(seed, core, stubs);
        if let Some(mismatch) = first_mismatch(&topo) {
            prop_assert!(false, "{mismatch}");
        }
    }
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
