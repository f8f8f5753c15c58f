//! Network-simulator throughput: world build, closed-form RTT sampling,
//! and probes walked packet by packet, direct and through a tunnel.

use atlas::{Constellation, ConstellationConfig};
use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use geokit::GeoGrid;
use netsim::{WorldNet, WorldNetConfig};
use std::hint::black_box;
use std::sync::Arc;
use worldmap::WorldAtlas;

fn build_world() -> (WorldNet, Constellation) {
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
    let mut world = WorldNet::build(atlas, WorldNetConfig::default());
    let constellation = Constellation::place(&mut world, &ConstellationConfig::small(3));
    (world, constellation)
}

fn bench_world_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("world build");
    group.sample_size(10);
    group.bench_function("atlas 1deg + topology + constellation", |b| {
        b.iter(build_world)
    });
    group.finish();
}

fn bench_measurement(c: &mut Criterion) {
    let (mut world, constellation) = build_world();
    let a = constellation.anchors()[0].node;
    let b_node = constellation.anchors()[20].node;
    c.bench_function("closed-form RTT sample", |bench| {
        bench.iter(|| world.network_mut().sample_rtt_ms(black_box(a), black_box(b_node)))
    });
    c.bench_function("walk tcp_connect_rtt", |bench| {
        bench.iter(|| {
            world
                .network_mut()
                .tcp_connect_rtt(black_box(a), black_box(b_node), 80)
        })
    });
    let client = world.attach_host(
        geokit::GeoPoint::new(50.1, 8.7),
        netsim::FilterPolicy::default(),
    );
    let proxy = world.attach_host(
        geokit::GeoPoint::new(48.8, 2.3),
        netsim::FilterPolicy::vpn_server(),
    );
    c.bench_function("walk tunnelled connect (4 legs)", |bench| {
        bench.iter(|| {
            world.network_mut().tcp_connect_via_proxy_rtt(
                black_box(client),
                black_box(proxy),
                black_box(b_node),
                80,
            )
        })
    });
}

criterion_group!(benches, bench_world_build, bench_measurement);
criterion_main!(benches);
