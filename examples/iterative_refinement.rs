//! The §8.1 extensions, live: iterative refinement and proxy-to-proxy
//! co-location detection.
//!
//! "We think this can be addressed with an iterative refinement process,
//! in which additional probes and anchors are included in the measurement
//! as necessary to reduce the size of the predicted region." — and —
//! "… some groups of proxies (including proxies claimed to be in separate
//! countries) show less than 5 ms round-trip times among themselves."
//!
//! ```sh
//! cargo run --release --example iterative_refinement
//! ```

use proxy_verifier::atlas::{CalibrationDb, Constellation, LandmarkServer};
use proxy_verifier::geoloc::proxy::ProxyContext;
use proxy_verifier::geoloc::twophase::{run_refined, ProxyProber};
use proxy_verifier::netsim::{FilterPolicy, WorldNetConfig};
use proxy_verifier::vpnstudy::colocation::{detect_same_lan_groups, SAME_LAN_RTT_MS};
use proxy_verifier::vpnstudy::{ProviderSet, StudyConfig};
use proxy_verifier::worldmap::market::MarketSurvey;
use proxy_verifier::{CbgPlusPlus, GeoGrid, WorldAtlas};
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;

fn main() {
    let config = StudyConfig {
        total_proxies: 30,
        ..StudyConfig::small(2718)
    };
    println!(
        "building the world and deploying {} proxies…",
        config.total_proxies
    );
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(config.grid_resolution_deg)));
    let survey = MarketSurvey::generate(&atlas, config.seed);
    let mut world = proxy_verifier::netsim::WorldNet::build(
        Arc::clone(&atlas),
        WorldNetConfig { seed: config.seed },
    );
    let constellation = Constellation::place(&mut world, &config.constellation);
    let calibration = CalibrationDb::collect(
        world.network_mut(),
        &constellation,
        config.calibration_pings,
    );
    let providers = ProviderSet::deploy(&mut world, &survey, &config);
    let client = world.attach_host(config.client_location, FilterPolicy::default());
    let mask = atlas.plausibility_mask().clone();

    // --- iterative refinement on the first proxy -------------------------
    let proxy = providers.proxies[0].clone();
    println!(
        "\niteratively refining proxy 0 (claimed {}, really in {}):",
        atlas.country(proxy.claimed).iso2(),
        atlas.country(proxy.true_country).iso2()
    );
    let server = LandmarkServer::new(&constellation, &calibration, &atlas);
    let ctx = ProxyContext::establish(world.network_mut(), client, proxy.node, 0.5, 8)
        .expect("tunnel up");
    let mut prober = ProxyProber::new(ctx, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let refined = run_refined(
        world.network_mut(),
        &server,
        &mut prober,
        &CbgPlusPlus,
        &mask,
        &mut rng,
    )
    .expect("measurable");
    for (round, area) in refined.area_history.iter().enumerate() {
        println!("  after round {round}: region {area:>12.0} km²");
    }
    println!(
        "  truth covered: {}",
        refined.region.contains_point(&proxy.true_location)
    );

    // --- proxy-to-proxy co-location --------------------------------------
    println!(
        "\nmeasuring all proxy pairs through their tunnels (< {SAME_LAN_RTT_MS} ms ⇒ same LAN):"
    );
    let mut self_pings = Vec::new();
    for p in &providers.proxies {
        let ctx = ProxyContext::establish(world.network_mut(), client, p.node, 0.5, 6)
            .expect("tunnel up");
        self_pings.push(ctx.self_ping_ms);
    }
    let groups = detect_same_lan_groups(
        world.network_mut(),
        client,
        &providers.proxies,
        &self_pings,
        0.5,
        3,
        SAME_LAN_RTT_MS,
    );
    for (g, members) in groups.iter().enumerate() {
        println!("  group {g}:");
        for &i in members {
            let p = &providers.proxies[i];
            println!(
                "    proxy {i}: provider {} claims {:<3} — actually {} ({})",
                providers.profiles[p.provider].name,
                atlas.country(p.claimed).iso2(),
                atlas.country(p.true_country).iso2(),
                if p.claimed == p.true_country {
                    "honest"
                } else {
                    "lying"
                },
            );
        }
    }
    println!(
        "\nGroups mixing claimed countries are the paper's §8.1 observation:\n\
         'some groups of proxies (including proxies claimed to be in separate\n\
         countries) show less than 5 ms round-trip times among themselves'."
    );
}
