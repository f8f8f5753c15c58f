//! Catch one lying proxy, end to end.
//!
//! A VPN provider claims a server in North Korea; the hardware is really
//! in Frankfurt. We bring up the simulated world, establish the tunnel,
//! self-ping to estimate the tunnel leg (η-corrected, §5.3), run the
//! two-phase measurement, locate the server with CBG++, and judge the
//! claim.
//!
//! ```sh
//! cargo run --release --example locate_proxy
//! ```

use proxy_verifier::atlas::{CalibrationDb, Constellation, ConstellationConfig, LandmarkServer};
use proxy_verifier::geoloc::assess::assess_claim;
use proxy_verifier::geoloc::proxy::ProxyContext;
use proxy_verifier::geoloc::twophase::{run_two_phase, ProxyProber};
use proxy_verifier::netsim::{FilterPolicy, WorldNet, WorldNetConfig};
use proxy_verifier::{CbgPlusPlus, GeoGrid, GeoPoint, Geolocator, WorldAtlas};
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;

fn main() {
    println!("building the world…");
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(0.5)));
    let mut world = WorldNet::build(Arc::clone(&atlas), WorldNetConfig::default());
    let constellation = Constellation::place(&mut world, &ConstellationConfig::small(2024));
    let calibration = CalibrationDb::collect(world.network_mut(), &constellation, 20);

    // The proxy: advertised in Pyongyang, physically in Frankfurt.
    let claimed = atlas.country_by_iso2("kp").expect("North Korea in atlas");
    let truth = GeoPoint::new(50.10, 8.66);
    let proxy = world.attach_host(truth, FilterPolicy::vpn_server());
    // Our measurement client, also in Frankfurt (as the paper's was).
    let client = world.attach_host(GeoPoint::new(50.11, 8.68), FilterPolicy::default());

    println!("establishing the tunnel and self-pinging…");
    let ctx = ProxyContext::establish(world.network_mut(), client, proxy, 0.5, 10)
        .expect("tunnel answers");
    println!(
        "  tunnel self-ping: {:.2} ms  (≈ 2 × client↔proxy RTT)",
        ctx.self_ping_ms
    );

    println!("two-phase measurement through the tunnel…");
    let server = LandmarkServer::new(&constellation, &calibration, &atlas);
    let mut prober = ProxyProber::new(ctx, 3);
    let mut rng = StdRng::seed_from_u64(7);
    let result = run_two_phase(world.network_mut(), &server, &mut prober, &mut rng)
        .expect("proxy measurable");
    println!(
        "  phase-1 continent guess: {}; {} landmark observations",
        result.continent,
        result.observations.len()
    );

    println!("locating with CBG++…");
    let prediction = CbgPlusPlus.locate(&result.observations, atlas.plausibility_mask());
    println!(
        "  prediction region: {:.0} km² across {} cells",
        prediction.area_km2(),
        prediction.region.cell_count()
    );
    println!("  countries covered:");
    for (c, area) in atlas.countries_touched(&prediction.region) {
        println!("    {:<20} {:>9.0} km²", atlas.country(c).name(), area);
    }

    let verdict = assess_claim(&atlas, &prediction.region, claimed);
    println!(
        "\nclaim 'this server is in {}': {:?} (continent: {:?})",
        atlas.country(claimed).name(),
        verdict.assessment,
        verdict.continent
    );
    let covers_truth = prediction.region.contains_point(&truth);
    println!("ground truth (Frankfurt) inside the prediction: {covers_truth}");
}
