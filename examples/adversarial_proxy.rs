//! The §8 threat model: a proxy that actively lies to the measurement.
//!
//! An honest tunnel is located correctly; then the same proxy (a) adds
//! selective delay to tunnelled packets (the Gill et al. attack — pushes
//! the prediction region outward / away) and (b) forges early SYN-ACKs
//! (the Abdou et al. attack — it sees the SYNs, so no sequence-number
//! guessing is needed — deflating RTTs and shifting the region towards
//! the victim landmarks).
//!
//! ```sh
//! cargo run --release --example adversarial_proxy
//! ```

use proxy_verifier::atlas::{CalibrationDb, Constellation, ConstellationConfig, LandmarkServer};
use proxy_verifier::geoloc::proxy::ProxyContext;
use proxy_verifier::geoloc::twophase::{run_two_phase, ProxyProber};
use proxy_verifier::netsim::{FilterPolicy, WorldNet, WorldNetConfig};
use proxy_verifier::{CbgPlusPlus, GeoGrid, GeoPoint, Geolocator, WorldAtlas};
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;

fn locate(
    world: &mut WorldNet,
    constellation: &Constellation,
    calibration: &CalibrationDb,
    atlas: &Arc<WorldAtlas>,
    client: u32,
    proxy: u32,
) -> Option<(f64, Vec<String>)> {
    let server = LandmarkServer::new(constellation, calibration, atlas);
    let ctx = ProxyContext::establish(world.network_mut(), client, proxy, 0.5, 8)?;
    let mut prober = ProxyProber::new(ctx, 3);
    let mut rng = StdRng::seed_from_u64(11);
    let result = run_two_phase(world.network_mut(), &server, &mut prober, &mut rng)?;
    let prediction = CbgPlusPlus.locate(&result.observations, atlas.plausibility_mask());
    let countries = atlas
        .countries_touched(&prediction.region)
        .into_iter()
        .take(5)
        .map(|(c, _)| atlas.country(c).name().to_string())
        .collect();
    Some((prediction.area_km2(), countries))
}

fn main() {
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(0.5)));
    let mut world = WorldNet::build(Arc::clone(&atlas), WorldNetConfig::default());
    let constellation = Constellation::place(&mut world, &ConstellationConfig::small(31));
    let calibration = CalibrationDb::collect(world.network_mut(), &constellation, 15);

    let truth = GeoPoint::new(52.37, 4.90); // Amsterdam
    let proxy = world.attach_host(truth, FilterPolicy::vpn_server());
    let client = world.attach_host(GeoPoint::new(50.11, 8.68), FilterPolicy::default());

    println!("honest proxy (really in Amsterdam):");
    let (area, countries) = locate(
        &mut world,
        &constellation,
        &calibration,
        &atlas,
        client,
        proxy,
    )
    .expect("measurable");
    println!(
        "  region {area:.0} km², countries: {}",
        countries.join(", ")
    );

    println!("\nproxy adds ~40 ms of selective delay to everything it forwards:");
    world
        .network_mut()
        .faults_mut()
        .set_added_delay(proxy, 40.0, 5.0);
    let (area, countries) = locate(
        &mut world,
        &constellation,
        &calibration,
        &atlas,
        client,
        proxy,
    )
    .expect("measurable");
    println!(
        "  region {area:.0} km², countries: {} (delay inflates distance bounds — the region balloons)",
        countries.join(", ")
    );
    world
        .network_mut()
        .faults_mut()
        .set_added_delay(proxy, 0.0, 0.0);

    println!("\nproxy forges immediate SYN-ACKs for tunnelled connections:");
    world
        .network_mut()
        .faults_mut()
        .set_forge_synack(proxy, true);
    let (area, countries) = locate(
        &mut world,
        &constellation,
        &calibration,
        &atlas,
        client,
        proxy,
    )
    .expect("measurable");
    println!(
        "  region {area:.0} km², countries: {} (every landmark looks adjacent to the proxy!)",
        countries.join(", ")
    );
    println!(
        "\nAs §8 warns, a proxy in the middle can manipulate RTTs both up and down;\n\
         authenticated timestamps would be needed to prevent this."
    );
}
