//! The §5 algorithm test: CBG vs Quasi-Octant vs Spotter vs Hybrid vs
//! CBG++ on a crowdsourced validation cohort measured with the noisy Web
//! tool — the experiment behind Fig. 9.
//!
//! ```sh
//! cargo run --release --example algorithm_shootout
//! ```

use proxy_verifier::atlas::{CalibrationDb, Constellation, LandmarkServer};
use proxy_verifier::geoloc::delay_model::SpotterModel;
use proxy_verifier::vpnstudy::crowd::{measure_crowd, synthesize_hosts};
use proxy_verifier::{
    Cbg, CbgPlusPlus, GeoGrid, Geolocator, Hybrid, QuasiOctant, Spotter, StudyConfig, WorldAtlas,
};
use std::sync::Arc;

fn main() {
    let config = StudyConfig {
        crowd_volunteers: 12,
        crowd_workers: 38,
        ..StudyConfig::small(5)
    };
    println!("building the validation world…");
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(config.grid_resolution_deg)));
    let mut world = proxy_verifier::netsim::WorldNet::build(
        Arc::clone(&atlas),
        proxy_verifier::netsim::WorldNetConfig { seed: config.seed },
    );
    let constellation = Constellation::place(&mut world, &config.constellation);
    let calibration = CalibrationDb::collect(
        world.network_mut(),
        &constellation,
        config.calibration_pings,
    );
    let hosts = synthesize_hosts(&mut world, &config);
    println!("measuring {} crowd hosts with the Web tool…", hosts.len());
    let records = {
        let server = LandmarkServer::new(&constellation, &calibration, &atlas);
        measure_crowd(&mut world, &server, &hosts, &config)
    };

    // The global Spotter model, pooled over the anchor mesh.
    let pool: Vec<&proxy_verifier::atlas::CalibrationSet> = (0..constellation.num_anchors())
        .map(|i| calibration.for_anchor(i))
        .collect();
    let spotter_model = SpotterModel::calibrate(&pool);

    let algorithms: Vec<Box<dyn Geolocator>> = vec![
        Box::new(Cbg),
        Box::new(QuasiOctant),
        Box::new(Spotter::new(spotter_model.clone())),
        Box::new(Hybrid::new(spotter_model)),
        Box::new(CbgPlusPlus),
    ];

    let mask = atlas.plausibility_mask();
    println!(
        "\n{:<14} {:>9} {:>12} {:>14} {:>8}",
        "algorithm", "coverage", "median miss", "median area", "empty"
    );
    for algo in &algorithms {
        let mut misses = Vec::new();
        let mut areas = Vec::new();
        let mut empty = 0usize;
        for r in &records {
            let p = algo.locate(&r.observations, mask);
            match p.region.distance_from_km(&r.host.true_location) {
                Some(m) => {
                    misses.push(m);
                    areas.push(p.area_km2());
                }
                None => empty += 1,
            }
        }
        let coverage =
            misses.iter().filter(|&&m| m == 0.0).count() as f64 / misses.len().max(1) as f64;
        println!(
            "{:<14} {:>8.0}% {:>9.0} km {:>11.0} km² {:>8}",
            algo.name(),
            coverage * 100.0,
            geokit::stats::median(&misses).unwrap_or(f64::NAN),
            geokit::stats::median(&areas).unwrap_or(f64::NAN),
            empty
        );
    }
    println!(
        "\npaper shape (Fig. 9): CBG covers ~90 % with the largest regions; \
         Quasi-Octant/Hybrid ~50 %; Spotter worst; CBG++ covers everything."
    );
}
