//! The §5 algorithm test: CBG vs Quasi-Octant vs Spotter vs Hybrid vs
//! CBG++ on a crowdsourced validation cohort measured with the noisy Web
//! tool — the experiment behind Fig. 9, scored as Fig. 9 scores it (an
//! empty prediction is a miss).
//!
//! ```sh
//! cargo run --release --example algorithm_shootout
//! ```

use bench::build_crowd_context;
use bench::figures::validation::score_algorithm;
use proxy_verifier::{Cbg, CbgPlusPlus, Geolocator, Hybrid, QuasiOctant, Spotter, StudyConfig};

fn main() {
    let config = StudyConfig {
        crowd_volunteers: 12,
        crowd_workers: 38,
        ..StudyConfig::small(5)
    };
    println!("building the validation world and measuring its crowd hosts with the Web tool…");
    let ctx = build_crowd_context(config);
    println!("measured {} crowd hosts", ctx.hosts.len());

    let spotter_model = ctx.spotter_model();
    let algorithms: Vec<Box<dyn Geolocator>> = vec![
        Box::new(Cbg),
        Box::new(QuasiOctant),
        Box::new(Spotter::new(spotter_model.clone())),
        Box::new(Hybrid::new(spotter_model)),
        Box::new(CbgPlusPlus),
    ];

    let mask = ctx.mask();
    println!(
        "\n{:<14} {:>9} {:>12} {:>14} {:>8}",
        "algorithm", "coverage", "median miss", "median area", "empty"
    );
    for algo in &algorithms {
        let hosts = ctx
            .records
            .iter()
            .map(|r| (r.host.true_location, r.observations.as_slice()));
        let s = score_algorithm(algo.as_ref(), &mask, hosts);
        println!(
            "{:<14} {:>8.0}% {:>9.0} km {:>11.0} km² {:>8}",
            s.name,
            s.coverage() * 100.0,
            geokit::stats::median(&s.miss_km).unwrap_or(f64::NAN),
            geokit::stats::median(&s.area_km2).unwrap_or(f64::NAN),
            s.empty
        );
    }
    println!(
        "\npaper shape (Fig. 9): CBG covers ~90 % with the largest regions; \
         Quasi-Octant/Hybrid ~50 %; Spotter worst; CBG++ covers everything."
    );
}
