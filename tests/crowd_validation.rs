//! The §5 algorithm-validation experiment as an integration test: the
//! Fig. 9 ordering must reproduce on a fresh small cohort.

use proxy_verifier::atlas::{CalibrationDb, Constellation, LandmarkServer};
use proxy_verifier::geoloc::delay_model::SpotterModel;
use proxy_verifier::vpnstudy::crowd::{measure_crowd, synthesize_hosts, CrowdRecord};
use proxy_verifier::{
    Cbg, CbgPlusPlus, GeoGrid, Geolocator, Hybrid, QuasiOctant, Spotter, StudyConfig, WorldAtlas,
};
use std::sync::{Arc, OnceLock};

struct Fixture {
    atlas: Arc<WorldAtlas>,
    records: Vec<CrowdRecord>,
    spotter_model: SpotterModel,
}

fn fixture() -> &'static Fixture {
    static S: OnceLock<Fixture> = OnceLock::new();
    S.get_or_init(|| {
        let config = StudyConfig {
            crowd_volunteers: 10,
            crowd_workers: 30,
            ..StudyConfig::small(4242)
        };
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
        let records = {
            let server = LandmarkServer::new(&constellation, &calibration, &atlas);
            measure_crowd(&mut world, &server, &hosts, &config)
        };
        let pool: Vec<&proxy_verifier::atlas::CalibrationSet> = (0..constellation.num_anchors())
            .map(|i| calibration.for_anchor(i))
            .collect();
        let spotter_model = SpotterModel::calibrate(&pool);
        Fixture {
            atlas,
            records,
            spotter_model,
        }
    })
}

fn coverage_of(algo: &dyn Geolocator) -> (f64, usize, Vec<f64>) {
    let f = fixture();
    let mask = f.atlas.plausibility_mask();
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut empty = 0usize;
    let mut areas = Vec::new();
    for r in &f.records {
        let p = algo.locate(&r.observations, mask);
        if p.region.is_empty() {
            empty += 1;
            continue;
        }
        total += 1;
        if p.region.contains_point(&r.host.true_location) {
            hits += 1;
        }
        areas.push(p.area_km2());
    }
    (hits as f64 / total.max(1) as f64, empty, areas)
}

#[test]
fn cbgpp_always_covers_the_truth() {
    // §5.1: "this algorithm eliminated all of the remaining cases where
    // the predicted region did not cover the true location." On our
    // substrate a rare (~1 host in 20) sub-100-km miss survives, caused
    // by probe landmarks inheriting their nearest anchor's bestline
    // intercept plus coarse-grid quantization — the near-border residual
    // the paper itself observes when comparing against ICLab (§6.2).
    let (coverage, empty, _) = coverage_of(&CbgPlusPlus);
    assert_eq!(empty, 0, "CBG++ must never return an empty region");
    assert!(
        coverage >= 0.92,
        "CBG++ covered only {:.0} % of hosts",
        coverage * 100.0
    );
}

#[test]
fn cbg_covers_most_hosts() {
    // Fig. 9A: CBG's predictions include the truth for ~90 %.
    let (coverage, _, _) = coverage_of(&Cbg);
    assert!(
        coverage >= 0.8,
        "CBG covered only {:.0} %",
        coverage * 100.0
    );
}

#[test]
fn sophisticated_models_lose_on_noisy_web_data() {
    // Fig. 9's headline: the simple model beats the sophisticated ones
    // under crowdsourced (upward-biased) measurements.
    let f = fixture();
    let (cbg, _, _) = coverage_of(&Cbg);
    let (octant, _, _) = coverage_of(&QuasiOctant);
    let (spotter, _, _) = coverage_of(&Spotter::new(f.spotter_model.clone()));
    let (hybrid, _, _) = coverage_of(&Hybrid::new(f.spotter_model.clone()));
    assert!(cbg > octant + 0.2, "CBG {cbg} vs Quasi-Octant {octant}");
    assert!(cbg > spotter + 0.2, "CBG {cbg} vs Spotter {spotter}");
    assert!(cbg > hybrid + 0.2, "CBG {cbg} vs Hybrid {hybrid}");
}

#[test]
fn cbg_pays_for_coverage_with_region_size() {
    // Fig. 9C: CBG's regions are much larger than the other three's.
    let f = fixture();
    let (_, _, cbg_areas) = coverage_of(&Cbg);
    let (_, _, octant_areas) = coverage_of(&QuasiOctant);
    let (_, _, spotter_areas) = coverage_of(&Spotter::new(f.spotter_model.clone()));
    let med = |v: &[f64]| proxy_verifier::geokit::stats::median(v).unwrap_or(0.0);
    assert!(
        med(&cbg_areas) > 3.0 * med(&octant_areas),
        "CBG {} vs Octant {}",
        med(&cbg_areas),
        med(&octant_areas)
    );
    assert!(
        med(&cbg_areas) > 2.0 * med(&spotter_areas),
        "CBG {} vs Spotter {}",
        med(&cbg_areas),
        med(&spotter_areas)
    );
}

#[test]
fn centroids_are_comparably_placed() {
    // Fig. 9B: centroid-to-truth distances are in the same ballpark for
    // all algorithms (none can center its region well).
    let f = fixture();
    let mask = f.atlas.plausibility_mask();
    let algos: Vec<Box<dyn Geolocator>> = vec![
        Box::new(Cbg),
        Box::new(QuasiOctant),
        Box::new(Spotter::new(f.spotter_model.clone())),
    ];
    let mut medians = Vec::new();
    for algo in &algos {
        let mut ds = Vec::new();
        for r in &f.records {
            let p = algo.locate(&r.observations, mask);
            if let Some(c) = p.region.centroid() {
                ds.push(c.distance_km(&r.host.true_location));
            }
        }
        medians.push(proxy_verifier::geokit::stats::median(&ds).unwrap());
    }
    let max = medians.iter().copied().fold(0.0f64, f64::max);
    let min = medians.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(max < min * 12.0, "centroid medians too spread: {medians:?}");
}
