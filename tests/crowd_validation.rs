//! The §5 algorithm-validation experiment as an integration test: the
//! Fig. 9 ordering must reproduce on a fresh small cohort. Built and
//! scored as Fig. 9 is (`bench::build_crowd_context`,
//! `score_algorithm`), so an empty prediction counts as a miss.

use bench::build_crowd_context;
use bench::figures::validation::{score_algorithm, AlgorithmScores};
use proxy_verifier::geoloc::delay_model::SpotterModel;
use proxy_verifier::vpnstudy::crowd::CrowdRecord;
use proxy_verifier::{
    Cbg, CbgPlusPlus, Geolocator, Hybrid, QuasiOctant, Region, Spotter, StudyConfig,
};
use std::sync::OnceLock;

struct Fixture {
    mask: Region,
    records: Vec<CrowdRecord>,
    spotter_model: SpotterModel,
}

fn fixture() -> &'static Fixture {
    static S: OnceLock<Fixture> = OnceLock::new();
    S.get_or_init(|| {
        let ctx = build_crowd_context(StudyConfig {
            crowd_volunteers: 10,
            crowd_workers: 30,
            ..StudyConfig::small(4242)
        });
        Fixture {
            mask: ctx.mask(),
            spotter_model: ctx.spotter_model(),
            records: ctx.records,
        }
    })
}

fn score(algo: &dyn Geolocator) -> AlgorithmScores {
    let f = fixture();
    let hosts = f
        .records
        .iter()
        .map(|r| (r.host.true_location, r.observations.as_slice()));
    score_algorithm(algo, &f.mask, hosts)
}

#[test]
fn cbgpp_always_covers_the_truth() {
    // §5.1: "this algorithm eliminated all of the remaining cases where
    // the predicted region did not cover the true location." On our
    // substrate a rare (~1 host in 20) sub-100-km miss survives, caused
    // by probe landmarks inheriting their nearest anchor's bestline
    // intercept plus coarse-grid quantization — the near-border residual
    // the paper itself observes when comparing against ICLab (§6.2).
    let s = score(&CbgPlusPlus);
    assert_eq!(s.empty, 0, "CBG++ must never return an empty region");
    assert!(
        s.coverage() >= 0.92,
        "CBG++ covered only {:.0} % of hosts",
        s.coverage() * 100.0
    );
}

#[test]
fn cbg_covers_most_hosts() {
    // Fig. 9A: CBG's predictions include the truth for ~90 %.
    let coverage = score(&Cbg).coverage();
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
    let cbg = score(&Cbg).coverage();
    let octant = score(&QuasiOctant).coverage();
    let spotter = score(&Spotter::new(f.spotter_model.clone())).coverage();
    let hybrid = score(&Hybrid::new(f.spotter_model.clone())).coverage();
    assert!(cbg > octant + 0.2, "CBG {cbg} vs Quasi-Octant {octant}");
    assert!(cbg > spotter + 0.2, "CBG {cbg} vs Spotter {spotter}");
    assert!(cbg > hybrid + 0.2, "CBG {cbg} vs Hybrid {hybrid}");
}

#[test]
fn cbg_pays_for_coverage_with_region_size() {
    // Fig. 9C: CBG's regions are much larger than the other three's.
    let f = fixture();
    let cbg_areas = score(&Cbg).area_km2;
    let octant_areas = score(&QuasiOctant).area_km2;
    let spotter_areas = score(&Spotter::new(f.spotter_model.clone())).area_km2;
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
    let algos: Vec<Box<dyn Geolocator>> = vec![
        Box::new(Cbg),
        Box::new(QuasiOctant),
        Box::new(Spotter::new(f.spotter_model.clone())),
    ];
    let medians: Vec<f64> = algos
        .iter()
        .map(|algo| {
            let centroid_km = score(algo.as_ref()).centroid_km;
            proxy_verifier::geokit::stats::median(&centroid_km).unwrap()
        })
        .collect();
    let max = medians.iter().copied().fold(0.0f64, f64::max);
    let min = medians.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(max < min * 12.0, "centroid medians too spread: {medians:?}");
}
