//! The crowdsourced validation cohort (§5, Figs. 8–9).
//!
//! 40 volunteers and 150 Mechanical Turk workers in known locations ran
//! the Web measurement tool; "like the RIPE anchors, the majority are in
//! Europe and North America, but we have enough contributors elsewhere
//! for statistics" (Fig. 8). Most used Windows, which matters: the Web
//! tool's noise regime is what separates the algorithms in Fig. 9.
//!
//! Each synthetic host runs the two-phase procedure with the Web prober;
//! the resulting observation sets are fed to *all* algorithms under test,
//! so the comparison is paired.

use crate::config::StudyConfig;
use atlas::{Browser, LandmarkServer, MeasurementOs, WebTool};
use geokit::{sampling, GeoPoint};
use geoloc::twophase::{run_two_phase, WebProber};
use geoloc::Observation;
use netsim::{FilterPolicy, NodeId, WorldNet};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use worldmap::{Continent, CountryId};

/// One crowdsourced host in a known location.
#[derive(Debug, Clone)]
pub struct CrowdHost {
    /// Network node.
    pub node: NodeId,
    /// Self-reported location (ground truth for validation; the paper's
    /// volunteers rounded to ~10 km, which is far below grid resolution).
    pub true_location: GeoPoint,
    /// Country of the host.
    pub country: CountryId,
    /// Volunteer (mailing lists) vs paid MTurk worker.
    pub is_volunteer: bool,
    /// Operating system running the Web tool.
    pub os: MeasurementOs,
    /// Browser running the Web tool.
    pub browser: Browser,
}

/// A measured crowd host: the validation input for Fig. 9.
#[derive(Debug)]
pub struct CrowdRecord {
    /// The host.
    pub host: CrowdHost,
    /// Continent inferred in phase 1.
    pub continent: Continent,
    /// The two-phase observation set.
    pub observations: Vec<Observation>,
}

/// Continent weights (ALL order: EU, AF, AS, OC, NA, CA, SA, AU).
const VOLUNTEER_WEIGHTS: [f64; 8] = [0.45, 0.03, 0.10, 0.04, 0.30, 0.02, 0.05, 0.01];
const WORKER_WEIGHTS: [f64; 8] = [0.20, 0.05, 0.25, 0.04, 0.35, 0.02, 0.08, 0.01];

/// Synthesize and attach the crowd hosts.
pub fn synthesize_hosts(world: &mut WorldNet, config: &StudyConfig) -> Vec<CrowdHost> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc0ffee);
    let mut hosts = Vec::new();
    let atlas = std::sync::Arc::clone(world.atlas());
    for i in 0..(config.crowd_volunteers + config.crowd_workers) {
        let is_volunteer = i < config.crowd_volunteers;
        let weights = if is_volunteer {
            &VOLUNTEER_WEIGHTS
        } else {
            &WORKER_WEIGHTS
        };
        let continent = Continent::ALL[sampling::weighted_index(&mut rng, weights)];
        let candidates: Vec<(CountryId, f64)> = atlas
            .countries()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.continent() == continent)
            .map(|(id, c)| (id, c.hosting() + 0.05))
            .collect();
        let cw: Vec<f64> = candidates.iter().map(|&(_, w)| w).collect();
        let country = candidates[sampling::weighted_index(&mut rng, &cw)].0;
        let true_location = atlas.sample_point_in_country(country, 150.0, &mut rng);
        // Volunteers: half Linux; workers: mostly Windows (§5: "most of
        // our crowdsourced contributors used the web application under
        // Windows").
        let windows_p = if is_volunteer { 0.5 } else { 0.85 };
        let os = if sampling::coin(&mut rng, windows_p) {
            MeasurementOs::Windows
        } else {
            MeasurementOs::Linux
        };
        let browser = Browser::ALL[rng.random_range(0..Browser::ALL.len())];
        let node = world.attach_host(true_location, FilterPolicy::default());
        hosts.push(CrowdHost {
            node,
            true_location,
            country,
            is_volunteer,
            os,
            browser,
        });
    }
    hosts
}

/// Run the two-phase Web measurement for every host.
pub fn measure_crowd(
    world: &mut WorldNet,
    server: &LandmarkServer<'_>,
    hosts: &[CrowdHost],
    config: &StudyConfig,
) -> Vec<CrowdRecord> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc201d);
    let mut records = Vec::new();
    for host in hosts {
        let mut prober = WebProber {
            client: host.node,
            tool: WebTool {
                os: host.os,
                browser: host.browser,
            },
            attempts: config.attempts_per_landmark,
            rng: StdRng::seed_from_u64(rng.random()),
        };
        let Some(result) = run_two_phase(world.network_mut(), server, &mut prober, &mut rng) else {
            continue;
        };
        records.push(CrowdRecord {
            host: host.clone(),
            continent: result.continent,
            observations: result.observations,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::{CalibrationDb, Constellation, ConstellationConfig};
    use geokit::GeoGrid;
    use netsim::WorldNetConfig;
    use std::sync::{Arc, Mutex, OnceLock};
    use worldmap::WorldAtlas;

    struct Fixture {
        world: WorldNet,
        constellation: Constellation,
        calibration: CalibrationDb,
        hosts: Vec<CrowdHost>,
        records: Vec<CrowdRecord>,
    }

    fn fixture() -> &'static Mutex<Fixture> {
        static S: OnceLock<Mutex<Fixture>> = OnceLock::new();
        S.get_or_init(|| {
            let config = StudyConfig::small(7);
            let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(config.grid_resolution_deg)));
            let mut world = WorldNet::build(atlas, WorldNetConfig { seed: config.seed });
            let constellation =
                Constellation::place(&mut world, &ConstellationConfig::small(config.seed));
            let calibration = CalibrationDb::collect(
                world.network_mut(),
                &constellation,
                config.calibration_pings,
            );
            let hosts = synthesize_hosts(&mut world, &config);
            let records = {
                let atlas = Arc::clone(world.atlas());
                let server = LandmarkServer::new(&constellation, &calibration, &atlas);
                measure_crowd(&mut world, &server, &hosts, &config)
            };
            Mutex::new(Fixture {
                world,
                constellation,
                calibration,
                hosts,
                records,
            })
        })
    }

    #[test]
    fn cohort_size_and_split() {
        let f = fixture().lock().unwrap();
        assert_eq!(f.hosts.len(), 20);
        assert_eq!(f.hosts.iter().filter(|h| h.is_volunteer).count(), 6);
        let _ = (&f.constellation, &f.calibration);
    }

    #[test]
    fn most_hosts_get_measured() {
        let f = fixture().lock().unwrap();
        assert!(
            f.records.len() >= f.hosts.len() * 8 / 10,
            "only {} of {} measured",
            f.records.len(),
            f.hosts.len()
        );
        for r in &f.records {
            assert!(!r.observations.is_empty());
        }
    }

    #[test]
    fn windows_dominates_workers() {
        let f = fixture().lock().unwrap();
        let workers: Vec<_> = f.hosts.iter().filter(|h| !h.is_volunteer).collect();
        let windows = workers
            .iter()
            .filter(|h| h.os == MeasurementOs::Windows)
            .count();
        assert!(
            windows * 2 > workers.len(),
            "windows {windows}/{}",
            workers.len()
        );
    }

    #[test]
    fn continent_guesses_are_mostly_right() {
        let f = fixture().lock().unwrap();
        let atlas = f.world.atlas();
        let right = f
            .records
            .iter()
            .filter(|r| atlas.country(r.host.country).continent() == r.continent)
            .count();
        // Continent boundaries are network-blurry (Mexico answers from
        // North American landmarks, the Maghreb from Europe), so the
        // guess only needs to be right for a solid majority.
        assert!(
            right * 10 >= f.records.len() * 6,
            "only {right}/{} continent guesses correct",
            f.records.len()
        );
    }
}
