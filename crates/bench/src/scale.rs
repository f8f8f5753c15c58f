//! Scale presets and context builders for the figure harness.

use atlas::{CalibrationDb, CalibrationSet, Constellation, ConstellationConfig, LandmarkServer};
use geoloc::delay_model::SpotterModel;
use std::sync::Arc;
use vpnstudy::audit::{Study, StudyResults};
use vpnstudy::crowd::{measure_crowd, synthesize_hosts, CrowdHost, CrowdRecord};
use vpnstudy::StudyConfig;

/// How big a reproduction run to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: CI-sized.
    Small,
    /// A couple of minutes: meaningful shapes, reduced counts.
    Medium,
    /// The paper's full scale (2269 proxies, 250 anchors, 190 crowd
    /// hosts): use `--paper` and a release build.
    Paper,
}

impl Scale {
    /// The study configuration for this scale.
    pub fn study_config(self) -> StudyConfig {
        match self {
            Scale::Small => StudyConfig::small(0x5ca1e),
            Scale::Medium => StudyConfig {
                seed: 0x3ed1,
                grid_resolution_deg: 1.0,
                constellation: ConstellationConfig {
                    seed: 0x3ed1,
                    //                      EU  AF  AS  OC  NA  CA  SA  AU
                    anchors_per_continent: [56, 4, 10, 3, 22, 1, 5, 1],
                    probes_per_continent: [120, 8, 28, 6, 60, 4, 12, 2],
                },
                calibration_pings: 15,
                attempts_per_landmark: 3,
                self_ping_attempts: 8,
                total_proxies: 500,
                client_location: geokit::GeoPoint::new(50.11, 8.68),
                crowd_volunteers: 15,
                crowd_workers: 55,
                reliability: geoloc::ReliabilityConfig::default(),
                obs_level: obs::Level::Events,
                defense: geoloc::DefenseConfig::default(),
                snapshot_every: 25,
            },
            Scale::Paper => StudyConfig::paper(),
        }
    }
}

/// A built-and-run study (the §6 audit).
pub struct StudyContext {
    /// The study (world, providers, constellation, …).
    pub study: Study,
    /// Its results.
    pub results: StudyResults,
}

/// Build and run the audit at a scale.
pub fn build_study_context(scale: Scale) -> StudyContext {
    let mut study = Study::build(scale.study_config());
    let results = study.run();
    StudyContext { study, results }
}

/// A crowd-validation context (the §5 evaluation): a world with landmarks
/// and crowd hosts, measured via the Web tool.
pub struct CrowdContext {
    /// The world (shared with the constellation and hosts).
    pub world: netsim::WorldNet,
    /// The landmark constellation.
    pub constellation: Constellation,
    /// Anchor-mesh calibration.
    pub calibration: CalibrationDb,
    /// The crowd hosts (placement ground truth included).
    pub hosts: Vec<CrowdHost>,
    /// Two-phase Web-tool measurements per host.
    pub records: Vec<CrowdRecord>,
    /// The configuration used.
    pub config: StudyConfig,
}

impl CrowdContext {
    /// The plausibility mask for predictions.
    pub fn mask(&self) -> geokit::Region {
        self.world.atlas().plausibility_mask().clone()
    }

    /// The global Spotter model, pooled over the whole anchor mesh.
    pub fn spotter_model(&self) -> SpotterModel {
        let pool: Vec<&CalibrationSet> = (0..self.constellation.num_anchors())
            .map(|i| self.calibration.for_anchor(i))
            .collect();
        SpotterModel::calibrate(&pool)
    }
}

/// Build the crowd-validation world for `config` (a scale's
/// [`Scale::study_config`], or a cohort of its own).
pub fn build_crowd_context(config: StudyConfig) -> CrowdContext {
    let atlas = Arc::new(worldmap::WorldAtlas::new(geokit::GeoGrid::new(
        config.grid_resolution_deg,
    )));
    let mut world = netsim::WorldNet::build(atlas, netsim::WorldNetConfig { seed: config.seed });
    let constellation = Constellation::place(&mut world, &config.constellation);
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
    CrowdContext {
        world,
        constellation,
        calibration,
        hosts,
        records,
        config,
    }
}
