//! Test-bench VPN validation (§8.1).
//!
//! "In order to understand the errors added to our position estimates by
//! the indirect measurement procedure described in Section 5.3, we are
//! planning to set up test-bench VPN servers of our own, in known
//! locations worldwide, and attempt to measure their locations both
//! directly and indirectly."
//!
//! We *can* do that: deploy cooperative VPN servers at known locations,
//! locate each one twice — **directly** (the server measures its own RTTs
//! to the landmarks, like a crowd host running the CLI tool) and
//! **indirectly** (a remote client measures through the server's tunnel
//! with the η self-ping correction) — and compare the predictions.

use crate::config::StudyConfig;
use atlas::LandmarkServer;
use geokit::{GeoPoint, Region};
use geoloc::proxy::ProxyContext;
use geoloc::twophase::{run_two_phase, CliProber, ProxyProber};
use geoloc::Geolocator;
use netsim::{FilterPolicy, NodeId, WorldNet};
use simrng::rngs::StdRng;
use simrng::SeedableRng;

/// One test-bench server's paired measurement outcome.
#[derive(Debug)]
pub struct TestbenchComparison {
    /// Where the server really is (we put it there).
    pub location: GeoPoint,
    /// Prediction from direct (on-host) measurement.
    pub direct: Region,
    /// Prediction from indirect (through-tunnel) measurement.
    pub indirect: Region,
}

impl TestbenchComparison {
    /// Centroid error of a region vs the true location, km.
    fn centroid_err(region: &Region, truth: &GeoPoint) -> Option<f64> {
        region.centroid().map(|c| c.distance_km(truth))
    }

    /// Direct-measurement centroid error, km.
    pub fn direct_err_km(&self) -> Option<f64> {
        Self::centroid_err(&self.direct, &self.location)
    }

    /// Indirect-measurement centroid error, km.
    pub fn indirect_err_km(&self) -> Option<f64> {
        Self::centroid_err(&self.indirect, &self.location)
    }
}

/// Deploy test-bench servers at `locations` and locate each one both
/// ways. Servers are cooperative: they answer pings and run the
/// measurement tool themselves for the direct pass, and serve a VPN
/// tunnel for the indirect pass.
#[allow(clippy::too_many_arguments)]
pub fn run_testbench(
    world: &mut WorldNet,
    server: &LandmarkServer<'_>,
    locator: &dyn Geolocator,
    mask: &Region,
    locations: &[GeoPoint],
    client: NodeId,
    config: &StudyConfig,
    seed: u64,
) -> Vec<TestbenchComparison> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(locations.len());
    for &location in locations {
        // A cooperative server: default policy (pingable, measurable).
        let node = world.attach_host(location, FilterPolicy::default());

        // Direct: the server measures landmarks itself.
        let mut direct_prober = CliProber {
            client: node,
            attempts: config.attempts_per_landmark,
        };
        let Some(direct_run) =
            run_two_phase(world.network_mut(), server, &mut direct_prober, &mut rng)
        else {
            continue;
        };
        let direct = locator.locate(&direct_run.observations, mask).region;

        // Indirect: the remote client measures through the tunnel.
        let Some(ctx) = ProxyContext::establish(
            world.network_mut(),
            client,
            node,
            0.5,
            config.self_ping_attempts,
        ) else {
            continue;
        };
        let mut indirect_prober = ProxyProber::new(ctx, config.attempts_per_landmark);
        let Some(indirect_run) =
            run_two_phase(world.network_mut(), server, &mut indirect_prober, &mut rng)
        else {
            continue;
        };
        let indirect = locator.locate(&indirect_run.observations, mask).region;

        out.push(TestbenchComparison {
            location,
            direct,
            indirect,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::{CalibrationDb, Constellation};
    use geoloc::algorithms::CbgPlusPlus;
    use std::sync::Arc;
    use worldmap::WorldAtlas;

    #[test]
    fn indirect_errors_are_modest_multiples_of_direct() {
        let config = StudyConfig::small(777);
        let atlas = Arc::new(WorldAtlas::new(geokit::GeoGrid::new(
            config.grid_resolution_deg,
        )));
        let mut world = WorldNet::build(
            Arc::clone(&atlas),
            netsim::WorldNetConfig {
                seed: config.seed,
                ..Default::default()
            },
        );
        let constellation = Constellation::place(&mut world, &config.constellation);
        let calibration = CalibrationDb::collect(
            world.network_mut(),
            &constellation,
            config.calibration_pings,
        );
        let client = world.attach_host(config.client_location, FilterPolicy::default());
        let locations = [
            GeoPoint::new(52.37, 4.90),    // Amsterdam
            GeoPoint::new(40.71, -74.01),  // New York
            GeoPoint::new(1.35, 103.82),   // Singapore
            GeoPoint::new(-33.87, 151.21), // Sydney
        ];
        let comparisons = {
            let server = LandmarkServer::new(&constellation, &calibration, &atlas);
            let mask = atlas.plausibility_mask().clone();
            run_testbench(
                &mut world,
                &server,
                &CbgPlusPlus,
                &mask,
                &locations,
                client,
                &config,
                42,
            )
        };
        assert_eq!(comparisons.len(), locations.len());
        let mut direct_misses = Vec::new();
        for c in &comparisons {
            assert!(!c.direct.is_empty());
            assert!(!c.indirect.is_empty());
            let direct_miss = c.direct.distance_from_km(&c.location).unwrap();
            let indirect_miss = c.indirect.distance_from_km(&c.location).unwrap();
            direct_misses.push(direct_miss);
            // The point of the test bench: tunnelling + η correction adds
            // little on top of whatever the direct measurement achieves.
            assert!(
                indirect_miss <= direct_miss + 400.0,
                "tunnel correction degraded {}: direct {direct_miss:.0} km, indirect {indirect_miss:.0} km",
                c.location
            );
            let (d, i) = (c.direct_err_km().unwrap(), c.indirect_err_km().unwrap());
            assert!(
                i < d * 4.0 + 500.0,
                "indirect centroid error {i:.0} km vs direct {d:.0} km at {}",
                c.location
            );
        }
        // Typical direct accuracy is sub-cell; sparse-landmark regions
        // (Sydney, with two Australian landmarks in the small
        // constellation) can miss by several hundred km — the paper's
        // landmark-geometry caveat (§4).
        let median = geokit::stats::median(&direct_misses).unwrap();
        assert!(median < 250.0, "median direct miss {median:.0} km");
    }
}
