//! Integration tests for the measurement-layer findings: the §4.3 tool
//! behaviour at world scale and the §8 adversarial-proxy attacks.

use proxy_verifier::atlas::{
    Browser, CalibrationDb, CliTool, Constellation, ConstellationConfig, LandmarkServer,
    MeasurementOs, WebTool,
};
use proxy_verifier::geoloc::proxy::ProxyContext;
use proxy_verifier::geoloc::twophase::{run_two_phase, ProxyProber};
use proxy_verifier::netsim::{FilterPolicy, WorldNet, WorldNetConfig};
use proxy_verifier::{CbgPlusPlus, GeoGrid, GeoPoint, Geolocator, WorldAtlas};
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::sync::Arc;

struct Fixture {
    world: WorldNet,
    constellation: Constellation,
    calibration: CalibrationDb,
    /// A VPN proxy truly in Amsterdam: dense landmarks nearby give a
    /// tightly localized honest region — the right stage for the
    /// delay-inflation attack.
    proxy_ams: u32,
    /// Amsterdam proxy's true location.
    truth_ams: GeoPoint,
    /// A VPN proxy truly in Johannesburg — far from the European
    /// landmark clusters an RTT-deflation attack collapses onto — the
    /// right stage for the SYN-ACK-forging attack.
    proxy_jnb: u32,
    /// Johannesburg proxy's true location.
    truth_jnb: GeoPoint,
    /// The measurement client in Frankfurt.
    client: u32,
}

/// A freshly built world for one test. Each test advances the network
/// clock and RNG, attaches hosts and sets faults, so tests never share
/// one: their results would depend on the order the harness ran them in.
fn fixture() -> Fixture {
    let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
    let mut world = WorldNet::build(atlas, WorldNetConfig::default());
    let constellation = Constellation::place(&mut world, &ConstellationConfig::small(55));
    let calibration = CalibrationDb::collect(world.network_mut(), &constellation, 10);
    let truth_ams = GeoPoint::new(52.37, 4.90);
    let proxy_ams = world.attach_host(truth_ams, FilterPolicy::vpn_server());
    let truth_jnb = GeoPoint::new(-26.20, 28.05);
    let proxy_jnb = world.attach_host(truth_jnb, FilterPolicy::vpn_server());
    let client = world.attach_host(GeoPoint::new(50.11, 8.68), FilterPolicy::default());
    Fixture {
        world,
        constellation,
        calibration,
        proxy_ams,
        truth_ams,
        proxy_jnb,
        truth_jnb,
        client,
    }
}

#[test]
fn web_tool_slope_ratio_is_about_two() {
    // Fig. 4: the Web tool's two-round-trip group has ≈ 2× the slope of
    // its one-round-trip group (paper: 1.96 on Linux).
    let mut g = fixture();
    let Fixture {
        world,
        constellation,
        ..
    } = &mut g;
    let client_loc = GeoPoint::new(50.06, 8.6);
    let client = world.attach_host(client_loc, FilterPolicy::default());
    let tool = WebTool {
        os: MeasurementOs::Linux,
        browser: Browser::Chrome,
    };
    let mut rng = StdRng::seed_from_u64(44);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for lm in constellation.landmarks() {
        if let Some(s) = tool.measure(world.network_mut(), client, lm.node, &mut rng) {
            let d = client_loc.distance_km(&lm.location);
            if s.true_round_trips == 1 {
                one.push((d, s.rtt_ms));
            } else {
                two.push((d, s.rtt_ms));
            }
        }
    }
    let l1 = proxy_verifier::geokit::regress::ols_line(&one).expect("1rt group");
    let l2 = proxy_verifier::geokit::regress::ols_line(&two).expect("2rt group");
    let ratio = l2.slope / l1.slope;
    assert!(
        (1.6..=2.5).contains(&ratio),
        "slope ratio {ratio} (paper: 1.96)"
    );
}

#[test]
fn cli_tool_matches_the_one_round_trip_group() {
    // §4.3's ANOVA conclusion: CLI and one-round-trip Web measurements
    // estimate the same delay–distance relationship.
    let mut g = fixture();
    let Fixture {
        world,
        constellation,
        ..
    } = &mut g;
    let client_loc = GeoPoint::new(50.06, 8.6);
    let client = world.attach_host(client_loc, FilterPolicy::default());
    let mut cli = Vec::new();
    for lm in constellation.landmarks() {
        if let Some(s) = CliTool.measure(world.network_mut(), client, lm.node) {
            cli.push((client_loc.distance_km(&lm.location), s.rtt_ms));
        }
    }
    let tool = WebTool {
        os: MeasurementOs::Linux,
        browser: Browser::Firefox,
    };
    let mut rng = StdRng::seed_from_u64(45);
    let mut web1 = Vec::new();
    for lm in constellation.landmarks() {
        if lm.port_80_open {
            continue; // keep only the one-round-trip population
        }
        if let Some(s) = tool.measure(world.network_mut(), client, lm.node, &mut rng) {
            web1.push((client_loc.distance_km(&lm.location), s.rtt_ms));
        }
    }
    let lc = proxy_verifier::geokit::regress::ols_line(&cli).unwrap();
    let lw = proxy_verifier::geokit::regress::ols_line(&web1).unwrap();
    assert!(
        (lc.slope - lw.slope).abs() < 0.25 * lc.slope,
        "CLI slope {} vs Web-1rt slope {}",
        lc.slope,
        lw.slope
    );
}

fn locate_proxy_region(f: &mut Fixture, proxy: u32, client: u32) -> Option<proxy_verifier::Region> {
    let atlas = Arc::clone(f.world.atlas());
    let server = LandmarkServer::new(&f.constellation, &f.calibration, &atlas);
    let ctx = ProxyContext::establish(f.world.network_mut(), client, proxy, 0.5, 8)?;
    let mut prober = ProxyProber::new(ctx, 3);
    let mut rng = StdRng::seed_from_u64(7);
    let result = run_two_phase(f.world.network_mut(), &server, &mut prober, &mut rng)?;
    Some(
        CbgPlusPlus
            .locate(&result.observations, atlas.plausibility_mask())
            .region,
    )
}

#[test]
fn added_delay_inflates_the_region_without_breaking_coverage() {
    // Gill et al. (§8): an adversary adding delay makes CBG-family
    // regions *bigger* (simple models can't be dragged off the truth by
    // delay inflation alone).
    let mut g = fixture();
    let (proxy, client, truth) = (g.proxy_ams, g.client, g.truth_ams);

    let honest = locate_proxy_region(&mut g, proxy, client).expect("measurable");
    assert!(honest.contains_point(&truth));

    g.world
        .network_mut()
        .faults_mut()
        .set_added_delay(proxy, 30.0, 2.0);
    let delayed = locate_proxy_region(&mut g, proxy, client).expect("measurable");
    g.world
        .network_mut()
        .faults_mut()
        .set_added_delay(proxy, 0.0, 0.0);

    assert!(
        delayed.area_km2() > 3.0 * honest.area_km2(),
        "delay should balloon the region: {} vs {}",
        delayed.area_km2(),
        honest.area_km2()
    );
    assert!(delayed.contains_point(&truth));
}

#[test]
fn forged_synacks_corrupt_the_prediction() {
    // Abdou et al. (§8): deflating RTTs by forging SYN-ACKs makes every
    // landmark look adjacent, so the honest region is replaced by a
    // degenerate one — usually displaced entirely, occasionally a tiny
    // fragment that happens to sit near some landmark. Either way the
    // prediction collapses far below the honest region's size and no
    // longer resembles it.
    let mut g = fixture();
    let (proxy, client, truth) = (g.proxy_jnb, g.client, g.truth_jnb);

    let honest = locate_proxy_region(&mut g, proxy, client).expect("measurable");
    assert!(honest.contains_point(&truth));

    g.world
        .network_mut()
        .faults_mut()
        .set_forge_synack(proxy, true);
    let forged = locate_proxy_region(&mut g, proxy, client).expect("measurable");
    g.world
        .network_mut()
        .faults_mut()
        .set_forge_synack(proxy, false);

    // Corruption signals: displaced off the truth entirely, collapsed to
    // a sliver, or shattered into fragments scattered across far more
    // countries than any honest contiguous region would touch.
    let atlas = Arc::clone(g.world.atlas());
    let honest_countries = atlas.countries_touched(&honest).len();
    let forged_countries = atlas.countries_touched(&forged).len();
    let displaced = !forged.contains_point(&truth);
    let degenerate = forged.area_km2() < honest.area_km2() * 0.5;
    let shattered = forged_countries >= honest_countries * 3;
    assert!(
        displaced || degenerate || shattered,
        "forged SYN-ACKs should corrupt the prediction (honest {:.0} km² over {honest_countries} countries, \
         forged {:.0} km² over {forged_countries} countries, covers truth: {})",
        honest.area_km2(),
        forged.area_km2(),
        !displaced
    );
}
