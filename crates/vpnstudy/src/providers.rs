//! The seven VPN providers under audit and their server deployments.
//!
//! Provider profiles follow Fig. 14: A–E are among the 20 broadest
//! claimers (A advertises servers in nearly every sovereign state,
//! "including implausible locations such as North Korea, Vatican City,
//! and Pitcairn Island", §1); F and G make "more modest and typical
//! claims". Ground truth follows §1/§6: servers concentrate "in countries
//! where server hosting is cheap and reliable (e.g. Czech Republic,
//! Germany, Netherlands, UK, USA)", and claims in hosting-hostile
//! countries are almost always false.
//!
//! Deployment details that the disambiguation analysis depends on:
//! servers placed in the same data-center city by the same provider share
//! an AS and a /24 (Fig. 16), and roughly 10 % of servers answer direct
//! pings (§5.3's η estimation set) while the rest filter ICMP (§4.2).

use crate::config::StudyConfig;
use geokit::sampling;
use geokit::GeoPoint;
use netsim::{FilterPolicy, NodeId, WorldNet};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use worldmap::market::{claim_popularity_order, MarketSurvey};
use worldmap::CountryId;

/// Static profile of one provider.
#[derive(Debug, Clone)]
pub struct ProviderProfile {
    /// Letter name, as the paper anonymizes them.
    pub name: char,
    /// Rank in the 157-provider market survey (0 = broadest claimer).
    pub market_rank: usize,
    /// Share of the study's proxies operated by this provider.
    pub share: f64,
    /// Probability that a *feasible* claim is honoured (the provider
    /// really operates hardware in the claimed country).
    pub honesty: f64,
    /// Probability that a dishonest server is at least placed on the
    /// claimed country's continent.
    pub same_continent_bias: f64,
}

/// The paper's seven providers.
///
/// A claims everything and is "especially misleading" (§8); B–E are broad
/// claimers of varying honesty ("C and E are actually hosting servers in
/// more than one country of South America, whereas providers A and B just
/// say they are"); F and G are modest.
pub fn paper_providers() -> Vec<ProviderProfile> {
    vec![
        ProviderProfile {
            name: 'A',
            market_rank: 0,
            share: 0.22,
            honesty: 0.35,
            same_continent_bias: 0.35,
        },
        ProviderProfile {
            name: 'B',
            market_rank: 3,
            share: 0.18,
            honesty: 0.42,
            same_continent_bias: 0.40,
        },
        ProviderProfile {
            name: 'C',
            market_rank: 7,
            share: 0.16,
            honesty: 0.66,
            same_continent_bias: 0.65,
        },
        ProviderProfile {
            name: 'D',
            market_rank: 10,
            share: 0.14,
            honesty: 0.72,
            same_continent_bias: 0.60,
        },
        ProviderProfile {
            name: 'E',
            market_rank: 15,
            share: 0.12,
            honesty: 0.56,
            same_continent_bias: 0.70,
        },
        ProviderProfile {
            name: 'F',
            market_rank: 45,
            share: 0.10,
            honesty: 0.80,
            same_continent_bias: 0.70,
        },
        ProviderProfile {
            name: 'G',
            market_rank: 70,
            share: 0.08,
            honesty: 0.86,
            same_continent_bias: 0.75,
        },
    ]
}

/// Minimum hosting score for a country to physically host a server.
pub const HOSTING_FEASIBILITY_THRESHOLD: f64 = 0.15;

/// One deployed proxy server (ground truth + metadata).
#[derive(Debug, Clone)]
pub struct DeployedProxy {
    /// Network node of the server.
    pub node: NodeId,
    /// Index into the provider list.
    pub provider: usize,
    /// Country the provider claims for this server.
    pub claimed: CountryId,
    /// Country the server is actually in (ground truth).
    pub true_country: CountryId,
    /// Exact location (ground truth).
    pub true_location: GeoPoint,
    /// Same-rack group: (provider, true-country, hub index). Servers with
    /// equal keys share an AS and a /24.
    pub group_key: (usize, CountryId, usize),
    /// Whether this server answers direct ICMP pings (~10 %).
    pub pingable: bool,
    /// The server's first-hop gateway router (§4.2: ~90 % of these are
    /// invisible to ping and traceroute).
    pub gateway: NodeId,
}

/// The deployed provider fleet.
#[derive(Debug)]
pub struct ProviderSet {
    /// Profiles, indexed by `DeployedProxy::provider`.
    pub profiles: Vec<ProviderProfile>,
    /// Per-provider claimed-country sets.
    pub claims: Vec<Vec<CountryId>>,
    /// All deployed proxies.
    pub proxies: Vec<DeployedProxy>,
}

impl ProviderSet {
    /// Generate claims, choose true placements, and attach every server
    /// to the network.
    pub fn deploy(
        world: &mut WorldNet,
        survey: &MarketSurvey,
        config: &StudyConfig,
    ) -> ProviderSet {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xdeb107);
        let profiles = paper_providers();
        let atlas = std::sync::Arc::clone(world.atlas());
        let popularity = claim_popularity_order(&atlas);

        // Hosting havens for dishonest placement, weighted by hosting²
        // (concentration: "providers seem to prefer to concentrate their
        // hosts in a few locations", §6).
        let havens: Vec<(CountryId, f64)> = atlas
            .countries()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.hosting() >= 0.55)
            .map(|(id, c)| (id, c.hosting() * c.hosting()))
            .collect();

        let mut claims = Vec::with_capacity(profiles.len());
        let mut proxies: Vec<DeployedProxy> = Vec::new();

        for (pidx, profile) in profiles.iter().enumerate() {
            let claimed_set = survey.providers()[profile.market_rank].claimed.clone();
            let n_servers = ((config.total_proxies as f64) * profile.share)
                .round()
                .max(1.0) as usize;

            // Allocate servers to claimed countries: popular countries get
            // multiple servers, the long tail one each (cycled).
            let mut by_popularity: Vec<CountryId> = popularity
                .iter()
                .copied()
                .filter(|c| claimed_set.binary_search(c).is_ok())
                .collect();
            if by_popularity.is_empty() {
                by_popularity = claimed_set.clone();
            }
            let mut assignments: Vec<CountryId> = Vec::with_capacity(n_servers);
            // 55 % of servers across the 10 most popular claims…
            let head = (n_servers * 55 / 100).max(1);
            for k in 0..head {
                assignments.push(by_popularity[k % by_popularity.len().min(10)]);
            }
            // …the rest cycle through the whole claim set.
            for k in 0..(n_servers - head) {
                assignments.push(by_popularity[k % by_popularity.len()]);
            }

            for claimed in assignments {
                let claimed_country = atlas.country(claimed);
                let feasible = claimed_country.hosting() >= HOSTING_FEASIBILITY_THRESHOLD;
                let honest = feasible && sampling::coin(&mut rng, profile.honesty);
                let true_country = if honest {
                    claimed
                } else {
                    // Prefer a haven on the claimed continent when the
                    // provider cares about appearances.
                    let same_continent: Vec<(CountryId, f64)> = havens
                        .iter()
                        .copied()
                        .filter(|&(id, _)| {
                            atlas.country(id).continent() == claimed_country.continent()
                        })
                        .collect();
                    let pool = if !same_continent.is_empty()
                        && sampling::coin(&mut rng, profile.same_continent_bias)
                    {
                        &same_continent
                    } else {
                        &havens
                    };
                    let weights: Vec<f64> = pool.iter().map(|&(_, w)| w).collect();
                    pool[sampling::weighted_index(&mut rng, &weights)].0
                };

                // Physical placement: at one of the true country's hubs
                // (data centers live at hubs).
                let hubs = atlas.country(true_country).hubs();
                let hub_weights: Vec<f64> = hubs.iter().map(|h| h.weight).collect();
                let hub_idx = sampling::weighted_index(&mut rng, &hub_weights);
                let hub = &hubs[hub_idx];
                let true_location = GeoPoint::new(
                    hub.lat + rng.random_range(-0.08..0.08),
                    hub.lon + rng.random_range(-0.08..0.08),
                );

                let pingable = sampling::coin(&mut rng, 0.10);
                let mut policy = FilterPolicy::vpn_server();
                policy.drop_icmp_echo = !pingable;
                // §4.2: ~90 % of tunnel gateways are dark — no echo
                // replies, no time-exceeded — so traceroute loses the
                // trail one hop before the server.
                let gateway_dark = sampling::coin(&mut rng, 0.90);
                let gateway_policy = FilterPolicy {
                    drop_icmp_echo: gateway_dark,
                    drop_time_exceeded: gateway_dark,
                    ..FilterPolicy::default()
                };
                let (node, gateway) =
                    world.attach_host_via_gateway(true_location, policy, gateway_policy);

                proxies.push(DeployedProxy {
                    node,
                    provider: pidx,
                    claimed,
                    true_country,
                    true_location,
                    group_key: (pidx, true_country, hub_idx),
                    pingable,
                    gateway,
                });
            }
            claims.push(claimed_set);
        }

        // Metadata: per group, one AS and one /24.
        assign_network_metadata(world, &mut proxies);

        ProviderSet {
            profiles,
            claims,
            proxies,
        }
    }

    /// Ground-truth honesty rate (fraction of proxies whose true country
    /// equals the claim) — used by tests and the DESIGN targets, never by
    /// the measurement pipeline.
    pub fn ground_truth_honesty(&self) -> f64 {
        if self.proxies.is_empty() {
            return 0.0;
        }
        let honest = self
            .proxies
            .iter()
            .filter(|p| p.claimed == p.true_country)
            .count();
        honest as f64 / self.proxies.len() as f64
    }

    /// Group proxies by their co-location key (provider + AS + /24).
    pub fn colocation_groups(&self) -> Vec<Vec<usize>> {
        let mut sorted: Vec<usize> = (0..self.proxies.len()).collect();
        sorted.sort_by_key(|&i| self.proxies[i].group_key);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for idx in sorted {
            match groups.last_mut() {
                Some(g) if self.proxies[g[0]].group_key == self.proxies[idx].group_key => {
                    g.push(idx)
                }
                _ => groups.push(vec![idx]),
            }
        }
        groups
    }
}

/// Give every co-location group a distinct AS and /24; hosts within a
/// group get sequential addresses in it.
fn assign_network_metadata(world: &mut WorldNet, proxies: &mut [DeployedProxy]) {
    let mut order: Vec<usize> = (0..proxies.len()).collect();
    order.sort_by_key(|&i| proxies[i].group_key);
    let mut group_no: u32 = 0;
    let mut last_key = None;
    let mut host_no: u32 = 0;
    for idx in order {
        let key = proxies[idx].group_key;
        if last_key != Some(key) {
            group_no += 1;
            host_no = 0;
            last_key = Some(key);
        }
        host_no += 1;
        let topo = world.network_mut().topology_mut();
        let node = topo.node_mut(proxies[idx].node);
        node.as_number = 60_000 + group_no;
        node.ip = (10u32 << 24) | (group_no << 8) | (host_no & 0xff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoGrid;
    use netsim::WorldNetConfig;
    use std::sync::{Arc, OnceLock};
    use worldmap::{Continent, WorldAtlas};

    struct Fixture {
        world: WorldNet,
        set: ProviderSet,
    }

    fn fixture() -> &'static Fixture {
        static S: OnceLock<Fixture> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
            let survey = MarketSurvey::generate(&atlas, 1807);
            let mut world = WorldNet::build(atlas, WorldNetConfig::default());
            let config = StudyConfig {
                total_proxies: 400,
                ..StudyConfig::small(33)
            };
            let set = ProviderSet::deploy(&mut world, &survey, &config);
            Fixture { world, set }
        })
    }

    #[test]
    fn deploys_roughly_requested_count() {
        let f = fixture();
        let n = f.set.proxies.len();
        assert!((380..=420).contains(&n), "deployed {n}");
        assert_eq!(f.set.profiles.len(), 7);
    }

    #[test]
    fn provider_a_claims_most() {
        let f = fixture();
        let counts: Vec<usize> = f.set.claims.iter().map(Vec::len).collect();
        assert!(counts[0] > 180, "A claims {}", counts[0]);
        assert!(counts[6] < counts[0] / 2, "G should claim far less than A");
    }

    #[test]
    fn dishonest_servers_live_in_havens() {
        let f = fixture();
        let atlas = f.world.atlas();
        for p in &f.set.proxies {
            if p.claimed != p.true_country {
                assert!(
                    atlas.country(p.true_country).hosting() >= 0.55,
                    "dishonest server in non-haven {}",
                    atlas.country(p.true_country).iso2()
                );
            }
        }
    }

    #[test]
    fn infeasible_claims_are_never_honoured() {
        let f = fixture();
        let atlas = f.world.atlas();
        for p in &f.set.proxies {
            if atlas.country(p.claimed).hosting() < HOSTING_FEASIBILITY_THRESHOLD {
                assert_ne!(
                    p.claimed,
                    p.true_country,
                    "server honestly placed in hosting-hostile {}",
                    atlas.country(p.claimed).iso2()
                );
            }
        }
    }

    #[test]
    fn overall_honesty_is_paper_like() {
        // Headline: at least a third of servers are NOT where claimed;
        // at most ~70 % could be where claimed.
        let f = fixture();
        let h = f.set.ground_truth_honesty();
        assert!((0.30..=0.70).contains(&h), "ground-truth honesty {h}");
    }

    #[test]
    fn groups_share_as_and_slash24() {
        let f = fixture();
        let topo = f.world.network().topology();
        for group in f.set.colocation_groups() {
            let first = &f.set.proxies[group[0]];
            let as0 = topo.node(first.node).as_number;
            let net0 = topo.node(first.node).ip >> 8;
            for &i in &group {
                let p = &f.set.proxies[i];
                assert_eq!(topo.node(p.node).as_number, as0);
                assert_eq!(topo.node(p.node).ip >> 8, net0);
                assert_eq!(p.true_country, first.true_country);
            }
        }
    }

    #[test]
    fn distinct_groups_have_distinct_slash24() {
        let f = fixture();
        let topo = f.world.network().topology();
        let groups = f.set.colocation_groups();
        let mut nets: Vec<u32> = groups
            .iter()
            .map(|g| topo.node(f.set.proxies[g[0]].node).ip >> 8)
            .collect();
        nets.sort_unstable();
        let n = nets.len();
        nets.dedup();
        assert_eq!(nets.len(), n, "duplicate /24 across groups");
    }

    #[test]
    fn about_ten_percent_pingable() {
        let f = fixture();
        let pingable = f.set.proxies.iter().filter(|p| p.pingable).count();
        let frac = pingable as f64 / f.set.proxies.len() as f64;
        assert!((0.04..0.20).contains(&frac), "pingable fraction {frac}");
    }

    #[test]
    fn same_continent_bias_shows_up() {
        // Among dishonest placements, a visible share stays on the
        // claimed continent (the paper's "462 of the uncertain addresses
        // … on the same continent").
        let f = fixture();
        let atlas = f.world.atlas();
        let (mut same, mut total) = (0usize, 0usize);
        for p in &f.set.proxies {
            if p.claimed != p.true_country {
                total += 1;
                if atlas.country(p.claimed).continent() == atlas.country(p.true_country).continent()
                {
                    same += 1;
                }
            }
        }
        assert!(total > 50);
        let frac = same as f64 / total as f64;
        assert!(frac > 0.2, "same-continent fraction {frac}");
    }

    #[test]
    fn european_dishonest_servers_prefer_europe() {
        let f = fixture();
        let atlas = f.world.atlas();
        let mut eu_claims_in_eu = 0;
        let mut eu_claims = 0;
        for p in &f.set.proxies {
            if p.claimed != p.true_country
                && atlas.country(p.claimed).continent() == Continent::Europe
            {
                eu_claims += 1;
                if atlas.country(p.true_country).continent() == Continent::Europe {
                    eu_claims_in_eu += 1;
                }
            }
        }
        if eu_claims > 20 {
            let frac = f64::from(eu_claims_in_eu) / f64::from(eu_claims);
            assert!(frac > 0.4, "EU relocation fraction {frac}");
        }
    }
}
