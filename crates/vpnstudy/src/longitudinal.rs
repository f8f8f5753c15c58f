//! Longitudinal auditing (§8.1).
//!
//! "This will also allow us to repeat the measurements over time, and
//! report on whether providers become more or less honest as the wider
//! ecosystem changes."
//!
//! Each epoch the providers *churn*: a fraction of servers is retired and
//! re-deployed against the same claim, with the provider's honesty
//! drifting epoch over epoch (a provider under public scrutiny may clean
//! up; a provider chasing margins may consolidate further into havens).
//! The audit re-runs per epoch against the evolving fleet, producing the
//! honesty-over-time series the paper wanted to publish.

use crate::audit::{Study, StudyResults};
use crate::providers::{DeployedProxy, HOSTING_FEASIBILITY_THRESHOLD};
use geokit::sampling;
use geokit::GeoPoint;
use netsim::FilterPolicy;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

/// Per-epoch churn parameters.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Fraction of each provider's servers replaced per epoch.
    pub turnover: f64,
    /// Additive drift applied to each provider's honesty per epoch
    /// (positive = cleaning up, negative = consolidating). One entry per
    /// provider; shorter vectors repeat their last element.
    pub honesty_drift: Vec<f64>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            turnover: 0.25,
            // A cleans up under scrutiny; B keeps sliding; the rest hold.
            honesty_drift: vec![0.15, -0.08, 0.0, 0.0, 0.0, 0.0, 0.0],
        }
    }
}

/// One epoch's summary.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch number (0 = the initial audit).
    pub epoch: usize,
    /// (credible, uncertain, false) refined counts.
    pub counts: (usize, usize, usize),
    /// Ground-truth honesty of the fleet at this epoch (evaluation only).
    pub true_honesty: f64,
    /// Ground-truth honesty per provider (evaluation only).
    pub provider_true_honesty: Vec<f64>,
    /// Measured per-provider strict agreement.
    pub provider_agreement: Vec<f64>,
}

/// Run `epochs` audits with churn in between. Returns one report per
/// epoch, including the initial state.
pub fn run_longitudinal(study: &mut Study, epochs: usize, churn: &ChurnConfig) -> Vec<EpochReport> {
    let mut rng = StdRng::seed_from_u64(study.config.seed ^ 0x10e6);
    let mut honesty: Vec<f64> = study.providers.profiles.iter().map(|p| p.honesty).collect();
    let mut reports = Vec::with_capacity(epochs + 1);

    for epoch in 0..=epochs {
        if epoch > 0 {
            // Drift provider honesty…
            for (i, h) in honesty.iter_mut().enumerate() {
                let drift = churn
                    .honesty_drift
                    .get(i)
                    .or(churn.honesty_drift.last())
                    .copied()
                    .unwrap_or(0.0);
                *h = (*h + drift).clamp(0.02, 0.98);
            }
            // …and churn the fleet.
            churn_fleet(study, &honesty, churn.turnover, &mut rng);
        }
        let results: StudyResults = study.run();
        let provider_agreement = (0..study.providers.profiles.len())
            .map(|p| results.cbgpp_agreement(p, false))
            .collect();
        let provider_true_honesty = (0..study.providers.profiles.len())
            .map(|pidx| {
                let (honest, total) = study
                    .providers
                    .proxies
                    .iter()
                    .filter(|p| p.provider == pidx)
                    .fold((0usize, 0usize), |(h, t), p| {
                        (h + usize::from(p.claimed == p.true_country), t + 1)
                    });
                honest as f64 / total.max(1) as f64
            })
            .collect();
        reports.push(EpochReport {
            epoch,
            counts: results.counts(true),
            true_honesty: study.providers.ground_truth_honesty(),
            provider_true_honesty,
            provider_agreement,
        });
    }
    reports
}

/// Replace a fraction of each provider's servers: same claim, fresh
/// placement under the provider's *current* honesty.
fn churn_fleet(study: &mut Study, honesty: &[f64], turnover: f64, rng: &mut StdRng) {
    let atlas = std::sync::Arc::clone(study.world.atlas());
    let havens: Vec<(usize, f64)> = atlas
        .countries()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.hosting() >= 0.55)
        .map(|(id, c)| (id, c.hosting() * c.hosting()))
        .collect();
    let haven_weights: Vec<f64> = havens.iter().map(|&(_, w)| w).collect();

    let n = study.providers.proxies.len();
    for i in 0..n {
        if !sampling::coin(rng, turnover) {
            continue;
        }
        let old: DeployedProxy = study.providers.proxies[i].clone();
        let profile = &study.providers.profiles[old.provider];
        let claimed_country = atlas.country(old.claimed);
        let feasible = claimed_country.hosting() >= HOSTING_FEASIBILITY_THRESHOLD;
        let honest = feasible && sampling::coin(rng, honesty[old.provider]);
        let true_country = if honest {
            old.claimed
        } else {
            let same_continent: Vec<(usize, f64)> = havens
                .iter()
                .copied()
                .filter(|&(id, _)| atlas.country(id).continent() == claimed_country.continent())
                .collect();
            if !same_continent.is_empty() && sampling::coin(rng, profile.same_continent_bias) {
                let w: Vec<f64> = same_continent.iter().map(|&(_, x)| x).collect();
                same_continent[sampling::weighted_index(rng, &w)].0
            } else {
                havens[sampling::weighted_index(rng, &haven_weights)].0
            }
        };
        let hubs = atlas.country(true_country).hubs();
        let hub_weights: Vec<f64> = hubs.iter().map(|h| h.weight).collect();
        let hub_idx = sampling::weighted_index(rng, &hub_weights);
        let hub = &hubs[hub_idx];
        let true_location = GeoPoint::new(
            hub.lat + rng.random_range(-0.08..0.08),
            hub.lon + rng.random_range(-0.08..0.08),
        );
        let pingable = sampling::coin(rng, 0.10);
        let mut policy = FilterPolicy::vpn_server();
        policy.drop_icmp_echo = !pingable;
        let gateway_dark = sampling::coin(rng, 0.90);
        let gateway_policy = FilterPolicy {
            drop_icmp_echo: gateway_dark,
            drop_time_exceeded: gateway_dark,
            ..FilterPolicy::default()
        };
        let (node, gateway) =
            study
                .world
                .attach_host_via_gateway(true_location, policy, gateway_policy);
        study.providers.proxies[i] = DeployedProxy {
            node,
            provider: old.provider,
            claimed: old.claimed,
            true_country,
            true_location,
            group_key: (old.provider, true_country, hub_idx),
            pingable,
            gateway,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn honesty_trend_is_visible_in_the_audit() {
        let mut study = Study::build(StudyConfig {
            total_proxies: 80,
            ..StudyConfig::small(2)
        });
        let churn = ChurnConfig {
            turnover: 0.5,
            // Provider A cleans up aggressively; B degrades.
            honesty_drift: vec![0.25, -0.15, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        let reports = run_longitudinal(&mut study, 2, &churn);
        assert_eq!(reports.len(), 3);

        // Ground truth must drift per provider in the configured
        // direction: A (drift +0.25/epoch at 50 % turnover) gets
        // substantially cleaner.
        let a_honesty_first = reports[0].provider_true_honesty[0];
        let a_honesty_last = reports.last().unwrap().provider_true_honesty[0];
        assert!(
            a_honesty_last > a_honesty_first + 0.10,
            "provider A's true honesty should rise: {a_honesty_first:.2} → {a_honesty_last:.2}"
        );

        // And the *measured* per-provider agreement tracks it: A's strict
        // agreement should improve from epoch 0 to the final epoch.
        let a_first = reports[0].provider_agreement[0];
        let a_last = reports.last().unwrap().provider_agreement[0];
        assert!(
            a_last > a_first - 0.05,
            "provider A's measured agreement should not fall: {a_first} → {a_last}"
        );

        // Counts partition the fleet each epoch.
        for r in &reports {
            let (c, u, f) = r.counts;
            assert!(c + u + f > 0);
        }
    }

    #[test]
    fn zero_turnover_keeps_the_fleet() {
        let mut study = Study::build(StudyConfig {
            total_proxies: 40,
            ..StudyConfig::small(617)
        });
        let before: Vec<u32> = study.providers.proxies.iter().map(|p| p.node).collect();
        let churn = ChurnConfig {
            turnover: 0.0,
            honesty_drift: vec![0.0],
        };
        let _ = run_longitudinal(&mut study, 1, &churn);
        let after: Vec<u32> = study.providers.proxies.iter().map(|p| p.node).collect();
        assert_eq!(before, after);
    }
}
