//! The §4.2 measurement-feasibility survey.
//!
//! Before designing its TCP-connect tool, the paper surveyed what the
//! proxies would even answer: "roughly 90 % of the VPN servers we tested
//! ignore ICMP ping requests. Similarly, 90 % of the default gateways for
//! VPN tunnels … ignore ping requests and do not send time-exceeded
//! packets, which means we cannot see them in a traceroute either." The
//! consequence is the whole measurement design: TCP connections to a
//! common port are the only reliable probe.
//!
//! This module repeats that survey against the deployed fleet; `figures
//! fig13` prints its three rates beside the η fit.

use crate::providers::DeployedProxy;
use netsim::{Network, NodeId};

/// Results of the feasibility survey.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeasibilitySurvey {
    /// Proxies tested.
    pub total: usize,
    /// Proxies answering a direct ICMP echo.
    pub ping_responders: usize,
    /// Proxies whose first-hop gateway appears in a traceroute (sends
    /// time-exceeded).
    pub gateway_visible: usize,
    /// Proxies reachable by a TCP connect on port 443 (the probe that
    /// always works, §4.2).
    pub tcp_measurable: usize,
}

impl FeasibilitySurvey {
    /// Fraction of proxies answering pings.
    pub fn ping_rate(&self) -> f64 {
        self.ping_responders as f64 / self.total.max(1) as f64
    }

    /// Fraction of gateways visible to traceroute.
    pub fn gateway_rate(&self) -> f64 {
        self.gateway_visible as f64 / self.total.max(1) as f64
    }

    /// Fraction of proxies measurable by TCP connect.
    pub fn tcp_rate(&self) -> f64 {
        self.tcp_measurable as f64 / self.total.max(1) as f64
    }
}

/// Survey every proxy: ping it, traceroute towards it looking for the
/// gateway, and try the TCP connect that the real tooling relies on.
pub fn survey_feasibility(
    network: &mut Network,
    client: NodeId,
    proxies: &[DeployedProxy],
) -> FeasibilitySurvey {
    let mut out = FeasibilitySurvey {
        total: proxies.len(),
        ..Default::default()
    };
    for proxy in proxies {
        if network.ping(client, proxy.node).is_some() {
            out.ping_responders += 1;
        }
        // Traceroute towards the proxy: the gateway is visible iff some
        // hop reports the gateway node.
        let hops = network.traceroute(client, proxy.node, 32);
        if hops.contains(&Some(proxy.gateway)) {
            out.gateway_visible += 1;
        }
        if network.tcp_connect_rtt(client, proxy.node, 443).is_some() {
            out.tcp_measurable += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Study;
    use crate::config::StudyConfig;

    #[test]
    fn survey_matches_the_papers_percentages() {
        let mut study = Study::build(StudyConfig {
            total_proxies: 120,
            ..StudyConfig::small(808)
        });
        let proxies = study.providers.proxies.clone();
        let survey = survey_feasibility(study.world.network_mut(), study.client, &proxies);
        assert_eq!(survey.total, proxies.len());
        // §4.2: ~10 % answer pings; ~10 % of gateways visible; TCP works
        // for everyone.
        assert!(
            (0.04..=0.20).contains(&survey.ping_rate()),
            "ping rate {:.2}",
            survey.ping_rate()
        );
        assert!(
            (0.04..=0.20).contains(&survey.gateway_rate()),
            "gateway visibility {:.2}",
            survey.gateway_rate()
        );
        assert!(
            survey.tcp_rate() > 0.99,
            "TCP connect should always measure ({:.2})",
            survey.tcp_rate()
        );
    }

    #[test]
    fn pingable_flag_matches_survey() {
        let mut study = Study::build(StudyConfig {
            total_proxies: 60,
            ..StudyConfig::small(809)
        });
        let proxies = study.providers.proxies.clone();
        for p in &proxies {
            let answers = study
                .world
                .network_mut()
                .ping(study.client, p.node)
                .is_some();
            assert_eq!(
                answers, p.pingable,
                "deployment flag and behaviour disagree"
            );
        }
    }
}
