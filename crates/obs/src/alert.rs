//! The SLO alert engine: typed health rules evaluated over exported
//! metrics ([`MetricSet`]), optionally against a prior epoch.
//!
//! A rule is a value, not text: the ruleset is compiled in (the default
//! one is `vpnstudy::ops::DEFAULT_RULES`), so nothing here parses input.
//! [`render_rules`] writes a ruleset out for operators, one rule as
//! `name: expr` under its `# help` line:
//!
//! ```text
//! # Fraction of sent probes that never completed.
//! probe_loss: pv_probe_loss_rate > 0.3
//! # Per-provider False/Suspicious rate doubling vs the prior store epoch.
//! suspicious_spike: pv_suspicious_rate{provider} spikes x2 vs prior
//! ```
//!
//! A [`Rule::Above`] fires one [`Alert`] per sample of its family above
//! the limit. A [`Rule::Spike`] compares each sample carrying its label
//! to the same-labelled sample of the prior epoch: it fires when
//! `current ≥ factor × prior` (or when the prior epoch lacks the sample
//! and the current value is positive). With no prior epoch at all,
//! spike rules are skipped. Rules over metrics absent from the set
//! do not fire — the `vpnstudy::ops` exporter zero-seeds every
//! registered family precisely so "metric missing" can never mask
//! "SLO breached".

use crate::export::MetricSet;
use std::fmt::Write as _;

/// One named SLO rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// `family > limit`, for every sample of the family.
    Above {
        /// Rule name (appears on every alert it raises).
        name: &'static str,
        /// One line on what the rule watches.
        help: &'static str,
        /// The metric family.
        family: &'static str,
        /// Fire above this value.
        limit: f64,
    },
    /// `family{label} spikes x<factor> vs prior`, for every sample of
    /// the family that carries `label`.
    Spike {
        /// Rule name (appears on every alert it raises).
        name: &'static str,
        /// One line on what the rule watches.
        help: &'static str,
        /// The metric family.
        family: &'static str,
        /// The label to fan out over.
        label: &'static str,
        /// Fire at `current ≥ factor × prior`.
        factor: f64,
    },
}

/// A ruleset as text: per rule a `# help` line, then `name: expr`.
pub fn render_rules(rules: &[Rule]) -> String {
    let mut out = String::new();
    for rule in rules {
        let _ = match *rule {
            Rule::Above {
                name,
                help,
                family,
                limit,
            } => writeln!(out, "# {help}\n{name}: {family} > {limit}"),
            Rule::Spike {
                name,
                help,
                family,
                label,
                factor,
            } => writeln!(
                out,
                "# {help}\n{name}: {family}{{{label}}} spikes x{factor} vs prior"
            ),
        };
    }
    out
}

/// `family{k="v",…}` for one sample's labels.
fn render_metric(family: &str, labels: &[(String, String)]) -> String {
    let mut out = family.to_string();
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
    }
    out
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The rule that fired.
    pub rule: String,
    /// The fully-labelled metric that breached.
    pub metric: String,
    /// The observed value.
    pub observed: f64,
    /// The threshold (or `factor × prior` for spike rules).
    pub threshold: f64,
    /// Human-readable one-liner.
    pub detail: String,
}

impl Alert {
    /// Render as one report line.
    pub fn render_line(&self) -> String {
        format!("ALERT {:<24} {}", self.rule, self.detail)
    }
}

/// Evaluate `rules` over `current`, with `prior` as the previous epoch
/// for spike rules. With no prior epoch, spike rules are skipped — a
/// first run has no baseline to regress against; a prior epoch that
/// lacks a particular sample treats that baseline as zero. Alerts are
/// returned in rule order, then sample order — fully deterministic for
/// a deterministic `MetricSet`.
pub fn evaluate(rules: &[Rule], current: &MetricSet, prior: Option<&MetricSet>) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for rule in rules {
        let (Rule::Above { name, family, .. } | Rule::Spike { name, family, .. }) = *rule;
        for (labels, observed) in current.samples(family) {
            // The threshold the sample crossed and how, if it fires.
            let fired = match *rule {
                Rule::Above { limit, .. } => {
                    (observed > limit).then(|| (limit, format!("> {limit}")))
                }
                Rule::Spike { label, factor, .. } => {
                    // No prior epoch at all: there is no baseline to
                    // spike against, so the rule stays silent (a first
                    // run is not a regression). A prior epoch that
                    // merely lacks the sample is different — see
                    // `prior_value` below.
                    let Some(prior) = prior else { break };
                    if !labels.iter().any(|(k, _)| k == label) {
                        continue;
                    }
                    let label_refs: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    // Sample absent from the prior epoch (e.g. a newly
                    // appeared provider): treat the baseline as zero,
                    // so any positive current value fires.
                    let prior_value = prior.value(family, &label_refs).unwrap_or(0.0);
                    let fires = if prior_value <= 0.0 {
                        observed > 0.0
                    } else {
                        observed >= factor * prior_value
                    };
                    fires.then(|| {
                        let how = format!("spiked x{factor} vs prior {prior_value}");
                        (factor * prior_value, how)
                    })
                }
            };
            if let Some((threshold, how)) = fired {
                let metric = render_metric(family, labels);
                alerts.push(Alert {
                    rule: name.to_string(),
                    detail: format!("{metric} = {observed} {how}"),
                    metric,
                    observed,
                    threshold,
                });
            }
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::type_complexity)]
    fn set(samples: &[(&str, &[(&str, &str)], f64)]) -> MetricSet {
        let mut s = MetricSet::new();
        for (name, labels, v) in samples {
            s.set_gauge(name, "", labels, *v);
        }
        s
    }

    fn above(name: &'static str, family: &'static str, limit: f64) -> Rule {
        Rule::Above {
            name,
            help: "",
            family,
            limit,
        }
    }

    const SPIKE: Rule = Rule::Spike {
        name: "spike",
        help: "",
        family: "pv_suspicious_rate",
        label: "provider",
        factor: 2.0,
    };

    #[test]
    fn threshold_rules_fire_per_matching_sample() {
        let current = set(&[
            ("pv_probe_loss_rate", &[], 0.4),
            ("pv_suspicious_rate", &[("provider", "alpha")], 0.1),
            ("pv_suspicious_rate", &[("provider", "beta")], 0.9),
        ]);
        let rules = [
            above("loss", "pv_probe_loss_rate", 0.3),
            above("sus", "pv_suspicious_rate", 0.5),
            above("quiet", "pv_probe_loss_rate", 0.99),
            // Strictly above: a sample at the limit stays quiet.
            above("at_limit", "pv_probe_loss_rate", 0.4),
        ];
        let alerts = evaluate(&rules, &current, None);
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert_eq!(alerts[0].rule, "loss");
        assert_eq!(alerts[0].metric, "pv_probe_loss_rate");
        assert_eq!(alerts[0].detail, "pv_probe_loss_rate = 0.4 > 0.3");
        assert_eq!(alerts[1].rule, "sus");
        assert_eq!(alerts[1].metric, "pv_suspicious_rate{provider=\"beta\"}");
        assert_eq!(alerts[1].threshold, 0.5);
        assert_eq!(
            alerts[1].render_line(),
            "ALERT sus                      pv_suspicious_rate{provider=\"beta\"} = 0.9 > 0.5"
        );
    }

    #[test]
    fn spike_rules_compare_against_prior_epoch() {
        let prior = set(&[
            ("pv_suspicious_rate", &[("provider", "alpha")], 0.2),
            ("pv_suspicious_rate", &[("provider", "beta")], 0.0),
        ]);
        let current = set(&[
            ("pv_suspicious_rate", &[("provider", "alpha")], 0.5),
            ("pv_suspicious_rate", &[("provider", "beta")], 0.1),
            ("pv_suspicious_rate", &[("provider", "delta")], 0.3),
            ("pv_suspicious_rate", &[("provider", "gamma")], 0.0),
            // No `provider` label: outside the rule's fan-out.
            ("pv_suspicious_rate", &[("region", "eu")], 0.9),
        ]);
        let alerts = evaluate(&[SPIKE], &current, Some(&prior));
        // alpha: 0.5 ≥ 2×0.2 → fires. beta: prior 0, current 0.1 → fires.
        // delta: missing from the prior epoch, so its baseline is 0 and
        // 0.3 fires. gamma: current 0 → quiet.
        let fired: Vec<&str> = alerts.iter().map(|a| a.metric.as_str()).collect();
        assert_eq!(
            fired,
            [
                "pv_suspicious_rate{provider=\"alpha\"}",
                "pv_suspicious_rate{provider=\"beta\"}",
                "pv_suspicious_rate{provider=\"delta\"}",
            ],
        );
        assert_eq!(alerts[0].threshold, 0.4);
        assert_eq!(
            alerts[0].detail,
            "pv_suspicious_rate{provider=\"alpha\"} = 0.5 spiked x2 vs prior 0.2"
        );
        assert_eq!(alerts[2].threshold, 0.0);
        // Without a prior epoch there is no baseline: spike rules stay
        // silent rather than flagging every first run.
        assert!(evaluate(&[SPIKE], &current, None).is_empty());
        // Below the factor: quiet.
        let calm = set(&[("pv_suspicious_rate", &[("provider", "alpha")], 0.3)]);
        assert!(evaluate(&[SPIKE], &calm, Some(&prior)).is_empty());
    }

    #[test]
    fn missing_metric_is_quiet() {
        let rules = [above("ghost", "pv_never_exported", 0.0), SPIKE];
        let empty = MetricSet::new();
        assert!(evaluate(&rules, &empty, Some(&empty)).is_empty());
    }
}
