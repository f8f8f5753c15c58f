//! The SLO alert engine: declarative health rules evaluated over
//! exported metrics ([`MetricSet`]), optionally against a prior epoch.
//!
//! ## Rule grammar
//!
//! One rule per line:
//!
//! ```text
//! rule     := name ':' expr
//! expr     := selector op number                  (threshold rule)
//!           | selector 'spikes' 'x' number 'vs prior'   (spike rule)
//! selector := family [ '{' matcher (',' matcher)* '}' ]
//! matcher  := key '=' '"' value '"'   — exact label match
//!           | key                     — wildcard: fan out over values
//! op       := '>' | '>=' | '<' | '<='
//! ```
//!
//! Examples (the default ruleset in `vpnstudy::ops`):
//!
//! ```text
//! probe_loss: pv_probe_loss_rate > 0.3
//! retry_exhaustion: pv_retry_exhaustion_total > 25
//! suspicious_spike: pv_suspicious_rate{provider} spikes x2 vs prior
//! stale_urgent: pv_stale_urgent_verdicts > 0
//! ```
//!
//! A threshold rule fires one [`Alert`] per matching sample whose value
//! satisfies the comparison. A spike rule compares each matching sample
//! to the same-labelled sample of the prior epoch: it fires when
//! `current ≥ factor × prior` (or when the prior epoch lacks the sample
//! and the current value is positive). With no prior epoch at all,
//! spike rules are skipped. Rules over metrics absent from the set
//! do not fire — the `vpnstudy::ops` exporter zero-seeds every
//! registered family precisely so "metric missing" can never mask
//! "SLO breached".

use crate::export::MetricSet;
use std::fmt::Write as _;

/// Comparison operator of a threshold rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl Cmp {
    fn eval(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// A label matcher inside a selector.
#[derive(Debug, Clone, PartialEq)]
pub enum Matcher {
    /// `key="value"` — exact match.
    Exact(String, String),
    /// `key` — the sample must carry the key; fan out over its values.
    Wildcard(String),
}

/// A metric selector: family name plus label matchers.
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    /// Family name.
    pub family: String,
    /// Label matchers (empty = every sample of the family).
    pub matchers: Vec<Matcher>,
}

impl Selector {
    /// All scalar samples of `set` this selector matches, as
    /// `(labels, value)`.
    fn select<'a>(&self, set: &'a MetricSet) -> Vec<(&'a [(String, String)], f64)> {
        set.samples(&self.family)
            .into_iter()
            .filter(|(labels, _)| {
                self.matchers.iter().all(|m| match m {
                    Matcher::Exact(k, v) => labels.iter().any(|(lk, lv)| lk == k && lv == v),
                    Matcher::Wildcard(k) => labels.iter().any(|(lk, _)| lk == k),
                })
            })
            .collect()
    }

    fn render(&self, labels: &[(String, String)]) -> String {
        let mut out = self.family.clone();
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
}

/// The body of a rule.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleExpr {
    /// `selector op number`.
    Threshold {
        /// What to measure.
        selector: Selector,
        /// How to compare.
        cmp: Cmp,
        /// Against what.
        value: f64,
    },
    /// `selector spikes xN vs prior`.
    Spike {
        /// What to measure.
        selector: Selector,
        /// Fire at `current ≥ factor × prior`.
        factor: f64,
    },
}

/// One named SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (appears on every alert it raises).
    pub name: String,
    /// The rule body.
    pub expr: RuleExpr,
}

impl Rule {
    /// Parse one rule line (see the module docs for the grammar).
    pub fn parse(line: &str) -> Result<Rule, String> {
        let (name, rest) = line
            .split_once(':')
            .ok_or_else(|| format!("rule {line:?}: missing ':' after the rule name"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("rule {line:?}: empty rule name"));
        }
        let rest = rest.trim();
        let (selector, rest) = parse_selector(rest)?;
        let rest = rest.trim_start();
        if let Some(spec) = rest.strip_prefix("spikes") {
            let spec = spec.trim();
            let spec = spec
                .strip_prefix('x')
                .ok_or_else(|| format!("rule {name}: expected xN after 'spikes', got {spec:?}"))?;
            let (num, tail) = spec.split_once(' ').unwrap_or((spec, ""));
            let factor: f64 = num
                .parse()
                .map_err(|_| format!("rule {name}: bad spike factor {num:?}"))?;
            if tail.trim() != "vs prior" {
                return Err(format!("rule {name}: spike rules must end with 'vs prior'"));
            }
            if factor.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("rule {name}: spike factor must exceed 1"));
            }
            return Ok(Rule {
                name: name.to_string(),
                expr: RuleExpr::Spike { selector, factor },
            });
        }
        let (cmp, rest) = if let Some(r) = rest.strip_prefix(">=") {
            (Cmp::Ge, r)
        } else if let Some(r) = rest.strip_prefix("<=") {
            (Cmp::Le, r)
        } else if let Some(r) = rest.strip_prefix('>') {
            (Cmp::Gt, r)
        } else if let Some(r) = rest.strip_prefix('<') {
            (Cmp::Lt, r)
        } else {
            return Err(format!(
                "rule {name}: expected an operator (>, >=, <, <=) or 'spikes', got {rest:?}"
            ));
        };
        let num = rest.trim();
        let value: f64 = num
            .parse()
            .map_err(|_| format!("rule {name}: bad threshold {num:?}"))?;
        Ok(Rule {
            name: name.to_string(),
            expr: RuleExpr::Threshold {
                selector,
                cmp,
                value,
            },
        })
    }
}

fn parse_selector(s: &str) -> Result<(Selector, &str), String> {
    let name_end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    if name_end == 0 {
        return Err(format!("expected a metric name, got {s:?}"));
    }
    let family = s[..name_end].to_string();
    let mut rest = &s[name_end..];
    let mut matchers = Vec::new();
    if let Some(inner) = rest.strip_prefix('{') {
        let close = inner
            .find('}')
            .ok_or_else(|| format!("selector {family}: unterminated '{{'"))?;
        for part in inner[..close].split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("selector {family}: empty label matcher"));
            }
            match part.split_once('=') {
                None => matchers.push(Matcher::Wildcard(part.to_string())),
                Some((k, v)) => {
                    let v = v.trim();
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| {
                            format!(
                                "selector {family}: label value must be double-quoted, got {v:?}"
                            )
                        })?;
                    matchers.push(Matcher::Exact(k.trim().to_string(), v.to_string()));
                }
            }
        }
        rest = &inner[close + 1..];
    }
    Ok((Selector { family, matchers }, rest))
}

/// Parse a ruleset: one rule per line, blank lines and `#` comments
/// skipped.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(Rule::parse)
        .collect()
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
        match &rule.expr {
            RuleExpr::Threshold {
                selector,
                cmp,
                value,
            } => {
                for (labels, observed) in selector.select(current) {
                    if cmp.eval(observed, *value) {
                        let metric = selector.render(labels);
                        alerts.push(Alert {
                            rule: rule.name.clone(),
                            metric: metric.clone(),
                            observed,
                            threshold: *value,
                            detail: format!("{metric} = {observed} {} {value}", cmp.as_str()),
                        });
                    }
                }
            }
            RuleExpr::Spike { selector, factor } => {
                // No prior epoch at all: there is no baseline to spike
                // against, so the rule stays silent (a first run is not
                // a regression). A prior epoch that merely lacks the
                // sample is different — see `prior_value` below.
                let Some(prior) = prior else { continue };
                for (labels, observed) in selector.select(current) {
                    let label_refs: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    // Sample absent from the prior epoch (e.g. a newly
                    // appeared provider): treat the baseline as zero,
                    // so any positive current value fires.
                    let prior_value = prior.value(&selector.family, &label_refs).unwrap_or(0.0);
                    let fires = if prior_value <= 0.0 {
                        observed > 0.0
                    } else {
                        observed >= factor * prior_value
                    };
                    if fires {
                        let metric = selector.render(labels);
                        alerts.push(Alert {
                            rule: rule.name.clone(),
                            metric: metric.clone(),
                            observed,
                            threshold: factor * prior_value,
                            detail: format!(
                                "{metric} = {observed} spiked x{factor} vs prior {prior_value}"
                            ),
                        });
                    }
                }
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

    #[test]
    fn parses_threshold_rules() {
        let r = Rule::parse("probe_loss: pv_probe_loss_rate > 0.3").unwrap();
        assert_eq!(r.name, "probe_loss");
        assert_eq!(
            r.expr,
            RuleExpr::Threshold {
                selector: Selector {
                    family: "pv_probe_loss_rate".into(),
                    matchers: vec![],
                },
                cmp: Cmp::Gt,
                value: 0.3,
            }
        );
        let r = Rule::parse("x: pv_thing{outcome=\"timeout\"} >= 10").unwrap();
        match r.expr {
            RuleExpr::Threshold {
                selector,
                cmp,
                value,
            } => {
                assert_eq!(
                    selector.matchers,
                    vec![Matcher::Exact("outcome".into(), "timeout".into())]
                );
                assert_eq!(cmp, Cmp::Ge);
                assert_eq!(value, 10.0);
            }
            other => panic!("wrong expr: {other:?}"),
        }
    }

    #[test]
    fn parses_spike_rules_with_wildcards() {
        let r = Rule::parse("suspicious_spike: pv_suspicious_rate{provider} spikes x2 vs prior")
            .unwrap();
        assert_eq!(
            r.expr,
            RuleExpr::Spike {
                selector: Selector {
                    family: "pv_suspicious_rate".into(),
                    matchers: vec![Matcher::Wildcard("provider".into())],
                },
                factor: 2.0,
            }
        );
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "no_colon pv_x > 1",
            ": pv_x > 1",
            "r: pv_x ~ 1",
            "r: pv_x > one",
            "r: pv_x{k=unquoted} > 1",
            "r: pv_x{unclosed > 1",
            "r: pv_x spikes 2 vs prior",
            "r: pv_x spikes x2",
            "r: pv_x spikes x0.5 vs prior",
        ] {
            assert!(Rule::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn ruleset_skips_comments_and_blanks() {
        let rules = parse_rules("# health rules\n\nalpha: pv_a > 1\nbeta: pv_b < 0.5\n").unwrap();
        assert_eq!(rules.len(), 2);
        assert!(parse_rules("broken line\n").is_err());
    }

    #[test]
    fn threshold_rules_fire_per_matching_sample() {
        let current = set(&[
            ("pv_probe_loss_rate", &[], 0.4),
            ("pv_suspicious_rate", &[("provider", "alpha")], 0.1),
            ("pv_suspicious_rate", &[("provider", "beta")], 0.9),
        ]);
        let rules = parse_rules(
            "loss: pv_probe_loss_rate > 0.3\nsus: pv_suspicious_rate{provider} > 0.5\nquiet: pv_probe_loss_rate > 0.99\n",
        )
        .unwrap();
        let alerts = evaluate(&rules, &current, None);
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert_eq!(alerts[0].rule, "loss");
        assert_eq!(alerts[1].rule, "sus");
        assert_eq!(alerts[1].metric, "pv_suspicious_rate{provider=\"beta\"}");
        assert!(alerts[1].render_line().contains("ALERT"));
    }

    #[test]
    fn exact_matchers_filter_samples() {
        let current = set(&[
            ("pv_probe_total", &[("outcome", "timeout")], 50.0),
            ("pv_probe_total", &[("outcome", "sent")], 100.0),
        ]);
        let rules = parse_rules("t: pv_probe_total{outcome=\"timeout\"} > 10\n").unwrap();
        let alerts = evaluate(&rules, &current, None);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].observed, 50.0);
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
            ("pv_suspicious_rate", &[("provider", "gamma")], 0.0),
        ]);
        let rules =
            parse_rules("spike: pv_suspicious_rate{provider} spikes x2 vs prior\n").unwrap();
        let alerts = evaluate(&rules, &current, Some(&prior));
        // alpha: 0.5 ≥ 2×0.2 → fires. beta: prior 0, current 0.1 → fires.
        // gamma: current 0 → quiet.
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert_eq!(alerts[0].metric, "pv_suspicious_rate{provider=\"alpha\"}");
        assert_eq!(alerts[1].metric, "pv_suspicious_rate{provider=\"beta\"}");
        // Without a prior epoch there is no baseline: spike rules stay
        // silent rather than flagging every first run.
        assert!(evaluate(&rules, &current, None).is_empty());
        // Below the factor: quiet.
        let calm = set(&[("pv_suspicious_rate", &[("provider", "alpha")], 0.3)]);
        assert!(evaluate(&rules, &calm, Some(&prior)).is_empty());
    }

    #[test]
    fn missing_metric_is_quiet() {
        let rules = parse_rules("ghost: pv_never_exported > 0\n").unwrap();
        assert!(evaluate(&rules, &MetricSet::new(), None).is_empty());
    }
}
