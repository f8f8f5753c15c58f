//! Fault-campaign sweep (not a paper figure): verdict stability and
//! reliability-layer effort as substrate faults ramp up.
//!
//! The paper's campaign ran for weeks against the real Internet (§6),
//! where landmarks disappear and probes get lost; its results are only
//! meaningful if the pipeline's verdicts are stable under that churn.
//! This sweep re-runs the (scaled) audit at increasing fault intensity —
//! per-hop packet loss plus a fraction of landmarks in permanent outage
//! — and reports how the verdict mix, the measured population, and the
//! retry/fallback effort respond.

use crate::Scale;
use netsim::NodeId;
use std::fmt::Write as _;
use vpnstudy::audit::Study;

/// (per-hop loss, fraction of landmarks down) per sweep step.
const STEPS: &[(f64, f64)] = &[(0.0, 0.0), (0.01, 0.05), (0.025, 0.10), (0.05, 0.20)];

/// Run the audit once per fault step and tabulate the outcome.
pub fn fault_sweep(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fault sweep: audit stability under probe loss and landmark outages"
    );
    let _ = writeln!(
        out,
        "# columns: hop_loss, landmarks_down, measured, insufficient, unmeasurable, \
         credible, uncertain, false, retries, fallbacks, dead_landmarks, quorum_degraded"
    );
    for &(loss, down) in STEPS {
        let mut study = Study::build(scale.study_config());
        if down > 0.0 {
            let nodes: Vec<NodeId> = study
                .constellation
                .landmarks()
                .iter()
                .map(|l| l.node)
                .collect();
            let stride = ((1.0 / down).round() as usize).max(1);
            let t0 = study.world.network_mut().now();
            for node in nodes.into_iter().step_by(stride) {
                study
                    .world
                    .network_mut()
                    .faults_mut()
                    .add_permanent_outage(node, t0);
            }
        }
        study.world.network_mut().faults_mut().set_drop_chance(loss);
        let results = study.run();
        let s = results.reliability_summary();
        let (credible, uncertain, false_) = results.counts(true);
        let _ = writeln!(
            out,
            "{loss:.3}, {down:.2}, {}, {}, {}, {credible}, {uncertain}, {false_}, {}, {}, {}, {}",
            s.measured,
            s.insufficient,
            s.unmeasurable,
            s.totals.retries,
            s.totals.fallbacks,
            s.totals.dead_landmarks,
            s.quorum_degraded
        );
    }
    let _ = writeln!(
        out,
        "# Expectation: measured stays near the fleet size and the verdict mix\n\
         # drifts slowly while retries/fallbacks grow — the reliability layer\n\
         # absorbs the faults instead of silently shrinking the denominator."
    );
    out
}
