//! Adversary campaign: active timing attacks against the audit must be
//! (a) physically honest — delay-only manipulation cannot forge a
//! `Credible` verdict, (b) caught — deflation-capable attacks that do
//! deceive the baseline pipeline are flagged by the Byzantine defense
//! with named evidence, and (c) deterministic — an armed, defended
//! study renders the same contract bytes at 1 and 8 threads (the
//! determinism matrix, `crates/bench/tests/determinism.rs`, checks the
//! same scenario at every shard and thread split).

use bench::determinism::{check_scenario, section, split, Scenario};
use proxy_verifier::vpnstudy::campaign::{run_cell, shaping_plan, AdversaryModel};
use proxy_verifier::vpnstudy::{Study, StudyConfig};
use proxy_verifier::Assessment;

const SEED: u64 = 0xadbeef;

fn campaign_config() -> StudyConfig {
    let mut config = StudyConfig::small(SEED);
    config.total_proxies = 28;
    config
}

/// Tactics that only *add* delay (holds) can never exclude the true
/// location: every shaped disk still contains it, so the region keeps
/// covering the truth and a false claim never turns `Credible`. This is
/// the upper-bound-constraint safety theorem, checked empirically at
/// full adversary strength.
#[test]
fn delay_only_shaping_cannot_forge_credible() {
    let cell = run_cell(&campaign_config(), AdversaryModel::DelayShaping, 1.0);
    assert!(cell.attacked > 0, "no lying proxies to attack");
    assert_eq!(
        cell.baseline_deceived, 0,
        "pure delay inflation forged a Credible verdict"
    );
}

/// Deflation-capable models (inflated self-ping, colluding landmarks,
/// and the combined attack) defeat the baseline pipeline on false
/// claims — and the defended pipeline catches attacks the baseline
/// certified.
#[test]
fn deflation_models_defeat_baseline_and_are_caught() {
    let config = campaign_config();
    for model in [
        AdversaryModel::SelfPingInflation,
        AdversaryModel::Collusion,
        AdversaryModel::FullShaping,
    ] {
        let cell = run_cell(&config, model, 0.66);
        assert!(
            cell.baseline_deceived > 0,
            "{}: attack never defeated the baseline",
            model.label()
        );
        assert!(
            cell.defended_deceived < cell.baseline_deceived,
            "{}: defense caught none of the {} baseline deceptions",
            model.label(),
            cell.baseline_deceived
        );
        assert!(
            cell.caught > 0,
            "{}: no attacked proxy ended Suspicious/False",
            model.label()
        );
    }
}

/// The combined attack at moderate strength is fully neutralized, and
/// every withheld verdict carries named evidence.
#[test]
fn full_shaping_is_caught_with_named_evidence() {
    let mut study = Study::build(campaign_config());
    study.config.defense.enabled = true;
    let (plan, targets) = shaping_plan(&study, AdversaryModel::FullShaping, 0.66);
    *study.world.network_mut().adversary_mut() = plan;
    let results = study.run();

    let mut suspicious = 0;
    for r in &results.records {
        if !targets.contains(&r.proxy.node) {
            continue;
        }
        assert_ne!(
            r.refined.assessment,
            Assessment::Credible,
            "defended pipeline certified an attacked lying proxy"
        );
        let defense = r
            .defense
            .as_ref()
            .expect("defended run must attach a defense report");
        if r.refined.assessment == Assessment::Suspicious {
            suspicious += 1;
            assert!(
                defense.suspicious() && !defense.evidence.is_empty(),
                "Suspicious verdict without named evidence"
            );
        }
    }
    assert!(suspicious > 0, "no verdict was withheld as Suspicious");
}

/// An armed, defended study — adversary holds, timeouts, collusion,
/// self-ping inflation, challenge sweep, defense events and all — must
/// render the same contract bytes (reports, JSONL trace, metrics and
/// every record) at 1 and 8 worker threads.
#[test]
fn armed_defended_study_is_byte_deterministic_across_threads() {
    let reference = check_scenario(Scenario::ArmedDefended, &campaign_config(), &[split(1, 8)])
        .unwrap_or_else(|e| panic!("{e}"));
    let trace = section(&reference, "trace");
    assert!(
        trace.contains("\"adv\"") || trace.contains("defense"),
        "trace records no adversary/defense events"
    );
}
