//! Export a small study's OpenMetrics exposition for the CI telemetry
//! gate.
//!
//! ```text
//! metrics_export                  # deterministic subset (byte-diffable)
//! metrics_export --full           # the whole exposition, wall families too
//! metrics_export --check          # self-parse: render → parse → render
//! metrics_export --slo            # evaluate the default SLO ruleset;
//!                                 # exit 1 if any alert fires
//! ```
//!
//! The default mode prints only families registered as deterministic
//! ([`obs::export::deterministic_family`]), the subset the determinism
//! matrix (`crates/bench/tests/determinism.rs`) checks across shard and
//! thread splits. `--check` proves the rendered text round-trips
//! through the in-repo OpenMetrics parser byte-for-byte, and `--slo` is
//! the nonzero-exit alerting mode a release pipeline would gate on;
//! `ci.sh` runs both.

use vpnstudy::audit::Study;
use vpnstudy::{ops, StudyConfig};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();

    let mut study = Study::build(StudyConfig::small(0xd1ff));
    // One shard on `PV_THREADS` workers.
    let results = study.run();
    let set = match ops::study_metrics(&results) {
        Ok(set) => set,
        Err(err) => {
            eprintln!("metrics_export: {err}");
            std::process::exit(1);
        }
    };

    match mode.as_str() {
        "" | "--deterministic" => {
            print!("{}", set.render_filtered(obs::export::deterministic_family));
        }
        "--full" => print!("{}", set.render()),
        "--check" => {
            let text = set.render();
            let parsed = match obs::export::parse_exposition(&text) {
                Ok(p) => p,
                Err(err) => {
                    eprintln!("metrics_export: exposition does not parse: {err}");
                    std::process::exit(1);
                }
            };
            if parsed.render() != text {
                eprintln!("metrics_export: parse → render round-trip drifted");
                std::process::exit(1);
            }
            let problems = set.lint_against_registry();
            if !problems.is_empty() {
                for p in &problems {
                    eprintln!("metrics_export: lint: {p}");
                }
                std::process::exit(1);
            }
            println!(
                "ok: {} families round-trip byte-exact and lint clean",
                set.family_names().len()
            );
        }
        "--slo" => {
            let alerts = ops::evaluate_slos(&set, None);
            if alerts.is_empty() {
                println!("SLO: ok — no alerts fired");
            } else {
                for a in &alerts {
                    println!("{}", a.render_line());
                }
                std::process::exit(1);
            }
        }
        other => {
            eprintln!(
                "usage: metrics_export [--deterministic|--full|--check|--slo] (got {other:?})"
            );
            std::process::exit(2);
        }
    }
}
