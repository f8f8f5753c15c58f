//! CI perf-regression gate.
//!
//! Re-measures the smoke suite in `bench::gate` and compares medians
//! against the committed baseline `bench_output/BENCH_gate.json`:
//!
//! ```text
//! perf_gate                # compare against the committed baseline
//! perf_gate --update       # re-measure and (re)write the baseline
//! perf_gate --self-test    # prove the comparator catches a 2× slip
//! perf_gate --baseline p   # compare against an explicit artifact path
//! ```
//!
//! Exit status is nonzero when any bench regressed past its tolerance
//! (`bench::gate::suite_tolerance`) or has no baseline entry (run
//! `--update` to record one). Sample counts honor `PV_BENCH_SAMPLES`.

use bench::artifact::BenchArtifact;
use bench::gate::{
    compare, doctored_baseline, measure_baseline, render_comparisons, smoke_suite, Verdict,
};
use bench::harness::env_sample_override;
use std::process::ExitCode;

/// Samples per bench when `PV_BENCH_SAMPLES` is unset: enough for a
/// stable median, small enough to keep the gate under a minute.
const DEFAULT_SAMPLES: usize = 15;

/// The committed baseline, at the workspace root whatever the cwd.
const DEFAULT_BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../bench_output/BENCH_gate.json"
);

fn main() -> ExitCode {
    let mut update = false;
    let mut self_test = false;
    let mut baseline_path = std::path::PathBuf::from(DEFAULT_BASELINE);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--self-test" => self_test = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = p.into(),
                None => {
                    eprintln!("--baseline needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?} (try --update, --self-test, --baseline <path>)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let samples = env_sample_override().unwrap_or(DEFAULT_SAMPLES);

    if update {
        // Three passes, keeping each entry's middle median: a single
        // pass is exposed to whole-run machine-state swings, and a
        // baseline caught at an extreme makes every later gate run
        // misread honest noise as regression (or absorb a real one).
        println!("perf gate: measuring baseline (3 passes x {samples} samples per bench)...");
        let art = BenchArtifact {
            threads: parallel::configured_threads() as u64,
            git: git_describe(),
            results: measure_baseline(samples, 3),
        };
        if let Some(dir) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&baseline_path, art.to_json()) {
            eprintln!("could not write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("baseline written to {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    println!("perf gate: measuring smoke suite ({samples} samples per bench)...");
    let measured = smoke_suite(samples);

    if self_test {
        // Machine-independent teeth check: against a baseline doctored to
        // half the just-measured medians, every entry must regress.
        let doctored = doctored_baseline(&measured);
        let rows = compare(&doctored, &measured);
        print!("{}", render_comparisons(&rows));
        let missed: Vec<&str> = rows
            .iter()
            .filter(|c| c.verdict != Verdict::Regressed)
            .map(|c| c.name.as_str())
            .collect();
        if missed.is_empty() {
            println!("self-test OK: a synthetic 2x slowdown trips every gate entry");
            return ExitCode::SUCCESS;
        }
        eprintln!("self-test FAILED: gate did not flag {}", missed.join(", "));
        return ExitCode::FAILURE;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match BenchArtifact::parse(&text) {
            Ok(art) => art,
            Err(e) => {
                eprintln!("could not parse {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!(
                "no baseline at {} ({e}); run `perf_gate --update` to record one",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let rows = compare(&baseline, &measured);
    print!("{}", render_comparisons(&rows));
    let regressed: Vec<&str> = rows
        .iter()
        .filter(|c| c.verdict == Verdict::Regressed)
        .map(|c| c.name.as_str())
        .collect();
    let missing: Vec<&str> = rows
        .iter()
        .filter(|c| c.verdict == Verdict::MissingBaseline)
        .map(|c| c.name.as_str())
        .collect();
    let improved = rows
        .iter()
        .filter(|c| c.verdict == Verdict::Improved)
        .count();
    if improved > 0 {
        println!(
            "note: {improved} bench(es) improved past tolerance — consider refreshing the baseline with --update"
        );
    }
    if !missing.is_empty() {
        eprintln!(
            "perf gate FAILED: no baseline entry for {} (run --update)",
            missing.join(", ")
        );
    }
    if !regressed.is_empty() {
        eprintln!(
            "perf gate FAILED: regressed past tolerance: {}",
            regressed.join(", ")
        );
    }
    if regressed.is_empty() && missing.is_empty() {
        println!("perf gate OK: all {} benches within tolerance", rows.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `git describe --always --dirty` at the workspace root, when available.
fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}
