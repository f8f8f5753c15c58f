//! Smoke tests of the benchmark itself: every workload, untraced and
//! traced, at `--scale small`, must pass its output checks and print
//! exactly the metrics `BENCHMARK.json` declares, by name and unit.

use obs::json::Json;
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

/// The last stdout line of a run, parsed.
fn result_of(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn run_workload(workload: &str, trace: &str) -> Json {
    let out = perfbench(&[
        "--workload",
        workload,
        "--scale",
        "small",
        "--seed",
        "41",
        "--seconds",
        "0",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = result_of(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    result
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["paper_audit", "paper_audit_quiet", "hostile_audit"] {
        assert_eq!(
            printed(&run_workload(workload, "0")),
            end_to_end,
            "{workload} untraced"
        );
        assert_eq!(
            printed(&run_workload(workload, "1")),
            per_layer,
            "{workload} traced"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_audit", "--trace", "2"],
        &["--seed", "1"],
        &["--workload"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
