//! `perfbench` — the repository benchmark: the paper-scale proxy audit,
//! timed end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <paper_audit|paper_audit_quiet|hostile_audit>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale paper|small]
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` it replays the audit through the program's
//! public calls, timing each from here, and reports the per-layer
//! metrics. Every line but the last is a JSON record of the run (seed,
//! samples, host drift, work counters, failed checks); the last line is
//! the result. The exit code is non-zero when any output check failed.
//! `README.md` beside this crate defines every metric.

mod checks;
mod e2e;
mod host;
mod replay;
mod store;
mod workload;

use checks::Checks;
use obs::json::json_str;
use std::process::ExitCode;
use workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_audit|paper_audit_quiet|hostile_audit> \
[--seed N] [--seconds S] [--trace 0|1] [--scale paper|small]";

/// The parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time of an untraced run: timed audits follow its
    /// warm-up audit while the last one predicts another ends within it.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 0.0;
    let mut trace = false;
    let mut scale = Scale::Paper;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => scale = Scale::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        // The paper's seed unless a held-out one is asked for.
        seed: seed.unwrap_or_else(|| vpnstudy::StudyConfig::paper().seed),
        seconds,
        trace,
        scale,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run measured and checked.
pub struct Outcome {
    pub checks: Checks,
    /// Proxies audited.
    pub attempted: u64,
    /// Audited proxies the verifier could not measure.
    pub unmeasured: u64,
    pub metrics: Vec<Metric>,
    /// JSON records printed before the result.
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        replay::run(&args)
    } else {
        e2e::run(&args)
    };

    println!(
        "{{\"record\":\"run\",\"workload\":\"{}\",\"seed\":{},\"scale\":\"{}\",\"trace\":{},\"workers\":1,\"shards\":1,\"profile\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.scale.name(),
        u8::from(args.trace),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let failures: Vec<String> = outcome
        .checks
        .failures()
        .iter()
        .map(|f| json_str(f))
        .collect();
    println!(
        "{{\"record\":\"checks\",\"passed\":{},\"failed\":[{}]}}",
        outcome.checks.passed(),
        failures.join(",")
    );
    for f in outcome.checks.failures() {
        eprintln!("perfbench: check failed: {f}");
    }

    let correct = failures.is_empty() && outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.unmeasured + failures.len() as u64,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
