//! The perf gate's machine-readable baseline: the JSON document
//! `perf_gate --update` writes to `bench_output/BENCH_gate.json` and
//! the plain gate compares against.
//!
//! The workspace is hermetic (no serde); the JSON writer and
//! recursive-descent parser live in [`obs::json`], shared with the
//! verdict store (`vpnstudy::store`). The flat artifact schema:
//!
//! ```json
//! {
//!   "threads": 2,
//!   "git": "b67b00b",
//!   "results": [
//!     { "name": "gate/audit_one_proxy", "median_ns": 127000.5, "p10_ns": 1.0,
//!       "p90_ns": 2.0, "iters_per_sample": 39, "samples": 20 }
//!   ]
//! }
//! ```
//!
//! Each entry's tolerance is not part of the file: the gate takes it
//! from [`crate::gate::suite_tolerance`].

use crate::harness::Sampled;
use obs::json::{json_str, Json};
use std::fmt::Write as _;

/// The gate's baseline: per-bench timing summaries plus the context they
/// were measured in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchArtifact {
    /// Configured worker thread count (`PV_THREADS` resolution).
    pub threads: u64,
    /// `git describe --always --dirty`, when a git checkout is around.
    pub git: Option<String>,
    /// Per-bench timing summaries.
    pub results: Vec<Sampled>,
}

impl BenchArtifact {
    /// Serialize to pretty-printed JSON (stable field order, one result
    /// per line — diff-friendly).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        match &self.git {
            Some(g) => {
                let _ = writeln!(out, "  \"git\": {},", json_str(g));
            }
            None => {
                let _ = writeln!(out, "  \"git\": null,");
            }
        }
        out.push_str("  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{ \"name\": {}, \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \
                 \"p90_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {} }}",
                json_str(&r.name),
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
                r.iters_per_sample,
                r.samples,
            );
        }
        if self.results.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parse an artifact back from JSON. Unknown fields are ignored;
    /// missing fields default (so hand-written baselines can stay
    /// minimal).
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object().ok_or("artifact root is not an object")?;
        let mut art = BenchArtifact::default();
        for (key, val) in obj {
            match key.as_str() {
                "threads" => art.threads = val.as_f64().unwrap_or(0.0) as u64,
                "git" => art.git = val.as_str().map(str::to_string),
                "results" => {
                    let arr = val.as_array().ok_or("\"results\" is not an array")?;
                    for item in arr {
                        let entry = item.as_object().ok_or("result entry is not an object")?;
                        let mut rec = Sampled::default();
                        for (k, v) in entry {
                            match k.as_str() {
                                "name" => {
                                    rec.name = v.as_str().unwrap_or_default().to_string();
                                }
                                "median_ns" => rec.median_ns = v.as_f64().unwrap_or(0.0),
                                "p10_ns" => rec.p10_ns = v.as_f64().unwrap_or(0.0),
                                "p90_ns" => rec.p90_ns = v.as_f64().unwrap_or(0.0),
                                "iters_per_sample" => {
                                    rec.iters_per_sample = v.as_f64().unwrap_or(0.0) as u64;
                                }
                                "samples" => {
                                    rec.samples = v.as_f64().unwrap_or(0.0) as usize;
                                }
                                _ => {}
                            }
                        }
                        if rec.name.is_empty() {
                            return Err("result entry without a name".into());
                        }
                        art.results.push(rec);
                    }
                }
                _ => {}
            }
        }
        Ok(art)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> BenchArtifact {
        BenchArtifact {
            threads: 8,
            git: Some("b67b00b-dirty".into()),
            results: vec![
                Sampled {
                    name: "gate/audit_one_proxy".into(),
                    median_ns: 127_000.5,
                    p10_ns: 120_000.0,
                    // One decimal place: to_json writes {:.1}, so finer
                    // precision would not survive the round trip.
                    p90_ns: 140_000.2,
                    iters_per_sample: 39,
                    samples: 20,
                },
                Sampled {
                    name: "gate/with \"quotes\"".into(),
                    median_ns: 10.0,
                    p10_ns: 9.0,
                    p90_ns: 11.0,
                    iters_per_sample: 1000,
                    samples: 20,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let art = sample_artifact();
        let parsed = BenchArtifact::parse(&art.to_json()).unwrap();
        assert_eq!(parsed, art);
    }

    #[test]
    fn empty_artifact_round_trips() {
        let art = BenchArtifact::default();
        let parsed = BenchArtifact::parse(&art.to_json()).unwrap();
        assert_eq!(parsed, art);
    }

    #[test]
    fn parse_tolerates_minimal_hand_written_baselines() {
        let art =
            BenchArtifact::parse(r#"{ "results": [ { "name": "gate/x", "median_ns": 1500 } ] }"#)
                .unwrap();
        assert_eq!(art.threads, 0);
        assert!(art.git.is_none());
        assert_eq!(art.results[0].median_ns, 1500.0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(BenchArtifact::parse("").is_err());
        assert!(BenchArtifact::parse("{").is_err());
        assert!(BenchArtifact::parse("[1, 2]").is_err());
        assert!(BenchArtifact::parse("{\"results\": [{}]}").is_err());
        assert!(BenchArtifact::parse("{} trailing").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in ["plain", "with \"quotes\"", "tab\there", "back\\slash", "µs"] {
            let parsed = Json::parse(&json_str(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s));
        }
    }
}
