//! Machine-readable bench artifacts: one JSON document per bench group,
//! written next to the text reports in `bench_output/` so the repo-level
//! perf trajectory is diffable and scriptable.
//!
//! The workspace is hermetic (no serde); the JSON writer and
//! recursive-descent parser live in [`obs::json`], shared with the
//! verdict store (`vpnstudy::store`). The flat artifact schema:
//!
//! ```json
//! {
//!   "group": "audit",
//!   "generated_by": "bench_audit",
//!   "threads": 8,
//!   "git": "b67b00b",
//!   "counters": { "net.probe.sent": 123 },
//!   "results": [
//!     { "name": "audit/one proxy", "median_ns": 127000.5, "p10_ns": 1.0,
//!       "p90_ns": 2.0, "iters_per_sample": 39, "samples": 20,
//!       "tolerance": 0.5 }
//!   ]
//! }
//! ```
//!
//! `tolerance` is optional per entry: the perf-regression gate
//! (`perf_gate`) reads it as that bench's relative regression budget,
//! falling back to its global default when absent.

use crate::harness::Sampled;
use obs::json::{json_str, Json};
use std::fmt::Write as _;

/// One benchmark's summary inside an artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark identifier (`group/bench`).
    pub name: String,
    /// Median per-iteration time (ns).
    pub median_ns: f64,
    /// 10th percentile (ns).
    pub p10_ns: f64,
    /// 90th percentile (ns).
    pub p90_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: u64,
    /// Optional per-entry relative tolerance for the perf gate (e.g.
    /// `0.5` allows the median to grow 50 % before failing).
    pub tolerance: Option<f64>,
}

impl From<&Sampled> for BenchRecord {
    fn from(s: &Sampled) -> BenchRecord {
        BenchRecord {
            name: s.name.clone(),
            median_ns: s.median_ns,
            p10_ns: s.p10_ns,
            p90_ns: s.p90_ns,
            iters_per_sample: s.iters_per_sample,
            samples: s.samples as u64,
            tolerance: None,
        }
    }
}

/// A bench group's machine-readable summary: results plus the context
/// they were measured in (thread count, git revision, recorder
/// counters).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchArtifact {
    /// Group name (the part of each bench id before the first `/`).
    pub group: String,
    /// Bench binary that produced the artifact.
    pub generated_by: String,
    /// Configured worker thread count (`PV_THREADS` resolution).
    pub threads: u64,
    /// `git describe --always --dirty`, when a git checkout is around.
    pub git: Option<String>,
    /// Deterministic counters snapshotted from a supplied recorder.
    pub counters: Vec<(String, u64)>,
    /// Per-bench timing summaries.
    pub results: Vec<BenchRecord>,
}

impl BenchArtifact {
    /// The artifact file name for a group: `BENCH_<group>.json`, with
    /// path-hostile characters flattened to `_`.
    pub fn file_name(group: &str) -> String {
        let sanitized: String = group
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("BENCH_{sanitized}.json")
    }

    /// Replace entries matching `fresh` by name (keeping their committed
    /// `tolerance`), append names not seen before. Entries from earlier
    /// runs that `fresh` does not mention survive untouched, so a
    /// filtered bench run updates only its subset.
    pub fn merge_results(&mut self, fresh: &[BenchRecord]) {
        for rec in fresh {
            match self.results.iter_mut().find(|r| r.name == rec.name) {
                Some(existing) => {
                    let tolerance = existing.tolerance;
                    *existing = rec.clone();
                    if existing.tolerance.is_none() {
                        existing.tolerance = tolerance;
                    }
                }
                None => self.results.push(rec.clone()),
            }
        }
    }

    /// Serialize to pretty-printed JSON (stable field order, one result
    /// per line — diff-friendly).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"group\": {},", json_str(&self.group));
        let _ = writeln!(out, "  \"generated_by\": {},", json_str(&self.generated_by));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        match &self.git {
            Some(g) => {
                let _ = writeln!(out, "  \"git\": {},", json_str(g));
            }
            None => {
                let _ = writeln!(out, "  \"git\": null,");
            }
        }
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {}", json_str(k), v);
        }
        if self.counters.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{ \"name\": {}, \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \
                 \"p90_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {}",
                json_str(&r.name),
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
                r.iters_per_sample,
                r.samples,
            );
            if let Some(t) = r.tolerance {
                let _ = write!(out, ", \"tolerance\": {t:.2}");
            }
            out.push_str(" }");
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
                "group" => art.group = val.as_str().unwrap_or_default().to_string(),
                "generated_by" => {
                    art.generated_by = val.as_str().unwrap_or_default().to_string();
                }
                "threads" => art.threads = val.as_f64().unwrap_or(0.0) as u64,
                "git" => art.git = val.as_str().map(str::to_string),
                "counters" => art.counters = parse_counter_table(val),
                "results" => {
                    let arr = val.as_array().ok_or("\"results\" is not an array")?;
                    for item in arr {
                        let entry =
                            item.as_object().ok_or("result entry is not an object")?;
                        let mut rec = BenchRecord {
                            name: String::new(),
                            median_ns: 0.0,
                            p10_ns: 0.0,
                            p90_ns: 0.0,
                            iters_per_sample: 0,
                            samples: 0,
                            tolerance: None,
                        };
                        for (k, v) in entry {
                            match k.as_str() {
                                "name" => {
                                    rec.name =
                                        v.as_str().unwrap_or_default().to_string();
                                }
                                "median_ns" => rec.median_ns = v.as_f64().unwrap_or(0.0),
                                "p10_ns" => rec.p10_ns = v.as_f64().unwrap_or(0.0),
                                "p90_ns" => rec.p90_ns = v.as_f64().unwrap_or(0.0),
                                "iters_per_sample" => {
                                    rec.iters_per_sample =
                                        v.as_f64().unwrap_or(0.0) as u64;
                                }
                                "samples" => {
                                    rec.samples = v.as_f64().unwrap_or(0.0) as u64;
                                }
                                "tolerance" => rec.tolerance = v.as_f64(),
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

fn parse_counter_table(val: &Json) -> Vec<(String, u64)> {
    val.as_object()
        .map(|obj| {
            obj.iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> BenchArtifact {
        BenchArtifact {
            group: "audit".into(),
            generated_by: "bench_audit".into(),
            threads: 8,
            git: Some("b67b00b-dirty".into()),
            counters: vec![("net.probe.sent".into(), 123)],
            results: vec![
                BenchRecord {
                    name: "audit/one proxy".into(),
                    median_ns: 127_000.5,
                    p10_ns: 120_000.0,
                    // One decimal place: to_json writes {:.1}, so finer
                    // precision would not survive the round trip.
                    p90_ns: 140_000.2,
                    iters_per_sample: 39,
                    samples: 20,
                    tolerance: Some(0.5),
                },
                BenchRecord {
                    name: "audit/with \"quotes\"".into(),
                    median_ns: 10.0,
                    p10_ns: 9.0,
                    p90_ns: 11.0,
                    iters_per_sample: 1000,
                    samples: 20,
                    tolerance: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let art = sample_artifact();
        let parsed = BenchArtifact::parse(&art.to_json()).unwrap();
        assert_eq!(parsed.group, art.group);
        assert_eq!(parsed.generated_by, art.generated_by);
        assert_eq!(parsed.threads, art.threads);
        assert_eq!(parsed.git, art.git);
        assert_eq!(parsed.counters, art.counters);
        assert_eq!(parsed.results, art.results);
    }

    #[test]
    fn empty_artifact_round_trips() {
        let art = BenchArtifact::default();
        let parsed = BenchArtifact::parse(&art.to_json()).unwrap();
        assert_eq!(parsed, art);
    }

    #[test]
    fn merge_replaces_by_name_and_keeps_committed_tolerance() {
        let mut art = sample_artifact();
        let fresh = vec![
            BenchRecord {
                name: "audit/one proxy".into(),
                median_ns: 99_000.0,
                p10_ns: 98_000.0,
                p90_ns: 100_000.0,
                iters_per_sample: 50,
                samples: 5,
                tolerance: None,
            },
            BenchRecord {
                name: "audit/brand new".into(),
                median_ns: 1.0,
                p10_ns: 1.0,
                p90_ns: 1.0,
                iters_per_sample: 1,
                samples: 2,
                tolerance: None,
            },
        ];
        art.merge_results(&fresh);
        assert_eq!(art.results.len(), 3);
        let one = art.results.iter().find(|r| r.name == "audit/one proxy").unwrap();
        assert_eq!(one.median_ns, 99_000.0);
        // The committed per-entry tolerance survives a re-measure.
        assert_eq!(one.tolerance, Some(0.5));
        assert!(art.results.iter().any(|r| r.name == "audit/brand new"));
    }

    #[test]
    fn parse_tolerates_minimal_hand_written_baselines() {
        let art = BenchArtifact::parse(
            r#"{ "group": "gate",
                 "results": [ { "name": "gate/x", "median_ns": 1500 } ] }"#,
        )
        .unwrap();
        assert_eq!(art.group, "gate");
        assert_eq!(art.threads, 0);
        assert!(art.git.is_none());
        assert_eq!(art.results[0].median_ns, 1500.0);
        assert_eq!(art.results[0].tolerance, None);
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
    fn file_names_are_sanitized() {
        assert_eq!(BenchArtifact::file_name("audit"), "BENCH_audit.json");
        assert_eq!(
            BenchArtifact::file_name("audit one/two"),
            "BENCH_audit_one_two.json"
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in ["plain", "with \"quotes\"", "tab\there", "back\\slash", "µs"] {
            let parsed = Json::parse(&json_str(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s));
        }
    }
}
