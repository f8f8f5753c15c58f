//! OpenMetrics-flavoured text exposition: a zero-dependency writer and
//! parser for the Prometheus/OpenMetrics line format.
//!
//! The writer ([`MetricSet`]) renders counters, gauges, and power-of-two
//! [`Hist`]ograms under stable, linted metric names with labels, ending
//! with the OpenMetrics `# EOF` terminator so scrapers can detect
//! truncation. The parser ([`parse_exposition`]) is the syntax oracle
//! used by tests and CI: everything the writer emits must round-trip
//! through it byte-for-byte ([`Exposition::render`]).
//!
//! Determinism contract: a `MetricSet` renders its families and samples
//! in sorted order, so two sets built from the same deterministic
//! counters are byte-identical regardless of insertion order. The
//! determinism matrix byte-compares the deterministic subset (see
//! [`MetricSet::render_filtered`]) across shard and thread splits.

use crate::json;
use crate::registry;
use crate::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The exposition type of one metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The keyword used on `# TYPE` lines.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// A scalar sample value: u64 counters keep full precision, gauges are
/// `f64` (rendered by shortest round-trip, so identical bits render
/// identically).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scalar {
    U(u64),
    F(f64),
}

impl Scalar {
    fn write(self, out: &mut String) {
        match self {
            Scalar::U(v) => {
                let _ = write!(out, "{v}");
            }
            Scalar::F(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Scalar::F(v) if v.is_nan() => out.push_str("NaN"),
            Scalar::F(v) if v > 0.0 => out.push_str("+Inf"),
            Scalar::F(_) => out.push_str("-Inf"),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Scalar::U(v) => v as f64,
            Scalar::F(v) => v,
        }
    }
}

type Labels = Vec<(String, String)>;

#[derive(Debug, Default)]
struct Family {
    kind: Option<MetricKind>,
    help: String,
    scalars: BTreeMap<Labels, Scalar>,
    hists: BTreeMap<Labels, Hist>,
}

/// An in-memory set of metric families, rendered to the text exposition
/// format with [`render`](MetricSet::render).
#[derive(Debug, Default)]
pub struct MetricSet {
    families: BTreeMap<String, Family>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    fn family(&mut self, name: &str, kind: MetricKind, help: &str) -> &mut Family {
        let f = self.families.entry(name.to_string()).or_default();
        match f.kind {
            None => f.kind = Some(kind),
            Some(k) => assert_eq!(
                k,
                kind,
                "metric family {name:?} registered as {} and {}",
                k.as_str(),
                kind.as_str()
            ),
        }
        if f.help.is_empty() {
            f.help = help.to_string();
        }
        f
    }

    /// Add `value` to the counter sample `name{labels}` (creating it at
    /// zero first).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let key = owned_labels(labels);
        let f = self.family(name, MetricKind::Counter, help);
        let e = f.scalars.entry(key).or_insert(Scalar::U(0));
        match e {
            Scalar::U(v) => *v += value,
            Scalar::F(v) => *v += value as f64,
        }
    }

    /// Set the gauge sample `name{labels}`.
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = owned_labels(labels);
        self.family(name, MetricKind::Gauge, help)
            .scalars
            .insert(key, Scalar::F(value));
    }

    /// Set the gauge sample `name{labels}` to an exact integer.
    pub fn set_gauge_u64(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let key = owned_labels(labels);
        self.family(name, MetricKind::Gauge, help)
            .scalars
            .insert(key, Scalar::U(value));
    }

    /// Merge `hist` into the histogram sample `name{labels}`.
    pub fn add_hist(&mut self, name: &str, help: &str, labels: &[(&str, &str)], hist: &Hist) {
        let key = owned_labels(labels);
        self.family(name, MetricKind::Histogram, help)
            .hists
            .entry(key)
            .or_default()
            .merge(hist);
    }

    /// The scalar sample `name{labels}` (counters and gauges), if set.
    /// Labels match regardless of order.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = owned_labels(labels);
        self.families
            .get(name)?
            .scalars
            .get(&key)
            .map(|s| s.as_f64())
    }

    /// The histogram sample `name{labels}`, if set.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Hist> {
        let key = owned_labels(labels);
        self.families.get(name)?.hists.get(&key)
    }

    /// Every scalar sample of family `name` as `(labels, value)` pairs,
    /// sorted by labels. Empty when the family is absent or histogram.
    pub fn samples(&self, name: &str) -> Vec<(&[(String, String)], f64)> {
        match self.families.get(name) {
            None => Vec::new(),
            Some(f) => f
                .scalars
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_f64()))
                .collect(),
        }
    }

    /// The family names present, sorted.
    pub fn family_names(&self) -> Vec<&str> {
        self.families.keys().map(String::as_str).collect()
    }

    /// The kind of family `name`, if present.
    pub fn kind(&self, name: &str) -> Option<MetricKind> {
        self.families.get(name).and_then(|f| f.kind)
    }

    /// Render the full exposition, `# EOF`-terminated.
    pub fn render(&self) -> String {
        self.render_filtered(|_| true)
    }

    /// Render only the families `keep` accepts (still `# EOF`
    /// terminated). The determinism matrix uses this to byte-compare
    /// the deterministic subset across splits while the wall-clock
    /// families float free.
    pub fn render_filtered(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut out = String::new();
        for (name, f) in &self.families {
            if !keep(name) {
                continue;
            }
            let kind = f.kind.expect("family always has a kind once created");
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            if !f.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&f.help));
            }
            for (labels, v) in &f.scalars {
                out.push_str(name);
                write_labels(&mut out, labels, &[]);
                out.push(' ');
                v.write(&mut out);
                out.push('\n');
            }
            for (labels, h) in &f.hists {
                let mut cum = 0u64;
                for (&b, &n) in &h.buckets {
                    cum += n;
                    let le = match b {
                        0 => 0u64,
                        64.. => u64::MAX,
                        _ => (1u64 << b) - 1,
                    };
                    let _ = write!(out, "{name}_bucket");
                    write_labels(&mut out, labels, &[("le", &le.to_string())]);
                    let _ = writeln!(out, " {cum}");
                }
                let _ = write!(out, "{name}_bucket");
                write_labels(&mut out, labels, &[("le", "+Inf")]);
                let _ = writeln!(out, " {}", h.count);
                let _ = write!(out, "{name}_sum");
                write_labels(&mut out, labels, &[]);
                let _ = writeln!(out, " {}", h.sum);
                let _ = write!(out, "{name}_count");
                write_labels(&mut out, labels, &[]);
                let _ = writeln!(out, " {}", h.count);
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Check every family against the [`registry`]: the name must be
    /// registered, lint-clean, and carry only its registered label
    /// keys. Returns the list of violations (empty = clean).
    pub fn lint_against_registry(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, f) in &self.families {
            if let Err(e) = lint_metric_name(name) {
                problems.push(e);
            }
            let Some(def) = registry::family(name) else {
                problems.push(format!(
                    "family {name:?} is not registered in obs::registry"
                ));
                continue;
            };
            if let Some(kind) = f.kind {
                if kind != def.kind {
                    problems.push(format!(
                        "family {name:?} exported as {} but registered as {}",
                        kind.as_str(),
                        def.kind.as_str()
                    ));
                }
            }
            for labels in f.scalars.keys().chain(f.hists.keys()) {
                for (k, _) in labels {
                    if !def.label_keys.contains(&k.as_str()) {
                        problems.push(format!(
                            "family {name:?} carries unregistered label key {k:?}"
                        ));
                    }
                }
            }
        }
        problems
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: &[(&str, &str)]) {
    if labels.is_empty() && extra.is_empty() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push('=');
        out.push_str(&escape_label(v));
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn escape_help(h: &str) -> String {
    h.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Lint one metric family name: lowercase snake_case, `pv_`-prefixed,
/// no leading/trailing/double underscores.
pub fn lint_metric_name(name: &str) -> Result<(), String> {
    if !name.starts_with("pv_") {
        return Err(format!("metric {name:?} must carry the pv_ crate prefix"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(format!("metric {name:?} must be lowercase snake_case"));
    }
    if name.contains("__") || name.ends_with('_') {
        return Err(format!("metric {name:?} has empty snake_case segments"));
    }
    Ok(())
}

// --- parser ----------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Sample name as written (`pv_x`, `pv_x_bucket`, …).
    pub name: String,
    /// Labels in document order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
    /// The value's exact source text (integers above 2^53 do not
    /// survive the `f64` model, so re-rendering uses this).
    pub raw_value: String,
}

/// One parsed metric family.
#[derive(Debug, Clone)]
pub struct ParsedFamily {
    /// Family name from the `# TYPE` line.
    pub name: String,
    /// Declared kind.
    pub kind: MetricKind,
    /// `# HELP` text, if present.
    pub help: Option<String>,
    /// The family's samples, in document order.
    pub samples: Vec<ParsedSample>,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Families in document order.
    pub families: Vec<ParsedFamily>,
}

impl Exposition {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&ParsedFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The value of sample `name{labels}` (label order-insensitive).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        for f in &self.families {
            for s in &f.samples {
                if s.name == name {
                    let mut have = s.labels.clone();
                    have.sort();
                    if have == want {
                        return Some(s.value);
                    }
                }
            }
        }
        None
    }

    /// Re-render the parsed document. For everything the in-repo writer
    /// emits, `render(parse(text)) == text` — the round-trip CI checks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            if let Some(h) = &f.help {
                let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(h));
            }
            for s in &f.samples {
                out.push_str(&s.name);
                write_labels(&mut out, &s.labels, &[]);
                out.push(' ');
                out.push_str(&s.raw_value);
                out.push('\n');
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Parse a text exposition. Validates the grammar, that every sample
/// belongs to a `# TYPE`-declared family (histogram families own their
/// `_bucket`/`_sum`/`_count` series), and that the document ends with
/// `# EOF`.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut doc = Exposition::default();
    let mut saw_eof = false;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if saw_eof {
            return Err(format!("line {ln}: content after # EOF"));
        }
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {ln}: malformed # TYPE"))?;
            let kind = MetricKind::parse(kind.trim())
                .ok_or_else(|| format!("line {ln}: unknown metric kind {kind:?}"))?;
            if doc.family(name).is_some() {
                return Err(format!("line {ln}: duplicate # TYPE for {name:?}"));
            }
            doc.families.push(ParsedFamily {
                name: name.to_string(),
                kind,
                help: None,
                samples: Vec::new(),
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {ln}: malformed # HELP"))?;
            let fam = doc
                .families
                .iter_mut()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("line {ln}: # HELP for undeclared family {name:?}"))?;
            fam.help = Some(help.to_string());
            continue;
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        let sample = parse_sample(line).map_err(|e| format!("line {ln}: {e}"))?;
        let owner = doc
            .families
            .iter_mut()
            .find(|f| sample_belongs(&f.name, f.kind, &sample.name))
            .ok_or_else(|| format!("line {ln}: sample {:?} has no declared family", sample.name))?;
        owner.samples.push(sample);
    }
    if !saw_eof {
        return Err("missing # EOF terminator".into());
    }
    Ok(doc)
}

fn sample_belongs(family: &str, kind: MetricKind, sample: &str) -> bool {
    match kind {
        MetricKind::Counter | MetricKind::Gauge => sample == family,
        MetricKind::Histogram => sample
            .strip_prefix(family)
            .is_some_and(|rest| matches!(rest, "_bucket" | "_sum" | "_count")),
    }
}

fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_' || bytes[pos] == b':')
    {
        pos += 1;
    }
    if pos == 0 {
        return Err(format!("expected sample name in {line:?}"));
    }
    let name = line[..pos].to_string();
    let mut labels = Vec::new();
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        loop {
            if bytes.get(pos) == Some(&b'}') {
                pos += 1;
                break;
            }
            let key_start = pos;
            while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
                pos += 1;
            }
            if pos == key_start {
                return Err(format!("expected label key at byte {pos}"));
            }
            let key = line[key_start..pos].to_string();
            if bytes.get(pos) != Some(&b'=') {
                return Err(format!("expected '=' at byte {pos}"));
            }
            pos += 1;
            if bytes.get(pos) != Some(&b'"') {
                return Err(format!("expected '\"' at byte {pos}"));
            }
            pos += 1;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".into()),
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        pos += 1;
                        match bytes.get(pos) {
                            Some(b'"') => value.push('"'),
                            Some(b'\\') => value.push('\\'),
                            Some(b'n') => value.push('\n'),
                            other => {
                                return Err(format!("bad label escape {other:?}"));
                            }
                        }
                        pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar, not one byte.
                        let c = line[pos..].chars().next().expect("in-bounds char");
                        value.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
            labels.push((key, value));
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {}
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    let rest = line[pos..].trim();
    let value = match rest {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        n => n
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {n:?}"))?,
    };
    Ok(ParsedSample {
        name,
        labels,
        value,
        raw_value: rest.to_string(),
    })
}

// --- recorder bridge -------------------------------------------------------

/// Build a [`MetricSet`] from everything a [`Recorder`](crate::Recorder)
/// holds, mapped through the [`registry`]:
///
/// * deterministic counters and histograms (pre-seeded at zero for every
///   registered series, so the exported schema is run-independent),
/// * profile-tree stats under the dynamic `pv_span_*` families (`path`
///   label).
///
/// Errors on a counter or histogram name that is not in the registry —
/// the teeth behind the "register your metric" rule.
pub fn recorder_metrics(rec: &crate::Recorder) -> Result<MetricSet, String> {
    let mut set = MetricSet::new();
    let add = |set: &mut MetricSet, def: &registry::MetricDef, v: u64| match def.kind {
        MetricKind::Gauge => set.set_gauge_u64(def.family, def.help, def.labels, v),
        _ => set.add_counter(def.family, def.help, def.labels, v),
    };
    for def in registry::COUNTERS {
        add(&mut set, def, 0);
    }
    for (raw, v) in rec.counters() {
        let def = registry::counter(raw)
            .ok_or_else(|| format!("unregistered counter {raw:?}: add it to obs::registry"))?;
        add(&mut set, def, v);
    }
    for (raw, h) in rec.hists() {
        let def = registry::hist(raw)
            .ok_or_else(|| format!("unregistered histogram {raw:?}: add it to obs::registry"))?;
        set.add_hist(def.family, def.help, def.labels, &h);
    }
    for (path, p) in rec.profile() {
        let path = path.as_str();
        set.add_counter(
            "pv_span_calls_total",
            "Completed profile spans by tree path.",
            &[("path", path)],
            p.count,
        );
        set.set_gauge(
            "pv_span_seconds_total",
            "Cumulative profile span time by tree path.",
            &[("path", path)],
            p.cum_ns as f64 / 1e9,
        );
        set.set_gauge(
            "pv_span_self_seconds_total",
            "Self (non-child) profile span time by tree path.",
            &[("path", path)],
            p.self_ns as f64 / 1e9,
        );
    }
    Ok(set)
}

/// True for families registered as deterministic — the subset the
/// determinism matrix byte-compares across splits.
pub fn deterministic_family(name: &str) -> bool {
    registry::family(name)
        .is_some_and(|def| def.compartment == registry::Compartment::Deterministic)
}

/// Serialize a `MetricSet` summary of each histogram family as JSON
/// quantile estimates (p50/p90/p99 plus count/sum), for human reports.
pub fn hist_summary_json(name: &str, h: &Hist) -> String {
    let q = |p: f64| h.quantile(p).unwrap_or(0);
    format!(
        "{{\"name\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        json::json_str(name),
        h.count,
        h.sum,
        q(0.50),
        q(0.90),
        q(0.99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Recorder};

    fn sample_set() -> MetricSet {
        let mut set = MetricSet::new();
        set.add_counter(
            "pv_probe_total",
            "Probes by outcome.",
            &[("outcome", "sent")],
            41,
        );
        set.add_counter(
            "pv_probe_total",
            "Probes by outcome.",
            &[("outcome", "timeout")],
            1,
        );
        set.set_gauge("pv_progress_ratio", "Done fraction.", &[], 0.75);
        let mut h = Hist::default();
        for v in [0u64, 1, 5, 900, u64::MAX] {
            h.record(v);
        }
        set.add_hist("pv_probe_rtt_microseconds", "Probe RTTs.", &[], &h);
        set
    }

    #[test]
    fn render_is_sorted_and_eof_terminated() {
        let txt = sample_set().render();
        assert!(txt.ends_with("# EOF\n"), "{txt}");
        let probe = txt.find("# TYPE pv_probe_total counter").unwrap();
        let rtt = txt
            .find("# TYPE pv_probe_rtt_microseconds histogram")
            .unwrap();
        let ratio = txt.find("# TYPE pv_progress_ratio gauge").unwrap();
        assert!(rtt < probe && probe < ratio, "families must sort:\n{txt}");
        assert!(txt.contains("pv_probe_total{outcome=\"sent\"} 41"));
        assert!(txt.contains("pv_progress_ratio 0.75"));
        // Histogram: cumulative buckets, +Inf, sum, count.
        assert!(txt.contains("pv_probe_rtt_microseconds_bucket{le=\"0\"} 1"));
        assert!(txt.contains("pv_probe_rtt_microseconds_bucket{le=\"+Inf\"} 5"));
        assert!(txt.contains("pv_probe_rtt_microseconds_count 5"));
    }

    #[test]
    fn exposition_round_trips_byte_for_byte() {
        let txt = sample_set().render();
        let parsed = parse_exposition(&txt).expect("writer output must parse");
        assert_eq!(parsed.render(), txt, "parse→render must be the identity");
        assert_eq!(
            parsed.value("pv_probe_total", &[("outcome", "sent")]),
            Some(41.0)
        );
        assert_eq!(parsed.value("pv_progress_ratio", &[]), Some(0.75));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (doc, why) in [
            ("pv_x 1\n# EOF\n", "sample without TYPE"),
            ("# TYPE pv_x counter\npv_x 1\n", "missing EOF"),
            (
                "# TYPE pv_x counter\n# TYPE pv_x counter\n# EOF\n",
                "dup TYPE",
            ),
            ("# TYPE pv_x wibble\n# EOF\n", "bad kind"),
            (
                "# TYPE pv_x counter\npv_x{o=\"a} 1\n# EOF\n",
                "unterminated label",
            ),
            ("# TYPE pv_x counter\npv_x one\n# EOF\n", "bad value"),
            ("# EOF\nleftover\n", "content after EOF"),
            (
                "# TYPE pv_x gauge\npv_x_bucket{le=\"1\"} 1\n# EOF\n",
                "bucket under gauge",
            ),
        ] {
            assert!(parse_exposition(doc).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn label_escapes_round_trip() {
        let mut set = MetricSet::new();
        set.set_gauge("pv_test_gauge", "", &[("name", "we\"ird\\path\nend")], 1.0);
        let txt = set.render();
        let parsed = parse_exposition(&txt).unwrap();
        assert_eq!(
            parsed.value("pv_test_gauge", &[("name", "we\"ird\\path\nend")]),
            Some(1.0)
        );
        assert_eq!(parsed.render(), txt);
    }

    #[test]
    fn labels_are_order_insensitive_and_sorted_on_render() {
        let mut set = MetricSet::new();
        set.add_counter("pv_x_total", "", &[("b", "2"), ("a", "1")], 3);
        set.add_counter("pv_x_total", "", &[("a", "1"), ("b", "2")], 4);
        assert_eq!(
            set.value("pv_x_total", &[("b", "2"), ("a", "1")]),
            Some(7.0)
        );
        assert!(set.render().contains("pv_x_total{a=\"1\",b=\"2\"} 7"));
    }

    #[test]
    fn name_lint_accepts_registry_style_names() {
        assert!(lint_metric_name("pv_probe_total").is_ok());
        assert!(lint_metric_name("pv_probe_rtt_microseconds").is_ok());
        for bad in [
            "probe_total",    // no prefix
            "pv_Probe_total", // uppercase
            "pv_probe-total", // dash
            "pv__probe",      // empty segment
            "pv_probe_",      // trailing underscore
        ] {
            assert!(lint_metric_name(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn recorder_metrics_maps_registered_names_and_rejects_strays() {
        let rec = Recorder::new(Level::Counters);
        rec.count("net.probe.sent", 7);
        rec.count("net.probe.timeout", 2);
        rec.record("net.probe.rtt_us", 1500);
        rec.count("cache.disk.hits", 3);
        rec.count("cache.disk.entries", 2);
        let set = recorder_metrics(&rec).expect("all names registered");
        assert_eq!(
            set.value("pv_probe_total", &[("outcome", "sent")]),
            Some(7.0)
        );
        assert_eq!(
            set.value("pv_probe_total", &[("outcome", "timeout")]),
            Some(2.0)
        );
        // Pre-seeded zero for a registered-but-unseen series.
        assert_eq!(
            set.value("pv_probe_total", &[("outcome", "completed")]),
            Some(0.0)
        );
        assert_eq!(
            set.value("pv_cache_lookup_total", &[("result", "hit")]),
            Some(3.0)
        );
        // A counter registered as a gauge exports as one.
        assert_eq!(set.kind("pv_cache_entries"), Some(MetricKind::Gauge));
        assert_eq!(set.value("pv_cache_entries", &[]), Some(2.0));
        assert!(set.hist("pv_probe_rtt_microseconds", &[]).is_some());
        assert!(set.lint_against_registry().is_empty());

        let stray = Recorder::new(Level::Counters);
        stray.count("nobody.registered.this", 1);
        let err = recorder_metrics(&stray).unwrap_err();
        assert!(err.contains("nobody.registered.this"), "{err}");
    }

    #[test]
    fn deterministic_subset_excludes_wall_families() {
        let rec = Recorder::new(Level::Counters);
        rec.count("net.probe.sent", 1);
        rec.count("cache.disk.hits", 1);
        drop(rec.profile_span("w"));
        let set = recorder_metrics(&rec).unwrap();
        assert!(set.value("pv_span_calls_total", &[("path", "w")]).is_some());
        let det = set.render_filtered(deterministic_family);
        assert!(det.contains("pv_probe_total"));
        assert!(
            det.contains("pv_cache_lookup_total"),
            "cache counters are exact:\n{det}"
        );
        assert!(!det.contains("pv_span_"), "span family leaked:\n{det}");
        assert!(parse_exposition(&det).is_ok(), "subset must still parse");
    }

    #[test]
    fn hist_summary_json_is_valid_json() {
        let mut h = Hist::default();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let js = hist_summary_json("net.probe.rtt_us", &h);
        let parsed = crate::json::Json::parse(&js).expect("valid json");
        assert_eq!(parsed.get("count").and_then(|j| j.as_f64()), Some(4.0));
    }
}
