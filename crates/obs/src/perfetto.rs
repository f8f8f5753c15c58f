//! Perfetto / Chrome trace-event export.
//!
//! Serializes a [`Recorder`]'s hierarchical profile
//! tree and its sim-clock event stream to the catapult trace-event JSON
//! format, so a study run opens directly in [Perfetto]
//! (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! The profiler stores *aggregates* per tree path (count, cumulative
//! ns, self ns), not individual span instants, so the export lays the
//! tree out as a synthetic timeline: every path becomes one complete
//! (`"X"`) event whose duration is its cumulative time, children packed
//! left-to-right inside their parent starting at the parent's start
//! tick. Durations are real; start offsets are layout. Sim-clock
//! [`Event`](crate::Event)s render as instant (`"i"`) events on their
//! own track at their simulated timestamp.
//!
//! [Perfetto]: https://perfetto.dev

use crate::json::json_str;
use crate::{Events, ProfileStat, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cap on exported sim-clock instants: a paper-scale audit emits
/// hundreds of thousands of events, and a multi-hundred-MB trace helps
/// nobody. When the cap bites, a final instant reports how many events
/// were dropped.
const MAX_INSTANTS: usize = 20_000;

const PID: u32 = 1;
const TID_PROFILE: u32 = 1;
const TID_SIM: u32 = 2;

/// Render the recorder's profile tree and event stream (its first
/// 20,000 events) as a trace-event JSON document.
pub fn render_trace(rec: &Recorder) -> String {
    let mut events: Vec<String> = Vec::new();
    metadata(&mut events);
    profile_events(&rec.profile(), &mut events);
    rec.with_events(|evs| instant_events(evs, &mut events));
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn metadata(out: &mut Vec<String>) {
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{TID_PROFILE},\"name\":\"process_name\",\"args\":{{\"name\":\"proxy-verifier\"}}}}"
    ));
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{TID_PROFILE},\"name\":\"thread_name\",\"args\":{{\"name\":\"profile (aggregated)\"}}}}"
    ));
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{TID_SIM},\"name\":\"thread_name\",\"args\":{{\"name\":\"sim clock\"}}}}"
    ));
}

#[derive(Default)]
struct Node {
    stat: Option<ProfileStat>,
    children: BTreeMap<String, Node>,
}

impl Node {
    /// Duration of this node on the synthetic timeline: its own
    /// cumulative time, or the children's sum for prefix-only paths.
    fn dur_ns(&self) -> u128 {
        match self.stat {
            Some(s) => s.cum_ns,
            None => self.children.values().map(Node::dur_ns).sum(),
        }
    }
}

fn profile_events(entries: &[(String, ProfileStat)], out: &mut Vec<String>) {
    let mut root = Node::default();
    for (path, stat) in entries {
        let mut node = &mut root;
        for seg in path.split('/') {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.stat = Some(*stat);
    }
    fn ordered(node: &Node) -> Vec<(&String, &Node)> {
        let mut kids: Vec<_> = node.children.iter().collect();
        kids.sort_by(|(an, a), (bn, b)| b.dur_ns().cmp(&a.dur_ns()).then(an.cmp(bn)));
        kids
    }
    fn emit(node: &Node, name: &str, start_ns: u128, out: &mut Vec<String>) {
        let dur = node.dur_ns();
        let (count, self_ns) = match node.stat {
            Some(s) => (s.count, s.self_ns),
            None => (0, 0),
        };
        out.push(format!(
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{TID_PROFILE},\"name\":{},\"ts\":{},\"dur\":{},\"args\":{{\"count\":{count},\"self_us\":{}}}}}",
            json_str(name),
            us(start_ns),
            us(dur),
            us(self_ns),
        ));
        let mut cursor = start_ns;
        for (child_name, child) in ordered(node) {
            emit(child, child_name, cursor, out);
            cursor += child.dur_ns();
        }
    }
    let mut cursor = 0u128;
    for (name, node) in ordered(&root) {
        emit(node, name, cursor, out);
        cursor += node.dur_ns();
    }
}

/// Write the first `MAX_INSTANTS` events as instants, then a marker
/// naming how many were left out; only the written events and the last
/// are built.
fn instant_events(mut events: Events<'_>, out: &mut Vec<String>) {
    let total = events.len();
    for e in events.by_ref().take(MAX_INSTANTS) {
        let mut line = format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{TID_SIM},\"s\":\"t\",\"name\":{},\"ts\":{}",
            json_str(&format!("{}.{}", e.target, e.name)),
            us(u128::from(e.t_ns)),
        );
        if !e.fields.is_empty() {
            line.push_str(",\"args\":{");
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{}:", json_str(k));
                let mut buf = String::new();
                v.write_json(&mut buf);
                line.push_str(&buf);
            }
            line.push('}');
        }
        line.push('}');
        out.push(line);
    }
    if total > MAX_INSTANTS {
        let dropped = total - MAX_INSTANTS;
        let last_ts = events.last().map(|e| e.t_ns).unwrap_or(0);
        out.push(format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{TID_SIM},\"s\":\"t\",\"name\":\"trace truncated\",\"ts\":{},\"args\":{{\"dropped_events\":{dropped}}}}}",
            us(u128::from(last_ts)),
        ));
    }
}

/// Nanoseconds → trace-event microseconds, 3 decimal places (stable
/// formatting, no float shortest-round-trip wobble).
fn us(ns: u128) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{Level, Recorder};

    fn trace_events(doc: &str) -> Vec<Json> {
        let parsed = Json::parse(doc.trim_end()).expect("trace must be valid JSON");
        parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
            .to_vec()
    }

    #[test]
    fn trace_is_valid_json_with_metadata() {
        let rec = Recorder::new(Level::Events);
        let doc = render_trace(&rec);
        let events = trace_events(&doc);
        // Empty recorder still carries the three metadata records.
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("process_name")));
    }

    #[test]
    fn profile_tree_becomes_nested_complete_events() {
        let rec = Recorder::new(Level::Counters);
        {
            let _a = rec.profile_span("audit.run");
            let _b = rec.profile_span("audit.locate");
        }
        let doc = render_trace(&rec);
        let events = trace_events(&doc);
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let run = complete
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("audit.run"))
            .unwrap();
        let locate = complete
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("audit.locate"))
            .unwrap();
        let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap();
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
        // Child starts at parent start and fits inside it.
        assert_eq!(ts(run), ts(locate));
        assert!(dur(locate) <= dur(run));
        assert!(
            run.get("args")
                .and_then(|a| a.get("count"))
                .and_then(Json::as_f64)
                == Some(1.0)
        );
    }

    #[test]
    fn sim_events_become_instants_at_sim_time() {
        let rec = Recorder::new(Level::Events);
        rec.event_at(2_500, "net", "probe", vec![("dst", 7u64.into())]);
        let doc = render_trace(&rec);
        let events = trace_events(&doc);
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .expect("one instant");
        assert_eq!(
            instant.get("name").and_then(Json::as_str),
            Some("net.probe")
        );
        assert_eq!(instant.get("ts").and_then(Json::as_f64), Some(2.5));
        assert_eq!(
            instant
                .get("args")
                .and_then(|a| a.get("dst"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn instant_cap_truncates_with_a_marker() {
        let rec = Recorder::new(Level::Events);
        let dropped = 6;
        for i in 0..(MAX_INSTANTS + dropped) as u64 {
            rec.event_at(i, "net", "probe", vec![]);
        }
        let doc = render_trace(&rec);
        let events = trace_events(&doc);
        let instants: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .collect();
        // The first MAX_INSTANTS kept, then one truncation marker.
        assert_eq!(instants.len(), MAX_INSTANTS + 1);
        assert_eq!(
            instants[MAX_INSTANTS - 1].get("ts").and_then(Json::as_f64),
            Some((MAX_INSTANTS - 1) as f64 / 1_000.0)
        );
        let marker = instants.last().unwrap();
        assert_eq!(
            marker.get("name").and_then(Json::as_str),
            Some("trace truncated")
        );
        assert_eq!(
            marker
                .get("args")
                .and_then(|a| a.get("dropped_events"))
                .and_then(Json::as_f64),
            Some(dropped as f64)
        );
    }

    #[test]
    fn microsecond_formatting_is_stable() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
