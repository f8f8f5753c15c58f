#![warn(missing_docs)]

//! # obs — deterministic observability for the audit pipeline
//!
//! Every layer of the system — the packet simulator, the reliability
//! scheduler, the two-phase measurement engine, the geolocation
//! algorithms, and the study driver — explains itself through one
//! [`Recorder`] handle instead of per-subsystem counters bolted onto
//! result structs. The design contract is **determinism**: everything a
//! recorder collects on the deterministic side is a pure function of the
//! computation it observed, never of scheduling, so traces and rendered
//! summaries can be byte-compared across shard and thread splits.
//!
//! Two strictly separated compartments:
//!
//! * **Deterministic** — structured [`Event`]s timestamped on the
//!   *simulation* clock, monotonic counters ([`Recorder::count`]), and
//!   power-of-two [`Hist`]ograms. Every exact number lives here,
//!   including the fill-once disk cache's hit/miss/entry counts. These
//!   feed the JSONL trace export ([`Recorder::events_jsonl`]) and the
//!   rendered observability report, which the determinism matrix
//!   byte-compares across shard and thread splits.
//! * **Wall-clock** — the profile tree below, the only timing API.
//!   It never enters a determinism check.
//!
//! ## Hierarchical profiling
//!
//! The wall compartment is a span *tree*:
//! [`Recorder::profile_span`] tracks parent/child relationships through
//! a thread-local stack, so nested spans accumulate under a
//! `/`-separated path (`audit.proxy/audit.locate/subset.intersect`).
//! Each path aggregates call count, cumulative nanoseconds, and *self*
//! nanoseconds (cumulative minus time attributed to child spans), and
//! [`render_profile_from`] renders the whole thing as an indented
//! flamegraph-style text tree. Profile data merges additively across
//! [`fork`](Recorder::fork)/[`absorb`](Recorder::absorb) and adds
//! nothing to the deterministic compartment.
//!
//! ## Fork/merge rule
//!
//! A recorder handle is a shared sink: cloning it gives another handle
//! on the *same* buffers. Parallel work must not interleave event
//! streams nondeterministically, so a worker takes a detached child via
//! [`Recorder::fork`], records into it worker-locally, and the
//! coordinator folds the children back with [`Recorder::absorb`] **in a
//! scheduling-independent order** (the audit merges per-proxy recorders
//! in proxy order). Counters and histograms are commutative merges;
//! events are concatenated in absorb order — which is why absorb order
//! must be deterministic.
//!
//! ## Recording without heap work
//!
//! The audit records at [`Level::Events`] by default, so recording is
//! built to stay on. Each recorder keeps its events in one compact log:
//! per event a sim time and an interned schema id (the target, the name
//! and each field's key and value kind), then one `u64` word per field.
//! A span path is an interned id for `(parent id, name)`, and a recorder
//! keeps its [`ProfileStat`]s in a vector indexed by that id. Once a
//! thread has seen a name, recording it again only writes into buffers
//! the recorder already holds. [`Recorder::absorb`] appends the smaller
//! event log to the larger without decoding it, and
//! [`Recorder::with_events`] decodes events one at a time.
//!
//! Interned ids are process-wide and handed out in first-seen order, so
//! they depend on thread scheduling: no id ever reaches an output, an
//! ordering or a comparison. Everything this crate returns or renders
//! carries the text again, in text order.

pub mod alert;
pub mod export;
mod intern;
pub mod json;
mod log;
pub mod perfetto;
pub mod registry;
pub mod snapshot;

use log::EventLog;
pub use log::Events;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much the recorder keeps. Levels are cumulative: `Events` implies
/// `Counters`. Profile spans are recorded at any level except `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Record nothing at all.
    Off,
    /// Counters, histograms, and profile spans only.
    Counters,
    /// Everything: structured events plus all of the above (the
    /// default).
    #[default]
    Events,
}

/// One structured field value. Strings are `&'static str` by design:
/// event emission sits on measurement hot paths, and every name the
/// pipeline needs (packet kinds, loss causes, algorithm stages) is known
/// at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (formatted by shortest round-trip, so identical
    /// bits render identically).
    F64(f64),
    /// Static string.
    Str(&'static str),
    /// Boolean.
    Bool(bool),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match *self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                let _ = write!(out, "\"{v}\"");
            }
            Value::Str(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// One structured event on the simulation clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time of the event, nanoseconds.
    pub t_ns: u64,
    /// Subsystem that emitted it (`"netsim"`, `"reliability"`,
    /// `"twophase"`, `"algo"`, `"audit"`, …).
    pub target: &'static str,
    /// Event name within the target.
    pub name: &'static str,
    /// Ordered structured fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Field `key` as a `u64`, if present and unsigned.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(&Value::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// Field `key` as a static string, if present and a string.
    pub fn field_str(&self, key: &str) -> Option<&'static str> {
        match self.field(key) {
            Some(&Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// A power-of-two histogram of `u64` samples: bucket `i` holds values
/// whose bit width is `i` (bucket 0 is the value zero, bucket 1 is 1,
/// bucket 2 is 2–3, bucket 3 is 4–7, …). Coarse, allocation-light, and
/// merges commutatively — exactly what a deterministic cross-thread
/// aggregate needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating: a histogram fed near-`u64::MAX`
    /// samples pins the sum at `u64::MAX` instead of wrapping).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sparse bucket table: bit width → sample count.
    pub buckets: BTreeMap<u32, u64>,
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(64 - v.leading_zeros()).or_insert(0) += 1;
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded
    /// samples from the power-of-two buckets. `None` when empty.
    ///
    /// The estimate is the upper edge of the bucket holding the
    /// rank-⌈q·n⌉ sample, clamped into the observed `[min, max]` range.
    ///
    /// **Error bound**: a bucket spans `[2^(b-1), 2^b)`, so the
    /// estimate is never *below* the true quantile and is strictly less
    /// than **2×** the true quantile for any true value ≥ 1 (and exact
    /// for 0, for values one below a power of two, and whenever the
    /// min/max clamp applies). That factor-of-two ceiling is the price
    /// of a histogram that merges commutatively in O(64) space.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile asks for.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let hi = match b {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    /// One-line summary: `count  mean  min..max  [bucket histogram]`.
    pub fn render_line(&self) -> String {
        let mut out = format!(
            "n={} mean={:.2} min={} max={}  |",
            self.count,
            self.mean(),
            self.min,
            self.max
        );
        for (&b, &n) in &self.buckets {
            let lo = if b == 0 { 0u64 } else { 1u64 << (b - 1) };
            let _ = write!(out, " {lo}:{n}");
        }
        out
    }
}

/// Aggregated wall-clock timing for one profile-tree path (see
/// [`Recorder::profile_span`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStat {
    /// Completed spans at this path.
    pub count: u64,
    /// Cumulative wall time, nanoseconds: the span's whole lifetime,
    /// children included.
    pub cum_ns: u128,
    /// Self wall time, nanoseconds: cumulative minus time spent inside
    /// child profile spans.
    pub self_ns: u128,
}

impl ProfileStat {
    fn merge(&mut self, other: &ProfileStat) {
        self.count += other.count;
        self.cum_ns += other.cum_ns;
        self.self_ns += other.self_ns;
    }
}

#[derive(Debug, Default)]
struct Buffers {
    now_ns: u64,
    events: EventLog,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
    /// Profile totals of the span paths this recorder has timed, as
    /// `(interned path id, stat)` sorted by id. The audit keeps one
    /// recorder per proxy, and each times a few of the paths the process
    /// has interned, so it holds a slot for those alone.
    profile: Vec<(u32, ProfileStat)>,
}

impl Buffers {
    /// The stat at `path`, found by binary search; a path seen for the
    /// first time gets one new slot (and allocates), a known one none.
    fn profile_at(&mut self, path: u32) -> &mut ProfileStat {
        let i = match self.profile.binary_search_by_key(&path, |&(p, _)| p) {
            Ok(i) => i,
            Err(i) => {
                // Exactly one slot more: doubling's slack would be most
                // of a per-proxy recorder's profile.
                self.profile.reserve_exact(1);
                self.profile.insert(i, (path, ProfileStat::default()));
                i
            }
        };
        &mut self.profile[i].1
    }
}

/// One open profile span on the current thread's stack. The frame keeps
/// its own sink: nested spans may come from *different* recorders (a
/// shared cache's recorder under a worker's forked recorder), and each
/// frame's timing must land in the recorder that opened it.
struct ProfFrame {
    token: u64,
    sink: Arc<Mutex<Buffers>>,
    /// Interned id of the span's path.
    path: u32,
    start: Instant,
    /// Nanoseconds already attributed to completed child spans.
    child_ns: u128,
}

thread_local! {
    static PROF_STACK: RefCell<Vec<ProfFrame>> = const { RefCell::new(Vec::new()) };
}

/// Process-unique tokens so a [`ProfileSpan`] guard can recognise its
/// own frame even after out-of-order drops force-closed it.
static PROF_TOKEN: AtomicU64 = AtomicU64::new(1);

/// The shared observability sink.
///
/// Cloning a `Recorder` yields another handle on the same buffers;
/// [`fork`](Recorder::fork) yields a detached child for worker-local
/// recording (see the module docs for the fork/merge rule). All methods
/// take `&self`; the recorder is `Send + Sync`.
#[derive(Debug, Clone)]
pub struct Recorder {
    level: Level,
    inner: Arc<Mutex<Buffers>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(Level::default())
    }
}

impl Recorder {
    /// A fresh recorder at `level`.
    pub fn new(level: Level) -> Recorder {
        Recorder {
            level,
            inner: Arc::new(Mutex::new(Buffers::default())),
        }
    }

    /// A recorder that keeps nothing (every emission is a level check
    /// and an immediate return).
    pub fn off() -> Recorder {
        Recorder::new(Level::Off)
    }

    /// The recording level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// True when structured events are kept.
    pub fn events_enabled(&self) -> bool {
        self.level >= Level::Events
    }

    /// True when counters and histograms are kept.
    pub fn counters_enabled(&self) -> bool {
        self.level >= Level::Counters
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buffers> {
        self.inner.lock().expect("recorder poisoned")
    }

    /// A detached child at the same level, inheriting the current sim
    /// clock. Recorded into worker-locally, then folded back with
    /// [`absorb`](Recorder::absorb).
    pub fn fork(&self) -> Recorder {
        let child = Recorder::new(self.level);
        child.lock().now_ns = self.lock().now_ns;
        child
    }

    /// Fold a forked child's buffers into this recorder: events are
    /// appended in the child's order, counters, histograms and profile
    /// stats merge additively. Call in a deterministic order
    /// (the caller's item order, never completion order) to keep the
    /// merged event stream scheduling-independent.
    pub fn absorb(&self, child: &Recorder) {
        if self.level == Level::Off {
            return;
        }
        // Take the child's buffers out first so the two locks are never
        // held at once.
        let taken = std::mem::take(&mut *child.lock());
        let mut inner = self.lock();
        inner.events.append(taken.events);
        for (k, v) in taken.counters {
            *inner.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in taken.hists {
            inner.hists.entry(k).or_default().merge(&h);
        }
        for (path, p) in &taken.profile {
            inner.profile_at(*path).merge(p);
        }
        inner.now_ns = inner.now_ns.max(taken.now_ns);
    }

    // --- deterministic side ------------------------------------------------

    /// Advance the recorder's notion of simulation time. Emitters that
    /// know the clock (the network facade) call this; emitters that
    /// don't (pure algorithms) timestamp with the last known value.
    pub fn set_now_ns(&self, t_ns: u64) {
        if self.level == Level::Off {
            return;
        }
        self.lock().now_ns = t_ns;
    }

    /// The recorder's current simulation time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.lock().now_ns
    }

    /// Emit a structured event timestamped with the last known sim time.
    /// `fields` may be an array, a slice or a `Vec`; the recorder copies
    /// the values into its log and keeps nothing of the container.
    pub fn event(
        &self,
        target: &'static str,
        name: &'static str,
        fields: impl AsRef<[(&'static str, Value)]>,
    ) {
        if !self.events_enabled() {
            return;
        }
        let fields = fields.as_ref();
        let schema = intern::schema_id(target, name, fields);
        let mut inner = self.lock();
        let t_ns = inner.now_ns;
        inner.events.push(t_ns, schema, fields);
    }

    /// Emit a structured event at an explicit sim time, advancing the
    /// recorder's clock to it.
    pub fn event_at(
        &self,
        t_ns: u64,
        target: &'static str,
        name: &'static str,
        fields: impl AsRef<[(&'static str, Value)]>,
    ) {
        if !self.events_enabled() {
            return;
        }
        let fields = fields.as_ref();
        let schema = intern::schema_id(target, name, fields);
        let mut inner = self.lock();
        inner.now_ns = inner.now_ns.max(t_ns);
        inner.events.push(t_ns, schema, fields);
    }

    /// Add `n` to the deterministic counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        if !self.counters_enabled() {
            return;
        }
        *self.lock().counters.entry(name).or_insert(0) += n;
    }

    /// Record one sample into the deterministic histogram `name`.
    pub fn record(&self, name: &'static str, v: u64) {
        if !self.counters_enabled() {
            return;
        }
        self.lock().hists.entry(name).or_default().record(v);
    }

    /// The deterministic counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all deterministic counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.lock().counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Snapshot of the deterministic histogram `name`, if recorded.
    pub fn hist(&self, name: &str) -> Option<Hist> {
        self.lock().hists.get(name).cloned()
    }

    /// Snapshot of all deterministic histograms, sorted by name.
    pub fn hists(&self) -> Vec<(&'static str, Hist)> {
        self.lock()
            .hists
            .iter()
            .map(|(&k, h)| (k, h.clone()))
            .collect()
    }

    /// Number of events currently buffered.
    pub fn events_len(&self) -> usize {
        self.lock().events.len()
    }

    /// Run `f` over the buffered events, decoded oldest first. The
    /// iterator knows its length and builds only the events it yields.
    pub fn with_events<R>(&self, f: impl FnOnce(Events<'_>) -> R) -> R {
        f(self.lock().events.iter())
    }

    /// The deterministic trace: one JSON object per event, in recorded
    /// order. Byte-identical across thread counts when the fork/merge
    /// rule is followed.
    pub fn events_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(inner.events.len() * 96);
        inner.events.write_jsonl(&mut out);
        out
    }

    /// Render the deterministic side (counters, then histograms) as an
    /// aligned text block. Excludes events (see
    /// [`events_jsonl`](Recorder::events_jsonl)) and the profile tree.
    pub fn render_deterministic(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (k, v) in &inner.counters {
            let _ = writeln!(out, "{k:<34} {v:>10}");
        }
        for (k, h) in &inner.hists {
            let _ = writeln!(out, "{k:<34} {}", h.render_line());
        }
        out
    }

    // --- wall-clock side: the profile tree ----------------------------------

    /// Start a hierarchical wall-clock profile span named `name`.
    ///
    /// The span's position in the tree is determined by the spans
    /// already open *on this thread*: its path is the enclosing span's
    /// path plus `/name`, or just `name` at the top of the stack. When
    /// the returned guard drops, the elapsed time is added to that
    /// path's [`ProfileStat`] — cumulative in full, self minus whatever
    /// completed child spans already claimed — and the elapsed time is
    /// credited to the parent frame's child tally.
    ///
    /// Guards are expected to drop in reverse open order (ordinary
    /// scoping guarantees this). If an outer guard drops while inner
    /// guards are still open, the inner frames are force-closed and
    /// accounted at that moment; the leftover inner guards then drop as
    /// no-ops. A span opened on one recorder may nest under a span from
    /// a *different* recorder — each frame records into the recorder
    /// that opened it, and the paths knit back together after
    /// [`absorb`](Recorder::absorb).
    ///
    /// No-op (no allocation, no thread-local touch) at [`Level::Off`].
    pub fn profile_span(&self, name: &'static str) -> ProfileSpan {
        self.profile_span_impl(name, false)
    }

    /// Like [`profile_span`](Recorder::profile_span), but the span's
    /// path is always just `name`, even when other spans are open on
    /// this thread — it starts a fresh root in the tree. Use for work
    /// units that should aggregate identically whether they ran inline
    /// on the coordinator (1 thread) or on a worker (the audit's
    /// per-proxy span). Enclosing spans still treat its elapsed time as
    /// child time for their own self/cumulative split.
    pub fn profile_span_root(&self, name: &'static str) -> ProfileSpan {
        self.profile_span_impl(name, true)
    }

    fn profile_span_impl(&self, name: &'static str, root: bool) -> ProfileSpan {
        if self.level == Level::Off {
            return ProfileSpan { token: None };
        }
        let token = PROF_TOKEN.fetch_add(1, Ordering::Relaxed);
        PROF_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().filter(|_| !root).map(|top| top.path);
            let path = intern::path_id(parent, name);
            stack.push(ProfFrame {
                token,
                sink: Arc::clone(&self.inner),
                path,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        ProfileSpan { token: Some(token) }
    }

    /// Snapshot of the aggregated profile tree, sorted by path.
    pub fn profile(&self) -> Vec<(String, ProfileStat)> {
        let stats = self.lock().profile.clone();
        let mut by_path: BTreeMap<String, ProfileStat> = BTreeMap::new();
        for (path, p) in &stats {
            by_path
                .entry(intern::path_text(*path))
                .or_default()
                .merge(p);
        }
        by_path.into_iter().collect()
    }

    /// The aggregated [`ProfileStat`] at `path`, if any span completed
    /// there.
    pub fn profile_stat(&self, path: &str) -> Option<ProfileStat> {
        self.profile()
            .into_iter()
            .find_map(|(p, stat)| (p == path).then_some(stat))
    }
}

/// Render a profile snapshot (as returned by [`Recorder::profile`]) as
/// an indented flamegraph-style text forest: one line per path with
/// call count, self time, and cumulative time. Siblings sort by
/// cumulative time descending with a stable name tiebreak, so the top
/// of the report is the dominant path; a path seen only as a prefix
/// (its own span never completed) sorts by the sum of its children.
/// **Timings are scheduling-dependent by design** — keep out of
/// determinism diffs.
pub fn render_profile_from(entries: &[(String, ProfileStat)]) -> String {
    #[derive(Default)]
    struct Node {
        stat: Option<ProfileStat>,
        children: BTreeMap<String, Node>,
    }
    impl Node {
        /// Sort weight: own cumulative time, or the children's sum for
        /// prefix-only paths.
        fn weight(&self) -> u128 {
            match self.stat {
                Some(s) => s.cum_ns,
                None => self.children.values().map(Node::weight).sum(),
            }
        }
    }
    let mut root = Node::default();
    for (path, stat) in entries {
        let mut node = &mut root;
        for seg in path.split('/') {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.stat = Some(*stat);
    }
    if root.children.is_empty() {
        return String::new();
    }
    fn ordered(node: &Node) -> Vec<(&String, &Node)> {
        let mut kids: Vec<_> = node.children.iter().collect();
        kids.sort_by(|(an, a), (bn, b)| b.weight().cmp(&a.weight()).then(an.cmp(bn)));
        kids
    }
    fn render(node: &Node, name: &str, depth: usize, out: &mut String) {
        let label = format!("{}{}", "  ".repeat(depth), name);
        match node.stat {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{label:<44} {:>9}  self {:>10}  cum {:>10}",
                    s.count,
                    fmt_prof_ns(s.self_ns),
                    fmt_prof_ns(s.cum_ns)
                );
            }
            None => {
                // A path only seen as a prefix (its own span never
                // completed, e.g. still open at render time).
                let _ = writeln!(
                    out,
                    "{label:<44} {:>9}  self {:>10}  cum {:>10}",
                    "-", "-", "-"
                );
            }
        }
        for (child_name, child) in ordered(node) {
            render(child, child_name, depth + 1, out);
        }
    }
    let mut out = format!(
        "{:<44} {:>9}  {:>15}  {:>14}\n",
        "span path", "count", "self", "cum"
    );
    for (name, node) in ordered(&root) {
        render(node, name, 0, &mut out);
    }
    out
}

/// Guard for one hierarchical profile span (see
/// [`Recorder::profile_span`]). Dropping it closes the span and every
/// not-yet-closed span opened under it on the same thread.
pub struct ProfileSpan {
    token: Option<u64>,
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        let Some(token) = self.token.take() else {
            return;
        };
        PROF_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Already force-closed by an enclosing guard's drop (or
            // opened on another thread, which is a misuse we tolerate).
            if !stack.iter().any(|f| f.token == token) {
                return;
            }
            loop {
                let frame = stack.pop().expect("frame present by the check above");
                let done = frame.token == token;
                let cum = frame.start.elapsed().as_nanos();
                let self_ns = cum.saturating_sub(frame.child_ns);
                // A poisoned sink loses this span; a drop must not panic.
                if let Ok(mut buf) = frame.sink.lock() {
                    buf.profile_at(frame.path).merge(&ProfileStat {
                        count: 1,
                        cum_ns: cum,
                        self_ns,
                    });
                }
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += cum;
                }
                if done {
                    break;
                }
            }
        });
    }
}

/// Compact human formatting for profile nanoseconds.
fn fmt_prof_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_keeps_nothing() {
        let r = Recorder::off();
        r.event("t", "e", vec![("k", Value::U64(1))]);
        r.count("c", 5);
        r.record("h", 9);
        drop(r.profile_span("s"));
        assert_eq!(r.events_len(), 0);
        assert_eq!(r.counter("c"), 0);
        assert!(r.hist("h").is_none());
        assert!(r.profile().is_empty());
    }

    #[test]
    fn counters_level_drops_events_keeps_counts() {
        let r = Recorder::new(Level::Counters);
        r.event("t", "e", vec![]);
        r.count("c", 2);
        r.count("c", 3);
        r.record("h", 4);
        assert_eq!(r.events_len(), 0);
        assert_eq!(r.counter("c"), 5);
        assert_eq!(r.hist("h").unwrap().count, 1);
    }

    #[test]
    fn events_jsonl_is_stable_and_ordered() {
        let r = Recorder::new(Level::Events);
        r.event_at(
            1_000,
            "net",
            "probe",
            vec![("dst", 7u64.into()), ("rtt_ms", 1.5.into())],
        );
        r.event(
            "net",
            "loss",
            vec![("cause", "outage".into()), ("ok", false.into())],
        );
        let jsonl = r.events_jsonl();
        assert_eq!(
            jsonl,
            "{\"t_ns\":1000,\"ev\":\"net.probe\",\"dst\":7,\"rtt_ms\":1.5}\n\
             {\"t_ns\":1000,\"ev\":\"net.loss\",\"cause\":\"outage\",\"ok\":false}\n"
        );
    }

    #[test]
    fn fork_then_absorb_merges_everything_in_order() {
        let root = Recorder::new(Level::Events);
        root.event_at(5, "a", "first", vec![]);
        root.count("c", 1);
        let kid_a = root.fork();
        let kid_b = root.fork();
        kid_b.event_at(9, "a", "third", vec![]);
        kid_b.count("c", 10);
        kid_b.record("h", 100);
        kid_a.event_at(7, "a", "second", vec![]);
        kid_a.count("c", 5);
        kid_a.record("h", 2);
        // Absorb in coordinator order (a then b), not completion order.
        root.absorb(&kid_a);
        root.absorb(&kid_b);
        assert_eq!(root.counter("c"), 16);
        let h = root.hist("h").unwrap();
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 2, 100, 102));
        root.with_events(|ev| {
            let names: Vec<_> = ev.map(|e| e.name).collect();
            assert_eq!(names, ["first", "second", "third"]);
        });
        // Children are drained by absorb.
        assert_eq!(kid_a.events_len(), 0);
    }

    #[test]
    fn clone_shares_the_sink_fork_does_not() {
        let r = Recorder::new(Level::Events);
        let same = r.clone();
        same.count("c", 3);
        assert_eq!(r.counter("c"), 3);
        let forked = r.fork();
        forked.count("c", 4);
        assert_eq!(r.counter("c"), 3);
    }

    #[test]
    fn hist_buckets_by_bit_width() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023] {
            h.record(v);
        }
        assert_eq!(h.buckets[&0], 1); // 0
        assert_eq!(h.buckets[&1], 1); // 1
        assert_eq!(h.buckets[&2], 2); // 2..3
        assert_eq!(h.buckets[&3], 2); // 4..7
        assert_eq!(h.buckets[&4], 1); // 8..15
        assert_eq!(h.buckets[&10], 1); // 512..1023
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1023);
    }

    #[test]
    fn event_field_accessors() {
        let e = Event {
            t_ns: 0,
            target: "t",
            name: "n",
            fields: vec![
                ("u", Value::U64(4)),
                ("f", Value::F64(2.5)),
                ("s", Value::Str("x")),
            ],
        };
        assert_eq!(e.field_u64("u"), Some(4));
        assert_eq!(e.field_str("s"), Some("x"));
        assert_eq!(e.field_u64("missing"), None);
    }

    #[test]
    fn hist_merge_with_disjoint_buckets_keeps_both() {
        let mut a = Hist::default();
        a.record(1);
        a.record(1);
        let mut b = Hist::default();
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1026);
        assert_eq!((a.min, a.max), (1, 1024));
        assert_eq!(a.buckets[&1], 2);
        assert_eq!(a.buckets[&11], 1);
        // Merging an empty hist is a no-op both ways.
        let before = a.clone();
        a.merge(&Hist::default());
        assert_eq!(a, before);
        let mut empty = Hist::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn hist_empty_mean_and_render() {
        let h = Hist::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.render_line(), "n=0 mean=0.00 min=0 max=0  |");
    }

    #[test]
    fn hist_u64_max_lands_in_top_bucket() {
        let mut h = Hist::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets[&64], 1);
        assert_eq!((h.min, h.max, h.sum), (u64::MAX, u64::MAX, u64::MAX));
        // The rendered bucket floor is 2^63, which must not overflow.
        assert!(h.render_line().contains(&format!("{}:1", 1u64 << 63)));
    }

    #[test]
    fn profile_nesting_builds_slash_paths() {
        let r = Recorder::new(Level::Counters);
        {
            let _outer = r.profile_span("outer");
            for _ in 0..3 {
                let _inner = r.profile_span("inner");
            }
        }
        let outer = r.profile_stat("outer").unwrap();
        let inner = r.profile_stat("outer/inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(r.profile_stat("inner").is_none(), "inner must nest");
        // Self + children == cumulative, exactly: outer's child tally is
        // the sum of the inner spans' cumulative times.
        assert_eq!(outer.self_ns + inner.cum_ns, outer.cum_ns);
        assert!(inner.cum_ns <= outer.cum_ns);
    }

    #[test]
    fn a_recorder_keeps_slots_only_for_the_paths_it_timed() {
        let other = Recorder::new(Level::Counters);
        for name in ["slots.a", "slots.b", "slots.c"] {
            drop(other.profile_span(name));
        }
        let r = Recorder::new(Level::Counters);
        drop(r.profile_span("slots.c"));
        drop(r.profile_span("slots.c"));
        assert_eq!(r.lock().profile.len(), 1);
        assert_eq!(r.profile_stat("slots.c").unwrap().count, 2);
        r.absorb(&other);
        let paths: Vec<String> = r.profile().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["slots.a", "slots.b", "slots.c"]);
        assert_eq!(r.profile_stat("slots.c").unwrap().count, 3);
    }

    #[test]
    fn profile_out_of_order_drop_force_closes_children() {
        let r = Recorder::new(Level::Counters);
        let outer = r.profile_span("outer");
        let inner = r.profile_span("inner");
        drop(outer); // inner is still open: it gets force-closed here
        assert_eq!(r.profile_stat("outer").unwrap().count, 1);
        assert_eq!(r.profile_stat("outer/inner").unwrap().count, 1);
        drop(inner); // must be a no-op, not a double count
        assert_eq!(r.profile_stat("outer/inner").unwrap().count, 1);
        // The stack is clean: a new span roots at the top level again.
        drop(r.profile_span("fresh"));
        assert!(r.profile_stat("fresh").is_some());
    }

    #[test]
    fn profile_span_root_ignores_the_enclosing_stack() {
        let r = Recorder::new(Level::Counters);
        {
            let _outer = r.profile_span("outer");
            let _rooted = r.profile_span_root("unit");
            let _inner = r.profile_span("inner");
        }
        // `unit` roots its own tree; `inner` nests under it, and the
        // enclosing `outer` still counts `unit` as child time.
        assert!(r.profile_stat("unit").is_some());
        assert!(r.profile_stat("unit/inner").is_some());
        assert!(r.profile_stat("outer/unit").is_none());
        let outer = r.profile_stat("outer").unwrap();
        let unit = r.profile_stat("unit").unwrap();
        assert_eq!(outer.self_ns + unit.cum_ns, outer.cum_ns);
    }

    #[test]
    fn profile_fork_absorb_merges_additively() {
        let root = Recorder::new(Level::Events);
        {
            let _p = root.profile_span("work");
        }
        let child = root.fork();
        for _ in 0..2 {
            let _p = child.profile_span("work");
        }
        root.absorb(&child);
        let stat = root.profile_stat("work").unwrap();
        assert_eq!(stat.count, 3);
        assert_eq!(child.profile().len(), 0, "child drained by absorb");
    }

    #[test]
    fn profile_spans_from_different_recorders_nest_by_thread() {
        // The shared-cache case: a worker's forked recorder opens the
        // enclosing span, the cache's own recorder opens the inner one.
        // Each frame lands in its own recorder, under the thread's path.
        let worker = Recorder::new(Level::Counters);
        let cache = Recorder::new(Level::Counters);
        {
            let _outer = worker.profile_span("audit.proxy");
            let _inner = cache.profile_span("cache.lookup");
        }
        assert_eq!(worker.profile_stat("audit.proxy").unwrap().count, 1);
        assert_eq!(
            cache
                .profile_stat("audit.proxy/cache.lookup")
                .unwrap()
                .count,
            1
        );
        assert!(worker.profile_stat("audit.proxy/cache.lookup").is_none());
    }

    #[test]
    fn profile_off_recorder_is_invisible_to_the_stack() {
        let on = Recorder::new(Level::Counters);
        let off = Recorder::off();
        {
            let _outer = on.profile_span("outer");
            let _ghost = off.profile_span("ghost");
            let _inner = on.profile_span("inner");
        }
        assert!(off.profile().is_empty());
        // The Off span never joined the stack, so "inner" nests
        // directly under "outer".
        assert!(on.profile_stat("outer/inner").is_some());
        assert!(on.profile_stat("outer/ghost/inner").is_none());
    }

    #[test]
    fn render_profile_is_an_indented_forest() {
        let r = Recorder::new(Level::Counters);
        {
            let _a = r.profile_span("alpha");
            let _b = r.profile_span("beta");
        }
        let txt = render_profile_from(&r.profile());
        let alpha = txt.find("\nalpha").unwrap();
        let beta = txt.find("\n  beta").unwrap();
        assert!(alpha < beta, "beta must nest under alpha:\n{txt}");
        assert!(render_profile_from(&Recorder::off().profile()).is_empty());
    }

    #[test]
    fn render_profile_orders_siblings_by_cum_time_then_name() {
        let stat = |count, cum_ns, self_ns| ProfileStat {
            count,
            cum_ns,
            self_ns,
        };
        // `cold` is alphabetically first but cheapest; `hot` dominates.
        // `mid.a`/`mid.b` tie on cum and must fall back to name order.
        let entries = vec![
            ("cold".to_string(), stat(1, 10, 10)),
            ("hot".to_string(), stat(1, 1_000, 400)),
            ("hot/inner_cheap".to_string(), stat(2, 100, 100)),
            ("hot/inner_hot".to_string(), stat(2, 500, 500)),
            ("mid.a".to_string(), stat(1, 50, 50)),
            ("mid.b".to_string(), stat(1, 50, 50)),
        ];
        let txt = render_profile_from(&entries);
        let pos = |needle: &str| {
            txt.find(needle)
                .unwrap_or_else(|| panic!("{needle} missing:\n{txt}"))
        };
        assert!(pos("\nhot") < pos("\n  inner_hot"), "{txt}");
        assert!(pos("\n  inner_hot") < pos("\n  inner_cheap"), "{txt}");
        assert!(pos("\n  inner_cheap") < pos("\nmid.a"), "{txt}");
        assert!(
            pos("\nmid.a") < pos("\nmid.b"),
            "tie must break by name:\n{txt}"
        );
        assert!(pos("\nmid.b") < pos("\ncold"), "{txt}");
        // A prefix-only node weighs what its children weigh: `ghost`
        // never completed but its child out-weighs `cold`.
        let entries = vec![
            ("cold".to_string(), stat(1, 10, 10)),
            ("ghost/busy".to_string(), stat(1, 900, 900)),
        ];
        let txt = render_profile_from(&entries);
        assert!(
            txt.find("\nghost").unwrap() < txt.find("\ncold").unwrap(),
            "prefix-only parent must sort by child weight:\n{txt}"
        );
    }

    #[test]
    fn hist_quantile_empty_is_none() {
        let h = Hist::default();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn hist_quantile_at_bucket_edges() {
        // Values one below a power of two sit exactly on a bucket's
        // upper edge, so the estimate is exact.
        let mut h = Hist::default();
        for v in [0u64, 1, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        // rank ⌈0.2·5⌉ = 1 → bucket of 0.
        assert_eq!(h.quantile(0.2), Some(0));
        // rank ⌈0.5·5⌉ = 3 → bucket of 3 (upper edge 3).
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.8), Some(7));
        assert_eq!(h.quantile(1.0), Some(15));
        // A power of two itself sits at the *bottom* of its bucket: the
        // estimate is the upper edge, within the documented 2x bound.
        let mut h = Hist::default();
        h.record(8);
        let p50 = h.quantile(0.5).unwrap();
        assert_eq!(p50, 8, "single sample clamps to max");
        let mut h = Hist::default();
        h.record(8);
        h.record(9);
        let p25 = h.quantile(0.25).unwrap();
        assert!((8..16).contains(&p25), "within the 2x bound: {p25}");
    }

    #[test]
    fn hist_quantile_clamps_to_observed_range() {
        let mut h = Hist::default();
        h.record(1000); // bucket 10 (512..1023), upper edge 1023
        h.record(1000);
        // Upper edge 1023 clamps down to the observed max 1000.
        assert_eq!(h.quantile(0.5), Some(1000));
        // min-clamp: a single value at the bottom of a wide bucket.
        let mut h = Hist::default();
        h.record(513);
        h.record(2000);
        // p25 → bucket 10, upper edge 1023, min 513 ≤ 1023 ≤ max: stays.
        assert_eq!(h.quantile(0.25), Some(1023));
    }

    #[test]
    fn hist_quantile_u64_max_does_not_overflow() {
        let mut h = Hist::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 7);
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(u64::MAX));
        }
        // rank 1 lands in bucket 64 too; the upper edge u64::MAX is
        // clamped into [min, max] without overflowing.
        assert_eq!(h.quantile(0.0), Some(u64::MAX));
    }

    #[test]
    fn hist_quantile_monotone_in_q() {
        let mut h = Hist::default();
        for v in [1u64, 2, 4, 9, 33, 120, 4096, 70_000] {
            h.record(v);
        }
        let mut last = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(est >= last, "quantile must be monotone in q");
            last = est;
        }
        assert_eq!(h.quantile(1.0), Some(70_000));
    }

    #[test]
    fn render_blocks_are_sorted_and_stable() {
        let r = Recorder::new(Level::Events);
        r.count("z.last", 1);
        r.count("a.first", 2);
        r.record("m.hist", 3);
        let det = r.render_deterministic();
        let a = det.find("a.first").unwrap();
        let z = det.find("z.last").unwrap();
        assert!(a < z, "counters not sorted:\n{det}");
        assert!(det.contains("m.hist"));
    }
}
