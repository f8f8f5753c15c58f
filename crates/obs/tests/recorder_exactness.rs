//! The compact event log and the interned span paths against the
//! recorder they replaced.
//!
//! `reference` below is the recorder's event and span code as it was
//! when every event owned a `Vec` of fields and every span path was a
//! `String` key. A property drives it and `obs::Recorder` with the same
//! random input: every value kind at its edges, integers and times at
//! every varint length from 1 to 10 bytes, events with no fields
//! and with more than eight, one `(target, name)` pair under several key
//! sets and kinds, clock moves, fork/absorb trees absorbed in order, and
//! spans nested across two recorders, under `profile_span_root` and
//! dropped out of order. The traces must be byte-equal, and the decoded
//! events, event counts, clocks and profile paths and counts equal.

use obs::{Event, Level, Recorder, Value};
use simrng::prop::prelude::*;
use simrng::prop::TestCaseError;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use std::sync::OnceLock;

mod reference {
    use obs::{Event, Level, ProfileStat, Value};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    #[derive(Debug, Default)]
    struct Buffers {
        now_ns: u64,
        events: Vec<Event>,
        profile: BTreeMap<String, ProfileStat>,
    }

    struct ProfFrame {
        token: u64,
        sink: Arc<Mutex<Buffers>>,
        path: String,
        start: Instant,
        child_ns: u128,
    }

    thread_local! {
        static PROF_STACK: RefCell<Vec<ProfFrame>> = const { RefCell::new(Vec::new()) };
    }

    static PROF_TOKEN: AtomicU64 = AtomicU64::new(1);

    #[derive(Debug, Clone)]
    pub struct Recorder {
        level: Level,
        inner: Arc<Mutex<Buffers>>,
    }

    impl Recorder {
        pub fn new(level: Level) -> Recorder {
            Recorder {
                level,
                inner: Arc::new(Mutex::new(Buffers::default())),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, Buffers> {
            self.inner.lock().expect("recorder poisoned")
        }

        fn events_enabled(&self) -> bool {
            self.level >= Level::Events
        }

        pub fn fork(&self) -> Recorder {
            let child = Recorder::new(self.level);
            child.lock().now_ns = self.lock().now_ns;
            child
        }

        pub fn absorb(&self, child: &Recorder) {
            if self.level == Level::Off {
                return;
            }
            let taken = std::mem::take(&mut *child.lock());
            let mut inner = self.lock();
            inner.events.extend(taken.events);
            for (k, p) in taken.profile {
                let e = inner.profile.entry(k).or_default();
                e.count += p.count;
                e.cum_ns += p.cum_ns;
                e.self_ns += p.self_ns;
            }
            inner.now_ns = inner.now_ns.max(taken.now_ns);
        }

        pub fn set_now_ns(&self, t_ns: u64) {
            if self.level == Level::Off {
                return;
            }
            self.lock().now_ns = t_ns;
        }

        pub fn now_ns(&self) -> u64 {
            self.lock().now_ns
        }

        pub fn event(
            &self,
            target: &'static str,
            name: &'static str,
            fields: Vec<(&'static str, Value)>,
        ) {
            if !self.events_enabled() {
                return;
            }
            let mut inner = self.lock();
            let t_ns = inner.now_ns;
            inner.events.push(Event {
                t_ns,
                target,
                name,
                fields,
            });
        }

        pub fn event_at(
            &self,
            t_ns: u64,
            target: &'static str,
            name: &'static str,
            fields: Vec<(&'static str, Value)>,
        ) {
            if !self.events_enabled() {
                return;
            }
            let mut inner = self.lock();
            inner.now_ns = inner.now_ns.max(t_ns);
            inner.events.push(Event {
                t_ns,
                target,
                name,
                fields,
            });
        }

        pub fn events_len(&self) -> usize {
            self.lock().events.len()
        }

        pub fn events(&self) -> Vec<Event> {
            self.lock().events.clone()
        }

        pub fn events_jsonl(&self) -> String {
            let inner = self.lock();
            let mut out = String::with_capacity(inner.events.len() * 96);
            for e in &inner.events {
                write_jsonl(e, &mut out);
            }
            out
        }

        pub fn profile_span(&self, name: &'static str) -> ProfileSpan {
            self.profile_span_impl(name, false)
        }

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
                let path = match stack.last() {
                    Some(top) if !root => format!("{}/{}", top.path, name),
                    _ => name.to_string(),
                };
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

        pub fn profile(&self) -> Vec<(String, ProfileStat)> {
            self.lock()
                .profile
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect()
        }
    }

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
                if !stack.iter().any(|f| f.token == token) {
                    return;
                }
                loop {
                    let frame = stack.pop().expect("frame present by the check above");
                    let done = frame.token == token;
                    let cum = frame.start.elapsed().as_nanos();
                    let self_ns = cum.saturating_sub(frame.child_ns);
                    {
                        let mut buf = frame.sink.lock().expect("recorder poisoned");
                        let e = buf.profile.entry(frame.path).or_default();
                        e.count += 1;
                        e.cum_ns += cum;
                        e.self_ns += self_ns;
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

    fn write_json(v: &Value, out: &mut String) {
        match *v {
            Value::U64(v) => {
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

    fn write_jsonl(e: &Event, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"ev\":\"{}.{}\"",
            e.t_ns, e.target, e.name
        );
        for (k, v) in &e.fields {
            let _ = write!(out, ",\"{k}\":");
            write_json(v, out);
        }
        out.push_str("}\n");
    }
}

/// A recorder under test and its reference twin, fed the same calls.
struct Pair {
    new: Recorder,
    old: reference::Recorder,
}

impl Pair {
    fn new(level: Level) -> Pair {
        Pair {
            new: Recorder::new(level),
            old: reference::Recorder::new(level),
        }
    }

    fn fork(&self) -> Pair {
        Pair {
            new: self.new.fork(),
            old: self.old.fork(),
        }
    }

    fn absorb(&self, child: &Pair) {
        self.new.absorb(&child.new);
        self.old.absorb(&child.old);
    }
}

/// Static strings whose text repeats at a second address, so the
/// interning must resolve by text, not only by address.
fn twins() -> &'static [&'static str; 4] {
    static TWINS: OnceLock<[&'static str; 4]> = OnceLock::new();
    TWINS.get_or_init(|| ["probe", "tcp", "src", "net.probe"].map(|s| &*String::from(s).leak()))
}

fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
    pool[rng.random_range(0..pool.len())]
}

/// The words where the log's LEB128 varints change length, 2^7k - 1
/// and 2^7k for k = 1 to 9 (2^63 the last), and 0, 1 and `u64::MAX`:
/// each of the 1 to 10 encoded lengths is drawn at both its ends.
fn varint_edges() -> &'static [u64] {
    static EDGES: OnceLock<Vec<u64>> = OnceLock::new();
    EDGES.get_or_init(|| {
        let mut edges = vec![0, 1, u64::MAX];
        for k in 1..10 {
            edges.extend([(1u64 << (7 * k)) - 1, 1u64 << (7 * k)]);
        }
        edges
    })
}

/// A word of any encoded length: an edge, or a random word cut to a
/// random bit width.
fn random_word(rng: &mut StdRng) -> u64 {
    if rng.random_bool(0.5) {
        pick(rng, varint_edges())
    } else {
        rng.random::<u64>() >> rng.random_range(0..64u32)
    }
}

fn random_value(rng: &mut StdRng) -> Value {
    let any: u64 = rng.random();
    let word = random_word(rng);
    match rng.random_range(0..4u32) {
        0 => Value::U64(pick(rng, &[0, 1, u64::MAX, any, word])),
        1 => Value::F64(pick(
            rng,
            &[
                f64::NAN,
                -f64::NAN,
                f64::from_bits(0x7ff0_0000_0000_0001),
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                f64::from_bits(1),
                -f64::MIN_POSITIVE / 4.0,
                f64::MAX,
                1.5,
                f64::from_bits(any),
            ],
        )),
        2 => Value::Str(pick(rng, &["", "tcp", "syn_ack", "a b", "ünï", twins()[1]])),
        _ => Value::Bool(rng.random_bool(0.5)),
    }
}

fn random_fields(rng: &mut StdRng) -> Vec<(&'static str, Value)> {
    let n = pick(rng, &[0usize, 0, 1, 2, 5, 6, 9, 12]);
    (0..n)
        .map(|_| {
            let key = pick(rng, &["src", "dst", "k", "rtt_ns", twins()[2]]);
            (key, random_value(rng))
        })
        .collect()
}

/// Record a random sequence into `pair` and, through `side`, into a
/// second recorder whose spans nest under `pair`'s on this thread;
/// recurse into forks, absorbing them in fork order.
fn drive(pair: &Pair, side: &Pair, rng: &mut StdRng, depth: u32) -> Result<(), String> {
    let mut open: Vec<(obs::ProfileSpan, reference::ProfileSpan)> = Vec::new();
    for _ in 0..rng.random_range(0..14u32) {
        match rng.random_range(0..10u32) {
            0..=3 => {
                let target = pick(rng, &["netsim", "audit", "t"]);
                let name = pick(rng, &["probe", "done", twins()[0]]);
                let fields = random_fields(rng);
                if rng.random_bool(0.5) {
                    pair.new.event(target, name, &fields);
                    pair.old.event(target, name, fields);
                } else {
                    let now = pair.old.now_ns();
                    let any = random_word(rng);
                    let t_ns = pick(rng, &[0, now, now.saturating_add(1_000), any]);
                    pair.new.event_at(t_ns, target, name, fields.as_slice());
                    pair.old.event_at(t_ns, target, name, fields);
                }
            }
            4 => {
                let t_ns = random_word(rng);
                pair.new.set_now_ns(t_ns);
                pair.old.set_now_ns(t_ns);
            }
            5 | 6 => {
                let on = if rng.random_bool(0.2) { side } else { pair };
                let name = pick(
                    rng,
                    &["audit.proxy", "net.probe", "x", "y", "x/y", twins()[3]],
                );
                open.push(if rng.random_bool(0.25) {
                    (
                        on.new.profile_span_root(name),
                        on.old.profile_span_root(name),
                    )
                } else {
                    (on.new.profile_span(name), on.old.profile_span(name))
                });
            }
            7 if !open.is_empty() => {
                open.remove(rng.random_range(0..open.len()));
            }
            _ if depth < 3 => {
                let kids: Vec<Pair> = (0..rng.random_range(1..4u32))
                    .map(|_| pair.fork())
                    .collect();
                let mut order: Vec<usize> = (0..kids.len()).collect();
                if rng.random_bool(0.5) {
                    order.reverse();
                }
                for i in order {
                    drive(&kids[i], side, rng, depth + 1)?;
                }
                for kid in &kids {
                    same(kid, "child before absorb")?;
                    pair.absorb(kid);
                }
            }
            _ => {}
        }
    }
    while !open.is_empty() {
        open.remove(rng.random_range(0..open.len()));
    }
    Ok(())
}

/// A value's kind, bits and text, so NaNs and signed zeros compare
/// exactly.
fn exact(v: &Value) -> (u8, u64, &'static str) {
    match *v {
        Value::U64(x) => (0, x, ""),
        Value::F64(x) => (1, x.to_bits(), ""),
        Value::Str(s) => (2, 0, s),
        Value::Bool(b) => (3, u64::from(b), ""),
    }
}

fn same_event(a: &Event, b: &Event) -> bool {
    a.t_ns == b.t_ns
        && a.target == b.target
        && a.name == b.name
        && a.fields.len() == b.fields.len()
        && a.fields
            .iter()
            .zip(&b.fields)
            .all(|((ka, va), (kb, vb))| ka == kb && exact(va) == exact(vb))
}

fn same(pair: &Pair, at: &str) -> Result<(), String> {
    let (new, old) = (pair.new.events_jsonl(), pair.old.events_jsonl());
    if new != old {
        return Err(format!("{at}: traces differ\n new: {new}\n old: {old}"));
    }
    if pair.new.events_len() != pair.old.events_len() {
        return Err(format!("{at}: events_len differs"));
    }
    let (len, decoded): (usize, Vec<Event>) =
        pair.new.with_events(|evs| (evs.len(), evs.collect()));
    if len != pair.old.events_len() {
        return Err(format!("{at}: the iterator's length differs"));
    }
    let expected = pair.old.events();
    if decoded.len() != expected.len()
        || !decoded.iter().zip(&expected).all(|(a, b)| same_event(a, b))
    {
        return Err(format!(
            "{at}: decoded events differ\n new: {decoded:?}\n old: {expected:?}"
        ));
    }
    if let Some(last) = expected.last() {
        let skipped = pair.new.with_events(|evs| evs.last());
        if !skipped.is_some_and(|e| same_event(&e, last)) {
            return Err(format!("{at}: last() differs"));
        }
    }
    if pair.new.now_ns() != pair.old.now_ns() {
        return Err(format!("{at}: clocks differ"));
    }
    let counts = |p: Vec<(String, obs::ProfileStat)>| -> Vec<(String, u64)> {
        p.into_iter().map(|(path, s)| (path, s.count)).collect()
    };
    let (new, old) = (counts(pair.new.profile()), counts(pair.old.profile()));
    if new != old {
        return Err(format!(
            "{at}: profiles differ\n new: {new:?}\n old: {old:?}"
        ));
    }
    for (path, count) in &old {
        if pair.new.profile_stat(path).map(|s| s.count) != Some(*count) {
            return Err(format!("{at}: profile_stat({path:?}) differs"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_log_and_interned_paths_match_the_reference_recorder(
        seed in 0u64..u64::MAX,
        level in 0u8..4,
    ) {
        let level = [Level::Off, Level::Counters, Level::Events, Level::Events][usize::from(level)];
        let mut rng = StdRng::seed_from_u64(seed);
        let root = Pair::new(level);
        let side = Pair::new(Level::Events);
        let outcome = drive(&root, &side, &mut rng, 0)
            .and_then(|()| same(&root, "root"))
            .and_then(|()| same(&side, "side recorder"));
        if let Err(why) = outcome {
            return Err(TestCaseError::Fail(why));
        }
    }
}
