//! Process-wide intern tables behind the recorder's hot paths.
//!
//! A span path is an id for `(parent id, name)`, an event schema an id
//! for `(target, name, [(key, kind)])`, and an event's string value an
//! id for its text. Each table lives once per process behind one mutex;
//! each thread keeps a cache in front of it, keyed by the address of the
//! `&'static str` it was handed, so a name the thread has seen before
//! costs one thread-local lookup, no lock and no allocation. The caches
//! also mirror the id → value direction for decoding.
//!
//! Ids are handed out in first-seen order, which depends on which thread
//! got there first. An id therefore never reaches an output, an ordering
//! or a comparison: the recorder turns ids back into text before anything
//! leaves this crate.

use crate::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The kind of one event field's value, fixed by the event's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Kind {
    U64,
    F64,
    Str,
    Bool,
}

/// One event shape: its emitter, its name, and its keys with their
/// value kinds, in emission order.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct Schema {
    pub(crate) target: &'static str,
    pub(crate) name: &'static str,
    pub(crate) fields: Box<[(&'static str, Kind)]>,
}

impl Schema {
    fn matches(&self, fields: &[(&'static str, Value)]) -> bool {
        self.fields.len() == fields.len()
            && self
                .fields
                .iter()
                .zip(fields)
                .all(|(&(key, kind), (k, v))| key == *k && kind == v.kind())
    }
}

/// One process-wide table: each distinct key gets the next id.
struct Table<K> {
    items: Vec<K>,
    ids: HashMap<K, u32>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            items: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Table<K> {
    fn id(&mut self, key: K) -> u32 {
        let next = u32::try_from(self.items.len()).expect("fewer than 2^32 interned names");
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.items.push(key);
        }
        id
    }
}

#[derive(Default)]
struct Tables {
    paths: Table<(Option<u32>, &'static str)>,
    schemas: Table<&'static Schema>,
    strs: Table<&'static str>,
}

fn tables() -> MutexGuard<'static, Tables> {
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    TABLES
        .get_or_init(Mutex::default)
        .lock()
        .expect("intern tables poisoned")
}

/// Identity of a `&'static str` in static memory: its address and
/// length. Two equal texts at different addresses get two cache
/// entries, which the process-wide tables resolve to one id.
type Addr = (usize, usize);

fn addr(s: &'static str) -> Addr {
    (s.as_ptr() as usize, s.len())
}

/// Multiplicative hashing for the thread-local caches, whose keys are
/// addresses and ids rather than outside input.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// One thread's view of [`Tables`].
#[derive(Default)]
struct Local {
    paths: AddrMap<(Option<u32>, Addr), u32>,
    schemas: AddrMap<(Addr, Addr), Vec<(&'static Schema, u32)>>,
    strs: AddrMap<Addr, u32>,
    schema_of: Vec<&'static Schema>,
    str_of: Vec<&'static str>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// The id of the span path `name` under `parent` (a root when `None`).
pub(crate) fn path_id(parent: Option<u32>, name: &'static str) -> u32 {
    let key = (parent, addr(name));
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(&id) = local.paths.get(&key) {
            return id;
        }
        let id = tables().paths.id((parent, name));
        local.paths.insert(key, id);
        id
    })
}

/// The `/`-joined text of span path `id`, root first.
pub(crate) fn path_text(id: u32) -> String {
    let t = tables();
    let mut names = Vec::new();
    let mut at = Some(id);
    while let Some(i) = at {
        let (parent, name) = t.paths.items[i as usize];
        names.push(name);
        at = parent;
    }
    names.reverse();
    names.join("/")
}

/// The schema id of an event `target.name` carrying `fields`' keys and
/// value kinds.
pub(crate) fn schema_id(
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value)],
) -> u32 {
    let key = (addr(target), addr(name));
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let known = local.schemas.entry(key).or_default();
        if let Some(&(_, id)) = known.iter().find(|(s, _)| s.matches(fields)) {
            return id;
        }
        let schema = Schema {
            target,
            name,
            fields: fields.iter().map(|&(k, v)| (k, v.kind())).collect(),
        };
        let mut t = tables();
        let id = match t.schemas.ids.get(&schema) {
            Some(&id) => id,
            None => t.schemas.id(Box::leak(Box::new(schema))),
        };
        known.push((t.schemas.items[id as usize], id));
        id
    })
}

/// `seen[id]`, after copying into `seen` the ids this thread has not
/// seen yet from the process-wide `table`.
fn mirror<T: Copy>(seen: &mut Vec<T>, id: u32, table: fn(&Tables) -> &[T]) -> T {
    let have = seen.len();
    if id as usize >= have {
        seen.extend_from_slice(&table(&tables())[have..]);
    }
    seen[id as usize]
}

/// The schema behind `id`.
pub(crate) fn schema_of(id: u32) -> &'static Schema {
    LOCAL.with(|local| mirror(&mut local.borrow_mut().schema_of, id, |t| &t.schemas.items))
}

/// The id of string value `s`.
pub(crate) fn str_id(s: &'static str) -> u32 {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(&id) = local.strs.get(&addr(s)) {
            return id;
        }
        let id = tables().strs.id(s);
        local.strs.insert(addr(s), id);
        id
    })
}

/// The string value behind `id`.
pub(crate) fn str_of(id: u32) -> &'static str {
    LOCAL.with(|local| mirror(&mut local.borrow_mut().str_of, id, |t| &t.strs.items))
}
