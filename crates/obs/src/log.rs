//! The compact event log: one flat buffer of words per recorder.
//!
//! Each event is two header words, its sim time and its interned schema
//! id, then one word per field in schema order: integers as their bits,
//! floats as `to_bits`, booleans as 0 or 1 and strings as interned ids.
//! Appending an event is a schema lookup and a few word pushes, and
//! appending a whole log is one copy of words.

use crate::intern::{self, Kind, Schema};
use crate::{Event, Value};
use std::fmt::Write as _;

/// A recorder's events, oldest first.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    words: Vec<u64>,
    len: usize,
}

impl EventLog {
    /// Append one event whose schema id `schema` describes `fields`.
    pub(crate) fn push(&mut self, t_ns: u64, schema: u32, fields: &[(&'static str, Value)]) {
        self.words.push(t_ns);
        self.words.push(u64::from(schema));
        self.words.extend(fields.iter().map(|&(_, v)| v.to_word()));
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `later`'s events after this log's without decoding them.
    /// Whichever buffer is larger is kept and the other's words are
    /// copied into it, so a large log is never rebuilt in a small one.
    pub(crate) fn append(&mut self, mut later: EventLog) {
        if later.words.len() > self.words.len() {
            later.words.splice(0..0, self.words.iter().copied());
            self.words = later.words;
        } else {
            self.words.extend_from_slice(&later.words);
        }
        self.len += later.len;
    }

    pub(crate) fn iter(&self) -> Events<'_> {
        Events {
            words: &self.words,
            left: self.len,
        }
    }

    /// Write one JSON object per event, straight from the words.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        let mut events = self.iter();
        while let Some((t_ns, schema, words)) = events.next_raw() {
            let _ = write!(
                out,
                "{{\"t_ns\":{t_ns},\"ev\":\"{}.{}\"",
                schema.target, schema.name
            );
            for (&(key, kind), &word) in schema.fields.iter().zip(words) {
                let _ = write!(out, ",\"{key}\":");
                Value::from_word(kind, word).write_json(out);
            }
            out.push_str("}\n");
        }
    }
}

impl Value {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Value::U64(_) => Kind::U64,
            Value::I64(_) => Kind::I64,
            Value::F64(_) => Kind::F64,
            Value::Str(_) => Kind::Str,
            Value::Bool(_) => Kind::Bool,
        }
    }

    fn to_word(self) -> u64 {
        match self {
            Value::U64(v) => v,
            Value::I64(v) => v as u64,
            Value::F64(v) => v.to_bits(),
            Value::Str(s) => u64::from(intern::str_id(s)),
            Value::Bool(b) => u64::from(b),
        }
    }

    fn from_word(kind: Kind, word: u64) -> Value {
        match kind {
            Kind::U64 => Value::U64(word),
            Kind::I64 => Value::I64(word as i64),
            Kind::F64 => Value::F64(f64::from_bits(word)),
            Kind::Str => Value::Str(intern::str_of(word as u32)),
            Kind::Bool => Value::Bool(word != 0),
        }
    }
}

/// The events of a recorder, decoded one at a time, oldest first (see
/// [`Recorder::with_events`](crate::Recorder::with_events)). Its length
/// is known up front; skipping with `nth` or `last` builds only the
/// event it returns.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    words: &'a [u64],
    left: usize,
}

impl<'a> Events<'a> {
    /// The next event's time, schema and field words, without building
    /// an [`Event`].
    fn next_raw(&mut self) -> Option<(u64, &'static Schema, &'a [u64])> {
        if self.left == 0 {
            return None;
        }
        let schema = intern::schema_of(self.words[1] as u32);
        let (event, rest) = self.words.split_at(2 + schema.fields.len());
        self.words = rest;
        self.left -= 1;
        Some((event[0], schema, &event[2..]))
    }
}

impl Iterator for Events<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let (t_ns, schema, words) = self.next_raw()?;
        Some(Event {
            t_ns,
            target: schema.target,
            name: schema.name,
            fields: schema
                .fields
                .iter()
                .zip(words)
                .map(|(&(key, kind), &word)| (key, Value::from_word(kind, word)))
                .collect(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    fn nth(&mut self, n: usize) -> Option<Event> {
        for _ in 0..n {
            self.next_raw()?;
        }
        self.next()
    }

    fn last(mut self) -> Option<Event> {
        let skip = self.left.checked_sub(1)?;
        self.nth(skip)
    }
}

impl ExactSizeIterator for Events<'_> {}
