//! The compact event log: one flat byte buffer per recorder.
//!
//! Each event is two header words, its sim time and its interned schema
//! id, then one word per field in schema order: integers as their bits,
//! floats as `to_bits`, booleans as 0 or 1 and strings as interned ids.
//! Every word is stored as an unsigned LEB128 varint (seven bits a byte,
//! low bits first, the high bit set on every byte but the last), so the
//! small ids and counts that make up most fields take one or two bytes
//! instead of eight. Appending an event is a schema lookup and a few
//! byte pushes, and appending a whole log is one copy of bytes; readers
//! decode as they go.

use crate::intern::{self, Kind, Schema};
use crate::{Event, Value};
use std::fmt::Write as _;

/// A recorder's events, oldest first.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    bytes: Vec<u8>,
    len: usize,
}

impl EventLog {
    /// Append one event whose schema id `schema` describes `fields`.
    pub(crate) fn push(&mut self, t_ns: u64, schema: u32, fields: &[(&'static str, Value)]) {
        put(&mut self.bytes, t_ns);
        put(&mut self.bytes, u64::from(schema));
        for &(_, v) in fields {
            put(&mut self.bytes, v.to_word());
        }
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `later`'s events after this log's without decoding them.
    /// Whichever buffer is larger is kept and the other's bytes are
    /// copied into it, so a large log is never rebuilt in a small one.
    pub(crate) fn append(&mut self, mut later: EventLog) {
        if later.bytes.len() > self.bytes.len() {
            later.bytes.splice(0..0, self.bytes.iter().copied());
            self.bytes = later.bytes;
        } else {
            self.bytes.extend_from_slice(&later.bytes);
        }
        self.len += later.len;
    }

    pub(crate) fn iter(&self) -> Events<'_> {
        Events {
            bytes: &self.bytes,
            left: self.len,
        }
    }

    /// Write one JSON object per event, decoding the bytes as it goes.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        let mut events = self.iter();
        while let Some((t_ns, schema, words)) = events.next_raw() {
            let _ = write!(
                out,
                "{{\"t_ns\":{t_ns},\"ev\":\"{}.{}\"",
                schema.target, schema.name
            );
            for (&(key, kind), word) in schema.fields.iter().zip(words) {
                let _ = write!(out, ",\"{key}\":");
                Value::from_word(kind, word).write_json(out);
            }
            out.push_str("}\n");
        }
    }
}

/// Append `word` to `bytes` as an unsigned LEB128 varint (1 to 10 bytes).
fn put(bytes: &mut Vec<u8>, mut word: u64) {
    while word >= 0x80 {
        bytes.push(word as u8 | 0x80);
        word >>= 7;
    }
    bytes.push(word as u8);
}

/// Decode the varint at the front of `bytes` and step past it.
fn take(bytes: &mut &[u8]) -> u64 {
    let mut word = 0;
    let mut shift = 0;
    loop {
        let (&byte, rest) = bytes.split_first().expect("a whole varint");
        *bytes = rest;
        word |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return word;
        }
        shift += 7;
    }
}

impl Value {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Value::U64(_) => Kind::U64,
            Value::F64(_) => Kind::F64,
            Value::Str(_) => Kind::Str,
            Value::Bool(_) => Kind::Bool,
        }
    }

    fn to_word(self) -> u64 {
        match self {
            Value::U64(v) => v,
            Value::F64(v) => v.to_bits(),
            Value::Str(s) => u64::from(intern::str_id(s)),
            Value::Bool(b) => u64::from(b),
        }
    }

    fn from_word(kind: Kind, word: u64) -> Value {
        match kind {
            Kind::U64 => Value::U64(word),
            Kind::F64 => Value::F64(f64::from_bits(word)),
            Kind::Str => Value::Str(intern::str_of(word as u32)),
            Kind::Bool => Value::Bool(word != 0),
        }
    }
}

/// One event's field words, decoded from its bytes on demand.
struct Words<'a>(&'a [u8]);

impl Iterator for Words<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        (!self.0.is_empty()).then(|| take(&mut self.0))
    }
}

/// The events of a recorder, decoded one at a time, oldest first (see
/// [`Recorder::with_events`](crate::Recorder::with_events)). Its length
/// is known up front; skipping with `nth` or `last` builds only the
/// event it returns.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    bytes: &'a [u8],
    left: usize,
}

impl<'a> Events<'a> {
    /// The next event's time, schema and field words, without building
    /// an [`Event`]. The fields are found by their last bytes (the ones
    /// with the high bit clear) and decoded only if the caller reads
    /// them.
    fn next_raw(&mut self) -> Option<(u64, &'static Schema, Words<'a>)> {
        if self.left == 0 {
            return None;
        }
        let t_ns = take(&mut self.bytes);
        let schema = intern::schema_of(take(&mut self.bytes) as u32);
        let mut end = 0;
        for _ in 0..schema.fields.len() {
            end += self.bytes[end..]
                .iter()
                .position(|&b| b < 0x80)
                .expect("a whole varint")
                + 1;
        }
        let (fields, rest) = self.bytes.split_at(end);
        self.bytes = rest;
        self.left -= 1;
        Some((t_ns, schema, Words(fields)))
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
                .map(|(&(key, kind), word)| (key, Value::from_word(kind, word)))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_length() {
        let mut words = vec![0, 1, u64::MAX];
        for k in 1..10 {
            words.extend([(1u64 << (7 * k)) - 1, 1u64 << (7 * k)]);
        }
        let mut bytes = Vec::new();
        for &w in &words {
            let before = bytes.len();
            put(&mut bytes, w);
            let bits = 64 - w.leading_zeros() as usize;
            assert_eq!(bytes.len() - before, bits.div_ceil(7).max(1), "{w:#x}");
        }
        let mut rest = bytes.as_slice();
        let decoded: Vec<u64> = words.iter().map(|_| take(&mut rest)).collect();
        assert_eq!(decoded, words);
        assert!(rest.is_empty());
    }

    #[test]
    fn a_probe_event_takes_a_fraction_of_its_words() {
        // The shape `netsim` records for every probe, with values of the
        // paper audit's sizes: node ids, an interned kind and reply, a
        // nanosecond RTT, and a sim time some minutes into the run.
        let fields = [
            ("src", Value::U64(5_312)),
            ("dst", Value::U64(1_046)),
            ("kind", Value::Str("tunnel_connect")),
            ("reply", Value::Str("syn_ack")),
            ("rtt_ns", Value::U64(48_213_554)),
            ("target", Value::U64(877)),
        ];
        let schema = intern::schema_id("netsim", "probe", &fields);
        let mut log = EventLog::default();
        log.push(412_000_000_000, schema, &fields);
        // Interned ids come in first-seen order across the test binary,
        // so their widths are read, not assumed (one byte below 128).
        let id_bytes = |id: u32| if id < 0x80 { 1 } else { 2 };
        let ids = id_bytes(schema)
            + id_bytes(intern::str_id("tunnel_connect"))
            + id_bytes(intern::str_id("syn_ack"));
        // Eight words would be 64 bytes. A 6-byte time, 2 + 2 bytes of
        // node ids, a 4-byte RTT, a 2-byte target, and the three ids.
        assert_eq!(log.bytes.len(), 6 + 2 + 2 + 4 + 2 + ids);
        assert!(log.bytes.len() <= 24);
        let decoded: Vec<Event> = log.iter().collect();
        assert_eq!(decoded[0].t_ns, 412_000_000_000);
        assert_eq!(decoded[0].fields, fields.to_vec());
    }
}
