//! Trace (de)serialization: the `.ftrace` JSON format.
//!
//! Traces serialize as plain JSON so they can be captured once (e.g. from
//! the online runtime) and replayed through any detector. Deserialization
//! re-validates feasibility — a hand-edited file cannot smuggle an
//! infeasible trace into the analyses.
//!
//! The wire format matches what a serde derive would produce (the format the
//! seed repository shipped with), so existing `.ftrace` files stay
//! readable: enums are externally tagged (`{"Read":[0,1]}`), id newtypes
//! are transparent numbers, and a trace is
//! `{"events":[...],"n_threads":N,"n_vars":N,"n_locks":N,"var_objects":[...]}`.

use crate::builder::FeasibilityError;
use crate::event::Op;
use crate::json::{self, JsonValue};
use crate::trace::{validate_declared, Trace};
use ft_clock::Tid;
use ft_obs::JsonWriter;
use std::error::Error;
use std::fmt;

/// Errors from reading a serialized trace.
#[derive(Debug)]
pub enum TraceFormatError {
    /// The JSON was malformed or did not match the trace schema.
    Json(String),
    /// The binary `.ftb` bytes were malformed (see [`crate::FtbError`]).
    Binary(crate::FtbError),
    /// The events decoded but do not form a feasible trace.
    Infeasible(FeasibilityError),
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::Json(e) => write!(f, "malformed trace file: {e}"),
            TraceFormatError::Binary(e) => write!(f, "malformed trace file: {e}"),
            TraceFormatError::Infeasible(e) => write!(f, "infeasible trace: {e}"),
        }
    }
}

impl Error for TraceFormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFormatError::Json(_) => None,
            TraceFormatError::Binary(e) => Some(e),
            TraceFormatError::Infeasible(e) => Some(e),
        }
    }
}

impl From<crate::FtbError> for TraceFormatError {
    fn from(e: crate::FtbError) -> Self {
        TraceFormatError::Binary(e)
    }
}

impl From<json::JsonParseError> for TraceFormatError {
    fn from(e: json::JsonParseError) -> Self {
        TraceFormatError::Json(e.to_string())
    }
}

impl From<FeasibilityError> for TraceFormatError {
    fn from(e: FeasibilityError) -> Self {
        TraceFormatError::Infeasible(e)
    }
}

fn schema_err(msg: impl Into<String>) -> TraceFormatError {
    TraceFormatError::Json(msg.into())
}

/// Writes one op in the externally-tagged enum encoding.
fn write_op(w: &mut JsonWriter, op: &Op) {
    fn pair(w: &mut JsonWriter, tag: &str, a: u32, b: u32) {
        w.begin_object();
        w.key(tag);
        w.begin_array();
        w.u64(a as u64);
        w.u64(b as u64);
        w.end_array();
        w.end_object();
    }
    match op {
        Op::Read(t, x) => pair(w, "Read", t.as_u32(), x.as_u32()),
        Op::Write(t, x) => pair(w, "Write", t.as_u32(), x.as_u32()),
        Op::Acquire(t, m) => pair(w, "Acquire", t.as_u32(), m.as_u32()),
        Op::Release(t, m) => pair(w, "Release", t.as_u32(), m.as_u32()),
        Op::Fork(t, u) => pair(w, "Fork", t.as_u32(), u.as_u32()),
        Op::Join(t, u) => pair(w, "Join", t.as_u32(), u.as_u32()),
        Op::VolatileRead(t, x) => pair(w, "VolatileRead", t.as_u32(), x.as_u32()),
        Op::VolatileWrite(t, x) => pair(w, "VolatileWrite", t.as_u32(), x.as_u32()),
        Op::Wait(t, m) => pair(w, "Wait", t.as_u32(), m.as_u32()),
        Op::Notify(t, m) => pair(w, "Notify", t.as_u32(), m.as_u32()),
        Op::BarrierRelease(ts) => {
            w.begin_object();
            w.key("BarrierRelease");
            w.begin_array();
            for t in ts {
                w.u64(t.as_u32() as u64);
            }
            w.end_array();
            w.end_object();
        }
        Op::AtomicBegin(t) => {
            w.begin_object();
            w.field_u64("AtomicBegin", t.as_u32() as u64);
            w.end_object();
        }
        Op::AtomicEnd(t) => {
            w.begin_object();
            w.field_u64("AtomicEnd", t.as_u32() as u64);
            w.end_object();
        }
    }
}

fn u32_of(v: &JsonValue, what: &str) -> Result<u32, TraceFormatError> {
    v.as_u32()
        .ok_or_else(|| schema_err(format!("expected a u32 for {what}")))
}

fn id_pair(v: &JsonValue, tag: &str) -> Result<(u32, u32), TraceFormatError> {
    let arr = v
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| schema_err(format!("{tag} expects a 2-element array")))?;
    Ok((u32_of(&arr[0], tag)?, u32_of(&arr[1], tag)?))
}

fn parse_op(v: &JsonValue) -> Result<Op, TraceFormatError> {
    use crate::event::{LockId, VarId};
    let JsonValue::Obj(pairs) = v else {
        return Err(schema_err("each event must be a single-key object"));
    };
    let [(tag, body)] = pairs.as_slice() else {
        return Err(schema_err("each event must be a single-key object"));
    };
    let op = match tag.as_str() {
        "Read" | "Write" | "VolatileRead" | "VolatileWrite" => {
            let (t, x) = id_pair(body, tag)?;
            let (t, x) = (Tid::new(t), VarId::new(x));
            match tag.as_str() {
                "Read" => Op::Read(t, x),
                "Write" => Op::Write(t, x),
                "VolatileRead" => Op::VolatileRead(t, x),
                _ => Op::VolatileWrite(t, x),
            }
        }
        "Acquire" | "Release" | "Wait" | "Notify" => {
            let (t, m) = id_pair(body, tag)?;
            let (t, m) = (Tid::new(t), LockId::new(m));
            match tag.as_str() {
                "Acquire" => Op::Acquire(t, m),
                "Release" => Op::Release(t, m),
                "Wait" => Op::Wait(t, m),
                _ => Op::Notify(t, m),
            }
        }
        "Fork" | "Join" => {
            let (t, u) = id_pair(body, tag)?;
            if tag == "Fork" {
                Op::Fork(Tid::new(t), Tid::new(u))
            } else {
                Op::Join(Tid::new(t), Tid::new(u))
            }
        }
        "BarrierRelease" => {
            let arr = body
                .as_array()
                .ok_or_else(|| schema_err("BarrierRelease expects an array of thread ids"))?;
            let ts = arr
                .iter()
                .map(|t| u32_of(t, "BarrierRelease").map(Tid::new))
                .collect::<Result<Vec<_>, _>>()?;
            Op::BarrierRelease(ts)
        }
        "AtomicBegin" => Op::AtomicBegin(Tid::new(u32_of(body, tag)?)),
        "AtomicEnd" => Op::AtomicEnd(Tid::new(u32_of(body, tag)?)),
        other => return Err(schema_err(format!("unknown event variant `{other}`"))),
    };
    Ok(op)
}

impl Trace {
    /// Serializes this trace to JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("events");
        w.begin_array();
        for op in self.events() {
            write_op(&mut w, op);
        }
        w.end_array();
        w.field_u64("n_threads", self.n_threads() as u64);
        w.field_u64("n_vars", self.n_vars() as u64);
        w.field_u64("n_locks", self.n_locks() as u64);
        w.key("var_objects");
        w.begin_array();
        for x in 0..self.n_vars() {
            w.u64(self.object_of(crate::VarId::new(x)).as_u32() as u64);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Deserializes and re-validates a trace from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFormatError::Json`] for malformed input and
    /// [`TraceFormatError::Infeasible`] if the decoded events violate the
    /// §2.1 feasibility constraints.
    pub fn from_json(input: &str) -> Result<Trace, TraceFormatError> {
        let doc = json::parse(input)?;
        let events = doc
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| schema_err("missing `events` array"))?
            .iter()
            .map(parse_op)
            .collect::<Result<Vec<_>, _>>()?;
        // Optional metadata; absent fields default like serde's `#[serde(default)]`.
        let declared = |key: &str| match doc.get(key) {
            Some(v) => u32_of(v, key),
            None => Ok(0),
        };
        let n_threads = declared("n_threads")?;
        let var_objects = match doc.get("var_objects") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| schema_err("`var_objects` must be an array"))?
                .iter()
                .map(|o| u32_of(o, "var_objects").map(crate::ObjId::new))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };

        let mut trace = validate_declared(&events, declared("n_vars")?, declared("n_locks")?)?;
        // Preserve declared metadata when it extends what the events imply.
        trace.n_threads = trace.n_threads.max(n_threads);
        if !var_objects.is_empty() {
            let mut objects = var_objects;
            let n = trace.n_vars as usize;
            objects.truncate(n);
            for i in objects.len()..n {
                objects.push(crate::ObjId::new(i as u32));
            }
            trace.var_objects = objects;
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::event::{LockId, VarId};
    use crate::trace::validate;
    use ft_clock::Tid;

    #[test]
    fn json_round_trip() {
        let mut b = TraceBuilder::with_threads(2);
        b.write(Tid::new(0), VarId::new(0)).unwrap();
        b.acquire(Tid::new(1), LockId::new(0)).unwrap();
        b.release(Tid::new(1), LockId::new(0)).unwrap();
        b.set_var_object(VarId::new(0), crate::ObjId::new(7));
        let trace = b.finish();

        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.n_threads(), trace.n_threads());
        assert_eq!(back.object_of(VarId::new(0)), crate::ObjId::new(7));
    }

    #[test]
    fn wire_format_is_stable() {
        // The serde-era encoding, byte for byte: externally tagged enums,
        // transparent ids. Existing .ftrace files depend on this.
        let mut b = TraceBuilder::with_threads(2);
        b.write(Tid::new(0), VarId::new(3)).unwrap();
        let trace = b.finish();
        assert_eq!(
            trace.to_json(),
            r#"{"events":[{"Write":[0,3]}],"n_threads":2,"n_vars":4,"n_locks":0,"var_objects":[0,1,2,3]}"#
        );
    }

    #[test]
    fn all_variants_round_trip() {
        let t0 = Tid::new(0);
        let t1 = Tid::new(1);
        let x = VarId::new(0);
        let m = LockId::new(0);
        let events = vec![
            Op::Fork(t0, t1),
            Op::AtomicBegin(t0),
            Op::Write(t0, x),
            Op::Read(t0, x),
            Op::AtomicEnd(t0),
            Op::VolatileWrite(t0, x),
            Op::VolatileRead(t1, x),
            Op::Acquire(t1, m),
            Op::Notify(t1, m),
            Op::Release(t1, m),
            Op::BarrierRelease(vec![t0, t1]),
            Op::Join(t0, t1),
        ];
        let trace = validate(&events).unwrap();
        let back = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back.events(), trace.events());
    }

    #[test]
    fn malformed_json_is_reported() {
        let err = Trace::from_json("{not json").unwrap_err();
        assert!(matches!(err, TraceFormatError::Json(_)));
        assert!(err.to_string().contains("malformed"));
    }

    #[test]
    fn schema_violations_are_json_errors() {
        for bad in [
            r#"{"n_threads":1}"#,                           // missing events
            r#"{"events":[{"Read":[0]}]}"#,                 // arity
            r#"{"events":[{"Frobnicate":[0,1]}]}"#,         // unknown variant
            r#"{"events":[{"Read":[0,1],"Write":[0,1]}]}"#, // two tags
            r#"{"events":[{"Read":[0,-1]}]}"#,              // negative id
        ] {
            let err = Trace::from_json(bad).unwrap_err();
            assert!(matches!(err, TraceFormatError::Json(_)), "{bad}");
        }
    }

    #[test]
    fn infeasible_events_are_rejected() {
        // Hand-craft a JSON trace with a double acquire.
        let json = r#"{"events":[{"Acquire":[0,0]},{"Acquire":[0,0]}],"n_threads":1,"n_vars":0,"n_locks":1,"var_objects":[]}"#;
        let err = Trace::from_json(json).unwrap_err();
        assert!(matches!(err, TraceFormatError::Infeasible(_)));
    }
}
