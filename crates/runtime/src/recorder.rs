//! Event recording: capture a monitored execution as a replayable trace.

use fasttrack::{Detector, Disposition, Stats, Warning};
use ft_trace::{FeasibilityError, Op, Trace};
use std::sync::{Arc, Mutex};

/// A pass-through detector that records every event it sees.
///
/// Place a `Recorder` at the head of a [`crate::Pipeline`] (or hand it to
/// the online [`crate::online::Monitor`]) to capture an execution; the
/// shared [`RecorderHandle`] yields the events afterwards, from which a
/// feasible [`Trace`] can be rebuilt and replayed through any detector —
/// the record-once / analyze-many workflow of post-mortem race detection.
///
/// # Example
///
/// ```
/// use fasttrack::{Detector, FastTrack};
/// use ft_runtime::{Pipeline, Recorder};
/// use ft_trace::gen::{self, GenConfig};
///
/// let (recorder, handle) = Recorder::new();
/// let mut p = Pipeline::new(vec![Box::new(recorder), Box::new(FastTrack::new())]);
/// let trace = gen::generate(&GenConfig::race_free(), 9);
/// p.run(&trace);
/// assert_eq!(handle.events().len(), trace.len());
/// assert_eq!(handle.to_trace().unwrap(), trace);
/// ```
#[derive(Debug)]
pub struct Recorder {
    events: Arc<Mutex<Vec<Op>>>,
    stats: Stats,
}

/// Shared read access to a [`Recorder`]'s captured events.
#[derive(Clone, Debug)]
pub struct RecorderHandle {
    events: Arc<Mutex<Vec<Op>>>,
}

impl Recorder {
    /// Creates a recorder and the handle to read it from.
    pub fn new() -> (Recorder, RecorderHandle) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            Recorder {
                events: Arc::clone(&events),
                stats: Stats::new(),
            },
            RecorderHandle { events },
        )
    }
}

impl RecorderHandle {
    /// A snapshot of the recorded events.
    pub fn events(&self) -> Vec<Op> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Rebuilds (and re-validates) a trace from the recording.
    ///
    /// # Errors
    ///
    /// Returns a [`FeasibilityError`] if the recorded stream is not a
    /// feasible trace (possible only if the recorded source emitted raw,
    /// e.g. re-entrant, events).
    pub fn to_trace(&self) -> Result<Trace, FeasibilityError> {
        ft_trace::validate(&self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Detector for Recorder {
    fn name(&self) -> &'static str {
        "RECORDER"
    }

    fn on_op(&mut self, _index: usize, op: &Op) -> Disposition {
        self.stats.ops += 1;
        match op {
            Op::Read(..) => self.stats.reads += 1,
            Op::Write(..) => self.stats.writes += 1,
            _ => self.stats.sync_ops += 1,
        }
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(op.clone());
        Disposition::Forward
    }

    fn warnings(&self) -> &[Warning] {
        &[]
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn shadow_bytes(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .capacity()
            * std::mem::size_of::<Op>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_clock::Tid;
    use ft_trace::VarId;

    #[test]
    fn records_and_rebuilds() {
        let (mut rec, handle) = Recorder::new();
        rec.on_op(0, &Op::Write(Tid::new(0), VarId::new(0)));
        rec.on_op(1, &Op::Read(Tid::new(0), VarId::new(0)));
        let trace = handle.to_trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(rec.stats().reads, 1);
        assert_eq!(rec.stats().writes, 1);
    }

    #[test]
    fn infeasible_recordings_error() {
        let (mut rec, handle) = Recorder::new();
        rec.on_op(0, &Op::Release(Tid::new(0), ft_trace::LockId::new(0)));
        assert!(handle.to_trace().is_err());
    }
}
