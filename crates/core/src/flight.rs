//! Flight recorder: opt-in per-thread ring buffers of recently seen events.
//!
//! When enabled (see [`crate::FastTrackConfig::recorder`]), the detector
//! keeps the last *k* decoded events of every thread in a fixed-capacity
//! ring. On a race report, the rings of the two involved threads are drained
//! into the warning's [`crate::Provenance::recent`] field, so a report
//! carries the short event history that led up to the conflict — the
//! "what was each thread doing?" context a bare epoch pair cannot give.
//!
//! The rings are allocated lazily (first event of a thread) and never grow:
//! each ring is exactly `capacity` slots of [`RecordedEvent`] (a fixed-size,
//! allocation-free record). Ring bytes are charged to the ft-guard shadow
//! budget by the detector when a guard is configured, so a bounded-memory
//! run stays bounded with the recorder on.

use ft_clock::Tid;
use ft_trace::batch::opcode;
use std::fmt;

/// Configuration for the flight recorder.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RecorderConfig {
    /// Events retained per thread. Memory cost is
    /// `threads × capacity × size_of::<RecordedEvent>()` (see
    /// [`FlightRecorder::bytes`]); the default keeps a thread's tail under
    /// 1 KiB.
    pub capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { capacity: 32 }
    }
}

/// One decoded event retained by the recorder: the trace index plus the
/// binary-format opcode and operand, fixed-size so rings never allocate
/// per event.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RecordedEvent {
    /// Position of the event in the trace.
    pub index: u64,
    /// Opcode byte, from [`ft_trace::batch::opcode`].
    pub kind: u8,
    /// The thread the event is attributed to.
    pub tid: Tid,
    /// The operand: variable/lock/thread index, or the party count for a
    /// barrier release.
    pub arg: u32,
}

impl fmt::Display for RecordedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} ", self.index)?;
        let (t, a) = (self.tid, self.arg);
        match self.kind {
            opcode::READ => write!(f, "rd({t},x{a})"),
            opcode::WRITE => write!(f, "wr({t},x{a})"),
            opcode::ACQUIRE => write!(f, "acq({t},m{a})"),
            opcode::RELEASE => write!(f, "rel({t},m{a})"),
            opcode::FORK => write!(f, "fork({t},T{a})"),
            opcode::JOIN => write!(f, "join({t},T{a})"),
            opcode::VOLATILE_READ => write!(f, "vol_rd({t},x{a})"),
            opcode::VOLATILE_WRITE => write!(f, "vol_wr({t},x{a})"),
            opcode::WAIT => write!(f, "wait({t},m{a})"),
            opcode::NOTIFY => write!(f, "notify({t},m{a})"),
            opcode::BARRIER => write!(f, "barrier_rel({a} threads)"),
            opcode::ATOMIC_BEGIN => write!(f, "atomic_begin({t})"),
            opcode::ATOMIC_END => write!(f, "atomic_end({t})"),
            k => write!(f, "op{k}({t},{a})"),
        }
    }
}

/// The recent events of one thread involved in a race, oldest first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadTail {
    /// The thread whose tail this is.
    pub tid: Tid,
    /// Its last recorded events, oldest first.
    pub events: Vec<RecordedEvent>,
}

/// One thread's fixed-capacity ring.
#[derive(Clone, Debug)]
struct Ring {
    slots: Vec<RecordedEvent>,
    /// Index of the oldest slot once the ring is full.
    head: usize,
}

/// Per-thread ring buffers of recently decoded events.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: Vec<Option<Ring>>,
    recorded: u64,
}

impl FlightRecorder {
    /// Creates an empty recorder; rings appear as threads do.
    pub fn new(config: RecorderConfig) -> Self {
        FlightRecorder {
            capacity: config.capacity.max(1),
            rings: Vec::new(),
            recorded: 0,
        }
    }

    /// The per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded (including ones since evicted from rings).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of threads with a live ring.
    pub fn threads(&self) -> usize {
        self.rings.iter().filter(|r| r.is_some()).count()
    }

    /// Bytes held in ring slots across all threads — the number charged to
    /// the ft-guard budget.
    pub fn bytes(&self) -> usize {
        self.threads() * self.capacity * std::mem::size_of::<RecordedEvent>()
    }

    /// Records one event for `tid`, returning the bytes newly allocated
    /// (nonzero exactly when this is `tid`'s first event and its ring was
    /// just created) so the caller can charge them to a guard budget.
    pub fn record_raw(&mut self, tid: Tid, index: u64, kind: u8, arg: u32) -> usize {
        let slot = tid.as_usize();
        if slot >= self.rings.len() {
            self.rings.resize_with(slot + 1, || None);
        }
        let mut charged = 0;
        let ring = self.rings[slot].get_or_insert_with(|| {
            charged = self.capacity * std::mem::size_of::<RecordedEvent>();
            Ring {
                slots: Vec::with_capacity(self.capacity),
                head: 0,
            }
        });
        let ev = RecordedEvent {
            index,
            kind,
            tid,
            arg,
        };
        if ring.slots.len() < self.capacity {
            ring.slots.push(ev);
        } else {
            ring.slots[ring.head] = ev;
            ring.head = (ring.head + 1) % self.capacity;
        }
        self.recorded += 1;
        charged
    }

    /// Records one event from its raw fields (see [`ft_trace::Op::parts`]).
    /// A barrier release is attributed to every one of its `parties`, with
    /// the party count as operand. Returns newly allocated bytes as in
    /// [`FlightRecorder::record_raw`].
    pub fn record_event(
        &mut self,
        index: u64,
        kind: u8,
        tid: Tid,
        arg: u32,
        parties: &[Tid],
    ) -> usize {
        if kind == opcode::BARRIER {
            let n = parties.len() as u32;
            return parties
                .iter()
                .map(|&t| self.record_raw(t, index, opcode::BARRIER, n))
                .sum();
        }
        self.record_raw(tid, index, kind, arg)
    }

    /// The recent events of `tid`, oldest first. Empty if the thread has
    /// recorded nothing.
    pub fn tail(&self, tid: Tid) -> Vec<RecordedEvent> {
        match self.rings.get(tid.as_usize()).and_then(|r| r.as_ref()) {
            None => Vec::new(),
            Some(ring) => {
                let mut out = Vec::with_capacity(ring.slots.len());
                out.extend_from_slice(&ring.slots[ring.head..]);
                out.extend_from_slice(&ring.slots[..ring.head]);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::{Op, VarId};

    #[test]
    fn ring_keeps_last_k_in_order() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 3 });
        let t = Tid::new(1);
        for i in 0..5u64 {
            rec.record_raw(t, i, opcode::READ, i as u32);
        }
        let tail = rec.tail(t);
        assert_eq!(tail.len(), 3);
        assert_eq!(
            tail.iter().map(|e| e.index).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn bytes_charged_once_per_thread() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 4 });
        let t = Tid::new(0);
        let first = rec.record_raw(t, 0, opcode::WRITE, 0);
        assert_eq!(first, 4 * std::mem::size_of::<RecordedEvent>());
        assert_eq!(rec.record_raw(t, 1, opcode::WRITE, 0), 0);
        assert_eq!(rec.bytes(), first);
        assert_eq!(rec.threads(), 1);
    }

    #[test]
    fn barrier_is_attributed_to_every_party() {
        let mut rec = FlightRecorder::new(RecorderConfig { capacity: 2 });
        let parties = vec![Tid::new(0), Tid::new(1)];
        rec.record_event(7, opcode::BARRIER, Tid::new(0), 0, &parties);
        for t in [Tid::new(0), Tid::new(1)] {
            let tail = rec.tail(t);
            assert_eq!(tail.len(), 1);
            assert_eq!(tail[0].kind, opcode::BARRIER);
            assert_eq!(tail[0].arg, 2);
        }
    }

    #[test]
    fn display_matches_trace_syntax() {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        let (kind, t, a, _) = Op::Read(Tid::new(1), VarId::new(4)).parts();
        rec.record_event(3, kind, t, a, &[]);
        let tail = rec.tail(Tid::new(1));
        assert_eq!(tail[0].to_string(), "#3 rd(T1,x4)");
    }

    #[test]
    fn empty_tail_for_unknown_thread() {
        let rec = FlightRecorder::new(RecorderConfig::default());
        assert!(rec.tail(Tid::new(9)).is_empty());
    }
}
