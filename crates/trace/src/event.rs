//! Trace operations (Figure 1 of the paper, plus the §4 extensions).

use crate::batch::opcode;
use ft_clock::Tid;
use std::fmt;

/// Identifier of a shared variable (an object field or array element in the
/// paper's Java setting).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable id from its dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        VarId(raw)
    }

    /// Returns the dense index.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the dense index as a `usize`.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarId({})", self.0)
    }
}

/// Identifier of a lock.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(u32);

impl LockId {
    /// Creates a lock id from its dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        LockId(raw)
    }

    /// Returns the dense index.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the dense index as a `usize`.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Debug for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockId({})", self.0)
    }
}

/// Identifier of the object that owns a variable, for the coarse-grain
/// analysis of §4 ("Granularity"): the coarse analysis treats all fields of
/// an object as a single entity.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(u32);

impl ObjId {
    /// Creates an object id from its dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        ObjId(raw)
    }

    /// Returns the dense index.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the dense index as a `usize`.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjId({})", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A read access `rd(t, x)`.
    Read,
    /// A write access `wr(t, x)`.
    Write,
}

impl AccessKind {
    /// Two accesses *conflict* if they touch the same variable and at least
    /// one is a write (§2.1).
    #[inline]
    pub fn conflicts_with(self, other: AccessKind) -> bool {
        matches!(self, AccessKind::Write) || matches!(other, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// One operation of a multithreaded trace.
///
/// The first six variants are the Figure 1 core; the rest are the extensions
/// of §4 ("Extensions") plus the atomic-block markers consumed by the
/// §5.2 downstream checkers (Atomizer/Velodrome/SingleTrack). Markers have no
/// effect on the happens-before relation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `rd(t, x)`: thread `t` reads variable `x`.
    Read(Tid, VarId),
    /// `wr(t, x)`: thread `t` writes variable `x`.
    Write(Tid, VarId),
    /// `acq(t, m)`: thread `t` acquires lock `m`.
    Acquire(Tid, LockId),
    /// `rel(t, m)`: thread `t` releases lock `m`.
    Release(Tid, LockId),
    /// `fork(t, u)`: thread `t` forks thread `u`.
    Fork(Tid, Tid),
    /// `join(t, u)`: thread `t` blocks until thread `u` terminates.
    Join(Tid, Tid),
    /// Volatile read of `x` by `t`: synchronizes with the last volatile
    /// write per the Java memory model (§4).
    VolatileRead(Tid, VarId),
    /// Volatile write of `x` by `t`.
    VolatileWrite(Tid, VarId),
    /// `wait(t, m)`: modeled as a release of `m` immediately followed by an
    /// acquire (§4). The simulator emits explicit release/acquire pairs for
    /// truly blocking waits; this single-op form exists for hand-written
    /// traces and online instrumentation.
    Wait(Tid, LockId),
    /// `notify(t, m)`: affects scheduling only; induces no happens-before
    /// edge and is ignored by the analyses (§4).
    Notify(Tid, LockId),
    /// `barrier_rel(T)`: the set of threads `T` is simultaneously released
    /// from a barrier (§4): each thread's next step happens after all
    /// pre-barrier steps of every thread in `T`.
    BarrierRelease(Vec<Tid>),
    /// Marker: thread `t` enters a block it expects to be atomic
    /// (consumed by the §5.2 atomicity/determinism checkers).
    AtomicBegin(Tid),
    /// Marker: thread `t` leaves its current atomic block.
    AtomicEnd(Tid),
}

impl Op {
    /// The thread performing this operation, or `None` for
    /// [`Op::BarrierRelease`], which involves a set of threads.
    pub fn tid(&self) -> Option<Tid> {
        match *self {
            Op::Read(t, _)
            | Op::Write(t, _)
            | Op::Acquire(t, _)
            | Op::Release(t, _)
            | Op::Fork(t, _)
            | Op::Join(t, _)
            | Op::VolatileRead(t, _)
            | Op::VolatileWrite(t, _)
            | Op::Wait(t, _)
            | Op::Notify(t, _)
            | Op::AtomicBegin(t)
            | Op::AtomicEnd(t) => Some(t),
            Op::BarrierRelease(_) => None,
        }
    }

    /// For memory accesses, the `(variable, kind)` pair; `None` otherwise.
    /// Volatile accesses are synchronization, not data accesses, so they
    /// return `None`.
    pub fn access(&self) -> Option<(VarId, AccessKind)> {
        match *self {
            Op::Read(_, x) => Some((x, AccessKind::Read)),
            Op::Write(_, x) => Some((x, AccessKind::Write)),
            _ => None,
        }
    }

    /// Returns `true` for data reads and writes (the 96%+ of monitored
    /// operations that FastTrack optimizes).
    #[inline]
    pub fn is_access(&self) -> bool {
        matches!(self, Op::Read(..) | Op::Write(..))
    }

    /// Returns `true` for synchronization operations (everything except data
    /// accesses and the no-HB-effect markers).
    pub fn is_sync(&self) -> bool {
        !matches!(
            self,
            Op::Read(..) | Op::Write(..) | Op::AtomicBegin(_) | Op::AtomicEnd(_) | Op::Notify(..)
        )
    }

    /// The raw `(kind, thread, argument, barrier members)` fields of this
    /// operation, in the [`opcode`] encoding shared with
    /// [`EventBlock`](crate::EventBlock) and the `.ftb` format. A barrier
    /// release has thread 0 and its member count as argument; every other
    /// operation has no members, and the atomic markers have argument 0.
    #[inline]
    pub fn parts(&self) -> (u8, Tid, u32, &[Tid]) {
        match *self {
            Op::Read(t, x) => (opcode::READ, t, x.as_u32(), &[]),
            Op::Write(t, x) => (opcode::WRITE, t, x.as_u32(), &[]),
            Op::Acquire(t, m) => (opcode::ACQUIRE, t, m.as_u32(), &[]),
            Op::Release(t, m) => (opcode::RELEASE, t, m.as_u32(), &[]),
            Op::Fork(t, u) => (opcode::FORK, t, u.as_u32(), &[]),
            Op::Join(t, u) => (opcode::JOIN, t, u.as_u32(), &[]),
            Op::VolatileRead(t, x) => (opcode::VOLATILE_READ, t, x.as_u32(), &[]),
            Op::VolatileWrite(t, x) => (opcode::VOLATILE_WRITE, t, x.as_u32(), &[]),
            Op::Wait(t, m) => (opcode::WAIT, t, m.as_u32(), &[]),
            Op::Notify(t, m) => (opcode::NOTIFY, t, m.as_u32(), &[]),
            Op::AtomicBegin(t) => (opcode::ATOMIC_BEGIN, t, 0, &[]),
            Op::AtomicEnd(t) => (opcode::ATOMIC_END, t, 0, &[]),
            Op::BarrierRelease(ref members) => {
                (opcode::BARRIER, Tid::new(0), members.len() as u32, members)
            }
        }
    }

    /// The operation with raw fields `kind`, `t` and `a`: the inverse of
    /// [`Op::parts`] for every kind except a barrier release, whose members
    /// live outside the three fields. `None` for a barrier or an unknown
    /// kind.
    #[inline]
    pub fn from_parts(kind: u8, t: Tid, a: u32) -> Option<Op> {
        Some(match kind {
            opcode::READ => Op::Read(t, VarId::new(a)),
            opcode::WRITE => Op::Write(t, VarId::new(a)),
            opcode::ACQUIRE => Op::Acquire(t, LockId::new(a)),
            opcode::RELEASE => Op::Release(t, LockId::new(a)),
            opcode::FORK => Op::Fork(t, Tid::new(a)),
            opcode::JOIN => Op::Join(t, Tid::new(a)),
            opcode::VOLATILE_READ => Op::VolatileRead(t, VarId::new(a)),
            opcode::VOLATILE_WRITE => Op::VolatileWrite(t, VarId::new(a)),
            opcode::WAIT => Op::Wait(t, LockId::new(a)),
            opcode::NOTIFY => Op::Notify(t, LockId::new(a)),
            opcode::ATOMIC_BEGIN => Op::AtomicBegin(t),
            opcode::ATOMIC_END => Op::AtomicEnd(t),
            _ => return None,
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(t, x) => write!(f, "rd({t},{x})"),
            Op::Write(t, x) => write!(f, "wr({t},{x})"),
            Op::Acquire(t, m) => write!(f, "acq({t},{m})"),
            Op::Release(t, m) => write!(f, "rel({t},{m})"),
            Op::Fork(t, u) => write!(f, "fork({t},{u})"),
            Op::Join(t, u) => write!(f, "join({t},{u})"),
            Op::VolatileRead(t, x) => write!(f, "vol_rd({t},{x})"),
            Op::VolatileWrite(t, x) => write!(f, "vol_wr({t},{x})"),
            Op::Wait(t, m) => write!(f, "wait({t},{m})"),
            Op::Notify(t, m) => write!(f, "notify({t},{m})"),
            Op::BarrierRelease(ts) => {
                write!(f, "barrier_rel({{")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}})")
            }
            Op::AtomicBegin(t) => write!(f, "atomic_begin({t})"),
            Op::AtomicEnd(t) => write!(f, "atomic_end({t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicts_require_a_write() {
        assert!(!AccessKind::Read.conflicts_with(AccessKind::Read));
        assert!(AccessKind::Read.conflicts_with(AccessKind::Write));
        assert!(AccessKind::Write.conflicts_with(AccessKind::Read));
        assert!(AccessKind::Write.conflicts_with(AccessKind::Write));
    }

    #[test]
    fn op_classification() {
        let t = Tid::new(0);
        let x = VarId::new(1);
        let m = LockId::new(2);
        assert!(Op::Read(t, x).is_access());
        assert!(!Op::Read(t, x).is_sync());
        assert!(Op::Acquire(t, m).is_sync());
        assert!(Op::VolatileRead(t, x).is_sync());
        assert!(!Op::VolatileRead(t, x).is_access());
        assert!(!Op::Notify(t, m).is_sync());
        assert!(!Op::AtomicBegin(t).is_sync());
        assert!(Op::BarrierRelease(vec![t]).is_sync());
    }

    #[test]
    fn tid_of_barrier_is_none() {
        assert_eq!(Op::BarrierRelease(vec![Tid::new(0)]).tid(), None);
        assert_eq!(Op::Fork(Tid::new(1), Tid::new(2)).tid(), Some(Tid::new(1)));
    }

    #[test]
    fn access_extraction() {
        let t = Tid::new(0);
        let x = VarId::new(3);
        assert_eq!(Op::Read(t, x).access(), Some((x, AccessKind::Read)));
        assert_eq!(Op::Write(t, x).access(), Some((x, AccessKind::Write)));
        assert_eq!(Op::VolatileWrite(t, x).access(), None);
        assert_eq!(Op::Acquire(t, LockId::new(0)).access(), None);
    }

    #[test]
    fn display_matches_paper_syntax() {
        let t = Tid::new(1);
        assert_eq!(Op::Read(t, VarId::new(0)).to_string(), "rd(T1,x0)");
        assert_eq!(Op::Fork(t, Tid::new(2)).to_string(), "fork(T1,T2)");
        assert_eq!(
            Op::BarrierRelease(vec![Tid::new(0), t]).to_string(),
            "barrier_rel({T0,T1})"
        );
    }
}
