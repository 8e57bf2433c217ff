//! Incremental trace construction with feasibility enforcement (§2.1).

use crate::event::{LockId, ObjId, Op, VarId};
use crate::ids::IdBounds;
use crate::trace::Trace;
use ft_clock::Tid;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Why a sequence of operations is not a feasible trace (§2.1).
///
/// The constraints, quoting the paper: (1) no thread acquires a lock
/// previously acquired but not released, (2) no thread releases a lock it
/// did not previously acquire, (3) there are no instructions of a thread `u`
/// preceding `fork(t, u)` or following `join(v, u)`, and (4) there is at
/// least one instruction of `u` between `fork(t, u)` and `join(v, u)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeasibilityError {
    /// Constraint (1): the lock is already held.
    LockAlreadyHeld {
        /// Index of the offending event.
        index: usize,
        /// The lock being acquired.
        lock: LockId,
        /// The thread that currently holds it.
        holder: Tid,
        /// The thread attempting the acquire.
        acquirer: Tid,
    },
    /// Constraint (2): releasing (or waiting/notifying on) a lock the thread
    /// does not hold.
    LockNotHeld {
        /// Index of the offending event.
        index: usize,
        /// The lock involved.
        lock: LockId,
        /// The thread attempting the operation.
        thread: Tid,
    },
    /// Constraint (3): a forked thread had already performed operations.
    ForkOfRunningThread {
        /// Index of the offending event.
        index: usize,
        /// The thread being forked.
        child: Tid,
    },
    /// A thread forks or joins itself.
    SelfForkOrJoin {
        /// Index of the offending event.
        index: usize,
        /// The thread involved.
        thread: Tid,
    },
    /// Constraint (4): joining a thread that never ran after its fork, or
    /// was never forked/started at all.
    JoinOfUnstartedThread {
        /// Index of the offending event.
        index: usize,
        /// The thread being joined.
        child: Tid,
    },
    /// Constraint (3): a thread performed an operation after being joined,
    /// was forked after being joined, or was joined twice.
    ThreadAlreadyJoined {
        /// Index of the offending event.
        index: usize,
        /// The joined thread.
        thread: Tid,
    },
    /// An `atomic_end` with no matching `atomic_begin`.
    UnmatchedAtomicEnd {
        /// Index of the offending event.
        index: usize,
        /// The thread involved.
        thread: Tid,
    },
    /// A barrier release with an empty or duplicated thread set.
    MalformedBarrier {
        /// Index of the offending event.
        index: usize,
    },
    /// A thread id above [`ft_clock::MAX_TID`], or a variable or lock id
    /// far beyond every id of its kind so far (see [`TraceBuilder::push`]).
    IdOutOfRange {
        /// Index of the offending event.
        index: usize,
        /// Which id and why.
        reason: String,
    },
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::LockAlreadyHeld {
                index,
                lock,
                holder,
                acquirer,
            } => write!(
                f,
                "event {index}: {acquirer} acquires {lock} already held by {holder}"
            ),
            FeasibilityError::LockNotHeld {
                index,
                lock,
                thread,
            } => {
                write!(f, "event {index}: {thread} does not hold {lock}")
            }
            FeasibilityError::ForkOfRunningThread { index, child } => {
                write!(f, "event {index}: fork of already-running thread {child}")
            }
            FeasibilityError::SelfForkOrJoin { index, thread } => {
                write!(f, "event {index}: {thread} forks or joins itself")
            }
            FeasibilityError::JoinOfUnstartedThread { index, child } => {
                write!(
                    f,
                    "event {index}: join of thread {child} that has not run since its fork"
                )
            }
            FeasibilityError::ThreadAlreadyJoined { index, thread } => {
                write!(f, "event {index}: thread {thread} was already joined")
            }
            FeasibilityError::UnmatchedAtomicEnd { index, thread } => {
                write!(
                    f,
                    "event {index}: atomic_end by {thread} without atomic_begin"
                )
            }
            FeasibilityError::MalformedBarrier { index } => {
                write!(
                    f,
                    "event {index}: barrier release set is empty or has duplicates"
                )
            }
            FeasibilityError::IdOutOfRange { index, reason } => {
                write!(f, "event {index}: {reason}")
            }
        }
    }
}

impl Error for FeasibilityError {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadPhase {
    /// Never seen. May start spontaneously (pre-existing thread) or by fork.
    Unseen,
    /// Forked but has not yet executed an instruction.
    Forked,
    /// Has executed at least one instruction.
    Running,
    /// Joined; may not act again.
    Joined,
}

/// Builds a [`Trace`] while enforcing the §2.1 feasibility constraints on
/// every appended operation.
///
/// Threads that perform operations without an explicit `fork` are treated as
/// pre-existing (like the main thread). Use [`TraceBuilder::with_threads`]
/// to pre-register the id space.
///
/// # Example
///
/// ```
/// use ft_trace::{TraceBuilder, VarId, LockId};
/// use ft_clock::Tid;
///
/// let mut b = TraceBuilder::new();
/// let (t0, t1) = (Tid::new(0), Tid::new(1));
/// b.fork(t0, t1)?;
/// b.write(t1, VarId::new(0))?;
/// b.join(t0, t1)?;
/// b.read(t0, VarId::new(0))?;
/// let trace = b.finish();
/// assert_eq!(trace.len(), 4);
/// # Ok::<(), ft_trace::FeasibilityError>(())
/// ```
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Op>,
    phases: Vec<ThreadPhase>,
    /// Current holder of each lock.
    holders: HashMap<LockId, Tid>,
    /// Atomic-block nesting depth per thread.
    atomic_depth: HashMap<Tid, u32>,
    n_vars: u32,
    n_locks: u32,
    var_objects: HashMap<VarId, ObjId>,
    /// Id high-water marks (or the declared spaces) for admission.
    ids: IdBounds,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with `n` pre-existing threads (`Tid` 0..n), so the
    /// resulting trace reports at least `n` threads even if some never act.
    pub fn with_threads(n: u32) -> Self {
        let mut b = Self::new();
        b.phases = vec![ThreadPhase::Running; n as usize];
        b
    }

    fn phase(&self, t: Tid) -> ThreadPhase {
        self.phases
            .get(t.as_usize())
            .copied()
            .unwrap_or(ThreadPhase::Unseen)
    }

    fn set_phase(&mut self, t: Tid, p: ThreadPhase) {
        let idx = t.as_usize();
        if idx >= self.phases.len() {
            self.phases.resize(idx + 1, ThreadPhase::Unseen);
        }
        self.phases[idx] = p;
    }

    /// Marks `t` as having executed an instruction; errors if it was joined.
    fn step(&mut self, t: Tid) -> Result<(), FeasibilityError> {
        match self.phase(t) {
            ThreadPhase::Joined => Err(FeasibilityError::ThreadAlreadyJoined {
                index: self.events.len(),
                thread: t,
            }),
            _ => {
                self.set_phase(t, ThreadPhase::Running);
                Ok(())
            }
        }
    }

    fn note_var(&mut self, x: VarId) {
        self.n_vars = self.n_vars.max(x.as_u32() + 1);
    }

    fn note_lock(&mut self, m: LockId) {
        self.n_locks = self.n_locks.max(m.as_u32() + 1);
    }

    /// A builder whose id admission starts from a declared variable and
    /// lock space (a deserialized trace's metadata).
    pub(crate) fn with_declared_ids(n_vars: u32, n_locks: u32) -> Self {
        TraceBuilder {
            ids: IdBounds::declared(n_vars, n_locks),
            ..Self::default()
        }
    }

    /// Appends an arbitrary operation, checking feasibility.
    ///
    /// # Errors
    ///
    /// Returns a [`FeasibilityError`] (and leaves the builder unchanged) if
    /// the operation violates the §2.1 constraints, or
    /// [`FeasibilityError::IdOutOfRange`] for a thread id above
    /// [`ft_clock::MAX_TID`] or a variable or lock id more than 2¹⁶ past
    /// every id of its kind so far (and past the declared space, for a
    /// deserialized trace): detectors size their tables by id.
    pub fn push(&mut self, op: Op) -> Result<(), FeasibilityError> {
        let index = self.events.len();
        let mut ids = self.ids;
        let (kind, t, a, members) = op.parts();
        ids.admit(kind, t.as_u32(), a)
            .and_then(|()| IdBounds::admit_members(members))
            .map_err(|reason| FeasibilityError::IdOutOfRange { index, reason })?;
        match &op {
            Op::Read(t, x) | Op::Write(t, x) => {
                self.step(*t)?;
                self.note_var(*x);
            }
            Op::VolatileRead(t, x) | Op::VolatileWrite(t, x) => {
                self.step(*t)?;
                self.note_var(*x);
            }
            Op::Acquire(t, m) => {
                if let Some(&holder) = self.holders.get(m) {
                    return Err(FeasibilityError::LockAlreadyHeld {
                        index,
                        lock: *m,
                        holder,
                        acquirer: *t,
                    });
                }
                self.step(*t)?;
                self.note_lock(*m);
                self.holders.insert(*m, *t);
            }
            Op::Release(t, m) => {
                if self.holders.get(m) != Some(t) {
                    return Err(FeasibilityError::LockNotHeld {
                        index,
                        lock: *m,
                        thread: *t,
                    });
                }
                self.step(*t)?;
                self.note_lock(*m);
                self.holders.remove(m);
            }
            Op::Wait(t, m) | Op::Notify(t, m) => {
                // wait releases and re-acquires m; notify requires holding m.
                if self.holders.get(m) != Some(t) {
                    return Err(FeasibilityError::LockNotHeld {
                        index,
                        lock: *m,
                        thread: *t,
                    });
                }
                self.step(*t)?;
                self.note_lock(*m);
            }
            Op::Fork(t, u) => {
                if t == u {
                    return Err(FeasibilityError::SelfForkOrJoin { index, thread: *t });
                }
                match self.phase(*u) {
                    ThreadPhase::Unseen => {}
                    ThreadPhase::Joined => {
                        return Err(FeasibilityError::ThreadAlreadyJoined { index, thread: *u })
                    }
                    _ => return Err(FeasibilityError::ForkOfRunningThread { index, child: *u }),
                }
                self.step(*t)?;
                self.set_phase(*u, ThreadPhase::Forked);
            }
            Op::Join(t, u) => {
                if t == u {
                    return Err(FeasibilityError::SelfForkOrJoin { index, thread: *t });
                }
                match self.phase(*u) {
                    ThreadPhase::Running => {}
                    ThreadPhase::Joined => {
                        return Err(FeasibilityError::ThreadAlreadyJoined { index, thread: *u })
                    }
                    _ => return Err(FeasibilityError::JoinOfUnstartedThread { index, child: *u }),
                }
                self.step(*t)?;
                self.set_phase(*u, ThreadPhase::Joined);
            }
            Op::BarrierRelease(ts) => {
                if ts.is_empty() {
                    return Err(FeasibilityError::MalformedBarrier { index });
                }
                let mut seen = std::collections::HashSet::new();
                for t in ts {
                    if !seen.insert(*t) {
                        return Err(FeasibilityError::MalformedBarrier { index });
                    }
                    if self.phase(*t) == ThreadPhase::Joined {
                        return Err(FeasibilityError::ThreadAlreadyJoined { index, thread: *t });
                    }
                }
                for t in ts.clone() {
                    self.set_phase(t, ThreadPhase::Running);
                }
            }
            Op::AtomicBegin(t) => {
                self.step(*t)?;
                *self.atomic_depth.entry(*t).or_insert(0) += 1;
            }
            Op::AtomicEnd(t) => {
                if self.atomic_depth.get(t).copied().unwrap_or(0) == 0 {
                    return Err(FeasibilityError::UnmatchedAtomicEnd { index, thread: *t });
                }
                self.step(*t)?;
                *self.atomic_depth.get_mut(t).expect("depth checked nonzero") -= 1;
            }
        }
        self.events.push(op);
        self.ids = ids;
        Ok(())
    }

    /// Appends `rd(t, x)`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn read(&mut self, t: Tid, x: VarId) -> Result<(), FeasibilityError> {
        self.push(Op::Read(t, x))
    }

    /// Appends `wr(t, x)`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn write(&mut self, t: Tid, x: VarId) -> Result<(), FeasibilityError> {
        self.push(Op::Write(t, x))
    }

    /// Appends `acq(t, m)`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn acquire(&mut self, t: Tid, m: LockId) -> Result<(), FeasibilityError> {
        self.push(Op::Acquire(t, m))
    }

    /// Appends `rel(t, m)`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn release(&mut self, t: Tid, m: LockId) -> Result<(), FeasibilityError> {
        self.push(Op::Release(t, m))
    }

    /// Appends `acq(t, m)`, runs `body` on this builder, then appends
    /// `rel(t, m)` — the lock-scoped idiom.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations from the acquire, the body, or the
    /// release.
    pub fn release_after_acquire<F>(
        &mut self,
        t: Tid,
        m: LockId,
        body: F,
    ) -> Result<(), FeasibilityError>
    where
        F: FnOnce(&mut Self) -> Result<(), FeasibilityError>,
    {
        self.acquire(t, m)?;
        body(self)?;
        self.release(t, m)
    }

    /// Appends `fork(t, u)`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn fork(&mut self, t: Tid, u: Tid) -> Result<(), FeasibilityError> {
        self.push(Op::Fork(t, u))
    }

    /// Appends `join(t, u)`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn join(&mut self, t: Tid, u: Tid) -> Result<(), FeasibilityError> {
        self.push(Op::Join(t, u))
    }

    /// Appends a volatile read.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn volatile_read(&mut self, t: Tid, x: VarId) -> Result<(), FeasibilityError> {
        self.push(Op::VolatileRead(t, x))
    }

    /// Appends a volatile write.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn volatile_write(&mut self, t: Tid, x: VarId) -> Result<(), FeasibilityError> {
        self.push(Op::VolatileWrite(t, x))
    }

    /// Appends a barrier release of the thread set `threads`.
    ///
    /// # Errors
    ///
    /// Propagates feasibility violations; see [`TraceBuilder::push`].
    pub fn barrier_release(&mut self, threads: Vec<Tid>) -> Result<(), FeasibilityError> {
        self.push(Op::BarrierRelease(threads))
    }

    /// Assigns variable `x` to owning object `obj` for the coarse-grain
    /// analysis. Unassigned variables own themselves.
    pub fn set_var_object(&mut self, x: VarId, obj: ObjId) {
        self.var_objects.insert(x, obj);
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes construction. Held locks and open atomic blocks are allowed:
    /// a feasible trace may be the prefix of a longer execution.
    pub fn finish(self) -> Trace {
        let n_threads = self.phases.len() as u32;
        let n_vars = self.n_vars;
        let var_objects = (0..n_vars)
            .map(|i| {
                self.var_objects
                    .get(&VarId::new(i))
                    .copied()
                    .unwrap_or(ObjId::new(i))
            })
            .collect();
        Trace {
            events: self.events,
            n_threads,
            n_vars,
            n_locks: self.n_locks,
            var_objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Tid = Tid::new(0);
    const T1: Tid = Tid::new(1);
    const T2: Tid = Tid::new(2);
    const X: VarId = VarId::new(0);
    const M: LockId = LockId::new(0);

    #[test]
    fn double_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.acquire(T0, M).unwrap();
        let err = b.acquire(T1, M).unwrap_err();
        assert!(matches!(err, FeasibilityError::LockAlreadyHeld { .. }));
        // Self double-acquire (re-entrancy is filtered upstream) too.
        let err = b.acquire(T0, M).unwrap_err();
        assert!(matches!(err, FeasibilityError::LockAlreadyHeld { .. }));
    }

    #[test]
    fn release_without_acquire_rejected() {
        let mut b = TraceBuilder::new();
        let err = b.release(T0, M).unwrap_err();
        assert!(matches!(err, FeasibilityError::LockNotHeld { .. }));
        b.acquire(T0, M).unwrap();
        let err = b.release(T1, M).unwrap_err();
        assert!(matches!(err, FeasibilityError::LockNotHeld { .. }));
    }

    #[test]
    fn wait_and_notify_require_the_lock() {
        let mut b = TraceBuilder::new();
        assert!(b.push(Op::Wait(T0, M)).is_err());
        assert!(b.push(Op::Notify(T0, M)).is_err());
        b.acquire(T0, M).unwrap();
        assert!(b.push(Op::Wait(T0, M)).is_ok());
        assert!(b.push(Op::Notify(T0, M)).is_ok());
    }

    #[test]
    fn fork_constraints() {
        let mut b = TraceBuilder::new();
        b.write(T1, X).unwrap(); // T1 pre-exists
        let err = b.fork(T0, T1).unwrap_err();
        assert!(matches!(err, FeasibilityError::ForkOfRunningThread { .. }));
        let err = b.fork(T0, T0).unwrap_err();
        assert!(matches!(err, FeasibilityError::SelfForkOrJoin { .. }));
    }

    #[test]
    fn join_constraints() {
        let mut b = TraceBuilder::new();
        // Join of a never-started thread.
        let err = b.join(T0, T1).unwrap_err();
        assert!(matches!(
            err,
            FeasibilityError::JoinOfUnstartedThread { .. }
        ));
        // Join of a forked thread that never ran (constraint 4).
        b.fork(T0, T1).unwrap();
        let err = b.join(T0, T1).unwrap_err();
        assert!(matches!(
            err,
            FeasibilityError::JoinOfUnstartedThread { .. }
        ));
        // After one instruction the join is fine; a second join is not.
        b.write(T1, X).unwrap();
        b.join(T0, T1).unwrap();
        let err = b.join(T0, T1).unwrap_err();
        assert!(matches!(err, FeasibilityError::ThreadAlreadyJoined { .. }));
        // The joined thread may not act again.
        let err = b.write(T1, X).unwrap_err();
        assert!(matches!(err, FeasibilityError::ThreadAlreadyJoined { .. }));
    }

    #[test]
    fn barrier_constraints() {
        let mut b = TraceBuilder::new();
        assert!(matches!(
            b.barrier_release(vec![]).unwrap_err(),
            FeasibilityError::MalformedBarrier { .. }
        ));
        assert!(matches!(
            b.barrier_release(vec![T0, T0]).unwrap_err(),
            FeasibilityError::MalformedBarrier { .. }
        ));
        b.barrier_release(vec![T0, T1, T2]).unwrap();
    }

    #[test]
    fn atomic_markers_must_nest() {
        let mut b = TraceBuilder::new();
        let err = b.push(Op::AtomicEnd(T0)).unwrap_err();
        assert!(matches!(err, FeasibilityError::UnmatchedAtomicEnd { .. }));
        b.push(Op::AtomicBegin(T0)).unwrap();
        b.push(Op::AtomicBegin(T0)).unwrap();
        b.push(Op::AtomicEnd(T0)).unwrap();
        b.push(Op::AtomicEnd(T0)).unwrap();
        assert!(b.push(Op::AtomicEnd(T0)).is_err());
    }

    #[test]
    fn failed_push_leaves_builder_unchanged() {
        let mut b = TraceBuilder::new();
        b.acquire(T0, M).unwrap();
        let len = b.len();
        assert!(b.acquire(T1, M).is_err());
        assert_eq!(b.len(), len);
        // T0 still holds the lock and can release it.
        b.release(T0, M).unwrap();
    }

    #[test]
    fn with_threads_preregisters_ids() {
        let b = TraceBuilder::with_threads(4);
        let trace = b.finish();
        assert_eq!(trace.n_threads(), 4);
    }

    #[test]
    fn error_messages_are_informative() {
        let mut b = TraceBuilder::new();
        b.acquire(T0, M).unwrap();
        let err = b.acquire(T1, M).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("T1") && msg.contains("m0") && msg.contains("T0"),
            "{msg}"
        );
    }
}
