//! The [`Trace`] container and stand-alone feasibility validation.

use crate::builder::{FeasibilityError, TraceBuilder};
use crate::event::{ObjId, Op};
use crate::stats::OpMix;

/// A feasible execution trace of a multithreaded program (§2.1).
///
/// A trace records the interleaved sequence of operations performed by all
/// threads, together with metadata needed by the analyses:
///
/// * `n_threads`, `n_vars`, `n_locks` — sizes of the id spaces, so detectors
///   can pre-size their shadow state;
/// * `var_objects` — the owning object of each variable, used by the
///   coarse-grain analysis of §4 ("Granularity").
///
/// Construct traces with [`TraceBuilder`] (which enforces feasibility as
/// operations are appended) or deserialize them and re-check with
/// [`validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    pub(crate) events: Vec<Op>,
    pub(crate) n_threads: u32,
    pub(crate) n_vars: u32,
    pub(crate) n_locks: u32,
    /// `var_objects[v]` is the object that owns variable `v`; defaults to a
    /// distinct object per variable (i.e. coarse == fine).
    pub(crate) var_objects: Vec<ObjId>,
}

impl Trace {
    /// The events in program order.
    #[inline]
    pub fn events(&self) -> &[Op] {
        &self.events
    }

    /// Number of thread ids used (ids are dense in `0..n_threads`).
    #[inline]
    pub fn n_threads(&self) -> u32 {
        self.n_threads
    }

    /// Number of variable ids used.
    #[inline]
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Number of lock ids used.
    #[inline]
    pub fn n_locks(&self) -> u32 {
        self.n_locks
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace has no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The object owning variable `v` (for the coarse-grain analysis).
    #[inline]
    pub fn object_of(&self, v: crate::VarId) -> ObjId {
        self.var_objects
            .get(v.as_usize())
            .copied()
            .unwrap_or(ObjId::new(v.as_u32()))
    }

    /// Number of distinct objects referenced by `var_objects`.
    pub fn n_objects(&self) -> u32 {
        let mut objects: Vec<u32> = self.var_objects.iter().map(|o| o.as_u32()).collect();
        objects.sort_unstable();
        objects.dedup();
        objects.len() as u32
    }

    /// Computes the operation-mix statistics of this trace (the Figure 2
    /// "82.3% reads / 14.5% writes / 3.3% other" breakdown).
    pub fn op_mix(&self) -> OpMix {
        OpMix::of(self.events())
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Checks that a sequence of events forms a feasible trace (§2.1): locks are
/// acquired/released in a well-nested ownership discipline, no thread runs
/// before it is forked or after it is joined, and ids are in range.
///
/// This is the stand-alone re-validation used for deserialized traces;
/// [`TraceBuilder`] enforces the same rules incrementally.
///
/// # Errors
///
/// Returns the first [`FeasibilityError`] encountered, annotated with the
/// offending event index.
pub fn validate(events: &[Op]) -> Result<Trace, FeasibilityError> {
    validate_declared(events, 0, 0)
}

/// [`validate`] with id admission starting from a declared variable and
/// lock space (a deserialized trace's header or metadata).
pub(crate) fn validate_declared(
    events: &[Op],
    n_vars: u32,
    n_locks: u32,
) -> Result<Trace, FeasibilityError> {
    let mut b = TraceBuilder::with_declared_ids(n_vars, n_locks);
    for op in events {
        b.push(op.clone())?;
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LockId, VarId};
    use ft_clock::Tid;

    #[test]
    fn validate_accepts_well_formed_trace() {
        let t0 = Tid::new(0);
        let t1 = Tid::new(1);
        let x = VarId::new(0);
        let m = LockId::new(0);
        let events = vec![
            Op::Fork(t0, t1),
            Op::Acquire(t0, m),
            Op::Write(t0, x),
            Op::Release(t0, m),
            Op::Acquire(t1, m),
            Op::Read(t1, x),
            Op::Release(t1, m),
            Op::Join(t0, t1),
        ];
        let trace = validate(&events).unwrap();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.n_threads(), 2);
        assert_eq!(trace.n_vars(), 1);
        assert_eq!(trace.n_locks(), 1);
    }

    #[test]
    fn validate_rejects_double_acquire() {
        let t0 = Tid::new(0);
        let t1 = Tid::new(1);
        let m = LockId::new(0);
        let events = vec![Op::Fork(t0, t1), Op::Acquire(t0, m), Op::Acquire(t1, m)];
        assert!(validate(&events).is_err());
    }

    #[test]
    fn object_of_defaults_to_identity() {
        let trace = validate(&[Op::Write(Tid::new(0), VarId::new(3))]).unwrap();
        assert_eq!(trace.object_of(VarId::new(3)), ObjId::new(3));
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = validate(&[]).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.n_objects(), 0);
    }
}
