//! The comparison race detectors of §5 of the FastTrack paper.
//!
//! The paper evaluates FastTrack against five other tools, all built on the
//! same event framework so the comparison is apples-to-apples. This crate
//! provides those baselines on the same [`fasttrack::Detector`] trait:
//!
//! * [`BasicVc`] — "a traditional VC-based race detector": full vector
//!   clocks for the read and write history of every variable, with at least
//!   one *O(n)* comparison on every access.
//! * [`Djit`] — the DJIT⁺ algorithm (Pozniansky & Schuster): BasicVC plus
//!   same-epoch fast paths.
//! * [`Eraser`] — the classic imprecise LockSet algorithm, extended to
//!   handle barrier synchronization as in the paper's evaluation.
//! * [`MultiRace`] — the hybrid LockSet/DJIT⁺ detector: Eraser's state
//!   machine gates the expensive vector-clock comparisons.
//! * [`Goldilocks`] — the lockset-transfer race detector (Elmas, Qadeer &
//!   Tasiran), implemented with per-reader locksets and a lazily replayed
//!   synchronization log.
//!
//! BasicVC, DJIT⁺ and MultiRace handle synchronization through FastTrack's
//! own [`fasttrack::SyncEngine`] — the same thread, lock and volatile clocks
//! and the same handlers — so the comparison measures access handling
//! only, as the paper's shared framework does.
//!
//! The precise detectors (BasicVC, DJIT⁺, Goldilocks) report races on
//! exactly the same variables as FastTrack and the happens-before oracle —
//! that equivalence is property-tested in `tests/agreement.rs`. The lockset
//! detectors trade precision for simplicity: Eraser reports spurious
//! warnings on fork/join programs and silently misses races hidden by its
//! ownership-transfer heuristic; MultiRace confirms Eraser's suspicions
//! with vector clocks, so it never reports false alarms but inherits the
//! misses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basicvc;
mod djit;
mod eraser;
mod goldilocks;
mod lockset;
mod multirace;

pub use basicvc::BasicVc;
pub use djit::Djit;
pub use eraser::{Eraser, EraserConfig, VarPhase};
pub use goldilocks::Goldilocks;
pub use lockset::LockSet;
pub use multirace::MultiRace;

pub use fasttrack::{Detector, Disposition, Empty, FastTrack};

use fasttrack::{AccessSummary, Warning, WarningKind};
use ft_clock::{Tid, VectorClock};
use ft_trace::{AccessKind, Trace, VarId};

/// Every tool of the paper's Table 1, freshly constructed, in the paper's
/// column order: EMPTY, ERASER, MULTIRACE, GOLDILOCKS, BASICVC, DJIT⁺,
/// FASTTRACK.
pub fn all_tools() -> Vec<Box<dyn fasttrack::Detector>> {
    vec![
        Box::new(Empty::new()),
        Box::new(Eraser::new()),
        Box::new(MultiRace::new()),
        Box::new(Goldilocks::new()),
        Box::new(BasicVc::new()),
        Box::new(Djit::new()),
        Box::new(FastTrack::new()),
    ]
}

/// Runs a fresh instance of every tool over `trace`, returning them for
/// inspection.
pub fn run_all(trace: &Trace) -> Vec<Box<dyn fasttrack::Detector>> {
    let mut tools = all_tools();
    for tool in &mut tools {
        for (i, op) in trace.events().iter().enumerate() {
            tool.on_op(i, op);
        }
    }
    tools
}

/// Some thread whose component of `prior` exceeds the observer's clock
/// `ct`: the witness to a race on a vector-clock access history.
fn concurrent_witness(prior: &VectorClock, ct: &VectorClock) -> Option<Tid> {
    prior
        .iter_nonzero()
        .find(|&(u, c)| c > ct.get(u))
        .map(|(u, _)| u)
}

/// Records a happens-before race on `x` unless `x` already has a warning
/// (the paper's tools "report at most one race for each field"); `warned`
/// must cover `x`.
fn report_once(
    warned: &mut [bool],
    warnings: &mut Vec<Warning>,
    x: VarId,
    kind: WarningKind,
    prior: (Tid, AccessKind),
    current: (Tid, AccessKind),
    index: usize,
) {
    if std::mem::replace(&mut warned[x.as_usize()], true) {
        return;
    }
    warnings.push(Warning {
        var: x,
        kind,
        prior: AccessSummary {
            tid: prior.0,
            kind: prior.1,
            event_index: None,
        },
        current: AccessSummary {
            tid: current.0,
            kind: current.1,
            event_index: Some(index),
        },
        provenance: None,
    });
}
