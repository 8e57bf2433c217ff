//! Multithreaded execution traces and the happens-before ground truth.
//!
//! This crate implements the trace model of §2.1 of the FastTrack paper
//! (Figure 1) together with the machinery the rest of the repository is
//! built and tested on:
//!
//! * [`Op`]/[`Trace`] — the operations a thread can perform (reads, writes,
//!   lock acquires/releases, forks and joins) plus the §4 extensions
//!   (volatile accesses, wait/notify, barrier releases) and the
//!   atomic-block markers used by the downstream checkers of §5.2.
//! * [`TraceBuilder`] / [`validate`] — feasibility checking: traces must
//!   respect the §2.1 well-formedness constraints on locks, forks, and joins.
//! * [`HbOracle`] — a *reference* happens-before analysis that computes a
//!   full vector clock per event and exhaustively finds every pair of
//!   concurrent conflicting accesses. It is deliberately simple and slow; it
//!   is the ground truth the detectors (FastTrack, DJIT+, BasicVC, …) are
//!   property-tested against.
//! * [`gen`] — seeded random generators of feasible traces with tunable
//!   sharing patterns, used by property tests and benchmarks.
//!
//! # Example
//!
//! ```
//! use ft_trace::{HbOracle, LockId, TraceBuilder, VarId};
//! use ft_clock::Tid;
//!
//! let (t0, t1) = (Tid::new(0), Tid::new(1));
//! let (x, m) = (VarId::new(0), LockId::new(0));
//!
//! let mut b = TraceBuilder::with_threads(2);
//! b.write(t0, x)?;
//! b.release_after_acquire(t0, m, |_| Ok(()))?;
//! // t1 acquires the same lock, so its write is ordered after t0's.
//! b.acquire(t1, m)?;
//! b.write(t1, x)?;
//! b.release(t1, m)?;
//! let trace = b.finish();
//!
//! let report = HbOracle::analyze(&trace);
//! assert!(report.races.is_empty());
//! # Ok::<(), ft_trace::FeasibilityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod builder;
mod event;
mod ftb;
mod ftb_push;
pub mod gen;
mod hb;
mod hb_def;
mod ids;
pub mod json;
pub mod rng;
mod serial;
mod stats;
mod trace;

pub use batch::{EventBlock, DEFAULT_BLOCK_EVENTS};
pub use builder::{FeasibilityError, TraceBuilder};
pub use event::{AccessKind, LockId, ObjId, Op, VarId};
pub use ftb::{
    FtbError, FtbHeader, FtbReader, FtbWriter, FTB_HEADER_BYTES, FTB_MAGIC, FTB_RECORD_BYTES,
    FTB_VERSION,
};
pub use ftb_push::FtbDecoder;
pub use hb::{Access, HbOracle, OracleReport, RacePair};
pub use hb_def::definitional_race_vars;
pub use rng::Prng;
pub use serial::TraceFormatError;
pub use stats::{OpMix, OpMixRatios};
pub use trace::{validate, Trace};

pub use ft_clock::Tid;
