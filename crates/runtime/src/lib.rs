//! RoadRunner-style dynamic-analysis substrate.
//!
//! The FastTrack paper's tools are all built on ROADRUNNER, "a framework for
//! developing dynamic analyses for multithreaded software" that instruments
//! programs, generates an event stream, and feeds it to back-end tools —
//! optionally *chained*, as in `-tool FastTrack:Velodrome` (§5.2). This
//! crate is that substrate, adapted to Rust:
//!
//! * [`Pipeline`] — tool composition: upstream tools act as prefilters,
//!   suppressing events (e.g. race-free accesses) before downstream tools
//!   see them.
//! * [`ThreadLocalFilter`] — the "TL" prefilter of §5.2 that drops accesses
//!   to data touched by a single thread.
//! * [`coarsen`] — the coarse-grain analysis adapter of §4 ("Granularity"):
//!   all fields of an object collapse to a single shadow location.
//! * [`sim`] — a deterministic multithreaded program simulator: scriptable
//!   threads with locks, condition variables, barriers, forks and joins,
//!   scheduled by a seeded scheduler. This is the stand-in for running
//!   instrumented Java programs: it turns *programs* into *event streams*.
//! * [`online`] — real-thread monitoring: instrumented mutexes, tracked
//!   variables, and a spawn/join wrapper that feed any detector live from
//!   actual `std::thread` threads.
//! * [`stream`] — streaming `.ftb` analysis: [`analyze_stream`] feeds a
//!   binary trace stream to a detector block by block, so traces larger
//!   than RAM analyze in bounded memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod granularity;
pub mod online;
mod pipeline;
mod recorder;
pub mod sim;
pub mod stream;
mod tl_filter;

pub use granularity::coarsen;
pub use pipeline::{run_pipeline, Pipeline, StageReport};
pub use recorder::{Recorder, RecorderHandle};
pub use stream::analyze_stream;
pub use tl_filter::ThreadLocalFilter;
