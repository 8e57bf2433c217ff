//! Shared measurement harness for the table/figure reproduction binaries.
//!
//! Methodology (matching §5.1 as closely as a trace-replay setting allows):
//!
//! * every tool implements the same [`Detector`] trait and replays the same
//!   pre-generated trace — the paper's "apples-to-apples" setup;
//! * *slowdown* is reported relative to the **BASE** replay loop (iterating
//!   the trace doing no analysis at all), which stands in for the
//!   uninstrumented program; the EMPTY tool measures pure event-dispatch
//!   overhead, like the paper's EMPTY column;
//! * each measurement is the best of `reps` runs on a fresh tool instance
//!   (state is never reused across runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fasttrack::{Detector, Empty, FastTrack};
use ft_detectors::{BasicVc, Djit, Eraser, Goldilocks, MultiRace};
use ft_trace::{Op, Trace};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The Table 1 tool names, in the paper's column order.
pub const TOOL_NAMES: &[&str] = &[
    "EMPTY",
    "ERASER",
    "MULTIRACE",
    "GOLDILOCKS",
    "BASICVC",
    "DJIT+",
    "FASTTRACK",
];

/// Constructs a fresh tool by Table 1 name.
///
/// GOLDILOCKS is built with the unsound thread-local fast path, matching
/// the paper's RoadRunner implementation ("even when utilizing an unsound
/// extension to handle thread-local data efficiently").
///
/// # Panics
///
/// Panics on an unknown name.
pub fn make_tool(name: &str) -> Box<dyn Detector> {
    match name {
        "EMPTY" => Box::new(Empty::new()),
        "ERASER" => Box::new(Eraser::new()),
        "MULTIRACE" => Box::new(MultiRace::new()),
        "GOLDILOCKS" => Box::new(Goldilocks::with_thread_local_fast_path()),
        "BASICVC" => Box::new(BasicVc::new()),
        "DJIT+" => Box::new(Djit::new()),
        "FASTTRACK" => Box::new(FastTrack::new()),
        other => panic!("unknown tool {other:?}"),
    }
}

/// Times the bare replay loop over `trace` — the "uninstrumented program"
/// baseline all slowdowns are normalized to.
pub fn time_base(trace: &Trace, reps: u32) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut acc = 0u64;
        for op in trace.events() {
            acc = acc.wrapping_add(match op {
                Op::Read(t, x) => t.as_u32() as u64 ^ x.as_u32() as u64,
                Op::Write(t, x) => (t.as_u32() as u64) << 1 ^ x.as_u32() as u64,
                _ => 1,
            });
        }
        black_box(acc);
        best = best.min(start.elapsed());
    }
    best.max(Duration::from_nanos(1))
}

/// Replays `trace` through fresh instances of the named tool `reps` times;
/// returns the best duration and the last instance (for warnings/stats).
pub fn time_tool(name: &str, trace: &Trace, reps: u32) -> (Duration, Box<dyn Detector>) {
    let mut best = Duration::MAX;
    let mut last: Option<Box<dyn Detector>> = None;
    for _ in 0..reps.max(1) {
        let mut tool = make_tool(name);
        let start = Instant::now();
        for (i, op) in trace.events().iter().enumerate() {
            tool.on_op(i, op);
        }
        best = best.min(start.elapsed());
        last = Some(tool);
    }
    (best, last.expect("reps >= 1"))
}

/// Slowdown of `d` relative to `base`.
pub fn slowdown(d: Duration, base: Duration) -> f64 {
    d.as_secs_f64() / base.as_secs_f64()
}

/// Formats a float like the paper's tables (one decimal).
pub fn fmt1(x: f64) -> String {
    format!("{x:.1}")
}

/// Geometric-mean helper for "Average" rows (the paper uses arithmetic
/// means; both are provided).
pub fn arithmetic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Simple `--key=value` argument lookup for [`HarnessOpts::from_env`].
fn arg_value(args: &[String], key: &str) -> Option<String> {
    let prefix = format!("--{key}=");
    args.iter()
        .find(|a| a.starts_with(&prefix))
        .map(|a| a[prefix.len()..].to_string())
}

/// Parses the common `--ops=` / `--reps=` / `--seed=` harness options.
pub struct HarnessOpts {
    /// Events per workload trace.
    pub ops: usize,
    /// Repetitions per measurement (best-of).
    pub reps: u32,
    /// Workload seed.
    pub seed: u64,
}

impl HarnessOpts {
    /// Reads options from `std::env::args`, with defaults tuned so every
    /// harness finishes in minutes in `--release`.
    pub fn from_env(default_ops: usize) -> Self {
        let args: Vec<String> = std::env::args().collect();
        HarnessOpts {
            ops: arg_value(&args, "ops")
                .and_then(|v| v.parse().ok())
                .unwrap_or(default_ops),
            reps: arg_value(&args, "reps")
                .and_then(|v| v.parse().ok())
                .unwrap_or(3),
            seed: arg_value(&args, "seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(42),
        }
    }

    /// The workload scale for these options.
    pub fn scale(&self) -> ft_workloads::Scale {
        ft_workloads::Scale { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::gen::{self, GenConfig};

    #[test]
    fn all_named_tools_construct_and_run() {
        let trace = gen::generate(&GenConfig::race_free(), 1);
        for name in TOOL_NAMES {
            let (d, tool) = time_tool(name, &trace, 1);
            assert!(d > Duration::ZERO);
            assert_eq!(&tool.name(), name);
            assert_eq!(tool.stats().ops, trace.len() as u64);
        }
    }

    #[test]
    fn base_time_is_positive_and_fast() {
        let trace = gen::generate(&GenConfig::race_free(), 1);
        let base = time_base(&trace, 2);
        assert!(base > Duration::ZERO);
    }

    #[test]
    fn arg_parsing() {
        let args = vec!["prog".into(), "--ops=123".into(), "--reps=9".into()];
        assert_eq!(arg_value(&args, "ops").unwrap(), "123");
        assert_eq!(arg_value(&args, "reps").unwrap(), "9");
        assert!(arg_value(&args, "seed").is_none());
    }

    #[test]
    fn mean_helper() {
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(arithmetic_mean(&[]), 0.0);
    }
}
