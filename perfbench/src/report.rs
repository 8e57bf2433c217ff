//! One benchmark run: set-up, the two phases, and the metrics they yield.

use std::time::{Duration, Instant};

use ft_obs::JsonWriter;

use crate::inputs::{setup, Inputs, Size, Workload};
use crate::phases::{self, Tally, ANALYZE, ON_BLOCK_SPANS};
use crate::spans::Spans;
use crate::stats::{median, ms, quantile, ratio};

/// Set-ups made per run; `setup_s` is the median of their scaled times.
/// `serve-closed2` sets up in about 30 ms, and with seven set-ups its
/// median moved by up to 0.16 of itself between runs; with 31 it stays
/// within a few hundredths.
const SETUP_REPS: usize = 31;

/// Nominal time of [`calibration`], in seconds: `setup_s` is the set-up
/// time on a host where the kernel takes this long. It is of the order of
/// the kernel's time on the 2-vCPU x86-64 host the benchmark was written
/// on (5 to 10 ms), so `setup_s` reads close to wall seconds there.
const CALIBRATION_S: f64 = 0.008;

/// Values [`calibration`] sorts.
const CALIBRATION_LEN: usize = 1 << 18;

/// Times each phase runs per run, in turn with the others, for a tenth of
/// its share each time; so every metric samples the whole run's clock
/// conditions instead of one stretch of it.
const CYCLES: usize = 10;

/// Rules whose check is O(1) in the thread count (the paper's Figure 2):
/// every rule but READ SHARE, which allocates a read vector clock, and
/// WRITE SHARED, which compares against one.
const FAST_RULES: [&str; 5] = [
    "FT READ SAME EPOCH",
    "FT READ SHARED",
    "FT READ EXCLUSIVE",
    "FT WRITE SAME EPOCH",
    "FT WRITE EXCLUSIVE",
];

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    /// Operations checked, set-up checks included.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the log.
    pub notes: Vec<String>,
    /// The recorded spans of a traced run.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("correct", self.failed == 0);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(&m.name);
            w.begin_object();
            w.field_f64("value", m.value);
            w.field_str("unit", m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// A fixed kernel of the benchmark's own, timed around every set-up so that
/// the set-up time can be scaled to a nominal host speed: it generates,
/// allocates and sorts pseudo-random numbers, as set-up generates, encodes
/// and decodes traces. Returns its time.
fn calibration() -> Duration {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = (0..CALIBRATION_LEN)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    start.elapsed()
}

/// Runs `workload` at `seed`: set-up, then each phase for its share of
/// `seconds`, with spans recorded when `traced`.
///
/// `setup_s` is the median over [`SETUP_REPS`] set-ups of the set-up time
/// ÷ the mean time of [`calibration`] just before and just after it, times
/// [`CALIBRATION_S`]: seconds at a nominal host speed. The ratio's two
/// sides share the clock conditions of the moment, so the figure follows
/// the set-up's work and not the shared host's speed.
pub fn run(workload: Workload, seed: u64, seconds: Duration, traced: bool, size: Size) -> Outcome {
    let mut scaled = Vec::new();
    let mut took = Vec::new();
    let mut inputs = None;
    let mut before = calibration();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(setup(workload, seed, size));
        let secs = start.elapsed().as_secs_f64();
        let after = calibration();
        let unit = (before + after).as_secs_f64() / 2.0;
        scaled.push(secs / unit * CALIBRATION_S);
        took.push(secs);
        before = after;
    }
    eprintln!(
        "perfbench: {SETUP_REPS} set-ups, median {:.4} s of wall time",
        median(&took)
    );
    let inputs = inputs.expect("SETUP_REPS > 0");
    run_with(workload, &inputs, median(&scaled), seed, seconds, traced)
}

/// Runs the phases on inputs that are already set up.
pub fn run_with(
    workload: Workload,
    inputs: &Inputs,
    setup_s: f64,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> Outcome {
    let shares = workload
        .shares()
        .map(|s| seconds.mul_f64(s) / CYCLES as u32);
    let mut tally = Tally::default();
    let origin = Instant::now();
    let mut tracing = traced.then(|| phases::Tracing {
        spans: Spans::new(origin),
        next_op: 0,
    });
    let mut r = phases::RoundsResult::default();
    let mut v = phases::ServeResult::default();
    let serve = (shares[1], inputs.min_sessions.div_ceil(CYCLES));
    for cycle in 1..=CYCLES {
        let t = &mut tracing;
        phases::rounds(&inputs.analyze, shares[0], &mut tally, t.as_mut(), &mut r);
        phases::serve(inputs.sessions(), serve, &mut tally, t.as_mut(), &mut v);
        eprintln!(
            "perfbench: cycle {cycle} done at {:.3} s",
            origin.elapsed().as_secs_f64()
        );
    }
    let wall_ns = origin.elapsed().as_nanos() as u64;
    phases::serve_stop(&mut v);
    let spans = tracing.map(|t| t.spans);

    let mut notes = vec![format!(
        "{} seed {seed}: {} analysed programs ({} events), {} session programs; setup {setup_s:.3} s",
        workload.name(),
        inputs.analyze.len(),
        r.events,
        inputs.sessions().len(),
    )];
    notes.extend(
        inputs
            .failures
            .iter()
            .map(|f| format!("FAILED setup check: {f}")),
    );
    notes.extend(tally.notes.iter().map(|f| format!("FAILED: {f}")));

    let mut m = Metrics(Vec::new());
    let session_ms = |f: fn(&phases::SessionTime) -> Duration, q: f64| {
        let mut v: Vec<f64> = v.sessions.iter().map(|t| ms(f(t))).collect();
        quantile(&mut v, q)
    };
    if !traced {
        m.put("setup_s", setup_s, "s");
        m.put("analyze_slowdown", r.slowdown(ANALYZE, false), "x");
        m.put("ft_slowdown", r.slowdown(1, false), "x");
        m.put("sampler_slowdown", r.slowdown(2, false), "x");
        m.put("shadow_bytes", r.shadow_bytes as f64, "bytes");
        m.put("session_p50_ms", session_ms(|t| t.total, 0.5), "ms");
        m.put("session_p90_ms", session_ms(|t| t.total, 0.9), "ms");
        m.put(
            "sessions_per_s",
            v.sessions_run as f64 / v.wall.as_secs_f64().max(1e-9),
            "1/s",
        );
        notes.push(format!(
            "{} rounds (analyze_stream at {:.1} Mevents/s, which follows the host's speed), \
             {} timed sessions",
            r.kept.len(),
            r.events as f64 / r.median(false, |s| s[ANALYZE]) / 1e6,
            v.sessions.len(),
        ));
        // Dropped as end-to-end metrics for their spread (see README.md);
        // printed so that their spread can still be measured.
        notes.push(format!(
            "not gated: DJIT+ slowdown {} x, session p99 {} ms",
            r.slowdown(3, false),
            session_ms(|t| t.total, 0.99),
        ));
    } else {
        let spans = spans.as_ref().expect("a traced run records spans");
        let passes = r.traced_rounds as f64;
        let analyze_events = r.events as f64 * passes;
        let read_block = spans.busy_ns("trace.read_block") as f64;
        m.put("trace.read_block.busy_ns", read_block / passes, "ns");
        m.put(
            "trace.read_block.ns_per_event",
            read_block / analyze_events,
            "ns",
        );
        m.put(
            "trace.read_block.calls",
            spans.count("trace.read_block") as f64 / passes,
            "count",
        );
        // FASTTRACK's on_block runs twice per traced round: over the blocks
        // and inside the written-out analyze_stream loop.
        m.put(
            "core.on_block.ns_per_event",
            spans.busy_ns(ON_BLOCK_SPANS[1]) as f64 / (2.0 * analyze_events),
            "ns",
        );
        let c = &r.counts;
        let mut fast = 0;
        for r in &c.rules {
            let name = r
                .rule
                .trim_start_matches("FT ")
                .to_lowercase()
                .replace(' ', "_");
            m.put(format!("core.rule.{name}.hits"), r.hits as f64, "count");
            if FAST_RULES.contains(&r.rule) {
                fast += r.hits;
            }
        }
        m.put(
            "core.fast_rule_share",
            ratio(fast as f64, c.accesses as f64),
            "ratio",
        );
        m.put(
            "core.sync.fastpath_hits",
            c.sync_fastpath_hits as f64,
            "count",
        );
        m.put("core.sync.slow_joins", c.sync_slow_joins as f64, "count");
        m.put(
            "core.sync.hit_rate",
            ratio(
                c.sync_fastpath_hits as f64,
                (c.sync_fastpath_hits + c.sync_slow_joins) as f64,
            ),
            "ratio",
        );
        m.put("clock.vc_ops", c.vc_ops as f64, "count");
        m.put("clock.vc_allocated", c.vc_allocated as f64, "count");
        for (name, span) in [
            ("empty.on_block.ns_per_event", ON_BLOCK_SPANS[0]),
            ("sampler.on_block.ns_per_event", ON_BLOCK_SPANS[2]),
            ("detectors.djit.on_block.ns_per_event", ON_BLOCK_SPANS[3]),
        ] {
            m.put(name, spans.busy_ns(span) as f64 / analyze_events, "ns");
        }
        m.put("sampler.admitted", r.sampler_admitted as f64, "count");
        m.put(
            "sampler.admit_ratio",
            ratio(r.sampler_admitted as f64, c.accesses as f64),
            "ratio",
        );
        m.put("detectors.djit.vc_ops", r.djit_vc_ops as f64, "count");
        m.put("detectors.djit.slowdown", r.slowdown(3, false), "x");
        let self_times = spans.self_times();
        let (root_total, root_self) = self_times
            .get("runtime.analyze_stream")
            .copied()
            .unwrap_or_default();
        // The decode inside the real analyze_stream call cannot be wrapped;
        // the read_block spans of the decode pass over the same bytes stand
        // in for it.
        let root_self = root_self as f64 - read_block;
        m.put("runtime.analyze_stream.self_ns", root_self / passes, "ns");
        m.put(
            "runtime.analyze_stream.span_coverage",
            1.0 - ratio(root_self, root_total as f64),
            "ratio",
        );
        for (name, f) in [
            (
                "connect",
                (|t| t.connect) as fn(&phases::SessionTime) -> Duration,
            ),
            ("open", |t| t.open),
            ("upload", |t| t.upload),
            ("close", |t| t.close),
        ] {
            m.put(format!("serve.{name}_ms.p50"), session_ms(f, 0.5), "ms");
            m.put(format!("serve.{name}_ms.p90"), session_ms(f, 0.9), "ms");
        }
        m.put("serve.session_ms.p99", session_ms(|t| t.total, 0.99), "ms");
        m.put(
            "serve.drop_ratio",
            ratio(v.dropped_events as f64, v.sent_events as f64),
            "ratio",
        );
        // The untraced rounds kept for the overhead figure record no spans,
        // so they are left out of the traced wall time.
        let covered = spans.leaf_coverage_ns(0, wall_ns) as f64;
        let traced_wall = wall_ns as f64 - r.untraced_wall.as_nanos() as f64;
        m.put(
            "spans.uncovered_frac",
            1.0 - ratio(covered, traced_wall),
            "ratio",
        );
        m.put(
            "tracing.analyze_overhead",
            ratio(r.slowdown(ANALYZE, true), r.slowdown(ANALYZE, false)),
            "x",
        );
        notes.push(format!(
            "self time by span over {:.3} s of traced phases ({:.1}% covered by innermost spans):",
            traced_wall / 1e9,
            100.0 * ratio(covered, traced_wall)
        ));
        for (name, (total, own)) in &self_times {
            notes.push(format!(
                "  {name:<28} total {:>10.3} ms  self {:>10.3} ms",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            ));
        }
    }
    for metric in &m.0 {
        notes.push(format!(
            "{} = {} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    Outcome {
        attempted: inputs.checks + tally.attempted,
        failed: inputs.failures.len() as u64 + tally.failed,
        metrics: m.0,
        notes,
        spans,
    }
}
