//! The tool interface shared by every detector in this repository.

use crate::guard::Precision;
use crate::stats::{RuleCount, Stats};
use crate::warning::Warning;
use ft_obs::{MetricsRegistry, Snapshot};
use ft_trace::{EventBlock, Op, Trace};

/// What a detector wants done with an event when it is used as a
/// *prefilter* for a downstream analysis (§5.2 of the paper).
///
/// The RoadRunner composition `-tool FastTrack:Velodrome` "filters out
/// race-free memory accesses from the event stream and passes all other
/// events on". [`Disposition::Forward`] passes the event downstream;
/// [`Disposition::Suppress`] drops it. Detectors that are not filters
/// always forward.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// Pass the event to the downstream tool.
    Forward,
    /// Drop the event: it is provably uninteresting (e.g. race-free) for
    /// downstream analyses.
    Suppress,
}

/// A dynamic analysis tool that consumes a multithreaded event stream.
///
/// All seven paper tools (EMPTY, ERASER, MULTIRACE, GOLDILOCKS, BASICVC,
/// DJIT+, FASTTRACK) implement this trait, which makes the apples-to-apples
/// comparisons of §5 possible: the same trace is replayed through each tool
/// by the same harness.
///
/// # Example
///
/// ```
/// use fasttrack::{Detector, FastTrack};
/// use ft_trace::gen::{self, GenConfig};
///
/// let trace = gen::generate(&GenConfig::race_free(), 1);
/// let mut ft = FastTrack::new();
/// ft.run(&trace);
/// assert!(ft.warnings().is_empty());
/// assert_eq!(ft.stats().ops, trace.len() as u64);
/// ```
pub trait Detector {
    /// The tool's display name (e.g. `"FASTTRACK"`).
    fn name(&self) -> &'static str;

    /// Processes one event. `index` is the event's position in the trace,
    /// used for error reporting. Returns the event's disposition for
    /// prefilter composition.
    fn on_op(&mut self, index: usize, op: &Op) -> Disposition;

    /// The warnings produced so far.
    fn warnings(&self) -> &[Warning];

    /// The statistics gathered so far.
    fn stats(&self) -> &Stats;

    /// Current shadow-state footprint in bytes (Table 3's memory-overhead
    /// accounting). Walks the shadow state; intended to be called rarely.
    fn shadow_bytes(&self) -> usize {
        0
    }

    /// Per-rule hit counts, for Figure 2-style frequency reports. Detectors
    /// without interesting rule structure return an empty vector.
    fn rule_breakdown(&self) -> Vec<RuleCount> {
        Vec::new()
    }

    /// How much to trust this detector's warnings: [`Precision::Full`]
    /// unless a resource guard degraded the analysis (see [`crate::guard`]).
    /// Ungoverned detectors are always fully precise.
    fn precision(&self) -> Precision {
        Precision::Full
    }

    /// Bridges [`Detector::stats`], [`Detector::rule_breakdown`],
    /// [`Detector::shadow_bytes`], and [`Detector::precision`] into an
    /// `ft-obs` metrics [`Snapshot`]: `ops`/`reads`/… become counters,
    /// per-rule hits become `rule.<NAME>.hits` counters with
    /// `rule.<NAME>.percent` gauges, and warning/shadow/degradation totals
    /// become gauges. The default implementation covers every detector;
    /// tools with richer instrumentation can override and merge their own
    /// registries.
    fn metrics(&self) -> Snapshot {
        base_registry(self).snapshot()
    }

    /// Processes one decoded block of events whose first entry sits at
    /// trace position `base_index`.
    ///
    /// This is the fused batch entry point: batch drivers (the `.ftb`
    /// streaming analysis, serve sessions, `perfbench`) hand the detector
    /// a whole structure-of-arrays block at once, so dispatch overhead is
    /// paid per block rather than per event. The default simply replays
    /// the block through [`Detector::on_op`] — semantically identical for
    /// every detector — while hot detectors (FastTrack) override it to
    /// branch on the raw kind lane directly.
    ///
    /// Dispositions are not reported: prefilter composition runs event-at-
    /// a-time through [`Detector::on_op`].
    fn on_block(&mut self, base_index: usize, block: &EventBlock) {
        for i in 0..block.len() {
            self.on_op(base_index + i, &block.op(i));
        }
    }

    /// Replays an entire trace through [`Detector::on_op`].
    fn run(&mut self, trace: &Trace)
    where
        Self: Sized,
    {
        for (index, op) in trace.events().iter().enumerate() {
            self.on_op(index, op);
        }
    }
}

/// Builds the standard metrics registry for a detector — the default
/// [`Detector::metrics`] body, exposed so overriding implementations can
/// extend it instead of duplicating it.
pub fn base_registry<D: Detector + ?Sized>(d: &D) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_meta("tool", d.name());
    let s = d.stats();
    reg.inc_counter("ops", s.ops);
    reg.inc_counter("reads", s.reads);
    reg.inc_counter("writes", s.writes);
    reg.inc_counter("sync_ops", s.sync_ops);
    reg.inc_counter("vc_allocated", s.vc_allocated);
    reg.inc_counter("vc_ops", s.vc_ops);
    reg.inc_counter("vc_recycled", s.vc_recycled);
    reg.inc_counter("vc_reused", s.vc_reused);
    reg.inc_counter("sync.fastpath_hits", s.sync_fastpath_hits);
    reg.inc_counter("sync.slow_joins", s.sync_slow_joins);
    if let Some(rate) = s.sync_fastpath_rate() {
        reg.set_gauge("sync.fastpath_rate", rate);
    }
    reg.inc_counter("warnings", d.warnings().len() as u64);
    reg.set_gauge("shadow_bytes", d.shadow_bytes() as f64);
    for rc in d.rule_breakdown() {
        reg.inc_counter(&format!("rule.{}.hits", rc.rule), rc.hits);
        reg.set_gauge(&format!("rule.{}.percent", rc.rule), rc.percent);
    }
    let p = d.precision();
    reg.set_meta(
        "precision",
        if p.is_degraded() { "degraded" } else { "full" },
    );
    if let Some(r) = p.record() {
        reg.set_gauge("guard.budget_bytes", r.budget_bytes as f64);
        reg.set_gauge("guard.peak_bytes", r.peak_bytes as f64);
        reg.inc_counter("guard.rvc_evictions", r.rvc_evictions);
        reg.inc_counter("guard.sampled_out", r.sampled_out);
        reg.inc_counter("guard.pool_clocks_dropped", r.pool_clocks_dropped);
    }
    reg
}

/// Blanket impl so `Box<dyn Detector>` is itself usable as a detector
/// (needed by the pipeline composition in `ft-runtime`).
impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        (**self).on_op(index, op)
    }

    fn on_block(&mut self, base_index: usize, block: &EventBlock) {
        (**self).on_block(base_index, block)
    }

    fn warnings(&self) -> &[Warning] {
        (**self).warnings()
    }

    fn stats(&self) -> &Stats {
        (**self).stats()
    }

    fn shadow_bytes(&self) -> usize {
        (**self).shadow_bytes()
    }

    fn rule_breakdown(&self) -> Vec<RuleCount> {
        (**self).rule_breakdown()
    }

    fn precision(&self) -> Precision {
        (**self).precision()
    }

    fn metrics(&self) -> Snapshot {
        (**self).metrics()
    }
}
