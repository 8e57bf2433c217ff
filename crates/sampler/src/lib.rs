//! `ft-sampler`: O(1)-samples race detection.
//!
//! The guard layer (`fasttrack::guard`) treats sampling as an emergency
//! fallback under memory pressure. This crate turns it into a *first-class
//! detector tier* in the spirit of "Dynamic Race Detection with O(1)
//! Samples": a seeded, budgeted sampler that
//!
//! * keeps **constant shadow bytes per variable** — at most
//!   [`SamplerConfig::budget`] sampled access epochs per variable, regardless
//!   of how many threads touch it (no `Rvc` inflation, ever);
//! * maintains **exact** vector clocks on synchronization operations (the
//!   rare ~3% of events) through FastTrack's own [`fasttrack::SyncEngine`],
//!   so every happens-before verdict on a sampled pair is precise;
//! * replays each admitted access against the variable's stored samples
//!   through the *real* Figure 5 transition rules ([`fasttrack::rules`]) —
//!   the same code the full detector runs;
//! * is **sound but incomplete**: it may miss races the budget or the
//!   admission rate skipped, but every warning it reports is a genuine
//!   concurrent conflicting pair, so full FastTrack also warns on that
//!   variable. The escalation story is: run the sampler always-on, and
//!   re-run FastTrack on anything it flags.
//!
//! Admission is a seeded geometric-gap process over the access stream
//! (Vitter's skip-counting): between admissions the per-access cost is one
//! counter increment and one threshold compare. What the tier costs over
//! EMPTY on a given workload is measured by `perfbench`'s
//! `sampler_slowdown`. For a fixed [`SamplerConfig::seed`] and trace the
//! admitted set — and therefore the report — is bit-for-bit deterministic.
//!
//! # Quick start
//!
//! ```
//! use ft_sampler::{Sampler, SamplerConfig};
//! use fasttrack::Detector;
//! use ft_trace::{TraceBuilder, VarId};
//! use ft_clock::Tid;
//!
//! // Two threads write x without synchronization: a write-write race.
//! let mut b = TraceBuilder::with_threads(2);
//! b.write(Tid::new(0), VarId::new(0))?;
//! b.write(Tid::new(1), VarId::new(0))?;
//! let trace = b.finish();
//!
//! // rate = 1.0 admits every access, so the race is caught deterministically.
//! let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
//! s.run(&trace);
//! assert_eq!(s.warnings().len(), 1);
//! # Ok::<(), ft_trace::FeasibilityError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use fasttrack::rules::{self, RuleHits};
use fasttrack::{
    base_registry, AccessSummary, Detector, Disposition, FastTrackConfig, Provenance, ReadHistory,
    Stats, SyncEngine, VarState, Warning, WarningKind,
};
use ft_clock::{Epoch, Tid, VcPool, VectorClock};
use ft_obs::Snapshot;
use ft_trace::{AccessKind, Op, Prng, VarId};

/// Configuration for the [`Sampler`] detector.
///
/// The two knobs that matter operationally are [`budget`](Self::budget)
/// (how many sampled accesses each variable retains — the "O(1)" constant)
/// and [`rate`](Self::rate) (what fraction of the access stream is admitted
/// at all). See `docs/OPERATIONS.md` §7 for sizing guidance derived from
/// `perfbench`'s `sampler_slowdown`.
///
/// # Examples
///
/// ```
/// use ft_sampler::SamplerConfig;
///
/// let cfg = SamplerConfig::default();
/// assert_eq!(cfg.budget, 4);
///
/// let tuned = SamplerConfig::default()
///     .with_budget(8)
///     .with_seed(7)
///     .with_rate(0.05);
/// assert_eq!(tuned.budget, 8);
/// assert_eq!(tuned.seed, 7);
/// assert!((tuned.rate - 0.05).abs() < 1e-12);
/// ```
///
/// A budget of zero is valid and means "admit but retain nothing": the
/// sampler then reports no races (and must not panic):
///
/// ```
/// use ft_sampler::SamplerConfig;
/// let cfg = SamplerConfig::default().with_budget(0);
/// assert_eq!(cfg.budget, 0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SamplerConfig {
    /// Maximum sampled accesses retained per variable (the O(1) constant).
    /// `0` disables retention entirely: nothing is stored, nothing reported.
    pub budget: usize,
    /// Seed for the admission and eviction draws. Reports are deterministic
    /// per `(seed, trace)` pair.
    pub seed: u64,
    /// Expected fraction of data accesses admitted for sampling, in
    /// `[0.0, 1.0]`. `1.0` admits every access; `0.0` admits none. The
    /// admission gap between samples is geometric with mean `1/rate`.
    pub rate: f64,
    /// Report every sampled race instead of at most one per variable.
    pub report_all: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            budget: 4,
            seed: 0x5eed_ca11,
            // ~1 admission per thousand accesses: low enough that the
            // admission slow path (a cold hash probe plus the Figure 5
            // checks) stays invisible next to an EMPTY pass, the regime a
            // deploy-everywhere tier lives in. Raise it (or the budget)
            // when escalating a suspicious workload to higher recall.
            rate: 0.001,
            report_all: false,
        }
    }
}

impl SamplerConfig {
    /// Sets the per-variable sample budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the admission seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the admission rate (clamped to `[0.0, 1.0]`).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Reports every sampled race instead of deduplicating per variable.
    pub fn with_report_all(mut self, report_all: bool) -> Self {
        self.report_all = report_all;
        self
    }
}

/// One retained sample: the accessing thread's epoch at access time, plus
/// whether the access was a write. 8 bytes on 64-bit targets.
#[derive(Copy, Clone, Debug)]
struct SampleSlot {
    epoch: Epoch,
    write: bool,
}

impl Default for SampleSlot {
    fn default() -> Self {
        SampleSlot {
            epoch: Epoch::MIN,
            write: false,
        }
    }
}

/// Samples stored inline in [`VarSamples`] before spilling to the heap.
/// Covers the default budget (4), so a default-configured run never
/// allocates per-variable sample storage at all.
const INLINE_SLOTS: usize = 4;

/// Per-variable sample state: at most `budget` slots plus a reservoir
/// counter. The footprint is independent of the thread count — the property
/// that distinguishes this tier from FastTrack's adaptive `Rvc`.
#[derive(Clone, Debug, Default)]
struct VarSamples {
    /// Admitted accesses ever seen on this variable (reservoir denominator).
    seen: u64,
    inline_len: u8,
    inline: [SampleSlot; INLINE_SLOTS],
    /// Overflow storage for budgets above [`INLINE_SLOTS`].
    spill: Vec<SampleSlot>,
}

impl VarSamples {
    fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    fn push(&mut self, s: SampleSlot) {
        if (self.inline_len as usize) < INLINE_SLOTS {
            self.inline[self.inline_len as usize] = s;
            self.inline_len += 1;
        } else {
            self.spill.push(s);
        }
    }

    fn set(&mut self, i: usize, s: SampleSlot) {
        if i < INLINE_SLOTS {
            self.inline[i] = s;
        } else {
            self.spill[i - INLINE_SLOTS] = s;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &SampleSlot> {
        self.inline[..self.inline_len as usize]
            .iter()
            .chain(self.spill.iter())
    }

    fn spill_bytes(&self) -> usize {
        self.spill.capacity() * std::mem::size_of::<SampleSlot>()
    }
}

/// One open-addressing bucket: the variable id and its retained samples,
/// packed together so a probe that finds its key has already pulled the
/// samples into cache (admissions are cold by construction — a split
/// key/value layout pays two misses where this pays one).
#[derive(Debug)]
struct TableEntry {
    key: u32,
    val: VarSamples,
}

/// Open-addressing table from variable id to [`VarSamples`].
///
/// Admitted variables are a small, random subset of the id space, so a
/// dense `Vec` indexed by raw id would cost memory (and, worse, cache
/// locality) proportional to the *largest id sampled* — on sparse id
/// spaces that one allocation dwarfs the entire analysis. The table keeps
/// the footprint at O(variables actually sampled) and one probe per
/// admission in the common case.
#[derive(Debug, Default)]
struct SampleTable {
    /// Buckets; `key == u32::MAX` marks an empty one (a valid id never
    /// uses it: trace var ids are dense small integers).
    entries: Vec<TableEntry>,
    len: usize,
}

impl SampleTable {
    const EMPTY: u32 = u32::MAX;

    fn bucket(&self, key: u32) -> usize {
        // Fibonacci hashing spreads consecutive ids across the table.
        let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & (self.entries.len() - 1)
    }

    fn fresh(cap: usize) -> Vec<TableEntry> {
        (0..cap)
            .map(|_| TableEntry {
                key: Self::EMPTY,
                val: VarSamples::default(),
            })
            .collect()
    }

    /// Insert-or-get, growing at 70% load.
    fn entry(&mut self, key: u32) -> &mut VarSamples {
        if self.entries.is_empty() {
            self.entries = Self::fresh(64);
        } else if self.len * 10 >= self.entries.len() * 7 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            if self.entries[i].key == key {
                return &mut self.entries[i].val;
            }
            if self.entries[i].key == Self::EMPTY {
                self.entries[i].key = key;
                self.len += 1;
                return &mut self.entries[i].val;
            }
            i = (i + 1) & (self.entries.len() - 1);
        }
    }

    fn grow(&mut self) {
        let cap = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, Self::fresh(cap));
        self.len = 0;
        for e in old {
            if e.key != Self::EMPTY {
                *self.entry(e.key) = e.val;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &VarSamples> {
        self.entries
            .iter()
            .filter(|e| e.key != Self::EMPTY)
            .map(|e| &e.val)
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<TableEntry>()
            + self.iter().map(VarSamples::spill_bytes).sum::<usize>()
    }
}

/// The O(1)-samples race detector.
///
/// Implements the shared [`Detector`] trait, so it is driven exactly like
/// the paper tools: [`Detector::on_op`] is its one driver, and
/// [`Detector::on_block`] and [`Detector::run`] feed it event by event.
pub struct Sampler {
    config: SamplerConfig,
    ft_config: FastTrackConfig,
    /// Exact thread, lock and volatile clocks: the handlers FastTrack runs.
    sync: SyncEngine,
    vars: SampleTable,
    warnings: Vec<Warning>,
    warned: Vec<bool>,
    stats: Stats,
    hits: RuleHits,
    pool: VcPool,
    /// Gap stream: drives admission thresholds and nothing else. Kept
    /// separate from [`Sampler::res_rng`] so the admitted set depends only
    /// on the seed and the access stream, never on how many reservoir
    /// draws sample retention consumed.
    gap_rng: Prng,
    /// Reservoir stream: drives sample-replacement decisions only.
    res_rng: Prng,
    /// Cached `1 / ln(1 - rate)` for geometric gap draws.
    inv_ln_q: f64,
    /// Absolute `stats.reads` count at which the next read is admitted.
    /// A threshold compare against a counter the detector maintains anyway
    /// keeps the skip path store-free — cheaper than decrementing a gap.
    next_read_admit: u64,
    /// Absolute `stats.writes` count at which the next write is admitted.
    next_write_admit: u64,
    admitted: u64,
    admitted_reads: u64,
    admitted_writes: u64,
    evicted: u64,
}

impl Default for Sampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Sampler {
    /// Creates a sampler with [`SamplerConfig::default`].
    pub fn new() -> Self {
        Self::with_config(SamplerConfig::default())
    }

    /// Creates a sampler with an explicit configuration.
    pub fn with_config(config: SamplerConfig) -> Self {
        let gap_rng = Prng::seed_from_u64(config.seed);
        let res_rng = Prng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let inv_ln_q = if config.rate > 0.0 && config.rate < 1.0 {
            1.0 / (1.0 - config.rate).ln()
        } else {
            0.0
        };
        let mut sampler = Sampler {
            config,
            ft_config: FastTrackConfig::default(),
            sync: SyncEngine::new(),
            vars: SampleTable::default(),
            warnings: Vec::new(),
            warned: Vec::new(),
            stats: Stats::default(),
            hits: RuleHits::default(),
            pool: VcPool::new(64),
            gap_rng,
            res_rng,
            inv_ln_q,
            next_read_admit: 0,
            next_write_admit: 0,
            admitted: 0,
            admitted_reads: 0,
            admitted_writes: 0,
            evicted: 0,
        };
        // Two independent geometric admission streams (one per access kind)
        // have the same per-access admission probability as a single stream,
        // by memorylessness — and let each stream compare against a counter
        // that is already being maintained.
        sampler.next_read_admit = sampler.draw_gap().saturating_add(1);
        sampler.next_write_admit = sampler.draw_gap().saturating_add(1);
        sampler
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Accesses admitted for sampling so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Samples currently retained across all variables.
    pub fn samples_live(&self) -> usize {
        self.vars.iter().map(|v| v.len()).sum()
    }

    /// Samples evicted by reservoir replacement so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Worst-case shadow bytes per variable under the configured budget —
    /// a constant, independent of thread count.
    pub fn per_var_bytes(&self) -> usize {
        std::mem::size_of::<VarSamples>()
            + self.config.budget.saturating_sub(INLINE_SLOTS) * std::mem::size_of::<SampleSlot>()
    }

    /// Draws the number of accesses to skip before the next admission:
    /// geometric with success probability `rate` (`inv_ln_q` caches
    /// `1 / ln(1 - rate)` so each draw costs a single `ln`).
    fn draw_gap(&mut self) -> u64 {
        if self.config.rate >= 1.0 {
            return 0;
        }
        if self.config.rate <= 0.0 {
            return u64::MAX;
        }
        let u = self.gap_rng.next_f64();
        // Inverse-CDF of the geometric distribution; `1 - u` avoids ln(0).
        let g = ((1.0 - u).ln() * self.inv_ln_q).floor();
        if g.is_finite() && g >= 0.0 {
            g as u64
        } else {
            0
        }
    }

    /// Redraws the admission threshold for `kind`'s stream from the
    /// current committed counter. Callers must redraw immediately on a
    /// threshold hit — that re-establishes the `threshold > counter`
    /// invariant [`Detector::on_op`] relies on (equality can only arise on
    /// the stream the current access advanced).
    fn redraw(&mut self, kind: AccessKind) {
        let jump = self.draw_gap().saturating_add(1);
        match kind {
            AccessKind::Read => {
                self.next_read_admit = self.stats.reads.saturating_add(jump);
            }
            AccessKind::Write => {
                self.next_write_admit = self.stats.writes.saturating_add(jump);
            }
        }
    }

    /// The admission slow path: check the current access against the
    /// variable's retained samples via the real Figure 5 rules, then retain
    /// it (reservoir replacement once the budget is full). Allocation-free
    /// on the raceless path: the scratch states live on the stack and the
    /// thread clock is borrowed, not cloned.
    #[inline(never)]
    fn admit(&mut self, index: usize, t: Tid, x: VarId, kind: AccessKind) {
        self.admitted += 1;
        match kind {
            AccessKind::Read => self.admitted_reads += 1,
            AccessKind::Write => self.admitted_writes += 1,
        }
        let budget = self.config.budget;
        if budget == 0 {
            return;
        }
        let epoch = self.sync.thread(t, &mut self.stats).epoch;
        let ts_vc = self.sync.clock(t);

        // Replay the access against each retained conflicting sample through
        // `fasttrack::rules`, on a scratch single-sample VarState. The
        // scratch state never inflates to READ_SHARED (its read history is a
        // single epoch), so these calls allocate nothing. Races found are
        // staged locally because `report` needs `&mut self`; the buffer only
        // allocates when a race is actually present.
        let mut races: Vec<(WarningKind, Epoch, AccessKind, &'static str)> = Vec::new();
        let var = self.vars.entry(x.as_u32());
        for slot in var.iter() {
            match kind {
                AccessKind::Read => {
                    if !slot.write {
                        continue; // read-read pairs never conflict
                    }
                    let mut vs = VarState::default();
                    vs.set_w(slot.epoch);
                    let out = rules::read_var(
                        &mut vs,
                        t,
                        epoch,
                        ts_vc,
                        &self.ft_config,
                        &mut self.pool,
                        &mut self.stats,
                    );
                    self.hits.hit_read(out.rule);
                    if let Some(w) = out.racy_write {
                        races.push((
                            WarningKind::WriteRead,
                            w,
                            AccessKind::Write,
                            out.rule.name(),
                        ));
                    }
                }
                AccessKind::Write => {
                    let mut vs = VarState::default();
                    if slot.write {
                        vs.set_w(slot.epoch);
                    } else {
                        vs.set_r(slot.epoch);
                    }
                    let out = rules::write_var(
                        &mut vs,
                        epoch,
                        ts_vc,
                        &self.ft_config,
                        &mut self.pool,
                        &mut self.stats,
                    );
                    self.hits.hit_write(out.rule);
                    if let Some(w) = out.racy_write {
                        races.push((
                            WarningKind::WriteWrite,
                            w,
                            AccessKind::Write,
                            out.rule.name(),
                        ));
                    }
                    if let Some(r) = out.racy_read {
                        races.push((WarningKind::ReadWrite, r, AccessKind::Read, out.rule.name()));
                    }
                }
            }
        }
        // Retain the access: push while under budget, then reservoir-replace
        // so every admitted access has equal probability of survival.
        var.seen += 1;
        let sample = SampleSlot {
            epoch,
            write: kind == AccessKind::Write,
        };
        if var.len() < budget {
            var.push(sample);
        } else {
            let j = self.res_rng.gen_range(0..var.seen as usize);
            if j < budget {
                var.set(j, sample);
                self.evicted += 1;
            }
        }

        if !races.is_empty() {
            let vc = self.sync.clock(t).clone();
            for (warn_kind, conflict, prior_kind, rule) in races {
                self.report(
                    index, x, warn_kind, conflict, prior_kind, t, kind, epoch, &vc, rule,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        index: usize,
        x: VarId,
        kind: WarningKind,
        conflict: Epoch,
        prior_kind: AccessKind,
        t: Tid,
        current_kind: AccessKind,
        current_epoch: Epoch,
        vc: &VectorClock,
        rule: &'static str,
    ) {
        let idx = x.as_usize();
        if idx >= self.warned.len() {
            self.warned.resize(idx + 1, false);
        }
        if self.warned[idx] && !self.config.report_all {
            return;
        }
        self.warned[idx] = true;
        let (prior_write, prior_reads) = match prior_kind {
            AccessKind::Write => (conflict, ReadHistory::None),
            AccessKind::Read => (Epoch::MIN, ReadHistory::Epoch(conflict)),
        };
        self.warnings.push(Warning {
            var: x,
            kind,
            prior: AccessSummary {
                tid: conflict.tid(),
                kind: prior_kind,
                event_index: None,
            },
            current: AccessSummary {
                tid: t,
                kind: current_kind,
                event_index: Some(index),
            },
            provenance: Some(Provenance {
                rule,
                conflict,
                current_epoch,
                thread_clock: vc.iter_nonzero().collect(),
                prior_write,
                prior_reads,
                recent: Vec::new(),
            }),
        });
    }
}

impl Detector for Sampler {
    fn name(&self) -> &'static str {
        "SAMPLER"
    }

    #[inline]
    // The whole point of the tier is that this costs what EMPTY's dispatch
    // costs: a counter bump and one predictable threshold compare per
    // non-admitted access, in a body small enough that the call itself
    // dominates — exactly like EMPTY's. Admission and synchronization live
    // behind `#[inline(never)]` outlined paths to keep it that way.
    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.stats.ops += 1;
        match *op {
            Op::Read(t, x) => {
                self.stats.reads += 1;
                if self.stats.reads == self.next_read_admit {
                    self.redraw(AccessKind::Read);
                    self.admit(index, t, x, AccessKind::Read);
                }
            }
            Op::Write(t, x) => {
                self.stats.writes += 1;
                if self.stats.writes == self.next_write_admit {
                    self.redraw(AccessKind::Write);
                    self.admit(index, t, x, AccessKind::Write);
                }
            }
            _ => self.sync.apply_op(op, &mut self.stats),
        }
        Disposition::Forward
    }

    fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn shadow_bytes(&self) -> usize {
        self.vars.heap_bytes() + self.sync.shadow_bytes()
    }

    fn rule_breakdown(&self) -> Vec<fasttrack::RuleCount> {
        self.hits
            .breakdown(self.admitted_reads, self.admitted_writes)
    }

    fn metrics(&self) -> Snapshot {
        let mut reg = base_registry(self);
        reg.inc_counter("sampler.admitted", self.admitted);
        reg.inc_counter("sampler.evicted", self.evicted);
        reg.inc_counter("sampler.races_caught", self.warnings.len() as u64);
        reg.set_gauge("sampler.samples_live", self.samples_live() as f64);
        reg.set_gauge("sampler.budget", self.config.budget as f64);
        reg.set_gauge("sampler.rate", self.config.rate);
        reg.set_gauge("sampler.per_var_bytes", self.per_var_bytes() as f64);
        reg.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::{LockId, Trace, TraceBuilder};

    const T0: Tid = Tid::new(0);
    const T1: Tid = Tid::new(1);
    const X: VarId = VarId::new(0);

    fn ww_race_trace() -> Trace {
        let mut b = TraceBuilder::with_threads(2);
        b.write(T0, X).unwrap();
        b.write(T1, X).unwrap();
        b.finish()
    }

    #[test]
    fn rate_one_catches_the_race() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&ww_race_trace());
        assert_eq!(s.warnings().len(), 1);
        assert_eq!(s.warnings()[0].kind, WarningKind::WriteWrite);
        assert_eq!(s.warnings()[0].var, X);
        assert!(s.warnings()[0].provenance.is_some());
    }

    #[test]
    fn budget_zero_reports_nothing_and_survives() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0).with_budget(0));
        s.run(&ww_race_trace());
        assert!(s.warnings().is_empty());
        assert_eq!(s.samples_live(), 0);
        assert!(s.admitted() > 0);
    }

    #[test]
    fn rate_zero_admits_nothing() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(0.0));
        s.run(&ww_race_trace());
        assert_eq!(s.admitted(), 0);
        assert!(s.warnings().is_empty());
    }

    #[test]
    fn synchronized_writes_do_not_warn() {
        let m = LockId::new(0);
        let mut b = TraceBuilder::with_threads(2);
        b.push(Op::Acquire(T0, m)).unwrap();
        b.write(T0, X).unwrap();
        b.push(Op::Release(T0, m)).unwrap();
        b.push(Op::Acquire(T1, m)).unwrap();
        b.write(T1, X).unwrap();
        b.push(Op::Release(T1, m)).unwrap();
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&trace);
        assert!(s.warnings().is_empty(), "{:?}", s.warnings());
    }

    #[test]
    fn fork_join_ordering_is_respected() {
        let mut b = TraceBuilder::new();
        b.write(T0, X).unwrap();
        b.push(Op::Fork(T0, T1)).unwrap();
        b.write(T1, X).unwrap();
        b.push(Op::Join(T0, T1)).unwrap();
        b.write(T0, X).unwrap();
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&trace);
        assert!(s.warnings().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = ww_race_trace();
        let cfg = SamplerConfig::default().with_rate(0.5).with_seed(99);
        let mut a = Sampler::with_config(cfg.clone());
        let mut b = Sampler::with_config(cfg);
        a.run(&trace);
        b.run(&trace);
        assert_eq!(a.warnings(), b.warnings());
        assert_eq!(a.admitted(), b.admitted());
    }

    #[test]
    fn per_var_bytes_is_thread_count_independent() {
        let cfg = SamplerConfig::default().with_budget(4);
        let few = Sampler::with_config(cfg.clone());
        let bytes = few.per_var_bytes();
        // Feed a trace with many threads hammering one variable; the per-var
        // constant must not move (unlike a vector-clock read history).
        let n = 32;
        let mut b = TraceBuilder::with_threads(n);
        for t in 0..n {
            b.read(Tid::new(t), X).unwrap();
        }
        let trace = b.finish();
        let mut s = Sampler::with_config(cfg.with_rate(1.0));
        s.run(&trace);
        assert_eq!(s.per_var_bytes(), bytes);
        assert!(s.samples_live() <= 4);
    }

    #[test]
    fn metrics_expose_sampler_counters() {
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&ww_race_trace());
        let snap = s.metrics();
        let json = snap.to_json();
        assert!(json.contains("sampler.admitted"));
        assert!(json.contains("sampler.samples_live"));
        assert!(json.contains("sampler.races_caught"));
    }

    #[test]
    fn lazy_locks_flush_before_foreign_joins() {
        // T1's acquire of m must observe T0's release-time clock, not T0's
        // later growth: T0 writes x inside
        // the critical section and again after the release; T1's read of x
        // is ordered only with the first write.
        let m = LockId::new(0);
        let y = VarId::new(1);
        let mut b = TraceBuilder::with_threads(2);
        b.push(Op::Acquire(T0, m)).unwrap();
        b.write(T0, X).unwrap();
        b.push(Op::Release(T0, m)).unwrap();
        b.write(T0, y).unwrap(); // after release: NOT ordered with T1
        b.push(Op::Acquire(T1, m)).unwrap();
        b.read(T1, X).unwrap(); // ordered via m: no race
        b.read(T1, y).unwrap(); // races with T0's post-release write
        let trace = b.finish();
        let mut s = Sampler::with_config(SamplerConfig::default().with_rate(1.0));
        s.run(&trace);
        assert_eq!(s.warnings().len(), 1, "{:?}", s.warnings());
        assert_eq!(s.warnings()[0].var, y);
        assert_eq!(s.warnings()[0].kind, WarningKind::WriteRead);
    }
}
