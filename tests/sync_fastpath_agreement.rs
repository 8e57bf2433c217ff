//! Property suite pinning the sync-path fast lane to the happens-before
//! oracle. The fast lane is pure bookkeeping — versioned lock clocks,
//! release-epoch acquire hits, the barrier epoch-rebuild, and the
//! sampler's lazy epoch-only sync summary must never change what a
//! detector reports. Every trace below is checked against
//! [`HbOracle`], which keeps the full vector clock at every access:
//!
//! * each FastTrack warning's `provenance.thread_clock` is the oracle's
//!   clock at the racy access, so every skipped join really was the
//!   identity;
//! * FastTrack's first warning on each variable sits at the oracle's
//!   first race on that variable, and its warned variables are exactly
//!   the oracle's race variables;
//! * at full admission the sampler's warnings carry the oracle's clock
//!   too, and its warned variables are a subset of the oracle's.
//!
//! The populations are roughly a thousand generated traces tuned to be
//! synchronization-dense (1-access critical sections, frequent barriers
//! and volatile hand-offs), the regime where every fast-lane branch is
//! exercised constantly, plus the five sync-heaviest Table 1 programs and
//! a fixed regression trace touching every synchronization operation kind.
//!
//! The suite also asserts the fast lane actually fires: a population this
//! sync-dense that reports a ~0% hit rate means the fast path was silently
//! disabled, which the oracle checks alone would never catch.

use std::collections::BTreeMap;

use fasttrack_suite::clock::Tid;
use fasttrack_suite::core::{Detector, FastTrack, Warning};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::{HbOracle, LockId, Op, OracleReport, Trace, TraceBuilder, VarId};
use fasttrack_suite::workloads::{build, Scale};
use ft_sampler::{Sampler, SamplerConfig};

/// Sync-dense generator shape: every access sits in its own critical
/// section, barriers and volatiles are orders of magnitude more frequent
/// than the paper's aggregate mix.
fn sync_dense(threads: u32, seed_races: f64) -> GenConfig {
    GenConfig {
        threads,
        vars: 24,
        locks: 6,
        ops: 700,
        accesses_per_cs: 1,
        p_barrier: 0.015,
        p_volatile: 0.04,
        ..GenConfig::default().with_races(seed_races)
    }
}

/// The oracle's clock (nonzero entries, ascending by thread) at every
/// access that is the later half of a race — the only accesses a precise
/// or sound detector can warn at.
fn racy_access_clocks(report: &OracleReport) -> BTreeMap<usize, Vec<(Tid, u32)>> {
    report
        .races
        .iter()
        .map(|r| {
            (
                r.second.event_index,
                r.second.clock.iter_nonzero().collect(),
            )
        })
        .collect()
}

fn warned_vars(warnings: &[Warning]) -> Vec<VarId> {
    let mut vars: Vec<VarId> = warnings.iter().map(|w| w.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Every warning's `C_t` at detection must be the oracle's clock at the
/// same access.
fn assert_clocks_match_oracle(
    warnings: &[Warning],
    clocks: &BTreeMap<usize, Vec<(Tid, u32)>>,
    label: &str,
) {
    for w in warnings {
        let index = w
            .current
            .event_index
            .unwrap_or_else(|| panic!("{label}: warning without an event index: {w}"));
        let p = w
            .provenance
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: warning without provenance: {w}"));
        let oracle = clocks.get(&index).unwrap_or_else(|| {
            panic!("{label}: warning at event {index}, which the oracle finds race-free")
        });
        assert_eq!(
            &p.thread_clock, oracle,
            "{label}: C_t at event {index} differs from the oracle's clock"
        );
    }
}

/// FastTrack against the oracle: clocks at every warning, the first
/// warning per variable, and the warned-variable set. Returns the
/// detector for its fast-lane counters.
fn assert_fasttrack_matches_oracle(trace: &Trace, report: &OracleReport, label: &str) -> FastTrack {
    let mut ft = FastTrack::new();
    ft.run(trace);
    assert_clocks_match_oracle(ft.warnings(), &racy_access_clocks(report), label);
    let mut first_warning: BTreeMap<VarId, usize> = BTreeMap::new();
    for w in ft.warnings() {
        first_warning
            .entry(w.var)
            .or_insert(w.current.event_index.expect("checked above"));
    }
    let first_race: BTreeMap<VarId, usize> = report
        .first_race_per_var()
        .into_iter()
        .map(|(x, r)| (x, r.second.event_index))
        .collect();
    assert_eq!(
        first_warning, first_race,
        "{label}: first warning per variable is not at the oracle's first race"
    );
    assert_eq!(
        warned_vars(ft.warnings()),
        report.race_vars(),
        "{label}: warned variables differ from the oracle's race variables"
    );
    ft
}

/// The sampler at full admission against the oracle: clocks at every
/// warning, and warned variables a subset of the oracle's.
fn assert_sampler_within_oracle(trace: &Trace, report: &OracleReport, label: &str) {
    let mut sampler = Sampler::with_config(SamplerConfig::default().with_rate(1.0).with_seed(11));
    sampler.run(trace);
    assert_clocks_match_oracle(sampler.warnings(), &racy_access_clocks(report), label);
    let race_vars = report.race_vars();
    for x in warned_vars(sampler.warnings()) {
        assert!(
            race_vars.binary_search(&x).is_ok(),
            "{label}: sampler warned on {x}, which the oracle finds race-free"
        );
    }
}

/// ~800 sync-dense traces (racy, race-free, chaotic and wide shapes) plus
/// the five sync-heaviest Table 1 programs pinning FastTrack to the
/// oracle, plus the population-level hit-rate floor.
#[test]
fn fasttrack_matches_oracle_on_sync_dense_population() {
    let mut hits = 0u64;
    let mut slow = 0u64;
    let mut check = |trace: &Trace, label: String| {
        let report = HbOracle::analyze(trace);
        let ft = assert_fasttrack_matches_oracle(trace, &report, &label);
        hits += ft.stats().sync_fastpath_hits;
        slow += ft.stats().sync_slow_joins;
        report
    };
    for seed in 0..200u64 {
        check(
            &gen::generate(&sync_dense(4, 0.1), seed),
            format!("racy seed {seed}"),
        );
        check(
            &gen::generate(&sync_dense(6, 0.0), seed),
            format!("clean seed {seed}"),
        );
        check(
            &gen::chaotic(6, 16, 4, 600, 10_000 + seed),
            format!("chaotic seed {seed}"),
        );
        // Wide shape: 16 threads makes each skipped join 4x the work of
        // the 4-thread shapes, and barriers cover more lanes.
        check(
            &gen::generate(&sync_dense(16, 0.05), 20_000 + seed),
            format!("wide seed {seed}"),
        );
    }
    // The Table 1 programs whose sync density is highest; the sampler is
    // held to the oracle on them too.
    for name in ["tsp", "elevator", "philo", "hedc", "jbb"] {
        let trace = build(name, Scale { ops: 5_000 }, 42);
        let report = check(&trace, name.to_string());
        assert_sampler_within_oracle(&trace, &report, name);
    }
    let rate = hits as f64 / (hits + slow).max(1) as f64;
    assert!(
        rate > 0.10,
        "sync fast lane barely fires on a sync-dense population: \
         {hits} hits / {slow} slow joins ({:.1}%)",
        rate * 100.0
    );
}

/// ~200 sync-dense traces pinning the sampler's lazy epoch-only sync
/// summary to the oracle at full admission.
#[test]
fn sampler_matches_oracle_on_sync_dense_population() {
    for seed in 0..100u64 {
        for (shape, trace) in [
            ("dense", gen::generate(&sync_dense(5, 0.1), 70_000 + seed)),
            ("chaos", gen::chaotic(5, 14, 4, 650, 80_000 + seed)),
        ] {
            let report = HbOracle::analyze(&trace);
            assert_sampler_within_oracle(&trace, &report, &format!("{shape} seed {seed}"));
        }
    }
}

/// Barrier-heavy shape aimed at the epoch-rebuild: long runs of identical
/// barrier episodes with no intervening lock traffic, which the rebuild
/// must service with O(|T|) lane writes while matching the oracle.
#[test]
fn barrier_heavy_population_agrees_and_rebuild_fires() {
    let mut rebuild_capable_hits = 0u64;
    for seed in 0..100u64 {
        let cfg = GenConfig {
            threads: 8,
            vars: 16,
            locks: 2,
            ops: 800,
            accesses_per_cs: 1,
            p_barrier: 0.08,
            p_volatile: 0.0,
            w_lock_protected: 0.05,
            w_read_shared: 0.6,
            w_thread_local: 0.35,
            ..GenConfig::default()
        };
        let trace = gen::generate(&cfg, 90_000 + seed);
        let label = format!("barrier seed {seed}");
        let ft = assert_fasttrack_matches_oracle(&trace, &HbOracle::analyze(&trace), &label);
        rebuild_capable_hits += ft.stats().sync_fastpath_hits;
    }
    assert!(
        rebuild_capable_hits > 0,
        "no fast-path hits across the barrier-heavy population"
    );
}

/// A fixed regression trace that exercises every synchronization operation
/// kind — fork, join, acquire, release, wait, notify, volatile read/write,
/// barrier release, atomic markers — interleaved with accesses, including
/// one deliberate race. A change to any sync handler that breaks agreement
/// with the oracle fails here with a stable, readable trace rather than a
/// generated seed.
#[test]
fn regression_trace_with_every_sync_op_kind() {
    let (t0, t1, t2) = (Tid::new(0), Tid::new(1), Tid::new(2));
    let m = LockId::new(0);
    let (x, y, z, v) = (VarId::new(0), VarId::new(1), VarId::new(2), VarId::new(3));

    let mut b = TraceBuilder::new();
    b.write(t0, x).unwrap();
    b.fork(t0, t1).unwrap();
    b.fork(t0, t2).unwrap();

    // Lock-protected handoff of y, with a wait (release+acquire) inside the
    // critical section and a happens-before-free notify.
    b.acquire(t0, m).unwrap();
    b.write(t0, y).unwrap();
    b.push(Op::Notify(t0, m)).unwrap();
    b.release(t0, m).unwrap();
    b.acquire(t1, m).unwrap();
    b.push(Op::Wait(t1, m)).unwrap();
    b.read(t1, y).unwrap();
    b.release(t1, m).unwrap();

    // Volatile handoff of z from t1 to t2.
    b.write(t1, z).unwrap();
    b.volatile_write(t1, v).unwrap();
    b.volatile_read(t2, v).unwrap();
    b.read(t2, z).unwrap();

    // Atomic markers are no-ops for race detection but must flow through.
    b.push(Op::AtomicBegin(t2)).unwrap();
    b.write(t2, z).unwrap();
    b.push(Op::AtomicEnd(t2)).unwrap();

    // Barrier: everyone reads x race-free afterwards.
    b.barrier_release(vec![t0, t1, t2]).unwrap();
    b.read(t0, x).unwrap();
    b.read(t1, x).unwrap();
    b.read(t2, x).unwrap();

    // One deliberate race: t1 writes x while t2's read is concurrent.
    b.write(t1, x).unwrap();
    b.read(t2, x).unwrap();

    // Join everything back and touch x once more, race-free.
    b.join(t0, t1).unwrap();
    b.join(t0, t2).unwrap();
    b.write(t0, x).unwrap();
    let trace = b.finish();

    let report = HbOracle::analyze(&trace);
    let ft = assert_fasttrack_matches_oracle(&trace, &report, "every-sync-op regression trace");
    assert_sampler_within_oracle(&trace, &report, "every-sync-op regression trace");
    // One warning: t1's write to x is concurrent with the post-barrier
    // reads (read-write race); later races on x are suppressed by the
    // default once-per-variable reporting.
    assert_eq!(ft.warnings().len(), 1, "warnings: {:?}", ft.warnings());
    assert_eq!(ft.warnings()[0].var, x);
    assert_eq!(report.race_vars(), vec![x]);
}
