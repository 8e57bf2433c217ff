//! Soundness properties for the ft-sampler O(1)-samples tier, pinned over
//! a large population of generated traces (~1000 seeds):
//!
//! 1. **Subset soundness** — every variable the sampler warns about is a
//!    variable full FastTrack warns about on the same trace. The sampler
//!    may *miss* races (it only sees admitted accesses) but can never
//!    fabricate one: its vector clocks are exact because every sync op is
//!    processed in full, so a concurrent sampled pair is a real race.
//! 2. **Provenance agreement** — sampler warnings carry epoch/clock
//!    provenance obeying the same structural invariants the FastTrack
//!    engines are held to (`C_t(t) == E(t)` at detection, non-sentinel
//!    conflict epoch), and the flagged variable matches a FastTrack
//!    warning's variable.
//! 3. **Budget 0 is inert** — zero samples kept means zero warnings and no
//!    panic, while sync bookkeeping still runs.
//! 4. **Determinism** — a fixed (seed, budget, rate) yields identical
//!    warnings and admission counts across repeated runs, and whether the
//!    trace arrives whole (`Detector::run`) or in `EventBlock` chunks
//!    (`Detector::on_block`, the `.ftb` and serve path).

use fasttrack_suite::core::{Detector, FastTrack};
use fasttrack_suite::sampler::{Sampler, SamplerConfig};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::{EventBlock, Trace, VarId};
use fasttrack_suite::workloads::{build, Scale};

fn fasttrack_race_vars(trace: &Trace) -> Vec<VarId> {
    let mut ft = FastTrack::new();
    ft.run(trace);
    let mut vars: Vec<VarId> = ft.warnings().iter().map(|w| w.var).collect();
    vars.sort();
    vars.dedup();
    vars
}

/// Rate 1.0 admits every access so the subset property is stressed with
/// the sampler actually catching races, not vacuously warning nothing.
fn eager(seed: u64, budget: usize) -> SamplerConfig {
    SamplerConfig::default()
        .with_budget(budget)
        .with_rate(1.0)
        .with_seed(seed)
}

/// Returns how many warnings the sampler reported.
fn assert_subset_with_provenance(trace: &Trace, config: SamplerConfig, label: &str) -> usize {
    let known = fasttrack_race_vars(trace);
    let mut sampler = Sampler::with_config(config);
    sampler.run(trace);
    for w in sampler.warnings() {
        assert!(
            known.binary_search(&w.var).is_ok(),
            "{label}: sampler fabricated a race on {} that FastTrack does not report",
            w.var
        );
        let p = w
            .provenance
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: sampler warning without provenance: {w}"));
        assert!(
            !p.conflict.is_initial(),
            "{label}: conflict epoch is the initial sentinel: {p}"
        );
        assert_eq!(
            p.current_epoch.tid(),
            w.current.tid,
            "{label}: provenance epoch thread != reporting thread"
        );
        let own = p
            .thread_clock
            .iter()
            .find(|(t, _)| *t == w.current.tid)
            .unwrap_or_else(|| panic!("{label}: C_t missing the accessing thread"));
        assert_eq!(
            own.1,
            p.current_epoch.clock(),
            "{label}: C_t(t) != E(t) at detection"
        );
    }
    sampler.warnings().len()
}

/// 600 racy + 200 chaotic + 200 race-free generated traces: no sampler
/// warning may name a variable outside FastTrack's racy-variable set, at
/// several budgets. The Table 1 `tsp` program (a deliberate benign race)
/// must also be caught at full admission with budgets 4 and 16.
#[test]
fn sampler_warnings_are_a_subset_of_fasttrack() {
    let racy = GenConfig {
        ops: 400,
        ..GenConfig::default().with_races(0.08)
    };
    for seed in 0..600u64 {
        let trace = gen::generate(&racy, seed);
        let budget = [1, 4, 16][(seed % 3) as usize];
        assert_subset_with_provenance(&trace, eager(seed, budget), &format!("racy seed {seed}"));
    }
    for seed in 0..200u64 {
        let trace = gen::chaotic(6, 24, 4, 400, seed);
        assert_subset_with_provenance(&trace, eager(seed, 4), &format!("chaotic seed {seed}"));
    }
    let tsp = build("tsp", Scale { ops: 20_000 }, 42);
    for budget in [4, 16] {
        let caught = assert_subset_with_provenance(&tsp, eager(42, budget), "tsp");
        assert!(caught > 0, "tsp: zero recall at rate 1.0, budget {budget}");
    }
    let clean = GenConfig {
        ops: 400,
        ..GenConfig::race_free()
    };
    for seed in 0..200u64 {
        let trace = gen::generate(&clean, seed);
        let mut sampler = Sampler::with_config(eager(seed, 4));
        sampler.run(&trace);
        assert!(
            sampler.warnings().is_empty(),
            "race-free seed {seed}: sampler warned on a race-free trace: {:?}",
            sampler.warnings()
        );
    }
}

/// Budget 0 keeps no samples: the sampler must stay silent (and not
/// panic) while still counting every event it replays.
#[test]
fn budget_zero_reports_nothing_and_does_not_panic() {
    let cfg = GenConfig {
        ops: 400,
        ..GenConfig::default().with_races(0.1)
    };
    for seed in 0..100u64 {
        let trace = gen::generate(&cfg, seed);
        let mut sampler = Sampler::with_config(eager(seed, 0));
        sampler.run(&trace);
        assert!(
            sampler.warnings().is_empty(),
            "seed {seed}: budget 0 produced warnings"
        );
        assert_eq!(
            sampler.stats().ops,
            trace.len() as u64,
            "seed {seed}: budget 0 dropped events"
        );
        assert_eq!(
            sampler.samples_live(),
            0,
            "seed {seed}: budget 0 kept samples"
        );
    }
}

/// A fixed (seed, budget, rate) is fully deterministic: repeated runs
/// agree, and a run fed in 64-event blocks agrees with a whole-trace run —
/// warnings, admissions, and eviction counts alike.
#[test]
fn fixed_seed_is_deterministic_across_runs_and_drivers() {
    let cfg = GenConfig {
        ops: 400,
        ..GenConfig::default().with_races(0.08)
    };
    for seed in 0..100u64 {
        let trace = gen::generate(&cfg, seed);
        // A partial admission rate so the RNG streams are actually consulted.
        let config = SamplerConfig::default()
            .with_budget(2)
            .with_rate(0.05)
            .with_seed(seed ^ 0xdead_beef);

        let mut a = Sampler::with_config(config.clone());
        a.run(&trace);
        let mut b = Sampler::with_config(config.clone());
        b.run(&trace);
        assert_eq!(
            a.warnings(),
            b.warnings(),
            "seed {seed}: run nondeterminism"
        );
        assert_eq!(
            a.admitted(),
            b.admitted(),
            "seed {seed}: admission nondeterminism"
        );
        assert_eq!(
            a.evicted(),
            b.evicted(),
            "seed {seed}: eviction nondeterminism"
        );

        let mut c = Sampler::with_config(config);
        let mut block = EventBlock::with_capacity(64);
        for (i, chunk) in trace.events().chunks(64).enumerate() {
            block.refill_from_ops(chunk);
            c.on_block(i * 64, &block);
        }
        assert_eq!(
            a.warnings(),
            c.warnings(),
            "seed {seed}: whole-trace and block drivers diverge on warnings"
        );
        assert_eq!(
            a.admitted(),
            c.admitted(),
            "seed {seed}: whole-trace and block drivers diverge on admissions"
        );
    }
}
