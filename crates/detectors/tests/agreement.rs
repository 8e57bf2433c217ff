//! Cross-detector precision properties.
//!
//! §5.1: "DJIT⁺ and BASICVC reported exactly the same race conditions as
//! FASTTRACK. That is, the three checkers all yield identical precision."
//! We verify this per variable against the happens-before oracle, on both
//! structured and chaotic traces, and also check:
//!
//! * Goldilocks (precise variant) matches the oracle too;
//! * MultiRace never reports a false alarm (warned ⊆ oracle) but may miss;
//! * Eraser never *misses silently in SharedModified* — no constraint is
//!   asserted on its precision, only that it runs and its warnings are
//!   lockset warnings.

use fasttrack::{Detector, FastTrack, WarningKind};
use ft_detectors::{BasicVc, Djit, Eraser, Goldilocks, MultiRace};
use ft_trace::gen::{self, GenConfig};
use ft_trace::{HbOracle, Prng, Trace, VarId};

fn warned_vars<D: Detector>(d: &D) -> Vec<VarId> {
    let mut vars: Vec<VarId> = d.warnings().iter().map(|w| w.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

fn check_all(trace: &Trace, label: &str) {
    let oracle_vars = HbOracle::analyze(trace).race_vars();

    let mut ft = FastTrack::new();
    ft.run(trace);
    let mut djit = Djit::new();
    djit.run(trace);
    let mut basic = BasicVc::new();
    basic.run(trace);
    let mut gold = Goldilocks::new();
    gold.run(trace);
    let mut multi = MultiRace::new();
    multi.run(trace);
    let mut eraser = Eraser::new();
    eraser.run(trace);

    let ft_vars = warned_vars(&ft);
    assert_eq!(ft_vars, oracle_vars, "{label}: FASTTRACK vs oracle");
    assert_eq!(warned_vars(&djit), oracle_vars, "{label}: DJIT+ vs oracle");
    assert_eq!(
        warned_vars(&basic),
        oracle_vars,
        "{label}: BASICVC vs oracle"
    );
    assert_eq!(
        warned_vars(&gold),
        oracle_vars,
        "{label}: GOLDILOCKS vs oracle"
    );

    // MultiRace: sound warnings (every warned var is truly racy).
    for v in warned_vars(&multi) {
        assert!(
            oracle_vars.contains(&v),
            "{label}: MULTIRACE false alarm on {v}"
        );
    }
    for w in multi.warnings() {
        assert!(w.kind.is_happens_before(), "{label}: MULTIRACE kind");
    }

    // Eraser warnings are lockset reports.
    for w in eraser.warnings() {
        assert_eq!(w.kind, WarningKind::LockSetEmpty, "{label}: ERASER kind");
    }
}

#[test]
fn agreement_on_chaotic_traces() {
    let mut rng = Prng::seed_from_u64(0xa1);
    for _ in 0..48 {
        let seed = rng.gen_range(0u64..100_000);
        let threads = rng.gen_range(2u32..7);
        let vars = rng.gen_range(1u32..8);
        let locks = rng.gen_range(1u32..5);
        let ops = rng.gen_range(20usize..350);
        let trace = gen::chaotic(threads, vars, locks, ops, seed);
        check_all(&trace, "chaotic");
    }
}

#[test]
fn agreement_on_structured_traces() {
    let mut rng = Prng::seed_from_u64(0xa2);
    for _ in 0..48 {
        let seed = rng.gen_range(0u64..10_000);
        let w_racy = rng.gen_range(0.0f64..0.4);
        let cfg = GenConfig {
            ops: 500,
            p_barrier: 0.002,
            p_volatile: 0.005,
            ..GenConfig::default().with_races(w_racy)
        };
        let trace = gen::generate(&cfg, seed);
        check_all(&trace, "structured");
    }
}

#[test]
fn soak_agreement() {
    for seed in 0..150u64 {
        let trace = gen::chaotic(5, 4, 3, 200, seed);
        check_all(&trace, "soak");
    }
}

/// The precise tools produce zero warnings across a batch of race-free
/// workloads with heavy synchronization variety.
#[test]
fn no_precise_tool_false_alarms_across_seeds() {
    for seed in 0..20u64 {
        let cfg = GenConfig {
            ops: 1_000,
            p_barrier: 0.01,
            p_volatile: 0.01,
            ..GenConfig::race_free()
        };
        let trace = gen::generate(&cfg, seed);
        check_all(&trace, "race-free batch");
    }
}
