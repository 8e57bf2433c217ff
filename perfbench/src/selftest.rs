//! Self-tests of the benchmark: it emits what `BENCHMARK.json` names, its
//! correctness checks can fail, and its counts repeat for one seed.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::time::Duration;

use ft_trace::json::{parse, JsonValue};

use crate::inputs::{setup, Size, Workload};
use crate::report::{run, run_with, Outcome};

const SEED: u64 = 7;

fn tiny(workload: Workload, traced: bool) -> Outcome {
    run(
        workload,
        SEED,
        Duration::from_millis(400),
        traced,
        Size::Tiny,
    )
}

/// `(name, unit)` of every metric in the `key` section of `BENCHMARK.json`.
fn named_metrics(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
    let mut out: Vec<(String, String)> = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    out.sort();
    out
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn tiny_runs_emit_every_named_metric() {
    let end_to_end = named_metrics("end_to_end");
    let per_layer = named_metrics("per_layer");
    for workload in Workload::ALL {
        for (traced, named) in [(false, &end_to_end), (true, &per_layer)] {
            let out = tiny(workload, traced);
            assert_eq!(&emitted(&out), named, "{} traced={traced}", workload.name());
            assert!(out.attempted > 0);
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn tiny_runs_fail_nothing() {
    for workload in Workload::ALL {
        let out = tiny(workload, false);
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.notes);
        for m in &out.metrics {
            assert!(m.value > 0.0, "{}: {} is 0", workload.name(), m.name);
        }
    }
}

#[test]
fn a_dropped_reference_warning_is_caught() {
    let mut inputs = setup(Workload::FtbSyncmix, SEED, Size::Tiny);
    let program = inputs
        .programs_mut()
        .find(|p| !p.reference.is_empty())
        .expect("the sync mix plants races");
    program.reference.pop();
    let out = run_with(
        Workload::FtbSyncmix,
        &inputs,
        0.0,
        SEED,
        Duration::from_millis(200),
        false,
    );
    assert!(out.failed > 0, "a tampered reference went unnoticed");
    assert!(out.to_json().contains("\"correct\":false"));
}

#[test]
fn count_metrics_repeat_for_one_seed() {
    const COUNTS: [&str; 7] = [
        "trace.read_block.calls",
        "core.fast_rule_share",
        "core.sync.fastpath_hits",
        "core.sync.slow_joins",
        "clock.vc_ops",
        "clock.vc_allocated",
        "sampler.admitted",
    ];
    let counts = |out: &Outcome| -> Vec<(String, f64)> {
        out.metrics
            .iter()
            .filter(|m| {
                COUNTS.contains(&m.name.as_str())
                    || m.name.starts_with("core.rule.")
                    || m.name == "detectors.djit.vc_ops"
                    || m.name == "shadow_bytes"
            })
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    for workload in [Workload::FtbCompute, Workload::FtbSyncmix] {
        for traced in [false, true] {
            let a = counts(&tiny(workload, traced));
            let b = counts(&tiny(workload, traced));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{} traced={traced}", workload.name());
        }
    }
}

/// The buffered online monitor is left out of the benchmark because its
/// drainer panics when a join names a thread whose lane was created after
/// the drainer last read the lane table; `report()` then never returns.
/// Thread 0's long run of writes keeps the drainer busy on one snapshot
/// while thread 1's lane is created and joined. This test passes once the
/// drainer is fixed:
///
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored online_drainer`
#[test]
#[ignore = "runtime::online's drainer panics on a lane created mid-drain"]
fn online_drainer_sees_a_lane_created_mid_drain() {
    use fasttrack::FastTrack;
    use ft_runtime::online::Monitor;
    use ft_trace::{Op, Tid, VarId};

    let (tx, rx) = std::sync::mpsc::channel();
    // Not joined: after the panic the thread waits in report() for good.
    std::thread::spawn(move || {
        let monitor = Monitor::buffered(FastTrack::new());
        for i in 0..200_000 {
            monitor.emit_raw(Op::Write(Tid::new(0), VarId::new(i % 1_000)));
        }
        monitor.emit_raw(Op::Fork(Tid::new(0), Tid::new(1)));
        monitor.emit_raw(Op::Write(Tid::new(1), VarId::new(5_000)));
        monitor.emit_raw(Op::Join(Tid::new(0), Tid::new(1)));
        let _ = tx.send(monitor.report().stats.ops);
    });
    let ops = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("report() did not return: the drainer is gone");
    assert_eq!(ops, 200_003);
}
