//! End-to-end checks of the ft-obs observability wiring: detector metrics
//! snapshots, pipeline per-stage instrumentation, online-monitor overhead
//! reporting, and the JSON snapshot format round-tripping through the
//! workspace's own JSON parser.

use fasttrack_suite::core::{Detector, Empty, FastTrack};
use fasttrack_suite::obs::{JsonlSink, MetricsRegistry};
use fasttrack_suite::runtime::online::Monitor;
use fasttrack_suite::runtime::{run_pipeline, Pipeline};
use fasttrack_suite::trace::gen::{self, GenConfig};
use fasttrack_suite::trace::json as ftjson;
use fasttrack_suite::trace::HbOracle;

#[test]
fn pipeline_over_race_free_trace_suppresses_and_is_monotone() {
    let trace = gen::generate(&GenConfig::race_free(), 11);
    let mut p = Pipeline::new(vec![Box::new(FastTrack::new()), Box::new(Empty::new())]);
    run_pipeline(&mut p, &trace);
    let reports = p.stage_reports();

    // The prefilter suppressed something on a race-free workload...
    assert!(reports[0].events_suppressed > 0);
    assert!(reports[0].suppression_rate > 0.0);
    // ...and events_seen is monotone non-increasing down the chain.
    assert!(reports[1].events_seen <= reports[0].events_seen);
    assert_eq!(reports[0].events_seen, trace.len() as u64);
    assert_eq!(
        reports[1].events_seen,
        reports[0].events_seen - reports[0].events_suppressed
    );
    // Latency histograms saw exactly the events each stage received.
    assert_eq!(reports[0].latency.count, reports[0].events_seen);
    assert_eq!(reports[1].latency.count, reports[1].events_seen);
}

#[test]
fn detector_metrics_bridge_stats_and_rules() {
    let trace = gen::generate(&GenConfig::default(), 5);
    let mut ft = FastTrack::new();
    ft.run(&trace);
    let snap = ft.metrics();
    assert_eq!(snap.meta("tool"), Some("FASTTRACK"));
    assert_eq!(snap.counter("ops"), Some(ft.stats().ops));
    assert_eq!(snap.counter("reads"), Some(ft.stats().reads));
    assert_eq!(snap.counter("warnings"), Some(ft.warnings().len() as u64));
    // Per-rule counters + percentage gauges for every breakdown entry.
    for rc in ft.rule_breakdown() {
        assert_eq!(
            snap.counter(&format!("rule.{}.hits", rc.rule)),
            Some(rc.hits)
        );
        let pct = snap
            .gauge(&format!("rule.{}.percent", rc.rule))
            .expect("percent gauge");
        assert!((pct - rc.percent).abs() < 1e-9);
    }
}

/// The hand-rolled JSON snapshot writer produces documents the workspace's
/// own parser accepts, with every counter/gauge/histogram intact.
#[test]
fn snapshot_json_round_trips_through_the_trace_parser() {
    let trace = gen::generate(&GenConfig::default(), 9);
    let mut p = Pipeline::new(vec![Box::new(FastTrack::new()), Box::new(Empty::new())]);
    run_pipeline(&mut p, &trace);
    let snap = p.metrics_snapshot();
    let parsed = ftjson::parse(&snap.to_json()).expect("snapshot JSON parses");

    let counters = parsed.get("counters").expect("counters object");
    for (name, value) in &snap.counters {
        let got = counters.get(name).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(got as u64, *value, "{name}");
    }
    let gauges = parsed.get("gauges").expect("gauges object");
    for (name, value) in &snap.gauges {
        let got = gauges.get(name).and_then(|v| v.as_f64()).unwrap();
        assert!((got - value).abs() < 1e-9, "{name}");
    }
    let histograms = parsed.get("histograms").expect("histograms object");
    for (name, summary) in &snap.histograms {
        let h = histograms.get(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(
            h.get("count").and_then(|v| v.as_f64()).unwrap() as u64,
            summary.count
        );
        assert_eq!(
            h.get("p50").and_then(|v| v.as_f64()).unwrap() as u64,
            summary.p50
        );
        assert_eq!(
            h.get("max").and_then(|v| v.as_f64()).unwrap() as u64,
            summary.max
        );
    }
}

/// A race-free and a racy trace replayed through both monitor modes: the
/// warned variables are the oracle's, and every event is counted.
#[test]
fn online_monitor_replay_reports_overhead_in_both_modes() {
    for cfg in [GenConfig::race_free(), GenConfig::default().with_races(0.1)] {
        let trace = gen::generate(&cfg, 21);
        let race_vars = HbOracle::analyze(&trace).race_vars();
        for make in [
            Monitor::new::<FastTrack> as fn(FastTrack) -> Monitor,
            Monitor::buffered,
        ] {
            let monitor = make(FastTrack::new());
            for op in trace.events() {
                monitor.emit_raw(op.clone());
            }
            let report = monitor.report();
            let mut warned: Vec<_> = report.warnings.iter().map(|w| w.var).collect();
            warned.sort_unstable();
            warned.dedup();
            assert_eq!(warned, race_vars);
            assert_eq!(report.stats.ops, trace.len() as u64);
            let emit = report.metrics.histogram("online.emit_ns").expect("emit_ns");
            assert_eq!(emit.count, trace.len() as u64);
        }
    }
}

#[test]
fn registry_merge_collects_worker_thread_metrics() {
    // The cross-thread aggregation pattern: each worker keeps its own
    // registry, the owner merges them afterwards.
    let handles: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut reg = MetricsRegistry::new();
                for i in 0..100u64 {
                    reg.inc_counter("events", 1);
                    reg.record("latency_ns", i * (w + 1));
                }
                reg
            })
        })
        .collect();
    let mut total = MetricsRegistry::new();
    for h in handles {
        total.merge(&h.join().unwrap());
    }
    let snap = total.snapshot();
    assert_eq!(snap.counter("events"), Some(400));
    assert_eq!(snap.histogram("latency_ns").unwrap().count, 400);
}

#[test]
fn jsonl_sink_records_cli_style_spans() {
    // Drive a span through a JSONL sink and parse each emitted line.
    let buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>> = Default::default();

    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fasttrack_suite::obs::set_sink(Box::new(JsonlSink::new(Box::new(Shared(buf.clone())))));
    {
        let _g = fasttrack_suite::obs::span!("analyze", tool = "FASTTRACK");
        fasttrack_suite::obs::event!("warning", var = 3);
    }
    fasttrack_suite::obs::disable_tracing();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text:?}");
    for line in &lines {
        ftjson::parse(line).expect("span line is valid JSON");
    }
    assert!(lines[0].contains("\"kind\":\"event\""));
    assert!(lines[1].contains("\"kind\":\"span\""));
}

#[test]
fn flight_recorder_drains_recent_events_into_warnings() {
    use fasttrack_suite::core::{FastTrackConfig, RecorderConfig};

    let cfg = GenConfig {
        ops: 800,
        ..GenConfig::default().with_races(0.15)
    };
    let trace = gen::generate(&cfg, 9);

    let mut plain = FastTrack::new();
    plain.run(&trace);
    assert!(!plain.warnings().is_empty(), "need a racy trace");

    let mut recorded = FastTrack::with_config(FastTrackConfig {
        recorder: Some(RecorderConfig { capacity: 8 }),
        ..FastTrackConfig::default()
    });
    recorded.run(&trace);

    // Same races either way — the recorder is observation, not analysis.
    assert_eq!(plain.warnings().len(), recorded.warnings().len());
    for (p, r) in plain.warnings().iter().zip(recorded.warnings()) {
        assert_eq!(p.var, r.var);
        assert_eq!(p.kind, r.kind);
        let (pp, rp) = (
            p.provenance.as_ref().unwrap(),
            r.provenance.as_ref().unwrap(),
        );
        assert_eq!(pp.rule, rp.rule);
        // Recorder off: no tails. Recorder on: the accessing thread's tail
        // is present, capped at the ring capacity, ends at the racy access,
        // and is ordered by trace index.
        assert!(pp.recent.is_empty());
        let current_tail = rp
            .recent
            .iter()
            .find(|tail| tail.tid == r.current.tid)
            .expect("accessing thread has a tail");
        assert!(!current_tail.events.is_empty());
        assert!(current_tail.events.len() <= 8);
        let indices: Vec<u64> = current_tail.events.iter().map(|e| e.index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "tail out of order: {indices:?}");
        assert_eq!(
            indices.last().copied(),
            r.current.event_index.map(|i| i as u64),
            "tail does not end at the racy access"
        );
    }

    // The recorder surfaces in metrics and in shadow accounting.
    let rec = recorded.flight_recorder().expect("recorder enabled");
    assert!(rec.recorded() > 0);
    assert!(rec.bytes() > 0);
    assert!(recorded.shadow_bytes() >= plain.shadow_bytes() + rec.bytes());
    let snap = recorded.metrics();
    assert_eq!(
        snap.counter("recorder.recorded_events"),
        Some(rec.recorded())
    );
}

#[test]
fn tier_counters_partition_the_accesses() {
    use fasttrack_suite::core::FastTrackConfig;

    let trace = gen::generate(&GenConfig::default(), 21);
    let mut ft = FastTrack::with_config(FastTrackConfig {
        profile_tiers: true,
        ..FastTrackConfig::default()
    });
    ft.run(&trace);

    // Every access lands in exactly one tier.
    let tiers = ft.tier_profile();
    let stats = ft.stats();
    assert_eq!(tiers.total(), stats.reads + stats.writes);
    assert!(
        tiers.same_epoch > 0,
        "fused loop never hit tier 1: {tiers:?}"
    );

    // The always-on counters and the profiled latency histograms both
    // surface in the metrics snapshot.
    let snap = ft.metrics();
    assert_eq!(snap.counter("tier.same_epoch.hits"), Some(tiers.same_epoch));
    assert_eq!(
        snap.counter("tier.inline_exclusive.hits"),
        Some(tiers.inline_exclusive)
    );
    assert_eq!(snap.counter("tier.preensured.hits"), Some(tiers.preensured));
    assert_eq!(snap.counter("tier.governed.hits"), Some(tiers.governed));
    let governed_ns = snap.histogram("tier.governed.ns").expect("profiled");
    assert_eq!(governed_ns.count, tiers.governed);

    // And the Prometheus rendering carries them in sanitized form.
    let prom = fasttrack_suite::obs::to_prometheus(&snap, "ftrace");
    assert!(prom.contains("# TYPE ftrace_tier_same_epoch_hits counter"));
    assert!(prom.contains(&format!("ftrace_tier_same_epoch_hits {}", tiers.same_epoch)));
}

/// Seeded provenance property: every warning FastTrack emits must carry a
/// populated provenance whose rule is a label the rule breakdown actually
/// counted (hits > 0), whose conflicting epoch is a real epoch (not the
/// initial sentinel), whose epoch belongs to the reporting thread, and
/// whose thread clock holds that thread's own entry at the epoch's clock
/// value. The warned variables must also be exactly the oracle's racy ones.
#[test]
fn every_warning_carries_matching_provenance() {
    let cfg = GenConfig {
        ops: 700,
        ..GenConfig::default().with_races(0.12)
    };
    let mut warnings_seen = 0usize;
    for seed in 0..120u64 {
        let trace = gen::generate(&cfg, seed);
        let mut ft = FastTrack::new();
        ft.run(&trace);
        let mut warned: Vec<_> = ft.warnings().iter().map(|w| w.var).collect();
        warned.sort_unstable();
        warned.dedup();
        assert_eq!(
            warned,
            HbOracle::analyze(&trace).race_vars(),
            "seed {seed}: warned variables differ from the oracle's"
        );
        let breakdown = ft.rule_breakdown();
        for w in ft.warnings() {
            warnings_seen += 1;
            let p = w
                .provenance
                .as_ref()
                .unwrap_or_else(|| panic!("seed {seed}: warning without provenance: {w}"));
            let counted = breakdown
                .iter()
                .find(|r| r.rule == p.rule)
                .unwrap_or_else(|| panic!("seed {seed}: rule {:?} not in breakdown", p.rule));
            assert!(
                counted.hits > 0,
                "seed {seed}: rule {:?} reported a race but counted no hits",
                p.rule
            );
            assert!(
                !p.conflict.is_initial(),
                "seed {seed}: conflict epoch is the initial sentinel: {p}"
            );
            assert_eq!(
                p.current_epoch.tid(),
                w.current.tid,
                "seed {seed}: provenance epoch thread != reporting thread"
            );
            let own = p
                .thread_clock
                .iter()
                .find(|(t, _)| *t == w.current.tid)
                .unwrap_or_else(|| panic!("seed {seed}: C_t missing the accessing thread"));
            assert_eq!(
                own.1,
                p.current_epoch.clock(),
                "seed {seed}: C_t(t) != E(t) at detection"
            );
        }
    }
    assert!(
        warnings_seen > 50,
        "property test exercised too few warnings ({warnings_seen})"
    );
}
