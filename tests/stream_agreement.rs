//! Property tests for the `.ftb` binary trace format and the fused
//! streaming analysis path.
//!
//! Two pins, both over seeded generated traces (structured, chaotic, and
//! Table 1 workloads, so barriers / volatiles / waits are all exercised):
//!
//! 1. **Round-trip**: `encode → decode → encode` is bit-identical, and the
//!    decoded trace carries the same events and id-space metadata.
//! 2. **Stream ≡ vec**: feeding a detector block-by-block from the byte
//!    stream ([`ft_runtime::analyze_stream`]) is observably identical to
//!    materializing `Vec<Op>` and calling [`Detector::run`] — same
//!    warnings, same statistics, same rule breakdown.

use fasttrack::{Detector, FastTrack};
use ft_detectors::Djit;
use ft_runtime::analyze_stream;
use ft_sampler::Sampler;
use ft_trace::batch::opcode;
use ft_trace::gen::{self, GenConfig};
use ft_trace::{FtbReader, FtbWriter, Trace, VarId};
use ft_workloads::Scale;

/// The trace zoo: every seed yields structurally different traces from
/// three generators (random structured, chaotic with heavy sync, and two
/// real benchmark builders).
fn trace_zoo(seed: u64) -> Vec<Trace> {
    vec![
        gen::generate(&GenConfig::default().with_races(0.05), seed),
        gen::chaotic(6, 24, 4, 4_000, seed),
        ft_workloads::build("tsp", Scale { ops: 3_000 }, seed),
        ft_workloads::build("philo", Scale { ops: 3_000 }, seed),
    ]
}

#[test]
fn ftb_round_trip_is_bit_identical() {
    for seed in 0..6 {
        for (k, trace) in trace_zoo(seed).into_iter().enumerate() {
            let ctx = format!("seed {seed} trace {k}");
            let bytes = trace.to_ftb().expect("encodable");
            let decoded = Trace::from_ftb(&bytes).expect("decodable");

            assert_eq!(decoded.events(), trace.events(), "{ctx}: events");
            assert_eq!(decoded.n_threads(), trace.n_threads(), "{ctx}: threads");
            assert_eq!(decoded.n_vars(), trace.n_vars(), "{ctx}: vars");
            assert_eq!(decoded.n_locks(), trace.n_locks(), "{ctx}: locks");
            for x in 0..trace.n_vars() {
                assert_eq!(
                    decoded.object_of(VarId::new(x)),
                    trace.object_of(VarId::new(x)),
                    "{ctx}: object_of({x})"
                );
            }

            // Re-encoding the decoded trace must reproduce the original
            // bytes exactly — the format has one canonical encoding.
            let bytes2 = decoded.to_ftb().expect("re-encodable");
            assert_eq!(bytes, bytes2, "{ctx}: round-trip bytes");
        }
    }
}

#[test]
fn streamed_analysis_equals_in_memory_analysis() {
    for seed in 0..6 {
        for (k, trace) in trace_zoo(seed).into_iter().enumerate() {
            let ctx = format!("seed {seed} trace {k}");

            let mut in_memory = FastTrack::new();
            in_memory.run(&trace);

            let bytes = trace.to_ftb().expect("encodable");
            let mut reader = FtbReader::new(&bytes[..]).expect("valid header");
            let mut streamed = FastTrack::new();
            let n = analyze_stream(&mut reader, &mut streamed).expect("valid stream");

            assert_eq!(n, trace.len() as u64, "{ctx}: event count");
            assert_eq!(streamed.warnings(), in_memory.warnings(), "{ctx}: warnings");
            assert_eq!(streamed.stats(), in_memory.stats(), "{ctx}: stats");
            assert_eq!(
                streamed.rule_breakdown(),
                in_memory.rule_breakdown(),
                "{ctx}: rules"
            );
        }
    }
}

#[test]
fn truncated_and_corrupt_streams_error_instead_of_lying() {
    let trace = gen::chaotic(4, 16, 3, 2_000, 99);
    let bytes = trace.to_ftb().expect("encodable");

    // Truncation at any non-record boundary is a decode error.
    let mut cut = bytes.clone();
    cut.truncate(bytes.len() - 5);
    let mut reader = FtbReader::new(&cut[..]).expect("header survives");
    let mut ft = FastTrack::new();
    assert!(analyze_stream(&mut reader, &mut ft).is_err());

    // A wrong magic is rejected before any event is applied.
    let mut wrong = bytes.clone();
    wrong[0] ^= 0xff;
    assert!(FtbReader::new(&wrong[..]).is_err());

    // An unsupported version is rejected too.
    let mut future = bytes;
    future[4] = 0xfe;
    assert!(FtbReader::new(&future[..]).is_err());

    // One record with an id no table can be sized for: the decoder rejects
    // it before any detector grows a table by it, and no load panics.
    let record = |kind: u8, tid: u16, arg: u32| {
        let mut ftb = FtbWriter::new(Vec::new(), 1, 0, 0)
            .expect("header")
            .finish()
            .expect("flush");
        ftb.extend_from_slice(&[kind, 0]);
        ftb.extend_from_slice(&tid.to_le_bytes());
        ftb.extend_from_slice(&arg.to_le_bytes());
        ftb.extend_from_slice(&[0; 4]);
        ftb
    };
    let hostile = [
        ("fork(T0, u32::MAX)", record(opcode::FORK, 0, u32::MAX)),
        ("acq(T0, m=u32::MAX)", record(opcode::ACQUIRE, 0, u32::MAX)),
        ("rel(T0, m=u32::MAX)", record(opcode::RELEASE, 0, u32::MAX)),
        (
            "vwr(T0, v=u32::MAX)",
            record(opcode::VOLATILE_WRITE, 0, u32::MAX),
        ),
        ("wr(T65535, x=0)", record(opcode::WRITE, u16::MAX, 0)),
        ("wr(T0, x=u32::MAX)", record(opcode::WRITE, 0, u32::MAX)),
    ];
    for (label, ftb) in &hostile {
        let tools: [Box<dyn Detector>; 3] = [
            Box::new(FastTrack::new()),
            Box::new(Sampler::new()),
            Box::new(Djit::new()),
        ];
        for mut tool in tools {
            let result =
                FtbReader::new(&ftb[..]).and_then(|mut r| analyze_stream(&mut r, &mut *tool));
            assert!(result.is_err(), "{label}: {} analyzed it", tool.name());
        }
        assert!(
            Trace::from_ftb(ftb).is_err(),
            "{label}: Trace::from_ftb loaded it"
        );
    }
}
