//! End-to-end properties of the serve plane, over real TCP sockets.
//!
//! The load-bearing property is **tenant isolation**: two sessions whose
//! `DATA` frames interleave arbitrarily on the wire must produce exactly
//! the warnings of two sequential, single-tenant local runs — compared as
//! the canonical warning JSON, byte for byte. Everything else (budget
//! return on close, metrics scrape, error teardown, graceful shutdown)
//! rides the same daemon fixture.

use fasttrack::{warnings_to_json, Detector, FastTrack};
use ft_runtime::online::OverflowPolicy;
use ft_serve::{upload, Client, Daemon, ServeConfig};
use ft_trace::gen::{generate, GenConfig};
use ft_trace::{FtbWriter, Trace};

fn racy_trace(ops: usize, seed: u64) -> Trace {
    generate(
        &GenConfig {
            ops,
            ..GenConfig::default().with_races(0.08)
        },
        seed,
    )
}

fn ftb_bytes(trace: &Trace) -> Vec<u8> {
    let mut w = FtbWriter::new(
        Vec::new(),
        trace.n_threads(),
        trace.n_vars(),
        trace.n_locks(),
    )
    .expect("header");
    for op in trace.events() {
        w.write_op(op).expect("record");
    }
    w.finish().expect("flush")
}

fn local_warning_json(trace: &Trace) -> String {
    let mut ft = FastTrack::new();
    ft.run(trace);
    warnings_to_json(ft.warnings())
}

fn start_daemon(config: ServeConfig) -> Daemon {
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind daemon")
}

/// Interleaved sessions from two tenants ≡ two sequential local runs,
/// compared as canonical warning JSON.
#[test]
fn interleaved_tenants_get_bit_identical_isolated_reports() {
    let trace_a = racy_trace(1_200, 21);
    let trace_b = racy_trace(900, 22);
    let bytes_a = ftb_bytes(&trace_a);
    let bytes_b = ftb_bytes(&trace_b);

    let daemon = start_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();

    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    a.open("tenant-a").unwrap();
    b.open("tenant-b").unwrap();

    // Interleave ragged chunks: a and b alternate on the wire.
    let mut ia = bytes_a.chunks(97);
    let mut ib = bytes_b.chunks(61);
    loop {
        let ca = ia.next();
        let cb = ib.next();
        if let Some(c) = ca {
            a.send_chunk(c).unwrap();
        }
        if let Some(c) = cb {
            b.send_chunk(c).unwrap();
        }
        if ca.is_none() && cb.is_none() {
            break;
        }
    }
    let report_a = a.close_session().unwrap();
    let report_b = b.close_session().unwrap();

    assert_eq!(report_a.events, trace_a.len() as u64);
    assert_eq!(report_b.events, trace_b.len() as u64);
    assert_eq!(report_a.dropped_events, 0);
    assert_eq!(report_b.dropped_events, 0);

    // Bit-identical to sequential local runs: the report embeds the
    // canonical warnings array, so substring equality is exact.
    let local_a = local_warning_json(&trace_a);
    let local_b = local_warning_json(&trace_b);
    assert!(local_a != local_b, "fixture traces must differ");
    assert!(
        report_a.json.contains(&format!("\"warnings\":{local_a}")),
        "tenant-a report must embed exactly its own local warnings"
    );
    assert!(
        report_b.json.contains(&format!("\"warnings\":{local_b}")),
        "tenant-b report must embed exactly its own local warnings"
    );

    daemon.stop();
    daemon.join();
}

/// Closing a session returns its share to the pool: the hello share for a
/// later session reflects only the sessions still live, and a session's
/// report accounts its peak shadow bytes.
#[test]
fn closing_a_session_returns_its_budget_share() {
    const BUDGET: usize = 1 << 20;
    let daemon = start_daemon(ServeConfig {
        mem_budget: BUDGET,
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();
    let trace = racy_trace(800, 31);
    let bytes = ftb_bytes(&trace);

    let mut a = Client::connect(&addr).unwrap();
    let hello_a = a.open("tenant-a").unwrap();
    assert!(
        hello_a.contains(&format!("\"budget_share_bytes\":{BUDGET}")),
        "sole session owns the whole budget: {hello_a}"
    );

    let mut b = Client::connect(&addr).unwrap();
    let hello_b = b.open("tenant-b").unwrap();
    assert!(
        hello_b.contains(&format!("\"budget_share_bytes\":{}", BUDGET / 2)),
        "two live sessions split the budget: {hello_b}"
    );
    assert_eq!(daemon.registry().current_share(), BUDGET / 2);

    // Close b: its share must return to the pool immediately.
    for c in bytes.chunks(256) {
        b.send_chunk(c).unwrap();
    }
    let report_b = b.close_session().unwrap();
    assert!(report_b.json.contains("\"peak_shadow_bytes\":"));
    assert_eq!(daemon.registry().current_share(), BUDGET);

    // A session opened now sees the restored share.
    let mut c = Client::connect(&addr).unwrap();
    let hello_c = c.open("tenant-c").unwrap();
    assert!(
        hello_c.contains(&format!("\"budget_share_bytes\":{}", BUDGET / 2)),
        "a and c split the budget after b left: {hello_c}"
    );

    daemon.stop();
    daemon.join();
}

/// The metrics scrape reflects closed sessions, and a budgeted daemon
/// exports its budget gauges.
#[test]
fn metrics_scrape_counts_sessions_and_budget() {
    let daemon = start_daemon(ServeConfig {
        mem_budget: 4 << 20,
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();
    let trace = racy_trace(500, 41);
    let bytes = ftb_bytes(&trace);

    let r1 = upload(&addr, "alpha", &bytes, 128).unwrap();
    let r2 = upload(&addr, "beta", &bytes, 4096).unwrap();
    assert_eq!(r1.events, r2.events);

    let mut probe = Client::connect(&addr).unwrap();
    let prom = probe.metrics().unwrap();
    assert!(prom.contains("ftrace_serve_sessions_opened 2"), "{prom}");
    assert!(prom.contains("ftrace_serve_sessions_closed 2"), "{prom}");
    assert!(prom.contains("ftrace_serve_budget_bytes"), "{prom}");
    assert!(prom.contains("ftrace_serve_report_ns"), "{prom}");

    daemon.stop();
    daemon.join();
}

/// A corrupt upload tears the session down loudly (ERROR frame) and
/// releases its budget share; the daemon keeps serving others.
#[test]
fn corrupt_upload_aborts_the_session_and_frees_its_share() {
    let daemon = start_daemon(ServeConfig {
        mem_budget: 1 << 20,
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();

    let mut bad = Client::connect(&addr).unwrap();
    bad.open("tenant-bad").unwrap();
    let err = bad
        .send_chunk(b"this is not an ftb header at all!!!!")
        .and_then(|_| bad.close_session())
        .unwrap_err();
    assert!(err.contains("server error"), "{err}");

    // The aborted session must not hold budget: a fresh session gets the
    // whole pool, and the daemon still serves uploads.
    let trace = racy_trace(400, 51);
    let report = upload(&addr, "tenant-good", &ftb_bytes(&trace), 512).unwrap();
    assert_eq!(report.events, trace.len() as u64);
    assert_eq!(daemon.registry().live_sessions(), 0);
    let snap = daemon.registry().snapshot();
    assert_eq!(snap.counter("sessions_aborted"), Some(1));

    daemon.stop();
    daemon.join();
}

/// A 44-byte upload whose one record claims `u32::MAX` barrier members, or
/// writes variable `u32::MAX`, gets an ERROR reply instead of aborting the
/// daemon on a huge allocation, and the next session is served as usual.
#[test]
fn hostile_barrier_count_gets_an_error_reply() {
    let daemon = start_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();

    // One 12-byte record after the header: a barrier claiming u32::MAX
    // members, then a write to variable u32::MAX (a 64 GiB shadow table).
    for kind in [
        ft_trace::batch::opcode::BARRIER,
        ft_trace::batch::opcode::WRITE,
    ] {
        let mut hostile = FtbWriter::new(Vec::new(), 1, 0, 0)
            .expect("header")
            .finish()
            .expect("flush");
        hostile.extend_from_slice(&[kind, 0, 0, 0]);
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&[0; 4]);
        assert_eq!(hostile.len(), 44);

        let mut bad = Client::connect(&addr).unwrap();
        bad.open("tenant-hostile").unwrap();
        let err = bad
            .send_chunk(&hostile)
            .and_then(|_| bad.close_session())
            .unwrap_err();
        assert!(err.contains("server error"), "opcode {kind}: {err}");
    }

    let trace = racy_trace(400, 53);
    let report = upload(&addr, "tenant-next", &ftb_bytes(&trace), 512).unwrap();
    assert_eq!(report.events, trace.len() as u64);
    let mut ft = FastTrack::new();
    ft.run(&trace);
    assert_eq!(report.warnings, ft.warnings().len() as u64);
    assert_eq!(
        daemon.registry().snapshot().counter("sessions_aborted"),
        Some(2)
    );

    daemon.stop();
    daemon.join();
}

/// A client that vanishes mid-upload (EOF with a session open) is cleaned
/// up: no leaked live session, abort counted.
#[test]
fn vanishing_client_is_reaped() {
    let daemon = start_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let trace = racy_trace(600, 61);
    let bytes = ftb_bytes(&trace);

    {
        let mut ghost = Client::connect(&addr).unwrap();
        ghost.open("tenant-ghost").unwrap();
        ghost.send_chunk(&bytes[..64]).unwrap();
        // drop: TCP FIN with the session open
    }
    // The daemon reaps asynchronously; poll briefly.
    for _ in 0..100 {
        if daemon.registry().live_sessions() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(daemon.registry().live_sessions(), 0);
    assert_eq!(
        daemon.registry().snapshot().counter("sessions_aborted"),
        Some(1)
    );

    daemon.stop();
    daemon.join();
}

/// The SHUTDOWN frame stops the daemon gracefully: BYE is acknowledged
/// and the accept loop exits.
#[test]
fn shutdown_frame_stops_the_daemon() {
    let daemon = start_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    daemon.join(); // must return, not hang
}

/// DropOldest under a tiny lane sheds accesses (loudly) but never loses
/// the report path; Block never drops anything.
#[test]
fn overflow_policies_shed_or_stall_as_configured() {
    let trace = racy_trace(4_000, 71);
    let bytes = ftb_bytes(&trace);

    let blocking = start_daemon(ServeConfig {
        lane_cap: 64,
        overflow: OverflowPolicy::Block,
        ..ServeConfig::default()
    });
    let report = upload(&blocking.addr().to_string(), "t", &bytes, 512).unwrap();
    assert_eq!(report.events, trace.len() as u64);
    assert_eq!(report.dropped_events, 0);
    blocking.stop();
    blocking.join();

    let shedding = start_daemon(ServeConfig {
        lane_cap: 64,
        overflow: OverflowPolicy::DropOldest,
        ..ServeConfig::default()
    });
    let report = upload(&shedding.addr().to_string(), "t", &bytes, 16 << 10).unwrap();
    assert_eq!(
        report.events + report.dropped_events,
        trace.len() as u64,
        "every event is either analyzed or loudly dropped"
    );
    shedding.stop();
    shedding.join();
}
