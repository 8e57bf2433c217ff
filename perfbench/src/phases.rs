//! The measured phases: rounds of the detectors over pre-decoded blocks and
//! of `analyze_stream` over `.ftb` bytes, and serve sessions. Every
//! operation checks its output against the program's reference; every
//! phase can record spans around the library's public calls.

use std::time::{Duration, Instant};

use fasttrack::{Detector, Disposition, Empty, FastTrack, RuleCount, Stats, Warning};
use ft_detectors::Djit;
use ft_runtime::stream::analyze_stream;
use ft_sampler::Sampler;
use ft_serve::{upload, Client, Daemon, ServeConfig};
use ft_trace::{EventBlock, FtbReader, Op, DEFAULT_BLOCK_EVENTS};

use crate::inputs::{race_vars, Program};
use crate::spans::{Spans, NO_PARENT};
use crate::stats::median;

/// Operations attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The first failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// Where spans go in a traced run, and the next operation id.
pub struct Tracing {
    /// The main thread's recorder, into which the others are merged.
    pub spans: Spans,
    /// Operation ids handed out so far.
    pub next_op: u64,
}

impl Tracing {
    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }
}

/// Fewest passes one phase call makes: a discarded warm-up plus two kept
/// passes, or in a traced run two traced and two untraced ones.
fn min_passes(traced: bool) -> usize {
    if traced {
        5
    } else {
        3
    }
}

/// Repeats `pass` until `share` has elapsed and at least `min` passes ran,
/// or until `pass` returns `false`.
fn repeat(share: Duration, min: usize, mut pass: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < share {
        if !pass(n) {
            return;
        }
        n += 1;
    }
}

// ---------------------------------------------------------------------------
// Rounds: the detectors over pre-decoded blocks, and analyze_stream over bytes
// ---------------------------------------------------------------------------

/// What a round runs, in round-robin order: four detectors over the
/// pre-decoded blocks, then `analyze_stream` with FASTTRACK over the bytes.
pub const ENTRIES: [&str; 5] = ["EMPTY", "FASTTRACK", "SAMPLER", "DJIT+", "analyze_stream"];

/// Span names of each detector's `on_block`, in [`ENTRIES`] order.
pub const ON_BLOCK_SPANS: [&str; 4] = [
    "empty.on_block",
    "core.on_block",
    "sampler.on_block",
    "detectors.djit.on_block",
];

/// Index of `analyze_stream` in [`ENTRIES`].
pub const ANALYZE: usize = 4;

fn make_detector(i: usize) -> Box<dyn Detector> {
    match i {
        0 => Box::new(Empty::new()),
        1 => Box::new(FastTrack::new()),
        2 => Box::new(Sampler::new()),
        _ => Box::new(Djit::new()),
    }
}

/// FASTTRACK counters summed over one `analyze_stream` pass of the
/// program set.
#[derive(Debug, Default)]
pub struct CoreCounts {
    /// Rule hits, in `rule_breakdown()` order.
    pub rules: Vec<RuleCount>,
    /// Reads plus writes.
    pub accesses: u64,
    /// Lock/fork/join/volatile operations that took the O(1) lane.
    pub sync_fastpath_hits: u64,
    /// Sync operations that needed a full vector-clock join.
    pub sync_slow_joins: u64,
    /// Vector-clock operations.
    pub vc_ops: u64,
    /// Vector clocks allocated.
    pub vc_allocated: u64,
}

impl CoreCounts {
    fn add(&mut self, ft: &FastTrack) {
        let s = ft.stats();
        self.accesses += s.reads + s.writes;
        self.sync_fastpath_hits += s.sync_fastpath_hits;
        self.sync_slow_joins += s.sync_slow_joins;
        self.vc_ops += s.vc_ops;
        self.vc_allocated += s.vc_allocated;
        let rules = ft.rule_breakdown();
        if self.rules.is_empty() {
            self.rules = rules;
        } else {
            for (sum, r) in self.rules.iter_mut().zip(rules) {
                sum.hits += r.hits;
            }
        }
    }
}

/// One kept round.
#[derive(Debug)]
pub struct Round {
    /// Each entry's time in this round in seconds, in [`ENTRIES`] order.
    pub secs: [f64; 5],
    /// Whether spans were recorded.
    pub traced: bool,
}

/// What the rounds measured.
#[derive(Debug, Default)]
pub struct RoundsResult {
    /// Kept rounds.
    pub kept: Vec<Round>,
    /// Rounds run, warm-ups included.
    pub rounds: usize,
    /// Rounds whose spans were recorded, warm-ups included.
    pub traced_rounds: usize,
    /// Events one round feeds each entry.
    pub events: u64,
    /// Sum over the programs of the largest FASTTRACK `shadow_bytes()`
    /// seen between blocks.
    pub shadow_bytes: u64,
    /// FASTTRACK counters of the first traced `analyze_stream` pass.
    pub counts: CoreCounts,
    /// SAMPLER accesses admitted in one round.
    pub sampler_admitted: u64,
    /// DJIT+ vector-clock operations in one round.
    pub djit_vc_ops: u64,
    /// Wall time of the untraced rounds of a traced run.
    pub untraced_wall: Duration,
}

impl RoundsResult {
    /// Median over the kept rounds with the given `traced` flag of `f`.
    pub fn median(&self, traced: bool, f: impl Fn(&[f64; 5]) -> f64) -> f64 {
        let v: Vec<f64> = self
            .kept
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| f(&r.secs))
            .collect();
        median(&v)
    }

    /// Entry `i`'s time ÷ EMPTY's time in the same round, median over the
    /// kept rounds with the given `traced` flag.
    pub fn slowdown(&self, i: usize, traced: bool) -> f64 {
        self.median(traced, |s| s[i] / s[0].max(1e-12))
    }
}

fn check_detector(tally: &mut Tally, i: usize, p: &Program, d: &dyn Detector) {
    let ok = match i {
        0 => d.stats().ops == p.events,
        1 => d.warnings() == p.reference,
        2 => d
            .warnings()
            .iter()
            .all(|w| p.race_vars.binary_search(&w.var).is_ok()),
        _ => race_vars(d.warnings()) == p.race_vars,
    };
    tally.check(ok, || {
        format!(
            "{} on {}: warnings disagree with FASTTRACK",
            ENTRIES[i], p.name
        )
    });
}

/// Rounds of EMPTY, FASTTRACK, SAMPLER and DJIT+ over the same pre-decoded
/// blocks, then `analyze_stream` with FASTTRACK over the same programs'
/// bytes, one after the other within a round so that each ratio's two
/// sides share clock conditions; appends to `out`. The first round of each
/// call is a discarded warm-up. A traced run alternates traced and untraced
/// rounds; see [`analyze_traced`] for how a traced round times
/// `analyze_stream`.
pub fn rounds(
    programs: &[Program],
    share: Duration,
    tally: &mut Tally,
    mut trace: Option<&mut Tracing>,
    out: &mut RoundsResult,
) {
    out.events = programs.iter().map(|p| p.events).sum();
    let traced = trace.is_some();
    repeat(share, min_passes(traced), |round| {
        let traced_round = traced && round % 2 == 1;
        let round_start = Instant::now();
        let first = out.rounds == 0;
        let mut times = [Duration::ZERO; 5];
        for (i, time) in times.iter_mut().enumerate().take(ANALYZE) {
            for p in programs {
                let mut d = make_detector(i);
                let start = Instant::now();
                match trace.as_deref_mut().filter(|_| traced_round) {
                    Some(t) => {
                        let op = t.op();
                        for (base, block) in &p.blocks {
                            t.spans.wrap(ON_BLOCK_SPANS[i], NO_PARENT, op, || {
                                d.on_block(*base, block)
                            });
                        }
                    }
                    None => {
                        for (base, block) in &p.blocks {
                            d.on_block(*base, block);
                        }
                    }
                }
                *time += start.elapsed();
                check_detector(tally, i, p, d.as_ref());
                if first {
                    match i {
                        2 => {
                            out.sampler_admitted +=
                                d.metrics().counter("sampler.admitted").unwrap_or(0)
                        }
                        3 => out.djit_vc_ops += d.stats().vc_ops,
                        _ => {}
                    }
                }
            }
        }
        for p in programs {
            let mut ft = FastTrack::new();
            let (time, analyzed) = match trace.as_deref_mut().filter(|_| traced_round) {
                Some(t) => analyze_traced(p, &mut ft, t),
                None => {
                    let start = Instant::now();
                    let analyzed = FtbReader::new(&p.ftb[..])
                        .and_then(|mut reader| analyze_stream(&mut reader, &mut ft));
                    (start.elapsed(), analyzed)
                }
            };
            times[ANALYZE] += time;
            tally.check(
                matches!(analyzed, Ok(n) if n == p.events) && ft.warnings() == p.reference,
                || {
                    format!(
                        "analyze_stream on {}: result differs from FastTrack::run",
                        p.name
                    )
                },
            );
            if traced_round && out.traced_rounds == 0 {
                out.counts.add(&ft);
            }
        }
        out.rounds += 1;
        if traced && !traced_round {
            out.untraced_wall += round_start.elapsed();
        }
        if traced_round {
            out.traced_rounds += 1;
        }
        if round > 0 {
            out.kept.push(Round {
                secs: times.map(|t| t.as_secs_f64()),
                traced: traced_round,
            });
        }
        true
    });
    if out.shadow_bytes > 0 {
        return;
    }
    // An untimed pass sampling FASTTRACK's footprint between blocks. Each
    // program's peak counts, not only the largest program's, so that a
    // change to the footprint of any of them shows.
    for p in programs {
        let mut ft = FastTrack::new();
        let mut peak = 0;
        for (base, block) in &p.blocks {
            ft.on_block(*base, block);
            peak = peak.max(ft.shadow_bytes() as u64);
        }
        out.shadow_bytes += peak;
        check_detector(tally, 1, p, &ft);
    }
}

/// A detector that records a span around each `on_block` call and passes
/// every call through, so that the real `analyze_stream` can be timed from
/// outside.
struct SpannedOnBlock<'a, D: ?Sized> {
    inner: &'a mut D,
    spans: &'a mut Spans,
    parent: usize,
    op: u64,
}

impl<D: Detector + ?Sized> Detector for SpannedOnBlock<'_, D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.inner.on_op(index, op)
    }

    fn warnings(&self) -> &[Warning] {
        self.inner.warnings()
    }

    fn stats(&self) -> &Stats {
        self.inner.stats()
    }

    fn on_block(&mut self, base_index: usize, block: &EventBlock) {
        let inner = &mut *self.inner;
        self.spans
            .wrap(ON_BLOCK_SPANS[1], self.parent, self.op, || {
                inner.on_block(base_index, block)
            });
    }
}

/// The traced `analyze_stream` entry: the library's call inside a
/// `runtime.analyze_stream` span, with FASTTRACK's `on_block` calls as its
/// children. The decode inside that call cannot be wrapped, so the same
/// bytes are then decoded on their own with a `trace.read_block` span
/// around each call; only the first part counts as the entry's time.
fn analyze_traced(
    p: &Program,
    ft: &mut FastTrack,
    t: &mut Tracing,
) -> (Duration, Result<u64, ft_trace::FtbError>) {
    let op = t.op();
    let start = Instant::now();
    let root = t.spans.open("runtime.analyze_stream", NO_PARENT, op);
    let mut spanned = SpannedOnBlock {
        inner: ft,
        spans: &mut t.spans,
        parent: root,
        op,
    };
    let result =
        FtbReader::new(&p.ftb[..]).and_then(|mut reader| analyze_stream(&mut reader, &mut spanned));
    t.spans.close(root);
    let time = start.elapsed();

    let decode = t.spans.open("trace.decode", NO_PARENT, op);
    let mut block = EventBlock::with_capacity(DEFAULT_BLOCK_EVENTS);
    let decoded = FtbReader::new(&p.ftb[..]).and_then(|mut reader| loop {
        let n = t.spans.wrap("trace.read_block", decode, op, || {
            reader.read_block(&mut block, DEFAULT_BLOCK_EVENTS)
        })?;
        if n == 0 {
            return Ok(());
        }
    });
    t.spans.close(decode);
    (time, decoded.and(result))
}

// ---------------------------------------------------------------------------
// Serve sessions
// ---------------------------------------------------------------------------

/// Clients of the closed loop, each on a thread of its own.
pub const CLIENTS: usize = 2;

/// Sessions per client left untimed while the daemon warms up.
const WARMUP_SESSIONS: usize = 3;

/// The serve phase ends after this long even if it is short of sessions,
/// so that a run always finishes.
const SERVE_CAP: Duration = Duration::from_secs(60);

/// Global shadow budget of the daemon: large enough that no session
/// degrades, so apportionment runs on every open and close while reports
/// stay exact.
const SERVE_BUDGET: usize = 1 << 30;

/// DATA chunk size: `ftrace client upload`'s default. The chunks cut the
/// `.ftb` bytes at arbitrary offsets, so the daemon's push decoder
/// reassembles records split across frames.
const CHUNK: usize = 64 << 10;

/// One session's client-side timings. The parts are measured only in a
/// traced run; an untraced session is one `ft_serve::upload` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionTime {
    /// Connecting to the report received: the whole `upload`.
    pub total: Duration,
    /// `Client::connect`.
    pub connect: Duration,
    /// `Client::open`.
    pub open: Duration,
    /// All `Client::send_chunk` calls.
    pub upload: Duration,
    /// `Client::close_session`.
    pub close: Duration,
}

/// What the serve phase measured, and the daemon it keeps from one cycle
/// to the next.
#[derive(Default)]
pub struct ServeResult {
    /// Kept sessions.
    pub sessions: Vec<SessionTime>,
    /// Sessions run, warm-ups included.
    pub sessions_run: u64,
    /// Wall time of the serve phases.
    pub wall: Duration,
    /// Events sent.
    pub sent_events: u64,
    /// Events the daemon reported shedding.
    pub dropped_events: u64,
    daemon: Option<Daemon>,
    clients: Vec<ClientLoop>,
}

/// One client's place in its closed loop, kept across serve phases.
struct ClientLoop {
    id: usize,
    next_program: usize,
    sessions: u64,
}

/// What one client did in one serve phase.
struct ClientRun {
    times: Vec<SessionTime>,
    sessions: u64,
    sent: u64,
    dropped: u64,
    tally: Tally,
    spans: Option<Spans>,
}

/// Two clients, each in a closed loop against an in-process daemon on
/// loopback, doing what `ftrace client upload` does: connect, open a
/// session, upload a program in chunks, close the session and take the
/// report; then the client checks the report and starts the next session
/// on a new connection. Appends to `out`. The phase lasts `share` and at
/// least until `min_sessions` more sessions were timed. The daemon stays up
/// for the next call until [`serve_stop`].
pub fn serve(
    programs: &[Program],
    (share, min_sessions): (Duration, usize),
    tally: &mut Tally,
    mut trace: Option<&mut Tracing>,
    out: &mut ServeResult,
) {
    if out.daemon.is_none() {
        match Daemon::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            mem_budget: SERVE_BUDGET,
            ..ServeConfig::default()
        }) {
            Ok(d) => out.daemon = Some(d),
            Err(e) => {
                tally.check(false, || format!("starting the daemon: {e}"));
                return;
            }
        }
        out.clients = (0..CLIENTS)
            .map(|id| ClientLoop {
                id,
                next_program: id,
                sessions: 0,
            })
            .collect();
    }
    let addr = out
        .daemon
        .as_ref()
        .expect("started above")
        .addr()
        .to_string();
    let origin = trace.as_ref().map(|t| t.spans.origin());
    let op_base = trace.as_ref().map_or(0, |t| t.next_op);
    let min = min_sessions.div_ceil(CLIENTS);
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = out
            .clients
            .iter_mut()
            .map(|cl| {
                let addr = &addr;
                std::thread::Builder::new()
                    .name(format!("perfbench-client{}", cl.id))
                    .spawn_scoped(scope, move || {
                        let spans = origin.map(Spans::new);
                        let op_base = op_base + (cl.id as u64) * 1_000_000_000;
                        client_loop(cl, addr, programs, (share, min), spans, op_base)
                    })
                    .expect("spawn a client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.wall += start.elapsed();

    for run in runs {
        out.sessions_run += run.sessions;
        out.sent_events += run.sent;
        out.dropped_events += run.dropped;
        out.sessions.extend(run.times);
        tally.absorb(run.tally);
        if let (Some(spans), Some(t)) = (run.spans, trace.as_deref_mut()) {
            t.spans.absorb(spans);
        }
    }
    if let Some(t) = trace {
        t.next_op += CLIENTS as u64 * 1_000_000_000;
    }
}

/// Stops the daemon and waits for its accept loop to end.
pub fn serve_stop(out: &mut ServeResult) {
    out.clients.clear();
    if let Some(daemon) = out.daemon.take() {
        daemon.stop();
        daemon.join();
    }
}

fn client_loop(
    cl: &mut ClientLoop,
    addr: &str,
    programs: &[Program],
    (share, min): (Duration, usize),
    mut spans: Option<Spans>,
    op_base: u64,
) -> ClientRun {
    let mut run = ClientRun {
        times: Vec::new(),
        sessions: 0,
        sent: 0,
        dropped: 0,
        tally: Tally::default(),
        spans: None,
    };
    let start = Instant::now();
    while (run.times.len() < min || start.elapsed() < share) && start.elapsed() < SERVE_CAP {
        let p = &programs[cl.next_program % programs.len()];
        cl.next_program += 1;
        let op = op_base + cl.sessions;
        let result = match spans.as_mut() {
            Some(spans) => session_traced(addr, p, spans, op),
            None => {
                let t0 = Instant::now();
                upload(addr, "perfbench", &p.ftb, CHUNK).map(|report| {
                    let time = SessionTime {
                        total: t0.elapsed(),
                        ..SessionTime::default()
                    };
                    (time, report)
                })
            }
        };
        cl.sessions += 1;
        run.sessions += 1;
        match result {
            Ok((time, report)) => {
                let ok = report
                    .json
                    .contains(&format!("\"warnings\":{}", p.reference_json))
                    && report.events == p.events
                    && report.dropped_events == 0
                    && report.precision == "full";
                run.tally.check(ok, || {
                    format!(
                        "session {} on {}: report differs from a local run",
                        op, p.name
                    )
                });
                run.sent += p.events;
                run.dropped += report.dropped_events;
                if cl.sessions as usize > WARMUP_SESSIONS {
                    run.times.push(time);
                }
            }
            Err(e) => {
                run.tally
                    .check(false, || format!("session on {}: {e}", p.name));
                break;
            }
        }
    }
    run.spans = spans;
    run
}

/// `ft_serve::upload` written out, with a span around each client call.
fn session_traced(
    addr: &str,
    p: &Program,
    spans: &mut Spans,
    op: u64,
) -> Result<(SessionTime, ft_serve::ServeReport), String> {
    let root = spans.open("serve.session", NO_PARENT, op);
    let t0 = Instant::now();
    let connected = spans.wrap("serve.connect", root, op, || Client::connect(addr));
    let t1 = Instant::now();
    let result = connected.and_then(|mut client| {
        spans.wrap("serve.open", root, op, || client.open("perfbench"))?;
        let t2 = Instant::now();
        for piece in p.ftb.chunks(CHUNK) {
            spans.wrap("serve.send_chunk", root, op, || client.send_chunk(piece))?;
        }
        let t3 = Instant::now();
        let report = spans.wrap("serve.close_session", root, op, || client.close_session())?;
        Ok((t2, t3, report))
    });
    let t4 = Instant::now();
    spans.close(root);
    let (t2, t3, report) = result?;
    Ok((
        SessionTime {
            total: t4 - t0,
            connect: t1 - t0,
            open: t2 - t1,
            upload: t3 - t2,
            close: t4 - t3,
        },
        report,
    ))
}
