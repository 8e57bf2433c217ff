//! Online race detection over real `std::thread` threads.
//!
//! Where [`crate::sim`] replays *scripted* programs deterministically, this
//! module monitors *actual* Rust threads: instrumented mutexes, tracked
//! variables, fork/join wrappers, and barriers feed a live event stream to
//! any [`Detector`] — the moral equivalent of RoadRunner's load-time
//! instrumentation for programs you run for real. Two delivery modes:
//! [`Monitor::new`] analyzes synchronously under a lock;
//! [`Monitor::buffered`] gives each monitored thread its own bounded event
//! *lane* (a mutex-protected ring drained in batches by one analysis
//! thread), so emitting an event touches only thread-local state — no
//! global queue mutex, no cross-thread histogram contention.
//!
//! Event ordering is made sound by construction. A release is logged
//! *before* the underlying lock is released and an acquire *after* it is
//! acquired, so the logged order of synchronization events is always a
//! feasible linearization of the real execution. In buffered mode each
//! synchronization event additionally takes a global *ticket* at emit time;
//! the analysis thread applies synchronization events strictly in ticket
//! order while draining data accesses from each lane eagerly, and
//! `After(k)` markers gate fork children and barrier parties so none of
//! their post-edge accesses can be analyzed before the edge itself. The
//! analyzed stream is therefore always a feasible linearization of the real
//! execution; for genuinely racy programs, the recorded interleaving of
//! *unordered* accesses is one of the possible ones.
//!
//! Both sinks instrument themselves: the report's metrics snapshot carries
//! `online.emit_ns` (per-event instrumentation overhead on the monitored
//! threads), and buffered mode adds `online.analysis_ns` (detector time per
//! event), `online.queue_lag_ns` (enqueue→dequeue latency), and
//! `online.queue_depth` (backlog seen at each dequeue) — the numbers that
//! show what online monitoring actually costs.
//!
//! # Example
//!
//! ```
//! use ft_runtime::online::Monitor;
//! use fasttrack::FastTrack;
//!
//! let monitor = Monitor::new(FastTrack::new());
//! let counter = monitor.tracked_var(0u32);
//! let root = monitor.root();
//!
//! // A racy increment: the child and parent both write without a lock.
//! let child = {
//!     let counter = counter.clone();
//!     root.spawn(move |ctx| {
//!         let v = counter.get(&ctx);
//!         counter.set(&ctx, v + 1);
//!     })
//! };
//! let v = counter.get(&root);
//! counter.set(&root, v + 1);
//! child.join(&root);
//!
//! let report = monitor.report();
//! assert_eq!(report.warnings.len(), 1); // the race is caught
//! ```

use fasttrack::{Detector, Disposition, Precision, Stats, Warning};
use ft_clock::Tid;
use ft_obs::{Histogram, MetricsRegistry, Snapshot};
use ft_trace::{LockId, Op, Prng, VarId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Locks a std mutex, recovering from poisoning: a panic on another
/// monitored thread must not wedge the monitor (the detector state is a
/// plain value, valid at every step).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poison-recovering `RwLock` read, mirroring [`lock`].
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Poison-recovering `RwLock` write, mirroring [`lock`].
fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Where emitted events go: either straight into the detector under a lock
/// (synchronous, lowest latency to a verdict) or into the emitting thread's
/// lane for batched asynchronous analysis (buffered, lowest overhead on the
/// monitored threads — RoadRunner's event-stream decoupling).
///
/// `source` is the emitting thread: buffered mode routes the event to that
/// thread's lane (note the source need not equal the subject — e.g. a
/// barrier release is emitted by the last arriver on behalf of all parties).
trait EventSink: Send + Sync {
    fn emit(&self, source: Tid, op: Op);
    fn report(&self) -> OnlineReport;
}

/// Consumer-side fault injection state (slow-consumer stalls and clock
/// skew), armed from a [`FaultPlan`] by [`BufferedSink::spawn_with`]. Lives
/// inside [`DetectorState`] so `feed_timed` can fire faults without extra
/// plumbing; a disarmed runner (both periods zero) costs two branch checks
/// per event.
struct FaultRunner {
    prng: Prng,
    slow_every: u64,
    skew_every: u64,
    fed: u64,
}

impl FaultRunner {
    fn none() -> Self {
        FaultRunner {
            prng: Prng::seed_from_u64(0),
            slow_every: 0,
            skew_every: 0,
            fed: 0,
        }
    }

    fn from_plan(plan: &FaultPlan) -> Self {
        let mut runner = FaultRunner {
            prng: Prng::seed_from_u64(plan.seed),
            ..FaultRunner::none()
        };
        for fault in &plan.faults {
            match fault {
                Fault::SlowConsumer { every } => runner.slow_every = *every,
                Fault::ClockSkew { every } => runner.skew_every = *every,
                // Lane overflow and analysis panics are armed elsewhere
                // (lane construction and the Recoverable wrapper).
                Fault::LaneOverflow { .. } | Fault::AnalysisPanic { .. } => {}
            }
        }
        runner
    }
}

struct DetectorState {
    detector: Box<dyn Detector + Send>,
    next_index: usize,
    metrics: MetricsRegistry,
    faults: FaultRunner,
}

impl DetectorState {
    fn new(detector: Box<dyn Detector + Send>) -> Self {
        DetectorState {
            detector,
            next_index: 0,
            metrics: MetricsRegistry::new(),
            faults: FaultRunner::none(),
        }
    }

    fn feed(&mut self, op: &Op) {
        let index = self.next_index;
        self.next_index += 1;
        self.detector.on_op(index, op);
    }

    fn report(&self) -> OnlineReport {
        let mut metrics = self.metrics.clone();
        let mut snapshot = self.detector.metrics();
        // The detector's own view plus the sink-side instrumentation.
        let mut bridge = MetricsRegistry::new();
        for (k, v) in std::mem::take(&mut snapshot.counters) {
            bridge.inc_counter(&k, v);
        }
        for (k, v) in std::mem::take(&mut snapshot.gauges) {
            bridge.set_gauge(&k, v);
        }
        for (k, v) in &snapshot.meta {
            bridge.set_meta(k, v);
        }
        metrics.merge(&bridge);
        let mut out = metrics.snapshot();
        // Histogram summaries from the detector snapshot can't round-trip
        // through a registry (summaries aren't buckets); append directly.
        out.histograms.extend(snapshot.histograms);
        OnlineReport {
            warnings: self.detector.warnings().to_vec(),
            stats: self.detector.stats().clone(),
            metrics: out,
            precision: self.detector.precision(),
            dropped_events: 0,
        }
    }
}

struct DirectSink {
    state: Mutex<DetectorState>,
}

impl EventSink for DirectSink {
    fn emit(&self, _source: Tid, op: Op) {
        let start = Instant::now();
        let mut state = lock(&self.state);
        state.feed(&op);
        state
            .metrics
            .histogram_mut("online.emit_ns")
            .record_duration(start.elapsed());
    }

    fn report(&self) -> OnlineReport {
        lock(&self.state).report()
    }
}

/// One-shot reply slot for snapshot requests.
struct ReportSlot {
    slot: Mutex<Option<OnlineReport>>,
    ready: Condvar,
}

impl ReportSlot {
    fn new() -> Self {
        ReportSlot {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn wait(&self) -> OnlineReport {
        let mut slot = lock(&self.slot);
        while slot.is_none() {
            slot = self.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.take().expect("slot filled while condvar signaled")
    }

    fn fill(&self, report: OnlineReport) {
        *lock(&self.slot) = Some(report);
        self.ready.notify_all();
    }
}

/// Bounded capacity of one lane: an emitter that gets this far ahead of the
/// analysis thread spins (yielding) instead of buffering without limit.
const LANE_CAP: usize = 4096;

/// What a full lane does to the *next* event once backpressure has run its
/// course (see [`MonitorConfig::push_timeout`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum OverflowPolicy {
    /// Block the emitting thread (yield-spin) until the drainer makes room.
    /// With no [`MonitorConfig::push_timeout`] this waits forever — the
    /// pre-guard behaviour.
    #[default]
    Block,
    /// Immediately shed the oldest *data access* in the lane to make room.
    /// Synchronization events and `After` gates are never shed — dropping a
    /// happens-before edge would corrupt every verdict after it, whereas
    /// dropping an access can only lose the warnings that access would have
    /// produced. Every shed event is counted in `online.dropped_events`.
    DropOldest,
}

/// An injectable fault, for rehearsing how the monitor degrades before the
/// real incident happens (see `docs/OPERATIONS.md`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Stall the analysis thread for 100–500µs (seeded jitter) every
    /// `every`-th analyzed event, so lanes fill up for real.
    SlowConsumer {
        /// Stall period in analyzed events; `0` disables.
        every: u64,
    },
    /// Shrink every lane to `cap` messages and switch the overflow policy
    /// to [`OverflowPolicy::DropOldest`].
    LaneOverflow {
        /// The forced lane capacity.
        cap: usize,
    },
    /// Panic inside the detector on the `at_op`-th analyzed event
    /// (1-based), exercising the checkpoint/replay recovery in
    /// [`Recoverable`].
    AnalysisPanic {
        /// Which analyzed event (1-based) blows up.
        at_op: u64,
    },
    /// Pretend the producing thread's clock ran 1ms ahead of the analysis
    /// thread's on every `every`-th event: queue-lag math must saturate
    /// instead of panicking.
    ClockSkew {
        /// Skew period in analyzed events; `0` disables.
        every: u64,
    },
}

/// A seeded set of faults to inject into one monitored run.
///
/// The textual form (CLI `--faults`) is `SEED:SPEC[,SPEC...]` where each
/// `SPEC` is `overflow@CAP`, `panic@OP`, `slow@EVERY`, or `skew@EVERY`:
///
/// ```
/// use ft_runtime::online::{Fault, FaultPlan};
/// let plan = FaultPlan::parse("7:overflow@64,panic@100").unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.faults[0], Fault::LaneOverflow { cap: 64 });
/// assert_eq!(plan.faults[1], Fault::AnalysisPanic { at_op: 100 });
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the jitter PRNG (slow-consumer stall lengths).
    pub seed: u64,
    /// The faults to arm.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// No faults: the monitor behaves exactly as un-injected.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when no fault is armed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses `SEED:SPEC[,SPEC...]` (see the type docs for the grammar).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (seed_s, spec) = s
            .split_once(':')
            .ok_or_else(|| format!("fault plan {s:?} must be SEED:SPEC[,SPEC...]"))?;
        let seed = seed_s
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad fault seed {seed_s:?}: {e}"))?;
        let mut faults = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, arg) = part
                .split_once('@')
                .ok_or_else(|| format!("fault {part:?} must be KIND@N"))?;
            let n: u64 = arg
                .parse()
                .map_err(|e| format!("bad fault argument in {part:?}: {e}"))?;
            faults.push(match kind {
                "overflow" => {
                    if n == 0 {
                        return Err("overflow@CAP requires CAP >= 1".to_string());
                    }
                    Fault::LaneOverflow { cap: n as usize }
                }
                "panic" => Fault::AnalysisPanic { at_op: n },
                "slow" => Fault::SlowConsumer { every: n },
                "skew" => Fault::ClockSkew { every: n },
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (expected overflow|panic|slow|skew)"
                    ))
                }
            });
        }
        Ok(FaultPlan { seed, faults })
    }
}

/// Robustness configuration for [`Monitor::buffered_with`].
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Per-lane message capacity (default 4096).
    pub lane_cap: usize,
    /// How long a blocked emitter waits for the drainer before the overflow
    /// policy takes over. `None` (the default) waits forever under
    /// [`OverflowPolicy::Block`]; ignored under
    /// [`OverflowPolicy::DropOldest`], which never waits.
    pub push_timeout: Option<Duration>,
    /// What happens once the wait is over and the lane is still full.
    pub overflow: OverflowPolicy,
    /// Faults to inject (default: none).
    pub faults: FaultPlan,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            lane_cap: LANE_CAP,
            push_timeout: None,
            overflow: OverflowPolicy::Block,
            faults: FaultPlan::none(),
        }
    }
}

/// A message in one thread's lane.
enum LaneMsg {
    /// A data access (or no-HB-effect marker): analyzable as soon as it is
    /// at the front of its lane.
    Access(Op, Instant),
    /// A synchronization event carrying its global ticket: applied strictly
    /// in ticket order across all lanes.
    Sync(u64, Op, Instant),
    /// Barrier (`k` = the barrier's ticket, pushed to every non-emitting
    /// party while it is still parked) or fork marker (pushed to the child's
    /// fresh lane before the child can run): everything behind this marker
    /// must wait until sync `k` has been applied.
    After(u64),
}

/// One monitored thread's private event buffer: a bounded FIFO drained in
/// batches by the analysis thread, plus the thread's own emit-overhead
/// histogram. Only the owning thread pushes, so the mutexes are effectively
/// uncontended (the drainer takes `q` once per batch, `emit_ns` once per
/// report).
struct Lane {
    q: Mutex<VecDeque<LaneMsg>>,
    /// Messages ever pushed; `report` uses this as its synchronization
    /// target.
    pushed: AtomicU64,
    /// Messages shed under [`OverflowPolicy::DropOldest`] (or a timed-out
    /// block). Counted in the same unit as `pushed`, so `consumed + dropped`
    /// converges on `pushed` and report synchronization still terminates.
    dropped: AtomicU64,
    cap: usize,
    overflow: OverflowPolicy,
    push_timeout: Option<Duration>,
    emit_ns: Mutex<Histogram>,
}

impl Lane {
    fn new(cap: usize, overflow: OverflowPolicy, push_timeout: Option<Duration>) -> Self {
        Lane {
            q: Mutex::new(VecDeque::new()),
            pushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cap,
            overflow,
            push_timeout,
            emit_ns: Mutex::new(Histogram::new()),
        }
    }

    fn push(&self, msg: LaneMsg) {
        // `After` markers are pushed into *other* threads' lanes by an
        // emitter that may hold real locks (e.g. the barrier state mutex);
        // they bypass the capacity bound so that emitter can never be
        // blocked on the analysis thread draining the very lane it gates.
        let bounded = !matches!(msg, LaneMsg::After(_));
        let mut msg = Some(msg);
        // When shedding is allowed, the deadline is how long we block first:
        // zero under DropOldest, `push_timeout` under Block, never when
        // Block has no timeout (the pre-guard wait-forever behaviour).
        let deadline = match self.overflow {
            OverflowPolicy::DropOldest => Some(Instant::now()),
            OverflowPolicy::Block => self.push_timeout.map(|t| Instant::now() + t),
        };
        loop {
            let mut q = lock(&self.q);
            if !bounded || q.len() < self.cap {
                q.push_back(msg.take().expect("pushed at most once"));
                drop(q);
                self.pushed.fetch_add(1, Ordering::Release);
                return;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // Shed the oldest *access*: sync events and After gates
                // carry happens-before edges the drainer cannot reconstruct,
                // so they are never dropped. If the lane somehow holds no
                // droppable access, push over capacity rather than lose an
                // edge. The shed message was already counted in `pushed`;
                // `dropped` balances the books.
                if let Some(pos) = q.iter().position(|m| matches!(m, LaneMsg::Access(..))) {
                    q.remove(pos);
                    self.dropped.fetch_add(1, Ordering::Release);
                }
                q.push_back(msg.take().expect("pushed at most once"));
                drop(q);
                self.pushed.fetch_add(1, Ordering::Release);
                return;
            }
            drop(q);
            // Backpressure: the drainer always consumes leading accesses, so
            // this lane is guaranteed to make room.
            std::thread::yield_now();
        }
    }
}

/// A pending [`Monitor::report`] call: per-lane push counts captured at
/// request time. The drainer replies once it has consumed at least that
/// many messages from every lane, which makes the snapshot reflect every
/// event emitted before the request.
struct SnapshotReq {
    targets: Vec<u64>,
    reply: Arc<ReportSlot>,
}

/// Shared state between the monitored threads and the analysis thread.
struct LaneHub {
    lanes: RwLock<Vec<Option<Arc<Lane>>>>,
    next_ticket: AtomicU64,
    requests: Mutex<Vec<SnapshotReq>>,
    closed: AtomicBool,
    lane_cap: usize,
    overflow: OverflowPolicy,
    push_timeout: Option<Duration>,
}

impl LaneHub {
    fn new(config: &MonitorConfig) -> Self {
        LaneHub {
            lanes: RwLock::new(Vec::new()),
            next_ticket: AtomicU64::new(0),
            requests: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            lane_cap: config.lane_cap.max(1),
            overflow: config.overflow,
            push_timeout: config.push_timeout,
        }
    }

    /// Thread `t`'s lane, created on first use.
    fn lane(&self, t: Tid) -> Arc<Lane> {
        let idx = t.as_usize();
        {
            let lanes = read_lock(&self.lanes);
            if let Some(Some(lane)) = lanes.get(idx) {
                return Arc::clone(lane);
            }
        }
        let mut lanes = write_lock(&self.lanes);
        if idx >= lanes.len() {
            lanes.resize_with(idx + 1, || None);
        }
        Arc::clone(lanes[idx].get_or_insert_with(|| {
            Arc::new(Lane::new(self.lane_cap, self.overflow, self.push_timeout))
        }))
    }

    /// A snapshot of the lane table (cheap: Arc clones).
    fn all_lanes(&self) -> Vec<Option<Arc<Lane>>> {
        read_lock(&self.lanes).clone()
    }

    /// Whether thread `idx`'s lane exists in the live table.
    fn has_lane(&self, idx: usize) -> bool {
        matches!(read_lock(&self.lanes).get(idx), Some(Some(_)))
    }

    /// Issues the next global sync ticket.
    ///
    /// Ticket order is a feasible linearization of the real synchronization
    /// order because every sync event is emitted at a point where its
    /// happens-before predecessors have already been emitted (acquire after
    /// the real lock is held, release while it is still held, fork before
    /// the child runs, join after it finished) — so an HB-earlier sync
    /// always draws the smaller ticket.
    fn ticket(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::AcqRel)
    }
}

struct BufferedSink {
    hub: Arc<LaneHub>,
}

impl BufferedSink {
    fn spawn(detector: Box<dyn Detector + Send>) -> Self {
        Self::spawn_with(detector, &MonitorConfig::default())
    }

    fn spawn_with(detector: Box<dyn Detector + Send>, config: &MonitorConfig) -> Self {
        let hub = Arc::new(LaneHub::new(config));
        let drainer_hub = Arc::clone(&hub);
        let mut state = DetectorState::new(detector);
        state.faults = FaultRunner::from_plan(&config.faults);
        std::thread::spawn(move || drain_loop(&drainer_hub, state));
        BufferedSink { hub }
    }
}

impl EventSink for BufferedSink {
    fn emit(&self, source: Tid, op: Op) {
        let start = Instant::now();
        let lane = self.hub.lane(source);
        match &op {
            Op::Fork(_, child) => {
                let k = self.hub.ticket();
                // The child's lane must exist, gated behind the fork, before
                // the child can emit — and here the child does not even
                // exist yet (fork is logged before `thread::spawn`).
                self.hub.lane(*child).push(LaneMsg::After(k));
                lane.push(LaneMsg::Sync(k, op, start));
            }
            Op::BarrierRelease(parties) => {
                let k = self.hub.ticket();
                // Every other party is still parked inside the barrier, so
                // its lane is quiescent: everything before the marker is
                // pre-barrier, everything it emits after waking is behind it.
                for &p in parties {
                    if p != source {
                        self.hub.lane(p).push(LaneMsg::After(k));
                    }
                }
                lane.push(LaneMsg::Sync(k, op, start));
            }
            other if other.is_sync() => {
                let k = self.hub.ticket();
                lane.push(LaneMsg::Sync(k, op, start));
            }
            _ => lane.push(LaneMsg::Access(op, start)),
        }
        // Thread-local histogram: no cross-thread contention on the hot path.
        lock(&lane.emit_ns).record_duration(start.elapsed());
    }

    fn report(&self) -> OnlineReport {
        let reply = Arc::new(ReportSlot::new());
        let targets: Vec<u64> = self
            .hub
            .all_lanes()
            .iter()
            .map(|slot| {
                slot.as_ref()
                    .map_or(0, |lane| lane.pushed.load(Ordering::Acquire))
            })
            .collect();
        lock(&self.hub.requests).push(SnapshotReq {
            targets,
            reply: Arc::clone(&reply),
        });
        reply.wait()
    }
}

impl Drop for BufferedSink {
    fn drop(&mut self) {
        // The sink drops only after the last Monitor clone: no emit can race
        // this store, so a close observed by the drainer precedes a scan
        // that sees every message.
        self.hub.closed.store(true, Ordering::Release);
    }
}

/// Feeds one analyzable event to the detector, recording the standard
/// queue/analysis instrumentation.
fn feed_timed(state: &mut DetectorState, op: &Op, enqueued_at: Instant, backlog: usize) {
    state.faults.fed += 1;
    if state.faults.slow_every > 0 && state.faults.fed % state.faults.slow_every == 0 {
        // Injected slow consumer: stall the analysis thread so lanes fill
        // up and the backpressure/overflow machinery is exercised for real.
        let jitter = state.faults.prng.next_u64() % 400;
        std::thread::sleep(Duration::from_micros(100 + jitter));
        state.metrics.inc_counter("online.slow_stalls", 1);
    }
    let lag = if state.faults.skew_every > 0 && state.faults.fed % state.faults.skew_every == 0 {
        // Injected clock skew: pretend the producer's clock ran 1ms ahead
        // of ours. Saturating math turns the impossible negative lag into
        // zero instead of panicking mid-drain.
        state.metrics.inc_counter("online.clock_skews", 1);
        Instant::now().saturating_duration_since(enqueued_at + Duration::from_millis(1))
    } else {
        enqueued_at.elapsed()
    };
    state
        .metrics
        .histogram_mut("online.queue_lag_ns")
        .record_duration(lag);
    state
        .metrics
        .histogram_mut("online.queue_depth")
        .record(backlog as u64);
    let start = Instant::now();
    state.feed(op);
    state
        .metrics
        .histogram_mut("online.analysis_ns")
        .record_duration(start.elapsed());
}

/// The drainer's per-lane cursor state.
#[derive(Default)]
struct LaneCursor {
    /// Locally stashed batch, swapped out of the live lane in one lock take.
    stash: VecDeque<LaneMsg>,
    /// Messages consumed from this lane so far (After markers included —
    /// the same unit as [`Lane::pushed`]).
    consumed: u64,
}

/// Whether a join or barrier names a lane that exists but is missing from
/// the drainer's snapshot of `snapshot_len` lanes. Such a lane was created
/// after the snapshot (a fork made it before the sync was emitted), so its
/// accesses cannot be analyzed yet and the edge must wait for the next
/// snapshot. A lane missing from the live table holds no events at all.
fn names_unsnapshotted_lane(op: &Op, snapshot_len: usize, hub: &LaneHub) -> bool {
    let unsnapshotted = |t: &Tid| t.as_usize() >= snapshot_len && hub.has_lane(t.as_usize());
    match op {
        Op::Join(_, child) => unsnapshotted(child),
        Op::BarrierRelease(parties) => parties.iter().any(unsnapshotted),
        _ => false,
    }
}

/// Pumps lane `idx`: analyzes leading accesses eagerly, applies sync events
/// when their ticket is next, stops at a gate (`After`/`Sync` that must
/// wait). Returns `true` if anything was consumed.
fn pump_lane(
    idx: usize,
    hub: &LaneHub,
    lanes: &[Option<Arc<Lane>>],
    cursors: &mut [LaneCursor],
    next_sync: &mut u64,
    state: &mut DetectorState,
) -> bool {
    let Some(Some(lane)) = lanes.get(idx) else {
        return false;
    };
    let mut progress = false;
    loop {
        if cursors[idx].stash.is_empty() {
            std::mem::swap(&mut *lock(&lane.q), &mut cursors[idx].stash);
            if cursors[idx].stash.is_empty() {
                return progress;
            }
        }
        // Classify the head first (ends the shared borrow), then act.
        enum Head {
            Access,
            StaleAfter,
            ApplySync,
        }
        let head = match cursors[idx]
            .stash
            .front()
            .expect("refilled non-empty above")
        {
            LaneMsg::Access(..) => Head::Access,
            LaneMsg::After(k) if *k < *next_sync => Head::StaleAfter,
            LaneMsg::After(_) => return progress,
            LaneMsg::Sync(k, op, _) if *k == *next_sync => {
                if names_unsnapshotted_lane(op, lanes.len(), hub) {
                    return progress;
                }
                Head::ApplySync
            }
            LaneMsg::Sync(..) => return progress,
        };
        match head {
            Head::Access => {
                let Some(LaneMsg::Access(op, at)) = cursors[idx].stash.pop_front() else {
                    unreachable!("head classified as Access");
                };
                let backlog = cursors[idx].stash.len();
                feed_timed(state, &op, at, backlog);
                cursors[idx].consumed += 1;
                progress = true;
            }
            Head::StaleAfter => {
                // The gating sync has already been applied: stale marker.
                cursors[idx].stash.pop_front();
                cursors[idx].consumed += 1;
                progress = true;
            }
            Head::ApplySync => {
                let Some(LaneMsg::Sync(k, op, at)) = cursors[idx].stash.pop_front() else {
                    unreachable!("head classified as Sync");
                };
                cursors[idx].consumed += 1;
                // Cross-lane pre-draining: events that must be analyzed
                // against *pre-edge* clocks are still sitting in other
                // lanes; pull them through before applying the edge.
                match &op {
                    Op::Join(_, child) => {
                        // The child finished before the join was emitted, so
                        // its lane holds only accesses and stale markers —
                        // all consumable now that every ticket < k is done.
                        pump_lane(child.as_usize(), hub, lanes, cursors, next_sync, state);
                    }
                    Op::BarrierRelease(parties) => {
                        for p in parties {
                            if p.as_usize() != idx {
                                pump_to_marker(p.as_usize(), k, lanes, cursors, state);
                            }
                        }
                    }
                    _ => {}
                }
                let backlog = cursors[idx].stash.len();
                feed_timed(state, &op, at, backlog);
                *next_sync += 1;
                progress = true;
            }
        }
    }
}

/// Drains a barrier party's lane up to (and including) its `After(k)`
/// marker: everything ahead of the marker is a pre-barrier access that must
/// be analyzed against the party's pre-barrier clock.
fn pump_to_marker(
    idx: usize,
    k: u64,
    lanes: &[Option<Arc<Lane>>],
    cursors: &mut [LaneCursor],
    state: &mut DetectorState,
) {
    let Some(Some(lane)) = lanes.get(idx) else {
        return;
    };
    loop {
        if cursors[idx].stash.is_empty() {
            std::mem::swap(&mut *lock(&lane.q), &mut cursors[idx].stash);
            if cursors[idx].stash.is_empty() {
                // The marker was pushed before the barrier's Sync message
                // was, so it must be visible here.
                debug_assert!(false, "barrier party lane missing After({k}) marker");
                return;
            }
        }
        match cursors[idx].stash.pop_front().expect("refilled above") {
            LaneMsg::Access(op, at) => {
                let backlog = cursors[idx].stash.len();
                feed_timed(state, &op, at, backlog);
                cursors[idx].consumed += 1;
            }
            LaneMsg::After(kk) if kk == k => {
                cursors[idx].consumed += 1;
                return;
            }
            LaneMsg::After(kk) => {
                debug_assert!(kk < k, "future marker ahead of After({k})");
                cursors[idx].consumed += 1;
            }
            LaneMsg::Sync(kk, op, at) => {
                // Unreachable by the ticket-order argument (any sync ahead
                // of the marker has a smaller ticket and was already
                // applied); degrade gracefully in release builds.
                debug_assert!(false, "unapplied Sync({kk}) ahead of After({k})");
                let backlog = cursors[idx].stash.len();
                feed_timed(state, &op, at, backlog);
                cursors[idx].consumed += 1;
            }
        }
    }
}

/// Builds a report from the detector state plus the per-lane emit
/// histograms (merged, satisfying the "no shared emit histogram" design).
fn build_report(state: &DetectorState, lanes: &[Option<Arc<Lane>>]) -> OnlineReport {
    let mut report = state.report();
    let mut emit = Histogram::new();
    let mut dropped = 0u64;
    for lane in lanes.iter().flatten() {
        emit.merge(&lock(&lane.emit_ns));
        dropped += lane.dropped.load(Ordering::Acquire);
    }
    if emit.count() > 0 {
        report
            .metrics
            .histograms
            .push(("online.emit_ns".to_string(), emit.summary()));
        report.metrics.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
    if dropped > 0 {
        report
            .metrics
            .counters
            .push(("online.dropped_events".to_string(), dropped));
        report.metrics.counters.sort_by(|a, b| a.0.cmp(&b.0));
        report.dropped_events = dropped;
    }
    report
}

/// The analysis thread: repeatedly pump every lane, serve report requests
/// whose targets are met, exit once the hub is closed and fully drained.
fn drain_loop(hub: &LaneHub, mut state: DetectorState) {
    let mut cursors: Vec<LaneCursor> = Vec::new();
    let mut next_sync: u64 = 0;
    loop {
        // Read the close flag *before* scanning: any message pushed before
        // the close is then guaranteed to be seen by this scan, so an idle
        // scan after observing the close means fully drained.
        let was_closed = hub.closed.load(Ordering::Acquire);
        let lanes = hub.all_lanes();
        if cursors.len() < lanes.len() {
            cursors.resize_with(lanes.len(), LaneCursor::default);
        }

        let mut progress = false;
        loop {
            let mut round = false;
            for idx in 0..lanes.len() {
                round |= pump_lane(idx, hub, &lanes, &mut cursors, &mut next_sync, &mut state);
            }
            if !round {
                break;
            }
            progress = true;
        }

        let mut served = false;
        {
            let mut requests = lock(&hub.requests);
            requests.retain(|req| {
                // A shed message will never be consumed; counting a lane's
                // drops toward its target keeps report() from waiting
                // forever on events that no longer exist.
                let met = req.targets.iter().enumerate().all(|(i, &target)| {
                    let consumed = cursors.get(i).map_or(0, |c| c.consumed);
                    let dropped = lanes
                        .get(i)
                        .and_then(|slot| slot.as_ref())
                        .map_or(0, |lane| lane.dropped.load(Ordering::Acquire));
                    consumed + dropped >= target
                });
                if met {
                    req.reply.fill(build_report(&state, &lanes));
                    served = true;
                }
                !met
            });
        }

        if progress || served {
            continue;
        }
        if was_closed {
            break;
        }
        // Idle: nothing consumable and no request ready. Brief sleep instead
        // of a doorbell keeps the emit path free of any shared signaling.
        std::thread::sleep(Duration::from_micros(50));
    }
    // Defensive: answer any stragglers so no reporter blocks forever.
    let lanes = hub.all_lanes();
    for req in lock(&hub.requests).drain(..) {
        req.reply.fill(build_report(&state, &lanes));
    }
}

struct IdAlloc {
    next_tid: u32,
    next_var: u32,
    next_lock: u32,
}

struct MonitorInner {
    sink: Box<dyn EventSink>,
    ids: Mutex<IdAlloc>,
}

impl MonitorInner {
    fn emit(&self, source: Tid, op: Op) {
        self.sink.emit(source, op);
    }
}

/// The final results of a monitored run.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Warnings the detector produced.
    pub warnings: Vec<Warning>,
    /// The detector's statistics.
    pub stats: Stats,
    /// Detector metrics plus monitoring-overhead instrumentation
    /// (`online.emit_ns`, and in buffered mode `online.analysis_ns`,
    /// `online.queue_lag_ns`, `online.queue_depth`; under degradation also
    /// `online.dropped_events`, `online.analysis_panics`,
    /// `online.ops_skipped`, `online.slow_stalls`, `online.clock_skews`).
    pub metrics: Snapshot,
    /// How much to trust `warnings`: [`Precision::Full`] unless the
    /// detector's resource guard degraded (see `fasttrack::guard`).
    pub precision: Precision,
    /// Events shed by overflowing lanes; `0` unless
    /// [`OverflowPolicy::DropOldest`] (or a push timeout) fired. Every shed
    /// event is an access the detector never saw: `emitted ==
    /// stats.ops + dropped_events + ops skipped by panic recovery`.
    pub dropped_events: u64,
}

/// Panic isolation for a detector: checkpoint at every synchronization
/// event, replay on failure.
///
/// A detector bug (or an injected [`Fault::AnalysisPanic`]) must not take
/// the whole monitored program down with it. `Recoverable` clones the inner
/// detector at each successfully-applied synchronization event and keeps a
/// replay log of the accesses applied since. When `on_op` panics, the panic
/// is caught, the detector is restored from the checkpoint, the logged
/// accesses are replayed (they all succeeded once from this exact state),
/// and only the panicking event is skipped — counted in
/// `online.analysis_panics` / `online.ops_skipped`, and reflected in
/// [`Detector::precision`] staying honest about the gap.
///
/// Checkpointing clones the full detector state per sync event; this is a
/// robustness-mode trade, not a fast path (see `docs/OPERATIONS.md`).
///
/// ```
/// use ft_runtime::online::Recoverable;
/// use fasttrack::{Detector, FastTrack};
/// use ft_clock::Tid;
/// use ft_trace::{Op, VarId};
///
/// let mut det = Recoverable::new(FastTrack::new()).with_injected_panic(2);
/// det.on_op(0, &Op::Write(Tid::new(0), VarId::new(0)));
/// det.on_op(1, &Op::Write(Tid::new(0), VarId::new(1))); // panics, recovered
/// det.on_op(2, &Op::Write(Tid::new(0), VarId::new(2)));
/// assert_eq!(det.panics(), 1);
/// assert_eq!(det.stats().writes, 2); // the panicking op is skipped
/// ```
pub struct Recoverable<D: Detector + Clone + Send> {
    live: D,
    checkpoint: D,
    /// Accesses applied since `checkpoint`, for replay after a restore.
    replay: Vec<(usize, Op)>,
    panics: u64,
    skipped: u64,
    inject_at: Option<u64>,
    seen: u64,
}

impl<D: Detector + Clone + Send> Recoverable<D> {
    /// Wraps `detector` with checkpoint/replay panic isolation.
    pub fn new(detector: D) -> Self {
        Recoverable {
            checkpoint: detector.clone(),
            live: detector,
            replay: Vec::new(),
            panics: 0,
            skipped: 0,
            inject_at: None,
            seen: 0,
        }
    }

    /// Arms an injected panic on the `at_op`-th processed event (1-based).
    pub fn with_injected_panic(mut self, at_op: u64) -> Self {
        self.inject_at = Some(at_op);
        self
    }

    /// Panics caught (and recovered from) so far.
    pub fn panics(&self) -> u64 {
        self.panics
    }

    /// Events skipped because they panicked the detector.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl<D: Detector + Clone + Send> Detector for Recoverable<D> {
    fn name(&self) -> &'static str {
        self.live.name()
    }

    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.seen += 1;
        let inject = self.inject_at == Some(self.seen);
        let live = &mut self.live;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected analysis fault at op {index}");
            }
            live.on_op(index, op)
        }));
        match outcome {
            Ok(disposition) => {
                if op.is_sync() {
                    self.checkpoint = self.live.clone();
                    self.replay.clear();
                } else {
                    self.replay.push((index, op.clone()));
                }
                disposition
            }
            Err(_) => {
                // `live` may be mid-update and inconsistent; discard it and
                // rebuild from the last sync snapshot plus the replay log,
                // which excludes the event that just blew up.
                self.panics += 1;
                self.skipped += 1;
                self.live = self.checkpoint.clone();
                for (i, o) in &self.replay {
                    self.live.on_op(*i, o);
                }
                Disposition::Forward
            }
        }
    }

    fn warnings(&self) -> &[Warning] {
        self.live.warnings()
    }

    fn stats(&self) -> &Stats {
        self.live.stats()
    }

    fn shadow_bytes(&self) -> usize {
        self.live.shadow_bytes()
    }

    fn rule_breakdown(&self) -> Vec<fasttrack::RuleCount> {
        self.live.rule_breakdown()
    }

    fn precision(&self) -> Precision {
        self.live.precision()
    }

    fn metrics(&self) -> Snapshot {
        let mut snap = self.live.metrics();
        if self.panics > 0 {
            snap.counters
                .push(("online.analysis_panics".to_string(), self.panics));
            snap.counters
                .push(("online.ops_skipped".to_string(), self.skipped));
            snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        }
        snap
    }
}

/// A handle to the online detector; clone freely and share across threads.
#[derive(Clone)]
pub struct Monitor {
    inner: Arc<MonitorInner>,
}

impl Monitor {
    /// Wraps a detector for online use; events are analyzed synchronously
    /// under a lock. The calling thread becomes thread 0.
    pub fn new<D: Detector + Send + 'static>(detector: D) -> Self {
        Self::with_sink(Box::new(DirectSink {
            state: Mutex::new(DetectorState::new(Box::new(detector))),
        }))
    }

    /// Wraps a detector with *buffered* analysis: each monitored thread
    /// pushes events into its own bounded lane, and a dedicated analysis
    /// thread drains the lanes in batches — applying synchronization events
    /// in their global ticket order so the analyzed stream is always a
    /// feasible linearization of the real execution. Monitored threads pay
    /// only an uncontended enqueue per event. [`Monitor::report`] performs a
    /// synchronizing round-trip, so it observes every event emitted before
    /// it was called.
    pub fn buffered<D: Detector + Send + 'static>(detector: D) -> Self {
        Self::with_sink(Box::new(BufferedSink::spawn(Box::new(detector))))
    }

    /// [`Monitor::buffered`] with explicit robustness configuration: lane
    /// capacity, bounded-wait backpressure, an overflow policy, and a
    /// [`FaultPlan`] to rehearse against. The detector is wrapped in
    /// [`Recoverable`], so an analysis panic loses exactly one event
    /// instead of the run (hence the extra `Clone` bound).
    ///
    /// A [`Fault::LaneOverflow`] in the plan forces `lane_cap` down to its
    /// `cap` and the overflow policy to [`OverflowPolicy::DropOldest`]; a
    /// [`Fault::AnalysisPanic`] arms the injected panic in the wrapper.
    pub fn buffered_with<D>(detector: D, config: MonitorConfig) -> Self
    where
        D: Detector + Clone + Send + 'static,
    {
        let mut config = config;
        let mut recoverable = Recoverable::new(detector);
        for fault in &config.faults.faults {
            match fault {
                Fault::AnalysisPanic { at_op } => {
                    recoverable = recoverable.with_injected_panic(*at_op);
                }
                Fault::LaneOverflow { cap } => {
                    config.lane_cap = *cap;
                    config.overflow = OverflowPolicy::DropOldest;
                }
                Fault::SlowConsumer { .. } | Fault::ClockSkew { .. } => {}
            }
        }
        Self::with_sink(Box::new(BufferedSink::spawn_with(
            Box::new(recoverable),
            &config,
        )))
    }

    fn with_sink(sink: Box<dyn EventSink>) -> Self {
        Monitor {
            inner: Arc::new(MonitorInner {
                sink,
                ids: Mutex::new(IdAlloc {
                    next_tid: 1, // 0 is the root
                    next_var: 0,
                    next_lock: 0,
                }),
            }),
        }
    }

    /// The context for the thread that created the monitor (thread 0).
    pub fn root(&self) -> ThreadCtx {
        ThreadCtx {
            monitor: self.clone(),
            tid: Tid::new(0),
        }
    }

    /// Creates a monitored shared variable holding `initial`.
    pub fn tracked_var<T: Send + Sync>(&self, initial: T) -> TrackedVar<T> {
        let var = {
            let mut s = lock(&self.inner.ids);
            let v = VarId::new(s.next_var);
            s.next_var += 1;
            v
        };
        TrackedVar {
            monitor: self.clone(),
            var,
            value: Arc::new(RwLock::new(initial)),
        }
    }

    /// Creates a monitored mutex protecting `data`.
    pub fn mutex<T: Send>(&self, data: T) -> MonitoredMutex<T> {
        let lock_id = {
            let mut s = lock(&self.inner.ids);
            let m = LockId::new(s.next_lock);
            s.next_lock += 1;
            m
        };
        MonitoredMutex {
            monitor: self.clone(),
            lock_id,
            data: Arc::new(Mutex::new(data)),
        }
    }

    /// Creates a monitored barrier for `parties` threads.
    pub fn barrier(&self, parties: usize) -> MonitoredBarrier {
        MonitoredBarrier {
            monitor: self.clone(),
            inner: Arc::new(BarrierInner {
                state: Mutex::new(BarrierState {
                    arrived: Vec::new(),
                    generation: 0,
                }),
                condvar: Condvar::new(),
                parties,
            }),
        }
    }

    /// Snapshots the detector's warnings, statistics, and metrics. In
    /// buffered mode this synchronizes with the analysis thread, so every
    /// event emitted before the call is reflected.
    pub fn report(&self) -> OnlineReport {
        self.inner.sink.report()
    }

    /// Feeds an already-recorded event straight to the analysis sink,
    /// bypassing the instrumented wrappers. This replays a captured
    /// [`ft_trace::Trace`] through the online machinery — e.g. to measure
    /// the per-event monitoring overhead (`online.emit_ns`, queue lag) on a
    /// realistic event stream. The caller is responsible for the stream
    /// being feasible; the id allocator is not consulted. The event is
    /// attributed to its subject thread's lane (barrier releases to the
    /// first released party).
    pub fn emit_raw(&self, op: Op) {
        let source = op.tid().unwrap_or_else(|| match &op {
            Op::BarrierRelease(parties) => parties.first().copied().unwrap_or(Tid::new(0)),
            _ => Tid::new(0),
        });
        self.inner.emit(source, op);
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor").finish_non_exhaustive()
    }
}

/// A per-thread context carrying the thread's analysis identity.
///
/// Obtained from [`Monitor::root`] or inside a [`ThreadCtx::spawn`] closure.
#[derive(Clone, Debug)]
pub struct ThreadCtx {
    monitor: Monitor,
    tid: Tid,
}

impl ThreadCtx {
    /// This thread's analysis id.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Spawns a monitored thread: emits `fork`, runs `f` with the child's
    /// context, and returns a handle whose [`MonitoredJoinHandle::join`]
    /// emits `join`.
    pub fn spawn<F>(&self, f: F) -> MonitoredJoinHandle
    where
        F: FnOnce(ThreadCtx) + Send + 'static,
    {
        let child_tid = {
            let mut s = lock(&self.monitor.inner.ids);
            let tid = Tid::new(s.next_tid);
            s.next_tid += 1;
            tid
        };
        // Fork is logged before the child can run: program order is sound.
        self.monitor
            .inner
            .emit(self.tid, Op::Fork(self.tid, child_tid));
        let ctx = ThreadCtx {
            monitor: self.monitor.clone(),
            tid: child_tid,
        };
        let handle = std::thread::spawn(move || f(ctx));
        MonitoredJoinHandle {
            monitor: self.monitor.clone(),
            child: child_tid,
            handle,
        }
    }
}

/// Handle returned by [`ThreadCtx::spawn`].
#[derive(Debug)]
pub struct MonitoredJoinHandle {
    monitor: Monitor,
    child: Tid,
    handle: std::thread::JoinHandle<()>,
}

impl MonitoredJoinHandle {
    /// Waits for the child thread, then logs the `join` edge.
    ///
    /// # Panics
    ///
    /// Panics if the child thread panicked.
    pub fn join(self, ctx: &ThreadCtx) {
        self.handle.join().expect("monitored thread panicked");
        // Logged after the child's last event: join order is sound.
        self.monitor
            .inner
            .emit(ctx.tid, Op::Join(ctx.tid, self.child));
    }
}

/// A shared variable whose reads and writes are reported to the detector.
///
/// The value itself is stored behind an internal `RwLock`, so the *data* is
/// always accessed safely — what the detector judges is whether the
/// *logical* accesses are ordered by the monitored synchronization. This is
/// how a Rust program can exhibit (and detect) the access patterns that
/// would be races in C/Java without undefined behaviour.
pub struct TrackedVar<T> {
    monitor: Monitor,
    var: VarId,
    value: Arc<RwLock<T>>,
}

impl<T> Clone for TrackedVar<T> {
    fn clone(&self) -> Self {
        TrackedVar {
            monitor: self.monitor.clone(),
            var: self.var,
            value: Arc::clone(&self.value),
        }
    }
}

impl<T: Clone + Send + Sync> TrackedVar<T> {
    /// Reads the value (logs a `rd` event).
    pub fn get(&self, ctx: &ThreadCtx) -> T {
        self.monitor
            .inner
            .emit(ctx.tid, Op::Read(ctx.tid, self.var));
        self.value.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes the value (logs a `wr` event).
    pub fn set(&self, ctx: &ThreadCtx, value: T) {
        self.monitor
            .inner
            .emit(ctx.tid, Op::Write(ctx.tid, self.var));
        *self.value.write().unwrap_or_else(|e| e.into_inner()) = value;
    }

    /// The analysis id of this variable.
    pub fn var_id(&self) -> VarId {
        self.var
    }
}

impl<T> std::fmt::Debug for TrackedVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedVar")
            .field("var", &self.var)
            .finish()
    }
}

/// A mutex whose acquires and releases are reported to the detector.
pub struct MonitoredMutex<T> {
    monitor: Monitor,
    lock_id: LockId,
    data: Arc<Mutex<T>>,
}

impl<T> Clone for MonitoredMutex<T> {
    fn clone(&self) -> Self {
        MonitoredMutex {
            monitor: self.monitor.clone(),
            lock_id: self.lock_id,
            data: Arc::clone(&self.data),
        }
    }
}

impl<T: Send> MonitoredMutex<T> {
    /// Acquires the mutex; the guard logs the release when dropped.
    pub fn lock(&self, ctx: &ThreadCtx) -> MonitoredGuard<'_, T> {
        let guard = lock(&self.data);
        // Acquire is logged after the real lock is held, release before it
        // is dropped: the logged acquire/release order matches reality.
        self.monitor
            .inner
            .emit(ctx.tid, Op::Acquire(ctx.tid, self.lock_id));
        MonitoredGuard {
            monitor: self.monitor.clone(),
            lock_id: self.lock_id,
            tid: ctx.tid,
            guard: Some(guard),
        }
    }

    /// The analysis id of this lock.
    pub fn lock_id(&self) -> LockId {
        self.lock_id
    }
}

impl<T> std::fmt::Debug for MonitoredMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredMutex")
            .field("lock", &self.lock_id)
            .finish_non_exhaustive()
    }
}

/// Guard for a [`MonitoredMutex`]; logs the release on drop.
pub struct MonitoredGuard<'a, T> {
    monitor: Monitor,
    lock_id: LockId,
    tid: Tid,
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MonitoredGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for MonitoredGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for MonitoredGuard<'_, T> {
    fn drop(&mut self) {
        // Log the release while still holding the real lock.
        self.monitor
            .inner
            .emit(self.tid, Op::Release(self.tid, self.lock_id));
        self.guard.take();
    }
}

/// A condition variable for [`MonitoredMutex`] guards.
///
/// `wait` is modeled per §4 of the paper — "in terms of the underlying
/// release and subsequent acquisition" of the mutex: the release is logged
/// before the thread blocks (while it still holds the real lock) and the
/// acquire after it wakes up holding it again, so any thread that held the
/// mutex in between is correctly ordered. Notifications induce no
/// happens-before edge of their own.
#[derive(Default)]
pub struct MonitoredCondvar {
    condvar: Condvar,
}

impl MonitoredCondvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Releases the guard's mutex, blocks until notified, re-acquires.
    ///
    /// Spurious wakeups are possible, exactly as with [`std::sync::Condvar`];
    /// guard waits with a predicate loop.
    pub fn wait<T>(&self, ctx: &ThreadCtx, guard: &mut MonitoredGuard<'_, T>) {
        let monitor = guard.monitor.clone();
        let lock_id = guard.lock_id;
        // Logged while still holding the real lock (sound release order).
        monitor.inner.emit(ctx.tid, Op::Release(ctx.tid, lock_id));
        // std's Condvar::wait takes the guard by value; park it back after.
        let inner = guard.guard.take().expect("guard present until drop");
        let inner = self.condvar.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(inner);
        // Awake and holding the lock again (sound acquire order).
        monitor.inner.emit(ctx.tid, Op::Acquire(ctx.tid, lock_id));
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.condvar.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.condvar.notify_all();
    }
}

impl std::fmt::Debug for MonitoredCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredCondvar").finish()
    }
}

struct BarrierState {
    arrived: Vec<Tid>,
    generation: u64,
}

struct BarrierInner {
    state: Mutex<BarrierState>,
    condvar: Condvar,
    parties: usize,
}

/// A cyclic barrier whose releases are reported as `barrier_rel(T)` events
/// (the §4 extension).
#[derive(Clone)]
pub struct MonitoredBarrier {
    monitor: Monitor,
    inner: Arc<BarrierInner>,
}

impl MonitoredBarrier {
    /// Blocks until all parties arrive; the last arriver logs the
    /// barrier-release event for the whole set.
    pub fn wait(&self, ctx: &ThreadCtx) {
        let mut state = lock(&self.inner.state);
        let generation = state.generation;
        state.arrived.push(ctx.tid);
        if state.arrived.len() == self.inner.parties {
            let released = std::mem::take(&mut state.arrived);
            state.generation += 1;
            // Logged before anyone is released: post-barrier events of all
            // parties come after the barrier_rel event.
            self.monitor
                .inner
                .emit(ctx.tid, Op::BarrierRelease(released));
            self.inner.condvar.notify_all();
        } else {
            while state.generation == generation {
                state = self
                    .inner
                    .condvar
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

impl std::fmt::Debug for MonitoredBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredBarrier")
            .field("parties", &self.inner.parties)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack::FastTrack;

    #[test]
    fn race_free_locked_counter() {
        let monitor = Monitor::new(FastTrack::new());
        let counter = monitor.tracked_var(0u64);
        let lock = monitor.mutex(());
        let root = monitor.root();

        let handles: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                let lock = lock.clone();
                root.spawn(move |ctx| {
                    for _ in 0..25 {
                        let _g = lock.lock(&ctx);
                        let v = counter.get(&ctx);
                        counter.set(&ctx, v + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join(&root);
        }
        assert_eq!(counter.get(&root), 100);
        let report = monitor.report();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.stats.ops > 100);
    }

    #[test]
    fn unlocked_counter_races() {
        let monitor = Monitor::new(FastTrack::new());
        let counter = monitor.tracked_var(0u64);
        let root = monitor.root();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = counter.clone();
                root.spawn(move |ctx| {
                    let v = counter.get(&ctx);
                    counter.set(&ctx, v + 1);
                })
            })
            .collect();
        for h in handles {
            h.join(&root);
        }
        let report = monitor.report();
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    }

    #[test]
    fn fork_join_publication_is_race_free() {
        let monitor = Monitor::new(FastTrack::new());
        let data = monitor.tracked_var(0u64);
        let root = monitor.root();
        data.set(&root, 41);
        let child = {
            let data = data.clone();
            root.spawn(move |ctx| {
                let v = data.get(&ctx);
                data.set(&ctx, v + 1);
            })
        };
        child.join(&root);
        assert_eq!(data.get(&root), 42);
        assert!(monitor.report().warnings.is_empty());
    }

    #[test]
    fn condvar_handoff_is_race_free() {
        // Producer sets data then signals under the mutex; consumer waits
        // with a predicate loop then reads data WITHOUT the lock — ordered
        // via the condvar's release/acquire, so race-free.
        let monitor = Monitor::new(FastTrack::new());
        let data = monitor.tracked_var(0u64);
        let ready = monitor.mutex(false);
        let cv = Arc::new(MonitoredCondvar::new());
        let root = monitor.root();

        let consumer = {
            let (data, ready, cv) = (data.clone(), ready.clone(), Arc::clone(&cv));
            root.spawn(move |ctx| {
                let mut guard = ready.lock(&ctx);
                while !*guard {
                    cv.wait(&ctx, &mut guard);
                }
                drop(guard);
                assert_eq!(data.get(&ctx), 42);
            })
        };

        data.set(&root, 42);
        {
            let mut guard = ready.lock(&root);
            *guard = true;
            cv.notify_all();
        }
        consumer.join(&root);
        let report = monitor.report();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn condvar_without_predicate_data_transfer_is_caught() {
        // The consumer reads data that was written by the producer WITHOUT
        // any mutex involvement on the producer side: racy.
        let monitor = Monitor::new(FastTrack::new());
        let data = monitor.tracked_var(0u64);
        let gate = monitor.mutex(());
        let cv = Arc::new(MonitoredCondvar::new());
        let root = monitor.root();

        let consumer = {
            let (data, gate, cv) = (data.clone(), gate.clone(), Arc::clone(&cv));
            root.spawn(move |ctx| {
                {
                    let mut g = gate.lock(&ctx);
                    cv.wait(&ctx, &mut g);
                }
                let _ = data.get(&ctx);
            })
        };
        data.set(&root, 7); // no lock: the race
                            // Notify in a loop until the consumer is done, so a wakeup sent
                            // before the consumer reaches its wait cannot hang the test.
        let stop = Arc::new(AtomicBool::new(false));
        let notifier = {
            let (cv, stop) = (Arc::clone(&cv), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cv.notify_all();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            })
        };
        consumer.join(&root);
        stop.store(true, Ordering::Relaxed);
        notifier.join().unwrap();
        let report = monitor.report();
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    }

    #[test]
    fn buffered_mode_matches_direct_mode() {
        for make in [
            Monitor::new::<FastTrack> as fn(FastTrack) -> Monitor,
            Monitor::buffered,
        ] {
            let monitor = make(FastTrack::new());
            let counter = monitor.tracked_var(0u64);
            let lock = monitor.mutex(());
            let racy = monitor.tracked_var(0u64);
            let root = monitor.root();
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let (counter, lock, racy) = (counter.clone(), lock.clone(), racy.clone());
                    root.spawn(move |ctx| {
                        for _ in 0..50 {
                            let _g = lock.lock(&ctx);
                            let v = counter.get(&ctx);
                            counter.set(&ctx, v + 1);
                        }
                        racy.set(&ctx, 1);
                    })
                })
                .collect();
            for h in handles {
                h.join(&root);
            }
            let report = monitor.report();
            assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
            assert_eq!(counter.get(&root), 150);
            // report() after the final join observes every event.
            assert!(report.stats.ops >= 3 * (50 * 4) as u64);
        }
    }

    #[test]
    fn buffered_report_synchronizes_with_emitted_events() {
        let monitor = Monitor::buffered(FastTrack::new());
        let v = monitor.tracked_var(0u8);
        let root = monitor.root();
        for _ in 0..1_000 {
            v.set(&root, 1);
        }
        // All 1000 writes were emitted before this call; the snapshot
        // round-trip must reflect them even though analysis is async.
        assert_eq!(monitor.report().stats.writes, 1_000);
    }

    #[test]
    fn barrier_phases_are_race_free() {
        let monitor = Monitor::new(FastTrack::new());
        let a = monitor.tracked_var(0u64);
        let b = monitor.tracked_var(0u64);
        let barrier = monitor.barrier(2);
        let root = monitor.root();
        let child = {
            let (a, b, barrier) = (a.clone(), b.clone(), barrier.clone());
            root.spawn(move |ctx| {
                a.set(&ctx, 1);
                barrier.wait(&ctx);
                let _ = b.get(&ctx);
            })
        };
        b.set(&root, 1);
        barrier.wait(&root);
        let _ = a.get(&root);
        child.join(&root);
        assert!(monitor.report().warnings.is_empty());
    }

    #[test]
    fn direct_report_carries_overhead_metrics() {
        let monitor = Monitor::new(FastTrack::new());
        let v = monitor.tracked_var(0u8);
        let root = monitor.root();
        for _ in 0..100 {
            v.set(&root, 1);
        }
        let report = monitor.report();
        let emit = report.metrics.histogram("online.emit_ns").unwrap();
        assert_eq!(emit.count, 100);
        assert!(emit.p99 >= emit.p50);
        assert_eq!(report.metrics.counter("writes"), Some(100));
        assert_eq!(report.metrics.meta("tool"), Some("FASTTRACK"));
    }

    #[test]
    fn buffered_barrier_phases_are_race_free() {
        // Exercises the After(k) gating: each party's post-barrier reads
        // must be analyzed after the barrier edge even though the parties
        // emit into independent lanes.
        let monitor = Monitor::buffered(FastTrack::new());
        let a = monitor.tracked_var(0u64);
        let b = monitor.tracked_var(0u64);
        let barrier = monitor.barrier(2);
        let root = monitor.root();
        let child = {
            let (a, b, barrier) = (a.clone(), b.clone(), barrier.clone());
            root.spawn(move |ctx| {
                for _ in 0..20 {
                    a.set(&ctx, 1);
                    barrier.wait(&ctx);
                    let _ = b.get(&ctx);
                    barrier.wait(&ctx);
                }
            })
        };
        for _ in 0..20 {
            b.set(&root, 1);
            barrier.wait(&root);
            let _ = a.get(&root);
            barrier.wait(&root);
        }
        child.join(&root);
        let report = monitor.report();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(report.stats.reads, 40);
        assert_eq!(report.stats.writes, 40);
    }

    #[test]
    fn buffered_lock_discipline_across_many_threads() {
        // Heavier interleaving: sync tickets from four lanes must serialize
        // correctly; any mis-ordering shows up as a spurious warning.
        let monitor = Monitor::buffered(FastTrack::new());
        let shared = monitor.tracked_var(0u64);
        let lock = monitor.mutex(());
        let root = monitor.root();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (shared, lock) = (shared.clone(), lock.clone());
                root.spawn(move |ctx| {
                    for _ in 0..200 {
                        let _g = lock.lock(&ctx);
                        let v = shared.get(&ctx);
                        shared.set(&ctx, v + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join(&root);
        }
        assert_eq!(shared.get(&root), 800);
        let report = monitor.report();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(report.stats.writes, 800);
    }

    #[test]
    fn buffered_replay_agrees_with_sequential_on_racy_vars() {
        // emit_raw replays a generated trace through the lane machinery from
        // one thread; the linearization may reorder unordered accesses, so
        // compare the *racy variable* verdicts, which are
        // linearization-independent, against the offline detector.
        use ft_trace::gen::{self, GenConfig};
        let trace = gen::generate(&GenConfig::default().with_races(0.05), 97);
        let mut seq = FastTrack::new();
        seq.run(&trace);
        let seq_vars: std::collections::BTreeSet<_> =
            seq.warnings().iter().map(|w| w.var).collect();

        let monitor = Monitor::buffered(FastTrack::new());
        for op in trace.events() {
            monitor.emit_raw(op.clone());
        }
        let report = monitor.report();
        let online_vars: std::collections::BTreeSet<_> =
            report.warnings.iter().map(|w| w.var).collect();
        assert_eq!(online_vars, seq_vars);
        assert_eq!(report.stats.ops, trace.len() as u64);
        assert_eq!(report.stats.sync_ops, seq.stats().sync_ops);
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let plan = FaultPlan::parse("9:overflow@32, slow@4,skew@10,panic@100").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(
            plan.faults,
            vec![
                Fault::LaneOverflow { cap: 32 },
                Fault::SlowConsumer { every: 4 },
                Fault::ClockSkew { every: 10 },
                Fault::AnalysisPanic { at_op: 100 },
            ]
        );
        for bad in [
            "overflow@32",
            "x:slow@4",
            "7:bogus@1",
            "7:slow",
            "7:overflow@0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn analysis_panic_is_recovered_and_accounted() {
        let config = MonitorConfig {
            faults: FaultPlan::parse("1:panic@3").unwrap(),
            ..MonitorConfig::default()
        };
        let monitor = Monitor::buffered_with(FastTrack::new(), config);
        // Three writes from thread 0, fed in lane order: the third panics
        // the detector and is skipped; the replay restores writes 1 and 2.
        for x in 0..3 {
            monitor.emit_raw(Op::Write(Tid::new(0), VarId::new(x)));
        }
        let mid = monitor.report();
        assert_eq!(mid.stats.writes, 2, "panicking op must be skipped");
        // After recovery the detector still works: an unordered write from
        // another thread to x0 is a race, and x0's shadow state survived
        // the restore.
        monitor.emit_raw(Op::Write(Tid::new(1), VarId::new(0)));
        let report = monitor.report();
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert_eq!(report.stats.writes, 3);
        assert_eq!(report.metrics.counter("online.analysis_panics"), Some(1));
        assert_eq!(report.metrics.counter("online.ops_skipped"), Some(1));
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn overflow_drop_oldest_accounts_for_every_event() {
        // A tiny lane, a deliberately slow consumer: the producer must
        // overflow, the monitor must drop (not deadlock), and the books
        // must balance: emitted == analyzed + dropped.
        let config = MonitorConfig {
            faults: FaultPlan::parse("9:overflow@32,slow@4").unwrap(),
            ..MonitorConfig::default()
        };
        let monitor = Monitor::buffered_with(FastTrack::new(), config);
        let v = monitor.tracked_var(0u8);
        let root = monitor.root();
        const EMITTED: u64 = 1500;
        for _ in 0..EMITTED {
            v.set(&root, 1);
        }
        let report = monitor.report();
        assert!(report.dropped_events > 0, "a 32-slot lane must overflow");
        assert_eq!(
            report.stats.writes + report.dropped_events,
            EMITTED,
            "every dropped event must be counted"
        );
        assert_eq!(
            report.metrics.counter("online.dropped_events"),
            Some(report.dropped_events)
        );
        assert!(report.metrics.counter("online.slow_stalls").unwrap_or(0) > 0);
    }

    #[test]
    fn clock_skew_saturates_queue_lag() {
        let config = MonitorConfig {
            faults: FaultPlan::parse("3:skew@2").unwrap(),
            ..MonitorConfig::default()
        };
        let monitor = Monitor::buffered_with(FastTrack::new(), config);
        let v = monitor.tracked_var(0u8);
        let root = monitor.root();
        for _ in 0..100 {
            v.set(&root, 1);
        }
        let report = monitor.report();
        assert_eq!(report.stats.writes, 100);
        assert_eq!(report.metrics.counter("online.clock_skews"), Some(50));
        // Lag histogram still recorded one entry per event, skewed or not.
        let lag = report.metrics.histogram("online.queue_lag_ns").unwrap();
        assert_eq!(lag.count, 100);
    }

    #[test]
    fn buffered_with_defaults_matches_buffered() {
        let monitor = Monitor::buffered_with(FastTrack::new(), MonitorConfig::default());
        let v = monitor.tracked_var(0u8);
        let root = monitor.root();
        for _ in 0..200 {
            v.set(&root, 1);
        }
        let report = monitor.report();
        assert_eq!(report.stats.writes, 200);
        assert_eq!(report.dropped_events, 0);
        assert!(matches!(report.precision, Precision::Full));
        assert_eq!(report.metrics.counter("online.analysis_panics"), None);
    }

    #[test]
    fn buffered_report_carries_queue_metrics() {
        let monitor = Monitor::buffered(FastTrack::new());
        let v = monitor.tracked_var(0u8);
        let root = monitor.root();
        for _ in 0..500 {
            v.set(&root, 1);
        }
        let report = monitor.report();
        for h in [
            "online.emit_ns",
            "online.analysis_ns",
            "online.queue_lag_ns",
            "online.queue_depth",
        ] {
            let summary = report.metrics.histogram(h).unwrap_or_else(|| {
                panic!("missing histogram {h}: {:?}", report.metrics.histograms)
            });
            assert_eq!(summary.count, 500, "{h}");
        }
    }

    /// A join or barrier can name a lane created after the drainer last
    /// read the lane table: thread 0's long run of writes keeps the drainer
    /// busy on one snapshot while thread 1 is forked, writes and is joined
    /// (or released with thread 0 by a barrier). The edge must wait until
    /// thread 1's write has been analyzed; applied early, the drainer would
    /// report thread 0's later write as racing with it.
    #[test]
    fn sync_naming_a_lane_created_mid_drain_waits_for_it() {
        let (t0, t1, x) = (Tid::new(0), Tid::new(1), VarId::new(5_000));
        for tail in [Op::Join(t0, t1), Op::BarrierRelease(vec![t0, t1])] {
            let (tx, rx) = std::sync::mpsc::channel();
            let edge = tail.clone();
            // Not joined: if the drainer dies, report() waits for good.
            std::thread::spawn(move || {
                let monitor = Monitor::buffered(FastTrack::new());
                for i in 0..200_000 {
                    monitor.emit_raw(Op::Write(t0, VarId::new(i % 1_000)));
                }
                monitor.emit_raw(Op::Fork(t0, t1));
                monitor.emit_raw(Op::Write(t1, x));
                monitor.emit_raw(edge);
                monitor.emit_raw(Op::Write(t0, x));
                let _ = tx.send(monitor.report());
            });
            let report = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("report() did not return: the drainer is gone");
            assert_eq!(report.stats.ops, 200_004, "{tail:?}");
            assert!(
                report.warnings.is_empty(),
                "{tail:?} applied before thread 1's write: {:?}",
                report.warnings
            );
        }
    }
}
