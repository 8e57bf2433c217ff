//! The happens-before synchronization engine: Figure 5's `[FT ACQUIRE]`,
//! `[FT RELEASE]`, `[FT FORK]` and `[FT JOIN]`, plus the §4 volatile,
//! wait and barrier extensions.
//!
//! Every happens-before detector in this repository — FastTrack, the
//! `ft-sampler` tier and the DJIT⁺/BasicVC/MultiRace baselines — handles
//! synchronization through one [`SyncEngine`]; they differ only in how they
//! handle accesses, which is the paper's methodology ("all tools share one
//! framework", §5). The engine owns the thread clocks `C`, the lock clocks
//! `L_m`, the volatile clocks `L_vx` and the fast-lane bookkeeping that
//! skips joins which are the identity:
//!
//! * a **seen-version** stamp per (thread, lock) and (thread, volatile):
//!   the thread already joined this exact clock;
//! * the **release epoch** of a lock: `C_t(r) ≥ c` for the releaser's
//!   pre-increment epoch `c@r` implies `C_t ⊒ L_m`;
//! * the barrier **epoch rebuild**: with the same participants and no
//!   foreign-entry join since the previous barrier, the joined clock is the
//!   previous one with each participant's own lane advanced.
//!
//! A skipped join changes no clock, so every detector's verdicts are those
//! of the plain Figure 5 rules; only the `Stats` counters see the lanes.

use crate::state::{LockClock, ThreadState, VolatileClock};
use crate::stats::Stats;
use ft_clock::{Tid, VectorClock};
use ft_trace::batch::opcode;
use ft_trace::{LockId, Op, VarId};

/// Thread, lock and volatile clocks with the Figure 5 synchronization
/// handlers. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct SyncEngine {
    threads: Vec<Option<ThreadState>>,
    /// `L_m` per lock, allocated on first release, stamped with the
    /// releaser's epoch and a version for the O(1) acquire fast path.
    locks: Vec<Option<LockClock>>,
    /// `L_vx` per volatile variable (§4 extends `L` over volatiles),
    /// version-stamped so redundant re-reads skip the join.
    volatiles: Vec<Option<VolatileClock>>,
    /// Reused join target for `[FT BARRIER RELEASE]` — barriers are
    /// steady-state events, so the scratch clock is allocated once per
    /// engine instead of once per barrier.
    barrier_scratch: VectorClock,
    /// Generation counter bumped whenever any thread clock gains *foreign*
    /// entries (acquire/volatile-read slow joins, fork, join). Between two
    /// barriers with no such event and an unchanged participant set, every
    /// participant's clock is the previous barrier's joined clock with only
    /// its own lane advanced — so the next joined clock is the scratch with
    /// each participant lane set to that thread's current epoch, O(|T|)
    /// lane writes instead of |T| full vector joins.
    sync_gen: u64,
    /// `sync_gen` snapshot taken at the end of the last barrier.
    barrier_gen: u64,
    /// Participant set of the last barrier (order-sensitive by design:
    /// barrier ops replay deterministically, so the common case is an
    /// identical slice).
    barrier_parts: Vec<Tid>,
}

impl Default for SyncEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncEngine {
    /// An engine in the paper's initial state: no thread, lock or volatile
    /// clock exists yet.
    pub fn new() -> Self {
        SyncEngine {
            threads: Vec::new(),
            locks: Vec::new(),
            volatiles: Vec::new(),
            barrier_scratch: VectorClock::new(),
            sync_gen: 0,
            barrier_gen: u64::MAX,
            barrier_parts: Vec::new(),
        }
    }

    /// The state of thread `t`, created at `incₜ(⊥ᵥ)` on first use (which
    /// charges one `vc_allocated`).
    ///
    /// # Panics
    ///
    /// Panics with an epoch-overflow message for a thread id above
    /// [`ft_clock::MAX_TID`].
    #[inline]
    pub fn thread(&mut self, t: Tid, stats: &mut Stats) -> &mut ThreadState {
        let idx = t.as_usize();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, || None);
        }
        let slot = &mut self.threads[idx];
        if slot.is_none() {
            stats.vc_allocated += 1; // the thread's own C_t
            *slot = Some(ThreadState::new(t));
        }
        slot.as_mut().expect("just initialized")
    }

    /// The thread slab, indexed by thread id; `None` for a thread not seen
    /// yet. Access paths probe it without creating state.
    #[inline]
    pub fn threads(&self) -> &[Option<ThreadState>] {
        &self.threads
    }

    /// The vector clock `C_t` of a thread already created by
    /// [`SyncEngine::thread`].
    ///
    /// # Panics
    ///
    /// Panics if `t` has no state yet.
    #[inline]
    pub fn clock(&self, t: Tid) -> &VectorClock {
        &self.threads[t.as_usize()]
            .as_ref()
            .expect("thread state created before use")
            .vc
    }

    /// Every lock clock `L_m`, then every volatile clock `L_vx`, in id
    /// order; `None` where none was published yet.
    pub fn sync_clocks(&self) -> impl Iterator<Item = Option<&VectorClock>> {
        let locks = self.locks.iter().map(|s| s.as_ref().map(|l| &l.vc));
        let volatiles = self.volatiles.iter().map(|s| s.as_ref().map(|v| &v.vc));
        locks.chain(volatiles)
    }

    /// Applies one event given as its raw [`EventBlock`](ft_trace::EventBlock)
    /// fields: `kind` is an [`opcode`], `a` its argument, and `members` the
    /// participant set of a barrier (ignored for every other kind).
    /// Accesses and the no-effect markers (`notify`, atomic begin/end) are
    /// ignored; every synchronization event counts one `sync_ops`.
    #[inline]
    pub fn apply(&mut self, kind: u8, t: Tid, a: u32, members: &[Tid], stats: &mut Stats) {
        match kind {
            opcode::ACQUIRE => {
                stats.sync_ops += 1;
                self.acquire(t, LockId::new(a), stats);
            }
            opcode::RELEASE => {
                stats.sync_ops += 1;
                self.release(t, LockId::new(a), stats);
            }
            opcode::FORK => {
                stats.sync_ops += 1;
                self.fork(t, Tid::new(a), stats);
            }
            opcode::JOIN => {
                stats.sync_ops += 1;
                self.join(t, Tid::new(a), stats);
            }
            opcode::VOLATILE_READ => {
                stats.sync_ops += 1;
                self.volatile_read(t, VarId::new(a), stats);
            }
            opcode::VOLATILE_WRITE => {
                stats.sync_ops += 1;
                self.volatile_write(t, VarId::new(a), stats);
            }
            opcode::WAIT => {
                // §4: wait = release + subsequent acquire.
                stats.sync_ops += 1;
                self.release(t, LockId::new(a), stats);
                self.acquire(t, LockId::new(a), stats);
            }
            opcode::BARRIER => {
                stats.sync_ops += 1;
                self.barrier_release(members, stats);
            }
            _ => {
                // Accesses belong to the caller; NOTIFY / ATOMIC_BEGIN /
                // ATOMIC_END have no happens-before effect (§4: "A notify
                // operation can be ignored").
            }
        }
    }

    /// [`SyncEngine::apply`] for a decoded [`Op`], the front for
    /// [`Detector::on_op`](crate::Detector::on_op) drivers.
    // Outlined so an `on_op` dispatch that inlines it stays as small as its
    // access arms (the sampler's skip path is one compare per access).
    #[inline(never)]
    pub fn apply_op(&mut self, op: &Op, stats: &mut Stats) {
        let (kind, t, a, members) = op.parts();
        self.apply(kind, t, a, members, stats);
    }

    /// Split borrow into the thread slab: mutable `dst`, shared `src`.
    /// Both slots must already be ensured, and `dst != src` — this is what
    /// lets fork/join join one clock into another without cloning the
    /// source first.
    #[inline]
    fn thread_pair(
        threads: &mut [Option<ThreadState>],
        dst: usize,
        src: usize,
    ) -> (&mut ThreadState, &ThreadState) {
        debug_assert_ne!(dst, src);
        if dst < src {
            let (lo, hi) = threads.split_at_mut(src);
            (
                lo[dst].as_mut().expect("ensured"),
                hi[0].as_ref().expect("ensured"),
            )
        } else {
            let (lo, hi) = threads.split_at_mut(dst);
            (
                hi[0].as_mut().expect("ensured"),
                lo[src].as_ref().expect("ensured"),
            )
        }
    }

    /// `[FT ACQUIRE]`: `C_t := C_t ⊔ L_m`.
    ///
    /// Two O(1) fast paths run before the O(n) join:
    ///
    /// 1. **seen-version** — one load: `t` already joined this exact clock
    ///    (same [`LockClock::version`]), so the join is the identity;
    /// 2. **release-epoch** — `C_t(r) ≥ c` for the releaser's pre-increment
    ///    epoch `c@r` implies `C_t ⊒ L_m` (release *assigns* the whole
    ///    clock and every published clock is followed by an increment, so
    ///    `C_t(r) ≥ c` only arises via a synchronization chain from at or
    ///    after that release), making the join the identity again.
    ///
    /// The miss path is a clone-free split-borrow join.
    fn acquire(&mut self, t: Tid, m: LockId, stats: &mut Stats) {
        self.thread(t, stats); // ensure exists
        let idx = m.as_usize();
        let Some(Some(lm)) = self.locks.get(idx) else {
            return; // never released: L_m = ⊥ᵥ, join is the identity
        };
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        if ts.seen_lock(idx) == lm.version || lm.rel.happens_before(&ts.vc) {
            stats.sync_fastpath_hits += 1;
            ts.note_lock(idx, lm.version);
            return;
        }
        stats.sync_slow_joins += 1;
        stats.vc_ops += 1;
        self.sync_gen += 1;
        ts.vc.join(&lm.vc);
        ts.refresh_epoch();
        ts.note_lock(idx, lm.version);
    }

    /// `[FT RELEASE]`: `L_m := C_t; C_t := incₜ(C_t)`.
    ///
    /// The lock clock is stamped with the releaser's pre-increment epoch
    /// (the acquire fast path's certificate) and its version is bumped so
    /// stale seen-version stamps stop matching.
    fn release(&mut self, t: Tid, m: LockId, stats: &mut Stats) {
        self.thread(t, stats);
        let idx = m.as_usize();
        if idx >= self.locks.len() {
            self.locks.resize_with(idx + 1, || None);
        }
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        stats.vc_ops += 1; // O(n) copy
        match &mut self.locks[idx] {
            Some(lm) => {
                lm.vc.assign(&ts.vc);
                lm.rel = ts.epoch;
                lm.version += 1;
            }
            slot @ None => {
                stats.vc_allocated += 1;
                *slot = Some(LockClock::new(ts.vc.clone(), ts.epoch));
            }
        }
        ts.inc();
    }

    /// `[FT FORK]`: `C_u := C_u ⊔ C_t; C_t := incₜ(C_t)`.
    ///
    /// No O(1) skip exists here: every outgoing publication of `C_t` is
    /// followed by an increment, so the child can never already dominate
    /// the parent's *current* clock — the join always does work. It is a
    /// clone-free split borrow instead.
    fn fork(&mut self, t: Tid, u: Tid, stats: &mut Stats) {
        self.thread(t, stats);
        self.thread(u, stats);
        stats.vc_ops += 1;
        if t != u {
            self.sync_gen += 1;
            let (us, ct) = Self::thread_pair(&mut self.threads, u.as_usize(), t.as_usize());
            us.vc.join(&ct.vc);
            us.refresh_epoch();
        }
        self.threads[t.as_usize()].as_mut().expect("ensured").inc();
    }

    /// `[FT JOIN]`: `C_t := C_t ⊔ C_u; C_u := inc_u(C_u)`.
    ///
    /// Clone-free for the same reason as [`SyncEngine::fork`] — and like
    /// fork, a skip check can never fire, so none is attempted.
    fn join(&mut self, t: Tid, u: Tid, stats: &mut Stats) {
        self.thread(t, stats);
        self.thread(u, stats);
        stats.vc_ops += 1;
        if t != u {
            self.sync_gen += 1;
            let (ts, cu) = Self::thread_pair(&mut self.threads, t.as_usize(), u.as_usize());
            ts.vc.join(&cu.vc);
            ts.refresh_epoch();
        }
        self.threads[u.as_usize()].as_mut().expect("ensured").inc();
    }

    /// `[FT READ VOLATILE]`: `C_t := C_t ⊔ L_vx` (§4).
    ///
    /// `L_vx` is a *join* of every writer, so no single release epoch
    /// summarizes it — the seen-version stamp is the only O(1) skip: if `t`
    /// already joined this exact clock version, the re-join is the
    /// identity.
    fn volatile_read(&mut self, t: Tid, x: VarId, stats: &mut Stats) {
        self.thread(t, stats);
        let idx = x.as_usize();
        let Some(Some(lv)) = self.volatiles.get(idx) else {
            return; // never written: L_vx = ⊥ᵥ
        };
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        if ts.seen_volatile(idx) == lv.version {
            stats.sync_fastpath_hits += 1;
            return;
        }
        stats.sync_slow_joins += 1;
        stats.vc_ops += 1;
        self.sync_gen += 1;
        ts.vc.join(&lv.vc);
        ts.refresh_epoch();
        ts.note_volatile(idx, lv.version);
    }

    /// `[FT WRITE VOLATILE]`: `L_vx := C_t ⊔ L_vx; C_t := incₜ(C_t)` (§4).
    fn volatile_write(&mut self, t: Tid, x: VarId, stats: &mut Stats) {
        self.thread(t, stats);
        let idx = x.as_usize();
        if idx >= self.volatiles.len() {
            self.volatiles.resize_with(idx + 1, || None);
        }
        let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
        stats.vc_ops += 1;
        match &mut self.volatiles[idx] {
            Some(lv) => {
                lv.vc.join(&ts.vc);
                lv.version += 1;
            }
            slot @ None => {
                stats.vc_allocated += 1;
                *slot = Some(VolatileClock::new(ts.vc.clone()));
            }
        }
        ts.inc();
    }

    /// `[FT BARRIER RELEASE]`: every `t ∈ T` gets `C_t := incₜ(⊔_{u∈T} C_u)`
    /// (§4).
    ///
    /// The join target is the engine-lifetime scratch clock — barriers are
    /// steady-state events in phased programs, so they must not charge an
    /// allocation per phase. In the steady state (same participant set, no
    /// foreign-entry joins since the previous barrier, as tracked by
    /// `sync_gen`), every participant's clock is the previous joined clock
    /// with only its own lane advanced, so the new joined clock is rebuilt
    /// from per-thread epochs in O(|T|) lane writes instead of |T| full
    /// vector joins.
    fn barrier_release(&mut self, threads: &[Tid], stats: &mut Stats) {
        let epoch_rebuild = self.barrier_gen == self.sync_gen
            && self.barrier_parts == threads
            && !threads.is_empty();
        let mut joined = std::mem::take(&mut self.barrier_scratch);
        if epoch_rebuild {
            // Scratch still holds ⊔ of the previous phase; only the
            // participants' own lanes moved since (release/volatile-write
            // increments), and each one's current value is its epoch.
            stats.sync_fastpath_hits += 1;
            for &u in threads {
                let e = self.threads[u.as_usize()]
                    .as_ref()
                    .expect("participant")
                    .epoch;
                joined.set(u, e.clock());
            }
        } else {
            joined.clear();
            for &u in threads {
                self.thread(u, stats);
                stats.vc_ops += 1;
                joined.join(&self.threads[u.as_usize()].as_ref().expect("ensured").vc);
            }
        }
        for &t in threads {
            stats.vc_ops += 1;
            let ts = self.threads[t.as_usize()].as_mut().expect("ensured");
            ts.vc.assign(&joined);
            ts.inc();
        }
        self.barrier_scratch = joined;
        self.barrier_gen = self.sync_gen;
        if self.barrier_parts != threads {
            self.barrier_parts.clear();
            self.barrier_parts.extend_from_slice(threads);
        }
    }

    /// Bytes held by the thread, lock and volatile clocks (the barrier
    /// scratch clock is working memory, not shadow state).
    pub fn shadow_bytes(&self) -> usize {
        let threads: usize = self
            .threads
            .iter()
            .flatten()
            .map(|ts| std::mem::size_of::<ThreadState>() + ts.vc.heap_bytes() + ts.seen_bytes())
            .sum();
        let locks: usize = self
            .locks
            .iter()
            .flatten()
            .map(|lk| std::mem::size_of::<LockClock>() + lk.vc.heap_bytes())
            .sum();
        let volatiles: usize = self
            .volatiles
            .iter()
            .flatten()
            .map(|lv| std::mem::size_of::<VolatileClock>() + lv.vc.heap_bytes())
            .sum();
        threads + locks + volatiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Tid = Tid::new(0);
    const T1: Tid = Tid::new(1);
    const M: LockId = LockId::new(0);

    fn op(e: &mut SyncEngine, stats: &mut Stats, o: Op) {
        e.apply_op(&o, stats);
    }

    #[test]
    fn release_acquire_transfers_time() {
        let mut e = SyncEngine::new();
        let mut stats = Stats::new();
        e.thread(T0, &mut stats);
        op(&mut e, &mut stats, Op::Release(T0, M));
        op(&mut e, &mut stats, Op::Acquire(T1, M));
        assert_eq!(e.clock(T1).get(T0), 1, "t1 saw t0's release-time clock");
        assert_eq!(stats.sync_ops, 2);
        assert_eq!(stats.sync_slow_joins, 1);
        // Re-acquiring the same release is the identity: the fast lane.
        op(&mut e, &mut stats, Op::Acquire(T1, M));
        assert_eq!(stats.sync_fastpath_hits, 1);
        assert_eq!(stats.vc_ops, 2, "one copy and one join");
    }

    #[test]
    fn fork_join_round_trip() {
        let mut e = SyncEngine::new();
        let mut stats = Stats::new();
        op(&mut e, &mut stats, Op::Fork(T0, T1));
        assert_eq!(e.clock(T1).get(T0), 1);
        op(&mut e, &mut stats, Op::Join(T0, T1));
        assert_eq!(e.clock(T0).get(T1), 1);
        assert_eq!(e.clock(T1).get(T1), 2, "join advances the joinee");
    }

    #[test]
    fn barrier_merges_everyone() {
        let mut e = SyncEngine::new();
        let mut stats = Stats::new();
        let ts: Vec<Tid> = (0..3).map(Tid::new).collect();
        for &t in &ts {
            e.thread(t, &mut stats);
        }
        let allocated = stats.vc_allocated;
        for round in 1..=2u32 {
            op(&mut e, &mut stats, Op::BarrierRelease(ts.clone()));
            for &t in &ts {
                for &u in &ts {
                    assert!(e.clock(t).get(u) >= round, "{t} missing {u}'s time");
                }
            }
        }
        assert_eq!(stats.sync_fastpath_hits, 1, "second barrier rebuilds");
        assert_eq!(stats.vc_allocated, allocated, "no clock per barrier");
    }

    #[test]
    fn allocation_accounting() {
        let mut e = SyncEngine::new();
        let mut stats = Stats::new();
        e.thread(T0, &mut stats);
        e.thread(T0, &mut stats); // cached
        assert_eq!(stats.vc_allocated, 1);
        op(&mut e, &mut stats, Op::Release(T0, M));
        assert_eq!(stats.vc_allocated, 2); // L_m allocated
        op(&mut e, &mut stats, Op::Release(T0, M));
        assert_eq!(stats.vc_allocated, 2); // reused
        op(&mut e, &mut stats, Op::VolatileWrite(T0, VarId::new(3)));
        assert_eq!(stats.vc_allocated, 3); // L_vx allocated
        assert!(e.shadow_bytes() > 0);
    }

    #[test]
    fn markers_and_accesses_touch_no_clock() {
        let mut e = SyncEngine::new();
        let mut stats = Stats::new();
        op(&mut e, &mut stats, Op::Notify(T0, M));
        op(&mut e, &mut stats, Op::AtomicBegin(T0));
        op(&mut e, &mut stats, Op::Write(T0, VarId::new(0)));
        assert_eq!(stats, Stats::new());
        assert!(e.threads().is_empty());
    }
}
