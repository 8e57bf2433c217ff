//! MULTIRACE: the hybrid LockSet/DJIT⁺ detector (Pozniansky & Schuster).

use crate::eraser::VarPhase;
use crate::lockset::LockSet;
use crate::{concurrent_witness, report_once};
use fasttrack::{Detector, Disposition, RuleCount, Stats, SyncEngine, Warning, WarningKind};
use ft_clock::{Tid, VectorClock};
use ft_trace::{AccessKind, Op, VarId};

#[derive(Debug)]
struct MrVar {
    phase: VarPhase,
    lockset: LockSet,
    r: VectorClock,
    w: VectorClock,
    last: Option<(Tid, AccessKind)>,
    /// Barrier generation of the lockset half (O(1) barrier reset).
    generation: u32,
}

impl Default for MrVar {
    fn default() -> Self {
        MrVar {
            phase: VarPhase::Virgin,
            lockset: LockSet::new(),
            r: VectorClock::new(),
            w: VectorClock::new(),
            last: None,
            generation: 0,
        }
    }
}

#[derive(Debug, Default)]
struct RuleHits {
    same_epoch: u64,
    lockset_only: u64,
    vc_checks: u64,
}

/// MultiRace "maintains DJIT⁺'s instrumentation state, as well as a lock set
/// for each memory location. The checker updates the lock set for a location
/// on the first access in an epoch, and full vector clock comparisons are
/// performed after this lock set becomes empty" (§5.1).
///
/// Warnings are vector-clock confirmed, so MultiRace never reports a false
/// alarm — but "the use of Eraser's unsound state machine for thread-local
/// and read-shared data leads to imprecision": races hidden behind the
/// ownership-transfer heuristic (Virgin/Exclusive/SharedRead phases) are
/// silently missed, exactly as in the paper's Table 1 (5 warnings vs.
/// FastTrack's 8).
#[derive(Debug, Default)]
pub struct MultiRace {
    sync: SyncEngine,
    vars: Vec<Option<MrVar>>,
    held: Vec<LockSet>,
    warned: Vec<bool>,
    warnings: Vec<Warning>,
    stats: Stats,
    rules: RuleHits,
    generation: u32,
}

impl MultiRace {
    /// Creates the detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accesses that needed only lockset work (no VC comparison).
    pub fn lockset_only_accesses(&self) -> u64 {
        self.rules.lockset_only
    }

    fn held(&mut self, t: Tid) -> &mut LockSet {
        let idx = t.as_usize();
        if idx >= self.held.len() {
            self.held.resize_with(idx + 1, LockSet::new);
        }
        &mut self.held[idx]
    }

    fn var(&mut self, x: VarId) -> &mut MrVar {
        let idx = x.as_usize();
        if idx >= self.vars.len() {
            self.vars.resize_with(idx + 1, || None);
            self.warned.resize(idx + 1, false);
        }
        let slot = &mut self.vars[idx];
        if slot.is_none() {
            self.stats.vc_allocated += 2; // DJIT+ state: R_x and W_x
            *slot = Some(MrVar::default());
        }
        slot.as_mut().expect("just initialized")
    }

    fn access(&mut self, index: usize, t: Tid, x: VarId, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.held(t);
        let own = self.sync.thread(t, &mut self.stats).vc.get(t);
        self.var(x);

        // Same-epoch fast path (shared with DJIT+): nothing to do, not even
        // lockset maintenance — "the lock set is updated on the first access
        // in an epoch".
        {
            let vs = self.vars[x.as_usize()].as_ref().expect("ensured");
            let same = match kind {
                AccessKind::Read => vs.r.get(t) == own,
                AccessKind::Write => vs.w.get(t) == own,
            };
            if same {
                self.rules.same_epoch += 1;
                return;
            }
        }

        // Eraser phase-machine step.
        let generation = self.generation;
        let held = &self.held[t.as_usize()];
        let vs = self.vars[x.as_usize()].as_mut().expect("ensured");
        if vs.generation != generation {
            vs.phase = VarPhase::Virgin;
            vs.lockset = LockSet::new();
            vs.generation = generation;
        }
        let mut lockset_suspicious = false;
        match vs.phase {
            VarPhase::Virgin => vs.phase = VarPhase::Exclusive(t),
            VarPhase::Exclusive(owner) if owner == t => {}
            VarPhase::Exclusive(_) => {
                vs.lockset = held.clone();
                match kind {
                    AccessKind::Read => vs.phase = VarPhase::SharedRead,
                    AccessKind::Write => {
                        vs.phase = VarPhase::SharedModified;
                        lockset_suspicious = vs.lockset.is_empty();
                    }
                }
            }
            VarPhase::SharedRead => {
                vs.lockset.intersect(held);
                if kind == AccessKind::Write {
                    vs.phase = VarPhase::SharedModified;
                    lockset_suspicious = vs.lockset.is_empty();
                }
            }
            VarPhase::SharedModified => {
                vs.lockset.intersect(held);
                lockset_suspicious = vs.lockset.is_empty();
            }
        }

        // Update the DJIT+ slot for this thread.
        match kind {
            AccessKind::Read => vs.r.set(t, own),
            AccessKind::Write => vs.w.set(t, own),
        }

        if !lockset_suspicious {
            self.rules.lockset_only += 1;
            return;
        }

        // Lockset empty: confirm (or refute) with full VC comparisons.
        self.rules.vc_checks += 1;
        let ct = self.sync.clock(t);
        let vs = self.vars[x.as_usize()].as_mut().expect("ensured");
        let mut racy_witness: Option<(WarningKind, Option<Tid>)> = None;
        let mut racy_read_witness: Option<Option<Tid>> = None;
        match kind {
            AccessKind::Read => {
                self.stats.vc_ops += 1;
                // The write clock is what matters for a read.
                if !vs.w.leq(ct) {
                    racy_witness = Some((WarningKind::WriteRead, concurrent_witness(&vs.w, ct)));
                }
            }
            AccessKind::Write => {
                self.stats.vc_ops += 2;
                // Our own slot was just set to `own`, which trivially ⊑ C_t.
                if !vs.w.leq(ct) {
                    racy_witness = Some((WarningKind::WriteWrite, concurrent_witness(&vs.w, ct)));
                }
                if !vs.r.leq(ct) {
                    racy_read_witness = Some(concurrent_witness(&vs.r, ct));
                }
            }
        }
        vs.last = Some((t, kind));
        if let Some((warn_kind, witness)) = racy_witness {
            let u = witness.unwrap_or(t);
            report_once(
                &mut self.warned,
                &mut self.warnings,
                x,
                warn_kind,
                (u, AccessKind::Write),
                (t, kind),
                index,
            );
        }
        if let Some(witness) = racy_read_witness {
            let u = witness.unwrap_or(t);
            report_once(
                &mut self.warned,
                &mut self.warnings,
                x,
                WarningKind::ReadWrite,
                (u, AccessKind::Read),
                (t, kind),
                index,
            );
        }
    }

    /// Barrier reset of the Eraser half (the VC half handles barriers
    /// natively through the `SyncEngine`). O(1) generation bump; stale states
    /// lazily reset on next access.
    fn barrier_reset_phases(&mut self) {
        self.generation += 1;
    }
}

impl Detector for MultiRace {
    fn name(&self) -> &'static str {
        "MULTIRACE"
    }

    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.stats.ops += 1;
        match op {
            Op::Read(t, x) => self.access(index, *t, *x, AccessKind::Read),
            Op::Write(t, x) => self.access(index, *t, *x, AccessKind::Write),
            _ => {
                match *op {
                    Op::Acquire(t, m) => {
                        self.held(t).insert(m);
                    }
                    Op::Release(t, m) => {
                        self.held(t).remove(m);
                    }
                    Op::BarrierRelease(_) => self.barrier_reset_phases(),
                    _ => {}
                }
                self.sync.apply_op(op, &mut self.stats);
            }
        }
        Disposition::Forward
    }

    fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn shadow_bytes(&self) -> usize {
        let vars: usize = self
            .vars
            .iter()
            .flatten()
            .map(|vs| {
                std::mem::size_of::<MrVar>()
                    + vs.lockset.heap_bytes()
                    + vs.r.heap_bytes()
                    + vs.w.heap_bytes()
            })
            .sum();
        let held: usize = self
            .held
            .iter()
            .map(|h| std::mem::size_of::<LockSet>() + h.heap_bytes())
            .sum();
        vars + held + self.sync.shadow_bytes()
    }

    fn rule_breakdown(&self) -> Vec<RuleCount> {
        let accesses = self.stats.reads + self.stats.writes;
        vec![
            RuleCount::of("MR SAME EPOCH", self.rules.same_epoch, accesses),
            RuleCount::of("MR LOCKSET ONLY", self.rules.lockset_only, accesses),
            RuleCount::of("MR VC CHECK", self.rules.vc_checks, accesses),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::{LockId, TraceBuilder};

    const T0: Tid = Tid::new(0);
    const T1: Tid = Tid::new(1);
    const X: VarId = VarId::new(0);
    const M: LockId = LockId::new(0);
    const N: LockId = LockId::new(1);

    fn run(
        build: impl FnOnce(&mut TraceBuilder) -> Result<(), ft_trace::FeasibilityError>,
    ) -> MultiRace {
        let mut b = TraceBuilder::with_threads(3);
        build(&mut b).unwrap();
        let mut d = MultiRace::new();
        d.run(&b.finish());
        d
    }

    #[test]
    fn no_false_alarm_on_fork_join() {
        // Where Eraser false-alarms, MultiRace's VC confirmation stays quiet.
        let mut b = TraceBuilder::new();
        b.fork(T0, T1).unwrap();
        b.write(T1, X).unwrap();
        b.join(T0, T1).unwrap();
        b.write(T0, X).unwrap();
        let mut d = MultiRace::new();
        d.run(&b.finish());
        assert!(d.warnings().is_empty());
    }

    #[test]
    fn confirms_real_races() {
        // Three inconsistently-locked writes: the lockset empties on the
        // third ({N} ∩ {M} = ∅) and the VC check confirms the race.
        let d = run(|b| {
            b.release_after_acquire(T0, M, |b| b.write(T0, X))?;
            b.release_after_acquire(T1, N, |b| b.write(T1, X))?;
            b.release_after_acquire(T0, M, |b| b.write(T0, X))
        });
        assert_eq!(d.warnings().len(), 1);
        assert_eq!(d.warnings()[0].kind, WarningKind::WriteWrite);
    }

    #[test]
    fn refutes_eraser_suspicion_when_ordered() {
        // Lock M is consistently held only for the first two accesses, then
        // the SAME thread writes without any lock: the lockset empties but
        // the accesses are all ordered — no warning.
        let d = run(|b| {
            b.release_after_acquire(T0, M, |b| b.write(T0, X))?;
            b.release_after_acquire(T1, M, |b| b.write(T1, X))?;
            b.write(T1, X)
        });
        assert!(d.warnings().is_empty());
    }

    #[test]
    fn misses_exclusive_phase_races_like_eraser() {
        let d = run(|b| {
            b.write(T0, X)?;
            b.read(T1, X) // real race, hidden by the phase machine
        });
        assert!(d.warnings().is_empty());
    }

    #[test]
    fn lockset_gates_vc_comparisons() {
        let d = run(|b| {
            for _ in 0..20 {
                b.release_after_acquire(T0, M, |b| b.write(T0, X))?;
                b.release_after_acquire(T1, M, |b| b.write(T1, X))?;
            }
            Ok(())
        });
        assert!(d.warnings().is_empty());
        let rules = d.rule_breakdown();
        let vc_checks = rules.iter().find(|r| r.rule == "MR VC CHECK").unwrap().hits;
        assert_eq!(
            vc_checks, 0,
            "consistent lockset should avoid all VC checks"
        );
        assert!(d.lockset_only_accesses() > 0);
    }
}
