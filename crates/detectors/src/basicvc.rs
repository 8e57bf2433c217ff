//! BASICVC: the traditional vector-clock race detector.

use crate::{concurrent_witness, report_once};
use fasttrack::{Detector, Disposition, Stats, SyncEngine, Warning, WarningKind};
use ft_clock::{Tid, VectorClock};
use ft_trace::{AccessKind, Op, VarId};

/// Per-variable shadow state: full read and write vector clocks.
#[derive(Debug)]
struct VarClocks {
    r: VectorClock,
    w: VectorClock,
}

/// A simple VC-based race detector: it "maintains a read and a write VC for
/// each memory location and performs at least one VC comparison on every
/// memory access" (§5.1).
///
/// Precision is identical to DJIT⁺ and FastTrack; the cost is the point —
/// the paper measures FastTrack roughly 10× faster.
#[derive(Debug, Default)]
pub struct BasicVc {
    sync: SyncEngine,
    vars: Vec<Option<VarClocks>>,
    warned: Vec<bool>,
    warnings: Vec<Warning>,
    stats: Stats,
}

impl BasicVc {
    /// Creates the detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn var(&mut self, x: VarId) -> &mut VarClocks {
        let idx = x.as_usize();
        if idx >= self.vars.len() {
            self.vars.resize_with(idx + 1, || None);
            self.warned.resize(idx + 1, false);
        }
        let slot = &mut self.vars[idx];
        if slot.is_none() {
            self.stats.vc_allocated += 2; // R_x and W_x
            *slot = Some(VarClocks {
                r: VectorClock::new(),
                w: VectorClock::new(),
            });
        }
        slot.as_mut().expect("just initialized")
    }

    fn read(&mut self, index: usize, t: Tid, x: VarId) {
        self.stats.reads += 1;
        self.sync.thread(t, &mut self.stats);
        self.var(x);
        // Write-read check: W_x ⊑ C_t (always a full O(n) comparison here).
        self.stats.vc_ops += 1;
        let ct = self.sync.clock(t);
        let vs = self.vars[x.as_usize()].as_mut().expect("ensured");
        let racy = (!vs.w.leq(ct)).then(|| concurrent_witness(&vs.w, ct));
        vs.r.set(t, ct.get(t));
        if let Some(witness) = racy {
            let u = witness.unwrap_or(t);
            report_once(
                &mut self.warned,
                &mut self.warnings,
                x,
                WarningKind::WriteRead,
                (u, AccessKind::Write),
                (t, AccessKind::Read),
                index,
            );
        }
    }

    fn write(&mut self, index: usize, t: Tid, x: VarId) {
        self.stats.writes += 1;
        self.sync.thread(t, &mut self.stats);
        self.var(x);
        self.stats.vc_ops += 2; // W_x ⊑ C_t and R_x ⊑ C_t
        let ct = self.sync.clock(t);
        let vs = self.vars[x.as_usize()].as_mut().expect("ensured");
        let racy_write = (!vs.w.leq(ct)).then(|| concurrent_witness(&vs.w, ct));
        let racy_read = (!vs.r.leq(ct)).then(|| concurrent_witness(&vs.r, ct));
        vs.w.set(t, ct.get(t));
        if let Some(witness) = racy_write {
            let u = witness.unwrap_or(t);
            report_once(
                &mut self.warned,
                &mut self.warnings,
                x,
                WarningKind::WriteWrite,
                (u, AccessKind::Write),
                (t, AccessKind::Write),
                index,
            );
        }
        if let Some(witness) = racy_read {
            let u = witness.unwrap_or(t);
            report_once(
                &mut self.warned,
                &mut self.warnings,
                x,
                WarningKind::ReadWrite,
                (u, AccessKind::Read),
                (t, AccessKind::Write),
                index,
            );
        }
    }
}

impl Detector for BasicVc {
    fn name(&self) -> &'static str {
        "BASICVC"
    }

    fn on_op(&mut self, index: usize, op: &Op) -> Disposition {
        self.stats.ops += 1;
        match op {
            Op::Read(t, x) => self.read(index, *t, *x),
            Op::Write(t, x) => self.write(index, *t, *x),
            _ => self.sync.apply_op(op, &mut self.stats),
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
            .map(|vs| std::mem::size_of::<VarClocks>() + vs.r.heap_bytes() + vs.w.heap_bytes())
            .sum();
        vars + self.sync.shadow_bytes()
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

    #[test]
    fn detects_unsynchronized_write_write() {
        let mut b = TraceBuilder::with_threads(2);
        b.write(T0, X).unwrap();
        b.write(T1, X).unwrap();
        let mut d = BasicVc::new();
        d.run(&b.finish());
        assert_eq!(d.warnings().len(), 1);
        assert_eq!(d.warnings()[0].kind, WarningKind::WriteWrite);
    }

    #[test]
    fn lock_discipline_is_clean() {
        let mut b = TraceBuilder::with_threads(2);
        b.release_after_acquire(T0, M, |b| b.write(T0, X)).unwrap();
        b.release_after_acquire(T1, M, |b| b.write(T1, X)).unwrap();
        let mut d = BasicVc::new();
        d.run(&b.finish());
        assert!(d.warnings().is_empty());
    }

    #[test]
    fn every_access_costs_a_vc_op() {
        let mut b = TraceBuilder::with_threads(1);
        for _ in 0..10 {
            b.read(T0, X).unwrap();
        }
        b.write(T0, X).unwrap();
        let mut d = BasicVc::new();
        d.run(&b.finish());
        // 10 reads × 1 comparison + 1 write × 2 comparisons.
        assert_eq!(d.stats().vc_ops, 12);
        assert_eq!(d.stats().vc_allocated, 3); // C_t0, R_x, W_x
    }
}
