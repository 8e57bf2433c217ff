//! Id admission where bytes become events.
//!
//! Detectors size dense tables by raw id the first time they see one, so
//! an id is a memory request: `wr(T0, x = u32::MAX)` asks for a
//! four-billion-entry variable table, and `wr(T65535, x)` for an epoch no
//! packed 32-bit representation holds. Every source that turns outside
//! input into events — [`FtbReader`](crate::FtbReader),
//! [`FtbDecoder`](crate::FtbDecoder) and [`TraceBuilder`](crate::TraceBuilder),
//! which the JSON parser and [`Trace::from_ftb`](crate::Trace::from_ftb) go
//! through — admits ids with one [`IdBounds`]:
//!
//! * a thread id above [`MAX_TID`] is an error;
//! * a variable or lock id more than [`ID_SLACK`] above the stream's
//!   high-water mark for its kind is an error, unless the declared id space
//!   (the `.ftb` header's or the JSON document's counts) covers it.
//!
//! Every generator and recorder allocates ids densely, so honest streams
//! never come near the slack; the check is one compare per record, with a
//! new high id on the cold path.

use crate::batch::opcode;
use ft_clock::{Tid, MAX_TID};

/// How far a variable or lock id may jump past the highest id of its kind
/// admitted so far.
pub(crate) const ID_SLACK: u32 = 1 << 16;

/// Id classes an event argument belongs to, indexing [`IdBounds::high`].
const NO_ID: usize = 0;
const VAR: usize = 1;
const LOCK: usize = 2;
const THREAD: usize = 3;

/// The class of the argument of each [`opcode`], by kind byte (a barrier's
/// argument is its member count, not an id).
const CLASS: [usize; 16] = {
    let mut class = [NO_ID; 16];
    class[opcode::READ as usize] = VAR;
    class[opcode::WRITE as usize] = VAR;
    class[opcode::VOLATILE_READ as usize] = VAR;
    class[opcode::VOLATILE_WRITE as usize] = VAR;
    class[opcode::ACQUIRE as usize] = LOCK;
    class[opcode::RELEASE as usize] = LOCK;
    class[opcode::WAIT as usize] = LOCK;
    class[opcode::NOTIFY as usize] = LOCK;
    class[opcode::FORK as usize] = THREAD;
    class[opcode::JOIN as usize] = THREAD;
    class
};

/// The high-water marks one event stream has admitted; see the
/// [module docs](self).
#[derive(Copy, Clone, Debug)]
pub(crate) struct IdBounds {
    /// Per id class: every id below this passes without further checks.
    /// Variables and locks start at the declared space and rise with each
    /// admitted id; threads stay at `MAX_TID + 1`; argument-free kinds
    /// accept anything.
    high: [u32; 4],
}

impl Default for IdBounds {
    fn default() -> Self {
        Self::declared(0, 0)
    }
}

impl IdBounds {
    /// Bounds starting from a declared variable and lock space.
    pub(crate) fn declared(n_vars: u32, n_locks: u32) -> Self {
        IdBounds {
            high: [u32::MAX, n_vars, n_locks, MAX_TID + 1],
        }
    }

    /// Admits the ids of one event given as raw fields (`kind` is an
    /// [`opcode`]); a barrier's members go through
    /// [`IdBounds::admit_members`].
    #[inline]
    pub(crate) fn admit(&mut self, kind: u8, tid: u32, arg: u32) -> Result<(), String> {
        let class = CLASS[(kind & 15) as usize];
        if tid <= MAX_TID && arg < self.high[class] {
            return Ok(());
        }
        self.raise(class, tid, arg)
    }

    /// Rejects a thread id that packed epochs cannot represent.
    #[inline]
    pub(crate) fn admit_tid(tid: u32) -> Result<(), String> {
        if tid > MAX_TID {
            return Err(format!(
                "thread id {tid} exceeds the largest analyzable thread id {MAX_TID}"
            ));
        }
        Ok(())
    }

    /// Admits every id of a barrier's member list.
    #[inline]
    pub(crate) fn admit_members(members: &[Tid]) -> Result<(), String> {
        members.iter().try_for_each(|t| Self::admit_tid(t.as_u32()))
    }

    #[cold]
    #[inline(never)]
    fn raise(&mut self, class: usize, tid: u32, arg: u32) -> Result<(), String> {
        Self::admit_tid(tid)?;
        let high = &mut self.high[class];
        match class {
            NO_ID => Ok(()),
            THREAD => Self::admit_tid(arg),
            _ if arg - *high >= ID_SLACK => {
                let what = if class == VAR { "variable" } else { "lock" };
                Err(format!(
                    "{what} id {arg} jumps more than {ID_SLACK} past the highest {what} id \
                     so far ({} declared or seen)",
                    *high
                ))
            }
            _ => {
                *high = arg.saturating_add(1);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_and_slack_pass_jumps_fail() {
        let mut b = IdBounds::default();
        assert!(b.admit(opcode::WRITE, 0, ID_SLACK - 1).is_ok());
        assert!(b.admit(opcode::WRITE, 0, 2 * ID_SLACK - 1).is_ok());
        assert!(b.admit(opcode::WRITE, 0, u32::MAX).is_err());
        assert!(b.admit(opcode::ACQUIRE, 0, u32::MAX).is_err());
        assert!(b.admit(opcode::ACQUIRE, 0, 7).is_ok());
        assert!(b.admit(opcode::FORK, 0, u32::MAX).is_err());
        assert!(b.admit(opcode::WRITE, MAX_TID + 1, 0).is_err());
        assert!(b.admit(opcode::WRITE, MAX_TID, 0).is_ok());
    }

    #[test]
    fn declared_space_covers_sparse_ids() {
        let mut b = IdBounds::declared(1 << 24, 0);
        assert!(b.admit(opcode::READ, 0, (1 << 24) - 1).is_ok());
        assert!(b.admit(opcode::VOLATILE_WRITE, 0, (1 << 24) + 5).is_ok());
        assert!(b.admit(opcode::RELEASE, 0, 1 << 20).is_err());
    }
}
