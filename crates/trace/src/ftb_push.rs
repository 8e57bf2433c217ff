//! Push-style incremental decoding of `.ftb` byte streams.
//!
//! [`FtbReader`](crate::FtbReader) pulls from a blocking [`std::io::Read`],
//! which fits files and pipes. A network daemon receives the same stream as
//! *framed chunks* that arrive whenever the peer flushes — record
//! boundaries land anywhere, including mid-header and mid-barrier — and the
//! receiving thread must never block on "the rest of the record". The
//! [`FtbDecoder`] inverts control for that caller: bytes are pushed in as
//! they arrive, decoded events are drained out, and `Ok(None)` simply means
//! *need more bytes*, never end-of-stream.
//!
//! ```
//! use ft_trace::{FtbDecoder, TraceBuilder, VarId};
//! use ft_clock::Tid;
//!
//! let mut b = TraceBuilder::with_threads(2);
//! b.write(Tid::new(0), VarId::new(0)).unwrap();
//! b.write(Tid::new(1), VarId::new(0)).unwrap();
//! let bytes = b.finish().to_ftb().unwrap();
//!
//! let mut dec = FtbDecoder::new();
//! let mut ops = Vec::new();
//! for chunk in bytes.chunks(5) {
//!     dec.push(chunk);
//!     while let Some(op) = dec.next_op().unwrap() {
//!         ops.push(op);
//!     }
//! }
//! assert_eq!(ops.len(), 2);
//! assert!(dec.finish().is_ok());
//! ```

use crate::batch::opcode;
use crate::event::{LockId, ObjId, Op, VarId};
use crate::ftb::{FtbError, FtbHeader, FTB_HEADER_BYTES, FTB_MAGIC, FTB_RECORD_BYTES, FTB_VERSION};
use ft_clock::Tid;

const FLAG_VAR_OBJECTS: u32 = 1;
const N_RECORDS_STREAM: u64 = u64::MAX;

fn format_err(msg: impl Into<String>) -> FtbError {
    FtbError::Format(msg.into())
}

/// Where the decoder is in the stream grammar.
#[derive(Debug)]
enum Phase {
    /// Waiting for the 32-byte fixed header.
    Header,
    /// Waiting for the `n_vars × 4` byte var_objects table.
    VarObjects { n_vars: usize },
    /// Steady state: 12-byte records.
    Records,
}

/// Incremental push-parser for `.ftb` bytes ([`FtbReader`](crate::FtbReader)
/// is the pull-style sibling; the two accept exactly the same streams).
///
/// Feed arbitrary chunks with [`FtbDecoder::push`], drain with
/// [`FtbDecoder::next_op`], and call [`FtbDecoder::finish`] once the peer
/// signals end-of-upload to catch truncated trailing records.
#[derive(Debug)]
pub struct FtbDecoder {
    /// Undecoded bytes; `pos` marks how far decoding has consumed. The
    /// consumed prefix is compacted away whenever it outgrows the tail so
    /// buffered memory stays proportional to one burst, not the stream.
    buf: Vec<u8>,
    pos: usize,
    phase: Phase,
    header: Option<FtbHeader>,
    var_objects: Vec<ObjId>,
    /// Barrier members accumulated so far and the count still expected.
    barrier: Option<(Vec<Tid>, usize)>,
    /// Records left per the header, `None` for open-ended streams.
    remaining: Option<u64>,
    events: u64,
}

impl Default for FtbDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FtbDecoder {
    /// A decoder positioned before the stream header.
    pub fn new() -> Self {
        FtbDecoder {
            buf: Vec::new(),
            pos: 0,
            phase: Phase::Header,
            header: None,
            var_objects: Vec::new(),
            barrier: None,
            remaining: None,
            events: 0,
        }
    }

    /// Appends newly arrived bytes. Cheap; decoding happens in
    /// [`FtbDecoder::next_op`].
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix dominates, so a long-lived
        // session does not accrete the whole upload.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The stream header, once its 32 bytes (and var_objects table) have
    /// been pushed and decoded.
    pub fn header(&self) -> Option<&FtbHeader> {
        self.header.as_ref()
    }

    /// The per-variable owning-object table (empty when the stream carries
    /// none or the table has not fully arrived yet).
    pub fn var_objects(&self) -> &[ObjId] {
        &self.var_objects
    }

    /// Events decoded so far (a barrier with its continuations counts one).
    pub fn events_decoded(&self) -> u64 {
        self.events
    }

    /// Bytes pushed but not yet consumed by decoding.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.buf.len() - self.pos < n {
            return None;
        }
        let at = self.pos;
        self.pos += n;
        Some(&self.buf[at..at + n])
    }

    /// Decodes the next event, `Ok(None)` when more bytes are needed.
    ///
    /// A count-carrying stream that has delivered all its records keeps
    /// returning `Ok(None)`; trailing garbage after the declared count is
    /// reported by [`FtbDecoder::finish`].
    pub fn next_op(&mut self) -> Result<Option<Op>, FtbError> {
        loop {
            match self.phase {
                Phase::Header => {
                    let Some(bytes) = self.take(FTB_HEADER_BYTES) else {
                        return Ok(None);
                    };
                    let header: [u8; FTB_HEADER_BYTES] =
                        bytes.try_into().expect("exact header length");
                    if header[0..4] != FTB_MAGIC {
                        return Err(format_err("bad magic (not a .ftb stream)"));
                    }
                    let word =
                        |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4"));
                    let version = word(4);
                    if version != FTB_VERSION {
                        return Err(format_err(format!(
                            "unsupported version {version} (this build reads {FTB_VERSION})"
                        )));
                    }
                    let (n_threads, n_vars, n_locks, flags) =
                        (word(8), word(12), word(16), word(20));
                    if flags & !FLAG_VAR_OBJECTS != 0 {
                        return Err(format_err(format!("unknown flag bits {flags:#x}")));
                    }
                    let n_records = u64::from_le_bytes(header[24..32].try_into().expect("8"));
                    let n_records = (n_records != N_RECORDS_STREAM).then_some(n_records);
                    self.header = Some(FtbHeader {
                        version,
                        n_threads,
                        n_vars,
                        n_locks,
                        n_records,
                    });
                    self.remaining = n_records;
                    self.phase = if flags & FLAG_VAR_OBJECTS != 0 {
                        Phase::VarObjects {
                            n_vars: n_vars as usize,
                        }
                    } else {
                        Phase::Records
                    };
                }
                Phase::VarObjects { n_vars } => {
                    let Some(bytes) = self.take(n_vars * 4) else {
                        return Ok(None);
                    };
                    self.var_objects = bytes
                        .chunks_exact(4)
                        .map(|c| ObjId::new(u32::from_le_bytes(c.try_into().expect("4"))))
                        .collect();
                    self.phase = Phase::Records;
                }
                Phase::Records => {
                    if self.remaining == Some(0) {
                        return Ok(None);
                    }
                    let Some(rec) = self.take(FTB_RECORD_BYTES) else {
                        return Ok(None);
                    };
                    let rec: [u8; FTB_RECORD_BYTES] = rec.try_into().expect("exact record");
                    if let Some(left) = self.remaining.as_mut() {
                        *left -= 1;
                    }
                    let kind = rec[0];
                    let tid = u16::from_le_bytes(rec[2..4].try_into().expect("2")) as u32;
                    let arg = u32::from_le_bytes(rec[4..8].try_into().expect("4"));

                    if let Some((members, expected)) = self.barrier.as_mut() {
                        if kind != opcode::BARRIER_CONT {
                            return Err(format_err(format!(
                                "expected barrier continuation, found opcode {kind}"
                            )));
                        }
                        let in_rec = rec[1] as usize;
                        if in_rec == 0 || in_rec > 2 || members.len() + in_rec > *expected {
                            return Err(format_err(
                                "barrier continuation member count out of range",
                            ));
                        }
                        members.push(Tid::new(arg));
                        if in_rec == 2 {
                            members.push(Tid::new(u32::from_le_bytes(
                                rec[8..12].try_into().expect("4"),
                            )));
                        }
                        if members.len() == *expected {
                            let (members, _) = self.barrier.take().expect("in-progress barrier");
                            self.events += 1;
                            return Ok(Some(Op::BarrierRelease(members)));
                        }
                        continue;
                    }

                    let t = Tid::new(tid);
                    let op = match kind {
                        opcode::READ => Op::Read(t, VarId::new(arg)),
                        opcode::WRITE => Op::Write(t, VarId::new(arg)),
                        opcode::ACQUIRE => Op::Acquire(t, LockId::new(arg)),
                        opcode::RELEASE => Op::Release(t, LockId::new(arg)),
                        opcode::FORK => Op::Fork(t, Tid::new(arg)),
                        opcode::JOIN => Op::Join(t, Tid::new(arg)),
                        opcode::VOLATILE_READ => Op::VolatileRead(t, VarId::new(arg)),
                        opcode::VOLATILE_WRITE => Op::VolatileWrite(t, VarId::new(arg)),
                        opcode::WAIT => Op::Wait(t, LockId::new(arg)),
                        opcode::NOTIFY => Op::Notify(t, LockId::new(arg)),
                        opcode::ATOMIC_BEGIN => Op::AtomicBegin(t),
                        opcode::ATOMIC_END => Op::AtomicEnd(t),
                        opcode::BARRIER => {
                            let count = arg as usize;
                            if count == 0 {
                                self.events += 1;
                                return Ok(Some(Op::BarrierRelease(Vec::new())));
                            }
                            // `count` is untrusted: the list grows with
                            // the continuation records that actually arrive.
                            self.barrier = Some((Vec::new(), count));
                            continue;
                        }
                        opcode::BARRIER_CONT => {
                            return Err(format_err("orphan barrier continuation record"));
                        }
                        k => return Err(format_err(format!("unknown opcode {k}"))),
                    };
                    self.events += 1;
                    return Ok(Some(op));
                }
            }
        }
    }

    /// Validates end-of-upload: every pushed byte must have been consumed by
    /// a complete event. Mid-header, mid-record, mid-barrier, or short of a
    /// declared record count is a truncation error; surplus bytes after a
    /// declared count are trailing garbage.
    pub fn finish(&self) -> Result<(), FtbError> {
        if matches!(self.phase, Phase::Header) && self.buf.len() == self.pos && self.events == 0 {
            return Err(format_err("empty upload (no .ftb header)"));
        }
        if self.buf.len() != self.pos {
            return Err(if self.remaining == Some(0) {
                format_err("trailing bytes after the declared record count")
            } else {
                format_err("truncated record")
            });
        }
        if self.barrier.is_some() {
            return Err(format_err("barrier truncated mid-member-list"));
        }
        match self.phase {
            Phase::Header | Phase::VarObjects { .. } => Err(format_err("truncated header")),
            Phase::Records => match self.remaining {
                Some(left) if left > 0 => Err(format_err(format!(
                    "stream ended {left} record(s) short of the declared count"
                ))),
                _ => Ok(()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftb::FtbWriter;
    use crate::gen::{self, GenConfig};
    use crate::trace::validate;

    fn sample_bytes() -> Vec<u8> {
        let tids: Vec<Tid> = (0..5).map(Tid::new).collect();
        let mut events = Vec::new();
        for u in 1..5 {
            events.push(Op::Fork(Tid::new(0), Tid::new(u)));
        }
        events.push(Op::Write(Tid::new(1), VarId::new(0)));
        events.push(Op::BarrierRelease(tids));
        events.push(Op::Read(Tid::new(2), VarId::new(0)));
        validate(&events).unwrap().to_ftb().unwrap()
    }

    fn drain(dec: &mut FtbDecoder) -> Vec<Op> {
        let mut ops = Vec::new();
        while let Some(op) = dec.next_op().unwrap() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn every_chunk_size_agrees_with_the_pull_reader() {
        let trace = gen::generate(&GenConfig::default().with_races(0.05), 11);
        let bytes = trace.to_ftb().unwrap();
        for chunk in [1, 3, 7, 12, 13, 64, 4096, bytes.len()] {
            let mut dec = FtbDecoder::new();
            let mut ops = Vec::new();
            for piece in bytes.chunks(chunk) {
                dec.push(piece);
                ops.extend(drain(&mut dec));
            }
            assert_eq!(ops, trace.events(), "chunk size {chunk}");
            dec.finish().unwrap();
            assert_eq!(dec.events_decoded(), trace.len() as u64);
            assert_eq!(dec.buffered_bytes(), 0);
        }
    }

    #[test]
    fn header_and_var_objects_surface_after_decode() {
        let bytes = sample_bytes();
        let mut dec = FtbDecoder::new();
        dec.push(&bytes[..16]);
        assert!(dec.next_op().unwrap().is_none());
        assert!(dec.header().is_none());
        dec.push(&bytes[16..]);
        let ops = drain(&mut dec);
        assert_eq!(ops.len(), 7);
        let h = dec.header().unwrap();
        assert_eq!(h.n_threads, 5);
        assert_eq!(dec.var_objects().len(), h.n_vars as usize);
        dec.finish().unwrap();
    }

    #[test]
    fn barriers_split_across_pushes_reassemble() {
        let bytes = sample_bytes();
        for split in 0..bytes.len() {
            let mut dec = FtbDecoder::new();
            dec.push(&bytes[..split]);
            let mut ops = drain(&mut dec);
            dec.push(&bytes[split..]);
            ops.extend(drain(&mut dec));
            assert_eq!(ops.len(), 7, "split at {split}");
            dec.finish().unwrap();
        }
    }

    #[test]
    fn truncations_fail_finish_not_next_op() {
        let bytes = sample_bytes();
        for cut in [1, 16, 33, bytes.len() - 5, bytes.len() - 1] {
            let mut dec = FtbDecoder::new();
            dec.push(&bytes[..cut]);
            while let Ok(Some(_)) = dec.next_op() {}
            assert!(dec.finish().is_err(), "cut at {cut} should not finish");
        }
    }

    #[test]
    fn corrupt_bytes_error_eagerly() {
        let mut bad = sample_bytes();
        bad[0] = b'X';
        let mut dec = FtbDecoder::new();
        dec.push(&bad);
        assert!(matches!(dec.next_op(), Err(FtbError::Format(_))));

        let mut dec = FtbDecoder::new();
        let good = sample_bytes();
        let first_record = {
            let n_vars = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
            FTB_HEADER_BYTES + n_vars * 4
        };
        let mut bad = good;
        bad[first_record] = 200;
        dec.push(&bad);
        assert!(dec.next_op().is_err());
    }

    #[test]
    fn hostile_barrier_count_is_an_error_not_an_allocation() {
        let mut bytes = FtbWriter::new(Vec::new(), 1, 0, 0)
            .unwrap()
            .finish()
            .unwrap();
        bytes.extend_from_slice(&[opcode::BARRIER, 0, 0, 0]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        let mut dec = FtbDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_op(), Ok(None)));
        assert!(matches!(dec.finish(), Err(FtbError::Format(_))));
    }

    #[test]
    fn open_ended_stream_finishes_cleanly_at_any_record_boundary() {
        let trace = gen::generate(&GenConfig::default(), 3);
        let mut w = FtbWriter::new(Vec::new(), trace.n_threads(), trace.n_vars(), 1).unwrap();
        for op in trace.events() {
            w.write_op(op).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut dec = FtbDecoder::new();
        dec.push(&bytes);
        let ops = drain(&mut dec);
        assert_eq!(ops, trace.events());
        dec.finish().unwrap();
    }

    #[test]
    fn declared_count_stops_decoding_and_flags_trailing_garbage() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(&[0u8; 12]);
        let mut dec = FtbDecoder::new();
        dec.push(&bytes);
        let ops = drain(&mut dec);
        assert_eq!(ops.len(), 7, "declared count must bound decoding");
        assert!(dec.finish().is_err(), "trailing bytes must fail finish");
    }

    #[test]
    fn empty_upload_is_an_error() {
        let dec = FtbDecoder::new();
        assert!(dec.finish().is_err());
    }
}
