//! The `.ftb` compact binary trace format.
//!
//! `.ftrace` JSON (see [`crate::Trace::to_json`]) is convenient for hand
//! editing but costs ~25 bytes and a parser branch per event. `.ftb` is the
//! throughput-oriented sibling: a fixed-width, little-endian binary encoding
//! that streams — [`FtbWriter`] appends records as events arrive, and
//! [`FtbReader`] decodes incrementally from any [`Read`], so traces larger
//! than RAM can be recorded and analyzed without ever materializing a
//! `Vec<Op>`.
//!
//! # Layout
//!
//! All integers are little-endian regardless of host.
//!
//! ```text
//! header (32 bytes):
//!   [0..4)   magic    "FTB\0"
//!   [4..8)   version  u32 (currently 1)
//!   [8..12)  n_threads u32
//!   [12..16) n_vars    u32
//!   [16..20) n_locks   u32
//!   [20..24) flags     u32 (bit 0: a var_objects table follows the header)
//!   [24..32) n_records u64 (u64::MAX = unknown, read records to EOF)
//! var_objects table (optional, n_vars × u32): owning object per variable
//! records (12 bytes each):
//!   [0]      opcode   (see [`crate::batch::opcode`])
//!   [1]      aux      (barrier continuations: member count in this record)
//!   [2..4)   tid      u16
//!   [4..8)   arg      u32 (variable / lock / peer thread / barrier count)
//!   [8..12)  reserved u32 (barrier continuations: second member)
//! ```
//!
//! A `BarrierRelease` spans multiple records: one [`opcode::BARRIER`] record
//! whose `arg` is the member count, then ⌈count/2⌉ [`opcode::BARRIER_CONT`]
//! records each carrying one or two member tids (in `arg` and the reserved
//! word, `aux` = how many).
//!
//! Thread ids in simple records must fit in 16 bits — far above the
//! 8-bit tid limit of packed epochs, so any analyzable trace encodes.
//! [`FtbWriter::write_op`] rejects wider tids rather than truncating.

use crate::batch::{opcode, EventBlock};
use crate::event::{LockId, ObjId, Op, VarId};
use crate::serial::TraceFormatError;
use crate::trace::{validate, Trace};
use ft_clock::Tid;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// The four magic bytes opening every `.ftb` stream.
pub const FTB_MAGIC: [u8; 4] = *b"FTB\0";
/// Current format version, bumped on any incompatible layout change.
pub const FTB_VERSION: u32 = 1;
/// Size of the fixed header in bytes.
pub const FTB_HEADER_BYTES: usize = 32;
/// Size of one record in bytes.
pub const FTB_RECORD_BYTES: usize = 12;

const FLAG_VAR_OBJECTS: u32 = 1;
const N_RECORDS_STREAM: u64 = u64::MAX;

/// Errors from encoding or decoding the `.ftb` binary format.
#[derive(Debug)]
pub enum FtbError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The bytes do not form a valid `.ftb` stream (bad magic, unsupported
    /// version, truncated record, unknown opcode, …), or an event cannot be
    /// represented (thread id beyond 16 bits).
    Format(String),
}

impl fmt::Display for FtbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtbError::Io(e) => write!(f, "ftb i/o error: {e}"),
            FtbError::Format(msg) => write!(f, "malformed ftb data: {msg}"),
        }
    }
}

impl Error for FtbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtbError::Io(e) => Some(e),
            FtbError::Format(_) => None,
        }
    }
}

impl From<io::Error> for FtbError {
    fn from(e: io::Error) -> Self {
        FtbError::Io(e)
    }
}

fn format_err(msg: impl Into<String>) -> FtbError {
    FtbError::Format(msg.into())
}

/// The decoded fixed header of a `.ftb` stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtbHeader {
    /// Format version of the stream.
    pub version: u32,
    /// Declared thread-id space (informational; events are authoritative).
    pub n_threads: u32,
    /// Declared variable-id space.
    pub n_vars: u32,
    /// Declared lock-id space.
    pub n_locks: u32,
    /// Record count, or `None` for open-ended streams (read to EOF).
    pub n_records: Option<u64>,
}

/// Streaming encoder: writes the header up front, then one call per event.
///
/// Construction writes an open-ended header (`n_records` unknown), which is
/// what an online recorder wants: events can be appended until the process
/// ends and the file is still readable. [`Trace::to_ftb`] patches the exact
/// record count in afterwards since it knows the whole trace.
pub struct FtbWriter<W: Write> {
    out: W,
    records: u64,
}

fn record(op: u8, aux: u8, tid: u32, arg: u32, reserved: u32) -> Result<[u8; 12], FtbError> {
    let tid: u16 = tid
        .try_into()
        .map_err(|_| format_err(format!("thread id {tid} exceeds the 16-bit record field")))?;
    let mut rec = [0u8; FTB_RECORD_BYTES];
    rec[0] = op;
    rec[1] = aux;
    rec[2..4].copy_from_slice(&tid.to_le_bytes());
    rec[4..8].copy_from_slice(&arg.to_le_bytes());
    rec[8..12].copy_from_slice(&reserved.to_le_bytes());
    Ok(rec)
}

impl<W: Write> FtbWriter<W> {
    /// Starts a stream with the given id-space metadata and no per-variable
    /// object table.
    pub fn new(out: W, n_threads: u32, n_vars: u32, n_locks: u32) -> io::Result<Self> {
        Self::with_var_objects(out, n_threads, n_vars, n_locks, &[])
    }

    /// Starts a stream that also records the `var_objects` table used by the
    /// coarse-grain analysis. The table length must be `n_vars`.
    pub fn with_var_objects(
        mut out: W,
        n_threads: u32,
        n_vars: u32,
        n_locks: u32,
        var_objects: &[ObjId],
    ) -> io::Result<Self> {
        assert!(
            var_objects.is_empty() || var_objects.len() == n_vars as usize,
            "var_objects table must cover exactly n_vars variables"
        );
        let mut header = [0u8; FTB_HEADER_BYTES];
        header[0..4].copy_from_slice(&FTB_MAGIC);
        header[4..8].copy_from_slice(&FTB_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&n_threads.to_le_bytes());
        header[12..16].copy_from_slice(&n_vars.to_le_bytes());
        header[16..20].copy_from_slice(&n_locks.to_le_bytes());
        let flags: u32 = if var_objects.is_empty() {
            0
        } else {
            FLAG_VAR_OBJECTS
        };
        header[20..24].copy_from_slice(&flags.to_le_bytes());
        header[24..32].copy_from_slice(&N_RECORDS_STREAM.to_le_bytes());
        out.write_all(&header)?;
        for obj in var_objects {
            out.write_all(&obj.as_u32().to_le_bytes())?;
        }
        Ok(FtbWriter { out, records: 0 })
    }

    /// Appends one event to the stream.
    pub fn write_op(&mut self, op: &Op) -> Result<(), FtbError> {
        let rec = match *op {
            Op::Read(t, x) => record(opcode::READ, 0, t.as_u32(), x.as_u32(), 0)?,
            Op::Write(t, x) => record(opcode::WRITE, 0, t.as_u32(), x.as_u32(), 0)?,
            Op::Acquire(t, m) => record(opcode::ACQUIRE, 0, t.as_u32(), m.as_u32(), 0)?,
            Op::Release(t, m) => record(opcode::RELEASE, 0, t.as_u32(), m.as_u32(), 0)?,
            Op::Fork(t, u) => record(opcode::FORK, 0, t.as_u32(), u.as_u32(), 0)?,
            Op::Join(t, u) => record(opcode::JOIN, 0, t.as_u32(), u.as_u32(), 0)?,
            Op::VolatileRead(t, x) => record(opcode::VOLATILE_READ, 0, t.as_u32(), x.as_u32(), 0)?,
            Op::VolatileWrite(t, x) => {
                record(opcode::VOLATILE_WRITE, 0, t.as_u32(), x.as_u32(), 0)?
            }
            Op::Wait(t, m) => record(opcode::WAIT, 0, t.as_u32(), m.as_u32(), 0)?,
            Op::Notify(t, m) => record(opcode::NOTIFY, 0, t.as_u32(), m.as_u32(), 0)?,
            Op::AtomicBegin(t) => record(opcode::ATOMIC_BEGIN, 0, t.as_u32(), 0, 0)?,
            Op::AtomicEnd(t) => record(opcode::ATOMIC_END, 0, t.as_u32(), 0, 0)?,
            Op::BarrierRelease(ref members) => {
                let head = record(opcode::BARRIER, 0, 0, members.len() as u32, 0)?;
                self.out.write_all(&head)?;
                self.records += 1;
                for pair in members.chunks(2) {
                    let second = pair.get(1).map_or(0, |t| t.as_u32());
                    let cont = record(
                        opcode::BARRIER_CONT,
                        pair.len() as u8,
                        0,
                        pair[0].as_u32(),
                        second,
                    )?;
                    self.out.write_all(&cont)?;
                    self.records += 1;
                }
                return Ok(());
            }
        };
        self.out.write_all(&rec)?;
        self.records += 1;
        Ok(())
    }

    /// Number of 12-byte records written so far (barriers span several).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// One decoded record group (a barrier and its continuations count as one).
enum Rec {
    Simple { kind: u8, tid: u32, arg: u32 },
    Barrier(Vec<Tid>),
}

/// Streaming decoder over any [`Read`] source.
///
/// Iterate it for `Result<Op, FtbError>` items, or feed a batch consumer
/// with [`FtbReader::read_block`] to skip [`Op`] materialization entirely.
pub struct FtbReader<R: Read> {
    input: R,
    header: FtbHeader,
    var_objects: Vec<ObjId>,
    /// Records left per the header, or `None` for read-to-EOF streams.
    remaining: Option<u64>,
}

impl<R: Read> FtbReader<R> {
    /// Reads and validates the header (and the var_objects table when
    /// present), leaving the reader positioned at the first record.
    pub fn new(mut input: R) -> Result<Self, FtbError> {
        let mut header = [0u8; FTB_HEADER_BYTES];
        input.read_exact(&mut header).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => format_err("truncated header"),
            _ => FtbError::Io(e),
        })?;
        if header[0..4] != FTB_MAGIC {
            return Err(format_err("bad magic (not a .ftb stream)"));
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let version = word(4);
        if version != FTB_VERSION {
            return Err(format_err(format!(
                "unsupported version {version} (this build reads {FTB_VERSION})"
            )));
        }
        let (n_threads, n_vars, n_locks, flags) = (word(8), word(12), word(16), word(20));
        if flags & !FLAG_VAR_OBJECTS != 0 {
            return Err(format_err(format!("unknown flag bits {flags:#x}")));
        }
        let n_records = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        let mut var_objects = Vec::new();
        if flags & FLAG_VAR_OBJECTS != 0 {
            let mut buf = [0u8; 4];
            for _ in 0..n_vars {
                input
                    .read_exact(&mut buf)
                    .map_err(|_| format_err("truncated var_objects table"))?;
                var_objects.push(ObjId::new(u32::from_le_bytes(buf)));
            }
        }
        Ok(FtbReader {
            input,
            header: FtbHeader {
                version,
                n_threads,
                n_vars,
                n_locks,
                n_records: (n_records != N_RECORDS_STREAM).then_some(n_records),
            },
            var_objects,
            remaining: (n_records != N_RECORDS_STREAM).then_some(n_records),
        })
    }

    /// The decoded stream header.
    pub fn header(&self) -> &FtbHeader {
        &self.header
    }

    /// The per-variable owning-object table, empty when the stream carries
    /// none.
    pub fn var_objects(&self) -> &[ObjId] {
        &self.var_objects
    }

    /// Reads the next raw record; `Ok(None)` at a clean end of stream.
    fn read_record(&mut self) -> Result<Option<[u8; FTB_RECORD_BYTES]>, FtbError> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        let mut rec = [0u8; FTB_RECORD_BYTES];
        let mut filled = 0;
        while filled < FTB_RECORD_BYTES {
            match self.input.read(&mut rec[filled..]) {
                Ok(0) => {
                    return if filled == 0 && self.remaining.is_none() {
                        Ok(None) // clean EOF on an open-ended stream
                    } else {
                        Err(format_err("truncated record"))
                    };
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FtbError::Io(e)),
            }
        }
        if let Some(left) = self.remaining.as_mut() {
            *left -= 1;
        }
        Ok(Some(rec))
    }

    /// Decodes the next event group (a barrier consumes its continuations).
    fn next_rec(&mut self) -> Result<Option<Rec>, FtbError> {
        let Some(rec) = self.read_record()? else {
            return Ok(None);
        };
        let kind = rec[0];
        let tid = u16::from_le_bytes(rec[2..4].try_into().expect("2 bytes")) as u32;
        let arg = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        match kind {
            opcode::BARRIER => {
                // `count` is untrusted: the list grows with the
                // continuation records that actually arrive.
                let count = arg as usize;
                let mut members = Vec::new();
                while members.len() < count {
                    let Some(cont) = self.read_record()? else {
                        return Err(format_err("barrier truncated mid-member-list"));
                    };
                    if cont[0] != opcode::BARRIER_CONT {
                        return Err(format_err(format!(
                            "expected barrier continuation, found opcode {}",
                            cont[0]
                        )));
                    }
                    let in_rec = cont[1] as usize;
                    if in_rec == 0 || in_rec > 2 || members.len() + in_rec > count {
                        return Err(format_err("barrier continuation member count out of range"));
                    }
                    members.push(Tid::new(u32::from_le_bytes(
                        cont[4..8].try_into().expect("4 bytes"),
                    )));
                    if in_rec == 2 {
                        members.push(Tid::new(u32::from_le_bytes(
                            cont[8..12].try_into().expect("4 bytes"),
                        )));
                    }
                }
                Ok(Some(Rec::Barrier(members)))
            }
            opcode::BARRIER_CONT => Err(format_err("orphan barrier continuation record")),
            k if k < opcode::BARRIER => Ok(Some(Rec::Simple { kind, tid, arg })),
            k => Err(format_err(format!("unknown opcode {k}"))),
        }
    }

    /// Decodes the next event, or `Ok(None)` at end of stream.
    pub fn next_op(&mut self) -> Result<Option<Op>, FtbError> {
        Ok(self.next_rec()?.map(|rec| match rec {
            Rec::Barrier(members) => Op::BarrierRelease(members),
            Rec::Simple { kind, tid, arg } => {
                let t = Tid::new(tid);
                match kind {
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
                    _ => Op::AtomicEnd(t),
                }
            }
        }))
    }

    /// Decodes up to `max_events` events straight into `block`'s SoA lanes
    /// (no [`Op`] values are built except barrier member lists). Returns the
    /// number of events decoded; zero means end of stream.
    pub fn read_block(
        &mut self,
        block: &mut EventBlock,
        max_events: usize,
    ) -> Result<usize, FtbError> {
        block.clear();
        while block.len() < max_events {
            match self.next_rec()? {
                None => break,
                Some(Rec::Simple { kind, tid, arg }) => block.push_simple(kind, tid, arg),
                Some(Rec::Barrier(members)) => block.push_barrier(members),
            }
        }
        Ok(block.len())
    }
}

impl<R: Read> fmt::Debug for FtbReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FtbReader")
            .field("header", &self.header)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<R: Read> Iterator for FtbReader<R> {
    type Item = Result<Op, FtbError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_op().transpose()
    }
}

impl Trace {
    /// Serializes this trace to `.ftb` bytes, with an exact record count in
    /// the header and the var_objects table included.
    ///
    /// # Errors
    ///
    /// Fails only if an event cannot be represented (a thread id beyond the
    /// record's 16-bit field).
    pub fn to_ftb(&self) -> Result<Vec<u8>, FtbError> {
        let objects: Vec<ObjId> = (0..self.n_vars())
            .map(|x| self.object_of(VarId::new(x)))
            .collect();
        let mut w = FtbWriter::with_var_objects(
            Vec::new(),
            self.n_threads(),
            self.n_vars(),
            self.n_locks(),
            &objects,
        )
        .expect("writing to memory cannot fail");
        for op in self.events() {
            w.write_op(op)?;
        }
        let records = w.records_written();
        let mut bytes = w.finish().expect("flushing memory cannot fail");
        bytes[24..32].copy_from_slice(&records.to_le_bytes());
        Ok(bytes)
    }

    /// Deserializes and re-validates a trace from `.ftb` bytes, exactly
    /// mirroring [`Trace::from_json`]'s feasibility and metadata handling.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFormatError::Binary`] for malformed bytes and
    /// [`TraceFormatError::Infeasible`] if the decoded events violate the
    /// §2.1 feasibility constraints.
    pub fn from_ftb(bytes: &[u8]) -> Result<Trace, TraceFormatError> {
        let mut reader = FtbReader::new(bytes)?;
        let mut events = Vec::new();
        while let Some(op) = reader.next_op()? {
            events.push(op);
        }
        let mut trace = validate(&events)?;
        trace.n_threads = trace.n_threads.max(reader.header().n_threads);
        let var_objects = reader.var_objects();
        if !var_objects.is_empty() {
            let mut objects = var_objects.to_vec();
            let n = trace.n_vars as usize;
            objects.truncate(n);
            for i in objects.len()..n {
                objects.push(ObjId::new(i as u32));
            }
            trace.var_objects = objects;
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample_trace() -> Trace {
        let (t0, t1) = (Tid::new(0), Tid::new(1));
        let (x, m) = (VarId::new(0), LockId::new(0));
        let events = vec![
            Op::Fork(t0, t1),
            Op::AtomicBegin(t0),
            Op::Write(t0, x),
            Op::Read(t0, x),
            Op::AtomicEnd(t0),
            Op::VolatileWrite(t0, x),
            Op::VolatileRead(t1, x),
            Op::Acquire(t1, m),
            Op::Notify(t1, m),
            Op::Wait(t1, m),
            Op::Release(t1, m),
            Op::BarrierRelease(vec![t0, t1]),
            Op::Join(t0, t1),
        ];
        validate(&events).unwrap()
    }

    #[test]
    fn every_variant_round_trips() {
        let trace = sample_trace();
        let bytes = trace.to_ftb().unwrap();
        let back = Trace::from_ftb(&bytes).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn encoding_is_bit_stable() {
        // Re-encoding a decoded trace must reproduce the bytes exactly —
        // the property replay tooling relies on.
        let trace = sample_trace();
        let bytes = trace.to_ftb().unwrap();
        let again = Trace::from_ftb(&bytes).unwrap().to_ftb().unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn header_fields_and_record_count_are_exact() {
        let trace = sample_trace();
        let bytes = trace.to_ftb().unwrap();
        let reader = FtbReader::new(bytes.as_slice()).unwrap();
        let h = reader.header();
        assert_eq!(h.version, FTB_VERSION);
        assert_eq!(h.n_threads, trace.n_threads());
        assert_eq!(h.n_vars, trace.n_vars());
        assert_eq!(h.n_locks, trace.n_locks());
        // 12 simple events + 1 barrier header + 1 continuation (2 members).
        assert_eq!(h.n_records, Some(14));
        assert_eq!(
            bytes.len(),
            FTB_HEADER_BYTES + trace.n_vars() as usize * 4 + 14 * FTB_RECORD_BYTES
        );
    }

    #[test]
    fn open_ended_stream_reads_to_eof() {
        let trace = sample_trace();
        let mut w = FtbWriter::new(Vec::new(), trace.n_threads(), trace.n_vars(), 1).unwrap();
        for op in trace.events() {
            w.write_op(op).unwrap();
        }
        let bytes = w.finish().unwrap();
        let reader = FtbReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.header().n_records, None);
        let ops: Result<Vec<Op>, FtbError> = reader.collect();
        assert_eq!(ops.unwrap(), trace.events());
    }

    #[test]
    fn read_block_decodes_in_batches() {
        let trace = sample_trace();
        let bytes = trace.to_ftb().unwrap();
        let mut reader = FtbReader::new(bytes.as_slice()).unwrap();
        let mut block = EventBlock::with_capacity(4);
        let mut decoded = Vec::new();
        loop {
            let n = reader.read_block(&mut block, 4).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 4);
            decoded.extend(block.ops());
        }
        assert_eq!(decoded, trace.events());
    }

    #[test]
    fn var_objects_survive_the_round_trip() {
        let mut b = TraceBuilder::with_threads(1);
        b.write(Tid::new(0), VarId::new(2)).unwrap();
        b.set_var_object(VarId::new(0), ObjId::new(9));
        b.set_var_object(VarId::new(2), ObjId::new(9));
        let trace = b.finish();
        let back = Trace::from_ftb(&trace.to_ftb().unwrap()).unwrap();
        assert_eq!(back.object_of(VarId::new(0)), ObjId::new(9));
        assert_eq!(back.object_of(VarId::new(2)), ObjId::new(9));
        assert_eq!(back.object_of(VarId::new(1)), ObjId::new(1));
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
        assert_eq!(bytes.len(), FTB_HEADER_BYTES + FTB_RECORD_BYTES);
        let mut reader = FtbReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(reader.next_op(), Err(FtbError::Format(_))));
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let trace = sample_trace();
        let good = trace.to_ftb().unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            FtbReader::new(bad.as_slice()).unwrap_err(),
            FtbError::Format(_)
        ));

        // Future version.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(FtbReader::new(bad.as_slice()).is_err());

        // Truncated mid-record.
        let bad = &good[..good.len() - 5];
        let reader = FtbReader::new(bad).unwrap();
        assert!(reader.collect::<Result<Vec<Op>, _>>().is_err());

        // Unknown opcode.
        let mut bad = good.clone();
        let first_record = FTB_HEADER_BYTES + trace.n_vars() as usize * 4;
        bad[first_record] = 200;
        let reader = FtbReader::new(bad.as_slice()).unwrap();
        assert!(reader.collect::<Result<Vec<Op>, _>>().is_err());
    }

    #[test]
    fn oversized_tid_is_an_encode_error() {
        let mut w = FtbWriter::new(Vec::new(), 1, 1, 0).unwrap();
        let err = w
            .write_op(&Op::Write(Tid::new(70_000), VarId::new(0)))
            .unwrap_err();
        assert!(matches!(err, FtbError::Format(_)));
    }

    #[test]
    fn infeasible_ftb_is_rejected_like_json() {
        let (t0, m) = (Tid::new(0), LockId::new(0));
        let mut w = FtbWriter::new(Vec::new(), 1, 0, 1).unwrap();
        w.write_op(&Op::Acquire(t0, m)).unwrap();
        w.write_op(&Op::Acquire(t0, m)).unwrap(); // double acquire
        let bytes = w.finish().unwrap();
        assert!(matches!(
            Trace::from_ftb(&bytes).unwrap_err(),
            TraceFormatError::Infeasible(_)
        ));
    }

    #[test]
    fn wide_barrier_spans_continuations() {
        let tids: Vec<Tid> = (0..7).map(Tid::new).collect();
        let mut events = Vec::new();
        for u in 1..7 {
            events.push(Op::Fork(Tid::new(0), Tid::new(u)));
        }
        events.push(Op::BarrierRelease(tids));
        let trace = validate(&events).unwrap();
        let back = Trace::from_ftb(&trace.to_ftb().unwrap()).unwrap();
        assert_eq!(back.events(), trace.events());
    }
}
