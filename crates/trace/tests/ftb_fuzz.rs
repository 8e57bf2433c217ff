//! Hostile-input fuzz loop for the two `.ftb` decoders.
//!
//! Valid `.ftb` bytes from the trace generators are mutated by a seeded
//! [`Prng`] — bit flips, truncations, splices of another stream, and
//! header or record counts forced to `u32::MAX` — then fed whole to
//! [`FtbReader`] (both `next_op` and `read_block`) and in ragged chunks to
//! [`FtbDecoder`]. Every input must end in `Ok` or `Err`, never a panic,
//! and no single allocation may exceed a few times the input length: a
//! header or record that *claims* a huge count must not preallocate it.
//!
//! The allocation bound needs a counting global allocator, so this test
//! binary holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ft_trace::gen::{self, GenConfig};
use ft_trace::{EventBlock, FtbDecoder, FtbReader, FtbWriter, Prng, Trace, DEFAULT_BLOCK_EVENTS};

/// Tracks the largest single allocation since the last reset. Growing
/// reallocations go through `alloc` (the default `realloc`), so they count.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Mutated inputs per run; a few seconds in a debug build.
const ITERATIONS: u64 = 10_000;

/// Valid streams in both header shapes: a record count plus the
/// var_objects table (`Trace::to_ftb`), and an open-ended stream with
/// neither (`FtbWriter`). Barrier-heavy shapes make continuation records
/// common enough to mutate.
fn corpus() -> Vec<Vec<u8>> {
    let mut traces: Vec<Trace> = Vec::new();
    for seed in 0..4 {
        traces.push(gen::generate(
            &GenConfig {
                threads: 5,
                vars: 12,
                locks: 3,
                ops: 200,
                accesses_per_cs: 1,
                p_barrier: 0.05,
                p_volatile: 0.05,
                ..GenConfig::default().with_races(0.1)
            },
            seed,
        ));
        traces.push(gen::chaotic(4, 10, 3, 150, 100 + seed));
    }
    let mut out = Vec::new();
    for trace in &traces {
        out.push(trace.to_ftb().expect("generated traces encode"));
        let mut w = FtbWriter::new(
            Vec::new(),
            trace.n_threads(),
            trace.n_vars(),
            trace.n_locks(),
        )
        .expect("in-memory writer");
        for op in trace.events() {
            w.write_op(op).expect("generated traces encode");
        }
        out.push(w.finish().expect("in-memory writer"));
    }
    out
}

fn mutate(rng: &mut Prng, bytes: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    for _ in 0..rng.gen_range(1..=3u32) {
        if bytes.is_empty() {
            return;
        }
        match rng.gen_range(0..4u32) {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => bytes.truncate(rng.gen_range(0..bytes.len())),
            2 => {
                // Splice: replace a tail with a slice of another stream.
                let other = rng.choose(corpus).expect("non-empty corpus");
                let from = rng.gen_range(0..other.len());
                let to = rng.gen_range(from..=other.len());
                bytes.truncate(rng.gen_range(0..=bytes.len()));
                bytes.extend_from_slice(&other[from..to]);
            }
            _ => {
                // A count field forced to u32::MAX: a header word
                // (n_threads, n_vars, n_locks, n_records) or a record's arg,
                // which is the member count of a BARRIER record.
                let at = if rng.gen_bool(0.3) {
                    *rng.choose(&[8usize, 12, 16, 24, 28]).expect("non-empty")
                } else {
                    4 * rng.gen_range(0..bytes.len() / 4 + 1)
                };
                if at + 4 <= bytes.len() {
                    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                }
            }
        }
    }
}

/// Runs every decoder over `bytes`; a panic fails the test on its own.
/// Returns how many events `FtbReader::next_op` decoded.
fn decode_all(rng: &mut Prng, bytes: &[u8], block: &mut EventBlock) -> u64 {
    let mut decoded = 0;
    if let Ok(mut reader) = FtbReader::new(bytes) {
        while let Ok(Some(_)) = reader.next_op() {
            decoded += 1;
        }
    }
    if let Ok(mut reader) = FtbReader::new(bytes) {
        while let Ok(n) = reader.read_block(block, DEFAULT_BLOCK_EVENTS) {
            if n == 0 {
                break;
            }
        }
    }
    let mut decoder = FtbDecoder::new();
    let mut rest = bytes;
    'feed: while !rest.is_empty() {
        let n = rng.gen_range(1..=rest.len().min(64));
        decoder.push(&rest[..n]);
        rest = &rest[n..];
        loop {
            match decoder.next_op() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break 'feed,
            }
        }
    }
    let _ = decoder.finish();
    decoded
}

#[test]
fn mutated_ftb_bytes_never_panic_or_overallocate() {
    let corpus = corpus();
    let mut rng = Prng::seed_from_u64(0xf7b_f022);
    // Allocated once, outside the measured window.
    let mut block = EventBlock::with_capacity(DEFAULT_BLOCK_EVENTS);
    let mut decoded = 0;
    for i in 0..ITERATIONS {
        let mut bytes = rng.choose(&corpus).expect("non-empty corpus").clone();
        mutate(&mut rng, &mut bytes, &corpus);
        let mut feed_rng = Prng::seed_from_u64(i);
        LARGEST.store(0, Ordering::Relaxed);
        decoded += decode_all(&mut feed_rng, &bytes, &mut block);
        let largest = LARGEST.load(Ordering::Relaxed);
        // A small floor covers fixed costs (error messages, a first Vec
        // growth) that do not scale with the input.
        let limit = 4 * bytes.len() + 4096;
        assert!(
            largest <= limit,
            "iteration {i}: a {}-byte input made a {largest}-byte allocation",
            bytes.len()
        );
    }
    // Mutations land anywhere, so most inputs still decode a long valid
    // prefix; a loop that rejects everything up front tests nothing.
    assert!(
        decoded > 10 * ITERATIONS,
        "only {decoded} events decoded over {ITERATIONS} inputs"
    );
}
