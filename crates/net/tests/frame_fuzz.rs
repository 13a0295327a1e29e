//! Seeded mutation fuzz of the frame reader, counted at the allocator
//! (`ci.sh` sweeps `FARGO_NET_FUZZ_SEED`). A frame's length prefix is a
//! peer's claim: every mutant of a framed `fargo-wire` value — a byte
//! replaced, a bit flipped, the prefix rewritten, the stream cut short or
//! lengthened — must read to `Ok` or `Err` without a panic, and without
//! one allocation larger than `max(64 KiB, 2 × the bytes on the stream)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use fargo_net::{read_frame, write_frame, FrameError, MAX_FRAME};
use fargo_wire::encode_value;
use fargo_wire::testgen::{gen_value, TestRng};

thread_local! {
    /// Reallocations and the largest single request made on this thread:
    /// the test harness runs other threads, and they must not be counted.
    static SEEN: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn note(realloc: usize, size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = SEEN.try_with(|c| {
        let (r, max) = c.get();
        c.set((r + realloc, max.max(size)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Reads one frame from `wire`: its payload length, with the
/// reallocations and the largest single request the read made.
fn read_counted(wire: &[u8]) -> (Result<usize, FrameError>, usize, usize) {
    SEEN.set((0, 0));
    let got = read_frame(&mut Cursor::new(wire)).map(|p| p.len());
    let (reallocs, largest) = SEEN.get();
    (got, reallocs, largest)
}

/// The seed `ci.sh` sweeps through `FARGO_NET_FUZZ_SEED`.
fn fuzz_seed() -> u64 {
    std::env::var("FARGO_NET_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// One random mutation of a frame: a byte replaced, a bit flipped, the
/// length prefix rewritten (anywhere up to just past [`MAX_FRAME`]), the
/// stream cut short, or a byte inserted.
fn mutate(rng: &mut TestRng, wire: &mut Vec<u8>) {
    let at = rng.below(wire.len() as u64) as usize;
    match rng.below(5) {
        0 => wire[at] = rng.next_u64() as u8,
        1 => wire[at] ^= 1 << rng.below(8),
        2 => {
            let declared = rng.below(MAX_FRAME as u64 + 2) as u32;
            wire[1..5].copy_from_slice(&declared.to_be_bytes());
        }
        3 => wire.truncate(at),
        _ => wire.insert(at, rng.next_u64() as u8),
    }
}

#[test]
fn mutation_fuzz_never_panics_or_over_allocates() {
    let seed = fuzz_seed();
    let rng = &mut TestRng(seed);
    let corpus: Vec<Vec<u8>> = (0..64)
        .map(|_| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &encode_value(&gen_value(rng, 4))).expect("frame a value");
            wire
        })
        .collect();
    for wire in &corpus {
        // An intact frame (every one of them under 64 KiB) is read into
        // one buffer of its exact length, never grown.
        let (got, reallocs, _) = read_counted(wire);
        assert_eq!(got.expect("an intact frame reads"), wire.len() - 5);
        assert_eq!(reallocs, 0, "a {}-byte frame grew its buffer", wire.len());
    }
    let (mut ok, mut err, mut largest_seen) = (0u32, 0u32, 0usize);
    for round in 0..12_000 {
        let mut wire = corpus[round % corpus.len()].clone();
        mutate(rng, &mut wire);
        let (got, _, largest) = read_counted(&wire);
        let bound = (64 * 1024).max(2 * wire.len());
        assert!(
            largest <= bound,
            "round {round}: a {}-byte mutant asked for {largest} bytes at once",
            wire.len()
        );
        largest_seen = largest_seen.max(largest);
        match got {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    println!("seed {seed}: {ok} read, {err} refused, largest request {largest_seen} B");
    assert!(ok > 1_000 && err > 1_000, "{ok} read / {err} refused");
}
