//! What a decoded record costs, counted at the allocator (`ci.sh`, stage
//! "by-value memory bound"). The benchmark's `peak_rss_mb` shows the same
//! thing late and noisily; this shows a regression of the map layout or
//! of the decoder's key sharing exactly, on the record shape the
//! benchmark's `graph-simnet` workload uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fargo_wire::testgen::graph_records;
use fargo_wire::{decode_value_from_bytes, encode_value, Value};

thread_local! {
    /// Allocations made and bytes live on this thread: the test harness
    /// runs other threads, and they must not be counted.
    static COUNTS: Cell<(usize, isize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(allocs: usize, bytes: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNTS.try_with(|c| {
        let (a, b) = c.get();
        c.set((a + allocs, b + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by `f` and the bytes of them its result keeps alive.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (allocs, live) = COUNTS.get();
    let out = f();
    let (allocs_after, live_after) = COUNTS.get();
    (out, allocs_after - allocs, live_after - live)
}

#[test]
fn a_decoded_record_costs_what_it_holds() {
    const RECORDS: usize = 256;
    let batch = Value::List(graph_records(RECORDS as i64, 0));
    let bytes = encode_value(&batch);
    assert!(bytes.len() < 64 * RECORDS, "{}", bytes.len());

    // Per record: the entry vector, `k`, the tag vector and three tags;
    // per batch: the list and one allocation for each distinct key. A
    // tree node per record and a `String` per key were 9 and ~800.
    // (`bytes` outlives the call, so freeing the input is not counted.)
    let (decoded, allocs, live) = measured(|| decode_value_from_bytes(bytes.clone()).unwrap());
    assert_eq!(decoded, batch);
    assert!(allocs <= 7 * RECORDS, "{allocs} allocations");
    assert!(live <= 450 * RECORDS as isize, "{live} bytes live");

    // A copy (a `scan` reply, state installed from arguments) shares the
    // keys of what it copies.
    let (copy, clone_allocs, clone_live) = measured(|| decoded.clone());
    assert_eq!(clone_allocs, allocs - 3, "a clone allocates no key");
    assert!(clone_live < live, "{clone_live} vs {live}");
    assert_eq!(copy, decoded);
}
