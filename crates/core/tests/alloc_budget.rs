//! E27: what one call costs the allocator, as counts no host can move —
//! a time moves with the machine, an allocation count does not. A
//! remote `get` over the fixture's transport (simnet, or loopback TCP
//! under `FARGO_TRANSPORT=tcp`) and a local one are each counted at the
//! allocator, process-wide, averaged over a run of sequential calls,
//! and held to a budget.
//!
//! This is the only test of its binary on purpose: the counts are of
//! the whole process (a call's allocations happen on the caller's, the
//! receivers' and the workers' threads alike), and the harness would run
//! any other test beside it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{cluster, teardown};
use fargo_core::{BoundRef, Value};

/// Allocations (a `realloc` counts as one) and the bytes they asked for
/// (a `realloc` its growth), on every thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Calls per measured run: enough that a monitor tick or a histogram's
/// first use on some thread is noise in the mean.
const CALLS: u64 = 2_000;

/// `(allocations, bytes)` per `get` on `counter`: the least of three
/// runs of `CALLS` calls, after one unmeasured run. Whatever another
/// thread allocates meanwhile only ever adds, so the least run is the
/// call's own cost most nearly.
fn per_get(counter: &BoundRef) -> (f64, f64) {
    let run = || {
        let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
        for _ in 0..CALLS {
            assert!(counter.call("get", &[]).unwrap().as_i64().is_some());
        }
        let allocs = ALLOCS.load(Ordering::SeqCst) - allocs;
        let bytes = BYTES.load(Ordering::SeqCst) - bytes;
        (allocs as f64 / CALLS as f64, bytes as f64 / CALLS as f64)
    };
    run();
    (0..3)
        .map(|_| run())
        .fold((f64::MAX, f64::MAX), |(a, b), (ra, rb)| {
            (a.min(ra), b.min(rb))
        })
}

#[test]
fn a_call_stays_within_its_allocation_budget() {
    let (_net, _reg, cores) = cluster(2);
    let remote = cores[0]
        .new_complet_at("core1", "Counter", &[])
        .expect("create at core1");
    let local = cores[0].new_complet("Counter", &[]).expect("create here");
    assert_eq!(remote.call("add", &[Value::I64(1)]).unwrap(), Value::I64(1));

    // The budgets: each count as measured when it was set, rounded up.
    // Over TCP a remote call also pays for the frames read off the
    // sockets. (The parent of the change that set them: 21.1 and 23.2
    // allocations, 1,211 and 1,168 bytes.)
    let tcp = std::env::var("FARGO_TRANSPORT").as_deref() == Ok("tcp");
    let (transport, remote_budget) = if tcp {
        ("tcp", (21.0, 1_150.0))
    } else {
        ("simnet", (19.0, 1_250.0))
    };
    let local_budget = (7.0, 200.0);
    let remote_cost = per_get(&remote);
    let local_cost = per_get(&local);
    eprintln!("remote get ({transport}): {remote_cost:.2?}; local get: {local_cost:.2?}");
    let within = |(allocs, bytes): (f64, f64), (max_allocs, max_bytes): (f64, f64)| {
        allocs <= max_allocs && bytes <= max_bytes
    };
    assert!(
        within(remote_cost, remote_budget),
        "a remote get over {transport} costs {remote_cost:.2?} (allocations, bytes), \
         over its budget of {remote_budget:?}"
    );
    assert!(
        within(local_cost, local_budget),
        "a local get costs {local_cost:.2?} (allocations, bytes), over its budget of {local_budget:?}"
    );
    teardown(&cores);
}
