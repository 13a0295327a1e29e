//! E27: what one operation costs the allocator, as counts no host can
//! move — a time moves with the machine, an allocation count does not.
//! A remote `get` and `add` over the fixture's transport (simnet, or
//! loopback TCP under `FARGO_TRANSPORT=tcp`), a local `get`, a remote
//! call returning a 256-record graph by value, and the move of a 4 KiB
//! complet are each counted at the allocator, process-wide, averaged
//! over a run of sequential operations, and held to a budget.
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

/// By-value graph calls per measured run (each carries 256 records).
const GRAPH_CALLS: u64 = 100;

/// Moves per measured run: an even number, so each run ends where it
/// began.
const MOVES: u64 = 100;

/// `(allocations, bytes)` per `op`: the least of three runs of `ops`
/// operations, after one unmeasured run. Whatever another thread
/// allocates meanwhile only ever adds, so the least run is the
/// operation's own cost most nearly.
fn per_op(ops: u64, mut op: impl FnMut()) -> (f64, f64) {
    let mut run = || {
        let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
        for _ in 0..ops {
            op();
        }
        let allocs = ALLOCS.load(Ordering::SeqCst) - allocs;
        let bytes = BYTES.load(Ordering::SeqCst) - bytes;
        (allocs as f64 / ops as f64, bytes as f64 / ops as f64)
    };
    run();
    (0..3)
        .map(|_| run())
        .fold((f64::MAX, f64::MAX), |(a, b), (ra, rb)| {
            (a.min(ra), b.min(rb))
        })
}

/// One call of `method`, its reply checked: an integer, or a list of
/// `records` values when `records` is given.
fn call(r: &BoundRef, method: &str, args: &[Value], records: Option<usize>) {
    let reply = r.call(method, args).unwrap();
    match records {
        None => assert!(reply.as_i64().is_some(), "{method} replied {reply:?}"),
        Some(n) => assert_eq!(reply.as_list().map(<[Value]>::len), Some(n)),
    }
}

#[test]
fn a_call_stays_within_its_allocation_budget() {
    let (_net, _reg, cores) = cluster(2);
    let remote = cores[0]
        .new_complet_at("core1", "Counter", &[])
        .expect("create at core1");
    let local = cores[0].new_complet("Counter", &[]).expect("create here");
    let graph = cores[0]
        .new_complet_at("core1", "GraphChunk", &[])
        .expect("create at core1");
    let text = Value::from("x".repeat(4096));
    let mover = cores[0]
        .new_complet_at("core1", "Message", &[text])
        .expect("create at core1");
    assert_eq!(remote.call("add", &[Value::I64(1)]).unwrap(), Value::I64(1));

    // The budgets, as `(allocations, bytes)` on simnet and over TCP:
    // each count as measured when it was set, rounded up (the two
    // hundreds-scale rows by a few allocations and a few hundred bytes).
    // Over TCP a remote call also pays for the frames read off the
    // sockets. (The parent of the change that set the `get` budgets:
    // 21.1 and 23.2 allocations, 1,211 and 1,168 bytes.)
    let tcp = std::env::var("FARGO_TRANSPORT").as_deref() == Ok("tcp");
    let transport = if tcp { "tcp" } else { "simnet" };
    let pick = |simnet: (f64, f64), tcp_budget: (f64, f64)| if tcp { tcp_budget } else { simnet };
    let mut moves = 0u64;
    let rows = [
        (
            "remote get",
            per_op(CALLS, || call(&remote, "get", &[], None)),
            pick((19.0, 1_250.0), (21.0, 1_150.0)),
        ),
        (
            "remote add",
            per_op(CALLS, || call(&remote, "add", &[Value::I64(1)], None)),
            pick((20.0, 1_250.0), (22.0, 1_200.0)),
        ),
        (
            "local get",
            per_op(CALLS, || call(&local, "get", &[], None)),
            (7.0, 200.0),
        ),
        (
            "by-value graph call",
            per_op(GRAPH_CALLS, || call(&graph, "scan", &[], Some(256))),
            pick((1_060.0, 157_000.0), (1_062.0, 169_500.0)),
        ),
        (
            "move of a 4 KiB complet",
            per_op(MOVES, || {
                moves += 1;
                mover
                    .move_to(if moves % 2 == 1 { "core0" } else { "core1" })
                    .unwrap();
            }),
            pick((88.0, 29_000.0), (93.0, 33_000.0)),
        ),
    ];
    for (what, cost, _) in &rows {
        eprintln!("{what} ({transport}): {cost:.2?}");
    }
    for (what, (allocs, bytes), (max_allocs, max_bytes)) in rows {
        assert!(
            allocs <= max_allocs && bytes <= max_bytes,
            "a {what} over {transport} costs {allocs:.2} allocations and {bytes:.0} bytes, \
             over its budget of {max_allocs} and {max_bytes}"
        );
    }
    teardown(&cores);
}
