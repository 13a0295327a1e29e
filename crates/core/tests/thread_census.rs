//! E26: a Core's thread count is fixed when it starts — no thread per
//! event delivery, move, continuation or call. A 3-Core cluster, warmed
//! up so every link has its TCP reader, then holds the same number of
//! threads at the peak of an event storm of 50 deliveries as at the
//! peak of one of 400, with moves and pipelined calls mixed in. A stop
//! ends a Core's threads before it returns: stopping one Core under load
//! drops the count by that Core's threads at once, and the moment
//! teardown returns the count is back where it started.
//!
//! This is the only test of its binary on purpose: `/proc/self/status`
//! counts every thread of the process, and the harness would run any
//! other test beside it on threads of its own.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use common::{cluster_with_config, teardown, test_config};
use fargo_core::Core;

/// Local listeners on `core1`; a storm of `n` arrivals there is
/// `LISTENERS * n` deliveries.
const LISTENERS: usize = 10;

/// This process's `Threads:` line.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Polls `cond` for up to five seconds.
fn wait_until(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

/// `arrivals` complets created at `core1` from `core0` (one delivery per
/// listener each), each then moved on to `core2` and called four times
/// there, pipelined, from `core0`.
fn storm(cores: &[Core], arrivals: usize) {
    let refs: Vec<_> = (0..arrivals)
        .map(|_| {
            cores[0]
                .new_complet_at("core1", "Counter", &[])
                .expect("create at core1")
        })
        .collect();
    for r in &refs {
        cores[1]
            .move_complet(r.id(), "core2", None)
            .expect("move to core2");
    }
    let calls: Vec<_> = refs
        .iter()
        .flat_map(|r| (0..4).map(move |_| r.call_async("add", &[])))
        .collect();
    for c in calls {
        c.wait().expect("pipelined add");
    }
}

#[test]
fn the_thread_count_does_not_grow_with_the_storm() {
    // One poller samples the count throughout; it exists before every
    // reading, so it counts in all of them alike.
    let peak = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let (peak, stop) = (Arc::clone(&peak), Arc::clone(&stop));
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(threads(), Ordering::SeqCst);
                thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let before_cluster = threads();

    let (net, _reg, cores) = cluster_with_config(3, test_config());
    for a in &cores {
        for b in &cores {
            if a.name() != b.name() {
                a.ping(b.name()).expect("warm-up ping");
            }
        }
    }
    let fired = Arc::new(AtomicUsize::new(0));
    for _ in 0..LISTENERS {
        let f = Arc::clone(&fired);
        cores[1].on_event(
            "completArrived",
            None,
            true,
            Arc::new(move |_| {
                // Long enough that deliveries overlap.
                thread::sleep(Duration::from_millis(2));
                f.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }
    let baseline = threads();

    for arrivals in [5, 40] {
        fired.store(0, Ordering::SeqCst);
        peak.store(0, Ordering::SeqCst);
        storm(&cores, arrivals);
        let deliveries = LISTENERS * arrivals;
        assert!(
            wait_until(|| fired.load(Ordering::SeqCst) >= deliveries),
            "{} of {deliveries} deliveries",
            fired.load(Ordering::SeqCst)
        );
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            deliveries,
            "every listener fires once per arrival"
        );
        assert_eq!(
            peak.load(Ordering::SeqCst),
            baseline,
            "peak threads over a storm of {deliveries} deliveries"
        );
    }

    stop_one_under_load(&cores);

    teardown(&cores);
    // The network's delivery scheduler is all that is left: `net` holds it.
    assert_eq!(
        threads(),
        before_cluster + 1,
        "threads when teardown returned"
    );
    drop(cores);
    drop(net);
    assert_eq!(
        threads(),
        before_cluster,
        "threads once the network is gone"
    );
    stop.store(true, Ordering::SeqCst);
    poller.join().expect("poller");
}

/// Stops `core2` while `core0` and `core1` call a complet on it: when
/// `stop` returns, the count has dropped by its workers, receiver and
/// monitor, and over TCP its acceptor and its readers of the two peers'
/// links. (The peers' readers of its own links end when they see its
/// hang-up, after that.)
fn stop_one_under_load(cores: &[Core]) {
    let tcp = std::env::var("FARGO_TRANSPORT").as_deref() == Ok("tcp");
    let peers = cores.len() - 1;
    let own = cores[2].config().worker_threads + 2 + if tcp { 1 + peers } else { 0 };
    let target = cores[0]
        .new_complet_at("core2", "Counter", &[])
        .expect("create at core2")
        .complet_ref()
        .clone();
    let (calls, halt) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let load: Vec<_> = cores[..2]
        .iter()
        .map(|core| {
            let r = core.stub(target.clone());
            let (calls, halt) = (Arc::clone(&calls), Arc::clone(&halt));
            thread::spawn(move || {
                while !halt.load(Ordering::SeqCst) {
                    if r.call("add", &[]).is_ok() {
                        calls.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    assert!(wait_until(|| calls.load(Ordering::SeqCst) >= 100), "load");
    let before = threads();
    cores[2].stop();
    let after = threads();
    if tcp {
        assert!(
            before - after >= own,
            "{before} -> {after}, {own} of core2's own"
        );
        assert!(
            wait_until(|| threads() == before - own - peers),
            "{before} -> {}, {own} of core2's own and {peers} peer readers",
            threads()
        );
    } else {
        assert_eq!(before - after, own, "core2's threads");
    }
    halt.store(true, Ordering::SeqCst);
    for l in load {
        l.join().expect("load");
    }
}
