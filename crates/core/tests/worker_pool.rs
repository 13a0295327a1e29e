//! Worker-pool semantics: sizing is validated at spawn, shed requests and
//! shed tasks are counted exactly once, and read-only requests bypass the
//! pool entirely.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use common::{cluster_with_config, counter, registry, teardown, test_config};
use fargo_core::{define_complet, Core, FargoError, Value};
use simnet::{LinkConfig, Network, NetworkConfig};

/// Closed until a test opens it; `Sleeper::park` waits for it.
static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

define_complet! {
    /// Holds a worker thread hostage for a caller-chosen duration, or
    /// until the gate opens.
    pub complet Sleeper {
        state {
            naps: i64 = 0,
        }
        fn nap(&mut self, _ctx, args) {
            let ms = args.first().and_then(Value::as_i64).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms as u64));
            self.naps += 1;
            Ok(Value::I64(self.naps))
        }
        fn park(&mut self, _ctx, _args) {
            let (open, opened) = &GATE;
            let mut open = open.lock().unwrap();
            while !*open {
                open = opened.wait(open).unwrap();
            }
            Ok(Value::Null)
        }
        fn boom(&mut self, _ctx, _args) {
            panic!("boom");
        }
    }
}

#[test]
fn zero_sized_worker_pool_is_a_config_error() {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = registry();

    let err = Core::builder(&net, "no-threads")
        .registry(&reg)
        .config(test_config().with_worker_pool(0, 8))
        .spawn()
        .expect_err("zero worker threads must be rejected");
    assert!(
        err.to_string().contains("worker_threads"),
        "error should name the offending knob: {err}"
    );

    let err = Core::builder(&net, "no-queue")
        .registry(&reg)
        .config(test_config().with_worker_pool(2, 0))
        .spawn()
        .expect_err("zero queue depth must be rejected, not silently clamped");
    assert!(
        err.to_string().contains("worker_queue_depth"),
        "error should name the offending knob: {err}"
    );
}

/// With one worker and a depth-1 queue, saturate the pool, then send `K`
/// single-transmission requests. Each must be shed and counted exactly
/// once: no double counting, no silent drops.
#[test]
fn shed_requests_are_counted_exactly_once() {
    let mut cfg = test_config().with_worker_pool(1, 1);
    cfg.rpc_max_retries = 0; // one transmission per call: counts are exact
    cfg.rpc_timeout = Duration::from_secs(10);
    let (_net, reg, cores) = cluster_with_config(2, cfg);
    Sleeper::register(&reg);

    let sleeper = cores[0]
        .new_complet_at("core1", "Sleeper", &[])
        .expect("spawn sleeper");

    // Occupy the only worker...
    let busy = sleeper.call_async("nap", &[Value::I64(900)]);
    std::thread::sleep(Duration::from_millis(200));
    // ...and fill the depth-1 queue behind it.
    let queued = sleeper.call_async("nap", &[Value::I64(0)]);
    std::thread::sleep(Duration::from_millis(200));

    let before = counter(&cores[1], "fargo_worker_rejections_total");
    const K: usize = 5;
    let shed: Vec<_> = (0..K)
        .map(|_| sleeper.call_async("nap", &[Value::I64(0)]))
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let rejected = counter(&cores[1], "fargo_worker_rejections_total") - before;
    assert_eq!(
        rejected, K as u64,
        "each shed request must be counted exactly once"
    );

    // The accepted work still completes.
    assert_eq!(busy.wait().expect("busy nap"), Value::I64(1));
    assert_eq!(queued.wait().expect("queued nap"), Value::I64(2));
    drop(shed);
    teardown(&cores);
}

/// Waits until `core` holds exactly `n` units of accepted work.
fn wait_pending(core: &Core, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while core.pending_work() != n {
        assert!(Instant::now() < deadline, "{} pending", core.pending_work());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The Core's own tasks share the pool's queue and its shed policy: with
/// the only worker held in `nap` and the depth-1 queue filled, `K` local
/// event deliveries are each shed and counted once, never run, and never
/// block the Core that fires them; an inline-safe request is still
/// answered; and the accepted work completes after release.
#[test]
fn shed_tasks_are_counted_exactly_once() {
    let mut cfg = test_config().with_worker_pool(1, 1);
    cfg.rpc_timeout = Duration::from_secs(10);
    let (_net, reg, cores) = cluster_with_config(2, cfg);
    Sleeper::register(&reg);

    let sleeper = cores[0]
        .new_complet_at("core1", "Sleeper", &[])
        .expect("spawn sleeper");
    let fired = Arc::new(AtomicUsize::new(0));
    let f = fired.clone();
    cores[1].on_event(
        "completArrived",
        None,
        true,
        Arc::new(move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        }),
    );

    // Occupy the only worker...
    let busy = sleeper.call_async("nap", &[Value::I64(900)]);
    std::thread::sleep(Duration::from_millis(200));
    // ...and fill the depth-1 queue behind it.
    let queued = sleeper.call_async("nap", &[Value::I64(0)]);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(cores[1].pending_work(), 2, "one nap running, one queued");

    let before = counter(&cores[1], "fargo_worker_rejections_total");
    const K: usize = 5;
    for _ in 0..K {
        // Created on the test thread: each arrival fires one delivery.
        cores[1].new_complet("Message", &[]).expect("local create");
    }
    let rejected = counter(&cores[1], "fargo_worker_rejections_total") - before;
    assert_eq!(
        rejected, K as u64,
        "each shed delivery must be counted exactly once"
    );
    cores[0]
        .ping("core1")
        .expect("ping must be served inline while the pool is full");

    // The accepted work still completes, and the drained pool takes the
    // next delivery: the shed ones never ran.
    assert_eq!(busy.wait().expect("busy nap"), Value::I64(1));
    assert_eq!(queued.wait().expect("queued nap"), Value::I64(2));
    cores[1].new_complet("Message", &[]).expect("local create");
    wait_pending(&cores[1], 0);
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    teardown(&cores);
}

/// An outstanding call is an entry in the caller's pending map, not a
/// parked thread: with the callee's two workers held at a gate, one Core
/// holds ten thousand calls in flight at once, a queue deep enough for
/// all of them sheds none, and every one is answered once the gate
/// opens.
#[test]
fn ten_thousand_calls_stay_in_flight_without_a_rejection() {
    const CALLS: usize = 10_000;
    let mut cfg = test_config().with_worker_pool(2, 32_768);
    cfg.rpc_max_retries = 0; // one transmission per call: counts are exact
    cfg.rpc_timeout = Duration::from_secs(60);
    let (_net, reg, cores) = cluster_with_config(2, cfg);
    Sleeper::register(&reg);

    let sleeper = cores[0]
        .new_complet_at("core1", "Sleeper", &[])
        .expect("spawn sleeper");
    // The first park holds the complet; whatever the second worker picks
    // up next waits behind it.
    let parked: Vec<_> = (0..2).map(|_| sleeper.call_async("park", &[])).collect();
    let calls: Vec<_> = (0..CALLS).map(|_| sleeper.call_async("nap", &[])).collect();
    let in_flight = cores[0].inflight_rpcs();

    let (open, opened) = &GATE;
    *open.lock().unwrap() = true;
    opened.notify_all();
    let failed = parked
        .into_iter()
        .chain(calls)
        .map(|p| p.wait())
        .filter(Result::is_err)
        .count();
    assert!(in_flight >= CALLS, "{in_flight} calls in flight");
    assert_eq!(failed, 0, "every call is answered");
    assert_eq!(counter(&cores[1], "fargo_worker_rejections_total"), 0);
    teardown(&cores);
}

/// Read-only control requests are served inline by the receiver thread:
/// a saturated worker pool must not make the Core unobservable.
#[test]
fn inline_requests_bypass_a_saturated_pool() {
    let mut cfg = test_config().with_worker_pool(1, 1);
    cfg.rpc_timeout = Duration::from_secs(10);
    let (_net, reg, cores) = cluster_with_config(2, cfg);
    Sleeper::register(&reg);

    let sleeper = cores[0]
        .new_complet_at("core1", "Sleeper", &[])
        .expect("spawn sleeper");
    let busy = sleeper.call_async("nap", &[Value::I64(700)]);
    std::thread::sleep(Duration::from_millis(150));
    let queued = sleeper.call_async("nap", &[Value::I64(0)]);
    std::thread::sleep(Duration::from_millis(150));

    let inline_before = counter(&cores[1], "fargo_worker_inline_total");
    cores[0]
        .ping("core1")
        .expect("ping must be served inline while the pool is saturated");
    assert!(
        counter(&cores[1], "fargo_worker_inline_total") > inline_before,
        "inline fast path should have served the ping"
    );

    busy.wait().expect("busy nap");
    queued.wait().expect("queued nap");
    teardown(&cores);
}

/// A method that panics fails its call at once, not at the caller's
/// timeout, and the pool's only worker lives on to serve the next call.
#[test]
fn a_panicking_method_fails_its_call_and_spares_the_worker() {
    let (_net, reg, cores) = cluster_with_config(2, test_config().with_worker_pool(1, 8));
    Sleeper::register(&reg);
    let sleeper = cores[0]
        .new_complet_at("core1", "Sleeper", &[])
        .expect("spawn sleeper");

    let started = Instant::now();
    let err = sleeper
        .call("boom", &[])
        .expect_err("a panic fails the call");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "answered after {:?}, the timeout is 5 s",
        started.elapsed()
    );
    assert!(
        matches!(&err, FargoError::App(m) if m.contains("boom")),
        "{err:?}"
    );
    assert_eq!(
        sleeper.call("nap", &[Value::I64(0)]).unwrap(),
        Value::I64(1)
    );
    wait_pending(&cores[1], 0);
    teardown(&cores);
}
