//! `Core::stop` is safe from anywhere: from a complet method running on
//! one of the Core's own workers, from an event listener, from two
//! threads at once and a second time. Each call returns. And a stop
//! from outside is not held up by a worker parked in a wait: an rpc
//! reply that will never come, or a complet in transit, releases it at
//! once, under the wall clock and under a virtual one nobody advances.

mod common;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use common::{cluster, cluster_with_config, teardown, test_config};
use fargo_core::{define_complet, Clock, CompletRef, Core, CoreConfig, FargoError, Value};
use simnet::{LinkConfig, Network};

/// Halts of `Halter` that returned, by test (each test uses its own slot).
static HALTED: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

define_complet! {
    /// Stops the Core it runs on, from inside a method.
    pub complet Halter {
        state {}
        fn halt(&mut self, ctx, args) {
            ctx.core().stop();
            let slot = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
            HALTED[slot].fetch_add(1, Ordering::SeqCst);
            Ok(Value::Null)
        }
    }
}

define_complet! {
    /// Calls `add` on the Counter it was pointed at.
    pub complet Relay {
        state {
            peer: Option<CompletRef> = None,
        }
        fn set_peer(&mut self, _ctx, args) {
            let r = args
                .first()
                .and_then(Value::as_ref_desc)
                .cloned()
                .ok_or_else(|| FargoError::InvalidArgument("need a ref".into()))?;
            self.peer = Some(CompletRef::from_descriptor(r));
            Ok(Value::Null)
        }
        fn relay(&mut self, ctx, _args) {
            let peer = self.peer.clone().ok_or_else(|| FargoError::App("no peer".into()))?;
            ctx.call(&peer, "add", &[])
        }
    }
}

/// Polls `cond` for up to five seconds.
fn wait_until(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in 5 s");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Stops `core` from this thread and returns how long `stop` took.
fn timed_stop(core: &Core) -> Duration {
    let t0 = Instant::now();
    core.stop();
    t0.elapsed()
}

/// Drops everything `src` sends to `dst` (the send itself succeeds).
fn lose(net: &Network, src: &Core, dst: &Core) {
    let lossy = LinkConfig {
        loss: 1.0,
        ..LinkConfig::instant()
    };
    net.set_link_directed(src.node(), dst.node(), lossy)
        .expect("lossy link");
}

/// The wall clock and a virtual clock that stands still.
fn clocks() -> [Clock; 2] {
    [Clock::Wall, Clock::Virtual(Arc::new(AtomicU64::new(1_000)))]
}

/// Long enough that a parked worker stays parked until `stop`.
fn patient(clock: Clock) -> CoreConfig {
    CoreConfig {
        rpc_timeout: Duration::from_secs(30),
        transit_wait: Duration::from_secs(30),
        clock,
        ..test_config()
    }
}

#[test]
fn stop_from_a_complet_method_on_a_worker_returns() {
    let (_net, reg, cores) = cluster(2);
    Halter::register(&reg);
    let halter = cores[0].new_complet_at("core1", "Halter", &[]).unwrap();
    // Runs on one of core1's workers: its `stop` cannot wait for itself.
    let pending = halter.call_async("halt", &[Value::I64(0)]);
    wait_until(|| HALTED[0].load(Ordering::SeqCst) == 1);
    assert!(timed_stop(&cores[1]) < Duration::from_secs(1));
    drop(pending);
    // From a thread that is not the Core's own, the method's `stop` waits
    // for every thread of the Core, and then the method returns.
    let local = cores[0].new_complet("Halter", &[]).unwrap();
    local.call("halt", &[Value::I64(1)]).unwrap();
    assert_eq!(HALTED[1].load(Ordering::SeqCst), 1);
    assert!(cores[0].new_complet_at("core1", "Halter", &[]).is_err());
    teardown(&cores);
}

#[test]
fn stop_from_a_listener_task_returns() {
    let (_net, _reg, cores) = cluster(1);
    let stopped = Arc::new(AtomicUsize::new(0));
    let (core, done) = (cores[0].clone(), Arc::clone(&stopped));
    cores[0].on_event(
        "completArrived",
        None,
        true,
        Arc::new(move |_| {
            core.stop();
            done.fetch_add(1, Ordering::SeqCst);
        }),
    );
    cores[0].new_complet("Counter", &[]).unwrap();
    wait_until(|| stopped.load(Ordering::SeqCst) == 1);
    assert!(timed_stop(&cores[0]) < Duration::from_secs(1));
}

#[test]
fn stop_from_two_threads_at_once_and_again_returns() {
    let (_net, _reg, cores) = cluster(2);
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    counter.call("add", &[]).unwrap();
    let stoppers: Vec<_> = (0..2)
        .map(|_| {
            let core = cores[1].clone();
            thread::spawn(move || timed_stop(&core))
        })
        .collect();
    for s in stoppers {
        assert!(s.join().expect("stopper") < Duration::from_secs(1));
    }
    assert!(timed_stop(&cores[1]) < Duration::from_secs(1));
    assert!(counter.call("add", &[]).is_err());
    teardown(&cores);
}

#[test]
fn stop_wakes_a_worker_parked_in_an_rpc_wait() {
    for clock in clocks() {
        let (net, reg, cores) = cluster_with_config(2, patient(clock.clone()));
        Relay::register(&reg);
        let counter = cores[0].new_complet("Counter", &[]).unwrap();
        let relay = cores[0].new_complet_at("core1", "Relay", &[]).unwrap();
        let peer = Value::from(counter.complet_ref().descriptor());
        relay.call("set_peer", &[peer]).unwrap();
        lose(&net, &cores[1], &cores[0]);
        // core1's worker calls core0 and waits for a reply that is lost.
        let pending = relay.call_async("relay", &[]);
        wait_until(|| cores[1].inflight_rpcs() == 1);
        thread::sleep(Duration::from_millis(20));
        let took = timed_stop(&cores[1]);
        assert!(
            took < Duration::from_millis(100),
            "{clock:?}: stop took {took:?}"
        );
        drop(pending);
        teardown(&cores);
    }
}

#[test]
fn stop_wakes_a_worker_parked_on_a_complet_in_transit() {
    for clock in clocks() {
        let (net, _reg, cores) = cluster_with_config(3, patient(clock.clone()));
        let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
        counter.call("add", &[]).unwrap();
        lose(&net, &cores[1], &cores[2]);
        // The move's prepare is lost: the complet stays in transit.
        let mover = {
            let (core, id) = (cores[1].clone(), counter.id());
            thread::spawn(move || core.move_complet(id, "core2", None))
        };
        wait_until(|| cores[1].inflight_rpcs() == 1);
        // core1's worker finds it in transit and polls.
        let pending = counter.call_async("add", &[]);
        wait_until(|| cores[1].pending_work() == 1);
        thread::sleep(Duration::from_millis(20));
        let took = timed_stop(&cores[1]);
        assert!(
            took < Duration::from_millis(100),
            "{clock:?}: stop took {took:?}"
        );
        assert!(mover.join().expect("mover").is_err());
        drop(pending);
        teardown(&cores);
    }
}
