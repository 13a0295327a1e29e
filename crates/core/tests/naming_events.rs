//! Naming-service and event-mechanism edge cases.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{cluster, teardown};
use fargo_core::{FargoError, Service, Value};

#[test]
fn bind_lookup_unbind_cycle() {
    let (_net, _reg, cores) = cluster(1);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    cores[0].bind("box", msg.complet_ref());
    assert_eq!(cores[0].lookup("box").unwrap().id(), msg.id());
    // Rebinding replaces.
    let other = cores[0].new_complet("Message", &[]).unwrap();
    cores[0].bind("box", other.complet_ref());
    assert_eq!(cores[0].lookup("box").unwrap().id(), other.id());
    // Unbind returns the reference and clears it.
    let removed = cores[0].unbind("box").unwrap();
    assert_eq!(removed.id(), other.id());
    assert!(cores[0].lookup("box").is_none());
    assert!(cores[0].unbind("box").is_none());
    teardown(&cores);
}

#[test]
fn bindings_listing_is_sorted() {
    let (_net, _reg, cores) = cluster(1);
    let m = cores[0].new_complet("Message", &[]).unwrap();
    for name in ["zeta", "alpha", "mid"] {
        cores[0].bind(name, m.complet_ref());
    }
    let names: Vec<String> = cores[0].bindings().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    teardown(&cores);
}

#[test]
fn lookup_stub_reports_missing_names() {
    let (_net, _reg, cores) = cluster(2);
    assert!(matches!(
        cores[0].lookup_stub("ghost"),
        Err(FargoError::NameNotBound(_))
    ));
    assert!(matches!(
        cores[0].lookup_at("core1", "ghost"),
        Err(FargoError::NameNotBound(_))
    ));
    assert!(matches!(
        cores[0].lookup_at("atlantis", "x"),
        Err(FargoError::UnknownCore(_))
    ));
    teardown(&cores);
}

#[test]
fn release_complet_clears_everything() {
    let (_net, _reg, cores) = cluster(1);
    let msg = cores[0]
        .new_named_complet("gone-soon", "Message", &[])
        .unwrap();
    assert!(cores[0].release_complet(msg.id()).is_ok());
    assert!(!cores[0].hosts(msg.id()));
    assert!(cores[0].lookup("gone-soon").is_none());
    assert!(matches!(
        msg.call("print", &[]),
        Err(FargoError::UnknownComplet(_))
    ));
    assert!(matches!(
        cores[0].release_complet(msg.id()),
        Err(FargoError::UnknownComplet(_))
    ));
    teardown(&cores);
}

#[test]
fn tracker_gc_reclaims_idle_forwards() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    assert!(cores[0].tracker_count() >= 1);
    std::thread::sleep(Duration::from_millis(10));
    let dropped = cores[0].collect_trackers(Duration::from_millis(1));
    assert_eq!(dropped, 1, "the forwarding tracker is idle and reclaimable");
    // After GC, the reference still works: the descriptor hint re-seeds.
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("hello fargo"));
    teardown(&cores);
}

#[test]
fn event_subscription_counting_and_unsubscribe() {
    let (_net, _reg, cores) = cluster(1);
    let core = &cores[0];
    assert_eq!(core.subscription_count(), 0);
    let t1 = core.on_event("completArrived", None, true, Arc::new(|_| {}));
    let t2 = core.on_event("completDeparted", None, true, Arc::new(|_| {}));
    assert_eq!(core.subscription_count(), 2);
    assert!(core.unsubscribe(t1));
    assert!(!core.unsubscribe(t1));
    assert!(core.unsubscribe(t2));
    assert_eq!(core.subscription_count(), 0);
    teardown(&cores);
}

#[test]
fn profile_event_subscription_autostarts_and_autostops_profiling() {
    // §4.2: "Internally, the event registration mechanism invokes the
    // proper start method."
    // A listener at another Core, then one at the subscriber's own Core
    // (a local subscription, cancelled without a message).
    let (_net, _reg, cores) = cluster(2);
    let selector = "completLoad";
    let service = Service::CompletLoad;
    for (at, watched) in [("core1", &cores[1]), ("core0", &cores[0])] {
        assert!(!watched.monitor().is_profiling(&service));
        let sub = cores[0]
            .subscribe_at(at, selector, Some(100.0), true, Arc::new(|_| {}))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !watched.monitor().is_profiling(&service) {
            assert!(
                std::time::Instant::now() < deadline,
                "profiling at {at} never started"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        sub.cancel();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while watched.monitor().is_profiling(&service) {
            assert!(
                std::time::Instant::now() < deadline,
                "profiling at {at} never stopped"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    teardown(&cores);
}

#[test]
fn below_threshold_events_fire_on_degradation() {
    // A "quality dropped" policy: notify when completLoad falls to zero.
    let (_net, _reg, cores) = cluster(1);
    let fired = Arc::new(AtomicUsize::new(0));
    let f = fired.clone();
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    cores[0].profile_start(Service::CompletLoad, Duration::from_millis(10));
    std::thread::sleep(Duration::from_millis(80)); // average settles at 1
    cores[0].on_event(
        "completLoad",
        Some(0.5),
        false, // below
        Arc::new(move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        }),
    );
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(fired.load(Ordering::SeqCst), 0, "load is 1: no event yet");
    cores[0].release_complet(msg.id()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while fired.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "below-event never fired"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    teardown(&cores);
}

#[test]
fn queue_len_service_is_measurable() {
    let (_net, _reg, cores) = cluster(1);
    let v = cores[0].profile_instant(&Service::QueueLen).unwrap();
    assert!(v >= 0.0);
    teardown(&cores);
}

#[test]
fn memory_use_scales_with_resident_state() {
    let (_net, _reg, cores) = cluster(1);
    let before = cores[0].profile_instant(&Service::MemoryUse).unwrap();
    let c = cores[0].new_complet("Counter", &[]).unwrap();
    for _ in 0..500 {
        c.call("add", &[Value::I64(1)]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(150)); // cache TTL
    let after = cores[0].profile_instant(&Service::MemoryUse).unwrap();
    assert!(after > before, "memory use must grow: {before} -> {after}");
    teardown(&cores);
}
