//! Monitoring and event tests: profiling services, threshold events,
//! distributed events, and monitoring-driven relocation (§4).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{cluster, cluster_with_config, teardown, test_config};
use fargo_core::{define_complet, CompletId, CoreConfig, EventPayload, Service, Value};

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn instant_complet_load_counts_complets() {
    let (_net, _reg, cores) = cluster(1);
    assert_eq!(
        cores[0].profile_instant(&Service::CompletLoad).unwrap(),
        0.0
    );
    cores[0].new_complet("Message", &[]).unwrap();
    cores[0].new_complet("Message", &[]).unwrap();
    // Within the cache TTL the stale value may be served; wait it out.
    assert!(wait_until(Duration::from_secs(2), || {
        cores[0].profile_instant(&Service::CompletLoad).unwrap() == 2.0
    }));
    teardown(&cores);
}

#[test]
fn instant_bandwidth_and_latency_reflect_link_model() {
    let (net, _reg, cores) = cluster(2);
    net.set_link(
        cores[0].node(),
        cores[1].node(),
        simnet::LinkConfig::new(Duration::from_millis(30)).with_bandwidth(1_000_000),
    )
    .unwrap();
    let peer = cores[1].node().index();
    let bw = cores[0]
        .profile_instant(&Service::Bandwidth { peer })
        .unwrap();
    assert_eq!(bw, 1_000_000.0);
    let lat = cores[0]
        .profile_instant(&Service::Latency { peer })
        .unwrap();
    assert!((lat - 0.030).abs() < 1e-6);
    teardown(&cores);
}

#[test]
fn complet_size_grows_with_state() {
    let (_net, _reg, cores) = cluster(1);
    let c = cores[0].new_complet("Counter", &[]).unwrap();
    let small = cores[0]
        .profile_instant(&Service::CompletSize { id: c.id() })
        .unwrap();
    for _ in 0..200 {
        c.call("add", &[Value::I64(1)]).unwrap();
    }
    // Wait out the instant-cache TTL so we re-measure.
    assert!(wait_until(Duration::from_secs(2), || {
        cores[0]
            .profile_instant(&Service::CompletSize { id: c.id() })
            .map(|big| big > small)
            .unwrap_or(false)
    }));
    teardown(&cores);
}

#[test]
fn continuous_invocation_rate_is_measured() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let app = CompletId::new(cores[0].node().index(), 0);
    let service = Service::MethodInvokeRate {
        src: app,
        dst: msg.id(),
    };
    cores[0].profile_start(service.clone(), Duration::from_millis(20));
    // Generate a steady call stream.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let s2 = stop.clone();
    let m2 = msg.clone();
    let driver = std::thread::spawn(move || {
        while !s2.load(Ordering::SeqCst) {
            let _ = m2.call("print", &[]);
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    let observed = wait_until(Duration::from_secs(5), || {
        cores[0]
            .profile_get(&service)
            .map(|r| r > 10.0)
            .unwrap_or(false)
    });
    stop.store(true, Ordering::SeqCst);
    driver.join().unwrap();
    assert!(observed, "invocation rate should exceed 10/s");
    cores[0].profile_stop(&service);
    teardown(&cores);
}

/// `remoteShare` is the `invoke` envelopes a Core sent per invocation
/// issued there since it was last read: 0 when every call stays on the
/// Core, 1 when every call leaves it. A tracker hop counts at the Core
/// that forwards it, whoever issued the call; a third Core is there only
/// to make that hop.
#[test]
fn remote_share_counts_the_invokes_that_leave() {
    let config = CoreConfig {
        monitor_cache_ttl: Duration::ZERO,
        // No retransmission adds an envelope to what is counted.
        rpc_max_retries: 0,
        ..test_config()
    };
    let (_net, _reg, cores) = cluster_with_config(3, config);
    let share = |i: usize| cores[i].profile_instant(&Service::RemoteShare).unwrap();
    let here = cores[0].new_complet("Message", &[]).unwrap();
    let there = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    there.call("print", &[]).unwrap();
    assert_eq!(share(0), 0.0, "the first read sets the baseline");
    for _ in 0..10 {
        here.call("print", &[]).unwrap();
    }
    assert_eq!(share(0), 0.0, "all-local calls");
    for _ in 0..10 {
        there.call("print", &[]).unwrap();
    }
    assert_eq!(share(0), 1.0, "all-remote calls");
    assert_eq!(share(0), 0.0, "no call since the last read");

    // core1 sends `there` on to core2, so core0's next call to it goes
    // through core1's tracker. core1 issues two calls, both local.
    let local = cores[1].new_complet("Message", &[]).unwrap();
    cores[1].move_complet(there.id(), "core2", None).unwrap();
    share(1);
    for _ in 0..2 {
        local.call("print", &[]).unwrap();
    }
    there.call("print", &[]).unwrap();
    assert_eq!(share(1), 0.5, "the forwarded invoke counts at core1");
    teardown(&cores);
}

#[test]
fn threshold_event_fires_on_crossing() {
    threshold_crossing(1);
}

/// One crossing fans out to every listener, once each.
#[test]
fn one_crossing_notifies_every_listener_once() {
    threshold_crossing(25);
}

/// `listeners` edge-triggered `completLoad > 3` listeners: none fires
/// below the threshold, each fires exactly once on crossing it, and
/// staying above does not re-fire.
fn threshold_crossing(listeners: usize) {
    let (_net, _reg, cores) = cluster(1);
    let fired = Arc::new(AtomicUsize::new(0));
    for _ in 0..listeners {
        let f = fired.clone();
        cores[0].on_event(
            "completLoad",
            Some(3.0),
            true,
            Arc::new(move |e| {
                assert!(e.value().unwrap() >= 3.0);
                f.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }
    cores[0].profile_start(Service::CompletLoad, Duration::from_millis(10));
    for _ in 0..2 {
        cores[0].new_complet("Message", &[]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(fired.load(Ordering::SeqCst), 0, "below threshold: no event");
    for _ in 0..2 {
        cores[0].new_complet("Message", &[]).unwrap();
    }
    assert!(wait_until(Duration::from_secs(3), || {
        fired.load(Ordering::SeqCst) >= listeners
    }));
    // Edge triggering: staying above the threshold does not re-fire.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(fired.load(Ordering::SeqCst), listeners);
    teardown(&cores);
}

/// §4.2: the application is "notified asynchronously … instead of having
/// to continuously poll". A crossing reaches the listener within a
/// second, and every sampler evaluation behind it was a continuous
/// tick that produced an event: the application probed nothing.
#[test]
fn events_detect_a_crossing_without_application_probes() {
    let (_net, _reg, cores) = cluster(1);
    let notified = Arc::new(Mutex::new(None::<Instant>));
    let n = notified.clone();
    cores[0].on_event(
        "completLoad",
        Some(3.0),
        true,
        Arc::new(move |_| {
            n.lock().unwrap().get_or_insert_with(Instant::now);
        }),
    );
    cores[0].profile_start(Service::CompletLoad, Duration::from_millis(10));
    std::thread::sleep(Duration::from_millis(60));
    let crossing = Instant::now();
    // Overshoot: the exponential average must exceed, not just reach, 3.
    for _ in 0..5 {
        cores[0].new_complet("Message", &[]).unwrap();
    }
    assert!(wait_until(Duration::from_secs(5), || notified
        .lock()
        .unwrap()
        .is_some()));
    let latency = notified.lock().unwrap().unwrap() - crossing;
    assert!(
        latency < Duration::from_secs(1),
        "detection took {latency:?}"
    );
    let monitor = cores[0].monitor();
    assert_eq!(monitor.cache_hits(), 0, "no instant probe was served");
    // A tick counts its sample before its event, so read between ticks.
    assert!(
        wait_until(Duration::from_secs(1), || {
            let events = monitor.events_emitted();
            let samples = monitor.samples();
            events == monitor.events_emitted() && samples == events
        }),
        "{} sampler evaluations for {} events",
        monitor.samples(),
        monitor.events_emitted()
    );
    teardown(&cores);
}

#[test]
fn layout_events_fire_on_arrival_and_departure() {
    let (_net, _reg, cores) = cluster(2);
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let l1 = log.clone();
    cores[0].on_event(
        "completDeparted",
        None,
        true,
        Arc::new(move |e| {
            if let EventPayload::CompletDeparted { id, dest, .. } = e {
                l1.lock().unwrap().push(format!("departed {id} -> n{dest}"));
            }
        }),
    );
    let l2 = log.clone();
    cores[1].on_event(
        "completArrived",
        None,
        true,
        Arc::new(move |e| {
            if let EventPayload::CompletArrived { id, .. } = e {
                l2.lock().unwrap().push(format!("arrived {id}"));
            }
        }),
    );
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    assert!(wait_until(Duration::from_secs(3), || log
        .lock()
        .unwrap()
        .len()
        >= 2));
    let entries = log.lock().unwrap().clone();
    assert!(entries.iter().any(|e| e.starts_with("departed")));
    assert!(entries.iter().any(|e| e.starts_with("arrived")));
    teardown(&cores);
}

#[test]
fn remote_subscription_receives_events_across_cores() {
    let (_net, _reg, cores) = cluster(2);
    let seen = Arc::new(AtomicUsize::new(0));
    let s = seen.clone();
    // core0 subscribes to arrivals at core1.
    let sub = cores[0]
        .subscribe_at(
            "core1",
            "completArrived",
            None,
            true,
            Arc::new(move |_| {
                s.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || seen
        .load(Ordering::SeqCst)
        == 1));
    // After cancel, no more notifications.
    sub.cancel();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    teardown(&cores);
}

/// A subscription that never stood holds no handler: subscribing at a
/// stopped Core fails and leaves the handler with its caller alone.
#[test]
fn a_failed_remote_subscription_releases_its_handler() {
    let (_net, _reg, cores) = cluster(2);
    cores[1].stop();
    let handler: fargo_core::EventHandler = Arc::new(|_| {});
    assert!(cores[0]
        .subscribe_at("core1", "completArrived", None, true, handler.clone())
        .is_err());
    assert_eq!(Arc::strong_count(&handler), 1);
    teardown(&cores);
}

/// A subscriber restarted without a log mints its subscription tokens
/// above its previous life's, so a subscription its predecessor left at
/// a peer never reaches a handler of the new life.
#[test]
fn a_restarted_subscriber_never_receives_its_predecessors_events() {
    let (net, reg, mut cores) = common::cluster_on(common::fast_network(), 3, test_config(), false);
    let counting = |n: &Arc<AtomicUsize>| -> fargo_core::EventHandler {
        let n = n.clone();
        Arc::new(move |_| {
            n.fetch_add(1, Ordering::SeqCst);
        })
    };
    let old = Arc::new(AtomicUsize::new(0));
    cores[0]
        .subscribe_at("core1", "completArrived", None, true, counting(&old))
        .unwrap();
    cores[0].stop();
    let ep = net.restart_node(cores[0].node()).unwrap();
    cores[0] = fargo_core::Core::builder(&net, "core0")
        .endpoint(ep)
        .registry(&reg)
        .config(test_config())
        .spawn()
        .unwrap();
    let seen = Arc::new(AtomicUsize::new(0));
    cores[0]
        .subscribe_at("core2", "completArrived", None, true, counting(&seen))
        .unwrap();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        seen.load(Ordering::SeqCst),
        0,
        "an event from core1 arrived"
    );
    cores[0].new_complet_at("core2", "Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || seen
        .load(Ordering::SeqCst)
        == 1));
    teardown(&cores);
}

define_complet! {
    /// A complet that counts events delivered to it via `on_event`.
    pub complet Watcher {
        state { seen: i64 = 0 }
        fn on_event(&mut self, _ctx, _args) {
            self.seen += 1;
            Ok(Value::Null)
        }
        fn seen(&mut self, _ctx, _args) {
            Ok(Value::I64(self.seen))
        }
        fn watch(&mut self, ctx, _args) {
            ctx.subscribe_self("completArrived", None, true);
            Ok(Value::Null)
        }
    }
}

#[test]
fn complet_listeners_keep_receiving_after_they_migrate() {
    // The distributed-events property of §4.2: a complet registers for
    // events, moves to another Core, and still gets notified.
    let (_net, reg, cores) = cluster(2);
    Watcher::register(&reg);
    let watcher = cores[0].new_complet("Watcher", &[]).unwrap();
    watcher.call("watch", &[]).unwrap();

    // Trigger an event at core0: the local watcher hears it.
    cores[0].new_complet("Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        watcher.call("seen", &[]).unwrap().as_i64().unwrap() >= 1
    }));

    // Move the watcher away; events fired at core0 must still reach it
    // (via its tracked reference), at its new home.
    watcher.move_to("core1").unwrap();
    let before = watcher.call("seen", &[]).unwrap().as_i64().unwrap();
    cores[0].new_complet("Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        watcher.call("seen", &[]).unwrap().as_i64().unwrap() > before
    }));
    assert!(cores[1].hosts(watcher.id()));
    teardown(&cores);
}

#[test]
fn shutdown_event_reaches_remote_subscribers() {
    let (_net, _reg, cores) = cluster(2);
    let heard = Arc::new(AtomicUsize::new(0));
    let h = heard.clone();
    cores[0]
        .subscribe_at(
            "core1",
            "coreShutdown",
            None,
            true,
            Arc::new(move |e| {
                assert!(matches!(e, EventPayload::CoreShutdown { .. }));
                h.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    cores[1].shutdown(Duration::from_millis(50));
    assert!(wait_until(Duration::from_secs(3), || heard
        .load(Ordering::SeqCst)
        == 1));
    teardown(&cores);
}

#[test]
fn monitoring_driven_relocation_end_to_end() {
    // The paper's §4.1 policy sketch: when the invocation rate along a
    // reference exceeds a threshold, co-locate the complets.
    let (_net, _reg, cores) = cluster(2);
    let server = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let app = CompletId::new(cores[0].node().index(), 0);
    let service = Service::MethodInvokeRate {
        src: app,
        dst: server.id(),
    };
    let core0 = cores[0].clone();
    let server_id = server.id();
    let moved = Arc::new(AtomicUsize::new(0));
    let m = moved.clone();
    cores[0].profile_start(service.clone(), Duration::from_millis(20));
    cores[0].on_event(
        &service.to_string(),
        Some(3.0),
        true,
        Arc::new(move |_| {
            if core0.move_complet(server_id, "core0", None).is_ok() {
                m.fetch_add(1, Ordering::SeqCst);
            }
        }),
    );
    // Chatty phase: drive the rate above 3/s.
    for _ in 0..200 {
        let _ = server.call("print", &[]);
        std::thread::sleep(Duration::from_millis(1));
        if cores[0].hosts(server.id()) {
            break;
        }
    }
    assert!(
        wait_until(Duration::from_secs(5), || cores[0].hosts(server.id())),
        "the chatty server should have been pulled to core0"
    );
    // The mover's own bookkeeping trails the arrival by one RPC leg.
    assert!(wait_until(Duration::from_secs(2), || {
        moved.load(Ordering::SeqCst) >= 1
    }));
    teardown(&cores);
}

#[test]
fn monitor_stats_expose_cache_effect() {
    let (_net, _reg, cores) = cluster(1);
    cores[0].new_complet("Message", &[]).unwrap();
    let before = cores[0].monitor().cache_hits();
    for _ in 0..10 {
        cores[0].profile_instant(&Service::CompletLoad).unwrap();
    }
    let after = cores[0].monitor().cache_hits();
    assert!(after >= before + 8);
    teardown(&cores);
}

/// Sampler evaluations and cache hits spent by 2,000 instant probes,
/// one after every call, on a Core whose instant cache keeps results
/// for `ttl`.
fn probe_after_every_call(ttl: Duration) -> (u64, u64) {
    let config = CoreConfig {
        monitor_cache_ttl: ttl,
        ..test_config()
    };
    let (_net, _reg, cores) = cluster_with_config(1, config);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let monitor = cores[0].monitor();
    let (evals, hits) = (monitor.samples(), monitor.cache_hits());
    for _ in 0..2_000 {
        msg.call("print", &[]).unwrap();
        cores[0].profile_instant(&Service::CompletLoad).unwrap();
    }
    let spent = (monitor.samples() - evals, monitor.cache_hits() - hits);
    teardown(&cores);
    spent
}

/// §4.1's instant cache: within its TTL most probes are answered from
/// the cache instead of re-evaluating the measure.
#[test]
fn instant_probes_within_the_ttl_hit_the_cache() {
    let (evals, hits) = probe_after_every_call(Duration::from_millis(100));
    assert!(
        hits > 1_500 && evals < 500,
        "cached: {evals} evals, {hits} hits"
    );
}

/// With no TTL every probe pays exactly one sampler evaluation.
#[test]
fn uncached_instant_probes_each_run_the_sampler() {
    let spent = probe_after_every_call(Duration::ZERO);
    assert_eq!(spent, (2_000, 0), "uncached: one eval per probe");
}
