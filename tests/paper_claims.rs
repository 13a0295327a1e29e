//! A checklist of the paper's explicit claims, each asserted against the
//! running system. Section numbers refer to the ICDCS'99 paper.

mod common;

use std::time::Duration;

use common::{cluster, cluster_with_config, registry, teardown, wait_until};
use fargo::prelude::*;

/// §3.1: "the stub's interface can be nearly identical to that of the
/// target's anchor" — invocation syntax does not change with locality.
#[test]
fn claim_invocation_is_location_transparent() {
    let (_net, cores) = cluster(3);
    let store = cores[0].new_complet("Store", &[]).unwrap();
    store
        .call("put", &[Value::from("k"), Value::from("v1")])
        .unwrap();
    for dest in ["core1", "core2", "core0"] {
        store.move_to(dest).unwrap();
        // Identical call, wherever it lives.
        assert_eq!(
            store.call("get", &[Value::from("k")]).unwrap(),
            Value::from("v1")
        );
    }
    teardown(&cores);
}

/// §3.1: "only one tracker per target complet in a single Core, although
/// the number of complet references … can be large."
#[test]
fn claim_one_tracker_per_target_per_core() {
    let (_net, cores) = cluster(2);
    let target = cores[0].new_complet_at("core1", "Store", &[]).unwrap();
    for _ in 0..64 {
        let stub = cores[0].stub(target.complet_ref().degraded());
        stub.call("ops", &[]).unwrap();
    }
    let trackers_for_target = cores[0]
        .tracker_snapshot()
        .iter()
        .filter(|t| t.id == target.id())
        .count();
    assert_eq!(trackers_for_target, 1);
    teardown(&cores);
}

/// §3.1: "while returning from each invocation, all the trackers in the
/// chain are set to point directly to the target's location."
#[test]
fn claim_chain_shortening_on_return() {
    let (net, cores) = cluster(4);
    let store = cores[0].new_complet("Store", &[]).unwrap();
    for dest in ["core1", "core2", "core3"] {
        store.move_to(dest).unwrap();
    }
    store.call("ops", &[]).unwrap(); // walks and shortens
    let before = net.link_stats(cores[1].node(), cores[2].node()).messages;
    store.call("ops", &[]).unwrap(); // must go direct now
    let after = net.link_stats(cores[1].node(), cores[2].node()).messages;
    assert_eq!(after, before, "no traffic through old chain links");
    teardown(&cores);
}

/// §3.1: "parameters are always passed by value along a complet
/// reference, except for complet parameters, which are passed by
/// (complet) reference" — and passed references degrade to `link`.
#[test]
fn claim_parameter_passing_semantics() {
    let (_net, cores) = cluster(2);
    let a = cores[0].new_complet("Store", &[]).unwrap();
    let b = cores[0].new_complet_at("core1", "Store", &[]).unwrap();

    // By-value: a mutation of the sent graph at the receiver cannot be
    // observed by the sender's copy.
    let graph = Value::list([Value::from(1i64), Value::from(2i64)]);
    b.call("put", &[Value::from("g"), graph.clone()]).unwrap();
    assert_eq!(b.call("get", &[Value::from("g")]).unwrap(), graph);

    // By-reference for anchors: pass `a`'s anchor to `b`; `b` stores the
    // reference, not a copy of `a` — the reference must be degraded.
    a.meta().set_relocator("pull").unwrap();
    b.call(
        "put",
        &[
            Value::from("ref"),
            Value::from(a.complet_ref().descriptor()),
        ],
    )
    .unwrap();
    let stored = b.call("get", &[Value::from("ref")]).unwrap();
    let stored_ref = stored.as_ref_desc().expect("a reference, not a copy");
    assert_eq!(stored_ref.target, a.id(), "same complet, by reference");
    assert_eq!(stored_ref.relocator, "link", "degraded on crossing (§3.1)");
    teardown(&cores);
}

/// §3.2: reference semantics evolve at runtime through the meta
/// reference, "without changing the invocation syntax".
#[test]
fn claim_reflective_retyping() {
    let (_net, cores) = cluster(2);
    let store = cores[0].new_complet("Store", &[]).unwrap();
    let meta = store.meta();
    assert_eq!(meta.relocator_name(), "link");
    meta.set_relocator("duplicate").unwrap();
    assert_eq!(meta.relocator_name(), "duplicate");
    // Invocation syntax unchanged after retyping.
    store.call("ops", &[]).unwrap();
    teardown(&cores);
}

/// §3.3: "all complets that should move as a result of the same movement
/// request are part of the same stream, thus only a single inter-Core
/// message is involved."
#[test]
fn claim_single_message_comovement() {
    // Naming off: the sharded location service adds constant-size
    // publish notifies that would skew this raw message count.
    let (net, cores) = cluster_with_config(2, CoreConfig::default().with_naming_shards(false));
    // Build a pull chain: root -> d1 -> d2 (refs stored in complet state).
    let root = cores[0].new_complet("Store", &[]).unwrap();
    let d1 = cores[0].new_complet("Store", &[]).unwrap();
    let d2 = cores[0].new_complet("Store", &[]).unwrap();
    for (holder, dep) in [(&root, &d1), (&d1, &d2)] {
        // Passed references arrive degraded to link (§3.1); the holder
        // then retypes its own reference to pull.
        holder
            .call(
                "put",
                &[
                    Value::from("dep"),
                    Value::from(dep.complet_ref().descriptor()),
                ],
            )
            .unwrap();
        holder
            .call("retype", &[Value::from("dep"), Value::from("pull")])
            .unwrap();
    }
    let before = net.link_stats(cores[0].node(), cores[1].node()).messages;
    root.move_to("core1").unwrap();
    let requests = net.link_stats(cores[0].node(), cores[1].node()).messages - before;
    // The whole transitively pulled closure ships in the single
    // MovePrepare; the only other message is the constant-size
    // MoveCommit of the two-phase transfer — the count is independent
    // of how many complets co-move.
    assert_eq!(
        requests, 2,
        "transitively pulled closure in one data message"
    );
    for c in [&root, &d1, &d2] {
        assert!(cores[1].hosts(c.id()));
    }
    teardown(&cores);
}

/// §3.3: weak mobility — four movement callbacks and continuations exist
/// (asserted in depth in the core crate; here: continuation runs).
#[test]
fn claim_call_with_continuation() {
    let (_net, cores) = cluster(2);
    let store = cores[0].new_complet("Store", &[]).unwrap();
    store
        .move_with(
            "core1",
            "put",
            vec![Value::from("arrived"), Value::from("yes")],
        )
        .unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        store.call("get", &[Value::from("arrived")]).unwrap() == Value::from("yes")
    }));
    teardown(&cores);
}

/// §4.1: "the Core monitors only resources that some application has
/// interest in, minimizing system overhead."
#[test]
fn claim_interest_driven_monitoring() {
    let (_net, cores) = cluster(1);
    let core = &cores[0];
    assert_eq!(core.monitor().active_services(), 0);
    core.profile_start(Service::CompletLoad, Duration::from_millis(10));
    assert_eq!(core.monitor().active_services(), 1);
    core.profile_stop(&Service::CompletLoad);
    assert_eq!(core.monitor().active_services(), 0);
    teardown(&cores);
}

/// §4.2: "every complet relocation fires a completDepartured event at the
/// source Core and a completArrived event at the destination Core."
#[test]
fn claim_relocation_fires_layout_events() {
    let (_net, cores) = cluster(2);
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    for (core, selector) in [
        (&cores[0], "completDeparted"),
        (&cores[1], "completArrived"),
    ] {
        let s = seen.clone();
        let sel = selector.to_owned();
        core.on_event(
            selector,
            None,
            true,
            std::sync::Arc::new(move |_| s.lock().unwrap().push(sel.clone())),
        );
    }
    let store = cores[0].new_complet("Store", &[]).unwrap();
    store.move_to("core1").unwrap();
    assert!(wait_until(Duration::from_secs(3), || seen
        .lock()
        .unwrap()
        .len()
        >= 2));
    let events = seen.lock().unwrap().clone();
    assert!(events.contains(&"completDeparted".to_owned()));
    assert!(events.contains(&"completArrived".to_owned()));
    teardown(&cores);
}

/// §2: instantiation follows the local model — `new_complet` is the
/// `new Message_()` of Figure 3, and the same registry ("classpath")
/// serves every Core, which is what weak code mobility presumes.
#[test]
fn claim_shared_registry_constructs_everywhere() {
    let (net, cores) = cluster(3);
    let reg = registry();
    let extra = Core::builder(&net, "late-joiner")
        .registry(&reg)
        .spawn()
        .unwrap();
    // Even a Core added later can host the moved complet, because the
    // "class" is available through the shared registry.
    let store = cores[0].new_complet("Store", &[]).unwrap();
    store
        .call("put", &[Value::from("x"), Value::I64(1)])
        .unwrap();
    store.move_to("late-joiner").unwrap();
    assert!(extra.hosts(store.id()));
    assert_eq!(
        store.call("get", &[Value::from("x")]).unwrap(),
        Value::I64(1)
    );
    extra.stop();
    teardown(&cores);
}
