//! Fixed-schedule regression tests: races and routing holes found by the
//! `fargo-check` schedule explorer, replayed here as plain sequential
//! scenarios against the public API.
//!
//! Each test names the explorer seed whose shrunk counterexample it
//! encodes (the schedules themselves live in
//! `crates/check/tests/regressions.rs`; these are the same scenarios
//! expressed without the workload DSL so `fargo-core` exercises them in
//! its own suite).

mod common;

use std::time::Duration;

use common::{cluster, cluster_with_config, teardown, test_config};
use fargo_core::{Clock, CompletId, Core, TrackerSnapshot, TrackerTarget, Value};

fn tracker_of(core: &Core, id: CompletId) -> Option<TrackerSnapshot> {
    core.tracker_snapshot().into_iter().find(|t| t.id == id)
}

// --- explorer-found regressions (idle collection severs routing) -----------

/// Explorer seeds 324/684/707: `new @1; move -> 2; collect 1`. Collecting
/// the idle tracker at the complet's *origin* Core used to make every
/// invocation routed through it fail with `UnknownComplet` — nothing
/// re-resolved the dead end. The caller now drops its stale edge and
/// asks the location shard.
#[test]
fn collect_at_origin_then_invoke_recovers() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[1]
        .new_complet("Message", &[Value::from("kept")])
        .unwrap();
    let id = msg.id();
    cores[1].move_complet(id, "core2", None).unwrap();
    assert_eq!(cores[1].collect_trackers(Duration::ZERO), 1);

    // A stub on core0 still carries the origin as its location hint, so
    // the invocation routes through the collected Core.
    let remote = cores[0].stub(msg.complet_ref().clone());
    let out = remote
        .call("print", &[])
        .expect("the location shard must recover the route");
    assert_eq!(out.as_str(), Some("kept"));
    teardown(&cores);
}

/// Explorer seed 511: `new @2; move -> 0; collect 2; move -> 2`. A move
/// issued *at the origin* after its tracker was collected used to fail in
/// `locate()`, which gave up when the local trail ran out.
#[test]
fn move_after_origin_collect_locates_via_shard() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[2].new_complet("Message", &[]).unwrap();
    let id = msg.id();
    cores[2].move_complet(id, "core0", None).unwrap();
    assert_eq!(cores[2].collect_trackers(Duration::ZERO), 1);

    cores[2]
        .move_complet(id, "core2", None)
        .expect("locate must ask the location shard");
    assert!(cores[2].hosts(id));
    teardown(&cores);
}

/// Explorer seed 690: a three-hop chain whose *middle* Core is the origin
/// (`new @1; move -> 0; move -> 1; move -> 2; collect 1`). Upstream
/// trackers still point at the collected Core; the caller re-seeds its
/// tracker from the location shard and the chain heals.
#[test]
fn mid_chain_origin_collect_recovers() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[1]
        .new_complet("Message", &[Value::from("travelled")])
        .unwrap();
    let id = msg.id();
    cores[1].move_complet(id, "core0", None).unwrap();
    cores[0].move_complet(id, "core1", None).unwrap();
    cores[1].move_complet(id, "core2", None).unwrap();
    assert!(cores[1].collect_trackers(Duration::ZERO) >= 1);

    // core0's tracker still forwards to the (collected) core1.
    let remote = cores[0].stub(msg.complet_ref().clone());
    assert_eq!(
        remote.call("print", &[]).unwrap().as_str(),
        Some("travelled")
    );
    teardown(&cores);
}

/// Collecting at a *non-origin* mid-chain Core leaves a dead-end
/// forward. The caller notices the dead end, drops its stale edge, and
/// re-routes through the location shard.
#[test]
fn dead_end_at_non_origin_core_recovers_via_caller() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("healed")])
        .unwrap();
    let id = msg.id();
    cores[0].move_complet(id, "core1", None).unwrap();
    cores[1].move_complet(id, "core2", None).unwrap();
    // core1 is mid-chain but NOT the origin; collect severs it.
    assert_eq!(cores[1].collect_trackers(Duration::ZERO), 1);
    // Pin core0's belief back at the dead end so the route goes through
    // it.
    let e = tracker_of(&cores[0], id)
        .expect("origin keeps a tracker")
        .epoch;
    cores[0].test_learn_location(id, cores[1].node().index(), e + 1);

    let remote = cores[0].stub(msg.complet_ref().clone());
    assert_eq!(remote.call("print", &[]).unwrap().as_str(), Some("healed"));
    // The repair repointed core0 away from the dead end.
    let t = tracker_of(&cores[0], id).expect("tracker re-seeded after repair");
    assert_ne!(t.target, TrackerTarget::Forward(cores[1].node().index()));
    teardown(&cores);
}

// --- satellite regressions -------------------------------------------------

/// A stale location report (older move epoch) must never repoint a
/// tracker — accepting one can close an A <-> C routing cycle.
#[test]
fn stale_epoch_repoint_rejected() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id();
    cores[0].move_complet(id, "core1", None).unwrap();
    cores[1].move_complet(id, "core2", None).unwrap();
    // A reply from the second incarnation shortens the origin's chain.
    cores[0].test_learn_location(id, cores[2].node().index(), 2);
    assert_eq!(
        tracker_of(&cores[0], id).unwrap().target,
        TrackerTarget::Forward(cores[2].node().index())
    );

    // A straggler from the first move ("it went to core1, epoch 1")
    // arrives late at the origin: rejected, the tracker stays on core2.
    cores[0].test_learn_location(id, cores[1].node().index(), 1);
    assert_eq!(
        tracker_of(&cores[0], id).unwrap().target,
        TrackerTarget::Forward(cores[2].node().index())
    );

    // The cycle-closing variant: a stale "it is back at core0" report
    // reaching the *host* would turn n0 -> n2 -> n0 into a loop.
    cores[2].test_learn_location(id, cores[0].node().index(), 1);
    assert_eq!(
        tracker_of(&cores[2], id).unwrap().target,
        TrackerTarget::Local
    );
    assert!(cores[0]
        .stub(msg.complet_ref().clone())
        .call("print", &[])
        .is_ok());
    teardown(&cores);
}

/// Tracker `hits` count successful dispatches only: a failed invocation
/// must not inflate the traffic statistics the layout planner feeds on.
#[test]
fn hits_credit_successful_dispatch_only() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[1].new_complet("Message", &[]).unwrap();
    let id = msg.id();
    let remote = cores[0].stub(msg.complet_ref().clone());

    remote.call("print", &[]).unwrap();
    let after_ok = tracker_of(&cores[0], id).unwrap().hits;
    assert_eq!(after_ok, 1);

    remote.call("no_such_method", &[]).unwrap_err();
    assert_eq!(
        tracker_of(&cores[0], id).unwrap().hits,
        after_ok,
        "a failed invocation must not be credited"
    );
    teardown(&cores);
}

/// Idle-tracker collection measures idleness on the configured [`Clock`]:
/// under a virtual clock, nothing is idle until the schedule says time
/// passed.
#[test]
fn idle_collection_is_clock_driven() {
    let clock = Clock::new_virtual(1_000_000_000);
    let (_net, _reg, cores) = cluster_with_config(2, test_config().with_clock(clock.clone()));
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    cores[0].move_complet(msg.id(), "core1", None).unwrap();

    // No virtual time has passed: the forward tracker is not idle.
    assert_eq!(cores[0].collect_trackers(Duration::from_secs(10)), 0);
    clock.advance(Duration::from_secs(20));
    assert_eq!(cores[0].collect_trackers(Duration::from_secs(10)), 1);
    teardown(&cores);
}
