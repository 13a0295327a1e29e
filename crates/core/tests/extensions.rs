//! Tests for the §7 future-work extensions: checkpoint/restore
//! persistence and capacity-based admission control.

mod common;

use std::time::Duration;

use common::{cluster, cluster_with_config, registry, teardown, test_config};
use fargo_core::{CompletRef, Core, FargoError, RefDescriptor, Value};

// --- persistence -----------------------------------------------------------

#[test]
fn checkpoint_restores_complets_names_and_state() {
    let (net, _reg, cores) = cluster(2);
    let counter = cores[0].new_named_complet("tally", "Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(7)]).unwrap();
    let msg = cores[0]
        .new_complet("Message", &[Value::from("persist me")])
        .unwrap();

    let ckpt = cores[0].checkpoint().unwrap();
    assert!(ckpt.skipped.is_empty(), "nothing was in transit");
    let snapshot = ckpt.snapshot;
    // Simulate a cold restart: the original Core dies, a replacement
    // restores the snapshot.
    cores[0].stop();
    let replacement = Core::builder(&net, "core0b")
        .registry(&registry())
        .config(test_config())
        .spawn()
        .unwrap();
    let restored = replacement.restore_checkpoint(&snapshot).unwrap();
    assert_eq!(restored.len(), 2);
    assert!(replacement.hosts(counter.id()));
    assert!(replacement.hosts(msg.id()));

    // State and names survived; fresh stubs from the replacement work.
    let tally = replacement.lookup_stub("tally").unwrap();
    assert_eq!(tally.id(), counter.id());
    assert_eq!(tally.call("get", &[]).unwrap(), Value::I64(7));
    assert_eq!(tally.call("add", &[Value::I64(1)]).unwrap(), Value::I64(8));
    // A fresh reference seeded at the replacement reaches the restored
    // message too (the old stub's chain died with core0).
    let msg2 = replacement.stub(CompletRef::from_descriptor(RefDescriptor::link(
        msg.id(),
        "Message",
        replacement.node().index(),
    )));
    assert_eq!(msg2.call("print", &[]).unwrap(), Value::from("persist me"));
    replacement.stop();
    teardown(&cores);
}

#[test]
fn restored_complets_are_reachable_from_peers() {
    let (_net, _reg, cores) = cluster(3);
    let store = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    store.call("add", &[Value::I64(3)]).unwrap();

    // Checkpoint core1, drop the complet there, restore into core2.
    let snapshot = cores[1].checkpoint().unwrap().snapshot;
    cores[1].release_complet(store.id()).unwrap();
    cores[2].restore_checkpoint(&snapshot).unwrap();

    // The restore published the new location to the owning shard; the
    // chain path is gone, so give the publish a moment and use a fresh
    // reference.
    std::thread::sleep(Duration::from_millis(30));
    let fresh = cores[2].stub(CompletRef::from_descriptor(RefDescriptor::link(
        store.id(),
        "Counter",
        cores[2].node().index(),
    )));
    assert_eq!(fresh.call("get", &[]).unwrap(), Value::I64(3));
    teardown(&cores);
}

#[test]
fn garbage_snapshots_are_rejected() {
    let (_net, _reg, cores) = cluster(1);
    // Not a frame at all; a frame header cut short.
    for garbage in [&b"garbage"[..], &[1, 0, 0]] {
        assert!(matches!(
            cores[0].restore_checkpoint(garbage),
            Err(FargoError::InvalidArgument(_))
        ));
    }
    // The snapshot of an empty Core is empty, and restores nothing.
    assert!(cores[0].checkpoint().unwrap().snapshot.is_empty());
    assert_eq!(cores[0].restore_checkpoint(&[]).unwrap(), vec![]);
    teardown(&cores);
}

#[test]
fn checkpoint_is_a_cold_snapshot_not_a_move() {
    let (_net, _reg, cores) = cluster(1);
    let c = cores[0].new_complet("Counter", &[]).unwrap();
    c.call("add", &[Value::I64(5)]).unwrap();
    let _snapshot = cores[0].checkpoint().unwrap();
    // The original keeps running, unaffected.
    assert_eq!(c.call("add", &[Value::I64(1)]).unwrap(), Value::I64(6));
    teardown(&cores);
}

// --- admission control -------------------------------------------------------

#[test]
fn capacity_limits_local_instantiation() {
    let (_net, _reg, cores) = cluster_with_config(1, test_config().with_capacity(2));
    cores[0].new_complet("Message", &[]).unwrap();
    cores[0].new_complet("Message", &[]).unwrap();
    match cores[0].new_complet("Message", &[]) {
        Err(FargoError::CapacityExceeded { core, capacity }) => {
            assert_eq!(core, "core0");
            assert_eq!(capacity, 2);
        }
        other => panic!("expected CapacityExceeded, got {other:?}"),
    }
    teardown(&cores);
}

/// Unbounded, one repository holds thousands, and the newest answers.
#[test]
fn one_repository_holds_thousands_of_complets() {
    let (_net, _reg, cores) = cluster(1);
    for _ in 0..5_000 {
        cores[0].new_complet("Counter", &[]).unwrap();
    }
    assert_eq!(cores[0].complet_count(), 5_000);
    let newest = cores[0].new_complet("Counter", &[]).unwrap();
    assert_eq!(newest.call("add", &[Value::I64(1)]).unwrap(), Value::I64(1));
    teardown(&cores);
}

#[test]
fn capacity_refuses_whole_move_streams_and_sender_restores() {
    let (_net, _reg, cores) = cluster_with_config(2, test_config().with_capacity(1));
    // The destination (core1) already holds its one allowed complet.
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let msg = cores[0]
        .new_complet("Message", &[Value::from("stays home")])
        .unwrap();
    match msg.move_to("core1") {
        Err(FargoError::CapacityExceeded { capacity, .. }) => assert_eq!(capacity, 1),
        other => panic!("expected CapacityExceeded, got {other:?}"),
    }
    // Refused wholesale; the complet is intact at the source.
    assert!(cores[0].hosts(msg.id()));
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("stays home"));
    teardown(&cores);
}

#[test]
fn capacity_error_crosses_the_wire_typed() {
    let (_net, _reg, cores) = cluster_with_config(2, test_config().with_capacity(0));
    match cores[0].new_complet_at("core1", "Message", &[]) {
        Err(FargoError::CapacityExceeded { core, capacity }) => {
            assert_eq!(core, "core1");
            assert_eq!(capacity, 0);
        }
        other => panic!("expected CapacityExceeded, got {other:?}"),
    }
    teardown(&cores);
}

#[test]
fn negotiation_try_cores_in_turn() {
    // The negotiation idiom: try candidate destinations until one admits.
    let (_net, _reg, cores) = cluster_with_config(3, test_config().with_capacity(1));
    cores[0].new_complet_at("core1", "Message", &[]).unwrap(); // core1 full
    let msg = cores[0].new_complet("Message", &[]).unwrap(); // core0 now full
    let mut placed_at = None;
    for candidate in ["core1", "core2"] {
        match msg.move_to(candidate) {
            Ok(()) => {
                placed_at = Some(candidate);
                break;
            }
            Err(FargoError::CapacityExceeded { .. }) => continue,
            Err(other) => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(placed_at, Some("core2"));
    assert!(cores[2].hosts(msg.id()));
    teardown(&cores);
}
