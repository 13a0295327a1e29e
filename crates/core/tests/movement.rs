//! Movement-unit integration tests: relocation, tracker chains, chain
//! shortening, continuations, and lifecycle callbacks (§3.1, §3.3).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use std::collections::BTreeMap;

use common::{
    cluster, cluster_with_config, move_msgs_during, msgs_by_kind, quiesce, relay, teardown,
    test_config,
};
use fargo_core::{
    define_complet, CompletRegistry, Core, CoreConfig, FargoError, TrackerTarget, Value,
};
use simnet::{LinkConfig, Network, NodeId};

#[test]
fn state_survives_relocation() {
    let (_net, _reg, cores) = cluster(2);
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(5)]).unwrap();
    counter.call("add", &[Value::I64(7)]).unwrap();
    counter.move_to("core1").unwrap();
    assert!(cores[1].hosts(counter.id()));
    assert_eq!(counter.call("get", &[]).unwrap(), Value::I64(12));
    assert_eq!(counter.call("history_len", &[]).unwrap(), Value::I64(2));
    // And it keeps working after arrival.
    assert_eq!(
        counter.call("add", &[Value::I64(1)]).unwrap(),
        Value::I64(13)
    );
    teardown(&cores);
}

/// The state travels in the move's one data-bearing message, the
/// `MovePrepare` (the `MoveCommit` beside it is constant-size): the bytes
/// on the link grow with the state, the message count does not.
#[test]
fn move_bytes_grow_with_state_in_the_same_two_messages() {
    let mut bytes = Vec::new();
    for len in [1_000, 200_000] {
        let (net, _reg, cores) = cluster(2);
        let msg = cores[0]
            .new_complet("Message", &[Value::from("x".repeat(len))])
            .unwrap();
        let link = || net.link_stats(cores[0].node(), cores[1].node()).bytes;
        let before = link();
        let msgs = move_msgs_during(&cores[0], || msg.move_to("core1").unwrap());
        assert_eq!(msgs, 2, "{len}-byte state: prepare + commit");
        bytes.push(link() - before);
        teardown(&cores);
    }
    assert!(
        bytes[1] > bytes[0] + 150_000,
        "wire bytes must grow with the state: {bytes:?}"
    );
}

#[test]
fn move_to_same_core_is_a_noop() {
    let (_net, _reg, cores) = cluster(1);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core0").unwrap();
    assert!(cores[0].hosts(msg.id()));
    teardown(&cores);
}

#[test]
fn multi_hop_chain_still_reaches_target() {
    let (_net, _reg, cores) = cluster(5);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("wanderer")])
        .unwrap();
    for dest in ["core1", "core2", "core3", "core4"] {
        msg.move_to(dest).unwrap();
    }
    assert!(cores[4].hosts(msg.id()));
    // The stub at core0 still reaches it through the chain.
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("wanderer"));
    teardown(&cores);
}

#[test]
fn chains_are_shortened_on_invocation_return() {
    let (_net, _reg, cores) = cluster(4);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id();
    relay(&cores, id);
    // Before any invocation, core1 forwards to core2 (chain link).
    assert_eq!(
        cores[1]
            .tracker_snapshot()
            .iter()
            .find(|t| t.id == id)
            .map(|t| t.target),
        Some(TrackerTarget::Forward(cores[2].node().index()))
    );
    // One invocation from core0 walks 0→1→2→3 and shortens on return.
    msg.call("print", &[]).unwrap();
    for core in &cores[..3] {
        let t = core
            .tracker_snapshot()
            .into_iter()
            .find(|t| t.id == id)
            .expect("tracker must exist");
        assert_eq!(
            t.target,
            TrackerTarget::Forward(cores[3].node().index()),
            "tracker at {} should point at the final location",
            core.name()
        );
    }
    teardown(&cores);
}

#[test]
fn move_request_is_forwarded_to_current_host() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[1].new_complet("Message", &[]).unwrap();
    // core0 never hosted the complet; it must forward the move request.
    cores[0].move_complet(msg.id(), "core2", None).unwrap();
    assert!(cores[2].hosts(msg.id()));
    teardown(&cores);
}

#[test]
fn continuation_runs_at_destination() {
    let (_net, _reg, cores) = cluster(2);
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter
        .move_with("core1", "add", vec![Value::I64(100)])
        .unwrap();
    // The continuation is asynchronous; poll for its effect.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if counter.call("get", &[]).unwrap() == Value::I64(100) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "continuation never ran"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    teardown(&cores);
}

#[test]
fn names_travel_with_the_complet() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[0]
        .new_named_complet("postbox", "Message", &[])
        .unwrap();
    assert!(cores[0].lookup("postbox").is_some());
    msg.move_to("core1").unwrap();
    assert!(cores[0].lookup("postbox").is_none());
    let found = cores[1].lookup_stub("postbox").unwrap();
    assert_eq!(found.id(), msg.id());
    // Remote lookup also works.
    let remote = cores[0].lookup_at("core1", "postbox").unwrap();
    assert_eq!(remote.id(), msg.id());
    teardown(&cores);
}

#[test]
fn moving_an_unknown_complet_fails() {
    let (_net, _reg, cores) = cluster(2);
    let ghost = fargo_core::CompletId::new(0, 4242);
    assert!(matches!(
        cores[0].move_complet(ghost, "core1", None),
        Err(FargoError::UnknownComplet(_))
    ));
    teardown(&cores);
}

#[test]
fn moving_to_an_unknown_core_fails_and_preserves_the_complet() {
    let (_net, _reg, cores) = cluster(1);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("keep me")])
        .unwrap();
    assert!(matches!(
        msg.move_to("atlantis"),
        Err(FargoError::UnknownCore(_))
    ));
    // Still alive and invocable.
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("keep me"));
    teardown(&cores);
}

#[test]
fn failed_transfer_restores_the_complet() {
    let (net, _reg, cores) = cluster(2);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("survivor")])
        .unwrap();
    // Partition the link: the move stream cannot be delivered.
    net.partition(cores[0].node(), cores[1].node()).unwrap();
    assert!(msg.move_to("core1").is_err());
    net.heal(cores[0].node(), cores[1].node()).unwrap();
    // The complet was restored at the source and still works.
    assert!(cores[0].hosts(msg.id()));
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("survivor"));
    // And a later move succeeds.
    msg.move_to("core1").unwrap();
    assert!(cores[1].hosts(msg.id()));
    teardown(&cores);
}

static LIFECYCLE_LOG: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());

define_complet! {
    /// Records which lifecycle callbacks ran, in order (§3.3).
    pub complet Lifecycled {
        state { x: i64 = 0 }
        lifecycle {
            fn pre_departure(&mut self, _ctx) {
                LIFECYCLE_LOG.lock().unwrap().push("pre_departure");
            }
            fn pre_arrival(&mut self, _ctx) {
                LIFECYCLE_LOG.lock().unwrap().push("pre_arrival");
            }
            fn post_arrival(&mut self, _ctx) {
                LIFECYCLE_LOG.lock().unwrap().push("post_arrival");
            }
            fn post_departure(&mut self, _ctx) {
                LIFECYCLE_LOG.lock().unwrap().push("post_departure");
            }
        }
        fn touch(&mut self, _ctx, _args) {
            self.x += 1;
            Ok(Value::I64(self.x))
        }
    }
}

#[test]
fn lifecycle_callbacks_fire_in_order() {
    let (_net, reg, cores) = cluster(2);
    Lifecycled::register(&reg);
    LIFECYCLE_LOG.lock().unwrap().clear();
    let c = cores[0].new_complet("Lifecycled", &[]).unwrap();
    c.move_to("core1").unwrap();
    let log = LIFECYCLE_LOG.lock().unwrap().clone();
    assert_eq!(
        log,
        vec![
            "pre_departure",
            "pre_arrival",
            "post_arrival",
            "post_departure"
        ]
    );
    teardown(&cores);
}

define_complet! {
    /// A mobile agent that hops along an itinerary via deferred self-moves
    /// with continuations (weak mobility, §3.3).
    pub complet Agent {
        state {
            itinerary: Vec<String> = Vec::new(),
            visited: Vec<String> = Vec::new(),
        }
        fn start(&mut self, ctx, args) {
            self.itinerary = args
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect();
            self.visited.push(ctx.core().name().to_owned());
            self.hop(ctx, &[])
        }
        fn hop(&mut self, ctx, _args) {
            if let Some(next) = self.itinerary.first().cloned() {
                self.itinerary.remove(0);
                ctx.move_self_with(&next, "arrive", vec![]);
            }
            Ok(Value::Null)
        }
        fn arrive(&mut self, ctx, _args) {
            self.visited.push(ctx.core().name().to_owned());
            self.hop(ctx, &[])
        }
        fn visited(&mut self, _ctx, _args) {
            Ok(Value::List(
                self.visited.iter().map(|s| Value::from(s.as_str())).collect(),
            ))
        }
    }
}

#[test]
fn deferred_self_moves_follow_an_itinerary() {
    let (_net, reg, cores) = cluster(4);
    Agent::register(&reg);
    let agent = cores[0].new_complet("Agent", &[]).unwrap();
    agent
        .call(
            "start",
            &[
                Value::from("core1"),
                Value::from("core2"),
                Value::from("core3"),
            ],
        )
        .unwrap();
    // Hops are asynchronous (deferred + continuations); wait for arrival.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cores[3].hosts(agent.id()) {
        assert!(std::time::Instant::now() < deadline, "agent never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    let visited = agent.call("visited", &[]).unwrap();
    let names: Vec<String> = visited
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(names, vec!["core0", "core1", "core2", "core3"]);
    teardown(&cores);
}

#[test]
fn concurrent_invocations_during_moves_never_lose_updates() {
    let (_net, _reg, cores) = cluster(3);
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    let errors = Arc::new(AtomicUsize::new(0));
    let succeeded = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = counter.clone();
        let errs = errors.clone();
        let okc = succeeded.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..30 {
                match c.call("add", &[Value::I64(1)]) {
                    Ok(_) => {
                        okc.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        errs.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }
    // Meanwhile, bounce the complet around.
    let mover = counter.clone();
    let mover_handle = std::thread::spawn(move || {
        for dest in ["core1", "core2", "core0", "core1"] {
            let _ = mover.move_to(dest);
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    for h in handles {
        h.join().unwrap();
    }
    mover_handle.join().unwrap();

    // Every successful call must be reflected in the counter: no lost
    // updates, wherever the complet was at the time.
    let total = counter.call("get", &[]).unwrap().as_i64().unwrap();
    assert_eq!(total as usize, succeeded.load(Ordering::SeqCst));
    assert_eq!(errors.load(Ordering::SeqCst), 0, "no call should fail");
    teardown(&cores);
}

#[test]
fn carrier_facade_moves_with_continuation() {
    use fargo_core::Carrier;
    let (_net, _reg, cores) = cluster(2);
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    Carrier::move_with(
        &cores[0],
        counter.complet_ref(),
        "core1",
        "add",
        vec![Value::I64(41)],
    )
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counter.call("get", &[]).unwrap() != Value::I64(41) {
        assert!(
            std::time::Instant::now() < deadline,
            "continuation never ran"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cores[1].hosts(counter.id()));
    Carrier::r#move(&cores[0], counter.complet_ref(), "core0").unwrap();
    assert!(cores[0].hosts(counter.id()));
    teardown(&cores);
}

/// The link a `SilencesOnArrival` complet cuts from inside its own
/// arrival: `(network, from, to)`.
static CUT_ON_ARRIVAL: std::sync::Mutex<Option<(Network, NodeId, NodeId)>> =
    std::sync::Mutex::new(None);

define_complet! {
    /// Cuts one link when it arrives, so the answer to the `MoveCommit`
    /// that activates it is lost.
    pub complet SilencesOnArrival {
        state { x: i64 = 0 }
        lifecycle {
            fn pre_arrival(&mut self, _ctx) {
                if let Some((net, from, to)) = CUT_ON_ARRIVAL.lock().unwrap().take() {
                    net.set_link_directed(from, to, LinkConfig::instant().with_loss(1.0))
                        .unwrap();
                }
            }
        }
        fn touch(&mut self, _ctx, _args) {
            self.x += 1;
            Ok(Value::I64(self.x))
        }
    }
}

#[test]
fn an_unanswered_commit_is_in_doubt_and_the_destination_keeps_the_complet() {
    let config = test_config().with_rpc_timeout(Duration::from_millis(300));
    let (net, reg, cores) = cluster_with_config(2, config);
    SilencesOnArrival::register(&reg);
    let c = cores[0].new_complet("SilencesOnArrival", &[]).unwrap();
    assert_eq!(c.call("touch", &[]).unwrap(), Value::I64(1));
    // Activated by the commit, the complet silences core1 -> core0: the
    // commit's answer and every replayed copy of it are lost.
    *CUT_ON_ARRIVAL.lock().unwrap() = Some((net.clone(), cores[1].node(), cores[0].node()));
    assert_eq!(c.move_to("core1"), Err(FargoError::MoveInDoubt(c.id())));
    // The verdict was commit: the source finalized, the destination
    // hosts the one copy and nobody had to ask anybody.
    assert!(cores[1].hosts(c.id()));
    assert!(!cores[0].hosts(c.id()));
    assert_eq!(cores[0].reliability_stats().3, 1);
    net.set_link_directed(cores[1].node(), cores[0].node(), LinkConfig::instant())
        .unwrap();
    assert_eq!(c.call("touch", &[]).unwrap(), Value::I64(2));
    teardown(&cores);
}

/// A cluster whose message bills hold only what the protocol sends: no
/// retransmission before 2 s and no held-move sweep before 10 s.
fn bill_cluster(n: usize) -> (Network, CompletRegistry, Vec<Core>) {
    let config = CoreConfig {
        rpc_retry_base: Duration::from_secs(2),
        move_hold_timeout: Duration::from_secs(10),
        ..test_config()
    };
    cluster_with_config(n, config)
}

fn bill(entries: &[(&str, u64)]) -> BTreeMap<String, u64> {
    entries.iter().map(|&(k, n)| (k.to_owned(), n)).collect()
}

/// What a relocation costs, by message kind. A third party whose
/// tracker already names the host sends it the move, and the host
/// prepares and commits with the destination: three requests, three
/// replies. In a 3-Core cluster every ring owner is a party to the move,
/// so no shard delta is sent; and nobody locates.
#[test]
fn a_warmed_third_party_move_costs_three_requests_and_their_replies() {
    let (_net, _reg, cores) = bill_cluster(3);
    let n = 16;
    let chunks: Vec<_> = (0..n)
        .map(|i| {
            let host = format!("core{}", 1 + i % 2);
            cores[0].new_complet_at(&host, "Counter", &[]).unwrap()
        })
        .collect();
    for c in &chunks {
        c.call("get", &[]).unwrap();
    }
    let sent = msgs_by_kind(&cores, || {
        for (i, c) in chunks.iter().enumerate() {
            c.move_to(&format!("core{}", 2 - i % 2)).unwrap();
        }
    });
    let n = n as u64;
    let expected = [
        ("move_req", n),
        ("move_prep", n),
        ("move_commit", n),
        ("reply", 3 * n),
    ];
    assert_eq!(sent, bill(&expected));
    for (i, c) in chunks.iter().enumerate() {
        assert!(cores[2 - i % 2].hosts(c.id()));
    }
    teardown(&cores);
}

/// The answer to a move names where the complet went, so the issuer's
/// tracker follows it: back-to-back moves with no calls between them
/// still go straight to the host.
#[test]
fn back_to_back_moves_from_a_third_party_never_locate() {
    let (_net, _reg, cores) = bill_cluster(3);
    let c = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    c.call("add", &[]).unwrap();
    let sent = msgs_by_kind(&cores, || {
        for dest in ["core2", "core1", "core2", "core1"] {
            c.move_to(dest).unwrap();
        }
    });
    assert_eq!(sent.get("locate"), None, "{sent:?}");
    assert_eq!(sent.get("move_req"), Some(&4), "{sent:?}");
    assert!(cores[1].hosts(c.id()));
    assert_eq!(c.call("get", &[]).unwrap(), Value::I64(1));
    teardown(&cores);
}

/// A ring owner outside the move is told by the source, in one delta.
#[test]
fn an_owner_outside_the_move_costs_one_delta() {
    let (net, _reg, cores) = bill_cluster(4);
    let made: Vec<_> = (0..64)
        .map(|_| cores[0].new_complet_at("core1", "Counter", &[]).unwrap())
        .collect();
    quiesce(&net, &cores);
    let owned_by_core3 = |id| cores[3].shard_live_at(3).unwrap().iter().any(|e| e.0 == id);
    let c = made
        .iter()
        .find(|c| owned_by_core3(c.id()))
        .expect("one of 64 ids on core3's slice");
    c.call("get", &[]).unwrap();
    let sent = msgs_by_kind(&cores, || c.move_to("core2").unwrap());
    let expected = [
        ("move_req", 1),
        ("move_prep", 1),
        ("move_commit", 1),
        ("reply", 3),
        ("notify", 1),
    ];
    assert_eq!(sent, bill(&expected));
    quiesce(&net, &cores);
    let entry = cores[3]
        .shard_live_at(3)
        .unwrap()
        .into_iter()
        .find(|e| e.0 == c.id());
    assert_eq!(entry.map(|e| e.1), Some(2));
    teardown(&cores);
}

/// A reply skips the last Core that forwarded its call — that Core's
/// tracker named the executor already — and every earlier forwarder
/// still sees it and shortens its tracker (§3.1).
#[test]
fn a_forwarded_reply_skips_the_last_forwarder() {
    let (_net, _reg, cores) = bill_cluster(4);
    // One forwarder: core0 -> core1 -> core2, answered straight to core0.
    let x = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    x.call("add", &[]).unwrap();
    cores[1].move_complet(x.id(), "core2", None).unwrap();
    let sent = msgs_by_kind(&cores[1..2], || {
        assert_eq!(x.call("get", &[]).unwrap(), Value::I64(1));
    });
    assert_eq!(sent, bill(&[("invoke", 1)]));
    // Two forwarders: core0 -> core1 -> core2 -> core3. The reply goes
    // core3 -> core1 -> core0, and core1 learns where the complet is.
    let y = cores[0].new_complet("Counter", &[]).unwrap();
    relay(&cores, y.id());
    let forwarders = (&cores[1..2], &cores[2..3]);
    let first = msgs_by_kind(forwarders.0, || {
        let last = msgs_by_kind(forwarders.1, || {
            assert_eq!(y.call("get", &[]).unwrap(), Value::I64(0));
        });
        assert_eq!(last, bill(&[("invoke", 1)]));
    });
    assert_eq!(first, bill(&[("invoke", 1), ("reply", 1)]));
    let tracker = |core: &Core| {
        let id = y.id();
        core.tracker_snapshot()
            .into_iter()
            .find(|t| t.id == id)
            .map(|t| t.target)
    };
    let at_core3 = Some(TrackerTarget::Forward(cores[3].node().index()));
    assert_eq!(
        tracker(&cores[1]),
        at_core3,
        "the first forwarder shortened"
    );
    assert_eq!(tracker(&cores[2]), at_core3);
    teardown(&cores);
}

/// A hint naming a Core that is gone costs nothing but the refused send:
/// the move falls back to the authoritative locate and reaches the host.
#[test]
fn a_move_hinted_at_a_stopped_core_falls_back_to_locate() {
    let (_net, _reg, cores) = cluster(3);
    let c = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    c.call("add", &[]).unwrap();
    cores[1].move_complet(c.id(), "core2", None).unwrap();
    cores[1].stop();
    cores[0].move_complet(c.id(), "core0", None).unwrap();
    assert!(cores[0].hosts(c.id()));
    assert_eq!(c.call("get", &[]).unwrap(), Value::I64(1));
    teardown(&cores);
}
