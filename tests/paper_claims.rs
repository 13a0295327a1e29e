//! A checklist of the paper's explicit claims, each asserted against the
//! running system. Section numbers refer to the ICDCS'99 paper.

mod common;

use std::time::Duration;

use common::{cluster, move_msgs_during, quiesce, registry, teardown, wait_until};
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
    assert_eq!(trackers_after_fanin(64), 1);
}

/// core0's trackers for one remote target after `stubs` independent
/// stubs to it have each called once.
fn trackers_after_fanin(stubs: usize) -> usize {
    let (_net, cores) = cluster(2);
    let target = cores[0].new_complet_at("core1", "Store", &[]).unwrap();
    for _ in 0..stubs {
        let stub = cores[0].stub(target.complet_ref().degraded());
        stub.call("ops", &[]).unwrap();
    }
    let trackers_for_target = cores[0]
        .tracker_snapshot()
        .iter()
        .filter(|t| t.id == target.id())
        .count();
    teardown(&cores);
    trackers_for_target
}

/// §3.1: "This design enhances scalability" — a per-reference proxy
/// design would hold one entry per stub; the tracker table holds one
/// whatever the fan-in.
#[test]
fn claim_one_tracker_regardless_of_fanin() {
    for stubs in [1, 10, 100, 1_000] {
        assert_eq!(trackers_after_fanin(stubs), 1, "{stubs} stubs");
    }
}

/// Messages `a` has sent `b`, less `a`'s retransmissions: what the
/// protocol sent, not what a busy host sent again.
fn sent(net: &Network, a: &Core, b: &Core) -> u64 {
    net.link_stats(a.node(), b.node()).messages - a.reliability_stats().0
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

/// §3.1, counted in hops: the first call after `k` moves walks the `k`
/// links the moves left behind; once shortened, the second crosses only
/// the direct one.
#[test]
fn claim_chain_walk_grows_and_shortening_flattens() {
    for k in [1, 4] {
        let (net, cores) = cluster(k + 1);
        let store = cores[0].new_complet("Store", &[]).unwrap();
        // Each move issued where the complet lives, so no lookup repairs
        // core0's tracker before the call.
        for hop in cores.windows(2) {
            hop[0]
                .move_complet(store.id(), hop[1].name(), None)
                .unwrap();
        }
        // The moves' shard publishes may cross a chain link: let them
        // land before counting.
        quiesce(&net, &cores);
        let chain = |i: usize| {
            net.link_stats(cores[i].node(), cores[i + 1].node())
                .messages
        };
        let direct = || net.link_stats(cores[0].node(), cores[k].node()).messages;

        let before: Vec<u64> = (0..k).map(chain).collect();
        store.call("ops", &[]).unwrap(); // walks and shortens
        let walked = (0..k).filter(|&i| chain(i) > before[i]).count();
        assert_eq!(walked, k, "k={k}: the first call crosses every chain link");

        let before: Vec<u64> = (0..k).map(chain).collect();
        let direct_before = direct();
        store.call("ops", &[]).unwrap(); // must go direct now
        assert!(
            direct() > direct_before,
            "k={k}: the direct link carries it"
        );
        if k > 1 {
            let quiet: Vec<u64> = (0..k).map(chain).collect();
            assert_eq!(quiet, before, "k={k}: no traffic through old chain links");
        }
        teardown(&cores);
    }
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

/// §3.1, by value at scale: a graph of records (maps, lists, strings,
/// integers) sent to another Core comes back equal.
#[test]
fn claim_graphs_of_records_round_trip_by_value() {
    let (_net, cores) = cluster(2);
    let b = cores[0].new_complet_at("core1", "Store", &[]).unwrap();
    let records = Value::List(fargo::wire::testgen::graph_records(16, 0));
    b.call("put", &[Value::from("records"), records.clone()])
        .unwrap();
    assert_eq!(b.call("get", &[Value::from("records")]).unwrap(), records);
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
    let (_net, cores) = cluster(2);
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
    let requests = move_msgs_during(&cores[0], || root.move_to("core1").unwrap());
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

/// §3.3 at width: a root pulling `k` dependants still moves in one
/// prepare and one commit, however large `k` is.
#[test]
fn claim_a_pulled_star_moves_in_two_messages() {
    for k in [8, 16] {
        let (_net, cores) = cluster(2);
        let root = cores[0].new_complet("Store", &[]).unwrap();
        let deps: Vec<BoundRef> = (0..k)
            .map(|_| cores[0].new_complet("Store", &[]).unwrap())
            .collect();
        let refs = deps
            .iter()
            .map(|d| Value::from(d.complet_ref().descriptor()));
        root.call("put", &[Value::from("deps"), Value::list(refs)])
            .unwrap();
        root.call("retype", &[Value::from("deps"), Value::from("pull")])
            .unwrap();
        let star = move_msgs_during(&cores[0], || root.move_to("core1").unwrap());
        assert_eq!(star, 2, "k={k}: the star moves in one prepare + one commit");
        assert!(deps.iter().all(|d| cores[1].hosts(d.id())), "k={k}");
        teardown(&cores);
    }
}

/// What co-movement saves: the same `k + 1` complets moved one by one
/// cost two messages each.
#[test]
fn claim_independent_moves_cost_two_messages_each() {
    for k in [4, 8] {
        let (_net, cores) = cluster(2);
        let loose: Vec<BoundRef> = (0..=k)
            .map(|_| cores[0].new_complet("Store", &[]).unwrap())
            .collect();
        let one_by_one = move_msgs_during(&cores[0], || {
            for c in &loose {
                c.move_to("core1").unwrap();
            }
        });
        assert_eq!(one_by_one, 2 * (k as u64 + 1), "k={k}: independent moves");
        teardown(&cores);
    }
}

/// §3.3 extended from one root to a layout plan: eight unlinked complets
/// moved by one `move_many` cost what one closure costs — one prepare and
/// one commit — where moved one at a time they cost eight of each.
#[test]
fn claim_unlinked_roots_move_in_one_transaction() {
    for (batched, k) in [(true, 1), (false, 8)] {
        let (_net, cores) = cluster(2);
        let ids: Vec<_> = (0..8)
            .map(|_| cores[0].new_complet("Store", &[]).unwrap().id())
            .collect();
        let msgs = move_msgs_during(&cores[0], || {
            if batched {
                cores[0].move_many(&ids, "core1").unwrap();
            } else {
                for &id in &ids {
                    cores[0].move_complet(id, "core1", None).unwrap();
                }
            }
        });
        assert_eq!(msgs, 2 * k, "batched={batched}");
        assert!(
            ids.iter().all(|&id| cores[1].hosts(id)),
            "batched={batched}"
        );
        teardown(&cores);
    }
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

/// §4.1, the overhead half: nobody asked, so a thousand calls later the
/// sampler has never run.
#[test]
fn claim_an_unwatched_core_never_samples() {
    let (_net, cores) = cluster(1);
    let core = &cores[0];
    let store = core.new_complet("Store", &[]).unwrap();
    for _ in 0..1_000 {
        store.call("ops", &[]).unwrap();
    }
    assert_eq!(
        core.monitor().samples(),
        0,
        "nothing requested, nothing measured"
    );
    teardown(&cores);
}

/// A client on core0 makes `calls` calls to a directory placed on
/// core1, 1 ms apart. Adaptive, the paper's policy sketch (§1, §4.1)
/// co-locates the directory once the invocation rate along the
/// reference crosses 10 calls/s. Returns the inter-Core messages the
/// burst cost and whether the directory ended up with its client.
fn chatty_burst(calls: usize, adaptive: bool) -> (u64, bool) {
    let (net, cores) = cluster(2);
    let laptop = cores[0].clone();
    let directory = laptop.new_complet_at("core1", "Store", &[]).unwrap();
    if adaptive {
        let service = Service::MethodInvokeRate {
            src: CompletId::new(laptop.node().index(), 0),
            dst: directory.id(),
        };
        laptop.profile_start(service.clone(), Duration::from_millis(20));
        let (mover, id) = (laptop.clone(), directory.id());
        laptop.on_event(
            &service.to_string(),
            Some(10.0),
            true,
            std::sync::Arc::new(move |_| {
                let _ = mover.move_complet(id, "core0", None);
            }),
        );
    }
    let remote = || sent(&net, &cores[0], &cores[1]) + sent(&net, &cores[1], &cores[0]);
    let before = remote();
    for _ in 0..calls {
        directory.call("ops", &[]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let spent = (remote() - before, laptop.hosts(directory.id()));
    teardown(&cores);
    spent
}

/// §1, §4.1: a layout fixed at deployment pays the network on every
/// call of a chatty client; co-locating once the rate crosses a
/// threshold pays one move, then calls locally. Counted in inter-Core
/// messages, it wins a long burst.
#[test]
fn claim_adaptive_layout_pays_off_for_a_chatty_client() {
    let (fixed, _) = chatty_burst(300, false);
    let (adaptive, moved) = chatty_burst(300, true);
    assert!(moved, "the policy must have pulled the directory over");
    assert!(
        adaptive < fixed,
        "300 calls: {adaptive} messages adaptive vs {fixed} static"
    );
}

/// The other side of the same trade: a burst too short to amortise a
/// move gains nothing from the policy.
#[test]
fn claim_a_static_layout_wins_a_trivial_burst() {
    let (fixed, _) = chatty_burst(3, false);
    let (adaptive, _) = chatty_burst(3, true);
    assert!(
        adaptive >= fixed,
        "3 calls: {adaptive} messages adaptive vs {fixed} static"
    );
}

/// A complet holding `k = v` on core1 of three Cores, optionally with
/// the paper's evacuation rule (§4.3) loaded at core0, then core1 shuts
/// down with a 400 ms grace window. Returns what a `get` answers after.
fn shutdown_with_rule(rule: bool) -> Result<Value, FargoError> {
    const EVACUATION: &str = "$guarded = %1\n$safe = %2\n\
        on shutdown firedby $core listenAt $guarded do\n\
          move completsIn $core to $safe\n\
        end";
    let (_net, cores) = cluster(3);
    let worker = cores[0].new_complet_at("core1", "Store", &[]).unwrap();
    worker
        .call("put", &[Value::from("k"), Value::from("v")])
        .unwrap();
    let engine = ScriptEngine::new(cores[0].clone());
    let _script = rule.then(|| {
        let guarded = ScriptValue::List(vec![ScriptValue::Str("core1".into())]);
        engine
            .load(EVACUATION, vec![guarded, ScriptValue::Str("core2".into())])
            .unwrap()
    });
    let dying = cores[1].clone();
    let announcer = std::thread::spawn(move || dying.shutdown(Duration::from_millis(400)));
    if rule {
        assert!(
            wait_until(Duration::from_millis(350), || cores[2].hosts(worker.id())),
            "the rule must evacuate within the grace window"
        );
        // Refresh the reference while the grace window keeps the
        // forwarding tracker reachable.
        let _ = worker.call("get", &[Value::from("k")]);
    }
    announcer.join().unwrap();
    let after = worker.call("get", &[Value::from("k")]);
    teardown(&cores);
    after
}

/// §4.2/§4.3: "The CoreShutdown event … can be used by applications to
/// migrate their complets to another Core in order to keep their
/// applications alive." With the evacuation rule loaded, a complet on a
/// Core that shuts down still answers, state intact.
#[test]
fn claim_shutdown_evacuation_keeps_the_application_alive() {
    let after = shutdown_with_rule(true);
    assert_eq!(after.unwrap(), Value::from("v"), "evacuated with its state");
}

/// The control for the claim above: with no rule, the complet dies with
/// its Core.
#[test]
fn claim_without_evacuation_the_application_dies_with_its_core() {
    let after = shutdown_with_rule(false);
    assert!(after.is_err(), "no rule, no survival: {after:?}");
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
