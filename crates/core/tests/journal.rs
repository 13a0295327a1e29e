//! Flight-recorder integration: journal capture across Cores, HLC
//! causality under message delay/reordering, layout reconstruction at
//! timeline points, the anomaly pass, and journal-driven event replay.

mod common;

use std::time::Duration;

use common::{cluster, cluster_with_config, registry, relay, teardown, test_config};
use fargo_core::{define_complet, Anomaly, Core, Hlc, JournalEvent, JournalKind, Value};
use simnet::{LinkConfig, Network, NetworkConfig};

/// A cluster whose links add 1–5 ms of seeded random jitter, so messages
/// between different Core pairs genuinely arrive out of order.
fn jittery_cluster(n: usize) -> (Network, Vec<Core>) {
    let net = Network::new(NetworkConfig {
        default_link: Some(
            LinkConfig::new(Duration::from_millis(1)).with_jitter(Duration::from_millis(4)),
        ),
        seed: 42,
        ..NetworkConfig::default()
    });
    let reg = registry();
    let cores = (0..n)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(test_config())
                .spawn()
                .expect("core must spawn")
        })
        .collect();
    (net, cores)
}

fn find<'a>(
    events: &'a [JournalEvent],
    kind: JournalKind,
    core: u32,
    subject: &str,
) -> &'a JournalEvent {
    events
        .iter()
        .find(|e| e.kind == kind && e.core == core && e.subject == subject)
        .unwrap_or_else(|| panic!("no {kind:?} for {subject} at core {core}"))
}

/// The acceptance scenario: a 3-Core run with two movements and a
/// chain-routed invocation, over jittery links. The merged timeline must
/// order causally-related events correctly — each departure before its
/// arrival, and the arrival before the tracker repair a later call's
/// reply causes — even though wall-time delivery was reordered.
#[test]
fn merged_timeline_respects_causality_under_jitter() {
    let (_net, cores) = jittery_cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id().to_string();
    msg.move_to("core1").unwrap();
    msg.move_to("core2").unwrap();
    // core0 still believes core1; the invocation is forwarded 0 -> 1 -> 2.
    msg.call("print", &[]).unwrap();

    let events = cores[0].collect_journal();
    assert!(
        events.windows(2).all(|w| w[0].hlc <= w[1].hlc),
        "merged timeline must be HLC-sorted"
    );

    // Movement causality: departure strictly precedes the arrival it
    // causes, for both hops.
    let departures: Vec<&JournalEvent> = events
        .iter()
        .filter(|e| e.kind == JournalKind::CompletDeparted && e.subject == id)
        .collect();
    assert_eq!(departures.len(), 2, "two movements journaled");
    for dep in departures {
        let dest = dep.peer.expect("move departure records destination");
        let arr = find(&events, JournalKind::CompletArrived, dest, &id);
        assert!(
            dep.hlc < arr.hlc,
            "departure {} at core{} must precede arrival {} at core{}",
            dep.hlc,
            dep.core,
            arr.hlc,
            arr.core
        );
    }

    // Causality across the call: it ran at core2 and its reply told
    // core0 so, which cut core1 out of core0's chain. That repair is a
    // layout event of core0 caused by a message from core2, so it orders
    // after the arrival core2 journaled — and the call itself left no
    // journal entry anywhere.
    let shorten = find(&events, JournalKind::TrackerShortened, 0, &id);
    assert_eq!(shorten.peer, Some(2), "the reply named the real host");
    let arrival = find(&events, JournalKind::CompletArrived, 2, &id);
    assert!(arrival.hlc < shorten.hlc, "arrival before the repair");
    assert!(
        events.iter().all(|e| e.object != "print"),
        "calls are not journaled"
    );
    teardown(&cores);
}

/// `layout at <hlc>` semantics: checkpoints taken between movements
/// reconstruct the placement that held at each boundary.
#[test]
fn layout_at_reconstructs_each_movement_boundary() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id().to_string();
    // Each checkpoint is taken *after* the previous step's reply merged
    // the remote clock, so it dominates every event journaled so far.
    let at_creation = cores[0].hlc_now();
    msg.move_to("core1").unwrap();
    let after_first = cores[0].hlc_now();
    msg.move_to("core2").unwrap();
    let after_second = cores[0].hlc_now();

    let history = cores[0].layout_history();
    assert_eq!(history.at(at_creation).placement.get(&id), Some(&0));
    assert_eq!(history.at(after_first).placement.get(&id), Some(&1));
    assert_eq!(history.at(after_second).placement.get(&id), Some(&2));
    assert_eq!(
        history.at(Hlc::ZERO).placement.get(&id),
        None,
        "before creation the complet is placed nowhere"
    );
    teardown(&cores);
}

/// The anomaly pass must flag an artificially induced 4-hop forwarding
/// chain: sequential moves 0 -> 1 -> 2 -> 3 -> 4 with no invocations, so
/// no return ever shortens the chain.
#[test]
fn anomaly_pass_flags_long_forwarding_chain() {
    let (_net, _reg, cores) = cluster(5);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id().to_string();
    relay(&cores, msg.id());
    let anomalies = cores[0].layout_history().anomalies();
    let chain = anomalies
        .iter()
        .find_map(|a| match a {
            Anomaly::LongChain { complet, hops, .. } if *complet == id => Some(*hops),
            _ => None,
        })
        .unwrap_or_else(|| panic!("long chain not flagged; anomalies: {anomalies:?}"));
    assert_eq!(chain, 4, "chain 0->1->2->3->4 is four hops");
    teardown(&cores);
}

/// Repeated back-and-forth movement is flagged as ping-pong.
#[test]
fn anomaly_pass_flags_ping_pong_movement() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id().to_string();
    for _ in 0..3 {
        msg.move_to("core1").unwrap();
        msg.move_to("core0").unwrap();
    }
    let anomalies = cores[0].layout_history().anomalies();
    assert!(
        anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::PingPong { complet, .. } if *complet == id)),
        "ping-pong not flagged; anomalies: {anomalies:?}"
    );
    teardown(&cores);
}

/// The journal records layout, not calls: a move stays explainable
/// however many calls the cluster serves after it.
#[test]
fn layout_history_survives_call_load() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    let id = msg.id().to_string();
    msg.move_to("core1").unwrap();
    for _ in 0..3 * test_config().journal_capacity {
        msg.call("print", &[]).unwrap();
    }
    let events = cores[0].collect_journal();
    let departure = find(&events, JournalKind::CompletDeparted, 0, &id);
    let arrival = find(&events, JournalKind::CompletArrived, 1, &id);
    assert!(departure.hlc < arrival.hlc);
    assert_eq!(
        cores[0].layout_history().final_state().placement.get(&id),
        Some(&1),
        "the layout observatory still knows where the complet lives"
    );
    teardown(&cores);
}

/// With journaling off, nothing is recorded and no envelope carries an
/// HLC — the cluster behaves exactly as before the flight recorder.
#[test]
fn journaling_disabled_records_nothing() {
    let (_net, _reg, cores) = cluster_with_config(2, test_config().with_journaling(false));
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    msg.call("print", &[]).unwrap();
    assert!(cores[0].collect_journal().is_empty());
    assert_eq!(cores[0].hlc_now(), Hlc::ZERO, "clock never ticked");
    teardown(&cores);
}

define_complet! {
    /// Counts `on_event` notifications, for replay-delivery checks.
    pub complet Recorder {
        state { hits: i64 = 0 }
        fn on_event(&mut self, _ctx, _args) {
            self.hits += 1;
            Ok(Value::Null)
        }
        fn hits(&mut self, _ctx, _args) {
            Ok(Value::I64(self.hits))
        }
        fn watch(&mut self, ctx, _args) {
            ctx.subscribe_self("completArrived", None, true);
            Ok(Value::Null)
        }
    }
}

/// Journal-originated layout events flow through the same hub and the
/// same remote-listener delivery as live events: a complet that
/// subscribed to `completArrived` and *then migrated* still receives the
/// replayed arrivals, routed to it through its tracker chain.
#[test]
fn replayed_journal_events_reach_migrated_listener() {
    let (_net, reg, cores) = cluster(3);
    Recorder::register(&reg);
    let rec = cores[0].new_complet("Recorder", &[]).unwrap();
    rec.call("watch", &[]).unwrap();
    rec.move_to("core1").unwrap();
    // An arrival at core2: journaled where it happened, but core0's hub —
    // where the recorder subscribed — saw no live event for it.
    cores[2].new_complet("Message", &[]).unwrap();

    // The merged journal holds three arrivals (recorder created, recorder
    // re-installed at core1, message at core2) and one departure.
    let fired = cores[0].replay_layout_events(None);
    assert!(
        fired >= 4,
        "expected at least 4 replayable events, got {fired}"
    );
    // Deliveries are asynchronous invocations; poll until the three
    // arrivals land at the recorder's new home.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let hits = rec.call("hits", &[]).unwrap().as_i64().unwrap();
        if hits >= 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {hits}/3 replayed arrivals reached the migrated listener"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    teardown(&cores);
}
