//! Telemetry integration: cross-Core trace propagation and the metrics
//! the invocation/movement hot paths leave behind.

mod common;

use std::time::Duration;

use common::{
    cluster, cluster_on, cluster_with_config, fast_network, registry, relay, teardown, test_config,
};
use fargo_core::{define_complet, Core, FargoError, MetricValue, TelemetryRegistry, Value};
use simnet::{LinkConfig, Network, NetworkConfig};

/// A chained invocation across three Cores must produce one span tree:
/// the caller's `invoke` span, the intermediate Core's `forward` span,
/// and the host's `exec` span, each parented on the previous hop.
#[test]
fn trace_spans_follow_chained_invocation() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    // Each move issued at the host: core0's reference still points at
    // core1, which forwards to core2.
    relay(&cores, msg.id());
    msg.call("print", &[]).unwrap();
    // The reply can overtake the forwarder's own bookkeeping: core1
    // closes its span after the forwarded request has left.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !cores[1]
        .span_snapshot()
        .iter()
        .any(|s| s.name.starts_with("forward"))
    {
        assert!(std::time::Instant::now() < deadline, "no forward span");
        std::thread::yield_now();
    }

    let trace_id = cores[0].last_trace_id().expect("invoke must leave a trace");
    let spans = cores[0].collect_trace(trace_id);
    let invoke = spans
        .iter()
        .find(|s| s.name == "invoke Message.print")
        .expect("caller span");
    let forward = spans
        .iter()
        .find(|s| s.name.starts_with("forward"))
        .expect("chain-hop span");
    let exec = spans
        .iter()
        .find(|s| s.name == "exec print")
        .expect("host span");
    assert_eq!(invoke.core, "core0");
    assert_eq!(forward.core, "core1");
    assert_eq!(exec.core, "core2");
    assert_eq!(
        forward.parent_id, invoke.span_id,
        "forward hangs off invoke"
    );
    assert_eq!(exec.parent_id, forward.span_id, "exec hangs off forward");

    let tree = cores[0].render_trace(trace_id);
    let lines: Vec<&str> = tree.lines().collect();
    assert!(lines[0].starts_with("trace 0x"), "{tree}");
    assert!(
        lines[1].starts_with("  invoke Message.print @core0"),
        "{tree}"
    );
    assert!(lines[2].starts_with("    forward print @core1"), "{tree}");
    assert!(lines[3].starts_with("      exec print @core2"), "{tree}");
    teardown(&cores);
}

/// With span recording off, the hot paths record nothing — but metrics
/// still flow.
#[test]
fn tracing_disabled_records_no_spans() {
    let (_net, _reg, cores) = cluster_with_config(2, test_config().with_tracing(false));
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    msg.call("print", &[]).unwrap();
    assert_eq!(cores[0].last_trace_id(), None);
    let metrics = cores[0].render_metrics();
    assert!(
        metrics.contains("fargo_invoke_total{core=\"core0\"} 1"),
        "{metrics}"
    );
    teardown(&cores);
}

/// Exact mean of `core`'s network phase: histogram sum over count, free
/// of the log buckets' interpolation.
fn network_mean_us(core: &Core) -> f64 {
    let snapshot = core.telemetry().snapshot();
    let network = snapshot
        .iter()
        .find(|s| s.name == "fargo_latency_network_us");
    match network.map(|s| &s.value) {
        Some(MetricValue::Histogram { sum, count, .. }) if *count > 0 => {
            *sum as f64 / *count as f64
        }
        _ => 0.0,
    }
}

/// Two Cores behind a 2 ms link (plus up to 0.5 ms of jitter drawn from
/// `seed`), phase timing on or off, after five calls from core0 to a
/// complet on core1.
fn delayed_pair(seed: u64, timing: bool) -> (Network, Vec<Core>) {
    let net = Network::new(NetworkConfig {
        default_link: Some(
            LinkConfig::new(Duration::from_millis(2)).with_jitter(Duration::from_micros(500)),
        ),
        seed,
        ..NetworkConfig::default()
    });
    let config = test_config().with_phase_timing(timing);
    let (net, _reg, cores) = cluster_on(net, 2, config, false);
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    for _ in 0..5 {
        msg.call("print", &[]).unwrap();
    }
    (net, cores)
}

/// Behind the delayed link the receiver's network phase absorbs the
/// delay, and the caller's slow ring keeps those requests with their
/// span trees.
#[test]
fn an_injected_link_delay_lands_in_the_network_phase() {
    for seed in [7, 11, 23] {
        let (_net, cores) = delayed_pair(seed, true);
        let receiver = cores[1].latency_summaries();
        let network = receiver
            .iter()
            .find(|s| s.phase == "network")
            .expect("network row");
        assert!(network.count > 0, "seed {seed}: no wire phase observed");
        let mean = network_mean_us(&cores[1]);
        assert!(mean >= 2_000.0, "seed {seed}: network mean {mean} us");
        // The percentile is a log-bucket estimate: one bucket of slack.
        assert!(network.p50.unwrap_or(0.0) >= 1_000.0, "{network:?}");
        let slow = cores[0].slow_records();
        let first = slow.first().expect("the slow ring retained nothing");
        assert!(first.total_us >= 4_000, "seed {seed}: {first:?}");
        assert!(!first.spans.is_empty(), "seed {seed}: no span snapshot");
        teardown(&cores);
    }
}

/// With phase timing off, the same delayed traffic records no phase and
/// the slow ring retains nothing.
#[test]
fn phase_timing_off_records_no_phase_and_retains_nothing() {
    for seed in [7, 11, 23] {
        let (_net, cores) = delayed_pair(seed, false);
        let receiver = cores[1].latency_summaries();
        for s in receiver.iter().filter(|s| !s.phase.starts_with("invoke")) {
            assert_eq!(s.count, 0, "seed {seed}: phase off recorded {s:?}");
        }
        let slow = cores[0].slow_records();
        assert!(slow.is_empty(), "seed {seed}: {slow:?}");
        teardown(&cores);
    }
}

/// Cores built with one registry publish into it side by side, each
/// series labelled with its Core, and a remote call leaves the link
/// gauges behind in the JSON exposition.
#[test]
fn a_shared_registry_covers_every_core_and_exports_json() {
    let net = fast_network();
    let (reg, shared) = (registry(), TelemetryRegistry::new());
    let cores: Vec<Core> = (0..2)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(test_config())
                .telemetry(&shared)
                .spawn()
                .unwrap()
        })
        .collect();
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    msg.call("print", &[]).unwrap();
    let json = cores[0].render_metrics_json();
    assert!(json.contains("\"name\":\"fargo_invoke_total\""), "{json}");
    assert!(json.contains("\"core\":\"core0\""), "{json}");
    assert!(json.contains("\"core\":\"core1\""), "{json}");
    assert!(json.contains("\"name\":\"fargo_link_bytes\""), "{json}");
    teardown(&cores);
}

/// The exposition does not grow with the complets a Core has served:
/// after a second batch of accountant-capacity (512) fresh complets,
/// each called once, a render exports no more series than the first.
#[test]
fn the_exposition_does_not_grow_with_served_complets() {
    let (_net, _reg, cores) = cluster(1);
    let mut series = Vec::new();
    for _ in 0..2 {
        for _ in 0..512 {
            let msg = cores[0].new_complet("Message", &[]).unwrap();
            msg.call("print", &[]).unwrap();
        }
        cores[0].render_metrics();
        series.push(cores[0].telemetry().snapshot().len());
    }
    assert_eq!(series[0], series[1], "series after each batch: {series:?}");
    teardown(&cores);
}

/// Shortening a tracker chain after a chained invocation is counted.
#[test]
fn chain_shortening_is_counted() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    msg.move_to("core2").unwrap();
    msg.call("print", &[]).unwrap();
    // The reply told core0 where the complet really lives; its tracker
    // repointed from core1 to core2.
    let metrics = cores[0].render_metrics();
    assert!(
        metrics.contains("fargo_chain_shortenings_total{core=\"core0\"} 1"),
        "{metrics}"
    );
    teardown(&cores);
}

/// Proto counters see traffic in both directions, labelled by kind.
#[test]
fn message_counters_track_wire_traffic() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    msg.call("print", &[]).unwrap();
    let out = cores[0].render_metrics();
    assert!(out.contains("fargo_msg_out_total"), "{out}");
    assert!(out.contains("kind=\"invoke\""), "{out}");
    let inbound = cores[1].render_metrics();
    assert!(inbound.contains("fargo_msg_in_total"), "{inbound}");
    teardown(&cores);
}

/// Movement metrics: marshal bytes, co-moved complets, relocator kinds.
#[test]
fn movement_metrics_are_recorded() {
    let (_net, _reg, cores) = cluster(2);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    let out = cores[0].render_metrics();
    assert!(out.contains("fargo_move_marshal_bytes"), "{out}");
    assert!(out.contains("fargo_move_comoved"), "{out}");
    teardown(&cores);
}

define_complet! {
    /// Ends a call the two awkward ways: by failing, and by moving away.
    pub complet Fickle {
        state { calls: i64 = 0 }
        fn fail(&mut self, _ctx, _args) {
            Err(FargoError::App("refused".to_owned()))
        }
        fn leave(&mut self, ctx, _args) {
            ctx.move_self("core1");
            Ok(Value::Null)
        }
    }
}

/// A span is closed once, and the caller's thread is outside any trace
/// again, whichever way its operation ends: a method body that fails,
/// one that moves its own complet away, a failure on another Core.
#[test]
fn a_span_closes_once_on_every_exit_path() {
    let (_net, reg, cores) = cluster(2);
    Fickle::register(&reg);
    let fickle = cores[0].new_complet("Fickle", &[]).unwrap();

    assert!(fickle.call("fail", &[]).is_err());
    let failed = cores[0].last_trace_id().expect("a failed call is traced");
    let spans = cores[0].collect_trace(failed);
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert_eq!(spans[0].name, "invoke Fickle.fail");

    // The deferred self-move runs inside the call, under its span. Had
    // the failed call's trace stayed ambient, this call would have
    // joined it as a child instead of starting a trace of its own.
    fickle.call("leave", &[]).unwrap();
    let left = cores[0].last_trace_id().unwrap();
    assert_ne!(left, failed);
    let local = cores[0].span_snapshot();
    let spans: Vec<_> = local.iter().filter(|s| s.trace_id == left).collect();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    let moved = format!("move {} -> core1", fickle.id());
    assert_eq!(names, [moved.as_str(), "invoke Fickle.leave"], "{spans:?}");
    assert_eq!(spans[1].parent_id, 0, "a root: nothing was left ambient");
    assert_eq!(spans[0].parent_id, spans[1].span_id);

    // Now remote: the executing Core closes its span on the error path
    // too, before the reply leaves.
    assert!(fickle.call("fail", &[]).is_err());
    let remote = cores[0].last_trace_id().unwrap();
    let spans = cores[0].collect_trace(remote);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["invoke Fickle.fail", "exec fail"], "{spans:?}");
    assert_eq!(spans[0].parent_id, 0);
    assert_eq!(spans[1].core, "core1");
    teardown(&cores);
}
