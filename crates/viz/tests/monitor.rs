//! Layout-monitor tests: live model updates, rendering, and admin ops.

use std::time::{Duration, Instant};

use fargo_core::{define_complet, CompletRegistry, Core, Value};
use fargo_viz::LayoutMonitor;
use simnet::{LinkConfig, Network, NetworkConfig};

define_complet! {
    pub complet Message {
        state { text: String = "hi".to_owned() }
        fn print(&mut self, _ctx, _args) {
            Ok(Value::from(self.text.as_str()))
        }
    }
}

fn setup() -> Vec<Core> {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Message::register(&reg);
    (0..3)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .spawn()
                .unwrap()
        })
        .collect()
}

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
fn seeds_with_existing_layout() {
    let cores = setup();
    let a = cores[0].new_complet("Message", &[]).unwrap();
    let b = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1", "core2"]).unwrap();
    let snap = mon.snapshot();
    assert!(snap["core0"].iter().any(|(id, _)| *id == a.id()));
    assert!(snap["core1"].iter().any(|(id, _)| *id == b.id()));
    assert!(snap["core2"].is_empty());
    mon.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn tracks_movement_live() {
    let cores = setup();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1", "core2"]).unwrap();
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        mon.core_of(msg.id()) == Some("core0".into())
    }));
    msg.move_to("core2").unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        mon.core_of(msg.id()) == Some("core2".into())
    }));
    // The event ticker saw the departure and arrival.
    assert!(wait_until(Duration::from_secs(2), || {
        let log = mon.event_log();
        log.iter().any(|l| l.contains("departed"))
            && log.iter().any(|l| l.contains("arrived at core2"))
    }));
    mon.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn render_shows_boxes_and_events() {
    let cores = setup();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1"]).unwrap();
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        mon.core_of(msg.id()).is_some()
    }));
    let frame = mon.render();
    assert!(frame.contains("core0"));
    assert!(frame.contains("Message"));
    assert!(frame.contains("events"));
    mon.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn drag_and_drop_moves_complets() {
    let cores = setup();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1"]).unwrap();
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    mon.move_complet(msg.id(), "core1").unwrap();
    assert!(cores[1].hosts(msg.id()));
    assert!(wait_until(Duration::from_secs(3), || {
        mon.core_of(msg.id()) == Some("core1".into())
    }));
    mon.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn reference_inspection_and_retype() {
    let cores = setup();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0"]).unwrap();
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    cores[0].bind("m", msg.complet_ref());
    assert_eq!(mon.reference_type("m").unwrap(), "link");
    mon.set_reference_type("m", "pull").unwrap();
    assert_eq!(mon.reference_type("m").unwrap(), "pull");
    assert!(mon.reference_type("ghost").is_err());
    assert!(!mon.tracker_lines().is_empty());
    mon.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn shutdown_marks_cores_down() {
    let cores = setup();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1"]).unwrap();
    cores[1].shutdown(Duration::from_millis(100));
    assert!(wait_until(Duration::from_secs(3), || {
        mon.render().contains("core1 [DOWN]")
    }));
    mon.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn remote_reference_inspection_shows_chains() {
    let cores = setup();
    let mon = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1", "core2"]).unwrap();
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    msg.move_to("core2").unwrap();
    // core1 holds a forwarding tracker towards core2 — visible remotely.
    let lines = mon.tracker_lines_at("core1").unwrap();
    assert!(
        lines.iter().any(|l| l.contains("-> core2")),
        "expected a chain link at core1: {lines:?}"
    );
    // core2 holds the local tracker.
    let lines = mon.tracker_lines_at("core2").unwrap();
    assert!(lines.iter().any(|l| l.contains("local")), "{lines:?}");
    assert!(mon.tracker_lines_at("atlantis").is_err());
    mon.detach();
    for c in &cores {
        c.stop();
    }
}
