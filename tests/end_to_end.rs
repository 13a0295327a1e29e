//! Full-stack scenario: an application deployed over a two-cluster WAN,
//! administered through the shell, scripted layout rules, and the layout
//! monitor — every crate in one test.

mod common;

use std::time::Duration;

use common::{registry, wait_until};
use fargo::prelude::*;

#[test]
fn whole_system_scenario() {
    // Two LAN clusters joined by a WAN bottleneck (scaled down).
    let topo = Topology::two_clusters(2, 2)
        .with_names(["hq0", "hq1", "edge0", "edge1"])
        .with_config(NetworkConfig {
            time_scale: 0.05,
            ..NetworkConfig::default()
        })
        .build()
        .expect("topology");
    let net = topo.network.clone();
    let reg = registry();
    let cores: Vec<Core> = topo
        .endpoints
        .into_iter()
        .map(|ep| {
            Core::builder(&net, "")
                .endpoint(ep)
                .registry(&reg)
                .spawn()
                .expect("core")
        })
        .collect();
    let hq0 = &cores[0];

    // 1. Deploy the application through the shell.
    let shell = Shell::new(hq0.clone());
    shell
        .exec("new Store at edge0 as inventory")
        .expect("deploy");
    shell
        .exec("call inventory put widgets 42")
        .expect("seed data");
    assert_eq!(
        shell.exec("call inventory get widgets").expect("read"),
        "42"
    );

    // 2. Attach the layout monitor to all cores.
    let monitor =
        LayoutMonitor::attach(hq0.clone(), &["hq0", "hq1", "edge0", "edge1"]).expect("monitor");
    // The shell binds names at its admin core (hq0).
    let inventory = hq0.lookup_stub("inventory").expect("lookup");
    assert!(wait_until(Duration::from_secs(3), || {
        monitor.core_of(inventory.id()) == Some("edge0".into())
    }));

    // 3. Attach an administrator script: if edge0 announces shutdown,
    //    evacuate to hq1.
    let engine = ScriptEngine::new(hq0.clone());
    let _script = engine
        .load(
            "$guarded = %1\n$safe = %2\n\
             on shutdown firedby $c listenAt $guarded do\n\
               move completsIn $c to $safe\n\
             end",
            vec![
                ScriptValue::List(vec![ScriptValue::Str("edge0".into())]),
                ScriptValue::Str("hq1".into()),
            ],
        )
        .expect("script");

    // 4. The app keeps running over the WAN; drag it around by hand from
    //    the monitor (the Figure 4 drag-and-drop).
    monitor.move_complet(inventory.id(), "edge1").expect("drag");
    assert!(cores[3].hosts(inventory.id()));
    assert_eq!(
        inventory
            .call("get", &[Value::from("widgets")])
            .expect("call"),
        Value::I64(42)
    );
    monitor
        .move_complet(inventory.id(), "edge0")
        .expect("drag back");

    // 5. edge0 goes down; the script evacuates; the monitor shows it; the
    //    data survives.
    let dying = cores[2].clone();
    let announcer = std::thread::spawn(move || dying.shutdown(Duration::from_millis(600)));
    assert!(
        wait_until(Duration::from_secs(5), || cores[1].hosts(inventory.id())),
        "script must evacuate inventory to hq1; log: {:?}",
        engine.log_lines()
    );
    // Refresh the reference during the grace window.
    assert_eq!(
        inventory
            .call("get", &[Value::from("widgets")])
            .expect("refresh"),
        Value::I64(42)
    );
    announcer.join().expect("announcer");

    // After edge0 is gone: still answering, and the monitor caught up.
    assert_eq!(
        inventory
            .call("get", &[Value::from("widgets")])
            .expect("post-shutdown"),
        Value::I64(42)
    );
    assert!(wait_until(Duration::from_secs(3), || {
        monitor.core_of(inventory.id()) == Some("hq1".into())
    }));
    assert!(wait_until(Duration::from_secs(3), || {
        monitor.render().contains("edge0 [DOWN]")
    }));

    // 6. The shell still administers what's left.
    let out = shell.exec("whereis inventory").expect("whereis");
    assert!(out.contains("hq1"), "{out}");

    monitor.detach();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn script_performance_rule_with_monitor_watching() {
    // The §4.3 performance rule moving a chatty complet, observed live by
    // the layout monitor.
    let (_net, cores) = common::cluster(3);
    let src = cores[0].new_complet_at("core1", "Store", &[]).unwrap();
    let dst = cores[0].new_complet_at("core2", "Store", &[]).unwrap();
    // src holds a reference to dst and chats through it.
    src.call(
        "put",
        &[
            Value::from("peer"),
            Value::from(dst.complet_ref().descriptor()),
        ],
    )
    .unwrap();

    let monitor = LayoutMonitor::attach(cores[0].clone(), &["core0", "core1", "core2"]).unwrap();
    let engine = ScriptEngine::new(cores[0].clone());
    let _script = engine
        .load(
            "$c = %1\non methodInvokeRate(3) from $c[0] to $c[1] do\n move $c[0] to coreOf $c[1]\nend",
            vec![ScriptValue::List(vec![(&src).into(), (&dst).into()])],
        )
        .unwrap();

    // Drive src → dst chatter: `poke` makes src call its stored peer,
    // producing the (src, dst) invocation-rate key the rule watches.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut moved = false;
    while std::time::Instant::now() < deadline {
        let _ = src.call("poke", &[]);
        if cores[2].hosts(src.id()) {
            moved = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        moved,
        "performance rule never co-located; log: {:?}",
        engine.log_lines()
    );
    assert!(wait_until(Duration::from_secs(3), || {
        monitor.core_of(src.id()) == Some("core2".into())
    }));
    monitor.detach();
    common::teardown(&cores);
}
