//! End-to-end script engine tests against live Cores, including the
//! paper's §4.3 example script run verbatim.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fargo_core::{define_complet, CompletRegistry, Core, CoreConfig, Value};
use fargo_script::{ScriptEngine, ScriptError, ScriptValue};
use simnet::{LinkConfig, Network, NetworkConfig};

define_complet! {
    pub complet Message {
        state { text: String = "hi".to_owned() }
        fn print(&mut self, _ctx, _args) {
            Ok(Value::from(self.text.as_str()))
        }
    }
}

fn cluster(n: usize) -> (Network, Vec<Core>) {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Message::register(&reg);
    let cores = (0..n)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(CoreConfig {
                    monitor_tick: Duration::from_millis(10),
                    ..CoreConfig::default()
                })
                .spawn()
                .unwrap()
        })
        .collect();
    (net, cores)
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

/// The paper's example script, verbatim (§4.3).
const PAPER_SCRIPT: &str = r#"
$coreList = %1
$targetCore = %2
$comps = %3
on shutdown firedby $core
 listenAt $coreList do
  move completsIn $core to $targetCore
end
on methodInvokeRate(3)
  from $comps[0] to $comps[1] do
 move $comps[0] to coreOf $comps[1]
end
"#;

#[test]
fn the_paper_script_reliability_rule_evacuates_a_dying_core() {
    let (_net, cores) = cluster(3);
    // Two complets live on core1, which will shut down; core2 is safe.
    let a = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let b = cores[0].new_complet_at("core1", "Message", &[]).unwrap();

    let engine = ScriptEngine::new(cores[0].clone());
    let script = engine
        .load(
            PAPER_SCRIPT,
            vec![
                // %1: cores whose shutdown we guard against
                ScriptValue::List(vec![ScriptValue::Str("core1".into())]),
                // %2: the safe core
                ScriptValue::Str("core2".into()),
                // %3: the complets the performance rule watches
                ScriptValue::List(vec![(&a).into(), (&b).into()]),
            ],
        )
        .unwrap();
    assert!(script.subscription_count() >= 2);

    // core1 announces shutdown with a grace period; the rule evacuates.
    let dying = cores[1].clone();
    let announcer = std::thread::spawn(move || dying.shutdown(Duration::from_millis(800)));
    assert!(
        wait_until(Duration::from_secs(5), || {
            cores[2].hosts(a.id()) && cores[2].hosts(b.id())
        }),
        "complets must be moved to the safe core; log: {:?}",
        engine.log_lines()
    );
    // Refresh the references while core1's forwarding tracker is still
    // alive (the grace window): chain shortening teaches the stubs the
    // new location — exactly why the paper shortens on return.
    assert_eq!(a.call("print", &[]).unwrap(), Value::from("hi"));
    assert_eq!(b.call("print", &[]).unwrap(), Value::from("hi"));
    announcer.join().unwrap();
    // core1 is now gone; the shortened references go direct to core2,
    // so the application stayed alive across the Core failure.
    assert_eq!(a.call("print", &[]).unwrap(), Value::from("hi"));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn the_paper_script_performance_rule_colocates_chatty_complets() {
    let (_net, cores) = cluster(3);
    // comps[0] on core1, comps[1] on core2; a chatty reference runs
    // between them, so the rule should move comps[0] to core2.
    let src = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let dst = cores[0].new_complet_at("core2", "Message", &[]).unwrap();

    let engine = ScriptEngine::new(cores[0].clone());
    let _script = engine
        .load(
            PAPER_SCRIPT,
            vec![
                ScriptValue::List(vec![]),
                ScriptValue::Str("core0".into()),
                ScriptValue::List(vec![(&src).into(), (&dst).into()]),
            ],
        )
        .unwrap();

    // Drive invocations along src -> dst at well over 3/s.
    // The rate is profiled at core1 (the source's host).
    let src_host = cores[1].clone();
    let src_ref = src.complet_ref().clone();
    let dst_ref = dst.complet_ref().clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let s2 = stop.clone();
    let driver = std::thread::spawn(move || {
        // Invoke dst *through* src's host core with src on the chain, so
        // the profiled reference is src -> dst. Simplest faithful way:
        // call dst from core1 as the application; then the key is the
        // app pseudo-complet, not src. Instead, make src itself call dst
        // by invoking a relay… Message has no relay, so instead we count
        // via direct invocation with an explicit chain through invoke on
        // the host core.
        let _ = src_ref;
        while !s2.load(Ordering::SeqCst) {
            let _ = src_host.invoke(&dst_ref, "print", &[]);
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    // The script watches src->dst; our driver produces app->dst at core1.
    // For the observable effect we need the src->dst key, so also record
    // a matching rate by invoking with the src chain via Ctx is not
    // available here. Accept either trigger: wait for the move or a
    // rate-keyed event failure in the log, then assert movement when the
    // selector matched.
    let moved = wait_until(Duration::from_secs(3), || cores[2].hosts(src.id()));
    stop.store(true, Ordering::SeqCst);
    driver.join().unwrap();
    // The app-level driver cannot produce the src->dst key, so the rule
    // must NOT have fired: this asserts key filtering works.
    assert!(!moved, "rule must only fire for the exact reference key");
    for c in &cores {
        c.stop();
    }
}

define_complet! {
    /// A complet that calls a stored peer, producing a src->dst rate key.
    pub complet Chatter {
        state { peer: Option<fargo_core::CompletRef> = None }
        fn set_peer(&mut self, _ctx, args) {
            let d = args.first().and_then(Value::as_ref_desc).cloned().unwrap();
            self.peer = Some(fargo_core::CompletRef::from_descriptor(d));
            Ok(Value::Null)
        }
        fn chat(&mut self, ctx, _args) {
            let p = self.peer.clone().unwrap();
            ctx.call(&p, "print", &[])
        }
    }
}

#[test]
fn performance_rule_fires_on_the_exact_reference() {
    let (_net, cores) = cluster(3);
    Chatter::register(cores[0].registry());
    let src = cores[0].new_complet_at("core1", "Chatter", &[]).unwrap();
    let dst = cores[0].new_complet_at("core2", "Message", &[]).unwrap();
    src.call("set_peer", &[Value::from(dst.complet_ref().descriptor())])
        .unwrap();

    let engine = ScriptEngine::new(cores[0].clone());
    let _script = engine
        .load(
            PAPER_SCRIPT,
            vec![
                ScriptValue::List(vec![]),
                ScriptValue::Str("core0".into()),
                ScriptValue::List(vec![(&src).into(), (&dst).into()]),
            ],
        )
        .unwrap();

    // src chats with dst: the src->dst invocation rate rises above 3/s
    // at core1, the rule fires, and src moves to dst's core (core2).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cores[2].hosts(src.id()) {
        assert!(
            Instant::now() < deadline,
            "rule never moved the chatty source; log: {:?}",
            engine.log_lines()
        );
        let _ = src.call("chat", &[]);
        std::thread::sleep(Duration::from_millis(2));
    }
    // dst stayed put; src joined it.
    assert!(cores[2].hosts(dst.id()));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn assignments_params_and_vars_are_visible() {
    let (_net, cores) = cluster(1);
    let engine = ScriptEngine::new(cores[0].clone());
    let script = engine
        .load(
            "$a = %1\n$b = \"literal\"\n$c = 4.5",
            vec![ScriptValue::Str("param".into())],
        )
        .unwrap();
    assert_eq!(script.var("a"), Some(&ScriptValue::Str("param".into())));
    assert_eq!(script.var("b"), Some(&ScriptValue::Str("literal".into())));
    assert_eq!(script.var("c"), Some(&ScriptValue::Num(4.5)));
    assert_eq!(script.subscription_count(), 0);
    cores[0].stop();
}

#[test]
fn missing_params_and_bad_indices_fail_to_load() {
    let (_net, cores) = cluster(1);
    let engine = ScriptEngine::new(cores[0].clone());
    assert!(matches!(
        engine.load("$a = %2", vec![ScriptValue::Num(1.0)]),
        Err(ScriptError::MissingParam(2))
    ));
    assert!(matches!(
        engine.load(
            "$l = %1\n$x = $l[5]",
            vec![ScriptValue::List(vec![ScriptValue::Num(0.0)])]
        ),
        Err(ScriptError::BadIndex { .. })
    ));
    assert!(matches!(
        engine.load("$x = $ghost", vec![]),
        Err(ScriptError::UndefinedVar(_))
    ));
    cores[0].stop();
}

#[test]
fn log_action_and_firedby_binding() {
    let (_net, cores) = cluster(2);
    let engine = ScriptEngine::new(cores[0].clone());
    let _script = engine
        .load(
            "on arrived firedby $who listenAt \"core1\" do log \"arrival at\" $who end",
            vec![],
        )
        .unwrap();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        engine.log_lines().iter().any(|l| l == "arrival at core1")
    }));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn custom_actions_extend_the_language() {
    let (_net, cores) = cluster(2);
    let engine = ScriptEngine::new(cores[0].clone());
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    assert!(!engine.has_action("alert"));
    engine.register_action(
        "alert",
        Arc::new(move |ctx, args| {
            assert_eq!(args.len(), 1);
            ctx.log(format!("alert from {}", ctx.fired_core));
            h.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }),
    );
    assert!(engine.has_action("alert"));
    let _script = engine
        .load("on arrived listenAt \"core1\" do alert \"x\" end", vec![])
        .unwrap();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        hits.load(Ordering::SeqCst) == 1
    }));
    assert!(engine.log_lines().iter().any(|l| l.contains("core1")));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn unknown_actions_are_reported_in_the_log() {
    let (_net, cores) = cluster(2);
    let engine = ScriptEngine::new(cores[0].clone());
    let _script = engine
        .load("on arrived listenAt \"core1\" do teleport $x end", vec![])
        .unwrap();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    assert!(wait_until(Duration::from_secs(3), || {
        engine.log_lines().iter().any(|l| l.contains("failed"))
    }));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn cancelled_scripts_stop_reacting() {
    let (_net, cores) = cluster(2);
    let engine = ScriptEngine::new(cores[0].clone());
    let script = engine
        .load(
            "on arrived firedby $who listenAt \"core1\" do log $who end",
            vec![],
        )
        .unwrap();
    script.cancel();
    cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    assert!(engine.log_lines().is_empty());
    for c in &cores {
        c.stop();
    }
}

#[test]
fn retype_and_bind_builtin_actions() {
    let (_net, cores) = cluster(2);
    let engine = ScriptEngine::new(cores[0].clone());
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    // On any arrival at core0, retype the parameter complet to pull and
    // bind it under a name — both built-in actions in one rule.
    let _script = engine
        .load(
            "$m = %1\non arrived listenAt \"core0\" do bind \"the-msg\" $m retype $m \"pull\" end",
            vec![ScriptValue::Complet(msg.complet_ref().descriptor())],
        )
        .unwrap();
    // Trigger the rule.
    cores[0].new_complet("Message", &[]).unwrap();
    assert!(
        wait_until(Duration::from_secs(3), || {
            cores[0]
                .lookup("the-msg")
                .map(|r| r.id() == msg.id() && r.relocator() == "pull")
                .unwrap_or(false)
        }),
        "log: {:?}",
        engine.log_lines()
    );
    for c in &cores {
        c.stop();
    }
}
