//! Shared fixtures for workspace-level integration tests.

use std::time::Duration;

use fargo::prelude::*;

define_complet! {
    /// General-purpose test complet: keyed storage plus counters.
    pub complet Store {
        state {
            data: Value = Value::Map(Default::default()),
            ops: i64 = 0,
        }
        fn put(&mut self, _ctx, args) {
            let k = args.first().and_then(Value::as_str)
                .ok_or_else(|| FargoError::InvalidArgument("key".into()))?
                .to_owned();
            let v = args.get(1).cloned().unwrap_or(Value::Null);
            self.ops += 1;
            self.data.insert(k, v);
            Ok(Value::Null)
        }
        fn get(&mut self, _ctx, args) {
            let k = args.first().and_then(Value::as_str).unwrap_or("");
            self.ops += 1;
            Ok(self.data.get(k).cloned().unwrap_or(Value::Null))
        }
        fn ops(&mut self, _ctx, _args) {
            Ok(Value::I64(self.ops))
        }
        fn retype(&mut self, ctx, args) {
            // Retype every reference stored under a key: the receiving
            // complet owns its references' relocation semantics (incoming
            // refs arrive degraded to link, per §3.1).
            let key = args.first().and_then(Value::as_str)
                .ok_or_else(|| FargoError::InvalidArgument("key".into()))?
                .to_owned();
            let relocator = args.get(1).and_then(Value::as_str).unwrap_or("link").to_owned();
            ctx.core().relocators().resolve(&relocator)?;
            if let Some(v) = self.data.get_mut(&key) {
                let old = std::mem::take(v);
                *v = old.transform_refs(&mut |mut r| {
                    r.relocator = relocator.clone();
                    r
                });
            }
            Ok(Value::Null)
        }
        fn poke(&mut self, ctx, _args) {
            // Call the complet stored under "peer" — produces the
            // (self, peer) invocation-rate key the performance rule
            // watches.
            let peer = self.data.get("peer")
                .and_then(Value::as_ref_desc)
                .cloned()
                .ok_or_else(|| FargoError::App("no peer stored".into()))?;
            ctx.call(&CompletRef::from_descriptor(peer), "ops", &[])
        }
        fn set_blob(&mut self, _ctx, args) {
            self.data.insert("blob", args.first().cloned().unwrap_or(Value::Null));
            Ok(Value::Null)
        }
        fn blob(&mut self, _ctx, _args) {
            Ok(self.data.get("blob").cloned().unwrap_or(Value::Null))
        }
    }
}

/// Registry with the shared test types.
pub fn registry() -> CompletRegistry {
    let reg = CompletRegistry::new();
    Store::register(&reg);
    reg
}

/// `n` cores on instantaneous links.
pub fn cluster(n: usize) -> (Network, Vec<Core>) {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = registry();
    let cores = (0..n)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .spawn()
                .expect("spawn core")
        })
        .collect();
    (net, cores)
}

/// Move messages `core` sends while `f` runs: its `move_prep` and
/// `move_commit` envelopes, less its retransmissions — what the protocol
/// sent, not what a busy host sent again. Shard publishes and lookups
/// are kinds of their own and do not count.
#[allow(dead_code)] // not every test binary that includes common/ uses it
pub fn move_msgs_during(core: &Core, f: impl FnOnce()) -> u64 {
    let count = || {
        let sent = |kind| {
            let labels = [("core", core.name()), ("kind", kind)];
            core.telemetry()
                .counter("fargo_msg_out_total", &labels)
                .get()
        };
        (
            sent("move_prep") + sent("move_commit"),
            core.reliability_stats().0,
        )
    };
    let (sent, resent) = count();
    f();
    let (sent_after, resent_after) = count();
    (sent_after - sent) - (resent_after - resent)
}

/// Waits until no message is in flight and no Core has queued work,
/// twice in a row.
#[allow(dead_code)] // not every test binary that includes common/ uses it
pub fn quiesce(net: &Network, cores: &[Core]) {
    let mut stable = 0;
    for _ in 0..4000 {
        let pending =
            net.in_flight() as usize + cores.iter().map(Core::pending_work).sum::<usize>();
        stable = if pending == 0 { stable + 1 } else { 0 };
        if stable >= 2 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("cluster failed to quiesce");
}

/// Polls `cond` until it holds or `timeout` expires.
#[allow(dead_code)] // not every test binary that includes common/ uses it
pub fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Stops all cores.
pub fn teardown(cores: &[Core]) {
    for c in cores {
        c.stop();
    }
}
