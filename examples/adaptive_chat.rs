//! Adaptive layout for a chatty client/server pair (the paper's §1
//! motivation and §4.1 policy sketch).
//!
//! A `Client` complet on a laptop Core talks to a `Directory` complet in
//! a data-center Core across a slow WAN link. A relocation policy —
//! encoded with the monitoring API, *not* inside the application logic —
//! watches the invocation rate along the client→directory reference and
//! pulls the directory next to the client when the conversation becomes
//! chatty, cutting per-call latency from WAN to local.
//!
//! Run with: `cargo run --example adaptive_chat`

use std::sync::Arc;
use std::time::{Duration, Instant};

use fargo::prelude::*;

define_complet! {
    /// A read-mostly directory service.
    pub complet Directory {
        state {
            entries: std::collections::BTreeMap<String, String> =
                std::collections::BTreeMap::new(),
        }
        fn put(&mut self, _ctx, args) {
            let k = args.first().and_then(Value::as_str).unwrap_or("").to_owned();
            let v = args.get(1).and_then(Value::as_str).unwrap_or("").to_owned();
            self.entries.insert(k, v);
            Ok(Value::Null)
        }
        fn get(&mut self, _ctx, args) {
            let k = args.first().and_then(Value::as_str).unwrap_or("");
            Ok(self
                .entries
                .get(k)
                .map(|v| Value::from(v.as_str()))
                .unwrap_or(Value::Null))
        }
    }
}

define_complet! {
    /// The interactive client: looks up a burst of entries.
    pub complet Client {
        state {
            directory: Option<CompletRef> = None,
            lookups: i64 = 0,
        }
        fn connect(&mut self, _ctx, args) {
            let d = args.first().and_then(Value::as_ref_desc).cloned()
                .ok_or_else(|| FargoError::InvalidArgument("need directory ref".into()))?;
            self.directory = Some(CompletRef::from_descriptor(d));
            Ok(Value::Null)
        }
        fn lookup(&mut self, ctx, args) {
            let d = self.directory.clone()
                .ok_or_else(|| FargoError::App("not connected".into()))?;
            self.lookups += 1;
            ctx.call(&d, "get", args)
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Laptop and data center joined by a 40 ms WAN link (scaled 10x down
    // so the demo runs quickly).
    let net = Network::new(NetworkConfig {
        time_scale: 0.1,
        ..NetworkConfig::default()
    });
    let registry = CompletRegistry::new();
    Directory::register(&registry);
    Client::register(&registry);

    let laptop = Core::builder(&net, "laptop").registry(&registry).spawn()?;
    let datacenter = Core::builder(&net, "datacenter")
        .registry(&registry)
        .spawn()?;
    net.set_link(
        laptop.node(),
        datacenter.node(),
        LinkConfig::new(Duration::from_millis(40)).with_bandwidth(1_000_000),
    )?;

    let directory = laptop.new_complet_at("datacenter", "Directory", &[])?;
    for i in 0..64 {
        directory.call(
            "put",
            &[Value::from(format!("user{i}")), Value::from("online")],
        )?;
    }
    let client = laptop.new_complet("Client", &[])?;
    client.call(
        "connect",
        &[Value::from(directory.complet_ref().descriptor())],
    )?;

    // --- the relocation policy, programmed with the monitoring API ------
    let rate_service = Service::MethodInvokeRate {
        src: client.id(),
        dst: directory.id(),
    };
    // Subscribing implicitly starts continuous profiling of the service
    // (sampled on a coarse interval, so sporadic traffic stays quiet).
    let mover = laptop.clone();
    let dir_id = directory.id();
    laptop.on_event(
        &rate_service.to_string(),
        Some(8.0), // more than 8 lookups/s means "chatty"
        true,
        Arc::new(move |e| {
            println!(
                ">>> policy: invocation rate {:.1}/s crossed threshold; co-locating",
                e.value().unwrap_or(0.0)
            );
            let _ = mover.move_complet(dir_id, "laptop", None);
        }),
    );

    // --- the application, oblivious to layout ---------------------------
    println!("phase 1: occasional lookups (directory stays in the datacenter)");
    for i in 0..4 {
        let t = Instant::now();
        client.call("lookup", &[Value::from(format!("user{i}"))])?;
        println!("  lookup {i}: {:?}", t.elapsed());
        std::thread::sleep(Duration::from_millis(400));
    }
    assert!(datacenter.hosts(directory.id()));

    println!("phase 2: interactive burst (policy should pull the directory over)");
    let mut last = Duration::ZERO;
    for i in 0..250 {
        let t = Instant::now();
        client.call("lookup", &[Value::from(format!("user{}", i % 64))])?;
        last = t.elapsed();
        if laptop.hosts(directory.id()) {
            println!(
                "  directory arrived at the laptop after {} burst lookups",
                i + 1
            );
            break;
        }
    }
    let _ = last;
    let t = Instant::now();
    client.call("lookup", &[Value::from("user1")])?;
    println!(
        "  post-move lookup latency: {:?} (was WAN-bound before)",
        t.elapsed()
    );
    assert!(
        laptop.hosts(directory.id()),
        "policy should have moved the directory"
    );

    laptop.stop();
    datacenter.stop();
    Ok(())
}
