//! The envelope accounting around `Core::send_to` and `Core::receive`:
//! what the gossip byte counter and the decode-error counter count.

use std::time::{Duration, Instant};

use bytes::Bytes;
use fargo_naming::Delta;
use fargo_wire::{CompletId, Value, WireWriter};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::proto::{EnvelopeMeta, Message, Request, ENVELOPE_VERSION};
use crate::runtime::Core;
use crate::{CompletRegistry, CoreConfig};

crate::define_complet! {
    complet Echo {
        state { calls: i64 = 0 }
        fn ping(&mut self, _ctx, _args) {
            self.calls += 1;
            Ok(Value::I64(self.calls))
        }
    }
}

/// Two Cores on instant links with the monitor parked, so nothing but
/// the test's own calls puts envelopes (or anti-entropy deltas) on the
/// wire.
fn pair() -> (Network, Core, Core) {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Echo::register(&reg);
    let spawn = |name: &str| {
        let config = CoreConfig {
            monitor_tick: Duration::from_secs(3600),
            ..CoreConfig::default()
        };
        Core::builder(&net, name)
            .registry(&reg)
            .config(config)
            .spawn()
            .expect("core must spawn")
    };
    let (a, b) = (spawn("core0"), spawn("core1"));
    (net, a, b)
}

fn gossip_bytes(core: &Core) -> u64 {
    core.inner.telemetry.naming_gossip_bytes_total.get()
}

#[test]
fn gossip_counter_counts_the_nd_section_at_both_ends() {
    let (_net, core0, core1) = pair();
    let echo = core0.new_complet_at("core1", "Echo", &[]).unwrap();
    // Drain the deltas the set-up published until both cursors caught up.
    let mut settled = (gossip_bytes(&core0), gossip_bytes(&core1));
    for _ in 0..100 {
        echo.call("ping", &[]).unwrap();
        let now = (gossip_bytes(&core0), gossip_bytes(&core1));
        if now == settled {
            break;
        }
        settled = now;
    }
    // One delta about a complet whose shard core0 itself owns: core1 only
    // caches it as a hint, so nothing is re-gossiped on the reply.
    let id = (1..)
        .map(|seq| CompletId::new(7, seq))
        .find(|id| core0.ring_owner(*id) == Some(core0.node().index()))
        .unwrap();
    core0.inner.shard_deltas.push(Delta {
        id,
        node: 0,
        epoch: 1,
        alive: true,
    });
    echo.call("ping", &[]).unwrap();
    // count + (origin, seq) + node + epoch + alive, one byte each.
    let nd_section = 6;
    assert!(id.seq < 128, "seq must stay a one-byte varint");
    assert_eq!(gossip_bytes(&core0) - settled.0, nd_section, "sender");
    assert_eq!(gossip_bytes(&core1) - settled.1, nd_section, "receiver");
    core0.stop();
    core1.stop();
}

#[test]
fn undecodable_frames_are_counted_and_the_core_keeps_serving() {
    let (net, core0, core1) = pair();
    let mut w = WireWriter::new();
    Message::Request {
        req_id: 1,
        origin: core1.node().index(),
        trace: None,
        body: Request::Ping,
    }
    .encode(&EnvelopeMeta::default(), &mut w);
    let good = w.finish();
    let truncated = good.slice(..good.len() - 1);
    let mut future = good.to_vec();
    future[0] = ENVELOPE_VERSION + 1;
    for (sent, frame) in [truncated, Bytes::from(future), Bytes::new()]
        .into_iter()
        .enumerate()
    {
        net.send(core1.node(), core0.node(), frame).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while core0.decode_errors() < sent as u64 + 1 {
            assert!(Instant::now() < deadline, "frame {sent} was never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(core0.decode_errors(), 3);
    assert_eq!(core1.decode_errors(), 0);
    // The receiver loop survived all three.
    core1.ping("core0").unwrap();
    let echo = core1.new_complet_at("core0", "Echo", &[]).unwrap();
    assert_eq!(echo.call("ping", &[]).unwrap(), Value::I64(1));
    assert_eq!(core0.decode_errors(), 3);
    core0.stop();
    core1.stop();
}
