//! The envelope accounting around `Core::transmit` and `Core::receive`:
//! what one call puts on the wire and what the decode-error counter
//! counts.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fargo_telemetry::{Clock, Hlc};
use fargo_wire::Value;
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::proto::tests::{encode, encode_body};
use crate::proto::{EnvelopeMeta, Message, Reply, Request, ENVELOPE_VERSION};
use crate::runtime::Core;
use crate::{CompletRegistry, CoreConfig};

crate::define_complet! {
    complet Echo {
        state { calls: i64 = 0 }
        fn ping(&mut self, _ctx, _args) {
            self.calls += 1;
            Ok(Value::I64(self.calls))
        }
        fn get(&mut self, _ctx, _args) {
            Ok(Value::Bytes(vec![7; 64]))
        }
        // 256 graph-shaped records stamped with the call count, so a
        // second execution could not produce the first one's bytes.
        fn scan(&mut self, _ctx, _args) {
            self.calls += 1;
            Ok(Value::list((0..256).map(|i| {
                Value::map([
                    ("k", Value::from(format!("k{i:015x}"))),
                    ("v", Value::I64((i << 32) | self.calls)),
                    ("tags", Value::list((0..3).map(|t| Value::from(format!("t{t:05x}"))))),
                ])
            })))
        }
    }
}

/// Two Cores on instant links with the monitor parked, so nothing but
/// the test's own calls puts envelopes on the wire.
fn pair(config: CoreConfig) -> (Network, Core, Core) {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Echo::register(&reg);
    let spawn = |name: &str| {
        let config = CoreConfig {
            monitor_tick: Duration::from_secs(3600),
            ..config.clone()
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

/// Encoded bytes `core` has sent in envelopes of `kind`.
fn out_bytes(core: &Core, kind: &str) -> u64 {
    core.telemetry()
        .counter(
            "fargo_msg_out_bytes_total",
            &[("core", core.name()), ("kind", kind)],
        )
        .get()
}

/// What a Core puts on the wire for `msg` at virtual time `now_us`:
/// the message under an `hlc` and a `ts` section and nothing else.
fn wire_len(msg: &Message, now_us: u64) -> u64 {
    let meta = EnvelopeMeta {
        hlc: Some(Hlc {
            wall_us: now_us,
            logical: 0,
        }),
        ts: Some(now_us),
    };
    encode(msg, &meta).len() as u64
}

/// The canonical small call of `proto::tests::small_get_fits_its_byte_budget`
/// costs its own bytes and no more, however many complets the location
/// shards hold and however many naming passes the monitor has run.
#[test]
fn envelope_size_does_not_depend_on_shard_population_or_uptime() {
    // A virtual clock pins the width of the `hlc` and `ts` varints;
    // trace ids come from a process-wide counter, so tracing is off.
    let clock = Clock::new_virtual(25_000_000);
    let (_net, core0, core1) = pair(
        CoreConfig::default()
            .with_clock(clock.clone())
            .with_tracing(false),
    );
    let echo = core0.new_complet_at("core1", "Echo", &[]).unwrap();
    for i in 0..64 {
        let host = if i % 2 == 0 { &core0 } else { &core1 };
        host.new_complet("Echo", &[]).unwrap();
    }
    // Publishes to the other Core's shard are one-way notifies.
    let deadline = Instant::now() + Duration::from_secs(10);
    while core0.naming_shard_size().0 + core1.naming_shard_size().0 < 65 {
        assert!(Instant::now() < deadline, "publishes never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(core0.naming_shard_size().0 > 0 && core1.naming_shard_size().0 > 0);
    // Ten monitor ticks' worth of the naming pass (the monitor is parked).
    for _ in 0..10 {
        core0.naming_rebalance();
        core1.naming_rebalance();
    }

    let args = vec![Value::from("key-00042")];
    let value = Value::Bytes(vec![7; 64]);
    // A new instant resets the HLC's logical counter to a one-byte varint.
    let now_us = clock.advance(Duration::from_micros(40));
    let req_id = core0.inner.req_seq.load(Ordering::Relaxed);
    let sent = (out_bytes(&core0, "invoke"), out_bytes(&core1, "reply"));
    assert_eq!(echo.call("get", &args).unwrap(), value);
    let get = Message::Request {
        req_id,
        origin: 0,
        // The only call pending: the mark is its own id.
        acked: req_id,
        trace: None,
        body: Request::Invoke {
            target: echo.id(),
            method: "get".into(),
            args,
            chain: vec![],
            path: vec![0],
        },
    };
    let ok = Message::Reply {
        req_id,
        route: vec![],
        body: Reply::InvokeOk {
            value,
            final_location: 1,
            target: echo.id(),
            epoch: 0,
        },
    };
    assert_eq!(
        out_bytes(&core0, "invoke") - sent.0,
        wire_len(&get, now_us),
        "request"
    );
    assert_eq!(
        out_bytes(&core1, "reply") - sent.1,
        wire_len(&ok, now_us),
        "reply"
    );
    core0.stop();
    core1.stop();
}

#[test]
fn undecodable_frames_are_counted_and_the_core_keeps_serving() {
    let (net, core0, core1) = pair(CoreConfig::default());
    let ping = Message::Request {
        req_id: 1,
        origin: core1.node().index(),
        acked: 1,
        trace: None,
        body: Request::Ping,
    };
    let good = encode(&ping, &EnvelopeMeta::default());
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

/// A retransmitted request is answered from the bytes of the first
/// reply: the method runs once, and the replayed envelope is a fresh
/// header (later stamps) around a byte-identical body. Once its caller's
/// mark passes it, the bytes go and a late copy gets no answer.
#[test]
fn a_replayed_reply_carries_the_first_reply_body_byte_for_byte() {
    let clock = Clock::new_virtual(25_000_000);
    let (net, core0, core1) = pair(CoreConfig::default().with_clock(clock.clone()));
    let echo = core0.new_complet("Echo", &[]).unwrap();
    // A peer that is no Core: its requests and their replies are frames
    // in this test's hands.
    let raw = net.add_node("raw").unwrap();
    let call = |req_id, method: &str| {
        let msg = Message::Request {
            req_id,
            origin: raw.id().index(),
            acked: req_id,
            trace: None,
            body: Request::Invoke {
                target: echo.id(),
                method: method.into(),
                args: vec![],
                chain: vec![],
                path: vec![raw.id().index()],
            },
        };
        encode(&msg, &EnvelopeMeta::default())
    };
    let request = call(77, "scan");
    let mut replies = Vec::new();
    for _ in 0..3 {
        raw.send(core0.node(), request.clone()).unwrap();
        let frame = raw.recv_timeout(Duration::from_secs(10)).unwrap().payload;
        replies.push(frame);
        // The next copy is answered at a later instant.
        clock.advance(Duration::from_millis(3));
    }
    let decoded: Vec<_> = replies
        .iter()
        .map(|frame| Message::decode(frame.clone()).unwrap())
        .collect();
    let body = encode_body(&decoded[0].0);
    assert!(
        body.len() > 8_000,
        "a scan-sized reply: {} bytes",
        body.len()
    );
    for (frame, (msg, _)) in replies.iter().zip(&decoded) {
        assert_eq!(*msg, decoded[0].0);
        assert_eq!(frame[frame.len() - body.len()..], body[..]);
    }
    // Only the header differs: it carries the stamps of its own send.
    assert!(decoded[0].1.ts < decoded[1].1.ts && decoded[1].1.ts < decoded[2].1.ts);
    let t = &core0.inner.telemetry;
    assert_eq!(t.dedup_cache_bytes.get(), body.len() as f64);
    let entries = t.dedup_cache_entries.get();
    // The next request says every reply below 78 has arrived: the scan's
    // bytes go, its key stays.
    raw.send(core0.node(), call(78, "get")).unwrap();
    let frame = raw.recv_timeout(Duration::from_secs(10)).unwrap().payload;
    let get = encode_body(&Message::decode(frame).unwrap().0);
    assert_eq!(t.dedup_cache_bytes.get(), get.len() as f64);
    assert_eq!(t.dedup_cache_entries.get(), entries + 1.0);
    // A late copy of the scan is dropped, neither executed nor answered.
    raw.send(core0.node(), request).unwrap();
    assert!(raw.recv_timeout(Duration::from_millis(200)).is_err());
    assert_eq!(core0.reliability_stats().1, 2, "two replays");
    assert_eq!(
        echo.call("ping", &[]).unwrap(),
        Value::I64(2),
        "one scan ran"
    );
    core0.stop();
    core1.stop();
}
