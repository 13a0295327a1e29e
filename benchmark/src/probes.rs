//! Layer probes: each layer of the request path timed from outside,
//! through its public items, on the workload's own recorded inputs.
//!
//! Every probe is warmed first, computed per segment and reported as
//! the median of [`SEGMENTS`] segments.

use std::hint::black_box;
use std::io::{Cursor, Write as _};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fargo_core::{Clock, Core, FargoError, Hlc, JournalEvent, JournalKind, Value};
use fargo_naming::{HashRing, LocationShard, ShardEntry};
use fargo_net::{
    read_frame, write_frame, SimnetTransport, TcpTransport, TcpTransportConfig, Transport,
};
use fargo_telemetry::{Journal, Registry, BUCKETS_LATENCY_US};
use fargo_wire::{decode_value, encode_value, CompletId};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::stats::{percentile, Summary, SEGMENTS};
use crate::workloads::Tap;

/// Names of the child spans the replay records under each call, in the
/// order the request path meets them.
pub const PARTS: [&str; 7] = [
    "wire.clone",
    "wire.encode.request",
    "net.frame.request",
    "wire.decode.request",
    "wire.encode.reply",
    "net.frame.reply",
    "wire.decode.reply",
];

/// What replaying one recorded op through the codec and framing cost.
pub struct Replayed {
    /// ns per [`PARTS`] entry, timer overhead subtracted.
    pub parts: [u64; 7],
    pub request_bytes: usize,
    pub reply_bytes: usize,
    pub nodes: usize,
}

/// Cost of reading the clock twice, subtracted from every part.
fn timer_overhead_ns() -> u64 {
    let mut gaps: Vec<u64> = (0..2_001)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as u64
        })
        .collect();
    gaps.sort_unstable();
    percentile(&gaps, 50.0)
}

fn timed<T>(overhead: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = black_box(f());
    (
        out,
        (t.elapsed().as_nanos() as u64).saturating_sub(overhead),
    )
}

/// One message through the length-prefixed framing, in memory.
fn frame_round_trip(payload: &[u8]) -> Bytes {
    let mut wire = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut wire, payload).expect("frame fits");
    read_frame(&mut Cursor::new(&wire)).expect("frame reads back")
}

fn replay_one(args: &[Value], reply: &Value, overhead: u64) -> Replayed {
    // What `invoke` does to by-value arguments: copy the graph and
    // degrade every reference in it.
    let (copy, clone_ns) = timed(overhead, || {
        args.iter()
            .cloned()
            .map(|v| v.transform_refs(&mut |r| r.degraded()))
            .collect::<Vec<Value>>()
    });
    let request = Value::List(copy);
    let (request_bytes, enc_req) = timed(overhead, || encode_value(&request));
    let (framed, frame_req) = timed(overhead, || frame_round_trip(&request_bytes));
    let (decoded, dec_req) = timed(overhead, || decode_value(&framed));
    assert_eq!(decoded.as_ref().ok(), Some(&request), "request round trip");
    let (reply_bytes, enc_rep) = timed(overhead, || encode_value(reply));
    let (framed, frame_rep) = timed(overhead, || frame_round_trip(&reply_bytes));
    let (decoded, dec_rep) = timed(overhead, || decode_value(&framed));
    assert_eq!(decoded.as_ref().ok(), Some(reply), "reply round trip");
    Replayed {
        parts: [
            clone_ns, enc_req, frame_req, dec_req, enc_rep, frame_rep, dec_rep,
        ],
        request_bytes: request_bytes.len(),
        reply_bytes: reply_bytes.len(),
        nodes: request.count_nodes() + reply.count_nodes(),
    }
}

/// Replays the kept ops of a traced phase through clone, codec and
/// framing, recording each part as a child span of the op's call span.
/// The children are laid back to back from the call's start: they were
/// measured after the fact, so only their durations are real.
pub fn replay(tap: &mut Tap) -> Vec<Replayed> {
    let overhead = timer_overhead_ns();
    for r in tap.kept.iter().take(200) {
        black_box(replay_one(&r.args, &r.reply, overhead));
    }
    let mut out = Vec::with_capacity(tap.kept.len());
    for r in &tap.kept {
        let replayed = replay_one(&r.args, &r.reply, overhead);
        let mut at = tap.tracer.spans()[r.span as usize - 1].start_ns;
        for (name, ns) in PARTS.iter().zip(replayed.parts) {
            tap.tracer.record(name, r.span, r.op, at, at + ns);
            at += ns;
        }
        out.push(replayed);
    }
    out
}

/// Mean of `value` per segment of `items` (contiguous fifths).
pub fn segment_means<T>(items: &[T], value: impl Fn(&T) -> f64) -> Summary {
    if items.is_empty() {
        return Summary::single(0.0);
    }
    let per = items.len().div_ceil(SEGMENTS);
    let means: Vec<f64> = items
        .chunks(per)
        .map(|seg| seg.iter().map(&value).sum::<f64>() / seg.len() as f64)
        .collect();
    Summary::median_of(&means, items.len() as u64)
}

/// ns per iteration of `f`: a warm-up, then [`SEGMENTS`] timed segments
/// of up to `iters` iterations each (fewer when an iteration is slow,
/// so that a segment stays near 50 ms).
pub fn batch_ns(iters: u64, mut f: impl FnMut(u64)) -> Summary {
    let mut segment = |base: u64, iters: u64| {
        let t = Instant::now();
        for i in 0..iters {
            f(base + i);
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    let warm = (iters / 10).clamp(20, 1_000);
    let per_iter_ns = segment(0, warm);
    let iters = ((50e6 / per_iter_ns.max(1.0)) as u64).clamp(20, iters);
    let per: Vec<f64> = (1..=SEGMENTS as u64)
        .map(|s| segment(s * iters, iters))
        .collect();
    Summary::median_of(&per, iters * SEGMENTS as u64)
}

// --- net -------------------------------------------------------------------

/// Two bare transports that can reach each other.
pub type Pair = (Arc<dyn Transport>, Arc<dyn Transport>);

pub fn tcp_pair() -> Result<(Arc<TcpTransport>, Arc<TcpTransport>), FargoError> {
    let io = |e: std::io::Error| FargoError::App(format!("probe listener: {e}"));
    let l0 = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let peers = vec![
        l0.local_addr().map_err(io)?.to_string(),
        l1.local_addr().map_err(io)?.to_string(),
    ];
    let start = |local, listener| {
        let config = TcpTransportConfig {
            local,
            peers: peers.clone(),
        };
        TcpTransport::start(config, listener, None)
            .map(Arc::new)
            .map_err(|e| FargoError::App(format!("probe transport: {e}")))
    };
    Ok((start(0, l0)?, start(1, l1)?))
}

pub fn simnet_pair() -> Result<Pair, FargoError> {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let a = net.add_node("probe0").map_err(FargoError::Net)?;
    let b = net.add_node("probe1").map_err(FargoError::Net)?;
    Ok((
        Arc::new(SimnetTransport::new(a, Clock::Wall)),
        Arc::new(SimnetTransport::new(b, Clock::Wall)),
    ))
}

const PROBE_WAIT: Duration = Duration::from_secs(5);

/// Ping-pong between two bare transports: `a` sends `request` bytes,
/// `b` answers with `reply` bytes. Returns the p50 round trip in µs.
pub fn round_trip_us(pair: &Pair, request: usize, reply: usize, rounds: usize) -> Summary {
    let (a, b) = pair;
    let echo = {
        let (b, reply) = (Arc::clone(b), Bytes::from(vec![0x5a; reply]));
        let dst = a.local_index();
        std::thread::spawn(move || {
            while let Ok(d) = b.recv_timeout(PROBE_WAIT) {
                if d.payload.is_empty() || b.send(dst, reply.clone()).is_err() {
                    break;
                }
            }
        })
    };
    let request = Bytes::from(vec![0xa5; request.max(1)]);
    let dst = b.local_index();
    let segment = |rounds: usize| {
        let mut rtts: Vec<u64> = (0..rounds)
            .filter_map(|_| {
                let t = Instant::now();
                a.send(dst, request.clone()).ok()?;
                a.recv_timeout(PROBE_WAIT).ok()?;
                Some(t.elapsed().as_nanos() as u64)
            })
            .collect();
        rtts.sort_unstable();
        if rtts.is_empty() {
            0.0
        } else {
            percentile(&rtts, 50.0) as f64 / 1e3
        }
    };
    segment(rounds / 2);
    let per: Vec<f64> = (0..SEGMENTS).map(|_| segment(rounds)).collect();
    let _ = a.send(dst, Bytes::new());
    echo.join().expect("echo thread");
    Summary::median_of(&per, (rounds * SEGMENTS) as u64)
}

/// One-way stream of 64-byte datagrams over a TCP pair: messages per
/// second from the first send until the receiver has them all.
pub fn stream_msgs_per_s(pair: &Pair, per_segment: usize) -> Summary {
    let (a, b) = pair;
    let (done_tx, done_rx) = mpsc::channel();
    let sink = {
        let b = Arc::clone(b);
        std::thread::spawn(move || {
            let mut got = 0usize;
            while let Ok(d) = b.recv_timeout(PROBE_WAIT) {
                if d.payload.is_empty() {
                    break;
                }
                got += 1;
                if got.is_multiple_of(per_segment) && done_tx.send(()).is_err() {
                    break;
                }
            }
        })
    };
    let payload = Bytes::from(vec![0x42; 64]);
    let dst = b.local_index();
    let segment = || {
        let t = Instant::now();
        for _ in 0..per_segment {
            let _ = a.send(dst, payload.clone());
        }
        match done_rx.recv_timeout(PROBE_WAIT) {
            Ok(()) => per_segment as f64 / t.elapsed().as_secs_f64(),
            Err(_) => 0.0,
        }
    };
    segment();
    let per: Vec<f64> = (0..SEGMENTS).map(|_| segment()).collect();
    let _ = a.send(dst, Bytes::new());
    sink.join().expect("sink thread");
    Summary::median_of(&per, (per_segment * SEGMENTS) as u64)
}

// --- naming ----------------------------------------------------------------

/// `HashRing::owner_of` on the workload's chunk ids, ns per lookup.
pub fn ring_owner_ns(ids: &[CompletId]) -> Summary {
    let ring = HashRing::new(&[0, 1, 2], 16);
    batch_ns(20_000, |i| {
        black_box(ring.owner_of(ids[i as usize % ids.len()]));
    })
}

/// `LocationShard::apply` of a newer epoch for a known id, ns per apply.
pub fn shard_apply_ns(ids: &[CompletId]) -> Summary {
    let shard = LocationShard::new();
    batch_ns(20_000, |i| {
        let update = ShardEntry {
            node: (i % 3) as u32,
            epoch: i + 1,
            alive: true,
        };
        black_box(shard.apply(ids[i as usize % ids.len()], update));
    })
}

// --- telemetry -------------------------------------------------------------

/// Building and appending one journal event, as the invoke path does.
pub fn journal_append_ns() -> Summary {
    let journal = Journal::new(4_096);
    batch_ns(20_000, |i| {
        black_box(journal.append(JournalEvent {
            hlc: Hlc {
                wall_us: i,
                logical: 0,
            },
            core: 0,
            seq: 0,
            kind: JournalKind::Invoke,
            subject: format!("c1.{}", i % 64),
            object: "get".to_owned(),
            detail: "c0.0".to_owned(),
            peer: None,
        }));
    })
}

pub fn histogram_observe_ns() -> Summary {
    let histogram =
        Registry::new().histogram("probe_latency_us", &[("core", "probe")], BUCKETS_LATENCY_US);
    batch_ns(100_000, |i| histogram.observe(i % 5_000))
}

// --- core ------------------------------------------------------------------

/// Blocking `get` on a chunk hosted on the caller's own Core, ns per
/// call. `records` is the chunk's population.
pub fn local_call_ns(core: &Core, records: Vec<Value>) -> Result<Summary, FargoError> {
    let per = records.len() as u64;
    let chunk = core.new_complet_at(core.name(), "KvChunk", &[Value::List(records)])?;
    let mut failed = None;
    let summary = batch_ns(4_000, |i| {
        if let Err(e) = chunk.call("get", &[Value::I64((i % per) as i64)]) {
            failed = Some(e);
        }
    });
    failed.map_or(Ok(summary), Err)
}

// --- disk ------------------------------------------------------------------

/// The machine's own cost of making `bytes` appended bytes durable in
/// `dir` (`sync_data` after each append), p50 µs — so that disk noise
/// can be told from program cost.
pub fn disk_fsync_us(dir: &Path, bytes: usize) -> std::io::Result<Summary> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path)?;
    let block = vec![0x77u8; bytes.max(1)];
    let mut segment = |rounds: usize| -> std::io::Result<f64> {
        let mut times = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            file.write_all(&block)?;
            file.sync_data()?;
            times.push(t.elapsed().as_nanos() as u64);
        }
        times.sort_unstable();
        Ok(percentile(&times, 50.0) as f64 / 1e3)
    };
    segment(20)?;
    let per = (0..SEGMENTS)
        .map(|_| segment(40))
        .collect::<std::io::Result<Vec<f64>>>()?;
    let _ = std::fs::remove_file(&path);
    Ok(Summary::median_of(&per, 40 * SEGMENTS as u64))
}
