//! Micro-benchmarks for the hot paths underneath the experiment suite:
//! the wire codec, reference traversal/degrade, the local invocation
//! path, marshal, movement, and script parsing.
//!
//! Plain self-timing harness (no external bench framework): each case is
//! warmed up, then timed over enough iterations to smooth scheduler noise,
//! and reported as ns/op on stdout.

use std::time::Instant;

use fargo_core::{CompletId, RefDescriptor, Value};
use fargo_wire::{decode_value, encode_value};

/// Times `f` and prints mean ns/op for the named case.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm-up: let caches and lazy init settle.
    for _ in 0..50 {
        f();
    }
    // Calibrate iteration count towards ~50ms of work.
    let probe = Instant::now();
    for _ in 0..50 {
        f();
    }
    let per_op = probe.elapsed().as_nanos().max(1) / 50;
    let iters = (50_000_000 / per_op).clamp(20, 1_000_000) as u64;

    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<40} {ns_per_op:>12.0} ns/op   ({iters} iters)");
}

fn sample_state(refs: usize) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("text".to_owned(), Value::from("the quick brown fox")),
        ("count".to_owned(), Value::I64(42)),
        ("blob".to_owned(), Value::Bytes(vec![7u8; 512])),
    ];
    for i in 0..refs {
        fields.push((
            format!("ref{i}"),
            Value::from(RefDescriptor::link(
                CompletId::new(1, i as u64),
                "Servant",
                2,
            )),
        ));
    }
    Value::map(fields)
}

fn bench_wire() {
    for refs in [0usize, 8] {
        let v = sample_state(refs);
        let bytes = encode_value(&v);
        bench(&format!("wire/encode/{refs}"), || {
            std::hint::black_box(encode_value(std::hint::black_box(&v)));
        });
        bench(&format!("wire/decode/{refs}"), || {
            std::hint::black_box(decode_value(std::hint::black_box(&bytes)).unwrap());
        });
    }
}

fn bench_record_batch() {
    // 256 records of the standing benchmark's `graph-simnet` shape (one
    // `scan` reply), decoded as a Core holds it: equal keys share one
    // allocation, short strings live in their nodes. What a Core that
    // uses the graph pays (build, copy, send on) and, last, the walk
    // only the `completSize` service still makes.
    let bytes = encode_value(&Value::List(fargo_wire::testgen::graph_records(256, 0)));
    let v = decode_value(&bytes).unwrap();
    bench("value/clone/records256", || {
        std::hint::black_box(std::hint::black_box(&v).clone());
    });
    bench("wire/encode/records256", || {
        std::hint::black_box(encode_value(std::hint::black_box(&v)));
    });
    bench("value/decode/records256", || {
        std::hint::black_box(decode_value(std::hint::black_box(&bytes)).unwrap());
    });
    bench("value/deep_size/records256", || {
        std::hint::black_box(std::hint::black_box(&v).deep_size());
    });
}

fn bench_value_ops() {
    let v = sample_state(16);
    bench("value/collect_refs/16", || {
        std::hint::black_box(std::hint::black_box(&v).collect_refs());
    });
    bench("value/degrade_transform/16", || {
        std::hint::black_box(std::hint::black_box(v.clone()).transform_refs(&mut |r| r.degraded()));
    });
    bench("value/deep_size", || {
        std::hint::black_box(std::hint::black_box(&v).deep_size());
    });
}

fn bench_invocation() {
    use fargo_bench::Cluster;
    let cluster = Cluster::instant(2);
    let local = cluster.cores[0].new_complet("Servant", &[]).unwrap();
    let remote = cluster.cores[0]
        .new_complet_at("core1", "Servant", &[])
        .unwrap();
    remote.call("touch", &[]).unwrap();

    bench("invocation/local_stub", || {
        local.call("touch", &[]).unwrap();
    });
    bench("invocation/remote_instant_link", || {
        remote.call("touch", &[]).unwrap();
    });
}

fn bench_movement() {
    use fargo_bench::Cluster;
    let cluster = Cluster::instant(2);
    let servant = cluster.cores[0].new_complet("Servant", &[]).unwrap();
    let mut at_zero = false;
    bench("movement/pingpong_move", || {
        let dest = if at_zero { "core1" } else { "core0" };
        at_zero = !at_zero;
        servant.move_to(dest).unwrap();
    });
}

fn bench_script() {
    const SRC: &str = r#"
$coreList = %1
$targetCore = %2
$comps = %3
on shutdown firedby $core listenAt $coreList do
  move completsIn $core to $targetCore
end
on methodInvokeRate(3) from $comps[0] to $comps[1] do
  move $comps[0] to coreOf $comps[1]
end
"#;
    bench("script/parse_paper_example", || {
        std::hint::black_box(fargo_script::parse(std::hint::black_box(SRC)).unwrap());
    });
}

fn main() {
    println!("fargo micro-benchmarks (mean over calibrated iteration counts)");
    bench_wire();
    bench_record_batch();
    bench_value_ops();
    bench_invocation();
    bench_movement();
    bench_script();
}
