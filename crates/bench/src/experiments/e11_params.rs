//! E11 — By-value parameter passing (§3.1).
//!
//! Parameters always cross complet boundaries by value (except anchors).
//! We measure the cost of shipping argument graphs of growing size and
//! differing shape across a LAN link, and confirm that reference-bearing
//! graphs keep their references (degraded to `link`) without copying the
//! referenced complets.

use std::time::Duration;

use fargo_core::Value;
use simnet::LinkConfig;

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{fmt_duration, payload_of, Samples};

pub fn run(full: bool) -> Table {
    let reps = if full { 50 } else { 15 };
    let mut table = Table::new(
        "E11: by-value argument graphs over a LAN link (0.5ms, 100MB/s)",
        &["argument shape", "encoded bytes", "mean call latency"],
    )
    .with_note("shape: latency is flat until the graph's serialisation cost passes the link latency, then scales with bytes.");

    let shapes: Vec<(&str, Value)> = vec![
        ("null", Value::Null),
        ("flat 1KB bytes", payload_of(1_000)),
        ("flat 100KB bytes", payload_of(100_000)),
        ("flat 1MB bytes", payload_of(1_000_000)),
        ("deep list (1k ints)", deep_list(1_000)),
        ("map tree (3 levels)", map_tree(3, 8)),
    ];
    for (name, arg) in shapes {
        let bytes = fargo_wire::encode_value(&arg).len();
        let lat = call_with(reps, arg);
        table.row([name.to_owned(), bytes.to_string(), fmt_duration(lat)]);
    }
    table
}

fn deep_list(n: usize) -> Value {
    Value::List((0..n as i64).map(Value::I64).collect())
}

fn map_tree(depth: usize, width: usize) -> Value {
    if depth == 0 {
        return Value::I64(7);
    }
    Value::map((0..width).map(|i| (format!("k{i}"), map_tree(depth - 1, width))))
}

fn call_with(reps: usize, arg: Value) -> Duration {
    let cluster = ClusterSpec::instant(2)
        .link(LinkConfig::new(Duration::from_micros(500)).with_bandwidth(100_000_000))
        .build();
    let servant = cluster.cores[0]
        .new_complet_at("core1", "Servant", &[])
        .expect("servant");
    servant.call("get", &[Value::Null]).expect("warm");
    let samples = Samples::collect(reps, || {
        servant
            .call("get", std::slice::from_ref(&arg))
            .expect("call");
    });
    samples.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_graphs_cost_more() {
        let small = call_with(5, payload_of(100));
        let big = call_with(5, payload_of(2_000_000));
        assert!(big > small, "{big:?} must exceed {small:?}");
    }

    #[test]
    fn echoed_graphs_round_trip_equal() {
        let cluster = ClusterSpec::instant(2).build();
        let servant = cluster.cores[0]
            .new_complet_at("core1", "Servant", &[])
            .unwrap();
        let arg = map_tree(2, 4);
        assert_eq!(
            servant.call("get", std::slice::from_ref(&arg)).unwrap(),
            arg
        );
    }
}
