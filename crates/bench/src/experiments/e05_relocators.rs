//! E5 — Relocator semantics cost (§2, §3.3).
//!
//! For each built-in reference type we move a holder whose dependency
//! carries that relocator, then measure: move latency, bytes shipped,
//! where the dependency ended up, and the post-move latency of calling it
//! through the reference.

use std::time::Duration;

use fargo_core::Value;

use crate::harness::{Cluster, ClusterSpec};
use crate::table::Table;
use crate::workload::{fmt_duration, payload_of, time_once, Samples};

const DEP_STATE_BYTES: usize = 50_000;

pub fn run(_full: bool) -> Table {
    let mut table = Table::new(
        "E5: relocator comparison (dependency carries 50KB of state; 2ms links)",
        &[
            "relocator",
            "move time",
            "wire bytes",
            "dep ends up",
            "post-move call",
        ],
    )
    .with_note(
        "shape: pull/duplicate ship the dependency (bytes and time up, later calls local); \
         link/stamp ship only the holder (cheap move, link pays WAN per call).",
    );

    for relocator in ["link", "pull", "duplicate", "stamp"] {
        let r = relocator_run(relocator);
        table.row([
            relocator.to_owned(),
            fmt_duration(r.move_time),
            r.wire_bytes.to_string(),
            r.dep_location,
            fmt_duration(r.post_call),
        ]);
    }
    table
}

struct RelocatorResult {
    move_time: Duration,
    wire_bytes: u64,
    dep_location: String,
    post_call: Duration,
}

fn relocator_run(relocator: &str) -> RelocatorResult {
    let cluster = ClusterSpec::with_latency(2, Duration::from_millis(2)).build();
    // For stamp: an equivalent-typed complet already waits at core1.
    let _station = cluster.cores[1]
        .new_complet("Servant", &[])
        .expect("station");

    let dep = cluster.cores[0].new_complet("Servant", &[]).expect("dep");
    dep.call("set_payload", &[payload_of(DEP_STATE_BYTES)])
        .expect("payload");
    let holder = cluster.cores[0].new_complet("Holder", &[]).expect("holder");
    holder
        .call("add_dep", &[Value::from(dep.complet_ref().descriptor())])
        .expect("wire");
    holder
        .call("retype_all", &[Value::from(relocator)])
        .expect("retype");

    let before = cluster.bytes(0, 1);
    let (_, move_time) = time_once(|| holder.move_to("core1").expect("move"));
    let wire_bytes = cluster.bytes(0, 1) - before;

    let dep_location = dep_location(&cluster, &holder, &dep);
    let samples = Samples::collect(5, || {
        holder
            .call("call_dep", &[Value::I64(0)])
            .expect("post call");
    });

    RelocatorResult {
        move_time,
        wire_bytes,
        dep_location,
        post_call: samples.mean(),
    }
}

fn dep_location(
    cluster: &Cluster,
    holder: &fargo_core::BoundRef,
    dep: &fargo_core::BoundRef,
) -> String {
    // Where does the holder's reference point now, and where is the
    // original?
    let bound_id = holder
        .call("dep_id", &[Value::I64(0)])
        .expect("dep id")
        .as_str()
        .map(str::to_owned)
        .unwrap_or_default();
    let orig_here = cluster.cores[0].hosts(dep.id());
    let rebound = bound_id != dep.id().to_string();
    match (rebound, orig_here, cluster.cores[1].hosts(dep.id())) {
        (false, false, true) => "moved to core1".to_owned(),
        (false, true, false) => "stays at core0".to_owned(),
        (true, true, _) => format!("re-bound ({bound_id}), original stays"),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_reflect_what_travels() {
        let link = relocator_run("link");
        let pull = relocator_run("pull");
        assert!(
            pull.wire_bytes > link.wire_bytes + (DEP_STATE_BYTES / 2) as u64,
            "pull ships the dependency: {} vs {}",
            pull.wire_bytes,
            link.wire_bytes
        );
    }

    #[test]
    fn post_move_latency_shape() {
        let link = relocator_run("link");
        let pull = relocator_run("pull");
        // After a pull, calls are local; after a link move they cross the
        // network.
        assert!(
            pull.post_call < link.post_call,
            "pull post-move {:?} must beat link {:?}",
            pull.post_call,
            link.post_call
        );
    }

    #[test]
    fn table_has_all_relocators() {
        let t = run(false);
        assert_eq!(t.len(), 4);
    }
}
