//! E4 — Co-movement in one message (§3.3).
//!
//! "All complets that should move as a result of the same movement
//! request are part of the same stream, thus only a single inter-Core
//! message is involved." We move a pull-closure of `k` complets and
//! compare messages and wall time against `k` independent moves.

use std::time::Duration;

use fargo_core::Value;

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{fmt_duration, time_once};

pub fn run(full: bool) -> Table {
    let ks: &[usize] = if full {
        &[1, 2, 4, 8, 16, 32]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let mut table = Table::new(
        "E4: pull-closure co-movement vs independent moves (2ms links)",
        &["closure k", "co-move time", "co-move msgs", "indep time", "indep msgs"],
    )
    .with_note("shape: co-movement stays at one data message (plus a constant-size commit) and ~1 RTT; independent moves grow linearly in k.");

    for &k in ks {
        let (co_t, co_m) = comove_run(k);
        let (ind_t, ind_m) = independent_run(k);
        table.row([
            k.to_string(),
            fmt_duration(co_t),
            co_m.to_string(),
            fmt_duration(ind_t),
            ind_m.to_string(),
        ]);
    }
    table
}

/// Root holder pulls a star of k dependants; one move request.
fn comove_run(k: usize) -> (Duration, u64) {
    // Naming off: constant-size shard publishes would skew the raw
    // message counts this experiment reports.
    let cluster = ClusterSpec::with_latency(2, Duration::from_millis(2))
        .config_tweak(|c| c.with_naming_shards(false))
        .build();
    let root = cluster.cores[0].new_complet("Holder", &[]).expect("root");
    for _ in 0..k {
        let dep = cluster.cores[0].new_complet("Servant", &[]).expect("dep");
        root.call("add_dep", &[Value::from(dep.complet_ref().descriptor())])
            .expect("wire");
    }
    root.call("retype_all", &[Value::from("pull")])
        .expect("retype");
    let before = cluster.messages(0, 1);
    let (_, t) = time_once(|| root.move_to("core1").expect("move"));
    assert!(cluster.cores[1].complet_count() > k, "closure arrived");
    (t, cluster.messages(0, 1) - before)
}

/// k + 1 unrelated complets moved one by one.
fn independent_run(k: usize) -> (Duration, u64) {
    // Naming off: constant-size shard publishes would skew the raw
    // message counts this experiment reports.
    let cluster = ClusterSpec::with_latency(2, Duration::from_millis(2))
        .config_tweak(|c| c.with_naming_shards(false))
        .build();
    let complets: Vec<_> = (0..=k)
        .map(|_| {
            cluster.cores[0]
                .new_complet("Servant", &[])
                .expect("create")
        })
        .collect();
    let before = cluster.messages(0, 1);
    let (_, t) = time_once(|| {
        for c in &complets {
            c.move_to("core1").expect("move");
        }
    });
    (t, cluster.messages(0, 1) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comove_is_one_data_message() {
        // Two-phase transfer: the whole closure travels in the single
        // MovePrepare; MoveCommit is a constant-size control message.
        // What matters is that the count is independent of closure size.
        let (_, msgs) = comove_run(8);
        assert_eq!(msgs, 2, "the whole closure travels in one data message");
        let (_, msgs_large) = comove_run(16);
        assert_eq!(msgs_large, msgs, "message count independent of k");
    }

    #[test]
    fn independent_moves_cost_k_messages() {
        let (_, msgs) = independent_run(4);
        assert_eq!(msgs, 10, "five complets, five two-round move transfers");
    }

    #[test]
    fn comove_beats_independent_wall_time() {
        let (co, _) = comove_run(8);
        let (ind, _) = independent_run(8);
        assert!(co < ind, "co-move {co:?} must beat sequential {ind:?}");
    }
}
