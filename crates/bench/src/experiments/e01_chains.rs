//! E1 — Invocation latency vs tracker-chain length (Figure 2, §3.1).
//!
//! A complet born on `core0` wanders through `k` further Cores, leaving a
//! forwarding chain behind. The first invocation from `core0` walks the
//! whole chain; its reply repoints every tracker (chain shortening), so
//! the second invocation goes direct. (That lookups stay flat in chain
//! length once the location shards are on is E22's standing guardrail.)

use std::time::Duration;

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{time_once, Samples};

const HOP_LATENCY: Duration = Duration::from_millis(2);

pub fn run(full: bool) -> Table {
    let ks: &[usize] = if full {
        &[0, 1, 2, 4, 8, 16]
    } else {
        &[0, 1, 2, 4, 8]
    };
    let mut table = Table::new(
        "E1: invocation latency vs chain length (2ms/hop links)",
        &["hops k", "chain 1st call", "chain 2nd call"],
    )
    .with_note(
        "shape: first chained call grows linearly with k; shortened \
         calls stay flat (one round trip).",
    );

    for &k in ks {
        let (first, second) = chain_run(k);
        table.row([
            k.to_string(),
            crate::workload::fmt_duration(first),
            crate::workload::fmt_duration(second),
        ]);
    }
    table
}

/// Builds a k-hop wanderer and times the first and second invocation from
/// the origin Core.
fn chain_run(k: usize) -> (Duration, Duration) {
    // Naming off: E1 is the paper-faithful chains ablation; shard
    // lookups would flatten the chain walk being measured (E22
    // measures that effect deliberately).
    let cluster = ClusterSpec::with_latency(k + 1, HOP_LATENCY)
        .config_tweak(|c| c.with_naming_shards(false))
        .build();
    let servant = cluster.cores[0]
        .new_complet("Servant", &[])
        .expect("create");
    for i in 1..=k {
        servant.move_to(&format!("core{i}")).expect("move");
    }

    let (_, first) = time_once(|| servant.call("touch", &[]).expect("first call"));
    // Average a few shortened calls for a stable second-call figure.
    let samples = Samples::collect(5, || {
        servant.call("touch", &[]).expect("second call");
    });
    (first, samples.mean())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_walk_grows_and_shortening_flattens() {
        let (first_long, second_long) = chain_run(4);
        let (first_short, _) = chain_run(1);
        // 4 hops must cost measurably more than 1 hop on the first call…
        assert!(
            first_long > first_short,
            "chain walk should grow with k: {first_long:?} vs {first_short:?}"
        );
        // …and shortening must beat the chained first call.
        assert!(
            second_long < first_long,
            "shortened call {second_long:?} must beat chained {first_long:?}"
        );
    }

    #[test]
    fn quick_table_has_all_rows() {
        let t = run(false);
        assert_eq!(t.len(), 5);
    }
}
