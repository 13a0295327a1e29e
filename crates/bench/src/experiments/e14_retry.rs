//! E14 — reliability overhead and loss recovery.
//!
//! The reliable messaging layer (request retransmission with capped
//! exponential backoff plus a receiver-side reply-dedup cache) must be
//! effectively free when no messages are lost: on the loss-free path it
//! adds one cache insert/lookup per non-idempotent request. This
//! experiment measures that cost by comparing the default configuration
//! against `CoreConfig::single_shot()` (the historical no-retry,
//! no-dedup behaviour) on an otherwise identical 2-Core cluster, then
//! sweeps message loss to show the layer actually earns its keep:
//! every remote invocation still completes, paying only retransmits.

use std::time::Duration;

use fargo_core::Value;
use simnet::LinkConfig;

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{fmt_duration, Samples};

pub fn run(full: bool) -> Table {
    let n = if full { 20_000 } else { 5_000 };
    let (reliable, _) = remote_invoke_mean(n, false);
    let (single, _) = remote_invoke_mean(n, true);
    let overhead = reliable.saturating_sub(single);

    let mut table = Table::new(
        "E14: reliable-messaging overhead (loss-free) and loss recovery",
        &["configuration", "result", "notes"],
    )
    .with_note(
        "guardrail: dedup bookkeeping must stay under ~1us per loss-free remote invoke; under loss, retries keep success at 100%.",
    );
    table.row([
        "retries + dedup".to_owned(),
        fmt_duration(reliable),
        "mean remote invoke, instant link".to_owned(),
    ]);
    table.row([
        "single-shot".to_owned(),
        fmt_duration(single),
        "ablation baseline".to_owned(),
    ]);
    table.row([
        "overhead per call".to_owned(),
        fmt_duration(overhead),
        "reliable - single-shot".to_owned(),
    ]);

    let losses: &[f64] = if full {
        &[0.05, 0.1, 0.3, 0.5]
    } else {
        &[0.1, 0.3]
    };
    let calls = if full { 300 } else { 120 };
    for &loss in losses {
        let (ok, retransmits) = lossy_run(loss, calls);
        table.row([
            format!("loss {:.0}%", loss * 100.0),
            format!("{ok}/{calls} calls ok"),
            format!("{retransmits} retransmits"),
        ]);
    }
    table
}

/// Mean remote-call latency over an instant (loss-free) link, plus the
/// retransmit count afterwards (must stay 0 here).
fn remote_invoke_mean(n: usize, single_shot: bool) -> (Duration, u64) {
    let cluster = ClusterSpec::instant(2).single_shot(single_shot).build();
    let servant = cluster.cores[0]
        .new_complet_at("core1", "Servant", &[])
        .expect("servant");
    servant.call("touch", &[]).expect("warm");
    let samples = Samples::collect(n, || {
        servant.call("touch", &[Value::Null]).expect("call");
    });
    (samples.mean(), cluster.cores[0].reliability_stats().0)
}

/// `calls` remote invocations over a link dropping `loss` of messages
/// with retries on; returns (successes, retransmits sent by core0).
/// A deep retransmission budget (24, vs the default 6) pushes the
/// per-call failure odds below 1e-3 even at 50% loss, so the sweep
/// demonstrates full recovery rather than the default budget's edge.
fn lossy_run(loss: f64, calls: usize) -> (usize, u64) {
    let cluster = ClusterSpec::instant(2)
        .link(LinkConfig::instant().with_loss(loss))
        .rpc_retries(24)
        .build();
    let servant = cluster.cores[0]
        .new_complet_at("core1", "Servant", &[])
        .expect("servant");
    let ok = (0..calls)
        .filter(|_| servant.call("touch", &[Value::Null]).is_ok())
        .count();
    (ok, cluster.cores[0].reliability_stats().0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_overhead_is_bounded() {
        // In a release run the dedup insert + complete is well under 1us
        // per call (EXPERIMENTS.md E14). Debug builds under a parallel
        // test load are far noisier, so like E10 this asserts the
        // relative shape (no lock convoy or O(n) scan on the reply
        // path), best-of-3.
        let mut last = (Duration::MAX, Duration::ZERO);
        for _ in 0..3 {
            let (on, retransmits) = remote_invoke_mean(2_000, false);
            let (off, _) = remote_invoke_mean(2_000, true);
            assert_eq!(retransmits, 0, "no retries on a loss-free link");
            last = (on, off);
            if on < off.mul_f64(2.0) + Duration::from_micros(5) {
                return;
            }
        }
        panic!(
            "reliable {:?} vs single-shot {:?}: overhead out of bounds",
            last.0, last.1
        );
    }

    #[test]
    fn retries_recover_every_call_under_loss() {
        let calls = 40;
        let (ok, retransmits) = lossy_run(0.3, calls);
        assert_eq!(ok, calls, "every invocation must eventually complete");
        assert!(retransmits > 0, "30% loss must force retransmissions");
    }
}
