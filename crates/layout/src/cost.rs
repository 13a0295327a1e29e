//! The per-link traffic cost model.
//!
//! One unit of affinity (roughly: one invocation per journal window)
//! between complets on Cores `a` and `b` costs `pair_cost(a, b)`; the
//! partitioner minimises the weighted sum. Costs are calibrated from the
//! links the Cores actually run on, as their directory reports them
//! ([`Core::link`](fargo_core::Core::link)):
//!
//! * **latency** — the *measured* one-way delivery delay when the
//!   Cores' envelope timing stamps have produced enough samples on the
//!   link (queueing and jitter included), falling back to the
//!   configured propagation delay while the link is quiet — the
//!   dominant term for request/reply traffic;
//! * **bandwidth** — serialisation time of a typical envelope, so thin
//!   pipes price higher than fat ones at equal latency;
//! * **observed loss** — each drop costs a retransmission round, so a
//!   lossy link multiplies the expected per-message cost by the expected
//!   number of attempts `1 / (1 - loss)`.
//!
//! Co-located traffic costs zero: the Core short-circuits local
//! invocations without touching the network.

use std::collections::BTreeMap;

use fargo_core::LinkView;

/// Assumed payload of a typical invocation envelope when converting
/// bandwidth to a per-message serialisation cost.
const TYPICAL_MSG_BYTES: f64 = 512.0;

/// Loss is clamped below 1 so the expected-attempts factor stays finite.
const MAX_LOSS: f64 = 0.95;

/// Samples a link needs before its observed (loss, latency) statistics
/// outrank the configured model.
const MIN_OBSERVED_SAMPLES: u64 = 20;

/// Symmetric per-Core-pair traffic costs in microseconds per unit of
/// affinity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostModel {
    cores: Vec<u32>,
    pair: BTreeMap<(u32, u32), f64>,
}

fn canonical(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl CostModel {
    /// A model where every distinct pair costs 1, the floor an instant,
    /// lossless link prices at — useful for tests and as a
    /// topology-blind fallback.
    pub fn uniform(cores: &[u32]) -> CostModel {
        CostModel::from_links(cores, |_, _| LinkView::default())
    }

    /// Calibrates the model from the directed links between `cores` (node
    /// indices of live Cores) as `link(src, dst)` reports them, averaging
    /// the two directions: invocation traffic is request/reply.
    pub fn from_links(cores: &[u32], link: impl Fn(u32, u32) -> LinkView) -> CostModel {
        let mut pair = BTreeMap::new();
        for (i, &a) in cores.iter().enumerate() {
            for &b in &cores[i + 1..] {
                let cost = (directed_cost(&link(a, b)) + directed_cost(&link(b, a))) / 2.0;
                pair.insert(canonical(a, b), cost);
            }
        }
        CostModel {
            cores: cores.to_vec(),
            pair,
        }
    }

    /// The node indices this model covers.
    pub fn cores(&self) -> &[u32] {
        &self.cores
    }

    /// Cost of one unit of affinity between Cores `a` and `b`
    /// (0 when co-located or unknown).
    pub fn pair_cost(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        self.pair.get(&canonical(a, b)).copied().unwrap_or(0.0)
    }
}

/// Expected per-message cost of a directed link in microseconds:
/// (latency + serialisation) × expected attempts.
fn directed_cost(link: &LinkView) -> f64 {
    let (stats, model) = (&link.stats, link.model.as_ref());
    // Prefer the latency the Cores actually measured on the link (from
    // envelope timing stamps: propagation + queueing + jitter as the
    // application experienced them); fall back to the configured
    // propagation model while too few envelopes have crossed.
    let latency_us = match stats.observed_latency_us {
        Some(measured) if stats.observed_samples >= MIN_OBSERVED_SAMPLES => measured,
        _ => link.model_latency.map_or(0.0, |d| d.as_secs_f64() * 1e6),
    };
    let bandwidth = model.and_then(|m| m.bandwidth);
    let ser_us = bandwidth.map_or(0.0, |bytes_per_sec| {
        TYPICAL_MSG_BYTES / bytes_per_sec as f64 * 1e6
    });
    // Prefer the loss actually observed on the link; fall back to the
    // configured probability while the link is still quiet.
    let sent = stats.messages + stats.dropped;
    let loss = if sent >= 20 {
        stats.dropped as f64 / sent as f64
    } else {
        model.map_or(0.0, |m| m.loss)
    };
    let attempts = 1.0 / (1.0 - loss.clamp(0.0, MAX_LOSS));
    // Even an instant, lossless link prices remote above local: the
    // envelope still pays marshalling and a scheduler hop.
    ((latency_us + ser_us) * attempts).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fargo_core::{LinkConfig, LinkStats};
    use std::time::Duration;

    /// A link configured as `model` that nothing has crossed yet.
    fn configured(model: LinkConfig) -> LinkView {
        LinkView {
            stats: LinkStats::default(),
            model_latency: Some(model.latency),
            model: Some(model),
        }
    }

    #[test]
    fn uniform_prices_all_distinct_pairs_equally() {
        let m = CostModel::uniform(&[0, 1, 2]);
        assert_eq!(m.pair_cost(0, 1), 1.0);
        assert_eq!(m.pair_cost(2, 0), 1.0);
        assert_eq!(m.pair_cost(1, 1), 0.0, "co-located traffic is free");
    }

    #[test]
    fn latency_dominates_calibration() {
        // 2ms everywhere but the 0-2 link, at 8ms.
        let m = CostModel::from_links(&[0, 1, 2], |a, b| {
            let ms = if canonical(a, b) == (0, 2) { 8 } else { 2 };
            configured(LinkConfig::new(Duration::from_millis(ms)))
        });
        assert!(
            m.pair_cost(0, 2) > 3.0 * m.pair_cost(0, 1),
            "8ms link must price well above 2ms: {} vs {}",
            m.pair_cost(0, 2),
            m.pair_cost(0, 1)
        );
    }

    #[test]
    fn configured_loss_raises_cost_before_traffic_flows() {
        // 1ms everywhere; the 0-2 link loses half its packets.
        let m = CostModel::from_links(&[0, 1, 2], |a, b| {
            let link = LinkConfig::new(Duration::from_millis(1));
            let loss = if canonical(a, b) == (0, 2) { 0.5 } else { 0.0 };
            configured(link.with_loss(loss))
        });
        assert!(
            m.pair_cost(0, 2) > 1.5 * m.pair_cost(0, 1),
            "50% loss must roughly double the expected cost"
        );
    }

    #[test]
    fn observed_latency_overrides_the_configured_model() {
        // A link configured as 1ms that the Cores measured at ~8ms
        // (queueing the model cannot see) must price like 8ms once
        // enough samples have been fed back.
        let m = CostModel::from_links(&[0, 1, 2], |a, b| {
            let mut link = configured(LinkConfig::new(Duration::from_millis(1)));
            if canonical(a, b) == (0, 1) {
                link.stats.observed_samples = MIN_OBSERVED_SAMPLES;
                link.stats.observed_latency_us = Some(8_000.0);
            }
            link
        });
        assert!(
            m.pair_cost(0, 1) > 4.0 * m.pair_cost(0, 2),
            "measured 8ms must dominate configured 1ms: {} vs {}",
            m.pair_cost(0, 1),
            m.pair_cost(0, 2)
        );
    }

    #[test]
    fn sparse_observations_keep_the_configured_model() {
        // A couple of outliers must not recalibrate the link.
        let m = CostModel::from_links(&[0, 1, 2], |a, b| {
            let mut link = configured(LinkConfig::new(Duration::from_millis(1)));
            if (a, b) == (0, 1) {
                link.stats.observed_samples = 1;
                link.stats.observed_latency_us = Some(500_000.0);
            }
            link
        });
        let ratio = m.pair_cost(0, 1) / m.pair_cost(0, 2);
        assert!(
            (0.5..2.0).contains(&ratio),
            "under-sampled link must stay on the model: ratio {ratio}"
        );
    }

    #[test]
    fn instant_links_still_price_remote_above_local() {
        let m = CostModel::from_links(&[0, 1], |_, _| configured(LinkConfig::lan()));
        assert!(m.pair_cost(0, 1) >= 1.0);
        assert_eq!(m.pair_cost(0, 0), 0.0);
    }
}
