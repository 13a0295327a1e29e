//! Cluster setup shared by all experiments.

use std::time::Duration;

use fargo_core::{Core, CoreConfig, TelemetryRegistry};
use fargo_telemetry::render_snapshots_json;
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::workload::bench_registry;

/// What kind of cluster an experiment wants.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of Cores.
    pub cores: usize,
    /// Link applied between every pair.
    pub link: LinkConfig,
    /// Scale factor applied to all link delays.
    pub time_scale: f64,
    /// Monitor tick (drives profiling resolution).
    pub monitor_tick: Duration,
    /// Whether Cores record spans for cross-Core tracing.
    pub trace_enabled: bool,
    /// When true, Cores run with the historical single-shot messaging
    /// behaviour (no retransmission, no reply dedup) — the E14 baseline.
    pub single_shot: bool,
    /// Retransmission budget override (None keeps the config default).
    pub rpc_retries: Option<u32>,
    /// Simnet RNG seed override (None keeps the network default), so
    /// experiments can sweep loss/jitter schedules deterministically.
    pub seed: Option<u64>,
    /// Final say over the Core configuration, applied after every other
    /// knob (a plain fn keeps the spec `Clone` + `Debug`).
    pub tweak: Option<fn(CoreConfig) -> CoreConfig>,
}

impl ClusterSpec {
    /// `n` Cores with effectively instantaneous links.
    pub fn instant(n: usize) -> Self {
        ClusterSpec {
            cores: n,
            link: LinkConfig::instant(),
            time_scale: 1.0,
            monitor_tick: Duration::from_millis(10),
            trace_enabled: true,
            single_shot: false,
            rpc_retries: None,
            seed: None,
            tweak: None,
        }
    }

    /// `n` Cores joined by links of the given one-way latency.
    pub fn with_latency(n: usize, latency: Duration) -> Self {
        ClusterSpec {
            link: LinkConfig::new(latency),
            ..ClusterSpec::instant(n)
        }
    }

    /// Replaces the link model.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Turns span recording on or off (metrics stay on either way).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.trace_enabled = enabled;
        self
    }

    /// Switches to single-shot messaging (no retransmission or dedup).
    pub fn single_shot(mut self, enabled: bool) -> Self {
        self.single_shot = enabled;
        self
    }

    /// Overrides the retransmission budget (lossy-sweep experiments).
    pub fn rpc_retries(mut self, retries: u32) -> Self {
        self.rpc_retries = Some(retries);
        self
    }

    /// Overrides the simnet RNG seed (loss/jitter schedule).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Applies an arbitrary last-word transformation to the Core
    /// configuration (e.g. autolayout cadence for the planner runs).
    pub fn config_tweak(mut self, tweak: fn(CoreConfig) -> CoreConfig) -> Self {
        self.tweak = Some(tweak);
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> Cluster {
        let mut net_config = NetworkConfig {
            default_link: Some(self.link),
            time_scale: self.time_scale,
            ..NetworkConfig::default()
        };
        if let Some(seed) = self.seed {
            net_config.seed = seed;
        }
        let net = Network::new(net_config);
        let registry = bench_registry();
        let telemetry = TelemetryRegistry::new();
        let mut config = CoreConfig {
            monitor_tick: self.monitor_tick,
            rpc_timeout: Duration::from_secs(30),
            ..CoreConfig::default()
        }
        .with_tracing(self.trace_enabled);
        if self.single_shot {
            config = config.single_shot();
        }
        if let Some(retries) = self.rpc_retries {
            config = config.with_rpc_retries(retries);
        }
        if let Some(tweak) = self.tweak {
            config = tweak(config);
        }
        let cores = (0..self.cores)
            .map(|i| {
                Core::builder(&net, &format!("core{i}"))
                    .registry(&registry)
                    .config(config.clone())
                    .telemetry(&telemetry)
                    .spawn()
                    .expect("core must spawn")
            })
            .collect();
        Cluster {
            net,
            cores,
            telemetry,
        }
    }
}

/// A running cluster; stops its Cores on drop.
pub struct Cluster {
    /// The simulated network.
    pub net: Network,
    /// The Cores, `core0..coreN-1`.
    pub cores: Vec<Core>,
    /// Metrics registry shared by every Core in the cluster.
    pub telemetry: TelemetryRegistry,
}

impl Cluster {
    /// Shorthand for [`ClusterSpec::instant`]`.build()`.
    pub fn instant(n: usize) -> Cluster {
        ClusterSpec::instant(n).build()
    }

    /// Messages sent so far on the directed link `a → b`.
    pub fn messages(&self, a: usize, b: usize) -> u64 {
        self.net
            .link_stats(self.cores[a].node(), self.cores[b].node())
            .messages
    }

    /// Bytes sent so far on the directed link `a → b`.
    pub fn bytes(&self, a: usize, b: usize) -> u64 {
        self.net
            .link_stats(self.cores[a].node(), self.cores[b].node())
            .bytes
    }

    /// JSON snapshot of the cluster-wide metrics registry, with link
    /// gauges refreshed first.
    pub fn metrics_json(&self) -> String {
        for c in &self.cores {
            c.refresh_link_metrics();
        }
        render_snapshots_json(&self.telemetry.snapshot())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &self.cores {
            c.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fargo_core::Value;

    #[test]
    fn cluster_spins_up_and_counts_traffic() {
        let cluster = Cluster::instant(2);
        let s = cluster.cores[0]
            .new_complet_at("core1", "Servant", &[])
            .unwrap();
        let before = cluster.messages(0, 1);
        s.call("touch", &[Value::Null]).unwrap();
        assert!(cluster.messages(0, 1) > before);
    }

    #[test]
    fn shared_registry_covers_cores_and_exports_json() {
        let cluster = Cluster::instant(2);
        let s = cluster.cores[0]
            .new_complet_at("core1", "Servant", &[])
            .unwrap();
        s.call("touch", &[Value::Null]).unwrap();
        let json = cluster.metrics_json();
        // Both Cores publish into the one registry...
        assert!(json.contains("\"name\":\"fargo_invoke_total\""), "{json}");
        assert!(json.contains("\"core\":\"core0\""), "{json}");
        assert!(json.contains("\"core\":\"core1\""), "{json}");
        // ...and the remote call left link gauges behind.
        assert!(json.contains("\"name\":\"fargo_link_bytes\""), "{json}");
    }
}
