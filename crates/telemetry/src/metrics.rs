//! Lock-free metrics: counters, gauges, fixed-bucket histograms, and a
//! name+label registry with Prometheus-style text exposition.
//!
//! # Conventions
//!
//! Metric names are `snake_case` with a `fargo_` prefix and a unit
//! suffix (`_total` for counters, `_us` / `_bytes` where applicable).
//! Labels are `(key, value)` pairs; the registry sorts them by key so
//! `[("core", "a"), ("kind", "x")]` and `[("kind", "x"), ("core", "a")]`
//! name the same series. Registering the same name + labels twice
//! returns a handle to the same underlying series.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Histogram bucket preset for micro-second latencies (1µs – 1s).
pub const BUCKETS_LATENCY_US: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000,
];

/// Histogram bucket preset for payload sizes (16B – 4MiB).
pub const BUCKETS_BYTES: &[u64] = &[
    16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// Histogram bucket preset for small counts (hops, chain lengths, co-moves).
pub const BUCKETS_COUNT: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32];

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bit pattern).
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// One slot per bound plus a final `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations.
///
/// `observe` touches three atomics and performs a short binary search
/// over the (immutable) bounds — no locks, safe from any thread.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.inner.bounds.partition_point(|&b| b < value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Cumulative `(upper_bound, count)` pairs; the final entry is the
    /// `+Inf` bucket (bound `u64::MAX`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.inner.buckets.len());
        for (i, slot) in self.inner.buckets.iter().enumerate() {
            acc += slot.load(Ordering::Relaxed);
            let bound = self.inner.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, acc));
        }
        out
    }

    /// The finite bucket bounds this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) of all observations so
    /// far by log-interpolating inside the bucket holding the target
    /// rank. `None` while the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_cumulative(&self.cumulative_buckets(), q)
    }
}

/// Estimates a quantile from cumulative `(upper_bound, count)` buckets
/// (the shape [`Histogram::cumulative_buckets`] and histogram snapshots
/// produce; the final bound `u64::MAX` is the `+Inf` overflow bucket).
///
/// The estimate interpolates *geometrically* between a bucket's lower
/// and upper edge — the right interpolation for log-spaced bounds like
/// [`BUCKETS_LATENCY_US`], where the linear midpoint of (100, 250] would
/// systematically overestimate. Values in the overflow bucket clamp to
/// the last finite bound: there is no upper edge to interpolate toward.
///
/// `None` when there are no observations; `q` is clamped to `0.0..=1.0`.
pub fn quantile_from_cumulative(cum: &[(u64, u64)], q: f64) -> Option<f64> {
    let total = cum.last().map(|&(_, c)| c).unwrap_or(0);
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Nearest-rank target: q=0 resolves to the first observation, q=1 to
    // the last.
    let rank = (q * total as f64).ceil().max(1.0);
    let mut prev_bound = 0u64;
    let mut prev_cum = 0u64;
    for &(bound, c) in cum {
        if (c as f64) >= rank {
            if bound == u64::MAX {
                // Overflow: clamp to the largest finite edge we know.
                return Some(prev_bound as f64);
            }
            let in_bucket = (c - prev_cum) as f64;
            let frac = ((rank - prev_cum as f64) / in_bucket).clamp(0.0, 1.0);
            let (lo, hi) = (prev_bound as f64, bound as f64);
            let est = if lo <= 0.0 {
                hi * frac
            } else {
                lo * (hi / lo).powf(frac)
            };
            return Some(est);
        }
        prev_bound = bound;
        prev_cum = c;
    }
    Some(prev_bound as f64)
}

/// A [`Histogram`] paired with a bounded recent window, so tail
/// estimates can distinguish "slow lately" from "slow since boot".
///
/// The window is two epochs of `window_len` observations each: every
/// observation lands in the current epoch, and when it fills, it
/// replaces the previous epoch. Recent quantiles read both epochs, so
/// they always cover between `window_len` and `2 × window_len` of the
/// most recent observations. Rotation is driven by observation count,
/// not wall time, so windowed estimates stay deterministic under the
/// virtual clock.
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    lifetime: Histogram,
    inner: Arc<WindowInner>,
}

#[derive(Debug)]
struct WindowInner {
    window_len: u64,
    state: Mutex<WindowState>,
}

#[derive(Debug)]
struct WindowState {
    current: Vec<u64>,
    previous: Vec<u64>,
    count: u64,
}

impl WindowedHistogram {
    /// Wraps an existing (typically registered) histogram handle; the
    /// lifetime series keeps accumulating through it unchanged.
    pub fn new(lifetime: Histogram, window_len: u64) -> Self {
        let slots = lifetime.bounds().len() + 1;
        WindowedHistogram {
            lifetime,
            inner: Arc::new(WindowInner {
                window_len: window_len.max(1),
                state: Mutex::new(WindowState {
                    current: vec![0; slots],
                    previous: vec![0; slots],
                    count: 0,
                }),
            }),
        }
    }

    /// Records into both the lifetime histogram and the recent window.
    pub fn observe(&self, value: u64) {
        self.lifetime.observe(value);
        let idx = self.lifetime.bounds().partition_point(|&b| b < value);
        let mut st = self.inner.state.lock().unwrap();
        st.current[idx] += 1;
        st.count += 1;
        if st.count >= self.inner.window_len {
            let fresh = vec![0; st.current.len()];
            st.previous = std::mem::replace(&mut st.current, fresh);
            st.count = 0;
        }
    }

    /// The lifetime histogram handle.
    pub fn lifetime(&self) -> &Histogram {
        &self.lifetime
    }

    /// Cumulative buckets over the recent window (both epochs).
    pub fn recent_cumulative(&self) -> Vec<(u64, u64)> {
        let st = self.inner.state.lock().unwrap();
        let bounds = self.lifetime.bounds();
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(st.current.len());
        for i in 0..st.current.len() {
            acc += st.current[i] + st.previous[i];
            out.push((bounds.get(i).copied().unwrap_or(u64::MAX), acc));
        }
        out
    }

    /// Observations inside the recent window.
    pub fn recent_count(&self) -> u64 {
        self.recent_cumulative()
            .last()
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// Quantile estimate over the recent window only.
    pub fn quantile_recent(&self, q: f64) -> Option<f64> {
        quantile_from_cumulative(&self.recent_cumulative(), q)
    }
}

/// A point-in-time copy of one metric series.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Metric name (e.g. `fargo_invoke_latency_us`).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// Sampled value of a metric series.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram: cumulative buckets plus sum and count.
    Histogram {
        /// Cumulative `(upper_bound, count)`; last bound is `u64::MAX` (+Inf).
        buckets: Vec<(u64, u64)>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type SeriesKey = (String, Vec<(String, String)>);

/// A registry of metric series, keyed by name + sorted labels.
///
/// Cheap to clone (`Arc` inside); clones share the same series. The
/// registry lock is taken only on registration and snapshot — recorded
/// values flow through the lock-free handles.
#[derive(Clone, Default)]
pub struct Registry {
    series: Arc<RwLock<HashMap<SeriesKey, Series>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        (name.to_string(), labels)
    }

    /// Returns the counter registered under `name` + `labels`, creating
    /// it on first use.
    ///
    /// # Panics
    /// Panics if the series already exists with a different type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = Self::key(name, labels);
        if let Some(Series::Counter(c)) = self.series.read().unwrap().get(&key) {
            return c.clone();
        }
        let mut map = self.series.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Series::Counter(Counter::default()))
        {
            Series::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers an *existing* counter handle under `name` + `labels`,
    /// so a subsystem that owns its counters (e.g. the monitor) can
    /// surface them through the registry without double bookkeeping.
    /// Replaces any previous series under the same key.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], handle: &Counter) {
        let key = Self::key(name, labels);
        self.series
            .write()
            .unwrap()
            .insert(key, Series::Counter(handle.clone()));
    }

    /// Returns the gauge registered under `name` + `labels`, creating it
    /// on first use.
    ///
    /// # Panics
    /// Panics if the series already exists with a different type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = Self::key(name, labels);
        if let Some(Series::Gauge(g)) = self.series.read().unwrap().get(&key) {
            return g.clone();
        }
        let mut map = self.series.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Series::Gauge(Gauge::default()))
        {
            Series::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Returns the histogram registered under `name` + `labels`, creating
    /// it with `bounds` on first use (later `bounds` are ignored).
    ///
    /// # Panics
    /// Panics if the series already exists with a different type, or if
    /// `bounds` are not strictly increasing.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        let key = Self::key(name, labels);
        if let Some(Series::Histogram(h)) = self.series.read().unwrap().get(&key) {
            return h.clone();
        }
        let mut map = self.series.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Series::Histogram(Histogram::with_bounds(bounds)))
        {
            Series::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Takes a point-in-time snapshot of every series, sorted by name
    /// then labels.
    pub fn snapshot(&self) -> Vec<Snapshot> {
        let map = self.series.read().unwrap();
        let mut out: Vec<Snapshot> = map
            .iter()
            .map(|((name, labels), series)| Snapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match series {
                    Series::Counter(c) => MetricValue::Counter(c.get()),
                    Series::Gauge(g) => MetricValue::Gauge(g.get()),
                    Series::Histogram(h) => MetricValue::Histogram {
                        buckets: h.cumulative_buckets(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// Renders every series in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        render_snapshots(&self.snapshot())
    }
}

fn format_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{v}\"");
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Orders series for rendering: families by name, series within a family
/// by label set. [`Registry::snapshot`] already emits this order; sorting
/// again here makes the exposition deterministic for *any* input, so
/// snapshots diff cleanly and tests never depend on map iteration order.
fn ordered(snaps: &[Snapshot]) -> Vec<&Snapshot> {
    let mut v: Vec<&Snapshot> = snaps.iter().collect();
    v.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    v
}

/// Renders a snapshot list (e.g. from [`Registry::snapshot`]) in
/// Prometheus text exposition format. `# TYPE` headers are emitted once
/// per metric name. Output order is deterministic: families sort by
/// name, series by label set.
pub fn render_snapshots(snaps: &[Snapshot]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for snap in ordered(snaps) {
        if last_name != Some(snap.name.as_str()) {
            let ty = match snap.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {}", snap.name, ty);
            last_name = Some(snap.name.as_str());
        }
        match &snap.value {
            MetricValue::Counter(v) => {
                out.push_str(&snap.name);
                format_labels(&mut out, &snap.labels, None);
                let _ = writeln!(out, " {v}");
            }
            MetricValue::Gauge(v) => {
                out.push_str(&snap.name);
                format_labels(&mut out, &snap.labels, None);
                let _ = writeln!(out, " {v}");
            }
            MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                for (bound, cum) in buckets {
                    let le = if *bound == u64::MAX {
                        "+Inf".to_string()
                    } else {
                        bound.to_string()
                    };
                    let _ = write!(out, "{}_bucket", snap.name);
                    format_labels(&mut out, &snap.labels, Some(("le", &le)));
                    let _ = writeln!(out, " {cum}");
                }
                let _ = write!(out, "{}_sum", snap.name);
                format_labels(&mut out, &snap.labels, None);
                let _ = writeln!(out, " {sum}");
                let _ = write!(out, "{}_count", snap.name);
                format_labels(&mut out, &snap.labels, None);
                let _ = writeln!(out, " {count}");
            }
        }
    }
    out
}

/// Appends `s` as a quoted JSON string.
pub(crate) fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a snapshot list as a JSON array — one object per series with
/// `name`, `labels`, and a `value` whose shape depends on the metric
/// kind (number for counters/gauges, `{buckets, sum, count, p50, p99,
/// p999}` for histograms; the overflow bucket's bound is `null`, and the
/// percentile estimates are `null` while empty). Hand-rolled so
/// the crate stays dependency-free. Series order is deterministic (by
/// name, then label set), matching [`render_snapshots`].
pub fn render_snapshots_json(snaps: &[Snapshot]) -> String {
    let mut out = String::from("[");
    for (i, snap) in ordered(snaps).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_escape(&mut out, &snap.name);
        out.push_str(",\"labels\":{");
        for (j, (k, v)) in snap.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_escape(&mut out, k);
            out.push(':');
            json_escape(&mut out, v);
        }
        out.push_str("},\"value\":");
        match &snap.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                out.push_str("{\"buckets\":[");
                for (j, (bound, cum)) in buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    if *bound == u64::MAX {
                        let _ = write!(out, "[null,{cum}]");
                    } else {
                        let _ = write!(out, "[{bound},{cum}]");
                    }
                }
                let _ = write!(out, "],\"sum\":{sum},\"count\":{count}");
                for (key, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                    match quantile_from_cumulative(buckets, q) {
                        Some(v) if v.is_finite() => {
                            let _ = write!(out, ",\"{key}\":{v:.1}");
                        }
                        _ => {
                            let _ = write!(out, ",\"{key}\":null");
                        }
                    }
                }
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_by_name_and_labels() {
        let reg = Registry::new();
        let a = reg.counter("fargo_x_total", &[("core", "a")]);
        let b = reg.counter("fargo_x_total", &[("core", "a")]);
        let other = reg.counter("fargo_x_total", &[("core", "b")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_is_normalised() {
        let reg = Registry::new();
        let a = reg.counter("m", &[("x", "1"), ("a", "2")]);
        let b = reg.counter("m", &[("a", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauge_roundtrips_f64() {
        let reg = Registry::new();
        let g = reg.gauge("fargo_load", &[]);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-0.25);
        assert_eq!(g.get(), -0.25);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[], &[10, 20]);
        // A value exactly on a bound lands in that bound's bucket (le
        // semantics), one past it in the next.
        h.observe(10);
        h.observe(11);
        h.observe(20);
        h.observe(21);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets, vec![(10, 1), (20, 3), (u64::MAX, 4)]);
        assert_eq!(h.sum(), 62);
        assert_eq!(h.count(), 4);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_panic() {
        let reg = Registry::new();
        let _ = reg.counter("same", &[]);
        let _ = reg.gauge("same", &[]);
    }

    #[test]
    fn prometheus_rendering() {
        let reg = Registry::new();
        reg.counter("fargo_msgs_total", &[("kind", "invoke")])
            .add(7);
        reg.gauge("fargo_queue", &[]).set(1.5);
        reg.histogram("fargo_lat_us", &[], &[10]).observe(3);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE fargo_msgs_total counter"));
        assert!(text.contains("fargo_msgs_total{kind=\"invoke\"} 7"));
        assert!(text.contains("fargo_queue 1.5"));
        assert!(text.contains("fargo_lat_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("fargo_lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("fargo_lat_us_sum 3"));
        assert!(text.contains("fargo_lat_us_count 1"));
    }

    #[test]
    fn exposition_is_deterministic_across_registration_orders() {
        let series: &[(&str, &str)] = &[
            ("fargo_b_total", "core1"),
            ("fargo_a_total", "core2"),
            ("fargo_a_total", "core0"),
            ("fargo_b_total", "core0"),
        ];
        let mut reversed: Vec<(&str, &str)> = series.to_vec();
        reversed.reverse();
        let render_both = |order: &[(&str, &str)]| {
            let reg = Registry::new();
            for (i, (name, core)) in order.iter().enumerate() {
                reg.counter(name, &[("core", core)]).add(i as u64 + 1);
            }
            // Same totals regardless of order: re-add to fixed values.
            for (name, core) in order {
                let c = reg.counter(name, &[("core", core)]);
                while c.get() < 10 {
                    c.inc();
                }
            }
            (
                render_snapshots(&reg.snapshot()),
                render_snapshots_json(&reg.snapshot()),
            )
        };
        assert_eq!(render_both(series), render_both(&reversed));
    }

    #[test]
    fn prometheus_histogram_golden_exposition() {
        // The exact conformance contract: one `# TYPE` header, `le`
        // buckets in ascending order ending with `+Inf`, then `_sum`
        // and `_count` — in that order, with labels preserved.
        let reg = Registry::new();
        let h = reg.histogram("fargo_lat_us", &[("core", "c0")], &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        assert_eq!(
            reg.render_prometheus(),
            "# TYPE fargo_lat_us histogram\n\
             fargo_lat_us_bucket{core=\"c0\",le=\"10\"} 1\n\
             fargo_lat_us_bucket{core=\"c0\",le=\"100\"} 2\n\
             fargo_lat_us_bucket{core=\"c0\",le=\"+Inf\"} 3\n\
             fargo_lat_us_sum{core=\"c0\"} 555\n\
             fargo_lat_us_count{core=\"c0\"} 3\n"
        );
    }

    #[test]
    fn json_histogram_reports_percentiles() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[], &[10, 100]);
        for _ in 0..100 {
            h.observe(5);
        }
        h.observe(60);
        let json = render_snapshots_json(&reg.snapshot());
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        assert!(json.contains("\"p999\":"), "{json}");

        let empty = Registry::new();
        empty.histogram("e", &[], &[10]);
        let json = render_snapshots_json(&empty.snapshot());
        assert!(json.contains("\"p50\":null"), "{json}");
    }

    #[test]
    fn json_histogram_golden_exposition() {
        // The JSON twin of the Prometheus golden test: exact output,
        // including the interpolated quantile fields. p50 of 4
        // observations targets rank 2 — one third into the (10, 100]
        // bucket geometrically, i.e. 10·(100/10)^(1/3) ≈ 21.5 — and
        // p99/p999 target the bucket's top edge, 100.0.
        let reg = Registry::new();
        let h = reg.histogram("fargo_lat_us", &[("core", "c0")], &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(50);
        h.observe(50);
        reg.counter("fargo_up_total", &[("core", "c0")]).add(2);
        assert_eq!(
            render_snapshots_json(&reg.snapshot()),
            "[{\"name\":\"fargo_lat_us\",\"labels\":{\"core\":\"c0\"},\"value\":\
             {\"buckets\":[[10,1],[100,4],[null,4]],\"sum\":155,\"count\":4,\
             \"p50\":21.5,\"p99\":100.0,\"p999\":100.0}},\
             {\"name\":\"fargo_up_total\",\"labels\":{\"core\":\"c0\"},\"value\":2}]"
        );
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[], &[10, 100]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(quantile_from_cumulative(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates_geometrically() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[], &[10, 100, 1000]);
        // 100 observations in the (10, 100] bucket.
        for _ in 0..100 {
            h.observe(50);
        }
        let p50 = h.quantile(0.5).unwrap();
        // Geometric midpoint of (10, 100] is sqrt(10*100) ≈ 31.6, not
        // the linear 55.
        assert!((10.0..=100.0).contains(&p50), "p50={p50}");
        assert!(p50 < 40.0, "log interpolation expected, got {p50}");
        // Everything in one bucket: quantiles never leave its edges.
        assert!(h.quantile(0.999).unwrap() <= 100.0);
        assert!(h.quantile(0.0).unwrap() >= 10.0 * 0.99);
    }

    #[test]
    fn quantile_edges_single_bucket_overflow_and_bounds() {
        // Single finite bucket.
        let reg = Registry::new();
        let h = reg.histogram("one", &[], &[10]);
        h.observe(3);
        assert!(h.quantile(0.0).unwrap() <= 10.0);
        assert!(h.quantile(1.0).unwrap() <= 10.0);

        // Overflow-only observations clamp to the last finite bound.
        let h = reg.histogram("ovf", &[], &[10, 100]);
        h.observe(5_000);
        assert_eq!(h.quantile(0.5), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(100.0));

        // q outside [0, 1] clamps instead of panicking.
        let h = reg.histogram("clamp", &[], &[10]);
        h.observe(5);
        assert!(h.quantile(-3.0).is_some());
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn windowed_histogram_tracks_recent_vs_lifetime() {
        let reg = Registry::new();
        let h = reg.histogram("w", &[], &[10, 100, 1000, 10_000]);
        let w = WindowedHistogram::new(h.clone(), 8);
        // A slow early era...
        for _ in 0..16 {
            w.observe(5_000);
        }
        // ...then a fast recent one, long enough to rotate the slow
        // epochs fully out of the window.
        for _ in 0..16 {
            w.observe(5);
        }
        let recent = w.quantile_recent(0.99).unwrap();
        let lifetime = w.lifetime().quantile(0.99).unwrap();
        assert!(recent <= 10.0, "recent p99 must be fast: {recent}");
        assert!(
            lifetime > 1_000.0,
            "lifetime p99 keeps the slow era: {lifetime}"
        );
        assert_eq!(h.count(), 32, "lifetime handle still accumulates");
        assert!(w.recent_count() >= 8 && w.recent_count() <= 16);
    }

    #[test]
    fn renderers_sort_unsorted_input() {
        let snaps = vec![
            Snapshot {
                name: "z_total".into(),
                labels: vec![],
                value: MetricValue::Counter(1),
            },
            Snapshot {
                name: "a_total".into(),
                labels: vec![],
                value: MetricValue::Counter(2),
            },
        ];
        let text = render_snapshots(&snaps);
        let a = text.find("a_total").expect("a rendered");
        let z = text.find("z_total").expect("z rendered");
        assert!(a < z, "families must sort by name:\n{text}");
        let json = render_snapshots_json(&snaps);
        assert!(json.find("a_total").unwrap() < json.find("z_total").unwrap());
    }
}
