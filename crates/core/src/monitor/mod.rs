//! The Core's monitoring facility (§4.1).
//!
//! Two interfaces per service, as in the paper:
//!
//! * **instant** — [`Monitor::instant`] measures now, with a small result
//!   cache so bursts of instant requests are served without re-evaluation;
//! * **continuous** — [`Monitor::start`] / [`Monitor::get`] /
//!   [`Monitor::stop`] maintain an exponential average sampled on the
//!   requested interval, with interest counting so the Core only monitors
//!   resources some client cares about.
//!
//! The monitor itself does not know how to measure anything: the Core
//! installs a [`Sampler`] that maps a [`Service`] to a number. This keeps
//! the facility independent of runtime internals and lets tests drive it
//! with synthetic samplers.

mod ewma;
mod services;

pub use ewma::Ewma;
pub use services::Service;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use fargo_telemetry::{Clock, Counter, Registry};
use parking_lot::Mutex;

use crate::error::{FargoError, Result};
use crate::events::EventPayload;

/// Measures the current value of a profiling service.
pub type Sampler = Arc<dyn Fn(&Service) -> Option<f64> + Send + Sync + 'static>;

/// Consecutive zero samples after which a continuous average snaps to
/// exactly zero (see [`Ewma::snap_to_zero`]).
const ZERO_SNAP_SAMPLES: u32 = 3;

#[derive(Debug)]
struct Continuous {
    interval: Duration,
    average: Ewma,
    /// [`Clock`] microseconds of the last sample taken.
    last_sampled: Option<u64>,
    /// Number of clients that issued `start` without a matching `stop`.
    interest: usize,
    /// Consecutive zero raw samples (drives the snap-to-zero fix).
    zero_streak: u32,
}

#[derive(Debug, Clone, Copy)]
struct Cached {
    value: f64,
    /// [`Clock`] microseconds at measurement time.
    at: u64,
}

/// The monitoring facility of one Core.
pub struct Monitor {
    sampler: Mutex<Option<Sampler>>,
    continuous: Mutex<HashMap<Service, Continuous>>,
    cache: Mutex<HashMap<Service, Cached>>,
    cache_ttl: Duration,
    alpha: f64,
    samples_total: Counter,
    cache_hits_total: Counter,
    events_total: Counter,
    /// Baselines of the services computed from counter deltas: the last
    /// numerator and denominator totals (for a rate, the [`Clock`]
    /// microseconds it was read at).
    last_totals: Mutex<HashMap<Service, (u64, u64)>>,
    /// Time source for cache TTLs, sampling intervals, and rate windows.
    clock: Clock,
}

impl Monitor {
    /// Creates a monitor; the Core installs the sampler before use.
    pub(crate) fn new(cache_ttl: Duration, alpha: f64, clock: Clock) -> Self {
        Monitor {
            sampler: Mutex::new(None),
            continuous: Mutex::new(HashMap::new()),
            cache: Mutex::new(HashMap::new()),
            cache_ttl,
            alpha,
            samples_total: Counter::default(),
            cache_hits_total: Counter::default(),
            events_total: Counter::default(),
            last_totals: Mutex::new(HashMap::new()),
            clock,
        }
    }

    /// Exposes the overhead counters through a telemetry registry, so the
    /// E6 numbers appear in the same exposition as everything else.
    pub(crate) fn register_metrics(&self, registry: &Registry, core: &str) {
        let l = &[("core", core)][..];
        registry.register_counter("fargo_monitor_samples_total", l, &self.samples_total);
        registry.register_counter("fargo_monitor_cache_hits_total", l, &self.cache_hits_total);
        registry.register_counter("fargo_monitor_events_total", l, &self.events_total);
    }

    pub(crate) fn install_sampler(&self, sampler: Sampler) {
        *self.sampler.lock() = Some(sampler);
    }

    fn sample(&self, service: &Service) -> Result<f64> {
        let sampler = self
            .sampler
            .lock()
            .clone()
            .ok_or_else(|| FargoError::App("monitor has no sampler installed".into()))?;
        self.samples_total.inc();
        sampler(service)
            .ok_or_else(|| FargoError::InvalidArgument(format!("cannot measure {service}")))
    }

    /// Measures a service *now* (the instant interface).
    ///
    /// Results are cached for the configured TTL, so bursts of instant
    /// requests do not re-evaluate expensive measures.
    ///
    /// # Errors
    ///
    /// Fails when the service cannot be measured on this Core.
    pub fn instant(&self, service: &Service) -> Result<f64> {
        let now = self.clock.now_us();
        if let Some(c) = self.cache.lock().get(service) {
            if now.saturating_sub(c.at) < self.cache_ttl.as_micros() as u64 {
                self.cache_hits_total.inc();
                return Ok(c.value);
            }
        }
        let value = self.sample(service)?;
        self.cache
            .lock()
            .insert(service.clone(), Cached { value, at: now });
        Ok(value)
    }

    /// Begins (or joins) continuous profiling of `service` with the given
    /// sampling interval.
    ///
    /// Multiple clients may `start` the same service; it keeps being
    /// sampled until every one of them called [`Monitor::stop`]. A later
    /// `start` with a shorter interval tightens the sampling rate.
    pub fn start(&self, service: Service, interval: Duration) {
        let mut map = self.continuous.lock();
        map.entry(service)
            .and_modify(|c| {
                c.interest += 1;
                if interval < c.interval {
                    c.interval = interval;
                }
            })
            .or_insert_with(|| Continuous {
                interval,
                average: Ewma::new(self.alpha),
                last_sampled: None,
                interest: 1,
                zero_streak: 0,
            });
    }

    /// The current exponential average of a continuously profiled service.
    ///
    /// Returns `None` when the service is not being profiled or has not
    /// produced a sample yet.
    pub fn get(&self, service: &Service) -> Option<f64> {
        self.continuous
            .lock()
            .get(service)
            .and_then(|c| c.average.value())
    }

    /// Releases one client's interest; profiling stops when no client
    /// remains (§4.1: "the stop method terminates the profiling if no
    /// other application has requested it").
    pub fn stop(&self, service: &Service) {
        let mut map = self.continuous.lock();
        if let Some(c) = map.get_mut(service) {
            c.interest = c.interest.saturating_sub(1);
            if c.interest == 0 {
                map.remove(service);
                // The rate baseline goes with the profile: kept, it leaks,
                // and a later `start` reads its first rate across the gap.
                self.last_totals.lock().remove(service);
            }
        }
    }

    /// Whether the service is under continuous profiling.
    pub fn is_profiling(&self, service: &Service) -> bool {
        self.continuous.lock().contains_key(service)
    }

    /// Number of services under continuous profiling.
    pub fn active_services(&self) -> usize {
        self.continuous.lock().len()
    }

    /// Evaluations of the underlying sampler so far. This reads the same
    /// counter the registry exposes as `fargo_monitor_samples_total`.
    pub fn samples(&self) -> u64 {
        self.samples_total.get()
    }

    /// Instant requests served from the cache so far
    /// (`fargo_monitor_cache_hits_total`).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits_total.get()
    }

    /// Profile events produced by continuous sampling so far
    /// (`fargo_monitor_events_total`).
    pub fn events_emitted(&self) -> u64 {
        self.events_total.get()
    }

    /// Advances continuous sampling: samples every due service and
    /// returns the resulting profile events for the Core to route through
    /// its event hub (whose per-listener thresholds filter them).
    ///
    /// Called by the Core's monitor thread on each tick.
    pub(crate) fn tick(&self, core_node: u32) -> Vec<EventPayload> {
        let now = self.clock.now_us();
        let mut due: Vec<Service> = Vec::new();
        {
            let map = self.continuous.lock();
            for (service, c) in map.iter() {
                let is_due = match c.last_sampled {
                    None => true,
                    Some(t) => now.saturating_sub(t) >= c.interval.as_micros() as u64,
                };
                if is_due {
                    due.push(service.clone());
                }
            }
        }
        let mut events = Vec::new();
        for service in due {
            // Sample outside the map lock: samplers may take other locks.
            let Ok(raw) = self.sample(&service) else {
                continue;
            };
            let mut map = self.continuous.lock();
            let Some(c) = map.get_mut(&service) else {
                // Stopped while it was being sampled: the sample just
                // put back the baseline `stop` dropped.
                self.last_totals.lock().remove(&service);
                continue;
            };
            c.last_sampled = Some(now);
            let mut avg = c.average.update(raw);
            // A silent subject must eventually read as exactly 0: the
            // exponential average alone only decays asymptotically, which
            // would leave a phantom rate (e.g. for a complet that stopped
            // receiving invokes) in every downstream consumer.
            if raw == 0.0 {
                c.zero_streak += 1;
                if c.zero_streak >= ZERO_SNAP_SAMPLES {
                    avg = c.average.snap_to_zero();
                }
            } else {
                c.zero_streak = 0;
            }
            drop(map);
            events.push(EventPayload::Profile {
                service: service.name().to_owned(),
                key: service.key(),
                value: avg,
                core: core_node,
            });
        }
        self.events_total.add(events.len() as u64);
        events
    }

    /// Converts a monotone total into a rate (events/second) since this
    /// method was last called for `service`: the ratio of its increment
    /// to the [`Clock`]'s. Used by the Core's sampler to implement
    /// `methodInvokeRate`.
    pub(crate) fn rate_from_total(&self, service: &Service, total: u64) -> f64 {
        self.ratio_from_totals(service, total, self.clock.now_us()) * 1_000_000.0
    }

    /// Converts two monotone totals into the ratio of their increments
    /// since this method was last called for `service` — 0 without a
    /// baseline or when the denominator did not move. Used by the Core's
    /// sampler to implement the SLO ratios (`errorRate`, `shedRate`,
    /// `moveFailureRate`) and the layout rule's `remoteShare`.
    pub(crate) fn ratio_from_totals(&self, service: &Service, num: u64, den: u64) -> f64 {
        match self.last_totals.lock().insert(service.clone(), (num, den)) {
            Some((prev_num, prev_den)) if den > prev_den => {
                num.saturating_sub(prev_num) as f64 / (den - prev_den) as f64
            }
            _ => 0.0,
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("active_services", &self.active_services())
            .field("samples", &self.samples())
            .field("cache_hits", &self.cache_hits())
            .field("events_emitted", &self.events_emitted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fargo_wire::CompletId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn with_sampler(f: impl Fn(&Service) -> Option<f64> + Send + Sync + 'static) -> Monitor {
        let m = Monitor::new(Duration::from_millis(50), 0.5, Clock::Wall);
        m.install_sampler(Arc::new(f));
        m
    }

    #[test]
    fn instant_uses_cache_within_ttl() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = calls.clone();
        let m = with_sampler(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            Some(7.0)
        });
        assert_eq!(m.instant(&Service::CompletLoad).unwrap(), 7.0);
        assert_eq!(m.instant(&Service::CompletLoad).unwrap(), 7.0);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(m.cache_hits(), 1);
    }

    #[test]
    fn cache_expires() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = calls.clone();
        let clock = Clock::new_virtual(0);
        let m = Monitor::new(Duration::from_millis(1), 0.5, clock.clone());
        m.install_sampler(Arc::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            Some(1.0)
        }));
        m.instant(&Service::CompletLoad).unwrap();
        clock.advance(Duration::from_millis(5));
        m.instant(&Service::CompletLoad).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn continuous_interest_counting() {
        let m = with_sampler(|_| Some(1.0));
        let s = Service::CompletLoad;
        m.start(s.clone(), Duration::from_millis(10));
        m.start(s.clone(), Duration::from_millis(10));
        assert!(m.is_profiling(&s));
        m.stop(&s);
        assert!(m.is_profiling(&s), "second client still interested");
        m.stop(&s);
        assert!(!m.is_profiling(&s));
        // Extra stop is harmless.
        m.stop(&s);
    }

    #[test]
    fn tick_samples_due_services_and_averages() {
        let v = Arc::new(AtomicU64::new(10));
        let vv = v.clone();
        let m = with_sampler(move |_| Some(vv.load(Ordering::SeqCst) as f64));
        let s = Service::CompletLoad;
        m.start(s.clone(), Duration::ZERO);
        let ev = m.tick(0);
        assert_eq!(ev.len(), 1);
        assert_eq!(m.get(&s), Some(10.0));
        v.store(20, Ordering::SeqCst);
        m.tick(0);
        // alpha = 0.5: average of 10 and 20.
        assert_eq!(m.get(&s), Some(15.0));
    }

    #[test]
    fn silent_service_decays_to_exact_zero() {
        let v = Arc::new(AtomicU64::new(50));
        let vv = v.clone();
        let m = with_sampler(move |_| Some(vv.load(Ordering::SeqCst) as f64));
        let s = Service::CompletLoad;
        m.start(s.clone(), Duration::ZERO);
        m.tick(0);
        assert_eq!(m.get(&s), Some(50.0));
        v.store(0, Ordering::SeqCst);
        for tick in 1..=ZERO_SNAP_SAMPLES {
            m.tick(0);
            let got = m.get(&s).unwrap();
            if tick < ZERO_SNAP_SAMPLES {
                assert!(got > 0.0, "still decaying after {tick} zero samples");
            } else {
                assert_eq!(got, 0.0, "snapped after {ZERO_SNAP_SAMPLES} zeros");
            }
        }
        // Traffic resuming re-initialises the streak.
        v.store(50, Ordering::SeqCst);
        m.tick(0);
        assert!(m.get(&s).unwrap() > 0.0);
    }

    #[test]
    fn tick_respects_intervals() {
        let m = with_sampler(|_| Some(1.0));
        m.start(Service::CompletLoad, Duration::from_secs(3600));
        assert_eq!(m.tick(0).len(), 1, "first sample is immediate");
        assert_eq!(m.tick(0).len(), 0, "not due again for an hour");
    }

    #[test]
    fn get_without_profiling_is_none() {
        let m = with_sampler(|_| Some(1.0));
        assert_eq!(m.get(&Service::MemoryUse), None);
    }

    #[test]
    fn unmeasurable_service_errors() {
        let m = with_sampler(|_| None);
        assert!(m.instant(&Service::QueueLen).is_err());
    }

    #[test]
    fn rate_from_total_computes_deltas() {
        let clock = Clock::new_virtual(0);
        let m = Monitor::new(Duration::from_millis(50), 0.5, clock.clone());
        let s = Service::CompletLoad;
        assert_eq!(m.rate_from_total(&s, 10), 0.0, "first call has no baseline");
        clock.advance(Duration::from_millis(20));
        let r = m.rate_from_total(&s, 30);
        assert_eq!(r, 1000.0, "20 events over 20ms is 1000/s");
        let s = Service::ErrorRate;
        assert_eq!(m.ratio_from_totals(&s, 3, 10), 0.0, "no baseline yet");
        assert_eq!(m.ratio_from_totals(&s, 5, 20), 0.2, "2 of 10 failed");
        assert_eq!(m.ratio_from_totals(&s, 5, 20), 0.0, "nothing issued");
    }

    #[test]
    fn overhead_counters_match_registry_exposition() {
        let m = with_sampler(|_| Some(7.0));
        let reg = Registry::new();
        m.register_metrics(&reg, "t");
        m.instant(&Service::CompletLoad).unwrap();
        m.instant(&Service::CompletLoad).unwrap(); // cache hit
        assert_eq!(m.samples(), 1);
        assert_eq!(m.cache_hits(), 1);
        // The accessors and the registry read the very same counters.
        let series = |name: &str| {
            reg.snapshot()
                .into_iter()
                .find(|s| s.name == name)
                .expect("registered series")
                .value
        };
        assert_eq!(
            series("fargo_monitor_samples_total"),
            fargo_telemetry::MetricValue::Counter(m.samples())
        );
        assert_eq!(
            series("fargo_monitor_cache_hits_total"),
            fargo_telemetry::MetricValue::Counter(m.cache_hits())
        );
    }

    /// A monitor whose sampler turns the shared `total` into a rate for
    /// `methodInvokeRate` and into a ratio (of `total` to itself) for
    /// the ratio services, the way the Core's does.
    fn rate_monitor(clock: &Clock, total: &Arc<AtomicU64>) -> Arc<Monitor> {
        let m = Arc::new(Monitor::new(Duration::from_millis(50), 0.5, clock.clone()));
        let (weak, total) = (Arc::downgrade(&m), total.clone());
        m.install_sampler(Arc::new(move |s| {
            let m = weak.upgrade()?;
            let total = total.load(Ordering::SeqCst);
            Some(match s {
                Service::MethodInvokeRate { .. } => m.rate_from_total(s, total),
                _ => m.ratio_from_totals(s, total, total),
            })
        }));
        m
    }

    fn rate_of(seq: u64) -> Service {
        Service::MethodInvokeRate {
            src: CompletId::new(0, 0),
            dst: CompletId::new(1, seq),
        }
    }

    #[test]
    fn stopped_rate_profiles_leave_no_baseline_behind() {
        let ratio: fn(u64) -> Service = |_| Service::ErrorRate;
        for service in [rate_of, ratio] {
            let m = rate_monitor(&Clock::new_virtual(0), &Arc::new(AtomicU64::new(7)));
            for seq in 0..10_000 {
                m.start(service(seq), Duration::ZERO);
                m.tick(0); // the sample takes a baseline
                m.stop(&service(seq));
            }
            assert_eq!(m.active_services(), 0);
            assert!(
                m.last_totals.lock().is_empty(),
                "one entry leaked per profile"
            );
        }
    }

    #[test]
    fn restarted_rate_profile_does_not_read_across_the_gap() {
        let clock = Clock::new_virtual(0);
        let total = Arc::new(AtomicU64::new(100));
        let m = rate_monitor(&clock, &total);
        let s = rate_of(1);
        m.start(s.clone(), Duration::ZERO);
        m.tick(0);
        m.stop(&s);
        // An hour unobserved, a thousand calls the profile never saw.
        clock.advance(Duration::from_secs(3600));
        total.store(1_100, Ordering::SeqCst);
        m.start(s.clone(), Duration::ZERO);
        m.tick(0);
        assert_eq!(
            m.get(&s),
            Some(0.0),
            "the first sample only sets a baseline"
        );
        clock.advance(Duration::from_millis(20));
        total.store(1_120, Ordering::SeqCst);
        m.tick(0);
        assert!(m.get(&s).unwrap() > 0.0, "the next one measures");
    }
}
