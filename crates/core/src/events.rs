//! The Core's event mechanism (§4.2).
//!
//! Every profiling service has a corresponding event complets can register
//! for with a per-listener threshold; in addition each Core fires
//! non-measurable layout events (`completArrived`, `completDeparted`,
//! `coreShutdown`). Listeners may be local closures, remote Cores, or
//! complets — the latter are notified by invoking their `on_event` method
//! through a normal complet reference, which is what lets listeners keep
//! receiving events after they migrate (the paper's distributed events).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fargo_telemetry::{JournalEvent, JournalKind};
use fargo_wire::{CompletId, Value};
use parking_lot::Mutex;

use crate::error::{FargoError, Result};
use crate::proto::ListenerAddr;

/// A fired event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// A complet arrived at the Core with node index `core`.
    CompletArrived {
        /// The arriving complet.
        id: CompletId,
        /// Its anchor type.
        type_name: String,
        /// Node index of the receiving Core.
        core: u32,
    },
    /// A complet departed towards `dest`.
    CompletDeparted {
        /// The departing complet.
        id: CompletId,
        /// Its anchor type.
        type_name: String,
        /// Node index of the destination Core.
        dest: u32,
        /// Node index of the Core it left.
        core: u32,
    },
    /// A Core announced it is shutting down.
    CoreShutdown {
        /// Node index of the Core going down.
        core: u32,
    },
    /// A follow-up move (e.g. a remotely hosted pull target trailing a
    /// committed move) failed after retrying.
    MoveFailed {
        /// The complet that could not be moved.
        id: CompletId,
        /// Node index of the intended destination Core.
        dest: u32,
        /// Node index of the Core that attempted the move.
        core: u32,
        /// The final error, rendered.
        error: String,
    },
    /// A continuous profiling measurement crossed a listener's threshold.
    Profile {
        /// Profiling service name (e.g. `completLoad`).
        service: String,
        /// Service-specific key (e.g. the reference `c0.1->c0.2`).
        key: String,
        /// The measured (averaged) value.
        value: f64,
        /// Node index of the measuring Core.
        core: u32,
    },
}

impl EventPayload {
    /// The canonical selector string of this event.
    ///
    /// Layout events select by kind (`completArrived`, `completDeparted`,
    /// `coreShutdown`); profile events by `service` or `service:key`.
    pub fn selector(&self) -> String {
        match self {
            EventPayload::CompletArrived { .. } => "completArrived".to_owned(),
            EventPayload::CompletDeparted { .. } => "completDeparted".to_owned(),
            EventPayload::CoreShutdown { .. } => "coreShutdown".to_owned(),
            EventPayload::MoveFailed { .. } => "moveFailed".to_owned(),
            EventPayload::Profile { service, key, .. } => {
                if key.is_empty() {
                    service.clone()
                } else {
                    format!("{service}:{key}")
                }
            }
        }
    }

    /// Whether this event matches a subscription selector.
    ///
    /// A selector matches its exact canonical form, and a bare profile
    /// service name matches every key of that service.
    pub fn matches(&self, selector: &str) -> bool {
        let own = self.selector();
        if own == selector {
            return true;
        }
        match self {
            EventPayload::Profile { service, .. } => service == selector,
            _ => false,
        }
    }

    /// The measured value for profile events.
    pub fn value(&self) -> Option<f64> {
        match self {
            EventPayload::Profile { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Node index of the Core that fired the event.
    pub fn core(&self) -> u32 {
        match self {
            EventPayload::CompletArrived { core, .. }
            | EventPayload::CompletDeparted { core, .. }
            | EventPayload::CoreShutdown { core }
            | EventPayload::MoveFailed { core, .. }
            | EventPayload::Profile { core, .. } => *core,
        }
    }

    /// Encodes the event for the wire and for `on_event` listener calls.
    pub fn to_value(&self) -> Value {
        match self {
            EventPayload::CompletArrived {
                id,
                type_name,
                core,
            } => Value::map([
                ("kind", Value::from("completArrived")),
                ("id", Value::from(id.to_string())),
                ("type", Value::from(type_name.as_str())),
                ("core", Value::from(*core)),
            ]),
            EventPayload::CompletDeparted {
                id,
                type_name,
                dest,
                core,
            } => Value::map([
                ("kind", Value::from("completDeparted")),
                ("id", Value::from(id.to_string())),
                ("type", Value::from(type_name.as_str())),
                ("dest", Value::from(*dest)),
                ("core", Value::from(*core)),
            ]),
            EventPayload::CoreShutdown { core } => Value::map([
                ("kind", Value::from("coreShutdown")),
                ("core", Value::from(*core)),
            ]),
            EventPayload::MoveFailed {
                id,
                dest,
                core,
                error,
            } => Value::map([
                ("kind", Value::from("moveFailed")),
                ("id", Value::from(id.to_string())),
                ("dest", Value::from(*dest)),
                ("core", Value::from(*core)),
                ("error", Value::from(error.as_str())),
            ]),
            EventPayload::Profile {
                service,
                key,
                value,
                core,
            } => Value::map([
                ("kind", Value::from("profile")),
                ("service", Value::from(service.as_str())),
                ("key", Value::from(key.as_str())),
                ("value", Value::from(*value)),
                ("core", Value::from(*core)),
            ]),
        }
    }

    /// Decodes an event from its wire form.
    ///
    /// # Errors
    ///
    /// Fails with [`FargoError::Protocol`] on malformed input.
    pub fn from_value(v: &Value) -> Result<EventPayload> {
        let field = |k: &str| -> Result<String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| FargoError::Protocol(format!("event missing {k:?}")))
        };
        let num = |k: &str| -> Result<u32> {
            v.get(k)
                .and_then(Value::as_i64)
                .map(|n| n as u32)
                .ok_or_else(|| FargoError::Protocol(format!("event missing {k:?}")))
        };
        let id = |k: &str| -> Result<CompletId> {
            let s = field(k)?;
            s.parse()
                .map_err(|_| FargoError::Protocol(format!("bad complet id {s:?}")))
        };
        match field("kind")?.as_str() {
            "completArrived" => Ok(EventPayload::CompletArrived {
                id: id("id")?,
                type_name: field("type")?,
                core: num("core")?,
            }),
            "completDeparted" => Ok(EventPayload::CompletDeparted {
                id: id("id")?,
                type_name: field("type")?,
                dest: num("dest")?,
                core: num("core")?,
            }),
            "coreShutdown" => Ok(EventPayload::CoreShutdown { core: num("core")? }),
            "moveFailed" => Ok(EventPayload::MoveFailed {
                id: id("id")?,
                dest: num("dest")?,
                core: num("core")?,
                error: field("error")?,
            }),
            "profile" => Ok(EventPayload::Profile {
                service: field("service")?,
                key: field("key")?,
                value: v
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| FargoError::Protocol("event missing value".into()))?,
                core: num("core")?,
            }),
            other => Err(FargoError::Protocol(format!(
                "unknown event kind {other:?}"
            ))),
        }
    }

    /// Reconstructs a fireable layout event from a flight-recorder journal
    /// entry, so replayed history flows through the same hub — and the
    /// same remote-listener deliveries — as live events. Journal kinds
    /// with no event counterpart (tracker bookkeeping, reference edges,
    /// invocation steps) yield `None`.
    pub fn from_journal(ev: &JournalEvent) -> Option<EventPayload> {
        match ev.kind {
            JournalKind::CompletArrived => Some(EventPayload::CompletArrived {
                id: ev.subject.parse().ok()?,
                type_name: ev.object.clone(),
                core: ev.core,
            }),
            JournalKind::CompletDeparted => Some(EventPayload::CompletDeparted {
                id: ev.subject.parse().ok()?,
                type_name: ev.object.clone(),
                // A released complet has no destination; report the Core
                // it vanished from.
                dest: ev.peer.unwrap_or(ev.core),
                core: ev.core,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for EventPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventPayload::Profile { value, .. } => {
                write!(f, "{} = {value:.3}", self.selector())
            }
            other => write!(f, "{}", other.selector()),
        }
    }
}

/// A local event callback.
pub type EventHandler = Arc<dyn Fn(&EventPayload) + Send + Sync + 'static>;

/// Where a matching event should be delivered (computed by the hub,
/// executed by the Core, which owns the network).
#[derive(Clone)]
pub(crate) enum Delivery {
    Local(EventHandler),
    Remote(ListenerAddr),
}

struct Subscription {
    token: u64,
    selector: String,
    threshold: Option<f64>,
    /// `true`: fire when value rises above threshold;
    /// `false`: fire when it falls to or below. The two directions
    /// partition the values, so an above and a below listener on one
    /// threshold make a fire/resolve pair.
    above: bool,
    /// Edge-trigger state: armed until the condition fires, re-armed when
    /// the condition clears. Prevents storms of identical notifications.
    armed: bool,
    sink: Delivery,
}

impl Subscription {
    /// Threshold/edge filtering (§4.2: "the threshold value is kept
    /// separately with the listener, in order to filter the results").
    fn wants(&mut self, payload: &EventPayload) -> bool {
        if !payload.matches(&self.selector) {
            return false;
        }
        let Some(threshold) = self.threshold else {
            return true;
        };
        let Some(value) = payload.value() else {
            return true;
        };
        let crossed = if self.above {
            value > threshold
        } else {
            value <= threshold
        };
        if crossed {
            let fire = self.armed;
            self.armed = false;
            fire
        } else {
            self.armed = true;
            false
        }
    }
}

/// The per-Core listener registry.
#[derive(Default)]
pub(crate) struct EventHub {
    subs: Mutex<Vec<Subscription>>,
    next_token: AtomicU64,
}

impl EventHub {
    pub fn new() -> Self {
        EventHub::default()
    }

    /// Registers a listener — a local closure, a complet or a peer
    /// Core; returns its token.
    pub fn subscribe(
        &self,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        sink: Delivery,
    ) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().push(Subscription {
            token,
            selector: selector.to_owned(),
            threshold,
            above,
            armed: true,
            sink,
        });
        token
    }

    /// Removes a subscription by token. Returns its selector, or `None`
    /// when no subscription had that token.
    pub fn unsubscribe(&self, token: u64) -> Option<String> {
        let mut subs = self.subs.lock();
        let at = subs.iter().position(|s| s.token == token)?;
        Some(subs.remove(at).selector)
    }

    /// Removes remote subscriptions matching a listener address and
    /// selector. Returns how many were removed.
    pub fn unsubscribe_remote(&self, selector: &str, listener: &ListenerAddr) -> usize {
        let mut subs = self.subs.lock();
        let before = subs.len();
        subs.retain(|s| {
            !(s.selector == selector && matches!(&s.sink, Delivery::Remote(l) if l == listener))
        });
        before - subs.len()
    }

    /// Returns the deliveries an event should trigger, applying each
    /// subscription's threshold filter.
    pub fn matching(&self, payload: &EventPayload) -> Vec<Delivery> {
        let mut subs = self.subs.lock();
        let mut out = Vec::new();
        for s in subs.iter_mut() {
            if s.wants(payload) {
                out.push(s.sink.clone());
            }
        }
        out
    }

    /// Number of active subscriptions.
    pub fn len(&self) -> usize {
        self.subs.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn profile(service: &str, key: &str, value: f64) -> EventPayload {
        EventPayload::Profile {
            service: service.into(),
            key: key.into(),
            value,
            core: 0,
        }
    }

    #[test]
    fn selector_matching() {
        let e = profile("methodInvokeRate", "c0.1->c0.2", 5.0);
        assert!(e.matches("methodInvokeRate"));
        assert!(e.matches("methodInvokeRate:c0.1->c0.2"));
        assert!(!e.matches("bandwidth"));
        let shutdown = EventPayload::CoreShutdown { core: 3 };
        assert!(shutdown.matches("coreShutdown"));
        assert!(!shutdown.matches("completArrived"));
    }

    #[test]
    fn payload_wire_roundtrip() {
        let cases = [
            EventPayload::CompletArrived {
                id: CompletId::new(1, 2),
                type_name: "T".into(),
                core: 3,
            },
            EventPayload::CompletDeparted {
                id: CompletId::new(1, 2),
                type_name: "T".into(),
                dest: 4,
                core: 3,
            },
            EventPayload::CoreShutdown { core: 9 },
            EventPayload::MoveFailed {
                id: CompletId::new(1, 2),
                dest: 4,
                core: 3,
                error: "remote core did not answer in time".into(),
            },
            profile("completLoad", "", 2.0),
        ];
        for e in cases {
            assert_eq!(EventPayload::from_value(&e.to_value()).unwrap(), e);
        }
    }

    #[test]
    fn journal_entries_reconstruct_layout_events() {
        use fargo_telemetry::Hlc;
        let entry = |kind, subject: &str, object: &str, peer| JournalEvent {
            hlc: Hlc::ZERO,
            core: 2,
            seq: 0,
            kind,
            subject: subject.into(),
            object: object.into(),
            detail: String::new(),
            peer,
        };
        assert_eq!(
            EventPayload::from_journal(&entry(JournalKind::CompletArrived, "c0.1", "T", None)),
            Some(EventPayload::CompletArrived {
                id: CompletId::new(0, 1),
                type_name: "T".into(),
                core: 2,
            })
        );
        assert_eq!(
            EventPayload::from_journal(&entry(JournalKind::CompletDeparted, "c0.1", "T", Some(4))),
            Some(EventPayload::CompletDeparted {
                id: CompletId::new(0, 1),
                type_name: "T".into(),
                dest: 4,
                core: 2,
            })
        );
        // Non-layout kinds and unparsable subjects reconstruct nothing.
        assert_eq!(
            EventPayload::from_journal(&entry(JournalKind::TrackerCreated, "c0.1", "", None)),
            None
        );
        assert_eq!(
            EventPayload::from_journal(&entry(JournalKind::CompletArrived, "bogus", "T", None)),
            None
        );
    }

    #[test]
    fn threshold_filters_per_listener() {
        let hub = EventHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        hub.subscribe(
            "completLoad",
            Some(3.0),
            true,
            Delivery::Local(Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            })),
        );
        // Below threshold: filtered.
        for d in hub.matching(&profile("completLoad", "", 1.0)) {
            if let Delivery::Local(f) = d {
                f(&profile("completLoad", "", 1.0));
            }
        }
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        // Above threshold: delivered.
        assert_eq!(hub.matching(&profile("completLoad", "", 3.5)).len(), 1);
    }

    #[test]
    fn threshold_is_edge_triggered() {
        let hub = EventHub::new();
        hub.subscribe("load", Some(2.0), true, Delivery::Local(Arc::new(|_| {})));
        assert_eq!(hub.matching(&profile("load", "", 5.0)).len(), 1);
        // Still above: no re-fire until it clears.
        assert_eq!(hub.matching(&profile("load", "", 6.0)).len(), 0);
        // Clears…
        assert_eq!(hub.matching(&profile("load", "", 1.0)).len(), 0);
        // …and crosses again: re-fires.
        assert_eq!(hub.matching(&profile("load", "", 4.0)).len(), 1);
    }

    #[test]
    fn below_direction() {
        let hub = EventHub::new();
        hub.subscribe(
            "bandwidth",
            Some(100.0),
            false,
            Delivery::Local(Arc::new(|_| {})),
        );
        assert_eq!(hub.matching(&profile("bandwidth", "", 500.0)).len(), 0);
        assert_eq!(hub.matching(&profile("bandwidth", "", 50.0)).len(), 1);
        // An above listener on the same threshold: every value crosses
        // exactly one of the two, the threshold itself the below one.
        hub.subscribe(
            "bandwidth",
            Some(100.0),
            true,
            Delivery::Local(Arc::new(|_| {})),
        );
        for (value, fired) in [(100.0, 0), (101.0, 1), (100.0, 1), (101.0, 1)] {
            let got = hub.matching(&profile("bandwidth", "", value)).len();
            assert_eq!(got, fired, "at {value}");
        }
    }

    #[test]
    fn unsubscribe_by_token_and_address() {
        let hub = EventHub::new();
        let t = hub.subscribe(
            "coreShutdown",
            None,
            true,
            Delivery::Local(Arc::new(|_| {})),
        );
        let addr = ListenerAddr::Core { node: 1, token: 5 };
        hub.subscribe("coreShutdown", None, true, Delivery::Remote(addr.clone()));
        assert_eq!(hub.len(), 2);
        assert_eq!(hub.unsubscribe(t).as_deref(), Some("coreShutdown"));
        assert_eq!(hub.unsubscribe(t), None);
        assert_eq!(hub.unsubscribe_remote("coreShutdown", &addr), 1);
        assert_eq!(hub.len(), 0);
    }

    #[test]
    fn layout_events_ignore_thresholds() {
        let hub = EventHub::new();
        hub.subscribe(
            "coreShutdown",
            Some(99.0),
            true,
            Delivery::Local(Arc::new(|_| {})),
        );
        assert_eq!(
            hub.matching(&EventPayload::CoreShutdown { core: 0 }).len(),
            1
        );
    }
}
