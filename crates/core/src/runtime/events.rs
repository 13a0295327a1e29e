//! Event subscriptions, delivery and the profiling they start (§4.2).

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::error::{FargoError, Result};
use crate::events::{Delivery, EventHandler, EventPayload};
use crate::monitor::Service;
use crate::proto::{ListenerAddr, Notify, Reply, Request};
use crate::reference::CompletRef;
use crate::runtime::dispatch::Job;
use crate::runtime::Core;

impl Core {
    /// Number of active event subscriptions at this Core.
    pub fn subscription_count(&self) -> usize {
        self.inner.hub.len()
    }

    /// Registers a local listener for this Core's events; returns a token
    /// for [`Core::unsubscribe`].
    ///
    /// Subscribing to a profiling-service selector implicitly starts
    /// continuous profiling of that service, as in §4.2: "the event
    /// registration mechanism invokes the proper start method".
    pub fn on_event(
        &self,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        handler: EventHandler,
    ) -> u64 {
        self.start_profiling_for_selector(selector);
        let sink = Delivery::Local(handler);
        self.inner.hub.subscribe(selector, threshold, above, sink)
    }

    /// If the selector names a profiling service, begin continuous
    /// profiling so the corresponding events are produced.
    ///
    /// The implicit sampling interval is ten monitor ticks — coarse
    /// enough that sporadic traffic does not alias into rate spikes; an
    /// explicit [`Core::profile_start`] with a finer interval tightens it.
    pub(super) fn start_profiling_for_selector(&self, selector: &str) {
        if let Ok(service) = Service::parse(selector) {
            self.inner.monitor.start(
                service,
                (self.inner.config.monitor_tick * 10).max(Duration::from_millis(1)),
            );
        }
    }

    pub(super) fn stop_profiling_for_selector(&self, selector: &str) {
        if let Ok(service) = Service::parse(selector) {
            self.inner.monitor.stop(&service);
        }
    }

    /// Removes a local subscription, and releases the profiling its
    /// selector started. Returns whether the subscription existed.
    pub fn unsubscribe(&self, token: u64) -> bool {
        let Some(selector) = self.inner.hub.unsubscribe(token) else {
            return false;
        };
        self.stop_profiling_for_selector(&selector);
        true
    }

    /// Registers a complet as a listener at this Core. Delivery is an
    /// `on_event` invocation through the reference, so it follows the
    /// listener when it moves (distributed events, §4.2).
    pub fn subscribe_complet(
        &self,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        listener: CompletRef,
    ) -> u64 {
        self.start_profiling_for_selector(selector);
        let sink = Delivery::Remote(ListenerAddr::Complet(listener.descriptor()));
        self.inner.hub.subscribe(selector, threshold, above, sink)
    }

    /// Subscribes a local handler to events fired by a **remote** Core.
    ///
    /// # Errors
    ///
    /// Fails if the remote Core is unknown or unreachable.
    pub fn subscribe_at(
        &self,
        core_name: &str,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        handler: EventHandler,
    ) -> Result<RemoteSubscription> {
        if core_name == self.inner.name {
            let token = self.on_event(selector, threshold, above, handler);
            return Ok(RemoteSubscription {
                core: self.clone(),
                peer: None,
                token,
                selector: selector.to_owned(),
            });
        }
        let node = self.resolve_core(core_name)?;
        let token = self.inner.sink_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.sinks.lock().insert(token, handler);
        let listener = ListenerAddr::Core {
            node: self.inner.node.index(),
            token,
        };
        let error = match self.rpc(
            node,
            Request::Subscribe {
                selector: selector.to_owned(),
                threshold,
                above,
                listener,
            },
        ) {
            Ok(Reply::Ok) => {
                return Ok(RemoteSubscription {
                    core: self.clone(),
                    peer: Some(node),
                    token,
                    selector: selector.to_owned(),
                })
            }
            Ok(Reply::Err(e)) | Err(e) => e,
            Ok(other) => FargoError::Protocol(format!("unexpected reply {other:?}")),
        };
        // No subscription stands: the sink would never be cancelled.
        self.inner.sinks.lock().remove(&token);
        Err(error)
    }

    /// Fires an event: delivers to every matching listener without
    /// waiting (the paper's asynchronous notification), a local or
    /// complet listener as a worker-pool task, only counted if shed.
    pub(crate) fn fire_event(&self, payload: EventPayload) {
        for delivery in self.inner.hub.matching(&payload) {
            match delivery {
                Delivery::Local(handler) => {
                    let p = payload.clone();
                    self.submit(Job::Task(Box::new(move |_| handler(&p))));
                }
                Delivery::Remote(ListenerAddr::Core { node, token }) => {
                    let payload = payload.clone();
                    let _ = self.send_notify(node, &Notify::Event { token, payload });
                }
                Delivery::Remote(ListenerAddr::Complet(desc)) => {
                    let p = payload.clone();
                    self.submit(Job::Task(Box::new(move |core| {
                        let r = CompletRef::from_descriptor(desc);
                        let _ = core.invoke(&r, "on_event", &[p.to_value()]);
                    })));
                }
            }
        }
    }

    /// Instant measurement of a profiling service (cached, §4.1).
    ///
    /// # Errors
    ///
    /// Fails when the service cannot be measured on this Core.
    pub fn profile_instant(&self, service: &Service) -> Result<f64> {
        self.inner.monitor.instant(service)
    }

    /// Starts continuous profiling of a service.
    pub fn profile_start(&self, service: Service, interval: Duration) {
        self.inner.monitor.start(service, interval);
    }

    /// Current exponential average of a continuously profiled service.
    pub fn profile_get(&self, service: &Service) -> Option<f64> {
        self.inner.monitor.get(service)
    }

    /// Releases interest in a continuously profiled service.
    pub fn profile_stop(&self, service: &Service) {
        self.inner.monitor.stop(service);
    }
}

/// A handle for cancelling a subscription made with [`Core::subscribe_at`].
#[derive(Debug)]
pub struct RemoteSubscription {
    core: Core,
    /// `None` when the subscription was local after all.
    peer: Option<u32>,
    token: u64,
    selector: String,
}

impl RemoteSubscription {
    /// Cancels the subscription on both sides.
    pub fn cancel(self) {
        match self.peer {
            None => {
                self.core.unsubscribe(self.token);
            }
            Some(node) => {
                self.core.inner.sinks.lock().remove(&self.token);
                let listener = ListenerAddr::Core {
                    node: self.core.inner.node.index(),
                    token: self.token,
                };
                let _ = self.core.rpc(
                    node,
                    Request::Unsubscribe {
                        selector: self.selector.clone(),
                        listener,
                    },
                );
            }
        }
    }
}
