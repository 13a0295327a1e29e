//! # fargo-core — the FarGo-RS runtime
//!
//! A Rust reproduction of the runtime described in *"System Support for
//! Dynamic Layout of Distributed Applications"* (Holder, Ben-Shaul,
//! Gazit; ICDCS 1999): **dynamic layout** — relocating the components of
//! a distributed application among hosts *while it runs* — programmed
//! separately from application logic.
//!
//! The pieces, mirroring the paper's architecture (Figure 1):
//!
//! * [`Core`] — the stationary per-host runtime: complet repository,
//!   naming, events, monitoring, and the peer interface (over
//!   [`simnet`]).
//! * [`Complet`] — the unit of composition and relocation, defined with
//!   [`define_complet!`].
//! * [`CompletRef`] / [`BoundRef`] / [`MetaRef`] — complet references
//!   with relocation semantics ([`Relocator`]s: `link`, `pull`,
//!   `duplicate`, `stamp`, and user extensions), realised by the
//!   stub/tracker split with chain shortening.
//! * [`Monitor`] — system and application profiling (instant + continuous
//!   interfaces) feeding threshold events.
//!
//! ## Quick start
//!
//! ```
//! use fargo_core::{define_complet, Core, CompletRegistry};
//! use fargo_wire::Value;
//! use simnet::{Network, NetworkConfig};
//!
//! define_complet! {
//!     pub complet Message {
//!         state { text: String = "hello fargo".to_owned() }
//!         fn print(&mut self, _ctx, _args) {
//!             Ok(Value::from(self.text.as_str()))
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), fargo_core::FargoError> {
//! let net = Network::new(NetworkConfig::default());
//! let registry = CompletRegistry::new();
//! Message::register(&registry);
//!
//! let everest = Core::builder(&net, "everest").registry(&registry).spawn()?;
//! let acadia = Core::builder(&net, "acadia").registry(&registry).spawn()?;
//!
//! let msg = everest.new_complet("Message", &[])?;
//! msg.move_to("acadia")?; // relocate, then invoke transparently
//! assert_eq!(msg.call("print", &[])?, Value::from("hello fargo"));
//! # everest.stop(); acadia.stop();
//! # Ok(())
//! # }
//! ```

mod carrier;
mod complet;
mod config;
mod ctx;
mod error;
mod events;
mod macros;
mod monitor;
mod proto;
mod reference;
mod runtime;
mod telemetry;

pub use carrier::Carrier;
pub use complet::{Complet, CompletRegistry, StateValue};
pub use config::CoreConfig;
pub use ctx::Ctx;
pub use error::{FargoError, Result};
pub use events::{EventHandler, EventPayload};
#[doc(hidden)]
pub use macros::{__FieldKeys, __marshal_fields};
pub use monitor::{Ewma, Monitor, Service};
pub use reference::{
    ArrivalAction, CompletRef, MarshalAction, MetaRef, Relocator, RelocatorRegistry,
    TrackerSnapshot, TrackerTarget,
};
pub use runtime::{
    BoundRef, Checkpoint, Core, CoreBuilder, LatencySummary, LocateReport, PendingCall,
    RecoveryReport, RemoteSubscription, ResolveVia, DEDUP_CACHE_MAX_BYTES, DEDUP_CACHE_MAX_ENTRIES,
};

// Re-exported so `define_complet!` expansions and user code agree on the
// value/id types without importing `fargo-wire` separately.
pub use fargo_wire::{CompletId, RefDescriptor, Value};

pub use fargo_telemetry::{
    render_journal_json, render_matrix, render_slow_log, render_span_tree, AccountRecord, Anomaly,
    AnomalyThresholds, Clock, Hlc, JournalEvent, JournalKind, LayoutHistory, LayoutState,
    MatrixCell, MetricValue, Registry as TelemetryRegistry, SlowRecord, Snapshot as MetricSnapshot,
    SpanRecord, TraceContext,
};
