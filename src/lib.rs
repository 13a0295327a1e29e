//! # fargo — dynamic layout of distributed applications
//!
//! FarGo-RS is a Rust reproduction of **FarGo** (*"System Support for
//! Dynamic Layout of Distributed Applications"*, Holder, Ben-Shaul,
//! Gazit; ICDCS 1999): a runtime in which the components of a distributed
//! application — *complets* — can be relocated among hosts **while the
//! application runs**, with relocation policy programmed separately from
//! application logic.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`core`] | the Core runtime: complets, references, movement, invocation, naming, events, monitoring |
//! | [`wire`] | the marshal layer: `Value` graphs, ids, the binary codec |
//! | [`simnet`] | the simulated network substrate (links, latency/bandwidth, partitions) |
//! | [`layout`] | the adaptive layout planner: affinity graph, partitioner, closed-loop executor |
//! | [`script`] | the §4.3 layout scripting language |
//! | [`shell`] | the administration shell |
//! | [`viz`] | the textual layout monitor (Figure 4) |
//!
//! ## Quick start
//!
//! ```
//! use fargo::prelude::*;
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
//! # fn main() -> Result<(), FargoError> {
//! let net = Network::new(NetworkConfig::default());
//! let registry = CompletRegistry::new();
//! Message::register(&registry);
//!
//! let everest = Core::builder(&net, "everest").registry(&registry).spawn()?;
//! let acadia = Core::builder(&net, "acadia").registry(&registry).spawn()?;
//!
//! let msg = everest.new_complet("Message", &[])?;
//! msg.move_to("acadia")?;
//! assert_eq!(msg.call("print", &[])?, Value::from("hello fargo"));
//! # everest.stop(); acadia.stop();
//! # Ok(())
//! # }
//! ```

pub use fargo_core as core;
pub use fargo_layout as layout;
pub use fargo_naming as naming;
pub use fargo_script as script;
pub use fargo_shell as shell;
pub use fargo_viz as viz;
pub use fargo_wire as wire;
pub use simnet;

/// The common imports of a FarGo-RS application.
pub mod prelude {
    pub use fargo_core::{
        define_complet, BoundRef, Carrier, Complet, CompletId, CompletRef, CompletRegistry, Core,
        CoreConfig, Ctx, EventPayload, FargoError, MetaRef, RefDescriptor, Relocator,
        RelocatorRegistry, Service, StateValue, Value,
    };
    pub use fargo_script::{ScriptEngine, ScriptValue};
    pub use fargo_shell::Shell;
    pub use fargo_viz::LayoutMonitor;
    pub use simnet::{LinkConfig, Network, NetworkConfig, Topology};
}
