//! # fargo-viz — the layout monitor
//!
//! The paper's graphical monitor (Figure 4) connects to multiple Cores,
//! shows in real time which complets reside in which Cores (listening to
//! layout events at the inspected Cores), and lets the administrator move
//! complets and inspect/retype references.
//!
//! This crate reproduces the monitor's *system-facing* behaviour for a
//! headless environment: the same live, event-driven layout model and the
//! same manipulation operations, rendered as text frames instead of
//! pixels (see DESIGN.md for the substitution rationale). It holds only
//! that monitor: the frame with its event ticker, drag-to-move,
//! reference inspection and retyping, and the tracker pane. Every other
//! operator view (the layout reconstructed from the journal, plans,
//! metrics, slow requests, heavy hitters) has its one renderer in the
//! shell.
//!
//! ```
//! # use fargo_core::{Core, CompletRegistry};
//! # use simnet::{Network, NetworkConfig};
//! use fargo_viz::LayoutMonitor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let net = Network::new(NetworkConfig::default());
//! # let registry = CompletRegistry::new();
//! # let core = Core::builder(&net, "everest").registry(&registry).spawn()?;
//! let monitor = LayoutMonitor::attach(core.clone(), &["everest"])?;
//! let frame = monitor.render();
//! assert!(frame.contains("everest"));
//! # monitor.detach(); core.stop();
//! # Ok(())
//! # }
//! ```

mod monitor;

pub use monitor::{LayoutMonitor, LayoutSnapshot};
