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
//! pixels (see DESIGN.md for the substitution rationale).
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
mod observatory;

pub use monitor::{LayoutMonitor, LayoutSnapshot};
pub use observatory::{plan_overlay, render_state, state_to_dot};
