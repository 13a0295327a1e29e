//! # fargo-shell — Core administration from the command line
//!
//! The paper ships "a command-line shell for administering remote Cores"
//! (§5), itself a system complet living outside the Core. This crate is
//! that tool: a command interpreter bound to an admin Core, suitable for
//! embedding in a REPL binary (see `examples/shell.rs` at the workspace
//! root) or driving programmatically.
//!
//! ```
//! # use fargo_core::{Core, CompletRegistry};
//! # use simnet::{Network, NetworkConfig};
//! use fargo_shell::Shell;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let net = Network::new(NetworkConfig::default());
//! # let registry = CompletRegistry::new();
//! # let admin = Core::builder(&net, "admin").registry(&registry).spawn()?;
//! let shell = Shell::new(admin.clone());
//! let out = shell.exec("cores")?;
//! assert!(out.contains("admin"));
//! # admin.stop();
//! # Ok(())
//! # }
//! ```

mod command;
mod slo;

pub use command::{Shell, ShellError};
pub use slo::SLO_RULES;
