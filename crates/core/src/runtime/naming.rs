//! The naming service: logical names → complet references.
//!
//! Part of the Core's Complet Repository (Figure 1). Bindings are
//! per-Core; a binding travels with its complet when the complet moves
//! (see the movement unit), and lookups can be issued against remote
//! Cores.

use fargo_wire::Value;

use crate::error::{FargoError, Result};
use crate::proto::{Reply, Request};
use crate::reference::CompletRef;
use crate::runtime::{BoundRef, Core};

impl Core {
    /// Binds `name` to a complet reference in this Core's naming service,
    /// replacing any previous binding of that name.
    pub fn bind(&self, name: &str, r: &CompletRef) {
        self.inner
            .naming
            .lock()
            .insert(name.to_owned(), r.descriptor());
    }

    /// Resolves a local binding.
    pub fn lookup(&self, name: &str) -> Option<CompletRef> {
        self.inner
            .naming
            .lock()
            .get(name)
            .cloned()
            .map(CompletRef::from_descriptor)
    }

    /// Resolves a binding and returns it pre-bound to this Core.
    ///
    /// # Errors
    ///
    /// Returns [`FargoError::NameNotBound`] when the name is unbound.
    pub fn lookup_stub(&self, name: &str) -> Result<BoundRef> {
        self.lookup(name)
            .map(|r| self.stub(r))
            .ok_or_else(|| FargoError::NameNotBound(name.to_owned()))
    }

    /// Removes a binding; returns the reference it held.
    pub fn unbind(&self, name: &str) -> Option<CompletRef> {
        self.inner
            .naming
            .lock()
            .remove(name)
            .map(CompletRef::from_descriptor)
    }

    /// All `(name, reference)` bindings of this Core, sorted by name.
    pub fn bindings(&self) -> Vec<(String, CompletRef)> {
        let naming = self.inner.naming.lock();
        let mut out: Vec<(String, CompletRef)> = naming
            .iter()
            .map(|(n, d)| (n.clone(), CompletRef::from_descriptor(d.clone())))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Resolves a binding in a **remote** Core's naming service.
    ///
    /// # Errors
    ///
    /// Fails when the Core is unknown/unreachable or the name is unbound.
    pub fn lookup_at(&self, core_name: &str, name: &str) -> Result<BoundRef> {
        if core_name == self.inner.name {
            return self.lookup_stub(name);
        }
        let node = self.core_index(core_name)?;
        match self.rpc(
            node,
            Request::NameLookup {
                name: name.to_owned(),
            },
        )? {
            Reply::NameOk { desc: Some(d) } => Ok(self.stub(CompletRef::from_descriptor(d))),
            Reply::NameOk { desc: None } => Err(FargoError::NameNotBound(name.to_owned())),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Convenience: instantiate a complet and bind it in one step.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn new_named_complet(
        &self,
        name: &str,
        type_name: &str,
        args: &[Value],
    ) -> Result<BoundRef> {
        let b = self.new_complet(type_name, args)?;
        self.bind(name, b.complet_ref());
        Ok(b)
    }
}
