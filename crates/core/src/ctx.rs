//! The execution context handed to complet code.
//!
//! A [`Ctx`] is created by the Core for every method invocation and
//! lifecycle callback. It is the complet's window onto the runtime: making
//! outgoing calls, using naming and monitoring, and requesting moves.
//!
//! # Self-movement and weak mobility
//!
//! FarGo provides *weak* mobility: a complet's stack never moves (§3.3).
//! A complet therefore cannot relocate mid-method; instead,
//! [`Ctx::move_self`] (and friends) record a **deferred** move that the
//! Core executes as soon as the current invocation returns, optionally
//! invoking a continuation method at the destination — the paper's
//! "call with continuation" style.

use fargo_wire::{CompletId, Value};

use crate::error::Result;
use crate::reference::CompletRef;
use crate::runtime::Core;

/// A move of the invoking complet recorded during an invocation, executed
/// after it.
#[derive(Debug, Clone)]
pub(crate) struct DeferredMove {
    /// Destination Core name.
    pub dest: String,
    /// Optional continuation: `(method, args)` invoked on the moved
    /// complet once it arrives.
    pub continuation: Option<(String, Vec<Value>)>,
}

/// Per-invocation context: the complet's interface to its Core.
pub struct Ctx {
    core: Core,
    self_id: CompletId,
    self_type: String,
    chain: Vec<CompletId>,
    pub(crate) deferred: Vec<DeferredMove>,
}

impl Ctx {
    pub(crate) fn new(
        core: Core,
        self_id: CompletId,
        self_type: String,
        chain: Vec<CompletId>,
    ) -> Self {
        Ctx {
            core,
            self_id,
            self_type,
            chain,
            deferred: Vec::new(),
        }
    }

    /// The Core currently hosting this complet.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// This complet's identity.
    pub fn self_id(&self) -> CompletId {
        self.self_id
    }

    /// A reference to this complet (its own anchor), suitable for passing
    /// to other complets or binding in the naming service.
    pub fn self_ref(&self) -> CompletRef {
        self.core.make_ref(self.self_id, &self.self_type)
    }

    /// The synchronous call chain that led here (own id last).
    pub fn chain(&self) -> &[CompletId] {
        &self.chain
    }

    /// Invokes a method through a complet reference.
    ///
    /// Parameters follow the paper's semantics: argument [`Value`] trees
    /// are passed by value, and any complet references inside them are
    /// degraded to `link` at the receiving side (§3.1).
    ///
    /// # Errors
    ///
    /// Fails with
    /// [`FargoError::ReentrantInvocation`](crate::FargoError::ReentrantInvocation)
    /// if the target is already on this call chain, or with any
    /// invocation error.
    pub fn call(&self, target: &CompletRef, method: &str, args: &[Value]) -> Result<Value> {
        // An inter-complet call is the observatory's evidence of a live
        // reference edge: journaled before the edge's first use at this
        // Core (the call-edge table says whether it has been used) — a
        // layout fact once, not a record of every call.
        let t = &self.core.inner.telemetry;
        if t.edges.invokes((self.self_id, target.id())) == 0 {
            t.journal(
                fargo_telemetry::JournalKind::RefEdgeCreated,
                &self.self_id,
                &target.id().to_string(),
                &target.relocator(),
                None,
            );
        }
        self.core
            .invoke_chained(target, method, args, self.chain.clone())
    }

    /// Requests relocation of this complet to `dest` once the current
    /// invocation returns.
    pub fn move_self(&mut self, dest: &str) {
        self.deferred.push(DeferredMove {
            dest: dest.to_owned(),
            continuation: None,
        });
    }

    /// Like [`Ctx::move_self`], with a continuation method invoked on
    /// this complet after it arrives — the mobile-agent itinerary idiom.
    pub fn move_self_with(&mut self, dest: &str, method: &str, args: Vec<Value>) {
        self.deferred.push(DeferredMove {
            dest: dest.to_owned(),
            continuation: Some((method.to_owned(), args)),
        });
    }

    /// Registers this complet as a listener for events at its own Core.
    /// Notifications arrive as `on_event(payload)` invocations and keep
    /// following the complet when it moves.
    pub fn subscribe_self(&self, selector: &str, threshold: Option<f64>, above: bool) {
        self.core
            .subscribe_complet(selector, threshold, above, self.self_ref());
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("self_id", &self.self_id)
            .field("chain", &self.chain)
            .field("deferred", &self.deferred.len())
            .finish()
    }
}
