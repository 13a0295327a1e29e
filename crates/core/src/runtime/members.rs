//! The cluster directory: who this Core's peers are, what they are
//! called, whether they are up and what a link between two costs. After
//! [`CoreBuilder::spawn`](super::CoreBuilder::spawn) only this module
//! reads or writes the network behind the Core: [`Directory`] keeps it
//! in a private field, so membership has one place to change.

pub use simnet::{LinkConfig, LinkStats};
use simnet::{Network, NodeId};

use super::Core;
use crate::error::{FargoError, Result};

/// One Core of the cluster, as the directory lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// The node index requests, trackers and shards name it by.
    pub index: u32,
    /// Its registered name.
    pub name: String,
    /// False once it has stopped.
    pub up: bool,
}

/// What the directory knows of one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkView {
    /// What crossed the link, and the latency the Cores measured on it.
    pub stats: LinkStats,
    /// The model as configured; `None` when the link has none.
    pub model: Option<LinkConfig>,
    /// `model`'s latency after the network's time scale (what a probe sees).
    pub model_latency: Option<std::time::Duration>,
}

/// The network behind a Core's directory, out of reach outside this module.
pub(crate) struct Directory(Network);

pub(crate) fn directory(net: &Network) -> Directory {
    Directory(net.clone())
}

impl Core {
    /// Every Core of the cluster, in node order (the order peers are asked in).
    pub fn members(&self) -> Vec<Member> {
        let net = &self.inner.directory.0;
        let member = |id: NodeId| Member {
            index: id.index(),
            name: self.core_name_of(id.index()),
            up: net.node_up(id).unwrap_or(false),
        };
        net.node_ids().into_iter().map(member).collect()
    }

    /// The node index of every member, in node order.
    pub(crate) fn member_indices(&self) -> Vec<u32> {
        let ids = self.inner.directory.0.node_ids().into_iter();
        ids.map(|n| n.index()).collect()
    }

    /// The node index of the Core named `name`
    /// ([`FargoError::UnknownCore`] when no member is).
    pub fn core_index(&self, name: &str) -> Result<u32> {
        let node = self.inner.directory.0.node_by_name(name);
        node.map(|n| n.index())
            .ok_or_else(|| FargoError::UnknownCore(name.to_owned()))
    }

    /// The name of the Core at a node index.
    pub fn core_name_of(&self, node: u32) -> String {
        let name = self.inner.directory.0.node_name(NodeId::from_index(node));
        name.unwrap_or_else(|_| format!("n{node}"))
    }

    /// The directed link `src -> dst`: its traffic and its model.
    pub fn link(&self, src: u32, dst: u32) -> LinkView {
        let (s, d) = (NodeId::from_index(src), NodeId::from_index(dst));
        let net = &self.inner.directory.0;
        let model = net.link_config(s, d).ok();
        LinkView {
            stats: net.link_stats(s, d),
            model_latency: model.as_ref().map(|m| net.scaled(m.latency)),
            model,
        }
    }

    /// Feeds the one-way latency (µs) of an envelope from `src` to its link.
    pub(crate) fn record_link_latency(&self, src: u32, us: u64) {
        let (src, dst) = (NodeId::from_index(src), self.inner.node);
        self.inner.directory.0.record_observed_latency(src, dst, us);
    }

    /// Marks this Core down, so peers' sends to it start refusing.
    pub(crate) fn mark_down(&self) {
        let _ = self.inner.directory.0.set_node_up(self.inner.node, false);
    }
}
