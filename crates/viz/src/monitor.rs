//! The live layout model and its textual renderer.

use std::collections::BTreeMap;
use std::sync::Arc;

use fargo_core::{CompletId, Core, EventPayload, FargoError, RemoteSubscription, Result};
use parking_lot::Mutex;

/// A point-in-time copy of the monitor's layout model.
pub type LayoutSnapshot = BTreeMap<String, Vec<(CompletId, String)>>;

#[derive(Default)]
struct Model {
    /// core name -> complets (id, type) resident there.
    layout: LayoutSnapshot,
    /// Cores known to have shut down.
    down: Vec<String>,
    /// Recent event lines, newest last (bounded).
    events: Vec<String>,
}

impl Model {
    fn place(&mut self, core: &str, id: CompletId, ty: &str) {
        for complets in self.layout.values_mut() {
            complets.retain(|(cid, _)| *cid != id);
        }
        self.layout
            .entry(core.to_owned())
            .or_default()
            .push((id, ty.to_owned()));
        self.layout.get_mut(core).expect("just inserted").sort();
    }

    fn log(&mut self, line: String) {
        self.events.push(line);
        let overflow = self.events.len().saturating_sub(64);
        if overflow > 0 {
            self.events.drain(..overflow);
        }
    }
}

/// A live, event-driven view of complet layout across a set of Cores —
/// the paper's graphical monitor, textual edition.
pub struct LayoutMonitor {
    core: Core,
    model: Arc<Mutex<Model>>,
    subs: Vec<RemoteSubscription>,
}

impl LayoutMonitor {
    /// Connects to the given Cores: seeds the model with their current
    /// complets and subscribes to their layout events so the view stays
    /// current as complets move.
    ///
    /// # Errors
    ///
    /// Fails if any named Core is unknown or unreachable.
    pub fn attach(core: Core, cores: &[&str]) -> Result<LayoutMonitor> {
        let model = Arc::new(Mutex::new(Model::default()));
        // Seed with the current layout.
        {
            let mut m = model.lock();
            for name in cores {
                let items = core.complets_at(name)?;
                m.layout.insert((*name).to_owned(), {
                    let mut v = items;
                    v.sort();
                    v
                });
            }
        }
        // Subscribe to layout events at every inspected Core.
        let mut subs = Vec::new();
        for name in cores {
            for selector in ["completArrived", "completDeparted", "coreShutdown"] {
                let model2 = model.clone();
                let core2 = core.clone();
                let sub = core.subscribe_at(
                    name,
                    selector,
                    None,
                    true,
                    Arc::new(move |e: &EventPayload| {
                        let mut m = model2.lock();
                        match e {
                            EventPayload::CompletArrived {
                                id,
                                type_name,
                                core,
                            } => {
                                let cname = core2.core_name_of(*core);
                                m.place(&cname, *id, type_name);
                                m.log(format!("{id} arrived at {cname}"));
                            }
                            EventPayload::CompletDeparted { id, dest, core, .. } => {
                                let from = core2.core_name_of(*core);
                                let to = core2.core_name_of(*dest);
                                // Arrival events place it; departure only
                                // logs (avoids races with the arrival).
                                m.log(format!("{id} departed {from} -> {to}"));
                            }
                            EventPayload::CoreShutdown { core } => {
                                let cname = core2.core_name_of(*core);
                                if !m.down.contains(&cname) {
                                    m.down.push(cname.clone());
                                }
                                m.log(format!("{cname} shut down"));
                            }
                            // The other kinds are not subscribed to.
                            _ => {}
                        }
                    }),
                )?;
                subs.push(sub);
            }
        }
        Ok(LayoutMonitor { core, model, subs })
    }

    /// A copy of the current layout model.
    pub fn snapshot(&self) -> LayoutSnapshot {
        self.model.lock().layout.clone()
    }

    /// Recent event lines, oldest first.
    pub fn event_log(&self) -> Vec<String> {
        self.model.lock().events.clone()
    }

    /// The Core currently showing a complet, per the model.
    pub fn core_of(&self, id: CompletId) -> Option<String> {
        let m = self.model.lock();
        m.layout
            .iter()
            .find(|(_, cs)| cs.iter().any(|(cid, _)| *cid == id))
            .map(|(name, _)| name.clone())
    }

    /// Drag-and-drop: relocate a complet from the monitor.
    ///
    /// # Errors
    ///
    /// Propagates movement failures.
    pub fn move_complet(&self, id: CompletId, dest: &str) -> Result<()> {
        self.core.move_complet(id, dest, None)
    }

    /// Inspect a reference's relocator (the monitor's reference
    /// properties dialog).
    ///
    /// # Errors
    ///
    /// Fails when the name is unbound at the attached Core.
    pub fn reference_type(&self, bound_name: &str) -> Result<String> {
        self.core
            .lookup(bound_name)
            .map(|r| r.relocator())
            .ok_or_else(|| FargoError::NameNotBound(bound_name.to_owned()))
    }

    /// Retype a bound reference (the monitor's "change reference type").
    ///
    /// # Errors
    ///
    /// Fails when the name is unbound or the relocator unknown.
    pub fn set_reference_type(&self, bound_name: &str, relocator: &str) -> Result<()> {
        let r = self
            .core
            .lookup(bound_name)
            .ok_or_else(|| FargoError::NameNotBound(bound_name.to_owned()))?;
        self.core.meta_ref(&r).set_relocator(relocator)?;
        self.core.bind(bound_name, &r);
        Ok(())
    }

    /// Renders the current model as a text frame: one box per Core with
    /// its complets, followed by the recent event ticker.
    pub fn render(&self) -> String {
        let m = self.model.lock();
        let mut out = String::new();
        out.push_str("== FarGo layout monitor ==\n");
        for (core, complets) in &m.layout {
            let state = if m.down.contains(core) { " [DOWN]" } else { "" };
            out.push_str(&format!("+-- {core}{state} "));
            out.push_str(&"-".repeat(34usize.saturating_sub(core.len())));
            out.push('\n');
            if complets.is_empty() {
                out.push_str("|   (empty)\n");
            }
            for (id, ty) in complets {
                out.push_str(&format!("|   {id:<10} {ty}\n"));
            }
        }
        out.push_str("+--- events ");
        out.push_str(&"-".repeat(28));
        out.push('\n');
        for line in m.events.iter().rev().take(8).rev() {
            out.push_str(&format!("|   {line}\n"));
        }
        out
    }

    /// Tracker-table view of the attached Core (reference inspection).
    pub fn tracker_lines(&self) -> Vec<String> {
        self.tracker_lines_at(self.core.name()).unwrap_or_default()
    }

    /// Tracker-table view of *any* inspected Core — the Figure 4 pane
    /// that shows complet references wherever they are held.
    ///
    /// # Errors
    ///
    /// Fails when the Core is unknown or unreachable.
    pub fn tracker_lines_at(&self, core_name: &str) -> Result<Vec<String>> {
        Ok(self
            .core
            .trackers_at(core_name)?
            .into_iter()
            .map(|(id, fwd, hits)| {
                let dir = match fwd {
                    None => "local".to_owned(),
                    Some(n) => format!("-> {}", self.core.core_name_of(n)),
                };
                format!("{id} {dir} hits={hits}")
            })
            .collect())
    }

    /// Disconnects from the inspected Cores.
    pub fn detach(self) {
        for s in self.subs {
            s.cancel();
        }
    }
}

impl std::fmt::Debug for LayoutMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayoutMonitor")
            .field("cores", &self.model.lock().layout.len())
            .finish()
    }
}
