//! The default SLO rules: policy held as a layout script, not as code
//! (§4.3).
//!
//! Each rule watches one of the Core's SLO monitor services
//! (`invokeP99`, `errorRate`, `shedRate`, `moveFailureRate`) through the
//! same continuous profiling and per-listener thresholds every other
//! service uses (§4.1–4.2). Its two `on` lines call the `alert` action
//! defined here, which keeps the firing `(core, rule)` pairs for
//! `health` and journals each edge as [`JournalKind::Alert`] for
//! `alerts`.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use fargo_core::{Core, JournalKind};
use fargo_script::{parse, Action, ActionCtx, Expr, ScriptEngine, ScriptError, ScriptValue, Stmt};

/// The shipped rule script (`slo.fargo`); `%1` lists the Cores to watch.
pub const SLO_RULES: &str = include_str!("slo.fargo");

/// The `(core, rule)` pairs whose alert is firing.
type Firing = Arc<Mutex<BTreeSet<(String, String)>>>;

/// The SLO rules as one shell runs them.
#[derive(Default)]
pub(crate) struct Slo {
    /// The Cores the rules watch, once loaded.
    cores: Mutex<Option<Vec<String>>>,
    firing: Firing,
}

impl Slo {
    /// Registers the `alert` action on the shell's engine; loads nothing.
    pub(crate) fn new(engine: &ScriptEngine) -> Slo {
        let slo = Slo::default();
        engine.register_action("alert", Arc::new(alert_action(slo.firing.clone())));
        slo
    }

    /// Loads the rules at every Core that is up, once; returns the Cores
    /// they watch. Until then no Core samples an SLO service.
    pub(crate) fn watch(
        &self,
        core: &Core,
        engine: &ScriptEngine,
    ) -> Result<Vec<String>, ScriptError> {
        let mut watched = self.cores.lock().expect("slo cores");
        if let Some(cores) = &*watched {
            return Ok(cores.clone());
        }
        let cores = cores_up(core);
        let list = ScriptValue::List(cores.iter().cloned().map(ScriptValue::Str).collect());
        engine.load(SLO_RULES, vec![list])?;
        *watched = Some(cores.clone());
        Ok(cores)
    }

    /// The `health` pane: per watched Core, one row for each rule of the
    /// script — an `on` line without `below` whose action is
    /// `alert "<rule>" …` — FIRING or ok.
    pub(crate) fn render(&self, cores: &[String]) -> String {
        let script = parse(SLO_RULES).expect("the shipped SLO script parses");
        let firing = self.firing.lock().expect("firing set");
        let mut out = String::new();
        for core in cores {
            for stmt in &script.stmts {
                let Stmt::Rule(rule) = stmt else { continue };
                let Some(Action::Custom { args, .. }) = rule.actions.first() else {
                    continue;
                };
                let (false, [Expr::Str(alert), ..]) = (rule.event.below, args.as_slice()) else {
                    continue;
                };
                let is_firing = firing.contains(&(core.clone(), alert.clone()));
                let state = if is_firing { "FIRING" } else { "ok" };
                let threshold = rule.event.threshold.unwrap_or(0.0);
                let watch = format!("{}({threshold})", rule.event.name);
                writeln!(out, "{core:<12} {alert:<20} {state:<6} {watch}")
                    .expect("write to string");
            }
        }
        out
    }
}

/// The names of the Cores that are up: the `%1` a shipped rule script
/// is loaded with.
pub(crate) fn cores_up(core: &Core) -> Vec<String> {
    let net = core.network();
    net.node_ids()
        .into_iter()
        .filter(|&n| net.node_up(n).unwrap_or(false))
        .filter_map(|n| net.node_name(n).ok())
        .collect()
}

/// The `alert <rule> firing|resolved <core>` action. An edge that
/// repeats the pair's state is dropped — so a pair that was not firing
/// does not resolve — and every other one is journaled at the shell's
/// Core: subject the rule, object the new state, the firing Core as
/// peer.
fn alert_action(
    firing: Firing,
) -> impl Fn(&ActionCtx, &[ScriptValue]) -> Result<(), ScriptError> + Send + Sync + 'static {
    move |ctx, args| {
        let [ScriptValue::Str(rule), ScriptValue::Str(state), ScriptValue::Str(core)] = args else {
            return Err(ScriptError::TypeMismatch {
                expected: "alert <rule> firing|resolved <core>",
                got: format!("{args:?}"),
            });
        };
        let pair = (core.clone(), rule.clone());
        let edge = match state.as_str() {
            "firing" => firing.lock().expect("firing set").insert(pair),
            "resolved" => firing.lock().expect("firing set").remove(&pair),
            _ => {
                return Err(ScriptError::TypeMismatch {
                    expected: "firing or resolved",
                    got: state.clone(),
                })
            }
        };
        if edge {
            let detail = format!("{core} value={:.4}", ctx.value.unwrap_or(0.0));
            let peer = ctx.core.network().node_by_name(core).map(|n| n.index());
            ctx.core
                .journal_note(JournalKind::Alert, rule, state, &detail, peer);
        }
        Ok(())
    }
}
