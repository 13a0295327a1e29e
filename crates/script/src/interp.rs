//! The script interpreter: rule installation and action execution.

use std::collections::HashMap;
use std::sync::Arc;

use fargo_core::{Core, EventPayload, RemoteSubscription};
use parking_lot::{Mutex, RwLock};

use crate::ast::{Action, EventSpec, Expr, Rule, Script, Stmt};
use crate::error::ScriptError;
use crate::parser::parse;
use crate::value::ScriptValue;

/// A user-registered action implementation (the paper's "user-defined
/// class, automatically loaded upon its invocation").
pub type ActionHandler =
    Arc<dyn Fn(&ActionCtx, &[ScriptValue]) -> Result<(), ScriptError> + Send + Sync + 'static>;

/// What an executing action can see and do.
pub struct ActionCtx {
    /// The admin Core the engine is attached to; all layout commands are
    /// issued through it.
    pub core: Core,
    /// Name of the Core that fired the triggering event.
    pub fired_core: String,
    /// The averaged value for profile events.
    pub value: Option<f64>,
    log: Arc<Mutex<Vec<String>>>,
}

impl ActionCtx {
    /// Appends a line to the script's log (also what the `log` built-in
    /// action does).
    pub fn log(&self, line: impl Into<String>) {
        self.log.lock().push(line.into());
    }
}

/// The scripting engine: attach to an admin Core, then [`load`] scripts.
///
/// [`load`]: ScriptEngine::load
pub struct ScriptEngine {
    core: Core,
    actions: Arc<RwLock<HashMap<String, ActionHandler>>>,
    log: Arc<Mutex<Vec<String>>>,
}

impl ScriptEngine {
    /// Creates an engine issuing its commands through `core`.
    pub fn new(core: Core) -> Self {
        ScriptEngine {
            core,
            actions: Arc::new(RwLock::new(HashMap::new())),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Registers a custom action usable from scripts by name.
    pub fn register_action(&self, name: &str, handler: ActionHandler) {
        self.actions.write().insert(name.to_owned(), handler);
    }

    /// Whether a custom action is registered under `name`.
    pub fn has_action(&self, name: &str) -> bool {
        self.actions.read().contains_key(name)
    }

    /// Lines produced by `log` actions and rule failures, oldest first.
    pub fn log_lines(&self) -> Vec<String> {
        self.log.lock().clone()
    }

    /// Parses `src`, evaluates its assignments with the given positional
    /// parameters (`%1` is `params[0]`), and installs its rules as live
    /// event subscriptions.
    ///
    /// # Errors
    ///
    /// Fails on lex/parse errors, unresolvable expressions, or
    /// subscription failures; nothing stays installed on failure.
    pub fn load(&self, src: &str, params: Vec<ScriptValue>) -> Result<LoadedScript, ScriptError> {
        let script = parse(src)?;
        self.install(script, params)
    }

    fn install(
        &self,
        script: Script,
        params: Vec<ScriptValue>,
    ) -> Result<LoadedScript, ScriptError> {
        let mut env: HashMap<String, ScriptValue> = HashMap::new();
        let mut subs: Vec<RemoteSubscription> = Vec::new();
        let mut installed = LoadedScript {
            subs: Vec::new(),
            env: HashMap::new(),
            log: self.log.clone(),
        };
        for stmt in script.stmts {
            match stmt {
                Stmt::Assign { name, value } => {
                    let v = self.eval(&value, &env, &params)?;
                    env.insert(name, v);
                }
                Stmt::Rule(rule) => match self.install_rule(&rule, &env, &params) {
                    Ok(mut s) => subs.append(&mut s),
                    Err(e) => {
                        // Roll back everything installed so far.
                        for s in subs {
                            s.cancel();
                        }
                        return Err(e);
                    }
                },
            }
        }
        installed.subs = subs;
        installed.env = env;
        Ok(installed)
    }

    /// Resolves a rule's event selector, threshold, and listen set, then
    /// subscribes at each Core.
    fn install_rule(
        &self,
        rule: &Rule,
        env: &HashMap<String, ScriptValue>,
        params: &[ScriptValue],
    ) -> Result<Vec<RemoteSubscription>, ScriptError> {
        let (selector, default_listen) = self.resolve_event(&rule.event, env, params)?;

        let listen_cores: Vec<String> = match &rule.listen_at {
            Some(expr) => match self.eval(expr, env, params)? {
                ScriptValue::Str(s) => vec![s],
                ScriptValue::List(items) => items
                    .iter()
                    .map(|v| v.as_core_name().map(str::to_owned))
                    .collect::<Result<Vec<_>, _>>()?,
                other => {
                    return Err(ScriptError::TypeMismatch {
                        expected: "a core name or list of core names",
                        got: other.type_name().to_owned(),
                    })
                }
            },
            None => vec![default_listen],
        };

        let handler = self.rule_handler(rule, env, params);
        let mut subs = Vec::new();
        for core_name in listen_cores {
            let sub = self
                .core
                .subscribe_at(
                    &core_name,
                    &selector,
                    rule.event.threshold,
                    !rule.event.below,
                    handler.clone(),
                )
                .map_err(ScriptError::from)?;
            subs.push(sub);
        }
        Ok(subs)
    }

    /// Maps a script event spec to a Core event selector, and computes
    /// the default Core to listen at.
    fn resolve_event(
        &self,
        event: &EventSpec,
        env: &HashMap<String, ScriptValue>,
        params: &[ScriptValue],
    ) -> Result<(String, String), ScriptError> {
        let my_name = self.core.name().to_owned();
        match event.name.as_str() {
            "shutdown" => Ok(("coreShutdown".to_owned(), my_name)),
            "arrived" => Ok(("completArrived".to_owned(), my_name)),
            "departed" => Ok(("completDeparted".to_owned(), my_name)),
            "methodInvokeRate" => {
                let from = event.from.as_ref().ok_or(ScriptError::TypeMismatch {
                    expected: "a 'from' complet on methodInvokeRate",
                    got: "nothing".to_owned(),
                })?;
                let to = event.to.as_ref().ok_or(ScriptError::TypeMismatch {
                    expected: "a 'to' complet on methodInvokeRate",
                    got: "nothing".to_owned(),
                })?;
                let src = self.eval(from, env, params)?.as_complet()?;
                let dst = self.eval(to, env, params)?.as_complet()?;
                let selector = format!("methodInvokeRate:{}->{}", src.id(), dst.id());
                // The rate along a reference is observed at the Core
                // hosting the reference's source.
                let host = self.core.locate(src.id()).map_err(ScriptError::from)?;
                Ok((selector, self.core.core_name_of(host)))
            }
            "bandwidth" | "latency" => {
                let towards = event.towards.as_ref().ok_or(ScriptError::TypeMismatch {
                    expected: "a 'towards' core on bandwidth/latency",
                    got: "nothing".to_owned(),
                })?;
                let peer_name = self.eval(towards, env, params)?;
                let peer_name = peer_name.as_core_name()?;
                let node = self.core.network().node_by_name(peer_name).ok_or_else(|| {
                    ScriptError::Core(fargo_core::FargoError::UnknownCore(peer_name.to_owned()))
                })?;
                Ok((format!("{}:n{}", event.name, node.index()), my_name))
            }
            // Keyless profile services and raw selectors pass through
            // (completLoad, memoryUse, queueLen, or a pre-built selector).
            other => Ok((other.to_owned(), my_name)),
        }
    }

    /// Builds the event callback for a rule.
    fn rule_handler(
        &self,
        rule: &Rule,
        env: &HashMap<String, ScriptValue>,
        params: &[ScriptValue],
    ) -> fargo_core::EventHandler {
        let engine_core = self.core.clone();
        let actions_reg = self.actions.clone();
        let log = self.log.clone();
        let actions = rule.actions.clone();
        let firedby = rule.event.firedby.clone();
        let env = Arc::new(env.clone());
        let params = Arc::new(params.to_vec());

        Arc::new(move |payload: &EventPayload| {
            let mut scope: HashMap<String, ScriptValue> = (*env).clone();
            let fired_core = engine_core.core_name_of(payload.core());
            if let Some(var) = &firedby {
                scope.insert(var.clone(), ScriptValue::Str(fired_core.clone()));
            }
            if let Some(v) = payload.value() {
                scope.insert("value".to_owned(), ScriptValue::Num(v));
            }
            let engine = ScriptEngine {
                core: engine_core.clone(),
                actions: actions_reg.clone(),
                log: log.clone(),
            };
            let ctx = ActionCtx {
                core: engine_core.clone(),
                fired_core,
                value: payload.value(),
                log: log.clone(),
            };
            for action in &actions {
                if let Err(e) = engine.run_action(action, &scope, &params, &ctx) {
                    log.lock().push(format!("rule action failed: {e}"));
                }
            }
        })
    }

    /// Executes one action.
    fn run_action(
        &self,
        action: &Action,
        scope: &HashMap<String, ScriptValue>,
        params: &[ScriptValue],
        ctx: &ActionCtx,
    ) -> Result<(), ScriptError> {
        match action {
            Action::Move { target, dest } => {
                let complets = self.eval(target, scope, params)?.complets()?;
                let dest = self.eval(dest, scope, params)?;
                let dest = dest.as_core_name()?;
                let mut first_err = None;
                for c in complets {
                    if let Err(e) = self.core.move_complet(c.id(), dest, None) {
                        first_err.get_or_insert(ScriptError::Core(e));
                    }
                }
                match first_err {
                    None => Ok(()),
                    Some(e) => Err(e),
                }
            }
            Action::Custom { name, args } => {
                let values: Vec<ScriptValue> = args
                    .iter()
                    .map(|a| self.eval(a, scope, params))
                    .collect::<Result<Vec<_>, _>>()?;
                match name.as_str() {
                    "log" => {
                        let line = values
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" ");
                        ctx.log(line);
                        Ok(())
                    }
                    // `retype <complet> <relocator>` — the monitor's
                    // reference-retyping operation, scriptable.
                    "retype" => {
                        let target = values
                            .first()
                            .ok_or(ScriptError::TypeMismatch {
                                expected: "a complet to retype",
                                got: "nothing".to_owned(),
                            })?
                            .as_complet()?;
                        let relocator = values
                            .get(1)
                            .ok_or(ScriptError::TypeMismatch {
                                expected: "a relocator name",
                                got: "nothing".to_owned(),
                            })?
                            .as_core_name()?;
                        self.core.meta_ref(&target).set_relocator(relocator)?;
                        // Propagate to admin-core bindings of the same
                        // target, so `lookup` observes the new type.
                        for (name, bound) in self.core.bindings() {
                            if bound.id() == target.id() {
                                self.core.bind(&name, &target);
                            }
                        }
                        Ok(())
                    }
                    // `bind <name> <complet>` — bind in the admin Core's
                    // naming service.
                    "bind" => {
                        let name = values
                            .first()
                            .ok_or(ScriptError::TypeMismatch {
                                expected: "a name to bind",
                                got: "nothing".to_owned(),
                            })?
                            .as_core_name()?
                            .to_owned();
                        let target = values
                            .get(1)
                            .ok_or(ScriptError::TypeMismatch {
                                expected: "a complet to bind",
                                got: "nothing".to_owned(),
                            })?
                            .as_complet()?;
                        self.core.bind(&name, &target);
                        Ok(())
                    }
                    other => {
                        let handler = self.actions.read().get(other).cloned();
                        match handler {
                            Some(h) => h(ctx, &values),
                            None => Err(ScriptError::UnknownAction(other.to_owned())),
                        }
                    }
                }
            }
        }
    }

    /// Evaluates an expression.
    fn eval(
        &self,
        expr: &Expr,
        env: &HashMap<String, ScriptValue>,
        params: &[ScriptValue],
    ) -> Result<ScriptValue, ScriptError> {
        match expr {
            Expr::Str(s) => Ok(ScriptValue::Str(s.clone())),
            Expr::Num(n) => Ok(ScriptValue::Num(*n)),
            Expr::Param(n) => params
                .get(n.checked_sub(1).ok_or(ScriptError::MissingParam(0))?)
                .cloned()
                .ok_or(ScriptError::MissingParam(*n)),
            Expr::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| ScriptError::UndefinedVar(name.clone())),
            Expr::Index(name, idx) => {
                let v = env
                    .get(name)
                    .ok_or_else(|| ScriptError::UndefinedVar(name.clone()))?;
                match v {
                    ScriptValue::List(items) => {
                        items.get(*idx).cloned().ok_or(ScriptError::BadIndex {
                            var: name.clone(),
                            index: *idx,
                        })
                    }
                    _ => Err(ScriptError::BadIndex {
                        var: name.clone(),
                        index: *idx,
                    }),
                }
            }
            Expr::CompletsIn(inner) => {
                let v = self.eval(inner, env, params)?;
                let core_name = v.as_core_name()?;
                let node = self.core.network().node_by_name(core_name).ok_or_else(|| {
                    ScriptError::Core(fargo_core::FargoError::UnknownCore(core_name.to_owned()))
                })?;
                let items = self
                    .core
                    .complets_at(core_name)
                    .map_err(ScriptError::from)?;
                Ok(ScriptValue::List(
                    items
                        .into_iter()
                        .map(|(id, ty)| {
                            ScriptValue::Complet(fargo_core::RefDescriptor::link(
                                id,
                                ty,
                                node.index(),
                            ))
                        })
                        .collect(),
                ))
            }
            Expr::CoreOf(inner) => {
                let v = self.eval(inner, env, params)?;
                let c = v.as_complet()?;
                let node = self.core.locate(c.id()).map_err(ScriptError::from)?;
                Ok(ScriptValue::Str(self.core.core_name_of(node)))
            }
        }
    }
}

impl std::fmt::Debug for ScriptEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptEngine")
            .field("core", &self.core.name())
            .field("custom_actions", &self.actions.read().len())
            .finish()
    }
}

/// A script installed by [`ScriptEngine::load`]; dropping it does **not**
/// cancel the rules — call [`LoadedScript::cancel`].
#[derive(Debug)]
pub struct LoadedScript {
    subs: Vec<RemoteSubscription>,
    env: HashMap<String, ScriptValue>,
    log: Arc<Mutex<Vec<String>>>,
}

impl LoadedScript {
    /// Number of live subscriptions this script installed.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// Value of a top-level script variable after loading.
    pub fn var(&self, name: &str) -> Option<&ScriptValue> {
        self.env.get(name)
    }

    /// Log lines recorded so far (shared with the engine).
    pub fn log_lines(&self) -> Vec<String> {
        self.log.lock().clone()
    }

    /// Cancels every subscription the script installed.
    pub fn cancel(self) {
        for s in self.subs {
            s.cancel();
        }
    }
}
