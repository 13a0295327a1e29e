//! The shell's command interpreter.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use fargo_core::{
    render_matrix, render_slow_log, CompletId, CompletRef, Core, FargoError, JournalKind, Member,
    RefDescriptor, Service, Value,
};
use fargo_layout::{register_plan_action, Rebalancer, LAYOUT_RULES};
use fargo_script::{LoadedScript, ScriptEngine, ScriptError, ScriptValue};

use crate::slo::{cores_up, Slo};

/// Errors from shell command execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShellError {
    /// Empty input or a command the shell does not know.
    UnknownCommand(String),
    /// The command was recognised but its arguments were malformed.
    Usage(&'static str),
    /// A name/id that resolves to nothing.
    NoSuchTarget(String),
    /// A runtime failure from the Core.
    Core(FargoError),
    /// A script failure (from the `script` command).
    Script(ScriptError),
}

impl fmt::Display for ShellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShellError::UnknownCommand(c) => write!(f, "unknown command {c:?}; try 'help'"),
            ShellError::Usage(u) => write!(f, "usage: {u}"),
            ShellError::NoSuchTarget(t) => write!(f, "no complet named or identified by {t:?}"),
            ShellError::Core(e) => write!(f, "{e}"),
            ShellError::Script(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ShellError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShellError::Core(e) => Some(e),
            ShellError::Script(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FargoError> for ShellError {
    fn from(e: FargoError) -> Self {
        ShellError::Core(e)
    }
}

impl From<ScriptError> for ShellError {
    fn from(e: ScriptError) -> Self {
        ShellError::Script(e)
    }
}

/// An administration shell bound to one Core.
pub struct Shell {
    core: Core,
    engine: ScriptEngine,
    rebalancer: Arc<Rebalancer>,
    /// The layout rule, loaded while `autolayout` is on.
    layout_rule: Mutex<Option<LoadedScript>>,
    slo: Slo,
}

const HELP: &str = "\
FarGo shell commands:
  help                               this text
  cores                              list cores and their complet load
  ls [<core>]                        complets at a core (default: here)
  new <type> [at <core>] [as <name>] instantiate a complet
  call <target> <method> [args...]   invoke a method (args: int/float/str)
  move <target> to <core>            relocate a complet
  bind <name> <target>               bind a logical name here
  lookup <name> [at <core>]          resolve a logical name
  refs [<core>]                      tracker table of a core (default: here)
  retype <target> <relocator>        change a named reference's relocator
  whereis <target>                   locate a complet
  where <target>                     locate with the resolution path
                                     (hosted/cache/shard/peers, hops,
                                     move epoch)
  profile <service>                  instant profiling (e.g. completLoad)
  layout [at <hlc>]                  complets across every core; with
                                     'at', reconstructed from the journal
                                     at an HLC instant (e.g. 1234.0),
                                     with refs and forwarding trackers
  journal [<n>]                      merged cluster-wide layout journal:
                                     moves, trackers, shard applies, plan
                                     notes, alerts; calls are not in it,
                                     see trace/slow/edges/top (last n
                                     events; default 20)
  anomalies                          layout anomaly pass over the journal
  plan                               preview the adaptive layout plan the
                                     planner would execute right now
  rebalance                          plan and execute one layout round
  autolayout on|off|status           load or cancel the layout rule
                                     (plan when a core's remote share
                                     rises); status of its rounds
  stats [full|json]                  runtime counters; 'full' renders the
                                     whole metrics exposition (incl. links),
                                     'json' the same as JSON
  top [<n>]                          heaviest complets cluster-wide by
                                     accounted load (default 10)
  matrix                             core-to-core traffic heatmap
  edges [<n>]                        most-called references cluster-wide,
                                     the planner's traffic input (default 10)
  health                             SLO rules per core, FIRING or ok
  alerts [<n>]                       journaled alert transitions
                                     (last n; default 20)
  trace [<id>]                       span tree of a trace (default: the
                                     most recent one recorded here)
  slow [<n>|clear]                   slowest retained requests with
                                     per-hop breakdown (default: all)
  ping <core>                        round-trip probe
  script <source...>                 load an inline layout script

<target> is a logical name or a complet id like c0.3.";

/// The optional `[<n>]` argument of a listing command.
fn count_arg(args: &[&str], default: usize, usage: &'static str) -> Result<usize, ShellError> {
    match args {
        [] => Ok(default),
        [n] => n.parse().map_err(|_| ShellError::Usage(usage)),
        _ => Err(ShellError::Usage(usage)),
    }
}

impl Shell {
    /// Binds a shell to an admin Core.
    pub fn new(core: Core) -> Self {
        let engine = ScriptEngine::new(core.clone());
        let rebalancer = Arc::new(Rebalancer::new(core.clone()));
        register_plan_action(&engine, rebalancer.clone());
        let slo = Slo::new(&engine);
        Shell {
            core,
            engine,
            rebalancer,
            layout_rule: Mutex::new(None),
            slo,
        }
    }

    /// The script engine backing the `script` command (register custom
    /// actions here).
    pub fn engine(&self) -> &ScriptEngine {
        &self.engine
    }

    /// Executes one command line and returns its output.
    ///
    /// # Errors
    ///
    /// Returns a [`ShellError`] describing what went wrong; the shell
    /// remains usable.
    pub fn exec(&self, line: &str) -> Result<String, ShellError> {
        let mut words = line.split_whitespace();
        let cmd = words
            .next()
            .ok_or_else(|| ShellError::UnknownCommand(String::new()))?;
        let rest: Vec<&str> = words.collect();
        match cmd {
            "help" => Ok(HELP.to_owned()),
            "cores" => self.cmd_cores(),
            "ls" => self.cmd_ls(rest.first().copied()),
            "new" => self.cmd_new(&rest),
            "call" => self.cmd_call(&rest),
            "move" => self.cmd_move(&rest),
            "bind" => self.cmd_bind(&rest),
            "lookup" => self.cmd_lookup(&rest),
            "refs" => self.cmd_refs(rest.first().copied()),
            "retype" => self.cmd_retype(&rest),
            "whereis" => self.cmd_whereis(&rest),
            "where" => self.cmd_where(&rest),
            "profile" => self.cmd_profile(&rest),
            "layout" => self.cmd_layout(&rest),
            "journal" => self.cmd_journal(&rest),
            "anomalies" => self.cmd_anomalies(),
            "plan" => self.cmd_plan(),
            "rebalance" => self.cmd_rebalance(),
            "autolayout" => self.cmd_autolayout(&rest),
            "stats" => self.cmd_stats(&rest),
            "top" => self.cmd_top(&rest),
            "matrix" => self.cmd_matrix(),
            "edges" => self.cmd_edges(&rest),
            "health" => self.cmd_health(),
            "alerts" => self.cmd_alerts(&rest),
            "trace" => self.cmd_trace(&rest),
            "slow" => self.cmd_slow(&rest),
            "ping" => self.cmd_ping(&rest),
            "script" => self.cmd_script(line),
            other => Err(ShellError::UnknownCommand(other.to_owned())),
        }
    }

    fn cmd_cores(&self) -> Result<String, ShellError> {
        let mut out = String::new();
        for Member { name, up, .. } in self.core.members() {
            let (state, load) = match up.then(|| self.core.complets_at(&name)) {
                Some(Ok(items)) => ("up", items.len().to_string()),
                Some(Err(_)) => ("up", "?".into()),
                None => ("down", "-".into()),
            };
            writeln!(out, "{name:<16} {state:<5} complets={load}").expect("write to string");
        }
        Ok(out)
    }

    fn cmd_ls(&self, core: Option<&str>) -> Result<String, ShellError> {
        let core_name = core.unwrap_or_else(|| self.core.name());
        let items = self.core.complets_at(core_name)?;
        if items.is_empty() {
            return Ok(format!("{core_name}: (no complets)"));
        }
        let mut out = String::new();
        for (id, ty) in items {
            writeln!(out, "{id:<10} {ty}").expect("write to string");
        }
        Ok(out)
    }

    fn cmd_new(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "new <type> [at <core>] [as <name>]";
        let ty = args.first().ok_or(ShellError::Usage(usage))?;
        let mut at: Option<&str> = None;
        let mut name: Option<&str> = None;
        let mut i = 1;
        while i + 1 < args.len() + 1 {
            match args.get(i) {
                Some(&"at") => {
                    at = Some(args.get(i + 1).ok_or(ShellError::Usage(usage))?);
                    i += 2;
                }
                Some(&"as") => {
                    name = Some(args.get(i + 1).ok_or(ShellError::Usage(usage))?);
                    i += 2;
                }
                Some(_) => return Err(ShellError::Usage(usage)),
                None => break,
            }
        }
        let target_core = at.unwrap_or_else(|| self.core.name());
        let b = self.core.new_complet_at(target_core, ty, &[])?;
        if let Some(n) = name {
            self.core.bind(n, b.complet_ref());
        }
        Ok(format!("created {} ({ty}) at {target_core}", b.id()))
    }

    fn cmd_call(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "call <target> <method> [args...]";
        let target = args.first().ok_or(ShellError::Usage(usage))?;
        let method = args.get(1).ok_or(ShellError::Usage(usage))?;
        let call_args: Vec<Value> = args[2..].iter().map(|a| parse_arg(a)).collect();
        let r = self.resolve(target)?;
        let result = self.core.invoke(&r, method, &call_args)?;
        Ok(result.to_string())
    }

    fn cmd_move(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "move <target> to <core>";
        let target = args.first().ok_or(ShellError::Usage(usage))?;
        if args.get(1) != Some(&"to") {
            return Err(ShellError::Usage(usage));
        }
        let dest = args.get(2).ok_or(ShellError::Usage(usage))?;
        let r = self.resolve(target)?;
        self.core.move_complet(r.id(), dest, None)?;
        Ok(format!("moved {} to {dest}", r.id()))
    }

    fn cmd_bind(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "bind <name> <target>";
        let name = args.first().ok_or(ShellError::Usage(usage))?;
        let target = args.get(1).ok_or(ShellError::Usage(usage))?;
        let r = self.resolve(target)?;
        self.core.bind(name, &r);
        Ok(format!("{name} -> {}", r.id()))
    }

    fn cmd_lookup(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "lookup <name> [at <core>]";
        let name = args.first().ok_or(ShellError::Usage(usage))?;
        let found = match (args.get(1), args.get(2)) {
            (Some(&"at"), Some(core)) => self.core.lookup_at(core, name)?,
            (None, _) => self.core.lookup_stub(name)?,
            _ => return Err(ShellError::Usage(usage)),
        };
        Ok(format!("{name} -> {}", found.complet_ref()))
    }

    fn cmd_refs(&self, core: Option<&str>) -> Result<String, ShellError> {
        let core_name = core.unwrap_or_else(|| self.core.name());
        let mut out = String::new();
        for (id, fwd, hits) in self.core.trackers_at(core_name)? {
            let target = match fwd {
                None => "local".to_owned(),
                Some(n) => format!("-> {}", self.core.core_name_of(n)),
            };
            writeln!(out, "{:<10} {:<16} hits={}", id.to_string(), target, hits)
                .expect("write to string");
        }
        if out.is_empty() {
            out.push_str("(no trackers)");
        }
        Ok(out)
    }

    fn cmd_retype(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "retype <target> <relocator>";
        let target = args.first().ok_or(ShellError::Usage(usage))?;
        let relocator = args.get(1).ok_or(ShellError::Usage(usage))?;
        let r = self.resolve(target)?;
        self.core.meta_ref(&r).set_relocator(relocator)?;
        // Persist the retype when the target is a bound name.
        self.core.bind(target, &r);
        Ok(format!("{} is now [{relocator}]", r.id()))
    }

    fn cmd_whereis(&self, args: &[&str]) -> Result<String, ShellError> {
        let target = args.first().ok_or(ShellError::Usage("whereis <target>"))?;
        let r = self.resolve(target)?;
        let node = self.core.locate(r.id())?;
        Ok(format!("{} is at {}", r.id(), self.core.core_name_of(node)))
    }

    /// Like `whereis`, but shows which layer of the naming stack answered
    /// (hosted / cache / shard / peers), how many network hops the
    /// resolution spent, and the winning move epoch.
    fn cmd_where(&self, args: &[&str]) -> Result<String, ShellError> {
        let target = args.first().ok_or(ShellError::Usage("where <target>"))?;
        let r = self.resolve(target)?;
        let report = self.core.locate_explain(r.id())?;
        Ok(format!(
            "{} is at {} (via {}, {} hop{}, epoch {})",
            r.id(),
            self.core.core_name_of(report.node),
            report.via.label(),
            report.hops,
            if report.hops == 1 { "" } else { "s" },
            report.epoch,
        ))
    }

    fn cmd_profile(&self, args: &[&str]) -> Result<String, ShellError> {
        let spec = args
            .first()
            .ok_or(ShellError::Usage("profile <service[:key]>"))?;
        let service = Service::parse(spec).map_err(ShellError::Core)?;
        let v = self.core.profile_instant(&service)?;
        Ok(format!("{service} = {v}"))
    }

    fn cmd_layout(&self, args: &[&str]) -> Result<String, ShellError> {
        match args {
            [] => self.cmd_layout_live(),
            ["at", hlc] => self.cmd_layout_at(hlc),
            _ => Err(ShellError::Usage("layout [at <hlc>]")),
        }
    }

    /// Reconstructs the cluster-wide placement at an HLC instant from the
    /// merged journal timeline (the layout observatory): one line per
    /// Core, the reference edges, then one line per forwarding tracker.
    fn cmd_layout_at(&self, hlc: &str) -> Result<String, ShellError> {
        let at: fargo_core::Hlc = hlc
            .parse()
            .map_err(|_| ShellError::Usage("layout [at <hlc>]"))?;
        let state = self.core.layout_history().at(at);
        let mut out = format!("layout at {at} (journal reconstruction)\n");
        let mut by_core: std::collections::BTreeMap<u32, Vec<&str>> =
            std::collections::BTreeMap::new();
        for (id, node) in &state.placement {
            by_core.entry(*node).or_default().push(id);
        }
        if by_core.is_empty() {
            out.push_str("(no complets placed)\n");
        }
        for (node, ids) in by_core {
            writeln!(out, "{}: {}", self.core.core_name_of(node), ids.join(", "))
                .expect("write to string");
        }
        if !state.refs.is_empty() {
            let edges: Vec<String> = state
                .refs
                .iter()
                .map(|(src, dst, rel)| format!("{src} -{rel}-> {dst}"))
                .collect();
            writeln!(out, "refs: {}", edges.join(", ")).expect("write to string");
        }
        for ((node, complet), target) in &state.trackers {
            if let Some(to) = target {
                let (from, to) = (self.core.core_name_of(*node), self.core.core_name_of(*to));
                writeln!(out, "tracker {complet}: {from} -> {to}").expect("write to string");
            }
        }
        Ok(out)
    }

    /// The merged cluster-wide journal, newest events last.
    fn cmd_journal(&self, args: &[&str]) -> Result<String, ShellError> {
        let n = count_arg(args, 20, "journal [<n>]")?;
        let events = self.core.collect_journal();
        if events.is_empty() {
            return Ok("(journal empty)".to_owned());
        }
        let mut out = String::new();
        let skip = events.len().saturating_sub(n);
        if skip > 0 {
            writeln!(out, "... {skip} earlier events omitted").expect("write to string");
        }
        for ev in &events[skip..] {
            writeln!(out, "{ev}").expect("write to string");
        }
        Ok(out)
    }

    /// Runs the anomaly pass (long chains, ping-pong, orphans) over the
    /// merged journal.
    fn cmd_anomalies(&self) -> Result<String, ShellError> {
        let anomalies = self.core.layout_history().anomalies();
        if anomalies.is_empty() {
            return Ok("(no layout anomalies)".to_owned());
        }
        let mut out = String::new();
        for a in anomalies {
            writeln!(out, "{a}").expect("write to string");
        }
        Ok(out)
    }

    /// Previews the plan the adaptive planner would execute right now,
    /// without moving anything.
    fn cmd_plan(&self) -> Result<String, ShellError> {
        let plan = self.rebalancer.planner().preview();
        Ok(plan.render(&|n| self.core.core_name_of(n)))
    }

    /// One synchronous planning round: plan, execute, verify.
    fn cmd_rebalance(&self) -> Result<String, ShellError> {
        let (plan, report) = self.rebalancer.rebalance();
        let mut out = plan.render(&|n| self.core.core_name_of(n));
        if !plan.is_empty() {
            writeln!(
                out,
                "executed {} step(s), {} rolled back",
                report.executed, report.rolled_back
            )
            .expect("write to string");
            for f in &report.failures {
                writeln!(out, "failed: {f}").expect("write to string");
            }
        }
        Ok(out)
    }

    /// `on` loads the layout rule at every Core that is up, `off`
    /// cancels it (a round already running finishes); the status is
    /// read from this Core's `fargo_planner_*` series.
    fn cmd_autolayout(&self, args: &[&str]) -> Result<String, ShellError> {
        let mut rule = self.layout_rule.lock().expect("layout rule lock poisoned");
        match args {
            ["on"] => {
                if rule.is_none() {
                    let cores = cores_up(&self.core).into_iter().map(ScriptValue::Str);
                    let list = ScriptValue::List(cores.collect());
                    *rule = Some(self.engine.load(LAYOUT_RULES, vec![list])?);
                }
                Ok("autolayout on".to_owned())
            }
            ["off"] => {
                if let Some(loaded) = rule.take() {
                    loaded.cancel();
                }
                Ok("autolayout off".to_owned())
            }
            ["status"] | [] => {
                let reg = self.core.telemetry();
                let labels = &[("core", self.core.name())][..];
                let count = |name| reg.counter(name, labels).get();
                let stable = reg.gauge("fargo_planner_stable_rounds", labels).get();
                Ok(format!(
                    "autolayout {}: rounds={} moves={} rollbacks={} converged={}",
                    if rule.is_some() { "on" } else { "off" },
                    count("fargo_planner_rounds_total"),
                    count("fargo_planner_executed_moves_total"),
                    count("fargo_planner_rollbacks_total"),
                    stable > 0.0,
                ))
            }
            _ => Err(ShellError::Usage("autolayout on|off|status")),
        }
    }

    fn cmd_layout_live(&self) -> Result<String, ShellError> {
        let mut out = String::new();
        for Member { name, up, .. } in self.core.members() {
            let what = match up.then(|| self.core.complets_at(&name)) {
                None => "(down)".to_owned(),
                Some(Ok(items)) if items.is_empty() => "(empty)".to_owned(),
                Some(Ok(items)) => {
                    let list: Vec<String> =
                        items.iter().map(|(id, ty)| format!("{id} {ty}")).collect();
                    list.join(", ")
                }
                Some(Err(e)) => format!("unreachable ({e})"),
            };
            writeln!(out, "{name}: {what}").expect("write to string");
        }
        Ok(out)
    }

    fn cmd_stats(&self, args: &[&str]) -> Result<String, ShellError> {
        match args.first() {
            Some(&"full") => Ok(self.core.render_metrics()),
            Some(&"json") => Ok(self.core.render_metrics_json()),
            Some(_) => Err(ShellError::Usage("stats [full|json]")),
            None => {
                let m = self.core.monitor();
                let (retries, dedup_hits, lost_replies, indoubt) = self.core.reliability_stats();
                let mut out = format!(
                    "core {}
 complets      {}
 trackers      {}
 bindings      {}
 subscriptions {}
 monitor: {} sampler evals, {} cache hits, {} events
 reliability: {} retransmits, {} dedup replays, {} lost replies, {} in-doubt moves, {} undecodable frames
 latency (us, estimated):
",
                    self.core.name(),
                    self.core.complet_count(),
                    self.core.tracker_count(),
                    self.core.bindings().len(),
                    self.core.subscription_count(),
                    m.samples(),
                    m.cache_hits(),
                    m.events_emitted(),
                    retries,
                    dedup_hits,
                    lost_replies,
                    indoubt,
                    self.core.decode_errors(),
                );
                let fmt_q = |q: Option<f64>| match q {
                    Some(v) => format!("{v:.0}"),
                    None => "-".to_owned(),
                };
                for s in self.core.latency_summaries() {
                    let _ = writeln!(
                        out,
                        "  {phase:<15} n={count:<6} p50={p50:<8} p99={p99:<8} p999={p999}",
                        phase = s.phase,
                        count = s.count,
                        p50 = fmt_q(s.p50),
                        p99 = fmt_q(s.p99),
                        p999 = fmt_q(s.p999),
                    );
                }
                out.push_str("(use 'stats full' for the complete metrics exposition)");
                Ok(out)
            }
        }
    }

    /// The cluster-wide heavy hitters: per-complet accounted load from
    /// every reachable Core, merged and re-ranked.
    fn cmd_top(&self, args: &[&str]) -> Result<String, ShellError> {
        let n = count_arg(args, 10, "top [<n>]")?;
        let rows = self.core.collect_top(n);
        if rows.is_empty() {
            return Ok("(no accounting data)".to_owned());
        }
        let mut out = format!(
            "{:<10} {:<12} {:>10} {:>8} {:>10} {:>10} {:>10} {:>6}\n",
            "complet", "core", "load", "invokes", "exec_us", "bytes_in", "bytes_out", "err"
        );
        for (core, r) in rows {
            let id = CompletId::new(r.key.0, r.key.1);
            writeln!(
                out,
                "{:<10} {:<12} {:>10} {:>8} {:>10} {:>10} {:>10} {:>6}",
                id.to_string(),
                core,
                r.load,
                r.invokes,
                r.exec_us,
                r.bytes_in,
                r.bytes_out,
                r.err
            )
            .expect("write to string");
        }
        Ok(out)
    }

    /// ASCII heatmap of the cluster-wide Core-to-Core traffic matrix.
    fn cmd_matrix(&self) -> Result<String, ShellError> {
        Ok(render_matrix(&self.core.collect_matrix()))
    }

    /// Every Core's call-edge rows, most calls first: the planner's input.
    fn cmd_edges(&self, args: &[&str]) -> Result<String, ShellError> {
        let n = count_arg(args, 10, "edges [<n>]")?;
        let rows = self.core.collect_edges();
        if rows.is_empty() {
            return Ok("(no calls counted)".to_owned());
        }
        let mut out = format!("{:<10} {:<10} {:>10} core\n", "src", "dst", "calls");
        for (core, (src, dst, calls)) in rows.into_iter().take(n) {
            let (src, dst) = (src.to_string(), dst.to_string());
            writeln!(out, "{src:<10} {dst:<10} {calls:>10} {core}").expect("write to string");
        }
        Ok(out)
    }

    /// Every SLO rule at every Core, FIRING or ok; the first `health`
    /// or `alerts` loads the rules.
    fn cmd_health(&self) -> Result<String, ShellError> {
        let cores = self.slo.watch(&self.core, &self.engine)?;
        Ok(self.slo.render(&cores))
    }

    /// Journaled alert transitions, cluster-wide, newest last.
    fn cmd_alerts(&self, args: &[&str]) -> Result<String, ShellError> {
        let n = count_arg(args, 20, "alerts [<n>]")?;
        self.slo.watch(&self.core, &self.engine)?;
        let mut events = self.core.collect_journal();
        events.retain(|ev| ev.kind == JournalKind::Alert);
        if events.is_empty() {
            return Ok("(no alerts recorded)".to_owned());
        }
        let mut out = String::new();
        let skip = events.len().saturating_sub(n);
        if skip > 0 {
            writeln!(out, "... {skip} earlier alerts omitted").expect("write to string");
        }
        for ev in &events[skip..] {
            writeln!(out, "{ev}").expect("write to string");
        }
        Ok(out)
    }

    /// Renders the (multi-Core) span tree of a trace. Without an id, the
    /// most recent trace recorded at this Core is shown.
    fn cmd_trace(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "trace [<id>]";
        let trace_id = match args.first() {
            Some(word) => {
                let digits = word.strip_prefix("0x").unwrap_or(word);
                u64::from_str_radix(digits, if word.starts_with("0x") { 16 } else { 10 })
                    .map_err(|_| ShellError::Usage(usage))?
            }
            None => self
                .core
                .last_trace_id()
                .ok_or_else(|| ShellError::NoSuchTarget("(no traces recorded)".into()))?,
        };
        Ok(self.core.render_trace(trace_id))
    }

    /// The tail observatory: the slowest requests this Core retained,
    /// each with its per-hop breakdown — the span snapshot taken at
    /// admission, enriched with whatever the cluster still holds for
    /// the trace (remote hops the local ring never saw).
    fn cmd_slow(&self, args: &[&str]) -> Result<String, ShellError> {
        let usage = "slow [<n>|clear]";
        let mut records = self.core.slow_records();
        match args.first() {
            Some(&"clear") => {
                self.core.clear_slow_log();
                return Ok(format!(
                    "cleared {} retained slow request(s)",
                    records.len()
                ));
            }
            Some(word) => {
                let n: usize = word.parse().map_err(|_| ShellError::Usage(usage))?;
                records.truncate(n);
            }
            None => {}
        }
        for r in &mut records {
            if r.trace_id == 0 {
                continue;
            }
            let mut spans = std::mem::take(&mut r.spans);
            spans.extend(self.core.collect_trace(r.trace_id));
            spans.sort_by_key(|s| (s.span_id, s.start_us));
            spans.dedup_by_key(|s| s.span_id);
            spans.sort_by_key(|s| (s.start_us, s.span_id));
            r.spans = spans;
        }
        Ok(render_slow_log(&records, true))
    }

    fn cmd_ping(&self, args: &[&str]) -> Result<String, ShellError> {
        let core = args.first().ok_or(ShellError::Usage("ping <core>"))?;
        let rtt = self.core.ping(core)?;
        Ok(format!("{core}: rtt {rtt:?}"))
    }

    fn cmd_script(&self, line: &str) -> Result<String, ShellError> {
        let src = line
            .strip_prefix("script")
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .ok_or(ShellError::Usage("script <source...>"))?;
        let loaded = self.engine.load(src, Vec::<ScriptValue>::new())?;
        Ok(format!(
            "script loaded: {} subscription(s)",
            loaded.subscription_count()
        ))
    }

    /// Resolves a target word: a bound name first, then a complet id.
    fn resolve(&self, word: &str) -> Result<CompletRef, ShellError> {
        if let Some(r) = self.core.lookup(word) {
            return Ok(r);
        }
        if let Ok(id) = word.parse::<CompletId>() {
            // Unknown type is fine for invocation and movement.
            return Ok(CompletRef::from_descriptor(RefDescriptor::link(
                id, "", id.origin,
            )));
        }
        Err(ShellError::NoSuchTarget(word.to_owned()))
    }
}

impl fmt::Debug for Shell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shell")
            .field("core", &self.core.name())
            .finish()
    }
}

/// Shell argument literals: integers, floats, then strings.
fn parse_arg(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        return Value::I64(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::F64(f);
    }
    Value::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing_prefers_numbers() {
        assert_eq!(parse_arg("42"), Value::I64(42));
        assert_eq!(parse_arg("2.5"), Value::F64(2.5));
        assert_eq!(parse_arg("two"), Value::from("two"));
    }
}
