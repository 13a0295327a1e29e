//! Runs a [`Schedule`] against a real in-process cluster and checks the
//! oracles after every step.
//!
//! **Deterministic mode** (the default): every Core shares one virtual
//! [`Clock`], links are instant and lossless, each Core runs a single
//! worker, and the driver waits for full quiescence (no queued work, no
//! packet in the link model, journal length stable) between ops. Under
//! those conditions one seed replays to one bit-identical merged journal
//! — asserted by this crate's determinism test.
//!
//! **Stress mode**: the same schedule runs on wall time over lossy,
//! jittery links, with two threads racing the non-setup ops. Semantic
//! outcomes then depend on real schedules, so only the end-state oracles
//! run — but the two-phase move protocol, retry/dedup layer, and epoch
//! guards must keep them true regardless.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use fargo_core::{
    define_complet, CompletId, CompletRef, CompletRegistry, Core, CoreConfig, FargoError, Value,
};
use fargo_telemetry::{merge_timelines, Clock, JournalEvent};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::oracles::{self, Violation};
use crate::workload::{Op, Schedule, RELOCATORS};

define_complet! {
    /// The workload complet: a counter (for at-most-once audits) that can
    /// also hold one typed reference (for relocator closures).
    pub complet ChkNode {
        state {
            n: i64 = 0,
            dep: Option<fargo_core::CompletRef> = None,
        }
        fn add(&mut self, _ctx, _args) {
            self.n += 1;
            Ok(Value::I64(self.n))
        }
        fn get(&mut self, _ctx, _args) {
            Ok(Value::I64(self.n))
        }
        fn set_dep(&mut self, ctx, args) {
            let desc = args
                .first()
                .and_then(Value::as_ref_desc)
                .cloned()
                .ok_or_else(|| FargoError::InvalidArgument("set_dep needs a ref".into()))?;
            let dep = fargo_core::CompletRef::from_descriptor(desc);
            if let Some(name) = args.get(1).and_then(Value::as_str) {
                ctx.core().meta_ref(&dep).set_relocator(name)?;
            }
            self.dep = Some(dep);
            Ok(Value::Null)
        }
    }
}

/// How to run a schedule.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Wall clock, lossy links, racing threads (see module docs).
    pub stress: bool,
    /// Run the journal oracles after every op (deterministic mode only;
    /// stress mode always defers to the end).
    pub step_oracles: bool,
    /// Quiescence budget per barrier, in polls (~1 ms each past the
    /// initial spin window).
    pub quiesce_polls: u32,
    /// Record spans during the run and return them in the report (the
    /// span-determinism regression turns this on).
    pub trace: bool,
    /// Provision per-Core write-ahead log directories and tolerate op
    /// errors, so crash/restart/partition ops can run. Implied whenever
    /// the schedule itself contains fault ops.
    pub faults: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            stress: false,
            step_oracles: true,
            quiesce_polls: 4000,
            trace: false,
            faults: false,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Oracle breaches, in detection order; empty means the run is clean.
    pub violations: Vec<Violation>,
    /// The merged journal at the end of the run (the replay artifact the
    /// determinism test compares byte-for-byte).
    pub journal: Vec<JournalEvent>,
    /// Ops applied before the run stopped (== schedule length unless a
    /// step oracle fired).
    pub ops_applied: usize,
    /// Spans recorded by all Cores (empty unless [`RunConfig::trace`]).
    /// Trace/span ids come from a process-global counter and are *not*
    /// seed-stable across runs in one process; determinism comparisons
    /// should use [`RunReport::span_shape`].
    pub spans: Vec<fargo_core::SpanRecord>,
    /// Rendered per-Core accounting state at the end of the run: every
    /// tracked complet's counters plus each Core's traffic matrix cells
    /// (what its outbound links admitted, across its restarts). Under
    /// the virtual clock this is a pure function of the schedule (exec
    /// time is 0µs, so load == invokes), and the determinism regression
    /// compares it byte-for-byte.
    pub accounting: String,
}

impl RunReport {
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }

    /// The id-free shape of every recorded span — `(name, core,
    /// start_us, duration_us)`, sorted — which under the virtual clock
    /// must be a pure function of the schedule.
    pub fn span_shape(&self) -> Vec<(String, String, u64, u64)> {
        let mut shape: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.name.clone(), s.core.clone(), s.start_us, s.duration_us))
            .collect();
        shape.sort();
        shape
    }
}

/// Disambiguates WAL scratch directories when one process runs the same
/// seed concurrently (the explorer's perturbation pass does).
static WAL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct Cluster {
    net: Network,
    cores: Vec<Core>,
    clock: Clock,
    reg: CompletRegistry,
    /// Base config every Core (re)spawns with; per-Core WAL dirs are
    /// layered on top by [`Cluster::core_config`].
    cc: CoreConfig,
    /// Scratch root for the per-Core WAL directories (fault runs only);
    /// removed wholesale at teardown.
    wal_root: Option<PathBuf>,
    /// Which cores are currently crashed.
    down: Vec<bool>,
    /// Complets lost to unlogged restarts: what the Core hosted when it
    /// crashed. The counter audit and the acked-loss oracle forgive their
    /// lost state, never an extra execution.
    lost: Vec<CompletId>,
    /// Journal snapshots captured from crashed incarnations (their
    /// telemetry dies with the handle; the merge still needs the events).
    retired: Vec<Vec<JournalEvent>>,
    /// Currently severed node pairs, normalized `(min, max)`.
    cut: Vec<(usize, usize)>,
}

impl Cluster {
    fn spawn(
        schedule: &Schedule,
        stress: bool,
        trace: bool,
        faults: bool,
    ) -> Result<Cluster, FargoError> {
        let (clock, link) = if stress {
            (
                Clock::Wall,
                LinkConfig::new(Duration::from_micros(300))
                    .with_jitter(Duration::from_micros(400))
                    .with_loss(0.03),
            )
        } else {
            (Clock::new_virtual(1_000_000_000), LinkConfig::instant())
        };
        let net = Network::new(NetworkConfig {
            default_link: Some(link),
            seed: schedule.seed,
            ..NetworkConfig::default()
        });
        let reg = CompletRegistry::new();
        ChkNode::register(&reg);
        let mut cc = CoreConfig::default()
            .with_journaling(true)
            // Generous for a schedule's few hundred events, small enough
            // that the quiescence poll's ring scans stay cheap.
            .with_journal_capacity(2048)
            .with_tracing(trace)
            .with_clock(clock.clone());
        if stress {
            cc = cc.with_rpc_retries(4);
            cc.rpc_timeout = Duration::from_millis(400);
            cc.rpc_retry_base = Duration::from_millis(5);
            cc.rpc_retry_cap = Duration::from_millis(40);
            cc.transit_wait = Duration::from_millis(500);
            cc.move_hold_timeout = Duration::from_millis(50);
            cc.worker_threads = 2;
        } else {
            cc.rpc_timeout = Duration::from_secs(5);
            cc.transit_wait = Duration::from_secs(2);
            cc.move_hold_timeout = Duration::from_secs(60);
            cc.worker_threads = 1;
            // Monitor ticks are the one thread that acts on its own; park
            // it so the journal is a pure function of the schedule.
            cc.monitor_tick = Duration::from_secs(3600);
            cc.monitor_cache_ttl = Duration::from_secs(3600);
        }
        let mut wal_root = None;
        if faults {
            // RPC deadlines are virtual but waited out on the wall, so a
            // send into a crashed core or a cut link must give up fast or
            // every such op stalls the run for the full window.
            cc.rpc_timeout = Duration::from_millis(250);
            cc.transit_wait = Duration::from_millis(400);
            let root = std::env::temp_dir().join(format!(
                "fargo-check-wal-{}-{}",
                std::process::id(),
                WAL_DIR_SEQ.fetch_add(1, Ordering::SeqCst),
            ));
            std::fs::create_dir_all(&root)
                .map_err(|e| FargoError::App(format!("wal scratch dir: {e}")))?;
            wal_root = Some(root);
        }
        let mut cl = Cluster {
            net,
            cores: Vec::new(),
            clock,
            reg,
            cc,
            wal_root,
            down: vec![false; schedule.cores],
            lost: Vec::new(),
            retired: Vec::new(),
            cut: Vec::new(),
        };
        cl.cores = (0..schedule.cores)
            .map(|i| {
                Core::builder(&cl.net, &format!("core{i}"))
                    .registry(&cl.reg)
                    .config(cl.core_config(i))
                    .spawn()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(cl)
    }

    /// The base config plus core `i`'s WAL directory (fault runs only).
    fn core_config(&self, i: usize) -> CoreConfig {
        let mut cc = self.cc.clone();
        if let Some(root) = &self.wal_root {
            cc = cc.with_wal_dir(root.join(format!("core{i}")));
        }
        cc
    }

    /// Applies one fault op. Faults that make no sense in the current
    /// state — crashing core 0 or a dead core, restarting a live one,
    /// partitioning a core from itself — are skipped, not errors, so
    /// ddmin can delete arbitrary ops and the remainder still replays.
    fn apply_fault(&mut self, op: &Op) {
        match *op {
            Op::Crash { core } => {
                if core == 0 || core >= self.cores.len() || self.down[core] {
                    return;
                }
                // The handle's telemetry dies with it; keep the journal
                // for the merged timeline.
                self.retired.push(self.cores[core].journal_snapshot());
                self.cores[core].stop();
                self.down[core] = true;
            }
            Op::Restart { core, log } => {
                if core >= self.cores.len() || !self.down[core] {
                    return;
                }
                if !log {
                    if let Some(root) = &self.wal_root {
                        let _ = std::fs::remove_dir_all(root.join(format!("core{core}")));
                    }
                    self.lost.extend(self.cores[core].complet_ids());
                }
                // A restarted Core stamps fresh HLCs from the shared
                // clock; jump it past any logical catch-up accumulated at
                // the frozen virtual instant so the core's merged
                // timeline stays HLC-monotonic across the incarnation
                // boundary.
                self.clock.advance(Duration::from_secs(2));
                let node = self.cores[core].node();
                let Ok(ep) = self.net.restart_node(node) else {
                    return;
                };
                let spawned = Core::builder(&self.net, &format!("core{core}"))
                    .endpoint(ep)
                    .registry(&self.reg)
                    .config(self.core_config(core))
                    .spawn();
                let Ok(c) = spawned else {
                    let _ = self.net.set_node_up(node, false);
                    return;
                };
                // spawn() already replayed the WAL; moves parked as held
                // state are re-resolved against their sources now.
                c.resolve_held_now();
                self.cores[core] = c;
                self.down[core] = false;
            }
            Op::Partition { a, b } => {
                if a == b || a >= self.cores.len() || b >= self.cores.len() {
                    return;
                }
                if self
                    .net
                    .partition(self.cores[a].node(), self.cores[b].node())
                    .is_ok()
                {
                    let key = (a.min(b), a.max(b));
                    if !self.cut.contains(&key) {
                        self.cut.push(key);
                    }
                }
            }
            Op::Heal { a, b } => {
                if a == b || a >= self.cores.len() || b >= self.cores.len() {
                    return;
                }
                if self
                    .net
                    .heal(self.cores[a].node(), self.cores[b].node())
                    .is_ok()
                {
                    self.cut.retain(|&k| k != (a.min(b), a.max(b)));
                }
            }
            _ => {}
        }
    }

    /// Drops the acked-loss findings about complets an unlogged restart
    /// lost: their acknowledged state went with the Core's memory.
    fn forgive_lost(&self, found: &mut Vec<Violation>) {
        found.retain(|v| {
            v.oracle != "acked-loss" || !self.lost.iter().any(|id| id.to_string() == v.subject)
        });
    }

    /// Whether `op` touches a crashed core and must be skipped. Invokes
    /// are only skipped when the *calling* core is down — a call into a
    /// dead host is exactly the ambiguity the acked-loss oracle audits.
    fn references_down_core(&self, op: &Op) -> bool {
        match *op {
            Op::New { core, .. } | Op::Collect { core } => {
                self.down.get(core).copied().unwrap_or(false)
            }
            Op::Invoke { from, .. } => self.down.get(from).copied().unwrap_or(false),
            Op::Move { to, .. } => self.down.get(to).copied().unwrap_or(false),
            Op::MoveMany { to, .. } => [to, (to + 1) % self.cores.len()]
                .iter()
                .any(|&c| self.down.get(c).copied().unwrap_or(false)),
            _ => false,
        }
    }

    /// Waits until no packet is in the link model, no Core has queued or
    /// running work, and the journals have stopped growing — twice in a
    /// row. Returns false when the poll budget runs out (a liveness bug).
    fn quiesce(&self, polls: u32) -> bool {
        let mut stable = 0u32;
        let mut last_len = u64::MAX;
        for i in 0..polls {
            let pending = self.net.in_flight() as usize
                + self
                    .cores
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !self.down[*i])
                    .map(|(_, c)| c.pending_work())
                    .sum::<usize>();
            let len = self
                .cores
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.down[*i])
                .map(|(_, c)| c.journal_snapshot().len() as u64)
                .sum::<u64>();
            if pending == 0 && len == last_len {
                stable += 1;
                if stable >= 2 {
                    return true;
                }
            } else {
                stable = 0;
            }
            last_len = len;
            if i < 64 {
                thread::yield_now();
            } else {
                thread::sleep(Duration::from_millis(1));
            }
        }
        false
    }

    fn merged_journal(&self) -> Vec<JournalEvent> {
        // Crashed incarnations contribute their retired snapshots; a
        // down core's live handle is excluded (its events are already in
        // `retired`, captured at the moment it crashed).
        merge_timelines(
            self.retired.iter().cloned().chain(
                self.cores
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !self.down[*i])
                    .map(|(_, c)| c.journal_snapshot()),
            ),
        )
    }

    /// Renders every Core's accounting state without sending a single
    /// message (local snapshots and link stats only, so rendering
    /// cannot perturb the matrix it reports).
    fn accounting_report(&self) -> String {
        let mut out = String::new();
        for c in &self.cores {
            for r in c.account_top(usize::MAX) {
                writeln!(
                    out,
                    "{} c{}.{} invokes={} exec_us={} in={} out={} load={} err={}",
                    c.name(),
                    r.key.0,
                    r.key.1,
                    r.invokes,
                    r.exec_us,
                    r.bytes_in,
                    r.bytes_out,
                    r.load,
                    r.err
                )
                .expect("write to string");
            }
            for (src, dst, calls) in c.invoke_edges() {
                writeln!(out, "{} {src} => {dst}: calls={calls}", c.name())
                    .expect("write to string");
            }
            for cell in c.traffic_matrix() {
                writeln!(
                    out,
                    "{} -> {}: msgs={} bytes={}",
                    cell.src, cell.dst, cell.msgs, cell.bytes
                )
                .expect("write to string");
            }
        }
        out
    }

    fn teardown(&self) {
        for c in &self.cores {
            c.stop();
        }
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// Per-slot at-most-once bookkeeping, shared with stress threads.
#[derive(Default)]
struct SlotAudit {
    ok: AtomicI64,
    failed: AtomicI64,
}

/// Applies one op. `Err` carries a description of an operation the
/// fault-free deterministic cluster had no business failing.
fn apply(
    cl: &Cluster,
    refs: &[slotcell::SlotCell],
    audits: &[SlotAudit],
    op: &Op,
) -> Result<(), String> {
    match *op {
        Op::New { slot, core } => {
            let bound = cl.cores[core]
                .new_complet("ChkNode", &[])
                .map_err(|e| format!("new slot{slot}@core{core}: {e}"))?;
            refs[slot].set(bound.complet_ref().clone());
            Ok(())
        }
        Op::Invoke { slot, from } => {
            let Some(r) = refs[slot].get() else {
                return Ok(());
            };
            match cl.cores[from].stub(r).call("add", &[]) {
                Ok(_) => {
                    audits[slot].ok.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }
                Err(e) => {
                    audits[slot].failed.fetch_add(1, Ordering::SeqCst);
                    Err(format!("invoke slot{slot} from core{from}: {e}"))
                }
            }
        }
        Op::Move { slot, to } => {
            let Some(r) = refs[slot].get() else {
                return Ok(());
            };
            let dest = cl.cores[to].name().to_owned();
            cl.cores[to]
                .move_complet(r.id(), &dest, None)
                .map_err(|e| format!("move slot{slot} -> {dest}: {e}"))
        }
        Op::MoveMany { ref slots, to } => {
            let bound = slots.iter().filter_map(|&s| refs[s].get());
            let ids: Vec<CompletId> = bound.map(|r| r.id()).collect();
            let hosts = || -> Vec<Option<usize>> {
                let host = |&id| cl.cores.iter().position(|c: &Core| c.hosts(id));
                ids.iter().map(host).collect()
            };
            let (before, dest) = (hosts(), cl.cores[to].name().to_owned());
            // Issued from the Core after `to`, which hosts the slots in
            // some schedules (the local path) and not in others (one
            // list-form `MoveRequest` to their host).
            match cl.cores[(to + 1) % cl.cores.len()].move_many(&ids, &dest) {
                // Slots on two Cores fail as a unit, with nothing moved.
                Err(FargoError::UnknownComplet(_))
                    if before.iter().any(|h| *h != before[0]) && hosts() == before =>
                {
                    Ok(())
                }
                result => result.map_err(|e| format!("move-many {slots:?} -> {dest}: {e}")),
            }
        }
        Op::Link {
            holder,
            dep,
            relocator,
        } => {
            let (Some(h), Some(d)) = (refs[holder].get(), refs[dep].get()) else {
                return Ok(());
            };
            cl.cores[0]
                .stub(h)
                .call(
                    "set_dep",
                    &[
                        Value::from(d.descriptor()),
                        Value::from(RELOCATORS[relocator]),
                    ],
                )
                .map(|_| ())
                .map_err(|e| format!("link slot{holder} -> slot{dep}: {e}"))
        }
        Op::Advance { micros } => {
            cl.clock.advance(Duration::from_micros(micros));
            Ok(())
        }
        Op::Collect { core } => {
            cl.cores[core].collect_trackers(Duration::from_millis(100));
            Ok(())
        }
        // Faults need `&mut Cluster` and go through `Cluster::apply_fault`
        // in the deterministic loop; stress mode drops them entirely.
        Op::Crash { .. } | Op::Restart { .. } | Op::Partition { .. } | Op::Heal { .. } => Ok(()),
    }
}

/// Runs `schedule` under `cfg` and reports violations plus the merged
/// journal.
pub fn run(schedule: &Schedule, cfg: &RunConfig) -> RunReport {
    let faults = cfg.faults || schedule.ops.iter().any(Op::is_fault);
    let mut cl = match Cluster::spawn(schedule, cfg.stress, cfg.trace, faults) {
        Ok(cl) => cl,
        Err(e) => {
            return RunReport {
                violations: vec![Violation::new("op-error", "cluster", e.to_string())],
                journal: Vec::new(),
                ops_applied: 0,
                spans: Vec::new(),
                accounting: String::new(),
            }
        }
    };
    let slots = schedule.slot_count();
    let refs: Vec<slotcell::SlotCell> = (0..slots).map(|_| slotcell::SlotCell::new()).collect();
    let audits: Vec<SlotAudit> = (0..slots).map(|_| SlotAudit::default()).collect();
    let mut violations = Vec::new();
    let mut ops_applied = 0usize;

    if cfg.stress {
        stress_phase(&cl, schedule, &refs, &audits);
        ops_applied = schedule.ops.len();
    } else {
        for op in &schedule.ops {
            if op.is_fault() {
                cl.apply_fault(op);
                ops_applied += 1;
                if !cl.quiesce(cfg.quiesce_polls) {
                    violations.push(Violation::new(
                        "stuck",
                        format!("op {}", ops_applied - 1),
                        format!("cluster failed to quiesce after {op:?}"),
                    ));
                    break;
                }
                continue;
            }
            if faults && cl.references_down_core(op) {
                ops_applied += 1;
                continue;
            }
            // Chain-growth oracle: an invocation return may shorten the
            // invoker's chain but must never lengthen it. A restart
            // rebuilds chains from scratch, so the check only binds on
            // fault-free schedules.
            let before = if let (false, Op::Invoke { slot, from }) = (faults, op) {
                refs[*slot].get().map(|r| {
                    let node = cl.cores[*from].node().index();
                    (
                        node,
                        r.id().to_string(),
                        oracles::chain_len(&cl.merged_journal(), node, &r.id().to_string()),
                    )
                })
            } else {
                None
            };
            let op_result = apply(&cl, &refs, &audits, op);
            ops_applied += 1;
            if !cl.quiesce(cfg.quiesce_polls) {
                violations.push(Violation::new(
                    "stuck",
                    format!("op {}", ops_applied - 1),
                    format!("cluster failed to quiesce after {op:?}"),
                ));
                break;
            }
            if let Err(detail) = op_result {
                // Under faults an op may legitimately fail (dead host,
                // cut link); the failure already fed the audit bounds.
                if !faults {
                    violations.push(Violation::new(
                        "op-error",
                        format!("op {}", ops_applied - 1),
                        detail,
                    ));
                    break;
                }
            }
            if cfg.step_oracles {
                let events = cl.merged_journal();
                let mut found = oracles::check_all(&events);
                if faults {
                    // Mid-partition the one-shot location publishes may
                    // not have landed; the shard oracle binds only at the
                    // healed, quiescent end.
                    found.retain(|v| v.oracle != "shard");
                    cl.forgive_lost(&mut found);
                }
                if let Some((node, id, Some(len_before))) = before {
                    if let Some(len_after) = oracles::chain_len(&events, node, &id) {
                        if len_after > len_before {
                            found.push(Violation::new(
                                "chain-growth",
                                id,
                                format!(
                                    "chain from n{node} grew {len_before} -> {len_after} \
                                     across an invocation return"
                                ),
                            ));
                        }
                    }
                }
                if !found.is_empty() {
                    violations.extend(found);
                    break;
                }
            }
        }
    }

    if faults && violations.is_empty() {
        // Make the cluster whole before the end-state audit: heal every
        // cut, restart every crashed core (replaying its WAL), resolve
        // any moves still parked as held state, and let it settle.
        for (a, b) in cl.cut.clone() {
            cl.apply_fault(&Op::Heal { a, b });
        }
        for i in 0..cl.cores.len() {
            if cl.down[i] {
                cl.apply_fault(&Op::Restart { core: i, log: true });
            }
        }
        let _ = cl.quiesce(cfg.quiesce_polls);
        for (i, c) in cl.cores.iter().enumerate() {
            if !cl.down[i] {
                c.resolve_held_now();
            }
        }
        let _ = cl.quiesce(cfg.quiesce_polls);
    }

    if violations.is_empty() {
        if !cl.quiesce(cfg.quiesce_polls) {
            violations.push(Violation::new(
                "stuck",
                "final",
                "cluster failed to quiesce",
            ));
        } else {
            let events = cl.merged_journal();
            let mut found = oracles::check_all(&events);
            if cfg.stress || faults {
                // Location publishes are one-shot notifies: injected loss
                // (or a crash taking a shard slice down with it) can
                // legitimately leave a shard stale at rest, so the shard
                // oracle only binds on lossless fault-free links.
                found.retain(|v| v.oracle != "shard");
                cl.forgive_lost(&mut found);
            }
            violations.extend(found);
            violations.extend(audit_counters(&cl, &refs, &audits, cfg.stress || faults));
        }
    }

    let journal = cl.merged_journal();
    let spans = if cfg.trace {
        cl.cores.iter().flat_map(Core::span_snapshot).collect()
    } else {
        Vec::new()
    };
    let accounting = cl.accounting_report();
    cl.teardown();
    RunReport {
        violations,
        journal,
        ops_applied,
        spans,
        accounting,
    }
}

/// At-most-once / no-acked-loss audit: each slot's counter must equal
/// the number of successful `add`s — or, in `lenient` mode (stress or
/// faults), land between the successes and successes + failures. The
/// lower bound is the durability oracle: every *acknowledged* add must
/// survive any crash; the upper bound is at-most-once: a failed
/// invocation may still have executed, but never twice. A slot an
/// unlogged restart lost is excused the lower bound and reachability.
fn audit_counters(
    cl: &Cluster,
    refs: &[slotcell::SlotCell],
    audits: &[SlotAudit],
    lenient: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (slot, cell) in refs.iter().enumerate() {
        let Some(r) = cell.get() else { continue };
        let ok = audits[slot].ok.load(Ordering::SeqCst);
        let failed = audits[slot].failed.load(Ordering::SeqCst);
        let mut value = None;
        for _ in 0..5 {
            match cl.cores[0].stub(r.clone()).call("get", &[]) {
                Ok(Value::I64(n)) => {
                    value = Some(n);
                    break;
                }
                _ => thread::sleep(Duration::from_millis(2)),
            }
        }
        // A slot an unlogged restart lost may be gone or behind its acks,
        // never ahead of its calls.
        let lost = cl.lost.contains(&r.id());
        let least = if lost { 0 } else { ok };
        match value {
            Some(n) if lenient && (n < least || n > ok + failed) => out.push(Violation::new(
                "counter",
                format!("slot{slot}"),
                format!("counter {n} outside [{least}, {}]", ok + failed),
            )),
            Some(n) if !lenient && n != ok => out.push(Violation::new(
                "counter",
                format!("slot{slot}"),
                format!("counter {n} after {ok} successful adds"),
            )),
            None if !lost => out.push(Violation::new(
                "counter",
                format!("slot{slot}"),
                "unreachable for final audit".to_owned(),
            )),
            _ => {}
        }
    }
    out
}

/// Stress execution: setup ops first (so slots exist), then two threads
/// race the rest. Op errors are expected under loss and only feed the
/// at-most-once bounds.
fn stress_phase(
    cl: &Cluster,
    schedule: &Schedule,
    refs: &[slotcell::SlotCell],
    audits: &[SlotAudit],
) {
    let mut rest = Vec::new();
    for op in &schedule.ops {
        if op.is_fault() {
            continue; // stress runs race threads on wall time; faults are deterministic-mode only
        }
        if matches!(op, Op::New { .. }) {
            let _ = apply(cl, refs, audits, op);
            let _ = cl.quiesce(1000);
        } else {
            rest.push(op.clone());
        }
    }
    thread::scope(|s| {
        for parity in 0..2usize {
            let rest = &rest;
            s.spawn(move || {
                for (i, op) in rest.iter().enumerate() {
                    if i % 2 == parity {
                        let _ = apply(cl, refs, audits, op);
                    }
                }
            });
        }
    });
}

/// Slot refs shared with stress threads: a std-Mutex cell, so the crate
/// adds no locking dependency of its own.
mod slotcell {
    use std::sync::Mutex;

    use super::CompletRef;

    #[derive(Debug, Default)]
    pub struct SlotCell(Mutex<Option<CompletRef>>);

    impl SlotCell {
        pub fn new() -> SlotCell {
            SlotCell::default()
        }

        pub fn set(&self, r: CompletRef) {
            *self.0.lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
        }

        pub fn get(&self) -> Option<CompletRef> {
            self.0.lock().unwrap_or_else(|p| p.into_inner()).clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Schedule;

    #[test]
    fn trivial_schedule_runs_clean() {
        let schedule = Schedule {
            seed: 1,
            cores: 2,
            ops: vec![
                Op::New { slot: 0, core: 0 },
                Op::Invoke { slot: 0, from: 1 },
                Op::Move { slot: 0, to: 1 },
                Op::Invoke { slot: 0, from: 0 },
            ],
        };
        let report = run(&schedule, &RunConfig::default());
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert_eq!(report.ops_applied, 4);
        assert!(!report.journal.is_empty());
    }
}
