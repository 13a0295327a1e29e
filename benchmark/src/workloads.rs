//! The four workloads, the closed-loop phases that drive them, and the
//! client-side model that checks every reply.
//!
//! Load is closed-loop because FarGo callers block on a quasi-local
//! call: the *sync phase* is one thread issuing blocking calls, the
//! *pipelined phase* one thread keeping a window of `call_async` in
//! flight and waiting them in issue order. A scripted mover (not the
//! planner) relocates chunks, so placement decisions are an input of
//! the run and not a source of run-to-run variance.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fargo_core::{BoundRef, CoreConfig, FargoError, PendingCall, RecoveryReport, Value};

use crate::cluster::{core_name, Cluster, ClusterSpec};
use crate::gen::{mix, record, value_bytes, KeyDist, Rng, Window, Zipf};
use crate::host;
use crate::trace::Tracer;

/// What one record of a chunk is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Records {
    /// An opaque byte string of this length; ops are `get` / `put`.
    Bytes(usize),
    /// `{k, v, tags}` maps (7 nodes each); ops are `scan` / `put_batch`
    /// over `batch` records.
    Graph { batch: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (copied into BENCHMARK.json).
    pub why: &'static str,
    pub tcp: bool,
    pub wal: bool,
    pub chunks: usize,
    pub recs_per_chunk: usize,
    pub records: Records,
    /// Percent of ops that read (`get` / `scan`); the rest write.
    pub read_pct: u64,
    /// Zipf exponent of the key popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// Calls in flight in the pipelined phase.
    pub window: usize,
    /// Whether the mover runs *during* the sync and pipelined phases
    /// (paced) instead of in a quiet phase of its own (back to back).
    pub moves_under_load: bool,
    /// The workload's changes to `CoreConfig::default()`.
    pub configure: fn(CoreConfig) -> CoreConfig,
}

/// No change to `CoreConfig::default()`.
pub fn defaults(config: CoreConfig) -> CoreConfig {
    config
}

/// Moves per second of the paced mover.
pub const MOVE_RATE: u64 = 100;
/// Kill/restart cycles behind `client.recover_ms` in the traced run.
pub const RESTART_CYCLES: usize = 9;
/// Kill/restart cycles of the untraced run, whose business is whether
/// every acknowledged `put` survives them; each re-reads every chunk
/// the victim hosted, so nine would take longer than the measurement.
pub const ORACLE_RESTARTS: usize = 3;
/// Cluster set-ups per run; `setup_s` is their median (the last one is
/// measured on).
pub const SETUPS: usize = 3;
/// Unrecorded warm-up that ends a set-up (it dials the links and seeds
/// the trackers): half of it blocking calls, half pipelined. A fixed
/// time, as ISSUE 11 has it, not an op count: how long a fixed number
/// of ops takes follows the spells of the host like every other time
/// (two single runs differed by up to 73%), and `setup_s` has a bound
/// to hold.
pub const WARM_UP: Duration = Duration::from_secs(2);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small-tcp",
        why: "many tiny calls over TCP loopback, Zipf keys, no WAL: per-message cost (envelope, framing, syscalls, dispatch, per-call telemetry) does the work",
        tcp: true,
        wal: false,
        chunks: 64,
        recs_per_chunk: 256,
        records: Records::Bytes(64),
        read_pct: 90,
        zipf: Some(0.99),
        window: 64,
        moves_under_load: false,
        configure: defaults,
    },
    Workload {
        name: "graph-simnet",
        why: "256-record by-value graphs (1.8k nodes, 16 KB) over simnet, no sockets: per-node cost (copy, encode, decode) does the work; a TCP-side gain must show no change here",
        tcp: false,
        wal: false,
        chunks: 64,
        recs_per_chunk: 1024,
        records: Records::Graph { batch: 256 },
        read_pct: 50,
        zipf: None,
        window: 16,
        moves_under_load: false,
        configure: defaults,
    },
    Workload {
        name: "durable-tcp",
        why: "100% puts on 2 KiB chunks with a synced write-ahead log on every Core, then kill/restart: per-ack state capture, sync_data, compaction and replay do the work; a wire gain should move it little",
        tcp: true,
        wal: true,
        chunks: 512,
        recs_per_chunk: 16,
        records: Records::Bytes(128),
        read_pct: 0,
        zipf: None,
        window: 64,
        moves_under_load: false,
        configure: defaults,
    },
    Workload {
        name: "relocate-tcp",
        why: "uniform gets racing a scripted mover that flips 4 KiB chunks between the data Cores 100 times a second: two-phase movement, shard publish and tracker repair do the work",
        tcp: true,
        wal: false,
        chunks: 64,
        recs_per_chunk: 64,
        records: Records::Bytes(64),
        read_pct: 100,
        zipf: None,
        window: 64,
        moves_under_load: true,
        configure: defaults,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated call.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub chunk: usize,
    /// Index of the (first) record in the chunk.
    pub start: usize,
    pub write: bool,
}

/// How long a phase runs: a fixed op count (the quiet moves of the
/// traced run) or a fixed time (warm-up and measurement).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Ops(u64),
    Time(Duration),
}

impl Budget {
    fn spent(self, ops: u64, elapsed: Duration) -> bool {
        match self {
            Budget::Ops(n) => ops >= n,
            Budget::Time(d) => elapsed >= d,
        }
    }
}

/// One op of the traced phase kept for the layer probes.
pub struct Recorded {
    /// The op's root span.
    pub span: u32,
    pub op: u32,
    pub args: Vec<Value>,
    pub reply: Value,
}

/// Span recording around every call of a sync phase, keeping the args
/// and reply of every `stride`-th op.
pub struct Tap {
    pub tracer: Tracer,
    pub stride: u64,
    pub keep: usize,
    /// Ops traced so far (the op index spans share).
    pub seen: u64,
    pub kept: Vec<Recorded>,
}

/// One slice of the pipelined phase.
#[derive(Debug, Clone, Copy)]
pub struct PipelinedSlice {
    /// Verified-correct replies.
    pub ok: u64,
    pub secs: f64,
    /// Process CPU time (user + system) spent.
    pub cpu_us: u64,
}

pub struct MoverRun {
    pub placement: Vec<u8>,
    /// `(offset into the phase, latency from the move's due time)`, ns.
    pub samples: Vec<(u64, u64)>,
    pub phase_ns: u64,
    /// How far behind its schedule the paced mover issued a move.
    pub late_max_us: u64,
    pub failed: u64,
}

/// A workload set up on its cluster, with the client-side model.
pub struct Bench {
    pub w: Workload,
    pub cluster: Cluster,
    /// Chunk → reference bound at the client Core.
    pub refs: Vec<BoundRef>,
    /// Chunk → index of the Core the mover (or set-up) left it on.
    pub placement: Vec<u8>,
    salt: u64,
    rng: Rng,
    dist: KeyDist,
    /// The model: version of the last acknowledged write per record
    /// (0 = the population fill).
    versions: Vec<u32>,
    chunk_writes: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    wal_root: Option<PathBuf>,
}

impl Bench {
    /// Spawns the cluster, fills the population and warms the paths up
    /// for `warm_up`. Returns the bench and how long all of that took,
    /// in seconds.
    pub fn setup(
        w: Workload,
        seed: u64,
        scratch: &Path,
        tag: &str,
        warm_up: Duration,
    ) -> Result<(Bench, f64), FargoError> {
        let started = Instant::now();
        let wal_root = w.wal.then(|| scratch.join(tag));
        let cluster = Cluster::start(ClusterSpec {
            tcp: w.tcp,
            wal_root: wal_root.clone(),
            configure: w.configure,
        })?;
        let salt = mix(seed, 0x5a17);
        let records = w.chunks * w.recs_per_chunk;
        let dist = match (w.records, w.zipf) {
            (Records::Graph { .. }, _) => KeyDist::Uniform(w.chunks as u64),
            (_, Some(theta)) => KeyDist::Zipf(Zipf::new(records, theta)),
            (_, None) => KeyDist::Uniform(records as u64),
        };
        let mut bench = Bench {
            w,
            cluster,
            refs: Vec::new(),
            placement: (0..w.chunks).map(|c| 1 + (c % 2) as u8).collect(),
            salt,
            rng: Rng::new(seed),
            dist,
            versions: vec![0; records],
            chunk_writes: vec![0; w.chunks],
            attempted: 0,
            failed: 0,
            wal_root,
        };
        bench.populate()?;
        let warm = |b: &mut Bench| {
            b.sync_phase(Budget::Time(warm_up / 2), None);
            b.pipelined_phase(Budget::Time(warm_up / 2));
        };
        if w.moves_under_load {
            bench.with_mover(Some(MOVE_RATE), warm);
        } else {
            warm(&mut bench);
        }
        Ok((bench, started.elapsed().as_secs_f64()))
    }

    /// One thread per data Core creates that Core's chunks (the even
    /// ones on `core1`, the odd ones on `core2`); the records travel by
    /// value with the constructor call.
    fn populate(&mut self) -> Result<(), FargoError> {
        let this = &*self;
        let create = |c: usize| {
            let per = this.w.recs_per_chunk;
            let recs = (c * per..(c + 1) * per).map(|key| this.expected(key));
            this.cluster.cores[0].new_complet_at(
                &core_name(this.placement[c] as usize),
                "KvChunk",
                &[Value::list(recs)],
            )
        };
        let per_host: Vec<Result<Vec<BoundRef>, FargoError>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|host| s.spawn(move || (host..this.w.chunks).step_by(2).map(create).collect()))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("populate thread"))
                .collect()
        });
        let per_host = per_host.into_iter().collect::<Result<Vec<_>, _>>()?;
        self.refs = (0..self.w.chunks)
            .map(|c| per_host[c % 2][c / 2].clone())
            .collect();
        Ok(())
    }

    /// The value the model holds for the record at global index `key`.
    fn expected(&self, key: usize) -> Value {
        match self.w.records {
            Records::Bytes(len) => {
                Value::Bytes(value_bytes(self.salt, key as u64, self.versions[key], len))
            }
            Records::Graph { .. } => record(self.salt, key as u64, self.versions[key]),
        }
    }

    /// Draws the next op; in the pipelined phase `window` keeps a write
    /// from sharing the window with another op on its key.
    fn next_op(&mut self, window: Option<&mut Window>) -> Op {
        let write = self.rng.below(100) >= self.w.read_pct;
        let key = match window {
            Some(win) => win.admit(&mut self.rng, &self.dist, write),
            None => self.dist.sample(&mut self.rng),
        } as usize;
        let per = self.w.recs_per_chunk;
        match self.w.records {
            Records::Bytes(_) => {
                if write {
                    self.versions[key] += 1;
                }
                Op {
                    chunk: key / per,
                    start: key % per,
                    write,
                }
            }
            // The drawn key is the chunk; a batch covers `batch`
            // records from a uniform start.
            Records::Graph { batch } => {
                let start = self.rng.below((per - batch + 1) as u64) as usize;
                if write {
                    self.chunk_writes[key] += 1;
                    let base = key * per + start;
                    self.versions[base..base + batch].fill(self.chunk_writes[key]);
                }
                Op {
                    chunk: key,
                    start,
                    write,
                }
            }
        }
    }

    fn request(&self, op: &Op) -> (&'static str, Vec<Value>) {
        let base = op.chunk * self.w.recs_per_chunk + op.start;
        let start = Value::I64(op.start as i64);
        match (self.w.records, op.write) {
            (Records::Bytes(_), false) => ("get", vec![start]),
            (Records::Bytes(_), true) => ("put", vec![start, self.expected(base)]),
            (Records::Graph { batch }, false) => ("scan", vec![start, Value::I64(batch as i64)]),
            (Records::Graph { batch }, true) => (
                "put_batch",
                vec![
                    start,
                    Value::list((base..base + batch).map(|k| self.expected(k))),
                ],
            ),
        }
    }

    /// Checks a reply against the model and counts the op.
    fn check(&mut self, op: &Op, reply: &Result<Value, FargoError>) -> bool {
        let base = op.chunk * self.w.recs_per_chunk + op.start;
        let ok = match (reply, self.w.records, op.write) {
            (Err(_), ..) => false,
            (Ok(v), Records::Bytes(_), false) => *v == self.expected(base),
            (Ok(v), Records::Bytes(_), true) => v.is_null(),
            (Ok(v), Records::Graph { batch }, false) => self.matches(v, base, batch),
            (Ok(v), Records::Graph { batch }, true) => v.as_i64() == Some(batch as i64),
        };
        self.count(ok, || format!("{op:?} -> {}", brief(reply)));
        ok
    }

    fn matches(&self, list: &Value, base: usize, n: usize) -> bool {
        list.as_list().is_some_and(|l| {
            l.len() == n
                && l.iter()
                    .enumerate()
                    .all(|(i, v)| *v == self.expected(base + i))
        })
    }

    fn count(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED op: {}", what());
            }
        }
    }

    /// One thread issuing blocking calls; returns the latency of each
    /// in ns.
    pub fn sync_phase(&mut self, budget: Budget, mut tap: Option<&mut Tap>) -> Vec<u64> {
        let capacity = match budget {
            Budget::Ops(n) => n as usize,
            // Pre-allocated so the buffer never grows mid-phase.
            Budget::Time(d) => (d.as_secs_f64() * 40_000.0) as usize + 1_000,
        };
        let mut latencies = Vec::with_capacity(capacity);
        let start = Instant::now();
        let mut ops = 0u64;
        while !budget.spent(ops, start.elapsed()) {
            let op = self.next_op(None);
            let (method, args) = self.request(&op);
            let span_start = tap.as_ref().map(|t| t.tracer.now_ns());
            let called = Instant::now();
            let reply = self.refs[op.chunk].call(method, &args);
            let latency = called.elapsed();
            if let (Some(tap), Some(s)) = (tap.as_deref_mut(), span_start) {
                let end = tap.tracer.now_ns();
                tap.seen += 1;
                let span = tap.tracer.record("call", 0, tap.seen as u32, s, end);
                if tap.seen % tap.stride == 0 && tap.kept.len() < tap.keep {
                    if let Ok(value) = &reply {
                        tap.kept.push(Recorded {
                            span,
                            op: tap.seen as u32,
                            args,
                            reply: value.clone(),
                        });
                    }
                }
            }
            self.check(&op, &reply);
            latencies.push(latency.as_nanos() as u64);
            ops += 1;
        }
        latencies
    }

    /// One thread keeping `window` calls in flight, waited in issue
    /// order.
    pub fn pipelined_phase(&mut self, budget: Budget) -> PipelinedSlice {
        let mut window = Window::default();
        let mut inflight: VecDeque<(Op, PendingCall)> = VecDeque::with_capacity(self.w.window);
        let cpu_before = host::cpu_time_us();
        let start = Instant::now();
        let (mut issued, mut ok) = (0u64, 0u64);
        loop {
            let open = !budget.spent(issued, start.elapsed());
            while open && window.len() < self.w.window {
                let op = self.next_op(Some(&mut window));
                let (method, args) = self.request(&op);
                inflight.push_back((op, self.refs[op.chunk].call_async(method, &args)));
                issued += 1;
            }
            let Some((op, pending)) = inflight.pop_front() else {
                break;
            };
            let reply = pending.wait();
            ok += u64::from(self.check(&op, &reply));
            window.retire_oldest();
        }
        PipelinedSlice {
            ok,
            secs: start.elapsed().as_secs_f64(),
            cpu_us: host::cpu_time_us() - cpu_before,
        }
    }

    /// Runs `body` while a mover thread relocates chunks at `rate`
    /// moves per second, then folds the mover's result into the bench.
    pub fn with_mover(&mut self, rate: Option<u64>, body: impl FnOnce(&mut Bench)) -> MoverRun {
        let stop = Arc::new(AtomicBool::new(false));
        let mover = {
            let (refs, placement, stop) = (self.refs.clone(), self.placement.clone(), stop.clone());
            std::thread::Builder::new()
                .name("bench-mover".into())
                .spawn(move || run_mover(&refs, placement, rate, None, &stop))
                .expect("spawn mover")
        };
        body(self);
        stop.store(true, Ordering::SeqCst);
        let run = mover.join().expect("mover thread");
        self.absorb(&run);
        run
    }

    /// Moves with no concurrent calls, back to back (or paced at `rate`).
    pub fn move_phase(&mut self, budget: Budget, rate: Option<u64>) -> MoverRun {
        let stop = AtomicBool::new(false);
        let run = run_mover(
            &self.refs,
            self.placement.clone(),
            rate,
            Some(budget),
            &stop,
        );
        self.absorb(&run);
        run
    }

    fn absorb(&mut self, run: &MoverRun) {
        self.placement.clone_from(&run.placement);
        self.attempted += run.samples.len() as u64;
        self.failed += run.failed;
    }

    /// End-of-run audit: reads every record back and locates every
    /// chunk. A value that disagrees with the model or a chunk found on
    /// the wrong Core counts as a failed op.
    pub fn audit(&mut self) {
        self.read_back(&(0..self.w.chunks).collect::<Vec<_>>(), false);
        for c in 0..self.w.chunks {
            let want = self.cluster.cores[self.placement[c] as usize]
                .node()
                .index();
            let found = self.cluster.cores[0].locate(self.refs[c].id());
            self.count(found.as_ref().ok() == Some(&want), || {
                format!("locate chunk {c}: {found:?}, mover left it on node {want}")
            });
        }
    }

    /// Scans whole chunks (16 in flight) and checks every record;
    /// `fresh` goes through references seeded anew at the client Core.
    fn read_back(&mut self, chunks: &[usize], fresh: bool) {
        let per = self.w.recs_per_chunk;
        let args = [Value::I64(0), Value::I64(per as i64)];
        for group in chunks.chunks(16) {
            let pending: Vec<(usize, PendingCall)> = group
                .iter()
                .map(|&c| {
                    if fresh {
                        self.refs[c] = self
                            .cluster
                            .fresh_ref(self.refs[c].id(), self.placement[c] as usize);
                    }
                    (c, self.refs[c].call_async("scan", &args))
                })
                .collect();
            for (c, p) in pending {
                let reply = p.wait();
                let ok = reply.as_ref().is_ok_and(|v| self.matches(v, c * per, per));
                self.count(ok, || format!("read back chunk {c}: {}", brief(&reply)));
            }
        }
    }

    /// Kill/restart cycles of `core1` on its write-ahead log. Returns
    /// per cycle the ms from `spawn()` on the existing log until a `get`
    /// through a fresh reference on a chunk it hosted is answered; after
    /// each cycle every acknowledged record it hosted is re-read.
    pub fn restart_cycles(&mut self, cycles: usize) -> (Vec<f64>, Option<RecoveryReport>) {
        let victim = 1usize;
        let hosted: Vec<usize> = (0..self.w.chunks)
            .filter(|&c| self.placement[c] as usize == victim)
            .collect();
        let mut times = Vec::with_capacity(cycles);
        let mut report = None;
        for _ in 0..cycles {
            let started = match self.cluster.restart(victim) {
                Ok(t) => t,
                Err(e) => {
                    self.count(false, || format!("restart: {e}"));
                    break;
                }
            };
            let probe = self.cluster.fresh_ref(self.refs[hosted[0]].id(), victim);
            let served = probe.call("get", &[Value::I64(0)]);
            times.push(started.elapsed().as_secs_f64() * 1e3);
            self.count(served.is_ok(), || {
                format!("first request after restart: {}", brief(&served))
            });
            report = self.cluster.cores[victim].recovery_report();
            self.read_back(&hosted, true);
        }
        (times, report)
    }

    /// Stops the cluster and removes its write-ahead logs.
    pub fn teardown(self) {
        self.cluster.stop();
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }

    pub fn wal_root(&self) -> Option<&Path> {
        self.wal_root.as_deref()
    }
}

fn brief(reply: &Result<Value, FargoError>) -> String {
    match reply {
        Ok(v) => format!("Ok({} nodes)", v.count_nodes()),
        Err(e) => format!("Err({e})"),
    }
}

/// The scripted mover: round-robin over the chunks, flipping each
/// between `core1` and `core2`. Paced, a move is due every `1/rate`
/// seconds and timed from its due time, so a stall shows as latency of
/// the moves behind it; unpaced, moves run back to back.
fn run_mover(
    refs: &[BoundRef],
    mut placement: Vec<u8>,
    rate: Option<u64>,
    budget: Option<Budget>,
    stop: &AtomicBool,
) -> MoverRun {
    let mut samples = Vec::with_capacity(4_096);
    let (mut late_max_us, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) && !budget.is_some_and(|b| b.spent(n, start.elapsed())) {
        let due = match rate {
            Some(rate) => {
                let due = Duration::from_nanos(n * 1_000_000_000 / rate);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                due
            }
            None => start.elapsed(),
        };
        let c = (n % refs.len() as u64) as usize;
        let dest = 3 - placement[c];
        let issued = start.elapsed();
        late_max_us = late_max_us.max((issued - due).as_micros() as u64);
        match refs[c].move_to(&core_name(dest as usize)) {
            Ok(()) => placement[c] = dest,
            Err(e) => {
                failed += 1;
                if failed <= 5 {
                    eprintln!("FAILED move of chunk {c} to core{dest}: {e}");
                }
            }
        }
        samples.push((
            due.as_nanos() as u64,
            (start.elapsed() - due).as_nanos() as u64,
        ));
        n += 1;
    }
    MoverRun {
        placement,
        samples,
        phase_ns: start.elapsed().as_nanos() as u64,
        late_max_us,
        failed,
    }
}
