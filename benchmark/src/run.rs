//! The two kinds of run: the untraced one that yields the end-to-end
//! metrics, and the traced one that yields the layer table.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use fargo_core::{CoreConfig, FargoError, Value};
use fargo_net::Transport;
use fargo_telemetry::quantile_from_cumulative;

use crate::cluster::{core_name, Cluster, ClusterSpec, Counters};
use crate::host;
use crate::probes::{self, Replayed};
use crate::stats::{median, percentile_of, Summary, SEGMENTS};
use crate::trace::Tracer;
use crate::workloads::{
    defaults, Bench, Budget, MoverRun, PipelinedSlice, Tap, Workload, MOVE_RATE, ORACLE_RESTARTS,
    RESTART_CYCLES, SETUPS, WARM_UP,
};

/// `(name, unit, better)` of every end-to-end metric, in report order.
/// BENCHMARK.json lists the same names (a unit test compares them).
///
/// ISSUE 11 names eight. Its rule for a metric whose repeat runs spread
/// wider than its bound is to demote it to a per-layer metric, and on
/// the shared 2-vCPU boxes this runs on that holds for everything timed
/// on the request path: ten identical runs spread by 5-12% in a calm
/// spell of the host and by 16-33% in a noisy one (README.md has the
/// runs), against a bound of at most 25% and a target spread of a third
/// of it. So `sync_p50_us`, `pipelined_ops_per_s`, `cpu_us_per_op`,
/// `move_p50_us` and `recover_ms` are the per-layer `client.*` metrics:
/// printed by every run, bounded by none, compared by alternating pairs
/// when a change claims to move one. `fail_ratio` must be 0, which a
/// metric may not be: it is the result line's `failed` over `attempted`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("msgs_per_op", "count", "lower"),
    ("wire_bytes_per_op", "bytes", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// By how much of the parent's median an end-to-end metric may get
/// worse before a change counts as a regression (BENCHMARK.json's
/// `bound`; `repeat` holds two sets of runs of one build to the same).
/// Each is at least three times the widest spread seen between ten
/// identical runs, where the cap of 25% allows: messages per op repeat
/// within 0.5%; bytes per op within 2%, and within 6.5% when the disk's
/// other tenants stall `durable-tcp`'s calls past the retransmission
/// timer (re-sent requests and re-synced shards have replies too);
/// set-up time and memory get the widest bound a benchmark may set.
pub fn bound(metric: &str) -> f64 {
    match metric {
        "msgs_per_op" => 0.10,
        "wire_bytes_per_op" => 0.20,
        _ => 0.25,
    }
}

/// `(name, unit, better)` of every per-layer metric. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("client.sync_p50_us", "us", "lower"),
    ("client.sync_p99_us", "us", "lower"),
    ("client.sync_samples", "count", "higher"),
    ("client.pipelined_ops_per_s", "1/s", "higher"),
    ("client.cpu_us_per_op", "us", "lower"),
    ("client.move_p50_us", "us", "lower"),
    ("client.mover_late_us_max", "us", "lower"),
    ("client.recover_ms", "ms", "lower"),
    ("client.trace_overhead_us", "us", "lower"),
    ("wire.clone_ns_per_msg", "ns", "lower"),
    ("wire.encode_ns_per_msg", "ns", "lower"),
    ("wire.decode_ns_per_msg", "ns", "lower"),
    ("wire.bytes_per_msg", "bytes", "lower"),
    ("wire.nodes_per_msg", "count", "lower"),
    ("net.frame_ns_per_msg", "ns", "lower"),
    ("net.tcp_rtt_us_p50", "us", "lower"),
    ("net.tcp_msgs_per_s", "1/s", "higher"),
    ("net.simnet_rtt_us_p50", "us", "lower"),
    ("net.dropped_sends", "count", "lower"),
    ("naming.owner_ns", "ns", "lower"),
    ("naming.apply_ns", "ns", "lower"),
    ("naming.locate_us_p50", "us", "lower"),
    ("naming.lookup_hops_mean", "count", "lower"),
    ("core.local_call_ns", "ns", "lower"),
    ("core.queue_us_p50", "us", "lower"),
    ("core.marshal_us_p50", "us", "lower"),
    ("core.network_us_p50", "us", "lower"),
    ("core.exec_us_p50", "us", "lower"),
    ("core.msgs_per_op", "count", "lower"),
    ("core.wire_bytes_per_op", "bytes", "lower"),
    ("core.envelope_overhead_bytes", "bytes", "lower"),
    ("core.rpc_retries", "count", "lower"),
    ("core.dedup_hits", "count", "lower"),
    ("core.worker_rejections", "count", "lower"),
    ("core.threads", "count", "lower"),
    ("core.unattributed_us", "us", "lower"),
    ("core.wal.capture_us", "us", "lower"),
    ("core.wal.fsync_us", "us", "lower"),
    ("core.wal.disk_fsync_us_p50", "us", "lower"),
    ("core.wal.appends_per_op", "count", "lower"),
    ("core.wal.bytes_per_ack", "bytes", "lower"),
    ("core.wal.compactions", "count", "lower"),
    ("core.recover.replayed", "count", "higher"),
    ("core.recover.replay_us", "us", "lower"),
    ("core.move.quiet_us_p50", "us", "lower"),
    ("core.move.msgs_per_move", "count", "lower"),
    ("core.move.bytes_per_move", "bytes", "lower"),
    ("core.move.failures", "count", "lower"),
    ("core.move.indoubt", "count", "lower"),
    ("core.move.first_try_ratio", "ratio", "higher"),
    ("telemetry.per_call_ns", "ns", "lower"),
    ("telemetry.journal_append_ns", "ns", "lower"),
    ("telemetry.histogram_observe_ns", "ns", "lower"),
];

/// What a run reports: the metrics by name, and the oracle's verdict.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
}

fn seconds(s: f64) -> Budget {
    Budget::Time(Duration::from_secs_f64(s))
}

/// How many rounds a run of `s` seconds is cut into: two per second, so
/// that a slice is long enough for a p50 (60 blocking calls of the
/// slowest workload) and a slow spell of the host, which lasts seconds,
/// hits the sync and the pipelined slices alike.
fn rounds(s: u64) -> usize {
    (2 * s).clamp(4, 120) as usize
}

fn p50_us(latencies_ns: &mut [u64]) -> f64 {
    percentile_of(latencies_ns, 50.0) / 1e3
}

/// Per-slice p50 (µs) of a mover's samples, cut into `slices` by time.
fn move_slices_us(run: &MoverRun, slices: usize) -> Vec<f64> {
    let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for &(offset, latency) in &run.samples {
        let i = (u128::from(offset) * slices as u128 / u128::from(run.phase_ns.max(1))) as usize;
        by_slice[i.min(slices - 1)].push(latency);
    }
    by_slice
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| p50_us(s))
        .collect()
}

fn delta(after: &Counters, before: &Counters, name: &str) -> f64 {
    (after.counter(name) - before.counter(name)) as f64
}

/// `(messages, bytes)` of the calls made between two snapshots.
fn call_traffic(after: &Counters, before: &Counters) -> (f64, f64) {
    let grown = |name| (after.call_counter(name) - before.call_counter(name)) as f64;
    (
        grown("fargo_msg_out_total"),
        grown("fargo_msg_out_bytes_total"),
    )
}

/// The program's exported counters read around the sync and pipelined
/// slices of every round.
const CALL_COUNTERS: [&str; 5] = [
    "fargo_rpc_retries_total",
    "fargo_dedup_hits_total",
    "fargo_worker_rejections_total",
    "fargo_wal_appends_total",
    "fargo_wal_compactions_total",
];

/// The program's phase histograms (PR 6), read around the sync slices
/// only: a blocking call meets no queue of its own making, so these are
/// the phases of the call the layer table budgets.
const PHASES: [(&str, &str); 4] = [
    ("core.queue_us_p50", "fargo_latency_queue_us"),
    ("core.marshal_us_p50", "fargo_latency_marshal_us"),
    ("core.network_us_p50", "fargo_latency_network_us"),
    ("core.exec_us_p50", "fargo_latency_exec_us"),
];

/// Everything the measured rounds yield: per-slice values for what is
/// timed, totals for what is counted.
#[derive(Default)]
struct Slices {
    sync_p50_us: Vec<f64>,
    traced_p50_us: Vec<f64>,
    sync_ns: Vec<u64>,
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    /// Verified replies of all pipelined slices, and the `(messages,
    /// bytes)` of their calls.
    pipelined_ok: u64,
    pipelined_traffic: (f64, f64),
    /// Calls of either kind, their `(messages, bytes)`, the growth of
    /// every counter in [`CALL_COUNTERS`] around them, and how many of
    /// the calls the Cores executed needed no extra hop.
    calls: u64,
    call_traffic: (f64, f64),
    call_counts: BTreeMap<&'static str, f64>,
    /// Growth of every histogram in [`PHASES`] over the sync slices, as
    /// cumulative buckets.
    phases: BTreeMap<&'static str, Vec<(u64, u64)>>,
    direct_calls: u64,
    executed_calls: u64,
    move_p50_us: Vec<f64>,
    moves: u64,
    mover_late_us: u64,
}

impl Slices {
    fn sync(&mut self, mut latencies: Vec<u64>) {
        if !latencies.is_empty() {
            self.sync_p50_us.push(p50_us(&mut latencies));
            self.sync_ns.append(&mut latencies);
        }
    }

    fn pipelined(&mut self, slice: PipelinedSlice, before: &Counters, after: &Counters) {
        if slice.ok > 0 {
            self.ops_per_s.push(slice.ok as f64 / slice.secs);
            self.cpu_us_per_op
                .push(slice.cpu_us as f64 / slice.ok as f64);
            self.pipelined_ok += slice.ok;
            let (msgs, bytes) = call_traffic(after, before);
            self.pipelined_traffic.0 += msgs;
            self.pipelined_traffic.1 += bytes;
        }
    }

    /// What the load generator timed, each the median of its slices:
    /// the numbers users see first, which no bound hangs on (see
    /// [`END_TO_END`]).
    fn client_metrics(&mut self, recover_ms: &[f64]) -> Vec<(&'static str, &'static str, Summary)> {
        let mut out = Vec::new();
        let mut put = |name, unit, values: &[f64], samples: u64| {
            if !values.is_empty() {
                out.push((name, unit, Summary::median_of(values, samples)));
            }
        };
        let calls = self.sync_ns.len() as u64;
        let ops = self.pipelined_ok;
        put("client.sync_p50_us", "us", &self.sync_p50_us, calls);
        put("client.pipelined_ops_per_s", "1/s", &self.ops_per_s, ops);
        put("client.cpu_us_per_op", "us", &self.cpu_us_per_op, ops);
        put("client.move_p50_us", "us", &self.move_p50_us, self.moves);
        put(
            "client.recover_ms",
            "ms",
            recover_ms,
            recover_ms.len() as u64,
        );
        if calls > 0 {
            let p99 = percentile_of(&mut self.sync_ns, 99.0) / 1e3;
            out.push(("client.sync_p99_us", "us", Summary::single(p99)));
            out.push((
                "client.sync_samples",
                "count",
                Summary::single(calls as f64),
            ));
        }
        if self.moves > 0 {
            let late = Summary::single(self.mover_late_us as f64);
            out.push(("client.mover_late_us_max", "us", late));
        }
        out
    }
}

/// Shares of a round given to the sync slice (twice when tracing: one
/// plain, one traced), to the pipelined slice, and to the sync slice of
/// each of the traced run's side clusters, if it has any.
struct Shares {
    sync: f64,
    pipelined: f64,
    sides: f64,
}

/// The measured part of a run: `s` seconds as rounds of a sync slice
/// and a pipelined slice, under a mover paced at [`MOVE_RATE`] when the
/// workload's calls race moves. With a tap, every round also has a
/// traced sync slice.
fn measured_rounds(
    bench: &mut Bench,
    s: u64,
    shares: &Shares,
    mut tap: Option<&mut Tap>,
    mut sides: Option<&mut WalSides>,
) -> Slices {
    let n = rounds(s);
    let round = s as f64 / n as f64;
    let mut out = Slices::default();
    let mut one_round = |b: &mut Bench, out: &mut Slices| {
        let before = b.cluster.counters();
        let replies = b.attempted;
        let plain_slice = b.sync_phase(seconds(shares.sync * round), None);
        if let Some(tap) = tap.as_deref_mut() {
            if tap.seen == 0 {
                // The first slice tells the rate, so that the kept ops
                // spread evenly over the traced slices.
                let expected = plain_slice.len() * n;
                tap.stride = expected.div_ceil(tap.keep).max(1) as u64;
                tap.tracer = Tracer::with_capacity(expected * 2 + tap.keep * 8);
            }
            let mut traced = b.sync_phase(seconds(shares.sync * round), Some(tap));
            if !traced.is_empty() {
                out.traced_p50_us.push(p50_us(&mut traced));
            }
        }
        out.sync(plain_slice);
        if let Some(sides) = sides.as_deref_mut() {
            sides.slice(seconds(shares.sides * round));
        }
        let between = b.cluster.counters();
        for (metric, histogram) in PHASES {
            let grown = between.buckets(histogram);
            let total = out
                .phases
                .entry(metric)
                .or_insert_with(|| grown.iter().map(|&(bound, _)| (bound, 0)).collect());
            for ((sum, after), was) in total.iter_mut().zip(&grown).zip(before.buckets(histogram)) {
                sum.1 += after.1 - was.1;
            }
        }
        let slice = b.pipelined_phase(seconds(shares.pipelined * round));
        let after = b.cluster.counters();
        out.pipelined(slice, &between, &after);
        out.calls += b.attempted - replies;
        let (msgs, bytes) = call_traffic(&after, &before);
        out.call_traffic.0 += msgs;
        out.call_traffic.1 += bytes;
        for name in CALL_COUNTERS {
            *out.call_counts.entry(name).or_default() += delta(&after, &before, name);
        }
        let (direct0, executed0) = before.histogram("fargo_invoke_hops", 0);
        let (direct1, executed1) = after.histogram("fargo_invoke_hops", 0);
        out.direct_calls += direct1 - direct0;
        out.executed_calls += executed1 - executed0;
    };
    if bench.w.moves_under_load {
        let moves = bench.with_mover(Some(MOVE_RATE), |b| {
            for _ in 0..n {
                one_round(b, &mut out);
            }
        });
        out.move_p50_us = move_slices_us(&moves, n);
        out.moves = moves.samples.len() as u64;
        out.mover_late_us = moves.late_max_us;
    } else {
        for _ in 0..n {
            one_round(bench, &mut out);
        }
    }
    out
}

fn no_calls() -> FargoError {
    FargoError::App("no call completed in the measured slices".into())
}

/// The untraced run: every end-to-end metric of one workload.
pub fn end_to_end(w: Workload, seed: u64, s: u64, scratch: &Path) -> Result<Outcome, FargoError> {
    // Set up several times and report the median, so that neither a
    // slow spawn nor a lucky one decides `setup_s`; the last set-up is
    // the one measured on.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for i in 0..SETUPS {
        if let Some(previous) = bench.take() {
            previous.teardown();
        }
        let (b, took) = Bench::setup(w, seed, scratch, &format!("run{i}"), WARM_UP)?;
        setups.push(took);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", Summary::median_of(&setups, SETUPS as u64));

    let shares = Shares {
        sync: 0.4,
        pipelined: 0.6,
        sides: 0.0,
    };
    let mut slices = measured_rounds(&mut bench, s, &shares, None, None);
    bench.audit();
    let recover = if w.wal {
        bench.restart_cycles(ORACLE_RESTARTS).0
    } else {
        Vec::new()
    };

    let ops = slices.pipelined_ok;
    if ops == 0 {
        return Err(no_calls());
    }
    let per_op = |total: f64| Summary {
        samples: ops,
        ..Summary::single(total / ops as f64)
    };
    metrics.insert("msgs_per_op", per_op(slices.pipelined_traffic.0));
    metrics.insert("wire_bytes_per_op", per_op(slices.pipelined_traffic.1));
    // At exit, so that growth under load is in; the latency buffers
    // were allocated before the first call of their slice.
    metrics.insert("peak_rss_mb", Summary::single(host::peak_rss_mb()));
    for (name, unit, m) in slices.client_metrics(&recover) {
        println!(
            "info {name} {} {unit} min {} max {} n {}",
            m.value, m.min, m.max, m.samples
        );
    }
    let outcome = Outcome {
        metrics,
        attempted: bench.attempted,
        failed: bench.failed,
    };
    bench.teardown();
    Ok(outcome)
}

// --- the traced run --------------------------------------------------------

/// A reduced copy of the workload for a side cluster that isolates one
/// cost: same chunk shape and op mix, fewer chunks, and its own log
/// settings.
fn side(w: Workload, wal: bool, configure: fn(CoreConfig) -> CoreConfig) -> Workload {
    Workload {
        chunks: w.chunks.min(32),
        moves_under_load: false,
        wal,
        configure,
        ..w
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A blocking local `get` (ns) on a fresh memory-only Core.
fn bare_local_call_ns(
    configure: fn(CoreConfig) -> CoreConfig,
    population: Vec<Value>,
) -> Result<f64, FargoError> {
    let cluster = Cluster::start(ClusterSpec {
        tcp: false,
        wal_root: None,
        configure,
    })?;
    let local = probes::local_call_ns(&cluster.cores[0], population);
    cluster.stop();
    Ok(local?.value)
}

fn all_observability_off(config: CoreConfig) -> CoreConfig {
    config
        .with_tracing(false)
        .with_journaling(false)
        .with_phase_timing(false)
        .with_accounting(false)
}

fn wal_no_fsync(config: CoreConfig) -> CoreConfig {
    // Compaction pushed out of reach, so log growth is appends only.
    config
        .with_wal_fsync(false)
        .with_wal_compact_records(u64::MAX)
}

/// The write-ahead log's share of a blocking call, from two side
/// clusters that get a sync slice in every round of the traced run:
/// the same ops without a log and with an unsynced one. The workload's
/// own cluster is the one with the synced log, and the three are
/// compared round by round, so that a slow spell of the host or of its
/// disk hits all three alike.
struct WalSides {
    no_wal: Bench,
    unsynced: Bench,
    no_wal_p50_us: Vec<f64>,
    unsynced_p50_us: Vec<f64>,
    unsynced_ops: usize,
    log_before: u64,
}

impl WalSides {
    fn setup(w: Workload, seed: u64, scratch: &Path) -> Result<WalSides, FargoError> {
        let warm_up = WARM_UP / 10;
        let no_wal = Bench::setup(side(w, false, defaults), seed, scratch, "no-wal", warm_up)?.0;
        let unsynced = side(w, true, wal_no_fsync);
        let unsynced = Bench::setup(unsynced, seed, scratch, "unsynced", warm_up)?.0;
        Ok(WalSides {
            log_before: unsynced.wal_root().map_or(0, dir_bytes),
            no_wal,
            unsynced,
            no_wal_p50_us: Vec::new(),
            unsynced_p50_us: Vec::new(),
            unsynced_ops: 0,
        })
    }

    /// One sync slice on each side cluster; a round counts only if both
    /// completed a call.
    fn slice(&mut self, budget: Budget) {
        let mut no_wal = self.no_wal.sync_phase(budget, None);
        let mut unsynced = self.unsynced.sync_phase(budget, None);
        self.unsynced_ops += unsynced.len();
        if !no_wal.is_empty() && !unsynced.is_empty() {
            self.no_wal_p50_us.push(p50_us(&mut no_wal));
            self.unsynced_p50_us.push(p50_us(&mut unsynced));
        }
    }

    /// `(capture µs, sync µs, log bytes per acknowledged op)`, given the
    /// per-round sync p50 of the cluster with the synced log.
    fn finish(self, synced_p50_us: &[f64]) -> Result<(f64, f64, f64), FargoError> {
        let grown = self.unsynced.wal_root().map_or(0, dir_bytes);
        let failed = self.no_wal.failed + self.unsynced.failed;
        self.no_wal.teardown();
        self.unsynced.teardown();
        if failed > 0 || self.unsynced_p50_us.len() != synced_p50_us.len() {
            return Err(FargoError::App(format!(
                "{failed} ops failed on the WAL side clusters, or a round completed no call"
            )));
        }
        let differences = |a: &[f64], b: &[f64]| -> f64 {
            median(&a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<f64>>())
        };
        Ok((
            differences(&self.unsynced_p50_us, &self.no_wal_p50_us),
            differences(synced_p50_us, &self.unsynced_p50_us),
            grown.saturating_sub(self.log_before) as f64 / self.unsynced_ops.max(1) as f64,
        ))
    }
}

/// The movement and naming layers on their own: moves with no
/// concurrent calls, a locate from the client Core right after a move,
/// and the ring and shard arithmetic under both.
fn quiet_moves(bench: &mut Bench, m: &mut BTreeMap<&'static str, Summary>) {
    let ids: Vec<_> = bench.refs.iter().map(|r| r.id()).collect();
    m.insert("naming.owner_ns", probes::ring_owner_ns(&ids));
    m.insert("naming.apply_ns", probes::shard_apply_ns(&ids));

    let before = bench.cluster.counters();
    let quiet = bench.move_phase(Budget::Ops(100), None);
    let after = bench.cluster.counters();
    let moved = quiet.samples.len().max(1) as f64;
    let quiet_p50 = Summary::median_of(
        &move_slices_us(&quiet, SEGMENTS),
        quiet.samples.len() as u64,
    );
    m.insert("core.move.quiet_us_p50", quiet_p50);
    m.insert(
        "core.move.msgs_per_move",
        Summary::single(delta(&after, &before, "fargo_msg_out_total") / moved),
    );
    m.insert(
        "core.move.bytes_per_move",
        Summary::single(delta(&after, &before, "fargo_msg_out_bytes_total") / moved),
    );
    let (mut locate_ns, mut hops): (Vec<u64>, u64) = (Vec::with_capacity(50), 0);
    for c in (0..bench.w.chunks).cycle().take(50) {
        let dest = 3 - bench.placement[c];
        bench.attempted += 1;
        if bench.refs[c].move_to(&core_name(dest as usize)).is_err() {
            bench.failed += 1;
            continue;
        }
        bench.placement[c] = dest;
        let t = Instant::now();
        let found = bench.cluster.cores[0].locate_explain(bench.refs[c].id());
        locate_ns.push(t.elapsed().as_nanos() as u64);
        hops += found.map_or(0, |r| u64::from(r.hops));
    }
    if !locate_ns.is_empty() {
        m.insert(
            "naming.locate_us_p50",
            Summary::single(p50_us(&mut locate_ns)),
        );
        m.insert(
            "naming.lookup_hops_mean",
            Summary::single(hops as f64 / locate_ns.len() as f64),
        );
    }
}

/// The traced run: every per-layer metric of one workload, and the
/// span file `benchmark/out/<workload>.trace.json`.
pub fn traced(w: Workload, seed: u64, s: u64, scratch: &Path) -> Result<Outcome, FargoError> {
    let mut m: BTreeMap<&'static str, Summary> = BTreeMap::new();
    let (mut bench, _) = Bench::setup(w, seed, scratch, "trace", WARM_UP)?;
    let run_start = bench.cluster.counters();
    // Before the side clusters and the probes add theirs.
    m.insert("core.threads", Summary::single(host::threads() as f64));

    // The same rounds as the untraced run, each with a traced sync
    // slice beside the plain one; their p50s differ by the tracing
    // overhead.
    let mut tap = Tap {
        tracer: Tracer::with_capacity(0),
        stride: 1,
        keep: 2_000,
        seen: 0,
        kept: Vec::with_capacity(2_000),
    };
    let shares = Shares {
        sync: 0.2,
        pipelined: 0.3,
        sides: 0.1,
    };
    let mut sides = if w.wal {
        Some(WalSides::setup(w, seed, scratch)?)
    } else {
        None
    };
    let mut slices = measured_rounds(&mut bench, s, &shares, Some(&mut tap), sides.as_mut());
    if slices.traced_p50_us.is_empty() || slices.sync_p50_us.is_empty() {
        return Err(no_calls());
    }
    let sync_p50 = Summary::median_of(&slices.traced_p50_us, tap.seen);
    // Round by round, so that a slow spell hits both slices alike.
    let overhead: Vec<f64> = slices
        .traced_p50_us
        .iter()
        .zip(&slices.sync_p50_us)
        .map(|(traced, plain)| traced - plain)
        .collect();
    m.insert(
        "client.trace_overhead_us",
        Summary::median_of(&overhead, tap.seen),
    );

    // Counts at the program's own boundaries, as deltas around the
    // sync and pipelined slices, per completed call of either kind.
    let ops = slices.calls.max(1) as f64;
    let count = |name: &str| slices.call_counts.get(name).copied().unwrap_or(0.0);
    let (msgs, bytes) = slices.call_traffic;
    m.insert("core.msgs_per_op", Summary::single(msgs / ops));
    m.insert("core.wire_bytes_per_op", Summary::single(bytes / ops));
    m.insert(
        "core.wal.appends_per_op",
        Summary::single(count("fargo_wal_appends_total") / ops),
    );
    for (metric, counter) in [
        ("core.rpc_retries", "fargo_rpc_retries_total"),
        ("core.dedup_hits", "fargo_dedup_hits_total"),
        ("core.worker_rejections", "fargo_worker_rejections_total"),
        ("core.wal.compactions", "fargo_wal_compactions_total"),
    ] {
        m.insert(metric, Summary::single(count(counter)));
    }
    m.insert(
        "core.move.first_try_ratio",
        Summary::single(slices.direct_calls as f64 / slices.executed_calls.max(1) as f64),
    );
    for (metric, buckets) in &slices.phases {
        let p50 = quantile_from_cumulative(buckets, 0.5).unwrap_or(0.0);
        m.insert(metric, Summary::single(p50));
    }

    // The kept ops again, through clone, codec and framing.
    let replayed = probes::replay(&mut tap);
    let part = |i: usize| probes::segment_means(&replayed, |r: &Replayed| r.parts[i] as f64);
    let halved = |a: Summary, b: Summary| Summary {
        value: (a.value + b.value) / 2.0,
        min: (a.min + b.min) / 2.0,
        max: (a.max + b.max) / 2.0,
        samples: a.samples + b.samples,
    };
    let parts: Vec<Summary> = (0..7).map(part).collect();
    m.insert("wire.clone_ns_per_msg", part(0));
    m.insert("wire.encode_ns_per_msg", halved(parts[1], parts[4]));
    m.insert("net.frame_ns_per_msg", halved(parts[2], parts[5]));
    m.insert("wire.decode_ns_per_msg", halved(parts[3], parts[6]));
    let request_bytes = probes::segment_means(&replayed, |r| r.request_bytes as f64);
    let reply_bytes = probes::segment_means(&replayed, |r| r.reply_bytes as f64);
    let bytes_per_msg = halved(request_bytes, reply_bytes);
    m.insert("wire.bytes_per_msg", bytes_per_msg);
    m.insert(
        "wire.nodes_per_msg",
        probes::segment_means(&replayed, |r| r.nodes as f64 / 2.0),
    );
    m.insert(
        "core.envelope_overhead_bytes",
        Summary::single(bytes / msgs.max(1.0) - bytes_per_msg.value),
    );
    // Self time per layer from the spans: a span's duration minus what
    // its children cover. Under `call` that leaves transport, dispatch,
    // exec and everything else the replay cannot see.
    let kept: std::collections::HashSet<u32> = tap.kept.iter().map(|r| r.span).collect();
    let mut self_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (span, ns) in tap.tracer.self_times() {
        if span.parent != 0 || kept.contains(&span.id) {
            self_ns.entry(span.name).or_default().push(ns as f64);
        }
    }
    println!(
        "self time per span name over the {} replayed ops, median us:",
        kept.len()
    );
    for (name, ns) in &self_ns {
        println!("  {name:<24} {:>10.2}", median(ns) / 1e3);
    }
    let trace_file = host::out_dir().join(format!("{}.trace.json", w.name));
    match tap.tracer.write_json(&trace_file) {
        Ok(()) => println!(
            "info wrote {} spans to {}",
            tap.tracer.spans().len(),
            trace_file.display()
        ),
        Err(e) => println!("info could not write {}: {e}", trace_file.display()),
    }

    // The bare transport at the workload's message sizes.
    let (req, rep) = (request_bytes.value as usize, reply_bytes.value as usize);
    let transport_rtt = if w.tcp {
        let (a, b) = probes::tcp_pair()?;
        let pair: probes::Pair = (a.clone(), b.clone());
        let rtt = probes::round_trip_us(&pair, req, rep, 1_000);
        m.insert("net.tcp_rtt_us_p50", rtt);
        m.insert(
            "net.tcp_msgs_per_s",
            probes::stream_msgs_per_s(&pair, 40_000),
        );
        m.insert(
            "net.dropped_sends",
            Summary::single((a.dropped_sends() + b.dropped_sends()) as f64),
        );
        a.shutdown();
        b.shutdown();
        rtt
    } else {
        let pair = probes::simnet_pair()?;
        let rtt = probes::round_trip_us(&pair, req, rep, 1_000);
        m.insert("net.simnet_rtt_us_p50", rtt);
        pair.0.shutdown();
        pair.1.shutdown();
        rtt
    };

    m.insert("telemetry.journal_append_ns", probes::journal_append_ns());
    m.insert(
        "telemetry.histogram_observe_ns",
        probes::histogram_observe_ns(),
    );

    // A local call on the workload's own client Core; and what the
    // observability stack adds to one, as the difference between a
    // fresh memory-only Core at defaults and one with every switch off.
    let all = bench.refs[0].call(
        "scan",
        &[Value::I64(0), Value::I64(w.recs_per_chunk as i64)],
    )?;
    let population = all.as_list().unwrap_or(&[]).to_vec();
    m.insert(
        "core.local_call_ns",
        probes::local_call_ns(&bench.cluster.cores[0], population.clone())?,
    );
    let defaults = bare_local_call_ns(defaults, population.clone())?;
    let quiet = bare_local_call_ns(all_observability_off, population)?;
    m.insert("telemetry.per_call_ns", Summary::single(defaults - quiet));

    if w.moves_under_load {
        quiet_moves(&mut bench, &mut m);
    }

    let (mut capture_us, mut fsync_us) = (0.0, 0.0);
    if let Some(sides) = sides {
        let bytes_per_ack;
        (capture_us, fsync_us, bytes_per_ack) = sides.finish(&slices.sync_p50_us)?;
        m.insert("core.wal.capture_us", Summary::single(capture_us));
        m.insert("core.wal.fsync_us", Summary::single(fsync_us));
        m.insert("core.wal.bytes_per_ack", Summary::single(bytes_per_ack));
        match probes::disk_fsync_us(&scratch.join("disk-probe"), bytes_per_ack as usize) {
            Ok(disk) => {
                m.insert("core.wal.disk_fsync_us_p50", disk);
            }
            Err(e) => println!("info disk probe failed: {e}"),
        }
    }

    bench.audit();
    let mut recover = Vec::new();
    if w.wal {
        let report;
        (recover, report) = bench.restart_cycles(RESTART_CYCLES);
        if let Some(report) = report {
            m.insert(
                "core.recover.replayed",
                Summary::single(report.replayed as f64),
            );
            m.insert(
                "core.recover.replay_us",
                Summary::single(report.duration_us as f64),
            );
        }
    }
    for (name, _, summary) in slices.client_metrics(&recover) {
        m.insert(name, summary);
    }
    // The table below budgets the *traced* calls.
    m.insert("client.sync_p50_us", sync_p50);
    let run_end = bench.cluster.counters();
    m.insert(
        "core.move.failures",
        Summary::single(delta(&run_end, &run_start, "fargo_move_failures_total")),
    );
    m.insert(
        "core.move.indoubt",
        Summary::single(delta(&run_end, &run_start, "fargo_move_indoubt_total")),
    );

    // The budget of one blocking call: what the probes can see from
    // outside, and the remainder they cannot (the private envelope,
    // dispatch hand-offs, the reliable layer, per-call telemetry).
    // `exec` as the program reports it includes the log capture and
    // sync, which are listed under it and not added again.
    let mut table: Vec<(&str, f64)> = probes::PARTS
        .iter()
        .zip(&parts)
        .map(|(name, p)| (*name, p.value / 1e3))
        .collect();
    table.insert(3, ("net.transport_rtt", transport_rtt.value));
    table.insert(5, ("core.exec", m["core.exec_us_p50"].value));
    let seen: f64 = table.iter().map(|(_, us)| us).sum();
    let unattributed = sync_p50.value - seen;
    m.insert("core.unattributed_us", Summary::single(unattributed));
    println!("layer budget of one blocking call, us (traced sync p50 = parts + unattributed):");
    let line = |name: &str, us: f64| {
        println!(
            "  {name:<26} {us:>10.2}  {:>5.1}%",
            100.0 * us / sync_p50.value
        );
    };
    for &(name, us) in &table {
        line(name, us);
        if name == "core.exec" && w.wal {
            line("  of it core.wal.capture", capture_us);
            line("  of it core.wal.fsync", fsync_us);
        }
    }
    line("core.unattributed", unattributed);
    println!("  {:<26} {:>10.2}", "= client.sync_p50_us", sync_p50.value);

    let outcome = Outcome {
        metrics: m,
        attempted: bench.attempted,
        failed: bench.failed,
    };
    bench.teardown();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn mover_samples_are_cut_into_slices_by_time() {
        let run = MoverRun {
            placement: Vec::new(),
            // One move every 100 ns; latency = slice number, in us.
            samples: (0..40).map(|i| (i * 100, (i / 10 + 1) * 1_000)).collect(),
            phase_ns: 4_000,
            late_max_us: 0,
            failed: 0,
        };
        assert_eq!(move_slices_us(&run, 4), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(move_slices_us(&run, 1), vec![2.0]);
        assert_eq!(rounds(1), 4);
        assert_eq!(rounds(20), 40);
    }

    /// BENCHMARK.json is written by hand; this keeps it in step with
    /// what the program reports.
    #[test]
    fn manifest_lists_exactly_the_reported_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in &WORKLOADS {
            assert!(manifest.contains(w.why), "why of {} differs", w.name);
        }
        let mut expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        expected.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0));
        for name in &expected {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(manifest.matches("\"name\": ").count(), expected.len());
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(manifest.contains(&entry), "{entry} missing");
        }
        for (name, ..) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", ");
            let line = manifest.lines().find(|l| l.contains(&entry)).unwrap();
            let bound = format!("\"bound\": {}}}", bound(name));
            assert!(line.contains(&bound), "{line} should have {bound}");
        }
    }

    /// One-second smoke of every workload: both kinds of run report
    /// every metric they promise and the oracle finds nothing wrong.
    #[test]
    fn smoke_every_workload_for_one_second() {
        let scratch = host::out_dir().join(format!("scratch-test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        for w in WORKLOADS {
            let e2e = end_to_end(w, 1, 1, &scratch).expect(w.name);
            assert_eq!(e2e.failed, 0, "{}", w.name);
            assert!(e2e.attempted > 0);
            for (name, ..) in END_TO_END {
                assert!(e2e.metrics[name].value > 0.0, "{} {name}", w.name);
            }
            let layers = traced(w, 2, 1, &scratch).expect(w.name);
            assert_eq!(layers.failed, 0, "{}", w.name);
            for name in ["client.sync_p50_us", "client.pipelined_ops_per_s"] {
                assert!(layers.metrics[name].value > 0.0, "{} {name}", w.name);
            }
            let recovered = layers.metrics.contains_key("client.recover_ms");
            assert_eq!(recovered, w.wal, "{}: restarts only on a WAL", w.name);
            let moved = layers.metrics.contains_key("core.move.quiet_us_p50")
                && layers.metrics.contains_key("client.move_p50_us");
            assert_eq!(moved, w.moves_under_load, "{}: moves", w.name);
            for name in layers.metrics.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.0 == *name),
                    "{name} is not listed"
                );
            }
            let wal = layers.metrics.contains_key("core.wal.fsync_us");
            assert_eq!(
                wal, w.wal,
                "{}: WAL layers only where there is a WAL",
                w.name
            );
            let tcp = layers.metrics.contains_key("net.tcp_rtt_us_p50");
            assert_eq!(tcp, w.tcp, "{}: TCP layers only over TCP", w.name);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
