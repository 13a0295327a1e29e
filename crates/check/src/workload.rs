//! Seeded workload synthesis: one seed ⇒ one [`Schedule`] of [`Op`]s.
//!
//! Schedules also have a line-oriented text form so a shrunk
//! counterexample can be checked in as a regression fixture and replayed
//! with `fargo-check --schedule <file>`.

use crate::rng::Rng;

/// The relocator palette the generator draws from.
pub const RELOCATORS: [&str; 4] = ["link", "pull", "duplicate", "stamp"];

/// At most this many complet slots per schedule; small on purpose so
/// moves and invocations keep colliding on the same complets.
pub const MAX_SLOTS: usize = 6;

/// Each schedule's op mix as cumulative percentages of a roll, one per
/// kind in order: new, invoke, move, move-many, link, advance, collect,
/// crash, restart, partition; heal takes what is left. A `new` roll
/// invokes once every slot exists.
const MIX: [u64; 10] = [18, 46, 68, 76, 86, 94, 100, 100, 100, 100];
const FAULTY_MIX: [u64; 10] = [14, 38, 52, 58, 64, 72, 76, 84, 92, 96];

/// One step of a schedule. Slots index the driver's complet table; cores
/// index the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create a fresh complet in `slot`, hosted on `core`.
    New { slot: usize, core: usize },
    /// Invoke `add` on the complet in `slot` through a stub bound at
    /// Core `from` (exercises routing, forwarding, and shortening).
    Invoke { slot: usize, from: usize },
    /// Relocate the complet in `slot` to Core `to`.
    Move { slot: usize, to: usize },
    /// Relocate the complets in `slots` to Core `to` in one transaction,
    /// which fails as a unit when they do not share one host.
    MoveMany { slots: Vec<usize>, to: usize },
    /// Make `holder`'s complet hold a reference to `dep`'s complet,
    /// typed with `RELOCATORS[relocator]` — later moves of the holder
    /// then exercise pull/duplicate/stamp closures.
    Link {
        holder: usize,
        dep: usize,
        relocator: usize,
    },
    /// Advance the shared virtual clock (drives hold expiry, idleness,
    /// and HLC physical time). A no-op on wall clocks.
    Advance { micros: u64 },
    /// Collect idle trackers on `core`.
    Collect { core: usize },
    /// Kill `core` abruptly: no shutdown protocol, in-flight work lost,
    /// only its write-ahead log survives. Core 0 is the coordinator the
    /// driver audits through and is never crashed (the driver skips it).
    Crash { core: usize },
    /// Restart a crashed `core` on the same network node. With `log` it
    /// keeps its WAL directory and recovery replays the log; without,
    /// the directory is wiped first and the Core remembers nothing of
    /// its previous life. Skipped when `core` is up.
    Restart { core: usize, log: bool },
    /// Cut both link directions between `a` and `b`.
    Partition { a: usize, b: usize },
    /// Restore the links between `a` and `b`.
    Heal { a: usize, b: usize },
}

impl Op {
    /// Whether this op injects a fault (crash, restart, partition, heal).
    /// The driver provisions write-ahead log directories whenever a
    /// schedule contains any.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Op::Crash { .. } | Op::Restart { .. } | Op::Partition { .. } | Op::Heal { .. }
        )
    }
}

/// A generated (or replayed) sequence of ops against `cores` Cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    pub seed: u64,
    pub cores: usize,
    pub ops: Vec<Op>,
}

impl Schedule {
    /// Generates the schedule for `seed`: `n_ops` ops over `n_cores`
    /// Cores. Ops only reference slots already created.
    pub fn generate(seed: u64, n_ops: usize, n_cores: usize) -> Schedule {
        Schedule::generate_from(&MIX, seed, n_ops, n_cores.max(2))
    }

    /// Generates a fault schedule for `seed`: the workload mix of
    /// [`Schedule::generate`] interleaved with crashes, restarts, and
    /// partitions. Core 0 never crashes (it is the driver's audit
    /// coordinator); fault ops that turn out nonsensical at run time
    /// (crashing a dead core, healing an open link) are skipped by the
    /// driver rather than forbidden here, so ddmin can delete any op and
    /// the remainder still replays.
    pub fn generate_faulty(seed: u64, n_ops: usize, n_cores: usize) -> Schedule {
        Schedule::generate_from(&FAULTY_MIX, seed, n_ops, n_cores.max(3))
    }

    fn generate_from(mix: &[u64; 10], seed: u64, n_ops: usize, cores: usize) -> Schedule {
        let mut rng = Rng::new(seed);
        let mut ops = Vec::with_capacity(n_ops);
        let mut created = 0usize;
        let below = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
        while ops.len() < n_ops {
            let roll = rng.below(100);
            let op = match mix.iter().position(|&t| roll < t).unwrap_or(mix.len()) {
                k if created == 0 || (k == 0 && created < MAX_SLOTS) => {
                    created += 1;
                    let core = below(&mut rng, cores);
                    Op::New {
                        slot: created - 1,
                        core,
                    }
                }
                0 | 1 => Op::Invoke {
                    slot: below(&mut rng, created),
                    from: below(&mut rng, cores),
                },
                2 => Op::Move {
                    slot: below(&mut rng, created),
                    to: below(&mut rng, cores),
                },
                3 => Op::MoveMany {
                    slots: (0..2 + below(&mut rng, 2))
                        .map(|_| below(&mut rng, created))
                        .collect(),
                    to: below(&mut rng, cores),
                },
                4 => Op::Link {
                    holder: below(&mut rng, created),
                    dep: below(&mut rng, created),
                    relocator: below(&mut rng, RELOCATORS.len()),
                },
                5 => Op::Advance {
                    micros: (1 + rng.below(5)) * 100_000,
                },
                6 => Op::Collect {
                    core: below(&mut rng, cores),
                },
                7 => Op::Crash {
                    core: 1 + below(&mut rng, cores - 1),
                },
                8 => Op::Restart {
                    core: 1 + below(&mut rng, cores - 1),
                    log: rng.below(4) != 0,
                },
                k => {
                    let a = below(&mut rng, cores);
                    let b = (a + 1 + below(&mut rng, cores - 1)) % cores;
                    if k == 9 {
                        Op::Partition { a, b }
                    } else {
                        Op::Heal { a, b }
                    }
                }
            };
            ops.push(op);
        }
        Schedule { seed, cores, ops }
    }

    /// Number of slots the schedule references (created or not).
    pub fn slot_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match *op {
                Op::New { slot, .. } | Op::Invoke { slot, .. } | Op::Move { slot, .. } => slot + 1,
                Op::MoveMany { ref slots, .. } => slots.iter().max().map_or(0, |s| s + 1),
                Op::Link { holder, dep, .. } => holder.max(dep) + 1,
                Op::Advance { .. }
                | Op::Collect { .. }
                | Op::Crash { .. }
                | Op::Restart { .. }
                | Op::Partition { .. }
                | Op::Heal { .. } => 0,
            })
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// The replayable text form (one op per line, `#`-comments allowed).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# fargo-check schedule v1 seed={} cores={}\n",
            self.seed, self.cores
        );
        for op in &self.ops {
            let line = match *op {
                Op::New { slot, core } => format!("new {slot} @{core}"),
                Op::Invoke { slot, from } => format!("invoke {slot} from {from}"),
                Op::Move { slot, to } => format!("move {slot} -> {to}"),
                Op::MoveMany { ref slots, to } => {
                    let slots: Vec<String> = slots.iter().map(usize::to_string).collect();
                    format!("move-many {} -> {to}", slots.join(","))
                }
                Op::Link {
                    holder,
                    dep,
                    relocator,
                } => format!("link {holder} {dep} {}", RELOCATORS[relocator]),
                Op::Advance { micros } => format!("advance {micros}"),
                Op::Collect { core } => format!("collect {core}"),
                Op::Crash { core } => format!("crash {core}"),
                Op::Restart { core, log: true } => format!("restart {core}"),
                Op::Restart { core, log: false } => format!("restart {core} nolog"),
                Op::Partition { a, b } => format!("partition {a} {b}"),
                Op::Heal { a, b } => format!("heal {a} {b}"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses [`Schedule::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a line-qualified message on any malformed line.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut seed = 0u64;
        let mut cores = 3usize;
        let mut ops = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                for tok in rest.split_whitespace() {
                    if let Some(v) = tok.strip_prefix("seed=") {
                        seed = v.parse().map_err(|e| format!("line {}: {e}", ln + 1))?;
                    } else if let Some(v) = tok.strip_prefix("cores=") {
                        cores = v.parse().map_err(|e| format!("line {}: {e}", ln + 1))?;
                    }
                }
                continue;
            }
            let bad = |what: &str| format!("line {}: bad {what}: {line:?}", ln + 1);
            let toks: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str, what: &str| s.parse::<usize>().map_err(|_| bad(what));
            let op = match toks.as_slice() {
                ["new", slot, at] => Op::New {
                    slot: num(slot, "slot")?,
                    core: num(at.trim_start_matches('@'), "core")?,
                },
                ["invoke", slot, "from", from] => Op::Invoke {
                    slot: num(slot, "slot")?,
                    from: num(from, "core")?,
                },
                ["move", slot, "->", to] => Op::Move {
                    slot: num(slot, "slot")?,
                    to: num(to, "core")?,
                },
                ["move-many", slots, "->", to] => Op::MoveMany {
                    slots: slots
                        .split(',')
                        .map(|s| num(s, "slot"))
                        .collect::<Result<_, _>>()?,
                    to: num(to, "core")?,
                },
                ["link", holder, dep, reloc] => Op::Link {
                    holder: num(holder, "slot")?,
                    dep: num(dep, "slot")?,
                    relocator: RELOCATORS
                        .iter()
                        .position(|r| r == reloc)
                        .ok_or_else(|| bad("relocator"))?,
                },
                ["advance", micros] => Op::Advance {
                    micros: micros.parse().map_err(|_| bad("micros"))?,
                },
                ["collect", core] => Op::Collect {
                    core: num(core, "core")?,
                },
                ["crash", core] => Op::Crash {
                    core: num(core, "core")?,
                },
                ["restart", core, rest @ ..] if rest.is_empty() || rest == ["nolog"] => {
                    Op::Restart {
                        core: num(core, "core")?,
                        log: rest.is_empty(),
                    }
                }
                ["partition", a, b] => Op::Partition {
                    a: num(a, "core")?,
                    b: num(b, "core")?,
                },
                ["heal", a, b] => Op::Heal {
                    a: num(a, "core")?,
                    b: num(b, "core")?,
                },
                _ => return Err(bad("op")),
            };
            ops.push(op);
        }
        Ok(Schedule { seed, cores, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Schedule::generate(9, 30, 3), Schedule::generate(9, 30, 3));
        assert_ne!(
            Schedule::generate(9, 30, 3).ops,
            Schedule::generate(10, 30, 3).ops
        );
    }

    #[test]
    fn first_op_creates_a_slot() {
        for seed in 0..50 {
            let s = Schedule::generate(seed, 10, 3);
            assert!(matches!(s.ops[0], Op::New { slot: 0, .. }));
        }
    }

    #[test]
    fn text_roundtrip() {
        let s = Schedule::generate(1234, 40, 4);
        assert!(s.ops.iter().any(|op| matches!(op, Op::MoveMany { .. })));
        let parsed = Schedule::parse(&s.to_text()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("teleport 3 -> 9").is_err());
        assert!(Schedule::parse("link 0 1 osmosis").is_err());
        assert!(Schedule::parse("move-many 0,,1 -> 2").is_err());
    }

    #[test]
    fn faulty_generation_is_deterministic_and_spares_core0() {
        let s = Schedule::generate_faulty(7, 60, 3);
        assert_eq!(s, Schedule::generate_faulty(7, 60, 3));
        for op in &s.ops {
            if let Op::Crash { core } | Op::Restart { core, .. } = op {
                assert_ne!(*core, 0, "core 0 must never be crashed/restarted");
            }
            if let Op::Partition { a, b } | Op::Heal { a, b } = op {
                assert_ne!(a, b, "partition endpoints must be distinct");
            }
        }
    }

    #[test]
    fn faulty_schedules_contain_faults_and_roundtrip() {
        let mut saw_fault = false;
        let mut saw_restart = [false; 2];
        for seed in 0..20 {
            let s = Schedule::generate_faulty(seed, 40, 4);
            saw_fault |= s.ops.iter().any(Op::is_fault);
            for op in &s.ops {
                if let Op::Restart { log, .. } = *op {
                    saw_restart[usize::from(log)] = true;
                }
            }
            assert_eq!(Schedule::parse(&s.to_text()).unwrap(), s);
        }
        assert!(saw_fault, "20 fault schedules produced zero fault ops");
        assert_eq!(saw_restart, [true; 2], "restarts with and without a log");
    }
}
