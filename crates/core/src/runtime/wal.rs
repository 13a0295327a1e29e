//! Write-ahead passivation journal — the durability half of the §7
//! "persistence model" future work.
//!
//! Every state-bearing transition a Core acknowledges (instantiation,
//! move arrival, acknowledged invocation, departure, and both sides of
//! the two-phase move protocol) appends one record to an on-disk log
//! before the acknowledgement leaves the Core. Records are marshaled
//! [`Value`] trees — the same representation movement and checkpointing
//! use — encoded with `fargo-wire` and framed with `fargo-net`'s
//! length-prefixed frame format, with a CRC32 over the encoded payload
//! so a torn or corrupted tail is detected and cleanly ignored on
//! replay. With `CoreConfig::wal_fsync` on (the default) each append is
//! fsynced before the acknowledgement leaves, so durability covers OS
//! crashes and power loss; off, records stop at the OS page cache and
//! the guarantee narrows to process crashes.
//!
//! On restart, [`Wal::replay_path`] reads the surviving prefix and
//! [`fold`] reduces it to the set of complets that were live (and the
//! move-protocol state that was in flight) at the crash; the Core
//! re-installs those survivors and resumes the protocol. Periodic
//! [`Wal::rewrite`] compaction (driven from the monitor tick) replaces
//! the log with a fresh snapshot so it does not grow without bound.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fargo_net::frame::{read_frame, write_frame, FrameError};
use fargo_wire::{decode_value_from_bytes, encode_value, CompletId, Value};
use parking_lot::Mutex;

/// Marshaled image of one complet: everything recovery needs to
/// re-install it — state, type, move epoch, and logical names bound to
/// it. Also the per-complet payload of a held-move record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalState {
    /// Identity, stable across relocation and restart.
    pub id: CompletId,
    /// Registered complet type (recovery constructs through the registry).
    pub type_name: String,
    /// Marshaled state, exactly as `Complet::marshal` produced it.
    pub state: Value,
    /// Move epoch the complet was at when captured. WAL recovery
    /// re-installs at this *recorded* epoch — the epoch the location
    /// shards already associate with the placement — so the republished
    /// delta is idempotent rather than a spurious new incarnation.
    /// (Checkpoint restore is the path that bumps to `epoch + 1`: it
    /// installs on a different host and must beat the stale entry still
    /// naming the pre-checkpoint one.)
    pub epoch: u64,
    /// Logical names bound to this complet on the logging Core.
    pub names: Vec<String>,
}

/// A move prepared at this Core (the destination) but not yet resolved:
/// recovery re-holds it and re-runs the outcome query against the source.
#[derive(Debug, Clone, PartialEq)]
pub struct WalHeld {
    /// Root complet of the move transaction.
    pub root: CompletId,
    /// Transaction epoch (the root packet's move epoch).
    pub epoch: u64,
    /// Node index of the source Core, for the outcome query.
    pub source: u32,
    /// The marshaled closure, one entry per complet in the move.
    pub packets: Vec<WalState>,
}

/// One append-only log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The complet is (still) live here with this state.
    State(WalState),
    /// The complet left this Core (move finalised or released).
    Departed {
        /// Identity of the departed complet.
        id: CompletId,
        /// Move epoch at departure.
        epoch: u64,
        /// Node the complet moved to, `None` when it was released
        /// outright. Recovery rebuilds the forwarding tracker from this,
        /// so a restarted origin Core still routes lookups instead of
        /// dead-ending the chain.
        dest: Option<u32>,
    },
    /// Destination side: a move closure is prepared and held.
    Held(WalHeld),
    /// Destination side: a held move was committed or aborted.
    HeldResolved {
        /// Root complet of the move transaction.
        root: CompletId,
        /// Transaction epoch.
        epoch: u64,
        /// `true` = activated here, `false` = aborted.
        committed: bool,
    },
    /// Source side: the transaction verdict, written *before* the commit
    /// message is sent (the point of no return). `ids` is the departing
    /// closure, so recovery knows not to resurrect them.
    Decision {
        /// Root complet of the move transaction.
        root: CompletId,
        /// Transaction epoch.
        epoch: u64,
        /// The recorded verdict.
        committed: bool,
        /// Complets that depart if (and only if) `committed`.
        ids: Vec<CompletId>,
        /// Move destination — lets recovery forward to the new host even
        /// when the crash lands between the verdict and the per-complet
        /// `Departed` records.
        dest: u32,
    },
}

/// Result of replaying a log file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Records in append order, up to the first corruption.
    pub records: Vec<WalRecord>,
    /// `1` if replay stopped at a torn or corrupted tail, else `0`.
    pub corrupt: usize,
}

/// [`fold`]'s reduction of a replayed log: what was true at the crash.
#[derive(Debug, Default)]
pub struct WalFold {
    /// Complets live on this Core, newest state per id, in first-seen
    /// order.
    pub survivors: Vec<WalState>,
    /// Prepared moves never resolved (recovery re-holds and queries).
    pub held: Vec<WalHeld>,
    /// Source-side verdicts, in append order (recovery reloads the
    /// decision log so destination outcome queries still get answers).
    pub decisions: Vec<(CompletId, u64, bool)>,
    /// Destination-side outcomes, in append order.
    pub outcomes: Vec<(CompletId, u64, bool)>,
    /// Departures still in effect at the crash with a known destination,
    /// `(id, epoch, dest)` in first-seen order. Recovery reinstalls these
    /// as forwarding trackers: without them a restarted origin Core
    /// dead-ends every tracker chain that runs through it.
    pub departed: Vec<(CompletId, u64, u32)>,
}

/// What a completed recovery pass replayed, kept on the Core for
/// inspection via `Core::recovery_report`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Complets re-installed from the log.
    pub replayed: usize,
    /// Prepared moves re-held for outcome resolution.
    pub held: usize,
    /// Forwarding trackers rebuilt from departure records.
    pub forwards: usize,
    /// `1` if the log had a torn or corrupted tail, else `0`.
    pub corrupt: usize,
    /// Wall-clock microseconds the replay + reinstall pass took.
    pub duration_us: u64,
}

/// The append handle over one Core's log file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Mutex<File>,
    appends: AtomicU64,
    generation: u64,
    fsync: bool,
}

impl Wal {
    /// Opens (creating if necessary) the log for `core` under `dir`.
    ///
    /// Each open also bumps the sidecar *generation* counter — a durable
    /// incarnation number for the Core. Request ids, dedup keys, and
    /// anything else that must never collide across a crash/restart
    /// boundary can be salted with [`Wal::generation`]. The sidecar is
    /// rewritten via temp-file-and-rename so a crash mid-bump cannot
    /// leave a partial file; an existing sidecar that does not parse is
    /// corruption and refuses to open (silently restarting at 1 would
    /// re-enable exactly the stale-request-id collisions the counter
    /// exists to prevent).
    ///
    /// With `fsync` on, every append (and the sidecar bump) is synced
    /// to stable storage before it is acknowledged; off, records stop
    /// at the OS page cache — durable across a process crash only.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; fails with `InvalidData` on a
    /// corrupt generation sidecar.
    pub fn open(dir: &Path, core: &str, fsync: bool) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let gen_path = dir.join(format!("{core}.gen"));
        let generation = match fs::read_to_string(&gen_path) {
            Ok(s) => match s.trim().parse::<u64>() {
                Ok(g) => g + 1,
                Err(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt wal generation sidecar {}", gen_path.display()),
                    ))
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => 1,
            Err(e) => return Err(e),
        };
        let gen_tmp = dir.join(format!("{core}.gen.tmp"));
        {
            let mut f = File::create(&gen_tmp)?;
            f.write_all(generation.to_string().as_bytes())?;
            if fsync {
                f.sync_data()?;
            }
        }
        fs::rename(&gen_tmp, &gen_path)?;
        if fsync {
            sync_dir(dir)?;
        }
        let path = Self::log_path(dir, core);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            file: Mutex::new(file),
            appends: AtomicU64::new(0),
            generation,
            fsync,
        })
    }

    /// The log file a Core named `core` uses under `dir`.
    pub fn log_path(dir: &Path, core: &str) -> PathBuf {
        dir.join(format!("{core}.wal"))
    }

    /// This incarnation's durable generation number (1 on first open,
    /// +1 per reopen of the same log).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Path of this log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (CRC-framed) and — with fsync on — syncs it
    /// to stable storage before returning, so the acknowledgement the
    /// caller is about to send cannot outlive the record it promises.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let encoded = encode_value(&record.to_value());
        let mut payload = Vec::with_capacity(encoded.len() + 4);
        payload.extend_from_slice(&crc32(&encoded).to_be_bytes());
        payload.extend_from_slice(&encoded);
        let mut file = self.file.lock();
        write_frame(&mut *file, &payload).map_err(|e| match e {
            FrameError::Io(io) => io,
            other => io::Error::other(other.to_string()),
        })?;
        if self.fsync {
            file.sync_data()?;
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends since the last [`Wal::rewrite`] (compaction trigger).
    pub fn appends_since_rewrite(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Replays a log file, stopping cleanly at a torn or corrupted tail.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening the file; a missing file is
    /// an empty replay, and corruption is reported, not an error.
    pub fn replay_path(path: &Path) -> io::Result<WalReplay> {
        let mut replay = WalReplay::default();
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(replay),
            Err(e) => return Err(e),
        };
        loop {
            match read_next(&mut file) {
                Ok(Some(rec)) => replay.records.push(rec),
                Ok(None) => break,
                Err(_) => {
                    // Torn tail or bit rot: keep the valid prefix.
                    replay.corrupt = 1;
                    break;
                }
            }
        }
        Ok(replay)
    }

    /// Compacts the log in place to its folded image — newest `State`
    /// per survivor, unresolved holds, still-effective departures —
    /// followed by the caller's `extra` records (verdict snapshots,
    /// tracker-derived forwards; appended last so they win the next
    /// fold). The whole replay-fold-write runs under the append lock:
    /// a concurrently acknowledged mutation either lands before the
    /// fold and is folded in, or blocks until the new image is in
    /// place and is appended after it — compaction can never lose
    /// acknowledged state. The image is written to a temporary file,
    /// synced, and renamed over the old log, so a crash mid-compaction
    /// leaves one valid log.
    ///
    /// Returns the number of records in the compacted image.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(&self, extra: &[WalRecord]) -> io::Result<usize> {
        let mut file = self.file.lock();
        let replay = Self::replay_path(&self.path)?;
        let folded = fold(&replay.records);
        let mut records: Vec<WalRecord> = Vec::new();
        for s in folded.survivors {
            records.push(WalRecord::State(s));
        }
        for h in folded.held {
            records.push(WalRecord::Held(h));
        }
        for (id, epoch, dest) in folded.departed {
            records.push(WalRecord::Departed {
                id,
                epoch,
                dest: Some(dest),
            });
        }
        records.extend_from_slice(extra);
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut out = File::create(&tmp)?;
            for rec in &records {
                let encoded = encode_value(&rec.to_value());
                let mut payload = Vec::with_capacity(encoded.len() + 4);
                payload.extend_from_slice(&crc32(&encoded).to_be_bytes());
                payload.extend_from_slice(&encoded);
                write_frame(&mut out, &payload).map_err(|e| io::Error::other(e.to_string()))?;
            }
            out.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        // The rename itself lives in the directory: without a directory
        // fsync a power loss can un-do it, resurrecting the old inode
        // and silently dropping every append written to the new one.
        if self.fsync {
            if let Some(parent) = self.path.parent() {
                sync_dir(parent)?;
            }
        }
        *file = OpenOptions::new().append(true).open(&self.path)?;
        self.appends.store(0, Ordering::Relaxed);
        Ok(records.len())
    }
}

/// Fsyncs a directory so a rename performed in it survives power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reduces a replayed record sequence to crash-time truth: the newest
/// state per still-live complet, unresolved held moves, and the
/// move-protocol verdict logs.
pub fn fold(records: &[WalRecord]) -> WalFold {
    let mut order: Vec<CompletId> = Vec::new();
    let mut states: HashMap<CompletId, WalState> = HashMap::new();
    let mut held: Vec<WalHeld> = Vec::new();
    let mut gone_order: Vec<CompletId> = Vec::new();
    let mut gone: HashMap<CompletId, (u64, u32)> = HashMap::new();
    let mut out = WalFold::default();
    let depart = |gone_order: &mut Vec<CompletId>,
                  gone: &mut HashMap<CompletId, (u64, u32)>,
                  id: CompletId,
                  epoch: u64,
                  dest: u32| {
        if !gone.contains_key(&id) {
            gone_order.push(id);
        }
        gone.insert(id, (epoch, dest));
    };
    for rec in records {
        match rec {
            WalRecord::State(s) => {
                if !states.contains_key(&s.id) {
                    order.push(s.id);
                }
                // A later arrival supersedes any earlier departure: the
                // complet is live here again.
                gone.remove(&s.id);
                states.insert(s.id, s.clone());
            }
            WalRecord::Departed { id, epoch, dest } => {
                states.remove(id);
                if let Some(d) = dest {
                    depart(&mut gone_order, &mut gone, *id, *epoch, *d);
                }
            }
            WalRecord::Held(h) => {
                held.retain(|x| !(x.root == h.root && x.epoch == h.epoch));
                held.push(h.clone());
            }
            WalRecord::HeldResolved {
                root,
                epoch,
                committed,
            } => {
                held.retain(|x| !(x.root == *root && x.epoch == *epoch));
                out.outcomes.push((*root, *epoch, *committed));
            }
            WalRecord::Decision {
                root,
                epoch,
                committed,
                ids,
                dest,
            } => {
                out.decisions.push((*root, *epoch, *committed));
                if *committed {
                    for id in ids {
                        states.remove(id);
                        depart(&mut gone_order, &mut gone, *id, *epoch, *dest);
                    }
                }
            }
        }
    }
    out.survivors = order
        .into_iter()
        .filter_map(|id| states.remove(&id))
        .collect();
    out.held = held;
    out.departed = gone_order
        .into_iter()
        .filter_map(|id| gone.remove(&id).map(|(epoch, dest)| (id, epoch, dest)))
        .collect();
    out
}

impl WalRecord {
    fn to_value(&self) -> Value {
        match self {
            WalRecord::State(s) => Value::map([
                ("kind", Value::from("state")),
                ("complet", state_to_value(s)),
            ]),
            WalRecord::Departed { id, epoch, dest } => Value::map([
                ("kind", Value::from("departed")),
                ("id", Value::from(id.to_string())),
                ("epoch", Value::from(*epoch as i64)),
                // -1 encodes "released, no destination".
                ("dest", Value::from(dest.map_or(-1, |d| d as i64))),
            ]),
            WalRecord::Held(h) => Value::map([
                ("kind", Value::from("held")),
                ("root", Value::from(h.root.to_string())),
                ("epoch", Value::from(h.epoch as i64)),
                ("source", Value::from(h.source)),
                (
                    "packets",
                    Value::List(h.packets.iter().map(state_to_value).collect()),
                ),
            ]),
            WalRecord::HeldResolved {
                root,
                epoch,
                committed,
            } => Value::map([
                ("kind", Value::from("held_resolved")),
                ("root", Value::from(root.to_string())),
                ("epoch", Value::from(*epoch as i64)),
                ("committed", Value::from(*committed)),
            ]),
            WalRecord::Decision {
                root,
                epoch,
                committed,
                ids,
                dest,
            } => Value::map([
                ("kind", Value::from("decision")),
                ("root", Value::from(root.to_string())),
                ("epoch", Value::from(*epoch as i64)),
                ("committed", Value::from(*committed)),
                (
                    "ids",
                    Value::List(ids.iter().map(|i| Value::from(i.to_string())).collect()),
                ),
                ("dest", Value::from(*dest as i64)),
            ]),
        }
    }

    fn from_value(v: &Value) -> Option<WalRecord> {
        match v.get("kind")?.as_str()? {
            "state" => Some(WalRecord::State(state_from_value(v.get("complet")?)?)),
            "departed" => Some(WalRecord::Departed {
                id: parse_id(v.get("id")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                dest: match v.get("dest")?.as_i64()? {
                    d if d < 0 => None,
                    d => Some(d as u32),
                },
            }),
            "held" => Some(WalRecord::Held(WalHeld {
                root: parse_id(v.get("root")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                source: v.get("source")?.as_i64()? as u32,
                packets: v
                    .get("packets")?
                    .as_list()?
                    .iter()
                    .map(state_from_value)
                    .collect::<Option<Vec<_>>>()?,
            })),
            "held_resolved" => Some(WalRecord::HeldResolved {
                root: parse_id(v.get("root")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                committed: v.get("committed")?.as_bool()?,
            }),
            "decision" => Some(WalRecord::Decision {
                root: parse_id(v.get("root")?.as_str()?)?,
                epoch: v.get("epoch")?.as_i64()? as u64,
                committed: v.get("committed")?.as_bool()?,
                ids: v
                    .get("ids")?
                    .as_list()?
                    .iter()
                    .map(|i| parse_id(i.as_str()?))
                    .collect::<Option<Vec<_>>>()?,
                dest: v.get("dest")?.as_i64()? as u32,
            }),
            _ => None,
        }
    }
}

/// Encodes a complet's persisted state — the one encoder behind log
/// appends, held-move packets and checkpoint snapshots.
pub(crate) fn state_to_value(s: &WalState) -> Value {
    Value::map([
        ("id", Value::from(s.id.to_string())),
        ("type", Value::from(s.type_name.as_str())),
        ("state", s.state.clone()),
        ("epoch", Value::from(s.epoch as i64)),
        (
            "names",
            Value::List(s.names.iter().map(|n| Value::from(n.as_str())).collect()),
        ),
    ])
}

/// Decodes what [`state_to_value`] wrote; `None` on any missing or
/// mistyped field.
pub(crate) fn state_from_value(v: &Value) -> Option<WalState> {
    Some(WalState {
        id: parse_id(v.get("id")?.as_str()?)?,
        type_name: v.get("type")?.as_str()?.to_owned(),
        state: v.get("state")?.clone(),
        epoch: v.get("epoch")?.as_i64()? as u64,
        names: v
            .get("names")?
            .as_list()?
            .iter()
            .map(|n| n.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?,
    })
}

/// Parses the `c<origin>.<seq>` display form of a [`CompletId`].
fn parse_id(s: &str) -> Option<CompletId> {
    let rest = s.strip_prefix('c')?;
    let (origin, seq) = rest.split_once('.')?;
    Some(CompletId::new(origin.parse().ok()?, seq.parse().ok()?))
}

fn read_next(file: &mut File) -> Result<Option<WalRecord>, io::Error> {
    // Distinguish clean EOF (Ok(None)) from a torn frame (Err).
    let mut probe = [0u8; 1];
    match file.read(&mut probe) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    // Re-assemble the frame: the probe byte is the version octet.
    let payload = read_frame(&mut Prefixed {
        head: Some(probe[0]),
        rest: file,
    })
    .map_err(|e| io::Error::other(e.to_string()))?;
    if payload.len() < 4 {
        return Err(io::Error::other("wal frame shorter than its checksum"));
    }
    let (sum, body) = payload.split_at(4);
    if crc32(body) != u32::from_be_bytes([sum[0], sum[1], sum[2], sum[3]]) {
        return Err(io::Error::other("wal record checksum mismatch"));
    }
    let value =
        decode_value_from_bytes(payload.slice(4..)).map_err(|e| io::Error::other(e.to_string()))?;
    WalRecord::from_value(&value)
        .map(Some)
        .ok_or_else(|| io::Error::other("unknown wal record"))
}

/// Reader adapter that replays one already-consumed byte before the
/// underlying file (used to peek for EOF without seeking).
struct Prefixed<'a> {
    head: Option<u8>,
    rest: &'a mut File,
}

impl Read for Prefixed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(b) = self.head.take() {
            if buf.is_empty() {
                self.head = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        self.rest.read(buf)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial), bitwise — no tables, no
/// dependencies; WAL records are small enough that speed is irrelevant.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fargo-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_state(seq: u64, n: i64) -> WalState {
        WalState {
            id: CompletId::new(0, seq),
            type_name: "ChkNode".into(),
            state: Value::map([("n", Value::from(n))]),
            epoch: 3,
            names: vec![format!("node-{seq}")],
        }
    }

    #[test]
    fn generation_increments_across_reopens() {
        let dir = tmpdir("gen");
        assert_eq!(Wal::open(&dir, "core0", true).unwrap().generation(), 1);
        assert_eq!(Wal::open(&dir, "core0", true).unwrap().generation(), 2);
        assert_eq!(Wal::open(&dir, "core0", false).unwrap().generation(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_generation_sidecar_refuses_to_open() {
        let dir = tmpdir("gen-corrupt");
        let _ = Wal::open(&dir, "core0", false).unwrap();
        fs::write(dir.join("core0.gen"), "not a number").unwrap();
        let err = Wal::open(&dir, "core0", false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An empty sidecar (what a torn non-atomic rewrite used to
        // leave) is corruption too: silently restarting at generation 1
        // would re-enable the stale request-id collisions the counter
        // exists to prevent.
        fs::write(dir.join("core0.gen"), "").unwrap();
        assert!(Wal::open(&dir, "core0", false).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let records = vec![
            WalRecord::State(sample_state(1, 7)),
            WalRecord::Departed {
                id: CompletId::new(0, 1),
                epoch: 4,
                dest: Some(2),
            },
            WalRecord::Departed {
                id: CompletId::new(0, 2),
                epoch: 1,
                dest: None,
            },
            WalRecord::Held(WalHeld {
                root: CompletId::new(1, 9),
                epoch: 2,
                source: 1,
                packets: vec![sample_state(9, 0)],
            }),
            WalRecord::HeldResolved {
                root: CompletId::new(1, 9),
                epoch: 2,
                committed: true,
            },
            WalRecord::Decision {
                root: CompletId::new(0, 5),
                epoch: 1,
                committed: true,
                ids: vec![CompletId::new(0, 5), CompletId::new(0, 6)],
                dest: 2,
            },
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.appends_since_rewrite(), records.len() as u64);
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.records, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_empty_replay() {
        let replay = Wal::replay_path(Path::new("/nonexistent/fargo.wal")).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt, 0);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let dir = tmpdir("torn");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        wal.append(&WalRecord::State(sample_state(2, 2))).unwrap();
        // Truncate mid-way through the second frame.
        let len = fs::metadata(wal.path()).unwrap().len();
        let f = OpenOptions::new().write(true).open(wal.path()).unwrap();
        f.set_len(len - 3).unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_is_detected() {
        let dir = tmpdir("bitrot");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        let mut bytes = fs::read(wal.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(wal.path(), &bytes).unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fold_reduces_to_crash_time_truth() {
        let records = vec![
            WalRecord::State(sample_state(1, 1)),
            WalRecord::State(sample_state(2, 1)),
            // Newest state per id wins.
            WalRecord::State(sample_state(1, 5)),
            // Departed removes (and records the forward).
            WalRecord::Departed {
                id: CompletId::new(0, 2),
                epoch: 1,
                dest: Some(2),
            },
            // Committed decision removes its closure ids.
            WalRecord::State(sample_state(3, 9)),
            WalRecord::Decision {
                root: CompletId::new(0, 3),
                epoch: 1,
                committed: true,
                ids: vec![CompletId::new(0, 3)],
                dest: 1,
            },
            // Aborted decision keeps them.
            WalRecord::State(sample_state(4, 2)),
            WalRecord::Decision {
                root: CompletId::new(0, 4),
                epoch: 1,
                committed: false,
                ids: vec![CompletId::new(0, 4)],
                dest: 2,
            },
            // Resolved hold disappears; unresolved hold survives.
            WalRecord::Held(WalHeld {
                root: CompletId::new(1, 1),
                epoch: 1,
                source: 1,
                packets: vec![],
            }),
            WalRecord::HeldResolved {
                root: CompletId::new(1, 1),
                epoch: 1,
                committed: false,
            },
            WalRecord::Held(WalHeld {
                root: CompletId::new(1, 2),
                epoch: 3,
                source: 1,
                packets: vec![sample_state(7, 7)],
            }),
        ];
        let f = fold(&records);
        let ids: Vec<_> = f.survivors.iter().map(|s| s.id.seq).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(f.survivors[0].state.get("n").unwrap().as_i64(), Some(5));
        assert_eq!(f.held.len(), 1);
        assert_eq!(f.held[0].root, CompletId::new(1, 2));
        assert_eq!(f.decisions.len(), 2);
        assert_eq!(f.outcomes, vec![(CompletId::new(1, 1), 1, false)]);
        // Departures with a destination surface for forward rebuilding:
        // the explicit Departed and the committed decision's closure, but
        // not the aborted decision's.
        assert_eq!(
            f.departed,
            vec![(CompletId::new(0, 2), 1, 2), (CompletId::new(0, 3), 1, 1)]
        );
    }

    #[test]
    fn fold_rearrival_cancels_departure() {
        // depart → come back: the departure must not surface, or recovery
        // would install a forwarding tracker over a live complet.
        let records = vec![
            WalRecord::State(sample_state(1, 1)),
            WalRecord::Departed {
                id: CompletId::new(0, 1),
                epoch: 1,
                dest: Some(2),
            },
            WalRecord::State(sample_state(1, 3)),
        ];
        let f = fold(&records);
        assert_eq!(f.survivors.len(), 1);
        assert!(f.departed.is_empty());
    }

    #[test]
    fn compact_folds_and_keeps_appending() {
        let dir = tmpdir("rewrite");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        for i in 0..10 {
            wal.append(&WalRecord::State(sample_state(1, i))).unwrap();
        }
        let big = fs::metadata(wal.path()).unwrap().len();
        assert_eq!(wal.compact(&[]).unwrap(), 1);
        assert_eq!(wal.appends_since_rewrite(), 0);
        assert!(fs::metadata(wal.path()).unwrap().len() < big);
        // The image keeps the newest acknowledged state.
        let replay = Wal::replay_path(wal.path()).unwrap();
        let f = fold(&replay.records);
        assert_eq!(f.survivors.len(), 1);
        assert_eq!(
            f.survivors[0].state.get("n").and_then(Value::as_i64),
            Some(9)
        );
        // Appends after the compaction land in the new file.
        wal.append(&WalRecord::Departed {
            id: CompletId::new(0, 1),
            epoch: 9,
            dest: Some(1),
        })
        .unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(replay.records.len(), 2);
        let f = fold(&replay.records);
        assert!(f.survivors.is_empty());
        assert_eq!(f.departed, vec![(CompletId::new(0, 1), 9, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_appends_extra_records_last() {
        let dir = tmpdir("compact-extra");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        wal.append(&WalRecord::Departed {
            id: CompletId::new(0, 2),
            epoch: 1,
            dest: Some(1),
        })
        .unwrap();
        // Extra carries a fresher tracker-derived forward for the same
        // id: appended after the folded image, it wins the next fold.
        wal.compact(&[WalRecord::Departed {
            id: CompletId::new(0, 2),
            epoch: 3,
            dest: Some(2),
        }])
        .unwrap();
        let replay = Wal::replay_path(wal.path()).unwrap();
        let f = fold(&replay.records);
        assert_eq!(f.survivors.len(), 1);
        assert_eq!(f.departed, vec![(CompletId::new(0, 2), 3, 2)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
