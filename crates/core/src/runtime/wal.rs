//! Write-ahead passivation journal — the durability half of the §7
//! "persistence model" future work.
//!
//! Every state-bearing transition a Core acknowledges (instantiation,
//! move arrival, acknowledged invocation, release, and both sides of
//! the two-phase move protocol) appends one record to an on-disk log
//! before the acknowledgement leaves the Core. A move transaction's
//! verdict is one `Decision` record per Core, whichever side it is on:
//! at the source it also names who left, where and at which epoch; at
//! the destination it resolves the `Held` stream. A record is written the
//! way an envelope is — a tag byte and positional fields from the
//! [`Wire`] tables below, a complet as the same [`CompletPacket`] a move
//! stream carries — behind a version byte and a CRC32, inside
//! `fargo-net`'s length-prefixed frame:
//!
//! ```text
//! [frame version u8][len u32 BE] [crc32 u32 BE] [WAL_VERSION u8][tag u8] positional fields
//!                                 '-- over ---> '------------- the body ---------------'
//! ```
//!
//! A short or checksum-failing frame is a torn or corrupted tail: replay
//! stops there and keeps the prefix. A frame whose checksum holds but
//! whose body this build cannot decode (another version, an unknown
//! tag, malformed or trailing fields) was written by a different build:
//! replay fails with `InvalidData` and the file is left alone rather
//! than compacted down to what happened to be readable. With
//! `CoreConfig::wal_fsync` on (the default) each append is fsynced
//! before the acknowledgement leaves, so durability covers OS crashes
//! and power loss; off, records stop at the OS page cache and the
//! guarantee narrows to process crashes.
//!
//! A log is read as a stream: [`Frames`] yields one checked frame at a
//! time with its decoded record, and [`fold`], the one reduction, keeps
//! the frame of each surviving `State` and open `Held` and drops every
//! record as it moves on — neither the log nor its records are ever in
//! memory whole. On restart, [`Wal::replay_path`] folds the surviving
//! prefix and the Core decodes only the survivors it re-installs.
//! Periodic [`Wal::compact`] compaction (driven from the monitor tick)
//! replaces the log with its folded image — the kept frames copied byte
//! for byte, departures and the caller's records encoded anew — so it
//! does not grow without bound; a checkpoint snapshot is that same
//! image, `State` frames only.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use fargo_net::frame::{FrameError, FRAME_VERSION, MAX_FRAME};
use fargo_wire::{CompletId, WireReader, WireWriter};
use parking_lot::Mutex;

use crate::proto::{unknown, wire_enum, wire_record, CompletPacket, Wire};

/// The one record layout this build reads and writes. It starts above
/// `fargo-wire`'s value tags (0–9): builds that wrote each record as a
/// `Value` tree began the frame body with such a tag, so their logs
/// read as an unknown version, not as garbage.
const WAL_VERSION: u8 = 16;

/// A move prepared at this Core (the destination) but not yet resolved:
/// recovery re-holds it and re-runs the outcome query against the source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalHeld {
    /// Node index of the source Core, for the outcome query.
    pub source: u32,
    /// The marshaled closure, one image per complet in the move, the
    /// root's first: its `(id, epoch)` names the transaction.
    pub packets: Vec<CompletPacket>,
}

impl WalHeld {
    /// The transaction key, `(root, epoch)` of the first packet; `None`
    /// for an empty stream, which names no transaction.
    pub fn key(&self) -> Option<(CompletId, u64)> {
        self.packets.first().map(|p| (p.id, p.epoch))
    }
}

/// One append-only log record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// The complet is (still) live here with this state.
    State(CompletPacket),
    /// The complet left this Core outside a move verdict: released, or
    /// a forward compaction carries over.
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
    /// A move transaction's verdict at this Core, on either side. The
    /// source writes it *before* the commit message is sent (the point
    /// of no return); the destination writes it when it activates or
    /// discards the held stream, which it resolves.
    Decision {
        /// Root complet of the move transaction.
        root: CompletId,
        /// Transaction epoch.
        epoch: u64,
        /// The recorded verdict.
        committed: bool,
        /// The complets that left this Core, each with its departure
        /// epoch: the source's closure when `committed`, otherwise (and
        /// at the destination) empty.
        left: Vec<(CompletId, u64)>,
        /// Move destination, where recovery forwards `left` to.
        dest: u32,
    },
}

wire_record! {
    WalHeld { source, packets }
}

// Tags 2, 3 and 4 are retired (a `Held` stream keyed beside its packets;
// the destination's verdict, now a `Decision`; a `Decision` listing ids
// without their epochs) and decode to `Err`, so a log holding one is
// another build's. `State` and `Departed` keep their tags and bytes, and
// a log of only those replays as written.
wire_enum! { WalRecord, "wal record tag";
    0 => State(image),
    1 => Departed { id, epoch, dest },
    5 => Held(held),
    6 => Decision { root, epoch, committed, left, dest },
}

/// [`fold`]'s reduction of a replayed log: what was true at the crash.
#[derive(Debug, Default)]
pub(crate) struct WalFold {
    /// Records read, up to the first corruption.
    pub records: usize,
    /// `1` if the read stopped at a torn or corrupted tail, else `0`.
    pub corrupt: usize,
    /// Complets live on this Core: the newest `State` frame per id, in
    /// first-seen order ([`decode_frame`] decodes one).
    pub survivors: Vec<Bytes>,
    /// Prepared moves never resolved (recovery re-holds and queries):
    /// their `Held` frames.
    pub held: Vec<Bytes>,
    /// Move verdicts, in append order (recovery reloads the decision log
    /// so peers' verdict queries and retransmits still get answers).
    pub verdicts: Vec<(CompletId, u64, bool)>,
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
    /// Complets the log holds but this Core's registry could not
    /// rebuild (an unknown type, or state its constructor refused):
    /// dropped, not re-installed.
    pub dropped: usize,
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
pub(crate) struct Wal {
    path: PathBuf,
    /// The log; `None` once [`Wal::close`]d, and every write fails then.
    file: Mutex<Option<File>>,
    appends: AtomicU64,
    generation: u64,
    fsync: bool,
}

impl Wal {
    /// Opens (creating if necessary) the log for `core` under `dir`.
    ///
    /// Each open also bumps the sidecar *generation* counter — a durable
    /// count of the Core's lives, one of the two its incarnation is drawn
    /// from, so every id it mints stays above the ids its log names. The
    /// sidecar is rewritten via temp-file-and-rename so a crash mid-bump
    /// cannot leave a partial file; an existing sidecar that does not
    /// parse is corruption and refuses to open (silently restarting at 1
    /// would re-enable exactly the id collisions the counter exists to
    /// prevent).
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
            file: Mutex::new(Some(file)),
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

    /// Appends one record and — with fsync on — syncs it to stable
    /// storage before returning, so the acknowledgement the caller is
    /// about to send cannot outlive the record it promises. The frame is
    /// encoded outside the file lock and leaves in one write.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let frame = encode_record(record)?;
        let mut file = self.file.lock();
        let file = file.as_mut().ok_or_else(closed)?;
        file.write_all(&frame)?;
        if self.fsync {
            file.sync_data()?;
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Closes the log once a write under way is done.
    pub fn close(&self) {
        self.file.lock().take();
    }

    /// Appends since the last [`Wal::compact`] (compaction trigger).
    pub fn appends_since_rewrite(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Reads a log file frame by frame and [`fold`]s it, stopping
    /// cleanly at a torn or corrupted tail.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors reading the file (a missing file is
    /// an empty log) and fails with `InvalidData`, naming the file, on an
    /// intact frame this build cannot decode — see [`Frames`].
    pub fn replay_path(path: &Path) -> io::Result<WalFold> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalFold::default()),
            Err(e) => return Err(e),
        };
        fold(Frames::new(BufReader::new(&file), file.metadata()?.len()))
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// Compacts the log in place to its folded image — the frames of the
    /// newest `State` per survivor and of unresolved holds, copied as
    /// written, then still-effective departures — followed by the
    /// caller's `extra` records (verdict snapshots, tracker-derived
    /// forwards; appended last so they win the next fold). The log is
    /// streamed, never read whole, and the fold-and-write runs under the
    /// append lock: a concurrently acknowledged mutation either lands
    /// before the fold and is folded in, or blocks until the new image
    /// is in place and is appended after it — compaction can never lose
    /// acknowledged state.
    ///
    /// Returns the number of records in the compacted image.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(&self, extra: &[WalRecord]) -> io::Result<usize> {
        let mut file = self.file.lock();
        let folded = Self::replay_path(&self.path)?;
        self.write_image(&mut file, &folded, extra)
    }

    /// Replaces the log with `folded`'s image and `extra`, as
    /// [`Wal::compact`] does, from a fold the caller already holds: a
    /// restarting Core writes the fold it read at spawn, before anything
    /// can append, instead of folding the same file again.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn rewrite(&self, folded: &WalFold, extra: &[WalRecord]) -> io::Result<usize> {
        let mut file = self.file.lock();
        self.write_image(&mut file, folded, extra)
    }

    /// Writes `folded`'s image and `extra` under the held append lock.
    /// The image goes to a temporary file, is synced, and is renamed
    /// over the old log, so a crash mid-write leaves one valid log.
    fn write_image(
        &self,
        file: &mut Option<File>,
        folded: &WalFold,
        extra: &[WalRecord],
    ) -> io::Result<usize> {
        let file = file.as_mut().ok_or_else(closed)?;
        let tmp = self.path.with_extension("wal.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        for frame in folded.survivors.iter().chain(&folded.held) {
            out.write_all(frame)?;
        }
        for &(id, epoch, dest) in &folded.departed {
            let dest = Some(dest);
            out.write_all(&encode_record(&WalRecord::Departed { id, epoch, dest })?)?;
        }
        for record in extra {
            out.write_all(&encode_record(record)?)?;
        }
        let out = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        out.sync_data()?;
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
        Ok(folded.survivors.len() + folded.held.len() + folded.departed.len() + extra.len())
    }
}

/// What a write to a closed log fails with.
fn closed() -> io::Error {
    io::Error::other("log closed")
}

/// Fsyncs a directory so a rename performed in it survives power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reduces a log, read frame by frame, to crash-time truth: the newest
/// state per still-live complet, unresolved held moves, and the
/// move-protocol verdicts. It keeps frames, not records.
///
/// # Errors
///
/// Whatever reading `frames` fails with — see [`Frames`].
pub(crate) fn fold(mut frames: Frames<impl Read>) -> io::Result<WalFold> {
    let mut order: Vec<CompletId> = Vec::new();
    let mut states: HashMap<CompletId, Bytes> = HashMap::new();
    let mut held: Vec<(Option<(CompletId, u64)>, Bytes)> = Vec::new();
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
    while let Some((frame, record)) = frames.next_frame()? {
        out.records += 1;
        match record {
            WalRecord::State(s) => {
                if !states.contains_key(&s.id) {
                    order.push(s.id);
                }
                // A later arrival supersedes any earlier departure: the
                // complet is live here again.
                gone.remove(&s.id);
                states.insert(s.id, frame);
            }
            WalRecord::Departed { id, epoch, dest } => {
                states.remove(&id);
                if let Some(d) = dest {
                    depart(&mut gone_order, &mut gone, id, epoch, d);
                }
            }
            WalRecord::Held(h) => {
                let key = h.key();
                held.retain(|(k, _)| *k != key);
                held.push((key, frame));
            }
            WalRecord::Decision {
                root,
                epoch,
                committed,
                left,
                dest,
            } => {
                held.retain(|(k, _)| *k != Some((root, epoch)));
                out.verdicts.push((root, epoch, committed));
                for (id, epoch) in left {
                    states.remove(&id);
                    depart(&mut gone_order, &mut gone, id, epoch, dest);
                }
            }
        }
    }
    out.corrupt = usize::from(frames.torn);
    out.survivors = order
        .into_iter()
        .filter_map(|id| states.remove(&id))
        .collect();
    out.held = held.into_iter().map(|(_, frame)| frame).collect();
    out.departed = gone_order
        .into_iter()
        .filter_map(|id| gone.remove(&id).map(|(epoch, dest)| (id, epoch, dest)))
        .collect();
    Ok(out)
}

/// Encodes one record as a whole frame — the one encoder behind log
/// appends, compaction and checkpoint snapshots — in one buffer: the
/// body goes behind 9 reserved bytes, then the header over them.
///
/// # Errors
///
/// Fails when the record exceeds `fargo-net`'s frame bound.
pub(crate) fn encode_record(record: &WalRecord) -> io::Result<Vec<u8>> {
    let mut w = WireWriter::new();
    w.put_raw(&[0; 9]);
    w.put_u8(WAL_VERSION);
    record.put(&mut w);
    let mut frame = w.into_vec();
    let len = frame.len() - 5;
    if len > MAX_FRAME {
        return Err(io::Error::other(FrameError::TooLarge(len as u64)));
    }
    let sum = crc32(&frame[9..]);
    frame[0] = FRAME_VERSION;
    frame[1..5].copy_from_slice(&(len as u32).to_be_bytes());
    frame[5..9].copy_from_slice(&sum.to_be_bytes());
    Ok(frame)
}

/// The frames of a log (or of a checkpoint snapshot, which is one), read
/// one at a time from a file or from memory. A torn or corrupted tail —
/// a short header, a foreign frame version, a length past the end of the
/// source (nothing is allocated for it), a checksum mismatch — ends the
/// stream and sets `torn`, keeping the prefix.
pub(crate) struct Frames<R> {
    src: R,
    /// Bytes of `src` not read yet.
    left: u64,
    /// One frame's bytes as read, reused from frame to frame.
    buf: Vec<u8>,
    /// Whether the stream ended at a torn or corrupted tail.
    torn: bool,
}

impl<R: Read> Frames<R> {
    /// The frames of the `len` bytes `src` holds.
    pub fn new(src: R, len: u64) -> Self {
        Frames {
            src,
            left: len,
            buf: Vec::new(),
            torn: false,
        }
    }

    /// The next intact frame, as written, and its record; `None` at the
    /// end or at a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates read errors; fails with `InvalidData` on a frame whose
    /// checksum holds but which does not decode: another build's record,
    /// not damage, and everything behind it would be lost with it.
    pub fn next_frame(&mut self) -> io::Result<Option<(Bytes, WalRecord)>> {
        if self.left < 5 || self.torn {
            self.torn |= self.left > 0;
            return Ok(None);
        }
        // Torn tail or bit rot, unless the frame proves intact.
        self.torn = true;
        let mut header = [0; 5];
        self.src.read_exact(&mut header)?;
        let [version, len @ ..] = header;
        let len = u64::from(u32::from_be_bytes(len));
        if version != FRAME_VERSION || len < 4 || self.left - 5 < len {
            return Ok(None);
        }
        self.left -= 5 + len;
        self.buf.resize(5 + len as usize, 0);
        self.buf[..5].copy_from_slice(&header);
        self.src.read_exact(&mut self.buf[5..])?;
        let sum = u32::from_be_bytes([self.buf[5], self.buf[6], self.buf[7], self.buf[8]]);
        if crc32(&self.buf[9..]) != sum {
            return Ok(None);
        }
        self.torn = false;
        let frame = Bytes::copy_from_slice(&self.buf);
        decode_frame(&frame).map(|record| Some((frame, record)))
    }
}

/// Decodes the record of a whole frame whose checksum held, such as one
/// [`fold`] kept.
///
/// # Errors
///
/// Fails with `InvalidData` on a frame that does not decode.
pub(crate) fn decode_frame(frame: &Bytes) -> io::Result<WalRecord> {
    decode_record(frame.slice(9..))
}

fn decode_record(body: Bytes) -> io::Result<WalRecord> {
    let r = &mut WireReader::new(body);
    let mut decode = || {
        let version = r.get_u8()?;
        if version != WAL_VERSION {
            return Err(unknown("wal record version", version));
        }
        let record = WalRecord::get(r)?;
        r.expect_end()?;
        Ok(record)
    };
    decode().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// CRC-32 (IEEE 802.3, reflected polynomial), a table lookup per byte:
/// it runs over every byte of every durable ack and of every compaction.
fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| {
        CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8)
    })
}

/// [`crc32`]'s table: entry `i` is the register after shifting byte `i`
/// through it bit by bit.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

#[cfg(test)]
pub(crate) use tests::replay;

#[cfg(test)]
mod tests {
    use fargo_net::frame::write_frame;
    use fargo_wire::testgen::{gen_value, TestRng};
    use fargo_wire::{encode_value, Value};

    use super::*;
    use crate::proto::tests::{fuzz_seed, mutate, requested_during, ALLOC_FACTOR, ALLOC_SLACK};

    /// A log (or a snapshot) record by record: the frame reader alone,
    /// without the fold.
    #[derive(Debug, Default)]
    pub(crate) struct WalReplay {
        /// Records in append order, up to the first corruption.
        pub records: Vec<WalRecord>,
        /// `1` if the read stopped at a torn or corrupted tail, else `0`.
        pub corrupt: usize,
    }

    pub(crate) fn replay(log: Bytes) -> io::Result<WalReplay> {
        let mut frames = Frames::new(&log[..], log.len() as u64);
        let mut replay = WalReplay::default();
        while let Some((_, record)) = frames.next_frame()? {
            replay.records.push(record);
        }
        replay.corrupt = usize::from(frames.torn);
        Ok(replay)
    }

    fn replay_file(path: &Path) -> WalReplay {
        replay(fs::read(path).unwrap().into()).unwrap()
    }

    /// [`fold`] over the frames of `records`.
    fn fold_records(records: &[WalRecord]) -> WalFold {
        let log: Vec<u8> = records.iter().flat_map(encode).collect();
        fold(Frames::new(&log[..], log.len() as u64)).unwrap()
    }

    /// The decoded records of frames a fold kept.
    fn decoded(frames: &[Bytes]) -> Vec<WalRecord> {
        frames.iter().map(|f| decode_frame(f).unwrap()).collect()
    }

    /// The decoded survivors of a fold.
    fn states(f: &WalFold) -> Vec<CompletPacket> {
        decoded(&f.survivors)
            .into_iter()
            .map(|r| match r {
                WalRecord::State(image) => image,
                other => panic!("a survivor frame holds {other:?}"),
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fargo-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_state(seq: u64, n: i64) -> CompletPacket {
        CompletPacket {
            id: CompletId::new(0, seq),
            type_name: "ChkNode".into(),
            state: Value::map([("n", Value::from(n))]),
            epoch: 3,
            names: vec![format!("node-{seq}")],
        }
    }

    /// One record of each kind (both shapes of `Departed`, an empty
    /// `Held` stream, and a `Decision` from each side).
    fn sample_records() -> Vec<WalRecord> {
        vec![
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
                source: 1,
                packets: vec![sample_state(9, 0)],
            }),
            WalRecord::Held(WalHeld {
                source: 2,
                packets: vec![],
            }),
            WalRecord::Decision {
                root: CompletId::new(0, 9),
                epoch: 3,
                committed: true,
                left: vec![],
                dest: 0,
            },
            WalRecord::Decision {
                root: CompletId::new(0, 5),
                epoch: 1,
                committed: true,
                left: vec![(CompletId::new(0, 5), 1), (CompletId::new(0, 6), 4)],
                dest: 2,
            },
        ]
    }

    fn encode(record: &WalRecord) -> Vec<u8> {
        encode_record(record).unwrap()
    }

    /// A checksummed frame around an arbitrary body, as some other build
    /// might have written it.
    fn frame_of(body: &[u8]) -> Vec<u8> {
        let mut payload = crc32(body).to_be_bytes().to_vec();
        payload.extend_from_slice(body);
        let mut out = Vec::new();
        write_frame(&mut out, &payload).unwrap();
        out
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

    /// The table-driven CRC is the bitwise definition, shifted a byte at
    /// a time.
    #[test]
    fn crc32_table_matches_the_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u32 {
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
        let rng = &mut TestRng(fuzz_seed());
        for len in (0..64).chain([255, 256, 1000, 4096]) {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&data), bitwise(&data), "{len} bytes");
        }
    }

    /// The record table, pinned: version byte, tag, then the fields in
    /// table order — ids as `(origin, seq)` varints, a complet image in
    /// the envelope's `CompletPacket` order. A change here is a format
    /// change and needs a new `WAL_VERSION`, or a new tag for the record
    /// it reshapes.
    #[test]
    fn golden_bytes_of_every_record_kind() {
        let image = CompletPacket {
            id: CompletId::new(0, 7),
            type_name: "T".into(),
            state: Value::I64(1),
            epoch: 3,
            names: vec!["n".into()],
        };
        // id, type_name, epoch, names, state (an `I64` value: tag 3, zigzag).
        let image_bytes = [0, 7, 1, b'T', 3, 1, 1, b'n', 3, 2];
        let golden: [(WalRecord, Vec<u8>); 5] = [
            (
                WalRecord::State(image.clone()),
                [&[WAL_VERSION, 0][..], &image_bytes].concat(),
            ),
            (
                WalRecord::Departed {
                    id: CompletId::new(0, 7),
                    epoch: 4,
                    dest: Some(2),
                },
                vec![WAL_VERSION, 1, 0, 7, 4, 1, 2],
            ),
            (
                WalRecord::Departed {
                    id: CompletId::new(0, 7),
                    epoch: 4,
                    dest: None,
                },
                vec![WAL_VERSION, 1, 0, 7, 4, 0],
            ),
            (
                WalRecord::Held(WalHeld {
                    source: 1,
                    packets: vec![image],
                }),
                [&[WAL_VERSION, 5, 1, 1][..], &image_bytes].concat(),
            ),
            (
                WalRecord::Decision {
                    root: CompletId::new(0, 5),
                    epoch: 1,
                    committed: true,
                    left: vec![(CompletId::new(0, 5), 1), (CompletId::new(0, 6), 4)],
                    dest: 2,
                },
                vec![WAL_VERSION, 6, 0, 5, 1, 1, 2, 0, 5, 1, 0, 6, 4, 2],
            ),
        ];
        for (record, body) in &golden {
            assert_eq!(encode(record), frame_of(body), "{record:?}");
            assert_eq!(decode_record(body.clone().into()).unwrap(), *record);
        }
        // One whole frame: frame version, big-endian length of checksum
        // + body, big-endian CRC-32 of the body, the body.
        assert_eq!(WAL_VERSION, 16);
        assert_eq!(
            encode(&golden[2].0),
            [1, 0, 0, 0, 10, 0xee, 0x57, 0x59, 0x09, 16, 1, 0, 7, 4, 0]
        );
        // What the build before the one-record verdict wrote for `Held`,
        // the destination's verdict and `Decision`: retired tags, never
        // misread.
        for retired in [
            [&[WAL_VERSION, 2, 1, 9, 2, 1, 1][..], &image_bytes].concat(),
            vec![WAL_VERSION, 3, 1, 9, 2, 1],
            vec![WAL_VERSION, 4, 0, 5, 1, 1, 2, 0, 5, 0, 6, 2],
        ] {
            assert!(decode_record(retired.into()).is_err());
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        let records = sample_records();
        for r in &records {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.appends_since_rewrite(), records.len() as u64);
        let replay = replay_file(wal.path());
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.records, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_empty_replay() {
        let folded = Wal::replay_path(Path::new("/nonexistent/fargo.wal")).unwrap();
        assert_eq!(folded.records, 0);
        assert_eq!(folded.corrupt, 0);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let dir = tmpdir("torn");
        let wal = Wal::open(&dir, "core0", true).unwrap();
        wal.append(&WalRecord::State(sample_state(1, 1))).unwrap();
        wal.append(&WalRecord::State(sample_state(2, 2))).unwrap();
        // Every cut inside the second frame — header, checksum or body.
        let log = fs::read(wal.path()).unwrap();
        let first = encode(&WalRecord::State(sample_state(1, 1))).len();
        for cut in first + 1..log.len() {
            let replay = replay(Bytes::copy_from_slice(&log[..cut])).unwrap();
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert_eq!(replay.corrupt, 1, "cut at {cut}");
        }
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
        let folded = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(folded.records, 0);
        assert_eq!(folded.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A frame whose checksum holds but which this build cannot decode
    /// was written by another build. It is not a torn tail: replay must
    /// fail — naming the file — instead of keeping the prefix, and
    /// compaction must leave the log byte-for-byte as it found it.
    #[test]
    fn intact_frame_of_another_build_is_invalid_data_and_the_log_is_kept() {
        // What the `Value`-tree record layout wrote for a departure: a
        // string-keyed map, whose first byte is `fargo-wire`'s map tag.
        let old_format = encode_value(&Value::map([
            ("kind", Value::from("departed")),
            ("id", Value::from("c0.1")),
            ("epoch", Value::from(1i64)),
            ("dest", Value::from(1i64)),
        ]));
        assert_eq!(old_format[0], 8);
        let good = encode(&WalRecord::State(sample_state(1, 1)));
        let body = &good[9..];
        let future_version = [&[WAL_VERSION + 1][..], &body[1..]].concat();
        let unknown_tag = [WAL_VERSION, 7, 0, 1];
        let trailing_byte = [body, &[0]].concat();
        let truncated_fields = &body[..body.len() - 1];
        for (what, foreign) in [
            ("old format", &old_format[..]),
            ("future version", &future_version),
            ("unknown tag", &unknown_tag),
            ("trailing byte", &trailing_byte),
            ("truncated fields", truncated_fields),
        ] {
            let dir = tmpdir("foreign");
            let wal = Wal::open(&dir, "core0", false).unwrap();
            // Acknowledged state on both sides of the foreign frame.
            let log = [&good[..], &frame_of(foreign), &good].concat();
            fs::write(wal.path(), &log).unwrap();
            let err = Wal::replay_path(wal.path()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("core0.wal"), "{what}: {err}");
            assert!(wal.compact(&[]).is_err(), "{what}");
            assert_eq!(fs::read(wal.path()).unwrap(), log, "{what}: log rewritten");
            let _ = fs::remove_dir_all(&dir);
        }
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
            // A committed decision removes the complets that left, each
            // forwarded at its own epoch.
            WalRecord::State(sample_state(3, 9)),
            WalRecord::State(sample_state(5, 9)),
            WalRecord::Decision {
                root: CompletId::new(0, 3),
                epoch: 1,
                committed: true,
                left: vec![(CompletId::new(0, 3), 1), (CompletId::new(0, 5), 6)],
                dest: 1,
            },
            // An aborted one keeps the closure.
            WalRecord::State(sample_state(4, 2)),
            WalRecord::Decision {
                root: CompletId::new(0, 4),
                epoch: 1,
                committed: false,
                left: vec![],
                dest: 2,
            },
            // A hold its verdict resolves disappears; an unresolved hold
            // survives.
            WalRecord::Held(WalHeld {
                source: 1,
                packets: vec![sample_state(6, 0)],
            }),
            WalRecord::Decision {
                root: CompletId::new(0, 6),
                epoch: 3,
                committed: false,
                left: vec![],
                dest: 0,
            },
            WalRecord::Held(WalHeld {
                source: 1,
                packets: vec![sample_state(7, 7)],
            }),
        ];
        let f = fold_records(&records);
        assert_eq!(f.records, records.len());
        let survivors = states(&f);
        let ids: Vec<_> = survivors.iter().map(|s| s.id.seq).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(survivors[0].state.get("n").unwrap().as_i64(), Some(5));
        // Each survivor and hold is kept as the frame it was written in.
        assert_eq!(f.survivors[0], encode(&records[2]));
        assert_eq!(f.held, vec![encode(&records[11])]);
        assert_eq!(decoded(&f.held), vec![records[11].clone()]);
        assert_eq!(
            f.verdicts,
            vec![
                (CompletId::new(0, 3), 1, true),
                (CompletId::new(0, 4), 1, false),
                (CompletId::new(0, 6), 3, false)
            ]
        );
        // Departures with a destination surface for forward rebuilding:
        // the explicit Departed and the committed decision's closure, but
        // not the aborted decision's.
        assert_eq!(
            f.departed,
            vec![
                (CompletId::new(0, 2), 1, 2),
                (CompletId::new(0, 3), 1, 1),
                (CompletId::new(0, 5), 6, 1)
            ]
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
        let f = fold_records(&records);
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
        // The image keeps the newest acknowledged state, in the frame
        // it was appended in.
        let f = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(
            states(&f)[0].state.get("n").and_then(Value::as_i64),
            Some(9)
        );
        assert_eq!(
            fs::read(wal.path()).unwrap(),
            encode(&WalRecord::State(sample_state(1, 9)))
        );
        // Appends after the compaction land in the new file.
        wal.append(&WalRecord::Departed {
            id: CompletId::new(0, 1),
            epoch: 9,
            dest: Some(1),
        })
        .unwrap();
        let f = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(f.records, 2);
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
        let f = Wal::replay_path(wal.path()).unwrap();
        assert_eq!(f.survivors.len(), 1);
        assert_eq!(f.departed, vec![(CompletId::new(0, 2), 3, 2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// ROADMAP item 7c, the log's half: the seeded mutation fuzz of
    /// `proto`, pointed at the record decoder and at whole-file replay.
    /// A mutant is rejected, or cut short as a torn tail, or decodes to
    /// records that round-trip — never a panic, never more from the
    /// allocator than a small multiple of the input. `ci.sh` sweeps
    /// `FARGO_PROTO_FUZZ_SEED`.
    #[test]
    fn mutation_fuzz_never_panics_or_over_allocates() {
        let seed = fuzz_seed();
        let rng = &mut TestRng(seed);
        let mut records = sample_records();
        for seq in 0..4 {
            let mut image = sample_state(seq, 0);
            image.state = gen_value(rng, 3);
            records.push(WalRecord::State(image));
        }
        let frames: Vec<Vec<u8>> = records.iter().map(encode).collect();
        let log = frames.concat();
        let bounded = |requested: usize, len: usize, round: usize| {
            assert!(
                requested <= ALLOC_FACTOR * len + ALLOC_SLACK,
                "round {round}: {requested} bytes requested for {len} bytes of input"
            );
        };
        let (mut rejected, mut accepted, mut torn, mut whole) = (0u32, 0u32, 0u32, 0u32);
        for round in 0..12_000 {
            // One record body, as `split_frame` would hand it over.
            let mut body = frames[round % frames.len()][9..].to_vec();
            mutate(rng, &mut body);
            let len = body.len();
            let (decoded, requested) = requested_during(|| decode_record(body.into()));
            bounded(requested, len, round);
            match decoded {
                Ok(record) => {
                    let again = encode(&record);
                    assert_eq!(decode_record(again[9..].to_vec().into()).unwrap(), record);
                    accepted += 1;
                }
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    rejected += 1;
                }
            }
            // The whole log, checksums and length prefixes included.
            let mut file = log.clone();
            mutate(rng, &mut file);
            let len = file.len();
            let (folded, requested) = requested_during(|| fold(Frames::new(&file[..], len as u64)));
            bounded(requested, len, round);
            let (replayed, requested) = requested_during(|| replay(file.into()));
            bounded(requested, len, round);
            // A checksum stands between a mutation and the decoder, so a
            // mutated log is a torn tail, never `InvalidData`.
            let replayed = replayed.unwrap();
            assert!(records.starts_with(&replayed.records), "round {round}");
            let folded = folded.unwrap();
            assert_eq!(folded.records, replayed.records.len(), "round {round}");
            assert_eq!(folded.corrupt, replayed.corrupt, "round {round}");
            if replayed.corrupt == 1 {
                torn += 1;
            } else {
                assert_eq!(replayed.records.len(), records.len(), "round {round}");
                whole += 1;
            }
        }
        println!("seed {seed}: bodies {rejected} rejected, {accepted} accepted; logs {torn} torn, {whole} whole");
        assert!(
            rejected > 1_000 && accepted > 1_000,
            "{rejected}/{accepted}"
        );
        assert!(torn > 10_000, "{torn}/{whole}");
    }
}
