//! The Core-to-Core peer protocol (the paper's *Peer Interface*).
//!
//! Requests carry a correlation id minted by the origin Core; replies
//! walk back along the recorded forwarding path so every tracker on an
//! invocation chain learns the target's final location (§3.1's chain
//! shortening).
//!
//! # Wire format
//!
//! An envelope is written straight to bytes — [`Header::encode`], then the
//! body's [`Wire::put`] — and read back by [`Message::decode`]: one typed
//! layout, no intermediate tree (DESIGN.md, "Wire format", has the tables):
//!
//! ```text
//! [version u8][kind u8][flags u8]
//! request: req_id, origin, req_id − acked
//! reply:   req_id, route
//! notify:  -
//! flags, in bit order: trace (trace_id, span_id) · hlc (wall_us, logical);
//!                      bits 2 and 3 are retired
//! [body tag u8] positional fields
//! ```
//!
//! Integers are `fargo-wire` varints, sequences are a count followed by
//! their items, options are a presence byte followed by the value. Only
//! application payloads — invocation `args`, return `value`, complet
//! `state`, event payloads — are self-describing [`Value`] trees, and
//! they are encoded by reference. A decoder accepts exactly
//! [`ENVELOPE_VERSION`]: a format change bumps the byte, and anything
//! else (unknown version, kind, flag bit or tag, a truncated or
//! over-long frame) is an `Err` the receiver drops and counts.

use fargo_telemetry::{
    AccountRecord, Hlc, JournalEvent, JournalKind, MatrixCell, SpanRecord, TraceContext,
};
use fargo_wire::{CompletId, RefDescriptor, Value, WireReader, WireWriter};

use crate::error::{FargoError, Result};
use crate::events::EventPayload;

/// A request's correlation id (unique per origin Core).
pub(crate) type ReqId = u64;

/// Continuation attached to a move: method + args invoked on the moved
/// root — the stream's first packet — at the destination (§3.3's
/// call-with-continuation style).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Continuation {
    pub method: String,
    pub args: Vec<Value>,
}

/// The marshaled image of one complet — the only one: an entry of a
/// move stream, the payload of a write-ahead `State` record, an entry of
/// a logged `Held` stream and of a checkpoint, all in the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompletPacket {
    /// Identity, stable across relocation and restart.
    pub id: CompletId,
    /// Registered complet type (arrival and recovery construct through
    /// the registry).
    pub type_name: String,
    /// Marshaled state, exactly as `Complet::marshal` produced it.
    pub state: Value,
    /// Logical names bound to this complet at the capturing Core; they
    /// travel, and are recovered, with it.
    pub names: Vec<String>,
    /// Monotonic per-complet move counter, bumped by the source on every
    /// departure (0 = never moved). Lets the two-phase handshake
    /// distinguish *this* move from any earlier or later one; recovery
    /// re-installs at the recorded epoch — the one the location shards
    /// already associate with the placement — and checkpoint restore at
    /// one past it, to beat the stale entry naming the old host.
    pub epoch: u64,
}

/// The source's record of one two-phase move transaction, reported by
/// [`Reply::MoveState`] when the destination asks for its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MoveTxnState {
    /// The source recorded the commit decision.
    Committed,
    /// The source recorded the abort decision.
    Aborted,
    /// The peer has no record of this `(root, epoch)` transaction.
    Unknown,
}

/// Where an event subscription delivers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ListenerAddr {
    /// Deliver by invoking `on_event` on this complet (follows moves).
    Complet(RefDescriptor),
    /// Deliver to a Core-level sink registered under a token.
    Core { node: u32, token: u64 },
}

/// Request bodies.
// `MoveRequest` is named after the wire operation (a request *to move*).
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Request {
    /// Invoke a method on a (possibly forwarded) complet.
    Invoke {
        target: CompletId,
        method: String,
        args: Vec<Value>,
        /// Complet ids already on the synchronous call chain
        /// (re-entrancy detection).
        chain: Vec<CompletId>,
        /// Node indices the request has traversed, origin first: the
        /// tracker hops so far are `path.len() − 1`.
        path: Vec<u32>,
    },
    /// Phase one of a two-phase move: the full marshaled stream (the
    /// root complet plus all co-movers). The destination validates,
    /// constructs and *holds* the complets — invisible and un-invocable
    /// — until it hears `MoveCommit`.
    MovePrepare {
        /// The first moved root's packet first: its `(id, epoch)` names
        /// the transaction.
        packets: Vec<CompletPacket>,
        continuation: Option<Continuation>,
    },
    /// Phase two: activate the held complets of `(root, epoch)`.
    MoveCommit { root: CompletId, epoch: u64 },
    /// Phase two, negative: discard the held complets of `(root, epoch)`.
    MoveAbort { root: CompletId, epoch: u64 },
    /// Destination → source outcome probe for a held move whose commit
    /// never arrived: what did the source decide for `(root, epoch)`?
    /// Answered with [`Reply::MoveState`].
    MoveDecision { root: CompletId, epoch: u64 },
    /// Remote instantiation of a complet.
    NewComplet { type_name: String, args: Vec<Value> },
    /// Look up a logical name in the receiver's naming service.
    NameLookup { name: String },
    /// Fetch a complet's marshaled state (remote `duplicate`).
    FetchState { id: CompletId },
    /// Ask the host of `ids[0]` to move `ids` to `dest` in one
    /// transaction. Answered with [`Reply::ShardEntries`] naming where
    /// each complet of the stream went, or `UnknownComplet(ids[0])` by a
    /// Core that does not host it.
    MoveRequest { ids: Vec<CompletId>, dest: u32 },
    /// Where is this complet? The one location question: a receiver that
    /// hosts it names itself, any other answers from its location-shard
    /// slice. Asked of the ring owner first, then of each peer in turn;
    /// answered with [`Reply::LocateOk`] carrying the move epoch so the
    /// caller can rank it against its own hints.
    LocateQuery { id: CompletId },
    /// List the live entries of the receiver's location shard (the
    /// planner's one-RPC-per-Core placement read).
    ShardList,
    /// Subscribe a listener to the receiver's events.
    Subscribe {
        selector: String,
        threshold: Option<f64>,
        above: bool,
        listener: ListenerAddr,
    },
    /// Cancel a subscription previously installed with the same listener
    /// address and selector.
    Unsubscribe {
        selector: String,
        listener: ListenerAddr,
    },
    /// List the complets resident at the receiver (admin tooling).
    ListComplets,
    /// List the receiver's tracker table (reference inspection).
    ListTrackers,
    /// Collect the receiver's recorded spans for one trace id.
    TraceSpans { trace_id: u64 },
    /// Collect the receiver's journal of layout events (flight-recorder
    /// pull; merged into a global timeline by the caller).
    JournalEvents,
    /// Collect the receiver's top-`n` complets by accounted load
    /// (heavy-hitter pull; merged cluster-wide by the caller).
    TopComplets { n: u32 },
    /// Collect the receiver's outbound traffic-matrix cells.
    TrafficMatrix,
    /// Latency probe.
    Ping,
    /// Collect the receiver's call-edge table (who calls whom, as issued
    /// there; summed cluster-wide by the caller).
    InvokeEdges,
}

impl Request {
    /// Stable lowercase name of the request kind, used as the
    /// `kind` label on per-message-type metrics.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Request::Invoke { .. } => "invoke",
            Request::MovePrepare { .. } => "move_prep",
            Request::MoveCommit { .. } => "move_commit",
            Request::MoveAbort { .. } => "move_abort",
            Request::MoveDecision { .. } => "move_decision",
            Request::NewComplet { .. } => "new",
            Request::NameLookup { .. } => "lookup",
            Request::FetchState { .. } => "fetch",
            Request::MoveRequest { .. } => "move_req",
            Request::LocateQuery { .. } => "locate",
            Request::ShardList => "shard_list",
            Request::Subscribe { .. } => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::ListComplets => "list",
            Request::ListTrackers => "list_trk",
            Request::TraceSpans { .. } => "trace_spans",
            Request::JournalEvents => "journal",
            Request::TopComplets { .. } => "top",
            Request::TrafficMatrix => "matrix",
            Request::Ping => "ping",
            Request::InvokeEdges => "edges",
        }
    }

    /// Whether re-executing this request is observably harmless, so the
    /// receiver can skip reply-dedup for retransmitted copies. Everything
    /// that mutates layout or application state answers `false`.
    pub(crate) fn idempotent(&self) -> bool {
        matches!(
            self,
            Request::NameLookup { .. }
                | Request::FetchState { .. }
                | Request::LocateQuery { .. }
                | Request::ShardList
                | Request::ListComplets
                | Request::ListTrackers
                | Request::TraceSpans { .. }
                | Request::JournalEvents
                | Request::TopComplets { .. }
                | Request::TrafficMatrix
                | Request::InvokeEdges
                | Request::MoveDecision { .. }
                | Request::Ping
        )
    }

    /// Whether this request may be served directly on the receiver's
    /// dispatch loop instead of the worker pool. Strictly a subset of
    /// [`Request::idempotent`]: read-only snapshots that never invoke
    /// complet code, never block, and never issue nested rpcs — so
    /// serving them inline cannot deadlock the loop that must keep
    /// draining replies. Everything else (including reads that take the
    /// slot-state mutexes, like `FetchState`) stays on the pool.
    pub(crate) fn inline_safe(&self) -> bool {
        matches!(
            self,
            Request::NameLookup { .. }
                | Request::LocateQuery { .. }
                | Request::ShardList
                | Request::ListComplets
                | Request::ListTrackers
                | Request::TraceSpans { .. }
                | Request::JournalEvents
                | Request::TopComplets { .. }
                | Request::TrafficMatrix
                | Request::InvokeEdges
                | Request::Ping
        )
    }
}

/// Reply bodies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reply {
    InvokeOk {
        value: Value,
        /// Node index where the target actually executed — used by every
        /// tracker on the way back to shorten the chain.
        final_location: u32,
        /// The invoked complet, so intermediate Cores know whose tracker
        /// to repoint.
        target: CompletId,
        /// Move epoch of the target at the executing Core, so shortening
        /// from a delayed reply cannot repoint a tracker away from a
        /// newer location (0 = never moved).
        epoch: u64,
    },
    /// The destination prepared and holds the move stream of the echoed
    /// epoch, awaiting commit or abort.
    PrepareOk {
        epoch: u64,
    },
    /// The source's record of one move transaction (the `MoveDecision`
    /// answer).
    MoveState {
        state: MoveTxnState,
    },
    NewOk {
        desc: RefDescriptor,
    },
    NameOk {
        desc: Option<RefDescriptor>,
    },
    StateOk {
        type_name: String,
        state: Value,
    },
    /// The answer to [`Request::LocateQuery`]: the replying Core itself
    /// if it hosts the complet, else the node its shard slice names
    /// (`None` = no entry, a tombstone, or a departure in flight), and
    /// the move epoch of that belief (0 = never moved).
    LocateOk {
        node: Option<u32>,
        epoch: u64,
    },
    /// `(complet, node, epoch)` location entries: the replying Core's
    /// live location-shard entries, or, answering a
    /// [`Request::MoveRequest`], where each complet of the stream went.
    ShardEntries {
        entries: Vec<(CompletId, u32, u64)>,
    },
    /// Complets resident at the replying Core: `(id, type_name)`.
    Complets {
        items: Vec<(CompletId, String)>,
    },
    /// The replying Core's trackers: `(target, forward-to node if any,
    /// hits)`; `None` forward means the target is local there.
    Trackers {
        items: Vec<(CompletId, Option<u32>, u64)>,
    },
    /// Spans recorded at the replying Core for a requested trace id.
    Spans {
        spans: Vec<SpanRecord>,
    },
    /// The replying Core's retained journal events.
    Journal {
        events: Vec<JournalEvent>,
    },
    /// The replying Core's heaviest complets by accounted load.
    TopComplets {
        rows: Vec<AccountRecord>,
    },
    /// The replying Core's outbound traffic-matrix cells.
    Matrix {
        cells: Vec<MatrixCell>,
    },
    /// The replying Core's call-edge table: `(source, target, calls
    /// issued there)`.
    InvokeEdges {
        rows: Vec<(CompletId, CompletId, u64)>,
    },
    Ok,
    Pong,
    Err(FargoError),
}

/// One location-shard delta: `(complet, node, epoch, alive)`; `alive =
/// false` is a tombstone (the complet was released).
pub(crate) type DeltaTuple = (CompletId, u32, u64, bool);

/// One-way notifications (no reply expected).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Notify {
    /// An event fired at a remote Core this Core subscribed to.
    Event { token: u64, payload: EventPayload },
    /// A batch of location-shard deltas for the owning shard: a publish,
    /// or the handoff stream after a ring change.
    ShardDelta { entries: Vec<DeltaTuple> },
}

/// The full message envelope.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Message {
    Request {
        req_id: ReqId,
        /// Node index of the Core awaiting the reply.
        origin: u32,
        /// The origin's answered-below mark when this copy left it: the
        /// smallest id it still had pending (never above `req_id`), so
        /// every id of `origin` below it has been answered or abandoned
        /// and will not be sent again. Written as `req_id − acked`.
        acked: ReqId,
        /// Trace context propagated from the caller, if the operation is
        /// being traced (the envelope's `trace` flag).
        trace: Option<TraceContext>,
        body: Request,
    },
    Reply {
        req_id: ReqId,
        /// Remaining nodes the reply must traverse, ending at the origin.
        route: Vec<u32>,
        body: Reply,
    },
    Notify(Notify),
}

/// The one envelope layout this build reads and writes.
pub(crate) const ENVELOPE_VERSION: u8 = 4;

const KIND_REQUEST: u8 = 0;
const KIND_REPLY: u8 = 1;
const KIND_NOTIFY: u8 = 2;

const FLAG_TRACE: u8 = 1 << 0;
const FLAG_HLC: u8 = 1 << 1;
// Bits 2 and 3 are retired (the `ts` send-time section, whose reading
// the `hlc` section's `wall_us` carries; the piggybacked shard-delta
// section) and decode to `Err`; the remaining bits keep their positions.
const FLAGS_KNOWN: u8 = FLAG_TRACE | FLAG_HLC;

pub(crate) fn unknown(what: &str, tag: u8) -> FargoError {
    FargoError::Protocol(format!("unknown {what} {tag}"))
}

// --- positional fields -------------------------------------------------------

/// One positional wire field: how a type appends itself to a writer and
/// reads itself back. Scalars map onto the `fargo-wire` primitives,
/// `Vec<T>` is a count then the items (bounded by
/// `WireReader::get_count`), `Option<T>` a presence byte then the value,
/// a tuple its elements, a record its fields and an enum a tag byte
/// then the variant's fields — in the order the tables below (and the
/// write-ahead log's, in `runtime/wal.rs`) list them.
pub(crate) trait Wire: Sized {
    fn put(&self, w: &mut WireWriter);
    fn get(r: &mut WireReader) -> Result<Self>;
}

macro_rules! wire_prim {
    ($($t:ty: $v:ident => $put:ident($arg:expr), $get:ident;)*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut WireWriter) {
                let $v = self;
                w.$put($arg);
            }
            fn get(r: &mut WireReader) -> Result<Self> {
                Ok(r.$get()?)
            }
        }
    )*};
}

wire_prim! {
    bool: v => put_bool(*v), get_bool;
    u32: v => put_u32(*v), get_u32;
    u64: v => put_u64(*v), get_u64;
    f64: v => put_f64(*v), get_f64;
    String: v => put_str(v), get_str;
    Value: v => put_value(v), get_value;
    CompletId: v => put_complet_id(*v), get_complet_id;
    RefDescriptor: v => put_ref(v), get_ref;
}

impl Wire for usize {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        usize::try_from(r.get_u64()?).map_err(|_| FargoError::Protocol("count out of range".into()))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        Ok(if r.get_bool()? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A sequence is a count, then the items.
fn put_seq<T: Wire>(items: &[T], w: &mut WireWriter) {
    w.put_u64(items.len() as u64);
    for item in items {
        item.put(w);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut WireWriter) {
        put_seq(self, w);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        r.get_seq(T::get)
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, w: &mut WireWriter) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut WireReader) -> Result<Self> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )*};
}

wire_tuple! { (A.0, B.1) (A.0, B.1, C.2) (A.0, B.1, C.2, D.3) }

/// A record is its fields, in the order listed here.
macro_rules! wire_record {
    ($($t:ident { $($f:ident),+ })*) => {$(
        impl $crate::proto::Wire for $t {
            fn put(&self, w: &mut fargo_wire::WireWriter) {
                $($crate::proto::Wire::put(&self.$f, w);)+
            }
            fn get(r: &mut fargo_wire::WireReader) -> $crate::error::Result<Self> {
                Ok($t { $($f: $crate::proto::Wire::get(r)?),+ })
            }
        }
    )*};
}
pub(crate) use wire_record;

wire_record! {
    TraceContext { trace_id, span_id }
    Hlc { wall_us, logical }
    Continuation { method, args }
    CompletPacket { id, type_name, epoch, names, state }
    SpanRecord { trace_id, span_id, parent_id, name, core, start_us, duration_us }
    JournalEvent { hlc, core, seq, kind, subject, object, detail, peer }
    AccountRecord { key, invokes, exec_us, bytes_in, bytes_out, load, err }
    MatrixCell { src, dst, msgs, bytes }
}

/// An enum is a tag byte, then the variant's fields in the order listed
/// — one table drives both directions, so the two cannot disagree. An
/// optional trailing `; other => image` arm encodes every unlisted
/// variant as the listed value `image`.
macro_rules! wire_enum {
    ($t:ident, $what:literal;
     $($tag:literal => $v:ident $({ $($f:ident),* })? $(( $($p:ident),* ))?,)*
     $(; $o:ident => $image:expr)?) => {
        impl $crate::proto::Wire for $t {
            fn put(&self, w: &mut fargo_wire::WireWriter) {
                match self {
                    $($t::$v $({ $($f),* })? $(( $($p),* ))? => {
                        w.put_u8($tag);
                        $($($crate::proto::Wire::put($f, w);)*)?
                        $($($crate::proto::Wire::put($p, w);)*)?
                    })*
                    $($o => $crate::proto::Wire::put(&$image, w),)?
                }
            }
            fn get(r: &mut fargo_wire::WireReader) -> $crate::error::Result<Self> {
                Ok(match r.get_u8()? {
                    $($tag => $t::$v
                        $({ $($f: $crate::proto::Wire::get(r)?),* })?
                        $(( $({ let $p = $crate::proto::Wire::get(r)?; $p }),* ))?,)*
                    t => return Err($crate::proto::unknown($what, t)),
                })
            }
        }
    };
}
pub(crate) use wire_enum;

impl Wire for JournalKind {
    fn put(&self, w: &mut WireWriter) {
        w.put_str(self.as_str());
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        let name = r.get_str()?;
        JournalKind::parse(&name)
            .ok_or_else(|| FargoError::Protocol(format!("unknown journal kind {name:?}")))
    }
}

/// Event payloads are application data: they stay self-describing.
impl Wire for EventPayload {
    fn put(&self, w: &mut WireWriter) {
        w.put_value(&self.to_value());
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        EventPayload::from_value(&r.get_value()?)
    }
}

// Tag 0 is retired (it was `Held`, the destination's answer to the
// source's in-doubt query) and decodes to `Err`.
wire_enum! { MoveTxnState, "move state";
    1 => Committed,
    2 => Aborted,
    3 => Unknown,
}

wire_enum! { ListenerAddr, "listener kind";
    0 => Complet(desc),
    1 => Core { node, token },
}

// The five variants that only describe the *replying* Core's local
// trouble (`Net`, `Wire`, `UnknownCore`, `InvalidArgument`, `Protocol`)
// travel as `App` carrying their display text, so a caller never
// mistakes a peer's transport failure for one of its own. Tag 7 is
// retired (`StampUnresolved`, the refusal of a strict `stamp` resolution,
// which no Core makes any more) and decodes to `Err`; the remaining tags
// keep their numbers.
wire_enum! { FargoError, "error tag";
    0 => UnknownComplet(id),
    1 => UnknownType(type_name),
    2 => NoSuchMethod { complet_type, method },
    3 => App(message),
    4 => ReentrantInvocation(id),
    5 => Timeout,
    6 => NameNotBound(name),
    8 => AlreadyMoving(id),
    9 => UnknownRelocator(name),
    10 => HopLimit(hops),
    11 => ShuttingDown,
    12 => CapacityExceeded { core, capacity },
    13 => MoveInDoubt(id),
    ; local => FargoError::App(local.to_string())
}

// --- bodies --------------------------------------------------------------------

// Tags 1, 5, 10 and 11 are retired (the single-phase move stream; the
// source's in-doubt query `MoveQuery`; the single-id `MoveRequest`;
// `WhereIs`, the tracker-chain walk's question, now `LocateQuery`) and
// decode to `Err`; the remaining tags keep their numbers.
wire_enum! { Request, "request tag";
    0 => Invoke { target, method, args, chain, path },
    2 => MovePrepare { packets, continuation },
    3 => MoveCommit { root, epoch },
    4 => MoveAbort { root, epoch },
    6 => MoveDecision { root, epoch },
    7 => NewComplet { type_name, args },
    8 => NameLookup { name },
    9 => FetchState { id },
    12 => LocateQuery { id },
    13 => ShardList,
    14 => Subscribe { selector, threshold, above, listener },
    15 => Unsubscribe { selector, listener },
    16 => ListComplets,
    17 => ListTrackers,
    18 => TraceSpans { trace_id },
    19 => JournalEvents,
    20 => TopComplets { n },
    21 => TrafficMatrix,
    22 => Ping,
    23 => InvokeEdges,
    24 => MoveRequest { ids, dest },
}

// Tags 1 and 7 are retired (`MoveOk`, a commit's answer, now `Ok`;
// `WhereOk`, the answer to the retired `WhereIs`) and decode to `Err`;
// the remaining tags keep their numbers.
wire_enum! { Reply, "reply tag";
    0 => InvokeOk { final_location, target, epoch, value },
    2 => PrepareOk { epoch },
    3 => MoveState { state },
    4 => NewOk { desc },
    5 => NameOk { desc },
    6 => StateOk { type_name, state },
    8 => LocateOk { node, epoch },
    9 => ShardEntries { entries },
    10 => Complets { items },
    11 => Trackers { items },
    12 => Spans { spans },
    13 => Journal { events },
    14 => TopComplets { rows },
    15 => Matrix { cells },
    16 => Ok,
    17 => Pong,
    18 => Err(error),
    19 => InvokeEdges { rows },
}

// Tags 0 and 3 are retired (the origin-registry location update; a
// Core's shutdown notice, which no Core ever sent — remote listeners
// learn of a shutdown from the `coreShutdown` event) and decode to
// `Err`; the remaining tags keep their numbers.
wire_enum! { Notify, "notify tag";
    1 => Event { token, payload },
    2 => ShardDelta { entries },
}

// --- envelope --------------------------------------------------------------------

/// What precedes the body: version, kind, flags, the kind's correlation
/// fields and the flagged sections. Written separately, so that a body
/// encoded once can go out again — a retransmitted request, a replayed
/// reply — under a header stamped (`hlc`) for the resend.
pub(crate) enum Header<'a> {
    /// `(req_id, origin, acked, trace)`, as in [`Message::Request`].
    Request(ReqId, u32, ReqId, Option<TraceContext>),
    /// `(req_id, route)`, as in [`Message::Reply`].
    Reply(ReqId, &'a [u32]),
    Notify,
}

impl Header<'_> {
    /// Writes the header; `hlc` is the sender's stamp, the `hlc`
    /// section, absent when the sender neither journals nor times phases.
    pub(crate) fn encode(&self, hlc: Option<Hlc>, w: &mut WireWriter) {
        let (kind, trace) = match self {
            Header::Request(.., trace) => (KIND_REQUEST, *trace),
            Header::Reply(..) => (KIND_REPLY, None),
            Header::Notify => (KIND_NOTIFY, None),
        };
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        let flags = flag(trace.is_some(), FLAG_TRACE) | flag(hlc.is_some(), FLAG_HLC);
        w.put_u8(ENVELOPE_VERSION).put_u8(kind).put_u8(flags);
        match self {
            Header::Request(req_id, origin, acked, _) => {
                w.put_u64(*req_id).put_u32(*origin).put_u64(req_id - acked);
            }
            Header::Reply(req_id, route) => {
                w.put_u64(*req_id);
                put_seq(route, w);
            }
            Header::Notify => {}
        }
        // An absent section writes nothing: `Option::put`'s presence
        // byte is what the flag bits replace here.
        if let Some(tr) = trace {
            tr.put(w);
        }
        if let Some(hlc) = hlc {
            hlc.put(w);
        }
    }
}

/// The `Request` table's row 0 written from borrowed parts, with every
/// reference in `args` degraded to `link` on the way (by-value parameter
/// semantics, §3.1: for a remote call this encoding is the copy).
pub(crate) fn put_invoke(
    w: &mut WireWriter,
    target: CompletId,
    method: &str,
    args: &[Value],
    chain: &[CompletId],
    path: &[u32],
) {
    w.put_u8(0).put_complet_id(target).put_str(method);
    w.put_u64(args.len() as u64);
    for arg in args {
        w.put_value_degraded(arg);
    }
    put_seq(chain, w);
    put_seq(path, w);
}

/// The `Request` table's row 7 written from borrowed parts: the
/// arguments are encoded where they stand, not cloned into a request.
pub(crate) fn put_new_complet(w: &mut WireWriter, type_name: &str, args: &[Value]) {
    w.put_u8(7).put_str(type_name);
    put_seq(args, w);
}

/// The `args` of an encoded [`Request::Invoke`] body.
pub(crate) fn invoke_args(body: bytes::Bytes) -> Result<Vec<Value>> {
    match Request::get(&mut WireReader::new(body))? {
        Request::Invoke { args, .. } => Ok(args),
        _ => Err(FargoError::Protocol("not an invoke body".into())),
    }
}

impl Message {
    /// Stable lowercase label for per-message-type metrics: the request
    /// kind for requests, `reply` / `notify` otherwise.
    pub(crate) fn kind_label(&self) -> &'static str {
        match self {
            Message::Request { body, .. } => body.kind_name(),
            Message::Reply { .. } => "reply",
            Message::Notify(_) => "notify",
        }
    }

    /// Decodes one envelope from a transport payload, in place: the
    /// message and the sender's `hlc` stamp.
    ///
    /// # Errors
    ///
    /// Fails with [`FargoError::Protocol`] or a wire error on an unknown
    /// envelope version, kind, flag bit or tag, and on truncated,
    /// malformed or trailing bytes.
    pub(crate) fn decode(payload: bytes::Bytes) -> Result<(Message, Option<Hlc>)> {
        let r = &mut WireReader::new(payload);
        let version = r.get_u8()?;
        if version != ENVELOPE_VERSION {
            return Err(unknown("envelope version", version));
        }
        let (kind, flags) = (r.get_u8()?, r.get_u8()?);
        if flags & !FLAGS_KNOWN != 0 || (flags & FLAG_TRACE != 0 && kind != KIND_REQUEST) {
            return Err(unknown("envelope flags", flags));
        }
        let (req_id, origin, acked, route) = match kind {
            KIND_REQUEST => {
                let (req_id, origin) = (r.get_u64()?, r.get_u32()?);
                let acked = req_id.checked_sub(r.get_u64()?).ok_or_else(|| {
                    FargoError::Protocol(format!("request {req_id}'s mark below zero"))
                })?;
                (req_id, origin, acked, Vec::new())
            }
            KIND_REPLY => (r.get_u64()?, 0, 0, Wire::get(r)?),
            KIND_NOTIFY => (0, 0, 0, Vec::new()),
            k => return Err(unknown("envelope kind", k)),
        };
        let section = |bit: u8| flags & bit != 0;
        let trace = section(FLAG_TRACE).then(|| Wire::get(r)).transpose()?;
        let hlc = section(FLAG_HLC).then(|| Wire::get(r)).transpose()?;
        let msg = match kind {
            KIND_REQUEST => Message::Request {
                req_id,
                origin,
                acked,
                trace,
                body: Wire::get(r)?,
            },
            KIND_REPLY => Message::Reply {
                req_id,
                route,
                body: Wire::get(r)?,
            },
            _ => Message::Notify(Wire::get(r)?),
        };
        r.expect_end()?;
        Ok((msg, hlc))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::mem::discriminant;

    use bytes::Bytes;
    use fargo_wire::testgen::{gen_ref, gen_value, TestRng};

    use super::*;

    /// Counts the bytes each thread asks the allocator for, so the fuzz
    /// test can bound what decoding a hostile frame may allocate.
    struct CountingAlloc;

    thread_local! {
        static REQUESTED: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter is a plain thread-local
    // `Cell<usize>` (const-initialised, no destructor), so touching it
    // neither allocates nor re-enters the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = REQUESTED.try_with(|c| c.set(c.get() + layout.size()));
            // SAFETY: same layout, as the caller guarantees for `alloc`.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = REQUESTED.try_with(|c| c.set(c.get() + new_size));
            // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Bytes this thread requested from the allocator while `f` ran.
    pub(crate) fn requested_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = REQUESTED.with(Cell::get);
        let out = f();
        (out, REQUESTED.with(Cell::get) - before)
    }

    /// The allocation bound of the mutation fuzzes (this one and the
    /// write-ahead log's): a decoded `Value` or record is at most ~100
    /// bytes in memory per input byte that declared it (one-byte `Null`s
    /// in a list), and a growing `Vec` asks for that twice over.
    pub(crate) const ALLOC_FACTOR: usize = 256;
    pub(crate) const ALLOC_SLACK: usize = 1024;

    /// The fuzz seed `ci.sh` sweeps through `FARGO_PROTO_FUZZ_SEED`.
    pub(crate) fn fuzz_seed() -> u64 {
        std::env::var("FARGO_PROTO_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }

    /// One random mutation of a non-empty frame: a byte replaced, a bit
    /// flipped, or a length mutation — a count or length blown up to a
    /// huge varint, a byte dropped, a byte inserted.
    pub(crate) fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>) {
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(5) {
            0 => bytes[at] = rng.next_u64() as u8,
            1 => bytes[at] ^= 1 << rng.below(8),
            2 => {
                bytes.splice(at..=at, [0xff, 0xff, 0xff, 0xff, 0x07]);
            }
            3 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, rng.next_u64() as u8),
        }
    }

    fn id(seq: u64) -> CompletId {
        CompletId::new((seq % 3) as u32, seq)
    }

    fn packet(seq: u64) -> CompletPacket {
        CompletPacket {
            id: id(seq),
            type_name: "Message".into(),
            state: Value::map([("text", Value::from("x")), ("n", Value::I64(-7))]),
            names: vec!["msg".into(), "postbox".into()],
            epoch: seq,
        }
    }

    fn continuation() -> Continuation {
        Continuation {
            method: "start".into(),
            args: vec![Value::I64(1), Value::Null],
        }
    }

    /// Every request kind, plus the shape variants inside a kind.
    fn requests() -> Vec<Request> {
        let rng = &mut TestRng(0xfa46);
        let (root, epoch) = (id(9), 3);
        let complet_listener = ListenerAddr::Complet(gen_ref(rng));
        vec![
            Request::Invoke {
                target: id(7),
                method: "print".into(),
                args: vec![Value::from("hi"), gen_value(rng, 3)],
                chain: vec![id(1), id(2)],
                path: vec![1, 2, 300],
            },
            Request::MovePrepare {
                packets: vec![packet(3), packet(0)],
                continuation: Some(continuation()),
            },
            Request::MovePrepare {
                packets: vec![],
                continuation: None,
            },
            Request::MoveCommit { root, epoch },
            Request::MoveAbort { root, epoch },
            Request::MoveDecision { root, epoch },
            Request::NewComplet {
                type_name: "Counter".into(),
                args: vec![gen_value(rng, 2)],
            },
            Request::NameLookup {
                name: "postbox".into(),
            },
            Request::FetchState { id: id(4) },
            Request::MoveRequest {
                ids: vec![id(4)],
                dest: 2,
            },
            Request::MoveRequest {
                ids: vec![id(4), id(8), id(1)],
                dest: 2,
            },
            Request::LocateQuery { id: id(6) },
            Request::ShardList,
            Request::Subscribe {
                selector: "completLoad".into(),
                threshold: Some(3.5),
                above: true,
                listener: complet_listener.clone(),
            },
            Request::Subscribe {
                selector: "coreShutdown".into(),
                threshold: None,
                above: false,
                listener: ListenerAddr::Core { node: 3, token: 99 },
            },
            Request::Unsubscribe {
                selector: "completLoad".into(),
                listener: complet_listener,
            },
            Request::ListComplets,
            Request::ListTrackers,
            Request::TraceSpans { trace_id: u64::MAX },
            Request::JournalEvents,
            Request::TopComplets { n: 10 },
            Request::TrafficMatrix,
            Request::Ping,
            Request::InvokeEdges,
        ]
    }

    /// Every [`FargoError`] variant.
    fn errors() -> Vec<FargoError> {
        vec![
            FargoError::Net(simnet::NetError::RecvTimeout),
            FargoError::Wire(fargo_wire::WireError::BadTag(9)),
            FargoError::UnknownComplet(id(4)),
            FargoError::UnknownType("T".into()),
            FargoError::NoSuchMethod {
                complet_type: "A/b".into(),
                method: "c".into(),
            },
            FargoError::App("boom".into()),
            FargoError::ReentrantInvocation(id(1)),
            FargoError::Timeout,
            FargoError::UnknownCore("everest".into()),
            FargoError::NameNotBound("x".into()),
            FargoError::AlreadyMoving(id(2)),
            FargoError::UnknownRelocator("warp".into()),
            FargoError::InvalidArgument("zero workers".into()),
            FargoError::CapacityExceeded {
                core: "a/b".into(),
                capacity: 64,
            },
            FargoError::ShuttingDown,
            FargoError::HopLimit(64),
            FargoError::Protocol("unexpected reply".into()),
            FargoError::MoveInDoubt(id(9)),
        ]
    }

    /// What an error looks like after crossing the wire: itself, except
    /// the five local-trouble variants, which arrive as `App(display)`.
    fn wire_image(e: &FargoError) -> FargoError {
        match e {
            FargoError::Net(_)
            | FargoError::Wire(_)
            | FargoError::UnknownCore(_)
            | FargoError::InvalidArgument(_)
            | FargoError::Protocol(_) => FargoError::App(e.to_string()),
            other => other.clone(),
        }
    }

    /// Every reply kind (each error variant is its own `Reply::Err`).
    fn replies() -> Vec<Reply> {
        let rng = &mut TestRng(0x4e91);
        let event = |seq: u64, kind, peer| JournalEvent {
            hlc: Hlc {
                wall_us: 123 + seq,
                logical: 4,
            },
            core: 1,
            seq,
            kind,
            subject: "c0.1".into(),
            object: "Agent".into(),
            detail: String::new(),
            peer,
        };
        let mut out = vec![
            Reply::InvokeOk {
                value: gen_value(rng, 3),
                final_location: 3,
                target: id(7),
                epoch: 0,
            },
            Reply::InvokeOk {
                value: Value::Bytes(vec![0xab; 64]),
                final_location: 1,
                target: id(8),
                epoch: 4,
            },
            Reply::PrepareOk { epoch: 3 },
            Reply::NewOk { desc: gen_ref(rng) },
            Reply::NameOk {
                desc: Some(gen_ref(rng)),
            },
            Reply::NameOk { desc: None },
            Reply::StateOk {
                type_name: "T".into(),
                state: gen_value(rng, 3),
            },
            Reply::LocateOk {
                node: Some(3),
                epoch: 5,
            },
            Reply::LocateOk {
                node: None,
                epoch: 0,
            },
            Reply::ShardEntries {
                entries: vec![(id(9), 3, 5), (id(1), 1, 0)],
            },
            Reply::ShardEntries { entries: vec![] },
            Reply::Complets {
                items: vec![(id(1), "Message".into())],
            },
            Reply::Trackers {
                items: vec![(id(1), Some(3), 7), (id(2), None, 0)],
            },
            Reply::Spans {
                spans: vec![SpanRecord {
                    trace_id: 5,
                    span_id: 6,
                    parent_id: 0,
                    name: "invoke Printer.print".into(),
                    core: "acadia".into(),
                    start_us: 1_000_000,
                    duration_us: 250,
                }],
            },
            Reply::Journal {
                events: vec![
                    event(9, JournalKind::CompletDeparted, Some(2)),
                    event(0, JournalKind::RefEdgeCreated, None),
                ],
            },
            Reply::TopComplets {
                rows: vec![AccountRecord {
                    key: (2, 17),
                    invokes: 40,
                    exec_us: 123,
                    bytes_in: 4_096,
                    bytes_out: 512,
                    load: 163,
                    err: 3,
                }],
            },
            Reply::Matrix {
                cells: vec![MatrixCell {
                    src: "core0".into(),
                    dst: "core1".into(),
                    msgs: 9,
                    bytes: 900,
                }],
            },
            Reply::InvokeEdges {
                rows: vec![(id(0), id(7), 1), (id(7), id(9), u64::MAX)],
            },
            Reply::Ok,
            Reply::Pong,
        ];
        for state in [
            MoveTxnState::Committed,
            MoveTxnState::Aborted,
            MoveTxnState::Unknown,
        ] {
            out.push(Reply::MoveState { state });
        }
        out.extend(errors().iter().map(|e| Reply::Err(wire_image(e))));
        out
    }

    /// Every notify kind, with every event payload shape.
    fn notifies() -> Vec<Notify> {
        let mut out = vec![Notify::ShardDelta {
            entries: vec![(id(9), 3, 5, true), (id(1), 1, 2, false)],
        }];
        for payload in [
            EventPayload::CompletArrived {
                id: id(1),
                type_name: "Agent".into(),
                core: 2,
            },
            EventPayload::CoreShutdown { core: 1 },
            EventPayload::Profile {
                service: "completLoad".into(),
                key: "c0.1->c0.2".into(),
                value: 2.5,
                core: 0,
            },
        ] {
            out.push(Notify::Event { token: 77, payload });
        }
        out
    }

    /// All sample messages; `traced` sets the trace section on requests
    /// (the only kind that has one).
    pub(crate) fn samples(traced: bool) -> Vec<Message> {
        let trace = traced.then_some(TraceContext {
            trace_id: 812,
            span_id: 4_004,
        });
        let requests = requests().into_iter().map(|body| Message::Request {
            req_id: (7 << 32) | 42,
            origin: 1,
            acked: (7 << 32) | 39,
            trace,
            body,
        });
        let replies = replies().into_iter().map(|body| Message::Reply {
            req_id: 9,
            route: vec![2, 1],
            body,
        });
        requests
            .chain(replies)
            .chain(notifies().into_iter().map(Message::Notify))
            .collect()
    }

    /// The `hlc` section absent, then present.
    fn stamps() -> [Option<Hlc>; 2] {
        [
            None,
            Some(Hlc {
                wall_us: 55_000_123,
                logical: 3,
            }),
        ]
    }

    /// The part of `msg`'s envelope that precedes the body.
    fn header(msg: &Message) -> Header<'_> {
        match msg {
            Message::Request {
                req_id,
                origin,
                acked,
                trace,
                ..
            } => Header::Request(*req_id, *origin, *acked, *trace),
            Message::Reply { req_id, route, .. } => Header::Reply(*req_id, route),
            Message::Notify(_) => Header::Notify,
        }
    }

    /// `msg`'s body on its own: its tag, then its positional fields.
    pub(crate) fn encode_body(msg: &Message) -> Bytes {
        let mut w = WireWriter::new();
        match msg {
            Message::Request { body, .. } => body.put(&mut w),
            Message::Reply { body, .. } => body.put(&mut w),
            Message::Notify(n) => n.put(&mut w),
        }
        w.finish()
    }

    /// The whole envelope: header, flagged sections, body.
    pub(crate) fn encode(msg: &Message, hlc: Option<Hlc>) -> Bytes {
        let mut w = WireWriter::new();
        header(msg).encode(hlc, &mut w);
        w.put_raw(&encode_body(msg));
        w.finish()
    }

    /// The envelope as a first send builds it: header and body written
    /// into one buffer ([`encode`] writes the header around a body
    /// encoded beforehand, as a resend does).
    fn encode_in_one(msg: &Message, hlc: Option<Hlc>) -> Bytes {
        let mut w = WireWriter::new();
        header(msg).encode(hlc, &mut w);
        match msg {
            Message::Request { body, .. } => body.put(&mut w),
            Message::Reply { body, .. } => body.put(&mut w),
            Message::Notify(n) => n.put(&mut w),
        }
        w.finish()
    }

    #[test]
    fn samples_cover_every_variant() {
        let kinds = |n: usize, seen: usize| assert_eq!(seen, n, "a variant lost its sample");
        let names: HashSet<_> = requests().iter().map(Request::kind_name).collect();
        kinds(21, names.len());
        kinds(
            18,
            replies()
                .iter()
                .map(discriminant)
                .collect::<HashSet<_>>()
                .len(),
        );
        kinds(
            2,
            notifies()
                .iter()
                .map(discriminant)
                .collect::<HashSet<_>>()
                .len(),
        );
        kinds(
            18,
            errors()
                .iter()
                .map(discriminant)
                .collect::<HashSet<_>>()
                .len(),
        );
    }

    #[test]
    fn every_variant_roundtrips_under_all_four_flag_combinations() {
        for traced in [false, true] {
            for hlc in stamps() {
                for msg in samples(traced) {
                    let (back, back_hlc) = Message::decode(encode(&msg, hlc))
                        .unwrap_or_else(|e| panic!("{msg:?}: {e}"));
                    assert_eq!(back, msg);
                    assert_eq!(back_hlc, hlc);
                    // A header around a pre-encoded body is the same
                    // envelope, byte for byte.
                    let in_one = encode_in_one(&msg, hlc);
                    assert_eq!(in_one, encode(&msg, hlc), "{msg:?}");
                    assert_eq!(Message::decode(in_one).unwrap(), (back, back_hlc));
                }
            }
        }
    }

    /// `put_invoke` writes the `Invoke` row of the request table from
    /// borrowed parts, degrading references as it goes; `invoke_args`
    /// reads the arguments back out of such a body.
    #[test]
    fn borrowed_invoke_encoding_matches_the_table_row() {
        let rng = &mut TestRng(0x1740);
        for round in 0..64 {
            let args: Vec<Value> = (0..round % 4).map(|_| gen_value(rng, 3)).collect();
            let degraded: Vec<Value> = args
                .iter()
                .map(|v| v.clone().transform_refs(&mut |r| r.degraded()))
                .collect();
            let (chain, path) = (vec![id(1), id(round)], vec![0, 300]);
            let mut borrowed = WireWriter::new();
            put_invoke(&mut borrowed, id(7), "scan", &args, &chain, &path);
            let borrowed = borrowed.finish();
            let mut table = WireWriter::new();
            Request::Invoke {
                target: id(7),
                method: "scan".into(),
                args: degraded.clone(),
                chain,
                path,
            }
            .put(&mut table);
            assert_eq!(borrowed, table.finish());
            assert_eq!(invoke_args(borrowed).unwrap(), degraded);
        }
        let mut ping = WireWriter::new();
        Request::Ping.put(&mut ping);
        assert!(invoke_args(ping.finish()).is_err());
    }

    /// `put_new_complet` writes the `NewComplet` row, byte for byte, with
    /// references left as they are.
    #[test]
    fn borrowed_new_complet_encoding_matches_the_table_row() {
        let rng = &mut TestRng(0x1741);
        for round in 0..64 {
            let args: Vec<Value> = (0..round % 4).map(|_| gen_value(rng, 3)).collect();
            let mut borrowed = WireWriter::new();
            put_new_complet(&mut borrowed, "Chunk", &args);
            let mut table = WireWriter::new();
            Request::NewComplet {
                type_name: "Chunk".into(),
                args,
            }
            .put(&mut table);
            assert_eq!(borrowed.finish(), table.finish());
        }
    }

    #[test]
    fn every_error_variant_crosses_as_its_wire_image() {
        for e in errors() {
            let msg = Message::Reply {
                req_id: 1,
                route: vec![],
                body: Reply::Err(e.clone()),
            };
            let bytes = encode(&msg, None);
            match Message::decode(bytes).unwrap().0 {
                Message::Reply {
                    body: Reply::Err(got),
                    ..
                } => assert_eq!(got, wire_image(&e)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn every_strict_prefix_and_any_trailing_byte_is_an_error() {
        for hlc in stamps() {
            for msg in samples(true) {
                let bytes = encode(&msg, hlc);
                for cut in 0..bytes.len() {
                    assert!(
                        Message::decode(bytes.slice(..cut)).is_err(),
                        "{cut}-byte prefix of {msg:?} decoded"
                    );
                }
                let mut longer = bytes.to_vec();
                longer.push(0);
                assert!(Message::decode(longer.into()).is_err());
            }
        }
    }

    #[test]
    fn unknown_version_kind_and_flags_are_rejected() {
        let ping = Message::Request {
            req_id: 1,
            origin: 0,
            acked: 1,
            trace: None,
            body: Request::Ping,
        };
        let reply = Message::Reply {
            req_id: 1,
            route: vec![0],
            body: Reply::Pong,
        };
        let patched = |msg: &Message, at: usize, byte: u8| {
            let mut bytes = encode(msg, None).to_vec();
            bytes[at] = byte;
            Message::decode(bytes.into())
        };
        assert!(patched(&ping, 0, ENVELOPE_VERSION).is_ok());
        for version in [0, ENVELOPE_VERSION + 1, 0x88, 0xff] {
            assert!(patched(&ping, 0, version).is_err(), "version {version}");
        }
        assert!(patched(&ping, 1, 3).is_err(), "unknown kind");
        assert!(patched(&ping, 2, 0x10).is_err(), "unknown flag bit");
        assert!(patched(&reply, 2, FLAG_TRACE).is_err(), "trace on a reply");
        assert!(Message::decode(Bytes::from_static(b"garbage")).is_err());
    }

    /// A request's mark travels as its distance below `req_id`: one byte
    /// while fewer than 128 calls are outstanding, and a distance past
    /// `req_id` names no id, so it is rejected.
    #[test]
    fn a_mark_travels_as_its_distance_below_the_request_id() {
        for (acked, len) in [(301, 8), (174, 8), (173, 9), (0, 9)] {
            let msg = Message::Request {
                req_id: 301,
                origin: 0,
                acked,
                trace: None,
                body: Request::Ping,
            };
            let bytes = encode(&msg, None);
            assert_eq!(bytes.len(), len, "acked {acked}");
            assert_eq!(Message::decode(bytes).unwrap().0, msg);
        }
        let below_zero = [ENVELOPE_VERSION, KIND_REQUEST, 0, 1, 0, 2, 22];
        assert!(Message::decode(Bytes::copy_from_slice(&below_zero)).is_err());
    }

    /// A frame with the retired flag `bit` set is an error, whatever the
    /// other bits say, for every sample under every flag combination.
    fn assert_flag_bit_retired(bit: u8) {
        const FLAGS_AT: usize = 2;
        for traced in [false, true] {
            for hlc in stamps() {
                for msg in samples(traced) {
                    let mut bytes = encode(&msg, hlc).to_vec();
                    assert_eq!(bytes[FLAGS_AT] & (1 << bit), 0, "{msg:?}");
                    bytes[FLAGS_AT] |= 1 << bit;
                    assert!(Message::decode(bytes.into()).is_err(), "{msg:?}");
                }
            }
        }
    }

    /// Flag bit 3 is retired: a frame carrying it is an error whatever the
    /// other bits say, and the surviving sections keep their bits, their
    /// order and their bytes.
    #[test]
    fn flag_bit_three_is_retired_and_the_rest_keep_their_bits() {
        let hlc = Some(Hlc {
            wall_us: 7,
            logical: 8,
        });
        let ping = Message::Request {
            req_id: 1,
            origin: 2,
            acked: 1,
            trace: Some(TraceContext {
                trace_id: 5,
                span_id: 6,
            }),
            body: Request::Ping,
        };
        let pong = Message::Reply {
            req_id: 1,
            route: vec![0],
            body: Reply::Pong,
        };
        let invoke = Message::Request {
            req_id: 9,
            origin: 2,
            acked: 6,
            trace: None,
            body: Request::Invoke {
                target: CompletId::new(3, 4),
                method: "m".into(),
                args: vec![Value::I64(1), Value::Null],
                chain: vec![CompletId::new(1, 2)],
                path: vec![2, 0],
            },
        };
        // version, kind, flags; ids (a request's `req_id − acked` last);
        // trace, hlc; body tag; for the invoke its row in table order:
        // target, method, args (a count and the values), chain, path.
        let goldens: [(&Message, &[u8]); 3] = [
            (&ping, &[4, 0, 0b011, 1, 2, 0, 5, 6, 7, 8, 22]),
            (&pong, &[4, 1, 0b010, 1, 1, 0, 7, 8, 17]),
            (
                &invoke,
                &[
                    4, 0, 0b010, 9, 2, 3, 7, 8, 0, 3, 4, 1, b'm', 2, 3, 2, 0, 1, 1, 2, 2, 2, 0,
                ],
            ),
        ];
        for (msg, golden) in goldens {
            assert_eq!(&encode(msg, hlc)[..], golden, "{msg:?}");
        }
        assert_flag_bit_retired(3);
    }

    /// Flag bit 2 is retired: it was the `ts` section, the sender's send
    /// time, which the `hlc` section's `wall_us` carries. A frame with it
    /// set is refused as unknown flags, like bit 3.
    #[test]
    fn flag_bit_two_is_retired_like_bit_three() {
        assert_flag_bit_retired(2);
    }

    /// Notify tags 0 and 3 are retired: a frame carrying one is an error,
    /// and the surviving kinds keep the tag numbers peers already speak.
    #[test]
    fn notify_tag_zero_is_retired_and_the_rest_keep_their_numbers() {
        // A notify has no id section: the body tag follows the
        // three-byte header directly.
        const TAG_AT: usize = 3;
        for n in notifies() {
            let tag = match &n {
                Notify::Event { .. } => 1,
                Notify::ShardDelta { .. } => 2,
            };
            let msg = Message::Notify(n);
            let bytes = encode(&msg, None);
            assert_eq!(bytes[TAG_AT], tag, "{msg:?}");
            assert_eq!(Message::decode(bytes.clone()).unwrap().0, msg);
            for tag in [0, 3] {
                let mut retired = bytes.to_vec();
                retired[TAG_AT] = tag;
                assert!(Message::decode(retired.into()).is_err(), "{msg:?}");
            }
        }
    }

    /// Request tags 1, 5, 10 and 11, reply tags 1 and 7 and move-state
    /// tag 0 are retired: a frame carrying one is an error, and the
    /// surviving request and reply kinds keep the tag numbers peers
    /// already speak.
    #[test]
    fn request_tag_one_is_retired_and_the_rest_keep_their_numbers() {
        // One-byte `req_id`, `origin` and `req_id − acked` (a request)
        // or `req_id` and empty `route` (a reply) follow the three-byte
        // header; the body tag comes next.
        const REQUEST_TAG_AT: usize = 6;
        const TAG_AT: usize = 5;
        let patched = |msg: &Message, at: usize, byte: u8| {
            let mut bytes = encode(msg, None).to_vec();
            bytes[at] = byte;
            Message::decode(bytes.into())
        };
        let mut seen = HashSet::new();
        for body in requests() {
            let tag = match &body {
                Request::Invoke { .. } => 0,
                Request::MovePrepare { .. } => 2,
                Request::MoveCommit { .. } => 3,
                Request::MoveAbort { .. } => 4,
                Request::MoveDecision { .. } => 6,
                Request::NewComplet { .. } => 7,
                Request::NameLookup { .. } => 8,
                Request::FetchState { .. } => 9,
                Request::LocateQuery { .. } => 12,
                Request::ShardList => 13,
                Request::Subscribe { .. } => 14,
                Request::Unsubscribe { .. } => 15,
                Request::ListComplets => 16,
                Request::ListTrackers => 17,
                Request::TraceSpans { .. } => 18,
                Request::JournalEvents => 19,
                Request::TopComplets { .. } => 20,
                Request::TrafficMatrix => 21,
                Request::Ping => 22,
                Request::InvokeEdges => 23,
                Request::MoveRequest { .. } => 24,
            };
            seen.insert(tag);
            let msg = Message::Request {
                req_id: 1,
                origin: 2,
                acked: 1,
                trace: None,
                body,
            };
            let bytes = encode(&msg, None);
            assert_eq!(bytes[REQUEST_TAG_AT], tag, "{msg:?}");
            assert_eq!(Message::decode(bytes.clone()).unwrap().0, msg);
            for retired in [1, 5, 10, 11] {
                assert!(patched(&msg, REQUEST_TAG_AT, retired).is_err(), "{msg:?}");
            }
        }
        assert_eq!(seen.len(), 21, "every surviving request tag was checked");
        seen.clear();
        for body in replies() {
            let tag = match &body {
                Reply::InvokeOk { .. } => 0,
                Reply::PrepareOk { .. } => 2,
                Reply::MoveState { .. } => 3,
                Reply::NewOk { .. } => 4,
                Reply::NameOk { .. } => 5,
                Reply::StateOk { .. } => 6,
                Reply::LocateOk { .. } => 8,
                Reply::ShardEntries { .. } => 9,
                Reply::Complets { .. } => 10,
                Reply::Trackers { .. } => 11,
                Reply::Spans { .. } => 12,
                Reply::Journal { .. } => 13,
                Reply::TopComplets { .. } => 14,
                Reply::Matrix { .. } => 15,
                Reply::Ok => 16,
                Reply::Pong => 17,
                Reply::Err(_) => 18,
                Reply::InvokeEdges { .. } => 19,
            };
            seen.insert(tag);
            let msg = Message::Reply {
                req_id: 1,
                route: vec![],
                body,
            };
            let bytes = encode(&msg, None);
            assert_eq!(bytes[TAG_AT], tag, "{msg:?}");
            assert_eq!(Message::decode(bytes).unwrap().0, msg);
            for retired in [1, 7] {
                assert!(patched(&msg, TAG_AT, retired).is_err(), "{msg:?}");
            }
            // A move state's own tag follows the reply's.
            if tag == 3 {
                assert!(patched(&msg, TAG_AT + 1, 0).is_err(), "{msg:?}");
            }
        }
        assert_eq!(seen.len(), 18, "every surviving reply tag was checked");
    }

    /// ROADMAP item 5c: a seeded mutation fuzz. Every mutant of every
    /// sample decodes to `Err` or to a message that re-encodes, never
    /// panics, and never asks the allocator for more than a small
    /// multiple of the frame. `ci.sh` sweeps `FARGO_PROTO_FUZZ_SEED`.
    #[test]
    fn mutation_fuzz_never_panics_or_over_allocates() {
        let seed = fuzz_seed();
        let rng = &mut TestRng(seed);
        let [_, full] = stamps();
        let corpus: Vec<Vec<u8>> = samples(true)
            .iter()
            .map(|m| encode(m, full).to_vec())
            .collect();
        let (mut rejected, mut accepted, mut worst) = (0u32, 0u32, 0usize);
        for round in 0..12_000 {
            let mut bytes = corpus[round % corpus.len()].clone();
            mutate(rng, &mut bytes);
            let len = bytes.len();
            let frame = Bytes::from(bytes);
            let (decoded, requested) = requested_during(|| Message::decode(frame));
            worst = worst.max(requested / len.max(1));
            assert!(
                requested <= ALLOC_FACTOR * len + ALLOC_SLACK,
                "round {round}: {requested} bytes requested for a {len}-byte frame"
            );
            match decoded {
                Ok((msg, hlc)) => {
                    // A valid message: it encodes and decodes to itself,
                    // in one piece or as a header around its body.
                    let again = encode(&msg, hlc);
                    assert_eq!(again, encode_in_one(&msg, hlc));
                    assert_eq!(Message::decode(again).unwrap().0, msg);
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        println!("seed {seed}: {rejected} rejected, {accepted} accepted, worst {worst}x");
        assert!(
            rejected > 1_000 && accepted > 1_000,
            "{rejected}/{accepted}"
        );
    }

    /// The size budget of ISSUE 12: the canonical `small-tcp` call.
    #[test]
    fn small_get_fits_its_byte_budget() {
        let hlc = Some(Hlc {
            wall_us: 25_000_000,
            logical: 0,
        });
        let get = Message::Request {
            req_id: 150_000,
            origin: 0,
            acked: 150_000,
            trace: Some(TraceContext {
                trace_id: 300_000,
                span_id: 300_001,
            }),
            body: Request::Invoke {
                target: CompletId::new(1, 33),
                method: "get".into(),
                args: vec![Value::from("key-00042")],
                chain: vec![],
                path: vec![0],
            },
        };
        let request_len = encode(&get, hlc).len();
        assert!(request_len <= 56, "get request is {request_len} bytes");

        let value = Value::Bytes(vec![7; 64]);
        let value_len = fargo_wire::encode_value(&value).len();
        let ok = Message::Reply {
            req_id: 150_000,
            route: vec![],
            body: Reply::InvokeOk {
                value,
                final_location: 1,
                target: CompletId::new(1, 33),
                epoch: 0,
            },
        };
        let reply_len = encode(&ok, hlc).len();
        assert!(
            reply_len <= value_len + 26,
            "reply is {reply_len} bytes for a {value_len}-byte value"
        );
    }
}
