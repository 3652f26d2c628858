//! The wire codec: one field walk per message.
//!
//! Every [`Msg`] variant is written by exactly one arm of `put_msg` and
//! read by exactly one arm of `get_msg`. The write walk is generic over a
//! [`Sink`], and the three sinks give the three things that must never
//! disagree about a message:
//!
//! * the output buffer — the bytes ([`encode`], [`encode_envelope_with`]);
//! * a byte counter — the exact size without allocating ([`encoded_len`],
//!   [`envelope_len_with`]), which the simulated and threaded networks
//!   charge for bandwidth;
//! * [`Metadata`] — the same walk with tag, key and value bytes skipped
//!   and timestamps counted ([`metadata`]): the dependency-tracking cost
//!   the paper's Table I compares across systems, measured rather than
//!   modelled.
//!
//! Adding a field to a message touches its two arms and nothing else.
//!
//! # Format
//!
//! Lengths, counts, sequence numbers, keys and ids are LEB128 varints
//! ([`varint`]); a timestamp is two of them (48-bit physical part, 16-bit
//! logical part), so the zero-heavy stamps of background traffic cost 2–7
//! bytes instead of a fixed 8. A message is its tag byte followed by its
//! fields; an envelope frame is the [`FRAME_V2`] marker, both endpoints,
//! then the message. Protocol version 3 added the start forms of
//! `ReadReq` / `CommitReq` and of their replies under tags of their own,
//! version 4 the one-phase `CommitOne`, and version 5 its last-agent form
//! (`coordinator_share` set) under a tag of its own. Version 6 dropped the
//! reply address of `ReadSliceReq` and `PrepareReq`: a cohort answers the
//! envelope's source, which for a slice read may be the client. Version 7
//! retired the heartbeat, tree-report, root-GST and UST-broadcast tags
//! (13–16): that traffic travels as an empty `Replicate` and one-entry
//! `GossipDigest`s. Version 8 added the picked forms of `ReadReq` /
//! `CommitReq` (the snapshot the client picked and a call number where the
//! id would be), of `CommitOne`, and of the replies to them (the answering
//! server's UST and the call echoed) under tags of their own (30–37).
//! Every other frame is the v2 one, byte for byte.
//!
//! Decoding reads through a borrowed cursor over the frame (`&mut &[u8]`,
//! each `get_*` advancing it past what it consumed) and is strict: a frame
//! decodes only if every byte of it is accounted for, every varint is in
//! its shortest form and fits its field, and every discriminant byte is a
//! known one. Whatever the input, decoding returns a [`DecodeError`]
//! instead of panicking, and no declared length is trusted for allocation
//! beyond what the frame can hold.

use bytes::{BufMut, Bytes, BytesMut};
use paris_types::{
    ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, Version, VersionStamp,
    WireFormat, WriteSetEntry,
};

use crate::messages::{
    DigestReport, Endpoint, Envelope, Msg, Opening, ReadKey, ReadOutcome, ReadResult, ReplicatedTx,
    TxRef,
};
use crate::varint;

/// Connection-preamble magic: every PaRiS socket connection opens with
/// these four bytes, so a stray client speaking another protocol is
/// rejected before any frame is parsed.
pub const MAGIC: [u8; 4] = *b"PaRS";

/// The wire protocol version this build speaks, advertised in the
/// connection preamble right after [`MAGIC`]. A peer advertising any other
/// version is refused instead of misparsing frames.
pub const PROTOCOL_VERSION: u16 = 8;

/// First byte of every envelope frame.
pub const FRAME_V2: u8 = 0xF2;

/// Upper bound on the payload length of one framed wire message.
///
/// Enforced *before* any allocation on the receive path, so a malicious or
/// corrupt length prefix can neither trigger an OOM-sized allocation nor a
/// multi-gigabyte read loop. Generous enough for the largest legitimate
/// frame (a full store snapshot in a control reply).
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown message tag or discriminant byte was encountered.
    UnknownTag(u8),
    /// A length, count or field width the frame cannot hold — or bytes
    /// left over after a complete message.
    BadLength,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadLength => write!(f, "length prefix exceeds buffer"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ------------------------------------------------------------------ sinks

/// Where a field walk writes. The walk itself (`put_msg` and the
/// `put_*` functions) never branches on which sink it serves.
pub trait Sink {
    /// A message's tag byte: neither metadata nor payload.
    fn tag(&mut self, tag: u8) {
        self.u8(tag);
    }
    /// A discriminant byte inside a frame (option, read outcome, endpoint
    /// kind, frame marker).
    fn u8(&mut self, v: u8);
    /// A length, count, id or sequence number.
    fn varint(&mut self, v: u64);
    /// A timestamp: physical and logical part as two varints.
    fn timestamp(&mut self, ts: Timestamp) {
        self.varint(ts.physical_micros());
        self.varint(u64::from(ts.logical()));
    }
    /// A user key.
    fn key(&mut self, k: Key) {
        self.varint(k.0);
    }
    /// A user value: length prefix and bytes.
    fn value(&mut self, v: &Value);
}

/// The output buffer.
impl Sink for BytesMut {
    fn u8(&mut self, v: u8) {
        self.put_u8(v);
    }
    fn varint(&mut self, v: u64) {
        varint::put(self, v);
    }
    fn value(&mut self, v: &Value) {
        varint::put(self, v.len() as u64);
        self.put_slice(v.as_bytes());
    }
}

/// Counts the bytes the output buffer would receive.
struct Count(usize);

impl Sink for Count {
    fn u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn varint(&mut self, v: u64) {
        self.0 += varint::len(v);
    }
    fn value(&mut self, v: &Value) {
        self.0 += varint::len(v.len() as u64) + v.len();
    }
}

/// What a message spends on dependency tracking: every byte that is not
/// the message tag, a user key or a user value (length prefix included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metadata {
    /// Metadata bytes as shipped.
    pub bytes: usize,
    /// Whole timestamps among them — the unit the paper's Table I counts
    /// in. (A held-version stamp's delta-coded update time is counted in
    /// `bytes` only.)
    pub timestamps: usize,
}

impl Sink for Metadata {
    fn tag(&mut self, _: u8) {}
    fn u8(&mut self, _: u8) {
        self.bytes += 1;
    }
    fn varint(&mut self, v: u64) {
        self.bytes += varint::len(v);
    }
    fn timestamp(&mut self, ts: Timestamp) {
        self.timestamps += 1;
        self.varint(ts.physical_micros());
        self.varint(u64::from(ts.logical()));
    }
    fn key(&mut self, _: Key) {}
    fn value(&mut self, _: &Value) {}
}

// ----------------------------------------------------------------- fields

pub(crate) fn get_u8(r: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&byte, rest) = r.split_first().ok_or(DecodeError::Truncated)?;
    *r = rest;
    Ok(byte)
}

/// Succeeds only when the cursor has consumed its whole frame.
pub(crate) fn finish(r: &[u8]) -> Result<(), DecodeError> {
    r.is_empty().then_some(()).ok_or(DecodeError::BadLength)
}

pub(crate) fn get_ts(r: &mut &[u8]) -> Result<Timestamp, DecodeError> {
    let physical = varint::get(r)?;
    // The physical part is 48 bits wide; anything larger cannot have
    // been produced by the encoder.
    if physical >= 1 << 48 {
        return Err(DecodeError::BadLength);
    }
    Ok(Timestamp::from_parts(physical, varint::get_u16(r)?))
}

pub(crate) fn put_dc<S: Sink>(s: &mut S, dc: DcId) {
    s.varint(u64::from(dc.0));
}

pub(crate) fn get_dc(r: &mut &[u8]) -> Result<DcId, DecodeError> {
    Ok(DcId(varint::get_u16(r)?))
}

fn put_partition<S: Sink>(s: &mut S, p: PartitionId) {
    s.varint(u64::from(p.0));
}

fn get_partition(r: &mut &[u8]) -> Result<PartitionId, DecodeError> {
    Ok(PartitionId(varint::get_u32(r)?))
}

pub(crate) fn put_server<S: Sink>(s: &mut S, server: ServerId) {
    put_dc(s, server.dc);
    put_partition(s, server.partition);
}

pub(crate) fn get_server(r: &mut &[u8]) -> Result<ServerId, DecodeError> {
    Ok(ServerId::new(get_dc(r)?, get_partition(r)?))
}

pub(crate) fn put_tx<S: Sink>(s: &mut S, tx: TxId) {
    put_dc(s, tx.dc);
    put_partition(s, tx.partition);
    s.varint(tx.seq);
}

pub(crate) fn get_tx(r: &mut &[u8]) -> Result<TxId, DecodeError> {
    Ok(TxId {
        dc: get_dc(r)?,
        partition: get_partition(r)?,
        seq: varint::get(r)?,
    })
}

pub(crate) fn get_key(r: &mut &[u8]) -> Result<Key, DecodeError> {
    Ok(Key(varint::get(r)?))
}

fn get_len(r: &mut &[u8]) -> Result<usize, DecodeError> {
    usize::try_from(varint::get(r)?).map_err(|_| DecodeError::BadLength)
}

fn get_value(r: &mut &[u8]) -> Result<Value, DecodeError> {
    let len = get_len(r)?;
    if r.len() < len {
        return Err(DecodeError::BadLength);
    }
    let (bytes, rest) = r.split_at(len);
    *r = rest;
    Ok(Value(bytes.to_vec()))
}

/// Writes a count and then every item.
pub(crate) fn put_vec<S: Sink, T>(s: &mut S, items: &[T], put: impl Fn(&mut S, &T)) {
    s.varint(items.len() as u64);
    for item in items {
        put(s, item);
    }
}

/// Reads a count and then that many items. The count is not trusted for
/// allocation: a forged one runs out of frame long before it runs out of
/// memory.
pub(crate) fn get_vec<T>(
    r: &mut &[u8],
    get: impl Fn(&mut &[u8]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = get_len(r)?;
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(get(r)?);
    }
    Ok(items)
}

/// Writes an option byte (0 or 1) and then the value, if any.
pub(crate) fn put_opt<S: Sink, T>(s: &mut S, v: &Option<T>, put: impl FnOnce(&mut S, &T)) {
    match v {
        None => s.u8(0),
        Some(v) => {
            s.u8(1);
            put(s, v);
        }
    }
}

/// Reads an option written by [`put_opt`].
pub(crate) fn get_opt<T>(
    r: &mut &[u8],
    get: impl FnOnce(&mut &[u8]) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match get_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(get(r)?)),
        other => Err(DecodeError::UnknownTag(other)),
    }
}

/// A version's fields after its key: a read result already names the key.
fn put_version_body<S: Sink>(s: &mut S, v: &Version) {
    s.value(&v.value);
    s.timestamp(v.ut);
    put_tx(s, v.tx);
    put_dc(s, v.src);
}

fn get_version_body(r: &mut &[u8], key: Key) -> Result<Version, DecodeError> {
    Ok(Version {
        key,
        value: get_value(r)?,
        ut: get_ts(r)?,
        tx: get_tx(r)?,
        src: get_dc(r)?,
    })
}

/// Writes a whole version, key first (the body of a WAL record).
pub fn put_version<S: Sink>(s: &mut S, v: &Version) {
    s.key(v.key);
    put_version_body(s, v);
}

/// Decodes exactly one version written by [`put_version`]; malformed,
/// truncated or trailing bytes are a [`DecodeError`], as for [`decode`].
pub fn decode_version(bytes: &[u8]) -> Result<Version, DecodeError> {
    let r = &mut &*bytes;
    let key = get_key(r)?;
    let version = get_version_body(r, key)?;
    finish(r)?;
    Ok(version)
}

fn put_write<S: Sink>(s: &mut S, w: &WriteSetEntry) {
    s.key(w.key);
    s.value(&w.value);
}

fn get_write(r: &mut &[u8]) -> Result<WriteSetEntry, DecodeError> {
    Ok(WriteSetEntry {
        key: get_key(r)?,
        value: get_value(r)?,
    })
}

// Read-result outcome byte: the third value tells the client the version
// it stamped is still the visible one.
const R_ABSENT: u8 = 0;
const R_FOUND: u8 = 1;
const R_UNCHANGED: u8 = 2;

fn put_read_result<S: Sink>(s: &mut S, r: &ReadResult) {
    s.key(r.key);
    match &r.outcome {
        ReadOutcome::Absent => s.u8(R_ABSENT),
        ReadOutcome::Found(v) => {
            debug_assert_eq!(v.key, r.key, "a found version belongs to its result's key");
            s.u8(R_FOUND);
            put_version_body(s, v);
        }
        ReadOutcome::Unchanged => s.u8(R_UNCHANGED),
    }
}

fn get_read_result(r: &mut &[u8]) -> Result<ReadResult, DecodeError> {
    let key = get_key(r)?;
    let outcome = match get_u8(r)? {
        R_ABSENT => ReadOutcome::Absent,
        R_FOUND => ReadOutcome::Found(get_version_body(r, key)?),
        R_UNCHANGED => ReadOutcome::Unchanged,
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(ReadResult { key, outcome })
}

/// True when any key carries a held-version stamp: such a request ships
/// under its stamped tag, every other one in the stamp-free layout —
/// validation costs nothing until a client has something to validate.
fn any_held(keys: &[ReadKey]) -> bool {
    keys.iter().any(|k| k.held.is_some())
}

/// A request's transaction: its id, or — in a start form — the client's
/// `ust_c`, or — in a picked form — the snapshot the client picked and the
/// request's call. The tag says which.
fn put_tx_ref<S: Sink>(s: &mut S, tx: TxRef) {
    match tx {
        TxRef::Known(tx) => put_tx(s, tx),
        TxRef::Start { client_ust } => s.timestamp(client_ust),
        TxRef::Picked { snapshot, call } => {
            s.timestamp(snapshot);
            s.varint(call);
        }
    }
}

/// The three forms of a client request, and of the replies to it, each
/// under tags of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    Known,
    Start,
    Picked,
}

impl Form {
    fn of(tx: TxRef) -> Form {
        match tx {
            TxRef::Known(_) => Form::Known,
            TxRef::Start { .. } => Form::Start,
            TxRef::Picked { .. } => Form::Picked,
        }
    }

    /// The form of the request a reply naming `opening` answers.
    fn of_reply(opening: Option<Opening>) -> Form {
        match opening {
            None => Form::Known,
            Some(Opening::Start { .. }) => Form::Start,
            Some(Opening::Picked { .. }) => Form::Picked,
        }
    }

    /// This form's tag out of a message's three.
    fn tag(self, [known, start, picked]: [u8; 3]) -> u8 {
        match self {
            Form::Known => known,
            Form::Start => start,
            Form::Picked => picked,
        }
    }
}

fn get_tx_ref(r: &mut &[u8], form: Form) -> Result<TxRef, DecodeError> {
    Ok(match form {
        Form::Known => TxRef::Known(get_tx(r)?),
        Form::Start => TxRef::Start {
            client_ust: get_ts(r)?,
        },
        Form::Picked => TxRef::Picked {
            snapshot: get_ts(r)?,
            call: varint::get(r)?,
        },
    })
}

/// What a request's stamps are delta-coded against. No snapshot travels
/// in a plain client request, so its first stamp ships absolute, while a
/// start or picked form's stamps sit around the timestamp it carries.
fn stamp_base(tx: TxRef) -> Timestamp {
    match tx {
        TxRef::Known(_) => Timestamp::ZERO,
        TxRef::Start { client_ust } => client_ust,
        TxRef::Picked { snapshot, .. } => snapshot,
    }
}

/// A reply's opening, absent in the plain form (its tag says which).
fn put_opening<S: Sink>(s: &mut S, opening: Option<Opening>) {
    match opening {
        None => {}
        Some(Opening::Start { snapshot }) => s.timestamp(snapshot),
        Some(Opening::Picked { ust, call }) => {
            s.timestamp(ust);
            s.varint(call);
        }
    }
}

fn get_opening(r: &mut &[u8], form: Form) -> Result<Option<Opening>, DecodeError> {
    Ok(match form {
        Form::Known => None,
        Form::Start => Some(Opening::Start {
            snapshot: get_ts(r)?,
        }),
        Form::Picked => Some(Opening::Picked {
            ust: get_ts(r)?,
            call: varint::get(r)?,
        }),
    })
}

/// A request's key list: the plain list, followed — under the request's
/// stamped tag only — by the stamps. Those are sparse: each ships as the
/// gap to its key's index plus the held version's identity, so a request
/// pays for the stamps it carries, not for the keys it does not stamp. A
/// stamp's physical time ships as a zigzag-folded delta against the
/// previous stamp's — the first against `base`, the snapshot where the
/// message carries one — because held versions sit just below the
/// snapshot while absolute wall-clock micros cost seven bytes.
fn put_keys<S: Sink>(s: &mut S, keys: &[ReadKey], base: Timestamp) {
    put_vec(s, keys, |s, k| s.key(k.key));
    if !any_held(keys) {
        return;
    }
    s.varint(keys.iter().filter(|k| k.held.is_some()).count() as u64);
    let mut next = 0;
    let mut prev = base.physical_micros();
    for (index, k) in keys.iter().enumerate() {
        let Some(stamp) = k.held else { continue };
        s.varint((index - next) as u64);
        next = index + 1;
        let physical = stamp.ut.physical_micros();
        // Both are 48-bit, so the difference always fits `i64`.
        let delta = physical as i64 - prev as i64;
        s.varint(((delta << 1) ^ (delta >> 63)) as u64);
        s.varint(u64::from(stamp.ut.logical()));
        put_tx(s, stamp.tx);
        prev = physical;
    }
}

fn get_keys(r: &mut &[u8], stamped: bool, base: Timestamp) -> Result<Vec<ReadKey>, DecodeError> {
    let mut keys = get_vec(r, |r| get_key(r).map(ReadKey::from))?;
    if !stamped {
        return Ok(keys);
    }
    let mut next: usize = 0;
    let mut prev = base.physical_micros();
    for _ in 0..get_len(r)? {
        // Gaps make the indices strictly increasing; they must also stay
        // inside the key list.
        let index = next
            .checked_add(get_len(r)?)
            .filter(|i| *i < keys.len())
            .ok_or(DecodeError::BadLength)?;
        next = index + 1;
        let folded = varint::get(r)?;
        let delta = (folded >> 1) as i64 ^ -((folded & 1) as i64);
        // Off the encoder the sum is a 48-bit physical time.
        let physical = prev
            .checked_add_signed(delta)
            .filter(|p| *p < 1 << 48)
            .ok_or(DecodeError::BadLength)?;
        prev = physical;
        keys[index].held = Some(VersionStamp {
            ut: Timestamp::from_parts(physical, varint::get_u16(r)?),
            tx: get_tx(r)?,
        });
    }
    Ok(keys)
}

fn put_replicated_tx<S: Sink>(s: &mut S, t: &ReplicatedTx) {
    put_tx(s, t.tx);
    s.timestamp(t.ct);
    put_dc(s, t.src);
    put_vec(s, &t.writes, put_write);
}

fn get_replicated_tx(r: &mut &[u8]) -> Result<ReplicatedTx, DecodeError> {
    Ok(ReplicatedTx {
        tx: get_tx(r)?,
        ct: get_ts(r)?,
        src: get_dc(r)?,
        writes: get_vec(r, get_write)?,
    })
}

fn put_min<S: Sink>(s: &mut S, (dc, ts): &(DcId, Timestamp)) {
    put_dc(s, *dc);
    s.timestamp(*ts);
}

fn get_min(r: &mut &[u8]) -> Result<(DcId, Timestamp), DecodeError> {
    Ok((get_dc(r)?, get_ts(r)?))
}

fn put_digest_report<S: Sink>(s: &mut S, report: &DigestReport) {
    put_partition(s, report.partition);
    s.timestamp(report.oldest_active);
    put_vec(s, &report.mins, put_min);
}

fn get_digest_report(r: &mut &[u8]) -> Result<DigestReport, DecodeError> {
    Ok(DigestReport {
        partition: get_partition(r)?,
        oldest_active: get_ts(r)?,
        mins: get_vec(r, get_min)?,
    })
}

// Endpoint kinds.
const E_SERVER: u8 = 0;
const E_CLIENT: u8 = 1;

fn put_endpoint<S: Sink>(s: &mut S, ep: Endpoint) {
    match ep {
        Endpoint::Server(server) => {
            s.u8(E_SERVER);
            put_server(s, server);
        }
        Endpoint::Client(c) => {
            s.u8(E_CLIENT);
            put_dc(s, c.dc);
            s.varint(u64::from(c.seq));
        }
    }
}

fn get_endpoint(r: &mut &[u8]) -> Result<Endpoint, DecodeError> {
    match get_u8(r)? {
        E_SERVER => Ok(Endpoint::Server(get_server(r)?)),
        E_CLIENT => Ok(Endpoint::Client(ClientId::new(
            get_dc(r)?,
            varint::get_u32(r)?,
        ))),
        other => Err(DecodeError::UnknownTag(other)),
    }
}

// --------------------------------------------------------------- messages

const T_START_REQ: u8 = 1;
const T_START_RESP: u8 = 2;
const T_READ_REQ: u8 = 3;
const T_READ_RESP: u8 = 4;
const T_COMMIT_REQ: u8 = 5;
const T_COMMIT_RESP: u8 = 6;
const T_READ_SLICE_REQ: u8 = 7;
const T_READ_SLICE_RESP: u8 = 8;
const T_PREPARE_REQ: u8 = 9;
const T_PREPARE_RESP: u8 = 10;
const T_COMMIT_TX: u8 = 11;
const T_REPLICATE: u8 = 12;
// 13–16 (heartbeat, tree report, root GST, UST broadcast) are retired by
// version 7 and never reused: an old peer's frame under one fails to
// decode instead of misparsing.
const T_OP_FAILED: u8 = 17;
const T_REPLICATE_BATCH: u8 = 18;
const T_GOSSIP_DIGEST: u8 = 19;
// The read requests again, with per-key held-version stamps. Tags of their
// own keep the stamp-free frames free of any stamp bytes.
const T_READ_REQ_STAMPED: u8 = 20;
const T_READ_SLICE_REQ_STAMPED: u8 = 21;
// The start forms (`TxRef::Start`) of the client requests, and the replies
// to them, which name the assigned snapshot. Tags of their own keep every
// earlier frame byte-identical.
const T_READ_REQ_START: u8 = 22;
const T_READ_REQ_START_STAMPED: u8 = 23;
const T_READ_RESP_START: u8 = 24;
const T_COMMIT_REQ_START: u8 = 25;
const T_COMMIT_RESP_START: u8 = 26;
const T_OP_FAILED_START: u8 = 27;
// The one-phase commit of a single-partition write set, and its last-agent
// form (the coordinator holds the rest of the write set prepared): the same
// fields, so the plain frame stays byte-identical.
const T_COMMIT_ONE: u8 = 28;
const T_COMMIT_ONE_SHARE: u8 = 29;
// The picked forms (`TxRef::Picked`) of the client requests, the one-phase
// commits of a picked transaction, and the replies to them, which name the
// answering server's UST and echo the request's call: the plain fields
// plus those, under tags of their own.
const T_READ_REQ_PICKED: u8 = 30;
const T_READ_REQ_PICKED_STAMPED: u8 = 31;
const T_COMMIT_REQ_PICKED: u8 = 32;
const T_COMMIT_ONE_PICKED: u8 = 33;
const T_COMMIT_ONE_SHARE_PICKED: u8 = 34;
const T_READ_RESP_PICKED: u8 = 35;
const T_COMMIT_RESP_PICKED: u8 = 36;
const T_OP_FAILED_PICKED: u8 = 37;

// Each message with forms: its plain, start and picked tag.
const READ_REQ: [u8; 3] = [T_READ_REQ, T_READ_REQ_START, T_READ_REQ_PICKED];
const READ_REQ_STAMPED: [u8; 3] = [
    T_READ_REQ_STAMPED,
    T_READ_REQ_START_STAMPED,
    T_READ_REQ_PICKED_STAMPED,
];
const COMMIT_REQ: [u8; 3] = [T_COMMIT_REQ, T_COMMIT_REQ_START, T_COMMIT_REQ_PICKED];
const READ_RESP: [u8; 3] = [T_READ_RESP, T_READ_RESP_START, T_READ_RESP_PICKED];
const COMMIT_RESP: [u8; 3] = [T_COMMIT_RESP, T_COMMIT_RESP_START, T_COMMIT_RESP_PICKED];
const OP_FAILED: [u8; 3] = [T_OP_FAILED, T_OP_FAILED_START, T_OP_FAILED_PICKED];

/// The form a tag names, out of its message's three.
fn form_of_tag(tag: u8) -> Form {
    let tags = [
        READ_REQ,
        READ_REQ_STAMPED,
        COMMIT_REQ,
        READ_RESP,
        COMMIT_RESP,
        OP_FAILED,
    ];
    if tags.iter().any(|[_, start, _]| *start == tag) {
        Form::Start
    } else if tags.iter().any(|[_, _, picked]| *picked == tag) {
        Form::Picked
    } else {
        Form::Known
    }
}

/// Walks a message into a sink: its tag, then its fields.
fn put_msg<S: Sink>(s: &mut S, msg: &Msg) {
    match msg {
        Msg::StartTxReq { client_ust } => {
            s.tag(T_START_REQ);
            s.timestamp(*client_ust);
        }
        Msg::StartTxResp { tx, snapshot } => {
            s.tag(T_START_RESP);
            put_tx(s, *tx);
            s.timestamp(*snapshot);
        }
        Msg::ReadReq { tx, keys } => {
            s.tag(Form::of(*tx).tag(if any_held(keys) {
                READ_REQ_STAMPED
            } else {
                READ_REQ
            }));
            put_tx_ref(s, *tx);
            put_keys(s, keys, stamp_base(*tx));
        }
        Msg::ReadResp {
            tx,
            opening,
            results,
        } => {
            s.tag(Form::of_reply(*opening).tag(READ_RESP));
            put_tx(s, *tx);
            put_opening(s, *opening);
            put_vec(s, results, put_read_result);
        }
        Msg::CommitReq { tx, hwt, writes } => {
            s.tag(Form::of(*tx).tag(COMMIT_REQ));
            put_tx_ref(s, *tx);
            s.timestamp(*hwt);
            put_vec(s, writes, put_write);
        }
        Msg::CommitResp { tx, opening, ct } => {
            s.tag(Form::of_reply(*opening).tag(COMMIT_RESP));
            put_tx(s, *tx);
            put_opening(s, *opening);
            s.timestamp(*ct);
        }
        Msg::ReadSliceReq { tx, snapshot, keys } => {
            s.tag(if any_held(keys) {
                T_READ_SLICE_REQ_STAMPED
            } else {
                T_READ_SLICE_REQ
            });
            put_tx(s, *tx);
            s.timestamp(*snapshot);
            put_keys(s, keys, *snapshot);
        }
        Msg::ReadSliceResp {
            tx,
            partition,
            results,
        } => {
            s.tag(T_READ_SLICE_RESP);
            put_tx(s, *tx);
            put_partition(s, *partition);
            put_vec(s, results, put_read_result);
        }
        Msg::PrepareReq {
            tx,
            snapshot,
            ht,
            writes,
            src_dc,
        } => {
            s.tag(T_PREPARE_REQ);
            put_tx(s, *tx);
            s.timestamp(*snapshot);
            s.timestamp(*ht);
            put_dc(s, *src_dc);
            put_vec(s, writes, put_write);
        }
        Msg::PrepareResp {
            tx,
            partition,
            proposed,
        } => {
            s.tag(T_PREPARE_RESP);
            put_tx(s, *tx);
            put_partition(s, *partition);
            s.timestamp(*proposed);
        }
        Msg::CommitTx { tx, ct } => {
            s.tag(T_COMMIT_TX);
            put_tx(s, *tx);
            s.timestamp(*ct);
        }
        Msg::CommitOne {
            tx,
            ht,
            writes,
            src_dc,
            client,
            coordinator_share,
            picked,
        } => {
            s.tag(match (*coordinator_share, picked.is_some()) {
                (false, false) => T_COMMIT_ONE,
                (true, false) => T_COMMIT_ONE_SHARE,
                (false, true) => T_COMMIT_ONE_PICKED,
                (true, true) => T_COMMIT_ONE_SHARE_PICKED,
            });
            put_tx(s, *tx);
            s.timestamp(*ht);
            put_dc(s, client.dc);
            s.varint(u64::from(client.seq));
            put_dc(s, *src_dc);
            if let Some(call) = picked {
                s.varint(*call);
            }
            put_vec(s, writes, put_write);
        }
        Msg::Replicate {
            partition,
            txs,
            watermark,
        } => {
            s.tag(T_REPLICATE);
            put_partition(s, *partition);
            s.timestamp(*watermark);
            put_vec(s, txs, put_replicated_tx);
        }
        Msg::ReplicateBatch {
            partition,
            txs,
            watermark,
            frames,
        } => {
            s.tag(T_REPLICATE_BATCH);
            put_partition(s, *partition);
            s.timestamp(*watermark);
            s.varint(u64::from(*frames));
            put_vec(s, txs, put_replicated_tx);
        }
        Msg::GossipDigest {
            reports,
            roots,
            ust,
            frames,
        } => {
            s.tag(T_GOSSIP_DIGEST);
            s.varint(u64::from(*frames));
            put_vec(s, reports, put_digest_report);
            put_vec(s, roots, |s, (dc, gst, oldest)| {
                put_dc(s, *dc);
                s.timestamp(*gst);
                s.timestamp(*oldest);
            });
            put_opt(s, ust, |s, (ust, s_old)| {
                s.timestamp(*ust);
                s.timestamp(*s_old);
            });
        }
        Msg::OpFailed { tx, opening } => {
            s.tag(Form::of_reply(*opening).tag(OP_FAILED));
            put_tx(s, *tx);
            put_opening(s, *opening);
        }
    }
}

fn get_msg(r: &mut &[u8]) -> Result<Msg, DecodeError> {
    let tag = get_u8(r)?;
    // Struct fields are evaluated in the order they are written here,
    // which is wire order — the same order as the arm in `put_msg`.
    Ok(match tag {
        T_START_REQ => Msg::StartTxReq {
            client_ust: get_ts(r)?,
        },
        T_START_RESP => Msg::StartTxResp {
            tx: get_tx(r)?,
            snapshot: get_ts(r)?,
        },
        T_READ_REQ
        | T_READ_REQ_STAMPED
        | T_READ_REQ_START
        | T_READ_REQ_START_STAMPED
        | T_READ_REQ_PICKED
        | T_READ_REQ_PICKED_STAMPED => {
            let stamped = READ_REQ_STAMPED.contains(&tag);
            let tx = get_tx_ref(r, form_of_tag(tag))?;
            Msg::ReadReq {
                tx,
                keys: get_keys(r, stamped, stamp_base(tx))?,
            }
        }
        T_READ_RESP | T_READ_RESP_START | T_READ_RESP_PICKED => Msg::ReadResp {
            tx: get_tx(r)?,
            opening: get_opening(r, form_of_tag(tag))?,
            results: get_vec(r, get_read_result)?,
        },
        T_COMMIT_REQ | T_COMMIT_REQ_START | T_COMMIT_REQ_PICKED => Msg::CommitReq {
            tx: get_tx_ref(r, form_of_tag(tag))?,
            hwt: get_ts(r)?,
            writes: get_vec(r, get_write)?,
        },
        T_COMMIT_RESP | T_COMMIT_RESP_START | T_COMMIT_RESP_PICKED => Msg::CommitResp {
            tx: get_tx(r)?,
            opening: get_opening(r, form_of_tag(tag))?,
            ct: get_ts(r)?,
        },
        T_READ_SLICE_REQ | T_READ_SLICE_REQ_STAMPED => {
            let tx = get_tx(r)?;
            let snapshot = get_ts(r)?;
            Msg::ReadSliceReq {
                tx,
                snapshot,
                keys: get_keys(r, tag == T_READ_SLICE_REQ_STAMPED, snapshot)?,
            }
        }
        T_READ_SLICE_RESP => Msg::ReadSliceResp {
            tx: get_tx(r)?,
            partition: get_partition(r)?,
            results: get_vec(r, get_read_result)?,
        },
        T_PREPARE_REQ => Msg::PrepareReq {
            tx: get_tx(r)?,
            snapshot: get_ts(r)?,
            ht: get_ts(r)?,
            src_dc: get_dc(r)?,
            writes: get_vec(r, get_write)?,
        },
        T_PREPARE_RESP => Msg::PrepareResp {
            tx: get_tx(r)?,
            partition: get_partition(r)?,
            proposed: get_ts(r)?,
        },
        T_COMMIT_TX => Msg::CommitTx {
            tx: get_tx(r)?,
            ct: get_ts(r)?,
        },
        T_COMMIT_ONE | T_COMMIT_ONE_SHARE | T_COMMIT_ONE_PICKED | T_COMMIT_ONE_SHARE_PICKED => {
            Msg::CommitOne {
                tx: get_tx(r)?,
                ht: get_ts(r)?,
                client: ClientId::new(get_dc(r)?, varint::get_u32(r)?),
                src_dc: get_dc(r)?,
                coordinator_share: matches!(tag, T_COMMIT_ONE_SHARE | T_COMMIT_ONE_SHARE_PICKED),
                picked: matches!(tag, T_COMMIT_ONE_PICKED | T_COMMIT_ONE_SHARE_PICKED)
                    .then(|| varint::get(r))
                    .transpose()?,
                writes: get_vec(r, get_write)?,
            }
        }
        T_REPLICATE => Msg::Replicate {
            partition: get_partition(r)?,
            watermark: get_ts(r)?,
            txs: get_vec(r, get_replicated_tx)?,
        },
        T_REPLICATE_BATCH => Msg::ReplicateBatch {
            partition: get_partition(r)?,
            watermark: get_ts(r)?,
            frames: varint::get_u32(r)?,
            txs: get_vec(r, get_replicated_tx)?,
        },
        T_GOSSIP_DIGEST => Msg::GossipDigest {
            frames: varint::get_u32(r)?,
            reports: get_vec(r, get_digest_report)?,
            roots: get_vec(r, |r| Ok((get_dc(r)?, get_ts(r)?, get_ts(r)?)))?,
            ust: get_opt(r, |r| Ok((get_ts(r)?, get_ts(r)?)))?,
        },
        T_OP_FAILED | T_OP_FAILED_START | T_OP_FAILED_PICKED => Msg::OpFailed {
            tx: get_tx(r)?,
            opening: get_opening(r, form_of_tag(tag))?,
        },
        other => return Err(DecodeError::UnknownTag(other)),
    })
}

/// Encodes a message.
pub fn encode(msg: &Msg) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    put_msg(&mut buf, msg);
    buf.freeze()
}

/// Decodes a message.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the bytes are truncated, carry an
/// unknown tag, declare impossible lengths or field widths, or continue
/// past the end of the message.
pub fn decode(bytes: &[u8]) -> Result<Msg, DecodeError> {
    let mut r = bytes;
    let msg = get_msg(&mut r)?;
    finish(r)?;
    Ok(msg)
}

/// Exact encoded size of a message, without allocating.
///
/// The simulated and threaded networks charge this for bandwidth.
pub fn encoded_len(msg: &Msg) -> usize {
    let mut count = Count(0);
    put_msg(&mut count, msg);
    count.0
}

/// The dependency-tracking cost of a message (see [`Metadata`]).
pub fn metadata(msg: &Msg) -> Metadata {
    let mut metadata = Metadata::default();
    put_msg(&mut metadata, msg);
    metadata
}

// -------------------------------------------------------------- envelopes

fn put_envelope<S: Sink>(s: &mut S, env: &Envelope) {
    s.u8(FRAME_V2);
    put_endpoint(s, env.src);
    put_endpoint(s, env.dst);
    put_msg(s, &env.msg);
}

/// Encodes a full envelope — marker, source, destination and message — as
/// one frame payload, in one exactly-sized buffer. This is what the socket
/// transport ships: endpoints ride along so the receiving process can
/// route replies without any transport-level correlation state.
pub fn encode_envelope_with(env: &Envelope, wire: WireFormat) -> Bytes {
    let mut buf = BytesMut::with_capacity(envelope_len_with(env, wire));
    put_envelope(&mut buf, env);
    buf.freeze()
}

/// Exact frame-payload size of an envelope, without allocating.
pub fn envelope_len_with(env: &Envelope, wire: WireFormat) -> usize {
    let WireFormat::V2 = wire;
    let mut count = Count(0);
    put_envelope(&mut count, env);
    count.0
}

/// Decodes an envelope frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated frames, a first byte other
/// than [`FRAME_V2`], unknown endpoint or message tags, impossible
/// lengths, or trailing bytes — never panics, whatever the input.
pub fn decode_envelope_auto(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    let mut r = bytes;
    let marker = get_u8(&mut r)?;
    if marker != FRAME_V2 {
        return Err(DecodeError::UnknownTag(marker));
    }
    let env = Envelope {
        src: get_endpoint(&mut r)?,
        dst: get_endpoint(&mut r)?,
        msg: get_msg(&mut r)?,
    };
    finish(r)?;
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::DecodeError::{BadLength, UnknownTag};
    use super::*;
    use proptest::prelude::*;

    fn tx(dc: u16, p: u32, seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(dc), PartitionId(p)), seq)
    }

    fn stamped(key: u64, stamp: VersionStamp) -> ReadKey {
        ReadKey {
            key: Key(key),
            held: Some(stamp),
        }
    }

    fn result(key: u64, outcome: ReadOutcome) -> ReadResult {
        ReadResult {
            key: Key(key),
            outcome,
        }
    }

    fn sample_messages() -> Vec<Msg> {
        golden_messages().into_iter().map(|(m, _)| m).collect()
    }

    fn sample_envelope(msg: Msg) -> Envelope {
        Envelope::new(
            ClientId::new(DcId(0), 1),
            ServerId::new(DcId(1), PartitionId(0)),
            msg,
        )
    }

    /// Key and value bytes of a message as shipped, summed by hand: the
    /// reference the [`Metadata`] sink is checked against.
    fn payload_len(msg: &Msg) -> usize {
        let key = |k: Key| varint::len(k.0);
        let value = |v: &Value| varint::len(v.len() as u64) + v.len();
        let write = |w: &WriteSetEntry| key(w.key) + value(&w.value);
        let result =
            |r: &ReadResult| key(r.key) + r.outcome.version().map_or(0, |v| value(&v.value));
        match msg {
            Msg::ReadReq { keys, .. } | Msg::ReadSliceReq { keys, .. } => {
                keys.iter().map(|k| key(k.key)).sum()
            }
            Msg::ReadResp { results, .. } | Msg::ReadSliceResp { results, .. } => {
                results.iter().map(result).sum()
            }
            Msg::CommitReq { writes, .. }
            | Msg::PrepareReq { writes, .. }
            | Msg::CommitOne { writes, .. } => writes.iter().map(write).sum(),
            Msg::Replicate { txs, .. } | Msg::ReplicateBatch { txs, .. } => {
                txs.iter().flat_map(|t| &t.writes).map(write).sum()
            }
            _ => 0,
        }
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            assert_eq!(decode(&encode(&msg)).as_ref(), Ok(&msg), "{}", msg.kind());
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_message() {
        for msg in sample_messages() {
            let kind = msg.kind();
            assert_eq!(encode(&msg).len(), encoded_len(&msg), "{kind} length");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(decode(&[200u8]), Err(UnknownTag(200)));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        for msg in sample_messages() {
            let (bytes, kind) = (encode(&msg), msg.kind());
            // Every strict prefix must fail, never panic.
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "{kind} prefix {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_messages() {
            let (mut bytes, kind) = (encode(&msg).to_vec(), msg.kind());
            bytes.push(0);
            assert_eq!(decode(&bytes), Err(BadLength), "{kind}");
            let mut frame = encode_envelope_with(&sample_envelope(msg), WireFormat::V2).to_vec();
            frame.push(0);
            assert_eq!(decode_envelope_auto(&frame), Err(BadLength));
        }
    }

    #[test]
    fn option_bytes_other_than_0_and_1_are_rejected() {
        let now = Timestamp::from_parts(9, 0);
        let digest = Msg::GossipDigest {
            reports: vec![],
            roots: vec![],
            ust: Some((now, now)),
            frames: 1,
        };
        // tag, frames, no reports, no roots, option byte.
        let mut bytes = encode(&digest).to_vec();
        assert_eq!(bytes[4], 1);
        bytes[4] = 2;
        assert_eq!(decode(&bytes), Err(UnknownTag(2)));
    }

    #[test]
    fn decode_rejects_oversized_value_length() {
        // CommitReq with a write whose value length prefix exceeds buffer.
        let msg = Msg::CommitReq {
            tx: TxRef::Known(tx(0, 0, 1)),
            hwt: Timestamp::ZERO,
            writes: vec![WriteSetEntry::new(Key(1), Value::from("abc"))],
        };
        let mut bytes = encode(&msg).to_vec();
        // The value length prefix sits right before the 3 value bytes.
        let n = bytes.len();
        assert_eq!(bytes[n - 4], 3);
        bytes[n - 4] = 0x7f;
        assert_eq!(decode(&bytes), Err(BadLength));
    }

    #[test]
    fn snapshot_metadata_is_one_timestamp() {
        // The headline Table I claim: the snapshot metadata a client ships
        // is exactly one timestamp — nothing else in the message is
        // metadata, and nothing in it grows with DCs or partitions.
        let ust = Timestamp::from_parts(3_600_000_000, 3);
        let start = Msg::StartTxReq { client_ust: ust };
        let mut one_timestamp = Count(0);
        one_timestamp.timestamp(ust);
        assert_eq!(
            metadata(&start),
            Metadata {
                bytes: one_timestamp.0,
                timestamps: 1
            }
        );
        let broadcast = Msg::GossipDigest {
            reports: vec![],
            roots: vec![],
            ust: Some((ust, Timestamp::ZERO)),
            frames: 1,
        };
        assert_eq!(metadata(&broadcast).timestamps, 2);
    }

    #[test]
    fn a_start_form_carries_one_timestamp_more_than_its_plain_form() {
        // Fusing the start into the first operation ships the same one
        // timestamp `StartTxReq` did; the transaction id the plain form
        // carries instead is an id, not metadata about dependencies.
        let ust = Timestamp::from_parts(3_600_000_000, 3);
        let t = tx(1, 2, 12_345);
        let keys: Vec<ReadKey> = vec![Key(1).into(), Key(831).into()];
        let writes = vec![WriteSetEntry::new(Key(5), Value::from("w"))];
        let start = TxRef::Start { client_ust: ust };
        for (plain, fused) in [
            (
                Msg::ReadReq {
                    tx: TxRef::Known(t),
                    keys: keys.clone(),
                },
                Msg::ReadReq { tx: start, keys },
            ),
            (
                Msg::CommitReq {
                    tx: TxRef::Known(t),
                    hwt: ust,
                    writes: writes.clone(),
                },
                Msg::CommitReq {
                    tx: start,
                    hwt: ust,
                    writes,
                },
            ),
        ] {
            let kind = plain.kind();
            assert_eq!(
                metadata(&fused).timestamps,
                metadata(&plain).timestamps + 1,
                "{kind}"
            );
        }
    }

    #[test]
    fn a_picked_form_is_its_start_form_and_the_call_under_a_tag_of_its_own() {
        // Both requests carry one timestamp where the plain form has the
        // id: the client's `ust_c`, or the snapshot it picked — the picked
        // form then its call. The replies name the assigned snapshot, or
        // the answering server's UST and the call echoed.
        let ts = Timestamp::from_parts(3_600_000_000, 3);
        let held = VersionStamp {
            ut: Timestamp::from_parts(3_599_999_000, 1),
            tx: tx(2, 300, 77),
        };
        let keys = vec![Key(1).into(), stamped(831, held)];
        let writes = vec![WriteSetEntry::new(Key(5), Value::from("w"))];
        let read = |tx| Msg::ReadReq {
            tx,
            keys: keys.clone(),
        };
        let commit = |tx| Msg::CommitReq {
            tx,
            hwt: ts,
            writes: writes.clone(),
        };
        let start = TxRef::Start { client_ust: ts };
        let picked = TxRef::Picked {
            snapshot: ts,
            call: 7,
        };
        let t = tx(1, 2, 12_345);
        let read_resp = |opening| Msg::ReadResp {
            tx: t,
            opening: Some(opening),
            results: vec![ReadResult {
                key: Key(300),
                outcome: ReadOutcome::Unchanged,
            }],
        };
        let commit_resp = |opening| Msg::CommitResp {
            tx: t,
            opening: Some(opening),
            ct: ts,
        };
        let op_failed = |opening| Msg::OpFailed {
            tx: t,
            opening: Some(opening),
        };
        let assigned = Opening::Start { snapshot: ts };
        let answered = Opening::Picked { ust: ts, call: 7 };
        // (start form, picked form, where the call goes): after the
        // request's timestamp, or after the reply's id and timestamp.
        let id = encode(&Msg::CommitTx { tx: t, ct: ts }).len() - 7;
        for (as_start, as_picked, at) in [
            (read(start), read(picked), 7),
            (commit(start), commit(picked), 7),
            (read_resp(assigned), read_resp(answered), 7 + id),
            (commit_resp(assigned), commit_resp(answered), 7 + id),
            (op_failed(assigned), op_failed(answered), 7 + id),
        ] {
            let (a, b) = (encode(&as_start), encode(&as_picked));
            assert_ne!(a[0], b[0]);
            assert_eq!([&a[1..at], &[7], &a[at..]].concat(), b[1..]);
            let (ma, mb) = (metadata(&as_start), metadata(&as_picked));
            assert_eq!((ma.timestamps, ma.bytes + 1), (mb.timestamps, mb.bytes));
            assert_eq!(decode(&b), Ok(as_picked));
        }
    }

    #[test]
    fn metadata_excludes_key_and_value_payload() {
        let mk = |size: usize| Msg::CommitReq {
            tx: TxRef::Known(tx(0, 0, 1)),
            hwt: Timestamp::ZERO,
            writes: vec![WriteSetEntry::new(Key(1), Value::filled(size, 1))],
        };
        assert_eq!(
            metadata(&mk(8)),
            metadata(&mk(4096)),
            "metadata must not scale with payload"
        );
    }

    #[test]
    fn metadata_len_is_encoding_derived() {
        // Tag + metadata + payload reconstruct the full frame, with keys
        // and length prefixes sized as the varints they ship as.
        for msg in sample_messages() {
            let split = 1 + metadata(&msg).bytes + payload_len(&msg);
            assert_eq!(split, encoded_len(&msg), "{}", msg.kind());
        }
    }

    #[test]
    fn display_of_decode_errors() {
        assert_eq!(DecodeError::Truncated.to_string(), "message truncated");
        assert_eq!(
            DecodeError::UnknownTag(9).to_string(),
            "unknown message tag 9"
        );
        assert_eq!(
            DecodeError::BadLength.to_string(),
            "length prefix exceeds buffer"
        );
    }

    // Strategies for arbitrary messages.
    fn arb_ts() -> impl Strategy<Value = Timestamp> {
        (0u64..(1 << 40), any::<u16>()).prop_map(|(p, l)| Timestamp::from_parts(p, l))
    }

    fn arb_tx() -> impl Strategy<Value = TxId> {
        (any::<u16>(), any::<u32>(), any::<u64>()).prop_map(|(d, p, s)| tx(d, p, s))
    }

    fn arb_opening() -> impl Strategy<Value = Opening> {
        prop_oneof![
            arb_ts().prop_map(|snapshot| Opening::Start { snapshot }),
            (arb_ts(), any::<u64>()).prop_map(|(ust, call)| Opening::Picked { ust, call }),
        ]
    }

    fn arb_tx_ref() -> impl Strategy<Value = TxRef> {
        prop_oneof![
            arb_tx().prop_map(TxRef::Known),
            arb_ts().prop_map(|client_ust| TxRef::Start { client_ust }),
            (arb_ts(), any::<u64>()).prop_map(|(snapshot, call)| TxRef::Picked { snapshot, call }),
        ]
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value)
    }

    fn arb_outcome() -> impl Strategy<Value = ReadOutcome> {
        // The version's key is filled in by `arb_results`: a found version
        // always belongs to its result's key.
        prop_oneof![
            Just(ReadOutcome::Absent),
            Just(ReadOutcome::Unchanged),
            (arb_value(), arb_ts(), arb_tx(), any::<u16>()).prop_map(|(v, ts, tx, dc)| {
                ReadOutcome::Found(Version::new(Key(0), v, ts, tx, DcId(dc)))
            }),
        ]
    }

    fn arb_keys() -> impl Strategy<Value = Vec<ReadKey>> {
        proptest::collection::vec(
            (any::<u64>(), proptest::option::of((arb_ts(), arb_tx()))).prop_map(|(k, held)| {
                ReadKey {
                    key: Key(k),
                    held: held.map(|(ut, tx)| VersionStamp { ut, tx }),
                }
            }),
            0..16,
        )
    }

    fn arb_writes() -> impl Strategy<Value = Vec<WriteSetEntry>> {
        proptest::collection::vec(
            (any::<u64>(), arb_value()).prop_map(|(k, v)| WriteSetEntry::new(Key(k), v)),
            0..8,
        )
    }

    fn arb_results() -> impl Strategy<Value = Vec<ReadResult>> {
        proptest::collection::vec(
            (any::<u64>(), arb_outcome()).prop_map(|(k, mut outcome)| {
                if let ReadOutcome::Found(v) = &mut outcome {
                    v.key = Key(k);
                }
                result(k, outcome)
            }),
            0..8,
        )
    }

    fn arb_dc() -> impl Strategy<Value = DcId> {
        any::<u16>().prop_map(DcId)
    }

    fn arb_partition() -> impl Strategy<Value = PartitionId> {
        any::<u32>().prop_map(PartitionId)
    }

    fn arb_mins() -> impl Strategy<Value = Vec<(DcId, Timestamp)>> {
        proptest::collection::vec((arb_dc(), arb_ts()), 0..8)
    }

    fn arb_txs() -> impl Strategy<Value = Vec<ReplicatedTx>> {
        proptest::collection::vec(
            (arb_tx(), arb_ts(), arb_dc(), arb_writes()).prop_map(|(tx, ct, src, writes)| {
                ReplicatedTx {
                    tx,
                    ct,
                    src,
                    writes,
                }
            }),
            0..4,
        )
    }

    fn arb_digest_report() -> impl Strategy<Value = DigestReport> {
        (arb_partition(), arb_mins(), arb_ts()).prop_map(|(partition, mins, oldest_active)| {
            DigestReport {
                partition,
                mins,
                oldest_active,
            }
        })
    }

    fn arb_msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            arb_ts().prop_map(|client_ust| Msg::StartTxReq { client_ust }),
            (arb_tx(), arb_ts()).prop_map(|(tx, snapshot)| Msg::StartTxResp { tx, snapshot }),
            (arb_tx_ref(), arb_keys()).prop_map(|(tx, keys)| Msg::ReadReq { tx, keys }),
            (arb_tx(), proptest::option::of(arb_opening()), arb_results()).prop_map(
                |(tx, opening, results)| Msg::ReadResp {
                    tx,
                    opening,
                    results
                }
            ),
            (arb_tx_ref(), arb_ts(), arb_writes()).prop_map(|(tx, hwt, writes)| Msg::CommitReq {
                tx,
                hwt,
                writes
            }),
            (arb_tx(), proptest::option::of(arb_opening()), arb_ts())
                .prop_map(|(tx, opening, ct)| Msg::CommitResp { tx, opening, ct }),
            (arb_tx(), arb_ts(), arb_keys()).prop_map(|(tx, snapshot, keys)| Msg::ReadSliceReq {
                tx,
                snapshot,
                keys
            }),
            (arb_tx(), arb_partition(), arb_results()).prop_map(|(tx, partition, results)| {
                Msg::ReadSliceResp {
                    tx,
                    partition,
                    results,
                }
            }),
            (arb_tx(), arb_ts(), arb_ts(), arb_writes(), arb_dc()).prop_map(
                |(tx, snapshot, ht, writes, src_dc)| Msg::PrepareReq {
                    tx,
                    snapshot,
                    ht,
                    writes,
                    src_dc,
                }
            ),
            (arb_tx(), arb_partition(), arb_ts()).prop_map(|(tx, partition, proposed)| {
                Msg::PrepareResp {
                    tx,
                    partition,
                    proposed,
                }
            }),
            (arb_tx(), arb_ts()).prop_map(|(tx, ct)| Msg::CommitTx { tx, ct }),
            (
                arb_tx(),
                arb_ts(),
                arb_writes(),
                arb_dc(),
                (arb_dc(), any::<u32>()).prop_map(|(dc, seq)| ClientId::new(dc, seq)),
                any::<bool>(),
                proptest::option::of(any::<u64>()),
            )
                .prop_map(
                    |(tx, ht, writes, src_dc, client, coordinator_share, picked)| Msg::CommitOne {
                        tx,
                        ht,
                        writes,
                        src_dc,
                        client,
                        coordinator_share,
                        picked,
                    },
                ),
            (arb_partition(), arb_txs(), arb_ts()).prop_map(|(partition, txs, watermark)| {
                Msg::Replicate {
                    partition,
                    txs,
                    watermark,
                }
            }),
            (arb_tx(), proptest::option::of(arb_opening()))
                .prop_map(|(tx, opening)| Msg::OpFailed { tx, opening }),
            (arb_partition(), arb_txs(), arb_ts(), any::<u32>()).prop_map(
                |(partition, txs, watermark, frames)| Msg::ReplicateBatch {
                    partition,
                    txs,
                    watermark,
                    frames,
                }
            ),
            (
                proptest::collection::vec(arb_digest_report(), 0..4),
                proptest::collection::vec((arb_dc(), arb_ts(), arb_ts()), 0..4),
                proptest::option::of((arb_ts(), arb_ts())),
                any::<u32>()
            )
                .prop_map(|(reports, roots, ust, frames)| Msg::GossipDigest {
                    reports,
                    roots,
                    ust,
                    frames,
                }),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One message per tag (both forms where a tag has two), with
    /// multi-byte varints, and the frame the encoder produced for it. The
    /// frames of tags 1–21 (13–16 retired by v7) are the v2 codec's, byte
    /// for byte: v3 only
    /// added the start forms (22–27), v4 only the one-phase commit (28),
    /// and v5 only its last-agent form (29) — except the three requests
    /// to a cohort, which v6 took the reply address out of (see
    /// `v6_cohort_requests_are_the_v5_frames_without_the_reply_address`).
    fn golden_messages() -> Vec<(Msg, &'static str)> {
        let t = tx(1, 2, 12_345);
        let p = PartitionId(300);
        let now = Timestamp::from_parts(3_600_000_000, 3);
        let old = Timestamp::from_parts(3_599_000_000, 0);
        let held = VersionStamp {
            ut: Timestamp::from_parts(3_599_999_000, 1),
            tx: tx(2, 300, 77),
        };
        let older = VersionStamp { ut: old, tx: t };
        let start = TxRef::Start { client_ust: now };
        let picked = TxRef::Picked {
            snapshot: now,
            call: 7,
        };
        let version = Version::new(Key(831), Value::from("hello"), held.ut, held.tx, DcId(2));
        let writes = vec![
            WriteSetEntry::new(Key(831), Value::from("v1")),
            WriteSetEntry::new(Key(5), Value::filled(3, 0xAB)),
        ];
        let rtx = |seq: u64, ct: u64| ReplicatedTx {
            tx: tx(1, 300, seq),
            ct: Timestamp::from_parts(ct, 0),
            src: DcId(1),
            writes: vec![WriteSetEntry::new(Key(seq), Value::from("w"))],
        };
        vec![
            (Msg::StartTxReq { client_ust: now }, "0180c8ceb40d03"),
            (Msg::StartTxResp { tx: t, snapshot: now }, "020102b96080c8ceb40d03"),
            (
                Msg::ReadReq {
                    tx: TxRef::Known(t),
                    keys: vec![Key(1).into(), Key(831).into()],
                },
                "030102b9600201bf06",
            ),
            (
                Msg::ReadReq {
                    tx: TxRef::Known(t),
                    keys: vec![
                        Key(1).into(),
                        stamped(831, held),
                        Key(7).into(),
                        stamped(9, older),
                    ],
                },
                "140102b9600401bf0607090201b0809de91a0102ac024d01aff979000102b960",
            ),
            (
                Msg::ReadResp {
                    tx: t,
                    opening: None,
                    results: vec![
                        result(831, ReadOutcome::Found(version.clone())),
                        result(2, ReadOutcome::Absent),
                        result(300, ReadOutcome::Unchanged),
                    ],
                },
                "040102b96003bf06010568656c6c6f98c0ceb40d0102ac024d020200ac0202",
            ),
            (
                Msg::CommitReq {
                    tx: TxRef::Known(t),
                    hwt: now,
                    writes: writes.clone(),
                },
                "050102b96080c8ceb40d0302bf060276310503acacac",
            ),
            (
                Msg::CommitResp {
                    tx: t,
                    opening: None,
                    ct: now,
                },
                "060102b96080c8ceb40d03",
            ),
            (
                Msg::ReadSliceReq {
                    tx: t,
                    snapshot: now,
                    keys: vec![Key(4).into(), Key(831).into()],
                },
                "070102b96080c8ceb40d030204bf06",
            ),
            (
                Msg::ReadSliceReq {
                    tx: t,
                    snapshot: now,
                    keys: vec![
                        stamped(831, held),
                        Key(4).into(),
                        stamped(9, older),
                    ],
                },
                "150102b96080c8ceb40d0303bf0604090200cf0f0102ac024d01aff979000102b960",
            ),
            (
                Msg::ReadSliceResp {
                    tx: t,
                    partition: p,
                    results: vec![
                        result(831, ReadOutcome::Found(version)),
                        result(4, ReadOutcome::Unchanged),
                    ],
                },
                "080102b960ac0202bf06010568656c6c6f98c0ceb40d0102ac024d020402",
            ),
            (
                Msg::PrepareReq {
                    tx: t,
                    snapshot: now,
                    ht: Timestamp::from_parts(3_600_000_500, 0),
                    writes,
                    src_dc: DcId(1),
                },
                "090102b96080c8ceb40d03f4cbceb40d000102bf060276310503acacac",
            ),
            (
                Msg::PrepareResp {
                    tx: t,
                    partition: p,
                    proposed: now,
                },
                "0a0102b960ac0280c8ceb40d03",
            ),
            (Msg::CommitTx { tx: t, ct: now }, "0b0102b96080c8ceb40d03"),
            (
                Msg::Replicate {
                    partition: p,
                    txs: vec![rtx(200, 3_600_000_100)],
                    watermark: now,
                },
                "0cac0280c8ceb40d030101ac02c801e4c8ceb40d000101c8010177",
            ),
            (
                Msg::OpFailed {
                    tx: t,
                    opening: None,
                },
                "110102b960",
            ),
            (
                Msg::ReplicateBatch {
                    partition: p,
                    txs: vec![rtx(200, 3_600_000_100), rtx(201, 3_600_000_200)],
                    watermark: now,
                    frames: 130,
                },
                "12ac0280c8ceb40d0382010201ac02c801e4c8ceb40d000101c801017701ac02c901c8c9ceb40d000101c9010177",
            ),
            (
                Msg::GossipDigest {
                    reports: vec![DigestReport {
                        partition: p,
                        mins: vec![(DcId(0), now), (DcId(1), Timestamp::from_parts(9, 1))],
                        oldest_active: now,
                    }],
                    roots: vec![(DcId(2), now, old)],
                    ust: Some((now, old)),
                    frames: 4,
                },
                "130401ac0280c8ceb40d03020080c8ceb40d03010901010280c8ceb40d03c0c391b40d000180c8ceb40d03c0c391b40d00",
            ),
            (
                Msg::GossipDigest {
                    reports: vec![],
                    roots: vec![(DcId(0), now, now)],
                    ust: None,
                    frames: 1,
                },
                "130100010080c8ceb40d0380c8ceb40d0300",
            ),
            // The start forms: a timestamp where the plain form has the id,
            // and replies that add the assigned snapshot.
            (
                Msg::ReadReq {
                    tx: start,
                    keys: vec![Key(1).into(), Key(831).into()],
                },
                "1680c8ceb40d030201bf06",
            ),
            (
                Msg::ReadReq {
                    tx: start,
                    keys: vec![
                        Key(1).into(),
                        stamped(831, held),
                        Key(7).into(),
                        stamped(9, older),
                    ],
                },
                "1780c8ceb40d030401bf0607090201cf0f0102ac024d01aff979000102b960",
            ),
            (
                Msg::ReadResp {
                    tx: t,
                    opening: Some(Opening::Start { snapshot: now }),
                    results: vec![result(300, ReadOutcome::Unchanged)],
                },
                "180102b96080c8ceb40d0301ac0202",
            ),
            (
                Msg::CommitReq {
                    tx: start,
                    hwt: old,
                    writes: vec![WriteSetEntry::new(Key(5), Value::from("w"))],
                },
                "1980c8ceb40d03c0c391b40d0001050177",
            ),
            (
                Msg::CommitResp {
                    tx: t,
                    opening: Some(Opening::Start { snapshot: old }),
                    ct: now,
                },
                "1a0102b960c0c391b40d0080c8ceb40d03",
            ),
            (
                Msg::OpFailed {
                    tx: t,
                    opening: Some(Opening::Start { snapshot: now }),
                },
                "1b0102b96080c8ceb40d03",
            ),
            // The one-phase commit (the v4 frame), and its last-agent form:
            // the same bytes under tag 29.
            (
                commit_one(false, None),
                "1c0102b96080c8ceb40d0301f0a2040101050177",
            ),
            (
                commit_one(true, None),
                "1d0102b96080c8ceb40d0301f0a2040101050177",
            ),
            // The picked forms (v8), each under a tag of its own: the start
            // forms' bytes with the picked snapshot where `ust_c` was and
            // the call (7) after it, the one-phase commits' bytes with the
            // call after the source DC, and the start-form replies' bytes
            // with the answering server's UST where the snapshot was and
            // the call after it.
            (
                Msg::ReadReq {
                    tx: picked,
                    keys: vec![Key(1).into(), Key(831).into()],
                },
                "1e80c8ceb40d03070201bf06",
            ),
            (
                Msg::ReadReq {
                    tx: picked,
                    keys: vec![
                        Key(1).into(),
                        stamped(831, held),
                        Key(7).into(),
                        stamped(9, older),
                    ],
                },
                "1f80c8ceb40d03070401bf0607090201cf0f0102ac024d01aff979000102b960",
            ),
            (
                Msg::CommitReq {
                    tx: picked,
                    hwt: old,
                    writes: vec![WriteSetEntry::new(Key(5), Value::from("w"))],
                },
                "2080c8ceb40d0307c0c391b40d0001050177",
            ),
            (
                commit_one(false, Some(7)),
                "210102b96080c8ceb40d0301f0a204010701050177",
            ),
            (
                commit_one(true, Some(7)),
                "220102b96080c8ceb40d0301f0a204010701050177",
            ),
            (
                Msg::ReadResp {
                    tx: t,
                    opening: Some(Opening::Picked { ust: now, call: 7 }),
                    results: vec![result(300, ReadOutcome::Unchanged)],
                },
                "230102b96080c8ceb40d030701ac0202",
            ),
            (
                Msg::CommitResp {
                    tx: t,
                    opening: Some(Opening::Picked { ust: old, call: 7 }),
                    ct: now,
                },
                "240102b960c0c391b40d000780c8ceb40d03",
            ),
            (
                Msg::OpFailed {
                    tx: t,
                    opening: Some(Opening::Picked { ust: now, call: 7 }),
                },
                "250102b96080c8ceb40d0307",
            ),
        ]
    }

    fn commit_one(coordinator_share: bool, picked: Option<u64>) -> Msg {
        Msg::CommitOne {
            tx: tx(1, 2, 12_345),
            ht: Timestamp::from_parts(3_600_000_000, 3),
            writes: vec![WriteSetEntry::new(Key(5), Value::from("w"))],
            src_dc: DcId(1),
            client: ClientId::new(DcId(1), 70_000),
            coordinator_share,
            picked,
        }
    }

    #[test]
    fn golden_frames_of_every_tag_are_pinned() {
        let mut tags = std::collections::BTreeSet::new();
        for (msg, golden) in golden_messages() {
            let bytes = encode(&msg);
            assert_eq!(hex(&bytes), golden, "{}", msg.kind());
            tags.insert(bytes[0]);
        }
        assert_eq!(
            tags.into_iter().collect::<Vec<_>>(),
            (T_START_REQ..=T_OP_FAILED_PICKED)
                .filter(|tag| !RETIRED_TAGS.contains(tag))
                .collect::<Vec<_>>(),
            "one golden per tag"
        );
    }

    /// The background tags version 7 retired: heartbeat, tree report, root
    /// GST and UST broadcast.
    const RETIRED_TAGS: [u8; 4] = [13, 14, 15, 16];

    #[test]
    fn retired_background_tags_are_unknown() {
        // Each v6 frame of a retired tag, as pinned by the v6 goldens: the
        // tag must be refused, not read as some other message.
        for frame in [
            "0dac0280c8ceb40d03",
            "0eac0280c8ceb40d03020080c8ceb40d03ac020500",
            "0f0280c8ceb40d030000",
            "1080c8ceb40d03c0c391b40d00",
        ] {
            let bytes = unhex(frame);
            assert_eq!(decode(&bytes), Err(UnknownTag(bytes[0])), "{frame}");
        }
        for tag in RETIRED_TAGS {
            assert_eq!(decode(&[tag]), Err(UnknownTag(tag)));
        }
    }

    #[test]
    fn v6_cohort_requests_are_the_v5_frames_without_the_reply_address() {
        // The v5 frames of `golden_messages`' three requests to a cohort,
        // pinned before the change. Each carried its reply address (server
        // (3, 300): `03 ac02`) right after its timestamps; v6 drops exactly
        // those three bytes and moves nothing else.
        let v5 = [
            ("070102b96080c8ceb40d0303ac020204bf06", 11),
            (
                "150102b96080c8ceb40d0303ac0203bf0604090200cf0f0102ac024d01aff979000102b960",
                11,
            ),
            (
                "090102b96080c8ceb40d03f4cbceb40d0003ac020102bf060276310503acacac",
                17,
            ),
        ];
        let goldens = golden_messages();
        for (old, at) in v5 {
            let (at, tag) = (2 * at, &old[..2]);
            assert_eq!(&old[at..at + 6], "03ac02", "the reply address of tag {tag}");
            let new = format!("{}{}", &old[..at], &old[at + 6..]);
            let (msg, golden) = goldens
                .iter()
                .find(|(_, golden)| golden.starts_with(tag))
                .expect("a golden per tag");
            assert_eq!(*golden, new, "{}", msg.kind());
        }
    }

    #[test]
    fn v7_commit_and_slice_frames_are_pinned() {
        // The v7 frames of the messages a client-picked snapshot travels
        // next to: the commit request and its reply in both forms, the
        // one-phase commit in both forms, and both slice-read layouts.
        // Any later form must come under a tag of its own and leave these
        // bytes alone.
        let v7 = [
            ("CommitReq", "050102b96080c8ceb40d0302bf060276310503acacac"),
            ("CommitReq", "1980c8ceb40d03c0c391b40d0001050177"),
            ("CommitResp", "060102b96080c8ceb40d03"),
            ("CommitResp", "1a0102b960c0c391b40d0080c8ceb40d03"),
            ("CommitOne", "1c0102b96080c8ceb40d0301f0a2040101050177"),
            ("CommitOne", "1d0102b96080c8ceb40d0301f0a2040101050177"),
            ("ReadSliceReq", "070102b96080c8ceb40d030204bf06"),
            (
                "ReadSliceReq",
                "150102b96080c8ceb40d0303bf0604090200cf0f0102ac024d01aff979000102b960",
            ),
        ];
        let goldens = golden_messages();
        for (kind, frame) in v7 {
            let (msg, _) = goldens
                .iter()
                .find(|(_, golden)| *golden == frame)
                .unwrap_or_else(|| panic!("the v7 {kind} frame {frame} is still produced"));
            assert_eq!(msg.kind(), kind);
            assert_eq!(hex(&encode(msg)), frame);
            assert_eq!(decode(&unhex(frame)).as_ref(), Ok(msg));
        }
    }

    #[test]
    fn golden_envelope_frames_are_pinned() {
        let client = ClientId::new(DcId(3), 70_000);
        let coordinator = ServerId::new(DcId(3), PartitionId(2));
        let cohort = ServerId::new(DcId(300), PartitionId(17));
        let start = Msg::StartTxReq {
            client_ust: Timestamp::from_parts(3_600_000_000, 3),
        };
        let heartbeat = Msg::Replicate {
            partition: PartitionId(17),
            txs: vec![],
            watermark: Timestamp::from_parts(3_600_000_000, 0),
        };
        for (env, golden) in [
            (
                Envelope::new(client, coordinator, start),
                "f20103f0a2040003020180c8ceb40d03",
            ),
            (
                Envelope::new(coordinator, cohort, heartbeat),
                "f200030200ac02110c1180c8ceb40d0000",
            ),
        ] {
            let bytes = encode_envelope_with(&env, WireFormat::V2);
            assert_eq!(bytes[0], FRAME_V2);
            assert_eq!(hex(&bytes), golden);
            assert_eq!(decode_envelope_auto(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn envelopes_roundtrip_with_exact_length() {
        let endpoints = [
            Endpoint::Server(ServerId::new(DcId(3), PartitionId(17))),
            Endpoint::Client(ClientId::new(DcId(1), u32::MAX - 7)),
        ];
        for src in endpoints {
            for dst in endpoints {
                for msg in sample_messages() {
                    let env = Envelope { src, dst, msg };
                    let bytes = encode_envelope_with(&env, WireFormat::V2);
                    assert_eq!(bytes.len(), envelope_len_with(&env, WireFormat::V2));
                    assert_eq!(decode_envelope_auto(&bytes).unwrap(), env);
                }
            }
        }
    }

    #[test]
    fn envelope_decode_rejects_truncation_and_bad_endpoint_tags() {
        let env = sample_envelope(Msg::StartTxReq {
            client_ust: Timestamp::ZERO,
        });
        let bytes = encode_envelope_with(&env, WireFormat::V2);
        for cut in 0..bytes.len() {
            assert!(decode_envelope_auto(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut corrupt = bytes.to_vec();
        corrupt[1] = 9; // endpoint kinds are 0 or 1
        assert_eq!(decode_envelope_auto(&corrupt), Err(UnknownTag(9)));
        // A frame that does not open with the marker is not ours.
        let mut unmarked = bytes.to_vec();
        unmarked[0] = 1;
        assert_eq!(decode_envelope_auto(&unmarked), Err(UnknownTag(1)));
    }

    #[test]
    fn v2_handles_u64_boundary_values() {
        // Maximum-width varints everywhere a u64/u48/u32/u16 can ride.
        let max_ts = Timestamp::from_parts((1 << 48) - 1, u16::MAX);
        let msg = Msg::ReadResp {
            tx: tx(u16::MAX, u32::MAX, u64::MAX),
            opening: Some(Opening::Picked {
                ust: max_ts,
                call: u64::MAX,
            }),
            results: vec![result(
                u64::MAX,
                ReadOutcome::Found(Version::new(
                    Key(u64::MAX),
                    Value::filled(8, 0xff),
                    max_ts,
                    tx(u16::MAX, u32::MAX, u64::MAX),
                    DcId(u16::MAX),
                )),
            )],
        };
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), encoded_len(&msg));
        assert_eq!(decode(&bytes).unwrap(), msg);
        // Stamps at both ends of the 48-bit range: the deltas swing by the
        // whole range in either direction and still round-trip.
        let stamp = |physical, logical| VersionStamp {
            ut: Timestamp::from_parts(physical, logical),
            tx: tx(u16::MAX, u32::MAX, u64::MAX),
        };
        let msg = Msg::ReadSliceReq {
            tx: tx(0, 0, 1),
            snapshot: max_ts,
            keys: vec![
                stamped(u64::MAX, stamp(0, 0)),
                stamped(0, stamp((1 << 48) - 1, u16::MAX)),
                stamped(1, stamp(0, 1)),
            ],
        };
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), encoded_len(&msg));
        assert_eq!(decode(&bytes).unwrap(), msg);
        // A physical part beyond 48 bits cannot come off the encoder;
        // the decoder must reject it rather than silently truncate.
        let mut forged = BytesMut::new();
        forged.put_u8(T_START_REQ);
        varint::put(&mut forged, 1 << 48);
        varint::put(&mut forged, 0);
        assert!(decode(forged.as_ref()).is_err());
    }

    #[test]
    fn v2_rejects_stamp_deltas_that_leave_the_48_bit_range() {
        for (delta, logical) in [
            // +2^48 from the zero base: one past the largest physical time.
            ((1u64 << 48) << 1, 0),
            // −1 from the zero base: below zero.
            (1, 0),
            // The widest zigzag value (i64::MIN) must not overflow the sum.
            (u64::MAX, 0),
            // +1 µs, but a logical part wider than 16 bits.
            (2, 1 << 16),
        ] {
            // A stamped `ReadReq`: tag, tx (0,0,1), one key (5), one
            // stamp, on key index 0 — then its delta, logical part and tx.
            let mut forged = BytesMut::new();
            forged.put_slice(&[T_READ_REQ_STAMPED, 0, 0, 1, 1, 5, 1, 0]);
            varint::put(&mut forged, delta);
            varint::put(&mut forged, logical);
            forged.put_slice(&[0, 0, 1]);
            assert_eq!(decode(forged.as_ref()), Err(BadLength));
        }
    }

    #[test]
    fn stamps_outside_the_key_list_are_rejected() {
        // Two keys, one stamp; the stamp's index gap is the last thing
        // before its identity: tag, tx, n, k, k, stamps, gap.
        let stamped = Msg::ReadReq {
            tx: TxRef::Known(tx(0, 0, 1)),
            keys: vec![
                Key(5).into(),
                stamped(
                    6,
                    VersionStamp {
                        ut: Timestamp::from_parts(1, 0),
                        tx: tx(0, 0, 1),
                    },
                ),
            ],
        };
        let good = encode(&stamped).to_vec();
        assert_eq!(good[8], 1, "stamp index located");
        assert_eq!(decode(&good).unwrap(), stamped);
        let mut past_the_end = good.clone();
        past_the_end[8] = 2;
        assert_eq!(decode(&past_the_end), Err(BadLength));
        // More stamps than keys can only overrun the list.
        let mut too_many = good.clone();
        too_many[7] = 3;
        assert!(decode(&too_many).is_err());
    }

    #[test]
    fn an_unknown_outcome_byte_is_rejected() {
        let unchanged = Msg::ReadResp {
            tx: tx(0, 0, 1),
            opening: None,
            results: vec![result(5, ReadOutcome::Unchanged)],
        };
        let mut bytes = encode(&unchanged).to_vec();
        let last = bytes.len() - 1;
        assert_eq!(bytes[last], R_UNCHANGED);
        bytes[last] = 3;
        assert_eq!(decode(&bytes), Err(UnknownTag(3)));
    }

    #[test]
    fn stamp_free_frames_are_byte_identical_to_the_pre_stamp_codec() {
        // Goldens taken from the codec before stamps existed: a request
        // with nothing to validate and a full result must cost exactly
        // what they always did (a result ships its key once now — the
        // golden is the old frame minus the second copy of the key — and
        // since v6 a slice request carries no reply address: minus `0 7`,
        // server (0, 7), after the snapshot).
        let t = tx(1, 2, 3);
        let read = Msg::ReadReq {
            tx: TxRef::Known(t),
            keys: vec![Key(1).into(), Key(300).into()],
        };
        let slice = Msg::ReadSliceReq {
            tx: t,
            snapshot: Timestamp::from_parts(10, 2),
            keys: vec![Key(4).into()],
        };
        let resp = Msg::ReadSliceResp {
            tx: t,
            partition: PartitionId(7),
            results: vec![
                result(
                    9,
                    ReadOutcome::Found(Version::new(
                        Key(9),
                        Value::from("hi"),
                        Timestamp::from_parts(100, 1),
                        t,
                        DcId(1),
                    )),
                ),
                result(2, ReadOutcome::Absent),
            ],
        };
        assert_eq!(encode(&read).as_ref(), [3u8, 1, 2, 3, 2, 1, 0xAC, 0x02]);
        assert_eq!(encode(&slice).as_ref(), [7u8, 1, 2, 3, 10, 2, 1, 4]);
        assert_eq!(
            encode(&resp).as_ref(),
            [
                8u8, 1, 2, 3, 7, 2, // tag, tx, partition, count
                9, 1, /* (old: key 9 again) */ 2, b'h', b'i', 100, 1, 1, 2, 3,
                1, // found
                2, 0, // absent
            ]
        );
    }

    #[test]
    fn an_unchanged_result_is_three_bytes_where_a_found_one_is_a_version() {
        let t = tx(1, 2, 12_345);
        let version = Version::new(
            Key(831),
            Value::filled(1024, 7),
            Timestamp::from_parts(3_600_000_000, 0),
            t,
            DcId(1),
        );
        let resp = |outcome| Msg::ReadResp {
            tx: t,
            opening: None,
            results: vec![result(831, outcome)],
        };
        let found = encoded_len(&resp(ReadOutcome::Found(version)));
        let unchanged = encoded_len(&resp(ReadOutcome::Unchanged));
        let absent = encoded_len(&resp(ReadOutcome::Absent));
        assert_eq!(unchanged, absent, "the option byte's third value is free");
        assert!(found - unchanged > 1024, "{found} vs {unchanged}");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_messages(msg in arb_msg()) {
            let bytes = encode(&msg);
            prop_assert_eq!(bytes.len(), encoded_len(&msg));
            prop_assert_eq!(decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn prop_tag_metadata_and_payload_add_up_to_encoded_len(msg in arb_msg()) {
            prop_assert_eq!(1 + metadata(&msg).bytes + payload_len(&msg), encoded_len(&msg));
        }

        #[test]
        fn prop_every_strict_prefix_of_a_frame_fails_to_decode(msg in arb_msg()) {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                prop_assert!(decode(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }

        #[test]
        fn prop_envelopes_roundtrip_arbitrary_messages(msg in arb_msg(), d in any::<u16>(), s in any::<u32>()) {
            let env = Envelope::new(
                ClientId::new(DcId(d), s),
                ServerId::new(DcId(d), PartitionId(s)),
                msg,
            );
            let bytes = encode_envelope_with(&env, WireFormat::V2);
            prop_assert_eq!(bytes.len(), envelope_len_with(&env, WireFormat::V2));
            prop_assert_eq!(decode_envelope_auto(&bytes).unwrap(), env);
        }

        #[test]
        fn prop_decode_envelope_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_envelope_auto(&bytes);
        }
    }
}
