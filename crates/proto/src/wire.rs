//! Compact binary wire codec.
//!
//! Two encodings share this surface:
//!
//! * **v1** (this module's bare `encode`/`decode`/`encoded_len`): the
//!   original fixed-layout little-endian codec, kept bit-for-bit stable
//!   for interop with older peers;
//! * **v2** ([`crate::wire2`]): LEB128 varints for lengths, counts,
//!   sequence numbers, keys and ids, plus trimmed timestamps.
//!
//! The `*_with` functions dispatch on a [`WireFormat`];
//! [`decode_envelope_auto`] dispatches per frame on the first byte (v1
//! envelopes open with an endpoint tag 0/1, v2 frames with the
//! [`wire2::FRAME_V2`] marker), so a receiver
//! never misparses one encoding as the other. Its purposes:
//!
//! 1. **Metadata accounting** (Table I of the paper): [`encoded_len`] gives
//!    the exact on-wire size of every message, so the benchmark harness can
//!    measure how many metadata bytes PaRiS spends per operation — one
//!    timestamp, independent of the number of DCs or partitions.
//! 2. **Round-trip testing**: property tests assert `decode(encode(m)) == m`
//!    for arbitrary messages under both encodings, ensuring the message
//!    definitions have no hidden unserializable state.
//! 3. The threaded runtime can optionally ship encoded frames to account
//!    for bandwidth exactly as a networked deployment would.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use paris_types::{
    ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, Version, VersionStamp,
    WireFormat, WriteSetEntry,
};

use crate::messages::{
    DigestReport, Endpoint, Envelope, Msg, ReadKey, ReadOutcome, ReadResult, ReplicatedTx,
};
use crate::wire2;

/// Connection-preamble magic: every PaRiS socket connection opens with
/// these four bytes, so a stray client speaking another protocol is
/// rejected before any frame is parsed.
pub const MAGIC: [u8; 4] = *b"PaRS";

/// Highest wire protocol version this build speaks. Each side advertises
/// its *configured* encoding's version in the connection preamble right
/// after [`MAGIC`]; both sides then speak the minimum of the two
/// advertisements. A peer advertising a version outside
/// [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] is refused instead
/// of misparsing frames.
pub const PROTOCOL_VERSION: u16 = 2;

/// Lowest wire protocol version still decoded (v1 is preserved
/// bit-for-bit).
pub const MIN_PROTOCOL_VERSION: u16 = 1;

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
    /// An unknown message tag was encountered.
    UnknownTag(u8),
    /// A collection length prefix exceeded the remaining buffer.
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

// ---------------------------------------------------------------- helpers

pub(crate) fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

pub(crate) fn put_ts(buf: &mut BytesMut, ts: Timestamp) {
    buf.put_u64_le(ts.as_u64());
}

pub(crate) fn get_ts(buf: &mut Bytes) -> Result<Timestamp, DecodeError> {
    need(buf, 8)?;
    Ok(Timestamp::from_u64(buf.get_u64_le()))
}

pub(crate) fn put_dc(buf: &mut BytesMut, dc: DcId) {
    buf.put_u16_le(dc.0);
}

pub(crate) fn get_dc(buf: &mut Bytes) -> Result<DcId, DecodeError> {
    need(buf, 2)?;
    Ok(DcId(buf.get_u16_le()))
}

pub(crate) fn put_partition(buf: &mut BytesMut, p: PartitionId) {
    buf.put_u32_le(p.0);
}

pub(crate) fn get_partition(buf: &mut Bytes) -> Result<PartitionId, DecodeError> {
    need(buf, 4)?;
    Ok(PartitionId(buf.get_u32_le()))
}

pub(crate) fn put_server(buf: &mut BytesMut, s: ServerId) {
    put_dc(buf, s.dc);
    put_partition(buf, s.partition);
}

pub(crate) fn get_server(buf: &mut Bytes) -> Result<ServerId, DecodeError> {
    Ok(ServerId::new(get_dc(buf)?, get_partition(buf)?))
}

pub(crate) fn put_tx(buf: &mut BytesMut, tx: TxId) {
    put_dc(buf, tx.dc);
    put_partition(buf, tx.partition);
    buf.put_u64_le(tx.seq);
}

pub(crate) fn get_tx(buf: &mut Bytes) -> Result<TxId, DecodeError> {
    let dc = get_dc(buf)?;
    let partition = get_partition(buf)?;
    need(buf, 8)?;
    let seq = buf.get_u64_le();
    Ok(TxId { dc, partition, seq })
}

pub(crate) fn put_key(buf: &mut BytesMut, k: Key) {
    buf.put_u64_le(k.0);
}

pub(crate) fn get_key(buf: &mut Bytes) -> Result<Key, DecodeError> {
    need(buf, 8)?;
    Ok(Key(buf.get_u64_le()))
}

pub(crate) fn put_len(buf: &mut BytesMut, len: usize) {
    buf.put_u32_le(len as u32);
}

pub(crate) fn get_len(buf: &mut Bytes) -> Result<usize, DecodeError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le() as usize)
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    put_len(buf, v.len());
    buf.put_slice(v.as_bytes());
}

fn get_value(buf: &mut Bytes) -> Result<Value, DecodeError> {
    let len = get_len(buf)?;
    if buf.remaining() < len {
        return Err(DecodeError::BadLength);
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    Ok(Value(bytes))
}

fn put_version(buf: &mut BytesMut, v: &Version) {
    put_key(buf, v.key);
    put_value(buf, &v.value);
    put_ts(buf, v.ut);
    put_tx(buf, v.tx);
    put_dc(buf, v.src);
}

fn get_version(buf: &mut Bytes) -> Result<Version, DecodeError> {
    Ok(Version {
        key: get_key(buf)?,
        value: get_value(buf)?,
        ut: get_ts(buf)?,
        tx: get_tx(buf)?,
        src: get_dc(buf)?,
    })
}

fn put_write(buf: &mut BytesMut, w: &WriteSetEntry) {
    put_key(buf, w.key);
    put_value(buf, &w.value);
}

fn get_write(buf: &mut Bytes) -> Result<WriteSetEntry, DecodeError> {
    Ok(WriteSetEntry {
        key: get_key(buf)?,
        value: get_value(buf)?,
    })
}

// Read-result option byte (shared verbatim by the v2 codec): the third
// value tells the client the version it stamped is still the visible one.
pub(crate) const R_ABSENT: u8 = 0;
pub(crate) const R_FOUND: u8 = 1;
pub(crate) const R_UNCHANGED: u8 = 2;

fn put_read_result(buf: &mut BytesMut, r: &ReadResult) {
    put_key(buf, r.key);
    match &r.outcome {
        ReadOutcome::Absent => buf.put_u8(R_ABSENT),
        ReadOutcome::Found(v) => {
            buf.put_u8(R_FOUND);
            put_version(buf, v);
        }
        ReadOutcome::Unchanged => buf.put_u8(R_UNCHANGED),
    }
}

fn get_read_result(buf: &mut Bytes) -> Result<ReadResult, DecodeError> {
    let key = get_key(buf)?;
    need(buf, 1)?;
    let outcome = match buf.get_u8() {
        R_ABSENT => ReadOutcome::Absent,
        R_FOUND => ReadOutcome::Found(get_version(buf)?),
        R_UNCHANGED => ReadOutcome::Unchanged,
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(ReadResult { key, outcome })
}

/// True when any key carries a held-version stamp: such a request ships
/// under its stamped tag, every other one in the original stamp-free
/// layout — validation costs nothing until a client has something to
/// validate.
pub(crate) fn any_held(keys: &[ReadKey]) -> bool {
    keys.iter().any(|k| k.held.is_some())
}

/// A request's key list: the plain list every peer has always decoded,
/// followed — under the request's stamped tag only — by the stamps,
/// fixed-width, as `(key index, update time, transaction id)` in
/// ascending index order.
fn put_keys(buf: &mut BytesMut, keys: &[ReadKey]) {
    put_len(buf, keys.len());
    for k in keys {
        put_key(buf, k.key);
    }
    if !any_held(keys) {
        return;
    }
    put_len(buf, keys.iter().filter(|k| k.held.is_some()).count());
    for (index, k) in keys.iter().enumerate() {
        if let Some(stamp) = k.held {
            put_len(buf, index);
            put_ts(buf, stamp.ut);
            put_tx(buf, stamp.tx);
        }
    }
}

fn get_keys(buf: &mut Bytes, stamped: bool) -> Result<Vec<ReadKey>, DecodeError> {
    let n = get_len(buf)?;
    let mut keys = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        keys.push(ReadKey::from(get_key(buf)?));
    }
    if !stamped {
        return Ok(keys);
    }
    let stamps = get_len(buf)?;
    let mut next = 0;
    for _ in 0..stamps {
        let index = get_len(buf)?;
        if index < next || index >= keys.len() {
            return Err(DecodeError::BadLength);
        }
        next = index + 1;
        keys[index].held = Some(VersionStamp {
            ut: get_ts(buf)?,
            tx: get_tx(buf)?,
        });
    }
    Ok(keys)
}

fn put_replicated_tx(buf: &mut BytesMut, t: &ReplicatedTx) {
    put_tx(buf, t.tx);
    put_ts(buf, t.ct);
    put_dc(buf, t.src);
    put_len(buf, t.writes.len());
    for w in &t.writes {
        put_write(buf, w);
    }
}

fn get_replicated_tx(buf: &mut Bytes) -> Result<ReplicatedTx, DecodeError> {
    let tx = get_tx(buf)?;
    let ct = get_ts(buf)?;
    let src = get_dc(buf)?;
    let m = get_len(buf)?;
    let mut writes = Vec::with_capacity(m.min(1024));
    for _ in 0..m {
        writes.push(get_write(buf)?);
    }
    Ok(ReplicatedTx {
        tx,
        ct,
        src,
        writes,
    })
}

fn put_digest_report(buf: &mut BytesMut, r: &DigestReport) {
    put_partition(buf, r.partition);
    put_ts(buf, r.oldest_active);
    put_len(buf, r.mins.len());
    for (dc, ts) in &r.mins {
        put_dc(buf, *dc);
        put_ts(buf, *ts);
    }
}

fn get_digest_report(buf: &mut Bytes) -> Result<DigestReport, DecodeError> {
    let partition = get_partition(buf)?;
    let oldest_active = get_ts(buf)?;
    let n = get_len(buf)?;
    let mut mins = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let dc = get_dc(buf)?;
        let ts = get_ts(buf)?;
        mins.push((dc, ts));
    }
    Ok(DigestReport {
        partition,
        mins,
        oldest_active,
    })
}

// Message tags (shared verbatim by the v2 codec in `wire2`).
pub(crate) const T_START_REQ: u8 = 1;
pub(crate) const T_START_RESP: u8 = 2;
pub(crate) const T_READ_REQ: u8 = 3;
pub(crate) const T_READ_RESP: u8 = 4;
pub(crate) const T_COMMIT_REQ: u8 = 5;
pub(crate) const T_COMMIT_RESP: u8 = 6;
pub(crate) const T_READ_SLICE_REQ: u8 = 7;
pub(crate) const T_READ_SLICE_RESP: u8 = 8;
pub(crate) const T_PREPARE_REQ: u8 = 9;
pub(crate) const T_PREPARE_RESP: u8 = 10;
pub(crate) const T_COMMIT_TX: u8 = 11;
pub(crate) const T_REPLICATE: u8 = 12;
pub(crate) const T_HEARTBEAT: u8 = 13;
pub(crate) const T_GST_REPORT: u8 = 14;
pub(crate) const T_ROOT_GST: u8 = 15;
pub(crate) const T_UST_BROADCAST: u8 = 16;
pub(crate) const T_OP_FAILED: u8 = 17;
pub(crate) const T_REPLICATE_BATCH: u8 = 18;
pub(crate) const T_GOSSIP_DIGEST: u8 = 19;
// The read requests again, with per-key held-version stamps. Tags of their
// own keep the stamp-free frames above byte-identical to what older peers
// speak.
pub(crate) const T_READ_REQ_STAMPED: u8 = 20;
pub(crate) const T_READ_SLICE_REQ_STAMPED: u8 = 21;

/// Encodes a message to its wire representation.
pub fn encode(msg: &Msg) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    match msg {
        Msg::StartTxReq { client_ust } => {
            buf.put_u8(T_START_REQ);
            put_ts(&mut buf, *client_ust);
        }
        Msg::StartTxResp { tx, snapshot } => {
            buf.put_u8(T_START_RESP);
            put_tx(&mut buf, *tx);
            put_ts(&mut buf, *snapshot);
        }
        Msg::ReadReq { tx, keys } => {
            buf.put_u8(if any_held(keys) {
                T_READ_REQ_STAMPED
            } else {
                T_READ_REQ
            });
            put_tx(&mut buf, *tx);
            put_keys(&mut buf, keys);
        }
        Msg::ReadResp { tx, results } => {
            buf.put_u8(T_READ_RESP);
            put_tx(&mut buf, *tx);
            put_len(&mut buf, results.len());
            for r in results {
                put_read_result(&mut buf, r);
            }
        }
        Msg::CommitReq { tx, hwt, writes } => {
            buf.put_u8(T_COMMIT_REQ);
            put_tx(&mut buf, *tx);
            put_ts(&mut buf, *hwt);
            put_len(&mut buf, writes.len());
            for w in writes {
                put_write(&mut buf, w);
            }
        }
        Msg::CommitResp { tx, ct } => {
            buf.put_u8(T_COMMIT_RESP);
            put_tx(&mut buf, *tx);
            put_ts(&mut buf, *ct);
        }
        Msg::ReadSliceReq {
            tx,
            snapshot,
            keys,
            reply_to,
        } => {
            buf.put_u8(if any_held(keys) {
                T_READ_SLICE_REQ_STAMPED
            } else {
                T_READ_SLICE_REQ
            });
            put_tx(&mut buf, *tx);
            put_ts(&mut buf, *snapshot);
            put_server(&mut buf, *reply_to);
            put_keys(&mut buf, keys);
        }
        Msg::ReadSliceResp {
            tx,
            partition,
            results,
        } => {
            buf.put_u8(T_READ_SLICE_RESP);
            put_tx(&mut buf, *tx);
            put_partition(&mut buf, *partition);
            put_len(&mut buf, results.len());
            for r in results {
                put_read_result(&mut buf, r);
            }
        }
        Msg::PrepareReq {
            tx,
            snapshot,
            ht,
            writes,
            reply_to,
            src_dc,
        } => {
            buf.put_u8(T_PREPARE_REQ);
            put_tx(&mut buf, *tx);
            put_ts(&mut buf, *snapshot);
            put_ts(&mut buf, *ht);
            put_server(&mut buf, *reply_to);
            put_dc(&mut buf, *src_dc);
            put_len(&mut buf, writes.len());
            for w in writes {
                put_write(&mut buf, w);
            }
        }
        Msg::PrepareResp {
            tx,
            partition,
            proposed,
        } => {
            buf.put_u8(T_PREPARE_RESP);
            put_tx(&mut buf, *tx);
            put_partition(&mut buf, *partition);
            put_ts(&mut buf, *proposed);
        }
        Msg::CommitTx { tx, ct } => {
            buf.put_u8(T_COMMIT_TX);
            put_tx(&mut buf, *tx);
            put_ts(&mut buf, *ct);
        }
        Msg::Replicate {
            partition,
            txs,
            watermark,
        } => {
            buf.put_u8(T_REPLICATE);
            put_partition(&mut buf, *partition);
            put_ts(&mut buf, *watermark);
            put_len(&mut buf, txs.len());
            for t in txs {
                put_replicated_tx(&mut buf, t);
            }
        }
        Msg::ReplicateBatch {
            partition,
            txs,
            watermark,
            frames,
        } => {
            buf.put_u8(T_REPLICATE_BATCH);
            put_partition(&mut buf, *partition);
            put_ts(&mut buf, *watermark);
            buf.put_u32_le(*frames);
            put_len(&mut buf, txs.len());
            for t in txs {
                put_replicated_tx(&mut buf, t);
            }
        }
        Msg::Heartbeat {
            partition,
            watermark,
        } => {
            buf.put_u8(T_HEARTBEAT);
            put_partition(&mut buf, *partition);
            put_ts(&mut buf, *watermark);
        }
        Msg::GstReport {
            partition,
            mins,
            oldest_active,
        } => {
            buf.put_u8(T_GST_REPORT);
            put_partition(&mut buf, *partition);
            put_ts(&mut buf, *oldest_active);
            put_len(&mut buf, mins.len());
            for (dc, ts) in mins {
                put_dc(&mut buf, *dc);
                put_ts(&mut buf, *ts);
            }
        }
        Msg::RootGst {
            dc,
            gst,
            oldest_active,
        } => {
            buf.put_u8(T_ROOT_GST);
            put_dc(&mut buf, *dc);
            put_ts(&mut buf, *gst);
            put_ts(&mut buf, *oldest_active);
        }
        Msg::UstBroadcast { ust, s_old } => {
            buf.put_u8(T_UST_BROADCAST);
            put_ts(&mut buf, *ust);
            put_ts(&mut buf, *s_old);
        }
        Msg::GossipDigest {
            reports,
            roots,
            ust,
            frames,
        } => {
            buf.put_u8(T_GOSSIP_DIGEST);
            buf.put_u32_le(*frames);
            put_len(&mut buf, reports.len());
            for r in reports {
                put_digest_report(&mut buf, r);
            }
            put_len(&mut buf, roots.len());
            for (dc, gst, oldest) in roots {
                put_dc(&mut buf, *dc);
                put_ts(&mut buf, *gst);
                put_ts(&mut buf, *oldest);
            }
            match ust {
                None => buf.put_u8(0),
                Some((ust, s_old)) => {
                    buf.put_u8(1);
                    put_ts(&mut buf, *ust);
                    put_ts(&mut buf, *s_old);
                }
            }
        }
        Msg::OpFailed { tx } => {
            buf.put_u8(T_OP_FAILED);
            put_tx(&mut buf, *tx);
        }
    }
    buf.freeze()
}

/// Decodes a message from its wire representation.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the buffer is truncated, carries an
/// unknown tag, or declares impossible lengths.
pub fn decode(bytes: &[u8]) -> Result<Msg, DecodeError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let msg = match tag {
        T_START_REQ => Msg::StartTxReq {
            client_ust: get_ts(&mut buf)?,
        },
        T_START_RESP => Msg::StartTxResp {
            tx: get_tx(&mut buf)?,
            snapshot: get_ts(&mut buf)?,
        },
        T_READ_REQ | T_READ_REQ_STAMPED => Msg::ReadReq {
            tx: get_tx(&mut buf)?,
            keys: get_keys(&mut buf, tag == T_READ_REQ_STAMPED)?,
        },
        T_READ_RESP => {
            let tx = get_tx(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut results = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                results.push(get_read_result(&mut buf)?);
            }
            Msg::ReadResp { tx, results }
        }
        T_COMMIT_REQ => {
            let tx = get_tx(&mut buf)?;
            let hwt = get_ts(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut writes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                writes.push(get_write(&mut buf)?);
            }
            Msg::CommitReq { tx, hwt, writes }
        }
        T_COMMIT_RESP => Msg::CommitResp {
            tx: get_tx(&mut buf)?,
            ct: get_ts(&mut buf)?,
        },
        T_READ_SLICE_REQ | T_READ_SLICE_REQ_STAMPED => {
            let tx = get_tx(&mut buf)?;
            let snapshot = get_ts(&mut buf)?;
            let reply_to = get_server(&mut buf)?;
            let keys = get_keys(&mut buf, tag == T_READ_SLICE_REQ_STAMPED)?;
            Msg::ReadSliceReq {
                tx,
                snapshot,
                keys,
                reply_to,
            }
        }
        T_READ_SLICE_RESP => {
            let tx = get_tx(&mut buf)?;
            let partition = get_partition(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut results = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                results.push(get_read_result(&mut buf)?);
            }
            Msg::ReadSliceResp {
                tx,
                partition,
                results,
            }
        }
        T_PREPARE_REQ => {
            let tx = get_tx(&mut buf)?;
            let snapshot = get_ts(&mut buf)?;
            let ht = get_ts(&mut buf)?;
            let reply_to = get_server(&mut buf)?;
            let src_dc = get_dc(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut writes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                writes.push(get_write(&mut buf)?);
            }
            Msg::PrepareReq {
                tx,
                snapshot,
                ht,
                writes,
                reply_to,
                src_dc,
            }
        }
        T_PREPARE_RESP => Msg::PrepareResp {
            tx: get_tx(&mut buf)?,
            partition: get_partition(&mut buf)?,
            proposed: get_ts(&mut buf)?,
        },
        T_COMMIT_TX => Msg::CommitTx {
            tx: get_tx(&mut buf)?,
            ct: get_ts(&mut buf)?,
        },
        T_REPLICATE => {
            let partition = get_partition(&mut buf)?;
            let watermark = get_ts(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut txs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                txs.push(get_replicated_tx(&mut buf)?);
            }
            Msg::Replicate {
                partition,
                txs,
                watermark,
            }
        }
        T_REPLICATE_BATCH => {
            let partition = get_partition(&mut buf)?;
            let watermark = get_ts(&mut buf)?;
            need(&buf, 4)?;
            let frames = buf.get_u32_le();
            let n = get_len(&mut buf)?;
            let mut txs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                txs.push(get_replicated_tx(&mut buf)?);
            }
            Msg::ReplicateBatch {
                partition,
                txs,
                watermark,
                frames,
            }
        }
        T_HEARTBEAT => Msg::Heartbeat {
            partition: get_partition(&mut buf)?,
            watermark: get_ts(&mut buf)?,
        },
        T_GST_REPORT => {
            let partition = get_partition(&mut buf)?;
            let oldest_active = get_ts(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut mins = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let dc = get_dc(&mut buf)?;
                let ts = get_ts(&mut buf)?;
                mins.push((dc, ts));
            }
            Msg::GstReport {
                partition,
                mins,
                oldest_active,
            }
        }
        T_ROOT_GST => Msg::RootGst {
            dc: get_dc(&mut buf)?,
            gst: get_ts(&mut buf)?,
            oldest_active: get_ts(&mut buf)?,
        },
        T_UST_BROADCAST => Msg::UstBroadcast {
            ust: get_ts(&mut buf)?,
            s_old: get_ts(&mut buf)?,
        },
        T_GOSSIP_DIGEST => {
            need(&buf, 4)?;
            let frames = buf.get_u32_le();
            let n = get_len(&mut buf)?;
            let mut reports = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                reports.push(get_digest_report(&mut buf)?);
            }
            let n = get_len(&mut buf)?;
            let mut roots = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let dc = get_dc(&mut buf)?;
                let gst = get_ts(&mut buf)?;
                let oldest = get_ts(&mut buf)?;
                roots.push((dc, gst, oldest));
            }
            need(&buf, 1)?;
            let ust = match buf.get_u8() {
                0 => None,
                _ => Some((get_ts(&mut buf)?, get_ts(&mut buf)?)),
            };
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                frames,
            }
        }
        T_OP_FAILED => Msg::OpFailed {
            tx: get_tx(&mut buf)?,
        },
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(msg)
}

/// Exact encoded size of a message, without allocating.
///
/// Used by the simulated network for bandwidth accounting and by the
/// Table I metadata benchmark.
pub fn encoded_len(msg: &Msg) -> usize {
    const TS: usize = 8;
    const DC: usize = 2;
    const PART: usize = 4;
    const TX: usize = DC + PART + 8;
    const SERVER: usize = DC + PART;
    const KEY: usize = 8;
    const LEN: usize = 4;
    fn value_len(v: &Value) -> usize {
        LEN + v.len()
    }
    fn version_len(v: &Version) -> usize {
        KEY + value_len(&v.value) + TS + TX + DC
    }
    fn write_len(w: &WriteSetEntry) -> usize {
        KEY + value_len(&w.value)
    }
    fn result_len(r: &ReadResult) -> usize {
        KEY + 1 + r.outcome.version().map_or(0, version_len)
    }
    fn keys_len(keys: &[ReadKey]) -> usize {
        let plain = LEN + keys.len() * KEY;
        if any_held(keys) {
            let stamps = keys.iter().filter(|k| k.held.is_some()).count();
            plain + LEN + stamps * (LEN + TS + TX)
        } else {
            plain
        }
    }
    fn replicated_tx_len(t: &ReplicatedTx) -> usize {
        TX + TS + DC + LEN + t.writes.iter().map(write_len).sum::<usize>()
    }
    fn report_len(r: &DigestReport) -> usize {
        PART + TS + LEN + r.mins.len() * (DC + TS)
    }
    1 + match msg {
        Msg::StartTxReq { .. } => TS,
        Msg::StartTxResp { .. } => TX + TS,
        Msg::ReadReq { keys, .. } => TX + keys_len(keys),
        Msg::ReadResp { results, .. } => TX + LEN + results.iter().map(result_len).sum::<usize>(),
        Msg::CommitReq { writes, .. } => {
            TX + TS + LEN + writes.iter().map(write_len).sum::<usize>()
        }
        Msg::CommitResp { .. } => TX + TS,
        Msg::ReadSliceReq { keys, .. } => TX + TS + SERVER + keys_len(keys),
        Msg::ReadSliceResp { results, .. } => {
            TX + PART + LEN + results.iter().map(result_len).sum::<usize>()
        }
        Msg::PrepareReq { writes, .. } => {
            TX + TS + TS + SERVER + DC + LEN + writes.iter().map(write_len).sum::<usize>()
        }
        Msg::PrepareResp { .. } => TX + PART + TS,
        Msg::CommitTx { .. } => TX + TS,
        Msg::Replicate { txs, .. } => {
            PART + TS + LEN + txs.iter().map(replicated_tx_len).sum::<usize>()
        }
        Msg::ReplicateBatch { txs, .. } => {
            PART + TS + 4 + LEN + txs.iter().map(replicated_tx_len).sum::<usize>()
        }
        Msg::Heartbeat { .. } => PART + TS,
        Msg::GossipDigest {
            reports,
            roots,
            ust,
            ..
        } => {
            4 + LEN
                + reports.iter().map(report_len).sum::<usize>()
                + LEN
                + roots.len() * (DC + TS + TS)
                + 1
                + if ust.is_some() { TS + TS } else { 0 }
        }
        Msg::GstReport { mins, .. } => PART + TS + LEN + mins.len() * (DC + TS),
        Msg::RootGst { .. } => DC + TS + TS,
        Msg::UstBroadcast { .. } => TS + TS,
        Msg::OpFailed { .. } => TX,
    }
}

/// Metadata bytes in a v1-encoded message: everything that is not key or
/// value payload and not the message tag — i.e. the dependency-tracking
/// cost the paper's Table I compares across systems.
pub fn metadata_len(msg: &Msg) -> usize {
    metadata_len_with(msg, WireFormat::V1)
}

/// Metadata bytes in a message under the given encoding.
///
/// Key and payload bytes are sized as the *active* codec ships them — a
/// key costs its fixed 8 bytes under v1 but its varint width under v2,
/// and a value's length prefix likewise — so the split stays exact for
/// both encodings instead of assuming v1's fixed field widths.
pub fn metadata_len_with(msg: &Msg, wire: WireFormat) -> usize {
    let key = |k: Key| match wire {
        WireFormat::V1 => 8,
        WireFormat::V2 => wire2::key_len(k),
    };
    let value = |v: &Value| match wire {
        WireFormat::V1 => 4 + v.len(), // length prefix + bytes
        WireFormat::V2 => wire2::value_len(v),
    };
    // v1 ships a found version with its own copy of the key; v2 does not.
    let result = |r: &ReadResult| {
        key(r.key)
            + r.outcome.version().map_or(0, |v| match wire {
                WireFormat::V1 => key(v.key) + value(&v.value),
                WireFormat::V2 => value(&v.value),
            })
    };
    let write = |w: &WriteSetEntry| key(w.key) + value(&w.value);
    let payload_bytes: usize = match msg {
        Msg::ReadReq { keys, .. } | Msg::ReadSliceReq { keys, .. } => {
            keys.iter().map(|k| key(k.key)).sum()
        }
        Msg::ReadResp { results, .. } | Msg::ReadSliceResp { results, .. } => {
            results.iter().map(result).sum()
        }
        Msg::CommitReq { writes, .. } | Msg::PrepareReq { writes, .. } => {
            writes.iter().map(write).sum()
        }
        Msg::Replicate { txs, .. } | Msg::ReplicateBatch { txs, .. } => txs
            .iter()
            .map(|t| t.writes.iter().map(write).sum::<usize>())
            .sum(),
        _ => 0,
    };
    encoded_len_with(msg, wire) - 1 - payload_bytes
}

// ----------------------------------------------------- encoding dispatch

/// Encodes a message in the given encoding.
pub fn encode_with(msg: &Msg, wire: WireFormat) -> Bytes {
    match wire {
        WireFormat::V1 => encode(msg),
        WireFormat::V2 => wire2::encode(msg),
    }
}

/// Decodes a message known to be in the given encoding.
///
/// # Errors
///
/// Returns a [`DecodeError`] for malformed bytes, as [`decode`].
pub fn decode_with(bytes: &[u8], wire: WireFormat) -> Result<Msg, DecodeError> {
    match wire {
        WireFormat::V1 => decode(bytes),
        WireFormat::V2 => wire2::decode(bytes),
    }
}

/// Exact encoded size of a message under the given encoding.
pub fn encoded_len_with(msg: &Msg, wire: WireFormat) -> usize {
    match wire {
        WireFormat::V1 => encoded_len(msg),
        WireFormat::V2 => wire2::encoded_len(msg),
    }
}

/// Encodes an envelope as a frame payload in the given encoding.
pub fn encode_envelope_with(env: &Envelope, wire: WireFormat) -> Bytes {
    match wire {
        WireFormat::V1 => encode_envelope(env),
        WireFormat::V2 => wire2::encode_envelope(env),
    }
}

/// Exact frame-payload size of an envelope under the given encoding.
pub fn envelope_len_with(env: &Envelope, wire: WireFormat) -> usize {
    match wire {
        WireFormat::V1 => envelope_len(env),
        WireFormat::V2 => wire2::envelope_len(env),
    }
}

/// Decodes an envelope frame of either encoding, dispatching on the
/// first byte: v1 frames open with an endpoint tag (0 or 1), v2 frames
/// with the [`wire2::FRAME_V2`] marker. Any other first byte is rejected
/// as an unknown tag, so a frame can never be parsed under the wrong
/// codec.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated or malformed frames of either
/// encoding — never panics, whatever the input.
pub fn decode_envelope_auto(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    match bytes.first() {
        Some(&wire2::FRAME_V2) => wire2::decode_envelope(bytes),
        _ => decode_envelope(bytes),
    }
}

// ------------------------------------------------------------- envelopes

/// Endpoint discriminants in the envelope codec.
const E_SERVER: u8 = 0;
const E_CLIENT: u8 = 1;

/// Encoded size of an endpoint: tag byte + DC + partition/sequence.
const ENDPOINT_LEN: usize = 1 + 2 + 4;

fn put_endpoint(buf: &mut BytesMut, ep: Endpoint) {
    match ep {
        Endpoint::Server(s) => {
            buf.put_u8(E_SERVER);
            put_server(buf, s);
        }
        Endpoint::Client(c) => {
            buf.put_u8(E_CLIENT);
            put_dc(buf, c.dc);
            buf.put_u32_le(c.seq);
        }
    }
}

fn get_endpoint(buf: &mut Bytes) -> Result<Endpoint, DecodeError> {
    need(buf, 1)?;
    match buf.get_u8() {
        E_SERVER => Ok(Endpoint::Server(get_server(buf)?)),
        E_CLIENT => {
            let dc = get_dc(buf)?;
            need(buf, 4)?;
            Ok(Endpoint::Client(ClientId::new(dc, buf.get_u32_le())))
        }
        other => Err(DecodeError::UnknownTag(other)),
    }
}

/// Encodes a full envelope — source, destination and message — as one wire
/// frame payload. This is what the socket transport ships: endpoints ride
/// along so the receiving process can route replies without any
/// transport-level correlation state.
pub fn encode_envelope(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::with_capacity(envelope_len(env));
    put_endpoint(&mut buf, env.src);
    put_endpoint(&mut buf, env.dst);
    buf.put_slice(&encode(&env.msg));
    buf.freeze()
}

/// Decodes an envelope produced by [`encode_envelope`].
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated buffers, unknown endpoint or
/// message tags, or impossible lengths — never panics, whatever the input.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let src = get_endpoint(&mut buf)?;
    let dst = get_endpoint(&mut buf)?;
    let msg = decode(&bytes[bytes.len() - buf.remaining()..])?;
    Ok(Envelope { src, dst, msg })
}

/// Exact encoded size of an envelope, without allocating.
pub fn envelope_len(env: &Envelope) -> usize {
    2 * ENDPOINT_LEN + encoded_len(&env.msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tx(dc: u16, p: u32, seq: u64) -> TxId {
        TxId {
            dc: DcId(dc),
            partition: PartitionId(p),
            seq,
        }
    }

    fn sample_messages() -> Vec<Msg> {
        let t = tx(1, 2, 3);
        let srv = ServerId::new(DcId(0), PartitionId(7));
        let ver = Version::new(
            Key(9),
            Value::from("hello"),
            Timestamp::from_parts(100, 1),
            t,
            DcId(1),
        );
        vec![
            Msg::StartTxReq {
                client_ust: Timestamp::from_parts(5, 0),
            },
            Msg::StartTxResp {
                tx: t,
                snapshot: Timestamp::from_parts(10, 2),
            },
            Msg::ReadReq {
                tx: t,
                keys: vec![Key(1).into(), Key(2).into()],
            },
            Msg::ReadReq {
                tx: t,
                keys: vec![
                    Key(1).into(),
                    ReadKey {
                        key: Key(9),
                        held: Some(ver.stamp()),
                    },
                    ReadKey {
                        key: Key(3),
                        held: Some(VersionStamp {
                            ut: Timestamp::from_parts(90, 0),
                            tx: t,
                        }),
                    },
                ],
            },
            Msg::ReadResp {
                tx: t,
                results: vec![
                    ReadResult {
                        key: Key(9),
                        outcome: ReadOutcome::Found(ver.clone()),
                    },
                    ReadResult {
                        key: Key(2),
                        outcome: ReadOutcome::Absent,
                    },
                    ReadResult {
                        key: Key(3),
                        outcome: ReadOutcome::Unchanged,
                    },
                ],
            },
            Msg::CommitReq {
                tx: t,
                hwt: Timestamp::from_parts(50, 0),
                writes: vec![WriteSetEntry::new(Key(3), Value::from("v"))],
            },
            Msg::CommitResp {
                tx: t,
                ct: Timestamp::from_parts(60, 0),
            },
            Msg::ReadSliceReq {
                tx: t,
                snapshot: Timestamp::from_parts(10, 0),
                keys: vec![Key(4).into()],
                reply_to: srv,
            },
            Msg::ReadSliceReq {
                tx: t,
                snapshot: Timestamp::from_parts(120, 0),
                keys: vec![
                    ReadKey {
                        key: Key(9),
                        held: Some(ver.stamp()),
                    },
                    Key(4).into(),
                ],
                reply_to: srv,
            },
            Msg::ReadSliceResp {
                tx: t,
                partition: PartitionId(7),
                results: vec![
                    ReadResult {
                        key: Key(9),
                        outcome: ReadOutcome::Found(ver.clone()),
                    },
                    ReadResult {
                        key: Key(4),
                        outcome: ReadOutcome::Unchanged,
                    },
                ],
            },
            Msg::PrepareReq {
                tx: t,
                snapshot: Timestamp::from_parts(10, 0),
                ht: Timestamp::from_parts(55, 0),
                writes: vec![WriteSetEntry::new(Key(3), Value::from("v"))],
                reply_to: srv,
                src_dc: DcId(1),
            },
            Msg::PrepareResp {
                tx: t,
                partition: PartitionId(7),
                proposed: Timestamp::from_parts(70, 1),
            },
            Msg::CommitTx {
                tx: t,
                ct: Timestamp::from_parts(71, 0),
            },
            Msg::Replicate {
                partition: PartitionId(7),
                txs: vec![ReplicatedTx {
                    tx: t,
                    ct: Timestamp::from_parts(71, 0),
                    src: DcId(1),
                    writes: vec![WriteSetEntry::new(Key(3), Value::from("v"))],
                }],
                watermark: Timestamp::from_parts(80, 0),
            },
            Msg::Heartbeat {
                partition: PartitionId(7),
                watermark: Timestamp::from_parts(81, 0),
            },
            Msg::GstReport {
                partition: PartitionId(7),
                mins: vec![
                    (DcId(0), Timestamp::from_parts(40, 0)),
                    (DcId(1), Timestamp::from_parts(41, 0)),
                ],
                oldest_active: Timestamp::from_parts(39, 0),
            },
            Msg::RootGst {
                dc: DcId(2),
                gst: Timestamp::from_parts(38, 0),
                oldest_active: Timestamp::from_parts(37, 0),
            },
            Msg::UstBroadcast {
                ust: Timestamp::from_parts(36, 0),
                s_old: Timestamp::from_parts(30, 0),
            },
            Msg::ReplicateBatch {
                partition: PartitionId(7),
                txs: vec![ReplicatedTx {
                    tx: t,
                    ct: Timestamp::from_parts(71, 0),
                    src: DcId(1),
                    writes: vec![WriteSetEntry::new(Key(3), Value::from("v"))],
                }],
                watermark: Timestamp::from_parts(90, 0),
                frames: 3,
            },
            Msg::GossipDigest {
                reports: vec![DigestReport {
                    partition: PartitionId(7),
                    mins: vec![(DcId(0), Timestamp::from_parts(40, 0))],
                    oldest_active: Timestamp::from_parts(39, 0),
                }],
                roots: vec![(
                    DcId(2),
                    Timestamp::from_parts(38, 0),
                    Timestamp::from_parts(37, 0),
                )],
                ust: Some((Timestamp::from_parts(36, 0), Timestamp::from_parts(30, 0))),
                frames: 4,
            },
            Msg::GossipDigest {
                reports: vec![],
                roots: vec![],
                ust: None,
                frames: 1,
            },
            Msg::OpFailed { tx: t },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", msg.kind()));
            assert_eq!(back, msg, "{} roundtrip", msg.kind());
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_message() {
        for msg in sample_messages() {
            assert_eq!(
                encode(&msg).len(),
                encoded_len(&msg),
                "{} length",
                msg.kind()
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(decode(&[200u8]), Err(DecodeError::UnknownTag(200)));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            // Every strict prefix must fail, never panic.
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "{} prefix {cut} decoded",
                    msg.kind()
                );
            }
        }
    }

    #[test]
    fn decode_rejects_oversized_value_length() {
        // CommitReq with a write whose value length prefix exceeds buffer.
        let msg = Msg::CommitReq {
            tx: tx(0, 0, 1),
            hwt: Timestamp::ZERO,
            writes: vec![WriteSetEntry::new(Key(1), Value::from("abc"))],
        };
        let mut bytes = encode(&msg).to_vec();
        // The value length prefix sits 4+3 bytes from the end; corrupt it.
        let n = bytes.len();
        bytes[n - 7..n - 3].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(DecodeError::BadLength));
    }

    #[test]
    fn snapshot_metadata_is_one_timestamp() {
        // The headline Table I claim: transactional snapshot metadata in
        // client-facing messages is exactly one 8-byte timestamp.
        let start = Msg::StartTxReq {
            client_ust: Timestamp::ZERO,
        };
        assert_eq!(metadata_len(&start), 8);
        let ust = Msg::UstBroadcast {
            ust: Timestamp::ZERO,
            s_old: Timestamp::ZERO,
        };
        assert_eq!(metadata_len(&ust), 16);
    }

    #[test]
    fn metadata_excludes_key_and_value_payload() {
        let small = Msg::CommitReq {
            tx: tx(0, 0, 1),
            hwt: Timestamp::ZERO,
            writes: vec![WriteSetEntry::new(Key(1), Value::filled(8, 1))],
        };
        let large = Msg::CommitReq {
            tx: tx(0, 0, 1),
            hwt: Timestamp::ZERO,
            writes: vec![WriteSetEntry::new(Key(1), Value::filled(4096, 1))],
        };
        assert_eq!(
            metadata_len(&small),
            metadata_len(&large),
            "metadata must not scale with payload"
        );
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
                ReadResult {
                    key: Key(k),
                    outcome,
                }
            }),
            0..8,
        )
    }

    fn arb_msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            arb_ts().prop_map(|client_ust| Msg::StartTxReq { client_ust }),
            (arb_tx(), arb_ts()).prop_map(|(tx, snapshot)| Msg::StartTxResp { tx, snapshot }),
            (arb_tx(), arb_keys()).prop_map(|(tx, keys)| Msg::ReadReq { tx, keys }),
            (arb_tx(), arb_results()).prop_map(|(tx, results)| Msg::ReadResp { tx, results }),
            (arb_tx(), arb_ts(), arb_writes()).prop_map(|(tx, hwt, writes)| Msg::CommitReq {
                tx,
                hwt,
                writes
            }),
            (arb_tx(), arb_ts()).prop_map(|(tx, ct)| Msg::CommitResp { tx, ct }),
            (arb_tx(), arb_ts(), arb_keys(), any::<u16>(), any::<u32>()).prop_map(
                |(tx, snapshot, keys, d, p)| Msg::ReadSliceReq {
                    tx,
                    snapshot,
                    keys,
                    reply_to: ServerId::new(DcId(d), PartitionId(p)),
                }
            ),
            (arb_tx(), any::<u32>(), arb_results()).prop_map(|(tx, p, results)| {
                Msg::ReadSliceResp {
                    tx,
                    partition: PartitionId(p),
                    results,
                }
            }),
            (
                arb_tx(),
                arb_ts(),
                arb_ts(),
                arb_writes(),
                any::<u16>(),
                any::<u32>(),
                any::<u16>()
            )
                .prop_map(|(tx, snapshot, ht, writes, d, p, sd)| Msg::PrepareReq {
                    tx,
                    snapshot,
                    ht,
                    writes,
                    reply_to: ServerId::new(DcId(d), PartitionId(p)),
                    src_dc: DcId(sd),
                }),
            (arb_tx(), any::<u32>(), arb_ts()).prop_map(|(tx, p, proposed)| Msg::PrepareResp {
                tx,
                partition: PartitionId(p),
                proposed,
            }),
            (arb_tx(), arb_ts()).prop_map(|(tx, ct)| Msg::CommitTx { tx, ct }),
            (
                any::<u32>(),
                arb_ts(),
                proptest::collection::vec((arb_tx(), arb_ts(), any::<u16>(), arb_writes()), 0..4)
            )
                .prop_map(|(p, wm, txs)| Msg::Replicate {
                    partition: PartitionId(p),
                    watermark: wm,
                    txs: txs
                        .into_iter()
                        .map(|(tx, ct, src, writes)| ReplicatedTx {
                            tx,
                            ct,
                            src: DcId(src),
                            writes,
                        })
                        .collect(),
                }),
            (any::<u32>(), arb_ts()).prop_map(|(p, wm)| Msg::Heartbeat {
                partition: PartitionId(p),
                watermark: wm,
            }),
            (
                any::<u32>(),
                proptest::collection::vec((any::<u16>(), arb_ts()), 0..8),
                arb_ts()
            )
                .prop_map(|(p, mins, oa)| Msg::GstReport {
                    partition: PartitionId(p),
                    mins: mins.into_iter().map(|(d, t)| (DcId(d), t)).collect(),
                    oldest_active: oa,
                }),
            (any::<u16>(), arb_ts(), arb_ts()).prop_map(|(d, gst, oa)| Msg::RootGst {
                dc: DcId(d),
                gst,
                oldest_active: oa,
            }),
            (arb_ts(), arb_ts()).prop_map(|(ust, s_old)| Msg::UstBroadcast { ust, s_old }),
            arb_tx().prop_map(|tx| Msg::OpFailed { tx }),
            (
                any::<u32>(),
                arb_ts(),
                any::<u32>(),
                proptest::collection::vec((arb_tx(), arb_ts(), any::<u16>(), arb_writes()), 0..4)
            )
                .prop_map(|(p, wm, frames, txs)| Msg::ReplicateBatch {
                    partition: PartitionId(p),
                    watermark: wm,
                    frames,
                    txs: txs
                        .into_iter()
                        .map(|(tx, ct, src, writes)| ReplicatedTx {
                            tx,
                            ct,
                            src: DcId(src),
                            writes,
                        })
                        .collect(),
                }),
            (
                proptest::collection::vec(arb_digest_report(), 0..4),
                proptest::collection::vec((any::<u16>(), arb_ts(), arb_ts()), 0..4),
                proptest::option::of((arb_ts(), arb_ts())),
                any::<u32>()
            )
                .prop_map(|(reports, roots, ust, frames)| Msg::GossipDigest {
                    reports,
                    roots: roots.into_iter().map(|(d, g, o)| (DcId(d), g, o)).collect(),
                    ust,
                    frames,
                }),
        ]
    }

    fn arb_digest_report() -> impl Strategy<Value = DigestReport> {
        (
            any::<u32>(),
            proptest::collection::vec((any::<u16>(), arb_ts()), 0..6),
            arb_ts(),
        )
            .prop_map(|(p, mins, oldest_active)| DigestReport {
                partition: PartitionId(p),
                mins: mins.into_iter().map(|(d, t)| (DcId(d), t)).collect(),
                oldest_active,
            })
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
                    let bytes = encode_envelope(&env);
                    assert_eq!(bytes.len(), envelope_len(&env));
                    assert_eq!(decode_envelope(&bytes).unwrap(), env);
                }
            }
        }
    }

    #[test]
    fn envelope_decode_rejects_truncation_and_bad_endpoint_tags() {
        let env = Envelope::new(
            ClientId::new(DcId(0), 1),
            ServerId::new(DcId(0), PartitionId(0)),
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        let bytes = encode_envelope(&env);
        for cut in 0..bytes.len() {
            assert!(decode_envelope(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut corrupt = bytes.to_vec();
        corrupt[0] = 9; // endpoint tags are 0 or 1
        assert_eq!(decode_envelope(&corrupt), Err(DecodeError::UnknownTag(9)));
    }

    #[test]
    fn v1_encoding_is_bit_for_bit_stable() {
        // Golden bytes: v1 must never change shape, whatever happens to
        // v2 — older peers negotiate down to exactly these frames.
        let msg = Msg::StartTxReq {
            client_ust: Timestamp::from_parts(0x0102_0304, 5),
        };
        assert_eq!(
            encode(&msg).as_ref(),
            [1u8, 5, 0, 4, 3, 2, 1, 0, 0],
            "tag + packed LE timestamp"
        );
        let hb = Msg::Heartbeat {
            partition: PartitionId(7),
            watermark: Timestamp::from_parts(2, 1),
        };
        assert_eq!(
            encode(&hb).as_ref(),
            [13u8, 7, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0],
            "tag + u32 partition + packed LE timestamp"
        );
        let env = Envelope::new(
            ClientId::new(DcId(3), 9),
            ServerId::new(DcId(0), PartitionId(2)),
            msg,
        );
        assert_eq!(
            encode_envelope(&env).as_ref(),
            [
                1u8, 3, 0, 9, 0, 0, 0, // client endpoint
                0, 0, 0, 2, 0, 0, 0, // server endpoint
                1, 5, 0, 4, 3, 2, 1, 0, 0, // message
            ],
        );
    }

    #[test]
    fn v2_roundtrips_every_sample_with_exact_length() {
        for msg in sample_messages() {
            let bytes = wire2::encode(&msg);
            assert_eq!(bytes.len(), wire2::encoded_len(&msg), "{}", msg.kind());
            assert_eq!(wire2::decode(&bytes).unwrap(), msg, "{}", msg.kind());
        }
    }

    #[test]
    fn v2_rejects_truncation_everywhere() {
        for msg in sample_messages() {
            let bytes = wire2::encode(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    wire2::decode(&bytes[..cut]).is_err(),
                    "{} v2 prefix {cut} decoded",
                    msg.kind()
                );
            }
        }
    }

    #[test]
    fn v2_shrinks_background_traffic() {
        // The tentpole claim, on representative background frames
        // (envelope included — that is what the byte accounting counts)
        // with realistic timestamps: varints plus trimmed timestamps
        // must cut at least 30% of v1's bytes.
        let now = Timestamp::from_parts(3_600_000_000, 3); // 1h uptime in µs
        let background = [
            Msg::Heartbeat {
                partition: PartitionId(17),
                watermark: now,
            },
            Msg::GstReport {
                partition: PartitionId(17),
                mins: vec![(DcId(0), now), (DcId(1), now)],
                oldest_active: now,
            },
            Msg::RootGst {
                dc: DcId(2),
                gst: now,
                oldest_active: now,
            },
            Msg::UstBroadcast {
                ust: now,
                s_old: now,
            },
            Msg::Replicate {
                partition: PartitionId(17),
                txs: vec![ReplicatedTx {
                    tx: tx(1, 17, 12_345),
                    ct: now,
                    src: DcId(1),
                    writes: vec![WriteSetEntry::new(Key(831), Value::filled(8, 1))],
                }],
                watermark: now,
            },
        ];
        for msg in background {
            assert!(msg.is_background(), "{} classed background", msg.kind());
            let env = Envelope::new(
                ServerId::new(DcId(0), PartitionId(17)),
                ServerId::new(DcId(1), PartitionId(17)),
                msg,
            );
            let (v1, v2) = (envelope_len(&env), wire2::envelope_len(&env));
            assert!(
                (v2 as f64) <= 0.70 * v1 as f64,
                "{}: v2 {v2}B vs v1 {v1}B — less than a 30% cut",
                env.msg.kind()
            );
        }
    }

    #[test]
    fn v2_handles_u64_boundary_values() {
        // Maximum-width varints everywhere a u64/u48/u32/u16 can ride.
        let max_ts = Timestamp::from_parts((1 << 48) - 1, u16::MAX);
        let msg = Msg::ReadResp {
            tx: tx(u16::MAX, u32::MAX, u64::MAX),
            results: vec![ReadResult {
                key: Key(u64::MAX),
                outcome: ReadOutcome::Found(Version::new(
                    Key(u64::MAX),
                    Value::filled(8, 0xff),
                    max_ts,
                    tx(u16::MAX, u32::MAX, u64::MAX),
                    DcId(u16::MAX),
                )),
            }],
        };
        let bytes = wire2::encode(&msg);
        assert_eq!(bytes.len(), wire2::encoded_len(&msg));
        assert_eq!(wire2::decode(&bytes).unwrap(), msg);
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
                ReadKey {
                    key: Key(u64::MAX),
                    held: Some(stamp(0, 0)),
                },
                ReadKey {
                    key: Key(0),
                    held: Some(stamp((1 << 48) - 1, u16::MAX)),
                },
                ReadKey {
                    key: Key(1),
                    held: Some(stamp(0, 1)),
                },
            ],
            reply_to: ServerId::new(DcId(u16::MAX), PartitionId(u32::MAX)),
        };
        let bytes = wire2::encode(&msg);
        assert_eq!(bytes.len(), wire2::encoded_len(&msg));
        assert_eq!(wire2::decode(&bytes).unwrap(), msg);
        // A physical part beyond 48 bits cannot come off the encoder;
        // the decoder must reject it rather than silently truncate.
        let mut forged = BytesMut::new();
        forged.put_u8(T_UST_BROADCAST);
        crate::varint::put(&mut forged, 1 << 48);
        assert!(wire2::decode(forged.as_ref()).is_err());
    }

    /// A stamped `ReadReq` frame in v2, up to (not including) the first
    /// stamp's delta varint: tag, tx (0,0,1), one key (5), one stamp, on
    /// key index 0.
    fn forged_stamped_read_req_prefix() -> BytesMut {
        let mut forged = BytesMut::new();
        forged.put_slice(&[T_READ_REQ_STAMPED, 0, 0, 1, 1, 5, 1, 0]);
        forged
    }

    #[test]
    fn v2_rejects_stamp_deltas_that_leave_the_48_bit_range() {
        // +2^48 from the zero base: one past the largest physical time.
        let mut over = forged_stamped_read_req_prefix();
        crate::varint::put(&mut over, (1u64 << 48) << 1);
        over.put_slice(&[0, 0, 0, 1]); // logical, tx
        assert_eq!(wire2::decode(over.as_ref()), Err(DecodeError::BadLength));
        // −1 from the zero base: below zero.
        let mut under = forged_stamped_read_req_prefix();
        crate::varint::put(&mut under, 1);
        under.put_slice(&[0, 0, 0, 1]);
        assert_eq!(wire2::decode(under.as_ref()), Err(DecodeError::BadLength));
        // The widest zigzag value (i64::MIN) must not overflow the sum.
        let mut widest = forged_stamped_read_req_prefix();
        crate::varint::put(&mut widest, u64::MAX);
        widest.put_slice(&[0, 0, 0, 1]);
        assert_eq!(wire2::decode(widest.as_ref()), Err(DecodeError::BadLength));
        // A logical part wider than 16 bits.
        let mut logical = forged_stamped_read_req_prefix();
        crate::varint::put(&mut logical, 2); // +1 µs
        crate::varint::put(&mut logical, 1 << 16);
        logical.put_slice(&[0, 0, 1]);
        assert_eq!(wire2::decode(logical.as_ref()), Err(DecodeError::BadLength));
    }

    #[test]
    fn stamps_outside_the_key_list_are_rejected_in_both_encodings() {
        // Two keys, one stamp; the stamp's index is the last thing before
        // its identity. v2: tag, tx, n, k, k, stamps, gap. v1: tag, tx(14),
        // n(4), k(8), k(8), stamps(4), index(4).
        let stamped = Msg::ReadReq {
            tx: tx(0, 0, 1),
            keys: vec![
                Key(5).into(),
                ReadKey {
                    key: Key(6),
                    held: Some(VersionStamp {
                        ut: Timestamp::from_parts(1, 0),
                        tx: tx(0, 0, 1),
                    }),
                },
            ],
        };
        for (wire, index_at) in [(WireFormat::V2, 8), (WireFormat::V1, 39)] {
            let good = encode_with(&stamped, wire).to_vec();
            assert_eq!(good[index_at], 1, "{wire}: stamp index located");
            assert_eq!(decode_with(&good, wire).unwrap(), stamped);
            let mut past_the_end = good.clone();
            past_the_end[index_at] = 2;
            assert_eq!(
                decode_with(&past_the_end, wire),
                Err(DecodeError::BadLength),
                "{wire}"
            );
            // More stamps than keys can only repeat or overrun an index.
            let mut too_many = good.clone();
            too_many[index_at - if wire == WireFormat::V1 { 4 } else { 1 }] = 3;
            assert!(decode_with(&too_many, wire).is_err(), "{wire}");
        }
        // v1 carries absolute indices: a repeated one is rejected too.
        let twice = Msg::ReadReq {
            tx: tx(0, 0, 1),
            keys: (5..7)
                .map(|k| ReadKey {
                    key: Key(k),
                    held: Some(VersionStamp {
                        ut: Timestamp::from_parts(1, 0),
                        tx: tx(0, 0, 1),
                    }),
                })
                .collect(),
        };
        let mut repeated = encode(&twice).to_vec();
        let second_index = 39 + 4 + 8 + 14;
        assert_eq!(repeated[second_index], 1);
        repeated[second_index] = 0;
        assert_eq!(decode(&repeated), Err(DecodeError::BadLength));
    }

    #[test]
    fn an_unknown_outcome_byte_is_rejected_in_both_encodings() {
        let unchanged = Msg::ReadResp {
            tx: tx(0, 0, 1),
            results: vec![ReadResult {
                key: Key(5),
                outcome: ReadOutcome::Unchanged,
            }],
        };
        for wire in [WireFormat::V1, WireFormat::V2] {
            let mut bytes = encode_with(&unchanged, wire).to_vec();
            let last = bytes.len() - 1;
            assert_eq!(bytes[last], R_UNCHANGED);
            bytes[last] = 3;
            assert_eq!(
                decode_with(&bytes, wire),
                Err(DecodeError::UnknownTag(3)),
                "{wire}"
            );
        }
    }

    #[test]
    fn stamp_free_frames_are_byte_identical_to_the_pre_stamp_codec() {
        // Goldens taken from the codec before stamps existed: a request
        // with nothing to validate and a full result must cost exactly
        // what they always did (v2's result ships its key once now — the
        // golden is the old frame minus the second copy of the key).
        let t = tx(1, 2, 3);
        let read = Msg::ReadReq {
            tx: t,
            keys: vec![Key(1).into(), Key(300).into()],
        };
        let slice = Msg::ReadSliceReq {
            tx: t,
            snapshot: Timestamp::from_parts(10, 2),
            keys: vec![Key(4).into()],
            reply_to: ServerId::new(DcId(0), PartitionId(7)),
        };
        let resp = Msg::ReadSliceResp {
            tx: t,
            partition: PartitionId(7),
            results: vec![
                ReadResult {
                    key: Key(9),
                    outcome: ReadOutcome::Found(Version::new(
                        Key(9),
                        Value::from("hi"),
                        Timestamp::from_parts(100, 1),
                        t,
                        DcId(1),
                    )),
                },
                ReadResult {
                    key: Key(2),
                    outcome: ReadOutcome::Absent,
                },
            ],
        };
        assert_eq!(
            wire2::encode(&read).as_ref(),
            [3u8, 1, 2, 3, 2, 1, 0xAC, 0x02]
        );
        assert_eq!(
            wire2::encode(&slice).as_ref(),
            [7u8, 1, 2, 3, 10, 2, 0, 7, 1, 4]
        );
        assert_eq!(
            wire2::encode(&resp).as_ref(),
            [
                8u8, 1, 2, 3, 7, 2, // tag, tx, partition, count
                9, 1, /* (old: key 9 again) */ 2, b'h', b'i', 100, 1, 1, 2, 3,
                1, // found
                2, 0, // absent
            ]
        );
        assert_eq!(
            encode(&read).as_ref(),
            [
                3u8, 1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // tag, tx
                2, 0, 0, 0, // count
                1, 0, 0, 0, 0, 0, 0, 0, 0x2C, 1, 0, 0, 0, 0, 0, 0, // keys
            ]
        );
        assert_eq!(
            encode(&slice).as_ref(),
            [
                7u8, 1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // tag, tx
                2, 0, 10, 0, 0, 0, 0, 0, // snapshot: logical | physical << 16
                0, 0, 7, 0, 0, 0, // reply_to
                1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, // count, key
            ]
        );
        assert_eq!(
            encode(&resp).as_ref(),
            [
                8u8, 1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // tag, tx
                7, 0, 0, 0, 2, 0, 0, 0, // partition, count
                9, 0, 0, 0, 0, 0, 0, 0, 1, // key, found
                9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'h', b'i', // version: key, value
                1, 0, 100, 0, 0, 0, 0, 0, // ut
                1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, // tx, src
                2, 0, 0, 0, 0, 0, 0, 0, 0, // key, absent
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
            results: vec![ReadResult {
                key: Key(831),
                outcome,
            }],
        };
        let found = wire2::encoded_len(&resp(ReadOutcome::Found(version)));
        let unchanged = wire2::encoded_len(&resp(ReadOutcome::Unchanged));
        let absent = wire2::encoded_len(&resp(ReadOutcome::Absent));
        assert_eq!(unchanged, absent, "the option byte's third value is free");
        assert!(found - unchanged > 1024, "{found} vs {unchanged}");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One message per v2 tag (both forms where a tag has two), with
    /// multi-byte varints, and the frame the v2 encoder produced for it.
    fn golden_messages() -> Vec<(Msg, &'static str)> {
        let t = tx(1, 2, 12_345);
        let srv = ServerId::new(DcId(3), PartitionId(300));
        let now = Timestamp::from_parts(3_600_000_000, 3);
        let held = VersionStamp {
            ut: Timestamp::from_parts(3_599_999_000, 1),
            tx: tx(2, 300, 77),
        };
        let older = VersionStamp {
            ut: Timestamp::from_parts(3_599_000_000, 0),
            tx: t,
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
                    tx: t,
                    keys: vec![Key(1).into(), Key(831).into()],
                },
                "030102b9600201bf06",
            ),
            (
                Msg::ReadReq {
                    tx: t,
                    keys: vec![
                        Key(1).into(),
                        ReadKey {
                            key: Key(831),
                            held: Some(held),
                        },
                        Key(7).into(),
                        ReadKey {
                            key: Key(9),
                            held: Some(older),
                        },
                    ],
                },
                "140102b9600401bf0607090201b0809de91a0102ac024d01aff979000102b960",
            ),
            (
                Msg::ReadResp {
                    tx: t,
                    results: vec![
                        ReadResult {
                            key: Key(831),
                            outcome: ReadOutcome::Found(version.clone()),
                        },
                        ReadResult {
                            key: Key(2),
                            outcome: ReadOutcome::Absent,
                        },
                        ReadResult {
                            key: Key(300),
                            outcome: ReadOutcome::Unchanged,
                        },
                    ],
                },
                "040102b96003bf06010568656c6c6f98c0ceb40d0102ac024d020200ac0202",
            ),
            (
                Msg::CommitReq {
                    tx: t,
                    hwt: now,
                    writes: writes.clone(),
                },
                "050102b96080c8ceb40d0302bf060276310503acacac",
            ),
            (Msg::CommitResp { tx: t, ct: now }, "060102b96080c8ceb40d03"),
            (
                Msg::ReadSliceReq {
                    tx: t,
                    snapshot: now,
                    keys: vec![Key(4).into(), Key(831).into()],
                    reply_to: srv,
                },
                "070102b96080c8ceb40d0303ac020204bf06",
            ),
            (
                Msg::ReadSliceReq {
                    tx: t,
                    snapshot: now,
                    keys: vec![
                        ReadKey {
                            key: Key(831),
                            held: Some(held),
                        },
                        Key(4).into(),
                        ReadKey {
                            key: Key(9),
                            held: Some(older),
                        },
                    ],
                    reply_to: srv,
                },
                "150102b96080c8ceb40d0303ac0203bf0604090200cf0f0102ac024d01aff979000102b960",
            ),
            (
                Msg::ReadSliceResp {
                    tx: t,
                    partition: PartitionId(300),
                    results: vec![
                        ReadResult {
                            key: Key(831),
                            outcome: ReadOutcome::Found(version),
                        },
                        ReadResult {
                            key: Key(4),
                            outcome: ReadOutcome::Unchanged,
                        },
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
                    reply_to: srv,
                    src_dc: DcId(1),
                },
                "090102b96080c8ceb40d03f4cbceb40d0003ac020102bf060276310503acacac",
            ),
            (
                Msg::PrepareResp {
                    tx: t,
                    partition: PartitionId(300),
                    proposed: now,
                },
                "0a0102b960ac0280c8ceb40d03",
            ),
            (Msg::CommitTx { tx: t, ct: now }, "0b0102b96080c8ceb40d03"),
            (
                Msg::Replicate {
                    partition: PartitionId(300),
                    txs: vec![rtx(200, 3_600_000_100)],
                    watermark: now,
                },
                "0cac0280c8ceb40d030101ac02c801e4c8ceb40d000101c8010177",
            ),
            (
                Msg::Heartbeat {
                    partition: PartitionId(300),
                    watermark: now,
                },
                "0dac0280c8ceb40d03",
            ),
            (
                Msg::GstReport {
                    partition: PartitionId(300),
                    mins: vec![(DcId(0), now), (DcId(300), Timestamp::from_parts(5, 0))],
                    oldest_active: now,
                },
                "0eac0280c8ceb40d03020080c8ceb40d03ac020500",
            ),
            (
                Msg::RootGst {
                    dc: DcId(2),
                    gst: now,
                    oldest_active: Timestamp::ZERO,
                },
                "0f0280c8ceb40d030000",
            ),
            (
                Msg::UstBroadcast {
                    ust: now,
                    s_old: Timestamp::from_parts(3_599_000_000, 0),
                },
                "1080c8ceb40d03c0c391b40d00",
            ),
            (Msg::OpFailed { tx: t }, "110102b960"),
            (
                Msg::ReplicateBatch {
                    partition: PartitionId(300),
                    txs: vec![rtx(200, 3_600_000_100), rtx(201, 3_600_000_200)],
                    watermark: now,
                    frames: 130,
                },
                "12ac0280c8ceb40d0382010201ac02c801e4c8ceb40d000101c801017701ac02c901c8c9ceb40d000101c9010177",
            ),
            (
                Msg::GossipDigest {
                    reports: vec![DigestReport {
                        partition: PartitionId(300),
                        mins: vec![(DcId(0), now), (DcId(1), Timestamp::from_parts(9, 1))],
                        oldest_active: now,
                    }],
                    roots: vec![(DcId(2), now, Timestamp::from_parts(3_599_000_000, 0))],
                    ust: Some((now, Timestamp::from_parts(3_599_000_000, 0))),
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
        ]
    }

    #[test]
    fn golden_frames_of_every_tag_are_pinned() {
        let mut tags = std::collections::BTreeSet::new();
        for (msg, golden) in golden_messages() {
            let bytes = wire2::encode(&msg);
            assert_eq!(hex(&bytes), golden, "{}", msg.kind());
            assert_eq!(wire2::decode(&bytes).unwrap(), msg, "{}", msg.kind());
            tags.insert(bytes[0]);
        }
        assert_eq!(
            tags.into_iter().collect::<Vec<_>>(),
            (T_START_REQ..=T_READ_SLICE_REQ_STAMPED).collect::<Vec<_>>(),
            "one golden per tag"
        );
    }

    #[test]
    fn golden_envelope_frames_are_pinned() {
        let client = ClientId::new(DcId(3), 70_000);
        let coordinator = ServerId::new(DcId(3), PartitionId(2));
        let cohort = ServerId::new(DcId(300), PartitionId(17));
        let start = Msg::StartTxReq {
            client_ust: Timestamp::from_parts(3_600_000_000, 3),
        };
        let heartbeat = Msg::Heartbeat {
            partition: PartitionId(17),
            watermark: Timestamp::from_parts(3_600_000_000, 0),
        };
        for (env, golden) in [
            (
                Envelope::new(client, coordinator, start),
                "f20103f0a2040003020180c8ceb40d03",
            ),
            (
                Envelope::new(coordinator, cohort, heartbeat),
                "f200030200ac02110d1180c8ceb40d00",
            ),
        ] {
            let bytes = wire2::encode_envelope(&env);
            assert_eq!(bytes[0], wire2::FRAME_V2);
            assert_eq!(hex(&bytes), golden);
            assert_eq!(decode_envelope_auto(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn auto_dispatch_decodes_both_encodings_and_rejects_others() {
        for msg in sample_messages() {
            let env = Envelope::new(
                ServerId::new(DcId(1), PartitionId(2)),
                ServerId::new(DcId(3), PartitionId(4)),
                msg,
            );
            let v1 = encode_envelope(&env);
            let v2 = wire2::encode_envelope(&env);
            assert_eq!(decode_envelope_auto(&v1).unwrap(), env);
            assert_eq!(decode_envelope_auto(&v2).unwrap(), env);
            assert_ne!(v1, v2, "{} encodings are distinguishable", env.msg.kind());
        }
        assert!(decode_envelope_auto(&[]).is_err());
        assert_eq!(
            decode_envelope_auto(&[9u8, 0, 0]),
            Err(DecodeError::UnknownTag(9))
        );
    }

    #[test]
    fn dispatch_helpers_agree_with_their_codecs() {
        for msg in sample_messages() {
            for wire in [WireFormat::V1, WireFormat::V2] {
                let bytes = encode_with(&msg, wire);
                assert_eq!(bytes.len(), encoded_len_with(&msg, wire));
                assert_eq!(decode_with(&bytes, wire).unwrap(), msg);
                let env = Envelope::new(
                    ClientId::new(DcId(0), 1),
                    ServerId::new(DcId(1), PartitionId(0)),
                    msg.clone(),
                );
                let frame = encode_envelope_with(&env, wire);
                assert_eq!(frame.len(), envelope_len_with(&env, wire));
                assert_eq!(decode_envelope_auto(&frame).unwrap(), env);
            }
        }
    }

    #[test]
    fn metadata_len_is_encoding_derived() {
        // Metadata never scales with payload, under either encoding.
        let mk = |size: usize| Msg::CommitReq {
            tx: tx(0, 0, 1),
            hwt: Timestamp::ZERO,
            writes: vec![WriteSetEntry::new(Key(1), Value::filled(size, 1))],
        };
        for wire in [WireFormat::V1, WireFormat::V2] {
            assert_eq!(
                metadata_len_with(&mk(8), wire),
                metadata_len_with(&mk(4096), wire),
                "{wire}: metadata must not scale with payload"
            );
        }
        // And the v2 split stays exact: tag + metadata + payload must
        // reconstruct the full frame for a value whose varint length
        // prefix is shorter than v1's fixed 4 bytes.
        let msg = mk(8);
        let payload_v2 = wire2::encoded_len(&msg) - 1 - metadata_len_with(&msg, WireFormat::V2);
        assert_eq!(
            payload_v2,
            /* key varint */ 1 + /* len varint */ 1 + /* value */ 8
        );
        // Snapshot metadata stays one (now trimmed) timestamp under v2.
        let start = Msg::StartTxReq {
            client_ust: Timestamp::from_parts(123_456, 7),
        };
        assert_eq!(
            metadata_len_with(&start, WireFormat::V2),
            wire2::encoded_len(&start) - 1
        );
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_messages(msg in arb_msg()) {
            let bytes = encode(&msg);
            prop_assert_eq!(bytes.len(), encoded_len(&msg));
            prop_assert_eq!(decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn prop_v2_roundtrip_arbitrary_messages(msg in arb_msg()) {
            let bytes = wire2::encode(&msg);
            prop_assert_eq!(bytes.len(), wire2::encoded_len(&msg));
            prop_assert_eq!(wire2::decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn prop_v2_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = wire2::decode(&bytes);
        }

        #[test]
        fn prop_v2_envelopes_roundtrip_and_auto_dispatch(msg in arb_msg(), d in any::<u16>(), s in any::<u32>()) {
            let env = Envelope::new(
                ClientId::new(DcId(d), s),
                ServerId::new(DcId(d), PartitionId(s)),
                msg,
            );
            let bytes = wire2::encode_envelope(&env);
            prop_assert_eq!(bytes.len(), wire2::envelope_len(&env));
            prop_assert_eq!(wire2::decode_envelope(&bytes).unwrap(), env.clone());
            prop_assert_eq!(decode_envelope_auto(&bytes).unwrap(), env.clone());
            // The same envelope through v1 auto-dispatches too.
            prop_assert_eq!(decode_envelope_auto(&encode_envelope(&env)).unwrap(), env);
        }

        #[test]
        fn prop_auto_dispatch_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_envelope_auto(&bytes);
        }

        #[test]
        fn prop_metadata_len_is_exact_under_both(msg in arb_msg()) {
            // metadata + payload + tag == total, for each encoding.
            for wire in [WireFormat::V1, WireFormat::V2] {
                let meta = metadata_len_with(&msg, wire);
                prop_assert!(meta < encoded_len_with(&msg, wire));
            }
            prop_assert_eq!(metadata_len(&msg), metadata_len_with(&msg, WireFormat::V1));
        }

        #[test]
        fn prop_truncated_read_messages_never_decode(tx in arb_tx(), snapshot in arb_ts(), keys in arb_keys(), results in arb_results()) {
            let reply_to = ServerId::new(DcId(1), PartitionId(2));
            let msgs = [
                Msg::ReadReq { tx, keys: keys.clone() },
                Msg::ReadSliceReq { tx, snapshot, keys, reply_to },
                Msg::ReadResp { tx, results },
            ];
            for msg in msgs {
                for wire in [WireFormat::V1, WireFormat::V2] {
                    let bytes = encode_with(&msg, wire);
                    prop_assert_eq!(bytes.len(), encoded_len_with(&msg, wire));
                    for cut in 0..bytes.len() {
                        prop_assert!(decode_with(&bytes[..cut], wire).is_err());
                    }
                }
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
            let bytes = encode_envelope(&env);
            prop_assert_eq!(bytes.len(), envelope_len(&env));
            prop_assert_eq!(decode_envelope(&bytes).unwrap(), env);
        }

        #[test]
        fn prop_decode_envelope_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_envelope(&bytes);
        }
    }
}
