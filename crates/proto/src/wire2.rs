//! Wire encoding **v2**: the varint codec.
//!
//! Same message set and tag bytes as [`wire`](crate::wire) v1, but every
//! length, count, sequence number, key and id ships as a LEB128 varint
//! ([`varint`]), and timestamps are trimmed: the 48-bit
//! physical part and the 16-bit logical part are encoded as two separate
//! varints instead of one fixed 8-byte word, so the zero-heavy stamps of
//! background traffic (watermarks, GST/UST reports, heartbeats) collapse
//! from 8 bytes to 2–7.
//!
//! Envelope frames open with the [`FRAME_V2`] marker byte, which is
//! disjoint from the v1 endpoint tags (0/1), so a per-frame decoder can
//! dispatch on the first byte and never misparse a v1 frame as v2 or
//! vice versa (see [`wire::decode_envelope_auto`](crate::wire::decode_envelope_auto)).
//!
//! Everything here is exact-length accounted: `encoded_len` and
//! `envelope_len` match the byte-for-byte output of the encoders, which
//! the property tests assert for arbitrary messages.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use paris_types::{
    ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, Version, VersionStamp,
    WriteSetEntry,
};

use crate::messages::{
    DigestReport, Endpoint, Envelope, Msg, ReadKey, ReadOutcome, ReadResult, ReplicatedTx,
};
use crate::varint;
use crate::wire::{
    any_held, need, DecodeError, R_ABSENT, R_FOUND, R_UNCHANGED, T_COMMIT_REQ, T_COMMIT_RESP,
    T_COMMIT_TX, T_GOSSIP_DIGEST, T_GST_REPORT, T_HEARTBEAT, T_OP_FAILED, T_PREPARE_REQ,
    T_PREPARE_RESP, T_READ_REQ, T_READ_REQ_STAMPED, T_READ_RESP, T_READ_SLICE_REQ,
    T_READ_SLICE_REQ_STAMPED, T_READ_SLICE_RESP, T_REPLICATE, T_REPLICATE_BATCH, T_ROOT_GST,
    T_START_REQ, T_START_RESP, T_UST_BROADCAST,
};

/// First byte of a v2 envelope frame. Chosen disjoint from the v1
/// endpoint tags (0 = server, 1 = client) so the first byte of any frame
/// identifies its encoding.
pub const FRAME_V2: u8 = 0xF2;

// ---------------------------------------------------------------- fields

fn put_ts(buf: &mut BytesMut, ts: Timestamp) {
    varint::put(buf, ts.physical_micros());
    varint::put(buf, u64::from(ts.logical()));
}

fn get_ts(buf: &mut Bytes) -> Result<Timestamp, DecodeError> {
    let physical = varint::get(buf)?;
    // The physical part is 48 bits wide; anything larger cannot have
    // been produced by the encoder.
    if physical >= 1 << 48 {
        return Err(DecodeError::BadLength);
    }
    let logical = varint::get_u16(buf)?;
    Ok(Timestamp::from_parts(physical, logical))
}

pub(crate) fn ts_len(ts: Timestamp) -> usize {
    varint::len(ts.physical_micros()) + varint::len(u64::from(ts.logical()))
}

fn put_dc(buf: &mut BytesMut, dc: DcId) {
    varint::put(buf, u64::from(dc.0));
}

fn get_dc(buf: &mut Bytes) -> Result<DcId, DecodeError> {
    Ok(DcId(varint::get_u16(buf)?))
}

fn dc_len(dc: DcId) -> usize {
    varint::len(u64::from(dc.0))
}

fn put_partition(buf: &mut BytesMut, p: PartitionId) {
    varint::put(buf, u64::from(p.0));
}

fn get_partition(buf: &mut Bytes) -> Result<PartitionId, DecodeError> {
    Ok(PartitionId(varint::get_u32(buf)?))
}

fn partition_len(p: PartitionId) -> usize {
    varint::len(u64::from(p.0))
}

fn put_server(buf: &mut BytesMut, s: ServerId) {
    put_dc(buf, s.dc);
    put_partition(buf, s.partition);
}

fn get_server(buf: &mut Bytes) -> Result<ServerId, DecodeError> {
    Ok(ServerId::new(get_dc(buf)?, get_partition(buf)?))
}

fn server_len(s: ServerId) -> usize {
    dc_len(s.dc) + partition_len(s.partition)
}

fn put_tx(buf: &mut BytesMut, tx: TxId) {
    put_dc(buf, tx.dc);
    put_partition(buf, tx.partition);
    varint::put(buf, tx.seq);
}

fn get_tx(buf: &mut Bytes) -> Result<TxId, DecodeError> {
    let dc = get_dc(buf)?;
    let partition = get_partition(buf)?;
    let seq = varint::get(buf)?;
    Ok(TxId { dc, partition, seq })
}

fn tx_len(tx: TxId) -> usize {
    dc_len(tx.dc) + partition_len(tx.partition) + varint::len(tx.seq)
}

fn put_key(buf: &mut BytesMut, k: Key) {
    varint::put(buf, k.0);
}

fn get_key(buf: &mut Bytes) -> Result<Key, DecodeError> {
    Ok(Key(varint::get(buf)?))
}

pub(crate) fn key_len(k: Key) -> usize {
    varint::len(k.0)
}

fn put_len(buf: &mut BytesMut, len: usize) {
    varint::put(buf, len as u64);
}

fn get_len(buf: &mut Bytes) -> Result<usize, DecodeError> {
    usize::try_from(varint::get(buf)?).map_err(|_| DecodeError::BadLength)
}

fn len_len(len: usize) -> usize {
    varint::len(len as u64)
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

pub(crate) fn value_len(v: &Value) -> usize {
    len_len(v.len()) + v.len()
}

/// A version without its key: a read result already names the key, so
/// the version body ships value and metadata only.
fn put_version_body(buf: &mut BytesMut, v: &Version) {
    put_value(buf, &v.value);
    put_ts(buf, v.ut);
    put_tx(buf, v.tx);
    put_dc(buf, v.src);
}

fn get_version_body(buf: &mut Bytes, key: Key) -> Result<Version, DecodeError> {
    Ok(Version {
        key,
        value: get_value(buf)?,
        ut: get_ts(buf)?,
        tx: get_tx(buf)?,
        src: get_dc(buf)?,
    })
}

fn version_body_len(v: &Version) -> usize {
    value_len(&v.value) + ts_len(v.ut) + tx_len(v.tx) + dc_len(v.src)
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

fn write_len(w: &WriteSetEntry) -> usize {
    key_len(w.key) + value_len(&w.value)
}

fn put_read_result(buf: &mut BytesMut, r: &ReadResult) {
    put_key(buf, r.key);
    match &r.outcome {
        ReadOutcome::Absent => buf.put_u8(R_ABSENT),
        ReadOutcome::Found(v) => {
            debug_assert_eq!(v.key, r.key, "a found version belongs to its result's key");
            buf.put_u8(R_FOUND);
            put_version_body(buf, v);
        }
        ReadOutcome::Unchanged => buf.put_u8(R_UNCHANGED),
    }
}

fn get_read_result(buf: &mut Bytes) -> Result<ReadResult, DecodeError> {
    let key = get_key(buf)?;
    need(buf, 1)?;
    let outcome = match buf.get_u8() {
        R_ABSENT => ReadOutcome::Absent,
        R_FOUND => ReadOutcome::Found(get_version_body(buf, key)?),
        R_UNCHANGED => ReadOutcome::Unchanged,
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(ReadResult { key, outcome })
}

fn result_len(r: &ReadResult) -> usize {
    key_len(r.key) + 1 + r.outcome.version().map_or(0, version_body_len)
}

// ------------------------------------------------------------- read keys

/// No snapshot travels in a `ReadReq`, so its first stamp ships absolute
/// and the rest as deltas against it.
const READ_REQ_STAMP_BASE: Timestamp = Timestamp::ZERO;

/// Zigzag-folded distance from `prev` to `physical` (both 48-bit, so the
/// difference always fits `i64`): small in either direction costs few
/// varint bytes.
fn stamp_delta(prev: u64, physical: u64) -> u64 {
    let d = physical as i64 - prev as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The stamps of a stamped request, which follow its plain key list:
/// sparse — each as the gap to its key's index plus the held version's
/// identity — so a request pays for the stamps it carries, not for the
/// keys it does not stamp. A stamp's physical time ships as a signed
/// delta against the previous stamp's — the first against `base`, the
/// snapshot where the message carries one — because held versions sit
/// just below the snapshot while absolute wall-clock micros cost seven
/// bytes.
fn put_stamps(buf: &mut BytesMut, keys: &[ReadKey], base: Timestamp) {
    put_len(buf, keys.iter().filter(|k| k.held.is_some()).count());
    let mut next = 0;
    let mut prev = base.physical_micros();
    for (index, k) in keys.iter().enumerate() {
        let Some(stamp) = k.held else { continue };
        put_len(buf, index - next);
        next = index + 1;
        let physical = stamp.ut.physical_micros();
        varint::put(buf, stamp_delta(prev, physical));
        varint::put(buf, u64::from(stamp.ut.logical()));
        put_tx(buf, stamp.tx);
        prev = physical;
    }
}

fn get_stamps(buf: &mut Bytes, keys: &mut [ReadKey], base: Timestamp) -> Result<(), DecodeError> {
    let stamps = get_len(buf)?;
    let mut next: usize = 0;
    let mut prev = base.physical_micros();
    for _ in 0..stamps {
        // Gaps make the indices strictly increasing; they must also stay
        // inside the key list.
        let index = next
            .checked_add(get_len(buf)?)
            .filter(|i| *i < keys.len())
            .ok_or(DecodeError::BadLength)?;
        next = index + 1;
        let folded = varint::get(buf)?;
        let delta = (folded >> 1) as i64 ^ -((folded & 1) as i64);
        // Off the encoder the sum is a 48-bit physical time.
        let physical = prev
            .checked_add_signed(delta)
            .filter(|p| *p < 1 << 48)
            .ok_or(DecodeError::BadLength)?;
        let logical = varint::get_u16(buf)?;
        prev = physical;
        keys[index].held = Some(VersionStamp {
            ut: Timestamp::from_parts(physical, logical),
            tx: get_tx(buf)?,
        });
    }
    Ok(())
}

fn stamps_len(keys: &[ReadKey], base: Timestamp) -> usize {
    let mut total = 0;
    let mut stamps = 0;
    let mut next = 0;
    let mut prev = base.physical_micros();
    for (index, k) in keys.iter().enumerate() {
        let Some(stamp) = k.held else { continue };
        stamps += 1;
        let physical = stamp.ut.physical_micros();
        total += len_len(index - next)
            + varint::len(stamp_delta(prev, physical))
            + varint::len(u64::from(stamp.ut.logical()))
            + tx_len(stamp.tx);
        next = index + 1;
        prev = physical;
    }
    total + len_len(stamps)
}

/// A request's key list: the plain list every peer has always decoded,
/// followed — under the request's stamped tag only — by the stamps.
fn put_keys(buf: &mut BytesMut, keys: &[ReadKey], base: Timestamp) {
    put_len(buf, keys.len());
    for k in keys {
        put_key(buf, k.key);
    }
    if any_held(keys) {
        put_stamps(buf, keys, base);
    }
}

fn get_keys(buf: &mut Bytes, stamped: bool, base: Timestamp) -> Result<Vec<ReadKey>, DecodeError> {
    let n = get_len(buf)?;
    let mut keys = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        keys.push(ReadKey::from(get_key(buf)?));
    }
    if stamped {
        get_stamps(buf, &mut keys, base)?;
    }
    Ok(keys)
}

fn keys_len(keys: &[ReadKey], base: Timestamp) -> usize {
    len_len(keys.len())
        + keys.iter().map(|k| key_len(k.key)).sum::<usize>()
        + if any_held(keys) {
            stamps_len(keys, base)
        } else {
            0
        }
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

fn replicated_tx_len(t: &ReplicatedTx) -> usize {
    tx_len(t.tx)
        + ts_len(t.ct)
        + dc_len(t.src)
        + len_len(t.writes.len())
        + t.writes.iter().map(write_len).sum::<usize>()
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

fn report_len(r: &DigestReport) -> usize {
    partition_len(r.partition)
        + ts_len(r.oldest_active)
        + len_len(r.mins.len())
        + r.mins
            .iter()
            .map(|(dc, ts)| dc_len(*dc) + ts_len(*ts))
            .sum::<usize>()
}

// -------------------------------------------------------------- messages

/// Encodes a message in the v2 varint encoding.
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
            put_keys(&mut buf, keys, READ_REQ_STAMP_BASE);
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
            put_keys(&mut buf, keys, *snapshot);
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
            varint::put(&mut buf, u64::from(*frames));
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
            varint::put(&mut buf, u64::from(*frames));
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
    debug_assert_eq!(buf.len(), encoded_len(msg), "v2 encoded_len is exact");
    buf.freeze()
}

/// Decodes a v2-encoded message.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the buffer is truncated, carries an
/// unknown tag, or declares impossible lengths or field widths.
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
            keys: get_keys(&mut buf, tag == T_READ_REQ_STAMPED, READ_REQ_STAMP_BASE)?,
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
            let keys = get_keys(&mut buf, tag == T_READ_SLICE_REQ_STAMPED, snapshot)?;
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
            let frames = varint::get_u32(&mut buf)?;
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
            let frames = varint::get_u32(&mut buf)?;
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

/// Exact v2-encoded size of a message, without allocating.
pub fn encoded_len(msg: &Msg) -> usize {
    1 + match msg {
        Msg::StartTxReq { client_ust } => ts_len(*client_ust),
        Msg::StartTxResp { tx, snapshot } => tx_len(*tx) + ts_len(*snapshot),
        Msg::ReadReq { tx, keys } => tx_len(*tx) + keys_len(keys, READ_REQ_STAMP_BASE),
        Msg::ReadResp { tx, results } => {
            tx_len(*tx) + len_len(results.len()) + results.iter().map(result_len).sum::<usize>()
        }
        Msg::CommitReq { tx, hwt, writes } => {
            tx_len(*tx)
                + ts_len(*hwt)
                + len_len(writes.len())
                + writes.iter().map(write_len).sum::<usize>()
        }
        Msg::CommitResp { tx, ct } => tx_len(*tx) + ts_len(*ct),
        Msg::ReadSliceReq {
            tx,
            snapshot,
            keys,
            reply_to,
        } => tx_len(*tx) + ts_len(*snapshot) + server_len(*reply_to) + keys_len(keys, *snapshot),
        Msg::ReadSliceResp {
            tx,
            partition,
            results,
        } => {
            tx_len(*tx)
                + partition_len(*partition)
                + len_len(results.len())
                + results.iter().map(result_len).sum::<usize>()
        }
        Msg::PrepareReq {
            tx,
            snapshot,
            ht,
            writes,
            reply_to,
            src_dc,
        } => {
            tx_len(*tx)
                + ts_len(*snapshot)
                + ts_len(*ht)
                + server_len(*reply_to)
                + dc_len(*src_dc)
                + len_len(writes.len())
                + writes.iter().map(write_len).sum::<usize>()
        }
        Msg::PrepareResp {
            tx,
            partition,
            proposed,
        } => tx_len(*tx) + partition_len(*partition) + ts_len(*proposed),
        Msg::CommitTx { tx, ct } => tx_len(*tx) + ts_len(*ct),
        Msg::Replicate {
            partition,
            txs,
            watermark,
        } => {
            partition_len(*partition)
                + ts_len(*watermark)
                + len_len(txs.len())
                + txs.iter().map(replicated_tx_len).sum::<usize>()
        }
        Msg::ReplicateBatch {
            partition,
            txs,
            watermark,
            frames,
        } => {
            partition_len(*partition)
                + ts_len(*watermark)
                + varint::len(u64::from(*frames))
                + len_len(txs.len())
                + txs.iter().map(replicated_tx_len).sum::<usize>()
        }
        Msg::Heartbeat {
            partition,
            watermark,
        } => partition_len(*partition) + ts_len(*watermark),
        Msg::GossipDigest {
            reports,
            roots,
            ust,
            frames,
        } => {
            varint::len(u64::from(*frames))
                + len_len(reports.len())
                + reports.iter().map(report_len).sum::<usize>()
                + len_len(roots.len())
                + roots
                    .iter()
                    .map(|(dc, gst, oldest)| dc_len(*dc) + ts_len(*gst) + ts_len(*oldest))
                    .sum::<usize>()
                + 1
                + ust.map_or(0, |(u, s)| ts_len(u) + ts_len(s))
        }
        Msg::GstReport {
            partition,
            mins,
            oldest_active,
        } => {
            partition_len(*partition)
                + ts_len(*oldest_active)
                + len_len(mins.len())
                + mins
                    .iter()
                    .map(|(dc, ts)| dc_len(*dc) + ts_len(*ts))
                    .sum::<usize>()
        }
        Msg::RootGst {
            dc,
            gst,
            oldest_active,
        } => dc_len(*dc) + ts_len(*gst) + ts_len(*oldest_active),
        Msg::UstBroadcast { ust, s_old } => ts_len(*ust) + ts_len(*s_old),
        Msg::OpFailed { tx } => tx_len(*tx),
    }
}

// ------------------------------------------------------------- envelopes

fn put_endpoint(buf: &mut BytesMut, ep: Endpoint) {
    match ep {
        Endpoint::Server(s) => {
            buf.put_u8(0);
            put_server(buf, s);
        }
        Endpoint::Client(c) => {
            buf.put_u8(1);
            put_dc(buf, c.dc);
            varint::put(buf, u64::from(c.seq));
        }
    }
}

fn get_endpoint(buf: &mut Bytes) -> Result<Endpoint, DecodeError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(Endpoint::Server(get_server(buf)?)),
        1 => {
            let dc = get_dc(buf)?;
            let seq = varint::get_u32(buf)?;
            Ok(Endpoint::Client(ClientId::new(dc, seq)))
        }
        other => Err(DecodeError::UnknownTag(other)),
    }
}

fn endpoint_len(ep: Endpoint) -> usize {
    1 + match ep {
        Endpoint::Server(s) => server_len(s),
        Endpoint::Client(c) => dc_len(c.dc) + varint::len(u64::from(c.seq)),
    }
}

/// Encodes an envelope as a v2 frame payload: the [`FRAME_V2`] marker,
/// both endpoints, then the message — all varint-coded.
pub fn encode_envelope(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::with_capacity(envelope_len(env));
    buf.put_u8(FRAME_V2);
    put_endpoint(&mut buf, env.src);
    put_endpoint(&mut buf, env.dst);
    buf.put_slice(&encode(&env.msg));
    debug_assert_eq!(buf.len(), envelope_len(env), "v2 envelope_len is exact");
    buf.freeze()
}

/// Decodes a v2 envelope frame (including the leading [`FRAME_V2`]
/// marker).
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated buffers, a missing marker,
/// unknown endpoint or message tags, or impossible lengths — never
/// panics, whatever the input.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    need(&buf, 1)?;
    let marker = buf.get_u8();
    if marker != FRAME_V2 {
        return Err(DecodeError::UnknownTag(marker));
    }
    let src = get_endpoint(&mut buf)?;
    let dst = get_endpoint(&mut buf)?;
    let msg = decode(&bytes[bytes.len() - buf.remaining()..])?;
    Ok(Envelope { src, dst, msg })
}

/// Exact v2-encoded size of an envelope, without allocating.
pub fn envelope_len(env: &Envelope) -> usize {
    1 + endpoint_len(env.src) + endpoint_len(env.dst) + encoded_len(&env.msg)
}
