//! The append-only write-ahead log of committed versions.
//!
//! One [`DurableEngine`](crate::DurableEngine) owns a directory of
//! numbered segment files (`wal-<seq>.log`). Every committed version is
//! appended to the active segment as one self-checking record:
//!
//! ```text
//! record  := len(varint) ++ body ++ crc32(body, 4 bytes LE)
//! body    := key value_len value_bytes ut_phys ut_log tx_dc tx_part tx_seq src
//! segment := magic(4) format(2) record*
//! ```
//!
//! The body is the wire codec's own encoding of a [`Version`]
//! ([`paris_proto::wire::put_version`]): every integer field a LEB128
//! varint, so the zero-heavy logical clocks and small ids of background
//! traffic cost one byte each. The trailing CRC
//! makes replay **torn-tail-safe**: a crash mid-append leaves a record
//! whose length, body or CRC cannot check out, replay stops at the last
//! good record and the tail is truncated away. Declared lengths are
//! validated against the bytes actually present before any allocation,
//! so a garbage segment can never cause an oversized allocation — the
//! same discipline as the wire decoders.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::{BufMut, Bytes, BytesMut};
use paris_proto::varint;
use paris_proto::wire::{decode_version, put_version};
use paris_types::{Timestamp, Version};

use crate::durable::DurableError;

/// First four bytes of every WAL segment file.
pub const WAL_MAGIC: [u8; 4] = *b"PWAL";

/// WAL record format version.
pub const WAL_FORMAT: u16 = 1;

/// Segment header: magic + little-endian format word.
pub const SEGMENT_HEADER_LEN: usize = WAL_MAGIC.len() + 2;

/// Upper bound on one record's body length. Values in this reproduction
/// are at most a few KiB; anything claiming more than this is garbage
/// and is rejected before allocating.
pub const MAX_RECORD_LEN: usize = 1 << 20;

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), the checksum
/// used by gzip/zlib. Table-driven; the table is built at compile time
/// so no runtime init or external crate is needed.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE, as used by gzip).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// --------------------------------------------------------------- records

/// Encodes one version as a framed WAL record: length, body, CRC.
pub fn encode_record(v: &Version) -> Bytes {
    let mut body = BytesMut::with_capacity(24 + v.value.len());
    put_version(&mut body, v);
    let body = body.as_ref();
    let mut buf = BytesMut::with_capacity(varint::len(body.len() as u64) + body.len() + 4);
    varint::put(&mut buf, body.len() as u64);
    buf.put_slice(body);
    buf.put_u32_le(crc32(body));
    buf.freeze()
}

/// One decode step over a segment's record stream.
enum Step {
    /// A record checked out; the version and the bytes consumed.
    Record(Box<Version>, usize),
    /// The stream ends cleanly here (no bytes left).
    Eof,
    /// The bytes from this offset on do not form a whole good record.
    Torn,
}

/// Decodes the record starting at `bytes`, without panicking on any
/// input and without allocating more than `bytes.len()`.
fn decode_step(bytes: &[u8]) -> Step {
    if bytes.is_empty() {
        return Step::Eof;
    }
    let mut rest = bytes;
    let Ok(len) = varint::get(&mut rest) else {
        return Step::Torn;
    };
    let len_bytes = bytes.len() - rest.len();
    let Ok(len) = usize::try_from(len) else {
        return Step::Torn;
    };
    if len > MAX_RECORD_LEN || bytes.len() < len_bytes + len + 4 {
        return Step::Torn;
    }
    let body = &bytes[len_bytes..len_bytes + len];
    let crc = u32::from_le_bytes(
        bytes[len_bytes + len..len_bytes + len + 4]
            .try_into()
            .expect("4-byte slice"),
    );
    if crc32(body) != crc {
        return Step::Torn;
    }
    match decode_version(body) {
        Ok(v) => Step::Record(Box::new(v), len_bytes + len + 4),
        Err(_) => Step::Torn,
    }
}

/// Outcome of replaying one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReplay {
    /// Every whole, checksummed record, in log order.
    pub versions: Vec<Version>,
    /// Byte offset just past the last good record (torn-tail truncation
    /// point). Equal to the input length when the segment is clean.
    pub good_len: usize,
}

/// Replays a segment's full byte content (header included).
///
/// # Errors
///
/// [`DurableError::Corrupt`] if the header is missing or from a
/// different format — a garbage *segment* is rejected outright, while a
/// garbage *tail* after good records is reported via
/// [`SegmentReplay::good_len`] so the caller can truncate it.
pub fn replay_segment(bytes: &[u8]) -> Result<SegmentReplay, DurableError> {
    if bytes.len() < SEGMENT_HEADER_LEN || bytes[..4] != WAL_MAGIC {
        return Err(DurableError::corrupt("WAL segment missing magic"));
    }
    let format = u16::from_le_bytes([bytes[4], bytes[5]]);
    if format != WAL_FORMAT {
        return Err(DurableError::corrupt("WAL segment format unknown"));
    }
    let mut versions = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    while let Step::Record(v, used) = decode_step(&bytes[offset..]) {
        versions.push(*v);
        offset += used;
    }
    Ok(SegmentReplay {
        versions,
        good_len: offset,
    })
}

// -------------------------------------------------------------- segments

/// Path of WAL segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

/// Parses a segment sequence number out of a file name, if it is one.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// The active (appendable) WAL segment.
///
/// Records are written straight to the file — they land in the OS page
/// cache per append, never in a process-local buffer — so a SIGKILL'd
/// server loses at most what the fsync policy allows (nothing the OS
/// accepted), not an application buffer full of acknowledged commits.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    /// Largest update timestamp appended to this segment.
    max_ut: Timestamp,
    bytes: u64,
}

impl SegmentWriter {
    /// Creates segment `seq` under `dir` and writes its header.
    pub fn create(dir: &Path, seq: u64) -> Result<SegmentWriter, DurableError> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&WAL_FORMAT.to_le_bytes())?;
        Ok(SegmentWriter {
            file,
            path,
            seq,
            max_ut: Timestamp::ZERO,
            bytes: SEGMENT_HEADER_LEN as u64,
        })
    }

    /// Appends one version record (one `write` to the OS). Returns the
    /// framed record size.
    pub fn append(&mut self, v: &Version) -> Result<u64, DurableError> {
        let record = encode_record(v);
        self.file.write_all(&record)?;
        self.max_ut = self.max_ut.max(v.ut);
        self.bytes += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Fsyncs the segment file (power-loss durability).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// This segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Largest update timestamp appended so far.
    pub fn max_ut(&self) -> Timestamp {
        self.max_ut
    }

    /// Bytes written to this segment (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Closes the segment and reports it as a closed segment record for
    /// the pruning bookkeeping.
    pub fn close(self) -> ClosedSegment {
        ClosedSegment {
            path: self.path,
            seq: self.seq,
            max_ut: self.max_ut,
        }
    }
}

/// A sealed WAL segment awaiting truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedSegment {
    /// Segment file path.
    pub path: PathBuf,
    /// Segment sequence number.
    pub seq: u64,
    /// Largest update timestamp any record in the segment carries; the
    /// segment may be deleted once a checkpoint covers this stamp.
    pub max_ut: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, Key, PartitionId, ServerId, TxId, Value};
    use proptest::prelude::*;

    fn version(key: u64, val: &[u8], ut: u64, seq: u64, src: u16) -> Version {
        Version::new(
            Key(key),
            Value(val.to_vec()),
            Timestamp::from_physical_micros(ut),
            TxId::new(ServerId::new(DcId(src), PartitionId(0)), seq),
            DcId(src),
        )
    }

    fn segment_bytes(versions: &[Version]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_FORMAT.to_le_bytes());
        for v in versions {
            bytes.extend_from_slice(&encode_record(v));
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_roundtrips() {
        let v = version(7, b"hello", 1234, 9, 2);
        let bytes = segment_bytes(std::slice::from_ref(&v));
        let replay = replay_segment(&bytes).unwrap();
        assert_eq!(replay.versions, vec![v]);
        assert_eq!(replay.good_len, bytes.len());
    }

    #[test]
    fn record_bytes_are_pinned() {
        // On-disk compatibility: a record written before the WAL body moved
        // onto the wire codec's `Version` encoding, byte for byte.
        let v = Version::new(
            Key(831),
            Value(b"hello".to_vec()),
            Timestamp::from_parts(3_600_000_000, 3),
            TxId::new(ServerId::new(DcId(2), PartitionId(300)), 12_345),
            DcId(2),
        );
        let hex: String = encode_record(&v)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "14bf060568656c6c6f80c8ceb40d0302ac02b960022a59fe74");
    }

    #[test]
    fn missing_magic_or_format_is_rejected() {
        assert!(replay_segment(b"").is_err());
        assert!(replay_segment(b"PWA").is_err());
        assert!(replay_segment(b"JUNKxxxx").is_err());
        let mut wrong_format = segment_bytes(&[]);
        wrong_format[4] = 0xEE;
        assert!(replay_segment(&wrong_format).is_err());
    }

    #[test]
    fn torn_tail_keeps_whole_prefix() {
        let a = version(1, b"aa", 10, 1, 0);
        let b = version(2, b"bb", 20, 2, 1);
        let full = segment_bytes(&[a.clone(), b]);
        let first_len = segment_bytes(std::slice::from_ref(&a)).len();
        // Cut one byte into the second record: only the first survives,
        // and the truncation point is exactly the end of it.
        let replay = replay_segment(&full[..first_len + 1]).unwrap();
        assert_eq!(replay.versions, vec![a]);
        assert_eq!(replay.good_len, first_len);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let a = version(1, b"aa", 10, 1, 0);
        let b = version(2, b"bb", 20, 2, 1);
        let mut bytes = segment_bytes(&[a.clone(), b]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let replay = replay_segment(&bytes).unwrap();
        assert_eq!(replay.versions, vec![a]);
    }

    #[test]
    fn oversized_length_claim_is_torn_not_allocated() {
        let mut bytes = segment_bytes(&[]);
        // A varint claiming u64::MAX bytes of body.
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let replay = replay_segment(&bytes).unwrap();
        assert!(replay.versions.is_empty());
        assert_eq!(replay.good_len, SEGMENT_HEADER_LEN);
    }

    #[test]
    fn segment_name_roundtrip() {
        let dir = Path::new("/tmp/x");
        let p = segment_path(dir, 42);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_segment_name(name), Some(42));
        assert_eq!(parse_segment_name("wal-.log"), None);
        assert_eq!(parse_segment_name("ckpt-1.seg"), None);
    }

    fn arb_version() -> impl Strategy<Value = Version> {
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            0u64..(1 << 48),
            any::<u16>(),
            any::<u64>(),
            any::<u16>(),
            any::<u32>(),
        )
            .prop_map(|(key, val, phys, logical, seq, dc, part)| {
                Version::new(
                    Key(key),
                    Value(val),
                    Timestamp::from_parts(phys, logical),
                    TxId::new(ServerId::new(DcId(dc), PartitionId(part)), seq),
                    DcId(dc),
                )
            })
    }

    proptest! {
        #[test]
        fn prop_records_roundtrip(versions in proptest::collection::vec(arb_version(), 0..8)) {
            let bytes = segment_bytes(&versions);
            let replay = replay_segment(&bytes).unwrap();
            prop_assert_eq!(replay.versions, versions);
            prop_assert_eq!(replay.good_len, bytes.len());
        }

        #[test]
        fn prop_truncation_at_every_byte_is_safe(
            versions in proptest::collection::vec(arb_version(), 1..5),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = segment_bytes(&versions);
            let body = bytes.len() - SEGMENT_HEADER_LEN;
            let cut = SEGMENT_HEADER_LEN + ((body as f64) * cut_frac) as usize;
            let replay = replay_segment(&bytes[..cut]).unwrap();
            // The replayed versions are exactly a prefix of the input,
            // and the truncation point never exceeds the cut.
            prop_assert!(replay.versions.len() <= versions.len());
            prop_assert_eq!(
                &replay.versions[..],
                &versions[..replay.versions.len()]
            );
            prop_assert!(replay.good_len <= cut);
        }

        #[test]
        fn prop_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Raw garbage: either rejected (bad header) or replayed as
            // a (possibly empty) prefix — never a panic.
            let _ = replay_segment(&garbage);
            // Garbage after a valid header: always an Ok replay that
            // stops at the first bad record.
            let mut framed = Vec::with_capacity(garbage.len() + SEGMENT_HEADER_LEN);
            framed.extend_from_slice(&WAL_MAGIC);
            framed.extend_from_slice(&WAL_FORMAT.to_le_bytes());
            framed.extend_from_slice(&garbage);
            let replay = replay_segment(&framed).unwrap();
            prop_assert!(replay.good_len <= framed.len());
        }
    }
}
