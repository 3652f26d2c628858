//! Stream framing for socket connections: preamble, length-prefixed
//! frames, and the envelope/control codecs layered on top.
//!
//! Every connection — data plane or control plane — opens with a 6-byte
//! preamble ([`paris_proto::wire::MAGIC`] + the sender's wire version,
//! little endian) exchanged in both directions, then carries
//! length-prefixed frames: a `u32` little-endian payload length followed
//! by the payload. A peer advertising any version other than
//! [`wire::PROTOCOL_VERSION`] is refused cleanly during the handshake —
//! every process of a deployment is spawned from one build, so there is
//! nothing to negotiate. The frame length is validated
//! against [`paris_proto::wire::MAX_FRAME_LEN`] **before** any
//! allocation, so untrusted bytes can neither panic the reader nor make
//! it reserve an OOM-sized buffer.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use paris_proto::ctrl::{self, Ctrl};
use paris_proto::{wire, Envelope};
use paris_types::{Error, WireFormat};

/// Size of the connection preamble: magic + protocol version.
pub const PREAMBLE_LEN: usize = wire::MAGIC.len() + 2;

/// How many consecutive read timeouts mid-frame the reader tolerates
/// before declaring the peer stalled. Combined with the socket's read
/// timeout this bounds how long a half-written frame can wedge a reader.
const MAX_MID_FRAME_STALLS: u32 = 100;

/// Outcome of one [`read_frame`] call.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The socket's read timeout elapsed at a frame boundary — the caller
    /// should check its stop condition and try again.
    TimedOut,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes this side's preamble, advertising [`wire::PROTOCOL_VERSION`].
pub fn write_preamble<W: Write>(w: &mut W) -> Result<(), Error> {
    let mut preamble = [0u8; PREAMBLE_LEN];
    preamble[..4].copy_from_slice(&wire::MAGIC);
    preamble[4..].copy_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
    w.write_all(&preamble)
        .and_then(|()| w.flush())
        .map_err(|_| Error::Transport("peer connection lost during handshake"))
}

/// Reads and validates the peer's preamble, retrying socket timeouts until
/// `deadline`. The stream should have a read timeout configured, or a
/// silent peer holds the reader until its own timeout fires.
///
/// # Errors
///
/// [`Error::Transport`] on bad magic, a version other than
/// [`wire::PROTOCOL_VERSION`], or a peer that closes or stalls
/// mid-handshake.
pub fn read_preamble<R: Read>(r: &mut R, deadline: Instant) -> Result<(), Error> {
    let mut buf = [0u8; PREAMBLE_LEN];
    let mut filled = 0;
    while filled < PREAMBLE_LEN {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(Error::Transport("peer closed during handshake")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Err(Error::Transport("handshake timed out"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(Error::Transport("peer connection lost during handshake")),
        }
    }
    if buf[..4] != wire::MAGIC {
        return Err(Error::Transport("bad protocol magic"));
    }
    if u16::from_le_bytes([buf[4], buf[5]]) != wire::PROTOCOL_VERSION {
        return Err(Error::Transport("protocol version mismatch"));
    }
    Ok(())
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), Error> {
    if payload.len() > wire::MAX_FRAME_LEN {
        return Err(Error::Transport("frame exceeds maximum length"));
    }
    let header = (payload.len() as u32).to_le_bytes();
    w.write_all(&header)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|_| Error::Transport("peer connection lost"))
}

/// Reads one length-prefixed frame.
///
/// A read timeout at a frame boundary (no header byte consumed yet)
/// surfaces as [`FrameRead::TimedOut`] so the caller can poll its stop
/// flag; once a frame is partially read, timeouts are retried up to a
/// stall bound because the remainder is normally already in flight.
///
/// # Errors
///
/// Returns [`Error::Transport`] for connections lost mid-frame, stalled
/// peers, and length prefixes beyond [`wire::MAX_FRAME_LEN`] (checked
/// before allocating).
pub fn read_frame<R: Read>(r: &mut R) -> Result<FrameRead, Error> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    let mut stalls = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err(Error::Transport("peer closed mid-frame")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if filled == 0 {
                    return Ok(FrameRead::TimedOut);
                }
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(Error::Transport("peer stalled mid-frame"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(Error::Transport("peer connection lost")),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > wire::MAX_FRAME_LEN {
        return Err(Error::Transport("frame exceeds maximum length"));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    let mut stalls = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(Error::Transport("peer closed mid-frame")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(Error::Transport("peer stalled mid-frame"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(Error::Transport("peer connection lost")),
        }
    }
    Ok(FrameRead::Frame(payload))
}

/// Writes one protocol envelope as a frame; returns the wire bytes spent
/// (header included) for bandwidth accounting.
pub fn write_envelope<W: Write>(w: &mut W, env: &Envelope, fmt: WireFormat) -> Result<u64, Error> {
    let bytes = wire::encode_envelope_with(env, fmt);
    write_frame(w, &bytes)?;
    Ok(4 + bytes.len() as u64)
}

/// Decodes a data-plane frame payload into an envelope.
pub fn decode_envelope_frame(bytes: &[u8]) -> Result<Envelope, Error> {
    wire::decode_envelope_auto(bytes).map_err(|_| Error::Transport("malformed envelope frame"))
}

/// Writes one control frame.
pub fn write_ctrl<W: Write>(w: &mut W, ctrl: &Ctrl) -> Result<(), Error> {
    write_frame(w, &ctrl::encode_ctrl(ctrl))
}

/// Decodes a control-plane frame payload.
pub fn decode_ctrl_frame(bytes: &[u8]) -> Result<Ctrl, Error> {
    ctrl::decode_ctrl(bytes).map_err(|_| Error::Transport("malformed control frame"))
}

/// Reads control frames until one arrives, the peer disappears, or
/// `deadline` passes — the blocking request/response helper the control
/// plane is built on. Timeouts at frame boundaries are retried within the
/// deadline.
pub fn read_ctrl_deadline<R: Read>(r: &mut R, deadline: Instant) -> Result<Ctrl, Error> {
    loop {
        match read_frame(r)? {
            FrameRead::Frame(bytes) => return decode_ctrl_frame(&bytes),
            FrameRead::Eof => return Err(Error::Transport("control peer closed")),
            FrameRead::TimedOut => {
                if Instant::now() >= deadline {
                    return Err(Error::Transport("control operation timed out"));
                }
            }
        }
    }
}

/// A deadline `timeout` from now (saturating).
pub fn deadline_in(timeout: Duration) -> Instant {
    Instant::now()
        .checked_add(timeout)
        .unwrap_or_else(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_proto::Msg;
    use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp};
    use proptest::prelude::*;
    use std::io::Cursor;

    fn sample_env() -> Envelope {
        Envelope::new(
            ClientId::new(DcId(0), 7),
            ServerId::new(DcId(1), PartitionId(3)),
            Msg::StartTxReq {
                client_ust: Timestamp::from_parts(10, 2),
            },
        )
    }

    #[test]
    fn preamble_roundtrips() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(buf.len(), PREAMBLE_LEN);
        read_preamble(&mut Cursor::new(buf), deadline_in(Duration::from_secs(1))).unwrap();
    }

    #[test]
    fn preamble_rejects_bad_magic_and_version() {
        let mut good = Vec::new();
        write_preamble(&mut good).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            read_preamble(
                &mut Cursor::new(bad_magic),
                deadline_in(Duration::from_secs(1))
            ),
            Err(Error::Transport("bad protocol magic"))
        );

        // Every version but ours is refused: the retired v1, a future v3
        // and a nonsense v0 alike.
        for version in [0, 1, wire::PROTOCOL_VERSION + 1, u16::MAX] {
            let mut bad_version = good.clone();
            bad_version[4..].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                read_preamble(
                    &mut Cursor::new(bad_version),
                    deadline_in(Duration::from_secs(1))
                ),
                Err(Error::Transport("protocol version mismatch"))
            );
        }

        // A peer that closes mid-handshake is a clean transport error.
        assert_eq!(
            read_preamble(
                &mut Cursor::new(&good[..3]),
                deadline_in(Duration::from_secs(1))
            ),
            Err(Error::Transport("peer closed during handshake"))
        );
    }

    #[test]
    fn frames_roundtrip_envelopes_and_ctrl() {
        let env = sample_env();
        let mut buf = Vec::new();
        let spent = write_envelope(&mut buf, &env, WireFormat::V2).unwrap();
        assert_eq!(spent as usize, buf.len());
        let FrameRead::Frame(payload) = read_frame(&mut Cursor::new(&buf)).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(decode_envelope_frame(&payload).unwrap(), env);

        let ctrl = Ctrl::StatsReq;
        let mut buf = Vec::new();
        write_ctrl(&mut buf, &ctrl).unwrap();
        let FrameRead::Frame(payload) = read_frame(&mut Cursor::new(&buf)).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(decode_ctrl_frame(&payload).unwrap(), ctrl);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // 4 GiB length prefix: must fail fast with a transport error, not
        // attempt the allocation.
        let header = (u32::MAX).to_le_bytes();
        assert_eq!(
            read_frame(&mut Cursor::new(&header)).unwrap_err(),
            Error::Transport("frame exceeds maximum length")
        );
        // Largest in-bound length with no payload behind it: reader sees a
        // closed peer mid-frame, still no panic.
        let header = (wire::MAX_FRAME_LEN as u32).to_le_bytes();
        assert_eq!(
            read_frame(&mut Cursor::new(&header)).unwrap_err(),
            Error::Transport("peer closed mid-frame")
        );
    }

    #[test]
    fn eof_at_frame_boundary_is_clean() {
        assert!(matches!(
            read_frame(&mut Cursor::new(&[] as &[u8])).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn writer_refuses_oversized_frames() {
        let payload = vec![0u8; wire::MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut sink, &payload).unwrap_err(),
            Error::Transport("frame exceeds maximum length")
        );
        assert!(sink.is_empty(), "nothing written for a rejected frame");
    }

    proptest! {
        /// Satellite hardening property: a framed stream of arbitrary
        /// garbage yields transport errors or clean EOF — never a panic,
        /// and (via the MAX_FRAME_LEN check) never an OOM-sized
        /// allocation.
        #[test]
        fn prop_garbage_streams_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut cur = Cursor::new(&bytes);
            loop {
                match read_frame(&mut cur) {
                    Ok(FrameRead::Frame(payload)) => {
                        let _ = decode_envelope_frame(&payload);
                        let _ = decode_ctrl_frame(&payload);
                    }
                    Ok(FrameRead::Eof) => break,
                    Ok(FrameRead::TimedOut) => break, // Cursor never times out
                    Err(Error::Transport(_)) => break,
                    Err(e) => panic!("unexpected error class: {e}"),
                }
            }
        }

        /// Garbage prepended to the handshake is rejected as a transport
        /// error, never accepted.
        #[test]
        fn prop_garbage_preamble_is_transport_error(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Skip the rare case where garbage IS a valid preamble: right
            // magic and our version.
            let valid = bytes.len() >= PREAMBLE_LEN
                && bytes[..4] == wire::MAGIC
                && u16::from_le_bytes([bytes[4], bytes[5]]) == wire::PROTOCOL_VERSION;
            if !valid {
                let got =
                    read_preamble(&mut Cursor::new(&bytes), deadline_in(Duration::from_secs(1)));
                prop_assert!(matches!(got, Err(Error::Transport(_))));
            }
        }
    }
}
