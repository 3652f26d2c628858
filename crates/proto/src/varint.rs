//! LEB128 unsigned varints for the wire codec and the WAL.
//!
//! Little-endian base-128: each byte carries 7 value bits, the high bit
//! flags continuation. Values below 128 cost one byte; `u64::MAX` costs
//! the maximum ten. Decoding is strict — a varint longer than ten bytes,
//! with set bits beyond the 64th, or padded with a trailing zero byte is
//! rejected rather than wrapped or shortened, so every value has exactly
//! one accepted encoding.

use bytes::{BufMut, BytesMut};

use crate::wire::DecodeError;

/// Most bytes a `u64` LEB128 varint can legally occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Exact encoded size of `v` as a LEB128 varint.
pub const fn len(v: u64) -> usize {
    // ceil(bits/7), with 0 costing one byte.
    match v {
        0 => 1,
        _ => (64 - v.leading_zeros() as usize).div_ceil(7),
    }
}

/// Appends `v` as a LEB128 varint.
pub fn put(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint off the front of `r`, advancing it.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the bytes end mid-varint,
/// [`DecodeError::BadLength`] when the encoding exceeds ten bytes,
/// overflows 64 bits or is not the value's shortest.
pub fn get(r: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    for (i, &byte) in r.iter().take(MAX_VARINT_LEN).enumerate() {
        let bits = u64::from(byte & 0x7f);
        // The tenth byte may only carry the single remaining bit.
        if i == MAX_VARINT_LEN - 1 && bits > 1 {
            return Err(DecodeError::BadLength);
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            // A zero byte after the first only pads a shorter encoding.
            if i > 0 && byte == 0 {
                return Err(DecodeError::BadLength);
            }
            *r = &r[i + 1..];
            return Ok(v);
        }
    }
    Err(if r.len() < MAX_VARINT_LEN {
        DecodeError::Truncated
    } else {
        DecodeError::BadLength
    })
}

/// Reads a varint that must fit `u16` (DC ids, logical clocks).
pub fn get_u16(r: &mut &[u8]) -> Result<u16, DecodeError> {
    u16::try_from(get(r)?).map_err(|_| DecodeError::BadLength)
}

/// Reads a varint that must fit `u32` (partitions, frame counts, client
/// sequence numbers).
pub fn get_u32(r: &mut &[u8]) -> Result<u32, DecodeError> {
    u32::try_from(get(r)?).map_err(|_| DecodeError::BadLength)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        put(&mut buf, v);
        assert_eq!(buf.len(), len(v), "len({v}) exact");
        let mut r = buf.as_ref();
        let back = get(&mut r).unwrap();
        assert!(r.is_empty(), "no trailing bytes for {v}");
        back
    }

    #[test]
    fn boundaries_roundtrip_at_exact_width() {
        // Every 7-bit boundary, both sides.
        for shift in 0..9 {
            let edge = 1u64 << (7 * (shift + 1));
            for v in [edge - 1, edge] {
                assert_eq!(roundtrip(v), v);
            }
        }
        assert_eq!(roundtrip(0), 0);
        assert_eq!(roundtrip(u64::MAX), u64::MAX);
        assert_eq!(len(0), 1);
        assert_eq!(len(127), 1);
        assert_eq!(len(128), 2);
        assert_eq!(len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn truncated_varint_is_rejected() {
        assert_eq!(get(&mut &[0x80, 0x80][..]), Err(DecodeError::Truncated));
        assert_eq!(get(&mut &[][..]), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        // Eleven continuation bytes: too long however it ends.
        assert_eq!(get(&mut &[0x80; 11][..]), Err(DecodeError::BadLength));
        // Ten bytes whose last carries more than the one bit left of a
        // u64: would silently drop bits.
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(get(&mut &overflow[..]), Err(DecodeError::BadLength));
        // u64::MAX itself (last byte 0x01) stays legal.
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(get(&mut &max[..]), Ok(u64::MAX));
        // Padded encodings of 0, 1 and 128: a second representation of a
        // value that already has a shorter one.
        for padded in [&[0x80, 0x00][..], &[0x81, 0x00], &[0x80, 0x81, 0x00]] {
            assert_eq!(get(&mut &padded[..]), Err(DecodeError::BadLength));
        }
        // A lone zero byte is zero.
        assert_eq!(get(&mut &[0x00][..]), Ok(0));
    }

    #[test]
    fn narrow_reads_enforce_their_width() {
        let mut buf = BytesMut::new();
        put(&mut buf, u64::from(u16::MAX) + 1);
        assert_eq!(get_u16(&mut buf.as_ref()), Err(DecodeError::BadLength));
        let mut buf = BytesMut::new();
        put(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(get_u32(&mut buf.as_ref()), Err(DecodeError::BadLength));
        let mut buf = BytesMut::new();
        put(&mut buf, u64::from(u32::MAX));
        assert_eq!(get_u32(&mut buf.as_ref()), Ok(u32::MAX));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in any::<u64>()) {
            prop_assert_eq!(roundtrip(v), v);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
            let _ = get(&mut bytes.as_slice());
        }
    }
}
