//! Standard (RFC 4648) base64 encoding and decoding.
//!
//! `toDataURL` returns `data:<mime>;base64,<payload>`; we implement the
//! codec from scratch so the crate has no image/encoding dependencies.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with `=` padding.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(ALPHABET[(n >> 6) as usize & 63] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(ALPHABET[n as usize & 63] as char);
        } else {
            out.push('=');
        }
    }
    out
}

/// Decodes standard base64 (padding required for trailing groups, matching
/// what `encode` produces; whitespace is not accepted). Returns `None` on
/// any invalid input.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || (!last && pad > 0) {
            return None;
        }
        // Padding may only be trailing within the final group.
        if pad >= 1 && chunk[3] != b'=' {
            return None;
        }
        if pad == 2 && chunk[2] != b'=' {
            return None;
        }
        let v0 = val(chunk[0])?;
        let v1 = val(chunk[1])?;
        let v2 = if pad >= 2 { 0 } else { val(chunk[2])? };
        let v3 = if pad >= 1 { 0 } else { val(chunk[3])? };
        let n = (v0 << 18) | (v1 << 12) | (v2 << 6) | v3;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptests::{Lcg, CASES};

    #[test]
    fn rfc4648_test_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_roundtrip() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd", &[0u8, 255, 128, 7]] {
            assert_eq!(decode(&encode(data)).unwrap(), data);
        }
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert!(decode("Zg=").is_none()); // bad length
        assert!(decode("Z!==").is_none()); // bad char
        assert!(decode("====").is_none()); // too much padding
        assert!(decode("Zg==Zg==").is_none()); // padding mid-stream
        assert!(decode("Zm9vZg==").is_some()); // multiple groups fine
    }

    /// Any byte string round-trips, and the encoding is padded to a
    /// multiple of four characters.
    #[test]
    fn random_bytes_roundtrip_padded() {
        let mut tails = [0; 3];
        for case in 0..CASES {
            let data = Lcg::case(21, case).bytes(0, 512);
            let text = encode(&data);
            assert_eq!(text.len() % 4, 0, "case {case}");
            assert_eq!(decode(&text).as_deref(), Some(&data[..]), "case {case}");
            tails[data.len() % 3] += 1;
        }
        assert!(tails.iter().all(|&n| n > 0), "padding shapes: {tails:?}");
    }
}
