//! Standard (RFC 4648) base64 encoding and decoding.
//!
//! `toDataURL` returns `data:<mime>;base64,<payload>`; we implement the
//! codec from scratch so the crate has no image/encoding dependencies.
//! The encoder sizes its output up front and turns each whole 3-byte
//! group into four bytes of it, after a prefix already in the same
//! buffer, so [`crate::canvas::data_url`] builds a whole data URL in one
//! allocation instead of copying the encoded payload behind its prefix.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with `=` padding.
pub fn encode(data: &[u8]) -> String {
    encode_after("", data)
}

/// Returns `prefix` followed by the padded base64 encoding of `data`.
pub fn encode_after(prefix: &str, data: &[u8]) -> String {
    let len = prefix.len() + data.len().div_ceil(3) * 4;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(prefix.as_bytes());
    // The padding stays wherever the tail group leaves it.
    out.resize(len, b'=');
    let (groups, tail_out) = out[prefix.len()..].split_at_mut(data.len() / 3 * 4);
    for (group, quad) in data.chunks_exact(3).zip(groups.chunks_exact_mut(4)) {
        let n = (group[0] as usize) << 16 | (group[1] as usize) << 8 | group[2] as usize;
        quad[0] = ALPHABET[(n >> 18) & 63];
        quad[1] = ALPHABET[(n >> 12) & 63];
        quad[2] = ALPHABET[(n >> 6) & 63];
        quad[3] = ALPHABET[n & 63];
    }
    let tail = data.chunks_exact(3).remainder();
    if let Some(&b0) = tail.first() {
        let b1 = tail.get(1).copied().unwrap_or(0);
        let n = (b0 as usize) << 16 | (b1 as usize) << 8;
        tail_out[0] = ALPHABET[n >> 18];
        tail_out[1] = ALPHABET[(n >> 12) & 63];
        if tail.len() == 2 {
            tail_out[2] = ALPHABET[(n >> 6) & 63];
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| unreachable!("a prefix and base64 are UTF-8"))
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

    /// The per-character encoder [`encode`] replaced: the oracle for its
    /// output.
    fn encode_per_char(data: &[u8]) -> String {
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

    /// Any byte string round-trips, the encoding is padded to a multiple
    /// of four characters, and it equals the per-character encoder's on
    /// every length 0–64 and on seeded inputs up to 4 KB.
    #[test]
    fn random_bytes_roundtrip_padded() {
        let all: Vec<u8> = Lcg::case(21, CASES).bytes(64, 65);
        let short = (0..=64).map(|len| all[..len].to_vec());
        let seeded = (0..CASES).map(|case| Lcg::case(21, case).bytes(0, 4096));
        let mut tails = [0; 3];
        let mut longest = 0;
        for (case, data) in short.chain(seeded).enumerate() {
            let text = encode(&data);
            assert_eq!(text, encode_per_char(&data), "case {case}");
            assert_eq!(text.len() % 4, 0, "case {case}");
            assert_eq!(decode(&text).as_deref(), Some(&data[..]), "case {case}");
            tails[data.len() % 3] += 1;
            longest = longest.max(data.len());
        }
        assert!(tails.iter().all(|&n| n > 0), "padding shapes: {tails:?}");
        assert!(longest > 3000, "longest input {longest} bytes");
    }
}
