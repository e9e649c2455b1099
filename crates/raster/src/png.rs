//! Minimal PNG encoder (and the checksums it needs), from scratch.
//!
//! The encoder emits a spec-valid PNG: IHDR + IDAT + IEND, 8-bit RGBA,
//! filter type 0 on every row, wrapped in a zlib stream that uses *stored*
//! (uncompressed) DEFLATE blocks. Stored blocks keep the implementation
//! small and the output byte-exact and deterministic — which is what canvas
//! clustering relies on. A matching decoder for our own output is provided
//! for tests and for `drawImage` of data URLs.

use crate::surface::Surface;

/// CRC-32 (ISO 3309) over `data`, as used by PNG chunks.
pub fn crc32(data: &[u8]) -> u32 {
    // Bitwise implementation; fast enough for our canvas sizes and free of
    // lookup-table initialization order concerns.
    let mut crc: u32 = 0xffff_ffff;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32 checksum, as used by zlib streams.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Wraps raw bytes in a zlib stream of stored DEFLATE blocks.
pub fn zlib_store(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 65535 * 5 + 16);
    out.push(0x78); // CMF: deflate, 32k window
    out.push(0x01); // FLG: no preset dict, fastest (checksum-valid pair)
    let mut chunks = data.chunks(65535).peekable();
    if data.is_empty() {
        // A single final empty stored block.
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
    }
    while let Some(chunk) = chunks.next() {
        let bfinal = if chunks.peek().is_none() { 1 } else { 0 };
        out.push(bfinal); // BTYPE=00 stored
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Inflates a zlib stream consisting of stored blocks only (the format
/// `zlib_store` produces). Returns `None` for anything else.
pub fn zlib_unstore(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < 6 {
        return None;
    }
    let mut pos = 2; // skip CMF/FLG
    let mut out = Vec::new();
    loop {
        let header = *data.get(pos)?;
        pos += 1;
        if header & 0b110 != 0 {
            return None; // not a stored block
        }
        let len = u16::from_le_bytes([*data.get(pos)?, *data.get(pos + 1)?]) as usize;
        let nlen = u16::from_le_bytes([*data.get(pos + 2)?, *data.get(pos + 3)?]);
        if !(len as u16) != nlen {
            return None;
        }
        pos += 4;
        out.extend_from_slice(data.get(pos..pos + len)?);
        pos += len;
        if header & 1 == 1 {
            break;
        }
    }
    let sum = u32::from_be_bytes([
        *data.get(pos)?,
        *data.get(pos + 1)?,
        *data.get(pos + 2)?,
        *data.get(pos + 3)?,
    ]);
    if sum != adler32(&out) {
        return None;
    }
    Some(out)
}

fn chunk(out: &mut Vec<u8>, tag: &[u8; 4], body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(tag);
    out.extend_from_slice(body);
    let mut crc_input = Vec::with_capacity(4 + body.len());
    crc_input.extend_from_slice(tag);
    crc_input.extend_from_slice(body);
    out.extend_from_slice(&crc32(&crc_input).to_be_bytes());
}

/// PNG magic bytes.
pub const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];

/// Encodes a surface as an RGBA8 PNG.
pub fn encode(surface: &Surface) -> Vec<u8> {
    let w = surface.width();
    let h = surface.height();
    let mut out = Vec::with_capacity((w as usize * h as usize) * 4 + 1024);
    out.extend_from_slice(&PNG_SIGNATURE);

    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&w.to_be_bytes());
    ihdr.extend_from_slice(&h.to_be_bytes());
    ihdr.push(8); // bit depth
    ihdr.push(6); // color type RGBA
    ihdr.push(0); // compression
    ihdr.push(0); // filter method
    ihdr.push(0); // no interlace
    chunk(&mut out, b"IHDR", &ihdr);

    // Raw scanlines with filter byte 0.
    let stride = w as usize * 4;
    let mut raw = Vec::with_capacity((stride + 1) * h as usize);
    for row in 0..h as usize {
        raw.push(0);
        raw.extend_from_slice(&surface.data()[row * stride..(row + 1) * stride]);
    }
    chunk(&mut out, b"IDAT", &zlib_store(&raw));
    chunk(&mut out, b"IEND", &[]);
    out
}

/// Decodes a PNG produced by [`encode`] (RGBA8, filter 0, stored-block
/// zlib). Used by tests and by `drawImage` of our own data URLs. Returns
/// `None` for foreign PNGs.
pub fn decode(data: &[u8]) -> Option<Surface> {
    if data.len() < 8 || data[..8] != PNG_SIGNATURE {
        return None;
    }
    let mut pos = 8;
    let mut width = 0u32;
    let mut height = 0u32;
    let mut idat = Vec::new();
    while pos + 8 <= data.len() {
        let len = u32::from_be_bytes(data[pos..pos + 4].try_into().ok()?) as usize;
        let tag = &data[pos + 4..pos + 8];
        let body = data.get(pos + 8..pos + 8 + len)?;
        match tag {
            b"IHDR" => {
                if body.len() != 13 || body[8] != 8 || body[9] != 6 {
                    return None;
                }
                width = u32::from_be_bytes(body[0..4].try_into().ok()?);
                height = u32::from_be_bytes(body[4..8].try_into().ok()?);
            }
            b"IDAT" => idat.extend_from_slice(body),
            b"IEND" => break,
            _ => {}
        }
        pos += 8 + len + 4; // skip CRC
    }
    let raw = zlib_unstore(&idat)?;
    let stride = width as usize * 4;
    if raw.len() != (stride + 1) * height as usize {
        return None;
    }
    let mut surface = Surface::new(width, height);
    for row in 0..height as usize {
        let line = &raw[row * (stride + 1)..(row + 1) * (stride + 1)];
        if line[0] != 0 {
            return None; // only filter 0 supported
        }
        surface.data_mut()[row * stride..(row + 1) * stride].copy_from_slice(&line[1..]);
    }
    Some(surface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::proptests::{Lcg, CASES};

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b"IEND"), 0xae426082);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11e60398);
    }

    #[test]
    fn zlib_roundtrip() {
        for data in [&b""[..], b"hello", &vec![7u8; 200_000][..]] {
            let z = zlib_store(data);
            assert_eq!(zlib_unstore(&z).unwrap(), data);
        }
    }

    #[test]
    fn zlib_detects_corruption() {
        let mut z = zlib_store(b"hello world");
        let n = z.len();
        z[n - 1] ^= 0xff; // corrupt adler
        assert!(zlib_unstore(&z).is_none());
    }

    #[test]
    fn png_roundtrip() {
        let mut s = Surface::new(5, 3);
        s.set(0, 0, Color::rgb(1, 2, 3));
        s.set(4, 2, Color::rgba(200, 100, 50, 25));
        let png = encode(&s);
        assert_eq!(&png[..8], &PNG_SIGNATURE);
        let back = decode(&png).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn png_is_deterministic() {
        let mut s = Surface::new(16, 16);
        s.set(3, 3, Color::WHITE);
        assert_eq!(encode(&s), encode(&s));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"not a png").is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn zero_sized_surface_encodes() {
        let s = Surface::new(0, 0);
        let png = encode(&s);
        assert_eq!(decode(&png).unwrap().width(), 0);
    }

    /// Any byte string round-trips through the stored zlib stream.
    #[test]
    fn zlib_roundtrips_random_bytes() {
        let mut longest = 0;
        for case in 0..CASES {
            let data = Lcg::case(31, case).bytes(0, 4096);
            assert_eq!(
                zlib_unstore(&zlib_store(&data)).as_deref(),
                Some(&data[..]),
                "case {case}"
            );
            longest = longest.max(data.len());
        }
        assert!(longest > 3000, "longest input {longest} bytes");
    }

    /// Surfaces of random size and random pixels round-trip through PNG.
    #[test]
    fn png_roundtrips_random_pixels() {
        let mut widths = std::collections::BTreeSet::new();
        for case in 0..CASES {
            let mut rng = Lcg::case(32, case);
            let (w, h) = (1 + rng.below(11) as u32, 1 + rng.below(11) as u32);
            let mut s = Surface::new(w, h);
            for b in s.data_mut().iter_mut() {
                *b = rng.byte();
            }
            assert_eq!(decode(&encode(&s)).as_ref(), Some(&s), "case {case}");
            widths.insert(w);
        }
        assert_eq!(widths.len(), 11, "widths drawn: {widths:?}");
    }
}
