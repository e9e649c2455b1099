//! Minimal PNG encoder (and the checksums it needs), from scratch.
//!
//! The encoder emits a spec-valid PNG: IHDR + IDAT + IEND, 8-bit RGBA,
//! filter type 0 on every row, wrapped in a zlib stream that uses *stored*
//! (uncompressed) DEFLATE blocks. Stored blocks keep the implementation
//! small and the output byte-exact and deterministic — which is what canvas
//! clustering relies on. A matching decoder for our own output is provided
//! for tests and for `drawImage` of data URLs.
//!
//! Every extracted canvas passes through [`encode`], so it copies each
//! pixel byte once: it sizes its buffer exactly up front, copies each
//! scanline from the surface straight into its stored block, sums
//! Adler-32 as the rows go in, and computes each chunk's CRC-32 over the
//! bytes already written. [`crc32`] is table-driven slicing-by-8 (Kounavis & Berry,
//! ISCC 2005): eight bytes per step through eight 256-entry tables built
//! at compile time, so there is no lazy initialization.

use crate::surface::Surface;

/// The reflected CRC-32 polynomial (IEEE 802.3), as PNG and zlib use it.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC of byte `b`, and
/// `CRC_TABLES[k][b]` that of `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (ISO 3309) over `data`, as used by PNG chunks.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Adler-32 checksum, as used by zlib streams.
pub fn adler32(data: &[u8]) -> u32 {
    let mut sum = Adler32::NEW;
    sum.update(data);
    sum.finish()
}

/// A running Adler-32 over bytes that arrive in pieces.
#[derive(Clone, Copy)]
struct Adler32 {
    a: u32,
    b: u32,
}

impl Adler32 {
    const NEW: Adler32 = Adler32 { a: 1, b: 0 };

    fn update(&mut self, data: &[u8]) {
        const MOD: u32 = 65521;
        // The most bytes `b` can absorb from sums below `MOD` before it
        // overflows `u32`.
        const NMAX: usize = 5552;
        let (mut a, mut b) = (self.a, self.b);
        for chunk in data.chunks(NMAX) {
            for &byte in chunk {
                a += byte as u32;
                b += a;
            }
            a %= MOD;
            b %= MOD;
        }
        (self.a, self.b) = (a, b);
    }

    fn finish(self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// The largest payload of one stored DEFLATE block.
const STORED_BLOCK: usize = 65_535;

/// Bytes of a zlib stream that stores `raw` bytes: the 2-byte header, a
/// 5-byte header per block (one empty block when `raw` is 0), the bytes
/// themselves and the Adler-32 trailer.
fn stored_len(raw: usize) -> usize {
    2 + 5 * raw.div_ceil(STORED_BLOCK).max(1) + raw + 4
}

/// Writes a zlib stream of stored DEFLATE blocks into a buffer as its raw
/// bytes arrive, opening a block every [`STORED_BLOCK`] bytes and summing
/// Adler-32 over the bytes as they go in.
struct StoredStream<'a> {
    out: &'a mut Vec<u8>,
    /// Raw bytes not yet written.
    remaining: usize,
    /// Room left in the open block.
    room: usize,
    adler: Adler32,
}

impl<'a> StoredStream<'a> {
    /// Starts a stream of `raw` bytes in `out` with the zlib header.
    fn begin(out: &'a mut Vec<u8>, raw: usize) -> StoredStream<'a> {
        out.push(0x78); // CMF: deflate, 32k window
        out.push(0x01); // FLG: no preset dict, fastest (checksum-valid pair)
        let mut stream = StoredStream {
            out,
            remaining: raw,
            room: 0,
            adler: Adler32::NEW,
        };
        if raw == 0 {
            stream.open_block(); // a single final empty stored block
        }
        stream
    }

    fn open_block(&mut self) {
        let len = self.remaining.min(STORED_BLOCK);
        self.out.push(u8::from(len == self.remaining)); // BFINAL; BTYPE=00 stored
        let len16 = len as u16;
        self.out.extend_from_slice(&len16.to_le_bytes());
        self.out.extend_from_slice(&(!len16).to_le_bytes());
        self.room = len;
    }

    fn write(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.room == 0 {
                self.open_block();
            }
            let (now, rest) = bytes.split_at(bytes.len().min(self.room));
            self.out.extend_from_slice(now);
            self.adler.update(now);
            self.room -= now.len();
            self.remaining -= now.len();
            bytes = rest;
        }
    }

    /// Ends the stream with the Adler-32 of everything written.
    fn finish(self) {
        debug_assert_eq!(self.remaining, 0, "stream shorter than announced");
        self.out
            .extend_from_slice(&self.adler.finish().to_be_bytes());
    }
}

/// Inflates a zlib stream consisting of stored blocks only (the format
/// [`encode`] writes). Returns `None` for anything else.
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

/// Bytes a chunk adds around its body: length, tag and CRC.
const CHUNK_FRAME: usize = 12;

/// Writes a chunk's length and tag, and returns where the tag starts:
/// the chunk's CRC covers `out[start..]` once its body follows.
fn begin_chunk(out: &mut Vec<u8>, tag: &[u8; 4], body_len: usize) -> usize {
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    let start = out.len();
    out.extend_from_slice(tag);
    start
}

/// Closes the chunk begun at `start` with the CRC of its tag and body.
fn end_chunk(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// PNG magic bytes.
pub const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];

/// Encodes a surface as an RGBA8 PNG.
pub fn encode(surface: &Surface) -> Vec<u8> {
    let w = surface.width();
    let h = surface.height();
    let stride = w as usize * 4;
    // Raw scanlines: a filter byte, then the row.
    let raw = (stride + 1) * h as usize;
    let idat_len = stored_len(raw);
    let size = PNG_SIGNATURE.len() + (CHUNK_FRAME + 13) + (CHUNK_FRAME + idat_len) + CHUNK_FRAME;
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&PNG_SIGNATURE);

    let ihdr = begin_chunk(&mut out, b"IHDR", 13);
    out.extend_from_slice(&w.to_be_bytes());
    out.extend_from_slice(&h.to_be_bytes());
    out.push(8); // bit depth
    out.push(6); // color type RGBA
    out.push(0); // compression
    out.push(0); // filter method
    out.push(0); // no interlace
    end_chunk(&mut out, ihdr);

    let idat = begin_chunk(&mut out, b"IDAT", idat_len);
    let mut stream = StoredStream::begin(&mut out, raw);
    for row in 0..h as usize {
        stream.write(&[0]); // filter type 0
        stream.write(&surface.data()[row * stride..(row + 1) * stride]);
    }
    stream.finish();
    end_chunk(&mut out, idat);

    let iend = begin_chunk(&mut out, b"IEND", 0);
    end_chunk(&mut out, iend);
    debug_assert_eq!(out.len(), size, "PNG buffer sized exactly");
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

    /// The bitwise CRC-32 loop, eight shift steps per byte: the oracle
    /// for the table-driven [`crc32`].
    fn crc32_bitwise(data: &[u8]) -> u32 {
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

    /// Wraps raw bytes in a zlib stream of stored DEFLATE blocks, one
    /// copy of the input at a time.
    fn zlib_store(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + data.len() / 65535 * 5 + 16);
        out.push(0x78);
        out.push(0x01);
        let mut chunks = data.chunks(65535).peekable();
        if data.is_empty() {
            out.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
        }
        while let Some(chunk) = chunks.next() {
            let bfinal = if chunks.peek().is_none() { 1 } else { 0 };
            out.push(bfinal);
            let len = chunk.len() as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(!len).to_le_bytes());
            out.extend_from_slice(chunk);
        }
        out.extend_from_slice(&adler32(data).to_be_bytes());
        out
    }

    fn chunk(out: &mut Vec<u8>, tag: &[u8; 4], body: &[u8]) {
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(tag);
        out.extend_from_slice(body);
        let mut crc_input = Vec::with_capacity(4 + body.len());
        crc_input.extend_from_slice(tag);
        crc_input.extend_from_slice(body);
        out.extend_from_slice(&crc32_bitwise(&crc_input).to_be_bytes());
    }

    /// The three-copy encoder [`encode`] replaced: rows into `raw`, `raw`
    /// into the zlib stream, the stream into each chunk's CRC input. The
    /// oracle for [`encode`]'s bytes.
    fn encode_three_copies(surface: &Surface) -> Vec<u8> {
        let w = surface.width();
        let h = surface.height();
        let mut out = Vec::with_capacity((w as usize * h as usize) * 4 + 1024);
        out.extend_from_slice(&PNG_SIGNATURE);
        let mut ihdr = Vec::with_capacity(13);
        ihdr.extend_from_slice(&w.to_be_bytes());
        ihdr.extend_from_slice(&h.to_be_bytes());
        ihdr.extend_from_slice(&[8, 6, 0, 0, 0]);
        chunk(&mut out, b"IHDR", &ihdr);
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

    /// Known vectors, then the bitwise oracle on every length 0–64 at
    /// every alignment 0–7 of a seeded buffer, and on one ~70 KB buffer
    /// (a canvas PNG's size).
    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b"IEND"), 0xae426082);

        let buffer = Lcg::case(33, 0).bytes(72, 73);
        for align in 0..8 {
            for len in 0..=64 {
                let data = &buffer[align..align + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "alignment {align}, length {len}"
                );
            }
        }
        let large = Lcg::case(33, 1).bytes(70_000, 70_001);
        assert_eq!(crc32(&large), crc32_bitwise(&large));
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

    /// [`encode`] writes the three-copy encoder's bytes exactly (and, in
    /// debug builds, asserts that it sized its buffer exactly) on seeded
    /// surfaces from 0×0
    /// up: a raw stream just under one stored block (16383×1), exactly
    /// one and two full blocks (64×255, 64×510), just over one (128×129)
    /// and three blocks (300×150), and rows that are only filter bytes.
    #[test]
    fn encode_matches_the_three_copy_encoder() {
        let sizes = [
            (0, 0),
            (1, 1),
            (0, 3),
            (3, 0),
            (5, 3),
            (16383, 1),
            (64, 255),
            (64, 510),
            (128, 129),
            (300, 150),
        ];
        for (case, (w, h)) in sizes.into_iter().enumerate() {
            let mut rng = Lcg::case(34, case as u64);
            let mut s = Surface::new(w, h);
            for b in s.data_mut().iter_mut() {
                *b = rng.byte();
            }
            let png = encode(&s);
            assert!(png == encode_three_copies(&s), "{w}x{h}: bytes differ");
            assert_eq!(decode(&png).as_ref(), Some(&s), "{w}x{h}");
        }
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
