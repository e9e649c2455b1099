//! # canvassing-raster
//!
//! A deterministic, from-scratch software implementation of the HTML
//! Canvas 2D rendering pipeline, built as the rendering substrate for the
//! *Canvassing the Fingerprinters* (IMC 2025) reproduction.
//!
//! Canvas fingerprinting exploits the fact that the same sequence of
//! Canvas API calls renders to different pixels on different machines,
//! while being perfectly deterministic on any one machine. This crate
//! reproduces both halves of that contract in software:
//!
//! * every drawing operation is a pure function of its inputs and the
//!   active [`device::DeviceProfile`], so a crawl machine renders each
//!   test canvas to byte-identical output every time;
//! * device profiles perturb anti-aliasing sample phases, coverage gamma,
//!   and text metrics, so distinct profiles (the paper's Intel Ubuntu
//!   machine vs. Apple M1 laptop) produce distinct pixels for the same
//!   script.
//!
//! The crate provides:
//!
//! * [`canvas::Canvas2D`] — the `CanvasRenderingContext2D` state machine
//!   (paths, fills, strokes, text, gradients, compositing, image data);
//! * [`png`] — a spec-valid PNG encoder (stored-block zlib, CRC-32,
//!   Adler-32) plus a decoder for its own output;
//! * [`lossy`] — deterministic lossy JPEG/WebP stand-ins (the paper's
//!   heuristics exclude lossy extractions);
//! * [`base64`] — RFC 4648 codec for `toDataURL`;
//! * [`text`] — an embedded 5×7 face, CSS font shorthand parsing, layout
//!   with per-device metric jitter, and procedural emoji;
//! * [`device`] — rendering profiles for the paper's crawl machines;
//! * [`SharedText`] — the handle every record holds a data URL through:
//!   one shared copy of the bytes plus their [`content_hash`].

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod base64;
pub mod canvas;
pub mod color;
pub mod device;
pub mod fill;
pub mod geom;
pub mod lossy;
pub mod paint;
pub mod path;
pub mod png;
pub mod pool;
#[cfg(test)]
mod proptests;
pub mod shared;
pub mod stroke;
pub mod surface;
pub mod text;

pub use canvas::{Canvas2D, ImageFormat};
pub use color::Color;
pub use device::DeviceProfile;
pub use paint::{Gradient, Paint};
pub use pool::SurfacePool;
pub use shared::SharedText;
pub use surface::Surface;

/// A stable 64-bit content hash (FNV-1a) used to cluster identical
/// canvases without storing full data URLs.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
    }
}
