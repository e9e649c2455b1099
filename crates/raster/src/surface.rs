//! The pixel backing store and compositing.
//!
//! A [`Surface`] is a straight-alpha RGBA8 buffer, matching the HTML canvas
//! backing store as observed through `getImageData`. Compositing supports
//! the `globalCompositeOperation` values fingerprinting scripts actually
//! use (`source-over`, `multiply`, `screen`, `lighter`, `destination-over`,
//! `copy`, `xor`); the remaining Porter-Duff operators are intentionally
//! omitted and documented as such.

use crate::color::Color;

/// Supported `globalCompositeOperation` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompositeOp {
    /// Default painter's-algorithm blending.
    #[default]
    SourceOver,
    /// Paint under existing content.
    DestinationOver,
    /// Channel-wise multiply (used by FingerprintJS's winding test canvas).
    Multiply,
    /// Channel-wise screen.
    Screen,
    /// Additive blending.
    Lighter,
    /// Replace destination.
    Copy,
    /// Exclusive-or of coverage.
    Xor,
}

impl CompositeOp {
    /// Parses a `globalCompositeOperation` string; unknown values return
    /// `None` and the canvas keeps its previous op, per spec.
    pub fn parse(s: &str) -> Option<CompositeOp> {
        Some(match s {
            "source-over" => CompositeOp::SourceOver,
            "destination-over" => CompositeOp::DestinationOver,
            "multiply" => CompositeOp::Multiply,
            "screen" => CompositeOp::Screen,
            "lighter" => CompositeOp::Lighter,
            "copy" => CompositeOp::Copy,
            "xor" => CompositeOp::Xor,
            _ => return None,
        })
    }

    /// Canonical string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            CompositeOp::SourceOver => "source-over",
            CompositeOp::DestinationOver => "destination-over",
            CompositeOp::Multiply => "multiply",
            CompositeOp::Screen => "screen",
            CompositeOp::Lighter => "lighter",
            CompositeOp::Copy => "copy",
            CompositeOp::Xor => "xor",
        }
    }
}

/// A straight-alpha RGBA8 raster surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    width: u32,
    height: u32,
    /// Row-major RGBA bytes, `4 * width * height` long.
    data: Vec<u8>,
}

impl Surface {
    /// Creates a fully transparent surface (the canvas initial state).
    pub fn new(width: u32, height: u32) -> Surface {
        Surface {
            width,
            height,
            data: vec![0; (width as usize) * (height as usize) * 4],
        }
    }

    /// Creates a surface reusing `buf` as the backing allocation (the
    /// [`crate::pool::SurfacePool`] fast path). The buffer is resized and
    /// zeroed, so the result is indistinguishable from [`Surface::new`].
    pub fn with_buffer(width: u32, height: u32, mut buf: Vec<u8>) -> Surface {
        let len = (width as usize) * (height as usize) * 4;
        buf.clear();
        buf.resize(len, 0);
        Surface {
            width,
            height,
            data: buf,
        }
    }

    /// Consumes the surface, returning the backing allocation for reuse.
    pub fn into_buffer(self) -> Vec<u8> {
        self.data
    }

    /// Clears every pixel to transparent black without touching the
    /// allocation.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Resizes in place, reusing the existing allocation where possible,
    /// and clears to transparent black (the canvas resize semantics).
    pub fn reset(&mut self, width: u32, height: u32) {
        let len = (width as usize) * (height as usize) * 4;
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(len, 0);
    }

    /// Surface width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Surface height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw RGBA bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw RGBA bytes (used by `putImageData` and noise defenses).
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reads one pixel; out-of-bounds reads return transparent black,
    /// matching `getImageData` on out-of-canvas regions.
    pub fn get(&self, x: i64, y: i64) -> Color {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return Color::TRANSPARENT;
        }
        let i = ((y as usize * self.width as usize) + x as usize) * 4;
        Color::rgba(
            self.data[i],
            self.data[i + 1],
            self.data[i + 2],
            self.data[i + 3],
        )
    }

    /// Writes one pixel unconditionally (no blending); out-of-bounds writes
    /// are ignored.
    pub fn set(&mut self, x: i64, y: i64, c: Color) {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return;
        }
        let i = ((y as usize * self.width as usize) + x as usize) * 4;
        self.data[i] = c.r;
        self.data[i + 1] = c.g;
        self.data[i + 2] = c.b;
        self.data[i + 3] = c.a;
    }

    /// Clears a rectangle to transparent black (`clearRect`). Coordinates
    /// are clamped to the surface.
    pub fn clear_rect(&mut self, x: i64, y: i64, w: i64, h: i64) {
        let x0 = x.max(0);
        let y0 = y.max(0);
        let x1 = (x + w).min(self.width as i64);
        let y1 = (y + h).min(self.height as i64);
        for yy in y0..y1 {
            for xx in x0..x1 {
                self.set(xx, yy, Color::TRANSPARENT);
            }
        }
    }

    /// Blends `src` over the pixel at `(x, y)` with coverage `cov` in
    /// `[0, 1]` using the given composite operation.
    pub fn blend(&mut self, x: i64, y: i64, src: Color, cov: f64, op: CompositeOp) {
        if cov <= 0.0 {
            return;
        }
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return;
        }
        let dst = self.get(x, y);
        let out = composite(src, dst, cov.min(1.0), op);
        self.set(x, y, out);
    }

    /// Fast path: whether every pixel is fully transparent.
    pub fn is_blank(&self) -> bool {
        self.data.iter().all(|&b| b == 0)
    }
}

/// Porter-Duff-style compositing of straight-alpha colors with fractional
/// source coverage. Works in normalized f64 then rounds; deterministic.
fn composite(src: Color, dst: Color, cov: f64, op: CompositeOp) -> Color {
    let sa = (src.a as f64 / 255.0) * cov;
    let da = dst.a as f64 / 255.0;
    let (sr, sg, sb) = (
        src.r as f64 / 255.0,
        src.g as f64 / 255.0,
        src.b as f64 / 255.0,
    );
    let (dr, dg, db) = (
        dst.r as f64 / 255.0,
        dst.g as f64 / 255.0,
        dst.b as f64 / 255.0,
    );

    // Blend stage (for separable blend modes) operates on unpremultiplied
    // color; compositing stage is source-over with the blended color,
    // following the CSS compositing spec structure.
    let blend = |s: f64, d: f64| -> f64 {
        match op {
            CompositeOp::Multiply => s * d,
            CompositeOp::Screen => s + d - s * d,
            _ => s,
        }
    };

    match op {
        CompositeOp::Copy => {
            let a = sa;
            pack(sr, sg, sb, a)
        }
        CompositeOp::Lighter => {
            let a = (sa + da).min(1.0);
            // Additive on premultiplied values.
            let r = (sr * sa + dr * da).min(1.0);
            let g = (sg * sa + dg * da).min(1.0);
            let b = (sb * sa + db * da).min(1.0);
            unpack_premul(r, g, b, a)
        }
        CompositeOp::DestinationOver => {
            let a = da + sa * (1.0 - da);
            if a <= 0.0 {
                return Color::TRANSPARENT;
            }
            let r = (dr * da + sr * sa * (1.0 - da)) / a;
            let g = (dg * da + sg * sa * (1.0 - da)) / a;
            let b = (db * da + sb * sa * (1.0 - da)) / a;
            pack(r, g, b, a)
        }
        CompositeOp::Xor => {
            let a = sa * (1.0 - da) + da * (1.0 - sa);
            if a <= 0.0 {
                return Color::TRANSPARENT;
            }
            let r = (sr * sa * (1.0 - da) + dr * da * (1.0 - sa)) / a;
            let g = (sg * sa * (1.0 - da) + dg * da * (1.0 - sa)) / a;
            let b = (sb * sa * (1.0 - da) + db * da * (1.0 - sa)) / a;
            pack(r, g, b, a)
        }
        CompositeOp::SourceOver | CompositeOp::Multiply | CompositeOp::Screen => {
            // Mix the blend-mode result with the source proportionally to
            // the destination alpha, then source-over composite.
            let br = blend(sr, dr) * da + sr * (1.0 - da);
            let bg = blend(sg, dg) * da + sg * (1.0 - da);
            let bb = blend(sb, db) * da + sb * (1.0 - da);
            let a = sa + da * (1.0 - sa);
            if a <= 0.0 {
                return Color::TRANSPARENT;
            }
            let r = (br * sa + dr * da * (1.0 - sa)) / a;
            let g = (bg * sa + dg * da * (1.0 - sa)) / a;
            let b = (bb * sa + db * da * (1.0 - sa)) / a;
            pack(r, g, b, a)
        }
    }
}

fn pack(r: f64, g: f64, b: f64, a: f64) -> Color {
    Color::rgba(
        (r.clamp(0.0, 1.0) * 255.0).round() as u8,
        (g.clamp(0.0, 1.0) * 255.0).round() as u8,
        (b.clamp(0.0, 1.0) * 255.0).round() as u8,
        (a.clamp(0.0, 1.0) * 255.0).round() as u8,
    )
}

fn unpack_premul(r: f64, g: f64, b: f64, a: f64) -> Color {
    if a <= 0.0 {
        return Color::TRANSPARENT;
    }
    pack(r / a, g / a, b / a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_surface_is_blank() {
        let s = Surface::new(4, 4);
        assert!(s.is_blank());
        assert_eq!(s.get(0, 0), Color::TRANSPARENT);
        assert_eq!(s.get(-1, 0), Color::TRANSPARENT);
        assert_eq!(s.get(4, 0), Color::TRANSPARENT);
    }

    #[test]
    fn source_over_opaque_replaces() {
        let mut s = Surface::new(2, 2);
        s.blend(0, 0, Color::rgb(10, 20, 30), 1.0, CompositeOp::SourceOver);
        assert_eq!(s.get(0, 0), Color::rgb(10, 20, 30));
    }

    #[test]
    fn source_over_half_coverage_on_white() {
        let mut s = Surface::new(1, 1);
        s.blend(0, 0, Color::WHITE, 1.0, CompositeOp::SourceOver);
        s.blend(0, 0, Color::BLACK, 0.5, CompositeOp::SourceOver);
        let c = s.get(0, 0);
        assert_eq!(c.a, 255);
        assert!((c.r as i32 - 128).abs() <= 1, "got {c:?}");
    }

    /// The exactness argument behind the canvas's full-coverage fast path:
    /// source-over of an opaque source at coverage 1.0 returns the source
    /// exactly. Each source channel takes all 256 values, against every
    /// destination alpha and a spread of destination colors.
    #[test]
    fn opaque_full_coverage_source_over_returns_the_source() {
        const SPREAD: [u8; 9] = [0, 1, 2, 63, 127, 128, 200, 254, 255];
        for v in 0..=255u8 {
            // 255 - v and 97·v also take every value as v does.
            let src = Color::rgb(v, 255 - v, v.wrapping_mul(97));
            for a in 0..=255 {
                for d in SPREAD {
                    let dst = Color::rgba(d, 255 - d, d ^ 0x5a, a);
                    let out = composite(src, dst, 1.0, CompositeOp::SourceOver);
                    assert!(out == src, "{src:?} over {dst:?} gave {out:?}");
                }
            }
        }
    }

    #[test]
    fn lighter_saturates() {
        let mut s = Surface::new(1, 1);
        s.blend(0, 0, Color::rgb(200, 0, 0), 1.0, CompositeOp::SourceOver);
        s.blend(0, 0, Color::rgb(200, 0, 0), 1.0, CompositeOp::Lighter);
        assert_eq!(s.get(0, 0).r, 255);
    }

    #[test]
    fn multiply_darkens() {
        let mut s = Surface::new(1, 1);
        s.blend(
            0,
            0,
            Color::rgb(128, 128, 128),
            1.0,
            CompositeOp::SourceOver,
        );
        s.blend(0, 0, Color::rgb(128, 128, 128), 1.0, CompositeOp::Multiply);
        let c = s.get(0, 0);
        assert!((c.r as i32 - 64).abs() <= 1, "got {c:?}");
    }

    #[test]
    fn copy_replaces_including_alpha() {
        let mut s = Surface::new(1, 1);
        s.blend(0, 0, Color::WHITE, 1.0, CompositeOp::SourceOver);
        s.blend(0, 0, Color::rgba(0, 0, 0, 0), 1.0, CompositeOp::Copy);
        assert_eq!(s.get(0, 0).a, 0);
    }

    #[test]
    fn xor_with_opaque_dst_erases() {
        let mut s = Surface::new(1, 1);
        s.blend(0, 0, Color::WHITE, 1.0, CompositeOp::SourceOver);
        s.blend(0, 0, Color::BLACK, 1.0, CompositeOp::Xor);
        assert_eq!(s.get(0, 0).a, 0);
    }

    #[test]
    fn clear_rect_clamps_to_bounds() {
        let mut s = Surface::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                s.set(x, y, Color::WHITE);
            }
        }
        s.clear_rect(-10, -10, 12, 12);
        assert_eq!(s.get(0, 0).a, 0);
        assert_eq!(s.get(1, 1).a, 0);
        assert_eq!(s.get(2, 2), Color::WHITE);
    }

    #[test]
    fn composite_op_parse_roundtrip() {
        for op in [
            CompositeOp::SourceOver,
            CompositeOp::DestinationOver,
            CompositeOp::Multiply,
            CompositeOp::Screen,
            CompositeOp::Lighter,
            CompositeOp::Copy,
            CompositeOp::Xor,
        ] {
            assert_eq!(CompositeOp::parse(op.as_str()), Some(op));
        }
        assert_eq!(CompositeOp::parse("source-atop"), None);
    }
}
