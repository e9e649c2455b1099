//! The Canvas 2D drawing context: a software implementation of the
//! `CanvasRenderingContext2D` state machine over a [`Surface`].
//!
//! This type implements the drawing semantics; the DOM-facing object in
//! `canvassing-dom` wraps it with call instrumentation. Everything here is
//! deterministic given the same [`DeviceProfile`].
//!
//! Intentional omissions (documented per the project's guide idiom):
//! shadows, `clip()`, `createPattern`, dash patterns, and `filter` are not
//! implemented — none of the fingerprinting or benign scripts modeled in
//! this reproduction use them. Unknown values assigned to state properties
//! are ignored, matching the HTML spec.

use crate::color::{parse_css_color, Color};
use crate::device::DeviceProfile;
use crate::fill::{rasterize, rasterize_union, FillRule, Mask};
use crate::geom::{Point, Transform};
use crate::lossy::{encode_jpeg, encode_webp};
use crate::paint::{Gradient, Paint};
use crate::path::Path;
use crate::png;
use crate::stroke::{stroke_polygons, LineCap};
use crate::surface::{CompositeOp, Surface};
use crate::text::{
    layout_text, measure_text, parse_font, transform_glyphs, FontSpec, TextBaseline,
};

/// Image MIME types supported by `toDataURL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageFormat {
    /// Lossless PNG (the default and the only fingerprintable format).
    Png,
    /// Lossy JPEG stand-in.
    Jpeg,
    /// Lossy WebP stand-in.
    Webp,
}

impl ImageFormat {
    /// Resolves a MIME string the way `toDataURL` does: unknown types fall
    /// back to PNG.
    pub fn from_mime(mime: &str) -> ImageFormat {
        match mime.trim().to_ascii_lowercase().as_str() {
            "image/jpeg" | "image/jpg" => ImageFormat::Jpeg,
            "image/webp" => ImageFormat::Webp,
            _ => ImageFormat::Png,
        }
    }

    /// The canonical MIME type string.
    pub fn mime(&self) -> &'static str {
        match self {
            ImageFormat::Png => "image/png",
            ImageFormat::Jpeg => "image/jpeg",
            ImageFormat::Webp => "image/webp",
        }
    }
}

/// `toDataURL(mime, quality)` over any surface: resolves `mime` with
/// [`ImageFormat::from_mime`], defaults `quality` to 0.92 and clamps it to
/// `[0, 1]`, encodes, and returns `data:<mime>;base64,<payload>`, built in
/// one buffer.
pub fn data_url(surface: &Surface, mime: &str, quality: Option<f64>) -> String {
    let format = ImageFormat::from_mime(mime);
    let quality = quality.unwrap_or(0.92).clamp(0.0, 1.0);
    let bytes = match format {
        ImageFormat::Png => png::encode(surface),
        ImageFormat::Jpeg => encode_jpeg(surface, quality),
        ImageFormat::Webp => encode_webp(surface, quality),
    };
    crate::base64::encode_after(&format!("data:{};base64,", format.mime()), &bytes)
}

/// Mutable drawing state saved/restored by `save()`/`restore()`.
#[derive(Debug, Clone)]
struct DrawState {
    ctm: Transform,
    fill: Paint,
    stroke: Paint,
    global_alpha: f64,
    op: CompositeOp,
    font: FontSpec,
    baseline: TextBaseline,
    line_width: f64,
    line_cap: LineCap,
}

impl Default for DrawState {
    fn default() -> Self {
        DrawState {
            ctm: Transform::identity(),
            fill: Paint::Solid(Color::BLACK),
            stroke: Paint::Solid(Color::BLACK),
            global_alpha: 1.0,
            op: CompositeOp::SourceOver,
            font: FontSpec::default(),
            baseline: TextBaseline::Alphabetic,
            line_width: 1.0,
            line_cap: LineCap::Butt,
        }
    }
}

/// A software `CanvasRenderingContext2D`.
#[derive(Debug, Clone)]
pub struct Canvas2D {
    surface: Surface,
    device: DeviceProfile,
    state: DrawState,
    stack: Vec<DrawState>,
    path: Path,
}

impl Canvas2D {
    /// Creates a context over a transparent surface of the given size.
    pub fn new(width: u32, height: u32, device: DeviceProfile) -> Canvas2D {
        Canvas2D {
            surface: Surface::new(width, height),
            device,
            state: DrawState::default(),
            stack: Vec::new(),
            path: Path::new(),
        }
    }

    /// Backing surface width.
    pub fn width(&self) -> u32 {
        self.surface.width()
    }

    /// Backing surface height.
    pub fn height(&self) -> u32 {
        self.surface.height()
    }

    /// The device profile in effect.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Read access to the backing surface.
    pub fn surface(&self) -> &Surface {
        &self.surface
    }

    /// Creates a context over a recycled pixel buffer (see
    /// [`crate::pool::SurfacePool`]); behaviorally identical to
    /// [`Canvas2D::new`].
    pub fn with_buffer(width: u32, height: u32, device: DeviceProfile, buf: Vec<u8>) -> Canvas2D {
        Canvas2D {
            surface: Surface::with_buffer(width, height, buf),
            device,
            state: DrawState::default(),
            stack: Vec::new(),
            path: Path::new(),
        }
    }

    /// Consumes the context, returning the backing pixel allocation for
    /// recycling.
    pub fn into_buffer(self) -> Vec<u8> {
        self.surface.into_buffer()
    }

    /// Resizes the canvas, which (per spec) resets all state and clears
    /// the backing store. The pixel allocation is reused in place — every
    /// fingerprinting script sets `width` and `height` on a fresh canvas,
    /// so this path used to cost two reallocations per canvas per visit.
    pub fn resize(&mut self, width: u32, height: u32) {
        self.surface.reset(width, height);
        self.state = DrawState::default();
        self.stack.clear();
        self.path = Path::new();
    }

    // ----- state -----

    /// `save()`: pushes the current state.
    pub fn save(&mut self) {
        self.stack.push(self.state.clone());
    }

    /// `restore()`: pops the state stack (no-op when empty, per spec).
    pub fn restore(&mut self) {
        if let Some(prev) = self.stack.pop() {
            self.state = prev;
        }
    }

    /// `translate(x, y)`.
    pub fn translate(&mut self, x: f64, y: f64) {
        self.state.ctm = self.state.ctm.then(&Transform::translate(x, y));
    }

    /// `scale(x, y)`.
    pub fn scale(&mut self, x: f64, y: f64) {
        self.state.ctm = self.state.ctm.then(&Transform::scale(x, y));
    }

    /// `rotate(theta)`.
    pub fn rotate(&mut self, theta: f64) {
        self.state.ctm = self.state.ctm.then(&Transform::rotate(theta));
    }

    /// `transform(a, b, c, d, e, f)` — multiplies the CTM.
    pub fn transform(&mut self, a: f64, b: f64, c: f64, d: f64, e: f64, f: f64) {
        self.state.ctm = self.state.ctm.then(&Transform { a, b, c, d, e, f });
    }

    /// `setTransform(...)` — replaces the CTM.
    pub fn set_transform(&mut self, a: f64, b: f64, c: f64, d: f64, e: f64, f: f64) {
        self.state.ctm = Transform { a, b, c, d, e, f };
    }

    /// `resetTransform()`.
    pub fn reset_transform(&mut self) {
        self.state.ctm = Transform::identity();
    }

    /// Assigns `fillStyle` from a CSS color string; invalid values are
    /// ignored (spec behavior).
    pub fn set_fill_style(&mut self, style: &str) {
        if let Ok(c) = parse_css_color(style) {
            self.state.fill = Paint::Solid(c);
        }
    }

    /// Assigns `fillStyle` from a gradient object.
    pub fn set_fill_gradient(&mut self, gradient: Gradient) {
        self.state.fill = Paint::Gradient(gradient);
    }

    /// Assigns `strokeStyle` from a CSS color string.
    pub fn set_stroke_style(&mut self, style: &str) {
        if let Ok(c) = parse_css_color(style) {
            self.state.stroke = Paint::Solid(c);
        }
    }

    /// Assigns `strokeStyle` from a gradient object.
    pub fn set_stroke_gradient(&mut self, gradient: Gradient) {
        self.state.stroke = Paint::Gradient(gradient);
    }

    /// Assigns `globalAlpha`; out-of-range values are ignored per spec.
    pub fn set_global_alpha(&mut self, alpha: f64) {
        if (0.0..=1.0).contains(&alpha) {
            self.state.global_alpha = alpha;
        }
    }

    /// Current `globalAlpha`.
    pub fn global_alpha(&self) -> f64 {
        self.state.global_alpha
    }

    /// Assigns `globalCompositeOperation`; unknown strings are ignored.
    pub fn set_composite_op(&mut self, op: &str) {
        if let Some(parsed) = CompositeOp::parse(op) {
            self.state.op = parsed;
        }
    }

    /// Current `globalCompositeOperation` string.
    pub fn composite_op(&self) -> &'static str {
        self.state.op.as_str()
    }

    /// Assigns `font` from a CSS shorthand; invalid values are ignored.
    pub fn set_font(&mut self, font: &str) {
        if let Some(spec) = parse_font(font) {
            self.state.font = spec;
        }
    }

    /// Current font spec.
    pub fn font(&self) -> &FontSpec {
        &self.state.font
    }

    /// Assigns `textBaseline`; unknown strings are ignored.
    pub fn set_text_baseline(&mut self, baseline: &str) {
        if let Some(b) = TextBaseline::parse(baseline) {
            self.state.baseline = b;
        }
    }

    /// Assigns `lineWidth`; non-positive or non-finite values are ignored.
    pub fn set_line_width(&mut self, width: f64) {
        if width.is_finite() && width > 0.0 {
            self.state.line_width = width;
        }
    }

    /// Assigns `lineCap`; unknown strings are ignored.
    pub fn set_line_cap(&mut self, cap: &str) {
        if let Some(c) = LineCap::parse(cap) {
            self.state.line_cap = c;
        }
    }

    // ----- path API -----

    /// `beginPath()`.
    pub fn begin_path(&mut self) {
        self.path = Path::new();
    }

    /// `closePath()`.
    pub fn close_path(&mut self) {
        self.path.close();
    }

    /// `moveTo`.
    pub fn move_to(&mut self, x: f64, y: f64) {
        self.path.move_to(x, y);
    }

    /// `lineTo`.
    pub fn line_to(&mut self, x: f64, y: f64) {
        self.path.line_to(x, y);
    }

    /// `quadraticCurveTo`.
    pub fn quadratic_curve_to(&mut self, cx: f64, cy: f64, x: f64, y: f64) {
        self.path.quad_to(cx, cy, x, y);
    }

    /// `bezierCurveTo`.
    pub fn bezier_curve_to(&mut self, c1x: f64, c1y: f64, c2x: f64, c2y: f64, x: f64, y: f64) {
        self.path.cubic_to(c1x, c1y, c2x, c2y, x, y);
    }

    /// `arc`.
    pub fn arc(&mut self, x: f64, y: f64, r: f64, start: f64, end: f64, ccw: bool) {
        self.path.arc(x, y, r, start, end, ccw);
    }

    /// `ellipse`.
    #[allow(clippy::too_many_arguments)]
    pub fn ellipse(
        &mut self,
        x: f64,
        y: f64,
        rx: f64,
        ry: f64,
        rotation: f64,
        start: f64,
        end: f64,
        ccw: bool,
    ) {
        self.path.ellipse(x, y, rx, ry, rotation, start, end, ccw);
    }

    /// `rect`.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64) {
        self.path.rect(x, y, w, h);
    }

    /// `fill(rule)` — fills the current path.
    pub fn fill(&mut self, rule: FillRule) {
        let polys = self.path.flatten(&self.state.ctm);
        let mask = rasterize(&polys, rule, self.width(), self.height(), &self.device);
        self.composite_mask(&mask, &self.state.fill.clone());
    }

    /// `stroke()` — strokes the current path.
    pub fn stroke(&mut self) {
        let polys = self.path.flatten(&self.state.ctm);
        // Scale line width by the CTM's scale (approximation: uniform max
        // scale; non-uniform stroke transforms are out of scope).
        let width = self.state.line_width * self.state.ctm.max_scale();
        let groups = stroke_polygons(&polys, width, self.state.line_cap);
        let mask = rasterize_union(&groups, self.width(), self.height(), &self.device);
        self.composite_mask(&mask, &self.state.stroke.clone());
    }

    // ----- rect shortcuts -----

    /// `fillRect`.
    pub fn fill_rect(&mut self, x: f64, y: f64, w: f64, h: f64) {
        let mut p = Path::new();
        p.rect(x, y, w, h);
        let polys = p.flatten(&self.state.ctm);
        let mask = rasterize(
            &polys,
            FillRule::NonZero,
            self.width(),
            self.height(),
            &self.device,
        );
        self.composite_mask(&mask, &self.state.fill.clone());
    }

    /// `strokeRect`.
    pub fn stroke_rect(&mut self, x: f64, y: f64, w: f64, h: f64) {
        let mut p = Path::new();
        p.rect(x, y, w, h);
        let polys = p.flatten(&self.state.ctm);
        let width = self.state.line_width * self.state.ctm.max_scale();
        let groups = stroke_polygons(&polys, width, self.state.line_cap);
        let mask = rasterize_union(&groups, self.width(), self.height(), &self.device);
        self.composite_mask(&mask, &self.state.stroke.clone());
    }

    /// `clearRect` — erases to transparent black (honors the CTM).
    pub fn clear_rect(&mut self, x: f64, y: f64, w: f64, h: f64) {
        if self.state.ctm.is_identity() {
            self.surface.clear_rect(
                x.floor() as i64,
                y.floor() as i64,
                w.ceil() as i64,
                h.ceil() as i64,
            );
            return;
        }
        let mut p = Path::new();
        p.rect(x, y, w, h);
        let polys = p.flatten(&self.state.ctm);
        let mask = rasterize(
            &polys,
            FillRule::NonZero,
            self.width(),
            self.height(),
            &self.device,
        );
        // Erase: dst.a *= (1 - coverage).
        for py in mask.y0..mask.y0 + mask.h as i64 {
            for px in mask.x0..mask.x0 + mask.w as i64 {
                let cov = mask.coverage(px, py);
                if cov > 0.0 {
                    let mut c = self.surface.get(px, py);
                    c.a = (c.a as f64 * (1.0 - cov)).round() as u8;
                    self.surface.set(px, py, c);
                }
            }
        }
    }

    // ----- text -----

    /// `fillText`.
    pub fn fill_text(&mut self, text: &str, x: f64, y: f64) {
        let glyphs = layout_text(
            text,
            x,
            y,
            &self.state.font,
            self.state.baseline,
            &self.device,
        );
        let polys = transform_glyphs(&glyphs, &self.state.ctm);
        let mut mask = rasterize(
            &polys,
            FillRule::NonZero,
            self.width(),
            self.height(),
            &self.device,
        );
        self.soften_glyph_mask(&mut mask);
        self.composite_mask(&mask, &self.state.fill.clone());
    }

    /// `strokeText` — approximated as a thin-stroked fill of the glyph
    /// outlines.
    pub fn stroke_text(&mut self, text: &str, x: f64, y: f64) {
        let glyphs = layout_text(
            text,
            x,
            y,
            &self.state.font,
            self.state.baseline,
            &self.device,
        );
        let polys = transform_glyphs(&glyphs, &self.state.ctm);
        let width = self.state.line_width.min(2.0);
        let groups = stroke_polygons(&polys, width, self.state.line_cap);
        let mut mask = rasterize_union(&groups, self.width(), self.height(), &self.device);
        self.soften_glyph_mask(&mut mask);
        self.composite_mask(&mask, &self.state.stroke.clone());
    }

    /// `measureText().width`.
    pub fn measure_text(&self, text: &str) -> f64 {
        measure_text(text, &self.state.font, &self.device) * self.state.ctm.max_scale()
            / self.state.ctm.max_scale() // width is reported in user units
    }

    /// Applies the device's glyph softness (sub-pixel smoothing emulation)
    /// as a tiny separable box blur over the glyph coverage mask.
    fn soften_glyph_mask(&self, mask: &mut Mask) {
        let s = self.device.glyph_softness;
        if s <= 0.0 || mask.w == 0 {
            return;
        }
        let k = s.clamp(0.0, 1.0) * 0.25;
        let w = mask.w;
        let h = mask.h;
        let src = mask.cov.clone();
        for y in 0..h {
            for x in 0..w {
                let at = |xx: isize, yy: isize| -> f32 {
                    if xx < 0 || yy < 0 || xx >= w as isize || yy >= h as isize {
                        0.0
                    } else {
                        src[yy as usize * w + xx as usize]
                    }
                };
                let center = at(x as isize, y as isize);
                let neighbors = at(x as isize - 1, y as isize)
                    + at(x as isize + 1, y as isize)
                    + at(x as isize, y as isize - 1)
                    + at(x as isize, y as isize + 1);
                mask.cov[y * w + x] =
                    (center * (1.0 - k as f32) + neighbors * (k as f32 / 4.0)).min(1.0);
            }
        }
    }

    // ----- images & pixels -----

    /// `drawImage(image, dx, dy, dw, dh)` with nearest-neighbor sampling.
    /// Pass the source surface (e.g. another canvas's backing store).
    /// Walks the device pixels of the destination rectangle's transformed
    /// bounding box, clipped to the surface, and maps each pixel center
    /// back through the inverse CTM into the rectangle, then into the
    /// source.
    pub fn draw_image(&mut self, src: &Surface, dx: f64, dy: f64, dw: f64, dh: f64) {
        if src.width() == 0 || src.height() == 0 || dw <= 0.0 || dh <= 0.0 {
            return;
        }
        let ctm = self.state.ctm;
        let Some(inv) = ctm.invert() else {
            return;
        };
        let corners = [(dx, dy), (dx + dw, dy), (dx, dy + dh), (dx + dw, dy + dh)]
            .map(|(x, y)| ctm.apply(Point::new(x, y)));
        let (mut lo, mut hi) = (corners[0], corners[0]);
        for c in &corners[1..] {
            lo = Point::new(lo.x.min(c.x), lo.y.min(c.y));
            hi = Point::new(hi.x.max(c.x), hi.y.max(c.y));
        }
        let x0 = (lo.x.floor() as i64).max(0);
        let y0 = (lo.y.floor() as i64).max(0);
        let x1 = (hi.x.ceil() as i64).min(self.width() as i64);
        let y1 = (hi.y.ceil() as i64).min(self.height() as i64);
        for py in y0..y1 {
            for px in x0..x1 {
                let user = inv.apply(Point::new(px as f64 + 0.5, py as f64 + 0.5));
                if user.x < dx || user.x >= dx + dw || user.y < dy || user.y >= dy + dh {
                    continue;
                }
                let sx = ((user.x - dx) / dw * src.width() as f64).floor() as i64;
                let sy = ((user.y - dy) / dh * src.height() as f64).floor() as i64;
                let c = src
                    .get(
                        sx.min(src.width() as i64 - 1),
                        sy.min(src.height() as i64 - 1),
                    )
                    .with_alpha_scaled(self.state.global_alpha);
                self.surface.blend(px, py, c, 1.0, self.state.op);
            }
        }
    }

    /// `getImageData(x, y, w, h)` — returns straight-alpha RGBA bytes;
    /// out-of-bounds pixels are transparent black.
    pub fn get_image_data(&self, x: i64, y: i64, w: u32, h: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity((w as usize) * (h as usize) * 4);
        for py in y..y + h as i64 {
            for px in x..x + w as i64 {
                let c = self.surface.get(px, py);
                out.extend_from_slice(&[c.r, c.g, c.b, c.a]);
            }
        }
        out
    }

    /// `putImageData` — writes raw RGBA bytes without blending.
    pub fn put_image_data(&mut self, data: &[u8], x: i64, y: i64, w: u32, h: u32) {
        let mut i = 0;
        for py in y..y + h as i64 {
            for px in x..x + w as i64 {
                if i + 3 < data.len() {
                    self.surface.set(
                        px,
                        py,
                        Color::rgba(data[i], data[i + 1], data[i + 2], data[i + 3]),
                    );
                }
                i += 4;
            }
        }
    }

    /// `toDataURL(mime, quality)` — returns the full data-URL string.
    pub fn to_data_url(&self, mime: &str, quality: Option<f64>) -> String {
        data_url(&self.surface, mime, quality)
    }

    /// Composites a coverage mask with a paint, honoring `globalAlpha`,
    /// `globalCompositeOperation`, and the device coverage gamma.
    ///
    /// A pixel that an opaque solid color (after `globalAlpha`) covers
    /// fully under source-over takes the color as is: `shade(1.0)` is 1.0
    /// for every gamma, and source-over of an opaque source at coverage
    /// 1.0 returns the source whatever the destination, which the
    /// `surface` tests check exhaustively. Every other pixel is blended.
    fn composite_mask(&mut self, mask: &Mask, paint: &Paint) {
        if mask.w == 0 || mask.h == 0 {
            return;
        }
        let (alpha, op) = (self.state.global_alpha, self.state.op);
        let solid = paint.as_solid();
        let opaque = solid
            .map(|c| c.with_alpha_scaled(alpha))
            .filter(|c| c.a == 255 && op == CompositeOp::SourceOver);
        for (py, row) in (mask.y0..).zip(mask.cov.chunks_exact(mask.w)) {
            for (px, &raw) in (mask.x0..).zip(row) {
                match opaque {
                    Some(color) if raw == 1.0 => self.surface.set(px, py, color),
                    _ if raw <= 0.0 => {}
                    _ => {
                        let cov = self.device.shade(raw as f64);
                        let color = match solid {
                            Some(c) => c,
                            None => paint.eval(Point::new(px as f64 + 0.5, py as f64 + 0.5)),
                        };
                        self.surface
                            .blend(px, py, color.with_alpha_scaled(alpha), cov, op);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canvas(w: u32, h: u32) -> Canvas2D {
        Canvas2D::new(w, h, DeviceProfile::intel_ubuntu())
    }

    #[test]
    fn fill_rect_paints_solid_color() {
        let mut c = canvas(10, 10);
        c.set_fill_style("#f60");
        c.fill_rect(2.0, 2.0, 4.0, 4.0);
        assert_eq!(c.surface().get(3, 3), Color::rgb(255, 0x66, 0));
        assert_eq!(c.surface().get(8, 8).a, 0);
    }

    #[test]
    fn infinite_rect_is_ignored_and_a_huge_one_clips() {
        for (x, y, w, h) in [
            (f64::NEG_INFINITY, 0.0, 10.0, 10.0),
            (0.0, f64::NEG_INFINITY, 10.0, 10.0),
            (0.0, 0.0, f64::INFINITY, 10.0),
            (0.0, 0.0, 10.0, f64::INFINITY),
        ] {
            let mut c = canvas(20, 20);
            c.fill_rect(x, y, w, h);
            assert!(c.surface().is_blank(), "fillRect({x}, {y}, {w}, {h})");
        }
        let painted = |w| {
            let mut c = canvas(20, 20);
            c.fill_rect(0.0, 0.0, w, 10.0);
            c.surface().clone()
        };
        let huge = painted(1e300);
        assert!(!huge.is_blank());
        assert_eq!(huge, painted(1e6));
    }

    #[test]
    fn invalid_fill_style_is_ignored() {
        let mut c = canvas(4, 4);
        c.set_fill_style("#123456");
        c.set_fill_style("not-a-color");
        c.fill_rect(0.0, 0.0, 4.0, 4.0);
        assert_eq!(c.surface().get(1, 1), Color::rgb(0x12, 0x34, 0x56));
    }

    #[test]
    fn save_restore_roundtrips_state() {
        let mut c = canvas(4, 4);
        c.set_fill_style("#ff0000");
        c.save();
        c.set_fill_style("#00ff00");
        c.set_global_alpha(0.5);
        c.restore();
        assert_eq!(c.global_alpha(), 1.0);
        c.fill_rect(0.0, 0.0, 1.0, 1.0);
        assert_eq!(c.surface().get(0, 0), Color::rgb(255, 0, 0));
    }

    #[test]
    fn restore_on_empty_stack_is_noop() {
        let mut c = canvas(2, 2);
        c.restore(); // must not panic
        c.fill_rect(0.0, 0.0, 1.0, 1.0);
        assert_eq!(c.surface().get(0, 0), Color::BLACK);
    }

    #[test]
    fn translate_moves_drawing() {
        let mut c = canvas(10, 10);
        c.translate(3.0, 3.0);
        c.fill_rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(c.surface().get(0, 0).a, 0);
        assert_eq!(c.surface().get(4, 4), Color::BLACK);
    }

    #[test]
    fn to_data_url_defaults_to_png() {
        let c = canvas(4, 4);
        let url = c.to_data_url("image/nonsense", None);
        assert!(url.starts_with("data:image/png;base64,"));
    }

    #[test]
    fn to_data_url_jpeg_is_lossy_tagged() {
        let c = canvas(4, 4);
        let url = c.to_data_url("image/jpeg", Some(0.5));
        assert!(url.starts_with("data:image/jpeg;base64,"));
    }

    #[test]
    fn data_url_roundtrips_through_png_decoder() {
        let mut c = canvas(6, 6);
        c.set_fill_style("tomato");
        c.fill_rect(1.0, 1.0, 3.0, 3.0);
        let url = c.to_data_url("image/png", None);
        let b64 = url.strip_prefix("data:image/png;base64,").unwrap();
        let bytes = crate::base64::decode(b64).unwrap();
        let surface = png::decode(&bytes).unwrap();
        assert_eq!(surface.get(2, 2), Color::rgb(255, 99, 71));
    }

    #[test]
    fn identical_commands_identical_bytes() {
        let draw = || {
            let mut c = canvas(60, 20);
            c.set_fill_style("#069");
            c.set_font("11pt arial");
            c.fill_text("Cwm fjordbank", 2.0, 15.0);
            c.to_data_url("image/png", None)
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn devices_render_text_differently() {
        let draw = |device: DeviceProfile| {
            let mut c = Canvas2D::new(120, 30, device);
            c.set_font("16px arial");
            c.set_fill_style("#069");
            c.fill_text("Cwm fjordbank glyphs vext quiz", 2.0, 22.0);
            c.to_data_url("image/png", None)
        };
        assert_ne!(
            draw(DeviceProfile::intel_ubuntu()),
            draw(DeviceProfile::apple_m1())
        );
    }

    #[test]
    fn fill_text_paints_pixels() {
        let mut c = canvas(60, 20);
        c.set_font("14px arial");
        c.fill_text("AB", 2.0, 16.0);
        assert!(!c.surface().is_blank());
    }

    #[test]
    fn clear_rect_erases() {
        let mut c = canvas(8, 8);
        c.fill_rect(0.0, 0.0, 8.0, 8.0);
        c.clear_rect(2.0, 2.0, 2.0, 2.0);
        assert_eq!(c.surface().get(3, 3).a, 0);
        assert_eq!(c.surface().get(0, 0).a, 255);
    }

    #[test]
    fn clear_rect_respects_transform() {
        let mut c = canvas(8, 8);
        c.fill_rect(0.0, 0.0, 8.0, 8.0);
        c.translate(4.0, 4.0);
        c.clear_rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(c.surface().get(5, 5).a, 0);
        assert_eq!(c.surface().get(1, 1).a, 255);
    }

    #[test]
    fn arc_fill_draws_disk() {
        let mut c = canvas(20, 20);
        c.begin_path();
        c.arc(10.0, 10.0, 6.0, 0.0, std::f64::consts::TAU, false);
        c.set_fill_style("blue");
        c.fill(FillRule::NonZero);
        assert_eq!(c.surface().get(10, 10), Color::rgb(0, 0, 255));
        assert_eq!(c.surface().get(1, 1).a, 0);
    }

    #[test]
    fn evenodd_winding_produces_hole() {
        // The FingerprintJS winding test: two nested rects, evenodd fill.
        let mut c = canvas(20, 20);
        c.begin_path();
        c.rect(2.0, 2.0, 16.0, 16.0);
        c.rect(6.0, 6.0, 8.0, 8.0);
        c.set_fill_style("#f9c");
        c.fill(FillRule::EvenOdd);
        assert_eq!(c.surface().get(3, 3).a, 255);
        assert_eq!(c.surface().get(10, 10).a, 0, "evenodd hole");
    }

    #[test]
    fn gradient_fill_varies_across_pixels() {
        let mut c = canvas(16, 4);
        let mut gradient = Gradient::linear(0.0, 0.0, 16.0, 0.0);
        gradient.add_stop(0.0, Color::BLACK);
        gradient.add_stop(1.0, Color::WHITE);
        c.set_fill_gradient(gradient);
        c.fill_rect(0.0, 0.0, 16.0, 4.0);
        let left = c.surface().get(0, 1).r;
        let right = c.surface().get(15, 1).r;
        assert!(right > left + 100, "gradient should ramp: {left} {right}");
    }

    #[test]
    fn get_put_image_data_roundtrip() {
        let mut c = canvas(6, 6);
        c.set_fill_style("purple");
        c.fill_rect(0.0, 0.0, 6.0, 6.0);
        let data = c.get_image_data(0, 0, 6, 6);
        let mut c2 = canvas(6, 6);
        c2.put_image_data(&data, 0, 0, 6, 6);
        assert_eq!(c.surface().data(), c2.surface().data());
    }

    #[test]
    fn draw_image_copies_scaled() {
        let mut src = canvas(2, 2);
        src.set_fill_style("red");
        src.fill_rect(0.0, 0.0, 2.0, 2.0);
        let mut dst = canvas(8, 8);
        let surface = src.surface().clone();
        dst.draw_image(&surface, 2.0, 2.0, 4.0, 4.0);
        assert_eq!(dst.surface().get(3, 3), Color::rgb(255, 0, 0));
        assert_eq!(dst.surface().get(7, 7).a, 0);
    }

    /// `drawImage` honors the CTM: a 10×10 red source lands on the
    /// transformed destination rectangle, and nowhere else.
    #[test]
    fn draw_image_follows_the_transform() {
        let mut src = canvas(10, 10);
        src.set_fill_style("red");
        src.fill_rect(0.0, 0.0, 10.0, 10.0);
        let red = Color::rgb(255, 0, 0);
        let painted = |setup: &dyn Fn(&mut Canvas2D)| {
            let mut dst = canvas(80, 40);
            setup(&mut dst);
            dst.draw_image(src.surface(), 0.0, 0.0, 10.0, 10.0);
            let mut cells = Vec::new();
            for y in 0..40 {
                for x in 0..80 {
                    let c = dst.surface().get(x, y);
                    assert!(c == red || c.a == 0, "({x}, {y}): {c:?}");
                    if c == red {
                        cells.push((x, y));
                    }
                }
            }
            cells
        };
        let block = |x0: i64, y0: i64, side: i64| -> Vec<(i64, i64)> {
            (y0..y0 + side)
                .flat_map(|y| (x0..x0 + side).map(move |x| (x, y)))
                .collect()
        };
        assert_eq!(painted(&|_| {}), block(0, 0, 10));
        assert_eq!(painted(&|c| c.translate(50.0, 0.0)), block(50, 0, 10));
        assert_eq!(painted(&|c| c.scale(2.0, 2.0)), block(0, 0, 20));
        // A quarter turn about (30, 5): user (x, y) lands on (30 - y, x).
        let turned = painted(&|c| {
            c.translate(30.0, 0.0);
            c.rotate(std::f64::consts::FRAC_PI_2);
        });
        assert_eq!(turned, block(20, 0, 10));
        // Off the surface, the walk is clipped: nothing is drawn.
        assert!(painted(&|c| c.translate(-500.0, 0.0)).is_empty());
    }

    #[test]
    fn resize_clears_canvas_and_state() {
        let mut c = canvas(8, 8);
        c.set_fill_style("red");
        c.fill_rect(0.0, 0.0, 8.0, 8.0);
        c.resize(8, 8);
        assert!(c.surface().is_blank());
        c.fill_rect(0.0, 0.0, 1.0, 1.0);
        assert_eq!(c.surface().get(0, 0), Color::BLACK, "fill style reset");
    }

    #[test]
    fn global_alpha_blends() {
        let mut c = canvas(2, 2);
        c.set_fill_style("white");
        c.fill_rect(0.0, 0.0, 2.0, 2.0);
        c.set_global_alpha(0.5);
        c.set_fill_style("black");
        c.fill_rect(0.0, 0.0, 2.0, 2.0);
        let v = c.surface().get(0, 0).r;
        assert!((v as i32 - 128).abs() <= 1, "got {v}");
    }

    #[test]
    fn composite_multiply_via_op_string() {
        let mut c = canvas(2, 2);
        c.set_fill_style("rgb(128,128,128)");
        c.fill_rect(0.0, 0.0, 2.0, 2.0);
        c.set_composite_op("multiply");
        assert_eq!(c.composite_op(), "multiply");
        c.fill_rect(0.0, 0.0, 2.0, 2.0);
        assert!(c.surface().get(0, 0).r < 70);
    }

    #[test]
    fn unknown_composite_op_is_ignored() {
        let mut c = canvas(2, 2);
        c.set_composite_op("color-dodge");
        assert_eq!(c.composite_op(), "source-over");
    }
}
