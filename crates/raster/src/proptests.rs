//! Cross-module property tests for the rasterizer: determinism, coverage
//! bounds, and encoder safety under randomized drawing programs, plus the
//! compositing algebra. Each property is a seeded LCG loop, so a failure
//! replays exactly from its case number, and each asserts that its
//! generator reached the shapes the property can break on.

#![cfg(test)]

use crate::canvas::Canvas2D;
use crate::color::Color;
use crate::device::DeviceProfile;
use crate::fill::{rasterize, reference_rasterize, FillRule, Mask};
use crate::geom::{Point, Transform};
use crate::paint::Gradient;
use crate::path::{Path, Polygon};
use crate::surface::CompositeOp;
use crate::text::{layout_text, parse_font, transform_glyphs, TextBaseline};

/// Cases per property.
pub(crate) const CASES: u64 = 256;

/// Cases per drawing-program property: each case rasterizes a whole
/// canvas, so these run fewer.
const PROGRAM_CASES: u64 = 32;

/// `[ -~]`: printable ASCII.
const PRINTABLE: &[u8] =
    b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Deterministic 64-bit LCG (Knuth MMIX constants, as in the other
/// seeded sweeps).
pub(crate) struct Lcg(u64);

impl Lcg {
    /// The generator for one case of one property.
    pub(crate) fn case(property: u64, case: u64) -> Lcg {
        Lcg(((property << 32) | case) ^ 0x9e3779b97f4a7c15)
    }

    /// A value in `0..bound` (31 bits of state).
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound.max(1) as u64) as usize
    }

    /// A uniformly random byte.
    pub(crate) fn byte(&mut self) -> u8 {
        self.below(256) as u8
    }

    /// `lo..hi` random bytes.
    pub(crate) fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        (0..lo + self.below(hi - lo)).map(|_| self.byte()).collect()
    }

    /// A float in `lo..hi`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.below(1 << 30) as f64 / (1u64 << 30) as f64
    }

    /// `0..=max` characters from `alphabet`.
    fn word(&mut self, alphabet: &[u8], max: usize) -> String {
        (0..self.below(max + 1))
            .map(|_| alphabet[self.below(alphabet.len())] as char)
            .collect()
    }

    /// `0..=max` whitespace-separated tokens from `tokens`.
    fn phrase(&mut self, tokens: &[&str], max: usize) -> String {
        (0..self.below(max + 1))
            .map(|_| tokens[self.below(tokens.len())])
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// A drawing op: each of the [`OP_KINDS`] kinds equally likely.
    fn op(&mut self) -> Op {
        let mut coord = || self.float(-20.0, 120.0);
        let (x, y) = (coord(), coord());
        match self.below(OP_KINDS) {
            0 => Op::FillRect(x, y, self.float(0.0, 80.0), self.float(0.0, 80.0)),
            1 => Op::StrokeRect(x, y, self.float(0.0, 80.0), self.float(0.0, 80.0)),
            2 => Op::ClearRect(x, y, self.float(0.0, 80.0), self.float(0.0, 80.0)),
            3 => Op::Arc(x, y, self.float(0.5, 40.0)),
            4 => Op::Text(self.word(PRINTABLE, 12), x, y),
            5 => Op::SetFill(self.paint_color()),
            6 => Op::SetAlpha(self.float(0.0, 1.0)),
            7 => Op::Translate(x, y),
            8 => Op::Rotate(self.float(-3.2, 3.2)),
            9 => Op::Save,
            10 => Op::Restore,
            11 => Op::SetComposite(COMPOSITE_OPS[self.below(COMPOSITE_OPS.len())]),
            12 => {
                let (x1, y1) = (self.float(-20.0, 120.0), self.float(-20.0, 120.0));
                let mut g = Gradient::linear(x, y, x1, y1);
                self.stops(&mut g);
                Op::SetLinear(g)
            }
            13 => {
                let r0 = self.float(0.0, 10.0);
                let mut g = Gradient::radial(x, y, r0, x, y, r0 + self.float(0.0, 60.0));
                self.stops(&mut g);
                Op::SetRadial(g)
            }
            14 => Op::EvenOddStar(x, y, self.float(2.0, 50.0), self.float(-3.2, 3.2)),
            15 => Op::Scale(self.float(-2.0, 2.5), self.float(-2.0, 2.5)),
            _ => Op::SetTransform([
                self.float(-2.0, 2.0),
                self.float(-1.0, 1.0),
                self.float(-1.0, 1.0),
                self.float(-2.0, 2.0),
                self.float(-20.0, 60.0),
                self.float(-20.0, 60.0),
            ]),
        }
    }

    /// A paint color: opaque half the time, any alpha otherwise.
    fn paint_color(&mut self) -> Color {
        let a = if self.below(2) == 0 { 255 } else { self.byte() };
        Color::rgba(self.byte(), self.byte(), self.byte(), a)
    }

    /// Adds one to three color stops at random offsets.
    fn stops(&mut self, gradient: &mut Gradient) {
        for _ in 0..1 + self.below(3) {
            let offset = self.float(0.0, 1.0);
            gradient.add_stop(offset, self.paint_color());
        }
    }

    /// A drawing program of `0..max` ops.
    fn ops(&mut self, max: usize) -> Vec<Op> {
        (0..self.below(max)).map(|_| self.op()).collect()
    }
}

/// Number of [`Op`] kinds the generator draws.
const OP_KINDS: usize = 17;

/// Every `globalCompositeOperation` the canvas supports.
const COMPOSITE_OPS: [CompositeOp; 7] = [
    CompositeOp::SourceOver,
    CompositeOp::DestinationOver,
    CompositeOp::Multiply,
    CompositeOp::Screen,
    CompositeOp::Lighter,
    CompositeOp::Copy,
    CompositeOp::Xor,
];

/// A randomized drawing op, interpreted against a canvas.
#[derive(Debug, Clone)]
enum Op {
    FillRect(f64, f64, f64, f64),
    StrokeRect(f64, f64, f64, f64),
    ClearRect(f64, f64, f64, f64),
    Arc(f64, f64, f64),
    Text(String, f64, f64),
    SetFill(Color),
    SetAlpha(f64),
    Translate(f64, f64),
    Rotate(f64),
    Save,
    Restore,
    SetComposite(CompositeOp),
    /// A linear gradient fill style.
    SetLinear(Gradient),
    /// A radial gradient fill style.
    SetRadial(Gradient),
    /// An even-odd fill of a five-pointed star drawn in one stroke, a
    /// self-intersecting path whose center the rule leaves unfilled:
    /// center, radius, rotation.
    EvenOddStar(f64, f64, f64, f64),
    Scale(f64, f64),
    SetTransform([f64; 6]),
}

fn run_ops(ops: &[Op], device: DeviceProfile) -> Canvas2D {
    let mut c = Canvas2D::new(100, 60, device);
    for op in ops {
        match op {
            Op::FillRect(x, y, w, h) => c.fill_rect(*x, *y, *w, *h),
            Op::StrokeRect(x, y, w, h) => c.stroke_rect(*x, *y, *w, *h),
            Op::ClearRect(x, y, w, h) => c.clear_rect(*x, *y, *w, *h),
            Op::Arc(x, y, r) => {
                c.begin_path();
                c.arc(*x, *y, *r, 0.0, std::f64::consts::TAU, false);
                c.fill(FillRule::NonZero);
            }
            Op::Text(s, x, y) => c.fill_text(s, *x, *y),
            Op::SetFill(Color { r, g, b, a }) => {
                c.set_fill_style(&format!("#{r:02x}{g:02x}{b:02x}{a:02x}"))
            }
            Op::SetAlpha(a) => c.set_global_alpha(*a),
            Op::Translate(x, y) => c.translate(*x, *y),
            Op::Rotate(t) => c.rotate(*t),
            Op::Save => c.save(),
            Op::Restore => c.restore(),
            Op::SetComposite(op) => c.set_composite_op(op.as_str()),
            Op::SetLinear(g) | Op::SetRadial(g) => c.set_fill_gradient(g.clone()),
            Op::EvenOddStar(x, y, r, turn) => {
                c.begin_path();
                for k in 0..5 {
                    let t = turn + k as f64 * 4.0 * std::f64::consts::PI / 5.0;
                    let (px, py) = (x + r * t.cos(), y + r * t.sin());
                    if k == 0 {
                        c.move_to(px, py);
                    } else {
                        c.line_to(px, py);
                    }
                }
                c.close_path();
                c.fill(FillRule::EvenOdd);
            }
            Op::Scale(x, y) => c.scale(*x, *y),
            Op::SetTransform([a, b, cc, d, e, f]) => c.set_transform(*a, *b, *cc, *d, *e, *f),
        }
    }
    c
}

/// Any drawing program is deterministic: running it twice produces
/// byte-identical data URLs — the invariant the whole study rests on.
#[test]
fn random_programs_are_deterministic() {
    let blank = run_ops(&[], DeviceProfile::intel_ubuntu()).to_data_url("image/png", None);
    let mut drawn = 0;
    for case in 0..PROGRAM_CASES {
        let ops = Lcg::case(1, case).ops(24);
        let a = run_ops(&ops, DeviceProfile::intel_ubuntu()).to_data_url("image/png", None);
        let b = run_ops(&ops, DeviceProfile::intel_ubuntu()).to_data_url("image/png", None);
        assert_eq!(a, b, "case {case}: {ops:?}");
        drawn += usize::from(a != blank);
    }
    assert!(drawn > 8, "only {drawn} of {PROGRAM_CASES} programs drew");
}

/// Every program encodes to a decodable PNG with the right dimensions.
#[test]
fn random_programs_encode_valid_png() {
    let mut kinds = std::collections::HashSet::new();
    for case in 0..PROGRAM_CASES {
        let ops = Lcg::case(2, case).ops(24);
        let c = run_ops(&ops, DeviceProfile::apple_m1());
        let bytes = crate::png::encode(c.surface());
        let decoded = crate::png::decode(&bytes).expect("own PNG decodes");
        assert_eq!(
            (decoded.width(), decoded.height()),
            (100, 60),
            "case {case}"
        );
        kinds.extend(ops.iter().map(std::mem::discriminant));
    }
    assert_eq!(kinds.len(), OP_KINDS, "not every op kind was drawn");
}

/// Programs per device profile in [`program_pixels_are_pinned`].
const PINNED_PROGRAMS: u64 = 64;

/// The pixel pins: FNV-1a ([`crate::content_hash`]) of the PNG data URLs
/// of [`PINNED_PROGRAMS`] seeded programs, each followed by a newline, on
/// each device profile. The study's digests pin the Intel profile's bytes
/// of the scripts it generates; these also pin the M1 and NVIDIA
/// profiles (their phases and gammas), every composite operator, both
/// gradient kinds, even-odd fills, `scale` and `setTransform`. Odd
/// programs first fill the canvas with an opaque color, and every other
/// one of those then sets a composite operator, so that translucent
/// paints and every operator are drawn over existing pixels, not only
/// over transparent ones. A fast path in the rasterizer or the compositor
/// must leave every pin unchanged.
const PROGRAM_PINS: [(&str, u64); 3] = [
    ("intel-ubuntu-22.04", 0x427c0e646e61159c),
    ("apple-m1-macos", 0x6540810d725463d2),
    ("windows-nvidia", 0xcf34a257bacbc138),
];

#[test]
fn program_pixels_are_pinned() {
    let devices = [
        DeviceProfile::intel_ubuntu(),
        DeviceProfile::apple_m1(),
        DeviceProfile::windows_nvidia(),
    ];
    let programs: Vec<Vec<Op>> = (0..PINNED_PROGRAMS)
        .map(|case| {
            let mut rng = Lcg::case(7, case);
            let mut ops = Vec::new();
            if case % 2 == 1 {
                let background = Color::rgb(rng.byte(), rng.byte(), rng.byte());
                ops.extend([Op::SetFill(background), Op::FillRect(0.0, 0.0, 100.0, 60.0)]);
            }
            if case % 4 == 3 {
                let op = COMPOSITE_OPS[case as usize / 4 % COMPOSITE_OPS.len()];
                ops.push(Op::SetComposite(op));
            }
            ops.extend(rng.ops(24));
            ops
        })
        .collect();
    let all = programs.iter().flatten();
    let kinds: std::collections::HashSet<_> = all.clone().map(std::mem::discriminant).collect();
    let composites: std::collections::HashSet<_> = all
        .filter_map(|op| match op {
            Op::SetComposite(op) => Some(op.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(kinds.len(), OP_KINDS, "not every op kind is pinned");
    assert_eq!(
        composites.len(),
        COMPOSITE_OPS.len(),
        "not every operator is pinned"
    );
    for (device, (id, pin)) in devices.into_iter().zip(PROGRAM_PINS) {
        assert_eq!(device.id, id);
        let mut urls = String::new();
        for ops in &programs {
            urls += &run_ops(ops, device.clone()).to_data_url("image/png", None);
            urls.push('\n');
        }
        let digest = crate::content_hash(urls.as_bytes());
        assert_eq!(digest, pin, "{id}: pixel digest {digest:#018x}");
    }
}

/// Coverage masks stay within [0, 1] for arbitrary polygons of three to
/// six points on every device profile.
#[test]
fn coverage_is_bounded() {
    let (mut partial, mut full) = (0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(3, case);
        let mut path = Path::new();
        path.move_to(rng.float(-30.0, 130.0), rng.float(-30.0, 90.0));
        for _ in 0..2 + rng.below(4) {
            path.line_to(rng.float(-30.0, 130.0), rng.float(-30.0, 90.0));
        }
        path.close();
        let polys = path.flatten(&Transform::identity());
        for device in [
            DeviceProfile::intel_ubuntu(),
            DeviceProfile::apple_m1(),
            DeviceProfile::windows_nvidia(),
        ] {
            let mask = rasterize(&polys, FillRule::NonZero, 100, 60, &device);
            for &cov in &mask.cov {
                let cov = cov as f64;
                assert!(
                    (0.0..=1.0 + 1e-6).contains(&cov),
                    "case {case}: coverage {cov}"
                );
                partial += usize::from(cov > 0.0 && cov < 1.0);
                full += usize::from(cov >= 1.0);
            }
        }
    }
    assert!(partial > 0 && full > 0, "partial {partial}, full {full}");
}

/// `rasterize` (insertion-sorted crossings, exact interior spans) matches
/// the scan it replaced, [`reference_rasterize`], bit for bit on every
/// device profile. The shapes cycle through glyph runs (some turned half
/// round, so their crossings arrive reversed), rectangles at fractional
/// offsets, self-intersecting even-odd stars, and polygons whose points
/// may be NaN or far off the canvas.
#[test]
fn rasterize_matches_the_reference_scan() {
    let devices = [
        DeviceProfile::intel_ubuntu(),
        DeviceProfile::apple_m1(),
        DeviceProfile::windows_nvidia(),
    ];
    let (mut full, mut partial, mut nan) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(8, case);
        let (x, y) = (rng.float(-20.0, 120.0), rng.float(-10.0, 70.0));
        let (polys, rule) = match case % 4 {
            0 => {
                let spec = parse_font(&format!("{}px arial", 6 + rng.below(40))).unwrap();
                let text = rng.word(PRINTABLE, 24);
                let device = &devices[rng.below(3)];
                let glyphs = layout_text(&text, x, y, &spec, TextBaseline::Alphabetic, device);
                let turn = [0.0, 0.4, std::f64::consts::PI][rng.below(3)];
                let about = Transform::translate(x, y)
                    .then(&Transform::rotate(turn))
                    .then(&Transform::translate(-x, -y));
                (transform_glyphs(&glyphs, &about), FillRule::NonZero)
            }
            1 => {
                let mut path = Path::new();
                path.rect(x, y, rng.float(0.0, 60.0), rng.float(0.0, 40.0));
                let turn = [0.0, rng.float(-3.2, 3.2)][rng.below(2)];
                (path.flatten(&Transform::rotate(turn)), FillRule::NonZero)
            }
            2 => {
                let (r, turn) = (rng.float(1.0, 50.0), rng.float(-3.2, 3.2));
                let points = (0..5)
                    .map(|k| {
                        let t = turn + k as f64 * 4.0 * std::f64::consts::PI / 5.0;
                        Point::new(x + r * t.cos(), y + r * t.sin())
                    })
                    .collect();
                let star = Polygon {
                    points,
                    closed: true,
                };
                (vec![star], FillRule::EvenOdd)
            }
            _ => {
                let mut coord = |lo: f64, hi: f64| match rng.below(10) {
                    0 => f64::NAN,
                    1 => -1e6,
                    2 => 1e6,
                    _ => rng.float(lo, hi),
                };
                let points = (0..3 + case as usize % 6)
                    .map(|_| Point::new(coord(-40.0, 140.0), coord(-40.0, 100.0)))
                    .collect();
                let rule = [FillRule::NonZero, FillRule::EvenOdd][case as usize / 4 % 2];
                let poly = Polygon {
                    points,
                    closed: false,
                };
                nan += usize::from(poly.points.iter().any(|p| p.x.is_nan() || p.y.is_nan()));
                (vec![poly], rule)
            }
        };
        for device in &devices {
            let fast = rasterize(&polys, rule, 100, 60, device);
            let oracle = reference_rasterize(&polys, rule, 100, 60, device);
            let key = |m: &Mask| {
                let bits: Vec<u32> = m.cov.iter().map(|c| c.to_bits()).collect();
                (m.x0, m.y0, m.w, m.h, bits)
            };
            assert!(key(&fast) == key(&oracle), "case {case} on {}", device.id);
            full += fast.cov.iter().filter(|&&c| c == 1.0).count();
            partial += fast.cov.iter().filter(|&&c| c > 0.0 && c < 1.0).count();
        }
    }
    assert!(
        full > 0 && partial > 0 && nan > 0,
        "full {full}, partial {partial}, NaN polygons {nan}"
    );
}

/// CSS color parsing never panics on arbitrary short strings: printable
/// soup (`[ -~]{0,24}`) in even cases; in odd ones a hex color of 0–8
/// digits or an `rgb`/`rgba`/`hsl`/`hsla` call over 2–5 arguments, some
/// of them out of range, percentages or not numbers at all.
#[test]
fn color_parse_total() {
    const HEX: &[u8] = b"0123456789abcdefABCDEFg";
    const ARGS: &[&str] = &[
        "0", "255", "300", "-5", "50%", "0.5", "1e999", "nan", "", "x",
    ];
    let (mut parsed, mut rejected) = (0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(4, case);
        let s = match (case % 2, rng.below(5)) {
            (0, _) => rng.word(PRINTABLE, 24),
            (_, 0) => format!("#{}", rng.word(HEX, 8)),
            (_, f) => {
                let args: Vec<&str> = (0..2 + rng.below(4))
                    .map(|_| ARGS[rng.below(ARGS.len())])
                    .collect();
                let name = ["rgb", "rgba", "hsl", "hsla"][f - 1];
                format!("{name}({})", args.join(","))
            }
        };
        match crate::color::parse_css_color(&s) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        parsed > 16 && rejected > 16,
        "{parsed} parsed, {rejected} rejected"
    );
}

/// Font parsing never panics and, when it succeeds, yields a finite,
/// non-negative pixel size: printable soup (`[ -~]{0,32}`) in even
/// cases, shorthand-shaped token soup in odd ones.
#[test]
fn font_parse_total() {
    const TOKENS: &[&str] = &[
        "normal",
        "italic",
        "bold",
        "lighter",
        "700",
        "12px",
        "11pt",
        "1.5em",
        "0px",
        "-3px",
        "infpx",
        "NaNpt",
        "1e999em",
        "px",
        "Arial",
        "\"Times\"",
        "sans-serif",
        ",",
    ];
    let mut parsed = 0;
    for case in 0..CASES {
        let mut rng = Lcg::case(5, case);
        let s = match case % 2 {
            0 => rng.word(PRINTABLE, 32),
            _ => rng.phrase(TOKENS, 6),
        };
        if let Some(spec) = crate::text::parse_font(&s) {
            assert!(
                spec.size_px.is_finite() && spec.size_px >= 0.0,
                "case {case}: {s:?} gives size {}",
                spec.size_px
            );
            parsed += 1;
        }
    }
    assert!(
        parsed > 16,
        "only {parsed} of {CASES} cases parsed as a font"
    );
}

/// measureText is monotone under string extension (appending a
/// character never shrinks the width) for the neutral device.
#[test]
fn measure_text_is_monotone() {
    const TEXT: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let spec = crate::text::FontSpec::default();
    let device = DeviceProfile::intel_ubuntu();
    let mut empty = 0;
    for case in 0..CASES {
        let mut rng = Lcg::case(6, case);
        let s = rng.word(TEXT, 16);
        let c = (b'a' + rng.below(26) as u8) as char;
        let w1 = crate::text::measure_text(&s, &spec, &device);
        let w2 = crate::text::measure_text(&format!("{s}{c}"), &spec, &device);
        assert!(w2 >= w1, "case {case}: {s:?} + {c:?}: {w1} > {w2}");
        empty += usize::from(s.is_empty());
    }
    assert!(empty > 0, "no case extends the empty string");
}

mod compositing {
    use std::collections::BTreeSet;

    use super::{Lcg, CASES, COMPOSITE_OPS as OPS};
    use crate::color::Color;
    use crate::surface::{CompositeOp, Surface};

    impl Lcg {
        fn color(&mut self) -> Color {
            Color::rgba(self.byte(), self.byte(), self.byte(), self.byte())
        }

        fn composite_op(&mut self) -> CompositeOp {
            OPS[self.below(OPS.len())]
        }

        /// A coverage in `[0, 1]`: each endpoint one time in eight,
        /// uniform otherwise.
        fn coverage(&mut self) -> f64 {
            match self.below(8) {
                0 => 0.0,
                1 => 1.0,
                _ => self.below(1 << 20) as f64 / (1 << 20) as f64,
            }
        }
    }

    /// Blending any color with any op and any coverage never panics
    /// and always produces an in-range pixel (u8 by construction, but
    /// the blend must also be deterministic).
    #[test]
    fn blend_is_total_and_deterministic() {
        let mut ops = BTreeSet::new();
        for case in 0..CASES {
            let mut rng = Lcg::case(11, case);
            let (dst, src, cov, op) =
                (rng.color(), rng.color(), rng.coverage(), rng.composite_op());
            let run = || {
                let mut s = Surface::new(1, 1);
                s.set(0, 0, dst);
                s.blend(0, 0, src, cov, op);
                s.get(0, 0)
            };
            assert_eq!(run(), run(), "case {case}");
            ops.insert(format!("{op:?}"));
        }
        assert_eq!(ops.len(), OPS.len(), "not every operator was blended");
    }

    /// Zero coverage is the identity for every operator.
    #[test]
    fn zero_coverage_is_identity() {
        let mut ops = BTreeSet::new();
        for case in 0..CASES {
            let mut rng = Lcg::case(12, case);
            let (dst, src, op) = (rng.color(), rng.color(), rng.composite_op());
            let mut s = Surface::new(1, 1);
            s.set(0, 0, dst);
            s.blend(0, 0, src, 0.0, op);
            assert_eq!(s.get(0, 0), dst, "case {case}: {op:?}");
            ops.insert(format!("{op:?}"));
        }
        assert_eq!(ops.len(), OPS.len(), "not every operator was blended");
    }

    /// Source-over with a fully opaque source at full coverage replaces
    /// the destination color exactly.
    #[test]
    fn opaque_source_over_replaces() {
        let mut translucent = 0;
        for case in 0..CASES {
            let mut rng = Lcg::case(13, case);
            let dst = rng.color();
            let src = Color::rgb(rng.byte(), rng.byte(), rng.byte());
            let mut s = Surface::new(1, 1);
            s.set(0, 0, dst);
            s.blend(0, 0, src, 1.0, CompositeOp::SourceOver);
            assert_eq!(s.get(0, 0), src, "case {case}");
            translucent += usize::from(dst.a != 255);
        }
        assert!(translucent > 0, "no case starts from a translucent pixel");
    }

    /// Source-over with a fully transparent source never changes an
    /// opaque destination.
    #[test]
    fn transparent_source_over_opaque_is_identity() {
        let mut ends = (0, 0);
        for case in 0..CASES {
            let mut rng = Lcg::case(14, case);
            let dst = Color::rgb(rng.byte(), rng.byte(), rng.byte());
            let cov = rng.coverage();
            let mut s = Surface::new(1, 1);
            s.set(0, 0, dst);
            s.blend(0, 0, Color::TRANSPARENT, cov, CompositeOp::SourceOver);
            assert_eq!(s.get(0, 0), dst, "case {case}: coverage {cov}");
            ends.0 += usize::from(cov == 0.0);
            ends.1 += usize::from(cov == 1.0);
        }
        assert!(ends.0 > 0 && ends.1 > 0, "coverage endpoints: {ends:?}");
    }

    /// Out-of-bounds blends are ignored, never panic: they leave every
    /// pixel of the surface as it was.
    #[test]
    fn out_of_bounds_blend_is_ignored() {
        let mut outside = 0;
        for case in 0..CASES {
            let mut rng = Lcg::case(15, case);
            let (x, y) = (rng.below(24) as i64 - 8, rng.below(24) as i64 - 8);
            let (src, op) = (rng.color(), rng.composite_op());
            let mut s = Surface::new(4, 4);
            s.blend(x, y, src, 1.0, op);
            assert_eq!(s.data().len(), 64, "case {case}");
            if !(0..4).contains(&x) || !(0..4).contains(&y) {
                assert!(s.data().iter().all(|&b| b == 0), "case {case}: ({x}, {y})");
                outside += 1;
            }
        }
        assert!(
            outside > 0 && outside < CASES,
            "{outside} of {CASES} blends out of bounds"
        );
    }

    /// `lighter` is commutative in its operands when starting from a
    /// transparent surface (additive blending).
    #[test]
    fn lighter_is_commutative_from_transparent() {
        let mut saturated = 0;
        for case in 0..CASES {
            let mut rng = Lcg::case(16, case);
            let (a, b) = (rng.color(), rng.color());
            let run = |first: Color, second: Color| {
                let mut s = Surface::new(1, 1);
                s.blend(0, 0, first, 1.0, CompositeOp::Lighter);
                s.blend(0, 0, second, 1.0, CompositeOp::Lighter);
                s.get(0, 0)
            };
            let (ab, ba) = (run(a, b), run(b, a));
            // Allow 1-LSB rounding asymmetry per channel.
            for (x, y) in [(ab.r, ba.r), (ab.g, ba.g), (ab.b, ba.b), (ab.a, ba.a)] {
                assert!(
                    (x as i16 - y as i16).abs() <= 1,
                    "case {case}: {ab:?} vs {ba:?}"
                );
            }
            saturated += usize::from(a.a as u16 + b.a as u16 > 255);
        }
        assert!(saturated > 0, "no case saturates alpha");
    }
}
