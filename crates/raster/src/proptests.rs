//! Cross-module property tests for the rasterizer: determinism, coverage
//! bounds, and encoder safety under randomized drawing programs, plus the
//! compositing algebra. Each property is a seeded LCG loop, so a failure
//! replays exactly from its case number, and each asserts that its
//! generator reached the shapes the property can break on.

#![cfg(test)]

use crate::canvas::Canvas2D;
use crate::device::DeviceProfile;
use crate::fill::{rasterize, FillRule};
use crate::geom::Transform;
use crate::path::Path;

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

    /// A drawing op: each of the eleven kinds equally likely.
    fn op(&mut self) -> Op {
        let mut coord = || self.float(-20.0, 120.0);
        let (x, y) = (coord(), coord());
        match self.below(11) {
            0 => Op::FillRect(x, y, self.float(0.0, 80.0), self.float(0.0, 80.0)),
            1 => Op::StrokeRect(x, y, self.float(0.0, 80.0), self.float(0.0, 80.0)),
            2 => Op::ClearRect(x, y, self.float(0.0, 80.0), self.float(0.0, 80.0)),
            3 => Op::Arc(x, y, self.float(0.5, 40.0)),
            4 => Op::Text(self.word(PRINTABLE, 12), x, y),
            5 => Op::SetFill(self.byte(), self.byte(), self.byte()),
            6 => Op::SetAlpha(self.float(0.0, 1.0)),
            7 => Op::Translate(x, y),
            8 => Op::Rotate(self.float(-3.2, 3.2)),
            9 => Op::Save,
            _ => Op::Restore,
        }
    }

    /// A drawing program of `0..max` ops.
    fn ops(&mut self, max: usize) -> Vec<Op> {
        (0..self.below(max)).map(|_| self.op()).collect()
    }
}

/// A randomized drawing op, interpreted against a canvas.
#[derive(Debug, Clone)]
enum Op {
    FillRect(f64, f64, f64, f64),
    StrokeRect(f64, f64, f64, f64),
    ClearRect(f64, f64, f64, f64),
    Arc(f64, f64, f64),
    Text(String, f64, f64),
    SetFill(u8, u8, u8),
    SetAlpha(f64),
    Translate(f64, f64),
    Rotate(f64),
    Save,
    Restore,
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
            Op::SetFill(r, g, b) => c.set_fill_style(&format!("rgb({r},{g},{b})")),
            Op::SetAlpha(a) => c.set_global_alpha(*a),
            Op::Translate(x, y) => c.translate(*x, *y),
            Op::Rotate(t) => c.rotate(*t),
            Op::Save => c.save(),
            Op::Restore => c.restore(),
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
        let ops = Lcg::case(2, case).ops(16);
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
    assert_eq!(kinds.len(), 11, "not every op kind was drawn");
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

    use super::{Lcg, CASES};
    use crate::color::Color;
    use crate::surface::{CompositeOp, Surface};

    const OPS: [CompositeOp; 7] = [
        CompositeOp::SourceOver,
        CompositeOp::DestinationOver,
        CompositeOp::Multiply,
        CompositeOp::Screen,
        CompositeOp::Lighter,
        CompositeOp::Copy,
        CompositeOp::Xor,
    ];

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
