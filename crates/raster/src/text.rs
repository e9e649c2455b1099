//! Text layout and glyph rasterization.
//!
//! Glyphs come from an embedded 5×7 bitmap face. Each lit cell is turned
//! into a rectangle polygon in em space; the polygons are scaled to the
//! font size, sheared for italics, thickened for bold weights, jittered
//! per-device, transformed by the canvas CTM, and rasterized through the
//! same anti-aliased fill pipeline as every other shape. Because the
//! device profile perturbs both advance widths and edge coverage, two
//! devices render the same `fillText` measurably differently — the canvas
//! fingerprinting signal.
//!
//! Characters outside the embedded face (notably emoji such as U+1F603 😃,
//! used by FingerprintJS) are drawn procedurally; unknown characters fall
//! back to a deterministic hash-derived glyph so every code point renders
//! *something* stable.

use crate::device::DeviceProfile;
use crate::geom::{Point, Transform};
use crate::path::Polygon;

/// Font style parsed from a CSS font shorthand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FontStyle {
    /// Upright.
    #[default]
    Normal,
    /// Sheared ~12°.
    Italic,
}

/// `textBaseline` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TextBaseline {
    /// Baseline at the alphabetic line (canvas default).
    #[default]
    Alphabetic,
    /// Baseline at the em-box top.
    Top,
    /// Baseline at the em-box middle.
    Middle,
    /// Baseline at the em-box bottom.
    Bottom,
}

impl TextBaseline {
    /// Parses the canvas `textBaseline` string.
    pub fn parse(s: &str) -> Option<TextBaseline> {
        match s {
            "alphabetic" => Some(TextBaseline::Alphabetic),
            "top" | "hanging" => Some(TextBaseline::Top),
            "middle" => Some(TextBaseline::Middle),
            "bottom" | "ideographic" => Some(TextBaseline::Bottom),
            _ => None,
        }
    }
}

/// A parsed CSS font shorthand (the subset canvas scripts use).
#[derive(Debug, Clone, PartialEq)]
pub struct FontSpec {
    /// normal / italic.
    pub style: FontStyle,
    /// CSS weight 100..=900; 400 = normal, ≥600 renders bold.
    pub weight: u16,
    /// Size in CSS pixels.
    pub size_px: f64,
    /// First family name, unquoted, lowercased.
    pub family: String,
}

impl Default for FontSpec {
    fn default() -> Self {
        // The canvas default font is "10px sans-serif".
        FontSpec {
            style: FontStyle::Normal,
            weight: 400,
            size_px: 10.0,
            family: "sans-serif".into(),
        }
    }
}

/// Parses a CSS font shorthand like `italic 700 14px "Arial"` or
/// `11pt no-real-font-123`. Returns `None` when no size token is present
/// (the canvas then keeps its previous font, per spec). A negative or
/// non-finite size (`-3px`, `infpx`, `1e999em`) is no size token, as in
/// CSS.
pub fn parse_font(input: &str) -> Option<FontSpec> {
    let mut spec = FontSpec::default();
    let mut size_seen = false;
    let mut family_parts: Vec<String> = Vec::new();
    for token in input.split_whitespace() {
        if size_seen {
            family_parts.push(token.to_string());
            continue;
        }
        let lower = token.to_ascii_lowercase();
        match lower.as_str() {
            "normal" => {}
            "italic" | "oblique" => spec.style = FontStyle::Italic,
            "bold" => spec.weight = 700,
            "bolder" => spec.weight = 800,
            "lighter" => spec.weight = 300,
            _ => {
                if let Some(size) = parse_size(&lower).filter(|s| s.is_finite() && *s >= 0.0) {
                    spec.size_px = size;
                    size_seen = true;
                } else if let Ok(w) = lower.parse::<u16>() {
                    if (100..=900).contains(&w) && w % 100 == 0 {
                        spec.weight = w;
                    }
                }
                // Unrecognized pre-size tokens are ignored, like browsers do.
            }
        }
    }
    if !size_seen {
        return None;
    }
    if !family_parts.is_empty() {
        // Only the first family matters for our rendering model; keep the
        // full comma-separated head up to the first comma.
        let joined = family_parts.join(" ");
        let first = joined
            .split(',')
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches(['"', '\''])
            .trim()
            .to_string();
        if !first.is_empty() {
            spec.family = first.to_ascii_lowercase();
        }
    }
    Some(spec)
}

fn parse_size(token: &str) -> Option<f64> {
    // Strip a trailing comma (size is never comma-separated, but be lenient).
    let token = token.trim_end_matches(',');
    if let Some(v) = token.strip_suffix("px") {
        return v.parse().ok();
    }
    if let Some(v) = token.strip_suffix("pt") {
        let pt: f64 = v.parse().ok()?;
        return Some(pt * 4.0 / 3.0);
    }
    if let Some(v) = token.strip_suffix("em") {
        let em: f64 = v.parse().ok()?;
        return Some(em * 16.0);
    }
    None
}

/// Glyph cell geometry: 5 columns × 7 rows above/at baseline, descenders
/// reach 2 rows below. The em box is `EM_ROWS` rows tall.
const GLYPH_COLS: usize = 5;
const GLYPH_ROWS: usize = 7;
/// Rows in the em box (7 body + 2 descender).
const EM_ROWS: f64 = 9.0;
/// Advance in cells (5 columns + 1 spacing).
const ADVANCE_COLS: f64 = 6.0;

/// A 5×7 glyph: row bitmaps (bit 4 = leftmost pixel) plus a descender
/// offset in rows.
#[derive(Clone, Copy)]
struct Glyph {
    rows: [u8; GLYPH_ROWS],
    desc: u8,
}

const fn g(rows: [u8; 7]) -> Glyph {
    Glyph { rows, desc: 0 }
}

const fn gd(rows: [u8; 7], desc: u8) -> Glyph {
    Glyph { rows, desc }
}

/// Embedded face for printable ASCII (0x20..=0x7E), hand-authored in the
/// classic 5×7 dot-matrix style.
#[rustfmt::skip]
fn ascii_glyph(c: char) -> Option<Glyph> {
    Some(match c {
        ' ' => g([0, 0, 0, 0, 0, 0, 0]),
        '!' => g([0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0, 0b00100]),
        '"' => g([0b01010, 0b01010, 0b01010, 0, 0, 0, 0]),
        '#' => g([0b01010, 0b01010, 0b11111, 0b01010, 0b11111, 0b01010, 0b01010]),
        '$' => g([0b00100, 0b01111, 0b10100, 0b01110, 0b00101, 0b11110, 0b00100]),
        '%' => g([0b11000, 0b11001, 0b00010, 0b00100, 0b01000, 0b10011, 0b00011]),
        '&' => g([0b01100, 0b10010, 0b10100, 0b01000, 0b10101, 0b10010, 0b01101]),
        '\'' => g([0b00100, 0b00100, 0b01000, 0, 0, 0, 0]),
        '(' => g([0b00010, 0b00100, 0b01000, 0b01000, 0b01000, 0b00100, 0b00010]),
        ')' => g([0b01000, 0b00100, 0b00010, 0b00010, 0b00010, 0b00100, 0b01000]),
        '*' => g([0, 0b00100, 0b10101, 0b01110, 0b10101, 0b00100, 0]),
        '+' => g([0, 0b00100, 0b00100, 0b11111, 0b00100, 0b00100, 0]),
        ',' => gd([0, 0, 0, 0, 0, 0b00100, 0b01000], 1),
        '-' => g([0, 0, 0, 0b11111, 0, 0, 0]),
        '.' => g([0, 0, 0, 0, 0, 0b01100, 0b01100]),
        '/' => g([0, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0]),
        '0' => g([0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110]),
        '1' => g([0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110]),
        '2' => g([0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111]),
        '3' => g([0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110]),
        '4' => g([0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010]),
        '5' => g([0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110]),
        '6' => g([0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110]),
        '7' => g([0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000]),
        '8' => g([0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110]),
        '9' => g([0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100]),
        ':' => g([0, 0b01100, 0b01100, 0, 0b01100, 0b01100, 0]),
        ';' => gd([0, 0b01100, 0b01100, 0, 0b01100, 0b00100, 0b01000], 1),
        '<' => g([0b00010, 0b00100, 0b01000, 0b10000, 0b01000, 0b00100, 0b00010]),
        '=' => g([0, 0, 0b11111, 0, 0b11111, 0, 0]),
        '>' => g([0b01000, 0b00100, 0b00010, 0b00001, 0b00010, 0b00100, 0b01000]),
        '?' => g([0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0, 0b00100]),
        '@' => g([0b01110, 0b10001, 0b00001, 0b01101, 0b10101, 0b10101, 0b01110]),
        'A' => g([0b01110, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001]),
        'B' => g([0b11110, 0b10001, 0b10001, 0b11110, 0b10001, 0b10001, 0b11110]),
        'C' => g([0b01110, 0b10001, 0b10000, 0b10000, 0b10000, 0b10001, 0b01110]),
        'D' => g([0b11100, 0b10010, 0b10001, 0b10001, 0b10001, 0b10010, 0b11100]),
        'E' => g([0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b11111]),
        'F' => g([0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b10000]),
        'G' => g([0b01110, 0b10001, 0b10000, 0b10111, 0b10001, 0b10001, 0b01111]),
        'H' => g([0b10001, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001]),
        'I' => g([0b01110, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110]),
        'J' => g([0b00111, 0b00010, 0b00010, 0b00010, 0b00010, 0b10010, 0b01100]),
        'K' => g([0b10001, 0b10010, 0b10100, 0b11000, 0b10100, 0b10010, 0b10001]),
        'L' => g([0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b11111]),
        'M' => g([0b10001, 0b11011, 0b10101, 0b10101, 0b10001, 0b10001, 0b10001]),
        'N' => g([0b10001, 0b10001, 0b11001, 0b10101, 0b10011, 0b10001, 0b10001]),
        'O' => g([0b01110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110]),
        'P' => g([0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000, 0b10000]),
        'Q' => g([0b01110, 0b10001, 0b10001, 0b10001, 0b10101, 0b10010, 0b01101]),
        'R' => g([0b11110, 0b10001, 0b10001, 0b11110, 0b10100, 0b10010, 0b10001]),
        'S' => g([0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110]),
        'T' => g([0b11111, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100]),
        'U' => g([0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110]),
        'V' => g([0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01010, 0b00100]),
        'W' => g([0b10001, 0b10001, 0b10001, 0b10101, 0b10101, 0b10101, 0b01010]),
        'X' => g([0b10001, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001, 0b10001]),
        'Y' => g([0b10001, 0b10001, 0b10001, 0b01010, 0b00100, 0b00100, 0b00100]),
        'Z' => g([0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b11111]),
        '[' => g([0b01110, 0b01000, 0b01000, 0b01000, 0b01000, 0b01000, 0b01110]),
        '\\' => g([0, 0b10000, 0b01000, 0b00100, 0b00010, 0b00001, 0]),
        ']' => g([0b01110, 0b00010, 0b00010, 0b00010, 0b00010, 0b00010, 0b01110]),
        '^' => g([0b00100, 0b01010, 0b10001, 0, 0, 0, 0]),
        '_' => g([0, 0, 0, 0, 0, 0, 0b11111]),
        '`' => g([0b01000, 0b00100, 0b00010, 0, 0, 0, 0]),
        'a' => g([0, 0, 0b01110, 0b00001, 0b01111, 0b10001, 0b01111]),
        'b' => g([0b10000, 0b10000, 0b10110, 0b11001, 0b10001, 0b10001, 0b11110]),
        'c' => g([0, 0, 0b01110, 0b10000, 0b10000, 0b10001, 0b01110]),
        'd' => g([0b00001, 0b00001, 0b01101, 0b10011, 0b10001, 0b10001, 0b01111]),
        'e' => g([0, 0, 0b01110, 0b10001, 0b11111, 0b10000, 0b01110]),
        'f' => g([0b00110, 0b01001, 0b01000, 0b11100, 0b01000, 0b01000, 0b01000]),
        'g' => gd([0, 0b01111, 0b10001, 0b10001, 0b01111, 0b00001, 0b01110], 2),
        'h' => g([0b10000, 0b10000, 0b10110, 0b11001, 0b10001, 0b10001, 0b10001]),
        'i' => g([0b00100, 0, 0b01100, 0b00100, 0b00100, 0b00100, 0b01110]),
        'j' => gd([0b00010, 0, 0b00110, 0b00010, 0b00010, 0b10010, 0b01100], 2),
        'k' => g([0b10000, 0b10000, 0b10010, 0b10100, 0b11000, 0b10100, 0b10010]),
        'l' => g([0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110]),
        'm' => g([0, 0, 0b11010, 0b10101, 0b10101, 0b10101, 0b10101]),
        'n' => g([0, 0, 0b10110, 0b11001, 0b10001, 0b10001, 0b10001]),
        'o' => g([0, 0, 0b01110, 0b10001, 0b10001, 0b10001, 0b01110]),
        'p' => gd([0, 0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000], 2),
        'q' => gd([0, 0b01111, 0b10001, 0b10001, 0b01111, 0b00001, 0b00001], 2),
        'r' => g([0, 0, 0b10110, 0b11001, 0b10000, 0b10000, 0b10000]),
        's' => g([0, 0, 0b01111, 0b10000, 0b01110, 0b00001, 0b11110]),
        't' => g([0b01000, 0b01000, 0b11100, 0b01000, 0b01000, 0b01001, 0b00110]),
        'u' => g([0, 0, 0b10001, 0b10001, 0b10001, 0b10011, 0b01101]),
        'v' => g([0, 0, 0b10001, 0b10001, 0b10001, 0b01010, 0b00100]),
        'w' => g([0, 0, 0b10001, 0b10001, 0b10101, 0b10101, 0b01010]),
        'x' => g([0, 0, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001]),
        'y' => gd([0, 0b10001, 0b10001, 0b10001, 0b01111, 0b00001, 0b01110], 2),
        'z' => g([0, 0, 0b11111, 0b00010, 0b00100, 0b01000, 0b11111]),
        '{' => g([0b00010, 0b00100, 0b00100, 0b01000, 0b00100, 0b00100, 0b00010]),
        '|' => g([0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100]),
        '}' => g([0b01000, 0b00100, 0b00100, 0b00010, 0b00100, 0b00100, 0b01000]),
        '~' => g([0, 0, 0b01000, 0b10101, 0b00010, 0, 0]),
        _ => return None,
    })
}

/// A deterministic fallback glyph for characters outside the embedded face.
/// The pattern is a pure function of the code point, so "unknown" text still
/// renders stably (like a real font's notdef/boxed glyph, but distinct per
/// character so different strings produce different canvases).
fn fallback_glyph(c: char) -> Glyph {
    let cp = c as u32;
    let mut h: u64 = 0x9e3779b97f4a7c15 ^ (cp as u64);
    let mut rows = [0u8; GLYPH_ROWS];
    // Box outline with hash-derived interior.
    rows[0] = 0b11111;
    rows[GLYPH_ROWS - 1] = 0b11111;
    for row in rows.iter_mut().take(GLYPH_ROWS - 1).skip(1) {
        h ^= h >> 13;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        *row = 0b10001 | ((h as u8) & 0b01110);
    }
    g(rows)
}

/// A glyph placed in user space, carrying its polygons (em-space already
/// scaled to the font size and positioned at the pen).
#[derive(Debug, Clone)]
pub struct PlacedGlyph {
    /// The character this glyph renders.
    pub ch: char,
    /// Filled polygons in user space.
    pub polygons: Vec<Polygon>,
    /// Pen advance consumed by this glyph, user-space units.
    pub advance: f64,
}

/// Lays out `text` starting at user-space position `(x, y)` (the pen is at
/// the `baseline`). Returns placed glyphs whose polygons are ready to be
/// transformed by the CTM and rasterized.
pub fn layout_text(
    text: &str,
    x: f64,
    y: f64,
    spec: &FontSpec,
    baseline: TextBaseline,
    device: &DeviceProfile,
) -> Vec<PlacedGlyph> {
    let scale = spec.size_px / EM_ROWS;
    // Baseline adjustment: pen y is where the alphabetic baseline sits.
    let baseline_rows = match baseline {
        TextBaseline::Alphabetic => GLYPH_ROWS as f64,
        TextBaseline::Top => 0.0,
        TextBaseline::Middle => EM_ROWS / 2.0,
        TextBaseline::Bottom => EM_ROWS,
    };
    let top_y = y - baseline_rows * scale;
    let italic_shear = match spec.style {
        FontStyle::Normal => 0.0,
        FontStyle::Italic => 0.21,
    };
    let bold_extra = if spec.weight >= 600 { 0.25 } else { 0.0 };

    let mut pen_x = x;
    let mut out = Vec::new();
    for ch in text.chars() {
        let (polys, advance_cells) = glyph_polygons(ch, spec, device);
        let mut placed = Vec::with_capacity(polys.len());
        // Per-glyph deterministic jitter (device + family dependent).
        let mut key = Vec::with_capacity(16);
        key.extend_from_slice(spec.family.as_bytes());
        key.push(b':');
        key.extend_from_slice(&(ch as u32).to_le_bytes());
        let adv_jit = device.jitter_unit(&key) * device.glyph_jitter * 0.01;
        key.push(b'v');
        let v_jit = device.jitter_unit(&key) * device.glyph_jitter * 0.006;

        for poly in polys {
            let pts = poly
                .points
                .iter()
                .map(|p| {
                    // p is in cell units (x in columns, y in rows, 0 = top).
                    let gy = top_y + (p.y + v_jit * EM_ROWS) * scale;
                    let shear = italic_shear * (GLYPH_ROWS as f64 - p.y) * scale;
                    let gx = pen_x + (p.x + bold_extra * 0.0) * scale + shear;
                    Point::new(gx, gy)
                })
                .collect();
            placed.push(Polygon {
                points: pts,
                closed: poly.closed,
            });
        }
        // Bold: duplicate polygons shifted right by a fraction of a cell.
        if bold_extra > 0.0 {
            let dup: Vec<Polygon> = placed
                .iter()
                .map(|poly| Polygon {
                    points: poly
                        .points
                        .iter()
                        .map(|p| Point::new(p.x + bold_extra * scale, p.y))
                        .collect(),
                    closed: poly.closed,
                })
                .collect();
            placed.extend(dup);
        }
        let advance = (advance_cells + adv_jit * ADVANCE_COLS) * scale;
        out.push(PlacedGlyph {
            ch,
            polygons: placed,
            advance,
        });
        pen_x += advance;
    }
    out
}

/// Measures text width in user-space units (the `measureText().width`
/// value), including device jitter — on real machines `measureText` is
/// itself a fingerprinting surface.
pub fn measure_text(text: &str, spec: &FontSpec, device: &DeviceProfile) -> f64 {
    layout_text(text, 0.0, 0.0, spec, TextBaseline::Alphabetic, device)
        .iter()
        .map(|g| g.advance)
        .sum()
}

/// Produces the filled polygons for one character in glyph cell space
/// (x: columns, y: rows from the glyph-box top). Returns the polygons and
/// the advance in cells.
fn glyph_polygons(ch: char, spec: &FontSpec, device: &DeviceProfile) -> (Vec<Polygon>, f64) {
    if let Some(polys) = emoji_polygons(ch) {
        return (polys, EM_ROWS); // emoji are square, advance = em
    }
    let glyph = ascii_glyph(ch).unwrap_or_else(|| fallback_glyph(ch));
    let _ = device;
    let _ = spec;
    let desc = glyph.desc as f64;
    let mut polys = Vec::new();
    // Merge horizontal runs per row into single rects to keep polygon
    // counts low.
    for (row, &bits) in glyph.rows.iter().enumerate() {
        let ry = row as f64 + desc;
        let mut col = 0usize;
        while col < GLYPH_COLS {
            let lit = bits & (1 << (GLYPH_COLS - 1 - col)) != 0;
            if !lit {
                col += 1;
                continue;
            }
            let start = col;
            while col < GLYPH_COLS && bits & (1 << (GLYPH_COLS - 1 - col)) != 0 {
                col += 1;
            }
            polys.push(rect_poly(start as f64, ry, (col - start) as f64, 1.0));
        }
    }
    (polys, ADVANCE_COLS)
}

/// Procedural emoji glyphs. Only the faces used by the fingerprinting
/// scripts we model are implemented; others use the fallback glyph.
fn emoji_polygons(ch: char) -> Option<Vec<Polygon>> {
    match ch {
        // U+1F603 smiling face with open mouth — the FingerprintJS emoji.
        '\u{1F603}' => {
            // Face disk (CCW) centered in the 9x9 em box; eyes and mouth
            // as CW holes (nonzero winding subtracts them).
            Some(vec![
                disk_poly(4.5, 4.0, 3.8, false),
                rect_poly_cw(2.8, 2.4, 1.0, 1.4),
                rect_poly_cw(5.2, 2.4, 1.0, 1.4),
                disk_poly(4.5, 5.2, 1.7, true),
            ])
        }
        // U+1F600 grinning face — used by some emoji-probe scripts.
        '\u{1F600}' => Some(vec![
            disk_poly(4.5, 4.0, 3.8, false),
            rect_poly_cw(2.6, 2.6, 1.2, 1.0),
            rect_poly_cw(5.2, 2.6, 1.2, 1.0),
            rect_poly_cw(2.8, 5.0, 3.4, 1.2),
        ]),
        _ => None,
    }
}

fn rect_poly(x: f64, y: f64, w: f64, h: f64) -> Polygon {
    Polygon {
        points: vec![
            Point::new(x, y),
            Point::new(x + w, y),
            Point::new(x + w, y + h),
            Point::new(x, y + h),
        ],
        closed: true,
    }
}

fn rect_poly_cw(x: f64, y: f64, w: f64, h: f64) -> Polygon {
    Polygon {
        points: vec![
            Point::new(x, y),
            Point::new(x, y + h),
            Point::new(x + w, y + h),
            Point::new(x + w, y),
        ],
        closed: true,
    }
}

fn disk_poly(cx: f64, cy: f64, r: f64, clockwise: bool) -> Polygon {
    const N: usize = 16;
    let mut pts = Vec::with_capacity(N);
    for i in 0..N {
        let ang = std::f64::consts::TAU * i as f64 / N as f64;
        let (s, c) = ang.sin_cos();
        pts.push(Point::new(cx + r * c, cy + r * s));
    }
    if clockwise {
        pts.reverse();
    }
    Polygon {
        points: pts,
        closed: true,
    }
}

/// Transforms placed glyph polygons by the CTM (helper for the canvas).
pub fn transform_glyphs(glyphs: &[PlacedGlyph], ctm: &Transform) -> Vec<Polygon> {
    let mut out = Vec::new();
    for glyph in glyphs {
        for poly in &glyph.polygons {
            out.push(Polygon {
                points: poly.points.iter().map(|p| ctm.apply(*p)).collect(),
                closed: poly.closed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intel() -> DeviceProfile {
        DeviceProfile::intel_ubuntu()
    }

    #[test]
    fn parses_fingerprintjs_font() {
        // FingerprintJS uses `11pt "Times New Roman"` and `11pt no-real-font-123`.
        let spec = parse_font("11pt no-real-font-123").unwrap();
        assert!((spec.size_px - 11.0 * 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(spec.family, "no-real-font-123");
        let spec = parse_font("italic 700 14px \"Arial\", sans-serif").unwrap();
        assert_eq!(spec.style, FontStyle::Italic);
        assert_eq!(spec.weight, 700);
        assert_eq!(spec.size_px, 14.0);
        assert_eq!(spec.family, "arial");
    }

    #[test]
    fn font_without_size_is_rejected() {
        assert!(parse_font("Arial").is_none());
        assert!(parse_font("").is_none());
    }

    #[test]
    fn bold_keyword_sets_weight() {
        let spec = parse_font("bold 16px mono").unwrap();
        assert_eq!(spec.weight, 700);
    }

    #[test]
    fn all_printable_ascii_have_glyphs() {
        for b in 0x20u8..=0x7e {
            assert!(
                ascii_glyph(b as char).is_some(),
                "missing glyph {:?}",
                b as char
            );
        }
    }

    #[test]
    fn fallback_glyph_is_deterministic_and_distinct() {
        let a1 = fallback_glyph('é').rows;
        let a2 = fallback_glyph('é').rows;
        let b = fallback_glyph('ü').rows;
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn layout_advances_pen() {
        let spec = FontSpec::default();
        let glyphs = layout_text("ab", 0.0, 10.0, &spec, TextBaseline::Alphabetic, &intel());
        assert_eq!(glyphs.len(), 2);
        assert!(glyphs[0].advance > 0.0);
    }

    #[test]
    fn measure_text_scales_with_size() {
        let mut spec = FontSpec::default();
        let w10 = measure_text("Cwm fjordbank", &spec, &intel());
        spec.size_px = 20.0;
        let w20 = measure_text("Cwm fjordbank", &spec, &intel());
        assert!((w20 / w10 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn measure_differs_across_devices_with_jitter() {
        let spec = FontSpec {
            family: "arial".into(),
            ..FontSpec::default()
        };
        let intel = measure_text("mmmmmmmm", &spec, &DeviceProfile::intel_ubuntu());
        let m1 = measure_text("mmmmmmmm", &spec, &DeviceProfile::apple_m1());
        // Intel profile has zero jitter; M1 doesn't.
        assert_ne!(intel, m1);
    }

    #[test]
    fn emoji_has_polygons() {
        let (polys, adv) = glyph_polygons('\u{1F603}', &FontSpec::default(), &intel());
        assert!(polys.len() >= 4);
        assert_eq!(adv, EM_ROWS);
    }

    #[test]
    fn italic_shears_glyphs() {
        let normal = FontSpec::default();
        let italic = FontSpec {
            style: FontStyle::Italic,
            ..FontSpec::default()
        };
        let gn = layout_text("l", 0.0, 10.0, &normal, TextBaseline::Alphabetic, &intel());
        let gi = layout_text("l", 0.0, 10.0, &italic, TextBaseline::Alphabetic, &intel());
        let max_x = |gs: &[PlacedGlyph]| {
            gs[0]
                .polygons
                .iter()
                .flat_map(|p| p.points.iter())
                .map(|p| p.x)
                .fold(f64::MIN, f64::max)
        };
        assert!(max_x(&gi) > max_x(&gn), "italic should lean right");
    }

    #[test]
    fn baseline_modes_shift_vertically() {
        let spec = FontSpec::default();
        let top = layout_text("A", 0.0, 50.0, &spec, TextBaseline::Top, &intel());
        let alpha = layout_text("A", 0.0, 50.0, &spec, TextBaseline::Alphabetic, &intel());
        let min_y = |gs: &[PlacedGlyph]| {
            gs[0]
                .polygons
                .iter()
                .flat_map(|p| p.points.iter())
                .map(|p| p.y)
                .fold(f64::MAX, f64::min)
        };
        assert!(min_y(&top) > min_y(&alpha) - 1e9); // sanity
        assert!(min_y(&alpha) < min_y(&top) + spec.size_px);
        assert!(min_y(&top) >= 50.0 - 1e-9);
    }

    #[test]
    fn text_baseline_parse() {
        assert_eq!(TextBaseline::parse("top"), Some(TextBaseline::Top));
        assert_eq!(
            TextBaseline::parse("alphabetic"),
            Some(TextBaseline::Alphabetic)
        );
        assert_eq!(TextBaseline::parse("weird"), None);
    }
}
