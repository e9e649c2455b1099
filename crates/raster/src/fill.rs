//! Scanline rasterization with anti-aliased coverage masks.
//!
//! Filling works in two stages: the path is flattened to polygons
//! ([`crate::path::Path::flatten`]), then [`rasterize`] converts the
//! polygons into a [`Mask`] of per-pixel coverage in `[0, 1]`. Coverage is
//! computed on `SUBSAMPLES` sample rows per pixel row with analytic
//! horizontal coverage, which gives smooth edges without randomness. The
//! device profile shifts the sample phases, which is precisely how two
//! machines rasterizing the same geometry end up with different edge
//! pixels — the effect canvas fingerprinting exploits.

use crate::device::DeviceProfile;
use crate::path::Polygon;

/// Number of sample rows per pixel row.
const SUBSAMPLES: usize = 4;

/// Path fill rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillRule {
    /// Non-zero winding (canvas default).
    #[default]
    NonZero,
    /// Even-odd parity (`fill("evenodd")`), used by FingerprintJS's
    /// winding-rule test canvas.
    EvenOdd,
}

impl FillRule {
    /// Parses the canvas fill-rule string.
    pub fn parse(s: &str) -> Option<FillRule> {
        match s {
            "nonzero" => Some(FillRule::NonZero),
            "evenodd" => Some(FillRule::EvenOdd),
            _ => None,
        }
    }
}

/// A rectangular per-pixel coverage buffer positioned on the surface.
#[derive(Debug, Clone)]
pub struct Mask {
    /// Left edge in device pixels.
    pub x0: i64,
    /// Top edge in device pixels.
    pub y0: i64,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
    /// Row-major coverage values in `[0, 1]`.
    pub cov: Vec<f32>,
}

impl Mask {
    /// An empty mask covering nothing.
    pub fn empty() -> Mask {
        Mask {
            x0: 0,
            y0: 0,
            w: 0,
            h: 0,
            cov: Vec::new(),
        }
    }

    /// Coverage at device pixel `(x, y)`; zero outside the mask.
    pub fn coverage(&self, x: i64, y: i64) -> f64 {
        if x < self.x0 || y < self.y0 {
            return 0.0;
        }
        let (dx, dy) = ((x - self.x0) as usize, (y - self.y0) as usize);
        if dx >= self.w || dy >= self.h {
            return 0.0;
        }
        self.cov[dy * self.w + dx] as f64
    }

    /// Total coverage, useful in tests.
    pub fn total(&self) -> f64 {
        self.cov.iter().map(|&c| c as f64).sum()
    }
}

/// An edge prepared for scanline intersection.
struct Edge {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    /// +1 when the original direction was downward (y increasing).
    dir: i32,
}

fn collect_edges(polys: &[Polygon]) -> Vec<Edge> {
    let mut edges = Vec::new();
    for poly in polys {
        let pts = &poly.points;
        if pts.len() < 2 {
            continue;
        }
        let n = pts.len();
        // `fill` implicitly closes every subpath.
        for i in 0..n {
            let a = pts[i];
            let b = pts[(i + 1) % n];
            if i + 1 == n && a == pts[0] {
                break; // already explicitly closed
            }
            if (a.y - b.y).abs() < 1e-12 {
                continue; // horizontal edges never cross a scanline
            }
            if a.y < b.y {
                edges.push(Edge {
                    x0: a.x,
                    y0: a.y,
                    x1: b.x,
                    y1: b.y,
                    dir: 1,
                });
            } else {
                edges.push(Edge {
                    x0: b.x,
                    y0: b.y,
                    x1: a.x,
                    y1: a.y,
                    dir: -1,
                });
            }
        }
    }
    edges
}

/// The mask placement for polygons: their bounds, grown by one pixel on
/// every side and clipped to `clip_w` × `clip_h`, with zero coverage.
/// `None` when they have no points or miss the clip.
fn placement<'a>(
    polys: impl IntoIterator<Item = &'a Polygon>,
    clip_w: u32,
    clip_h: u32,
) -> Option<Mask> {
    let mut bounds: Option<(f64, f64, f64, f64)> = None;
    for p in polys {
        if let Some(b) = p.bounds() {
            bounds = Some(match bounds {
                None => b,
                Some(acc) => (
                    acc.0.min(b.0),
                    acc.1.min(b.1),
                    acc.2.max(b.2),
                    acc.3.max(b.3),
                ),
            });
        }
    }
    let (bx0, by0, bx1, by1) = bounds?;
    // The canvas spec ignores a call with an infinite coordinate. A huge
    // finite one saturates the cast and the padding, then clips.
    if [bx0, by0, bx1, by1].iter().any(|v| v.is_infinite()) {
        return None;
    }
    let x0 = (bx0.floor() as i64).saturating_sub(1).max(0);
    let y0 = (by0.floor() as i64).saturating_sub(1).max(0);
    let x1 = (bx1.ceil() as i64).saturating_add(1).min(clip_w as i64);
    let y1 = (by1.ceil() as i64).saturating_add(1).min(clip_h as i64);
    if x1 <= x0 || y1 <= y0 {
        return None;
    }
    let w = (x1 - x0) as usize;
    let h = (y1 - y0) as usize;
    Some(Mask {
        x0,
        y0,
        w,
        h,
        cov: vec![0.0; w * h],
    })
}

/// Rasterizes polygons into a coverage mask clipped to
/// `clip_w` × `clip_h` device pixels.
pub fn rasterize(
    polys: &[Polygon],
    rule: FillRule,
    clip_w: u32,
    clip_h: u32,
    device: &DeviceProfile,
) -> Mask {
    let Some(mut mask) = placement(polys, clip_w, clip_h) else {
        return Mask::empty();
    };
    let edges = collect_edges(polys);
    if edges.is_empty() {
        return mask;
    }
    // Device-dependent sub-pixel phases: shift sample rows and interval
    // endpoints by a fraction of a sample cell.
    let phase_y = (device.aa_phase.1 - 0.5) * 0.5 / SUBSAMPLES as f64;
    let phase_x = (device.aa_phase.0 - 0.5) * 0.125;
    let weight = 1.0 / SUBSAMPLES as f64;

    let mut crossings: Vec<(f64, i32)> = Vec::with_capacity(16);
    for row in 0..mask.h {
        let py = (mask.y0 + row as i64) as f64;
        for s in 0..SUBSAMPLES {
            let sy = py + (s as f64 + 0.5) / SUBSAMPLES as f64 + phase_y;
            crossings.clear();
            for e in &edges {
                if sy >= e.y0 && sy < e.y1 {
                    let t = (sy - e.y0) / (e.y1 - e.y0);
                    let x = e.x0 + (e.x1 - e.x0) * t + phase_x;
                    crossings.push((x, e.dir));
                }
            }
            if crossings.is_empty() {
                continue;
            }
            sort_crossings(&mut crossings);
            // Build inside intervals per fill rule.
            let mut winding = 0i32;
            let mut parity = false;
            let mut span_start: Option<f64> = None;
            for &(x, dir) in &crossings {
                let was_inside = match rule {
                    FillRule::NonZero => winding != 0,
                    FillRule::EvenOdd => parity,
                };
                winding += dir;
                parity = !parity;
                let now_inside = match rule {
                    FillRule::NonZero => winding != 0,
                    FillRule::EvenOdd => parity,
                };
                match (was_inside, now_inside) {
                    (false, true) => span_start = Some(x),
                    (true, false) => {
                        if let Some(sx) = span_start.take() {
                            accumulate_span(&mut mask, row, sx, x, weight);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    mask
}

/// Sorts one sample row's crossings by `x` (`total_cmp`), stably. Edges
/// arrive in path order and glyphs are laid out left to right, so the
/// crossings are nearly sorted (in a defended crawl almost every row takes
/// at most one move per crossing), and there an insertion sort beats the
/// library's stable sort. A page can reverse every row, though, by adding
/// its subpaths right to left or turning text half round, and insertion
/// sort spends n²/2 moves on a reversed row. So past eight moves per
/// crossing, about what a merge sort of a few hundred crossings spends,
/// the library's stable sort finishes the job. Every stable sort yields
/// the same order, ties included, and the prefix sorted so far keeps the
/// order of its ties.
fn sort_crossings(crossings: &mut [(f64, i32)]) {
    let mut moves = 8 * crossings.len();
    for i in 1..crossings.len() {
        let mut j = i;
        while j > 0 && crossings[j - 1].0.total_cmp(&crossings[j].0).is_gt() {
            if moves == 0 {
                crossings.sort_by(|a, b| a.0.total_cmp(&b.0));
                return;
            }
            crossings.swap(j - 1, j);
            moves -= 1;
            j -= 1;
        }
    }
}

/// Adds horizontal coverage for the inside interval `[xa, xb)` on mask row
/// `row`, weighted by the subsample weight.
///
/// A pixel wholly inside `[x_lo, x_hi)` overlaps it by exactly 1.0, since
/// `(pl + 1.0) - pl == 1.0` for an integral `pl`, so it gains exactly
/// `weight`. Every pixel strictly between the first and the last is such
/// a pixel; only those two take the overlap formula. The last pixel comes
/// before the first only for a span that ends within the 1e-9 margin past
/// the pixel boundary it starts on, and such a span adds nothing.
fn accumulate_span(mask: &mut Mask, row: usize, xa: f64, xb: f64, weight: f64) {
    if xb <= xa {
        return;
    }
    let x0 = mask.x0;
    let x_lo = xa.max(x0 as f64);
    let x_hi = xb.min((x0 + mask.w as i64) as f64);
    if x_hi <= x_lo {
        return;
    }
    let first = x_lo.floor() as i64 - x0;
    let last = ((x_hi - 1e-9).floor() as i64 - x0).min(mask.w as i64 - 1);
    if last < first {
        return;
    }
    let (first, last) = (first as usize, last as usize);
    let cells = &mut mask.cov[row * mask.w..][first..=last];
    let add = |cell: &mut f32, overlap: f64| {
        *cell = (*cell as f64 + overlap * weight).min(1.0) as f32;
    };
    let overlap = |px: usize| {
        let pl = (x0 + px as i64) as f64;
        (x_hi.min(pl + 1.0) - x_lo.max(pl)).max(0.0)
    };
    if let [head, interior @ .., tail] = cells {
        add(head, overlap(first));
        for cell in interior {
            add(cell, 1.0);
        }
        add(tail, overlap(last));
    } else {
        add(&mut cells[0], overlap(first));
    }
}

/// Rasterizes several polygon groups independently and unions their
/// coverage with per-pixel max. Used for strokes, where overlapping
/// segment quads must not blend twice.
pub fn rasterize_union(
    groups: &[Vec<Polygon>],
    clip_w: u32,
    clip_h: u32,
    device: &DeviceProfile,
) -> Mask {
    // Compute the union placement first so all masks align.
    let Some(mut acc) = placement(groups.iter().flatten(), clip_w, clip_h) else {
        return Mask::empty();
    };
    for g in groups {
        let m = rasterize(g, FillRule::NonZero, clip_w, clip_h, device);
        if m.w == 0 {
            continue;
        }
        // Re-place `m` into `acc` coordinates.
        for row in 0..m.h {
            let ay = m.y0 + row as i64 - acc.y0;
            if ay < 0 || ay as usize >= acc.h {
                continue;
            }
            for col in 0..m.w {
                let ax = m.x0 + col as i64 - acc.x0;
                if ax < 0 || ax as usize >= acc.w {
                    continue;
                }
                let idx = ay as usize * acc.w + ax as usize;
                acc.cov[idx] = acc.cov[idx].max(m.cov[row * m.w + col]);
            }
        }
    }
    acc
}

/// The scan [`rasterize`] replaced, kept as its test oracle: every
/// crossing ordered by the library's stable sort, and every pixel of a
/// span through the overlap formula.
#[cfg(test)]
pub(crate) fn reference_rasterize(
    polys: &[Polygon],
    rule: FillRule,
    clip_w: u32,
    clip_h: u32,
    device: &DeviceProfile,
) -> Mask {
    let Some(mut mask) = placement(polys, clip_w, clip_h) else {
        return Mask::empty();
    };
    let edges = collect_edges(polys);
    let phase_y = (device.aa_phase.1 - 0.5) * 0.5 / SUBSAMPLES as f64;
    let phase_x = (device.aa_phase.0 - 0.5) * 0.125;
    let weight = 1.0 / SUBSAMPLES as f64;
    let mut crossings: Vec<(f64, i32)> = Vec::with_capacity(16);
    for row in 0..mask.h {
        let py = (mask.y0 + row as i64) as f64;
        for s in 0..SUBSAMPLES {
            let sy = py + (s as f64 + 0.5) / SUBSAMPLES as f64 + phase_y;
            crossings.clear();
            for e in &edges {
                if sy >= e.y0 && sy < e.y1 {
                    let t = (sy - e.y0) / (e.y1 - e.y0);
                    let x = e.x0 + (e.x1 - e.x0) * t + phase_x;
                    crossings.push((x, e.dir));
                }
            }
            if crossings.is_empty() {
                continue;
            }
            crossings.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut winding = 0i32;
            let mut parity = false;
            let mut span_start: Option<f64> = None;
            for &(x, dir) in &crossings {
                let was_inside = match rule {
                    FillRule::NonZero => winding != 0,
                    FillRule::EvenOdd => parity,
                };
                winding += dir;
                parity = !parity;
                let now_inside = match rule {
                    FillRule::NonZero => winding != 0,
                    FillRule::EvenOdd => parity,
                };
                match (was_inside, now_inside) {
                    (false, true) => span_start = Some(x),
                    (true, false) => {
                        if let Some(sx) = span_start.take() {
                            reference_accumulate_span(&mut mask, row, sx, x, weight);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    mask
}

/// [`accumulate_span`] as it was, every pixel through the overlap formula.
#[cfg(test)]
fn reference_accumulate_span(mask: &mut Mask, row: usize, xa: f64, xb: f64, weight: f64) {
    if xb <= xa {
        return;
    }
    let x_lo = xa.max(mask.x0 as f64);
    let x_hi = xb.min((mask.x0 + mask.w as i64) as f64);
    if x_hi <= x_lo {
        return;
    }
    let first = (x_lo.floor() as i64 - mask.x0) as usize;
    let last = ((x_hi - 1e-9).floor() as i64 - mask.x0).min(mask.w as i64 - 1) as usize;
    let base = row * mask.w;
    for px in first..=last {
        let pl = (mask.x0 + px as i64) as f64;
        let pr = pl + 1.0;
        let overlap = (x_hi.min(pr) - x_lo.max(pl)).max(0.0);
        mask.cov[base + px] = (mask.cov[base + px] as f64 + overlap * weight).min(1.0) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Transform};
    use crate::path::Path;

    fn device() -> DeviceProfile {
        DeviceProfile::intel_ubuntu()
    }

    fn rect_polys(x: f64, y: f64, w: f64, h: f64) -> Vec<Polygon> {
        let mut p = Path::new();
        p.rect(x, y, w, h);
        p.flatten(&Transform::identity())
    }

    #[test]
    fn pixel_aligned_rect_has_full_coverage() {
        let m = rasterize(
            &rect_polys(2.0, 2.0, 4.0, 3.0),
            FillRule::NonZero,
            20,
            20,
            &device(),
        );
        assert!((m.coverage(3, 3) - 1.0).abs() < 1e-6);
        assert_eq!(m.coverage(1, 1), 0.0);
        assert_eq!(m.coverage(6, 3), 0.0);
        // Total area = 12 px.
        assert!((m.total() - 12.0).abs() < 0.01, "total={}", m.total());
    }

    #[test]
    fn half_pixel_rect_has_half_coverage() {
        let m = rasterize(
            &rect_polys(0.0, 0.0, 1.0, 0.5),
            FillRule::NonZero,
            4,
            4,
            &device(),
        );
        let c = m.coverage(0, 0);
        assert!((c - 0.5).abs() < 0.13, "coverage {c}");
    }

    #[test]
    fn nonzero_vs_evenodd_differ_on_overlap() {
        // Two overlapping same-direction squares: nonzero fills both,
        // evenodd leaves a hole in the intersection.
        let mut p = Path::new();
        p.rect(0.0, 0.0, 6.0, 6.0);
        p.rect(2.0, 2.0, 6.0, 6.0);
        let polys = p.flatten(&Transform::identity());
        let nz = rasterize(&polys, FillRule::NonZero, 16, 16, &device());
        let eo = rasterize(&polys, FillRule::EvenOdd, 16, 16, &device());
        assert!(nz.coverage(3, 3) > 0.9);
        assert!(eo.coverage(3, 3) < 0.1, "evenodd hole expected");
        assert!(eo.coverage(1, 1) > 0.9);
    }

    #[test]
    fn clip_truncates_mask() {
        let m = rasterize(
            &rect_polys(-5.0, -5.0, 100.0, 100.0),
            FillRule::NonZero,
            8,
            8,
            &device(),
        );
        assert_eq!((m.x0, m.y0), (0, 0));
        assert!(m.w <= 8 && m.h <= 8);
        assert!((m.coverage(7, 7) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn device_phase_changes_edge_pixels() {
        // A rect with a fractional edge: coverage on the boundary pixel
        // must differ between devices.
        let polys = rect_polys(1.3, 1.3, 3.4, 3.4);
        let a = rasterize(
            &polys,
            FillRule::NonZero,
            10,
            10,
            &DeviceProfile::intel_ubuntu(),
        );
        let b = rasterize(
            &polys,
            FillRule::NonZero,
            10,
            10,
            &DeviceProfile::apple_m1(),
        );
        let edge_a = a.coverage(1, 2);
        let edge_b = b.coverage(1, 2);
        assert!(
            (edge_a - edge_b).abs() > 1e-4,
            "expected device-dependent AA: {edge_a} vs {edge_b}"
        );
    }

    #[test]
    fn rasterize_is_deterministic() {
        let mut p = Path::new();
        p.move_to(0.5, 0.5);
        p.line_to(9.3, 2.7);
        p.line_to(4.1, 8.8);
        p.close();
        let polys = p.flatten(&Transform::identity());
        let a = rasterize(&polys, FillRule::NonZero, 12, 12, &device());
        let b = rasterize(&polys, FillRule::NonZero, 12, 12, &device());
        assert_eq!(a.cov, b.cov);
    }

    #[test]
    fn union_respects_overlap() {
        let g1 = rect_polys(0.0, 0.0, 4.0, 4.0);
        let g2 = rect_polys(2.0, 2.0, 4.0, 4.0);
        let m = rasterize_union(&[g1, g2], 10, 10, &device());
        // Overlap pixel still has coverage exactly 1 (max, not sum).
        assert!((m.coverage(3, 3) - 1.0).abs() < 1e-6);
        assert!((m.coverage(0, 0) - 1.0).abs() < 1e-6);
        assert!((m.coverage(5, 5) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn open_polyline_is_implicitly_closed_for_fill() {
        let tri = vec![Polygon {
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(8.0, 0.0),
                Point::new(0.0, 8.0),
            ],
            closed: false,
        }];
        let m = rasterize(&tri, FillRule::NonZero, 10, 10, &device());
        assert!(m.coverage(1, 1) > 0.9);
    }

    /// `sort_crossings` orders like the library's stable sort, ties
    /// included, both where insertion sort finishes (nearly sorted rows)
    /// and where it hands over (reversed rows).
    #[test]
    fn sort_crossings_matches_the_stable_sort() {
        let mut rng = crate::proptests::Lcg::case(9, 0);
        for case in 0..256 {
            let len = rng.below(120);
            // Few distinct x values, so ties are common; dir tells tied
            // crossings apart.
            let mut row: Vec<(f64, i32)> = (0..len)
                .map(|i| (rng.below(24) as f64 * 0.5, i as i32))
                .collect();
            match case % 3 {
                0 => row.sort_by(|a, b| a.0.total_cmp(&b.0)),
                1 => row.sort_by(|a, b| b.0.total_cmp(&a.0)),
                _ => {}
            }
            if case % 3 == 0 && len > 1 {
                // Nearly sorted: one element out of place.
                let (i, j) = (rng.below(len), rng.below(len));
                row.swap(i, j);
            }
            let mut expected = row.clone();
            expected.sort_by(|a, b| a.0.total_cmp(&b.0));
            sort_crossings(&mut row);
            assert_eq!(row, expected, "case {case}");
        }
    }

    #[test]
    fn empty_input_yields_empty_mask() {
        let m = rasterize(&[], FillRule::NonZero, 10, 10, &device());
        assert_eq!(m.w, 0);
        assert_eq!(m.coverage(0, 0), 0.0);
    }
}
