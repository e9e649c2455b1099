//! Anti-fingerprinting defenses (§2, §5.3).
//!
//! Three deployed defense families are modeled:
//!
//! * **blocking** — all canvas reads return a constant (Tor-style);
//! * **per-render randomization** — fresh noise on every extraction
//!   (Brave-style, and the "Canvas Fingerprint Defender" extension the
//!   paper cites). Detectable by the double-render check.
//! * **per-session randomization** — one persistent noise pattern for the
//!   whole browsing session (Firefox-style; footnote 7 notes the
//!   double-render check cannot detect this variant).
//!
//! Both randomizers run one kernel: a xorshift64* stream steps once per
//! byte, and a color byte moves by one, saturating, where the output's
//! low four bits are zero, down where its bit 4 is set. The multiplier is
//! odd, so the output's low five bits are a bijection of the state's, and
//! the kernel reads the state directly. A xorshift step is linear over
//! GF(2), so eight steps are the XOR of eight byte-indexed lookups, and
//! eight more give the low five bits of the next eight states, one per
//! byte lane of a `u64`. The kernel takes eight bytes at a time that way,
//! with SWAR (one `u64` as eight bytes) saturating arithmetic; the last
//! `len % 8` bytes take the same lookup, padded to eight. Its two 8 × 256
//! tables of `u64` (32 KB) are built at compile time. The byte-at-a-time
//! loop it replaced is its test oracle.

use canvassing_dom::{PixelFilter, ReadbackDefense};
use canvassing_raster::Surface;

/// Which defense the browser applies to canvas read-backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefenseMode {
    /// No defense (default Chrome-like configuration; the paper's crawls).
    #[default]
    None,
    /// Block all canvas extraction.
    Block,
    /// Fresh random noise per extraction, seeded per session.
    RandomizePerRender {
        /// Session seed.
        seed: u64,
    },
    /// One persistent noise pattern per session (same noise for every
    /// extraction of the same canvas).
    RandomizePerSession {
        /// Session seed.
        seed: u64,
    },
}

impl DefenseMode {
    /// Short stable name for trace events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseMode::None => "none",
            DefenseMode::Block => "block",
            DefenseMode::RandomizePerRender { .. } => "randomize-per-render",
            DefenseMode::RandomizePerSession { .. } => "randomize-per-session",
        }
    }

    /// Builds the DOM-layer defense hook.
    pub fn build(self) -> ReadbackDefense {
        match self {
            DefenseMode::None => ReadbackDefense::None,
            DefenseMode::Block => ReadbackDefense::Block,
            DefenseMode::RandomizePerRender { seed } => {
                ReadbackDefense::Filter(Box::new(NoiseFilter {
                    seed,
                    per_render: true,
                }))
            }
            DefenseMode::RandomizePerSession { seed } => {
                ReadbackDefense::Filter(Box::new(NoiseFilter {
                    seed,
                    per_render: false,
                }))
            }
        }
    }
}

/// ±1 LSB noise applied to a sparse subset of pixels, the way deployed
/// canvas randomizers perturb read-backs without visibly corrupting the
/// image.
struct NoiseFilter {
    seed: u64,
    per_render: bool,
}

impl PixelFilter for NoiseFilter {
    fn filter(&mut self, canvas_index: usize, surface: &mut Surface, invocation: u64) {
        // Per-render noise is salted by the extraction counter (and the
        // canvas), so every read-back differs. Per-session noise depends
        // only on the session seed: the same pattern for every read-back,
        // across canvases — which is why the double-render check cannot
        // see it (two fresh canvas elements still compare equal).
        let salt = if self.per_render {
            invocation
                .wrapping_mul(0xd1b54a32d192ed03)
                .wrapping_add(canvas_index as u64)
        } else {
            0
        };
        let state = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(salt)
            | 1;
        add_noise(state, surface.data_mut());
    }
}

/// One xorshift64 step, the state update of xorshift64*, from which the
/// tables are built.
const fn step(mut state: u64) -> u64 {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    state
}

/// Lookup tables for eight steps at once, indexed by byte `k` of the
/// state and its value `b`: `ahead[k][b]` is `step⁸(b << 8k)`, and byte
/// `j` of `lanes[k][b]` holds the low five bits of `step^(j+1)(b << 8k)`.
/// `step` is linear over GF(2), so XOR-ing the eight lookups for a state's
/// bytes gives that state's values.
struct NoiseTables {
    ahead: [[u64; 256]; 8],
    lanes: [[u64; 256]; 8],
}

static NOISE_TABLES: NoiseTables = noise_tables();

const fn noise_tables() -> NoiseTables {
    let mut tables = NoiseTables {
        ahead: [[0; 256]; 8],
        lanes: [[0; 256]; 8],
    };
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let mut state = (b as u64) << (8 * k);
            let mut j = 0;
            while j < 8 {
                state = step(state);
                tables.lanes[k][b] |= (state & 0x1f) << (8 * j);
                j += 1;
            }
            tables.ahead[k][b] = state;
            b += 1;
        }
        k += 1;
    }
    tables
}

/// `0x01` in every byte lane.
const LANE_ONES: u64 = 0x0101_0101_0101_0101;

/// Bit 4 of the six color lanes of an eight-byte chunk that starts on a
/// pixel boundary (lanes 3 and 7 are alpha).
const COLOR_BIT4: u64 = 0x0010_1010_0010_1010;

/// Adds ±1 LSB noise to `data` from xorshift state `state`, skipping
/// every fourth (alpha) byte: step the state once per byte, then move the
/// byte when the state's low four bits are zero, down when its bit 4 is
/// set, saturating at 0 and 255.
fn add_noise(mut state: u64, data: &mut [u8]) {
    let mut chunks = data.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(chunk);
        chunk.copy_from_slice(&noise_chunk(&mut state, bytes));
    }
    // The last `len % 8` bytes (none, or one pixel, on a surface) are
    // padded with zeros, whose noised lanes are dropped.
    let tail = chunks.into_remainder();
    let mut bytes = [0; 8];
    bytes[..tail.len()].copy_from_slice(tail);
    tail.copy_from_slice(&noise_chunk(&mut state, bytes)[..tail.len()]);
}

/// Noises eight bytes that start on a pixel boundary and moves `state`
/// eight steps on.
fn noise_chunk(state: &mut u64, bytes: [u8; 8]) -> [u8; 8] {
    let t = &NOISE_TABLES;
    let (mut lanes, mut ahead) = (0, 0);
    for (k, b) in state.to_le_bytes().into_iter().enumerate() {
        lanes ^= t.lanes[k][b as usize];
        ahead ^= t.ahead[k][b as usize];
    }
    *state = ahead;
    nudge(u64::from_le_bytes(bytes), lanes).to_le_bytes()
}

/// Applies one chunk's noise to eight bytes `x`, given the low five state
/// bits of each byte's step in `lanes`.
fn nudge(x: u64, lanes: u64) -> u64 {
    // Adding 0x0f to a lane's low four bits carries into its bit 4
    // exactly when they are not all zero.
    let hit = !((lanes & (LANE_ONES * 0x0f)) + LANE_ONES * 0x0f) & COLOR_BIT4;
    let down = hit & lanes;
    let up = hit ^ down;
    // A lane at 255 cannot go up, nor one at 0 down; with those dropped no
    // lane carries or borrows into its neighbour.
    let inc = (up >> 4) & !(zero_lanes(!x) >> 7);
    let dec = (down >> 4) & !(zero_lanes(x) >> 7);
    x + inc - dec
}

/// `0x80` in every byte lane of `x` that is zero, `0x00` in the others.
fn zero_lanes(x: u64) -> u64 {
    let low7 = LANE_ONES * 0x7f;
    !(((x & low7) + low7) | x) & !low7
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface_with_content() -> Surface {
        let mut s = Surface::new(16, 16);
        for b in s.data_mut().iter_mut() {
            *b = 128;
        }
        s
    }

    fn run_filter(mode: DefenseMode, invocation: u64) -> Vec<u8> {
        let ReadbackDefense::Filter(mut f) = mode.build() else {
            panic!("expected filter")
        };
        let mut s = surface_with_content();
        f.filter(0, &mut s, invocation);
        s.data().to_vec()
    }

    #[test]
    fn per_render_noise_differs_across_invocations() {
        let mode = DefenseMode::RandomizePerRender { seed: 7 };
        assert_ne!(run_filter(mode, 1), run_filter(mode, 2));
        // But is deterministic for the same invocation.
        assert_eq!(run_filter(mode, 1), run_filter(mode, 1));
    }

    #[test]
    fn per_session_noise_is_stable_across_invocations() {
        let mode = DefenseMode::RandomizePerSession { seed: 7 };
        assert_eq!(run_filter(mode, 1), run_filter(mode, 2));
        // Different sessions (seeds) produce different noise.
        assert_ne!(
            run_filter(DefenseMode::RandomizePerSession { seed: 7 }, 1),
            run_filter(DefenseMode::RandomizePerSession { seed: 8 }, 1)
        );
    }

    #[test]
    fn noise_actually_changes_pixels_but_sparsely() {
        let noisy = run_filter(DefenseMode::RandomizePerRender { seed: 3 }, 1);
        let clean = surface_with_content();
        let changed = noisy
            .iter()
            .zip(clean.data())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0, "noise must perturb something");
        assert!(
            changed < noisy.len() / 4,
            "noise must be sparse, changed {changed}/{}",
            noisy.len()
        );
        // Alpha channel untouched.
        for i in (3..noisy.len()).step_by(4) {
            assert_eq!(noisy[i], clean.data()[i]);
        }
    }

    /// The byte-at-a-time loop the table kernel replaced, kept as its
    /// oracle: one xorshift64* output per byte.
    fn add_noise_bytewise(mut state: u64, data: &mut [u8]) {
        let mut i = 0usize;
        while i < data.len() {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545f4914f6cdd1d);
            // Perturb roughly 1 in 16 bytes by ±1, skipping alpha bytes.
            if r & 0xf == 0 && i % 4 != 3 {
                data[i] = if r & 0x10 == 0 {
                    data[i].saturating_add(1)
                } else {
                    data[i].saturating_sub(1)
                };
            }
            i += 1;
        }
    }

    /// splitmix64, for seeded states and bytes.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// A byte at or next to a saturation edge half the time.
        fn edge_byte(&mut self) -> u8 {
            let r = self.next();
            match r % 8 {
                0 => 0,
                1 => 1,
                2 => 254,
                3 => 255,
                _ => (r >> 8) as u8,
            }
        }
    }

    /// Every length 0–64, so every length of the padded last chunk with
    /// the alpha lanes wherever they fall in it: the table kernel changes
    /// exactly the bytes the byte loop does.
    #[test]
    fn table_noise_matches_the_byte_loop_on_short_runs() {
        let mut rng = Rng(27);
        let mut moved = 0;
        for len in 0..=64 {
            for _ in 0..64 {
                let state = rng.next() | 1;
                let buf: Vec<u8> = (0..len).map(|_| rng.edge_byte()).collect();
                let (mut fast, mut oracle) = (buf.clone(), buf.clone());
                add_noise(state, &mut fast);
                add_noise_bytewise(state, &mut oracle);
                assert_eq!(fast, oracle, "len {len}, state {state:#x}");
                moved += usize::from(oracle != buf);
            }
        }
        assert!(moved > 1000, "noise moved bytes in only {moved} runs");
    }

    /// About 200 KB of 0s, of 255s and of mixed bytes, where both
    /// saturation edges are hit thousands of times.
    #[test]
    fn table_noise_matches_the_byte_loop_on_large_surfaces() {
        // Not a multiple of 8, so the padded last chunk runs too.
        const LEN: usize = 200 * 1024 + 13;
        let mut rng = Rng(2025);
        let mixed: Vec<u8> = (0..LEN).map(|_| rng.next() as u8).collect();
        for fill in [vec![0; LEN], vec![255; LEN], mixed] {
            for _ in 0..3 {
                let state = rng.next() | 1;
                let (mut fast, mut oracle) = (fill.clone(), fill.clone());
                add_noise(state, &mut fast);
                add_noise_bytewise(state, &mut oracle);
                assert!(fast == oracle, "state {state:#x}");
                // Where a mid-grey byte moves down (up), a 0 (255) byte
                // saturates.
                let mut grey = vec![128; LEN];
                add_noise_bytewise(state, &mut grey);
                let down = grey.iter().filter(|&&b| b == 127).count();
                let up = grey.iter().filter(|&&b| b == 129).count();
                assert!(down > 1000 && up > 1000, "down {down}, up {up}");
            }
        }
    }

    #[test]
    fn none_and_block_modes_build() {
        assert!(matches!(DefenseMode::None.build(), ReadbackDefense::None));
        assert!(matches!(DefenseMode::Block.build(), ReadbackDefense::Block));
    }
}
