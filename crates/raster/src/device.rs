//! Device rendering profiles.
//!
//! Canvas fingerprinting works because the *same* draw commands produce
//! *different* pixels on different GPU / OS / font stacks. The paper's
//! methodology depends on two facts (§3.1):
//!
//! 1. rendering is **deterministic per device** — every site crawled from
//!    one machine that runs the same script yields byte-identical canvases;
//! 2. rendering **differs across devices** — the authors validated their
//!    clustering by re-crawling on an Apple M1 laptop and observing
//!    different canvas bytes but identical cross-site grouping.
//!
//! A [`DeviceProfile`] reproduces both properties in our software
//! rasterizer: it perturbs anti-aliasing sample phases, coverage gamma,
//! and text metrics in a way that is a pure function of the profile.

use serde::{Deserialize, Serialize};

/// A deterministic description of how one machine rasterizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Stable identifier, e.g. `"intel-ubuntu-22.04"`.
    pub id: String,
    /// Human-readable description.
    pub name: String,
    /// Sub-pixel phase of the anti-aliasing sample grid, in `[0, 1)²`.
    /// Different GPUs place their sample points differently; this shifts
    /// every coverage computation and therefore every edge pixel.
    pub aa_phase: (f64, f64),
    /// Exponent applied to edge coverage before compositing, emulating the
    /// gamma-correction differences between font/AA stacks (1.0 = linear).
    pub coverage_gamma: f64,
    /// Per-mille horizontal advance jitter applied to text glyphs,
    /// hashed per (glyph, profile). Emulates hinting/kerning differences.
    pub glyph_jitter: f64,
    /// Extra blur radius (in px, 0.0–1.0) applied to glyph edges,
    /// emulating sub-pixel smoothing differences.
    pub glyph_softness: f64,
    /// Seed mixed into all per-device hash perturbations.
    pub seed: u64,
}

impl DeviceProfile {
    /// The Intel/Ubuntu 22.04 machine the paper used for its primary crawl.
    pub fn intel_ubuntu() -> Self {
        DeviceProfile {
            id: "intel-ubuntu-22.04".into(),
            name: "Intel UHD, Ubuntu 22.04.2 LTS, Chrome-like".into(),
            // (0.5, 0.5) is the neutral phase: sample points sit exactly at
            // subsample centers, so this profile is the reference renderer.
            aa_phase: (0.5, 0.5),
            coverage_gamma: 1.0,
            glyph_jitter: 0.0,
            glyph_softness: 0.0,
            seed: 0x17e1_2204,
        }
    }

    /// The Apple M1 laptop used for the paper's validation crawl (§3.1).
    pub fn apple_m1() -> Self {
        DeviceProfile {
            id: "apple-m1-macos".into(),
            name: "Apple M1, macOS, Chrome-like".into(),
            aa_phase: (0.37, 0.61),
            coverage_gamma: 1.18,
            glyph_jitter: 0.8,
            glyph_softness: 0.35,
            seed: 0x0a99_1e71,
        }
    }

    /// A third synthetic profile (useful for tests that need a tie-breaker).
    pub fn windows_nvidia() -> Self {
        DeviceProfile {
            id: "windows-nvidia".into(),
            name: "NVIDIA GTX, Windows 11, Chrome-like".into(),
            aa_phase: (0.73, 0.19),
            coverage_gamma: 0.92,
            glyph_jitter: 1.4,
            glyph_softness: 0.15,
            seed: 0x0071_7a99,
        }
    }

    /// Deterministic 64-bit hash of `data` mixed with the profile seed.
    /// Used for glyph jitter and any other per-device perturbation.
    pub fn perturb(&self, data: &[u8]) -> u64 {
        // FNV-1a with the seed folded in; stable across platforms.
        let mut h: u64 = 0xcbf29ce484222325 ^ self.seed;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// A deterministic jitter value in `[-1, 1]` for the given key.
    pub fn jitter_unit(&self, data: &[u8]) -> f64 {
        let h = self.perturb(data);
        // Map the top 53 bits to [0,1), then to [-1,1].
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// Applies the device coverage gamma to a raw coverage value in `[0,1]`.
    pub fn shade(&self, coverage: f64) -> f64 {
        if self.coverage_gamma == 1.0 {
            coverage
        } else {
            coverage.clamp(0.0, 1.0).powf(self.coverage_gamma)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_distinct_ids() {
        let ids = [
            DeviceProfile::intel_ubuntu().id,
            DeviceProfile::apple_m1().id,
            DeviceProfile::windows_nvidia().id,
        ];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn perturb_is_deterministic_and_seed_dependent() {
        let intel = DeviceProfile::intel_ubuntu();
        let m1 = DeviceProfile::apple_m1();
        assert_eq!(intel.perturb(b"glyph:a"), intel.perturb(b"glyph:a"));
        assert_ne!(intel.perturb(b"glyph:a"), m1.perturb(b"glyph:a"));
        assert_ne!(intel.perturb(b"glyph:a"), intel.perturb(b"glyph:b"));
    }

    #[test]
    fn jitter_is_bounded() {
        let m1 = DeviceProfile::apple_m1();
        for i in 0..256u32 {
            let j = m1.jitter_unit(&i.to_le_bytes());
            assert!((-1.0..=1.0).contains(&j));
        }
    }

    /// Full coverage shades to exactly 1.0 whatever the gamma (`powf(1.0,
    /// g)` is 1.0), which the canvas's full-coverage fast path relies on.
    #[test]
    fn full_coverage_shades_to_one() {
        let profiles = [
            DeviceProfile::intel_ubuntu(),
            DeviceProfile::apple_m1(),
            DeviceProfile::windows_nvidia(),
        ];
        for mut device in profiles {
            assert_eq!(device.shade(1.0), 1.0, "{}", device.id);
            for tenths in 1..=40 {
                device.coverage_gamma = tenths as f64 / 10.0 + 0.013;
                assert_eq!(device.shade(1.0), 1.0, "gamma {}", device.coverage_gamma);
            }
        }
    }

    #[test]
    fn shade_is_identity_for_linear_gamma() {
        let intel = DeviceProfile::intel_ubuntu();
        assert_eq!(intel.shade(0.5), 0.5);
        let m1 = DeviceProfile::apple_m1();
        assert!(m1.shade(0.5) < 0.5); // gamma > 1 darkens midtones
    }
}
