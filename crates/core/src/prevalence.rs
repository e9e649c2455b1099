//! Prevalence statistics (§4.1 and Appendix A.2).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::detect::{ExclusionReason, SiteDetection};

/// Cohort-level prevalence numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prevalence {
    /// Sites attempted.
    pub sites_crawled: usize,
    /// Sites crawled successfully.
    pub successes: usize,
    /// Sites with at least one fingerprintable canvas.
    pub fingerprinting_sites: usize,
    /// Sites with only excluded canvas activity (Appendix A.2).
    pub fully_excluded_sites: usize,
    /// All extractions observed (fingerprintable + excluded).
    pub total_extractions: usize,
    /// Fingerprintable extraction count.
    pub fingerprintable_extractions: usize,
    /// Excluded extraction counts per reason:
    /// (lossy, too-small, animation).
    pub excluded_by_reason: (usize, usize, usize),
    /// Sites with at least one lossy-format (WebP/JPEG) exclusion —
    /// superset of the paper's WebP-probe population.
    pub lossy_probe_sites: usize,
    /// Sites with at least one small-canvas exclusion.
    pub small_canvas_sites: usize,
    /// Mean fingerprintable canvases per fingerprinting site.
    pub mean_canvases: f64,
    /// Median fingerprintable canvases per fingerprinting site.
    pub median_canvases: usize,
    /// Maximum fingerprintable canvases on a single site.
    pub max_canvases: usize,
}

impl Prevalence {
    /// Fraction of successfully crawled sites that fingerprint
    /// (the paper's 12.7% / 9.9%).
    pub fn fingerprinting_rate(&self) -> f64 {
        if self.successes == 0 {
            return 0.0;
        }
        self.fingerprinting_sites as f64 / self.successes as f64
    }

    /// Fraction of all extractions that are fingerprintable (the paper's
    /// 83% across both cohorts).
    pub fn fingerprintable_fraction(&self) -> f64 {
        if self.total_extractions == 0 {
            return 0.0;
        }
        self.fingerprintable_extractions as f64 / self.total_extractions as f64
    }

    /// Computes prevalence from successful-site detections plus the
    /// attempted-site total.
    pub fn compute(detections: &[SiteDetection], sites_crawled: usize) -> Prevalence {
        let mut acc = PrevalenceAccumulator::default();
        for d in detections {
            acc.absorb(d);
        }
        acc.finish(sites_crawled)
    }
}

/// Streaming fold for [`Prevalence`]: absorbs one detection at a time,
/// in any order, and finishes into the exact batch result. The per-fingerprinting-site canvas counts are held
/// as a histogram (count → sites), so memory is bounded by the number of
/// *distinct* canvas counts, not the number of sites.
#[derive(Debug, Clone, Default)]
pub struct PrevalenceAccumulator {
    successes: usize,
    fingerprinting_sites: usize,
    fully_excluded_sites: usize,
    total_extractions: usize,
    fingerprintable_extractions: usize,
    excluded_by_reason: (usize, usize, usize),
    lossy_probe_sites: usize,
    small_canvas_sites: usize,
    /// Canvases-per-fingerprinting-site histogram: canvas count → sites.
    canvas_histogram: BTreeMap<usize, usize>,
}

impl PrevalenceAccumulator {
    /// Folds one successful-site detection into the accumulator.
    pub fn absorb(&mut self, d: &SiteDetection) {
        self.successes += 1;
        self.total_extractions += d.canvases.len() + d.excluded.len();
        self.fingerprintable_extractions += d.canvases.len();
        if d.is_fingerprinting() {
            self.fingerprinting_sites += 1;
            *self.canvas_histogram.entry(d.canvases.len()).or_insert(0) += 1;
        } else if d.is_fully_excluded() {
            self.fully_excluded_sites += 1;
        }
        let mut lossy_here = false;
        let mut small_here = false;
        for (reason, _) in &d.excluded {
            match reason {
                ExclusionReason::LossyFormat => {
                    self.excluded_by_reason.0 += 1;
                    lossy_here = true;
                }
                ExclusionReason::TooSmall => {
                    self.excluded_by_reason.1 += 1;
                    small_here = true;
                }
                ExclusionReason::AnimationScript => self.excluded_by_reason.2 += 1,
            }
        }
        if lossy_here {
            self.lossy_probe_sites += 1;
        }
        if small_here {
            self.small_canvas_sites += 1;
        }
    }

    /// Finalizes into [`Prevalence`]. The mean is the exact integer sum
    /// Σ(count·sites) divided once, and the median walks the histogram to
    /// zero-based index `len/2` — both byte-identical to sorting the full
    /// per-site vector as the batch path used to.
    pub fn finish(&self, sites_crawled: usize) -> Prevalence {
        let mut p = Prevalence {
            sites_crawled,
            successes: self.successes,
            fingerprinting_sites: self.fingerprinting_sites,
            fully_excluded_sites: self.fully_excluded_sites,
            total_extractions: self.total_extractions,
            fingerprintable_extractions: self.fingerprintable_extractions,
            excluded_by_reason: self.excluded_by_reason,
            lossy_probe_sites: self.lossy_probe_sites,
            small_canvas_sites: self.small_canvas_sites,
            mean_canvases: 0.0,
            median_canvases: 0,
            max_canvases: 0,
        };
        let len: usize = self.canvas_histogram.values().sum();
        if len > 0 {
            let total: usize = self
                .canvas_histogram
                .iter()
                .map(|(&count, &sites)| count * sites)
                .sum();
            p.mean_canvases = total as f64 / len as f64;
            let mut cumulative = 0;
            for (&count, &sites) in &self.canvas_histogram {
                cumulative += sites;
                if cumulative > len / 2 {
                    p.median_canvases = count;
                    break;
                }
            }
            p.max_canvases = self
                .canvas_histogram
                .keys()
                .next_back()
                .copied()
                .unwrap_or(0);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::FpCanvas;
    use canvassing_net::{Party, Url};

    fn fp_site(host: &str, n: usize) -> SiteDetection {
        SiteDetection {
            site: host.into(),
            canvases: (0..n)
                .map(|i| FpCanvas {
                    site: host.into(),
                    data_url: format!("data:{i}"),
                    hash: i as u64,
                    script_url: Url::https("s.net", "/f.js"),
                    inline: false,
                    party: Party::ThirdParty,
                    cname_cloaked: false,
                    cdn: false,
                    width: 100,
                    height: 100,
                })
                .collect(),
            excluded: vec![],
            double_render_check: false,
        }
    }

    fn excluded_site(host: &str, reason: ExclusionReason) -> SiteDetection {
        SiteDetection {
            site: host.into(),
            canvases: vec![],
            excluded: vec![(reason, "https://x.com/s.js".into())],
            double_render_check: false,
        }
    }

    #[test]
    fn rates_and_central_tendency() {
        let detections = vec![
            fp_site("a.com", 1),
            fp_site("b.com", 2),
            fp_site("c.com", 9),
            excluded_site("d.com", ExclusionReason::LossyFormat),
            SiteDetection::default(),
        ];
        let p = Prevalence::compute(&detections, 10);
        assert_eq!(p.sites_crawled, 10);
        assert_eq!(p.successes, 5);
        assert_eq!(p.fingerprinting_sites, 3);
        assert_eq!(p.fully_excluded_sites, 1);
        assert!((p.fingerprinting_rate() - 0.6).abs() < 1e-9);
        assert!((p.mean_canvases - 4.0).abs() < 1e-9);
        assert_eq!(p.median_canvases, 2);
        assert_eq!(p.max_canvases, 9);
        assert_eq!(p.excluded_by_reason.0, 1);
        assert_eq!(p.lossy_probe_sites, 1);
    }

    #[test]
    fn fingerprintable_fraction() {
        let detections = vec![
            fp_site("a.com", 4),
            excluded_site("d.com", ExclusionReason::TooSmall),
        ];
        let p = Prevalence::compute(&detections, 2);
        assert!((p.fingerprintable_fraction() - 0.8).abs() < 1e-9);
        assert_eq!(p.small_canvas_sites, 1);
    }

    #[test]
    fn empty_cohort_is_all_zeroes() {
        let p = Prevalence::compute(&[], 0);
        assert_eq!(p.fingerprinting_rate(), 0.0);
        assert_eq!(p.fingerprintable_fraction(), 0.0);
    }

    #[test]
    fn accumulator_merge_matches_batch_compute() {
        let detections = vec![
            fp_site("a.com", 1),
            fp_site("b.com", 2),
            fp_site("c.com", 9),
            fp_site("e.com", 2),
            excluded_site("d.com", ExclusionReason::LossyFormat),
            excluded_site("f.com", ExclusionReason::TooSmall),
            SiteDetection::default(),
        ];
        let batch = Prevalence::compute(&detections, 12);
        // Absorbing in reversed order finishes into the batch result.
        let mut acc = PrevalenceAccumulator::default();
        for d in detections.iter().rev() {
            acc.absorb(d);
        }
        let streamed = acc.finish(12);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
    }
}
