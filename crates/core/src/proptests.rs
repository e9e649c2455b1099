//! Property tests on the analysis invariants. Each property is a seeded
//! LCG loop over [`CASES`] generated cohorts, so a failure replays
//! exactly from its case number, and each asserts that its generator
//! reached the shapes the invariant can break on.

#![cfg(test)]

use std::collections::BTreeSet;

use canvassing_net::{Party, Url};

use crate::cluster::{Clustering, OverlapStats};
use crate::detect::{ExclusionReason, FpCanvas, SiteDetection};
use crate::prevalence::Prevalence;

/// Cases per property.
const CASES: u64 = 256;

/// Distinct canvases a generated cohort draws from: few enough that
/// sites share canvases in almost every case.
const CANVAS_IDS: usize = 24;

const REASONS: [ExclusionReason; 3] = [
    ExclusionReason::LossyFormat,
    ExclusionReason::TooSmall,
    ExclusionReason::AnimationScript,
];

/// Deterministic 64-bit LCG (Knuth MMIX constants, as in the other
/// seeded sweeps).
struct Lcg(u64);

impl Lcg {
    /// The generator for one case of one property.
    fn case(property: u64, case: u64) -> Lcg {
        Lcg(((property << 32) | case) ^ 0x9e3779b97f4a7c15)
    }

    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as usize
    }

    /// A cohort of 0–29 site detections. Each site renders 0–4
    /// fingerprintable canvases drawn from [`CANVAS_IDS`] shared ids (a
    /// site may repeat one) and 0–2 excluded extractions, each reason
    /// equally likely; so sites fingerprint, are fully excluded, or stay
    /// silent.
    fn detections(&mut self, tag: &str) -> Vec<SiteDetection> {
        (0..self.below(30))
            .map(|i| {
                let site = format!("{tag}{i}.example");
                let canvases = (0..self.below(5))
                    .map(|_| {
                        let id = self.below(CANVAS_IDS);
                        FpCanvas {
                            site: site.clone(),
                            data_url: format!("data:canvas-{id}"),
                            hash: id as u64,
                            script_url: Url::https("s.example", "/f.js"),
                            inline: false,
                            party: Party::ThirdParty,
                            cname_cloaked: false,
                            cdn: false,
                            width: 100,
                            height: 100,
                        }
                    })
                    .collect();
                let excluded = (0..self.below(3))
                    .map(|_| {
                        let reason = REASONS[self.below(REASONS.len())];
                        (reason, format!("data:excluded-{}", self.below(CANVAS_IDS)))
                    })
                    .collect();
                SiteDetection {
                    site,
                    canvases,
                    excluded,
                    double_render_check: false,
                }
            })
            .collect()
    }
}

/// Clustering conservation laws: every observation lands in exactly one
/// cluster; distinct canvases = distinct clusters; cluster order is
/// non-increasing by site count.
#[test]
fn clustering_invariants() {
    let mut shared = 0;
    for case in 0..CASES {
        let detections = Lcg::case(1, case).detections("site");
        let clustering = Clustering::build(detections.iter());
        let total_obs: usize = detections.iter().map(|d| d.canvases.len()).sum();
        let clustered_obs: usize = clustering.clusters.iter().map(|c| c.extractions).sum();
        assert_eq!(total_obs, clustered_obs, "case {case}");

        let distinct: BTreeSet<&str> = detections
            .iter()
            .flat_map(|d| d.canvases.iter().map(|c| c.data_url.as_str()))
            .collect();
        assert_eq!(clustering.unique_canvases(), distinct.len(), "case {case}");

        for pair in clustering.clusters.windows(2) {
            assert!(pair[0].site_count() >= pair[1].site_count(), "case {case}");
        }

        // Top-k coverage is monotone in k and bounded by the site total.
        let all = clustering.all_sites().len();
        let mut prev = 0;
        for k in 0..=clustering.unique_canvases() {
            let covered = clustering.sites_covered_by_top(k);
            assert!(covered >= prev, "case {case}: top-{k}");
            assert!(covered <= all, "case {case}: top-{k}");
            prev = covered;
        }
        assert_eq!(prev, all, "case {case}");
        if clustering
            .clusters
            .first()
            .is_some_and(|c| c.site_count() > 1)
        {
            shared += 1;
        }
    }
    assert!(
        shared > CASES / 2,
        "only {shared} cases share a canvas across sites"
    );
}

/// Overlap stats: sharing fraction is a probability, sharing tail sites
/// are tail sites, and tail-only cluster sizes are sorted largest first.
#[test]
fn overlap_invariants() {
    let (mut sharing, mut tail_only) = (0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(2, case);
        let popular = rng.detections("popular");
        let tail = rng.detections("tail");
        let pc = Clustering::build(popular.iter());
        let tc = Clustering::build(tail.iter());
        let o = OverlapStats::compute(&pc, &tc);
        let f = o.sharing_fraction();
        assert!((0.0..=1.0).contains(&f), "case {case}: fraction {f}");
        assert!(o.tail_sites_sharing <= o.tail_sites_total, "case {case}");
        for pair in o.tail_only_cluster_sizes.windows(2) {
            assert!(pair[0] >= pair[1], "case {case}");
        }
        sharing += usize::from(o.tail_sites_sharing > 0);
        tail_only += usize::from(!o.tail_only_cluster_sizes.is_empty());
    }
    assert!(
        sharing > 150,
        "only {sharing} cases share canvases across cohorts"
    );
    assert!(
        tail_only > 150,
        "only {tail_only} cases have tail-only clusters"
    );
}

/// Prevalence bookkeeping: sites partition into fingerprinting,
/// fully-excluded, and silent; extraction counts add up per reason; the
/// per-reason site counts match the detections.
#[test]
fn prevalence_invariants() {
    let mut fully_excluded = 0;
    let mut per_reason = [0usize; 3];
    for case in 0..CASES {
        let detections = Lcg::case(3, case).detections("site");
        let attempted = detections.len() + 5;
        let p = Prevalence::compute(&detections, attempted);
        assert_eq!(p.successes, detections.len(), "case {case}");
        let silent = detections
            .iter()
            .filter(|d| d.canvases.is_empty() && d.excluded.is_empty())
            .count();
        assert_eq!(
            p.fingerprinting_sites + p.fully_excluded_sites + silent,
            p.successes,
            "case {case}: sites must partition"
        );
        assert_eq!(
            p.total_extractions,
            p.fingerprintable_extractions
                + p.excluded_by_reason.0
                + p.excluded_by_reason.1
                + p.excluded_by_reason.2,
            "case {case}"
        );
        let sites_with = |reason: ExclusionReason| {
            detections
                .iter()
                .filter(|d| d.excluded.iter().any(|(r, _)| *r == reason))
                .count()
        };
        assert_eq!(
            p.lossy_probe_sites,
            sites_with(ExclusionReason::LossyFormat),
            "case {case}"
        );
        assert_eq!(
            p.small_canvas_sites,
            sites_with(ExclusionReason::TooSmall),
            "case {case}"
        );
        let rate = p.fingerprinting_rate();
        assert!((0.0..=1.0).contains(&rate), "case {case}: rate {rate}");
        if p.fingerprinting_sites > 0 {
            assert!(p.mean_canvases >= 1.0, "case {case}");
            assert!(p.max_canvases >= p.median_canvases, "case {case}");
        }
        fully_excluded += usize::from(p.fully_excluded_sites > 0);
        let reasons = p.excluded_by_reason;
        for (seen, count) in per_reason.iter_mut().zip([reasons.0, reasons.1, reasons.2]) {
            *seen += usize::from(count > 0);
        }
    }
    assert!(
        fully_excluded > 150,
        "only {fully_excluded} cases have fully-excluded sites"
    );
    assert!(
        per_reason.iter().all(|&n| n > 150),
        "cases excluding each reason: {per_reason:?}"
    );
}
