//! Failure-bias accounting for prevalence estimates.
//!
//! The paper's prevalence numbers (§4.1) condition on *successfully
//! crawled* sites — the 12.7% / 9.9% rates silently assume failed sites
//! fingerprint at the same rate as crawled ones. That assumption is
//! untestable from the data, but its worst case is boundable: every site
//! the crawl lost either fingerprints or it doesn't. This module makes
//! the conditioning explicit with three estimators over the fidelity
//! tiers ([`VisitFidelity`]):
//!
//! * **strict** — fingerprinting rate among `Full` visits only (what the
//!   paper reports);
//! * **salvage-inclusive** — adds `StaticSalvage` sites whose fetched
//!   scripts the static classifier (PR 3) flags, over `Full +
//!   StaticSalvage` — recovering signal from visits that died
//!   mid-pipeline;
//! * **worst-case interval** — over the whole site population, the
//!   prevalence if *no* undetermined site fingerprints (`bias_low`)
//!   versus if *all* of them do (`bias_high`). A salvaged site with no
//!   flagged script stays undetermined in the upper bound: the
//!   fingerprinting script may simply not have been fetched before the
//!   visit died.
//!
//! The interval brackets the fault-free ground truth by construction:
//! confirmed fingerprinters are real (planned faults never fabricate a
//! canvas extraction), and everything unconfirmed is free to go either
//! way.

use std::collections::BTreeMap;

use canvassing_browser::Verdict;
use canvassing_crawler::{CrawlDataset, SiteOutcome, SiteRecord, VisitFidelity};
use serde::{Deserialize, Serialize};

use crate::detect::SiteDetection;

/// Per-fidelity-tier site counts plus the fingerprinting evidence each
/// tier contributes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BiasAccounting {
    /// Total sites attempted (all tiers sum to this).
    pub population: usize,
    /// Sites per fidelity tier (every tier present, zero-filled).
    pub tiers: BTreeMap<VisitFidelity, usize>,
    /// `Full` sites the dynamic detector flags as fingerprinting.
    pub full_fingerprinting: usize,
    /// `StaticSalvage` sites with at least one fetched script the static
    /// classifier flags as fingerprinting.
    pub salvage_fingerprinting: usize,
}

impl BiasAccounting {
    /// Computes the accounting for one cohort. `detections` must be the
    /// per-site detections of the dataset's successful visits (the same
    /// slice [`crate::prevalence::Prevalence::compute`] consumes).
    pub fn compute(dataset: &CrawlDataset, detections: &[SiteDetection]) -> BiasAccounting {
        let mut acc = BiasAccounting::empty();
        let mut det = detections.iter();
        for record in &dataset.records {
            let d = match &record.outcome {
                SiteOutcome::Success(_) => det.next(),
                SiteOutcome::Failure(_) => None,
            };
            acc.absorb(record, d);
        }
        acc
    }

    /// An accumulator with every fidelity tier present and zero-filled —
    /// the streaming-path starting point.
    pub fn empty() -> BiasAccounting {
        BiasAccounting {
            population: 0,
            tiers: VisitFidelity::all().iter().map(|&t| (t, 0)).collect(),
            full_fingerprinting: 0,
            salvage_fingerprinting: 0,
        }
    }

    /// Folds one site record into the accounting. `detection` must be the
    /// record's detection when the visit succeeded (and is ignored for
    /// failures).
    pub fn absorb(&mut self, record: &SiteRecord, detection: Option<&SiteDetection>) {
        self.population += 1;
        *self.tiers.entry(record.fidelity()).or_insert(0) += 1;
        match &record.outcome {
            SiteOutcome::Success(_) => {
                if detection.is_some_and(|d| d.is_fingerprinting()) {
                    self.full_fingerprinting += 1;
                }
            }
            SiteOutcome::Failure(failure) => {
                if let Some(partial) = &failure.salvage {
                    if partial
                        .scripts
                        .iter()
                        .any(|s| matches!(s.verdict, Some(Verdict::Fingerprinting { .. })))
                    {
                        self.salvage_fingerprinting += 1;
                    }
                }
            }
        }
    }

    fn tier(&self, t: VisitFidelity) -> usize {
        self.tiers.get(&t).copied().unwrap_or(0)
    }

    /// Sites whose fingerprinting status is confirmed positive.
    pub fn confirmed(&self) -> usize {
        self.full_fingerprinting + self.salvage_fingerprinting
    }

    /// Sites whose status the crawl could not determine: everything
    /// below `Full` except salvaged sites already confirmed positive.
    pub fn undetermined(&self) -> usize {
        self.population - self.tier(VisitFidelity::Full) - self.salvage_fingerprinting
    }

    /// The paper's estimator: fingerprinting rate among `Full` visits.
    pub fn strict_rate(&self) -> f64 {
        ratio(self.full_fingerprinting, self.tier(VisitFidelity::Full))
    }

    /// Salvage-inclusive estimator: static-classifier positives from
    /// salvaged visits join the numerator, salvaged sites the denominator.
    pub fn salvage_rate(&self) -> f64 {
        ratio(
            self.confirmed(),
            self.tier(VisitFidelity::Full) + self.tier(VisitFidelity::StaticSalvage),
        )
    }

    /// Lower bound of the worst-case interval over the whole population:
    /// no undetermined site fingerprints.
    pub fn bias_low(&self) -> f64 {
        ratio(self.confirmed(), self.population)
    }

    /// Upper bound: every undetermined site fingerprints (including
    /// salvaged sites with no flagged script — their fingerprinting
    /// script may not have been fetched).
    pub fn bias_high(&self) -> f64 {
        ratio(self.confirmed() + self.undetermined(), self.population)
    }

    /// Width of the worst-case interval — the prevalence uncertainty the
    /// crawl's failures introduce. 0 when every visit was `Full`.
    pub fn interval_width(&self) -> f64 {
        self.bias_high() - self.bias_low()
    }

    /// Whether a population-level rate (e.g. the fault-free ground truth)
    /// falls inside the worst-case interval.
    pub fn brackets(&self, rate: f64) -> bool {
        self.bias_low() - 1e-12 <= rate && rate <= self.bias_high() + 1e-12
    }
}

fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_browser::{LoadedScript, PageVisit};
    use canvassing_crawler::{FailureKind, SiteFailure, SiteOutcome, SiteRecord};
    use canvassing_net::Url;

    fn salvaged_visit(fp: bool) -> Box<PageVisit> {
        Box::new(PageVisit {
            page: Url::https("x.com", "/"),
            api_calls: vec![],
            extractions: vec![],
            scripts: vec![LoadedScript {
                url: Url::https("cdn.net", "/s.js"),
                inline: false,
                canonical_host: "cdn.net".into(),
                cname_cloaked: false,
                source_hash: 1,
                verdict: Some(if fp {
                    Verdict::Fingerprinting {
                        exfil: true,
                        double_render: false,
                    }
                } else {
                    Verdict::Benign
                }),
                error: None,
            }],
            blocked: vec![],
            consent_banner: false,
        })
    }

    fn dataset() -> CrawlDataset {
        let success = |host: &str| SiteRecord {
            url: Url::https(host, "/"),
            outcome: SiteOutcome::Success(Box::new(PageVisit {
                page: Url::https(host, "/"),
                api_calls: vec![],
                extractions: vec![],
                scripts: vec![],
                blocked: vec![],
                consent_banner: false,
            })),
        };
        let failure = |host: &str, salvage: Option<Box<PageVisit>>| SiteRecord {
            url: Url::https(host, "/"),
            outcome: SiteOutcome::Failure(SiteFailure {
                kind: FailureKind::Timeout,
                error: "t".into(),
                attempts: 1,
                salvage,
            }),
        };
        CrawlDataset {
            label: "t".into(),
            device_id: "d".into(),
            records: vec![
                success("a.com"),
                success("b.com"),
                success("c.com"),
                success("d.com"),
                failure("e.com", Some(salvaged_visit(true))),
                failure("f.com", Some(salvaged_visit(false))),
                failure("g.com", None),
                failure("h.com", None),
            ],
        }
    }

    fn detections(fp_sites: usize, total: usize) -> Vec<SiteDetection> {
        use crate::detect::FpCanvas;
        use canvassing_net::Party;
        (0..total)
            .map(|i| SiteDetection {
                site: format!("s{i}.com"),
                canvases: if i < fp_sites {
                    vec![FpCanvas {
                        site: format!("s{i}.com"),
                        data_url: "data:png".into(),
                        hash: 1,
                        script_url: Url::https("cdn.net", "/s.js"),
                        inline: false,
                        party: Party::ThirdParty,
                        cname_cloaked: false,
                        cdn: false,
                        width: 100,
                        height: 100,
                    }]
                } else {
                    vec![]
                },
                excluded: vec![],
                double_render_check: false,
            })
            .collect()
    }

    #[test]
    fn estimators_and_interval() {
        // 8 sites: 4 Full (2 fp), 1 salvaged-fp, 1 salvaged-benign,
        // 2 lost.
        let b = BiasAccounting::compute(&dataset(), &detections(2, 4));
        assert_eq!(b.population, 8);
        assert_eq!(b.tiers[&VisitFidelity::Full], 4);
        assert_eq!(b.tiers[&VisitFidelity::StaticSalvage], 2);
        assert_eq!(b.tiers[&VisitFidelity::Lost], 2);
        assert_eq!(b.full_fingerprinting, 2);
        assert_eq!(b.salvage_fingerprinting, 1);

        assert!((b.strict_rate() - 0.5).abs() < 1e-9);
        assert!((b.salvage_rate() - 0.5).abs() < 1e-9);
        // Confirmed 3 of 8; undetermined: 1 salvaged-benign + 2 lost.
        assert!((b.bias_low() - 3.0 / 8.0).abs() < 1e-9);
        assert!((b.bias_high() - 6.0 / 8.0).abs() < 1e-9);
        assert!((b.interval_width() - 3.0 / 8.0).abs() < 1e-9);
        assert!(b.brackets(0.5));
        assert!(!b.brackets(0.2));
        assert!(!b.brackets(0.9));
    }

    #[test]
    fn all_full_collapses_the_interval() {
        let ds = CrawlDataset {
            label: "t".into(),
            device_id: "d".into(),
            records: (0..4)
                .map(|i| SiteRecord {
                    url: Url::https(&format!("s{i}.com"), "/"),
                    outcome: SiteOutcome::Success(Box::new(PageVisit {
                        page: Url::https(&format!("s{i}.com"), "/"),
                        api_calls: vec![],
                        extractions: vec![],
                        scripts: vec![],
                        blocked: vec![],
                        consent_banner: false,
                    })),
                })
                .collect(),
        };
        let b = BiasAccounting::compute(&ds, &detections(1, 4));
        assert_eq!(b.interval_width(), 0.0);
        assert_eq!(b.strict_rate(), b.bias_low());
        assert_eq!(b.strict_rate(), b.bias_high());
        assert!(b.brackets(b.strict_rate()));
    }

    #[test]
    fn empty_population_is_all_zero() {
        let ds = CrawlDataset {
            label: "t".into(),
            device_id: "d".into(),
            records: vec![],
        };
        let b = BiasAccounting::compute(&ds, &[]);
        assert_eq!(b.strict_rate(), 0.0);
        assert_eq!(b.bias_high(), 0.0);
    }
}
