//! Static-vs-dynamic cross-validation.
//!
//! The crawl records two independent judgments of every script: the
//! pre-execution static triage verdict ([`canvassing_analysis::Verdict`],
//! stored on each `LoadedScript`) and the post-execution dynamic §3.2
//! detection (a [`FpCanvas`](crate::detect::FpCanvas) attributed to the
//! script's URL). This module folds the two into a per-cohort
//! [`ConfusionMatrix`] keyed by unique script body (FNV-1a hash), plus a
//! per-vendor table checking the classifier against each vendor's known
//! runtime behavior — the two detectors validate each other.

use std::collections::{BTreeMap, BTreeSet};

use canvassing_analysis::{classify, classify_merged, classify_source, Verdict};
use canvassing_browser::PageVisit;
use canvassing_crawler::CrawlDataset;
use canvassing_net::{Network, Resource, ScriptRef, Url};
use canvassing_vendors::{all_vendors, scripts};
use serde::{Deserialize, Serialize};

use crate::detect::SiteDetection;

/// A 2×2 confusion matrix over unique script bodies: static verdict
/// (rows) against dynamic detection (columns). `Inconclusive` scripts
/// are tallied separately — they abstain rather than vote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Statically `Fingerprinting`, dynamically detected.
    pub tp: usize,
    /// Statically `Fingerprinting`, dynamically silent.
    pub fp: usize,
    /// Statically `Benign`, dynamically detected.
    pub fn_: usize,
    /// Statically `Benign`, dynamically silent.
    pub tn: usize,
    /// Statically `Inconclusive` (excluded from the four cells).
    pub inconclusive: usize,
}

impl ConfusionMatrix {
    /// Adds one unique script to the matrix.
    pub fn record(&mut self, verdict: Verdict, dynamic_positive: bool) {
        if verdict == Verdict::Inconclusive {
            self.inconclusive += 1;
            return;
        }
        match (verdict.is_fingerprinting(), dynamic_positive) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Accumulates another matrix cell-by-cell (e.g. to pool cohorts).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
        self.inconclusive += other.inconclusive;
    }

    /// Unique scripts that cast a vote (everything but `Inconclusive`).
    pub fn decided(&self) -> usize {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// All unique scripts seen, including abstentions.
    pub fn total(&self) -> usize {
        self.decided() + self.inconclusive
    }

    /// TP / (TP + FP); 1.0 when the static pass never fired.
    pub fn precision(&self) -> f64 {
        Self::ratio(self.tp, self.tp + self.fp)
    }

    /// TP / (TP + FN); 1.0 when nothing fired dynamically.
    pub fn recall(&self) -> f64 {
        Self::ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// (TP + TN) / decided — raw static-dynamic agreement.
    pub fn agreement(&self) -> f64 {
        Self::ratio(self.tp + self.tn, self.decided())
    }

    fn ratio(num: usize, den: usize) -> f64 {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    }
}

/// Cross-validates one cohort's crawl: for every unique script body, the
/// static triage verdict versus whether the dynamic detector attributed a
/// fingerprintable canvas to that script's URL on any visit.
///
/// `detections` must be in [`CrawlDataset::successful`] order, one per
/// successful visit. Scripts whose body was never fetched
/// carry no verdict and are skipped — neither detector saw them.
pub fn cross_validate(dataset: &CrawlDataset, detections: &[SiteDetection]) -> ConfusionMatrix {
    let mut votes = ScriptVotes::default();
    for ((_, visit), det) in dataset.successful().zip(detections) {
        votes.absorb(visit, det);
    }
    votes.finish()
}

/// Streaming fold for [`cross_validate`]: per unique script body, the
/// static verdict and whether the dynamic detector fired anywhere. The
/// verdict is a pure function of the body (any occurrence serves) and the
/// dynamic bit ORs across sites, so absorb order never changes the
/// finished matrix.
#[derive(Debug, Clone, Default)]
pub struct ScriptVotes {
    /// hash → (static verdict, dynamically detected anywhere).
    votes: BTreeMap<u64, (Verdict, bool)>,
}

impl ScriptVotes {
    /// Folds one successful visit and its detection into the vote map.
    pub fn absorb(&mut self, visit: &PageVisit, det: &SiteDetection) {
        let fired: BTreeSet<&Url> = det.canvases.iter().map(|c| &c.script_url).collect();
        for script in &visit.scripts {
            let Some(verdict) = script.verdict else {
                continue;
            };
            let entry = self
                .votes
                .entry(script.source_hash)
                .or_insert((verdict, false));
            entry.1 |= fired.contains(&script.url);
        }
    }

    /// Unique script bodies voted so far.
    pub fn unique_scripts(&self) -> usize {
        self.votes.len()
    }

    /// Finalizes the vote map into a [`ConfusionMatrix`].
    pub fn finish(&self) -> ConfusionMatrix {
        let mut matrix = ConfusionMatrix::default();
        for (verdict, dynamic_positive) in self.votes.values() {
            matrix.record(*verdict, *dynamic_positive);
        }
        matrix
    }
}

/// Per-cohort summary of the bytecode second engine: how many unique
/// script bodies the AST pass left `Inconclusive`, how many of those the
/// bytecode abstract interpreter resolved (and to what), recovery on the
/// ground-truth seeded evasion corpus, and aggregate statistics from the
/// bytecode verifier run over every compiled body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BytecodeTriageStats {
    /// Unique script bodies reachable from the cohort's frontier.
    pub unique_bodies: usize,
    /// Bodies the AST engine left `Inconclusive` (including parse
    /// failures, which neither engine can judge).
    pub ast_inconclusive: usize,
    /// AST-inconclusive bodies the merged cascade resolved decisively.
    pub recovered: usize,
    /// Recovered bodies whose resolved verdict is `Fingerprinting`.
    pub recovered_fingerprinting: usize,
    /// Bodies carrying a ground-truth `evasive:` provenance label.
    pub evasive_bodies: usize,
    /// Evasive bodies recovered to a decisive verdict.
    pub evasive_recovered: usize,
    /// Chunks accepted by the bytecode verifier.
    pub verified_chunks: usize,
    /// Instructions checked by the verifier.
    pub verified_insns: usize,
    /// Peak verified operand-stack depth across all bodies.
    pub verifier_max_stack: u32,
    /// Compiled bodies the verifier rejected (always 0 in a healthy
    /// build: compile output is verified-by-construction).
    pub verifier_rejections: usize,
}

/// Runs the second-engine triage over every unique script body reachable
/// from a cohort's frontier pages (inline bundles plus externally served
/// scripts), deduplicated by FNV-1a body hash exactly like the crawl's
/// analysis cache.
///
/// This is a corpus-side validation pass, like [`vendor_static_rows`]:
/// it may read ground-truth provenance labels (`evasive:`), which the
/// crawl-side analyses never see.
pub fn bytecode_triage(network: &Network, frontier: &[Url]) -> BytecodeTriageStats {
    // hash → (source, label); first sighting wins (labels agree for
    // identical bodies by construction).
    let mut bodies: BTreeMap<u64, (String, String)> = BTreeMap::new();
    for page_url in frontier {
        let Some(Resource::Page(page)) = network.peek(page_url) else {
            continue;
        };
        for r in &page.scripts {
            match r {
                ScriptRef::Inline { source, label } => {
                    bodies
                        .entry(canvassing_script::source_hash(source))
                        .or_insert_with(|| (source.clone(), label.clone()));
                }
                ScriptRef::External(url) => {
                    if let Some(Resource::Script(s)) = network.peek(url) {
                        bodies
                            .entry(canvassing_script::source_hash(&s.source))
                            .or_insert_with(|| (s.source.clone(), s.label.clone()));
                    }
                }
            }
        }
    }

    let mut stats = BytecodeTriageStats::default();
    for (source, label) in bodies.values() {
        stats.unique_bodies += 1;
        let evasive = label.starts_with("evasive:");
        if evasive {
            stats.evasive_bodies += 1;
        }
        let Ok(program) = canvassing_script::parse(source) else {
            stats.ast_inconclusive += 1;
            continue;
        };
        if classify(&program).verdict == Verdict::Inconclusive {
            stats.ast_inconclusive += 1;
            let merged = classify_merged(&program).verdict;
            if merged != Verdict::Inconclusive {
                stats.recovered += 1;
                if merged.is_fingerprinting() {
                    stats.recovered_fingerprinting += 1;
                }
                if evasive {
                    stats.evasive_recovered += 1;
                }
            }
        }
        let compiled = canvassing_script::compile(&program);
        match canvassing_script::verify(&compiled) {
            Ok(v) => {
                stats.verified_chunks += v.chunks;
                stats.verified_insns += v.insns;
                stats.verifier_max_stack = stats.verifier_max_stack.max(v.max_stack);
            }
            Err(_) => stats.verifier_rejections += 1,
        }
    }
    stats
}

/// One per-vendor cross-validation row: the static verdict on the
/// vendor's script body against the vendor's known runtime behavior
/// (every modeled vendor fingerprints dynamically; `double_render` comes
/// from its metadata).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VendorStaticRow {
    /// Vendor display name.
    pub name: String,
    /// Static verdict on the vendor's script.
    pub verdict: Verdict,
    /// True positive: the static pass calls the script fingerprinting.
    pub true_positive: bool,
    /// Whether the static §5.3 double-render flag matches the vendor's
    /// metadata (its actual runtime behavior).
    pub double_render_agrees: bool,
}

/// Classifies every modeled vendor script statically and scores it
/// against the vendor's metadata.
pub fn vendor_static_rows() -> Vec<VendorStaticRow> {
    all_vendors()
        .iter()
        .map(|v| {
            let source = scripts::source(v.id, &scripts::site_token("validation.example"), false);
            let verdict = classify_source(&source).verdict;
            let static_double = matches!(
                verdict,
                Verdict::Fingerprinting {
                    double_render: true,
                    ..
                }
            );
            VendorStaticRow {
                name: v.name.to_string(),
                verdict,
                true_positive: verdict.is_fingerprinting(),
                double_render_agrees: static_double == v.double_render,
            }
        })
        .collect()
}

/// Short report label for a verdict.
pub fn verdict_label(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Fingerprinting {
            exfil: true,
            double_render: true,
        } => "fingerprinting (exfil, double-render)",
        Verdict::Fingerprinting {
            exfil: true,
            double_render: false,
        } => "fingerprinting (exfil)",
        Verdict::Fingerprinting {
            exfil: false,
            double_render: true,
        } => "fingerprinting (double-render)",
        Verdict::Fingerprinting {
            exfil: false,
            double_render: false,
        } => "fingerprinting",
        Verdict::Benign => "benign",
        Verdict::Inconclusive => "inconclusive",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_rates_handle_empty_and_full_cells() {
        let mut m = ConfusionMatrix::default();
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
        m.record(
            Verdict::Fingerprinting {
                exfil: true,
                double_render: false,
            },
            true,
        );
        m.record(Verdict::Benign, false);
        m.record(Verdict::Inconclusive, true);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn, m.inconclusive), (1, 0, 0, 1, 1));
        assert_eq!(m.decided(), 2);
        assert_eq!(m.total(), 3);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.agreement(), 1.0);
        m.record(Verdict::Benign, true); // a miss
        assert!(m.recall() < 1.0);
        assert!(m.f1() < 1.0);
    }

    #[test]
    fn bytecode_triage_recovers_an_evasive_inline_body() {
        use canvassing_net::{PageResource, ScriptResource};
        let mut network = Network::new();
        let script_url = Url::https("cdn.test", "/benign.js");
        network.host(
            &script_url,
            Resource::Script(ScriptResource {
                source: canvassing_vendors::benign::source(
                    canvassing_vendors::benign::BenignKind::SmallBadge,
                    1,
                ),
                label: "badge".into(),
            }),
        );
        let page = Url::https("site.test", "/");
        network.host(
            &page,
            Resource::Page(PageResource {
                scripts: vec![
                    ScriptRef::Inline {
                        source: canvassing_webgen::evasive_script(0),
                        label: canvassing_webgen::evasion_label(0),
                    },
                    ScriptRef::External(script_url),
                ],
                consent_banner: false,
                bot_check: false,
            }),
        );
        let stats = bytecode_triage(&network, &[page]);
        assert_eq!(stats.unique_bodies, 2);
        assert_eq!(stats.evasive_bodies, 1);
        assert_eq!(stats.ast_inconclusive, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.recovered_fingerprinting, 1);
        assert_eq!(stats.evasive_recovered, 1);
        assert!(stats.verified_chunks >= 2, "{stats:?}");
        assert!(stats.verified_insns > 0);
        assert!(stats.verifier_max_stack > 0);
        assert_eq!(stats.verifier_rejections, 0);
    }

    #[test]
    fn every_vendor_row_is_a_true_positive_with_matching_double_render() {
        let rows = vendor_static_rows();
        assert_eq!(rows.len(), all_vendors().len());
        for row in rows {
            assert!(row.true_positive, "{}: {:?}", row.name, row.verdict);
            assert!(row.double_render_agrees, "{}: {:?}", row.name, row.verdict);
        }
    }
}
