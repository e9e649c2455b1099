//! Constant-memory cohort aggregation: every study runner turns a
//! cohort's crawl records into its [`CohortAnalysis`] through this one
//! fold.
//!
//! Holding every [`SiteRecord`] before computing the cohort's statistics
//! would keep gigabytes of visit data live at scale 25.0 (1M sites).
//! [`CohortAccumulator`] folds each record into bounded state as it
//! streams off the scheduler instead:
//!
//! * prevalence scalars plus a canvases-per-site **histogram** (not the
//!   per-site vector);
//! * a cluster map keyed by canvas bytes;
//! * evasion / blocklist-coverage counters;
//! * the static-vs-dynamic vote map keyed by unique script body;
//! * fidelity-tier bias accounting;
//! * only the **fingerprinting-site** detections are retained (for
//!   attribution and Table 2), keyed by site — roughly a tenth of the
//!   stream, carrying canvases rather than full visits.
//!
//! `absorb` is commutative up to the record stream being a set of
//! distinct sites: any fold order reaches the same state (gated by the
//! seeded sweep below and by `tests/streaming_equivalence.rs` at study
//! level), so the streamed study and the supervised study, which folds
//! its merged dataset, agree. Each component is the streaming form of a
//! slice helper over a materialized dataset
//! ([`Prevalence::compute`](crate::prevalence::Prevalence::compute),
//! [`Clustering::build`](crate::cluster::Clustering::build), ...); the
//! test below holds the two forms equal.

use std::collections::BTreeMap;

use canvassing_blocklist::{DisconnectList, FilterList};
use canvassing_crawler::{CrawlStats, FailureKind, SiteOutcome, SiteRecord};
use canvassing_webgen::Cohort;

use crate::bias::BiasAccounting;
use crate::blocklist_coverage::CoverageCounts;
use crate::cluster::ClusterAccumulator;
use crate::detect::{detect, SiteDetection};
use crate::evasion::EvasionStats;
use crate::prevalence::PrevalenceAccumulator;
use crate::study::CohortAnalysis;
use crate::validation::{BytecodeTriageStats, ScriptVotes};

/// Streaming cohort state: everything [`CohortAnalysis`] needs, foldable
/// one record at a time.
#[derive(Debug, Clone)]
pub struct CohortAccumulator {
    attempted: usize,
    failures: BTreeMap<FailureKind, usize>,
    prevalence: PrevalenceAccumulator,
    clusters: ClusterAccumulator,
    evasion: EvasionStats,
    coverage: CoverageCounts,
    votes: ScriptVotes,
    bias: BiasAccounting,
    /// Fingerprinting-site detections, keyed by site. Downstream
    /// consumers of `CohortAnalysis::detections` (attribution, Table 2
    /// counts) are insensitive to both this projection (non-fingerprinting
    /// detections carry no canvases) and the site ordering.
    retained: BTreeMap<String, SiteDetection>,
}

impl Default for CohortAccumulator {
    fn default() -> Self {
        CohortAccumulator::new()
    }
}

impl CohortAccumulator {
    /// An empty accumulator (fidelity tiers pre-zeroed).
    pub fn new() -> CohortAccumulator {
        CohortAccumulator {
            attempted: 0,
            failures: BTreeMap::new(),
            prevalence: PrevalenceAccumulator::default(),
            clusters: ClusterAccumulator::default(),
            evasion: EvasionStats::default(),
            coverage: CoverageCounts::default(),
            votes: ScriptVotes::default(),
            bias: BiasAccounting::empty(),
            retained: BTreeMap::new(),
        }
    }

    /// Folds one site record into the cohort state. The record can be
    /// dropped immediately afterwards — nothing keeps a reference.
    pub fn absorb(
        &mut self,
        record: &SiteRecord,
        easylist: &FilterList,
        easyprivacy: &FilterList,
        disconnect: &DisconnectList,
    ) {
        self.attempted += 1;
        match &record.outcome {
            SiteOutcome::Success(visit) => {
                let det = detect(visit);
                self.prevalence.absorb(&det);
                self.clusters.absorb(&det);
                self.evasion.absorb(&det);
                self.coverage
                    .absorb(&det, easylist, easyprivacy, disconnect);
                self.votes.absorb(visit, &det);
                self.bias.absorb(record, Some(&det));
                if det.is_fingerprinting() {
                    self.retained.insert(det.site.clone(), det);
                }
            }
            SiteOutcome::Failure(failure) => {
                *self.failures.entry(failure.kind).or_insert(0) += 1;
                self.bias.absorb(record, None);
            }
        }
    }

    /// Records absorbed so far.
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Finalizes into a [`CohortAnalysis`]. `perf` and `bytecode` are
    /// zeroed — they come from the crawl scheduler and the corpus pass,
    /// not the record stream — and `detections` holds the retained
    /// fingerprinting-site projection in site order.
    pub fn finish(&self, cohort: Cohort) -> CohortAnalysis {
        CohortAnalysis {
            cohort,
            attempted: self.attempted,
            detections: self.retained.values().cloned().collect(),
            clustering: self.clusters.finish(),
            prevalence: self.prevalence.finish(self.attempted),
            evasion: self.evasion.clone(),
            coverage: self.coverage.clone(),
            failures: self.failures.clone(),
            bias: self.bias.clone(),
            static_dynamic: self.votes.finish(),
            perf: CrawlStats::default(),
            bytecode: BytecodeTriageStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocklist_coverage::coverage;
    use crate::cluster::Clustering;
    use crate::prevalence::Prevalence;
    use crate::validation::cross_validate;
    use canvassing_crawler::{crawl, CrawlConfig, CrawlDataset, RetryPolicy};
    use canvassing_net::FaultMatrix;
    use canvassing_webgen::{SyntheticWeb, WebConfig};

    /// Deterministic 64-bit LCG (Knuth MMIX constants) so the sweep
    /// replays exactly from its literal seed.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// A record pool with the full outcome mix: successes (some
    /// fingerprinting), typed failures, and salvaged visits.
    fn record_pool() -> (SyntheticWeb, Vec<SiteRecord>, CrawlConfig) {
        let mut web = SyntheticWeb::generate(WebConfig {
            seed: 11,
            scale: 0.02,
        });
        let mut frontier = web.frontier(Cohort::Popular);
        frontier.truncate(72);
        let targets: Vec<String> = frontier
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, u)| u.host.clone())
            .collect();
        FaultMatrix::new(7).inject_all(&mut web.network.faults, targets.iter().map(|h| h.as_str()));
        let mut config = CrawlConfig::control();
        config.workers = 4;
        config.retry = RetryPolicy::retries(1);
        let dataset = crawl(&web.network, &frontier, &config);
        (web, dataset.records, config)
    }

    fn absorb_all(records: &[&SiteRecord], web: &SyntheticWeb) -> CohortAccumulator {
        let easylist = FilterList::parse("EasyList", &web.lists.easylist);
        let easyprivacy = FilterList::parse("EasyPrivacy", &web.lists.easyprivacy);
        let disconnect = DisconnectList::parse(&web.lists.disconnect);
        let mut acc = CohortAccumulator::new();
        for r in records {
            acc.absorb(r, &easylist, &easyprivacy, &disconnect);
        }
        acc
    }

    fn fingerprint(acc: &CohortAccumulator) -> String {
        serde_json::to_string(&acc.finish(Cohort::Popular)).unwrap()
    }

    /// The accumulator reproduces the batch slice helpers over the
    /// materialized dataset exactly, apart from `detections` holding only
    /// the fingerprinting sites (compared here as a set against the batch
    /// projection).
    #[test]
    fn finish_matches_batch_analyze_cohort() {
        let (web, records, config) = record_pool();
        let easylist = FilterList::parse("EasyList", &web.lists.easylist);
        let easyprivacy = FilterList::parse("EasyPrivacy", &web.lists.easyprivacy);
        let disconnect = DisconnectList::parse(&web.lists.disconnect);
        let dataset = CrawlDataset {
            label: config.label.clone(),
            device_id: config.device.id.clone(),
            records: records.clone(),
        };
        let detections: Vec<SiteDetection> = dataset
            .successful()
            .map(|(_, visit)| detect(visit))
            .collect();
        let batch = CohortAnalysis {
            cohort: Cohort::Popular,
            attempted: dataset.records.len(),
            clustering: Clustering::build(detections.iter()),
            prevalence: Prevalence::compute(&detections, dataset.records.len()),
            evasion: EvasionStats::compute(&detections),
            coverage: coverage(&detections, &easylist, &easyprivacy, &disconnect),
            failures: dataset.failure_breakdown(),
            bias: BiasAccounting::compute(&dataset, &detections),
            static_dynamic: cross_validate(&dataset, &detections),
            perf: CrawlStats::default(),
            bytecode: BytecodeTriageStats::default(),
            detections,
        };
        let refs: Vec<&SiteRecord> = records.iter().collect();
        let streamed = absorb_all(&refs, &web).finish(Cohort::Popular);

        assert_eq!(streamed.attempted, batch.attempted);
        // Component-wise equality via JSON (no PartialEq on the structs).
        let eq = |a: &str, b: &str, what: &str| assert_eq!(a, b, "{what} diverged");
        eq(
            &serde_json::to_string(&streamed.clustering).unwrap(),
            &serde_json::to_string(&batch.clustering).unwrap(),
            "clustering",
        );
        eq(
            &serde_json::to_string(&streamed.prevalence).unwrap(),
            &serde_json::to_string(&batch.prevalence).unwrap(),
            "prevalence",
        );
        eq(
            &serde_json::to_string(&streamed.evasion).unwrap(),
            &serde_json::to_string(&batch.evasion).unwrap(),
            "evasion",
        );
        eq(
            &serde_json::to_string(&streamed.coverage).unwrap(),
            &serde_json::to_string(&batch.coverage).unwrap(),
            "coverage",
        );
        eq(
            &serde_json::to_string(&streamed.failures).unwrap(),
            &serde_json::to_string(&batch.failures).unwrap(),
            "failures",
        );
        eq(
            &serde_json::to_string(&streamed.bias).unwrap(),
            &serde_json::to_string(&batch.bias).unwrap(),
            "bias",
        );
        assert_eq!(streamed.static_dynamic, batch.static_dynamic);
        // Retained detections = the batch detections that fingerprint,
        // as a site-keyed set.
        let batch_fp: BTreeMap<String, String> = batch
            .detections
            .iter()
            .filter(|d| d.is_fingerprinting())
            .map(|d| (d.site.clone(), serde_json::to_string(d).unwrap()))
            .collect();
        let streamed_fp: BTreeMap<String, String> = streamed
            .detections
            .iter()
            .map(|d| (d.site.clone(), serde_json::to_string(d).unwrap()))
            .collect();
        assert_eq!(streamed_fp, batch_fp);
        assert!(!streamed_fp.is_empty(), "pool has fingerprinting sites");
    }

    /// Seeded property sweep: 400 random subsets of the pool, each
    /// absorbed once as drawn and once permuted, reach the same state —
    /// the commutativity the fold's callers rely on.
    #[test]
    fn fold_order_and_shard_partition_never_change_merged_state() {
        let (web, pool, _config) = record_pool();
        assert!(pool.len() >= 60, "pool of {} records", pool.len());
        let mut rng = Lcg(0x5EED_CA5E);
        for case in 0..400 {
            // Random subset (distinct sites, random size ≥ 1).
            let size = 1 + rng.below(pool.len());
            let mut picked: Vec<usize> = (0..pool.len()).collect();
            // Fisher–Yates prefix shuffle to pick `size` distinct indices.
            for i in 0..size {
                let j = i + rng.below(picked.len() - i);
                picked.swap(i, j);
            }
            let subset: Vec<&SiteRecord> = picked[..size].iter().map(|&i| &pool[i]).collect();

            let reference = fingerprint(&absorb_all(&subset, &web));

            // A random permutation absorbs to the same state.
            let mut permuted = subset.clone();
            for i in (1..permuted.len()).rev() {
                let j = rng.below(i + 1);
                permuted.swap(i, j);
            }
            let shuffled = fingerprint(&absorb_all(&permuted, &web));
            assert_eq!(
                shuffled, reference,
                "case {case}: permutation changed state"
            );
        }
    }
}
