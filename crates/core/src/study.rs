//! The end-to-end study pipeline: crawl → detect → cluster → attribute →
//! analyze, producing every table and figure of the paper from a
//! [`SyntheticWeb`].
//!
//! Two runners share everything downstream of the two control crawls:
//! [`run_study_streamed`] folds each control crawl into a
//! [`CohortAccumulator`] as it streams and touches no disk;
//! [`run_study_supervised`] runs them under the shard supervisor, which
//! spills segment files and merges them back, and folds the merged
//! datasets through the same accumulator. Downstream, each optional
//! re-crawl streams into one small fold on both paths, so the supervised
//! merge is the only place a study holds a crawl dataset.

use std::collections::{BTreeMap, BTreeSet};

use canvassing_blocklist::{DisconnectList, FilterList};
use canvassing_browser::AdBlockerKind;
use canvassing_crawler::{
    crawl_streamed, supervise_crawl, CrawlConfig, CrawlStats, FailureKind, FaultScript,
    SiteOutcome, SupervisionReport, SupervisorConfig,
};
use canvassing_net::Url;
use canvassing_raster::{DeviceProfile, SharedText};
use canvassing_webgen::{Cohort, SyntheticWeb};
use serde::{Deserialize, Serialize};

use crate::accumulate::CohortAccumulator;
use crate::attribution::{attribute, gather_ground_truth, AttributionResult, AttributionSources};
use crate::bias::BiasAccounting;
use crate::blocklist_coverage::CoverageCounts;
use crate::cluster::{ClusterAccumulator, Clustering, OverlapStats};
use crate::detect::{detect, SiteDetection};
use crate::evasion::EvasionStats;
use crate::figures::Figure1;
use crate::prevalence::Prevalence;
use crate::validation::{
    bytecode_triage, vendor_static_rows, verdict_label, BytecodeTriageStats, ConfusionMatrix,
    VendorStaticRow,
};

/// What to run beyond the control crawl. Every crawl a study runs
/// executes scripts on the bytecode VM; the tree-walking interpreter is a
/// test oracle only, so there is no engine to choose.
#[derive(Debug, Clone, Copy)]
pub struct StudyOptions {
    /// Crawl worker threads.
    pub workers: usize,
    /// Re-crawl with Adblock Plus and uBlock Origin (Table 2).
    pub adblock_crawls: bool,
    /// Re-crawl the popular cohort on the M1 profile and validate
    /// cross-device grouping (§3.1).
    pub m1_validation: bool,
    /// Extension experiment (E13): re-crawl the popular cohort under
    /// canvas-randomization defenses and measure the collapse of the
    /// clustering methodology (§5.3 discussion).
    pub defense_sweep: bool,
    /// Record per-visit traces on the control crawls (a counting sink, so
    /// the trace totals show up in the report's observability section).
    /// Off by default: visits then run with disabled recorders, the
    /// near-zero-overhead path.
    pub trace: bool,
}

impl Default for StudyOptions {
    fn default() -> Self {
        StudyOptions {
            workers: 8,
            adblock_crawls: true,
            m1_validation: true,
            defense_sweep: false,
            trace: false,
        }
    }
}

/// Everything measured for one cohort under one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CohortAnalysis {
    /// Which cohort.
    pub cohort: Cohort,
    /// Sites attempted.
    pub attempted: usize,
    /// Per-site detections, fingerprinting sites only, in site order
    /// (see [`CohortAccumulator`]).
    pub detections: Vec<SiteDetection>,
    /// Canvas clustering.
    pub clustering: Clustering,
    /// §4.1 prevalence.
    pub prevalence: Prevalence,
    /// §5.2/§5.3 evasion stats.
    pub evasion: EvasionStats,
    /// Table 4 coverage.
    pub coverage: CoverageCounts,
    /// §3.1 crawl-failure breakdown by typed kind.
    pub failures: BTreeMap<FailureKind, usize>,
    /// Failure-bias accounting: fidelity-tier counts and the strict /
    /// salvage-inclusive / worst-case-interval prevalence estimators.
    pub bias: BiasAccounting,
    /// Static-triage vs dynamic-detection confusion matrix over the
    /// cohort's unique script bodies.
    pub static_dynamic: ConfusionMatrix,
    /// Crawl cache-efficiency counters (parse/memo hit rates). Zeroed
    /// on the supervised path, whose re-work would perturb them.
    pub perf: CrawlStats,
    /// Second-engine (bytecode abstract interpretation) triage over the
    /// cohort's script corpus: AST-inconclusive bodies recovered, seeded
    /// evasion recovery, verifier statistics. [`CohortAccumulator::finish`]
    /// leaves it zeroed (a record stream has no corpus to enumerate); the
    /// study runners fill it in.
    pub bytecode: BytecodeTriageStats,
}

/// One Table 2 row: a crawl configuration's canvas/site counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Configuration label.
    pub label: String,
    /// Fingerprintable canvases (popular, tail).
    pub canvases: (usize, usize),
    /// Fingerprinting sites (popular, tail).
    pub sites: (usize, usize),
}

/// §3.1 cross-device validation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationResult {
    /// Whether the two devices produced different canvas bytes.
    pub canvases_differ: bool,
    /// Whether the induced site groupings agree.
    pub partitions_match: bool,
    /// Unique canvases seen on each device.
    pub unique_canvases: (usize, usize),
}

impl ValidationResult {
    /// Compares the control clustering with one from a re-crawl on
    /// another device: the canvas bytes should differ while the site
    /// groupings they induce agree.
    fn compare(intel: &Clustering, m1: &Clustering) -> ValidationResult {
        fn data_urls(c: &Clustering) -> BTreeSet<&str> {
            c.clusters.iter().map(|k| k.data_url.as_str()).collect()
        }
        ValidationResult {
            canvases_differ: data_urls(intel) != data_urls(m1),
            partitions_match: intel.site_partition() == m1.site_partition(),
            unique_canvases: (intel.unique_canvases(), m1.unique_canvases()),
        }
    }
}

/// E13 (extension): how the measurement itself degrades when the crawl
/// client randomizes canvases — one row per defense mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DefenseSweepRow {
    /// Defense label.
    pub label: String,
    /// Unique canvases observed in the popular cohort under the defense.
    pub unique_canvases: usize,
    /// Sites whose fingerprinters detected instability (double-render
    /// check failed), i.e. would discard the canvas component.
    pub unstable_sites: usize,
    /// Fingerprinting sites observed (per the §3.2 heuristics).
    pub fingerprinting_sites: usize,
}

/// Full study output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResults {
    /// Popular cohort, control configuration.
    pub popular: CohortAnalysis,
    /// Tail cohort, control configuration.
    pub tail: CohortAnalysis,
    /// Figure 1.
    pub figure1: Figure1,
    /// §4.2 overlap stats.
    pub overlap: OverlapStats,
    /// Table 1 attribution.
    pub attribution: AttributionResult,
    /// Table 2 rows (control first), empty when ad-block crawls are off.
    pub table2: Vec<Table2Row>,
    /// §3.1 validation, when run.
    pub validation: Option<ValidationResult>,
    /// Per-vendor static-classifier rows (static verdict vs the vendor's
    /// known runtime behavior).
    pub vendor_static: Vec<VendorStaticRow>,
    /// E13 defense sweep rows (control first), empty unless requested.
    pub defense_sweep: Vec<DefenseSweepRow>,
}

/// How [`run_study_streamed`] bounds memory. Spilling records to disk is
/// the shard supervisor's job ([`run_study_supervised`]).
#[derive(Debug, Clone)]
pub struct StreamingOptions {
    /// Sites in flight per scheduler chunk — the working-set bound.
    pub chunk_sites: usize,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions { chunk_sites: 512 }
    }
}

/// The tail of every control-cohort analysis, streamed or supervised:
/// finishes the fold and adds the bytecode triage of the cohort's scripts.
fn finish_cohort(
    acc: &CohortAccumulator,
    cohort: Cohort,
    web: &SyntheticWeb,
    frontier: &[Url],
) -> CohortAnalysis {
    let mut analysis = acc.finish(cohort);
    analysis.bytecode = bytecode_triage(&web.network, frontier);
    analysis
}

/// The per-cohort subdirectory of a supervised spill directory.
fn cohort_dir(cohort: Cohort) -> &'static str {
    match cohort {
        Cohort::Popular => "popular",
        Cohort::Tail => "tail",
    }
}

/// Runs the full study against a synthetic web. Every crawl streams, so
/// no crawl's visits are ever held in memory at once: the two control
/// crawls fold through [`CohortAccumulator`]s in chunks of
/// `streaming.chunk_sites`, and the optional re-crawls (Table 2, M1
/// validation, E13) fold their canvas clusters and per-site counts in
/// default-sized chunks.
///
/// The accumulator folds are exact: `CohortAnalysis::detections` keeps
/// fingerprinting sites only, and everything the report and downstream
/// analyses read is preserved (`tests/golden_report.rs` and
/// `tests/streaming_equivalence.rs` pin the rendered bytes). The study
/// touches no disk, so it never fails: the `Result` is kept only so
/// existing callers compile unchanged, and is always `Ok`.
pub fn run_study_streamed(
    web: &SyntheticWeb,
    options: &StudyOptions,
    streaming: &StreamingOptions,
) -> std::io::Result<StudyResults> {
    let easylist = FilterList::parse("EasyList", &web.lists.easylist);
    let easyprivacy = FilterList::parse("EasyPrivacy", &web.lists.easyprivacy);
    let disconnect = DisconnectList::parse(&web.lists.disconnect);

    let popular_frontier = web.frontier(Cohort::Popular);
    let tail_frontier = web.frontier(Cohort::Tail);

    let mut control = CrawlConfig::control();
    control.workers = options.workers;
    if options.trace {
        control.trace = Some(std::sync::Arc::new(canvassing_trace::CountingSink::new()));
    }

    // Memory is bounded by `chunk_sites` plus the accumulator's
    // fingerprinting-site state, never the cohort size.
    let analyze = |cohort: Cohort, frontier: &[Url]| {
        let mut acc = CohortAccumulator::new();
        let perf = crawl_streamed(
            &web.network,
            frontier,
            &control,
            &control.build_caches(),
            streaming.chunk_sites,
            |_, record| acc.absorb(&record, &easylist, &easyprivacy, &disconnect),
        );
        let mut analysis = finish_cohort(&acc, cohort, web, frontier);
        analysis.perf = perf;
        analysis
    };
    let popular = analyze(Cohort::Popular, &popular_frontier);
    let tail = analyze(Cohort::Tail, &tail_frontier);

    Ok(finish_study(
        web,
        options,
        &popular_frontier,
        &tail_frontier,
        popular,
        tail,
    ))
}

/// Per-cohort supervision accounting from [`run_study_supervised`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SupervisionSummary {
    /// Popular-cohort supervision report.
    pub popular: SupervisionReport,
    /// Tail-cohort supervision report.
    pub tail: SupervisionReport,
}

/// The study on the crash-tolerant path: both control crawls run under
/// the shard supervisor ([`supervise_crawl`]) with `faults` injected,
/// spilling leased, epoch-qualified segments under `<dir>/popular` /
/// `<dir>/tail`, then merging duplicate-safely; each merged dataset is
/// folded through a [`CohortAccumulator`] like a streamed crawl.
///
/// The [`StudyResults`] are byte-identical to [`run_study_streamed`]'s
/// for ANY fault script — crashes, stalls, duplicate launches, and
/// speculation never show up in the science — with two deliberate
/// exceptions, both perf-only: `popular.perf`/`tail.perf` stay zeroed
/// (supervised re-work would otherwise perturb cache counters by the
/// fault script), and crawl traces are not recorded (supervision
/// instants go to [`SupervisorConfig::trace`] instead).
/// `tests/supervisor_chaos.rs` gates the faults-vs-none identity.
pub fn run_study_supervised(
    web: &SyntheticWeb,
    options: &StudyOptions,
    sup: &SupervisorConfig,
    faults: &FaultScript,
    dir: &std::path::Path,
) -> std::io::Result<(StudyResults, SupervisionSummary)> {
    let easylist = FilterList::parse("EasyList", &web.lists.easylist);
    let easyprivacy = FilterList::parse("EasyPrivacy", &web.lists.easyprivacy);
    let disconnect = DisconnectList::parse(&web.lists.disconnect);

    let popular_frontier = web.frontier(Cohort::Popular);
    let tail_frontier = web.frontier(Cohort::Tail);

    let mut control = CrawlConfig::control();
    control.workers = options.workers;

    let analyze = |cohort: Cohort, frontier: &[Url]| -> std::io::Result<_> {
        let (dataset, report) = supervise_crawl(
            &web.network,
            frontier,
            &control,
            &dir.join(cohort_dir(cohort)),
            sup,
            faults,
        )?;
        let mut acc = CohortAccumulator::new();
        for record in &dataset.records {
            acc.absorb(record, &easylist, &easyprivacy, &disconnect);
        }
        Ok((finish_cohort(&acc, cohort, web, frontier), report))
    };
    let (popular, popular_sup) = analyze(Cohort::Popular, &popular_frontier)?;
    let (tail, tail_sup) = analyze(Cohort::Tail, &tail_frontier)?;

    let results = finish_study(
        web,
        options,
        &popular_frontier,
        &tail_frontier,
        popular,
        tail,
    );
    Ok((
        results,
        SupervisionSummary {
            popular: popular_sup,
            tail: tail_sup,
        },
    ))
}

/// Whether a site would fail a §5.3 stability check: one script rendered
/// two same-sized canvases with different bytes, the signature of
/// per-render randomization.
fn is_unstable(d: &SiteDetection) -> bool {
    let mut first: BTreeMap<(String, u32, u32), &SharedText> = BTreeMap::new();
    d.canvases.iter().any(|c| {
        let key = (c.script_url.to_string(), c.width, c.height);
        *first.entry(key).or_insert(&c.data_url) != &c.data_url
    })
}

/// What the study reads off a re-crawl (Table 2, the M1 validation,
/// E13): its canvas clusters and three counts over its successful visits.
#[derive(Default)]
struct RecrawlFold {
    clusters: ClusterAccumulator,
    fingerprintable_canvases: usize,
    fingerprinting_sites: usize,
    unstable_sites: usize,
}

/// Streams one re-crawl in default-sized chunks with fresh caches and
/// folds each successful visit's detection, so no re-crawl holds its
/// dataset.
fn recrawl(web: &SyntheticWeb, frontier: &[Url], config: &CrawlConfig) -> RecrawlFold {
    let mut fold = RecrawlFold::default();
    crawl_streamed(
        &web.network,
        frontier,
        config,
        &config.build_caches(),
        StreamingOptions::default().chunk_sites,
        |_, record| {
            if let SiteOutcome::Success(visit) = &record.outcome {
                let mut det = detect(visit);
                fold.clusters.absorb(&mut det);
                fold.fingerprintable_canvases += det.canvases.len();
                fold.fingerprinting_sites += usize::from(det.is_fingerprinting());
                fold.unstable_sites += usize::from(is_unstable(&det));
            }
        },
    );
    fold
}

/// Everything downstream of the two control-cohort analyses: figures,
/// attribution, the optional re-crawl experiments (each streamed through
/// [`recrawl`]), and assembly. Shared verbatim by [`run_study_streamed`]
/// and [`run_study_supervised`] so the two paths cannot drift.
fn finish_study(
    web: &SyntheticWeb,
    options: &StudyOptions,
    popular_frontier: &[Url],
    tail_frontier: &[Url],
    popular: CohortAnalysis,
    tail: CohortAnalysis,
) -> StudyResults {
    let figure1 = Figure1::build(&popular.clustering, &tail.clustering, 50);
    let overlap = OverlapStats::compute(&popular.clustering, &tail.clustering);

    // Ground truth crawls (demo pages + known customers) on the same
    // device as the main crawl.
    let sources = AttributionSources {
        demos: web.demo_pages(),
        customers: web.known_customers(),
    };
    let truth = gather_ground_truth(&web.network, &sources, &DeviceProfile::intel_ubuntu());
    let attribution = attribute(
        &web.network,
        &truth,
        &popular.detections,
        &tail.detections,
        &popular.clustering,
        &tail.clustering,
    );

    // Table 2: ad-blocker re-crawls.
    let mut table2 = vec![Table2Row {
        label: "Control".into(),
        canvases: (
            popular.prevalence.fingerprintable_extractions,
            tail.prevalence.fingerprintable_extractions,
        ),
        sites: (
            popular.prevalence.fingerprinting_sites,
            tail.prevalence.fingerprinting_sites,
        ),
    }];
    if options.adblock_crawls {
        for kind in [AdBlockerKind::AdblockPlus, AdBlockerKind::UblockOrigin] {
            let mut config = CrawlConfig::with_adblocker(kind, &web.lists.easylist);
            config.workers = options.workers;
            let p = recrawl(web, popular_frontier, &config);
            let t = recrawl(web, tail_frontier, &config);
            table2.push(Table2Row {
                label: kind.name().into(),
                canvases: (p.fingerprintable_canvases, t.fingerprintable_canvases),
                sites: (p.fingerprinting_sites, t.fingerprinting_sites),
            });
        }
    }

    // §3.1 validation: M1 re-crawl of the popular cohort.
    let validation = options.m1_validation.then(|| {
        let mut config = CrawlConfig::with_device(DeviceProfile::apple_m1());
        config.workers = options.workers;
        let m1 = recrawl(web, popular_frontier, &config).clusters.finish();
        ValidationResult::compare(&popular.clustering, &m1)
    });

    // E13 (extension): crawl the popular cohort under randomization
    // defenses and watch the clustering methodology degrade.
    let mut defense_sweep = Vec::new();
    if options.defense_sweep {
        use canvassing_browser::DefenseMode;
        let sweep = [
            ("control", DefenseMode::None),
            (
                "per-render noise",
                DefenseMode::RandomizePerRender { seed: 1 },
            ),
            (
                "per-session noise",
                DefenseMode::RandomizePerSession { seed: 1 },
            ),
            ("canvas blocking", DefenseMode::Block),
        ];
        for (label, defense) in sweep {
            let mut config = CrawlConfig::control();
            config.workers = options.workers;
            config.defense = defense;
            let fold = recrawl(web, popular_frontier, &config);
            defense_sweep.push(DefenseSweepRow {
                label: label.to_string(),
                unique_canvases: fold.clusters.unique_canvases(),
                unstable_sites: fold.unstable_sites,
                fingerprinting_sites: fold.fingerprinting_sites,
            });
        }
    }

    StudyResults {
        popular,
        tail,
        figure1,
        overlap,
        attribution,
        table2,
        validation,
        vendor_static: vendor_static_rows(),
        defense_sweep,
    }
}

impl StudyResults {
    /// Renders the full study as a plain-text report (every table and
    /// figure, paper-style).
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let pct = |n: usize, base: usize| -> f64 {
            if base == 0 {
                0.0
            } else {
                100.0 * n as f64 / base as f64
            }
        };

        out.push_str("== Prevalence (Section 4.1) ==\n");
        for a in [&self.popular, &self.tail] {
            out.push_str(&format!(
                "{:?}: {} crawled, {} successful, {} fingerprinting ({:.1}%), \
                 per-site canvases mean {:.2} / median {} / max {}\n",
                a.cohort,
                a.attempted,
                a.prevalence.successes,
                a.prevalence.fingerprinting_sites,
                100.0 * a.prevalence.fingerprinting_rate(),
                a.prevalence.mean_canvases,
                a.prevalence.median_canvases,
                a.prevalence.max_canvases,
            ));
        }
        out.push_str(&format!(
            "fingerprintable fraction of extractions: {:.1}% (popular), {:.1}% (tail)\n",
            100.0 * self.popular.prevalence.fingerprintable_fraction(),
            100.0 * self.tail.prevalence.fingerprintable_fraction(),
        ));

        out.push_str("\n== Crawl failures by kind (Section 3.1) ==\n");
        out.push_str("Kind | Popular | Tail\n");
        let mut kinds: Vec<FailureKind> = self
            .popular
            .failures
            .keys()
            .chain(self.tail.failures.keys())
            .copied()
            .collect();
        kinds.sort();
        kinds.dedup();
        for kind in kinds {
            out.push_str(&format!(
                "{} | {} | {}\n",
                kind,
                self.popular.failures.get(&kind).copied().unwrap_or(0),
                self.tail.failures.get(&kind).copied().unwrap_or(0),
            ));
        }

        out.push_str("\n== Failure bias (fidelity tiers) ==\n");
        out.push_str("Tier | Popular | Tail\n");
        for tier in canvassing_crawler::VisitFidelity::all() {
            out.push_str(&format!(
                "{} | {} | {}\n",
                tier,
                self.popular.bias.tiers.get(&tier).copied().unwrap_or(0),
                self.tail.bias.tiers.get(&tier).copied().unwrap_or(0),
            ));
        }
        for a in [&self.popular, &self.tail] {
            let b = &a.bias;
            out.push_str(&format!(
                "{:?}: strict {:.1}%, salvage-inclusive {:.1}%, \
                 worst-case interval [{:.1}%, {:.1}%] over {} sites\n",
                a.cohort,
                100.0 * b.strict_rate(),
                100.0 * b.salvage_rate(),
                100.0 * b.bias_low(),
                100.0 * b.bias_high(),
                b.population,
            ));
        }
        if self.popular.perf.breaker_opens > 0
            || self.tail.perf.breaker_opens > 0
            || self.popular.perf.salvaged_visits > 0
            || self.tail.perf.salvaged_visits > 0
        {
            out.push_str("\n== Resilience (breakers and salvage) ==\n");
            for a in [&self.popular, &self.tail] {
                let p = &a.perf;
                out.push_str(&format!(
                    "{:?}: {} circuit opens, {} short-circuited references, \
                     {} salvaged visits\n",
                    a.cohort, p.breaker_opens, p.breaker_short_circuits, p.salvaged_visits,
                ));
            }
        }

        out.push_str("\n== Crawl cache efficiency ==\n");
        for a in [&self.popular, &self.tail] {
            let p = &a.perf;
            out.push_str(&format!(
                "{:?}: {} sites; {} parses, {} bytecode compiles, \
                 {:.0}% compile-cache hits; \
                 {} canonical renders, {:.0}% memo hits\n",
                a.cohort,
                p.sites,
                p.script_parses,
                p.script_compiles,
                100.0 * p.script_cache_hit_rate(),
                p.memo_computes,
                100.0 * p.memo_hit_rate(),
            ));
        }

        if self.popular.perf.trace_visits > 0 || self.tail.perf.trace_visits > 0 {
            out.push_str("\n== Observability (trace layer) ==\n");
            for a in [&self.popular, &self.tail] {
                let p = &a.perf;
                out.push_str(&format!(
                    "{:?}: {} visit traces, {} spans, {} events delivered\n",
                    a.cohort, p.trace_visits, p.trace_spans, p.trace_events,
                ));
                // Compile amortization: each unique executed body is
                // lowered to bytecode once; every run — canonical memo
                // renders and in-place executions alike — reuses it.
                let runs = p.script_executions + p.memo_computes;
                out.push_str(&format!(
                    "{:?}: {} bytecode compiles amortized over {} engine runs ({:.1}x reuse)\n",
                    a.cohort,
                    p.script_compiles,
                    runs,
                    runs as f64 / (p.script_compiles.max(1)) as f64,
                ));
            }
        }

        out.push_str("\n== Reach (Section 4.2) ==\n");
        out.push_str(&format!(
            "unique canvases: {} popular, {} tail\n",
            self.popular.clustering.unique_canvases(),
            self.tail.clustering.unique_canvases()
        ));
        let top6 = self.popular.clustering.sites_covered_by_top(6);
        out.push_str(&format!(
            "top-6 canvases cover {} popular fingerprinting sites ({:.1}%)\n",
            top6,
            pct(top6, self.popular.prevalence.fingerprinting_sites)
        ));
        out.push_str(&format!(
            "tail sites sharing a canvas with popular: {:.1}%\n",
            100.0 * self.overlap.sharing_fraction()
        ));
        out.push_str(&format!(
            "largest tail-only clusters: {:?}\n",
            &self.overlap.tail_only_cluster_sizes
                [..self.overlap.tail_only_cluster_sizes.len().min(3)]
        ));

        out.push_str("\n== Figure 1 ==\n");
        out.push_str(&self.figure1.render_ascii(30));

        out.push_str("\n== Table 1: vendor attribution ==\n");
        out.push_str("Service | Top 20k | Tail 20k\n");
        let fp = self.attribution.fingerprinting_sites;
        for v in &self.attribution.vendors {
            out.push_str(&format!(
                "{}{} | {} ({:.0}%) | {} ({:.0}%)\n",
                v.name,
                if v.security { " [security]" } else { "" },
                v.popular_sites,
                pct(v.popular_sites, fp.0),
                v.tail_sites,
                pct(v.tail_sites, fp.1),
            ));
        }
        out.push_str(&format!(
            "Total attributed: {} ({:.0}%) | {} ({:.0}%)\n",
            self.attribution.attributed_sites.0,
            100.0 * self.attribution.popular_coverage(),
            self.attribution.attributed_sites.1,
            100.0 * self.attribution.tail_coverage(),
        ));
        out.push_str(&format!(
            "FingerprintJS commercial customers: {} popular, {} tail\n",
            self.attribution.fpjs_commercial_sites.0, self.attribution.fpjs_commercial_sites.1
        ));

        if !self.table2.is_empty() {
            out.push_str("\n== Table 2: ad-blocker crawls ==\n");
            out.push_str("Config | canvases (pop/tail) | sites (pop/tail)\n");
            for row in &self.table2 {
                out.push_str(&format!(
                    "{} | {} / {} | {} / {}\n",
                    row.label, row.canvases.0, row.canvases.1, row.sites.0, row.sites.1
                ));
            }
        }

        out.push_str("\n== Table 4: blocklist coverage (canvases) ==\n");
        for a in [&self.popular, &self.tail] {
            let c = &a.coverage;
            out.push_str(&format!(
                "{:?}: EL {} ({:.0}%), EP {} ({:.0}%), Disconnect {} ({:.0}%), \
                 Any {} ({:.0}%), All {} ({:.0}%) of {} canvases\n",
                a.cohort,
                c.easylist,
                CoverageCounts::pct(c.easylist, c.total),
                c.easyprivacy,
                CoverageCounts::pct(c.easyprivacy, c.total),
                c.disconnect,
                CoverageCounts::pct(c.disconnect, c.total),
                c.any,
                CoverageCounts::pct(c.any, c.total),
                c.all,
                CoverageCounts::pct(c.all, c.total),
                c.total,
            ));
        }

        out.push_str("\n== Evasion (Section 5.2) and randomization checks (5.3) ==\n");
        for a in [&self.popular, &self.tail] {
            let e = &a.evasion;
            out.push_str(&format!(
                "{:?}: first-party {:.1}%, subdomain {:.1}%, CDN {:.1}%, \
                 CNAME-cloaked {:.1}%, bundled {:.1}%, double-render check {:.1}%\n",
                a.cohort,
                e.pct(e.first_party_sites),
                e.pct(e.subdomain_sites),
                e.pct(e.cdn_sites),
                e.pct(e.cname_sites),
                e.pct(e.bundled_sites),
                e.pct(e.double_render_sites),
            ));
        }

        if let Some(v) = &self.validation {
            out.push_str("\n== Cross-device validation (Section 3.1) ==\n");
            out.push_str(&format!(
                "canvases differ across devices: {}; site groupings match: {}; \
                 unique canvases {} (Intel) vs {} (M1)\n",
                v.canvases_differ, v.partitions_match, v.unique_canvases.0, v.unique_canvases.1
            ));
        }

        out.push_str("\n== Static vs dynamic: confusion matrix over unique scripts ==\n");
        out.push_str("Cohort | TP | FP | FN | TN | inconclusive | precision | recall | F1\n");
        for a in [&self.popular, &self.tail] {
            let m = &a.static_dynamic;
            out.push_str(&format!(
                "{:?} | {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.3}\n",
                a.cohort,
                m.tp,
                m.fp,
                m.fn_,
                m.tn,
                m.inconclusive,
                m.precision(),
                m.recall(),
                m.f1(),
            ));
        }
        if !self.vendor_static.is_empty() {
            out.push_str("Vendor | static verdict | double-render agrees\n");
            for row in &self.vendor_static {
                out.push_str(&format!(
                    "{} | {} | {}\n",
                    row.name,
                    verdict_label(row.verdict),
                    if row.double_render_agrees {
                        "yes"
                    } else {
                        "NO"
                    },
                ));
            }
        }

        if self.popular.bytecode.unique_bodies > 0 || self.tail.bytecode.unique_bodies > 0 {
            out.push_str("\n== Bytecode engine: recovered verdicts and verifier ==\n");
            out.push_str(
                "Cohort | bodies | AST-inconclusive | recovered (fp) | evasive recovered | verifier\n",
            );
            for a in [&self.popular, &self.tail] {
                let b = &a.bytecode;
                out.push_str(&format!(
                    "{:?} | {} | {} | {} ({}) | {}/{} | {} chunks, {} insns, depth {}, {} rejected\n",
                    a.cohort,
                    b.unique_bodies,
                    b.ast_inconclusive,
                    b.recovered,
                    b.recovered_fingerprinting,
                    b.evasive_recovered,
                    b.evasive_bodies,
                    b.verified_chunks,
                    b.verified_insns,
                    b.verifier_max_stack,
                    b.verifier_rejections,
                ));
            }
        }

        if !self.defense_sweep.is_empty() {
            out.push_str("\n== E13 (extension): crawling under canvas defenses ==\n");
            out.push_str("defense | unique canvases | unstable-check sites | fp sites\n");
            for row in &self.defense_sweep {
                out.push_str(&format!(
                    "{} | {} | {} | {}\n",
                    row.label, row.unique_canvases, row.unstable_sites, row.fingerprinting_sites
                ));
            }
        }
        out
    }

    /// Serializes the full results as JSON (for downstream analysis and
    /// plotting). Each cohort's `detections` lists fingerprinting sites
    /// only.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_webgen::WebConfig;

    /// A tiny-but-full study exercising every stage. Kept small so the
    /// whole suite stays fast; the paper-scale run lives in the repro
    /// binary.
    #[test]
    fn tiny_study_end_to_end() {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 99,
            scale: 0.02,
        });
        let results = run_study_streamed(
            &web,
            &StudyOptions {
                workers: 4,
                adblock_crawls: true,
                m1_validation: true,
                defense_sweep: false,
                trace: true,
            },
            &StreamingOptions::default(),
        )
        .unwrap();

        // Prevalence in the right ballpark (targets: 12.7% / 9.9%).
        let p_rate = results.popular.prevalence.fingerprinting_rate();
        let t_rate = results.tail.prevalence.fingerprinting_rate();
        assert!((0.08..=0.18).contains(&p_rate), "popular rate {p_rate}");
        assert!((0.06..=0.14).contains(&t_rate), "tail rate {t_rate}");
        assert!(p_rate > t_rate, "popular should fingerprint more");

        // Clustering found shared canvases.
        assert!(results.popular.clustering.unique_canvases() > 5);
        assert!(results.figure1.bars.len() > 3);

        // Attribution found the major vendors.
        let akamai = results
            .attribution
            .vendors
            .iter()
            .find(|v| v.name == "Akamai")
            .unwrap();
        assert!(akamai.popular_sites > 0);
        let coverage = results.attribution.popular_coverage();
        assert!(
            (0.4..=1.0).contains(&coverage),
            "attribution coverage {coverage}"
        );

        // Table 2: blockers help only slightly.
        assert_eq!(results.table2.len(), 3);
        let control_sites = results.table2[0].sites.0;
        for row in &results.table2[1..] {
            assert!(row.sites.0 <= control_sites);
            assert!(
                row.sites.0 as f64 >= control_sites as f64 * 0.80,
                "{}: too effective {} vs {}",
                row.label,
                row.sites.0,
                control_sites
            );
        }

        // Validation: different bytes, same grouping.
        let v = results.validation.as_ref().unwrap();
        assert!(v.canvases_differ);
        assert!(v.partitions_match);

        // The typed failure breakdown accounts for every failed site.
        for a in [&results.popular, &results.tail] {
            let failed: usize = a.failures.values().sum();
            assert_eq!(
                failed,
                a.attempted - a.prevalence.successes,
                "{:?}: breakdown must cover every failure",
                a.cohort
            );
            assert!(!a.failures.is_empty(), "down sites exist at this scale");
        }

        // Failure-bias accounting: fidelity tiers partition the site
        // population, and the crawl's failures widen the worst-case
        // interval beyond zero.
        for a in [&results.popular, &results.tail] {
            let b = &a.bias;
            assert_eq!(b.tiers.values().sum::<usize>(), a.attempted);
            assert_eq!(
                b.tiers[&canvassing_crawler::VisitFidelity::Full],
                a.prevalence.successes
            );
            assert_eq!(b.full_fingerprinting, a.prevalence.fingerprinting_sites);
            assert!(b.interval_width() > 0.0, "{:?}: failures exist", a.cohort);
            assert!(b.bias_high() >= b.bias_low());
            assert!((0.0..=1.0).contains(&b.strict_rate()));
            assert!((0.0..=1.0).contains(&b.salvage_rate()));
        }

        // Cache counters are populated and show heavy reuse: many sites
        // share each vendor script, so memo hits dominate renders.
        for a in [&results.popular, &results.tail] {
            let p = &a.perf;
            assert_eq!(p.sites as usize, a.attempted);
            assert!(p.script_parses > 0);
            assert!(
                p.memo_hits > p.memo_computes,
                "{:?}: hits {} vs computes {}",
                a.cohort,
                p.memo_hits,
                p.memo_computes
            );
        }

        // Second-engine triage: the corpus enumerated, the verifier clean,
        // and every deployed evasion variant recovered to a decisive
        // verdict by the bytecode engine.
        for a in [&results.popular, &results.tail] {
            let b = &a.bytecode;
            assert!(b.unique_bodies > 0, "{:?}: empty corpus", a.cohort);
            assert!(b.verified_chunks >= b.unique_bodies);
            assert_eq!(b.verifier_rejections, 0, "{:?}", a.cohort);
            assert!(b.evasive_bodies > 0, "{:?}: no evasives deployed", a.cohort);
            assert_eq!(
                b.evasive_recovered, b.evasive_bodies,
                "{:?}: an evasion variant escaped the bytecode engine",
                a.cohort
            );
            assert!(b.recovered >= b.evasive_recovered);
            assert!(b.recovered_fingerprinting >= b.evasive_recovered);
        }

        // Static-vs-dynamic cross-validation: the two detectors agree
        // almost everywhere, and every vendor row is a true positive.
        for a in [&results.popular, &results.tail] {
            let m = &a.static_dynamic;
            assert!(
                m.decided() > 10,
                "{:?}: only {} decided",
                a.cohort,
                m.decided()
            );
            assert!(m.f1() >= 0.95, "{:?}: F1 {:.3} ({:?})", a.cohort, m.f1(), m);
        }
        assert!(!results.vendor_static.is_empty());
        for row in &results.vendor_static {
            assert!(row.true_positive, "{}: {:?}", row.name, row.verdict);
        }

        // Tracing was on for the control crawls: every attempted site
        // delivered exactly one trace, and the report says so.
        for a in [&results.popular, &results.tail] {
            assert_eq!(a.perf.trace_visits as usize, a.attempted);
            assert!(a.perf.trace_spans > 0);
            assert!(a.perf.trace_events >= a.perf.trace_spans * 2);
        }

        // The report renders.
        let report = results.render_report();
        assert!(report.contains("Table 1"));
        assert!(report.contains("Akamai"));
        assert!(report.contains("Crawl failures by kind"));
        assert!(report.contains("Failure bias (fidelity tiers)"));
        assert!(report.contains("worst-case interval"));
        assert!(report.contains("cache efficiency"));
        assert!(report.contains("Observability (trace layer)"));
        assert!(report.contains("confusion matrix over unique scripts"));
        assert!(report.contains("double-render agrees"));
    }

    #[test]
    fn validation_compares_canvas_bytes_and_site_groupings() {
        // One canvas shared by the same two sites on each device.
        let clustering = |data_url: &str| Clustering {
            clusters: vec![crate::cluster::Cluster {
                hash: 0,
                data_url: data_url.into(),
                sites: ["a.example", "b.example"].map(String::from).into(),
                extractions: 2,
                script_urls: BTreeSet::new(),
            }],
        };
        let (intel, m1) = (clustering("data:intel"), clustering("data:m1"));

        let v = ValidationResult::compare(&intel, &m1);
        assert!(v.canvases_differ);
        assert!(v.partitions_match);
        assert_eq!(v.unique_canvases, (1, 1));
        assert!(!ValidationResult::compare(&intel, &intel).canvases_differ);

        // Two devices that produced no fingerprintable canvas saw the
        // same (empty) set of canvas bytes.
        let empty = Clustering::default();
        let v = ValidationResult::compare(&empty, &empty);
        assert!(!v.canvases_differ);
        assert!(v.partitions_match);
        assert_eq!(v.unique_canvases, (0, 0));
        assert!(ValidationResult::compare(&intel, &empty).canvases_differ);
    }
}

#[cfg(test)]
mod defense_sweep_tests {
    use super::*;
    use canvassing_webgen::WebConfig;

    #[test]
    fn defense_sweep_shows_clustering_collapse() {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 31,
            scale: 0.02,
        });
        let results = run_study_streamed(
            &web,
            &StudyOptions {
                workers: 4,
                adblock_crawls: false,
                m1_validation: false,
                defense_sweep: true,
                trace: false,
            },
            &StreamingOptions::default(),
        )
        .unwrap();
        assert_eq!(results.defense_sweep.len(), 4);
        let by_label = |label: &str| {
            results
                .defense_sweep
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
        };
        let control = by_label("control");
        let per_render = by_label("per-render noise");
        let per_session = by_label("per-session noise");
        let blocking = by_label("canvas blocking");

        // Per-render noise explodes unique canvases and trips the §5.3
        // stability check on many sites.
        assert!(
            per_render.unique_canvases > control.unique_canvases * 2,
            "per-render {} vs control {}",
            per_render.unique_canvases,
            control.unique_canvases
        );
        assert!(per_render.unstable_sites > control.unstable_sites + 3);
        // Per-session noise also splinters cross-site clusters (each
        // session gets its own noise), but stays invisible to the
        // double-render check — footnote 7's point.
        assert!(per_session.unique_canvases > control.unique_canvases * 2);
        assert_eq!(per_session.unstable_sites, control.unstable_sites);
        // Blocking collapses every canvas to the one constant data URL.
        // The extraction is still recorded at the canvas's own size, so
        // detection keeps it: the same sites fingerprint as in control.
        assert!(blocking.unique_canvases <= 1);

        // Randomizing or blocking canvases changes their bytes, never
        // whether a site extracts one.
        for row in &results.defense_sweep {
            assert_eq!(row.fingerprinting_sites, control.fingerprinting_sites);
        }
        // All four rows exactly, pinned for seed 31 at scale 0.02.
        let rows: Vec<(&str, usize, usize, usize)> = results
            .defense_sweep
            .iter()
            .map(|r| {
                (
                    r.label.as_str(),
                    r.unique_canvases,
                    r.unstable_sites,
                    r.fingerprinting_sites,
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("control", 19, 0, 41),
                ("per-render noise", 106, 15, 41),
                ("per-session noise", 87, 0, 41),
                ("canvas blocking", 1, 0, 41),
            ]
        );
    }
}
