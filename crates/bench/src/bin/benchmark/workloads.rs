//! The four workloads: inputs generated from the seed, the one operation
//! each times, and the checks on what that operation produced.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use canvassing::{
    run_study_streamed, CohortAccumulator, CohortAnalysis, StreamingOptions, StudyOptions,
    StudyResults,
};
use canvassing_blocklist::{DisconnectList, FilterList};
use canvassing_browser::{CrawlCaches, DefenseMode};
use canvassing_crawler::{
    crawl_streamed, crawl_with_stats, supervise_crawl, CrawlConfig, CrawlDataset, CrawlStats,
    FaultScript, SupervisionReport, SupervisorConfig,
};
use canvassing_net::Url;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

use crate::trace::Tracer;

/// Sites per scheduler chunk in every streamed crawl (the library default).
pub const CHUNK_SITES: usize = 512;

/// Shards (and scripted worker faults) of the supervised crawl.
const SUPERVISED_SHARDS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_study_streamed`, control crawls only.
    StreamStudy,
    /// `run_study_streamed` with the default options: control crawls plus
    /// AdblockPlus, uBlock Origin and M1 re-crawls.
    PaperStudy,
    /// Both cohorts under per-render canvas randomization, streamed
    /// through `CohortAccumulator`.
    DefendedCrawl,
    /// `supervise_crawl` of the popular cohort under seeded worker faults.
    SupervisedCrawl,
}

impl Workload {
    /// Every workload, in round-robin order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamStudy,
        Workload::PaperStudy,
        Workload::DefendedCrawl,
        Workload::SupervisedCrawl,
    ];

    /// Name as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamStudy => "stream_study",
            Workload::PaperStudy => "paper_study",
            Workload::DefendedCrawl => "defended_crawl",
            Workload::SupervisedCrawl => "supervised_crawl",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Web scale: 1.0 is the paper's 2 × 20k sites. `stream_study` runs
    /// at 3.0 because its per-site cost grows with the web (the rule lists
    /// do), and `paper_study` at the paper's size. The two crawls, whose
    /// per-site costs do not grow with the web, run smaller: the supervised
    /// crawl at 10k sites, where spilling and merging already cost ten
    /// times the visits. Every operation then takes 10–30 s and at most
    /// about 4 GB on two cores, and the whole benchmark fits its time
    /// budget on a host running 1.8 times slower than its best.
    pub fn scale(self) -> f64 {
        match self {
            Workload::StreamStudy => 3.0,
            Workload::PaperStudy => 1.0,
            Workload::DefendedCrawl => 0.75,
            Workload::SupervisedCrawl => 0.5,
        }
    }

    /// Output digest at seed 2025 and [`Workload::scale`]: any change to
    /// what the pipeline computes shows here.
    pub fn seed_2025_digest(self) -> u64 {
        match self {
            Workload::StreamStudy => 0xa8ef_f10a_bec3_4c0e,
            Workload::PaperStudy => 0xffb8_a5e1_d525_2538,
            Workload::DefendedCrawl => 0x562d_b86e_4cbe_136b,
            Workload::SupervisedCrawl => 0x896e_6282_cd12_654b,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes.
fn fnv_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Continues an FNV-1a hash over the JSON of each item in turn, so no
/// single string holds the whole output.
fn fnv_json<'a, T: serde::Serialize + 'a>(
    hash: u64,
    items: impl IntoIterator<Item = &'a T>,
) -> u64 {
    items.into_iter().fold(hash, |h, item| {
        let json = serde_json::to_string(item).expect("outputs serialize");
        fnv_extend(h, json.as_bytes())
    })
}

/// FNV-1a of a crawl dataset: its label, device and every record's JSON.
pub fn dataset_digest(dataset: &CrawlDataset) -> u64 {
    let head = fnv_extend(fnv(dataset.label.as_bytes()), dataset.device_id.as_bytes());
    fnv_json(head, &dataset.records)
}

/// Everything a workload reads, generated from the seed.
pub struct Inputs {
    /// The workload seed (web, defense noise and fault script).
    pub seed: u64,
    /// Crawl worker threads.
    pub workers: usize,
    /// The synthetic web.
    pub web: SyntheticWeb,
    /// Parsed EasyList.
    pub easylist: FilterList,
    /// Parsed EasyPrivacy.
    pub easyprivacy: FilterList,
    /// Parsed Disconnect list.
    pub disconnect: DisconnectList,
    /// Popular-cohort frontier.
    pub popular: Vec<Url>,
    /// Tail-cohort frontier.
    pub tail: Vec<Url>,
}

/// Wall seconds of one setup.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `SyntheticWeb::generate`.
    pub generate_s: f64,
    /// The three list parses.
    pub parse_s: f64,
    /// Generation, parsing and frontier building together.
    pub total_s: f64,
}

/// Generates the web, parses its lists and builds both frontiers.
pub fn setup(seed: u64, scale: f64, workers: usize) -> (Inputs, SetupTimes) {
    let start = Instant::now();
    let web = SyntheticWeb::generate(WebConfig { seed, scale });
    let generated = Instant::now();
    let easylist = FilterList::parse("EasyList", &web.lists.easylist);
    let easyprivacy = FilterList::parse("EasyPrivacy", &web.lists.easyprivacy);
    let disconnect = DisconnectList::parse(&web.lists.disconnect);
    let parsed = Instant::now();
    let popular = web.frontier(Cohort::Popular);
    let tail = web.frontier(Cohort::Tail);
    let times = SetupTimes {
        generate_s: (generated - start).as_secs_f64(),
        parse_s: (parsed - generated).as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
    };
    let inputs = Inputs {
        seed,
        workers,
        web,
        easylist,
        easyprivacy,
        disconnect,
        popular,
        tail,
    };
    (inputs, times)
}

impl Inputs {
    /// Both cohorts with their frontiers.
    pub fn cohorts(&self) -> [(Cohort, &[Url]); 2] {
        [(Cohort::Popular, &self.popular), (Cohort::Tail, &self.tail)]
    }

    /// Sites one operation of `workload` visits in its timed crawls.
    pub fn sites(&self, workload: Workload) -> usize {
        match workload {
            Workload::SupervisedCrawl => self.popular.len(),
            _ => self.popular.len() + self.tail.len(),
        }
    }

    /// The paper's control configuration with this run's worker count.
    pub fn control_config(&self) -> CrawlConfig {
        let mut config = CrawlConfig::control();
        config.workers = self.workers;
        config
    }

    /// The control configuration under seeded per-render randomization.
    pub fn defended_config(&self) -> CrawlConfig {
        let mut config = self.control_config();
        config.defense = DefenseMode::RandomizePerRender { seed: self.seed };
        config
    }

    /// Digest of a direct crawl of the popular frontier — what the
    /// supervised crawl must merge to.
    pub fn direct_crawl_digest(&self) -> u64 {
        let (dataset, _) =
            crawl_with_stats(&self.web.network, &self.popular, &self.control_config());
        dataset_digest(&dataset)
    }
}

/// A spill directory that is removed when dropped, whatever happened.
#[derive(Debug)]
pub struct SpillDir(PathBuf);

impl SpillDir {
    /// A fresh directory under `parent`, unique within this process.
    pub fn create(parent: &Path) -> io::Result<SpillDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "spill-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = parent.join(name);
        // A directory left by an earlier process with the same id.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(SpillDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one operation produced.
pub enum Product {
    /// A full study (the two study workloads).
    Study(Box<StudyResults>),
    /// Finished popular and tail analyses (the defended crawl).
    Cohorts(Vec<CohortAnalysis>),
    /// A supervised crawl's merged dataset; its spill directory lives as
    /// long as the product, so traced runs can inspect it.
    Dataset {
        /// The merged dataset.
        dataset: CrawlDataset,
        /// What supervision did.
        report: Box<SupervisionReport>,
        /// The run's spill directory.
        spill: SpillDir,
    },
}

impl Product {
    /// FNV-1a of the output: the rendered report for a study, the two
    /// analyses' JSON for the defended crawl, the merged dataset's label,
    /// device and records' JSON for the supervised crawl.
    pub fn digest(&self) -> u64 {
        match self {
            Product::Study(results) => fnv(results.render_report().as_bytes()),
            Product::Cohorts(analyses) => fnv_json(FNV_OFFSET, analyses),
            Product::Dataset { dataset, .. } => dataset_digest(dataset),
        }
    }

    /// The finished cohort analyses, popular first.
    pub fn cohorts(&self) -> Vec<&CohortAnalysis> {
        match self {
            Product::Study(results) => vec![&results.popular, &results.tail],
            Product::Cohorts(analyses) => analyses.iter().collect(),
            Product::Dataset { .. } => Vec::new(),
        }
    }

    /// Failure records over the operation's sites.
    pub fn failures(&self) -> usize {
        match self {
            Product::Dataset { dataset, .. } => dataset.failed().count(),
            _ => self
                .cohorts()
                .iter()
                .map(|a| a.failures.values().sum::<usize>())
                .sum(),
        }
    }

    /// Sites with a fingerprintable canvas over both cohorts; 0 for the
    /// supervised crawl, which analyses nothing.
    pub fn fingerprinting_sites(&self) -> usize {
        self.cohorts()
            .iter()
            .map(|a| a.prevalence.fingerprinting_sites)
            .sum()
    }

    /// Violated output invariants: successes plus failures equal the
    /// frontier's sites, each attempted once.
    pub fn problems(&self, inputs: &Inputs) -> Vec<String> {
        let mut problems = Vec::new();
        if let Product::Dataset { dataset, .. } = self {
            let (ok, failed) = (dataset.success_count(), dataset.failed().count());
            if ok + failed != inputs.popular.len() {
                problems.push(format!(
                    "{ok} successes and {failed} failures for {} sites",
                    inputs.popular.len()
                ));
            }
        }
        let cohorts = self.cohorts();
        for (a, frontier) in cohorts.iter().zip([&inputs.popular, &inputs.tail]) {
            let failures: usize = a.failures.values().sum();
            if a.attempted != frontier.len() || a.prevalence.successes + failures != a.attempted {
                problems.push(format!(
                    "{:?}: {} attempted, {} successes, {failures} failures, {} sites",
                    a.cohort,
                    a.attempted,
                    a.prevalence.successes,
                    frontier.len()
                ));
            }
        }
        problems
    }
}

/// Cache-layer counters summed over an operation's crawls, and the
/// largest resident cache of any one crawl.
#[derive(Debug, Default)]
pub struct Tally {
    /// Summed crawl counters.
    pub stats: CrawlStats,
    /// Largest compiled-script cache.
    pub script_entries: usize,
    /// Largest render memo.
    pub memo_entries: usize,
    /// Largest static-analysis cache.
    pub analysis_entries: usize,
}

impl Tally {
    /// Adds one crawl's counters.
    pub fn add_stats(&mut self, s: &CrawlStats) {
        let t = &mut self.stats;
        t.sites += s.sites;
        t.script_parses += s.script_parses;
        t.script_compiles += s.script_compiles;
        t.script_cache_hits += s.script_cache_hits;
        t.script_executions += s.script_executions;
        t.memo_hits += s.memo_hits;
        t.memo_computes += s.memo_computes;
        t.memo_bypasses += s.memo_bypasses;
        t.static_analyses += s.static_analyses;
        t.analysis_hits += s.analysis_hits;
    }

    /// Notes the sizes of one crawl's caches.
    pub fn add_caches(&mut self, caches: &CrawlCaches) {
        let max = |a: &mut usize, b: usize| *a = (*a).max(b);
        max(
            &mut self.script_entries,
            caches.scripts.as_ref().map_or(0, |c| c.len()),
        );
        max(
            &mut self.memo_entries,
            caches.memo.as_ref().map_or(0, |m| m.len()),
        );
        max(&mut self.analysis_entries, caches.analysis.len());
    }
}

/// Runs one operation of `workload`. Traced or not, the same code runs;
/// an enabled tracer records spans around the calls into each layer (the
/// studies are one opaque `run_study_streamed` call).
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    work_dir: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<Product> {
    Ok(match workload {
        Workload::StreamStudy | Workload::PaperStudy => {
            let mut options = StudyOptions {
                workers: inputs.workers,
                ..StudyOptions::default()
            };
            if workload == Workload::StreamStudy {
                options.adblock_crawls = false;
                options.m1_validation = false;
            }
            let results = tracer.span("core.study", || {
                run_study_streamed(&inputs.web, &options, &StreamingOptions::default())
            })?;
            Product::Study(Box::new(results))
        }
        Workload::DefendedCrawl => {
            let config = inputs.defended_config();
            let analyses = inputs
                .cohorts()
                .into_iter()
                .map(|(cohort, frontier)| {
                    stream_cohort(inputs, cohort, frontier, &config, tracer, tally)
                })
                .collect();
            Product::Cohorts(analyses)
        }
        Workload::SupervisedCrawl => {
            let spill = SpillDir::create(work_dir)?;
            let (dataset, report) = tracer.span("crawler.supervise", || {
                supervise_crawl(
                    &inputs.web.network,
                    &inputs.popular,
                    &inputs.control_config(),
                    spill.path(),
                    &SupervisorConfig::new(SUPERVISED_SHARDS),
                    &FaultScript::seeded(inputs.seed, SUPERVISED_SHARDS),
                )
            })?;
            Product::Dataset {
                dataset,
                report: Box::new(report),
                spill,
            }
        }
    })
}

/// Streams one cohort through a fresh-cache crawl into an accumulator and
/// finishes it: the defended crawl's operation, and the studies' sink
/// probe. Spans go around every sink call, with a mark at each chunk
/// delivery.
pub fn stream_cohort(
    inputs: &Inputs,
    cohort: Cohort,
    frontier: &[Url],
    config: &CrawlConfig,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> CohortAnalysis {
    let caches = config.build_caches();
    let mut acc = CohortAccumulator::new();
    let crawl = tracer.enter("crawler.crawl");
    let stats = crawl_streamed(
        &inputs.web.network,
        frontier,
        config,
        &caches,
        CHUNK_SITES,
        |index, record| {
            if index % CHUNK_SITES == 0 {
                tracer.mark("crawler.chunk");
            }
            let absorb = tracer.enter("core.absorb");
            acc.absorb(
                &record,
                &inputs.easylist,
                &inputs.easyprivacy,
                &inputs.disconnect,
            );
            drop(record);
            tracer.exit(absorb);
        },
    );
    tracer.exit(crawl);
    tally.add_stats(&stats);
    tally.add_caches(&caches);
    tracer.span("core.finish", || acc.finish(cohort))
}
