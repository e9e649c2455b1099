//! Per-layer metrics of a traced run: totals from spans, counters from the
//! layers' own statistics, and probe passes that run after the envelope
//! and re-invoke sub-steps the envelope cannot see into. Probe spans sit
//! under their own roots, never under the envelope's, so they count
//! neither in its wall time nor in its coverage.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use canvassing::detect;
use canvassing::validation::bytecode_triage;
use canvassing_analysis::AnalysisCache;
use canvassing_browser::{AdBlockerKind, DefenseMode, Extension};
use canvassing_crawler::{
    crawl_streamed, crawl_with_stats, list_supervised_segments, merge_supervised, BreakerPlan,
    CrawlConfig, CrawlStats, SegmentWriter, SiteCrawler, SiteOutcome, SiteRecord,
};
use canvassing_dom::Document;
use canvassing_net::{Network, Resource, ResourceType, ScriptRef, Url};
use canvassing_raster::DeviceProfile;
use canvassing_script::{
    run_compiled_with_budget, Host, HostRef, RuntimeError, ScriptCache, Value, DEFAULT_STEP_BUDGET,
};

use crate::proc;
use crate::spec::{median, percentile};
use crate::trace::{coverage, durations_ns, self_total_s, total_s, Span, Tracer};
use crate::workloads::{
    dataset_digest, fnv, stream_cohort, Inputs, Product, SetupTimes, SpillDir, Tally, Workload,
    CHUNK_SITES,
};

/// Per-layer values by metric name. A layer a workload does not exercise
/// keeps the value 0: no supervision, spill or replay happened there.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the traced run observed, for [`per_layer`].
pub struct Envelope<'a> {
    /// The workload traced.
    pub workload: Workload,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// Every setup of the run.
    pub setups: &'a [SetupTimes],
    /// The envelope's spans; the probes add theirs.
    pub tracer: &'a mut Tracer,
    /// Index of the envelope's root span.
    pub root: usize,
    /// What the envelope produced.
    pub product: &'a Product,
    /// Cache and crawl counters of the envelope.
    pub tally: Tally,
    /// Peak resident set of the run's first operation minus the resident
    /// set before it, in MB.
    pub rss_growth_mb: f64,
    /// What recording the envelope's spans cost, as a share of its wall
    /// time.
    pub overhead_frac: f64,
}

/// Computes every per-layer metric of one traced run, first running the
/// probe passes `workload` needs. Returns the metrics and any violated
/// check.
pub fn per_layer(env: Envelope, work_dir: &Path) -> io::Result<(Layers, Vec<String>)> {
    let Envelope {
        workload,
        inputs,
        tracer,
        mut tally,
        ..
    } = env;
    let mut m = Layers::new();
    let mut problems = Vec::new();
    match workload {
        Workload::StreamStudy => {
            sink_probe(inputs, tracer, &mut tally);
            detect_probe(inputs, &inputs.control_config(), &mut m)?;
        }
        Workload::PaperStudy => {
            sink_probe(inputs, tracer, &mut tally);
            recrawl_probe(inputs, tracer, &mut tally);
            detect_probe(inputs, &inputs.control_config(), &mut m)?;
            adblock_probe(inputs, &mut m);
        }
        Workload::DefendedCrawl => {
            let config = inputs.defended_config();
            detect_probe(inputs, &config, &mut m)?;
            replay_probe(inputs, config.defense, &mut m);
        }
        Workload::SupervisedCrawl => {
            let supervise_s = total_s(tracer.spans(), "crawler.supervise");
            problems.extend(supervision_probe(
                inputs,
                env.product,
                supervise_s,
                &mut tally,
                work_dir,
                &mut m,
            )?);
        }
    }

    let spans = tracer.spans();
    let setup = |f: fn(&SetupTimes) -> f64| median(&env.setups.iter().map(f).collect::<Vec<_>>());
    m.insert("webgen.generate_s", setup(|s| s.generate_s));
    m.insert("blocklist.parse_s", setup(|s| s.parse_s));
    m.insert("crawler.crawl_s", self_total_s(spans, "crawler.crawl"));
    let gaps_ms = chunk_gaps_ms(spans);
    m.insert("crawler.chunk_p50_ms", sampled(&gaps_ms, 50.0));
    m.insert("crawler.chunk_p90_ms", sampled(&gaps_ms, 90.0));
    let absorb_us: Vec<f64> = durations_ns(spans, "core.absorb")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m.insert("core.absorb_s", total_s(spans, "core.absorb"));
    m.insert("core.absorb_p50_us", sampled(&absorb_us, 50.0));
    m.insert("core.absorb_p99_us", sampled(&absorb_us, 99.0));
    m.insert("core.finish_s", total_s(spans, "core.finish"));
    m.insert("crawler.recrawl_s", total_s(spans, "crawler.recrawl"));
    m.insert("crawler.supervise_s", total_s(spans, "crawler.supervise"));
    m.insert("core.rss_growth_mb", env.rss_growth_mb);
    m.insert(
        "core.fingerprinting_sites",
        env.product.fingerprinting_sites() as f64,
    );
    m.insert("crawler.failed", env.product.failures() as f64);
    m.insert("trace.coverage_frac", coverage(spans, env.root));
    m.insert("trace.overhead_frac", env.overhead_frac);

    let s = &tally.stats;
    let ratio = |hits: u64, base: u64| {
        if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        }
    };
    for (name, value) in [
        ("script.cache_entries", tally.script_entries as f64),
        ("browser.memo_entries", tally.memo_entries as f64),
        ("analysis.cache_entries", tally.analysis_entries as f64),
        ("crawler.sites", s.sites as f64),
        ("script.parses", s.script_parses as f64),
        ("script.compiles", s.script_compiles as f64),
        ("script.cache_hits", s.script_cache_hits as f64),
        (
            "script.cache_hit_rate",
            ratio(s.script_cache_hits, s.script_cache_hits + s.script_parses),
        ),
        ("browser.script_executions", s.script_executions as f64),
        ("browser.memo_hits", s.memo_hits as f64),
        ("browser.memo_computes", s.memo_computes as f64),
        ("browser.memo_bypasses", s.memo_bypasses as f64),
        (
            "browser.memo_hit_rate",
            ratio(s.memo_hits, s.memo_hits + s.memo_computes + s.memo_bypasses),
        ),
        ("analysis.static_analyses", s.static_analyses as f64),
        ("analysis.cache_hits", s.analysis_hits as f64),
    ] {
        m.insert(name, value);
    }
    Ok((m, problems))
}

/// Gaps in milliseconds between successive chunk deliveries of each
/// crawl, the first measured from the crawl's start.
fn chunk_gaps_ms(spans: &[Span]) -> Vec<f64> {
    let mut gaps_ms = Vec::new();
    for (i, crawl) in spans.iter().enumerate() {
        if crawl.name != "crawler.crawl" {
            continue;
        }
        let mut last = crawl.start_ns;
        for mark in spans
            .iter()
            .filter(|s| s.parent == Some(i) && s.name == "crawler.chunk")
        {
            gaps_ms.push((mark.start_ns - last) as f64 / 1e6);
            last = mark.start_ns;
        }
    }
    gaps_ms
}

/// The `p`th percentile when at least ten samples lie beyond it, else 0:
/// a rarer percentile would rest on a handful of samples.
fn sampled(values: &[f64], p: f64) -> f64 {
    let beyond = values.len() as f64 * (1.0 - p / 100.0);
    if beyond < 10.0 {
        0.0
    } else {
        percentile(values, p)
    }
}

fn ns_to_s(ns: u128) -> f64 {
    ns as f64 / 1e9
}

/// Splits a study's opaque call: its two control crawls re-run as the
/// benchmark's own streamed crawl into fresh accumulators (the same public
/// calls the streamed study makes), with spans for crawl, absorb and
/// finish, and `bytecode_triage`, which the study's finish runs, under
/// `core.finish` too.
fn sink_probe(inputs: &Inputs, tracer: &mut Tracer, tally: &mut Tally) {
    let root = tracer.enter("probe.sink");
    let config = inputs.control_config();
    for (cohort, frontier) in inputs.cohorts() {
        black_box(stream_cohort(
            inputs, cohort, frontier, &config, tracer, tally,
        ));
        tracer.span("core.finish", || {
            black_box(bytecode_triage(&inputs.web.network, frontier))
        });
    }
    tracer.exit(root);
}

/// Re-runs the paper study's five batch re-crawls — AdblockPlus and uBlock
/// Origin over both cohorts, the M1 device over the popular one — each in
/// a `crawler.recrawl` span.
fn recrawl_probe(inputs: &Inputs, tracer: &mut Tracer, tally: &mut Tally) {
    let root = tracer.enter("probe.recrawl");
    let easylist = &inputs.web.lists.easylist;
    let recrawls = [
        (Some(AdBlockerKind::AdblockPlus), &inputs.popular),
        (Some(AdBlockerKind::AdblockPlus), &inputs.tail),
        (Some(AdBlockerKind::UblockOrigin), &inputs.popular),
        (Some(AdBlockerKind::UblockOrigin), &inputs.tail),
        (None, &inputs.popular),
    ];
    for (blocker, frontier) in recrawls {
        let mut config = match blocker {
            Some(kind) => CrawlConfig::with_adblocker(kind, easylist),
            None => CrawlConfig::with_device(DeviceProfile::apple_m1()),
        };
        config.workers = inputs.workers;
        let (dataset, stats) = tracer.span("crawler.recrawl", || {
            crawl_with_stats(&inputs.web.network, frontier, &config)
        });
        black_box(dataset);
        tally.add_stats(&stats);
    }
    tracer.exit(root);
}

/// Re-crawls both cohorts and, per successful visit, re-invokes
/// `detect` and the three blocklist coverage lookups of each
/// fingerprintable canvas — the sub-steps inside `CohortAccumulator::absorb`.
/// The re-crawl keeps no sink state, so its resident-set growth is the
/// crawl's own, against the envelope's `core.rss_growth_mb`.
fn detect_probe(inputs: &Inputs, config: &CrawlConfig, m: &mut Layers) -> io::Result<()> {
    proc::release_free_memory();
    let rss_before_kb = proc::status_kb("VmRSS:").unwrap_or(0);
    proc::reset_peak_rss()?;
    let (mut detect_ns, mut match_ns, mut lookups) = (0u128, 0u128, 0u64);
    for frontier in [&inputs.popular, &inputs.tail] {
        let caches = config.build_caches();
        crawl_streamed(
            &inputs.web.network,
            frontier,
            config,
            &caches,
            CHUNK_SITES,
            |_, record| {
                let SiteOutcome::Success(visit) = &record.outcome else {
                    return;
                };
                let start = Instant::now();
                let detection = black_box(detect(visit));
                detect_ns += start.elapsed().as_nanos();
                for canvas in &detection.canvases {
                    let url = &canvas.script_url;
                    let start = Instant::now();
                    black_box(inputs.easylist.covers_script_url(url, ResourceType::Script));
                    black_box(
                        inputs
                            .easyprivacy
                            .covers_script_url(url, ResourceType::Script),
                    );
                    black_box(inputs.disconnect.contains_url(url));
                    match_ns += start.elapsed().as_nanos();
                    lookups += 3;
                }
            },
        );
    }
    let peak_kb = proc::status_kb("VmHWM:").unwrap_or(0);
    m.insert(
        "crawler.rss_growth_mb",
        (peak_kb as f64 - rss_before_kb as f64) / 1024.0,
    );
    m.insert("core.detect_s", ns_to_s(detect_ns));
    m.insert("blocklist.match_s", ns_to_s(match_ns));
    m.insert("blocklist.lookups", lookups as f64);
    m.insert(
        "blocklist.match_ns_per_lookup",
        if lookups == 0 {
            0.0
        } else {
            match_ns as f64 / lookups as f64
        },
    );
    m.insert(
        "blocklist.rules",
        (inputs.easylist.len() + inputs.easyprivacy.len() + inputs.disconnect.len()) as f64,
    );
    Ok(())
}

/// Replays `Extension::check_script` for both blockers over every
/// external script reference of both cohorts.
fn adblock_probe(inputs: &Inputs, m: &mut Layers) {
    let network = &inputs.web.network;
    let (mut ns, mut checks, mut blocks) = (0u128, 0u64, 0u64);
    for kind in [AdBlockerKind::AdblockPlus, AdBlockerKind::UblockOrigin] {
        let extension = Extension::new(kind, &inputs.web.lists.easylist);
        for page_url in inputs.popular.iter().chain(&inputs.tail) {
            let Some(Resource::Page(page)) = network.peek(page_url) else {
                continue;
            };
            for script in &page.scripts {
                if let ScriptRef::External(url) = script {
                    let start = Instant::now();
                    let decision = black_box(extension.check_script(page_url, url, &network.dns));
                    ns += start.elapsed().as_nanos();
                    checks += 1;
                    blocks += u64::from(decision.is_some());
                }
            }
        }
    }
    m.insert("browser.adblock_check_s", ns_to_s(ns));
    m.insert("browser.adblock_checks", checks as f64);
    m.insert("browser.adblock_blocks", blocks as f64);
}

/// The browser's per-origin defense seeding: noise differs per site.
fn seeded_for_host(defense: DefenseMode, host: &str) -> DefenseMode {
    let salt = fnv(host.as_bytes());
    match defense {
        DefenseMode::RandomizePerRender { seed } => {
            DefenseMode::RandomizePerRender { seed: seed ^ salt }
        }
        DefenseMode::RandomizePerSession { seed } => {
            DefenseMode::RandomizePerSession { seed: seed ^ salt }
        }
        other => other,
    }
}

#[derive(Default)]
struct Replay {
    fetch_ns: u128,
    fetches: u64,
    triage_ns: u128,
    compile_ns: u128,
    vm_ns: u128,
    vm_steps: u64,
    document_ns: u128,
    records_ns: u128,
    extractions: u64,
}

impl Replay {
    fn fetch(&mut self, network: &Network, url: &Url) -> Option<Resource> {
        let start = Instant::now();
        let response = network.fetch_attempt(url, 0);
        self.fetch_ns += start.elapsed().as_nanos();
        self.fetches += 1;
        response.ok().map(|r| r.resource)
    }
}

/// Single-threaded replay of every (page, script) pair of both cohorts
/// with fresh caches: fetch, static triage, compile, a VM run on a stub
/// host (VM alone), a run on a real `Document` under the same per-host
/// defense (VM plus raster and `toDataURL` encode), and record extraction.
fn replay_probe(inputs: &Inputs, defense: DefenseMode, m: &mut Layers) {
    let network = &inputs.web.network;
    let scripts = ScriptCache::new();
    let analysis = AnalysisCache::new();
    let device = DeviceProfile::intel_ubuntu();
    let mut r = Replay::default();
    for page_url in inputs.popular.iter().chain(&inputs.tail) {
        let Some(Resource::Page(page)) = r.fetch(network, page_url) else {
            continue;
        };
        let mut doc = Document::new(device.clone());
        doc.set_defense(seeded_for_host(defense, &page_url.host).build());
        for script in &page.scripts {
            let (source, attributed) = match script {
                ScriptRef::Inline { source, .. } => (source.clone(), page_url.to_string()),
                ScriptRef::External(url) => match r.fetch(network, url) {
                    Some(Resource::Script(s)) => (s.source, url.to_string()),
                    _ => continue,
                },
            };
            let start = Instant::now();
            black_box(analysis.analyze(&source, Some(&scripts)));
            r.triage_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            let compiled = scripts.get_or_compile(&source);
            r.compile_ns += start.elapsed().as_nanos();
            let Ok(exec) = compiled else { continue };
            let start = Instant::now();
            let outcome = run_compiled_with_budget(
                &exec.bytecode,
                &mut StubHost::default(),
                DEFAULT_STEP_BUDGET,
            );
            r.vm_ns += start.elapsed().as_nanos();
            r.vm_steps += outcome.steps;
            doc.set_current_script(&attributed);
            let start = Instant::now();
            black_box(run_compiled_with_budget(
                &exec.bytecode,
                &mut doc,
                DEFAULT_STEP_BUDGET,
            ));
            r.document_ns += start.elapsed().as_nanos();
        }
        let start = Instant::now();
        let (_calls, extractions) = doc.into_records();
        r.records_ns += start.elapsed().as_nanos();
        r.extractions += extractions.len() as u64;
    }
    let vm_s = ns_to_s(r.vm_ns);
    m.insert("net.fetch_s", ns_to_s(r.fetch_ns));
    m.insert("net.fetches", r.fetches as f64);
    m.insert("analysis.triage_s", ns_to_s(r.triage_ns));
    m.insert("script.compile_s", ns_to_s(r.compile_ns));
    m.insert("script.vm_s", vm_s);
    m.insert("script.vm_steps", r.vm_steps as f64);
    m.insert(
        "script.vm_steps_per_s",
        if vm_s > 0.0 {
            r.vm_steps as f64 / vm_s
        } else {
            0.0
        },
    );
    m.insert("raster.render_s", ns_to_s(r.document_ns) - vm_s);
    m.insert("dom.records_s", ns_to_s(r.records_ns));
    m.insert("dom.extractions", r.extractions as f64);
}

/// Splits the supervised crawl's wall time: the same frontier visited
/// sequentially through `SiteCrawler::visit`, those records spilled
/// through a `SegmentWriter` in 64-record segments, and
/// `merge_supervised` re-run on the envelope's own spill directory. What
/// the three leave of the envelope's `crawler.supervise` span is the
/// supervision protocol's own cost.
fn supervision_probe(
    inputs: &Inputs,
    product: &Product,
    supervise_s: f64,
    tally: &mut Tally,
    work_dir: &Path,
    m: &mut Layers,
) -> io::Result<Vec<String>> {
    let Product::Dataset { report, spill, .. } = product else {
        unreachable!("only the supervised crawl produces a dataset");
    };
    let network = &inputs.web.network;
    let frontier = &inputs.popular;
    let config = inputs.control_config();
    let caches = config.build_caches();
    let plan = BreakerPlan::plan(network, frontier, &config);
    let crawler = SiteCrawler::new(network, frontier, &config, &caches, plan.as_ref());
    let start = Instant::now();
    let records: Vec<SiteRecord> = (0..frontier.len()).map(|i| crawler.visit(i)).collect();
    let visit_s = start.elapsed().as_secs_f64();
    let mut stats = CrawlStats::snapshot(&caches);
    stats.sites = records.len() as u64;
    tally.add_stats(&stats);
    tally.add_caches(&caches);

    let probe_dir = SpillDir::create(work_dir)?;
    let start = Instant::now();
    let mut writer =
        SegmentWriter::create(probe_dir.path(), &config.label, &config.device.id, 0, 64)?;
    for record in &records {
        writer.append(record)?;
    }
    writer.finish()?;
    let spill_s = start.elapsed().as_secs_f64();
    drop((probe_dir, records));

    let start = Instant::now();
    let (merged, _) = merge_supervised(network, frontier, &config, spill.path(), None)?;
    let merge_s = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if dataset_digest(&merged) != product.digest() {
        problems.push("re-merging the spill directory changed the dataset".into());
    }
    let mut spill_bytes = 0;
    for entry in std::fs::read_dir(spill.path())? {
        spill_bytes += entry?.metadata()?.len();
    }

    m.insert("crawler.visit_s", visit_s);
    m.insert("crawler.spill_s", spill_s);
    m.insert("crawler.merge_s", merge_s);
    m.insert(
        "crawler.supervision_self_s",
        supervise_s - visit_s - spill_s - merge_s,
    );
    m.insert("crawler.spill_bytes", spill_bytes as f64);
    m.insert(
        "crawler.segments",
        list_supervised_segments(spill.path(), None)?.len() as f64,
    );
    m.insert("crawler.workers_launched", report.workers_launched as f64);
    m.insert("crawler.workers_crashed", report.workers_crashed as f64);
    m.insert("crawler.records_redone", report.records_redone as f64);
    m.insert(
        "crawler.duplicates_dropped",
        report.merge.duplicates_dropped as f64,
    );
    m.insert("crawler.wasted_work_ratio", report.wasted_work_ratio());
    Ok(problems)
}

const DOCUMENT: HostRef = 1;
const WINDOW: HostRef = 2;
const NAVIGATOR: HostRef = 3;
/// Handles below this are the three globals.
const FIRST_OBJECT: HostRef = 16;

/// A host object of [`StubHost`].
#[derive(Debug, Clone, Copy)]
enum StubObject {
    Canvas { width: f64, height: f64 },
    Context { canvas: HostRef },
    TextMetrics,
    ImageData { width: f64, height: f64 },
    Gradient,
}

/// A host that answers the canvas calls the generated scripts make with
/// values of the right shape and draws nothing, so a script run on it
/// times the bytecode VM alone.
#[derive(Debug, Default)]
struct StubHost {
    objects: Vec<StubObject>,
}

impl StubHost {
    fn alloc(&mut self, object: StubObject) -> Value {
        self.objects.push(object);
        Value::Host(FIRST_OBJECT + self.objects.len() as HostRef - 1)
    }

    fn object(&mut self, handle: HostRef) -> Option<&mut StubObject> {
        let index = usize::try_from(handle.checked_sub(FIRST_OBJECT)?).ok()?;
        self.objects.get_mut(index)
    }
}

impl Host for StubHost {
    fn global(&mut self, name: &str) -> Option<Value> {
        match name {
            "document" => Some(Value::Host(DOCUMENT)),
            "window" => Some(Value::Host(WINDOW)),
            "navigator" => Some(Value::Host(NAVIGATOR)),
            _ => None,
        }
    }

    fn get_prop(&mut self, obj: HostRef, name: &str) -> Result<Value, RuntimeError> {
        if obj == NAVIGATOR {
            return Ok(match name {
                "userAgent" => Value::Str("Mozilla/5.0 (X11; Linux x86_64)".into()),
                "webdriver" => Value::Bool(false),
                _ => Value::Null,
            });
        }
        Ok(match (self.object(obj).copied(), name) {
            (Some(StubObject::Canvas { width, .. }), "width")
            | (Some(StubObject::ImageData { width, .. }), "width") => Value::Num(width),
            (Some(StubObject::Canvas { height, .. }), "height")
            | (Some(StubObject::ImageData { height, .. }), "height") => Value::Num(height),
            (Some(StubObject::ImageData { width, height }), "data") => {
                Value::array(vec![Value::Num(0.0); (width * height * 4.0) as usize])
            }
            (Some(StubObject::Context { canvas }), "canvas") => Value::Host(canvas),
            (Some(StubObject::Context { .. }), "fillStyle" | "strokeStyle") => {
                Value::Str("#000000".into())
            }
            (Some(StubObject::Context { .. }), "globalAlpha") => Value::Num(1.0),
            (Some(StubObject::Context { .. }), "globalCompositeOperation") => {
                Value::Str("source-over".into())
            }
            (Some(StubObject::TextMetrics), "width") => Value::Num(64.0),
            _ => Value::Null,
        })
    }

    fn set_prop(&mut self, obj: HostRef, name: &str, value: Value) -> Result<(), RuntimeError> {
        if let Some(StubObject::Canvas { width, height }) = self.object(obj) {
            let size = value.as_num().unwrap_or(0.0).max(0.0).floor();
            match name {
                "width" => *width = size,
                "height" => *height = size,
                _ => {}
            }
        }
        Ok(())
    }

    fn call_method(
        &mut self,
        obj: HostRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        if obj == DOCUMENT {
            return Ok(match method {
                "createElement" => self.alloc(StubObject::Canvas {
                    width: 300.0,
                    height: 150.0,
                }),
                _ => Value::Null,
            });
        }
        let arg = |i: usize| args.get(i).and_then(Value::as_num).unwrap_or(0.0).max(0.0);
        Ok(match (self.object(obj).copied(), method) {
            (Some(StubObject::Canvas { .. }), "getContext") => match args.first() {
                Some(Value::Str(kind)) if kind == "2d" => {
                    self.alloc(StubObject::Context { canvas: obj })
                }
                _ => Value::Null,
            },
            (Some(StubObject::Canvas { .. }), "toDataURL") => {
                Value::Str("data:image/png;base64,".into())
            }
            (Some(StubObject::Context { .. }), "measureText") => {
                self.alloc(StubObject::TextMetrics)
            }
            (Some(StubObject::Context { .. }), "createLinearGradient" | "createRadialGradient") => {
                self.alloc(StubObject::Gradient)
            }
            (Some(StubObject::Context { .. }), "getImageData") => {
                self.alloc(StubObject::ImageData {
                    width: arg(2).floor(),
                    height: arg(3).floor(),
                })
            }
            (Some(StubObject::Context { .. }), "isPointInPath") => Value::Bool(false),
            _ => Value::Null,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;
    use crate::workloads::{run, setup};
    use canvassing_script::compile;
    use std::collections::BTreeSet;

    /// Every workload's code path at scale 0.02, untraced and traced: the
    /// output invariants hold, both forms produce the same digest, the
    /// supervised crawl merges to the direct crawl, and the per-layer
    /// metrics are legal, finite, and together cover `BENCHMARK.json`.
    #[test]
    fn small_scale_smoke_run_of_every_workload() {
        let spec = Spec::load();
        let named: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(named, Workload::ALL.map(Workload::name));
        let work_dir = SpillDir::create(&std::env::temp_dir()).unwrap();
        let dir = work_dir.path();
        let mut seen = BTreeSet::new();
        for workload in Workload::ALL {
            let (inputs, times) = setup(7, 0.02, 2);
            let untraced = run(
                workload,
                &inputs,
                dir,
                &mut Tracer::disabled(),
                &mut Tally::default(),
            )
            .unwrap();
            assert_eq!(untraced.problems(&inputs), Vec::<String>::new());
            if workload == Workload::SupervisedCrawl {
                assert_eq!(untraced.digest(), inputs.direct_crawl_digest());
            }

            let (mut tracer, mut tally) = (Tracer::enabled(), Tally::default());
            let root = tracer.enter("envelope");
            let traced = run(workload, &inputs, dir, &mut tracer, &mut tally).unwrap();
            tracer.exit(root);
            assert_eq!(traced.digest(), untraced.digest(), "{}", workload.name());
            let env = Envelope {
                workload,
                inputs: &inputs,
                setups: &[times],
                tracer: &mut tracer,
                root: root.unwrap(),
                product: &traced,
                tally,
                rss_growth_mb: 0.0,
                overhead_frac: 0.0,
            };
            let (layers, problems) = per_layer(env, dir).unwrap();
            assert_eq!(problems, Vec::<String>::new());
            for (name, value) in &layers {
                assert!(spec.per_layer.iter().any(|m| m.name == *name), "{name}");
                assert!(value.is_finite(), "{name} = {value}");
            }
            assert!(layers["trace.coverage_frac"] > 0.9, "{}", workload.name());
            assert!(layers["crawler.failed"] > 0.0, "{}", workload.name());
            let positive = match workload {
                Workload::StreamStudy => ["core.absorb_s", "blocklist.lookups", "core.finish_s"],
                Workload::PaperStudy => [
                    "crawler.recrawl_s",
                    "browser.adblock_checks",
                    "core.fingerprinting_sites",
                ],
                Workload::DefendedCrawl => [
                    "raster.render_s",
                    "browser.script_executions",
                    "crawler.crawl_s",
                ],
                Workload::SupervisedCrawl => {
                    ["crawler.spill_bytes", "crawler.visit_s", "crawler.sites"]
                }
            };
            for name in positive {
                assert!(layers[name] > 0.0, "{}: {name}", workload.name());
            }
            seen.extend(layers.into_keys());
        }
        let all: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            seen, all,
            "some per-layer metric is computed by no workload"
        );
    }

    #[test]
    fn stub_host_runs_a_fingerprinting_script_without_drawing() {
        let source = r##"
            let c = document.createElement("canvas");
            c.width = 40; c.height = 16;
            let x = c.getContext("2d");
            x.fillStyle = "#069";
            x.fillText("probe", 2, 12);
            let w = x.measureText("probe").width;
            let d = x.getImageData(0, 0, 2, 2).data;
            c.toDataURL() + w + d.length + c.width;
        "##;
        let program = canvassing_script::parse(source).unwrap();
        let bytecode = compile(&program);
        let out =
            run_compiled_with_budget(&bytecode, &mut StubHost::default(), DEFAULT_STEP_BUDGET);
        let value = out.result.expect("stub answers every call");
        assert_eq!(value.to_display_string(), "data:image/png;base64,641640");
        assert!(out.steps > 0);
    }

    #[test]
    fn defense_seeding_is_per_host() {
        let base = DefenseMode::RandomizePerRender { seed: 7 };
        assert_ne!(
            seeded_for_host(base, "a.com"),
            seeded_for_host(base, "b.com")
        );
        assert_eq!(
            seeded_for_host(DefenseMode::None, "a.com"),
            DefenseMode::None
        );
    }
}
