//! `benchmark` — one benchmark for the crawl → analyze pipeline: four
//! workloads, end-to-end metrics a user of the pipeline sees, and a traced
//! per-layer breakdown that says which layer moved.
//!
//! ```text
//! cargo run --release -p canvassing-bench --bin benchmark -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release -p canvassing-bench --bin benchmark -- \
//!     [--workload NAME]... [--runs K] [--seed N] [--seconds S] [--trace 0|1]
//!     [--out PATH] [--baseline PATH]
//! ```
//!
//! The same sources also build as a package of their own, so the benchmark
//! runs against any checkout of the crates:
//! `cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- ARGS`.
//!
//! With exactly one `--workload` and no `--runs`, the command is **one
//! run**: it prints `workload metric value unit` lines and, as the last
//! line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Otherwise it
//! **orchestrates** `K` runs (default 5) of every named workload (default
//! all), each a fresh child process of this binary so `VmHWM` and the
//! caches are per run, interleaved round-robin across workloads, run `i`
//! on seed `N + i`. It prints each metric's median, quartiles, spread and
//! run count and writes them to `--out` (default
//! `target/benchmark/summary.json`); with `--baseline` it judges every
//! end-to-end metric against an earlier summary, run `i` against run `i`,
//! as regressed, unchanged, improved or unresolved ([`spec::verdict`]).
//! Either form exits non-zero when any output check fails. The default
//! seed is 2025 and the default run length is `run_seconds` of
//! `BENCHMARK.json`; metric names, units, directions and bounds all come
//! from that file, compiled in.
//!
//! # Workloads
//!
//! The seed drives `WebConfig::seed`, the per-render defense noise and
//! `FaultScript::seeded`; the pipeline only ever sees the generated web.
//! Scale 1.0 is the paper's 2 × 20k sites. Operation times are on two
//! vCPUs of a shared host in its fast state; in its slow state, which can
//! last the better part of an hour, they grow by up to 1.8×.
//!
//! * `stream_study` — `run_study_streamed`, control crawls only (ad-block,
//!   M1, defense sweep, serving and trace off), no spill; scale 3.0 (120k
//!   sites, ~24 s, ~3.7 GB). The million-site path in miniature: memo
//!   replay makes the crawl cheap, so the serial
//!   `CohortAccumulator::absorb` sink and its blocklist coverage lookups
//!   dominate, and the per-site cost that grows with scale shows.
//! * `paper_study` — `run_study_streamed` with `StudyOptions::default()`:
//!   control crawls plus AdblockPlus, uBlock Origin and M1 re-crawls;
//!   scale 1.0 (40k control sites, ~12 s, ~3.2 GB). What `repro` users
//!   wait for; it uses the blocklist a second way (per-request
//!   `Extension::check_script`) and the batch path that materializes
//!   datasets.
//! * `defended_crawl` — `crawl_streamed` over both cohorts under
//!   `DefenseMode::RandomizePerRender`, folded into `CohortAccumulator`;
//!   scale 0.75 (30k sites, ~9 s, ~2.5 GB). The render memo is bypassed,
//!   so every script runs on a real `Document`: a VM or raster gain shows
//!   here and in neither study, whose crawls execute no script in place.
//! * `supervised_crawl` — `supervise_crawl` of the popular frontier with
//!   `SupervisorConfig::new(4)` and `FaultScript::seeded(seed, 4)`, merge
//!   included, spilling under `target/benchmark/` (a run reads and writes
//!   only below the directory it runs in); scale 0.5 (10k sites, ~12 s,
//!   ~1.4 GB, ~0.5 GB spilled). The only code that spills: lease and segment writes
//!   beside recovery and merge reads.
//!
//! # Load model
//!
//! One process generates all load as a closed loop: the crawler runs
//! `available_parallelism()` workers, each claiming the next site only
//! after finishing its previous one, and the benchmark starts the next
//! operation only after the previous one returned. No other load thread
//! runs.
//!
//! # Run and setup rules
//!
//! * **Setup** — web generation, list parsing and frontier building — is
//!   untimed. It runs [`SETUP_REPEATS`] times per run, one web alive at a
//!   time, and its median is `setup_s`. The supervised crawl's reference
//!   (a direct `crawl_with_stats` of the same frontier) is computed after
//!   setup, outside both setup time and the timed phase.
//! * **Timed phase** — operations run back to back for `--seconds`: one
//!   more starts only while the last one's wall time still fits before the
//!   deadline, and at least one runs. Caches start cold in every
//!   operation, because a user pays cold caches on every study.
//! * **Output checks** — each operation's output digest (FNV-1a of the
//!   rendered report for the studies, of the two `CohortAnalysis` JSONs
//!   for `defended_crawl`, of the merged dataset's JSON for
//!   `supervised_crawl`) must be the same in every operation of a run, and
//!   at seed 2025 must equal [`Workload::seed_2025_digest`]. The
//!   supervised dataset must equal the direct crawl's. Every cohort must
//!   account for each site exactly once: successes plus failures equal
//!   sites attempted. An operation that fails a check counts in `failed`
//!   and makes the run incorrect.
//!
//! # End-to-end metrics (untraced runs; medians over a run's operations)
//!
//! * `sites_per_s` — frontier sites ÷ operation wall seconds (for
//!   `paper_study`, the control sites of both cohorts).
//! * `cpu_ms_per_site` — process user + system CPU over the operation ÷ sites.
//! * `setup_s` — median setup wall seconds. [`spec::verdict`] lets it
//!   worsen by its bound or [`spec::SETUP_FLOOR_S`], whichever is larger.
//! * `peak_rss_mb` — `VmHWM` over the timed phase: it is reset through
//!   `/proc/self/clear_refs` when the phase starts, so setup and the
//!   supervised reference crawl stay out of it.
//! * `failed_frac` — failure records ÷ sites attempted. It is a property of
//!   the generated web; for a given seed it is exact, and the output
//!   digests pin it.
//!
//! # Traced runs and per-layer metrics
//!
//! `--trace 1` runs one operation, the **envelope**: the same code as an
//! untraced operation, with spans `(name, start, end, parent)` recorded in
//! memory by this benchmark around each call into a layer — for the
//! studies, around the one `run_study_streamed` call. **Probe passes**
//! follow it and re-invoke sub-steps the envelope cannot see into, under
//! span roots of their own. All spans are written as JSONL to
//! `target/benchmark/trace-<workload>-seed<N>.jsonl`.
//! A metric of a layer the workload does not exercise reads 0, as does a
//! percentile with fewer than ten samples beyond it. Each metric, the
//! end-to-end metric it should move, and where:
//!
//! | metrics | source | should move | workload |
//! |---|---|---|---|
//! | `webgen.generate_s`, `blocklist.parse_s` | setup timings | `setup_s` | all |
//! | `crawler.crawl_s` (crawl wall minus sink time), `crawler.chunk_p50_ms`, `crawler.chunk_p90_ms` (gaps between 512-site chunk deliveries) | envelope (`defended_crawl`); sink probe: both control crawls re-run through `crawl_streamed` into `CohortAccumulator` (studies) | `sites_per_s` | `defended_crawl`; a small share of `stream_study` |
//! | `core.absorb_s`, `core.absorb_p50_us`, `core.absorb_p99_us`, `core.finish_s` (`finish`, plus `bytecode_triage` for the studies) | as above | `sites_per_s`, `cpu_ms_per_site` | `stream_study` (dominant), `defended_crawl` |
//! | `core.detect_s`, `blocklist.match_s`, `blocklist.lookups`, `blocklist.match_ns_per_lookup`, `blocklist.rules` | detect probe: a re-crawl re-invoking `detect` and the three coverage lookups per fingerprintable canvas | their shares of `core.absorb_s`, hence `sites_per_s` | `stream_study` |
//! | `core.rss_growth_mb` (peak `VmRSS` of the envelope minus `VmRSS` before it), `crawler.rss_growth_mb` (the same for the detect probe's re-crawl, which keeps no sink state, after free heap pages went back to the kernel), `core.fingerprinting_sites`, `script.cache_entries`, `browser.memo_entries`, `analysis.cache_entries` (largest cache of any one crawl) | `/proc`, the output, `len()` | `peak_rss_mb` | `stream_study`, `defended_crawl` |
//! | `crawler.sites`, `crawler.failed`, `script.parses`, `script.compiles`, `script.cache_hits`, `script.cache_hit_rate`, `browser.script_executions`, `browser.memo_hits`, `browser.memo_computes`, `browser.memo_bypasses`, `browser.memo_hit_rate`, `analysis.static_analyses`, `analysis.cache_hits` | `CrawlStats` of the crawls above (for `supervised_crawl`, the visit probe's); failures of the output | ratios with their base; `crawler.failed` sets `failed_frac` | every crawl |
//! | `net.fetch_s`, `net.fetches`, `analysis.triage_s`, `script.compile_s`, `script.vm_s` (stub host), `script.vm_steps`, `script.vm_steps_per_s`, `raster.render_s` (`Document` run minus stub run, `toDataURL` encode included), `dom.records_s`, `dom.extractions` | replay probe: single-threaded replay of every (page, script) pair with fresh caches and the crawl's per-host defense seeding | `sites_per_s`, `cpu_ms_per_site` | `defended_crawl`; the studies execute no script in place |
//! | `crawler.supervise_s`; `crawler.visit_s` (sequential `SiteCrawler::visit`), `crawler.spill_s` (`SegmentWriter`, 64 records per segment), `crawler.merge_s` (`merge_supervised` on the envelope's spill), `crawler.spill_bytes`, `crawler.segments` (the envelope's spill), `crawler.supervision_self_s` = supervise − visit − spill − merge | envelope plus probes | `sites_per_s`, `peak_rss_mb` | `supervised_crawl` |
//! | `crawler.workers_launched`, `crawler.workers_crashed`, `crawler.records_redone`, `crawler.duplicates_dropped`, `crawler.wasted_work_ratio` | `SupervisionReport` | useful over attempted work, hence `sites_per_s` | `supervised_crawl` |
//! | `crawler.recrawl_s` (the five batch re-crawls), `browser.adblock_check_s`, `browser.adblock_checks`, `browser.adblock_blocks` (`Extension::check_script` over every external script reference) | probes | `sites_per_s`, `peak_rss_mb` | `paper_study` |
//! | `trace.coverage_frac` (share of the envelope covered by its top-level spans), `trace.overhead_frac` (spans recorded × the cost of one span, timed in the same process, ÷ envelope wall) | spans | none: health checks of the traced run | all |
//!
//! Traced and untraced operations run the same code, so what tracing adds
//! is the cost of recording the spans. `trace.overhead_frac` measures that
//! directly: the wall time of two operations differs by up to a tenth from
//! one to the next on a shared two-vCPU host, more than the overhead it
//! would have to resolve.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod probes;
mod proc;
mod spec;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::spec::{allowed_worsening, median, quartiles, spread, verdict, Spec};
use crate::trace::Tracer;
use crate::workloads::{run, setup, Inputs, SetupTimes, Tally, Workload};

/// Setups per run; their median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Where spans, spill directories and summaries go, relative to the
/// directory the command runs from.
const WORK_DIR: &str = "target/benchmark";
/// The seed of the committed output digests and the default.
const DEFAULT_SEED: u64 = 2025;
/// Runs per workload when orchestrating.
const DEFAULT_RUNS: usize = 5;

/// One metric value as printed.
#[derive(Debug, Serialize, Deserialize)]
struct Measured {
    value: f64,
    unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Serialize, Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

/// One metric over an orchestrated set of runs.
#[derive(Debug, Serialize, Deserialize)]
struct Summary {
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    runs: Option<usize>,
    out: PathBuf,
    baseline: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--runs K] [--out PATH] [--baseline PATH]";

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        traced: false,
        runs: None,
        out: Path::new(WORK_DIR).join("summary.json"),
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads.push(w);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = Some(number(value()?)?.max(1) as usize),
            "--out" => args.out = value()?.into(),
            "--baseline" => args.baseline = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(&spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workloads.as_slice(), args.runs) {
        ([workload], None) => single_run(&spec, *workload, &args),
        _ => orchestrate(&spec, &args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks that hold for every product of a run: the invariants, the same
/// digest throughout, the committed digest at seed 2025, and for the
/// supervised crawl the digest of a direct crawl.
struct Checker {
    first_digest: Option<u64>,
    expected: Vec<u64>,
}

impl Checker {
    fn new(workload: Workload, inputs: &Inputs) -> Checker {
        let mut expected = Vec::new();
        if inputs.seed == DEFAULT_SEED {
            expected.push(workload.seed_2025_digest());
        }
        if workload == Workload::SupervisedCrawl {
            expected.push(inputs.direct_crawl_digest());
        }
        Checker {
            first_digest: None,
            expected,
        }
    }

    fn problems(&mut self, product: &workloads::Product, inputs: &Inputs) -> Vec<String> {
        let mut problems = product.problems(inputs);
        let digest = product.digest();
        let first = *self.first_digest.get_or_insert(digest);
        if digest != first {
            problems.push(format!(
                "output digest {digest:016x} differs from {first:016x}"
            ));
        }
        for expected in self.expected.iter().filter(|&&e| e != digest) {
            problems.push(format!(
                "output digest {digest:016x}, expected {expected:016x}"
            ));
        }
        problems
    }
}

/// The traced operation, once it passed its checks.
struct Envelope {
    tracer: Tracer,
    root: usize,
    tally: Tally,
    product: workloads::Product,
    wall: f64,
}

fn single_run(spec: &Spec, workload: Workload, args: &Args) -> Result<bool, String> {
    let work_dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take()); // one web alive at a time
        let (fresh, times) = setup(args.seed, workload.scale(), workers);
        setups.push(times);
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one setup");
    let mut checker = Checker::new(workload, &inputs);
    let sites = inputs.sites(workload) as f64;

    // A traced run has one operation, the envelope; like the first of an
    // untraced run it is its process's first, and the probes follow it.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut cpu_per_site = Vec::new();
    let mut failed_frac = Vec::new();
    let mut rss_growth_mb = 0.0;
    let mut envelope = None;
    let mut last_wall = Duration::ZERO;
    let rss_before_kb = proc::status_kb("VmRSS:").unwrap_or(0);
    proc::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while attempted == 0 || (!args.traced && Instant::now() + last_wall <= deadline) {
        attempted += 1;
        let mut tracer = if args.traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let mut tally = Tally::default();
        let cpu = proc::cpu_ms().unwrap_or(0.0);
        let start = Instant::now();
        let root = tracer.enter("envelope");
        let product = run(workload, &inputs, work_dir, &mut tracer, &mut tally);
        tracer.exit(root);
        last_wall = start.elapsed();
        let wall = last_wall.as_secs_f64();
        let cpu = proc::cpu_ms().unwrap_or(0.0) - cpu;
        if attempted == 1 {
            let peak_kb = proc::status_kb("VmHWM:").unwrap_or(0);
            rss_growth_mb = (peak_kb as f64 - rss_before_kb as f64) / 1024.0;
        }
        eprintln!("{} operation {attempted}: {wall:.3} s", workload.name());
        let product = match product {
            Ok(product) => product,
            Err(e) => {
                failed += 1;
                eprintln!("check failed: operation failed: {e}");
                continue;
            }
        };
        let problems = checker.problems(&product, &inputs);
        if !problems.is_empty() {
            failed += 1;
            problems.iter().for_each(|p| eprintln!("check failed: {p}"));
            continue;
        }
        walls.push(wall);
        cpu_per_site.push(cpu / sites);
        failed_frac.push(product.failures() as f64 / sites);
        if let Some(root) = root {
            envelope = Some(Envelope {
                tracer,
                root,
                tally,
                product,
                wall,
            });
        }
    }

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let mut problems = Vec::new();
    if args.traced {
        // Without an envelope the traced operation failed its checks, which
        // `failed` already reports.
        if let Some(mut envelope) = envelope {
            let spans = envelope.tracer.spans().len() as f64;
            let probed = probes::Envelope {
                workload,
                inputs: &inputs,
                setups: &setups,
                tracer: &mut envelope.tracer,
                root: envelope.root,
                product: &envelope.product,
                tally: envelope.tally,
                rss_growth_mb,
                overhead_frac: spans * trace::span_cost_ns() / (envelope.wall * 1e9),
            };
            let (layers, probe_problems) =
                probes::per_layer(probed, work_dir).map_err(|e| format!("probe failed: {e}"))?;
            metrics.extend(layers);
            problems.extend(probe_problems);
            write_spans(&envelope.tracer, workload, inputs.seed, work_dir)?;
        }
    } else {
        let per_s: Vec<f64> = walls.iter().map(|wall| sites / wall).collect();
        metrics.insert("sites_per_s", median(&per_s));
        metrics.insert("cpu_ms_per_site", median(&cpu_per_site));
        metrics.insert(
            "setup_s",
            median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        );
        let peak_kb = proc::status_kb("VmHWM:").unwrap_or(0);
        metrics.insert("peak_rss_mb", peak_kb as f64 / 1024.0);
        metrics.insert("failed_frac", median(&failed_frac));
    }

    let mut result = RunResult {
        correct: false,
        attempted,
        failed,
        metrics: BTreeMap::new(),
    };
    for (name, unit, _) in spec.printed(args.traced) {
        let value = match metrics.remove(name) {
            Some(v) if v.is_finite() => v,
            // A layer this workload does not exercise.
            None if args.traced => 0.0,
            other => {
                problems.push(format!("metric {name} reads {other:?}"));
                0.0
            }
        };
        println!("{} {name} {value} {unit}", workload.name());
        result.metrics.insert(
            name.to_string(),
            Measured {
                value,
                unit: unit.to_string(),
            },
        );
    }
    problems.extend(
        metrics
            .keys()
            .map(|name| format!("metric {name} is not in BENCHMARK.json")),
    );
    problems.iter().for_each(|p| eprintln!("check failed: {p}"));
    result.correct = failed == 0 && problems.is_empty();
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(result.correct)
}

/// Writes the run's spans as JSONL under `work_dir`.
fn write_spans(
    tracer: &Tracer,
    workload: Workload,
    seed: u64,
    work_dir: &Path,
) -> Result<(), String> {
    let run_id = format!("{}-seed{seed}", workload.name());
    let path = work_dir.join(format!("trace-{run_id}.jsonl"));
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut out, &run_id)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn orchestrate(spec: &Spec, args: &Args) -> Result<bool, String> {
    let workloads = if args.workloads.is_empty() {
        let named = spec.workloads.iter().map(|w| Workload::parse(&w.name));
        named
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json names a workload this program lacks")?
    } else {
        args.workloads.clone()
    };
    for w in spec
        .workloads
        .iter()
        .filter(|w| workloads.iter().any(|&chosen| chosen.name() == w.name))
    {
        eprintln!("{}: {}", w.name, w.why);
    }
    let runs = args.runs.unwrap_or(DEFAULT_RUNS);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    let mut all_ok = true;
    for i in 0..runs {
        for &workload in &workloads {
            let seed = args.seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let Ok(result) = serde_json::from_str::<RunResult>(last) else {
                eprintln!(
                    "{} seed {seed}: no result ({})",
                    workload.name(),
                    output.status
                );
                all_ok = false;
                continue;
            };
            all_ok &= output.status.success() && result.correct;
            eprintln!(
                "{} seed {seed}: correct={} attempted={} failed={}",
                workload.name(),
                result.correct,
                result.attempted,
                result.failed
            );
            results.entry(workload.name()).or_default().push(result);
        }
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("nproc {workers}, crawl workers {workers}");
    let mut summaries: BTreeMap<String, BTreeMap<String, Summary>> = BTreeMap::new();
    for (workload, runs) in &results {
        for (name, unit, better) in spec.printed(args.traced) {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(name).map(|m| m.value))
                .collect();
            let (q1, med, q3) = quartiles(&values);
            println!(
                "{workload} {name} {med} {unit} q1={q1} q3={q3} n={} spread={:.4} ({better} is better)",
                values.len(),
                spread(&values)
            );
            let summary = Summary {
                unit: unit.to_string(),
                median: med,
                q1,
                q3,
                values,
            };
            summaries
                .entry(workload.to_string())
                .or_default()
                .insert(name.to_string(), summary);
        }
    }
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(&summaries).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, json).map_err(|e| format!("{}: {e}", args.out.display()))?;
    eprintln!("summary written to {}", args.out.display());

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let parent: BTreeMap<String, BTreeMap<String, Summary>> =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for (workload, metrics) in &summaries {
            for m in &spec.end_to_end {
                let (Some(change), Some(base)) = (
                    metrics.get(&m.name),
                    parent.get(workload).and_then(|p| p.get(&m.name)),
                ) else {
                    continue;
                };
                let allowed = allowed_worsening(m, base.median);
                let v = verdict(m.better == "lower", allowed, &base.values, &change.values);
                println!(
                    "{workload} {} {v:?}: median {} -> {} {} (may worsen by {allowed})",
                    m.name, base.median, change.median, m.unit
                );
            }
        }
    }
    Ok(all_ok)
}
