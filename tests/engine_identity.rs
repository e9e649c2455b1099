//! Engine identity gate: the bytecode VM that runs every crawl against
//! the tree-walking interpreter kept as its oracle, on the real workload.
//!
//! The corpus is every (page, script) pair the scale-0.2, seed-2025
//! popular crawl executes, in visit order. Each site's scripts run on a
//! real `Document` — rasterizer, readback and instrumentation included —
//! once with no defense and once under per-render randomization keyed
//! per host, exactly as `Browser::visit` sets a page up. Both engines
//! must return the same outcome (result, error and step count) for every
//! script and leave the same API-call and extraction records behind. A
//! second pass repeats the comparison with every script's budget cut to
//! half its full-budget step count, so both engines starve at the same
//! step.
//!
//! The seeded-program differential suite in `canvassing-script` covers
//! the language corners; this gate covers the host surface the corpus
//! actually uses.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

use canvassing_browser::DefenseMode;
use canvassing_crawler::CrawlConfig;
use canvassing_dom::{ApiCall, Document, Extraction};
use canvassing_net::{Resource, ScriptRef, Url};
use canvassing_script::{
    run_compiled_with_budget, run_with_budget, source_hash, EvalOutcome, ExecutableScript,
    ScriptCache, DEFAULT_STEP_BUDGET,
};
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

/// One script execution of a visit: the compiled body and the URL the
/// document attributes its canvas activity to.
struct Job {
    attributed_url: String,
    source: String,
    script: ExecutableScript,
}

/// One site's script executions, plus the host that keys the defense
/// noise.
struct Site {
    host: String,
    jobs: Vec<Job>,
}

/// Walks the popular frontier once and collects every (page, script)
/// execution a crawl performs, in visit order. Fetches retry a few
/// attempts like the crawler does; persistently unreachable resources
/// are skipped (a crawl executes nothing for them either).
fn corpus() -> &'static [Site] {
    static CORPUS: OnceLock<Vec<Site>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 2025,
            scale: 0.2,
        });
        let cache = ScriptCache::new();
        let fetch =
            |url: &Url| (0..4).find_map(|attempt| web.network.fetch_attempt(url, attempt).ok());
        let job = |attributed_url: String, source: String| Job {
            script: cache.get_or_compile(&source).expect("corpus parses"),
            attributed_url,
            source,
        };
        let mut sites = Vec::new();
        for page_url in web.frontier(Cohort::Popular) {
            let Some(Resource::Page(page)) = fetch(&page_url).map(|r| r.resource) else {
                continue;
            };
            let mut jobs = Vec::new();
            for script_ref in &page.scripts {
                match script_ref {
                    ScriptRef::Inline { source, .. } => {
                        jobs.push(job(page_url.to_string(), source.clone()))
                    }
                    ScriptRef::External(url) => {
                        if let Some(Resource::Script(s)) = fetch(url).map(|r| r.resource) {
                            jobs.push(job(url.to_string(), s.source));
                        }
                    }
                }
            }
            sites.push(Site {
                host: page_url.host.clone(),
                jobs,
            });
        }
        sites
    })
}

/// The defense a crawl with `mode` applies on `host`: randomization
/// seeds mix in the page host, as `Browser::visit` does.
fn defense_for(mode: DefenseMode, host: &str) -> DefenseMode {
    match mode {
        DefenseMode::RandomizePerRender { seed } => {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in host.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            DefenseMode::RandomizePerRender { seed: seed ^ h }
        }
        other => other,
    }
}

/// The study's two defense settings for this gate.
const DEFENSES: [DefenseMode; 2] = [
    DefenseMode::None,
    DefenseMode::RandomizePerRender { seed: 1 },
];

type Engine = fn(&ExecutableScript, &mut Document, u64) -> EvalOutcome;

fn tree_walker(script: &ExecutableScript, doc: &mut Document, budget: u64) -> EvalOutcome {
    run_with_budget(&script.program, doc, budget)
}

fn vm(script: &ExecutableScript, doc: &mut Document, budget: u64) -> EvalOutcome {
    run_compiled_with_budget(&script.bytecode, doc, budget)
}

/// What one engine's run of a site leaves behind: each script's outcome
/// and step count, and the document's records.
struct SiteRun {
    outcomes: Vec<String>,
    steps: Vec<u64>,
    records: (Vec<ApiCall>, Vec<Extraction>),
}

fn run_site(site: &Site, mode: DefenseMode, budgets: &[u64], engine: Engine) -> SiteRun {
    let mut doc = Document::new(CrawlConfig::control().device);
    doc.set_defense(defense_for(mode, &site.host).build());
    let mut outcomes = Vec::with_capacity(site.jobs.len());
    let mut steps = Vec::with_capacity(site.jobs.len());
    for (job, &budget) in site.jobs.iter().zip(budgets) {
        doc.set_current_script(&job.attributed_url);
        let outcome = engine(&job.script, &mut doc, budget);
        steps.push(outcome.steps);
        outcomes.push(format!("{outcome:?}"));
    }
    SiteRun {
        outcomes,
        steps,
        records: doc.into_records(),
    }
}

/// Runs `site` through both engines and asserts they agree; returns the
/// per-script step counts.
fn assert_engines_agree(site: &Site, mode: DefenseMode, budgets: &[u64]) -> Vec<u64> {
    let oracle = run_site(site, mode, budgets, tree_walker);
    let fast = run_site(site, mode, budgets, vm);
    for (i, (o, f)) in oracle.outcomes.iter().zip(&fast.outcomes).enumerate() {
        assert_eq!(
            f,
            o,
            "{}: VM outcome of script {i} ({}) diverged under {} at budget {}",
            site.host,
            site.jobs[i].attributed_url,
            mode.name(),
            budgets[i]
        );
    }
    assert!(
        fast.records == oracle.records,
        "{}: VM document records diverged under {}",
        site.host,
        mode.name()
    );
    fast.steps
}

#[test]
fn corpus_runs_identically_on_both_engines_with_and_without_defense() {
    let sites = corpus();
    let mut executions = 0usize;
    let mut steps = [0u64; DEFENSES.len()];
    for site in sites {
        executions += site.jobs.len();
        let budgets = vec![DEFAULT_STEP_BUDGET; site.jobs.len()];
        for (total, &mode) in steps.iter_mut().zip(&DEFENSES) {
            *total += assert_engines_agree(site, mode, &budgets)
                .iter()
                .sum::<u64>();
        }
    }
    let mut bodies: Vec<u64> = sites
        .iter()
        .flat_map(|s| &s.jobs)
        .map(|j| source_hash(&j.source))
        .collect();
    bodies.sort_unstable();
    bodies.dedup();
    // The workload itself is pinned, so a generator change that shrinks
    // the corpus cannot quietly weaken this gate.
    assert_eq!(sites.len(), 3442, "sites");
    assert_eq!(bodies.len(), 148, "unique scripts");
    assert_eq!(executions, 1005, "script executions");
    assert_eq!(
        steps,
        [81942, 81574],
        "total steps, undefended and defended"
    );
}

#[test]
fn fuel_starved_corpus_runs_identically_on_both_engines() {
    for site in corpus() {
        let full = vec![DEFAULT_STEP_BUDGET; site.jobs.len()];
        for &mode in &DEFENSES {
            let half: Vec<u64> = run_site(site, mode, &full, vm)
                .steps
                .iter()
                .map(|s| s / 2)
                .collect();
            assert_engines_agree(site, mode, &half);
        }
    }
}
