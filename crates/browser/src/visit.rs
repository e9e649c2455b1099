//! The page-visit pipeline: fetch → consent → scripts → user simulation.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use canvassing_dom::{ApiCall, Document, Extraction};
use canvassing_net::{FetchError, Network, Resource, ScriptRef, Url};
use canvassing_raster::DeviceProfile;
use canvassing_script::DEFAULT_STEP_BUDGET;
use canvassing_trace::VisitRecorder;
use serde::{Deserialize, Serialize};

use crate::defenses::DefenseMode;
use crate::extension::Extension;
use crate::memo::{eval_cached, CrawlCaches};

/// Why a whole page visit failed (maps to the paper's "crawled
/// unsuccessfully" sites).
#[derive(Debug, Clone, PartialEq)]
pub enum VisitError {
    /// Network-level failure fetching the top-level document.
    Fetch(FetchError),
    /// The URL resolved to something that is not a page.
    NotAPage(Url),
    /// The site's bot gate rejected the client.
    BotBlocked(Url),
    /// The visit blew its wall-clock deadline (simulated time: response
    /// latencies plus script execution charged at a fixed step rate).
    DeadlineExceeded(Url),
    /// The visit's total script-step fuel allowance ran out.
    FuelExhausted(Url),
    /// The crawler's per-host circuit breaker was open for this page's
    /// host: the visit was short-circuited without touching the network.
    CircuitOpen(Url),
}

impl std::fmt::Display for VisitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisitError::Fetch(e) => write!(f, "fetch failed: {e}"),
            VisitError::NotAPage(u) => write!(f, "not a page: {u}"),
            VisitError::BotBlocked(u) => write!(f, "bot gate rejected crawler at {u}"),
            VisitError::DeadlineExceeded(u) => write!(f, "visit deadline exceeded at {u}"),
            VisitError::FuelExhausted(u) => write!(f, "script fuel exhausted at {u}"),
            VisitError::CircuitOpen(u) => write!(f, "circuit open for host of {u}"),
        }
    }
}

impl std::error::Error for VisitError {}

/// A failed visit together with whatever evidence was gathered before it
/// died. The error says *why* the site dropped out; `partial` is the
/// salvage — everything the pipeline had already fetched, triaged, and
/// recorded (a pure function of `(network, url, config)`, so salvage is as
/// deterministic as success).
///
/// `partial` is `None` only when the failure preceded any page contact
/// (DNS/connect errors, a short-circuited visit): there is genuinely
/// nothing to keep. A visit that died *after* the page arrived — bot wall,
/// truncated body, blown deadline, exhausted fuel — keeps the page-level
/// facts and any scripts already processed, including their static triage
/// verdicts, which is what lets the study fall back to the static
/// classifier for these sites instead of discarding them.
#[derive(Debug)]
pub struct VisitAbort {
    /// Why the visit failed.
    pub error: VisitError,
    /// Evidence gathered before the failure, if the page was reached.
    pub partial: Option<Box<PageVisit>>,
}

impl VisitAbort {
    /// A failure with nothing salvageable.
    fn lost(error: VisitError) -> VisitAbort {
        VisitAbort {
            error,
            partial: None,
        }
    }
}

/// Interpreter steps charged as one millisecond of simulated wall-clock
/// time when enforcing the visit deadline.
const STEPS_PER_MS: u64 = 1_000;

/// Per-visit resource limits. Both knobs bound *simulated* quantities —
/// response latency and interpreter steps — so enforcement is exactly
/// reproducible across runs and worker counts (no real clocks involved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitPolicy {
    /// Simulated wall-clock deadline for the whole visit, in milliseconds.
    /// Response latencies count directly; script execution is charged at
    /// `STEPS_PER_MS` (1,000) steps per millisecond. `None` disables the check.
    pub deadline_ms: Option<u64>,
    /// Total interpreter-step fuel for all scripts on the page. `None`
    /// leaves each script bounded only by the interpreter's own
    /// [`DEFAULT_STEP_BUDGET`].
    pub fuel: Option<u64>,
}

impl Default for VisitPolicy {
    /// 30-second deadline (a typical page-load timeout), unlimited fuel.
    fn default() -> VisitPolicy {
        VisitPolicy {
            deadline_ms: Some(30_000),
            fuel: None,
        }
    }
}

impl VisitPolicy {
    /// No deadline, no fuel cap (scripts still hit the interpreter's own
    /// step budget).
    pub fn unlimited() -> VisitPolicy {
        VisitPolicy {
            deadline_ms: None,
            fuel: None,
        }
    }
}

/// A script request the extension blocked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockedScript {
    /// The URL the page referenced.
    pub url: Url,
    /// The filter rule that fired.
    pub rule: String,
}

/// A script that executed during the visit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadedScript {
    /// The URL the instrumentation attributes calls to (page URL for
    /// inline/bundled code).
    pub url: Url,
    /// Whether the code was inline in the page (first-party bundle).
    pub inline: bool,
    /// Canonical host after DNS resolution (differs from `url.host`
    /// under CNAME cloaking); the page URL's host for inline code.
    pub canonical_host: String,
    /// Whether DNS revealed a cross-site CNAME (cloaking).
    pub cname_cloaked: bool,
    /// FNV-1a content hash of the script body (0 when the body was never
    /// obtained, i.e. the fetch failed). The key the static triage and
    /// compile caches share.
    pub source_hash: u64,
    /// Static pre-execution triage verdict; `None` when the body was
    /// never obtained.
    pub verdict: Option<canvassing_analysis::Verdict>,
    /// Runtime error message if the script crashed (execution continues
    /// with the next script, as in a real browser).
    pub error: Option<String>,
}

/// Everything recorded about one page visit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageVisit {
    /// The visited page.
    pub page: Url,
    /// Instrumented Canvas API activity.
    pub api_calls: Vec<ApiCall>,
    /// Canvas extractions (`toDataURL` results).
    pub extractions: Vec<Extraction>,
    /// Scripts that ran.
    pub scripts: Vec<LoadedScript>,
    /// Scripts the extension blocked.
    pub blocked: Vec<BlockedScript>,
    /// Whether a consent banner was shown (and auto-accepted).
    pub consent_banner: bool,
}

/// A headless browser: device profile + optional extension + defense.
pub struct Browser {
    /// Rendering device.
    pub device: DeviceProfile,
    /// Installed ad blocker, if any.
    pub extension: Option<Extension>,
    /// Canvas read-back defense.
    pub defense: DefenseMode,
    /// Auto-accept consent banners (the crawler's autoconsent library).
    pub autoconsent: bool,
    /// Whether this client passes site bot gates (the paper's crawler
    /// "handles common anti-bot detection mechanisms"). Disable to inject
    /// bot-wall faults.
    pub passes_bot_checks: bool,
    /// Per-visit deadline / fuel limits.
    pub policy: VisitPolicy,
    /// Shared crawl caches (compiled scripts, render memo, buffer pool).
    /// Default-empty: an unconfigured browser caches nothing.
    pub caches: CrawlCaches,
}

impl Browser {
    /// A default browser on the given device: no extension, no defense.
    pub fn new(device: DeviceProfile) -> Browser {
        Browser {
            device,
            extension: None,
            defense: DefenseMode::None,
            autoconsent: true,
            passes_bot_checks: true,
            policy: VisitPolicy::default(),
            caches: CrawlCaches::default(),
        }
    }

    /// Executes one script against the document, going through the shared
    /// caches when configured. Returns `(steps, error)` exactly as direct
    /// `eval_with_budget` would.
    ///
    /// The render memo is consulted only with no defense active (defended
    /// renders depend on page host and extraction counters, and the §5.3
    /// double-render check must genuinely execute both renders) and only
    /// replayed when the canonical run fits `budget` — every other case
    /// executes in place with identical semantics to the uncached path.
    fn execute_script(
        &self,
        doc: &mut Document,
        source: &str,
        attributed_url: &str,
        budget: u64,
        rec: &VisitRecorder,
    ) -> (u64, Option<String>) {
        if self.defense == DefenseMode::None {
            if let Some(memo) = &self.caches.memo {
                if let Some(entry) = memo.lookup(
                    source,
                    &self.device,
                    budget,
                    self.caches.scripts.as_deref(),
                    &self.caches.perf,
                ) {
                    doc.absorb_render(
                        &entry.calls,
                        &entry.extractions,
                        entry.canvases_created,
                        attributed_url,
                    );
                    // "replay" here means the visit was satisfied from the
                    // canonical render — true for every no-defense visit
                    // whether *this* lookup computed it or hit it (the
                    // memo computes under its lock on first sight), so
                    // the event is schedule-independent.
                    rec.instant("render.replay", || entry.steps.to_string());
                    rec.bump("render.replays");
                    return (entry.steps, entry.error.clone());
                }
            }
        }
        self.caches
            .perf
            .script_executions
            .fetch_add(1, Ordering::Relaxed);
        doc.set_current_script(attributed_url);
        let outcome = eval_cached(source, doc, budget, self.caches.scripts.as_deref());
        rec.instant("script.exec", || outcome.steps.to_string());
        rec.bump("script.execs");
        rec.observe("script.steps", outcome.steps);
        (outcome.steps, outcome.result.err().map(|e| e.message))
    }

    /// Triages one script body (once per unique body crawl-wide, via the
    /// analysis cache), runs it in an `execute` span and records `script`
    /// with the body's hash, verdict and error. Returns the steps run, or
    /// `None` when the run tripped a `budget` below the interpreter's own:
    /// the visit is out of fuel.
    fn run_script(
        &self,
        doc: &mut Document,
        visit: &mut PageVisit,
        source: &str,
        mut script: LoadedScript,
        budget: u64,
        rec: &VisitRecorder,
    ) -> Option<u64> {
        let (source_hash, analysis) =
            self.caches
                .analysis
                .analyze_traced(source, self.caches.scripts.as_deref(), rec);
        let exec_span = rec.span("execute");
        let (steps, error) = self.execute_script(doc, source, &script.url.to_string(), budget, rec);
        exec_span.end(steps / STEPS_PER_MS);
        if let Some(msg) = &error {
            if budget < DEFAULT_STEP_BUDGET && msg.contains("step budget") {
                return None;
            }
        }
        script.source_hash = source_hash;
        script.verdict = Some(analysis.verdict);
        script.error = error;
        visit.scripts.push(script);
        Some(steps)
    }

    /// Visits a page and records all canvas activity. Equivalent to
    /// [`Browser::visit_attempt`] with `attempt = 0`.
    pub fn visit(&self, network: &Network, page_url: &Url) -> Result<PageVisit, VisitError> {
        self.visit_attempt(network, page_url, 0)
    }

    /// Visits a page on a given (zero-based) retry attempt. The attempt
    /// number reaches every fetch of the visit so attempt-counted
    /// transient faults clear consistently for the page and its scripts.
    pub fn visit_attempt(
        &self,
        network: &Network,
        page_url: &Url,
        attempt: u32,
    ) -> Result<PageVisit, VisitError> {
        self.visit_traced(network, page_url, attempt, &VisitRecorder::disabled())
    }

    /// [`Browser::visit_attempt`] with trace instrumentation: the whole
    /// fetch → triage → execute → extract pipeline records spans and
    /// events on `rec` (a no-op when the recorder is disabled — this *is*
    /// the untraced path, one predictable branch per record site).
    ///
    /// Every event recorded here is a pure function of
    /// `(network, page_url, config)`: cache hit/miss and memo
    /// compute/replay attribution — the schedule-dependent facts — go to
    /// the recorder's crawl-wide metrics registry, never into the event
    /// stream, so two crawls of the same workload produce identical
    /// per-visit streams whatever the worker count or cache temperature.
    pub fn visit_traced(
        &self,
        network: &Network,
        page_url: &Url,
        attempt: u32,
        rec: &VisitRecorder,
    ) -> Result<PageVisit, VisitError> {
        self.visit_supervised(network, page_url, attempt, rec, &BTreeSet::new())
            .map_err(|abort| abort.error)
    }

    /// The supervised pipeline behind [`Browser::visit_traced`]: the same
    /// fetch → triage → execute → extract stages, but failures return a
    /// [`VisitAbort`] carrying the partial evidence instead of discarding
    /// it, and `open_hosts` — the hosts whose circuit breaker is open at
    /// this visit's frontier slot — short-circuit without a fetch:
    ///
    /// - the *page* host open ⇒ the whole visit aborts with
    ///   [`VisitError::CircuitOpen`] before touching the network;
    /// - a *script* host open ⇒ a `breaker.short_circuit` instant and a
    ///   [`LoadedScript`] with a `"circuit open"` error, like any other
    ///   broken script reference (pages survive it).
    ///
    /// `open_hosts` must be derived from the frontier (the crawler's
    /// breaker plan), never from runtime fetch order, so everything
    /// recorded here stays a pure function of
    /// `(network, page_url, config)`.
    pub fn visit_supervised(
        &self,
        network: &Network,
        page_url: &Url,
        attempt: u32,
        rec: &VisitRecorder,
        open_hosts: &BTreeSet<String>,
    ) -> Result<PageVisit, VisitAbort> {
        let deadline = self.policy.deadline_ms;
        let mut elapsed_ms: u64 = 0;
        let mut fuel_used: u64 = 0;

        if open_hosts.contains(&page_url.host) {
            rec.instant("breaker.short_circuit", || page_url.to_string());
            return Err(VisitAbort::lost(VisitError::CircuitOpen(page_url.clone())));
        }

        // An empty shell for failure paths that reached the page but died
        // before (or at) script processing: page-level salvage with no
        // script evidence.
        let shell = |consent_banner: bool| PageVisit {
            page: page_url.clone(),
            api_calls: Vec::new(),
            extractions: Vec::new(),
            scripts: Vec::new(),
            blocked: Vec::new(),
            consent_banner,
        };

        let response = match network.fetch_traced(page_url, attempt, rec) {
            Ok(r) => r,
            Err(err) => {
                // A truncated body means the server was reached and part
                // of the page arrived — that fact survives as an empty
                // page-level salvage. Everything else failed before any
                // content existed.
                let partial =
                    matches!(err, FetchError::Truncated(_)).then(|| Box::new(shell(false)));
                return Err(VisitAbort {
                    error: VisitError::Fetch(err),
                    partial,
                });
            }
        };
        let page = match response.resource {
            Resource::Page(p) => p,
            Resource::Script(_) => {
                return Err(VisitAbort::lost(VisitError::NotAPage(page_url.clone())))
            }
        };
        if page.bot_check && !self.passes_bot_checks {
            // The wall was served after a successful fetch: keep that.
            return Err(VisitAbort {
                error: VisitError::BotBlocked(page_url.clone()),
                partial: Some(Box::new(shell(page.consent_banner))),
            });
        }
        elapsed_ms += response.latency_ms;
        if deadline.is_some_and(|d| elapsed_ms > d) {
            return Err(VisitAbort {
                error: VisitError::DeadlineExceeded(page_url.clone()),
                partial: Some(Box::new(shell(page.consent_banner))),
            });
        }

        let mut doc = match &self.caches.pool {
            Some(pool) => Document::with_pool(self.device.clone(), Arc::clone(pool)),
            None => Document::new(self.device.clone()),
        };
        // Randomization defenses key their noise per browsing session and
        // origin (a fresh headless visit = a fresh session), so the
        // configured seed is mixed with the page host: the same defended
        // browser produces different noise on different sites — which is
        // what breaks cross-site canvas clustering.
        let mut defense = self.defense;
        match &mut defense {
            DefenseMode::RandomizePerRender { seed }
            | DefenseMode::RandomizePerSession { seed } => {
                let mut h: u64 = 0xcbf29ce484222325;
                for b in page_url.host.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
                *seed ^= h;
            }
            DefenseMode::None | DefenseMode::Block => {}
        }
        doc.set_defense(defense.build());
        doc.advance_clock(response.latency_ms);
        rec.instant("defense", || self.defense.name().to_string());

        let mut visit = PageVisit {
            page: page_url.clone(),
            api_calls: Vec::new(),
            extractions: Vec::new(),
            scripts: Vec::new(),
            blocked: Vec::new(),
            consent_banner: page.consent_banner,
        };

        // Consent banner: autoconsent opts in (small interaction delay);
        // without it, consent-gated scripts do not run.
        if page.consent_banner {
            if self.autoconsent {
                rec.instant("consent.accepted", String::new);
                doc.advance_clock(350);
                elapsed_ms += 350;
                if deadline.is_some_and(|d| elapsed_ms > d) {
                    return Err(salvaged(
                        visit,
                        doc,
                        VisitError::DeadlineExceeded(page_url.clone()),
                    ));
                }
            } else {
                rec.instant("consent.declined", String::new);
                trace_stage_tail(rec, false, &visit);
                return Ok(visit);
            }
        }

        let mut executed_any = false;
        for script_ref in &page.scripts {
            // Each script runs under whichever is tighter: the
            // interpreter's own budget or the visit's remaining fuel. A
            // budget trip at the fuel-reduced limit is a visit failure;
            // at the interpreter's own limit it is that script's crash.
            let budget = match self.policy.fuel {
                Some(f) => f.saturating_sub(fuel_used).min(DEFAULT_STEP_BUDGET),
                None => DEFAULT_STEP_BUDGET,
            };
            // Resolve the reference to a body and the entry recording it;
            // a reference that yields no body is recorded or skipped here.
            let fetched: String;
            let body = match script_ref {
                ScriptRef::Inline { source, .. } => Some((
                    source.as_str(),
                    LoadedScript {
                        url: page_url.clone(),
                        inline: true,
                        canonical_host: page_url.host.clone(),
                        cname_cloaked: false,
                        source_hash: 0,
                        verdict: None,
                        error: None,
                    },
                )),
                ScriptRef::External(url) => {
                    if let Some(ext) = &self.extension {
                        if let Some(decision) = ext.check_script(page_url, url, &network.dns) {
                            rec.instant("adblock.blocked", || decision.rule.clone());
                            rec.bump("adblock.blocks");
                            visit.blocked.push(BlockedScript {
                                url: url.clone(),
                                rule: decision.rule,
                            });
                            continue;
                        }
                    }
                    if open_hosts.contains(&url.host) {
                        // Breaker open for the script host: skip the fetch
                        // entirely. Like a broken reference, the page
                        // survives; unlike one, no network attempt is made.
                        rec.instant("breaker.short_circuit", || url.to_string());
                        visit.scripts.push(LoadedScript {
                            url: url.clone(),
                            inline: false,
                            canonical_host: url.host.clone(),
                            cname_cloaked: false,
                            source_hash: 0,
                            verdict: None,
                            error: Some("circuit open".into()),
                        });
                        continue;
                    }
                    match network.fetch_traced(url, attempt, rec) {
                        Ok(resp) => {
                            fetched = match resp.resource {
                                Resource::Script(s) => s.source,
                                Resource::Page(_) => continue,
                            };
                            doc.advance_clock(resp.latency_ms);
                            elapsed_ms += resp.latency_ms;
                            if deadline.is_some_and(|d| elapsed_ms > d) {
                                return Err(salvaged(
                                    visit,
                                    doc,
                                    VisitError::DeadlineExceeded(page_url.clone()),
                                ));
                            }
                            Some((
                                fetched.as_str(),
                                LoadedScript {
                                    url: url.clone(),
                                    inline: false,
                                    canonical_host: resp.resolution.canonical.clone(),
                                    cname_cloaked: resp.resolution.is_cloaked(),
                                    source_hash: 0,
                                    verdict: None,
                                    error: None,
                                },
                            ))
                        }
                        Err(_) => {
                            // Broken script reference: pages survive it.
                            // No body was obtained, so there is nothing
                            // to hash or triage.
                            rec.instant("script.unavailable", || url.to_string());
                            visit.scripts.push(LoadedScript {
                                url: url.clone(),
                                inline: false,
                                canonical_host: url.host.clone(),
                                cname_cloaked: false,
                                source_hash: 0,
                                verdict: None,
                                error: Some("fetch failed".into()),
                            });
                            None
                        }
                    }
                }
            };
            if let Some((source, script)) = body {
                let Some(steps) =
                    self.run_script(&mut doc, &mut visit, source, script, budget, rec)
                else {
                    return Err(salvaged(
                        visit,
                        doc,
                        VisitError::FuelExhausted(page_url.clone()),
                    ));
                };
                executed_any = true;
                fuel_used += steps;
                elapsed_ms += steps / STEPS_PER_MS;
            }
            if deadline.is_some_and(|d| elapsed_ms > d) {
                return Err(salvaged(
                    visit,
                    doc,
                    VisitError::DeadlineExceeded(page_url.clone()),
                ));
            }
        }

        // Simulated user behavior: scroll down and up, then wait five
        // seconds (§3.1) — matters only for timestamps here.
        doc.advance_clock(5_000);

        let (calls, extractions) = doc.into_records();
        visit.api_calls = calls;
        visit.extractions = extractions;
        trace_stage_tail(rec, executed_any, &visit);
        Ok(visit)
    }
}

/// Finalizes a mid-pipeline death into a [`VisitAbort`] that keeps the
/// evidence: the document's canvas activity recorded so far is harvested
/// into the partial visit, exactly as the success path would have done.
fn salvaged(mut visit: PageVisit, doc: Document, error: VisitError) -> VisitAbort {
    let (calls, extractions) = doc.into_records();
    visit.api_calls = calls;
    visit.extractions = extractions;
    VisitAbort {
        error,
        partial: Some(Box::new(visit)),
    }
}

/// Closes out a successful visit's trace: marker spans for stages no
/// script reached (so every completed visit's span tree covers the full
/// `parse`/`triage`/`execute` vocabulary — script-less pages included)
/// plus the `extract` span summarizing what the visit recorded.
fn trace_stage_tail(rec: &VisitRecorder, executed_any: bool, visit: &PageVisit) {
    if !rec.enabled() {
        return;
    }
    if !executed_any {
        let triage = rec.span("triage");
        rec.span("parse").end(0);
        triage.end(0);
        rec.span("execute").end(0);
    }
    let extract = rec.span("extract");
    rec.instant("records", || {
        format!(
            "{} api-calls, {} extractions, {} scripts, {} blocked",
            visit.api_calls.len(),
            visit.extractions.len(),
            visit.scripts.len(),
            visit.blocked.len()
        )
    });
    extract.end(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::AdBlockerKind;
    use canvassing_net::{PageResource, Resource, ScriptResource};
    use canvassing_raster::SharedText;

    fn simple_network() -> Network {
        let mut network = Network::new();
        let script = r##"
            let c = document.createElement("canvas");
            c.width = 50; c.height = 20;
            let x = c.getContext("2d");
            x.fillStyle = "#069";
            x.fillText("probe", 2, 12);
            c.toDataURL();
        "##;
        network.host(
            &Url::https("fp.example.net", "/fp.js"),
            Resource::Script(ScriptResource {
                source: script.to_string(),
                label: "test".into(),
            }),
        );
        network.host(
            &Url::https("site.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(Url::https("fp.example.net", "/fp.js"))],
                consent_banner: false,
                bot_check: false,
            }),
        );
        network
    }

    fn intel_browser() -> Browser {
        Browser::new(DeviceProfile::intel_ubuntu())
    }

    #[test]
    fn visit_records_extraction_with_script_url() {
        let network = simple_network();
        let visit = intel_browser()
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        assert_eq!(visit.extractions.len(), 1);
        assert_eq!(
            visit.extractions[0].script_url,
            "https://fp.example.net/fp.js"
        );
        assert!(!visit.api_calls.is_empty());
        assert!(visit.blocked.is_empty());
    }

    #[test]
    fn extension_blocks_matching_script() {
        let network = simple_network();
        let mut browser = intel_browser();
        browser.extension = Some(Extension::new(
            AdBlockerKind::AdblockPlus,
            "||fp.example.net^$script\n",
        ));
        let visit = browser
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        assert!(visit.extractions.is_empty());
        assert_eq!(visit.blocked.len(), 1);
    }

    #[test]
    fn down_site_is_visit_error() {
        let mut network = simple_network();
        network.faults.take_down("site.com");
        let err = intel_browser()
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap_err();
        assert!(matches!(err, VisitError::Fetch(_)));
    }

    #[test]
    fn bot_gate_rejects_non_stealth_client() {
        let mut network = Network::new();
        network.host(
            &Url::https("guarded.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![],
                consent_banner: false,
                bot_check: true,
            }),
        );
        let mut browser = intel_browser();
        browser.passes_bot_checks = false;
        let err = browser
            .visit(&network, &Url::https("guarded.com", "/"))
            .unwrap_err();
        assert!(matches!(err, VisitError::BotBlocked(_)));
        // The default crawler passes.
        assert!(intel_browser()
            .visit(&network, &Url::https("guarded.com", "/"))
            .is_ok());
    }

    #[test]
    fn consent_banner_without_autoconsent_runs_nothing() {
        let mut network = simple_network();
        network.host(
            &Url::https("consent.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(Url::https("fp.example.net", "/fp.js"))],
                consent_banner: true,
                bot_check: false,
            }),
        );
        let mut browser = intel_browser();
        browser.autoconsent = false;
        let visit = browser
            .visit(&network, &Url::https("consent.com", "/"))
            .unwrap();
        assert!(visit.extractions.is_empty());
        browser.autoconsent = true;
        let visit = browser
            .visit(&network, &Url::https("consent.com", "/"))
            .unwrap();
        assert_eq!(visit.extractions.len(), 1);
    }

    #[test]
    fn latency_spike_past_deadline_fails_the_visit() {
        use canvassing_net::Fault;
        let mut network = simple_network();
        network
            .faults
            .inject("site.com", Fault::LatencySpike { extra_ms: 60_000 });
        let err = intel_browser()
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap_err();
        assert!(matches!(err, VisitError::DeadlineExceeded(_)));
        // Lifting the deadline lets the slow visit complete.
        let mut patient = intel_browser();
        patient.policy = VisitPolicy::unlimited();
        assert!(patient
            .visit(&network, &Url::https("site.com", "/"))
            .is_ok());
    }

    #[test]
    fn consent_delay_past_deadline_fails_the_visit() {
        // Three consent-banner pages whose scripts never trigger a later
        // deadline check: one blocked by the ad blocker, none at all, and
        // one on a host the network does not serve. The 350 ms banner
        // delay alone must push each past a deadline 100 ms after the
        // page arrived.
        let mut network = simple_network();
        let consent_page = |scripts: Vec<ScriptRef>| {
            Resource::Page(PageResource {
                scripts,
                consent_banner: true,
                bot_check: false,
            })
        };
        let pages = [
            (
                Url::https("blocked-consent.com", "/"),
                vec![ScriptRef::External(Url::https("fp.example.net", "/fp.js"))],
            ),
            (Url::https("empty-consent.com", "/"), vec![]),
            (
                Url::https("unhosted-consent.com", "/"),
                vec![ScriptRef::External(Url::https("nowhere.example", "/x.js"))],
            ),
        ];
        for (page, scripts) in &pages {
            network.host(page, consent_page(scripts.clone()));
        }
        for (page, _) in &pages {
            let mut browser = intel_browser();
            browser.extension = Some(Extension::new(
                AdBlockerKind::AdblockPlus,
                "||fp.example.net^$script\n",
            ));
            browser.policy.deadline_ms = Some(canvassing_net::latency_ms(&page.host) + 100);
            let abort = browser
                .visit_supervised(
                    &network,
                    page,
                    0,
                    &VisitRecorder::disabled(),
                    &BTreeSet::new(),
                )
                .unwrap_err();
            assert!(
                matches!(abort.error, VisitError::DeadlineExceeded(_)),
                "{page}: {:?}",
                abort.error
            );
            let partial = abort.partial.expect("the page arrived");
            assert!(partial.consent_banner);
        }
    }

    #[test]
    fn spiked_script_host_blows_the_deadline_too() {
        use canvassing_net::Fault;
        let mut network = simple_network();
        network
            .faults
            .inject("fp.example.net", Fault::LatencySpike { extra_ms: 60_000 });
        let err = intel_browser()
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap_err();
        assert!(matches!(err, VisitError::DeadlineExceeded(_)));
    }

    #[test]
    fn fuel_exhaustion_fails_the_visit() {
        let network = simple_network();
        let mut browser = intel_browser();
        browser.policy.fuel = Some(10);
        let err = browser
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap_err();
        assert!(matches!(err, VisitError::FuelExhausted(_)));
        // Generous fuel changes nothing about the recorded visit.
        browser.policy.fuel = Some(1_000_000);
        let visit = browser
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        assert_eq!(visit.extractions.len(), 1);
    }

    #[test]
    fn truncated_script_records_a_parse_error() {
        use canvassing_net::Fault;
        let mut network = simple_network();
        network.faults.inject("fp.example.net", Fault::TruncateBody);
        let visit = intel_browser()
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        // The cut may or may not land on a statement boundary; either way
        // the trailing toDataURL call is gone, so no extraction happens.
        assert_eq!(visit.scripts.len(), 1);
        assert!(visit.extractions.is_empty());
    }

    #[test]
    fn transient_page_fault_clears_on_later_attempt() {
        use canvassing_net::Fault;
        let mut network = simple_network();
        network
            .faults
            .inject("site.com", Fault::TransientConnect { failures: 2 });
        let browser = intel_browser();
        let page = Url::https("site.com", "/");
        let err = browser.visit_attempt(&network, &page, 0).unwrap_err();
        assert!(matches!(err, VisitError::Fetch(FetchError::Transient(_))));
        assert!(browser.visit_attempt(&network, &page, 1).is_err());
        let visit = browser.visit_attempt(&network, &page, 2).unwrap();
        assert_eq!(visit.extractions.len(), 1);
    }

    #[test]
    fn broken_script_reference_does_not_fail_visit() {
        let mut network = Network::new();
        network.host(
            &Url::https("site.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(Url::https("gone.example", "/x.js"))],
                consent_banner: false,
                bot_check: false,
            }),
        );
        let visit = intel_browser()
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        assert_eq!(visit.scripts.len(), 1);
        assert!(visit.scripts[0].error.is_some());
    }

    #[test]
    fn block_defense_yields_constant_extraction() {
        let network = simple_network();
        let mut browser = intel_browser();
        browser.defense = DefenseMode::Block;
        let visit = browser
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        assert_eq!(
            visit.extractions[0].data_url,
            canvassing_dom::BLOCKED_DATA_URL
        );
    }

    #[test]
    fn cached_visit_is_byte_identical_to_uncached() {
        let network = simple_network();
        let page = Url::https("site.com", "/");
        let plain = intel_browser().visit(&network, &page).unwrap();
        let mut cached = intel_browser();
        cached.caches = CrawlCaches::enabled();
        let cold = cached.visit(&network, &page).unwrap();
        let warm = cached.visit(&network, &page).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{cold:?}"));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        let snap = cached.caches.perf.snapshot();
        assert_eq!(snap.memo_computes, 1);
        assert!(snap.memo_hits >= 1, "warm visit must replay: {snap:?}");
    }

    #[test]
    fn memo_replays_share_one_canvas_handle() {
        let mut network = simple_network();
        network.host(
            &Url::https("other.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(Url::https("fp.example.net", "/fp.js"))],
                consent_banner: false,
                bot_check: false,
            }),
        );
        let mut browser = intel_browser();
        browser.caches = CrawlCaches::enabled();
        let a = browser
            .visit(&network, &Url::https("site.com", "/"))
            .unwrap();
        let b = browser
            .visit(&network, &Url::https("other.com", "/"))
            .unwrap();
        assert_eq!(browser.caches.perf.snapshot().memo_hits, 1);
        let (x, y) = (&a.extractions[0].data_url, &b.extractions[0].data_url);
        assert!(SharedText::ptr_eq(x, y), "replays copy no canvas bytes");
        let returned = b
            .api_calls
            .iter()
            .find(|c| c.name == "toDataURL")
            .and_then(|c| c.return_value.as_ref())
            .expect("toDataURL records its return value");
        assert!(SharedText::ptr_eq(returned, y));
        assert_eq!(y.hash(), canvassing_raster::content_hash(y.as_bytes()));
    }

    #[test]
    fn defense_disables_memo_replay() {
        let network = simple_network();
        let page = Url::https("site.com", "/");
        let mut browser = intel_browser();
        browser.caches = CrawlCaches::enabled();
        browser.defense = DefenseMode::RandomizePerSession { seed: 9 };
        browser.visit(&network, &page).unwrap();
        browser.visit(&network, &page).unwrap();
        let snap = browser.caches.perf.snapshot();
        assert_eq!(snap.memo_computes + snap.memo_hits, 0);
        assert_eq!(snap.script_executions, 2);
    }

    #[test]
    fn traced_visit_covers_all_pipeline_stages() {
        use canvassing_trace::{span_names, VisitRecorder};
        let network = simple_network();
        let page = Url::https("site.com", "/");
        let browser = intel_browser();
        let rec = VisitRecorder::new(&page.to_string(), None);
        let traced = browser.visit_traced(&network, &page, 0, &rec).unwrap();
        let plain = browser.visit(&network, &page).unwrap();
        assert_eq!(
            format!("{traced:?}"),
            format!("{plain:?}"),
            "tracing must not change the visit record"
        );
        let trace = rec.finish().unwrap();
        let names = span_names(&trace);
        for stage in ["fetch", "parse", "triage", "execute", "extract"] {
            assert!(names.contains(stage), "missing stage span {stage}");
        }
    }

    #[test]
    fn traced_scriptless_page_still_covers_all_stages() {
        use canvassing_trace::{span_names, VisitRecorder};
        let mut network = Network::new();
        network.host(
            &Url::https("empty.com", "/"),
            Resource::Page(PageResource::default()),
        );
        let page = Url::https("empty.com", "/");
        let rec = VisitRecorder::new(&page.to_string(), None);
        intel_browser()
            .visit_traced(&network, &page, 0, &rec)
            .unwrap();
        let trace = rec.finish().unwrap();
        let names = span_names(&trace);
        for stage in ["fetch", "parse", "triage", "execute", "extract"] {
            assert!(names.contains(stage), "missing stage span {stage}");
        }
    }

    #[test]
    fn traced_visit_stream_is_cache_temperature_invariant() {
        use canvassing_trace::VisitRecorder;
        let network = simple_network();
        let page = Url::https("site.com", "/");

        // Cached browser, cold then warm: identical event streams.
        let mut cached = intel_browser();
        cached.caches = CrawlCaches::enabled();
        let trace_of = |browser: &Browser| {
            let rec =
                VisitRecorder::new(&page.to_string(), Some(Arc::clone(&cached.caches.metrics)));
            browser.visit_traced(&network, &page, 0, &rec).unwrap();
            rec.finish().unwrap()
        };
        let cold = trace_of(&cached);
        let warm = trace_of(&cached);
        assert_eq!(cold, warm, "cold and warm visits must trace identically");

        // The schedule-dependent attribution lives in the metrics.
        let snap = cached.caches.metrics.snapshot();
        assert_eq!(snap.counters["render.replays"], 2);
        assert_eq!(snap.counters["net.fetches"], 4);
    }

    #[test]
    fn traced_visit_records_defense_and_error_events() {
        use canvassing_trace::{EventKind, VisitRecorder};
        let mut network = simple_network();
        network.faults.take_down("fp.example.net");
        let page = Url::https("site.com", "/");
        let mut browser = intel_browser();
        browser.defense = DefenseMode::Block;
        let rec = VisitRecorder::new(&page.to_string(), None);
        browser.visit_traced(&network, &page, 0, &rec).unwrap();
        let trace = rec.finish().unwrap();
        let instants: Vec<(&str, &str)> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Instant { name, detail, .. } => Some((*name, detail.as_str())),
                _ => None,
            })
            .collect();
        assert!(instants.contains(&("defense", "block")));
        assert!(instants.iter().any(|(n, _)| *n == "net.error"));
        assert!(instants
            .iter()
            .any(|(n, d)| *n == "script.unavailable" && d.contains("fp.example.net")));
    }

    #[test]
    fn supervised_visit_salvages_partial_evidence_on_deadline() {
        use canvassing_net::Fault;
        // Two scripts; the second one's host is latency-spiked past the
        // deadline, so the visit dies between scripts — after the first
        // ran and extracted.
        let mut network = simple_network();
        network.host(
            &Url::https("slowcdn.net", "/late.js"),
            Resource::Script(ScriptResource {
                source: "let x = 1;".into(),
                label: "late".into(),
            }),
        );
        network.host(
            &Url::https("twoscripts.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![
                    ScriptRef::External(Url::https("fp.example.net", "/fp.js")),
                    ScriptRef::External(Url::https("slowcdn.net", "/late.js")),
                ],
                consent_banner: false,
                bot_check: false,
            }),
        );
        network
            .faults
            .inject("slowcdn.net", Fault::LatencySpike { extra_ms: 60_000 });
        let abort = intel_browser()
            .visit_supervised(
                &network,
                &Url::https("twoscripts.com", "/"),
                0,
                &VisitRecorder::disabled(),
                &BTreeSet::new(),
            )
            .unwrap_err();
        assert!(matches!(abort.error, VisitError::DeadlineExceeded(_)));
        let partial = abort.partial.expect("page was reached");
        assert_eq!(partial.scripts.len(), 1, "first script survives");
        assert!(partial.scripts[0].verdict.is_some(), "triage survives");
        assert_eq!(partial.extractions.len(), 1, "its extraction survives");
    }

    #[test]
    fn supervised_visit_keeps_nothing_before_page_contact() {
        let mut network = simple_network();
        network.faults.take_down("site.com");
        let abort = intel_browser()
            .visit_supervised(
                &network,
                &Url::https("site.com", "/"),
                0,
                &VisitRecorder::disabled(),
                &BTreeSet::new(),
            )
            .unwrap_err();
        assert!(matches!(abort.error, VisitError::Fetch(_)));
        assert!(abort.partial.is_none(), "no page, nothing to salvage");
    }

    #[test]
    fn supervised_visit_salvages_page_shell_behind_bot_wall() {
        let mut network = Network::new();
        network.host(
            &Url::https("guarded.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![],
                consent_banner: false,
                bot_check: true,
            }),
        );
        let mut browser = intel_browser();
        browser.passes_bot_checks = false;
        let abort = browser
            .visit_supervised(
                &network,
                &Url::https("guarded.com", "/"),
                0,
                &VisitRecorder::disabled(),
                &BTreeSet::new(),
            )
            .unwrap_err();
        assert!(matches!(abort.error, VisitError::BotBlocked(_)));
        let partial = abort.partial.expect("the wall was served");
        assert!(partial.scripts.is_empty());
    }

    #[test]
    fn open_breaker_short_circuits_page_and_script_hosts() {
        use canvassing_trace::{span_names, EventKind};
        let network = simple_network();
        let page = Url::https("site.com", "/");
        let browser = intel_browser();

        // Page host open: no fetch happens at all.
        let open: BTreeSet<String> = ["site.com".to_string()].into();
        let rec = VisitRecorder::new(&page.to_string(), None);
        let abort = browser
            .visit_supervised(&network, &page, 0, &rec, &open)
            .unwrap_err();
        assert!(matches!(abort.error, VisitError::CircuitOpen(_)));
        assert!(abort.partial.is_none());
        let trace = rec.finish().unwrap();
        assert!(!span_names(&trace).contains("fetch"), "no fetch attempted");

        // Script host open: the page survives with a circuit-open script.
        let open: BTreeSet<String> = ["fp.example.net".to_string()].into();
        let rec = VisitRecorder::new(&page.to_string(), None);
        let visit = browser
            .visit_supervised(&network, &page, 0, &rec, &open)
            .unwrap();
        assert_eq!(visit.scripts.len(), 1);
        assert_eq!(visit.scripts[0].error.as_deref(), Some("circuit open"));
        assert!(visit.extractions.is_empty());
        let trace = rec.finish().unwrap();
        assert!(trace.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Instant { name, .. } if *name == "breaker.short_circuit"
        )));
    }

    #[test]
    fn randomize_per_render_defeats_clustering_but_is_detectable() {
        let mut network = simple_network();
        // A script doing the §5.3 stability check.
        let checker = r##"
            fn render() {
                let c = document.createElement("canvas");
                c.width = 40; c.height = 20;
                let x = c.getContext("2d");
                x.fillStyle = "tomato";
                x.fillRect(0, 0, 40, 20);
                return c.toDataURL();
            }
            let a = render();
            let b = render();
            a == b;
        "##;
        network.host(
            &Url::https("checker.net", "/check.js"),
            Resource::Script(ScriptResource {
                source: checker.to_string(),
                label: "checker".into(),
            }),
        );
        network.host(
            &Url::https("checksite.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(Url::https("checker.net", "/check.js"))],
                consent_banner: false,
                bot_check: false,
            }),
        );
        let page = Url::https("checksite.com", "/");

        // Without defense: both renders identical.
        let visit = intel_browser().visit(&network, &page).unwrap();
        assert_eq!(visit.extractions[0].data_url, visit.extractions[1].data_url);

        // Per-render noise: renders differ (check detects randomization).
        let mut browser = intel_browser();
        browser.defense = DefenseMode::RandomizePerRender { seed: 1 };
        let visit = browser.visit(&network, &page).unwrap();
        assert_ne!(visit.extractions[0].data_url, visit.extractions[1].data_url);

        // Per-session noise: renders match (footnote 7 — undetectable by
        // the double-render check).
        let mut browser = intel_browser();
        browser.defense = DefenseMode::RandomizePerSession { seed: 1 };
        let visit = browser.visit(&network, &page).unwrap();
        assert_eq!(visit.extractions[0].data_url, visit.extractions[1].data_url);
    }
}
