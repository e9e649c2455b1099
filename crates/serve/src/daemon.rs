//! The verdict-serving daemon: plan deterministically, execute in
//! parallel, deliver in request order.
//!
//! [`VerdictService::serve`] runs one load schedule end to end:
//!
//! 1. **Plan** — [`ServePlan::plan`] makes every admission, shedding,
//!    deadline, and cache decision single-threaded (see the plan module
//!    for why this is the only way responses can be byte-identical
//!    across worker counts).
//! 2. **Prewarm** — the unique cold bodies the plan scheduled for full
//!    analysis are parsed into the shared [`ScriptCache`] by
//!    [`ServeConfig::workers`] threads. Parse-under-shard-lock makes the
//!    parse count equal the unique-body count regardless of how the
//!    threads interleave, and a compiled AST is a pure function of its
//!    source — so this stage can run as wide as the machine allows
//!    without touching the response stream.
//! 3. **Assemble** — responses are produced in request order: reload
//!    boundaries invalidate the affected [`AnalysisCache`] shards
//!    exactly where the plan said they would, full-tier requests
//!    classify (or hit) under their admission epoch, degraded tiers
//!    answer from cache or heuristics without ever parsing, and each
//!    response is enriched with blocklist/vendor facts from its
//!    admission-epoch [`RuleSnapshot`].
//!
//! Every offered request yields exactly one response — served, typed
//! failure, or typed rejection. `tests/serve.rs` gates on that partition
//! being exact, on responses being byte-identical across worker counts,
//! and on the plan's predicted analysis count matching the cache's
//! actual counter.

use std::collections::HashMap;
use std::sync::Arc;

use canvassing_analysis::{AnalysisCache, AnalysisStats, EpochCacheStats};
use canvassing_net::{Network, Resource};
use canvassing_script::{ScriptCache, ScriptCacheStats};
use canvassing_trace::{MetricsRegistry, MetricsSnapshot, TraceSink, VisitRecorder};

use crate::plan::{Decision, Disposition, ServeConfig, ServePlan};
use crate::request::{
    heuristic_scan, Payload, RejectReason, ServeTier, Served, VerdictRequest, VerdictResponse,
};
use crate::snapshot::{ReloadEvent, RuleSnapshot};

/// Everything one serving run produced.
pub struct ServeOutput {
    /// One response per offered request, in request order.
    pub responses: Vec<VerdictResponse>,
    /// The admission plan the run executed (dispositions, snapshots,
    /// applied reloads, queue high-water mark).
    pub plan: ServePlan,
    /// Name-ordered snapshot of the run's serving metrics.
    pub metrics: MetricsSnapshot,
}

/// A long-running verdict service over shared parse/analysis caches.
pub struct VerdictService {
    config: ServeConfig,
    scripts: Arc<ScriptCache>,
    analysis: Arc<AnalysisCache>,
}

impl VerdictService {
    /// A service with fresh caches.
    pub fn new(config: ServeConfig) -> VerdictService {
        VerdictService::with_caches(
            config,
            Arc::new(ScriptCache::new()),
            Arc::new(AnalysisCache::new()),
        )
    }

    /// A service over existing shared caches (e.g. ones prewarmed by a
    /// crawl — the "detection as a service" deployment the paper's §6
    /// countermeasures discussion implies).
    pub fn with_caches(
        config: ServeConfig,
        scripts: Arc<ScriptCache>,
        analysis: Arc<AnalysisCache>,
    ) -> VerdictService {
        VerdictService {
            config,
            scripts,
            analysis,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Parse-cache counters (deterministic; parse-under-lock).
    pub fn script_stats(&self) -> ScriptCacheStats {
        self.scripts.stats()
    }

    /// Analysis-cache counters (deterministic; analyze-under-lock).
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.analysis.stats()
    }

    /// Epoch/invalidation counters.
    pub fn epoch_stats(&self) -> EpochCacheStats {
        self.analysis.epoch_stats()
    }

    /// Serves one load schedule. `requests` must be sorted by
    /// `(arrival_ms, id)`, `reloads` by `at_ms`. `sink` (when enabled)
    /// receives one per-request trace, in request order.
    pub fn serve(
        &self,
        requests: &[VerdictRequest],
        reloads: &[ReloadEvent],
        boot: RuleSnapshot,
        network: Option<&Network>,
        sink: Option<&dyn TraceSink>,
    ) -> ServeOutput {
        let plan = ServePlan::plan(requests, reloads, &self.config, network, boot);

        // Hash → source for every body the plan resolved, so degraded
        // tiers and the prewarm never re-derive payloads differently
        // from the plan.
        let mut sources: HashMap<u64, &str> = HashMap::new();
        for (req, disp) in requests.iter().zip(&plan.dispositions) {
            if let (Some(hash), Some(src)) = (disp.body_hash, resolve_source(req, network)) {
                sources.entry(hash).or_insert(src);
            }
        }

        // Prewarm: parallel parse of the plan's unique cold bodies.
        let cold: Vec<&str> = plan
            .cold_bodies
            .iter()
            .filter_map(|h| sources.get(h).copied())
            .collect();
        let workers = self.config.workers.max(1);
        if workers > 1 && cold.len() > 1 {
            std::thread::scope(|scope| {
                for chunk in cold.chunks(cold.len().div_ceil(workers)) {
                    let scripts = Arc::clone(&self.scripts);
                    scope.spawn(move || {
                        for src in chunk {
                            let _ = scripts.get_or_parse(src);
                        }
                    });
                }
            });
        } else {
            for src in &cold {
                let _ = self.scripts.get_or_parse(src);
            }
        }

        // Assemble, single-threaded, in request order.
        let registry = Arc::new(MetricsRegistry::new());
        let trace_on = sink.is_some_and(TraceSink::enabled);
        let mut responses = Vec::with_capacity(requests.len());
        let mut reload_idx = 0usize;
        for (req, disp) in requests.iter().zip(&plan.dispositions) {
            while reload_idx < plan.reloads.len()
                && plan.reloads[reload_idx].at_ms <= req.arrival_ms
            {
                let reload = &plan.reloads[reload_idx];
                self.analysis
                    .invalidate_shards(reload.invalidated_shards.iter().copied(), reload.epoch);
                registry.add("serve.reload.applied", 1);
                registry.add(
                    "serve.reload.shards_invalidated",
                    reload.invalidated_shards.len() as u64,
                );
                reload_idx += 1;
            }

            let snapshot = &plan.snapshots[disp.epoch as usize];
            let served = self.assemble(req, disp, snapshot, network);
            let response = VerdictResponse {
                id: req.id,
                epoch: disp.epoch,
                arrival_ms: req.arrival_ms,
                start_ms: disp.start_ms,
                finish_ms: disp.finish_ms,
                served,
            };
            record_metrics(&registry, disp, &response);
            if trace_on {
                if let Some(sink) = sink {
                    emit_trace(sink, req, disp, &response);
                }
            }
            responses.push(response);
        }

        ServeOutput {
            responses,
            plan,
            metrics: registry.snapshot(),
        }
    }

    /// Produces the served outcome for one disposition. Infallible by
    /// construction: every failure mode is a typed response.
    fn assemble(
        &self,
        req: &VerdictRequest,
        disp: &Disposition,
        snapshot: &RuleSnapshot,
        network: Option<&Network>,
    ) -> Served {
        let tier = match disp.decision {
            Decision::Reject(reason) => {
                return Served::Rejected {
                    reason,
                    retry_after_ms: disp.retry_after_ms,
                }
            }
            Decision::Serve(tier) => tier,
        };
        if let Some(error) = disp.fetch_error {
            return Served::FetchFailed {
                error: error.to_string(),
            };
        }
        let Some(source) = resolve_source(req, network) else {
            // The plan types every resolution failure as a fetch error,
            // so this arm is defensive, not expected.
            return Served::FetchFailed {
                error: "not-found".to_string(),
            };
        };
        let (blocklisted, vendor) = match &req.payload {
            Payload::Url { url } => (
                snapshot.covers(url),
                snapshot.vendor_for(url).map(str::to_string),
            ),
            Payload::Body { .. } => (false, None),
        };
        match tier {
            ServeTier::Full => {
                let (_, analysis) =
                    self.analysis
                        .analyze_at(source, Some(&self.scripts), disp.epoch);
                Served::Full {
                    verdict: analysis.verdict.label().to_string(),
                    findings: analysis.findings.len(),
                    blocklisted,
                    vendor,
                }
            }
            ServeTier::CacheOnly => {
                if !disp.cache_only_hit {
                    return Served::CacheMiss;
                }
                match self.analysis.peek(source) {
                    Some(analysis) => Served::CacheOnly {
                        verdict: analysis.verdict.label().to_string(),
                        blocklisted,
                        vendor,
                    },
                    // Plan and cache can only disagree if a caller mixed
                    // caches between runs; degrade to a typed miss.
                    None => Served::CacheMiss,
                }
            }
            ServeTier::Heuristic => Served::Heuristic {
                suspicious: heuristic_scan(source),
            },
        }
    }
}

/// The source text a request classifies, resolved exactly like the plan
/// resolved it (body payloads verbatim; URL payloads from the immutable
/// resource registry).
fn resolve_source<'a>(req: &'a VerdictRequest, network: Option<&'a Network>) -> Option<&'a str> {
    match &req.payload {
        Payload::Body { source } => Some(source),
        Payload::Url { url } => match network?.peek(url)? {
            Resource::Script(script) => Some(&script.source),
            Resource::Page(_) => None,
        },
    }
}

/// Counter/histogram vocabulary for one response.
fn record_metrics(registry: &MetricsRegistry, disp: &Disposition, response: &VerdictResponse) {
    registry.add("serve.offered", 1);
    match disp.decision {
        Decision::Serve(ServeTier::Full) => registry.add("serve.admitted.full", 1),
        Decision::Serve(ServeTier::CacheOnly) => registry.add("serve.admitted.cache-only", 1),
        Decision::Serve(ServeTier::Heuristic) => registry.add("serve.admitted.heuristic", 1),
        Decision::Reject(RejectReason::Overload) => registry.add("serve.rejected.overload", 1),
        Decision::Reject(RejectReason::DeadlineUnmeetable) => {
            registry.add("serve.rejected.deadline-unmeetable", 1)
        }
    }
    match &response.served {
        Served::FetchFailed { .. } => registry.add("serve.fetch-failed", 1),
        Served::CacheMiss => registry.add("serve.cache-miss", 1),
        _ => {}
    }
    if response.served.is_completed() {
        registry.observe("serve.latency_ms", response.latency_ms());
        registry.observe("serve.queue_ms", response.queue_ms());
    }
}

/// One per-request trace: admit instant, queue span, serve span with a
/// tier child and outcome instant.
fn emit_trace(
    sink: &dyn TraceSink,
    req: &VerdictRequest,
    disp: &Disposition,
    response: &VerdictResponse,
) {
    let rec = VisitRecorder::new(&format!("serve/{:06}", req.id), None);
    rec.instant("admit", || match disp.decision {
        Decision::Serve(tier) => tier.label().to_string(),
        Decision::Reject(reason) => format!("reject:{}", reason.label()),
    });
    match disp.decision {
        Decision::Reject(_) => {}
        Decision::Serve(tier) => {
            let queue = rec.span("queue");
            queue.end(response.queue_ms());
            let serve = rec.span("serve");
            let stage = rec.span(tier.label());
            rec.instant("outcome", || outcome_label(&response.served).to_string());
            stage.end(disp.finish_ms.saturating_sub(disp.start_ms));
            serve.end(response.latency_ms());
        }
    }
    if let Some(trace) = rec.finish() {
        sink.consume(trace);
    }
}

/// Stable label for a served outcome (trace/report vocabulary).
pub fn outcome_label(served: &Served) -> &'static str {
    match served {
        Served::Full { .. } => "full",
        Served::CacheOnly { .. } => "cache-only",
        Served::CacheMiss => "cache-miss",
        Served::Heuristic { .. } => "heuristic",
        Served::FetchFailed { .. } => "fetch-failed",
        Served::Rejected { .. } => "rejected",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShedThresholds;

    const FP: &str = r#"
        let c = document.createElement("canvas");
        let x = c.getContext("2d");
        x.fillText("serve me", 2, 2);
        c.toDataURL();
    "#;

    fn body_req(id: u64, arrival: u64, src: &str) -> VerdictRequest {
        VerdictRequest {
            id,
            arrival_ms: arrival,
            deadline_ms: None,
            payload: Payload::Body {
                source: src.to_string(),
            },
            phase: 0,
        }
    }

    fn boot() -> RuleSnapshot {
        RuleSnapshot::new(
            0,
            "boot",
            "||tracker.net^\n",
            RuleSnapshot::standard_vendor_patterns(),
        )
    }

    #[test]
    fn full_tier_serves_classifier_verdicts() {
        let service = VerdictService::new(ServeConfig::default());
        let reqs = vec![body_req(0, 0, FP), body_req(1, 1000, "let benign = 1;")];
        let out = service.serve(&reqs, &[], boot(), None, None);
        assert_eq!(out.responses.len(), 2);
        match &out.responses[0].served {
            Served::Full {
                verdict,
                blocklisted,
                vendor,
                ..
            } => {
                assert_eq!(verdict, "fingerprinting+exfil");
                assert!(!blocklisted, "body payloads carry no URL to match");
                assert!(vendor.is_none());
            }
            other => panic!("expected a full answer, got {other:?}"),
        }
        match &out.responses[1].served {
            Served::Full { verdict, .. } => assert_eq!(verdict, "benign"),
            other => panic!("expected a full answer, got {other:?}"),
        }
        assert_eq!(service.analysis_stats().analyses, 2);
        assert_eq!(out.metrics.counters["serve.admitted.full"], 2);
    }

    #[test]
    fn degraded_tiers_never_parse() {
        // Queue thresholds of zero force every request to the heuristic
        // tier; the parse cache must stay untouched.
        let config = ServeConfig {
            lanes: 1,
            shed: ShedThresholds {
                full_below: 0,
                cache_only_below: 0,
                heuristic_below: 40,
            },
            ..ServeConfig::default()
        };
        let service = VerdictService::new(config);
        let reqs = vec![body_req(0, 0, FP), body_req(1, 1, "let x = 1;")];
        let out = service.serve(&reqs, &[], boot(), None, None);
        assert!(matches!(
            out.responses[0].served,
            Served::Heuristic { suspicious: true }
        ));
        assert!(matches!(
            out.responses[1].served,
            Served::Heuristic { suspicious: false }
        ));
        assert_eq!(service.script_stats().lookups(), 0, "no parse at all");
        assert_eq!(service.analysis_stats().lookups(), 0);
        assert!(service.scripts.get_if_cached(FP).is_none());
    }

    #[test]
    fn cache_only_tier_hits_after_full_warms_and_misses_cold() {
        let config = ServeConfig {
            lanes: 1,
            // full below 1: only an idle queue gets full service.
            shed: ShedThresholds {
                full_below: 1,
                cache_only_below: 40,
                heuristic_below: 41,
            },
            ..ServeConfig::default()
        };
        let service = VerdictService::new(config);
        // Request 0 starts at t=0 and is never queued, so request 1
        // (same instant) still sees depth 0 and gets full service too;
        // requests 2 and 3 queue behind it and are shed to cache-only.
        let reqs = vec![
            body_req(0, 0, FP),       // idle → full, cold: warms the cache
            body_req(1, 0, FP),       // depth 0 → full, cache hit
            body_req(2, 1, FP),       // depth 1 → cache-only, hits
            body_req(3, 2, "1 + 1;"), // depth 2 → cache-only, cold → miss
        ];
        let out = service.serve(&reqs, &[], boot(), None, None);
        assert!(matches!(out.responses[0].served, Served::Full { .. }));
        assert!(matches!(out.responses[1].served, Served::Full { .. }));
        match &out.responses[2].served {
            Served::CacheOnly { verdict, .. } => assert_eq!(verdict, "fingerprinting+exfil"),
            other => panic!("expected a cache-only hit, got {other:?}"),
        }
        assert!(matches!(out.responses[3].served, Served::CacheMiss));
        assert_eq!(
            service.script_stats().parses,
            1,
            "only the one cold full-tier body parsed"
        );
        let epochs = service.epoch_stats();
        assert_eq!(epochs.peeks, 1, "one plan-predicted cache-only hit");
        assert_eq!(epochs.peek_hits, 1);
    }

    #[test]
    fn responses_are_identical_across_worker_counts() {
        let reqs: Vec<VerdictRequest> = (0..40)
            .map(|i| {
                body_req(
                    i,
                    i * 7,
                    &format!("let v{} = {}; v{} + 1;", i % 9, i % 9, i % 9),
                )
            })
            .collect();
        let reloads = vec![ReloadEvent {
            at_ms: 100,
            name: "v2".into(),
            list_text: "||tracker.net^\n||fresh.example^\n".into(),
            vendor_patterns: None,
        }];
        let mut rendered: Vec<String> = Vec::new();
        for workers in [1usize, 4, 8] {
            let service = VerdictService::new(ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            let out = service.serve(&reqs, &reloads, boot(), None, None);
            rendered.push(
                serde_json::to_string(&out.responses)
                    .unwrap_or_else(|e| panic!("responses serialize: {e}")),
            );
        }
        assert_eq!(rendered[0], rendered[1]);
        assert_eq!(rendered[1], rendered[2]);
    }

    #[test]
    fn reload_reclassifies_under_the_new_epoch() {
        use canvassing_net::{ScriptResource, Url};
        let mut network = Network::new();
        let url = Url::https("cdn.tracker.net", "/fp.js");
        network.host(
            &url,
            Resource::Script(ScriptResource {
                source: FP.to_string(),
                label: "t".into(),
            }),
        );
        let url_req = |id, arrival| VerdictRequest {
            id,
            arrival_ms: arrival,
            deadline_ms: None,
            payload: Payload::Url { url: url.clone() },
            phase: 0,
        };
        let service = VerdictService::new(ServeConfig::default());
        let reqs = vec![url_req(0, 0), url_req(1, 10_000)];
        let reloads = vec![ReloadEvent {
            at_ms: 5_000,
            name: "v2".into(),
            // tracker.net rules changed → its shard must re-classify.
            list_text: "||tracker.net^$script\n".into(),
            vendor_patterns: None,
        }];
        let out = service.serve(&reqs, &reloads, boot(), Some(&network), None);
        assert_eq!(out.responses[0].epoch, 0);
        assert_eq!(out.responses[1].epoch, 1);
        // Both full answers; the second is a re-analysis, not a hit.
        assert!(matches!(out.responses[0].served, Served::Full { .. }));
        assert!(matches!(out.responses[1].served, Served::Full { .. }));
        assert_eq!(service.analysis_stats().analyses, 2);
        assert_eq!(service.epoch_stats().stale_refreshes, 1);
        assert_eq!(service.script_stats().parses, 1, "the parse is reused");
        // Blocklist enrichment followed each admission epoch: covered
        // under both (the host stays listed), vendor attribution intact.
        for r in &out.responses {
            match &r.served {
                Served::Full { blocklisted, .. } => assert!(blocklisted),
                other => panic!("expected full, got {other:?}"),
            }
        }
    }

    #[test]
    fn traces_flow_to_the_sink_in_request_order() {
        use canvassing_trace::CountingSink;
        let service = VerdictService::new(ServeConfig::default());
        let sink = CountingSink::default();
        let reqs = vec![body_req(0, 0, FP), body_req(1, 50, "let t = 2;")];
        let out = service.serve(&reqs, &[], boot(), None, Some(&sink));
        let (visits, spans, _events) = sink.totals();
        assert_eq!(visits, 2);
        assert!(spans >= 2 * 3, "queue + serve + tier spans per request");
        assert_eq!(out.responses.len(), 2);
    }

    #[test]
    fn rejected_requests_still_get_responses() {
        let config = ServeConfig {
            lanes: 1,
            shed: ShedThresholds {
                full_below: 1,
                cache_only_below: 1,
                heuristic_below: 1,
            },
            ..ServeConfig::default()
        };
        let service = VerdictService::new(config);
        let reqs: Vec<VerdictRequest> = (0..5).map(|i| body_req(i, 0, FP)).collect();
        let out = service.serve(&reqs, &[], boot(), None, None);
        assert_eq!(out.responses.len(), 5, "1:1 request/response, no drops");
        let rejected = out
            .responses
            .iter()
            .filter(|r| !r.served.is_completed())
            .count();
        // Request 0 starts instantly (never queued) and request 1 still
        // sees depth 0; from request 2 on the queue is at the ceiling.
        assert_eq!(rejected, 3);
        assert_eq!(out.metrics.counters["serve.rejected.overload"], 3);
        assert_eq!(out.metrics.counters["serve.offered"], 5);
    }

    #[test]
    fn vendor_patterns_hot_reload_applies_to_later_requests() {
        use canvassing_net::{ScriptResource, Url};
        let mut network = Network::new();
        let url = Url::https("cdn.newvendor.example", "/collect.js");
        network.host(
            &url,
            Resource::Script(ScriptResource {
                source: FP.to_string(),
                label: "nv".into(),
            }),
        );
        let url_req = |id, arrival| VerdictRequest {
            id,
            arrival_ms: arrival,
            deadline_ms: None,
            payload: Payload::Url { url: url.clone() },
            phase: 0,
        };
        let mut patterns = RuleSnapshot::standard_vendor_patterns();
        patterns.insert("newvendor.example".into(), "NewVendor".into());
        let reloads = vec![ReloadEvent {
            at_ms: 5_000,
            name: "vendors-v2".into(),
            list_text: "||tracker.net^\n".into(),
            vendor_patterns: Some(patterns),
        }];
        let service = VerdictService::new(ServeConfig::default());
        let reqs = vec![url_req(0, 0), url_req(1, 10_000)];
        let out = service.serve(&reqs, &reloads, boot(), Some(&network), None);
        let vendor_of = |served: &Served| match served {
            Served::Full { vendor, .. } => vendor.clone(),
            other => panic!("expected full, got {other:?}"),
        };
        assert_eq!(vendor_of(&out.responses[0].served), None);
        assert_eq!(
            vendor_of(&out.responses[1].served),
            Some("NewVendor".to_string())
        );
    }

    #[test]
    fn with_caches_reuses_a_crawl_warmed_cache() {
        let scripts = Arc::new(ScriptCache::new());
        let analysis = Arc::new(AnalysisCache::new());
        analysis.analyze(FP, Some(&scripts));
        let service = VerdictService::with_caches(ServeConfig::default(), scripts, analysis);
        let out = service.serve(&[body_req(0, 0, FP)], &[], boot(), None, None);
        assert!(matches!(out.responses[0].served, Served::Full { .. }));
        assert_eq!(
            service.analysis_stats().analyses,
            1,
            "the crawl's analysis is reused, not recomputed"
        );
        assert_eq!(out.plan.predicted_analyses(), 1, "plan sees a cold body");
    }

    #[test]
    fn plan_predicts_execution_exactly() {
        let reqs: Vec<VerdictRequest> = (0..30)
            .map(|i| body_req(i, i * 13, &format!("let p{} = 0;", i % 5)))
            .collect();
        let service = VerdictService::new(ServeConfig::default());
        let out = service.serve(&reqs, &[], boot(), None, None);
        assert_eq!(
            service.analysis_stats().analyses,
            out.plan.predicted_analyses()
        );
    }
}
