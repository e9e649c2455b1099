//! Once-per-unique-script analysis cache.
//!
//! The crawler triages every script *before* execution, but a crawl sees
//! the same dozen vendor bodies on thousands of sites. The
//! [`AnalysisCache`] files each result in a [`BodyMap`], the compute-once
//! map under [`ScriptCache`]: results are keyed by the FNV-1a content
//! hash and the full source is compared on lookup (a 64-bit collision
//! degrades to a second entry, never to the wrong verdict). The analysis
//! runs outside the shard lock, once per body: concurrent requests for
//! the same body wait for the one running analysis rather than analyzing
//! twice — which is what makes [`AnalysisStats::analyses`] equal the
//! number of unique script bodies, deterministically, across worker
//! counts and schedules. An entry lives as long as the cache: the
//! analysis is a pure function of the source, so nothing ever
//! invalidates it.
//!
//! When a shared [`ScriptCache`] is available the analysis reuses its
//! compiled [`Program`](canvassing_script::Program) handle instead of
//! parsing a second time, so triage costs zero extra parses (the one
//! counted parse is the same one execution later hits on).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use canvassing_script::{source_hash, BodyMap, ScriptCache};

use crate::{classify_merged, classify_source_merged, Finding, RuleId, ScriptAnalysis, Verdict};

/// Cumulative analysis counters (deterministic; see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Full analyses run (== unique script bodies seen).
    pub analyses: u64,
}

impl AnalysisStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.analyses
    }
}

/// A sharded, `Arc`-shareable static-analysis cache.
#[derive(Default)]
pub struct AnalysisCache {
    bodies: BodyMap<Arc<ScriptAnalysis>>,
    hits: AtomicU64,
    analyses: AtomicU64,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Returns `(content_hash, analysis)` for `src`, running the analysis
    /// only if this exact body has never been seen by this cache.
    ///
    /// `programs` is the crawl's shared compile cache, when one is
    /// enabled: the AST is taken from it by shared handle (parsing it
    /// there on first sight, where the parse is counted once for both
    /// triage and execution). Without one, the body is parsed privately —
    /// the analysis stays available even when script caching is disabled,
    /// so enabling caches never changes what the crawler records.
    pub fn analyze(&self, src: &str, programs: Option<&ScriptCache>) -> (u64, Arc<ScriptAnalysis>) {
        self.lookup(src, programs).0
    }

    /// [`AnalysisCache::analyze`] wrapped in a `"triage"` trace span with a
    /// `"parse"` child (the program-resolution stage) and a `"verdict"`
    /// instant carrying the verdict label.
    ///
    /// The span structure is identical whether the lookup hits or
    /// analyzes: a verdict is a pure function of the source, but *which*
    /// visit pays the analysis is a scheduling accident, so hit/analyze
    /// attribution goes only to the crawl-wide `analysis.cache.hit` /
    /// `analysis.analyses` counters and per-visit streams stay
    /// schedule-independent.
    pub fn analyze_traced(
        &self,
        src: &str,
        programs: Option<&ScriptCache>,
        rec: &canvassing_trace::VisitRecorder,
    ) -> (u64, Arc<ScriptAnalysis>) {
        if !rec.enabled() {
            return self.analyze(src, programs);
        }
        let span = rec.span("triage");
        let parse = rec.span("parse");
        let ((hash, analysis), was_analysis) = self.lookup(src, programs);
        parse.end(0);
        rec.bump(if was_analysis {
            "analysis.analyses"
        } else {
            "analysis.cache.hit"
        });
        rec.instant("verdict", || analysis.verdict.label().to_string());
        span.end(0);
        (hash, analysis)
    }

    /// The shared lookup path: `(result, was_analysis)`.
    fn lookup(
        &self,
        src: &str,
        programs: Option<&ScriptCache>,
    ) -> ((u64, Arc<ScriptAnalysis>), bool) {
        let hash = source_hash(src);
        let (analysis, analyzed) = self.bodies.get_or_init(hash, src, "", || {
            Arc::new(match programs {
                Some(cache) => match cache.get_or_parse(src) {
                    Ok(program) => classify_merged(&program),
                    Err(e) => ScriptAnalysis {
                        verdict: Verdict::Inconclusive,
                        findings: vec![Finding {
                            rule: RuleId::IncParse,
                            detail: format!("parse failed: {e}"),
                        }],
                    },
                },
                None => classify_source_merged(src),
            })
        });
        let counter = if analyzed { &self.analyses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        ((hash, analysis), analyzed)
    }

    /// Number of distinct script bodies currently cached.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            hits: self.hits.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: &str = r#"
        let c = document.createElement("canvas");
        let x = c.getContext("2d");
        x.fillText("cache me", 2, 2);
        c.toDataURL();
    "#;

    #[test]
    fn identical_bodies_analyze_once() {
        let cache = AnalysisCache::new();
        let (h1, a) = cache.analyze(FP, None);
        let (h2, b) = cache.analyze(FP, None);
        assert_eq!(h1, h2);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let stats = cache.stats();
        assert_eq!(stats.analyses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(cache.len(), 1);
        assert!(a.verdict.is_fingerprinting());
    }

    #[test]
    fn reuses_compiled_ast_from_script_cache() {
        let programs = ScriptCache::new();
        let cache = AnalysisCache::new();
        cache.analyze(FP, Some(&programs));
        let parses_after_analysis = programs.stats().parses;
        assert_eq!(parses_after_analysis, 1, "analysis performs the one parse");
        // Execution-path lookup now hits the same entry: no second parse.
        programs.get_or_parse(FP).unwrap();
        assert_eq!(programs.stats().parses, 1);
        assert_eq!(programs.stats().hits, 1);
        // And a second analysis of the same body touches neither cache's
        // slow path.
        cache.analyze(FP, Some(&programs));
        assert_eq!(cache.stats().analyses, 1);
        assert_eq!(programs.stats().parses, 1);
    }

    #[test]
    fn parse_failures_are_inconclusive_and_cached() {
        let cache = AnalysisCache::new();
        let bad = "let = ;";
        let (_, a) = cache.analyze(bad, None);
        assert_eq!(a.verdict, Verdict::Inconclusive);
        assert!(a.findings.iter().any(|f| f.rule == RuleId::IncParse));
        let (_, b) = cache.analyze(bad, None);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().analyses, 1);
    }

    #[test]
    fn traced_analysis_spans_are_hit_miss_invariant() {
        use canvassing_trace::{span_names, EventKind, MetricsRegistry, VisitRecorder};
        let cache = AnalysisCache::new();
        let reg = Arc::new(MetricsRegistry::new());

        let trace_of = |rec: VisitRecorder| {
            cache.analyze_traced(FP, None, &rec);
            rec.finish()
                .unwrap_or_else(|| unreachable!("enabled recorder"))
        };
        let cold = trace_of(VisitRecorder::new("v", Some(Arc::clone(&reg))));
        let warm = trace_of(VisitRecorder::new("v", Some(Arc::clone(&reg))));
        // The event stream is identical whether the analysis ran or hit.
        assert_eq!(cold.events, warm.events);
        let names = span_names(&cold);
        assert!(names.contains("triage"));
        assert!(names.contains("parse"));
        let verdicts: Vec<&String> = cold
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Instant { name, detail, .. } if *name == "verdict" => Some(detail),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts, vec!["fingerprinting+exfil"]);
        // Attribution lives in the shared counters.
        let snap = reg.snapshot();
        assert_eq!(snap.counters["analysis.analyses"], 1);
        assert_eq!(snap.counters["analysis.cache.hit"], 1);
    }

    #[test]
    fn concurrent_lookups_of_one_body_analyze_once() {
        let cache = Arc::new(AnalysisCache::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..25 {
                        cache.analyze(FP, None);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.analyses, 1);
        assert_eq!(stats.hits, 8 * 25 - 1);
    }
}
