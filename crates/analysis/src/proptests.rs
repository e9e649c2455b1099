//! Property tests for the analysis cache: the cache and the trace
//! instrumentation must both be transparent — cached, uncached, and traced
//! lookups agree on the verdict, and the crawl-wide counters partition the
//! lookups exactly.

#![cfg(test)]

use std::sync::Arc;

use canvassing_script::ScriptCache;
use canvassing_trace::{MetricsRegistry, VisitRecorder};

use crate::{classify_source, AnalysisCache};

/// A small pool of script bodies spanning all three verdicts.
fn body(i: usize) -> String {
    match i % 4 {
        0 => format!(
            r#"let c{i} = document.createElement("canvas");
               let x = c{i}.getContext("2d");
               x.fillText("p{i}", 2, 2);
               c{i}.toDataURL();"#
        ),
        1 => format!("let a = {i}; a + 1;"),
        2 => format!("let broken{i} = ;"),
        _ => format!(
            r#"let c = document.createElement("canvas");
               c.width = {i};
               let x = c.getContext("2d");
               x.fillText("x", 1, 1);"#
        ),
    }
}

/// Cached lookups with and without a shared compile cache, and traced
/// lookups, agree with the uncached classifier on every body, and the
/// traced hit/analyze counters partition the lookups exactly. A seeded
/// LCG picks the bodies, so every round replays from its constant.
#[test]
fn cache_transparency_and_counters_seeded() {
    let mut lcg: u64 = 0x9e3779b97f4a7c15;
    for round in 0..3 {
        let programs = ScriptCache::new();
        let cache = AnalysisCache::new();
        let uncompiled = AnalysisCache::new();
        let reg = Arc::new(MetricsRegistry::new());
        let rec = VisitRecorder::new("seeded", Some(Arc::clone(&reg)));
        let mut distinct = std::collections::BTreeSet::new();
        let lookups = 12 + round * 10;
        for _ in 0..lookups {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (lcg >> 33) as usize % 8;
            let src = body(pick);
            let direct = classify_source(&src).verdict;
            let (_, traced) = cache.analyze_traced(&src, Some(&programs), &rec);
            assert_eq!(traced.verdict, direct, "traced cache must be transparent");
            let (_, private) = uncompiled.analyze(&src, None);
            assert_eq!(
                private.verdict, direct,
                "uncompiled cache must be transparent"
            );
            distinct.insert(pick);
        }
        let snap = reg.snapshot();
        let hits = snap
            .counters
            .get("analysis.cache.hit")
            .copied()
            .unwrap_or(0);
        let analyses = snap.counters.get("analysis.analyses").copied().unwrap_or(0);
        assert_eq!(hits + analyses, lookups as u64);
        assert_eq!(analyses, distinct.len() as u64);
        assert_eq!(cache.stats().lookups(), lookups as u64);
    }
}
