//! Property tests for the analysis cache: the cache and the trace
//! instrumentation must both be transparent — cached, uncached, and traced
//! lookups agree on the verdict, and the crawl-wide counters partition the
//! lookups exactly.

#![cfg(test)]
// The proptest stub expands test bodies to nothing, so strategy
// helpers and imports look unused to rustc.
#![allow(unused_imports, dead_code)]

use std::sync::Arc;

use proptest::prelude::*;

use canvassing_script::ScriptCache;
use canvassing_trace::{MetricsRegistry, VisitRecorder};

use crate::{classify_source, shard_of, AnalysisCache, SHARD_COUNT};
use canvassing_script::source_hash;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached (with and without a shared compile cache) and uncached
    /// analysis agree on the verdict for any body in the pool.
    #[test]
    fn cache_paths_agree_on_verdict(picks in proptest::collection::vec(0usize..8, 1..32)) {
        let programs = ScriptCache::new();
        let with_programs = AnalysisCache::new();
        let without = AnalysisCache::new();
        for &p in &picks {
            let src = body(p);
            let direct = classify_source(&src).verdict;
            let (_, a) = with_programs.analyze(&src, Some(&programs));
            let (_, b) = without.analyze(&src, None);
            prop_assert_eq!(a.verdict, direct);
            prop_assert_eq!(b.verdict, direct);
        }
    }

    /// Traced analysis returns the same verdicts and its hit/analyze
    /// counters partition the lookups.
    #[test]
    fn traced_counters_partition_lookups(picks in proptest::collection::vec(0usize..8, 1..32)) {
        let cache = AnalysisCache::new();
        let reg = Arc::new(MetricsRegistry::new());
        let rec = VisitRecorder::new("prop", Some(Arc::clone(&reg)));
        let mut distinct = std::collections::BTreeSet::new();
        for &p in &picks {
            let src = body(p);
            let (_, traced) = cache.analyze_traced(&src, None, &rec);
            prop_assert_eq!(traced.verdict, classify_source(&src).verdict);
            distinct.insert(p);
        }
        let snap = reg.snapshot();
        let hits = snap.counters.get("analysis.cache.hit").copied().unwrap_or(0);
        let analyses = snap.counters.get("analysis.analyses").copied().unwrap_or(0);
        prop_assert_eq!(hits + analyses, picks.len() as u64);
        prop_assert_eq!(analyses, distinct.len() as u64);
    }
}

/// Small deterministic LCG (Knuth MMIX constants, as in the other seeded
/// sweeps) so each case replays exactly from its seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as usize
    }
}

/// Shard invalidation property (hot-reload correctness): after any
/// interleaving of lookups and shard invalidations, a lookup never
/// answers from an entry computed under a stale epoch. The cache is
/// checked against a shadow model tracking each body's last analysis
/// epoch and each shard's floor: `peek` hits exactly when the model
/// says the entry is valid, and `analyze_at` re-analyzes exactly when
/// it says the entry is stale or missing. 256 seeded cases of 1–64 ops.
#[test]
fn invalidation_never_serves_stale_epochs() {
    let mut stale_refreshes = 0usize;
    for seed in 0..256u64 {
        let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
        let cache = AnalysisCache::new();
        let mut model_epoch: std::collections::HashMap<usize, u64> = Default::default();
        let mut floors = [0u64; SHARD_COUNT];
        let mut epoch = 0u64;
        for _ in 0..1 + rng.below(64) {
            let (op, pick, shard_step) = (rng.below(3), rng.below(8), rng.below(4));
            let src = body(pick);
            let shard = shard_of(source_hash(&src));
            match op {
                0 => {
                    // Full lookup at the current epoch: must re-analyze
                    // iff the model says the entry is stale or missing.
                    let before = cache.stats().analyses;
                    cache.analyze_at(&src, None, epoch);
                    let analyzed = cache.stats().analyses > before;
                    let model_valid = model_epoch.get(&pick).is_some_and(|e| *e >= floors[shard]);
                    assert_eq!(analyzed, !model_valid, "seed {seed}");
                    stale_refreshes += (analyzed && model_epoch.contains_key(&pick)) as usize;
                    model_epoch.insert(pick, epoch);
                }
                1 => {
                    // Reload: raise some shard's floor to a new epoch.
                    epoch += 1;
                    let target = (shard + shard_step) % SHARD_COUNT;
                    cache.invalidate_shards([target], epoch);
                    floors[target] = floors[target].max(epoch);
                }
                _ => {
                    // Peek: hits exactly the model-valid entries.
                    let hit = cache.peek(&src).is_some();
                    let model_valid = model_epoch.get(&pick).is_some_and(|e| *e >= floors[shard]);
                    assert_eq!(hit, model_valid, "seed {seed}");
                }
            }
        }
    }
    assert!(
        stale_refreshes > 0,
        "the sweep must exercise stale refreshes"
    );
}

/// Seeded exhaustive form of the properties above (the offline proptest
/// stub compiles but does not sample, so this pins the invariants with a
/// deterministic LCG-driven sequence).
#[test]
fn cache_transparency_and_counters_seeded() {
    let mut lcg: u64 = 0x9e3779b97f4a7c15;
    for round in 0..3 {
        let programs = ScriptCache::new();
        let cache = AnalysisCache::new();
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

/// Long-run twin of `invalidation_never_serves_stale_epochs`: one
/// 600-op LCG-chosen interleaving of lookups, shard invalidations, and
/// peeks against the same shadow model, so post-reload lookups provably
/// never answer from a verdict computed under a stale blocklist epoch.
#[test]
fn invalidation_never_serves_stale_epochs_seeded() {
    let cache = AnalysisCache::new();
    let mut model_epoch: std::collections::HashMap<usize, u64> = Default::default();
    let mut floors = [0u64; SHARD_COUNT];
    let mut epoch = 0u64;
    let mut lcg: u64 = 0x5deece66d;
    let mut stale_refreshes_expected = 0u64;
    for _ in 0..600 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let roll = (lcg >> 33) as usize;
        let pick = roll % 8;
        let src = body(pick);
        let shard = shard_of(source_hash(&src));
        match roll % 5 {
            0 | 1 => {
                let before = cache.stats().analyses;
                let (_, analysis) = cache.analyze_at(&src, None, epoch);
                assert_eq!(
                    analysis.verdict,
                    classify_source(&src).verdict,
                    "re-analysis stays verdict-transparent"
                );
                let analyzed = cache.stats().analyses > before;
                let entry = model_epoch.get(&pick).copied();
                let model_valid = entry.is_some_and(|e| e >= floors[shard]);
                assert_eq!(analyzed, !model_valid, "analyze iff stale or missing");
                if entry.is_some() && !model_valid {
                    stale_refreshes_expected += 1;
                }
                model_epoch.insert(pick, epoch);
            }
            2 => {
                epoch += 1;
                let target = roll % SHARD_COUNT;
                cache.invalidate_shards([target], epoch);
                floors[target] = floors[target].max(epoch);
            }
            _ => {
                let hit = cache.peek(&src).is_some();
                let model_valid = model_epoch.get(&pick).is_some_and(|e| *e >= floors[shard]);
                assert_eq!(hit, model_valid, "peek hits exactly the valid entries");
            }
        }
    }
    assert!(epoch > 0, "the schedule must exercise reloads");
    assert!(
        stale_refreshes_expected > 0,
        "the schedule must exercise stale refreshes"
    );
    let epochs = cache.epoch_stats();
    assert_eq!(epochs.stale_refreshes, stale_refreshes_expected);
    assert!(epochs.peeks >= epochs.peek_hits);
}
