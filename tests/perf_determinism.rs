//! Perf-layer acceptance tests: the compiled-script cache, render memo,
//! and surface pool are throughput optimizations only — every dataset a
//! cached crawl produces must be byte-identical to the uncached one,
//! across worker counts, under the full fault-injection matrix, across a
//! checkpoint/resume split, and the §5.3 double-render stability check
//! must behave identically with memoization on.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::detect::detect;
use canvassing_browser::DefenseMode;
use canvassing_crawler::{
    crawl, crawl_with_caches, crawl_with_stats, resume_crawl, CachingPolicy, CrawlConfig,
    CrawlDataset,
};
use canvassing_net::FaultMatrix;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

fn web(seed: u64) -> (SyntheticWeb, Vec<canvassing_net::Url>) {
    let web = SyntheticWeb::generate(WebConfig { seed, scale: 0.02 });
    let frontier = web.frontier(Cohort::Popular);
    (web, frontier)
}

fn config(workers: usize, caching: CachingPolicy) -> CrawlConfig {
    let mut config = CrawlConfig::control();
    config.workers = workers;
    config.caching = caching;
    config
}

#[test]
fn cached_and_uncached_crawls_are_byte_identical() {
    let (web, frontier) = web(21);
    let cached = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::default()),
    );
    let uncached = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::disabled()),
    );
    assert_eq!(
        cached.to_json().unwrap(),
        uncached.to_json().unwrap(),
        "caching must never change a record"
    );
}

#[test]
fn cached_crawl_is_byte_identical_across_worker_counts() {
    let (web, frontier) = web(22);
    let one = crawl(
        &web.network,
        &frontier,
        &config(1, CachingPolicy::default()),
    );
    let eight = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::default()),
    );
    assert_eq!(one.to_json().unwrap(), eight.to_json().unwrap());
}

#[test]
fn caching_preserves_byte_identity_under_the_fault_matrix() {
    // Layer the PR-1 fault matrix over a third of the frontier: the cache
    // layers must not perturb records even when visits fail, panic, or
    // get retried around them.
    let (mut web, frontier) = web(23);
    let targets: Vec<String> = frontier
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, u)| u.host.clone())
        .collect();
    FaultMatrix::new(5).inject_all(&mut web.network.faults, targets.iter().map(|h| h.as_str()));

    let cached = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::default()),
    );
    let uncached = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::disabled()),
    );
    assert_eq!(cached.to_json().unwrap(), uncached.to_json().unwrap());

    let single = crawl(
        &web.network,
        &frontier,
        &config(1, CachingPolicy::default()),
    );
    assert_eq!(cached.to_json().unwrap(), single.to_json().unwrap());
}

#[test]
fn cached_resume_merges_to_the_uninterrupted_dataset() {
    let (web, frontier) = web(24);
    let cfg = config(4, CachingPolicy::default());
    let full = crawl(&web.network, &frontier, &cfg);

    let mut partial_records = full.records[..frontier.len() / 2].to_vec();
    partial_records.remove(frontier.len() / 4);
    let checkpoint = CrawlDataset {
        label: full.label.clone(),
        device_id: full.device_id.clone(),
        records: partial_records,
    };
    let resumed = resume_crawl(&web.network, &frontier, &cfg, &checkpoint);
    assert_eq!(
        resumed.to_json().unwrap(),
        full.to_json().unwrap(),
        "resume with caches must merge to the exact uninterrupted dataset"
    );
}

#[test]
fn warm_caches_skip_parses_without_changing_the_dataset() {
    let (web, frontier) = web(25);
    let cfg = config(8, CachingPolicy::default());
    let caches = cfg.build_caches();
    let (cold_ds, cold) = crawl_with_caches(&web.network, &frontier, &cfg, &caches);
    let (warm_ds, warm) = crawl_with_caches(&web.network, &frontier, &cfg, &caches);
    assert_eq!(cold_ds.to_json().unwrap(), warm_ds.to_json().unwrap());
    assert!(cold.script_parses > 0, "cold pass parses the corpus");
    assert_eq!(warm.script_parses, 0, "warm pass re-parses nothing");
    assert_eq!(warm.memo_computes, 0, "warm pass re-renders nothing");
}

#[test]
fn breakers_and_salvage_preserve_byte_identity_across_cache_strategies() {
    // The resilience control plane (PR 5) composes with the perf layers
    // (PR 2): with per-host circuit breakers and salvage enabled under
    // the fault matrix, datasets must still be byte-identical across
    // caching on/off, worker counts, cache temperature, and a
    // checkpoint/resume split.
    let (mut web, frontier) = web(27);
    let targets: Vec<String> = frontier
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, u)| u.host.clone())
        .collect();
    FaultMatrix::new(6).inject_all(&mut web.network.faults, targets.iter().map(|h| h.as_str()));

    let resilient = |workers: usize, caching: CachingPolicy| {
        let mut cfg = config(workers, caching);
        cfg.breakers = canvassing_crawler::BreakerPolicy::enabled();
        cfg.salvage = true;
        cfg
    };
    let cached = crawl(
        &web.network,
        &frontier,
        &resilient(8, CachingPolicy::default()),
    );
    let uncached = crawl(
        &web.network,
        &frontier,
        &resilient(8, CachingPolicy::disabled()),
    );
    assert_eq!(cached.to_json().unwrap(), uncached.to_json().unwrap());
    let single = crawl(
        &web.network,
        &frontier,
        &resilient(1, CachingPolicy::default()),
    );
    assert_eq!(cached.to_json().unwrap(), single.to_json().unwrap());
    assert!(
        cached.salvaged().count() > 0,
        "matrix produces salvaged visits at this scale"
    );

    // Warm caches: same dataset again, no re-parsing.
    let cfg = resilient(8, CachingPolicy::default());
    let caches = cfg.build_caches();
    let (cold_ds, cold) = crawl_with_caches(&web.network, &frontier, &cfg, &caches);
    let (warm_ds, warm) = crawl_with_caches(&web.network, &frontier, &cfg, &caches);
    assert_eq!(cold_ds.to_json().unwrap(), warm_ds.to_json().unwrap());
    assert_eq!(cold_ds.to_json().unwrap(), cached.to_json().unwrap());
    assert!(cold.script_parses > 0);
    assert_eq!(warm.script_parses, 0);

    // Resume across a mid-crawl split with breakers on: the plan is
    // recomputed over the full frontier, so the merge stays exact.
    let mut partial_records = cached.records[..frontier.len() / 2].to_vec();
    partial_records.remove(frontier.len() / 4);
    let checkpoint = CrawlDataset {
        label: cached.label.clone(),
        device_id: cached.device_id.clone(),
        records: partial_records,
    };
    let resumed = resume_crawl(&web.network, &frontier, &cfg, &checkpoint);
    assert_eq!(resumed.to_json().unwrap(), cached.to_json().unwrap());
}

#[test]
fn vm_engine_is_byte_identical_across_workers_and_cache_temperature() {
    // The bytecode VM composes with every perf layer: datasets stay
    // byte-identical across worker counts 1/4/8 and across cold vs warm
    // shared caches.
    let (web, frontier) = web(28);
    let reference = crawl(
        &web.network,
        &frontier,
        &config(4, CachingPolicy::default()),
    )
    .to_json()
    .unwrap();

    for workers in [1, 4, 8] {
        let cfg = config(workers, CachingPolicy::default());
        let caches = cfg.build_caches();
        let (cold_ds, cold) = crawl_with_caches(&web.network, &frontier, &cfg, &caches);
        let (warm_ds, warm) = crawl_with_caches(&web.network, &frontier, &cfg, &caches);
        assert_eq!(
            cold_ds.to_json().unwrap(),
            reference,
            "VM cold crawl diverged at {workers} workers"
        );
        assert_eq!(
            warm_ds.to_json().unwrap(),
            reference,
            "VM warm crawl diverged at {workers} workers"
        );
        assert!(cold.script_compiles > 0, "cold pass compiles the corpus");
        assert_eq!(
            cold.script_compiles, cold.script_parses,
            "every executed body is compiled exactly once"
        );
        assert_eq!(warm.script_compiles, 0, "warm pass recompiles nothing");
        assert_eq!(warm.script_parses, 0, "warm pass re-parses nothing");
    }
}

#[test]
fn double_render_check_still_fires_with_memoization() {
    // §5.3: fingerprinters render the same canvas twice and compare. Memo
    // replay must preserve both extractions (same bytes under no defense)
    // so the detection heuristic sees the double render; and under a
    // randomization defense the memo must stand aside entirely so the
    // instability is real, not replayed.
    let (web, frontier) = web(26);

    let cached = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::default()),
    );
    let uncached = crawl(
        &web.network,
        &frontier,
        &config(8, CachingPolicy::disabled()),
    );
    let double_render_sites = |ds: &CrawlDataset| -> usize {
        ds.successful()
            .map(|(_, v)| detect(v))
            .filter(|d| d.double_render_check)
            .count()
    };
    let with_memo = double_render_sites(&cached);
    let without_memo = double_render_sites(&uncached);
    assert!(with_memo > 0, "corpus contains double-rendering vendors");
    assert_eq!(with_memo, without_memo, "memo must not mask the check");

    // Under per-render randomization, memo replay is disabled and every
    // double-rendering script sees genuinely unstable canvases.
    let mut defended = config(8, CachingPolicy::default());
    defended.defense = DefenseMode::RandomizePerRender { seed: 3 };
    let (_, stats) = crawl_with_stats(&web.network, &frontier, &defended);
    assert_eq!(stats.memo_hits, 0, "defended crawls never replay renders");
    assert_eq!(stats.memo_computes, 0);
    assert!(stats.script_executions > 0);
}
