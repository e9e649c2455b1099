//! Streaming-path equivalence gates.
//!
//! The constant-memory pipeline — chunked scheduler, sharded segment
//! spill, [`CohortAccumulator`]-based aggregation — must be *invisible*
//! in the results: every record identical to a whole-frontier crawl's,
//! and the spilled study report byte identical to the one the
//! materializing batch runner rendered before it was retired
//! (`tests/golden/report_scale_0.2.txt`), across worker counts, cache
//! temperature, fault injection, and shard/segment geometry. These tests
//! sweep that matrix at reduced scale.
//!
//! To regenerate the snapshot after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test streaming_equivalence
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use canvassing::study::{run_study_streamed, StreamingOptions, StudyOptions};
use canvassing_crawler::{
    crawl, crawl_shard_to_segments, crawl_streamed, crawl_with_caches, list_segments,
    merge_segments, CrawlConfig, CrawlDataset, RetryPolicy, SiteRecord,
};
use canvassing_net::{FaultMatrix, Url};
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("canvassing-stream-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A faulted crawl workload: planned outages across the frontier so the
/// equivalence sweep covers retries, salvage, and failure records — not
/// just the happy path.
fn workload() -> (SyntheticWeb, Vec<Url>, CrawlConfig) {
    let mut web = SyntheticWeb::generate(WebConfig {
        seed: 11,
        scale: 0.02,
    });
    let mut frontier = web.frontier(Cohort::Popular);
    frontier.truncate(80);
    let targets: Vec<String> = frontier.iter().step_by(3).map(|u| u.host.clone()).collect();
    FaultMatrix::new(7).inject_all(&mut web.network.faults, targets.iter().map(String::as_str));
    let mut config = CrawlConfig::control();
    config.workers = 4;
    config.retry = RetryPolicy::retries(1);
    (web, frontier, config)
}

fn records_json(records: &[SiteRecord]) -> String {
    records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_scale_0.2.txt"
);

/// The tentpole gate: the full study — adblock re-crawls, M1
/// validation, traced control crawls — streamed through accumulators in
/// 64-site chunks and spilled to 256-record segments renders exactly
/// the committed snapshot, which the materializing batch runner wrote.
#[test]
fn streamed_study_report_is_byte_identical() {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 2025,
        scale: 0.2,
    });
    let options = StudyOptions {
        workers: 4,
        adblock_crawls: true,
        m1_validation: true,
        defense_sweep: false,
        trace: true,
    };
    let spill = tmp_dir("study-spill");
    let streaming = StreamingOptions {
        chunk_sites: 64,
        segment_sites: 256,
        spill_dir: Some(spill.clone()),
    };

    let streamed = run_study_streamed(&web, &options, &streaming)
        .unwrap()
        .render_report();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &streamed).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing — run with UPDATE_GOLDEN=1 to create it");

    if golden != streamed {
        let at = golden
            .bytes()
            .zip(streamed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.len().min(streamed.len()));
        let lo = at.saturating_sub(120);
        panic!(
            "streamed report diverges at byte {at}:\n--- golden ---\n{}\n--- streamed ---\n{}",
            &golden[lo..(at + 120).min(golden.len())],
            &streamed[lo..(at + 120).min(streamed.len())],
        );
    }

    // The spill is a complete, independently mergeable copy of each
    // control crawl: recovering the popular segments and resuming over
    // the frontier reproduces a direct batch crawl byte for byte.
    let mut control = CrawlConfig::control();
    control.workers = options.workers;
    let frontier = web.frontier(Cohort::Popular);
    let segments = list_segments(&spill.join("popular")).unwrap();
    assert!(
        segments.len() >= 3,
        "{} sites at 256/segment should seal >=3 segments",
        frontier.len()
    );
    let (merged, report) =
        merge_segments(&web.network, &frontier, &control, &segments, None).unwrap();
    assert_eq!(report.records_recovered, frontier.len());
    assert_eq!(report.recrawled, 0);
    let direct = crawl(&web.network, &frontier, &control);
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
    std::fs::remove_dir_all(&spill).ok();
}

/// Crawl-level equivalence under faults: the chunked streaming
/// scheduler delivers exactly the batch scheduler's records, for every
/// worker count, from both cold and warm caches, with stats to match.
#[test]
fn streamed_records_match_batch_across_workers_and_cache_temperature() {
    let (web, frontier, _) = workload();
    for workers in [1usize, 4, 8] {
        let mut config = CrawlConfig::control();
        config.workers = workers;
        config.retry = RetryPolicy::retries(1);
        // One caches instance per path: the two runs must start each
        // pass at the same cache temperature to produce the same stats.
        let batch_caches = config.build_caches();
        let stream_caches = config.build_caches();
        for pass in ["cold", "warm"] {
            let (batch_ds, batch_stats) =
                crawl_with_caches(&web.network, &frontier, &config, &batch_caches);
            let mut streamed: Vec<SiteRecord> = Vec::new();
            let streamed_stats = crawl_streamed(
                &web.network,
                &frontier,
                &config,
                &stream_caches,
                17,
                |i, record| {
                    assert_eq!(i, streamed.len(), "records must arrive in frontier order");
                    streamed.push(record);
                },
            );
            assert_eq!(
                records_json(&batch_ds.records),
                records_json(&streamed),
                "workers={workers} pass={pass}"
            );
            assert_eq!(batch_stats, streamed_stats, "workers={workers} pass={pass}");
        }
    }
}

/// Spill + merge identity under faults, swept over shard counts and a
/// deliberately awkward segment size (13 never divides the shard
/// ranges evenly, so every boundary case — short final segments, sealed
/// vs finish-sealed — is exercised).
#[test]
fn sharded_spill_merges_identically_for_all_shard_counts() {
    let (web, frontier, config) = workload();
    let full = crawl(&web.network, &frontier, &config);
    for shards in [1usize, 4, 8] {
        let dir = tmp_dir(&format!("shards-{shards}"));
        for shard in 0..shards {
            crawl_shard_to_segments(&web.network, &frontier, &config, &dir, shard, shards, 13, 9)
                .unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        let (merged, report) =
            merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();
        assert_eq!(report.records_recovered, frontier.len(), "shards={shards}");
        assert_eq!(report.segments_recovered_dirty, 0, "shards={shards}");
        assert_eq!(
            report.duplicates_dropped, 0,
            "disjoint shards never overlap"
        );
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&full).unwrap(),
            "shards={shards}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A merge over a *partial* spill (some shards never ran) recrawls the
/// gap and still lands byte-identical — the scale-out story's crash
/// tolerance: losing a whole shard's process costs its sites' work,
/// never correctness.
#[test]
fn merge_with_missing_shard_recrawls_the_gap_identically() {
    let (web, frontier, config) = workload();
    let full = crawl(&web.network, &frontier, &config);
    let dir = tmp_dir("missing-shard");
    // Run shards 0 and 2 of 3; shard 1 "crashed before starting".
    for shard in [0usize, 2] {
        crawl_shard_to_segments(&web.network, &frontier, &config, &dir, shard, 3, 13, 9).unwrap();
    }
    let segments = list_segments(&dir).unwrap();
    let (merged, report) =
        merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();
    assert!(report.recrawled > 0, "the lost shard must be recrawled");
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&full).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Overlapping spills — two independent full-range crawls merged
/// together, the shape a re-leased or double-launched worker leaves
/// behind — dedupe exactly: `records_recovered` counts unique sites,
/// `duplicates_dropped` counts the collisions, and the bytes still
/// match a single crawl.
#[test]
fn overlapping_spills_dedupe_with_exact_accounting() {
    let (web, frontier, config) = workload();
    let full = crawl(&web.network, &frontier, &config);
    let dir_a = tmp_dir("overlap-a");
    let dir_b = tmp_dir("overlap-b");
    crawl_shard_to_segments(&web.network, &frontier, &config, &dir_a, 0, 1, 13, 9).unwrap();
    // The second "worker" crawls only the back half of the range (shard
    // 1 of 2): a partial overlap, not a mirror image.
    crawl_shard_to_segments(&web.network, &frontier, &config, &dir_b, 1, 2, 13, 9).unwrap();
    let mut segments = list_segments(&dir_a).unwrap();
    segments.extend(list_segments(&dir_b).unwrap());
    let (merged, report) =
        merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();
    let back_half = frontier.len() - frontier.len() / 2;
    assert_eq!(report.records_recovered, frontier.len(), "unique records");
    assert_eq!(report.duplicates_dropped, back_half, "the overlap, exactly");
    assert_eq!(report.recrawled, 0);
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&full).unwrap()
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Sanity: a merged dataset's label/device come from the config, so a
/// dataset merged from spill is interchangeable with a crawled one for
/// every downstream consumer.
#[test]
fn merged_dataset_is_a_first_class_crawl_dataset() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("first-class");
    crawl_shard_to_segments(&web.network, &frontier, &config, &dir, 0, 1, 20, 10).unwrap();
    let segments = list_segments(&dir).unwrap();
    let (merged, _) = merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();
    let direct: CrawlDataset = crawl(&web.network, &frontier, &config);
    assert_eq!(merged.label, direct.label);
    assert_eq!(merged.device_id, direct.device_id);
    assert_eq!(merged.failure_breakdown(), direct.failure_breakdown());
    std::fs::remove_dir_all(&dir).ok();
}
