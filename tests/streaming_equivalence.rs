//! Streaming-path equivalence gates.
//!
//! The constant-memory pipeline — chunked scheduler and
//! [`CohortAccumulator`]-based aggregation — and the supervised spill —
//! sharded segment files merged back into one dataset — must be
//! *invisible* in the results: every record identical to a
//! whole-frontier crawl's, and the streamed study report byte identical
//! to the one the materializing batch runner rendered before it was
//! retired (`tests/golden/report_scale_0.2.txt`), across worker counts,
//! cache temperature, fault injection, and shard/segment geometry. These
//! tests sweep that matrix at reduced scale.
//!
//! To regenerate the snapshot after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test streaming_equivalence
//! ```
//!
//! [`CohortAccumulator`]: canvassing::CohortAccumulator

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use canvassing::study::{run_study_streamed, StreamingOptions, StudyOptions};
use canvassing_crawler::{
    crawl, crawl_streamed, crawl_with_caches, list_supervised_segments, merge_supervised,
    shard_range, supervise_crawl, CrawlConfig, CrawlDataset, FaultScript, MergeReport, RetryPolicy,
    SiteRecord, SupervisorConfig,
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
/// 64-site chunks renders exactly the committed snapshot, which the
/// materializing batch runner wrote.
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
    let streaming = StreamingOptions { chunk_sites: 64 };

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

/// Runs a fault-free supervised crawl of the workload over `shards`
/// shards with `segment_sites`-record segments into a fresh directory,
/// returning the directory and the crawl's merged dataset and report.
fn supervised_spill(
    tag: &str,
    web: &SyntheticWeb,
    frontier: &[Url],
    config: &CrawlConfig,
    shards: usize,
    segment_sites: usize,
) -> (PathBuf, CrawlDataset, MergeReport) {
    let dir = tmp_dir(tag);
    let mut sup = SupervisorConfig::new(shards);
    sup.segment_sites = segment_sites;
    let (merged, report) = supervise_crawl(
        &web.network,
        frontier,
        config,
        &dir,
        &sup,
        &FaultScript::none(),
    )
    .unwrap();
    (dir, merged, report.merge)
}

/// The segment files of one shard in a spill directory.
fn shard_segments(dir: &Path, shard: usize) -> Vec<PathBuf> {
    let prefix = format!("shard{shard:03}-");
    list_supervised_segments(dir, None)
        .unwrap()
        .into_iter()
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with(&prefix)
        })
        .collect()
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
        let (dir, merged, report) = supervised_spill(
            &format!("shards-{shards}"),
            &web,
            &frontier,
            &config,
            shards,
            13,
        );
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

/// A merge over a *partial* spill (one shard's segments are gone)
/// recrawls the gap and still lands byte-identical: losing a whole
/// shard's output costs its sites' work, never correctness.
#[test]
fn merge_with_missing_shard_recrawls_the_gap_identically() {
    let (web, frontier, config) = workload();
    let full = crawl(&web.network, &frontier, &config);
    let (dir, _, _) = supervised_spill("missing-shard", &web, &frontier, &config, 3, 13);
    for segment in shard_segments(&dir, 1) {
        std::fs::remove_file(segment).unwrap();
    }
    let (merged, report) = merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
    assert_eq!(
        report.recrawled,
        shard_range(frontier.len(), 1, 3).len(),
        "the lost shard must be recrawled"
    );
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&full).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Overlapping spills — one shard's segments also present under a later
/// epoch, the shape a re-leased or double-launched owner leaves behind —
/// dedupe exactly: `records_recovered` counts unique sites,
/// `duplicates_dropped` counts the collisions, and the bytes still match
/// a single crawl.
#[test]
fn overlapping_spills_dedupe_with_exact_accounting() {
    let (web, frontier, config) = workload();
    let full = crawl(&web.network, &frontier, &config);
    let (dir, _, _) = supervised_spill("overlap", &web, &frontier, &config, 2, 13);
    // The second "owner" of shard 1 wrote the same records at epoch 2.
    for segment in shard_segments(&dir, 1) {
        let name = segment.file_name().unwrap().to_str().unwrap();
        std::fs::copy(&segment, dir.join(name.replace("-e0001-", "-e0002-"))).unwrap();
    }
    let (merged, report) = merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
    assert_eq!(report.records_recovered, frontier.len(), "unique records");
    assert_eq!(
        report.duplicates_dropped,
        shard_range(frontier.len(), 1, 2).len(),
        "the overlap, exactly"
    );
    assert_eq!(report.recrawled, 0);
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&full).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Sanity: a merged dataset's label/device come from the config, so a
/// dataset merged from spill is interchangeable with a crawled one for
/// every downstream consumer.
#[test]
fn merged_dataset_is_a_first_class_crawl_dataset() {
    let (web, frontier, config) = workload();
    let (dir, _, _) = supervised_spill("first-class", &web, &frontier, &config, 1, 20);
    let (merged, _) = merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
    let direct: CrawlDataset = crawl(&web.network, &frontier, &config);
    assert_eq!(merged.label, direct.label);
    assert_eq!(merged.device_id, direct.device_id);
    assert_eq!(merged.failure_breakdown(), direct.failure_breakdown());
    std::fs::remove_dir_all(&dir).ok();
}
