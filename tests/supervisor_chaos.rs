//! Crash-tolerance gates for the shard supervisor (PR 10).
//!
//! The supervision layer — leases, heartbeats, re-leases, straggler
//! speculation, duplicate-safe merge — must be *invisible in the
//! dataset*: whatever combination of worker crashes, torn segment
//! tails, hangs, duplicate launches, and speculative double-execution a
//! run suffers, the merged output is byte-identical to one
//! uninterrupted `workers = 1` crawl, and the merge's accounting is
//! exact (`records_recovered + recrawled == frontier`, duplicates
//! counted, re-work bounded by one segment per crash). The tentpole is
//! the kill-at-every-record sweep; every scenario also pins its exact
//! supervision counters.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::sync::Arc;

use canvassing::study::{run_study_streamed, run_study_supervised, StreamingOptions, StudyOptions};
use canvassing_crawler::{
    crawl, read_lease, shard_range, supervise_crawl, CrawlConfig, FaultScript, Lease, RetryPolicy,
    SpeculationPolicy, SupervisorConfig, WorkerFault,
};
use canvassing_net::{FaultMatrix, Network, Url};
use canvassing_trace::{RingSink, TraceSink};
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("canvassing-chaos-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A faulted workload (planned outages on every third host) so the
/// sweep exercises crash tolerance on top of retries, salvage, and
/// failure records — not just the happy path.
fn workload() -> (SyntheticWeb, Vec<Url>, CrawlConfig) {
    let mut web = SyntheticWeb::generate(WebConfig {
        seed: 11,
        scale: 0.02,
    });
    let mut frontier = web.frontier(Cohort::Popular);
    frontier.truncate(40);
    let targets: Vec<String> = frontier.iter().step_by(3).map(|u| u.host.clone()).collect();
    FaultMatrix::new(7).inject_all(&mut web.network.faults, targets.iter().map(String::as_str));
    let mut config = CrawlConfig::control();
    config.workers = 1;
    config.retry = RetryPolicy::retries(1);
    (web, frontier, config)
}

fn sup(shards: usize, segment_sites: usize) -> SupervisorConfig {
    let mut s = SupervisorConfig::new(shards);
    s.segment_sites = segment_sites;
    s
}

fn json(ds: &canvassing_crawler::CrawlDataset) -> String {
    serde_json::to_string(ds).unwrap()
}

/// The scenario counters of a supervision report, in a fixed order:
/// launched, crashed, fenced, cancelled, leases expired, leases stolen,
/// re-leases, speculative launches, records crawled, records redone,
/// duplicates dropped, max epoch.
fn counters(report: &canvassing_crawler::SupervisionReport) -> [usize; 12] {
    [
        report.workers_launched,
        report.workers_crashed,
        report.workers_fenced,
        report.workers_cancelled,
        report.leases_expired,
        report.leases_stolen,
        report.re_leases,
        report.speculative_launches,
        report.records_crawled,
        report.records_redone,
        report.merge.duplicates_dropped,
        report.max_epoch as usize,
    ]
}

fn instant_total(sink: &Arc<RingSink>, name: &str) -> usize {
    sink.traces().iter().map(|t| t.instant_count(name)).sum()
}

/// Runs one supervised crawl and asserts the universal invariants every
/// fault scenario must satisfy, returning the report for
/// scenario-specific assertions.
fn assert_supervised_identical(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    dir: &PathBuf,
    s: &SupervisorConfig,
    faults: &FaultScript,
    expect: &str,
) -> canvassing_crawler::SupervisionReport {
    let direct = crawl(network, frontier, config);
    let (merged, report) = supervise_crawl(network, frontier, config, dir, s, faults).unwrap();
    assert_eq!(json(&merged), json(&direct), "{expect}: dataset bytes");
    assert_eq!(
        report.merge.records_recovered + report.merge.recrawled,
        frontier.len(),
        "{expect}: accounting must be exact"
    );
    assert!(
        report.records_redone
            <= report.workers_crashed * s.segment_sites + report.merge.duplicates_dropped,
        "{expect}: re-work {} exceeds {} crashes x {} segment sites + {} duplicates",
        report.records_redone,
        report.workers_crashed,
        s.segment_sites,
        report.merge.duplicates_dropped,
    );
    std::fs::remove_dir_all(dir).ok();
    report
}

/// THE tentpole gate: kill shard 0's owner at every record index K of
/// its range (torn segment tail at the kill point), and at every K the
/// supervisor re-leases, resumes from the durable frontier, and merges
/// byte-identical to an uninterrupted crawl — with re-work bounded by
/// one segment per crash.
#[test]
fn kill_at_every_record_merges_byte_identical() {
    let (web, frontier, config) = workload();
    let shards = 2;
    let shard0 = shard_range(frontier.len(), 0, shards);
    // No kill at all: one launch per shard and nothing re-done.
    let report = assert_supervised_identical(
        &web.network,
        &frontier,
        &config,
        &tmp_dir("clean"),
        &sup(shards, 6),
        &FaultScript::none(),
        "clean",
    );
    assert_eq!(
        counters(&report),
        [2, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 1],
        "clean"
    );
    for k in 0..shard0.len() {
        let dir = tmp_dir(&format!("kill-{k}"));
        let mut faults = FaultScript::none();
        faults.inject(0, 1, WorkerFault::CrashAtRecord(k));
        let report = assert_supervised_identical(
            &web.network,
            &frontier,
            &config,
            &dir,
            &sup(shards, 6),
            &faults,
            &format!("kill at record {k}"),
        );
        assert_eq!(report.workers_crashed, 1, "kill at {k}");
        assert_eq!(report.re_leases, 1, "kill at {k}");
        assert_eq!(report.max_epoch, 2, "kill at {k}");
        // Appends flush record-by-record, so the only lost work is the
        // torn in-flight record itself.
        assert_eq!(report.records_redone, 1, "kill at {k}");
        assert_eq!(
            counters(&report),
            [3, 1, 0, 0, 0, 0, 1, 0, 41, 1, 0, 2],
            "kill at {k}"
        );
    }
}

/// Double-kill: the re-leased owner crashes too (epoch 2), and a third
/// epoch finishes the shard.
#[test]
fn consecutive_crashes_across_epochs_still_merge_identically() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("double-kill");
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::CrashAtRecord(3));
    faults.inject(0, 2, WorkerFault::CrashAtRecord(2));
    let report = assert_supervised_identical(
        &web.network,
        &frontier,
        &config,
        &dir,
        &sup(2, 5),
        &faults,
        "double kill",
    );
    assert_eq!(report.workers_crashed, 2);
    assert_eq!(report.re_leases, 2);
    assert_eq!(report.max_epoch, 3);
    assert_eq!(report.records_redone, 2, "one torn record per crash");
    assert_eq!(
        counters(&report),
        [4, 2, 0, 0, 0, 0, 2, 0, 42, 2, 0, 3],
        "scenario counters"
    );
}

/// Crash before the first spill: the shard has an owner on paper and
/// nothing on disk; the standby re-crawls the whole range.
#[test]
fn crash_before_first_spill_re_leases_from_scratch() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("first-spill");
    let mut faults = FaultScript::none();
    faults.inject(1, 1, WorkerFault::CrashBeforeFirstSpill);
    let report = assert_supervised_identical(
        &web.network,
        &frontier,
        &config,
        &dir,
        &sup(2, 6),
        &faults,
        "crash before first spill",
    );
    assert_eq!(report.workers_crashed, 1);
    assert_eq!(report.re_leases, 1);
    assert_eq!(report.records_redone, 0, "nothing was ever crawled twice");
    assert_eq!(
        counters(&report),
        [3, 1, 0, 0, 0, 0, 1, 0, 40, 0, 0, 2],
        "scenario counters"
    );
}

/// A hung process: stops crawling *and* heartbeating. Only the lease
/// TTL clears it — `lease.expire` fires exactly once, the shard is
/// re-leased, and the stall's durably-spilled prefix is reused, not
/// recrawled.
#[test]
fn stalled_worker_expires_and_is_re_leased() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("stall");
    let sink = Arc::new(RingSink::new(512));
    let mut s = sup(2, 6);
    s.speculation = SpeculationPolicy::Off; // isolate the expiry path
    s.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::Stall { after_records: 4 });
    let direct = crawl(&web.network, &frontier, &config);
    let (merged, report) =
        supervise_crawl(&web.network, &frontier, &config, &dir, &s, &faults).unwrap();
    assert_eq!(json(&merged), json(&direct));
    assert_eq!(report.leases_expired, 1);
    assert_eq!(report.re_leases, 1);
    assert_eq!(report.workers_crashed, 0, "a hang is not a crash");
    assert_eq!(report.records_redone, 0, "the stalled prefix is reused");
    assert_eq!(instant_total(&sink, "worker.stall"), 1);
    assert_eq!(instant_total(&sink, "lease.expire"), 1, "expire fires once");
    assert_eq!(instant_total(&sink, "worker.restart"), 1);
    assert_eq!(
        counters(&report),
        [3, 0, 0, 0, 1, 0, 1, 0, 40, 0, 0, 2],
        "scenario counters"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Duplicate launch: a second worker steals the live lease mid-crawl
/// while the original keeps spilling until its next heartbeat notices
/// the fence. The overlap lands on disk twice and the merge drops it —
/// `duplicates_dropped` is the proof the collision happened AND was
/// absorbed.
#[test]
fn duplicate_launch_is_fenced_and_merge_drops_the_overlap() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("duplicate");
    let sink = Arc::new(RingSink::new(512));
    let mut s = sup(2, 6);
    s.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let mut faults = FaultScript::none();
    faults.duplicate_launch(0, 3);
    let direct = crawl(&web.network, &frontier, &config);
    let (merged, report) =
        supervise_crawl(&web.network, &frontier, &config, &dir, &s, &faults).unwrap();
    assert_eq!(json(&merged), json(&direct));
    assert_eq!(report.leases_stolen, 1);
    assert_eq!(report.workers_fenced, 1, "the original observed the fence");
    assert!(
        report.merge.duplicates_dropped > 0,
        "the fencing lag must have produced overlapping records"
    );
    assert_eq!(
        report.merge.records_recovered + report.merge.recrawled,
        frontier.len()
    );
    assert_eq!(instant_total(&sink, "lease.steal"), 1);
    assert_eq!(instant_total(&sink, "worker.fenced"), 1);
    assert_eq!(
        counters(&report),
        [3, 0, 1, 0, 0, 1, 0, 0, 42, 2, 2, 2],
        "scenario counters"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Straggler speculation: a slow-but-heartbeating owner gets raced by a
/// speculative second owner; whichever finishes first wins, the loser
/// is cancelled, and the double-executed overlap merges away.
#[test]
fn straggler_is_raced_and_the_loser_cancelled() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("straggle");
    let sink = Arc::new(RingSink::new(512));
    let mut s = sup(2, 6);
    s.speculation = SpeculationPolicy::Race {
        after_quiet_ticks: 4,
    };
    s.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::Straggle { period: 12 });
    let direct = crawl(&web.network, &frontier, &config);
    let (merged, report) =
        supervise_crawl(&web.network, &frontier, &config, &dir, &s, &faults).unwrap();
    assert_eq!(json(&merged), json(&direct));
    assert_eq!(report.speculative_launches, 1);
    assert_eq!(
        report.workers_cancelled, 1,
        "the race has exactly one loser"
    );
    assert_eq!(
        report.leases_expired, 0,
        "the straggler never missed a beat"
    );
    assert_eq!(instant_total(&sink, "straggler.speculate"), 1);
    assert_eq!(instant_total(&sink, "worker.cancel"), 1);
    assert!(report.wasted_work_ratio() < 0.5, "speculation is bounded");
    assert_eq!(
        counters(&report),
        [3, 0, 0, 1, 0, 1, 0, 1, 41, 1, 1, 2],
        "scenario counters"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `counters` of each seeded chaos run, seeds 1 to 6.
const SEEDED_COUNTERS: [[usize; 12]; 6] = [
    [6, 1, 1, 0, 0, 1, 1, 0, 44, 4, 3, 2],
    [6, 2, 0, 0, 0, 0, 2, 0, 41, 1, 0, 2],
    [9, 5, 0, 0, 0, 0, 5, 0, 44, 4, 0, 3],
    [6, 1, 1, 0, 0, 1, 1, 0, 42, 2, 2, 2],
    [7, 2, 1, 0, 0, 1, 2, 0, 46, 6, 4, 3],
    [9, 4, 0, 0, 1, 0, 5, 0, 44, 4, 0, 3],
];

/// Seeded mixed chaos: crashes, stalls, stragglers, double-crashes, and
/// duplicate launches sprinkled across shards by an LCG — every seed
/// must merge byte-identical with exact accounting.
#[test]
fn seeded_chaos_sweep_is_always_byte_identical() {
    let (web, frontier, config) = workload();
    for seed in 1..=6u64 {
        let dir = tmp_dir(&format!("seeded-{seed}"));
        let faults = FaultScript::seeded(seed, 4);
        let report = assert_supervised_identical(
            &web.network,
            &frontier,
            &config,
            &dir,
            &sup(4, 5),
            &faults,
            &format!("seeded chaos {seed}"),
        );
        assert_eq!(
            counters(&report),
            SEEDED_COUNTERS[seed as usize - 1],
            "seeded chaos {seed}"
        );
    }
}

/// `counters` of each seeded chaos run racing owners quiet for two ticks,
/// seeds 1 to 6.
const SEEDED_RACE_COUNTERS: [[usize; 12]; 6] = [
    [6, 1, 1, 0, 0, 1, 1, 0, 44, 4, 3, 2],
    [7, 2, 0, 1, 0, 1, 2, 1, 44, 4, 3, 2],
    [9, 5, 0, 0, 0, 0, 5, 0, 44, 4, 0, 3],
    [7, 1, 1, 1, 0, 2, 1, 1, 44, 4, 4, 2],
    [8, 2, 1, 1, 0, 2, 2, 1, 48, 8, 6, 3],
    [9, 4, 0, 0, 1, 0, 5, 0, 44, 4, 0, 3],
];

/// The seeded sweep again under `Race { after_quiet_ticks: 2 }`: the
/// seeded stragglers (one record every 3–6 ticks) stay quiet long enough
/// to be raced, so speculation runs beside the seeded crashes, stalls and
/// duplicate launches, which `SupervisorConfig::new`'s six quiet ticks
/// never allow.
#[test]
fn seeded_chaos_with_eager_speculation_is_byte_identical() {
    let (web, frontier, config) = workload();
    let mut s = sup(4, 5);
    s.speculation = SpeculationPolicy::Race {
        after_quiet_ticks: 2,
    };
    let seen: Vec<[usize; 12]> = (1..=6u64)
        .map(|seed| {
            let report = assert_supervised_identical(
                &web.network,
                &frontier,
                &config,
                &tmp_dir(&format!("seeded-race-{seed}")),
                &s,
                &FaultScript::seeded(seed, 4),
                &format!("seeded chaos {seed}, eager speculation"),
            );
            counters(&report)
        })
        .collect();
    assert_eq!(seen, SEEDED_RACE_COUNTERS, "counters of seeds 1 to 6");
    assert!(
        seen.iter().any(|c| c[7] > 0),
        "some seed must race a speculative owner"
    );
}

/// The livelock valve: when shard 0's owner dies before its first spill
/// at every epoch, the crawl fails once the shard has used its 32 epochs
/// instead of re-leasing forever.
#[test]
fn a_shard_that_never_spills_fails_at_the_epoch_cap() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("epoch-cap");
    let mut faults = FaultScript::none();
    for epoch in 1..=40 {
        faults.inject(0, epoch, WorkerFault::CrashBeforeFirstSpill);
    }
    let err = supervise_crawl(&web.network, &frontier, &config, &dir, &sup(2, 6), &faults)
        .expect_err("an owner that never spills must exhaust the epochs");
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    assert_eq!(
        err.to_string(),
        "shard 0 exceeded 32 epochs — supervision livelock"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// What a run with a crash (shard 0), a duplicate launch (shard 1) and a
/// stall (shard 2) leaves behind: each shard's full lease as released by
/// its last owner, and no file but the segments and one lease per shard.
#[test]
fn mixed_fault_supervision_leaves_released_leases_and_no_residue() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("released-mixed");
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::CrashAtRecord(2));
    faults.duplicate_launch(1, 3);
    faults.inject(2, 1, WorkerFault::Stall { after_records: 2 });
    supervise_crawl(&web.network, &frontier, &config, &dir, &sup(3, 6), &faults).unwrap();
    let released = |shard, worker, acquired_ms, heartbeat_ms, progress| Lease {
        shard,
        epoch: 2,
        worker,
        acquired_ms,
        heartbeat_ms,
        progress,
        speculative: false,
        released: true,
    };
    let expected = [
        released(0, 4, 400, 1400, 11),
        released(1, 3, 300, 1300, 10),
        released(2, 5, 1800, 2900, 12),
    ];
    for (shard, lease) in expected.iter().enumerate() {
        assert_eq!(
            read_lease(&dir, shard).unwrap().as_ref(),
            Some(lease),
            "shard {shard}"
        );
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    // Segments plus one lease per shard: no rename leftover (`.tmp`).
    assert_eq!(
        names,
        [
            "shard000-e0001-seg00000.ckpt",
            "shard000-e0002-seg00000.ckpt",
            "shard000-e0002-seg00001.ckpt",
            "shard000.lease",
            "shard001-e0001-seg00000.ckpt",
            "shard001-e0002-seg00000.ckpt",
            "shard001-e0002-seg00001.ckpt",
            "shard001.lease",
            "shard002-e0001-seg00000.ckpt",
            "shard002-e0002-seg00000.ckpt",
            "shard002-e0002-seg00001.ckpt",
            "shard002.lease",
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The supervised run releases every shard's lease on completion, so a
/// post-mortem of the spill directory shows clean ownership handoff.
#[test]
fn completed_supervision_leaves_released_leases() {
    let (web, frontier, config) = workload();
    let dir = tmp_dir("released");
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::CrashAtRecord(2));
    supervise_crawl(&web.network, &frontier, &config, &dir, &sup(3, 6), &faults).unwrap();
    for shard in 0..3 {
        let lease = read_lease(&dir, shard).unwrap().unwrap();
        assert!(lease.released, "shard {shard} lease must be released");
        assert!(!lease_tmp_exists(&dir, shard), "no tmp residue");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn lease_tmp_exists(dir: &std::path::Path, shard: usize) -> bool {
    canvassing_crawler::lease_path(dir, shard)
        .with_extension("lease.tmp")
        .exists()
}

/// The study-level gate: the full pipeline run under supervision with
/// injected faults renders the SAME report as the streamed pipeline and
/// as a fault-free supervised run — crash tolerance never shows up in the
/// science.
#[test]
fn supervised_study_report_is_identical_across_fault_scripts() {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 2025,
        scale: 0.02,
    });
    let options = StudyOptions {
        workers: 2,
        adblock_crawls: false,
        m1_validation: false,
        defense_sweep: false,
        trace: false,
    };
    let streamed = run_study_streamed(&web, &options, &StreamingOptions::default()).unwrap();

    let clean_dir = tmp_dir("study-clean");
    let s = sup(3, 16);
    let (clean, clean_sum) =
        run_study_supervised(&web, &options, &s, &FaultScript::none(), &clean_dir).unwrap();
    assert_eq!(clean_sum.popular.workers_crashed, 0);
    assert_eq!(clean_sum.popular.records_redone, 0);

    let chaos_dir = tmp_dir("study-chaos");
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::CrashAtRecord(4));
    faults.inject(1, 1, WorkerFault::Stall { after_records: 2 });
    faults.duplicate_launch(2, 3);
    let (chaos, chaos_sum) = run_study_supervised(&web, &options, &s, &faults, &chaos_dir).unwrap();
    assert!(chaos_sum.popular.workers_crashed >= 1);
    assert!(chaos_sum.popular.leases_expired >= 1);

    // Perf counters are zeroed on the supervised path by design; the
    // rendered report (which includes perf) must therefore be compared
    // supervised-vs-supervised, and the science fields streamed-vs-both.
    assert_eq!(clean.render_report(), chaos.render_report());
    assert_eq!(
        serde_json::to_string(&clean.popular.detections).unwrap(),
        serde_json::to_string(&streamed.popular.detections).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&clean.popular.prevalence).unwrap(),
        serde_json::to_string(&streamed.popular.prevalence).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&chaos.tail.clustering).unwrap(),
        serde_json::to_string(&streamed.tail.clustering).unwrap()
    );
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&chaos_dir).ok();
}
