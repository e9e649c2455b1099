//! Crash-consistency acceptance tests for the v2 checkpoint format: a
//! checkpoint corrupted at *any* point — torn writes at every record
//! boundary, plus a seeded randomized sweep of bit flips, truncations,
//! and garbage tails — must recover to a valid prefix of the original
//! records, recovery must be idempotent, and resuming from the recovered
//! prefix must merge byte-identical to the uninterrupted dataset at
//! every worker count.
//!
//! The randomized sweep is a hand-rolled property test (the environment
//! ships a no-op `proptest` stub): a fixed-seed LCG drives the corruption
//! choices, so failures replay exactly.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use canvassing_crawler::{
    checkpoint, crawl, list_supervised_segments, merge_supervised, resume_crawl, supervise_crawl,
    BreakerPolicy, CrawlConfig, FaultScript, RetryPolicy, SiteRecord, SupervisorConfig,
    WorkerFault,
};
use canvassing_net::FaultMatrix;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

/// Deterministic 64-bit LCG (Knuth MMIX constants) so the sweep replays
/// exactly from its literal seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A faulted workload small enough that the sweep's repeated resumes stay
/// cheap: the first 80 popular-frontier sites with the matrix over every
/// third host, breakers and salvage on.
fn workload() -> (SyntheticWeb, Vec<canvassing_net::Url>) {
    let mut web = SyntheticWeb::generate(WebConfig {
        seed: 11,
        scale: 0.02,
    });
    let mut frontier = web.frontier(Cohort::Popular);
    frontier.truncate(80);
    let targets: Vec<String> = frontier
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, u)| u.host.clone())
        .collect();
    FaultMatrix::new(7).inject_all(&mut web.network.faults, targets.iter().map(|h| h.as_str()));
    (web, frontier)
}

fn resilient_config(workers: usize) -> CrawlConfig {
    let mut config = CrawlConfig::control();
    config.workers = workers;
    config.retry = RetryPolicy::retries(1);
    config.breakers = BreakerPolicy::enabled();
    config.salvage = true;
    config
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ckpt-recovery-{tag}-{}.log", std::process::id()))
}

fn record_json(r: &SiteRecord) -> String {
    serde_json::to_string(r).unwrap()
}

fn is_prefix(prefix: &[SiteRecord], full: &[SiteRecord]) -> bool {
    prefix.len() <= full.len()
        && prefix
            .iter()
            .zip(full)
            .all(|(a, b)| record_json(a) == record_json(b))
}

#[test]
fn clean_checkpoints_roundtrip_untouched() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);

    let path = tmp_path("clean");
    let mut writer =
        checkpoint::CheckpointWriter::create(&path, &full.label, &full.device_id).unwrap();
    for record in &full.records {
        writer.append(record).unwrap();
    }
    drop(writer);
    let before = std::fs::read(&path).unwrap();
    let (recovered, report) = checkpoint::recover(&path).unwrap();
    assert!(report.clean(), "intact file must report clean: {report:?}");
    assert_eq!(recovered.to_json().unwrap(), full.to_json().unwrap());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "clean recovery must not rewrite the file"
    );

    // save_atomic produces the same durable form as incremental appends.
    let atomic = tmp_path("atomic");
    checkpoint::save_atomic(&atomic, &full).unwrap();
    assert_eq!(std::fs::read(&atomic).unwrap(), before);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&atomic);
}

#[test]
fn torn_write_at_every_boundary_recovers_exactly_the_prefix() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);
    let path = tmp_path("torn");

    for k in 0..full.records.len() {
        let mut writer =
            checkpoint::CheckpointWriter::create(&path, &full.label, &full.device_id).unwrap();
        for record in &full.records[..k] {
            writer.append(record).unwrap();
        }
        writer.arm_torn_write(&full.records[k].url.host);
        assert!(
            writer.append(&full.records[k]).is_err(),
            "armed torn write must surface as an append error"
        );
        assert!(
            writer.append(&full.records[k]).is_err(),
            "a poisoned writer must refuse further appends"
        );
        drop(writer);

        let (recovered, report) = checkpoint::recover(&path).unwrap();
        assert_eq!(recovered.records.len(), k, "prefix length at tear {k}");
        assert_eq!(report.corrupted_at, Some(k));
        assert!(report.bytes_truncated > 0, "the partial line is discarded");
        assert!(is_prefix(&recovered.records, &full.records));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn randomized_corruption_sweep_recovers_and_resumes_byte_identical() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);
    let full_json = full.to_json().unwrap();

    // Pristine checkpoint bytes, produced once; every iteration corrupts
    // a fresh copy.
    let path = tmp_path("sweep");
    checkpoint::save_atomic(&path, &full).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let header_len = pristine.iter().position(|&b| b == b'\n').unwrap() + 1;

    let mut rng = Lcg(0xC0FFEE);
    let mut corrupted_runs = 0usize;
    for iteration in 0..48 {
        let mut bytes = pristine.clone();
        let offset = header_len + rng.below(bytes.len() - header_len);
        match rng.below(3) {
            0 => {
                // Flip one bit somewhere past the header.
                let bit = 1u8 << rng.below(8);
                bytes[offset] ^= bit;
            }
            1 => {
                // Crash truncation: the file simply ends mid-stream.
                bytes.truncate(offset);
            }
            _ => {
                // Torn tail: garbage bytes past a truncation point.
                bytes.truncate(offset);
                let garbage = rng.below(40) + 1;
                for _ in 0..garbage {
                    bytes.push((rng.next() & 0xff) as u8);
                }
            }
        }
        std::fs::write(&path, &bytes).unwrap();

        let (recovered, report) = checkpoint::recover(&path).unwrap();
        assert!(
            is_prefix(&recovered.records, &full.records),
            "iteration {iteration}: recovery must yield a pristine prefix"
        );
        if !report.clean() {
            corrupted_runs += 1;
        }
        // Idempotence: recovering the truncated file again is clean and
        // yields the same prefix.
        let (again, second) = checkpoint::recover(&path).unwrap();
        assert!(
            second.clean(),
            "iteration {iteration}: second recovery must be clean"
        );
        assert_eq!(again.records.len(), recovered.records.len());

        // Resuming from the recovered prefix merges byte-identical to the
        // uninterrupted dataset at every worker count.
        for workers in [1usize, 4, 8] {
            let cfg = resilient_config(workers);
            let resumed = resume_crawl(&web.network, &frontier, &cfg, &recovered);
            assert_eq!(
                resumed.to_json().unwrap(),
                full_json,
                "iteration {iteration}: resume at {workers} workers diverged"
            );
        }
    }
    assert!(
        corrupted_runs > 40,
        "the sweep must mostly hit real corruption, got {corrupted_runs}/48"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recovery_refuses_files_without_a_valid_header() {
    let path = tmp_path("header");
    std::fs::write(&path, b"not a header\n").unwrap();
    assert!(checkpoint::recover(&path).is_err());
    std::fs::write(&path, b"").unwrap();
    assert!(checkpoint::recover(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

/// A fresh spill directory.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seg-recovery-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two supervised shards spilling 16-record segments.
fn two_shards() -> SupervisorConfig {
    let mut sup = SupervisorConfig::new(2);
    sup.segment_sites = 16;
    sup
}

/// Spills the workload into two supervised shards and returns
/// `(spill dir, segment paths, pristine bytes per segment)`.
fn spilled_workload(
    tag: &str,
    web: &SyntheticWeb,
    frontier: &[canvassing_net::Url],
    config: &CrawlConfig,
) -> (PathBuf, Vec<PathBuf>, Vec<Vec<u8>>) {
    let dir = fresh_dir(tag);
    let none = FaultScript::none();
    supervise_crawl(&web.network, frontier, config, &dir, &two_shards(), &none).unwrap();
    let segments = list_supervised_segments(&dir, None).unwrap();
    assert!(segments.len() >= 4, "80 sites / 2 shards / 16 per segment");
    let pristine: Vec<Vec<u8>> = segments.iter().map(|p| std::fs::read(p).unwrap()).collect();
    (dir, segments, pristine)
}

/// The records a pristine segment holds (recovering a clean file is a
/// pure read).
fn segment_records(path: &Path) -> Vec<SiteRecord> {
    let (ds, report) = checkpoint::recover(path).unwrap();
    assert!(report.clean());
    ds.records
}

/// Byte offsets of every record-frame boundary in a segment file
/// (start of each record line, plus end of file).
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut boundaries = vec![header_len];
    for (i, &b) in bytes[header_len..].iter().enumerate() {
        if b == b'\n' {
            boundaries.push(header_len + i + 1);
        }
    }
    boundaries
}

/// The boundary sweep extended to supervised segment files: tearing *any*
/// segment at *any* frame boundary — and mid-frame — truncates that
/// segment to its valid prefix on recovery, and a merge over the
/// recovered segments resumes the lost suffix byte-identical to the
/// uninterrupted crawl.
#[test]
fn segment_torn_at_every_frame_boundary_merges_byte_identical() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);
    let full_json = full.to_json().unwrap();
    let (dir, segments, pristine) = spilled_workload("boundary", &web, &frontier, &config);

    for (seg, bytes) in segments.iter().zip(&pristine) {
        let original = segment_records(seg);
        let boundaries = frame_boundaries(bytes);
        // Tear exactly at each boundary, and mid-way into each frame.
        let mut tears: Vec<usize> = boundaries.clone();
        for pair in boundaries.windows(2) {
            tears.push(pair[0] + (pair[1] - pair[0]) / 2);
        }
        for &tear in &tears {
            std::fs::write(seg, &bytes[..tear]).unwrap();

            let (recovered, report) = checkpoint::recover(seg).unwrap();
            assert!(
                is_prefix(&recovered.records, &original),
                "{} torn at {tear}: recovery must be a pristine prefix",
                seg.display()
            );
            let clean_tear = boundaries.contains(&tear);
            assert_eq!(
                report.clean(),
                clean_tear,
                "{} torn at {tear}: mid-frame tears must report dirty",
                seg.display()
            );

            let (merged, merge_report) =
                merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
            assert_eq!(
                merged.to_json().unwrap(),
                full_json,
                "{} torn at {tear}: merge diverged",
                seg.display()
            );
            assert_eq!(
                merge_report.recrawled,
                frontier.len() - merge_report.records_recovered,
                "{} torn at {tear}: every lost record is recrawled",
                seg.display()
            );

            std::fs::write(seg, bytes).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeded-LCG corruption sweep, retargeted at supervised segment files:
/// random bit flips, truncations, and garbage tails land on random
/// segments; recovery always yields a valid prefix and the resumed
/// merge is always byte-identical.
#[test]
fn randomized_segment_corruption_sweep_merges_byte_identical() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);
    let full_json = full.to_json().unwrap();
    let (dir, segments, pristine) = spilled_workload("sweep", &web, &frontier, &config);

    let originals: Vec<Vec<SiteRecord>> = segments.iter().map(|p| segment_records(p)).collect();
    let mut rng = Lcg(0x5E60_DD5E);
    let mut dirty_merges = 0usize;
    for iteration in 0..32 {
        let victim = rng.below(segments.len());
        let bytes = &pristine[victim];
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut corrupt = bytes.clone();
        let offset = header_len + rng.below(corrupt.len() - header_len);
        match rng.below(3) {
            0 => corrupt[offset] ^= 1u8 << rng.below(8),
            1 => corrupt.truncate(offset),
            _ => {
                corrupt.truncate(offset);
                for _ in 0..rng.below(40) + 1 {
                    corrupt.push((rng.next() & 0xff) as u8);
                }
            }
        }
        std::fs::write(&segments[victim], &corrupt).unwrap();

        let (recovered, _) = checkpoint::recover(&segments[victim]).unwrap();
        assert!(
            is_prefix(&recovered.records, &originals[victim]),
            "iteration {iteration}: segment recovery must be a pristine prefix"
        );
        let (merged, report) =
            merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
        assert_eq!(
            merged.to_json().unwrap(),
            full_json,
            "iteration {iteration}: merge after corrupting segment {victim} diverged"
        );
        if report.recrawled > 0 {
            dirty_merges += 1;
        }

        std::fs::write(&segments[victim], bytes).unwrap();
    }
    assert!(
        dirty_merges > 20,
        "the sweep must mostly cost real records, got {dirty_merges}/32"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment whose owner died between creating the file and finishing
/// its header line holds no records. Both shapes such a death leaves — an
/// empty file and a header without its newline — read as dirty, empty
/// segments: the merge and a supervised crawl with a crash fault both
/// still equal the direct crawl, where a header error used to fail them.
#[test]
fn segments_without_a_complete_header_read_as_dirty_and_empty() {
    let (web, frontier) = workload();
    let config = resilient_config(1);
    let full_json = crawl(&web.network, &frontier, &config).to_json().unwrap();
    let (dir, _, pristine) = spilled_workload("headerless", &web, &frontier, &config);
    let header_len = pristine[0].iter().position(|&b| b == b'\n').unwrap();
    let half_header = &pristine[0][..header_len / 2];
    // Epochs no owner of this run reaches, so nothing overwrites them.
    let plant = |dir: &Path| {
        std::fs::write(dir.join("shard001-e0007-seg00000.ckpt"), b"").unwrap();
        std::fs::write(dir.join("shard000-e0009-seg00000.ckpt"), half_header).unwrap();
    };

    plant(&dir);
    let (merged, report) = merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
    assert_eq!(merged.to_json().unwrap(), full_json);
    assert_eq!(report.segments_recovered_dirty, 2, "both planted files");
    assert_eq!(report.records_recovered, frontier.len());
    assert_eq!(report.recrawled, 0);
    let _ = std::fs::remove_dir_all(&dir);

    // Planted before the run, the files sit in every launch's coverage
    // scan, including the re-lease after the crash.
    let dir = fresh_dir("planted");
    plant(&dir);
    let mut faults = FaultScript::none();
    faults.inject(0, 1, WorkerFault::CrashAtRecord(5));
    let (merged, report) = supervise_crawl(
        &web.network,
        &frontier,
        &config,
        &dir,
        &two_shards(),
        &faults,
    )
    .unwrap();
    assert_eq!(merged.to_json().unwrap(), full_json);
    assert_eq!(report.workers_crashed, 1);
    assert_eq!(report.re_leases, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crawl → checkpoint → crash → recover → resume loop end to end,
/// driven by the fault plan's own `TornWrite` entries (the same wiring
/// `examples/fault_lab.rs` demonstrates).
#[test]
fn plan_armed_torn_writes_compose_with_resume() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);
    let torn_hosts: Vec<&str> = frontier
        .iter()
        .map(|u| u.host.as_str())
        .filter(|h| {
            matches!(
                web.network.faults.fault_for(h),
                Some(canvassing_net::Fault::TornWrite)
            )
        })
        .collect();
    assert!(
        !torn_hosts.is_empty(),
        "matrix plants TornWrite hosts in this workload"
    );

    let path = tmp_path("plan-armed");
    let mut writer =
        checkpoint::CheckpointWriter::create(&path, &full.label, &full.device_id).unwrap();
    writer.arm_faults(&web.network.faults);
    let mut wrote = 0usize;
    for record in &full.records {
        if writer.append(record).is_err() {
            break;
        }
        wrote += 1;
    }
    assert!(
        wrote < full.records.len(),
        "the first TornWrite host tears the log"
    );
    let (recovered, report) = checkpoint::recover(&path).unwrap();
    assert_eq!(recovered.records.len(), wrote);
    assert_eq!(report.corrupted_at, Some(wrote));
    let resumed = resume_crawl(&web.network, &frontier, &config, &recovered);
    assert_eq!(resumed.to_json().unwrap(), full.to_json().unwrap());
    let _ = std::fs::remove_file(&path);
}

/// The supervisor's crash primitive (`CheckpointWriter::tear`) leaves
/// exactly the torn-tail shape the recovery sweep defends against: the
/// fully-flushed prefix recovers clean, the in-flight record is the one
/// casualty, and resuming from the recovered prefix merges
/// byte-identical — the per-crash re-work bound the chaos gates rely on.
#[test]
fn supervisor_tear_recovers_to_the_flushed_prefix() {
    let (web, frontier) = workload();
    let config = resilient_config(1);
    let full = crawl(&web.network, &frontier, &config);
    for cut in [0usize, 1, 7, full.records.len() - 1] {
        let path = tmp_path(&format!("tear-{cut}"));
        let mut writer =
            checkpoint::CheckpointWriter::create(&path, &full.label, &full.device_id).unwrap();
        for record in &full.records[..cut] {
            writer.append(record).unwrap();
        }
        writer.tear(&full.records[cut]).unwrap();
        assert!(
            writer.append(&full.records[cut]).is_err(),
            "a torn writer must be poisoned"
        );
        let (recovered, report) = checkpoint::recover(&path).unwrap();
        assert_eq!(recovered.records.len(), cut, "only the flushed prefix");
        assert_eq!(report.corrupted_at, Some(cut));
        let (again, re_report) = checkpoint::recover(&path).unwrap();
        assert_eq!(again.records.len(), cut, "recovery is idempotent");
        assert!(re_report.clean(), "the truncated file re-recovers clean");
        let resumed = resume_crawl(&web.network, &frontier, &config, &recovered);
        assert_eq!(resumed.to_json().unwrap(), full.to_json().unwrap());
        let _ = std::fs::remove_file(&path);
    }
}
