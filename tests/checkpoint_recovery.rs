//! Crash-consistency acceptance tests for the v3 checkpoint format: a
//! checkpoint corrupted at *any* point — torn writes at every record
//! boundary, tears inside and after blob frames, plus a seeded randomized
//! sweep of bit flips, truncations, and garbage tails — must recover to a
//! valid prefix of the original records, recovery must be idempotent, and
//! resuming from the recovered prefix must merge byte-identical to the
//! uninterrupted dataset at every worker count. Blob frames hold each
//! distinct text once per file, and a record frame must name only blobs
//! read before it.
//!
//! The randomized sweeps are hand-rolled property tests: a fixed-seed LCG
//! drives the corruption choices, so failures replay exactly.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use canvassing_crawler::{
    checkpoint, crawl, list_supervised_segments, merge_supervised, resume_crawl, supervise_crawl,
    BreakerPolicy, CrawlConfig, FailureKind, FaultScript, RetryPolicy, SiteFailure, SiteOutcome,
    SiteRecord, SupervisorConfig, WorkerFault,
};
use canvassing_net::FaultMatrix;
use canvassing_raster::png::crc32;
use canvassing_raster::SharedText;
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

/// A record whose visit extracts each of `texts` in turn, with a
/// `toDataURL` call returning the same text through an allocation of its
/// own, so only the bytes tell the writer that the two are one text. With
/// `salvaged` the visit is a failure's salvaged partial visit instead.
fn canvas_record(host: &str, texts: &[&str], salvaged: bool) -> SiteRecord {
    let page = canvassing_net::Url::https(host, "/");
    let script_url = format!("https://{host}/fp.js");
    let mut visit = canvassing_browser::PageVisit {
        page: page.clone(),
        api_calls: Vec::new(),
        extractions: Vec::new(),
        scripts: Vec::new(),
        blocked: Vec::new(),
        consent_banner: false,
    };
    for (seq, text) in (0u64..).zip(texts) {
        visit.extractions.push(canvassing_dom::Extraction {
            seq,
            timestamp_ms: seq,
            canvas_index: 0,
            data_url: SharedText::hashed(text),
            mime: "image/png".into(),
            width: 16,
            height: 16,
            script_url: script_url.clone(),
        });
        visit.api_calls.push(canvassing_dom::ApiCall {
            seq,
            timestamp_ms: seq,
            interface: canvassing_dom::ApiInterface::Canvas,
            kind: canvassing_dom::CallKind::Method,
            name: "toDataURL".into(),
            args: Vec::new(),
            return_value: Some(SharedText::from(*text)),
            script_url: script_url.clone(),
            canvas_index: 0,
        });
    }
    let outcome = if salvaged {
        SiteOutcome::Failure(SiteFailure {
            kind: FailureKind::Timeout,
            error: "deadline".into(),
            attempts: 1,
            salvage: Some(Box::new(visit)),
        })
    } else {
        SiteOutcome::Success(Box::new(visit))
    };
    SiteRecord { url: page, outcome }
}

/// One checkpoint frame around `json`, with a valid CRC.
fn frame(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// A file of records sharing K distinct texts, across call return values,
/// extractions and a salvaged visit, holds exactly K blob frames, and the
/// records it recovers hold one allocation per distinct text.
#[test]
fn each_distinct_text_is_framed_once_and_recovers_shared() {
    let texts = [
        "data:image/png;base64,QUFBQQ==",
        "data:image/png;base64,QkJCQg==",
        "quote \" backslash \\ newline \n \u{1F603}",
        "",
        "data:image/png;base64,c2FsdmFnZWQ=",
    ];
    let records = [
        canvas_record("a.example", &[texts[0], texts[1]], false),
        canvas_record("b.example", &[texts[1], texts[0], texts[1]], false),
        canvas_record("c.example", &[], false),
        canvas_record("d.example", &[texts[2], texts[3]], false),
        canvas_record("e.example", &[texts[4], texts[0]], true),
    ];
    let path = tmp_path("blobs");
    let mut writer =
        checkpoint::CheckpointWriter::create(&path, "control", "intel-ubuntu").unwrap();
    for record in &records {
        writer.append(record).unwrap();
    }
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    let boundaries = frame_boundaries(&bytes);
    let blobs = boundaries
        .windows(2)
        .filter(|pair| is_blob_frame(&bytes, pair[0]))
        .count();
    assert_eq!(blobs, texts.len(), "one blob frame per distinct text");
    assert_eq!(boundaries.len() - 1, texts.len() + records.len());

    let (mut recovered, report) = checkpoint::recover(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(report.clean());
    assert_eq!(recovered.records.len(), records.len());
    for (back, record) in recovered.records.iter().zip(&records) {
        assert_eq!(record_json(back), record_json(record));
    }
    let held: Vec<SharedText> = recovered
        .records
        .iter_mut()
        .flat_map(|record| record.texts_mut().map(|text| text.clone()))
        .collect();
    assert_eq!(held.len(), 2 * (2 + 3 + 2 + 2));
    for a in &held {
        for b in &held {
            assert_eq!(
                SharedText::ptr_eq(a, b),
                a.as_str() == b.as_str(),
                "{a:?} {b:?}"
            );
        }
    }
}

/// A record frame with a valid CRC is still corruption when a text in it
/// is not a reference, or names a blob not read before it (one that does
/// not exist, or one that comes after it): recovery keeps the records
/// before it and truncates the rest.
#[test]
fn record_frames_naming_no_earlier_blob_are_corruption() {
    let path = tmp_path("references");
    let mut writer =
        checkpoint::CheckpointWriter::create(&path, "control", "intel-ubuntu").unwrap();
    writer
        .append(&canvas_record(
            "a.example",
            &["data:image/png;base64,QUFB"],
            false,
        ))
        .unwrap();
    drop(writer);
    let pristine = std::fs::read(&path).unwrap();
    // A record whose two texts are both written as `reference`.
    let naming = |reference: &str| {
        frame(&record_json(&canvas_record(
            "b.example",
            &[reference],
            false,
        )))
    };
    let second_blob = frame(&serde_json::to_string("data:image/png;base64,QkJC").unwrap());
    let cases = [
        (naming("#0"), Some("data:image/png;base64,QUFB")),
        (
            second_blob.clone() + &naming("#1"),
            Some("data:image/png;base64,QkJC"),
        ),
        (naming("abc"), None),
        (naming("#9"), None),
        (naming("#00"), None),
        (naming("#1") + &second_blob, None),
    ];
    for (tail, resolved) in cases {
        std::fs::write(&path, [pristine.as_slice(), tail.as_bytes()].concat()).unwrap();
        let (mut recovered, report) = checkpoint::recover(&path).unwrap();
        match resolved {
            Some(text) => {
                assert!(report.clean(), "{tail:.40}");
                assert_eq!(recovered.records.len(), 2);
                let texts: Vec<_> = recovered.records[1]
                    .texts_mut()
                    .map(|t| t.clone())
                    .collect();
                assert_eq!(texts.len(), 2);
                assert!(texts.iter().all(|t| *t == text), "{tail:.40}");
            }
            None => {
                assert_eq!(recovered.records.len(), 1, "{tail:.40}");
                assert_eq!(report.corrupted_at, Some(1), "{tail:.40}");
                assert_eq!(report.bytes_truncated, tail.len() as u64, "{tail:.40}");
                assert_eq!(std::fs::read(&path).unwrap(), pristine, "{tail:.40}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// There is one checkpoint format: a file with an older header is refused
/// with an error naming its version, and left as it was.
#[test]
fn version_2_checkpoints_are_refused_naming_the_version() {
    let path = tmp_path("v2");
    let record = canvas_record("a.example", &["data:image/png;base64,QUFB"], false);
    let v2 = format!(
        "{{\"version\":2,\"label\":\"control\",\"device_id\":\"intel-ubuntu\"}}\n{}",
        frame(&record_json(&record))
    );
    std::fs::write(&path, &v2).unwrap();
    let err = checkpoint::recover(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version 2"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), v2.as_bytes());
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

/// Byte offsets of every frame boundary in a checkpoint file (start of
/// each frame line after the header, plus end of file).
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

/// Whether the frame starting at `start` is a blob: its JSON, after the
/// eight hex digits of the CRC and a space, is a string.
fn is_blob_frame(bytes: &[u8], start: usize) -> bool {
    bytes[start + 9] == b'"'
}

/// The boundary sweep extended to supervised segment files: tearing *any*
/// segment at *any* frame boundary — and mid-frame, blob frames included —
/// truncates that segment to its valid prefix on recovery, and a merge
/// over the recovered segments resumes the lost suffix byte-identical to
/// the uninterrupted crawl.
#[test]
fn segment_torn_at_every_frame_boundary_merges_byte_identical() {
    let (web, frontier) = workload();
    let config = resilient_config(4);
    let full = crawl(&web.network, &frontier, &config);
    let full_json = full.to_json().unwrap();
    let (dir, segments, pristine) = spilled_workload("boundary", &web, &frontier, &config);

    let (mut inside_blob, mut blob_then_record) = (0usize, 0usize);
    for (seg, bytes) in segments.iter().zip(&pristine) {
        let original = segment_records(seg);
        let boundaries = frame_boundaries(bytes);
        // Tear exactly at each boundary, and mid-way into each frame.
        let mut tears: Vec<usize> = boundaries.clone();
        for pair in boundaries.windows(2) {
            tears.push(pair[0] + (pair[1] - pair[0]) / 2);
            inside_blob += usize::from(is_blob_frame(bytes, pair[0]));
        }
        for triple in boundaries.windows(3) {
            blob_then_record +=
                usize::from(is_blob_frame(bytes, triple[0]) && !is_blob_frame(bytes, triple[1]));
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
    assert!(inside_blob > 0, "some tears land inside blob frames");
    assert!(
        blob_then_record > 0,
        "some tears land between a blob frame and its record"
    );
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

/// Every byte class the JSON writer treats differently, in one record's
/// `ApiCall::args`: the two-character escapes (`"`, `\`, `\n`, `\r`,
/// `\t`), every other control byte (written as `\u00xx`), DEL (written
/// raw), multi-byte characters up to a four-byte emoji, and `run`, a
/// base64 run the size of a canvas data URL's payload.
fn escape_record(run: &str) -> SiteRecord {
    let page = canvassing_net::Url::https("escapes.example", "/");
    let controls: String = (0u8..0x20)
        .filter(|b| !matches!(b, b'\n' | b'\r' | b'\t'))
        .chain([0x7f])
        .map(char::from)
        .collect();
    let call = canvassing_dom::ApiCall {
        seq: 3,
        timestamp_ms: 17,
        interface: canvassing_dom::ApiInterface::Context2D,
        kind: canvassing_dom::CallKind::Method,
        name: "fillText".into(),
        args: vec![
            "quote \" backslash \\ newline \n return \r tab \t end".into(),
            controls,
            "Cwm fjordbank gly \u{1F603} é ß 日本語 \u{10FFFF}".into(),
            run.into(),
            String::new(),
        ],
        return_value: Some("\u{1F603}\"\\".into()),
        script_url: "https://escapes.example/fp.js".into(),
        canvas_index: 0,
    };
    let visit = canvassing_browser::PageVisit {
        page: page.clone(),
        api_calls: vec![call],
        extractions: Vec::new(),
        scripts: Vec::new(),
        blocked: Vec::new(),
        consent_banner: false,
    };
    SiteRecord {
        url: page,
        outcome: SiteOutcome::Success(Box::new(visit)),
    }
}

/// 100 KB of seeded base64 alphabet characters.
fn base64_run() -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut rng = Lcg(2025);
    (0..100 * 1024)
        .map(|_| char::from(ALPHABET[rng.below(64)]))
        .collect()
}

fn api_calls(record: &SiteRecord) -> &[canvassing_dom::ApiCall] {
    match &record.outcome {
        SiteOutcome::Success(visit) => &visit.api_calls,
        SiteOutcome::Failure(failure) => panic!("not a success: {failure:?}"),
    }
}

/// [`escape_record`]'s JSON with the base64 run cut out as `<RUN>`.
const ESCAPE_RECORD_JSON: &str = concat!(
    "{\"url\":{\"scheme\":\"https\",\"host\":\"escapes.example\",\"port\":null,",
    "\"path\":\"/\",\"query\":null},\"outcome\":{\"Success\":[{\"page\":{",
    "\"scheme\":\"https\",\"host\":\"escapes.example\",\"port\":null,",
    "\"path\":\"/\",\"query\":null},\"api_calls\":[{\"seq\":3,\"timestamp_ms\":17,",
    "\"interface\":\"Context2D\",\"kind\":\"Method\",\"name\":\"fillText\",",
    "\"args\":[\"quote \\\" backslash \\\\ newline \\n return \\r tab \\t end\",",
    "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\u000b\\u000c\\u000e\\u000f",
    "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\u{7f}\",",
    "\"Cwm fjordbank gly \u{1f603} \u{e9} \u{df} \u{65e5}\u{672c}\u{8a9e} \u{10ffff}\",",
    "\"<RUN>\",\"\"],\"return_value\":\"\u{1f603}\\\"\\\\\",\"script_url\":\"https://escapes.example/fp.js\",",
    "\"canvas_index\":0}],\"extractions\":[],\"scripts\":[],\"blocked\":[",
    "],\"consent_banner\":false}]}}",
);

/// [`escape_record`]'s return value as a JSON string: in
/// [`ESCAPE_RECORD_JSON`], and the whole JSON of the blob frame that holds
/// it in a checkpoint.
const ESCAPE_RETURN_JSON: &str = "\"\u{1f603}\\\"\\\\\"";

/// The CRC-32 of that blob frame's JSON.
const ESCAPE_BLOB_CRC: &str = "dd674166";

/// The CRC-32 of [`escape_record`]'s record frame JSON: [`ESCAPE_RECORD_JSON`]
/// with the return value written as `"#0"`, a reference to the blob.
const ESCAPE_RECORD_CRC: &str = "fe02f8b1";

/// The JSON of a record full of escapes, multi-byte text and a long run
/// is pinned byte for byte, and parses back to an equal record.
#[test]
fn escape_heavy_record_json_is_pinned_and_roundtrips() {
    let run = base64_run();
    let record = escape_record(&run);
    let json = record_json(&record);
    assert_eq!(json.replace(&run, "<RUN>"), ESCAPE_RECORD_JSON);
    assert_eq!(json, ESCAPE_RECORD_JSON.replace("<RUN>", &run));
    let back: SiteRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(api_calls(&back), api_calls(&record));
    assert_eq!(back.url, record.url);
    assert_eq!(record_json(&back), json);
}

/// The checkpoint frames of that record are pinned byte for byte, for
/// both a complete append and a torn one: the output digests hash
/// records, not spill files, so a CRC that changed on the writing and the
/// reading side alike would pass every other gate. The append writes the
/// return value's blob frame, then the record frame naming it; the torn
/// append writes half a record frame and no blob, because the text is
/// already framed in the file.
#[test]
fn escape_heavy_record_frames_to_a_pinned_line() {
    let run = base64_run();
    let record = escape_record(&run);
    let path = tmp_path("pinned-frame");
    let mut writer =
        checkpoint::CheckpointWriter::create(&path, "control", "intel-ubuntu").unwrap();
    writer.append(&record).unwrap();
    writer.tear(&record).unwrap();
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let header = "{\"version\":3,\"label\":\"control\",\"device_id\":\"intel-ubuntu\"}\n";
    let blob = format!("{ESCAPE_BLOB_CRC} {ESCAPE_RETURN_JSON}\n");
    let returned = format!("\"return_value\":{ESCAPE_RETURN_JSON}");
    assert_eq!(ESCAPE_RECORD_JSON.matches(&returned).count(), 1);
    let referenced = ESCAPE_RECORD_JSON.replace(&returned, "\"return_value\":\"#0\"");
    let line = format!(
        "{ESCAPE_RECORD_CRC} {}\n",
        referenced.replace("<RUN>", &run)
    );
    let torn = &line.as_bytes()[..line.len() / 2];
    let (head, tail) = bytes.split_at(header.len().min(bytes.len()));
    assert_eq!(String::from_utf8_lossy(head), header);
    let (blob_frame, tail) = tail.split_at(blob.len().min(tail.len()));
    assert_eq!(String::from_utf8_lossy(blob_frame), blob);
    assert_eq!(tail.len(), line.len() + torn.len());
    let (appended, torn_tail) = tail.split_at(line.len());
    assert!(
        appended == line.as_bytes(),
        "framed line starts {:?}",
        String::from_utf8_lossy(&appended[..80])
    );
    assert!(torn_tail == torn, "torn line differs");
}

/// Segment count, total length and FNV-1a of a small supervised spill:
/// each segment's file name and bytes, in merge order.
const PINNED_SPILL: (usize, usize, u64) = (6, 256_035, 3_429_618_884_474_088_798);

/// The bytes a supervised crawl spills are pinned: segment names,
/// headers and every CRC-framed record line.
#[test]
fn supervised_spill_bytes_are_pinned() {
    let (web, frontier) = workload();
    let config = resilient_config(1);
    let (dir, segments, pristine) = spilled_workload("pinned", &web, &frontier, &config);
    let _ = std::fs::remove_dir_all(&dir);
    let mut named = Vec::new();
    for (path, bytes) in segments.iter().zip(&pristine) {
        named.extend_from_slice(path.file_name().unwrap().as_encoded_bytes());
        named.push(b'\n');
        named.extend_from_slice(bytes);
    }
    assert_eq!(
        (
            segments.len(),
            named.len(),
            canvassing_raster::content_hash(&named)
        ),
        PINNED_SPILL
    );
}
