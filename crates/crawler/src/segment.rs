//! Bounded segment files: the on-disk form of a supervised crawl's spill.
//!
//! The shard supervisor ([`crate::supervise_crawl`]) cuts the frontier
//! into contiguous shards ([`crate::shard_range`]) and each shard owner
//! spills its records through a [`SegmentWriter`] into *bounded* segment
//! files of at most `segment_sites` records each, so no file grows with
//! the frontier.
//!
//! Every segment is a complete, self-describing checkpoint in the
//! CRC-framed v2 format — [`crate::checkpoint::recover`] works on any
//! segment unchanged, and a torn tail in one segment loses at most that
//! segment's suffix. File names embed shard, lease epoch and sequence
//! (`shard003-e0002-seg00007.ckpt`), so re-leased and speculative owners
//! of one shard never collide on a file, and a lexicographic sort of the
//! spill directory is `(shard, epoch, seq)` order without any manifest.
//!
//! The merge ([`crate::merge_supervised`]) recovers every segment,
//! deduplicates the valid prefixes by site, and hands the union to
//! [`crate::resume_crawl`] — which recrawls whatever the spill lost and,
//! because the breaker plan is always computed over the *full* frontier,
//! produces a dataset byte-identical to a single uninterrupted crawl.
//! That identity is the merge's proof obligation and what
//! `tests/streaming_equivalence.rs`, `tests/checkpoint_recovery.rs` and
//! `tests/supervisor_chaos.rs` sweep.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use canvassing_net::{Network, Url};
use canvassing_trace::{TraceSink, VisitRecorder};

use crate::checkpoint::{recover, CheckpointWriter};
use crate::dataset::{CrawlDataset, SiteRecord};
use crate::{resume_crawl, CrawlConfig};

/// Rolls visit records into bounded CRC-framed segment files.
///
/// Each segment is a standalone v2 checkpoint holding at most
/// `segment_sites` records; when one fills, it is sealed and the next
/// opens. The writer never holds more than the current segment's file
/// handle — memory is constant in the number of records spilled.
pub struct SegmentWriter {
    dir: PathBuf,
    label: String,
    device_id: String,
    shard: usize,
    /// Lease epoch of the owner writing these segments, part of every
    /// segment name (`shard003-e0002-seg00007.ckpt`) so re-leased and
    /// speculative owners of the same shard never collide on a file.
    epoch: u64,
    segment_sites: usize,
    seq: usize,
    current: Option<CheckpointWriter>,
    sealed: Vec<PathBuf>,
    /// Spill-side observability: seal/finish instants go here, *not* to
    /// the crawl's trace sink, so study trace totals are unaffected by
    /// whether a run spilled.
    trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for SegmentWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWriter")
            .field("dir", &self.dir)
            .field("shard", &self.shard)
            .field("epoch", &self.epoch)
            .field("segment_sites", &self.segment_sites)
            .field("seq", &self.seq)
            .field("sealed", &self.sealed.len())
            .finish_non_exhaustive()
    }
}

impl SegmentWriter {
    /// Creates a writer spilling into `dir` (created if absent) for one
    /// frontier shard, at epoch 0 until [`SegmentWriter::with_epoch`]
    /// sets one. `segment_sites` is clamped to at least 1.
    pub fn create(
        dir: &Path,
        label: &str,
        device_id: &str,
        shard: usize,
        segment_sites: usize,
    ) -> io::Result<SegmentWriter> {
        fs::create_dir_all(dir)?;
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            label: label.to_string(),
            device_id: device_id.to_string(),
            shard,
            epoch: 0,
            segment_sites: segment_sites.max(1),
            seq: 0,
            current: None,
            sealed: Vec::new(),
            trace: None,
        })
    }

    /// Sets the lease epoch the segment names carry.
    pub fn with_epoch(mut self, epoch: u64) -> SegmentWriter {
        self.epoch = epoch;
        self
    }

    /// Attaches a sink for spill instants (`segment.seal`,
    /// `segment.finish`). Keep this separate from the crawl config's
    /// sink — spill observability must not perturb study trace totals.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> SegmentWriter {
        self.trace = Some(sink);
        self
    }

    /// The open segment, opening the next one when none is open.
    fn open(&mut self) -> io::Result<&mut CheckpointWriter> {
        if self.current.is_none() {
            let name = format!(
                "shard{:03}-e{:04}-seg{:05}.ckpt",
                self.shard, self.epoch, self.seq
            );
            let writer =
                CheckpointWriter::create(&self.dir.join(name), &self.label, &self.device_id)?;
            self.current = Some(writer);
        }
        Ok(self
            .current
            .as_mut()
            .unwrap_or_else(|| unreachable!("segment opened above")))
    }

    /// Appends one record, opening a fresh segment when none is open and
    /// sealing it once it holds `segment_sites` records.
    pub fn append(&mut self, record: &SiteRecord) -> io::Result<()> {
        let limit = self.segment_sites;
        let writer = self.open()?;
        writer.append(record)?;
        if writer.records_written() >= limit {
            self.seal("segment.seal");
        }
        Ok(())
    }

    fn seal(&mut self, instant: &'static str) {
        if let Some(writer) = self.current.take() {
            let records = writer.records_written();
            let path = writer.path().to_path_buf();
            drop(writer);
            emit_spill_instant(self.trace.as_ref(), &self.label, instant, || {
                format!("{} records={records}", path.display())
            });
            self.sealed.push(path);
            self.seq += 1;
        }
    }

    /// Segments already sealed, in write (= frontier) order.
    pub fn sealed(&self) -> &[PathBuf] {
        &self.sealed
    }

    /// Seals any open segment and returns every segment path in frontier
    /// order. Dropping a writer without calling `finish` leaves the last
    /// segment on disk unsealed — still a valid checkpoint (recovery
    /// reads it fine), just unlisted here. That recoverability is pinned
    /// by `unsealed_segment_from_dropped_writer_is_recoverable` below
    /// and is what supervised re-leases resume from.
    pub fn finish(mut self) -> io::Result<Vec<PathBuf>> {
        self.seal("segment.finish");
        Ok(std::mem::take(&mut self.sealed))
    }

    /// Simulates the owning process dying while appending `record`: half
    /// the framed line lands in the current segment (opening a fresh one
    /// if none is open) and the file handle dies with the process,
    /// leaving an unsealed segment with a torn tail — the exact state
    /// [`crate::checkpoint::recover`] is built to clean up. Supervisor
    /// fault injection only; a real crash needs no help.
    pub fn crash(&mut self, record: &SiteRecord) -> io::Result<()> {
        self.open()?.tear(record)?;
        self.current = None;
        Ok(())
    }
}

/// Parses a segment file name — `shard{NNN}-e{EEEE}-seg{NNNNN}.ckpt`,
/// zero-padded to at least 3, 4 and 5 digits but open-ended above that —
/// into `(shard, epoch, seq)`. Anything else (lease files, `.tmp` rename
/// leftovers, foreign checkpoints) is not a segment.
pub(crate) fn parse_supervised_name(name: &str) -> Option<(usize, u64, usize)> {
    let rest = name.strip_suffix(".ckpt")?;
    let rest = rest.strip_prefix("shard")?;
    let (shard, rest) = rest.split_once("-e")?;
    let (epoch, seq) = rest.split_once("-seg")?;
    Some((
        parse_padded(shard, 3)?,
        parse_padded(epoch, 4)? as u64,
        parse_padded(seq, 5)?,
    ))
}

/// A zero-padded decimal field: all digits, at least `min_len` of them.
fn parse_padded(digits: &str, min_len: usize) -> Option<usize> {
    if digits.len() < min_len || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Recovers one segment for the merge and the supervisor's coverage
/// scan: the records of [`recover`]'s valid prefix, and whether the file
/// was intact. A process that dies between creating a segment and
/// writing its header leaves an empty file or a header without its
/// newline; such a file holds no records, so it reads as a dirty, empty
/// segment instead of failing the crawl. Only the first line is read to
/// tell; every other file goes to [`recover`], which still refuses a
/// complete but invalid header.
pub(crate) fn recover_segment(path: &Path) -> io::Result<(Vec<SiteRecord>, bool)> {
    let mut header = Vec::new();
    BufReader::new(fs::File::open(path)?).read_until(b'\n', &mut header)?;
    if header.last() != Some(&b'\n') {
        return Ok((Vec::new(), false));
    }
    let (dataset, report) = recover(path)?;
    Ok((dataset.records, report.clean()))
}

/// What the supervised merge recovered and re-did.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MergeReport {
    /// Segment files read.
    pub segments: usize,
    /// **Unique** records recovered across all segments' valid prefixes:
    /// a site crawled by several shard executions (a re-leased or
    /// speculative owner, a duplicate launch) counts once.
    pub records_recovered: usize,
    /// Segments whose tail had to be truncated during recovery, or whose
    /// header never fully landed.
    pub segments_recovered_dirty: usize,
    /// Recovered records dropped because an earlier segment (in merge
    /// order) already supplied their site. Always zero when no shard ran
    /// twice; `records_recovered + recrawled == frontier` holds exactly
    /// because duplicates are excluded here.
    pub duplicates_dropped: usize,
    /// Frontier sites not covered by any recovered record (lost to torn
    /// tails or a crawl that never reached them) and therefore recrawled.
    pub recrawled: usize,
}

/// Recovers every segment, merges the valid prefixes, and resumes the
/// crawl over the full frontier to fill any gaps.
///
/// Because [`resume_crawl`] computes the breaker plan over the complete
/// frontier and every [`SiteRecord`] is a pure function of
/// `(network, url, config)`, the merged dataset is byte-identical to a
/// single uninterrupted crawl — regardless of shard count, segment size,
/// how many segments were torn, or the order segments are listed in.
/// Duplicate safety: segments are read in the given order (the caller
/// passes a name-sorted list, i.e. `(shard, epoch, seq)` order) and
/// records deduplicate by site — the first occurrence wins. Re-executed
/// shard work is therefore *dropped*, not double-counted, and because
/// every execution of a site produces the identical record, which
/// occurrence wins is immaterial to the dataset. The exact accounting
/// lands in [`MergeReport::duplicates_dropped`].
pub(crate) fn merge_segments(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    segments: &[PathBuf],
    trace: Option<&Arc<dyn TraceSink>>,
) -> io::Result<(CrawlDataset, MergeReport)> {
    let mut combined = CrawlDataset {
        label: config.label.clone(),
        device_id: config.device.id.clone(),
        records: Vec::new(),
    };
    let mut seen: std::collections::BTreeSet<Url> = std::collections::BTreeSet::new();
    let mut dirty = 0usize;
    let mut total = 0usize;
    for path in segments {
        let (records, clean) = recover_segment(path)?;
        if !clean {
            dirty += 1;
        }
        emit_spill_instant(trace, &config.label, "segment.merge", || {
            format!("{} records={}", path.display(), records.len())
        });
        for record in records {
            total += 1;
            if seen.insert(record.url.clone()) {
                combined.records.push(record);
            }
        }
    }
    let unique = combined.records.len();
    let recrawled = frontier.iter().filter(|u| !seen.contains(u)).count();
    let merged = resume_crawl(network, frontier, config, &combined);
    let report = MergeReport {
        segments: segments.len(),
        records_recovered: unique,
        segments_recovered_dirty: dirty,
        duplicates_dropped: total - unique,
        recrawled,
    };
    Ok((merged, report))
}

/// One spill-side instant on an optional sink — the shared emission
/// shape for `segment.seal`, `segment.merge`, `segment.skip`, and the
/// supervisor's protocol events.
pub(crate) fn emit_spill_instant(
    trace: Option<&Arc<dyn TraceSink>>,
    label: &str,
    instant: &'static str,
    detail: impl FnOnce() -> String,
) {
    if let Some(sink) = trace {
        if sink.enabled() {
            let recorder = VisitRecorder::new(label, None);
            recorder.instant(instant, detail);
            if let Some(trace) = recorder.finish() {
                sink.consume(trace);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crawl_streamed, list_supervised_segments, merge_supervised};
    use canvassing_trace::CountingSink;
    use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("canvassing-seg-{}-{name}", std::process::id()));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn workload() -> (SyntheticWeb, Vec<Url>, CrawlConfig) {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 17,
            scale: 0.02,
        });
        let mut frontier = web.frontier(Cohort::Popular);
        frontier.truncate(50);
        let mut config = CrawlConfig::control();
        config.workers = 4;
        (web, frontier, config)
    }

    /// Streams the workload's crawl into `writer` in `chunk_sites` chunks.
    fn spill(
        web: &SyntheticWeb,
        frontier: &[Url],
        config: &CrawlConfig,
        writer: &mut SegmentWriter,
        chunk_sites: usize,
    ) {
        let caches = config.build_caches();
        crawl_streamed(
            &web.network,
            frontier,
            config,
            &caches,
            chunk_sites,
            |_, record| writer.append(&record).unwrap(),
        );
    }

    #[test]
    fn segments_are_bounded_and_ordered() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("bounded");
        let mut writer =
            SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 12).unwrap();
        spill(&web, &frontier, &config, &mut writer, 8);
        let segments = writer.finish().unwrap();
        // 50 records at <=12/segment: five segments, last holding 2.
        assert_eq!(segments.len(), 5);
        let mut total = 0;
        for (i, path) in segments.iter().enumerate() {
            let (ds, report) = recover(path).unwrap();
            assert!(report.clean());
            assert!(ds.records.len() <= 12, "segment {i} over bound");
            total += ds.records.len();
        }
        assert_eq!(total, frontier.len());
        assert_eq!(list_supervised_segments(&dir, None).unwrap(), segments);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_segments_skips_foreign_files_with_a_trace_instant() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("strays");
        let mut writer =
            SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 20).unwrap();
        spill(&web, &frontier, &config, &mut writer, 10);
        let segments = writer.finish().unwrap();
        // Lease-protocol files belong in a spill directory and are
        // skipped silently; every other stray gets an instant.
        for protocol in ["shard000.lease", "shard000.lease.tmp"] {
            fs::write(dir.join(protocol), b"{}").unwrap();
        }
        // Strays a real spill directory accumulates: a foreign
        // checkpoint, a segment name without an epoch, and under-padded
        // impostors.
        let strays = [
            "foreign.ckpt",
            "shard000-seg00000.ckpt",
            "shard0-e0001-seg00000.ckpt",
            "shard000-e1-seg00000.ckpt",
            "shard000-e0001-seg1.ckpt",
        ];
        for stray in strays {
            fs::write(dir.join(stray), b"not a segment").unwrap();
        }
        let sink = Arc::new(CountingSink::new());
        let listed =
            list_supervised_segments(&dir, Some(&(Arc::clone(&sink) as Arc<dyn TraceSink>)))
                .unwrap();
        assert_eq!(listed, segments, "only segment names listed");
        let (_, _, events) = sink.totals();
        assert_eq!(
            events as usize,
            strays.len(),
            "one segment.skip instant per stray file"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_segment_from_dropped_writer_is_recoverable() {
        // The doc-promised drop-without-finish path: the last segment
        // stays on disk unsealed, recovery reads it clean, and a merge
        // over the directory loses nothing.
        let (web, frontier, config) = workload();
        let full = crate::crawl(&web.network, &frontier, &config);
        let dir = tmp_dir("unsealed");
        let mut writer =
            SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 20).unwrap();
        spill(&web, &frontier, &config, &mut writer, 16);
        assert_eq!(writer.sealed().len(), 2, "50 records seal two of three");
        drop(writer); // crash before finish(): the third segment is unsealed
        let segments = list_supervised_segments(&dir, None).unwrap();
        assert_eq!(segments.len(), 3, "the unsealed segment is still listed");
        let (ds, report) = recover(&segments[2]).unwrap();
        assert!(report.clean(), "every fully-appended record survives");
        assert_eq!(ds.records.len(), 10);
        let (merged, report) =
            merge_supervised(&web.network, &frontier, &config, &dir, None).unwrap();
        assert_eq!(report.records_recovered, frontier.len());
        assert_eq!(report.recrawled, 0);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&full).unwrap()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_trace_goes_to_the_spill_sink_only() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("trace");
        let sink = Arc::new(CountingSink::new());
        let mut writer = SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 10)
            .unwrap()
            .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
        spill(&web, &frontier, &config, &mut writer, 16);
        let segments = writer.finish().unwrap();
        assert_eq!(segments.len(), 5);
        let (_, spans, events) = sink.totals();
        assert_eq!(spans, 0, "seal instants open no spans");
        assert_eq!(events as usize, segments.len());
        fs::remove_dir_all(&dir).ok();
    }
}
