//! Checkpoints (v2) that survive process crashes.
//!
//! PR 1's checkpoint story was in-memory only: [`crate::resume_crawl`]
//! merges against a [`CrawlDataset`] the caller kept alive. This module
//! adds the on-disk half, built to survive the one failure mode that
//! actually corrupts append-only logs when a process dies: the **torn
//! write** — a crash mid-`write(2)` leaving a partial record at the tail.
//!
//! The guarantee covers process death only. Nothing here calls `fsync`
//! on a file or its directory, so power loss or a kernel crash can still
//! drop records the writer already reported as appended, or undo a
//! [`save_atomic`] rename.
//!
//! Format (line-oriented, append-only):
//!
//! ```text
//! {"version":2,"label":"control","device_id":"intel-ubuntu"}   ← header
//! 3a9f01bc {"url":...,"outcome":...}                            ← records
//! 91c4e07d {"url":...,"outcome":...}
//! ```
//!
//! Every record line is `<crc32 of the JSON, 8 hex chars> <record JSON>`.
//! The CRC is the PNG encoder's ([`canvassing_raster::png::crc32`]: IEEE
//! 802.3, the polynomial zlib and PNG use, so checkpoint files are
//! checkable with stock tooling) and makes torn or bit-flipped tails
//! detectable: [`recover`] walks the file, keeps the longest valid
//! prefix, truncates the file back to it, and returns the prefix as a
//! [`CrawlDataset`]. Because records are written
//! in frontier order and [`crate::resume_crawl`] is keyed by URL, a
//! recovered prefix resumed over the same frontier merges byte-identical
//! to a fault-free crawl — the property `tests/checkpoint_recovery.rs`
//! sweeps over every corruption point.
//!
//! Torn writes are injectable ([`Fault::TornWrite`]) at this layer, not
//! the network: the writer flushes a prefix of the line and fails, exactly
//! once per poisoned host, so tests (`tests/checkpoint_recovery.rs`) can
//! place a crash at any record boundary deterministically.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use canvassing_net::{Fault, FaultPlan};
use canvassing_raster::png::crc32;
use serde::{Deserialize, Serialize};

use crate::dataset::{CrawlDataset, SiteRecord};

/// First line of every checkpoint file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    version: u32,
    label: String,
    device_id: String,
}

const VERSION: u32 = 2;

/// What [`recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records in the valid prefix.
    pub records_recovered: usize,
    /// 0-based record index of the first invalid line, if any.
    pub corrupted_at: Option<usize>,
    /// Bytes truncated off the tail (0 when the file was clean).
    pub bytes_truncated: u64,
}

impl RecoveryReport {
    /// True when the file was intact end to end.
    pub fn clean(&self) -> bool {
        self.corrupted_at.is_none() && self.bytes_truncated == 0
    }
}

/// Append-only checkpoint writer with injectable torn writes.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: fs::File,
    path: PathBuf,
    /// Hosts whose next append tears (consumed one-shot).
    torn_hosts: BTreeSet<String>,
    poisoned: bool,
    records_written: usize,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint at `path` and writes the header.
    pub fn create(path: &Path, label: &str, device_id: &str) -> io::Result<CheckpointWriter> {
        let mut file = fs::File::create(path)?;
        let header = Header {
            version: VERSION,
            label: label.to_string(),
            device_id: device_id.to_string(),
        };
        let line = serde_json::to_string(&header).map_err(io::Error::other)?;
        writeln!(file, "{line}")?;
        file.flush()?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
            torn_hosts: BTreeSet::new(),
            poisoned: false,
            records_written: 0,
        })
    }

    /// Arms torn-write faults from a crawl's fault plan: the first append
    /// of a record whose URL host carries [`Fault::TornWrite`] flushes a
    /// partial line and fails.
    pub fn arm_faults(&mut self, faults: &FaultPlan) {
        for (host, fault) in &faults.host_faults {
            if *fault == Fault::TornWrite {
                self.torn_hosts.insert(host.clone());
            }
        }
    }

    /// Arms a torn write for one host directly.
    pub fn arm_torn_write(&mut self, host: &str) {
        self.torn_hosts.insert(host.to_ascii_lowercase());
    }

    /// The path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records successfully appended since [`CheckpointWriter::create`]
    /// (torn appends don't count — their line never fully landed).
    pub fn records_written(&self) -> usize {
        self.records_written
    }

    /// Appends one record. On an armed torn write the line is flushed
    /// only partially (simulating a crash mid-write), the writer is
    /// poisoned, and an error returns; [`recover`] must run before the
    /// file is appended to again.
    pub fn append(&mut self, record: &SiteRecord) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other("checkpoint writer poisoned by torn write"));
        }
        let json = serde_json::to_string(record).map_err(io::Error::other)?;
        let line = format!("{:08x} {json}\n", crc32(json.as_bytes()));
        if self.torn_hosts.remove(&record.url.host) {
            self.tear_line(&line)?;
            return Err(io::Error::other(format!(
                "torn write injected for {}",
                record.url.host
            )));
        }
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.records_written += 1;
        Ok(())
    }

    /// Simulates the owning process dying inside the `write(2)` of
    /// `record`'s framed line: roughly half the line is flushed (no
    /// newline) and the writer is poisoned. Unlike the armed path (a
    /// [`Fault::TornWrite`] consumed by [`CheckpointWriter::append`]),
    /// the tear is unconditional — the supervisor's fault injector uses
    /// it to kill a shard worker at an exact record. The on-disk state is
    /// precisely what [`recover`] truncates away.
    pub fn tear(&mut self, record: &SiteRecord) -> io::Result<()> {
        let json = serde_json::to_string(record).map_err(io::Error::other)?;
        let line = format!("{:08x} {json}\n", crc32(json.as_bytes()));
        self.tear_line(&line)
    }

    /// Crash mid-write: flush roughly half the line, no newline, and
    /// poison the writer until recovery runs.
    fn tear_line(&mut self, line: &str) -> io::Result<()> {
        let cut = line.len() / 2;
        self.file.write_all(&line.as_bytes()[..cut])?;
        self.file.flush()?;
        self.poisoned = true;
        Ok(())
    }
}

/// Reads a checkpoint, keeps the longest valid prefix, truncates the file
/// back to exactly that prefix, and returns it as a dataset. Clean files
/// round-trip untouched. Fails only on I/O errors or a missing/invalid
/// header (nothing recoverable exists without one).
pub fn recover(path: &Path) -> io::Result<(CrawlDataset, RecoveryReport)> {
    let file = fs::File::open(path)?;
    let mut reader = BufReader::new(file);

    let mut header_line = String::new();
    reader.read_line(&mut header_line)?;
    let header: Header = serde_json::from_str(header_line.trim_end())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad header: {e}")))?;
    if header.version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {}", header.version),
        ));
    }

    let mut records = Vec::new();
    let mut valid_bytes = header_line.len() as u64;
    let mut corrupted_at = None;
    let mut raw = Vec::new();
    loop {
        raw.clear();
        let n = reader.read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        // Raw bytes first: a crash can leave arbitrary garbage, including
        // invalid UTF-8, which is corruption — not an I/O error.
        let parsed = std::str::from_utf8(&raw)
            .ok()
            .filter(|line| line.ends_with('\n'))
            .and_then(parse_record_line);
        match parsed {
            Some(record) => {
                records.push(record);
                valid_bytes += n as u64;
            }
            // A parseable final line without its newline is still torn:
            // the crash may have landed inside a trailing byte run that
            // happens to parse. Only newline-terminated lines count.
            None => {
                corrupted_at = Some(records.len());
                break;
            }
        }
    }
    // Swallow anything after the first bad line too: it is unreachable
    // via append-only writes and must not survive recovery.
    let total = fs::metadata(path)?.len();
    let bytes_truncated = total - valid_bytes;
    if bytes_truncated > 0 {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        file.flush()?;
    }

    let dataset = CrawlDataset {
        label: header.label,
        device_id: header.device_id,
        records,
    };
    let report = RecoveryReport {
        records_recovered: dataset.records.len(),
        corrupted_at,
        bytes_truncated,
    };
    Ok((dataset, report))
}

fn parse_record_line(line: &str) -> Option<SiteRecord> {
    let trimmed = line.trim_end_matches('\n');
    let (crc_hex, json) = trimmed.split_once(' ')?;
    // The frame is canonical lowercase hex; anything else (including an
    // uppercase variant that would parse to the same value) is corruption.
    if crc_hex.len() != 8
        || !crc_hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    let expected = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc32(json.as_bytes()) != expected {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Writes a complete dataset as a checkpoint via write-temp-then-rename,
/// so a process crash anywhere leaves either the old file or the new one
/// — never a hybrid. Without `fsync`, power loss can still lose the
/// rename or the new file's contents.
pub fn save_atomic(path: &Path, dataset: &CrawlDataset) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut writer = CheckpointWriter::create(&tmp, &dataset.label, &dataset.device_id)?;
        for record in &dataset.records {
            writer.append(record)?;
        }
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FailureKind, SiteFailure, SiteOutcome};
    use canvassing_net::Url;

    fn record(host: &str, ok: bool) -> SiteRecord {
        let url = Url::https(host, "/");
        let outcome = if ok {
            SiteOutcome::Failure(SiteFailure {
                kind: FailureKind::Timeout,
                error: "deadline".into(),
                attempts: 1,
                salvage: None,
            })
        } else {
            SiteOutcome::Failure(SiteFailure {
                kind: FailureKind::Unreachable,
                error: "down".into(),
                attempts: 1,
                salvage: None,
            })
        };
        SiteRecord { url, outcome }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("canvassing-ckpt-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn clean_roundtrip_recovers_everything() {
        let path = tmp_path("clean");
        let mut w = CheckpointWriter::create(&path, "control", "intel").unwrap();
        for i in 0..5 {
            w.append(&record(&format!("s{i}.com"), i % 2 == 0)).unwrap();
        }
        let (ds, report) = recover(&path).unwrap();
        assert!(report.clean());
        assert_eq!(ds.records.len(), 5);
        assert_eq!(ds.label, "control");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_is_detected_and_truncated() {
        let path = tmp_path("torn");
        let mut w = CheckpointWriter::create(&path, "control", "intel").unwrap();
        w.arm_torn_write("s2.com");
        for i in 0..2 {
            w.append(&record(&format!("s{i}.com"), true)).unwrap();
        }
        let err = w.append(&record("s2.com", true)).unwrap_err();
        assert!(err.to_string().contains("torn write"));
        // Writer is poisoned until recovery.
        assert!(w.append(&record("s3.com", true)).is_err());
        drop(w);

        let (ds, report) = recover(&path).unwrap();
        assert_eq!(ds.records.len(), 2);
        assert_eq!(report.corrupted_at, Some(2));
        assert!(report.bytes_truncated > 0);

        // Post-recovery the file is clean and appendable again.
        let (_, second) = recover(&path).unwrap();
        assert!(second.clean());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_anywhere_in_a_record_is_caught() {
        let path = tmp_path("flip");
        let mut w = CheckpointWriter::create(&path, "control", "intel").unwrap();
        for i in 0..3 {
            w.append(&record(&format!("s{i}.com"), true)).unwrap();
        }
        drop(w);
        let clean = fs::read(&path).unwrap();
        let header_len = clean.iter().position(|&b| b == b'\n').unwrap() + 1;

        // Flip every byte of the second record line in turn; recovery
        // must always keep exactly the first record.
        let line_starts: Vec<usize> = std::iter::once(header_len)
            .chain(
                clean[header_len..]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &b)| {
                        (b == b'\n' && header_len + i + 1 < clean.len())
                            .then_some(header_len + i + 1)
                    }),
            )
            .collect();
        let second = line_starts[1];
        let third = line_starts[2];
        for pos in second..third - 1 {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x20;
            fs::write(&path, &corrupt).unwrap();
            let (ds, report) = recover(&path).unwrap();
            assert_eq!(ds.records.len(), 1, "flip at byte {pos}");
            assert_eq!(report.corrupted_at, Some(1), "flip at byte {pos}");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_atomic_then_recover_roundtrips() {
        let path = tmp_path("atomic");
        let ds = CrawlDataset {
            label: "ablation".into(),
            device_id: "mac".into(),
            records: (0..4).map(|i| record(&format!("s{i}.com"), true)).collect(),
        };
        save_atomic(&path, &ds).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let (back, report) = recover(&path).unwrap();
        assert!(report.clean());
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&ds).unwrap()
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn tear_leaves_a_recoverable_prefix_and_poisons_the_writer() {
        let path = tmp_path("tear");
        let mut w = CheckpointWriter::create(&path, "control", "intel").unwrap();
        for i in 0..3 {
            w.append(&record(&format!("s{i}.com"), true)).unwrap();
        }
        w.tear(&record("victim.com", true)).unwrap();
        assert!(w.append(&record("s4.com", true)).is_err(), "poisoned");
        drop(w);

        let (ds, report) = recover(&path).unwrap();
        assert_eq!(ds.records.len(), 3, "the torn record never landed");
        assert_eq!(report.corrupted_at, Some(3));
        assert!(report.bytes_truncated > 0);
        let (_, second) = recover(&path).unwrap();
        assert!(second.clean());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn arm_faults_pulls_torn_hosts_from_plan() {
        let mut plan = FaultPlan::default();
        plan.inject("torn.com", Fault::TornWrite);
        plan.inject("down.com", Fault::Unreachable);
        let path = tmp_path("armed");
        let mut w = CheckpointWriter::create(&path, "c", "d").unwrap();
        w.arm_faults(&plan);
        assert!(w.append(&record("down.com", false)).is_ok());
        assert!(w.append(&record("torn.com", false)).is_err());
        fs::remove_file(&path).ok();
    }
}
