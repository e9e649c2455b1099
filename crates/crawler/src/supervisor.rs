//! Crash-tolerant shard supervision for the million-site crawl: the one
//! code path that shards a frontier and spills records to disk.
//!
//! Real web-scale measurement crawls run for days across many machines,
//! and processes there die, hang, straggle, and get double-launched by
//! the orchestration layer. This module runs each frontier shard under a
//! supervision protocol that makes those failures *invisible in the
//! dataset*:
//!
//! * **Leases** — each shard's ownership is a [`Lease`]. The supervisor
//!   keeps every shard's lease in a table in memory and writes it to
//!   `shard{NNN}.lease` in the spill directory, atomically via
//!   write-temp-then-rename, only when ownership changes: an owner
//!   acquires or steals the shard, or releases it on completion. Epochs
//!   increase monotonically across owners; the epoch is the fencing
//!   token that makes every other mechanism safe.
//! * **Heartbeats** — owners refresh their lease in the table on a
//!   simulated-time cadence. No heartbeat reaches the disk: only the
//!   supervisor's own expiry scan reads one, and a later supervisor
//!   could not trust an old one anyway, since its clock starts again at
//!   0. A lease whose heartbeat goes stale past the TTL is expired
//!   (`lease.expire`) and the shard re-leased to a standby worker
//!   (`lease.acquire` + `worker.restart`) at the next epoch, resuming
//!   from the shard's *durable* frontier — re-derived from its segments,
//!   exactly as a fresh process on another machine would.
//! * **Fencing** — a worker discovers it lost its lease at its next
//!   heartbeat (the table holds a newer non-speculative epoch) and
//!   self-fences (`worker.fenced`): it stops crawling. Records it spilled
//!   while fenced-but-unaware stay on disk; the merge drops them as
//!   duplicates.
//! * **Speculation** — when a live, heartbeating owner stops making
//!   progress ([`SpeculationPolicy::Race`]), a second owner is raced on
//!   the slowest such shard (`straggler.speculate` + `lease.steal`) at
//!   the next epoch, marked speculative so the original keeps running;
//!   whichever finishes first wins and the loser is cancelled
//!   (`worker.cancel`).
//!
//! **Fault injection** is scripted and process-level ([`WorkerFault`]):
//! crash-at-record-K with a torn segment tail (via
//! [`crate::checkpoint::CheckpointWriter::tear`]), crash before the
//! first spill, stall (stop crawling *and* heartbeating), straggle
//! (slow but heartbeating), and duplicate launch. The supervisor runs
//! workers as deterministic in-process simulations on a tick clock, so
//! every `(workload, faults)` pair reproduces the same interleaving.
//!
//! **The proof obligation**: any interleaving of crashes, re-leases,
//! fences, and speculative double-execution merges byte-identical to
//! one uninterrupted `workers = 1` crawl. Owners write epoch-qualified
//! segments (`shard{NNN}-e{EEEE}-seg{NNNNN}.ckpt`, see
//! [`crate::segment`]) so racing owners never collide on a file;
//! [`merge_supervised`] orders segments by `(shard, epoch, seq)` and
//! deduplicates records by site — and every execution of a site yields
//! the identical record ([`crate::SiteCrawler`]'s purity contract), so
//! dropping duplicates is lossless. A segment whose header never landed
//! (the owner died between creating the file and writing its first
//! line) reads as empty, not as an error. `tests/supervisor_chaos.rs`
//! proves the identity with a kill-at-every-record sweep plus the stall,
//! duplicate, straggler and seeded-chaos scenarios.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use canvassing_browser::CrawlCaches;
use canvassing_net::{Network, Url};
use canvassing_trace::TraceSink;
use serde::{Deserialize, Serialize};

use crate::dataset::CrawlDataset;
use crate::segment::{
    emit_spill_instant, merge_segments, parse_supervised_name, recover_segment, SegmentWriter,
};
use crate::{shard_range, BreakerPlan, CrawlConfig, MergeReport, SiteCrawler};

/// Simulated ms per scheduling tick (one record per healthy worker).
const TICK_MS: u64 = 100;
/// Owners refresh their lease at this cadence (every 5 ticks).
const HEARTBEAT_MS: u64 = 500;
/// A lease whose heartbeat is older than this (about 3 missed beats) has
/// lost its owner: expire it and re-lease the shard.
const LEASE_TTL_MS: u64 = 1600;
/// Livelock valve: a shard needing more than this many epochs fails the
/// crawl instead of re-leasing forever.
const MAX_EPOCHS_PER_SHARD: u64 = 32;

/// One shard's ownership record. The supervisor holds each shard's lease
/// in memory and persists it as `shard{NNN}.lease` in the spill directory
/// whenever it changes hands or is released, via write-temp-then-rename —
/// a process crash mid-write leaves either the old lease or the new one,
/// never a torn hybrid. Nothing is `fsync`ed, so power loss can roll a
/// lease back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Shard this lease covers.
    pub shard: usize,
    /// Fencing token: strictly increasing across owners of the shard. A
    /// worker holding epoch `e` must stop the moment it observes a
    /// non-speculative lease with epoch `> e`.
    pub epoch: u64,
    /// Launch id of the owning worker.
    pub worker: usize,
    /// Simulated ms at which this epoch acquired the shard.
    pub acquired_ms: u64,
    /// Simulated ms of the owner's last heartbeat. On disk, as of the
    /// last acquire or release.
    pub heartbeat_ms: u64,
    /// Records the owner had durably spilled at its last heartbeat (at
    /// acquire: the records the shard's segments already held). On disk,
    /// as of the last acquire or release.
    pub progress: usize,
    /// A speculative (racing) lease: the previous epoch's owner is
    /// still live and deliberately keeps running — first to finish wins.
    pub speculative: bool,
    /// Set when the shard completed under this lease.
    pub released: bool,
}

/// The lease file path for one shard.
pub fn lease_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard{shard:03}.lease"))
}

/// Reads a shard's lease file, `None` when no owner has ever claimed it.
/// For post-mortems of a spill directory: a running supervisor reads its
/// own table, never the files.
pub fn read_lease(dir: &Path, shard: usize) -> io::Result<Option<Lease>> {
    match fs::read_to_string(lease_path(dir, shard)) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad lease: {e}"))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Replaces a shard's lease (write temp, then rename): atomic against a
/// process crash, not against power loss (no `fsync`).
fn write_lease(dir: &Path, lease: &Lease) -> io::Result<()> {
    let path = lease_path(dir, lease.shard);
    let tmp = path.with_extension("lease.tmp");
    fs::write(
        &tmp,
        serde_json::to_string(lease).map_err(io::Error::other)?,
    )?;
    fs::rename(&tmp, &path)
}

/// When to race a second owner against a slow shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeculationPolicy {
    /// Never speculate; stragglers run to completion at their own pace.
    Off,
    /// Race a second owner on the slowest live shard (most records
    /// remaining, ties to the lowest shard id) once its owner has gone
    /// `after_quiet_ticks` scheduling ticks without spilling a record
    /// while still heartbeating — a straggler, not a corpse; corpses
    /// are lease expiry's job.
    Race {
        /// Progress-free ticks tolerated before racing a second owner.
        after_quiet_ticks: u64,
    },
}

/// Supervision parameters. Time is simulated: the supervisor advances a
/// logical clock by 100 ms per scheduling tick and never consults a wall
/// clock, so runs are exactly reproducible. Owners heartbeat every
/// 500 ms, a lease expires 1,600 ms after its last heartbeat, a shard may
/// use 32 epochs, and standbys and racers launch only while fewer than
/// `shards + 1` workers run (the spare slot is the standby pool
/// re-leases draw from).
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Frontier shards (= concurrent owners when nothing fails).
    pub shards: usize,
    /// Records per spilled segment file.
    pub segment_sites: usize,
    /// Straggler speculation policy.
    pub speculation: SpeculationPolicy,
    /// Spill-side sink for supervision instants (`lease.*`, `worker.*`,
    /// `straggler.speculate`) and the segment writers' seal instants.
    /// Kept separate from the crawl's sink so study trace totals are
    /// unaffected by supervision.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for SupervisorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorConfig")
            .field("shards", &self.shards)
            .field("segment_sites", &self.segment_sites)
            .field("speculation", &self.speculation)
            .finish_non_exhaustive()
    }
}

impl SupervisorConfig {
    /// Defaults for `shards` shards: 64-record segments, speculation
    /// after 6 quiet ticks, no trace.
    pub fn new(shards: usize) -> SupervisorConfig {
        SupervisorConfig {
            shards: shards.max(1),
            segment_sites: 64,
            speculation: SpeculationPolicy::Race {
                after_quiet_ticks: 6,
            },
            trace: None,
        }
    }
}

/// A scripted process-level fault for one worker launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Die while appending the `0`-based `k`-th record of this
    /// ownership: about half of the record's write (its new blob frames,
    /// then its record frame) lands, ending inside a frame (torn segment
    /// tail), exactly as a crash inside `write(2)` would leave it.
    CrashAtRecord(usize),
    /// Die after acquiring the lease but before any spill lands — the
    /// shard has an owner on paper and nothing on disk.
    CrashBeforeFirstSpill,
    /// Stop crawling *and* heartbeating after `after_records` records —
    /// a hung process. Only lease expiry clears it.
    Stall {
        /// Records spilled before the hang.
        after_records: usize,
    },
    /// Keep heartbeating on time but spill only one record every
    /// `period` ticks — the straggler that speculation exists for.
    Straggle {
        /// Ticks per record (healthy workers do one per tick).
        period: u64,
    },
}

/// Deterministic fault plan for a supervised crawl: faults are keyed by
/// `(shard, epoch)` — epoch 1 is a shard's first owner — plus optional
/// duplicate launches. Build one by hand for targeted tests or from a
/// seed ([`FaultScript::seeded`]) for soak sweeps.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    faults: BTreeMap<(usize, u64), WorkerFault>,
    /// Shard → records its epoch-1 owner spills before a duplicate
    /// worker is launched on the same shard.
    duplicates: BTreeMap<usize, usize>,
}

impl FaultScript {
    /// No faults: the supervised crawl runs exactly like N healthy
    /// shard processes.
    pub fn none() -> FaultScript {
        FaultScript::default()
    }

    /// Scripts `fault` for the worker owning `shard` at `epoch`.
    pub fn inject(&mut self, shard: usize, epoch: u64, fault: WorkerFault) -> &mut FaultScript {
        self.faults.insert((shard, epoch), fault);
        self
    }

    /// Scripts a duplicate launch: once `shard`'s first owner has
    /// spilled `after_records` records, a second worker is launched on
    /// the same shard (stealing the lease at the next epoch) while the
    /// original keeps crawling until its next heartbeat notices the
    /// fence — the classic orchestration double-start.
    pub fn duplicate_launch(&mut self, shard: usize, after_records: usize) -> &mut FaultScript {
        self.duplicates.insert(shard, after_records);
        self
    }

    /// A seeded mixed fault plan (LCG, no external RNG): roughly half
    /// the shards get a crash, stall, straggle, double-crash, or
    /// duplicate launch.
    pub fn seeded(seed: u64, shards: usize) -> FaultScript {
        let mut script = FaultScript::default();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut roll = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for shard in 0..shards {
            match roll() % 8 {
                0 | 1 => {}
                2 => {
                    script.inject(shard, 1, WorkerFault::CrashAtRecord((roll() % 7) as usize));
                }
                3 => {
                    script.inject(shard, 1, WorkerFault::CrashBeforeFirstSpill);
                }
                4 => {
                    script.inject(
                        shard,
                        1,
                        WorkerFault::Stall {
                            after_records: 1 + (roll() % 4) as usize,
                        },
                    );
                }
                5 => {
                    script.inject(
                        shard,
                        1,
                        WorkerFault::Straggle {
                            period: 3 + roll() % 4,
                        },
                    );
                }
                6 => {
                    script.duplicate_launch(shard, 1 + (roll() % 3) as usize);
                }
                _ => {
                    script.inject(shard, 1, WorkerFault::CrashAtRecord((roll() % 5) as usize));
                    script.inject(shard, 2, WorkerFault::CrashAtRecord((roll() % 5) as usize));
                }
            }
        }
        script
    }

    fn fault_for(&self, shard: usize, epoch: u64) -> Option<WorkerFault> {
        self.faults.get(&(shard, epoch)).copied()
    }
}

/// What supervision did and what it cost, alongside the merge's own
/// accounting. Fully deterministic for a given `(workload, faults)`
/// pair — `tests/supervisor_chaos.rs` pins these numbers per scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionReport {
    /// Shards supervised.
    pub shards: usize,
    /// Worker launches, including re-leases, duplicates, and
    /// speculative racers.
    pub workers_launched: usize,
    /// Workers that died to injected crashes.
    pub workers_crashed: usize,
    /// Workers that observed a newer non-speculative epoch and stopped.
    pub workers_fenced: usize,
    /// Racing workers cancelled because the other owner finished first.
    pub workers_cancelled: usize,
    /// Leases expired after missed heartbeats (stalled owners).
    pub leases_expired: usize,
    /// Live leases taken over (duplicate launches + speculation).
    pub leases_stolen: usize,
    /// Relaunches after a crash or expiry (epoch > 1, non-speculative,
    /// non-duplicate).
    pub re_leases: usize,
    /// Speculative racers launched against stragglers.
    pub speculative_launches: usize,
    /// Total site visits performed by all workers.
    pub records_crawled: usize,
    /// Visits beyond the first per site — work re-done because of
    /// crashes, fencing lag, or speculation. The chaos gate bounds this
    /// at one segment per injected crash.
    pub records_redone: usize,
    /// Highest epoch any shard needed.
    pub max_epoch: u64,
    /// Simulated duration of the supervised crawl.
    pub sim_ms: u64,
    /// The duplicate-safe merge's accounting over the spill directory.
    pub merge: MergeReport,
}

impl SupervisionReport {
    /// Fraction of all visits that were re-done work: `0.0` for a
    /// fault-free run, approaching `1.0` only under pathological churn.
    pub fn wasted_work_ratio(&self) -> f64 {
        if self.records_crawled == 0 {
            0.0
        } else {
            self.records_redone as f64 / self.records_crawled as f64
        }
    }
}

/// One simulated shard-worker "process". It lives as long as it holds its
/// segment writer: crashing, being fenced, expired or cancelled drops the
/// writer (the file handle dies with the process), and finishing the
/// shard seals and drops it.
struct Worker<'a> {
    id: usize,
    shard: usize,
    epoch: u64,
    speculative: bool,
    crawler: SiteCrawler<'a>,
    writer: Option<SegmentWriter>,
    next_index: usize,
    end_index: usize,
    records_done: usize,
    fault: Option<WorkerFault>,
    duplicate_after: Option<usize>,
    spawn_tick: u64,
    last_heartbeat_ms: u64,
    last_progress_tick: u64,
    stalled: bool,
}

impl Worker<'_> {
    fn live(&self) -> bool {
        self.writer.is_some()
    }

    /// The process dies; whatever it had not spilled is lost.
    fn stop(&mut self) {
        self.writer = None;
    }

    /// This owner's lease as of a heartbeat or release at `now_ms`.
    fn lease(&self, now_ms: u64, released: bool) -> Lease {
        Lease {
            shard: self.shard,
            epoch: self.epoch,
            worker: self.id,
            acquired_ms: self.spawn_tick * TICK_MS,
            heartbeat_ms: now_ms,
            progress: self.records_done,
            speculative: self.speculative,
            released,
        }
    }
}

/// Lists every segment (`shard{NNN}-e{EEEE}-seg{NNNNN}.ckpt`) in `dir`,
/// sorted by file name — `(shard, epoch, seq)` order, the canonical merge
/// order.
/// Lease-protocol files (`*.lease`, `*.tmp`) are skipped silently;
/// anything else foreign gets a `segment.skip` instant.
pub fn list_supervised_segments(
    dir: &Path,
    trace: Option<&Arc<dyn TraceSink>>,
) -> io::Result<Vec<PathBuf>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if parse_supervised_name(name).is_some() && path.is_file() {
            segments.push(path);
        } else if name.ends_with(".lease") || name.ends_with(".tmp") {
            // Protocol files, not strays.
        } else if path.is_file() {
            emit_spill_instant(trace, "segments", "segment.skip", || {
                format!("{} not a supervised segment name", path.display())
            });
        }
    }
    segments.sort();
    Ok(segments)
}

/// Recovers a supervised spill directory into a full dataset: segments
/// merge in `(shard, epoch, seq)` order, records deduplicate by site
/// (first occurrence wins — every execution produced the identical
/// record), torn tails are truncated, and any uncovered frontier gap is
/// recrawled. Byte-identical to one uninterrupted `workers = 1` crawl,
/// whatever the supervised run's fault history.
pub fn merge_supervised(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    dir: &Path,
    trace: Option<&Arc<dyn TraceSink>>,
) -> io::Result<(CrawlDataset, MergeReport)> {
    let segments = list_supervised_segments(dir, trace)?;
    merge_segments(network, frontier, config, &segments, trace)
}

/// The shard's durable frontier coverage, re-derived purely from disk:
/// every segment of `shard` (any epoch, sealed or not) is recovered —
/// truncating torn tails exactly as a fresh standby process would — and
/// its records mapped back to frontier indices.
fn durable_coverage(
    dir: &Path,
    shard: usize,
    frontier_index: &BTreeMap<&Url, usize>,
) -> io::Result<BTreeSet<usize>> {
    let mut covered = BTreeSet::new();
    for path in list_supervised_segments(dir, None)? {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !matches!(parse_supervised_name(name), Some((s, _, _)) if s == shard) {
            continue;
        }
        for record in recover_segment(&path)?.0 {
            if let Some(&i) = frontier_index.get(&record.url) {
                covered.insert(i);
            }
        }
    }
    Ok(covered)
}

/// How a worker comes to own a shard.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Launch {
    /// A standby takes an ownerless shard: its first owner, or a
    /// re-lease after a crash or an expiry.
    Standby,
    /// A scripted double start steals the live lease.
    Duplicate,
    /// A racer steals a straggler's lease, marked speculative.
    Speculative,
}

/// One supervised crawl in progress: its inputs, the simulated workers,
/// the lease table and the report so far.
struct Run<'a> {
    network: &'a Network,
    frontier: &'a [Url],
    frontier_index: BTreeMap<&'a Url, usize>,
    config: &'a CrawlConfig,
    caches: &'a CrawlCaches,
    plan: Option<&'a BreakerPlan>,
    dir: &'a Path,
    sup: &'a SupervisorConfig,
    faults: &'a FaultScript,
    shards: usize,
    workers: Vec<Worker<'a>>,
    /// Each shard's lease, as the lease file would hold it had every
    /// heartbeat been written: the supervisor's one source of truth about
    /// ownership.
    leases: Vec<Option<Lease>>,
    /// Each shard's latest epoch; the next launch takes the one after.
    epochs: Vec<u64>,
    complete: Vec<bool>,
    /// `(shard, epoch)` leases already expired, so each expires once.
    expired: BTreeSet<(usize, u64)>,
    /// Visits per frontier index, for `records_redone`.
    crawl_counts: Vec<u32>,
    next_worker_id: usize,
    tick: u64,
    report: SupervisionReport,
}

impl<'a> Run<'a> {
    /// The simulated clock: `TICK_MS` per scheduling tick.
    fn now_ms(&self) -> u64 {
        self.tick * TICK_MS
    }

    fn instant(&self, name: &'static str, detail: impl FnOnce() -> String) {
        emit_spill_instant(self.sup.trace.as_ref(), &self.config.label, name, detail);
    }

    /// Expiry scan: a lease whose heartbeat went stale has lost its owner
    /// (a hung process); kill our simulation of it so the launch scan
    /// re-leases the shard.
    fn expire(&mut self) {
        for shard in 0..self.shards {
            let Some(lease) = &self.leases[shard] else {
                continue;
            };
            let (epoch, silent_ms) = (lease.epoch, self.now_ms() - lease.heartbeat_ms);
            if self.complete[shard]
                || lease.released
                || silent_ms <= LEASE_TTL_MS
                || !self.expired.insert((shard, epoch))
            {
                continue;
            }
            self.instant("lease.expire", || {
                format!("shard={shard} epoch={epoch} last heartbeat {silent_ms}ms ago")
            });
            self.report.leases_expired += 1;
            for w in &mut self.workers {
                if w.shard == shard && w.epoch == epoch {
                    w.stop();
                }
            }
        }
        self.workers.retain(Worker::live);
    }

    /// Launches a `kind` worker on `shard` at the shard's next epoch,
    /// resuming from the durable frontier: the lease is acquired (written
    /// to disk) and the epoch's segment writer opened. A standby or racer
    /// needs a free worker slot; past the epoch cap a racer is skipped
    /// and any other launch fails the crawl. A standby that finds the
    /// shard durably complete marks it complete instead: its previous
    /// owner finished the range but died before releasing.
    fn launch(&mut self, shard: usize, kind: Launch) -> io::Result<()> {
        // One slot per shard plus one standby.
        if kind != Launch::Duplicate && self.workers.len() > self.shards {
            return Ok(());
        }
        let epoch = self.epochs[shard] + 1;
        if epoch > MAX_EPOCHS_PER_SHARD {
            if kind == Launch::Speculative {
                return Ok(());
            }
            return Err(io::Error::other(format!(
                "shard {shard} exceeded {MAX_EPOCHS_PER_SHARD} epochs — supervision livelock"
            )));
        }
        let range = shard_range(self.frontier.len(), shard, self.shards);
        let covered = durable_coverage(self.dir, shard, &self.frontier_index)?;
        let Some(next_index) = range.clone().find(|i| !covered.contains(i)) else {
            if kind == Launch::Standby {
                self.complete[shard] = true;
            }
            return Ok(());
        };
        let (id, now_ms) = (self.next_worker_id, self.now_ms());
        let speculative = kind == Launch::Speculative;
        let lease = Lease {
            shard,
            epoch,
            worker: id,
            acquired_ms: now_ms,
            heartbeat_ms: now_ms,
            progress: covered.len(),
            speculative,
            released: false,
        };
        write_lease(self.dir, &lease)?;
        self.leases[shard] = Some(lease);
        let mut writer = SegmentWriter::create(
            self.dir,
            &self.config.label,
            &self.config.device.id,
            shard,
            self.sup.segment_sites,
        )?
        .with_epoch(epoch);
        if let Some(sink) = &self.sup.trace {
            writer = writer.with_trace(Arc::clone(sink));
        }
        self.workers.push(Worker {
            id,
            shard,
            epoch,
            speculative,
            crawler: SiteCrawler::new(
                self.network,
                self.frontier,
                self.config,
                self.caches,
                self.plan,
            ),
            writer: Some(writer),
            next_index,
            end_index: range.end,
            records_done: 0,
            fault: self.faults.fault_for(shard, epoch),
            // Only a shard's first owner can be duplicated.
            duplicate_after: (epoch == 1)
                .then(|| self.faults.duplicates.get(&shard).copied())
                .flatten(),
            spawn_tick: self.tick,
            last_heartbeat_ms: now_ms,
            last_progress_tick: self.tick,
            stalled: false,
        });
        self.epochs[shard] = epoch;
        self.next_worker_id += 1;
        self.report.workers_launched += 1;
        let who = || format!("shard={shard} epoch={epoch} worker={id}");
        match kind {
            Launch::Standby => {
                self.instant("lease.acquire", who);
                if epoch > 1 {
                    self.instant("worker.restart", who);
                    self.report.re_leases += 1;
                }
            }
            Launch::Duplicate => {
                self.instant("lease.steal", || format!("{} duplicate launch", who()));
                self.report.leases_stolen += 1;
            }
            Launch::Speculative => {
                self.instant("straggler.speculate", || {
                    format!("{} racing the straggler", who())
                });
                self.instant("lease.steal", || format!("{} speculative", who()));
                self.report.speculative_launches += 1;
                self.report.leases_stolen += 1;
            }
        }
        Ok(())
    }

    /// Work step: each live worker crawls (at its rate), spills,
    /// heartbeats, and applies its scripted fault. Returns the shards
    /// whose scripted duplicate launch fell due this tick.
    fn work(&mut self) -> io::Result<Vec<usize>> {
        let (now_ms, tick) = (self.now_ms(), self.tick);
        let (trace, label) = (self.sup.trace.as_ref(), &self.config.label);
        let mut duplicates = Vec::new();
        for wi in 0..self.workers.len() {
            let w = &mut self.workers[wi];
            if !w.live() || self.complete[w.shard] {
                continue;
            }
            let (shard, epoch, id) = (w.shard, w.epoch, w.id);
            let who = || format!("shard={shard} epoch={epoch} worker={id}");

            // A hung process: no work, and crucially no heartbeats.
            if let Some(WorkerFault::Stall { after_records }) = w.fault {
                if w.records_done >= after_records {
                    if !w.stalled {
                        w.stalled = true;
                        emit_spill_instant(trace, label, "worker.stall", who);
                    }
                    continue;
                }
            }

            // Heartbeat — and with it, the fence check: the lease table
            // is the one source of truth about ownership.
            if now_ms - w.last_heartbeat_ms >= HEARTBEAT_MS {
                let lease = &mut self.leases[shard];
                match lease {
                    // Outraced, not revoked: keep crawling, stop touching
                    // the lease (it is the racer's now).
                    Some(l) if l.epoch != epoch && l.speculative => {}
                    Some(l) if l.epoch != epoch => {
                        let newer = l.epoch;
                        emit_spill_instant(trace, label, "worker.fenced", || {
                            format!("{} fenced by epoch {newer}", who())
                        });
                        self.report.workers_fenced += 1;
                        w.stop();
                        continue;
                    }
                    _ => *lease = Some(w.lease(now_ms, false)),
                }
                w.last_heartbeat_ms = now_ms;
            }

            // Work-rate gate: stragglers crawl once per `period` ticks.
            if let Some(WorkerFault::Straggle { period }) = w.fault {
                if !(tick - w.spawn_tick).is_multiple_of(period.max(1)) {
                    continue;
                }
            }

            if matches!(w.fault, Some(WorkerFault::CrashBeforeFirstSpill)) {
                emit_spill_instant(trace, label, "worker.crash", || {
                    format!("{} before first spill", who())
                });
                self.report.workers_crashed += 1;
                w.stop();
                continue;
            }

            let index = w.next_index;
            let record = w.crawler.visit(index);
            self.crawl_counts[index] += 1;
            self.report.records_crawled += 1;

            if let Some(WorkerFault::CrashAtRecord(k)) = w.fault {
                if w.records_done == k {
                    if let Some(writer) = w.writer.as_mut() {
                        writer.crash(&record)?;
                    }
                    emit_spill_instant(trace, label, "worker.crash", || {
                        format!("{} torn tail at record {k}", who())
                    });
                    self.report.workers_crashed += 1;
                    w.stop();
                    continue;
                }
            }

            if let Some(writer) = w.writer.as_mut() {
                writer.append(&record)?;
            }
            w.records_done += 1;
            w.next_index += 1;
            w.last_progress_tick = tick;

            if w.duplicate_after == Some(w.records_done) {
                w.duplicate_after = None;
                duplicates.push(shard);
            }

            if w.next_index >= w.end_index {
                // Shard complete: seal, release the lease at our epoch
                // (winning any race), and cancel the losers.
                if let Some(writer) = w.writer.take() {
                    writer.finish()?;
                }
                let lease = w.lease(now_ms, true);
                write_lease(self.dir, &lease)?;
                self.leases[shard] = Some(lease);
                emit_spill_instant(trace, label, "lease.release", who);
                self.complete[shard] = true;
                for loser in self.workers.iter_mut() {
                    if loser.shard == shard && loser.live() {
                        let loser_id = loser.id;
                        emit_spill_instant(trace, label, "worker.cancel", || {
                            format!("shard={shard} worker={loser_id} lost the race")
                        });
                        self.report.workers_cancelled += 1;
                        loser.stop();
                    }
                }
            }
        }
        Ok(duplicates)
    }

    /// Speculation scan: the slowest live, heartbeating-but-quiet shard
    /// (most records remaining, ties to the lowest shard id) that no
    /// racer runs on yet. Called when every worker is live on an
    /// incomplete shard.
    fn straggler(&self, after_quiet_ticks: u64) -> Option<usize> {
        let racing = |shard| {
            self.workers
                .iter()
                .any(|o| o.shard == shard && o.speculative)
        };
        self.workers
            .iter()
            .filter(|w| {
                !w.speculative
                    && !w.stalled
                    && self.tick - w.last_progress_tick >= after_quiet_ticks
                    && w.next_index < w.end_index
                    && !racing(w.shard)
            })
            .max_by_key(|w| (w.end_index - w.next_index, Reverse(w.shard)))
            .map(|w| w.shard)
    }
}

/// Runs a supervised, crash-tolerant crawl of the full frontier across
/// `sup.shards` leased shard workers, injecting `faults`, then merges
/// the spill directory duplicate-safely.
///
/// Returns the merged dataset — byte-identical to an uninterrupted
/// `workers = 1` [`crate::crawl`] under the same config — plus the
/// [`SupervisionReport`]. Workers are deterministic in-process
/// simulations scheduled on a tick clock: each healthy worker visits
/// one site per tick via its own [`SiteCrawler`] (so `config.workers`
/// is not consulted here), spills through an epoch-qualified
/// [`SegmentWriter`], and heartbeats its lease in the supervisor's lease
/// table. A lease file is written only when a shard's lease is acquired,
/// stolen or released, so the finished spill directory holds the
/// segments and one released `shard{NNN}.lease` per shard.
///
/// Errors on real spill I/O failures or when a shard needs more than 32
/// epochs (supervision livelock — only reachable with a fault script
/// that kills every epoch).
pub fn supervise_crawl(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    dir: &Path,
    sup: &SupervisorConfig,
    faults: &FaultScript,
) -> io::Result<(CrawlDataset, SupervisionReport)> {
    fs::create_dir_all(dir)?;
    let caches = config.build_caches();
    let plan = BreakerPlan::plan(network, frontier, config);
    let shards = sup.shards.max(1);
    let mut run = Run {
        network,
        frontier,
        frontier_index: frontier.iter().enumerate().map(|(i, u)| (u, i)).collect(),
        config,
        caches: &caches,
        plan: plan.as_ref(),
        dir,
        sup,
        faults,
        shards,
        workers: Vec::new(),
        leases: vec![None; shards],
        epochs: vec![0; shards],
        complete: vec![false; shards],
        expired: BTreeSet::new(),
        crawl_counts: vec![0; frontier.len()],
        next_worker_id: 0,
        tick: 0,
        report: SupervisionReport {
            shards,
            ..SupervisionReport::default()
        },
    };
    // Generous valve: epochs are the real livelock guard, this only
    // catches a supervisor bug outright.
    let tick_cap = (frontier.len() as u64 + 64) * 64 * MAX_EPOCHS_PER_SHARD + 10_000;

    while !run.complete.iter().all(|&c| c) {
        run.tick += 1;
        if run.tick > tick_cap {
            return Err(io::Error::other(format!(
                "supervisor exceeded its tick budget ({tick_cap}) — supervision livelock"
            )));
        }
        run.expire();
        // Every incomplete, ownerless shard gets a standby worker at the
        // next epoch, resuming from disk.
        for shard in 0..shards {
            if !run.complete[shard] && !run.workers.iter().any(|w| w.shard == shard) {
                run.launch(shard, Launch::Standby)?;
            }
        }
        // Duplicate launches scripted against this tick's spills steal
        // the live lease; the original discovers the fence at its next
        // heartbeat.
        for shard in run.work()? {
            if !run.complete[shard] {
                run.launch(shard, Launch::Duplicate)?;
            }
        }
        run.workers.retain(Worker::live);
        if let SpeculationPolicy::Race { after_quiet_ticks } = sup.speculation {
            if let Some(shard) = run.straggler(after_quiet_ticks) {
                run.launch(shard, Launch::Speculative)?;
            }
        }
    }

    let (dataset, merge) = merge_supervised(network, frontier, config, dir, sup.trace.as_ref())?;
    let sim_ms = run.now_ms();
    let mut report = run.report;
    report.records_redone = run
        .crawl_counts
        .iter()
        .map(|&c| c.saturating_sub(1) as usize)
        .sum();
    report.max_epoch = run.epochs.iter().copied().max().unwrap_or(0);
    report.sim_ms = sim_ms;
    report.merge = merge;
    Ok((dataset, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_trace::RingSink;
    use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("canvassing-sup-{}-{name}", std::process::id()));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn workload() -> (SyntheticWeb, Vec<Url>, CrawlConfig) {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 23,
            scale: 0.02,
        });
        let mut frontier = web.frontier(Cohort::Popular);
        frontier.truncate(36);
        let mut config = CrawlConfig::control();
        config.workers = 1;
        (web, frontier, config)
    }

    fn sup(shards: usize, segment_sites: usize) -> SupervisorConfig {
        let mut s = SupervisorConfig::new(shards);
        s.segment_sites = segment_sites;
        s
    }

    #[test]
    fn fault_free_supervision_is_byte_identical_with_no_rework() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("clean");
        let (merged, report) = supervise_crawl(
            &web.network,
            &frontier,
            &config,
            &dir,
            &sup(3, 8),
            &FaultScript::none(),
        )
        .unwrap();
        let direct = crate::crawl(&web.network, &frontier, &config);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        assert_eq!(report.workers_launched, 3);
        assert_eq!(report.workers_crashed, 0);
        assert_eq!(report.records_crawled, frontier.len());
        assert_eq!(report.records_redone, 0);
        assert_eq!(report.merge.duplicates_dropped, 0);
        assert_eq!(report.merge.records_recovered, frontier.len());
        assert_eq!(report.merge.recrawled, 0);
        assert!(report.wasted_work_ratio() == 0.0);
        for shard in 0..3 {
            let lease = read_lease(&dir, shard).unwrap().unwrap();
            assert!(lease.released, "shard {shard} lease released");
            assert_eq!(lease.epoch, 1);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_files_round_trip_atomically() {
        let dir = tmp_dir("lease");
        let lease = Lease {
            shard: 2,
            epoch: 7,
            worker: 41,
            acquired_ms: 1000,
            heartbeat_ms: 2500,
            progress: 12,
            speculative: true,
            released: false,
        };
        write_lease(&dir, &lease).unwrap();
        assert!(!lease_path(&dir, 2).with_extension("lease.tmp").exists());
        assert_eq!(read_lease(&dir, 2).unwrap().unwrap(), lease);
        assert_eq!(read_lease(&dir, 3).unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_record_re_leases_and_merges_identically() {
        let (web, frontier, config) = workload();
        let direct = crate::crawl(&web.network, &frontier, &config);
        let dir = tmp_dir("crash");
        let sink = Arc::new(RingSink::new(256));
        let mut s = sup(2, 6);
        s.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let mut faults = FaultScript::none();
        faults.inject(0, 1, WorkerFault::CrashAtRecord(4));
        let (merged, report) =
            supervise_crawl(&web.network, &frontier, &config, &dir, &s, &faults).unwrap();
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        assert_eq!(report.workers_crashed, 1);
        assert_eq!(report.re_leases, 1);
        // Appends flush per record, so a crash re-does only the torn
        // record — well under the one-segment-per-crash bound.
        assert!(report.records_redone <= s.segment_sites * report.workers_crashed);
        assert_eq!(
            report.merge.records_recovered + report.merge.recrawled,
            frontier.len()
        );
        let instants: Vec<(&'static str, usize)> = [
            "worker.crash",
            "worker.restart",
            "lease.acquire",
            "lease.expire",
        ]
        .into_iter()
        .map(|name| {
            (
                name,
                sink.traces()
                    .iter()
                    .map(|t| t.instant_count(name))
                    .sum::<usize>(),
            )
        })
        .collect();
        assert_eq!(instants[0].1, 1, "one crash");
        assert_eq!(instants[1].1, 1, "one restart");
        assert_eq!(instants[2].1, 3, "three acquires (2 launches + 1 re-lease)");
        assert_eq!(instants[3].1, 0, "crash death is observed, not expired");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_error_fails_the_supervised_crawl() {
        // A directory sits where shard 0's second segment goes: rolling
        // over to it cannot create the file, and the crawl must report
        // that instead of dropping the shard's remaining records.
        let (web, frontier, config) = workload();
        let dir = tmp_dir("spill-error");
        let blocked = dir.join("shard000-e0001-seg00001.ckpt");
        fs::create_dir_all(&blocked).unwrap();
        let result = supervise_crawl(
            &web.network,
            &frontier,
            &config,
            &dir,
            &sup(2, 8),
            &FaultScript::none(),
        );
        assert!(result.is_err(), "segment creation failure must surface");
        assert!(blocked.is_dir(), "the blocking directory is left alone");
        let sealed = dir.join("shard000-e0001-seg00000.ckpt");
        let (ds, report) = crate::recover(&sealed).unwrap();
        assert!(report.clean());
        assert_eq!(ds.records.len(), 8, "the first segment sealed whole");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_shares_each_canvas_across_overlapping_shards() {
        use canvassing_raster::SharedText;
        let (web, frontier, config) = workload();
        let dir = tmp_dir("share");
        let mut faults = FaultScript::none();
        faults.duplicate_launch(0, 2);
        faults.inject(1, 1, WorkerFault::CrashAtRecord(3));
        let (mut merged, report) =
            supervise_crawl(&web.network, &frontier, &config, &dir, &sup(2, 5), &faults).unwrap();
        assert!(report.merge.duplicates_dropped > 0, "shard 0 ran twice");
        let direct = crate::crawl(&web.network, &frontier, &config);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        // Every text equal to an earlier one is that one's allocation.
        let mut first: BTreeMap<String, SharedText> = BTreeMap::new();
        let mut shared = 0;
        for record in &mut merged.records {
            let url = record.url.clone();
            for text in record.texts_mut() {
                match first.get(text.as_str()) {
                    Some(kept) => {
                        assert!(SharedText::ptr_eq(kept, text), "{url} copied");
                        shared += usize::from(text.starts_with("data:"));
                    }
                    None => {
                        first.insert(text.to_string(), text.clone());
                    }
                }
            }
        }
        assert!(shared > 0, "the workload repeats canvases across records");
        fs::remove_dir_all(&dir).ok();
    }
}
