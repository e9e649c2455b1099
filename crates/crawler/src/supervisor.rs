//! Crash-tolerant shard supervision for the million-site crawl: the one
//! code path that shards a frontier and spills records to disk.
//!
//! Real web-scale measurement crawls run for days across many machines,
//! and processes there die, hang, straggle, and get double-launched by
//! the orchestration layer. This module runs each frontier shard under a
//! supervision protocol that makes those failures *invisible in the
//! dataset*:
//!
//! * **Leases** — each shard's ownership is a [`Lease`] file
//!   (`shard{NNN}.lease`) in the spill directory, written atomically via
//!   write-temp-then-rename. Epochs increase monotonically across
//!   owners; the epoch is the fencing token that makes every other
//!   mechanism safe.
//! * **Heartbeats** — owners refresh their lease on a simulated-time
//!   cadence. A lease whose heartbeat goes stale past the TTL is
//!   expired (`lease.expire`) and the shard re-leased to a standby
//!   worker (`lease.acquire` + `worker.restart`) at the next epoch,
//!   resuming from the shard's *durable* frontier — re-derived from
//!   disk, exactly as a fresh process on another machine would.
//! * **Fencing** — a worker discovers it lost its lease at its next
//!   heartbeat (a newer non-speculative epoch exists) and self-fences
//!   (`worker.fenced`): it stops crawling. Records it spilled while
//!   fenced-but-unaware stay on disk; the merge drops them as
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

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use canvassing_net::{Network, Url};
use canvassing_trace::TraceSink;
use serde::{Deserialize, Serialize};

use crate::dataset::CrawlDataset;
use crate::segment::{
    emit_spill_instant, merge_segments, parse_supervised_name, recover_segment, SegmentWriter,
};
use crate::{shard_range, BreakerPlan, CrawlConfig, MergeReport, SiteCrawler};

/// One shard's ownership record, persisted as `shard{NNN}.lease` in the
/// spill directory via write-temp-then-rename — a process crash
/// mid-write leaves either the old lease or the new one, never a torn
/// hybrid. Nothing is `fsync`ed, so power loss can roll a lease back.
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
    /// Simulated ms of the owner's last heartbeat.
    pub heartbeat_ms: u64,
    /// Records the owner had durably spilled at the last heartbeat.
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

/// Reads a shard's lease, `None` when no owner has ever claimed it.
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

/// Simulated-time supervision parameters. All durations are simulated
/// milliseconds — the supervisor advances a logical clock by
/// [`SupervisorConfig::tick_ms`] per scheduling round and never consults
/// a wall clock, so runs are exactly reproducible.
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Frontier shards (= concurrent owners when nothing fails).
    pub shards: usize,
    /// Maximum workers live at once; shards beyond this wait for a slot,
    /// and the spare slots are the standby pool re-leases draw from.
    pub worker_slots: usize,
    /// Records per spilled segment file.
    pub segment_sites: usize,
    /// Simulated ms per scheduling tick (one record per healthy worker).
    pub tick_ms: u64,
    /// Owners refresh their lease at this cadence.
    pub heartbeat_ms: u64,
    /// A lease whose heartbeat is older than this has lost its owner:
    /// expire it and re-lease the shard.
    pub lease_ttl_ms: u64,
    /// Straggler speculation policy.
    pub speculation: SpeculationPolicy,
    /// Livelock valve: a shard needing more than this many epochs fails
    /// the crawl instead of re-leasing forever.
    pub max_epochs_per_shard: u64,
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
            .field("worker_slots", &self.worker_slots)
            .field("segment_sites", &self.segment_sites)
            .field("tick_ms", &self.tick_ms)
            .field("heartbeat_ms", &self.heartbeat_ms)
            .field("lease_ttl_ms", &self.lease_ttl_ms)
            .field("speculation", &self.speculation)
            .field("max_epochs_per_shard", &self.max_epochs_per_shard)
            .finish_non_exhaustive()
    }
}

impl SupervisorConfig {
    /// Defaults for `shards` shards: one standby slot, 64-record
    /// segments, heartbeat every 5 ticks, expiry after ~3 missed beats,
    /// speculation after 6 quiet ticks.
    pub fn new(shards: usize) -> SupervisorConfig {
        SupervisorConfig {
            shards: shards.max(1),
            worker_slots: shards.max(1) + 1,
            segment_sites: 64,
            tick_ms: 100,
            heartbeat_ms: 500,
            lease_ttl_ms: 1600,
            speculation: SpeculationPolicy::Race {
                after_quiet_ticks: 6,
            },
            max_epochs_per_shard: 32,
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

/// One simulated shard-worker "process".
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
    acquired_ms: u64,
    last_heartbeat_ms: u64,
    last_progress_tick: u64,
    stalled: bool,
    dead: bool,
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
/// [`SegmentWriter`], and heartbeats its lease on simulated time.
///
/// Errors on real spill I/O failures or when a shard exceeds
/// [`SupervisorConfig::max_epochs_per_shard`] (supervision livelock —
/// only reachable with a fault script that kills every epoch).
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
    let frontier_index: BTreeMap<&Url, usize> =
        frontier.iter().enumerate().map(|(i, u)| (u, i)).collect();
    let shards = sup.shards.max(1);
    let slots = sup.worker_slots.max(1);
    let label = config.label.clone();
    let trace = sup.trace.as_ref();

    let mut report = SupervisionReport {
        shards,
        ..SupervisionReport::default()
    };
    let mut workers: Vec<Worker> = Vec::new();
    let mut shard_epoch: Vec<u64> = vec![0; shards];
    let mut shard_complete: Vec<bool> = vec![false; shards];
    let mut expired_epochs: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut crawl_counts: Vec<u32> = vec![0; frontier.len()];
    let mut next_worker_id = 0usize;
    let mut now_ms = 0u64;
    let mut tick = 0u64;
    // Generous valve: epochs are the real livelock guard, this only
    // catches a supervisor bug outright.
    let tick_cap = (frontier.len() as u64 + 64) * 64 * sup.max_epochs_per_shard.max(1) + 10_000;

    // Launches a worker on `shard` at the next epoch, resuming from the
    // durable frontier. Returns None when the shard turns out to be
    // durably complete already.
    #[allow(clippy::too_many_arguments)]
    fn launch<'a>(
        network: &'a Network,
        frontier: &'a [Url],
        config: &'a CrawlConfig,
        caches: &'a canvassing_browser::CrawlCaches,
        plan: Option<&'a BreakerPlan>,
        dir: &Path,
        sup: &SupervisorConfig,
        frontier_index: &BTreeMap<&Url, usize>,
        shard: usize,
        epoch: u64,
        id: usize,
        speculative: bool,
        fault: Option<WorkerFault>,
        duplicate_after: Option<usize>,
        now_ms: u64,
        tick: u64,
    ) -> io::Result<Option<Worker<'a>>> {
        let range = shard_range(frontier.len(), shard, sup.shards.max(1));
        let covered = durable_coverage(dir, shard, frontier_index)?;
        let Some(next_index) = (range.start..range.end).find(|i| !covered.contains(i)) else {
            return Ok(None);
        };
        write_lease(
            dir,
            &Lease {
                shard,
                epoch,
                worker: id,
                acquired_ms: now_ms,
                heartbeat_ms: now_ms,
                progress: covered.len(),
                speculative,
                released: false,
            },
        )?;
        let mut writer = SegmentWriter::create(
            dir,
            &config.label,
            &config.device.id,
            shard,
            sup.segment_sites,
        )?
        .with_epoch(epoch);
        if let Some(sink) = &sup.trace {
            writer = writer.with_trace(Arc::clone(sink));
        }
        Ok(Some(Worker {
            id,
            shard,
            epoch,
            speculative,
            crawler: SiteCrawler::new(network, frontier, config, caches, plan),
            writer: Some(writer),
            next_index,
            end_index: range.end,
            records_done: 0,
            fault,
            duplicate_after,
            spawn_tick: tick,
            acquired_ms: now_ms,
            last_heartbeat_ms: now_ms,
            last_progress_tick: tick,
            stalled: false,
            dead: false,
        }))
    }

    while !shard_complete.iter().all(|&c| c) {
        tick += 1;
        now_ms += sup.tick_ms;
        if tick > tick_cap {
            return Err(io::Error::other(format!(
                "supervisor exceeded its tick budget ({tick_cap}) — supervision livelock"
            )));
        }

        // 1. Expiry scan: a lease whose heartbeat went stale has lost
        // its owner (a hung process); kill our simulation of it so the
        // launch scan re-leases the shard.
        for (shard, complete) in shard_complete.iter().enumerate() {
            if *complete {
                continue;
            }
            let Some(lease) = read_lease(dir, shard)? else {
                continue;
            };
            if lease.released
                || now_ms.saturating_sub(lease.heartbeat_ms) <= sup.lease_ttl_ms
                || !expired_epochs.insert((shard, lease.epoch))
            {
                continue;
            }
            emit_spill_instant(trace, &label, "lease.expire", || {
                format!(
                    "shard={shard} epoch={} last heartbeat {}ms ago",
                    lease.epoch,
                    now_ms - lease.heartbeat_ms
                )
            });
            report.leases_expired += 1;
            for w in workers.iter_mut() {
                if w.shard == shard && w.epoch == lease.epoch && !w.dead {
                    w.dead = true;
                    w.writer = None;
                }
            }
        }
        workers.retain(|w| !w.dead);

        // 2. Launch scan: every incomplete, ownerless shard gets a
        // standby worker at the next epoch, resuming from disk.
        for shard in 0..shards {
            if shard_complete[shard]
                || workers.iter().any(|w| w.shard == shard)
                || workers.len() >= slots
            {
                continue;
            }
            let epoch = shard_epoch[shard] + 1;
            if epoch > sup.max_epochs_per_shard {
                return Err(io::Error::other(format!(
                    "shard {shard} exceeded {} epochs — supervision livelock",
                    sup.max_epochs_per_shard
                )));
            }
            let id = next_worker_id;
            let fault = faults.fault_for(shard, epoch);
            let duplicate_after = (epoch == 1)
                .then(|| faults.duplicates.get(&shard).copied())
                .flatten();
            match launch(
                network,
                frontier,
                config,
                &caches,
                plan.as_ref(),
                dir,
                sup,
                &frontier_index,
                shard,
                epoch,
                id,
                false,
                fault,
                duplicate_after,
                now_ms,
                tick,
            )? {
                Some(worker) => {
                    shard_epoch[shard] = epoch;
                    next_worker_id += 1;
                    emit_spill_instant(trace, &label, "lease.acquire", || {
                        format!("shard={shard} epoch={epoch} worker={id}")
                    });
                    if epoch > 1 {
                        emit_spill_instant(trace, &label, "worker.restart", || {
                            format!("shard={shard} epoch={epoch} worker={id}")
                        });
                        report.re_leases += 1;
                    }
                    report.workers_launched += 1;
                    workers.push(worker);
                }
                None => {
                    // The previous owner durably finished the range but
                    // died before releasing; nothing left to do.
                    shard_complete[shard] = true;
                }
            }
        }

        // 3. Work step: each live worker crawls (at its rate), spills,
        // heartbeats, and applies its scripted fault.
        let mut pending_duplicates: Vec<usize> = Vec::new();
        for wi in 0..workers.len() {
            if workers[wi].dead || shard_complete[workers[wi].shard] {
                continue;
            }
            let (shard, epoch, id) = (workers[wi].shard, workers[wi].epoch, workers[wi].id);

            // A hung process: no work, and crucially no heartbeats.
            if let Some(WorkerFault::Stall { after_records }) = workers[wi].fault {
                if workers[wi].records_done >= after_records {
                    if !workers[wi].stalled {
                        workers[wi].stalled = true;
                        emit_spill_instant(trace, &label, "worker.stall", || {
                            format!("shard={shard} epoch={epoch} worker={id}")
                        });
                    }
                    continue;
                }
            }

            // Heartbeat — and with it, the fence check: the lease file
            // is the one source of truth about ownership.
            if now_ms.saturating_sub(workers[wi].last_heartbeat_ms) >= sup.heartbeat_ms {
                match read_lease(dir, shard)? {
                    Some(l) if l.epoch != epoch => {
                        if l.speculative {
                            // Outraced, not revoked: keep crawling, stop
                            // touching the lease (it is the racer's now).
                            workers[wi].last_heartbeat_ms = now_ms;
                        } else {
                            emit_spill_instant(trace, &label, "worker.fenced", || {
                                format!(
                                    "shard={shard} epoch={epoch} worker={id} fenced by epoch {}",
                                    l.epoch
                                )
                            });
                            report.workers_fenced += 1;
                            workers[wi].dead = true;
                            workers[wi].writer = None;
                            continue;
                        }
                    }
                    _ => {
                        write_lease(
                            dir,
                            &Lease {
                                shard,
                                epoch,
                                worker: id,
                                acquired_ms: workers[wi].acquired_ms,
                                heartbeat_ms: now_ms,
                                progress: workers[wi].records_done,
                                speculative: workers[wi].speculative,
                                released: false,
                            },
                        )?;
                        workers[wi].last_heartbeat_ms = now_ms;
                    }
                }
            }

            // Work-rate gate: stragglers crawl once per `period` ticks.
            if let Some(WorkerFault::Straggle { period }) = workers[wi].fault {
                if !(tick - workers[wi].spawn_tick).is_multiple_of(period.max(1)) {
                    continue;
                }
            }

            if matches!(workers[wi].fault, Some(WorkerFault::CrashBeforeFirstSpill)) {
                emit_spill_instant(trace, &label, "worker.crash", || {
                    format!("shard={shard} epoch={epoch} worker={id} before first spill")
                });
                report.workers_crashed += 1;
                workers[wi].dead = true;
                workers[wi].writer = None;
                continue;
            }

            let index = workers[wi].next_index;
            let record = workers[wi].crawler.visit(index);
            crawl_counts[index] += 1;
            report.records_crawled += 1;

            if let Some(WorkerFault::CrashAtRecord(k)) = workers[wi].fault {
                if workers[wi].records_done == k {
                    if let Some(writer) = workers[wi].writer.as_mut() {
                        writer.crash(&record)?;
                    }
                    emit_spill_instant(trace, &label, "worker.crash", || {
                        format!("shard={shard} epoch={epoch} worker={id} torn tail at record {k}")
                    });
                    report.workers_crashed += 1;
                    workers[wi].dead = true;
                    workers[wi].writer = None;
                    continue;
                }
            }

            if let Some(writer) = workers[wi].writer.as_mut() {
                writer.append(&record)?;
            }
            workers[wi].records_done += 1;
            workers[wi].next_index += 1;
            workers[wi].last_progress_tick = tick;

            if workers[wi].duplicate_after == Some(workers[wi].records_done) {
                workers[wi].duplicate_after = None;
                pending_duplicates.push(shard);
            }

            if workers[wi].next_index >= workers[wi].end_index {
                // Shard complete: seal, release the lease at our epoch
                // (winning any race), and cancel the losers.
                if let Some(writer) = workers[wi].writer.take() {
                    writer.finish()?;
                }
                write_lease(
                    dir,
                    &Lease {
                        shard,
                        epoch,
                        worker: id,
                        acquired_ms: workers[wi].acquired_ms,
                        heartbeat_ms: now_ms,
                        progress: workers[wi].records_done,
                        speculative: workers[wi].speculative,
                        released: true,
                    },
                )?;
                emit_spill_instant(trace, &label, "lease.release", || {
                    format!("shard={shard} epoch={epoch} worker={id}")
                });
                shard_complete[shard] = true;
                workers[wi].dead = true;
                for (wj, w) in workers.iter_mut().enumerate() {
                    if wj != wi && w.shard == shard && !w.dead {
                        let loser = w.id;
                        emit_spill_instant(trace, &label, "worker.cancel", || {
                            format!("shard={shard} worker={loser} lost the race")
                        });
                        report.workers_cancelled += 1;
                        w.dead = true;
                        w.writer = None;
                    }
                }
            }
        }

        // 3b. Duplicate launches scripted against this tick's spills:
        // the new worker *steals* the live lease (next epoch) — the
        // original discovers the fence at its next heartbeat.
        for shard in pending_duplicates {
            if shard_complete[shard] {
                continue;
            }
            let epoch = shard_epoch[shard] + 1;
            if epoch > sup.max_epochs_per_shard {
                return Err(io::Error::other(format!(
                    "shard {shard} exceeded {} epochs — supervision livelock",
                    sup.max_epochs_per_shard
                )));
            }
            let id = next_worker_id;
            if let Some(worker) = launch(
                network,
                frontier,
                config,
                &caches,
                plan.as_ref(),
                dir,
                sup,
                &frontier_index,
                shard,
                epoch,
                id,
                false,
                faults.fault_for(shard, epoch),
                None,
                now_ms,
                tick,
            )? {
                shard_epoch[shard] = epoch;
                next_worker_id += 1;
                emit_spill_instant(trace, &label, "lease.steal", || {
                    format!("shard={shard} epoch={epoch} worker={id} duplicate launch")
                });
                report.leases_stolen += 1;
                report.workers_launched += 1;
                workers.push(worker);
            }
        }
        workers.retain(|w| !w.dead);

        // 4. Speculation scan: race a second owner on the slowest live,
        // heartbeating-but-quiet shard.
        if let SpeculationPolicy::Race { after_quiet_ticks } = sup.speculation {
            let mut target: Option<(usize, usize)> = None; // (remaining, shard)
            for w in &workers {
                if w.dead
                    || w.speculative
                    || w.stalled
                    || shard_complete[w.shard]
                    || tick - w.last_progress_tick < after_quiet_ticks
                    || workers
                        .iter()
                        .any(|o| o.shard == w.shard && o.speculative && !o.dead)
                {
                    continue;
                }
                let remaining = w.end_index.saturating_sub(w.next_index);
                if remaining == 0 {
                    continue;
                }
                let better = match target {
                    None => true,
                    Some((best, shard)) => {
                        remaining > best || (remaining == best && w.shard < shard)
                    }
                };
                if better {
                    target = Some((remaining, w.shard));
                }
            }
            if let Some((_, shard)) = target {
                let epoch = shard_epoch[shard] + 1;
                if workers.len() < slots && epoch <= sup.max_epochs_per_shard {
                    let id = next_worker_id;
                    if let Some(worker) = launch(
                        network,
                        frontier,
                        config,
                        &caches,
                        plan.as_ref(),
                        dir,
                        sup,
                        &frontier_index,
                        shard,
                        epoch,
                        id,
                        true,
                        faults.fault_for(shard, epoch),
                        None,
                        now_ms,
                        tick,
                    )? {
                        shard_epoch[shard] = epoch;
                        next_worker_id += 1;
                        emit_spill_instant(trace, &label, "straggler.speculate", || {
                            format!("shard={shard} epoch={epoch} worker={id} racing the straggler")
                        });
                        emit_spill_instant(trace, &label, "lease.steal", || {
                            format!("shard={shard} epoch={epoch} worker={id} speculative")
                        });
                        report.speculative_launches += 1;
                        report.leases_stolen += 1;
                        report.workers_launched += 1;
                        workers.push(worker);
                    }
                }
            }
        }
    }

    let (dataset, merge) = merge_supervised(network, frontier, config, dir, trace)?;
    report.records_redone = crawl_counts
        .iter()
        .map(|&c| c.saturating_sub(1) as usize)
        .sum();
    report.max_epoch = shard_epoch.iter().copied().max().unwrap_or(0);
    report.sim_ms = now_ms;
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
