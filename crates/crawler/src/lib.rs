//! # canvassing-crawler
//!
//! The crawl harness: drives a fleet of [`Browser`] workers across a site
//! frontier and collects per-site records, mirroring the paper's crawls
//! (§3.1): one configuration per crawl (device profile, optional ad-block
//! extension, optional canvas defense), every site visited once, failures
//! recorded rather than retried away.
//!
//! Every whole-frontier crawl runs through one loop, [`crawl_streamed`]:
//! it cuts the frontier into chunks and hands each chunk to a
//! shared-queue scheduler, one atomic cursor that every worker claims
//! jobs from (lock-free work sharing), so a latency-spiked host delays
//! only the worker that is on it — the rest of the fleet drains the
//! remaining chunk. Records reach the caller's sink in frontier order;
//! [`crawl`] collects them into a [`CrawlDataset`], streaming callers
//! fold them as they arrive. Two paths visit sites outside that loop:
//! [`resume_crawl`] hands its non-contiguous todo indices straight to the
//! chunk scheduler, and the shard supervisor ([`supervise_crawl`]), the
//! only code that shards a frontier or spills records to disk, visits
//! one site at a time through [`SiteCrawler`]. Each
//! [`SiteRecord`] is a pure function of `(network, url, config)`, so
//! datasets are byte-identical regardless of scheduling, chunk size or
//! worker count. Workers share a [`CrawlCaches`] (compiled-script cache
//! and render memo, see [`CachingPolicy`]); caching preserves
//! byte-identity by construction and is reported through [`CrawlStats`].
//! Robustness features on top of that baseline:
//!
//! * **Typed failures** — every failed site carries a
//!   [`FailureKind`] instead of a free-form string, so analyses can build
//!   per-kind breakdown tables.
//! * **Retry policy** — transient kinds (and only those) can be retried
//!   with deterministic bounded backoff; the default of zero retries
//!   preserves the paper's visit-once semantics.
//! * **Panic isolation** — a panicking visit (a crashing worker) becomes a
//!   [`FailureKind::WorkerPanic`] record instead of taking the crawl down.
//! * **Checkpoint/resume** — [`resume_crawl`] skips sites already present
//!   in a partial dataset and merges to the exact dataset a single
//!   uninterrupted crawl would have produced; the [`checkpoint`] module
//!   adds the on-disk form (CRC-framed records, torn-write recovery,
//!   atomic snapshots), which survives process death but not power loss:
//!   no write path calls `fsync`.
//! * **Circuit breakers** — opt-in per-host breakers ([`BreakerPolicy`])
//!   short-circuit visits to hosts that keep failing; state is planned
//!   deterministically ([`BreakerPlan`]) so the dataset stays
//!   byte-identical across worker counts.
//! * **Partial-visit salvage** — visits that die mid-pipeline keep the
//!   evidence gathered before death; every record carries a
//!   [`dataset::VisitFidelity`] tier so estimators can state exactly what
//!   they condition on.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod checkpoint;
pub mod dataset;
pub mod segment;
pub mod supervisor;

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use canvassing_browser::{
    AdBlockerKind, Browser, CrawlCaches, DefenseMode, Extension, PageVisit, RenderMemo,
    ScriptCache, VisitPolicy,
};
use canvassing_net::{Network, Url};
use canvassing_raster::{DeviceProfile, SurfacePool};
use canvassing_trace::{TraceSink, VisitRecorder, VisitTrace};
use serde::{Deserialize, Serialize};

pub use breaker::{BreakerEvent, BreakerHostStats, BreakerPlan, BreakerPolicy};
pub use checkpoint::{recover, save_atomic, CheckpointWriter, RecoveryReport};
pub use dataset::{CrawlDataset, FailureKind, SiteFailure, SiteOutcome, SiteRecord, VisitFidelity};
pub use segment::{MergeReport, SegmentWriter};
pub use supervisor::{
    lease_path, list_supervised_segments, merge_supervised, read_lease, supervise_crawl,
    FaultScript, Lease, SpeculationPolicy, SupervisionReport, SupervisorConfig, WorkerFault,
};

/// Retry behavior for transient failures. Backoff is computed, not slept:
/// the network simulates latency, so the harness records the schedule a
/// real crawler would follow without wall-clock waiting — keeping crawls
/// deterministic and fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 = visit once, the
    /// paper's §3.1 semantics).
    pub max_retries: u32,
    /// Base backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff interval.
    pub backoff_cap_ms: u64,
    /// Also retry [`FailureKind::Timeout`] failures (latency spikes that
    /// blew the visit deadline). Off by default: the paper visits each
    /// site once, and a slow site is usually still slow on the next
    /// attempt — enable only for hosts known to spike transiently (the
    /// [`canvassing_net::Fault::SlowStart`] shape).
    pub retry_timeouts: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: every site is visited exactly once.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_base_ms: 250,
            backoff_cap_ms: 4_000,
            retry_timeouts: false,
        }
    }

    /// Up to `n` retries of transient failures with default backoff.
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::none()
        }
    }

    /// Deterministic exponential backoff before retry number
    /// `attempt + 1` (zero-based attempt that just failed): `base · 2^attempt`,
    /// capped. A product past `u64` saturates to the cap (a plain shift
    /// would drop the high bits).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        1u64.checked_shl(attempt)
            .and_then(|factor| self.backoff_base_ms.checked_mul(factor))
            .map_or(self.backoff_cap_ms, |ms| ms.min(self.backoff_cap_ms))
    }

    /// Whether a failure of this kind is eligible for another attempt
    /// under this policy (the attempt budget is checked separately).
    pub fn should_retry(&self, kind: FailureKind) -> bool {
        kind.is_transient() || (self.retry_timeouts && kind == FailureKind::Timeout)
    }
}

/// Whether a crawl uses the cross-visit cache layers: the shared
/// compiled-script cache (each unique body is lexed/parsed once per
/// crawl), the shared render memo (each unique body × device renders
/// once; replays bypass active defenses), and a per-worker canvas
/// pixel-buffer pool. The layers switch together. All of them preserve
/// the byte-identical dataset guarantee (recycled buffers are zeroed;
/// memo replay is exact record relocation; parsing is referentially
/// transparent), so this is purely a throughput knob — `disabled()`
/// exists for baselines and A/B determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachingPolicy {
    enabled: bool,
}

impl Default for CachingPolicy {
    /// Everything on — the production configuration.
    fn default() -> CachingPolicy {
        CachingPolicy { enabled: true }
    }
}

impl CachingPolicy {
    /// No caching: every visit lexes, parses, renders, and allocates from
    /// scratch (the pre-cache baseline).
    pub fn disabled() -> CachingPolicy {
        CachingPolicy { enabled: false }
    }
}

/// Configuration for one crawl run. Every crawl executes scripts on the
/// bytecode VM; the tree-walking interpreter is not selectable here and
/// serves only as the test oracle the VM is checked against
/// (`tests/engine_identity.rs`).
pub struct CrawlConfig {
    /// Human-readable label, e.g. `"control"`, `"adblock-plus"`.
    pub label: String,
    /// Worker threads.
    pub workers: usize,
    /// Rendering device for every worker (a crawl uses one machine, §3.1).
    pub device: DeviceProfile,
    /// Installed ad blocker, with the EasyList text it loads.
    pub adblocker: Option<(AdBlockerKind, String)>,
    /// Canvas read-back defense.
    pub defense: DefenseMode,
    /// Whether workers pass bot gates (true for the paper's crawler).
    pub passes_bot_checks: bool,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-visit deadline / fuel limits.
    pub policy: VisitPolicy,
    /// Catch panics inside a worker's visit and degrade them to
    /// [`FailureKind::WorkerPanic`] records. On by default; disable only
    /// to test the harness's own behavior when a worker thread dies.
    pub isolate_panics: bool,
    /// Cross-visit cache layers (throughput only; never changes records).
    pub caching: CachingPolicy,
    /// Per-host circuit breakers (off by default; see [`BreakerPolicy`]).
    pub breakers: BreakerPolicy,
    /// Keep partial evidence from visits that die mid-pipeline, attached
    /// to the failure record ([`SiteFailure::salvage`]). On by default:
    /// salvage only adds fields to failure records, never changes
    /// success records, and `salvage: false` reproduces the pre-salvage
    /// datasets byte for byte.
    pub salvage: bool,
    /// Where finished per-visit traces go. `None` (the default) or a sink
    /// whose `enabled()` is false means visits run with disabled recorders
    /// — the near-zero-overhead path. Traces are delivered to the sink in
    /// frontier order from one thread after all workers join, so the sink
    /// observes a deterministic stream whatever the worker count.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl CrawlConfig {
    /// The paper's control configuration on the Intel/Ubuntu machine.
    pub fn control() -> CrawlConfig {
        CrawlConfig {
            label: "control".into(),
            workers: 8,
            device: DeviceProfile::intel_ubuntu(),
            adblocker: None,
            defense: DefenseMode::None,
            passes_bot_checks: true,
            retry: RetryPolicy::none(),
            policy: VisitPolicy::default(),
            isolate_panics: true,
            caching: CachingPolicy::default(),
            breakers: BreakerPolicy::disabled(),
            salvage: true,
            trace: None,
        }
    }

    /// Whether visits should record traces (a sink is set and enabled).
    fn trace_enabled(&self) -> bool {
        self.trace.as_ref().is_some_and(|s| s.enabled())
    }

    /// Control configuration with a different device (the M1 validation
    /// crawl).
    pub fn with_device(device: DeviceProfile) -> CrawlConfig {
        CrawlConfig {
            label: format!("control-{}", device.id),
            device,
            ..CrawlConfig::control()
        }
    }

    /// Configuration with an ad blocker installed (Table 2 re-crawls).
    pub fn with_adblocker(kind: AdBlockerKind, easylist: &str) -> CrawlConfig {
        CrawlConfig {
            label: kind.name().to_ascii_lowercase().replace(' ', "-"),
            adblocker: Some((kind, easylist.to_string())),
            ..CrawlConfig::control()
        }
    }

    fn build_browser(&self, caches: CrawlCaches) -> Browser {
        let mut browser = Browser::new(self.device.clone());
        browser.defense = self.defense;
        browser.passes_bot_checks = self.passes_bot_checks;
        browser.policy = self.policy;
        browser.caches = caches;
        if let Some((kind, list)) = &self.adblocker {
            browser.extension = Some(Extension::new(*kind, list));
        }
        browser
    }

    /// Builds the crawl-wide shared caches this config calls for. The
    /// buffer pool is deliberately absent here — pools are per-worker
    /// (see `CrawlConfig::worker_caches`) so workers recycle without
    /// contending.
    pub fn build_caches(&self) -> CrawlCaches {
        let enabled = self.caching.enabled;
        CrawlCaches {
            scripts: enabled.then(|| Arc::new(ScriptCache::new())),
            memo: enabled.then(|| Arc::new(RenderMemo::new())),
            pool: None,
            // Static triage is always on — it is part of the recorded
            // dataset, not a cache layer, so `CachingPolicy` cannot turn
            // it off (which would change what the crawler records).
            analysis: Arc::new(Default::default()),
            perf: Arc::new(Default::default()),
            metrics: Arc::new(Default::default()),
        }
    }

    /// The cache handle one worker gets: the shared layers plus (when
    /// enabled) a private buffer pool.
    fn worker_caches(&self, shared: &CrawlCaches) -> CrawlCaches {
        let mut caches = shared.clone();
        caches.pool = self.caching.enabled.then(|| Arc::new(SurfacePool::new()));
        caches
    }
}

/// Visits one site under the config's retry, breaker, salvage, and
/// isolation policy. Pure in `(network, url, config, plan, index)`: the
/// record — and, when tracing, the visit's event stream — does not depend
/// on which worker runs it or when. The breaker plan is itself a pure
/// function of `(network, frontier, config)`, so the invariant that makes
/// datasets byte-identical across worker counts and checkpoint/resume
/// boundaries survives breakers too.
///
/// All attempts of one site share one recorder (retries appear as
/// `visit.retry` instants in the same trace), and the visit's final
/// disposition lands as a `visit.outcome` instant. Breaker transitions
/// attributed to this frontier slot are emitted as `breaker.*` instants
/// just before the outcome.
fn visit_site(
    network: &Network,
    browser: &Browser,
    url: &Url,
    config: &CrawlConfig,
    caches: &CrawlCaches,
    plan: Option<&BreakerPlan>,
    index: usize,
) -> (SiteRecord, Option<VisitTrace>) {
    let rec = if config.trace_enabled() {
        VisitRecorder::new(&url.to_string(), Some(Arc::clone(&caches.metrics)))
    } else {
        VisitRecorder::disabled()
    };
    let no_open = BTreeSet::new();
    let open_hosts = plan.and_then(|p| p.open_hosts(index)).unwrap_or(&no_open);
    let mut attempt: u32 = 0;
    let outcome = loop {
        let result = if config.isolate_panics {
            match catch_unwind(AssertUnwindSafe(|| {
                browser.visit_supervised(network, url, attempt, &rec, open_hosts)
            })) {
                Ok(r) => r,
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    rec.instant("visit.panic", || msg.to_string());
                    break SiteOutcome::Failure(SiteFailure {
                        kind: FailureKind::WorkerPanic,
                        error: format!("worker panicked: {msg}"),
                        attempts: attempt + 1,
                        salvage: None,
                    });
                }
            }
        } else {
            browser.visit_supervised(network, url, attempt, &rec, open_hosts)
        };
        match result {
            Ok(visit) => break SiteOutcome::Success(Box::new(visit)),
            Err(abort) => {
                let mut failure = SiteFailure::from_visit_error(&abort.error, attempt + 1);
                if config.retry.should_retry(failure.kind) && attempt < config.retry.max_retries {
                    // Bounded deterministic backoff; the interval is part
                    // of the schedule, not a real sleep (simulated time).
                    // Partial evidence from a retried attempt is dropped:
                    // only the final attempt's salvage describes the site.
                    let backoff = config.retry.backoff_ms(attempt);
                    rec.instant("visit.retry", || {
                        format!("{} (backoff {backoff}ms)", failure.kind.as_str())
                    });
                    attempt += 1;
                    continue;
                }
                if config.salvage {
                    failure.salvage = abort.partial;
                    if failure.salvage.is_some() {
                        let fidelity = failure.fidelity();
                        rec.instant("visit.salvage", || fidelity.as_str().to_string());
                    }
                }
                break SiteOutcome::Failure(failure);
            }
        }
    };
    if let Some(plan) = plan {
        for (host, event) in plan.transitions_at(index) {
            rec.instant(event.instant_name(), || host.clone());
        }
    }
    rec.instant("visit.outcome", || match &outcome {
        SiteOutcome::Success(_) => "success".to_string(),
        SiteOutcome::Failure(f) => f.kind.as_str().to_string(),
    });
    rec.bump(match &outcome {
        SiteOutcome::Success(_) => "visit.successes",
        SiteOutcome::Failure(_) => "visit.failures",
    });
    let trace = rec.finish();
    (
        SiteRecord {
            url: url.clone(),
            outcome,
        },
        trace,
    )
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// Cache-efficiency counters for one crawl (or one span of crawls when
/// caches are reused across them). Parses and canonical renders happen
/// exactly once per unique key whatever the worker count or schedule, so
/// totals are deterministic for a given workload.
///
/// Stats ride alongside the dataset, never inside it: `CrawlDataset`
/// serialization stays byte-identical whatever the cache configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlStats {
    /// Sites visited (one record each).
    pub sites: u64,
    /// Script bodies lexed + parsed.
    pub script_parses: u64,
    /// Script bodies lowered to bytecode (unique *executed* bodies —
    /// parse-only triage never compiles, so `script_compiles <=
    /// script_parses`). Engine-independent: cached execution always
    /// attaches bytecode so this count matches between the VM and the
    /// tree-walking oracle.
    pub script_compiles: u64,
    /// Compiled-script cache hits.
    pub script_cache_hits: u64,
    /// Scripts interpreted in place (memo miss, bypass, or memo off).
    pub script_executions: u64,
    /// Scripts satisfied by replaying a memoized render.
    pub memo_hits: u64,
    /// Canonical scratch renders performed for the memo.
    pub memo_computes: u64,
    /// Memo lookups that fell back to in-place execution.
    pub memo_bypasses: u64,
    /// Static triage analyses run (== unique script bodies seen).
    pub static_analyses: u64,
    /// Triage lookups answered from the analysis cache.
    pub analysis_hits: u64,
    /// Visit traces delivered to the configured sink (0 when tracing is
    /// off: no sink, or a sink whose `enabled()` is false).
    pub trace_visits: u64,
    /// Spans across all delivered traces.
    pub trace_spans: u64,
    /// Events (span starts/ends + instants) across all delivered traces.
    pub trace_events: u64,
    /// Circuit-open transitions over the crawl (0 when breakers are off).
    pub breaker_opens: u64,
    /// Host references short-circuited by an open breaker.
    pub breaker_short_circuits: u64,
    /// Failure records that carry salvaged partial evidence.
    pub salvaged_visits: u64,
}

impl CrawlStats {
    /// Reads the current cumulative totals out of a cache handle.
    pub fn snapshot(caches: &CrawlCaches) -> CrawlStats {
        let script = caches
            .scripts
            .as_deref()
            .map(|c| c.stats())
            .unwrap_or_default();
        let perf = caches.perf.snapshot();
        let analysis = caches.analysis.stats();
        CrawlStats {
            sites: 0,
            script_parses: script.parses,
            script_compiles: script.compiles,
            script_cache_hits: script.hits,
            script_executions: perf.script_executions,
            memo_hits: perf.memo_hits,
            memo_computes: perf.memo_computes,
            memo_bypasses: perf.memo_bypasses,
            static_analyses: analysis.analyses,
            analysis_hits: analysis.hits,
            trace_visits: 0,
            trace_spans: 0,
            trace_events: 0,
            breaker_opens: 0,
            breaker_short_circuits: 0,
            salvaged_visits: 0,
        }
    }

    /// Counter movement between two snapshots (for warm-cache spans).
    pub fn since(&self, before: &CrawlStats) -> CrawlStats {
        CrawlStats {
            sites: self.sites - before.sites,
            script_parses: self.script_parses - before.script_parses,
            script_compiles: self.script_compiles - before.script_compiles,
            script_cache_hits: self.script_cache_hits - before.script_cache_hits,
            script_executions: self.script_executions - before.script_executions,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_computes: self.memo_computes - before.memo_computes,
            memo_bypasses: self.memo_bypasses - before.memo_bypasses,
            static_analyses: self.static_analyses - before.static_analyses,
            analysis_hits: self.analysis_hits - before.analysis_hits,
            trace_visits: self.trace_visits - before.trace_visits,
            trace_spans: self.trace_spans - before.trace_spans,
            trace_events: self.trace_events - before.trace_events,
            breaker_opens: self.breaker_opens - before.breaker_opens,
            breaker_short_circuits: self.breaker_short_circuits - before.breaker_short_circuits,
            salvaged_visits: self.salvaged_visits - before.salvaged_visits,
        }
    }

    /// Compiled-script cache hit rate in `[0, 1]`.
    pub fn script_cache_hit_rate(&self) -> f64 {
        let lookups = self.script_parses + self.script_cache_hits;
        if lookups == 0 {
            0.0
        } else {
            self.script_cache_hits as f64 / lookups as f64
        }
    }

    /// Render-memo hit rate in `[0, 1]` over all memo lookups.
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.memo_computes + self.memo_bypasses;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }
}

/// Crawls the frontier, returning one record per frontier URL (in order).
pub fn crawl(network: &Network, frontier: &[Url], config: &CrawlConfig) -> CrawlDataset {
    crawl_with_stats(network, frontier, config).0
}

/// [`crawl`], also returning the cache-efficiency stats for the run.
/// Caches live for this crawl only; use [`crawl_with_caches`] to keep
/// them warm across crawls.
pub fn crawl_with_stats(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
) -> (CrawlDataset, CrawlStats) {
    let caches = config.build_caches();
    crawl_with_caches(network, frontier, config, &caches)
}

/// Crawls with caller-owned caches, so repeated crawls over overlapping
/// workloads (re-crawls, warm benchmark passes) skip work the caches
/// already hold. The returned stats cover only this crawl's span.
///
/// This is [`crawl_streamed`] run as one whole-frontier chunk, with a
/// sink that collects the records.
pub fn crawl_with_caches(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    caches: &CrawlCaches,
) -> (CrawlDataset, CrawlStats) {
    let mut records = Vec::with_capacity(frontier.len());
    let stats = crawl_streamed(
        network,
        frontier,
        config,
        caches,
        frontier.len(),
        |_, record| records.push(record),
    );
    let dataset = CrawlDataset {
        label: config.label.clone(),
        device_id: config.device.id.clone(),
        records,
    };
    (dataset, stats)
}

/// Crawls exactly the frontier indices in `indices`, returning results
/// **densely** (position `j` holds the record for `frontier[indices[j]]`).
/// This is the scheduler core under every crawl entry point: slot
/// storage is sized to the chunk, not the frontier, so
/// [`crawl_streamed`] can drive a million-site frontier through
/// fixed-size chunks.
///
/// Scheduling is one atomic cursor over the chunk: each worker claims
/// the next unclaimed position with a single `fetch_add`. Unlike static
/// sharding, a host serving under a latency-spike fault stalls only the
/// worker currently on it while the rest drain the remaining chunk;
/// unlike a channel feed, claiming is wait-free and results land
/// lock-free in per-position slots (no cross-thread transport).
/// Scheduling freedom never reaches the dataset because every record is a
/// pure per-site function, reassembled in chunk order below. The breaker
/// plan is indexed by *frontier* position (`indices[j]`), so chunked and
/// whole-frontier runs see identical breaker state.
fn crawl_chunk(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    indices: &[usize],
    caches: &CrawlCaches,
    plan: Option<&BreakerPlan>,
) -> (Vec<SiteRecord>, Vec<Option<VisitTrace>>) {
    let workers = config.workers.max(1);
    let cursor = AtomicUsize::new(0);

    // Results go straight into per-position slots instead of through a
    // channel: each slot is written by exactly the worker that claimed
    // its position, so a `OnceLock` per position gives lock-free
    // collection with no cross-thread wakeups (a per-record channel send
    // costs more than a whole memoized visit). The visit's trace rides in
    // the same slot so it inherits the same ownership story.
    let slots: Vec<OnceLock<(SiteRecord, Option<VisitTrace>)>> =
        (0..indices.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let slots = &slots;
                scope.spawn(move || {
                    let browser = config.build_browser(config.worker_caches(caches));
                    loop {
                        let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = indices.get(claimed) else {
                            break;
                        };
                        let result =
                            visit_site(network, &browser, &frontier[i], config, caches, plan, i);
                        let _ = slots[claimed].set(result);
                    }
                })
            })
            .collect();
        // Consume worker panics here (possible only with
        // `isolate_panics: false`): the scope would otherwise re-raise
        // them after implicit joins, killing the whole crawl. A dead
        // worker's claimed-but-unfilled slot degrades to a failure
        // record in the pass below.
        for handle in handles {
            let _ = handle.join();
        }
    });

    let mut records: Vec<SiteRecord> = Vec::with_capacity(indices.len());
    let mut traces: Vec<Option<VisitTrace>> = Vec::with_capacity(indices.len());
    for (j, slot) in slots.into_iter().enumerate() {
        match slot.into_inner() {
            Some((record, trace)) => {
                records.push(record);
                traces.push(trace);
            }
            None => {
                // A worker that died mid-visit never filled the slot for
                // the position it had claimed; degrade to a typed failure
                // instead of panicking the harness.
                records.push(lost_record(&frontier[indices[j]]));
                traces.push(None);
            }
        }
    }
    (records, traces)
}

/// The contiguous frontier range owned by shard `shard` of `count`:
/// `[shard·len/count, (shard+1)·len/count)`. The ranges partition
/// `0..len` exactly, so the supervisor's shard owners
/// ([`supervise_crawl`]) cover every site once.
pub fn shard_range(len: usize, shard: usize, count: usize) -> std::ops::Range<usize> {
    let count = count.max(1);
    debug_assert!(shard < count, "shard {shard} out of {count}");
    (shard * len / count)..((shard + 1) * len / count)
}

/// Streams a crawl over the whole frontier in bounded chunks of
/// `chunk_sites`, delivering each record to `sink` as
/// `(frontier_index, record)` in frontier order — records are **not**
/// materialized into a dataset, so peak memory is O(chunk), independent
/// of frontier length. This is the one chunked crawl loop:
/// [`crawl_with_caches`] runs it as a single chunk with a collecting
/// sink, and the study folds each cohort through it.
///
/// Determinism contract:
///
/// * the breaker plan is computed over the full frontier, so chunk
///   boundaries never reach breaker state;
/// * each record is a pure function of `(network, url, config)`, so the
///   delivered stream is byte-identical at any worker count and chunk
///   size;
/// * traces flush to `config.trace` per chunk, in frontier order, from
///   the calling thread — the sink sees the exact stream a single-chunk
///   crawl delivers.
///
/// The returned stats count the records delivered (`sites ==
/// frontier.len()`), with cache counters measured across the chunks as
/// one span and the breaker plan's whole-frontier totals.
pub fn crawl_streamed(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    caches: &CrawlCaches,
    chunk_sites: usize,
    mut sink: impl FnMut(usize, SiteRecord),
) -> CrawlStats {
    let before = CrawlStats::snapshot(caches);
    let plan = BreakerPlan::plan(network, frontier, config);
    let chunk = chunk_sites.max(1);
    let mut trace_totals = (0u64, 0u64, 0u64);
    let mut salvaged = 0u64;
    let mut start = 0;
    while start < frontier.len() {
        let end = (start + chunk).min(frontier.len());
        let indices: Vec<usize> = (start..end).collect();
        let (records, traces) =
            crawl_chunk(network, frontier, config, &indices, caches, plan.as_ref());
        let (v, s, e) = flush_traces(config, traces);
        trace_totals.0 += v;
        trace_totals.1 += s;
        trace_totals.2 += e;
        for (offset, record) in records.into_iter().enumerate() {
            if matches!(&record.outcome, SiteOutcome::Failure(f) if f.salvage.is_some()) {
                salvaged += 1;
            }
            sink(start + offset, record);
        }
        start = end;
    }
    let mut stats = CrawlStats::snapshot(caches).since(&before);
    stats.sites = frontier.len() as u64;
    (stats.trace_visits, stats.trace_spans, stats.trace_events) = trace_totals;
    if let Some(plan) = &plan {
        stats.breaker_opens = plan.total_opens();
        stats.breaker_short_circuits = plan.total_short_circuits();
    }
    stats.salvaged_visits = salvaged;
    stats
}

/// Delivers finished visit traces to the configured sink, in frontier
/// order, from the calling thread after every worker has joined — the
/// sink therefore observes one deterministic stream whatever the worker
/// count or claim schedule. Returns `(visits, spans, events)` delivered.
fn flush_traces(config: &CrawlConfig, traces: Vec<Option<VisitTrace>>) -> (u64, u64, u64) {
    let Some(sink) = config.trace.as_ref().filter(|s| s.enabled()) else {
        return (0, 0, 0);
    };
    let (mut visits, mut spans, mut events) = (0u64, 0u64, 0u64);
    for trace in traces.into_iter().flatten() {
        visits += 1;
        spans += trace.span_count();
        events += trace.events.len() as u64;
        sink.consume(trace);
    }
    (visits, spans, events)
}

fn lost_record(url: &Url) -> SiteRecord {
    SiteRecord {
        url: url.clone(),
        outcome: SiteOutcome::Failure(SiteFailure {
            kind: FailureKind::WorkerPanic,
            error: "worker died before reporting a record".into(),
            attempts: 0,
            salvage: None,
        }),
    }
}

/// Resumes a crawl from a checkpoint: sites already recorded in
/// `checkpoint` are skipped, the rest are crawled, and the merged dataset
/// comes back in frontier order. Because records are pure functions of
/// `(url, config, network)`, the merge is byte-identical to the dataset a
/// single uninterrupted [`crawl`] would have produced, whatever order or
/// subset of the frontier the checkpoint holds.
pub fn resume_crawl(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    checkpoint: &CrawlDataset,
) -> CrawlDataset {
    let done: std::collections::BTreeMap<&Url, &SiteRecord> =
        checkpoint.records.iter().map(|r| (&r.url, r)).collect();
    let todo: Vec<usize> = (0..frontier.len())
        .filter(|&i| !done.contains_key(&frontier[i]))
        .collect();
    let caches = config.build_caches();
    // The plan is computed over the FULL frontier, not the todo subset:
    // breaker state must be the same whether the crawl ran uninterrupted
    // or resumed — that is what keeps the merged dataset byte-identical.
    let plan = BreakerPlan::plan(network, frontier, config);
    let (fresh, traces) = crawl_chunk(network, frontier, config, &todo, &caches, plan.as_ref());
    let _ = flush_traces(config, traces);
    // `fresh` holds the todo sites in frontier order, so one walk over
    // the frontier interleaves it with the checkpoint.
    let mut fresh = fresh.into_iter();
    let records = frontier
        .iter()
        .filter_map(|url| match done.get(url) {
            Some(&record) => Some(record.clone()),
            None => fresh.next(),
        })
        .collect();
    CrawlDataset {
        label: config.label.clone(),
        device_id: config.device.id.clone(),
        records,
    }
}

/// One shard worker's crawl handle: a browser plus the shared caches and
/// the full-frontier breaker plan, visiting a single site per call.
///
/// This is the execution core the supervisor ([`supervisor`]) gives each
/// simulated worker process. [`SiteCrawler::visit`] has the same purity
/// contract as every other crawl entry point — the record is a function
/// of `(network, url, config)` with breaker state planned over the
/// *full* frontier — so first, re-leased, and speculative executions of
/// the same site all produce byte-identical records, which is what makes
/// duplicate-dropping at merge time safe.
pub struct SiteCrawler<'a> {
    network: &'a Network,
    frontier: &'a [Url],
    config: &'a CrawlConfig,
    caches: &'a CrawlCaches,
    plan: Option<&'a BreakerPlan>,
    browser: Browser,
}

impl std::fmt::Debug for SiteCrawler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteCrawler")
            .field("frontier", &self.frontier.len())
            .field("label", &self.config.label)
            .finish_non_exhaustive()
    }
}

impl<'a> SiteCrawler<'a> {
    /// Builds one worker's crawler over shared caches and a breaker plan
    /// that **must** have been computed over the full `frontier` (pass
    /// [`BreakerPlan::plan`]'s result, or `None` when breakers are off).
    pub fn new(
        network: &'a Network,
        frontier: &'a [Url],
        config: &'a CrawlConfig,
        caches: &'a CrawlCaches,
        plan: Option<&'a BreakerPlan>,
    ) -> SiteCrawler<'a> {
        let browser = config.build_browser(config.worker_caches(caches));
        SiteCrawler {
            network,
            frontier,
            config,
            caches,
            plan,
            browser,
        }
    }

    /// Visits `frontier[index]` and returns its record. Traces are
    /// dropped: supervised workers report durably through segments, not
    /// through the crawl's trace sink.
    pub fn visit(&self, index: usize) -> SiteRecord {
        let (record, _trace) = visit_site(
            self.network,
            &self.browser,
            &self.frontier[index],
            self.config,
            self.caches,
            self.plan,
            index,
        );
        record
    }
}

/// Convenience: visits a single page with a one-off browser (used by the
/// attribution engine's demo/customer crawls).
pub fn visit_once(
    network: &Network,
    url: &Url,
    device: DeviceProfile,
) -> Result<PageVisit, canvassing_browser::VisitError> {
    Browser::new(device).visit(network, url)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_net::{Fault, PageResource, Resource, ScriptRef, ScriptResource};

    fn network_with_sites(n: usize) -> (Network, Vec<Url>) {
        let mut network = Network::new();
        let mut frontier = Vec::new();
        let script_url = Url::https("fp.example.net", "/fp.js");
        network.host(
            &script_url,
            Resource::Script(ScriptResource {
                source: r##"
                    let c = document.createElement("canvas");
                    c.width = 30; c.height = 20;
                    let x = c.getContext("2d");
                    x.fillStyle = "#069";
                    x.fillRect(1, 1, 20, 10);
                    c.toDataURL();
                "##
                .to_string(),
                label: "fp".into(),
            }),
        );
        for i in 0..n {
            let url = Url::https(&format!("site{i}.com"), "/");
            network.host(
                &url,
                Resource::Page(PageResource {
                    scripts: if i % 2 == 0 {
                        vec![ScriptRef::External(script_url.clone())]
                    } else {
                        vec![]
                    },
                    consent_banner: false,
                    bot_check: false,
                }),
            );
            frontier.push(url);
        }
        // One down site.
        network.faults.take_down("site1.com");
        (network, frontier)
    }

    #[test]
    fn crawl_visits_every_site_in_order() {
        let (network, frontier) = network_with_sites(20);
        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        assert_eq!(ds.records.len(), 20);
        for (r, u) in ds.records.iter().zip(&frontier) {
            assert_eq!(&r.url, u);
        }
        assert_eq!(ds.failed().count(), 1);
        assert_eq!(ds.successful().count(), 19);
        let (_, failure) = ds.failed().next().unwrap();
        assert_eq!(failure.kind, FailureKind::Unreachable);
        assert_eq!(failure.attempts, 1);
    }

    #[test]
    fn crawl_is_deterministic_across_worker_counts() {
        let (network, frontier) = network_with_sites(30);
        let mut one = CrawlConfig::control();
        one.workers = 1;
        let mut many = CrawlConfig::control();
        many.workers = 7;
        let a = crawl(&network, &frontier, &one);
        let b = crawl(&network, &frontier, &many);
        let urls = |d: &CrawlDataset| -> Vec<String> {
            d.successful()
                .flat_map(|(_, v)| v.extractions.iter().map(|e| e.data_url.clone()))
                .collect()
        };
        assert_eq!(urls(&a), urls(&b));
    }

    #[test]
    fn identical_sites_share_canvas_bytes() {
        let (network, frontier) = network_with_sites(10);
        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        let urls: Vec<&str> = ds
            .successful()
            .flat_map(|(_, v)| v.extractions.iter().map(|e| e.data_url.as_str()))
            .collect();
        assert!(urls.len() >= 4);
        assert!(urls.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dataset_roundtrips_through_json() {
        let (network, frontier) = network_with_sites(4);
        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        let json = ds.to_json().unwrap();
        let back = CrawlDataset::from_json(&json).unwrap();
        assert_eq!(back.records.len(), ds.records.len());
        assert_eq!(back.label, ds.label);
    }

    #[test]
    fn transient_fault_fails_without_retries_and_heals_with_them() {
        let (mut network, frontier) = network_with_sites(6);
        network
            .faults
            .inject("site2.com", Fault::TransientConnect { failures: 2 });

        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        let transient: Vec<_> = ds
            .failed()
            .filter(|(_, f)| f.kind == FailureKind::Transient)
            .collect();
        assert_eq!(transient.len(), 1, "visit-once records the flake");

        let mut retrying = CrawlConfig::control();
        retrying.retry = RetryPolicy::retries(2);
        let ds = crawl(&network, &frontier, &retrying);
        assert!(
            ds.failed().all(|(_, f)| f.kind != FailureKind::Transient),
            "two retries outlast two planned failures"
        );
        // Insufficient retries still fail, with the attempts recorded.
        let mut one_retry = CrawlConfig::control();
        one_retry.retry = RetryPolicy::retries(1);
        let ds = crawl(&network, &frontier, &one_retry);
        let (_, failure) = ds
            .failed()
            .find(|(_, f)| f.kind == FailureKind::Transient)
            .unwrap();
        assert_eq!(failure.attempts, 2);
    }

    #[test]
    fn retries_never_touch_permanent_failures() {
        let (network, frontier) = network_with_sites(6);
        let mut retrying = CrawlConfig::control();
        retrying.retry = RetryPolicy::retries(5);
        let ds = crawl(&network, &frontier, &retrying);
        let (_, failure) = ds.failed().next().unwrap();
        assert_eq!(failure.kind, FailureKind::Unreachable);
        assert_eq!(failure.attempts, 1, "permanent failures are not retried");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy::retries(8);
        let schedule: Vec<u64> = (0..8).map(|a| policy.backoff_ms(a)).collect();
        assert_eq!(schedule[0], 250);
        assert_eq!(schedule[1], 500);
        assert_eq!(schedule[2], 1_000);
        assert!(schedule.iter().all(|&b| b <= policy.backoff_cap_ms));
        assert_eq!(*schedule.last().unwrap(), policy.backoff_cap_ms);
        // Absurd attempt numbers don't overflow.
        assert_eq!(policy.backoff_ms(200), policy.backoff_cap_ms);
        // Nor do shifts that push the base's bits out of a u64 (250 << 63
        // wraps to 0).
        assert!((4..=255).all(|a| policy.backoff_ms(a) == policy.backoff_cap_ms));
    }

    #[test]
    fn injected_panic_degrades_to_worker_panic_record() {
        let (mut network, frontier) = network_with_sites(8);
        network.faults.inject("site3.com", Fault::Panic);
        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        assert_eq!(ds.records.len(), 8, "one record per frontier URL");
        let (url, failure) = ds
            .failed()
            .find(|(_, f)| f.kind == FailureKind::WorkerPanic)
            .unwrap();
        assert_eq!(url.host, "site3.com");
        assert!(failure.error.contains("injected fault"));
        assert_eq!(ds.successful().count(), 6);
    }

    #[test]
    fn killed_worker_degrades_to_failure_record_not_harness_panic() {
        // With isolation off, the panic kills the worker thread itself;
        // the harness must still produce one record per frontier URL.
        let (mut network, frontier) = network_with_sites(8);
        network.faults.inject("site3.com", Fault::Panic);
        let mut config = CrawlConfig::control();
        config.isolate_panics = false;
        config.workers = 2;
        let ds = crawl(&network, &frontier, &config);
        assert_eq!(ds.records.len(), 8, "one record per frontier URL");
        let lost: Vec<_> = ds
            .failed()
            .filter(|(_, f)| f.kind == FailureKind::WorkerPanic)
            .collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].0.host, "site3.com");
    }

    #[test]
    fn resume_merges_to_the_uninterrupted_dataset() {
        let (network, frontier) = network_with_sites(12);
        let config = CrawlConfig::control();
        let full = crawl(&network, &frontier, &config);

        // Simulate an interrupted crawl: only the first 5 sites recorded.
        let checkpoint = CrawlDataset {
            label: full.label.clone(),
            device_id: full.device_id.clone(),
            records: full.records[..5].to_vec(),
        };
        let resumed = resume_crawl(&network, &frontier, &config, &checkpoint);
        assert_eq!(
            resumed.to_json().unwrap(),
            full.to_json().unwrap(),
            "resume must be byte-identical to the uninterrupted crawl"
        );

        // A checkpoint that is neither a prefix nor in frontier order:
        // every other record, newest first.
        let scattered = CrawlDataset {
            records: full.records.iter().step_by(2).rev().cloned().collect(),
            ..checkpoint
        };
        let resumed = resume_crawl(&network, &frontier, &config, &scattered);
        assert_eq!(
            resumed.to_json().unwrap(),
            full.to_json().unwrap(),
            "resume must not depend on the checkpoint's record order"
        );
    }

    #[test]
    fn resume_with_complete_checkpoint_revisits_nothing() {
        let (network, frontier) = network_with_sites(5);
        let config = CrawlConfig::control();
        let full = crawl(&network, &frontier, &config);
        let resumed = resume_crawl(&network, &frontier, &config, &full);
        assert_eq!(resumed.to_json().unwrap(), full.to_json().unwrap());
    }

    #[test]
    fn caching_never_changes_the_dataset() {
        let (network, frontier) = network_with_sites(24);
        let cached = CrawlConfig::control();
        let mut uncached = CrawlConfig::control();
        uncached.caching = CachingPolicy::disabled();
        let a = crawl(&network, &frontier, &cached);
        let b = crawl(&network, &frontier, &uncached);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn cached_crawl_is_deterministic_across_worker_counts() {
        let (network, frontier) = network_with_sites(24);
        let mut one = CrawlConfig::control();
        one.workers = 1;
        let mut many = CrawlConfig::control();
        many.workers = 8;
        let a = crawl(&network, &frontier, &one);
        let b = crawl(&network, &frontier, &many);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn stats_show_one_parse_and_one_render_per_unique_script() {
        let (network, frontier) = network_with_sites(20);
        let (_, stats) = crawl_with_stats(&network, &frontier, &CrawlConfig::control());
        assert_eq!(stats.sites, 20);
        // 10 even-indexed sites reference the same script body (the down
        // site is odd-indexed), so 10 script runs reach the engine.
        assert_eq!(stats.script_parses, 1, "one parse per unique body");
        assert_eq!(stats.memo_computes, 1, "one canonical render per body");
        assert_eq!(stats.memo_hits, 9);
        assert_eq!(stats.memo_bypasses, 0);
        assert_eq!(
            stats.script_executions, 0,
            "no in-place runs: the canonical render counts as a compute"
        );
        assert!(stats.memo_hit_rate() > 0.8);
        assert_eq!(stats.static_analyses, 1, "one triage per unique body");
        assert_eq!(stats.analysis_hits, 9);
    }

    #[test]
    fn uncached_stats_count_every_execution() {
        let (network, frontier) = network_with_sites(20);
        let mut config = CrawlConfig::control();
        config.caching = CachingPolicy::disabled();
        let (_, stats) = crawl_with_stats(&network, &frontier, &config);
        assert_eq!(stats.script_parses, 0, "no cache: parses are untracked");
        assert_eq!(stats.memo_hits + stats.memo_computes, 0);
        assert_eq!(stats.script_executions, 10, "every script runs in place");
        assert_eq!(stats.script_cache_hit_rate(), 0.0);
        assert_eq!(stats.memo_hit_rate(), 0.0);
        // Triage is not a cache layer: it still runs (privately parsed)
        // once per unique body with every performance cache off.
        assert_eq!(stats.static_analyses, 1);
        assert_eq!(stats.analysis_hits, 9);
    }

    #[test]
    fn warm_caches_skip_parse_and_render_on_recrawl() {
        let (network, frontier) = network_with_sites(16);
        let config = CrawlConfig::control();
        let caches = config.build_caches();
        let (cold_ds, cold) = crawl_with_caches(&network, &frontier, &config, &caches);
        let (warm_ds, warm) = crawl_with_caches(&network, &frontier, &config, &caches);
        assert_eq!(cold_ds.to_json().unwrap(), warm_ds.to_json().unwrap());
        assert_eq!(cold.script_parses, 1);
        assert_eq!(cold.memo_computes, 1);
        assert_eq!(warm.script_parses, 0, "warm pass re-parses nothing");
        assert_eq!(warm.memo_computes, 0, "warm pass re-renders nothing");
        assert!(warm.memo_hits >= 8);
    }

    #[test]
    fn defended_crawl_executes_every_script_in_place() {
        let (network, frontier) = network_with_sites(12);
        let mut config = CrawlConfig::control();
        config.defense = DefenseMode::RandomizePerRender { seed: 9 };
        let (_, stats) = crawl_with_stats(&network, &frontier, &config);
        assert_eq!(stats.memo_hits, 0, "defenses disable memo replay");
        assert_eq!(stats.memo_computes, 0);
        assert_eq!(stats.script_executions, 6, "every live site runs in place");
        assert_eq!(stats.script_parses, 1, "compile cache still shared");
        // Triage performed the one parse; all 6 in-place executions hit.
        assert_eq!(stats.script_cache_hits, 6);
        assert_eq!(stats.static_analyses, 1);
    }

    #[test]
    fn static_triage_runs_once_per_unique_hash_across_worker_counts() {
        // Acceptance: analysis runs exactly once per unique script hash,
        // deterministically — the stats must agree across worker counts
        // and match the number of distinct bodies in the workload.
        let (network, frontier) = network_with_sites(24);
        for workers in [1, 3, 8] {
            let mut config = CrawlConfig::control();
            config.workers = workers;
            let (ds, stats) = crawl_with_stats(&network, &frontier, &config);
            let unique_hashes: std::collections::BTreeSet<u64> = ds
                .successful()
                .flat_map(|(_, v)| v.scripts.iter().map(|s| s.source_hash))
                .collect();
            assert_eq!(
                stats.static_analyses,
                unique_hashes.len() as u64,
                "workers={workers}: one analysis per unique hash"
            );
            assert_eq!(
                stats.static_analyses + stats.analysis_hits,
                ds.successful().map(|(_, v)| v.scripts.len() as u64).sum(),
                "workers={workers}: every loaded script was triaged"
            );
            // Every loaded script carries a verdict (bodies were fetched).
            assert!(ds
                .successful()
                .flat_map(|(_, v)| v.scripts.iter())
                .all(|s| s.verdict.is_some()));
        }
    }

    #[test]
    fn traced_crawl_delivers_traces_in_frontier_order() {
        use canvassing_trace::RingSink;
        let (network, frontier) = network_with_sites(12);
        let sink = Arc::new(RingSink::new(64));
        let mut config = CrawlConfig::control();
        config.workers = 5;
        config.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let (_, stats) = crawl_with_stats(&network, &frontier, &config);

        let traces = sink.traces();
        assert_eq!(traces.len(), frontier.len(), "one trace per frontier URL");
        assert_eq!(stats.trace_visits, frontier.len() as u64);
        assert!(stats.trace_spans > 0);
        assert!(stats.trace_events >= stats.trace_spans * 2);
        for (trace, url) in traces.iter().zip(&frontier) {
            assert_eq!(trace.label, url.to_string(), "frontier order preserved");
        }
        // Every successful visit's trace covers the full stage vocabulary;
        // the down site carries its failure as a visit.outcome instant.
        let all_names: Vec<_> = traces.iter().map(canvassing_trace::span_names).collect();
        for (i, names) in all_names.iter().enumerate() {
            if frontier[i].to_string().contains("site1.com") {
                continue;
            }
            for stage in ["fetch", "triage", "parse", "execute", "extract"] {
                assert!(names.contains(stage), "site{i} missing stage {stage}");
            }
        }
    }

    #[test]
    fn traced_streams_identical_across_worker_counts() {
        use canvassing_trace::RingSink;
        let (mut network, frontier) = network_with_sites(16);
        network
            .faults
            .inject("site2.com", Fault::TransientConnect { failures: 1 });
        let run = |workers: usize| {
            let sink = Arc::new(RingSink::new(64));
            let mut config = CrawlConfig::control();
            config.workers = workers;
            config.retry = RetryPolicy::retries(2);
            config.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
            crawl(&network, &frontier, &config);
            sink.traces()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "trace streams are schedule-independent");
        // The retried site's trace carries the retry instant in both runs.
        let retried = one
            .iter()
            .find(|t| t.label.contains("site2.com"))
            .expect("site2 trace present");
        assert!(retried.events.iter().any(|e| matches!(
            &e.kind,
            canvassing_trace::EventKind::Instant { name, .. } if *name == "visit.retry"
        )));
    }

    #[test]
    fn null_sink_and_no_sink_record_nothing() {
        use canvassing_trace::{CountingSink, NullSink};
        let (network, frontier) = network_with_sites(6);
        let mut config = CrawlConfig::control();
        config.trace = Some(Arc::new(NullSink));
        let (_, stats) = crawl_with_stats(&network, &frontier, &config);
        assert_eq!(stats.trace_visits, 0, "disabled sink short-circuits");
        assert_eq!(stats.trace_events, 0);

        let counting = Arc::new(CountingSink::new());
        config.trace = Some(Arc::clone(&counting) as Arc<dyn TraceSink>);
        let (_, stats) = crawl_with_stats(&network, &frontier, &config);
        let (visits, spans, events) = counting.totals();
        assert_eq!(visits, frontier.len() as u64);
        assert_eq!(stats.trace_visits, visits);
        assert_eq!(stats.trace_spans, spans);
        assert_eq!(stats.trace_events, events);
    }

    /// A frontier whose shared script host is dead: with breakers on, the
    /// host's circuit opens and later sites' script loads short-circuit.
    fn breaker_workload() -> (Network, Vec<Url>) {
        let (mut network, frontier) = network_with_sites(20);
        network.faults.take_down("fp.example.net");
        (network, frontier)
    }

    #[test]
    fn breakers_short_circuit_and_stay_deterministic_across_workers() {
        let (network, frontier) = breaker_workload();
        let mut config = CrawlConfig::control();
        config.breakers = BreakerPolicy::enabled();

        let mut datasets = Vec::new();
        let mut stats_all = Vec::new();
        for workers in [1usize, 4, 8] {
            config.workers = workers;
            let (ds, stats) = crawl_with_stats(&network, &frontier, &config);
            datasets.push(ds.to_json().unwrap());
            stats_all.push(stats);
        }
        assert_eq!(datasets[0], datasets[1], "1 vs 4 workers");
        assert_eq!(datasets[1], datasets[2], "4 vs 8 workers");
        assert!(stats_all[0].breaker_opens >= 1);
        assert!(stats_all[0].breaker_short_circuits >= 1);
        assert_eq!(stats_all[0].breaker_opens, stats_all[2].breaker_opens);
        assert_eq!(
            stats_all[0].breaker_short_circuits,
            stats_all[2].breaker_short_circuits
        );

        // The short-circuited script loads are visible in the records:
        // later even-numbered sites carry the "circuit open" script error
        // instead of a fetch failure, and the crawl still succeeds.
        let ds = CrawlDataset::from_json(&datasets[0]).unwrap();
        let circuit_scripts = ds
            .successful()
            .flat_map(|(_, v)| v.scripts.iter())
            .filter(|s| s.error.as_deref() == Some("circuit open"))
            .count();
        assert!(circuit_scripts >= 1);
    }

    #[test]
    fn open_page_host_records_circuit_open_failure() {
        // Three dead sites on one host family would need a shared page
        // host; simpler: the page hosts themselves fail repeatedly via a
        // shared frontier host. Reuse one host for several frontier URLs.
        let mut network = Network::new();
        let mut frontier = Vec::new();
        for path in ["/a", "/b", "/c", "/d", "/e"] {
            let url = Url::https("flaky.example", path);
            network.host(
                &url,
                Resource::Page(PageResource {
                    scripts: vec![],
                    consent_banner: false,
                    bot_check: false,
                }),
            );
            frontier.push(url);
        }
        network.faults.take_down("flaky.example");
        let mut config = CrawlConfig::control();
        config.breakers = BreakerPolicy::enabled();
        let ds = crawl(&network, &frontier, &config);
        let breakdown = ds.failure_breakdown();
        assert_eq!(breakdown[&FailureKind::Unreachable], 3, "charges to open");
        assert_eq!(breakdown[&FailureKind::CircuitOpen], 2, "short-circuited");
        // CircuitOpen failures never touched the network and are final.
        let (_, f) = ds
            .failed()
            .find(|(_, f)| f.kind == FailureKind::CircuitOpen)
            .unwrap();
        assert_eq!(f.attempts, 1);
        assert!(f.salvage.is_none(), "short-circuit precedes page contact");
    }

    #[test]
    fn salvage_attaches_partial_evidence_and_is_opt_out() {
        let (mut network, frontier) = network_with_sites(8);
        // Kill the shared script host with a deadline-blowing spike: the
        // even sites die mid-pipeline after fetching nothing from it, but
        // keep their page-level facts.
        network
            .faults
            .inject("fp.example.net", Fault::LatencySpike { extra_ms: 60_000 });

        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        let timeouts: Vec<_> = ds
            .failed()
            .filter(|(_, f)| f.kind == FailureKind::Timeout)
            .collect();
        assert!(!timeouts.is_empty());
        assert!(
            timeouts.iter().all(|(_, f)| f.salvage.is_some()),
            "mid-pipeline deaths keep their partial visit"
        );
        assert!(ds.fidelity_breakdown()[&VisitFidelity::Lost] >= 1);

        let mut no_salvage = CrawlConfig::control();
        no_salvage.salvage = false;
        let ds = crawl(&network, &frontier, &no_salvage);
        assert!(
            ds.failed().all(|(_, f)| f.salvage.is_none()),
            "salvage off reproduces the bare failure records"
        );
    }

    #[test]
    fn retry_timeouts_heals_slow_start_hosts() {
        let (mut network, frontier) = network_with_sites(6);
        network.faults.inject(
            "site2.com",
            Fault::SlowStart {
                extra_ms: 60_000,
                attempts: 1,
            },
        );

        let ds = crawl(&network, &frontier, &CrawlConfig::control());
        assert_eq!(ds.failure_breakdown().get(&FailureKind::Timeout), Some(&1));

        // Plain retries don't help: Timeout is not transient.
        let mut config = CrawlConfig::control();
        config.retry = RetryPolicy::retries(2);
        let ds = crawl(&network, &frontier, &config);
        assert_eq!(ds.failure_breakdown().get(&FailureKind::Timeout), Some(&1));

        // retry_timeouts makes the second attempt land after the spike.
        config.retry.retry_timeouts = true;
        let ds = crawl(&network, &frontier, &config);
        assert_eq!(ds.failure_breakdown().get(&FailureKind::Timeout), None);
        let (_, visit) = ds
            .successful()
            .find(|(u, _)| u.host == "site2.com")
            .expect("site2 heals");
        assert!(!visit.scripts.is_empty());
    }
}
