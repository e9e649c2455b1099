//! Canvas render memoization.
//!
//! Rendering is deterministic on one machine — the exact property canvas
//! fingerprinting exploits (§4.1) and the paper's clustering relies on. A
//! crawl therefore re-renders the same vendor script to the same pixels
//! tens of thousands of times. A [`RenderMemo`] runs each unique (script
//! body, device profile) pair **once** on a scratch document, keeps the
//! normalized instrumentation record (API calls, extractions, canvas
//! bytes as data URLs), and replays it into later visits by pure record
//! relocation ([`canvassing_dom::Document::absorb_render`]).
//!
//! ## Why replay is sound
//!
//! Scripts are isolated: no host API lets a script observe another
//! script's canvases, the document clock, record counters, or handle
//! state, so a script's behavior — and, after
//! `Document::set_current_script`'s per-script handle namespace, its
//! byte-exact instrumentation record — is a pure function of (source,
//! device profile). Relocating the scratch record (offsetting `seq`,
//! `timestamp_ms`, and `canvas_index`; substituting the attributed URL)
//! reproduces exactly what in-place execution would have recorded.
//!
//! ## When replay is bypassed
//!
//! * **Any active defense** (§5.3). Randomization defenses salt their
//!   noise with the page host and the per-document extraction counter, so
//!   defended extractions are not functions of (script, device) alone —
//!   and the double-render evasion check must genuinely execute both
//!   renders to observe per-render noise. The browser only consults the
//!   memo when [`crate::DefenseMode::None`] is active.
//! * **Tighter budgets.** An entry is replayed only when its canonical
//!   step count fits the visit's remaining fuel; otherwise the script
//!   executes in place and trips (or not) exactly as it would uncached.
//! * **Canonical runs that panicked.**
//!
//! ## Storage
//!
//! Entries live in a [`BodyMap`] keyed by the script's content hash and
//! tagged with the device profile id, the compute-once map the compile
//! and triage caches share: the full source and device id are compared
//! on lookup, so a 64-bit hash collision gets its own entry instead of
//! replaying the wrong script, and the canonical run happens outside the
//! shard lock, exactly once per (script, device) pair.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use canvassing_analysis::AnalysisCache;
use canvassing_dom::{ApiCall, Document, Extraction};
use canvassing_raster::{DeviceProfile, SurfacePool};
use canvassing_script::{
    eval_compiled_with_budget, run_compiled_with_budget, source_hash, BodyMap, EvalOutcome,
    RuntimeError, ScriptCache, DEFAULT_STEP_BUDGET,
};

/// The canonical record of one (script body, device) render, normalized
/// to a fresh document (clock 0, empty record, canvas indices from 0).
///
/// Each canvas is held once, as the [`canvassing_raster::SharedText`] its
/// `toDataURL` built (with its content hash): an extraction's `data_url`
/// and the call's `return_value` are the same handle, and replay clones
/// the handle into the visit, so every visit replaying this entry shares
/// the entry's bytes instead of copying them.
#[derive(Debug)]
pub struct RenderEntry {
    /// Interpreter steps the canonical run consumed.
    pub steps: u64,
    /// Runtime (or parse) error message, if the script crashed.
    pub error: Option<String>,
    /// Normalized API calls.
    pub calls: Vec<ApiCall>,
    /// Normalized extractions; their data URLs are the handles replay
    /// shares.
    pub extractions: Vec<Extraction>,
    /// Canvas elements the script created.
    pub canvases_created: usize,
}

/// Outcome of the exactly-once canonical run.
#[derive(Debug, Clone)]
enum MemoSlot {
    /// Canonical record available for replay.
    Ready(Arc<RenderEntry>),
    /// The canonical run panicked; this script always executes in place
    /// (and panics there exactly as it would uncached).
    Poisoned,
}

/// Schedule-independent perf counters for one crawl. Every count is a
/// pure function of the workload: computes happen exactly once per unique
/// key, and hit/bypass classification per script execution is
/// deterministic, so totals match across worker counts.
#[derive(Debug, Default)]
pub struct PerfCounters {
    /// Scripts interpreted in place (not satisfied by memo replay).
    pub script_executions: AtomicU64,
    /// Scripts satisfied by replaying a memoized render.
    pub memo_hits: AtomicU64,
    /// Canonical scratch renders performed (== unique memo keys).
    pub memo_computes: AtomicU64,
    /// Memo lookups that fell back to in-place execution (budget too
    /// tight or poisoned entry).
    pub memo_bypasses: AtomicU64,
}

impl PerfCounters {
    /// Plain-number snapshot of the counters.
    pub fn snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            script_executions: self.script_executions.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_computes: self.memo_computes.load(Ordering::Relaxed),
            memo_bypasses: self.memo_bypasses.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`PerfCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Scripts interpreted in place.
    pub script_executions: u64,
    /// Scripts satisfied by memo replay.
    pub memo_hits: u64,
    /// Canonical scratch renders performed.
    pub memo_computes: u64,
    /// Memo lookups that fell back to in-place execution.
    pub memo_bypasses: u64,
}

/// The shared caches a crawl threads through its browsers. All fields are
/// optional so a default-constructed browser behaves exactly as before;
/// the perf counters are always present (and nearly free).
#[derive(Clone, Default)]
pub struct CrawlCaches {
    /// Compiled-script cache (parse each unique body once per crawl).
    pub scripts: Option<Arc<ScriptCache>>,
    /// Render memoization (render each unique body+device once per crawl).
    pub memo: Option<Arc<RenderMemo>>,
    /// Canvas pixel-buffer recycling pool.
    pub pool: Option<Arc<SurfacePool>>,
    /// Static pre-execution triage results, one analysis per unique
    /// script body. Always present (like `perf`): triage is part of what
    /// the crawler *records*, not an optimization, so enabling or
    /// disabling the performance caches never changes the dataset. When
    /// `scripts` is set the analysis borrows its compiled ASTs; without
    /// it, triage parses privately (uncounted in crawl parse stats).
    pub analysis: Arc<AnalysisCache>,
    /// Crawl-wide perf counters.
    pub perf: Arc<PerfCounters>,
    /// Crawl-wide trace metrics (typed counters + histograms). Always
    /// present like `perf`; it only accumulates when a visit recorder is
    /// enabled, so untraced crawls pay nothing.
    pub metrics: Arc<canvassing_trace::MetricsRegistry>,
}

impl CrawlCaches {
    /// All cache layers enabled, sharing one set of counters.
    pub fn enabled() -> CrawlCaches {
        CrawlCaches {
            scripts: Some(Arc::new(ScriptCache::new())),
            memo: Some(Arc::new(RenderMemo::new())),
            pool: Some(Arc::new(SurfacePool::new())),
            analysis: Arc::new(AnalysisCache::new()),
            perf: Arc::new(PerfCounters::default()),
            metrics: Arc::new(canvassing_trace::MetricsRegistry::new()),
        }
    }

    /// No caching (the baseline path; also what `Browser::new` gives you).
    pub fn disabled() -> CrawlCaches {
        CrawlCaches::default()
    }
}

/// The render memo map. `Arc`-share one instance across crawl workers.
#[derive(Default)]
pub struct RenderMemo {
    renders: BodyMap<MemoSlot>,
}

impl RenderMemo {
    /// Creates an empty memo.
    pub fn new() -> RenderMemo {
        RenderMemo::default()
    }

    /// Number of (script, device) keys memoized so far.
    pub fn len(&self) -> usize {
        self.renders.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a replayable canonical render of `source` on `device`, or
    /// `None` when the script must execute in place (see the module docs
    /// for the bypass rules). Computes the canonical render — exactly once
    /// per key, crawl-wide — on first sight of a key.
    ///
    /// `budget` is the visit's remaining step allowance for this script;
    /// entries whose canonical run used more are not replayed.
    pub fn lookup(
        &self,
        source: &str,
        device: &DeviceProfile,
        budget: u64,
        scripts: Option<&ScriptCache>,
        perf: &PerfCounters,
    ) -> Option<Arc<RenderEntry>> {
        let hash = source_hash(source);
        let (slot, computed) = self.renders.get_or_init(hash, source, &device.id, || {
            compute_canonical(source, device, scripts)
        });
        let replay = match slot {
            MemoSlot::Ready(entry) if entry.steps <= budget => Some(entry),
            _ => None,
        };
        let counter = match (computed, &replay) {
            (true, _) => &perf.memo_computes,
            (false, Some(_)) => &perf.memo_hits,
            (false, None) => &perf.memo_bypasses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        replay
    }
}

/// Runs `source` once on a fresh scratch document under the full step
/// budget, producing the normalized record.
fn compute_canonical(
    source: &str,
    device: &DeviceProfile,
    scripts: Option<&ScriptCache>,
) -> MemoSlot {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut doc = Document::new(device.clone());
        doc.set_current_script("");
        let outcome = eval_cached(source, &mut doc, DEFAULT_STEP_BUDGET, scripts);
        let canvases_created = doc.canvas_count();
        let (calls, extractions) = doc.into_records();
        RenderEntry {
            steps: outcome.steps,
            error: outcome.result.err().map(|e| e.message),
            calls,
            extractions,
            canvases_created,
        }
    }));
    match run {
        Ok(entry) => MemoSlot::Ready(Arc::new(entry)),
        Err(_) => MemoSlot::Poisoned,
    }
}

/// Runs `source` on the VM, resolving its bytecode through the shared
/// compile cache when one is available. The parse-failure contract
/// matches `eval_with_budget` exactly (same message, zero steps).
pub(crate) fn eval_cached(
    source: &str,
    doc: &mut Document,
    budget: u64,
    scripts: Option<&ScriptCache>,
) -> EvalOutcome {
    match scripts {
        Some(cache) => match cache.get_or_compile(source) {
            Ok(exec) => run_compiled_with_budget(&exec.bytecode, doc, budget),
            Err(e) => EvalOutcome {
                result: Err(RuntimeError::new(format!("script parse failed: {e}"))),
                steps: 0,
            },
        },
        None => eval_compiled_with_budget(source, doc, budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: &str = r##"
        let c = document.createElement("canvas");
        c.width = 40; c.height = 16;
        let x = c.getContext("2d");
        x.fillStyle = "#069";
        x.fillText("memo probe", 2, 12);
        c.toDataURL();
    "##;

    fn device() -> DeviceProfile {
        DeviceProfile::intel_ubuntu()
    }

    #[test]
    fn canonical_render_computes_once_then_hits() {
        let memo = RenderMemo::new();
        let perf = PerfCounters::default();
        let a = memo
            .lookup(FP, &device(), DEFAULT_STEP_BUDGET, None, &perf)
            .expect("replayable");
        let b = memo
            .lookup(FP, &device(), DEFAULT_STEP_BUDGET, None, &perf)
            .expect("replayable");
        assert!(Arc::ptr_eq(&a, &b));
        let snap = perf.snapshot();
        assert_eq!(snap.memo_computes, 1);
        assert_eq!(snap.memo_hits, 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(a.canvases_created, 1);
        assert_eq!(a.extractions.len(), 1);
        assert!(a.error.is_none());
        assert!(a.steps > 0);
    }

    #[test]
    fn replay_matches_direct_execution() {
        // The normalized record must equal what direct execution on a
        // fresh document records, minus attribution.
        let memo = RenderMemo::new();
        let perf = PerfCounters::default();
        let entry = memo
            .lookup(FP, &device(), DEFAULT_STEP_BUDGET, None, &perf)
            .unwrap();

        let mut doc = Document::new(device());
        doc.set_current_script("");
        canvassing_script::eval_with_budget(FP, &mut doc, DEFAULT_STEP_BUDGET);
        let (calls, extractions) = doc.into_records();
        assert_eq!(entry.calls, calls);
        assert_eq!(entry.extractions, extractions);
    }

    #[test]
    fn distinct_devices_get_distinct_entries() {
        let memo = RenderMemo::new();
        let perf = PerfCounters::default();
        let a = memo
            .lookup(
                FP,
                &DeviceProfile::intel_ubuntu(),
                DEFAULT_STEP_BUDGET,
                None,
                &perf,
            )
            .unwrap();
        let b = memo
            .lookup(
                FP,
                &DeviceProfile::apple_m1(),
                DEFAULT_STEP_BUDGET,
                None,
                &perf,
            )
            .unwrap();
        assert_eq!(memo.len(), 2);
        assert_ne!(
            a.extractions[0].data_url, b.extractions[0].data_url,
            "devices must render distinct pixels"
        );
    }

    #[test]
    fn tight_budget_bypasses_replay() {
        let memo = RenderMemo::new();
        let perf = PerfCounters::default();
        let entry = memo
            .lookup(FP, &device(), DEFAULT_STEP_BUDGET, None, &perf)
            .unwrap();
        assert!(memo
            .lookup(FP, &device(), entry.steps - 1, None, &perf)
            .is_none());
        assert_eq!(perf.snapshot().memo_bypasses, 1);
        // At exactly the canonical step count the entry fits.
        assert!(memo
            .lookup(FP, &device(), entry.steps, None, &perf)
            .is_some());
    }

    #[test]
    fn compute_goes_through_shared_script_cache() {
        let memo = RenderMemo::new();
        let cache = ScriptCache::new();
        let perf = PerfCounters::default();
        memo.lookup(FP, &device(), DEFAULT_STEP_BUDGET, Some(&cache), &perf)
            .unwrap();
        assert_eq!(cache.stats().parses, 1);
    }

    #[test]
    fn broken_script_entry_replays_the_error() {
        let memo = RenderMemo::new();
        let perf = PerfCounters::default();
        let entry = memo
            .lookup("let = ;", &device(), DEFAULT_STEP_BUDGET, None, &perf)
            .expect("parse failures are replayable");
        assert_eq!(entry.steps, 0);
        assert!(entry
            .error
            .as_deref()
            .unwrap()
            .contains("script parse failed"));
        assert!(entry.calls.is_empty());
    }

    #[test]
    fn double_render_scripts_keep_both_extractions() {
        // §5.3: the double-render record must survive memoization so the
        // downstream check still sees two identical extractions.
        let double = r##"
            fn render() {
                let c = document.createElement("canvas");
                c.width = 30; c.height = 10;
                let x = c.getContext("2d");
                x.fillRect(0, 0, 30, 10);
                return c.toDataURL();
            }
            let a = render();
            let b = render();
        "##;
        let memo = RenderMemo::new();
        let perf = PerfCounters::default();
        let entry = memo
            .lookup(double, &device(), DEFAULT_STEP_BUDGET, None, &perf)
            .unwrap();
        assert_eq!(entry.extractions.len(), 2);
        assert_eq!(entry.canvases_created, 2);
        assert_eq!(entry.extractions[0].data_url, entry.extractions[1].data_url);
    }
}
