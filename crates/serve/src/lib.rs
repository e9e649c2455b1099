//! # canvassing-serve
//!
//! An overload-robust verdict-serving daemon: "fingerprinting detection
//! as a service" over the repo's static classifier and shared caches.
//! Clients submit script bodies or URLs; the daemon answers with the
//! taint classifier's verdict enriched with blocklist coverage and
//! vendor attribution — and stays predictable when the offered load
//! exceeds what it can classify.
//!
//! Robustness model (all on simulated time, like the rest of the repo):
//!
//! * **Admission control + bounded queues** — the admission queue is
//!   depth-bounded with explicit backpressure; requests past the ceiling
//!   get typed [`Served::Rejected`] responses with a retry-after hint,
//!   never an unbounded queue or a silent drop.
//! * **Deadline propagation** — requests carry absolute deadlines; since
//!   service lanes are FIFO and non-preemptive, completion times are
//!   exactly computable at admission, so a request that would miss its
//!   deadline is rejected *before* any parse work is wasted on it.
//! * **Tiered load shedding** — queue-depth bands degrade fidelity
//!   (full analysis → cache-only → static-heuristic → rejection),
//!   mirroring the crawl supervisor's visit-fidelity ladder; every shed
//!   is counted per tier and the partition `admitted + shed + rejected
//!   == offered` is exact.
//! * **Hot blocklist reload** — rule generations are immutable
//!   epoch-tagged [`RuleSnapshot`]s; a reload swaps the snapshot between
//!   arrivals, in-flight requests finish on their admission epoch, and
//!   the rule diff invalidates only the analysis-cache shards holding
//!   scripts from changed domains (incremental re-classification).
//!
//! Determinism contract: the full response stream is a pure function of
//! `(requests, reloads, config, network, boot snapshot)`. The plan
//! ([`ServePlan`]) makes every control-plane decision single-threaded;
//! executor workers only prewarm the parse cache (parse-under-shard-lock
//! keeps counts schedule-independent); responses assemble in request
//! order. `tests/serve.rs` gates byte-identical responses across worker
//! counts 1/4/8.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod daemon;
pub mod loadgen;
pub mod plan;
pub mod request;
pub mod snapshot;
pub mod stats;

pub use daemon::{outcome_label, ServeOutput, VerdictService};
pub use loadgen::{generate, harvest_corpus, Corpus, LoadProfile, PhaseSpec};
pub use plan::{AppliedReload, Decision, Disposition, ServeConfig, ServePlan, ShedThresholds};
pub use request::{
    heuristic_scan, Payload, RejectReason, ServeTier, Served, VerdictRequest, VerdictResponse,
};
pub use snapshot::{ReloadEvent, RuleDiff, RuleSnapshot};
pub use stats::{PhaseStats, ServeStats, TierCounts};
