//! # canvassing
//!
//! The measurement pipeline of *Canvassing the Fingerprinters:
//! Characterizing Canvas Fingerprinting Use Across the Web* (IMC 2025),
//! reproduced end to end over a simulated Web.
//!
//! The pipeline mirrors the paper's methodology section by section:
//!
//! * [`mod@detect`] — §3.2's three heuristics turn raw `toDataURL`
//!   extractions into *fingerprintable test canvases*;
//! * [`cluster`] — §4.2's grouping of sites by byte-identical canvases;
//! * [`prevalence`] — §4.1's rates and per-site canvas distribution;
//! * [`attribution`] — §4.3 / Appendix A.3's demo, known-customer, and
//!   script-pattern attribution (including Imperva's per-site path and
//!   the FingerprintJS open-source/commercial split);
//! * [`blocklist_coverage`] — §5.1 / Table 4's adblockparser-style static
//!   list coverage;
//! * [`evasion`] — §5.2's first-party / subdomain / CDN / CNAME serving
//!   analysis and §5.3's double-render randomization-check detection;
//! * [`figures`] — Figure 1 regeneration;
//! * [`validation`] — cross-validation of the static AST classifier
//!   (`canvassing-analysis`) against the dynamic detector: a per-cohort
//!   confusion matrix over unique script bodies plus per-vendor rows;
//! * [`accumulate`] — constant-memory aggregation
//!   ([`accumulate::CohortAccumulator`]): the one fold that turns a
//!   cohort's visit records into its analysis, one record at a time, so
//!   million-site crawls never materialize a dataset;
//! * [`study`] — the orchestrator that runs every crawl and produces all
//!   tables and figures ([`study::run_study_streamed`], which streams
//!   every crawl in bounded chunks, the control crawls through the
//!   accumulator and each re-crawl into a fold of its clusters and
//!   counts, and touches no disk, or [`study::run_study_supervised`] for
//!   the crash-tolerant path that runs both control crawls under the
//!   leased shard supervisor, the only code that spills records, with
//!   injected process faults and proves the results unchanged).
//!
//! ```no_run
//! use canvassing::study::{run_study_streamed, StreamingOptions, StudyOptions};
//! use canvassing_webgen::{SyntheticWeb, WebConfig};
//!
//! let web = SyntheticWeb::generate(WebConfig::paper_scale(2025));
//! let results = run_study_streamed(&web, &StudyOptions::default(), &StreamingOptions::default())?;
//! println!("{}", results.render_report());
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Every crawl can also record a deterministic per-visit trace (spans,
//! instants, and shared counters — see `canvassing-trace`); attach a sink
//! to the crawl config to capture timelines:
//!
//! ```no_run
//! use std::sync::Arc;
//! use canvassing_crawler::{crawl_with_stats, CrawlConfig};
//! use canvassing_trace::{render_timeline, RingSink, TraceSink};
//! use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};
//!
//! let web = SyntheticWeb::generate(WebConfig { seed: 7, scale: 0.1 });
//! let sink = Arc::new(RingSink::new(64));
//! let mut config = CrawlConfig::control();
//! config.trace = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
//! let (_, stats) = crawl_with_stats(&web.network, &web.frontier(Cohort::Popular), &config);
//! assert_eq!(stats.trace_visits, sink.len() as u64);
//! for trace in sink.traces() {
//!     println!("{}", render_timeline(&trace));
//! }
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod accumulate;
pub mod attribution;
pub mod bias;
pub mod blocklist_coverage;
pub mod cluster;
pub mod detect;
pub mod evasion;
pub mod figures;
pub mod prevalence;
#[cfg(test)]
mod proptests;
pub mod study;
pub mod validation;

pub use accumulate::CohortAccumulator;
pub use bias::BiasAccounting;
pub use cluster::{Cluster, ClusterAccumulator, Clustering, OverlapStats};
pub use detect::{detect, ExclusionReason, FpCanvas, SiteDetection};
pub use evasion::EvasionStats;
pub use figures::Figure1;
pub use prevalence::{Prevalence, PrevalenceAccumulator};
pub use study::{
    run_study_streamed, run_study_supervised, CohortAnalysis, StreamingOptions, StudyOptions,
    StudyResults, SupervisionSummary,
};
pub use validation::{
    cross_validate, vendor_static_rows, ConfusionMatrix, ScriptVotes, VendorStaticRow,
};
