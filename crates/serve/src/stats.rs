//! Serving-run statistics: the shed-tier partition, exact latency
//! percentiles, throughput, and per-phase breakdowns.
//!
//! All fields are integers (latencies in simulated ms; `qps_x1000` is a
//! fixed-point rate) so the serialized JSON — pinned exactly in
//! `tests/golden/serve_stats.json` — is byte-stable across platforms and
//! float-formatting quirks. Percentiles are computed exactly (nearest-rank over the
//! sorted completed-latency list), with the trace layer's log2 histogram
//! only cross-checking them from above.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::daemon::ServeOutput;
use crate::plan::Decision;
use crate::request::{RejectReason, ServeTier, Served, VerdictRequest};

/// How many requests landed in each tier / rejection bucket. The
/// partition invariant `full + cache_only + heuristic + rejected_* ==
/// offered` is a soak gate: a daemon that drops requests can't satisfy
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierCounts {
    /// Admitted at full fidelity.
    pub full: u64,
    /// Shed to cache-only.
    pub cache_only: u64,
    /// Shed to static-heuristic.
    pub heuristic: u64,
    /// Rejected: queue over the shedding ceiling.
    pub rejected_overload: u64,
    /// Rejected: predicted completion past the deadline.
    pub rejected_deadline: u64,
}

impl TierCounts {
    /// Admitted requests (any fidelity).
    pub fn admitted(&self) -> u64 {
        self.full + self.cache_only + self.heuristic
    }

    /// Requests shed below full fidelity.
    pub fn shed(&self) -> u64 {
        self.cache_only + self.heuristic
    }

    /// Rejected requests.
    pub fn rejected(&self) -> u64 {
        self.rejected_overload + self.rejected_deadline
    }

    /// The whole partition.
    pub fn total(&self) -> u64 {
        self.admitted() + self.rejected()
    }
}

/// Per-phase slice of the run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase label from the load profile ("burst", ...).
    pub label: String,
    /// Requests offered during the phase.
    pub offered: u64,
    /// Tier partition within the phase.
    pub tiers: TierCounts,
    /// Shed rate in tenths of a percent (integer fixed-point).
    pub shed_per_mille: u64,
}

/// The full run summary (the `tests/golden/serve_stats.json` schema).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests offered.
    pub offered: u64,
    /// Requests completed (served at any tier, incl. typed misses and
    /// fetch failures).
    pub completed: u64,
    /// Tier partition over the whole run.
    pub tiers: TierCounts,
    /// Full-tier answers served from the warm analysis cache.
    pub full_cache_hits: u64,
    /// Cold analyses actually run.
    pub cold_analyses: u64,
    /// Cold analyses amortized into an open classifier batch.
    pub batch_followers: u64,
    /// Re-classifications forced by reload invalidation.
    pub reclassified: u64,
    /// Cache-only answers that hit.
    pub cache_only_hits: u64,
    /// Cache-only typed misses.
    pub cache_only_misses: u64,
    /// URL payloads whose resolution failed (typed responses).
    pub fetch_failures: u64,
    /// Completed responses that finished past their deadline. Deadline
    /// propagation rejects those at admission, so this must be zero —
    /// gated in the soak.
    pub deadline_violations: u64,
    /// Hot reloads applied.
    pub reloads: u64,
    /// Analysis-cache shards invalidated by reloads.
    pub shards_invalidated: u64,
    /// Queue high-water mark.
    pub max_queue_depth: u64,
    /// Exact nearest-rank p50 of completed end-to-end latency (ms).
    pub p50_latency_ms: u64,
    /// Exact nearest-rank p99.
    pub p99_latency_ms: u64,
    /// Slowest completed request.
    pub max_latency_ms: u64,
    /// Mean completed latency in fixed-point (ms × 1000).
    pub mean_latency_us: u64,
    /// Wall-clock of the simulated run: last finish − first arrival.
    pub makespan_ms: u64,
    /// Completed requests per simulated second, fixed-point × 1000.
    pub qps_x1000: u64,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseStats>,
}

impl ServeStats {
    /// Computes the summary from a run. `phase_labels` names the phase
    /// indices the requests carry (requests with out-of-range phases
    /// group under their numeric index).
    pub fn compute(
        requests: &[VerdictRequest],
        output: &ServeOutput,
        phase_labels: &[String],
    ) -> ServeStats {
        let mut stats = ServeStats {
            offered: requests.len() as u64,
            ..ServeStats::default()
        };
        let mut latencies: Vec<u64> = Vec::new();
        let mut phases: BTreeMap<u32, PhaseStats> = BTreeMap::new();
        for ((req, resp), disp) in requests
            .iter()
            .zip(&output.responses)
            .zip(&output.plan.dispositions)
        {
            let phase = phases.entry(req.phase).or_insert_with(|| PhaseStats {
                label: phase_labels
                    .get(req.phase as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("phase-{}", req.phase)),
                ..PhaseStats::default()
            });
            phase.offered += 1;
            // The admission decision partitions the request; the served
            // outcome adds hit/miss/failure detail within it.
            match disp.decision {
                Decision::Reject(RejectReason::Overload) => {
                    stats.tiers.rejected_overload += 1;
                    phase.tiers.rejected_overload += 1;
                    continue;
                }
                Decision::Reject(RejectReason::DeadlineUnmeetable) => {
                    stats.tiers.rejected_deadline += 1;
                    phase.tiers.rejected_deadline += 1;
                    continue;
                }
                Decision::Serve(ServeTier::Full) => {
                    stats.tiers.full += 1;
                    phase.tiers.full += 1;
                }
                Decision::Serve(ServeTier::CacheOnly) => {
                    stats.tiers.cache_only += 1;
                    phase.tiers.cache_only += 1;
                }
                Decision::Serve(ServeTier::Heuristic) => {
                    stats.tiers.heuristic += 1;
                    phase.tiers.heuristic += 1;
                }
            }
            stats.completed += 1;
            latencies.push(resp.latency_ms());
            if req.deadline_ms.is_some_and(|d| resp.finish_ms > d) {
                stats.deadline_violations += 1;
            }
            match &resp.served {
                Served::CacheOnly { .. } => stats.cache_only_hits += 1,
                Served::CacheMiss => stats.cache_only_misses += 1,
                Served::FetchFailed { .. } => stats.fetch_failures += 1,
                _ => {}
            }
            if matches!(disp.decision, Decision::Serve(ServeTier::Full))
                && disp.fetch_error.is_none()
            {
                if disp.cache_hit {
                    stats.full_cache_hits += 1;
                } else {
                    stats.cold_analyses += 1;
                }
                if disp.batch_follower {
                    stats.batch_followers += 1;
                }
                if disp.reclassified {
                    stats.reclassified += 1;
                }
            }
        }
        stats.reloads = output.plan.reloads.len() as u64;
        stats.shards_invalidated = output
            .plan
            .reloads
            .iter()
            .map(|r| r.invalidated_shards.len() as u64)
            .sum();
        stats.max_queue_depth = output.plan.max_queue_depth as u64;

        latencies.sort_unstable();
        stats.p50_latency_ms = nearest_rank(&latencies, 50);
        stats.p99_latency_ms = nearest_rank(&latencies, 99);
        stats.max_latency_ms = latencies.last().copied().unwrap_or(0);
        if !latencies.is_empty() {
            stats.mean_latency_us = latencies.iter().sum::<u64>() * 1_000 / latencies.len() as u64;
        }
        let first_arrival = requests.first().map(|r| r.arrival_ms).unwrap_or(0);
        let last_finish = output
            .responses
            .iter()
            .map(|r| r.finish_ms)
            .max()
            .unwrap_or(first_arrival);
        stats.makespan_ms = last_finish.saturating_sub(first_arrival);
        stats.qps_x1000 = (stats.completed * 1_000_000)
            .checked_div(stats.makespan_ms)
            .unwrap_or(0);
        for phase in phases.values_mut() {
            phase.shed_per_mille = ((phase.tiers.shed() + phase.tiers.rejected()) * 1_000)
                .checked_div(phase.offered)
                .unwrap_or(0);
        }
        stats.phases = phases.into_values().collect();
        stats
    }

    /// Whether the tier partition is exact: admitted + rejected covers
    /// every offered request with nothing dropped or double-counted.
    pub fn partition_exact(&self) -> bool {
        self.tiers.total() == self.offered && self.tiers.admitted() == self.completed
    }

    /// Human-readable block (stable formatting; used by the report
    /// section).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "offered {}  completed {}  rejected {} (overload {}, deadline {})\n",
            self.offered,
            self.completed,
            self.tiers.rejected(),
            self.tiers.rejected_overload,
            self.tiers.rejected_deadline,
        ));
        out.push_str(&format!(
            "tiers: full {} (hits {}, cold {}, batched {}, reclassified {})  cache-only {} (hits {}, misses {})  heuristic {}\n",
            self.tiers.full,
            self.full_cache_hits,
            self.cold_analyses,
            self.batch_followers,
            self.reclassified,
            self.tiers.cache_only,
            self.cache_only_hits,
            self.cache_only_misses,
            self.tiers.heuristic,
        ));
        out.push_str(&format!(
            "latency: p50 {}ms  p99 {}ms  max {}ms  mean {}.{:03}ms\n",
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.max_latency_ms,
            self.mean_latency_us / 1_000,
            self.mean_latency_us % 1_000,
        ));
        out.push_str(&format!(
            "throughput: {}.{:03} req/s over {}ms  queue-depth max {}  reloads {} ({} shards)\n",
            self.qps_x1000 / 1_000,
            self.qps_x1000 % 1_000,
            self.makespan_ms,
            self.max_queue_depth,
            self.reloads,
            self.shards_invalidated,
        ));
        for phase in &self.phases {
            out.push_str(&format!(
                "  phase {:>8}: offered {:>6}  full {:>6}  cache-only {:>6}  heuristic {:>6}  rejected {:>6}  degraded {}.{}%\n",
                phase.label,
                phase.offered,
                phase.tiers.full,
                phase.tiers.cache_only,
                phase.tiers.heuristic,
                phase.tiers.rejected(),
                phase.shed_per_mille / 10,
                phase.shed_per_mille % 10,
            ));
        }
        out
    }
}

/// Exact nearest-rank percentile of a sorted list (0 when empty).
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1);
    sorted[(rank as usize - 1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::VerdictService;
    use crate::plan::{ServeConfig, ShedThresholds};
    use crate::request::Payload;
    use crate::snapshot::RuleSnapshot;

    fn body_req(id: u64, arrival: u64, src: &str) -> VerdictRequest {
        VerdictRequest {
            id,
            arrival_ms: arrival,
            deadline_ms: None,
            payload: Payload::Body {
                source: src.to_string(),
            },
            phase: (arrival / 100) as u32 % 2,
        }
    }

    #[test]
    fn nearest_rank_is_exact() {
        let sorted = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(nearest_rank(&sorted, 50), 5);
        assert_eq!(nearest_rank(&sorted, 99), 10);
        assert_eq!(nearest_rank(&sorted, 100), 10);
        assert_eq!(nearest_rank(&sorted, 1), 1);
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[7], 50), 7);
    }

    #[test]
    fn partition_is_exact_under_pressure() {
        let config = ServeConfig {
            lanes: 1,
            shed: ShedThresholds {
                full_below: 1,
                cache_only_below: 2,
                heuristic_below: 3,
            },
            ..ServeConfig::default()
        };
        let service = VerdictService::new(config);
        let reqs: Vec<VerdictRequest> = (0..20)
            .map(|i| body_req(i, (i / 4) * 2, &format!("let q{} = 1;", i % 3)))
            .collect();
        let boot = RuleSnapshot::new(0, "b", "", RuleSnapshot::standard_vendor_patterns());
        let out = service.serve(&reqs, &[], boot, None, None);
        let stats = ServeStats::compute(&reqs, &out, &["even".into(), "odd".into()]);
        assert!(
            stats.partition_exact(),
            "partition must be exact: {stats:?}"
        );
        assert_eq!(stats.offered, 20);
        assert!(stats.tiers.rejected() > 0, "pressure must reject some");
        assert!(stats.tiers.shed() > 0, "pressure must shed some");
        assert_eq!(stats.deadline_violations, 0);
        let phase_total: u64 = stats.phases.iter().map(|p| p.offered).sum();
        assert_eq!(phase_total, 20);
        let rendered = stats.render();
        assert!(rendered.contains("offered 20"));
        assert!(rendered.contains("phase"));
    }

    #[test]
    fn stats_json_is_stable() {
        let service = VerdictService::new(ServeConfig::default());
        let reqs: Vec<VerdictRequest> =
            (0..10).map(|i| body_req(i, i * 50, "let s = 1;")).collect();
        let boot = RuleSnapshot::new(0, "b", "", RuleSnapshot::standard_vendor_patterns());
        let out = service.serve(&reqs, &[], boot, None, None);
        let stats = ServeStats::compute(&reqs, &out, &[]);
        let a =
            serde_json::to_string_pretty(&stats).unwrap_or_else(|e| panic!("stats serialize: {e}"));
        let again = ServeStats::compute(&reqs, &out, &[]);
        let b =
            serde_json::to_string_pretty(&again).unwrap_or_else(|e| panic!("stats serialize: {e}"));
        assert_eq!(a, b);
        let back: ServeStats =
            serde_json::from_str(&a).unwrap_or_else(|e| panic!("stats roundtrip: {e}"));
        assert_eq!(back, stats);
    }
}
