//! Per-host circuit breakers, planned deterministically.
//!
//! A naive breaker keyed on runtime fetch order would make datasets
//! depend on worker interleaving: whichever worker happens to hit a sick
//! host for the Kth time first would flip the circuit, and a different
//! schedule would flip it at a different frontier position. Instead the
//! breaker state machine is *planned*: before any worker starts, the plan
//! walks the frontier sequentially (a pure function of
//! `(network, frontier, config)`), simulating every host reference a
//! visit would make via [`Network::probe`] — no resource clones, no
//! side effects, and injected panics probe as plain failures. The result
//! is, per frontier slot, the set of hosts whose circuit is open when
//! that visit runs, plus the state transitions attributable to that slot.
//! Workers consult the plan by index, so breaker behavior is byte-identical
//! across worker counts, cache temperature, and checkpoint/resume splits.
//!
//! State machine per host (logical ticks, no wall time):
//!
//! ```text
//!         K consecutive failures          cooldown_ticks references
//! Closed ───────────────────────▶ Open ───────────────────────▶ HalfOpen
//!    ▲                             ▲                               │
//!    │            probe fails (reopen)                 probe succeeds
//!    └──────────────────────────────◀──────────────────────────────┘
//! ```
//!
//! While Open, every reference to the host short-circuits (no fetch) and
//! ticks the cooldown. A tick is a *reference*, not a clock: a host
//! nobody references stays Open forever, which is the right behavior for
//! a crawl (there is nothing to probe for).
//!
//! Breaker state advances **between** frontier slots, never within one:
//! all references of one visit see the snapshot taken before the visit,
//! and the charges they generate apply afterwards. This keeps the
//! per-visit open-host set well defined (and identical between the plan
//! and `visit_site`'s behavior).

use std::collections::{BTreeMap, BTreeSet};

use canvassing_browser::Extension;
use canvassing_net::{Network, Resource, ScriptRef, Url};
use serde::{Deserialize, Serialize};

use crate::{CrawlConfig, RetryPolicy};

/// Circuit-breaker policy for a crawl. Disabled by default: the paper's
/// crawls visit every site regardless of host health, and breakers change
/// what the dataset records (short-circuited sites), so they are strictly
/// opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Whether breakers are active at all.
    pub enabled: bool,
    /// Consecutive failures on a host that open its circuit (K).
    pub failure_threshold: u32,
    /// Short-circuited references an open circuit absorbs before moving
    /// to half-open (the logical-tick cooldown).
    pub cooldown_ticks: u32,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy::disabled()
    }
}

impl BreakerPolicy {
    /// Breakers off (the paper-faithful default).
    pub fn disabled() -> BreakerPolicy {
        BreakerPolicy {
            enabled: false,
            failure_threshold: 3,
            cooldown_ticks: 8,
        }
    }

    /// Breakers on with the default thresholds (open after 3 consecutive
    /// failures, half-open probe after 8 short-circuited references).
    pub fn enabled() -> BreakerPolicy {
        BreakerPolicy {
            enabled: true,
            ..BreakerPolicy::disabled()
        }
    }
}

/// A breaker state transition, attributed to the frontier slot whose
/// references caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerEvent {
    /// Closed → Open: the host crossed the failure threshold.
    Opened,
    /// Open → HalfOpen: the cooldown elapsed; the next reference probes.
    HalfOpen,
    /// HalfOpen → Closed: the probe succeeded.
    Closed,
    /// HalfOpen → Open: the probe failed; cooldown restarts.
    Reopened,
}

impl BreakerEvent {
    /// Trace-instant name for this transition.
    pub fn instant_name(&self) -> &'static str {
        match self {
            BreakerEvent::Opened => "breaker.open",
            BreakerEvent::HalfOpen => "breaker.half_open",
            BreakerEvent::Closed => "breaker.close",
            BreakerEvent::Reopened => "breaker.reopen",
        }
    }
}

/// Per-host tallies for the report's breaker table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerHostStats {
    /// Times the circuit opened (including reopens).
    pub opens: u32,
    /// Times a half-open probe closed it again.
    pub closes: u32,
    /// References short-circuited while open.
    pub short_circuits: u64,
    /// Failure charges against the host.
    pub failures: u64,
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { fails: u32 },
    Open { ticks: u32 },
    HalfOpen,
}

/// The precomputed breaker schedule for one crawl.
#[derive(Debug, Clone, Default)]
pub struct BreakerPlan {
    /// Per frontier slot: hosts whose circuit is open when the visit runs.
    open_at: Vec<BTreeSet<String>>,
    /// Per frontier slot: transitions caused by that slot's references.
    transitions: Vec<Vec<(String, BreakerEvent)>>,
    /// Per-host tallies over the whole plan.
    pub host_stats: BTreeMap<String, BreakerHostStats>,
}

impl BreakerPlan {
    /// Plans breaker state over the frontier for `config`. Returns `None`
    /// when the config's breaker policy is disabled (the common case —
    /// zero overhead).
    pub fn plan(network: &Network, frontier: &[Url], config: &CrawlConfig) -> Option<BreakerPlan> {
        let policy = config.breakers;
        if !policy.enabled {
            return None;
        }
        let extension = config
            .adblocker
            .as_ref()
            .map(|(kind, list)| Extension::new(*kind, list));
        let deadline = config.policy.deadline_ms;

        let mut state: BTreeMap<String, BreakerState> = BTreeMap::new();
        let mut plan = BreakerPlan {
            open_at: Vec::with_capacity(frontier.len()),
            transitions: Vec::with_capacity(frontier.len()),
            host_stats: BTreeMap::new(),
        };

        for page_url in frontier {
            // Snapshot: the open set every reference of this visit sees.
            let open: BTreeSet<String> = state
                .iter()
                .filter(|(_, s)| matches!(s, BreakerState::Open { .. }))
                .map(|(h, _)| h.clone())
                .collect();

            // Walk the references this visit would make, in order,
            // deciding against the snapshot and queuing the outcomes.
            // `true` = failure charge, `false` = success; ticks are
            // queued as short-circuits.
            enum Touch {
                Charge { failed: bool },
                ShortCircuit,
            }
            let mut touches: Vec<(String, Touch)> = Vec::new();

            let page_ok = if open.contains(&page_url.host) {
                touches.push((page_url.host.clone(), Touch::ShortCircuit));
                false
            } else {
                let ok = settles(network, page_url, &config.retry, deadline);
                touches.push((page_url.host.clone(), Touch::Charge { failed: !ok }));
                ok
            };

            if page_ok {
                // The page arrives: its external script references fire
                // (except the ones the extension blocks before any fetch).
                if let Some(Resource::Page(page)) = network.peek(page_url) {
                    for script_ref in &page.scripts {
                        let ScriptRef::External(url) = script_ref else {
                            continue;
                        };
                        if let Some(ext) = &extension {
                            if ext.check_script(page_url, url, &network.dns).is_some() {
                                continue;
                            }
                        }
                        if open.contains(&url.host) {
                            touches.push((url.host.clone(), Touch::ShortCircuit));
                        } else {
                            let ok = settles(network, url, &config.retry, deadline);
                            touches.push((url.host.clone(), Touch::Charge { failed: !ok }));
                        }
                    }
                }
            }

            // Apply the queued outcomes, recording transitions for this
            // slot.
            let mut events: Vec<(String, BreakerEvent)> = Vec::new();
            for (host, touch) in touches {
                let entry = state
                    .entry(host.clone())
                    .or_insert(BreakerState::Closed { fails: 0 });
                let stats = plan.host_stats.entry(host.clone()).or_default();
                match touch {
                    Touch::ShortCircuit => {
                        stats.short_circuits += 1;
                        if let BreakerState::Open { ticks } = entry {
                            *ticks += 1;
                            if *ticks >= policy.cooldown_ticks {
                                *entry = BreakerState::HalfOpen;
                                events.push((host, BreakerEvent::HalfOpen));
                            }
                        }
                    }
                    Touch::Charge { failed } => {
                        if failed {
                            stats.failures += 1;
                        }
                        match (*entry, failed) {
                            (BreakerState::Closed { fails }, true) => {
                                let fails = fails + 1;
                                if fails >= policy.failure_threshold {
                                    *entry = BreakerState::Open { ticks: 0 };
                                    stats.opens += 1;
                                    events.push((host, BreakerEvent::Opened));
                                } else {
                                    *entry = BreakerState::Closed { fails };
                                }
                            }
                            (BreakerState::Closed { .. }, false) => {
                                *entry = BreakerState::Closed { fails: 0 };
                            }
                            (BreakerState::HalfOpen, true) => {
                                *entry = BreakerState::Open { ticks: 0 };
                                stats.opens += 1;
                                events.push((host, BreakerEvent::Reopened));
                            }
                            (BreakerState::HalfOpen, false) => {
                                *entry = BreakerState::Closed { fails: 0 };
                                stats.closes += 1;
                                events.push((host, BreakerEvent::Closed));
                            }
                            // Open hosts only receive short-circuits (the
                            // snapshot said open ⇒ no charge was queued);
                            // an Open state here means the breaker opened
                            // earlier *in this same slot's queue* (same
                            // host referenced twice) — absorb as a tick.
                            (BreakerState::Open { ticks }, _) => {
                                stats.short_circuits += 1;
                                let ticks = ticks + 1;
                                if ticks >= policy.cooldown_ticks {
                                    *entry = BreakerState::HalfOpen;
                                    events.push((host, BreakerEvent::HalfOpen));
                                } else {
                                    *entry = BreakerState::Open { ticks };
                                }
                            }
                        }
                    }
                }
            }
            plan.open_at.push(open);
            plan.transitions.push(events);
        }
        Some(plan)
    }

    /// Hosts whose circuit is open when frontier slot `index` runs.
    pub fn open_hosts(&self, index: usize) -> Option<&BTreeSet<String>> {
        self.open_at.get(index)
    }

    /// Transitions caused by frontier slot `index`'s references.
    pub fn transitions_at(&self, index: usize) -> &[(String, BreakerEvent)] {
        self.transitions
            .get(index)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total circuit-open transitions across the plan.
    pub fn total_opens(&self) -> u64 {
        self.host_stats.values().map(|s| u64::from(s.opens)).sum()
    }

    /// Total short-circuited references across the plan.
    pub fn total_short_circuits(&self) -> u64 {
        self.host_stats.values().map(|s| s.short_circuits).sum()
    }
}

/// Whether a fetch of `url` would eventually succeed under the retry
/// policy: probes attempt numbers the way [`crate::visit_site`] would,
/// retrying transient errors (and deadline blowouts when
/// `retry_timeouts`) up to `max_retries`. A response slower than the
/// visit deadline counts as failure — that is how a latency-spiked host
/// kills visits.
fn settles(network: &Network, url: &Url, retry: &RetryPolicy, deadline: Option<u64>) -> bool {
    let mut attempt = 0u32;
    loop {
        let retryable = match network.probe(url, attempt) {
            Ok(latency) => {
                if deadline.is_none_or(|d| latency <= d) {
                    return true;
                }
                retry.retry_timeouts
            }
            Err(e) => e.is_transient(),
        };
        if retryable && attempt < retry.max_retries {
            attempt += 1;
            continue;
        }
        return false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_net::{Fault, PageResource, ScriptResource};

    fn network_with(frontier_hosts: &[&str], script_host: &str) -> (Network, Vec<Url>) {
        let mut network = Network::new();
        let script_url = Url::https(script_host, "/fp.js");
        network.host(
            &script_url,
            Resource::Script(ScriptResource {
                source: "let x = 1;".into(),
                label: "s".into(),
            }),
        );
        let mut frontier = Vec::new();
        for host in frontier_hosts {
            let url = Url::https(host, "/");
            network.host(
                &url,
                Resource::Page(PageResource {
                    scripts: vec![ScriptRef::External(script_url.clone())],
                    consent_banner: false,
                    bot_check: false,
                }),
            );
            frontier.push(url);
        }
        (network, frontier)
    }

    fn breaker_config(threshold: u32, cooldown: u32) -> CrawlConfig {
        let mut config = CrawlConfig::control();
        config.breakers = BreakerPolicy {
            enabled: true,
            failure_threshold: threshold,
            cooldown_ticks: cooldown,
        };
        config
    }

    #[test]
    fn disabled_policy_plans_nothing() {
        let (network, frontier) = network_with(&["a.com", "b.com"], "cdn.net");
        assert!(BreakerPlan::plan(&network, &frontier, &CrawlConfig::control()).is_none());
    }

    #[test]
    fn shared_sick_host_opens_after_threshold_and_short_circuits() {
        let hosts: Vec<String> = (0..10).map(|i| format!("site{i}.com")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let (mut network, frontier) = network_with(&refs, "cdn.net");
        network.faults.take_down("cdn.net");

        let config = breaker_config(3, 100);
        let plan = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        // Visits 0..3 charge the script host; it opens at slot 2 (3rd
        // consecutive failure) and every later visit sees it open.
        assert!(plan.open_hosts(2).unwrap().is_empty());
        assert!(plan
            .transitions_at(2)
            .contains(&("cdn.net".into(), BreakerEvent::Opened)));
        for i in 3..10 {
            assert!(
                plan.open_hosts(i).unwrap().contains("cdn.net"),
                "slot {i} must see the open circuit"
            );
        }
        let stats = &plan.host_stats["cdn.net"];
        assert_eq!(stats.opens, 1);
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.short_circuits, 7);
        assert_eq!(plan.total_opens(), 1);
        assert_eq!(plan.total_short_circuits(), 7);
    }

    #[test]
    fn cooldown_leads_to_half_open_probe_and_close_on_recovery() {
        // The script host fails only the first 3 attempts *of attempt
        // number 0*... TransientConnect keys on attempt, not time, so use
        // a different shape: the page hosts themselves are fine; the
        // script host is permanently down, opens, cools down after 2
        // short-circuits, half-opens, probes (still down), reopens.
        let hosts: Vec<String> = (0..8).map(|i| format!("site{i}.com")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let (mut network, frontier) = network_with(&refs, "cdn.net");
        network.faults.take_down("cdn.net");

        let config = breaker_config(2, 2);
        let plan = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        // Slots 0,1 fail → open at slot 1. Slots 2,3 short-circuit →
        // half-open at slot 3. Slot 4 probes, fails → reopen. Slots 5,6
        // short-circuit → half-open at 6. Slot 7 probes, fails → reopen.
        assert!(plan
            .transitions_at(1)
            .contains(&("cdn.net".into(), BreakerEvent::Opened)));
        assert!(plan
            .transitions_at(3)
            .contains(&("cdn.net".into(), BreakerEvent::HalfOpen)));
        assert!(plan
            .transitions_at(4)
            .contains(&("cdn.net".into(), BreakerEvent::Reopened)));
        assert!(!plan.open_hosts(4).unwrap().contains("cdn.net"));
        let stats = &plan.host_stats["cdn.net"];
        assert_eq!(stats.opens, 3, "initial open + two reopens");
        assert_eq!(stats.closes, 0);
    }

    #[test]
    fn half_open_probe_closes_on_healed_host() {
        // TransientConnect { failures: 1 } with a retryless policy: every
        // settle at attempt 0 fails... so the host opens; but with one
        // retry the probe settles at attempt 1 and the breaker closes.
        let hosts: Vec<String> = (0..6).map(|i| format!("site{i}.com")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let (mut network, frontier) = network_with(&refs, "cdn.net");
        network
            .faults
            .inject("cdn.net", Fault::TransientConnect { failures: 1 });

        // Without retries the host never settles: opens and stays sick.
        let config = breaker_config(2, 1);
        let plan = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        assert!(plan.host_stats["cdn.net"].opens >= 1);
        assert_eq!(plan.host_stats["cdn.net"].closes, 0);

        // With a retry, every settle succeeds: the breaker never opens.
        let mut config = breaker_config(2, 1);
        config.retry = RetryPolicy::retries(1);
        let plan = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        assert_eq!(plan.host_stats["cdn.net"].opens, 0);
        assert_eq!(plan.host_stats["cdn.net"].failures, 0);
    }

    #[test]
    fn latency_spike_past_deadline_charges_failures() {
        let hosts: Vec<String> = (0..4).map(|i| format!("site{i}.com")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let (mut network, frontier) = network_with(&refs, "cdn.net");
        network
            .faults
            .inject("cdn.net", Fault::LatencySpike { extra_ms: 60_000 });
        let config = breaker_config(2, 10);
        let plan = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        assert!(
            plan.host_stats["cdn.net"].opens >= 1,
            "deadline-blowing latency must charge the breaker"
        );
    }

    #[test]
    fn failed_page_does_not_charge_its_scripts() {
        let (mut network, frontier) = network_with(&["a.com", "b.com", "c.com"], "cdn.net");
        for h in ["a.com", "b.com", "c.com"] {
            network.faults.take_down(h);
        }
        let config = breaker_config(2, 10);
        let plan = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        assert!(
            !plan.host_stats.contains_key("cdn.net"),
            "dead pages never reference their scripts"
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let hosts: Vec<String> = (0..12).map(|i| format!("site{i}.com")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let (mut network, frontier) = network_with(&refs, "cdn.net");
        network.faults.take_down("cdn.net");
        network.faults.take_down("site5.com");
        let config = breaker_config(2, 3);
        let a = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        let b = BreakerPlan::plan(&network, &frontier, &config).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
