//! Resilient-harness acceptance tests: a crawl over a synthetic web with
//! every fault kind injected — including induced worker panics and a
//! mid-crawl checkpoint/resume split — must complete with zero harness
//! panics, one record per frontier URL, a typed per-kind failure
//! breakdown, and byte-identical datasets across worker counts and resume
//! boundaries.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing_browser::DefenseMode;
use canvassing_crawler::{
    crawl, crawl_with_stats, resume_crawl, BreakerPlan, BreakerPolicy, CrawlConfig, CrawlDataset,
    FailureKind, RetryPolicy, VisitFidelity,
};
use canvassing_net::{Fault, FaultMatrix, PageResource, Resource, ScriptRef, ScriptResource, Url};
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

/// A synthetic web with a seeded fault matrix layered over roughly a third
/// of the popular frontier (on top of whatever down-sites the generator
/// already planned).
fn faulted_web(seed: u64) -> (SyntheticWeb, Vec<canvassing_net::Url>) {
    let mut web = SyntheticWeb::generate(WebConfig {
        seed: 11,
        scale: 0.02,
    });
    let frontier = web.frontier(Cohort::Popular);
    let matrix = FaultMatrix::new(seed);
    let targets: Vec<String> = frontier
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, u)| u.host.clone())
        .collect();
    matrix.inject_all(&mut web.network.faults, targets.iter().map(|h| h.as_str()));
    (web, frontier)
}

fn config(workers: usize, retries: u32) -> CrawlConfig {
    let mut config = CrawlConfig::control();
    config.workers = workers;
    config.retry = RetryPolicy::retries(retries);
    config
}

#[test]
fn full_fault_matrix_crawl_yields_one_typed_record_per_site() {
    let (web, frontier) = faulted_web(1);
    let ds = crawl(&web.network, &frontier, &config(8, 0));
    assert_eq!(
        ds.records.len(),
        frontier.len(),
        "one record per frontier URL"
    );
    for (r, u) in ds.records.iter().zip(&frontier) {
        assert_eq!(&r.url, u, "records stay in frontier order");
    }
    let breakdown = ds.failure_breakdown();
    assert_eq!(
        breakdown.values().sum::<usize>(),
        ds.failed().count(),
        "breakdown covers every failure"
    );
    // The matrix hits enough hosts that several kinds must appear,
    // including isolated worker panics.
    assert!(
        breakdown.len() >= 4,
        "expected a diverse breakdown, got {breakdown:?}"
    );
    assert!(
        breakdown.contains_key(&FailureKind::WorkerPanic),
        "matrix plants Fault::Panic hosts; isolation must record them: {breakdown:?}"
    );
}

#[test]
fn faulted_crawl_is_byte_identical_across_worker_counts() {
    let (web, frontier) = faulted_web(2);
    let a = crawl(&web.network, &frontier, &config(1, 1));
    let b = crawl(&web.network, &frontier, &config(8, 1));
    assert_eq!(
        a.to_json().unwrap(),
        b.to_json().unwrap(),
        "records must be pure functions of (url, config, network)"
    );

    // Per-render randomization bypasses the render memo, so every script
    // runs in place on a defended document; with breakers and salvage on
    // the dataset must still not depend on the schedule.
    let defended = |workers: usize| {
        let mut cfg = config(workers, 1);
        cfg.defense = DefenseMode::RandomizePerRender { seed: 1 };
        cfg.breakers = BreakerPolicy::enabled();
        cfg.salvage = true;
        cfg
    };
    let reference = crawl(&web.network, &frontier, &defended(1));
    assert!(reference.salvaged().count() > 0, "matrix produces salvage");
    for workers in [4, 8] {
        assert_eq!(
            crawl(&web.network, &frontier, &defended(workers))
                .to_json()
                .unwrap(),
            reference.to_json().unwrap(),
            "defended crawl with breakers and salvage diverged at {workers} workers"
        );
    }
}

#[test]
fn checkpoint_resume_matches_the_uninterrupted_crawl() {
    let (web, frontier) = faulted_web(3);
    let cfg = config(4, 1);
    let full = crawl(&web.network, &frontier, &cfg);

    // Interrupt after an arbitrary prefix; also drop one record from the
    // middle to model a worker that died before reporting.
    let mut partial_records = full.records[..frontier.len() / 2].to_vec();
    partial_records.remove(frontier.len() / 4);
    let checkpoint = CrawlDataset {
        label: full.label.clone(),
        device_id: full.device_id.clone(),
        records: partial_records,
    };
    let resumed = resume_crawl(&web.network, &frontier, &cfg, &checkpoint);
    assert_eq!(
        resumed.to_json().unwrap(),
        full.to_json().unwrap(),
        "resume must merge to the exact uninterrupted dataset"
    );
}

#[test]
fn retries_heal_transient_faults_without_disturbing_permanent_ones() {
    let (web, frontier) = faulted_web(4);
    let visit_once = crawl(&web.network, &frontier, &config(4, 0));
    let with_retries = crawl(&web.network, &frontier, &config(4, 3));

    let transient = |ds: &CrawlDataset| ds.failed().filter(|(_, f)| f.kind.is_transient()).count();
    // TransientConnect plans only 1–3 failing attempts; three retries
    // clear every one of them. DNS-timeout hosts stay transient-kind but
    // never heal — they are planned permanent.
    assert!(transient(&visit_once) > 0, "matrix plants transient faults");
    let healed: Vec<_> = visit_once
        .failed()
        .filter(|(_, f)| f.kind == FailureKind::Transient)
        .map(|(u, _)| u.clone())
        .collect();
    assert!(!healed.is_empty());
    for url in &healed {
        let record = with_retries.records.iter().find(|r| &r.url == url).unwrap();
        assert!(
            matches!(record.outcome, canvassing_crawler::SiteOutcome::Success(_)),
            "{url} should heal under retries"
        );
    }
    // Permanent failures are identical in both datasets.
    let permanent = |ds: &CrawlDataset| -> Vec<(String, FailureKind)> {
        ds.failed()
            .filter(|(_, f)| !f.kind.is_transient())
            .map(|(u, f)| (u.to_string(), f.kind))
            .collect()
    };
    assert_eq!(permanent(&visit_once), permanent(&with_retries));
}

#[test]
fn deadline_and_fuel_map_to_typed_kinds() {
    let mut web = SyntheticWeb::generate(WebConfig {
        seed: 11,
        scale: 0.02,
    });
    let frontier = web.frontier(Cohort::Popular);
    // Pick two healthy hosts and plant a latency spike on one.
    let ds = crawl(&web.network, &frontier, &CrawlConfig::control());
    let healthy: Vec<_> = ds.successful().map(|(u, _)| u.clone()).collect();
    assert!(healthy.len() >= 2);
    web.network
        .faults
        .inject(&healthy[0].host, Fault::LatencySpike { extra_ms: 90_000 });

    let ds = crawl(&web.network, &frontier, &CrawlConfig::control());
    let spiked = ds.records.iter().find(|r| r.url == healthy[0]).unwrap();
    match &spiked.outcome {
        canvassing_crawler::SiteOutcome::Failure(f) => {
            assert_eq!(f.kind, FailureKind::Timeout)
        }
        _ => panic!("spiked site must time out"),
    }

    // A starvation-level fuel budget turns script-heavy visits into
    // ScriptCrash failures instead of hanging anything.
    let mut starved = CrawlConfig::control();
    starved.policy.fuel = Some(10);
    let ds = crawl(&web.network, &frontier, &starved);
    assert!(
        ds.failed().any(|(_, f)| f.kind == FailureKind::ScriptCrash),
        "fuel exhaustion must surface as ScriptCrash"
    );
}

#[test]
fn retry_timeouts_heals_slow_start_hosts_but_not_permanent_spikes() {
    // The matrix plants both SlowStart (a latency spike that heals after
    // 1–2 attempts) and LatencySpike (permanent) hosts. Timeouts are not
    // retried by default — a deadline blown once usually means a
    // deadline blown every time — so both fail. Opting in to
    // `retry_timeouts` must heal exactly the SlowStart sites: the spike
    // is followed by a normal-latency success on the retry.
    let (web, frontier) = faulted_web(5);
    let slow_start: Vec<_> = frontier
        .iter()
        .filter(|u| {
            matches!(
                web.network.faults.fault_for(&u.host),
                Some(Fault::SlowStart { .. })
            )
        })
        .collect();
    let spiked: Vec<_> = frontier
        .iter()
        .filter(|u| {
            matches!(
                web.network.faults.fault_for(&u.host),
                Some(Fault::LatencySpike { .. })
            )
        })
        .collect();
    assert!(!slow_start.is_empty(), "matrix plants SlowStart hosts");
    assert!(!spiked.is_empty(), "matrix plants LatencySpike hosts");

    let outcome = |ds: &CrawlDataset, url: &canvassing_net::Url| -> Option<FailureKind> {
        match &ds.records.iter().find(|r| &r.url == url).unwrap().outcome {
            canvassing_crawler::SiteOutcome::Success(_) => None,
            canvassing_crawler::SiteOutcome::Failure(f) => Some(f.kind),
        }
    };

    let default_retries = crawl(&web.network, &frontier, &config(4, 2));
    for url in slow_start.iter().chain(&spiked) {
        assert_eq!(
            outcome(&default_retries, url),
            Some(FailureKind::Timeout),
            "{url} must time out while timeouts are not retried"
        );
    }

    let mut healing = config(4, 2);
    healing.retry.retry_timeouts = true;
    let healed = crawl(&web.network, &frontier, &healing);
    for url in &slow_start {
        assert_eq!(
            outcome(&healed, url),
            None,
            "{url} must heal: spike-then-success under retry_timeouts"
        );
    }
    for url in &spiked {
        assert_eq!(
            outcome(&healed, url),
            Some(FailureKind::Timeout),
            "{url} spikes permanently; retrying must not mask it"
        );
    }
}

/// N page hosts all referencing one shared external script host.
fn shared_script_web(page_hosts: usize, script_host: &str) -> (canvassing_net::Network, Vec<Url>) {
    let mut network = canvassing_net::Network::new();
    let script_url = Url::https(script_host, "/fp.js");
    network.host(
        &script_url,
        Resource::Script(ScriptResource {
            source: "let shared = 1;".into(),
            label: "s".into(),
        }),
    );
    let mut frontier = Vec::new();
    for i in 0..page_hosts {
        let url = Url::https(&format!("site{i}.example"), "/");
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

#[test]
fn retried_timeouts_charge_the_breaker_once_per_reference_not_per_attempt() {
    // Six pages share one script host that spikes past the visit deadline
    // on *every* attempt. With `retry_timeouts` and 3 retries, each visit
    // burns 4 attempts on the host — but a retried timeout must settle to
    // ONE failure charge per reference. At threshold 3 the circuit
    // therefore opens at frontier slot 2 (the 3rd referencing visit); if
    // attempts were charged individually, slot 0 alone would trip it.
    let (mut network, frontier) = shared_script_web(6, "cdn.slow.net");
    network
        .faults
        .inject("cdn.slow.net", Fault::LatencySpike { extra_ms: 60_000 });

    let mut cfg = config(4, 3);
    cfg.retry.retry_timeouts = true;
    cfg.breakers = BreakerPolicy::enabled(); // threshold 3

    let plan = BreakerPlan::plan(&network, &frontier, &cfg).expect("breakers enabled");
    let stats = &plan.host_stats["cdn.slow.net"];
    assert_eq!(
        stats.failures, 3,
        "one charge per referencing visit, not per retry attempt"
    );
    assert_eq!(stats.opens, 1);
    assert_eq!(stats.short_circuits, 3, "slots 3..6 short-circuit");
    assert!(plan.open_hosts(2).expect("slot 2").is_empty());
    assert!(plan.transitions_at(2).contains(&(
        "cdn.slow.net".into(),
        canvassing_crawler::BreakerEvent::Opened
    )));
    for slot in 3..6 {
        assert!(
            plan.open_hosts(slot)
                .expect("slot")
                .contains("cdn.slow.net"),
            "slot {slot} must see the open circuit"
        );
    }

    // End to end: the crawl's breaker accounting agrees with the plan.
    let (_, crawl_stats) = crawl_with_stats(&network, &frontier, &cfg);
    assert_eq!(crawl_stats.breaker_opens, 1);
    assert_eq!(crawl_stats.breaker_short_circuits, 3);
}

#[test]
fn healed_slow_start_retries_never_charge_the_breaker() {
    // The same topology, but the script host's spike is a SlowStart that
    // heals after 2 attempts. Under `retry_timeouts` every reference
    // eventually settles, so the breaker must see zero failure charges —
    // while the default policy (timeouts not retried) charges every visit
    // and opens the circuit at slot 2.
    let (mut network, frontier) = shared_script_web(6, "cdn.congested.net");
    network.faults.inject(
        "cdn.congested.net",
        Fault::SlowStart {
            extra_ms: 60_000,
            attempts: 2,
        },
    );

    let mut healing = config(4, 3);
    healing.retry.retry_timeouts = true;
    healing.breakers = BreakerPolicy::enabled();
    let plan = BreakerPlan::plan(&network, &frontier, &healing).expect("breakers enabled");
    let stats = &plan.host_stats["cdn.congested.net"];
    assert_eq!(stats.failures, 0, "healed retries must not charge");
    assert_eq!(stats.opens, 0);

    let mut strict = config(4, 3);
    strict.breakers = BreakerPolicy::enabled();
    let plan = BreakerPlan::plan(&network, &frontier, &strict).expect("breakers enabled");
    let stats = &plan.host_stats["cdn.congested.net"];
    assert_eq!(stats.failures, 3, "unretried timeouts charge per visit");
    assert_eq!(stats.opens, 1);
}

#[test]
fn fidelity_tiers_partition_the_frontier_under_the_full_matrix() {
    let (web, frontier) = faulted_web(6);
    let mut cfg = config(8, 1);
    cfg.salvage = true;
    let ds = crawl(&web.network, &frontier, &cfg);
    let tiers = ds.fidelity_breakdown();
    assert_eq!(
        tiers.values().sum::<usize>(),
        frontier.len(),
        "every site lands in exactly one fidelity tier: {tiers:?}"
    );
    assert_eq!(tiers[&VisitFidelity::Full], ds.success_count());
    assert_eq!(
        tiers[&VisitFidelity::FetchOnly] + tiers[&VisitFidelity::StaticSalvage],
        ds.salvaged().count(),
        "salvage tiers cover exactly the failures carrying partial visits"
    );
    // Opting out of salvage demotes every salvaged site to Lost and
    // changes nothing else.
    let mut no_salvage = config(8, 1);
    no_salvage.salvage = false;
    let bare = crawl(&web.network, &frontier, &no_salvage);
    let bare_tiers = bare.fidelity_breakdown();
    assert_eq!(bare_tiers[&VisitFidelity::StaticSalvage], 0);
    assert_eq!(bare_tiers[&VisitFidelity::FetchOnly], 0);
    assert_eq!(
        bare_tiers[&VisitFidelity::Lost],
        tiers[&VisitFidelity::Lost]
            + tiers[&VisitFidelity::FetchOnly]
            + tiers[&VisitFidelity::StaticSalvage]
    );
    assert_eq!(
        bare_tiers[&VisitFidelity::Full],
        tiers[&VisitFidelity::Full]
    );
}
