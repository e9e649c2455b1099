//! Verdict-serving daemon acceptance tests: the standard load schedule
//! over a webgen corpus — burst and overload phases, injected network
//! faults, and a mid-run blocklist reload — must produce a byte-identical
//! response stream across worker counts, an exact shed-tier partition,
//! zero deadline violations, zero dropped requests, and exactly the
//! classifier work the admission plan predicted.

// Tests exercise failure paths where panicking on a broken invariant is
// the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing_net::{Network, Url};
use canvassing_serve::{
    generate, harvest_corpus, Corpus, LoadProfile, Payload, ReloadEvent, RuleSnapshot, ServeConfig,
    ServeOutput, ServeStats, Served, ShedThresholds, VerdictRequest, VerdictService,
};
use canvassing_trace::{CountingSink, TraceSink};
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

/// The fixture's exact run summary. To regenerate after an intentional
/// change: `UPDATE_GOLDEN=1 cargo test --test serve`, then review the diff.
const SERVE_STATS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_stats.json"
);

/// A small synthetic web plus a harvested script corpus and the standard
/// load schedule compressed to test length.
fn soak_fixture() -> (SyntheticWeb, Corpus, Vec<VerdictRequest>, Vec<ReloadEvent>) {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 77,
        scale: 0.02,
    });
    let frontier = web.frontier(Cohort::Popular);
    let corpus = harvest_corpus(&web.network, &frontier, 64);
    assert!(!corpus.is_empty(), "webgen frontier must yield scripts");

    let mut profile = LoadProfile::standard(77);
    for phase in &mut profile.phases {
        phase.duration_ms = (phase.duration_ms / 20).max(20);
    }
    let total_ms: u64 = profile.phases.iter().map(|p| p.duration_ms).sum();
    let requests = generate(&profile, &corpus);
    assert!(requests.len() > 100, "schedule must carry real pressure");

    // Mid-run reload: EasyPrivacy lands on top of the boot list, plus one
    // unanchored rule so every cache shard is invalidated.
    let reloads = vec![ReloadEvent {
        at_ms: total_ms / 2,
        name: "easylist+easyprivacy".into(),
        list_text: format!(
            "{}\n{}\n/fpsoak-collect/*$script\n",
            web.lists.easylist, web.lists.easyprivacy
        ),
        vendor_patterns: None,
    }];
    (web, corpus, requests, reloads)
}

fn boot_snapshot(web: &SyntheticWeb) -> RuleSnapshot {
    RuleSnapshot::new(
        0,
        "easylist-boot",
        &web.lists.easylist,
        RuleSnapshot::standard_vendor_patterns(),
    )
}

fn run(
    web: &SyntheticWeb,
    requests: &[VerdictRequest],
    reloads: &[ReloadEvent],
    workers: usize,
    sink: Option<&dyn TraceSink>,
) -> (VerdictService, ServeOutput) {
    let service = VerdictService::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    });
    let out = service.serve(
        requests,
        reloads,
        boot_snapshot(web),
        Some(&web.network),
        sink,
    );
    (service, out)
}

#[test]
fn response_stream_is_byte_identical_across_worker_counts() {
    let (web, _, requests, reloads) = soak_fixture();
    let streams: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&w| {
            let (_, out) = run(&web, &requests, &reloads, w, None);
            serde_json::to_string(&out.responses).unwrap()
        })
        .collect();
    assert_eq!(streams[0], streams[1], "workers 1 vs 4 diverged");
    assert_eq!(streams[1], streams[2], "workers 4 vs 8 diverged");
}

#[test]
fn shed_partition_is_exact_and_deadlines_propagate() {
    let (web, _, requests, reloads) = soak_fixture();
    let sink = CountingSink::default();
    let (_, out) = run(&web, &requests, &reloads, 4, Some(&sink));
    let labels: Vec<String> = ["ramp", "steady", "burst", "overload", "drain"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let stats = ServeStats::compute(&requests, &out, &labels);

    assert!(
        stats.partition_exact(),
        "partition must be exact: {stats:?}"
    );
    assert_eq!(stats.offered, requests.len() as u64);
    // The overload schedule exercises the whole admission ladder.
    assert!(stats.tiers.full > 0, "steady phase serves full fidelity");
    assert!(stats.tiers.shed() > 0, "burst must shed tiers");
    assert!(stats.tiers.rejected_overload > 0, "overload must reject");
    assert!(
        stats.tiers.rejected_deadline > 0,
        "deep queues must reject unmeetable deadlines at admission"
    );
    // Deadline propagation: rejection happens at admission, so no
    // completed response may finish past its deadline.
    assert_eq!(stats.deadline_violations, 0);
    for (req, resp) in requests.iter().zip(&out.responses) {
        if resp.served.is_completed() {
            if let Some(d) = req.deadline_ms {
                assert!(
                    resp.finish_ms <= d,
                    "request {} violated its deadline",
                    req.id
                );
            }
        }
    }

    // The trace sink saw one per-request visit for every offered request.
    let (visits, _, _) = sink.totals();
    assert_eq!(visits, stats.offered, "one trace per offered request");

    // The whole summary is deterministic: pin it exactly.
    let json = serde_json::to_string_pretty(&stats).unwrap() + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SERVE_STATS_GOLDEN, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(SERVE_STATS_GOLDEN)
        .expect("golden stats missing: run with UPDATE_GOLDEN=1 to create them");
    assert_eq!(json, golden, "ServeStats drifted from the golden summary");
}

#[test]
fn mid_run_reload_drops_nothing_and_reclassifies_under_the_new_epoch() {
    let (web, _, requests, reloads) = soak_fixture();
    let (service, out) = run(&web, &requests, &reloads, 4, None);

    // Zero drops: a dense in-order 1:1 response per offered request.
    assert_eq!(out.responses.len(), requests.len());
    for (req, resp) in requests.iter().zip(&out.responses) {
        assert_eq!(req.id, resp.id, "responses deliver in request order");
    }

    // The reload applied, invalidated shards, and forced incremental
    // re-classification on the hot path.
    assert_eq!(out.plan.reloads.len(), 1);
    assert!(!out.plan.reloads[0].invalidated_shards.is_empty());
    let epochs = service.epoch_stats();
    assert!(epochs.stale_refreshes > 0, "hot bodies must re-classify");

    // Epoch stamping: requests admitted before the swap answer on epoch
    // 0, requests admitted after answer on epoch 1 — never mixed.
    let swap = reloads[0].at_ms;
    for (req, resp) in requests.iter().zip(&out.responses) {
        let expected = u64::from(req.arrival_ms >= swap);
        assert_eq!(
            resp.epoch, expected,
            "request {} (arrival {}ms) answered on the wrong epoch",
            req.id, req.arrival_ms
        );
    }
}

#[test]
fn classifier_work_matches_the_admission_plan_exactly() {
    let (web, _, requests, reloads) = soak_fixture();
    let (service, out) = run(&web, &requests, &reloads, 8, None);
    assert_eq!(
        service.analysis_stats().analyses,
        out.plan.predicted_analyses(),
        "no hidden analyses, no double work"
    );
}

#[test]
fn faulted_url_fetches_surface_as_typed_responses() {
    let (mut web, corpus, _, _) = soak_fixture();
    // Take down the host of some URL-carrying corpus entry, then request
    // it directly by URL.
    let (_, url) = corpus
        .bodies
        .iter()
        .find(|(_, u)| u.is_some())
        .expect("corpus has external scripts");
    let url = url.clone().unwrap();
    web.network.faults.take_down(&url.host);

    let requests = vec![
        VerdictRequest {
            id: 0,
            arrival_ms: 0,
            deadline_ms: None,
            payload: Payload::Url { url: url.clone() },
            phase: 0,
        },
        VerdictRequest {
            id: 1,
            arrival_ms: 1,
            deadline_ms: None,
            payload: Payload::Body {
                source: "let fine = 1;".into(),
            },
            phase: 0,
        },
    ];
    let (_, out) = run(&web, &requests, &[], 4, None);
    match &out.responses[0].served {
        Served::FetchFailed { error } => assert_eq!(error, "unreachable"),
        other => panic!("dead host must answer a typed failure, got {other:?}"),
    }
    assert!(
        out.responses[1].served.is_completed(),
        "a faulted host must not poison unrelated requests"
    );
}

#[test]
fn degraded_tiers_never_touch_the_parser() {
    let (web, corpus, _, _) = soak_fixture();
    // Thresholds of zero force every admitted request below full
    // fidelity; the parser and classifier must stay completely cold.
    let service = VerdictService::new(ServeConfig {
        shed: ShedThresholds {
            full_below: 0,
            cache_only_below: 0,
            heuristic_below: 1_000,
        },
        ..ServeConfig::default()
    });
    let requests: Vec<VerdictRequest> = corpus
        .bodies
        .iter()
        .take(20)
        .enumerate()
        .map(|(i, (source, _))| VerdictRequest {
            id: i as u64,
            arrival_ms: i as u64 * 3,
            deadline_ms: None,
            payload: Payload::Body {
                source: source.clone(),
            },
            phase: 0,
        })
        .collect();
    let out = service.serve(
        &requests,
        &[],
        boot_snapshot(&web),
        Some(&web.network),
        None,
    );
    assert_eq!(service.script_stats().lookups(), 0, "no parse work at all");
    assert_eq!(service.analysis_stats().lookups(), 0);
    for resp in &out.responses {
        assert!(
            matches!(resp.served, Served::Heuristic { .. }),
            "everything sheds to the static heuristic: {:?}",
            resp.served
        );
    }
}

#[test]
fn url_requests_resolve_blocklist_and_vendor_attribution() {
    // A vendor-patterned URL hosting a script must come back enriched:
    // blocklisted under a matching rule and attributed to the vendor.
    let mut network = Network::new();
    let url = Url::https("fpnpmcdn.net", "/v4/loader.js");
    network.host(
        &url,
        canvassing_net::Resource::Script(canvassing_net::ScriptResource {
            source: "let v = 4;".into(),
            label: "fpjs".into(),
        }),
    );
    let boot = RuleSnapshot::new(
        0,
        "ep",
        "||fpnpmcdn.net^$script\n",
        RuleSnapshot::standard_vendor_patterns(),
    );
    let service = VerdictService::new(ServeConfig::default());
    let requests = vec![VerdictRequest {
        id: 0,
        arrival_ms: 0,
        deadline_ms: None,
        payload: Payload::Url { url },
        phase: 0,
    }];
    let out = service.serve(&requests, &[], boot, Some(&network), None);
    match &out.responses[0].served {
        Served::Full {
            blocklisted,
            vendor,
            ..
        } => {
            assert!(*blocklisted, "||fpnpmcdn.net^$script covers the URL");
            assert_eq!(vendor.as_deref(), Some("FingerprintJS"));
        }
        other => panic!("expected a full-tier answer, got {other:?}"),
    }
}
