//! Fault lab: sweep the deterministic fault matrix over a synthetic web
//! and show how the resilient harness degrades every failure mode — dead
//! hosts, flaky connects, broken DNS, latency spikes, truncated bodies,
//! even panicking workers — into typed records, then demonstrate retry
//! healing, checkpoint/resume determinism, partial-visit salvage with
//! fidelity tiers, per-host circuit breakers, and crash-consistent
//! checkpoint recovery from a torn write.
//!
//! ```sh
//! cargo run --release --example fault_lab -- [scale] [matrix-seed]
//! ```
//!
//! It exits non-zero when any byte-identity check it prints reads
//! `false`, so a smoke run catches a checkpoint or determinism regression.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing_crawler::{
    checkpoint, crawl, crawl_with_stats, resume_crawl, BreakerPolicy, CrawlConfig, CrawlDataset,
    RetryPolicy, VisitFidelity,
};
use canvassing_net::FaultMatrix;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};
use std::process::ExitCode;

fn breakdown_table(ds: &CrawlDataset) {
    let breakdown = ds.failure_breakdown();
    let failed: usize = breakdown.values().sum();
    println!(
        "  {} sites: {} successful, {} failed",
        ds.records.len(),
        ds.success_count(),
        failed
    );
    for (kind, count) in &breakdown {
        println!("    {kind:<14} {count}");
    }
}

fn main() -> ExitCode {
    // Every byte-identity check printed below passes through `check`.
    let mut broken = 0usize;
    let mut check = |identical: bool| {
        broken += usize::from(!identical);
        identical
    };
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.05);
    let matrix_seed: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);

    println!("generating synthetic web at scale {scale} ...");
    let mut web = SyntheticWeb::generate(WebConfig { seed: 2025, scale });
    let frontier = web.frontier(Cohort::Popular);

    // Layer the seeded fault matrix over a third of the frontier: each
    // chosen host gets a fault kind derived from hash(seed, host).
    let matrix = FaultMatrix::new(matrix_seed);
    let targets: Vec<String> = frontier
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, u)| u.host.clone())
        .collect();
    matrix.inject_all(&mut web.network.faults, targets.iter().map(|h| h.as_str()));
    println!(
        "fault matrix seed {matrix_seed}: {} of {} hosts faulted\n",
        targets.len(),
        frontier.len()
    );

    println!("visit-once crawl (paper §3.1 semantics, retries = 0):");
    let config = CrawlConfig::control();
    let started = std::time::Instant::now();
    let visit_once = crawl(&web.network, &frontier, &config);
    println!(
        "  completed in {:.1?} without a harness panic",
        started.elapsed()
    );
    breakdown_table(&visit_once);

    println!("\nsame crawl with 3 retries (transient kinds only):");
    let mut retrying = CrawlConfig::control();
    retrying.retry = RetryPolicy::retries(3);
    let healed = crawl(&web.network, &frontier, &retrying);
    breakdown_table(&healed);
    println!(
        "  retries healed {} sites; permanent failures untouched",
        healed.success_count() - visit_once.success_count()
    );

    println!("\ncheckpoint/resume determinism:");
    let half = frontier.len() / 2;
    let checkpoint = CrawlDataset {
        label: visit_once.label.clone(),
        device_id: visit_once.device_id.clone(),
        records: visit_once.records[..half].to_vec(),
    };
    let resumed = resume_crawl(&web.network, &frontier, &config, &checkpoint);
    let identical = check(resumed.to_json().unwrap() == visit_once.to_json().unwrap());
    println!(
        "  resumed from a {half}-site checkpoint: byte-identical to the \
         uninterrupted crawl = {identical}"
    );

    println!("\nworker-count determinism:");
    let mut solo = CrawlConfig::control();
    solo.workers = 1;
    let single = crawl(&web.network, &frontier, &solo);
    println!(
        "  workers=1 vs workers=8: byte-identical = {}",
        check(single.to_json().unwrap() == visit_once.to_json().unwrap())
    );

    println!("\npartial-visit salvage (fidelity tiers):");
    let tiers = visit_once.fidelity_breakdown();
    for tier in VisitFidelity::all() {
        println!("    {tier:<14} {}", tiers[&tier]);
    }
    println!(
        "  {} failed visits kept their partial evidence (scripts with \
         static-classifier verdicts land in static-salvage)",
        visit_once.salvaged().count()
    );

    println!("\ncrash-consistent checkpoint (torn write -> recover -> resume):");
    let path = std::env::temp_dir().join(format!("fault-lab-ckpt-{}.log", std::process::id()));
    let mut writer =
        checkpoint::CheckpointWriter::create(&path, &visit_once.label, &visit_once.device_id)
            .unwrap();
    writer.arm_torn_write(&visit_once.records[half].url.host);
    let mut wrote = 0usize;
    for record in &visit_once.records {
        if writer.append(record).is_err() {
            break;
        }
        wrote += 1;
    }
    drop(writer);
    let (recovered, report) = checkpoint::recover(&path).unwrap();
    println!(
        "  torn write after {wrote} records; recovery kept {} and truncated \
         {} bytes of torn tail",
        report.records_recovered, report.bytes_truncated
    );
    let resumed = resume_crawl(&web.network, &frontier, &config, &recovered);
    println!(
        "  resumed from the recovered prefix: byte-identical = {}",
        check(resumed.to_json().unwrap() == visit_once.to_json().unwrap())
    );
    let _ = std::fs::remove_file(&path);

    println!("\nper-host circuit breakers (threshold 3, cooldown 8 ticks):");
    // Take down a shared third-party script host: after three failed
    // fetches its circuit opens and every later reference short-circuits
    // instead of burning the retry budget.
    let mut script_refs: std::collections::BTreeMap<String, usize> = Default::default();
    for u in &frontier {
        if let Some(canvassing_net::Resource::Page(page)) = web.network.peek(u) {
            for s in &page.scripts {
                if let canvassing_net::ScriptRef::External(u) = s {
                    *script_refs.entry(u.host.clone()).or_default() += 1;
                }
            }
        }
    }
    let (hot_host, refs) = script_refs
        .iter()
        .max_by_key(|(host, n)| (**n, std::cmp::Reverse(host.as_str())))
        .map(|(h, n)| (h.clone(), *n))
        .unwrap();
    web.network.faults.take_down(&hot_host);
    let mut breakered = CrawlConfig::control();
    breakered.breakers = BreakerPolicy::enabled();
    let (with_breakers, stats) = crawl_with_stats(&web.network, &frontier, &breakered);
    println!(
        "  took down shared script host {} ({refs} references): {} circuit \
         opens, {} short-circuited, dataset still deterministic = {}",
        hot_host,
        stats.breaker_opens,
        stats.breaker_short_circuits,
        {
            let again = crawl(&web.network, &frontier, &breakered);
            check(again.to_json().unwrap() == with_breakers.to_json().unwrap())
        }
    );

    if broken > 0 {
        eprintln!("fault_lab: {broken} byte-identity check(s) read false");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
