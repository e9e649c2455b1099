//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale <f64>] [--seed <u64>] [--workers <n>] [--experiment <id>]
//! ```
//!
//! Experiment ids follow DESIGN.md's index: `e1` (prevalence), `fig1`,
//! `e3` (reach), `table1`, `table2`, `table3`, `table4`, `e7` (evasion),
//! `e8` (randomization checks), `e9` (excluded canvases), `e10`
//! (cross-device validation), `e12` ($document rule design), `e14`
//! (static-vs-dynamic cross-validation), or `all` (default).
//! Paper-vs-measured comparisons print as aligned tables.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::study::{run_study_streamed, StreamingOptions, StudyOptions, StudyResults};
use canvassing_vendors::all_vendors;
use canvassing_webgen::{SyntheticWeb, WebConfig};

struct Args {
    scale: f64,
    seed: u64,
    workers: usize,
    experiment: String,
    json_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: 2025,
        workers: 8,
        experiment: "all".to_string(),
        json_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> String {
            iter.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--scale" => args.scale = value("--scale").parse().expect("scale"),
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--workers" => args.workers = value("--workers").parse().expect("workers"),
            "--experiment" => args.experiment = value("--experiment"),
            "--json" => args.json_out = Some(value("--json")),
            "--help" | "-h" => {
                eprintln!("usage: repro [--scale F] [--seed N] [--workers N] [--experiment ID]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One paper-vs-measured comparison line.
fn cmp(label: &str, paper: &str, measured: String) {
    println!("  {label:<52} paper: {paper:<14} measured: {measured}");
}

fn pct(n: usize, base: usize) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * n as f64 / base as f64
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "generating synthetic web (scale {}, seed {}) ...",
        args.scale, args.seed
    );
    let web = SyntheticWeb::generate(WebConfig {
        seed: args.seed,
        scale: args.scale,
    });
    let want = |id: &str| args.experiment == "all" || args.experiment == id;
    let options = StudyOptions {
        workers: args.workers,
        adblock_crawls: want("table2"),
        m1_validation: want("e10"),
        // E13 is an extension beyond the paper; only run when asked for
        // explicitly (it adds four more full crawls).
        defense_sweep: args.experiment == "e13",
        trace: false,
    };
    eprintln!(
        "running study (control{} crawls) ...",
        if options.adblock_crawls {
            " + ad-blocker + M1"
        } else {
            ""
        }
    );
    let start = std::time::Instant::now();
    let results = run_study_streamed(&web, &options, &StreamingOptions::default())
        .expect("the streamed study does no I/O");
    eprintln!("study completed in {:.1?}", start.elapsed());

    if want("e1") {
        print_e1(&results);
    }
    if want("fig1") {
        print_fig1(&results);
    }
    if want("e3") {
        print_e3(&results);
    }
    if want("table1") {
        print_table1(&results);
    }
    if want("table2") {
        print_table2(&results);
    }
    if want("table3") {
        print_table3(&results);
    }
    if want("table4") {
        print_table4(&results);
    }
    if want("e7") {
        print_e7(&results);
    }
    if want("e8") {
        print_e8(&results);
    }
    if want("e9") {
        print_e9(&results);
    }
    if want("e10") {
        print_e10(&results);
    }
    if want("e12") {
        print_e12();
    }
    if want("e14") {
        print_e14(&results);
    }
    if args.experiment == "e13" {
        print_e13(&results);
    }
    if let Some(path) = &args.json_out {
        std::fs::write(path, results.to_json().expect("serialize")).expect("write json");
        eprintln!("wrote JSON results to {path}");
    }
}

fn print_e14(r: &StudyResults) {
    println!("\n== E14 (extension): static classifier vs dynamic detection ==");
    println!(
        "  {:<8} {:>5} {:>5} {:>5} {:>5} {:>13} {:>10} {:>8} {:>7}",
        "cohort", "TP", "FP", "FN", "TN", "inconclusive", "precision", "recall", "F1"
    );
    for (label, m) in [
        ("popular", &r.popular.static_dynamic),
        ("tail", &r.tail.static_dynamic),
    ] {
        println!(
            "  {:<8} {:>5} {:>5} {:>5} {:>5} {:>13} {:>10.3} {:>8.3} {:>7.3}",
            label,
            m.tp,
            m.fp,
            m.fn_,
            m.tn,
            m.inconclusive,
            m.precision(),
            m.recall(),
            m.f1()
        );
    }
    println!(
        "  {:<24} {:<38} double-render agrees",
        "vendor", "static verdict"
    );
    for row in &r.vendor_static {
        println!(
            "  {:<24} {:<38} {}",
            row.name,
            canvassing::validation::verdict_label(row.verdict),
            if row.double_render_agrees {
                "yes"
            } else {
                "NO"
            }
        );
    }
}

fn print_e13(r: &StudyResults) {
    println!("\n== E13 (extension): the measurement under canvas defenses ==");
    println!(
        "  {:<22} {:>16} {:>22} {:>10}",
        "defense", "unique canvases", "unstable-check sites", "fp sites"
    );
    for row in &r.defense_sweep {
        println!(
            "  {:<22} {:>16} {:>22} {:>10}",
            row.label, row.unique_canvases, row.unstable_sites, row.fingerprinting_sites
        );
    }
    println!(
        "  (per-render noise makes every extraction unique — clustering collapses; \
         per-session noise keeps within-visit stability but still splinters clusters \
         across sessions; blocking produces one shared constant canvas)"
    );
}

fn print_e1(r: &StudyResults) {
    println!("\n== E1: Prevalence (Section 4.1) ==");
    let p = &r.popular.prevalence;
    let t = &r.tail.prevalence;
    cmp(
        "popular sites crawled successfully",
        "16,276",
        format!("{}", p.successes),
    );
    cmp(
        "tail sites crawled successfully",
        "17,260",
        format!("{}", t.successes),
    );
    println!("  failure breakdown by kind (popular / tail):");
    let mut kinds: Vec<_> = r
        .popular
        .failures
        .keys()
        .chain(r.tail.failures.keys())
        .copied()
        .collect();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        println!(
            "    {:<14} {:>6} / {}",
            kind,
            r.popular.failures.get(&kind).copied().unwrap_or(0),
            r.tail.failures.get(&kind).copied().unwrap_or(0),
        );
    }
    cmp(
        "popular sites fingerprinting",
        "2,067 (12.7%)",
        format!(
            "{} ({:.1}%)",
            p.fingerprinting_sites,
            100.0 * p.fingerprinting_rate()
        ),
    );
    cmp(
        "tail sites fingerprinting",
        "1,715 (9.9%)",
        format!(
            "{} ({:.1}%)",
            t.fingerprinting_sites,
            100.0 * t.fingerprinting_rate()
        ),
    );
    cmp(
        "canvases per fingerprinting site (mean/median/max)",
        "3.31 / 2 / 60",
        format!(
            "{:.2} / {} / {}",
            p.mean_canvases, p.median_canvases, p.max_canvases
        ),
    );
}

fn print_fig1(r: &StudyResults) {
    println!("\n== E2: Figure 1 — top-50 canvas popularity ==");
    println!("{}", r.figure1.render_ascii(30));
    if let Some((pop, tail)) = r.figure1.tail_outlier {
        cmp(
            "Shopify outlier (popular / tail sites)",
            "32 / 454",
            format!("{pop} / {tail}"),
        );
    }
    cmp(
        "most frequent popular canvas site count",
        "483",
        format!(
            "{}",
            r.figure1.bars.first().map(|b| b.popular_sites).unwrap_or(0)
        ),
    );
}

fn print_e3(r: &StudyResults) {
    println!("\n== E3: Reach (Section 4.2) ==");
    cmp(
        "unique canvases (popular / tail)",
        "504 / 288",
        format!(
            "{} / {}",
            r.popular.clustering.unique_canvases(),
            r.tail.clustering.unique_canvases()
        ),
    );
    let top6 = r.popular.clustering.sites_covered_by_top(6);
    cmp(
        "top-6 canvases cover popular fp sites",
        "70.1%",
        format!(
            "{:.1}%",
            pct(top6, r.popular.prevalence.fingerprinting_sites)
        ),
    );
    cmp(
        "tail fp sites sharing a canvas with popular",
        "91.4%",
        format!("{:.1}%", 100.0 * r.overlap.sharing_fraction()),
    );
    let sizes = &r.overlap.tail_only_cluster_sizes;
    cmp(
        "largest / next tail-only cluster",
        "15 / 3",
        format!(
            "{} / {}",
            sizes.first().copied().unwrap_or(0),
            sizes.get(1).copied().unwrap_or(0)
        ),
    );
}

fn print_table1(r: &StudyResults) {
    println!("\n== E4: Table 1 — vendor reach ==");
    const PAPER: &[(&str, usize, usize)] = &[
        ("Akamai", 485, 205),
        ("FingerprintJS", 462, 298),
        ("mail.ru", 242, 173),
        ("FingerprintJS (legacy)", 179, 90),
        ("Imperva", 49, 13),
        ("AWS Firewall", 48, 14),
        ("InsurAds", 40, 1),
        ("Signifyd", 39, 18),
        ("PerimeterX", 35, 2),
        ("Sift Science", 31, 8),
        ("Shopify", 32, 457),
        ("Adscore", 25, 30),
        ("GeeTest", 1, 0),
    ];
    println!(
        "  {:<24} {:>16} {:>16} {:>16} {:>16}",
        "Service", "paper top", "measured top", "paper tail", "measured tail"
    );
    for v in &r.attribution.vendors {
        let paper = PAPER.iter().find(|(n, _, _)| *n == v.name);
        let (pp, pt) = paper.map(|(_, p, t)| (*p, *t)).unwrap_or((0, 0));
        println!(
            "  {:<24} {:>16} {:>16} {:>16} {:>16}",
            v.name, pp, v.popular_sites, pt, v.tail_sites
        );
    }
    cmp(
        "total attributed (popular / tail)",
        "1,513 (73%) / 1,222 (71%)",
        format!(
            "{} ({:.0}%) / {} ({:.0}%)",
            r.attribution.attributed_sites.0,
            100.0 * r.attribution.popular_coverage(),
            r.attribution.attributed_sites.1,
            100.0 * r.attribution.tail_coverage()
        ),
    );
    cmp(
        "FingerprintJS commercial customers",
        "23 / 10",
        format!(
            "{} / {}",
            r.attribution.fpjs_commercial_sites.0, r.attribution.fpjs_commercial_sites.1
        ),
    );
}

fn print_table2(r: &StudyResults) {
    println!("\n== E5: Table 2 — ad-blocker crawls ==");
    const PAPER: &[(&str, usize, usize, usize, usize)] = &[
        ("Control", 6037, 4422, 2067, 1715),
        ("Adblock Plus", 5834, 4228, 1948, 1656),
        ("uBlock Origin", 5776, 4175, 1976, 1651),
    ];
    println!(
        "  {:<16} {:>22} {:>22}",
        "Config", "canvases paper→meas", "sites paper→meas"
    );
    for row in &r.table2 {
        let paper = PAPER.iter().find(|(n, ..)| *n == row.label);
        let (pc0, pc1, ps0, ps1) = paper
            .map(|(_, a, b, c, d)| (*a, *b, *c, *d))
            .unwrap_or((0, 0, 0, 0));
        println!(
            "  {:<16} {:>10}/{:<5}→{:>6}/{:<6} {:>8}/{:<5}→{:>5}/{:<5}",
            row.label, pc0, pc1, row.canvases.0, row.canvases.1, ps0, ps1, row.sites.0, row.sites.1
        );
    }
}

fn print_table3(r: &StudyResults) {
    println!("\n== E11: Table 3 — attribution methods ==");
    println!(
        "  {:<24} {:<10} {:<10} {:<16} measured-method",
        "Service", "demo", "customer", "pattern"
    );
    for v in all_vendors() {
        let measured = r
            .attribution
            .vendors
            .iter()
            .find(|m| m.name == v.name)
            .map(|m| m.method.as_str())
            .unwrap_or("-");
        println!(
            "  {:<24} {:<10} {:<10} {:<16} {}",
            v.name,
            if v.attribution.demo { "yes" } else { "" },
            if v.attribution.known_customer {
                "yes"
            } else {
                ""
            },
            v.url_pattern.unwrap_or("(per-site regex)"),
            measured,
        );
    }
}

fn print_table4(r: &StudyResults) {
    println!("\n== E6: Table 4 — blocklist coverage of canvases ==");
    const PAPER_POP: &[(&str, usize)] = &[
        ("EasyList", 1869),
        ("EasyPrivacy", 2157),
        ("Disconnect", 1251),
        ("Any", 2696),
        ("All", 942),
    ];
    const PAPER_TAIL: &[(&str, usize)] = &[
        ("EasyList", 1179),
        ("EasyPrivacy", 1340),
        ("Disconnect", 833),
        ("Any", 1635),
        ("All", 670),
    ];
    for (analysis, paper) in [(&r.popular, PAPER_POP), (&r.tail, PAPER_TAIL)] {
        let c = &analysis.coverage;
        println!("  {:?} cohort ({} canvases):", analysis.cohort, c.total);
        let rows = [
            ("EasyList", c.easylist),
            ("EasyPrivacy", c.easyprivacy),
            ("Disconnect", c.disconnect),
            ("Any", c.any),
            ("All", c.all),
        ];
        for (name, measured) in rows {
            let p = paper
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            cmp(
                &format!("  {name}"),
                &format!("{p}"),
                format!("{} ({:.0}%)", measured, pct(measured, c.total)),
            );
        }
    }
}

fn print_e7(r: &StudyResults) {
    println!("\n== E7: Evasion (Section 5.2) ==");
    let p = &r.popular.evasion;
    let t = &r.tail.evasion;
    cmp(
        "sites with ≥1 first-party canvas (pop/tail)",
        "49% / 52%",
        format!(
            "{:.1}% / {:.1}%",
            p.pct(p.first_party_sites),
            t.pct(t.first_party_sites)
        ),
    );
    cmp(
        "subdomain routing (pop/tail)",
        "9.5% / 2.1%",
        format!(
            "{:.1}% / {:.1}%",
            p.pct(p.subdomain_sites),
            t.pct(t.subdomain_sites)
        ),
    );
    cmp(
        "popular-CDN serving (pop/tail)",
        "2.1% / 1.9%",
        format!("{:.1}% / {:.1}%", p.pct(p.cdn_sites), t.pct(t.cdn_sites)),
    );
    cmp(
        "CNAME cloaking (pop/tail)",
        "(present)",
        format!(
            "{:.1}% / {:.1}%",
            p.pct(p.cname_sites),
            t.pct(t.cname_sites)
        ),
    );
}

fn print_e8(r: &StudyResults) {
    println!("\n== E8: Randomization checks (Section 5.3) ==");
    let p = &r.popular.evasion;
    let t = &r.tail.evasion;
    let both = p.double_render_sites + t.double_render_sites;
    let base = p.fingerprinting_sites + t.fingerprinting_sites;
    cmp(
        "fp sites performing the double-render check",
        "45%",
        format!(
            "{:.1}% (pop {:.1}%, tail {:.1}%)",
            pct(both, base),
            p.pct(p.double_render_sites),
            t.pct(t.double_render_sites)
        ),
    );
}

fn print_e9(r: &StudyResults) {
    println!("\n== E9: Excluded canvases (Appendix A.2) ==");
    let p = &r.popular.prevalence;
    let t = &r.tail.prevalence;
    cmp(
        "fingerprintable fraction of extractions",
        "83%",
        format!(
            "{:.0}% (pop), {:.0}% (tail)",
            100.0 * p.fingerprintable_fraction(),
            100.0 * t.fingerprintable_fraction()
        ),
    );
    cmp(
        "popular sites with lossy/WebP probes",
        "306",
        format!("{}", p.lossy_probe_sites),
    );
    cmp(
        "popular sites with small canvases",
        "216",
        format!("{}", p.small_canvas_sites),
    );
    cmp(
        "fully-excluded sites (pop/tail)",
        "155 / 138",
        format!("{} / {}", p.fully_excluded_sites, t.fully_excluded_sites),
    );
}

fn print_e10(r: &StudyResults) {
    println!("\n== E10: Cross-device validation (Section 3.1) ==");
    match &r.validation {
        Some(v) => {
            cmp(
                "canvases differ across devices",
                "yes",
                format!("{}", v.canvases_differ),
            );
            cmp(
                "site groupings identical",
                "yes",
                format!("{}", v.partitions_match),
            );
            cmp(
                "unique canvases Intel / M1",
                "equal",
                format!("{} / {}", v.unique_canvases.0, v.unique_canvases.1),
            );
        }
        None => println!("  (skipped — run with --experiment e10 or all)"),
    }
}

fn print_e12() {
    println!("\n== E12: $document rule design failure (Appendix A.6) ==");
    use canvassing_blocklist::FilterList;
    use canvassing_net::{ResourceType, Url};
    let list = FilterList::parse("EasyList-excerpt", "||mgid.com^$document\n");
    let script = Url::parse("https://mgid.com/fp-collect.js").unwrap();
    let doc = Url::parse("https://mgid.com/landing").unwrap();
    cmp(
        "||mgid.com^$document blocks mgid's script",
        "no",
        format!("{}", list.covers_script_url(&script, ResourceType::Script)),
    );
    cmp(
        "||mgid.com^$document blocks mgid documents",
        "yes",
        format!("{}", list.covers_script_url(&doc, ResourceType::Document)),
    );
}
