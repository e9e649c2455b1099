//! Cross-crate integration: generate a synthetic web, run the full study,
//! and check every experiment's *shape* against the paper.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::study::{run_study_streamed, StreamingOptions, StudyOptions};
use canvassing_webgen::{SyntheticWeb, WebConfig};

fn study() -> &'static canvassing::study::StudyResults {
    static STUDY: std::sync::OnceLock<canvassing::study::StudyResults> = std::sync::OnceLock::new();
    STUDY.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 7,
            scale: 0.05,
        });
        run_study_streamed(
            &web,
            &StudyOptions {
                workers: 4,
                adblock_crawls: true,
                m1_validation: true,
                defense_sweep: false,
                trace: false,
            },
            &StreamingOptions::default(),
        )
        .unwrap()
    })
}

#[test]
fn full_study_shapes_match_the_paper() {
    let results = study();

    // E1: prevalence — popular ≈ 12.7%, tail ≈ 9.9%, popular > tail.
    let p = results.popular.prevalence.fingerprinting_rate();
    let t = results.tail.prevalence.fingerprinting_rate();
    assert!((0.09..=0.17).contains(&p), "popular rate {p}");
    assert!((0.07..=0.13).contains(&t), "tail rate {t}");
    assert!(p > t);

    // E3: reach — a few hundred canvases dominate; tail mostly overlaps
    // popular.
    assert!(results.popular.clustering.unique_canvases() >= 15);
    assert!(results.overlap.sharing_fraction() > 0.75);

    // E2: Figure 1 — the Shopify-style outlier: most frequent tail canvas
    // is rare among popular sites.
    // (At reduced scale the precise ratio is noisy; the paper-scale run in
    // the repro binary shows the full 32-vs-457 Shopify gap.)
    let (outlier_pop, outlier_tail) = results.figure1.tail_outlier.expect("outlier");
    assert!(
        outlier_tail > outlier_pop,
        "tail outlier {outlier_tail} vs popular {outlier_pop}"
    );

    // E4: Table 1 — Akamai and FingerprintJS dominate popular;
    // Shopify dominates tail; security vendors are the minority of reach.
    let find = |name: &str| {
        results
            .attribution
            .vendors
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("vendor {name}"))
    };
    let akamai = find("Akamai");
    let fpjs = find("FingerprintJS");
    let shopify = find("Shopify");
    assert!(akamai.popular_sites > shopify.popular_sites);
    assert!(fpjs.popular_sites > shopify.popular_sites);
    assert!(shopify.tail_sites > akamai.tail_sites);
    assert!(shopify.tail_sites > fpjs.tail_sites);
    // Attribution covers roughly the paper's 73% / 71%.
    assert!((0.55..=0.90).contains(&results.attribution.popular_coverage()));
    assert!((0.55..=0.90).contains(&results.attribution.tail_coverage()));

    // E5: Table 2 — ad blockers reduce fingerprinting only modestly.
    assert_eq!(results.table2.len(), 3);
    let control = &results.table2[0];
    for blocked_run in &results.table2[1..] {
        let canvas_keep = blocked_run.canvases.0 as f64 / control.canvases.0 as f64;
        let site_keep = blocked_run.sites.0 as f64 / control.sites.0 as f64;
        assert!(
            canvas_keep > 0.85,
            "{}: canvases {canvas_keep}",
            blocked_run.label
        );
        assert!(site_keep > 0.85, "{}: sites {site_keep}", blocked_run.label);
        assert!(canvas_keep <= 1.0 && site_keep <= 1.0);
    }

    // E6: Table 4 — static coverage far exceeds dynamic blocking.
    let coverage = &results.popular.coverage;
    assert!(coverage.any > 0);
    let any_frac = coverage.any as f64 / coverage.total as f64;
    assert!((0.30..=0.65).contains(&any_frac), "any {any_frac}");
    assert!(coverage.all <= coverage.disconnect);
    assert!(coverage.all <= coverage.easylist);
    let blocked_frac = 1.0 - results.table2[1].canvases.0 as f64 / control.canvases.0 as f64;
    assert!(
        any_frac > 4.0 * blocked_frac,
        "static {any_frac} should dwarf dynamic {blocked_frac}"
    );

    // E7: evasion — first-party serving on roughly half of fp sites;
    // subdomain routing more common among popular sites.
    let pe = &results.popular.evasion;
    let te = &results.tail.evasion;
    let fp_share = pe.pct(pe.first_party_sites);
    assert!((30.0..=70.0).contains(&fp_share), "first-party {fp_share}");
    assert!(pe.pct(pe.subdomain_sites) > te.pct(te.subdomain_sites));

    // E8: double-render checks on a large minority of sites.
    let dr = pe.pct(pe.double_render_sites);
    assert!((25.0..=60.0).contains(&dr), "double-render {dr}");

    // E9: most extractions are fingerprintable, but not all.
    let frac = results.popular.prevalence.fingerprintable_fraction();
    assert!((0.7..=0.97).contains(&frac), "fingerprintable {frac}");
    assert!(results.popular.prevalence.fully_excluded_sites > 0);

    // E10: cross-device validation.
    let v = results.validation.as_ref().expect("validation ran");
    assert!(v.canvases_differ);
    assert!(v.partitions_match);
    assert_eq!(v.unique_canvases.0, v.unique_canvases.1);
}

#[test]
fn report_renders_every_section() {
    let results = study();
    let report = results.render_report();
    for needle in [
        "Prevalence (Section 4.1)",
        "Reach (Section 4.2)",
        "Figure 1",
        "Table 1",
        "Table 2",
        "Table 4",
        "Evasion (Section 5.2)",
        "Cross-device validation",
        "Akamai",
        "Shopify",
    ] {
        assert!(report.contains(needle), "missing {needle}");
    }
}

#[test]
fn imperva_attribution_is_bounded_by_its_deployments() {
    // Imperva canvases are per-site unique, so the regex-based attribution
    // must find them without a canvas cluster, and only them.
    let results = study();
    let imperva = results
        .attribution
        .vendors
        .iter()
        .find(|v| v.name == "Imperva")
        .unwrap();
    // At 5% scale the plan places ~2 popular and 1 tail Imperva sites.
    assert!(
        imperva.popular_sites >= 1,
        "imperva popular {}",
        imperva.popular_sites
    );
    assert!(imperva.popular_sites <= 6);
}
