//! Static-vs-dynamic cross-validation at acceptance scale.
//!
//! The static AST classifier and the dynamic §3.2 detector must agree on
//! the generated corpus: pooled across both cohorts at scale 0.2, the
//! static pass scores F1 ≥ 0.95 against the dynamic ground truth, with
//! no false positives hiding inside a high-recall matrix.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::detect::detect;
use canvassing::validation::{cross_validate, ConfusionMatrix};
use canvassing_browser::{Browser, PageVisit};
use canvassing_crawler::{crawl, CrawlConfig};
use canvassing_net::{PageResource, Resource, ScriptRef, ScriptResource, Url};
use canvassing_raster::DeviceProfile;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

#[test]
fn static_dynamic_agreement_reaches_f1_095_at_scale_02() {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 2025,
        scale: 0.2,
    });
    let mut config = CrawlConfig::control();
    config.workers = 8;

    let mut pooled = ConfusionMatrix::default();
    for cohort in [Cohort::Popular, Cohort::Tail] {
        let dataset = crawl(&web.network, &web.frontier(cohort), &config);
        let detections: Vec<_> = dataset.successful().map(|(_, v)| detect(v)).collect();
        let matrix = cross_validate(&dataset, &detections);
        assert!(
            matrix.decided() > 50,
            "{cohort:?}: only {} unique scripts decided",
            matrix.decided()
        );
        assert!(
            matrix.f1() >= 0.95,
            "{cohort:?}: F1 {:.3} below acceptance bar ({matrix:?})",
            matrix.f1()
        );
        pooled.merge(&matrix);
    }

    assert!(
        pooled.f1() >= 0.95,
        "pooled F1 {:.3} below acceptance bar ({pooled:?})",
        pooled.f1()
    );
    // The static pass must not invent fingerprinters: anything it calls
    // `Fingerprinting` fired dynamically somewhere in the crawl.
    assert_eq!(pooled.fp, 0, "static false positives: {pooled:?}");
    // Abstentions must stay rare — the corpus is designed to be
    // statically classifiable.
    assert!(
        (pooled.inconclusive as f64) < 0.05 * pooled.total() as f64,
        "too many inconclusive scripts: {pooled:?}"
    );
}

/// Serves `source` on a one-page network and runs one instrumented visit.
fn run_one(source: &str) -> PageVisit {
    let mut network = canvassing_net::Network::new();
    let script_url = Url::https("scripts.example", "/probe.js");
    network.host(
        &script_url,
        Resource::Script(ScriptResource {
            source: source.to_string(),
            label: "probe".into(),
        }),
    );
    network.host(
        &Url::https("site.com", "/"),
        Resource::Page(PageResource {
            scripts: vec![ScriptRef::External(script_url)],
            consent_banner: false,
            bot_check: false,
        }),
    );
    Browser::new(DeviceProfile::intel_ubuntu())
        .visit(&network, &Url::https("site.com", "/"))
        .expect("visit succeeds")
}

/// Static `Fingerprinting` must imply the dynamic detector fires: every
/// vendor script (OSS and commercial builds) is statically positive, and
/// executing it produces a fingerprintable canvas.
#[test]
fn static_fingerprinting_implies_dynamic_for_every_vendor_script() {
    use canvassing_vendors::{all_vendors, scripts};
    for vendor in all_vendors() {
        for commercial in [false, true] {
            let source = scripts::source(vendor.id, &scripts::site_token("site.com"), commercial);
            let verdict = canvassing_analysis::classify_source(&source).verdict;
            assert!(
                verdict.is_fingerprinting(),
                "{} (commercial={commercial}): static verdict {verdict:?}",
                vendor.name
            );
            let detection = detect(&run_one(&source));
            assert!(
                detection.is_fingerprinting(),
                "{} (commercial={commercial}): statically fingerprinting but \
                 dynamically silent",
                vendor.name
            );
        }
    }
}

/// Exhaustive twin of `generated_corpus_has_no_static_false_positives`
/// below over a fixed slice of the generator space, plus every benign
/// kind and variant.
#[test]
fn generated_scripts_never_statically_positive_while_dynamically_silent() {
    use canvassing_vendors::{benign, scripts};
    for n in 0..24u64 {
        let source = scripts::generic_fingerprinter(n);
        let verdict = canvassing_analysis::classify_source(&source).verdict;
        if verdict.is_fingerprinting() {
            let detection = detect(&run_one(&source));
            assert!(
                detection.is_fingerprinting(),
                "generic_fingerprinter({n}): static false positive"
            );
        }
    }
    for kind in benign::BenignKind::all() {
        for variant in 0..8u64 {
            let source = benign::source(*kind, variant);
            let verdict = canvassing_analysis::classify_source(&source).verdict;
            if verdict.is_fingerprinting() {
                let detection = detect(&run_one(&source));
                assert!(
                    detection.is_fingerprinting(),
                    "{kind:?}/{variant}: static false positive"
                );
            }
        }
    }
}

/// Any generated script the static pass labels `Fingerprinting` must
/// also trigger the dynamic detector when executed: a seeded LCG loop
/// over 256 generator indices in `0..10_000`, replayable from its case
/// number.
#[test]
fn generated_corpus_has_no_static_false_positives() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut positives = 0;
    for case in 0..256 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = (state >> 33) % 10_000;
        let source = canvassing_vendors::scripts::generic_fingerprinter(n);
        let verdict = canvassing_analysis::classify_source(&source).verdict;
        if verdict.is_fingerprinting() {
            positives += 1;
            assert!(
                detect(&run_one(&source)).is_fingerprinting(),
                "case {case}: generic_fingerprinter({n}) is a static false positive"
            );
        }
    }
    assert!(
        positives > 200,
        "only {positives} of 256 cases statically positive"
    );
}
