//! AST-vs-bytecode engine differential suite.
//!
//! The two static engines share one verdict synthesis and must never
//! *decisively disagree* on the non-adversarial corpus (vendor, generic,
//! and benign scripts). On the seeded evasion corpus the AST engine is
//! expected to abstain and the bytecode engine to recover a decisive
//! `Fingerprinting` verdict — gated here at ≥80% recovery with zero new
//! false positives, cross-checked against the dynamic detector. The
//! bytecode verifier must also accept every compiled chunk of a
//! generated web's script corpus.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::detect::detect;
use canvassing_analysis::{classify, classify_bytecode, classify_merged, Verdict};
use canvassing_browser::{Browser, PageVisit};
use canvassing_net::{PageResource, Resource, ScriptRef, ScriptResource, Url};
use canvassing_raster::DeviceProfile;
use canvassing_script::parse;
use canvassing_vendors::{all_vendors, benign, scripts};
use canvassing_webgen::{evasive_script, EVASION_VARIANT_COUNT};

/// Decisive disagreement between the engines on one program.
fn decisive_disagreement(src: &str) -> Option<(Verdict, Verdict)> {
    let program = parse(src).expect("corpus script parses");
    let ast = classify(&program).verdict;
    let bytecode = classify_bytecode(&program).verdict;
    if ast != Verdict::Inconclusive
        && bytecode != Verdict::Inconclusive
        && ast.is_fingerprinting() != bytecode.is_fingerprinting()
    {
        Some((ast, bytecode))
    } else {
        None
    }
}

#[test]
fn engines_agree_on_vendor_corpus() {
    for vendor in all_vendors() {
        for commercial in [false, true] {
            let src = scripts::source(vendor.id, &scripts::site_token("diff.example"), commercial);
            assert_eq!(
                decisive_disagreement(&src),
                None,
                "{} (commercial={commercial})",
                vendor.name
            );
        }
    }
}

#[test]
fn engines_agree_on_generic_corpus() {
    for n in 0..200u64 {
        let src = scripts::generic_fingerprinter(n);
        assert_eq!(
            decisive_disagreement(&src),
            None,
            "generic_fingerprinter({n})"
        );
    }
}

#[test]
fn engines_agree_on_benign_corpus() {
    for kind in benign::BenignKind::all() {
        for variant in 0..8u64 {
            let src = benign::source(*kind, variant);
            assert_eq!(decisive_disagreement(&src), None, "{kind:?}/{variant}");
        }
    }
}

/// The bytecode engine must never *introduce* a fingerprinting verdict on
/// the benign corpus: the merged cascade stays non-positive wherever the
/// AST engine already excluded the script.
#[test]
fn merged_cascade_adds_no_false_positives_on_benign_corpus() {
    for kind in benign::BenignKind::all() {
        for variant in 0..8u64 {
            let src = benign::source(*kind, variant);
            let program = parse(&src).expect("benign script parses");
            let ast = classify(&program).verdict;
            let merged = classify_merged(&program).verdict;
            if !ast.is_fingerprinting() {
                assert!(
                    !merged.is_fingerprinting(),
                    "{kind:?}/{variant}: merged cascade invented a fingerprinter \
                     (ast={ast:?}, merged={merged:?})"
                );
            }
        }
    }
}

/// The headline recovery gate: every evasion variant defeats the AST
/// engine (Inconclusive or Benign — never a decisive positive), and the
/// bytecode engine recovers a decisive `Fingerprinting` verdict for at
/// least 80% of them.
#[test]
fn bytecode_engine_recovers_at_least_80_percent_of_evasion_corpus() {
    let mut evaded_ast = 0usize;
    let mut recovered = 0usize;
    for v in 0..EVASION_VARIANT_COUNT {
        let src = evasive_script(v);
        let program = parse(&src).expect("evasion variant parses");
        let ast = classify(&program).verdict;
        assert!(
            !ast.is_fingerprinting(),
            "variant {v} no longer evades the AST engine — corpus is stale"
        );
        evaded_ast += 1;
        let merged = classify_merged(&program).verdict;
        if merged.is_fingerprinting() {
            recovered += 1;
        }
    }
    assert!(
        recovered * 10 >= evaded_ast * 8,
        "bytecode engine recovered {recovered}/{evaded_ast} evasion variants (< 80%)"
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

/// Soundness of the recovery: every recovered evasion verdict is backed
/// by the dynamic detector actually firing on the same script.
#[test]
fn recovered_evasion_verdicts_are_dynamically_confirmed() {
    for v in 0..EVASION_VARIANT_COUNT {
        let src = evasive_script(v);
        let merged = classify_merged(&parse(&src).expect("parse")).verdict;
        if merged.is_fingerprinting() {
            assert!(
                detect(&run_one(&src)).is_fingerprinting(),
                "variant {v}: bytecode-recovered verdict is a dynamic false positive"
            );
        }
    }
}

/// The bytecode verifier accepts every compiled chunk across the whole
/// generated corpus (all webgen script sources at CI scale).
#[test]
fn verifier_accepts_every_corpus_chunk() {
    let web = canvassing_webgen::SyntheticWeb::generate(canvassing_webgen::WebConfig {
        seed: 2025,
        scale: 0.05,
    });
    let mut checked = 0usize;
    let keys: Vec<(String, String)> = web
        .network
        .resource_keys()
        .map(|(h, p)| (h.to_string(), p.to_string()))
        .collect();
    for (host, path) in keys {
        let url = Url::https(&host, &path);
        let sources: Vec<String> = match web.network.peek(&url) {
            Some(Resource::Script(s)) => vec![s.source.clone()],
            Some(Resource::Page(p)) => p
                .scripts
                .iter()
                .filter_map(|r| match r {
                    ScriptRef::Inline { source, .. } => Some(source.clone()),
                    ScriptRef::External(_) => None,
                })
                .collect(),
            None => Vec::new(),
        };
        for src in sources {
            let Ok(program) = parse(&src) else { continue };
            let compiled = canvassing_script::compile(&program);
            canvassing_script::verify(&compiled)
                .unwrap_or_else(|e| panic!("verifier rejected corpus script at {url}: {e}"));
            checked += 1;
        }
    }
    assert!(checked > 50, "only {checked} corpus scripts verified");
}
