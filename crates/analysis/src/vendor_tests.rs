//! Ground-truth tests: the static classifier against every modeled
//! vendor script and every benign canvas user in `canvassing-vendors`.

use crate::{classify_source, Verdict};
use canvassing_vendors::benign::{self, BenignKind};
use canvassing_vendors::{all_vendors, scripts, VendorId};

fn verdict(id: VendorId, commercial: bool) -> Verdict {
    let src = scripts::source(id, "site-token-1234", commercial);
    classify_source(&src).verdict
}

#[test]
fn every_vendor_script_is_statically_fingerprinting() {
    for vendor in all_vendors() {
        for commercial in [false, true] {
            let v = verdict(vendor.id, commercial);
            assert!(
                v.is_fingerprinting(),
                "{:?} (commercial={commercial}) classified {v:?}",
                vendor.id
            );
        }
    }
}

#[test]
fn no_vendor_script_is_inconclusive() {
    for vendor in all_vendors() {
        for commercial in [false, true] {
            assert_ne!(
                verdict(vendor.id, commercial),
                Verdict::Inconclusive,
                "{:?} (commercial={commercial})",
                vendor.id
            );
        }
    }
}

#[test]
fn static_double_render_matches_vendor_ground_truth() {
    for vendor in all_vendors() {
        let v = verdict(vendor.id, false);
        let Verdict::Fingerprinting { double_render, .. } = v else {
            panic!("{:?} classified {v:?}", vendor.id);
        };
        assert_eq!(
            double_render, vendor.double_render,
            "{:?}: static §5.3 flag disagrees with Table-3 ground truth",
            vendor.id
        );
    }
}

#[test]
fn exact_vendor_verdicts() {
    use VendorId::*;
    let expect = |id: VendorId, exfil: bool, double_render: bool| {
        assert_eq!(
            verdict(id, false),
            Verdict::Fingerprinting {
                exfil,
                double_render
            },
            "{id:?}"
        );
    };
    // Vendors that hand the fingerprint back to the page (or beacon it).
    expect(Akamai, true, false);
    expect(Imperva, true, false);
    expect(AwsWaf, true, false);
    expect(Signifyd, true, false);
    expect(SiftScience, true, false);
    expect(Shopify, true, false);
    expect(GeeTest, true, false);
    // FingerprintJS: exfiltrates *and* runs the §5.3 stability check.
    expect(FingerprintJs, true, true);
    // Double-render checkers whose scripts keep the result local.
    expect(MailRu, false, true);
    expect(FingerprintJsLegacy, false, true);
    expect(Adscore, false, true);
    // Fingerprinters with neither statically visible exfil nor §5.3.
    expect(InsurAds, false, false);
    expect(PerimeterX, false, false);
}

#[test]
fn every_benign_kind_is_statically_benign() {
    for kind in BenignKind::all() {
        for variant in 0..8 {
            let src = benign::source(*kind, variant);
            let analysis = classify_source(&src);
            assert_eq!(
                analysis.verdict,
                Verdict::Benign,
                "{kind:?} variant {variant}: {:?}",
                analysis.findings
            );
        }
    }
}

#[test]
fn generic_fingerprinters_are_fingerprinting_with_exfil() {
    // Deterministic sweep standing in for the proptest below (the vendored
    // proptest stub compiles but does not execute closure bodies).
    for n in 0..64u64 {
        let src = scripts::generic_fingerprinter(n);
        let v = classify_source(&src).verdict;
        assert_eq!(
            v,
            Verdict::Fingerprinting {
                exfil: true,
                double_render: false
            },
            "generic_fingerprinter({n})"
        );
    }
}

#[test]
fn imperva_verdict_is_stable_across_site_tokens() {
    for host in ["a.example", "shop.example", "news.example.co.uk"] {
        let token = scripts::site_token(host);
        let src = scripts::source(VendorId::Imperva, &token, false);
        assert!(classify_source(&src).verdict.is_fingerprinting(), "{host}");
    }
}

/// No static false positives / false negatives across the generated
/// corpus: every generic fingerprinter is Fingerprinting, every benign
/// variant is Benign, and nothing is Inconclusive. 256 `(n, variant)`
/// pairs in `0..10_000`, drawn by a seeded LCG.
#[test]
fn generated_corpus_classifies_cleanly() {
    let mut lcg: u64 = 0x2545f4914f6cdd1d;
    let mut draw = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % 10_000
    };
    for _ in 0..256 {
        let (n, variant) = (draw(), draw());
        let fp = scripts::generic_fingerprinter(n);
        assert!(classify_source(&fp).verdict.is_fingerprinting(), "n {n}");
        for kind in BenignKind::all() {
            let src = benign::source(*kind, variant);
            assert_eq!(
                classify_source(&src).verdict,
                Verdict::Benign,
                "{kind:?} variant {variant}"
            );
        }
    }
}
