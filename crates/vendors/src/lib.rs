//! # canvassing-vendors
//!
//! Models of the fingerprinting services the paper attributes (Table 1 /
//! Table 3), plus the benign canvas users its heuristics must exclude
//! (Appendix A.2). Every script is *canvascript source text* served over
//! the simulated network — attribution patterns match real URLs, and the
//! clustering pipeline sees real rendered canvases.
//!
//! The fidelity contract per vendor: (a) its test canvases are distinct
//! from every other vendor's, (b) they are identical wherever the vendor
//! is deployed (except Imperva, which embeds a per-site token — the
//! paper's reason Imperva cannot track across sites), (c) vendors that
//! perform the §5.3 double-render randomization check extract the same
//! canvas twice, and (d) script URL shapes follow Table 3's patterns.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod benign;
pub mod scripts;

use serde::{Deserialize, Serialize};

/// Identity of a modeled fingerprinting service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VendorId {
    /// Akamai bot detection.
    Akamai,
    /// FingerprintJS (open-source and commercial render identical canvases).
    FingerprintJs,
    /// mail.ru counters.
    MailRu,
    /// Older (~2020) FingerprintJS with a different canvas.
    FingerprintJsLegacy,
    /// Imperva bot detection (unique canvas per customer site).
    Imperva,
    /// AWS Application Firewall.
    AwsWaf,
    /// InsurAds attention analytics.
    InsurAds,
    /// Signifyd fraud detection.
    Signifyd,
    /// PerimeterX bot detection.
    PerimeterX,
    /// Sift Science fraud detection.
    SiftScience,
    /// Shopify storefront performance monitoring.
    Shopify,
    /// Adscore ad-fraud detection.
    Adscore,
    /// GeeTest CAPTCHA.
    GeeTest,
}

/// How the paper established ground truth for a vendor (Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionMethods {
    /// A public demo page exists and was crawled.
    pub demo: bool,
    /// Known customers were crawled.
    pub known_customer: bool,
    /// A script URL pattern identifies the vendor.
    pub script_pattern: bool,
}

/// Static description of one vendor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vendor {
    /// Identity.
    pub id: VendorId,
    /// Display name as in Table 1.
    pub name: &'static str,
    /// Whether the paper classifies the service as a security application
    /// (bold rows in Table 1).
    pub security: bool,
    /// Table 3 attribution methods.
    pub attribution: AttributionMethods,
    /// Substring that identifies the vendor's script URL (Table 3), when
    /// URL-based identification works at all.
    pub url_pattern: Option<&'static str>,
    /// Third-party host the script is canonically served from, or `None`
    /// when the vendor serves first-party (Akamai's `/akam/` path,
    /// Imperva's per-site path, FingerprintJS OSS bundling).
    pub serving_host: Option<&'static str>,
    /// Whether the script performs the double-render randomization check
    /// (§5.3), extracting the same canvas twice.
    pub double_render: bool,
    /// Number of distinct test canvases the script draws.
    pub canvas_count: usize,
    /// Public demo page host, when one exists.
    pub demo_host: Option<&'static str>,
}

/// All modeled vendors, in Table 1 order.
pub fn all_vendors() -> &'static [Vendor] {
    const A: AttributionMethods = AttributionMethods {
        demo: false,
        known_customer: false,
        script_pattern: true,
    };
    static VENDORS: &[Vendor] = &[
        Vendor {
            id: VendorId::Akamai,
            name: "Akamai",
            security: true,
            attribution: AttributionMethods {
                demo: false,
                known_customer: true,
                script_pattern: true,
            },
            url_pattern: Some("/akam/"),
            serving_host: None, // first-party path /akam/...
            double_render: false,
            canvas_count: 1,
            demo_host: None,
        },
        Vendor {
            id: VendorId::FingerprintJs,
            name: "FingerprintJS",
            security: false,
            attribution: AttributionMethods {
                demo: true,
                known_customer: true,
                script_pattern: true,
            },
            url_pattern: Some("fpnpmcdn.net"),
            serving_host: Some("fpnpmcdn.net"),
            double_render: true,
            canvas_count: 2,
            demo_host: Some("demo.fingerprint.com"),
        },
        Vendor {
            id: VendorId::MailRu,
            name: "mail.ru",
            security: false,
            attribution: A,
            url_pattern: Some("privacy-cs.mail.ru"),
            serving_host: Some("privacy-cs.mail.ru"),
            double_render: true,
            canvas_count: 2,
            demo_host: None,
        },
        Vendor {
            id: VendorId::FingerprintJsLegacy,
            name: "FingerprintJS (legacy)",
            security: false,
            attribution: AttributionMethods {
                demo: false,
                known_customer: true,
                script_pattern: true,
            },
            url_pattern: Some("fingerprintjs2"),
            serving_host: None, // legacy OSS is typically self-hosted/bundled
            double_render: true,
            canvas_count: 1,
            demo_host: None,
        },
        Vendor {
            id: VendorId::Imperva,
            name: "Imperva",
            security: true,
            attribution: AttributionMethods {
                demo: false,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: None, // identified by its first-party URL path shape
            serving_host: None,
            double_render: false,
            canvas_count: 1,
            demo_host: None,
        },
        Vendor {
            id: VendorId::AwsWaf,
            name: "AWS Firewall",
            security: true,
            attribution: A,
            url_pattern: Some("awswaf.com"),
            serving_host: Some("token.awswaf.com"),
            double_render: false,
            canvas_count: 1,
            demo_host: None,
        },
        Vendor {
            id: VendorId::InsurAds,
            name: "InsurAds",
            security: false,
            attribution: AttributionMethods {
                demo: true,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: Some("insurads.com"),
            serving_host: Some("cdn.insurads.com"),
            double_render: false,
            canvas_count: 2,
            demo_host: Some("insurads.com"),
        },
        Vendor {
            id: VendorId::Signifyd,
            name: "Signifyd",
            security: true,
            attribution: AttributionMethods {
                demo: true,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: Some("signifyd.com"),
            serving_host: Some("cdn-scripts.signifyd.com"),
            double_render: false,
            canvas_count: 1,
            demo_host: Some("www.signifyd.com"),
        },
        Vendor {
            id: VendorId::PerimeterX,
            name: "PerimeterX",
            security: true,
            attribution: AttributionMethods {
                demo: true,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: Some("px-cloud.net"),
            serving_host: Some("client.px-cloud.net"),
            double_render: false,
            canvas_count: 2,
            demo_host: Some("www.humansecurity.com"),
        },
        Vendor {
            id: VendorId::SiftScience,
            name: "Sift Science",
            security: true,
            attribution: AttributionMethods {
                demo: true,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: Some("sift.com"),
            serving_host: Some("cdn.sift.com"),
            double_render: false,
            canvas_count: 1,
            demo_host: Some("sift.com"),
        },
        Vendor {
            id: VendorId::Shopify,
            name: "Shopify",
            security: false,
            attribution: AttributionMethods {
                demo: true,
                known_customer: true,
                script_pattern: true,
            },
            url_pattern: Some("shopifycloud"),
            serving_host: Some("cdn.shopifycloud.com"),
            double_render: false,
            canvas_count: 1,
            demo_host: Some("performance.shopify.com"),
        },
        Vendor {
            id: VendorId::Adscore,
            name: "Adscore",
            security: true,
            attribution: AttributionMethods {
                demo: true,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: Some("adsco.re"),
            serving_host: Some("c.adsco.re"),
            double_render: true,
            canvas_count: 1,
            demo_host: Some("adscore.com"),
        },
        Vendor {
            id: VendorId::GeeTest,
            name: "GeeTest",
            security: true,
            attribution: AttributionMethods {
                demo: true,
                known_customer: false,
                script_pattern: true,
            },
            url_pattern: Some("geetest.com"),
            serving_host: Some("static.geetest.com"),
            double_render: false,
            canvas_count: 1,
            demo_host: Some("www.geetest.com"),
        },
    ];
    VENDORS
}

/// Looks up a vendor by id. Every `VendorId` variant has an entry in
/// [`all_vendors`] (enforced by a unit test), so the fallback to the
/// first table row is unreachable in practice.
pub fn vendor(id: VendorId) -> &'static Vendor {
    let vendors = all_vendors();
    vendors.iter().find(|v| v.id == id).unwrap_or(&vendors[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_vendors_modeled() {
        assert_eq!(all_vendors().len(), 13);
    }

    #[test]
    fn vendor_lookup_covers_all_ids() {
        for v in all_vendors() {
            assert_eq!(vendor(v.id).name, v.name);
        }
    }

    #[test]
    fn security_vendors_match_table_1_bold_rows() {
        let security: Vec<&str> = all_vendors()
            .iter()
            .filter(|v| v.security)
            .map(|v| v.name)
            .collect();
        assert_eq!(
            security,
            vec![
                "Akamai",
                "Imperva",
                "AWS Firewall",
                "Signifyd",
                "PerimeterX",
                "Sift Science",
                "Adscore",
                "GeeTest"
            ]
        );
    }

    #[test]
    fn double_render_vendors() {
        let dr: Vec<VendorId> = all_vendors()
            .iter()
            .filter(|v| v.double_render)
            .map(|v| v.id)
            .collect();
        assert!(dr.contains(&VendorId::FingerprintJs));
        assert!(dr.contains(&VendorId::MailRu));
        assert!(dr.contains(&VendorId::FingerprintJsLegacy));
        assert!(dr.contains(&VendorId::Adscore));
    }

    #[test]
    fn imperva_has_no_stable_url_pattern() {
        assert!(vendor(VendorId::Imperva).url_pattern.is_none());
    }
}
