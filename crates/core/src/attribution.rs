//! Vendor attribution (§4.3, Appendix A.3).
//!
//! Ground truth is gathered exactly the way the paper describes, in order
//! of precedence:
//!
//! 1. **Demo** — crawl the vendor's public demo page and record the test
//!    canvases it renders;
//! 2. **Known customer** — crawl a publicly advertised customer site and
//!    keep the canvases whose script URL the vendor's Script Pattern
//!    confirms;
//! 3. **Script pattern** — attribute canvases whose generating script URL
//!    contains the vendor's pattern.
//!
//! Imperva is special (§4.3.2): every deployment renders a unique canvas,
//! so grouping cannot find customers. Instead, singleton clusters whose
//! first-party script URL has Imperva's per-site path shape (Table 3's
//! pattern: a first path segment of letters and hyphens) are attributed
//! to Imperva.
//!
//! FingerprintJS open-source vs. commercial is separated by script URL
//! (`fpnpmcdn.net`) and script *content* (the Pro build's extra surface
//! probes), mirroring footnote 2.

use std::collections::{BTreeMap, BTreeSet};

use canvassing_net::{Network, Resource, Url};
use canvassing_raster::{DeviceProfile, SharedText};
use canvassing_vendors::{all_vendors, VendorId};
use serde::{Deserialize, Serialize};

use crate::cluster::Clustering;
use crate::detect::SiteDetection;

/// Ground-truth canvas sets per vendor.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Vendor → set of test-canvas data URLs.
    pub canvases: BTreeMap<VendorId, BTreeSet<SharedText>>,
    /// How each vendor's truth was obtained (for Table 3).
    pub methods: BTreeMap<VendorId, &'static str>,
}

/// Attribution engine inputs that stand in for the paper's "public
/// knowledge": demo pages and advertised customers.
pub struct AttributionSources {
    /// `(vendor, demo page URL)` pairs.
    pub demos: Vec<(VendorId, Url)>,
    /// `(vendor, known customer homepage)` pairs.
    pub customers: Vec<(VendorId, Url)>,
}

/// Gathers ground truth by crawling demos and known customers on the
/// given device (the same device as the main crawl, so canvases match).
pub fn gather_ground_truth(
    network: &Network,
    sources: &AttributionSources,
    device: &DeviceProfile,
) -> GroundTruth {
    let mut truth = GroundTruth::default();
    for (vendor_id, demo_url) in &sources.demos {
        if let Ok(visit) = canvassing_crawler::visit_once(network, demo_url, device.clone()) {
            let det = crate::detect::detect(&visit);
            let set = truth.canvases.entry(*vendor_id).or_default();
            for c in det.canvases {
                set.insert(c.data_url);
            }
            truth.methods.entry(*vendor_id).or_insert("demo");
        }
    }
    for (vendor_id, customer_url) in &sources.customers {
        if truth.canvases.contains_key(vendor_id) {
            // Demo takes precedence; customers confirm but don't extend.
            continue;
        }
        let Some(pattern) = canvassing_vendors::vendor(*vendor_id).url_pattern else {
            continue;
        };
        if let Ok(visit) = canvassing_crawler::visit_once(network, customer_url, device.clone()) {
            let det = crate::detect::detect(&visit);
            let set = truth.canvases.entry(*vendor_id).or_default();
            for c in det.canvases {
                // Keep only canvases the Script Pattern confirms (the
                // site may run several fingerprinters).
                if c.script_url.to_string().contains(pattern) {
                    set.insert(c.data_url);
                }
            }
            truth.methods.entry(*vendor_id).or_insert("known-customer");
        }
    }
    truth
}

/// One Table 1 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VendorReach {
    /// Vendor display name.
    pub name: String,
    /// Whether the vendor is a security application (bold in Table 1).
    pub security: bool,
    /// Fingerprinting popular sites linked to the vendor.
    pub popular_sites: usize,
    /// Fingerprinting tail sites linked to the vendor.
    pub tail_sites: usize,
    /// Attribution method used.
    pub method: String,
}

/// Full attribution output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributionResult {
    /// Per-vendor reach, Table 1 order.
    pub vendors: Vec<VendorReach>,
    /// Distinct attributed sites (popular, tail).
    pub attributed_sites: (usize, usize),
    /// Fingerprinting sites (popular, tail) — the percentage base.
    pub fingerprinting_sites: (usize, usize),
    /// FingerprintJS commercial customers (popular, tail) — §4.3.1.
    pub fpjs_commercial_sites: (usize, usize),
}

impl AttributionResult {
    /// Fraction of fingerprinting popular sites attributed to any vendor
    /// (the paper's 73%).
    pub fn popular_coverage(&self) -> f64 {
        if self.fingerprinting_sites.0 == 0 {
            return 0.0;
        }
        self.attributed_sites.0 as f64 / self.fingerprinting_sites.0 as f64
    }

    /// Fraction of fingerprinting tail sites attributed (the paper's 71%).
    pub fn tail_coverage(&self) -> f64 {
        if self.fingerprinting_sites.1 == 0 {
            return 0.0;
        }
        self.attributed_sites.1 as f64 / self.fingerprinting_sites.1 as f64
    }
}

/// Runs attribution over both cohorts.
///
/// `network` is used for script-content inspection (the FingerprintJS
/// commercial split) and must be the crawled network.
pub fn attribute(
    network: &Network,
    truth: &GroundTruth,
    popular: &[SiteDetection],
    tail: &[SiteDetection],
    popular_clusters: &Clustering,
    tail_clusters: &Clustering,
) -> AttributionResult {
    let mut vendors = Vec::new();
    let mut attributed_popular: BTreeSet<&str> = BTreeSet::new();
    let mut attributed_tail: BTreeSet<&str> = BTreeSet::new();

    for vendor in all_vendors() {
        let mut popular_sites: BTreeSet<&str> = BTreeSet::new();
        let mut tail_sites: BTreeSet<&str> = BTreeSet::new();
        let mut method = "script-pattern";

        if vendor.id == VendorId::Imperva {
            collect_imperva_sites(popular, popular_clusters, &mut popular_sites);
            collect_imperva_sites(tail, tail_clusters, &mut tail_sites);
            method = "script-pattern (per-site regex)";
        } else if let Some(set) = truth.canvases.get(&vendor.id) {
            method = truth.methods.get(&vendor.id).copied().unwrap_or("demo");
            collect_sites_by_canvas(popular, set, &mut popular_sites);
            collect_sites_by_canvas(tail, set, &mut tail_sites);
        } else if let Some(pattern) = vendor.url_pattern {
            // Pure script-pattern attribution (mail.ru, AWS WAF): find the
            // canvases produced by matching scripts, then group.
            let mut canvas_set: BTreeSet<SharedText> = BTreeSet::new();
            for d in popular.iter().chain(tail.iter()) {
                for c in &d.canvases {
                    if c.script_url.to_string().contains(pattern) {
                        canvas_set.insert(c.data_url.clone());
                    }
                }
            }
            collect_sites_by_canvas(popular, &canvas_set, &mut popular_sites);
            collect_sites_by_canvas(tail, &canvas_set, &mut tail_sites);
        }

        attributed_popular.extend(popular_sites.iter());
        attributed_tail.extend(tail_sites.iter());
        vendors.push(VendorReach {
            name: vendor.name.to_string(),
            security: vendor.security,
            popular_sites: popular_sites.len(),
            tail_sites: tail_sites.len(),
            method: method.to_string(),
        });
    }

    // FingerprintJS commercial split: among sites rendering the FPJS
    // canvas set, commercial customers are identified by script URL
    // (fpnpmcdn.net) or by fetching the script and finding the Pro build
    // marker (footnote 2's extra surfaces).
    let fpjs_commercial = if let Some(fpjs_set) = truth.canvases.get(&VendorId::FingerprintJs) {
        (
            count_commercial_fpjs(network, popular, fpjs_set),
            count_commercial_fpjs(network, tail, fpjs_set),
        )
    } else {
        (0, 0)
    };

    let fp_popular = popular.iter().filter(|d| d.is_fingerprinting()).count();
    let fp_tail = tail.iter().filter(|d| d.is_fingerprinting()).count();

    AttributionResult {
        vendors,
        attributed_sites: (attributed_popular.len(), attributed_tail.len()),
        fingerprinting_sites: (fp_popular, fp_tail),
        fpjs_commercial_sites: fpjs_commercial,
    }
}

fn collect_imperva_sites<'a>(
    detections: &'a [SiteDetection],
    clustering: &Clustering,
    out: &mut BTreeSet<&'a str>,
) {
    for d in detections {
        for c in &d.canvases {
            if imperva_matches(c, clustering) {
                out.insert(d.site.as_str());
            }
        }
    }
}

fn collect_sites_by_canvas<'a>(
    detections: &'a [SiteDetection],
    canvas_set: &BTreeSet<SharedText>,
    out: &mut BTreeSet<&'a str>,
) {
    for d in detections {
        if d.canvases.iter().any(|c| canvas_set.contains(&c.data_url)) {
            out.insert(d.site.as_str());
        }
    }
}

/// Imperva signature: singleton canvas cluster, first-party script, and
/// an Imperva-shaped script path.
fn imperva_matches(canvas: &crate::detect::FpCanvas, clustering: &Clustering) -> bool {
    if canvas.inline {
        return false;
    }
    if canvas.script_url.host != canvas.site {
        return false;
    }
    let singleton = clustering
        .find(&canvas.data_url)
        .map(|cl| cl.site_count() == 1)
        .unwrap_or(false);
    if !singleton {
        return false;
    }
    imperva_path_shaped(&canvas.script_url)
}

/// Imperva's per-site script path: Table 3's
/// `https?://(?:www\.)?[^/]+/([A-Za-z\-]+)` with the capture spanning the
/// whole first path segment. On a [`Url`] that is one check: the scheme is
/// `http` or `https`, and the first path segment (between the path's first
/// `/` and the next) is non-empty and holds only ASCII letters and
/// hyphens. Host, port, query and the rest of the path play no part, so a
/// URL embedded later in the path (which an unanchored regex search could
/// match instead) does not count.
fn imperva_path_shaped(url: &Url) -> bool {
    let Some(rest) = url.path.strip_prefix('/') else {
        return false;
    };
    let segment = rest.split('/').next().unwrap_or("");
    (url.scheme == "http" || url.scheme == "https")
        && !segment.is_empty()
        && segment
            .bytes()
            .all(|b| b.is_ascii_alphabetic() || b == b'-')
}

fn count_commercial_fpjs(
    network: &Network,
    detections: &[SiteDetection],
    fpjs_canvases: &BTreeSet<SharedText>,
) -> usize {
    let mut commercial_sites: BTreeSet<&str> = BTreeSet::new();
    for d in detections {
        for c in &d.canvases {
            if !fpjs_canvases.contains(&c.data_url) {
                continue;
            }
            let url_str = c.script_url.to_string();
            let by_url = url_str.contains("fpnpmcdn.net");
            let by_content = !c.inline
                && matches!(
                    network.peek(&c.script_url),
                    Some(Resource::Script(s)) if s.source.contains("Fingerprint Pro")
                );
            if by_url || by_content {
                commercial_sites.insert(d.site.as_str());
            }
        }
    }
    commercial_sites.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::FpCanvas;
    use canvassing_net::Party;

    fn canvas(site: &str, data: &str, script: Url, inline: bool) -> FpCanvas {
        FpCanvas {
            site: site.into(),
            data_url: data.into(),
            hash: canvassing_raster::content_hash(data.as_bytes()),
            script_url: script,
            inline,
            party: Party::ThirdParty,
            cname_cloaked: false,
            cdn: false,
            width: 200,
            height: 50,
        }
    }

    fn det(site: &str, canvases: Vec<FpCanvas>) -> SiteDetection {
        SiteDetection {
            site: site.into(),
            canvases,
            excluded: vec![],
            double_render_check: false,
        }
    }

    #[test]
    fn canvas_set_attribution_groups_sites() {
        let truth_set: BTreeSet<SharedText> = [SharedText::from("data:akamai")].into();
        let detections = vec![
            det(
                "a.com",
                vec![canvas(
                    "a.com",
                    "data:akamai",
                    Url::https("a.com", "/akam/1.js"),
                    false,
                )],
            ),
            det(
                "b.com",
                vec![canvas(
                    "b.com",
                    "data:other",
                    Url::https("x.net", "/f.js"),
                    false,
                )],
            ),
        ];
        let mut out = BTreeSet::new();
        collect_sites_by_canvas(&detections, &truth_set, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out.contains("a.com"));
    }

    #[test]
    fn imperva_requires_singleton_first_party_full_segment() {
        let mk = |site: &str, data: &str, url: Url, inline: bool| canvas(site, data, url, inline);
        // Proper Imperva shape.
        let c1 = mk(
            "shop.com",
            "data:unique1",
            Url::https("shop.com", "/Valen-Torke/init.js"),
            false,
        );
        // Shared cluster (akamai-like) — same path shape, not singleton.
        let c2a = mk(
            "x.com",
            "data:shared",
            Url::https("x.com", "/akam/s.js"),
            false,
        );
        let c2b = mk(
            "y.com",
            "data:shared",
            Url::https("y.com", "/akam/s.js"),
            false,
        );
        // Third-party singleton — not Imperva.
        let c3 = mk(
            "z.com",
            "data:unique2",
            Url::https("cdn.net", "/Token-Like/init.js"),
            false,
        );
        let detections = [
            det("shop.com", vec![c1.clone()]),
            det("x.com", vec![c2a.clone()]),
            det("y.com", vec![c2b.clone()]),
            det("z.com", vec![c3.clone()]),
        ];
        let clustering = Clustering::build(detections.iter());
        assert!(imperva_matches(&c1, &clustering));
        assert!(!imperva_matches(&c2a, &clustering), "shared cluster");
        assert!(!imperva_matches(&c3, &clustering), "third-party");
    }

    #[test]
    fn imperva_rejects_numeric_segments() {
        let c = canvas(
            "a.com",
            "data:u",
            Url::https("a.com", "/v2cache/init.js"),
            false,
        );
        let detections = [det("a.com", vec![c.clone()])];
        let clustering = Clustering::build(detections.iter());
        // "v2cache" contains a digit: the Table 3 regex would capture only
        // "v", not the whole segment, so it is not Imperva-shaped.
        assert!(!imperva_matches(&c, &clustering));
    }

    /// Edge cases of the Table 3 pattern. The expected values are what the
    /// regex check this predicate replaced answered
    /// (`https?://(?:www\.)?[^/]+/([A-Za-z\-]+)`, capture equal to the
    /// first path segment), except where noted.
    #[test]
    fn imperva_path_shape_follows_table3_pattern() {
        for (input, expected) in [
            ("https://a.com/Valen-Torke/init.js", true),
            ("https://a.com/abc", true),
            ("http://a.com/ABC-def", true),
            ("https://www.a.com/abc/x.js", true),
            ("https://a.com:8080/abc/x.js", true),
            ("https://a.com/-", true),
            ("https://a.com/abc?q=https://x.com/abc", true),
            ("https://a.com/v2cache/init.js", false),
            ("https://a.com/", false),
            ("https://a.com//abc", false),
            ("https://a.com//https://x.com/abc", false),
            ("https://a.com/1/https://b.com/abc", false),
            ("https://a.com/a1?x=1", false),
            ("https://a.com?x=/abc", false),
            ("https://a.com/ab_c/x", false),
            ("https://a.com/ab.c/x", false),
            ("https://a.com/%41bc/x", false),
            ("https://a.com/é/x", false),
        ] {
            let url = Url::parse(input).unwrap();
            assert_eq!(imperva_path_shaped(&url), expected, "{input}");
        }
        let ftp = Url {
            scheme: "ftp".into(),
            ..Url::https("a.com", "/abc")
        };
        assert!(!imperva_path_shaped(&ftp));
        // The one deliberate difference: the unanchored regex search found
        // the embedded URL and compared its capture ("abc") with the
        // segment after *all* leading slashes, so it matched. The first
        // segment here is empty.
        let embedded = Url::parse("https://a.com//abc/https://x.com/abc").unwrap();
        assert!(!imperva_path_shaped(&embedded));
    }
}
