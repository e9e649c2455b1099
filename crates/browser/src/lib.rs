//! # canvassing-browser
//!
//! A headless browser simulation: the execution environment the crawler
//! drives across the synthetic web.
//!
//! A [`Browser`] couples a rendering device profile with an optional
//! ad-block [`extension::Extension`] and a canvas
//! [`defenses::DefenseMode`], then executes page visits: fetch the
//! document, auto-accept consent banners, pass bot gates, run each
//! referenced script (inline or external, honoring extension blocking and
//! CNAME resolution), simulate scrolling, and hand back the instrumented
//! Canvas API record — the same artifact the paper's modified Tracker
//! Radar Collector produces (§3.1).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod defenses;
pub mod extension;
pub mod memo;
pub mod visit;

pub use canvassing_analysis::{AnalysisCache, AnalysisStats, ScriptAnalysis, Verdict};
pub use canvassing_script::{ScriptCache, ScriptCacheStats};
pub use defenses::DefenseMode;
pub use extension::{AdBlockerKind, BlockDecision, Extension};
pub use memo::{CrawlCaches, PerfCounters, PerfSnapshot, RenderEntry, RenderMemo};
pub use visit::{
    BlockedScript, Browser, LoadedScript, PageVisit, VisitAbort, VisitError, VisitPolicy,
};

#[cfg(test)]
mod vendor_script_tests {
    //! Every modeled vendor script must actually execute against the DOM
    //! and extract the number of canvases its metadata declares.

    use super::*;
    use canvassing_net::{PageResource, Resource, ScriptRef, ScriptResource, Url};
    use canvassing_raster::DeviceProfile;
    use canvassing_vendors::{all_vendors, scripts, VendorId};

    fn run_vendor(id: VendorId, commercial: bool) -> PageVisit {
        let mut network = canvassing_net::Network::new();
        let source = scripts::source(id, "Tok-En", commercial);
        let url = Url::https("vendor-host.example", "/fp.js");
        network.host(
            &url,
            Resource::Script(ScriptResource {
                source,
                label: format!("{id:?}"),
            }),
        );
        network.host(
            &Url::https("site.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(url)],
                consent_banner: false,
                bot_check: false,
            }),
        );
        Browser::new(DeviceProfile::intel_ubuntu())
            .visit(&network, &Url::https("site.com", "/"))
            .expect("visit")
    }

    #[test]
    fn all_vendor_scripts_run_cleanly() {
        for v in all_vendors() {
            let visit = run_vendor(v.id, false);
            for s in &visit.scripts {
                assert!(s.error.is_none(), "{} script error: {:?}", v.name, s.error);
            }
            assert!(
                !visit.extractions.is_empty(),
                "{} extracted nothing",
                v.name
            );
        }
    }

    #[test]
    fn vendor_unique_canvas_counts_match_metadata() {
        for v in all_vendors() {
            let visit = run_vendor(v.id, false);
            let unique: std::collections::BTreeSet<&str> = visit
                .extractions
                .iter()
                .map(|e| e.data_url.as_str())
                .collect();
            assert_eq!(
                unique.len(),
                v.canvas_count,
                "{}: expected {} unique canvases, extractions: {}",
                v.name,
                v.canvas_count,
                visit.extractions.len()
            );
        }
    }

    #[test]
    fn double_render_vendors_extract_a_canvas_twice() {
        for v in all_vendors() {
            let visit = run_vendor(v.id, false);
            let mut counts = std::collections::BTreeMap::new();
            for e in &visit.extractions {
                *counts.entry(e.data_url.as_str()).or_insert(0usize) += 1;
            }
            let has_double = counts.values().any(|&c| c >= 2);
            assert_eq!(
                has_double, v.double_render,
                "{}: double-render mismatch (counts {counts:?})",
                v.name
            );
        }
    }

    #[test]
    fn commercial_fpjs_renders_same_canvases_as_oss() {
        let oss = run_vendor(VendorId::FingerprintJs, false);
        let pro = run_vendor(VendorId::FingerprintJs, true);
        let urls = |v: &PageVisit| -> std::collections::BTreeSet<canvassing_raster::SharedText> {
            v.extractions.iter().map(|e| e.data_url.clone()).collect()
        };
        assert_eq!(urls(&oss), urls(&pro));
    }

    #[test]
    fn imperva_canvases_differ_across_sites() {
        let run_on = |token: &str| {
            let mut network = canvassing_net::Network::new();
            let url = Url::https("site.com", "/x/init.js");
            network.host(
                &url,
                Resource::Script(ScriptResource {
                    source: scripts::source(VendorId::Imperva, token, false),
                    label: "imperva".into(),
                }),
            );
            network.host(
                &Url::https("site.com", "/"),
                Resource::Page(PageResource {
                    scripts: vec![ScriptRef::External(url)],
                    consent_banner: false,
                    bot_check: false,
                }),
            );
            Browser::new(DeviceProfile::intel_ubuntu())
                .visit(&network, &Url::https("site.com", "/"))
                .unwrap()
                .extractions[0]
                .data_url
                .clone()
        };
        assert_ne!(run_on("Alpha-One"), run_on("Beta-Two"));
    }

    #[test]
    fn benign_scripts_run_cleanly() {
        use canvassing_vendors::benign::{source, BenignKind};
        for kind in BenignKind::all() {
            let mut network = canvassing_net::Network::new();
            let url = Url::https("site.com", "/assets/benign.js");
            network.host(
                &url,
                Resource::Script(ScriptResource {
                    source: source(*kind, 42),
                    label: kind.label().into(),
                }),
            );
            network.host(
                &Url::https("site.com", "/"),
                Resource::Page(PageResource {
                    scripts: vec![ScriptRef::External(url)],
                    consent_banner: false,
                    bot_check: false,
                }),
            );
            let visit = Browser::new(DeviceProfile::intel_ubuntu())
                .visit(&network, &Url::https("site.com", "/"))
                .unwrap();
            for s in &visit.scripts {
                assert!(s.error.is_none(), "{:?}: {:?}", kind, s.error);
            }
            // Probes may extract more than once (e.g. two WebP qualities).
            assert!(
                (1..=2).contains(&visit.extractions.len()),
                "{kind:?}: {} extractions",
                visit.extractions.len()
            );
        }
    }
}
