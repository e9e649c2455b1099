//! Fingerprintable-canvas detection (§3.2).
//!
//! Every `toDataURL` extraction is judged against the paper's three
//! heuristics, adapted from Englehardt & Narayanan (2016):
//!
//! 1. **lossy format** — JPEG/WebP extractions cannot carry the sub-pixel
//!    detail fingerprinting needs, and excluding WebP also removes WebP
//!    compatibility probes;
//! 2. **small canvas** — anything under 16×16 px lacks entropy (and this
//!    conveniently removes emoji probes and tiny badges);
//! 3. **animation script** — extractions by scripts that also invoke
//!    animation-associated methods (`save`, `restore`) are drawing UI,
//!    not test canvases.

use canvassing_browser::PageVisit;
use canvassing_dom::{ApiInterface, CallKind};
use canvassing_net::{classify_party, is_popular_cdn, Party, Url};
use canvassing_raster::SharedText;
use serde::{Deserialize, Serialize};

/// Why an extraction was excluded from the fingerprintable set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExclusionReason {
    /// Extracted as JPEG or WebP.
    LossyFormat,
    /// Smaller than 16×16 pixels.
    TooSmall,
    /// The extracting script also called animation-associated methods.
    AnimationScript,
}

/// Methods whose use marks a script as animating rather than
/// fingerprinting ("save, restore, etc." — §3.2).
const ANIMATION_METHODS: &[&str] = &["save", "restore"];

/// Minimum edge length for a fingerprintable canvas.
pub const MIN_CANVAS_EDGE: u32 = 16;

/// One fingerprintable canvas observation on one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FpCanvas {
    /// Host of the page the canvas was extracted on.
    pub site: String,
    /// The full data URL (the clustering key): the extraction's handle,
    /// and once clustered, its cluster's.
    pub data_url: SharedText,
    /// Stable content hash of the data URL.
    pub hash: u64,
    /// URL of the extracting script (page URL for bundled code).
    pub script_url: Url,
    /// Whether the script was inline/bundled first-party code.
    pub inline: bool,
    /// Party of the script relative to the page.
    pub party: Party,
    /// Whether the script's host CNAME-resolves off-site.
    pub cname_cloaked: bool,
    /// Whether the script was served from an Appendix A.5 CDN.
    pub cdn: bool,
    /// Canvas dimensions at extraction.
    pub width: u32,
    /// Canvas height at extraction.
    pub height: u32,
}

/// Detection output for one visited page.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteDetection {
    /// Page host.
    pub site: String,
    /// Fingerprintable canvases (may repeat a data URL when a script
    /// performs the double-render check).
    pub canvases: Vec<FpCanvas>,
    /// Excluded extractions with reasons.
    pub excluded: Vec<(ExclusionReason, String)>,
    /// Whether at least one identical canvas was extracted twice — the
    /// §5.3 randomization-detection signature.
    pub double_render_check: bool,
}

impl SiteDetection {
    /// Whether the site rendered at least one fingerprintable canvas.
    pub fn is_fingerprinting(&self) -> bool {
        !self.canvases.is_empty()
    }

    /// Whether the site only had excluded (benign) canvas activity —
    /// the Appendix A.2 "fully excluded" population.
    pub fn is_fully_excluded(&self) -> bool {
        self.canvases.is_empty() && !self.excluded.is_empty()
    }

    /// Distinct fingerprintable data URLs on this site.
    pub fn unique_canvases(&self) -> std::collections::BTreeSet<&str> {
        self.canvases.iter().map(|c| c.data_url.as_str()).collect()
    }
}

/// Judges every extraction of a visit against the three heuristics.
pub fn detect(visit: &PageVisit) -> SiteDetection {
    // Scripts (by attributed URL) that invoked animation methods.
    let mut animating: std::collections::BTreeSet<&str> = Default::default();
    for call in &visit.api_calls {
        if call.interface == ApiInterface::Context2D
            && call.kind == CallKind::Method
            && ANIMATION_METHODS.contains(&call.name.as_str())
        {
            animating.insert(call.script_url.as_str());
        }
    }

    // Script metadata lookup by attributed URL.
    let script_info = |url_str: &str| -> (bool, bool) {
        // returns (inline, cname_cloaked)
        for s in &visit.scripts {
            if s.url.to_string() == url_str {
                return (s.inline, s.cname_cloaked);
            }
        }
        (false, false)
    };

    let page_str = visit.page.to_string();
    let mut out = SiteDetection {
        site: visit.page.host.clone(),
        ..SiteDetection::default()
    };

    for e in &visit.extractions {
        let verdict = if e.mime != "image/png" {
            Err(ExclusionReason::LossyFormat)
        } else if e.width < MIN_CANVAS_EDGE || e.height < MIN_CANVAS_EDGE {
            Err(ExclusionReason::TooSmall)
        } else if animating.contains(e.script_url.as_str()) {
            Err(ExclusionReason::AnimationScript)
        } else {
            Ok(())
        };
        match verdict {
            Err(reason) => out.excluded.push((reason, e.script_url.clone())),
            Ok(()) => {
                let script_url = Url::parse(&e.script_url).unwrap_or_else(|_| visit.page.clone());
                let (mut inline, cloaked) = script_info(&e.script_url);
                if e.script_url == page_str {
                    inline = true;
                }
                let party = if inline {
                    Party::FirstParty
                } else {
                    classify_party(&visit.page, &script_url)
                };
                out.canvases.push(FpCanvas {
                    site: visit.page.host.clone(),
                    hash: e.data_url.hash(),
                    data_url: e.data_url.clone(),
                    cdn: !inline && is_popular_cdn(&script_url.host),
                    script_url,
                    inline,
                    party,
                    cname_cloaked: cloaked,
                    width: e.width,
                    height: e.height,
                });
            }
        }
    }

    // Double-render signature: an identical fingerprintable canvas
    // extracted at least twice on this page.
    let mut counts: std::collections::BTreeMap<&SharedText, usize> = Default::default();
    for c in &out.canvases {
        *counts.entry(&c.data_url).or_default() += 1;
    }
    out.double_render_check = counts.values().any(|&n| n >= 2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_browser::Browser;
    use canvassing_net::{Network, PageResource, Resource, ScriptRef, ScriptResource};
    use canvassing_raster::DeviceProfile;

    fn run(source: &str) -> SiteDetection {
        let mut network = Network::new();
        let script_url = Url::https("scripts.example.net", "/s.js");
        network.host(
            &script_url,
            Resource::Script(ScriptResource {
                source: source.to_string(),
                label: "t".into(),
            }),
        );
        network.host(
            &Url::https("page.com", "/"),
            Resource::Page(PageResource {
                scripts: vec![ScriptRef::External(script_url)],
                consent_banner: false,
                bot_check: false,
            }),
        );
        let visit = Browser::new(DeviceProfile::intel_ubuntu())
            .visit(&network, &Url::https("page.com", "/"))
            .unwrap();
        detect(&visit)
    }

    #[test]
    fn plain_png_extraction_is_fingerprintable() {
        let d = run(r##"
            let c = document.createElement("canvas");
            c.width = 100; c.height = 30;
            let x = c.getContext("2d");
            x.fillStyle = "#069";
            x.fillText("probe", 2, 12);
            c.toDataURL();
        "##);
        assert!(d.is_fingerprinting());
        assert_eq!(d.canvases.len(), 1);
        assert!(d.excluded.is_empty());
        assert!(!d.double_render_check);
        assert_eq!(d.canvases[0].party, Party::ThirdParty);
    }

    #[test]
    fn webp_extraction_is_excluded_as_lossy() {
        let d = run(r#"
            let c = document.createElement("canvas");
            c.toDataURL("image/webp");
        "#);
        assert!(!d.is_fingerprinting());
        assert!(d.is_fully_excluded());
        assert_eq!(d.excluded[0].0, ExclusionReason::LossyFormat);
    }

    #[test]
    fn jpeg_extraction_is_excluded_as_lossy() {
        let d = run(r#"
            let c = document.createElement("canvas");
            c.width = 300; c.height = 200;
            c.toDataURL("image/jpeg", 0.8);
        "#);
        assert_eq!(d.excluded[0].0, ExclusionReason::LossyFormat);
    }

    #[test]
    fn small_canvas_is_excluded() {
        let d = run(r#"
            let c = document.createElement("canvas");
            c.width = 12; c.height = 12;
            let x = c.getContext("2d");
            x.fillStyle = "red";
            x.fillRect(0, 0, 12, 12);
            c.toDataURL();
        "#);
        assert_eq!(d.excluded[0].0, ExclusionReason::TooSmall);
        // 15x300 also fails (either edge).
        let d = run(r#"
            let c = document.createElement("canvas");
            c.width = 15; c.height = 300;
            c.toDataURL();
        "#);
        assert_eq!(d.excluded[0].0, ExclusionReason::TooSmall);
    }

    #[test]
    fn sixteen_square_is_large_enough() {
        let d = run(r#"
            let c = document.createElement("canvas");
            c.width = 16; c.height = 16;
            c.toDataURL();
        "#);
        assert!(d.is_fingerprinting());
    }

    #[test]
    fn animating_script_is_excluded() {
        let d = run(r#"
            let c = document.createElement("canvas");
            c.width = 300; c.height = 150;
            let x = c.getContext("2d");
            x.save();
            x.translate(10, 10);
            x.fillRect(0, 0, 20, 20);
            x.restore();
            c.toDataURL();
        "#);
        assert_eq!(d.excluded[0].0, ExclusionReason::AnimationScript);
    }

    #[test]
    fn double_render_is_flagged() {
        let d = run(r#"
            fn render() {
                let c = document.createElement("canvas");
                c.width = 40; c.height = 20;
                let x = c.getContext("2d");
                x.fillStyle = "teal";
                x.fillRect(0, 0, 40, 20);
                return c.toDataURL();
            }
            let a = render();
            let b = render();
        "#);
        assert!(d.double_render_check);
        assert_eq!(d.canvases.len(), 2);
        assert_eq!(d.unique_canvases().len(), 1);
    }

    #[test]
    fn fingerprintable_fraction_is_tracked_per_reason() {
        let d = run(r#"
            let c = document.createElement("canvas");
            c.width = 100; c.height = 100;
            c.toDataURL();
            c.toDataURL("image/webp");
        "#);
        assert_eq!(d.canvases.len(), 1);
        assert_eq!(d.excluded.len(), 1);
        assert!(!d.is_fully_excluded());
    }
}
