//! Blocklist coverage of fingerprinting scripts (§5.1, Table 4).
//!
//! The paper's methodology, mechanized: for each fingerprintable canvas,
//! check whether the URL of the script that generated it is covered by
//! EasyList / EasyPrivacy (adblockparser-style, resource type `script`,
//! no page context) or by the domain-based Disconnect list.

use canvassing_blocklist::{DisconnectList, FilterList};
use canvassing_net::ResourceType;
use serde::{Deserialize, Serialize};

use crate::detect::SiteDetection;

/// Table 4 counts for one cohort.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CoverageCounts {
    /// Canvases generated by EasyList-covered scripts.
    pub easylist: usize,
    /// Canvases generated by EasyPrivacy-covered scripts.
    pub easyprivacy: usize,
    /// Canvases generated by Disconnect-listed scripts.
    pub disconnect: usize,
    /// Canvases covered by at least one list.
    pub any: usize,
    /// Canvases covered by all three lists.
    pub all: usize,
    /// Total fingerprintable canvases (the percentage base).
    pub total: usize,
    /// Sites with at least one covered canvas.
    pub sites_any: usize,
    /// Total fingerprinting sites.
    pub sites_total: usize,
}

impl CoverageCounts {
    /// Percentage helper (0 when the base is 0).
    pub fn pct(n: usize, base: usize) -> f64 {
        if base == 0 {
            0.0
        } else {
            100.0 * n as f64 / base as f64
        }
    }

    /// "Any list" canvas percentage — the paper's headline 45% / 37%.
    pub fn any_pct(&self) -> f64 {
        Self::pct(self.any, self.total)
    }

    /// Folds one site's detection into the counters. Coverage of a canvas
    /// depends only on its own script URL, so absorb order never matters.
    pub fn absorb(
        &mut self,
        d: &SiteDetection,
        easylist: &FilterList,
        easyprivacy: &FilterList,
        disconnect: &DisconnectList,
    ) {
        if d.is_fingerprinting() {
            self.sites_total += 1;
        }
        let mut site_covered = false;
        for c in &d.canvases {
            self.total += 1;
            // Bundled scripts carry the page URL: no list can match them
            // by script URL (part of the paper's evasion story).
            let el = easylist.covers_script_url(&c.script_url, ResourceType::Script);
            let ep = easyprivacy.covers_script_url(&c.script_url, ResourceType::Script);
            let dc = disconnect.contains_url(&c.script_url);
            if el {
                self.easylist += 1;
            }
            if ep {
                self.easyprivacy += 1;
            }
            if dc {
                self.disconnect += 1;
            }
            if el || ep || dc {
                self.any += 1;
                site_covered = true;
            }
            if el && ep && dc {
                self.all += 1;
            }
        }
        if site_covered {
            self.sites_any += 1;
        }
    }
}

/// Computes Table 4 for one cohort's detections.
pub fn coverage(
    detections: &[SiteDetection],
    easylist: &FilterList,
    easyprivacy: &FilterList,
    disconnect: &DisconnectList,
) -> CoverageCounts {
    let mut out = CoverageCounts::default();
    for d in detections {
        out.absorb(d, easylist, easyprivacy, disconnect);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::FpCanvas;
    use canvassing_net::{Party, Url};

    fn canvas(site: &str, script: Url, inline: bool) -> FpCanvas {
        FpCanvas {
            site: site.into(),
            data_url: format!("data:{site}:{script}"),
            hash: 0,
            script_url: script,
            inline,
            party: Party::ThirdParty,
            cname_cloaked: false,
            cdn: false,
            width: 100,
            height: 100,
        }
    }

    fn detections() -> Vec<SiteDetection> {
        vec![
            SiteDetection {
                site: "a.com".into(),
                canvases: vec![
                    canvas("a.com", Url::https("everylist.net", "/fp.js"), false),
                    canvas("a.com", Url::https("clean.example", "/fp.js"), false),
                ],
                excluded: vec![],
                double_render_check: false,
            },
            SiteDetection {
                site: "b.com".into(),
                canvases: vec![canvas("b.com", Url::https("b.com", "/"), true)],
                excluded: vec![],
                double_render_check: false,
            },
        ]
    }

    #[test]
    fn counts_per_list_and_combinations() {
        let el = FilterList::parse("EL", "||everylist.net^$script\n");
        let ep = FilterList::parse("EP", "||everylist.net^\n");
        let dc = DisconnectList::from_domains(["everylist.net"]);
        let c = coverage(&detections(), &el, &ep, &dc);
        assert_eq!(c.total, 3);
        assert_eq!(c.easylist, 1);
        assert_eq!(c.easyprivacy, 1);
        assert_eq!(c.disconnect, 1);
        assert_eq!(c.any, 1);
        assert_eq!(c.all, 1);
        assert_eq!(c.sites_any, 1);
        assert_eq!(c.sites_total, 2);
        assert!((c.any_pct() - 33.333).abs() < 0.01);
    }

    #[test]
    fn bundled_scripts_never_covered() {
        // Even a catch-all host rule cannot match a page-URL script ref
        // unless it matches the page host itself.
        let el = FilterList::parse("EL", "||everylist.net^$script\n");
        let ep = FilterList::parse("EP", "");
        let dc = DisconnectList::from_domains(Vec::<String>::new());
        let c = coverage(&detections(), &el, &ep, &dc);
        // b.com's bundled canvas contributes to total but no coverage.
        assert_eq!(c.total, 3);
        assert_eq!(c.any, 1);
    }

    #[test]
    fn document_rules_do_not_count() {
        let el = FilterList::parse("EL", "||everylist.net^$document\n");
        let ep = FilterList::parse("EP", "");
        let dc = DisconnectList::from_domains(Vec::<String>::new());
        let c = coverage(&detections(), &el, &ep, &dc);
        assert_eq!(c.easylist, 0);
        assert_eq!(c.any, 0);
    }
}
