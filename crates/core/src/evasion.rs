//! Serving-strategy evasion analysis (§5.2) and the §5.3 randomization
//! check detection.

use canvassing_net::Party;
use serde::{Deserialize, Serialize};

use crate::detect::SiteDetection;

/// §5.2 evasion statistics for one cohort (site-level: a site counts when
/// at least one of its fingerprintable canvases exhibits the property).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvasionStats {
    /// Fingerprinting sites total.
    pub fingerprinting_sites: usize,
    /// Sites with ≥1 canvas from a first-party-served script (incl.
    /// bundled code and first-party subdomains).
    pub first_party_sites: usize,
    /// Sites with ≥1 canvas from a script on a subdomain of the site.
    pub subdomain_sites: usize,
    /// Sites with ≥1 canvas from a script on an Appendix A.5 CDN.
    pub cdn_sites: usize,
    /// Sites with ≥1 canvas from a CNAME-cloaked script host.
    pub cname_sites: usize,
    /// Sites with ≥1 canvas from bundled (inline) first-party code.
    pub bundled_sites: usize,
    /// §5.3: sites performing the double-render randomization check.
    pub double_render_sites: usize,
}

impl EvasionStats {
    /// Percentage helper against the fingerprinting-site base.
    pub fn pct(&self, n: usize) -> f64 {
        if self.fingerprinting_sites == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.fingerprinting_sites as f64
        }
    }

    /// Computes stats over a cohort's detections.
    pub fn compute(detections: &[SiteDetection]) -> EvasionStats {
        let mut s = EvasionStats::default();
        for d in detections {
            s.absorb(d);
        }
        s
    }

    /// Folds one site's detection into the counters. Every counter is a
    /// per-site flag, so absorb order never matters.
    pub fn absorb(&mut self, d: &SiteDetection) {
        if !d.is_fingerprinting() {
            return;
        }
        self.fingerprinting_sites += 1;
        let mut first_party = false;
        let mut subdomain = false;
        let mut cdn = false;
        let mut cname = false;
        let mut bundled = false;
        for c in &d.canvases {
            match c.party {
                Party::FirstParty => first_party = true,
                Party::FirstPartySubdomain => {
                    first_party = true;
                    subdomain = true;
                }
                Party::ThirdParty => {}
            }
            if c.cdn {
                cdn = true;
            }
            if c.cname_cloaked {
                cname = true;
            }
            if c.inline {
                bundled = true;
            }
        }
        if first_party {
            self.first_party_sites += 1;
        }
        if subdomain {
            self.subdomain_sites += 1;
        }
        if cdn {
            self.cdn_sites += 1;
        }
        if cname {
            self.cname_sites += 1;
        }
        if bundled {
            self.bundled_sites += 1;
        }
        if d.double_render_check {
            self.double_render_sites += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::FpCanvas;
    use canvassing_net::Url;

    fn canvas(site: &str, party: Party, inline: bool, cdn: bool, cname: bool) -> FpCanvas {
        FpCanvas {
            site: site.into(),
            data_url: format!("data:{site}"),
            hash: 0,
            script_url: Url::https("s.net", "/f.js"),
            inline,
            party,
            cname_cloaked: cname,
            cdn,
            width: 100,
            height: 100,
        }
    }

    fn det(site: &str, canvases: Vec<FpCanvas>, double: bool) -> SiteDetection {
        SiteDetection {
            site: site.into(),
            canvases,
            excluded: vec![],
            double_render_check: double,
        }
    }

    #[test]
    fn site_level_flags() {
        let detections = vec![
            det(
                "a.com",
                vec![
                    canvas("a.com", Party::FirstParty, true, false, false),
                    canvas("a.com", Party::ThirdParty, false, true, false),
                ],
                true,
            ),
            det(
                "b.com",
                vec![canvas(
                    "b.com",
                    Party::FirstPartySubdomain,
                    false,
                    false,
                    false,
                )],
                false,
            ),
            det(
                "c.com",
                vec![canvas("c.com", Party::ThirdParty, false, false, true)],
                false,
            ),
            det("skip.com", vec![], false),
        ];
        let s = EvasionStats::compute(&detections);
        assert_eq!(s.fingerprinting_sites, 3);
        assert_eq!(s.first_party_sites, 2); // a (bundled) + b (subdomain)
        assert_eq!(s.subdomain_sites, 1);
        assert_eq!(s.cdn_sites, 1);
        assert_eq!(s.cname_sites, 1);
        assert_eq!(s.bundled_sites, 1);
        assert_eq!(s.double_render_sites, 1);
        assert!((s.pct(s.first_party_sites) - 66.666).abs() < 0.01);
    }

    #[test]
    fn empty_detections_all_zero() {
        let s = EvasionStats::compute(&[]);
        assert_eq!(s.fingerprinting_sites, 0);
        assert_eq!(s.pct(0), 0.0);
    }
}
