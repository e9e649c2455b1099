//! Synthetic EasyList / EasyPrivacy / Disconnect content.
//!
//! The lists are generated *from the deployment plan*, the way real lists
//! accrete around the real web. The structure deliberately reproduces the
//! rule-design phenomena the paper measures:
//!
//! * **Static coverage ≫ dynamic blocking** (§5.1 vs §5.2): many rules
//!   match script URLs that are served first-party (Akamai's `/akam/`
//!   path, subdomain-routed SDKs) where ad blockers apply first-party
//!   exceptions; others are neutralized by site-scoped `@@` exceptions the
//!   lists carry "to avoid breaking sites".
//! * **`$document` rules** (Appendix A.6): a corpus of rules that apply
//!   only to documents and therefore never block a script request — the
//!   `||mgid.com^$document` failure mode.
//! * **Domain-based Disconnect**: a flat domain list.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use canvassing_net::domain::registrable_domain;
use serde::{Deserialize, Serialize};

use crate::config::{GenericCategory, Serving};
use crate::deployment::{ScriptKind, WebPlan};
use crate::materialize::generic_host;

/// The three generated lists, as raw text (EasyList/EasyPrivacy in ABP
/// filter syntax, Disconnect as one domain per line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratedLists {
    /// EasyList-shaped advertising list.
    pub easylist: String,
    /// EasyPrivacy-shaped tracking list.
    pub easyprivacy: String,
    /// Disconnect-shaped domain list.
    pub disconnect: String,
}

/// Low cluster ids (the big, widely embedded scripts) accumulate
/// site-scoped `@@` exceptions — blocking them would break many sites.
/// This is the id threshold as a per-mille of the cluster population.
const EL_EXCEPTED_HEAD_PERMILLE: usize = 400;

/// Generates all three lists from the plan.
pub fn generate_lists(plan: &WebPlan) -> GeneratedLists {
    // Which registrable page domains use each generic cluster (for
    // site-scoped exceptions).
    let mut cluster_pages: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for site in &plan.sites {
        for d in &site.deployments {
            if let ScriptKind::Generic { cluster, .. } = d.kind {
                if d.serving == Serving::ThirdParty {
                    let rd = registrable_domain(&site.seed.host)
                        .unwrap_or(&site.seed.host)
                        .to_string();
                    let pages = cluster_pages.entry(cluster).or_default();
                    if !pages.contains(&rd) {
                        pages.push(rd);
                    }
                }
            }
        }
    }

    let mut el = String::new();
    let mut ep = String::new();
    let mut dc = String::new();

    el.push_str("[Adblock Plus 2.0]\n! Title: EasyList (synthetic)\n");
    ep.push_str("[Adblock Plus 2.0]\n! Title: EasyPrivacy (synthetic)\n");
    dc.push_str("# Disconnect tracker protection (synthetic)\n");

    // ----- vendor rules -----
    // Akamai: EasyList carries a path rule that matches the sensor URL,
    // but the script is served first-party, so blockers never fire on it
    // (§5.2 footnote 5).
    el.push_str("/akam/*$script\n");
    // mail.ru: blocked on paper, excepted on .ru sites to avoid breakage.
    el.push_str("||privacy-cs.mail.ru^$script\n");
    el.push_str("@@||privacy-cs.mail.ru^$script,domain=ru\n");
    // Ad-tech vendors with effective script rules.
    el.push_str("||cdn.insurads.com^$script\n");
    el.push_str("||c.adsco.re^$script\n");
    // The Appendix A.6 example, verbatim: a document-only rule that never
    // applies to script loads.
    el.push_str("||mgid.com^$document\n");

    ep.push_str("||privacy-cs.mail.ru^\n");
    ep.push_str("||openfpcdn.io^$script\n");
    ep.push_str("||fpnpmcdn.net^$script\n");
    ep.push_str("||client.px-cloud.net^\n");
    ep.push_str("||cdn.sift.com^\n");
    ep.push_str("||c.adsco.re^\n");
    ep.push_str("||cdn.insurads.com^\n");

    dc.push_str("mail.ru\n");
    dc.push_str("sift.com\n");
    dc.push_str("adsco.re\n");
    dc.push_str("insurads.com\n");

    // ----- generic cluster rules -----
    for cluster in &plan.clusters {
        let host = generic_host(cluster.id, cluster.category);
        match cluster.category {
            GenericCategory::Ad | GenericCategory::AllLists => {
                let _ = writeln!(el, "||{host}^$script");
                // A share of rules is neutralized by site-scoped
                // exceptions contributed to avoid breaking those sites.
                let head_cutoff = plan.clusters.len() * EL_EXCEPTED_HEAD_PERMILLE / 1000;
                if (cluster.id as usize) < head_cutoff {
                    if let Some(pages) = cluster_pages.get(&cluster.id) {
                        if !pages.is_empty() {
                            let _ = writeln!(el, "@@||{host}^$script,domain={}", pages.join("|"));
                        }
                    }
                }
                // Plus the $document companion every ad domain tends to
                // accumulate (never blocks scripts).
                let _ = writeln!(el, "||{host}^$document");
            }
            GenericCategory::Tracker => {}
            GenericCategory::Unlisted => continue,
        }
        match cluster.category {
            GenericCategory::Tracker | GenericCategory::AllLists => {
                let _ = writeln!(ep, "||{host}^$script");
            }
            _ => {}
        }
        if cluster.category == GenericCategory::AllLists {
            let _ = writeln!(dc, "{}", registrable_domain(&host).unwrap_or(&host));
        }
    }

    // ----- inert $document ballast -----
    // EasyList had 828 `$document`-modified rules at analysis time (A.6).
    // They exist here so rule-count statistics and matcher benchmarks see
    // a realistic corpus; none of them can ever block a script.
    for i in 0..200 {
        let _ = writeln!(el, "||inert-ad-network-{i}.example^$document");
    }
    // And generic cosmetic/path noise that never matches our URLs.
    for i in 0..120 {
        let _ = writeln!(el, "/banner-{i}x90.");
        let _ = writeln!(ep, "/pixel-{i}.gif");
    }

    GeneratedLists {
        easylist: el,
        easyprivacy: ep,
        disconnect: dc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Cohort, WebConfig};
    use crate::deployment::plan_web;
    use crate::population::generate_cohort;
    use canvassing_blocklist::{DisconnectList, FilterList};
    use canvassing_net::{ResourceType, Url};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lists() -> GeneratedLists {
        let config = WebConfig::test_scale(5);
        let mut rng = StdRng::seed_from_u64(5);
        let popular = generate_cohort(&config, Cohort::Popular, &mut rng);
        let tail = generate_cohort(&config, Cohort::Tail, &mut rng);
        let plan = plan_web(&config, popular, tail, &mut rng);
        generate_lists(&plan)
    }

    #[test]
    fn lists_parse() {
        let g = lists();
        let el = FilterList::parse("EasyList", &g.easylist);
        let ep = FilterList::parse("EasyPrivacy", &g.easyprivacy);
        let dc = DisconnectList::parse(&g.disconnect);
        assert!(el.rules().len() > 100, "{} EL rules", el.rules().len());
        assert!(ep.rules().len() > 50);
        assert!(dc.len() >= 4, "{} disconnect domains", dc.len());
    }

    #[test]
    fn akamai_rule_matches_statically() {
        let g = lists();
        let el = FilterList::parse("EasyList", &g.easylist);
        let url = Url::parse("https://customer.com/akam/13/ab12cd34.js").unwrap();
        assert!(el.covers_script_url(&url, ResourceType::Script));
    }

    #[test]
    fn mgid_document_rule_never_covers_scripts() {
        let g = lists();
        let el = FilterList::parse("EasyList", &g.easylist);
        let url = Url::parse("https://mgid.com/fp.js").unwrap();
        assert!(!el.covers_script_url(&url, ResourceType::Script));
    }

    #[test]
    fn mailru_statically_covered_but_excepted_on_ru_pages() {
        let g = lists();
        let el = FilterList::parse("EasyList", &g.easylist);
        let url = Url::parse("https://privacy-cs.mail.ru/counter/top.js").unwrap();
        // Static (adblockparser-style) coverage counts it...
        assert!(el.covers_script_url(&url, ResourceType::Script));
        // ...but in context on a .ru page, the exception fires.
        let ctx = canvassing_blocklist::RequestContext::new(
            url,
            ResourceType::Script,
            false,
            "some-site.ru",
        );
        assert!(matches!(
            el.evaluate(&ctx),
            canvassing_blocklist::Verdict::Excepted { .. }
        ));
    }

    #[test]
    fn disconnect_contains_mailru() {
        let g = lists();
        let dc = DisconnectList::parse(&g.disconnect);
        assert!(dc.contains_url(&Url::parse("https://privacy-cs.mail.ru/counter/top.js").unwrap()));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(lists().easylist, lists().easylist);
    }
}
