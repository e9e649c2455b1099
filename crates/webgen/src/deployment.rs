//! Deployment planning: which site runs which fingerprinting script, and
//! how it is served.
//!
//! The planner turns the paper's Table 1 / §4 marginals into an explicit
//! assignment: exact vendor site counts per cohort, a long-tail of
//! generic fingerprinters sized to hit the unique-canvas totals (504 /
//! 288), the tail-only cluster structure (largest 15, next 3, §4.2), and
//! the serving-strategy mixtures that produce the §5.2 evasion numbers.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use canvassing_vendors::{all_vendors, VendorId};

use crate::config::{
    Cohort, GenericCategory, Serving, ServingMix, WebConfig, FPJS_COMMERCIAL, VENDOR_SITE_COUNTS,
};
use crate::population::SiteSeed;

/// What script a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScriptKind {
    /// A modeled vendor.
    Vendor {
        /// Which vendor.
        id: VendorId,
        /// Paid FingerprintJS build (only meaningful for FingerprintJs).
        commercial: bool,
    },
    /// A long-tail generic fingerprinter, identified by cluster id.
    Generic {
        /// Cluster id — same id ⇒ same script ⇒ same canvas everywhere.
        cluster: u32,
        /// Blocklist affiliation of the cluster's serving host.
        category: GenericCategory,
    },
    /// A statically-evasive fingerprinter from the seeded evasion corpus
    /// ([`crate::evasion`]): runtime behavior identical to a generic
    /// fingerprinter, source written to defeat syntactic analysis.
    Evasive {
        /// Which evasion variant (same variant ⇒ same script everywhere).
        variant: u32,
    },
}

/// One planned deployment on one site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// The script.
    pub kind: ScriptKind,
    /// How it reaches the page.
    pub serving: Serving,
}

/// A fully planned site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SitePlan {
    /// Population seed (rank, host, cohort, flags).
    pub seed: SiteSeed,
    /// Fingerprinting deployments (empty for non-fingerprinting sites).
    pub deployments: Vec<Deployment>,
    /// Benign canvas scripts on the page.
    pub benign: Vec<canvassing_vendors::benign::BenignKind>,
    /// Consent banner present.
    pub consent_banner: bool,
    /// Bot-detection gate present (crawler passes it; kept for realism
    /// and fault-injection tests).
    pub bot_gate: bool,
}

/// Metadata about one generic cluster (shared across cohorts).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GenericCluster {
    /// Cluster id (also keys the script source and serving host).
    pub id: u32,
    /// Blocklist affiliation.
    pub category: GenericCategory,
    /// Whether the cluster only ever appears on tail sites.
    pub tail_only: bool,
}

/// The full deployment plan for both cohorts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WebPlan {
    /// All sites, popular cohort first.
    pub sites: Vec<SitePlan>,
    /// Generic cluster metadata.
    pub clusters: Vec<GenericCluster>,
}

fn sample_serving<R: Rng>(mix: &ServingMix, default: Serving, rng: &mut R) -> Serving {
    let entries = [
        (Serving::ThirdParty, mix.third_party),
        (Serving::Bundled, mix.bundled),
        (Serving::Subdomain, mix.subdomain),
        (Serving::CnameCloak, mix.cname),
        (Serving::Cdn, mix.cdn),
    ];
    let total: f64 = entries.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return default;
    }
    let mut roll = rng.gen_range(0.0..total);
    for (serving, w) in entries {
        if roll < w {
            return serving;
        }
        roll -= w;
    }
    default
}

/// Head-heavy cluster sizes: `n_clusters` entries summing to `n_sites`
/// (each ≥ 1), decaying geometrically so Figure 1's tail of bars emerges.
pub fn cluster_sizes(n_clusters: usize, n_sites: usize) -> Vec<usize> {
    assert!(
        n_sites >= n_clusters,
        "{n_sites} sites < {n_clusters} clusters"
    );
    let mut sizes = vec![1usize; n_clusters];
    let mut extra = n_sites - n_clusters;
    // Geometric allocation over the head.
    let r: f64 = 0.80;
    let mut share = (extra as f64) * (1.0 - r);
    let mut i = 0;
    while extra > 0 && i < n_clusters {
        let add = (share.round() as usize).clamp(1, extra);
        sizes[i] += add;
        extra -= add;
        share *= r;
        i += 1;
    }
    // Any remainder lands on the head.
    sizes[0] += extra;
    sizes
}

/// Plans one cohort. `cluster_pool` carries the shared generic clusters
/// (created by the popular pass, reused and extended by the tail pass).
#[allow(clippy::too_many_arguments)]
fn plan_cohort<R: Rng>(
    config: &WebConfig,
    cohort: Cohort,
    seeds: Vec<SiteSeed>,
    clusters: &mut Vec<GenericCluster>,
    rng: &mut R,
) -> Vec<SitePlan> {
    let mut plans: Vec<SitePlan> = seeds
        .into_iter()
        .map(|seed| SitePlan {
            consent_banner: rng.gen_bool(config.consent_banner_rate()),
            bot_gate: rng.gen_bool(config.bot_gate_rate()),
            seed,
            deployments: Vec::new(),
            benign: Vec::new(),
        })
        .collect();

    let up: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.seed.down)
        .map(|(i, _)| i)
        .collect();

    // ----- pick the fingerprinting site set -----
    let fp_target = config.fingerprinting_sites(cohort);
    let storefronts: Vec<usize> = up
        .iter()
        .copied()
        .filter(|&i| plans[i].seed.shopify)
        .collect();
    let mut ru_sites: Vec<usize> = up
        .iter()
        .copied()
        .filter(|&i| plans[i].seed.host.ends_with(".ru"))
        .collect();
    ru_sites.shuffle(rng);
    let mailru_count = config.scaled(
        VENDOR_SITE_COUNTS
            .iter()
            .find(|(id, _, _)| *id == VendorId::MailRu)
            .map(|(_, p, t)| if cohort == Cohort::Popular { *p } else { *t })
            .unwrap_or(0),
    );
    let mailru_sites: Vec<usize> = ru_sites.iter().take(mailru_count).copied().collect();

    let mut fp_set: Vec<usize> = Vec::new();
    let mut in_fp = vec![false; plans.len()];
    for &i in storefronts.iter().chain(mailru_sites.iter()) {
        if !in_fp[i] {
            in_fp[i] = true;
            fp_set.push(i);
        }
    }
    let mut rest: Vec<usize> = up.iter().copied().filter(|&i| !in_fp[i]).collect();
    rest.shuffle(rng);
    for &i in rest.iter() {
        if fp_set.len() >= fp_target {
            break;
        }
        in_fp[i] = true;
        fp_set.push(i);
    }

    // ----- vendor assignments -----
    // Shopify: exactly the storefronts. mail.ru: the chosen .ru sites.
    for &i in &storefronts {
        let mix = config.vendor_serving(VendorId::Shopify, false, cohort);
        plans[i].deployments.push(Deployment {
            kind: ScriptKind::Vendor {
                id: VendorId::Shopify,
                commercial: false,
            },
            serving: sample_serving(&mix, Serving::ThirdParty, rng),
        });
    }
    for &i in &mailru_sites {
        let mix = config.vendor_serving(VendorId::MailRu, false, cohort);
        plans[i].deployments.push(Deployment {
            kind: ScriptKind::Vendor {
                id: VendorId::MailRu,
                commercial: false,
            },
            serving: sample_serving(&mix, Serving::ThirdParty, rng),
        });
    }

    // Other vendors: exact counts. The distinct attributed-site total is
    // capped at the paper's Table 1 totals (1,513 popular / 1,222 tail):
    // vendors prefer fresh sites until the cap, then overlap onto
    // already-attributed sites (sites "may use multiple fingerprinting
    // services").
    let attributed_target = config.scaled(if cohort == Cohort::Popular {
        1_513
    } else {
        1_222
    });
    let mut covered: Vec<usize> = fp_set
        .iter()
        .copied()
        .filter(|&i| !plans[i].deployments.is_empty())
        .collect();
    let mut uncovered: Vec<usize> = fp_set
        .iter()
        .copied()
        .filter(|&i| plans[i].deployments.is_empty())
        .collect();
    uncovered.shuffle(rng);
    uncovered.truncate(attributed_target.saturating_sub(covered.len()));

    let mut slots: Vec<(VendorId, bool)> = Vec::new();
    for (id, pop_count, tail_count) in VENDOR_SITE_COUNTS {
        if matches!(id, VendorId::MailRu | VendorId::Shopify) {
            continue;
        }
        let count = config.scaled(if cohort == Cohort::Popular {
            *pop_count
        } else {
            *tail_count
        });
        let commercial_quota = if *id == VendorId::FingerprintJs {
            config.scaled(if cohort == Cohort::Popular {
                FPJS_COMMERCIAL.0
            } else {
                FPJS_COMMERCIAL.1
            })
        } else {
            0
        };
        for k in 0..count {
            slots.push((*id, k < commercial_quota));
        }
    }
    slots.shuffle(rng);
    for (id, commercial) in slots {
        let site = match uncovered.pop() {
            Some(s) => {
                covered.push(s);
                s
            }
            None => match covered.choose(rng) {
                Some(&s) => s,
                None => break,
            },
        };
        // A site never deploys the same vendor twice.
        let duplicate = plans[site]
            .deployments
            .iter()
            .any(|d| matches!(d.kind, ScriptKind::Vendor { id: v, .. } if v == id));
        let site = if duplicate {
            match covered.choose(rng) {
                Some(&s) => s,
                None => site,
            }
        } else {
            site
        };
        let mix = config.vendor_serving(id, commercial, cohort);
        let default = if matches!(id, VendorId::Akamai | VendorId::Imperva) {
            Serving::FirstPartyPath
        } else {
            Serving::ThirdParty
        };
        plans[site].deployments.push(Deployment {
            kind: ScriptKind::Vendor { id, commercial },
            serving: sample_serving(&mix, default, rng),
        });
    }

    // ----- generic long-tail -----
    let generic_sites: Vec<usize> = fp_set
        .iter()
        .copied()
        .filter(|&i| plans[i].deployments.is_empty())
        .collect();

    // How many distinct generic clusters this cohort should exhibit:
    // unique-canvas target minus the vendor-contributed uniques.
    let imperva_here = config.scaled(
        VENDOR_SITE_COUNTS
            .iter()
            .find(|(id, _, _)| *id == VendorId::Imperva)
            .map(|(_, p, t)| if cohort == Cohort::Popular { *p } else { *t })
            .unwrap_or(0),
    );
    let vendor_uniques: usize = all_vendors()
        .iter()
        .map(|v| match v.id {
            VendorId::Imperva => imperva_here,
            VendorId::GeeTest if cohort == Cohort::Tail => 0,
            _ => v.canvas_count,
        })
        .sum();
    let unique_target = config.unique_canvas_target(cohort);
    let n_clusters = unique_target
        .saturating_sub(vendor_uniques)
        .max(1)
        .min(generic_sites.len().max(1));

    match cohort {
        Cohort::Popular => {
            // Create the shared cluster pool.
            let sizes = cluster_sizes(n_clusters, generic_sites.len().max(n_clusters));
            let weights = config.generic_category_weights();
            let mut site_iter = generic_sites.into_iter();
            for (idx, size) in sizes.into_iter().enumerate() {
                let category = {
                    let total: f64 = weights.iter().map(|(_, w)| w).sum();
                    let mut roll = rng.gen_range(0.0..total);
                    let mut chosen = GenericCategory::Unlisted;
                    for (cat, w) in weights {
                        if roll < w {
                            chosen = cat;
                            break;
                        }
                        roll -= w;
                    }
                    chosen
                };
                let cluster = GenericCluster {
                    id: idx as u32,
                    category,
                    tail_only: false,
                };
                clusters.push(cluster);
                for _ in 0..size {
                    let Some(site) = site_iter.next() else { break };
                    let mix = config.generic_serving(cohort);
                    plans[site].deployments.push(Deployment {
                        kind: ScriptKind::Generic {
                            cluster: cluster.id,
                            category,
                        },
                        serving: sample_serving(&mix, Serving::ThirdParty, rng),
                    });
                }
            }
        }
        Cohort::Tail => {
            // §4.2: 91.4% of fingerprinting tail sites share a canvas with
            // a popular site; the tail-only remainder clusters as one
            // 15-site group, one 3-site group, and singletons. The shared
            // pool is limited so the tail's unique-canvas count lands on
            // its target: shared-cluster budget = target − vendor uniques
            // − tail-only clusters.
            let tail_only_sites = config.scaled(134); // derived in DESIGN.md E3
            let tail_only_clusters =
                2 + tail_only_sites.saturating_sub(config.scaled(15) + config.scaled(3));
            let shared_budget = unique_target
                .saturating_sub(vendor_uniques + tail_only_clusters)
                .max(1);
            let shared_pool: Vec<GenericCluster> = clusters
                .iter()
                .copied()
                .filter(|c| !c.tail_only)
                .take(shared_budget)
                .collect();
            let n_tail_only = tail_only_sites.min(generic_sites.len());
            let mut generic_sites = generic_sites;
            generic_sites.shuffle(rng);
            let tail_only: Vec<usize> =
                generic_sites.split_off(generic_sites.len().saturating_sub(n_tail_only));

            // Shared assignments, weighted toward big popular clusters.
            let shared_weights = cluster_weights(&shared_pool);
            for &site in &generic_sites {
                let cluster = weighted_cluster(&shared_pool, &shared_weights, rng);
                let mix = config.generic_serving(cohort);
                plans[site].deployments.push(Deployment {
                    kind: ScriptKind::Generic {
                        cluster: cluster.id,
                        category: cluster.category,
                    },
                    serving: sample_serving(&mix, Serving::ThirdParty, rng),
                });
            }
            // Tail-only clusters: sizes [15, 3, 1, 1, ...] scaled.
            let mut remaining: Vec<usize> = tail_only;
            let mut group_sizes = vec![config.scaled(15), config.scaled(3)];
            while group_sizes.iter().sum::<usize>() < remaining.len() {
                group_sizes.push(1);
            }
            for size in group_sizes {
                if remaining.is_empty() {
                    break;
                }
                let id = clusters.len() as u32;
                let cluster = GenericCluster {
                    id,
                    category: GenericCategory::Unlisted,
                    tail_only: true,
                };
                clusters.push(cluster);
                for _ in 0..size {
                    let Some(site) = remaining.pop() else { break };
                    let mix = config.generic_serving(cohort);
                    plans[site].deployments.push(Deployment {
                        kind: ScriptKind::Generic {
                            cluster: id,
                            category: cluster.category,
                        },
                        serving: sample_serving(&mix, Serving::ThirdParty, rng),
                    });
                }
            }
        }
    }

    // ----- extra generic scripts (per-site canvas count distribution) ---
    // Extras land on *attributed* sites: large properties stack several
    // trackers, while long-tail generic-only sites typically embed a
    // single fingerprinting SDK. Tail extras draw from the same limited
    // pool as tail primaries so no new unique canvases appear.
    let head: Vec<GenericCluster> = match cohort {
        Cohort::Popular => clusters.iter().copied().filter(|c| !c.tail_only).collect(),
        Cohort::Tail => {
            let tail_only_sites = config.scaled(134);
            let tail_only_clusters =
                2 + tail_only_sites.saturating_sub(config.scaled(15) + config.scaled(3));
            let budget = unique_target
                .saturating_sub(vendor_uniques + tail_only_clusters)
                .max(1);
            clusters
                .iter()
                .copied()
                .filter(|c| !c.tail_only)
                .take(budget)
                .collect()
        }
    };
    if !head.is_empty() {
        let head_weights = cluster_weights(&head);
        let weights = config.extra_generic_weights();
        let fp_sites: Vec<usize> = fp_set
            .iter()
            .copied()
            .filter(|&i| {
                plans[i]
                    .deployments
                    .iter()
                    .any(|d| matches!(d.kind, ScriptKind::Vendor { .. }))
            })
            .collect();
        for &site in &fp_sites {
            let total: f64 = weights.iter().map(|(_, w)| w).sum();
            let mut roll = rng.gen_range(0.0..total);
            let mut extra = 0;
            for (count, w) in weights {
                if roll < *w {
                    extra = *count;
                    break;
                }
                roll -= w;
            }
            for _ in 0..extra {
                let cluster = weighted_cluster(&head, &head_weights, rng);
                let already = plans[site].deployments.iter().any(
                    |d| matches!(d.kind, ScriptKind::Generic { cluster: c, .. } if c == cluster.id),
                );
                if already {
                    continue;
                }
                let mix = config.generic_serving(cohort);
                plans[site].deployments.push(Deployment {
                    kind: ScriptKind::Generic {
                        cluster: cluster.id,
                        category: cluster.category,
                    },
                    serving: sample_serving(&mix, Serving::ThirdParty, rng),
                });
            }
        }
        // One canvas-heavy outlier site per cohort (paper: max 60
        // canvases on a single site).
        if cohort == Cohort::Popular && config.scale >= 0.9 {
            if let Some(&site) = fp_set.first() {
                for cluster in head.iter().take(55) {
                    let already = plans[site].deployments.iter().any(|d| {
                        matches!(d.kind, ScriptKind::Generic { cluster: c, .. } if c == cluster.id)
                    });
                    if !already {
                        plans[site].deployments.push(Deployment {
                            kind: ScriptKind::Generic {
                                cluster: cluster.id,
                                category: cluster.category,
                            },
                            serving: Serving::ThirdParty,
                        });
                    }
                }
            }
        }
    }

    // ----- seeded evasion corpus -----
    // Statically-evasive variants ride along on sites that already
    // fingerprint (so the cohort's fingerprinting-site count is
    // untouched), bundled into first-party code the way real evasive
    // deployments hide. Assignment is deterministic in the (already
    // shuffled) fingerprinting-site order.
    let evasive_target = config.scaled(if cohort == Cohort::Popular { 40 } else { 30 });
    if !fp_set.is_empty() {
        for i in 0..evasive_target {
            let site = fp_set[i % fp_set.len()];
            plans[site].deployments.push(Deployment {
                kind: ScriptKind::Evasive {
                    variant: i as u32 % crate::evasion::EVASION_VARIANT_COUNT,
                },
                serving: Serving::Bundled,
            });
        }
    }

    // ----- benign canvas users (Appendix A.2) -----
    use canvassing_vendors::benign::BenignKind;
    // Fully-excluded sites: benign canvases, no fingerprinting
    // (paper: 155 popular / 138 tail).
    let benign_only_target = config.scaled(if cohort == Cohort::Popular { 155 } else { 138 });
    let mut non_fp: Vec<usize> = up.iter().copied().filter(|&i| !in_fp[i]).collect();
    non_fp.shuffle(rng);
    for &site in non_fp.iter().take(benign_only_target) {
        let kind = match rng.gen_range(0..10) {
            0..=4 => BenignKind::WebpProbe,
            5..=7 => BenignKind::SmallBadge,
            8 => BenignKind::EditorPreview,
            _ => BenignKind::AnimationFrame,
        };
        plans[site].benign.push(kind);
        if rng.gen_bool(0.2) {
            plans[site].benign.push(BenignKind::EmojiProbe);
        }
    }
    // Benign usage on fingerprinting sites too (WebP probes reach 306
    // popular sites overall).
    for &site in &fp_set {
        if rng.gen_bool(0.105) {
            plans[site].benign.push(BenignKind::WebpProbe);
        }
        if rng.gen_bool(0.065) {
            plans[site].benign.push(BenignKind::SmallBadge);
        }
    }

    plans
}

/// Draw weights of a cluster pool and their sum, for [`weighted_cluster`].
/// Weight decays with cluster id, mirroring the head-heavy size plan so
/// reuse concentrates on already-popular canvases. A pool does not change
/// between draws, so callers compute this once per pool.
fn cluster_weights(pool: &[GenericCluster]) -> (Vec<f64>, f64) {
    let weights: Vec<f64> = pool
        .iter()
        .map(|c| 1.0 / (5.0 + c.id as f64).powf(0.9))
        .collect();
    let total: f64 = weights.iter().sum();
    (weights, total)
}

/// Draws one cluster from `pool`, with `(weights, total)` from
/// [`cluster_weights`] over the same pool.
fn weighted_cluster<R: Rng>(
    pool: &[GenericCluster],
    (weights, total): &(Vec<f64>, f64),
    rng: &mut R,
) -> GenericCluster {
    let mut roll = rng.gen_range(0.0..*total);
    let mut chosen = None;
    for (c, &w) in pool.iter().zip(weights) {
        chosen = Some(*c);
        if roll < w {
            return *c;
        }
        roll -= w;
    }
    // Floating-point shortfall walked the roll off the end: keep the
    // final candidate. `None` only if the pool itself was empty.
    chosen.unwrap_or(GenericCluster {
        id: 0,
        category: GenericCategory::Unlisted,
        tail_only: false,
    })
}

/// Plans the entire synthetic web (both cohorts).
pub fn plan_web<R: Rng>(
    config: &WebConfig,
    popular: Vec<SiteSeed>,
    tail: Vec<SiteSeed>,
    rng: &mut R,
) -> WebPlan {
    let mut clusters = Vec::new();
    let mut sites = plan_cohort(config, Cohort::Popular, popular, &mut clusters, rng);
    sites.extend(plan_cohort(config, Cohort::Tail, tail, &mut clusters, rng));
    WebPlan { sites, clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::generate_cohort;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_plan() -> WebPlan {
        let config = WebConfig::test_scale(11);
        let mut rng = StdRng::seed_from_u64(11);
        let popular = generate_cohort(&config, Cohort::Popular, &mut rng);
        let tail = generate_cohort(&config, Cohort::Tail, &mut rng);
        plan_web(&config, popular, tail, &mut rng)
    }

    fn vendor_sites(plan: &WebPlan, cohort: Cohort, id: VendorId) -> usize {
        plan.sites
            .iter()
            .filter(|p| p.seed.cohort == cohort)
            .filter(|p| {
                p.deployments
                    .iter()
                    .any(|d| matches!(d.kind, ScriptKind::Vendor { id: v, .. } if v == id))
            })
            .count()
    }

    #[test]
    fn fingerprinting_site_counts_hit_targets() {
        let config = WebConfig::test_scale(11);
        let plan = test_plan();
        for cohort in [Cohort::Popular, Cohort::Tail] {
            let fp = plan
                .sites
                .iter()
                .filter(|p| p.seed.cohort == cohort && !p.deployments.is_empty())
                .count();
            assert_eq!(fp, config.fingerprinting_sites(cohort));
        }
    }

    #[test]
    fn vendor_counts_match_scaled_table_1() {
        // Distinct-site counts may fall slightly below the slot counts
        // when the duplicate-vendor fallback reassigns a slot to a site
        // that already runs the vendor; allow a small deficit.
        let config = WebConfig::test_scale(11);
        let plan = test_plan();
        for (id, pop, tail) in VENDOR_SITE_COUNTS {
            for (cohort, count) in [(Cohort::Popular, *pop), (Cohort::Tail, *tail)] {
                let want = config.scaled(count);
                let got = vendor_sites(&plan, cohort, *id);
                assert!(
                    got <= want && got + (want / 10).max(2) >= want,
                    "{id:?} {cohort:?}: got {got}, want ~{want}"
                );
                if want > 0 {
                    assert!(got > 0, "{id:?} {cohort:?} vanished");
                }
            }
        }
    }

    #[test]
    fn mailru_only_on_ru_sites() {
        let plan = test_plan();
        for p in &plan.sites {
            let has_mailru = p.deployments.iter().any(|d| {
                matches!(
                    d.kind,
                    ScriptKind::Vendor {
                        id: VendorId::MailRu,
                        ..
                    }
                )
            });
            if has_mailru {
                assert!(p.seed.host.ends_with(".ru"), "{}", p.seed.host);
            }
        }
    }

    #[test]
    fn shopify_exactly_on_storefronts() {
        let plan = test_plan();
        for p in &plan.sites {
            let has_shopify = p.deployments.iter().any(|d| {
                matches!(
                    d.kind,
                    ScriptKind::Vendor {
                        id: VendorId::Shopify,
                        ..
                    }
                )
            });
            assert_eq!(has_shopify, p.seed.shopify, "{}", p.seed.host);
        }
    }

    #[test]
    fn down_sites_have_no_deployments() {
        let plan = test_plan();
        for p in &plan.sites {
            if p.seed.down {
                assert!(p.deployments.is_empty());
            }
        }
    }

    #[test]
    fn cluster_sizes_sum_and_floor() {
        let sizes = cluster_sizes(10, 55);
        assert_eq!(sizes.iter().sum::<usize>(), 55);
        assert!(sizes.iter().all(|&s| s >= 1));
        assert!(sizes[0] >= sizes[9], "head-heavy");
        // Degenerate case: every cluster a singleton.
        assert_eq!(cluster_sizes(5, 5), vec![1; 5]);
    }

    #[test]
    fn tail_only_clusters_do_not_appear_on_popular() {
        let plan = test_plan();
        let tail_only: std::collections::BTreeSet<u32> = plan
            .clusters
            .iter()
            .filter(|c| c.tail_only)
            .map(|c| c.id)
            .collect();
        for p in plan
            .sites
            .iter()
            .filter(|p| p.seed.cohort == Cohort::Popular)
        {
            for d in &p.deployments {
                if let ScriptKind::Generic { cluster, .. } = d.kind {
                    assert!(!tail_only.contains(&cluster));
                }
            }
        }
        assert!(!tail_only.is_empty());
    }

    #[test]
    fn akamai_and_imperva_serve_first_party() {
        let plan = test_plan();
        for p in &plan.sites {
            for d in &p.deployments {
                if matches!(
                    d.kind,
                    ScriptKind::Vendor {
                        id: VendorId::Akamai,
                        ..
                    } | ScriptKind::Vendor {
                        id: VendorId::Imperva,
                        ..
                    }
                ) {
                    assert_eq!(d.serving, Serving::FirstPartyPath);
                }
            }
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let a = test_plan();
        let b = test_plan();
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.deployments, y.deployments, "{}", x.seed.host);
        }
    }

    #[test]
    fn evasive_deployments_ride_bundled_on_fingerprinting_sites() {
        let config = WebConfig::test_scale(11);
        let plan = test_plan();
        let (mut popular_n, mut tail_n) = (0usize, 0usize);
        for p in &plan.sites {
            for d in &p.deployments {
                let ScriptKind::Evasive { variant } = d.kind else {
                    continue;
                };
                assert!(variant < crate::evasion::EVASION_VARIANT_COUNT);
                // Bundled into first-party code, like real evasive
                // deployments hide.
                assert_eq!(d.serving, Serving::Bundled, "{}", p.seed.host);
                // Rides along: the site fingerprints even without it, so
                // cohort fingerprinting-site counts stay on target.
                assert!(
                    p.deployments
                        .iter()
                        .any(|o| !matches!(o.kind, ScriptKind::Evasive { .. })),
                    "{} is evasive-only",
                    p.seed.host
                );
                match p.seed.cohort {
                    Cohort::Popular => popular_n += 1,
                    Cohort::Tail => tail_n += 1,
                }
            }
        }
        assert_eq!(popular_n, config.scaled(40));
        assert_eq!(tail_n, config.scaled(30));
    }

    #[test]
    fn some_sites_have_benign_only_canvas_use() {
        let config = WebConfig::test_scale(11);
        let plan = test_plan();
        let benign_only = plan
            .sites
            .iter()
            .filter(|p| p.deployments.is_empty() && !p.benign.is_empty())
            .filter(|p| p.seed.cohort == Cohort::Popular)
            .count();
        assert_eq!(benign_only, config.scaled(155));
    }
}
