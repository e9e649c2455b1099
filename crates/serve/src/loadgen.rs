//! Seeded deterministic load generation: Zipf-skewed script popularity
//! over a harvested corpus, phased burst/ramp/overload schedules.
//!
//! Everything is a pure function of `(profile, corpus)` — arrivals come
//! from evenly spaced slots with LCG jitter, body picks from an inverse
//! power-law (Zipf) table, and URL-vs-body payload choices from the same
//! LCG stream. Two runs with the same seed offer byte-identical request
//! schedules, which is what lets `tests/serve.rs` compare whole response
//! streams across worker counts.

use std::collections::HashSet;

use canvassing_net::{Network, Resource, ScriptRef, Url};
use canvassing_script::source_hash;
use serde::{Deserialize, Serialize};

use crate::request::{Payload, VerdictRequest};

/// One load phase: a label, a duration, and an offered rate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Phase name ("ramp", "burst", ...).
    pub label: String,
    /// Phase length on the simulated clock.
    pub duration_ms: u64,
    /// Offered requests per simulated second.
    pub qps: u64,
}

/// A full load profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// LCG seed; same seed → same schedule.
    pub seed: u64,
    /// Phases, played back to back.
    pub phases: Vec<PhaseSpec>,
    /// Zipf skew exponent for body popularity (1.0–1.3 matches the
    /// paper's observation that a dozen vendor scripts dominate the
    /// long tail of sites serving them).
    pub zipf_s: f64,
    /// Relative deadline attached to every request (absolute deadline =
    /// arrival + this), or `None` for deadline-free load.
    pub deadline_ms: Option<u64>,
    /// Percentage (0–100) of requests submitted as URL payloads when the
    /// picked corpus entry has one (the rest submit the raw body).
    pub url_fraction_pct: u64,
}

impl LoadProfile {
    /// The standard soak shape: ramp → steady → burst → overload →
    /// drain. At the default [`crate::ServeConfig`] capacity (~4 lanes ×
    /// ~4ms warm hits ≈ 1000 req/s), steady load serves at full
    /// fidelity, the burst sheds tiers, and the overload phase rejects —
    /// so one schedule exercises the whole admission ladder.
    pub fn standard(seed: u64) -> LoadProfile {
        LoadProfile {
            seed,
            phases: vec![
                PhaseSpec {
                    label: "ramp".into(),
                    duration_ms: 2_000,
                    qps: 50,
                },
                PhaseSpec {
                    label: "steady".into(),
                    duration_ms: 4_000,
                    qps: 150,
                },
                PhaseSpec {
                    label: "burst".into(),
                    duration_ms: 1_000,
                    qps: 2_500,
                },
                PhaseSpec {
                    label: "overload".into(),
                    duration_ms: 1_000,
                    qps: 5_000,
                },
                PhaseSpec {
                    label: "drain".into(),
                    duration_ms: 2_000,
                    qps: 50,
                },
            ],
            zipf_s: 1.1,
            deadline_ms: Some(150),
            url_fraction_pct: 40,
        }
    }

    /// Scales every phase's offered rate by `scale` (each phase keeps at
    /// least 1 qps), for quick CI runs of the same schedule shape.
    pub fn scaled(mut self, scale: f64) -> LoadProfile {
        for phase in &mut self.phases {
            phase.qps = ((phase.qps as f64 * scale).round() as u64).max(1);
        }
        self
    }

    /// Total offered requests.
    pub fn offered(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.duration_ms * p.qps / 1_000)
            .sum()
    }
}

/// The script corpus load is drawn from: unique bodies, each optionally
/// carrying the URL it was first seen at (inline scripts have none).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// `(source, first URL)` in harvest order — index order is the
    /// popularity rank the Zipf pick uses, so entry 0 is the hottest.
    pub bodies: Vec<(String, Option<Url>)>,
}

impl Corpus {
    /// Number of unique bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }
}

/// Harvests up to `cap` unique script bodies from a frontier of page
/// URLs, in frontier order (deterministic): external scripts keep their
/// URL, inline scripts don't, duplicates keep their first sighting.
pub fn harvest_corpus(network: &Network, frontier: &[Url], cap: usize) -> Corpus {
    let mut corpus = Corpus::default();
    let mut seen: HashSet<u64> = HashSet::new();
    for page_url in frontier {
        if corpus.bodies.len() >= cap {
            break;
        }
        let Some(Resource::Page(page)) = network.peek(page_url) else {
            continue;
        };
        for script in &page.scripts {
            if corpus.bodies.len() >= cap {
                break;
            }
            match script {
                ScriptRef::External(url) => {
                    if let Some(Resource::Script(s)) = network.peek(url) {
                        if seen.insert(source_hash(&s.source)) {
                            corpus.bodies.push((s.source.clone(), Some(url.clone())));
                        }
                    }
                }
                ScriptRef::Inline { source, .. } => {
                    if seen.insert(source_hash(source)) {
                        corpus.bodies.push((source.clone(), None));
                    }
                }
            }
        }
    }
    corpus
}

/// Linear congruential step (the repo's standard constants).
fn lcg_step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Generates the request schedule: one pass over the phases, arrivals
/// evenly spaced within each phase with ±slot/4 LCG jitter, bodies
/// picked from the corpus by a Zipf(`zipf_s`) table. Requests come back
/// sorted by `(arrival_ms, id)` with dense ids — exactly the order
/// [`crate::ServePlan::plan`] requires.
pub fn generate(profile: &LoadProfile, corpus: &Corpus) -> Vec<VerdictRequest> {
    if corpus.is_empty() {
        return Vec::new();
    }
    // Zipf cumulative table over popularity ranks.
    let weights: Vec<f64> = (0..corpus.len())
        .map(|i| 1.0 / ((i + 1) as f64).powf(profile.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }

    let mut lcg = profile.seed ^ 0x9e3779b97f4a7c15;
    let mut requests = Vec::new();
    let mut phase_start = 0u64;
    for (phase_idx, phase) in profile.phases.iter().enumerate() {
        let count = phase.duration_ms * phase.qps / 1_000;
        if count == 0 {
            phase_start += phase.duration_ms;
            continue;
        }
        let slot = phase.duration_ms / count;
        for i in 0..count {
            let base = phase_start + i * phase.duration_ms / count;
            let jitter = if slot > 1 {
                lcg_step(&mut lcg) % (slot / 2 + 1)
            } else {
                0
            };
            let arrival = base + jitter;
            let pick = {
                let r = (lcg_step(&mut lcg) as f64) / ((1u64 << 31) as f64);
                cumulative
                    .iter()
                    .position(|c| *c >= r)
                    .unwrap_or(corpus.len() - 1)
            };
            let (source, url) = &corpus.bodies[pick];
            let as_url = url.is_some() && lcg_step(&mut lcg) % 100 < profile.url_fraction_pct;
            let payload = if as_url {
                match url {
                    Some(u) => Payload::Url { url: u.clone() },
                    None => Payload::Body {
                        source: source.clone(),
                    },
                }
            } else {
                Payload::Body {
                    source: source.clone(),
                }
            };
            requests.push(VerdictRequest {
                id: 0, // assigned after the sort
                arrival_ms: arrival,
                deadline_ms: profile.deadline_ms.map(|d| arrival + d),
                payload,
                phase: phase_idx as u32,
            });
        }
        phase_start += phase.duration_ms;
    }
    // Dense ids in arrival order (stable sort keeps the generation
    // sequence as the tiebreak, so the schedule is fully deterministic).
    requests.sort_by_key(|r| r.arrival_ms);
    for (i, req) in requests.iter_mut().enumerate() {
        req.id = i as u64;
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_net::ScriptResource;

    fn tiny_corpus() -> Corpus {
        Corpus {
            bodies: vec![
                (
                    "let hot = 1;".to_string(),
                    Some(Url::https("cdn.hot.net", "/a.js")),
                ),
                ("let warm = 2;".to_string(), None),
                (
                    "let cool = 3;".to_string(),
                    Some(Url::https("cdn.cool.net", "/c.js")),
                ),
            ],
        }
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let profile = LoadProfile::standard(42).scaled(0.02);
        let corpus = tiny_corpus();
        let a = generate(&profile, &corpus);
        let b = generate(&profile, &corpus);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_ms <= w[1].arrival_ms && w[0].id < w[1].id));
        assert_eq!(a.len() as u64, profile.offered());
        // Deadlines are absolute.
        for r in &a {
            assert_eq!(r.deadline_ms, Some(r.arrival_ms + 150));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let corpus = tiny_corpus();
        let a = generate(&LoadProfile::standard(1).scaled(0.1), &corpus);
        let b = generate(&LoadProfile::standard(2).scaled(0.1), &corpus);
        assert_ne!(a, b, "seeds must matter");
    }

    #[test]
    fn zipf_pick_favors_the_head() {
        let profile = LoadProfile {
            deadline_ms: None,
            url_fraction_pct: 0,
            ..LoadProfile::standard(7)
        };
        let corpus = tiny_corpus();
        let reqs = generate(&profile, &corpus);
        let hot = reqs
            .iter()
            .filter(|r| matches!(&r.payload, Payload::Body { source } if source == "let hot = 1;"))
            .count();
        assert!(
            hot * 2 > reqs.len(),
            "rank-0 body should dominate a zipf(1.1) draw: {hot}/{}",
            reqs.len()
        );
    }

    #[test]
    fn url_fraction_controls_payload_mix() {
        let corpus = tiny_corpus();
        let all_bodies = generate(
            &LoadProfile {
                url_fraction_pct: 0,
                ..LoadProfile::standard(3)
            },
            &corpus,
        );
        assert!(all_bodies
            .iter()
            .all(|r| matches!(r.payload, Payload::Body { .. })));
        let mixed = generate(
            &LoadProfile {
                url_fraction_pct: 100,
                ..LoadProfile::standard(3)
            },
            &corpus,
        );
        // Rank-0 dominates and has a URL, so a 100% URL fraction must
        // produce plenty of URL payloads (inline bodies stay bodies).
        assert!(mixed
            .iter()
            .any(|r| matches!(r.payload, Payload::Url { .. })));
    }

    #[test]
    fn harvest_dedupes_and_keeps_first_urls() {
        let mut network = Network::new();
        let page1 = Url::https("site1.example", "/");
        let page2 = Url::https("site2.example", "/");
        let ext = Url::https("cdn.shared.net", "/fp.js");
        network.host(
            &ext,
            Resource::Script(ScriptResource {
                source: "let shared = 9;".into(),
                label: "s".into(),
            }),
        );
        let page = |scripts| {
            Resource::Page(canvassing_net::PageResource {
                scripts,
                consent_banner: false,
                bot_check: false,
            })
        };
        network.host(
            &page1,
            page(vec![
                ScriptRef::External(ext.clone()),
                ScriptRef::Inline {
                    source: "let inline1 = 1;".into(),
                    label: "i1".into(),
                },
            ]),
        );
        network.host(
            &page2,
            page(vec![
                // Same external body again: deduped.
                ScriptRef::External(ext.clone()),
                ScriptRef::Inline {
                    source: "let inline2 = 2;".into(),
                    label: "i2".into(),
                },
            ]),
        );
        let corpus = harvest_corpus(&network, &[page1, page2], 10);
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.bodies[0].1, Some(ext));
        assert_eq!(corpus.bodies[1].1, None, "inline scripts carry no URL");
        // The cap truncates deterministically.
        let capped = harvest_corpus(
            &network,
            &[
                Url::https("site1.example", "/"),
                Url::https("site2.example", "/"),
            ],
            1,
        );
        assert_eq!(capped.len(), 1);
    }
}
