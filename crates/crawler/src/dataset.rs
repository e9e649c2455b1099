//! Crawl datasets: per-site records with JSON (de)serialization and a
//! typed failure taxonomy.

use std::collections::BTreeMap;

use canvassing_browser::{PageVisit, VisitError};
use canvassing_net::{FetchError, Url};
use canvassing_raster::SharedText;
use serde::{Deserialize, Serialize};

/// Why a site visit failed, as a closed taxonomy the analysis layer can
/// aggregate over (per-kind breakdown tables), rather than a free-form
/// string that can only be substring-matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// Permanent DNS failure (NXDOMAIN, broken CNAME chain).
    Dns,
    /// Transient DNS failure (SERVFAIL, resolver timeout) — retryable.
    DnsTransient,
    /// The host refused every connection.
    Unreachable,
    /// The connection failed this attempt but might succeed on retry.
    Transient,
    /// The visit blew its deadline (slow site / latency spike).
    Timeout,
    /// The site's bot gate rejected the crawler.
    BotBlocked,
    /// Script execution failed badly enough to abort the visit (e.g. the
    /// visit's fuel allowance ran out).
    ScriptCrash,
    /// The response body was cut off and the document was unusable.
    Truncated,
    /// The URL did not serve an HTML page.
    NotAPage,
    /// The worker crawling the site panicked; the harness isolated the
    /// panic and recorded the site as failed.
    WorkerPanic,
    /// The per-host circuit breaker was open: the visit was
    /// short-circuited without touching the network (the host had already
    /// failed enough visits that further attempts were pointless).
    CircuitOpen,
}

impl FailureKind {
    /// Stable lowercase name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Dns => "dns",
            FailureKind::DnsTransient => "dns-transient",
            FailureKind::Unreachable => "unreachable",
            FailureKind::Transient => "transient",
            FailureKind::Timeout => "timeout",
            FailureKind::BotBlocked => "bot-blocked",
            FailureKind::ScriptCrash => "script-crash",
            FailureKind::Truncated => "truncated",
            FailureKind::NotAPage => "not-a-page",
            FailureKind::WorkerPanic => "worker-panic",
            FailureKind::CircuitOpen => "circuit-open",
        }
    }

    /// Whether a retry of the visit could plausibly succeed. Only these
    /// kinds are eligible for the harness retry policy; everything else is
    /// authoritative (retrying an NXDOMAIN or a bot wall never helps).
    pub fn is_transient(&self) -> bool {
        matches!(self, FailureKind::Transient | FailureKind::DnsTransient)
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

impl From<&VisitError> for FailureKind {
    fn from(e: &VisitError) -> FailureKind {
        match e {
            VisitError::Fetch(FetchError::Dns(d)) => {
                if d.is_transient() {
                    FailureKind::DnsTransient
                } else {
                    FailureKind::Dns
                }
            }
            VisitError::Fetch(FetchError::Unreachable(_)) => FailureKind::Unreachable,
            VisitError::Fetch(FetchError::Transient(_)) => FailureKind::Transient,
            VisitError::Fetch(FetchError::Truncated(_)) => FailureKind::Truncated,
            VisitError::Fetch(FetchError::NotFound(_)) => FailureKind::NotAPage,
            // The browser never blocks its own top-level document; if it
            // somehow surfaces, the page was unreachable for the client.
            VisitError::Fetch(FetchError::Blocked(_)) => FailureKind::Unreachable,
            VisitError::NotAPage(_) => FailureKind::NotAPage,
            VisitError::BotBlocked(_) => FailureKind::BotBlocked,
            VisitError::DeadlineExceeded(_) => FailureKind::Timeout,
            VisitError::FuelExhausted(_) => FailureKind::ScriptCrash,
            VisitError::CircuitOpen(_) => FailureKind::CircuitOpen,
        }
    }
}

/// How much of a site's evidence the crawl actually captured. The paper's
/// prevalence numbers silently condition on fully successful visits; the
/// fidelity tier makes that conditioning explicit so estimators can state
/// what they include (and what the worst case for the rest is).
///
/// Tiers are a partition: every [`SiteRecord`] maps to exactly one, so
/// per-tier counts always sum to the site population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VisitFidelity {
    /// The visit completed: dynamic evidence (API calls, extractions) is
    /// authoritative.
    Full,
    /// The visit died mid-pipeline but at least one fetched script carries
    /// a static triage verdict — the static classifier can stand in for
    /// the dynamic detector.
    StaticSalvage,
    /// The page was reached, but no script evidence was captured before
    /// the failure (bot wall, truncated body, deadline at the page).
    FetchOnly,
    /// Nothing was captured: the failure preceded any page contact.
    Lost,
}

impl VisitFidelity {
    /// Stable lowercase name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            VisitFidelity::Full => "full",
            VisitFidelity::StaticSalvage => "static-salvage",
            VisitFidelity::FetchOnly => "fetch-only",
            VisitFidelity::Lost => "lost",
        }
    }

    /// All tiers, in display order.
    pub fn all() -> [VisitFidelity; 4] {
        [
            VisitFidelity::Full,
            VisitFidelity::StaticSalvage,
            VisitFidelity::FetchOnly,
            VisitFidelity::Lost,
        ]
    }
}

impl std::fmt::Display for VisitFidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// A failed site visit: the typed kind, the human-readable error, and how
/// many attempts were made before giving up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteFailure {
    /// Typed failure kind.
    pub kind: FailureKind,
    /// Human-readable error message from the final attempt.
    pub error: String,
    /// Total visit attempts made (1 = no retries).
    pub attempts: u32,
    /// Partial evidence salvaged before the visit died (page-level facts
    /// and any scripts already fetched + triaged). `None` when the failure
    /// preceded page contact or salvage is disabled (serialized as an
    /// explicit `null`).
    pub salvage: Option<Box<PageVisit>>,
}

impl SiteFailure {
    /// Builds a failure record from a visit error (no salvage attached).
    pub fn from_visit_error(e: &VisitError, attempts: u32) -> SiteFailure {
        SiteFailure {
            kind: FailureKind::from(e),
            error: e.to_string(),
            attempts,
            salvage: None,
        }
    }

    /// The fidelity tier this failure leaves the site at.
    pub fn fidelity(&self) -> VisitFidelity {
        match &self.salvage {
            Some(partial) if partial.scripts.iter().any(|s| s.verdict.is_some()) => {
                VisitFidelity::StaticSalvage
            }
            Some(_) => VisitFidelity::FetchOnly,
            None => VisitFidelity::Lost,
        }
    }
}

/// Result of visiting one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// The visit completed; canvas activity recorded.
    Success(Box<PageVisit>),
    /// The visit failed (site down, DNS error, bot wall, worker panic…).
    Failure(SiteFailure),
}

/// One frontier entry's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteRecord {
    /// The homepage URL visited.
    pub url: Url,
    /// What happened.
    pub outcome: SiteOutcome,
}

impl SiteRecord {
    /// The fidelity tier of this record (a total function: every record
    /// has exactly one tier).
    pub fn fidelity(&self) -> VisitFidelity {
        match &self.outcome {
            SiteOutcome::Success(_) => VisitFidelity::Full,
            SiteOutcome::Failure(f) => f.fidelity(),
        }
    }

    /// Every shared text the record holds, in a fixed order: each
    /// extraction's data URL, then each call's return value, of the visit
    /// or of a failure's salvaged partial visit.
    pub fn texts_mut(&mut self) -> impl Iterator<Item = &mut SharedText> {
        let visit = match &mut self.outcome {
            SiteOutcome::Success(visit)
            | SiteOutcome::Failure(SiteFailure {
                salvage: Some(visit),
                ..
            }) => Some(visit),
            SiteOutcome::Failure(_) => None,
        };
        visit.into_iter().flat_map(|visit| {
            let data_urls = visit.extractions.iter_mut().map(|e| &mut e.data_url);
            let returns = visit
                .api_calls
                .iter_mut()
                .filter_map(|c| c.return_value.as_mut());
            data_urls.chain(returns)
        })
    }
}

/// A complete crawl of one frontier under one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlDataset {
    /// Configuration label (`"control"`, `"adblock-plus"`, …).
    pub label: String,
    /// Device profile id the crawl rendered with.
    pub device_id: String,
    /// Per-site records, in frontier order.
    pub records: Vec<SiteRecord>,
}

impl CrawlDataset {
    /// Iterates over successfully crawled sites.
    pub fn successful(&self) -> impl Iterator<Item = (&Url, &PageVisit)> {
        self.records.iter().filter_map(|r| match &r.outcome {
            SiteOutcome::Success(v) => Some((&r.url, v.as_ref())),
            SiteOutcome::Failure(_) => None,
        })
    }

    /// Iterates over failed sites with their failure records.
    pub fn failed(&self) -> impl Iterator<Item = (&Url, &SiteFailure)> {
        self.records.iter().filter_map(|r| match &r.outcome {
            SiteOutcome::Success(_) => None,
            SiteOutcome::Failure(f) => Some((&r.url, f)),
        })
    }

    /// Number of successfully crawled sites.
    pub fn success_count(&self) -> usize {
        self.successful().count()
    }

    /// Counts failures by typed kind (the §3.1 "crawled unsuccessfully"
    /// breakdown).
    pub fn failure_breakdown(&self) -> BTreeMap<FailureKind, usize> {
        let mut out = BTreeMap::new();
        for (_, f) in self.failed() {
            *out.entry(f.kind).or_insert(0) += 1;
        }
        out
    }

    /// Iterates over failed sites that carry salvaged partial evidence.
    pub fn salvaged(&self) -> impl Iterator<Item = (&Url, &SiteFailure, &PageVisit)> {
        self.failed()
            .filter_map(|(u, f)| f.salvage.as_deref().map(|v| (u, f, v)))
    }

    /// Counts records by fidelity tier. Every tier appears (zero-filled),
    /// and the counts always sum to `records.len()` — the partition
    /// invariant the chaos gate checks.
    pub fn fidelity_breakdown(&self) -> BTreeMap<VisitFidelity, usize> {
        let mut out: BTreeMap<VisitFidelity, usize> =
            VisitFidelity::all().into_iter().map(|t| (t, 0)).collect();
        for r in &self.records {
            *out.entry(r.fidelity()).or_insert(0) += 1;
        }
        out
    }

    /// Total extractions across all successful visits.
    pub fn extraction_count(&self) -> usize {
        self.successful().map(|(_, v)| v.extractions.len()).sum()
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<CrawlDataset> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_net::DnsError;

    #[test]
    fn empty_dataset_counts() {
        let ds = CrawlDataset {
            label: "x".into(),
            device_id: "d".into(),
            records: vec![],
        };
        assert_eq!(ds.success_count(), 0);
        assert_eq!(ds.extraction_count(), 0);
        assert_eq!(ds.failed().count(), 0);
        assert!(ds.failure_breakdown().is_empty());
    }

    #[test]
    fn failure_records_roundtrip() {
        let ds = CrawlDataset {
            label: "x".into(),
            device_id: "d".into(),
            records: vec![SiteRecord {
                url: Url::https("down.com", "/"),
                outcome: SiteOutcome::Failure(SiteFailure {
                    kind: FailureKind::Unreachable,
                    error: "unreachable host: down.com".into(),
                    attempts: 1,
                    salvage: None,
                }),
            }],
        };
        let back = CrawlDataset::from_json(&ds.to_json().unwrap()).unwrap();
        assert_eq!(back.failed().count(), 1);
        let (_, failure) = back.failed().next().unwrap();
        assert_eq!(failure.kind, FailureKind::Unreachable);
        assert_eq!(failure.error, "unreachable host: down.com");
        assert_eq!(failure.attempts, 1);
        assert_eq!(back.failure_breakdown()[&FailureKind::Unreachable], 1);
    }

    #[test]
    fn visit_errors_map_to_kinds() {
        let url = Url::https("x.com", "/");
        let cases: Vec<(VisitError, FailureKind)> = vec![
            (
                VisitError::Fetch(FetchError::Dns(DnsError::NxDomain("x.com".into()))),
                FailureKind::Dns,
            ),
            (
                VisitError::Fetch(FetchError::Dns(DnsError::ServFail("x.com".into()))),
                FailureKind::DnsTransient,
            ),
            (
                VisitError::Fetch(FetchError::Dns(DnsError::Timeout("x.com".into()))),
                FailureKind::DnsTransient,
            ),
            (
                VisitError::Fetch(FetchError::Unreachable("x.com".into())),
                FailureKind::Unreachable,
            ),
            (
                VisitError::Fetch(FetchError::Transient("x.com".into())),
                FailureKind::Transient,
            ),
            (
                VisitError::Fetch(FetchError::Truncated(url.clone())),
                FailureKind::Truncated,
            ),
            (
                VisitError::Fetch(FetchError::NotFound(url.clone())),
                FailureKind::NotAPage,
            ),
            (VisitError::NotAPage(url.clone()), FailureKind::NotAPage),
            (VisitError::BotBlocked(url.clone()), FailureKind::BotBlocked),
            (
                VisitError::DeadlineExceeded(url.clone()),
                FailureKind::Timeout,
            ),
            (
                VisitError::FuelExhausted(url.clone()),
                FailureKind::ScriptCrash,
            ),
            (VisitError::CircuitOpen(url), FailureKind::CircuitOpen),
        ];
        for (err, want) in cases {
            assert_eq!(FailureKind::from(&err), want, "{err}");
        }
    }

    #[test]
    fn transient_kinds_are_exactly_the_retryable_ones() {
        for kind in [
            FailureKind::Dns,
            FailureKind::Unreachable,
            FailureKind::Timeout,
            FailureKind::BotBlocked,
            FailureKind::ScriptCrash,
            FailureKind::Truncated,
            FailureKind::NotAPage,
            FailureKind::WorkerPanic,
            FailureKind::CircuitOpen,
        ] {
            assert!(!kind.is_transient(), "{kind}");
        }
        assert!(FailureKind::Transient.is_transient());
        assert!(FailureKind::DnsTransient.is_transient());
    }

    #[test]
    fn fidelity_tiers_partition_any_dataset() {
        use canvassing_browser::LoadedScript;
        let visit_with = |verdict: bool| -> Box<PageVisit> {
            Box::new(PageVisit {
                page: Url::https("x.com", "/"),
                api_calls: vec![],
                extractions: vec![],
                scripts: if verdict {
                    vec![LoadedScript {
                        url: Url::https("x.com", "/a.js"),
                        inline: false,
                        canonical_host: "x.com".into(),
                        cname_cloaked: false,
                        source_hash: 7,
                        verdict: Some(canvassing_browser::Verdict::Benign),
                        error: None,
                    }]
                } else {
                    vec![]
                },
                blocked: vec![],
                consent_banner: false,
            })
        };
        let fail = |salvage: Option<Box<PageVisit>>| -> SiteOutcome {
            SiteOutcome::Failure(SiteFailure {
                kind: FailureKind::Timeout,
                error: "t".into(),
                attempts: 1,
                salvage,
            })
        };
        let ds = CrawlDataset {
            label: "x".into(),
            device_id: "d".into(),
            records: vec![
                SiteRecord {
                    url: Url::https("a.com", "/"),
                    outcome: SiteOutcome::Success(visit_with(true)),
                },
                SiteRecord {
                    url: Url::https("b.com", "/"),
                    outcome: fail(Some(visit_with(true))),
                },
                SiteRecord {
                    url: Url::https("c.com", "/"),
                    outcome: fail(Some(visit_with(false))),
                },
                SiteRecord {
                    url: Url::https("d.com", "/"),
                    outcome: fail(None),
                },
            ],
        };
        let tiers = ds.fidelity_breakdown();
        assert_eq!(tiers[&VisitFidelity::Full], 1);
        assert_eq!(tiers[&VisitFidelity::StaticSalvage], 1);
        assert_eq!(tiers[&VisitFidelity::FetchOnly], 1);
        assert_eq!(tiers[&VisitFidelity::Lost], 1);
        assert_eq!(tiers.values().sum::<usize>(), ds.records.len());
        assert_eq!(ds.salvaged().count(), 2);
        // Salvage (and its absence) survives the JSON roundtrip.
        let back = CrawlDataset::from_json(&ds.to_json().unwrap()).unwrap();
        assert_eq!(back.fidelity_breakdown(), tiers);
        assert!(serde_json::to_string(&back.records[3])
            .unwrap()
            .contains("\"salvage\":null"));
    }
}
