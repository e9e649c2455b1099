//! The HTTP fetch model: hosted resources, requests, responses, party
//! classification, CDN detection, and fault injection.
//!
//! This is not a packet-level stack — the study needs request/response
//! semantics (who serves which script from which origin), not TCP. Pages
//! and scripts are resources registered against `(host, path)` keys;
//! fetching resolves the host through [`crate::dns::DnsZone`], applies the
//! fault plan, and returns the resource together with the DNS resolution
//! (so callers can detect CNAME cloaking).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::dns::{DnsError, DnsZone, Resolution};
use crate::domain::{is_subdomain_of, same_site};
use crate::url::Url;

/// Resource types, mirroring the blocklist `$` option vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceType {
    /// Top-level HTML document.
    Document,
    /// JavaScript (canvascript) resource.
    Script,
    /// Image resource.
    Image,
    /// Anything else.
    Other,
}

impl ResourceType {
    /// Canonical lowercase name (as used in filter options).
    pub fn as_str(&self) -> &'static str {
        match self {
            ResourceType::Document => "document",
            ResourceType::Script => "script",
            ResourceType::Image => "image",
            ResourceType::Other => "other",
        }
    }
}

/// How a page references one script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScriptRef {
    /// External script loaded from a URL (`<script src=...>`).
    External(Url),
    /// Script bundled inline into the page's own first-party JavaScript.
    /// Carries the source directly; its "URL" for instrumentation purposes
    /// is the page URL itself (this is the first-party bundling evasion).
    Inline {
        /// The bundled source text.
        source: String,
        /// Label for provenance bookkeeping (e.g. vendor name); opaque to
        /// the network layer.
        label: String,
    },
}

/// A hosted page (HTML document).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PageResource {
    /// Scripts the page loads, in order.
    pub scripts: Vec<ScriptRef>,
    /// Whether a consent banner gates script execution until accepted.
    pub consent_banner: bool,
    /// Whether the site blocks clients that fail bot detection.
    pub bot_check: bool,
}

/// A hosted script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptResource {
    /// canvascript source text.
    pub source: String,
    /// Provenance label (vendor name or `"benign:*"`), opaque here.
    pub label: String,
}

/// Any hosted resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Resource {
    /// An HTML document.
    Page(PageResource),
    /// A script.
    Script(ScriptResource),
}

/// A fetch response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The resource served.
    pub resource: Resource,
    /// DNS resolution used to reach the server.
    pub resolution: Resolution,
    /// Deterministic latency estimate in milliseconds (used for
    /// instrumentation timestamps). Includes any injected latency spike.
    pub latency_ms: u64,
    /// Whether the body was cut off mid-transfer by a [`Fault::TruncateBody`]
    /// plan entry (script sources arrive corrupted).
    pub truncated: bool,
}

/// Fetch failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchError {
    /// DNS failed.
    Dns(DnsError),
    /// Host resolved but nothing is registered at the path.
    NotFound(Url),
    /// The host is marked unreachable by the fault plan.
    Unreachable(String),
    /// The connection failed this attempt but a retry may succeed (the
    /// planned-transient counterpart of [`FetchError::Unreachable`]).
    Transient(String),
    /// The response body was cut off mid-transfer and the document is
    /// unusable.
    Truncated(Url),
    /// The request was blocked by a client-side extension (set by the
    /// browser layer, surfaced through the same error type for uniform
    /// handling).
    Blocked(Url),
}

impl FetchError {
    /// Whether a retry of the same request could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            FetchError::Transient(_) => true,
            FetchError::Dns(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Short stable kind label (no URL/host detail), for typed error
    /// responses and metrics that must be byte-identical across runs.
    pub fn kind_label(&self) -> &'static str {
        match self {
            FetchError::Dns(_) => "dns",
            FetchError::NotFound(_) => "not-found",
            FetchError::Unreachable(_) => "unreachable",
            FetchError::Transient(_) => "transient",
            FetchError::Truncated(_) => "truncated",
            FetchError::Blocked(_) => "blocked",
        }
    }
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Dns(e) => write!(f, "dns error: {e}"),
            FetchError::NotFound(u) => write!(f, "404: {u}"),
            FetchError::Unreachable(h) => write!(f, "unreachable host: {h}"),
            FetchError::Transient(h) => write!(f, "transient connection failure: {h}"),
            FetchError::Truncated(u) => write!(f, "truncated response body: {u}"),
            FetchError::Blocked(u) => write!(f, "blocked by extension: {u}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// One planned fault kind for a host. Every kind is a pure function of the
/// plan and the attempt number — two crawls over the same plan observe the
/// same failures in the same places.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Refuses every connection, forever (the classic dead host).
    Unreachable,
    /// The connection fails for the first `failures` attempts, then
    /// succeeds — models flaky peering / overloaded origins.
    TransientConnect {
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// DNS answers SERVFAIL for the first `failures` attempts, then
    /// resolves — a transient resolver-side fault, distinct from NXDOMAIN.
    DnsServFail {
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// DNS never answers (resolver timeout); permanent.
    DnsTimeout,
    /// Responses arrive `extra_ms` late — enough to blow a visit deadline
    /// when the spike exceeds it.
    LatencySpike {
        /// Extra latency added to every response from the host.
        extra_ms: u64,
    },
    /// Bodies from this host are cut off mid-transfer: documents become
    /// unusable, script sources arrive corrupted.
    TruncateBody,
    /// Chaos hook: fetching from this host panics, modeling a crashing
    /// worker. Exists so harness panic isolation can be tested end to end.
    Panic,
    /// Responses arrive `extra_ms` late for the first `attempts` attempts,
    /// then settle to normal latency — a congestion transient. Unlike
    /// [`Fault::LatencySpike`] this heals, so it exercises the
    /// retry-timeouts path (a deadline blown on attempt 0 succeeds on a
    /// retry).
    SlowStart {
        /// Extra latency added while `attempt < attempts`.
        extra_ms: u64,
        /// Number of leading slow attempts.
        attempts: u32,
    },
    /// No network effect at all: the fault fires in the *persistence*
    /// layer. A checkpoint writer consulted about a record whose site host
    /// carries this fault tears the write mid-record (a partial line with
    /// no checksum), modeling a crash between `write` and `fsync`.
    TornWrite,
}

impl Fault {
    /// Short stable name for reports and labels.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::Unreachable => "unreachable",
            Fault::TransientConnect { .. } => "transient-connect",
            Fault::DnsServFail { .. } => "dns-servfail",
            Fault::DnsTimeout => "dns-timeout",
            Fault::LatencySpike { .. } => "latency-spike",
            Fault::TruncateBody => "truncate-body",
            Fault::Panic => "panic",
            Fault::SlowStart { .. } => "slow-start",
            Fault::TornWrite => "torn-write",
        }
    }
}

/// Deterministic fault injection, in the spirit of the smoltcp examples'
/// `--drop-chance`: failures are planned, not random, so crawls are
/// reproducible.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-host fault schedule. The single source of truth: dead hosts are
    /// ordinary [`Fault::Unreachable`] entries, so `len`, iteration, and
    /// `fault_for` can never disagree about what is planned.
    pub host_faults: BTreeMap<String, Fault>,
}

impl FaultPlan {
    /// Marks a host unreachable (shorthand for injecting
    /// [`Fault::Unreachable`]).
    pub fn take_down(&mut self, host: &str) {
        self.inject(host, Fault::Unreachable);
    }

    /// Whether a host is down (planned [`Fault::Unreachable`]).
    pub fn is_down(&self, host: &str) -> bool {
        self.fault_for(host) == Some(Fault::Unreachable)
    }

    /// Schedules a fault for a host (replacing any previous entry).
    pub fn inject(&mut self, host: &str, fault: Fault) {
        self.host_faults.insert(host.to_ascii_lowercase(), fault);
    }

    /// The fault planned for a host, if any.
    pub fn fault_for(&self, host: &str) -> Option<Fault> {
        self.host_faults.get(&host.to_ascii_lowercase()).copied()
    }

    /// Number of hosts with any planned fault.
    pub fn len(&self) -> usize {
        self.host_faults.len()
    }

    /// Whether no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.host_faults.is_empty()
    }
}

/// A seeded fault matrix: assigns every host a fault kind derived from
/// `hash(seed, host)`, cycling through the whole kind inventory. Used by
/// robustness tests and the `fault_lab` example to sweep all failure modes
/// over a frontier without any randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMatrix {
    /// Seed mixed into every host hash.
    pub seed: u64,
}

impl FaultMatrix {
    /// A matrix over the given seed.
    pub fn new(seed: u64) -> FaultMatrix {
        FaultMatrix { seed }
    }

    /// The fault this matrix assigns to a host (pure; same seed + host →
    /// same fault).
    pub fn fault_for_host(&self, host: &str) -> Fault {
        let mut h = self.seed ^ 0xcbf29ce484222325;
        for b in host.to_ascii_lowercase().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        match h % 9 {
            0 => Fault::Unreachable,
            1 => Fault::TransientConnect {
                failures: 1 + ((h >> 8) % 3) as u32,
            },
            2 => Fault::DnsServFail {
                failures: 1 + ((h >> 8) % 2) as u32,
            },
            3 => Fault::DnsTimeout,
            4 => Fault::LatencySpike {
                extra_ms: 45_000 + (h >> 8) % 15_000,
            },
            5 => Fault::TruncateBody,
            6 => Fault::Panic,
            7 => Fault::SlowStart {
                extra_ms: 45_000 + (h >> 8) % 15_000,
                attempts: 1 + ((h >> 8) % 2) as u32,
            },
            _ => Fault::TornWrite,
        }
    }

    /// Injects a fault for every listed host into the plan.
    pub fn inject_all<'a>(&self, plan: &mut FaultPlan, hosts: impl IntoIterator<Item = &'a str>) {
        for host in hosts {
            plan.inject(host, self.fault_for_host(host));
        }
    }
}

/// The simulated network: DNS zone plus hosted resources.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    /// The global DNS zone.
    pub dns: DnsZone,
    /// Hosted resources keyed by `(host, path)`.
    resources: BTreeMap<(String, String), Resource>,
    /// Planned faults.
    pub faults: FaultPlan,
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Number of hosted resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Hosts a resource, auto-registering an A record for the host if the
    /// DNS zone doesn't know it yet.
    pub fn host(&mut self, url: &Url, resource: Resource) {
        if self.dns.lookup(&url.host).is_none() {
            self.dns.insert_auto(&url.host);
        }
        self.resources
            .insert((url.host.clone(), url.path.clone()), resource);
    }

    /// Looks up a hosted resource without going through fetch semantics.
    pub fn peek(&self, url: &Url) -> Option<&Resource> {
        // The canonical host may differ from the URL host under CNAME
        // cloaking: content is registered under the canonical name.
        if let Some(r) = self.resources.get(&(url.host.clone(), url.path.clone())) {
            return Some(r);
        }
        let resolution = self.dns.resolve(&url.host).ok()?;
        self.resources
            .get(&(resolution.canonical, url.path.clone()))
    }

    /// Fetches a URL: resolves DNS, applies the fault plan, and returns
    /// the resource. Content registered under a CNAME target is reachable
    /// through the aliasing name (that's the point of cloaking).
    ///
    /// Equivalent to [`Network::fetch_attempt`] with `attempt = 0`, so
    /// attempt-counted transient faults fire on a plain `fetch`.
    pub fn fetch(&self, url: &Url) -> Result<Response, FetchError> {
        self.fetch_attempt(url, 0)
    }

    /// Fetches a URL on a given (zero-based) retry attempt. The attempt
    /// number is threaded explicitly instead of being tracked in interior
    /// state so the network stays pure: a crawl record is a function of
    /// `(url, config, network)` regardless of worker interleaving.
    pub fn fetch_attempt(&self, url: &Url, attempt: u32) -> Result<Response, FetchError> {
        let fault = self.faults.fault_for(&url.host);
        if fault == Some(Fault::Panic) {
            panic!("injected fault: panic fetching {url}");
        }
        let planned = self.plan_fetch(url, attempt, fault)?;
        let mut resource = planned.resource.clone();
        if planned.truncated {
            if let Resource::Script(s) = &mut resource {
                let mut cut = s.source.len() / 2;
                while cut > 0 && !s.source.is_char_boundary(cut) {
                    cut -= 1;
                }
                s.source.truncate(cut);
            }
        }
        Ok(Response {
            resource,
            latency_ms: planned.latency_ms,
            resolution: planned.resolution,
            truncated: planned.truncated,
        })
    }

    /// Answers "what would [`Network::fetch_attempt`] do?" without doing
    /// it: no resource clone, no body work, and — crucially — no panic
    /// ([`Fault::Panic`] surfaces as an [`FetchError::Unreachable`]-shaped
    /// failure, since a probe only cares that the host kills visits).
    ///
    /// Returns the simulated response latency on success. Used by the
    /// breaker planner to walk the frontier and charge per-host failures
    /// in frontier order, so breaker state is a pure function of
    /// `(network, frontier, policy)` rather than of the worker schedule.
    pub fn probe(&self, url: &Url, attempt: u32) -> Result<u64, FetchError> {
        let fault = self.faults.fault_for(&url.host);
        Ok(self.plan_fetch(url, attempt, fault)?.latency_ms)
    }

    /// The one fault decision behind [`Network::fetch_attempt`] and
    /// [`Network::probe`], given the host's planned `fault`.
    /// [`Fault::Panic`] answers as an unreachable host here (a planner only
    /// needs to know the host is lethal; `fetch_attempt` panics before
    /// asking). A truncated script arrives flagged for the caller to cut.
    fn plan_fetch(
        &self,
        url: &Url,
        attempt: u32,
        fault: Option<Fault>,
    ) -> Result<PlannedFetch<'_>, FetchError> {
        match fault {
            Some(Fault::Unreachable | Fault::Panic) => {
                return Err(FetchError::Unreachable(url.host.clone()));
            }
            Some(Fault::TransientConnect { failures }) if attempt < failures => {
                return Err(FetchError::Transient(url.host.clone()));
            }
            Some(Fault::DnsServFail { failures }) if attempt < failures => {
                return Err(FetchError::Dns(DnsError::ServFail(url.host.clone())));
            }
            Some(Fault::DnsTimeout) => {
                return Err(FetchError::Dns(DnsError::Timeout(url.host.clone())));
            }
            _ => {}
        }
        let resolution = self.dns.resolve(&url.host).map_err(FetchError::Dns)?;
        if resolution.canonical != url.host {
            match self.faults.fault_for(&resolution.canonical) {
                Some(Fault::Unreachable) => {
                    return Err(FetchError::Unreachable(resolution.canonical.clone()));
                }
                Some(Fault::TransientConnect { failures }) if attempt < failures => {
                    return Err(FetchError::Transient(resolution.canonical.clone()));
                }
                _ => {}
            }
        }
        let resource = self
            .resources
            .get(&(url.host.clone(), url.path.clone()))
            .or_else(|| {
                self.resources
                    .get(&(resolution.canonical.clone(), url.path.clone()))
            })
            .ok_or_else(|| FetchError::NotFound(url.clone()))?;
        let mut latency_ms = latency_ms(&url.host);
        let mut truncated = false;
        match fault {
            Some(Fault::LatencySpike { extra_ms }) => latency_ms += extra_ms,
            Some(Fault::SlowStart { extra_ms, attempts }) if attempt < attempts => {
                latency_ms += extra_ms;
            }
            Some(Fault::TruncateBody) => match resource {
                // A cut-off document is unusable; a cut-off script arrives,
                // but corrupted (the interpreter sees a parse error).
                Resource::Page(_) => return Err(FetchError::Truncated(url.clone())),
                Resource::Script(_) => truncated = true,
            },
            _ => {}
        }
        Ok(PlannedFetch {
            resource,
            resolution,
            latency_ms,
            truncated,
        })
    }

    /// [`Network::fetch_attempt`] wrapped in a `"fetch"` trace span.
    ///
    /// The span's duration is the response's simulated latency (zero on
    /// failure — a refused connection costs no modeled transfer time);
    /// any planned fault for the host surfaces as a `net.fault` instant
    /// and failures as a `net.error` instant, so a visit timeline shows
    /// *why* a fetch failed, not just that it did. Crawl-wide tallies
    /// (`net.fetches`, `net.errors`, the `net.latency_ms` histogram) go
    /// to the recorder's metrics registry, keeping per-visit streams
    /// schedule-independent.
    pub fn fetch_traced(
        &self,
        url: &Url,
        attempt: u32,
        rec: &canvassing_trace::VisitRecorder,
    ) -> Result<Response, FetchError> {
        if !rec.enabled() {
            return self.fetch_attempt(url, attempt);
        }
        let span = rec.span("fetch");
        rec.instant("net.request", || format!("{url} (attempt {attempt})"));
        if let Some(fault) = self.faults.fault_for(&url.host) {
            rec.instant("net.fault", || fault.name().to_string());
        }
        rec.bump("net.fetches");
        let result = self.fetch_attempt(url, attempt);
        match &result {
            Ok(resp) => {
                rec.observe("net.latency_ms", resp.latency_ms);
                if resp.truncated {
                    rec.instant("net.truncated", String::new);
                }
                span.end(resp.latency_ms);
            }
            Err(err) => {
                rec.bump("net.errors");
                rec.instant("net.error", || err.to_string());
                span.end(0);
            }
        }
        result
    }

    /// Iterates over all hosted `(host, path)` keys (deterministic order).
    pub fn resource_keys(&self) -> impl Iterator<Item = (&str, &str)> {
        self.resources
            .iter()
            .map(|((h, p), _)| (h.as_str(), p.as_str()))
    }
}

/// What [`Network::plan_fetch`] decided a fetch meets on success.
struct PlannedFetch<'a> {
    /// The hosted resource, not yet cloned.
    resource: &'a Resource,
    resolution: Resolution,
    latency_ms: u64,
    /// The body is cut off: a script must be truncated before use.
    truncated: bool,
}

/// Party classification of a resource URL relative to a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Party {
    /// Same registrable domain as the page.
    FirstParty,
    /// Same registrable domain, but served from a subdomain of the page
    /// host (the "subdomain routing" evasion is a special case of
    /// first-party serving that the paper reports separately).
    FirstPartySubdomain,
    /// Different registrable domain.
    ThirdParty,
}

/// Classifies `resource` relative to a page at `page`.
pub fn classify_party(page: &Url, resource: &Url) -> Party {
    if same_site(&page.host, &resource.host) {
        if resource.host != page.host && is_subdomain_of(&resource.host, &page.host) {
            Party::FirstPartySubdomain
        } else {
            Party::FirstParty
        }
    } else {
        Party::ThirdParty
    }
}

/// The popular-CDN domains from Appendix A.5 of the paper. Scripts served
/// from these are rarely blocked because the domains host vast amounts of
/// legitimate content.
pub const POPULAR_CDNS: &[&str] = &[
    "cloudflare.com",
    "cloudfront.net",
    "fastly.net",
    "gstatic.com",
    "googleusercontent.com",
    "googleapis.com",
    "akamai.net",
    "azureedge.net",
    "b-cdn.net",
    "bootstrapcdn.com",
    "cdn.jsdelivr.net",
    "cdnjs.cloudflare.com",
];

/// Whether a host is (a subdomain of) a popular CDN from Appendix A.5.
pub fn is_popular_cdn(host: &str) -> bool {
    POPULAR_CDNS.iter().any(|cdn| is_subdomain_of(host, cdn))
}

/// Deterministic per-host latency in milliseconds (5–80 ms), derived from
/// a hash of the host name. Gives instrumentation realistic-looking,
/// reproducible timestamps.
pub fn latency_ms(host: &str) -> u64 {
    let mut h: u64 = 0x9e3779b97f4a7c15;
    for b in host.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    5 + h % 76
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn page_at(host: &str) -> Url {
        Url::https(host, "/")
    }

    #[test]
    fn host_and_fetch_roundtrip() {
        let mut net = Network::new();
        let url = Url::https("example.com", "/app.js");
        net.host(
            &url,
            Resource::Script(ScriptResource {
                source: "let x = 1;".into(),
                label: "test".into(),
            }),
        );
        let resp = net.fetch(&url).unwrap();
        match resp.resource {
            Resource::Script(s) => assert_eq!(s.label, "test"),
            _ => panic!("wrong resource type"),
        }
        assert!(resp.latency_ms >= 5);
    }

    #[test]
    fn fetch_missing_path_is_404() {
        let mut net = Network::new();
        net.host(
            &Url::https("example.com", "/"),
            Resource::Page(PageResource::default()),
        );
        let err = net
            .fetch(&Url::https("example.com", "/nope.js"))
            .unwrap_err();
        assert!(matches!(err, FetchError::NotFound(_)));
    }

    #[test]
    fn fetch_unknown_host_is_dns_error() {
        let net = Network::new();
        let err = net.fetch(&Url::https("ghost.example", "/")).unwrap_err();
        assert!(matches!(err, FetchError::Dns(DnsError::NxDomain(_))));
    }

    #[test]
    fn fault_plan_takes_host_down() {
        let mut net = Network::new();
        let url = Url::https("example.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        net.faults.take_down("example.com");
        assert!(matches!(
            net.fetch(&url).unwrap_err(),
            FetchError::Unreachable(_)
        ));
    }

    #[test]
    fn transient_connect_fails_then_succeeds() {
        let mut net = Network::new();
        let url = Url::https("flaky.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        net.faults
            .inject("flaky.com", Fault::TransientConnect { failures: 2 });
        for attempt in 0..2 {
            let err = net.fetch_attempt(&url, attempt).unwrap_err();
            assert!(matches!(err, FetchError::Transient(_)));
            assert!(err.is_transient());
        }
        assert!(net.fetch_attempt(&url, 2).is_ok());
        // A plain fetch is attempt 0 and observes the fault.
        assert!(net.fetch(&url).is_err());
    }

    #[test]
    fn dns_servfail_is_transient_and_distinct_from_nxdomain() {
        let mut net = Network::new();
        let url = Url::https("lame.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        net.faults
            .inject("lame.com", Fault::DnsServFail { failures: 1 });
        let err = net.fetch_attempt(&url, 0).unwrap_err();
        assert!(matches!(err, FetchError::Dns(DnsError::ServFail(_))));
        assert!(err.is_transient());
        assert!(net.fetch_attempt(&url, 1).is_ok());
    }

    #[test]
    fn dns_timeout_is_permanent() {
        let mut net = Network::new();
        let url = Url::https("tarpit.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        net.faults.inject("tarpit.com", Fault::DnsTimeout);
        for attempt in 0..4 {
            let err = net.fetch_attempt(&url, attempt).unwrap_err();
            assert!(matches!(err, FetchError::Dns(DnsError::Timeout(_))));
        }
    }

    #[test]
    fn latency_spike_inflates_response_latency() {
        let mut net = Network::new();
        let url = Url::https("slow.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        let base = net.fetch(&url).unwrap().latency_ms;
        net.faults
            .inject("slow.com", Fault::LatencySpike { extra_ms: 60_000 });
        let spiked = net.fetch(&url).unwrap().latency_ms;
        assert_eq!(spiked, base + 60_000);
    }

    #[test]
    fn truncate_body_corrupts_scripts_and_kills_pages() {
        let mut net = Network::new();
        let page = Url::https("cut.com", "/");
        let script = Url::https("cut.com", "/fp.js");
        net.host(&page, Resource::Page(PageResource::default()));
        net.host(
            &script,
            Resource::Script(ScriptResource {
                source: "let canvas = make_canvas();".into(),
                label: "t".into(),
            }),
        );
        net.faults.inject("cut.com", Fault::TruncateBody);
        assert!(matches!(
            net.fetch(&page).unwrap_err(),
            FetchError::Truncated(_)
        ));
        let resp = net.fetch(&script).unwrap();
        assert!(resp.truncated);
        match resp.resource {
            Resource::Script(s) => assert!(s.source.len() < "let canvas = make_canvas();".len()),
            _ => panic!("wrong resource type"),
        }
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics() {
        let mut net = Network::new();
        let url = Url::https("boom.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        net.faults.inject("boom.com", Fault::Panic);
        let _ = net.fetch(&url);
    }

    #[test]
    fn fault_matrix_is_deterministic_and_covers_all_kinds() {
        let m = FaultMatrix::new(7);
        let hosts: Vec<String> = (0..200).map(|i| format!("site{i}.com")).collect();
        let mut seen = BTreeSet::new();
        for h in &hosts {
            assert_eq!(m.fault_for_host(h), m.fault_for_host(h));
            seen.insert(m.fault_for_host(h).name());
        }
        assert_eq!(seen.len(), 9, "200 hosts must hit every fault kind");
        // Different seed shuffles the assignment.
        let other = FaultMatrix::new(8);
        assert!(hosts
            .iter()
            .any(|h| m.fault_for_host(h) != other.fault_for_host(h)));
        // inject_all wires the plan.
        let mut plan = FaultPlan::default();
        m.inject_all(&mut plan, hosts.iter().map(|h| h.as_str()));
        assert_eq!(plan.len(), hosts.len());
        assert_eq!(
            plan.fault_for("site0.com"),
            Some(m.fault_for_host("site0.com"))
        );
    }

    #[test]
    fn fault_plan_roundtrips_through_json() {
        let mut plan = FaultPlan::default();
        plan.take_down("dead.com");
        plan.inject("flaky.com", Fault::TransientConnect { failures: 2 });
        plan.inject("slow.com", Fault::LatencySpike { extra_ms: 50_000 });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fault_for("dead.com"), Some(Fault::Unreachable));
        assert_eq!(
            back.fault_for("flaky.com"),
            Some(Fault::TransientConnect { failures: 2 })
        );
        assert_eq!(back.len(), 3);
        assert!(!back.is_empty());
    }

    #[test]
    fn fault_plan_has_one_source_of_truth() {
        // take_down and inject land in the same map: len can never drift
        // from what fault_for answers, and re-planning a dead host as
        // something else fully replaces the entry.
        let mut plan = FaultPlan::default();
        plan.take_down("host.com");
        assert!(plan.is_down("host.com"));
        assert_eq!(plan.len(), 1);
        plan.inject("host.com", Fault::TruncateBody);
        assert!(!plan.is_down("host.com"));
        assert_eq!(plan.fault_for("HOST.com"), Some(Fault::TruncateBody));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn slow_start_heals_after_planned_attempts() {
        let mut net = Network::new();
        let url = Url::https("congested.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        let base = net.fetch(&url).unwrap().latency_ms;
        net.faults.inject(
            "congested.com",
            Fault::SlowStart {
                extra_ms: 60_000,
                attempts: 2,
            },
        );
        assert_eq!(
            net.fetch_attempt(&url, 0).unwrap().latency_ms,
            base + 60_000
        );
        assert_eq!(
            net.fetch_attempt(&url, 1).unwrap().latency_ms,
            base + 60_000
        );
        assert_eq!(net.fetch_attempt(&url, 2).unwrap().latency_ms, base);
    }

    #[test]
    fn torn_write_has_no_network_effect() {
        let mut net = Network::new();
        let url = Url::https("torn.com", "/");
        net.host(&url, Resource::Page(PageResource::default()));
        net.faults.inject("torn.com", Fault::TornWrite);
        assert!(net.fetch(&url).is_ok(), "torn-write is a persistence fault");
    }

    #[test]
    fn probe_agrees_with_fetch_without_side_effects() {
        let mut net = Network::new();
        let ok = Url::https("up.com", "/");
        let dead = Url::https("down.com", "/");
        let boom = Url::https("boom.com", "/");
        let cut_page = Url::https("cut.com", "/");
        let cut_script = Url::https("cut.com", "/a.js");
        for u in [&ok, &dead, &boom, &cut_page] {
            net.host(u, Resource::Page(PageResource::default()));
        }
        net.host(
            &cut_script,
            Resource::Script(ScriptResource {
                source: "let x = 1;".into(),
                label: "t".into(),
            }),
        );
        net.faults.take_down("down.com");
        net.faults.inject("boom.com", Fault::Panic);
        net.faults.inject("cut.com", Fault::TruncateBody);

        let latency = net.probe(&ok, 0).unwrap();
        assert_eq!(latency, net.fetch(&ok).unwrap().latency_ms);
        assert!(matches!(
            net.probe(&dead, 0).unwrap_err(),
            FetchError::Unreachable(_)
        ));
        // Panic hosts probe as plain failures — planning must not crash.
        assert!(net.probe(&boom, 0).is_err());
        assert!(matches!(
            net.probe(&cut_page, 0).unwrap_err(),
            FetchError::Truncated(_)
        ));
        assert!(net.probe(&cut_script, 0).is_ok());
        assert!(matches!(
            net.probe(&Url::https("up.com", "/nope"), 0).unwrap_err(),
            FetchError::NotFound(_)
        ));
    }

    #[test]
    fn cname_cloaked_content_is_reachable_via_alias() {
        let mut net = Network::new();
        // Tracker hosts the script under its canonical name.
        let canonical = Url::https("edge.tracker.net", "/fp.js");
        net.host(
            &canonical,
            Resource::Script(ScriptResource {
                source: "fp()".into(),
                label: "tracker".into(),
            }),
        );
        // Site aliases metrics.example.com -> edge.tracker.net.
        net.dns
            .insert_cname("metrics.example.com", "edge.tracker.net");
        let via_alias = Url::https("metrics.example.com", "/fp.js");
        let resp = net.fetch(&via_alias).unwrap();
        assert!(resp.resolution.is_cloaked());
        assert!(matches!(resp.resource, Resource::Script(_)));
    }

    #[test]
    fn party_classification() {
        let page = page_at("www.example.com");
        assert_eq!(
            classify_party(&page, &Url::https("www.example.com", "/a.js")),
            Party::FirstParty
        );
        assert_eq!(
            classify_party(&page, &Url::https("fp.www.example.com", "/a.js")),
            Party::FirstPartySubdomain
        );
        // Same registrable domain but not a subdomain of the page host:
        // still first-party for blocklist purposes.
        assert_eq!(
            classify_party(&page, &Url::https("cdn.example.com", "/a.js")),
            Party::FirstParty
        );
        assert_eq!(
            classify_party(&page, &Url::https("tracker.net", "/a.js")),
            Party::ThirdParty
        );
    }

    #[test]
    fn cdn_detection() {
        assert!(is_popular_cdn("d123.cloudfront.net"));
        assert!(is_popular_cdn("fonts.googleapis.com"));
        assert!(is_popular_cdn("cloudflare.com"));
        assert!(!is_popular_cdn("example.com"));
        assert!(!is_popular_cdn("notcloudfront.net"));
    }

    #[test]
    fn fetch_traced_records_span_fault_and_error() {
        use canvassing_trace::{EventKind, MetricsRegistry, VisitRecorder};
        let mut net = Network::new();
        let ok = Url::https("up.com", "/");
        let down = Url::https("down.com", "/");
        net.host(&ok, Resource::Page(PageResource::default()));
        net.host(&down, Resource::Page(PageResource::default()));
        net.faults.take_down("down.com");

        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let rec = VisitRecorder::new("https://up.com/", Some(std::sync::Arc::clone(&reg)));
        let resp = net.fetch_traced(&ok, 0, &rec).unwrap();
        net.fetch_traced(&down, 0, &rec).unwrap_err();
        let trace = rec.finish().unwrap();

        let names = canvassing_trace::span_names(&trace);
        assert!(names.contains("fetch"));
        let instants: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Instant { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert!(instants.contains(&"net.request"));
        assert!(instants.contains(&"net.fault"));
        assert!(instants.contains(&"net.error"));
        // The success span carries the simulated latency.
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            EventKind::SpanEnd { dur_ms, .. } if dur_ms == resp.latency_ms
        )));

        let snap = reg.snapshot();
        assert_eq!(snap.counters["net.fetches"], 2);
        assert_eq!(snap.counters["net.errors"], 1);
        assert_eq!(snap.histograms["net.latency_ms"].count, 1);

        // Disabled recorders fall straight through to fetch_attempt.
        let off = VisitRecorder::disabled();
        assert!(net.fetch_traced(&ok, 0, &off).is_ok());
    }

    #[test]
    fn latency_is_deterministic_and_bounded() {
        assert_eq!(latency_ms("example.com"), latency_ms("example.com"));
        for host in ["a.com", "b.com", "c.org"] {
            let l = latency_ms(host);
            assert!((5..=80).contains(&l));
        }
    }
}
