//! Property tests for the blocklist engine: totality of the parser,
//! semantic invariants of exceptions and type options, and the host-label
//! index against a scan of every rule. Each property is
//! a seeded LCG loop over [`CASES`] generated inputs, so a failure
//! replays exactly from its case number.

#![cfg(test)]

use canvassing_net::{ResourceType, Url};

use crate::list::{FilterList, Verdict};
use crate::matcher::{rule_matches, RequestContext};
use crate::rule::parse_line;

/// Cases per property.
const CASES: u64 = 256;

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
/// Adblock Plus metacharacters: anchors, wildcard, separator, options,
/// `@@` exceptions, `domain=` lists and their `~` negation, regex slashes.
const META: &[u8] = b"|^*$@,=~/";

/// Deterministic 64-bit LCG (Knuth MMIX constants, as in the other
/// seeded sweeps).
struct Lcg(u64);

impl Lcg {
    /// The generator for one case of one property.
    fn case(property: u64, case: u64) -> Lcg {
        Lcg(((property << 32) | case) ^ 0x9e3779b97f4a7c15)
    }

    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as usize
    }

    /// A length in `lo..=hi`.
    fn len(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `lo..=hi` characters from `alphabet`.
    fn word(&mut self, alphabet: &[u8], lo: usize, hi: usize) -> String {
        (0..self.len(lo, hi))
            .map(|_| alphabet[self.below(alphabet.len())] as char)
            .collect()
    }

    /// `lo..=hi` printable ASCII characters (`[ -~]`), half of them
    /// drawn from [`META`] so options, anchors and exceptions get parsed.
    fn filter_soup(&mut self, lo: usize, hi: usize) -> String {
        (0..self.len(lo, hi))
            .map(|_| {
                if self.below(2) == 0 {
                    META[self.below(META.len())] as char
                } else {
                    (b' ' + self.below(95) as u8) as char
                }
            })
            .collect()
    }

    /// `https://[a-z]{1,8}.[a-z]{2,4}(/[a-z0-9._-]{1,8}){0,3}`.
    fn url(&mut self) -> Url {
        let host = self.word(LOWER, 1, 8);
        let tld = self.word(LOWER, 2, 4);
        let path: String = (0..self.len(0, 3))
            .map(|_| format!("/{}", self.word(PATH, 1, 8)))
            .collect();
        Url::parse(&format!("https://{host}.{tld}{path}")).expect("generated URL")
    }
}

/// The rule parser never panics on arbitrary printable lines.
#[test]
fn parse_line_is_total() {
    for case in 0..CASES {
        let line = Lcg::case(1, case).filter_soup(0, 120);
        let _ = parse_line(&line);
    }
}

/// List parsing never panics on multi-line soup, and rule counts are
/// bounded by line counts.
#[test]
fn list_parse_is_total() {
    for case in 0..CASES {
        let mut rng = Lcg::case(2, case);
        let text: String = (0..rng.len(0, 20))
            .map(|_| rng.filter_soup(0, 60) + "\n")
            .collect();
        let list = FilterList::parse("fuzz", &text);
        assert!(
            list.len() + list.skipped <= text.lines().count() + 1,
            "case {case}: {text:?}"
        );
    }
}

/// Adding an exception can only reduce blocking, never increase it.
#[test]
fn exceptions_never_increase_blocking() {
    for case in 0..CASES {
        let url = Lcg::case(3, case).url();
        let base = format!("||{}^$script\n", url.host);
        let with_exc = format!("{base}@@||{}^$script\n", url.host);
        let plain = FilterList::parse("plain", &base);
        let excepted = FilterList::parse("exc", &with_exc);
        let ctx = RequestContext::new(url, ResourceType::Script, false, "page.example");
        assert!(
            plain.evaluate(&ctx).is_block(),
            "case {case}: base rule must match its own host"
        );
        assert!(
            !excepted.evaluate(&ctx).is_block(),
            "case {case}: exception must defuse the block"
        );
    }
}

/// A `$document` rule never matches a script request, for any host.
#[test]
fn document_rules_never_block_scripts() {
    for case in 0..CASES {
        let url = Lcg::case(4, case).url();
        let rule = parse_line(&format!("||{}^$document", url.host)).unwrap();
        let ctx = RequestContext::new(url, ResourceType::Script, false, "page.example");
        assert!(!rule_matches(&rule, &ctx), "case {case}");
    }
}

/// A domain-anchored rule matches the host itself and any subdomain,
/// and never matches unrelated hosts that merely contain the name.
#[test]
fn domain_anchor_semantics() {
    for case in 0..CASES {
        let mut rng = Lcg::case(5, case);
        let (host, tld) = (rng.word(LOWER, 3, 8), rng.word(LOWER, 2, 3));
        let rule = parse_line(&format!("||{host}.{tld}^")).unwrap();
        let hit = |u: &str| {
            let ctx = RequestContext::new(
                Url::parse(u).unwrap(),
                ResourceType::Script,
                false,
                "page.example",
            );
            rule_matches(&rule, &ctx)
        };
        let exact = hit(&format!("https://{host}.{tld}/x.js"));
        let sub = hit(&format!("https://cdn.{host}.{tld}/x.js"));
        let concat = hit(&format!("https://{host}{tld}.example/x.js"));
        let infix = hit(&format!("https://{host}.{tld}.evil.example/x.js"));
        assert!(
            exact && sub && !concat && !infix,
            "{host}.{tld}: exact {exact} sub {sub} concat {concat} infix {infix}"
        );
    }
}

/// Pattern matching is case-insensitive in both rule and URL.
#[test]
fn matching_is_case_insensitive() {
    for case in 0..CASES {
        let path = Lcg::case(6, case).word(ALPHA, 2, 10);
        let rule = parse_line(&format!("/{}/x.js", path.to_uppercase())).unwrap();
        let url = Url::parse(&format!("https://a.example/{}/x.js", path.to_lowercase())).unwrap();
        assert!(crate::matcher::pattern_matches(&rule, &url), "{path}");
    }
}

/// Labels the index property builds hosts from. Some are prefixes of
/// others, so partial-label rules (`||adserv`) hit longer labels.
const LABELS: &[&str] = &[
    "ads", "adserver", "cdn", "track", "tracker", "fp", "x", "static",
];
const TLDS: &[&str] = &["net", "com", "io", "co.uk"];
const FILES: &[&str] = &["fp.js", "a.js", "fp-1.js", "track.gif", "ads.js", "x.png"];
const PAGES: &[&str] = &["news.com", "shop.net", "blog.news.com", "ads.io", "x.co.uk"];
/// Characters `^` treats as separators that a formatted host can carry
/// (`/`, `?` and `:` would end the host instead).
const HOST_SEPARATORS: &[u8] = b"=+!~,;&";

impl Lcg {
    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// `label(.label)?.tld`.
    fn host(&mut self) -> String {
        let mut host = self.pick(LABELS).to_string();
        if self.below(3) == 0 {
            host = format!("{}.{host}", self.pick(LABELS));
        }
        format!("{host}.{}", self.pick(TLDS))
    }

    /// A non-empty prefix of a label, often a partial one.
    fn label_prefix(&mut self) -> String {
        let label = self.pick(LABELS);
        label[..self.len(1, label.len())].to_string()
    }

    /// One rule of one of the shapes the index must agree with the scan
    /// on, and whether it is a partial-label `||` rule.
    fn index_rule(&mut self, hosts: &[String]) -> (String, bool) {
        let host = hosts[self.below(hosts.len())].clone();
        let shape = self.below(11);
        let pattern = match shape {
            0 => format!("||{host}^"),
            1 => format!("||{}", self.label_prefix()),
            2 => format!("||{}*.js", self.label_prefix()),
            3 => format!("||{}*", self.label_prefix()),
            4 => format!("||.{}", self.pick(TLDS)),
            5 => format!("||{}^", self.pick(LABELS)),
            6 => format!("||{host}/*.js"),
            7 => format!("/{}", self.pick(FILES)),
            8 => format!("{}*.{}", self.label_prefix(), self.pick(&["js", "gif"])),
            9 => format!(
                "|https://{host}/{}{}",
                self.pick(FILES),
                self.pick(&["|", ""])
            ),
            _ => format!("|http{}", self.pick(&["s://", "://", "s://cdn."])),
        };
        let mut options = Vec::new();
        for (odds, option) in [
            (4, "script"),
            (8, "~script"),
            (6, "document"),
            (4, "third-party"),
            (8, "~third-party"),
        ] {
            if self.below(odds) == 0 {
                options.push(option.to_string());
            }
        }
        if self.below(4) == 0 {
            options.push(format!("domain={}|~{}", self.pick(PAGES), self.pick(PAGES)));
        }
        let exception = if self.below(4) == 0 { "@@" } else { "" };
        let options = if options.is_empty() {
            String::new()
        } else {
            format!("${}", options.join(","))
        };
        (
            format!("{exception}{pattern}{options}"),
            (1..=3).contains(&shape),
        )
    }

    /// A request URL on a subdomain of a listed host or on an unrelated
    /// one, with optional port and query. One in sixteen hosts has an
    /// empty label, and one in eight carries a separator character, built
    /// the way only `Url::https` can.
    fn index_url(&mut self, hosts: &[String]) -> Url {
        let mut host = if self.below(4) == 0 {
            self.host()
        } else {
            hosts[self.below(hosts.len())].clone()
        };
        for _ in 0..self.below(3) {
            host = format!("{}.{host}", self.pick(LABELS));
        }
        if self.below(16) == 0 {
            // An empty label, where only `||.x` rules anchor.
            host = host.replacen('.', "..", 1);
        }
        let path = format!("/{}", self.pick(&["", "ads/", "lib/v2/"])) + self.pick(FILES);
        let mut url = if self.below(8) == 0 {
            let at = self.below(host.len() + 1);
            let sep = HOST_SEPARATORS[self.below(HOST_SEPARATORS.len())] as char;
            host.insert(at, sep);
            Url::https(&host, &path)
        } else {
            let scheme = self.pick(&["https", "http"]);
            Url::parse(&format!("{scheme}://{host}{path}")).expect("generated URL")
        };
        if self.below(4) == 0 {
            url.port = Some(8080);
        }
        if self.below(3) == 0 {
            url.query = Some(format!("v=1&u={}", self.pick(LABELS)));
        }
        url
    }
}

/// The verdict a scan of every rule in list order returns.
fn scan(list: &FilterList, ctx: &RequestContext) -> Verdict {
    let Some(block) = list.rules().iter().find(|r| rule_matches(r, ctx)) else {
        return Verdict::Allow;
    };
    match list.exceptions().iter().find(|r| rule_matches(r, ctx)) {
        Some(exc) => Verdict::Excepted {
            block: block.raw.clone(),
            exception: exc.raw.clone(),
        },
        None => Verdict::Block(block.raw.clone()),
    }
}

/// The host-label index returns the scan's verdict, rule text included,
/// on lists of every rule shape: whole-host, partial-label and `||.x`
/// domain anchors, wildcard, `|`-anchored and unanchored rules, type,
/// party and `domain=` options and `@@` exceptions. Requests cover
/// subdomains, ports, queries, both parties, page domains in and out of
/// the `domain=` lists, and hosts that hold separator characters.
#[test]
fn index_agrees_with_scan() {
    let (mut non_allow, mut partial_blocks, mut separator_hits, mut contested) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(7, case);
        let hosts: Vec<String> = (0..rng.len(1, 4)).map(|_| rng.host()).collect();
        let mut partial = Vec::new();
        let text: String = (0..rng.len(4, 24))
            .map(|_| {
                let (rule, is_partial) = rng.index_rule(&hosts);
                if is_partial {
                    partial.push(rule.clone());
                }
                rule + "\n"
            })
            .collect();
        let list = FilterList::parse("index", &text);
        for _ in 0..32 {
            let url = rng.index_url(&hosts);
            let ty = [
                ResourceType::Script,
                ResourceType::Document,
                ResourceType::Image,
            ][rng.below(3)];
            let page = match rng.below(3) {
                0 => format!("{}.{}", rng.pick(LABELS), rng.pick(PAGES)),
                _ => rng.pick(PAGES).to_string(),
            };
            let ctx = RequestContext::new(url.clone(), ty, rng.below(3) == 0, &page);
            let expected = scan(&list, &ctx);
            assert_eq!(
                list.evaluate(&ctx),
                expected,
                "case {case}: {url} ({ty:?}, page {page}) against\n{text}"
            );
            if expected != Verdict::Allow {
                non_allow += 1;
                separator_hits += usize::from(ctx.host_labels().is_none());
            }
            if let Verdict::Block(rule) = &expected {
                partial_blocks += usize::from(partial.contains(rule));
            }
            let matching = list.rules().iter().filter(|r| rule_matches(r, &ctx));
            contested += usize::from(matching.count() > 1);
        }
    }
    // The generator must reach the cases an inexact index gets wrong.
    assert!(non_allow > 2000, "{non_allow} non-allow verdicts");
    assert!(
        partial_blocks > 500,
        "{partial_blocks} partial-label blocks"
    );
    assert!(
        separator_hits > 200,
        "{separator_hits} hits on separator hosts"
    );
    assert!(
        contested > 1000,
        "{contested} requests matching several rules"
    );
}

/// The two gaps of an inexact index, pinned: a partial label blocks, and
/// the block carries the earliest matching rule in list order.
#[test]
fn index_keeps_partial_labels_and_list_order() {
    let script = |list: &FilterList, url: &str| {
        let url = Url::parse(url).unwrap();
        list.evaluate(&RequestContext::new(
            url,
            ResourceType::Script,
            false,
            "page.example",
        ))
    };
    let partial = FilterList::parse("partial", "||adserv\n");
    assert_eq!(
        script(&partial, "https://adserver.net/a.js"),
        Verdict::Block("||adserv".into())
    );
    for (text, first) in [
        ("/fp.js\n||cdn.tracker.net^\n", "/fp.js"),
        ("||cdn.tracker.net^\n/fp.js\n", "||cdn.tracker.net^"),
    ] {
        let list = FilterList::parse("order", text);
        assert_eq!(
            script(&list, "https://cdn.tracker.net/fp.js"),
            Verdict::Block(first.into()),
            "{text:?}"
        );
    }
}
