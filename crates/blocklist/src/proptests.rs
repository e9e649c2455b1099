//! Property tests for the blocklist engine: totality of the parser,
//! semantic invariants of exceptions and type options. Each property is
//! a seeded LCG loop over [`CASES`] generated inputs, so a failure
//! replays exactly from its case number.

#![cfg(test)]

use canvassing_net::{ResourceType, Url};

use crate::list::FilterList;
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
