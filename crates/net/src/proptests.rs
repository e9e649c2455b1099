//! Property tests for the network substrate. Each property is a seeded
//! LCG loop over [`CASES`] generated inputs, so a failure replays exactly
//! from its case number.

#![cfg(test)]

use crate::dns::{auto_address, DnsZone};
use crate::domain::{is_subdomain_of, public_suffix, registrable_domain, same_site};
use crate::url::Url;

/// Cases per property.
const CASES: u64 = 256;

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGITS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
const HOST_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";

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

    /// `([a-z]{1,label}\.){lo,hi}[a-z]{tld_lo,tld_hi}`.
    fn host(&mut self, labels: (usize, usize), label: usize, tld: (usize, usize)) -> String {
        let mut host: String = (0..self.len(labels.0, labels.1))
            .map(|_| self.word(LOWER, 1, label) + ".")
            .collect();
        host += &self.word(LOWER, tld.0, tld.1);
        host
    }
}

/// URL parsing never panics on arbitrary printable input (`[ -~]{0,80}`).
#[test]
fn url_parse_is_total() {
    for case in 0..CASES {
        let mut rng = Lcg::case(1, case);
        let s: String = (0..rng.len(0, 80))
            .map(|_| (b' ' + rng.below(95) as u8) as char)
            .collect();
        let _ = Url::parse(&s);
    }
}

/// The registrable domain, when present, is a suffix of the host and
/// contains the public suffix.
#[test]
fn registrable_domain_is_a_suffix() {
    for case in 0..CASES {
        let host = Lcg::case(2, case).host((0, 3), 8, (2, 6));
        if let Some(rd) = registrable_domain(&host) {
            let ps = public_suffix(&host);
            assert!(host.ends_with(rd), "{host}: {rd}");
            assert!(rd.ends_with(ps) && rd.len() > ps.len(), "{host}: {rd} {ps}");
        }
    }
}

/// registrable_domain is idempotent: applying it to its own output is
/// the identity.
#[test]
fn registrable_domain_idempotent() {
    for case in 0..CASES {
        let host = Lcg::case(3, case).host((0, 3), 8, (2, 6));
        if let Some(rd) = registrable_domain(&host) {
            assert_eq!(registrable_domain(rd), Some(rd), "{host}");
        }
    }
}

/// same_site is reflexive and symmetric.
#[test]
fn same_site_is_an_equivalence_fragment() {
    for case in 0..CASES {
        let mut rng = Lcg::case(4, case);
        let a = rng.host((1, 2), 6, (2, 4));
        let b = rng.host((1, 2), 6, (2, 4));
        assert!(same_site(&a, &a), "{a}");
        assert_eq!(same_site(&a, &b), same_site(&b, &a), "{a} {b}");
    }
}

/// A label prepended to any host is a subdomain of it and same-site
/// with it (when the host has a registrable domain).
#[test]
fn prepended_label_is_subdomain() {
    for case in 0..CASES {
        let mut rng = Lcg::case(5, case);
        let label = rng.word(LOWER, 1, 6);
        let tld = ["com", "org", "net", "ru", "co.uk"][rng.below(5)];
        let host = format!("{}.{tld}", rng.word(LOWER, 1, 8));
        let sub = format!("{label}.{host}");
        assert!(is_subdomain_of(&sub, &host), "{sub}");
        assert!(!is_subdomain_of(&host, &sub), "{sub}");
        assert!(same_site(&sub, &host), "{sub}");
    }
}

/// Auto addresses are deterministic and avoid reserved first octets.
#[test]
fn auto_addresses_are_stable() {
    for case in 0..CASES {
        let name = Lcg::case(6, case).word(NAME, 1, 24);
        let a = auto_address(&name);
        assert_eq!(a, auto_address(&name), "{name}");
        assert!(a.0[0] != 0 && a.0[0] != 127, "{name}: {a:?}");
    }
}

/// Any acyclic CNAME chain up to the depth limit resolves to the
/// terminal A record.
#[test]
fn cname_chains_resolve() {
    for depth in 0..8 {
        let mut zone = DnsZone::new();
        for i in 0..depth {
            zone.insert_cname(&format!("n{i}.example"), &format!("n{}.example", i + 1));
        }
        let addr = zone.insert_auto(&format!("n{depth}.example"));
        let res = zone.resolve("n0.example").unwrap();
        assert_eq!(res.address, addr, "depth {depth}");
        assert_eq!(res.chain.len(), depth, "depth {depth}");
    }
}

/// Display and parse round-trip, and the displayed host sits between
/// `://` and the first `/`, `?` or `:` (where the blocklist's `||`
/// matching looks for it). Hosts are `[a-z][a-z0-9-]{0,10}(\.[a-z]{2,5}){1,2}`
/// and paths `(/[a-z0-9._-]{1,8}){0,3}`, with an optional port and query.
#[test]
fn parse_display_roundtrip() {
    for case in 0..CASES {
        let mut rng = Lcg::case(8, case);
        let mut host = rng.word(LOWER, 1, 1) + &rng.word(HOST_TAIL, 0, 10);
        for _ in 0..rng.len(1, 2) {
            host = host + "." + &rng.word(LOWER, 2, 5);
        }
        let port = match rng.below(4) {
            0 => format!(":{}", rng.below(65536)),
            _ => String::new(),
        };
        let path: String = (0..rng.len(0, 3))
            .map(|_| format!("/{}", rng.word(PATH, 1, 8)))
            .collect();
        let query = match rng.below(3) {
            0 => format!(
                "?{}={}",
                rng.word(LOWER, 1, 4),
                rng.word(LOWER_DIGITS, 0, 6)
            ),
            _ => String::new(),
        };
        let s = format!("https://{host}{port}{path}{query}");
        let u = Url::parse(&s).unwrap();
        let shown = u.to_string();
        assert_eq!(Url::parse(&shown).unwrap(), u, "{s}");
        let start = shown.find("://").unwrap() + 3;
        let end = shown[start..]
            .find(['/', '?', ':'])
            .map_or(shown.len(), |i| start + i);
        assert_eq!(&shown[start..end], u.host, "{s}");
    }
}
