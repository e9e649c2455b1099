//! Rule-against-request matching.

use canvassing_net::{ResourceType, Url};

use crate::rule::{Anchor, FilterRule, PartyOption, PatternToken, TypeOption};

/// The request context a rule is evaluated against. The URL is formatted
/// and lowercased once, here, and every rule matches against that text.
#[derive(Debug, Clone)]
pub struct RequestContext {
    text: UrlText,
    resource_type: ResourceType,
    first_party: bool,
    page_domain: String,
}

impl RequestContext {
    /// The context of a request for `url`, a `resource_type` resource,
    /// made by a page whose registrable domain is `page_domain` (matched
    /// by `domain=`). `first_party` says whether the request is
    /// same-site with the page.
    pub fn new(
        url: Url,
        resource_type: ResourceType,
        first_party: bool,
        page_domain: &str,
    ) -> Self {
        RequestContext {
            text: UrlText::new(&url),
            resource_type,
            first_party,
            page_domain: page_domain.to_ascii_lowercase(),
        }
    }

    /// The labels of the request host, in host order, or `None` when the
    /// host holds a character `^` treats as a separator. `Url::parse`
    /// never produces such a host; `Url::https` and writes to `host` can.
    pub(crate) fn host_labels(&self) -> Option<std::str::Split<'_, char>> {
        let host = self.text.host();
        (!host.chars().any(is_separator)).then(|| host.split('.'))
    }
}

/// A URL as rules see it: formatted and lowercased, with the byte range
/// of its host.
#[derive(Debug, Clone)]
struct UrlText {
    full: String,
    /// Where the host starts: after the first `://`.
    host_start: usize,
    /// Where the host ends: at the first `/`, `?` or `:` after its start.
    host_end: usize,
}

impl UrlText {
    fn new(url: &Url) -> UrlText {
        let mut full = url.to_string();
        full.make_ascii_lowercase();
        let host_start = full.find("://").map_or(0, |i| i + 3);
        let host_end = full[host_start..]
            .find(['/', '?', ':'])
            .map_or(full.len(), |i| host_start + i);
        UrlText {
            full,
            host_start,
            host_end,
        }
    }

    fn host(&self) -> &str {
        &self.full[self.host_start..self.host_end]
    }

    /// Where `||` may anchor: the start of the host and of each later
    /// label.
    fn label_starts(&self) -> impl Iterator<Item = usize> + '_ {
        let start = self.host_start;
        std::iter::once(start).chain(
            self.host()
                .match_indices('.')
                .map(move |(i, _)| start + i + 1),
        )
    }

    fn matches(&self, rule: &FilterRule) -> bool {
        let full = self.full.as_str();
        let at = |pos| match_tokens_at(&rule.tokens, full, pos, rule.end_anchor);
        match rule.anchor {
            Anchor::Start => at(0),
            Anchor::Domain => self.label_starts().any(at),
            Anchor::None => {
                if rule.tokens.is_empty() {
                    return true;
                }
                // Every literal of a match occurs in the URL, so a rule
                // with a literal the URL lacks cannot match anywhere.
                let literals_occur = rule.tokens.iter().all(|t| match t {
                    PatternToken::Literal(lit) => full.contains(lit.as_str()),
                    PatternToken::Wildcard | PatternToken::Separator => true,
                });
                literals_occur
                    && full
                        .char_indices()
                        .map(|(i, _)| i)
                        .chain(std::iter::once(full.len()))
                        .any(at)
            }
        }
    }
}

/// The host label a `||` rule can match at, when the rule text shows
/// where that label ends: a `.`, `/`, `?` or `:` in its leading literal,
/// or a `^` right after it. Such a rule matches a host only at a label
/// equal to the key, so [`FilterList`](crate::FilterList) tests it only
/// on hosts that have that label. `||adserv`, `||ads*.js` and `||track*`
/// have no key: `adserv` may be the start of a longer label.
///
/// Why the key is exact: `||` anchors at a label start `s`. A `.` ends
/// the label at `s`, and `/`, `?` or `:` ends the whole host, so a
/// literal whose first such character sits at `i` matches at `s` only if
/// the label at `s` is the literal's first `i` bytes. A `^` after the
/// literal needs a separator there, and inside a host only a separator
/// character can be one; [`RequestContext::host_labels`] sends hosts that
/// hold one to the full scan.
pub(crate) fn host_label_key(rule: &FilterRule) -> Option<&str> {
    if rule.anchor != Anchor::Domain {
        return None;
    }
    let (PatternToken::Literal(lit), rest) = rule.tokens.split_first()? else {
        return None;
    };
    match lit.find(['.', '/', '?', ':']) {
        Some(end) => Some(&lit[..end]),
        None if rest.first() == Some(&PatternToken::Separator) => Some(lit),
        None => None,
    }
}

fn type_matches(rule: &FilterRule, ty: ResourceType) -> bool {
    let as_opt = match ty {
        ResourceType::Script => TypeOption::Script,
        ResourceType::Image => TypeOption::Image,
        ResourceType::Document => TypeOption::Document,
        ResourceType::Other => TypeOption::Other,
    };
    if rule.exclude_types.contains(&as_opt) {
        return false;
    }
    if rule.include_types.is_empty() {
        return true;
    }
    rule.include_types.contains(&as_opt)
}

fn party_matches(rule: &FilterRule, first_party: bool) -> bool {
    match rule.party {
        PartyOption::Any => true,
        PartyOption::ThirdOnly => !first_party,
        PartyOption::FirstOnly => first_party,
    }
}

fn domain_matches(rule: &FilterRule, page_domain: &str) -> bool {
    // `d` itself or a subdomain of it.
    let covered = |d: &String| {
        page_domain
            .strip_suffix(d.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.ends_with('.'))
    };
    if rule.exclude_domains.iter().any(covered) {
        return false;
    }
    if rule.include_domains.is_empty() {
        return true;
    }
    rule.include_domains.iter().any(covered)
}

/// Whether `c` is an ABP "separator" character for `^`.
fn is_separator(c: char) -> bool {
    !(c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%')
}

/// Whether the compiled tokens match `text` starting exactly at byte
/// offset `pos`.
fn match_tokens_at(tokens: &[PatternToken], text: &str, pos: usize, end_anchor: bool) -> bool {
    match tokens.split_first() {
        None => !end_anchor || pos == text.len(),
        Some((PatternToken::Literal(lit), rest)) => {
            if text[pos..].starts_with(lit.as_str()) {
                match_tokens_at(rest, text, pos + lit.len(), end_anchor)
            } else {
                false
            }
        }
        Some((PatternToken::Separator, rest)) => {
            // `^` matches a separator char, or — consuming nothing — the
            // end of the URL.
            if pos == text.len() {
                return match_tokens_at(rest, text, pos, end_anchor);
            }
            match text[pos..].chars().next() {
                Some(c) if is_separator(c) => {
                    match_tokens_at(rest, text, pos + c.len_utf8(), end_anchor)
                }
                _ => false,
            }
        }
        Some((PatternToken::Wildcard, rest)) => {
            if rest.is_empty() {
                return true; // `*` can always extend to the end of the URL
            }
            let mut p = pos;
            loop {
                if match_tokens_at(rest, text, p, end_anchor) {
                    return true;
                }
                match text[p..].chars().next() {
                    Some(c) => p += c.len_utf8(),
                    None => return false,
                }
            }
        }
    }
}

/// Whether the rule's pattern (ignoring options) matches the URL. This
/// formats the URL on every call; [`rule_matches`] reuses the text its
/// [`RequestContext`] formatted once.
pub fn pattern_matches(rule: &FilterRule, url: &Url) -> bool {
    UrlText::new(url).matches(rule)
}

/// Full rule evaluation: pattern + type + party + domain options.
pub fn rule_matches(rule: &FilterRule, ctx: &RequestContext) -> bool {
    type_matches(rule, ctx.resource_type)
        && party_matches(rule, ctx.first_party)
        && domain_matches(rule, &ctx.page_domain)
        && ctx.text.matches(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::parse_line;

    fn ctx(url: &str, ty: ResourceType, first: bool, page: &str) -> RequestContext {
        RequestContext::new(Url::parse(url).unwrap(), ty, first, page)
    }

    fn rule(s: &str) -> FilterRule {
        parse_line(s).unwrap()
    }

    #[test]
    fn substring_rule_matches_anywhere() {
        let r = rule("/fingerprint.js");
        assert!(rule_matches(
            &r,
            &ctx(
                "https://cdn.x.com/lib/fingerprint.js",
                ResourceType::Script,
                false,
                "x.com"
            )
        ));
        assert!(!rule_matches(
            &r,
            &ctx(
                "https://cdn.x.com/lib/fp.js",
                ResourceType::Script,
                false,
                "x.com"
            )
        ));
    }

    #[test]
    fn domain_anchor_matches_host_and_subdomains() {
        let r = rule("||tracker.net^");
        for u in [
            "https://tracker.net/a.js",
            "https://cdn.tracker.net/a.js",
            "http://tracker.net/",
        ] {
            assert!(
                rule_matches(&r, &ctx(u, ResourceType::Script, false, "x.com")),
                "{u}"
            );
        }
        assert!(!rule_matches(
            &r,
            &ctx(
                "https://nottracker.net/a.js",
                ResourceType::Script,
                false,
                "x.com"
            )
        ));
        assert!(!rule_matches(
            &r,
            &ctx(
                "https://tracker.net.evil.com/a.js",
                ResourceType::Script,
                false,
                "x.com"
            )
        ));
    }

    #[test]
    fn document_rule_does_not_block_scripts() {
        // The Appendix A.6 failure: ||mgid.com^$document has a rule but it
        // never applies to script resources.
        let r = rule("||mgid.com^$document");
        assert!(!rule_matches(
            &r,
            &ctx(
                "https://mgid.com/fp.js",
                ResourceType::Script,
                false,
                "news.com"
            )
        ));
        assert!(rule_matches(
            &r,
            &ctx(
                "https://mgid.com/",
                ResourceType::Document,
                false,
                "news.com"
            )
        ));
    }

    #[test]
    fn third_party_option() {
        let r = rule("||fp.example.net^$script,third-party");
        assert!(rule_matches(
            &r,
            &ctx(
                "https://fp.example.net/x.js",
                ResourceType::Script,
                false,
                "shop.com"
            )
        ));
        assert!(!rule_matches(
            &r,
            &ctx(
                "https://fp.example.net/x.js",
                ResourceType::Script,
                true,
                "example.net"
            )
        ));
    }

    #[test]
    fn domain_option_scopes_rule() {
        let r = rule("/ads.js$domain=news.com");
        assert!(rule_matches(
            &r,
            &ctx(
                "https://cdn.net/ads.js",
                ResourceType::Script,
                false,
                "news.com"
            )
        ));
        assert!(rule_matches(
            &r,
            &ctx(
                "https://cdn.net/ads.js",
                ResourceType::Script,
                false,
                "sub.news.com"
            )
        ));
        assert!(!rule_matches(
            &r,
            &ctx(
                "https://cdn.net/ads.js",
                ResourceType::Script,
                false,
                "blog.org"
            )
        ));
    }

    #[test]
    fn separator_semantics() {
        let r = rule("||example.com^path");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://example.com/path").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://example.compath.com/x").unwrap()
        ));
        // '^' also matches end-of-URL.
        let r2 = rule("||example.com^");
        assert!(pattern_matches(
            &r2,
            &Url::parse("https://example.com/").unwrap()
        ));
    }

    #[test]
    fn wildcard_spans_segments() {
        let r = rule("||cdn.net/*/fp-*.js");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://cdn.net/v2/fp-3.1.js").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://cdn.net/fp.js").unwrap()
        ));
    }

    #[test]
    fn start_and_end_anchor() {
        let r = rule("|https://exact.com/app.js|");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://exact.com/app.js").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://exact.com/app.js?v=1").unwrap()
        ));
        assert!(!pattern_matches(
            &r,
            &Url::parse("https://pre.exact.com/app.js").unwrap()
        ));
    }

    #[test]
    fn matching_is_case_insensitive() {
        let r = rule("/FingerPrint/a.js");
        assert!(pattern_matches(
            &r,
            &Url::parse("https://x.com/fingerprint/A.JS").unwrap()
        ));
    }
}
