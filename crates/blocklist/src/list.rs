//! Filter lists and the Disconnect domain list.

use canvassing_net::domain::registrable_domain;
use canvassing_net::{ResourceType, Url};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

use crate::matcher::{host_label_key, rule_matches, RequestContext};
use crate::rule::{parse_line, FilterRule};

/// Outcome of evaluating a request against a filter list.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No rule matched.
    Allow,
    /// A blocking rule matched (carries the rule text).
    Block(String),
    /// A blocking rule matched but an exception rule overrode it.
    Excepted {
        /// The blocking rule that would have fired.
        block: String,
        /// The `@@` rule that overrode it.
        exception: String,
    },
}

impl Verdict {
    /// Whether the request would actually be blocked.
    pub fn is_block(&self) -> bool {
        matches!(self, Verdict::Block(_))
    }
}

/// A parsed ABP-syntax filter list (EasyList / EasyPrivacy shaped).
#[derive(Debug, Clone, Default)]
pub struct FilterList {
    /// List name, for reporting (e.g. `"EasyList"`).
    pub name: String,
    rules: RuleSet,
    exceptions: RuleSet,
    /// Number of input lines skipped during parsing.
    pub skipped: usize,
}

impl FilterList {
    /// Parses list text (one rule per line).
    pub fn parse(name: &str, text: &str) -> FilterList {
        let mut list = FilterList {
            name: name.to_string(),
            ..FilterList::default()
        };
        for line in text.lines() {
            match parse_line(line) {
                Ok(rule) => {
                    if rule.exception {
                        list.exceptions.push(rule);
                    } else {
                        list.rules.push(rule);
                    }
                }
                Err(_) => list.skipped += 1,
            }
        }
        list
    }

    /// Blocking rules, in list order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.rules.rules
    }

    /// Exception (`@@`) rules, in list order.
    pub fn exceptions(&self) -> &[FilterRule] {
        &self.exceptions.rules
    }

    /// Total number of rules (blocking + exception).
    pub fn len(&self) -> usize {
        self.rules().len() + self.exceptions().len()
    }

    /// Whether the list has no rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates a request: the earliest matching blocking rule, then the
    /// earliest matching exception, both in list order.
    pub fn evaluate(&self, ctx: &RequestContext) -> Verdict {
        let Some(block) = self.rules.first_match(ctx) else {
            return Verdict::Allow;
        };
        if let Some(exc) = self.exceptions.first_match(ctx) {
            return Verdict::Excepted {
                block: block.raw.clone(),
                exception: exc.raw.clone(),
            };
        }
        Verdict::Block(block.raw.clone())
    }

    /// The adblockparser-style question the paper asks in §5.1: does any
    /// rule of this list *cover* the URL when requested as `resource_type`
    /// (ignoring the dynamic page context — pass `first_party=false` and
    /// an unrelated page domain, as `adblockparser` effectively does)?
    pub fn covers_script_url(&self, url: &Url, resource_type: ResourceType) -> bool {
        let ctx = RequestContext::new(url.clone(), resource_type, false, "adblockparser.invalid");
        matches!(self.evaluate(&ctx), Verdict::Block(_))
    }
}

/// Rules in list order, indexed by the host label each `||` rule can
/// match at ([`host_label_key`]).
#[derive(Debug, Clone, Default)]
struct RuleSet {
    rules: Vec<FilterRule>,
    /// Positions in `rules` of the rules with a label key, by key.
    by_label: HashMap<String, Vec<usize>>,
    /// Positions of every other rule.
    unfiled: Vec<usize>,
}

impl RuleSet {
    fn push(&mut self, rule: FilterRule) {
        let at = self.rules.len();
        match host_label_key(&rule) {
            Some(label) => self.by_label.entry(label.to_string()).or_default().push(at),
            None => self.unfiled.push(at),
        }
        self.rules.push(rule);
    }

    /// The earliest rule in list order that matches `ctx`: the one a scan
    /// of every rule finds. Only rules filed under a label of the request
    /// host, and the unfiled ones, can match, so only they are tested.
    fn first_match(&self, ctx: &RequestContext) -> Option<&FilterRule> {
        let Some(labels) = ctx.host_labels() else {
            return self.rules.iter().find(|r| rule_matches(r, ctx));
        };
        let mut first = self.rules.len();
        let mut earliest = |ids: &[usize]| {
            let hit = ids
                .iter()
                .take_while(|&&at| at < first)
                .find(|&&at| rule_matches(&self.rules[at], ctx));
            if let Some(&at) = hit {
                first = at;
            }
        };
        for label in labels {
            if let Some(ids) = self.by_label.get(label) {
                earliest(ids);
            }
        }
        earliest(&self.unfiled);
        self.rules.get(first)
    }
}

/// The Disconnect tracker-protection list: purely domain-based (§5.1
/// "The Disconnect list is domain-based, so we simply check if the domain
/// of the script's URL is included in the list").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DisconnectList {
    domains: BTreeSet<String>,
}

impl DisconnectList {
    /// Builds a list from domain strings.
    pub fn from_domains<I: IntoIterator<Item = S>, S: Into<String>>(domains: I) -> Self {
        DisconnectList {
            domains: domains
                .into_iter()
                .map(|d| d.into().to_ascii_lowercase())
                .collect(),
        }
    }

    /// Parses the simple one-domain-per-line format.
    pub fn parse(text: &str) -> Self {
        Self::from_domains(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string),
        )
    }

    /// Number of listed domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Adds one domain.
    pub fn insert(&mut self, domain: &str) {
        self.domains.insert(domain.to_ascii_lowercase());
    }

    /// Whether the URL's host (or its registrable domain) is listed.
    pub fn contains_url(&self, url: &Url) -> bool {
        if self.domains.contains(&url.host) {
            return true;
        }
        match registrable_domain(&url.host) {
            Some(rd) => self.domains.contains(rd),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
! EasyList-shaped sample
[Adblock Plus 2.0]
||tracker.net^$script
||mgid.com^$document
@@||tracker.net/allowed/*$script
/fp-collect.js
example.com##.banner
";

    #[test]
    fn parse_counts() {
        let list = FilterList::parse("test", SAMPLE);
        assert_eq!(list.rules().len(), 3);
        assert_eq!(list.exceptions().len(), 1);
        assert_eq!(list.skipped, 3); // comment, header, cosmetic
    }

    #[test]
    fn evaluate_block_and_exception() {
        let list = FilterList::parse("test", SAMPLE);
        let blocked = RequestContext::new(
            Url::parse("https://tracker.net/fp.js").unwrap(),
            ResourceType::Script,
            false,
            "site.com",
        );
        assert!(list.evaluate(&blocked).is_block());

        let excepted = RequestContext::new(
            Url::parse("https://tracker.net/allowed/fp.js").unwrap(),
            ResourceType::Script,
            false,
            "site.com",
        );
        match list.evaluate(&excepted) {
            Verdict::Excepted { .. } => {}
            other => panic!("expected exception, got {other:?}"),
        }
    }

    #[test]
    fn covers_script_url_ignores_document_rules() {
        let list = FilterList::parse("test", SAMPLE);
        let mgid = Url::parse("https://mgid.com/fp.js").unwrap();
        assert!(!list.covers_script_url(&mgid, ResourceType::Script));
        let tracker = Url::parse("https://tracker.net/fp.js").unwrap();
        assert!(list.covers_script_url(&tracker, ResourceType::Script));
    }

    #[test]
    fn disconnect_matches_by_domain() {
        let d = DisconnectList::from_domains(["tracker.net", "mail.ru"]);
        assert!(d.contains_url(&Url::parse("https://tracker.net/x.js").unwrap()));
        assert!(d.contains_url(&Url::parse("https://cdn.tracker.net/x.js").unwrap()));
        assert!(d.contains_url(&Url::parse("https://privacy-cs.mail.ru/fp.js").unwrap()));
        assert!(!d.contains_url(&Url::parse("https://example.com/x.js").unwrap()));
    }

    #[test]
    fn disconnect_parse_skips_comments() {
        let d = DisconnectList::parse("# trackers\ntracker.net\n\nads.example\n");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_list_allows_everything() {
        let list = FilterList::parse("empty", "");
        let ctx = RequestContext::new(
            Url::parse("https://anything.com/x.js").unwrap(),
            ResourceType::Script,
            false,
            "site.com",
        );
        assert_eq!(list.evaluate(&ctx), Verdict::Allow);
    }
}
