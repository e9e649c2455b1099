//! # canvassing-blocklist
//!
//! An Adblock-Plus filter-syntax engine (EasyList/EasyPrivacy semantics)
//! plus the domain-based Disconnect list, built for the paper's blocklist
//! analyses (§5.1, §5.2, Table 4, Appendix A.6).
//!
//! Two distinct questions are asked of these lists, and the crate exposes
//! both:
//!
//! 1. **Static coverage** ([`FilterList::covers_script_url`]) — would any
//!    rule match this script URL requested as a `script` resource,
//!    ignoring page context? This is the `adblockparser` methodology of
//!    §5.1 and produces Table 4.
//! 2. **Dynamic blocking** ([`FilterList::evaluate`] with a full
//!    [`RequestContext`]) — would an ad blocker actually block the request
//!    in the page where it happens, honoring `$document`-style type
//!    options, party constraints, `domain=` scoping, and `@@` exceptions?
//!    This drives the Table 2 re-crawls, and the gap between (1) and (2)
//!    is the paper's §5.2 finding.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod list;
pub mod matcher;
#[cfg(test)]
mod proptests;
pub mod rule;

pub use list::{DisconnectList, FilterList, Verdict};
pub use matcher::{pattern_matches, rule_matches, RequestContext};
pub use rule::{parse_line, Anchor, FilterRule, PartyOption, PatternToken, Skipped, TypeOption};
