//! [`SharedText`]: one immutable text held once, however many records
//! refer to it.
//!
//! A crawl machine renders each fingerprinting script's test canvas to the
//! same bytes on every site that runs it, so a study holds thousands of
//! copies of a few distinct data URLs. A `SharedText` is a reference-counted
//! string: cloning it copies a pointer, and every record field, cluster and
//! retained detection that names one canvas points at one allocation.
//!
//! The handle also carries the text's FNV-1a [`content_hash`]. Handles
//! built with [`SharedText::hashed`] compute it where the text is made (the
//! crawl worker's `toDataURL`); every other handle computes it on its first
//! [`SharedText::hash`] call, at most once, and clones made after that call
//! carry it along.
//!
//! Equality and ordering are those of the bytes, so maps and sets keyed by
//! handles order exactly as maps keyed by `String` did. Two handles to one
//! allocation compare equal without reading the bytes, and two handles with
//! different known hashes compare unequal without reading them.
//!
//! Serialized, a handle is the plain JSON string it wraps.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use serde::json_value::JsonValue;
use serde::{Deserialize, Serialize};

use crate::content_hash;

/// A shared, immutable string with its cached [`content_hash`].
#[derive(Clone)]
pub struct SharedText {
    text: Arc<str>,
    hash: OnceLock<u64>,
}

impl SharedText {
    /// Takes a copy of `text` and hashes it now.
    pub fn hashed(text: &str) -> SharedText {
        let shared = SharedText::from(text);
        shared.hash();
        shared
    }

    /// The FNV-1a [`content_hash`] of the text's bytes, computed on the
    /// first call for handles not built by [`SharedText::hashed`].
    pub fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| content_hash(self.text.as_bytes()))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Whether both handles share one allocation.
    pub fn ptr_eq(a: &SharedText, b: &SharedText) -> bool {
        Arc::ptr_eq(&a.text, &b.text)
    }
}

impl From<&str> for SharedText {
    fn from(text: &str) -> SharedText {
        SharedText {
            text: Arc::from(text),
            hash: OnceLock::new(),
        }
    }
}

impl From<String> for SharedText {
    fn from(text: String) -> SharedText {
        SharedText::from(text.as_str())
    }
}

impl Deref for SharedText {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl PartialEq for SharedText {
    fn eq(&self, other: &SharedText) -> bool {
        if SharedText::ptr_eq(self, other) {
            return true;
        }
        if let (Some(a), Some(b)) = (self.hash.get(), other.hash.get()) {
            if a != b {
                return false;
            }
        }
        self.text == other.text
    }
}

impl Eq for SharedText {}

impl PartialOrd for SharedText {
    fn partial_cmp(&self, other: &SharedText) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SharedText {
    fn cmp(&self, other: &SharedText) -> Ordering {
        if SharedText::ptr_eq(self, other) {
            return Ordering::Equal;
        }
        self.text.cmp(&other.text)
    }
}

impl PartialEq<&str> for SharedText {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for SharedText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for SharedText {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.as_str().to_owned())
    }
}

impl Deserialize for SharedText {
    fn from_json_value(v: &JsonValue) -> Result<SharedText, String> {
        match v {
            JsonValue::Str(s) => Ok(SharedText::from(s.as_str())),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 64-bit LCG (Knuth MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    /// Empty, escape-heavy, non-ASCII and ~100 KB base64 texts from one
    /// seed.
    fn corpus(seed: u64) -> Vec<String> {
        const ESCAPES: &[char] = &['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/'];
        const WIDE: &[char] = &['é', 'ß', '€', '中', '\u{1F603}', '\u{7f}', 'a'];
        const BASE64: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut rng = Lcg(seed);
        let mut texts = vec![String::new()];
        for _ in 0..8 {
            let n = (rng.next() % 64) as usize;
            texts.push(
                (0..n)
                    .map(|_| ESCAPES[(rng.next() % ESCAPES.len() as u64) as usize])
                    .collect(),
            );
            texts.push(
                (0..n)
                    .map(|_| WIDE[(rng.next() % WIDE.len() as u64) as usize])
                    .collect(),
            );
        }
        for _ in 0..2 {
            let mut url = String::from("data:image/png;base64,");
            let n = 100_000 + (rng.next() % 4) as usize;
            url.extend((0..n).map(|_| BASE64[(rng.next() % 64) as usize] as char));
            url.push_str("==");
            texts.push(url);
        }
        texts
    }

    #[test]
    fn serializes_as_the_string_it_wraps_and_round_trips() {
        for text in corpus(0x5EED_7E47) {
            let shared = SharedText::hashed(&text);
            let json = serde_json::to_string(&shared).unwrap();
            assert_eq!(json, serde_json::to_string(&text).unwrap());
            let back: SharedText = serde_json::from_str(&json).unwrap();
            assert_eq!(back, shared);
            assert_eq!(back.as_str(), text);
            assert_eq!(shared.hash(), content_hash(text.as_bytes()));
            // A deserialized handle hashes on first use, to the same value.
            assert!(back.hash.get().is_none());
            assert_eq!(back.hash(), content_hash(text.as_bytes()));
            assert_eq!(back.hash.get(), Some(&back.hash()));
        }
    }

    #[test]
    fn clones_share_the_allocation_and_the_hash() {
        let a = SharedText::from("data:x".to_string());
        let b = a.clone();
        assert!(SharedText::ptr_eq(&a, &b));
        a.hash();
        let c = a.clone();
        assert_eq!(c.hash.get(), Some(&content_hash(b"data:x")));
        let copy = SharedText::from("data:x");
        assert!(!SharedText::ptr_eq(&a, &copy));
        assert_eq!(a, copy);
    }

    #[test]
    fn equality_and_order_follow_the_bytes() {
        let texts = corpus(0xC0FF_EE00);
        for a in &texts {
            for b in &texts {
                let (x, y) = (SharedText::hashed(a), SharedText::from(b.as_str()));
                assert_eq!(x == y, a == b);
                assert_eq!(x.cmp(&y), a.cmp(b));
                y.hash();
                assert_eq!(x == y, a == b, "with both hashes known");
            }
        }
        assert_eq!(SharedText::from("X"), "X");
    }
}
