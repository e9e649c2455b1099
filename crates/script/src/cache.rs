//! Shared compiled-script cache, and the compute-once body map under it.
//!
//! A crawl visits tens of thousands of pages that overwhelmingly serve the
//! *same* handful of vendor fingerprinting scripts (the paper attributes
//! most canvases to ~13 vendors, §4.3). Re-lexing and re-parsing an
//! identical body on every visit is pure waste: a [`ScriptCache`] keys
//! compiled [`Program`]s by a 64-bit content hash of the source text and
//! shares them across crawl workers behind an `Arc`, so each unique script
//! body is lexed and parsed **exactly once per crawl**.
//!
//! Three per-body memos share one map, [`BodyMap`]: this cache, the
//! static-analysis triage cache (`canvassing_analysis::AnalysisCache`) and
//! the render memo (`canvassing_browser::RenderMemo`). The map holds the
//! design points they have in common:
//!
//! * **Lock-sharded** — cells live in `SHARDS` independent mutexes
//!   selected by the content hash, so workers looking up different
//!   bodies rarely contend on one lock.
//! * **Compute outside the lock, exactly once** — a shard lock is held
//!   only to find or insert a body's cell; the value is computed through
//!   the cell's `OnceLock`. Concurrent lookups of *the same* body block
//!   on the one computing caller and then hit, so the compute count is
//!   deterministic across worker counts and schedules, and a slow
//!   compute never blocks lookups of other bodies in its shard.
//! * **Collision-proof** — cells store the full body (and a tag, such as
//!   a device id) and compare both on lookup; a 64-bit hash collision
//!   degrades to a second cell, never to the wrong value.
//!
//! On top of the map, this cache adds:
//!
//! * **Failures cached too** — a body that fails to parse fails
//!   identically on every site that serves it; the [`ParseError`] is
//!   cached so broken scripts also cost one parse attempt per crawl.
//! * **Bytecode rides along** — execution paths ask for
//!   [`ScriptCache::get_or_compile`], which lazily lowers the parsed
//!   program to VM bytecode (once per body, through a second `OnceLock`)
//!   and returns both halves as an [`ExecutableScript`]. Parse-only
//!   consumers (static analysis triage) keep using
//!   [`ScriptCache::get_or_parse`] and never pay for compilation;
//!   the separate `compiles` counter in [`ScriptCacheStats`] keeps the
//!   two workloads distinguishable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::ast::Program;
use crate::bytecode::CompiledProgram;
use crate::parser::{parse, ParseError};

/// Number of independently locked shards. A small power of two is plenty:
/// the hot set is a dozen vendor scripts, and the goal is only to keep
/// unrelated lookups from serializing.
const SHARDS: usize = 16;

/// FNV-1a content hash of a script body (the cache key).
pub fn source_hash(src: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in src.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One `(body, tag)` pair's cell: the full body and tag it was filed
/// under, and its value once computed.
struct Cell<V> {
    body: String,
    tag: String,
    value: OnceLock<V>,
}

/// One shard: content hash → the cells filed under it (more than one when
/// tags differ or on a 64-bit collision).
type Shard<V> = Mutex<HashMap<u64, Vec<Arc<Cell<V>>>>>;

/// A sharded, compute-once map from a script body (plus a tag) to a
/// value, `Arc`-shareable across crawl workers. See the module docs.
pub struct BodyMap<V> {
    shards: Vec<Shard<V>>,
}

impl<V> Default for BodyMap<V> {
    fn default() -> BodyMap<V> {
        BodyMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }
}

impl<V: Clone> BodyMap<V> {
    /// Returns the value of `(body, tag)`, running `init` to compute it if
    /// this pair has no value yet. `hash` is [`source_hash`] of `body`,
    /// passed in so a lookup hashes the body once; cells compare the full
    /// body and tag, so two bodies under one hash never share a value.
    ///
    /// The shard lock is held only to find or insert the pair's cell;
    /// `init` runs outside it, once per pair, while concurrent lookups of
    /// the same pair wait for it. The flag is true for the one lookup
    /// whose `init` ran.
    pub fn get_or_init(
        &self,
        hash: u64,
        body: &str,
        tag: &str,
        init: impl FnOnce() -> V,
    ) -> (V, bool) {
        let cell = {
            // No caller code runs under a shard lock and an insert leaves
            // the map whole, so a poisoned lock's map is still sound.
            let mut map = self.shards[(hash as usize) % SHARDS]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let cells = map.entry(hash).or_default();
            match cells.iter().find(|c| c.body == body && c.tag == tag) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(Cell {
                        body: body.to_string(),
                        tag: tag.to_string(),
                        value: OnceLock::new(),
                    });
                    cells.push(Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut ran = false;
        let value = cell.value.get_or_init(|| {
            ran = true;
            init()
        });
        (value.clone(), ran)
    }

    /// Number of `(body, tag)` cells in the map.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One body's parse outcome, plus its bytecode once an execution path
/// asked for it. Triage paths ([`crate::parse`]-only consumers like the
/// static analyzer) never pay for compilation.
struct Parsed {
    program: Result<Arc<Program>, ParseError>,
    bytecode: OnceLock<Arc<CompiledProgram>>,
}

/// A ready-to-execute cached script: the parsed program (the tree-walker
/// oracle input, also shared with static analysis) plus its compiled
/// bytecode (the production VM input).
#[derive(Clone)]
pub struct ExecutableScript {
    /// The parsed AST.
    pub program: Arc<Program>,
    /// The compiled bytecode.
    pub bytecode: Arc<CompiledProgram>,
}

/// Cumulative cache counters. All counts are deterministic for a given
/// workload regardless of worker count or scheduling (see the
/// exactly-once note in the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScriptCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to lex + parse (== unique script bodies seen).
    pub parses: u64,
    /// Bytecode compilations (== unique *executed* bodies that parsed;
    /// attributed separately from parses so parse-only triage work and
    /// execution-path compile amortization stay distinguishable).
    pub compiles: u64,
}

impl ScriptCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.parses
    }

    /// Hit rate in `[0, 1]` (0 when the cache was never used).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A sharded, `Arc`-shareable compile cache. See the module docs.
#[derive(Default)]
pub struct ScriptCache {
    bodies: BodyMap<Arc<Parsed>>,
    hits: AtomicU64,
    parses: AtomicU64,
    compiles: AtomicU64,
}

/// Compiles a program, running the bytecode verifier on the result in
/// debug builds (so every test-suite and CI compile proves the codegen
/// invariants in [`crate::verify`]). Release crawls skip the check;
/// the `lint` bin re-verifies the full corpus explicitly.
fn compile_checked(program: &Program) -> crate::CompiledProgram {
    let bytecode = crate::compile::compile(program);
    #[cfg(debug_assertions)]
    if let Err(e) = crate::verify::verify(&bytecode) {
        panic!("bytecode verifier rejected a compiled chunk: {e}");
    }
    bytecode
}

impl ScriptCache {
    /// Creates an empty cache.
    pub fn new() -> ScriptCache {
        ScriptCache::default()
    }

    /// Returns the compiled program for `src`, lexing and parsing it only
    /// if this exact body has never been seen by this cache. Never
    /// compiles bytecode — this is the triage/analysis path.
    pub fn get_or_parse(&self, src: &str) -> Result<Arc<Program>, ParseError> {
        self.lookup(src).program.clone()
    }

    /// Returns the full execution unit (parsed program + bytecode) for
    /// `src`. Parses and bytecode-compiles each at most once per unique
    /// body, so the `parses` and `compiles` counters stay deterministic
    /// across worker counts and schedules.
    pub fn get_or_compile(&self, src: &str) -> Result<ExecutableScript, ParseError> {
        let parsed = self.lookup(src);
        let program = parsed.program.clone()?;
        let bytecode = Arc::clone(parsed.bytecode.get_or_init(|| {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            Arc::new(compile_checked(&program))
        }));
        Ok(ExecutableScript { program, bytecode })
    }

    /// The shared lookup path: the body's entry, parsed on first sight.
    fn lookup(&self, src: &str) -> Arc<Parsed> {
        let (parsed, parsed_now) = self.bodies.get_or_init(source_hash(src), src, "", || {
            Arc::new(Parsed {
                program: parse(src).map(Arc::new),
                bytecode: OnceLock::new(),
            })
        });
        let counter = if parsed_now { &self.parses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        parsed
    }

    /// Number of distinct script bodies currently cached.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> ScriptCacheStats {
        ScriptCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            parses: self.parses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, NullHost};

    #[test]
    fn identical_bodies_parse_once() {
        let cache = ScriptCache::new();
        let src = "let x = 6; x * 7;";
        let a = cache.get_or_parse(src).unwrap();
        let b = cache.get_or_parse(src).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let stats = cache.stats();
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(cache.len(), 1);
        // The shared program still runs.
        let v = run(&a, &mut NullHost).unwrap();
        assert_eq!(v.as_num(), Some(42.0));
    }

    #[test]
    fn distinct_bodies_get_distinct_entries() {
        let cache = ScriptCache::new();
        cache.get_or_parse("1 + 1;").unwrap();
        cache.get_or_parse("2 + 2;").unwrap();
        assert_eq!(cache.stats().parses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn parse_failures_are_cached_and_stable() {
        let cache = ScriptCache::new();
        let bad = "let = ;";
        let e1 = cache.get_or_parse(bad).unwrap_err();
        let e2 = cache.get_or_parse(bad).unwrap_err();
        assert_eq!(e1, e2);
        let stats = cache.stats();
        assert_eq!(stats.parses, 1, "the broken body parses once");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn concurrent_lookups_of_one_body_still_parse_once() {
        let cache = Arc::new(ScriptCache::new());
        let src = "let a = [1, 2, 3]; a.length;";
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..50 {
                        cache.get_or_parse(src).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.hits, 8 * 50 - 1);
    }

    #[test]
    fn hit_rate_reporting() {
        let cache = ScriptCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.get_or_parse("1;").unwrap();
        cache.get_or_parse("1;").unwrap();
        cache.get_or_parse("1;").unwrap();
        cache.get_or_parse("1;").unwrap();
        assert!((cache.stats().hit_rate() - 0.75).abs() < 1e-9);
    }

    /// Seeded LCG sequences of lookups over six bodies: hits and parses
    /// partition the lookups, parses equal distinct bodies, and cached
    /// programs match direct parses.
    #[test]
    fn counters_partition_lookups_seeded() {
        let bodies: Vec<String> = (0..6).map(|i| format!("{i} + {i};")).collect();
        let mut lcg: u64 = 0x2545f4914f6cdd1d;
        for round in 0..4 {
            let cache = ScriptCache::new();
            let mut distinct = std::collections::BTreeSet::new();
            let lookups = 16 + round * 8;
            for _ in 0..lookups {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = (lcg >> 33) as usize % bodies.len();
                let cached = cache.get_or_parse(&bodies[pick]).unwrap();
                let direct = parse(&bodies[pick]).unwrap();
                assert_eq!(*cached, direct, "cache must be transparent");
                distinct.insert(pick);
            }
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.parses, lookups as u64);
            assert_eq!(stats.parses, distinct.len() as u64);
            assert_eq!(cache.len(), distinct.len());
        }
    }

    /// Two different bodies filed under one hash (a forced 64-bit
    /// collision) get two cells and two computes, and neither sees the
    /// other's value; so do two tags of one body.
    #[test]
    fn colliding_bodies_and_tags_get_their_own_cells() {
        let map: BodyMap<String> = BodyMap::default();
        let computes = AtomicU64::new(0);
        let lookup = |body: &str, tag: &str| {
            map.get_or_init(7, body, tag, || {
                computes.fetch_add(1, Ordering::Relaxed);
                format!("{body}/{tag}")
            })
        };
        assert_eq!(lookup("a;", ""), ("a;/".to_string(), true));
        assert_eq!(lookup("b;", ""), ("b;/".to_string(), true));
        assert_eq!(lookup("a;", "m1"), ("a;/m1".to_string(), true));
        assert_eq!(lookup("b;", ""), ("b;/".to_string(), false));
        assert_eq!(lookup("a;", ""), ("a;/".to_string(), false));
        assert_eq!(map.len(), 3);
        assert_eq!(computes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn source_hash_is_fnv1a() {
        // Spot-check against the FNV-1a reference value for "a".
        assert_eq!(source_hash(""), 0xcbf29ce484222325);
        assert_ne!(source_hash("a"), source_hash("b"));
    }
}
