//! Shared compiled-script cache.
//!
//! A crawl visits tens of thousands of pages that overwhelmingly serve the
//! *same* handful of vendor fingerprinting scripts (the paper attributes
//! most canvases to ~13 vendors, §4.3). Re-lexing and re-parsing an
//! identical body on every visit is pure waste: a [`ScriptCache`] keys
//! compiled [`Program`]s by a 64-bit content hash of the source text and
//! shares them across crawl workers behind an `Arc`, so each unique script
//! body is lexed and parsed **exactly once per crawl**.
//!
//! Design points:
//!
//! * **Lock-sharded** — the map is split across [`SHARDS`] independent
//!   mutexes selected by the content hash, so workers compiling different
//!   scripts never contend on one lock.
//! * **Parse-under-lock** — a miss parses while holding its shard lock.
//!   This serializes compilation of *the same* script (another worker
//!   asking for the same body blocks and then hits), which is what makes
//!   the "exactly once" guarantee hold and keeps the cache's parse count
//!   deterministic across worker counts and schedules.
//! * **Collision-proof** — entries store the full source text and verify
//!   it on lookup; a 64-bit hash collision degrades to a second cache
//!   entry, never to running the wrong program.
//! * **Failures cached too** — a body that fails to parse fails
//!   identically on every site that serves it; the [`ParseError`] is
//!   cached so broken scripts also cost one parse attempt per crawl.
//! * **Bytecode rides along** — execution paths ask for
//!   [`ScriptCache::get_or_compile`], which lazily lowers the parsed
//!   program to VM bytecode (once per body, under the same shard lock)
//!   and returns both halves as an [`ExecutableScript`]. Parse-only
//!   consumers (static analysis triage) keep using
//!   [`ScriptCache::get_or_parse`] and never pay for compilation;
//!   the separate `compiles` counter in [`ScriptCacheStats`] keeps the
//!   two workloads distinguishable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::ast::Program;
use crate::bytecode::CompiledProgram;
use crate::parser::{parse, ParseError};

/// Number of independently locked shards. A small power of two is plenty:
/// the hot set is a dozen vendor scripts, and the goal is only to keep
/// unrelated compilations from serializing.
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

/// One cached compilation: the verified source text plus the outcome.
/// Bytecode is compiled lazily — triage paths ([`crate::parse`]-only
/// consumers like the static analyzer) never pay for it, and execution
/// paths compile it at most once per unique body (compile-under-lock,
/// like parsing).
struct CacheEntry {
    source: String,
    compiled: Result<Arc<Program>, ParseError>,
    bytecode: Option<Arc<CompiledProgram>>,
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
/// parse-under-lock note in the module docs).
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
pub struct ScriptCache {
    shards: Vec<Mutex<HashMap<u64, Vec<CacheEntry>>>>,
    hits: AtomicU64,
    parses: AtomicU64,
    compiles: AtomicU64,
}

impl Default for ScriptCache {
    fn default() -> ScriptCache {
        ScriptCache::new()
    }
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
        ScriptCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            parses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
        }
    }

    /// Returns the compiled program for `src`, lexing and parsing it only
    /// if this exact body has never been seen by this cache. Never
    /// compiles bytecode — this is the triage/analysis path.
    pub fn get_or_parse(&self, src: &str) -> Result<Arc<Program>, ParseError> {
        self.lookup(src, false).outcome
    }

    /// Returns the full execution unit (parsed program + bytecode) for
    /// `src`. Parses and bytecode-compiles each at most once per unique
    /// body, both under the shard lock, so the `parses` and `compiles`
    /// counters stay deterministic across worker counts and schedules.
    pub fn get_or_compile(&self, src: &str) -> Result<ExecutableScript, ParseError> {
        let looked = self.lookup(src, true);
        let program = looked.outcome?;
        match looked.bytecode {
            Some(bytecode) => Ok(ExecutableScript { program, bytecode }),
            // Unreachable: lookup(_, true) compiles whenever the parse
            // succeeded. Compile here rather than panic.
            None => Ok(ExecutableScript {
                bytecode: Arc::new(compile_checked(&program)),
                program,
            }),
        }
    }

    /// [`ScriptCache::get_or_parse`] with trace instrumentation: records a
    /// `script.lookup` instant (the content hash — stable across runs) and
    /// bumps the crawl-wide `script.cache.hit` / `script.cache.parse`
    /// counters on the recorder's registry.
    ///
    /// Note the event stream carries only the *lookup*, never whether it
    /// hit: under concurrent workers, which visit pays the parse is a
    /// scheduling accident, so hit/parse attribution lives in the shared
    /// counters (whose totals stay deterministic — parse-under-lock) and
    /// per-visit streams stay schedule-independent.
    pub fn get_or_parse_traced(
        &self,
        src: &str,
        rec: &canvassing_trace::VisitRecorder,
    ) -> Result<Arc<Program>, ParseError> {
        let looked = self.lookup(src, false);
        self.record_lookup(src, &looked, rec);
        looked.outcome
    }

    /// [`ScriptCache::get_or_compile`] with the same trace discipline as
    /// [`ScriptCache::get_or_parse_traced`], plus a
    /// `script.cache.compile` counter bump when this lookup performed the
    /// body's one bytecode compilation. Like hit/parse, compile
    /// attribution lives only in the shared registry counters (whose
    /// totals are schedule-independent), never in per-visit streams.
    pub fn get_or_compile_traced(
        &self,
        src: &str,
        rec: &canvassing_trace::VisitRecorder,
    ) -> Result<ExecutableScript, ParseError> {
        let looked = self.lookup(src, true);
        self.record_lookup(src, &looked, rec);
        let program = looked.outcome?;
        match looked.bytecode {
            Some(bytecode) => Ok(ExecutableScript { program, bytecode }),
            None => Ok(ExecutableScript {
                bytecode: Arc::new(compile_checked(&program)),
                program,
            }),
        }
    }

    fn record_lookup(&self, src: &str, looked: &Looked, rec: &canvassing_trace::VisitRecorder) {
        if !rec.enabled() {
            return;
        }
        rec.instant("script.lookup", || format!("{:016x}", source_hash(src)));
        rec.bump(if looked.was_parse {
            "script.cache.parse"
        } else {
            "script.cache.hit"
        });
        if looked.was_compile {
            rec.bump("script.cache.compile");
        }
    }

    /// The shared lookup path. With `want_bytecode`, ensures the entry
    /// carries compiled bytecode (compiling it now, under the shard lock,
    /// if this is the body's first execution-path lookup).
    fn lookup(&self, src: &str, want_bytecode: bool) -> Looked {
        let hash = source_hash(src);
        let shard = &self.shards[(hash as usize) % SHARDS];
        let mut map = shard.lock().unwrap_or_else(|poison| poison.into_inner());
        let bucket = map.entry(hash).or_default();
        let (entry, was_parse) = match bucket.iter().position(|e| e.source == src) {
            Some(i) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (&mut bucket[i], false)
            }
            None => {
                // Miss: compile while holding the shard lock so
                // concurrent requests for the same body block instead of
                // re-parsing.
                self.parses.fetch_add(1, Ordering::Relaxed);
                let compiled = parse(src).map(Arc::new);
                bucket.push(CacheEntry {
                    source: src.to_string(),
                    compiled,
                    bytecode: None,
                });
                let at = bucket.len() - 1;
                (&mut bucket[at], true)
            }
        };
        let mut was_compile = false;
        if want_bytecode && entry.bytecode.is_none() {
            if let Ok(program) = &entry.compiled {
                // Still under the shard lock: the same once-per-body
                // guarantee (and determinism) as parsing.
                self.compiles.fetch_add(1, Ordering::Relaxed);
                was_compile = true;
                entry.bytecode = Some(Arc::new(compile_checked(program)));
            }
        }
        Looked {
            outcome: entry.compiled.clone(),
            bytecode: entry.bytecode.clone(),
            was_parse,
            was_compile,
        }
    }

    /// Number of distinct script bodies currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
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

/// Result of one [`ScriptCache::lookup`].
struct Looked {
    outcome: Result<Arc<Program>, ParseError>,
    bytecode: Option<Arc<CompiledProgram>>,
    was_parse: bool,
    was_compile: bool,
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

    #[test]
    fn traced_lookup_records_instant_and_counters() {
        use canvassing_trace::{EventKind, MetricsRegistry, VisitRecorder};
        let cache = ScriptCache::new();
        let reg = Arc::new(MetricsRegistry::new());
        let rec = VisitRecorder::new("v", Some(Arc::clone(&reg)));
        let src = "let x = 2; x + 2;";
        let a = cache.get_or_parse_traced(src, &rec).unwrap();
        let b = cache.get_or_parse_traced(src, &rec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["script.cache.parse"], 1);
        assert_eq!(snap.counters["script.cache.hit"], 1);
        let trace = rec.finish().unwrap();
        let lookups: Vec<&String> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Instant { name, detail, .. } if *name == "script.lookup" => Some(detail),
                _ => None,
            })
            .collect();
        assert_eq!(lookups.len(), 2);
        assert_eq!(lookups[0], lookups[1], "same body, same content hash");
        assert_eq!(*lookups[0], format!("{:016x}", source_hash(src)));

        // A disabled recorder records nothing and still shares the entry.
        let off = VisitRecorder::disabled();
        let c = cache.get_or_parse_traced(src, &off).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    /// Seeded exhaustive form of the `traced_counters_partition_lookups`
    /// property (the offline proptest stub compiles but does not sample,
    /// so this pins the invariant with a deterministic LCG-driven
    /// sequence): hit + parse counters partition traced lookups, parses
    /// equal distinct bodies, and cached programs match direct parses.
    #[test]
    fn counters_partition_lookups_seeded() {
        use canvassing_trace::{MetricsRegistry, VisitRecorder};
        let bodies: Vec<String> = (0..6).map(|i| format!("{i} + {i};")).collect();
        let mut lcg: u64 = 0x2545f4914f6cdd1d;
        for round in 0..4 {
            let cache = ScriptCache::new();
            let reg = Arc::new(MetricsRegistry::new());
            let rec = VisitRecorder::new("seeded", Some(Arc::clone(&reg)));
            let mut distinct = std::collections::BTreeSet::new();
            let lookups = 16 + round * 8;
            for _ in 0..lookups {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = (lcg >> 33) as usize % bodies.len();
                let cached = cache.get_or_parse_traced(&bodies[pick], &rec).unwrap();
                let direct = parse(&bodies[pick]).unwrap();
                assert_eq!(*cached, direct, "cache must be transparent");
                distinct.insert(pick);
            }
            let snap = reg.snapshot();
            let hits = snap.counters.get("script.cache.hit").copied().unwrap_or(0);
            let parses = snap
                .counters
                .get("script.cache.parse")
                .copied()
                .unwrap_or(0);
            assert_eq!(hits + parses, lookups as u64);
            assert_eq!(parses, distinct.len() as u64);
            assert_eq!(cache.stats().lookups(), lookups as u64);
        }
    }

    #[test]
    fn source_hash_is_fnv1a() {
        // Spot-check against the FNV-1a reference value for "a".
        assert_eq!(source_hash(""), 0xcbf29ce484222325);
        assert_ne!(source_hash("a"), source_hash("b"));
    }
}
