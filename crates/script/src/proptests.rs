//! Property tests for canvascript: a randomized expression generator with
//! a Rust reference evaluator, totality checks on the front end, and the
//! differential suite that locks the bytecode VM to the tree-walking
//! oracle (identical results, host-effect sequences, step counts, and
//! fuel-exhaustion outcomes — including exhaustion mid-loop and
//! mid-call). Each property is a seeded LCG loop, so a failure replays
//! exactly from its case number, and each asserts that its generator
//! reached the shapes the property can break on.

#![cfg(test)]

use crate::cache::ScriptCache;
use crate::interp::eval;
use crate::value::{Host, HostRef, NullHost, RuntimeError, Value};

/// Cases per property.
const CASES: u64 = 256;

/// A random arithmetic expression together with its expected value,
/// generated structurally so the Rust reference and the canvascript
/// source agree by construction.
#[derive(Debug, Clone)]
struct ArithExpr {
    source: String,
    expected: f64,
    depth: usize,
}

impl Lcg {
    /// The generator for one case of one property.
    fn case(property: u64, case: u64) -> Lcg {
        Lcg(((property << 32) | case) ^ 0x9e3779b97f4a7c15)
    }

    /// An integer in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.pick((hi - lo) as u64) as i64
    }

    /// `lo..=hi` characters from `alphabet`.
    fn word(&mut self, alphabet: &[u8], lo: usize, hi: usize) -> String {
        let len = lo + self.pick((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| alphabet[self.pick(alphabet.len() as u64) as usize] as char)
            .collect()
    }

    /// A `+`/`-`/`*` tree over leaves in `-50..50` (small integers keep
    /// the f64 arithmetic exact), up to `depth` operators deep; each level
    /// stops at a leaf with probability 1/3.
    fn arith(&mut self, depth: usize) -> ArithExpr {
        if depth == 0 || self.pick(3) == 0 {
            let n = self.range(-50, 50);
            return ArithExpr {
                source: if n < 0 {
                    format!("(0 - {})", -n)
                } else {
                    n.to_string()
                },
                expected: n as f64,
                depth: 0,
            };
        }
        let (a, b) = (self.arith(depth - 1), self.arith(depth - 1));
        let (op, expected) = match self.pick(3) {
            0 => ("+", a.expected + b.expected),
            1 => ("-", a.expected - b.expected),
            _ => ("*", a.expected * b.expected),
        };
        ArithExpr {
            source: format!("({} {op} {})", a.source, b.source),
            expected,
            depth: 1 + a.depth.max(b.depth),
        }
    }

    /// Up to 200 characters of source: in even cases printable ASCII and
    /// newlines (`[ -~\n]{0,200}`), which almost never parses; in odd
    /// cases a generated program with up to three characters replaced,
    /// inserted or deleted, which often still parses and runs.
    fn source(&mut self, case: u64) -> String {
        const PRINTABLE: &[u8] =
            b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\n";
        if case & 1 == 0 {
            return self.word(PRINTABLE, 0, 200);
        }
        let mut src: Vec<u8> = ProgramGen::new(self.next()).program().into_bytes();
        src.truncate(200);
        for _ in 0..self.pick(4) {
            let at = self.pick(src.len() as u64 + 1) as usize;
            let byte = PRINTABLE[self.pick(PRINTABLE.len() as u64) as usize];
            match self.pick(3) {
                0 if at < src.len() => src[at] = byte,
                1 if at < src.len() => {
                    src.remove(at);
                }
                _ => src.insert(at, byte),
            }
        }
        String::from_utf8(src).expect("ASCII source")
    }
}

/// The interpreter agrees with a structurally generated reference on
/// integer arithmetic, also through a variable, and the bytecode VM
/// agrees with it at the full budget and at starving ones.
#[test]
fn arithmetic_matches_reference() {
    let mut deepest = 0;
    for case in 0..CASES {
        let expr = Lcg::case(1, case).arith(4);
        let v = eval(&format!("{};", expr.source), &mut NullHost).unwrap();
        assert_eq!(
            v.as_num(),
            Some(expr.expected),
            "case {case}: {}",
            expr.source
        );
        let src = format!("let tmp = {}; tmp;", expr.source);
        let v = eval(&src, &mut NullHost).unwrap();
        assert_eq!(v.as_num(), Some(expr.expected), "case {case}: {src}");
        differential(&format!("{};", expr.source), &[u64::MAX, 5, 1]);
        deepest = deepest.max(expr.depth);
    }
    assert_eq!(deepest, 4, "no case nests four operators deep");
}

/// Comparison operators agree with Rust on integer pairs.
#[test]
fn comparisons_match() {
    let (mut less, mut equal, mut greater) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(2, case);
        let a = rng.range(-100, 100);
        // A quarter of the pairs sit on or next to the diagonal, where
        // the strict and non-strict operators differ.
        let b = match rng.pick(4) {
            0 => a + rng.range(-1, 2),
            _ => rng.range(-100, 100),
        };
        let check = |op: &str, expected: bool| {
            let v = eval(&format!("{a} {op} {b};"), &mut NullHost).unwrap();
            assert_eq!(v.truthy(), expected, "case {case}: {a} {op} {b}");
        };
        check("<", a < b);
        check("<=", a <= b);
        check(">", a > b);
        check(">=", a >= b);
        check("==", a == b);
        check("!=", a != b);
        match a.cmp(&b) {
            std::cmp::Ordering::Less => less += 1,
            std::cmp::Ordering::Equal => equal += 1,
            std::cmp::Ordering::Greater => greater += 1,
        }
    }
    assert!(
        less > 0 && equal > 0 && greater > 0,
        "{less} / {equal} / {greater}"
    );
}

/// Loops that count to n actually count to n, for every n in `0..200`.
#[test]
fn counting_loops() {
    for n in 0..200u32 {
        let src = format!(
            "let total = 0; for (let i = 0; i < {n}; i = i + 1) {{ total = total + 1; }} total;"
        );
        let v = eval(&src, &mut NullHost).unwrap();
        assert_eq!(v.as_num(), Some(n as f64), "{src}");
    }
}

/// String concatenation through the interpreter matches Rust.
#[test]
fn string_concat_matches() {
    let mut empty = (0, 0);
    for case in 0..CASES {
        let mut rng = Lcg::case(3, case);
        let a = rng.word(b"abcdefghijklmnopqrstuvwxyz", 0, 10);
        let b = rng.word(b"0123456789", 0, 10);
        let src = format!("\"{a}\" + \"{b}\";");
        match eval(&src, &mut NullHost).unwrap() {
            Value::Str(s) => assert_eq!(s, format!("{a}{b}"), "case {case}"),
            other => panic!("case {case}: expected string, got {other:?}"),
        }
        empty.0 += usize::from(a.is_empty());
        empty.1 += usize::from(b.is_empty());
    }
    assert!(empty.0 > 0 && empty.1 > 0, "empty operands: {empty:?}");
}

/// The compile cache is transparent: for generated source, one cache's
/// `get_or_parse` (cold and warm) agrees exactly with a direct parse —
/// same Program, same error — and the lexer and parser never panic.
#[test]
fn cache_agrees_with_direct_parse() {
    let cache = ScriptCache::new();
    let mut bodies = std::collections::BTreeSet::new();
    let mut parsed = 0;
    for case in 0..CASES {
        let src = Lcg::case(4, case).source(case);
        let direct = crate::parser::parse(&src);
        let cold = cache.get_or_parse(&src).map(|p| (*p).clone());
        let warm = cache.get_or_parse(&src).map(|p| (*p).clone());
        assert_eq!(cold, direct, "case {case}: {src:?}");
        assert_eq!(warm, direct, "case {case}: {src:?}");
        parsed += usize::from(direct.is_ok());
        bodies.insert(src);
    }
    let stats = cache.stats();
    assert_eq!(stats.parses, bodies.len() as u64);
    assert_eq!(stats.lookups(), 2 * CASES);
    assert_eq!(cache.len(), bodies.len());
    assert!(
        parsed > 16 && parsed < CASES as usize - 16,
        "{parsed} of {CASES} cases parse"
    );
}

/// Array push/index round-trips arbitrary integer sequences.
#[test]
fn array_roundtrip() {
    let mut empty = 0;
    for case in 0..CASES {
        let mut rng = Lcg::case(5, case);
        let items: Vec<i64> = (0..rng.pick(12)).map(|_| rng.range(-1000, 1000)).collect();
        let mut src = String::from("let a = [];");
        for item in &items {
            src.push_str(&format!(" a.push({item});"));
        }
        src.push_str(" a.join(\",\");");
        let v = eval(&src, &mut NullHost).unwrap();
        let expected = items
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(v.to_display_string(), expected, "case {case}");
        empty += usize::from(items.is_empty());
    }
    assert!(empty > 0, "no case builds an empty array");
}

/// Differential property over generated source: the engines agree even
/// on junk (parse failures short-circuit identically) and on programs
/// a few characters away from valid ones.
#[test]
fn vm_matches_tree_walker_on_arbitrary_source() {
    let mut ran = 0;
    for case in 0..CASES {
        let src = Lcg::case(6, case).source(case);
        if differential(&src, &[1000]) > 0 {
            ran += 1;
        }
    }
    assert!(ran > 16, "only {ran} of {CASES} cases executed a step");
}

// ---------------------------------------------------------------------------
// Differential engine suite (tree-walker oracle vs bytecode VM).
//
// Randomly generated programs are run through both engines with the
// same deterministic recording host and the same budget, and must
// produce identical results, identical host-effect sequences, and
// identical step/fuel-exhaustion outcomes at every budget — including
// budgets that starve the script mid-loop and mid-call.
// ---------------------------------------------------------------------------

/// A deterministic host that logs every interaction. Two identically
/// seeded instances fed the same call sequence return the same values,
/// so engine divergence shows up as a log or result mismatch.
#[derive(Default)]
struct RecordingHost {
    log: Vec<String>,
    seq: u64,
}

impl Host for RecordingHost {
    fn global(&mut self, name: &str) -> Option<Value> {
        self.log.push(format!("global:{name}"));
        match name {
            "answer" => Some(Value::Num(42.0)),
            "tag" => Some(Value::Str("fp".into())),
            "hobj" => Some(Value::Host(1)),
            _ => None,
        }
    }

    fn get_prop(&mut self, obj: HostRef, name: &str) -> Result<Value, RuntimeError> {
        self.log.push(format!("get:#{obj}.{name}"));
        self.seq += 1;
        Ok(match self.seq % 3 {
            0 => Value::Num((obj + self.seq) as f64),
            1 => Value::Str(format!("p{}", self.seq)),
            _ => Value::Host(obj + 1),
        })
    }

    fn set_prop(&mut self, obj: HostRef, name: &str, value: Value) -> Result<(), RuntimeError> {
        self.log
            .push(format!("set:#{obj}.{name}={}", value.to_display_string()));
        if name == "frozen" {
            return Err(RuntimeError::new("host property frozen is read-only"));
        }
        Ok(())
    }

    fn call_method(
        &mut self,
        obj: HostRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let rendered: Vec<String> = args.iter().map(Value::to_display_string).collect();
        self.log
            .push(format!("call:#{obj}.{method}({})", rendered.join(",")));
        if method == "boom" {
            return Err(RuntimeError::new("host method boom failed"));
        }
        self.seq += 1;
        Ok(match self.seq % 4 {
            0 => Value::Num(self.seq as f64),
            1 => Value::Str(format!("m{}", self.seq)),
            2 => Value::Host(obj + 10),
            _ => Value::array(vec![Value::Num(self.seq as f64), Value::Str("x".into())]),
        })
    }
}

/// Depth-capped value rendering for comparisons (plain `Debug` could
/// recurse forever on self-referential arrays a generated script can
/// build with `a.push(a)`).
fn render(v: &Value, depth: usize) -> String {
    match v {
        Value::Array(items) if depth == 0 => format!("Array(len={})", items.borrow().len()),
        Value::Array(items) => {
            let inner: Vec<String> = items
                .borrow()
                .iter()
                .map(|x| render(x, depth - 1))
                .collect();
            format!("Array[{}]", inner.join(","))
        }
        Value::Num(n) => format!("Num({n})"),
        Value::Str(s) => format!("Str({s:?})"),
        Value::Bool(b) => format!("Bool({b})"),
        Value::Null => "Null".into(),
        Value::Host(h) => format!("Host({h})"),
    }
}

fn render_outcome(out: &crate::EvalOutcome) -> String {
    match &out.result {
        Ok(v) => format!("ok:{} steps:{}", render(v, 6), out.steps),
        Err(e) => format!("err:{} steps:{}", e.message, out.steps),
    }
}

/// Runs `src` through both engines at each budget and asserts identical
/// outcomes, step counts, and host-effect logs. Returns the full-budget
/// step count of the (agreed) run when the program executed.
fn differential(src: &str, budgets: &[u64]) -> u64 {
    let parsed = crate::parser::parse(src);
    let compiled = parsed.as_ref().ok().map(crate::compile::compile);
    let mut max_steps = 0;
    for &budget in budgets {
        let mut tw_host = RecordingHost::default();
        let mut vm_host = RecordingHost::default();
        let (tw, vm) = match (&parsed, &compiled) {
            (Ok(program), Some(code)) => (
                crate::run_with_budget(program, &mut tw_host, budget),
                crate::run_compiled_with_budget(code, &mut vm_host, budget),
            ),
            _ => (
                crate::eval_with_budget(src, &mut tw_host, budget),
                crate::eval_compiled_with_budget(src, &mut vm_host, budget),
            ),
        };
        assert_eq!(
            render_outcome(&tw),
            render_outcome(&vm),
            "engine outcome divergence at budget {budget} for:\n{src}"
        );
        assert_eq!(
            tw_host.log, vm_host.log,
            "host-effect divergence at budget {budget} for:\n{src}"
        );
        max_steps = max_steps.max(tw.steps);
    }
    max_steps
}

/// Generous-but-bounded probe budget for measuring a program's full step
/// count. A hard cap (rather than `u64::MAX`) keeps accidentally
/// non-terminating generated programs finite — exhaustion outcomes are
/// themselves compared, so capped runs still test parity.
const PROBE_BUDGET: u64 = 20_000;

/// Exhaustive budget sweep: every budget from 0 past the program's full
/// step count. Catches any instruction whose fuel attribution lands one
/// tick away from the tree-walker's.
fn differential_all_budgets(src: &str) {
    let full = differential(src, &[PROBE_BUDGET]);
    assert!(full < 3000, "sweep programs must stay small ({full} steps)");
    let budgets: Vec<u64> = (0..=full + 2).collect();
    differential(src, &budgets);
}

/// Small deterministic LCG (same constants as the crate's other seeded
/// tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Random-program generator: emits syntactically valid canvascript
/// exercising every construct both engines implement — scopes and
/// shadowing, loops with break/continue, user functions (recursion
/// included), builtins, string/array methods, host globals, property
/// reads/writes, host method calls, all assignment target kinds, and
/// deliberately out-of-scope names (runtime errors must match too).
struct ProgramGen {
    lcg: Lcg,
    vars: Vec<String>,
    fns: Vec<(String, usize)>,
    in_loop: bool,
    next_id: usize,
}

impl ProgramGen {
    fn new(seed: u64) -> ProgramGen {
        ProgramGen {
            lcg: Lcg(seed ^ 0x9e3779b97f4a7c15),
            vars: Vec::new(),
            fns: Vec::new(),
            in_loop: false,
            next_id: 0,
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    fn var(&mut self) -> String {
        if self.vars.is_empty() || self.lcg.pick(12) == 0 {
            // Occasionally reference a name that may not exist: the
            // undefined-variable error path must match across engines.
            "mystery".to_string()
        } else {
            let i = self.lcg.pick(self.vars.len() as u64) as usize;
            self.vars[i].clone()
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        let atom = depth == 0 || self.lcg.pick(3) == 0;
        if atom {
            match self.lcg.pick(9) {
                0 => format!("{}", self.lcg.pick(20)),
                1 => format!("\"s{}\"", self.lcg.pick(5)),
                2 => "true".into(),
                3 => "false".into(),
                4 => "null".into(),
                5 => "answer".into(),
                6 => "tag".into(),
                7 => "hobj".into(),
                _ => self.var(),
            }
        } else {
            match self.lcg.pick(14) {
                0 => {
                    let op = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="]
                        [self.lcg.pick(11) as usize];
                    format!("({} {} {})", self.expr(depth - 1), op, self.expr(depth - 1))
                }
                1 => {
                    let op = ["&&", "||"][self.lcg.pick(2) as usize];
                    format!("({} {} {})", self.expr(depth - 1), op, self.expr(depth - 1))
                }
                2 => format!("(-{})", self.expr(depth - 1)),
                3 => format!("(!{})", self.expr(depth - 1)),
                4 => format!("[{}, {}]", self.expr(depth - 1), self.expr(depth - 1)),
                5 => format!("{}[{}]", self.var(), self.expr(depth - 1)),
                6 => {
                    let b = ["len", "str", "floor", "abs", "max", "fromCharCode"]
                        [self.lcg.pick(6) as usize];
                    match b {
                        "max" => format!("max({}, {})", self.expr(depth - 1), self.expr(depth - 1)),
                        "fromCharCode" => {
                            format!("fromCharCode((65 + ({} % 26)))", self.lcg.pick(100))
                        }
                        _ => format!("{b}({})", self.expr(depth - 1)),
                    }
                }
                7 => match self.fns.len() {
                    0 => self.expr(depth - 1),
                    n => {
                        let (name, arity) = self.fns[self.lcg.pick(n as u64) as usize].clone();
                        let args: Vec<String> = (0..arity).map(|_| self.expr(depth - 1)).collect();
                        format!("{name}({})", args.join(", "))
                    }
                },
                8 => {
                    let m = ["push", "join", "indexOf", "pop"][self.lcg.pick(4) as usize];
                    // `push` takes a numeric literal so generated arrays can
                    // never become self-referential (cyclic arrays would hang
                    // display rendering in both engines alike).
                    if m == "push" {
                        format!("{}.push({})", self.var(), self.lcg.pick(50))
                    } else {
                        format!("{}.{m}({})", self.var(), self.expr(depth - 1))
                    }
                }
                9 => {
                    let m = [
                        "charCodeAt",
                        "substring",
                        "toUpperCase",
                        "indexOf",
                        "includes",
                    ][self.lcg.pick(5) as usize];
                    match m {
                        "toUpperCase" => format!("\"ab{}\".toUpperCase()", self.lcg.pick(5)),
                        "indexOf" | "includes" => {
                            format!("\"abcab{}\".{m}(\"b\")", self.lcg.pick(3))
                        }
                        _ => format!("\"abcdef\".{m}({})", self.lcg.pick(8)),
                    }
                }
                10 => format!("hobj.p{}", self.lcg.pick(4)),
                11 => format!("hobj.m{}({})", self.lcg.pick(3), self.expr(depth - 1)),
                12 => {
                    let target = self.var();
                    format!("({target} = {})", self.expr(depth - 1))
                }
                _ => match self.lcg.pick(3) {
                    0 => format!("(hobj.p{} = {})", self.lcg.pick(4), self.expr(depth - 1)),
                    // Index writes store numeric literals only — an array
                    // stored into itself would be cyclic (see `push` above).
                    1 => format!(
                        "({}[{}] = {})",
                        self.var(),
                        self.lcg.pick(4),
                        self.lcg.pick(50)
                    ),
                    _ => format!(
                        "hobj.child().m{}({})",
                        self.lcg.pick(3),
                        self.expr(depth - 1)
                    ),
                },
            }
        }
    }

    fn stmts(&mut self, count: usize, depth: usize, out: &mut String) {
        for _ in 0..count {
            self.stmt(depth, out);
        }
    }

    fn stmt(&mut self, depth: usize, out: &mut String) {
        let choice = if depth == 0 {
            self.lcg.pick(3)
        } else {
            self.lcg.pick(10)
        };
        match choice {
            0 => {
                let name = if !self.vars.is_empty() && self.lcg.pick(5) == 0 {
                    self.var() // re-let: shadowing must match
                } else {
                    self.fresh("v")
                };
                let e = self.expr(2);
                out.push_str(&format!("let {name} = {e};\n"));
                self.vars.push(name);
            }
            1 => out.push_str(&format!("{};\n", self.expr(2))),
            2 => {
                let target = self.var();
                out.push_str(&format!("{target} = {};\n", self.expr(2)));
            }
            3 => {
                let saved = self.vars.len();
                out.push_str(&format!("if ({}) {{\n", self.expr(2)));
                let n_then = 1 + self.lcg.pick(2) as usize;
                self.stmts(n_then, depth - 1, out);
                self.vars.truncate(saved);
                if self.lcg.pick(2) == 0 {
                    out.push_str("} else {\n");
                    let n_else = self.lcg.pick(2) as usize;
                    self.stmts(n_else, depth - 1, out);
                    self.vars.truncate(saved);
                }
                out.push_str("}\n");
            }
            4 => {
                let i = self.fresh("i");
                let bound = self.lcg.pick(5);
                out.push_str(&format!(
                    "for (let {i} = 0; {i} < {bound}; {i} = {i} + 1) {{\n"
                ));
                let saved = self.vars.len();
                self.vars.push(i);
                let was = std::mem::replace(&mut self.in_loop, true);
                let n_body = 1 + self.lcg.pick(2) as usize;
                self.stmts(n_body, depth - 1, out);
                self.in_loop = was;
                self.vars.truncate(saved);
                out.push_str("}\n");
            }
            5 => {
                let w = self.fresh("w");
                let bound = self.lcg.pick(5);
                out.push_str(&format!(
                    "let {w} = 0;\nwhile ({w} < {bound}) {{\n{w} = {w} + 1;\n"
                ));
                self.vars.push(w);
                let saved = self.vars.len();
                let was = std::mem::replace(&mut self.in_loop, true);
                let n_body = 1 + self.lcg.pick(2) as usize;
                self.stmts(n_body, depth - 1, out);
                self.in_loop = was;
                self.vars.truncate(saved);
                out.push_str("}\n");
            }
            6 if self.in_loop => {
                // Guarded so loops still make progress before exiting.
                let kw = ["break", "continue"][self.lcg.pick(2) as usize];
                out.push_str(&format!("if ({}) {{ {kw}; }}\n", self.expr(1)));
            }
            6 => {
                // Outside a loop: the "break/continue outside loop"
                // error path, behind a rarely-true guard.
                out.push_str("if (answer < 3) { break; }\n");
            }
            7 => {
                let a = self.fresh("a");
                out.push_str(&format!(
                    "let {a} = [{}, {}];\n",
                    self.lcg.pick(9),
                    self.expr(1)
                ));
                self.vars.push(a.clone());
                out.push_str(&format!("{a}.push({});\n", self.lcg.pick(50)));
            }
            8 => out.push_str(&format!("hobj.m{}({});\n", self.lcg.pick(3), self.expr(2))),
            _ => {
                if self.lcg.pick(4) == 0 {
                    out.push_str(&format!(
                        "if ({}) {{ return {}; }}\n",
                        self.expr(1),
                        self.expr(1)
                    ));
                } else {
                    out.push_str(&format!("{};\n", self.expr(2)));
                }
            }
        }
    }

    fn gen_fn(&mut self, out: &mut String) {
        let name = self.fresh("f");
        let arity = self.lcg.pick(3) as usize;
        let params: Vec<String> = (0..arity).map(|_| self.fresh("p")).collect();
        // The body sees params (plus globals declared so far); it may
        // call previously declared functions or itself (recursion depth
        // and budget limits must then agree across engines).
        self.fns.push((name.clone(), arity));
        let saved_vars = std::mem::replace(&mut self.vars, params.clone());
        let was = std::mem::replace(&mut self.in_loop, false);
        out.push_str(&format!("fn {name}({}) {{\n", params.join(", ")));
        let mut body = String::new();
        let n_body = 1 + self.lcg.pick(3) as usize;
        self.stmts(n_body, 1, &mut body);
        body.push_str(&format!("return {};\n", self.expr(1)));
        out.push_str(&body);
        out.push_str("}\n");
        self.in_loop = was;
        self.vars = saved_vars;
    }

    fn program(&mut self) -> String {
        let mut out = String::new();
        for _ in 0..self.lcg.pick(3) {
            self.gen_fn(&mut out);
        }
        let n_top = 3 + self.lcg.pick(6) as usize;
        self.stmts(n_top, 2, &mut out);
        // End on an expression so the program-result register is
        // exercised too.
        let e = self.expr(2);
        out.push_str(&format!("{e};\n"));
        out
    }
}

/// Seeded-LCG differential sweep: hundreds of random programs, each run
/// through both engines at the full budget plus budgets chosen to starve
/// it at arbitrary interior points.
#[test]
fn seeded_random_programs_agree_across_engines() {
    for seed in 0..400u64 {
        let src = ProgramGen::new(seed).program();
        // Generated programs can loop forever (a random assignment can
        // reset a loop counter), so the full-run probe is budget-capped;
        // both engines then agree on the exhaustion outcome instead.
        let full = differential(&src, &[PROBE_BUDGET]);
        let mut budgets = vec![full, full.saturating_sub(1), full / 2, full / 3, 1, 2, 0];
        let mut lcg = Lcg(seed.wrapping_add(77));
        for _ in 0..4 {
            budgets.push(lcg.pick(full.max(1)));
        }
        budgets.sort_unstable();
        budgets.dedup();
        differential(&src, &budgets);
    }
}

/// The verifier accepts every chunk the compiler emits across the same
/// 400-seed generator corpus the differential suite uses, and its stats
/// cover every instruction of every chunk.
#[test]
fn verifier_accepts_every_generated_chunk() {
    for seed in 0..400u64 {
        let src = ProgramGen::new(seed).program();
        let program = crate::parse(&src).expect("generator output parses");
        let compiled = crate::compile::compile(&program);
        let stats = crate::verify::verify(&compiled).unwrap_or_else(|e| {
            panic!("seed {seed}: verifier rejected compiled chunk: {e}\n{src}")
        });
        assert_eq!(stats.insns, compiled.instruction_count());
        assert_eq!(stats.chunks, 1 + compiled.fns.len());
    }
}

/// Exhaustion mid-loop: every budget value across a while and a for
/// loop, so the per-iteration tick and loop-head fuel attribution are
/// pinned exactly.
#[test]
fn exhaustion_mid_loop_is_identical() {
    differential_all_budgets("let i = 0; while (i < 9) { i = i + 1; hobj.tickle(i); } i;");
    differential_all_budgets("let s = 0; for (let i = 0; i < 7; i = i + 1) { s = s + i; } s;");
    differential_all_budgets(
        "let t = 0; for (let i = 0; i < 5; i = i + 1) { if (i == 3) { break; } if (i == 1) { continue; } t = t + i; } t;",
    );
    differential_all_budgets("let n = 0; while (true) { n = n + 1; if (n > 6) { break; } } n;");
}

/// Exhaustion mid-call: every budget through recursive and host-effecting
/// calls, so call-frame fuel (args, body statements, returns) matches.
#[test]
fn exhaustion_mid_call_is_identical() {
    differential_all_budgets(
        "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } fib(7);",
    );
    differential_all_budgets(
        "fn poke(n) { hobj.poke(n); if (n > 0) { return poke(n - 1); } return 0; } poke(4);",
    );
    differential_all_budgets(
        "let g = 0; fn bump() { g = g + 1; return g; } bump(); bump() + bump();",
    );
}

/// Host-effect sequences agree at every cut point: a chain of host calls
/// with exhaustion landing between each pair.
#[test]
fn host_effect_sequences_agree_under_starvation() {
    differential_all_budgets(
        "hobj.a(1); hobj.b(tag); let x = hobj.p1; hobj.c(x); hobj.p2 = answer; hobj.d(hobj.p3);",
    );
    // Host errors must surface identically too.
    differential_all_budgets("hobj.a(1); hobj.boom(); hobj.never(1);");
    differential_all_budgets("hobj.frozen = 3;");
}

/// Engine parity on the language corner cases the compiler handles
/// specially (value-mode branches, short-circuit results, top-level
/// return, implicit globals, builtin shadowing, nested fn declarations).
#[test]
fn engine_parity_corner_cases() {
    for src in [
        // Top-level `last` value flows through if-branches and loops.
        "if (true) { 5; } else { 6; }",
        "if (false) { 5; } else { 6; }",
        "if (true) { } else { 6; }",
        "if (true) { let q = 1; }",
        "while (false) { 1; }",
        "9; if (true) { if (false) { 1; } else { } }",
        // Short-circuit returns the deciding operand itself.
        "0 && boomless;",
        "\"\" || 7;",
        "3 && 0;",
        "null || \"\";",
        // Top-level return ends the program.
        "1; return 42; 3;",
        "return;",
        // Implicit global creation, cross-scope assignment.
        "fn set() { ghost = 9; } set(); ghost;",
        "let x = 1; if (true) { x = 2; let x = 3; x = 4; } x;",
        // Builtins shadow user functions of the same name.
        "fn len(q) { return 99; } len(\"abc\");",
        // Function declarations are hoisted at top level only.
        "early(); fn early() { return 11; }",
        "fn outer() { fn inner() { return 5; } return inner(); } outer();",
        // Redeclared function: later declaration wins (dynamically).
        "fn f() { return 1; } fn f() { return 2; } f();",
        // Assignment is an expression; index/member writes evaluate
        // value before target.
        "let a = [0]; let b = (a[2] = 8); b + len(a);",
        "let c = (hobj.w = 5); c;",
        // Params shadow globals; extra args dropped; missing -> null.
        "let p1 = 7; fn id(p1) { return p1; } id(3) + p1;",
        "fn two(x, y) { return str(x) + str(y); } two(1); two(1, 2); two(1, 2, 3);",
        // Deep recursion trips the shared call-depth limit.
        "fn f(n) { return f(n + 1); } f(0);",
        // break/continue outside any loop is a runtime error.
        "break;",
        "continue;",
        "fn g() { break; } g();",
        // String/array/host member errors.
        "\"abc\".length;",
        "[1,2,3].length;",
        "(5).length;",
        "null[0];",
        "5();",
    ] {
        differential_all_budgets(src);
    }
}

/// Compilation is deterministic and the disassembler round-trips every
/// op without panicking.
#[test]
fn compile_is_deterministic_and_disassembles() {
    let src = ProgramGen::new(7).program();
    let program = crate::parser::parse(&src).unwrap();
    let a = crate::compile::compile(&program);
    let b = crate::compile::compile(&program);
    assert_eq!(a, b, "same AST must compile to identical bytecode");
    let dis = crate::disassemble(&a);
    assert!(dis.contains("== main (slots: "));
    assert!(dis.ends_with('\n'));
    assert!(a.instruction_count() > 0);
}

/// The cached execution unit is transparent: cache-compiled bytecode
/// behaves exactly like direct compilation, and the compiles counter
/// tracks unique executed bodies (parse-only lookups never compile).
#[test]
fn cache_bytecode_is_transparent_and_counted() {
    let cache = ScriptCache::new();
    let src = "let x = 6; x * 7;";
    // Triage first: parse-only, no compile.
    cache.get_or_parse(src).unwrap();
    assert_eq!(cache.stats().parses, 1);
    assert_eq!(cache.stats().compiles, 0, "triage must not compile");
    // Execution path compiles once, then hits.
    let exec1 = cache.get_or_compile(src).unwrap();
    let exec2 = cache.get_or_compile(src).unwrap();
    assert!(std::sync::Arc::ptr_eq(&exec1.bytecode, &exec2.bytecode));
    assert!(std::sync::Arc::ptr_eq(&exec1.program, &exec2.program));
    let stats = cache.stats();
    assert_eq!(stats.parses, 1, "execution reuses the triage parse");
    assert_eq!(stats.compiles, 1);
    assert_eq!(stats.hits, 2);
    let direct = crate::compile::compile(&crate::parser::parse(src).unwrap());
    assert_eq!(*exec1.bytecode, direct);
    let mut host = NullHost;
    let out = crate::run_compiled_with_budget(&exec1.bytecode, &mut host, 1000);
    assert_eq!(out.result.unwrap().as_num(), Some(42.0));
}
