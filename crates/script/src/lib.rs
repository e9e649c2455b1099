//! # canvassing-script
//!
//! *canvascript*: a small, deterministic scripting language in which this
//! reproduction's fingerprinting and benign scripts are written.
//!
//! The paper studies *scripts* — artifacts with source text, URLs, and
//! observable API behavior. Modeling vendor fingerprinting code as data
//! (source strings served over the simulated network and executed by the
//! simulated browser) rather than hard-coded Rust keeps the whole
//! measurement pipeline honest: script-pattern attribution inspects real
//! URLs, blocklists match real requests, first-party bundling really
//! inlines source text, and the instrumentation records real call
//! arguments.
//!
//! The language is a JavaScript-flavored subset: `let`/`var`/`const`,
//! functions, `if`/`while`/`for`, arrays, strings (full Unicode, emoji
//! included), arithmetic/logic, property access and method calls. All
//! DOM/canvas behavior lives behind the [`Host`] trait, implemented by
//! `canvassing-dom`. Execution is bounded by a step budget so generated
//! scripts can never hang a crawl worker.
//!
//! Scripts execute on one engine, a compile-to-bytecode VM ([`compile()`] +
//! [`run_compiled_with_budget`]). The original tree-walking interpreter
//! ([`run_with_budget`]) stays only as a test oracle: the differential
//! suite and the corpus-level engine identity test require identical
//! results, host effects and step accounting from both. The
//! [`ScriptCache`] caches parse *and* bytecode per unique source body.
//!
//! ```
//! use canvassing_script::{eval, NullHost};
//!
//! let v = eval("let x = 6; x * 7;", &mut NullHost).unwrap();
//! assert_eq!(v.as_num(), Some(42.0));
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod bytecode;
pub mod cache;
pub mod compile;
pub mod interp;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod proptests;
pub mod value;
pub mod verify;
pub mod vm;

pub use ast::{AssignTarget, BinOp, Expr, FnDecl, Program, Stmt, UnOp};
pub use bytecode::{disassemble, Chunk, CompiledProgram};
pub use cache::{source_hash, BodyMap, ExecutableScript, ScriptCache, ScriptCacheStats};
pub use compile::compile;
pub use interp::{eval, eval_with_budget, run, run_with_budget, EvalOutcome, DEFAULT_STEP_BUDGET};
pub use parser::{parse, ParseError};
pub use value::{Host, HostRef, NullHost, RuntimeError, Value};
pub use verify::{verify, VerifyError, VerifyStats};
pub use vm::{eval_compiled_with_budget, run_compiled, run_compiled_with_budget};
