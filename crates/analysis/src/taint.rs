//! Intraprocedural taint / dataflow analysis.
//!
//! A may-analysis over a two-point taint lattice (`Clean ⊑ Tainted`)
//! extended with two tracked object shapes: canvas elements (with their
//! literal dimensions) and their 2D contexts. Taint **sources** are the
//! canvas read-back calls `toDataURL` and `getImageData`; taint
//! propagates through `let` bindings, assignments, arithmetic and string
//! concatenation, array literals, unknown calls (any tainted argument
//! taints the result), and method calls on tainted receivers (`indexOf`,
//! `join`, `substring`, …). Mutating method calls (`arr.push(tainted)`)
//! conservatively taint an identifier receiver.
//!
//! Function calls are resolved through **summaries** computed to a
//! fixpoint: each declared function is analyzed twice (parameters clean,
//! parameters tainted) so a call site knows whether the return value is
//! tainted intrinsically (`returns_tainted`) or only when a tainted
//! argument flows in (`param_to_return`); the reads, animation calls,
//! and sink hits a callee performs are charged to every call site.
//!
//! Three script-level facts fall out:
//!
//! * **reads** — every reachable canvas read with its statically known
//!   MIME class and canvas dimensions (the inputs to the §3.2 verdict);
//! * **double_render** — an equality comparison whose *both* operands are
//!   tainted: the §5.3 render-twice-and-compare stability check;
//! * **exfil** — taint reaching an explicit network/storage sink
//!   (`send`, `sendBeacon`, `postMessage`, `setItem`, `appendChild`, or a
//!   `.src` assignment) or the script's final expression-statement value,
//!   which the host page receives as the script's result.
//!
//! Control flow is joined, not followed: `if`/`else` branches are
//! analyzed on cloned environments and merged (taint wins, disagreeing
//! canvas dimensions degrade to dynamic), and loop bodies are iterated a
//! fixed number of passes — enough for the finite lattice to stabilize
//! through loop-carried assignments.

use std::collections::{BTreeMap, HashMap};

use canvassing_script::{AssignTarget, BinOp, Expr, FnDecl, Program, Stmt};
use serde::{Deserialize, Serialize};

/// Methods whose use marks a script as animating rather than
/// fingerprinting — must match `canvassing::detect::ANIMATION_METHODS`.
pub(crate) const ANIMATION_METHODS: &[&str] = &["save", "restore"];

/// Minimum fingerprintable canvas edge — must match
/// `canvassing::detect::MIN_CANVAS_EDGE`.
const MIN_CANVAS_EDGE: u32 = 16;

/// Fixed iteration counts standing in for true fixpoints: loop bodies are
/// re-analyzed this many times, and function summaries recomputed this
/// many rounds. The taint lattice has height 2 and reads are deduplicated,
/// so realistic scripts stabilize in 2; the margin covers deeper chains.
const FIXPOINT_PASSES: usize = 4;

/// Method names treated as explicit exfiltration sinks (shared with the
/// bytecode abstract interpreter in [`crate::absint`]).
pub(crate) const SINK_METHODS: &[&str] = &[
    "send",
    "sendBeacon",
    "postMessage",
    "setItem",
    "appendChild",
];

/// Statically determined MIME class of one canvas read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MimeClass {
    /// `image/png` (or no argument — the default).
    Png,
    /// A literal non-PNG MIME (`image/webp`, `image/jpeg`, …).
    Lossy,
    /// The MIME argument is not a string literal.
    Dynamic,
}

/// Statically determined canvas dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DimClass {
    /// Known literal pixel size.
    Literal(u32),
    /// Assigned from a non-literal expression (or unknown canvas).
    Dynamic,
}

/// One reachable canvas read (`toDataURL` / `getImageData`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CanvasRead {
    /// Requested encoding.
    pub mime: MimeClass,
    /// Canvas width at the read, when statically known.
    pub width: DimClass,
    /// Canvas height at the read, when statically known.
    pub height: DimClass,
}

/// How one read fares against the §3.2 exclusion heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// Lossless, both edges ≥16 px: a fingerprintable read.
    Fingerprinting,
    /// Excluded by the lossy-format heuristic.
    Lossy,
    /// Excluded by the <16×16 size heuristic.
    Small,
    /// MIME not statically known.
    DynamicMime,
    /// Lossless read, but a dimension is not statically known.
    DynamicDims,
}

impl CanvasRead {
    /// Judges this read against the statically evaluable exclusions.
    pub fn classify(&self) -> ReadClass {
        match self.mime {
            MimeClass::Lossy => ReadClass::Lossy,
            MimeClass::Dynamic => ReadClass::DynamicMime,
            MimeClass::Png => match (self.width, self.height) {
                (DimClass::Literal(w), DimClass::Literal(h)) => {
                    if w < MIN_CANVAS_EDGE || h < MIN_CANVAS_EDGE {
                        ReadClass::Small
                    } else {
                        ReadClass::Fingerprinting
                    }
                }
                _ => ReadClass::DynamicDims,
            },
        }
    }

    /// `"WxH"` with `?` for dynamic components (finding details).
    pub fn dims_label(&self) -> String {
        let part = |d: DimClass| match d {
            DimClass::Literal(n) => n.to_string(),
            DimClass::Dynamic => "?".to_string(),
        };
        format!("{}x{}", part(self.width), part(self.height))
    }
}

/// Script-level dataflow facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaintFacts {
    /// Reachable canvas reads (deduplicated; multiplicity never affects
    /// the verdict).
    pub reads: Vec<CanvasRead>,
    /// §5.3 double-render comparison observed.
    pub double_render: bool,
    /// Taint reached a sink or the final expression-statement value.
    pub exfil: bool,
    /// A reachable animation-method call (`save`/`restore`).
    pub animation: bool,
}

/// Runs the full analysis over a compiled program.
pub fn analyze(program: &Program) -> TaintFacts {
    let decls = collect_fns(&program.stmts);
    let mut summaries: BTreeMap<String, FnSummary> = decls
        .keys()
        .map(|name| (name.clone(), FnSummary::default()))
        .collect();
    for _ in 0..FIXPOINT_PASSES {
        let mut next = BTreeMap::new();
        for (name, decl) in &decls {
            next.insert(name.clone(), summarize(decl, &summaries));
        }
        if next == summaries {
            break;
        }
        summaries = next;
    }

    let mut body = BodyAnalyzer::new(&summaries);
    let mut last_expr_tainted = false;
    for stmt in &program.stmts {
        last_expr_tainted = match stmt {
            Stmt::Expr(e) => {
                let v = body.eval(e);
                body.is_tainted(&v)
            }
            other => {
                body.exec(other);
                false
            }
        };
    }
    TaintFacts {
        reads: body.out.reads,
        double_render: body.out.double_render,
        exfil: body.out.exfil_sink || last_expr_tainted,
        animation: body.out.animation,
    }
}

/// Collects every function declaration, outermost first (a later
/// declaration with the same name wins, matching interpreter hoisting).
fn collect_fns(stmts: &[Stmt]) -> BTreeMap<String, FnDecl> {
    let mut out = BTreeMap::new();
    fn walk(stmts: &[Stmt], out: &mut BTreeMap<String, FnDecl>) {
        for stmt in stmts {
            match stmt {
                Stmt::FnDecl(decl) => {
                    out.insert(decl.name.clone(), decl.clone());
                    walk(&decl.body, out);
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

/// Per-function dataflow summary.
#[derive(Debug, Clone, Default, PartialEq)]
struct FnSummary {
    /// The return value is tainted even with clean arguments (the
    /// function reads a canvas itself).
    returns_tainted: bool,
    /// Tainted arguments may reach the return value.
    param_to_return: bool,
    /// Canvas reads performed per invocation.
    reads: Vec<CanvasRead>,
    /// The body performs a §5.3 comparison.
    double_render: bool,
    /// The body hits an explicit sink.
    exfil_sink: bool,
    /// The body calls animation methods.
    animation: bool,
}

/// Analyzes one function body against the current summaries: once with
/// clean parameters (intrinsic facts) and once with tainted parameters
/// (argument propagation).
fn summarize(decl: &FnDecl, summaries: &BTreeMap<String, FnSummary>) -> FnSummary {
    let run = |params_tainted: bool| -> BodyFacts {
        let mut body = BodyAnalyzer::new(summaries);
        for p in &decl.params {
            let v = if params_tainted {
                AbsVal::Tainted
            } else {
                AbsVal::Clean
            };
            body.env.insert(p.clone(), v);
        }
        for stmt in &decl.body {
            body.exec(stmt);
        }
        body.out
    };
    let clean = run(false);
    let tainted = run(true);
    FnSummary {
        returns_tainted: clean.return_tainted,
        param_to_return: tainted.return_tainted,
        reads: clean.reads,
        double_render: clean.double_render,
        exfil_sink: clean.exfil_sink,
        animation: clean.animation,
    }
}

/// Abstract value of a variable or expression.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AbsVal {
    /// Not derived from a canvas read.
    Clean,
    /// May carry canvas-read data.
    Tainted,
    /// A canvas element (id into the canvas table).
    Canvas(usize),
    /// A 2D context bound to a canvas.
    Context(usize),
}

/// Tracked per-canvas state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CanvasInfo {
    width: DimClass,
    height: DimClass,
}

impl Default for CanvasInfo {
    /// The DOM default canvas: 300×150.
    fn default() -> CanvasInfo {
        CanvasInfo {
            width: DimClass::Literal(300),
            height: DimClass::Literal(150),
        }
    }
}

/// Facts accumulated while analyzing one body (monotone: only grow).
#[derive(Debug, Clone, Default, PartialEq)]
struct BodyFacts {
    reads: Vec<CanvasRead>,
    double_render: bool,
    exfil_sink: bool,
    animation: bool,
    return_tainted: bool,
}

impl BodyFacts {
    fn add_read(&mut self, read: CanvasRead) {
        if !self.reads.contains(&read) {
            self.reads.push(read);
        }
    }

    fn absorb_summary(&mut self, s: &FnSummary) {
        for read in &s.reads {
            self.add_read(*read);
        }
        self.double_render |= s.double_render;
        self.exfil_sink |= s.exfil_sink;
        self.animation |= s.animation;
    }
}

/// The abstract interpreter for one body (a function, or the top level).
struct BodyAnalyzer<'a> {
    summaries: &'a BTreeMap<String, FnSummary>,
    env: HashMap<String, AbsVal>,
    canvases: HashMap<usize, CanvasInfo>,
    next_canvas: usize,
    out: BodyFacts,
}

impl<'a> BodyAnalyzer<'a> {
    fn new(summaries: &'a BTreeMap<String, FnSummary>) -> BodyAnalyzer<'a> {
        BodyAnalyzer {
            summaries,
            env: HashMap::new(),
            canvases: HashMap::new(),
            next_canvas: 0,
            out: BodyFacts::default(),
        }
    }

    fn is_tainted(&self, v: &AbsVal) -> bool {
        matches!(v, AbsVal::Tainted)
    }

    fn exec_block(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            self.exec(stmt);
        }
    }

    fn exec(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let { name, value } => {
                let v = self.eval(value);
                self.env.insert(name.clone(), v);
            }
            Stmt::Expr(e) => {
                self.eval(e);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.eval(cond);
                let pre_env = self.env.clone();
                let pre_canvases = self.canvases.clone();
                self.exec_block(then_branch);
                let then_env = std::mem::replace(&mut self.env, pre_env);
                let then_canvases = std::mem::replace(&mut self.canvases, pre_canvases);
                self.exec_block(else_branch);
                self.merge_env(then_env);
                self.merge_canvases(then_canvases);
            }
            Stmt::While { cond, body } => {
                // The loop may run zero times: iterate the body on the
                // live state and union with the pre-loop state, so facts
                // from skipped iterations never disappear.
                let pre_env = self.env.clone();
                let pre_canvases = self.canvases.clone();
                for _ in 0..FIXPOINT_PASSES {
                    self.eval(cond);
                    self.exec_block(body);
                }
                self.eval(cond);
                self.merge_env(pre_env);
                self.merge_canvases(pre_canvases);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.exec(init);
                }
                let pre_env = self.env.clone();
                let pre_canvases = self.canvases.clone();
                for _ in 0..FIXPOINT_PASSES {
                    if let Some(cond) = cond {
                        self.eval(cond);
                    }
                    self.exec_block(body);
                    if let Some(step) = step {
                        self.eval(step);
                    }
                }
                self.merge_env(pre_env);
                self.merge_canvases(pre_canvases);
            }
            Stmt::Return(expr) => {
                if let Some(e) = expr {
                    let v = self.eval(e);
                    self.out.return_tainted |= self.is_tainted(&v);
                }
            }
            Stmt::Break | Stmt::Continue => {}
            // Declarations were collected up front; executing one binds
            // nothing in the abstract environment.
            Stmt::FnDecl(_) => {}
        }
    }

    /// Union-merge: taint wins, shape disagreements degrade to `Clean`,
    /// variables live in only one branch keep their value (may-analysis).
    fn merge_env(&mut self, other: HashMap<String, AbsVal>) {
        for (name, theirs) in other {
            match self.env.get(&name) {
                None => {
                    self.env.insert(name, theirs);
                }
                Some(ours) if *ours == theirs => {}
                Some(ours) => {
                    let merged = if self.is_tainted(ours) || matches!(theirs, AbsVal::Tainted) {
                        AbsVal::Tainted
                    } else {
                        AbsVal::Clean
                    };
                    self.env.insert(name, merged);
                }
            }
        }
    }

    /// Canvas ids are globally unique per body, so a plain union suffices;
    /// an id mutated differently on the two paths degrades to dynamic.
    fn merge_canvases(&mut self, other: HashMap<usize, CanvasInfo>) {
        for (id, theirs) in other {
            match self.canvases.get_mut(&id) {
                None => {
                    self.canvases.insert(id, theirs);
                }
                Some(ours) => {
                    if ours.width != theirs.width {
                        ours.width = DimClass::Dynamic;
                    }
                    if ours.height != theirs.height {
                        ours.height = DimClass::Dynamic;
                    }
                }
            }
        }
    }

    fn eval(&mut self, expr: &Expr) -> AbsVal {
        match expr {
            Expr::Number(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => AbsVal::Clean,
            Expr::Ident(name) => self.env.get(name).copied().unwrap_or(AbsVal::Clean),
            Expr::Array(items) => {
                let mut tainted = false;
                for item in items {
                    let v = self.eval(item);
                    tainted |= self.is_tainted(&v);
                }
                if tainted {
                    AbsVal::Tainted
                } else {
                    AbsVal::Clean
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs);
                let r = self.eval(rhs);
                let lt = self.is_tainted(&l);
                let rt = self.is_tainted(&r);
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        // §5.3: two canvas reads compared for equality.
                        // The comparison result itself is a single bit —
                        // not usable as a fingerprint — so it is clean.
                        if lt && rt {
                            self.out.double_render = true;
                        }
                        AbsVal::Clean
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => AbsVal::Clean,
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Mul
                    | BinOp::Div
                    | BinOp::Rem
                    | BinOp::And
                    | BinOp::Or => {
                        if lt || rt {
                            AbsVal::Tainted
                        } else {
                            AbsVal::Clean
                        }
                    }
                }
            }
            Expr::Unary { expr, .. } => {
                let v = self.eval(expr);
                if self.is_tainted(&v) {
                    AbsVal::Tainted
                } else {
                    AbsVal::Clean
                }
            }
            Expr::Member { object, .. } => {
                let v = self.eval(object);
                if self.is_tainted(&v) {
                    AbsVal::Tainted
                } else {
                    AbsVal::Clean
                }
            }
            Expr::Index { object, index } => {
                let o = self.eval(object);
                self.eval(index);
                if self.is_tainted(&o) {
                    AbsVal::Tainted
                } else {
                    AbsVal::Clean
                }
            }
            Expr::Call { name, args } => {
                let mut any_tainted = false;
                for arg in args {
                    let v = self.eval(arg);
                    any_tainted |= self.is_tainted(&v);
                }
                match self.summaries.get(name) {
                    Some(summary) => {
                        let summary = summary.clone();
                        self.out.absorb_summary(&summary);
                        if summary.returns_tainted || (summary.param_to_return && any_tainted) {
                            AbsVal::Tainted
                        } else {
                            AbsVal::Clean
                        }
                    }
                    // Unknown / builtin function (`len`, `str`, …): the
                    // result derives from the arguments.
                    None => {
                        if any_tainted {
                            AbsVal::Tainted
                        } else {
                            AbsVal::Clean
                        }
                    }
                }
            }
            Expr::MethodCall {
                object,
                method,
                args,
            } => self.eval_method(object, method, args),
            Expr::Assign { target, value } => self.eval_assign(target, value),
        }
    }

    fn eval_method(&mut self, object: &Expr, method: &str, args: &[Expr]) -> AbsVal {
        // document.createElement("canvas") births a tracked canvas.
        if method == "createElement"
            && matches!(object, Expr::Ident(name) if name == "document")
            && matches!(args.first(), Some(Expr::Str(tag)) if tag == "canvas")
        {
            let id = self.next_canvas;
            self.next_canvas += 1;
            self.canvases.insert(id, CanvasInfo::default());
            return AbsVal::Canvas(id);
        }

        let objv = self.eval(object);
        let mut any_arg_tainted = false;
        for arg in args {
            let v = self.eval(arg);
            any_arg_tainted |= self.is_tainted(&v);
        }

        match method {
            "getContext" => {
                if let AbsVal::Canvas(id) = objv {
                    return AbsVal::Context(id);
                }
                AbsVal::Clean
            }
            "toDataURL" => {
                let (width, height) = self.dims_of(objv);
                let mime = match args.first() {
                    None => MimeClass::Png,
                    Some(Expr::Str(m)) if m == "image/png" => MimeClass::Png,
                    Some(Expr::Str(_)) => MimeClass::Lossy,
                    Some(_) => MimeClass::Dynamic,
                };
                self.out.add_read(CanvasRead {
                    mime,
                    width,
                    height,
                });
                AbsVal::Tainted
            }
            "getImageData" => {
                // Raw pixels are lossless; the read region is the
                // (w, h) arguments.
                let lit = |e: Option<&Expr>| match e {
                    Some(Expr::Number(n)) => DimClass::Literal(n.max(0.0) as u32),
                    _ => DimClass::Dynamic,
                };
                self.out.add_read(CanvasRead {
                    mime: MimeClass::Png,
                    width: lit(args.get(2)),
                    height: lit(args.get(3)),
                });
                AbsVal::Tainted
            }
            m if ANIMATION_METHODS.contains(&m) => {
                self.out.animation = true;
                AbsVal::Clean
            }
            m if SINK_METHODS.contains(&m) => {
                if any_arg_tainted || self.is_tainted(&objv) {
                    self.out.exfil_sink = true;
                }
                AbsVal::Clean
            }
            _ => {
                // Mutating call with tainted payload (`arr.push(fp)`)
                // taints an identifier receiver for later reads.
                if any_arg_tainted {
                    if let Expr::Ident(name) = object {
                        if !matches!(objv, AbsVal::Canvas(_) | AbsVal::Context(_)) {
                            self.env.insert(name.clone(), AbsVal::Tainted);
                        }
                    }
                }
                // String/array ops on a tainted receiver derive from it.
                if self.is_tainted(&objv) || any_arg_tainted {
                    AbsVal::Tainted
                } else {
                    AbsVal::Clean
                }
            }
        }
    }

    fn eval_assign(&mut self, target: &AssignTarget, value: &Expr) -> AbsVal {
        let v = self.eval(value);
        match target {
            AssignTarget::Ident(name) => {
                self.env.insert(name.clone(), v);
            }
            AssignTarget::Member { object, name } => {
                let objv = self.eval(object);
                if let AbsVal::Canvas(id) = objv {
                    if name == "width" || name == "height" {
                        let dim = match value {
                            Expr::Number(n) => DimClass::Literal(n.max(0.0) as u32),
                            _ => DimClass::Dynamic,
                        };
                        if let Some(info) = self.canvases.get_mut(&id) {
                            if name == "width" {
                                info.width = dim;
                            } else {
                                info.height = dim;
                            }
                        }
                    }
                }
                // Beacon pattern: img.src = "...?fp=" + data.
                if name == "src" && self.is_tainted(&v) {
                    self.out.exfil_sink = true;
                }
            }
            AssignTarget::Index { object, index } => {
                let objv = self.eval(object);
                self.eval(index);
                if self.is_tainted(&v) {
                    if let Expr::Ident(name) = object {
                        if !matches!(objv, AbsVal::Canvas(_) | AbsVal::Context(_)) {
                            self.env.insert(name.clone(), AbsVal::Tainted);
                        }
                    }
                }
            }
        }
        v
    }

    /// Dimensions of the canvas behind a read receiver; unknown receivers
    /// (a value returned from elsewhere) degrade to dynamic.
    fn dims_of(&self, objv: AbsVal) -> (DimClass, DimClass) {
        match objv {
            AbsVal::Canvas(id) | AbsVal::Context(id) => match self.canvases.get(&id) {
                Some(info) => (info.width, info.height),
                None => (DimClass::Dynamic, DimClass::Dynamic),
            },
            _ => (DimClass::Dynamic, DimClass::Dynamic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_script::parse;

    fn facts(src: &str) -> TaintFacts {
        analyze(&parse(src).unwrap())
    }

    #[test]
    fn read_taints_through_assignment_chain() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let a = c.toDataURL();
            let b = a;
            let d = null;
            d = b;
            d;
            "#,
        );
        assert_eq!(f.reads.len(), 1);
        assert!(f.exfil, "final expression carries the read");
        assert!(!f.double_render);
    }

    #[test]
    fn taint_propagates_through_string_concat() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let fp = "prefix:" + c.toDataURL();
            fp;
            "#,
        );
        assert!(f.exfil);
    }

    #[test]
    fn taint_propagates_through_function_calls() {
        // Through a returning function...
        let f = facts(
            r#"
            fn grab() {
                let c = document.createElement("canvas");
                return c.toDataURL();
            }
            let v = grab();
            v;
            "#,
        );
        assert_eq!(f.reads.len(), 1);
        assert!(f.exfil);

        // ...and through a parameter-passing one.
        let f = facts(
            r#"
            fn wrap(s) { return "v=" + s; }
            let c = document.createElement("canvas");
            let v = wrap(c.toDataURL());
            v;
            "#,
        );
        assert!(f.exfil);
    }

    #[test]
    fn clean_function_results_stay_clean() {
        let f = facts(
            r#"
            fn shout(s) { return s + "!"; }
            let c = document.createElement("canvas");
            let fp = c.toDataURL();
            let v = shout("hello");
            v;
            "#,
        );
        assert_eq!(f.reads.len(), 1);
        assert!(!f.exfil, "final value derives only from a literal");
    }

    #[test]
    fn double_render_requires_both_operands_tainted() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let a = c.toDataURL();
            let b = c.toDataURL();
            let same = a == b;
            "#,
        );
        assert!(f.double_render);

        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let probe = c.toDataURL("image/webp");
            probe.indexOf("data:image/webp") == 0;
            "#,
        );
        assert!(!f.double_render, "literal comparand is not a second render");
    }

    #[test]
    fn explicit_sinks_mark_exfil() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let fp = c.toDataURL();
            beacon.sendBeacon("/collect", fp);
            let done = true;
            "#,
        );
        assert!(f.exfil);

        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let fp = c.toDataURL();
            img.src = "https://t.example/p?d=" + fp;
            let done = true;
            "#,
        );
        assert!(f.exfil);
    }

    #[test]
    fn tainted_array_push_then_join_is_exfil() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let parts = [];
            parts.push(c.toDataURL());
            parts.join("|");
            "#,
        );
        assert!(f.exfil);
    }

    #[test]
    fn dims_track_literal_assignments() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            c.width = 12; c.height = 12;
            c.toDataURL();
            "#,
        );
        assert_eq!(
            f.reads,
            vec![CanvasRead {
                mime: MimeClass::Png,
                width: DimClass::Literal(12),
                height: DimClass::Literal(12),
            }]
        );
    }

    #[test]
    fn default_canvas_is_300_by_150() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            c.toDataURL();
            "#,
        );
        assert_eq!(f.reads[0].width, DimClass::Literal(300));
        assert_eq!(f.reads[0].height, DimClass::Literal(150));
    }

    #[test]
    fn branch_taint_joins() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let v = "clean";
            if (cond) {
                v = c.toDataURL();
            } else {
                v = "still clean";
            }
            v;
            "#,
        );
        assert!(f.exfil, "taint from either branch survives the join");
    }

    #[test]
    fn non_literal_mime_is_dynamic_until_the_bytecode_engine_folds_it() {
        let src = r#"
            let fmt = "image/png";
            let c = document.createElement("canvas");
            c.toDataURL(fmt);
        "#;
        assert_eq!(facts(src).reads[0].mime, MimeClass::Dynamic);
        let ast = crate::classify_source(src);
        assert_eq!(ast.verdict, crate::Verdict::Inconclusive);
        assert!(ast
            .findings
            .iter()
            .any(|f| f.rule == crate::RuleId::IncDynMime));
        let merged = crate::classify_source_merged(src);
        assert!(merged.verdict.is_fingerprinting());
        assert!(merged
            .findings
            .iter()
            .any(|f| f.rule == crate::RuleId::CfbRecovered));
    }

    #[test]
    fn branch_dim_disagreement_degrades_to_dynamic() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            if (cond) { c.width = 10; } else { c.width = 100; }
            c.toDataURL();
            "#,
        );
        assert_eq!(f.reads[0].width, DimClass::Dynamic);
        assert_eq!(f.reads[0].height, DimClass::Literal(150));
    }

    #[test]
    fn loop_carried_taint_converges() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let a = c.toDataURL();
            let b = "x";
            let d = "y";
            for (let i = 0; i < 3; i = i + 1) {
                d = b;
                b = a;
            }
            d;
            "#,
        );
        assert!(f.exfil, "two-step loop-carried propagation");
    }

    #[test]
    fn animation_methods_are_reachable_facts() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let x = c.getContext("2d");
            x.save();
            x.restore();
            c.toDataURL();
            "#,
        );
        assert!(f.animation);
        // Declared-but-never-called animation does not fire.
        let f = facts(
            r#"
            fn unused() { ctx.save(); }
            let c = document.createElement("canvas");
            c.toDataURL();
            "#,
        );
        assert!(!f.animation);
    }

    #[test]
    fn uncalled_function_reads_are_unreachable() {
        let f = facts(
            r#"
            fn never() {
                let c = document.createElement("canvas");
                return c.toDataURL();
            }
            let x = 1;
            x;
            "#,
        );
        assert!(f.reads.is_empty());
    }

    #[test]
    fn getimagedata_region_uses_literal_args() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let x = c.getContext("2d");
            let px = x.getImageData(0, 0, 64, 32);
            px;
            "#,
        );
        assert_eq!(
            f.reads,
            vec![CanvasRead {
                mime: MimeClass::Png,
                width: DimClass::Literal(64),
                height: DimClass::Literal(32),
            }]
        );
        assert!(f.exfil);
    }
}
