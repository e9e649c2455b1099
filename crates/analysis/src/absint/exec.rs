//! The worklist fixed-point interpreter for one bytecode chunk.
//!
//! Each basic block is re-processed whenever its entry state grows;
//! entry states only ever move up the (finite-height) lattice in
//! [`super::domain`], so the fixpoint terminates — a per-block visit
//! cap backstops the proof for malformed input. Transfer rules mirror
//! [`crate::taint`]'s AST rules decision-for-decision, with added
//! constant precision: dimensions and MIME strings assembled through
//! variables, concatenation, `fromCharCode`, or `slice` stay known.

use std::collections::{BTreeMap, BTreeSet};

use canvassing_script::bytecode::{Const, Insn, Op};
use canvassing_script::interp::builtin_name;
use canvassing_script::{BinOp, CompiledProgram, UnOp};

use crate::taint::{CanvasRead, DimClass, MimeClass, ANIMATION_METHODS, SINK_METHODS};

use super::cfg::Cfg;
use super::domain::{AbsState, BVal, Dims, Origin, Slot, DEFAULT_DIMS};
use super::summaries::BcSummary;

/// Safety cap on block re-processing; the monotone join makes real
/// fixpoints converge in a handful of visits.
const VISIT_CAP: u32 = 64;

/// Everything learned about one chunk.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ChunkFacts {
    /// Reachable canvas reads (deduplicated).
    pub reads: Vec<CanvasRead>,
    /// §5.3 equality comparison of two tainted values.
    pub double_render: bool,
    /// Taint reached an explicit sink.
    pub exfil_sink: bool,
    /// An animation method was called.
    pub animation: bool,
    /// Some return value may be tainted.
    pub ret_tainted: bool,
    /// All seen return values were the same-site canvas: its dims.
    pub ret_dims: Option<Dims>,
    /// All seen return values were one known constant.
    pub ret_const: Option<BVal>,
    /// At least one `Return` was reachable.
    pub ret_seen: bool,
    /// The program-result register was tainted at `Halt` (main only).
    pub last_tainted: bool,
}

impl ChunkFacts {
    fn add_read(&mut self, read: CanvasRead) {
        if !self.reads.contains(&read) {
            self.reads.push(read);
        }
    }

    fn absorb_summary(&mut self, s: &BcSummary) {
        for read in &s.reads {
            self.add_read(*read);
        }
        self.double_render |= s.double_render;
        self.exfil_sink |= s.exfil_sink;
        self.animation |= s.animation;
    }

    fn record_return(&mut self, st: &AbsState, val: &BVal) {
        self.ret_tainted |= val.is_tainted();
        let dims = match val {
            BVal::Canvas(_) | BVal::Context(_) => Some(st.dims_of(val)),
            _ => None,
        };
        let konst = match val {
            BVal::Str(_) | BVal::Num(_) => Some(val.clone()),
            _ => None,
        };
        if !self.ret_seen {
            self.ret_seen = true;
            self.ret_dims = dims;
            self.ret_const = konst;
        } else {
            self.ret_dims = match (self.ret_dims, dims) {
                (Some((w1, h1)), Some((w2, h2))) => {
                    let join =
                        |a: DimClass, b: DimClass| if a == b { a } else { DimClass::Dynamic };
                    Some((join(w1, w2), join(h1, h2)))
                }
                _ => None,
            };
            self.ret_const = match (&self.ret_const, &konst) {
                (Some(a), Some(b)) if a == b => self.ret_const.clone(),
                _ => None,
            };
        }
    }
}

/// Runs the dataflow over one chunk to its fixpoint.
pub(crate) fn analyze_chunk(
    prog: &CompiledProgram,
    code: &[Insn],
    slots: u32,
    params: usize,
    param_val: BVal,
    cfg: &Cfg,
    summaries: &BTreeMap<u32, BcSummary>,
) -> ChunkFacts {
    let mut facts = ChunkFacts::default();
    if cfg.blocks.is_empty() {
        return facts;
    }
    let mut entry: Vec<Option<AbsState>> = vec![None; cfg.blocks.len()];
    entry[0] = Some(AbsState::entry(slots, params, param_val));
    let mut visits = vec![0u32; cfg.blocks.len()];
    let mut work: BTreeSet<usize> = BTreeSet::new();
    work.insert(0);

    while let Some(&b) = work.iter().next() {
        work.remove(&b);
        let Some(mut st) = entry[b].clone() else {
            continue;
        };
        if visits[b] >= VISIT_CAP {
            continue;
        }
        visits[b] += 1;
        let block = cfg.blocks[b];
        let mut ctx = Ctx {
            prog,
            summaries,
            facts: &mut facts,
        };
        let mut succs: Vec<(usize, AbsState)> = Vec::new();
        let mut fell_through = true;
        // `pc` feeds fall-through successor offsets (`pc + 1`), not just
        // the `code[pc]` lookup, so an enumerate rewrite obscures it.
        #[allow(clippy::needless_range_loop)]
        for pc in block.start..block.end {
            let insn = &code[pc];
            match insn.op {
                Op::Jump(t) => {
                    succs.push((t as usize, st.clone()));
                    fell_through = false;
                }
                Op::JumpIfFalse(t) => {
                    st.stack.pop();
                    succs.push((t as usize, st.clone()));
                    succs.push((pc + 1, st.clone()));
                    fell_through = false;
                }
                Op::JumpIfFalsyPeek(t) | Op::JumpIfTruthyPeek(t) => {
                    // Taken: the peeked value stays as the expression
                    // result. Fall-through: it is popped before the rhs.
                    succs.push((t as usize, st.clone()));
                    st.stack.pop();
                    succs.push((pc + 1, st.clone()));
                    fell_through = false;
                }
                Op::Return => {
                    let val = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                    ctx.facts.record_return(&st, &val);
                    fell_through = false;
                }
                Op::Halt => {
                    ctx.facts.last_tainted |= st.last.is_tainted();
                    fell_through = false;
                }
                Op::RaiseLoopCtl => {
                    fell_through = false;
                }
                _ => ctx.step(pc, &insn.op, &mut st),
            }
        }
        if fell_through && block.end < code.len() {
            succs.push((block.end, st));
        }
        for (pc, out) in succs {
            if pc >= code.len() {
                continue;
            }
            let sb = cfg.block_at(pc);
            let changed = match &mut entry[sb] {
                Some(existing) => existing.join_from(&out),
                slot => {
                    *slot = Some(out);
                    true
                }
            };
            if changed {
                work.insert(sb);
            }
        }
    }
    facts
}

/// Transfer-function context for straight-line ops.
struct Ctx<'a> {
    prog: &'a CompiledProgram,
    summaries: &'a BTreeMap<u32, BcSummary>,
    facts: &'a mut ChunkFacts,
}

impl Ctx<'_> {
    fn sym(&self, s: u32) -> &str {
        self.prog
            .symbols
            .get(s as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    fn konst(&self, c: u32) -> BVal {
        match self.prog.consts.get(c as usize) {
            Some(Const::Num(n)) => BVal::Num(*n),
            Some(Const::Str(s)) => BVal::Str(s.clone()),
            _ => BVal::Untainted,
        }
    }

    fn step(&mut self, pc: usize, op: &Op, st: &mut AbsState) {
        match *op {
            Op::Const(c) => st.stack.push(Slot::anon(self.konst(c))),
            Op::LoadLocal(i) => {
                let val = st
                    .locals
                    .get(i as usize)
                    .cloned()
                    .unwrap_or(BVal::Untainted);
                st.stack.push(Slot {
                    val,
                    origin: Some(Origin::Local(i)),
                });
            }
            Op::StoreLocal(i) => {
                if let Some(top) = st.stack.last_mut() {
                    let val = top.val.clone();
                    top.origin = Some(Origin::Local(i));
                    if let Some(slot) = st.locals.get_mut(i as usize) {
                        *slot = val;
                    }
                }
            }
            Op::DeclareLocal(i) => {
                let val = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                if let Some(slot) = st.locals.get_mut(i as usize) {
                    *slot = val;
                }
            }
            Op::LoadGlobal(s) => {
                let val = match st.globals.get(&s) {
                    Some(v) => v.clone(),
                    None => match self.sym(s) {
                        "document" | "window" | "navigator" => BVal::HostGlobal(s),
                        _ => BVal::Untainted,
                    },
                };
                st.stack.push(Slot {
                    val,
                    origin: Some(Origin::Global(s)),
                });
            }
            Op::StoreGlobal(s) => {
                if let Some(top) = st.stack.last_mut() {
                    let val = top.val.clone();
                    top.origin = Some(Origin::Global(s));
                    st.globals.insert(s, val);
                }
            }
            Op::DeclareGlobal(s) => {
                let val = st.stack.pop().map(|v| v.val).unwrap_or(BVal::Untainted);
                st.globals.insert(s, val);
            }
            Op::Pop => {
                st.stack.pop();
            }
            Op::Dup => {
                if let Some(top) = st.stack.last().cloned() {
                    st.stack.push(top);
                }
            }
            Op::Unary(u) => {
                let v = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                let out = if v.is_tainted() {
                    BVal::Tainted
                } else if let (UnOp::Neg, BVal::Num(n)) = (u, &v) {
                    BVal::Num(-n)
                } else {
                    BVal::Untainted
                };
                st.stack.push(Slot::anon(out));
            }
            Op::Binary(b) => {
                let r = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                let l = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                let out = match b {
                    BinOp::Eq | BinOp::Ne => {
                        // §5.3: two tainted reads compared for equality;
                        // the one-bit result itself is clean.
                        if l.is_tainted() && r.is_tainted() {
                            self.facts.double_render = true;
                        }
                        BVal::Untainted
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => BVal::Untainted,
                    _ => {
                        if l.is_tainted() || r.is_tainted() {
                            BVal::Tainted
                        } else {
                            const_binary(b, &l, &r)
                        }
                    }
                };
                st.stack.push(Slot::anon(out));
            }
            Op::MakeArray(n) => {
                let mut tainted = false;
                for _ in 0..n {
                    tainted |= st.stack.pop().map(|s| s.val.is_tainted()).unwrap_or(false);
                }
                st.stack.push(Slot::anon(if tainted {
                    BVal::Tainted
                } else {
                    BVal::Untainted
                }));
            }
            Op::GetMember(_) => {
                let obj = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                st.stack.push(Slot::anon(if obj.is_tainted() {
                    BVal::Tainted
                } else {
                    BVal::Untainted
                }));
            }
            Op::GetIndex => {
                st.stack.pop();
                let obj = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
                st.stack.push(Slot::anon(if obj.is_tainted() {
                    BVal::Tainted
                } else {
                    BVal::Untainted
                }));
            }
            Op::SetMember(s) => {
                let obj = st.stack.pop().map(|v| v.val).unwrap_or(BVal::Untainted);
                let val = st.stack.pop().map(|v| v.val).unwrap_or(BVal::Untainted);
                let name = self.sym(s).to_string();
                if let BVal::Canvas(site) = obj {
                    if name == "width" || name == "height" {
                        let dim = match val {
                            BVal::Num(n) => DimClass::Literal(n.max(0.0) as u32),
                            _ => DimClass::Dynamic,
                        };
                        let dims = st.canvases.entry(site).or_insert(DEFAULT_DIMS);
                        if name == "width" {
                            dims.0 = dim;
                        } else {
                            dims.1 = dim;
                        }
                    }
                }
                // Beacon pattern: img.src = "...?fp=" + data.
                if name == "src" && val.is_tainted() {
                    self.facts.exfil_sink = true;
                }
            }
            Op::SetIndex => {
                st.stack.pop();
                let obj = st.stack.pop();
                let val = st.stack.pop().map(|v| v.val).unwrap_or(BVal::Untainted);
                if val.is_tainted() {
                    if let Some(obj) = obj {
                        self.taint_receiver(st, &obj);
                    }
                }
            }
            Op::CallBuiltin { builtin, argc } => {
                let args = pop_args(st, argc as usize);
                let any_tainted = args.iter().any(|a| a.val.is_tainted());
                let out = if any_tainted {
                    BVal::Tainted
                } else {
                    const_builtin(builtin_name(builtin), &args)
                };
                st.stack.push(Slot::anon(out));
            }
            Op::CallFn { name, argc } => {
                let args = pop_args(st, argc as usize);
                let any_tainted = args.iter().any(|a| a.val.is_tainted());
                let out = match self.summaries.get(&name) {
                    Some(s) => {
                        let s = s.clone();
                        self.facts.absorb_summary(&s);
                        if any_tainted && s.param_to_sink {
                            self.facts.exfil_sink = true;
                        }
                        if s.returns_tainted || (s.param_to_return && any_tainted) {
                            BVal::Tainted
                        } else if let Some(dims) = s.returns_canvas {
                            // Allocation-site abstraction: the call site
                            // is the canvas identity.
                            let site = pc as u32;
                            st.canvases.insert(site, dims);
                            BVal::Canvas(site)
                        } else if let Some(c) = s.returns_const {
                            c
                        } else {
                            BVal::Untainted
                        }
                    }
                    // Unknown function: the result derives from the
                    // arguments (same rule as the AST pass).
                    None => {
                        if any_tainted {
                            BVal::Tainted
                        } else {
                            BVal::Untainted
                        }
                    }
                };
                st.stack.push(Slot::anon(out));
            }
            Op::CallMethod { method, argc } => {
                let args = pop_args(st, argc as usize);
                let recv = st.stack.pop().unwrap_or(Slot::anon(BVal::Untainted));
                let out = self.method_call(pc, method, &recv, &args, st);
                st.stack.push(Slot::anon(out));
            }
            Op::StoreLast => {
                st.last = st.stack.pop().map(|s| s.val).unwrap_or(BVal::Untainted);
            }
            Op::SetLastNull => st.last = BVal::Untainted,
            Op::DeclareFn(_) | Op::Fuel => {}
            // Control-flow ops are handled by the block driver.
            Op::Jump(_)
            | Op::JumpIfFalse(_)
            | Op::JumpIfFalsyPeek(_)
            | Op::JumpIfTruthyPeek(_)
            | Op::Return
            | Op::RaiseLoopCtl
            | Op::Halt => {}
        }
    }

    fn method_call(
        &mut self,
        pc: usize,
        method: u32,
        recv: &Slot,
        args: &[Slot],
        st: &mut AbsState,
    ) -> BVal {
        let mname = self.sym(method).to_string();
        let any_arg_tainted = args.iter().any(|a| a.val.is_tainted());

        // document.createElement("canvas") births a tracked canvas.
        if mname == "createElement" {
            if let BVal::HostGlobal(s) = recv.val {
                if self.sym(s) == "document"
                    && matches!(args.first(), Some(a) if a.val == BVal::Str("canvas".into()))
                {
                    let site = pc as u32;
                    st.canvases.insert(site, DEFAULT_DIMS);
                    return BVal::Canvas(site);
                }
            }
        }

        match mname.as_str() {
            "getContext" => {
                if let BVal::Canvas(site) = recv.val {
                    return BVal::Context(site);
                }
                BVal::Untainted
            }
            "toDataURL" => {
                let (width, height) = st.dims_of(&recv.val);
                let mime = match args.first().map(|a| &a.val) {
                    None => MimeClass::Png,
                    Some(BVal::Str(m)) if m == "image/png" => MimeClass::Png,
                    Some(BVal::Str(_)) => MimeClass::Lossy,
                    Some(_) => MimeClass::Dynamic,
                };
                self.facts.add_read(CanvasRead {
                    mime,
                    width,
                    height,
                });
                BVal::Tainted
            }
            "getImageData" => {
                let lit = |slot: Option<&Slot>| match slot.map(|s| &s.val) {
                    Some(BVal::Num(n)) => DimClass::Literal(n.max(0.0) as u32),
                    _ => DimClass::Dynamic,
                };
                self.facts.add_read(CanvasRead {
                    mime: MimeClass::Png,
                    width: lit(args.get(2)),
                    height: lit(args.get(3)),
                });
                BVal::Tainted
            }
            m if ANIMATION_METHODS.contains(&m) => {
                self.facts.animation = true;
                BVal::Untainted
            }
            m if SINK_METHODS.contains(&m) => {
                if any_arg_tainted || recv.val.is_tainted() {
                    self.facts.exfil_sink = true;
                }
                BVal::Untainted
            }
            _ => {
                // Constant string methods: the VM's exact semantics, so
                // sliced/cased MIME and URL fragments stay known.
                if !any_arg_tainted {
                    if let BVal::Str(s) = &recv.val {
                        if let Some(out) = const_string_method(s, &mname, args) {
                            return out;
                        }
                    }
                }
                // Mutating call with tainted payload (`arr.push(fp)`)
                // taints the variable behind the receiver.
                if any_arg_tainted {
                    self.taint_receiver(st, recv);
                }
                if recv.val.is_tainted() || any_arg_tainted {
                    BVal::Tainted
                } else {
                    BVal::Untainted
                }
            }
        }
    }

    /// Taints the local/global a receiver value was loaded from, unless
    /// the receiver is a tracked canvas shape (same carve-out as the
    /// AST rule).
    fn taint_receiver(&mut self, st: &mut AbsState, recv: &Slot) {
        if matches!(recv.val, BVal::Canvas(_) | BVal::Context(_)) {
            return;
        }
        match recv.origin {
            Some(Origin::Local(i)) => {
                if let Some(slot) = st.locals.get_mut(i as usize) {
                    *slot = BVal::Tainted;
                }
            }
            Some(Origin::Global(s)) => {
                st.globals.insert(s, BVal::Tainted);
            }
            None => {}
        }
    }
}

/// Pops `argc` arguments in declaration order.
fn pop_args(st: &mut AbsState, argc: usize) -> Vec<Slot> {
    let mut args = Vec::with_capacity(argc);
    for _ in 0..argc {
        args.push(st.stack.pop().unwrap_or(Slot::anon(BVal::Untainted)));
    }
    args.reverse();
    args
}

/// Constant folding for binary arithmetic, replaying `apply_binary`:
/// `Add` concatenates display strings when either side is a string,
/// numeric ops apply to two numbers; anything else stays unknown.
fn const_binary(op: BinOp, l: &BVal, r: &BVal) -> BVal {
    let both_num = match (l, r) {
        (BVal::Num(a), BVal::Num(b)) => Some((*a, *b)),
        _ => None,
    };
    match op {
        BinOp::Add => {
            if matches!(l, BVal::Str(_)) || matches!(r, BVal::Str(_)) {
                match (l.display(), r.display()) {
                    (Some(a), Some(b)) => BVal::Str(format!("{a}{b}")),
                    _ => BVal::Untainted,
                }
            } else if let Some((a, b)) = both_num {
                BVal::Num(a + b)
            } else {
                BVal::Untainted
            }
        }
        BinOp::Sub => both_num
            .map(|(a, b)| BVal::Num(a - b))
            .unwrap_or(BVal::Untainted),
        BinOp::Mul => both_num
            .map(|(a, b)| BVal::Num(a * b))
            .unwrap_or(BVal::Untainted),
        BinOp::Div => both_num
            .map(|(a, b)| BVal::Num(a / b))
            .unwrap_or(BVal::Untainted),
        BinOp::Rem => both_num
            .map(|(a, b)| BVal::Num(a % b))
            .unwrap_or(BVal::Untainted),
        _ => BVal::Untainted,
    }
}

/// Constant folding for the laundering-relevant builtins.
fn const_builtin(name: &str, args: &[Slot]) -> BVal {
    match name {
        "str" => match args.first() {
            None => BVal::Str(String::new()),
            Some(a) => a.val.display().map(BVal::Str).unwrap_or(BVal::Untainted),
        },
        "fromCharCode" => match args.first().map(|a| &a.val) {
            Some(BVal::Num(n)) => char::from_u32(*n as u32)
                .map(|c| BVal::Str(c.to_string()))
                .unwrap_or(BVal::Untainted),
            _ => BVal::Untainted,
        },
        "len" => match args.first().map(|a| &a.val) {
            Some(BVal::Str(s)) => BVal::Num(s.chars().count() as f64),
            _ => BVal::Untainted,
        },
        _ => BVal::Untainted,
    }
}

/// Constant string methods with the interpreter's exact char-index
/// semantics; `None` falls back to the generic taint rule.
fn const_string_method(s: &str, method: &str, args: &[Slot]) -> Option<BVal> {
    let num_arg = |i: usize| -> Option<Option<f64>> {
        // Outer None: a provided arg is not a known number → bail.
        // Inner None: the arg is absent → the method's default applies.
        match args.get(i).map(|a| &a.val) {
            None => Some(None),
            Some(BVal::Num(n)) => Some(Some(*n)),
            Some(_) => None,
        }
    };
    match method {
        "substring" | "slice" => {
            let chars: Vec<char> = s.chars().collect();
            let a = num_arg(0)?.unwrap_or(0.0).max(0.0) as usize;
            let b = num_arg(1)?
                .map(|n| n.max(0.0) as usize)
                .unwrap_or(chars.len())
                .min(chars.len());
            let a = a.min(b);
            Some(BVal::Str(chars[a..b].iter().collect()))
        }
        "toLowerCase" => Some(BVal::Str(s.to_lowercase())),
        "toUpperCase" => Some(BVal::Str(s.to_uppercase())),
        "charCodeAt" => {
            let i = num_arg(0)?.unwrap_or(0.0) as usize;
            Some(
                s.chars()
                    .nth(i)
                    .map(|c| BVal::Num(c as u32 as f64))
                    .unwrap_or(BVal::Untainted),
            )
        }
        _ => None,
    }
}
