//! The bytecode virtual machine: an operand-stack dispatch loop over
//! [`crate::bytecode`] programs.
//!
//! The VM is the production execution engine; the tree-walking
//! interpreter in [`crate::interp`] remains as the differential-testing
//! oracle. Both engines implement identical semantics — same results,
//! same host-effect sequences, same error messages, and byte-identical
//! step accounting (see the fuel contract in [`crate::compile`]) — which
//! the differential suite in `proptests.rs` enforces.
//!
//! Speed comes from structure, not shortcuts: identifiers are interned so
//! variable access indexes a dense global slot vector or scans a small
//! flat local stack instead of hashing strings through a `Vec<HashMap>`;
//! calls push a lightweight frame instead of cloning the global scope and
//! the callee's AST; jumps are pre-resolved absolute offsets.

use crate::bytecode::{CompiledProgram, Insn, Op};
use crate::interp::{
    apply_binary, apply_unary, call_builtin, call_method_value, get_member_value, index_get,
    index_set, set_member_value, EvalOutcome, DEFAULT_STEP_BUDGET,
};
use crate::value::{Host, RuntimeError, Value};

/// Parses, compiles and runs source text on the VM. A parse failure
/// consumes zero steps, like the tree-walker's [`crate::eval_with_budget`].
/// Callers with a [`crate::ScriptCache`] should prefer its cached bytecode.
pub fn eval_compiled_with_budget(src: &str, host: &mut dyn Host, budget: u64) -> EvalOutcome {
    match crate::parser::parse(src) {
        Ok(program) => run_compiled_with_budget(&crate::compile::compile(&program), host, budget),
        Err(e) => EvalOutcome {
            result: Err(RuntimeError::new(format!("script parse failed: {e}"))),
            steps: 0,
        },
    }
}

/// Runs compiled bytecode with the default step budget.
pub fn run_compiled(prog: &CompiledProgram, host: &mut dyn Host) -> Result<Value, RuntimeError> {
    run_compiled_with_budget(prog, host, DEFAULT_STEP_BUDGET).result
}

/// Chunk id of the main (top-level) code.
const MAIN: u32 = u32::MAX;

/// Maximum user-function call depth, identical to the tree-walker.
const MAX_CALL_DEPTH: usize = 64;

/// One suspended caller.
struct Frame {
    ret_chunk: u32,
    ret_pc: usize,
    floor: usize,
}

/// Pops the operand stack. Compiled code keeps the stack balanced, so the
/// underflow arm is unreachable; `Null` keeps the VM total without a
/// panic path.
#[inline]
fn pop(stack: &mut Vec<Value>) -> Value {
    stack.pop().unwrap_or(Value::Null)
}

/// Runs compiled bytecode against a host with an explicit step budget,
/// reporting steps consumed alongside the result — the VM counterpart of
/// [`crate::run_with_budget`], with identical accounting.
pub fn run_compiled_with_budget(
    prog: &CompiledProgram,
    host: &mut dyn Host,
    budget: u64,
) -> EvalOutcome {
    let nsyms = prog.symbols.len();
    let mut stack: Vec<Value> = Vec::with_capacity(16);
    // Frame slots: `floor + slot` indexes the current frame. Slots are
    // resolved at compile time (see `compile.rs`), so there is no scope
    // stack at run time — just a flat slot vector.
    let mut locals: Vec<Value> = vec![Value::Null; prog.main_slots as usize];
    let mut frames: Vec<Frame> = Vec::new();
    let mut globals: Vec<Option<Value>> = vec![None; nsyms];
    let mut fn_table: Vec<Option<u32>> = vec![None; nsyms];
    for &f in &prog.hoisted {
        if let Some(decl) = prog.fns.get(f as usize) {
            fn_table[decl.name as usize] = Some(f);
        }
    }
    let mut chunk: &[Insn] = &prog.main;
    let mut chunk_id = MAIN;
    let mut pc: usize = 0;
    let mut floor: usize = 0;
    let mut last = Value::Null;
    let mut steps: u64 = 0;

    macro_rules! fail {
        ($err:expr) => {
            return EvalOutcome {
                result: Err($err),
                steps,
            }
        };
    }
    macro_rules! vmtry {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(e) => fail!(e),
            }
        };
    }

    loop {
        let insn = &chunk[pc];
        if insn.fuel > 0 {
            // Batch-charge the ticks attributed to this instruction. A
            // pure tick chain has no observable effects, so trimming the
            // count to budget+1 on exhaustion reproduces the tree-walker
            // exactly: same failure point, same reported steps.
            steps = steps.saturating_add(insn.fuel as u64);
            if steps > budget {
                steps = budget.saturating_add(1);
                fail!(RuntimeError::new("script exceeded step budget"));
            }
        }
        pc += 1;
        match insn.op {
            Op::Const(c) => stack.push(prog.consts[c as usize].to_value()),
            Op::LoadLocal(i) => stack.push(locals[floor + i as usize].clone()),
            Op::StoreLocal(i) => {
                locals[floor + i as usize] = stack.last().cloned().unwrap_or(Value::Null);
            }
            Op::DeclareLocal(i) => locals[floor + i as usize] = pop(&mut stack),
            Op::LoadGlobal(s) => {
                let v = match globals[s as usize].clone() {
                    Some(v) => v,
                    None => match host.global(&prog.symbols[s as usize]) {
                        Some(v) => v,
                        None => fail!(RuntimeError::new(format!(
                            "undefined variable {}",
                            prog.symbols[s as usize]
                        ))),
                    },
                };
                stack.push(v);
            }
            Op::StoreGlobal(s) => {
                globals[s as usize] = Some(stack.last().cloned().unwrap_or(Value::Null));
            }
            Op::DeclareGlobal(s) => globals[s as usize] = Some(pop(&mut stack)),
            Op::Pop => {
                stack.pop();
            }
            Op::Dup => {
                let v = stack.last().cloned().unwrap_or(Value::Null);
                stack.push(v);
            }
            Op::Unary(op) => {
                let v = pop(&mut stack);
                stack.push(vmtry!(apply_unary(op, v)));
            }
            Op::Binary(op) => {
                let r = pop(&mut stack);
                let l = pop(&mut stack);
                // Fast path: number-number arithmetic and comparison,
                // the hot case in loop-heavy scripts. Exactly mirrors
                // `apply_binary` (including the NaN-comparison error).
                if let (&Value::Num(a), &Value::Num(b)) = (&l, &r) {
                    use crate::ast::BinOp;
                    let v = match op {
                        BinOp::Add => Value::Num(a + b),
                        BinOp::Sub => Value::Num(a - b),
                        BinOp::Mul => Value::Num(a * b),
                        BinOp::Div => Value::Num(a / b),
                        BinOp::Rem => Value::Num(a % b),
                        BinOp::Eq => Value::Bool(a == b),
                        BinOp::Ne => Value::Bool(a != b),
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match a.partial_cmp(&b) {
                            None => fail!(RuntimeError::new("NaN comparison")),
                            Some(ord) => Value::Bool(match op {
                                BinOp::Lt => ord.is_lt(),
                                BinOp::Le => ord.is_le(),
                                BinOp::Gt => ord.is_gt(),
                                _ => ord.is_ge(),
                            }),
                        },
                        BinOp::And | BinOp::Or => {
                            stack.push(vmtry!(apply_binary(op, l, r)));
                            continue;
                        }
                    };
                    stack.push(v);
                } else {
                    stack.push(vmtry!(apply_binary(op, l, r)));
                }
            }
            Op::MakeArray(n) => {
                let at = stack.len().saturating_sub(n as usize);
                let items = stack.split_off(at);
                stack.push(Value::array(items));
            }
            Op::GetMember(s) => {
                let obj = pop(&mut stack);
                stack.push(vmtry!(get_member_value(
                    host,
                    obj,
                    &prog.symbols[s as usize]
                )));
            }
            Op::GetIndex => {
                let idx = pop(&mut stack);
                let obj = pop(&mut stack);
                stack.push(vmtry!(index_get(obj, idx)));
            }
            Op::SetMember(s) => {
                let obj = pop(&mut stack);
                let v = pop(&mut stack);
                vmtry!(set_member_value(host, obj, &prog.symbols[s as usize], v));
            }
            Op::SetIndex => {
                let idx = pop(&mut stack);
                let obj = pop(&mut stack);
                let v = pop(&mut stack);
                vmtry!(index_set(obj, idx, v));
            }
            Op::CallBuiltin { builtin, argc } => {
                // Builtins take a slice, so the args stay on the operand
                // stack — no per-call allocation.
                let at = stack.len().saturating_sub(argc as usize);
                let v = vmtry!(call_builtin(builtin, &stack[at..]));
                stack.truncate(at);
                stack.push(v);
            }
            Op::CallFn { name, argc } => {
                let Some(f_idx) = fn_table[name as usize] else {
                    fail!(RuntimeError::new(format!(
                        "undefined function {}",
                        prog.symbols[name as usize]
                    )));
                };
                if frames.len() >= MAX_CALL_DEPTH {
                    fail!(RuntimeError::new("call stack exceeded"));
                }
                let decl = &prog.fns[f_idx as usize];
                frames.push(Frame {
                    ret_chunk: chunk_id,
                    ret_pc: pc,
                    floor,
                });
                // Move the args off the operand stack straight into the
                // callee's parameter slots (extra args are dropped,
                // missing ones stay null), then zero the rest of the
                // frame — no intermediate Vec.
                let at = stack.len().saturating_sub(argc as usize);
                floor = locals.len();
                locals.resize(floor + decl.max_slots as usize, Value::Null);
                let bound = (argc as usize).min(decl.params.len());
                for (i, arg) in stack.drain(at..).enumerate() {
                    if i < bound {
                        locals[floor + i] = arg;
                    }
                }
                chunk = &decl.code;
                chunk_id = f_idx;
                pc = 0;
            }
            Op::CallMethod { method, argc } => {
                let at = stack.len().saturating_sub(argc as usize);
                let args = stack.split_off(at);
                let obj = pop(&mut stack);
                stack.push(vmtry!(call_method_value(
                    host,
                    obj,
                    &prog.symbols[method as usize],
                    args
                )));
            }
            Op::Jump(t) => pc = t as usize,
            Op::JumpIfFalse(t) => {
                if !pop(&mut stack).truthy() {
                    pc = t as usize;
                }
            }
            Op::JumpIfFalsyPeek(t) => {
                let falsy = !stack.last().map(Value::truthy).unwrap_or(false);
                if falsy {
                    pc = t as usize;
                } else {
                    stack.pop();
                }
            }
            Op::JumpIfTruthyPeek(t) => {
                let truthy = stack.last().map(Value::truthy).unwrap_or(false);
                if truthy {
                    pc = t as usize;
                } else {
                    stack.pop();
                }
            }
            Op::StoreLast => last = pop(&mut stack),
            Op::SetLastNull => last = Value::Null,
            Op::DeclareFn(f) => {
                if let Some(decl) = prog.fns.get(f as usize) {
                    fn_table[decl.name as usize] = Some(f);
                }
            }
            Op::Return => {
                let v = pop(&mut stack);
                match frames.pop() {
                    None => {
                        // Top-level `return` ends the program with the
                        // returned value, like the tree-walker.
                        return EvalOutcome {
                            result: Ok(v),
                            steps,
                        };
                    }
                    Some(frame) => {
                        locals.truncate(floor);
                        floor = frame.floor;
                        chunk = if frame.ret_chunk == MAIN {
                            &prog.main
                        } else {
                            &prog.fns[frame.ret_chunk as usize].code
                        };
                        chunk_id = frame.ret_chunk;
                        pc = frame.ret_pc;
                        stack.push(v);
                    }
                }
            }
            Op::Fuel => {}
            Op::RaiseLoopCtl => fail!(RuntimeError::new("break/continue outside loop")),
            Op::Halt => {
                return EvalOutcome {
                    result: Ok(last),
                    steps,
                };
            }
        }
    }
}
