//! Bytecode-level abstract interpretation: an interprocedural taint
//! analysis over the compiled [`CompiledProgram`] instruction stream.
//!
//! The AST taint pass ([`crate::taint`]) is deliberately syntactic:
//! dimensions must be literal `Number` nodes, MIME arguments literal
//! `Str` nodes, and helper functions are summarized only as
//! taint-in/taint-out. That is exactly the surface the evasion
//! literature attacks — FP-Inspector-style string-op laundering
//! (`"image/" + "pn" + "g"`, `fromCharCode`, `slice`) and helper-call
//! indirection make every interesting operand *non-literal* without
//! changing runtime behavior. This module re-runs the same detection
//! logic on the flat PR-7 bytecode, where those tricks are transparent:
//!
//! * `cfg` — per-chunk control-flow graphs: basic blocks split at the
//!   pre-resolved jump targets of the [`Insn`](canvassing_script::bytecode::Insn)
//!   stream.
//! * `domain` — the abstract domain: `{Untainted, Tainted,
//!   Canvas/Context(site), Const(str/num), HostGlobal}` over stack
//!   slots, frame-relative locals, and global symbols, with a
//!   constant lattice whose join collapses disagreeing constants (so
//!   ascending chains are finite and the fixpoint terminates without a
//!   separate widening operator).
//! * `exec` — the worklist fixed-point interpreter for one chunk:
//!   block entry states join monotonically; constant folding replays
//!   the VM's exact `Add`-concat / `fromCharCode` / `slice` semantics
//!   so reassembled strings stay `Const` instead of degrading to
//!   unknown.
//! * `summaries` — bottom-up per-function summaries (param-to-return,
//!   param-to-sink, constant/canvas returns) iterated to a fixpoint
//!   with a bounded round count as the recursion widening bound.
//!
//! The result is the same [`TaintFacts`] shape the AST pass produces,
//! so verdict synthesis ([`crate::classify_bytecode`]) shares the §3.2
//! exclusion logic — the two engines differ only in how much they can
//! prove about each read, never in the decision rule.

pub(crate) mod cfg;
pub(crate) mod domain;
pub(crate) mod exec;
pub(crate) mod summaries;

use canvassing_script::CompiledProgram;

use crate::taint::TaintFacts;
use domain::BVal;

/// Runs the bytecode abstract interpreter over a compiled program,
/// producing the same fact shape as [`crate::taint::analyze`].
pub fn analyze_compiled(prog: &CompiledProgram) -> TaintFacts {
    let summaries = summaries::compute(prog);
    let main = cfg::Cfg::build(&prog.main);
    let facts = exec::analyze_chunk(
        prog,
        &prog.main,
        prog.main_slots,
        0,
        BVal::Untainted,
        &main,
        &summaries,
    );
    TaintFacts {
        reads: facts.reads,
        double_render: facts.double_render,
        exfil: facts.exfil_sink || facts.last_tainted,
        animation: facts.animation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::{DimClass, MimeClass};
    use canvassing_script::{compile, parse};

    fn facts(src: &str) -> TaintFacts {
        analyze_compiled(&compile(&parse(src).expect("parse")))
    }

    #[test]
    fn straight_line_fingerprinter_matches_ast_facts() {
        let src = r#"
            let c = document.createElement("canvas");
            let ctx = c.getContext("2d");
            ctx.fillText("hi", 2, 2);
            let fp = c.toDataURL();
            fp;
        "#;
        let f = facts(src);
        assert_eq!(f.reads.len(), 1);
        assert_eq!(f.reads[0].mime, MimeClass::Png);
        assert_eq!(f.reads[0].width, DimClass::Literal(300));
        assert_eq!(f.reads[0].height, DimClass::Literal(150));
        assert!(f.exfil, "final-expression value is tainted");
        assert!(!f.double_render);
        assert!(!f.animation);
    }

    #[test]
    fn constant_dims_through_variables_are_literal() {
        // The AST pass sees `c.width = w` as non-literal; the bytecode
        // pass tracks `w` as Const.
        let src = r#"
            let w = 240;
            let h = 60;
            let c = document.createElement("canvas");
            c.width = w;
            c.height = h;
            c.toDataURL();
        "#;
        let f = facts(src);
        assert_eq!(f.reads.len(), 1);
        assert_eq!(f.reads[0].width, DimClass::Literal(240));
        assert_eq!(f.reads[0].height, DimClass::Literal(60));
    }

    #[test]
    fn reassembled_mime_string_is_recognized() {
        let src = r#"
            let c = document.createElement("canvas");
            let m = "image/" + "pn" + "g";
            c.toDataURL(m);
        "#;
        let f = facts(src);
        assert_eq!(f.reads.len(), 1);
        assert_eq!(f.reads[0].mime, MimeClass::Png);
    }

    #[test]
    fn charcode_laundered_mime_is_recognized() {
        let src = r#"
            let c = document.createElement("canvas");
            let m = "image/p" + fromCharCode(110) + "g";
            c.toDataURL(m);
        "#;
        let f = facts(src);
        assert_eq!(f.reads[0].mime, MimeClass::Png);
    }

    #[test]
    fn helper_returning_canvas_keeps_dims() {
        let src = r#"
            fn make() {
                let c = document.createElement("canvas");
                c.width = 200;
                c.height = 40;
                return c;
            }
            let k = make();
            k.toDataURL();
        "#;
        let f = facts(src);
        assert_eq!(f.reads.len(), 1);
        assert_eq!(f.reads[0].width, DimClass::Literal(200));
        assert_eq!(f.reads[0].height, DimClass::Literal(40));
    }

    #[test]
    fn helper_param_reaching_sink_is_exfil() {
        let src = r#"
            fn relay(p) { navigator.sendBeacon("/ping", p); }
            let c = document.createElement("canvas");
            relay(c.toDataURL());
        "#;
        let f = facts(src);
        assert!(f.exfil, "tainted argument reaches a sink inside the helper");
    }

    #[test]
    fn clean_helper_sink_is_not_exfil() {
        let src = r#"
            fn relay(p) { navigator.sendBeacon("/ping", p); }
            relay("benign");
            let c = document.createElement("canvas");
            let fp = c.toDataURL();
            0;
        "#;
        let f = facts(src);
        assert!(!f.exfil, "clean argument must not flag the sink");
    }

    #[test]
    fn double_render_through_helper() {
        let src = r#"
            fn read(c) { return c.toDataURL(); }
            let c = document.createElement("canvas");
            let a = read(c);
            let b = read(c);
            if (a == b) { 1; }
        "#;
        let f = facts(src);
        assert!(f.double_render);
    }

    #[test]
    fn animation_and_small_canvas_behave_like_ast() {
        let f = facts(
            r#"
            let c = document.createElement("canvas");
            let x = c.getContext("2d");
            x.save();
            c.toDataURL();
        "#,
        );
        assert!(f.animation);

        let f = facts(
            r#"
            let c = document.createElement("canvas");
            c.width = 8;
            c.height = 8;
            c.toDataURL();
        "#,
        );
        assert_eq!(f.reads[0].width, DimClass::Literal(8));
    }

    #[test]
    fn loop_mutated_dims_degrade_to_dynamic() {
        let src = r#"
            let c = document.createElement("canvas");
            let i = 0;
            while (i < 3) {
                c.width = 100 + i;
                i = i + 1;
            }
            c.toDataURL();
        "#;
        let f = facts(src);
        assert!(
            f.reads
                .iter()
                .any(|r| r.width == DimClass::Dynamic || matches!(r.width, DimClass::Literal(_))),
            "read recorded"
        );
        // The loop-exit state must not claim a single literal width for
        // a dimension written from a loop-varying expression.
        assert!(f.reads.iter().any(|r| r.width == DimClass::Dynamic));
    }

    #[test]
    fn split_and_join_url_assembly_taints_sink() {
        let src = r#"
            let c = document.createElement("canvas");
            let fp = c.toDataURL();
            let url = "/c" + "ol" + "lect";
            window.postMessage(url + fp);
        "#;
        let f = facts(src);
        assert!(f.exfil);
    }
}
