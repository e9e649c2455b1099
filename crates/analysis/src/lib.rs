//! # canvassing-analysis
//!
//! A *static* fingerprinting classifier over compiled canvascript
//! [`Program`] ASTs — the pre-execution
//! counterpart to the paper's dynamic §3.2 interception heuristics.
//!
//! The pass has three layers:
//!
//! 1. **Feature extraction** ([`features`]) — a syntactic walk counting
//!    canvas-API usage (`fillText`, `arc`, `toDataURL`, `getImageData`,
//!    …), the literal text drawn, and animation-method usage (the paper's
//!    third filter heuristic);
//! 2. **Taint / dataflow analysis** ([`taint`]) — an intraprocedural
//!    may-taint analysis from canvas-read sources (`toDataURL`,
//!    `getImageData`) through variables, function calls (via summaries),
//!    and string operations to network/storage sinks, also tracking each
//!    canvas's literal dimensions and each read's requested MIME type;
//! 3. **Verdict synthesis** — the feature vector and dataflow facts are
//!    folded into a per-script [`Verdict`] mirroring the §3.2 exclusion
//!    heuristics exactly, plus rule-ID'd [`Finding`]s for the lint tool.
//!
//! The classifier is deliberately *decision-compatible* with the dynamic
//! detector: a script is `Fingerprinting` iff its reachable canvas reads
//! include at least one lossless read of a ≥16×16 canvas by a
//! non-animating script — the same predicate `canvassing::detect` applies
//! to the recorded extractions. `Inconclusive` is reserved for scripts
//! whose reads cannot be classified statically (dynamic MIME argument,
//! non-literal dimensions, or a parse failure).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod absint;
pub mod cache;
pub mod features;
mod proptests;
pub mod taint;

use serde::{Deserialize, Serialize};

use canvassing_script::Program;

pub use cache::{AnalysisCache, AnalysisStats};
pub use features::CanvasFeatures;
pub use taint::{CanvasRead, DimClass, MimeClass, TaintFacts};

/// The static per-script verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// The script fingerprints: it performs at least one canvas read the
    /// §3.2 heuristics would accept.
    Fingerprinting {
        /// Canvas-derived data reaches an exfiltration channel (an
        /// explicit network/storage sink, or the script's final
        /// expression value — the value handed back to the host page).
        exfil: bool,
        /// The §5.3 double-render signature: two canvas reads compared
        /// for equality (the randomization-evasion stability check).
        double_render: bool,
    },
    /// Every canvas read is excluded by the §3.2 heuristics (lossy
    /// format, too-small canvas, animation script), or the script never
    /// reads a canvas.
    Benign,
    /// The script could not be classified statically (dynamic MIME or
    /// dimensions, unresolvable read receiver, or a parse failure).
    Inconclusive,
}

impl Verdict {
    /// Whether the verdict is `Fingerprinting { .. }`.
    pub fn is_fingerprinting(&self) -> bool {
        matches!(self, Verdict::Fingerprinting { .. })
    }

    /// Short stable label for trace events and reports, encoding the
    /// fingerprinting sub-flags (e.g. `"fingerprinting+exfil"`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Fingerprinting {
                exfil: false,
                double_render: false,
            } => "fingerprinting",
            Verdict::Fingerprinting {
                exfil: true,
                double_render: false,
            } => "fingerprinting+exfil",
            Verdict::Fingerprinting {
                exfil: false,
                double_render: true,
            } => "fingerprinting+double-render",
            Verdict::Fingerprinting {
                exfil: true,
                double_render: true,
            } => "fingerprinting+exfil+double-render",
            Verdict::Benign => "benign",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// Stable identifiers for lint findings, printed by the `lint` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuleId {
    /// `CF-READ`: a lossless, large-canvas read by a non-animating script.
    CfRead,
    /// `CF-DOUBLE-RENDER`: two canvas reads compared for equality (§5.3).
    CfDoubleRender,
    /// `CF-EXFIL`: canvas-derived data reaches an exfiltration channel.
    CfExfil,
    /// `BN-NO-READ`: the script never reads a canvas.
    BnNoRead,
    /// `BN-LOSSY`: a read excluded by the lossy-format heuristic.
    BnLossy,
    /// `BN-SMALL`: a read excluded by the <16×16 size heuristic.
    BnSmall,
    /// `BN-ANIM`: the script trips the animation heuristic.
    BnAnim,
    /// `INC-DYN-MIME`: a read whose MIME argument is not a literal.
    IncDynMime,
    /// `INC-DYN-DIMS`: a read of a canvas with non-literal dimensions.
    IncDynDims,
    /// `INC-PARSE`: the script failed to parse.
    IncParse,
    /// `CFB-READ`: the bytecode engine proved a fingerprintable read.
    CfbRead,
    /// `CFB-DOUBLE-RENDER`: the bytecode engine proved a §5.3 compare.
    CfbDoubleRender,
    /// `CFB-EXFIL`: the bytecode engine proved an exfiltration flow.
    CfbExfil,
    /// `CFB-RECOVERED`: the bytecode engine resolved a script the AST
    /// engine left `Inconclusive`.
    CfbRecovered,
}

impl RuleId {
    /// The rule's stable textual ID (what the lint binary prints).
    pub fn code(&self) -> &'static str {
        match self {
            RuleId::CfRead => "CF-READ",
            RuleId::CfDoubleRender => "CF-DOUBLE-RENDER",
            RuleId::CfExfil => "CF-EXFIL",
            RuleId::BnNoRead => "BN-NO-READ",
            RuleId::BnLossy => "BN-LOSSY",
            RuleId::BnSmall => "BN-SMALL",
            RuleId::BnAnim => "BN-ANIM",
            RuleId::IncDynMime => "INC-DYN-MIME",
            RuleId::IncDynDims => "INC-DYN-DIMS",
            RuleId::IncParse => "INC-PARSE",
            RuleId::CfbRead => "CFB-READ",
            RuleId::CfbDoubleRender => "CFB-DOUBLE-RENDER",
            RuleId::CfbExfil => "CFB-EXFIL",
            RuleId::CfbRecovered => "CFB-RECOVERED",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint finding: a rule plus a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// What it saw (counts, dims, method names).
    pub detail: String,
}

/// Full static-analysis output for one script body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptAnalysis {
    /// The verdict.
    pub verdict: Verdict,
    /// Syntactic canvas-API feature vector.
    pub features: CanvasFeatures,
    /// Rule-ID'd findings supporting the verdict.
    pub findings: Vec<Finding>,
}

/// The positive-rule vocabulary of one analysis engine. The `BN-*` /
/// `INC-*` exclusion rules are engine-independent; only the positive
/// findings carry an engine prefix so merged verdicts stay attributable.
struct RuleSet {
    read: RuleId,
    double_render: RuleId,
    exfil: RuleId,
}

const AST_RULES: RuleSet = RuleSet {
    read: RuleId::CfRead,
    double_render: RuleId::CfDoubleRender,
    exfil: RuleId::CfExfil,
};

const BYTECODE_RULES: RuleSet = RuleSet {
    read: RuleId::CfbRead,
    double_render: RuleId::CfbDoubleRender,
    exfil: RuleId::CfbExfil,
};

/// Classifies a compiled program with the AST taint engine. This is the
/// pure core the [`AnalysisCache`] memoizes; callers inside a crawl
/// should go through the cache so each unique body is analyzed once.
pub fn classify(program: &Program) -> ScriptAnalysis {
    let features = features::extract(program);
    let facts = taint::analyze(program);
    synthesize(features, &facts, &AST_RULES)
}

/// Classifies a compiled program with the bytecode abstract interpreter
/// ([`absint`]): same §3.2 decision rule, applied to facts proven over
/// the compiled instruction stream (where constant laundering and
/// helper-call indirection are transparent). Findings use `CFB-*` rules.
pub fn classify_bytecode(program: &Program) -> ScriptAnalysis {
    let bytecode = canvassing_script::compile(program);
    let features = features::extract(program);
    let facts = absint::analyze_compiled(&bytecode);
    synthesize(features, &facts, &BYTECODE_RULES)
}

/// The two-engine cascade the crawl pipeline uses: the AST verdict
/// stands whenever it is decisive (so the bytecode engine can never
/// introduce a new false positive on scripts the AST pass already
/// excludes), and the bytecode engine adjudicates only the
/// `Inconclusive` remainder. A recovered verdict keeps both engines'
/// findings plus a `CFB-RECOVERED` marker.
pub fn classify_merged(program: &Program) -> ScriptAnalysis {
    let ast = classify(program);
    if ast.verdict != Verdict::Inconclusive {
        return ast;
    }
    let bytecode = classify_bytecode(program);
    if bytecode.verdict == Verdict::Inconclusive {
        return ast;
    }
    let mut findings = ast.findings;
    findings.push(Finding {
        rule: RuleId::CfbRecovered,
        detail: format!(
            "bytecode engine resolved an AST-inconclusive script as {}",
            bytecode.verdict.label()
        ),
    });
    findings.extend(bytecode.findings);
    ScriptAnalysis {
        verdict: bytecode.verdict,
        features: ast.features,
        findings,
    }
}

/// Folds one engine's taint facts and the shared feature vector into a
/// verdict, mirroring the dynamic detector's §3.2 exclusion order.
fn synthesize(
    features: CanvasFeatures,
    facts: &taint::TaintFacts,
    rules: &RuleSet,
) -> ScriptAnalysis {
    let mut findings = Vec::new();

    if facts.reads.is_empty() {
        findings.push(Finding {
            rule: RuleId::BnNoRead,
            detail: "no reachable canvas read".into(),
        });
        return ScriptAnalysis {
            verdict: Verdict::Benign,
            features,
            findings,
        };
    }

    if facts.animation {
        findings.push(Finding {
            rule: RuleId::BnAnim,
            detail: "script calls animation methods (save/restore)".into(),
        });
        return ScriptAnalysis {
            verdict: Verdict::Benign,
            features,
            findings,
        };
    }

    // Mirror the dynamic per-extraction exclusion: a read fingerprints
    // iff it is lossless and both canvas edges are ≥16 px. A read whose
    // MIME or dimensions are not statically known is *undecidable*; it
    // only forces `Inconclusive` when no other read already decides the
    // script positively.
    let mut positive = 0usize;
    let mut undecidable = 0usize;
    for read in &facts.reads {
        match read.classify() {
            taint::ReadClass::Fingerprinting => positive += 1,
            taint::ReadClass::Lossy => findings.push(Finding {
                rule: RuleId::BnLossy,
                detail: "read excluded by the lossy-format heuristic".into(),
            }),
            taint::ReadClass::Small => findings.push(Finding {
                rule: RuleId::BnSmall,
                detail: format!("read excluded as too small ({})", read.dims_label()),
            }),
            taint::ReadClass::DynamicMime => {
                undecidable += 1;
                findings.push(Finding {
                    rule: RuleId::IncDynMime,
                    detail: "read with a non-literal MIME argument".into(),
                });
            }
            taint::ReadClass::DynamicDims => {
                undecidable += 1;
                findings.push(Finding {
                    rule: RuleId::IncDynDims,
                    detail: "lossless read of a canvas with non-literal dimensions".into(),
                });
            }
        }
    }

    if positive == 0 {
        let verdict = if undecidable > 0 {
            Verdict::Inconclusive
        } else {
            Verdict::Benign
        };
        return ScriptAnalysis {
            verdict,
            features,
            findings,
        };
    }

    findings.push(Finding {
        rule: rules.read,
        detail: format!("{positive} fingerprintable canvas read(s)"),
    });
    if facts.double_render {
        findings.push(Finding {
            rule: rules.double_render,
            detail: "two canvas reads compared for equality (§5.3 stability check)".into(),
        });
    }
    if facts.exfil {
        findings.push(Finding {
            rule: rules.exfil,
            detail: "canvas-derived value reaches an exfiltration channel".into(),
        });
    }
    ScriptAnalysis {
        verdict: Verdict::Fingerprinting {
            exfil: facts.exfil,
            double_render: facts.double_render,
        },
        features,
        findings,
    }
}

/// [`classify`] from source text; parse failures yield `Inconclusive`
/// with an `INC-PARSE` finding. Prefer [`AnalysisCache::analyze`] inside
/// crawls.
pub fn classify_source(source: &str) -> ScriptAnalysis {
    match canvassing_script::parse(source) {
        Ok(program) => classify(&program),
        Err(e) => ScriptAnalysis {
            verdict: Verdict::Inconclusive,
            features: CanvasFeatures::default(),
            findings: vec![Finding {
                rule: RuleId::IncParse,
                detail: format!("parse failed: {e}"),
            }],
        },
    }
}

/// [`classify_merged`] from source text; parse failures yield
/// `Inconclusive` with an `INC-PARSE` finding.
pub fn classify_source_merged(source: &str) -> ScriptAnalysis {
    match canvassing_script::parse(source) {
        Ok(program) => classify_merged(&program),
        Err(e) => ScriptAnalysis {
            verdict: Verdict::Inconclusive,
            features: CanvasFeatures::default(),
            findings: vec![Finding {
                rule: RuleId::IncParse,
                detail: format!("parse failed: {e}"),
            }],
        },
    }
}

#[cfg(test)]
mod vendor_tests;
