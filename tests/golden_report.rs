//! Golden-snapshot test: the full plain-text study report at a canonical
//! seed/scale must be byte-identical to the checked-in snapshot. Any
//! intentional change to detection, clustering, attribution, report
//! formatting, or the trace layer shows up here as a readable diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_report
//! ```
//!
//! then review the diff of `tests/golden/report_scale_0.1.txt` like any
//! other code change (see DESIGN.md's trace/observability section).

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::study::{run_study_streamed, StreamingOptions, StudyOptions};
use canvassing_webgen::{SyntheticWeb, WebConfig};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_scale_0.1.txt"
);

fn canonical_report() -> &'static String {
    static REPORT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REPORT.get_or_init(render_canonical)
}

fn render_canonical() -> String {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 2025,
        scale: 0.1,
    });
    let results = run_study_streamed(
        &web,
        &StudyOptions {
            workers: 4,
            adblock_crawls: true,
            m1_validation: true,
            defense_sweep: false,
            trace: true,
        },
        &StreamingOptions::default(),
    )
    .unwrap();
    results.render_report()
}

#[test]
fn report_matches_golden_snapshot() {
    let report = canonical_report();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, report).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    if *report != golden {
        // Byte-diff with a readable first-divergence report: a full
        // assert_eq! dump of two multi-kilobyte reports is unreviewable.
        let report_lines: Vec<&str> = report.lines().collect();
        let golden_lines: Vec<&str> = golden.lines().collect();
        for (i, (got, want)) in report_lines.iter().zip(&golden_lines).enumerate() {
            assert_eq!(
                got,
                want,
                "report diverges from golden at line {} (regen with UPDATE_GOLDEN=1 \
                 if the change is intentional)",
                i + 1
            );
        }
        panic!(
            "report line count changed: {} vs golden {} (regen with UPDATE_GOLDEN=1 \
             if the change is intentional)",
            report_lines.len(),
            golden_lines.len()
        );
    }
}

/// Structural companion to the byte-level snapshot: the sections the
/// resilience and observability layers contribute must render regardless
/// of the exact numbers (so a regen cannot silently drop them).
#[test]
fn report_renders_resilience_and_observability_sections() {
    let report = canonical_report();
    for section in [
        "== Failure bias (fidelity tiers) ==",
        "== Resilience (breakers and salvage) ==",
        "== Observability (trace layer) ==",
        "worst-case interval [",
        "salvage-inclusive",
    ] {
        assert!(report.contains(section), "report lost section {section:?}");
    }
    // Every fidelity tier row renders, zero-filled or not.
    for tier in canvassing_crawler::VisitFidelity::all() {
        assert!(
            report.contains(&format!("{tier}")),
            "missing fidelity tier row {tier}"
        );
    }
}

/// The bytecode-engine rows must render (a regen cannot silently drop
/// them), with a nonempty corpus and a clean verifier on both cohorts.
#[test]
fn report_renders_bytecode_engine_rows() {
    let report = canonical_report();
    assert!(report.contains("== Bytecode engine: recovered verdicts and verifier =="));
    assert!(report.contains("Cohort | bodies | AST-inconclusive | recovered (fp)"));
    for cohort in ["Popular", "Tail"] {
        let row = report
            .lines()
            .find(|l| l.starts_with(cohort) && l.contains("chunks"))
            .unwrap_or_else(|| panic!("no bytecode-engine row for {cohort}"));
        assert!(
            row.ends_with("0 rejected"),
            "verifier rejected chunks: {row}"
        );
    }
}
