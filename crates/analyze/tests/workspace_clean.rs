//! The analyzer's strongest test: run it over the real workspace.
//!
//! This is the same invocation `cargo run -p xtask -- analyze` makes,
//! asserted from a test so `cargo test -q` alone proves the gate
//! would pass. It pins three facts: the workspace has zero findings
//! outside the committed suppressions, the suppression file itself is
//! well-formed with no stale lines, and the classifier actually marks
//! a meaningful output-path core (a regression that stopped marking
//! anything would make every rule vacuously pass).

use maeri_analyze::{analyze_workspace, Rule, SuppressError};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_committed_suppressions() {
    let analysis = analyze_workspace(&repo_root()).expect("workspace walk succeeds");
    for f in &analysis.findings {
        eprintln!(
            "unsuppressed: {}:{} [{}] {}",
            f.path,
            f.line,
            f.rule.name(),
            f.message
        );
    }
    for e in &analysis.suppress_errors {
        eprintln!("suppression problem: {e}");
    }
    assert!(
        analysis.clean(),
        "workspace must analyze clean: {} finding(s), {} suppression error(s)",
        analysis.findings.len(),
        analysis.suppress_errors.len()
    );
}

#[test]
fn classifier_marks_a_meaningful_output_core() {
    let analysis = analyze_workspace(&repo_root()).expect("workspace walk succeeds");
    let s = analysis.stats;
    assert!(s.files > 100, "workspace has {} files", s.files);
    assert!(s.functions > 500, "workspace has {} fns", s.functions);
    assert!(
        s.output_functions * 10 >= s.functions * 3,
        "output-path core collapsed: {} of {} fns marked",
        s.output_functions,
        s.functions
    );
    assert!(
        s.output_functions < s.functions,
        "classification must not mark everything"
    );
}

#[test]
fn known_telemetry_hazards_stay_suppressed_not_fixed_silently() {
    // The suppression file documents real wall-clock reads (report
    // phase stamps, the live service clock). If those disappear the
    // stale-suppression check fires — this test just pins that the
    // current set is the one DESIGN.md section 16 describes.
    let analysis = analyze_workspace(&repo_root()).expect("workspace walk succeeds");
    let wall = analysis
        .suppressed
        .iter()
        .filter(|f| f.rule == Rule::WallClock)
        .count();
    assert!(
        wall >= 5,
        "expected the documented wall-clock telemetry set, got {wall}"
    );
    assert!(
        analysis
            .suppressed
            .iter()
            .all(|f| f.rule == Rule::WallClock || f.rule == Rule::ThreadInfluence),
        "only the two telemetry rules may carry suppressions today"
    );
}

#[test]
fn stale_suppressions_are_detected_against_the_real_corpus() {
    // Drive apply() with the real findings plus one extra line that
    // matches nothing: it must surface as stale.
    let root = repo_root();
    let body = std::fs::read_to_string(root.join(maeri_analyze::SUPPRESSION_FILE))
        .expect("committed suppression file exists");
    let with_extra = format!("{body}\nunseeded_rng crates/sim/src/lib.rs bogus reason\n");
    let sups = maeri_analyze::suppress::parse(&with_extra).expect("file parses");

    let files =
        maeri_analyze::workspace::parse_trees(&root, maeri_analyze::workspace::SOURCE_ROOTS)
            .expect("walk");
    let flags = maeri_analyze::classify::output_path(&files);
    let findings = maeri_analyze::rules::run_all(&files, &flags);
    let (_, _, stale) = maeri_analyze::suppress::apply(findings, &sups);
    assert!(
        stale
            .iter()
            .any(|e| matches!(e, SuppressError::Stale(s) if s.path == "crates/sim/src/lib.rs")),
        "the planted no-match suppression must be reported stale"
    );
}
