//! Repo automation tasks. Usage: `cargo run -p xtask -- <task>`.
//!
//! `lint` parses the workspace with `maeri-analyze`'s front end and
//! enforces the invariants implemented in [`lint`] (probe-twin sync,
//! the unwrap allowlist, report-registry contiguity,
//! `#![forbid(unsafe_code)]` headers, dangling doc-path references,
//! and the closed-catalog table covering chaos fault points, trace
//! span kinds and fleet placement policies). `analyze` runs the
//! `maeri-analyze` determinism analyzer over the workspace and fails
//! on any finding outside `analyze-suppressions.txt` (and on any
//! stale suppression). Both exit non-zero with one line per finding
//! so CI can gate on them.

mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let task = std::env::args().nth(1);
    let Some(root) = workspace_root() else {
        eprintln!("xtask: crates/xtask does not sit two levels below a workspace root");
        return ExitCode::FAILURE;
    };
    match task.as_deref() {
        Some("lint") => run_lint(&root),
        Some("analyze") => run_analyze(&root),
        other => {
            eprintln!(
                "unknown task {:?}; available tasks: lint, analyze",
                other.unwrap_or("<none>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs the determinism analyzer over the whole workspace.
fn run_analyze(root: &Path) -> ExitCode {
    let analysis = match maeri_analyze::analyze_workspace(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: workspace walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &analysis.findings {
        eprintln!(
            "xtask analyze: {}:{}: [{}] {}\n    fix: {}",
            f.path,
            f.line,
            f.rule.name(),
            f.message,
            f.rule.hint()
        );
    }
    for e in &analysis.suppress_errors {
        eprintln!("xtask analyze: {e}");
    }
    let s = analysis.stats;
    let per_rule: Vec<String> = analysis
        .per_rule()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{}={n}", r.name()))
        .collect();
    println!(
        "xtask analyze: {} files, {} fns ({} output-path), {} suppression(s) in use{}",
        s.files,
        s.functions,
        s.output_functions,
        s.suppressions_in_use,
        if per_rule.is_empty() {
            String::new()
        } else {
            format!("; findings: {}", per_rule.join(" "))
        }
    );
    if analysis.clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask analyze: {} finding(s), {} suppression error(s)",
            analysis.findings.len(),
            analysis.suppress_errors.len()
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> Option<PathBuf> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
}

/// Runs every repository invariant check over the workspace.
fn run_lint(root: &Path) -> ExitCode {
    let report = match lint::lint_workspace(root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask lint: workspace walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.findings.is_empty() {
        println!(
            "xtask lint: {} source files checked, no findings",
            report.files
        );
        ExitCode::SUCCESS
    } else {
        for f in &report.findings {
            eprintln!("xtask lint: {}: {}", f.path, f.message);
        }
        eprintln!("xtask lint: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}
