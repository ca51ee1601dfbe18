//! Workspace determinism analyzer.
//!
//! `maeri-analyze` is a static-analysis gate over the whole workspace
//! that proves, at the code level, what the regen CI smokes prove at
//! the byte level: nothing nondeterministic can reach the pinned
//! report bytes, the `regen_all` replay, or the serving stack's wire
//! and store output. It exists because ROADMAP item 1 (a rayon-style
//! parallel cycle kernel) will make these hazards easy to introduce
//! and expensive to debug after the fact — a parallel `sum()` that
//! reorders float adds changes report bytes only on some machines.
//!
//! The pipeline, one module per stage:
//!
//! - [`lexer`]: scrub comments/strings so pattern scans only see code;
//! - [`ast`]: `fn`-item extraction and `#[cfg(test)]` blanking;
//! - [`classify`]: reachable-by-name closure from the report registry
//!   and serve serialization seeds → output-path flags per `fn`;
//! - [`rules`]: the six-determinism-rule catalog;
//! - [`suppress`]: the committed suppression file, where stale
//!   entries are themselves errors;
//! - [`workspace`]: [`workspace::parse_trees`], the one walker both
//!   repo gates read Rust through, and
//!   [`workspace::analyze_workspace`], the entry point
//!   `cargo run -p xtask -- analyze` uses.
//!
//! The analyzer is dependency-free by construction (no `syn`): like
//! the `compat/` stand-ins, it must build in the sealed offline
//! environment, so it carries its own scrubbing lexer and item parser
//! sized to exactly what the rules need.

#![forbid(unsafe_code)]

pub mod ast;
pub mod classify;
pub mod lexer;
pub mod rules;
pub mod suppress;
pub mod workspace;

pub use ast::{FileAst, FnItem};
pub use rules::{Finding, Rule};
pub use suppress::{SuppressError, Suppression};
pub use workspace::{analyze_workspace, SUPPRESSION_FILE};

/// Corpus counters for one analysis run, surfaced in
/// `regen_all --json` and the xtask summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Files parsed.
    pub files: usize,
    /// `fn` items found outside test regions.
    pub functions: usize,
    /// Functions classified output-path.
    pub output_functions: usize,
    /// Suppression lines that silenced at least one finding.
    pub suppressions_in_use: usize,
}

/// The result of one workspace analysis.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Corpus counters.
    pub stats: Stats,
    /// Findings not covered by a suppression — any entry fails the
    /// gate.
    pub findings: Vec<Finding>,
    /// Findings silenced by the suppression file (reported, not
    /// fatal).
    pub suppressed: Vec<Finding>,
    /// Suppression-file problems (parse errors, stale lines) — any
    /// entry fails the gate.
    pub suppress_errors: Vec<SuppressError>,
}

impl Analysis {
    /// Whether the gate passes: no live findings and a clean
    /// suppression file.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.suppress_errors.is_empty()
    }

    /// Findings per rule, in catalog order, including suppressed ones
    /// (the count describes the codebase, not the gate status).
    #[must_use]
    pub fn per_rule(&self) -> [(Rule, usize); 6] {
        Rule::ALL.map(|rule| {
            let n = self
                .findings
                .iter()
                .chain(&self.suppressed)
                .filter(|f| f.rule == rule)
                .count();
            (rule, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_requires_no_findings_and_no_suppress_errors() {
        let mut a = Analysis::default();
        assert!(a.clean());
        a.suppress_errors
            .push(SuppressError::Malformed(1, "x".to_owned()));
        assert!(!a.clean());
    }

    #[test]
    fn per_rule_counts_suppressed_findings_too() {
        let mut a = Analysis::default();
        a.findings.push(Finding {
            rule: Rule::WallClock,
            path: "a.rs".to_owned(),
            line: 1,
            message: "m".to_owned(),
        });
        a.suppressed.push(Finding {
            rule: Rule::WallClock,
            path: "b.rs".to_owned(),
            line: 2,
            message: "m".to_owned(),
        });
        let counts = a.per_rule();
        assert_eq!(counts[1], (Rule::WallClock, 2));
        assert_eq!(counts[0].1 + counts[2].1, 0);
    }
}
