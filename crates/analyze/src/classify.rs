//! Output-path classification: which functions can reach report bytes.
//!
//! The determinism contract protects *output*: the 18 pinned reports,
//! `regen_all`, and the serving stack's replies and persisted results.
//! Test code and telemetry-gated code may read clocks and thread ids
//! freely. The classifier separates the two with a reachable-by-name
//! closure, the same static style `maeri-verify` uses for mapping
//! legality: no execution, conservative over-approximation.
//!
//! Seeds are every function defined in the report registry modules
//! (`crates/bench/src/reports/`), the report binaries
//! (`crates/bench/src/bin/`, which includes `regen_all`), and the
//! serve reply/store serialization surface (`wire.rs`, `server.rs`,
//! `store.rs`). From the seeds, any function whose *name* is called
//! in a reachable body becomes reachable. Name collisions mark more
//! code output-path, never less — over-approximation is the sound
//! direction for a lint.

use crate::ast::FileAst;
use std::collections::{BTreeMap, BTreeSet};

/// Path prefixes/files whose every `fn` seeds the closure.
const SEED_PREFIXES: &[&str] = &["crates/bench/src/reports/", "crates/bench/src/bin/"];
const SEED_FILES: &[&str] = &[
    "crates/serve/src/wire.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/store.rs",
];

/// Rust keywords that can precede `(` without naming a function.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "else", "enum", "extern", "false", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while",
];

/// Per-file, per-`fn` output-path flags, aligned with `files[i].fns`.
#[must_use]
pub fn output_path(files: &[FileAst]) -> Vec<Vec<bool>> {
    // Name index: every definition site of each fn name.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (ni, item) in file.fns.iter().enumerate() {
            by_name.entry(&item.name).or_default().push((fi, ni));
        }
    }

    let mut marked: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.fns.len()]).collect();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if is_seed(&file.path) {
            for (ni, slot) in marked[fi].iter_mut().enumerate() {
                *slot = true;
                work.push((fi, ni));
            }
        }
    }

    while let Some((fi, ni)) = work.pop() {
        let file = &files[fi];
        let body = &file.code[file.fns[ni].body.clone()];
        for name in called_names(body) {
            if let Some(sites) = by_name.get(name.as_str()) {
                for &(cf, cn) in sites {
                    if !marked[cf][cn] {
                        marked[cf][cn] = true;
                        work.push((cf, cn));
                    }
                }
            }
        }
    }
    marked
}

/// Whether every `fn` in this file seeds the closure.
fn is_seed(path: &str) -> bool {
    SEED_PREFIXES.iter().any(|p| path.starts_with(p)) || SEED_FILES.contains(&path)
}

/// The identifiers a body invokes: `name(`, `.name(`, `path::name(`,
/// and turbofish `name::<T>(`. Macros (`name!(`) and keywords are
/// excluded. Deduplicated and sorted for deterministic traversal.
pub fn called_names(body: &str) -> BTreeSet<String> {
    let bytes = body.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let name = &body[start..i];
            let rest = &bytes[i..];
            // `name(` and turbofish `name::<` are calls; `name!(` is a
            // macro and everything else is a plain identifier.
            let is_call = match rest.first() {
                Some(b'(') => true,
                Some(b':') => rest.starts_with(b"::<"),
                Some(_) | None => false,
            };
            if is_call && !KEYWORDS.contains(&name) {
                out.insert(name.to_owned());
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Vec<FileAst> {
        pairs.iter().map(|(p, s)| FileAst::parse(p, s)).collect()
    }

    #[test]
    fn seeds_reach_through_call_chains() {
        let files = parse(&[
            (
                "crates/bench/src/reports/table1.rs",
                "pub fn run() { helper(); }",
            ),
            (
                "crates/maeri/src/sim.rs",
                "pub fn helper() { leaf(); }\npub fn leaf() {}\npub fn unreached() {}",
            ),
        ]);
        let marked = output_path(&files);
        assert_eq!(marked[0], [true]);
        assert_eq!(
            marked[1],
            [true, true, false],
            "helper and leaf, not unreached"
        );
    }

    #[test]
    fn method_calls_and_turbofish_count_as_edges() {
        let files = parse(&[
            (
                "crates/bench/src/bin/regen_all.rs",
                "fn main() { rt.run_phase::<u8>(x); obj.render(); }",
            ),
            (
                "crates/runtime/src/runtime.rs",
                "pub fn run_phase() {}\npub fn render() {}",
            ),
        ]);
        let marked = output_path(&files);
        assert_eq!(marked[1], [true, true]);
    }

    #[test]
    fn macros_and_keywords_are_not_edges() {
        let files = parse(&[
            (
                "crates/bench/src/reports/t.rs",
                "pub fn run() { println!(\"x\"); if (a) {} }",
            ),
            ("crates/x/src/lib.rs", "pub fn println() {}"),
        ]);
        let marked = output_path(&files);
        assert_eq!(marked[1], [false]);
    }

    #[test]
    fn non_seed_files_start_unmarked() {
        let files = parse(&[(
            "crates/telemetry/src/span.rs",
            "pub fn chrome_trace() { emit(); }",
        )]);
        assert_eq!(output_path(&files)[0], [false]);
    }

    #[test]
    fn serve_serialization_surface_is_seeded() {
        let files = parse(&[("crates/serve/src/wire.rs", "pub fn encode() { to_json(); }")]);
        assert_eq!(output_path(&files)[0], [true]);
    }
}
