//! The repository invariant checks behind `cargo run -p xtask -- lint`.
//!
//! Every Rust-reading check is a pure function over
//! [`maeri_analyze::FileAst`]s, the same front end the determinism
//! analyzer uses: scans run over the scrubbed, test-blanked `code`, so
//! comments, string literals and `#[cfg(test)]` items never count, and
//! literal contents (report names, `name()` strings) are read from the
//! byte-aligned `source`. [`lint_workspace`] parses the tree with the
//! analyzer's walker and feeds every file through the checks; the unit
//! tests below prove each check fails on a seeded violation.
//!
//! Checks:
//!
//! 1. **Probe-twin sync** — every `pub fn NAME_probed` in `crates/maeri`
//!    and `crates/noc` must have a plain `fn NAME` in the same file,
//!    and one of the pair must call the other, or both must call the
//!    two halves of one inner pair (so the probed and unprobed entry
//!    points cannot drift apart).
//! 2. **Unwrap allowlist** — `.unwrap()` / `.expect(` calls in non-test
//!    code are only allowed in allowlisted files, and allowlist entries
//!    that no longer match anything are stale.
//! 3. **Report registry** — `crates/bench/src/reports/mod.rs` ids must
//!    be unique, contiguous, and start at 1 (EXPERIMENTS.md quotes
//!    them).
//! 4. **Unsafe-code headers** — every crate entry point carries
//!    `#![forbid(unsafe_code)]`.
//! 5. **Doc path references** — backtick-quoted repo paths in the
//!    top-level docs (README, ROADMAP, DESIGN, EXPERIMENTS) must exist
//!    in the tree, so refactors cannot leave the docs pointing at
//!    nothing.
//! 6. **Closed catalogs** — for each row of [`CATALOGS`] (chaos
//!    `FaultPoint`, trace `SpanKind`, fleet `PlacementPolicy`), every
//!    variant must be listed in the enum's `ALL`, carry a stable
//!    snake_case `name()` string, be exercised in the row's coverage
//!    scope (by qualified name, by its quoted name string, or by a
//!    sweep over `ALL`), and, where the row asks, be emitted in its
//!    emitter scope and listed in DESIGN.md.

use maeri_analyze::classify::called_names;
use maeri_analyze::lexer::line_of;
use maeri_analyze::workspace::parse_trees;
use maeri_analyze::FileAst;
use std::io;
use std::ops::Range;
use std::path::Path;

/// One violated invariant: the offending path plus a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl Finding {
    fn new(path: &str, message: impl Into<String>) -> Self {
        Finding {
            path: path.to_owned(),
            message: message.into(),
        }
    }
}

/// Trees whose files checks 1–4 read: the facade, every crate (xtask
/// included) and every compat shim.
const SOURCE_TREES: &[&str] = &["src", "crates", "compat"];

/// Test trees read only as catalog coverage. The walker does not
/// descend into `tests/` directories, so they are walked on their own.
const TEST_TREES: &[&str] = &["crates/serve/tests", "crates/fleet/tests"];

/// Files allowed to call `.unwrap()` / `.expect(` outside test code.
/// Every entry documents a deliberate panic-on-violated-invariant
/// policy (poisoned mutexes, validated-at-build-time constants, report
/// printers that own their inputs). Adding a file here is a reviewed
/// decision; entries that stop matching are flagged as stale.
pub const UNWRAP_ALLOWLIST: &[&str] = &[
    "crates/baselines/src/cluster.rs",
    "crates/bench/src/bin/mapcheck.rs",
    "crates/bench/src/experiments.rs",
    "crates/bench/src/reports/ablations.rs",
    "crates/bench/src/reports/chaos_recovery.rs",
    "crates/bench/src/reports/energy.rs",
    "crates/bench/src/reports/fault_sweep.rs",
    "crates/bench/src/reports/figure13.rs",
    "crates/bench/src/reports/figure16.rs",
    "crates/bench/src/reports/mapping_search.rs",
    "crates/bench/src/reports/service_load.rs",
    "crates/bench/src/reports/service_trace.rs",
    "crates/bench/src/reports/telemetry_profile.rs",
    "crates/dnn/src/tensor.rs",
    "crates/maeri/src/art.rs",
    "crates/maeri/src/config.rs",
    "crates/maeri/src/functional.rs",
    "crates/maeri/src/viz.rs",
    "crates/mapspace/src/search.rs",
    "crates/noc/src/ppa.rs",
    "crates/runtime/src/cache.rs",
    "crates/runtime/src/metrics.rs",
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/runtime.rs",
    "crates/runtime/src/supervise.rs",
    "crates/serve/src/chaos.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/recorder.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/store.rs",
    "crates/telemetry/src/json.rs",
];

/// One closed catalog: a fieldless enum whose variant set must stay in
/// step with its `ALL` array, its `name()` strings, its tests and,
/// per row, its emitters and DESIGN.md. Scopes are path prefixes (a
/// directory ends in `/`) or whole files; the catalog file itself
/// never counts toward its own scopes, since its `ALL` and `name()`
/// mention every variant.
#[derive(Debug, Clone, Copy)]
pub struct Catalog {
    /// The enum's identifier.
    pub enum_name: &'static str,
    /// The file declaring the enum.
    pub file: &'static str,
    /// Where each variant must be named in non-test code; empty means
    /// no emitter requirement.
    pub emitters: &'static [&'static str],
    /// Where each variant must be exercised.
    pub coverage: &'static [&'static str],
    /// Whether DESIGN.md must list each variant's snake_case name.
    pub documented: bool,
}

/// Check 6's table. A new fault cannot ship without the chaos harness
/// injecting it, a new span kind without the serving stack emitting it
/// and a test asserting on it, a new placement policy untested or
/// undocumented.
pub const CATALOGS: [Catalog; 3] = [
    Catalog {
        enum_name: "FaultPoint",
        file: "crates/serve/src/chaos.rs",
        emitters: &[],
        coverage: &[
            "crates/serve/tests/",
            "crates/bench/src/reports/chaos_recovery.rs",
        ],
        documented: false,
    },
    Catalog {
        enum_name: "SpanKind",
        file: "crates/telemetry/src/span.rs",
        emitters: &["crates/serve/src/", "crates/runtime/src/"],
        coverage: &[
            "crates/serve/tests/",
            "crates/bench/src/reports/service_trace.rs",
        ],
        documented: false,
    },
    Catalog {
        enum_name: "PlacementPolicy",
        file: "crates/fleet/src/placement.rs",
        emitters: &[],
        coverage: &[
            "crates/fleet/src/",
            "crates/fleet/tests/",
            "crates/bench/src/reports/fleet_schedule.rs",
        ],
        documented: true,
    },
];

/// The outcome of one lint run over the workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Source files checks 1–4 read.
    pub files: usize,
    /// Every violated invariant, in check order.
    pub findings: Vec<Finding>,
}

/// Runs every check over the workspace at `root`.
///
/// # Errors
///
/// Returns the first I/O failure walking or reading a Rust source.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = parse_trees(root, SOURCE_TREES)?;
    let sources = files.len();
    let mut findings = Vec::new();

    for file in &files {
        if file.path.starts_with("crates/maeri/src") || file.path.starts_with("crates/noc/src") {
            findings.extend(check_probe_twins(file));
        }
        if file.path.ends_with("/lib.rs") || file.path == "src/lib.rs" {
            findings.extend(check_forbid_unsafe(file));
        }
    }
    findings.extend(check_unwraps(&files, UNWRAP_ALLOWLIST));
    let registry = "crates/bench/src/reports/mod.rs";
    match files.iter().find(|f| f.path == registry) {
        Some(file) => findings.extend(check_report_registry(file)),
        None => findings.push(Finding::new(registry, "report registry file is missing")),
    }

    // Joining an absolute candidate yields the candidate itself.
    let exists = |candidate: &str| root.join(candidate).exists();
    for doc in ["README.md", "ROADMAP.md", "DESIGN.md", "EXPERIMENTS.md"] {
        if let Ok(content) = std::fs::read_to_string(root.join(doc)) {
            findings.extend(check_doc_paths(doc, &content, &exists));
        }
    }

    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    files.extend(parse_trees(root, TEST_TREES)?);
    for catalog in &CATALOGS {
        findings.extend(check_catalog(catalog, &files, &design));
    }
    Ok(LintReport {
        files: sources,
        findings,
    })
}

/// Check 2: `.unwrap()` / `.expect(` calls in non-test code outside
/// the allowlist; the allowlist is cross-checked for staleness.
pub fn check_unwraps(files: &[FileAst], allowlist: &[&str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut matched: Vec<&str> = Vec::new();
    for file in files {
        let hits: Vec<usize> = [".unwrap()", ".expect("]
            .iter()
            .flat_map(|call| file.code.match_indices(call).map(|(at, _)| at))
            .collect();
        let Some(&first) = hits.iter().min() else {
            continue;
        };
        if let Some(entry) = allowlist.iter().find(|e| **e == file.path) {
            matched.push(entry);
        } else {
            findings.push(Finding::new(
                &file.path,
                format!(
                    "{} non-test unwrap()/expect() call(s) (first at line {}); \
                     return a Result or add the file to UNWRAP_ALLOWLIST",
                    hits.len(),
                    line_of(&file.code, first)
                ),
            ));
        }
    }
    for entry in allowlist {
        if !matched.contains(entry) {
            findings.push(Finding::new(
                entry,
                "stale UNWRAP_ALLOWLIST entry: no non-test unwrap()/expect() left (remove it)",
            ));
        }
    }
    findings
}

/// Check 1: probed entry points stay in sync with their plain twins.
pub fn check_probe_twins(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    let calls = |name: &str| {
        file.fns
            .iter()
            .find(|f| f.name == name)
            .map(|f| called_names(&file.code[f.body.clone()]))
    };
    for probed in &file.fns {
        let Some(base) = probed.name.strip_suffix("_probed") else {
            continue;
        };
        if !file.code[..probed.start].trim_end().ends_with("pub") {
            continue;
        }
        let Some(plain_calls) = calls(base) else {
            findings.push(Finding::new(
                &file.path,
                format!(
                    "probed entry point `{}` has no plain twin `fn {base}`",
                    probed.name
                ),
            ));
            continue;
        };
        let probed_calls = called_names(&file.code[probed.body.clone()]);
        // Direct delegation: one twin calls the other. Parallel
        // delegation: the twins call the two halves of one inner pair
        // (`multicast_cycles` → `delivery_cycles`,
        // `multicast_cycles_probed` → `delivery_cycles_probed`), so
        // drift is prevented one level down.
        let delegates = probed_calls.contains(base)
            || plain_calls.contains(&probed.name)
            || probed_calls
                .iter()
                .filter_map(|c| c.strip_suffix("_probed"))
                .any(|inner| plain_calls.contains(inner));
        if !delegates {
            findings.push(Finding::new(
                &file.path,
                format!(
                    "`{}` and `fn {base}` do not delegate to each other; \
                     reimplementing one risks probe drift",
                    probed.name
                ),
            ));
        }
    }
    findings
}

/// The byte range between the first `open` at or after `from` and the
/// next `close`.
fn between(code: &str, from: usize, open: char, close: char) -> Option<Range<usize>> {
    let start = from + code[from..].find(open)? + 1;
    Some(start..start + code[start..].find(close)?)
}

/// The byte range of the initializer array of `const NAME` in scrubbed
/// `code`, searched from its `=` so a `[T; N]` type is skipped.
fn const_array(code: &str, name: &str) -> Option<Range<usize>> {
    let start = code.find(&format!("const {name}"))?;
    between(code, start + code[start..].find('=')?, '[', ']')
}

/// Check 3: the report registry's ids are unique, contiguous, and
/// start at 1; names are unique.
pub fn check_report_registry(file: &FileAst) -> Vec<Finding> {
    // Entries are `(id, "name", module::run),` lines; the name is a
    // literal, so it is read from the source.
    let body = const_array(&file.code, "REPORTS").map_or("", |r| &file.source[r]);
    let entries: Vec<(usize, &str)> = body
        .lines()
        .filter_map(|line| {
            let (id, tail) = line.trim_start().strip_prefix('(')?.split_once(',')?;
            Some((
                id.trim().parse().ok()?,
                tail.split('"').nth(1).unwrap_or(""),
            ))
        })
        .collect();
    if entries.is_empty() {
        return vec![Finding::new(
            &file.path,
            "no REPORTS registry entries found",
        )];
    }
    let mut findings = Vec::new();
    for (i, (id, _)) in entries.iter().enumerate() {
        if *id != i + 1 {
            findings.push(Finding::new(
                &file.path,
                format!(
                    "report ids must be contiguous from 1: position {} holds id {id}",
                    i + 1
                ),
            ));
        }
    }
    let mut names: Vec<&str> = entries.iter().map(|(_, n)| *n).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        if pair[0] == pair[1] {
            findings.push(Finding::new(
                &file.path,
                format!("duplicate report name \"{}\"", pair[0]),
            ));
        }
    }
    findings
}

/// Check 4: crate entry points must forbid unsafe code at the source
/// level (the workspace lint table covers crates that opt in; the
/// header makes the guarantee visible and file-local).
pub fn check_forbid_unsafe(file: &FileAst) -> Vec<Finding> {
    if file.code.contains("#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Finding::new(
            &file.path,
            "crate entry point is missing `#![forbid(unsafe_code)]`",
        )]
    }
}

/// Extracts the repo-path candidates referenced in backticks in a
/// markdown document: the first whitespace-separated word of each
/// backtick span, when it starts with a tracked prefix (`crates/`,
/// `examples/`, `compat/`, `src/`, `tests/`, `.github/`) or is an
/// absolute `/root/...` path. Globs are skipped; a trailing `/` or
/// punctuation is trimmed.
fn doc_path_candidates(content: &str) -> Vec<String> {
    const PREFIXES: &[&str] = &[
        "crates/",
        "examples/",
        "compat/",
        "src/",
        "tests/",
        ".github/",
        "/root/",
    ];
    let mut out = Vec::new();
    for span in content.split('`').skip(1).step_by(2) {
        let Some(word) = span.split_whitespace().next() else {
            continue;
        };
        let token = word.trim_end_matches(['/', '.', ',', ':', ';', ')']);
        if token.contains('*') || token.is_empty() {
            continue;
        }
        if PREFIXES.iter().any(|p| token.starts_with(p)) {
            out.push(token.to_owned());
        }
    }
    out
}

/// Check 5: backtick-quoted paths in top-level docs must exist in the
/// tree. `exists` answers for both repo-relative and absolute
/// candidates, so the check stays a pure function for tests.
pub fn check_doc_paths(doc: &str, content: &str, exists: &dyn Fn(&str) -> bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut flagged: Vec<String> = Vec::new();
    for candidate in doc_path_candidates(content) {
        if !exists(&candidate) && !flagged.contains(&candidate) {
            findings.push(Finding::new(
                doc,
                format!(
                    "references `{candidate}`, which does not exist in the tree \
                     (fix the reference or the path)"
                ),
            ));
            flagged.push(candidate);
        }
    }
    findings
}

/// Lowercases a CamelCase identifier into the snake_case form the
/// catalogs' `name()` strings use (`KillMidDispatch` →
/// `kill_mid_dispatch`).
fn snake_case(ident: &str) -> String {
    let mut out = String::new();
    for (i, c) in ident.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

/// The variants of the fieldless `enum NAME` in scrubbed `code`: the
/// comma-separated identifiers between its braces.
fn enum_variants(code: &str, name: &str) -> Vec<String> {
    let body = code
        .find(&format!("enum {name} "))
        .and_then(|at| between(code, at, '{', '}'))
        .map_or("", |r| &code[r]);
    body.split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty() && v.chars().all(|c| c.is_alphanumeric() || c == '_'))
        .map(str::to_owned)
        .collect()
}

/// Whether `path` falls in `scope` (path prefixes or whole files).
fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| path.starts_with(s))
}

/// Check 6: one closed catalog stays honest. `files` holds every
/// parsed file (sources and test trees); `design` is DESIGN.md.
pub fn check_catalog(catalog: &Catalog, files: &[FileAst], design: &str) -> Vec<Finding> {
    let (name, path) = (catalog.enum_name, catalog.file);
    let Some(file) = files.iter().find(|f| f.path == path) else {
        return vec![Finding::new(
            path,
            format!("`{name}` catalog module is missing"),
        )];
    };
    let variants = enum_variants(&file.code, name);
    if variants.is_empty() {
        return vec![Finding::new(
            path,
            format!("no `pub enum {name}` variants found (the closed-catalog check needs them)"),
        )];
    }
    let others = || files.iter().filter(|f| f.path != path);
    let all_body = const_array(&file.code, "ALL").map_or("", |r| &file.code[r]);
    let sweep = format!("{name}::ALL");
    let mut findings = Vec::new();
    for variant in &variants {
        let qualified = format!("{name}::{variant}");
        let snake = snake_case(variant);
        let quoted = format!("\"{snake}\"");
        let in_all = all_body.contains(&qualified);
        if !in_all {
            findings.push(Finding::new(
                path,
                format!("{name} variant `{variant}` is missing from `{sweep}`"),
            ));
        }
        if !file.source.contains(&quoted) {
            findings.push(Finding::new(
                path,
                format!("{name} variant `{variant}` has no stable `name()` string {quoted}"),
            ));
        }
        if !catalog.emitters.is_empty()
            && !others()
                .filter(|f| in_scope(&f.path, catalog.emitters))
                .any(|f| f.code.contains(&qualified))
        {
            findings.push(Finding::new(
                path,
                format!(
                    "{name} variant `{variant}` is never emitted under {} \
                     (emit it, or retire it from `{name}`)",
                    catalog.emitters.join(", ")
                ),
            ));
        }
        let exercised = others()
            .filter(|f| in_scope(&f.path, catalog.coverage))
            .any(|f| {
                f.source.contains(&qualified)
                    || f.source.contains(&quoted)
                    || (in_all && f.source.contains(&sweep))
            });
        if !exercised {
            findings.push(Finding::new(
                path,
                format!(
                    "{name} variant `{variant}` is not exercised under {} \
                     (name it, or sweep `{sweep}`)",
                    catalog.coverage.join(", ")
                ),
            ));
        }
        if catalog.documented && !design.contains(&snake) {
            findings.push(Finding::new(
                path,
                format!(
                    "{name} variant `{variant}` is not listed in DESIGN.md \
                     (document {quoted} in its catalog section)"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(entries: &[(&str, &str)]) -> Vec<FileAst> {
        entries.iter().map(|(p, c)| FileAst::parse(p, c)).collect()
    }

    fn one(path: &str, source: &str) -> FileAst {
        FileAst::parse(path, source)
    }

    #[test]
    fn unwrap_outside_allowlist_is_flagged() {
        let files = parse(&[(
            "crates/foo/src/lib.rs",
            "pub fn f() { let x: Option<u8> = None; x.unwrap(); }",
        )]);
        let findings = check_unwraps(&files, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("1 non-test unwrap()"));
        assert!(findings[0].message.contains("line 1"));
    }

    #[test]
    fn allowlisted_unwrap_passes_and_test_code_is_ignored() {
        let files = parse(&[
            (
                "crates/foo/src/lib.rs",
                "pub fn f() { g().expect(\"invariant\"); }",
            ),
            (
                "crates/bar/src/lib.rs",
                "pub fn f() {}\n#[cfg(test)]\nmod tests { fn t() { f().unwrap(); } }",
            ),
            (
                "crates/baz/src/lib.rs",
                "// a comment mentioning .unwrap() is fine\npub fn f() {}",
            ),
        ]);
        assert_eq!(check_unwraps(&files, &["crates/foo/src/lib.rs"]), vec![]);
    }

    #[test]
    fn unwrap_in_string_literal_or_block_comment_is_not_counted() {
        let files = parse(&[(
            "crates/foo/src/lib.rs",
            "pub fn f() -> &'static str { /* never x.unwrap() here */ \"call .unwrap() or .expect(\" }",
        )]);
        assert_eq!(check_unwraps(&files, &[]), vec![]);
    }

    #[test]
    fn stale_allowlist_entry_is_flagged() {
        let files = parse(&[("crates/foo/src/lib.rs", "pub fn f() {}")]);
        let findings = check_unwraps(&files, &["crates/foo/src/lib.rs"]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale"));
    }

    #[test]
    fn missing_plain_twin_is_flagged() {
        let src = "pub fn fire_probed(sink: &mut S) -> u8 { 0 }";
        let findings = check_probe_twins(&one("crates/maeri/src/switch.rs", src));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no plain twin `fn fire`"));
    }

    #[test]
    fn non_delegating_twins_are_flagged() {
        // Both exist but each reimplements the logic independently.
        let src = "pub fn fire() -> u8 { compute() }\n\
                   pub fn fire_probed(sink: &mut S) -> u8 { compute_and_emit(sink) }";
        let findings = check_probe_twins(&one("crates/maeri/src/switch.rs", src));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("do not delegate"));
    }

    #[test]
    fn delegating_twins_pass_both_directions() {
        // Probed delegates to plain.
        let a = "pub fn fire() -> u8 { compute() }\n\
                 pub fn fire_probed(sink: &mut S) -> u8 { let v = self.fire(); sink.emit(); v }";
        assert_eq!(check_probe_twins(&one("a.rs", a)), vec![]);
        // Plain delegates to probed.
        let b = "pub fn run() -> u8 { run_probed(&mut NullSink) }\n\
                 pub fn run_probed<S>(sink: &mut S) -> u8 { 0 }";
        assert_eq!(check_probe_twins(&one("b.rs", b)), vec![]);
    }

    #[test]
    fn parallel_delegation_to_an_inner_pair_passes() {
        let src = "pub fn delivery() -> u8 { compute() }\n\
                   pub fn delivery_probed<S>(sink: &mut S) -> u8 { let v = self.delivery(); v }\n\
                   pub fn multicast() -> u8 { self.delivery() }\n\
                   pub fn multicast_probed<S>(sink: &mut S) -> u8 { self.delivery_probed(sink) }";
        assert_eq!(check_probe_twins(&one("dist.rs", src)), vec![]);
    }

    #[test]
    fn registry_gap_and_duplicate_are_flagged() {
        let src = r#"
pub const REPORTS: &[(usize, &str, fn())] = &[
    (1, "table1", table1::run),
    (3, "figure11", figure11::run),
    (4, "table1", table1::run),
];
"#;
        let findings = check_report_registry(&one("mod.rs", src));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("position 2 holds id 3")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("duplicate report name \"table1\"")));
    }

    #[test]
    fn contiguous_registry_passes() {
        let src = r#"
pub const REPORTS: &[(usize, &str, fn())] = &[
    (1, "table1", table1::run),
    (2, "table3", table3::run),
];
"#;
        assert_eq!(check_report_registry(&one("mod.rs", src)), vec![]);
    }

    #[test]
    fn dangling_doc_path_is_flagged_once() {
        let doc = "See `crates/gone/src/lib.rs` and `/root/related/` and \
                   again `crates/gone/src/lib.rs`; globs `crates/*/src` and \
                   commands `examples/ok.rs --flag x` are fine, as is the \
                   trailing slash in `crates/ok/tests/`.";
        let exists = |p: &str| p.starts_with("crates/ok") || p == "examples/ok.rs";
        let findings = check_doc_paths("DESIGN.md", doc, &exists);
        assert_eq!(findings.len(), 2, "each dangling path flagged once");
        assert!(findings[0].message.contains("crates/gone/src/lib.rs"));
        assert!(findings[1].message.contains("/root/related"));
    }

    #[test]
    fn existing_doc_paths_pass() {
        let doc = "Built from `src/lib.rs`; CI is `.github/workflows/ci.yml`.";
        let exists = |p: &str| p == "src/lib.rs" || p == ".github/workflows/ci.yml";
        assert_eq!(check_doc_paths("README.md", doc, &exists), vec![]);
    }

    const FAULTS: Catalog = CATALOGS[0];
    const SPANS: Catalog = CATALOGS[1];
    const POLICIES: Catalog = CATALOGS[2];

    /// Runs check 6 for `catalog` with its enum file holding `source`,
    /// plus the other `files`.
    fn catalog_findings(
        catalog: &Catalog,
        source: &str,
        files: &[(&str, &str)],
        design: &str,
    ) -> Vec<Finding> {
        let mut all = parse(files);
        all.push(one(catalog.file, source));
        check_catalog(catalog, &all, design)
    }

    const CHAOS_FIXTURE: &str = r#"
pub enum FaultPoint {
    /// Docs.
    TornTail,
    WedgedWorker,
}
impl FaultPoint {
    pub const ALL: [FaultPoint; 2] = [
        FaultPoint::TornTail,
        FaultPoint::WedgedWorker,
    ];
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::TornTail => "torn_tail",
            FaultPoint::WedgedWorker => "wedged_worker",
        }
    }
}
"#;

    #[test]
    fn fault_points_swept_via_all_pass() {
        let coverage = [(
            "crates/serve/tests/chaos.rs",
            "for fault in FaultPoint::ALL { run(fault); }",
        )];
        assert_eq!(
            catalog_findings(&FAULTS, CHAOS_FIXTURE, &coverage, ""),
            vec![]
        );
    }

    #[test]
    fn unexercised_fault_point_is_flagged() {
        let coverage = [("crates/serve/tests/chaos.rs", "run(FaultPoint::TornTail);")];
        let findings = catalog_findings(&FAULTS, CHAOS_FIXTURE, &coverage, "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`WedgedWorker`"));
        assert!(findings[0].message.contains("not exercised"));
    }

    #[test]
    fn fault_point_outside_all_or_without_name_is_flagged() {
        // `Extra` exists but is neither in ALL nor named, and the
        // ALL sweep in coverage cannot reach it.
        let src =
            CHAOS_FIXTURE.replace("pub enum FaultPoint {", "pub enum FaultPoint {\n    Extra,");
        let coverage = [(
            "crates/serve/tests/chaos.rs",
            "for fault in FaultPoint::ALL { run(fault); }",
        )];
        let findings = catalog_findings(&FAULTS, &src, &coverage, "");
        assert!(findings.iter().any(|f| f
            .message
            .contains("`Extra` is missing from `FaultPoint::ALL`")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("no stable `name()` string \"extra\"")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("`Extra` is not exercised")));
    }

    #[test]
    fn missing_fault_point_enum_is_flagged() {
        let findings = catalog_findings(&FAULTS, "pub fn nothing() {}", &[], "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no `pub enum FaultPoint`"));
    }

    const SPAN_FIXTURE: &str = r#"
pub enum SpanKind {
    /// Docs.
    QueueWait,
    Dispatch,
}
impl SpanKind {
    pub const ALL: [SpanKind; 2] = [
        SpanKind::QueueWait,
        SpanKind::Dispatch,
    ];
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Dispatch => "dispatch",
        }
    }
}
"#;

    #[test]
    fn emitted_and_swept_span_kinds_pass() {
        let files = [
            (
                "crates/serve/src/service.rs",
                "fn f() { rec(SpanKind::QueueWait); rec(SpanKind::Dispatch); }",
            ),
            (
                "crates/serve/tests/trace.rs",
                "for kind in SpanKind::ALL { assert_present(kind); }",
            ),
        ];
        assert_eq!(catalog_findings(&SPANS, SPAN_FIXTURE, &files, ""), vec![]);
    }

    #[test]
    fn unemitted_and_unexercised_span_kind_is_flagged() {
        let files = [
            ("crates/serve/src/service.rs", "rec(SpanKind::QueueWait);"),
            ("crates/serve/tests/trace.rs", "has(SpanKind::QueueWait);"),
        ];
        let findings = catalog_findings(&SPANS, SPAN_FIXTURE, &files, "");
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("`Dispatch` is never emitted"));
        assert!(findings[1].message.contains("`Dispatch` is not exercised"));
    }

    #[test]
    fn snake_case_name_string_counts_as_coverage() {
        let files = [
            (
                "crates/serve/src/service.rs",
                "rec(SpanKind::QueueWait); rec(SpanKind::Dispatch);",
            ),
            (
                "crates/serve/tests/trace.rs",
                r#"assert!(log.contains("queue_wait") && log.contains("dispatch"));"#,
            ),
        ];
        assert_eq!(catalog_findings(&SPANS, SPAN_FIXTURE, &files, ""), vec![]);
    }

    #[test]
    fn span_kind_outside_all_or_without_name_is_flagged() {
        // `Extra` exists but is neither in ALL nor named, so the ALL
        // sweep in coverage cannot reach it.
        let src = SPAN_FIXTURE.replace("pub enum SpanKind {", "pub enum SpanKind {\n    Extra,");
        let files = [
            (
                "crates/serve/src/service.rs",
                "rec(SpanKind::QueueWait); rec(SpanKind::Dispatch); rec(SpanKind::Extra);",
            ),
            (
                "crates/serve/tests/trace.rs",
                "for kind in SpanKind::ALL { assert_present(kind); }",
            ),
        ];
        let findings = catalog_findings(&SPANS, &src, &files, "");
        assert!(findings.iter().any(|f| f
            .message
            .contains("`Extra` is missing from `SpanKind::ALL`")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("no stable `name()` string \"extra\"")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("`Extra` is not exercised")));
    }

    #[test]
    fn missing_span_kind_enum_is_flagged() {
        let findings = catalog_findings(&SPANS, "pub fn nothing() {}", &[], "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no `pub enum SpanKind`"));
    }

    #[test]
    fn span_kind_named_only_in_a_comment_or_test_is_not_emitted() {
        let files = [
            (
                "crates/serve/src/service.rs",
                "// rec(SpanKind::Dispatch);\nfn f() { rec(SpanKind::QueueWait); }\n\
                 #[cfg(test)]\nmod tests { fn t() { rec(SpanKind::Dispatch); } }",
            ),
            (
                "crates/serve/tests/trace.rs",
                "for kind in SpanKind::ALL { assert_present(kind); }",
            ),
        ];
        let findings = catalog_findings(&SPANS, SPAN_FIXTURE, &files, "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`Dispatch` is never emitted"));
    }

    const PLACEMENT_FIXTURE: &str = r#"
pub enum PlacementPolicy {
    /// Docs.
    HomogeneousMaeri,
    Greedy,
}
impl PlacementPolicy {
    pub const ALL: [PlacementPolicy; 2] = [
        PlacementPolicy::HomogeneousMaeri,
        PlacementPolicy::Greedy,
    ];
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::HomogeneousMaeri => "homogeneous_maeri",
            PlacementPolicy::Greedy => "greedy",
        }
    }
}
"#;

    #[test]
    fn swept_and_documented_placement_policies_pass() {
        let coverage = [(
            "crates/fleet/tests/fleet_scheduling.rs",
            "for policy in PlacementPolicy::ALL { simulate(policy); }",
        )];
        let design = "Policies: `homogeneous_maeri` baseline, `greedy` best-backend.";
        assert_eq!(
            catalog_findings(&POLICIES, PLACEMENT_FIXTURE, &coverage, design),
            vec![]
        );
    }

    #[test]
    fn unexercised_and_undocumented_placement_policy_is_flagged() {
        let coverage = [(
            "crates/fleet/tests/fleet_scheduling.rs",
            "simulate(PlacementPolicy::HomogeneousMaeri);",
        )];
        let design = "Policies: `homogeneous_maeri` baseline.";
        let findings = catalog_findings(&POLICIES, PLACEMENT_FIXTURE, &coverage, design);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("`Greedy` is not exercised"));
        assert!(findings[1]
            .message
            .contains("`Greedy` is not listed in DESIGN.md"));
    }

    #[test]
    fn placement_policy_outside_all_or_without_name_is_flagged() {
        // `Extra` is neither in ALL nor named, so the ALL sweep in
        // coverage cannot reach it.
        let src = PLACEMENT_FIXTURE.replace(
            "pub enum PlacementPolicy {",
            "pub enum PlacementPolicy {\n    Extra,",
        );
        let coverage = [(
            "crates/fleet/tests/fleet_scheduling.rs",
            "for policy in PlacementPolicy::ALL { simulate(policy); }",
        )];
        let design = "Policies: `homogeneous_maeri`, `greedy`, `extra`.";
        let findings = catalog_findings(&POLICIES, &src, &coverage, design);
        assert!(findings.iter().any(|f| f
            .message
            .contains("`Extra` is missing from `PlacementPolicy::ALL`")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("no stable `name()` string \"extra\"")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("`Extra` is not exercised")));
    }

    #[test]
    fn missing_placement_policy_enum_is_flagged() {
        let findings = catalog_findings(&POLICIES, "pub fn nothing() {}", &[], "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .message
            .contains("no `pub enum PlacementPolicy`"));
    }

    #[test]
    fn missing_catalog_file_is_flagged() {
        let findings = check_catalog(&FAULTS, &[], "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("catalog module is missing"));
    }

    #[test]
    fn missing_forbid_header_is_flagged() {
        assert_eq!(
            check_forbid_unsafe(&one("lib.rs", "//! docs\npub fn f() {}")).len(),
            1
        );
        assert_eq!(
            check_forbid_unsafe(&one("lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}")),
            vec![]
        );
    }

    fn repo_root() -> std::path::PathBuf {
        crate::workspace_root().expect("crates/xtask sits two levels below the workspace root")
    }

    /// The gate itself, asserted from a test so `cargo test` alone
    /// proves `cargo run -p xtask -- lint` passes on the real tree.
    #[test]
    fn workspace_lints_clean() {
        let report = lint_workspace(&repo_root()).expect("workspace walk succeeds");
        for f in &report.findings {
            eprintln!("lint finding: {}: {}", f.path, f.message);
        }
        assert_eq!(report.findings, vec![]);
        assert!(report.files > 100, "only {} files checked", report.files);
    }

    /// Each real catalog still fails when a variant is planted in its
    /// enum but left out of `ALL`.
    #[test]
    fn planted_variant_fails_every_real_catalog() {
        let root = repo_root();
        let mut files = parse_trees(&root, SOURCE_TREES).expect("walk");
        files.extend(parse_trees(&root, TEST_TREES).expect("walk"));
        let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
        for catalog in &CATALOGS {
            let planted: Vec<FileAst> = files
                .iter()
                .map(|f| {
                    if f.path == catalog.file {
                        let decl = format!("pub enum {} {{", catalog.enum_name);
                        let source = f.source.replace(&decl, &format!("{decl}\n    Planted,"));
                        FileAst::parse(&f.path, &source)
                    } else {
                        f.clone()
                    }
                })
                .collect();
            assert_eq!(check_catalog(catalog, &files, &design), vec![]);
            let missing = format!("`Planted` is missing from `{}::ALL`", catalog.enum_name);
            assert!(
                check_catalog(catalog, &planted, &design)
                    .iter()
                    .any(|f| f.message.contains(&missing)),
                "{} accepted a variant left out of ALL",
                catalog.enum_name
            );
        }
    }
}
