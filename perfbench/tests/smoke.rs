//! Runs every workload for a few ops and checks the benchmark itself:
//! every metric is printed with a unit, no op fails, and digests and
//! exact counts repeat between runs and between one and two client
//! threads.

use std::path::PathBuf;
use std::process::Command;

use maeri_telemetry::json::{self, JsonValue};

/// The end-to-end metrics of the JSON result: every workload has them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "jobs_per_s",
    "request_p50_ms",
    "request_tail_ms",
];

/// End-to-end metrics the report prints on the tuning workloads only.
const SEARCH_ONLY: &[(&str, &str)] = &[
    ("candidates_per_s", "candidates/s"),
    ("search_p50_ms", "ms"),
    ("search_tail_ms", "ms"),
];

const PER_LAYER: &[&str] = &[
    "sparse.run_ms",
    "sparse.vn_sizes_ms",
    "sparse.groups",
    "sparse.us_per_group",
    "verify.reject_ms",
    "verify.calls",
    "verify.rejected",
    "verify.reject_ratio",
    "maeri.score_ms",
    "maeri.score_calls",
    "cycle_sim.validate_ms",
    "cycle_sim.calls",
    "cycle_sim.sim_cycles",
    "cycle_sim.ns_per_sim_cycle",
    "mapspace.search_ms",
    "mapspace.enumerate_ms",
    "mapspace.self_ms",
    "mapspace.candidates",
    "mapspace.scored",
    "mapspace.pruned",
    "runtime.parallel_efficiency",
    "runtime.cache_hit_ratio",
    "runtime.executed",
    "wire.submit_ms",
    "wire.poll_ms",
    "wire.fetch_ms",
    "wire.polls_per_job",
    "wire.transport_share",
    "service.server_p50_us",
    "service.queue_high_water",
    "service.rejected",
    "serve.store_hit_ratio",
    "store.put_us",
    "store.get_us",
    "journal.append_us",
    "journal.appends",
    "trace.overhead_frac",
];

/// Counts that must repeat exactly on a fixed op set.
const EXACT: &[&str] = &[
    "sparse.groups",
    "mapspace.candidates",
    "verify.rejected",
    "journal.appends",
];

struct Run {
    result: JsonValue,
    stderr: String,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("metric {name} missing:\n{}", self.stderr))
    }

    fn digest(&self) -> &str {
        let at = self.stderr.find("digest=").expect("report prints a digest") + 7;
        &self.stderr[at..at + 16]
    }
}

fn run(workload: &str, ops: usize, trace: bool, threads: usize) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "60"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--ops", &ops.to_string(), "--threads", &threads.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(output.status.success(), "{workload} failed:\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{stderr}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{stderr}"
    );
    // A traced run runs the op set twice: untraced, then traced.
    assert_eq!(
        result.get("attempted").and_then(JsonValue::as_u64),
        Some(ops as u64 * if trace { 2 } else { 1 })
    );
    Run { result, stderr }
}

fn check_workload(workload: &str, ops: usize) {
    let plain = run(workload, ops, false, 2);
    for name in END_TO_END {
        let unit = plain
            .result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("unit"))
            .and_then(JsonValue::as_str);
        assert!(
            unit.is_some_and(|u| !u.is_empty()),
            "{workload}: {name} has no unit"
        );
        assert!(plain.metric(name) >= 0.0, "{workload}: {name} is negative");
    }
    for name in END_TO_END {
        assert!(
            plain.metric(name) > 0.0,
            "{workload}: {name} is not positive"
        );
    }
    let tune = workload != "serve_wire";
    for (name, unit) in SEARCH_ONLY {
        let printed = plain.stderr.lines().any(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            words.len() >= 3
                && words[0] == *name
                && words[1].parse::<f64>().is_ok_and(|v| v > 0.0)
                && words[2] == *unit
        });
        assert_eq!(
            printed, tune,
            "{workload}: {name} printed={printed}:\n{}",
            plain.stderr
        );
    }
    assert!(
        plain
            .stderr
            .lines()
            .any(|l| l.split_whitespace().collect::<Vec<_>>()[..]
                == [
                    "failed_frac",
                    "0.000000",
                    "ratio",
                    "0",
                    "of",
                    &ops.to_string(),
                    "ops"
                ][..]),
        "{workload}: failed_frac is not reported as 0:\n{}",
        plain.stderr
    );

    let traced = run(workload, ops, true, 2);
    let again = run(workload, ops, true, 2);
    for name in PER_LAYER {
        let _ = traced.metric(name);
    }
    for name in EXACT {
        assert_eq!(
            traced.metric(name),
            again.metric(name),
            "{workload}: {name} differs between runs"
        );
    }
    let single = run(workload, ops, false, 1);
    assert_eq!(
        plain.digest(),
        traced.digest(),
        "{workload}: digest differs when traced"
    );
    assert_eq!(
        plain.digest(),
        again.digest(),
        "{workload}: digest differs between runs"
    );
    assert_eq!(
        plain.digest(),
        single.digest(),
        "{workload}: digest differs at one thread"
    );
}

#[test]
fn sparse_tune() {
    check_workload("sparse_tune", 3);
}

#[test]
fn dense_tune() {
    check_workload("dense_tune", 6);
}

#[test]
fn serve_wire() {
    check_workload("serve_wire", 6);
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "dense_tune", "--trace", "2"][..],
        &["--workload", "dense_tune", "--seed", "x"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!output.status.success(), "{args:?} was accepted");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
