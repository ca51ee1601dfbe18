//! What a workload run hands back, and how it is printed: a readable
//! report on stderr and, as the last line of stdout, one JSON object.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::measure::{median, summarize, Digest, Tracer};

/// Set-up times of one run. A workload times its set-up in batches,
/// spread over the run where it can, and `setup_s` is the best of them,
/// as the tune latencies are each op's best: a set-up's median moved by
/// a fifth between sets of runs of the same code a few minutes apart,
/// with the host, while its best moved with the work it does (work
/// moved into set-up slows every set-up, the best included).
#[derive(Default)]
pub struct SetupTimes {
    times: Vec<f64>,
    batches: usize,
}

impl SetupTimes {
    /// Times `make` `reps` times in a row and returns the last result;
    /// the earlier results are dropped untimed.
    pub fn batch<T>(&mut self, reps: usize, mut make: impl FnMut() -> T) -> T {
        let mut value = None;
        for _ in 0..reps.max(1) {
            drop(value.take());
            let t0 = Instant::now();
            value = Some(make());
            self.times.push(t0.elapsed().as_secs_f64());
        }
        self.batches += 1;
        value.expect("at least one set-up ran")
    }

    /// Wall seconds of the fastest set-up.
    pub fn best(&self) -> f64 {
        self.times.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn note(&self) -> String {
        format!(
            "best of {} set-ups in {} batches",
            self.times.len(),
            self.batches
        )
    }
}

/// Every per-layer metric a traced run prints, with its unit, in
/// report order. A workload that bypasses a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.run_ms", "ms"),
    ("sparse.vn_sizes_ms", "ms"),
    ("sparse.groups", "count"),
    ("sparse.us_per_group", "us"),
    ("verify.reject_ms", "ms"),
    ("verify.calls", "count"),
    ("verify.rejected", "count"),
    ("verify.reject_ratio", "ratio"),
    ("maeri.score_ms", "ms"),
    ("maeri.score_calls", "count"),
    ("cycle_sim.validate_ms", "ms"),
    ("cycle_sim.calls", "count"),
    ("cycle_sim.sim_cycles", "count"),
    ("cycle_sim.ns_per_sim_cycle", "ns/cycle"),
    ("mapspace.search_ms", "ms"),
    ("mapspace.enumerate_ms", "ms"),
    ("mapspace.self_ms", "ms"),
    ("mapspace.candidates", "count"),
    ("mapspace.scored", "count"),
    ("mapspace.pruned", "count"),
    ("runtime.parallel_efficiency", "ratio"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.executed", "count"),
    ("wire.submit_ms", "ms"),
    ("wire.poll_ms", "ms"),
    ("wire.fetch_ms", "ms"),
    ("wire.polls_per_job", "count"),
    ("wire.transport_share", "ratio"),
    ("service.server_p50_us", "us"),
    ("service.queue_high_water", "count"),
    ("service.rejected", "count"),
    ("serve.store_hit_ratio", "ratio"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("journal.append_us", "us"),
    ("journal.appends", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything one run measured.
pub struct Outcome {
    pub setup: SetupTimes,
    /// Peak resident set size (MiB), read when the timed phase ends,
    /// before the output checks and the traced replay.
    pub peak_rss_mb: f64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    digest: Digest,
    pub jobs_per_s: f64,
    /// Per-request latencies (ms).
    pub request_ms: Vec<f64>,
    /// `request_tail_ms` is the largest of `request_ms` rather than a
    /// percentile: set where each sample stands for one kind of
    /// request (a tune op at its best) rather than one request.
    pub tail_is_max: bool,
    /// How the request latencies were sampled, for the report.
    pub request_note: String,
    /// Tuning workloads only, where one request is one search:
    /// `SearchCounters.enumerated` per second.
    pub candidates_per_s: Option<f64>,
    /// Per-layer metrics of a traced run, by name.
    layers: BTreeMap<&'static str, f64>,
    /// The spans of a traced run, written out at exit.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn new(setup: SetupTimes) -> Self {
        Outcome {
            setup,
            peak_rss_mb: 0.0,
            wall_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: Digest::new(),
            jobs_per_s: 0.0,
            request_ms: Vec::new(),
            tail_is_max: false,
            request_note: String::new(),
            candidates_per_s: None,
            layers: BTreeMap::new(),
            spans: None,
        }
    }

    /// Adds one op's output text to the digest (in op order).
    pub fn output(&mut self, text: &str) {
        self.digest.add(text);
    }

    /// Counts one attempted op; any failure or output mismatch counts
    /// it as failed.
    pub fn attempt(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            let room = 5usize.saturating_sub(self.failures.len());
            self.failures.extend(failures.iter().take(room).cloned());
        }
    }

    /// Records per-layer metric `name` (one of [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layers.insert(name, value);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics: name, value, unit, a note on how the
    /// value was summarised, and whether it goes into the JSON result
    /// (the metrics `BENCHMARK.json` gates, which every workload has).
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, String, bool)> {
        let (p50, tail, tail_note) = match summarize(&self.request_ms) {
            Some(s) if self.tail_is_max => {
                let max = self.request_ms.iter().copied().fold(0.0, f64::max);
                (s.p50, max, format!("largest of {} ops", s.n))
            }
            Some(s) => (s.p50, s.tail, format!("p{} of {} samples", s.tail_pct, s.n)),
            None => (0.0, 0.0, "no samples".to_owned()),
        };
        let mut rows = vec![
            ("setup_s", self.setup.best(), "s", self.setup.note(), true),
            ("peak_rss_mb", self.peak_rss_mb, "MiB", String::new(), true),
        ];
        if let Some(rate) = self.candidates_per_s {
            rows.push((
                "candidates_per_s",
                rate,
                "candidates/s",
                String::new(),
                false,
            ));
            // One request is one search here: the search latencies are
            // the request latencies, printed under both names.
            rows.push(("search_p50_ms", p50, "ms", self.request_note.clone(), false));
            rows.push(("search_tail_ms", tail, "ms", tail_note.clone(), false));
        }
        rows.extend([
            ("jobs_per_s", self.jobs_per_s, "jobs/s", String::new(), true),
            ("request_p50_ms", p50, "ms", self.request_note.clone(), true),
            ("request_tail_ms", tail, "ms", tail_note, true),
            (
                "failed_frac",
                self.failed_frac(),
                "ratio",
                format!("{} of {} ops", self.failed, self.attempted),
                false,
            ),
        ]);
        rows
    }

    /// Prints the report to stderr and the JSON result line to stdout.
    pub fn print(&self, header: &str, traced: bool) {
        let digest = self.digest.hex();
        eprintln!("{header}");
        eprintln!(
            "ops={} wall_s={:.3} digest={digest} (FNV-1a over the outputs of one pass, in op order)",
            self.attempted, self.wall_s
        );
        for failure in &self.failures {
            eprintln!("FAILED {failure}");
        }
        let mut json = Vec::new();
        if traced {
            eprintln!("per-layer metrics (traced run; end-to-end figures come from the untraced run, --trace 0):");
            for (name, unit) in PER_LAYER {
                let value = self.layers.get(name).copied().unwrap_or(0.0);
                eprintln!("  {name:<28} {value:>14.6} {unit}");
                json.push(metric_json(name, value, unit));
            }
            // Beside the layer figures, the client-side p50 they explain
            // (of this run's untraced part, so not an end-to-end figure).
            eprintln!(
                "  {:<28} {:>14.6} ms (untraced part of this run)",
                "request_p50_ms",
                median(&self.request_ms)
            );
        } else {
            eprintln!("end-to-end metrics (untraced run):");
            for (name, value, unit, note, gated) in self.end_to_end() {
                eprintln!("  {name:<28} {value:>14.6} {unit:<13} {note}");
                if gated {
                    json.push(metric_json(name, value, unit));
                }
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // Rust's shortest round-trip float formatting keeps every digit.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}
