//! Measurement plumbing shared by every workload: the closed-loop
//! runner, latency summaries, the output digest, peak memory, and the
//! in-memory span recorder of traced runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When a run stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop starting new work once this much wall time has passed.
    pub seconds: f64,
    /// Run exactly this many operations instead (fixes the op set, so
    /// exact counts and digests can be compared across runs).
    pub max_ops: Option<usize>,
}

/// What a closed loop produced: one record per operation, in op order.
pub struct LoopRun<R> {
    /// Records indexed by op number `0..records.len()`.
    pub records: Vec<R>,
    /// Wall time from the first claim to the last completion.
    pub wall: Duration,
    /// Per client: the ops it ran and the time from the start to its
    /// last completion.
    pub clients: Vec<(Vec<usize>, Duration)>,
}

impl<R> LoopRun<R> {
    /// Aggregate rate of `weight` (of op `i`) per second: the sum over
    /// clients of each client's total over its own active time. Unlike
    /// a total over the whole wall, it does not count the drain at the
    /// end, when one client has stopped and the other finishes its op.
    pub fn rate(&self, weight: impl Fn(usize) -> f64) -> f64 {
        self.clients
            .iter()
            .filter(|(_, active)| !active.is_zero())
            .map(|(ops, active)| ops.iter().map(|&i| weight(i)).sum::<f64>() / active.as_secs_f64())
            .sum()
    }
}

/// Runs a closed loop over ops `0..ops`: each context (one per client
/// thread) claims the next op index, runs it to completion, and only
/// then claims again, until the ops run out or `deadline` passes.
/// Indices are claimed in order and every claimed op completes, so the
/// records always cover a contiguous prefix `0..n` of the op sequence.
pub fn closed_loop<C, R, F>(
    contexts: Vec<C>,
    ops: usize,
    deadline: Option<Instant>,
    op: F,
) -> LoopRun<R>
where
    C: Send,
    R: Send,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Vec<(usize, R)>, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = contexts
            .into_iter()
            .map(|mut ctx| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= ops {
                            break;
                        }
                        mine.push((i, op(&mut ctx, i)));
                    }
                    (mine, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut clients = Vec::new();
    let mut records: Vec<(usize, R)> = Vec::new();
    for (mine, active) in per_client {
        clients.push((mine.iter().map(|(i, _)| *i).collect(), active));
        records.extend(mine);
    }
    records.sort_by_key(|(i, _)| *i);
    LoopRun {
        records: records.into_iter().map(|(_, r)| r).collect(),
        wall,
        clients,
    }
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail: the highest whole percentile with at least ten
    /// samples above it (nearest rank); the maximum when there are ten
    /// samples or fewer.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: u32,
    /// Number of samples.
    pub n: usize,
}

/// Summarises `samples` (any order). `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |pct: u32| -> f64 {
        // Nearest rank: the smallest sample with at least pct% of the
        // sample at or below it.
        let k = (pct as usize * n).div_ceil(100).max(1);
        sorted[k - 1]
    };
    let tail_pct = if n > 10 {
        ((n - 10) * 100 / n) as u32
    } else {
        100
    };
    Some(Summary {
        p50: rank(50),
        tail: rank(tail_pct),
        tail_pct,
        n,
    })
}

/// FNV-1a over a sequence of texts, with a separator so that moving a
/// byte between neighbouring texts changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(0xff)) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

/// Time an op spent in one layer: a single call, or the summed calls
/// of a per-candidate stage (one span per op and stage keeps a search
/// of thousands of candidates to a handful of spans).
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (search or served job) the time belongs to.
    pub op: usize,
    /// Layer-qualified stage name, e.g. `verify.reject`.
    pub name: &'static str,
    /// The stage that caused this one (`None` for an op's root).
    pub parent: Option<&'static str>,
    /// Offset of the first call's start from the tracer's epoch.
    pub start: Duration,
    /// Summed duration of the calls.
    pub dur: Duration,
    /// Number of calls summed.
    pub calls: u64,
}

/// Per-op accumulator of stage spans; [`OpSpans::finish`] hands them
/// to the tracer.
pub struct OpSpans<'t> {
    tracer: &'t Tracer,
    op: usize,
    spans: Vec<Span>,
}

impl OpSpans<'_> {
    /// Times `f` as one call of stage `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, parent, t0, t0.elapsed());
        out
    }

    /// Adds one call of stage `name` that started at `t0` and took `dur`.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        t0: Instant,
        dur: Duration,
    ) {
        if let Some(span) = self.spans.iter_mut().find(|s| s.name == name) {
            span.dur += dur;
            span.calls += 1;
        } else {
            self.spans.push(Span {
                op: self.op,
                name,
                parent,
                start: t0.saturating_duration_since(self.tracer.epoch),
                dur,
                calls: 1,
            });
        }
    }

    pub fn finish(self) {
        self.tracer
            .spans
            .lock()
            .expect("span lock poisoned")
            .extend(self.spans);
    }
}

/// In-memory span recorder plus exact counters. Spans stay in memory
/// until [`Tracer::write`] at exit; aggregation reads them back.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Starts collecting the spans of `op`.
    pub fn op(&self, op: usize) -> OpSpans<'_> {
        OpSpans {
            tracer: self,
            op,
            spans: Vec::new(),
        }
    }

    /// Adds `amount` to the exact counter `name`.
    pub fn count(&self, name: &'static str, amount: u64) {
        *self
            .counts
            .lock()
            .expect("count lock poisoned")
            .entry(name)
            .or_insert(0) += amount;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("count lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Calls summed into spans named `name`, and their total duration.
    pub fn total(&self, name: &str) -> (u64, Duration) {
        let spans = self.spans.lock().expect("span lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, Duration::ZERO), |(n, d), s| (n + s.calls, d + s.dur))
    }

    /// Summed duration of every span whose parent is `parent`.
    pub fn children_total(&self, parent: &str) -> Duration {
        let spans = self.spans.lock().expect("span lock poisoned");
        spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.dur)
            .sum()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"calls\":{}}}",
                s.op,
                s.name,
                s.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.calls
            )?;
        }
        out.flush()
    }
}
