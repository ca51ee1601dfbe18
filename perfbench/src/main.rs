//! `perfbench`: the repository benchmark. Each workload is generated
//! from `--seed`, driven as a closed loop of at most two client threads
//! for `--seconds`, checked for correct outputs, and reported as host
//! time: end-to-end metrics with `--trace 0`, per-layer metrics (from a
//! replay of each op's stages through the public calls) with
//! `--trace 1`. The last line of stdout is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparse_tune --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Optional flags: `--threads N` (client threads, default 2) and
//! `--ops N` (run exactly N ops instead of stopping on time, so digests
//! and exact counts can be compared between runs).

mod measure;
mod report;
mod serve;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Budget;
use tune::Kind;

const WORKLOADS: &[&str] = &["sparse_tune", "dense_tune", "serve_wire"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: 2,
        ops: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{text}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)? as f64,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--threads" => args.threads = number(value()?)? as usize,
            "--ops" => args.ops = Some(number(value()?)? as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(1..=2).contains(&args.threads) {
        return Err("--threads takes 1 or 2".to_owned());
    }
    if args.ops == Some(0) || (args.ops.is_none() && args.seconds <= 0.0) {
        return Err("nothing to run: --ops and --seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Scratch space for the serve store and journal, and the span
    // files of traced runs, inside the working directory.
    let out_dir = PathBuf::from(".perfbench");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {err}", scratch.display());
        return ExitCode::FAILURE;
    }
    let budget = Budget {
        seconds: args.seconds,
        max_ops: args.ops,
    };
    let outcome = match args.workload.as_str() {
        "sparse_tune" => tune::run(Kind::Sparse, args.seed, budget, args.threads, args.trace),
        "dense_tune" => tune::run(Kind::Dense, args.seed, budget, args.threads, args.trace),
        _ => serve::run(args.seed, budget, args.threads, args.trace, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    outcome.print(
        &format!(
            "perfbench workload={} seed={} seconds={} trace={} threads={} available_parallelism={cores}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.threads
        ),
        args.trace,
    );
    ExitCode::SUCCESS
}
