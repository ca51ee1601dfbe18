//! The serving workload: a live `Service` behind `Server`, with a
//! file-backed store and journal that start empty, driven by a closed
//! loop of wire clients (submit, poll with no sleep until done, fetch).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maeri_runtime::{canonical_result_text, JobKey, Runtime};
use maeri_serve::traffic::{generate, Arrival, TrafficConfig};
use maeri_serve::wire::{Client, JobSpec, Request};
use maeri_serve::{AdmitRecord, Journal, ResultStore, ServeConfig, Server, Service, StoredResult};

use crate::measure::{closed_loop, median, peak_rss_mb, ratio, Budget, LoopRun, Tracer};
use crate::report::{Outcome, SetupTimes};

/// Arrivals generated per run; the loop wraps around them if it gets
/// that far (later repeats are store hits, as most ops already are).
const ARRIVALS: usize = 4096;

/// Set-ups timed before the timed loop.
const SETUP_REPS: usize = 11;

/// While the clients run, a batch of [`SETUP_BATCH`] set-ups is timed
/// every [`SETUP_EVERY`] on a thread of its own, so that `setup_s`
/// covers the whole run. Most of a set-up is generating the arrivals,
/// whose time moves with the host by a third between runs a few
/// minutes apart. The clients spend nearly all their time waiting on
/// the wire, so the extra millisecond of work every two seconds does
/// not move their figures.
const SETUP_BATCH: usize = 2;
const SETUP_EVERY: Duration = Duration::from_secs(2);

/// A running service stack: store, journal, service, server, and one
/// connected client per client thread, in a fresh directory.
struct Stack {
    dir: PathBuf,
    service: Arc<Service>,
    server: Server,
    clients: Vec<Client>,
    arrivals: Vec<Arrival>,
}

impl Stack {
    fn start(dir: PathBuf, seed: u64, clients: usize) -> std::io::Result<Stack> {
        std::fs::create_dir_all(&dir)?;
        let config = ServeConfig {
            workers: 2,
            store_path: Some(dir.join("store.log")),
            journal_path: Some(dir.join("journal.log")),
            recorder: None,
            ..ServeConfig::default()
        };
        let service = Service::start(config, Arc::new(Runtime::new(2)))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let service = Arc::new(service);
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0")?;
        let addr = server.local_addr();
        let clients = (0..clients)
            .map(|_| Client::connect(&addr))
            .collect::<std::io::Result<Vec<_>>>()?;
        let arrivals = generate(&TrafficConfig {
            seed,
            arrivals: ARRIVALS,
            ..TrafficConfig::default()
        });
        Ok(Stack {
            dir,
            service,
            server,
            clients,
            arrivals,
        })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.stop();
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One served job, as a client saw it.
struct OpRecord {
    spec: JobSpec,
    /// Submit sent to `done` (or `failed`) polled.
    latency: Duration,
    /// Submit sent to the fetched result (the traced replay is after).
    busy: Duration,
    submit: Duration,
    polls: Vec<Duration>,
    fetch: Duration,
    result: Option<StoredResult>,
    failures: Vec<String>,
}

/// Per-thread client state; traced runs also carry the tracer and the
/// replay store.
struct Conn<'a> {
    client: Client,
    trace: Option<(&'a Tracer, &'a Replay)>,
}

/// Runs the closed loop over `stack`'s clients until `ops` jobs or the
/// deadline.
fn drive(
    stack: &mut Stack,
    ops: usize,
    deadline: Option<Instant>,
    trace: Option<(&Tracer, &Replay)>,
) -> LoopRun<OpRecord> {
    let contexts: Vec<Conn> = stack
        .clients
        .drain(..)
        .map(|client| Conn { client, trace })
        .collect();
    let arrivals = &stack.arrivals;
    closed_loop(contexts, ops, deadline, |conn, i| {
        serve_op(conn, &arrivals[i % arrivals.len()], i)
    })
}

/// Runs the serving workload. A traced run first runs the untraced
/// loop for half the time, then the same number of jobs traced on a
/// fresh stack.
pub fn run(
    seed: u64,
    budget: Budget,
    threads: usize,
    traced: bool,
    scratch: &std::path::Path,
) -> Outcome {
    let stacks = AtomicUsize::new(0);
    let start = || {
        let n = stacks.fetch_add(1, Ordering::Relaxed) + 1;
        Stack::start(scratch.join(format!("serve-{n}")), seed, threads)
            .expect("the service stack starts on loopback")
    };
    let mut setup = SetupTimes::default();
    let mut stack = setup.batch(SETUP_REPS, &start);
    let deadline = budget.max_ops.is_none().then(|| {
        Instant::now() + Duration::from_secs_f64(budget.seconds / if traced { 2.0 } else { 1.0 })
    });
    let (run, setup) = std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel::<()>();
        let start = &start;
        let sampler = scope.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(SETUP_EVERY) {
                setup.batch(SETUP_BATCH, start);
            }
            setup
        });
        let run = drive(
            &mut stack,
            budget.max_ops.unwrap_or(usize::MAX),
            deadline,
            None,
        );
        drop(stop);
        (run, sampler.join().expect("set-up sampler panicked"))
    });
    let mut out = Outcome::new(setup);
    out.peak_rss_mb = peak_rss_mb();
    out.wall_s = run.wall.as_secs_f64();
    out.jobs_per_s = run.rate(|_| 1.0);
    out.request_ms = run
        .records
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    out.request_note = format!("{} jobs, submit to done", run.records.len());
    let mut direct = BTreeMap::new();
    for rec in &run.records {
        out.output(rec.result.as_ref().map_or("", |r| r.detail.as_str()));
    }
    check(&mut out, &run.records, &mut direct);
    drop(stack);

    if traced {
        let mut stack = start();
        let replay_dir = scratch.join("replay");
        let replay = Replay::open(&replay_dir).expect("replay store opens");
        let tracer = Tracer::new();
        let traced_run = drive(
            &mut stack,
            run.records.len(),
            None,
            Some((&tracer, &replay)),
        );
        check(&mut out, &traced_run.records, &mut direct);
        out.layer(
            "trace.overhead_frac",
            traced_run.wall.as_secs_f64() / run.wall.as_secs_f64() - 1.0,
        );
        layer_metrics(&mut out, &tracer, &traced_run.records, &stack.service);
        let busy: Duration = run.records.iter().map(|r| r.busy).sum();
        out.layer(
            "runtime.parallel_efficiency",
            busy.as_secs_f64() / (run.wall.as_secs_f64() * threads as f64),
        );
        out.spans = Some(tracer);
        drop(replay);
        let _ = std::fs::remove_dir_all(replay_dir);
    }
    out
}

/// Output checks, outside the timed loop: every fetched result must
/// equal a direct execution of the same spec (memoised per job key).
fn check(out: &mut Outcome, records: &[OpRecord], direct: &mut BTreeMap<JobKey, String>) {
    for (i, rec) in records.iter().enumerate() {
        let mut failures = rec.failures.clone();
        let job = rec
            .spec
            .to_sim_job()
            .expect("generated specs lower to jobs");
        let expected = direct
            .entry(job.key())
            .or_insert_with(|| canonical_result_text(&job.execute()));
        match &rec.result {
            Some(stored) => {
                if !stored.ok {
                    failures.push(format!("op {i}: job failed: {}", stored.detail));
                }
                if stored.detail != *expected {
                    failures.push(format!(
                        "op {i}: served result differs from direct execution"
                    ));
                }
            }
            None if failures.is_empty() => failures.push(format!("op {i}: no result")),
            None => {}
        }
        out.attempt(&failures);
    }
}

fn serve_op(conn: &mut Conn, arrival: &Arrival, op: usize) -> OpRecord {
    let t0 = Instant::now();
    let mut rec = OpRecord {
        spec: arrival.spec.clone(),
        latency: Duration::ZERO,
        busy: Duration::ZERO,
        submit: Duration::ZERO,
        polls: Vec::new(),
        fetch: Duration::ZERO,
        result: None,
        failures: Vec::new(),
    };
    let id = match conn.client.submit(&arrival.tenant, &arrival.spec) {
        Ok(Ok(id)) => id,
        Ok(Err(reject)) => {
            rec.failures
                .push(format!("op {op}: submit rejected: {reject}"));
            return rec;
        }
        Err(err) => {
            rec.failures.push(format!("op {op}: submit: {err}"));
            return rec;
        }
    };
    rec.submit = t0.elapsed();
    loop {
        let p0 = Instant::now();
        let status = conn.client.poll(id);
        rec.polls.push(p0.elapsed());
        match status.as_deref() {
            Ok("done" | "failed") => break,
            Ok(_) => {}
            Err(err) => {
                rec.failures.push(format!("op {op}: poll: {err}"));
                return rec;
            }
        }
    }
    rec.latency = t0.elapsed();
    let f0 = Instant::now();
    let fetched = conn.client.request(&Request::Fetch { id });
    rec.fetch = f0.elapsed();
    match fetched.map(|doc| doc.get("result").map(StoredResult::from_json)) {
        Ok(Some(Ok(stored))) => rec.result = Some(stored),
        Ok(Some(Err(err))) => rec.failures.push(format!("op {op}: fetch: {err}")),
        Ok(None) => rec
            .failures
            .push(format!("op {op}: fetch returned no result")),
        Err(err) => rec.failures.push(format!("op {op}: fetch: {err}")),
    }
    rec.busy = t0.elapsed();
    if let (Some((tracer, replay)), Some(stored)) = (conn.trace, &rec.result) {
        replay.op(tracer, op, id, arrival, stored);
    }
    rec
}

/// A second store and journal, in their own files, on which a traced
/// run replays each op's durable-path calls to time them: the store
/// lookup every submit makes, and for first-seen jobs the journal admit,
/// the store put and the journal tombstone.
struct Replay {
    store: ResultStore,
    journal: Journal,
}

impl Replay {
    fn open(dir: &std::path::Path) -> std::io::Result<Replay> {
        std::fs::create_dir_all(dir)?;
        let err = |e: maeri_serve::StoreError| std::io::Error::other(e.to_string());
        let (store, _) = ResultStore::open(&dir.join("store.log")).map_err(err)?;
        let (journal, _) = Journal::open(&dir.join("journal.log")).map_err(err)?;
        Ok(Replay { store, journal })
    }

    fn op(&self, tracer: &Tracer, op: usize, id: u64, arrival: &Arrival, stored: &StoredResult) {
        let Ok(job) = arrival.spec.to_sim_job() else {
            return;
        };
        let key = job.key();
        let mut spans = tracer.op(op);
        let hit = spans.time("store.get", None, || self.store.get(&key));
        if hit.is_none() {
            let admit = AdmitRecord {
                id,
                tenant: arrival.tenant.clone(),
                deadline_ms: None,
                spec: arrival.spec.clone(),
            };
            let _ = spans.time("journal.append", None, || self.journal.append_admit(&admit));
            let _ = spans.time("store.put", None, || self.store.put(&key, stored));
            let _ = spans.time("journal.append", None, || self.journal.append_tombstone(id));
        }
        spans.finish();
    }
}

fn mean(total: Duration, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total.as_secs_f64() / calls as f64
    }
}

/// Per-layer metrics of the traced loop.
fn layer_metrics(out: &mut Outcome, tracer: &Tracer, records: &[OpRecord], service: &Service) {
    let n = records.len().max(1) as f64;
    let polls: Vec<Duration> = records
        .iter()
        .flat_map(|r| r.polls.iter().copied())
        .collect();
    let submits: Duration = records.iter().map(|r| r.submit).sum();
    let fetches: Duration = records.iter().map(|r| r.fetch).sum();
    out.layer("wire.submit_ms", submits.as_secs_f64() * 1e3 / n);
    out.layer(
        "wire.poll_ms",
        mean(polls.iter().sum(), polls.len() as u64) * 1e3,
    );
    out.layer("wire.fetch_ms", fetches.as_secs_f64() * 1e3 / n);
    out.layer("wire.polls_per_job", polls.len() as f64 / n);
    let stats = service.stats();
    let client_p50_ms = median(
        &records
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let server_p50_ms = stats.latency_p50_us as f64 / 1e3;
    out.layer(
        "wire.transport_share",
        if client_p50_ms > 0.0 {
            1.0 - server_p50_ms / client_p50_ms
        } else {
            0.0
        },
    );
    out.layer("service.server_p50_us", stats.latency_p50_us as f64);
    out.layer("service.queue_high_water", stats.queue_high_water as f64);
    out.layer(
        "service.rejected",
        (stats.rejected_backpressure + stats.rejected_invalid + stats.rejected_circuit) as f64,
    );
    out.layer(
        "serve.store_hit_ratio",
        ratio(stats.store_hits, stats.submitted),
    );
    let (puts, put_time) = tracer.total("store.put");
    let (gets, get_time) = tracer.total("store.get");
    let (appends, append_time) = tracer.total("journal.append");
    out.layer("store.put_us", mean(put_time, puts) * 1e6);
    out.layer("store.get_us", mean(get_time, gets) * 1e6);
    out.layer("journal.append_us", mean(append_time, appends) * 1e6);
    out.layer("journal.appends", stats.journal_appends as f64);
    let m = service.runtime().metrics();
    out.layer("runtime.cache_hit_ratio", ratio(m.cache_hits, m.submitted));
    out.layer("runtime.executed", m.executed as f64);
}
