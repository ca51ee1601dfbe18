//! The two tuning workloads: closed loops of mapping searches through
//! `Runtime::run_one`, plus the traced replay of each search's stages
//! through the public calls of `maeri-mapspace`, `maeri-verify` and
//! `maeri` (mappers, `analytic`, `cycle_sim`).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use maeri::analytic;
use maeri::cycle_sim::simulate_conv_layer;
use maeri::{
    CandidateKind, ConvMapper, FcMapper, LstmMapper, MaeriConfig, MappingCandidate,
    SparseConvMapper, VnPolicy,
};
use maeri_dnn::{zoo, ConvLayer, Layer, WeightMask};
use maeri_mapspace::{enumerate, SearchLayer, SearchResult, SearchSpec, Strategy};
use maeri_runtime::{Runtime, SimJob};
use maeri_sim::util::ceil_div;
use maeri_sim::SimRng;
use maeri_verify::{statically_reject, VerifyLayer};

use crate::measure::{closed_loop, median, peak_rss_mb, ratio, Budget, OpSpans, Tracer};
use crate::report::{Outcome, SetupTimes};

/// Root span of one search: the `run_one` call itself.
const SEARCH: &str = "mapspace.search";

/// Candidates each sparse search samples, besides the heuristic point.
/// One keeps a search to two sparse mapper runs, so that a run repeats
/// every op of the round forty times or more.
const SPARSE_SAMPLES: usize = 1;

/// Set-ups timed before each pass (see [`SetupTimes`]).
const SETUP_BATCH: usize = 8;

/// Which tuning workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sparse,
    Dense,
}

/// The generated inputs of a tuning run: one round of search specs,
/// which every pass runs once.
struct Plan {
    specs: Vec<SearchSpec>,
}

impl Plan {
    /// Generates the round for `seed`, or its first `ops` specs. Ops
    /// are a pure function of `(seed, index)`.
    fn generate(kind: Kind, seed: u64, ops: Option<usize>) -> Plan {
        let specs = match kind {
            Kind::Sparse => {
                let layers = sparse_layers();
                let round = layers.len() * SPARSE_STRATA_PER_LAYER;
                (0..ops.map_or(round, |n| n.min(round)))
                    .map(|i| sparse_spec(&layers, seed, i))
                    .collect()
            }
            Kind::Dense => {
                let fixed = dense_specs();
                let round = fixed.len() + DENSE_RANDOM;
                debug_assert!(
                    (1..round).all(|k| !(k * DENSE_STRIDE).is_multiple_of(round)),
                    "the stride must visit every op of the round"
                );
                (0..ops.map_or(round, |n| n.min(round)))
                    .map(|i| dense_spec(&fixed, seed, i))
                    .collect()
            }
        };
        Plan { specs }
    }
}

/// SplitMix64 over `(seed, index, salt)`: independent sub-seeds for the
/// generated inputs of op `index`.
fn mix(seed: u64, index: u64, salt: u64) -> u64 {
    let mut z =
        seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// VGG16-conv8 (the Figure 13 layer) and AlexNet conv3-5.
fn sparse_layers() -> Vec<ConvLayer> {
    let alexnet = zoo::alexnet();
    let mut layers = vec![zoo::vgg16_c8()];
    for name in ["alexnet_conv3", "alexnet_conv4", "alexnet_conv5"] {
        if let Some(Layer::Conv(l)) = alexnet.layer(name) {
            layers.push(l.clone());
        }
    }
    layers
}

/// Zero-fraction strata of the sparse searches: 0.3, 0.5, 0.7 and 0.9.
const SPARSE_STRATA: usize = 4;

/// Strata each layer is searched at per round. A round is short (eight
/// searches) so that a run repeats each op forty times or more.
const SPARSE_STRATA_PER_LAYER: usize = 2;

/// Seed of the candidates each sparse search samples, the same for
/// every workload seed. Which channel tile a search samples changes its
/// cost by up to half, so a seeded choice would make the round's median
/// a matter of the seed rather than of the program.
const SPARSE_SAMPLE_SEED: u64 = 0x5350_4152;

/// Op `i` rotates through the layers. Layer `l` is searched at strata
/// `l` and `l + 2` (mod 4), so every stratum comes up twice a round and
/// every seed's round has the same spread of sparsity. The seed draws
/// each op's mask.
fn sparse_spec(layers: &[ConvLayer], seed: u64, i: usize) -> SearchSpec {
    let l = i % layers.len();
    let layer = layers[l].clone();
    let stratum = (l + 2 * (i / layers.len())) % SPARSE_STRATA;
    SearchSpec::new(
        SearchLayer::SparseConv {
            layer,
            zero_fraction: 0.3 + 0.2 * stratum as f64,
            mask_seed: mix(seed, i as u64, 2),
        },
        MaeriConfig::paper_64(),
    )
    .with_strategy(Strategy::Random {
        seed: mix(SPARSE_SAMPLE_SEED, i as u64, 3),
        samples: SPARSE_SAMPLES,
    })
}

/// The Figure 12 CONV layers, AlexNet FC6/FC7 and DeepSpeech2 rnn2.
fn dense_layers() -> Vec<SearchLayer> {
    let mut layers: Vec<SearchLayer> = zoo::fig12_layers()
        .into_iter()
        .map(SearchLayer::Conv)
        .collect();
    let alexnet = zoo::alexnet();
    for name in ["alexnet_fc6", "alexnet_fc7"] {
        if let Some(Layer::Fc(l)) = alexnet.layer(name) {
            layers.push(SearchLayer::Fc(l.clone()));
        }
    }
    if let Some(Layer::Lstm(l)) = zoo::deepspeech2().layer("ds2_rnn2") {
        layers.push(SearchLayer::Lstm(l.clone()));
    }
    layers
}

/// The larger fabric of the dense searches.
fn large_fabric() -> MaeriConfig {
    MaeriConfig::builder(256)
        .build()
        .expect("256-switch fabric is valid")
}

/// The dense layers that are also searched on the 256-switch fabric:
/// the FC and LSTM layers and the four Figure 12 CONV layers whose
/// exhaustive search there takes at most about 0.3 s. The other six
/// (AlexNet conv3-5, VGG16 conv8/11/13) take 0.7 to 1.6 s each on 256
/// switches. With them a round costs about 13 s of search, so a run
/// sees each op only about six times, too few for a steady best.
const LARGE_FABRIC_LAYERS: &[&str] = &[
    "alexnet_conv1",
    "alexnet_conv2",
    "vgg16_conv2",
    "vgg16_conv4",
    "alexnet_fc6",
    "alexnet_fc7",
    "ds2_rnn2",
];

/// The fixed dense searches: every dense layer on the 64-switch fabric,
/// then [`LARGE_FABRIC_LAYERS`] on 256 switches.
fn dense_specs() -> Vec<SearchSpec> {
    let layers = dense_layers();
    let small = layers
        .iter()
        .map(|l| SearchSpec::new(l.clone(), MaeriConfig::paper_64()));
    let large = layers
        .iter()
        .filter(|l| LARGE_FABRIC_LAYERS.contains(&l.name()))
        .map(|l| SearchSpec::new(l.clone(), large_fabric()));
    small.chain(large).collect()
}

/// Seeded random layers per round of the dense op sequence.
const DENSE_RANDOM: usize = 2;

/// A round is every fixed search plus seeded random layers (one per
/// fabric), visited with a stride coprime to its length so that each
/// client sees small and large searches mixed. Only the random layers
/// change with the seed.
fn dense_spec(fixed: &[SearchSpec], seed: u64, i: usize) -> SearchSpec {
    let round = fixed.len() + DENSE_RANDOM;
    let j = i * DENSE_STRIDE % round;
    match fixed.get(j) {
        Some(spec) => spec.clone(),
        None if j.is_multiple_of(2) => {
            SearchSpec::new(random_fc_layer(seed, i), MaeriConfig::paper_64())
        }
        None => SearchSpec::new(random_fc_layer(seed, i), large_fabric()),
    }
}

/// Stride through a dense round; coprime to its length (22).
const DENSE_STRIDE: usize = 7;

/// The first seeded `Layer::random` layer that is an FC layer. An FC
/// search costs about 2 ms on 64 switches and 25 ms on 256, below the
/// round's median search (AlexNet conv2 on 64 switches, about 37 ms),
/// while a random CONV layer can cost anything from 2 ms to 2 s. So the
/// random layers do not change which fixed search is the round's median
/// or tail.
fn random_fc_layer(seed: u64, i: usize) -> SearchLayer {
    (0u64..)
        .find_map(|k| match Layer::random(mix(seed, i as u64, 100 + k)) {
            Layer::Fc(l) => Some(SearchLayer::Fc(l)),
            _ => None,
        })
        .expect("Layer::random draws FC layers 30% of the time")
}

/// One completed search.
struct OpRecord {
    /// Time in `run_one`.
    latency: Duration,
    candidates: u64,
    text: String,
    failures: Vec<String>,
}

/// One pass over the round: every op once, on its own runtime, so no
/// result is cached from another pass.
struct Pass {
    records: Vec<OpRecord>,
    wall: Duration,
    runtime: Runtime,
}

impl Pass {
    fn run(plan: &Plan, runtime: Runtime, threads: usize, tracer: Option<&Tracer>) -> Pass {
        let run = closed_loop(vec![(); threads], plan.specs.len(), None, |(), i| {
            search_op(&runtime, &plan.specs[i], i, tracer)
        });
        Pass {
            records: run.records,
            wall: run.wall,
            runtime,
        }
    }

    /// Summed search time over wall time × clients.
    fn efficiency(&self, threads: usize) -> f64 {
        let searched: Duration = self.records.iter().map(|r| r.latency).sum();
        searched.as_secs_f64() / (self.wall.as_secs_f64() * threads as f64)
    }
}

/// Builds the inputs and a fresh runtime: the set-up that `setup_s`
/// times.
fn set_up(kind: Kind, seed: u64, ops: Option<usize>) -> (Plan, Runtime) {
    (Plan::generate(kind, seed, ops), Runtime::new(2))
}

/// Runs one tuning workload: passes over the round until the next one
/// would overrun `--seconds` (one pass with `--ops`). A traced run
/// stops the untraced passes at half the time and then runs one more
/// pass that replays every search's stages. Each pass runs on the
/// runtime of a batch of timed set-ups made just before it.
pub fn run(kind: Kind, seed: u64, budget: Budget, threads: usize, traced: bool) -> Outcome {
    let mut setup = SetupTimes::default();
    let (plan, runtime) = setup.batch(SETUP_BATCH, || set_up(kind, seed, budget.max_ops));
    let start = Instant::now();
    // A traced run leaves half its time to the traced pass.
    let seconds = Duration::from_secs_f64(budget.seconds / if traced { 2.0 } else { 1.0 });
    let mut passes = vec![Pass::run(&plan, runtime, threads, None)];
    // Peak memory of one pass over the round. Later passes repeat the
    // same work; read after them, the figure would grow with the number
    // of passes a run fits in (allocator fragmentation), that is, with
    // the speed of the host.
    let peak_rss = peak_rss_mb();
    while budget.max_ops.is_none() && start.elapsed() + passes[passes.len() - 1].wall <= seconds {
        let (_, runtime) = setup.batch(SETUP_BATCH, || set_up(kind, seed, budget.max_ops));
        passes.push(Pass::run(&plan, runtime, threads, None));
    }
    let mut out = Outcome::new(setup);
    out.peak_rss_mb = peak_rss;
    out.wall_s = start.elapsed().as_secs_f64();

    // Every pass must reproduce the first pass's outputs.
    let first = &passes[0].records;
    for rec in first {
        out.output(&rec.text);
    }
    let check = |out: &mut Outcome, pass: &Pass| {
        for (i, rec) in pass.records.iter().enumerate() {
            let mut failures = rec.failures.clone();
            if rec.text != first[i].text {
                failures.push(format!("op {i}: output differs from the first pass"));
            }
            out.attempt(&failures);
        }
    };
    for pass in &passes {
        check(&mut out, pass);
    }
    // Each op's latency is its best over the passes: host contention
    // only ever slows a search down, so the best is the steady figure.
    // A closed loop of `threads` clients with no think time completes
    // `threads / mean latency` searches per second (Little's law).
    let best: Vec<f64> = (0..first.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.records[i].latency.as_secs_f64() * 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let best_s = best.iter().sum::<f64>() / 1e3;
    let candidates: u64 = first.iter().map(|r| r.candidates).sum();
    out.jobs_per_s = threads as f64 * best.len() as f64 / best_s;
    out.candidates_per_s = Some(threads as f64 * candidates as f64 / best_s);
    out.request_note = format!(
        "{} ops, each its best of {} passes",
        best.len(),
        passes.len()
    );
    out.request_ms = best;
    out.tail_is_max = true;
    if traced {
        let tracer = Tracer::new();
        let pass = Pass::run(&plan, Runtime::new(2), threads, Some(&tracer));
        check(&mut out, &pass);
        let untraced: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        out.layer(
            "trace.overhead_frac",
            pass.wall.as_secs_f64() / median(&untraced) - 1.0,
        );
        layer_metrics(&mut out, &tracer, pass.records.len());
        let efficiency: Vec<f64> = passes.iter().map(|p| p.efficiency(threads)).collect();
        out.layer("runtime.parallel_efficiency", median(&efficiency));
        let m = pass.runtime.metrics();
        out.layer("runtime.cache_hit_ratio", ratio(m.cache_hits, m.submitted));
        out.layer("runtime.executed", m.executed as f64);
        out.spans = Some(tracer);
    }
    out
}

fn search_op(runtime: &Runtime, spec: &SearchSpec, op: usize, tracer: Option<&Tracer>) -> OpRecord {
    let job = SimJob::map_search(spec.clone());
    let t0 = Instant::now();
    let result = runtime.run_one(&job);
    let latency = t0.elapsed();
    let mut rec = OpRecord {
        latency,
        candidates: 0,
        text: String::new(),
        failures: Vec::new(),
    };
    let what = format!(
        "op {op} ({} on {} switches)",
        spec.layer.name(),
        spec.base.num_mult_switches()
    );
    match result.as_ref().map(|o| o.search()) {
        Ok(Some(found)) => {
            rec.candidates = found.counters.enumerated;
            rec.text = found.canonical_text();
            if found.best_cycles() > found.heuristic_cycles() {
                rec.failures.push(format!(
                    "{what}: best {} cycles worse than heuristic {}",
                    found.best_cycles(),
                    found.heuristic_cycles()
                ));
            }
            if let Some(tracer) = tracer {
                let mut spans = tracer.op(op);
                spans.add(SEARCH, None, t0, latency);
                rec.failures.extend(
                    replay(spec, found, &mut spans, tracer)
                        .into_iter()
                        .map(|m| format!("{what}: {m}")),
                );
                tracer.count("mapspace.candidates", found.counters.enumerated);
                tracer.count("mapspace.scored", found.counters.scored);
                tracer.count("mapspace.pruned", found.counters.pruned);
                spans.finish();
            }
        }
        Ok(None) => rec
            .failures
            .push(format!("{what}: search job returned a non-search output")),
        Err(err) => rec.failures.push(format!("{what}: search failed: {err}")),
    }
    rec
}

/// Shape fingerprint, as the search deduplicates candidates.
type Fingerprint = [u64; 8];

/// Replays the stages of one search through the public calls, timing
/// each, and returns every disagreement with the search's own result.
fn replay(
    spec: &SearchSpec,
    found: &SearchResult,
    spans: &mut OpSpans,
    tracer: &Tracer,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mask = match &spec.layer {
        SearchLayer::SparseConv {
            layer,
            zero_fraction,
            mask_seed,
        } => Some(spans.time("dnn.mask", Some(SEARCH), || {
            WeightMask::generate(layer, *zero_fraction, &mut SimRng::seed(*mask_seed))
        })),
        _ => None,
    };
    let mask = mask.as_ref();
    let vlayer = match &spec.layer {
        SearchLayer::Conv(l) => VerifyLayer::Conv(l),
        SearchLayer::SparseConv { layer, .. } => VerifyLayer::SparseConv {
            layer,
            mask: mask.expect("sparse spec has a mask"),
        },
        SearchLayer::Fc(l) => VerifyLayer::Fc(l),
        SearchLayer::Lstm(l) => VerifyLayer::Lstm(l),
    };

    let heuristic = spans.time("mapspace.heuristic", Some(SEARCH), || heuristic(spec, mask));
    let Some(heuristic) = heuristic else {
        return vec!["replay could not derive the heuristic point".to_owned()];
    };
    if score(spec, mask, &heuristic, spans, tracer).is_err() {
        mismatches.push("replayed heuristic point does not score".to_owned());
    }

    let considered = spans.time("mapspace.enumerate", Some(SEARCH), || {
        let all = enumerate(spec);
        match spec.strategy {
            Strategy::Exhaustive => Some(all),
            Strategy::Random { seed, samples } => {
                let picks = SimRng::seed(seed).choose_indices(all.len(), samples.min(all.len()));
                Some(picks.into_iter().map(|i| all[i]).collect())
            }
            Strategy::Beam { .. } => None,
        }
    });
    let Some(considered) = considered else {
        return vec!["beam searches are not replayed".to_owned()];
    };

    let (mut rejected, mut pruned, mut scored) = (0u64, 0u64, 0u64);
    let mut seen: BTreeSet<Fingerprint> = BTreeSet::new();
    for cand in &considered {
        let t0 = Instant::now();
        let reject = statically_reject(&spec.base, &vlayer, cand);
        spans.add("verify.reject", Some(SEARCH), t0, t0.elapsed());
        if reject.is_some() {
            rejected += 1;
            pruned += 1;
            continue;
        }
        match score(spec, mask, cand, spans, tracer) {
            Ok(fp) if seen.insert(fp) => scored += 1,
            _ => pruned += 1,
        }
    }
    tracer.count("verify.calls", considered.len() as u64);
    tracer.count("verify.rejected", rejected);
    let c = &found.counters;
    let replayed = (considered.len() as u64, pruned, rejected, scored);
    let reported = (c.enumerated, c.pruned, c.statically_rejected, c.scored);
    if replayed != reported {
        mismatches.push(format!(
            "replayed (considered, pruned, rejected, scored) {replayed:?} != search's {reported:?}"
        ));
    }

    for entry in &found.frontier {
        let (Some(validated), SearchLayer::Conv(l), CandidateKind::Conv(m)) =
            (entry.validated_cycles, &spec.layer, entry.candidate.kind)
        else {
            continue;
        };
        let trace = spans.time("cycle_sim.validate", Some(SEARCH), || {
            let cfg = entry.candidate.config(&spec.base).ok()?;
            simulate_conv_layer(&cfg, l, VnPolicy::Explicit(m)).ok()
        });
        match trace {
            Some(trace) if trace.cycles.as_u64() == validated => {
                tracer.count("cycle_sim.calls", 1);
                tracer.count("cycle_sim.sim_cycles", validated);
            }
            other => mismatches.push(format!(
                "simulate_conv_layer gives {:?} cycles for {}, the search validated {validated}",
                other.map(|t| t.cycles.as_u64()),
                entry.candidate.describe()
            )),
        }
    }
    mismatches
}

/// The heuristic mapper's point, as the search derives it.
fn heuristic(spec: &SearchSpec, mask: Option<&WeightMask>) -> Option<MappingCandidate> {
    let base = &spec.base;
    let kind = match &spec.layer {
        SearchLayer::Conv(l) => {
            CandidateKind::Conv(ConvMapper::new(*base).heuristic_mapping(l).ok()?)
        }
        SearchLayer::SparseConv { layer, .. } => CandidateKind::SparseConv {
            channel_tile: SparseConvMapper::new(*base).auto_channel_tile(layer, mask?),
        },
        SearchLayer::Fc(l) => CandidateKind::Fc {
            vn_size: FcMapper::new(*base).heuristic_vn_size(l).ok()?,
        },
        SearchLayer::Lstm(l) => CandidateKind::Lstm {
            gate_vn_size: LstmMapper::new(*base).heuristic_gate_vn_size(l).ok()?,
        },
    };
    Some(MappingCandidate::with_base_bandwidth(kind, base))
}

/// Scores one candidate as the search does, timing the mapper call
/// (`sparse.run` for sparse layers, `maeri.score` otherwise). `Err`
/// marks the candidate infeasible.
fn score(
    spec: &SearchSpec,
    mask: Option<&WeightMask>,
    cand: &MappingCandidate,
    spans: &mut OpSpans,
    tracer: &Tracer,
) -> Result<Fingerprint, ()> {
    let (bwd, bwc) = (cand.dist_bandwidth as u64, cand.collect_bandwidth as u64);
    match (&spec.layer, cand.kind) {
        (SearchLayer::SparseConv { layer, .. }, CandidateKind::SparseConv { channel_tile }) => {
            let mask = mask.ok_or(())?;
            let cfg = cand.config(&spec.base).map_err(drop)?;
            let mapper = SparseConvMapper::new(cfg);
            // `run` sizes the VNs itself; this separate call estimates
            // that stage, so it hangs under `sparse.run`, not the search.
            spans
                .time("sparse.vn_sizes", Some("sparse.run"), || {
                    mapper.vn_sizes(layer, mask, channel_tile)
                })
                .map_err(drop)?;
            let run = spans.time("sparse.run", Some(SEARCH), || {
                mapper.run(layer, mask, channel_tile)
            });
            let run = run.map_err(drop)?;
            tracer.count("sparse.groups", run.extra.get("groups"));
            Ok([channel_tile as u64, 0, 0, 0, 0, 1, bwd, bwc])
        }
        (layer, kind) => {
            tracer.count("maeri.score_calls", 1);
            spans.time("maeri.score", Some(SEARCH), || {
                let cfg = cand.config(&spec.base).map_err(drop)?;
                match (layer, kind) {
                    (SearchLayer::Conv(l), CandidateKind::Conv(m)) => {
                        let policy = VnPolicy::Explicit(m);
                        let plan = ConvMapper::new(cfg).plan(l, policy).map_err(drop)?;
                        analytic::conv_mapping(&cfg, l, policy).map_err(drop)?;
                        Ok([
                            plan.vn_size as u64,
                            plan.num_vns as u64,
                            plan.channel_tile as u64,
                            plan.subfold as u64,
                            plan.row_groups(l),
                            0,
                            bwd,
                            bwc,
                        ])
                    }
                    (SearchLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
                        FcMapper::new(cfg)
                            .run_with_vn_size(l, vn_size)
                            .map_err(drop)?;
                        let fold = ceil_div(l.inputs as u64, vn_size as u64);
                        Ok([fold, 0, 0, 0, 0, 2, bwd, bwc])
                    }
                    (SearchLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
                        LstmMapper::new(cfg)
                            .run_with_gate_vn_size(l, gate_vn_size)
                            .map_err(drop)?;
                        let fold =
                            ceil_div((l.input_dim + l.hidden_dim) as u64, gate_vn_size as u64);
                        Ok([fold, 0, 0, 0, 0, 3, bwd, bwc])
                    }
                    _ => Err(()),
                }
            })
        }
    }
}

/// Per-layer metrics of a traced tuning run. Stage times are per
/// search (summed over its calls), so a search's time is its stages
/// plus `mapspace.self_ms`.
fn layer_metrics(out: &mut Outcome, tracer: &Tracer, searches: usize) {
    let searches = searches.max(1) as f64;
    let per_search_ms = |name: &str| tracer.total(name).1.as_secs_f64() * 1e3 / searches;
    let (_, run_time) = tracer.total("sparse.run");
    let groups = tracer.counter("sparse.groups");
    out.layer("sparse.run_ms", per_search_ms("sparse.run"));
    out.layer("sparse.vn_sizes_ms", per_search_ms("sparse.vn_sizes"));
    out.layer("sparse.groups", groups as f64);
    out.layer(
        "sparse.us_per_group",
        if groups == 0 {
            0.0
        } else {
            run_time.as_secs_f64() * 1e6 / groups as f64
        },
    );
    let calls = tracer.counter("verify.calls");
    let rejected = tracer.counter("verify.rejected");
    out.layer("verify.reject_ms", per_search_ms("verify.reject"));
    out.layer("verify.calls", calls as f64);
    out.layer("verify.rejected", rejected as f64);
    out.layer("verify.reject_ratio", ratio(rejected, calls));
    out.layer("maeri.score_ms", per_search_ms("maeri.score"));
    out.layer(
        "maeri.score_calls",
        tracer.counter("maeri.score_calls") as f64,
    );
    let (_, sim_time) = tracer.total("cycle_sim.validate");
    let sim_cycles = tracer.counter("cycle_sim.sim_cycles");
    out.layer("cycle_sim.validate_ms", per_search_ms("cycle_sim.validate"));
    out.layer("cycle_sim.calls", tracer.counter("cycle_sim.calls") as f64);
    out.layer("cycle_sim.sim_cycles", sim_cycles as f64);
    out.layer(
        "cycle_sim.ns_per_sim_cycle",
        if sim_cycles == 0 {
            0.0
        } else {
            sim_time.as_secs_f64() * 1e9 / sim_cycles as f64
        },
    );
    let search_ms = per_search_ms(SEARCH);
    out.layer("mapspace.search_ms", search_ms);
    out.layer("mapspace.enumerate_ms", per_search_ms("mapspace.enumerate"));
    let replayed_ms = tracer.children_total(SEARCH).as_secs_f64() * 1e3 / searches;
    out.layer("mapspace.self_ms", search_ms - replayed_ms);
    out.layer(
        "mapspace.candidates",
        tracer.counter("mapspace.candidates") as f64,
    );
    out.layer("mapspace.scored", tracer.counter("mapspace.scored") as f64);
    out.layer("mapspace.pruned", tracer.counter("mapspace.pruned") as f64);
}
