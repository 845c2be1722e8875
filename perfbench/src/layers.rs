//! Per-layer metrics of a traced run.
//!
//! Two sources, both outside the program's code:
//!
//! * the daemon's own `stats` counters (admission, `DbStats`, the metrics
//!   registry's explorer spans and store counters), from a snapshot taken
//!   before the first model is loaded and one after the timed phase, so
//!   they cover every request of an episode, warm-up included;
//! * timings of replayed calls to each layer's public functions, made in
//!   this process on the workload's own inputs after the timed phase.
//!
//! Daemon-side numbers are per episode (summed over the run's episodes and
//! divided by their count), so a faster commit that fits more episodes into
//! a run reports comparable values.

use crate::inputs::{self, Rng};
use crate::stats::percentile;
use crate::workloads::{
    Class, Episode, Inputs, Request, Workload, TABLE1_STATE_BUDGET, WARM_COLUMNS,
};
use std::time::Instant;
use tempo_arch::engine::{EngineReport, Query, RunContext};
use tempo_arch::incremental::AnalysisDb;
use tempo_arch::model::ArchitectureModel;
use tempo_arch::{generate, AnalysisConfig, GeneratedModel, GeneratorOptions};
use tempo_serve::{protocol, wire, QueryOpts};

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The replay's inputs: request frames, cones, and an in-process database
/// already holding every cone's answer.
pub struct ReplayInputs {
    frames: Vec<String>,
    cones: Vec<(ArchitectureModel, String)>,
    db: AnalysisDb,
    reports: Vec<EngineReport>,
}

/// Mean cost of each replayed layer call.
pub struct Replay {
    decode_us: f64,
    encode_us: f64,
    req_bytes: f64,
    resp_bytes: f64,
    run_hit_us: f64,
    validate_us: f64,
    generate_us: f64,
    automata: f64,
    clocks: f64,
    edges: f64,
}

/// Minimum time spent repeating each replayed call, so that calls of a
/// microsecond are timed over many repetitions.
const REPLAY_MIN_SECONDS: f64 = 0.05;

/// Mean microseconds per call of `f` over `items`, repeating whole passes
/// until [`REPLAY_MIN_SECONDS`] have gone by.
fn time_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || started.elapsed().as_secs_f64() < REPLAY_MIN_SECONDS {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    started.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
}

/// The cones a workload's replay explores in-process: its cheap ones only
/// (the `pj` and `bur` cells would take seconds).
fn replay_cones(inputs: &Inputs, workload: Workload) -> Vec<(ArchitectureModel, String)> {
    let cones = |models: &[ArchitectureModel], cells: &[inputs::Cell]| {
        cells
            .iter()
            .map(|c| {
                let model = models.iter().find(|m| m.name == c.model);
                (
                    model.expect("cell models exist").clone(),
                    c.requirement.clone(),
                )
            })
            .collect()
    };
    match workload {
        Workload::Table1Cold => {
            let (models, cells) = inputs::case_study(&WARM_COLUMNS, false);
            cones(&models, &cells)
        }
        Workload::SweepEdit => inputs::SWEEP_PERIODS
            .step_by(4)
            .flat_map(|p| {
                let m = inputs::sweep_point("sweep", p, p);
                [(m.clone(), "rA".to_string()), (m, "rB".to_string())]
            })
            .collect(),
        Workload::WarmRepeat | Workload::MixedColdWarm => cones(&inputs.models, &inputs.warm),
    }
}

/// A sample of the request frames the workload sends.
fn replay_frames(inputs: &Inputs, workload: Workload, seed: u64) -> Vec<String> {
    match workload {
        Workload::Table1Cold => {
            let opts = QueryOpts {
                max_states: Some(TABLE1_STATE_BUDGET),
                ..QueryOpts::default()
            };
            (1..)
                .zip(&inputs.cold)
                .map(|(id, c)| {
                    protocol::request_query(id, &c.model, &Query::wcrt(&c.requirement), &opts)
                })
                .collect()
        }
        Workload::SweepEdit => {
            let batch = [Query::wcrt("rA"), Query::wcrt("rB")];
            let opts = QueryOpts::default();
            (1..)
                .zip(inputs.sweep.iter().step_by(16))
                .flat_map(|(id, &(a, b))| {
                    let m = inputs::sweep_point("sweep", a, b);
                    [
                        protocol::request_edit_model(2 * id, &m),
                        protocol::request_query_batch(2 * id + 1, "sweep", &batch, &opts),
                    ]
                })
                .collect()
        }
        Workload::WarmRepeat | Workload::MixedColdWarm => {
            let mut rng = Rng::new(seed, u64::MAX);
            (1..=500)
                .map(|id| inputs.warm_frame(id, &mut rng))
                .collect()
        }
    }
}

/// Builds the replay's inputs and explores its cones into an in-process
/// database.  Exploring is measured on the daemon, so this runs before the
/// replay's timed calls (and outside the trace).
pub fn prepare(inputs: &Inputs, workload: Workload, seed: u64) -> Result<ReplayInputs, String> {
    let cones = replay_cones(inputs, workload);
    let db = AnalysisDb::new(AnalysisConfig::default());
    let reports = cones
        .iter()
        .map(|(m, r)| db.run(m, &Query::wcrt(r), &RunContext::default()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay exploration failed: {e}"))?;
    Ok(ReplayInputs {
        frames: replay_frames(inputs, workload, seed),
        cones,
        db,
        reports,
    })
}

/// Times each layer's public functions on the prepared inputs, each inside
/// a `replay.*` span.
pub fn replay(prepared: &ReplayInputs) -> Result<Replay, String> {
    let ReplayInputs {
        frames,
        cones,
        db,
        reports,
    } = prepared;
    let mean_len = |lens: &mut dyn Iterator<Item = usize>, n: usize| {
        lens.map(|l| l + 1).sum::<usize>() as f64 / n as f64
    };
    let decode_us = {
        let _span = tempo_obs::span!("replay.decode");
        time_per_call(frames, |f| {
            std::hint::black_box(protocol::parse_request(f).is_ok());
        })
    };
    let encode = |r: &EngineReport| protocol::response_ok(1, wire::report_to_json(r));
    let encode_us = {
        let _span = tempo_obs::span!("replay.encode");
        time_per_call(reports, |r| {
            std::hint::black_box(encode(r));
        })
    };
    let run_hit_us = {
        let _span = tempo_obs::span!("replay.db_run_hit");
        let ctx = RunContext::default();
        time_per_call(cones, |(m, r)| {
            std::hint::black_box(db.run(m, &Query::wcrt(r), &ctx).is_ok());
        })
    };
    let validate_us = {
        let _span = tempo_obs::span!("replay.validate");
        time_per_call(cones, |(m, _)| {
            std::hint::black_box(m.validate().is_ok());
        })
    };
    let options = GeneratorOptions::default();
    let network = |(m, r): &(ArchitectureModel, String)| {
        let req = m
            .requirement_by_name(r)
            .expect("replayed requirement exists");
        generate(m, Some(req), &options).map_err(|e| format!("replayed generation failed: {e}"))
    };
    let networks: Vec<GeneratedModel> = cones.iter().map(network).collect::<Result<_, _>>()?;
    let generate_us = {
        let _span = tempo_obs::span!("replay.generate");
        time_per_call(cones, |c| {
            std::hint::black_box(network(c).is_ok());
        })
    };
    let per_network = |f: &dyn Fn(&GeneratedModel) -> usize| {
        networks.iter().map(f).sum::<usize>() as f64 / networks.len() as f64
    };
    Ok(Replay {
        decode_us,
        encode_us,
        req_bytes: mean_len(&mut frames.iter().map(String::len), frames.len()),
        resp_bytes: mean_len(&mut reports.iter().map(|r| encode(r).len()), reports.len()),
        run_hit_us,
        validate_us,
        generate_us,
        automata: per_network(&|g| g.system.automata.len()),
        clocks: per_network(&|g| g.system.clocks.len()),
        edges: per_network(&|g| g.system.automata.iter().map(|a| a.edges.len()).sum()),
    })
}

/// Round-trip summary per request class, for the log of a traced run.
pub fn class_summary(episodes: &[Episode]) -> String {
    let mut lines = Vec::new();
    for class in [Class::Setup, Class::Cold, Class::Warm, Class::Edit] {
        let rtt_us: Vec<f64> = episodes
            .iter()
            .flat_map(|e| &e.requests)
            .filter(|r| r.class == class)
            .map(|r| r.rtt_us)
            .collect();
        if let (Some(p50), Some(p99)) = (percentile(&rtt_us, 50.0), percentile(&rtt_us, 99.0)) {
            let n = rtt_us.len();
            lines.push(format!(
                "{class:?}: n={n} round trip p50 {p50:.1} us, p99 {p99:.1} us"
            ));
        }
    }
    lines.join("\n")
}

/// The per-layer metrics of a traced run.  `trace_overhead_frac` is the
/// cost of the benchmark's own trace records over the traced episode's
/// wall time.
pub fn metrics(
    inputs: &Inputs,
    episodes: &[Episode],
    replay: &Replay,
    trace_overhead_frac: f64,
) -> Vec<Metric> {
    let n = episodes.len().max(1) as f64;
    let per = |key: &str| {
        let sum: i128 = episodes.iter().filter_map(|e| e.daemon.get(key)).sum();
        sum as f64 / n
    };
    let ms = |key: &str| per(key) / 1e6;
    let per_tally = |f: &dyn Fn(&Episode) -> u64| episodes.iter().map(f).sum::<u64>() as f64 / n;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // A request's time outside `AnalysisDb::run`: the socket, the reader
    // thread, admission wait, decode and encode.  Loads and edits run no
    // query, so all of their round trip counts.
    let requests: Vec<_> = episodes.iter().flat_map(|e| &e.requests).collect();
    let overhead = |r: &&Request| (r.rtt_us - r.server_us).max(0.0);
    let query_overhead_us: Vec<f64> = requests
        .iter()
        .filter(|r| r.server_us > 0.0)
        .map(overhead)
        .collect();
    let overhead_ms = requests.iter().map(overhead).sum::<f64>() / 1e3 / n;
    let rtt_ms = requests.iter().map(|r| r.rtt_us).sum::<f64>() / 1e3 / n;
    let server_ms = requests.iter().map(|r| r.server_us).sum::<f64>() / 1e3 / n;

    let hits = per("db.hits");
    let misses = per("db.misses");
    let generation_ms = ms("db.generation_nanos");
    let exploration_ms = ms("db.exploration_nanos");
    let db_self_ms = server_ms - generation_ms - exploration_ms;
    let expansions = per("span.explore.successor_gen.count");
    let successor_ms = ms("span.explore.successor_gen.nanos");
    let insert_ms = ms("span.explore.store_insert.nanos");
    let stored = per_tally(&|e| e.tally.explored_states);
    let subsumed = per("counter.store.subsumed");
    let by_union = per("counter.store.subsumed_by_union");
    let attributed_ms = overhead_ms + db_self_ms + generation_ms + successor_ms + insert_ms;

    vec![
        (
            "serve.overhead_p50_us",
            percentile(&query_overhead_us, 50.0).unwrap_or(0.0),
            "us",
        ),
        (
            "serve.overhead_p99_us",
            percentile(&query_overhead_us, 99.0).unwrap_or(0.0),
            "us",
        ),
        ("serve.admitted", per("admission.admitted"), "count"),
        ("serve.rejected", per("admission.rejected"), "count"),
        ("serve.completed", per("admission.completed"), "count"),
        ("serve.decode_us", replay.decode_us, "us"),
        ("serve.encode_us", replay.encode_us, "us"),
        ("serve.req_bytes", replay.req_bytes, "bytes"),
        ("serve.resp_bytes", replay.resp_bytes, "bytes"),
        ("db.hits", hits, "count"),
        ("db.misses", misses, "count"),
        ("db.invalidations", per("db.invalidations"), "count"),
        ("db.generations", per("db.generations"), "count"),
        ("db.hit_ratio", ratio(hits, hits + misses), "ratio"),
        (
            "db.duplicate_misses",
            misses - inputs.distinct_cones() as f64,
            "count",
        ),
        ("db.generation_ms", generation_ms, "ms"),
        ("db.exploration_ms", exploration_ms, "ms"),
        ("db.self_ms", db_self_ms, "ms"),
        ("db.run_hit_us", replay.run_hit_us, "us"),
        ("model.validate_us", replay.validate_us, "us"),
        ("gen.generate_us", replay.generate_us, "us"),
        ("gen.automata", replay.automata, "count"),
        ("gen.clocks", replay.clocks, "count"),
        ("gen.edges", replay.edges, "count"),
        ("explore.expansions", expansions, "count"),
        ("explore.states_stored", stored, "count"),
        ("explore.successor_gen_ms", successor_ms, "ms"),
        (
            "explore.close_extrapolate_ms",
            ms("span.explore.close_extrapolate.nanos"),
            "ms",
        ),
        ("explore.store_insert_ms", insert_ms, "ms"),
        (
            "explore.expansions_per_s",
            ratio(expansions, exploration_ms / 1e3),
            "1/s",
        ),
        (
            "explore.truncated",
            per_tally(&|e| e.tally.truncated),
            "count",
        ),
        ("store.subsumed", subsumed, "count"),
        ("store.subsumed_by_union", by_union, "count"),
        ("store.evicted", per("counter.store.evicted"), "count"),
        ("store.merged", per("counter.store.merged"), "count"),
        (
            "store.hull_short_circuit",
            per("counter.store.hull_short_circuit"),
            "count",
        ),
        (
            "store.accept_ratio",
            ratio(stored, stored + subsumed + by_union),
            "ratio",
        ),
        (
            "harness.attributed_frac",
            ratio(attributed_ms, rtt_ms),
            "ratio",
        ),
        ("harness.trace_overhead_frac", trace_overhead_frac, "ratio"),
    ]
}
