//! The serve differential: answers served over the wire must be
//! **byte-identical** to direct [`AnalysisDb::run`] answers — cold and warm,
//! sequential and concurrent, batched and per-query — and under injected
//! faults the daemon must return the baseline answer, a sound truncation of
//! it, or a typed error, never a divergent estimate (the robustness contract
//! surviving the wire).
//!
//! Identity is compared on the *answer key*: the canonical JSON printing of
//! the report minus its run-dependent metadata (wall time, stored states) —
//! see [`tempo::serve::wire::answer_key`].

mod common;

use common::{burst_model, random_model, tdma_model};
use std::io::BufReader;
use std::sync::Arc;
use tempo::arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo::arch::engine::{Budget, Query, RunContext};
use tempo::arch::incremental::AnalysisDb;
use tempo::arch::prelude::*;
use tempo::engine::quiet_injected_panics;
use tempo::serve::json::JsonValue;
use tempo::serve::{wire, Client, QueryOpts, Server, ServerConfig};

/// A server over a pipe pair (the `--stdio` transport shape) plus a client
/// driving it; the connection thread joins on client drop + shutdown.
fn pipe_pair() -> (
    Client<BufReader<std::io::PipeReader>, std::io::PipeWriter>,
    std::thread::JoinHandle<()>,
) {
    pipe_pair_with(ServerConfig::default())
}

fn pipe_pair_with(
    cfg: ServerConfig,
) -> (
    Client<BufReader<std::io::PipeReader>, std::io::PipeWriter>,
    std::thread::JoinHandle<()>,
) {
    let (c2s_r, c2s_w) = std::io::pipe().unwrap();
    let (s2c_r, s2c_w) = std::io::pipe().unwrap();
    let server = Server::new(cfg);
    let handle = server.handle();
    let conn = std::thread::spawn(move || {
        handle.serve_connection(BufReader::new(c2s_r), s2c_w);
        server.begin_shutdown();
        server.join();
    });
    (Client::over(BufReader::new(s2c_r), c2s_w), conn)
}

/// Every query shape the daemon serves for a model.
fn queries_for(model: &ArchitectureModel) -> Vec<Query> {
    let mut qs: Vec<Query> = model
        .requirements
        .iter()
        .map(|r| Query::wcrt(&r.name))
        .collect();
    qs.push(Query::WcrtAll);
    qs.push(Query::DeadlineCheck {
        requirement: model.requirements[0].name.clone(),
    });
    qs.push(Query::QueueBounds);
    qs
}

/// Direct (in-process) answer keys for `queries` on a fresh database with the
/// daemon's default configuration.
fn direct_keys(model: &ArchitectureModel, queries: &[Query]) -> Vec<String> {
    let db = AnalysisDb::new(AnalysisConfig::default());
    queries
        .iter()
        .map(|q| wire::answer_key(&db.run(model, q, &RunContext::default()).unwrap()))
        .collect()
}

/// One `DbStats` counter (`hits`, `misses`, ...) summed over the server's
/// shared databases, read through the `stats` op.
fn db_stat<R, W>(client: &mut Client<R, W>, key: &str) -> i128
where
    R: std::io::BufRead,
    W: std::io::Write,
{
    let stats = client.stats().unwrap().unwrap();
    stats
        .get("dbs")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter_map(|d| d.get("stats")?.get(key)?.as_i128())
        .sum()
}

#[test]
fn wire_answers_are_byte_identical_cold_and_warm() {
    let models = [random_model(11), random_model(12), tdma_model(), burst_model()];
    let (mut client, conn) = pipe_pair();
    for model in &models {
        client.load_model(model).unwrap().unwrap();
        let queries = queries_for(model);
        let expected = direct_keys(model, &queries);
        // Cold pass: every cone is explored behind the wire.
        for (q, want) in queries.iter().zip(&expected) {
            let report = client
                .query(&model.name, q, &QueryOpts::default())
                .unwrap()
                .unwrap();
            assert_eq!(
                &wire::wire_answer_key(&report),
                want,
                "cold {} / {q:?}",
                model.name
            );
        }
        let cold_misses = db_stat(&mut client, "misses");
        // Warm pass: same answers, now from the shared database's cache.
        for (q, want) in queries.iter().zip(&expected) {
            let report = client
                .query(&model.name, q, &QueryOpts::default())
                .unwrap()
                .unwrap();
            assert_eq!(
                &wire::wire_answer_key(&report),
                want,
                "warm {} / {q:?}",
                model.name
            );
        }
        assert_eq!(
            db_stat(&mut client, "misses"),
            cold_misses,
            "the warm pass over {} re-explored a cone",
            model.name
        );
    }
    // The warm pass hit the cache rather than re-exploring.
    let hits = db_stat(&mut client, "hits");
    assert!(hits > 0, "warm pass produced no cache hits");
    client.shutdown().unwrap().unwrap();
    drop(client);
    conn.join().unwrap();
}

#[test]
fn batches_collapse_when_they_cover_the_requirement_set() {
    let model = random_model(21);
    let per_req: Vec<Query> = model
        .requirements
        .iter()
        .map(|r| Query::wcrt(&r.name))
        .collect();
    let expected = direct_keys(&model, &per_req);

    let (mut client, conn) = pipe_pair();
    client.load_model(&model).unwrap().unwrap();

    // Full cover → reported as batched, answers identical to individual
    // direct Wcrt queries.
    let batch = client
        .query_batch(&model.name, &per_req, &QueryOpts::default())
        .unwrap()
        .unwrap();
    assert_eq!(batch.get("batched").and_then(JsonValue::as_bool), Some(true));
    let results = batch.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), per_req.len());
    for (r, want) in results.iter().zip(&expected) {
        assert_eq!(r.get("ok").and_then(JsonValue::as_bool), Some(true));
        let report = r.get("report").unwrap();
        assert_eq!(&wire::wire_answer_key(report), want);
    }

    // The same full-cover batch again: still batched, same answers, and
    // answered from the cache without a single new exploration.
    let misses = db_stat(&mut client, "misses");
    let repeat = client
        .query_batch(&model.name, &per_req, &QueryOpts::default())
        .unwrap()
        .unwrap();
    assert_eq!(
        repeat.get("batched").and_then(JsonValue::as_bool),
        Some(true)
    );
    let results = repeat.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), per_req.len());
    for (r, want) in results.iter().zip(&expected) {
        assert_eq!(&wire::wire_answer_key(r.get("report").unwrap()), want);
    }
    assert_eq!(
        db_stat(&mut client, "misses"),
        misses,
        "a repeated full-cover batch re-explored a cone"
    );

    // A strict subset is not batched; its answers still match.
    let subset = &per_req[..1];
    let batch = client
        .query_batch(&model.name, subset, &QueryOpts::default())
        .unwrap()
        .unwrap();
    assert_eq!(
        batch.get("batched").and_then(JsonValue::as_bool),
        Some(false)
    );
    let results = batch.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(
        &wire::wire_answer_key(results[0].get("report").unwrap()),
        &expected[0]
    );

    // A batch with a bogus requirement reports a per-element typed error
    // while the healthy elements still answer.
    let mixed = vec![per_req[0].clone(), Query::wcrt("no-such-requirement")];
    let batch = client
        .query_batch(&model.name, &mixed, &QueryOpts::default())
        .unwrap()
        .unwrap();
    let results = batch.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        results[1].get("ok").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(
        results[1]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("unknown_requirement")
    );

    // Under a state budget each element of a full-cover batch carries its
    // own run: with 97 states `gen0`'s first requirement completes (90
    // states) and the second truncates (it needs 104), and each element's
    // answer, truncation flag and state count equal a dedicated query's.
    let budgeted = random_model(0);
    client.load_model(&budgeted).unwrap().unwrap();
    let queries: Vec<Query> = budgeted
        .requirements
        .iter()
        .map(|r| Query::wcrt(&r.name))
        .collect();
    let budget = Budget {
        wall_clock: None,
        max_states: Some(97),
    };
    let db = AnalysisDb::new(AnalysisConfig::default());
    let ctx = RunContext {
        budget,
        ..RunContext::default()
    };
    let direct: Vec<_> = queries
        .iter()
        .map(|q| db.run(&budgeted, q, &ctx).unwrap())
        .collect();
    assert_eq!(
        direct.iter().map(|r| r.truncated).collect::<Vec<_>>(),
        [false, true]
    );
    let opts = QueryOpts {
        max_states: budget.max_states,
        ..QueryOpts::default()
    };
    let batch = client
        .query_batch(&budgeted.name, &queries, &opts)
        .unwrap()
        .unwrap();
    assert_eq!(
        batch.get("batched").and_then(JsonValue::as_bool),
        Some(true)
    );
    let results = batch.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), direct.len());
    for (r, want) in results.iter().zip(&direct) {
        let report = r.get("report").unwrap();
        assert_eq!(wire::wire_answer_key(report), wire::answer_key(want));
        assert_eq!(
            report.get("states_stored").and_then(JsonValue::as_i128),
            want.states_stored.map(|s| s as i128)
        );
    }

    client.shutdown().unwrap().unwrap();
    drop(client);
    conn.join().unwrap();
}

#[test]
fn concurrent_clients_share_the_database_and_agree_with_direct_answers() {
    let models: Vec<ArchitectureModel> = vec![random_model(31), random_model(32), tdma_model()];
    let server = Server::new(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let (addr, accept) = server.spawn_local().unwrap();

    // Load every model once over a setup connection.
    let mut setup = Client::connect(addr).unwrap();
    for m in &models {
        setup.load_model(m).unwrap().unwrap();
    }

    let expected: Vec<(String, Vec<Query>, Vec<String>)> = models
        .iter()
        .map(|m| (m.name.clone(), queries_for(m), direct_keys(m, &queries_for(m))))
        .collect();
    let expected = Arc::new(expected);

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Each thread walks the workload from a different offset so
                // cold misses and warm hits interleave across connections.
                for i in 0..expected.len() {
                    let (name, queries, keys) = &expected[(t + i) % expected.len()];
                    for (q, want) in queries.iter().zip(keys) {
                        let report = client
                            .query(name, q, &QueryOpts::default())
                            .unwrap()
                            .unwrap();
                        assert_eq!(
                            &wire::wire_answer_key(&report),
                            want,
                            "thread {t}, {name} / {q:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    setup.shutdown().unwrap().unwrap();
    accept.join().unwrap();
}

/// Every error kind an engine failure can legitimately map onto the wire.
const TYPED_ENGINE_ERRORS: [&str; 9] = [
    "model",
    "unknown_requirement",
    "unsupported",
    "overload",
    "cancelled",
    "timed_out",
    "check",
    "panicked",
    "internal",
];

#[test]
fn injected_faults_surface_as_typed_errors_never_divergent_answers() {
    quiet_injected_panics();
    let models = [tdma_model(), burst_model()];
    let (mut client, conn) = pipe_pair();
    for model in &models {
        client.load_model(model).unwrap().unwrap();
        let queries: Vec<Query> = model
            .requirements
            .iter()
            .map(|r| Query::wcrt(&r.name))
            .collect();
        let baseline = direct_keys(model, &queries);
        for seed in (0..16u64).map(|i| 0xC0FFEE ^ (i * 0x9E37)) {
            for (q, want) in queries.iter().zip(&baseline) {
                let opts = QueryOpts {
                    fault_seed: Some(seed),
                    ..QueryOpts::default()
                };
                match client.query(&model.name, q, &opts).unwrap() {
                    Ok(report) => {
                        if report.get("truncated").and_then(JsonValue::as_bool) == Some(true) {
                            // An injected budget exhaustion degraded the run:
                            // sound (lower-bound) but not the exact answer.
                            continue;
                        }
                        assert_eq!(
                            &wire::wire_answer_key(&report),
                            want,
                            "seed {seed:#x}, {} / {q:?} diverged",
                            model.name
                        );
                    }
                    Err(e) => {
                        assert!(
                            TYPED_ENGINE_ERRORS.contains(&e.kind.as_str()),
                            "seed {seed:#x}: untyped error {e}"
                        );
                    }
                }
            }
        }
        // The storm leaves the daemon healthy: a fault-free query still
        // returns the exact baseline (workers survived injected panics).
        for (q, want) in queries.iter().zip(&baseline) {
            let report = client
                .query(&model.name, q, &QueryOpts::default())
                .unwrap()
                .unwrap();
            assert_eq!(&wire::wire_answer_key(&report), want);
        }
    }
    client.shutdown().unwrap().unwrap();
    drop(client);
    conn.join().unwrap();
}

/// Polls the inline `stats` op until the admission gauge matches.
fn wait_admission<R, W>(client: &mut Client<R, W>, active: i128, queued: i128)
where
    R: std::io::BufRead,
    W: std::io::Write,
{
    for _ in 0..2_000 {
        let stats = client.stats().unwrap().unwrap();
        let a = stats.get("admission").unwrap();
        if a.get("active").and_then(JsonValue::as_i128) == Some(active)
            && a.get("queued").and_then(JsonValue::as_i128) == Some(queued)
        {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("admission never reached active={active}, queued={queued}");
}

#[test]
fn admission_control_overload_cancellation_and_progress() {
    // One worker, two queued slots: the third concurrent query is refused
    // with a typed `overloaded` error instead of queueing unboundedly.
    let (mut client, conn) = pipe_pair_with(ServerConfig {
        workers: 1,
        queue_cap: 2,
        ..ServerConfig::default()
    });

    // The paper's intractable corner (bursty radio stream) explores states
    // far beyond any budget we grant — slow enough to hold the worker while
    // the queue fills deterministically (sequenced via the inline `stats`
    // op).  Per-request state budgets keep the test bounded: the holders get
    // a generous cap (they are cancelled long before reaching it) and the
    // query that runs to completion a small one, large enough to cross
    // several progress strides before truncating soundly.
    let slow = radio_navigation(
        ScenarioCombo::ChangeVolumeWithTmc,
        EventModelColumn::Burst,
        &CaseStudyParams::default(),
    );
    let slow_query = Query::wcrt(&slow.requirements[0].name);
    client.load_model(&slow).unwrap().unwrap();
    let opts_holder = QueryOpts {
        max_states: Some(400_000),
        ..QueryOpts::default()
    };

    let a = client
        .submit_query(&slow.name, &slow_query, &opts_holder)
        .unwrap();
    wait_admission(&mut client, 1, 0);
    let opts_progress = QueryOpts {
        max_states: Some(60_000),
        progress: true,
        ..QueryOpts::default()
    };
    let b = client
        .submit_query(&slow.name, &slow_query, &opts_holder)
        .unwrap();
    let c = client
        .submit_query(&slow.name, &slow_query, &opts_progress)
        .unwrap();
    wait_admission(&mut client, 1, 2);

    // Queue full → typed overload, answered inline.
    let d = client
        .submit_query(&slow.name, &slow_query, &opts_holder)
        .unwrap();
    let err = client.wait(d).unwrap().unwrap_err();
    assert_eq!(err.kind, "overloaded", "{err}");

    // Cancel the queued b (freed without running) and the in-flight a
    // (cooperative abort inside the explorer).
    client.cancel(b).unwrap().unwrap();
    client.cancel(a).unwrap().unwrap();
    let err = client.wait(a).unwrap().unwrap_err();
    assert_eq!(err.kind, "cancelled", "in-flight cancel: {err}");
    let err = client.wait(b).unwrap().unwrap_err();
    assert_eq!(err.kind, "cancelled", "queued cancel: {err}");

    // c inherited the freed slots and runs to completion, streaming progress
    // frames tagged with its own id.
    let report = client.wait(c).unwrap().unwrap();
    assert_eq!(
        report.get("engine").and_then(JsonValue::as_str),
        Some("incremental")
    );
    let frames = client.take_progress(c);
    assert!(
        !frames.is_empty(),
        "expected progress frames for the slow query"
    );
    for f in &frames {
        assert_eq!(f.get("id").and_then(JsonValue::as_u64), Some(c));
        assert!(f.get("states_explored").and_then(JsonValue::as_u64).is_some());
    }

    // The books balance: one pre-start cancellation, one rejection, and the
    // slot is free again for new work.
    let stats = client.stats().unwrap().unwrap();
    let adm = stats.get("admission").unwrap();
    assert_eq!(
        adm.get("cancelled_before_start").and_then(JsonValue::as_i128),
        Some(1)
    );
    assert_eq!(adm.get("rejected").and_then(JsonValue::as_i128), Some(1));
    assert_eq!(adm.get("active").and_then(JsonValue::as_i128), Some(0));

    let small = burst_model();
    client.load_model(&small).unwrap().unwrap();
    let report = client
        .query(&small.name, &Query::wcrt("lo-e2e"), &QueryOpts::default())
        .unwrap()
        .unwrap();
    let direct = direct_keys(&small, std::slice::from_ref(&Query::wcrt("lo-e2e")));
    assert_eq!(&wire::wire_answer_key(&report), &direct[0]);

    client.shutdown().unwrap().unwrap();
    drop(client);
    conn.join().unwrap();
}

