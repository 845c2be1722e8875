//! The four workloads: what each episode loads, asks and checks.
//!
//! An *episode* is one fresh daemon: spawn, set up (load the models, answer
//! the warm-up), the timed phase, a `stats` snapshot, shutdown.  Every
//! client runs a closed loop — it sends its next request only after the
//! previous answer arrived — on its own connection.

use crate::daemon::{Conn, Daemon};
use crate::inputs::{self, Cell, Rng};
use crate::stats::{counters_delta, flatten_stats, Counters};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tempo_arch::casestudy::EventModelColumn;
use tempo_arch::engine::Query;
use tempo_arch::model::ArchitectureModel;
use tempo_serve::{protocol, JsonValue, QueryOpts};

/// State budget of every `table1_cold` request: it decides the 20 cells
/// that need at most 98,412 states with room to spare and truncates the
/// five `bur` cells, which need 465k or more with the default store.  A
/// state budget, unlike a wall budget, decides the same cells on any host.
pub const TABLE1_STATE_BUDGET: usize = 120_000;

/// Requests each `warm_repeat` client sends per episode.
pub const WARM_REQUESTS_PER_CLIENT: usize = 25_000;

/// Share of batches, in fifths, in the warm request mix (the rest are
/// single queries).
const WARM_BATCH_FIFTHS: usize = 1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 25 Table 1 cells, cold, one client.
    Table1Cold,
    /// The 32×32 two-subsystem sweep: an edit plus a full-cover batch per
    /// design point, one client.
    SweepEdit,
    /// Two clients re-asking answered case-study cells.
    WarmRepeat,
    /// One client asking the cold `pj` cells while another re-asks warm
    /// ones.
    MixedColdWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Cold,
        Workload::SweepEdit,
        Workload::WarmRepeat,
        Workload::MixedColdWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Cold => "table1_cold",
            Workload::SweepEdit => "sweep_edit",
            Workload::WarmRepeat => "warm_repeat",
            Workload::MixedColdWarm => "mixed_cold_warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile reported as `lat_tail_ms`.  Fixed per workload, from
    /// the sample count one episode guarantees, so that a faster commit
    /// (more samples per run) reports the same percentile.  `table1_cold`
    /// has 25 cells, too few for ten beyond any tail; it reports p90, its
    /// third-slowest cell (a `bur` cell), which one slow sample moves less
    /// than the maximum.  Every other workload collects over a thousand
    /// samples an episode and reports p99.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Table1Cold => 90.0,
            _ => 99.0,
        }
    }
}

/// What a request was for; labels its trace span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Loading models and answering the warm-up, before the timed phase.
    Setup,
    /// A question whose cone the daemon has not explored yet.
    Cold,
    /// A question the daemon has answered before.
    Warm,
    /// An `edit_model`.
    Edit,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Setup => "setup",
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Edit => "edit",
        }
    }
}

/// One request as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// What it was for.
    pub class: Class,
    /// Round trip, submit to answer, in microseconds.
    pub rtt_us: f64,
    /// The answering report's `wall_time_us` (the daemon's time inside
    /// `AnalysisDb::run`); zero for requests that run no query.
    pub server_us: f64,
}

/// Checked answers.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, answered with a typed error, or answered wrongly.
    pub failed: u64,
    /// Timed-phase WCRT answers.
    pub answers: u64,
    /// Timed-phase answers that were `Exact`.
    pub exact: u64,
    /// Answers cut short by the state budget.
    pub truncated: u64,
    /// Summed `states_stored` of the answers that explored.
    pub explored_states: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answers += other.answers;
        self.exact += other.exact;
        self.truncated += other.truncated;
        self.explored_states += other.explored_states;
        for f in other.failures {
            self.note(f);
        }
    }

    fn note(&mut self, failure: String) {
        if self.failures.len() < 5 {
            self.failures.push(failure);
        }
    }
}

/// Everything measured in one episode.
#[derive(Debug)]
pub struct Episode {
    /// Spawn until listening, models loaded and warm-up answered.
    pub setup_s: f64,
    /// Time to finish the episode's fixed work (see the workload docs).
    pub wall_s: f64,
    /// Round trip of each operation completed within `wall_s`, in
    /// milliseconds.
    pub op_ms: Vec<f64>,
    /// `table1_cold` only: the index into [`Inputs::cold`] of the cell each
    /// operation asked, in `op_ms` order.
    pub op_cells: Vec<usize>,
    /// Every request of the episode, setup included.
    pub requests: Vec<Request>,
    /// Checked answers.
    pub tally: Tally,
    /// The daemon's peak resident set.
    pub rss_mb: f64,
    /// Change of the daemon's `stats` counters over the episode.
    pub daemon: Counters,
    /// `(workers, queue_cap)` the daemon reported.
    pub daemon_config: (i128, i128),
}

/// The inputs of one workload, built once per run.
pub struct Inputs {
    workload: Workload,
    /// Models loaded at setup.
    pub models: Vec<ArchitectureModel>,
    /// Questions asked cold (`table1_cold`, and client A of
    /// `mixed_cold_warm`).
    pub cold: Vec<Cell>,
    /// `table1_cold` only: the cells of [`WARM_COLUMNS`], which explore in
    /// milliseconds, as indices into `cold`.
    quick: Vec<usize>,
    /// Questions answered at setup and re-asked warm.
    pub warm: Vec<Cell>,
    /// Model name → indices into `warm`, in requirement order.
    warm_models: Vec<(String, Vec<usize>)>,
    /// The sweep's design points, as `(period A, period B)`.
    pub sweep: Vec<(i128, i128)>,
}

/// The case-study columns whose cells the warm workloads re-ask: the ones
/// that explore in milliseconds, so warm-up stays short.
pub const WARM_COLUMNS: [EventModelColumn; 3] = [
    EventModelColumn::PeriodicOffsetZero,
    EventModelColumn::PeriodicUnknownOffset,
    EventModelColumn::Sporadic,
];

impl Inputs {
    /// Builds the inputs of `workload`.
    pub fn new(workload: Workload) -> Inputs {
        let mut built = Inputs {
            workload,
            models: vec![inputs::warmup_model()],
            cold: Vec::new(),
            quick: Vec::new(),
            warm: Vec::new(),
            warm_models: Vec::new(),
            sweep: Vec::new(),
        };
        match workload {
            Workload::Table1Cold => {
                let (models, quick) = inputs::case_study(&WARM_COLUMNS, false);
                built.models.extend(models);
                built.quick = (0..quick.len()).collect();
                built.cold = quick;
                let slow = [EventModelColumn::PeriodicJitter, EventModelColumn::Burst];
                let (models, cells) = inputs::case_study(&slow, false);
                built.models.extend(models);
                built.cold.extend(cells);
            }
            Workload::SweepEdit => {
                for a in inputs::SWEEP_PERIODS {
                    for b in inputs::SWEEP_PERIODS {
                        built.sweep.push((a, b));
                    }
                }
                built.models.push(inputs::sweep_point("sweep", 20, 20));
            }
            Workload::WarmRepeat | Workload::MixedColdWarm => {
                let (models, cells) = inputs::case_study(&WARM_COLUMNS, true);
                built.models.extend(models);
                built.warm_models = group_by_model(&cells);
                built.warm = cells;
                if workload == Workload::MixedColdWarm {
                    let (models, cells) =
                        inputs::case_study(&[EventModelColumn::PeriodicJitter], false);
                    built.models.extend(models);
                    built.cold = cells;
                }
            }
        }
        built
    }

    /// Distinct input cones an episode asks about, warm-up included: the
    /// floor under the daemon's cache misses.
    pub fn distinct_cones(&self) -> u64 {
        let sweep_cones = if self.sweep.is_empty() {
            0
        } else {
            2 * inputs::SWEEP_PERIODS.count()
        };
        (1 + self.cold.len() + self.warm.len() + sweep_cones) as u64
    }

    /// The next operation of a warm client's seeded mix.
    fn warm_op(&self, rng: &mut Rng) -> WarmOp {
        let model = rng.below(self.warm_models.len());
        if rng.below(5) < WARM_BATCH_FIFTHS {
            WarmOp::Batch(model)
        } else {
            let cells = &self.warm_models[model].1;
            WarmOp::Query(cells[rng.below(cells.len())])
        }
    }

    /// The queries of a full-cover batch of warm model `model`, and the
    /// fixture value of each.
    fn warm_batch(&self, model: usize) -> (&str, Vec<Query>, Vec<f64>) {
        let (name, cells) = &self.warm_models[model];
        let cells = cells.iter().map(|&c| &self.warm[c]);
        let queries = cells.clone().map(|c| Query::wcrt(&c.requirement)).collect();
        (name, queries, cells.map(|c| c.expected_ms).collect())
    }

    /// The request frame of the next operation of a warm mix, with id `id`.
    pub fn warm_frame(&self, id: u64, rng: &mut Rng) -> String {
        let opts = QueryOpts::default();
        match self.warm_op(rng) {
            WarmOp::Query(cell) => {
                let cell = &self.warm[cell];
                protocol::request_query(id, &cell.model, &Query::wcrt(&cell.requirement), &opts)
            }
            WarmOp::Batch(model) => {
                let (name, queries, _) = self.warm_batch(model);
                protocol::request_query_batch(id, name, &queries, &opts)
            }
        }
    }
}

fn group_by_model(cells: &[Cell]) -> Vec<(String, Vec<usize>)> {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match groups.iter_mut().find(|(m, _)| *m == cell.model) {
            Some((_, idx)) => idx.push(i),
            None => groups.push((cell.model.clone(), vec![i])),
        }
    }
    groups
}

/// One operation of the warm mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WarmOp {
    /// A single `query` of one warm cell.
    Query(usize),
    /// A full-cover `query_batch` of one warm model (collapses server-side).
    Batch(usize),
}

/// A closed-loop client: one connection, its requests and checked answers.
pub struct Caller {
    conn: Conn,
    /// Mirrors the client's id counter, to label spans before submitting.
    last_id: u64,
    requests: Vec<Request>,
    tally: Tally,
}

/// A WCRT answer as the fixture check reads it.
struct Answer {
    exact: bool,
    truncated: bool,
    states: u64,
}

impl Caller {
    fn new(conn: Conn) -> Caller {
        Caller {
            conn,
            last_id: 0,
            requests: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Sends one request and waits for its answer, timing the round trip
    /// inside a `bench.request` span labelled with its class and id.
    /// Transport failures abort the run; typed errors are failed answers.
    fn call(
        &mut self,
        class: Class,
        submit: impl FnOnce(&mut Conn) -> std::io::Result<u64>,
    ) -> Result<Option<JsonValue>, String> {
        let id = self.next_id();
        let _span = tempo_obs::span!("bench.request", format!("{} id={id}", class.name()));
        let started = Instant::now();
        let sent = submit(&mut self.conn).map_err(|e| format!("send: {e}"))?;
        assert_eq!(sent, id, "request ids follow the client's counter");
        let answer = self.conn.wait(sent).map_err(|e| format!("receive: {e}"))?;
        let rtt_us = started.elapsed().as_secs_f64() * 1e6;
        self.tally.attempted += 1;
        let server_us = answer.as_ref().map_or(0.0, server_wall_us);
        self.requests.push(Request {
            class,
            rtt_us,
            server_us,
        });
        match answer {
            Ok(v) => Ok(Some(v)),
            Err(e) => {
                self.fail(format!("{} request {id}: {e}", class.name()));
                Ok(None)
            }
        }
    }

    /// The id the client will give its next request (it counts from 1).
    fn next_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    fn fail(&mut self, failure: String) {
        self.tally.failed += 1;
        self.tally.note(failure);
    }

    fn load(&mut self, model: &ArchitectureModel) -> Result<(), String> {
        self.call(Class::Setup, |c| c.submit_load_model(model, None, None))
            .map(drop)
    }

    fn edit(&mut self, model: &ArchitectureModel) -> Result<(), String> {
        self.call(Class::Edit, |c| c.submit_edit_model(model))
            .map(drop)
    }

    /// Asks one cell and checks the answer against the fixture.  A
    /// truncated answer passes only where `budget` allowed truncation, and
    /// only as a lower bound no higher than the fixture value.
    fn ask(&mut self, class: Class, cell: &Cell, budget: Option<usize>) -> Result<(), String> {
        let opts = QueryOpts {
            max_states: budget,
            ..QueryOpts::default()
        };
        let query = Query::wcrt(&cell.requirement);
        let Some(report) = self.call(class, |c| c.submit_query(&cell.model, &query, &opts))? else {
            return Ok(());
        };
        match check_report(&report, cell.expected_ms, budget.is_some()) {
            Ok(answer) => self.count(class, &[answer]),
            Err(e) => self.fail(format!("{}: {e}", cell.label)),
        }
        Ok(())
    }

    /// Asks a full-cover batch, which must collapse server-side, and checks
    /// every element against `expected_ms`.
    fn ask_batch(
        &mut self,
        class: Class,
        model: &str,
        queries: &[Query],
        expected_ms: &[f64],
    ) -> Result<(), String> {
        let opts = QueryOpts::default();
        let Some(result) = self.call(class, |c| c.submit_query_batch(model, queries, &opts))?
        else {
            return Ok(());
        };
        match check_batch(&result, expected_ms) {
            Ok(answers) => self.count(class, &answers),
            Err(e) => self.fail(format!("batch on {model}: {e}")),
        }
        Ok(())
    }

    /// Tallies the answers of one request.  Set-up and cold questions are
    /// the ones that explore; every element of a collapsed batch carries
    /// the one run's `states_stored`, so a batch counts it once.
    fn count(&mut self, class: Class, answers: &[Answer]) {
        if matches!(class, Class::Setup | Class::Cold) {
            self.tally.explored_states += answers.first().map_or(0, |a| a.states);
        }
        if class == Class::Setup {
            return;
        }
        for answer in answers {
            self.tally.answers += 1;
            self.tally.exact += u64::from(answer.exact);
            self.tally.truncated += u64::from(answer.truncated);
        }
    }

    fn stats(&mut self) -> Result<JsonValue, String> {
        self.next_id();
        match self.conn.stats() {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(e)) => Err(format!("stats refused: {e}")),
            Err(e) => Err(format!("stats: {e}")),
        }
    }
}

/// The daemon-side time of an answer: the report's `wall_time_us`, or for a
/// batch its first element's (a collapsed batch shares one run).
fn server_wall_us(result: &JsonValue) -> f64 {
    let report = match result.get("results").and_then(JsonValue::as_array) {
        Some(rows) => rows.first().and_then(|r| r.get("report")),
        None => Some(result),
    };
    report
        .and_then(|r| r.get("wall_time_us"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Reads the single estimate of a WCRT report and checks it against the
/// fixture.
fn check_report(
    report: &JsonValue,
    expected_ms: f64,
    may_truncate: bool,
) -> Result<Answer, String> {
    let estimates = report
        .get("estimates")
        .and_then(JsonValue::as_array)
        .ok_or("report has no estimates")?;
    let [row] = estimates else {
        return Err(format!("expected one estimate, got {}", estimates.len()));
    };
    let estimate = row.get("estimate").ok_or("estimate missing")?;
    let kind = estimate
        .get("kind")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let value = estimate.get("value").ok_or("estimate has no value")?;
    let num = value.get("num").and_then(JsonValue::as_i128);
    let den = value
        .get("den")
        .and_then(JsonValue::as_i128)
        .filter(|&d| d > 0);
    let (Some(num), Some(den)) = (num, den) else {
        return Err("malformed time value".into());
    };
    let ms = num as f64 / den as f64 / 1_000.0;
    let truncated = report.get("truncated").and_then(JsonValue::as_bool) == Some(true);
    let states = report
        .get("states_stored")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let tol = inputs::FIXTURE_TOLERANCE_MS;
    match kind {
        "exact" if !truncated && (ms - expected_ms).abs() <= tol => {}
        "lower_bound" if truncated && may_truncate && ms <= expected_ms + tol => {}
        _ => {
            return Err(format!(
                "answered {kind} {ms:.3} ms (truncated: {truncated}), fixture {expected_ms:.3} ms"
            ))
        }
    }
    Ok(Answer {
        exact: kind == "exact",
        truncated,
        states,
    })
}

/// Checks a full-cover batch result: collapsed, one `ok` element per query,
/// each matching the fixture.
fn check_batch(result: &JsonValue, expected_ms: &[f64]) -> Result<Vec<Answer>, String> {
    if result.get("batched").and_then(JsonValue::as_bool) != Some(true) {
        return Err("full-cover batch did not collapse".into());
    }
    let rows = result
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("batch has no results")?;
    if rows.len() != expected_ms.len() {
        return Err(format!(
            "{} results for {} queries",
            rows.len(),
            expected_ms.len()
        ));
    }
    rows.iter()
        .zip(expected_ms)
        .map(|(row, &expected)| {
            if row.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                return Err(format!("batch element failed: {row}"));
            }
            check_report(
                row.get("report").ok_or("element has no report")?,
                expected,
                false,
            )
        })
        .collect()
}

/// Spawns a daemon, loads the workload's models and answers the warm-up.
/// Returns the daemon, the primary client, the client's `stats` before any
/// model was loaded, and the set-up time.
fn set_up(inputs: &Inputs, bin: &Path) -> Result<(Daemon, Caller, JsonValue, f64), String> {
    let spawned = Instant::now();
    let daemon = Daemon::spawn(bin)?;
    let mut caller = Caller::new(daemon.connect()?);
    let before = caller.stats()?;
    for model in &inputs.models {
        caller.load(model)?;
    }
    let warmup = Cell {
        model: inputs::WARMUP_MODEL.into(),
        requirement: inputs::WARMUP_REQUIREMENT.into(),
        expected_ms: inputs::WARMUP_EXPECTED_MS,
        label: "warm-up".into(),
    };
    caller.ask(Class::Setup, &warmup, None)?;
    for cell in &inputs.warm {
        caller.ask(Class::Setup, cell, None)?;
    }
    Ok((daemon, caller, before, spawned.elapsed().as_secs_f64()))
}

/// Spawns a daemon, sets it up and shuts it down: one more `setup_s`
/// sample when a run has too few episodes for a steady median.
pub fn setup_only(inputs: &Inputs, bin: &Path) -> Result<f64, String> {
    let (daemon, caller, _, setup_s) = set_up(inputs, bin)?;
    if caller.tally.failed > 0 {
        return Err(format!(
            "set-up answers failed: {:?}",
            caller.tally.failures
        ));
    }
    daemon.shutdown(caller.conn)?;
    Ok(setup_s)
}

/// The timed phase's outcome before the daemon-side numbers are attached.
struct Timed {
    wall_s: f64,
    op_ms: Vec<f64>,
    op_cells: Vec<usize>,
    /// The second client, for workloads that have one.
    other: Option<Caller>,
}

/// Runs episode `index` of the workload against a fresh daemon.
pub fn episode(inputs: &Inputs, seed: u64, index: u64, bin: &Path) -> Result<Episode, String> {
    run_episode(inputs, seed, index, bin, false)
}

/// `table1_cold` only: an episode that asks just the millisecond cells
/// again, on a fresh daemon.  One VM scheduling hiccup is tens of
/// milliseconds, so a single sample of such a cell is mostly noise; the
/// run reports each cell's median over its episodes instead.
pub fn repeat_episode(
    inputs: &Inputs,
    seed: u64,
    index: u64,
    bin: &Path,
) -> Result<Episode, String> {
    run_episode(inputs, seed, index, bin, true)
}

fn run_episode(
    inputs: &Inputs,
    seed: u64,
    index: u64,
    bin: &Path,
    quick_only: bool,
) -> Result<Episode, String> {
    let (daemon, mut caller, before, setup_s) = set_up(inputs, bin)?;
    let mut rng = Rng::new(seed, 2 * index);
    let timed = match inputs.workload {
        Workload::Table1Cold => {
            let all: Vec<usize> = (0..inputs.cold.len()).collect();
            let cells = if quick_only { &inputs.quick } else { &all };
            table1_cold(inputs, cells, &mut caller, &mut rng)?
        }
        Workload::SweepEdit => sweep_edit(inputs, &mut caller, &mut rng)?,
        Workload::WarmRepeat => {
            let other = Caller::new(daemon.connect()?);
            warm_repeat(inputs, &mut caller, other, seed, index)?
        }
        Workload::MixedColdWarm => {
            let other = Caller::new(daemon.connect()?);
            mixed_cold_warm(inputs, &mut caller, other, &mut rng, seed, index)?
        }
    };
    let after = caller.stats()?;
    let rss_mb = daemon.peak_rss_mb()?;
    let mut requests = std::mem::take(&mut caller.requests);
    let mut tally = std::mem::take(&mut caller.tally);
    if let Some(other) = timed.other {
        requests.extend(other.requests);
        tally.merge(other.tally);
        // The second connection closes before shutdown is asked.
        drop(other.conn);
    }
    let admission = |key: &str| {
        after
            .get("admission")
            .and_then(|a| a.get(key))
            .and_then(JsonValue::as_i128)
            .unwrap_or(0)
    };
    let daemon_config = (admission("workers"), admission("queue_cap"));
    daemon.shutdown(caller.conn)?;
    Ok(Episode {
        setup_s,
        wall_s: timed.wall_s,
        op_ms: timed.op_ms,
        op_cells: timed.op_cells,
        requests,
        tally,
        rss_mb,
        daemon: counters_delta(&flatten_stats(&before), &flatten_stats(&after)),
        daemon_config,
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `table1_cold`: the given cells in seeded order, each a distinct cone.
fn table1_cold(
    inputs: &Inputs,
    cells: &[usize],
    caller: &mut Caller,
    rng: &mut Rng,
) -> Result<Timed, String> {
    let mut order = cells.to_vec();
    rng.shuffle(&mut order);
    let mut op_ms = Vec::with_capacity(order.len());
    let started = Instant::now();
    for &cell in &order {
        let t = Instant::now();
        caller.ask(Class::Cold, &inputs.cold[cell], Some(TABLE1_STATE_BUDGET))?;
        op_ms.push(ms_since(t));
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Timed {
        wall_s,
        op_ms,
        op_cells: order,
        other: None,
    })
}

/// `sweep_edit`: every design point in seeded order, as an `edit_model`
/// plus a full-cover batch.  A point is cold when it brings a period not
/// yet seen on either axis.
fn sweep_edit(inputs: &Inputs, caller: &mut Caller, rng: &mut Rng) -> Result<Timed, String> {
    let mut points = inputs.sweep.clone();
    rng.shuffle(&mut points);
    let models: Vec<ArchitectureModel> = points
        .iter()
        .map(|&(a, b)| inputs::sweep_point("sweep", a, b))
        .collect();
    let batch = [Query::wcrt("rA"), Query::wcrt("rB")];
    let (mut seen_a, mut seen_b) = (HashSet::new(), HashSet::new());
    let mut op_ms = Vec::with_capacity(points.len());
    let started = Instant::now();
    for (&(a, b), model) in points.iter().zip(&models) {
        let cold = seen_a.insert(a) | seen_b.insert(b);
        let class = if cold { Class::Cold } else { Class::Warm };
        let expected = [inputs::sweep_expected_ms(a), inputs::sweep_expected_ms(b)];
        let t = Instant::now();
        caller.edit(model)?;
        caller.ask_batch(class, "sweep", &batch, &expected)?;
        op_ms.push(ms_since(t));
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Timed {
        wall_s,
        op_ms,
        op_cells: Vec::new(),
        other: None,
    })
}

/// Sends one warm operation and returns its round trip in milliseconds.
fn warm_step(inputs: &Inputs, caller: &mut Caller, op: WarmOp) -> Result<f64, String> {
    let t = Instant::now();
    match op {
        WarmOp::Query(cell) => caller.ask(Class::Warm, &inputs.warm[cell], None)?,
        WarmOp::Batch(model) => {
            let (name, queries, expected) = inputs.warm_batch(model);
            caller.ask_batch(Class::Warm, name, &queries, &expected)?;
        }
    }
    Ok(ms_since(t))
}

/// `warm_repeat`: two clients, each sending its own seeded mix of
/// [`WARM_REQUESTS_PER_CLIENT`] warm requests.
fn warm_repeat(
    inputs: &Inputs,
    primary: &mut Caller,
    mut other: Caller,
    seed: u64,
    index: u64,
) -> Result<Timed, String> {
    let run = |caller: &mut Caller, stream: u64| -> Result<Vec<f64>, String> {
        let mut rng = Rng::new(seed, stream);
        let ops: Vec<WarmOp> = (0..WARM_REQUESTS_PER_CLIENT)
            .map(|_| inputs.warm_op(&mut rng))
            .collect();
        ops.into_iter()
            .map(|op| warm_step(inputs, caller, op))
            .collect()
    };
    let started = Instant::now();
    let (mine, theirs) = std::thread::scope(|s| {
        let helper = s.spawn(|| run(&mut other, 2 * index + 1));
        let mine = run(primary, 2 * index);
        (mine, helper.join().expect("warm client thread panicked"))
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut op_ms = mine?;
    op_ms.extend(theirs?);
    Ok(Timed {
        wall_s,
        op_ms,
        op_cells: Vec::new(),
        other: Some(other),
    })
}

/// `mixed_cold_warm`: client A asks the cold `pj` cells in seeded order
/// while client B re-asks warm cells until A is done.
fn mixed_cold_warm(
    inputs: &Inputs,
    primary: &mut Caller,
    mut other: Caller,
    rng: &mut Rng,
    seed: u64,
    index: u64,
) -> Result<Timed, String> {
    let mut order: Vec<&Cell> = inputs.cold.iter().collect();
    rng.shuffle(&mut order);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (cold, warm) = std::thread::scope(|s| {
        let helper = s.spawn(|| -> Result<Vec<f64>, String> {
            let mut rng = Rng::new(seed, 2 * index + 1);
            let mut op_ms = Vec::new();
            while !done.load(Ordering::Acquire) {
                op_ms.push(warm_step(inputs, &mut other, inputs.warm_op(&mut rng))?);
            }
            Ok(op_ms)
        });
        let cold = order
            .into_iter()
            .try_for_each(|cell| primary.ask(Class::Cold, cell, None))
            .map(|()| started.elapsed());
        // Release pairs with the helper's Acquire; the flag publishes no data.
        done.store(true, Ordering::Release);
        (cold, helper.join().expect("warm client thread panicked"))
    });
    let wall: Duration = cold?;
    let op_ms = warm?;
    Ok(Timed {
        wall_s: wall.as_secs_f64(),
        op_ms,
        op_cells: Vec::new(),
        other: Some(other),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_produces_the_same_mix() {
        let inputs = Inputs::new(Workload::WarmRepeat);
        let mix = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..2_000)
                .map(|_| inputs.warm_op(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(mix(11), mix(11));
        assert_ne!(mix(11), mix(12));
        let batches = mix(11)
            .iter()
            .filter(|op| matches!(op, WarmOp::Batch(_)))
            .count();
        // One op in five is a batch, within sampling noise.
        assert!((300..500).contains(&batches), "{batches} batches in 2000");
    }

    #[test]
    fn workload_inputs_have_the_documented_sizes() {
        let t1 = Inputs::new(Workload::Table1Cold);
        assert_eq!(t1.cold.len(), 25);
        assert_eq!(t1.distinct_cones(), 26);
        let sweep = Inputs::new(Workload::SweepEdit);
        assert_eq!(sweep.sweep.len(), 1024);
        assert_eq!(sweep.distinct_cones(), 65);
        let warm = Inputs::new(Workload::WarmRepeat);
        assert_eq!((warm.warm.len(), warm.warm_models.len()), (18, 6));
        let mixed = Inputs::new(Workload::MixedColdWarm);
        assert_eq!((mixed.cold.len(), mixed.warm.len()), (5, 18));
    }

    #[test]
    fn answers_are_checked_against_the_fixture() {
        let report = |kind: &str, num: i128, den: i128, truncated: bool| {
            tempo_serve::parse_json(&format!(
                r#"{{"estimates":[{{"estimate":{{"kind":"{kind}","value":{{"num":{num},"den":{den}}}}}}}],
                    "truncated":{truncated},"states_stored":7}}"#
            ))
            .unwrap()
        };
        // 172.106 ms exact, within the three-decimal tolerance.
        assert!(check_report(&report("exact", 1_721_062, 10, false), 172.106, false).is_ok());
        assert!(check_report(&report("exact", 172_108, 1, false), 172.106, false).is_err());
        // Truncation is a pass only where allowed, and only as a lower bound.
        let lb = report("lower_bound", 176_652, 1, true);
        assert!(check_report(&lb, 390.288, true).is_ok());
        assert!(check_report(&lb, 390.288, false).is_err());
        assert!(check_report(&lb, 170.0, true).is_err());
    }
}
