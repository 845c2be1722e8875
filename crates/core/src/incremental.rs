//! Incremental analysis database: memoized WCRT queries keyed by input-cone
//! content hashes.
//!
//! Design-space exploration re-analyses near-identical models: a sweep over a
//! thousand design points varies one processor capacity or one stimulus
//! period at a time, yet the classic pipeline re-validates, re-generates and
//! re-explores every requirement of every point from scratch.  The
//! [`AnalysisDb`] fixes that with the standard incremental-computation trick:
//! every derived artifact — the generated timed-automata network and the
//! per-requirement [`WcrtReport`] — is stored under a stable content hash of
//! its *input cone*, the subset of the model the artifact actually depends
//! on.  Re-running a query whose cone is unchanged is a cache hit and costs a
//! hash; editing one task's duration or one processor's MIPS invalidates only
//! the queries whose cone contains the edited entity.
//!
//! ## What is in a WCRT query's cone?
//!
//! The exact WCRT of a requirement depends on its scenario and on every
//! scenario it can interfere with, directly or transitively, through shared
//! processors and buses — the *resource-sharing closure* (priority
//! interference, non-preemptive blocking and TDMA slot ordering all travel
//! through resources; scenarios on disjoint resources cannot affect each
//! other's response times).  The cone therefore contains:
//!
//! * the requirement itself (measure points, deadline),
//! * the scenarios of the sharing closure, with their indices, event models,
//!   priorities and steps,
//! * the full content of every processor and bus those scenarios touch,
//! * the quantizer tick (derived from *all* durations of the model, so an
//!   out-of-cone edit that changes the rational-GCD tick soundly invalidates
//!   everything — the tick is part of every cone),
//! * the generator options and the extrapolation cap factors of the
//!   [`AnalysisConfig`].
//!
//! Search *strategy* options (order, reduction, zone merging) are
//! deliberately excluded: the repo's differential harnesses prove them
//! result-preserving, so they do not belong to the semantic cone.  As a
//! consequence only **complete** answers are cached — a truncated exploration
//! (state or wall-clock budget) depends on the strategy and is recomputed on
//! every call.  The [`ExplorationStats`] of a cached report are those of the
//! run that populated the cache.
//!
//! ## Counters
//!
//! [`AnalysisDb::stats`] exposes hit/miss/invalidation/generation counters:
//! a *hit* answers from cache, a *miss* explores, and an *invalidation* is
//! counted when a logical query (same model name, same requirement) is
//! re-asked with a different cone hash than its previous run — the observable
//! that a no-op edit (writing a field's value back unchanged) invalidates
//! nothing, which the incremental differential test asserts.
//!
//! ```
//! use tempo_arch::incremental::AnalysisDb;
//! use tempo_arch::prelude::*;
//!
//! let mut model = ArchitectureModel::new("incr");
//! let cpu = model.add_processor("CPU", 10, SchedulingPolicy::NonPreemptiveNd);
//! let task = model.add_scenario(Scenario {
//!     name: "task".into(),
//!     stimulus: EventModel::Periodic { period: TimeValue::millis(10) },
//!     priority: 0,
//!     steps: vec![Step::Execute { operation: "work".into(), instructions: 20_000, on: cpu }],
//! });
//! model.add_requirement(Requirement {
//!     name: "latency".into(),
//!     scenario: task,
//!     from: MeasurePoint::Stimulus,
//!     to: MeasurePoint::AfterStep(0),
//!     deadline: TimeValue::millis(10),
//! });
//!
//! let db = AnalysisDb::new(AnalysisConfig::default());
//! let cold = db.wcrt(&model, "latency").unwrap();
//! let warm = db.wcrt(&model, "latency").unwrap();
//! assert_eq!(cold.wcrt, warm.wcrt);
//! let stats = db.stats();
//! assert_eq!((stats.misses, stats.hits, stats.invalidations), (1, 1, 0));
//! ```

use crate::analysis::{analyze_generated, AnalysisConfig, ArchError, WcrtReport};
use crate::engine::{
    poll_entry_fault, EngineError, EngineReport, Query, RequirementEstimate, RunContext,
};
use crate::generator::{generate, GeneratedModel};
use crate::model::{ArchitectureModel, Requirement};
use crate::time::Quantizer;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tempo_check::ExplorationStats;

/// A 64-bit FNV-1a hasher.  The standard library's `DefaultHasher` algorithm
/// is explicitly unspecified and seeded per process; cone hashes must instead
/// be deterministic so that cache behavior (and the counters the tests
/// assert) is reproducible run to run.
struct StableHasher(u64);

impl StableHasher {
    fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
fn stable_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The resource-sharing closure of one scenario: every scenario reachable
/// from `root` through shared processors/buses, plus the resources touched
/// along the way.  Returned as membership masks over the model's index
/// spaces.
fn sharing_closure(
    model: &ArchitectureModel,
    root: usize,
) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    let mut scenarios = vec![false; model.scenarios.len()];
    let mut processors = vec![false; model.processors.len()];
    let mut buses = vec![false; model.buses.len()];
    let mut work = vec![root];
    while let Some(si) = work.pop() {
        if std::mem::replace(&mut scenarios[si], true) {
            continue;
        }
        for step in &model.scenarios[si].steps {
            match step {
                crate::model::Step::Execute { on, .. } => {
                    if let Some(slot) = processors.get_mut(on.0) {
                        *slot = true;
                    }
                }
                crate::model::Step::Transfer { over, .. } => {
                    if let Some(slot) = buses.get_mut(over.0) {
                        *slot = true;
                    }
                }
            }
        }
        // Any scenario touching one of the marked resources joins the cone.
        for (oi, other) in model.scenarios.iter().enumerate() {
            if scenarios[oi] {
                continue;
            }
            let shares = other.steps.iter().any(|step| match step {
                crate::model::Step::Execute { on, .. } => {
                    processors.get(on.0).copied().unwrap_or(false)
                }
                crate::model::Step::Transfer { over, .. } => {
                    buses.get(over.0).copied().unwrap_or(false)
                }
            });
            if shares {
                work.push(oi);
            }
        }
    }
    (scenarios, processors, buses)
}

/// Hashes the configuration fields that are part of every cone: the queue
/// capacity the generator bakes into the network and the extrapolation cap
/// factors that bound the observer clock.
fn hash_config(cfg: &AnalysisConfig, h: &mut StableHasher) {
    cfg.generator.hash(h);
    cfg.initial_cap_factor.hash(h);
    cfg.max_cap_factor.hash(h);
}

/// The quantizer tick of the model — part of every cone (see module docs).
fn model_tick(model: &ArchitectureModel) -> crate::time::TimeValue {
    Quantizer::for_durations(&model.all_durations()).tick()
}

/// The input-cone hash of one requirement's WCRT query.
fn estimate_cone_hash(model: &ArchitectureModel, req: &Requirement, cfg: &AnalysisConfig) -> u64 {
    let mut h = StableHasher::new();
    model_tick(model).hash(&mut h);
    hash_config(cfg, &mut h);
    req.hash(&mut h);
    let (scenarios, processors, buses) = sharing_closure(model, req.scenario.0);
    for (i, marked) in scenarios.iter().enumerate() {
        if *marked {
            i.hash(&mut h);
            model.scenarios[i].hash(&mut h);
        }
    }
    for (i, marked) in processors.iter().enumerate() {
        if *marked {
            i.hash(&mut h);
            model.processors[i].hash(&mut h);
        }
    }
    for (i, marked) in buses.iter().enumerate() {
        if *marked {
            i.hash(&mut h);
            model.buses[i].hash(&mut h);
        }
    }
    h.finish()
}

/// The input-cone hash of the queue-boundedness query: the whole functional
/// model (every scenario and resource — queues interact globally through the
/// shared tick) but not the requirements, which the base network ignores.
fn base_cone_hash(model: &ArchitectureModel, cfg: &AnalysisConfig) -> u64 {
    let mut h = StableHasher::new();
    model_tick(model).hash(&mut h);
    hash_config(cfg, &mut h);
    model.processors.hash(&mut h);
    model.buses.hash(&mut h);
    model.scenarios.hash(&mut h);
    h.finish()
}

/// Cache key of a generated network: the full model content plus the observer
/// flavor (`None` for the functional base network, `Some` for a measuring
/// network).  Networks embed every automaton, so their cone is the whole
/// model rather than a sharing closure.
fn network_key(model: &ArchitectureModel, observed: Option<&Requirement>, cfg: &AnalysisConfig) -> u64 {
    let mut h = StableHasher::new();
    base_cone_hash(model, cfg).hash(&mut h);
    match observed {
        None => 0u8.hash(&mut h),
        Some(req) => {
            1u8.hash(&mut h);
            req.hash(&mut h);
        }
    }
    h.finish()
}

/// Overlays a [`RunContext`]'s budget and hooks onto an analysis
/// configuration — the single translation behind the database's query
/// entry points.
fn apply_run_context(cfg: &AnalysisConfig, ctx: &RunContext) -> AnalysisConfig {
    let mut cfg = cfg.clone();
    cfg.search.hook = ctx.search_hook();
    if let Some(limit) = ctx.budget.max_states {
        cfg.search.max_states = Some(cfg.search.max_states.map_or(limit, |l| l.min(limit)));
        cfg.search.truncate_on_limit = true;
    }
    cfg
}

/// Hit/miss/invalidation counters of an [`AnalysisDb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries that had to explore.
    pub misses: u64,
    /// Logical queries whose input cone changed since their previous run
    /// (a no-op edit changes nothing and counts no invalidation).
    pub invalidations: u64,
    /// Timed-automata networks generated (cache misses of the network layer).
    pub generations: u64,
    /// Cumulative wall-clock nanoseconds spent generating networks on cache
    /// misses of the network layer (clamped to at least 1 ns per miss so a
    /// sub-timer-tick generation still registers).
    pub generation_nanos: u64,
    /// Cumulative wall-clock nanoseconds spent exploring on query cache
    /// misses (same 1 ns-per-miss clamp).
    pub exploration_nanos: u64,
}

impl DbStats {
    /// Total queries served (hits + misses).
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// The discrete counters as a `(hits, misses, invalidations, generations)`
    /// tuple — for exact asserts that should not pin the timing fields.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.invalidations, self.generations)
    }
}

/// The cached outcome of a queue-boundedness check (only complete outcomes
/// are cached; errors other than a reachable overflow are not memoizable).
#[derive(Clone)]
enum QueueOutcome {
    Bounded(ExplorationStats),
    Overflow(String),
}

#[derive(Default)]
struct DbInner {
    /// Generated networks by [`network_key`].
    networks: HashMap<u64, Arc<GeneratedModel>>,
    /// Complete per-requirement reports by [`estimate_cone_hash`].
    estimates: HashMap<u64, WcrtReport>,
    /// Complete queue-check outcomes by [`base_cone_hash`].
    queue_checks: HashMap<u64, QueueOutcome>,
    /// Last observed cone per logical query `(model name, query key)` —
    /// drives the invalidation counter.
    last_cone: HashMap<(String, String), u64>,
    stats: DbStats,
}

/// A memoizing analysis database (see the module docs for the cone
/// discipline) — the one cache and query dispatcher of the exact analysis;
/// [`TaEngine`](crate::engine::TaEngine) answers through one.
///
/// The database is model-agnostic and thread-safe: sweep workers share one
/// `&AnalysisDb` and feed it a different [`ArchitectureModel`] per design
/// point, so neighboring points reuse each other's untouched queries.
pub struct AnalysisDb {
    cfg: AnalysisConfig,
    inner: Mutex<DbInner>,
}

impl AnalysisDb {
    /// Creates an empty database with the given analysis configuration.
    pub fn new(cfg: AnalysisConfig) -> AnalysisDb {
        AnalysisDb {
            cfg,
            inner: Mutex::new(DbInner::default()),
        }
    }

    /// The analysis configuration in effect.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> DbStats {
        self.inner.lock().expect("analysis db lock").stats
    }

    /// Resets the counters (the caches stay warm) — used to delimit
    /// measurement windows in benches and tests.
    pub fn reset_stats(&self) {
        self.inner.lock().expect("analysis db lock").stats = DbStats::default();
    }

    /// Records the cone observed for a logical query and counts an
    /// invalidation when it differs from the previous observation.
    fn observe_cone(inner: &mut DbInner, model: &ArchitectureModel, query_key: String, cone: u64) {
        let prev = inner
            .last_cone
            .insert((model.name.clone(), query_key.clone()), cone);
        if let Some(prev) = prev {
            if prev != cone {
                inner.stats.invalidations += 1;
                tempo_obs::event!(
                    "db.invalidate",
                    model = model.name.as_str(),
                    query = query_key.as_str(),
                    old_cone = prev,
                    new_cone = cone
                );
            }
        }
    }

    /// The generated network for `observed`, from cache or the generator.
    fn network(
        &self,
        model: &ArchitectureModel,
        observed: Option<&Requirement>,
    ) -> Result<Arc<GeneratedModel>, ArchError> {
        let key = network_key(model, observed, &self.cfg);
        if let Some(g) = self.inner.lock().expect("analysis db lock").networks.get(&key) {
            return Ok(Arc::clone(g));
        }
        let gen_started = Instant::now();
        let generated = Arc::new(generate(model, observed, &self.cfg.generator)?);
        let gen_nanos = u64::try_from(gen_started.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        let mut inner = self.inner.lock().expect("analysis db lock");
        inner.stats.generations += 1;
        inner.stats.generation_nanos += gen_nanos;
        inner.networks.insert(key, Arc::clone(&generated));
        Ok(generated)
    }

    /// The WCRT of one requirement under the database's configuration.
    pub fn wcrt(&self, model: &ArchitectureModel, requirement: &str) -> Result<WcrtReport, ArchError> {
        model.validate()?;
        self.wcrt_with(model, requirement, &self.cfg)
    }

    /// The WCRTs of every requirement, one network, exploration and cache
    /// entry each, so after an edit only the affected requirements
    /// re-explore.
    pub fn wcrt_all(&self, model: &ArchitectureModel) -> Result<Vec<WcrtReport>, ArchError> {
        model.validate()?;
        model
            .requirements
            .iter()
            .map(|r| self.wcrt_with(model, &r.name, &self.cfg))
            .collect()
    }

    /// The WCRT of one requirement with a [`RunContext`]'s budgets,
    /// cancellation and progress hooks applied — the entry point the sweep
    /// drivers use.  A cache hit is free and bypasses the budget; a
    /// cancellation surfaces as `ArchError::Check(CheckError::Cancelled)`.
    pub fn wcrt_in(
        &self,
        model: &ArchitectureModel,
        requirement: &str,
        ctx: &RunContext,
    ) -> Result<WcrtReport, ArchError> {
        model.validate()?;
        if ctx.is_cancelled() {
            return Err(ArchError::Check(tempo_check::CheckError::Cancelled));
        }
        let cfg = apply_run_context(&self.cfg, ctx);
        self.wcrt_with(model, requirement, &cfg)
    }

    fn wcrt_with(
        &self,
        model: &ArchitectureModel,
        requirement: &str,
        cfg: &AnalysisConfig,
    ) -> Result<WcrtReport, ArchError> {
        let req = model
            .requirement_by_name(requirement)
            .cloned()
            .ok_or_else(|| ArchError::UnknownRequirement {
                name: requirement.to_string(),
            })?;
        let cone = estimate_cone_hash(model, &req, &self.cfg);
        {
            let mut inner = self.inner.lock().expect("analysis db lock");
            Self::observe_cone(&mut inner, model, format!("wcrt:{requirement}"), cone);
            if let Some(report) = inner.estimates.get(&cone).cloned() {
                inner.stats.hits += 1;
                tempo_obs::event!("db.hit", query = requirement, cone = cone);
                return Ok(report);
            }
            inner.stats.misses += 1;
            tempo_obs::event!("db.miss", query = requirement, cone = cone);
        }
        // Compute outside the lock so sweep workers explore concurrently;
        // a racing duplicate of the same cone is wasted work, not an error.
        let generated = self.network(model, Some(&req))?;
        let explore_started = Instant::now();
        let report = analyze_generated(&generated, &req, cfg)?;
        let explore_nanos = u64::try_from(explore_started.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        {
            let mut inner = self.inner.lock().expect("analysis db lock");
            inner.stats.exploration_nanos += explore_nanos;
            if !report.stats.truncated {
                inner.estimates.insert(cone, report.clone());
            }
        }
        Ok(report)
    }

    /// Verifies that no event queue can overflow: explores the functional
    /// (observer-free) network and surfaces a reachable overflow as
    /// [`ArchError::QueueOverflow`].
    pub fn queue_check(&self, model: &ArchitectureModel) -> Result<ExplorationStats, ArchError> {
        model.validate()?;
        self.queue_check_with(model, &self.cfg)
    }

    fn queue_check_with(
        &self,
        model: &ArchitectureModel,
        cfg: &AnalysisConfig,
    ) -> Result<ExplorationStats, ArchError> {
        let cone = base_cone_hash(model, &self.cfg);
        {
            let mut inner = self.inner.lock().expect("analysis db lock");
            Self::observe_cone(&mut inner, model, "queues".to_string(), cone);
            if let Some(outcome) = inner.queue_checks.get(&cone).cloned() {
                inner.stats.hits += 1;
                tempo_obs::event!("db.hit", query = "queues", cone = cone);
                return match outcome {
                    QueueOutcome::Bounded(stats) => Ok(stats),
                    QueueOutcome::Overflow(detail) => Err(ArchError::QueueOverflow { detail }),
                };
            }
            inner.stats.misses += 1;
            tempo_obs::event!("db.miss", query = "queues", cone = cone);
        }
        let generated = self.network(model, None)?;
        let check = |e| ArchError::from_check(e, &generated.system);
        let explorer =
            tempo_check::Explorer::new(&generated.system, cfg.search.clone()).map_err(check)?;
        let explore_started = Instant::now();
        let outcome = explorer.explore(|_| {});
        let explore_nanos = u64::try_from(explore_started.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        let result = outcome.map_err(check);
        let cacheable = match &result {
            Ok(stats) if !stats.truncated => Some(QueueOutcome::Bounded(stats.clone())),
            Err(ArchError::QueueOverflow { detail }) => {
                Some(QueueOutcome::Overflow(detail.clone()))
            }
            _ => None,
        };
        {
            let mut inner = self.inner.lock().expect("analysis db lock");
            inner.stats.exploration_nanos += explore_nanos;
            if let Some(outcome) = cacheable {
                inner.queue_checks.insert(cone, outcome);
            }
        }
        result
    }

    fn queues_bounded_with(
        &self,
        model: &ArchitectureModel,
        cfg: &AnalysisConfig,
    ) -> Result<Option<bool>, ArchError> {
        match self.queue_check_with(model, cfg) {
            Ok(stats) if stats.truncated => Ok(None),
            Ok(_) => Ok(Some(true)),
            Err(ArchError::QueueOverflow { .. }) => Ok(Some(false)),
            Err(e) => Err(e),
        }
    }

    /// Answers a typed [`Query`] with the context's budgets and cancellation
    /// applied — the only function that turns a query into an exact
    /// [`EngineReport`].  A cancelled context is refused on entry, even for
    /// a query the cache could answer.  Cache hits are free and bypass the
    /// budget; answers computed under an exhausted budget are truncated and
    /// therefore never cached.
    pub fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        let started = Instant::now();
        model.validate().map_err(ArchError::from)?;
        if ctx.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        let mut cfg = apply_run_context(&self.cfg, ctx);
        if poll_entry_fault(ctx)? {
            // Injected budget exhaustion: degrade exactly as if the
            // wall-clock budget had expired on entry — the exploration
            // truncates immediately and the answers are sound lower bounds.
            cfg.search.hook.wall_clock_budget = Some(std::time::Duration::ZERO);
        }
        let (estimates, verdict, states_stored, truncated) = match query {
            Query::Wcrt { requirement }
            | Query::Supremum { requirement }
            | Query::DeadlineCheck { requirement } => {
                let report = self.wcrt_with(model, requirement, &cfg)?;
                let mut row = RequirementEstimate::from_wcrt(&report);
                let mut verdict = None;
                match query {
                    Query::Supremum { .. } => row.meets_deadline = None,
                    Query::DeadlineCheck { .. } => verdict = report.meets_deadline,
                    _ => {}
                }
                let stats = &report.stats;
                (vec![row], verdict, Some(stats.stored_cumulative), stats.truncated)
            }
            Query::WcrtAll => {
                let reports: Vec<WcrtReport> = model
                    .requirements
                    .iter()
                    .map(|r| self.wcrt_with(model, &r.name, &cfg))
                    .collect::<Result<_, _>>()?;
                let states = reports.iter().map(|r| r.stats.stored_cumulative).max();
                let truncated = reports.iter().any(|r| r.stats.truncated);
                (
                    reports.iter().map(RequirementEstimate::from_wcrt).collect(),
                    None,
                    states,
                    truncated,
                )
            }
            Query::QueueBounds => {
                let verdict = self.queues_bounded_with(model, &cfg)?;
                // An undecided verdict means the exploration truncated.
                (Vec::new(), verdict, None, verdict.is_none())
            }
        };
        Ok(EngineReport {
            engine: "incremental".into(),
            query: query.clone(),
            estimates,
            verdict,
            wall_time: started.elapsed(),
            states_stored,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        BusArbitration, EventModel, MeasurePoint, Scenario, SchedulingPolicy, Step,
    };
    use crate::time::TimeValue;

    /// Two islands sharing nothing: r0 runs on CPU_A, r1 on CPU_B, and a
    /// 1 ms step on each island anchors the quantizer tick so editing the
    /// other island's durations cannot change it.
    fn two_island_model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("islands");
        let cpu_a = m.add_processor("CPU_A", 1, SchedulingPolicy::FixedPriorityPreemptive);
        let cpu_b = m.add_processor("CPU_B", 1, SchedulingPolicy::NonPreemptiveNd);
        for (i, cpu) in [cpu_a, cpu_b].into_iter().enumerate() {
            let sid = m.add_scenario(Scenario {
                name: format!("s{i}"),
                stimulus: EventModel::Periodic {
                    period: TimeValue::millis(20),
                },
                priority: i as u32,
                steps: vec![
                    Step::Execute {
                        operation: format!("anchor{i}"),
                        instructions: 1_000,
                        on: cpu,
                    },
                    Step::Execute {
                        operation: format!("work{i}"),
                        instructions: 3_000,
                        on: cpu,
                    },
                ],
            });
            m.add_requirement(crate::model::Requirement {
                name: format!("r{i}"),
                scenario: sid,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(1),
                deadline: TimeValue::millis(20),
            });
        }
        m
    }

    #[test]
    fn sharing_closure_separates_islands_and_follows_buses() {
        let m = two_island_model();
        let (scen, procs, buses) = sharing_closure(&m, 0);
        assert_eq!(scen, vec![true, false]);
        assert_eq!(procs, vec![true, false]);
        assert_eq!(buses, Vec::<bool>::new());

        // Adding a bus transfer to both scenarios merges the islands.
        let mut linked = m.clone();
        let bus = linked.add_bus("BUS", 8_000, BusArbitration::FixedPriority);
        for s in &mut linked.scenarios {
            s.steps.push(Step::Transfer {
                message: "x".into(),
                bytes: 1,
                over: bus,
            });
        }
        let (scen, procs, buses) = sharing_closure(&linked, 0);
        assert_eq!(scen, vec![true, true]);
        assert_eq!(procs, vec![true, true]);
        assert_eq!(buses, vec![true]);
    }

    #[test]
    fn out_of_cone_edit_preserves_the_cone_hash() {
        let m = two_island_model();
        let r0 = m.requirements[0].clone();
        let cfg = AnalysisConfig::default();
        let before = estimate_cone_hash(&m, &r0, &cfg);

        // Editing the other island.  The edit must stay on the 1 ms duration
        // grid (3 ms -> 5 ms) so the whole-model quantizer tick is unchanged;
        // a tick-shifting edit is in-cone by design, tested below.
        let mut edited = m.clone();
        if let Step::Execute { instructions, .. } = &mut edited.scenarios[1].steps[1] {
            *instructions = 5_000;
        }
        assert_eq!(estimate_cone_hash(&edited, &r0, &cfg), before);

        // A no-op edit is literally the same content.
        let mut noop = m.clone();
        noop.processors[0].mips = 1;
        assert_eq!(estimate_cone_hash(&noop, &r0, &cfg), before);

        // Editing the own island changes the hash.
        let mut own = m.clone();
        own.processors[0].mips = 2;
        assert_ne!(estimate_cone_hash(&own, &r0, &cfg), before);

        // And so does a tick change from the other island (a duration with a
        // finer grain than 1 ms).
        let mut tick = m.clone();
        if let Step::Execute { instructions, .. } = &mut tick.scenarios[1].steps[0] {
            *instructions = 1_500; // 1.5 ms at 1 MIPS
        }
        assert_ne!(estimate_cone_hash(&tick, &r0, &cfg), before);
    }

    #[test]
    fn counters_track_hits_misses_and_invalidations() {
        let m = two_island_model();
        let db = AnalysisDb::new(AnalysisConfig::default());
        let cold0 = db.wcrt(&m, "r0").unwrap();
        let cold1 = db.wcrt(&m, "r1").unwrap();
        assert_eq!(db.stats().counts(), (0, 2, 0, 2));

        // Warm re-run: all hits, nothing invalidated, nothing generated.
        assert_eq!(db.wcrt(&m, "r0").unwrap().wcrt, cold0.wcrt);
        assert_eq!(db.wcrt(&m, "r1").unwrap().wcrt, cold1.wcrt);
        assert_eq!(db.stats().counts(), (2, 2, 0, 2));

        // Edit island B (on the 1 ms grid, so the shared tick is unchanged):
        // r1 invalidates and re-explores, r0 still hits.
        let mut edited = m.clone();
        if let Step::Execute { instructions, .. } = &mut edited.scenarios[1].steps[1] {
            *instructions = 5_000;
        }
        db.reset_stats();
        assert_eq!(db.wcrt(&edited, "r0").unwrap().wcrt, cold0.wcrt);
        let r1 = db.wcrt(&edited, "r1").unwrap();
        assert!(r1.wcrt.unwrap() > cold1.wcrt.unwrap());
        assert_eq!(db.stats().counts(), (1, 1, 1, 1));

        // Editing back restores the original cones: both hits again, but the
        // r1 cone did change relative to its previous observation.
        db.reset_stats();
        assert_eq!(db.wcrt(&m, "r0").unwrap().wcrt, cold0.wcrt);
        assert_eq!(db.wcrt(&m, "r1").unwrap().wcrt, cold1.wcrt);
        assert_eq!(db.stats().counts(), (2, 0, 1, 0));
    }

    #[test]
    fn run_matches_session_and_reuses_the_cache() {
        let m = two_island_model();
        let cfg = AnalysisConfig::default();
        let db = AnalysisDb::new(cfg.clone());
        let via_db = db.run(&m, &Query::WcrtAll, &RunContext::default()).unwrap();
        assert_eq!(via_db.estimates.len(), m.requirements.len());
        for (a, req) in via_db.estimates.iter().zip(&m.requirements) {
            // The uncached reference: a fresh network and exploration.
            let generated = generate(&m, Some(req), &cfg.generator).unwrap();
            let b = RequirementEstimate::from_wcrt(&analyze_generated(&generated, req, &cfg).unwrap());
            assert_eq!(a.requirement, b.requirement);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.meets_deadline, b.meets_deadline);
        }
        // Queue bounds flow through the cache, too.
        let q1 = db.run(&m, &Query::QueueBounds, &RunContext::default()).unwrap();
        let q2 = db.run(&m, &Query::QueueBounds, &RunContext::default()).unwrap();
        assert_eq!(q1.verdict, Some(true));
        assert_eq!(q2.verdict, Some(true));
        let stats = db.stats();
        assert_eq!(stats.misses, 3, "two WCRT queries + one queue check");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn warm_query_with_a_cancelled_context_is_cancelled() {
        let m = two_island_model();
        let db = AnalysisDb::new(AnalysisConfig::default());
        let warm = db.run(&m, &Query::wcrt("r0"), &RunContext::default()).unwrap();
        assert!(warm.estimates[0].estimate.is_exact());
        let cancelled = RunContext {
            cancel: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true))),
            ..RunContext::default()
        };
        for query in [Query::wcrt("r0"), Query::WcrtAll, Query::QueueBounds] {
            assert!(
                matches!(db.run(&m, &query, &cancelled), Err(EngineError::Cancelled)),
                "{query}: a cancelled context must not be answered from the cache"
            );
        }
        assert_eq!(db.stats().counts(), (0, 1, 0, 1), "cancelled queries touch no cache");
    }

    #[test]
    fn unknown_requirement_is_reported() {
        let db = AnalysisDb::new(AnalysisConfig::default());
        assert!(matches!(
            db.wcrt(&two_island_model(), "nope"),
            Err(ArchError::UnknownRequirement { .. })
        ));
    }

    #[test]
    fn stable_hasher_is_deterministic() {
        assert_eq!(stable_hash("tempo"), stable_hash("tempo"));
        assert_ne!(stable_hash("tempo"), stable_hash("tempi"));
    }
}
