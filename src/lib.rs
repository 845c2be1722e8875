//! # tempo — timed-automata based analysis of embedded system architectures
//!
//! `tempo` is a reproduction of Hendriks & Verhoef, *Timed Automata Based
//! Analysis of Embedded System Architectures* (IPPS 2006), built as a family
//! of crates behind one **unified engine API** ([`tempo_arch::engine`]):
//!
//! | crate | contents | engine |
//! |-------|----------|--------|
//! | [`tempo_dbm`]   | difference bound matrices (zones) | — |
//! | [`tempo_ta`]    | networks of timed automata with bounded integers, urgent/broadcast channels and committed locations | — |
//! | [`tempo_check`] | UPPAAL-style zone-graph model checker (reachability, safety, WCRT suprema, budget/cancel hooks) | — |
//! | [`tempo_arch`]  | the paper's contribution: architecture models → timed automata → exact WCRTs; the [`Query`](arch::engine::Query)/[`Engine`](arch::engine::Engine)/[`AnalysisDb`](arch::incremental::AnalysisDb)/[`Portfolio`](arch::engine::Portfolio) surface | `TaEngine` (exact) |
//! | [`tempo_rtc`]   | Modular Performance Analysis / real-time calculus baseline | `RtcEngine` (upper bounds) |
//! | [`tempo_symta`] | SymTA/S-style compositional busy-window analysis baseline | `SymtaEngine` (upper bounds) |
//! | [`tempo_sim`]   | discrete-event simulation baseline (POOSL/SHESIM stand-in) | `SimEngine` (lower bounds) |
//!
//! This umbrella crate re-exports all of them, adds the
//! [`engine::standard_portfolio`] constructor wiring every technique into one
//! cross-checking [`Portfolio`](arch::engine::Portfolio), and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).
//!
//! ## Quick start
//!
//! Describe an architecture once, then ask typed [`Query`](arch::engine::Query)s
//! through an [`AnalysisDb`](arch::incremental::AnalysisDb) (which generates
//! one timed-automata network per requirement and memoizes every complete
//! answer, so repeated queries are cache hits) or fan a
//! query across **all four techniques** with a portfolio, getting the paper's
//! `simulation ≤ exact ≤ SymTA/S ≈ MPA` bracket checked for free:
//!
//! ```
//! use tempo::arch::prelude::*;
//!
//! let mut model = ArchitectureModel::new("quickstart");
//! let cpu = model.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityPreemptive);
//! let s = model.add_scenario(Scenario {
//!     name: "control".into(),
//!     stimulus: EventModel::Periodic { period: TimeValue::millis(5) },
//!     priority: 0,
//!     steps: vec![Step::Execute { operation: "loop".into(), instructions: 100_000, on: cpu }],
//! });
//! model.add_requirement(Requirement {
//!     name: "control latency".into(),
//!     scenario: s,
//!     from: MeasurePoint::Stimulus,
//!     to: MeasurePoint::AfterStep(0),
//!     deadline: TimeValue::millis(5),
//! });
//!
//! // One database, many queries: a repeat generates and explores nothing.
//! let db = AnalysisDb::new(AnalysisConfig::default());
//! let report = db.run(&model, &Query::WcrtAll, &RunContext::default()).unwrap();
//! assert_eq!(report.estimates[0].estimate, Estimate::Exact(TimeValue::millis(1)));
//! db.run(&model, &Query::WcrtAll, &RunContext::default()).unwrap();
//! assert_eq!(db.stats().generations, 1);
//!
//! // The same question to every technique, bracket-checked and reconciled.
//! let portfolio = tempo::engine::standard_portfolio();
//! let comparison = portfolio
//!     .compare(&model, &Query::wcrt("control latency"), &RunContext::default())
//!     .unwrap();
//! assert!(comparison.bracket_ok());
//! assert_eq!(
//!     comparison.requirements[0].reconciled,
//!     Estimate::Exact(TimeValue::millis(1)),
//! );
//! ```
//!
//! Long-running queries take a [`RunContext`](arch::engine::RunContext) with
//! a wall-clock/state budget (a budgeted exact query degrades to a
//! well-formed *lower bound* instead of failing), a cancellation flag, an
//! optional shared deadline and a progress callback, all threaded down into
//! the model checker's explorer.
//!
//! ## Incremental design-space exploration
//!
//! Repeated analyses — parameter sweeps, edit–re-analyse loops — run
//! against an [`AnalysisDb`](arch::incremental::AnalysisDb), which memoizes
//! generated networks and finished estimates by a content hash of each
//! query's **input cone** (the resource-sharing closure of its scenario,
//! the requirement, the quantizer tick and the generator config).  A
//! [`Sweep`](arch::explore::Sweep) over a shared database only explores
//! each distinct cone once, and after an edit only the queries whose cone
//! actually changed re-run:
//!
//! ```
//! use tempo::arch::explore::Sweep;
//! use tempo::arch::prelude::*;
//!
//! # let mut model = ArchitectureModel::new("dse");
//! # let cpu = model.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityPreemptive);
//! # let s = model.add_scenario(Scenario {
//! #     name: "control".into(),
//! #     stimulus: EventModel::Periodic { period: TimeValue::millis(5) },
//! #     priority: 0,
//! #     steps: vec![Step::Execute { operation: "loop".into(), instructions: 100_000, on: cpu }],
//! # });
//! # model.add_requirement(Requirement {
//! #     name: "control latency".into(),
//! #     scenario: s,
//! #     from: MeasurePoint::Stimulus,
//! #     to: MeasurePoint::AfterStep(0),
//! #     deadline: TimeValue::millis(5),
//! # });
//! let db = AnalysisDb::new(AnalysisConfig::default());
//! let sweep = Sweep::new(model).vary_processor_mips("CPU", [100, 200, 400]);
//!
//! // Cold: every design point has a distinct cone — three explorations.
//! let outcome = sweep.run_with(&db, 1, &RunContext::default()).unwrap();
//! assert!(outcome.rows.iter().all(|r| r.all_deadlines_met()));
//! assert_eq!(db.stats().misses, 3);
//!
//! // Warm: the identical sweep is answered entirely from the cache.
//! sweep.run_with(&db, 1, &RunContext::default()).unwrap();
//! assert_eq!(db.stats().misses, 3);
//! assert_eq!(db.stats().hits, 3);
//! ```
//!
//! `tests/incremental_differential.rs` counts the collapse exactly on a
//! two-island grid: a cold `g × g` sweep explores its `2g` distinct cones
//! once, a warm re-run explores nothing, and an edit to one island
//! re-explores only that island's `g` cones.  Perfbench's `sweep_edit`
//! workload measures the same loop end to end through `tempo-serve`.
//!
//! ## Robustness: fault isolation and fault injection
//!
//! The portfolio is built to *never return a wrong answer* — only a slower,
//! looser, or explicitly declined one. Every engine runs behind
//! [`Engine::run_isolated`](arch::engine::Engine::run_isolated), which
//! converts a panic into a typed
//! [`EngineError::Panicked`](arch::engine::EngineError::Panicked). A failing
//! engine degrades to a per-engine
//! [`EngineStatus`](arch::engine::EngineStatus) row
//! in the [`ComparisonReport`](arch::engine::ComparisonReport) while the
//! survivors still reconcile, and transient failures or budget-truncated
//! answers are retried under a [`RetryPolicy`](arch::engine::RetryPolicy)
//! with exponentially doubled budgets beneath one shared deadline.
//!
//! These paths are testable deterministically: a seeded
//! [`FaultPlan`](check::FaultPlan) threaded through
//! [`RunContext::faults`](arch::engine::RunContext) injects panics, spurious
//! cancellations, budget exhaustion and transient errors at instrumented
//! points in the engines and the explorer (engine entry, store insert,
//! successor generation, progress callbacks) — zero-cost when absent. The
//! chaos differential harness (`tests/chaos_differential.rs`) runs the full
//! portfolio under a matrix of fault seeds and asserts every answer is the
//! fault-free baseline, a sound bound of it, or a typed error — never a
//! divergent verdict.
//!
//! ## Observability
//!
//! The engines are instrumented end to end with [`tempo_obs`] (re-exported
//! as [`obs`]): per-phase spans in the explorer (successor generation,
//! closure + extrapolation, store insertion), store counters (subsumption
//! hits, evictions, merges), per-engine portfolio spans with
//! retry/degradation events, and analysis-database hit/miss/invalidation
//! events carrying the input-cone hashes.  With **no subscriber installed
//! the whole layer costs one relaxed atomic load per site**:
//! `tests/obs_fastpath.rs` asserts a full exploration dispatches nothing,
//! and perfbench's `table1_cold` `wall_s` bound keeps the uninstrumented
//! wall from regressing.  `tests/phase_attribution.rs` asserts the named
//! explorer phases attribute at least 90% of the exploration wall.  Install
//! a subscriber to collect:
//!
//! ```
//! use std::sync::Arc;
//! use tempo::arch::prelude::*;
//! use tempo::obs::MetricsRegistry;
//!
//! # let mut model = ArchitectureModel::new("observed");
//! # let cpu = model.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityPreemptive);
//! # let s = model.add_scenario(Scenario {
//! #     name: "control".into(),
//! #     stimulus: EventModel::Periodic { period: TimeValue::millis(5) },
//! #     priority: 0,
//! #     steps: vec![Step::Execute { operation: "loop".into(), instructions: 100_000, on: cpu }],
//! # });
//! # model.add_requirement(Requirement {
//! #     name: "control latency".into(),
//! #     scenario: s,
//! #     from: MeasurePoint::Stimulus,
//! #     to: MeasurePoint::AfterStep(0),
//! #     deadline: TimeValue::millis(5),
//! # });
//! let registry = Arc::new(MetricsRegistry::new());
//! tempo::obs::install(registry.clone());
//!
//! let db = AnalysisDb::new(AnalysisConfig::default());
//! db.run(&model, &Query::WcrtAll, &RunContext::default()).unwrap();
//! tempo::obs::uninstall();
//!
//! let snapshot = registry.snapshot();
//! assert!(snapshot.span_count("explore.successor_gen") > 0);
//! assert!(snapshot.span_total_nanos("explore.store_insert") > 0);
//! // `snapshot.to_json()` renders the full phase/counter breakdown.
//! ```
//!
//! Two more subscribers ship in the box: [`obs::JsonlSubscriber`] captures
//! the raw event stream (machine-checkable with [`obs::validate_jsonl`]) and
//! [`obs::ChromeTraceSubscriber`] exports an `about:tracing` / Perfetto
//! timeline.  `tests/trace_chaos.rs` validates the JSONL stream of
//! fault-injected runs, and perfbench's `--trace 1` prints the per-layer
//! split of a whole workload.
//!
//! ## Serving: analysis as a service
//!
//! [`tempo_serve`] (re-exported as [`serve`]) wraps the analysis database in
//! a long-lived daemon (`tempo-serve`) speaking one JSON object per line
//! over stdin/stdout or TCP — no external dependencies, the JSON layer is
//! its own property-tested parser/printer pair.  One shared
//! [`AnalysisDb`](arch::incremental::AnalysisDb) per analysis configuration
//! outlives individual requests, so repeated and concurrent clients hit warm
//! input cones; `query_batch` answers each element as its own query in one
//! job and one response frame, and reports `batched: true` when the batch
//! covers a model's requirement set.  Admission is controlled (bounded
//! worker pool + queue, typed `overloaded` rejection, cancellation by
//! request id), long runs stream tagged `progress` frames,
//! and every [`EngineError`](arch::engine::EngineError) crosses the wire as
//! a typed error — the robustness contract (never wrong; only slower,
//! looser, or explicitly declined) holds end to end, which
//! `tests/serve_differential.rs` checks byte-for-byte against direct
//! [`AnalysisDb::run`](arch::incremental::AnalysisDb::run) answers, under
//! concurrency and injected faults:
//!
//! ```
//! use std::io::BufReader;
//! use tempo::arch::prelude::*;
//! use tempo::serve::{Client, Server, ServerConfig};
//!
//! # let mut model = ArchitectureModel::new("served");
//! # let cpu = model.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityPreemptive);
//! # let s = model.add_scenario(Scenario {
//! #     name: "control".into(),
//! #     stimulus: EventModel::Periodic { period: TimeValue::millis(5) },
//! #     priority: 0,
//! #     steps: vec![Step::Execute { operation: "loop".into(), instructions: 100_000, on: cpu }],
//! # });
//! # model.add_requirement(Requirement {
//! #     name: "control latency".into(),
//! #     scenario: s,
//! #     from: MeasurePoint::Stimulus,
//! #     to: MeasurePoint::AfterStep(0),
//! #     deadline: TimeValue::millis(5),
//! # });
//! // The same transport shape as `tempo-serve --stdio`: a pipe pair.
//! let (c2s_r, c2s_w) = std::io::pipe().unwrap();
//! let (s2c_r, s2c_w) = std::io::pipe().unwrap();
//! let server = Server::new(ServerConfig::default());
//! let handle = server.handle();
//! let conn = std::thread::spawn(move || {
//!     handle.serve_connection(BufReader::new(c2s_r), s2c_w);
//! });
//!
//! let mut client = Client::over(BufReader::new(s2c_r), c2s_w);
//! client.load_model(&model).unwrap().unwrap();
//! let report = client
//!     .query("served", &Query::wcrt("control latency"), &Default::default())
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(
//!     report.get("engine").and_then(|e| e.as_str()),
//!     Some("incremental"),
//! );
//! client.shutdown().unwrap().unwrap();
//! conn.join().unwrap();
//! ```
//!
//! `tests/serve_differential.rs` also asserts through the `stats` op that a
//! warm pass and a repeated full-cover batch re-explore nothing.  Perfbench
//! (`perfbench/`) drives a loopback daemon end to end and bounds the
//! latency of warm and post-edit queries (`warm_repeat`, `sweep_edit`).
#![forbid(unsafe_code)]

/// Difference bound matrices (clock zones).
pub use tempo_dbm as dbm;
/// Timed-automata modeling language.
pub use tempo_ta as ta;
/// Zone-graph model checker.
pub use tempo_check as check;
/// Structured tracing and metrics: spans, counters, histograms, events, and
/// the in-memory / JSONL / Chrome-trace subscribers.
pub use tempo_obs as obs;
/// Architecture front-end, WCRT analysis and the unified engine API (the
/// paper's contribution).
pub use tempo_arch as arch;
/// Real-time calculus / Modular Performance Analysis baseline.
pub use tempo_rtc as rtc;
/// SymTA/S-style busy-window analysis baseline.
pub use tempo_symta as symta;
/// Discrete-event simulation baseline.
pub use tempo_sim as sim;
/// Analysis-as-a-service daemon: line-oriented JSON protocol, admission
/// control, progress streaming and cache-aware batching over the analysis
/// database.
pub use tempo_serve as serve;

/// The unified engine API with every technique's [`Engine`](engine::Engine)
/// in one place, plus the standard cross-checking portfolio.
pub mod engine {
    pub use tempo_arch::engine::*;
    pub use tempo_rtc::RtcEngine;
    pub use tempo_sim::SimEngine;
    pub use tempo_symta::SymtaEngine;

    /// The paper's Section 5 line-up as one [`Portfolio`]: exact
    /// timed-automata analysis, discrete-event simulation (lower bounds),
    /// SymTA/S-style busy windows and MPA/real-time calculus (upper bounds).
    pub fn standard_portfolio() -> Portfolio {
        Portfolio::new()
            .with_engine(Box::new(TaEngine::default()))
            .with_engine(Box::new(SimEngine::default()))
            .with_engine(Box::new(SymtaEngine))
            .with_engine(Box::new(RtcEngine))
    }
}
