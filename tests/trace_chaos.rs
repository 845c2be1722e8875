//! Fault-injected runs must emit well-formed traces: the JSONL stream a
//! chaos sweep produces has to parse, balance its spans per thread, and keep
//! per-thread timestamps monotone even when an expansion panics,
//! budgets expire, or spurious cancellations fire.  Span guards are RAII, so
//! an unwinding expansion still closes its spans — this is the test that
//! keeps that property honest.
//!
//! The test owns the process-global subscriber, so it lives in its own test
//! binary (the other integration suites never install one).

mod common;

use common::burst_model;
use std::sync::Arc;
use tempo::arch::prelude::*;
use tempo::check::FaultPlan;
use tempo::engine::{quiet_injected_panics, Engine, TaEngine};
use tempo::obs::{validate_jsonl, JsonlSubscriber};

#[test]
fn fault_injected_runs_emit_well_formed_traces() {
    quiet_injected_panics();
    let model = burst_model();
    let jsonl = Arc::new(JsonlSubscriber::new());
    tempo::obs::install(jsonl.clone());

    // A small chaos sweep: two seeds on the default options.  The answers
    // themselves are the chaos differential harness's concern; here only the
    // trace's structural integrity matters, so errors (typed fault
    // surfacing) are fine.
    for seed in [0xC0FFEEu64, 0xBEEF ^ 0x9E37] {
        let ctx = RunContext {
            faults: Some(Arc::new(FaultPlan::from_seed(seed))),
            ..RunContext::default()
        };
        // `run_isolated` is the panic barrier the portfolio uses: an
        // injected panic surfaces as a typed error while the RAII span
        // guards unwind and close their spans.
        let engine = TaEngine::with_config(AnalysisConfig::default());
        let _ = engine.run_isolated(&model, &Query::WcrtAll, &ctx);
    }
    tempo::obs::uninstall();

    let lines = jsonl.lines();
    assert!(!lines.is_empty(), "the sweep must have traced something");
    let check = validate_jsonl(lines.iter().map(String::as_str))
        .unwrap_or_else(|e| panic!("fault-injected trace failed validation: {e}"));
    assert!(check.spans_started > 0, "no spans were recorded");
    assert_eq!(
        check.spans_started, check.spans_ended,
        "spans leaked across a fault"
    );
}
