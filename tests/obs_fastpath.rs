//! Fast-path obligations of the observability layer, and the progress-stream
//! fields that ride along with it.
//!
//! This test binary deliberately never installs a subscriber: the whole
//! `tempo_obs` layer must then be inert — a full exploration may not dispatch
//! a single record (asserted through the global dispatch counter and through
//! subscriber buffers that were constructed but never installed).  The
//! companion obligation checks that the explorer populates the
//! [`SearchProgress`] `waiting` field.

mod common;

use common::burst_model;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tempo::arch::prelude::*;
use tempo::check::SearchProgress;
use tempo::obs::{JsonlSubscriber, MetricsRegistry};

#[test]
fn no_subscriber_exploration_dispatches_nothing() {
    assert!(
        !tempo::obs::enabled(),
        "this binary must not install a subscriber: the fast-path assertion \
         needs the disabled state"
    );
    // Construct (but never install) both buffering subscribers: they must
    // stay empty no matter how much the exploration runs.
    let registry = Arc::new(MetricsRegistry::new());
    let jsonl = Arc::new(JsonlSubscriber::new());
    let before = tempo::obs::dispatch_count();

    let model = burst_model();
    let db = AnalysisDb::new(AnalysisConfig::default());
    let report = db.wcrt(&model, &model.requirements[0].name).unwrap();
    assert!(report.stats.states_explored > 0, "the fixture must explore");

    assert_eq!(
        tempo::obs::dispatch_count(),
        before,
        "instrumentation dispatched records with no subscriber installed"
    );
    assert!(
        registry.snapshot().is_empty(),
        "an uninstalled registry must stay empty"
    );
    assert!(
        jsonl.is_empty(),
        "an uninstalled JSONL subscriber must stay empty"
    );
}

#[test]
fn progress_stream_populates_waiting() {
    let model = burst_model();
    let calls = Arc::new(AtomicUsize::new(0));
    let max_waiting = Arc::new(AtomicUsize::new(0));
    let progress: Arc<tempo::check::ProgressFn> = Arc::new({
        let calls = calls.clone();
        let max_waiting = max_waiting.clone();
        move |p: &SearchProgress| {
            calls.fetch_add(1, Ordering::SeqCst);
            max_waiting.fetch_max(p.waiting, Ordering::SeqCst);
        }
    });
    let ctx = RunContext {
        progress: Some(progress),
        progress_every: 8,
        ..RunContext::default()
    };
    AnalysisDb::new(AnalysisConfig::default())
        .wcrt_in(&model, &model.requirements[0].name, &ctx)
        .unwrap();

    assert!(
        calls.load(Ordering::SeqCst) > 0,
        "no progress callback fired at stride 8"
    );
    assert!(
        max_waiting.load(Ordering::SeqCst) > 0,
        "`waiting` was never reported above zero mid-exploration"
    );
}
