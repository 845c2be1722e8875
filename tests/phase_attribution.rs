//! The explorer's named phases must explain where an exploration's time
//! goes: `explore.successor_gen` and `explore.store_insert` between them
//! cover the expansion loop, so together they must attribute at least 90% of
//! the exploration wall (`ExplorationStats::duration`).
//! `explore.close_extrapolate` nests inside successor generation and is
//! deliberately left out of the sum, so nothing is counted twice.
//!
//! The test owns the process-global subscriber, so it lives in its own test
//! binary (the other integration suites never install one, and
//! `trace_chaos` installs its own in a separate process).

use std::sync::Arc;
use tempo::arch::prelude::*;
use tempo::obs::MetricsRegistry;

/// Minimum fraction of the exploration wall the named phases must explain.
const ATTRIBUTION_FLOOR: f64 = 0.9;

#[test]
fn named_phases_attribute_the_exploration_wall() {
    // The quick `bur` column of Table 1: ~31k stored states, long enough that
    // the per-run setup outside the expansion loop is noise.
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Burst,
        &tempo_bench::quick_params(8),
    );
    let registry = Arc::new(MetricsRegistry::new());
    tempo::obs::install(registry.clone());
    let report =
        AnalysisDb::new(AnalysisConfig::default()).wcrt(&model, "AddressLookup (+ HandleTMC)");
    tempo::obs::uninstall();
    let report = report.unwrap();
    assert!(!report.stats.truncated, "the bur column must complete");

    let snapshot = registry.snapshot();
    let attributed = snapshot.span_total_nanos("explore.successor_gen")
        + snapshot.span_total_nanos("explore.store_insert");
    let wall = report.stats.duration.as_nanos();
    let fraction = attributed as f64 / wall.max(1) as f64;
    assert!(
        fraction >= ATTRIBUTION_FLOOR,
        "named phases attribute {:.1}% of the {wall} ns exploration wall (floor {:.0}%)",
        fraction * 100.0,
        ATTRIBUTION_FLOOR * 100.0
    );
}
