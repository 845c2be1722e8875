//! Count-and-estimate smoke: the checker's state counts and every engine's
//! estimate on the case study, written to the two committed files CI's
//! count-drift guard compares.
//!
//! For each event-model column of the paper's Table 1 the binary analyses the
//! AddressLookup requirement of the (quick, 8× slowed user streams) radio
//! navigation case study twice over:
//!
//! * `BENCH_explorer.json` — the exact analysis with the default search
//!   options (plus, for the light columns, with active-clock reduction off):
//!   stored/explored state counts, evictions, merges, the waiting-list
//!   high-water mark, dead-clock canonicalizations, the high-water count of
//!   `Bound` words the passed list held (a deterministic stand-in for its
//!   memory), the WCRT and the wall,
//! * `BENCH_engines.json` — every analysis engine (exact, simulation,
//!   SymTA/S, MPA) through the unified engine API: estimate, bound kind,
//!   states and wall.
//!
//! Both files are equal to the committed ones in every field but
//! `wall_seconds` unless a change moves a count.  The binary exits 1 if any
//! analysis fails or either file cannot be written, so a stale committed
//! file can never pass the guard.
//!
//! Run with `cargo run --release -p tempo_bench --bin bench_counts`; pass
//! `--full` to use the paper's original workload instead of the quick
//! variant (slow; not for CI).

use std::process::ExitCode;
use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::engine::{Engine, EngineError, Estimate, Query, RunContext};
use tempo_arch::model::ArchitectureModel;
use tempo_arch::{AnalysisConfig, AnalysisDb, TaEngine};
use tempo_check::{SearchOptions, SearchOrder};
use tempo_sim::{SimConfig, SimEngine};

const REQUIREMENT: &str = "AddressLookup (+ HandleTMC)";

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn ms_or_null(ms: Option<f64>) -> String {
    ms.map_or_else(|| "null".into(), |ms| format!("{ms:.6}"))
}

/// Renders a flat JSON document (no serde in the offline build): string
/// fields first, then one array of pre-rendered rows.
fn document(fields: &[(&str, &str)], key: &str, rows: &[String]) -> String {
    let mut out = String::from("{\n");
    for (name, value) in fields {
        out.push_str(&format!("  \"{name}\": \"{}\",\n", esc(value)));
    }
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {row}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The exact analysis per column, with and without active-clock reduction.
/// Returns the `columns` rows of `BENCH_explorer.json`.
fn state_counts(
    columns: &[(EventModelColumn, ArchitectureModel)],
    full: bool,
    ok: &mut bool,
) -> Vec<String> {
    println!(
        "{:<22} {:>9} {:>10} {:>10} {:>9} {:>9} {:>12} {:>10} {:>9}",
        "column",
        "reduction",
        "stored",
        "explored",
        "evicted",
        "merged",
        "eliminated",
        "wcrt_ms",
        "secs"
    );
    let mut rows = Vec::new();
    for (column, model) in columns {
        let heavy = matches!(
            column,
            EventModelColumn::PeriodicJitter | EventModelColumn::Burst
        );
        for reduction in [true, false] {
            // The unreduced pj/bur explorations blow past the 400k-state cap
            // and would dominate the job; cap them (the TRUNCATED marker in
            // the log is exactly the point) and skip them unless --full.
            if !reduction && heavy && !full {
                continue;
            }
            let cfg = AnalysisConfig {
                search: SearchOptions {
                    order: SearchOrder::Bfs,
                    active_clock_reduction: reduction,
                    ..SearchOptions::default()
                },
                ..AnalysisConfig::default()
            };
            let ctx = if reduction {
                RunContext::default()
            } else {
                RunContext::with_max_states(400_000)
            };
            let on_off = if reduction { "on" } else { "off" };
            let report = match AnalysisDb::new(cfg).wcrt_in(model, REQUIREMENT, &ctx) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("{:<22} {on_off:>9} analysis failed: {e}", column.label());
                    *ok = false;
                    continue;
                }
            };
            let s = &report.stats;
            let lower_ms = report.lower_bound.map(|lb| lb.as_millis_f64());
            let wcrt = match (report.wcrt_ms(), lower_ms) {
                (Some(w), _) => format!("{w:.3}"),
                (None, Some(lb)) => format!(">{lb:.3}"),
                (None, None) => "-".into(),
            };
            println!(
                "{:<22} {on_off:>9} {:>10} {:>10} {:>9} {:>9} {:>12} {wcrt:>10} {:>9.2}{}",
                column.label(),
                s.stored_cumulative,
                s.states_explored,
                s.zones_evicted,
                s.zones_merged,
                s.clocks_eliminated,
                s.duration.as_secs_f64(),
                if s.truncated { "  TRUNCATED" } else { "" }
            );
            rows.push(format!(
                "{{\"column\": \"{}\", \"reduction\": {reduction}, \
                 \"stored\": {}, \"explored\": {}, \"transitions\": {}, \
                 \"evicted\": {}, \"merged\": {}, \
                 \"peak_waiting\": {}, \"clocks_eliminated\": {}, \
                 \"peak_stored_bounds\": {}, \"truncated\": {}, \"wcrt_ms\": {}, \"lower_bound_ms\": {}, \
                 \"wall_seconds\": {:.6}}}",
                esc(column.label()),
                s.stored_cumulative,
                s.states_explored,
                s.transitions,
                s.zones_evicted,
                s.zones_merged,
                s.peak_waiting,
                s.clocks_eliminated,
                s.peak_stored_bounds,
                s.truncated,
                ms_or_null(report.wcrt_ms()),
                ms_or_null(lower_ms),
                s.duration.as_secs_f64(),
            ));
        }
    }
    rows
}

fn bound_kind(estimate: &Estimate) -> &'static str {
    match estimate {
        Estimate::Exact(_) => "exact",
        Estimate::LowerBound(_) => "lower",
        Estimate::UpperBound(_) => "upper",
        Estimate::Interval { .. } => "interval",
    }
}

/// Every engine on every column through the unified engine API.  Returns the
/// `cells` rows of `BENCH_engines.json`; a failed engine gets a row with its
/// error.
fn engine_matrix(columns: &[(EventModelColumn, ArchitectureModel)], ok: &mut bool) -> Vec<String> {
    // The exact engine runs with the default search options and a
    // truncation budget, so a blown-up corner reports a lower bound instead
    // of running unbounded.
    let ta = TaEngine::default();
    let ctx = RunContext::with_max_states(600_000);
    let sim = SimEngine::with_config(SimConfig {
        horizon: tempo_arch::TimeValue::seconds(60),
        runs: 3,
        seed: 0xe7617e,
    });
    let engines: [(&str, &dyn Engine); 4] = [
        ("timed-automata", &ta),
        ("simulation", &sim),
        ("symta", &tempo_symta::SymtaEngine),
        ("mpa", &tempo_rtc::RtcEngine),
    ];
    let query = Query::wcrt(REQUIREMENT);
    println!(
        "\n{:<22} {:>16} {:>8} {:>18} {:>10} {:>9}",
        "column", "engine", "bound", "estimate", "states", "secs"
    );
    let mut rows = Vec::new();
    for (column, model) in columns {
        for (name, engine) in engines {
            let (estimate, states, wall_seconds, error) = match engine.run(model, &query, &ctx) {
                Ok(report) => (
                    report.estimate_for(REQUIREMENT).map(|r| r.estimate),
                    report.states_stored,
                    report.wall_time.as_secs_f64(),
                    None,
                ),
                Err(e) => {
                    let detail = match e {
                        EngineError::Unsupported { detail, .. } => detail,
                        other => other.to_string(),
                    };
                    eprintln!("{:<22} {name:>16} failed: {detail}", column.label());
                    *ok = false;
                    (None, None, 0.0, Some(detail))
                }
            };
            let states_text = states.map_or_else(|| "-".into(), |s| s.to_string());
            if let Some(e) = &estimate {
                println!(
                    "{:<22} {name:>16} {:>8} {:>18} {states_text:>10} {wall_seconds:>9.2}",
                    column.label(),
                    bound_kind(e),
                    e.to_string(),
                );
            }
            rows.push(format!(
                "{{\"column\": \"{}\", \"engine\": \"{name}\", \"estimate_ms\": {}, \
                 \"bound\": {}, \"states\": {}, \"wall_seconds\": {wall_seconds:.6}, \"error\": {}}}",
                esc(column.label()),
                ms_or_null(estimate.map(Estimate::as_millis_f64)),
                estimate.map_or_else(|| "null".into(), |e| format!("\"{}\"", bound_kind(&e))),
                states.map_or_else(|| "null".into(), |s| s.to_string()),
                error.map_or_else(|| "null".into(), |e| format!("\"{}\"", esc(&e))),
            ));
        }
    }
    rows
}

fn main() -> ExitCode {
    let full = std::env::args().any(|a| a == "--full");
    let params = if full {
        CaseStudyParams::default()
    } else {
        tempo_bench::quick_params(8)
    };
    let workload = if full { "full" } else { "quick" };
    println!("bench_counts ({workload} workload), requirement: {REQUIREMENT}");
    let columns: Vec<_> = EventModelColumn::all()
        .into_iter()
        .map(|c| {
            (
                c,
                radio_navigation(ScenarioCombo::AddressLookupWithTmc, c, &params),
            )
        })
        .collect();

    let mut ok = true;
    let explorer = document(
        &[("workload", workload)],
        "columns",
        &state_counts(&columns, full, &mut ok),
    );
    let engines = document(
        &[("workload", workload), ("requirement", REQUIREMENT)],
        "cells",
        &engine_matrix(&columns, &mut ok),
    );
    for (path, json) in [
        ("BENCH_explorer.json", explorer),
        ("BENCH_engines.json", engines),
    ] {
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
