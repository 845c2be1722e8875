//! Engine matrix smoke: runs every analysis engine on every event-model
//! column of the case study's AddressLookup row, prints the per-engine,
//! per-column WCRT estimates (with their bound kinds and wall times) and
//! writes the same numbers to a machine-readable `BENCH_engines.json` —
//! the per-PR visibility companion of `BENCH_explorer.json`, but for the
//! unified engine API instead of the raw explorer.
//!
//! Run with `cargo run --release -p tempo_bench --bin engine_matrix`;
//! pass `--full` for the paper's original workload (slow; not for CI) and
//! `--json <path>` to redirect the JSON output.

use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::engine::{Engine, EngineError, Estimate, Query, RunContext};
use tempo_arch::{AnalysisConfig, TaEngine};
use tempo_check::{SearchOptions, SearchOrder};
use tempo_sim::{SimConfig, SimEngine};

struct MatrixCell {
    column: &'static str,
    engine: &'static str,
    estimate: Option<Estimate>,
    error: Option<String>,
    wall_seconds: f64,
    states: Option<usize>,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn bound_kind(estimate: &Estimate) -> &'static str {
    match estimate {
        Estimate::Exact(_) => "exact",
        Estimate::LowerBound(_) => "lower",
        Estimate::UpperBound(_) => "upper",
        Estimate::Interval { .. } => "interval",
    }
}

/// Renders the cells as a JSON document (no serde in the offline build — the
/// structure is flat enough to emit by hand).
fn to_json(workload: &str, requirement: &str, cells: &[MatrixCell]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", esc(workload)));
    out.push_str(&format!("  \"requirement\": \"{}\",\n", esc(requirement)));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let (estimate_ms, kind) = match &cell.estimate {
            Some(e) => (format!("{:.6}", e.as_millis_f64()), format!("\"{}\"", bound_kind(e))),
            None => ("null".into(), "null".into()),
        };
        let error = match &cell.error {
            Some(e) => format!("\"{}\"", esc(e)),
            None => "null".into(),
        };
        let states = cell
            .states
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{\"column\": \"{}\", \"engine\": \"{}\", \"estimate_ms\": {}, \
             \"bound\": {}, \"states\": {}, \"wall_seconds\": {:.6}, \"error\": {}}}{}\n",
            esc(cell.column),
            cell.engine,
            estimate_ms,
            kind,
            states,
            cell.wall_seconds,
            error,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engines.json".to_string());
    let mut params = CaseStudyParams::default();
    if !full {
        params.volume_period = params.volume_period * 8;
        params.lookup_period = params.lookup_period * 8;
    }
    let workload = if full { "full" } else { "quick" };
    let requirement = "AddressLookup (+ HandleTMC)";
    let query = Query::wcrt(requirement);
    let ctx = RunContext::default();

    // The exact engine runs with the default search options and a
    // truncation budget, so the `pj`/`bur` corners report lower bounds
    // instead of running unbounded.
    let ta = TaEngine::with_config(AnalysisConfig {
        search: SearchOptions {
            order: SearchOrder::Bfs,
            max_states: Some(600_000),
            truncate_on_limit: true,
            ..SearchOptions::default()
        },
        ..AnalysisConfig::default()
    });
    let sim = SimEngine::with_config(SimConfig {
        horizon: tempo_arch::TimeValue::seconds(60),
        runs: 3,
        seed: 0xe7617e,
    });
    let engines: Vec<(&'static str, &dyn Engine)> = vec![
        ("timed-automata", &ta),
        ("simulation", &sim),
        ("symta", &tempo_symta::SymtaEngine),
        ("mpa", &tempo_rtc::RtcEngine),
    ];

    println!("engine_matrix ({workload} workload), requirement: {requirement}");
    println!(
        "{:<22} {:>16} {:>8} {:>18} {:>10} {:>9}",
        "column", "engine", "bound", "estimate", "states", "secs"
    );
    let mut cells: Vec<MatrixCell> = Vec::new();
    for column in EventModelColumn::all() {
        let model = radio_navigation(ScenarioCombo::AddressLookupWithTmc, column, &params);
        for (name, engine) in &engines {
            let outcome = engine.run(&model, &query, &ctx);
            let cell = match outcome {
                Ok(report) => {
                    let row = report.estimate_for(requirement);
                    MatrixCell {
                        column: column.label(),
                        engine: name,
                        estimate: row.map(|r| r.estimate),
                        error: None,
                        wall_seconds: report.wall_time.as_secs_f64(),
                        states: report.states_stored,
                    }
                }
                Err(e) => MatrixCell {
                    column: column.label(),
                    engine: name,
                    estimate: None,
                    error: Some(match e {
                        EngineError::Unsupported { detail, .. } => detail,
                        other => other.to_string(),
                    }),
                    wall_seconds: 0.0,
                    states: None,
                },
            };
            match (&cell.estimate, &cell.error) {
                (Some(e), _) => println!(
                    "{:<22} {:>16} {:>8} {:>18} {:>10} {:>9.2}",
                    cell.column,
                    cell.engine,
                    bound_kind(e),
                    e.to_string(),
                    cell.states
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "-".into()),
                    cell.wall_seconds,
                ),
                (None, Some(err)) => println!(
                    "{:<22} {:>16} failed: {err}",
                    cell.column, cell.engine
                ),
                (None, None) => {}
            }
            cells.push(cell);
        }
    }
    let json = to_json(workload, requirement, &cells);
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
