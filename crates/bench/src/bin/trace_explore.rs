//! Traced reproduction of one Table 1 column, plus the observability
//! guardrails.
//!
//! Three measurements over the bur column (default options) of the radio-navigation
//! case study:
//!
//! 1. **No-subscriber overhead**: two vanilla sequential runs with no
//!    subscriber installed.  The instrumentation compiles to one relaxed
//!    atomic load per site, so the best of the two walls must stay inside
//!    the PR 8 sequential envelope plus a 5% allowance — asserted in-binary.
//! 2. **Phase attribution**: one run with the [`MetricsRegistry`] installed.
//!    The named phases (`explore.successor_gen` + `explore.store_insert`,
//!    which between them cover the expansion loop; `explore.close_extrapolate`
//!    nests *inside* successor generation and is reported as a sub-phase)
//!    must attribute at least 90% of the exploration wall.
//! 3. **Export formats**: one smaller run each with the JSONL and Chrome
//!    trace subscribers; the JSONL stream is re-validated in-binary
//!    (balanced spans, monotone per-thread timestamps).
//!
//! Results land in `BENCH_trace.json` (phase breakdown + counters + guard
//! outcomes), `BENCH_trace.jsonl` (the raw event stream) and
//! `BENCH_trace_chrome.json` (loadable in `about:tracing` / Perfetto).
//!
//! `--validate <path>` instead validates an existing JSONL trace and exits —
//! the CI step runs it over the file this binary just wrote.

use std::process::exit;
use std::sync::Arc;
use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::{AnalysisConfig, AnalysisDb, WcrtReport};
use tempo_check::{SearchOptions, SearchOrder};
use tempo_obs::{validate_jsonl, ChromeTraceSubscriber, JsonlSubscriber, MetricsRegistry};

const REQUIREMENT: &str = "AddressLookup (+ HandleTMC)";

/// Sequential wall envelope for the quick bur column.
const BUR_SEQ_WALL_LIMIT_SECS: f64 = 2.5;

/// Allowed no-subscriber overhead on top of the envelope: the disabled fast
/// path is one relaxed atomic load per instrumentation site.
const OVERHEAD_FACTOR: f64 = 1.05;

/// Minimum fraction of the exploration wall the named phases must explain.
const ATTRIBUTION_FLOOR: f64 = 0.90;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn quick_params(full: bool) -> CaseStudyParams {
    let mut params = CaseStudyParams::default();
    if !full {
        params.volume_period = params.volume_period * 8;
        params.lookup_period = params.lookup_period * 8;
    }
    params
}

fn sequential_cfg() -> AnalysisConfig {
    AnalysisConfig {
        search: SearchOptions {
            order: SearchOrder::Bfs,
            active_clock_reduction: true,
            ..SearchOptions::default()
        },
        ..AnalysisConfig::default()
    }
}

fn run_column(column: EventModelColumn, params: &CaseStudyParams) -> WcrtReport {
    let model = radio_navigation(ScenarioCombo::AddressLookupWithTmc, column, params);
    AnalysisDb::new(sequential_cfg())
        .wcrt(&model, REQUIREMENT)
        .unwrap_or_else(|e| {
            eprintln!("trace_explore: analysis failed on {}: {e}", column.label());
            exit(1);
        })
}

fn validate_file(path: &str) -> ! {
    let contents = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_explore: cannot read {path}: {e}");
        exit(1);
    });
    match validate_jsonl(contents.lines()) {
        Ok(check) => {
            println!(
                "{path}: OK — {} lines, {} spans started / {} ended, depth {}, {} threads",
                check.lines, check.spans_started, check.spans_ended, check.max_depth, check.threads
            );
            exit(0);
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        match args.get(i + 1) {
            Some(path) => validate_file(path),
            None => {
                eprintln!("trace_explore: --validate requires a path");
                exit(1);
            }
        }
    }
    let full = args.iter().any(|a| a == "--full");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_trace.json".to_string());
    let jsonl_path = args
        .iter()
        .position(|a| a == "--jsonl")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_trace.jsonl".to_string());
    let chrome_path = "BENCH_trace_chrome.json".to_string();
    let workload = if full { "full" } else { "quick" };
    let params = quick_params(full);
    let mut failures: Vec<String> = Vec::new();

    println!("trace_explore ({workload} workload), requirement: {REQUIREMENT}");

    // -- 1. No-subscriber overhead on bur ------------------------------------
    assert!(
        !tempo_obs::enabled(),
        "a subscriber is already installed; the overhead baseline is invalid"
    );
    let dispatched_before = tempo_obs::dispatch_count();
    let mut vanilla_walls: Vec<f64> = Vec::new();
    for run in 0..2 {
        let report = run_column(EventModelColumn::Burst, &params);
        let wall = report.stats.duration.as_secs_f64();
        println!(
            "  vanilla run {run}: {wall:.3} s, {} states stored",
            report.stats.stored_cumulative
        );
        vanilla_walls.push(wall);
    }
    assert_eq!(
        tempo_obs::dispatch_count(),
        dispatched_before,
        "instrumentation dispatched with no subscriber installed"
    );
    let vanilla_wall = vanilla_walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let wall_limit = BUR_SEQ_WALL_LIMIT_SECS * OVERHEAD_FACTOR;
    // The envelope is calibrated for the quick workload; `--full` runs are
    // reported but not gated.
    if !full && vanilla_wall > wall_limit {
        failures.push(format!(
            "no-subscriber bur wall {vanilla_wall:.3} s exceeds \
             {OVERHEAD_FACTOR}x the {BUR_SEQ_WALL_LIMIT_SECS} s envelope"
        ));
    }

    // -- 2. Phase attribution with the metrics subscriber -------------------
    let registry = Arc::new(MetricsRegistry::new());
    tempo_obs::install(registry.clone());
    let traced = run_column(EventModelColumn::Burst, &params);
    tempo_obs::uninstall();
    let snapshot = registry.snapshot();
    let traced_wall = traced.stats.duration.as_secs_f64();
    let wall_nanos = u64::try_from(traced.stats.duration.as_nanos()).unwrap_or(u64::MAX);
    let successor_nanos = snapshot.span_total_nanos("explore.successor_gen");
    let insert_nanos = snapshot.span_total_nanos("explore.store_insert");
    let extrapolate_nanos = snapshot.span_total_nanos("explore.close_extrapolate");
    // `close_extrapolate` nests inside `successor_gen`, so the attribution
    // sum deliberately excludes it (no double counting).
    let attributed = successor_nanos + insert_nanos;
    let fraction = attributed as f64 / wall_nanos.max(1) as f64;
    println!(
        "  traced run: {traced_wall:.3} s, {:.1}% attributed to named phases",
        fraction * 100.0
    );
    println!(
        "    explore.successor_gen    {:>12} ns ({} spans)",
        successor_nanos,
        snapshot.span_count("explore.successor_gen")
    );
    println!(
        "    └ explore.close_extrapolate {:>9} ns (nested)",
        extrapolate_nanos
    );
    println!(
        "    explore.store_insert     {:>12} ns ({} spans)",
        insert_nanos,
        snapshot.span_count("explore.store_insert")
    );
    if fraction < ATTRIBUTION_FLOOR {
        failures.push(format!(
            "named phases attribute only {:.1}% of the exploration wall \
             (floor {:.0}%)",
            fraction * 100.0,
            ATTRIBUTION_FLOOR * 100.0
        ));
    }

    // -- 3. Export formats on a smaller column ------------------------------
    let jsonl = Arc::new(JsonlSubscriber::new());
    tempo_obs::install(jsonl.clone());
    let _ = run_column(EventModelColumn::PeriodicOffsetZero, &params);
    tempo_obs::uninstall();
    let lines = jsonl.lines();
    let check = match validate_jsonl(lines.iter().map(String::as_str)) {
        Ok(check) => {
            println!(
                "  jsonl trace: {} lines, {} spans, depth {}, valid ✓",
                check.lines, check.spans_started, check.max_depth
            );
            check
        }
        Err(e) => {
            failures.push(format!("jsonl trace failed validation: {e}"));
            Default::default()
        }
    };
    if let Err(e) = jsonl.write_to(std::path::Path::new(&jsonl_path)) {
        failures.push(format!("cannot write {jsonl_path}: {e}"));
    }

    let chrome = Arc::new(ChromeTraceSubscriber::new());
    tempo_obs::install(chrome.clone());
    let _ = run_column(EventModelColumn::PeriodicOffsetZero, &params);
    tempo_obs::uninstall();
    if let Err(e) = chrome.write_to(std::path::Path::new(&chrome_path)) {
        failures.push(format!("cannot write {chrome_path}: {e}"));
    }

    // -- Report -------------------------------------------------------------
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", esc(workload)));
    out.push_str(&format!("  \"requirement\": \"{}\",\n", esc(REQUIREMENT)));
    out.push_str(&format!(
        "  \"vanilla_wall_seconds\": {vanilla_wall:.6},\n\
         \x20 \"wall_limit_seconds\": {wall_limit:.6},\n\
         \x20 \"traced_wall_seconds\": {traced_wall:.6},\n\
         \x20 \"attributed_fraction\": {fraction:.6},\n\
         \x20 \"attribution_floor\": {ATTRIBUTION_FLOOR},\n"
    ));
    out.push_str(&format!(
        "  \"phases\": {{\n\
         \x20   \"explore.successor_gen\": {successor_nanos},\n\
         \x20   \"explore.close_extrapolate\": {extrapolate_nanos},\n\
         \x20   \"explore.store_insert\": {insert_nanos}\n  }},\n"
    ));
    out.push_str(&format!(
        "  \"jsonl\": {{\"path\": \"{}\", \"lines\": {}, \"spans\": {}, \"max_depth\": {}}},\n",
        esc(&jsonl_path),
        check.lines,
        check.spans_started,
        check.max_depth
    ));
    out.push_str("  \"metrics\": ");
    // Indent the nested snapshot document to keep the report readable.
    let snapshot_json = snapshot.to_json();
    out.push_str(&snapshot_json.trim_end().replace('\n', "\n  "));
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write(&json_path, &out) {
        failures.push(format!("cannot write {json_path}: {e}"));
    } else {
        println!("  wrote {json_path}, {jsonl_path}, {chrome_path}");
    }

    if !failures.is_empty() {
        eprintln!("trace_explore: FAILED");
        for f in &failures {
            eprintln!("  - {f}");
        }
        exit(1);
    }
    println!("trace_explore: all guards passed ✓");
}
