//! Explorer throughput smoke: prints per-case-study state counts so the perf
//! trajectory of the checker is visible in every CI job log, and writes the
//! same numbers to a machine-readable `BENCH_explorer.json`.
//!
//! For each event-model column of the paper's Table 1 the binary analyses the
//! AddressLookup requirement of the (quick, 8× slowed user streams) radio
//! navigation case study with the default search options (plus, for the
//! light columns, with active-clock reduction off) and prints the
//! stored/explored state counts, the eviction and merge counts, the
//! waiting-list high-water mark, the number of dead-clock canonicalizations
//! and the wall-clock time.
//!
//! Run with `cargo run --release -p tempo_bench --bin explorer_state_counts`;
//! pass `--full` to use the paper's original workload instead of the quick
//! variant (slow; not for CI) and `--json <path>` to redirect the JSON
//! output (default `BENCH_explorer.json` in the working directory).

use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::{AnalysisConfig, AnalysisDb, WcrtReport};
use tempo_check::{SearchOptions, SearchOrder};

struct Row {
    column: &'static str,
    reduction: bool,
    report: WcrtReport,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the rows as a JSON document (no serde in the offline build — the
/// structure is flat enough to emit by hand).
fn to_json(workload: &str, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", esc(workload)));
    out.push_str("  \"columns\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let s = &row.report.stats;
        let wcrt = match row.report.wcrt_ms() {
            Some(w) => format!("{w:.6}"),
            None => "null".into(),
        };
        let lower = match row.report.lower_bound {
            Some(lb) => format!("{:.6}", lb.as_millis_f64()),
            None => "null".into(),
        };
        out.push_str(&format!(
            "    {{\"column\": \"{}\", \"reduction\": {}, \
             \"stored\": {}, \"explored\": {}, \"transitions\": {}, \
             \"evicted\": {}, \"merged\": {}, \
             \"peak_waiting\": {}, \"clocks_eliminated\": {}, \
             \"truncated\": {}, \"wcrt_ms\": {}, \"lower_bound_ms\": {}, \
             \"wall_seconds\": {:.6}}}{}\n",
            esc(row.column),
            row.reduction,
            s.stored_cumulative,
            s.states_explored,
            s.transitions,
            s.zones_evicted,
            s.zones_merged,
            s.peak_waiting,
            s.clocks_eliminated,
            s.truncated,
            wcrt,
            lower,
            s.duration.as_secs_f64(),
            if i + 1 == rows.len() { "" } else { "," },
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
        .unwrap_or_else(|| "BENCH_explorer.json".to_string());
    let mut params = CaseStudyParams::default();
    if !full {
        params.volume_period = params.volume_period * 8;
        params.lookup_period = params.lookup_period * 8;
    }
    let workload = if full { "full" } else { "quick" };
    let requirement = "AddressLookup (+ HandleTMC)";
    println!("explorer_state_counts ({workload} workload), requirement: {requirement}");
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
    let mut rows: Vec<Row> = Vec::new();
    for column in EventModelColumn::all() {
        let model = radio_navigation(ScenarioCombo::AddressLookupWithTmc, column, &params);
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
                    max_states: if reduction { None } else { Some(400_000) },
                    truncate_on_limit: true,
                    ..SearchOptions::default()
                },
                ..AnalysisConfig::default()
            };
            match AnalysisDb::new(cfg).wcrt(&model, requirement) {
                Ok(report) => {
                    let wcrt = report
                        .wcrt_ms()
                        .map(|w| format!("{w:.3}"))
                        .unwrap_or_else(|| {
                            report
                                .lower_bound
                                .map(|lb| format!(">{:.3}", lb.as_millis_f64()))
                                .unwrap_or_else(|| "-".into())
                        });
                    println!(
                        "{:<22} {:>9} {:>10} {:>10} {:>9} {:>9} {:>12} {:>10} {:>9.2}{}",
                        column.label(),
                        if reduction { "on" } else { "off" },
                        report.stats.stored_cumulative,
                        report.stats.states_explored,
                        report.stats.zones_evicted,
                        report.stats.zones_merged,
                        report.stats.clocks_eliminated,
                        wcrt,
                        report.stats.duration.as_secs_f64(),
                        if report.stats.truncated {
                            "  TRUNCATED"
                        } else {
                            ""
                        }
                    );
                    rows.push(Row {
                        column: column.label(),
                        reduction,
                        report,
                    });
                }
                Err(e) => println!(
                    "{:<22} {:>9} analysis failed: {e}",
                    column.label(),
                    if reduction { "on" } else { "off" }
                ),
            }
        }
    }
    let json = to_json(workload, &rows);
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
