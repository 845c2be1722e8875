//! Reproduces the **Section 4 observations about verification cost**: how the
//! size of the zone graph (and therefore the verification time) depends on the
//! event-model column and on the scenario combination, and how the `df`/`rdf`
//! search orders can still produce lower bounds when the exact search is
//! stopped early.
//!
//! ```text
//! cargo run --release -p tempo-bench --bin verification_times [-- --budget N] [-- --quick]
//! ```

use std::time::Instant;
use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::{AnalysisConfig, AnalysisDb, RunContext};
use tempo_bench::quick_params;
use tempo_check::{SearchOptions, SearchOrder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget = args
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(300_000);
    let params: CaseStudyParams = if quick {
        quick_params(8)
    } else {
        CaseStudyParams::default()
    };

    println!("Verification cost per event-model column (state budget {budget})");
    println!("{:<12} {:<30} {:>10} {:>12} {:>12}  result", "combo", "column", "states", "time", "order");
    for (combo, combo_name, requirement) in [
        (
            ScenarioCombo::AddressLookupWithTmc,
            "AL+TMC",
            "HandleTMC (+ AddressLookup)",
        ),
        (
            ScenarioCombo::ChangeVolumeWithTmc,
            "CV+TMC",
            "HandleTMC (+ ChangeVolume)",
        ),
    ] {
        for column in EventModelColumn::all() {
            for order in [SearchOrder::Bfs, SearchOrder::RandomDfs] {
                // The paper only falls back to df/rdf when breadth-first is
                // infeasible; report both so the difference is visible.
                let cfg = AnalysisConfig {
                    search: SearchOptions::with_order(order),
                    ..AnalysisConfig::default()
                };
                let model = radio_navigation(combo, column, &params);
                let start = Instant::now();
                let ctx = RunContext::with_max_states(budget);
                match AnalysisDb::new(cfg).wcrt_in(&model, requirement, &ctx) {
                    Ok(report) => {
                        let value = match report.wcrt_ms() {
                            Some(ms) => format!("{ms:.3} ms (exact)"),
                            None => match report.lower_bound {
                                Some(lb) => format!("> {:.3} ms (lower bound)", lb.as_millis_f64()),
                                None => "n/a".into(),
                            },
                        };
                        println!(
                            "{:<12} {:<30} {:>10} {:>12.2?} {:>12}  {}",
                            combo_name,
                            column.label(),
                            report.stats.stored_cumulative,
                            start.elapsed(),
                            format!("{order:?}"),
                            value
                        );
                    }
                    Err(e) => println!(
                        "{:<12} {:<30} {:>10} {:>12.2?} {:>12}  error: {e}",
                        combo_name,
                        column.label(),
                        "-",
                        start.elapsed(),
                        format!("{order:?}"),
                    ),
                }
            }
        }
    }
    println!();
    println!("Paper observation (Section 4): po/pno/sp verify in well under a second in UPPAAL,");
    println!("pj/bur take minutes, and the ChangeVolume+HandleTMC combination under pj/bur is");
    println!("intractable — only df/rdf lower bounds are reported there.");
}
