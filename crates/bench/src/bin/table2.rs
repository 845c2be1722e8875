//! Regenerates **Table 2** of the paper: worst-case response times of the
//! five requirements as obtained by the four techniques — the exact
//! timed-automata analysis (for the `po` and `pno` columns), discrete-event
//! simulation (POOSL stand-in), SymTA/S-style busy-window analysis and
//! MPA/real-time calculus (all on `pno` event models).
//!
//! Runs entirely on the unified engine API: the `po` column is one
//! `TaEngine` query, and the four `pno` cells of each row come from a single
//! [`Portfolio::compare`] call, which also asserts the paper's bracket
//! invariant (`simulation ≤ exact ≤ SymTA/S ≈ MPA`) per row.
//!
//! ```text
//! cargo run --release -p tempo-bench --bin table2 [-- --quick]
//! ```

use tempo_arch::casestudy::{radio_navigation, table1_rows, CaseStudyParams, EventModelColumn};
use tempo_arch::engine::{Engine, Portfolio, Query};
use tempo_arch::TaEngine;
use tempo_bench::{engine_estimate_cell, print_table, quick_params, CellConfig};
use tempo_sim::{SimConfig, SimEngine};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let params: CaseStudyParams = if quick {
        quick_params(8)
    } else {
        CaseStudyParams::default()
    };
    let cell_cfg = CellConfig::default();
    let ta = TaEngine::with_config(cell_cfg.analysis_config());
    let ctx = cell_cfg.run_context();

    println!("Table 2 — comparison of the analysis techniques (worst-case response times, ms)");
    println!(
        "mode: {}; simulation horizon 10 min of model time, 5 runs",
        if quick { "quick (user streams slowed 8x)" } else { "paper parameters" }
    );
    println!();

    let header: Vec<String> = [
        "Uppaal (po)",
        "Uppaal (pno)",
        "Simulation (pno)",
        "SymTA/S (pno)",
        "MPA (pno)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    for (req, combo) in table1_rows() {
        eprintln!("computing row {req} ...");
        let query = Query::wcrt(req);
        let mut cells: Vec<String> = Vec::new();

        // Exact timed-automata analysis on the po column.
        let po_model = radio_navigation(combo, EventModelColumn::PeriodicOffsetZero, &params);
        cells.push(engine_estimate_cell(&ta.run(&po_model, &query, &ctx), req));

        // The pno column: exact analysis plus the three baselines, one
        // portfolio call — reconciled and bracket-checked.
        let pno_model = radio_navigation(combo, EventModelColumn::PeriodicUnknownOffset, &params);
        let portfolio = Portfolio::new()
            .with_engine(Box::new(TaEngine::with_config(cell_cfg.analysis_config())))
            .with_engine(Box::new(SimEngine::with_config(SimConfig {
                horizon: tempo_arch::TimeValue::seconds(600),
                runs: 5,
                seed: 0xc0ffee,
            })))
            .with_engine(Box::new(tempo_symta::SymtaEngine))
            .with_engine(Box::new(tempo_rtc::RtcEngine));
        match portfolio.compare(&pno_model, &query, &ctx) {
            Ok(comparison) => {
                for engine in ["timed-automata", "simulation", "symta", "mpa"] {
                    let cell = comparison
                        .for_requirement(req)
                        .and_then(|r| {
                            r.estimates
                                .iter()
                                .find(|(name, _)| name == engine)
                                .map(|(_, e)| tempo_bench::estimate_cell(e))
                        })
                        .unwrap_or_else(|| "n/a".into());
                    cells.push(cell);
                }
                if !comparison.bracket_ok() {
                    eprintln!("  BRACKET VIOLATION: {:?}", comparison.violations());
                }
            }
            Err(e) => cells.extend(std::iter::repeat_n(format!("({e})"), 4)),
        }
        rows.push((req.to_string(), cells));
    }
    print_table("", &header, &rows);

    println!("Expected qualitative shape (Section 5): simulation ≤ Uppaal(pno) ≤ SymTA/S ≈ MPA,");
    println!("and Uppaal(po) ≤ Uppaal(pno) because the synchronous offsets exclude some interleavings.");
    println!();
    println!("Paper values for reference (Table 2, ms):");
    println!("  HandleTMC (+ ChangeVolume)   357.133 | 381.632 | 266.94  | 382.086 | 390.0862");
    println!("  HandleTMC (+ AddressLookup)  172.106 | 239.080 | 244.26  | 253.304 | 265.8491");
    println!("  K2A (ChangeVolume + TMC)      27.716 |  27.716 |  27.7067|  27.717 |  28.1616");
    println!("  A2V (ChangeVolume + TMC)      41.796 |  41.796 |  41.7771|  41.798 |  42.2424");
    println!("  AddressLookup (+ TMC)         79.075 |  79.075 |  78.8989|  79.076 |  84.066");
}
