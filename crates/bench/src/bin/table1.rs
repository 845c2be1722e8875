//! Regenerates **Table 1** of the paper: worst-case response times (ms) of
//! the five requirements under the five event-model columns, computed with
//! the timed-automata analysis.
//!
//! ```text
//! cargo run --release -p tempo-bench --bin table1 [-- --quick] [-- --budget N]
//! ```
//!
//! * `--quick` — slow the user event streams down by 8× so every cell is
//!   exact and the whole table takes well under a minute (the qualitative
//!   orderings of the paper are preserved).
//! * `--budget N` — state budget per cell (default 600000); cells whose zone
//!   graph exceeds the budget are reported as `> value (bf)` lower bounds of
//!   the breadth-first search, like the intractable `pj`/`bur` cells in the
//!   paper.

use tempo_arch::casestudy::{CaseStudyParams, EventModelColumn};
use tempo_bench::{print_table, quick_params, table1_column, CellConfig};
use tempo_check::SearchOrder;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget = args
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(600_000);
    let params: CaseStudyParams = if quick {
        quick_params(8)
    } else {
        CaseStudyParams::default()
    };
    let cell_cfg = CellConfig {
        state_budget: Some(budget),
        order: SearchOrder::Bfs,
        queue_capacity: 8,
    };

    println!("Table 1 — UPPAAL-style worst-case response time analysis (milliseconds)");
    println!(
        "mode: {} | state budget per cell: {budget} | entries `> x (bf)` are lower bounds from truncated breadth-first searches",
        if quick { "quick (user streams slowed 8x)" } else { "paper parameters" }
    );
    println!();

    let columns = EventModelColumn::all();
    let header: Vec<String> = columns.iter().map(|c| c.label().to_string()).collect();
    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    let mut row_names: Vec<String> = Vec::new();
    for (req, _) in tempo_arch::casestudy::table1_rows() {
        row_names.push(req.to_string());
        rows.push((req.to_string(), Vec::new()));
    }
    for column in columns {
        eprintln!("computing column {} ...", column.label());
        let cells = table1_column(column, &params, &cell_cfg);
        for (i, cell) in cells.into_iter().enumerate() {
            eprintln!(
                "  {:<38} -> {:>18}   ({:.2?})",
                cell.requirement,
                cell.formatted(),
                cell.elapsed
            );
            rows[i].1.push(cell.formatted());
        }
    }
    print_table("", &header, &rows);

    println!("Paper values for reference (Table 1, ms):");
    println!("  HandleTMC (+ ChangeVolume)   357.133 | 381.632 | 382.076 | > 400.000 (df) | > 500.000 (rdf)");
    println!("  HandleTMC (+ AddressLookup)  172.106 | 239.080 | 239.080 | 329.989        | 420.898");
    println!("  K2A (ChangeVolume + TMC)      27.716 |  27.716 |  27.716 | > 27.715 (bf)  | > 27.715 (bf)");
    println!("  A2V (ChangeVolume + TMC)      41.796 |  41.796 |  41.796 | > 41.795 (bf)  | > 41.795 (bf)");
    println!("  AddressLookup (+ TMC)         79.075 |  79.075 |  79.075 |  79.075        |  79.075");
}
