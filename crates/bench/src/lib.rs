//! # tempo-bench — regeneration of the paper's tables and figures
//!
//! Binaries (run with `cargo run --release -p tempo_bench --bin <name>`):
//!
//! * `table1` — Table 1: WCRT of the five requirements under the five event
//!   model columns, computed with the timed-automata analysis,
//! * `table2` — Table 2: comparison of the timed-automata results against the
//!   POOSL-style simulation, the SymTA/S-style busy-window analysis and the
//!   MPA/real-time-calculus bounds (all on `pno` event models),
//! * `figures` — DOT dumps of the generated automata corresponding to
//!   Figs. 4–9,
//! * `verification_times` — the Section 4 observations about exploration cost
//!   per event-model column,
//! * `bench_counts` — state counts and per-engine estimates on the quick case
//!   study, written to the committed `BENCH_explorer.json` and
//!   `BENCH_engines.json`.
//!
//! Criterion bench (run with `cargo bench`): `dbm_ops`.  End-to-end
//! performance is measured by perfbench (`perfbench/`), which drives the
//! `tempo-serve` daemon.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tempo_arch::casestudy::{
    radio_navigation, table1_rows, CaseStudyParams, EventModelColumn, ScenarioCombo,
};
use tempo_arch::engine::{EngineError, EngineReport, Estimate, RunContext};
use tempo_arch::{AnalysisConfig, AnalysisDb, WcrtReport};
use tempo_check::{SearchOptions, SearchOrder};

/// How a single Table-1 cell should be computed.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Maximum number of stored symbolic states before the search is
    /// truncated and only a lower bound is reported (the paper's `df`/`rdf`
    /// fallback for the intractable combinations).
    pub state_budget: Option<usize>,
    /// Search order used for the exploration.
    pub order: SearchOrder,
    /// Queue capacity of the generated model.
    pub queue_capacity: i64,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            state_budget: Some(600_000),
            order: SearchOrder::Bfs,
            queue_capacity: 8,
        }
    }
}

impl CellConfig {
    /// The analysis configuration corresponding to this cell configuration.
    pub fn analysis_config(&self) -> AnalysisConfig {
        let mut cfg = AnalysisConfig::default();
        cfg.generator.queue_capacity = self.queue_capacity;
        cfg.search = SearchOptions::with_order(self.order);
        cfg
    }

    /// The run context carrying this cell configuration's state budget.
    pub fn run_context(&self) -> RunContext {
        RunContext {
            max_states: self.state_budget,
            ..RunContext::default()
        }
    }
}

/// One computed Table-1 cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Requirement (row) name.
    pub requirement: &'static str,
    /// Event-model column.
    pub column: EventModelColumn,
    /// The search order of the exploration, named in a truncated cell's
    /// lower bound.
    pub order: SearchOrder,
    /// The analysis result.
    pub report: Result<WcrtReport, String>,
    /// Wall-clock time spent on the analysis.
    pub elapsed: std::time::Duration,
}

impl Cell {
    /// Formats the cell like the paper: an exact value in milliseconds, or a
    /// `> bound (bf)` lower bound for a truncated search, tagged with the
    /// paper's name of the search order (`bf`, `df` or `rdf`).
    pub fn formatted(&self) -> String {
        let order = match self.order {
            SearchOrder::Bfs => "bf",
            SearchOrder::Dfs => "df",
            SearchOrder::RandomDfs => "rdf",
        };
        match &self.report {
            Ok(r) => match r.wcrt_ms() {
                Some(ms) => format!("{ms:.3}"),
                None => match r.lower_bound {
                    Some(lb) => format!("> {:.3} ({order})", lb.as_millis_f64()),
                    None => "n/a".to_string(),
                },
            },
            Err(e) => format!("error: {e}"),
        }
    }
}

/// Formats one [`Estimate`] as a Table-1/2 cell: `79.075` for exact values
/// and the shared notation (`≥ 61.921ms` truncated lower bound, `≤ 84.066ms`
/// analytic upper bound) otherwise, so a truncated search is never mistaken
/// for an exact value.
pub fn estimate_cell(estimate: &Estimate) -> String {
    match estimate {
        Estimate::Exact(t) => format!("{:.3}", t.as_millis_f64()),
        other => other.to_string(),
    }
}

/// Formats one engine answer as a Table-1/2 cell (see [`estimate_cell`]).
pub fn engine_estimate_cell(
    outcome: &Result<EngineReport, EngineError>,
    requirement: &str,
) -> String {
    match outcome {
        Ok(report) => match report.estimate_for(requirement) {
            Some(row) => estimate_cell(&row.estimate),
            None => "n/a".into(),
        },
        Err(e) => format!("error: {e}"),
    }
}

/// Computes one Table-1 cell.
pub fn table1_cell(
    requirement: &'static str,
    combo: ScenarioCombo,
    column: EventModelColumn,
    params: &CaseStudyParams,
    cell_cfg: &CellConfig,
) -> Cell {
    let model = radio_navigation(combo, column, params);
    let start = std::time::Instant::now();
    let report = AnalysisDb::new(cell_cfg.analysis_config())
        .wcrt_in(&model, requirement, &cell_cfg.run_context())
        .map_err(|e| e.to_string());
    Cell {
        requirement,
        column,
        order: cell_cfg.order,
        report,
        elapsed: start.elapsed(),
    }
}

/// Computes a whole Table-1 column for every requirement row.
pub fn table1_column(
    column: EventModelColumn,
    params: &CaseStudyParams,
    cell_cfg: &CellConfig,
) -> Vec<Cell> {
    table1_rows()
        .into_iter()
        .map(|(req, combo)| table1_cell(req, combo, column, params, cell_cfg))
        .collect()
}

/// Fischer's mutual-exclusion protocol over `n` processes with the classic
/// constant 2 — the scalable checker workload shared by the criterion benches
/// and the root-level test harnesses (one definition instead of a copy per
/// call site).  `strict_wait = true` is the correct protocol (`x > 2` on the
/// `wait → cs` edge); `false` weakens the guard to `x ≥ 2`, which breaks
/// mutual exclusion and is useful as a "bug found?" fixture.
pub fn fischer(n: usize, strict_wait: bool) -> tempo_ta::System {
    use tempo_ta::{ClockRef, RelOp, SystemBuilder, Update, VarExprExt};
    let mut sb = SystemBuilder::new("fischer");
    let id = sb.add_var("id", 0, n as i64, 0);
    let clocks: Vec<_> = (0..n).map(|i| sb.add_clock(format!("x{i}"))).collect();
    for (i, &x) in clocks.iter().enumerate() {
        let pid = (i + 1) as i64;
        let mut p = sb.automaton(format!("P{pid}"));
        let idle = p.location("idle").add();
        let req = p.location("req").invariant(x.le(2)).add();
        let wait = p.location("wait").add();
        let cs = p.location("cs").add();
        p.edge(idle, req).guard(id.eq_(0)).reset(x).add();
        p.edge(req, wait)
            .guard_clock(x.le(2))
            .update(Update::assign(id, pid))
            .reset(x)
            .add();
        let op = if strict_wait { RelOp::Gt } else { RelOp::Ge };
        p.edge(wait, cs)
            .guard(id.eq_(pid))
            .guard_clock(tempo_ta::ClockConstraint::new(x, op, 2))
            .add();
        p.edge(wait, idle).guard(id.ne_(pid)).reset(x).add();
        p.edge(cs, idle).update(Update::assign(id, 0)).add();
        p.set_initial(idle);
        p.build();
    }
    sb.build()
}

/// A scaled-down variant of the case-study parameters used by the `--quick`
/// modes and by `bench_counts`: the user streams are slowed down by
/// `factor`, which shrinks the zone graph while keeping the structure (and the
/// qualitative orderings) intact.
pub fn quick_params(factor: u64) -> CaseStudyParams {
    let mut p = CaseStudyParams::default();
    p.volume_period = p.volume_period * factor as i128;
    p.lookup_period = p.lookup_period * factor as i128;
    p
}

/// Prints a table of rows × columns in a compact aligned layout.
pub fn print_table(title: &str, header: &[String], rows: &[(String, Vec<String>)]) {
    println!("{title}");
    let width = 40;
    print!("{:width$}", "Requirement");
    for h in header {
        print!(" | {h:>22}");
    }
    println!();
    println!("{}", "-".repeat(width + header.len() * 25));
    for (name, cells) in rows {
        print!("{name:width$}");
        for c in cells {
            print!(" | {c:>22}");
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_params_scale_user_streams() {
        let p = quick_params(8);
        let d = CaseStudyParams::default();
        assert_eq!(p.volume_period, d.volume_period * 8);
        assert_eq!(p.lookup_period, d.lookup_period * 8);
        assert_eq!(p.tmc_period, d.tmc_period);
    }

    #[test]
    fn cell_config_produces_truncating_search() {
        let ctx = CellConfig::default().run_context();
        assert_eq!(ctx.max_states, Some(600_000));
    }

    #[test]
    fn truncated_cells_name_their_search_order() {
        for (order, label) in [(SearchOrder::Bfs, "(bf)"), (SearchOrder::Dfs, "(df)")] {
            let cell = table1_cell(
                "HandleTMC (+ AddressLookup)",
                ScenarioCombo::AddressLookupWithTmc,
                EventModelColumn::Sporadic,
                &quick_params(8),
                &CellConfig {
                    state_budget: Some(300),
                    order,
                    queue_capacity: 8,
                },
            );
            let text = cell.formatted();
            assert!(
                text.starts_with("> ") && text.ends_with(label),
                "{order:?}: {text}"
            );
        }
    }

    #[test]
    fn quick_table1_cell_is_exact_and_fast() {
        // With slowed-down user streams the AddressLookup row is small.
        let cell = table1_cell(
            "AddressLookup (+ HandleTMC)",
            ScenarioCombo::AddressLookupWithTmc,
            EventModelColumn::Sporadic,
            &quick_params(4),
            &CellConfig::default(),
        );
        let report = cell.report.clone().expect("analysis succeeds");
        assert!(report.wcrt.is_some());
        // The bound must cover at least the sum of the service times on the
        // uncontended path (~83 ms) and stay below the 200 ms deadline.
        let ms = report.wcrt_ms().unwrap();
        assert!(ms > 80.0 && ms < 200.0, "{ms}");
        assert!(!cell.formatted().contains("error"));
    }
}
