//! The paper's in-car radio navigation case study, analysed with the
//! timed-automata model checker.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example radio_navigation [COLUMN ...]
//! ```
//!
//! where each `COLUMN` is one of `po`, `pno`, `sp`, `pj`, `bur` (default:
//! `po pno sp`, the columns the paper reports as taking "less than a second"
//! in UPPAAL).  For every selected event-model column the example prints the
//! worst-case response time of the five requirements of Table 1.

use tempo::arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo::arch::prelude::*;

fn column_from_arg(arg: &str) -> Option<EventModelColumn> {
    match arg {
        "po" => Some(EventModelColumn::PeriodicOffsetZero),
        "pno" => Some(EventModelColumn::PeriodicUnknownOffset),
        "sp" => Some(EventModelColumn::Sporadic),
        "pj" => Some(EventModelColumn::PeriodicJitter),
        "bur" => Some(EventModelColumn::Burst),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let columns: Vec<EventModelColumn> = if args.is_empty() {
        vec![
            EventModelColumn::PeriodicOffsetZero,
            EventModelColumn::PeriodicUnknownOffset,
            EventModelColumn::Sporadic,
        ]
    } else {
        args.iter()
            .filter_map(|a| {
                let c = column_from_arg(a);
                if c.is_none() {
                    eprintln!("ignoring unknown event-model column `{a}`");
                }
                c
            })
            .collect()
    };

    let params = CaseStudyParams::default();
    let cfg = AnalysisConfig::default();

    println!("In-car radio navigation system — worst-case response times (ms)");
    println!("architecture: MMI {} MIPS, RAD {} MIPS, NAV {} MIPS, bus {} kbit/s",
        params.mmi_mips, params.rad_mips, params.nav_mips, params.bus_bps / 1000);
    println!();

    for column in columns {
        println!("event model column: {}", column.label());
        for (requirement, combo) in tempo::arch::casestudy::table1_rows() {
            let model = radio_navigation(combo, column, &params);
            let start = std::time::Instant::now();
            match AnalysisDb::new(cfg.clone()).wcrt(&model, requirement) {
                Ok(report) => {
                    let value = match report.wcrt_ms() {
                        Some(ms) => format!("{ms:.3}"),
                        None => match report.lower_bound {
                            Some(lb) => format!("> {:.3}", lb.as_millis_f64()),
                            None => "n/a".to_string(),
                        },
                    };
                    let combo_name = match combo {
                        ScenarioCombo::ChangeVolumeWithTmc => "CV+TMC",
                        ScenarioCombo::AddressLookupWithTmc => "AL+TMC",
                    };
                    println!(
                        "  {requirement:<38} [{combo_name}]  WCRT = {value:>10}  (deadline {:>8.1}, {} states, {:.2?})",
                        report.deadline.as_millis_f64(),
                        report.stats.stored_cumulative,
                        start.elapsed(),
                    );
                }
                Err(e) => println!("  {requirement:<38} analysis failed: {e}"),
            }
        }
        println!();
    }
}
