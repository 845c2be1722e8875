//! Design-space exploration example: how the scheduling policy of the
//! processors changes the worst-case response times of the radio-navigation
//! case study (the Fig. 4 vs. Fig. 5 modeling choice of the paper) — driven
//! through the unified engine API: one exact [`TaEngine`] for every candidate
//! architecture, typed [`Query`]s, and a state budget carried by the
//! [`RunContext`] so intractable corners degrade to lower bounds instead of
//! failing.
//!
//! ```text
//! cargo run --release --example scheduler_comparison
//! ```

use tempo::arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo::arch::prelude::*;

fn main() {
    // The AddressLookup + HandleTMC combination keeps the state spaces small
    // enough to compare several scheduling policies in seconds.
    let combo = ScenarioCombo::AddressLookupWithTmc;
    let column = EventModelColumn::Sporadic;
    let ctx = RunContext::with_max_states(400_000);
    let engine = TaEngine::default();

    println!("Scheduling-policy exploration on the radio navigation case study");
    println!("({combo:?}, {} event streams)\n", column.label());
    println!(
        "{:<34} {:>28} {:>28}",
        "policy", "AddressLookup WCRT (ms)", "HandleTMC WCRT (ms)"
    );

    for policy in [
        SchedulingPolicy::NonPreemptiveNd,
        SchedulingPolicy::FixedPriorityNonPreemptive,
        SchedulingPolicy::FixedPriorityPreemptive,
    ] {
        let params = CaseStudyParams::default().with_policy(policy);
        let model = radio_navigation(combo, column, &params);
        let mut cells = Vec::new();
        for requirement in ["AddressLookup (+ HandleTMC)", "HandleTMC (+ AddressLookup)"] {
            let cell = match engine.run(&model, &Query::wcrt(requirement), &ctx) {
                // One formatting convention for every estimate kind:
                // "= 79.075" exact, "≥ 61.921" truncated lower bound.
                Ok(report) => report.estimates[0].estimate.to_string(),
                Err(e) => format!("error: {e}"),
            };
            cells.push(cell);
        }
        println!("{:<34} {:>28} {:>28}", format!("{policy:?}"), cells[0], cells[1]);
    }

    println!();
    println!("Expected shape: priority-based policies shorten the user-visible AddressLookup");
    println!("latency at the cost of the background HandleTMC latency; preemption helps the");
    println!("high-priority stream most when the low-priority operations are long.");
}
