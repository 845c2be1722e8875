//! Design-space exploration of the in-car radio-navigation system.
//!
//! The paper's earlier work (Wandeler et al., ISoLA 2004) compared several
//! candidate architectures for the same three applications with Modular
//! Performance Analysis, and the paper's conclusion notes that UPPAAL "lacks
//! the features that are necessary to conveniently perform a parameter
//! sweep".  This example shows both capabilities on top of the exact
//! timed-automata analysis:
//!
//! 1. the five [`ArchitectureVariant`]s (different deployments of the same
//!    operations) are analysed for the AddressLookup + HandleTMC combination,
//! 2. a parameter sweep varies the NAV processor capacity and the bus rate of
//!    the baseline architecture to find the cheapest configuration that still
//!    meets every deadline.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use tempo::arch::explore::Sweep;
use tempo::arch::prelude::*;

fn main() {
    let params = CaseStudyParams::default();
    let cfg = AnalysisConfig::default();

    // ------------------------------------------------------------------
    // 1. Architecture variants
    // ------------------------------------------------------------------
    println!("== Architecture variants (AddressLookup + HandleTMC, sporadic streams) ==\n");
    for variant in ArchitectureVariant::all() {
        let model = radio_navigation_variant(
            variant,
            ScenarioCombo::AddressLookupWithTmc,
            EventModelColumn::Sporadic,
            &params,
        );
        print!("{:<28}", variant.label());
        let db = AnalysisDb::new(cfg.clone());
        for requirement in ["AddressLookup (+ HandleTMC)", "HandleTMC (+ AddressLookup)"] {
            match db.wcrt(&model, requirement) {
                Ok(rep) => print!(
                    "  {}: {:>9.3} ms{}",
                    requirement.split(' ').next().unwrap_or(requirement),
                    rep.wcrt_ms().unwrap_or(f64::NAN),
                    if rep.meets_deadline == Some(true) { " " } else { "!" },
                ),
                Err(e) => print!("  {requirement}: error ({e})"),
            }
        }
        println!();
    }

    // ------------------------------------------------------------------
    // 2. Parameter sweep on the baseline architecture
    // ------------------------------------------------------------------
    println!("\n== Parameter sweep: NAV capacity × bus rate (baseline architecture) ==\n");
    let base = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &params,
    );
    let outcome = Sweep::new(base)
        .vary_processor_mips("NAV", [57, 113, 226])
        .vary_bus_bit_rate("BUS", [36_000, 72_000, 144_000])
        .run(&cfg, 0)
        .expect("sweep");
    print!("{}", outcome.to_table_string());

    // Cost model: faster silicon and faster buses cost money; pick the
    // cheapest configuration that still meets every deadline.
    let cheapest = outcome.cheapest_feasible(|row| {
        let mips: f64 = row
            .label
            .split("NAV=")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(f64::MAX);
        let bps: f64 = row
            .label
            .split("BUS=")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(f64::MAX);
        mips + bps / 1_000.0
    });
    match cheapest {
        Some(row) => println!("\ncheapest feasible configuration: {}", row.label),
        None => println!("\nno configuration in the swept range meets all deadlines"),
    }
}
