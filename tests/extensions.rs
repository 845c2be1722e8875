//! Integration tests of the extension features on the full case study:
//! textual model exchange, exact WCRT extraction, alternative architectures
//! and parameter sweeps.

use tempo::arch::casestudy::{
    radio_navigation, radio_navigation_variant, ArchitectureVariant, CaseStudyParams,
    EventModelColumn, ScenarioCombo,
};
use tempo::arch::explore::Sweep;
use tempo::arch::prelude::*;
use tempo::check::{Explorer, SearchOptions, SearchOrder, TargetSpec};
use tempo::ta::format::{parse_system, print_system};

fn quick_params() -> CaseStudyParams {
    let mut p = CaseStudyParams::default();
    p.volume_period = p.volume_period * 8;
    p.lookup_period = p.lookup_period * 8;
    p
}

// No state cap since PR 3: active-clock reduction plus exact zone merging let
// every quick-workload analysis complete, so truncation would only mask
// regressions (see `case_study_smoke.rs` for the per-column ceilings).
fn quick_cfg() -> AnalysisConfig {
    AnalysisConfig {
        search: SearchOptions {
            order: SearchOrder::Bfs,
            ..SearchOptions::default()
        },
        ..AnalysisConfig::default()
    }
}

/// The generated case-study network survives a print → parse round trip
/// exactly, so generated models can be archived and exchanged as text.
#[test]
fn generated_case_study_roundtrips_through_the_text_format() {
    let model = radio_navigation(
        ScenarioCombo::ChangeVolumeWithTmc,
        EventModelColumn::Burst,
        &quick_params(),
    );
    let req = model
        .requirement_by_name("K2V (ChangeVolume + HandleTMC)")
        .unwrap()
        .clone();
    let generated = generate(&model, Some(&req), &GeneratorOptions::default()).unwrap();
    let text = print_system(&generated.system);
    let reparsed = parse_system(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}"));
    assert_eq!(generated.system, reparsed);
    assert!(reparsed.validate().is_ok());
    // The text mentions every automaton of the network.
    for a in &generated.system.automata {
        assert!(text.contains(&a.name), "printed text misses automaton {}", a.name);
    }
}

/// The explorer computes an exact WCRT on a case-study-sized network, with
/// the active-clock reduction firing.
#[test]
fn exact_wcrt_on_the_case_study() {
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &quick_params(),
    );
    let req = model
        .requirement_by_name("AddressLookup (+ HandleTMC)")
        .unwrap()
        .clone();
    let generated = generate(&model, Some(&req), &GeneratorOptions::default()).unwrap();
    let observer = generated.observer.as_ref().unwrap();
    let explorer = Explorer::new(&generated.system, SearchOptions::default()).unwrap();
    let seen = TargetSpec::location(
        &generated.system,
        &observer.automaton,
        &observer.seen_location,
    )
    .unwrap();
    let cap = generated.quantizer.to_ticks(TimeValue::millis(400));

    let sequential = explorer.sup_clock_at(&seen, observer.clock, cap).unwrap();
    assert!(!sequential.cap_hit);
    assert!(sequential.exact_value().is_some());
    // The active-clock reduction fires (the observer and environment clocks
    // are dead in most locations).
    assert!(sequential.stats.clocks_eliminated > 0);
}

/// Folding functionality onto fewer processors removes bus traffic and
/// (with the summed capacities) shortens the AddressLookup latency, while a
/// dedicated TMC bus can only help the user-facing requirement.
#[test]
fn architecture_variants_order_as_expected() {
    let cfg = quick_cfg();
    let params = quick_params();
    let wcrt = |variant| {
        let model = radio_navigation_variant(
            variant,
            ScenarioCombo::AddressLookupWithTmc,
            EventModelColumn::Sporadic,
            &params,
        );
        AnalysisDb::new(cfg.clone())
            .wcrt(&model, "AddressLookup (+ HandleTMC)")
            .unwrap()
            .wcrt
            .expect("exact")
    };
    let baseline = wcrt(ArchitectureVariant::ThreeCpuOneBus);
    let dual_bus = wcrt(ArchitectureVariant::DualBus);
    let single_cpu = wcrt(ArchitectureVariant::SingleCpu);
    let mmi_on_nav = wcrt(ArchitectureVariant::MmiOnNav);
    // A dedicated TMC bus removes the TMC blocking from the user path.
    assert!(dual_bus <= baseline, "{dual_bus} vs {baseline}");
    // A single fast CPU has no bus transfers at all; with the summed MIPS its
    // AddressLookup chain is far faster than the distributed baseline.
    assert!(single_cpu < baseline, "{single_cpu} vs {baseline}");
    // Folding the MMI into NAV removes both user-path transfers.
    assert!(mmi_on_nav < baseline, "{mmi_on_nav} vs {baseline}");
    // All variants stay within the 200 ms requirement.
    for v in [baseline, dual_bus, single_cpu, mmi_on_nav] {
        assert!(v < TimeValue::millis(200));
    }
}

/// A two-point sweep over the NAV processor reproduces the obvious
/// sensitivity: halving the capacity increases the AddressLookup WCRT.
#[test]
fn sweep_over_nav_capacity_is_monotone() {
    let base = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &quick_params(),
    );
    let outcome = Sweep::new(base)
        .vary_processor_mips("NAV", [57, 113])
        .requirements(["AddressLookup (+ HandleTMC)".to_string()])
        .run(&quick_cfg(), 2)
        .unwrap();
    assert_eq!(outcome.rows.len(), 2);
    let slow = outcome.rows[0].reports[0].wcrt.expect("exact");
    let fast = outcome.rows[1].reports[0].wcrt.expect("exact");
    assert!(slow > fast, "halving NAV capacity must increase the WCRT");
    let table = outcome.to_table_string();
    assert!(table.contains("NAV=57 MIPS"));
    assert!(table.contains("NAV=113 MIPS"));
}
