//! Compares the analysis cost of the four techniques (timed automata,
//! simulation, SymTA/S-style busy window, MPA/RTC) on the same architecture
//! model — the Section 5 "similar modeling and analysis effort" claim.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tempo_arch::casestudy::{radio_navigation, EventModelColumn, ScenarioCombo};
use tempo_arch::engine::{Engine, Query, RunContext};
use tempo_arch::{AnalysisConfig, AnalysisDb};
use tempo_bench::quick_params;
use tempo_sim::{simulate, SimConfig};

fn bench_techniques(c: &mut Criterion) {
    let mut group = c.benchmark_group("techniques");
    group.sample_size(10);
    let params = quick_params(8);
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::PeriodicUnknownOffset,
        &params,
    );
    let requirement = "HandleTMC (+ AddressLookup)";

    group.bench_function("timed_automata_exact", |b| {
        b.iter(|| {
            let db = AnalysisDb::new(AnalysisConfig::default());
            black_box(db.wcrt(&model, requirement).unwrap())
        })
    });
    group.bench_function("simulation_60s_3runs", |b| {
        let cfg = SimConfig {
            horizon: tempo_arch::TimeValue::seconds(60),
            runs: 3,
            seed: 1,
        };
        b.iter(|| black_box(simulate(&model, &cfg).unwrap()))
    });
    let query = Query::Wcrt {
        requirement: requirement.into(),
    };
    let ctx = RunContext::default();
    group.bench_function("symta_busy_window", |b| {
        b.iter(|| black_box(tempo_symta::SymtaEngine.run(&model, &query, &ctx).unwrap()))
    });
    group.bench_function("mpa_real_time_calculus", |b| {
        b.iter(|| black_box(tempo_rtc::RtcEngine.run(&model, &query, &ctx).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_techniques);
criterion_main!(benches);
