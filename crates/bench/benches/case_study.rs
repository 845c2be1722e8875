//! Benchmarks of the end-to-end case-study analysis: model generation and
//! WCRT extraction for the AddressLookup+HandleTMC combination (the
//! combination the paper reports as verifying "in less than a second") and
//! for a slowed-down ChangeVolume+HandleTMC combination.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tempo_arch::casestudy::{radio_navigation, EventModelColumn, ScenarioCombo};
use tempo_arch::{generate, AnalysisConfig, AnalysisDb, GeneratorOptions};
use tempo_bench::quick_params;

fn bench_case_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("case_study");
    group.sample_size(10);
    let params = quick_params(8);

    group.bench_function("generate/AL+TMC", |b| {
        let model = radio_navigation(
            ScenarioCombo::AddressLookupWithTmc,
            EventModelColumn::Sporadic,
            &params,
        );
        let req = model.requirements[0].clone();
        b.iter(|| black_box(generate(&model, Some(&req), &GeneratorOptions::default()).unwrap()))
    });

    for column in [
        EventModelColumn::PeriodicOffsetZero,
        EventModelColumn::PeriodicUnknownOffset,
        EventModelColumn::Sporadic,
    ] {
        group.bench_function(format!("wcrt/AL+TMC/{}", column.label()), |b| {
            let model = radio_navigation(ScenarioCombo::AddressLookupWithTmc, column, &params);
            b.iter(|| {
                // A fresh database per iteration keeps generation and
                // exploration inside the measured work.
                let db = AnalysisDb::new(AnalysisConfig::default());
                black_box(db.wcrt(&model, "HandleTMC (+ AddressLookup)").unwrap())
            })
        });
    }

    group.bench_function("wcrt/CV+TMC/sp (quick)", |b| {
        let model = radio_navigation(
            ScenarioCombo::ChangeVolumeWithTmc,
            EventModelColumn::Sporadic,
            &params,
        );
        b.iter(|| {
            let db = AnalysisDb::new(AnalysisConfig::default());
            black_box(db.wcrt(&model, "K2A (ChangeVolume + HandleTMC)").unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_case_study);
criterion_main!(benches);
