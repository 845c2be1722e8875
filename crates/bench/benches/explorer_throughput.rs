//! Explorer throughput on Fischer's protocol: the full zone-graph
//! exploration with the default options and with each state-collapse
//! mechanism disabled, side by side.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tempo_bench::fischer;
use tempo_check::{Explorer, SearchOptions};

fn bench_explorer_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("explorer_throughput");
    group.sample_size(10);
    for &n in &[3usize, 4] {
        let sys = fischer(n, true);
        group.bench_function(format!("fischer{n}/sequential"), |b| {
            b.iter(|| {
                let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
                black_box(ex.state_space_size().unwrap())
            })
        });
        // Ablation of the PR 3 state-collapse machinery: active-clock
        // reduction and exact zone merging, individually disabled.
        group.bench_function(format!("fischer{n}/no_reduction"), |b| {
            b.iter(|| {
                let opts = SearchOptions {
                    active_clock_reduction: false,
                    ..SearchOptions::default()
                };
                let ex = Explorer::new(&sys, opts).unwrap();
                black_box(ex.state_space_size().unwrap())
            })
        });
        group.bench_function(format!("fischer{n}/no_merging"), |b| {
            b.iter(|| {
                let opts = SearchOptions {
                    exact_zone_merging: false,
                    ..SearchOptions::default()
                };
                let ex = Explorer::new(&sys, opts).unwrap();
                black_box(ex.state_space_size().unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explorer_throughput);
criterion_main!(benches);
