//! Micro-benchmarks of the DBM zone operations that dominate exploration
//! time: canonicalization, constraining, delay, reset and inclusion.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tempo_dbm::{Bound, Clock, Dbm};

fn sample_zone(n: usize) -> Dbm {
    let mut z = Dbm::zero(n);
    z.up();
    for i in 1..=n {
        z.constrain(Clock(i as u32), Clock::REF, Bound::weak(10 * i as i64));
        z.constrain(Clock::REF, Clock(i as u32), Bound::weak(-(i as i64)));
    }
    z
}

/// A delayed zone with per-clock upper bounds only: non-empty at every
/// dimension (unlike [`sample_zone`], whose lower bounds contradict the
/// all-clocks-equal diagonal from dimension 11 up), and tight enough that
/// constraining `x1` genuinely tightens and forces the incremental
/// re-canonicalization (`close1`).
fn delay_zone(n: usize) -> Dbm {
    let mut z = Dbm::zero(n);
    z.up();
    for i in 1..=n {
        z.constrain(Clock(i as u32), Clock::REF, Bound::weak(10 * i as i64));
    }
    z
}

fn bench_dbm(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbm");
    group.sample_size(30);
    for &n in &[4usize, 8, 16] {
        let z = sample_zone(n);
        group.bench_function(format!("close/{n}_clocks"), |b| {
            b.iter(|| {
                let mut w = z.clone();
                w.close();
                black_box(w.is_empty())
            })
        });
        let delayed = delay_zone(n);
        group.bench_function(format!("constrain/{n}_clocks"), |b| {
            b.iter(|| {
                let mut w = delayed.clone();
                w.constrain(Clock(1), Clock::REF, Bound::weak(5));
                black_box(w.is_empty())
            })
        });
        group.bench_function(format!("up_reset/{n}_clocks"), |b| {
            b.iter(|| {
                let mut w = z.clone();
                w.up();
                w.reset(Clock(1), 0);
                black_box(w.sup(Clock(1)))
            })
        });
        group.bench_function(format!("inclusion/{n}_clocks"), |b| {
            let other = sample_zone(n);
            b.iter(|| black_box(z.includes(&other)))
        });
        group.bench_function(format!("extrapolate/{n}_clocks"), |b| {
            let k: Vec<i64> = (0..=n as i64).map(|i| i * 5).collect();
            b.iter(|| {
                let mut w = z.clone();
                w.extrapolate_lu(&k, &k);
                black_box(w.is_empty())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dbm);
criterion_main!(benches);
