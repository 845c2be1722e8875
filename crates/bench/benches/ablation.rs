//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * maximum-bounds extrapolation on/off — extrapolation is what keeps the
//!   zone graph finite and small; the bench uses a clock-bounded model so the
//!   no-extrapolation variant still terminates and the cost difference is the
//!   measured quantity,
//! * generator queue capacity — larger event queues enlarge the discrete part
//!   of every symbolic state and therefore the zone graph.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tempo_arch::model::{
    ArchitectureModel, BusArbitration, EventModel, MeasurePoint, Requirement, Scenario,
    SchedulingPolicy, Step,
};
use tempo_arch::{AnalysisConfig, AnalysisDb, TimeValue};
use tempo_check::{Explorer, SearchOptions};
use tempo_ta::{ClockRef, System, SystemBuilder, Update, VarExprExt};

/// A ring of `n` stations passing a token, every clock bounded by invariants,
/// so exploration terminates with and without extrapolation.
fn token_ring(n: usize) -> System {
    let mut sb = SystemBuilder::new("ring");
    let token = sb.add_var("token", 0, n as i64 - 1, 0);
    let clocks: Vec<_> = (0..n).map(|i| sb.add_clock(format!("x{i}"))).collect();
    for (i, &x) in clocks.iter().enumerate() {
        let mut a = sb.automaton(format!("S{i}"));
        let idle = a.location("idle").invariant(x.le(20)).add();
        let work = a.location("work").invariant(x.le(3 + i as i64)).add();
        a.edge(idle, work)
            .guard(token.eq_(i as i64))
            .reset(x)
            .add();
        a.edge(work, idle)
            .guard_clock(x.ge(1))
            .update(Update::assign(token, ((i + 1) % n) as i64))
            .reset(x)
            .add();
        // Keep the idle clock bounded so that disabling extrapolation still
        // yields a finite zone graph.
        a.edge(idle, idle).guard_clock(x.eq_(20)).reset(x).add();
        a.set_initial(idle);
        a.build();
    }
    sb.build()
}

/// The bus-contention gateway used by the `bus_protocols` example, small
/// enough for per-iteration analysis inside a bench.
fn gateway(queue_capacity: i64) -> (ArchitectureModel, AnalysisConfig) {
    let mut model = ArchitectureModel::new("gateway");
    let cpu = model.add_processor("MCU", 100, SchedulingPolicy::FixedPriorityNonPreemptive);
    let bus = model.add_bus("FIELDBUS", 80_000, BusArbitration::FixedPriority);
    let alarm = model.add_scenario(Scenario {
        name: "alarm".into(),
        stimulus: EventModel::Sporadic {
            min_interarrival: TimeValue::millis(50),
        },
        priority: 0,
        steps: vec![
            Step::Execute {
                operation: "DetectAlarm".into(),
                instructions: 100_000,
                on: cpu,
            },
            Step::Transfer {
                message: "AlarmFrame".into(),
                bytes: 10,
                over: bus,
            },
        ],
    });
    model.add_scenario(Scenario {
        name: "telemetry".into(),
        stimulus: EventModel::Sporadic {
            min_interarrival: TimeValue::millis(120),
        },
        priority: 1,
        steps: vec![Step::Transfer {
            message: "TelemetryDump".into(),
            bytes: 120,
            over: bus,
        }],
    });
    model.add_requirement(Requirement {
        name: "alarm latency".into(),
        scenario: alarm,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(1),
        deadline: TimeValue::millis(40),
    });
    let mut cfg = AnalysisConfig::default();
    cfg.generator.queue_capacity = queue_capacity;
    (model, cfg)
}

fn bench_extrapolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/extrapolation");
    group.sample_size(10);
    let sys = token_ring(4);
    for (label, extrapolate) in [("on", true), ("off", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let opts = SearchOptions {
                    extrapolate,
                    ..SearchOptions::default()
                };
                let ex = Explorer::new(&sys, opts).unwrap();
                black_box(ex.state_space_size().unwrap())
            })
        });
    }
    group.finish();
}

fn bench_queue_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/queue_capacity");
    group.sample_size(10);
    for capacity in [2i64, 4, 8] {
        let (model, cfg) = gateway(capacity);
        group.bench_function(format!("capacity_{capacity}"), |b| {
            b.iter(|| {
                let db = AnalysisDb::new(cfg.clone());
                black_box(db.wcrt(&model, "alarm latency").unwrap().wcrt)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extrapolation, bench_queue_capacity);
criterion_main!(benches);
