//! Shared fixtures of the root-level integration tests: the pseudo-random
//! architecture generator of the differential harnesses, the TDMA and burst
//! fixtures, the reference search configuration and the uncached reference
//! WCRT.  Used by `reduction_differential.rs` (exactness of the
//! state-collapse machinery), `incremental_differential.rs` (the cache is
//! invisible) and `engine_portfolio.rs` (the paper's bracket invariant
//! across all four engines).
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo::arch::analyze_generated;
use tempo::arch::prelude::*;

/// Every scheduling policy the checker supports.
pub const ALL_POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::NonPreemptiveNd,
    SchedulingPolicy::FixedPriorityPreemptive,
    SchedulingPolicy::FixedPriorityNonPreemptive,
];

/// The policies for which the analytic baselines (SymTA/S busy windows, MPA)
/// are sound upper bounds.  Under `NonPreemptiveNd` any pending operation may
/// be served next regardless of priority, so a job can wait for *several*
/// lower-priority jobs — more than the single blocking term fixed-priority
/// analysis accounts for.
pub const ANALYTIC_SOUND_POLICIES: [SchedulingPolicy; 2] = [
    SchedulingPolicy::FixedPriorityPreemptive,
    SchedulingPolicy::FixedPriorityNonPreemptive,
];

/// The reference search options the storage differentials compare the
/// default against: active-clock reduction and exact zone merging off.
pub fn reference_search() -> SearchOptions {
    SearchOptions {
        active_clock_reduction: false,
        exact_zone_merging: false,
        ..SearchOptions::default()
    }
}

/// [`reference_search`] as an analysis configuration.
pub fn reference_config() -> AnalysisConfig {
    AnalysisConfig {
        search: reference_search(),
        ..AnalysisConfig::default()
    }
}

/// The uncached reference WCRT of one requirement: a freshly generated
/// network and one exploration, with no analysis database in between.
pub fn reference_wcrt(model: &ArchitectureModel, req: &str, cfg: &AnalysisConfig) -> WcrtReport {
    let req = model
        .requirement_by_name(req)
        .unwrap_or_else(|| panic!("{}: no requirement `{req}`", model.name));
    let generated = generate(model, Some(req), &cfg.generator)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", model.name, req.name));
    analyze_generated(&generated, req, cfg, &RunContext::default())
        .unwrap_or_else(|e| panic!("{}/{}: {e}", model.name, req.name))
}

/// A small pseudo-random architecture: two processors and a bus, two
/// scenarios with random event models, service times, mappings and policies
/// drawn from `policies`.  Utilisation stays low by construction so every
/// model is schedulable and every queue bounded.
pub fn random_model_with_policies(
    seed: u64,
    policies: &[SchedulingPolicy],
) -> ArchitectureModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = ArchitectureModel::new(format!("gen{seed}"));
    let cpu_a = m.add_processor("CPU_A", 1, policies[rng.gen_range(0usize..policies.len())]);
    let cpu_b = m.add_processor("CPU_B", 1, policies[rng.gen_range(0usize..policies.len())]);
    let bus = m.add_bus("BUS", 8_000, BusArbitration::FixedPriority);
    for i in 0..2u32 {
        let period_ms = [20i128, 25, 40, 50][rng.gen_range(0usize..4)];
        let period = TimeValue::millis(period_ms);
        let stimulus = match rng.gen_range(0..4) {
            0 => EventModel::Periodic { period },
            1 => EventModel::Sporadic {
                min_interarrival: period,
            },
            2 => EventModel::PeriodicOffset {
                period,
                offset: TimeValue::ZERO,
            },
            _ => EventModel::PeriodicJitter {
                period,
                jitter: TimeValue::millis(period_ms / 2),
            },
        };
        let first_cpu = if rng.gen_bool(0.5) { cpu_a } else { cpu_b };
        let mut steps = vec![Step::Execute {
            operation: format!("op{i}"),
            instructions: rng.gen_range(1_000..4_000) as u64,
            on: first_cpu,
        }];
        if rng.gen_bool(0.5) {
            steps.push(Step::Transfer {
                message: format!("msg{i}"),
                bytes: rng.gen_range(1..3) as u64,
                over: bus,
            });
            steps.push(Step::Execute {
                operation: format!("op{i}_tail"),
                instructions: rng.gen_range(1_000..3_000) as u64,
                on: if first_cpu == cpu_a { cpu_b } else { cpu_a },
            });
        }
        let last = steps.len() - 1;
        let sid = m.add_scenario(Scenario {
            name: format!("s{i}"),
            stimulus,
            priority: i,
            steps,
        });
        m.add_requirement(Requirement {
            name: format!("r{i}"),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(last),
            deadline: period,
        });
    }
    m
}

/// The historical corpus generator (all three policies).
pub fn random_model(seed: u64) -> ArchitectureModel {
    random_model_with_policies(seed, &ALL_POLICIES)
}

/// A TDMA bus (time-triggered slots) carrying two scenarios' messages.
pub fn tdma_model() -> ArchitectureModel {
    let mut m = ArchitectureModel::new("tdma");
    let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityNonPreemptive);
    let bus = m.add_bus(
        "TDMA",
        8_000,
        BusArbitration::Tdma {
            slot: TimeValue::millis(4),
        },
    );
    for (i, period_ms) in [24i128, 36].iter().enumerate() {
        let sid = m.add_scenario(Scenario {
            name: format!("s{i}"),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(*period_ms),
            },
            priority: i as u32,
            steps: vec![
                Step::Execute {
                    operation: format!("prep{i}"),
                    instructions: 2_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: format!("frame{i}"),
                    bytes: 2,
                    over: bus,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: format!("r{i}"),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(*period_ms),
        });
    }
    m
}

/// The paper's intractable corner scaled down: a bursty low-priority stream
/// (J > P) interfering with a periodic high-priority task.
pub fn burst_model() -> ArchitectureModel {
    let mut m = ArchitectureModel::new("burst");
    let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityPreemptive);
    m.add_scenario(Scenario {
        name: "hi".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(5),
        },
        priority: 0,
        steps: vec![Step::Execute {
            operation: "short".into(),
            instructions: 1_000,
            on: cpu,
        }],
    });
    let lo = m.add_scenario(Scenario {
        name: "lo".into(),
        stimulus: EventModel::Burst {
            period: TimeValue::millis(12),
            jitter: TimeValue::millis(24),
            min_separation: TimeValue::millis(1),
        },
        priority: 1,
        steps: vec![Step::Execute {
            operation: "long".into(),
            instructions: 3_000,
            on: cpu,
        }],
    });
    m.add_requirement(Requirement {
        name: "lo-e2e".into(),
        scenario: lo,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(0),
        deadline: TimeValue::millis(60),
    });
    m
}
