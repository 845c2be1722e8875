//! Cross-crate integration tests: the four analysis techniques must agree on
//! the qualitative relationships the paper reports in Section 5 —
//! `simulation ≤ exact timed-automata WCRT ≤ SymTA/S ≈ MPA bounds` — and the
//! exact analysis must be internally consistent (sup method vs. binary
//! search, event-model monotonicity).  The comparison runs entirely on the
//! unified engine API (`Portfolio` over `TaEngine`/`SimEngine`/
//! `SymtaEngine`/`RtcEngine`); see `tests/engine_portfolio.rs` for the
//! generated-corpus bracket property test.

use tempo::arch::prelude::*;
use tempo::engine::{Portfolio, SimEngine, SymtaEngine, TaEngine};
use tempo::rtc::RtcEngine;
use tempo::sim::SimConfig;

/// A small two-scenario system sharing one CPU and one bus, small enough for
/// every technique to run in milliseconds.
fn shared_cpu_model(policy: SchedulingPolicy, lo_stimulus: EventModel) -> ArchitectureModel {
    let mut m = ArchitectureModel::new("integration");
    let cpu = m.add_processor("CPU", 1, policy);
    let bus = m.add_bus("BUS", 80_000, BusArbitration::FixedPriority);
    let hi = m.add_scenario(Scenario {
        name: "hi".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(25),
        },
        priority: 0,
        steps: vec![
            Step::Execute {
                operation: "sense".into(),
                instructions: 2_000,
                on: cpu,
            },
            Step::Transfer {
                message: "cmd".into(),
                bytes: 10,
                over: bus,
            },
        ],
    });
    let lo = m.add_scenario(Scenario {
        name: "lo".into(),
        stimulus: lo_stimulus,
        priority: 1,
        steps: vec![Step::Execute {
            operation: "background".into(),
            instructions: 8_000,
            on: cpu,
        }],
    });
    m.add_requirement(Requirement {
        name: "hi-e2e".into(),
        scenario: hi,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(1),
        deadline: TimeValue::millis(25),
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

fn default_lo() -> EventModel {
    EventModel::Periodic {
        period: TimeValue::millis(60),
    }
}

/// The test portfolio: all four engines with a short simulation campaign.
fn portfolio() -> Portfolio {
    Portfolio::new()
        .with_engine(Box::new(TaEngine::default()))
        .with_engine(Box::new(SimEngine::with_config(SimConfig {
            horizon: TimeValue::seconds(5),
            runs: 5,
            seed: 3,
        })))
        .with_engine(Box::new(SymtaEngine))
        .with_engine(Box::new(RtcEngine))
}

#[test]
fn simulation_never_exceeds_exact_and_exact_never_exceeds_analytic_bounds() {
    for policy in [
        SchedulingPolicy::FixedPriorityPreemptive,
        SchedulingPolicy::FixedPriorityNonPreemptive,
    ] {
        let model = shared_cpu_model(policy, default_lo());
        let comparison = portfolio()
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        // The portfolio's own bracket check covers sim ≤ exact ≤ analytic.
        assert!(
            comparison.bracket_ok(),
            "{policy:?}: {:?}",
            comparison.violations()
        );
        for requirement in ["hi-e2e", "lo-e2e"] {
            let req = comparison.for_requirement(requirement).unwrap();
            assert_eq!(req.estimates.len(), 4, "{policy:?}/{requirement}");
            // With the exact engine present the reconciled estimate is the
            // exact WCRT and every engine is consistent with it.
            assert!(req.reconciled.is_exact(), "{policy:?}/{requirement}");
            assert_eq!(req.meets_deadline, Some(true));
        }
    }
    // Under the non-deterministic scheduler the analytic baselines are not
    // sound upper bounds (a job can wait for several lower-priority jobs);
    // the paper still compares them, and simulation ≤ exact must hold.
    let model = shared_cpu_model(SchedulingPolicy::NonPreemptiveNd, default_lo());
    let comparison = Portfolio::new()
        .with_engine(Box::new(TaEngine::default()))
        .with_engine(Box::new(SimEngine::with_config(SimConfig {
            horizon: TimeValue::seconds(5),
            runs: 5,
            seed: 3,
        })))
        .compare(&model, &Query::WcrtAll, &RunContext::default())
        .unwrap();
    assert!(comparison.bracket_ok(), "{:?}", comparison.violations());
    assert!(comparison
        .requirements
        .iter()
        .all(|r| r.reconciled.is_exact()));
}

#[test]
fn binary_search_reproduces_sup_based_wcrt() {
    let model = shared_cpu_model(SchedulingPolicy::FixedPriorityPreemptive, default_lo());
    let cfg = AnalysisConfig::default();
    let db = AnalysisDb::new(cfg.clone());
    for requirement in ["hi-e2e", "lo-e2e"] {
        let sup = db.wcrt(&model, requirement).unwrap();
        let bs = analyze_requirement_binary_search(&model, requirement, &cfg).unwrap();
        assert_eq!(sup.wcrt, bs.wcrt, "{requirement}");
    }
}

#[test]
fn wcrt_is_monotone_in_event_model_burstiness() {
    // po (offset 0) <= pno <= jitter <= burst for the low-priority stream's
    // interference on itself and on the high-priority stream.
    //
    // This ladder uses a deliberately small two-task model (not
    // `shared_cpu_model`): exact analysis of the burst event model is the
    // paper's intractable `bur` corner (Section 5), and its zone graph grows
    // with every clock constant, so small periods keep the exact checker
    // fast while the monotonicity property is unaffected.
    fn tiny_model(lo_stimulus: EventModel) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("burstiness");
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
            stimulus: lo_stimulus,
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
            deadline: TimeValue::millis(24),
        });
        m
    }
    let p = TimeValue::millis(12);
    let models = [
        EventModel::PeriodicOffset {
            period: p,
            offset: TimeValue::ZERO,
        },
        EventModel::Periodic { period: p },
        EventModel::PeriodicJitter {
            period: p,
            jitter: TimeValue::millis(6),
        },
        EventModel::Burst {
            period: p,
            jitter: TimeValue::millis(12),
            min_separation: TimeValue::millis(1),
        },
    ];
    let cfg = AnalysisConfig::default();
    let mut previous = 0.0f64;
    for (i, lo_model) in models.into_iter().enumerate() {
        let model = tiny_model(lo_model);
        let wcrt = AnalysisDb::new(cfg.clone())
            .wcrt(&model, "lo-e2e")
            .unwrap()
            .wcrt_ms()
            .unwrap();
        assert!(
            wcrt + 1e-9 >= previous,
            "event model #{i}: WCRT {wcrt} decreased below {previous}"
        );
        previous = wcrt;
    }
}

#[test]
fn generated_networks_validate_and_queues_stay_bounded() {
    for policy in [
        SchedulingPolicy::NonPreemptiveNd,
        SchedulingPolicy::FixedPriorityPreemptive,
    ] {
        let model = shared_cpu_model(policy, default_lo());
        let generated = generate(&model, Some(&model.requirements[0]), &GeneratorOptions::default())
            .expect("generation succeeds");
        assert!(generated.system.validate().is_ok());
        // The typed query surface and the raw queue check agree.
        let db = AnalysisDb::new(AnalysisConfig::default());
        let report = db
            .run(&model, &Query::QueueBounds, &RunContext::default())
            .unwrap();
        assert_eq!(report.verdict, Some(true), "{policy:?}");
        db.queue_check(&model)
            .expect("queues stay bounded in a schedulable system");
    }
}

#[test]
fn priority_inversion_visible_under_non_preemptive_scheduling() {
    let np = shared_cpu_model(SchedulingPolicy::FixedPriorityNonPreemptive, default_lo());
    let pre = shared_cpu_model(SchedulingPolicy::FixedPriorityPreemptive, default_lo());
    let cfg = AnalysisConfig::default();
    let hi_np = AnalysisDb::new(cfg.clone()).wcrt(&np, "hi-e2e").unwrap().wcrt_ms().unwrap();
    let hi_pre = AnalysisDb::new(cfg).wcrt(&pre, "hi-e2e").unwrap().wcrt_ms().unwrap();
    assert!(
        hi_np >= hi_pre,
        "blocking should not make the preemptive WCRT larger: np {hi_np} vs pre {hi_pre}"
    );
    // With an 8 ms low-priority job the difference must actually show up.
    assert!(hi_np - hi_pre >= 7.9, "expected ~8 ms of blocking, got {}", hi_np - hi_pre);
}
