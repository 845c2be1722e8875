//! # tempo-sim — discrete-event simulation of architecture models
//!
//! This crate is the stand-in for the POOSL/SHESIM discrete-event simulation
//! used as a comparator in Section 5 of the paper.  It executes an
//! [`tempo_arch::ArchitectureModel`] concretely: stimulus generators draw
//! event arrivals according to the scenario's event model (with randomized
//! offsets and jitter), jobs travel through their scenario's step chain, and
//! every processor/bus dispatches pending jobs according to its scheduling
//! policy (including preemption).
//!
//! A simulation observes *some* schedules, so the maximum response time it
//! reports is a **lower bound** on the true worst case — exactly the
//! relationship the paper points out when comparing POOSL with UPPAAL
//! ("the worst-case instance is not necessarily found by simulation").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod generator;
mod sim_engine;

pub use engine::{simulate, SimConfig, SimError, SimReport};
pub use generator::StimulusGenerator;
pub use sim_engine::SimEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_arch::model::{
        ArchitectureModel, EventModel, MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step,
    };
    use tempo_arch::time::TimeValue;

    fn two_task_model(policy: SchedulingPolicy) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("sim-test");
        let cpu = m.add_processor("CPU", 1, policy);
        let hi = m.add_scenario(Scenario {
            name: "hi".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(20),
            },
            priority: 0,
            steps: vec![Step::Execute {
                operation: "short".into(),
                instructions: 2_000,
                on: cpu,
            }],
        });
        let lo = m.add_scenario(Scenario {
            name: "lo".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(50),
            },
            priority: 1,
            steps: vec![Step::Execute {
                operation: "long".into(),
                instructions: 10_000,
                on: cpu,
            }],
        });
        m.add_requirement(Requirement {
            name: "hi-rt".into(),
            scenario: hi,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(20),
        });
        m.add_requirement(Requirement {
            name: "lo-rt".into(),
            scenario: lo,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(50),
        });
        m
    }

    #[test]
    fn simulation_is_bounded_by_exact_wcrt() {
        for policy in [
            SchedulingPolicy::FixedPriorityPreemptive,
            SchedulingPolicy::FixedPriorityNonPreemptive,
            SchedulingPolicy::NonPreemptiveNd,
        ] {
            let m = two_task_model(policy);
            let cfg = SimConfig {
                horizon: TimeValue::seconds(2),
                runs: 5,
                seed: 7,
            };
            let reports = simulate(&m, &cfg).unwrap();
            for report in &reports {
                let exact = tempo_arch::AnalysisDb::new(tempo_arch::AnalysisConfig::default())
                    .wcrt(&m, &report.requirement)
                    .unwrap()
                    .wcrt
                    .unwrap()
                    .as_millis_f64();
                let observed = report.max_response_ms();
                assert!(
                    observed <= exact + 1e-6,
                    "{policy:?} {}: simulated {observed} exceeds exact {exact}",
                    report.requirement
                );
                // The simulation must exercise the scenario at least once and
                // observe at least the raw execution time.
                assert!(report.observations > 10);
                assert!(observed >= 1.9, "{policy:?} {}: {observed}", report.requirement);
            }
        }
    }

    #[test]
    fn preemptive_scheduling_lowers_high_priority_response() {
        let cfg = SimConfig {
            horizon: TimeValue::seconds(2),
            runs: 3,
            seed: 11,
        };
        let np = simulate(
            &two_task_model(SchedulingPolicy::FixedPriorityNonPreemptive),
            &cfg,
        )
        .unwrap();
        let pre = simulate(
            &two_task_model(SchedulingPolicy::FixedPriorityPreemptive),
            &cfg,
        )
        .unwrap();
        let hi_np = np.iter().find(|r| r.requirement == "hi-rt").unwrap();
        let hi_pre = pre.iter().find(|r| r.requirement == "hi-rt").unwrap();
        // Under preemption the short task never waits for the long one.
        assert!(hi_pre.max_response_ms() <= 2.0 + 1e-6);
        assert!(hi_np.max_response_ms() >= hi_pre.max_response_ms());
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let m = two_task_model(SchedulingPolicy::FixedPriorityPreemptive);
        let cfg = SimConfig {
            horizon: TimeValue::seconds(1),
            runs: 3,
            seed: 99,
        };
        let a = simulate(&m, &cfg).unwrap();
        let b = simulate(&m, &cfg).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.max_response_us, y.max_response_us);
            assert_eq!(x.observations, y.observations);
        }
        // A different seed generally explores different offsets.
        let c = simulate(
            &m,
            &SimConfig {
                seed: 100,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(a.len(), c.len());
    }
}
