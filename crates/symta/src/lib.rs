//! # tempo-symta — SymTA/S-style compositional busy-window analysis
//!
//! This crate is the stand-in for the commercial SymTA/S tool used as a
//! comparator in Section 5 of the paper.  It implements the published
//! technique behind the tool (Richter et al.): classical fixed-priority
//! response-time analysis with standard event models `(P, J, D)` per resource,
//! composed at the system level by propagating *output* event models (the
//! response-time jitter of a step becomes additional input jitter of the next
//! step) until a global fixed point is reached.
//!
//! The analysis is conservative: it computes safe upper bounds on worst-case
//! response times.  On the case study the expected relationship is
//!
//! ```text
//! simulation (tempo-sim)  ≤  exact WCRT (tempo-arch/tempo-check)  ≤  SymTA/S bound  ≈  MPA bound
//! ```
//!
//! which is exactly the qualitative picture reported in Table 2.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tempo_arch::model::{
    ArchitectureModel, MeasurePoint, Requirement, SchedulingPolicy, Step,
};
use tempo_arch::time::TimeValue;

mod event_model;
mod busy_window;
mod engine;

pub use busy_window::{response_time_bound, ResourceKind, TaskParams};
pub use engine::SymtaEngine;
pub use event_model::StandardEventModel;

/// The result of a SymTA/S-style end-to-end analysis of one requirement.
#[derive(Clone, Debug)]
pub struct SymtaReport {
    /// Requirement name.
    pub requirement: String,
    /// Upper bound on the end-to-end worst-case response time.
    pub wcrt_bound: TimeValue,
    /// Per-step response-time bounds (same order as the measured steps).
    pub step_bounds: Vec<TimeValue>,
    /// Number of global fixed-point iterations performed.
    pub iterations: usize,
}

impl SymtaReport {
    /// The bound as a typed [`tempo_arch::engine::Estimate`]: the busy-window
    /// analysis always produces conservative upper bounds.
    pub fn estimate(&self) -> tempo_arch::engine::Estimate {
        tempo_arch::engine::Estimate::UpperBound(self.wcrt_bound)
    }

    /// The bound in milliseconds (routed through
    /// [`Estimate::as_millis_f64`](tempo_arch::engine::Estimate::as_millis_f64),
    /// the shared conversion path).
    pub fn wcrt_ms(&self) -> f64 {
        self.estimate().as_millis_f64()
    }
}

impl std::fmt::Display for SymtaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: WCRT {}", self.requirement, self.estimate())
    }
}

/// Errors of the analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum SymtaError {
    /// The underlying architecture model is invalid.
    Model(String),
    /// A requirement name could not be resolved.
    UnknownRequirement(String),
    /// A resource is overloaded (utilisation ≥ 1), so no finite bound exists.
    Overload {
        /// The overloaded resource.
        resource: String,
    },
    /// The busy-window iteration did not converge within the iteration budget.
    NoConvergence,
}

impl std::fmt::Display for SymtaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymtaError::Model(m) => write!(f, "invalid model: {m}"),
            SymtaError::UnknownRequirement(n) => write!(f, "unknown requirement `{n}`"),
            SymtaError::Overload { resource } => {
                write!(f, "resource `{resource}` is overloaded; no finite response time exists")
            }
            SymtaError::NoConvergence => write!(f, "busy-window iteration did not converge"),
        }
    }
}

impl std::error::Error for SymtaError {}

/// Internal task descriptor: one scenario step mapped onto its resource.
#[derive(Clone, Debug)]
struct SystemTask {
    scenario: usize,
    step: usize,
    /// Resource index: processors first, then buses.
    resource: usize,
    wcet: TimeValue,
    priority: u32,
    input: StandardEventModel,
    response: TimeValue,
}

/// Analyzes one requirement of the model and returns a conservative
/// end-to-end WCRT bound; the body behind [`SymtaEngine`], which answers the
/// same query with typed estimates through the `tempo_arch::engine::Engine`
/// seam.
pub(crate) fn analyze_requirement_impl(
    model: &ArchitectureModel,
    requirement_name: &str,
) -> Result<SymtaReport, SymtaError> {
    model
        .validate()
        .map_err(|e| SymtaError::Model(e.to_string()))?;
    let req = model
        .requirement_by_name(requirement_name)
        .ok_or_else(|| SymtaError::UnknownRequirement(requirement_name.to_string()))?;
    let (tasks, iterations) = system_fixed_point(model)?;
    let (first, last) = measured_range(model, req);
    let step_bounds: Vec<TimeValue> = tasks
        .iter()
        .filter(|t| t.scenario == req.scenario.0 && t.step >= first && t.step <= last)
        .map(|t| t.response)
        .collect();
    let wcrt_bound = step_bounds
        .iter()
        .fold(TimeValue::ZERO, |acc, t| acc + *t);
    Ok(SymtaReport {
        requirement: req.name.clone(),
        wcrt_bound,
        step_bounds,
        iterations,
    })
}

/// Analyzes every requirement of the model; the body behind [`SymtaEngine`]'s
/// `Query::WcrtAll`.
pub(crate) fn analyze_all_impl(model: &ArchitectureModel) -> Result<Vec<SymtaReport>, SymtaError> {
    model
        .requirements
        .iter()
        .map(|r| analyze_requirement_impl(model, &r.name))
        .collect()
}

fn measured_range(model: &ArchitectureModel, req: &Requirement) -> (usize, usize) {
    let last = match req.to {
        MeasurePoint::AfterStep(i) => i,
        MeasurePoint::Stimulus => 0,
    };
    let first = match req.from {
        MeasurePoint::Stimulus => 0,
        // The latency from the completion of step `i` starts at step `i + 1`.
        MeasurePoint::AfterStep(i) => (i + 1).min(last),
    };
    let _ = model;
    (first, last)
}

/// Builds the task set and runs the global fixed-point iteration: response
/// times determine output jitters, which feed the next steps' input event
/// models, which changes interference, and so on until nothing moves.
fn system_fixed_point(model: &ArchitectureModel) -> Result<(Vec<SystemTask>, usize), SymtaError> {
    let num_procs = model.processors.len();
    let mut tasks: Vec<SystemTask> = Vec::new();
    for (si, s) in model.scenarios.iter().enumerate() {
        let input = StandardEventModel::from_event_model(&s.stimulus);
        for (sti, step) in s.steps.iter().enumerate() {
            let resource = match step {
                Step::Execute { on, .. } => on.0,
                Step::Transfer { over, .. } => num_procs + over.0,
            };
            tasks.push(SystemTask {
                scenario: si,
                step: sti,
                resource,
                wcet: model.step_service_time(step),
                priority: s.priority,
                input: input.clone(),
                response: model.step_service_time(step),
            });
        }
    }

    // Utilisation check per resource.
    for (ri, name) in resource_names(model).iter().enumerate() {
        let u: f64 = tasks
            .iter()
            .filter(|t| t.resource == ri)
            .map(|t| t.wcet.as_micros_f64() / t.input.period.as_micros_f64())
            .sum();
        if u >= 1.0 {
            return Err(SymtaError::Overload {
                resource: name.clone(),
            });
        }
    }

    let max_iterations = 64;
    for iteration in 0..max_iterations {
        let mut changed = false;
        // 1. response-time analysis per resource, given current input models.
        for i in 0..tasks.len() {
            let kind = resource_kind(model, tasks[i].resource);
            let params = TaskParams {
                wcet: tasks[i].wcet,
                input: tasks[i].input.clone(),
                priority: tasks[i].priority,
            };
            let interferers: Vec<TaskParams> = tasks
                .iter()
                .enumerate()
                .filter(|(j, t)| *j != i && t.resource == tasks[i].resource)
                .map(|(_, t)| TaskParams {
                    wcet: t.wcet,
                    input: t.input.clone(),
                    priority: t.priority,
                })
                .collect();
            let r = response_time_bound(&params, &interferers, kind)
                .ok_or(SymtaError::NoConvergence)?;
            if r != tasks[i].response {
                tasks[i].response = r;
                changed = true;
            }
        }
        // 2. event-model propagation along every scenario chain: the input of
        // step k+1 is the stimulus model with jitter increased by the sum of
        // the response-time jitters of steps 0..=k (response minus best case).
        for si in 0..model.scenarios.len() {
            let stimulus = StandardEventModel::from_event_model(&model.scenarios[si].stimulus);
            let mut accumulated_jitter = stimulus.jitter;
            let steps = model.scenarios[si].steps.len();
            for sti in 0..steps {
                let idx = tasks
                    .iter()
                    .position(|t| t.scenario == si && t.step == sti)
                    .expect("task exists");
                if sti > 0 {
                    let new_input = StandardEventModel {
                        period: stimulus.period,
                        jitter: accumulated_jitter,
                        min_distance: TimeValue::ZERO,
                    };
                    if new_input != tasks[idx].input {
                        tasks[idx].input = new_input;
                        changed = true;
                    }
                }
                // Best-case response is the WCET itself (no interference).
                let response_jitter = tasks[idx].response - tasks[idx].wcet;
                accumulated_jitter = accumulated_jitter + response_jitter;
            }
        }
        if !changed {
            return Ok((tasks, iteration + 1));
        }
    }
    Err(SymtaError::NoConvergence)
}

fn resource_names(model: &ArchitectureModel) -> Vec<String> {
    model
        .processors
        .iter()
        .map(|p| p.name.clone())
        .chain(model.buses.iter().map(|b| b.name.clone()))
        .collect()
}

fn resource_kind(model: &ArchitectureModel, resource: usize) -> ResourceKind {
    if resource < model.processors.len() {
        match model.processors[resource].policy {
            SchedulingPolicy::FixedPriorityPreemptive => ResourceKind::FixedPriorityPreemptive,
            SchedulingPolicy::FixedPriorityNonPreemptive | SchedulingPolicy::NonPreemptiveNd => {
                ResourceKind::FixedPriorityNonPreemptive
            }
        }
    } else {
        // Buses never preempt a transfer in progress.
        ResourceKind::FixedPriorityNonPreemptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_arch::model::{BusArbitration, EventModel, Scenario};

    fn simple_model(policy: SchedulingPolicy) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("symta-test");
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
    fn preemptive_high_priority_is_isolated() {
        let m = simple_model(SchedulingPolicy::FixedPriorityPreemptive);
        let hi = analyze_requirement_impl(&m, "hi-rt").unwrap();
        // Classic RTA: the highest-priority task's bound is its own WCET.
        assert_eq!(hi.wcrt_bound, TimeValue::millis(2));
        let lo = analyze_requirement_impl(&m, "lo-rt").unwrap();
        // The low-priority task suffers one preemption: 10 + 2 = 12 ms.
        assert_eq!(lo.wcrt_bound, TimeValue::millis(12));
    }

    #[test]
    fn non_preemptive_adds_blocking() {
        let m = simple_model(SchedulingPolicy::FixedPriorityNonPreemptive);
        let hi = analyze_requirement_impl(&m, "hi-rt").unwrap();
        // Blocking by the longest lower-priority task: 10 + 2 = 12 ms.
        assert_eq!(hi.wcrt_bound, TimeValue::millis(12));
    }

    #[test]
    fn bound_dominates_exact_wcrt() {
        // The SymTA/S bound must never be below the exact timed-automata WCRT.
        for policy in [
            SchedulingPolicy::FixedPriorityPreemptive,
            SchedulingPolicy::FixedPriorityNonPreemptive,
        ] {
            let m = simple_model(policy);
            for name in ["hi-rt", "lo-rt"] {
                let exact = tempo_arch::AnalysisDb::new(tempo_arch::AnalysisConfig::default())
                    .wcrt(&m, name)
                    .unwrap()
                    .wcrt
                    .unwrap();
                let bound = analyze_requirement_impl(&m, name).unwrap().wcrt_bound;
                assert!(
                    bound >= exact,
                    "{policy:?} {name}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn overload_is_detected() {
        let mut m = simple_model(SchedulingPolicy::FixedPriorityPreemptive);
        // Inflate the low-priority task until the CPU is overloaded.
        if let Step::Execute { instructions, .. } = &mut m.scenarios[1].steps[0] {
            *instructions = 60_000; // 60 ms every 50 ms
        }
        assert!(matches!(
            analyze_requirement_impl(&m, "lo-rt"),
            Err(SymtaError::Overload { .. })
        ));
    }

    #[test]
    fn unknown_requirement_is_reported() {
        let m = simple_model(SchedulingPolicy::FixedPriorityPreemptive);
        assert!(matches!(
            analyze_requirement_impl(&m, "nope"),
            Err(SymtaError::UnknownRequirement(_))
        ));
    }

    #[test]
    fn multi_hop_chain_accumulates_bounds() {
        let mut m = ArchitectureModel::new("chain");
        let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityPreemptive);
        let bus = m.add_bus("BUS", 8_000, BusArbitration::FixedPriority);
        let s = m.add_scenario(Scenario {
            name: "pipe".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(100),
            },
            priority: 0,
            steps: vec![
                Step::Execute {
                    operation: "a".into(),
                    instructions: 5_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: "m".into(),
                    bytes: 10,
                    over: bus,
                },
                Step::Execute {
                    operation: "b".into(),
                    instructions: 3_000,
                    on: cpu,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: "e2e".into(),
            scenario: s,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(2),
            deadline: TimeValue::millis(100),
        });
        m.add_requirement(Requirement {
            name: "tail".into(),
            scenario: s,
            from: MeasurePoint::AfterStep(1),
            to: MeasurePoint::AfterStep(2),
            deadline: TimeValue::millis(100),
        });
        let e2e = analyze_requirement_impl(&m, "e2e").unwrap();
        // 5 ms + 10 ms + 3 ms plus possible self-interference terms; at least
        // the sum of service times, and covering all three steps.
        assert!(e2e.wcrt_bound >= TimeValue::millis(18));
        assert_eq!(e2e.step_bounds.len(), 3);
        let tail = analyze_requirement_impl(&m, "tail").unwrap();
        assert_eq!(tail.step_bounds.len(), 1);
        assert!(tail.wcrt_bound < e2e.wcrt_bound);
        let all = analyze_all_impl(&m).unwrap();
        assert_eq!(all.len(), 2);
    }
}
