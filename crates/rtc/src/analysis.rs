//! End-to-end MPA analysis of an architecture model.

use crate::component::GreedyProcessingComponent;
use crate::curves::{ArrivalCurve, ServiceCurve};
use tempo_arch::engine::Estimate;
use tempo_arch::model::{
    ArchitectureModel, MeasurePoint, SchedulingPolicy, Step,
};
use tempo_arch::time::TimeValue;

/// Result of an MPA end-to-end analysis of one requirement.
#[derive(Clone, Debug)]
pub struct RtcReport {
    /// Requirement name.
    pub requirement: String,
    /// Conservative upper bound on the end-to-end worst-case response time.
    pub wcrt_bound: TimeValue,
    /// Per-step delay bounds (µs), in step order.
    pub step_delays_us: Vec<f64>,
    /// Maximum backlog (buffered events) seen at any step.
    pub max_backlog: f64,
}

impl RtcReport {
    /// The bound as a typed [`Estimate`]: MPA always produces conservative
    /// upper bounds.
    pub fn estimate(&self) -> Estimate {
        Estimate::UpperBound(self.wcrt_bound)
    }

    /// The bound in milliseconds (routed through
    /// [`Estimate::as_millis_f64`], the shared conversion path).
    pub fn wcrt_ms(&self) -> f64 {
        self.estimate().as_millis_f64()
    }
}

impl std::fmt::Display for RtcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: WCRT {}", self.requirement, self.estimate())
    }
}

/// Errors of the MPA analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum RtcError {
    /// The architecture model is invalid.
    Model(String),
    /// A requirement name could not be resolved.
    UnknownRequirement(String),
    /// A resource is overloaded; no finite delay bound exists.
    Overload {
        /// Index of the scenario step whose component diverged.
        step: usize,
    },
}

impl std::fmt::Display for RtcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtcError::Model(m) => write!(f, "invalid model: {m}"),
            RtcError::UnknownRequirement(n) => write!(f, "unknown requirement `{n}`"),
            RtcError::Overload { step } => {
                write!(f, "step {step} is overloaded; no finite delay bound exists")
            }
        }
    }
}

impl std::error::Error for RtcError {}

/// Resource index: processors first, then buses.
fn resource_of(model: &ArchitectureModel, step: &Step) -> usize {
    match step {
        Step::Execute { on, .. } => on.0,
        Step::Transfer { over, .. } => model.processors.len() + over.0,
    }
}

fn is_preemptive(model: &ArchitectureModel, resource: usize) -> bool {
    if resource < model.processors.len() {
        model.processors[resource].policy == SchedulingPolicy::FixedPriorityPreemptive
    } else {
        false
    }
}

/// Per-step arrival curves, propagated along every scenario chain with the
/// component delay bounds, iterated to a (conservative) fixed point.
fn propagate_arrivals(
    model: &ArchitectureModel,
) -> Result<Vec<Vec<(ArrivalCurve, f64)>>, RtcError> {
    // arrivals[s][k] = (input arrival curve of step k of scenario s, delay of that step)
    let mut arrivals: Vec<Vec<(ArrivalCurve, f64)>> = model
        .scenarios
        .iter()
        .map(|s| {
            s.steps
                .iter()
                .map(|_| (ArrivalCurve::from_event_model(&s.stimulus), 0.0))
                .collect()
        })
        .collect();

    for _round in 0..16 {
        let mut changed = false;
        for (si, s) in model.scenarios.iter().enumerate() {
            for (ki, step) in s.steps.iter().enumerate() {
                let delay = step_delay(model, &arrivals, si, ki)
                    .ok_or(RtcError::Overload { step: ki })?;
                if (delay - arrivals[si][ki].1).abs() > 0.5 {
                    arrivals[si][ki].1 = delay;
                    changed = true;
                }
                // The next step's input is this step's output.
                if ki + 1 < s.steps.len() {
                    let out = arrivals[si][ki].0.with_additional_jitter(delay);
                    if (out.jitter - arrivals[si][ki + 1].0.jitter).abs() > 0.5 {
                        arrivals[si][ki + 1].0 = out;
                        changed = true;
                    }
                }
                let _ = step;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(arrivals)
}

/// Builds the greedy processing component of one step given the current
/// arrival-curve estimates, and returns its delay bound (µs).
fn step_delay(
    model: &ArchitectureModel,
    arrivals: &[Vec<(ArrivalCurve, f64)>],
    scenario: usize,
    step_idx: usize,
) -> Option<f64> {
    let step = &model.scenarios[scenario].steps[step_idx];
    let resource = resource_of(model, step);
    let priority = model.scenarios[scenario].priority;
    let wcet = model.step_service_time(step).as_micros_f64();

    // Remaining service after all strictly-higher or equal-priority load from
    // *other* steps on the same resource (the interval domain cannot exploit
    // phase relations, so same-scenario steps also interfere — this is what
    // makes MPA conservative).
    let mut service = ServiceCurve::Full;
    let mut blocking: f64 = 0.0;
    for (osi, os) in model.scenarios.iter().enumerate() {
        for (oki, ostep) in os.steps.iter().enumerate() {
            if osi == scenario && oki == step_idx {
                continue;
            }
            if resource_of(model, ostep) != resource {
                continue;
            }
            let owcet = model.step_service_time(ostep).as_micros_f64();
            if os.priority <= priority {
                service = service.minus(arrivals[osi][oki].0.clone(), owcet);
            } else if !is_preemptive(model, resource) {
                blocking = blocking.max(owcet);
            }
        }
    }
    GreedyProcessingComponent::new(arrivals[scenario][step_idx].0.clone(), wcet, service)
        .with_blocking(blocking)
        .delay_bound_us()
}

/// Analyzes one requirement and returns the MPA end-to-end bound; the body
/// behind [`RtcEngine`](crate::RtcEngine), which answers the same query with
/// typed estimates through the `tempo_arch::engine::Engine` seam.
pub(crate) fn analyze_requirement_impl(
    model: &ArchitectureModel,
    requirement_name: &str,
) -> Result<RtcReport, RtcError> {
    model.validate().map_err(|e| RtcError::Model(e.to_string()))?;
    let req = model
        .requirement_by_name(requirement_name)
        .ok_or_else(|| RtcError::UnknownRequirement(requirement_name.to_string()))?;
    let arrivals = propagate_arrivals(model)?;
    let si = req.scenario.0;
    let last = match req.to {
        MeasurePoint::AfterStep(i) => i,
        MeasurePoint::Stimulus => 0,
    };
    let first = match req.from {
        MeasurePoint::Stimulus => 0,
        MeasurePoint::AfterStep(i) => (i + 1).min(last),
    };
    let mut step_delays_us = Vec::new();
    let mut max_backlog: f64 = 0.0;
    for (k, arrival) in arrivals[si].iter().enumerate().take(last + 1).skip(first) {
        step_delays_us.push(arrival.1);
        let step = &model.scenarios[si].steps[k];
        let wcet = model.step_service_time(step).as_micros_f64();
        let gpc = GreedyProcessingComponent::new(arrival.0.clone(), wcet, ServiceCurve::Full);
        if let Some(b) = gpc.backlog_bound() {
            max_backlog = max_backlog.max(b);
        }
    }
    let total_us: f64 = step_delays_us.iter().sum();
    Ok(RtcReport {
        requirement: req.name.clone(),
        wcrt_bound: TimeValue::ratio_us((total_us.ceil() as i128).max(0), 1),
        step_delays_us,
        max_backlog,
    })
}

/// Analyzes every requirement of the model; the body behind
/// [`RtcEngine`](crate::RtcEngine)'s `Query::WcrtAll`.
pub(crate) fn analyze_all_impl(model: &ArchitectureModel) -> Result<Vec<RtcReport>, RtcError> {
    model
        .requirements
        .iter()
        .map(|r| analyze_requirement_impl(model, &r.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_arch::model::{EventModel, Requirement, Scenario};

    fn two_task_model(policy: SchedulingPolicy) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("rtc-test");
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
    fn bounds_dominate_exact_wcrt() {
        for policy in [
            SchedulingPolicy::FixedPriorityPreemptive,
            SchedulingPolicy::FixedPriorityNonPreemptive,
        ] {
            let m = two_task_model(policy);
            for name in ["hi-rt", "lo-rt"] {
                let exact = tempo_arch::AnalysisDb::new(tempo_arch::AnalysisConfig::default())
                    .wcrt(&m, name)
                    .unwrap()
                    .wcrt
                    .unwrap()
                    .as_millis_f64();
                let bound = analyze_requirement_impl(&m, name).unwrap().wcrt_ms();
                assert!(
                    bound + 1e-6 >= exact,
                    "{policy:?} {name}: MPA bound {bound} below exact {exact}"
                );
            }
        }
    }

    #[test]
    fn preemptive_high_priority_bound_close_to_wcet() {
        let m = two_task_model(SchedulingPolicy::FixedPriorityPreemptive);
        let hi = analyze_requirement_impl(&m, "hi-rt").unwrap();
        assert!((hi.wcrt_ms() - 2.0).abs() < 0.1, "{}", hi.wcrt_ms());
        let lo = analyze_requirement_impl(&m, "lo-rt").unwrap();
        assert!(lo.wcrt_ms() >= 12.0 - 0.1);
    }

    #[test]
    fn non_preemptive_blocking_included() {
        let m = two_task_model(SchedulingPolicy::FixedPriorityNonPreemptive);
        let hi = analyze_requirement_impl(&m, "hi-rt").unwrap();
        assert!(hi.wcrt_ms() >= 12.0 - 0.1, "{}", hi.wcrt_ms());
    }

    #[test]
    fn overload_detected() {
        let mut m = two_task_model(SchedulingPolicy::FixedPriorityPreemptive);
        if let Step::Execute { instructions, .. } = &mut m.scenarios[0].steps[0] {
            *instructions = 25_000; // 25 ms every 20 ms
        }
        assert!(matches!(
            analyze_requirement_impl(&m, "lo-rt"),
            Err(RtcError::Overload { .. })
        ));
    }

    #[test]
    fn unknown_requirement() {
        let m = two_task_model(SchedulingPolicy::FixedPriorityPreemptive);
        assert!(matches!(
            analyze_requirement_impl(&m, "nope"),
            Err(RtcError::UnknownRequirement(_))
        ));
        assert_eq!(analyze_all_impl(&m).unwrap().len(), 2);
    }

    #[test]
    fn burstier_input_gives_larger_bound() {
        let mut periodic = two_task_model(SchedulingPolicy::FixedPriorityPreemptive);
        let mut bursty = periodic.clone();
        bursty.scenarios[1].stimulus = EventModel::Burst {
            period: TimeValue::millis(50),
            jitter: TimeValue::millis(100),
            min_separation: TimeValue::millis(1),
        };
        periodic.scenarios[1].stimulus = EventModel::Periodic {
            period: TimeValue::millis(50),
        };
        let p = analyze_requirement_impl(&periodic, "lo-rt").unwrap().wcrt_ms();
        let b = analyze_requirement_impl(&bursty, "lo-rt").unwrap().wcrt_ms();
        assert!(b >= p, "burst bound {b} < periodic bound {p}");
    }
}
