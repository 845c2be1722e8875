//! The analysis driver: generate the timed-automata network for a requirement
//! and extract its worst-case response time with the model checker.

use crate::engine::Estimate;
use crate::generator::{generate, GeneratedModel, GeneratorOptions};
use crate::model::{ArchitectureModel, ModelError, Requirement};
use crate::time::TimeValue;
use std::fmt;
use tempo_check::{CheckError, ExplorationStats, Explorer, SearchOptions, TargetSpec};
use tempo_ta::{EvalError, System};

/// The kind of named model entity a reference failed to resolve to — used by
/// [`ArchError::UnknownEntity`] so callers (and error messages) can tell a
/// misspelled processor from a misspelled bus or scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A [`Processor`](crate::model::Processor) name.
    Processor,
    /// A [`Bus`](crate::model::Bus) name.
    Bus,
    /// A [`Scenario`](crate::model::Scenario) name.
    Scenario,
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EntityKind::Processor => "processor",
            EntityKind::Bus => "bus",
            EntityKind::Scenario => "scenario",
        })
    }
}

/// Errors of the analysis layer.
#[derive(Debug)]
pub enum ArchError {
    /// The architecture model itself is inconsistent.
    Model(ModelError),
    /// The model checker rejected or failed on the generated network.
    Check(CheckError),
    /// A requirement name could not be resolved.
    UnknownRequirement {
        /// The requested name.
        name: String,
    },
    /// A named processor, bus or scenario could not be resolved (e.g. a sweep
    /// axis targeting an entity the model does not contain).
    UnknownEntity {
        /// What kind of entity the name was expected to resolve to.
        kind: EntityKind,
        /// The requested name.
        name: String,
    },
    /// A bounded variable of the generated network left its declared range
    /// during exploration: an event queue counter (`q_…`) outgrew the queue
    /// capacity, or another counter such as a preemption accumulator
    /// (`D_…`) outgrew the bound the generator gave it.  Either the bound is
    /// too small or a resource is overloaded.
    QueueOverflow {
        /// The message, naming the variable by its declared name.
        detail: String,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::Model(e) => write!(f, "invalid architecture model: {e}"),
            ArchError::Check(e) => write!(f, "model checking failed: {e}"),
            ArchError::UnknownRequirement { name } => {
                write!(f, "unknown requirement `{name}`")
            }
            ArchError::UnknownEntity { kind, name } => {
                write!(f, "unknown {kind} `{name}`")
            }
            ArchError::QueueOverflow { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for ArchError {}

impl From<ModelError> for ArchError {
    fn from(e: ModelError) -> Self {
        ArchError::Model(e)
    }
}

impl ArchError {
    /// Maps a checker error raised while exploring `sys`: a variable leaving
    /// its declared range becomes [`ArchError::QueueOverflow`], named by its
    /// declaration in `sys`; every other error stays [`ArchError::Check`].
    pub(crate) fn from_check(e: CheckError, sys: &System) -> ArchError {
        match e {
            CheckError::Eval(EvalError::OutOfRange {
                var, value, max, ..
            }) => {
                let name = &sys.vars[var.index()].name;
                let detail = if name.starts_with("q_") {
                    format!(
                        "event queue {name} overflowed (reached {value}, max {max}); increase \
                         the queue capacity or check whether the resource is overloaded"
                    )
                } else {
                    format!(
                        "variable {name} left its declared range (reached {value}, max {max}); \
                         check whether the resource is overloaded"
                    )
                };
                ArchError::QueueOverflow { detail }
            }
            e => ArchError::Check(e),
        }
    }
}

/// Configuration of a WCRT analysis.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Generator options (queue capacities).
    pub generator: GeneratorOptions,
    /// Model-checker search options.
    pub search: SearchOptions,
    /// Initial extrapolation cap for the observer clock, as a multiple of the
    /// requirement deadline.
    pub initial_cap_factor: i64,
    /// Hard upper bound on the extrapolation cap, as a multiple of the
    /// deadline; if the WCRT exceeds this, only a lower bound is reported.
    pub max_cap_factor: i64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            generator: GeneratorOptions::default(),
            search: SearchOptions::default(),
            initial_cap_factor: 2,
            max_cap_factor: 64,
        }
    }
}

/// The result of a WCRT analysis of one requirement.
#[derive(Clone, Debug)]
pub struct WcrtReport {
    /// Requirement name.
    pub requirement: String,
    /// Exact worst-case response time, if it could be established.
    pub wcrt: Option<TimeValue>,
    /// A lower bound on the WCRT when only a bound is known (cap exceeded or
    /// truncated search).
    pub lower_bound: Option<TimeValue>,
    /// The deadline of the requirement.
    pub deadline: TimeValue,
    /// `Some(true)` iff the WCRT is known and meets the deadline,
    /// `Some(false)` iff it is known (or bounded from below) to violate it,
    /// `None` if undecided.
    pub meets_deadline: Option<bool>,
    /// Statistics of the (last) exploration.
    pub stats: ExplorationStats,
}

impl WcrtReport {
    /// The WCRT as a typed [`Estimate`]: exact when the analysis completed,
    /// a lower bound when the search was truncated (state or wall-clock
    /// budget) or ran into the extrapolation cap.  A requirement whose
    /// response was never observed degrades to the trivial lower bound 0.
    pub fn estimate(&self) -> Estimate {
        match (self.wcrt, self.lower_bound) {
            (Some(w), _) => Estimate::Exact(w),
            (None, Some(lb)) => Estimate::LowerBound(lb),
            (None, None) => Estimate::LowerBound(TimeValue::ZERO),
        }
    }

    /// The WCRT in milliseconds, if exact (routed through
    /// [`Estimate::exact_millis`], the shared conversion path).
    pub fn wcrt_ms(&self) -> Option<f64> {
        self.estimate().exact_millis()
    }
}

impl fmt::Display for WcrtReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.wcrt.is_none() && self.lower_bound.is_none() {
            return write!(f, "{}: requirement never exercised", self.requirement);
        }
        write!(
            f,
            "{}: WCRT {} (deadline {})",
            self.requirement,
            self.estimate(),
            self.deadline
        )
    }
}

/// Runs the WCRT extraction on an already generated model.
pub fn analyze_generated(
    generated: &GeneratedModel,
    req: &Requirement,
    cfg: &AnalysisConfig,
) -> Result<WcrtReport, ArchError> {
    let observer = generated
        .observer
        .as_ref()
        .expect("generated model has an observer for the measured requirement");
    let check = |e| ArchError::from_check(e, &generated.system);
    let explorer = Explorer::new(&generated.system, cfg.search.clone()).map_err(check)?;
    let target = TargetSpec::location(
        &generated.system,
        &observer.automaton,
        &observer.seen_location,
    )
    .map_err(check)?;
    let deadline_ticks = generated.quantizer.to_ticks(req.deadline).max(1);
    let initial_cap = deadline_ticks.saturating_mul(cfg.initial_cap_factor.max(1));
    let max_cap = deadline_ticks.saturating_mul(cfg.max_cap_factor.max(cfg.initial_cap_factor));
    let report = explorer
        .sup_clock_at_auto(&target, observer.clock, initial_cap, max_cap)
        .map_err(check)?;
    let quantizer = &generated.quantizer;
    let (wcrt, lower_bound) = if report.stats.truncated {
        // The exploration was cut short (bounded "structured testing" in the
        // sense of Section 4, or an expired wall-clock budget): the observed
        // supremum is only a lower bound.
        (
            None,
            report
                .sup
                .and_then(|b| b.finite_constant())
                .map(|t| quantizer.from_ticks(t)),
        )
    } else if report.cap_hit {
        (None, Some(quantizer.from_ticks(report.cap)))
    } else {
        (
            report
                .sup
                .and_then(|b| b.finite_constant())
                .map(|t| quantizer.from_ticks(t)),
            None,
        )
    };
    let meets_deadline = match (wcrt, lower_bound) {
        (Some(w), _) => Some(w < req.deadline),
        (None, Some(lb)) if lb >= req.deadline => Some(false),
        _ => None,
    };
    Ok(WcrtReport {
        requirement: req.name.clone(),
        wcrt,
        lower_bound,
        deadline: req.deadline,
        meets_deadline,
        stats: report.stats,
    })
}

/// Reproduces the paper's Property 1 procedure (binary search over `C`) for a
/// requirement; mainly used to cross-check the supremum method behind
/// [`AnalysisDb::wcrt`](crate::incremental::AnalysisDb::wcrt) and to report
/// the number of verification runs the manual method needs.
pub fn analyze_requirement_binary_search(
    model: &ArchitectureModel,
    requirement_name: &str,
    cfg: &AnalysisConfig,
) -> Result<WcrtReport, ArchError> {
    let req = model
        .requirement_by_name(requirement_name)
        .ok_or_else(|| ArchError::UnknownRequirement {
            name: requirement_name.to_string(),
        })?
        .clone();
    let generated = generate(model, Some(&req), &cfg.generator)?;
    let observer = generated.observer.as_ref().expect("observer present");
    let check = |e| ArchError::from_check(e, &generated.system);
    let explorer = Explorer::new(&generated.system, cfg.search.clone()).map_err(check)?;
    let target = TargetSpec::location(
        &generated.system,
        &observer.automaton,
        &observer.seen_location,
    )
    .map_err(check)?;
    let deadline_ticks = generated.quantizer.to_ticks(req.deadline).max(1);
    let hi = deadline_ticks.saturating_mul(cfg.max_cap_factor.max(2));
    let bs = explorer
        .binary_search_wcrt(&target, observer.clock, 0, hi)
        .map_err(check)?;
    let wcrt = generated.quantizer.from_ticks(bs.wcrt.max(0));
    Ok(WcrtReport {
        requirement: req.name.clone(),
        wcrt: Some(wcrt),
        lower_bound: None,
        deadline: req.deadline,
        meets_deadline: Some(wcrt < req.deadline),
        stats: bs.last_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::AnalysisDb;
    use crate::model::{
        EventModel, MeasurePoint, Scenario, SchedulingPolicy, Step,
    };

    /// One-shot WCRT through the engine layer (what the dropped
    /// `analyze_requirement` shim wrapped).
    fn wcrt(m: &ArchitectureModel, name: &str) -> Result<WcrtReport, ArchError> {
        AnalysisDb::new(AnalysisConfig::default()).wcrt(m, name)
    }

    /// One-shot queue-bound check through the engine layer (what the dropped
    /// `check_queues_bounded` shim wrapped).
    fn queues_bounded(m: &ArchitectureModel) -> Result<(), ArchError> {
        AnalysisDb::new(AnalysisConfig::default())
            .queue_check(m)
            .map(|_| ())
    }

    /// A single periodic task on one processor: WCRT equals its execution
    /// time when the utilisation is low.
    fn single_task_model(period_ms: i128, instructions: u64) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("single");
        let cpu = m.add_processor("CPU", 1, SchedulingPolicy::NonPreemptiveNd);
        let sid = m.add_scenario(Scenario {
            name: "task".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(period_ms),
            },
            priority: 0,
            steps: vec![Step::Execute {
                operation: "work".into(),
                instructions,
                on: cpu,
            }],
        });
        m.add_requirement(crate::model::Requirement {
            name: "rt".into(),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(period_ms),
        });
        m
    }

    #[test]
    fn isolated_task_wcrt_equals_wcet() {
        // 2000 instructions at 1 MIPS = 2 ms, period 10 ms.
        let m = single_task_model(10, 2_000);
        let report = wcrt(&m, "rt").unwrap();
        assert_eq!(report.wcrt, Some(TimeValue::millis(2)));
        assert_eq!(report.meets_deadline, Some(true));
        assert!(report.wcrt_ms().unwrap() > 1.9 && report.wcrt_ms().unwrap() < 2.1);
    }

    #[test]
    fn binary_search_matches_sup_method() {
        let m = single_task_model(10, 2_000);
        let cfg = AnalysisConfig::default();
        let sup = wcrt(&m, "rt").unwrap();
        let bs = analyze_requirement_binary_search(&m, "rt", &cfg).unwrap();
        assert_eq!(sup.wcrt, bs.wcrt);
    }

    #[test]
    fn overloaded_resource_reports_queue_overflow() {
        // 20 ms of work every 10 ms: the queue must grow without bound.
        let m = single_task_model(10, 20_000);
        let err = wcrt(&m, "rt").unwrap_err();
        assert!(matches!(err, ArchError::QueueOverflow { .. }), "{err}");
        assert!(err.to_string().starts_with("event queue q_task_"), "{err}");
        assert!(queues_bounded(&m).is_err());
        // The healthy variant passes the queue check.
        let ok = single_task_model(10, 2_000);
        assert!(queues_bounded(&ok).is_ok());
    }

    /// A sporadic 1 ms task every ≥ 2 ms preempts a 10 ms task more often
    /// than the queue capacity the preemption accumulator `D_CPU` is sized
    /// for (10 + 8 · 1 ms).  The error names `D_CPU`, not a queue.
    #[test]
    fn preemption_accumulator_overflow_names_the_variable() {
        let mut m = ArchitectureModel::new("preempted");
        let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityPreemptive);
        let task = |name: &str, stimulus, priority, instructions| Scenario {
            name: name.into(),
            stimulus,
            priority,
            steps: vec![Step::Execute {
                operation: name.into(),
                instructions,
                on: cpu,
            }],
        };
        let min_interarrival = TimeValue::millis(2);
        m.add_scenario(task(
            "hi",
            EventModel::Sporadic { min_interarrival },
            0,
            1_000,
        ));
        let period = TimeValue::millis(100);
        let lo = m.add_scenario(task("lo", EventModel::Periodic { period }, 1, 10_000));
        m.add_requirement(crate::model::Requirement {
            name: "lo-rt".into(),
            scenario: lo,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: period,
        });
        let errors = [
            wcrt(&m, "lo-rt").unwrap_err(),
            queues_bounded(&m).unwrap_err(),
        ];
        for err in errors {
            assert!(matches!(err, ArchError::QueueOverflow { .. }), "{err}");
            let message = err.to_string();
            assert!(message.contains("D_CPU"), "{message}");
            assert!(!message.contains("queue"), "{message}");
        }
    }

    #[test]
    fn unknown_requirement_is_reported() {
        let m = single_task_model(10, 2_000);
        assert!(matches!(
            wcrt(&m, "nope"),
            Err(ArchError::UnknownRequirement { .. })
        ));
    }

    /// Two tasks sharing a processor: the low-priority task's WCRT includes
    /// interference, and preemptive vs. non-preemptive scheduling changes the
    /// high-priority task's WCRT.
    fn two_task_model(policy: SchedulingPolicy) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("two");
        let cpu = m.add_processor("CPU", 1, policy);
        let hi = m.add_scenario(Scenario {
            name: "hi".into(),
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(20),
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
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(50),
            },
            priority: 1,
            steps: vec![Step::Execute {
                operation: "long".into(),
                instructions: 10_000,
                on: cpu,
            }],
        });
        m.add_requirement(crate::model::Requirement {
            name: "hi-rt".into(),
            scenario: hi,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(20),
        });
        m.add_requirement(crate::model::Requirement {
            name: "lo-rt".into(),
            scenario: lo,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(50),
        });
        m
    }

    #[test]
    fn preemption_shortens_high_priority_response() {
        // Non-preemptive: hi can be blocked by the full 10 ms of lo => 12 ms.
        let np = two_task_model(SchedulingPolicy::FixedPriorityNonPreemptive);
        let hi_np = wcrt(&np, "hi-rt").unwrap();
        assert_eq!(hi_np.wcrt, Some(TimeValue::millis(12)));
        // Preemptive: hi interrupts lo and only ever waits for itself => 2 ms.
        let pre = two_task_model(SchedulingPolicy::FixedPriorityPreemptive);
        let hi_pre = wcrt(&pre, "hi-rt").unwrap();
        assert_eq!(hi_pre.wcrt, Some(TimeValue::millis(2)));
        // The low-priority task pays for the preemption: its WCRT under
        // preemption is at least as large as under non-preemptive scheduling.
        let lo_np = wcrt(&np, "lo-rt").unwrap();
        let lo_pre = wcrt(&pre, "lo-rt").unwrap();
        assert!(lo_pre.wcrt.unwrap() >= lo_np.wcrt.unwrap());
    }

    #[test]
    fn analyze_all_covers_every_requirement() {
        let m = two_task_model(SchedulingPolicy::FixedPriorityNonPreemptive);
        // One dedicated network and one report with its own statistics per
        // requirement (the dropped `analyze_all` contract).
        let reports = AnalysisDb::new(AnalysisConfig::default()).wcrt_all(&m).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.wcrt.is_some()));
        assert!(reports.iter().all(|r| r.meets_deadline == Some(true)));
    }
}
