//! The architecture-level performance model: processors, buses, scenarios
//! (annotated sequence diagrams), event models and timeliness requirements.
//!
//! This is the "front-end" language of the paper: designers describe the
//! system as UML sequence diagrams augmented with performance data plus a
//! deployment diagram, and the [`crate::generator`] translates the result into
//! a network of timed automata automatically.

use crate::time::TimeValue;
use std::fmt;

/// Index of a processor in an [`ArchitectureModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessorId(pub usize);

/// Index of a bus in an [`ArchitectureModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BusId(pub usize);

/// Index of a scenario in an [`ArchitectureModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioId(pub usize);

/// Scheduling policy of a processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Non-deterministic, non-preemptive scheduling (the basic automaton of
    /// Fig. 4): any pending operation may be served next; service runs to
    /// completion.
    NonPreemptiveNd,
    /// Fixed-priority non-preemptive scheduling: the pending operation of the
    /// highest priority is served next; service runs to completion.
    FixedPriorityNonPreemptive,
    /// Fixed-priority preemptive scheduling (the automaton of Fig. 5): a
    /// higher-priority arrival interrupts the running lower-priority
    /// operation, whose remaining time is extended accordingly.
    FixedPriorityPreemptive,
}

/// Arbitration policy of a communication bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BusArbitration {
    /// Non-deterministic choice among pending messages; transfers are never
    /// preempted (the automaton of Fig. 6, resembling e.g. RS-485).
    FcfsNd,
    /// Fixed-priority selection among pending messages; transfers are never
    /// preempted (resembling CAN arbitration).
    FixedPriority,
    /// Time-division multiple access: the bus cycles through one slot of the
    /// given length per scenario that sends messages over it (in scenario
    /// order), and a message may only start while the *remaining* part of its
    /// scenario's slot still fits the whole transfer.  This is the TDMA
    /// template of Perathoner et al. that Section 3.2 of the paper points to
    /// for time-triggered protocols such as TTP or FlexRay static segments.
    ///
    /// Every message sent over a TDMA bus must fit within a single slot
    /// ([`ArchitectureModel::validate`] rejects the model otherwise); use
    /// [`crate::transform::fragment_transfers`] first when it does not.
    Tdma {
        /// Length of each scenario's slot.
        slot: TimeValue,
    },
}

/// A processing resource of the deployment diagram.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Processor {
    /// Name, e.g. `"MMI"`.
    pub name: String,
    /// Capacity in million instructions per second.
    pub mips: u64,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
}

/// A communication resource of the deployment diagram.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Bus {
    /// Name, e.g. `"BUS"`.
    pub name: String,
    /// Capacity in bits per second.
    pub bits_per_second: u64,
    /// Arbitration policy.
    pub arbitration: BusArbitration,
}

/// One step of a scenario (one lifeline activation or message of the sequence
/// diagram).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Execution of an operation on a processor.
    Execute {
        /// Operation name, e.g. `"AdjustVolume"`.
        operation: String,
        /// Worst-case execution time in instructions.
        instructions: u64,
        /// The processor the operation is deployed on.
        on: ProcessorId,
    },
    /// Transfer of a message over a bus.
    Transfer {
        /// Message name, e.g. `"SetVolume"`.
        message: String,
        /// Message size in bytes.
        bytes: u64,
        /// The bus the message travels over.
        over: BusId,
    },
}

impl Step {
    /// The name of the operation or message.
    pub fn name(&self) -> &str {
        match self {
            Step::Execute { operation, .. } => operation,
            Step::Transfer { message, .. } => message,
        }
    }
}

/// The event (arrival) model of a scenario's external stimulus — the five
/// models of Fig. 7 and Fig. 8.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventModel {
    /// Strictly periodic events with a known offset `F` for the first event
    /// (Fig. 7a); `offset = 0` models fully synchronous environments (the
    /// paper's `po, F = 0` column).
    PeriodicOffset {
        /// Period between events.
        period: TimeValue,
        /// Offset of the first event.
        offset: TimeValue,
    },
    /// Strictly periodic events with an unknown (arbitrary) offset (Fig. 7b);
    /// the paper's `pno` column.
    Periodic {
        /// Period between events.
        period: TimeValue,
    },
    /// Sporadic events with a minimal inter-arrival time (Fig. 7c); the
    /// paper's `sp` column.
    Sporadic {
        /// Minimal time between consecutive events.
        min_interarrival: TimeValue,
    },
    /// Periodic events with jitter `J ≤ P` (Fig. 7d, the Perathoner et al.
    /// template); the paper's `pj` column.
    PeriodicJitter {
        /// Period.
        period: TimeValue,
        /// Jitter (must not exceed the period for this variant).
        jitter: TimeValue,
    },
    /// Bursty events: periodic with jitter `J > P` and minimal separation `D`
    /// (Fig. 8); the paper's `bur` column.
    Burst {
        /// Period.
        period: TimeValue,
        /// Jitter (larger than the period).
        jitter: TimeValue,
        /// Minimal separation between any two events.
        min_separation: TimeValue,
    },
}

impl EventModel {
    /// The long-run average period of the stream (used by the analytic
    /// baselines and the simulator).
    pub fn period(&self) -> TimeValue {
        match self {
            EventModel::PeriodicOffset { period, .. }
            | EventModel::Periodic { period }
            | EventModel::PeriodicJitter { period, .. }
            | EventModel::Burst { period, .. } => *period,
            EventModel::Sporadic { min_interarrival } => *min_interarrival,
        }
    }

    /// The jitter of the stream (zero for strictly periodic / sporadic).
    pub fn jitter(&self) -> TimeValue {
        match self {
            EventModel::PeriodicJitter { jitter, .. } | EventModel::Burst { jitter, .. } => *jitter,
            _ => TimeValue::ZERO,
        }
    }

    /// The minimal separation between events (the period for periodic
    /// streams, `D` for bursts).
    pub fn min_separation(&self) -> TimeValue {
        match self {
            EventModel::PeriodicOffset { period, .. } | EventModel::Periodic { period } => *period,
            EventModel::Sporadic { min_interarrival } => *min_interarrival,
            EventModel::PeriodicJitter { period, jitter } => {
                if *jitter >= *period {
                    TimeValue::ZERO
                } else {
                    *period - *jitter
                }
            }
            EventModel::Burst { min_separation, .. } => *min_separation,
        }
    }

    /// Short mnemonic used in tables (`po`, `pno`, `sp`, `pj`, `bur`).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            EventModel::PeriodicOffset { .. } => "po",
            EventModel::Periodic { .. } => "pno",
            EventModel::Sporadic { .. } => "sp",
            EventModel::PeriodicJitter { .. } => "pj",
            EventModel::Burst { .. } => "bur",
        }
    }
}

/// A scenario: an external stimulus plus the chain of steps it triggers
/// (a UML sequence diagram annotated with performance data).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Name, e.g. `"ChangeVolume"`.
    pub name: String,
    /// Arrival model of the stimulus.
    pub stimulus: EventModel,
    /// Priority of the scenario's operations and messages; smaller values are
    /// more important (used by the fixed-priority policies).
    pub priority: u32,
    /// The processing/communication chain, in causal order.
    pub steps: Vec<Step>,
}

/// A point in a scenario between which a latency requirement is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MeasurePoint {
    /// The instant the external stimulus is generated.
    Stimulus,
    /// The completion instant of step `i` (0-based index into
    /// [`Scenario::steps`]).
    AfterStep(usize),
}

/// An end-to-end (or partial) latency requirement on a scenario.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Requirement {
    /// Name, e.g. `"Vol K2V"`.
    pub name: String,
    /// The scenario being measured.
    pub scenario: ScenarioId,
    /// Where the measurement starts.
    pub from: MeasurePoint,
    /// Where the measurement ends (completion of this step).
    pub to: MeasurePoint,
    /// The deadline the latency must stay below.
    pub deadline: TimeValue,
}

/// The complete architecture model handed to the analyses.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ArchitectureModel {
    /// Model name.
    pub name: String,
    /// Processing resources.
    pub processors: Vec<Processor>,
    /// Communication resources.
    pub buses: Vec<Bus>,
    /// Concurrently running scenarios.
    pub scenarios: Vec<Scenario>,
    /// Timeliness requirements.
    pub requirements: Vec<Requirement>,
}

/// Problems detected by [`ArchitectureModel::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// A step references a processor or bus that does not exist.
    UnknownResource {
        /// Scenario name.
        scenario: String,
        /// Step index.
        step: usize,
    },
    /// A requirement references a scenario or step that does not exist, or
    /// its measure points are ordered backwards.
    BadRequirement {
        /// Requirement name.
        requirement: String,
        /// Explanation.
        reason: String,
    },
    /// A scenario has no steps.
    EmptyScenario {
        /// Scenario name.
        scenario: String,
    },
    /// An event-model parameter is inconsistent (e.g. jitter larger than the
    /// period for [`EventModel::PeriodicJitter`]).
    BadEventModel {
        /// Scenario name.
        scenario: String,
        /// Explanation.
        reason: String,
    },
    /// A preemptive processor is used by more than two priority levels, which
    /// the Fig. 5 preemption pattern does not support.
    TooManyPriorityLevels {
        /// Processor name.
        processor: String,
    },
    /// A message sent over a TDMA bus does not fit within one slot.
    TdmaSlotTooShort {
        /// Bus name.
        bus: String,
        /// Message name.
        message: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownResource { scenario, step } => {
                write!(f, "step {step} of scenario `{scenario}` references an unknown resource")
            }
            ModelError::BadRequirement { requirement, reason } => {
                write!(f, "requirement `{requirement}` is invalid: {reason}")
            }
            ModelError::EmptyScenario { scenario } => {
                write!(f, "scenario `{scenario}` has no steps")
            }
            ModelError::BadEventModel { scenario, reason } => {
                write!(f, "event model of scenario `{scenario}` is invalid: {reason}")
            }
            ModelError::TooManyPriorityLevels { processor } => write!(
                f,
                "preemptive processor `{processor}` serves more than two priority levels; \
                 the Fig. 5 pattern supports at most two"
            ),
            ModelError::TdmaSlotTooShort { bus, message } => write!(
                f,
                "message `{message}` does not fit within one TDMA slot of bus `{bus}`; \
                 enlarge the slot or fragment the message first"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

impl ArchitectureModel {
    /// Creates an empty model with a name.
    pub fn new(name: impl Into<String>) -> ArchitectureModel {
        ArchitectureModel {
            name: name.into(),
            ..ArchitectureModel::default()
        }
    }

    /// Adds a processor and returns its id.
    pub fn add_processor(
        &mut self,
        name: impl Into<String>,
        mips: u64,
        policy: SchedulingPolicy,
    ) -> ProcessorId {
        self.processors.push(Processor {
            name: name.into(),
            mips,
            policy,
        });
        ProcessorId(self.processors.len() - 1)
    }

    /// Adds a bus and returns its id.
    pub fn add_bus(
        &mut self,
        name: impl Into<String>,
        bits_per_second: u64,
        arbitration: BusArbitration,
    ) -> BusId {
        self.buses.push(Bus {
            name: name.into(),
            bits_per_second,
            arbitration,
        });
        BusId(self.buses.len() - 1)
    }

    /// Adds a scenario and returns its id.
    pub fn add_scenario(&mut self, scenario: Scenario) -> ScenarioId {
        self.scenarios.push(scenario);
        ScenarioId(self.scenarios.len() - 1)
    }

    /// Adds a requirement.
    pub fn add_requirement(&mut self, requirement: Requirement) {
        self.requirements.push(requirement);
    }

    /// Looks up a requirement by name.
    pub fn requirement_by_name(&self, name: &str) -> Option<&Requirement> {
        self.requirements.iter().find(|r| r.name == name)
    }

    /// Looks up a scenario by name.
    pub fn scenario_by_name(&self, name: &str) -> Option<ScenarioId> {
        self.scenarios
            .iter()
            .position(|s| s.name == name)
            .map(ScenarioId)
    }

    /// The worst-case service time of a step (execution or transfer).
    pub fn step_service_time(&self, step: &Step) -> TimeValue {
        match step {
            Step::Execute {
                instructions, on, ..
            } => TimeValue::from_instructions(*instructions, self.processors[on.0].mips),
            Step::Transfer { bytes, over, .. } => {
                TimeValue::from_bytes(*bytes, self.buses[over.0].bits_per_second)
            }
        }
    }

    /// Every duration occurring in the model (service times, event-model
    /// parameters, deadlines); used to pick the quantization.
    pub fn all_durations(&self) -> Vec<TimeValue> {
        let mut out = Vec::new();
        for s in &self.scenarios {
            for step in &s.steps {
                out.push(self.step_service_time(step));
            }
            match &s.stimulus {
                EventModel::PeriodicOffset { period, offset } => {
                    out.push(*period);
                    out.push(*offset);
                }
                EventModel::Periodic { period } => out.push(*period),
                EventModel::Sporadic { min_interarrival } => out.push(*min_interarrival),
                EventModel::PeriodicJitter { period, jitter } => {
                    out.push(*period);
                    out.push(*jitter);
                }
                EventModel::Burst {
                    period,
                    jitter,
                    min_separation,
                } => {
                    out.push(*period);
                    out.push(*jitter);
                    out.push(*min_separation);
                }
            }
        }
        for r in &self.requirements {
            out.push(r.deadline);
        }
        for b in &self.buses {
            if let BusArbitration::Tdma { slot } = b.arbitration {
                out.push(slot);
            }
        }
        out
    }

    /// The scenarios that send at least one message over the given bus, in
    /// scenario order.  For a TDMA bus this is also the slot assignment: the
    /// `i`-th returned scenario owns the `i`-th slot of the cycle.
    pub fn bus_streams(&self, bus: BusId) -> Vec<ScenarioId> {
        self.scenarios
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.steps
                    .iter()
                    .any(|st| matches!(st, Step::Transfer { over, .. } if *over == bus))
            })
            .map(|(i, _)| ScenarioId(i))
            .collect()
    }

    /// Checks the internal consistency of the model.
    pub fn validate(&self) -> Result<(), ModelError> {
        for s in &self.scenarios {
            if s.steps.is_empty() {
                return Err(ModelError::EmptyScenario {
                    scenario: s.name.clone(),
                });
            }
            for (i, step) in s.steps.iter().enumerate() {
                let ok = match step {
                    Step::Execute { on, .. } => on.0 < self.processors.len(),
                    Step::Transfer { over, .. } => over.0 < self.buses.len(),
                };
                if !ok {
                    return Err(ModelError::UnknownResource {
                        scenario: s.name.clone(),
                        step: i,
                    });
                }
            }
            match &s.stimulus {
                EventModel::PeriodicJitter { period, jitter } => {
                    if jitter > period {
                        return Err(ModelError::BadEventModel {
                            scenario: s.name.clone(),
                            reason: "jitter exceeds period; use EventModel::Burst".into(),
                        });
                    }
                }
                EventModel::Burst { period, jitter, .. } => {
                    if jitter < period {
                        return Err(ModelError::BadEventModel {
                            scenario: s.name.clone(),
                            reason: "burst jitter must exceed the period; use PeriodicJitter".into(),
                        });
                    }
                }
                EventModel::PeriodicOffset { period, .. } | EventModel::Periodic { period } => {
                    if period.is_zero() {
                        return Err(ModelError::BadEventModel {
                            scenario: s.name.clone(),
                            reason: "period must be positive".into(),
                        });
                    }
                }
                EventModel::Sporadic { min_interarrival } => {
                    if min_interarrival.is_zero() {
                        return Err(ModelError::BadEventModel {
                            scenario: s.name.clone(),
                            reason: "minimal inter-arrival time must be positive".into(),
                        });
                    }
                }
            }
        }
        for r in &self.requirements {
            let Some(s) = self.scenarios.get(r.scenario.0) else {
                return Err(ModelError::BadRequirement {
                    requirement: r.name.clone(),
                    reason: "unknown scenario".into(),
                });
            };
            let to_idx = match r.to {
                MeasurePoint::AfterStep(i) => i,
                MeasurePoint::Stimulus => {
                    return Err(ModelError::BadRequirement {
                        requirement: r.name.clone(),
                        reason: "`to` must be the completion of a step".into(),
                    })
                }
            };
            if to_idx >= s.steps.len() {
                return Err(ModelError::BadRequirement {
                    requirement: r.name.clone(),
                    reason: format!("`to` step {to_idx} out of range"),
                });
            }
            if let MeasurePoint::AfterStep(from_idx) = r.from {
                if from_idx >= to_idx {
                    return Err(ModelError::BadRequirement {
                        requirement: r.name.clone(),
                        reason: "`from` step must precede `to` step".into(),
                    });
                }
            }
        }
        // Every message over a TDMA bus must fit within one slot.
        for (bid, b) in self.buses.iter().enumerate() {
            let BusArbitration::Tdma { slot } = b.arbitration else {
                continue;
            };
            for s in &self.scenarios {
                for step in &s.steps {
                    if let Step::Transfer { message, over, .. } = step {
                        if over.0 == bid && self.step_service_time(step) > slot {
                            return Err(ModelError::TdmaSlotTooShort {
                                bus: b.name.clone(),
                                message: message.clone(),
                            });
                        }
                    }
                }
            }
        }
        // Check the two-priority-level restriction of preemptive processors.
        for (pid, p) in self.processors.iter().enumerate() {
            if p.policy != SchedulingPolicy::FixedPriorityPreemptive {
                continue;
            }
            let mut levels: Vec<u32> = self
                .scenarios
                .iter()
                .filter(|s| {
                    s.steps.iter().any(
                        |st| matches!(st, Step::Execute { on, .. } if on.0 == pid),
                    )
                })
                .map(|s| s.priority)
                .collect();
            levels.sort_unstable();
            levels.dedup();
            if levels.len() > 2 {
                return Err(ModelError::TooManyPriorityLevels {
                    processor: p.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("tiny");
        let cpu = m.add_processor("CPU", 10, SchedulingPolicy::NonPreemptiveNd);
        let bus = m.add_bus("BUS", 8_000, BusArbitration::FcfsNd);
        let sid = m.add_scenario(Scenario {
            name: "S".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(10),
            },
            priority: 0,
            steps: vec![
                Step::Execute {
                    operation: "op".into(),
                    instructions: 10_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: "msg".into(),
                    bytes: 10,
                    over: bus,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: "e2e".into(),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(10),
        });
        m
    }

    #[test]
    fn valid_model_passes_and_computes_service_times() {
        let m = tiny_model();
        assert!(m.validate().is_ok());
        // 10_000 instr / 10 MIPS = 1 ms
        assert_eq!(
            m.step_service_time(&m.scenarios[0].steps[0]),
            TimeValue::millis(1)
        );
        // 10 bytes * 8 / 8000 bps = 10 ms
        assert_eq!(
            m.step_service_time(&m.scenarios[0].steps[1]),
            TimeValue::millis(10)
        );
        assert_eq!(m.all_durations().len(), 4);
        assert!(m.requirement_by_name("e2e").is_some());
        assert_eq!(m.scenario_by_name("S"), Some(ScenarioId(0)));
    }

    #[test]
    fn detects_unknown_resources_and_empty_scenarios() {
        let mut m = tiny_model();
        m.scenarios[0].steps.push(Step::Execute {
            operation: "x".into(),
            instructions: 1,
            on: ProcessorId(9),
        });
        assert!(matches!(m.validate(), Err(ModelError::UnknownResource { .. })));

        let mut m = tiny_model();
        m.scenarios[0].steps.clear();
        assert!(matches!(m.validate(), Err(ModelError::EmptyScenario { .. })));
    }

    #[test]
    fn detects_bad_requirements() {
        let mut m = tiny_model();
        m.requirements[0].to = MeasurePoint::AfterStep(9);
        assert!(matches!(m.validate(), Err(ModelError::BadRequirement { .. })));

        let mut m = tiny_model();
        m.requirements[0].from = MeasurePoint::AfterStep(1);
        m.requirements[0].to = MeasurePoint::AfterStep(0);
        assert!(matches!(m.validate(), Err(ModelError::BadRequirement { .. })));

        let mut m = tiny_model();
        m.requirements[0].to = MeasurePoint::Stimulus;
        assert!(matches!(m.validate(), Err(ModelError::BadRequirement { .. })));
    }

    #[test]
    fn detects_bad_event_models() {
        let mut m = tiny_model();
        m.scenarios[0].stimulus = EventModel::PeriodicJitter {
            period: TimeValue::millis(5),
            jitter: TimeValue::millis(7),
        };
        assert!(matches!(m.validate(), Err(ModelError::BadEventModel { .. })));

        let mut m = tiny_model();
        m.scenarios[0].stimulus = EventModel::Burst {
            period: TimeValue::millis(5),
            jitter: TimeValue::millis(2),
            min_separation: TimeValue::ZERO,
        };
        assert!(matches!(m.validate(), Err(ModelError::BadEventModel { .. })));

        let mut m = tiny_model();
        m.scenarios[0].stimulus = EventModel::Periodic {
            period: TimeValue::ZERO,
        };
        assert!(matches!(m.validate(), Err(ModelError::BadEventModel { .. })));
    }

    #[test]
    fn preemptive_processor_priority_level_limit() {
        let mut m = tiny_model();
        m.processors[0].policy = SchedulingPolicy::FixedPriorityPreemptive;
        // Two levels: fine.
        for (i, prio) in [(0u32, 1u32), (1, 2)] {
            let _ = i;
            let cpu = ProcessorId(0);
            m.add_scenario(Scenario {
                name: format!("extra{prio}"),
                stimulus: EventModel::Periodic {
                    period: TimeValue::millis(50),
                },
                priority: prio,
                steps: vec![Step::Execute {
                    operation: format!("op{prio}"),
                    instructions: 100,
                    on: cpu,
                }],
            });
        }
        // priorities now {0, 1, 2} on a preemptive processor -> rejected.
        assert!(matches!(
            m.validate(),
            Err(ModelError::TooManyPriorityLevels { .. })
        ));
    }

    #[test]
    fn event_model_helpers() {
        let p = TimeValue::millis(10);
        let j = TimeValue::millis(4);
        assert_eq!(EventModel::Periodic { period: p }.period(), p);
        assert_eq!(EventModel::Periodic { period: p }.mnemonic(), "pno");
        assert_eq!(
            EventModel::PeriodicJitter { period: p, jitter: j }.min_separation(),
            TimeValue::millis(6)
        );
        assert_eq!(
            EventModel::Burst {
                period: p,
                jitter: p.scale(2),
                min_separation: TimeValue::millis(1)
            }
            .min_separation(),
            TimeValue::millis(1)
        );
        assert_eq!(
            EventModel::Sporadic { min_interarrival: p }.jitter(),
            TimeValue::ZERO
        );
        assert_eq!(
            EventModel::PeriodicOffset { period: p, offset: TimeValue::ZERO }.mnemonic(),
            "po"
        );
    }
}
