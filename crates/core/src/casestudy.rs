//! The in-car radio navigation case study (Section 2 of the paper).
//!
//! Three applications run concurrently on a distributed architecture of three
//! processors (MMI, RAD, NAV) connected by a single serial bus:
//!
//! * **ChangeVolume** (Fig. 2): the user turns the volume knob (at most 32
//!   key presses per second); the MMI handles the key press, the radio adjusts
//!   the volume (audible change) and the MMI updates the screen (visual
//!   change).  Requirements: key-press-to-visual (K2V) < 200 ms and
//!   audible-to-visual (A2V) < 50 ms; the key-press-to-audible (K2A) delay is
//!   also measured in Table 1.
//! * **AddressLookup**: the user enters a destination address; the MMI handles
//!   the key press, the navigation subsystem performs a database lookup and
//!   the MMI shows the result.
//! * **HandleTMC** (Fig. 3): the radio receives RDS TMC traffic messages (300
//!   per 15 minutes, i.e. one every 3 s on average), the navigation subsystem
//!   decodes them against the map database and relevant messages are shown on
//!   the screen.  Requirement: TMC delay < 1 s for urgent messages.
//!
//! The deployment parameters (processor MIPS ratings, bus rate) are not
//! legible from the paper's scanned Figure 1, so they are taken from the
//! companion Modular-Performance-Analysis case study (Wandeler, Thiele,
//! Verhoef, Lieverse, ISoLA 2004) that the paper explicitly builds on:
//! MMI 22 MIPS, RAD 11 MIPS, NAV 113 MIPS, bus 72 kbit/s.  Operation WCETs
//! and message sizes come from the sequence diagrams reproduced in the paper.
//! Reproduced WCRTs can therefore differ from the paper's Table 1 values.

use crate::model::{
    ArchitectureModel, BusArbitration, EventModel, MeasurePoint, Requirement, Scenario,
    SchedulingPolicy, Step,
};
use crate::time::TimeValue;

/// Which pair of scenarios runs concurrently (the paper analyses these two
/// combinations; Table 1 contains rows for both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioCombo {
    /// ChangeVolume + HandleTMC.
    ChangeVolumeWithTmc,
    /// AddressLookup + HandleTMC.
    AddressLookupWithTmc,
}

/// The five event-model columns of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventModelColumn {
    /// Strictly periodic, offset 0 for all streams (`po, F = 0`).
    PeriodicOffsetZero,
    /// Strictly periodic, unknown offset for all streams (`pno`).
    PeriodicUnknownOffset,
    /// Sporadic streams (`sp`).
    Sporadic,
    /// Periodic with jitter `J = P` for the radio station, sporadic others (`pj`).
    PeriodicJitter,
    /// Bursty radio station stream (`J = 2P`, `D = 0`), sporadic others (`bur`).
    Burst,
}

impl EventModelColumn {
    /// All five columns in Table 1 order.
    pub fn all() -> [EventModelColumn; 5] {
        [
            EventModelColumn::PeriodicOffsetZero,
            EventModelColumn::PeriodicUnknownOffset,
            EventModelColumn::Sporadic,
            EventModelColumn::PeriodicJitter,
            EventModelColumn::Burst,
        ]
    }

    /// The column header used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            EventModelColumn::PeriodicOffsetZero => "po (F = 0)",
            EventModelColumn::PeriodicUnknownOffset => "pno",
            EventModelColumn::Sporadic => "sp",
            EventModelColumn::PeriodicJitter => "pj (J = P)",
            EventModelColumn::Burst => "bur (J = 2P, D = 0)",
        }
    }
}

/// Deployment and workload parameters of the case study; the defaults are the
/// values described in the module documentation, and the constructor functions
/// allow sensitivity experiments (e.g. the ablation benches).
#[derive(Clone, Debug, PartialEq)]
pub struct CaseStudyParams {
    /// MMI processor capacity (MIPS).
    pub mmi_mips: u64,
    /// Radio processor capacity (MIPS).
    pub rad_mips: u64,
    /// Navigation processor capacity (MIPS).
    pub nav_mips: u64,
    /// Bus rate (bit/s).
    pub bus_bps: u64,
    /// Scheduling policy of all three processors.
    pub cpu_policy: SchedulingPolicy,
    /// Bus arbitration.
    pub bus_arbitration: BusArbitration,
    /// Period of the ChangeVolume key presses (at most 32 per second).
    pub volume_period: TimeValue,
    /// Period of AddressLookup requests (about one per second).
    pub lookup_period: TimeValue,
    /// Period of TMC messages (300 per 15 minutes).
    pub tmc_period: TimeValue,
}

impl Default for CaseStudyParams {
    fn default() -> Self {
        CaseStudyParams {
            mmi_mips: 22,
            rad_mips: 11,
            nav_mips: 113,
            bus_bps: 72_000,
            cpu_policy: SchedulingPolicy::FixedPriorityPreemptive,
            bus_arbitration: BusArbitration::FixedPriority,
            volume_period: TimeValue::ratio_us(1_000_000, 32),
            lookup_period: TimeValue::seconds(1),
            tmc_period: TimeValue::period_of_rate(300, TimeValue::seconds(15 * 60)),
        }
    }
}

impl CaseStudyParams {
    /// Parameters scaled down by `factor` in time (periods multiplied,
    /// keeping utilisation identical) — not needed for analysis correctness
    /// but handy for quick tests.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.cpu_policy = policy;
        self
    }
}

/// Instantiates the event model of a user stream (ChangeVolume /
/// AddressLookup) for a Table 1 column.
fn user_stream(column: EventModelColumn, period: TimeValue) -> EventModel {
    match column {
        EventModelColumn::PeriodicOffsetZero => EventModel::PeriodicOffset {
            period,
            offset: TimeValue::ZERO,
        },
        EventModelColumn::PeriodicUnknownOffset => EventModel::Periodic { period },
        // For the pj and bur columns only the radio-station stream changes;
        // the user streams are sporadic (Section 4).
        EventModelColumn::Sporadic
        | EventModelColumn::PeriodicJitter
        | EventModelColumn::Burst => EventModel::Sporadic {
            min_interarrival: period,
        },
    }
}

/// Instantiates the event model of the radio-station (TMC) stream for a
/// Table 1 column.
fn tmc_stream(column: EventModelColumn, period: TimeValue) -> EventModel {
    match column {
        EventModelColumn::PeriodicOffsetZero => EventModel::PeriodicOffset {
            period,
            offset: TimeValue::ZERO,
        },
        EventModelColumn::PeriodicUnknownOffset => EventModel::Periodic { period },
        EventModelColumn::Sporadic => EventModel::Sporadic {
            min_interarrival: period,
        },
        EventModelColumn::PeriodicJitter => EventModel::PeriodicJitter {
            period,
            jitter: period,
        },
        EventModelColumn::Burst => EventModel::Burst {
            period,
            jitter: period.scale(2),
            min_separation: TimeValue::ZERO,
        },
    }
}

/// Builds the radio-navigation architecture model for one scenario combination
/// and one event-model column of Table 1.
pub fn radio_navigation(
    combo: ScenarioCombo,
    column: EventModelColumn,
    params: &CaseStudyParams,
) -> ArchitectureModel {
    let mut m = ArchitectureModel::new(format!(
        "radio-navigation ({combo:?}, {})",
        column.label()
    ));
    let mmi = m.add_processor("MMI", params.mmi_mips, params.cpu_policy);
    let rad = m.add_processor("RAD", params.rad_mips, params.cpu_policy);
    let nav = m.add_processor("NAV", params.nav_mips, params.cpu_policy);
    let bus = m.add_bus("BUS", params.bus_bps, params.bus_arbitration);

    // --- the user application of this combination (priority 0, Fig. 2) -------
    match combo {
        ScenarioCombo::ChangeVolumeWithTmc => {
            let cv = m.add_scenario(Scenario {
                name: "ChangeVolume".into(),
                stimulus: user_stream(column, params.volume_period),
                priority: 0,
                steps: vec![
                    Step::Execute {
                        operation: "HandleKeyPress".into(),
                        instructions: 100_000,
                        on: mmi,
                    },
                    Step::Transfer {
                        message: "SetVolume".into(),
                        bytes: 4,
                        over: bus,
                    },
                    Step::Execute {
                        operation: "AdjustVolume".into(),
                        instructions: 100_000,
                        on: rad,
                    },
                    Step::Transfer {
                        message: "GetVolume".into(),
                        bytes: 4,
                        over: bus,
                    },
                    Step::Execute {
                        operation: "UpdateScreen".into(),
                        instructions: 500_000,
                        on: mmi,
                    },
                ],
            });
            m.add_requirement(Requirement {
                name: "K2A (ChangeVolume + HandleTMC)".into(),
                scenario: cv,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(2),
                deadline: TimeValue::millis(50),
            });
            m.add_requirement(Requirement {
                name: "A2V (ChangeVolume + HandleTMC)".into(),
                scenario: cv,
                from: MeasurePoint::AfterStep(2),
                to: MeasurePoint::AfterStep(4),
                deadline: TimeValue::millis(50),
            });
            m.add_requirement(Requirement {
                name: "K2V (ChangeVolume + HandleTMC)".into(),
                scenario: cv,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(4),
                deadline: TimeValue::millis(200),
            });
        }
        ScenarioCombo::AddressLookupWithTmc => {
            let al = m.add_scenario(Scenario {
                name: "AddressLookup".into(),
                stimulus: user_stream(column, params.lookup_period),
                priority: 0,
                steps: vec![
                    Step::Execute {
                        operation: "HandleKeyPress".into(),
                        instructions: 100_000,
                        on: mmi,
                    },
                    Step::Transfer {
                        message: "Lookup".into(),
                        bytes: 32,
                        over: bus,
                    },
                    Step::Execute {
                        operation: "DatabaseLookup".into(),
                        instructions: 5_000_000,
                        on: nav,
                    },
                    Step::Transfer {
                        message: "LookupResult".into(),
                        bytes: 32,
                        over: bus,
                    },
                    Step::Execute {
                        operation: "UpdateScreen".into(),
                        instructions: 500_000,
                        on: mmi,
                    },
                ],
            });
            m.add_requirement(Requirement {
                name: "AddressLookup (+ HandleTMC)".into(),
                scenario: al,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(4),
                deadline: TimeValue::millis(200),
            });
        }
    }

    // --- the HandleTMC application (priority 1, Fig. 3) -----------------------
    let tmc = m.add_scenario(Scenario {
        name: "HandleTMC".into(),
        stimulus: tmc_stream(column, params.tmc_period),
        priority: 1,
        steps: vec![
            Step::Execute {
                operation: "HandleTMC".into(),
                instructions: 1_000_000,
                on: rad,
            },
            Step::Transfer {
                message: "TmcToNav".into(),
                bytes: 64,
                over: bus,
            },
            Step::Execute {
                operation: "DecodeTMC".into(),
                instructions: 5_000_000,
                on: nav,
            },
            Step::Transfer {
                message: "TmcToMmi".into(),
                bytes: 64,
                over: bus,
            },
            Step::Execute {
                operation: "UpdateScreenTMC".into(),
                instructions: 500_000,
                on: mmi,
            },
        ],
    });
    let tmc_name = match combo {
        ScenarioCombo::ChangeVolumeWithTmc => "HandleTMC (+ ChangeVolume)",
        ScenarioCombo::AddressLookupWithTmc => "HandleTMC (+ AddressLookup)",
    };
    m.add_requirement(Requirement {
        name: tmc_name.into(),
        scenario: tmc,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(4),
        deadline: TimeValue::seconds(1),
    });

    m
}

/// Alternative deployments of the same three applications, in the spirit of
/// the design-space exploration of the companion MPA case study (Wandeler,
/// Thiele, Verhoef, Lieverse, ISoLA 2004) the paper's introduction refers to:
/// the operations and message sizes stay identical, only the platform and the
/// mapping change.  Messages between operations that end up on the same
/// processor become local calls and disappear from the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchitectureVariant {
    /// The paper's architecture (Fig. 1): MMI, RAD and NAV processors on one
    /// shared serial bus.
    ThreeCpuOneBus,
    /// The MMI functionality is co-located with the navigation software on the
    /// NAV processor; only RAD keeps its own processor.
    MmiOnNav,
    /// The radio functionality is co-located with the navigation software; the
    /// MMI keeps its own processor.
    RadOnNav,
    /// Everything runs on a single processor whose capacity is the sum of the
    /// three original ones; the bus disappears entirely.
    SingleCpu,
    /// Like the baseline, but the TMC traffic gets a dedicated second bus so
    /// that user interaction messages never wait behind TMC transfers.
    DualBus,
}

impl ArchitectureVariant {
    /// All variants, baseline first.
    pub fn all() -> [ArchitectureVariant; 5] {
        [
            ArchitectureVariant::ThreeCpuOneBus,
            ArchitectureVariant::MmiOnNav,
            ArchitectureVariant::RadOnNav,
            ArchitectureVariant::SingleCpu,
            ArchitectureVariant::DualBus,
        ]
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ArchitectureVariant::ThreeCpuOneBus => "A: MMI+RAD+NAV, one bus",
            ArchitectureVariant::MmiOnNav => "B: MMI folded into NAV",
            ArchitectureVariant::RadOnNav => "C: RAD folded into NAV",
            ArchitectureVariant::SingleCpu => "D: single CPU, no bus",
            ArchitectureVariant::DualBus => "E: dedicated TMC bus",
        }
    }
}

/// The logical processing element an operation belongs to (before deployment).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Function {
    Mmi,
    Rad,
    Nav,
}

/// Builds the radio-navigation model for an alternative deployment.
///
/// [`ArchitectureVariant::ThreeCpuOneBus`] reproduces [`radio_navigation`]
/// exactly; the other variants remap the same operations onto fewer (or
/// differently connected) resources, dropping messages between co-located
/// operations.
pub fn radio_navigation_variant(
    variant: ArchitectureVariant,
    combo: ScenarioCombo,
    column: EventModelColumn,
    params: &CaseStudyParams,
) -> ArchitectureModel {
    if variant == ArchitectureVariant::ThreeCpuOneBus {
        return radio_navigation(combo, column, params);
    }
    let mut m = ArchitectureModel::new(format!(
        "radio-navigation {} ({combo:?}, {})",
        variant.label(),
        column.label()
    ));

    // Platform per variant: map each logical function to a processor, and
    // each (producer function, consumer function, is_tmc) pair to a bus.
    type ProcessorOf = Box<dyn Fn(Function) -> crate::model::ProcessorId>;
    type BusOf = Box<dyn Fn(bool) -> Option<crate::model::BusId>>;
    let (map, bus_for): (ProcessorOf, BusOf) = match variant {
        ArchitectureVariant::ThreeCpuOneBus => unreachable!("handled above"),
        ArchitectureVariant::MmiOnNav => {
            let rad = m.add_processor("RAD", params.rad_mips, params.cpu_policy);
            let nav = m.add_processor(
                "NAV+MMI",
                params.nav_mips + params.mmi_mips,
                params.cpu_policy,
            );
            let bus = m.add_bus("BUS", params.bus_bps, params.bus_arbitration);
            (
                Box::new(move |f| match f {
                    Function::Rad => rad,
                    Function::Mmi | Function::Nav => nav,
                }),
                Box::new(move |_| Some(bus)),
            )
        }
        ArchitectureVariant::RadOnNav => {
            let mmi = m.add_processor("MMI", params.mmi_mips, params.cpu_policy);
            let nav = m.add_processor(
                "NAV+RAD",
                params.nav_mips + params.rad_mips,
                params.cpu_policy,
            );
            let bus = m.add_bus("BUS", params.bus_bps, params.bus_arbitration);
            (
                Box::new(move |f| match f {
                    Function::Mmi => mmi,
                    Function::Rad | Function::Nav => nav,
                }),
                Box::new(move |_| Some(bus)),
            )
        }
        ArchitectureVariant::SingleCpu => {
            let cpu = m.add_processor(
                "CPU",
                params.mmi_mips + params.rad_mips + params.nav_mips,
                params.cpu_policy,
            );
            (Box::new(move |_| cpu), Box::new(|_| None))
        }
        ArchitectureVariant::DualBus => {
            let mmi = m.add_processor("MMI", params.mmi_mips, params.cpu_policy);
            let rad = m.add_processor("RAD", params.rad_mips, params.cpu_policy);
            let nav = m.add_processor("NAV", params.nav_mips, params.cpu_policy);
            let user_bus = m.add_bus("BUS", params.bus_bps, params.bus_arbitration);
            let tmc_bus = m.add_bus("TMC_BUS", params.bus_bps, params.bus_arbitration);
            (
                Box::new(move |f| match f {
                    Function::Mmi => mmi,
                    Function::Rad => rad,
                    Function::Nav => nav,
                }),
                Box::new(move |is_tmc| Some(if is_tmc { tmc_bus } else { user_bus })),
            )
        }
    };

    // Builds a scenario's steps from (operation, instructions, function)
    // triples, inserting a transfer between consecutive operations that are
    // deployed on different processors.
    let build_steps = |ops: &[(&str, u64, Function)],
                       messages: &[(&str, u64)],
                       is_tmc: bool|
     -> Vec<Step> {
        let mut steps = Vec::new();
        for (i, (op, instructions, func)) in ops.iter().enumerate() {
            if i > 0 {
                let prev = map(ops[i - 1].2);
                let here = map(*func);
                if prev != here {
                    let (msg, bytes) = messages[i - 1];
                    let over = bus_for(is_tmc).expect("distinct processors imply a bus");
                    steps.push(Step::Transfer {
                        message: msg.to_string(),
                        bytes,
                        over,
                    });
                }
            }
            steps.push(Step::Execute {
                operation: (*op).to_string(),
                instructions: *instructions,
                on: map(*func),
            });
        }
        steps
    };

    // --- user application of this combination (priority 0) -------------------
    match combo {
        ScenarioCombo::ChangeVolumeWithTmc => {
            let steps = build_steps(
                &[
                    ("HandleKeyPress", 100_000, Function::Mmi),
                    ("AdjustVolume", 100_000, Function::Rad),
                    ("UpdateScreen", 500_000, Function::Mmi),
                ],
                &[("SetVolume", 4), ("GetVolume", 4)],
                false,
            );
            let adjust_idx = steps
                .iter()
                .position(|s| s.name() == "AdjustVolume")
                .expect("AdjustVolume present");
            let screen_idx = steps
                .iter()
                .position(|s| s.name() == "UpdateScreen")
                .expect("UpdateScreen present");
            let cv = m.add_scenario(Scenario {
                name: "ChangeVolume".into(),
                stimulus: user_stream(column, params.volume_period),
                priority: 0,
                steps,
            });
            m.add_requirement(Requirement {
                name: "K2A (ChangeVolume + HandleTMC)".into(),
                scenario: cv,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(adjust_idx),
                deadline: TimeValue::millis(50),
            });
            m.add_requirement(Requirement {
                name: "A2V (ChangeVolume + HandleTMC)".into(),
                scenario: cv,
                from: MeasurePoint::AfterStep(adjust_idx),
                to: MeasurePoint::AfterStep(screen_idx),
                deadline: TimeValue::millis(50),
            });
            m.add_requirement(Requirement {
                name: "K2V (ChangeVolume + HandleTMC)".into(),
                scenario: cv,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(screen_idx),
                deadline: TimeValue::millis(200),
            });
        }
        ScenarioCombo::AddressLookupWithTmc => {
            let steps = build_steps(
                &[
                    ("HandleKeyPress", 100_000, Function::Mmi),
                    ("DatabaseLookup", 5_000_000, Function::Nav),
                    ("UpdateScreen", 500_000, Function::Mmi),
                ],
                &[("Lookup", 32), ("LookupResult", 32)],
                false,
            );
            let last = steps.len() - 1;
            let al = m.add_scenario(Scenario {
                name: "AddressLookup".into(),
                stimulus: user_stream(column, params.lookup_period),
                priority: 0,
                steps,
            });
            m.add_requirement(Requirement {
                name: "AddressLookup (+ HandleTMC)".into(),
                scenario: al,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(last),
                deadline: TimeValue::millis(200),
            });
        }
    }

    // --- HandleTMC (priority 1) ----------------------------------------------
    let steps = build_steps(
        &[
            ("HandleTMC", 1_000_000, Function::Rad),
            ("DecodeTMC", 5_000_000, Function::Nav),
            ("UpdateScreenTMC", 500_000, Function::Mmi),
        ],
        &[("TmcToNav", 64), ("TmcToMmi", 64)],
        true,
    );
    let last = steps.len() - 1;
    let tmc = m.add_scenario(Scenario {
        name: "HandleTMC".into(),
        stimulus: tmc_stream(column, params.tmc_period),
        priority: 1,
        steps,
    });
    let tmc_name = match combo {
        ScenarioCombo::ChangeVolumeWithTmc => "HandleTMC (+ ChangeVolume)",
        ScenarioCombo::AddressLookupWithTmc => "HandleTMC (+ AddressLookup)",
    };
    m.add_requirement(Requirement {
        name: tmc_name.into(),
        scenario: tmc,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(last),
        deadline: TimeValue::seconds(1),
    });

    m
}

/// The five requirement rows of Table 1, in order, with the scenario
/// combination each belongs to.
pub fn table1_rows() -> Vec<(&'static str, ScenarioCombo)> {
    vec![
        ("HandleTMC (+ ChangeVolume)", ScenarioCombo::ChangeVolumeWithTmc),
        ("HandleTMC (+ AddressLookup)", ScenarioCombo::AddressLookupWithTmc),
        ("K2A (ChangeVolume + HandleTMC)", ScenarioCombo::ChangeVolumeWithTmc),
        ("A2V (ChangeVolume + HandleTMC)", ScenarioCombo::ChangeVolumeWithTmc),
        ("AddressLookup (+ HandleTMC)", ScenarioCombo::AddressLookupWithTmc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_models_validate_for_every_column_and_combo() {
        for combo in [ScenarioCombo::ChangeVolumeWithTmc, ScenarioCombo::AddressLookupWithTmc] {
            for column in EventModelColumn::all() {
                let m = radio_navigation(combo, column, &CaseStudyParams::default());
                assert!(m.validate().is_ok(), "{combo:?} {column:?}");
                assert_eq!(m.processors.len(), 3);
                assert_eq!(m.buses.len(), 1);
                assert_eq!(m.scenarios.len(), 2);
            }
        }
    }

    #[test]
    fn service_times_match_the_sequence_diagram_annotations() {
        let m = radio_navigation(
            ScenarioCombo::ChangeVolumeWithTmc,
            EventModelColumn::PeriodicUnknownOffset,
            &CaseStudyParams::default(),
        );
        let cv = &m.scenarios[m.scenario_by_name("ChangeVolume").unwrap().0];
        // HandleKeyPress: 1e5 instr / 22 MIPS ≈ 4.545 ms.
        let t = m.step_service_time(&cv.steps[0]).as_millis_f64();
        assert!((t - 4.545).abs() < 0.01, "{t}");
        // SetVolume: 4 bytes over 72 kbit/s ≈ 0.444 ms.
        let t = m.step_service_time(&cv.steps[1]).as_millis_f64();
        assert!((t - 0.444).abs() < 0.01, "{t}");
        // AdjustVolume: 1e5 / 11 ≈ 9.09 ms.
        let t = m.step_service_time(&cv.steps[2]).as_millis_f64();
        assert!((t - 9.09).abs() < 0.01, "{t}");
        // UpdateScreen: 5e5 / 22 ≈ 22.7 ms.
        let t = m.step_service_time(&cv.steps[4]).as_millis_f64();
        assert!((t - 22.72).abs() < 0.01, "{t}");
        let tmc = &m.scenarios[m.scenario_by_name("HandleTMC").unwrap().0];
        // DecodeTMC: 5e6 / 113 ≈ 44.25 ms.
        let t = m.step_service_time(&tmc.steps[2]).as_millis_f64();
        assert!((t - 44.25).abs() < 0.01, "{t}");
        // TMC messages arrive every 3 s.
        assert_eq!(tmc.stimulus.period(), TimeValue::seconds(3));
    }

    #[test]
    fn table1_rows_reference_existing_requirements() {
        for (name, combo) in table1_rows() {
            let m = radio_navigation(
                combo,
                EventModelColumn::Sporadic,
                &CaseStudyParams::default(),
            );
            assert!(m.requirement_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn event_model_columns_map_to_models() {
        let p = TimeValue::seconds(3);
        assert!(matches!(
            tmc_stream(EventModelColumn::PeriodicJitter, p),
            EventModel::PeriodicJitter { .. }
        ));
        assert!(matches!(
            tmc_stream(EventModelColumn::Burst, p),
            EventModel::Burst { .. }
        ));
        assert!(matches!(
            user_stream(EventModelColumn::PeriodicJitter, p),
            EventModel::Sporadic { .. }
        ));
        assert!(matches!(
            user_stream(EventModelColumn::PeriodicOffsetZero, p),
            EventModel::PeriodicOffset { .. }
        ));
    }

    #[test]
    fn architecture_variants_validate_and_reuse_the_same_requirements() {
        for variant in ArchitectureVariant::all() {
            for combo in [
                ScenarioCombo::ChangeVolumeWithTmc,
                ScenarioCombo::AddressLookupWithTmc,
            ] {
                let m = radio_navigation_variant(
                    variant,
                    combo,
                    EventModelColumn::Sporadic,
                    &CaseStudyParams::default(),
                );
                assert!(m.validate().is_ok(), "{variant:?} {combo:?}");
                // The Table 1 requirement names are available in every variant.
                for (name, c) in table1_rows() {
                    if c == combo {
                        assert!(m.requirement_by_name(name).is_some(), "{variant:?} {name}");
                    }
                }
            }
        }
    }

    #[test]
    fn variant_baseline_is_the_paper_architecture() {
        let a = radio_navigation_variant(
            ArchitectureVariant::ThreeCpuOneBus,
            ScenarioCombo::ChangeVolumeWithTmc,
            EventModelColumn::Sporadic,
            &CaseStudyParams::default(),
        );
        let b = radio_navigation(
            ScenarioCombo::ChangeVolumeWithTmc,
            EventModelColumn::Sporadic,
            &CaseStudyParams::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn co_location_removes_bus_messages() {
        let single = radio_navigation_variant(
            ArchitectureVariant::SingleCpu,
            ScenarioCombo::ChangeVolumeWithTmc,
            EventModelColumn::Sporadic,
            &CaseStudyParams::default(),
        );
        assert!(single.buses.is_empty());
        assert_eq!(single.processors.len(), 1);
        assert_eq!(single.processors[0].mips, 22 + 11 + 113);
        for s in &single.scenarios {
            assert!(
                s.steps.iter().all(|st| matches!(st, Step::Execute { .. })),
                "no transfers remain on a single-CPU deployment"
            );
        }
        let mmi_on_nav = radio_navigation_variant(
            ArchitectureVariant::MmiOnNav,
            ScenarioCombo::AddressLookupWithTmc,
            EventModelColumn::Sporadic,
            &CaseStudyParams::default(),
        );
        // HandleKeyPress, DatabaseLookup and UpdateScreen are all on NAV+MMI,
        // so the AddressLookup scenario keeps no transfers at all.
        let al = &mmi_on_nav.scenarios[mmi_on_nav.scenario_by_name("AddressLookup").unwrap().0];
        assert_eq!(al.steps.len(), 3);
        // The TMC scenario still crosses the RAD/NAV boundary once.
        let tmc = &mmi_on_nav.scenarios[mmi_on_nav.scenario_by_name("HandleTMC").unwrap().0];
        assert_eq!(
            tmc.steps
                .iter()
                .filter(|s| matches!(s, Step::Transfer { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn dual_bus_variant_routes_tmc_traffic_separately() {
        let m = radio_navigation_variant(
            ArchitectureVariant::DualBus,
            ScenarioCombo::ChangeVolumeWithTmc,
            EventModelColumn::Sporadic,
            &CaseStudyParams::default(),
        );
        assert_eq!(m.buses.len(), 2);
        let tmc_bus = m
            .buses
            .iter()
            .position(|b| b.name == "TMC_BUS")
            .map(crate::model::BusId)
            .unwrap();
        let tmc = &m.scenarios[m.scenario_by_name("HandleTMC").unwrap().0];
        for step in &tmc.steps {
            if let Step::Transfer { over, .. } = step {
                assert_eq!(*over, tmc_bus);
            }
        }
        let cv = &m.scenarios[m.scenario_by_name("ChangeVolume").unwrap().0];
        for step in &cv.steps {
            if let Step::Transfer { over, .. } = step {
                assert_ne!(*over, tmc_bus);
            }
        }
    }

    #[test]
    fn params_builder() {
        let p = CaseStudyParams::default().with_policy(SchedulingPolicy::NonPreemptiveNd);
        assert_eq!(p.cpu_policy, SchedulingPolicy::NonPreemptiveNd);
        assert_eq!(p.volume_period, TimeValue::ratio_us(31_250, 1));
    }
}
