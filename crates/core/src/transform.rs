//! Model-to-model transformations.
//!
//! Section 3.2 of the paper notes that encoding bus protocols which "break
//! large messages into pieces to prevent starvation" directly as timed
//! automata is "less trivial" than priority or TDMA arbitration.  This module
//! takes the alternative route the paper's interface design enables: because
//! resources, buses and scenarios communicate only through the shared queue
//! counters, fragmentation can be performed *on the architecture model*
//! before generation — every oversized transfer is replaced by a sequence of
//! frame transfers, and arbitration then interleaves frames of different
//! scenarios instead of whole messages.

use crate::model::{
    ArchitectureModel, BusId, MeasurePoint, ModelError, Requirement, Scenario, Step,
};

/// Splits every transfer over `bus` that is larger than `max_frame_bytes`
/// into consecutive frame transfers of at most `max_frame_bytes` bytes.
///
/// Timeliness requirements are remapped so that they still refer to the same
/// logical steps: a measure point "after step *i*" becomes "after the last
/// frame of step *i*".  Scenario priorities, event models and all other steps
/// are left untouched.  The total number of transferred bytes per message is
/// preserved exactly (the last frame carries the remainder).
///
/// Returns an error if `max_frame_bytes` is zero or `bus` does not exist.
pub fn fragment_transfers(
    model: &ArchitectureModel,
    bus: BusId,
    max_frame_bytes: u64,
) -> Result<ArchitectureModel, ModelError> {
    if bus.0 >= model.buses.len() {
        return Err(ModelError::UnknownResource {
            scenario: "<fragment_transfers>".into(),
            step: bus.0,
        });
    }
    if max_frame_bytes == 0 {
        return Err(ModelError::BadRequirement {
            requirement: "<fragment_transfers>".into(),
            reason: "max_frame_bytes must be positive".into(),
        });
    }

    let mut out = ArchitectureModel::new(model.name.clone());
    out.processors = model.processors.clone();
    out.buses = model.buses.clone();

    // For every scenario, old step index -> index of its *last* new step.
    let mut last_new_index: Vec<Vec<usize>> = Vec::with_capacity(model.scenarios.len());

    for scenario in &model.scenarios {
        let mut steps = Vec::new();
        let mut mapping = Vec::with_capacity(scenario.steps.len());
        for step in &scenario.steps {
            match step {
                Step::Transfer {
                    message,
                    bytes,
                    over,
                } if *over == bus && *bytes > max_frame_bytes => {
                    let full_frames = bytes / max_frame_bytes;
                    let remainder = bytes % max_frame_bytes;
                    let total = full_frames + u64::from(remainder > 0);
                    for frame in 0..full_frames {
                        steps.push(Step::Transfer {
                            message: format!("{message}#{}", frame + 1),
                            bytes: max_frame_bytes,
                            over: *over,
                        });
                    }
                    if remainder > 0 {
                        steps.push(Step::Transfer {
                            message: format!("{message}#{total}"),
                            bytes: remainder,
                            over: *over,
                        });
                    }
                    mapping.push(steps.len() - 1);
                }
                other => {
                    steps.push(other.clone());
                    mapping.push(steps.len() - 1);
                }
            }
        }
        last_new_index.push(mapping);
        out.scenarios.push(Scenario {
            name: scenario.name.clone(),
            stimulus: scenario.stimulus.clone(),
            priority: scenario.priority,
            steps,
        });
    }

    for r in &model.requirements {
        let remap = |p: MeasurePoint| match p {
            MeasurePoint::Stimulus => MeasurePoint::Stimulus,
            MeasurePoint::AfterStep(i) => {
                MeasurePoint::AfterStep(last_new_index[r.scenario.0][i])
            }
        };
        out.requirements.push(Requirement {
            name: r.name.clone(),
            scenario: r.scenario,
            from: remap(r.from),
            to: remap(r.to),
            deadline: r.deadline,
        });
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::incremental::AnalysisDb;
    use crate::model::{BusArbitration, EventModel, SchedulingPolicy};
    use crate::time::TimeValue;

    /// A high-priority short message competes with a low-priority long
    /// message on one bus; the CPU steps before/after keep the scenario
    /// end-to-end realistic.
    fn contention_model(arbitration: BusArbitration) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("contention");
        let cpu = m.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityNonPreemptive);
        let bus = m.add_bus("BUS", 80_000, arbitration); // 10 bytes per ms
        let urgent = m.add_scenario(Scenario {
            name: "urgent".into(),
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(50),
            },
            priority: 0,
            steps: vec![
                Step::Execute {
                    operation: "sample".into(),
                    instructions: 100_000, // 1 ms
                    on: cpu,
                },
                Step::Transfer {
                    message: "alarm".into(),
                    bytes: 10, // 1 ms
                    over: bus,
                },
            ],
        });
        m.add_scenario(Scenario {
            name: "bulk".into(),
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(100),
            },
            priority: 1,
            steps: vec![Step::Transfer {
                message: "dump".into(),
                bytes: 200, // 20 ms unfragmented
                over: bus,
            }],
        });
        m.add_requirement(Requirement {
            name: "alarm latency".into(),
            scenario: urgent,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(30),
        });
        m
    }

    #[test]
    fn fragmentation_preserves_structure_and_bytes() {
        let m = contention_model(BusArbitration::FixedPriority);
        let f = fragment_transfers(&m, BusId(0), 50).unwrap();
        assert!(f.validate().is_ok());
        // The urgent scenario is untouched (10 bytes <= 50).
        assert_eq!(f.scenarios[0].steps.len(), 2);
        // The bulk transfer becomes 4 frames of 50 bytes.
        assert_eq!(f.scenarios[1].steps.len(), 4);
        let total: u64 = f.scenarios[1]
            .steps
            .iter()
            .map(|s| match s {
                Step::Transfer { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 200);
        for (i, s) in f.scenarios[1].steps.iter().enumerate() {
            assert_eq!(s.name(), format!("dump#{}", i + 1));
        }
    }

    #[test]
    fn remainder_frame_carries_the_leftover_bytes() {
        let m = contention_model(BusArbitration::FixedPriority);
        let f = fragment_transfers(&m, BusId(0), 60).unwrap();
        let bulk = &f.scenarios[1].steps;
        assert_eq!(bulk.len(), 4); // 60 + 60 + 60 + 20
        assert!(matches!(bulk[3], Step::Transfer { bytes: 20, .. }));
    }

    #[test]
    fn requirements_are_remapped_to_the_last_frame() {
        let mut m = contention_model(BusArbitration::FixedPriority);
        // Add a requirement on the bulk scenario so remapping is visible.
        m.add_requirement(Requirement {
            name: "dump latency".into(),
            scenario: crate::model::ScenarioId(1),
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(100),
        });
        let f = fragment_transfers(&m, BusId(0), 50).unwrap();
        let req = f.requirement_by_name("dump latency").unwrap();
        assert_eq!(req.to, MeasurePoint::AfterStep(3));
        // The untouched requirement keeps its indices.
        let alarm = f.requirement_by_name("alarm latency").unwrap();
        assert_eq!(alarm.to, MeasurePoint::AfterStep(1));
    }

    #[test]
    fn fragmentation_reduces_priority_inversion_on_the_bus() {
        let cfg = AnalysisConfig::default();
        let whole = contention_model(BusArbitration::FixedPriority);
        let fragmented = fragment_transfers(&whole, BusId(0), 20).unwrap();
        let wcrt_whole = AnalysisDb::new(cfg.clone())
            .wcrt(&whole, "alarm latency")
            .unwrap()
            .wcrt
            .expect("exact");
        let wcrt_frag = AnalysisDb::new(cfg)
            .wcrt(&fragmented, "alarm latency")
            .unwrap()
            .wcrt
            .expect("exact");
        // Unfragmented: the alarm can be blocked by the whole 20 ms dump.
        // Fragmented into 2 ms frames it waits for at most one frame.
        assert!(
            wcrt_frag < wcrt_whole,
            "fragmentation should shorten the alarm WCRT: {:?} vs {:?}",
            wcrt_frag,
            wcrt_whole
        );
        // Blocking is bounded by one frame (2 ms) instead of one message (20 ms).
        assert!(wcrt_whole >= TimeValue::millis(20));
        assert!(wcrt_frag <= TimeValue::millis(8));
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let m = contention_model(BusArbitration::FixedPriority);
        assert!(fragment_transfers(&m, BusId(7), 10).is_err());
        assert!(fragment_transfers(&m, BusId(0), 0).is_err());
    }

    #[test]
    fn fragmentation_enables_tdma_with_small_slots() {
        let m = contention_model(BusArbitration::Tdma {
            slot: TimeValue::millis(3),
        });
        // The 200-byte (20 ms) dump does not fit a 3 ms slot...
        assert!(matches!(
            m.validate(),
            Err(ModelError::TdmaSlotTooShort { .. })
        ));
        // ...but its 2 ms frames do.
        let f = fragment_transfers(&m, BusId(0), 20).unwrap();
        assert!(f.validate().is_ok());
    }
}
