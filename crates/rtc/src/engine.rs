//! The [`Engine`] implementation of the MPA / real-time-calculus baseline.

use crate::analysis::{analyze_all_impl, analyze_requirement_impl, RtcError, RtcReport};
use tempo_arch::engine::{
    run_upper_bound_engine, upper_bound_row, Engine, EngineError, EngineReport, Query,
    RequirementEstimate, RunContext,
};
use tempo_arch::model::ArchitectureModel;

/// The MPA engine: conservative upper bounds from real-time calculus.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtcEngine;

impl From<RtcError> for EngineError {
    fn from(e: RtcError) -> Self {
        match e {
            RtcError::Model(m) => EngineError::Model(m),
            RtcError::UnknownRequirement(n) => EngineError::UnknownRequirement(n),
            RtcError::Overload { step } => {
                EngineError::Overload(format!("scenario step {step} diverges"))
            }
        }
    }
}

fn estimate_row(model: &ArchitectureModel, report: &RtcReport) -> RequirementEstimate {
    upper_bound_row(model, &report.requirement, report.wcrt_bound)
}

impl Engine for RtcEngine {
    fn name(&self) -> &'static str {
        "mpa"
    }

    fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        run_upper_bound_engine(
            self.name(),
            model,
            query,
            ctx,
            &mut |requirement| Ok(estimate_row(model, &analyze_requirement_impl(model, requirement)?)),
            &mut || {
                Ok(analyze_all_impl(model)?
                    .iter()
                    .map(|r| estimate_row(model, r))
                    .collect())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_arch::engine::Estimate;
    use tempo_arch::model::{
        BusArbitration, EventModel, MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step,
    };
    use tempo_arch::time::TimeValue;

    fn model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("rtc-engine");
        let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityPreemptive);
        let s = m.add_scenario(Scenario {
            name: "task".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(20),
            },
            priority: 0,
            steps: vec![Step::Execute {
                operation: "work".into(),
                instructions: 2_000,
                on: cpu,
            }],
        });
        m.add_requirement(Requirement {
            name: "rt".into(),
            scenario: s,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(20),
        });
        m
    }

    #[test]
    fn engine_reports_upper_bounds() {
        let m = model();
        let engine = RtcEngine;
        let report = engine
            .run(&m, &Query::wcrt("rt"), &RunContext::default())
            .unwrap();
        assert_eq!(report.engine, "mpa");
        let est = &report.estimates[0];
        assert!(matches!(est.estimate, Estimate::UpperBound(_)));
        assert_eq!(est.meets_deadline, Some(true));
        let verdict = engine
            .run(&m, &Query::deadline_check("rt"), &RunContext::default())
            .unwrap();
        assert_eq!(verdict.verdict, Some(true));
        assert!(matches!(
            engine.run(&m, &Query::QueueBounds, &RunContext::default()),
            Err(EngineError::Unsupported { .. })
        ));
    }

    #[test]
    fn tdma_models_are_declined() {
        let mut m = model();
        m.add_bus(
            "TDMA",
            8_000,
            BusArbitration::Tdma {
                slot: TimeValue::millis(4),
            },
        );
        assert!(matches!(
            RtcEngine.run(&m, &Query::wcrt("rt"), &RunContext::default()),
            Err(EngineError::Unsupported { .. })
        ));
    }
}
