//! The [`Engine`] implementation of the SymTA/S-style baseline.

use crate::{analyze_all_impl, analyze_requirement_impl, SymtaError, SymtaReport};
use tempo_arch::engine::{
    run_upper_bound_engine, upper_bound_row, Engine, EngineError, EngineReport, Query,
    RequirementEstimate, RunContext,
};
use tempo_arch::model::ArchitectureModel;

/// The SymTA/S engine: conservative upper bounds from compositional
/// busy-window analysis with event-model propagation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymtaEngine;

impl From<SymtaError> for EngineError {
    fn from(e: SymtaError) -> Self {
        match e {
            SymtaError::Model(m) => EngineError::Model(m),
            SymtaError::UnknownRequirement(n) => EngineError::UnknownRequirement(n),
            SymtaError::Overload { resource } => {
                EngineError::Overload(format!("resource `{resource}` is overloaded"))
            }
            SymtaError::NoConvergence => {
                EngineError::Internal("busy-window iteration did not converge".into())
            }
        }
    }
}

fn estimate_row(model: &ArchitectureModel, report: &SymtaReport) -> RequirementEstimate {
    upper_bound_row(model, &report.requirement, report.wcrt_bound)
}

impl Engine for SymtaEngine {
    fn name(&self) -> &'static str {
        "symta"
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

    #[test]
    fn engine_reports_upper_bounds_and_declines_tdma() {
        let mut m = ArchitectureModel::new("symta-engine");
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
        let engine = SymtaEngine;
        let report = engine
            .run(&m, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        assert_eq!(report.estimates.len(), 1);
        assert!(matches!(
            report.estimates[0].estimate,
            Estimate::UpperBound(_)
        ));
        assert_eq!(report.estimates[0].meets_deadline, Some(true));
        m.add_bus(
            "TDMA",
            8_000,
            BusArbitration::Tdma {
                slot: TimeValue::millis(4),
            },
        );
        assert!(matches!(
            engine.run(&m, &Query::WcrtAll, &RunContext::default()),
            Err(EngineError::Unsupported { .. })
        ));
    }
}
