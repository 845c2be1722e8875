//! The [`Engine`] implementation of the discrete-event-simulation baseline.

use crate::engine::{simulate, SimConfig, SimError, SimReport};
use std::time::Instant;
use tempo_arch::engine::{
    poll_entry_fault, Engine, EngineError, EngineReport, Query, RequirementEstimate, RunContext,
};
use tempo_arch::model::ArchitectureModel;
use tempo_arch::time::TimeValue;

/// The simulation engine: lower bounds observed by executing the model.
///
/// The run context's deadline is honored between simulation runs — a
/// campaign past its deadline simply performs fewer runs, and the partial
/// maximum is still a sound lower bound.
#[derive(Clone, Debug, Default)]
pub struct SimEngine {
    /// The simulation campaign configuration (horizon, runs, base seed).
    pub cfg: SimConfig,
}

impl SimEngine {
    /// An engine with the given campaign configuration.
    pub fn with_config(cfg: SimConfig) -> SimEngine {
        SimEngine { cfg }
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Model(m) => EngineError::Model(m),
        }
    }
}

fn estimate_row(model: &ArchitectureModel, report: &SimReport) -> RequirementEstimate {
    let deadline = model
        .requirement_by_name(&report.requirement)
        .map(|r| r.deadline)
        .unwrap_or(TimeValue::ZERO);
    let estimate = report.estimate();
    // A witnessed response at or past the deadline *refutes* the deadline;
    // observations below it prove nothing about the worst case.
    let meets_deadline = estimate
        .lower()
        .and_then(|lb| (report.observations > 0 && lb >= deadline).then_some(false));
    RequirementEstimate {
        requirement: report.requirement.clone(),
        estimate,
        deadline,
        meets_deadline,
    }
}

impl Engine for SimEngine {
    fn name(&self) -> &'static str {
        "simulation"
    }

    fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        if matches!(query, Query::QueueBounds) {
            return Err(EngineError::Unsupported {
                engine: self.name().into(),
                detail: "queue-boundedness needs the exact state space".into(),
            });
        }
        let started = Instant::now();
        // Injected budget exhaustion degrades to the shortest campaign: the
        // first run still executes, so the answer stays a sound (if loose)
        // lower bound.
        let exhausted = poll_entry_fault(ctx)?;

        // Run the campaign one run at a time so the budget and cancellation
        // are honored between runs; seeds match `simulate` with `runs` runs,
        // so an unbudgeted engine run reproduces the plain campaign exactly.
        let mut merged: Option<Vec<SimReport>> = None;
        let mut truncated = false;
        for run in 0..self.cfg.runs.max(1) {
            if ctx.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
            if run > 0 && (exhausted || ctx.is_expired()) {
                truncated = true;
                break;
            }
            let reports = simulate(
                model,
                &SimConfig {
                    horizon: self.cfg.horizon,
                    runs: 1,
                    seed: self.cfg.seed + run as u64,
                },
            )?;
            match &mut merged {
                None => merged = Some(reports),
                Some(acc) => {
                    for (a, r) in acc.iter_mut().zip(reports) {
                        a.max_response_us = a.max_response_us.max(r.max_response_us);
                        a.observations += r.observations;
                    }
                }
            }
        }
        let merged = merged.expect("at least one run");

        let wanted = query.requirement();
        let estimates: Vec<RequirementEstimate> = merged
            .iter()
            .filter(|r| wanted.is_none_or(|name| r.requirement == name))
            .map(|r| estimate_row(model, r))
            .collect();
        if let Some(name) = wanted {
            if estimates.is_empty() {
                return Err(EngineError::UnknownRequirement(name.to_string()));
            }
        }
        let verdict = match query {
            Query::DeadlineCheck { .. } => estimates.first().and_then(|e| e.meets_deadline),
            _ => None,
        };
        Ok(EngineReport {
            engine: self.name().into(),
            query: query.clone(),
            estimates,
            verdict,
            wall_time: started.elapsed(),
            states_stored: None,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_arch::engine::Estimate;
    use tempo_arch::model::{
        EventModel, MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step,
    };

    fn model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("sim-engine");
        let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityPreemptive);
        let s = m.add_scenario(Scenario {
            name: "task".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(10),
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
            deadline: TimeValue::millis(10),
        });
        m
    }

    #[test]
    fn engine_matches_plain_campaign_and_reports_lower_bounds() {
        let m = model();
        let cfg = SimConfig {
            horizon: TimeValue::seconds(1),
            runs: 3,
            seed: 7,
        };
        let plain = simulate(&m, &cfg).unwrap();
        let engine = SimEngine::with_config(cfg);
        let report = engine
            .run(&m, &Query::wcrt("rt"), &RunContext::default())
            .unwrap();
        let est = &report.estimates[0];
        assert!(matches!(est.estimate, Estimate::LowerBound(_)));
        // Unbudgeted engine runs reproduce the plain campaign exactly.
        assert_eq!(est.estimate, plain[0].estimate());
        assert_eq!(est.meets_deadline, None);
        assert!(matches!(
            engine.run(&m, &Query::wcrt("nope"), &RunContext::default()),
            Err(EngineError::UnknownRequirement(_))
        ));
    }

    #[test]
    fn budget_shortens_the_campaign_but_keeps_it_sound() {
        let m = model();
        let engine = SimEngine::with_config(SimConfig {
            horizon: TimeValue::seconds(1),
            runs: 50,
            seed: 7,
        });
        let ctx = RunContext::with_wall_clock(std::time::Duration::ZERO);
        let report = engine.run(&m, &Query::wcrt("rt"), &ctx).unwrap();
        // At least the first run always happens; its maximum is still a
        // sound lower bound (the task runs 2 ms in isolation).
        let lb = report.estimates[0].estimate.lower().unwrap();
        assert!(lb >= TimeValue::millis(2));
    }
}
