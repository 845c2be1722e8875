//! Quick start: describe a small embedded architecture, derive its timed
//! automata and compute exact worst-case response times.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tempo::arch::prelude::*;

fn main() {
    // 1. Describe the platform: one 50-MIPS CPU (fixed-priority preemptive)
    //    and one 1-Mbit/s bus, as in a small automotive ECU.
    let mut model = ArchitectureModel::new("quickstart");
    let cpu = model.add_processor("ECU", 50, SchedulingPolicy::FixedPriorityPreemptive);
    let can = model.add_bus("CAN", 1_000_000, BusArbitration::FixedPriority);

    // 2. Describe the applications as annotated sequence diagrams.
    let control = model.add_scenario(Scenario {
        name: "control".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(5),
        },
        priority: 0,
        steps: vec![
            Step::Execute {
                operation: "ReadSensor".into(),
                instructions: 25_000, // 0.5 ms
                on: cpu,
            },
            Step::Execute {
                operation: "ControlLaw".into(),
                instructions: 50_000, // 1 ms
                on: cpu,
            },
            Step::Transfer {
                message: "Actuate".into(),
                bytes: 8,
                over: can,
            },
        ],
    });
    let logging = model.add_scenario(Scenario {
        name: "logging".into(),
        stimulus: EventModel::PeriodicJitter {
            period: TimeValue::millis(20),
            jitter: TimeValue::millis(5),
        },
        priority: 1,
        steps: vec![
            Step::Execute {
                operation: "CollectStats".into(),
                instructions: 200_000, // 4 ms
                on: cpu,
            },
            Step::Transfer {
                message: "LogRecord".into(),
                bytes: 64,
                over: can,
            },
        ],
    });

    // 3. State the timeliness requirements.
    model.add_requirement(Requirement {
        name: "actuation latency".into(),
        scenario: control,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(2),
        deadline: TimeValue::millis(5),
    });
    model.add_requirement(Requirement {
        name: "log latency".into(),
        scenario: logging,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(1),
        deadline: TimeValue::millis(20),
    });

    // 4. Analyse: the analysis database validates the model, translates it
    //    into one network of timed automata per requirement and extracts the
    //    exact worst-case response times with the checker.
    let db = AnalysisDb::new(AnalysisConfig::default());
    for requirement in &model.requirements {
        let report = db.wcrt(&model, &requirement.name).expect("analysis succeeds");
        println!(
            "{:<20} WCRT = {:>8.3} ms   deadline = {:>6.1} ms   met = {:?}   ({} symbolic states)",
            report.requirement,
            report.wcrt_ms().unwrap_or(f64::NAN),
            report.deadline.as_millis_f64(),
            report.meets_deadline.unwrap_or(false),
            report.stats.stored_cumulative,
        );
    }

    // 5. The same model can be fed to the baseline engines for comparison.
    let query = Query::Wcrt {
        requirement: "actuation latency".into(),
    };
    let ctx = RunContext::default();
    let bound = tempo::symta::SymtaEngine.run(&model, &query, &ctx).unwrap();
    let mpa = tempo::rtc::RtcEngine.run(&model, &query, &ctx).unwrap();
    println!(
        "\nFor comparison, conservative analytic bounds on the actuation latency:\n  \
         SymTA/S-style busy window: {}\n  MPA / real-time calculus:  {}",
        bound.estimate_for("actuation latency").unwrap().estimate,
        mpa.estimate_for("actuation latency").unwrap().estimate
    );
}
