//! Model exchange and verification.
//!
//! The paper derives UPPAAL models automatically and stresses that generated
//! models still need to be inspected and maintained.  This example shows the
//! supporting tooling of this reproduction:
//!
//! 1. an architecture model is translated into a network of timed automata,
//! 2. the network is serialised to the textual `.tta` format, re-parsed and
//!    compared (exact round trip),
//! 3. the worst-case response time is computed from the re-parsed network in
//!    one exploration of its zone graph.
//!
//! ```text
//! cargo run --release --example model_exchange
//! ```

use tempo::arch::prelude::*;
use tempo::arch::{generate, GeneratorOptions};
use tempo::check::{Explorer, SearchOptions, TargetSpec};
use tempo::ta::format::{parse_system, print_system};

fn main() {
    // A two-processor pipeline with one shared bus, small enough to read the
    // generated model by eye.
    let mut model = ArchitectureModel::new("camera-pipeline");
    let sensor = model.add_processor("SENSOR", 20, SchedulingPolicy::NonPreemptiveNd);
    let host = model.add_processor("HOST", 200, SchedulingPolicy::FixedPriorityPreemptive);
    let link = model.add_bus("LINK", 400_000, BusArbitration::FixedPriority);

    let frame = model.add_scenario(Scenario {
        name: "frame".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(40),
        },
        priority: 0,
        steps: vec![
            Step::Execute {
                operation: "Capture".into(),
                instructions: 100_000, // 5 ms on SENSOR
                on: sensor,
            },
            Step::Transfer {
                message: "FrameData".into(),
                bytes: 500, // 10 ms on LINK
                over: link,
            },
            Step::Execute {
                operation: "Process".into(),
                instructions: 1_000_000, // 5 ms on HOST
                on: host,
            },
        ],
    });
    model.add_scenario(Scenario {
        name: "diagnostics".into(),
        stimulus: EventModel::Sporadic {
            min_interarrival: TimeValue::millis(100),
        },
        priority: 1,
        steps: vec![
            Step::Transfer {
                message: "DiagRequest".into(),
                bytes: 100, // 2 ms on LINK
                over: link,
            },
            Step::Execute {
                operation: "RunDiagnostics".into(),
                instructions: 2_000_000, // 10 ms on HOST
                on: host,
            },
        ],
    });
    model.add_requirement(Requirement {
        name: "frame latency".into(),
        scenario: frame,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(2),
        deadline: TimeValue::millis(40),
    });

    // ------------------------------------------------------------------
    // 1-2. Generate the timed-automata network and round-trip it as text.
    // ------------------------------------------------------------------
    let requirement = model.requirement_by_name("frame latency").unwrap().clone();
    let generated = generate(&model, Some(&requirement), &GeneratorOptions::default())
        .expect("generation succeeds");
    let text = print_system(&generated.system);
    println!(
        "generated network: {} automata, {} clocks, {} variables, {} lines of .tta text\n",
        generated.system.automata.len(),
        generated.system.clocks.len(),
        generated.system.vars.len(),
        text.lines().count()
    );
    // Print the bus automaton section as a taste of the format.
    for block in text.split("\nautomaton ") {
        if block.starts_with("LINK ") {
            println!("automaton {block}");
        }
    }
    let reparsed = parse_system(&text).expect("the printed model parses back");
    assert_eq!(generated.system, reparsed, "round trip is exact");
    println!("round trip: parse(print(system)) == system ✓\n");

    // ------------------------------------------------------------------
    // 3. Exact WCRT of the re-parsed network.
    // ------------------------------------------------------------------
    let observer = generated.observer.as_ref().expect("observer present");
    let explorer = Explorer::new(&reparsed, SearchOptions::default()).expect("valid system");
    let seen = TargetSpec::location(&reparsed, &observer.automaton, &observer.seen_location)
        .expect("observer location");
    let cap = generated.quantizer.to_ticks(TimeValue::millis(400));

    let report = explorer
        .sup_clock_at(&seen, observer.clock, cap)
        .expect("exact analysis");
    let wcrt = report.exact_value().expect("the WCRT stays below the cap");
    println!(
        "frame latency WCRT = {:.3} ms ({} states, {:?})",
        generated.quantizer.ticks_to_ms(wcrt),
        report.stats.stored_cumulative,
        report.stats.duration,
    );
}
