//! The `tempo-serve` daemon binary.
//!
//! Modes:
//!
//! * default / `--stdio`  — serve one connection over stdin/stdout.
//! * `--listen ADDR`      — serve TCP connections until a client sends
//!   `shutdown`.
//! * `--drive ADDR`       — connect as a client and run a self-check drive
//!   (load a sample model, batched queries, an in-place model edit, stats);
//!   exits non-zero on any failure.  Used by CI to exercise a loopback
//!   daemon end to end.
//!
//! Options: `--workers N`, `--queue-cap N`, `--budget-ms N` (default
//! per-request wall budget).

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;
use tempo_arch::engine::Query;
use tempo_arch::model::{
    ArchitectureModel, EventModel, MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step,
};
use tempo_arch::time::TimeValue;
use tempo_serve::{Client, JsonValue, Server, ServerConfig};

enum Mode {
    Stdio,
    Listen(String),
    Drive(String),
}

fn usage() -> &'static str {
    "usage: tempo-serve [--stdio | --listen ADDR | --drive ADDR] \
     [--workers N] [--queue-cap N] [--budget-ms N]"
}

fn main() -> ExitCode {
    let mut mode = Mode::Stdio;
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => mode = Mode::Stdio,
            "--listen" => match args.next() {
                Some(addr) => mode = Mode::Listen(addr),
                None => return fail(usage()),
            },
            "--drive" => match args.next() {
                Some(addr) => mode = Mode::Drive(addr),
                None => return fail(usage()),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.workers = n,
                None => return fail("--workers needs a positive integer"),
            },
            "--queue-cap" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.queue_cap = n,
                None => return fail("--queue-cap needs a positive integer"),
            },
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => cfg.default_wall_budget = Some(Duration::from_millis(ms)),
                None => return fail("--budget-ms needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    match mode {
        Mode::Stdio => {
            let server = Server::new(cfg);
            let stdin = std::io::stdin().lock();
            server.serve_connection(stdin, std::io::stdout());
            server.begin_shutdown();
            server.join();
            ExitCode::SUCCESS
        }
        Mode::Listen(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
            };
            eprintln!(
                "tempo-serve listening on {}",
                listener.local_addr().map_or(addr, |a| a.to_string())
            );
            let server = Server::new(cfg);
            if let Err(e) = server.listen(listener) {
                return fail(&format!("accept loop failed: {e}"));
            }
            server.join();
            ExitCode::SUCCESS
        }
        Mode::Drive(addr) => match drive(&addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("tempo-serve: {msg}");
    ExitCode::FAILURE
}

/// A small two-subsystem model for the self-check drive.  Parameterized by
/// the control step's instruction count so an edit changes only the control
/// cone: scaling a processor's MIPS instead would rescale durations and move
/// the quantizer tick, soundly invalidating the filter cone too.
fn drive_model(ctl_instructions: u64) -> ArchitectureModel {
    let mut m = ArchitectureModel::new("drive");
    let cpu = m.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityPreemptive);
    let dsp = m.add_processor("DSP", 50, SchedulingPolicy::FixedPriorityNonPreemptive);
    let a = m.add_scenario(Scenario {
        name: "control".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(10),
        },
        priority: 2,
        steps: vec![Step::Execute {
            operation: "ctl".into(),
            instructions: ctl_instructions,
            on: cpu,
        }],
    });
    let b = m.add_scenario(Scenario {
        name: "filter".into(),
        stimulus: EventModel::PeriodicJitter {
            period: TimeValue::millis(20),
            jitter: TimeValue::millis(3),
        },
        priority: 1,
        steps: vec![Step::Execute {
            operation: "fir".into(),
            instructions: 4_000,
            on: dsp,
        }],
    });
    m.add_requirement(Requirement {
        name: "control-latency".into(),
        scenario: a,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(0),
        deadline: TimeValue::millis(10),
    });
    m.add_requirement(Requirement {
        name: "filter-latency".into(),
        scenario: b,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(0),
        deadline: TimeValue::millis(20),
    });
    m
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("drive check failed: {what}"))
    }
}

fn drive(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let io = |e: std::io::Error| format!("transport: {e}");
    let wire = |e: tempo_serve::WireError| format!("server error: {e}");

    let model = drive_model(2_000);
    client.load_model(&model).map_err(io)?.map_err(wire)?;

    // A batch covering the requirement set exactly is reported as batched.
    let queries: Vec<Query> = model
        .requirements
        .iter()
        .map(|r| Query::wcrt(&r.name))
        .collect();
    let batch = client
        .query_batch("drive", &queries, &Default::default())
        .map_err(io)?
        .map_err(wire)?;
    expect(
        batch.get("batched").and_then(JsonValue::as_bool) == Some(true),
        "full-cover batch was not reported as batched",
    )?;
    let results = batch
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("batch response has no results")?;
    expect(results.len() == queries.len(), "one result per query")?;
    for r in results {
        expect(
            r.get("ok").and_then(JsonValue::as_bool) == Some(true),
            "batched query succeeded",
        )?;
    }

    // Edit the model in place: a longer control step changes the control
    // cone only, so the filter requirement answers warm.  2 000 → 6 000
    // instructions is 20 µs → 60 µs on the 100-MIPS CPU; both are odd
    // multiples of 20 µs, so the whole-model rational-GCD tick — which is
    // part of every cone — stays put (40 µs would divide every other
    // duration and *raise* the tick, invalidating the filter cone too).
    client
        .edit_model(&drive_model(6_000))
        .map_err(io)?
        .map_err(wire)?;
    let batch2 = client
        .query_batch("drive", &queries, &Default::default())
        .map_err(io)?
        .map_err(wire)?;
    expect(
        batch2.get("batched").and_then(JsonValue::as_bool) == Some(true),
        "post-edit batch reported as batched",
    )?;

    let stats = client.stats().map_err(io)?.map_err(wire)?;
    let hits: i128 = stats
        .get("dbs")
        .and_then(JsonValue::as_array)
        .map(|dbs| {
            dbs.iter()
                .filter_map(|d| d.get("stats")?.get("hits")?.as_i128())
                .sum()
        })
        .unwrap_or(0);
    expect(
        hits >= 1,
        "the untouched filter cone should hit after edit_model",
    )?;
    println!("{}", stats.print());

    client.shutdown().map_err(io)?.map_err(wire)?;
    Ok(())
}
