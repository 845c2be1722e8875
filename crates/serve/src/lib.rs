//! `tempo_serve` — analysis-as-a-service for the tempo workspace.
//!
//! A long-lived daemon wrapping one shared
//! [`AnalysisDb`](tempo_arch::incremental::AnalysisDb) per analysis
//! configuration, speaking a line-oriented JSON protocol (one request or
//! response object per line) over stdin/stdout or TCP.  Holding the database
//! in a process that outlives individual requests is what makes the
//! content-addressed cache pay off: the second client asking about an
//! unchanged subsystem gets its worst-case response times from warm input
//! cones instead of a fresh zone-graph exploration.
//!
//! The crate is dependency-free beyond the workspace: [`json`] is a small
//! parse/print pair for a canonical JSON subset (property-tested for
//! round-trips), and the transport is `std::net` + pipes.
//!
//! Layers, bottom to top:
//!
//! * [`json`] — [`json::JsonValue`], [`json::parse`], canonical
//!   printing (sorted keys, no whitespace).
//! * [`wire`] — conversions between engine-layer types
//!   ([`ArchitectureModel`](tempo_arch::model::ArchitectureModel),
//!   [`Query`](tempo_arch::engine::Query),
//!   [`EngineReport`](tempo_arch::engine::EngineReport), …) and JSON, plus
//!   the typed [`wire::WireError`] every
//!   [`EngineError`](tempo_arch::engine::EngineError) maps onto.
//! * [`protocol`] — request/response/progress framing.
//! * [`server`] — admission control (queries the cache answers in full run
//!   on the connection's reader thread; the rest go through a bounded
//!   worker pool + queue cap, with typed `overloaded` rejection),
//!   cancellation, batching (`query_batch` answers each element as its own
//!   `AnalysisDb::run` query, in one job and one frame, and reports
//!   `batched: true` when the batch covers the requirement set), progress
//!   streaming, and `stats` with database, admission and metrics-registry
//!   snapshots.
//! * [`client`] — a blocking reference client, used by the differential
//!   tests and the benchmark harness.
//!
//! ## A daemon over a pipe pair
//!
//! ```
//! use std::io::BufReader;
//! use tempo_serve::{Client, Server, ServerConfig};
//!
//! // Transport: two unidirectional pipes, as stdio would be.
//! let (c2s_r, c2s_w) = std::io::pipe().unwrap();
//! let (s2c_r, s2c_w) = std::io::pipe().unwrap();
//!
//! let server = Server::new(ServerConfig::default());
//! let handle = server.handle();
//! let conn = std::thread::spawn(move || {
//!     handle.serve_connection(BufReader::new(c2s_r), s2c_w);
//! });
//!
//! let mut client = Client::over(BufReader::new(s2c_r), c2s_w);
//! let mut model = tempo_arch::model::ArchitectureModel::new("doc");
//! let cpu = model.add_processor("CPU", 100,
//!     tempo_arch::model::SchedulingPolicy::FixedPriorityPreemptive);
//! let s = model.add_scenario(tempo_arch::model::Scenario {
//!     name: "s".into(),
//!     stimulus: tempo_arch::model::EventModel::Periodic {
//!         period: tempo_arch::time::TimeValue::millis(10),
//!     },
//!     priority: 1,
//!     steps: vec![tempo_arch::model::Step::Execute {
//!         operation: "op".into(), instructions: 1_000, on: cpu,
//!     }],
//! });
//! model.add_requirement(tempo_arch::model::Requirement {
//!     name: "r".into(),
//!     scenario: s,
//!     from: tempo_arch::model::MeasurePoint::Stimulus,
//!     to: tempo_arch::model::MeasurePoint::AfterStep(0),
//!     deadline: tempo_arch::time::TimeValue::millis(10),
//! });
//!
//! client.load_model(&model).unwrap().unwrap();
//! let report = client
//!     .query("doc", &tempo_arch::engine::Query::wcrt("r"), &Default::default())
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(report.get("engine").and_then(|e| e.as_str()), Some("incremental"));
//! client.shutdown().unwrap().unwrap();
//! drop(client);
//! conn.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{Client, QueryOpts};
pub use json::{parse as parse_json, JsonValue};
pub use protocol::{Request, RequestOpts};
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::WireError;
