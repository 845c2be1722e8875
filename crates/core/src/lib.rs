//! # tempo-arch — architecture-level performance modeling and analysis
//!
//! This crate is the reproduction of the *primary contribution* of
//! Hendriks & Verhoef, *Timed Automata Based Analysis of Embedded System
//! Architectures* (IPPS 2006): a front-end in which embedded system
//! architectures are described at the level of annotated UML sequence
//! diagrams plus a deployment diagram, and which automatically derives a
//! network of timed automata whose exact worst-case response times are then
//! computed by the [`tempo_check`] model checker.
//!
//! The crate is organised as follows:
//!
//! * [`time`] — exact rational durations and quantization to integer model
//!   time,
//! * [`model`] — the architecture model: processors, buses, scenarios
//!   (sequence diagrams with WCETs, message sizes and event models) and
//!   latency requirements,
//! * [`generator`] — the automatic translation into timed automata following
//!   the paper's patterns (resource, bus, environment and observer automata),
//! * [`analysis`] — the WCRT analysis driver (one-pass supremum extraction
//!   and the paper's binary-search procedure),
//! * [`engine`] — the typed query surface ([`engine::Query`],
//!   [`engine::Engine`], [`engine::Portfolio`]) every workload flows through,
//! * [`incremental`] — the memoizing [`incremental::AnalysisDb`], the one
//!   cache and query dispatcher of the exact analysis: derived artifacts
//!   keyed by input-cone content hashes, for interactive-latency
//!   design-space exploration,
//! * [`casestudy`] — the in-car radio navigation system of the paper.
//!
//! ## Example
//!
//! ```
//! use tempo_arch::prelude::*;
//!
//! // Describe a small architecture: one 10-MIPS CPU running a periodic task.
//! let mut model = ArchitectureModel::new("example");
//! let cpu = model.add_processor("CPU", 10, SchedulingPolicy::NonPreemptiveNd);
//! let task = model.add_scenario(Scenario {
//!     name: "sensor".into(),
//!     stimulus: EventModel::Periodic { period: TimeValue::millis(10) },
//!     priority: 0,
//!     steps: vec![Step::Execute {
//!         operation: "filter".into(),
//!         instructions: 20_000, // 2 ms at 10 MIPS
//!         on: cpu,
//!     }],
//! });
//! model.add_requirement(Requirement {
//!     name: "sensor latency".into(),
//!     scenario: task,
//!     from: MeasurePoint::Stimulus,
//!     to: MeasurePoint::AfterStep(0),
//!     deadline: TimeValue::millis(10),
//! });
//!
//! // Exact WCRT via the timed-automata analysis.
//! let db = AnalysisDb::new(AnalysisConfig::default());
//! let report = db.wcrt(&model, "sensor latency").unwrap();
//! assert_eq!(report.wcrt, Some(TimeValue::millis(2)));
//! assert_eq!(report.meets_deadline, Some(true));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod casestudy;
pub mod engine;
pub mod explore;
pub mod generator;
pub mod incremental;
pub mod model;
pub mod time;
pub mod transform;

pub use analysis::{
    analyze_generated, analyze_requirement_binary_search, AnalysisConfig, EntityKind, WcrtReport,
};
pub use engine::{
    ComparisonReport, Engine, EngineError, EngineReport, Estimate, Portfolio, Query,
    RequirementEstimate, RunContext, TaEngine,
};
pub use explore::{DesignPoint, Sweep, SweepOutcome, SweepRow};
pub use incremental::{AnalysisDb, DbStats};
pub use generator::{generate, GeneratedModel, GeneratorOptions, ObserverRefs};
pub use model::{
    ArchitectureModel, Bus, BusArbitration, BusId, EventModel, MeasurePoint, ModelError,
    Processor, ProcessorId, Requirement, Scenario, ScenarioId, SchedulingPolicy, Step,
};
pub use tempo_check::{SearchOptions, SearchProgress};
pub use time::{Quantizer, TimeValue};
pub use transform::fragment_transfers;

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use crate::analysis::{analyze_requirement_binary_search, AnalysisConfig, WcrtReport};
    pub use crate::incremental::{AnalysisDb, DbStats};
    pub use crate::casestudy::{
        radio_navigation, radio_navigation_variant, ArchitectureVariant, CaseStudyParams,
        EventModelColumn, ScenarioCombo,
    };
    pub use crate::engine::{
        Engine, EngineReport, Estimate, Portfolio, Query, RunContext, TaEngine,
    };
    pub use crate::generator::{generate, GeneratorOptions};
    pub use crate::model::{
        ArchitectureModel, BusArbitration, EventModel, MeasurePoint, Requirement, Scenario,
        SchedulingPolicy, Step,
    };
    pub use crate::explore::{Sweep, SweepOutcome};
    pub use crate::time::TimeValue;
    pub use crate::transform::fragment_transfers;
    pub use tempo_check::SearchOptions;
}
