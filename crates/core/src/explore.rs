//! Parameter sweeps and design-space exploration.
//!
//! The paper closes by noting that "Uppaal lacks the features that are
//! necessary to conveniently perform a parameter sweep; something that MPA and
//! SymTA/S are capable of".  Because this reproduction owns the whole pipeline
//! (architecture model → timed automata → WCRT), the sweep can be provided at
//! the architecture level: a [`Sweep`] describes the axes to vary (processor
//! capacities, bus bit rates, stimulus periods), the cartesian product of the
//! axes yields one [`DesignPoint`] per configuration, and [`Sweep::run`]
//! analyses every requirement of every point — optionally across worker
//! threads, since the points are independent.
//!
//! Since PR 7 the sweep is a thin driver over the incremental
//! [`AnalysisDb`]: queries whose input cone is unchanged between design
//! points (or between successive sweeps over an edited model, via
//! [`Sweep::run_with`]) answer from cache instead of re-exploring, and
//! [`Sweep::run_with`] threads a [`RunContext`] — budgets, cancellation,
//! progress — into every exploration.
//!
//! ```
//! use tempo_arch::prelude::*;
//! use tempo_arch::explore::Sweep;
//!
//! let mut model = ArchitectureModel::new("sweep-example");
//! let cpu = model.add_processor("CPU", 10, SchedulingPolicy::NonPreemptiveNd);
//! let task = model.add_scenario(Scenario {
//!     name: "task".into(),
//!     stimulus: EventModel::Periodic { period: TimeValue::millis(10) },
//!     priority: 0,
//!     steps: vec![Step::Execute { operation: "work".into(), instructions: 20_000, on: cpu }],
//! });
//! model.add_requirement(Requirement {
//!     name: "latency".into(),
//!     scenario: task,
//!     from: MeasurePoint::Stimulus,
//!     to: MeasurePoint::AfterStep(0),
//!     deadline: TimeValue::millis(5),
//! });
//!
//! let outcome = Sweep::new(model)
//!     .vary_processor_mips("CPU", [5, 10, 20])
//!     .run(&AnalysisConfig::default(), 1)
//!     .unwrap();
//! assert_eq!(outcome.rows.len(), 3);
//! // 20 MIPS meets the 5 ms deadline (1 ms WCRT), 5 MIPS does not (4 ms is
//! // still fine, so only check the fastest point here).
//! assert_eq!(outcome.rows[2].reports[0].meets_deadline, Some(true));
//! ```

use crate::analysis::{AnalysisConfig, ArchError, EntityKind, WcrtReport};
use crate::engine::RunContext;
use crate::incremental::AnalysisDb;
use crate::model::{ArchitectureModel, EventModel};
use crate::time::TimeValue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One axis of a parameter sweep.
#[derive(Clone, Debug)]
pub enum Axis {
    /// Vary the capacity (MIPS) of the named processor.
    ProcessorMips {
        /// Processor name.
        processor: String,
        /// Capacities to try.
        values: Vec<u64>,
    },
    /// Vary the bit rate of the named bus.
    BusBitRate {
        /// Bus name.
        bus: String,
        /// Bit rates to try.
        values: Vec<u64>,
    },
    /// Vary the primary period parameter of the named scenario's stimulus
    /// (the period of periodic/jittered/bursty models, the minimal
    /// inter-arrival time of sporadic models).
    StimulusPeriod {
        /// Scenario name.
        scenario: String,
        /// Periods to try.
        values: Vec<TimeValue>,
    },
}

impl Axis {
    fn len(&self) -> usize {
        match self {
            Axis::ProcessorMips { values, .. } => values.len(),
            Axis::BusBitRate { values, .. } => values.len(),
            Axis::StimulusPeriod { values, .. } => values.len(),
        }
    }

    /// Applies the `index`-th value of this axis to the model and returns the
    /// label fragment describing it.
    fn apply(&self, model: &mut ArchitectureModel, index: usize) -> Result<String, ArchError> {
        match self {
            Axis::ProcessorMips { processor, values } => {
                let p = model
                    .processors
                    .iter_mut()
                    .find(|p| &p.name == processor)
                    .ok_or_else(|| ArchError::UnknownEntity {
                        kind: EntityKind::Processor,
                        name: processor.clone(),
                    })?;
                p.mips = values[index];
                Ok(format!("{processor}={} MIPS", values[index]))
            }
            Axis::BusBitRate { bus, values } => {
                let b = model
                    .buses
                    .iter_mut()
                    .find(|b| &b.name == bus)
                    .ok_or_else(|| ArchError::UnknownEntity {
                        kind: EntityKind::Bus,
                        name: bus.clone(),
                    })?;
                b.bits_per_second = values[index];
                Ok(format!("{bus}={} bit/s", values[index]))
            }
            Axis::StimulusPeriod { scenario, values } => {
                let s = model
                    .scenarios
                    .iter_mut()
                    .find(|s| &s.name == scenario)
                    .ok_or_else(|| ArchError::UnknownEntity {
                        kind: EntityKind::Scenario,
                        name: scenario.clone(),
                    })?;
                let v = values[index];
                match &mut s.stimulus {
                    EventModel::PeriodicOffset { period, .. }
                    | EventModel::Periodic { period }
                    | EventModel::PeriodicJitter { period, .. }
                    | EventModel::Burst { period, .. } => *period = v,
                    EventModel::Sporadic { min_interarrival } => *min_interarrival = v,
                }
                Ok(format!("{scenario} period={v}"))
            }
        }
    }
}

/// One configuration of the design space: a label plus the concrete model.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Human-readable description of the axis values of this point.
    pub label: String,
    /// The concrete architecture model.
    pub model: ArchitectureModel,
}

/// The analysed results of one design point.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// The design point's label.
    pub label: String,
    /// One report per analysed requirement, in requirement order.
    pub reports: Vec<WcrtReport>,
}

impl SweepRow {
    /// `true` iff every analysed requirement is known to meet its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.reports
            .iter()
            .all(|r| r.meets_deadline == Some(true))
    }
}

/// The complete outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Names of the analysed requirements (column order of
    /// [`SweepRow::reports`]).
    pub requirements: Vec<String>,
    /// One row per design point, in cartesian-product order.
    pub rows: Vec<SweepRow>,
}

impl SweepOutcome {
    /// The feasible points (all deadlines met).
    pub fn feasible(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| r.all_deadlines_met())
    }

    /// The feasible point minimising the given cost function, if any.
    pub fn cheapest_feasible<C: Fn(&SweepRow) -> f64>(&self, cost: C) -> Option<&SweepRow> {
        self.feasible()
            .min_by(|a, b| cost(a).partial_cmp(&cost(b)).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Renders the outcome as a plain-text table (one row per point, one
    /// column per requirement, WCRT in milliseconds).
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<44}", "design point"));
        for r in &self.requirements {
            out.push_str(&format!(" | {r:>24}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(44 + self.requirements.len() * 27));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<44}", row.label));
            for rep in &row.reports {
                let cell = match (rep.wcrt, rep.lower_bound) {
                    (Some(w), _) => format!("{:.3} ms", w.as_millis_f64()),
                    (None, Some(lb)) => format!("> {:.3} ms", lb.as_millis_f64()),
                    (None, None) => "n/a".to_string(),
                };
                let mark = match rep.meets_deadline {
                    Some(true) => "",
                    Some(false) => " !",
                    None => " ?",
                };
                out.push_str(&format!(" | {:>24}", format!("{cell}{mark}")));
            }
            out.push('\n');
        }
        out
    }
}

/// A parameter sweep over an architecture model.
#[derive(Clone, Debug)]
pub struct Sweep {
    base: ArchitectureModel,
    axes: Vec<Axis>,
    requirements: Option<Vec<String>>,
}

impl Sweep {
    /// Starts a sweep from a base model.
    pub fn new(base: ArchitectureModel) -> Sweep {
        Sweep {
            base,
            axes: Vec::new(),
            requirements: None,
        }
    }

    /// Adds an axis varying a processor's capacity.
    pub fn vary_processor_mips(
        mut self,
        processor: impl Into<String>,
        values: impl IntoIterator<Item = u64>,
    ) -> Sweep {
        self.axes.push(Axis::ProcessorMips {
            processor: processor.into(),
            values: values.into_iter().collect(),
        });
        self
    }

    /// Adds an axis varying a bus's bit rate.
    pub fn vary_bus_bit_rate(
        mut self,
        bus: impl Into<String>,
        values: impl IntoIterator<Item = u64>,
    ) -> Sweep {
        self.axes.push(Axis::BusBitRate {
            bus: bus.into(),
            values: values.into_iter().collect(),
        });
        self
    }

    /// Adds an axis varying a scenario's stimulus period.
    pub fn vary_stimulus_period(
        mut self,
        scenario: impl Into<String>,
        values: impl IntoIterator<Item = TimeValue>,
    ) -> Sweep {
        self.axes.push(Axis::StimulusPeriod {
            scenario: scenario.into(),
            values: values.into_iter().collect(),
        });
        self
    }

    /// Adds a raw axis.
    pub fn with_axis(mut self, axis: Axis) -> Sweep {
        self.axes.push(axis);
        self
    }

    /// Restricts the analysis to the named requirements (default: all
    /// requirements of the model, in declaration order).
    pub fn requirements(mut self, names: impl IntoIterator<Item = String>) -> Sweep {
        self.requirements = Some(names.into_iter().collect());
        self
    }

    /// The cartesian product of all axes as concrete design points.
    pub fn points(&self) -> Result<Vec<DesignPoint>, ArchError> {
        let mut points = Vec::new();
        let sizes: Vec<usize> = self.axes.iter().map(Axis::len).collect();
        if sizes.contains(&0) {
            return Ok(points);
        }
        let total: usize = sizes.iter().product::<usize>().max(1);
        for mut flat in 0..total {
            let mut model = self.base.clone();
            let mut labels = Vec::new();
            for (axis, &size) in self.axes.iter().zip(&sizes) {
                let idx = flat % size;
                flat /= size;
                labels.push(axis.apply(&mut model, idx)?);
            }
            let label = if labels.is_empty() {
                "base".to_string()
            } else {
                labels.join(", ")
            };
            // Each point gets a distinct model name: the name is the logical
            // identity under which the incremental database tracks a query's
            // cone across successive sweeps, so "the same design point after
            // a base-model edit" must map to the same name while two
            // different points must not.
            model.name = format!("{}::{label}", self.base.name);
            points.push(DesignPoint { label, model });
        }
        Ok(points)
    }

    /// Runs the sweep: analyses every requirement of every design point.
    ///
    /// Thin driver over a throwaway [`AnalysisDb`]: even within one sweep the
    /// cache pays off, since the cartesian product re-visits each axis value
    /// many times and design points share most of their input cones.  To keep
    /// the cache warm *across* sweeps (the edit–re-sweep loop of interactive
    /// design-space exploration), hold an [`AnalysisDb`] and call
    /// [`Sweep::run_with`].
    ///
    /// `workers` bounds the number of concurrently analysed points (each
    /// point's analysis is independent); `0` selects the machine's available
    /// parallelism.
    pub fn run(&self, cfg: &AnalysisConfig, workers: usize) -> Result<SweepOutcome, ArchError> {
        self.run_with(&AnalysisDb::new(cfg.clone()), workers, &RunContext::default())
    }

    /// Runs the sweep against a shared [`AnalysisDb`], threading a
    /// [`RunContext`] (wall-clock/state budgets, cooperative cancellation,
    /// progress callbacks) into every exploration.
    ///
    /// Queries whose input cone is already cached answer without exploring;
    /// [`AnalysisDb::stats`] shows the hit/miss split afterwards.  A set
    /// cancellation flag surfaces as
    /// [`ArchError::Check`]`(`[`CheckError::Cancelled`](tempo_check::CheckError::Cancelled)`)`.
    pub fn run_with(
        &self,
        db: &AnalysisDb,
        workers: usize,
        ctx: &RunContext,
    ) -> Result<SweepOutcome, ArchError> {
        let points = self.points()?;
        let requirement_names: Vec<String> = match &self.requirements {
            Some(names) => names.clone(),
            None => self.base.requirements.iter().map(|r| r.name.clone()).collect(),
        };
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        }
        .min(points.len().max(1));

        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<SweepRow, ArchError>>>> =
            points.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let point = &points[i];
                    let mut reports = Vec::with_capacity(requirement_names.len());
                    let mut error = None;
                    for name in &requirement_names {
                        match db.wcrt_in(&point.model, name, ctx) {
                            Ok(rep) => reports.push(rep),
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    let row = match error {
                        Some(e) => Err(e),
                        None => Ok(SweepRow {
                            label: point.label.clone(),
                            reports,
                        }),
                    };
                    *results[i].lock().expect("sweep result lock") = Some(row);
                });
            }
        });

        let mut rows = Vec::with_capacity(points.len());
        for cell in results {
            match cell.into_inner().expect("sweep result lock") {
                Some(Ok(row)) => rows.push(row),
                Some(Err(e)) => return Err(e),
                None => unreachable!("every sweep point is processed"),
            }
        }
        Ok(SweepOutcome {
            requirements: requirement_names,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step};

    fn base_model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("dse");
        let cpu = m.add_processor("CPU", 10, SchedulingPolicy::NonPreemptiveNd);
        let bus = m.add_bus("BUS", 80_000, crate::model::BusArbitration::FcfsNd);
        let sid = m.add_scenario(Scenario {
            name: "task".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(20),
            },
            priority: 0,
            steps: vec![
                Step::Execute {
                    operation: "work".into(),
                    instructions: 20_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: "result".into(),
                    bytes: 20,
                    over: bus,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: "latency".into(),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(5),
        });
        m
    }

    #[test]
    fn cartesian_product_of_axes() {
        let sweep = Sweep::new(base_model())
            .vary_processor_mips("CPU", [5, 10, 20])
            .vary_bus_bit_rate("BUS", [40_000, 80_000]);
        let points = sweep.points().unwrap();
        assert_eq!(points.len(), 6);
        // Labels mention both axes and all combinations are distinct.
        let labels: std::collections::HashSet<_> =
            points.iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels.len(), 6);
        assert!(points[0].label.contains("CPU=5 MIPS"));
        assert!(points[0].label.contains("BUS=40000 bit/s"));
    }

    #[test]
    fn empty_axis_list_yields_the_base_point() {
        let sweep = Sweep::new(base_model());
        let points = sweep.points().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "base");
    }

    #[test]
    fn unknown_axis_target_is_an_error() {
        let sweep = Sweep::new(base_model()).vary_processor_mips("GPU", [1]);
        assert!(sweep.points().is_err());
    }

    #[test]
    fn unknown_axis_targets_name_their_entity_kind() {
        let cases = [
            (
                Sweep::new(base_model()).vary_processor_mips("GPU", [1]),
                EntityKind::Processor,
                "GPU",
            ),
            (
                Sweep::new(base_model()).vary_bus_bit_rate("CAN", [1]),
                EntityKind::Bus,
                "CAN",
            ),
            (
                Sweep::new(base_model())
                    .vary_stimulus_period("ghost", [TimeValue::millis(1)]),
                EntityKind::Scenario,
                "ghost",
            ),
        ];
        for (sweep, expected_kind, expected_name) in cases {
            let err = sweep.points().unwrap_err();
            let ArchError::UnknownEntity { kind, name } = &err else {
                panic!("expected UnknownEntity, got {err}");
            };
            assert_eq!(*kind, expected_kind);
            assert_eq!(name, expected_name);
            // The message names the kind and the entity, not a pseudo
            // requirement.
            let msg = err.to_string();
            assert!(msg.contains(&format!("unknown {expected_kind} `{expected_name}`")), "{msg}");
        }
    }

    #[test]
    fn warm_database_reruns_strictly_fewer_queries() {
        let sweep = Sweep::new(base_model()).vary_processor_mips("CPU", [5, 10, 20]);
        let db = AnalysisDb::new(AnalysisConfig::default());
        let cold = sweep.run_with(&db, 1, &RunContext::default()).unwrap();
        let cold_stats = db.stats();
        assert_eq!(cold_stats.misses, 3);
        // Same sweep again: every cone is cached, nothing re-explores.
        db.reset_stats();
        let warm = sweep.run_with(&db, 1, &RunContext::default()).unwrap();
        let warm_stats = db.stats();
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.hits, 3);
        for (a, b) in cold.rows.iter().zip(&warm.rows) {
            assert_eq!(a.reports[0].wcrt, b.reports[0].wcrt);
        }
        // Re-running the identical sweep is a no-op edit per design point:
        // same cones, so nothing is invalidated either.
        db.reset_stats();
        sweep.run_with(&db, 1, &RunContext::default()).unwrap();
        assert_eq!(db.stats().invalidations, 0);
    }

    #[test]
    fn cancelled_context_aborts_the_sweep() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let sweep = Sweep::new(base_model()).vary_processor_mips("CPU", [5, 10, 20]);
        let ctx = RunContext {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..RunContext::default()
        };
        let err = sweep
            .run_with(&AnalysisDb::new(AnalysisConfig::default()), 1, &ctx)
            .unwrap_err();
        assert!(
            matches!(err, ArchError::Check(tempo_check::CheckError::Cancelled)),
            "{err}"
        );
    }

    #[test]
    fn wcrt_is_monotone_in_processor_speed() {
        let outcome = Sweep::new(base_model())
            .vary_processor_mips("CPU", [5, 10, 20, 40])
            .run(&AnalysisConfig::default(), 2)
            .unwrap();
        assert_eq!(outcome.rows.len(), 4);
        let wcrts: Vec<f64> = outcome
            .rows
            .iter()
            .map(|r| r.reports[0].wcrt_ms().expect("exact"))
            .collect();
        for pair in wcrts.windows(2) {
            assert!(pair[0] >= pair[1], "faster CPU must not increase WCRT: {wcrts:?}");
        }
        // The fastest configuration meets the 5 ms deadline, the slowest does
        // not (4 ms execution + 2 ms transfer).
        assert!(outcome.rows[3].all_deadlines_met());
        assert!(!outcome.rows[0].all_deadlines_met());
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let sweep = Sweep::new(base_model())
            .vary_processor_mips("CPU", [5, 10])
            .vary_bus_bit_rate("BUS", [40_000, 160_000]);
        let seq = sweep.run(&AnalysisConfig::default(), 1).unwrap();
        let par = sweep.run(&AnalysisConfig::default(), 4).unwrap();
        assert_eq!(seq.rows.len(), par.rows.len());
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.reports[0].wcrt, b.reports[0].wcrt);
        }
    }

    #[test]
    fn cheapest_feasible_point_balances_cost_and_deadlines() {
        let outcome = Sweep::new(base_model())
            .vary_processor_mips("CPU", [5, 10, 20, 40])
            .run(&AnalysisConfig::default(), 0)
            .unwrap();
        // Cost = MIPS (extracted from the label); the cheapest feasible point
        // is the slowest CPU that still meets the deadline.
        let cheapest = outcome
            .cheapest_feasible(|row| {
                row.label
                    .trim_start_matches("CPU=")
                    .trim_end_matches(" MIPS")
                    .parse::<f64>()
                    .unwrap()
            })
            .expect("at least one feasible point");
        assert!(cheapest.all_deadlines_met());
        let mips: f64 = cheapest
            .label
            .trim_start_matches("CPU=")
            .trim_end_matches(" MIPS")
            .parse()
            .unwrap();
        // 10 MIPS: 2 ms execution + 2 ms transfer = 4 ms < 5 ms deadline.
        assert_eq!(mips, 10.0);
        // And the rendered table mentions every design point.
        let table = outcome.to_table_string();
        for row in &outcome.rows {
            assert!(table.contains(&row.label));
        }
    }

    #[test]
    fn stimulus_period_axis_rewrites_the_event_model() {
        let sweep = Sweep::new(base_model()).vary_stimulus_period(
            "task",
            [TimeValue::millis(10), TimeValue::millis(40)],
        );
        let points = sweep.points().unwrap();
        assert_eq!(points.len(), 2);
        let EventModel::Periodic { period } = points[1].model.scenarios[0].stimulus else {
            panic!("stimulus kind must be preserved");
        };
        assert_eq!(period, TimeValue::millis(40));
    }
}
