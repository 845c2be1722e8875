//! The workload inputs and the answer fixture.
//!
//! Everything a workload asks is defined here, not borrowed from the
//! repository's bench helpers, so that a change to the program cannot change
//! what the benchmark asks.  Only the case-study *constructor*
//! ([`radio_navigation`]) is the program's own: it is the paper's model, and
//! the fixture below catches any change to what it builds.

use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::model::{
    ArchitectureModel, BusArbitration, EventModel, MeasurePoint, Requirement, Scenario,
    SchedulingPolicy, Step,
};
use tempo_arch::TimeValue;

/// The paper's deployment (Section 2) with both user streams slowed 8× —
/// the key presses every 250 ms, the address lookups every 8 s — which keeps
/// all of Table 1 but `bur` decidable within the benchmark's state budget.
pub fn case_study_params() -> CaseStudyParams {
    CaseStudyParams {
        mmi_mips: 22,
        rad_mips: 11,
        nav_mips: 113,
        bus_bps: 72_000,
        cpu_policy: SchedulingPolicy::FixedPriorityPreemptive,
        bus_arbitration: BusArbitration::FixedPriority,
        volume_period: TimeValue::millis(250),
        lookup_period: TimeValue::seconds(8),
        tmc_period: TimeValue::seconds(3),
    }
}

/// The five requirement rows of Table 1.
pub const TABLE1_ROWS: [&str; 5] = [
    "HandleTMC (+ ChangeVolume)",
    "HandleTMC (+ AddressLookup)",
    "K2A (ChangeVolume + HandleTMC)",
    "A2V (ChangeVolume + HandleTMC)",
    "AddressLookup (+ HandleTMC)",
];

/// The ChangeVolume model's fourth requirement, which Table 1 omits but a
/// full-cover batch asks.
pub const K2V: &str = "K2V (ChangeVolume + HandleTMC)";

/// Expected WCRTs in milliseconds, rounded to three decimals, in
/// [`TABLE1_ROWS`] order and then `K2V` (`NaN` where no workload asks).
const FIXTURE: [(EventModelColumn, [f64; 6]); 5] = [
    (
        EventModelColumn::PeriodicOffsetZero,
        [181.197, 172.106, 14.081, 23.172, 78.632, 37.253],
    ),
    (
        EventModelColumn::PeriodicUnknownOffset,
        [199.379, 235.526, 21.192, 30.283, 85.743, 44.364],
    ),
    (
        EventModelColumn::Sporadic,
        [199.379, 235.526, 21.192, 30.283, 85.743, 44.364],
    ),
    (
        EventModelColumn::PeriodicJitter,
        [299.379, 326.435, 21.192, 30.283, 92.854, 44.364],
    ),
    (
        EventModelColumn::Burst,
        [390.288, 417.344, 21.192, 30.283, 92.854, f64::NAN],
    ),
];

/// How far an exact answer may sit from its three-decimal fixture value.
pub const FIXTURE_TOLERANCE_MS: f64 = 0.0005;

/// The fixture value of `requirement` in `column`.
pub fn expected_ms(column: EventModelColumn, requirement: &str) -> Option<f64> {
    let (_, values) = FIXTURE.iter().find(|(c, _)| *c == column)?;
    let idx = TABLE1_ROWS
        .iter()
        .position(|r| *r == requirement)
        .or((requirement == K2V).then_some(5))?;
    Some(values[idx]).filter(|v| !v.is_nan())
}

/// Short column label, as in the paper's Table 1 header.
pub fn column_label(column: EventModelColumn) -> &'static str {
    match column {
        EventModelColumn::PeriodicOffsetZero => "po",
        EventModelColumn::PeriodicUnknownOffset => "pno",
        EventModelColumn::Sporadic => "sp",
        EventModelColumn::PeriodicJitter => "pj",
        EventModelColumn::Burst => "bur",
    }
}

/// One question a workload asks: a requirement of a loaded model and the
/// answer the fixture expects.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Name of the loaded model.
    pub model: String,
    /// Requirement name.
    pub requirement: String,
    /// Fixture WCRT in milliseconds.
    pub expected_ms: f64,
    /// Short label for reports, e.g. `pj/K2A (ChangeVolume + HandleTMC)`.
    pub label: String,
}

/// The case-study models of `columns` (both scenario pairs each) and their
/// cells: the Table 1 rows only, or every requirement (`all_requirements`,
/// which adds `K2V`).
pub fn case_study(
    columns: &[EventModelColumn],
    all_requirements: bool,
) -> (Vec<ArchitectureModel>, Vec<Cell>) {
    let params = case_study_params();
    let mut models = Vec::new();
    let mut cells = Vec::new();
    for &column in columns {
        for combo in [
            ScenarioCombo::ChangeVolumeWithTmc,
            ScenarioCombo::AddressLookupWithTmc,
        ] {
            let model = radio_navigation(combo, column, &params);
            for req in &model.requirements {
                let in_table1 = TABLE1_ROWS.contains(&req.name.as_str());
                if !(in_table1 || all_requirements) {
                    continue;
                }
                let expected_ms = expected_ms(column, &req.name)
                    .unwrap_or_else(|| panic!("no fixture value for {}", req.name));
                cells.push(Cell {
                    model: model.name.clone(),
                    requirement: req.name.clone(),
                    expected_ms,
                    label: format!("{}/{}", column_label(column), req.name),
                });
            }
            models.push(model);
        }
    }
    (models, cells)
}

/// The stimulus periods, in milliseconds, of each sweep axis.
pub const SWEEP_PERIODS: std::ops::RangeInclusive<i128> = 20..=51;

/// The sweep model: two independent subsystems `A` and `B`, each a jittered
/// (16 ms) three-stage chain of 1 + 3 + 2 ms on its own 1-MIPS processor.
/// `rA`'s cone holds only subsystem `A`, so a design point re-explores only
/// the subsystems whose period it changed.  Every duration is a whole
/// millisecond, so the quantizer tick never moves across the sweep.
pub fn sweep_point(name: &str, period_a: i128, period_b: i128) -> ArchitectureModel {
    let mut m = ArchitectureModel::new(name);
    for (i, (label, period)) in [("A", period_a), ("B", period_b)].into_iter().enumerate() {
        let cpu = m.add_processor(
            format!("CPU_{label}"),
            1,
            SchedulingPolicy::FixedPriorityPreemptive,
        );
        let steps = [("stage1", 1_000), ("stage2", 3_000), ("stage3", 2_000)]
            .into_iter()
            .map(|(op, instructions)| Step::Execute {
                operation: format!("{op}{label}"),
                instructions,
                on: cpu,
            })
            .collect();
        let scenario = m.add_scenario(Scenario {
            name: format!("s{label}"),
            stimulus: EventModel::PeriodicJitter {
                period: TimeValue::millis(period),
                jitter: TimeValue::millis(16),
            },
            priority: i as u32,
            steps,
        });
        m.add_requirement(Requirement {
            name: format!("r{label}"),
            scenario,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(2),
            deadline: TimeValue::millis(80),
        });
    }
    m
}

/// Fixture WCRT of either sweep requirement at stimulus period `period` ms:
/// a short period lets the 16 ms jitter queue a second activation.
pub fn sweep_expected_ms(period: i128) -> f64 {
    match period {
        20 => 10.0,
        21 => 7.0,
        _ => 6.0,
    }
}

/// Name of the warm-up model and its one requirement.
pub const WARMUP_MODEL: &str = "warmup";
/// See [`WARMUP_MODEL`].
pub const WARMUP_REQUIREMENT: &str = "tick-latency";
/// Fixture WCRT of the warm-up requirement: a lone 2 ms task.
pub const WARMUP_EXPECTED_MS: f64 = 2.0;

/// A one-task model whose cone shares nothing with any workload model: its
/// query runs the whole request path (and the first exploration) before the
/// timed phase without warming a cone the timed phase asks.
pub fn warmup_model() -> ArchitectureModel {
    let mut m = ArchitectureModel::new(WARMUP_MODEL);
    let cpu = m.add_processor("CPU", 10, SchedulingPolicy::FixedPriorityPreemptive);
    let scenario = m.add_scenario(Scenario {
        name: "tick".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(10),
        },
        priority: 0,
        steps: vec![Step::Execute {
            operation: "work".into(),
            instructions: 20_000,
            on: cpu,
        }],
    });
    m.add_requirement(Requirement {
        name: WARMUP_REQUIREMENT.into(),
        scenario,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(0),
        deadline: TimeValue::millis(10),
    });
    m
}

/// SplitMix64: the seeded generator behind every order and mix.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (episode, client).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_arch::engine::{Engine, EngineError, Query, RunContext};

    /// Runs `engine` and returns its bound in ms, or `None` where the engine
    /// declines the model (the analytic engines' documented caveats).
    fn bound_ms(engine: &dyn Engine, model: &ArchitectureModel, requirement: &str) -> Option<f64> {
        match engine.run(model, &Query::wcrt(requirement), &RunContext::default()) {
            Ok(report) => {
                let row = report.estimate_for(requirement).expect("estimate row");
                Some(row.estimate.as_millis_f64())
            }
            Err(EngineError::Unsupported { .. }) => None,
            Err(e) => panic!("{} failed on {requirement}: {e}", engine.name()),
        }
    }

    /// Checks `sim ≤ expected ≤ analytic` for one fixture value with engines
    /// that share no code with the exact checker.
    fn assert_bracketed(model: &ArchitectureModel, requirement: &str, expected: f64) {
        let sim = tempo_sim::SimEngine::default();
        let lower = bound_ms(&sim, model, requirement).expect("simulation never declines");
        assert!(
            lower <= expected + FIXTURE_TOLERANCE_MS,
            "{requirement}: simulation saw {lower} ms above the fixture's {expected} ms"
        );
        let analytic: [&dyn Engine; 2] = [&tempo_symta::SymtaEngine, &tempo_rtc::RtcEngine];
        for engine in analytic {
            if let Some(upper) = bound_ms(engine, model, requirement) {
                assert!(
                    upper + FIXTURE_TOLERANCE_MS >= expected,
                    "{requirement}: {} bound {upper} ms below the fixture's {expected} ms",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn case_study_fixture_is_bracketed_by_the_independent_engines() {
        let (models, cells) = case_study(&EventModelColumn::all(), false);
        assert_eq!(cells.len(), 25);
        let (_, warm_cells) = case_study(
            &[
                EventModelColumn::PeriodicOffsetZero,
                EventModelColumn::PeriodicUnknownOffset,
                EventModelColumn::Sporadic,
                EventModelColumn::PeriodicJitter,
            ],
            true,
        );
        for cell in cells.iter().chain(&warm_cells) {
            let model = models.iter().find(|m| m.name == cell.model).expect("model");
            assert_bracketed(model, &cell.requirement, cell.expected_ms);
        }
    }

    #[test]
    fn sweep_and_warmup_fixtures_are_bracketed_by_the_independent_engines() {
        for period in SWEEP_PERIODS {
            let model = sweep_point("sweep", period, 51 - (period - 20));
            assert_bracketed(&model, "rA", sweep_expected_ms(period));
            assert_bracketed(&model, "rB", sweep_expected_ms(51 - (period - 20)));
        }
        assert_bracketed(&warmup_model(), WARMUP_REQUIREMENT, WARMUP_EXPECTED_MS);
    }

    #[test]
    fn a_seed_always_produces_the_same_permutation() {
        let shuffled = |seed| {
            let mut items: Vec<u32> = (0..1024).collect();
            Rng::new(seed, 3).shuffle(&mut items);
            items
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1024).collect::<Vec<_>>());
        // Streams of one seed are decorrelated.
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
    }
}
