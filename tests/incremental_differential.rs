//! Differential tests of the incremental analysis database: memoization by
//! input-cone hash must be invisible in every observable result.
//!
//! Three obligations:
//!
//! * a cold [`AnalysisDb`] answers exactly like the uncached reference
//!   analysis (a fresh network and exploration per requirement) for every
//!   model of the pseudo-random corpus plus the TDMA and burst fixtures,
//! * after a single-field edit, re-running every query against the *same*
//!   database still matches the uncached reference on the edited model, and the
//!   hit/miss counters prove that queries whose input cone the edit did not
//!   touch were answered from the cache (not silently recomputed),
//! * a no-op "edit" (rebuilding the identical model) invalidates nothing,
//! * a design-space sweep collapses onto its distinct cones: the hit/miss
//!   counts of a cold pass, a warm re-run and a one-island edit are exact,
//! * the cone is what a miss explores: appending an island that shares no
//!   resource changes no answer and no stored-state count, and a measured
//!   network shares no variable, clock or channel (but `hurry`) with the
//!   automata it leaves out.

mod common;

use common::{burst_model, random_model, reference_wcrt, tdma_model};
use std::collections::BTreeSet;
use tempo::arch::prelude::*;
use tempo::arch::Quantizer;
use tempo::ta::{Automaton, System, VarId};

/// Database/uncached-reference agreement on everything a user can observe.
fn assert_matches_reference(db: &AnalysisDb, model: &ArchitectureModel) {
    for req in &model.requirements {
        let incremental = db.wcrt(model, &req.name).unwrap();
        let fresh = reference_wcrt(model, &req.name, db.config());
        assert_eq!(
            incremental.wcrt, fresh.wcrt,
            "{}/{}: incremental WCRT differs from the uncached reference",
            model.name, req.name
        );
        assert_eq!(
            incremental.lower_bound, fresh.lower_bound,
            "{}/{}: lower bound differs",
            model.name, req.name
        );
        assert_eq!(
            incremental.meets_deadline, fresh.meets_deadline,
            "{}/{}: deadline verdict differs",
            model.name, req.name
        );
    }
}

#[test]
fn cold_database_matches_fresh_sessions_across_the_corpus() {
    let db = AnalysisDb::new(AnalysisConfig::default());
    let mut models: Vec<ArchitectureModel> = (0..6).map(random_model).collect();
    models.push(tdma_model());
    models.push(burst_model());
    let mut expected_misses = 0u64;
    for model in &models {
        assert_matches_reference(&db, model);
        expected_misses += model.requirements.len() as u64;
    }
    let stats = db.stats();
    assert_eq!(stats.misses, expected_misses, "every cold query must miss");
    assert_eq!(stats.invalidations, 0, "nothing was ever edited");
    assert!(
        stats.generation_nanos > 0,
        "cold misses must accumulate network-generation time"
    );
    assert!(
        stats.exploration_nanos > 0,
        "cold misses must accumulate exploration time"
    );
}

/// A two-subsystem model in which the two requirements' input cones are
/// disjoint: each scenario runs alone on its own processor, and a 1 ms step
/// on each side anchors the whole-model quantizer tick so that on-grid edits
/// to one subsystem cannot reach the other requirement's cone through the
/// shared quantization.
fn disjoint_cones_model() -> ArchitectureModel {
    let mut m = ArchitectureModel::new("edit-fixture");
    for (i, policy) in [
        SchedulingPolicy::FixedPriorityPreemptive,
        SchedulingPolicy::NonPreemptiveNd,
    ]
    .into_iter()
    .enumerate()
    {
        let cpu = m.add_processor(format!("CPU{i}"), 1, policy);
        let sid = m.add_scenario(Scenario {
            name: format!("s{i}"),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(20),
            },
            priority: i as u32,
            steps: vec![
                Step::Execute {
                    operation: format!("anchor{i}"),
                    instructions: 1_000, // 1 ms at 1 MIPS
                    on: cpu,
                },
                Step::Execute {
                    operation: format!("work{i}"),
                    instructions: 3_000,
                    on: cpu,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: format!("r{i}"),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(20),
        });
    }
    m
}

#[test]
fn single_field_edit_matches_fresh_run_and_untouched_queries_hit() {
    let db = AnalysisDb::new(AnalysisConfig::default());
    let original = disjoint_cones_model();
    assert_matches_reference(&db, &original);
    assert_eq!(db.stats().misses, 2);

    // One field changes: the second subsystem's work step grows from 3 ms to
    // 5 ms (staying on the 1 ms grid, so the shared tick is unchanged).
    let mut edited = original.clone();
    match &mut edited.scenarios[1].steps[1] {
        Step::Execute { instructions, .. } => *instructions = 5_000,
        step => panic!("fixture changed: expected an Execute step, got {step:?}"),
    }

    db.reset_stats();
    assert_matches_reference(&db, &edited);
    let stats = db.stats();
    assert_eq!(
        stats.hits, 1,
        "r0's cone does not contain the edit and must answer from the cache"
    );
    assert_eq!(stats.misses, 1, "only r1 re-explores");
    assert_eq!(stats.invalidations, 1, "only r1's cone changed");
    assert_eq!(stats.generations, 1, "only r1's network regenerates");

    // The edit is actually observable where it should be: r1's WCRT grew,
    // r0's did not move.
    let r0 = db.wcrt(&edited, "r0").unwrap();
    let r1 = db.wcrt(&edited, "r1").unwrap();
    assert_eq!(r0.wcrt, db.wcrt(&original, "r0").unwrap().wcrt);
    assert!(r1.wcrt.unwrap() > db.wcrt(&original, "r1").unwrap().wcrt.unwrap());
}

#[test]
fn noop_edit_invalidates_nothing() {
    let db = AnalysisDb::new(AnalysisConfig::default());
    let model = disjoint_cones_model();
    assert_matches_reference(&db, &model);

    // "Editing" the model into identical content must hit on every query:
    // the cone hash sees content, not identity.
    let rebuilt = disjoint_cones_model();
    db.reset_stats();
    assert_matches_reference(&db, &rebuilt);
    let stats = db.stats();
    assert_eq!(stats.hits, 2, "identical content must answer from the cache");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.invalidations, 0, "a no-op edit must invalidate nothing");
    assert_eq!(stats.generations, 0);
    assert_eq!(
        (stats.generation_nanos, stats.exploration_nanos),
        (0, 0),
        "a fully warm run must spend no generation or exploration time"
    );
}

#[test]
fn sweep_explores_each_distinct_cone_exactly_once() {
    // A g × g grid over the two islands' stimulus periods asks 2g² WCRT
    // queries.  `r0`'s cone sees only `s0`'s period and `r1`'s only `s1`'s
    // (whole-millisecond periods keep the 1 ms tick), so the grid holds 2g
    // distinct cones.
    const G: u64 = 4;
    let sweep_of = |model: ArchitectureModel| {
        let periods = || (0..G as i128).map(|i| TimeValue::millis(20 + i));
        Sweep::new(model)
            .vary_stimulus_period("s0", periods())
            .vary_stimulus_period("s1", periods())
    };
    let db = AnalysisDb::new(AnalysisConfig::default());
    let ctx = RunContext::default();
    // One worker: concurrent workers can both miss on the same cone.
    let run = |sweep: &Sweep| {
        db.reset_stats();
        sweep.run_with(&db, 1, &ctx).unwrap();
        db.stats()
    };

    let sweep = sweep_of(disjoint_cones_model());
    let cold = run(&sweep);
    assert_eq!(cold.misses, 2 * G, "cold: one exploration per distinct cone");
    assert_eq!(cold.hits, 2 * G * G - 2 * G, "cold: every repeat of a cone hits");

    let warm = run(&sweep);
    assert_eq!(warm.misses, 0, "an identical re-run must re-explore nothing");
    assert_eq!(warm.hits, 2 * G * G);

    // Editing island 1 (on the 1 ms grid) changes its g cones and no other.
    let mut edited = disjoint_cones_model();
    match &mut edited.scenarios[1].steps[1] {
        Step::Execute { instructions, .. } => *instructions = 5_000,
        step => panic!("fixture changed: expected an Execute step, got {step:?}"),
    }
    let after_edit = run(&sweep_of(edited));
    assert_eq!(after_edit.misses, G, "only island 1's cones re-explore");
    assert_eq!(after_edit.hits, 2 * G * G - G);
}

/// Two scenarios on processors of their own that interfere only through a
/// shared bus (in the corpus, every bus user also shares a processor).
fn bus_linked_model() -> ArchitectureModel {
    let mut m = ArchitectureModel::new("bus-linked");
    let bus = m.add_bus("BUS", 8_000, BusArbitration::FixedPriority);
    for i in 0..2u32 {
        let cpu = m.add_processor(format!("CPU{i}"), 1, SchedulingPolicy::NonPreemptiveNd);
        let sid = m.add_scenario(Scenario {
            name: format!("s{i}"),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(20),
            },
            priority: i,
            steps: vec![
                Step::Execute {
                    operation: format!("work{i}"),
                    instructions: 2_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: format!("msg{i}"),
                    bytes: 2,
                    over: bus,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: format!("r{i}"),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(20),
        });
    }
    m
}

/// The models of the cone differentials: the pseudo-random corpus, the TDMA
/// and burst fixtures, the two-island edit fixture and a bus-only link.
fn cone_fixtures() -> Vec<ArchitectureModel> {
    let mut models: Vec<ArchitectureModel> = (0..6).map(random_model).collect();
    models.extend([
        tdma_model(),
        burst_model(),
        disjoint_cones_model(),
        bus_linked_model(),
    ]);
    models
}

/// `model` plus an island that shares no resource with it: its own
/// processor running one 2 ms step every 40 ms (5% utilisation), with a
/// requirement of its own.  Both durations are whole multiples of every
/// fixture's tick, so the whole-model tick does not move.
fn with_island(model: &ArchitectureModel) -> ArchitectureModel {
    let mut m = model.clone();
    let cpu = m.add_processor("ISLAND", 1, SchedulingPolicy::NonPreemptiveNd);
    let sid = m.add_scenario(Scenario {
        name: "island".into(),
        stimulus: EventModel::Periodic {
            period: TimeValue::millis(40),
        },
        priority: 0,
        steps: vec![Step::Execute {
            operation: "chore".into(),
            instructions: 2_000,
            on: cpu,
        }],
    });
    m.add_requirement(Requirement {
        name: "island-latency".into(),
        scenario: sid,
        from: MeasurePoint::Stimulus,
        to: MeasurePoint::AfterStep(0),
        deadline: TimeValue::millis(40),
    });
    m
}

fn tick(model: &ArchitectureModel) -> TimeValue {
    Quantizer::for_durations(&model.all_durations()).tick()
}

#[test]
fn a_disjoint_island_changes_no_answer_and_no_count() {
    let cfg = AnalysisConfig::default();
    for model in cone_fixtures() {
        let islanded = with_island(&model);
        assert_eq!(
            tick(&islanded),
            tick(&model),
            "{}: the island moved the tick",
            model.name
        );
        for req in &model.requirements {
            let what = format!("{}/{}", model.name, req.name);
            let before = reference_wcrt(&model, &req.name, &cfg);
            let after = reference_wcrt(&islanded, &req.name, &cfg);
            assert_eq!(after.estimate(), before.estimate(), "{what}: estimate");
            assert_eq!(
                after.meets_deadline, before.meets_deadline,
                "{what}: deadline verdict"
            );
            assert_eq!(
                after.stats.truncated, before.stats.truncated,
                "{what}: truncation"
            );
            assert_eq!(
                after.stats.stored_cumulative, before.stats.stored_cumulative,
                "{what}: the island was explored, not cut"
            );
        }
    }
}

/// Everything one automaton of `sys` reads, writes or syncs on, by
/// declaration name: the variables of its guards, invariants and updates, its
/// clocks and its channels.
fn footprint(sys: &System, automaton: &Automaton) -> BTreeSet<String> {
    let mut vars: Vec<VarId> = Vec::new();
    let mut channels = Vec::new();
    for location in &automaton.locations {
        for cc in &location.invariant {
            cc.rhs.collect_vars(&mut vars);
        }
    }
    for edge in &automaton.edges {
        edge.guard.collect_vars(&mut vars);
        for cc in &edge.clock_guard {
            cc.rhs.collect_vars(&mut vars);
        }
        for update in &edge.updates {
            vars.push(update.var);
            update.expr.collect_vars(&mut vars);
        }
        channels.extend(edge.sync.channel());
    }
    let vars = vars
        .iter()
        .map(|v| format!("var {}", sys.vars[v.index()].name));
    let clocks = automaton
        .referenced_clocks()
        .into_iter()
        .map(|c| format!("clock {}", sys.clocks[c.index()].name));
    let channels = channels
        .iter()
        .map(|c| format!("channel {}", sys.channels[c.index()].name));
    vars.chain(clocks).chain(channels).collect()
}

/// Every variable, clock and channel `sys` declares, named as in
/// [`footprint`].
fn declarations(sys: &System) -> BTreeSet<String> {
    let vars = sys.vars.iter().map(|v| format!("var {}", v.name));
    let clocks = sys.clocks.iter().map(|c| format!("clock {}", c.name));
    let channels = sys.channels.iter().map(|c| format!("channel {}", c.name));
    vars.chain(clocks).chain(channels).collect()
}

/// The structural oracle of the cone, independent of the closure the
/// generator computes: a measured network is compared with the whole
/// functional network, automaton by automaton.
#[test]
fn a_measured_network_shares_nothing_with_what_it_omits() {
    let opts = GeneratorOptions::default();
    let models = cone_fixtures()
        .into_iter()
        .flat_map(|m| [with_island(&m), m]);
    for model in models {
        let full = generate(&model, None, &opts).unwrap().system;
        for req in &model.requirements {
            let what = format!("{}/{}", model.name, req.name);
            let sliced = generate(&model, Some(req), &opts).unwrap().system;
            for a in &sliced.automata {
                assert!(
                    a.name == "observer" || full.automaton_by_name(&a.name).is_some(),
                    "{what}: `{}` is not an automaton of the whole model",
                    a.name
                );
            }
            let (kept, omitted): (Vec<&Automaton>, Vec<&Automaton>) = full
                .automata
                .iter()
                .partition(|a| sliced.automaton_by_name(&a.name).is_some());
            let uses = |automata: &[&Automaton]| -> BTreeSet<String> {
                automata.iter().flat_map(|a| footprint(&full, a)).collect()
            };
            let (kept_uses, omitted_uses) = (uses(&kept), uses(&omitted));
            let shared: Vec<&String> = omitted_uses
                .intersection(&kept_uses)
                .filter(|name| *name != "channel hurry")
                .collect();
            assert!(
                shared.is_empty(),
                "{what}: omitted automata touch {shared:?}"
            );
            let declared = declarations(&sliced);
            let leaked: Vec<&String> = omitted_uses
                .difference(&kept_uses)
                .filter(|name| declared.contains(*name))
                .collect();
            assert!(leaked.is_empty(), "{what}: the slice declares {leaked:?}");
            // The appended island is cut from every original requirement's
            // network, and the original model from the island's.
            if model.scenario_by_name("island").is_some() {
                let island_kept = sliced.automaton_by_name("env_island").is_some();
                assert_eq!(island_kept, req.name == "island-latency", "{what}");
                assert!(!omitted.is_empty(), "{what}: nothing was cut");
            }
        }
    }
}
