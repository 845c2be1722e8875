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
//!   counts of a cold pass, a warm re-run and a one-island edit are exact.

mod common;

use common::{burst_model, random_model, reference_wcrt, tdma_model};
use tempo::arch::prelude::*;

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
