//! Differential test harness for the exact state-collapse machinery.
//!
//! The active-clock reduction (`SearchOptions::active_clock_reduction`, on by
//! default) resets clocks that the static inactivity analysis proves dead to
//! a canonical value before states are stored.  It is *claimed* to be exact —
//! verdict-, supremum- and WCRT-preserving — and this harness is the proof
//! obligation: for a corpus of pseudo-randomly generated architectures plus
//! the Fischer, TDMA and burst fixtures, every analysis is run twice, with
//! the reduction on and off, and the results must be identical.  The state
//! counts, on the other hand, must show the reduction actually firing (fewer
//! or equally many stored states, a non-zero elimination count) — a reduction
//! that never fires would pass any differential check vacuously.
//!
//! The same obligation covers the passed list as a whole: the default
//! configuration (reduction and exact zone merging on, so queued states are
//! skipped once their zone is evicted or absorbed into a hull) must agree
//! with the reference configuration (both off) on every WCRT, lower bound,
//! deadline verdict and clock supremum across the whole corpus and all
//! fixtures (see `storage_backends_agree_*` below).

mod common;

use common::{burst_model, random_model, reference_config, reference_search, tdma_model};
use tempo::arch::prelude::*;
use tempo::check::{Explorer, SearchOptions, TargetSpec};
use tempo::ta::{ClockRef, System};

fn cfg2(reduction: bool, merging: bool) -> AnalysisConfig {
    AnalysisConfig {
        search: SearchOptions {
            active_clock_reduction: reduction,
            exact_zone_merging: merging,
            ..SearchOptions::default()
        },
        ..AnalysisConfig::default()
    }
}

/// Asserts that the default configuration agrees with the reference one on
/// everything a user can observe for `requirement`, and returns the default
/// and reference stored-state counts.
fn assert_storage_backends_match(model: &ArchitectureModel, requirement: &str) -> (usize, usize) {
    let run = |label: &str, cfg: AnalysisConfig| {
        AnalysisDb::new(cfg)
            .wcrt(model, requirement)
            .unwrap_or_else(|e| panic!("{}/{requirement} with {label}: {e}", model.name))
    };
    let default = run("default", AnalysisConfig::default());
    let reference = run("reference", reference_config());
    assert_eq!(
        default.wcrt, reference.wcrt,
        "{}/{requirement}: WCRT differs between default and reference",
        model.name
    );
    assert_eq!(
        default.lower_bound, reference.lower_bound,
        "{}/{requirement}: lower bound differs between default and reference",
        model.name
    );
    assert_eq!(
        default.meets_deadline, reference.meets_deadline,
        "{}/{requirement}: deadline verdict differs between default and reference",
        model.name
    );
    (default.stats.stored_cumulative, reference.stats.stored_cumulative)
}

fn cfg(reduction: bool) -> AnalysisConfig {
    cfg2(reduction, true)
}

/// Asserts that the two analyses of `requirement` agree on everything a user
/// can observe, and returns the (reduced, unreduced) stored-state counts.
fn assert_requirement_matches(model: &ArchitectureModel, requirement: &str) -> (usize, usize) {
    let on = AnalysisDb::new(cfg(true))
        .wcrt(model, requirement)
        .unwrap_or_else(|e| panic!("{}/{requirement} with reduction: {e}", model.name));
    let off = AnalysisDb::new(cfg(false))
        .wcrt(model, requirement)
        .unwrap_or_else(|e| panic!("{}/{requirement} without reduction: {e}", model.name));
    assert_eq!(
        on.wcrt, off.wcrt,
        "{}/{requirement}: WCRT differs with reduction on vs off",
        model.name
    );
    assert_eq!(
        on.lower_bound, off.lower_bound,
        "{}/{requirement}: lower bound differs",
        model.name
    );
    assert_eq!(
        on.meets_deadline, off.meets_deadline,
        "{}/{requirement}: deadline verdict differs",
        model.name
    );
    assert_eq!(off.stats.clocks_eliminated, 0);
    assert!(
        on.stats.stored_cumulative <= off.stats.stored_cumulative,
        "{}/{requirement}: reduction stored more states ({} vs {})",
        model.name,
        on.stats.stored_cumulative,
        off.stats.stored_cumulative
    );
    (on.stats.stored_cumulative, off.stats.stored_cumulative)
}

#[test]
fn generated_architecture_corpus_verdicts_match() {
    let mut reduced_ever_smaller = false;
    for seed in 0..8u64 {
        let model = random_model(seed);
        for req in ["r0", "r1"] {
            let (on, off) = assert_requirement_matches(&model, req);
            if on < off {
                reduced_ever_smaller = true;
            }
        }
    }
    assert!(
        reduced_ever_smaller,
        "the reduction never shrank any corpus state space — it is not firing"
    );
}

#[test]
fn fischer_verdicts_and_state_space_match() {
    // Fischer's mutual exclusion (shared fixture from `tempo_bench`): safety
    // verdict and full state-space size, built directly at the TA level.
    let sys = tempo_bench::fischer(3, true);
    let in_cs = |i: usize| TargetSpec::location(&sys, &format!("P{}", i + 1), "cs").unwrap();
    let mut sizes = Vec::new();
    let mut verdicts = Vec::new();
    for reduction in [true, false] {
        let ex = Explorer::new(
            &sys,
            SearchOptions {
                active_clock_reduction: reduction,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        // Mutual exclusion: no two processes in the critical section.
        let mut violation_reachable = false;
        for a in 0..3 {
            for b in (a + 1)..3 {
                let both = TargetSpec::location(&sys, &format!("P{}", a + 1), "cs")
                    .unwrap()
                    .and_location(&sys, &format!("P{}", b + 1), "cs")
                    .unwrap();
                violation_reachable |= ex.check_reachable(&both).unwrap().reachable;
            }
        }
        // Each process can individually enter the critical section.
        let single = ex.check_reachable(&in_cs(0)).unwrap().reachable;
        verdicts.push((violation_reachable, single));
        let stats = ex.explore(|_| {}).unwrap();
        if reduction {
            assert!(stats.clocks_eliminated > 0, "reduction did not fire on Fischer");
        }
        sizes.push(stats.stored_cumulative);
    }
    assert_eq!(verdicts[0], verdicts[1]);
    assert_eq!(verdicts[0], (false, true));
    assert!(
        sizes[0] <= sizes[1],
        "reduction stored more states: {} vs {}",
        sizes[0],
        sizes[1]
    );
}

#[test]
fn tdma_fixture_matches() {
    let m = tdma_model();
    for req in ["r0", "r1"] {
        assert_requirement_matches(&m, req);
    }
}

#[test]
fn burst_fixture_matches() {
    let m = burst_model();
    let (on, off) = assert_requirement_matches(&m, "lo-e2e");
    assert!(
        on < off,
        "the burst environment should leave dead clocks to eliminate ({on} vs {off})"
    );
}

/// Exact zone merging (the second half of the state-collapse machinery) must
/// also be invisible to every observable result: same WCRTs with merging on
/// and off, across the corpus and the burst fixture, while actually firing.
#[test]
fn exact_zone_merging_is_wcrt_preserving() {
    let mut merges_seen = false;
    for seed in [1u64, 4, 6] {
        let model = random_model(seed);
        for req in ["r0", "r1"] {
            let with = AnalysisDb::new(cfg2(true, true)).wcrt(&model, req).unwrap();
            let without = AnalysisDb::new(cfg2(true, false)).wcrt(&model, req).unwrap();
            assert_eq!(with.wcrt, without.wcrt, "{}/{req}: merging changed the WCRT", model.name);
            assert_eq!(with.lower_bound, without.lower_bound, "{}/{req}", model.name);
            assert_eq!(without.stats.zones_merged, 0);
            assert!(
                with.stats.stored_cumulative <= without.stats.stored_cumulative,
                "{}/{req}: merging stored more states",
                model.name
            );
            merges_seen |= with.stats.zones_merged > 0;
        }
    }
    assert!(merges_seen, "exact zone merging never fired on the corpus");
}

/// The storage differential over the pseudo-random corpus: the default and
/// reference configurations must produce identical WCRTs, lower bounds and
/// deadline verdicts — and the default must actually collapse something
/// (fewer stored states than the reference at least once), or the
/// differential is vacuous.
#[test]
fn storage_backends_agree_on_generated_corpus() {
    let mut default_ever_smaller = false;
    for seed in 0..8u64 {
        let model = random_model(seed);
        for req in ["r0", "r1"] {
            let (default, reference) = assert_storage_backends_match(&model, req);
            if default < reference {
                default_ever_smaller = true;
            }
        }
    }
    assert!(
        default_ever_smaller,
        "the default configuration never stored fewer states than the reference on the corpus"
    );
}

/// The storage differential over the TDMA and burst fixtures.  The burst
/// fixture is the paper's intractable corner scaled down: the default
/// configuration must beat the reference there, strictly.
#[test]
fn storage_backends_agree_on_tdma_and_burst_fixtures() {
    let tdma = tdma_model();
    for req in ["r0", "r1"] {
        assert_storage_backends_match(&tdma, req);
    }
    let burst = burst_model();
    let (default, reference) = assert_storage_backends_match(&burst, "lo-e2e");
    assert!(
        default < reference,
        "merging and stale-entry skips should shrink the burst fixture ({default} vs {reference})"
    );
}

/// Fischer's delay constant `K` in `tempo_bench::fischer`.
const FISCHER_K: i64 = 2;

/// The Fischer targets the storage differential compares: every pairwise
/// mutex violation first, then each process's `cs` and `wait` locations,
/// then `P1` in `cs` with its clock beyond `K`.
fn fischer_targets(sys: &System, n: usize) -> Vec<TargetSpec> {
    let mut targets = Vec::new();
    for i in 1..=n {
        for j in (i + 1)..=n {
            targets.push(
                TargetSpec::location(sys, &format!("P{i}"), "cs")
                    .unwrap()
                    .and_location(sys, &format!("P{j}"), "cs")
                    .unwrap(),
            );
        }
    }
    for i in 1..=n {
        targets.push(TargetSpec::location(sys, &format!("P{i}"), "cs").unwrap());
        targets.push(TargetSpec::location(sys, &format!("P{i}"), "wait").unwrap());
    }
    let x0 = sys.clock_by_name("x0").unwrap();
    targets.push(
        TargetSpec::location(sys, "P1", "cs")
            .unwrap()
            .with_clock_constraint(ClockRef::gt(x0, FISCHER_K)),
    );
    targets
}

/// The storage differential on Fischer, at the TA level: the default and
/// reference search options must agree on every mutex verdict, per-process
/// reachability and clock supremum, for the correct protocol with 2 and 3
/// processes and for the weakened (non-strict guard) variant, whose mutex
/// violation is reachable.
#[test]
fn storage_backends_agree_on_fischer() {
    for (n, strict) in [(2, true), (3, true), (2, false)] {
        let sys = tempo_bench::fischer(n, strict);
        let x0 = sys.clock_by_name("x0").unwrap();
        let req = TargetSpec::location(&sys, "P1", "req").unwrap();
        let targets = fischer_targets(&sys, n);
        let mut outcomes = Vec::new();
        for opts in [SearchOptions::default(), reference_search()] {
            let ex = Explorer::new(&sys, opts).unwrap();
            let sup = ex.sup_clock_at(&req, x0, 1_000).unwrap().exact_value();
            let verdicts: Vec<bool> = targets
                .iter()
                .map(|t| ex.check_reachable(t).unwrap().reachable)
                .collect();
            outcomes.push((sup, verdicts));
        }
        let label = format!("fischer(n={n}, strict={strict})");
        assert_eq!(outcomes[0], outcomes[1], "{label}: default and reference disagree");
        let (sup, verdicts) = &outcomes[0];
        let pairs = n * (n - 1) / 2;
        if strict {
            assert_eq!(*sup, Some(FISCHER_K), "{label}: sup x0 at req = K");
        }
        assert!(
            verdicts[..pairs].iter().all(|&violated| violated != strict),
            "{label}: mutual exclusion must hold exactly when the guard is strict"
        );
        for i in 0..n {
            assert!(verdicts[pairs + 2 * i], "{label}: P{} never enters cs", i + 1);
        }
    }
}

/// One quick-workload case-study column end to end: the sp column of the
/// AddressLookup row, exact on both sides and strictly smaller when reduced.
#[test]
fn case_study_sp_column_matches() {
    let mut params = CaseStudyParams::default();
    params.volume_period = params.volume_period * 8;
    params.lookup_period = params.lookup_period * 8;
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &params,
    );
    let (on, off) = assert_requirement_matches(&model, "AddressLookup (+ HandleTMC)");
    assert!(
        on < off,
        "reduction should shrink the sp column ({on} vs {off})"
    );
}
