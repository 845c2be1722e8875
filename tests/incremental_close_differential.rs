//! Differential test of the incremental DBM re-canonicalization toggle
//! (`tempo_dbm::set_incremental_close`): every observable analysis result
//! must be identical with the O(n²) single-constraint repair paths enabled
//! (the default) and with every operation falling back to the full O(n³)
//! Floyd–Warshall closure.
//!
//! The constraint-level operations (constrain, shift, intersect) produce the
//! *unique* canonical form either way, so they are already covered
//! bit-for-bit at the DBM level (`crates/dbm/tests/incremental_close.rs`),
//! and both modes extrapolate identically (one batch widen, then a full
//! close).  This harness checks the end-to-end consequence: WCRTs, lower
//! bounds, deadline verdicts and clock suprema agree over the pseudo-random
//! corpus, the TDMA and burst fixtures and Fischer, under the default search
//! options and the reference ones (active-clock reduction and exact zone
//! merging off).
//!
//! The toggle is process-global, so the whole differential lives in a single
//! `#[test]` function; this file is its own test binary and owns the toggle
//! for its lifetime.

mod common;

use common::{burst_model, random_model, reference_search, tdma_model};
use tempo::arch::prelude::*;
use tempo::check::{Explorer, SearchOptions, TargetSpec};
use tempo::dbm::set_incremental_close;

/// One requirement's observable result: `(name, wcrt, lower bound, verdict)`.
type RequirementDigest = (String, Option<TimeValue>, Option<TimeValue>, Option<bool>);

/// Analysis of every requirement of `model` with the given search options,
/// as a comparable digest.
fn digest(model: &ArchitectureModel, search: &SearchOptions) -> Vec<RequirementDigest> {
    let cfg = AnalysisConfig {
        search: search.clone(),
        ..AnalysisConfig::default()
    };
    let db = AnalysisDb::new(cfg);
    model
        .requirements
        .iter()
        .map(|req| {
            let report = db
                .wcrt(model, &req.name)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", model.name, req.name));
            (
                req.name.clone(),
                report.wcrt,
                report.lower_bound,
                report.meets_deadline,
            )
        })
        .collect()
}

/// Fischer at the TA level: the clock supremum at `req` and the mutual
/// exclusion verdict, which exercise the sup-extraction and reachability
/// paths the architecture digest does not.
fn fischer_digest(search: &SearchOptions) -> (Option<i64>, bool, bool) {
    let sys = tempo_bench::fischer(3, true);
    let x0 = sys.clock_by_name("x0").unwrap();
    let req = TargetSpec::location(&sys, "P1", "req").unwrap();
    let violation = TargetSpec::location(&sys, "P1", "cs")
        .unwrap()
        .and_location(&sys, "P2", "cs")
        .unwrap();
    let ex = Explorer::new(&sys, search.clone()).unwrap();
    (
        ex.sup_clock_at(&req, x0, 1_000).unwrap().exact_value(),
        ex.check_reachable(&req).unwrap().reachable,
        ex.check_reachable(&violation).unwrap().reachable,
    )
}

#[test]
fn incremental_and_full_close_analyses_agree() {
    let corpus: Vec<ArchitectureModel> = (0..6u64)
        .map(random_model)
        .chain([tdma_model(), burst_model()])
        .collect();
    for (label, search) in [
        ("default", SearchOptions::default()),
        ("reference", reference_search()),
    ] {
        for model in &corpus {
            set_incremental_close(true);
            let fast = digest(model, &search);
            set_incremental_close(false);
            let slow = digest(model, &search);
            set_incremental_close(true);
            assert_eq!(
                fast, slow,
                "{} with {label}: results differ between incremental and full close",
                model.name
            );
        }
        set_incremental_close(true);
        let fast = fischer_digest(&search);
        set_incremental_close(false);
        let slow = fischer_digest(&search);
        set_incremental_close(true);
        assert_eq!(
            fast, slow,
            "fischer with {label}: results differ between incremental and full close"
        );
        // The digests must also be *right*, not just equal: sup x0 at req is
        // the Fischer constant, the critical section is reachable for one
        // process and mutual exclusion holds.
        assert_eq!(fast.0, Some(2), "fischer sup x0 at req");
        assert!(fast.1, "fischer req unreachable");
        assert!(!fast.2, "fischer mutual exclusion violated");
    }
}
