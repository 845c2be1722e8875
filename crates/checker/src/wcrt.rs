//! Worst-case response-time extraction.
//!
//! The paper determines the WCRT of a scenario by adding a *measuring*
//! observer automaton (Fig. 9) that starts a clock `y` when the measured
//! stimulus is injected and enters a committed location `seen` when the
//! response is observed, and then finds the smallest constant `C` for which
//! the safety property
//!
//! ```text
//! AG (obs.seen  ⇒  obs.y < C)          (Property 1)
//! ```
//!
//! holds, by manual binary search over `C`.  This module provides that binary
//! search ([`Explorer::binary_search_wcrt`]) and a more direct one-pass
//! procedure ([`Explorer::sup_clock_at`]) that computes
//! `sup { y | reachable state with obs at `seen` }` during a single
//! exploration of the zone graph; both yield the same bound.

use crate::error::CheckError;
use crate::explorer::{ExplorationStats, Explorer};
use crate::successor::QuerySeed;
use crate::target::TargetSpec;
use tempo_dbm::Bound;
use tempo_ta::{ClockId, ClockRef};

/// Result of [`Explorer::sup_clock_at`].
#[derive(Clone, Debug)]
pub struct SupReport {
    /// Supremum of the observed clock over all matching reachable states;
    /// `None` if no matching state is reachable.
    pub sup: Option<Bound>,
    /// `true` when the supremum ran into the extrapolation cap, meaning the
    /// reported value is only a lower bound and the query should be retried
    /// with a larger `cap`.
    pub cap_hit: bool,
    /// The cap in effect.
    pub cap: i64,
    /// Exploration statistics.
    pub stats: ExplorationStats,
}

impl SupReport {
    /// The supremum as a plain integer (model-time units), if finite and
    /// trustworthy (no cap hit, location reachable).
    pub fn exact_value(&self) -> Option<i64> {
        if self.cap_hit {
            return None;
        }
        self.sup.and_then(|b| b.finite_constant())
    }
}

/// Result of [`Explorer::binary_search_wcrt`].
#[derive(Clone, Debug)]
pub struct BinarySearchReport {
    /// The smallest integer `C` for which `AG(obs ⇒ y < C)` holds.
    pub smallest_c: i64,
    /// The WCRT implied by `smallest_c` (i.e. `smallest_c − 1` when the bound
    /// is attained with a non-strict supremum).
    pub wcrt: i64,
    /// Number of reachability queries performed.
    pub iterations: usize,
    /// Statistics of the last query.
    pub last_stats: ExplorationStats,
}

impl<'s> Explorer<'s> {
    /// Computes `sup { clock | reachable state matching `target` }` in one
    /// exploration of the zone graph.
    ///
    /// `cap` bounds the extrapolation constant used for `clock`; values at or
    /// above the cap are reported with `cap_hit = true` and should be retried
    /// with a larger cap (see [`Explorer::sup_clock_at_auto`]).
    pub fn sup_clock_at(
        &self,
        target: &TargetSpec,
        clock: ClockId,
        cap: i64,
    ) -> Result<SupReport, CheckError> {
        let mut consts = target.clock_constants(self.system());
        consts.push((clock, cap));
        let seed = QuerySeed {
            target: target.clone(),
            consts,
        };
        let mut sup: Option<Bound> = None;
        let mut error: Option<tempo_ta::EvalError> = None;
        let (_, _, stats) = self.run(None, Some(&seed), |state| {
            if error.is_some() {
                return;
            }
            match target.matches(state) {
                Ok(true) => {
                    let b = state.zone.sup(clock.dbm_clock());
                    sup = Some(sup.map_or(b, |s| s.max(b)));
                }
                Ok(false) => {}
                Err(e) => error = Some(e),
            }
        })?;
        if let Some(e) = error {
            return Err(e.into());
        }
        let cap_hit = match sup {
            Some(b) if b.is_infinity() => true,
            Some(b) => b.constant() >= cap,
            None => false,
        };
        Ok(SupReport {
            sup,
            cap_hit,
            cap,
            stats,
        })
    }

    /// Like [`Explorer::sup_clock_at`] but automatically doubles the cap (up
    /// to `max_cap`) until the supremum no longer touches it.  A truncated
    /// exploration (state budget or deadline) stops the doubling: the
    /// supremum is only a lower bound there and a larger cap cannot fix that.
    /// Both caps are clamped to [`Bound::MAX_CONSTANT`], the largest clock
    /// constant a zone can hold.
    pub fn sup_clock_at_auto(
        &self,
        target: &TargetSpec,
        clock: ClockId,
        initial_cap: i64,
        max_cap: i64,
    ) -> Result<SupReport, CheckError> {
        let max_cap = max_cap.min(Bound::MAX_CONSTANT);
        let mut cap = initial_cap.clamp(1, Bound::MAX_CONSTANT);
        loop {
            let report = self.sup_clock_at(target, clock, cap)?;
            if !report.cap_hit || report.stats.truncated || cap >= max_cap {
                return Ok(report);
            }
            cap = (cap * 2).min(max_cap);
        }
    }

    /// The paper's Property 1 procedure: binary search for the smallest
    /// integer `C ∈ (lo, hi]` such that `AG(target ⇒ clock < C)` holds, i.e.
    /// such that `target ∧ clock ≥ C` is unreachable.
    ///
    /// `lo` must be a value for which the property does *not* hold (0 works
    /// whenever the target is reachable at all) and `hi` a value for which it
    /// does; it is clamped to [`Bound::MAX_CONSTANT`].  Returns an error
    /// description via `CheckError::UnknownQueryEntity` if `hi` does not
    /// satisfy the property (the caller should enlarge it).
    pub fn binary_search_wcrt(
        &self,
        target: &TargetSpec,
        clock: ClockId,
        lo: i64,
        hi: i64,
    ) -> Result<BinarySearchReport, CheckError> {
        let violated = |c: i64| -> Result<(bool, ExplorationStats), CheckError> {
            let bad = TargetSpec {
                locations: target.locations.clone(),
                int_guard: target.int_guard.clone(),
                clock_guard: {
                    let mut g = target.clock_guard.clone();
                    g.push(clock.ge(c));
                    g
                },
            };
            let report = self.check_reachable(&bad)?;
            Ok((report.reachable, report.stats))
        };

        let hi = hi.min(Bound::MAX_CONSTANT);
        let mut iterations = 0usize;
        let (hi_violated, mut last_stats) = violated(hi)?;
        iterations += 1;
        if hi_violated {
            return Err(CheckError::UnknownQueryEntity {
                what: format!("binary search upper bound {hi} still violated; increase it"),
            });
        }
        let mut lo = lo;
        let mut hi = hi;
        // Invariant: property violated at `lo` (or `lo` below any response
        // time), satisfied at `hi`.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (bad_reachable, stats) = violated(mid)?;
            iterations += 1;
            last_stats = stats;
            if bad_reachable {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(BinarySearchReport {
            smallest_c: hi,
            wcrt: hi - 1,
            iterations,
            last_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::SearchOptions;
    use tempo_ta::{ClockRef, System, SystemBuilder};

    /// A job that takes between 3 and 7 time units, measured by an observer
    /// clock `y` that is never reset.
    fn job_system() -> System {
        let mut sb = SystemBuilder::new("job");
        let x = sb.add_clock("x");
        let y = sb.add_clock("y");
        let mut a = sb.automaton("job");
        let run = a.location("run").invariant(x.le(7)).add();
        let done = a.location("done").add();
        a.edge(run, done).guard_clock(x.ge(3)).add();
        a.set_initial(run);
        a.build();
        let _ = y;
        sb.build()
    }

    #[test]
    fn sup_is_unbounded_without_an_observation_instant() {
        // `done` has no invariant, so time (and hence y) grows without bound
        // after completion: the sup must be reported as untrustworthy
        // (cap_hit), which is why the paper's observer captures the response
        // in a committed location instead.
        let sys = job_system();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let done = TargetSpec::location(&sys, "job", "done").unwrap();
        let report = ex.sup_clock_at(&done, y, 1_000).unwrap();
        assert!(report.cap_hit);
        assert_eq!(report.exact_value(), None);
        assert!(report.sup.unwrap().is_infinity());
    }

    /// The same job, but completion is observed in a committed location so
    /// the clock value at the completion instant is captured exactly — this
    /// is precisely the role of the committed `seen` location in Fig. 9.
    fn job_with_observer() -> System {
        let mut sb = SystemBuilder::new("job_obs");
        let x = sb.add_clock("x");
        let y = sb.add_clock("y");
        let mut a = sb.automaton("job");
        let run = a.location("run").invariant(x.le(7)).add();
        let seen = a.location("seen").committed(true).add();
        let done = a.location("done").add();
        a.edge(run, seen).guard_clock(x.ge(3)).add();
        a.edge(seen, done).add();
        a.set_initial(run);
        a.build();
        let _ = y;
        sb.build()
    }

    #[test]
    fn sup_at_committed_location_is_exact() {
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        let report = ex.sup_clock_at(&seen, y, 1_000).unwrap();
        assert!(!report.cap_hit);
        assert_eq!(report.exact_value(), Some(7));
    }

    #[test]
    fn sup_cap_detection_and_auto_retry() {
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        // A cap below the real supremum is detected...
        let low = ex.sup_clock_at(&seen, y, 5).unwrap();
        assert!(low.cap_hit);
        assert_eq!(low.exact_value(), None);
        // ...and the auto variant enlarges it until the value is exact.
        let auto = ex.sup_clock_at_auto(&seen, y, 2, 1_000).unwrap();
        assert!(!auto.cap_hit);
        assert_eq!(auto.exact_value(), Some(7));
    }

    /// The measured clock `y` is kept live by the query seeding, while the
    /// job clock `x` dies once the observation is made: the reduction must
    /// fire without disturbing the supremum.
    #[test]
    fn reduction_preserves_sup_and_reports_eliminations() {
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        let on = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let off = Explorer::new(
            &sys,
            SearchOptions {
                active_clock_reduction: false,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        let r_on = on.sup_clock_at(&seen, y, 1_000).unwrap();
        let r_off = off.sup_clock_at(&seen, y, 1_000).unwrap();
        assert_eq!(r_on.exact_value(), Some(7));
        assert_eq!(r_on.exact_value(), r_off.exact_value());
        assert!(r_on.stats.clocks_eliminated > 0, "reduction did not fire");
        assert_eq!(r_off.stats.clocks_eliminated, 0);
    }

    #[test]
    fn sup_of_unreachable_target_is_none() {
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let nowhere = TargetSpec::location(&sys, "job", "seen")
            .unwrap()
            .with_clock_constraint(sys.clock_by_name("x").unwrap().gt(100));
        let report = ex.sup_clock_at(&nowhere, y, 1_000).unwrap();
        assert_eq!(report.sup, None);
        assert!(!report.cap_hit);
    }

    #[test]
    fn binary_search_agrees_with_sup() {
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        let bs = ex.binary_search_wcrt(&seen, y, 0, 100).unwrap();
        // sup is 7 (attained), so the smallest C with AG(seen => y < C) is 8.
        assert_eq!(bs.smallest_c, 8);
        assert_eq!(bs.wcrt, 7);
        assert!(bs.iterations > 1);
    }

    #[test]
    fn binary_search_rejects_bad_upper_bound() {
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        assert!(ex.binary_search_wcrt(&seen, y, 0, 5).is_err());
    }

    /// Two independent jobs, each with its own observer clock captured in its
    /// own committed location.
    fn two_observed_jobs() -> System {
        let mut sb = SystemBuilder::new("two_jobs");
        for (name, lo, hi) in [("a", 3i64, 7i64), ("b", 2, 11)] {
            let x = sb.add_clock(format!("x_{name}"));
            let y = sb.add_clock(format!("y_{name}"));
            let mut a = sb.automaton(format!("job_{name}"));
            let run = a.location("run").invariant(x.le(hi)).add();
            let seen = a.location("seen").committed(true).add();
            let done = a.location("done").add();
            a.edge(run, seen).guard_clock(x.ge(lo)).add();
            a.edge(seen, done).add();
            a.set_initial(run);
            a.build();
            let _ = y;
        }
        sb.build()
    }

    #[test]
    fn zero_wall_clock_budget_truncates_gracefully() {
        use crate::explorer::RunContext;
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default())
            .unwrap()
            .with_context(&RunContext::with_wall_clock(std::time::Duration::ZERO));
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        let report = ex.sup_clock_at_auto(&seen, y, 2, 1_000).unwrap();
        // Nothing was explored; the (empty) supremum is a trustworthy
        // truncation, not an error, and the auto-cap loop must not spin.
        assert!(report.stats.truncated);
        assert_eq!(report.exact_value(), None);
    }

    #[test]
    fn cancellation_aborts_with_cancelled_error() {
        use crate::explorer::RunContext;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let sys = job_with_observer();
        let y = sys.clock_by_name("y").unwrap();
        let cancel = Arc::new(AtomicBool::new(true));
        let ctx = RunContext {
            cancel: Some(Arc::clone(&cancel)),
            ..RunContext::default()
        };
        let ex = Explorer::new(&sys, SearchOptions::default())
            .unwrap()
            .with_context(&ctx);
        let seen = TargetSpec::location(&sys, "job", "seen").unwrap();
        let err = ex.sup_clock_at(&seen, y, 1_000).unwrap_err();
        assert!(matches!(err, CheckError::Cancelled));
        // Clearing the flag lets the same options succeed.
        cancel.store(false, Ordering::SeqCst);
        let ok = ex.sup_clock_at(&seen, y, 1_000).unwrap();
        assert_eq!(ok.exact_value(), Some(7));
    }

    #[test]
    fn progress_hook_fires() {
        use crate::explorer::RunContext;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let sys = two_observed_jobs();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in_hook = Arc::clone(&calls);
        let ctx = RunContext {
            progress: Some(Arc::new(move |p: &crate::explorer::SearchProgress| {
                assert!(p.states_explored > 0);
                calls_in_hook.fetch_add(1, Ordering::Relaxed);
            })),
            progress_every: 1,
            ..RunContext::default()
        };
        let ex = Explorer::new(&sys, SearchOptions::default())
            .unwrap()
            .with_context(&ctx);
        ex.explore(|_| {}).unwrap();
        assert!(
            calls.load(Ordering::Relaxed) > 0,
            "progress hook never fired"
        );
    }
}
