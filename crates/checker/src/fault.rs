//! # Deterministic fault injection
//!
//! A seeded [`FaultPlan`] describes *where* and *when* an exploration (or an
//! engine wrapping one) should fail on purpose.  The plan is threaded through
//! [`RunContext::faults`](crate::RunContext::faults) into the instrumented
//! points of the explorer and of the engines above it:
//!
//! * [`FaultSite::EngineEntry`] — the entry of an engine's `run`,
//! * [`FaultSite::StoreInsert`] — before a passed/waiting-store insertion,
//! * [`FaultSite::SuccessorGen`] — before computing a state's successors,
//! * [`FaultSite::Progress`] — inside the periodic progress-callback path.
//!
//! At each visit of an instrumented site the plan draws at most one
//! [`FaultKind`]: a `panic!` (exercising the unwind-isolation machinery), a
//! spurious cancellation, a pretended budget exhaustion (the exploration
//! truncates gracefully, as if its wall clock had just expired), or a
//! transient internal error ([`CheckError::Transient`], retryable).  Every
//! rule is one-shot, so a healed retry of the same work succeeds — which is
//! exactly the property the chaos differential harness checks: under any
//! fault plan a query returns the fault-free answer, a sound bound, or a
//! typed error, never a divergent verdict.
//!
//! Plans are deterministic: the same seed produces the same rules, and each
//! rule fires at a fixed visit count of its site.  When no plan is installed
//! the instrumented points reduce to a single `Option` check — zero cost on
//! the fault-free path.
//!
//! ```
//! use std::sync::Arc;
//! use tempo_check::{CheckError, FaultKind, FaultPlan, FaultSite, RunContext};
//!
//! // A plan derived from a seed (the chaos harness sweeps these)...
//! let plan = Arc::new(FaultPlan::from_seed(42));
//! // ...or a targeted plan: cancel spuriously at the fourth store insert
//! // (visit 3, counting from 0).
//! let targeted = Arc::new(FaultPlan::single(FaultSite::StoreInsert, FaultKind::Cancel, 3));
//! let ctx = RunContext {
//!     faults: Some(targeted),
//!     ..RunContext::default()
//! };
//! let faults = ctx.faults.as_ref().unwrap();
//! for _ in 0..3 {
//!     assert_eq!(faults.poll(FaultSite::StoreInsert), Ok(false));
//! }
//! assert_eq!(faults.poll(FaultSite::StoreInsert), Err(CheckError::Cancelled));
//! ```

use crate::error::CheckError;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// An instrumented point at which a [`FaultPlan`] can inject a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The entry of an engine's `run` (visited once per engine run).
    EngineEntry,
    /// Immediately before a successor is inserted into the passed/waiting
    /// store (visited once per candidate insertion).
    StoreInsert,
    /// Immediately before a popped state's successors are computed (visited
    /// once per expansion).
    SuccessorGen,
    /// The periodic progress-callback path (visited once per progress
    /// report).
    Progress,
}

/// Every site, in counter order.
const SITES: [FaultSite; 4] = [
    FaultSite::EngineEntry,
    FaultSite::StoreInsert,
    FaultSite::SuccessorGen,
    FaultSite::Progress,
];

/// The kind of fault a [`FaultPlan`] injects at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site, exercising unwind isolation (an engine wrapper
    /// reports `Panicked`).
    Panic,
    /// Behave as if the cooperative cancellation flag had been observed:
    /// abort with [`CheckError::Cancelled`].
    Cancel,
    /// Behave as if the wall-clock/state budget had just expired: truncate
    /// gracefully, degrading exact answers to sound lower bounds.
    BudgetExhaustion,
    /// Fail with a transient internal error ([`CheckError::Transient`]);
    /// retrying the same run succeeds, because every rule is one-shot.
    TransientError,
}

const KINDS: [FaultKind; 4] = [
    FaultKind::Panic,
    FaultKind::Cancel,
    FaultKind::BudgetExhaustion,
    FaultKind::TransientError,
];

#[derive(Debug)]
struct FaultRule {
    site: FaultSite,
    kind: FaultKind,
    /// Fire when the site's visit counter reaches this value (0-based).
    at_visit: u64,
    /// One-shot: disarmed after firing.
    armed: AtomicBool,
}

/// A seeded, deterministic schedule of injected faults.
///
/// A plan names the instrumented [`FaultSite`]s and the [`FaultKind`] each
/// rule injects; every rule is one-shot.  A plan is shared behind an `Arc`
/// by every engine and retry of a run; the per-site visit counters are
/// atomic, so each rule fires exactly once whichever thread reaches it.
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    visits: [AtomicU64; 4],
    fired: AtomicUsize,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Derives a pseudo-random plan of one to three one-shot rules from
    /// `seed`.  The same seed always yields the same rules; trigger counts
    /// are kept small for rarely-visited sites (engine entry, progress) and
    /// spread over the early exploration for the per-state sites.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let n_rules = 1 + (splitmix64(&mut state) % 3) as usize;
        let rules = (0..n_rules)
            .map(|_| {
                let site = SITES[(splitmix64(&mut state) % SITES.len() as u64) as usize];
                let kind = KINDS[(splitmix64(&mut state) % KINDS.len() as u64) as usize];
                let at_visit = match site {
                    FaultSite::EngineEntry => splitmix64(&mut state) % 3,
                    FaultSite::Progress => splitmix64(&mut state) % 4,
                    FaultSite::StoreInsert | FaultSite::SuccessorGen => {
                        splitmix64(&mut state) % 400
                    }
                };
                FaultRule {
                    site,
                    kind,
                    at_visit,
                    armed: AtomicBool::new(true),
                }
            })
            .collect();
        FaultPlan {
            seed,
            rules,
            visits: Default::default(),
            fired: AtomicUsize::new(0),
        }
    }

    /// A plan with exactly one rule: inject `kind` at the `at_visit`-th visit
    /// of `site` (0-based), once.
    pub fn single(site: FaultSite, kind: FaultKind, at_visit: u64) -> FaultPlan {
        FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                site,
                kind,
                at_visit,
                armed: AtomicBool::new(true),
            }],
            visits: Default::default(),
            fired: AtomicUsize::new(0),
        }
    }

    /// The seed the plan was derived from (0 for [`FaultPlan::single`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many rules have fired so far.
    pub fn injected(&self) -> usize {
        self.fired.load(Ordering::Relaxed)
    }

    /// Records a visit of `site` and returns the fault to inject there, if
    /// any.  Rules are one-shot: once drawn, a rule never fires again.
    pub fn draw(&self, site: FaultSite) -> Option<FaultKind> {
        let visit = self.visits[site as usize].fetch_add(1, Ordering::Relaxed);
        for rule in &self.rules {
            if rule.site == site
                && visit >= rule.at_visit
                && rule.armed.swap(false, Ordering::Relaxed)
            {
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.kind);
            }
        }
        None
    }

    /// Visits `site` and *acts* on the drawn fault in the checker's
    /// vocabulary: panics for [`FaultKind::Panic`], returns the matching
    /// error for [`FaultKind::Cancel`] / [`FaultKind::TransientError`], and
    /// returns `Ok(true)` for [`FaultKind::BudgetExhaustion`] — the caller
    /// should then truncate exactly as it would on wall-clock expiry.
    /// Returns `Ok(false)` when nothing fires (the overwhelmingly common
    /// case).
    pub fn poll(&self, site: FaultSite) -> Result<bool, CheckError> {
        match self.draw(site) {
            None => Ok(false),
            Some(FaultKind::BudgetExhaustion) => Ok(true),
            Some(FaultKind::Cancel) => Err(CheckError::Cancelled),
            Some(FaultKind::TransientError) => Err(CheckError::Transient {
                detail: format!("injected fault: transient error at {site:?}"),
            }),
            Some(FaultKind::Panic) => panic!("injected fault: panic at {site:?}"),
        }
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &self.rules)
            .field("injected", &self.injected())
            .finish()
    }
}

/// Renders a caught panic payload (`Box<dyn Any>`) as a message, for the
/// engine layer's `Panicked` error.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for *injected* panics — payloads containing
/// `"injected fault"` or `"chaos-mock"` — and forwards everything else to the
/// previous hook.  Intended for tests that exercise panic isolation; without
/// it every injected panic would spray the test output.
pub fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !message.contains("injected fault") && !message.contains("chaos-mock") {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_one_shot() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.rules.is_empty() && a.rules.len() <= 3);

        let single = FaultPlan::single(FaultSite::StoreInsert, FaultKind::Cancel, 2);
        assert_eq!(single.draw(FaultSite::StoreInsert), None);
        assert_eq!(single.draw(FaultSite::SuccessorGen), None);
        assert_eq!(single.draw(FaultSite::StoreInsert), None);
        assert_eq!(single.draw(FaultSite::StoreInsert), Some(FaultKind::Cancel));
        // One-shot: later visits draw nothing.
        assert_eq!(single.draw(FaultSite::StoreInsert), None);
        assert_eq!(single.injected(), 1);
    }

    #[test]
    fn poll_translates_kinds() {
        let cancel = FaultPlan::single(FaultSite::EngineEntry, FaultKind::Cancel, 0);
        assert_eq!(
            cancel.poll(FaultSite::EngineEntry),
            Err(CheckError::Cancelled)
        );
        let budget = FaultPlan::single(FaultSite::EngineEntry, FaultKind::BudgetExhaustion, 0);
        assert_eq!(budget.poll(FaultSite::EngineEntry), Ok(true));
        let transient = FaultPlan::single(FaultSite::EngineEntry, FaultKind::TransientError, 0);
        assert!(matches!(
            transient.poll(FaultSite::EngineEntry),
            Err(CheckError::Transient { .. })
        ));
        assert_eq!(transient.poll(FaultSite::EngineEntry), Ok(false));
    }

    #[test]
    fn injected_panics_carry_a_recognizable_payload() {
        quiet_injected_panics();
        let plan = FaultPlan::single(FaultSite::SuccessorGen, FaultKind::Panic, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.poll(FaultSite::SuccessorGen)
        }))
        .unwrap_err();
        assert!(panic_message(caught).contains("injected fault"));
    }
}
