//! The reachability engine: passed/waiting list exploration of the zone graph.

use crate::error::CheckError;
use crate::fault::{FaultPlan, FaultSite};
use crate::state::SymState;
use crate::store::{Insert, PassedList};
use crate::successor::{ActionLabel, QuerySeed, SuccessorGen};
use crate::target::TargetSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_ta::System;

/// Exploration order of the waiting list, corresponding to UPPAAL's
/// breadth-first, depth-first and random-depth-first options (the paper uses
/// `df` and `rdf` to obtain lower bounds on the WCRT for the intractable
/// event-model combinations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SearchOrder {
    /// Breadth-first search (default; finds shortest diagnostic traces).
    #[default]
    Bfs,
    /// Depth-first search.
    Dfs,
    /// Depth-first search with randomly shuffled successor order.
    RandomDfs,
}

/// The callback type of [`SearchHook::progress`].
pub type ProgressFn = dyn Fn(&SearchProgress) + Send + Sync;

/// A periodic snapshot of a running exploration, handed to the
/// [`SearchHook::progress`] callback.
#[derive(Clone, Copy, Debug)]
pub struct SearchProgress {
    /// Symbolic states expanded so far.
    pub states_explored: usize,
    /// Cumulative insertions into the passed/waiting store so far (see
    /// [`ExplorationStats::stored_cumulative`]).
    pub states_stored: usize,
    /// Current waiting-list depth: states queued for expansion — the live
    /// signal a progress stream needs to show how much frontier remains.
    pub waiting: usize,
    /// Wall-clock time since the exploration started.
    pub elapsed: Duration,
}

/// Budget, cancellation and progress hook threaded through explorations.
///
/// This is the seam the architecture layer's `RunContext` plugs into: a
/// long-running query can be bounded by wall-clock time (the exploration then
/// stops gracefully with [`ExplorationStats::truncated`] set, so supremum
/// queries still yield well-formed *lower bounds*), cancelled cooperatively
/// (the exploration aborts with [`CheckError::Cancelled`]), and observed
/// through a periodic progress callback.
#[derive(Clone, Default)]
pub struct SearchHook {
    /// Stop the exploration (gracefully, marking the statistics truncated)
    /// once this much wall-clock time has elapsed.
    pub wall_clock_budget: Option<Duration>,
    /// Abort the exploration with [`CheckError::Cancelled`] as soon as this
    /// flag is observed `true`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Invoked periodically (every [`SearchHook::progress_every`] expanded
    /// states) from the exploring thread.
    pub progress: Option<Arc<ProgressFn>>,
    /// States expanded between progress callbacks; `0` selects the default
    /// (8192).
    pub progress_every: usize,
    /// Deterministic fault-injection plan (see [`FaultPlan`]).  When set, the
    /// instrumented points of the explorer (successor generation, store
    /// insertion, progress reporting) poll the plan and inject the scheduled
    /// faults; when `None` (the default) the instrumentation reduces to one
    /// branch per site.
    pub faults: Option<Arc<FaultPlan>>,
}

impl SearchHook {
    /// A hook carrying only a wall-clock budget.
    pub fn with_wall_clock_budget(budget: Duration) -> SearchHook {
        SearchHook {
            wall_clock_budget: Some(budget),
            ..SearchHook::default()
        }
    }

    /// The effective progress interval.
    pub(crate) fn effective_progress_every(&self) -> usize {
        if self.progress_every == 0 {
            8192
        } else {
            self.progress_every
        }
    }

    /// `true` iff the hook can never influence an exploration.
    pub fn is_noop(&self) -> bool {
        self.wall_clock_budget.is_none()
            && self.cancel.is_none()
            && self.progress.is_none()
            && self.faults.is_none()
    }
}

impl fmt::Debug for SearchHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchHook")
            .field("wall_clock_budget", &self.wall_clock_budget)
            .field("cancel", &self.cancel.is_some())
            .field("progress", &self.progress.is_some())
            .field("progress_every", &self.progress_every)
            .field("faults", &self.faults)
            .finish()
    }
}

/// Options controlling an exploration.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Search order.
    pub order: SearchOrder,
    /// RNG seed used by [`SearchOrder::RandomDfs`].
    pub seed: u64,
    /// Whether to apply active-clock reduction: clocks that a static
    /// inactivity analysis proves dead in a discrete state (reset before
    /// their next read in every guard, invariant and query atom) are reset to
    /// a canonical value before the state is stored, so states differing only
    /// in dead-clock valuations merge in the passed list.  Verdict- and
    /// supremum-preserving (see `tempo_ta::activity` and
    /// `tests/reduction_differential.rs`); disable only to measure its effect
    /// or to debug.
    pub active_clock_reduction: bool,
    /// Whether to merge stored zones whose union is *exactly* convex: when a
    /// new zone and a stored zone of the same discrete state satisfy
    /// `hull(A, B) = A ∪ B`, both are replaced by the hull
    /// ([`tempo_dbm::Dbm::try_merge`]).  Unlike UPPAAL's `-C` convex-hull
    /// over-approximation this never adds valuations, so verdicts and
    /// suprema are preserved exactly.  Only applied to full explorations
    /// (supremum queries, [`Explorer::explore`]) — never to targeted
    /// reachability searches, whose diagnostic traces must stay concrete.
    pub exact_zone_merging: bool,
    /// Abort the exploration after this many stored states.
    pub max_states: Option<usize>,
    /// When the state limit is reached, stop gracefully and mark the
    /// statistics as truncated instead of returning an error.  Truncated
    /// explorations yield *lower bounds* on suprema (the paper's `df`/`rdf`
    /// "structured testing" usage).
    pub truncate_on_limit: bool,
    /// Wall-clock budget, cancellation and progress reporting (see
    /// [`SearchHook`]; the default hook does nothing).
    pub hook: SearchHook,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            order: SearchOrder::Bfs,
            seed: 0x7e4d0,
            active_clock_reduction: true,
            exact_zone_merging: true,
            max_states: None,
            truncate_on_limit: false,
            hook: SearchHook::default(),
        }
    }
}

impl SearchOptions {
    /// Convenience constructor selecting a search order.
    pub fn with_order(order: SearchOrder) -> SearchOptions {
        SearchOptions {
            order,
            ..SearchOptions::default()
        }
    }
}

/// Statistics about one exploration run.
#[derive(Clone, Debug, Default)]
pub struct ExplorationStats {
    /// Symbolic states popped from the waiting list and expanded.
    pub states_explored: usize,
    /// Cumulative successful insertions into the passed/waiting structure
    /// (after inclusion subsumption; zones later absorbed by merging or
    /// eviction still count).  This is the quantity
    /// [`SearchOptions::max_states`] bounds.
    pub stored_cumulative: usize,
    /// Net number of symbolic states (zones) held by the passed/waiting
    /// store when the exploration finished — the store's memory footprint,
    /// as opposed to [`ExplorationStats::stored_cumulative`].
    pub stored_live: usize,
    /// Zone-graph transitions computed.
    pub transitions: usize,
    /// Wall-clock duration of the exploration.
    pub duration: Duration,
    /// `true` if the exploration stopped because of the state limit.
    pub truncated: bool,
    /// Largest number of states simultaneously awaiting expansion (the
    /// waiting-list high-water mark).
    pub peak_waiting: usize,
    /// Number of dead-clock canonicalizations the active-clock reduction
    /// applied (one per dead clock per computed symbolic state); `0` when the
    /// reduction is disabled or every clock stays live.
    pub clocks_eliminated: usize,
    /// Number of exact convex-union merges of stored zones (see
    /// [`SearchOptions::exact_zone_merging`]); `0` when merging is disabled
    /// or the search is targeted.
    pub zones_merged: usize,
    /// Number of stored zones dropped because a newcomer includes them.
    pub zones_evicted: usize,
}

/// One step of a diagnostic trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The action taken to reach this state (`None` for the initial state).
    pub action: Option<String>,
    /// Pretty-printed discrete state.
    pub state: String,
    /// Pretty-printed zone.
    pub zone: String,
}

/// Result of a reachability query.
#[derive(Clone, Debug)]
pub struct ReachReport {
    /// Whether a state satisfying the target was reached.
    pub reachable: bool,
    /// A diagnostic trace to the target, if reachable.
    pub trace: Option<Vec<TraceStep>>,
    /// Exploration statistics.
    pub stats: ExplorationStats,
}

/// One entry of the exploration arena.
///
/// Every inserted state gets a node, and the node's `parent` and `action`
/// stay for the whole run.  The state itself is held only while it waits
/// for expansion in untargeted runs: the pop moves it out, so the passed
/// list's copy of the zone is the only one kept.  Targeted searches keep
/// every state, since their diagnostic trace prints the whole path.
struct Node {
    state: Option<SymState>,
    parent: Option<usize>,
    action: Option<ActionLabel>,
}

/// The model checker façade: owns the system reference and the search options
/// and exposes the reachability / safety / WCRT queries.
pub struct Explorer<'s> {
    sys: &'s System,
    opts: SearchOptions,
}

impl<'s> Explorer<'s> {
    /// Creates an explorer after validating the system.
    pub fn new(sys: &'s System, opts: SearchOptions) -> Result<Explorer<'s>, CheckError> {
        // Constructing a generator performs validation and feature checks.
        SuccessorGen::new(sys, &opts)?;
        Ok(Explorer { sys, opts })
    }

    /// The system under analysis.
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// The options in effect.
    pub fn options(&self) -> &SearchOptions {
        &self.opts
    }

    /// Runs the core exploration loop.
    ///
    /// * `target`: stop (reporting reachability) as soon as a state matching
    ///   the target is found; `None` explores the full reachable zone graph.
    /// * `query`: the target whose constants are being respected by
    ///   extrapolation (may differ from `target`, e.g. the sup query explores
    ///   fully but must keep the observed clock exact at the query
    ///   locations).
    /// * `visit`: called once for every state popped from the waiting list.
    pub(crate) fn run<F: FnMut(&SymState)>(
        &self,
        target: Option<&TargetSpec>,
        query: Option<&QuerySeed>,
        mut visit: F,
    ) -> Result<(Option<Vec<TraceStep>>, bool, ExplorationStats), CheckError> {
        let start = Instant::now();
        let gen = SuccessorGen::for_query(self.sys, &self.opts, query)?;
        let hook = &self.opts.hook;
        let deadline = hook.wall_clock_budget.map(|b| start + b);
        let progress_every = hook.effective_progress_every();
        let mut last_progress = 0usize;
        // Exact zone merging is restricted to untargeted explorations: a
        // merged node has no single concrete predecessor path, so diagnostic
        // traces (only produced for targeted searches) stay unmerged.
        let merging = target.is_none() && self.opts.exact_zone_merging;
        let keep_states = target.is_some();
        let mut rng = StdRng::seed_from_u64(self.opts.seed);

        let mut stats = ExplorationStats::default();
        let mut nodes: Vec<Node> = Vec::new();
        let mut waiting: VecDeque<usize> = VecDeque::new();

        let mut init = gen.initial_state()?;
        if init.zone.is_empty() || !gen.can_reach_query(&init.discrete) {
            // Inconsistent initial invariants, or the query's location atoms
            // are unreachable: nothing relevant is reachable.
            stats.clocks_eliminated = gen.clocks_eliminated();
            stats.duration = start.elapsed();
            return Ok((None, false, stats));
        }
        let mut passed = PassedList::new();
        passed.insert(&init.discrete, &mut init.zone, false, 0);
        nodes.push(Node {
            state: Some(init),
            parent: None,
            action: None,
        });
        waiting.push_back(0);
        stats.stored_cumulative = 1;
        stats.peak_waiting = 1;

        let mut found: Option<usize> = None;
        'search: while let Some(idx) = match self.opts.order {
            SearchOrder::Bfs => waiting.pop_front(),
            SearchOrder::Dfs | SearchOrder::RandomDfs => waiting.pop_back(),
        } {
            // Cooperative cancellation is checked on every pop (an atomic
            // load is cheap next to an expansion, and bounded cancellation
            // latency matters more than the load); the wall-clock budget —
            // an `Instant::now` syscall — stays on a coarse stride.
            if let Some(cancel) = &hook.cancel {
                if cancel.load(Ordering::Relaxed) {
                    return Err(CheckError::Cancelled);
                }
            }
            if stats.states_explored & 0x3f == 0 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        stats.truncated = true;
                        break 'search;
                    }
                }
            }
            if let Some(progress) = &hook.progress {
                // Gate on the counter having *advanced* since the last
                // report: stale queued states are skipped without expanding,
                // so a plain modulo test would re-fire on every stale pop.
                if stats.states_explored >= last_progress + progress_every {
                    last_progress = stats.states_explored;
                    if let Some(plan) = &hook.faults {
                        if plan.poll(FaultSite::Progress)? {
                            stats.truncated = true;
                            break 'search;
                        }
                    }
                    progress(&SearchProgress {
                        states_explored: stats.states_explored,
                        states_stored: stats.stored_cumulative,
                        waiting: waiting.len(),
                        elapsed: start.elapsed(),
                    });
                }
            }
            // Untargeted runs move the state out of the arena: it is dropped
            // at the end of this iteration, after its expansion (or skip).
            let taken = if keep_states {
                None
            } else {
                nodes[idx].state.take()
            };
            let state = taken
                .as_ref()
                .or(nodes[idx].state.as_ref())
                .expect("a queued node holds its state until popped");
            // A queued state whose zone was since evicted or absorbed into a
            // hull is covered by a stored zone whose own expansion subsumes
            // it: skip it.
            if !passed.is_current(idx) {
                continue;
            }
            stats.states_explored += 1;
            visit(state);
            if let Some(t) = target {
                if t.matches(state)? {
                    found = Some(idx);
                    break;
                }
            }
            if let Some(plan) = &hook.faults {
                if plan.poll(FaultSite::SuccessorGen)? {
                    stats.truncated = true;
                    break 'search;
                }
            }
            let mut succs = {
                let _span = tempo_obs::span!("explore.successor_gen");
                gen.successors(state)?
            };
            stats.transitions += succs.len();
            if self.opts.order == SearchOrder::RandomDfs {
                succs.shuffle(&mut rng);
            }
            let _insert_span = tempo_obs::span!("explore.store_insert");
            for (mut succ, action) in succs {
                if succ.zone.is_empty() {
                    continue;
                }
                // Prune states that can no longer satisfy the query's
                // location atoms (e.g. the observer's terminal location).
                if !gen.can_reach_query(&succ.discrete) {
                    continue;
                }
                if let Some(plan) = &hook.faults {
                    if plan.poll(FaultSite::StoreInsert)? {
                        stats.truncated = true;
                        break;
                    }
                }
                let node_idx = nodes.len();
                match passed.insert(&succ.discrete, &mut succ.zone, merging, node_idx) {
                    Insert::Subsumed => continue,
                    Insert::Inserted { evicted, merged } => {
                        stats.zones_evicted += evicted;
                        stats.zones_merged += merged;
                    }
                }
                nodes.push(Node {
                    state: Some(succ),
                    parent: Some(idx),
                    action: Some(action),
                });
                waiting.push_back(node_idx);
                stats.stored_cumulative += 1;
                stats.peak_waiting = stats.peak_waiting.max(waiting.len());
                if let Some(limit) = self.opts.max_states {
                    if stats.stored_cumulative > limit {
                        if self.opts.truncate_on_limit {
                            stats.truncated = true;
                            break;
                        } else {
                            return Err(CheckError::StateLimitExceeded { limit });
                        }
                    }
                }
            }
            if stats.truncated {
                break 'search;
            }
        }

        stats.clocks_eliminated = gen.clocks_eliminated();
        stats.stored_live = passed.live_zones();
        stats.duration = start.elapsed();
        let trace = found.map(|mut idx| {
            let mut rev = Vec::new();
            loop {
                let node = &nodes[idx];
                let state = node
                    .state
                    .as_ref()
                    .expect("targeted searches keep every state");
                rev.push(TraceStep {
                    action: node.action.as_ref().map(|a| a.pretty(self.sys)),
                    state: state.discrete.pretty(self.sys),
                    zone: state.zone.to_string(),
                });
                match node.parent {
                    Some(p) => idx = p,
                    None => break,
                }
            }
            rev.reverse();
            rev
        });
        Ok((trace, found.is_some(), stats))
    }

    /// `EF target`: is a state matching the target reachable?
    pub fn check_reachable(&self, target: &TargetSpec) -> Result<ReachReport, CheckError> {
        let seed = QuerySeed {
            target: target.clone(),
            consts: target.clock_constants(self.sys),
        };
        let (trace, reachable, stats) = self.run(Some(target), Some(&seed), |_| {})?;
        Ok(ReachReport {
            reachable,
            trace,
            stats,
        })
    }

    /// `AG ¬bad`: does every reachable state avoid the given bad set?
    ///
    /// Returns the same report as [`Explorer::check_reachable`]; the property
    /// *holds* iff `report.reachable` is `false`, and the trace (if any) is a
    /// counterexample.
    pub fn check_safety(&self, bad: &TargetSpec) -> Result<ReachReport, CheckError> {
        self.check_reachable(bad)
    }

    /// Explores the entire reachable zone graph, invoking `visit` on every
    /// expanded state, and returns the exploration statistics.
    pub fn explore<F: FnMut(&SymState)>(&self, visit: F) -> Result<ExplorationStats, CheckError> {
        let (_, _, stats) = self.run(None, None, visit)?;
        Ok(stats)
    }

    /// Number of stored symbolic states of the full reachable zone graph
    /// (cumulative insertions, see [`ExplorationStats::stored_cumulative`]).
    pub fn state_space_size(&self) -> Result<usize, CheckError> {
        Ok(self.explore(|_| {})?.stored_cumulative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{ChannelKind, ClockRef, Sync, SystemBuilder, Update, VarExprExt};

    /// Classic two-process mutual exclusion *without* any protection: both
    /// processes can be in the critical section at once, and the checker must
    /// find that.
    fn unprotected_mutex() -> System {
        let mut sb = SystemBuilder::new("mutex");
        let _x = sb.add_clock("x");
        for name in ["p1", "p2"] {
            let mut p = sb.automaton(name);
            let idle = p.location("idle").add();
            let cs = p.location("cs").add();
            p.edge(idle, cs).add();
            p.edge(cs, idle).add();
            p.set_initial(idle);
            p.build();
        }
        sb.build()
    }

    #[test]
    fn finds_interleaving_violation() {
        let sys = unprotected_mutex();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let both = TargetSpec::location(&sys, "p1", "cs")
            .unwrap()
            .and_location(&sys, "p2", "cs")
            .unwrap();
        let report = ex.check_reachable(&both).unwrap();
        assert!(report.reachable);
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), 3); // init, p1 -> cs, p2 -> cs (in some order)
        assert!(trace[0].action.is_none());
        assert!(trace.last().unwrap().state.contains("cs"));
    }

    /// Time-bounded reachability: the target needs at least 15 time units of
    /// accumulated delay, which the invariants/guards enforce.
    fn three_step_pipeline() -> System {
        let mut sb = SystemBuilder::new("pipeline");
        let x = sb.add_clock("x");
        let total = sb.add_clock("t");
        let mut a = sb.automaton("stage");
        let s0 = a.location("s0").invariant(x.le(5)).add();
        let s1 = a.location("s1").invariant(x.le(4)).add();
        let s2 = a.location("s2").invariant(x.le(6)).add();
        let done = a.location("done").add();
        a.edge(s0, s1).guard_clock(x.eq_(5)).reset(x).add();
        a.edge(s1, s2).guard_clock(x.eq_(4)).reset(x).add();
        a.edge(s2, done).guard_clock(x.eq_(6)).reset(x).add();
        a.set_initial(s0);
        a.build();
        let _ = total;
        sb.build()
    }

    #[test]
    fn accumulated_delay_visible_on_total_clock() {
        let sys = three_step_pipeline();
        let t = sys.clock_by_name("t").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        // done is reachable...
        let done = TargetSpec::location(&sys, "stage", "done").unwrap();
        assert!(ex.check_reachable(&done).unwrap().reachable);
        // ...and exactly at t == 15, never earlier.
        let early = TargetSpec::location(&sys, "stage", "done")
            .unwrap()
            .with_clock_constraint(t.lt(15));
        assert!(!ex.check_reachable(&early).unwrap().reachable);
        let exact = TargetSpec::location(&sys, "stage", "done")
            .unwrap()
            .with_clock_constraint(t.ge(15));
        assert!(ex.check_reachable(&exact).unwrap().reachable);
    }

    #[test]
    fn search_orders_agree_on_reachability() {
        let sys = three_step_pipeline();
        let t = sys.clock_by_name("t").unwrap();
        for order in [SearchOrder::Bfs, SearchOrder::Dfs, SearchOrder::RandomDfs] {
            let ex = Explorer::new(&sys, SearchOptions::with_order(order)).unwrap();
            let early = TargetSpec::location(&sys, "stage", "done")
                .unwrap()
                .with_clock_constraint(t.lt(15));
            assert!(!ex.check_reachable(&early).unwrap().reachable, "{order:?}");
            let ok = TargetSpec::location(&sys, "stage", "done").unwrap();
            assert!(ex.check_reachable(&ok).unwrap().reachable, "{order:?}");
        }
    }

    /// A clock that is reset at unpredictable instants but never read: without
    /// active-clock reduction its difference bounds against the live ticking
    /// clock fragment the zone graph; with the reduction (default) it is
    /// pinned to the canonical value and the fragments merge.
    fn dead_clock_fragmentation() -> System {
        let mut sb = SystemBuilder::new("frag");
        let t = sb.add_clock("t");
        let d = sb.add_clock("d");
        let mut tick = sb.automaton("tick");
        let l0 = tick.location("l0").invariant(t.le(3)).add();
        tick.edge(l0, l0).guard_clock(t.eq_(3)).reset(t).add();
        tick.set_initial(l0);
        tick.build();
        let mut sp = sb.automaton("spawn");
        let s0 = sp.location("s0").add();
        sp.edge(s0, s0).reset(d).add();
        sp.set_initial(s0);
        sp.build();
        sb.build()
    }

    #[test]
    fn active_clock_reduction_merges_dead_clock_states() {
        let sys = dead_clock_fragmentation();
        let on = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let off = Explorer::new(
            &sys,
            SearchOptions {
                active_clock_reduction: false,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        let stats_on = on.explore(|_| {}).unwrap();
        let stats_off = off.explore(|_| {}).unwrap();
        assert!(stats_on.clocks_eliminated > 0, "reduction did not fire");
        assert_eq!(stats_off.clocks_eliminated, 0);
        assert!(
            stats_on.stored_cumulative < stats_off.stored_cumulative,
            "reduction should merge states: {} vs {}",
            stats_on.stored_cumulative,
            stats_off.stored_cumulative
        );
        assert!(stats_on.peak_waiting >= 1 && stats_off.peak_waiting >= 1);
        // Verdicts agree regardless of the reduction.
        let t = sys.clock_by_name("t").unwrap();
        for (ex, name) in [(&on, "on"), (&off, "off")] {
            let boundary = TargetSpec::any().with_clock_constraint(t.ge(3));
            assert!(ex.check_reachable(&boundary).unwrap().reachable, "{name}");
            let beyond = TargetSpec::any().with_clock_constraint(t.gt(3));
            assert!(!ex.check_reachable(&beyond).unwrap().reachable, "{name}");
        }
    }

    #[test]
    fn targeted_traces_keep_every_state() {
        let sys = three_step_pipeline();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let done = TargetSpec::location(&sys, "stage", "done").unwrap();
        let trace = ex.check_reachable(&done).unwrap().trace.unwrap();
        assert_eq!(trace.len(), 4, "s0 -> s1 -> s2 -> done");
        assert!(trace[0].action.is_none());
        assert!(trace[1..].iter().all(|step| step.action.is_some()));
        for (step, loc) in trace.iter().zip(["s0", "s1", "s2", "done"]) {
            assert!(step.state.contains(&format!("stage.{loc}")));
            assert!(!step.zone.is_empty() && step.zone != "false");
        }
    }

    #[test]
    fn untargeted_runs_visit_each_expanded_state_once() {
        for sys in [
            unprotected_mutex(),
            three_step_pipeline(),
            dead_clock_fragmentation(),
        ] {
            let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
            let mut visits = 0usize;
            let stats = ex.explore(|_| visits += 1).unwrap();
            assert_eq!(visits, stats.states_explored);
            assert!(stats.states_explored <= stats.stored_cumulative);
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let sys = unprotected_mutex();
        let opts = SearchOptions {
            max_states: Some(2),
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let err = ex.state_space_size().unwrap_err();
        assert!(matches!(err, CheckError::StateLimitExceeded { limit: 2 }));
    }

    #[test]
    fn truncation_yields_partial_exploration_without_error() {
        // The initial state has two successors, so a limit of 1 trips on the
        // first of them and must not insert its sibling.
        let sys = unprotected_mutex();
        for limit in 1..=3 {
            let opts = SearchOptions {
                max_states: Some(limit),
                truncate_on_limit: true,
                ..SearchOptions::default()
            };
            let stats = Explorer::new(&sys, opts).unwrap().explore(|_| {}).unwrap();
            assert!(stats.truncated, "limit {limit}");
            assert_eq!(stats.stored_cumulative, limit + 1, "limit {limit}");
        }
    }

    #[test]
    fn full_exploration_counts_states() {
        let sys = unprotected_mutex();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        // 2 automata with 2 locations each, no clocks constraining anything:
        // exactly 4 discrete states.
        assert_eq!(ex.state_space_size().unwrap(), 4);
        let stats = ex.explore(|_| {}).unwrap();
        assert_eq!(stats.states_explored, 4);
        assert!(!stats.truncated);
        assert!(stats.transitions >= 4);
    }

    #[test]
    fn injected_faults_abort_or_truncate_the_sequential_exploration() {
        use crate::fault::{FaultKind, FaultPlan, FaultSite};
        let sys = unprotected_mutex();
        let with_plan = |plan: FaultPlan| {
            let opts = SearchOptions {
                hook: SearchHook {
                    faults: Some(Arc::new(plan)),
                    ..SearchHook::default()
                },
                ..SearchOptions::default()
            };
            Explorer::new(&sys, opts).unwrap()
        };

        // A spurious cancellation surfaces exactly like a real one.
        let ex = with_plan(FaultPlan::single(
            FaultSite::SuccessorGen,
            FaultKind::Cancel,
            1,
        ));
        assert_eq!(ex.explore(|_| {}).unwrap_err(), CheckError::Cancelled);

        // Injected budget exhaustion truncates gracefully, like a wall-clock
        // expiry: partial statistics, no error.
        let ex = with_plan(FaultPlan::single(
            FaultSite::StoreInsert,
            FaultKind::BudgetExhaustion,
            0,
        ));
        let stats = ex.explore(|_| {}).unwrap();
        assert!(stats.truncated);
        assert!(stats.states_explored < 4);

        // A transient error aborts with the retryable variant — and because
        // plans are one-shot, the *same* explorer succeeds when re-run.
        let ex = with_plan(FaultPlan::single(
            FaultSite::SuccessorGen,
            FaultKind::TransientError,
            0,
        ));
        assert!(matches!(
            ex.explore(|_| {}).unwrap_err(),
            CheckError::Transient { .. }
        ));
        let stats = ex.explore(|_| {}).unwrap();
        assert_eq!(stats.states_explored, 4);
        assert!(!stats.truncated);
    }

    #[test]
    fn sequential_cancellation_latency_is_bounded() {
        use std::sync::atomic::AtomicUsize;
        let sys = unprotected_mutex();
        let cancel = Arc::new(AtomicBool::new(false));
        let opts = SearchOptions {
            hook: SearchHook {
                cancel: Some(cancel.clone()),
                ..SearchHook::default()
            },
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let visits = Arc::new(AtomicUsize::new(0));
        let v = visits.clone();
        let c = cancel.clone();
        let err = ex
            .explore(move |_| {
                if v.fetch_add(1, Ordering::Relaxed) + 1 == 2 {
                    c.store(true, Ordering::Relaxed);
                }
            })
            .unwrap_err();
        assert_eq!(err, CheckError::Cancelled);
        // The flag is polled on every pop: no further state is expanded after
        // the one that raised it.
        assert_eq!(visits.load(Ordering::Relaxed), 2);
    }

    /// A producer/consumer over an urgent channel: the consumer must process
    /// greedily, so the queue (counter) never exceeds 1 when production is
    /// slower than consumption.
    #[test]
    fn greedy_consumption_bounds_queue() {
        let mut sb = SystemBuilder::new("queue");
        let xp = sb.add_clock("xp");
        let xc = sb.add_clock("xc");
        let queued = sb.add_var("queued", 0, 10, 0);
        let hurry = sb.add_channel("hurry", ChannelKind::Urgent);

        let mut listener = sb.automaton("listener");
        let l0 = listener.location("idle").add();
        listener.edge(l0, l0).sync(Sync::recv(hurry)).add();
        listener.set_initial(l0);
        listener.build();

        let mut producer = sb.automaton("producer");
        let p0 = producer.location("p0").invariant(xp.le(10)).add();
        producer
            .edge(p0, p0)
            .guard_clock(xp.eq_(10))
            .update(Update::add(queued, 1))
            .reset(xp)
            .add();
        producer.set_initial(p0);
        producer.build();

        let mut consumer = sb.automaton("consumer");
        let idle = consumer.location("idle").add();
        let busy = consumer.location("busy").invariant(xc.le(3)).add();
        consumer
            .edge(idle, busy)
            .guard(queued.gt_(0))
            .sync(Sync::send(hurry))
            .update(Update::add(queued, -1))
            .reset(xc)
            .add();
        consumer.edge(busy, idle).guard_clock(xc.eq_(3)).add();
        consumer.set_initial(idle);
        consumer.build();

        let sys = sb.build();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        // The queue can never hold 2 items: consumption (3) is faster than
        // production (10) and service is greedy.
        let overflow = TargetSpec::any().with_int_guard(queued.ge_(2));
        let report = ex.check_safety(&overflow).unwrap();
        assert!(!report.reachable, "queue overflowed: {:?}", report.trace);
        // But a single queued item is of course reachable (briefly).
        let one = TargetSpec::any().with_int_guard(queued.ge_(1));
        assert!(ex.check_reachable(&one).unwrap().reachable);
    }
}
