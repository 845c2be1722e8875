//! The symbolic transition relation (successor computation) implementing
//! UPPAAL network semantics.

use crate::error::CheckError;
use crate::explorer::SearchOptions;
use crate::state::{DiscreteState, SymState};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use tempo_dbm::Dbm;
use tempo_ta::{
    apply_constraints, ChannelId, ChannelKind, Edge, EvalError, LocationKind, Sync, System,
    VarStore,
};

/// Description of the discrete action labelling a zone-graph transition; used
/// for diagnostic traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActionLabel {
    /// An internal (τ) edge of one automaton.
    Internal {
        /// Automaton index.
        automaton: usize,
        /// Edge index within the automaton.
        edge: usize,
    },
    /// A binary synchronization.
    Binary {
        /// The channel synchronized on.
        channel: ChannelId,
        /// `(automaton, edge)` of the sender (`c!`).
        sender: (usize, usize),
        /// `(automaton, edge)` of the receiver (`c?`).
        receiver: (usize, usize),
    },
    /// A broadcast synchronization.
    Broadcast {
        /// The channel synchronized on.
        channel: ChannelId,
        /// `(automaton, edge)` of the sender.
        sender: (usize, usize),
        /// `(automaton, edge)` of every receiver (possibly empty).
        receivers: Vec<(usize, usize)>,
    },
}

impl ActionLabel {
    /// Renders the action with declared names.
    pub fn pretty(&self, sys: &System) -> String {
        let edge_str = |a: usize, e: usize| -> String {
            let aut = &sys.automata[a];
            let edge = &aut.edges[e];
            format!(
                "{}: {} -> {}",
                aut.name,
                aut.location(edge.source).name,
                aut.location(edge.target).name
            )
        };
        match self {
            ActionLabel::Internal { automaton, edge } => edge_str(*automaton, *edge),
            ActionLabel::Binary {
                channel,
                sender,
                receiver,
            } => format!(
                "{}! [{} || {}]",
                sys.channels[channel.index()].name,
                edge_str(sender.0, sender.1),
                edge_str(receiver.0, receiver.1)
            ),
            ActionLabel::Broadcast {
                channel,
                sender,
                receivers,
            } => {
                let rcv = receivers
                    .iter()
                    .map(|(a, e)| edge_str(*a, *e))
                    .collect::<Vec<_>>()
                    .join(" || ");
                format!(
                    "{}! (broadcast) [{} || {}]",
                    sys.channels[channel.index()].name,
                    edge_str(sender.0, sender.1),
                    rcv
                )
            }
        }
    }
}

/// The query of an exploration: the target whose locations seed the
/// extrapolation/activity tables, plus the clock constants that must stay
/// observable there (target guard constants and the WCRT cap).
#[derive(Clone, Debug)]
pub struct QuerySeed {
    /// The query's goal states.
    pub target: crate::target::TargetSpec,
    /// Clock constants to keep exact wherever the query can observe them.
    pub consts: Vec<(tempo_ta::ClockId, i64)>,
}

/// Successor generator: precomputed per-system data plus the extrapolation
/// constants in effect for the current query.
pub struct SuccessorGen<'s> {
    sys: &'s System,
    ranges: Vec<(i64, i64)>,
    /// Location-dependent LU extrapolation constants (static guard analysis
    /// with reset-kill propagation), possibly seeded with query constants at
    /// the query's target locations.  Two properties make this the decisive
    /// optimization for the architecture models:
    ///
    /// * LU rather than plain maximum bounds — sporadic/burst environment
    ///   clocks only ever appear in lower-bound guards, so their upper
    ///   constant is 0 and ExtraLU collapses the otherwise huge fan-out of
    ///   "arrival phase" zones (e.g. against free-running TDMA slot gates);
    /// * location dependence — the measuring observer's clock is reset when a
    ///   measurement is armed and never read after the response is seen, so
    ///   outside the armed window its constant is 0 and the clock is
    ///   extrapolated away instead of fragmenting the pre-arming and
    ///   post-measurement state space.
    ///
    /// Sound because the constraint language is diagonal-free.
    lu: tempo_ta::LuTable,
    /// Location-dependent clock activity (static inactivity analysis with the
    /// same reset-kill backward propagation, see [`tempo_ta::activity`]),
    /// seeded with the query clocks exactly like the LU table.  Clocks dead in
    /// a successor's discrete state are pinned to the canonical value `0`
    /// after the delay closure, just before extrapolation, so states whose
    /// delayed zones differ only in dead-clock valuations hash and compare
    /// as equal — the active-clock reduction.  Pinning before the delay would
    /// let the clock advance again and keep the time since entry apart.
    activity: tempo_ta::ActivityTable,
    /// Constants applied at every location (query constants of targets
    /// without location atoms).
    global_lower: Vec<i64>,
    global_upper: Vec<i64>,
    /// Merged per-state constant vectors per discrete location vector.  The
    /// number of distinct location vectors is tiny compared to the number of
    /// symbolic states, so memoizing the merge keeps the per-successor
    /// extrapolation and reduction allocation-free on the hot path.
    merged_cache: std::cell::RefCell<HashMap<Vec<tempo_ta::LocId>, Rc<StateConsts>>>,
    /// Per location atom of the query, the set of locations of that
    /// automaton from which the atom's location is reachable (location-graph
    /// over-approximation).  A state is pruned iff some atom has become
    /// unreachable: e.g. once the measuring observer reaches its terminal
    /// `done` location, the whole remaining run of the system is irrelevant
    /// to the WCRT supremum and is not explored.  `None` disables pruning
    /// (no query, or one without location atoms that can match anywhere).
    query_reach: Option<Vec<(usize, Vec<bool>)>>,
    reduce: bool,
    /// Running count of dead-clock canonicalizations applied (one per dead
    /// clock per computed symbolic state); reported as
    /// [`crate::ExplorationStats::clocks_eliminated`].
    eliminated: Cell<usize>,
}

/// Merged per-clock data for one discrete location vector: the (lower, upper)
/// extrapolation constants and the active-clock flags (element-wise maximum /
/// union over every automaton's current location), plus what decides whether
/// time may pass there.
struct StateConsts {
    lower: Vec<i64>,
    upper: Vec<i64>,
    /// Indexed by DBM clock index; entry 0 unused.
    active: Vec<bool>,
    /// Number of `false` entries in `active` (excluding entry 0).
    num_dead: usize,
    /// Some automaton occupies an urgent or committed location.
    urgent_location: bool,
    /// The urgent channels that can synchronize from this location vector
    /// if their data guards allow it (empty when `urgent_location` is set).
    urgent_syncs: Vec<UrgentSync>,
}

/// The outgoing edges over one urgent channel at one location vector, as
/// `(automaton, edge)` pairs.
struct UrgentSync {
    broadcast: bool,
    senders: Vec<(usize, usize)>,
    receivers: Vec<(usize, usize)>,
}

impl<'s> SuccessorGen<'s> {
    /// Creates a generator from search options alone; equivalent to
    /// [`SuccessorGen::for_query`] without a query.
    pub fn new(sys: &'s System, opts: &SearchOptions) -> Result<SuccessorGen<'s>, CheckError> {
        SuccessorGen::for_query(sys, opts, None)
    }

    /// Creates a generator serving the given query (or none).
    ///
    /// The query's clock constants (target guard constants, WCRT cap) must
    /// survive extrapolation — and active-clock reduction — exactly wherever
    /// the query can observe them: when the query has location atoms they
    /// are seeded only at those locations and propagated backward (precision
    /// is needed on paths that can still reach the target, not after the
    /// clock's next reset), otherwise they apply everywhere and their clocks
    /// are treated as active everywhere.
    pub fn for_query(
        sys: &'s System,
        opts: &SearchOptions,
        query: Option<&QuerySeed>,
    ) -> Result<SuccessorGen<'s>, CheckError> {
        sys.validate()?;
        // Restriction checks that keep the semantics implementable with plain
        // zones: no clock guards on urgent synchronizations or broadcast
        // receptions (same restriction as UPPAAL).
        for (ai, a) in sys.automata.iter().enumerate() {
            for (ei, e) in a.edges.iter().enumerate() {
                if let Some(ch) = e.sync.channel() {
                    let kind = sys.channels[ch.index()].kind;
                    let is_recv = matches!(e.sync, Sync::Recv(_));
                    if (kind.is_urgent() || (kind.is_broadcast() && is_recv))
                        && !e.clock_guard.is_empty()
                    {
                        let _ = ai;
                        return Err(CheckError::ClockGuardOnUrgentEdge {
                            automaton: a.name.clone(),
                            edge: ei,
                        });
                    }
                }
            }
        }
        let mut lu = sys.location_lu_table();
        let mut activity = sys.location_activity_table();
        let dim = sys.num_clocks() + 1;
        let mut global_lower = vec![0i64; dim];
        let mut global_upper = vec![0i64; dim];
        let mut query_reach = None;
        if let Some(seed) = query {
            if seed.target.locations.is_empty() {
                // A query without location atoms can observe its clocks in
                // every state: its constants apply everywhere.
                for &(clock, value) in &seed.consts {
                    let idx = clock.dbm_clock().index();
                    if idx < dim {
                        global_lower[idx] = global_lower[idx].max(value);
                        global_upper[idx] = global_upper[idx].max(value);
                        // A globally observed clock must never be
                        // canonicalized.
                        activity.seed_everywhere(clock);
                    }
                }
            } else {
                for &(ai, li) in &seed.target.locations {
                    for (clock, value) in &seed.consts {
                        lu.seed(ai, li, *clock, *value);
                        activity.seed(ai, li, *clock);
                    }
                }
                sys.propagate_lu_table(&mut lu);
                sys.propagate_activity_table(&mut activity);
                query_reach = Some(
                    seed.target
                        .locations
                        .iter()
                        .map(|&(ai, li)| (ai, sys.automata[ai].locations_reaching(li)))
                        .collect(),
                );
            }
        }
        Ok(SuccessorGen {
            sys,
            ranges: sys.var_ranges(),
            lu,
            activity,
            query_reach,
            global_lower,
            global_upper,
            merged_cache: std::cell::RefCell::new(HashMap::new()),
            reduce: opts.active_clock_reduction,
            eliminated: Cell::new(0),
        })
    }

    /// The system this generator works on.
    #[allow(dead_code)]
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// The merged per-clock data in effect at the given discrete state: the
    /// element-wise maximum of the global query constants and every
    /// automaton's location-dependent LU constants, plus the union of the
    /// per-location active-clock sets (a clock stays live as long as *any*
    /// automaton may still observe it), and the location kinds and
    /// urgent-channel edges [`SuccessorGen::delay_allowed`] reads.  Memoized
    /// per location vector.
    fn state_consts(&self, discrete: &DiscreteState) -> Rc<StateConsts> {
        if let Some(cached) = self.merged_cache.borrow().get(discrete.locations()) {
            return Rc::clone(cached);
        }
        let mut lower = self.global_lower.clone();
        let mut upper = self.global_upper.clone();
        let mut active = vec![false; lower.len()];
        for (ai, loc) in discrete.locations().iter().enumerate() {
            let (l, u) = &self.lu.per_loc[ai][loc.index()];
            let act = &self.activity.per_loc[ai][loc.index()];
            for i in 1..lower.len() {
                if l[i] > lower[i] {
                    lower[i] = l[i];
                }
                if u[i] > upper[i] {
                    upper[i] = u[i];
                }
                if act[i] {
                    active[i] = true;
                }
            }
        }
        let num_dead = active.iter().skip(1).filter(|a| !**a).count();
        let urgent_location = self
            .sys
            .automata
            .iter()
            .zip(discrete.locations())
            .any(|(a, loc)| a.location(*loc).kind != LocationKind::Normal);
        let urgent_syncs = if urgent_location {
            Vec::new()
        } else {
            self.urgent_syncs(discrete)
        };
        let merged = Rc::new(StateConsts {
            lower,
            upper,
            active,
            num_dead,
            urgent_location,
            urgent_syncs,
        });
        self.merged_cache
            .borrow_mut()
            .insert(discrete.locations().to_vec(), Rc::clone(&merged));
        merged
    }

    /// Canonicalizes the clocks that are dead at `consts`' discrete state
    /// (active-clock reduction), when enabled.
    fn reduce_zone(&self, zone: &mut Dbm, consts: &StateConsts) {
        if self.reduce && consts.num_dead > 0 {
            let n = zone.restrict_to_active(&consts.active);
            self.eliminated.set(self.eliminated.get() + n);
        }
    }

    fn extrapolate_zone(&self, zone: &mut Dbm, consts: &StateConsts) {
        zone.extrapolate_lu(&consts.lower, &consts.upper);
    }

    /// Total number of dead-clock canonicalizations this generator applied.
    pub fn clocks_eliminated(&self) -> usize {
        self.eliminated.get()
    }

    /// `false` iff the discrete state provably cannot satisfy the query's
    /// location atoms anymore (some atom's automaton has left the set of
    /// locations from which the atom is reachable); such states need not be
    /// stored or expanded.  Always `true` without a query or when the query
    /// has no location atoms (it can match anywhere).
    pub fn can_reach_query(&self, discrete: &DiscreteState) -> bool {
        match &self.query_reach {
            None => true,
            Some(atoms) => atoms
                .iter()
                .all(|(ai, reach)| reach[discrete.locations()[*ai].index()]),
        }
    }

    /// Applies the invariants of every automaton (at the given locations,
    /// under the given variable valuation) to the zone.
    fn apply_invariants(
        &self,
        zone: &mut Dbm,
        discrete: &DiscreteState,
    ) -> Result<(), EvalError> {
        for (a, loc) in self.sys.automata.iter().zip(discrete.locations()) {
            let inv = &a.location(*loc).invariant;
            if !inv.is_empty() {
                apply_constraints(zone, inv, discrete.vars())?;
                if zone.is_empty() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Per urgent channel, the outgoing edges that send or receive on it at
    /// `discrete`'s location vector; channels that cannot synchronize there
    /// whatever the data guards say are left out.
    fn urgent_syncs(&self, discrete: &DiscreteState) -> Vec<UrgentSync> {
        let mut syncs = Vec::new();
        for (ci, ch) in self.sys.channels.iter().enumerate() {
            if !ch.kind.is_urgent() {
                continue;
            }
            let channel = ChannelId(ci as u32);
            let mut sync = UrgentSync {
                broadcast: ch.kind.is_broadcast(),
                senders: Vec::new(),
                receivers: Vec::new(),
            };
            for (ai, a) in self.sys.automata.iter().enumerate() {
                for (ei, e) in a.outgoing(discrete.locations()[ai]) {
                    match e.sync {
                        Sync::Send(c) if c == channel => sync.senders.push((ai, ei)),
                        Sync::Recv(c) if c == channel => sync.receivers.push((ai, ei)),
                        _ => {}
                    }
                }
            }
            let possible = sync.senders.iter().any(|&(s, _)| {
                sync.broadcast || sync.receivers.iter().any(|&(r, _)| r != s)
            });
            if possible {
                syncs.push(sync);
            }
        }
        syncs
    }

    /// `true` iff time may elapse in the given discrete state: no automaton
    /// occupies an urgent or committed location and no urgent-channel
    /// synchronization is enabled.  Everything but the data guards comes
    /// from the memoized `consts` of the state's location vector (clock
    /// guards on urgent edges are rejected at construction time).
    fn delay_allowed(
        &self,
        discrete: &DiscreteState,
        consts: &StateConsts,
    ) -> Result<bool, EvalError> {
        if consts.urgent_location {
            return Ok(false);
        }
        let enabled = |&(ai, ei): &(usize, usize)| {
            self.sys.automata[ai].edges[ei].guard.eval(discrete.vars())
        };
        for sync in &consts.urgent_syncs {
            for sender in &sync.senders {
                if !enabled(sender)? {
                    continue;
                }
                if sync.broadcast {
                    return Ok(false);
                }
                for receiver in &sync.receivers {
                    if receiver.0 != sender.0 && enabled(receiver)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// The initial symbolic state (delay-closed if permitted, reduced,
    /// extrapolated).
    pub fn initial_state(&self) -> Result<SymState, CheckError> {
        let discrete = DiscreteState::initial(self.sys);
        let consts = self.state_consts(&discrete);
        let mut zone = Dbm::zero(self.sys.num_clocks());
        self.apply_invariants(&mut zone, &discrete)?;
        if !zone.is_empty() && self.delay_allowed(&discrete, &consts)? {
            zone.up();
            self.apply_invariants(&mut zone, &discrete)?;
        }
        // The delay let the dead clocks advance with the others; pin them
        // back exactly like the transition path does.
        self.reduce_zone(&mut zone, &consts);
        self.extrapolate_zone(&mut zone, &consts);
        Ok(SymState::new(discrete, zone))
    }

    /// `true` iff any automaton currently occupies a committed location.
    fn in_committed(&self, discrete: &DiscreteState) -> bool {
        self.sys
            .automata
            .iter()
            .zip(discrete.locations())
            .any(|(a, l)| a.location(*l).kind == LocationKind::Committed)
    }

    fn edge_committed(&self, automaton: usize, edge: &Edge) -> bool {
        self.sys.automata[automaton].location(edge.source).kind == LocationKind::Committed
    }

    /// Fires the edges of `participants` (in order) from `state`, producing
    /// the successor symbolic state, or `None` if the transition is disabled
    /// by clock guards or invariants.
    fn apply_transition(
        &self,
        state: &SymState,
        participants: &[(usize, usize)],
    ) -> Result<Option<(DiscreteState, Dbm)>, CheckError> {
        let vars = state.discrete.vars();
        // 1. clock guards of every participating edge, under current vars.
        let mut zone = state.zone.clone();
        for &(ai, ei) in participants {
            let edge = &self.sys.automata[ai].edges[ei];
            if !edge.clock_guard.is_empty() {
                apply_constraints(&mut zone, &edge.clock_guard, vars)?;
                if zone.is_empty() {
                    return Ok(None);
                }
            }
        }
        // 2. variable updates, sequentially in participant order.
        let mut new_vars: VarStore = vars.clone();
        for &(ai, ei) in participants {
            let edge = &self.sys.automata[ai].edges[ei];
            new_vars.apply(&edge.updates, &self.ranges)?;
        }
        // 3. location changes.
        let mut new_locs = state.discrete.locations().to_vec();
        for &(ai, ei) in participants {
            let edge = &self.sys.automata[ai].edges[ei];
            new_locs[ai] = edge.target;
        }
        let new_discrete = DiscreteState::new(new_locs, new_vars);
        // 4. clock resets.
        for &(ai, ei) in participants {
            let edge = &self.sys.automata[ai].edges[ei];
            for (c, v) in &edge.resets {
                zone.reset(c.dbm_clock(), *v);
            }
        }
        // Steps 5–8 are the close/extrapolate phase: everything from here on
        // re-canonicalizes the zone (invariants, delay closure, reduction,
        // ExtraLU widening), as opposed to the guard/reset arithmetic above.
        // The span nests inside the explorer's `explore.successor_gen`, so a
        // trace shows how much of successor generation is canonicalization.
        let _span = tempo_obs::span!("explore.close_extrapolate");
        let consts = self.state_consts(&new_discrete);
        // 5. invariants of the new discrete state (they read live clocks
        //    only: a clock an invariant reads is active there).
        self.apply_invariants(&mut zone, &new_discrete)?;
        if zone.is_empty() {
            return Ok(None);
        }
        // 6. delay closure, when permitted.
        if self.delay_allowed(&new_discrete, &consts)? {
            zone.up();
            self.apply_invariants(&mut zone, &new_discrete)?;
            if zone.is_empty() {
                return Ok(None);
            }
        }
        // 7. active-clock reduction: clocks that are dead in the new discrete
        //    state are pinned to the canonical value 0 *after* the delay, so
        //    the stored zone has every dead clock at exactly 0 and depends
        //    only on the delayed zone's live clocks; pinned before the delay,
        //    a dead clock would advance again and record the time since
        //    entry.  Sound because a dead clock is reset on every path before
        //    it is next observed, and it stays dead while time passes in the
        //    same discrete state (see `tempo_ta::activity`).
        self.reduce_zone(&mut zone, &consts);
        // 8. extrapolation; a pinned clock stays pinned (widening never
        //    loosens `x ≤ 0` or `x ≥ 0`).
        self.extrapolate_zone(&mut zone, &consts);
        Ok(Some((new_discrete, zone)))
    }

    /// Computes all symbolic successors of a state.
    pub fn successors(
        &self,
        state: &SymState,
    ) -> Result<Vec<(SymState, ActionLabel)>, CheckError> {
        let discrete = &state.discrete;
        let vars = discrete.vars();
        let committed_active = self.in_committed(discrete);
        let mut out: Vec<(SymState, ActionLabel)> = Vec::new();

        let push = |participants: &[(usize, usize)],
                        label: ActionLabel,
                        this: &Self,
                        out: &mut Vec<(SymState, ActionLabel)>|
         -> Result<(), CheckError> {
            if let Some((d, z)) = this.apply_transition(state, participants)? {
                out.push((SymState::new(d, z), label));
            }
            Ok(())
        };

        // Internal (τ) transitions.
        for (ai, a) in self.sys.automata.iter().enumerate() {
            let loc = discrete.locations()[ai];
            for (ei, e) in a.outgoing(loc) {
                if e.sync != Sync::Tau {
                    continue;
                }
                if committed_active && !self.edge_committed(ai, e) {
                    continue;
                }
                if !e.guard.eval(vars)? {
                    continue;
                }
                push(
                    &[(ai, ei)],
                    ActionLabel::Internal {
                        automaton: ai,
                        edge: ei,
                    },
                    self,
                    &mut out,
                )?;
            }
        }

        // Synchronizations, per channel.
        for (ci, ch) in self.sys.channels.iter().enumerate() {
            let channel = ChannelId(ci as u32);
            // Collect enabled senders and receivers (data guards only; clock
            // guards are applied to the zone inside `apply_transition`).
            let mut senders: Vec<(usize, usize)> = Vec::new();
            let mut receivers: Vec<(usize, usize)> = Vec::new();
            for (ai, a) in self.sys.automata.iter().enumerate() {
                let loc = discrete.locations()[ai];
                for (ei, e) in a.outgoing(loc) {
                    match e.sync {
                        Sync::Send(c) if c == channel
                            && e.guard.eval(vars)? => {
                                senders.push((ai, ei));
                            }
                        Sync::Recv(c) if c == channel
                            && e.guard.eval(vars)? => {
                                receivers.push((ai, ei));
                            }
                        _ => {}
                    }
                }
            }
            if senders.is_empty() {
                continue;
            }
            match ch.kind {
                ChannelKind::Binary | ChannelKind::Urgent => {
                    for &s in &senders {
                        for &r in &receivers {
                            if s.0 == r.0 {
                                continue; // an automaton cannot synchronize with itself
                            }
                            if committed_active
                                && !self.edge_committed(s.0, &self.sys.automata[s.0].edges[s.1])
                                && !self.edge_committed(r.0, &self.sys.automata[r.0].edges[r.1])
                            {
                                continue;
                            }
                            push(
                                &[s, r],
                                ActionLabel::Binary {
                                    channel,
                                    sender: s,
                                    receiver: r,
                                },
                                self,
                                &mut out,
                            )?;
                        }
                    }
                }
                ChannelKind::Broadcast => {
                    for &s in &senders {
                        // Every automaton (other than the sender) that has an
                        // enabled receiving edge must participate.  If an
                        // automaton has several enabled receiving edges, each
                        // combination yields a distinct transition.
                        let mut per_automaton: Vec<Vec<(usize, usize)>> = Vec::new();
                        for (ai, _) in self.sys.automata.iter().enumerate() {
                            if ai == s.0 {
                                continue;
                            }
                            let choices: Vec<(usize, usize)> = receivers
                                .iter()
                                .copied()
                                .filter(|(ra, _)| *ra == ai)
                                .collect();
                            if !choices.is_empty() {
                                per_automaton.push(choices);
                            }
                        }
                        // Cartesian product over the receiver choices.
                        let mut combos: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
                        for choices in &per_automaton {
                            let mut next = Vec::with_capacity(combos.len() * choices.len());
                            for combo in &combos {
                                for &c in choices {
                                    let mut extended = combo.clone();
                                    extended.push(c);
                                    next.push(extended);
                                }
                            }
                            combos = next;
                        }
                        for combo in combos {
                            if committed_active {
                                let any_committed = std::iter::once(s)
                                    .chain(combo.iter().copied())
                                    .any(|(a, e)| {
                                        self.edge_committed(a, &self.sys.automata[a].edges[e])
                                    });
                                if !any_committed {
                                    continue;
                                }
                            }
                            let mut participants = vec![s];
                            participants.extend(combo.iter().copied());
                            push(
                                &participants,
                                ActionLabel::Broadcast {
                                    channel,
                                    sender: s,
                                    receivers: combo.clone(),
                                },
                                self,
                                &mut out,
                            )?;
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{ClockRef, SystemBuilder, Update, VarExprExt};

    /// One automaton ticking every exactly 10 time units, counting ticks.
    fn periodic_system() -> System {
        let mut sb = SystemBuilder::new("periodic");
        let x = sb.add_clock("x");
        let n = sb.add_var("n", 0, 100, 0);
        let mut a = sb.automaton("gen");
        let l0 = a.location("l0").invariant(x.le(10)).add();
        a.edge(l0, l0)
            .guard_clock(x.eq_(10))
            .update(Update::add(n, 1))
            .reset(x)
            .add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    #[test]
    fn initial_state_is_delay_closed_within_invariant() {
        let sys = periodic_system();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let init = gen.initial_state().unwrap();
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        assert_eq!(init.zone.sup(x), tempo_dbm::Bound::weak(10));
    }

    #[test]
    fn tick_successor_resets_clock_and_counts() {
        let sys = periodic_system();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let init = gen.initial_state().unwrap();
        let succ = gen.successors(&init).unwrap();
        assert_eq!(succ.len(), 1);
        let (s, label) = &succ[0];
        assert!(matches!(label, ActionLabel::Internal { automaton: 0, edge: 0 }));
        assert_eq!(s.discrete.vars().get(sys.var_by_name("n").unwrap()), 1);
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        // After the tick the clock was reset and may again delay up to 10.
        assert_eq!(s.zone.sup(x), tempo_dbm::Bound::weak(10));
    }

    /// Sender/receiver pair over an urgent channel with a counter interface,
    /// mimicking the paper's resource/bus pattern.
    fn urgent_pair() -> System {
        let mut sb = SystemBuilder::new("urgent");
        let x = sb.add_clock("x");
        let pending = sb.add_var("pending", 0, 10, 1);
        let hurry = sb.add_channel("hurry", ChannelKind::Urgent);
        // Receiver that is always available (the paper's `hurry?` listener).
        let mut l = sb.automaton("listener");
        let l0 = l.location("idle").add();
        l.edge(l0, l0).sync(Sync::recv(hurry)).add();
        l.set_initial(l0);
        l.build();
        // Resource: greedy start when pending > 0.
        let mut r = sb.automaton("res");
        let idle = r.location("idle").add();
        let busy = r.location("busy").invariant(x.le(5)).add();
        r.edge(idle, busy)
            .guard(pending.gt_(0))
            .sync(Sync::send(hurry))
            .update(Update::add(pending, -1))
            .reset(x)
            .add();
        r.edge(busy, idle).guard_clock(x.eq_(5)).add();
        r.set_initial(idle);
        r.build();
        sb.build()
    }

    #[test]
    fn urgent_sync_forbids_delay() {
        let sys = urgent_pair();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let init = gen.initial_state().unwrap();
        // pending = 1, so the urgent sync is enabled: no delay in the initial
        // state, hence x is still exactly 0.
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        assert_eq!(init.zone.sup(x), tempo_dbm::Bound::weak(0));
        assert!(!gen
            .delay_allowed(&init.discrete, &gen.state_consts(&init.discrete))
            .unwrap());

        // Take the sync; now pending = 0 and the resource is busy for 5.
        let succ = gen.successors(&init).unwrap();
        assert_eq!(succ.len(), 1);
        let (s, label) = &succ[0];
        assert!(matches!(label, ActionLabel::Binary { .. }));
        assert_eq!(s.discrete.vars().get(sys.var_by_name("pending").unwrap()), 0);
        assert!(gen
            .delay_allowed(&s.discrete, &gen.state_consts(&s.discrete))
            .unwrap());
        assert_eq!(s.zone.sup(x), tempo_dbm::Bound::weak(5));
    }

    #[test]
    fn clock_guard_on_urgent_edge_is_rejected() {
        let mut sb = SystemBuilder::new("bad");
        let x = sb.add_clock("x");
        let hurry = sb.add_channel("hurry", ChannelKind::Urgent);
        let mut a = sb.automaton("a");
        let l0 = a.location("l0").add();
        a.edge(l0, l0)
            .sync(Sync::send(hurry))
            .guard_clock(x.ge(1))
            .add();
        a.set_initial(l0);
        a.build();
        let sys = sb.build();
        assert!(matches!(
            SuccessorGen::new(&sys, &SearchOptions::default()),
            Err(CheckError::ClockGuardOnUrgentEdge { .. })
        ));
    }

    /// Committed location: the intermediate hop must be taken before anything
    /// else happens in the rest of the network.
    #[test]
    fn committed_location_has_priority() {
        let mut sb = SystemBuilder::new("committed");
        let x = sb.add_clock("x");
        let mut a = sb.automaton("a");
        let l0 = a.location("l0").add();
        let mid = a.location("mid").committed(true).add();
        let end = a.location("end").add();
        a.edge(l0, mid).reset(x).add();
        a.edge(mid, end).add();
        a.set_initial(l0);
        a.build();
        let mut b = sb.automaton("b");
        let m0 = b.location("m0").invariant(x.le(100)).add();
        let m1 = b.location("m1").add();
        b.edge(m0, m1).add();
        b.set_initial(m0);
        b.build();
        let sys = sb.build();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let init = gen.initial_state().unwrap();
        // From the initial state both automata can move.
        let succ = gen.successors(&init).unwrap();
        assert_eq!(succ.len(), 2);
        // Find the successor where `a` entered the committed location.
        let committed_state = succ
            .iter()
            .find(|(s, _)| {
                sys.automata[0].location(s.discrete.locations()[0]).name == "mid"
            })
            .map(|(s, _)| s.clone())
            .unwrap();
        // No delay was permitted in the committed state.
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        assert_eq!(committed_state.zone.sup(x), tempo_dbm::Bound::weak(0));
        // From the committed state only `a`'s outgoing edge may fire.
        let succ2 = gen.successors(&committed_state).unwrap();
        assert_eq!(succ2.len(), 1);
        assert!(matches!(
            succ2[0].1,
            ActionLabel::Internal { automaton: 0, edge: 1 }
        ));
    }

    #[test]
    fn broadcast_reaches_all_enabled_receivers() {
        let mut sb = SystemBuilder::new("bcast");
        let go = sb.add_channel("go", ChannelKind::Broadcast);
        let ready = sb.add_var("ready", 0, 1, 1);
        let mut s = sb.automaton("sender");
        let s0 = s.location("s0").add();
        let s1 = s.location("s1").add();
        s.edge(s0, s1).sync(Sync::send(go)).add();
        s.set_initial(s0);
        s.build();
        for name in ["r1", "r2", "r3"] {
            let mut r = sb.automaton(name);
            let l0 = r.location("wait").add();
            let l1 = r.location("got").add();
            // r3 is not ready and must not participate.
            let guard = if name == "r3" {
                ready.eq_(0)
            } else {
                ready.eq_(1)
            };
            r.edge(l0, l1).guard(guard).sync(Sync::recv(go)).add();
            r.set_initial(l0);
            r.build();
        }
        let sys = sb.build();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let init = gen.initial_state().unwrap();
        let succ = gen.successors(&init).unwrap();
        assert_eq!(succ.len(), 1);
        let (st, label) = &succ[0];
        match label {
            ActionLabel::Broadcast { receivers, .. } => assert_eq!(receivers.len(), 2),
            other => panic!("expected broadcast, got {other:?}"),
        }
        // r1 and r2 moved, r3 stayed.
        assert_eq!(sys.automata[1].location(st.discrete.locations()[1]).name, "got");
        assert_eq!(sys.automata[2].location(st.discrete.locations()[2]).name, "got");
        assert_eq!(sys.automata[3].location(st.discrete.locations()[3]).name, "wait");
    }

    /// `x` is read on the way into `l1` and reset on the way out, so it is
    /// dead at `l1`; `y` is read at `l1` and stays live.
    fn dead_at_target_system() -> System {
        let mut sb = SystemBuilder::new("late_pin");
        let x = sb.add_clock("x");
        let y = sb.add_clock("y");
        let mut a = sb.automaton("a");
        let l0 = a.location("l0").add();
        let l1 = a.location("l1").add();
        a.edge(l0, l1).guard_clock(x.ge(2)).add();
        a.edge(l1, l0).guard_clock(y.ge(100)).reset(x).reset(y).add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    #[test]
    fn dead_clock_is_exactly_zero_after_the_delay() {
        let sys = dead_at_target_system();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        let y = sys.clock_by_name("y").unwrap().dbm_clock();
        let init = gen.initial_state().unwrap();
        let succ = gen.successors(&init).unwrap();
        assert_eq!(succ.len(), 1);
        let (s, _) = &succ[0];
        assert!(gen.delay_allowed(&s.discrete, &gen.state_consts(&s.discrete)).unwrap());
        // Time passed in `l1` (y is unbounded), yet the dead clock did not
        // advance with it.
        assert_eq!(s.zone.sup(y), tempo_dbm::Bound::INFINITY);
        assert_eq!(s.zone.sup(x), tempo_dbm::Bound::weak(0));
        assert_eq!(s.zone.inf(x), (0, false));
    }

    /// Two predecessors that entered `l1` at different times but whose
    /// delayed zones agree on the live clock `y` yield one successor zone:
    /// the pin comes after the delay, so the dead clock does not record the
    /// time since entry.
    #[test]
    fn entry_time_does_not_split_successor_zones() {
        let sys = dead_at_target_system();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        let y = sys.clock_by_name("y").unwrap().dbm_clock();
        let pred = |y_max: i64| {
            let mut zone = Dbm::universe(sys.num_clocks());
            zone.constrain(tempo_dbm::Clock::REF, x, tempo_dbm::Bound::weak(-2));
            zone.constrain(y, tempo_dbm::Clock::REF, tempo_dbm::Bound::weak(y_max));
            SymState::new(DiscreteState::initial(&sys), zone)
        };
        let (early, late) = (pred(0), pred(4));
        assert_ne!(early.zone, late.zone);
        let succ_early = gen.successors(&early).unwrap();
        let succ_late = gen.successors(&late).unwrap();
        assert_eq!(succ_early.len(), 1);
        assert_eq!(succ_late.len(), 1);
        assert_eq!(succ_early[0].0.discrete, succ_late[0].0.discrete);
        assert_eq!(succ_early[0].0.zone, succ_late[0].0.zone);
    }

    #[test]
    fn action_label_pretty_uses_names() {
        let sys = urgent_pair();
        let gen = SuccessorGen::new(&sys, &SearchOptions::default()).unwrap();
        let init = gen.initial_state().unwrap();
        let succ = gen.successors(&init).unwrap();
        let text = succ[0].1.pretty(&sys);
        assert!(text.contains("hurry"));
        assert!(text.contains("res"));
        assert!(text.contains("idle -> busy"));
    }
}
