//! The symbolic transition relation (successor computation) implementing
//! UPPAAL network semantics.

use crate::error::CheckError;
use crate::explorer::SearchOptions;
use crate::fxhash::FxBuildHasher;
use crate::state::{DiscreteState, SymState};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use tempo_dbm::Dbm;
use tempo_ta::{
    apply_constraints, ChannelId, EvalError, LocId, LocationKind, Sync, System, VarStore,
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

/// Validates `sys` for exploration: [`System::validate`] plus the
/// restriction that keeps the semantics implementable with plain zones, no
/// clock guards on urgent synchronizations or broadcast receptions (the same
/// restriction as UPPAAL).  [`SuccessorGen::for_query`] expects a system that
/// passed it; [`crate::Explorer::new`] runs it once per explorer.
pub(crate) fn validate(sys: &System) -> Result<(), CheckError> {
    sys.validate()?;
    for a in &sys.automata {
        for (ei, e) in a.edges.iter().enumerate() {
            if let Some(ch) = e.sync.channel() {
                let kind = sys.channels[ch.index()].kind;
                let is_recv = matches!(e.sync, Sync::Recv(_));
                if (kind.is_urgent() || (kind.is_broadcast() && is_recv))
                    && !e.clock_guard.is_empty()
                {
                    return Err(CheckError::ClockGuardOnUrgentEdge {
                        automaton: a.name.clone(),
                        edge: ei,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Successor generator: precomputed per-system data plus the extrapolation
/// constants in effect for the current query.
///
/// Everything that depends on a location vector alone (its constants, its
/// live clocks and the table of its outgoing edges) is computed once per
/// location vector ([`StateConsts`]), so an expansion evaluates only data
/// guards and zone operations, and writes into buffers the explorer reuses
/// ([`Successors`]).
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
    ///   constant is 0 and `Extra⁺_LU` ([`Dbm::extrapolate_lu`]; Behrmann,
    ///   Bouyer, Larsen, Pelánek, "Lower and upper bounds in zone-based
    ///   abstractions of timed automata", STTT 2006) collapses the otherwise
    ///   huge fan-out of "arrival phase" zones (e.g. against free-running
    ///   TDMA slot gates);
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
    /// Since a pinned clock carries no information, the passed list stores
    /// each zone on the live clocks only ([`StateConsts::live`]).
    activity: tempo_ta::ActivityTable,
    /// Constants applied at every location (query constants of targets
    /// without location atoms).
    global_lower: Vec<i64>,
    global_upper: Vec<i64>,
    /// Merged per-state constant vectors per discrete location vector.  The
    /// number of distinct location vectors is tiny compared to the number of
    /// symbolic states, so memoizing the merge keeps the per-successor
    /// extrapolation and reduction allocation-free on the hot path.
    merged_cache: RefCell<HashMap<Vec<LocId>, Rc<StateConsts>, FxBuildHasher>>,
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
/// union over every automaton's current location), what decides whether
/// time may pass there, and the table of its outgoing edges.
pub(crate) struct StateConsts {
    lower: Vec<i64>,
    upper: Vec<i64>,
    /// Indexed by DBM clock index; entry 0 unused.
    active: Vec<bool>,
    /// The DBM indices of the clocks the reduction keeps, ascending: those
    /// `active` marks, or every clock when the reduction is off.  Every
    /// other clock is pinned to `0` in every zone of this location vector,
    /// so the passed list stores zones projected onto these clocks
    /// ([`Dbm::project_into`]).
    pub(crate) live: Vec<usize>,
    /// Some automaton occupies an urgent or committed location.
    urgent_location: bool,
    /// Some automaton occupies a committed location, so every transition
    /// must move one that does.
    committed: bool,
    /// The outgoing edges, in one allocation: first the internal edges the
    /// committed filter allows, then the synchronizing edges grouped by
    /// channel, ascending; automaton and edge order within each part.  This
    /// is the order [`SuccessorGen::successors`] emits transitions in.
    edges: Box<[OutEdge]>,
}

/// Edge `edge` of automaton `automaton`, with its synchronization.
#[derive(Clone, Copy)]
struct OutEdge {
    sync: Sync,
    automaton: u32,
    edge: u32,
}

impl OutEdge {
    fn pair(self) -> (usize, usize) {
        (self.automaton as usize, self.edge as usize)
    }
}

impl StateConsts {
    /// The internal edges, and each channel with its synchronizing edges.
    fn edge_groups(&self) -> (&[OutEdge], impl Iterator<Item = (ChannelId, &[OutEdge])>) {
        let taus = self.edges.partition_point(|e| e.sync == Sync::Tau);
        let (taus, syncs) = self.edges.split_at(taus);
        let groups = syncs
            .chunk_by(|x, y| x.sync.channel() == y.sync.channel())
            .map(|group| {
                (
                    group[0].sync.channel().expect("a synchronizing edge"),
                    group,
                )
            });
        (taus, groups)
    }
}

/// A computed successor: the symbolic state, the transition taken (when the
/// caller asked for labels) and the data of the state's location vector.
pub(crate) type Successor = (SymState, Option<ActionLabel>, Rc<StateConsts>);

/// The buffers [`SuccessorGen::successors`] writes into, reused across
/// expansions so that enumerating the transitions allocates nothing.
#[derive(Default)]
pub(crate) struct Successors {
    /// The successors of the last expansion, in generation order.
    pub(crate) out: Vec<Successor>,
    senders: Vec<(usize, usize)>,
    receivers: Vec<(usize, usize)>,
    /// Per automaton taking part in a broadcast, its range in `receivers`.
    runs: Vec<(usize, usize)>,
    /// Per run, the receiver the current broadcast combination takes.
    odometer: Vec<usize>,
    participants: Vec<(usize, usize)>,
}

impl<'s> SuccessorGen<'s> {
    /// Creates a generator serving the given query (or none) on a system
    /// that passed [`validate`].
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
    ) -> SuccessorGen<'s> {
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
        SuccessorGen {
            sys,
            ranges: sys.var_ranges(),
            lu,
            activity,
            query_reach,
            global_lower,
            global_upper,
            merged_cache: RefCell::new(HashMap::default()),
            reduce: opts.active_clock_reduction,
            eliminated: Cell::new(0),
        }
    }

    /// The merged per-clock data in effect at the given discrete state: the
    /// element-wise maximum of the global query constants and every
    /// automaton's location-dependent LU constants, plus the union of the
    /// per-location active-clock sets (a clock stays live as long as *any*
    /// automaton may still observe it), the location kinds and the edge
    /// table.  Memoized per location vector.
    pub(crate) fn state_consts(&self, discrete: &DiscreteState) -> Rc<StateConsts> {
        let locations = discrete.locations();
        if let Some(cached) = self.merged_cache.borrow().get(locations) {
            return Rc::clone(cached);
        }
        let mut lower = self.global_lower.clone();
        let mut upper = self.global_upper.clone();
        let mut active = vec![false; lower.len()];
        for (ai, loc) in locations.iter().enumerate() {
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
        let live = (1..active.len())
            .filter(|&i| active[i] || !self.reduce)
            .collect();
        let kinds = || {
            self.sys
                .automata
                .iter()
                .zip(locations)
                .map(|(a, loc)| a.location(*loc).kind)
        };
        let urgent_location = kinds().any(|kind| kind != LocationKind::Normal);
        let committed = kinds().any(|kind| kind == LocationKind::Committed);
        let merged = Rc::new(StateConsts {
            lower,
            upper,
            active,
            live,
            urgent_location,
            committed,
            edges: self.edge_table(locations, committed),
        });
        self.merged_cache
            .borrow_mut()
            .insert(locations.to_vec(), Rc::clone(&merged));
        merged
    }

    /// The edge table of a location vector ([`StateConsts::edges`]).
    fn edge_table(&self, locations: &[LocId], committed: bool) -> Box<[OutEdge]> {
        let mut edges: Vec<OutEdge> = (self.sys.automata.iter().zip(locations).enumerate())
            .flat_map(|(ai, (a, &loc))| {
                let from_committed = a.location(loc).kind == LocationKind::Committed;
                a.outgoing(loc)
                    .filter(move |(_, e)| e.sync != Sync::Tau || from_committed || !committed)
                    .map(move |(ei, e)| OutEdge {
                        sync: e.sync,
                        automaton: ai as u32,
                        edge: ei as u32,
                    })
            })
            .collect();
        // Stable: the internal edges first, and the order within a channel.
        edges.sort_by_key(|e| e.sync.channel());
        edges.into_boxed_slice()
    }

    /// `true` iff the data guard of `e` holds under `vars`.
    fn enabled(&self, e: OutEdge, vars: &VarStore) -> Result<bool, EvalError> {
        self.sys.automata[e.automaton as usize].edges[e.edge as usize]
            .guard
            .eval(vars)
    }

    /// Canonicalizes the clocks that are dead at `consts`' discrete state
    /// (active-clock reduction), when enabled.
    fn reduce_zone(&self, zone: &mut Dbm, consts: &StateConsts) {
        if consts.live.len() < zone.num_clocks() {
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
    fn apply_invariants(&self, zone: &mut Dbm, discrete: &DiscreteState) -> Result<(), EvalError> {
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

    /// `true` iff time may elapse in the given discrete state: no automaton
    /// occupies an urgent or committed location and no urgent-channel
    /// synchronization is enabled.  Everything but the data guards comes
    /// from the memoized `consts` of the state's location vector (clock
    /// guards on urgent edges are rejected by [`validate`]).
    fn delay_allowed(
        &self,
        discrete: &DiscreteState,
        consts: &StateConsts,
    ) -> Result<bool, EvalError> {
        if consts.urgent_location {
            return Ok(false);
        }
        let vars = discrete.vars();
        for (channel, group) in consts.edge_groups().1 {
            let sends = group.iter().filter(|e| matches!(e.sync, Sync::Send(_)));
            let partner = |s: &OutEdge, r: &OutEdge| {
                matches!(r.sync, Sync::Recv(_)) && r.automaton != s.automaton
            };
            // A channel with no sender and receiver in different automata
            // cannot synchronize whatever the data; its guards stay unread.
            if !self.sys.channels[channel.index()].kind.is_urgent()
                || !sends.clone().any(|s| group.iter().any(|r| partner(s, r)))
            {
                continue;
            }
            for s in sends {
                if !self.enabled(*s, vars)? {
                    continue;
                }
                for r in group {
                    if partner(s, r) && self.enabled(*r, vars)? {
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

    /// Fires the edges of `participants` (in order) from `state`, producing
    /// the successor symbolic state and its location vector's data, or
    /// `None` if the transition is disabled by clock guards or invariants.
    fn apply_transition(
        &self,
        state: &SymState,
        participants: &[(usize, usize)],
    ) -> Result<Option<(SymState, Rc<StateConsts>)>, CheckError> {
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
        // Extra⁺_LU widening), as opposed to the guard/reset arithmetic above.
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
        Ok(Some((SymState::new(new_discrete, zone), consts)))
    }

    /// Fires `participants` from `state` and keeps the successor, if any,
    /// with its label when `labels` is set.
    fn push(
        &self,
        state: &SymState,
        participants: &[(usize, usize)],
        labels: bool,
        label: impl FnOnce() -> ActionLabel,
        out: &mut Vec<Successor>,
    ) -> Result<(), CheckError> {
        if let Some((succ, consts)) = self.apply_transition(state, participants)? {
            out.push((succ, labels.then(label), consts));
        }
        Ok(())
    }

    /// Computes all symbolic successors of `state`, whose location vector's
    /// data is `consts`, into `buf.out`, each with its location vector's data
    /// (whose [`StateConsts::live`] clocks the passed list stores the zone
    /// on) and, when `labels` is set, the transition taken.
    ///
    /// The order follows the edge table: internal edges, then per channel
    /// and enabled sender each enabled receiver (binary) or each combination
    /// of one enabled receiving edge per other automaton that has one
    /// (broadcast; the last automaton varies fastest).  Only data guards are
    /// evaluated here; clock guards go to the zone in `apply_transition`.
    pub(crate) fn successors(
        &self,
        state: &SymState,
        consts: &StateConsts,
        labels: bool,
        buf: &mut Successors,
    ) -> Result<(), CheckError> {
        let locations = state.discrete.locations();
        let vars = state.discrete.vars();
        let from_committed = |&(a, _): &(usize, usize)| {
            self.sys.automata[a].location(locations[a]).kind == LocationKind::Committed
        };
        let Successors {
            out,
            senders,
            receivers,
            runs,
            odometer,
            participants,
        } = buf;
        out.clear();
        let (taus, groups) = consts.edge_groups();

        for &tau in taus {
            if self.enabled(tau, vars)? {
                let (automaton, edge) = tau.pair();
                let label = || ActionLabel::Internal { automaton, edge };
                self.push(state, &[(automaton, edge)], labels, label, out)?;
            }
        }

        for (channel, group) in groups {
            senders.clear();
            receivers.clear();
            for &e in group {
                if self.enabled(e, vars)? {
                    match e.sync {
                        Sync::Send(_) => senders.push(e.pair()),
                        _ => receivers.push(e.pair()),
                    }
                }
            }
            if !self.sys.channels[channel.index()].kind.is_broadcast() {
                for (&sender, &receiver) in senders
                    .iter()
                    .flat_map(|s| receivers.iter().map(move |r| (s, r)))
                {
                    // An automaton cannot synchronize with itself.
                    if sender.0 == receiver.0
                        || (consts.committed
                            && !from_committed(&sender)
                            && !from_committed(&receiver))
                    {
                        continue;
                    }
                    let label = || ActionLabel::Binary {
                        channel,
                        sender,
                        receiver,
                    };
                    self.push(state, &[sender, receiver], labels, label, out)?;
                }
                continue;
            }
            for &sender in senders.iter() {
                // Every automaton but the sender's that has an enabled
                // receiving edge takes part with one of them; each choice is
                // a distinct transition.  Receivers are in automaton order,
                // so each automaton's form one run.
                runs.clear();
                for (k, receiver) in receivers.iter().enumerate() {
                    if receiver.0 == sender.0 {
                        continue;
                    }
                    match runs.last_mut() {
                        Some((start, end)) if receivers[*start].0 == receiver.0 => *end = k + 1,
                        _ => runs.push((k, k + 1)),
                    }
                }
                odometer.clear();
                odometer.extend(runs.iter().map(|&(start, _)| start));
                loop {
                    participants.clear();
                    participants.push(sender);
                    participants.extend(odometer.iter().map(|&k| receivers[k]));
                    if !consts.committed || participants.iter().any(from_committed) {
                        let label = || ActionLabel::Broadcast {
                            channel,
                            sender,
                            receivers: participants[1..].to_vec(),
                        };
                        self.push(state, participants, labels, label, out)?;
                    }
                    // Next combination, the last automaton fastest.
                    let Some(g) = (0..runs.len()).rev().find(|&g| odometer[g] + 1 < runs[g].1)
                    else {
                        break;
                    };
                    odometer[g] += 1;
                    for later in g + 1..runs.len() {
                        odometer[later] = runs[later].0;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{ChannelKind, ClockRef, SystemBuilder, Update, VarExprExt};

    fn generator(sys: &System) -> SuccessorGen<'_> {
        SuccessorGen::for_query(sys, &SearchOptions::default(), None)
    }

    /// Every successor of `state`, labelled, in generation order.
    fn successors(
        gen: &SuccessorGen<'_>,
        state: &SymState,
    ) -> Vec<(SymState, ActionLabel, Rc<StateConsts>)> {
        let mut buf = Successors::default();
        let consts = gen.state_consts(&state.discrete);
        gen.successors(state, &consts, true, &mut buf).unwrap();
        buf.out
            .into_iter()
            .map(|(s, label, c)| (s, label.expect("labels were asked for"), c))
            .collect()
    }

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
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        assert_eq!(init.zone.sup(x), tempo_dbm::Bound::weak(10));
    }

    #[test]
    fn tick_successor_resets_clock_and_counts() {
        let sys = periodic_system();
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        let succ = successors(&gen, &init);
        assert_eq!(succ.len(), 1);
        let (s, label, _) = &succ[0];
        assert!(matches!(
            label,
            ActionLabel::Internal {
                automaton: 0,
                edge: 0
            }
        ));
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
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        // pending = 1, so the urgent sync is enabled: no delay in the initial
        // state, hence x is still exactly 0.
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        assert_eq!(init.zone.sup(x), tempo_dbm::Bound::weak(0));
        assert!(!gen
            .delay_allowed(&init.discrete, &gen.state_consts(&init.discrete))
            .unwrap());

        // Take the sync; now pending = 0 and the resource is busy for 5.
        let succ = successors(&gen, &init);
        assert_eq!(succ.len(), 1);
        let (s, label, _) = &succ[0];
        assert!(matches!(label, ActionLabel::Binary { .. }));
        assert_eq!(
            s.discrete.vars().get(sys.var_by_name("pending").unwrap()),
            0
        );
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
            validate(&sys),
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
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        // From the initial state both automata can move.
        let succ = successors(&gen, &init);
        assert_eq!(succ.len(), 2);
        // Find the successor where `a` entered the committed location.
        let committed_state = succ
            .iter()
            .find(|(s, _, _)| sys.automata[0].location(s.discrete.locations()[0]).name == "mid")
            .map(|(s, _, _)| s.clone())
            .unwrap();
        // No delay was permitted in the committed state.
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        assert_eq!(committed_state.zone.sup(x), tempo_dbm::Bound::weak(0));
        // From the committed state only `a`'s outgoing edge may fire.
        let succ2 = successors(&gen, &committed_state);
        assert_eq!(succ2.len(), 1);
        assert!(matches!(
            succ2[0].1,
            ActionLabel::Internal {
                automaton: 0,
                edge: 1
            }
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
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        let succ = successors(&gen, &init);
        assert_eq!(succ.len(), 1);
        let (st, label, _) = &succ[0];
        match label {
            ActionLabel::Broadcast { receivers, .. } => assert_eq!(receivers.len(), 2),
            other => panic!("expected broadcast, got {other:?}"),
        }
        // r1 and r2 moved, r3 stayed.
        assert_eq!(
            sys.automata[1].location(st.discrete.locations()[1]).name,
            "got"
        );
        assert_eq!(
            sys.automata[2].location(st.discrete.locations()[2]).name,
            "got"
        );
        assert_eq!(
            sys.automata[3].location(st.discrete.locations()[3]).name,
            "wait"
        );
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
        a.edge(l1, l0)
            .guard_clock(y.ge(100))
            .reset(x)
            .reset(y)
            .add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    #[test]
    fn dead_clock_is_exactly_zero_after_the_delay() {
        let sys = dead_at_target_system();
        let gen = generator(&sys);
        let x = sys.clock_by_name("x").unwrap().dbm_clock();
        let y = sys.clock_by_name("y").unwrap().dbm_clock();
        let init = gen.initial_state().unwrap();
        let succ = successors(&gen, &init);
        assert_eq!(succ.len(), 1);
        let (s, _, _) = &succ[0];
        assert!(gen
            .delay_allowed(&s.discrete, &gen.state_consts(&s.discrete))
            .unwrap());
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
        let gen = generator(&sys);
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
        let succ_early = successors(&gen, &early);
        let succ_late = successors(&gen, &late);
        assert_eq!(succ_early.len(), 1);
        assert_eq!(succ_late.len(), 1);
        assert_eq!(succ_early[0].0.discrete, succ_late[0].0.discrete);
        assert_eq!(succ_early[0].0.zone, succ_late[0].0.zone);
    }

    #[test]
    fn action_label_pretty_uses_names() {
        let sys = urgent_pair();
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        let succ = successors(&gen, &init);
        let text = succ[0].1.pretty(&sys);
        assert!(text.contains("hurry"));
        assert!(text.contains("res"));
        assert!(text.contains("idle -> busy"));
    }

    /// A broadcast sender meets two receiver automata with two enabled
    /// receiving edges each: four transitions, in cartesian order with the
    /// last automaton varying fastest.
    fn two_by_two_broadcast() -> System {
        let mut sb = SystemBuilder::new("bcast2x2");
        let go = sb.add_channel("go", ChannelKind::Broadcast);
        let mut s = sb.automaton("S");
        let s0 = s.location("s0").add();
        let s1 = s.location("s1").add();
        s.edge(s0, s1).sync(Sync::send(go)).add();
        s.set_initial(s0);
        s.build();
        for name in ["R1", "R2"] {
            let mut r = sb.automaton(name);
            let wait = r.location("wait").add();
            let a = r.location("a").add();
            let b = r.location("b").add();
            r.edge(wait, a).sync(Sync::recv(go)).add();
            r.edge(wait, b).sync(Sync::recv(go)).add();
            r.set_initial(wait);
            r.build();
        }
        sb.build()
    }

    #[test]
    fn broadcast_combinations_run_last_automaton_fastest() {
        let sys = two_by_two_broadcast();
        let gen = generator(&sys);
        let succ = successors(&gen, &gen.initial_state().unwrap());
        let labels: Vec<_> = succ.iter().map(|(_, label, _)| label.clone()).collect();
        let expected: Vec<_> = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .into_iter()
            .map(|(e1, e2)| ActionLabel::Broadcast {
                channel: ChannelId(0),
                sender: (0, 0),
                receivers: vec![(1, e1), (2, e2)],
            })
            .collect();
        assert_eq!(labels, expected);
        let loc = |s: &SymState, a: usize| {
            sys.automata[a]
                .location(s.discrete.locations()[a])
                .name
                .clone()
        };
        let reached: Vec<_> = succ
            .iter()
            .map(|(s, _, _)| (loc(s, 1), loc(s, 2)))
            .collect();
        let names = |r1: &str, r2: &str| (r1.to_string(), r2.to_string());
        assert_eq!(
            reached,
            [
                names("a", "a"),
                names("a", "b"),
                names("b", "a"),
                names("b", "b")
            ]
        );

        // A targeted search keeps the label of the combination it took.
        let target = crate::TargetSpec::location(&sys, "R1", "b")
            .unwrap()
            .and_location(&sys, "R2", "a")
            .unwrap();
        let report = crate::Explorer::new(&sys, SearchOptions::default())
            .unwrap()
            .check_reachable(&target)
            .unwrap();
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace[1].action.as_deref(),
            Some("go! (broadcast) [S: s0 -> s1 || R1: wait -> b || R2: wait -> a]")
        );
    }

    /// `C` starts in a committed location: an internal edge, a binary
    /// synchronization or a broadcast may fire only if it moves `C`.
    #[test]
    fn committed_location_filters_synchronizations() {
        let mut sb = SystemBuilder::new("committed_syncs");
        let b = sb.add_channel("b", ChannelKind::Binary);
        let x = sb.add_channel("x", ChannelKind::Binary);
        let all = sb.add_channel("all", ChannelKind::Broadcast);
        let nb = sb.add_channel("nb", ChannelKind::Broadcast);
        let mut c = sb.automaton("C");
        let c0 = c.location("c0").committed(true).add();
        let c1 = c.location("c1").add();
        c.edge(c0, c1).add();
        c.edge(c0, c1).sync(Sync::send(b)).add();
        c.edge(c0, c1).sync(Sync::recv(all)).add();
        c.set_initial(c0);
        c.build();
        let mut p = sb.automaton("P");
        let p0 = p.location("p0").add();
        let p1 = p.location("p1").add();
        p.edge(p0, p1).sync(Sync::recv(b)).add();
        p.edge(p0, p1).sync(Sync::send(x)).add();
        p.edge(p0, p1).sync(Sync::recv(all)).add();
        p.edge(p0, p1).sync(Sync::send(nb)).add();
        p.set_initial(p0);
        p.build();
        let mut q = sb.automaton("Q");
        let q0 = q.location("q0").add();
        let q1 = q.location("q1").add();
        q.edge(q0, q1).add();
        q.edge(q0, q1).sync(Sync::recv(x)).add();
        q.edge(q0, q1).sync(Sync::send(all)).add();
        q.edge(q0, q1).sync(Sync::recv(nb)).add();
        q.set_initial(q0);
        q.build();
        let sys = sb.build();
        let gen = generator(&sys);
        let labels: Vec<_> = successors(&gen, &gen.initial_state().unwrap())
            .into_iter()
            .map(|(_, label, _)| label)
            .collect();
        // Dropped: `Q`'s internal edge, `x` (P to Q) and `nb` (P to Q).
        assert_eq!(
            labels,
            [
                ActionLabel::Internal {
                    automaton: 0,
                    edge: 0
                },
                ActionLabel::Binary {
                    channel: b,
                    sender: (0, 1),
                    receiver: (1, 0),
                },
                ActionLabel::Broadcast {
                    channel: all,
                    sender: (2, 2),
                    receivers: vec![(0, 2), (1, 2)],
                },
            ]
        );
    }

    /// An urgent channel whose only receiver is guarded by `ready == 1`:
    /// time may pass exactly when that guard is false, which is exactly when
    /// the channel yields no successor.
    #[test]
    fn urgent_receiver_guard_decides_delay() {
        let mut sb = SystemBuilder::new("urgent_guard");
        let _x = sb.add_clock("x");
        let ready = sb.add_var("ready", 0, 1, 0);
        let go = sb.add_channel("go", ChannelKind::Urgent);
        let mut s = sb.automaton("S");
        let s0 = s.location("s0").add();
        let s1 = s.location("s1").add();
        s.edge(s0, s1).sync(Sync::send(go)).add();
        s.set_initial(s0);
        s.build();
        let mut r = sb.automaton("R");
        let r0 = r.location("r0").add();
        let r1 = r.location("r1").add();
        r.edge(r0, r1)
            .guard(ready.eq_(1))
            .sync(Sync::recv(go))
            .add();
        r.set_initial(r0);
        r.build();
        let sys = sb.build();
        let gen = generator(&sys);
        let init = gen.initial_state().unwrap();
        for value in [0, 1] {
            let discrete = DiscreteState::new(
                init.discrete.locations().to_vec(),
                VarStore::new(vec![value]),
            );
            let consts = gen.state_consts(&discrete);
            let delay = gen.delay_allowed(&discrete, &consts).unwrap();
            assert_eq!(delay, value == 0, "ready = {value}");
            let state = SymState::new(discrete, init.zone.clone());
            assert_eq!(successors(&gen, &state).len(), usize::from(!delay));
        }
    }
}
