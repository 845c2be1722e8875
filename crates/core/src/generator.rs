//! Automatic translation of an [`ArchitectureModel`] into a network of timed
//! automata, following the modeling patterns of the paper:
//!
//! * one automaton per processor (Fig. 4 for non-preemptive resources, Fig. 5
//!   for fixed-priority preemptive resources),
//! * one automaton per bus (Fig. 6),
//! * one environment automaton per scenario implementing the chosen event
//!   model (Fig. 7a–d, Fig. 8),
//! * shared bounded counters as the interface between producers and consumers
//!   (the paper's `rec`, `setvolume`, `receive_out`, … variables),
//! * the `hurry` urgent channel with an always-ready listener to enforce
//!   greedy service,
//! * one *measuring observer* automaton per analysed requirement, which plays
//!   the role of the paper's measuring environment variants (Fig. 9): it
//!   non-deterministically picks one stimulus occurrence, starts a clock, and
//!   enters a committed `seen` location at the instant the corresponding
//!   response is produced.
//!
//! Without a measured requirement every scenario, processor and bus is
//! translated.  With one, only its resource-sharing closure is: the scenarios
//! reachable from the requirement's scenario through shared processors and
//! buses, and the resources they touch.  Scenarios outside the closure cannot
//! delay it, as the paper's Table 1 pairs each requirement with the scenarios
//! that interfere with it.  The quantizer tick stays the whole model's.

use crate::model::{
    ArchitectureModel, BusArbitration, EventModel, MeasurePoint, ModelError, Requirement,
    SchedulingPolicy, Step,
};
use crate::time::Quantizer;
use tempo_ta::{
    ChannelId, ChannelKind, ClockId, ClockRef, EdgeBuilder, IntExpr, Sync, System, SystemBuilder,
    Update, VarExprExt, VarId,
};

/// Options controlling the translation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GeneratorOptions {
    /// Capacity of every event queue (the counters have range
    /// `0..=queue_capacity`); the checker reports an error if a queue
    /// overflows, which indicates an overloaded resource.
    pub queue_capacity: i64,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        GeneratorOptions { queue_capacity: 8 }
    }
}

/// Handles into the generated system needed to phrase the WCRT query.
#[derive(Clone, Debug)]
pub struct ObserverRefs {
    /// Name of the observer automaton.
    pub automaton: String,
    /// Name of the committed location entered at the response instant.
    pub seen_location: String,
    /// The observer's measuring clock.
    pub clock: ClockId,
    /// The requirement being observed.
    pub requirement: String,
}

/// The result of the translation.
#[derive(Debug)]
pub struct GeneratedModel {
    /// The network of timed automata.
    pub system: System,
    /// The quantization used for all clock constants.
    pub quantizer: Quantizer,
    /// Observer handles, present when a requirement was selected.
    pub observer: Option<ObserverRefs>,
}

/// Identifies a consumer step: which scenario and which step index.
#[derive(Clone, Copy, PartialEq, Eq)]
struct StepRef {
    scenario: usize,
    step: usize,
}

/// The resource-sharing closure of one scenario: every scenario reachable
/// from `root` through shared processors/buses, plus the resources touched
/// along the way.  Returned as membership masks over the model's scenarios,
/// processors and buses.  It is the one definition of what a WCRT answer
/// depends on: [`generate`] translates only this part of the model for a
/// measured requirement, and the analysis database hashes the same part as
/// the query's input cone.
pub(crate) fn sharing_closure(
    model: &ArchitectureModel,
    root: usize,
) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    let mut scenarios = vec![false; model.scenarios.len()];
    let mut processors = vec![false; model.processors.len()];
    let mut buses = vec![false; model.buses.len()];
    let mut work = vec![root];
    while let Some(si) = work.pop() {
        if std::mem::replace(&mut scenarios[si], true) {
            continue;
        }
        for step in &model.scenarios[si].steps {
            match step {
                Step::Execute { on, .. } => {
                    if let Some(slot) = processors.get_mut(on.0) {
                        *slot = true;
                    }
                }
                Step::Transfer { over, .. } => {
                    if let Some(slot) = buses.get_mut(over.0) {
                        *slot = true;
                    }
                }
            }
        }
        // Any scenario touching one of the marked resources joins the cone.
        for (oi, other) in model.scenarios.iter().enumerate() {
            if scenarios[oi] {
                continue;
            }
            let shares = other.steps.iter().any(|step| match step {
                Step::Execute { on, .. } => processors.get(on.0).copied().unwrap_or(false),
                Step::Transfer { over, .. } => buses.get(over.0).copied().unwrap_or(false),
            });
            if shares {
                work.push(oi);
            }
        }
    }
    (scenarios, processors, buses)
}

/// Translates an architecture model into a network of timed automata.
///
/// `measure` selects the requirement for which a measuring observer is
/// added, and the network then holds only that requirement's
/// resource-sharing closure: its scenarios with their queue counters and
/// environment automata, the processors and buses they touch, the `Urg`
/// listener and the observer.  `None` generates the whole functional model
/// (the figures and whole-model queries such as queue-overflow checks).
/// Either way the clock constants use the whole model's quantizer tick.
pub fn generate(
    model: &ArchitectureModel,
    measure: Option<&Requirement>,
    opts: &GeneratorOptions,
) -> Result<GeneratedModel, ModelError> {
    model.validate()?;
    let durations = model.all_durations();
    let quantizer = Quantizer::for_durations(durations.iter());
    let in_cone = match measure {
        Some(req) => sharing_closure(model, req.scenario.0).0,
        None => vec![true; model.scenarios.len()],
    };
    let mut sb = SystemBuilder::new(model.name.clone());

    // ---- shared declarations -------------------------------------------------
    let hurry = sb.add_channel("hurry", ChannelKind::Urgent);

    // Queue counters: q[scenario][step] feeds `step`; index 0 is fed by the
    // environment automaton.  Scenarios outside the cone get none.
    let cap = opts.queue_capacity;
    let mut queues: Vec<Vec<VarId>> = Vec::new();
    for (s, &kept) in model.scenarios.iter().zip(&in_cone) {
        let mut per_step = Vec::new();
        if kept {
            for (i, step) in s.steps.iter().enumerate() {
                per_step.push(sb.add_var(format!("q_{}_{}_{}", s.name, i, step.name()), 0, cap, 0));
            }
        }
        queues.push(per_step);
    }

    // Observation (stimulus/completion) broadcast channels for the measured
    // requirement.  Validation puts `from` strictly before `to`, so the two
    // channels are always distinct.
    let mut stim_channel: Option<(usize, ChannelId)> = None;
    let mut done_channels: Vec<(StepRef, ChannelId)> = Vec::new();
    let observer = measure.map(|req| {
        let sid = req.scenario.0;
        let mut done_channel = |sb: &mut SystemBuilder, step: usize| {
            let ch = sb.add_channel(
                format!("done_{}_{}", model.scenarios[sid].name, step),
                ChannelKind::Broadcast,
            );
            done_channels.push((StepRef { scenario: sid, step }, ch));
            ch
        };
        let to_step = match req.to {
            MeasurePoint::AfterStep(i) => i,
            MeasurePoint::Stimulus => unreachable!("validated"),
        };
        let end_ch = done_channel(&mut sb, to_step);
        let start_ch = match req.from {
            MeasurePoint::Stimulus => {
                let ch = sb.add_channel(
                    format!("stim_{}", model.scenarios[sid].name),
                    ChannelKind::Broadcast,
                );
                stim_channel = Some((sid, ch));
                ch
            }
            MeasurePoint::AfterStep(i) => done_channel(&mut sb, i),
        };
        build_observer(&mut sb, req, start_ch, end_ch, cap)
    });

    // ---- the always-ready listener for the urgent channel --------------------
    {
        let mut a = sb.automaton("Urg");
        let l0 = a.location("idle").add();
        a.edge(l0, l0).sync(Sync::recv(hurry)).add();
        a.set_initial(l0);
        a.build();
    }

    // ---- per-processor resource automata --------------------------------------
    // A resource no scenario of the cone uses serves nothing and is skipped.
    for (pid, proc_) in model.processors.iter().enumerate() {
        // All Execute steps of the cone deployed on this processor.
        let served: Vec<StepRef> = model
            .scenarios
            .iter()
            .enumerate()
            .filter(|(si, _)| in_cone[*si])
            .flat_map(|(si, s)| {
                s.steps.iter().enumerate().filter_map(move |(sti, st)| {
                    matches!(st, Step::Execute { on, .. } if on.0 == pid)
                        .then_some(StepRef { scenario: si, step: sti })
                })
            })
            .collect();
        if served.is_empty() {
            continue;
        }
        build_resource(
            &mut sb,
            model,
            &quantizer,
            proc_.name.clone(),
            proc_.policy,
            &served,
            &queues,
            &done_channels,
            hurry,
            cap,
        );
    }

    // ---- per-bus automata ------------------------------------------------------
    for (bid, bus) in model.buses.iter().enumerate() {
        let served: Vec<StepRef> = model
            .scenarios
            .iter()
            .enumerate()
            .filter(|(si, _)| in_cone[*si])
            .flat_map(|(si, s)| {
                s.steps.iter().enumerate().filter_map(move |(sti, st)| {
                    matches!(st, Step::Transfer { over, .. } if over.0 == bid)
                        .then_some(StepRef { scenario: si, step: sti })
                })
            })
            .collect();
        if served.is_empty() {
            continue;
        }
        match bus.arbitration {
            BusArbitration::Tdma { slot } => build_tdma_bus(
                &mut sb,
                model,
                &quantizer,
                bid,
                slot,
                &served,
                &queues,
                &done_channels,
                hurry,
            ),
            BusArbitration::FcfsNd | BusArbitration::FixedPriority => {
                let policy = match bus.arbitration {
                    BusArbitration::FcfsNd => SchedulingPolicy::NonPreemptiveNd,
                    _ => SchedulingPolicy::FixedPriorityNonPreemptive,
                };
                build_resource(
                    &mut sb,
                    model,
                    &quantizer,
                    bus.name.clone(),
                    policy,
                    &served,
                    &queues,
                    &done_channels,
                    hurry,
                    cap,
                );
            }
        }
    }

    // ---- per-scenario environment automata -------------------------------------
    for (si, s) in model.scenarios.iter().enumerate() {
        if !in_cone[si] {
            continue;
        }
        let stim = stim_channel.filter(|(sid, _)| *sid == si).map(|(_, ch)| ch);
        build_environment(&mut sb, &quantizer, si, &s.name, &s.stimulus, queues[si][0], stim, cap);
    }

    let system = sb.build();
    Ok(GeneratedModel {
        system,
        quantizer,
        observer,
    })
}

/// Priority of the scenario owning a step (smaller = more important).
fn step_priority(model: &ArchitectureModel, r: StepRef) -> u32 {
    model.scenarios[r.scenario].priority
}

/// The queue counter that the completion of `r` must increment (the input
/// queue of the next step), if any.
fn next_queue(model: &ArchitectureModel, queues: &[Vec<VarId>], r: StepRef) -> Option<VarId> {
    let steps = &model.scenarios[r.scenario].steps;
    (r.step + 1 < steps.len()).then(|| queues[r.scenario][r.step + 1])
}

/// Builds a resource automaton (processor or bus, Figs. 4/5/6).
#[allow(clippy::too_many_arguments)]
fn build_resource(
    sb: &mut SystemBuilder,
    model: &ArchitectureModel,
    quantizer: &Quantizer,
    name: String,
    policy: SchedulingPolicy,
    served: &[StepRef],
    queues: &[Vec<VarId>],
    done_channels: &[(StepRef, ChannelId)],
    hurry: ChannelId,
    cap: i64,
) -> ClockId {
    let x = sb.add_clock(format!("x_{name}"));
    // Execution time in ticks of every served step.
    let exec_ticks: Vec<i64> = served
        .iter()
        .map(|r| quantizer.to_ticks(model.step_service_time(&model.scenarios[r.scenario].steps[r.step])))
        .collect();
    let preemptive = policy == SchedulingPolicy::FixedPriorityPreemptive;
    let with_priorities = matches!(
        policy,
        SchedulingPolicy::FixedPriorityPreemptive | SchedulingPolicy::FixedPriorityNonPreemptive
    );

    // Priority levels present on this resource (sorted, most important first).
    let mut levels: Vec<u32> = served.iter().map(|r| step_priority(model, *r)).collect();
    levels.sort_unstable();
    levels.dedup();
    let highest = *levels.first().unwrap();

    // Preemption bookkeeping (Fig. 5): one remaining-time variable D and one
    // preemption clock y per resource.
    let (y, d_var) = if preemptive && levels.len() > 1 {
        let max_high: i64 = served
            .iter()
            .zip(&exec_ticks)
            .filter(|(r, _)| step_priority(model, **r) == highest)
            .map(|(_, t)| *t)
            .sum();
        let max_low: i64 = served
            .iter()
            .zip(&exec_ticks)
            .filter(|(r, _)| step_priority(model, **r) != highest)
            .map(|(_, t)| *t)
            .max()
            .unwrap_or(0);
        let d_max = max_low + cap * max_high.max(1);
        (
            Some(sb.add_clock(format!("y_{name}"))),
            Some(sb.add_var(format!("D_{name}"), 0, d_max, 0)),
        )
    } else {
        (None, None)
    };

    let mut a = sb.automaton(name.clone());
    let idle = a.location("idle").add();

    for (k, r) in served.iter().enumerate() {
        let scenario = &model.scenarios[r.scenario];
        let step = &scenario.steps[r.step];
        let e = exec_ticks[k];
        let queue = queues[r.scenario][r.step];
        let nq = next_queue(model, queues, *r);
        let done = done_channels
            .iter()
            .find(|(dr, _)| dr == r)
            .map(|(_, ch)| *ch);
        let prio = step_priority(model, *r);
        let is_low = prio != highest;

        // Start guard: queue non-empty, plus (for priority policies) no
        // pending work of strictly higher priority.
        let mut start_guard = queue.gt_(0);
        if with_priorities {
            for (other, _) in served.iter().zip(&exec_ticks) {
                if step_priority(model, *other) < prio {
                    let oq = queues[other.scenario][other.step];
                    start_guard = start_guard.and(oq.eq_(0));
                }
            }
        }

        // The busy location.  Low-priority operations of a preemptive resource
        // use the variable-valued invariant x <= D (Fig. 5), everything else
        // the constant invariant x <= E (Fig. 4/6).
        let busy_name = format!("exec_{}_{}", scenario.name, step.name());
        let busy = if preemptive && is_low {
            let d = d_var.expect("preemptive resource has D");
            a.location(&busy_name).invariant(x.le(IntExpr::Var(d))).add()
        } else {
            a.location(&busy_name).invariant(x.le(e)).add()
        };

        // Start edge.
        {
            let mut eb = a
                .edge(idle, busy)
                .guard(start_guard)
                .sync(Sync::send(hurry))
                .update(Update::add(queue, -1))
                .reset(x);
            if preemptive && is_low {
                let d = d_var.expect("preemptive resource has D");
                eb = eb.update(Update::assign(d, e));
            }
            eb.add();
        }

        // Completion edge.
        {
            let completion_guard = if preemptive && is_low {
                let d = d_var.expect("preemptive resource has D");
                x.eq_(IntExpr::Var(d))
            } else {
                x.eq_(e)
            };
            let mut eb = a.edge(busy, idle).guard_clock(completion_guard);
            if preemptive && is_low {
                let d = d_var.expect("preemptive resource has D");
                eb = eb.update(Update::assign(d, 0));
            }
            if let Some(nq) = nq {
                eb = eb.update(Update::add(nq, 1));
            }
            if let Some(done) = done {
                eb = eb.sync(Sync::send(done));
            }
            eb.add();
        }

        // Preemption locations (Fig. 5): the running low-priority operation is
        // interrupted by each higher-priority operation of this resource.
        if preemptive && is_low {
            let d = d_var.expect("preemptive resource has D");
            let yp = y.expect("preemptive resource has y");
            for (hk, hr) in served.iter().enumerate() {
                if step_priority(model, *hr) >= prio {
                    continue;
                }
                let h_scenario = &model.scenarios[hr.scenario];
                let h_step = &h_scenario.steps[hr.step];
                let eh = exec_ticks[hk];
                let h_queue = queues[hr.scenario][hr.step];
                let h_nq = next_queue(model, queues, *hr);
                let h_done = done_channels
                    .iter()
                    .find(|(dr, _)| dr == hr)
                    .map(|(_, ch)| *ch);
                let pre = a
                    .location(format!(
                        "pre_{}_{}_by_{}",
                        scenario.name,
                        step.name(),
                        h_step.name()
                    ))
                    .invariant(yp.le(eh))
                    .add();
                a.edge(busy, pre)
                    .guard(h_queue.gt_(0))
                    .sync(Sync::send(hurry))
                    .update(Update::add(h_queue, -1))
                    .reset(yp)
                    .add();
                let mut back = a
                    .edge(pre, busy)
                    .guard_clock(yp.eq_(eh))
                    .update(Update::assign(
                        d,
                        IntExpr::Var(d) + IntExpr::Const(eh),
                    ));
                if let Some(nq) = h_nq {
                    back = back.update(Update::add(nq, 1));
                }
                if let Some(done) = h_done {
                    back = back.sync(Sync::send(done));
                }
                back.add();
            }
        }
    }

    a.set_initial(idle);
    a.build();
    x
}

/// Builds a TDMA bus (the Perathoner et al. time-triggered template referred
/// to in Section 3.2 of the paper).
///
/// The cycle has one slot per scenario that sends over the bus, in scenario
/// order.  For every transfer step a *slot gate* automaton toggles a shared
/// 0/1 variable that is 1 exactly while the remaining part of the owning
/// scenario's slot still fits the whole transfer; the bus automaton itself is
/// the Fig. 6 pattern with the additional `gate == 1` start guards.  Keeping
/// the gates as separate automata (instead of clock guards on the start
/// edges) preserves the checker's restriction that urgent synchronizations
/// carry no clock guards.
#[allow(clippy::too_many_arguments)]
fn build_tdma_bus(
    sb: &mut SystemBuilder,
    model: &ArchitectureModel,
    quantizer: &Quantizer,
    bus_index: usize,
    slot: crate::time::TimeValue,
    served: &[StepRef],
    queues: &[Vec<VarId>],
    done_channels: &[(StepRef, ChannelId)],
    hurry: ChannelId,
) {
    let bus = &model.buses[bus_index];
    let streams = model.bus_streams(crate::model::BusId(bus_index));
    let slot_ticks = quantizer.to_ticks(slot);
    let cycle_ticks = slot_ticks * streams.len() as i64;

    // Slot gates: one per served transfer step.
    let mut gates: Vec<VarId> = Vec::with_capacity(served.len());
    for r in served {
        let scenario = &model.scenarios[r.scenario];
        let step = &scenario.steps[r.step];
        let dur = quantizer.to_ticks(model.step_service_time(step));
        let slot_index = streams
            .iter()
            .position(|s| s.0 == r.scenario)
            .expect("served step's scenario sends over this bus") as i64;
        let start = slot_index * slot_ticks;
        let close = start + slot_ticks - dur;
        debug_assert!(close >= start, "validated: transfer fits in one TDMA slot");

        let gate = sb.add_var(
            format!("open_{}_{}_{}", bus.name, scenario.name, step.name()),
            0,
            1,
            if start == 0 { 1 } else { 0 },
        );
        gates.push(gate);
        let g = sb.add_clock(format!(
            "g_{}_{}_{}",
            bus.name,
            scenario.name,
            step.name()
        ));
        let mut a = sb.automaton(format!(
            "gate_{}_{}_{}",
            bus.name,
            scenario.name,
            step.name()
        ));
        if start == 0 {
            // The slot opens at the start of the cycle: open -> closed -> wrap.
            let open = a.location("open").invariant(g.le(close)).add();
            let closed = a.location("closed").invariant(g.le(cycle_ticks)).add();
            a.edge(open, closed)
                .guard_clock(g.eq_(close))
                .update(Update::assign(gate, 0))
                .add();
            a.edge(closed, open)
                .guard_clock(g.eq_(cycle_ticks))
                .update(Update::assign(gate, 1))
                .reset(g)
                .add();
            a.set_initial(open);
        } else {
            // waiting -> open -> closed -> wrap back to waiting.
            let waiting = a.location("waiting").invariant(g.le(start)).add();
            let open = a.location("open").invariant(g.le(close)).add();
            let closed = a.location("closed").invariant(g.le(cycle_ticks)).add();
            a.edge(waiting, open)
                .guard_clock(g.eq_(start))
                .update(Update::assign(gate, 1))
                .add();
            a.edge(open, closed)
                .guard_clock(g.eq_(close))
                .update(Update::assign(gate, 0))
                .add();
            a.edge(closed, waiting)
                .guard_clock(g.eq_(cycle_ticks))
                .reset(g)
                .add();
            a.set_initial(waiting);
        }
        a.build();
    }

    // The bus automaton itself: Fig. 6 with `gate == 1` start guards.
    let x = sb.add_clock(format!("x_{}", bus.name));
    let mut a = sb.automaton(bus.name.clone());
    let idle = a.location("idle").add();
    for (k, r) in served.iter().enumerate() {
        let scenario = &model.scenarios[r.scenario];
        let step = &scenario.steps[r.step];
        let dur = quantizer.to_ticks(model.step_service_time(step));
        let queue = queues[r.scenario][r.step];
        let nq = next_queue(model, queues, *r);
        let done = done_channels
            .iter()
            .find(|(dr, _)| dr == r)
            .map(|(_, ch)| *ch);
        let busy = a
            .location(format!("send_{}_{}", scenario.name, step.name()))
            .invariant(x.le(dur))
            .add();
        a.edge(idle, busy)
            .guard(queue.gt_(0).and(gates[k].eq_(1)))
            .sync(Sync::send(hurry))
            .update(Update::add(queue, -1))
            .reset(x)
            .add();
        let mut eb = a.edge(busy, idle).guard_clock(x.eq_(dur));
        if let Some(nq) = nq {
            eb = eb.update(Update::add(nq, 1));
        }
        if let Some(done) = done {
            eb = eb.sync(Sync::send(done));
        }
        eb.add();
    }
    a.set_initial(idle);
    a.build();
}

/// Builds the environment automaton of a scenario (Figs. 7a–d and Fig. 8).
#[allow(clippy::too_many_arguments)]
fn build_environment(
    sb: &mut SystemBuilder,
    quantizer: &Quantizer,
    scenario_index: usize,
    scenario_name: &str,
    stimulus: &EventModel,
    queue: VarId,
    stim_channel: Option<ChannelId>,
    cap: i64,
) {
    let _ = scenario_index;
    let x = sb.add_clock(format!("x_env_{scenario_name}"));
    // Appends the "generate one stimulus" effect to an edge: increment the
    // scenario's input queue and (when measured) announce it to the observer.
    fn emit_on<'a, 's>(
        eb: EdgeBuilder<'a, 's>,
        queue: VarId,
        stim: Option<ChannelId>,
    ) -> EdgeBuilder<'a, 's> {
        let eb = eb.update(Update::add(queue, 1));
        match stim {
            Some(ch) => eb.sync(Sync::send(ch)),
            None => eb,
        }
    }
    match stimulus {
        EventModel::PeriodicOffset { period, offset } => {
            let p = quantizer.to_ticks(*period);
            let f = quantizer.to_ticks(*offset);
            let mut a = sb.automaton(format!("env_{scenario_name}"));
            let l0 = a.location("L0").invariant(x.le(f)).add();
            let l1 = a.location("L1").invariant(x.le(p)).add();
            emit_on(a.edge(l0, l1).guard_clock(x.eq_(f)).reset(x), queue, stim_channel).add();
            emit_on(a.edge(l1, l1).guard_clock(x.eq_(p)).reset(x), queue, stim_channel).add();
            a.set_initial(l0);
            a.build();
        }
        EventModel::Periodic { period } => {
            let p = quantizer.to_ticks(*period);
            let mut a = sb.automaton(format!("env_{scenario_name}"));
            let l0 = a.location("L0").invariant(x.le(p)).add();
            let l1 = a.location("L1").invariant(x.le(p)).add();
            // The first event may occur anywhere within the first period
            // (unknown offset); afterwards the stream is strictly periodic.
            emit_on(a.edge(l0, l1).reset(x), queue, stim_channel).add();
            emit_on(a.edge(l1, l1).guard_clock(x.eq_(p)).reset(x), queue, stim_channel).add();
            a.set_initial(l0);
            a.build();
        }
        EventModel::Sporadic { min_interarrival } => {
            let p = quantizer.to_ticks(*min_interarrival);
            let mut a = sb.automaton(format!("env_{scenario_name}"));
            let l0 = a.location("L0").add();
            let l1 = a.location("L1").add();
            emit_on(a.edge(l0, l1).reset(x), queue, stim_channel).add();
            emit_on(a.edge(l1, l1).guard_clock(x.ge(p)).reset(x), queue, stim_channel).add();
            a.set_initial(l0);
            a.build();
        }
        EventModel::PeriodicJitter { period, jitter } => {
            let p = quantizer.to_ticks(*period);
            let j = quantizer.to_ticks(*jitter);
            // The Perathoner et al. template (Fig. 7d): each period an event is
            // released somewhere within the jitter window.
            let mut a = sb.automaton(format!("env_{scenario_name}"));
            let l0 = a.location("L0").invariant(x.le(p)).add();
            let l1 = a.location("L1").invariant(x.le(j)).add();
            let l2 = a.location("L2").invariant(x.le(p)).add();
            a.edge(l0, l1).reset(x).add();
            emit_on(a.edge(l1, l2), queue, stim_channel).add();
            a.edge(l2, l1).guard_clock(x.ge(p)).reset(x).add();
            a.set_initial(l0);
            a.build();
        }
        EventModel::Burst {
            period,
            jitter,
            min_separation,
        } => {
            let p = quantizer.to_ticks(*period);
            let j = quantizer.to_ticks(*jitter);
            let d = quantizer.to_ticks(*min_separation);
            let backlog = j / p + 2;
            let y = sb.add_clock(format!("y_env_{scenario_name}"));
            let z = if d > 0 {
                Some(sb.add_clock(format!("z_env_{scenario_name}")))
            } else {
                None
            };
            let pending = sb.add_var(format!("pending_{scenario_name}"), 0, backlog + cap, 1);
            let snd = sb.add_var(format!("snd_{scenario_name}"), 0, backlog + cap, 0);
            let mut a = sb.automaton(format!("env_{scenario_name}"));
            // Phase A: before the first deadline shift (y bounded by J),
            // phase B: steady state (y bounded by P).  See Fig. 8.
            let la = a
                .location("A")
                .invariant(x.le(p))
                .invariant(y.le(j))
                .add();
            let lb = a
                .location("B")
                .invariant(x.le(p))
                .invariant(y.le(p))
                .add();
            for l in [la, lb] {
                // A new event becomes pending every period.
                a.edge(l, l)
                    .guard_clock(x.eq_(p))
                    .update(Update::add(pending, 1))
                    .reset(x)
                    .add();
                // A pending event may actually be emitted (respecting the
                // minimal separation D).
                let mut eb = a
                    .edge(l, l)
                    .guard(pending.gt_(0))
                    .update(Update::add(pending, -1))
                    .update(Update::add(snd, 1));
                if let Some(z) = z {
                    eb = eb.guard_clock(z.gt(d)).reset(z);
                }
                eb = eb.update(Update::add(queue, 1));
                if let Some(ch) = stim_channel {
                    eb = eb.sync(Sync::send(ch));
                }
                eb.add();
            }
            // Deadline bookkeeping: the first deadline is J after the start,
            // subsequent deadlines are P apart.
            a.edge(la, lb)
                .guard(snd.gt_(0))
                .guard_clock(y.eq_(j))
                .update(Update::add(snd, -1))
                .reset(y)
                .add();
            a.edge(lb, lb)
                .guard(snd.gt_(0))
                .guard_clock(y.eq_(p))
                .update(Update::add(snd, -1))
                .reset(y)
                .add();
            a.set_initial(la);
            a.build();
        }
    }
}

/// Builds the measuring observer (the role of Fig. 9's `rstat-m` automaton).
/// `suffix` disambiguates the clock/variable/automaton names when several
/// observers coexist in one network (empty for the classic single-observer
/// generation).
fn build_observer(
    sb: &mut SystemBuilder,
    requirement: &Requirement,
    start_ch: ChannelId,
    end_ch: ChannelId,
    cap: i64,
) -> ObserverRefs {
    let y = sb.add_clock("y_obs");
    let n = sb.add_var("n_obs", 0, 4 * cap.max(4), 0);
    let m = sb.add_var("m_obs", -1, 4 * cap.max(4), -1);
    let mut a = sb.automaton("observer");
    let idle = a.location("idle").add();
    let armed = a.location("armed").add();
    let seen = a.location("seen").committed(true).add();
    let done = a.location("done").add();

    // idle: count unobserved stimulus/response pairs.
    a.edge(idle, idle)
        .sync(Sync::recv(start_ch))
        .update(Update::add(n, 1))
        .add();
    a.edge(idle, idle)
        .guard(n.gt_(0))
        .sync(Sync::recv(end_ch))
        .update(Update::add(n, -1))
        .add();
    // idle -> armed: non-deterministically pick this stimulus occurrence for
    // measurement; `m` remembers how many earlier responses must pass first.
    a.edge(idle, armed)
        .sync(Sync::recv(start_ch))
        .update(Update::assign(m, IntExpr::Var(n)))
        .update(Update::add(n, 1))
        .reset(y)
        .add();
    // armed: keep counting, discard responses of earlier stimuli.
    a.edge(armed, armed)
        .sync(Sync::recv(start_ch))
        .update(Update::add(n, 1))
        .add();
    a.edge(armed, armed)
        .guard(m.gt_(0))
        .sync(Sync::recv(end_ch))
        .update(Update::add(m, -1))
        .update(Update::add(n, -1))
        .add();
    // armed -> seen: the response of the measured stimulus arrives; `seen` is
    // committed so no time passes and `y_obs` holds the exact response time.
    a.edge(armed, seen)
        .guard(m.eq_(0))
        .sync(Sync::recv(end_ch))
        .update(Update::assign(m, -1))
        .update(Update::add(n, -1))
        .add();
    // `n` is zeroed on the way out so a finished observer occupies a single
    // discrete state.  The WCRT query never stores a post-`done` state (the
    // query-location analysis prunes them), so this only keeps a plain
    // exploration of the measured network from fragmenting.
    a.edge(seen, done).update(Update::assign(n, 0)).add();
    a.set_initial(idle);
    a.build();

    ObserverRefs {
        automaton: "observer".into(),
        seen_location: "seen".into(),
        clock: y,
        requirement: requirement.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scenario;
    use crate::time::TimeValue;

    fn two_proc_model(policy: SchedulingPolicy) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("gen-test");
        let cpu = m.add_processor("CPU", 1, policy);
        let bus = m.add_bus("BUS", 8_000_000, BusArbitration::FcfsNd);
        let hi = m.add_scenario(Scenario {
            name: "hi".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::millis(10),
            },
            priority: 0,
            steps: vec![
                Step::Execute {
                    operation: "fast".into(),
                    instructions: 1_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: "msg".into(),
                    bytes: 100,
                    over: bus,
                },
            ],
        });
        let _lo = m.add_scenario(Scenario {
            name: "lo".into(),
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(50),
            },
            priority: 1,
            steps: vec![Step::Execute {
                operation: "slow".into(),
                instructions: 5_000,
                on: cpu,
            }],
        });
        m.add_requirement(Requirement {
            name: "hi-e2e".into(),
            scenario: hi,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(10),
        });
        m
    }

    /// One island per `(name, period)`: a 1 + 3 + 2 ms chain on its own
    /// 1-MIPS fixed-priority preemptive processor, with requirement `r{name}`
    /// from the stimulus to the end of the chain.  Whole-millisecond
    /// durations keep the tick at 1 ms whatever the periods.
    fn islands(periods_ms: &[(&str, i128)]) -> ArchitectureModel {
        let mut m = ArchitectureModel::new("islands");
        for &(name, period_ms) in periods_ms {
            let cpu = m.add_processor(
                format!("CPU{name}"),
                1,
                SchedulingPolicy::FixedPriorityPreemptive,
            );
            let steps = [1_000, 3_000, 2_000]
                .iter()
                .enumerate()
                .map(|(i, &instructions)| Step::Execute {
                    operation: format!("stage{i}{name}"),
                    instructions,
                    on: cpu,
                })
                .collect();
            let sid = m.add_scenario(Scenario {
                name: format!("s{name}"),
                stimulus: EventModel::Periodic {
                    period: TimeValue::millis(period_ms),
                },
                priority: 0,
                steps,
            });
            m.add_requirement(Requirement {
                name: format!("r{name}"),
                scenario: sid,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(2),
                deadline: TimeValue::millis(period_ms),
            });
        }
        m
    }

    #[test]
    fn sharing_closure_separates_islands_and_follows_buses() {
        let m = islands(&[("A", 20), ("B", 20)]);
        let (scen, procs, buses) = sharing_closure(&m, 0);
        assert_eq!(scen, vec![true, false]);
        assert_eq!(procs, vec![true, false]);
        assert_eq!(buses, Vec::<bool>::new());

        // Adding a bus transfer to both scenarios merges the islands.
        let mut linked = m.clone();
        let bus = linked.add_bus("BUS", 8_000, BusArbitration::FixedPriority);
        for s in &mut linked.scenarios {
            s.steps.push(Step::Transfer {
                message: "x".into(),
                bytes: 1,
                over: bus,
            });
        }
        let (scen, procs, buses) = sharing_closure(&linked, 0);
        assert_eq!(scen, vec![true, true]);
        assert_eq!(procs, vec![true, true]);
        assert_eq!(buses, vec![true]);
    }

    #[test]
    fn measured_network_holds_only_the_requirements_cone() {
        let mut m = islands(&[("A", 20), ("B", 20)]);
        // Island B alone sets a 0.5 ms tick; A's cone alone would have 1 ms.
        m.scenarios[1].stimulus = EventModel::Periodic {
            period: TimeValue::micros(20_500),
        };
        let r_a = m.requirement_by_name("rA").unwrap();
        let g = generate(&m, Some(r_a), &GeneratorOptions::default()).unwrap();
        let sys = &g.system;
        assert!(sys.validate().is_ok());
        let names: Vec<&str> = sys.automata.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["observer", "Urg", "CPUA", "env_sA"]);
        assert!(sys.var_by_name("q_sB_0_stage0B").is_none());
        assert!(sys.clock_by_name("x_CPUB").is_none());
        // The tick stays the whole model's.
        assert_eq!(g.quantizer.tick(), TimeValue::micros(500));
        let whole = generate(&m, None, &GeneratorOptions::default()).unwrap();
        assert_eq!(
            whole.system.automata.len(),
            5,
            "Urg + two CPUs + two environments"
        );
    }

    #[test]
    fn cold_answer_ignores_an_overloaded_island() {
        use crate::analysis::AnalysisConfig;
        use crate::engine::{Estimate, Query, RunContext};
        use crate::incremental::AnalysisDb;
        // Island B needs 6 ms of work every 4 ms, so its queues overflow;
        // island A shares nothing with it.
        let mixed = islands(&[("A", 30), ("B", 4)]);
        let ctx = RunContext::default();
        let ask = |db: &AnalysisDb, model: &ArchitectureModel, query: &Query| {
            db.run(model, query, &ctx)
                .unwrap_or_else(|e| panic!("{query}: {e}"))
        };
        let wcrt_a = Query::wcrt("rA");
        let cold = ask(&AnalysisDb::new(AnalysisConfig::default()), &mixed, &wcrt_a);
        assert_eq!(
            cold.estimates[0].estimate,
            Estimate::Exact(TimeValue::millis(6))
        );
        let alone = ask(
            &AnalysisDb::new(AnalysisConfig::default()),
            &islands(&[("A", 30)]),
            &wcrt_a,
        );
        assert_eq!(cold.estimates[0].estimate, alone.estimates[0].estimate);
        assert_eq!(cold.states_stored, alone.states_stored);

        // A database warmed on a schedulable B answers the same cone alike.
        let warmed = AnalysisDb::new(AnalysisConfig::default());
        ask(&warmed, &islands(&[("A", 30), ("B", 40)]), &wcrt_a);
        let warm = ask(&warmed, &mixed, &wcrt_a);
        assert_eq!(warm.estimates[0].estimate, cold.estimates[0].estimate);
        assert_eq!(warmed.stats().hits, 1);

        // The whole-model queue check still sees island B overflow.
        let queues = ask(&warmed, &mixed, &Query::QueueBounds);
        assert_eq!(queues.verdict, Some(false));
    }

    #[test]
    fn generates_expected_automata() {
        let m = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
        let req = m.requirement_by_name("hi-e2e").unwrap().clone();
        let g = generate(&m, Some(&req), &GeneratorOptions::default()).unwrap();
        let sys = &g.system;
        assert!(sys.validate().is_ok());
        // Urg listener + CPU + BUS + 2 environments + observer = 6 automata.
        assert_eq!(sys.automata.len(), 6);
        for name in ["Urg", "CPU", "BUS", "env_hi", "env_lo", "observer"] {
            assert!(sys.automaton_by_name(name).is_some(), "missing {name}");
        }
        // The CPU serves two operations: idle + 2 busy locations (Fig. 4).
        let cpu = &sys.automata[sys.automaton_by_name("CPU").unwrap()];
        assert_eq!(cpu.locations.len(), 3);
        assert_eq!(cpu.edges.len(), 4);
        // Queue counters exist for every step.
        assert!(sys.var_by_name("q_hi_0_fast").is_some());
        assert!(sys.var_by_name("q_hi_1_msg").is_some());
        assert!(sys.var_by_name("q_lo_0_slow").is_some());
        // Observer handles are reported.
        let obs = g.observer.unwrap();
        assert_eq!(obs.automaton, "observer");
        assert_eq!(obs.seen_location, "seen");
    }

    #[test]
    fn preemptive_resource_has_preemption_locations() {
        let m = two_proc_model(SchedulingPolicy::FixedPriorityPreemptive);
        let g = generate(&m, None, &GeneratorOptions::default()).unwrap();
        let sys = &g.system;
        let cpu = &sys.automata[sys.automaton_by_name("CPU").unwrap()];
        // idle + exec_fast + exec_slow + pre_slow_by_fast = 4 locations (Fig. 5).
        assert_eq!(cpu.locations.len(), 4);
        assert!(cpu
            .locations
            .iter()
            .any(|l| l.name.starts_with("pre_lo_slow_by_fast")));
        // The remaining-time variable D exists.
        assert!(sys.var_by_name("D_CPU").is_some());
        // No observer was requested.
        assert!(g.observer.is_none());
        assert!(sys.automaton_by_name("observer").is_none());
    }

    #[test]
    fn fixed_priority_guards_lower_priority_start() {
        let m = two_proc_model(SchedulingPolicy::FixedPriorityNonPreemptive);
        let g = generate(&m, None, &GeneratorOptions::default()).unwrap();
        let sys = &g.system;
        let cpu = &sys.automata[sys.automaton_by_name("CPU").unwrap()];
        // The start edge of the low-priority operation must test the
        // high-priority queue for emptiness (the `setvolume == 0` guard of
        // Fig. 5); render guards to text to check.
        let q_hi = sys.var_by_name("q_hi_0_fast").unwrap();
        let has_guard = cpu.edges.iter().any(|e| {
            format!("{}", e.guard).contains(&format!("{q_hi} == 0"))
        });
        assert!(has_guard, "missing priority guard on low-priority start edge");
    }

    #[test]
    fn environment_automata_match_event_model_shapes() {
        for (stimulus, expected_locations) in [
            (
                EventModel::PeriodicOffset {
                    period: TimeValue::millis(10),
                    offset: TimeValue::ZERO,
                },
                2,
            ),
            (
                EventModel::Periodic {
                    period: TimeValue::millis(10),
                },
                2,
            ),
            (
                EventModel::Sporadic {
                    min_interarrival: TimeValue::millis(10),
                },
                2,
            ),
            (
                EventModel::PeriodicJitter {
                    period: TimeValue::millis(10),
                    jitter: TimeValue::millis(10),
                },
                3,
            ),
            (
                EventModel::Burst {
                    period: TimeValue::millis(10),
                    jitter: TimeValue::millis(20),
                    min_separation: TimeValue::millis(1),
                },
                2,
            ),
        ] {
            let mut m = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
            m.scenarios[0].stimulus = stimulus.clone();
            let g = generate(&m, None, &GeneratorOptions::default()).unwrap();
            let sys = &g.system;
            let env = &sys.automata[sys.automaton_by_name("env_hi").unwrap()];
            assert_eq!(
                env.locations.len(),
                expected_locations,
                "unexpected shape for {stimulus:?}"
            );
            assert!(sys.validate().is_ok());
        }
    }

    #[test]
    fn burst_without_min_separation_has_no_extra_clock() {
        let mut m = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
        m.scenarios[0].stimulus = EventModel::Burst {
            period: TimeValue::millis(10),
            jitter: TimeValue::millis(20),
            min_separation: TimeValue::ZERO,
        };
        let g = generate(&m, None, &GeneratorOptions::default()).unwrap();
        assert!(g.system.clock_by_name("z_env_hi").is_none());
        let mut m2 = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
        m2.scenarios[0].stimulus = EventModel::Burst {
            period: TimeValue::millis(10),
            jitter: TimeValue::millis(20),
            min_separation: TimeValue::millis(1),
        };
        let g2 = generate(&m2, None, &GeneratorOptions::default()).unwrap();
        assert!(g2.system.clock_by_name("z_env_hi").is_some());
    }

    #[test]
    fn tdma_bus_generates_slot_gates() {
        let mut m = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
        m.buses[0].arbitration = BusArbitration::Tdma {
            slot: TimeValue::millis(5),
        };
        assert!(m.validate().is_ok());
        let g = generate(&m, None, &GeneratorOptions::default()).unwrap();
        let sys = &g.system;
        assert!(sys.validate().is_ok());
        // Only the `hi` scenario sends over the bus, so there is exactly one
        // slot gate, and the bus start edge is guarded by its open variable.
        assert!(sys.automaton_by_name("gate_BUS_hi_msg").is_some());
        let open = sys.var_by_name("open_BUS_hi_msg").unwrap();
        let bus = &sys.automata[sys.automaton_by_name("BUS").unwrap()];
        assert_eq!(bus.locations.len(), 2); // idle + send_hi_msg
        let guarded = bus
            .edges
            .iter()
            .any(|e| format!("{}", e.guard).contains(&format!("{open} == 1")));
        assert!(guarded, "bus start edge must test the slot gate");
        // A second scenario on the bus doubles the cycle and adds a gate.
        let mut m2 = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
        m2.buses[0].arbitration = BusArbitration::Tdma {
            slot: TimeValue::millis(5),
        };
        m2.scenarios[1].steps.push(Step::Transfer {
            message: "log".into(),
            bytes: 100,
            over: crate::model::BusId(0),
        });
        let g2 = generate(&m2, None, &GeneratorOptions::default()).unwrap();
        assert!(g2.system.automaton_by_name("gate_BUS_lo_log").is_some());
        assert!(g2.system.validate().is_ok());
    }

    #[test]
    fn tdma_wcrt_includes_waiting_for_the_slot() {
        use crate::analysis::AnalysisConfig;
        use crate::incremental::AnalysisDb;
        // Two scenarios, each sending a 1 ms message over a TDMA bus with
        // 2 ms slots (cycle = 4 ms).  The worst case for scenario `a` is an
        // arrival just after its send window closed: it waits one full cycle
        // minus the window (3 ms) and then transfers (1 ms).
        let mut m = ArchitectureModel::new("tdma");
        let bus = m.add_bus(
            "BUS",
            8_000, // 1 byte per ms
            BusArbitration::Tdma {
                slot: TimeValue::millis(2),
            },
        );
        // The interarrival time and deadline are kept as small as the
        // asserted WCRT allows (no queueing: 8 > 4): zone fragmentation of
        // the free-running slot gates against the sporadic arrival phase
        // grows quadratically with these constants.
        for (name, priority) in [("a", 0u32), ("b", 1u32)] {
            let sid = m.add_scenario(Scenario {
                name: name.into(),
                stimulus: EventModel::Sporadic {
                    min_interarrival: TimeValue::millis(8),
                },
                priority,
                steps: vec![Step::Transfer {
                    message: format!("msg_{name}"),
                    bytes: 1,
                    over: bus,
                }],
            });
            m.add_requirement(Requirement {
                name: format!("{name} latency"),
                scenario: sid,
                from: MeasurePoint::Stimulus,
                to: MeasurePoint::AfterStep(0),
                deadline: TimeValue::millis(5),
            });
        }
        let cfg = AnalysisConfig::default();
        let wcrt_a = AnalysisDb::new(cfg.clone())
            .wcrt(&m, "a latency")
            .unwrap()
            .wcrt
            .expect("exact");
        assert_eq!(wcrt_a, TimeValue::millis(4), "wait 3 ms for the slot + 1 ms transfer");
        // The same model on a non-slotted bus only waits for one interfering
        // message: the TDMA bound must dominate it.
        let mut fcfs = m.clone();
        fcfs.buses[0].arbitration = BusArbitration::FcfsNd;
        let wcrt_fcfs = AnalysisDb::new(cfg)
            .wcrt(&fcfs, "a latency")
            .unwrap()
            .wcrt
            .expect("exact");
        assert!(wcrt_fcfs <= wcrt_a);
    }

    #[test]
    fn tdma_slot_validation_rejects_oversized_messages() {
        let mut m = two_proc_model(SchedulingPolicy::NonPreemptiveNd);
        // 100 bytes at 8 Mbit/s take 0.1 ms; a 0.05 ms slot is too short.
        m.buses[0].arbitration = BusArbitration::Tdma {
            slot: TimeValue::micros(50),
        };
        assert!(matches!(
            m.validate(),
            Err(crate::model::ModelError::TdmaSlotTooShort { .. })
        ));
    }

    #[test]
    fn quantizer_makes_all_service_times_exact() {
        let mut m = ArchitectureModel::new("exact");
        let p = m.add_processor("P", 22, SchedulingPolicy::NonPreemptiveNd);
        let sid = m.add_scenario(Scenario {
            name: "s".into(),
            stimulus: EventModel::Periodic {
                period: TimeValue::ratio_us(31_250, 1),
            },
            priority: 0,
            steps: vec![Step::Execute {
                operation: "op".into(),
                instructions: 100_000,
                on: p,
            }],
        });
        m.add_requirement(Requirement {
            name: "r".into(),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(200),
        });
        let g = generate(&m, None, &GeneratorOptions::default()).unwrap();
        assert!(g.quantizer.is_exact(TimeValue::from_instructions(100_000, 22)));
        // Durations 50000/11, 31250 and 200000 µs: the coarsest exact tick is
        // their rational GCD, 6250/11 µs (8, 55 and 352 ticks respectively).
        assert_eq!(g.quantizer.tick(), TimeValue::ratio_us(6_250, 11));
    }
}
