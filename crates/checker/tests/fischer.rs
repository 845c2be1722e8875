//! Fischer's mutual-exclusion protocol — the classic correctness benchmark for
//! timed-automata model checkers.
//!
//! Each process `i`:
//!
//! ```text
//! idle ──(id == 0, x := 0)──▶ req  [inv x <= K]
//! req  ──(x <= K, id := i, x := 0)──▶ wait
//! wait ──(x > K && id == i)──▶ cs
//! wait ──(id != i, x := 0)──▶ idle      (retry)
//! cs   ──(id := 0)──▶ idle
//! ```
//!
//! Mutual exclusion holds because the *strict* guard `x > K` in `wait` ensures
//! every competing write to `id` (which happens within `K` of the reservation)
//! has completed.  Weakening the guard to `x >= K` breaks the protocol.  Both
//! facts are checked here, which exercises strict vs. non-strict DBM bounds,
//! shared-variable guards and interleaving exploration.

use tempo_check::{Explorer, SearchOptions, SearchOrder, TargetSpec};
use tempo_ta::{ClockRef, IntExpr, RelOp, System, SystemBuilder, Update, VarExprExt};

const K: i64 = 2;

fn fischer(n: usize, strict_wait: bool) -> System {
    let mut sb = SystemBuilder::new("fischer");
    let id = sb.add_var("id", 0, n as i64, 0);
    let clocks: Vec<_> = (0..n).map(|i| sb.add_clock(format!("x{i}"))).collect();
    for (i, &x) in clocks.iter().enumerate() {
        let pid = (i + 1) as i64;
        let mut p = sb.automaton(format!("P{}", pid));
        let idle = p.location("idle").add();
        let req = p.location("req").invariant(x.le(K)).add();
        let wait = p.location("wait").add();
        let cs = p.location("cs").add();
        p.edge(idle, req).guard(id.eq_(0)).reset(x).add();
        p.edge(req, wait)
            .guard_clock(x.le(K))
            .update(Update::assign(id, pid))
            .reset(x)
            .add();
        let wait_guard = if strict_wait {
            tempo_ta::ClockConstraint::new(x, RelOp::Gt, K)
        } else {
            tempo_ta::ClockConstraint::new(x, RelOp::Ge, K)
        };
        p.edge(wait, cs)
            .guard(id.eq_(pid))
            .guard_clock(wait_guard)
            .add();
        p.edge(wait, idle).guard(id.ne_(pid)).reset(x).add();
        p.edge(cs, idle).update(Update::assign(id, 0)).add();
        p.set_initial(idle);
        p.build();
    }
    sb.build()
}

fn mutex_violation_target(sys: &System, n: usize) -> Vec<TargetSpec> {
    // All pairs (i, j) simultaneously in cs.
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
    targets
}

#[test]
fn fischer_two_processes_is_safe() {
    let sys = fischer(2, true);
    let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
    for target in mutex_violation_target(&sys, 2) {
        let report = ex.check_reachable(&target).unwrap();
        assert!(!report.reachable, "mutex violated: {:?}", report.trace);
    }
}

#[test]
fn fischer_three_processes_is_safe_under_all_search_orders() {
    let sys = fischer(3, true);
    for order in [SearchOrder::Bfs, SearchOrder::Dfs, SearchOrder::RandomDfs] {
        let ex = Explorer::new(&sys, SearchOptions::with_order(order)).unwrap();
        for target in mutex_violation_target(&sys, 3) {
            let report = ex.check_reachable(&target).unwrap();
            assert!(!report.reachable, "{order:?}: mutex violated");
        }
    }
}

#[test]
fn fischer_with_weak_guard_is_unsafe() {
    let sys = fischer(2, false);
    let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
    let mut violated = false;
    for target in mutex_violation_target(&sys, 2) {
        let report = ex.check_reachable(&target).unwrap();
        if report.reachable {
            violated = true;
            // The diagnostic trace must end in a state with both processes in cs.
            let last = report.trace.unwrap().into_iter().last().unwrap();
            assert!(last.state.matches("cs").count() >= 2);
        }
    }
    assert!(violated, "weakened Fischer should violate mutual exclusion");
}

#[test]
fn each_process_can_reach_its_critical_section() {
    let sys = fischer(2, true);
    let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
    for p in ["P1", "P2"] {
        let t = TargetSpec::location(&sys, p, "cs").unwrap();
        assert!(
            ex.check_reachable(&t).unwrap().reachable,
            "{p} never enters cs"
        );
    }
}

#[test]
fn state_space_grows_with_process_count() {
    let sizes: Vec<usize> = [2, 3]
        .iter()
        .map(|&n| {
            let sys = fischer(n, true);
            let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
            ex.state_space_size().unwrap()
        })
        .collect();
    assert!(sizes[1] > sizes[0]);
}

#[test]
fn response_time_of_uncontended_access_is_k() {
    // With a single process, the time from start to entering cs is exactly
    // governed by the guards: it must wait more than K after the reservation,
    // so the supremum of the "age" clock at cs entry is unbounded but the
    // infimum-style check via reachability shows cs is not reachable before K.
    let sys = fischer(1, true);
    let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
    let x = sys.clock_by_name("x0").unwrap();
    let early = TargetSpec::location(&sys, "P1", "cs")
        .unwrap()
        .with_clock_constraint(x.le(K));
    assert!(!ex.check_reachable(&early).unwrap().reachable);
    let late = TargetSpec::location(&sys, "P1", "cs")
        .unwrap()
        .with_clock_constraint(ClockRef::gt(x, K));
    assert!(ex.check_reachable(&late).unwrap().reachable);
}

#[test]
fn id_variable_stays_in_declared_range() {
    let sys = fischer(2, true);
    let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
    let id = sys.var_by_name("id").unwrap();
    let bad = TargetSpec::any()
        .with_int_guard(tempo_ta::BoolExpr::Gt(IntExpr::Var(id), IntExpr::Const(2)));
    assert!(!ex.check_reachable(&bad).unwrap().reachable);
}
