//! Pretty-printer emitting the canonical `.tta` form of a [`System`].
//!
//! The output is designed to be re-parsed by [`super::parse_system`] into a
//! structurally identical system: names that are not plain identifiers (or
//! that collide with keywords) are quoted, expressions are printed fully
//! parenthesised, and the data guard / clock guard of an edge are emitted as
//! separate `guard` / `when` attributes.

use crate::automaton::{Automaton, Edge, LocationKind, Sync};
use crate::channel::ChannelKind;
use crate::expr::{BoolExpr, IntExpr};
use crate::system::System;
use std::fmt::Write;

/// Keywords of the format; names equal to one of these are quoted.
const KEYWORDS: &[&str] = &[
    "system",
    "clock",
    "var",
    "int",
    "chan",
    "urgent",
    "broadcast",
    "committed",
    "automaton",
    "location",
    "init",
    "edge",
    "guard",
    "when",
    "sync",
    "update",
    "reset",
    "invariant",
    "true",
    "false",
];

/// Renders the system in the `.tta` textual format.
pub fn print_system(sys: &System) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "system {}", name(&sys.name));
    if !sys.clocks.is_empty() || !sys.vars.is_empty() || !sys.channels.is_empty() {
        let _ = writeln!(out);
    }
    for c in &sys.clocks {
        let _ = writeln!(out, "clock {}", name(&c.name));
    }
    for v in &sys.vars {
        let _ = writeln!(
            out,
            "var {}: int[{}, {}] = {}",
            name(&v.name),
            v.min,
            v.max,
            v.init
        );
    }
    for c in &sys.channels {
        let kw = match c.kind {
            ChannelKind::Binary => "chan",
            ChannelKind::Urgent => "urgent chan",
            ChannelKind::Broadcast => "broadcast chan",
        };
        let _ = writeln!(out, "{kw} {}", name(&c.name));
    }
    for a in &sys.automata {
        let _ = writeln!(out);
        print_automaton(&mut out, sys, a);
    }
    out
}

fn print_automaton(out: &mut String, sys: &System, a: &Automaton) {
    let _ = writeln!(out, "automaton {} {{", name(&a.name));
    for loc in &a.locations {
        let kind = match loc.kind {
            LocationKind::Normal => "",
            LocationKind::Urgent => "urgent ",
            LocationKind::Committed => "committed ",
        };
        if loc.invariant.is_empty() {
            let _ = writeln!(out, "    {kind}location {}", name(&loc.name));
        } else {
            let inv = loc
                .invariant
                .iter()
                .map(|cc| {
                    format!(
                        "{} {} {}",
                        name(&sys.clocks[cc.clock.index()].name),
                        cc.op,
                        int_expr(sys, &cc.rhs)
                    )
                })
                .collect::<Vec<_>>()
                .join(" && ");
            let _ = writeln!(
                out,
                "    {kind}location {} {{ invariant {inv} }}",
                name(&loc.name)
            );
        }
    }
    let _ = writeln!(
        out,
        "    init {}",
        name(&a.locations[a.initial.index()].name)
    );
    for e in &a.edges {
        print_edge(out, sys, a, e);
    }
    let _ = writeln!(out, "}}");
}

fn print_edge(out: &mut String, sys: &System, a: &Automaton, e: &Edge) {
    let src = name(&a.locations[e.source.index()].name);
    let dst = name(&a.locations[e.target.index()].name);
    let mut attrs: Vec<String> = Vec::new();
    if e.guard != BoolExpr::Const(true) {
        attrs.push(format!("guard {}", bool_expr(sys, &e.guard)));
    }
    if !e.clock_guard.is_empty() {
        let cg = e
            .clock_guard
            .iter()
            .map(|cc| {
                format!(
                    "{} {} {}",
                    name(&sys.clocks[cc.clock.index()].name),
                    cc.op,
                    int_expr(sys, &cc.rhs)
                )
            })
            .collect::<Vec<_>>()
            .join(" && ");
        attrs.push(format!("when {cg}"));
    }
    match e.sync {
        Sync::Tau => {}
        Sync::Send(c) => attrs.push(format!("sync {}!", name(&sys.channels[c.index()].name))),
        Sync::Recv(c) => attrs.push(format!("sync {}?", name(&sys.channels[c.index()].name))),
    }
    if !e.updates.is_empty() {
        let ups = e
            .updates
            .iter()
            .map(|u| {
                format!(
                    "{} = {}",
                    name(&sys.vars[u.var.index()].name),
                    int_expr(sys, &u.expr)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        attrs.push(format!("update {ups}"));
    }
    if !e.resets.is_empty() {
        let rs = e
            .resets
            .iter()
            .map(|(c, v)| {
                if *v == 0 {
                    name(&sys.clocks[c.index()].name)
                } else {
                    format!("{} = {v}", name(&sys.clocks[c.index()].name))
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        attrs.push(format!("reset {rs}"));
    }
    if attrs.is_empty() {
        let _ = writeln!(out, "    edge {src} -> {dst} {{ }}");
    } else {
        let _ = writeln!(out, "    edge {src} -> {dst} {{ {} }}", attrs.join(" ; "));
    }
}

/// Quotes a name when it is not a plain identifier or collides with a keyword.
fn name(n: &str) -> String {
    let plain = !n.is_empty()
        && n.chars()
            .next()
            .map(|c| c.is_alphabetic() || c == '_')
            .unwrap_or(false)
        && n.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !KEYWORDS.contains(&n);
    if plain {
        n.to_string()
    } else {
        format!("\"{n}\"")
    }
}

/// Prints an integer expression fully parenthesised so the parser rebuilds
/// the identical tree.
fn int_expr(sys: &System, e: &IntExpr) -> String {
    match e {
        IntExpr::Const(c) => format!("{c}"),
        IntExpr::Var(v) => name(&sys.vars[v.index()].name),
        IntExpr::Add(a, b) => format!("({} + {})", int_expr(sys, a), int_expr(sys, b)),
        IntExpr::Sub(a, b) => format!("({} - {})", int_expr(sys, a), int_expr(sys, b)),
        IntExpr::Mul(a, b) => format!("({} * {})", int_expr(sys, a), int_expr(sys, b)),
        IntExpr::Div(a, b) => format!("({} / {})", int_expr(sys, a), int_expr(sys, b)),
        IntExpr::Neg(a) => format!("-({})", int_expr(sys, a)),
        IntExpr::Ite(c, t, e) => format!(
            "({} ? {} : {})",
            bool_expr(sys, c),
            int_expr(sys, t),
            int_expr(sys, e)
        ),
    }
}

/// Prints a boolean expression fully parenthesised.
fn bool_expr(sys: &System, e: &BoolExpr) -> String {
    match e {
        BoolExpr::Const(true) => "true".to_string(),
        BoolExpr::Const(false) => "false".to_string(),
        BoolExpr::Eq(a, b) => format!("{} == {}", int_expr(sys, a), int_expr(sys, b)),
        BoolExpr::Ne(a, b) => format!("{} != {}", int_expr(sys, a), int_expr(sys, b)),
        BoolExpr::Lt(a, b) => format!("{} < {}", int_expr(sys, a), int_expr(sys, b)),
        BoolExpr::Le(a, b) => format!("{} <= {}", int_expr(sys, a), int_expr(sys, b)),
        BoolExpr::Gt(a, b) => format!("{} > {}", int_expr(sys, a), int_expr(sys, b)),
        BoolExpr::Ge(a, b) => format!("{} >= {}", int_expr(sys, a), int_expr(sys, b)),
        BoolExpr::And(a, b) => format!("({} && {})", bool_expr(sys, a), bool_expr(sys, b)),
        BoolExpr::Or(a, b) => format!("({} || {})", bool_expr(sys, a), bool_expr(sys, b)),
        BoolExpr::Not(a) => format!("!({})", bool_expr(sys, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_system;
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::clockcon::ClockRef;
    use crate::expr::{Update, VarExprExt};
    use crate::ChannelKind;

    /// A system exercising every printable construct.
    fn kitchen_sink() -> System {
        let mut sb = SystemBuilder::new("kitchen sink");
        let x = sb.add_clock("x");
        let y = sb.add_clock("reset"); // keyword collision → quoted
        let n = sb.add_var("n", -2, 9, 1);
        let m = sb.add_var("weird name", 0, 3, 0);
        let h = sb.add_channel("hurry", ChannelKind::Urgent);
        let b = sb.add_channel("notice", ChannelKind::Broadcast);
        let p = sb.add_channel("press", ChannelKind::Binary);

        let mut a = sb.automaton("machine");
        let idle = a.location("idle").add();
        let busy = a
            .location("busy")
            .invariant(x.le(IntExpr::Var(n) + IntExpr::Const(2)))
            .invariant(y.le(10))
            .add();
        let seen = a.location("seen").committed(true).add();
        let urgent = a.location("hand_off").urgent(true).add();
        a.edge(idle, busy)
            .guard(n.gt_(0).and(m.le_(2)))
            .guard_clock(x.ge(1))
            .sync(crate::Sync::send(h))
            .update(Update::assign(
                n,
                IntExpr::Ite(
                    Box::new(n.lt_(0)),
                    Box::new(IntExpr::Var(n)),
                    Box::new(IntExpr::Var(n) - IntExpr::Const(1)),
                ),
            ))
            .reset(x)
            .add();
        a.edge(busy, seen)
            .guard_clock(x.eq_(3))
            .sync(crate::Sync::recv(p))
            .add();
        a.edge(seen, urgent).sync(crate::Sync::send(b)).add();
        a.edge(urgent, idle).reset_to(y, 5).add();
        a.set_initial(idle);
        a.build();

        let mut u = sb.automaton("user");
        let l = u.location("idle").add();
        u.edge(l, l).sync(crate::Sync::send(p)).add();
        u.edge(l, l).sync(crate::Sync::recv(b)).add();
        u.edge(l, l).sync(crate::Sync::recv(h)).add();
        u.set_initial(l);
        u.build();
        sb.build()
    }

    #[test]
    fn printed_form_contains_expected_lines() {
        let sys = kitchen_sink();
        let text = print_system(&sys);
        assert!(text.contains("system \"kitchen sink\""));
        assert!(text.contains("clock \"reset\""));
        assert!(text.contains("var n: int[-2, 9] = 1"));
        assert!(text.contains("var \"weird name\": int[0, 3] = 0"));
        assert!(text.contains("urgent chan hurry"));
        assert!(text.contains("broadcast chan notice"));
        assert!(text.contains("committed location seen"));
        assert!(text.contains("urgent location hand_off"));
        assert!(text.contains("init idle"));
        assert!(text.contains("when x >= 1"));
        assert!(text.contains("sync hurry!"));
        assert!(text.contains("reset \"reset\" = 5"));
    }

    #[test]
    fn print_parse_roundtrip_is_identity() {
        let sys = kitchen_sink();
        let text = print_system(&sys);
        let reparsed = parse_system(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(sys, reparsed);
        // And printing again is a fixed point.
        assert_eq!(text, print_system(&reparsed));
    }

    #[test]
    fn roundtrip_preserves_validation_verdict() {
        let sys = kitchen_sink();
        let reparsed = parse_system(&print_system(&sys)).unwrap();
        assert_eq!(sys.validate().is_ok(), reparsed.validate().is_ok());
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(name("plain_name"), "plain_name");
        assert_eq!(name("guard"), "\"guard\"");
        assert_eq!(name("has space"), "\"has space\"");
        assert_eq!(name("3starts_with_digit"), "\"3starts_with_digit\"");
        assert_eq!(name(""), "\"\"");
    }
}
