//! Property-based round-trip tests for the `.tta` textual model format:
//! `parse_system(print_system(sys))` must reconstruct a structurally
//! identical [`System`] for arbitrary (well-formed) systems, and printing
//! must be a fixed point.

use proptest::prelude::*;
use tempo_ta::format::{parse_system, print_system};
use tempo_ta::{
    Automaton, BoolExpr, ChannelDecl, ChannelKind, ClockConstraint, ClockDecl, ClockId, Edge,
    IntExpr, LocId, Location, LocationKind, RelOp, Sync, System, Update, VarDecl, VarId,
};

const MAX_CLOCKS: usize = 3;
const MAX_VARS: usize = 3;
const MAX_CHANNELS: usize = 2;

/// Name pools deliberately containing keywords, spaces and digits to exercise
/// the printer's quoting rules.
fn entity_name(prefix: &'static str) -> impl Strategy<Value = String> {
    prop_oneof![
        Just("plain".to_string()),
        Just("guard".to_string()),
        Just("with space".to_string()),
        Just("3digit".to_string()),
        Just("snake_case_name".to_string()),
        "[a-z][a-z0-9_]{0,6}",
    ]
    .prop_map(move |s| format!("{prefix}_{s}"))
}

fn int_expr(num_vars: usize, depth: u32) -> BoxedStrategy<IntExpr> {
    let leaf = if num_vars > 0 {
        prop_oneof![
            (-20i64..200).prop_map(IntExpr::Const),
            (0..num_vars).prop_map(|i| IntExpr::Var(VarId(i as u32))),
        ]
        .boxed()
    } else {
        (-20i64..200).prop_map(IntExpr::Const).boxed()
    };
    leaf.prop_recursive(depth, 16, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Div(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| IntExpr::Neg(Box::new(a))),
            (bool_leaf(num_vars), inner.clone(), inner).prop_map(|(c, t, e)| IntExpr::Ite(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
    .boxed()
}

fn bool_leaf(num_vars: usize) -> BoxedStrategy<BoolExpr> {
    let atom =
        (int_expr(num_vars, 1), int_expr(num_vars, 1), 0..6usize).prop_map(|(a, b, op)| match op {
            0 => BoolExpr::Eq(a, b),
            1 => BoolExpr::Ne(a, b),
            2 => BoolExpr::Lt(a, b),
            3 => BoolExpr::Le(a, b),
            4 => BoolExpr::Gt(a, b),
            _ => BoolExpr::Ge(a, b),
        });
    prop_oneof![
        Just(BoolExpr::Const(true)),
        Just(BoolExpr::Const(false)),
        atom
    ]
    .boxed()
}

fn bool_expr(num_vars: usize) -> BoxedStrategy<BoolExpr> {
    bool_leaf(num_vars)
        .prop_recursive(3, 12, 2, move |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| BoolExpr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| BoolExpr::Or(Box::new(a), Box::new(b))),
                inner.clone().prop_map(|a| BoolExpr::Not(Box::new(a))),
            ]
        })
        .boxed()
}

fn clock_constraint(num_clocks: usize, num_vars: usize) -> BoxedStrategy<ClockConstraint> {
    (
        0..num_clocks,
        prop_oneof![
            Just(RelOp::Lt),
            Just(RelOp::Le),
            Just(RelOp::Eq),
            Just(RelOp::Ge),
            Just(RelOp::Gt)
        ],
        int_expr(num_vars, 1),
    )
        .prop_map(|(c, op, rhs)| ClockConstraint {
            clock: ClockId(c as u32),
            op,
            rhs,
        })
        .boxed()
}

#[derive(Clone, Copy, Debug)]
struct Shape {
    clocks: usize,
    vars: usize,
    channels: usize,
}

fn shape() -> impl Strategy<Value = Shape> {
    (1..=MAX_CLOCKS, 0..=MAX_VARS, 0..=MAX_CHANNELS).prop_map(|(clocks, vars, channels)| Shape {
        clocks,
        vars,
        channels,
    })
}

fn location_proto(num_clocks: usize, num_vars: usize) -> BoxedStrategy<Location> {
    (
        entity_name("loc"),
        prop::collection::vec(clock_constraint(num_clocks, num_vars), 0..3),
        prop_oneof![
            5 => Just(LocationKind::Normal),
            1 => Just(LocationKind::Urgent),
            1 => Just(LocationKind::Committed)
        ],
    )
        .prop_map(move |(name, invariant, kind)| Location {
            name,
            invariant,
            kind,
        })
        .boxed()
}

fn edge(
    num_locs: usize,
    num_clocks: usize,
    num_vars: usize,
    num_channels: usize,
) -> BoxedStrategy<Edge> {
    let sync = if num_channels > 0 {
        prop_oneof![
            2 => Just(Sync::Tau),
            1 => (0..num_channels).prop_map(|c| Sync::Send(tempo_ta::ChannelId(c as u32))),
            1 => (0..num_channels).prop_map(|c| Sync::Recv(tempo_ta::ChannelId(c as u32))),
        ]
        .boxed()
    } else {
        Just(Sync::Tau).boxed()
    };
    let updates = if num_vars > 0 {
        prop::collection::vec(
            (0..num_vars, int_expr(num_vars, 2)).prop_map(|(v, e)| Update {
                var: VarId(v as u32),
                expr: e,
            }),
            0..3,
        )
        .boxed()
    } else {
        Just(Vec::new()).boxed()
    };
    (
        0..num_locs,
        0..num_locs,
        prop_oneof![1 => Just(BoolExpr::Const(true)), 2 => bool_expr(num_vars)],
        prop::collection::vec(clock_constraint(num_clocks, num_vars), 0..3),
        sync,
        updates,
        prop::collection::vec((0..num_clocks, 0i64..10), 0..3),
    )
        .prop_map(
            |(src, dst, guard, clock_guard, sync, updates, resets)| Edge {
                source: LocId(src as u32),
                target: LocId(dst as u32),
                guard,
                clock_guard,
                sync,
                updates,
                resets: resets
                    .into_iter()
                    .map(|(c, v)| (ClockId(c as u32), v))
                    .collect(),
            },
        )
        .boxed()
}

fn automaton(shape: Shape, index: usize) -> BoxedStrategy<Automaton> {
    (
        entity_name("proc"),
        prop::collection::vec(location_proto(shape.clocks, shape.vars), 1..=4),
    )
        .prop_flat_map(move |(name, mut locations)| {
            // Location names must be unique within the automaton.
            for (i, l) in locations.iter_mut().enumerate() {
                l.name = format!("{}_{i}", l.name);
            }
            let num_locs = locations.len();
            (
                Just(name),
                Just(locations),
                prop::collection::vec(
                    edge(num_locs, shape.clocks, shape.vars, shape.channels),
                    0..5,
                ),
                0..num_locs,
            )
        })
        .prop_map(move |(name, locations, edges, initial)| Automaton {
            name: format!("{name}_{index}"),
            locations,
            edges,
            initial: LocId(initial as u32),
        })
        .boxed()
}

fn system() -> impl Strategy<Value = System> {
    shape().prop_flat_map(|sh| {
        let clocks: Vec<ClockDecl> = (0..sh.clocks)
            .map(|i| ClockDecl {
                name: format!("clk_{i}"),
            })
            .collect();
        let channel_kinds = prop::collection::vec(
            prop_oneof![
                Just(ChannelKind::Binary),
                Just(ChannelKind::Urgent),
                Just(ChannelKind::Broadcast)
            ],
            sh.channels,
        );
        let vars = prop::collection::vec((-5i64..5, 0i64..50), sh.vars);
        let automata = (automaton(sh, 0), automaton(sh, 1), 1..=2usize).prop_map(|(a0, a1, n)| {
            if n == 1 {
                vec![a0]
            } else {
                vec![a0, a1]
            }
        });
        (
            Just(clocks),
            vars,
            channel_kinds,
            automata,
            entity_name("sys"),
        )
            .prop_map(
                |(clocks, var_ranges, channel_kinds, automata, name)| System {
                    name,
                    clocks,
                    vars: var_ranges
                        .into_iter()
                        .enumerate()
                        .map(|(i, (min, width))| VarDecl {
                            name: format!("var_{i}"),
                            min,
                            max: min + width,
                            init: min,
                        })
                        .collect(),
                    channels: channel_kinds
                        .into_iter()
                        .enumerate()
                        .map(|(i, kind)| ChannelDecl {
                            name: format!("chan_{i}"),
                            kind,
                        })
                        .collect(),
                    automata,
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The printer/parser pair is the identity on systems.
    #[test]
    fn print_then_parse_is_identity(sys in system()) {
        let text = print_system(&sys);
        let reparsed = parse_system(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- printed ---\n{text}"));
        prop_assert_eq!(&sys, &reparsed, "printed text:\n{}", text);
    }

    /// Printing is a fixed point: print(parse(print(s))) == print(s).
    #[test]
    fn printing_is_a_fixed_point(sys in system()) {
        let text = print_system(&sys);
        let reparsed = parse_system(&text).unwrap();
        prop_assert_eq!(text, print_system(&reparsed));
    }

    /// Any system accepted by the validator stays valid across a round trip.
    #[test]
    fn roundtrip_preserves_validity(sys in system()) {
        let reparsed = parse_system(&print_system(&sys)).unwrap();
        prop_assert_eq!(sys.validate().is_ok(), reparsed.validate().is_ok());
    }
}

/// Deterministic regression inputs that previously required care in the
/// printer (keyword and whitespace names, negative constants, nested
/// ternaries).
#[test]
fn tricky_names_and_expressions_roundtrip() {
    let sys = System {
        name: "edge".into(),
        clocks: vec![ClockDecl {
            name: "when".into(),
        }],
        vars: vec![VarDecl {
            name: "init".into(),
            min: -3,
            max: 3,
            init: -3,
        }],
        channels: vec![ChannelDecl {
            name: "sync chan".into(),
            kind: ChannelKind::Urgent,
        }],
        automata: vec![Automaton {
            name: "automaton".into(),
            locations: vec![
                Location {
                    name: "location".into(),
                    invariant: vec![ClockConstraint {
                        clock: ClockId(0),
                        op: RelOp::Le,
                        rhs: IntExpr::Ite(
                            Box::new(BoolExpr::Lt(IntExpr::Var(VarId(0)), IntExpr::Const(0))),
                            Box::new(IntExpr::Const(7)),
                            Box::new(IntExpr::Neg(Box::new(IntExpr::Var(VarId(0))))),
                        ),
                    }],
                    kind: LocationKind::Normal,
                },
                Location {
                    name: "true".into(),
                    invariant: vec![],
                    kind: LocationKind::Committed,
                },
            ],
            edges: vec![Edge {
                source: LocId(0),
                target: LocId(1),
                guard: BoolExpr::Or(
                    Box::new(BoolExpr::Const(false)),
                    Box::new(BoolExpr::Not(Box::new(BoolExpr::Ge(
                        IntExpr::Var(VarId(0)),
                        IntExpr::Const(-2),
                    )))),
                ),
                clock_guard: vec![ClockConstraint {
                    clock: ClockId(0),
                    op: RelOp::Gt,
                    rhs: IntExpr::Const(0),
                }],
                sync: Sync::Send(tempo_ta::ChannelId(0)),
                updates: vec![Update {
                    var: VarId(0),
                    expr: IntExpr::Const(-1),
                }],
                resets: vec![(ClockId(0), 2)],
            }],
            initial: LocId(0),
        }],
    };
    let text = print_system(&sys);
    let reparsed = parse_system(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(sys, reparsed);
}
