//! Generators of live-session input sequences, shared by the property
//! tests that drive `LiveSession::apply`.
//!
//! A sequence is a list of [`Op`]s: one [`SessionInput`] each, or a step
//! of the closed frontier. An input's stamp is drawn symbolically
//! ([`Stamp`]) and resolved against the session when it is applied, so a
//! sequence can aim at instants only the session knows: the next legal
//! stamp, or the current phase's start (a swap boundary once a swap
//! landed). Besides single random ops, [`op_sequence`] mixes in runs of
//! traffic and short bursts of the hard cases: stamps in the past and on
//! a boundary, admits after a drain, a swap at a phase instant, a fault
//! on an already-failed accelerator, and overlapping stalls.

use dream_cost::AcceleratorId;
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_sim::{FaultEvent, FaultKind, LiveSession, SessionInput, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

/// Virtual instants the generators draw from, in ns. Sessions under test
/// should cap their horizon inside it, so stamps past the horizon occur.
pub const SPAN_NS: u64 = 300_000_000;

/// An input's stamp, resolved when the input is applied.
#[derive(Debug, Clone, Copy)]
pub enum Stamp {
    /// An absolute instant — often already in the past.
    At(u64),
    /// The session's next legal stamp.
    Next,
    /// The current phase's start: 0, or the latest swap's boundary.
    PhaseStart,
}

impl Stamp {
    fn resolve(self, session: &LiveSession) -> SimTime {
        match self {
            Stamp::At(ns) => SimTime::from_ns(ns),
            Stamp::Next => session.next_stamp(),
            Stamp::PhaseStart => session.workload().phases()[session.current_phase()].start(),
        }
    }
}

/// One step of a sequence.
#[derive(Debug, Clone)]
pub enum Op {
    /// Admit a request for `(pipeline, node)`; not always a current root.
    Admit {
        /// Pipeline index.
        pipeline: usize,
        /// Node index.
        node: usize,
        /// When.
        stamp: Stamp,
    },
    /// Inject a fault; the accelerator may lie past the platform.
    Fault {
        /// Accelerator index.
        acc: usize,
        /// What goes wrong.
        kind: FaultKind,
        /// When.
        stamp: Stamp,
    },
    /// Swap to a scenario.
    Swap {
        /// The scenario's kind.
        kind: ScenarioKind,
        /// When.
        stamp: Stamp,
    },
    /// Drain.
    Drain {
        /// When.
        stamp: Stamp,
    },
    /// Step the closed frontier this many ns past the next legal stamp.
    Step(u64),
}

impl Op {
    /// The input this op applies to `session`, or `None` for a step.
    pub fn input(&self, session: &LiveSession) -> Option<SessionInput> {
        Some(match *self {
            Op::Admit {
                pipeline,
                node,
                stamp,
            } => SessionInput::Admit {
                pipeline: PipelineId(pipeline),
                node: NodeId(node),
                at: stamp.resolve(session),
            },
            Op::Fault { acc, kind, stamp } => SessionInput::Fault(Box::new(FaultEvent {
                at: stamp.resolve(session),
                acc: AcceleratorId(acc),
                kind,
            })),
            Op::Swap { kind, stamp } => SessionInput::Swap {
                at: stamp.resolve(session),
                scenario: Box::new(Scenario::new(kind, CascadeProbability::default_paper())),
            },
            Op::Drain { stamp } => SessionInput::Drain {
                at: stamp.resolve(session),
            },
            Op::Step(_) => return None,
        })
    }

    /// The frontier a step op advances `session` to.
    pub fn frontier(&self, session: &LiveSession) -> Option<SimTime> {
        match *self {
            Op::Step(ns) => Some(session.next_stamp() + SimTime::from_ns(ns)),
            _ => None,
        }
    }
}

/// Stamps: mostly absolute instants, sometimes the next legal stamp or
/// the current phase's start.
pub fn stamp() -> impl Strategy<Value = Stamp> {
    prop_oneof![
        (0..SPAN_NS).prop_map(Stamp::At),
        (0..SPAN_NS).prop_map(Stamp::At),
        Just(Stamp::Next),
        Just(Stamp::PhaseStart),
    ]
}

/// Fault kinds, including sub-unity slowdown factors and zero-length
/// windows the session refuses. The zero-length windows get arms of their
/// own: a duration range starting at 0 would almost never draw 0.
pub fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Fail),
        Just(FaultKind::Stall {
            duration: SimTime::ZERO,
        }),
        Just(FaultKind::Slowdown {
            factor: 2.0,
            duration: SimTime::ZERO,
        }),
        (1..60_000_000u64).prop_map(|ns| FaultKind::Stall {
            duration: SimTime::from_ns(ns),
        }),
        (0.5f64..4.0, 1..60_000_000u64).prop_map(|(factor, ns)| FaultKind::Slowdown {
            factor,
            duration: SimTime::from_ns(ns),
        }),
    ]
}

/// Scenario kinds a swap may target.
pub fn scenario_kind() -> impl Strategy<Value = ScenarioKind> {
    (0..ScenarioKind::all().len()).prop_map(|i| ScenarioKind::all()[i])
}

/// One random op. Admissions dominate, as in served traffic; pipeline
/// and node indices run past every scenario's roots.
pub fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..4usize, 0..3usize, stamp()).prop_map(|(pipeline, node, stamp)| Op::Admit {
            pipeline,
            node,
            stamp,
        }),
        (0..4usize, 0..2usize, stamp()).prop_map(|(pipeline, node, stamp)| Op::Admit {
            pipeline,
            node,
            stamp,
        }),
        (0..5usize, fault_kind(), stamp()).prop_map(|(acc, kind, stamp)| Op::Fault {
            acc,
            kind,
            stamp,
        }),
        (scenario_kind(), stamp()).prop_map(|(kind, stamp)| Op::Swap { kind, stamp }),
        (0..20_000_000u64).prop_map(Op::Step),
        (0..20_000_000u64).prop_map(Op::Step),
    ]
}

/// A short burst exercising one hard case.
pub fn hard_case() -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![
        // A fault on an already-failed accelerator.
        (0..3usize, stamp(), stamp()).prop_map(|(acc, a, b)| vec![
            Op::Fault {
                acc,
                kind: FaultKind::Fail,
                stamp: a,
            },
            Op::Step(1_000_000),
            Op::Fault {
                acc,
                kind: FaultKind::Fail,
                stamp: b,
            },
        ]),
        // Overlapping stalls on one accelerator.
        (0..3usize, 1..40_000_000u64, 1..40_000_000u64).prop_map(|(acc, d1, d2)| vec![
            Op::Fault {
                acc,
                kind: FaultKind::Stall {
                    duration: SimTime::from_ns(d1),
                },
                stamp: Stamp::Next,
            },
            Op::Fault {
                acc,
                kind: FaultKind::Stall {
                    duration: SimTime::from_ns(d2),
                },
                stamp: Stamp::Next,
            },
        ]),
        // A swap, then another swap and an admission at its boundary.
        (scenario_kind(), scenario_kind(), 0..2usize).prop_map(|(a, b, pipeline)| vec![
            Op::Swap {
                kind: a,
                stamp: Stamp::Next,
            },
            Op::Swap {
                kind: b,
                stamp: Stamp::PhaseStart,
            },
            Op::Admit {
                pipeline,
                node: 0,
                stamp: Stamp::PhaseStart,
            },
        ]),
        // A stamp in the past.
        (0..2usize).prop_map(|pipeline| vec![
            Op::Step(5_000_000),
            Op::Admit {
                pipeline,
                node: 0,
                stamp: Stamp::At(0),
            },
        ]),
        // Admits after a drain.
        (stamp(), 0..2usize).prop_map(|(stamp, pipeline)| vec![
            Op::Drain { stamp },
            Op::Admit {
                pipeline,
                node: 0,
                stamp: Stamp::Next,
            },
            Op::Swap {
                kind: ScenarioKind::VrGaming,
                stamp: Stamp::Next,
            },
        ]),
    ]
}

/// A run of admissions to one root, 1.5 ms apart from a random instant:
/// enough load that faults strike accelerators with work on them.
pub fn traffic() -> impl Strategy<Value = Vec<Op>> {
    (0..2usize, 0..SPAN_NS, 4..16u64).prop_map(|(pipeline, start, n)| {
        (0..n)
            .map(|i| Op::Admit {
                pipeline,
                node: 0,
                stamp: Stamp::At(start + i * 1_500_000),
            })
            .collect()
    })
}

/// A whole sequence: random ops with traffic and hard-case bursts mixed
/// in.
pub fn op_sequence() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            op().prop_map(|op| vec![op]),
            op().prop_map(|op| vec![op]),
            op().prop_map(|op| vec![op]),
            traffic(),
            hard_case(),
        ],
        4..24,
    )
    .prop_map(|bursts| bursts.into_iter().flatten().collect())
}
