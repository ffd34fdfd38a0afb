//! The deterministic event queue: one flat vector kept sorted.
//!
//! # Canonical intra-instant order
//!
//! The queue's contract is *exactly* the comparator [`Event`] defines:
//! earliest time first, then the canonical kind rank
//! ([`EventKind::rank`]), then the canonical tie key
//! ([`EventKind::tie_key`]), then insertion order (`seq`). An instant's
//! processing order is a pure function of the events at it, never of when
//! each was pushed — the property that lets a live session inject
//! arrivals as they are admitted (long after the recurrence would have
//! pushed them) and still replay bit-identically through the batch path
//! (see [`crate::live`]).
//!
//! # Representation: a sorted vector, not a heap
//!
//! A simulation has few pending events at a time — about one arrival per
//! root model, one completion per running gang, the phase starts, the
//! fault boundaries and the end — so the queue keeps them all in one
//! vector sorted **descending** by the canonical order:
//!
//! * a pop is a `Vec::pop` of the next event, and the instant-draining
//!   [`EventQueue::pop_if_at`] is a tail read first;
//! * a push walks back from the tail to its position and inserts there.
//!   Completions land a layer's latency ahead, near the tail, so the
//!   walk is short where pushes are most frequent. It compares times
//!   first and derives the rank and tie key from the kinds only between
//!   events at the same instant;
//! * nothing is pooled or bucketed, and steady state allocates nothing
//!   once the vector has grown to the largest pending count.
//!
//! The comparator stays the *definition* of order; the sorted vector is
//! only a cheaper way to evaluate it. An event pushed at an instant that
//! is already draining (e.g. a stochastic arrival whose successor lands at
//! the same time) is inserted among the unpopped events at its canonical
//! position — precisely what a heap would do, since a heap also orders
//! only the events *currently present*. The property test at the bottom
//! of this file asserts pop-order equivalence against a reference
//! `BinaryHeap` under arbitrary push/pop interleavings, including pushes
//! into the instant being drained and permutations of simultaneous
//! instants.

use std::cmp::Ordering;

use dream_models::{NodeId, PipelineId};

use crate::{SimTime, TaskId};

/// What happens at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A periodic root frame arrives for `(phase, pipeline, node)`.
    FrameArrival {
        phase: usize,
        pipeline: PipelineId,
        node: NodeId,
        frame: u64,
    },
    /// The layer `task` was running finishes (freeing its accelerators).
    LayerDone { task: TaskId },
    /// A workload phase boundary: flush the previous phase's tasks.
    PhaseStart { phase: usize },
    /// End of the simulation horizon.
    End,
    /// Fault `fault` (a [`FaultPlan`](crate::FaultPlan) index) begins:
    /// mask the accelerator, abort on permanent failure, or start a
    /// slowdown window.
    FaultStart { fault: usize },
    /// Windowed fault `fault` ends: unmask the accelerator or retire its
    /// slowdown factor.
    FaultEnd { fault: usize },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl EventKind {
    /// Processing rank among simultaneous events. Phase boundaries apply
    /// first, then the horizon, then completions, then fault boundaries
    /// (ends before starts, so adjacent windows hand off cleanly), then
    /// new arrivals — so an instant's order is a pure function of the
    /// events at it, not of when each was pushed. That independence is
    /// what lets a live session inject arrivals (and faults) as they are
    /// admitted — long after the batch path would have pushed them — and
    /// still replay bit-identically. A layer completing exactly at a fault
    /// boundary therefore completes *before* the fault applies, mirroring
    /// the flush-at-boundary semantics.
    fn rank(&self) -> u8 {
        match self {
            EventKind::PhaseStart { .. } => 0,
            EventKind::End => 1,
            EventKind::LayerDone { .. } => 2,
            EventKind::FaultEnd { .. } => 3,
            EventKind::FaultStart { .. } => 4,
            EventKind::FrameArrival { .. } => 5,
        }
    }

    /// Canonical tie-break within a rank. Arrivals order by model key and
    /// frame; fault boundaries order by plan index (the plan's order *is*
    /// its identity, identical in live and batch runs); completions have
    /// no push-order-free identity, but their pushes happen in dispatch
    /// order, which *is* reproducible, so seq stays their tie-break.
    fn tie_key(&self) -> (usize, usize, usize, u64) {
        match self {
            EventKind::FrameArrival {
                phase,
                pipeline,
                node,
                frame,
            } => (*phase, pipeline.0, node.0, *frame),
            EventKind::PhaseStart { phase } => (*phase, 0, 0, 0),
            EventKind::FaultStart { fault } | EventKind::FaultEnd { fault } => (*fault, 0, 0, 0),
            _ => (0, 0, 0, 0),
        }
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a max-heap: earliest time first, then the canonical
        // kind rank and key, then insertion order. The queue below
        // pops in exactly this order; the impl is kept as the executable
        // definition (and powers the reference heap in the equivalence
        // property test).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.kind.rank().cmp(&self.kind.rank()))
            .then_with(|| other.kind.tie_key().cmp(&self.kind.tie_key()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One pending event. Its canonical intra-instant key — rank, tie key,
/// `seq` — is derived from `kind` and `seq` when two pending events share
/// an instant, which is the only time the queue needs it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Pending {
    /// Whether `self` pops after an event at `time` with kind `kind` and
    /// sequence number `seq`: the reverse of the [`Event`] comparator
    /// order, evaluated without building the canonical key unless the
    /// instants are equal.
    fn pops_after(&self, time: SimTime, kind: &EventKind, seq: u64) -> bool {
        if self.time != time {
            return self.time > time;
        }
        (self.kind.rank(), self.kind.tie_key(), self.seq) > (kind.rank(), kind.tie_key(), seq)
    }
}

/// A deterministic time-ordered event queue: one flat vector kept sorted.
///
/// See the [module docs](self) for the design and the equivalence
/// argument.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Every pending event, sorted **descending** by the canonical order
    /// — the next event is last, so a pop is a `Vec::pop`.
    pending: Vec<Pending>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Everything before the insertion point pops after the new event.
        // `seq` is unique, so no two events tie.
        let at = self
            .pending
            .iter()
            .rposition(|p| p.pops_after(time, &kind, seq))
            .map_or(0, |i| i + 1);
        self.pending.insert(at, Pending { time, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event> {
        let next = self.pending.pop()?;
        Some(Event {
            time: next.time,
            seq: next.seq,
            kind: next.kind,
        })
    }

    /// Pops the next event only if it lies exactly at `time` — the
    /// instant-draining step: a tail read, never a search. (`time` can
    /// only match the earliest pending instant, since the caller just
    /// observed it via [`peek_time`](Self::peek_time).)
    pub fn pop_if_at(&mut self, time: SimTime) -> Option<Event> {
        if self.pending.last()?.time != time {
            return None;
        }
        self.pop()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|p| p.time)
    }

    /// Number of pending (not yet popped) events — the engine's
    /// event-queue pressure, surfaced up through
    /// [`LiveSession::event_queue_depth`](crate::live::LiveSession::event_queue_depth).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_events_order_by_rank_then_key_not_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(100);
        let arrival = |pl: usize, node: usize, frame: u64| EventKind::FrameArrival {
            phase: 0,
            pipeline: PipelineId(pl),
            node: NodeId(node),
            frame,
        };
        // Push in scrambled order: arrivals first, completion last.
        q.push(t, arrival(1, 0, 7));
        q.push(t, arrival(0, 2, 3));
        q.push(t, EventKind::PhaseStart { phase: 1 });
        q.push(t, arrival(0, 0, 4));
        q.push(t, EventKind::LayerDone { task: TaskId(9) });
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop().map(|e| e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PhaseStart { phase: 1 },
                EventKind::LayerDone { task: TaskId(9) },
                arrival(0, 0, 4),
                arrival(0, 2, 3),
                arrival(1, 0, 7),
            ],
            "an instant's order is canonical, not push order"
        );
    }

    #[test]
    fn end_precedes_simultaneous_completions() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.push(t, EventKind::LayerDone { task: TaskId(1) });
        q.push(t, EventKind::End);
        assert_eq!(q.pop().unwrap().kind, EventKind::End);
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::LayerDone { task: TaskId(1) }
        );
    }

    #[test]
    fn fault_boundaries_rank_after_completions_ends_before_starts() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(42);
        // Scrambled push order: starts, arrival, end, completion.
        q.push(t, EventKind::FaultStart { fault: 3 });
        q.push(
            t,
            EventKind::FrameArrival {
                phase: 0,
                pipeline: PipelineId(0),
                node: NodeId(0),
                frame: 0,
            },
        );
        q.push(t, EventKind::FaultStart { fault: 1 });
        q.push(t, EventKind::FaultEnd { fault: 2 });
        q.push(t, EventKind::LayerDone { task: TaskId(5) });
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop().map(|e| e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::LayerDone { task: TaskId(5) },
                EventKind::FaultEnd { fault: 2 },
                EventKind::FaultStart { fault: 1 },
                EventKind::FaultStart { fault: 3 },
                EventKind::FrameArrival {
                    phase: 0,
                    pipeline: PipelineId(0),
                    node: NodeId(0),
                    frame: 0,
                },
            ],
            "completions beat fault boundaries; ends beat starts; starts order by plan index"
        );
    }

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(50), EventKind::End);
        q.push(
            SimTime::from_ns(10),
            EventKind::LayerDone { task: TaskId(1) },
        );
        q.push(
            SimTime::from_ns(10),
            EventKind::LayerDone { task: TaskId(2) },
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(10)));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.kind, EventKind::LayerDone { task: TaskId(1) });
        assert_eq!(b.kind, EventKind::LayerDone { task: TaskId(2) });
        assert_eq!(c.kind, EventKind::End);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_draining_instant_lands_in_canonical_position() {
        // A heap orders only the events currently present; the queue
        // must do the same when an instant gains events mid-drain.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(7);
        q.push(t, EventKind::LayerDone { task: TaskId(3) });
        q.push(
            t,
            EventKind::FrameArrival {
                phase: 0,
                pipeline: PipelineId(1),
                node: NodeId(0),
                frame: 5,
            },
        );
        // Start draining: the completion pops first.
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::LayerDone { task: TaskId(3) }
        );
        // Now a lower-keyed arrival joins the same instant; it must pop
        // before the higher-keyed one that was already pending.
        q.push(
            t,
            EventKind::FrameArrival {
                phase: 0,
                pipeline: PipelineId(0),
                node: NodeId(0),
                frame: 6,
            },
        );
        let next = q.pop().unwrap().kind;
        assert_eq!(
            next,
            EventKind::FrameArrival {
                phase: 0,
                pipeline: PipelineId(0),
                node: NodeId(0),
                frame: 6,
            }
        );
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::FrameArrival {
                pipeline: PipelineId(1),
                ..
            }
        ));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_if_at_only_serves_the_exact_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), EventKind::End);
        assert!(q.pop_if_at(SimTime::from_ns(9)).is_none());
        assert!(q.pop_if_at(SimTime::from_ns(11)).is_none());
        assert_eq!(
            q.pop_if_at(SimTime::from_ns(10)).unwrap().kind,
            EventKind::End
        );
        assert!(q.pop_if_at(SimTime::from_ns(10)).is_none());
    }

    /// The queue-equivalence property — for arbitrary (time, kind,
    /// push-order) sequences with interleaved pops, including pushes into
    /// the instant being drained, the queue pops the identical sequence a
    /// reference `BinaryHeap` under the canonical comparator would,
    /// including permutations of simultaneous instants.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BinaryHeap;

        /// A reference queue: the pre-refactor representation, verbatim.
        #[derive(Default)]
        struct HeapQueue {
            heap: BinaryHeap<Event>,
            next_seq: u64,
        }

        impl HeapQueue {
            fn push(&mut self, time: SimTime, kind: EventKind) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(Event { time, seq, kind });
            }

            fn pop(&mut self) -> Option<Event> {
                self.heap.pop()
            }
        }

        /// Op stream: `pops` events are popped *before* this push (so
        /// drains interleave with pushes mid-instant), then `(time, kind)`
        /// is pushed to both queues — at the instant of the last pop
        /// instead when `at_draining` is set and something was popped, as
        /// an engine handler pushing a same-instant successor does.
        #[derive(Debug, Clone, Copy)]
        struct Op {
            pops: usize,
            time_ns: u64,
            at_draining: bool,
            kind: EventKind,
        }

        fn kind_strategy() -> impl Strategy<Value = EventKind> {
            prop_oneof![
                (0usize..3, 0usize..3, 0usize..3, 0u64..4).prop_map(|(phase, pl, node, frame)| {
                    EventKind::FrameArrival {
                        phase,
                        pipeline: PipelineId(pl),
                        node: NodeId(node),
                        frame,
                    }
                }),
                (0u64..16).prop_map(|t| EventKind::LayerDone { task: TaskId(t) }),
                (0usize..4).prop_map(|phase| EventKind::PhaseStart { phase }),
                Just(EventKind::End),
                (0usize..8).prop_map(|fault| EventKind::FaultStart { fault }),
                (0usize..8).prop_map(|fault| EventKind::FaultEnd { fault }),
            ]
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            // A handful of distinct instants maximises simultaneous-event
            // permutations — the case the canonical order exists for.
            (0usize..3, 0u64..6, any::<bool>(), kind_strategy()).prop_map(
                |(pops, time_ns, at_draining, kind)| Op {
                    pops,
                    time_ns,
                    at_draining,
                    kind,
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn bucket_queue_pops_in_heap_order(
                ops in proptest::collection::vec(op_strategy(), 1..60),
            ) {
                let mut queue = EventQueue::new();
                let mut heap = HeapQueue::default();
                let mut draining: Option<SimTime> = None;
                for op in &ops {
                    for _ in 0..op.pops {
                        let a = queue.pop();
                        let b = heap.pop();
                        prop_assert_eq!(&a, &b, "mid-stream pops must agree");
                        if let Some(event) = a {
                            draining = Some(event.time);
                        }
                    }
                    let t = match draining {
                        Some(now) if op.at_draining => now,
                        _ => SimTime::from_ns(op.time_ns),
                    };
                    queue.push(t, op.kind);
                    heap.push(t, op.kind);
                }
                // Drain both to exhaustion: the full remaining sequences
                // must be identical, event by event (time, seq, and kind).
                loop {
                    let a = queue.pop();
                    let b = heap.pop();
                    prop_assert_eq!(&a, &b, "drain pops must agree");
                    if a.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(queue.len(), 0);
            }
        }
    }
}
