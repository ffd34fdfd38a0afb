use std::collections::VecDeque;

use dream_cost::AcceleratorId;
use dream_models::{ExitPoint, SkipBlock, VariantId};

use crate::fold::canonical_sum;
use crate::scheduler::Gang;
use crate::workload::{gate_probability, LayerId, ModelKey, NodeInfo, WorkloadSet};
use crate::SimTime;

/// Unique identifier of an inference task (one model × one frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Execution state of a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for its next layer to be dispatched.
    Ready,
    /// Its current layer is executing on the given accelerator(s).
    Running(Gang),
}

/// One layer still to execute, in queue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedLayer {
    /// Global layer id (cost-table key).
    pub layer: LayerId,
    /// Index of the layer within its variant graph (gate coordinate space).
    pub graph_idx: usize,
}

/// An active inference request: the paper's `tsk`, with its remaining-layer
/// queue (`Q_task`), timing contract, and unresolved dynamic gates.
#[derive(Debug, Clone)]
pub struct Task {
    id: TaskId,
    key: ModelKey,
    /// The dense model index of `key` (see [`Task::model_index`]).
    model_index: usize,
    variant: VariantId,
    frame: u64,
    frame_arrival: SimTime,
    released: SimTime,
    deadline: SimTime,
    counted: bool,
    state: TaskState,
    remaining: VecDeque<QueuedLayer>,
    pending_skips: Vec<SkipBlock>,
    pending_exits: Vec<ExitPoint>,
    last_completion: SimTime,
    executed_layers: u32,
    energy_pj: f64,
    /// The last `(ToGo, minimum_to_go)` served, until the next queue or
    /// gate mutation: a task read several times per decision (frame
    /// drop, score build, supernet load) and across decisions while it
    /// waits reads its plan's table once.
    to_go_sums: std::cell::Cell<Option<(f64, f64)>>,
}

/// `deadline - now` in nanoseconds as an `f64` (see [`Task::slack_ns`]).
fn slack_from(deadline: SimTime, now: SimTime) -> f64 {
    match deadline.as_ns().checked_sub(now.as_ns()) {
        Some(ahead) => ahead as f64,
        None => -((now.as_ns() - deadline.as_ns()) as f64),
    }
}

impl Task {
    pub(crate) fn new(
        id: TaskId,
        node: &NodeInfo,
        frame: u64,
        frame_arrival: SimTime,
        released: SimTime,
        deadline: SimTime,
        counted: bool,
    ) -> Self {
        let mut task = Task {
            id,
            key: node.key(),
            model_index: node.index,
            variant: VariantId(0),
            frame,
            frame_arrival,
            released,
            deadline,
            counted,
            state: TaskState::Ready,
            remaining: VecDeque::new(),
            pending_skips: Vec::new(),
            pending_exits: Vec::new(),
            last_completion: released,
            executed_layers: 0,
            energy_pj: 0.0,
            to_go_sums: std::cell::Cell::new(None),
        };
        // Delegate to reinit so a fresh task and a recycled shell run the
        // identical initialisation (and float-op) sequence.
        task.reinit(id, node, frame, frame_arrival, released, deadline, counted);
        task
    }

    /// Reinitialises a retired task shell in place for a new release —
    /// field-for-field what [`Task::new`] produces, but reusing the
    /// shell's queue and gate buffers so steady-state task release
    /// allocates nothing (the engine pools shells of finished, flushed,
    /// and dropped tasks).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reinit(
        &mut self,
        id: TaskId,
        node: &NodeInfo,
        frame: u64,
        frame_arrival: SimTime,
        released: SimTime,
        deadline: SimTime,
        counted: bool,
    ) {
        let variant = VariantId(0);
        let plan = node.variant(variant);
        self.id = id;
        self.key = node.key();
        self.model_index = node.index;
        self.variant = variant;
        self.frame = frame;
        self.frame_arrival = frame_arrival;
        self.released = released;
        self.deadline = deadline;
        self.counted = counted;
        self.state = TaskState::Ready;
        self.remaining.clear();
        self.remaining.extend(
            plan.layers
                .iter()
                .enumerate()
                .map(|(graph_idx, &layer)| QueuedLayer { layer, graph_idx }),
        );
        self.pending_skips.clear();
        self.pending_skips.extend_from_slice(&plan.skip_blocks);
        self.pending_exits.clear();
        self.pending_exits.extend_from_slice(&plan.exit_points);
        self.last_completion = released;
        self.executed_layers = 0;
        self.energy_pj = 0.0;
        self.invalidate_to_go();
    }

    /// Forgets the served remaining-work pair after a queue or gate
    /// mutation; the next read takes it from the plan's table again.
    /// This is the *only* per-mutation cost — the engine's event loop
    /// never walks tables or sums.
    fn invalidate_to_go(&mut self) {
        self.to_go_sums.set(None);
    }

    /// The canonical `ToGo(tsk)` walk: `Σ p(layer) · avg_lat(layer)` over
    /// the remaining queue, left to right. Table reads serve exactly
    /// this sum's bits.
    fn compute_to_go_avg(&self, ws: &WorkloadSet) -> f64 {
        canonical_sum(
            self.remaining
                .iter()
                .map(|q| self.layer_probability(q.graph_idx) * ws.avg_latency_ns(q.layer)),
        )
    }

    fn compute_min_to_go(&self, ws: &WorkloadSet) -> f64 {
        canonical_sum(
            self.remaining
                .iter()
                .filter(|q| self.layer_probability(q.graph_idx) >= 1.0)
                .map(|q| ws.min_latency_ns(q.layer)),
        )
    }

    /// Unique id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Which deployed model this task is an inference of.
    pub fn key(&self) -> ModelKey {
        self.key
    }

    /// The dense model index of [`key`](Self::key) in the workload the
    /// task was released from: `ws.node_at(task.model_index())` is its
    /// node without a key lookup. Workload extensions (live swaps) are
    /// prefix-stable, so the index stays valid in every later workload of
    /// the same session.
    pub fn model_index(&self) -> usize {
        self.model_index
    }

    /// The variant currently selected (always 0 unless a scheduler switched
    /// a supernet task).
    pub fn variant(&self) -> VariantId {
        self.variant
    }

    /// Frame index within its pipeline stream.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Arrival time of the originating (root) frame.
    pub fn frame_arrival(&self) -> SimTime {
        self.frame_arrival
    }

    /// When this task became ready (for roots: frame arrival; for cascade
    /// children: the parent's completion).
    pub fn released(&self) -> SimTime {
        self.released
    }

    /// Absolute deadline.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// Whether this frame counts toward metrics (false for frames whose
    /// deadline falls outside the measurement horizon).
    pub fn counted(&self) -> bool {
        self.counted
    }

    /// Current execution state.
    pub fn state(&self) -> &TaskState {
        &self.state
    }

    /// Whether the task is waiting for dispatch.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, TaskState::Ready)
    }

    /// Remaining layers, head first (`Q_task`).
    pub fn remaining(&self) -> impl ExactSizeIterator<Item = &QueuedLayer> {
        self.remaining.iter()
    }

    /// The head of the queue — Algorithm 1's `NextLayer(tsk)`.
    pub fn next_layer(&self) -> Option<QueuedLayer> {
        self.remaining.front().copied()
    }

    /// Completion time of the lastly scheduled layer (the paper's
    /// `Tcmpl`), initialised to the release time.
    pub fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// Number of layers already executed.
    pub fn executed_layers(&self) -> u32 {
        self.executed_layers
    }

    /// Whether any layer has executed (variant switches are only legal
    /// before this point).
    pub fn started(&self) -> bool {
        self.executed_layers > 0
    }

    /// Energy charged to this task so far (pJ).
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Probability that the remaining layer at `graph_idx` actually
    /// executes, given the gates still unresolved. Resolved gates no longer
    /// contribute — this is the *conditional* execution probability the
    /// paper's "constrained dynamicity" exposes to the scheduler.
    pub fn layer_probability(&self, graph_idx: usize) -> f64 {
        gate_probability(&self.pending_skips, &self.pending_exits, graph_idx)
    }

    /// The graph index `h` such that the queue is exactly the current
    /// variant's layers from `h` on (the plan's length for an empty
    /// queue), or `None` when it is not such a suffix. Every task the
    /// engine runs is one (see the `VariantPlan` invariant); the check is
    /// a length comparison, because the queue is always an in-order
    /// subsequence of the plan. Remaining-work tables indexed by `h`
    /// (per model index and variant) serve exactly such queues.
    pub fn plan_suffix(&self, ws: &WorkloadSet) -> Option<usize> {
        debug_assert_eq!(ws.model_index(self.key), Some(self.model_index));
        let len = ws
            .node_at(self.model_index)
            .variant(self.variant)
            .layers
            .len();
        let h = self.remaining.front().map_or(len, |q| q.graph_idx);
        (self.remaining.len() == len - h).then_some(h)
    }

    /// Serves the `(ToGo, minimum_to_go)` pair: the last pair served
    /// while no queue or gate mutation has happened since, else a fresh
    /// read.
    ///
    /// A fresh read takes the pair from the variant's suffix table
    /// (`VariantPlan::to_go_at`), keyed by the head's graph index and
    /// the pending gates covering the queue. A queue that is not a plan
    /// suffix, or gates the table does not cover, fall back to the
    /// reference walks ([`Task::compute_to_go_avg`] /
    /// [`Task::compute_min_to_go`]); the engine never produces either.
    /// A table entry repeats the walks' operations exactly, so either
    /// read is bit-identical to a fresh walk — the debug asserts in the
    /// public accessors and the `to_go_equivalence` tests pin that down.
    fn to_go_pair(&self, ws: &WorkloadSet) -> (f64, f64) {
        if let Some(sums) = self.to_go_sums.get() {
            return sums;
        }
        let sums = self
            .table_to_go_pair(ws)
            .unwrap_or_else(|| (self.compute_to_go_avg(ws), self.compute_min_to_go(ws)));
        self.to_go_sums.set(Some(sums));
        sums
    }

    /// The suffix-table read behind [`to_go_pair`](Self::to_go_pair), or
    /// `None` where the table does not apply.
    fn table_to_go_pair(&self, ws: &WorkloadSet) -> Option<(f64, f64)> {
        let h = self.plan_suffix(ws)?;
        let plan = ws.node_at(self.model_index).variant(self.variant);
        plan.to_go_at(ws, h, &self.pending_skips, &self.pending_exits)
    }

    /// The latency of the remaining layers on `acc`, summed left to right
    /// over the workload's offline latency table: Planaria's
    /// single-accelerator completion estimate. A queue that is a plan
    /// suffix (every task the engine runs) reads it from the plan's
    /// per-accelerator suffix table, bit-identical to the walk; any other
    /// queue walks.
    pub fn remaining_latency_ns(&self, ws: &WorkloadSet, acc: AcceleratorId) -> f64 {
        match self.plan_suffix(ws) {
            Some(h) => ws
                .node_at(self.model_index)
                .variant(self.variant)
                .latency_at(ws, h, acc),
            None => canonical_sum(self.remaining.iter().map(|q| ws.latency_ns(q.layer, acc))),
        }
    }

    /// Expected remaining work using the across-accelerator *average*
    /// latency per layer — Algorithm 1 line 2's `ToGo(tsk)`, extended with
    /// execution probabilities for dynamic layers. Read from the plan's
    /// suffix table at the first read after a queue/gate mutation —
    /// bit-identical to a fresh walk — then served as is until the next
    /// mutation.
    pub fn to_go_avg_ns(&self, ws: &WorkloadSet) -> f64 {
        let served = self.to_go_pair(ws).0;
        debug_assert_eq!(
            served.to_bits(),
            self.compute_to_go_avg(ws).to_bits(),
            "cached ToGo diverged from a fresh walk on {}",
            self.id
        );
        served
    }

    /// Best-case remaining work: only layers certain to execute, each on its
    /// best-latency accelerator, no context switches — the smart frame
    /// drop's `minimum_to_go` (§4.2.1). Cached like
    /// [`to_go_avg_ns`](Self::to_go_avg_ns).
    pub fn min_to_go_ns(&self, ws: &WorkloadSet) -> f64 {
        let served = self.to_go_pair(ws).1;
        debug_assert_eq!(
            served.to_bits(),
            self.compute_min_to_go(ws).to_bits(),
            "cached minimum_to_go diverged from a fresh walk on {}",
            self.id
        );
        served
    }

    /// Worst-case remaining work: every remaining layer on the
    /// across-accelerator average (all gates assumed not taken).
    pub fn worst_to_go_ns(&self, ws: &WorkloadSet) -> f64 {
        canonical_sum(self.remaining.iter().map(|q| ws.avg_latency_ns(q.layer)))
    }

    /// Remaining time to the deadline (the paper's `Slack`), negative if
    /// already past due.
    ///
    /// Bit-identical to `deadline.signed_delta_ns(now) as f64` without
    /// the 128-bit conversion: the magnitude always fits a `u64`, and
    /// round-to-nearest is symmetric under negation.
    pub fn slack_ns(&self, now: SimTime) -> f64 {
        slack_from(self.deadline, now)
    }

    /// Whether the queue is exhausted.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }

    // ---- engine-side mutators (crate-private) ----

    pub(crate) fn set_running(&mut self, accs: impl Into<Gang>) {
        debug_assert!(self.is_ready(), "dispatching a non-ready task");
        self.state = TaskState::Running(accs.into());
    }

    /// Moves the gang out of a running task — its layer just finished,
    /// or an accelerator failure aborted it — and leaves the task `Ready`.
    /// An abort executed nothing: the queue, the gates and the served
    /// remaining work stay as they were.
    pub(crate) fn take_gang(&mut self) -> Gang {
        match std::mem::replace(&mut self.state, TaskState::Ready) {
            TaskState::Running(gang) => gang,
            TaskState::Ready => unreachable!("taking the gang of a task that is not running"),
        }
    }

    /// Pops the completed head layer, charging energy and stamping `Tcmpl`.
    pub(crate) fn complete_head(&mut self, now: SimTime, energy_pj: f64) -> QueuedLayer {
        let head = self
            .remaining
            .pop_front()
            .expect("completing a layer on an empty queue");
        self.state = TaskState::Ready;
        self.last_completion = now;
        self.executed_layers += 1;
        self.energy_pj += energy_pj;
        self.invalidate_to_go();
        head
    }

    /// Resolves a skip decision for the block starting at `first`:
    /// removes the block's layers when `skip` is true. The gate is dropped
    /// from the pending set either way, and any exit points strictly inside
    /// a skipped span vanish with it.
    pub(crate) fn resolve_skip(&mut self, first: usize, skip: bool) {
        let Some(pos) = self.pending_skips.iter().position(|b| b.first == first) else {
            return;
        };
        let blk = self.pending_skips.remove(pos);
        if skip {
            self.remaining
                .retain(|q| q.graph_idx < blk.first || q.graph_idx > blk.last);
            self.pending_exits
                .retain(|e| e.after < blk.first || e.after > blk.last);
        }
        self.invalidate_to_go();
    }

    /// Resolves an exit decision at `after`: when taken, the rest of the
    /// queue is discarded (successful early completion).
    pub(crate) fn resolve_exit(&mut self, after: usize, exit: bool) {
        let Some(pos) = self.pending_exits.iter().position(|e| e.after == after) else {
            return;
        };
        self.pending_exits.remove(pos);
        if exit {
            self.remaining.clear();
            self.pending_skips.clear();
            self.pending_exits.clear();
        }
        self.invalidate_to_go();
    }

    /// Replaces the remaining queue with another variant's layers. Only
    /// legal before any layer has executed.
    pub(crate) fn switch_variant(&mut self, node: &NodeInfo, variant: VariantId) -> bool {
        if self.started() || variant.0 >= node.variant_count() {
            return false;
        }
        let plan = node.variant(variant);
        self.variant = variant;
        self.remaining.clear();
        self.remaining.extend(
            plan.layers
                .iter()
                .enumerate()
                .map(|(graph_idx, &layer)| QueuedLayer { layer, graph_idx }),
        );
        self.pending_skips.clear();
        self.pending_skips.extend_from_slice(&plan.skip_blocks);
        self.pending_exits.clear();
        self.pending_exits.extend_from_slice(&plan.exit_points);
        self.invalidate_to_go();
        true
    }

    pub(crate) fn pending_skip_starting_at(&self, first: usize) -> Option<SkipBlock> {
        self.pending_skips
            .iter()
            .find(|b| b.first == first)
            .copied()
    }

    pub(crate) fn pending_exit_after(&self, after: usize) -> Option<ExitPoint> {
        self.pending_exits
            .iter()
            .find(|e| e.after == after)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, WorkloadSet};
    use crate::Millis;
    use dream_cost::{CostModel, Platform, PlatformPreset};
    use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};

    fn ar_call_ws() -> WorkloadSet {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        WorkloadSet::build(
            vec![Phase {
                start: SimTime::ZERO,
                end: SimTime::from(Millis::new(1000)),
                scenario: Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
            }],
            &platform,
            &CostModel::paper_default(),
        )
        .unwrap()
    }

    fn skipnet_task(ws: &WorkloadSet) -> Task {
        let key = ModelKey {
            phase: 0,
            pipeline: PipelineId(1),
            node: NodeId(0),
        };
        Task::new(
            TaskId(1),
            ws.node(key),
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from(Millis::new(33)),
            true,
        )
    }

    #[test]
    fn new_task_queues_all_layers() {
        let ws = ar_call_ws();
        let t = skipnet_task(&ws);
        assert_eq!(
            t.remaining().len(),
            ws.node(t.key()).variant_layers(VariantId(0)).len()
        );
        assert!(t.is_ready());
        assert!(!t.started());
        assert_eq!(t.next_layer().unwrap().graph_idx, 0);
    }

    #[test]
    fn to_go_accounts_for_skip_probabilities() {
        let ws = ar_call_ws();
        let t = skipnet_task(&ws);
        let expected = t.to_go_avg_ns(&ws);
        let worst = t.worst_to_go_ns(&ws);
        assert!(expected < worst, "expected {expected} worst {worst}");
        let min = t.min_to_go_ns(&ws);
        assert!(min < expected, "min {min} expected {expected}");
        assert!(min > 0.0);
    }

    #[test]
    fn skip_resolution_removes_block() {
        let ws = ar_call_ws();
        let mut t = skipnet_task(&ws);
        let blk = t.pending_skips[0];
        let before = t.remaining().len();
        t.resolve_skip(blk.first, true);
        let after = t.remaining().len();
        assert_eq!(before - after, blk.last - blk.first + 1);
        // Resolving again is a no-op.
        t.resolve_skip(blk.first, true);
        assert_eq!(t.remaining().len(), after);
    }

    #[test]
    fn no_skip_resolution_sets_probability_to_one() {
        let ws = ar_call_ws();
        let mut t = skipnet_task(&ws);
        let blk = t.pending_skips[0];
        assert!(t.layer_probability(blk.first) < 1.0);
        t.resolve_skip(blk.first, false);
        assert_eq!(t.layer_probability(blk.first), 1.0);
        assert_eq!(
            t.remaining().len(),
            ws.node(t.key()).variant_layers(VariantId(0)).len()
        );
    }

    #[test]
    fn exit_resolution_clears_queue() {
        let ws = ar_call_ws();
        // RAPID-RL lives in Drone_Indoor; emulate with a manual exit on the
        // SkipNet task by resolving a synthetic exit: use resolve_exit on a
        // pending one — SkipNet has none, so this is a no-op.
        let mut t = skipnet_task(&ws);
        t.resolve_exit(3, true);
        assert!(!t.is_complete(), "no-op on models without exits");
    }

    #[test]
    fn complete_head_advances_queue_and_energy() {
        let ws = ar_call_ws();
        let mut t = skipnet_task(&ws);
        let now = SimTime::from_ns(500);
        t.set_running(vec![dream_cost::AcceleratorId(0)]);
        let head = t.complete_head(now, 42.0);
        assert_eq!(head.graph_idx, 0);
        assert_eq!(t.last_completion(), now);
        assert_eq!(t.energy_pj(), 42.0);
        assert!(t.started());
        assert!(t.is_ready());
    }

    #[test]
    fn abort_running_requeues_without_charging() {
        let ws = ar_call_ws();
        let mut t = skipnet_task(&ws);
        let before = t.to_go_avg_ns(&ws);
        t.set_running(vec![dream_cost::AcceleratorId(0)]);
        t.take_gang();
        assert!(t.is_ready());
        assert!(!t.started(), "an aborted layer never executed");
        assert_eq!(t.energy_pj(), 0.0);
        assert_eq!(
            t.remaining().len(),
            ws.node(t.key()).variant_layers(VariantId(0)).len()
        );
        // The remaining work reads the identical bits.
        assert_eq!(t.to_go_avg_ns(&ws).to_bits(), before.to_bits());
    }

    #[test]
    fn variant_switch_only_before_start() {
        // Use a supernet-bearing workload: VR_Gaming context node.
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let ws = WorkloadSet::build(
            vec![Phase {
                start: SimTime::ZERO,
                end: SimTime::from(Millis::new(1000)),
                scenario: Scenario::new(
                    ScenarioKind::VrGaming,
                    CascadeProbability::default_paper(),
                ),
            }],
            &platform,
            &CostModel::paper_default(),
        )
        .unwrap();
        let ofa_key = ws
            .nodes()
            .find(|n| n.is_supernet())
            .expect("VR_Gaming contains the OFA supernet")
            .key();
        let node = ws.node(ofa_key);
        let mut t = Task::new(
            TaskId(9),
            node,
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from(Millis::new(33)),
            true,
        );
        let full = t.remaining().len();
        assert!(t.switch_variant(node, VariantId(3)));
        assert!(t.remaining().len() < full);
        assert_eq!(t.variant(), VariantId(3));
        // Out-of-range variant rejected.
        assert!(!t.switch_variant(node, VariantId(9)));
        // After execution starts, switching is rejected.
        t.set_running(vec![dream_cost::AcceleratorId(0)]);
        t.complete_head(SimTime::from_ns(10), 1.0);
        assert!(!t.switch_variant(node, VariantId(0)));
    }

    #[test]
    fn slack_goes_negative_past_deadline() {
        let ws = ar_call_ws();
        let t = skipnet_task(&ws);
        assert!(t.slack_ns(SimTime::ZERO) > 0.0);
        assert!(t.slack_ns(SimTime::from(Millis::new(50))) < 0.0);
    }

    /// Every remaining-work read against the reference walks, bit for
    /// bit, over random lifecycles of every variant of every scenario
    /// model, driven in the engine's order (complete the head, draw the
    /// exit after it, then the skip gate of the block that follows).
    /// Every such read must come from the plan's suffix table, and the
    /// queue must be the plan's layers from the head on. Unlike the
    /// accessors' debug asserts, this runs in release builds too:
    /// `cargo test --release -p dream-sim --lib to_go_equivalence`.
    mod to_go_equivalence {
        use super::*;
        use crate::determ::DeterministicCoin;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn every_scenario_ws() -> &'static WorkloadSet {
            static WS: OnceLock<WorkloadSet> = OnceLock::new();
            WS.get_or_init(|| {
                let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
                let ms = |v: usize| SimTime::from(Millis::new(1000 * v as u64));
                let phases = ScenarioKind::all()
                    .into_iter()
                    .enumerate()
                    .map(|(i, kind)| Phase {
                        start: ms(i),
                        end: ms(i + 1),
                        scenario: Scenario::new(kind, CascadeProbability::default_paper()),
                    })
                    .collect();
                WorkloadSet::build(phases, &platform, &CostModel::paper_default()).unwrap()
            })
        }

        /// What the reads covered, so the tests can insist on each case.
        #[derive(Default)]
        struct Coverage {
            reads: u64,
            gated_reads: u64,
            orphan_reads: u64,
            skips_taken: u64,
            exits_taken: u64,
            aborts: u64,
            switches: u64,
            reinits: u64,
        }

        /// One read of every remaining-work term against its walk, with
        /// the invariants the suffix tables rest on: the queue is a plan
        /// suffix and, once the gates its completed layers revealed are
        /// drawn (`settled`, the only state a scheduler sees), the table
        /// serves it.
        fn check(t: &Task, ws: &WorkloadSet, cov: &mut Coverage, settled: bool) {
            let plan = ws.node(t.key()).variant(t.variant());
            let what = || {
                format!(
                    "{} variant {:?} after {} layers",
                    t.key(),
                    t.variant(),
                    t.executed_layers
                )
            };
            let h = t
                .plan_suffix(ws)
                .unwrap_or_else(|| panic!("queue of {} is not a plan suffix", what()));
            let queue: Vec<QueuedLayer> = t.remaining().copied().collect();
            let suffix: Vec<QueuedLayer> = plan.layers[h..]
                .iter()
                .enumerate()
                .map(|(i, &layer)| QueuedLayer {
                    layer,
                    graph_idx: h + i,
                })
                .collect();
            assert_eq!(queue, suffix, "queue of {}", what());
            let table = match t.table_to_go_pair(ws) {
                Some(table) => table,
                None if !settled => (t.compute_to_go_avg(ws), t.compute_min_to_go(ws)),
                None => panic!("the table does not serve {}", what()),
            };
            cov.reads += 1;
            cov.gated_reads +=
                u64::from(!t.pending_skips.is_empty() || !t.pending_exits.is_empty());
            cov.orphan_reads +=
                u64::from(t.pending_skips.iter().any(|b| b.first <= h && h <= b.last));
            assert_eq!(
                table.0.to_bits(),
                t.compute_to_go_avg(ws).to_bits(),
                "ToGo of {}",
                what()
            );
            assert_eq!(
                table.1.to_bits(),
                t.compute_min_to_go(ws).to_bits(),
                "minimum_to_go of {}",
                what()
            );
            assert_eq!(
                t.to_go_avg_ns(ws).to_bits(),
                table.0.to_bits(),
                "served ToGo of {}",
                what()
            );
            assert_eq!(
                t.min_to_go_ns(ws).to_bits(),
                table.1.to_bits(),
                "served minimum_to_go of {}",
                what()
            );
            for acc in 0..ws.acc_count() {
                let acc = dream_cost::AcceleratorId(acc);
                let walk = canonical_sum(t.remaining().map(|q| ws.latency_ns(q.layer, acc)));
                assert_eq!(
                    t.remaining_latency_ns(ws, acc).to_bits(),
                    walk.to_bits(),
                    "latency of {} on {acc:?}",
                    what()
                );
            }
        }

        /// Runs one task of `node`'s `variant` to completion in the
        /// engine's order, each gate, abort and read decided by `coin`,
        /// checking every read. Returns the finished shell for reuse.
        fn lifecycle(
            ws: &WorkloadSet,
            node: &NodeInfo,
            variant: usize,
            shell: Option<Task>,
            id: u64,
            coin: &mut dyn FnMut(u64) -> f64,
            cov: &mut Coverage,
        ) -> Task {
            let deadline = SimTime::from(Millis::new(33));
            let mut t = match shell {
                Some(mut shell) => {
                    cov.reinits += 1;
                    shell.reinit(
                        TaskId(id),
                        node,
                        0,
                        SimTime::ZERO,
                        SimTime::ZERO,
                        deadline,
                        true,
                    );
                    shell
                }
                None => Task::new(
                    TaskId(id),
                    node,
                    0,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    deadline,
                    true,
                ),
            };
            check(&t, ws, cov, true);
            if variant != 0 {
                assert!(t.switch_variant(node, VariantId(variant)));
                cov.switches += 1;
                check(&t, ws, cov, true);
            }
            assert_eq!(
                node.variant_to_go_ns(VariantId(variant), ws).to_bits(),
                t.compute_to_go_avg(ws).to_bits(),
                "fresh ToGo of {} variant {variant}",
                node.key()
            );
            let mut step = 0u64;
            let mut aborted = false;
            while !t.is_complete() {
                step += 4;
                t.set_running(vec![dream_cost::AcceleratorId(0)]);
                // At most one abort in a row, so any coin sequence ends.
                aborted = !aborted && coin(step) < 0.15;
                if aborted {
                    t.take_gang();
                    cov.aborts += 1;
                    check(&t, ws, cov, true);
                    continue;
                }
                let head = t.complete_head(SimTime::from_ns(step), 1.0);
                // Some mutations go unread, so a later read follows more
                // than one of them.
                if coin(step + 1) < 0.7 {
                    check(&t, ws, cov, false);
                }
                let g = head.graph_idx;
                if t.pending_exit_after(g).is_some() {
                    let take = coin(step + 2) < 0.5;
                    cov.exits_taken += u64::from(take);
                    t.resolve_exit(g, take);
                    check(&t, ws, cov, true);
                }
                if !t.is_complete() && t.pending_skip_starting_at(g + 1).is_some() {
                    let skip = coin(step + 3) < 0.5;
                    cov.skips_taken += u64::from(skip);
                    t.resolve_skip(g + 1, skip);
                    check(&t, ws, cov, true);
                }
            }
            check(&t, ws, cov, true);
            t
        }

        #[test]
        fn every_read_matches_the_reference_walks() {
            let ws = every_scenario_ws();
            let coin = DeterministicCoin::new(0x70_60);
            let mut cov = Coverage::default();
            let mut pooled: Option<Task> = None;
            let mut id = 0u64;
            for node in ws.nodes() {
                for v in 0..node.variant_count() {
                    for trial in 0..6u64 {
                        id += 1;
                        let mut draw = |gate: u64| coin.uniform(v, trial as usize, id, gate);
                        pooled = Some(lifecycle(
                            ws,
                            node,
                            v,
                            pooled.take(),
                            id,
                            &mut draw,
                            &mut cov,
                        ));
                    }
                }
            }
            assert!(cov.reads > 0 && cov.gated_reads > 0 && cov.orphan_reads > 0);
            assert!(cov.skips_taken > 0 && cov.exits_taken > 0 && cov.aborts > 0);
            assert!(cov.switches > 0 && cov.reinits > 0);
        }

        /// With every skip coin taken, a block that directly follows a
        /// skipped block never has its gate drawn: the table's orphan
        /// entries serve it for the rest of the task.
        #[test]
        fn orphaned_skip_blocks_are_served_from_the_table() {
            let ws = every_scenario_ws();
            let mut cov = Coverage::default();
            let mut id = 0u64;
            for node in ws.nodes() {
                for v in 0..node.variant_count() {
                    id += 1;
                    // No abort, every read, every exit and skip taken.
                    let mut draw = |gate: u64| if gate.is_multiple_of(4) { 1.0 } else { 0.0 };
                    lifecycle(ws, node, v, None, id, &mut draw, &mut cov);
                }
            }
            assert!(cov.orphan_reads > 0, "every-skip runs must orphan a block");
        }

        /// Gates resolved out of the engine's order leave queues or gate
        /// sets the table does not cover; those reads walk, and still
        /// match.
        #[test]
        fn reads_outside_the_engine_order_walk() {
            let ws = every_scenario_ws();
            let fresh = |node: &NodeInfo| {
                let deadline = SimTime::from(Millis::new(33));
                Task::new(
                    TaskId(1),
                    node,
                    0,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    deadline,
                    true,
                )
            };
            let (mut skips, mut exits) = (0, 0);
            for node in ws.nodes() {
                let plan = node.variant(VariantId(0));
                let mut early: Vec<(Task, bool)> = Vec::new();
                if let Some(&last) = plan.skip_blocks.last() {
                    for skip in [false, true] {
                        let mut t = fresh(node);
                        t.resolve_skip(last.first, skip);
                        early.push((t, !skip));
                        skips += 1;
                    }
                }
                if let Some(&last) = plan.exit_points.last() {
                    let mut t = fresh(node);
                    t.resolve_exit(last.after, false);
                    early.push((t, true));
                    exits += 1;
                }
                for (t, suffix) in early {
                    assert!(t.table_to_go_pair(ws).is_none(), "{}", node.key());
                    assert_eq!(t.plan_suffix(ws).is_some(), suffix);
                    assert_eq!(
                        t.to_go_avg_ns(ws).to_bits(),
                        t.compute_to_go_avg(ws).to_bits()
                    );
                    assert_eq!(
                        t.min_to_go_ns(ws).to_bits(),
                        t.compute_min_to_go(ws).to_bits()
                    );
                    let acc = dream_cost::AcceleratorId(1);
                    let walk = canonical_sum(t.remaining().map(|q| ws.latency_ns(q.layer, acc)));
                    assert_eq!(t.remaining_latency_ns(ws, acc).to_bits(), walk.to_bits());
                }
            }
            assert!(
                skips > 0 && exits > 0,
                "skip and exit plans must both be covered"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random gate, abort and read coins on every gated and
            /// supernet plan of the five scenarios.
            #[test]
            fn table_reads_match_the_walks_under_random_gate_coins(
                coins in proptest::collection::vec(any::<u8>(), 1..64),
            ) {
                let ws = every_scenario_ws();
                let mut cov = Coverage::default();
                let mut pooled: Option<Task> = None;
                let mut id = 0u64;
                for node in ws.nodes() {
                    for v in 0..node.variant_count() {
                        let plan = node.variant(VariantId(v));
                        if plan.skip_blocks.is_empty() && plan.exit_points.is_empty() && !node.is_supernet() {
                            continue;
                        }
                        id += 1;
                        let mut draw = |gate: u64| {
                            let at = (gate as usize + id as usize) % coins.len();
                            f64::from(coins[at]) / 256.0
                        };
                        pooled = Some(lifecycle(ws, node, v, pooled.take(), id, &mut draw, &mut cov));
                    }
                }
                prop_assert!(cov.gated_reads > 0 && cov.switches > 0);
            }
        }
    }

    /// `slack_from` against the 128-bit expression it replaces, bit for
    /// bit: the sign of zero, rounding above 2^53, and both extremes.
    mod slack {
        use super::*;
        use proptest::prelude::*;

        fn reference(deadline: u64, now: u64) -> f64 {
            SimTime::from_ns(deadline).signed_delta_ns(SimTime::from_ns(now)) as f64
        }

        fn assert_same(deadline: u64, now: u64) {
            let got = slack_from(SimTime::from_ns(deadline), SimTime::from_ns(now));
            assert_eq!(
                got.to_bits(),
                reference(deadline, now).to_bits(),
                "deadline {deadline}, now {now}"
            );
        }

        #[test]
        fn boundaries_match_the_wide_expression() {
            let edges = [
                0,
                1,
                2,
                (1 << 53) - 1,
                1 << 53,
                (1 << 53) + 1,
                (1 << 53) + 3,
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ];
            for &a in &edges {
                for &b in &edges {
                    assert_same(a, b);
                }
            }
            assert_eq!(
                slack_from(SimTime::ZERO, SimTime::ZERO).to_bits(),
                0.0f64.to_bits()
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn matches_the_wide_expression(deadline in any::<u64>(), now in any::<u64>()) {
                let got = slack_from(SimTime::from_ns(deadline), SimTime::from_ns(now));
                prop_assert_eq!(got.to_bits(), reference(deadline, now).to_bits());
            }

            #[test]
            fn matches_near_equal_times(at in any::<u64>(), delta in 0u64..4096) {
                for (deadline, now) in [
                    (at, at.saturating_add(delta)),
                    (at.saturating_add(delta), at),
                    (at, at),
                ] {
                    let got = slack_from(SimTime::from_ns(deadline), SimTime::from_ns(now));
                    prop_assert_eq!(got.to_bits(), reference(deadline, now).to_bits());
                }
            }
        }
    }
}
