use std::collections::VecDeque;

use dream_models::{ExitPoint, SkipBlock, VariantId};

use crate::fold::canonical_sum;
use crate::scheduler::Gang;
use crate::workload::{LayerId, ModelKey, NodeInfo, WorkloadSet};
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

/// One remaining layer's contribution to the cached remaining-work terms,
/// aligned with the task's queue. Products are frozen against a gate set
/// (they only depend on gate state and the offline tables), so serving a
/// read after a head completion just re-sums the tail instead of
/// re-walking gates and tables.
#[derive(Debug, Clone, Copy)]
struct ToGoContrib {
    /// `layer_probability(graph_idx) · avg_latency_ns(layer)`.
    avg: f64,
    /// `min_latency_ns(layer)` when the layer is certain to execute
    /// (`probability ≥ 1`), else `-0.0`: adding `-0.0` leaves every `f64`
    /// unchanged, bit for bit (`+0.0 + -0.0` is `+0.0`), so the fold adds
    /// every entry and still equals the walk that skips uncertain layers.
    min: f64,
}

/// Lazily maintained per-layer products behind [`Task::to_go_avg_ns`]
/// and [`Task::min_to_go_ns`] for tasks off the suffix-table fast path.
/// Mutations only *invalidate* (a head pop additionally drops the head's
/// frozen product — no float ops); the first read after a mutation
/// repairs exactly the stale level: a gate change re-freezes the
/// products (`O(layers · gates)`), a head pop just re-folds the unchanged
/// tail (`O(layers)` additions). Schedulers that never read the terms —
/// and the engine's own event loop — pay nothing.
#[derive(Debug, Clone)]
struct ToGoCache {
    /// Frozen per-layer products, aligned with `remaining` while
    /// `products_valid`.
    contrib: VecDeque<ToGoContrib>,
    /// Whether `contrib` reflects the current gate set and queue.
    products_valid: bool,
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
    /// Lazy remaining-work cache (see [`ToGoCache`]). Interior mutability
    /// lets shared-view readers (the scheduler's `&Task`) repair it; the
    /// borrow never escapes a single accessor call.
    to_go: std::cell::RefCell<ToGoCache>,
    /// The last `(ToGo, minimum_to_go)` served, until the next queue or
    /// gate mutation: a task read several times per decision (frame
    /// drop, score build, supernet load) and across decisions while it
    /// waits folds once.
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
    // Crate-internal constructor with one caller per release path; the
    // timing contract reads better flat than behind a params struct.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: TaskId,
        node: &NodeInfo,
        frame: u64,
        frame_arrival: SimTime,
        released: SimTime,
        deadline: SimTime,
        counted: bool,
        ws: &WorkloadSet,
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
            to_go: std::cell::RefCell::new(ToGoCache {
                contrib: VecDeque::new(),
                products_valid: false,
            }),
            to_go_sums: std::cell::Cell::new(None),
        };
        // Delegate to reinit so a fresh task and a recycled shell run the
        // identical initialisation (and float-op) sequence.
        task.reinit(
            id,
            node,
            frame,
            frame_arrival,
            released,
            deadline,
            counted,
            ws,
        );
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
        ws: &WorkloadSet,
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
        let _ = ws;
    }

    /// Marks the remaining-work cache wholly stale after a gate-set or
    /// queue-replacement mutation: the frozen products no longer match,
    /// so the next read re-freezes them before re-folding. Invalidation
    /// is the *only* per-mutation cost — the engine's event loop never
    /// walks tables or sums.
    fn invalidate_to_go(&mut self) {
        self.to_go.get_mut().products_valid = false;
        self.to_go_sums.set(None);
    }

    /// The canonical `ToGo(tsk)` walk: `Σ p(layer) · avg_lat(layer)` over
    /// the remaining queue, left to right. Cached reads serve exactly
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
        let mut p = 1.0;
        for blk in &self.pending_skips {
            if graph_idx >= blk.first && graph_idx <= blk.last {
                p *= 1.0 - blk.p_skip;
            }
        }
        for exit in &self.pending_exits {
            if graph_idx > exit.after {
                p *= 1.0 - exit.p_exit;
            }
        }
        p
    }

    /// Serves the `(ToGo, minimum_to_go)` pair: the last pair served
    /// while no queue or gate mutation has happened since, else a fresh
    /// read.
    ///
    /// A task with no gate pending whose queue is still the tail of its
    /// variant's layers (no skip removed any) reads it in O(1) from the
    /// variant's suffix table (`VariantPlan::suffix_to_go`).
    /// Any other task is served from the lazy cache, repairing exactly
    /// the stale level first (see [`ToGoCache`]). The re-freeze and the
    /// `-0.0`-seeded left-to-right fold repeat byte-for-byte the
    /// operations of the reference `.sum()` walks
    /// ([`Task::compute_to_go_avg`] / [`Task::compute_min_to_go`]), so
    /// either read is bit-identical to a fresh walk — the debug asserts
    /// in the public accessors and the `to_go_equivalence` tests pin that
    /// down.
    fn to_go_pair(&self, ws: &WorkloadSet) -> (f64, f64) {
        if let Some(sums) = self.to_go_sums.get() {
            return sums;
        }
        let sums = self.fold_to_go_pair(ws);
        self.to_go_sums.set(Some(sums));
        sums
    }

    /// The uncached read behind [`to_go_pair`](Self::to_go_pair).
    // detlint: canonical-fold -- interleaved avg/min fold over cached contribs; replays the reference canonical_sum walks bit-for-bit (pinned by the to_go_equivalence tests)
    fn fold_to_go_pair(&self, ws: &WorkloadSet) -> (f64, f64) {
        if self.pending_skips.is_empty() && self.pending_exits.is_empty() {
            debug_assert_eq!(ws.model_index(self.key), Some(self.model_index));
            let plan = ws.node_at(self.model_index).variant(self.variant);
            let executed = self.executed_layers as usize;
            if executed + self.remaining.len() == plan.layers.len() {
                return plan.suffix_to_go(ws)[executed];
            }
        }
        let mut cache = self.to_go.borrow_mut();
        if !cache.products_valid {
            cache.contrib.clear();
            for q in &self.remaining {
                let p = self.layer_probability(q.graph_idx);
                cache.contrib.push_back(ToGoContrib {
                    avg: p * ws.avg_latency_ns(q.layer),
                    min: if p >= 1.0 {
                        ws.min_latency_ns(q.layer)
                    } else {
                        -0.0
                    },
                });
            }
            cache.products_valid = true;
        }
        // -0.0 is `<f64 as Sum>`'s fold identity; starting from +0.0
        // would flip empty sums to +0.0 and break bit-identity with the
        // reference `.sum()` walks.
        let mut avg = -0.0f64;
        let mut min = -0.0f64;
        for c in &cache.contrib {
            avg += c.avg;
            min += c.min;
        }
        (avg, min)
    }

    /// Expected remaining work using the across-accelerator *average*
    /// latency per layer — Algorithm 1 line 2's `ToGo(tsk)`, extended with
    /// execution probabilities for dynamic layers. Computed lazily at the
    /// first read after a queue/gate mutation — bit-identical to a fresh
    /// walk, since queue and gates are unchanged between mutation and
    /// read — then O(1) until the next mutation.
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

    /// Moves the gang out of a running task — its layer just finished —
    /// and leaves the task `Ready`.
    pub(crate) fn take_gang(&mut self) -> Gang {
        match std::mem::replace(&mut self.state, TaskState::Ready) {
            TaskState::Running(gang) => gang,
            TaskState::Ready => unreachable!("taking the gang of a task that is not running"),
        }
    }

    /// Reverts a running task to ready without completing its head layer —
    /// the dispatch was aborted by an accelerator failure. Nothing was
    /// executed, so no energy is charged and `Tcmpl` keeps its previous
    /// stamp; the remaining-work cache is invalidated through the same
    /// lazy seam a gate mutation uses, so the next scheduler read repairs
    /// it from the unchanged queue.
    pub(crate) fn abort_running(&mut self) {
        debug_assert!(
            matches!(self.state, TaskState::Running(_)),
            "aborting a task that is not running"
        );
        self.state = TaskState::Ready;
        self.invalidate_to_go();
    }

    /// Pops the completed head layer, charging energy and stamping `Tcmpl`.
    pub(crate) fn complete_head(
        &mut self,
        now: SimTime,
        energy_pj: f64,
        ws: &WorkloadSet,
    ) -> QueuedLayer {
        let head = self
            .remaining
            .pop_front()
            .expect("completing a layer on an empty queue");
        self.state = TaskState::Ready;
        self.last_completion = now;
        self.executed_layers += 1;
        self.energy_pj += energy_pj;
        // Gates are untouched by a head pop, so any frozen products stay
        // valid for the tail — drop the head's and mark only the sums
        // stale (re-folded at the next read, not here).
        let cache = self.to_go.get_mut();
        if cache.products_valid {
            cache
                .contrib
                .pop_front()
                .expect("contributions stay aligned with the queue");
        }
        self.to_go_sums.set(None);
        let _ = ws;
        head
    }

    /// Resolves a skip decision for the block starting at `first`:
    /// removes the block's layers when `skip` is true. The gate is dropped
    /// from the pending set either way, and any exit points strictly inside
    /// a skipped span vanish with it.
    pub(crate) fn resolve_skip(&mut self, first: usize, skip: bool, ws: &WorkloadSet) {
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
        let _ = ws;
    }

    /// Resolves an exit decision at `after`: when taken, the rest of the
    /// queue is discarded (successful early completion).
    pub(crate) fn resolve_exit(&mut self, after: usize, exit: bool, ws: &WorkloadSet) {
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
        let _ = ws;
    }

    /// Replaces the remaining queue with another variant's layers. Only
    /// legal before any layer has executed.
    pub(crate) fn switch_variant(
        &mut self,
        node: &NodeInfo,
        variant: VariantId,
        ws: &WorkloadSet,
    ) -> bool {
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
        let _ = ws;
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
            ws,
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
        t.resolve_skip(blk.first, true, &ws);
        let after = t.remaining().len();
        assert_eq!(before - after, blk.last - blk.first + 1);
        // Resolving again is a no-op.
        t.resolve_skip(blk.first, true, &ws);
        assert_eq!(t.remaining().len(), after);
    }

    #[test]
    fn no_skip_resolution_sets_probability_to_one() {
        let ws = ar_call_ws();
        let mut t = skipnet_task(&ws);
        let blk = t.pending_skips[0];
        assert!(t.layer_probability(blk.first) < 1.0);
        t.resolve_skip(blk.first, false, &ws);
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
        t.resolve_exit(3, true, &ws);
        assert!(!t.is_complete(), "no-op on models without exits");
    }

    #[test]
    fn complete_head_advances_queue_and_energy() {
        let ws = ar_call_ws();
        let mut t = skipnet_task(&ws);
        let now = SimTime::from_ns(500);
        t.set_running(vec![dream_cost::AcceleratorId(0)]);
        let head = t.complete_head(now, 42.0, &ws);
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
        t.abort_running();
        assert!(t.is_ready());
        assert!(!t.started(), "an aborted layer never executed");
        assert_eq!(t.energy_pj(), 0.0);
        assert_eq!(
            t.remaining().len(),
            ws.node(t.key()).variant_layers(VariantId(0)).len()
        );
        // The invalidated cache repairs to the identical bits.
        assert_eq!(t.to_go_avg_ns(&ws).to_bits(), before.to_bits());
    }

    #[test]
    fn variant_switch_only_before_start() {
        let ws = ar_call_ws();
        // Use a supernet-bearing workload: VR_Gaming context node.
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let ws2 = WorkloadSet::build(
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
        let ofa_key = ws2
            .nodes()
            .find(|n| n.is_supernet())
            .expect("VR_Gaming contains the OFA supernet")
            .key();
        let node = ws2.node(ofa_key);
        let mut t = Task::new(
            TaskId(9),
            node,
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from(Millis::new(33)),
            true,
            &ws2,
        );
        let full = t.remaining().len();
        assert!(t.switch_variant(node, VariantId(3), &ws2));
        assert!(t.remaining().len() < full);
        assert_eq!(t.variant(), VariantId(3));
        // Out-of-range variant rejected.
        assert!(!t.switch_variant(node, VariantId(9), &ws2));
        // After execution starts, switching is rejected.
        t.set_running(vec![dream_cost::AcceleratorId(0)]);
        t.complete_head(SimTime::from_ns(10), 1.0, &ws2);
        assert!(!t.switch_variant(node, VariantId(0), &ws2));
        let _ = ws;
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
    /// model. Unlike the accessors' debug asserts, this runs in release
    /// builds too: `cargo test --release -p dream-sim to_go_equivalence`.
    mod to_go_equivalence {
        use super::*;
        use crate::determ::DeterministicCoin;

        fn every_scenario_ws() -> WorkloadSet {
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
        }

        /// What the reads covered, so the test can insist on both paths.
        #[derive(Default)]
        struct Coverage {
            suffix_reads: u64,
            cache_reads: u64,
            skips_taken: u64,
            exits_taken: u64,
            aborts: u64,
            switches: u64,
            reinits: u64,
        }

        fn check(t: &Task, ws: &WorkloadSet, cov: &mut Coverage) {
            let plan = ws.node(t.key()).variant(t.variant());
            let suffix = t.pending_skips.is_empty()
                && t.pending_exits.is_empty()
                && t.executed_layers as usize + t.remaining.len() == plan.layers.len();
            if suffix {
                cov.suffix_reads += 1;
            } else {
                cov.cache_reads += 1;
            }
            assert_eq!(
                t.to_go_avg_ns(ws).to_bits(),
                t.compute_to_go_avg(ws).to_bits(),
                "ToGo of {} variant {:?} after {} layers",
                t.key(),
                t.variant(),
                t.executed_layers
            );
            assert_eq!(
                t.min_to_go_ns(ws).to_bits(),
                t.compute_min_to_go(ws).to_bits(),
                "minimum_to_go of {} variant {:?} after {} layers",
                t.key(),
                t.variant(),
                t.executed_layers
            );
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
                        let draw = |gate: u64| coin.uniform(v, trial as usize, id, gate);
                        let deadline = SimTime::from(Millis::new(33));
                        let mut t = match pooled.take() {
                            Some(mut shell) => {
                                cov.reinits += 1;
                                shell.reinit(
                                    TaskId(id),
                                    node,
                                    trial,
                                    SimTime::ZERO,
                                    SimTime::ZERO,
                                    deadline,
                                    true,
                                    &ws,
                                );
                                shell
                            }
                            None => Task::new(
                                TaskId(id),
                                node,
                                trial,
                                SimTime::ZERO,
                                SimTime::ZERO,
                                deadline,
                                true,
                                &ws,
                            ),
                        };
                        check(&t, &ws, &mut cov);
                        if v != 0 {
                            assert!(t.switch_variant(node, VariantId(v), &ws));
                            cov.switches += 1;
                            check(&t, &ws, &mut cov);
                        }
                        let mut step = 0u64;
                        while !t.is_complete() {
                            step += 4;
                            t.set_running(vec![dream_cost::AcceleratorId(0)]);
                            if draw(step) < 0.15 {
                                t.abort_running();
                                cov.aborts += 1;
                                check(&t, &ws, &mut cov);
                                continue;
                            }
                            let head = t.complete_head(SimTime::from_ns(step), 1.0, &ws);
                            // Some mutations go unread, so a later read
                            // repairs more than one stale level at once.
                            if draw(step + 1) < 0.7 {
                                check(&t, &ws, &mut cov);
                            }
                            let g = head.graph_idx;
                            if t.pending_exit_after(g).is_some() {
                                let take = draw(step + 2) < 0.5;
                                cov.exits_taken += u64::from(take);
                                t.resolve_exit(g, take, &ws);
                                check(&t, &ws, &mut cov);
                            }
                            if !t.is_complete() && t.pending_skip_starting_at(g + 1).is_some() {
                                let skip = draw(step + 3) < 0.5;
                                cov.skips_taken += u64::from(skip);
                                t.resolve_skip(g + 1, skip, &ws);
                                check(&t, &ws, &mut cov);
                            }
                        }
                        check(&t, &ws, &mut cov);
                        pooled = Some(t);
                    }
                }
            }
            assert!(cov.suffix_reads > 0 && cov.cache_reads > 0);
            assert!(
                cov.skips_taken > 0,
                "a taken skip must reach the cache path"
            );
            assert!(cov.exits_taken > 0 && cov.aborts > 0);
            assert!(cov.switches > 0 && cov.reinits > 0);
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
