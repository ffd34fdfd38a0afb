use dream_cost::{AcceleratorId, CostBackend, Platform};
use dream_models::VariantId;

use crate::task::{Task, TaskId};
use crate::workload::{ModelKey, WorkloadSet};
use crate::SimTime;

/// Runtime state of one sub-accelerator, as visible to schedulers
/// (the paper's "accelerator availability info", Figure 4).
#[derive(Debug, Clone)]
pub struct AccState {
    pub(crate) id: AcceleratorId,
    pub(crate) busy_until: SimTime,
    pub(crate) running: Option<TaskId>,
    pub(crate) last_task: Option<TaskId>,
    pub(crate) last_model: Option<ModelKey>,
    pub(crate) last_output_bytes: u64,
    pub(crate) busy_ns: u64,
}

impl AccState {
    pub(crate) fn new(id: AcceleratorId) -> Self {
        AccState {
            id,
            busy_until: SimTime::ZERO,
            running: None,
            last_task: None,
            last_model: None,
            last_output_bytes: 0,
            busy_ns: 0,
        }
    }

    /// The accelerator's id.
    pub fn id(&self) -> AcceleratorId {
        self.id
    }

    /// Whether the accelerator can accept a new layer right now.
    pub fn is_idle(&self) -> bool {
        self.running.is_none()
    }

    /// When the current layer finishes (meaningless when idle).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The task whose layer is currently executing, if any.
    pub fn running(&self) -> Option<TaskId> {
        self.running
    }

    /// The task that last executed a layer here — Algorithm 1's
    /// `acc.prevTask`, the context-switch reference.
    pub fn last_task(&self) -> Option<TaskId> {
        self.last_task
    }

    /// The model of the task that last executed here.
    pub fn last_model(&self) -> Option<ModelKey> {
        self.last_model
    }

    /// Output-activation bytes of the last layer executed here — the flush
    /// volume a context switch would pay.
    pub fn last_output_bytes(&self) -> u64 {
        self.last_output_bytes
    }

    /// Cumulative busy time (utilisation accounting).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// The accelerators one dispatch runs on. A gang of one is stored
/// inline, so the common single-accelerator dispatch allocates nothing;
/// only a multi-member gang owns a `Vec`.
///
/// A gang reads as a slice (`Deref<Target = [AcceleratorId]>`) and
/// compares by its members, so `One([a]) == Many(vec![a])`.
#[derive(Debug, Clone, Eq)]
pub enum Gang {
    /// A single accelerator, held inline.
    One([AcceleratorId; 1]),
    /// Any number of accelerators (a Planaria-style gang when more than
    /// one).
    Many(Vec<AcceleratorId>),
}

impl std::ops::Deref for Gang {
    type Target = [AcceleratorId];

    fn deref(&self) -> &[AcceleratorId] {
        match self {
            Gang::One(one) => one,
            Gang::Many(many) => many,
        }
    }
}

impl PartialEq for Gang {
    fn eq(&self, other: &Gang) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<AcceleratorId>> for Gang {
    fn eq(&self, other: &Vec<AcceleratorId>) -> bool {
        **self == **other
    }
}

impl From<Vec<AcceleratorId>> for Gang {
    fn from(accs: Vec<AcceleratorId>) -> Self {
        Gang::Many(accs)
    }
}

/// One dispatch: run `task`'s head layer on `accs` (more than one
/// accelerator = a Planaria-style gang; the engine merges their resources
/// and applies the fission overhead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The task whose head layer is dispatched.
    pub task: TaskId,
    /// Target accelerator(s); all must currently be idle.
    pub accs: Gang,
}

impl Assignment {
    /// A single-accelerator assignment.
    pub fn single(task: TaskId, acc: AcceleratorId) -> Self {
        Assignment {
            task,
            accs: Gang::One([acc]),
        }
    }
}

/// The scheduler's output for one invocation (the paper's "scheduling
/// decision", Figure 4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decision {
    /// Layer → accelerator dispatches to apply now.
    pub assignments: Vec<Assignment>,
    /// Ready tasks to drop (smart frame drop; counted as deadline
    /// violations per §4.2.1).
    pub drops: Vec<TaskId>,
    /// Supernet variant selections, legal only before a task's first layer
    /// executes.
    pub variant_switches: Vec<(TaskId, VariantId)>,
}

impl Decision {
    /// A decision that does nothing (wait for the next event).
    pub fn none() -> Self {
        Decision::default()
    }

    /// Whether the decision carries no actions.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty() && self.drops.is_empty() && self.variant_switches.is_empty()
    }

    /// Takes the buffers of `spare` (typically the decision a scheduler
    /// got back through [`Scheduler::recycle`]) for a new decision:
    /// emptied, with their capacity kept, so filling it allocates nothing
    /// once the capacity suffices. `spare` is left as an empty default.
    pub fn reuse(spare: &mut Decision) -> Decision {
        let mut decision = std::mem::take(spare);
        decision.assignments.clear();
        decision.drops.clear();
        decision.variant_switches.clear();
        decision
    }
}

/// Which RTMM challenges a scheduler addresses — the axes of the paper's
/// Table 1 and Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerCapabilities {
    /// Handles cascaded models (inter-model dependencies).
    pub cascade: bool,
    /// Handles concurrent pipelines.
    pub concurrent: bool,
    /// Deadline aware.
    pub realtime: bool,
    /// Adapts to task-level workload changes.
    pub task_dynamicity: bool,
    /// Adapts to model/operator-level dynamicity.
    pub model_dynamicity: bool,
    /// Optimises energy.
    pub energy_aware: bool,
    /// Exploits hardware heterogeneity.
    pub heterogeneity_aware: bool,
}

/// A notification delivered to the scheduler after task lifecycle events —
/// the feedback stream DREAM's adaptivity engine consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEvent {
    /// Simulation time of the event.
    pub now: SimTime,
    /// The affected task.
    pub task: TaskId,
    /// The affected model.
    pub key: ModelKey,
    /// Whether the frame counts toward metrics.
    pub counted: bool,
    /// What happened.
    pub kind: TaskEventKind,
}

/// The kind of task lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskEventKind {
    /// A new inference request entered the queues.
    Released,
    /// The inference completed; `on_time` is false for deadline violations.
    Completed {
        /// Whether the deadline was met.
        on_time: bool,
        /// Total energy the inference consumed (pJ).
        energy_pj: f64,
        /// Worst-case per-frame energy of its model (pJ), for normalisation.
        worst_energy_pj: f64,
    },
    /// The frame was dropped by the scheduler (counts as a violation).
    Dropped,
    /// The frame was flushed by a workload phase change (not counted).
    Flushed,
}

/// An immutable, *borrowed* view of the system a scheduler decides over.
///
/// The engine maintains the slab-backed task arena incrementally as
/// events apply and lends it out here per decision, with the two short
/// lists it brings up to date just before: the ready tasks (ids and
/// slots, so iterating them needs no lookup) and the idle accelerators.
/// Nothing else is reconstructed per decision, which is what keeps the
/// paper's per-event scheduling loop cheap (§5.2's overhead claim).
///
/// Indexed accessors ([`SystemView::task`], [`SystemView::ready_ids`],
/// [`SystemView::idle_ids`], [`SystemView::acc`]) resolve in O(log n) or
/// O(1); the iterators walk the live set ascending by [`TaskId`] so every
/// scheduler observes the same deterministic order.
#[derive(Debug)]
pub struct SystemView<'a> {
    pub(crate) now: SimTime,
    pub(crate) phase: usize,
    pub(crate) accs: &'a [AccState],
    pub(crate) arena: &'a crate::engine::arena::TaskArena,
    pub(crate) idle: &'a [AcceleratorId],
    pub(crate) workload: &'a WorkloadSet,
    pub(crate) cost: &'a dyn CostBackend,
    pub(crate) platform: &'a Platform,
    /// Whether the engine's flight recorder wants
    /// [`DecisionRecord`](dream_trace::DecisionRecord)s for this
    /// invocation (see [`Scheduler::take_decision_records`]).
    pub(crate) record_decisions: bool,
}

impl<'a> SystemView<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current workload phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// All sub-accelerators, ascending by id.
    pub fn accs(&self) -> &'a [AccState] {
        self.accs
    }

    /// One sub-accelerator's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an accelerator of this platform.
    pub fn acc(&self, id: AcceleratorId) -> &'a AccState {
        &self.accs[id.0]
    }

    /// All live tasks (ready and running), ascending by id.
    pub fn tasks(&self) -> impl Iterator<Item = &'a Task> + '_ {
        self.arena.iter()
    }

    /// Number of live tasks.
    pub fn task_count(&self) -> usize {
        self.arena.len()
    }

    /// Tasks awaiting dispatch, ascending by id.
    pub fn ready_tasks(&self) -> impl Iterator<Item = &'a Task> + '_ {
        self.arena.ready_tasks()
    }

    /// Ids of tasks awaiting dispatch, ascending.
    pub fn ready_ids(&self) -> &'a [TaskId] {
        self.arena.ready_ids()
    }

    /// Number of ready tasks.
    pub fn ready_count(&self) -> usize {
        self.arena.ready_count()
    }

    /// Idle accelerators, ascending by id.
    pub fn idle_accs(&self) -> impl Iterator<Item = &'a AccState> + '_ {
        self.idle.iter().map(|&id| &self.accs[id.0])
    }

    /// Ids of idle accelerators, ascending (the engine's incrementally
    /// maintained occupancy index).
    pub fn idle_ids(&self) -> &'a [AcceleratorId] {
        self.idle
    }

    /// Number of idle accelerators.
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// Looks up a live task by id.
    pub fn task(&self, id: TaskId) -> Option<&'a Task> {
        self.arena.get(id)
    }

    /// Remaining time to `id`'s deadline right now (negative when past
    /// due); `None` for ids no longer live.
    pub fn slack_ns(&self, id: TaskId) -> Option<f64> {
        self.arena.get(id).map(|t| t.slack_ns(self.now))
    }

    /// The resolved workload with its offline cost tables.
    pub fn workload(&self) -> &'a WorkloadSet {
        self.workload
    }

    /// The cost backend (for on-demand queries such as gang costing).
    /// Fallible queries signal pairs the backend does not cover —
    /// schedulers must treat those options as unavailable, not guess.
    pub fn cost(&self) -> &'a dyn CostBackend {
        self.cost
    }

    /// The hardware platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// Whether a flight recorder is attached and wants
    /// [`DecisionRecord`](dream_trace::DecisionRecord)s explaining this
    /// invocation's choices. Schedulers that support decision tracing
    /// check this before doing any extra bookkeeping, so an untraced run
    /// does exactly the work it did before the recorder existed.
    pub fn wants_decision_records(&self) -> bool {
        self.record_decisions
    }
}

/// A pluggable scheduling policy.
///
/// The engine calls [`Scheduler::schedule`] whenever at least one
/// accelerator is idle and at least one task is ready. Implementations must
/// be deterministic functions of the view (plus their own state) for runs
/// to be reproducible. `Send` so simulations (and the live serving
/// runtime) can move across threads.
pub trait Scheduler: Send {
    /// Display name (used in experiment tables).
    fn name(&self) -> &str;

    /// Which RTMM challenges this policy addresses (Tables 1 and 5).
    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities::default()
    }

    /// Produce a decision for the current system state.
    fn schedule(&mut self, view: &SystemView<'_>) -> Decision;

    /// Takes back the decision the last [`schedule`](Self::schedule) call
    /// returned, once the engine has applied it, so its buffers can seed
    /// the next decision (see [`Decision::reuse`]).
    ///
    /// The engine hands the decision back *emptied*: all three lists are
    /// drained, their capacity kept. A policy must not rely on its old
    /// contents. The default drops it, so a policy (or a wrapper) that
    /// does not keep the buffers simply allocates fresh ones and decides
    /// exactly as before.
    fn recycle(&mut self, _decision: Decision) {}

    /// Lifecycle notification (release/completion/drop/flush).
    fn on_task_event(&mut self, _event: &TaskEvent) {}

    /// A workload phase started; `model_names` is the new inference model
    /// list (DREAM's workload-change trigger).
    fn on_phase_start(&mut self, _phase: usize, _model_names: &[&'static str]) {}

    /// Drains the decision records explaining the last
    /// [`schedule`](Self::schedule) call — the chosen (task, accelerator)
    /// pairs with their score breakdowns. The engine calls this only when
    /// a flight recorder is attached *and*
    /// [`SystemView::wants_decision_records`] was `true` for the
    /// invocation; the default is empty, so policies without score
    /// introspection need no changes.
    fn take_decision_records(&mut self) -> Vec<dream_trace::DecisionRecord> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_emptiness() {
        assert!(Decision::none().is_empty());
        let d = Decision {
            assignments: vec![Assignment::single(TaskId(1), AcceleratorId(0))],
            ..Decision::default()
        };
        assert!(!d.is_empty());
    }

    #[test]
    fn assignment_single_constructor() {
        let a = Assignment::single(TaskId(3), AcceleratorId(2));
        assert_eq!(a.accs, vec![AcceleratorId(2)]);
    }

    #[test]
    fn acc_state_accessors() {
        let a = AccState::new(AcceleratorId(1));
        assert!(a.is_idle());
        assert_eq!(a.id(), AcceleratorId(1));
        assert_eq!(a.last_task(), None);
        assert_eq!(a.busy_ns(), 0);
    }

    #[test]
    fn capabilities_default_is_all_false() {
        let c = SchedulerCapabilities::default();
        assert!(!c.cascade && !c.energy_aware && !c.heterogeneity_aware);
    }
}
