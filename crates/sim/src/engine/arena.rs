//! Slab-backed storage for live tasks.
//!
//! The arena owns every live [`Task`], together with the record of the
//! layer it is running (if any), and maintains — incrementally, as state
//! changes are reported — what the rest of the engine needs per event:
//!
//! * an id → slot index: a window over the ids from the oldest live task
//!   to the newest, so a lookup is one subtraction and one load, never a
//!   search. Task ids are allocated monotonically and never reused, so
//!   the window grows at the back as tasks are released and shrinks from
//!   the front as the oldest live task leaves;
//! * `live`: all tasks ascending by [`TaskId`] (the deterministic
//!   iteration order schedulers observe), mapping each id to its slab
//!   slot;
//! * `ready`: the ids of tasks awaiting dispatch, also ascending.
//!
//! Inserts append in O(1); removals and re-ready transitions are a binary
//! search plus a small memmove over the handful of live tasks. Nothing is
//! rebuilt per event.

use std::collections::VecDeque;

use super::InFlight;
use crate::task::{Task, TaskId};

/// A window entry whose id has no live task (removed, or never inserted).
const VACANT: u32 = u32::MAX;

/// One live task and the layer it is executing, if any.
#[derive(Debug)]
struct Slot {
    task: Task,
    run: Option<InFlight>,
}

#[derive(Debug, Default)]
pub(crate) struct TaskArena {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// `window[id - base]` is the slot of task `id`, or [`VACANT`]. Both
    /// end entries are always occupied (vacant ends are trimmed), so the
    /// window spans exactly the oldest to the newest live id.
    window: VecDeque<u32>,
    /// The id `window[0]` stands for.
    base: u64,
    /// `(id, slot)` ascending by id.
    live: Vec<(TaskId, u32)>,
    /// Ids of tasks in the `Ready` state, ascending.
    ready: Vec<TaskId>,
    /// Tasks with an in-flight layer.
    running: usize,
    next_id: u64,
}

impl TaskArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next task id (monotonic; never reused).
    pub fn allocate_id(&mut self) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Stores a freshly released task. Its id must come from
    /// [`TaskArena::allocate_id`], which keeps `live` sorted by
    /// construction.
    pub fn insert(&mut self, task: Task) {
        let id = task.id();
        debug_assert!(
            self.live.last().map(|&(last, _)| last < id).unwrap_or(true),
            "task ids must be inserted in allocation order"
        );
        let slot = Slot { task, run: None };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(slot);
                s
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        if self.window.is_empty() {
            self.base = id.0;
        }
        let offset = (id.0 - self.base) as usize;
        self.window.resize(offset, VACANT);
        self.window.push_back(slot);
        self.live.push((id, slot));
        // New tasks are always Ready.
        self.ready.push(id);
    }

    /// The slot of a live task.
    fn slot_of(&self, id: TaskId) -> Option<usize> {
        let offset = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        match self.window.get(offset) {
            Some(&slot) if slot != VACANT => Some(slot as usize),
            _ => None,
        }
    }

    /// Removes and returns a task in any state.
    pub fn remove(&mut self, id: TaskId) -> Option<Task> {
        let slot = self.slot_of(id)?;
        self.window[(id.0 - self.base) as usize] = VACANT;
        while self.window.front() == Some(&VACANT) {
            self.window.pop_front();
            self.base += 1;
        }
        while self.window.back() == Some(&VACANT) {
            self.window.pop_back();
        }
        if let Ok(pos) = self.live.binary_search_by_key(&id, |&(i, _)| i) {
            self.live.remove(pos);
        }
        if let Ok(r) = self.ready.binary_search(&id) {
            self.ready.remove(r);
        }
        self.free.push(slot as u32);
        let Slot { task, run } = self.slots[slot].take().expect("live slot");
        debug_assert!(run.is_none(), "removed a task with a layer in flight");
        Some(task)
    }

    pub fn get(&self, id: TaskId) -> Option<&Task> {
        let slot = self.slot_of(id)?;
        self.slots[slot].as_ref().map(|s| &s.task)
    }

    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        let slot = self.slot_of(id)?;
        self.slots[slot].as_mut().map(|s| &mut s.task)
    }

    /// The layer `id` is executing, if any.
    pub fn in_flight(&self, id: TaskId) -> Option<&InFlight> {
        let slot = self.slot_of(id)?;
        self.slots[slot].as_ref()?.run.as_ref()
    }

    /// Records the layer a live task was just dispatched on.
    pub fn set_in_flight(&mut self, id: TaskId, run: InFlight) {
        let Some(slot) = self.slot_of(id) else {
            debug_assert!(false, "in-flight layer for a task not in the arena");
            return;
        };
        let entry = &mut self.slots[slot].as_mut().expect("live slot").run;
        debug_assert!(entry.is_none(), "task already has an in-flight layer");
        if entry.replace(run).is_none() {
            self.running += 1;
        }
    }

    /// Takes the in-flight record of `id` (its layer finished or was
    /// aborted).
    pub fn take_in_flight(&mut self, id: TaskId) -> Option<InFlight> {
        let slot = self.slot_of(id)?;
        let run = self.slots[slot].as_mut()?.run.take()?;
        self.running -= 1;
        Some(run)
    }

    /// Number of tasks with a layer in flight.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// All live tasks ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = &Task> + '_ {
        self.live
            .iter()
            .map(|&(_, slot)| &self.slots[slot as usize].as_ref().expect("live slot").task)
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Ids of ready tasks, ascending.
    pub fn ready_ids(&self) -> &[TaskId] {
        &self.ready
    }

    /// Whether any task awaits dispatch.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Records that `id` left the `Ready` state (it was dispatched).
    pub fn mark_running(&mut self, id: TaskId) {
        if let Ok(pos) = self.ready.binary_search(&id) {
            self.ready.remove(pos);
        } else {
            debug_assert!(false, "mark_running on a task not in the ready list");
        }
    }

    /// Records that `id` re-entered the `Ready` state (its layer finished).
    pub fn mark_ready(&mut self, id: TaskId) {
        if let Err(pos) = self.ready.binary_search(&id) {
            self.ready.insert(pos, id);
        } else {
            debug_assert!(false, "mark_ready on a task already in the ready list");
        }
    }

    /// Debug invariant: the ready list matches the task states exactly
    /// (only evaluated under `debug_assert!`).
    pub fn ready_list_is_consistent(&self) -> bool {
        self.iter()
            .filter(|t| t.is_ready())
            .map(Task::id)
            .eq(self.ready.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, WorkloadSet};
    use crate::{Millis, ModelKey, SimTime};
    use dream_cost::{CostModel, Platform, PlatformPreset};
    use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};

    fn make_task(arena: &mut TaskArena, ws: &WorkloadSet) -> TaskId {
        let key = ModelKey {
            phase: 0,
            pipeline: PipelineId(1),
            node: NodeId(0),
        };
        let id = arena.allocate_id();
        let task = Task::new(
            id,
            ws.node(key),
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from(Millis::new(33)),
            true,
            ws,
        );
        arena.insert(task);
        id
    }

    fn test_workload() -> WorkloadSet {
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

    #[test]
    fn insert_remove_reuses_slots() {
        let ws = test_workload();
        let mut arena = TaskArena::new();
        let a = make_task(&mut arena, &ws);
        let b = make_task(&mut arena, &ws);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.ready_ids(), &[a, b]);
        assert!(arena.remove(a).is_some());
        assert!(arena.remove(a).is_none());
        let c = make_task(&mut arena, &ws);
        // Slot of `a` was reused but ids keep ascending.
        assert!(c > b);
        assert_eq!(arena.ready_ids(), &[b, c]);
        let ids: Vec<TaskId> = arena.iter().map(Task::id).collect();
        assert_eq!(ids, vec![b, c]);
        assert!(arena.ready_list_is_consistent());
    }

    #[test]
    fn ready_transitions_track_state() {
        let ws = test_workload();
        let mut arena = TaskArena::new();
        let a = make_task(&mut arena, &ws);
        let b = make_task(&mut arena, &ws);
        arena
            .get_mut(a)
            .unwrap()
            .set_running(vec![dream_cost::AcceleratorId(0)]);
        arena.mark_running(a);
        assert_eq!(arena.ready_ids(), &[b]);
        assert!(arena.has_ready());
        arena
            .get_mut(a)
            .unwrap()
            .complete_head(SimTime::from_ns(5), 1.0, &ws);
        arena.mark_ready(a);
        assert_eq!(arena.ready_ids(), &[a, b]);
        assert!(arena.ready_list_is_consistent());
    }

    /// The arena against a `BTreeMap` model (id → running?) under random
    /// insert / remove / dispatch / requeue sequences.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        use std::sync::OnceLock;

        fn workload() -> &'static WorkloadSet {
            static WS: OnceLock<WorkloadSet> = OnceLock::new();
            WS.get_or_init(test_workload)
        }

        fn run(layer_of: u64) -> InFlight {
            InFlight {
                energy_pj: layer_of as f64,
                done_at: SimTime::from_ns(layer_of),
                layer: crate::task::QueuedLayer {
                    layer: crate::LayerId(0),
                    graph_idx: 0,
                },
            }
        }

        /// Checks every observable of the arena against the model.
        fn check(arena: &TaskArena, model: &BTreeMap<TaskId, bool>) -> Result<(), String> {
            let next = arena.next_id;
            // Removed, never-allocated and future ids all read `None`.
            for raw in 0..next + 3 {
                let id = TaskId(raw);
                let live = model.contains_key(&id);
                if arena.get(id).is_some() != live {
                    return Err(format!("get({raw}) disagrees: model live = {live}"));
                }
                if let Some(task) = arena.get(id) {
                    if task.id() != id {
                        return Err(format!("get({raw}) returned {}", task.id()));
                    }
                }
                let running = model.get(&id).copied().unwrap_or(false);
                if arena.in_flight(id).map(|r| r.done_at.as_ns()) != running.then_some(raw) {
                    return Err(format!("in_flight({raw}) disagrees"));
                }
            }
            for far in [next + 1_000, u64::MAX] {
                if arena.get(TaskId(far)).is_some() {
                    return Err(format!("future id {far} is live"));
                }
            }
            let ids: Vec<TaskId> = arena.iter().map(Task::id).collect();
            let want: Vec<TaskId> = model.keys().copied().collect();
            if ids != want {
                return Err(format!("iter {ids:?} != {want:?}"));
            }
            let ready: Vec<TaskId> = model.iter().filter(|(_, &r)| !r).map(|(&i, _)| i).collect();
            if arena.ready_ids() != ready.as_slice() || !arena.ready_list_is_consistent() {
                return Err("ready list disagrees".into());
            }
            if arena.running_count() != model.values().filter(|&&r| r).count() {
                return Err("running count disagrees".into());
            }
            // The window spans exactly the oldest to the newest live id.
            let span = match (model.keys().next(), model.keys().next_back()) {
                (Some(lo), Some(hi)) => {
                    if arena.base != lo.0 {
                        return Err(format!("window base {} != oldest {}", arena.base, lo.0));
                    }
                    (hi.0 - lo.0 + 1) as usize
                }
                _ => 0,
            };
            if arena.window.len() != span {
                return Err(format!("window {} != span {span}", arena.window.len()));
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arena_matches_a_btreemap(
                ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..120),
            ) {
                let ws = workload();
                let mut arena = TaskArena::new();
                let mut model: BTreeMap<TaskId, bool> = BTreeMap::new();
                for (op, pick) in ops {
                    match op {
                        // Release (twice as likely, so the arena fills).
                        0 | 1 => {
                            let id = make_task(&mut arena, ws);
                            model.insert(id, false);
                        }
                        // Remove any id, live or not; running tasks first
                        // give their layer back, as the engine does.
                        2 => {
                            let id = TaskId(pick % (arena.next_id + 3));
                            if model.get(&id) == Some(&true) {
                                arena.take_in_flight(id);
                                arena.get_mut(id).unwrap().abort_running();
                                arena.mark_ready(id);
                            }
                            let removed = arena.remove(id);
                            prop_assert_eq!(removed.map(|t| t.id()), model.remove(&id).map(|_| id));
                        }
                        // Dispatch a ready task.
                        3 | 4 => {
                            let ready: Vec<TaskId> =
                                model.iter().filter(|(_, &r)| !r).map(|(&i, _)| i).collect();
                            if let Some(&id) = ready.get(pick as usize % ready.len().max(1)) {
                                arena
                                    .get_mut(id)
                                    .unwrap()
                                    .set_running(vec![dream_cost::AcceleratorId(0)]);
                                arena.mark_running(id);
                                arena.set_in_flight(id, run(id.0));
                                model.insert(id, true);
                            }
                        }
                        // Requeue a running task.
                        _ => {
                            let running: Vec<TaskId> =
                                model.iter().filter(|(_, &r)| r).map(|(&i, _)| i).collect();
                            if let Some(&id) = running.get(pick as usize % running.len().max(1)) {
                                let back = arena.take_in_flight(id).map(|r| r.done_at.as_ns());
                                prop_assert_eq!(back, Some(id.0));
                                arena.get_mut(id).unwrap().abort_running();
                                arena.mark_ready(id);
                                model.insert(id, false);
                            }
                        }
                    }
                    if let Err(e) = check(&arena, &model) {
                        prop_assert!(false, "{}", e);
                    }
                }
            }
        }
    }
}
