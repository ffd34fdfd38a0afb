//! Slab-backed storage for live tasks.
//!
//! The arena owns every live [`Task`], together with the record of the
//! layer it is running (if any), and maintains — incrementally, as state
//! changes are reported — what the rest of the engine needs per event:
//!
//! * an id → [`Slot`] index: a window over the ids from the oldest live
//!   task to the newest, so a lookup is one subtraction and one load,
//!   never a search. Task ids are allocated monotonically and never
//!   reused, so the window grows at the back as tasks are released and
//!   shrinks from the front as the oldest live task leaves;
//! * `live`: all tasks ascending by [`TaskId`] (the deterministic
//!   iteration order schedulers observe), mapping each id to its slot;
//! * `ready`: the ids of tasks awaiting dispatch, also ascending, with
//!   their slots alongside, so a scheduler walks the ready tasks without
//!   an id → slot lookup per task. A state change only flips the task's
//!   flag and marks the list stale; [`TaskArena::refresh_ready`] rebuilds
//!   it from `live` once, before the scheduler reads it, instead of
//!   shifting it on every dispatch and completion.
//!
//! An event handler resolves its task's id to a [`Slot`] once
//! ([`TaskArena::slot_of`]) and then reads, mutates, re-readies or
//! removes the task through that slot. A slot names its task only until
//! the task is removed: the slab reuses the position for a later release,
//! so a stale [`TaskId`] (a `LayerDone` of an aborted dispatch, a drop
//! of a finished task) must go through `slot_of` again, which reads
//! `None` for it.
//!
//! Inserts append in O(1); removals are a binary search plus a small
//! memmove over the handful of live tasks; ready transitions are O(1).

use std::collections::VecDeque;

use super::InFlight;
use crate::task::{Task, TaskId};

/// A window entry whose id has no live task (removed, or never inserted).
const VACANT: u32 = u32::MAX;

/// The slab position of a live task, resolved from its id by
/// [`TaskArena::slot_of`]. Valid until that task is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(u32);

/// One live task, the layer it is executing (if any), and whether it
/// awaits dispatch.
#[derive(Debug)]
struct Entry {
    task: Task,
    run: Option<InFlight>,
    ready: bool,
}

#[derive(Debug, Default)]
pub(crate) struct TaskArena {
    entries: Vec<Option<Entry>>,
    free: Vec<u32>,
    /// `window[id - base]` is the slot of task `id`, or [`VACANT`]. Both
    /// end entries are always occupied (vacant ends are trimmed), so the
    /// window spans exactly the oldest to the newest live id.
    window: VecDeque<u32>,
    /// The id `window[0]` stands for.
    base: u64,
    /// `(id, slot)` ascending by id.
    live: Vec<(TaskId, Slot)>,
    /// Ids of tasks in the `Ready` state, ascending (while not
    /// `ready_stale`).
    ready: Vec<TaskId>,
    /// `ready_slots[i]` is the slot of `ready[i]`.
    ready_slots: Vec<Slot>,
    /// Number of ready tasks (always current).
    ready_count: usize,
    /// Whether a transition since the last [`refresh_ready`]
    /// (Self::refresh_ready) left `ready` out of date.
    ready_stale: bool,
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
        let entry = Entry {
            task,
            run: None,
            ready: true,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s as usize] = Some(entry);
                s
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        if self.window.is_empty() {
            self.base = id.0;
        }
        let offset = (id.0 - self.base) as usize;
        self.window.resize(offset, VACANT);
        self.window.push_back(slot);
        self.live.push((id, Slot(slot)));
        // New tasks are always Ready, and the newest: they go last.
        self.ready_count += 1;
        if !self.ready_stale {
            self.ready.push(id);
            self.ready_slots.push(Slot(slot));
        }
    }

    /// The slot of a live task; `None` for an id that was removed, never
    /// allocated, or not allocated yet.
    pub fn slot_of(&self, id: TaskId) -> Option<Slot> {
        let offset = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        match self.window.get(offset) {
            Some(&slot) if slot != VACANT => Some(Slot(slot)),
            _ => None,
        }
    }

    fn entry(&self, slot: Slot) -> &Entry {
        self.entries[slot.0 as usize].as_ref().expect("live slot")
    }

    fn entry_mut(&mut self, slot: Slot) -> &mut Entry {
        self.entries[slot.0 as usize].as_mut().expect("live slot")
    }

    /// The task at a live slot.
    pub fn task(&self, slot: Slot) -> &Task {
        &self.entry(slot).task
    }

    /// The task at a live slot, mutably. Its state changes must be
    /// reported through [`mark_running`](Self::mark_running) and
    /// [`mark_ready`](Self::mark_ready).
    pub fn task_mut(&mut self, slot: Slot) -> &mut Task {
        &mut self.entry_mut(slot).task
    }

    /// Removes and returns the task at a live slot, in any state but
    /// without a layer in flight.
    pub fn remove(&mut self, slot: Slot) -> Task {
        let Entry { task, run, ready } = self.entries[slot.0 as usize].take().expect("live slot");
        debug_assert!(run.is_none(), "removed a task with a layer in flight");
        if ready {
            self.ready_count -= 1;
            self.ready_stale = true;
        }
        let id = task.id();
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
        self.free.push(slot.0);
        task
    }

    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.slot_of(id).map(|slot| self.task(slot))
    }

    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.slot_of(id).map(|slot| self.task_mut(slot))
    }

    /// The layer the task at `slot` is executing, if any.
    pub fn in_flight(&self, slot: Slot) -> Option<&InFlight> {
        self.entry(slot).run.as_ref()
    }

    /// Records the layer the task at `slot` was just dispatched on.
    pub fn set_in_flight(&mut self, slot: Slot, run: InFlight) {
        let entry = &mut self.entry_mut(slot).run;
        debug_assert!(entry.is_none(), "task already has an in-flight layer");
        if entry.replace(run).is_none() {
            self.running += 1;
        }
    }

    /// Takes the in-flight record of the task at `slot` (its layer
    /// finished or was aborted).
    pub fn take_in_flight(&mut self, slot: Slot) -> Option<InFlight> {
        let run = self.entry_mut(slot).run.take()?;
        self.running -= 1;
        Some(run)
    }

    /// Number of tasks with a layer in flight.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// All live tasks ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = &Task> + '_ {
        self.live.iter().map(|&(_, slot)| self.task(slot))
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Rebuilds the ready list if a transition left it stale. The
    /// engine calls it before the scheduler reads the list.
    pub fn refresh_ready(&mut self) {
        if !self.ready_stale {
            return;
        }
        self.ready.clear();
        self.ready_slots.clear();
        for &(id, slot) in &self.live {
            if self.entries[slot.0 as usize]
                .as_ref()
                .is_some_and(|e| e.ready)
            {
                self.ready.push(id);
                self.ready_slots.push(slot);
            }
        }
        self.ready_stale = false;
    }

    /// Ids of ready tasks, ascending, as of the last
    /// [`refresh_ready`](Self::refresh_ready).
    pub fn ready_ids(&self) -> &[TaskId] {
        debug_assert!(!self.ready_stale, "ready list read before a refresh");
        &self.ready
    }

    /// Ready tasks ascending by id, read through their slots, as of the
    /// last [`refresh_ready`](Self::refresh_ready).
    pub fn ready_tasks(&self) -> impl Iterator<Item = &Task> + '_ {
        debug_assert!(!self.ready_stale, "ready list read before a refresh");
        self.ready_slots.iter().map(|&slot| self.task(slot))
    }

    /// Number of tasks awaiting dispatch (always current).
    pub fn ready_count(&self) -> usize {
        self.ready_count
    }

    /// Whether any task awaits dispatch.
    pub fn has_ready(&self) -> bool {
        self.ready_count > 0
    }

    /// Records that the task at `slot` left the `Ready` state (it was
    /// dispatched).
    pub fn mark_running(&mut self, slot: Slot) {
        let entry = self.entry_mut(slot);
        debug_assert!(entry.ready, "mark_running on a task not in the ready list");
        entry.ready = false;
        self.ready_count -= 1;
        self.ready_stale = true;
    }

    /// Records that the task at `slot` re-entered the `Ready` state (its
    /// layer finished).
    pub fn mark_ready(&mut self, slot: Slot) {
        let entry = self.entry_mut(slot);
        debug_assert!(
            !entry.ready,
            "mark_ready on a task already in the ready list"
        );
        entry.ready = true;
        self.ready_count += 1;
        self.ready_stale = true;
    }

    /// Debug invariant: the ready flags match the task states exactly,
    /// and the ready list, unless stale, lists exactly the ready tasks
    /// with their slots (only evaluated under `debug_assert!`).
    pub fn ready_list_is_consistent(&self) -> bool {
        let flags_match = self.live.iter().all(|&(_, slot)| {
            let entry = self.entry(slot);
            entry.ready == entry.task.is_ready()
        });
        let ready = || self.iter().filter(|t| t.is_ready()).map(Task::id);
        flags_match
            && ready().count() == self.ready_count
            && (self.ready_stale
                || (ready().eq(self.ready.iter().copied())
                    && self
                        .ready_tasks()
                        .map(Task::id)
                        .eq(self.ready.iter().copied())))
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
        let slot_a = arena.slot_of(a).unwrap();
        assert_eq!(arena.remove(slot_a).id(), a);
        assert!(arena.slot_of(a).is_none());
        let c = make_task(&mut arena, &ws);
        // Slot of `a` was reused but ids keep ascending.
        assert!(c > b);
        assert_eq!(arena.slot_of(c), Some(slot_a));
        arena.refresh_ready();
        assert_eq!(arena.ready_ids(), &[b, c]);
        let ids: Vec<TaskId> = arena.iter().map(Task::id).collect();
        assert_eq!(ids, vec![b, c]);
        assert!(arena.ready_list_is_consistent());
    }

    /// A reused slot belongs to its new occupant only: the removed task's
    /// id — what a stale `LayerDone` or a late drop would carry — never
    /// resolves to it, whether the old id sits at the front, inside or
    /// at the back of the window.
    #[test]
    fn a_stale_id_never_reaches_a_reused_slot() {
        let ws = test_workload();
        let mut arena = TaskArena::new();
        let ids: Vec<TaskId> = (0..4).map(|_| make_task(&mut arena, &ws)).collect();
        for &gone in &[ids[1], ids[0], ids[3]] {
            let slot = arena.slot_of(gone).unwrap();
            arena.remove(slot);
            let fresh = make_task(&mut arena, &ws);
            assert_eq!(arena.slot_of(fresh), Some(slot), "the slab reuses the slot");
            assert_eq!(arena.slot_of(gone), None, "{gone} is gone");
            assert!(arena.get(gone).is_none());
            assert_eq!(arena.task(slot).id(), fresh);
        }
        assert!(arena.ready_list_is_consistent());
    }

    #[test]
    fn ready_transitions_track_state() {
        let ws = test_workload();
        let mut arena = TaskArena::new();
        let a = make_task(&mut arena, &ws);
        let b = make_task(&mut arena, &ws);
        let slot = arena.slot_of(a).unwrap();
        arena
            .task_mut(slot)
            .set_running(vec![dream_cost::AcceleratorId(0)]);
        arena.mark_running(slot);
        assert_eq!(arena.ready_count(), 1);
        arena.refresh_ready();
        assert_eq!(arena.ready_ids(), &[b]);
        assert!(arena.has_ready());
        arena
            .task_mut(slot)
            .complete_head(SimTime::from_ns(5), 1.0, &ws);
        arena.mark_ready(slot);
        assert!(arena.ready_list_is_consistent());
        arena.refresh_ready();
        assert_eq!(arena.ready_ids(), &[a, b]);
        assert!(arena.ready_list_is_consistent());
    }

    /// The arena against a `BTreeMap` model (id → running?) under random
    /// release / remove / dispatch / complete / requeue sequences, each
    /// driven the way the engine drives it: resolve the id to a slot
    /// once, then act on the slot.
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
        fn check(arena: &mut TaskArena, model: &BTreeMap<TaskId, bool>) -> Result<(), String> {
            let next = arena.next_id;
            // Removed, never-allocated and future ids all read `None`.
            for raw in 0..next + 3 {
                let id = TaskId(raw);
                let live = model.contains_key(&id);
                if arena.get(id).is_some() != live || arena.slot_of(id).is_some() != live {
                    return Err(format!("lookup of {raw} disagrees: model live = {live}"));
                }
                let Some(slot) = arena.slot_of(id) else {
                    continue;
                };
                if arena.task(slot).id() != id {
                    return Err(format!("slot of {raw} holds {}", arena.task(slot).id()));
                }
                let running = model[&id];
                if arena.in_flight(slot).map(|r| r.done_at.as_ns()) != running.then_some(raw) {
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
            if arena.ready_count() != ready.len() || !arena.ready_list_is_consistent() {
                return Err("ready flags disagree".into());
            }
            arena.refresh_ready();
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

        /// The `pick`-th id (modulo) among the model's tasks in state
        /// `running`.
        fn pick_in(model: &BTreeMap<TaskId, bool>, running: bool, pick: u64) -> Option<TaskId> {
            let ids: Vec<TaskId> = model
                .iter()
                .filter(|(_, &r)| r == running)
                .map(|(&i, _)| i)
                .collect();
            ids.get(pick as usize % ids.len().max(1)).copied()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arena_matches_a_btreemap(
                ops in proptest::collection::vec((0u8..7, any::<u64>()), 1..120),
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
                        // Remove any id, live or not (a stale id resolves
                        // to no slot); running tasks first give their
                        // layer back, as the engine does.
                        2 => {
                            let id = TaskId(pick % (arena.next_id + 3));
                            let slot = arena.slot_of(id);
                            prop_assert_eq!(slot.is_some(), model.contains_key(&id));
                            if let Some(slot) = slot {
                                if model[&id] {
                                    arena.take_in_flight(slot);
                                    arena.task_mut(slot).abort_running();
                                    arena.mark_ready(slot);
                                }
                                prop_assert_eq!(arena.remove(slot).id(), id);
                                model.remove(&id);
                            }
                        }
                        // Dispatch a ready task.
                        3 | 4 => {
                            if let Some(id) = pick_in(&model, false, pick) {
                                let slot = arena.slot_of(id).unwrap();
                                arena
                                    .task_mut(slot)
                                    .set_running(vec![dream_cost::AcceleratorId(0)]);
                                arena.mark_running(slot);
                                arena.set_in_flight(slot, run(id.0));
                                model.insert(id, true);
                            }
                        }
                        // Complete a running task's layer, as `layer_done`
                        // does.
                        5 => {
                            if let Some(id) = pick_in(&model, true, pick) {
                                let slot = arena.slot_of(id).unwrap();
                                let back = arena.take_in_flight(slot).map(|r| r.done_at.as_ns());
                                prop_assert_eq!(back, Some(id.0));
                                let now = SimTime::from_ns(id.0);
                                arena.task_mut(slot).complete_head(now, 1.0, ws);
                                arena.mark_ready(slot);
                                model.insert(id, false);
                            }
                        }
                        // Requeue a running task (a fault abort).
                        _ => {
                            if let Some(id) = pick_in(&model, true, pick) {
                                let slot = arena.slot_of(id).unwrap();
                                let back = arena.take_in_flight(slot).map(|r| r.done_at.as_ns());
                                prop_assert_eq!(back, Some(id.0));
                                arena.task_mut(slot).abort_running();
                                arena.mark_ready(slot);
                                model.insert(id, false);
                            }
                        }
                    }
                    if let Err(e) = check(&mut arena, &model) {
                        prop_assert!(false, "{}", e);
                    }
                }
            }
        }
    }
}
