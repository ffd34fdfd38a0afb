//! Stage 1b — layer completions: free accelerators, advance the task's
//! queue, resolve the gates the finished layer revealed, and finish or
//! re-queue the task.

use crate::scheduler::Scheduler;
use crate::task::TaskId;

use super::arena::Slot;
use super::dynamics::resolve_operator_gates;
use super::Engine;

impl Engine {
    pub(crate) fn layer_done(&mut self, task_id: TaskId, scheduler: &mut dyn Scheduler) {
        // Under fault injection a `LayerDone` can be *stale*: the dispatch
        // it announced was aborted by an accelerator failure (the task is
        // gone, has no in-flight record, or has one from a later
        // re-dispatch whose completion lies at a different instant).
        // Stale completions are skipped; without a fault runtime no abort
        // can happen and the zero-fault path keeps its unconditional
        // expectation. The slot is resolved once, by id, so a stale id
        // never reaches a later task that reuses the slot.
        let slot = match self.arena.slot_of(task_id) {
            Some(slot) => slot,
            None if self.faults.is_some() => return,
            None => panic!("LayerDone for a task that is not live"),
        };
        if self.faults.is_some() {
            match self.arena.in_flight(slot) {
                Some(run) if run.done_at == self.now => {}
                _ => return,
            }
        }
        // One entry lookup takes the in-flight record and moves the gang
        // out of the task's Running state, so accelerator state can be
        // mutated below without borrowing the arena.
        let (run, gang) = self
            .arena
            .take_run(slot)
            .expect("LayerDone for a task with no in-flight layer");
        // Free the accelerators and remember the flush volume. A member
        // that became fault-masked mid-layer stays out of the idle list
        // until its window closes (a failed one never comes back).
        let out_bytes = self.ws.output_bytes(run.layer.layer);
        for &acc in gang.iter() {
            let st = &mut self.accs[acc.0];
            debug_assert_eq!(st.running, Some(task_id));
            st.running = None;
            st.last_task = Some(task_id);
            st.last_output_bytes = out_bytes;
        }
        self.metrics.layer_executions += 1;

        if let Some(flush_time) = self.flushing_remove(task_id) {
            // A layer completing exactly at the flush instant completed
            // *by* the phase boundary. If it was the task's last layer,
            // the inference finished inside its window: record the
            // completion (deadline-checked as usual) instead of a flush,
            // matching the inclusive deadline-at-phase-end censoring.
            let task = self.arena.task(slot);
            let finished_at_boundary = self.now == flush_time && task.remaining().len() == 1;
            if !finished_at_boundary {
                let task = self.arena.remove(slot);
                self.record_flush(&task, scheduler);
                self.recycle_task(task);
                return;
            }
        }

        // One more entry lookup advances the queue and resolves the
        // operator-level gates this layer revealed.
        let task = self.arena.task_mut(slot);
        let (key, index, counted) = (task.key(), task.model_index(), task.counted());
        let completed = task.complete_head(self.now, run.energy_pj);
        resolve_operator_gates(&self.coin, task, completed.graph_idx);
        let complete = task.is_complete();
        for &acc in gang.iter() {
            self.accs[acc.0].last_model = Some(key);
        }
        if counted {
            if let Some(stats) = self.stats_at(index, key) {
                stats.energy_pj += run.energy_pj;
            }
        }

        if complete {
            self.finish_task(slot, scheduler);
        } else {
            self.arena.mark_ready(task_id, slot);
        }
    }

    pub(crate) fn finish_task(&mut self, slot: Slot, scheduler: &mut dyn Scheduler) {
        let task = self.arena.remove(slot);
        debug_assert_eq!(self.ws.model_index(task.key()), Some(task.model_index()));
        let node = self.ws.node_at(task.model_index());
        let worst_energy_pj = node.worst_frame_energy_pj();
        let has_children = !node.children().is_empty();
        let on_time = self.now <= task.deadline();
        self.record_completion(&task, worst_energy_pj, on_time, scheduler);
        if has_children {
            // An Arc handle keeps the node borrow alive across the `&mut
            // self` releases without deep-cloning the NodeInfo.
            let ws = std::sync::Arc::clone(&self.ws);
            self.fire_cascades(&task, ws.node_at(task.model_index()), scheduler);
        }
        self.recycle_task(task);
    }
}
