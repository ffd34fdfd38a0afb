//! Stage 1b — layer completions: free accelerators, advance the task's
//! queue, resolve the gates the finished layer revealed, and finish or
//! re-queue the task.

use crate::scheduler::Scheduler;
use crate::task::{TaskId, TaskState};

use super::Engine;

impl Engine {
    pub(crate) fn layer_done(&mut self, task_id: TaskId, scheduler: &mut dyn Scheduler) {
        // Under fault injection a `LayerDone` can be *stale*: the dispatch
        // it announced was aborted by an accelerator failure (the task has
        // no in-flight record, or one from a later re-dispatch whose
        // completion lies at a different instant). Stale completions are
        // skipped; without a fault runtime no abort can happen and the
        // zero-fault path keeps its unconditional expectation.
        if self.faults.is_some() {
            match self.arena.in_flight(task_id) {
                Some(run) if run.done_at == self.now => {}
                _ => return,
            }
        }
        let run = self
            .arena
            .take_in_flight(task_id)
            .expect("LayerDone for a task with no in-flight layer");
        // Copy the gang out of the task's Running state into the engine's
        // reusable scratch, so accelerator state can be mutated below
        // without borrowing the arena (and without a per-dispatch clone).
        let mut gang = std::mem::take(&mut self.scratch_accs);
        gang.clear();
        match self
            .arena
            .get(task_id)
            .expect("running task exists")
            .state()
        {
            TaskState::Running(accs) => gang.extend_from_slice(accs),
            TaskState::Ready => unreachable!("LayerDone for a task that is not running"),
        }
        // Free the accelerators and remember the flush volume. A member
        // that became fault-masked mid-layer stays parked: the fault-end
        // handler returns it to the idle pool when its window closes (a
        // failed one never comes back).
        let out_bytes = self.ws.output_bytes(run.layer.layer);
        for &acc in &gang {
            let st = &mut self.accs[acc.0];
            debug_assert_eq!(st.running, Some(task_id));
            st.running = None;
            st.last_task = Some(task_id);
            st.last_output_bytes = out_bytes;
            if !self.fault_masked(acc) {
                self.release_acc(acc);
            }
        }
        self.metrics.layer_executions += 1;

        if let Some(flush_time) = self.flushing_remove(task_id) {
            // A layer completing exactly at the flush instant completed
            // *by* the phase boundary. If it was the task's last layer,
            // the inference finished inside its window: record the
            // completion (deadline-checked as usual) instead of a flush,
            // matching the inclusive deadline-at-phase-end censoring.
            let task = self.arena.get(task_id).expect("flushing task exists");
            let finished_at_boundary = self.now == flush_time && task.remaining().len() == 1;
            if !finished_at_boundary {
                let task = self.arena.remove(task_id).expect("flushing task exists");
                self.record_flush(&task, scheduler);
                self.recycle_task(task);
                self.scratch_accs = gang;
                return;
            }
        }

        let task = self.arena.get_mut(task_id).expect("running task exists");
        let key = task.key();
        let counted = task.counted();
        for &acc in &gang {
            self.accs[acc.0].last_model = Some(key);
        }
        self.scratch_accs = gang;
        let completed = task.complete_head(self.now, run.energy_pj, &self.ws);
        if counted {
            if let Some(stats) = self.stats_mut(key) {
                stats.energy_pj += run.energy_pj;
            }
        }

        // Resolve operator-level dynamicity gates revealed by this layer.
        self.resolve_operator_gates(task_id, completed.graph_idx);

        let task = self.arena.get(task_id).expect("task still live");
        if task.is_complete() {
            self.finish_task(task_id, scheduler);
        } else {
            self.arena.mark_ready(task_id);
        }
    }

    pub(crate) fn finish_task(&mut self, task_id: TaskId, scheduler: &mut dyn Scheduler) {
        let task = self.arena.remove(task_id).expect("finished task exists");
        // An Arc handle keeps the node borrow alive across the `&mut
        // self` accounting calls without deep-cloning the NodeInfo.
        let ws = std::sync::Arc::clone(&self.ws);
        let node = ws.node(task.key());
        let on_time = self.now <= task.deadline();
        self.record_completion(&task, node, on_time, scheduler);
        self.fire_cascades(&task, node, scheduler);
        self.recycle_task(task);
    }
}
