//! Metric updates and scheduler lifecycle notifications, grouped so the
//! stage modules stay focused on state transitions.

use dream_trace::TraceEventKind;

use crate::metrics::ModelStats;
use crate::scheduler::{Scheduler, TaskEvent, TaskEventKind};
use crate::task::{Task, TaskId};
use crate::workload::{ModelKey, NodeInfo};

use super::{trace_model, Engine};

impl Engine {
    /// Accounts a task release (counted vs censored, worst-case energy).
    pub(crate) fn record_release(&mut self, task: &Task, node: &NodeInfo) {
        if let Some(stats) = self.stats_mut(task.key()) {
            if task.counted() {
                stats.released += 1;
                stats.worst_energy_pj += node.worst_frame_energy_pj();
            } else {
                stats.censored += 1;
            }
        }
    }

    /// Notifies the scheduler of a release.
    pub(crate) fn notify_release(
        &mut self,
        id: TaskId,
        key: ModelKey,
        counted: bool,
        scheduler: &mut dyn Scheduler,
    ) {
        scheduler.on_task_event(&TaskEvent {
            now: self.now,
            task: id,
            key,
            counted,
            kind: TaskEventKind::Released,
        });
    }

    /// Accounts a phase-change flush and notifies the scheduler.
    pub(crate) fn record_flush(&mut self, task: &Task, scheduler: &mut dyn Scheduler) {
        if let Some(stats) = self.stats_mut(task.key()) {
            stats.flushed += 1;
        }
        self.trace_event(TraceEventKind::Flush {
            task: task.id().0,
            model: trace_model(task.key()),
        });
        scheduler.on_task_event(&TaskEvent {
            now: self.now,
            task: task.id(),
            key: task.key(),
            counted: task.counted(),
            kind: TaskEventKind::Flushed,
        });
    }

    /// Accounts a scheduler-issued drop and notifies the scheduler.
    pub(crate) fn record_drop(&mut self, task: &Task, scheduler: &mut dyn Scheduler) {
        if task.counted() {
            if let Some(stats) = self.stats_mut(task.key()) {
                stats.dropped += 1;
            }
            if self.faults.as_ref().is_some_and(|f| f.any_active()) {
                self.metrics.deadline_miss_under_faults += 1;
            }
        }
        self.trace_event(TraceEventKind::Drop {
            task: task.id().0,
            model: trace_model(task.key()),
        });
        scheduler.on_task_event(&TaskEvent {
            now: self.now,
            task: task.id(),
            key: task.key(),
            counted: task.counted(),
            kind: TaskEventKind::Dropped,
        });
    }

    /// Accounts a completed inference and notifies the scheduler.
    pub(crate) fn record_completion(
        &mut self,
        task: &Task,
        node: &NodeInfo,
        on_time: bool,
        scheduler: &mut dyn Scheduler,
    ) {
        if task.counted() {
            if !on_time && self.faults.as_ref().is_some_and(|f| f.any_active()) {
                // Diagnostic only (fingerprint-excluded): a deadline missed
                // while any fault window is open is attributed to
                // degradation, separating chaos-induced misses from
                // ordinary overload.
                self.metrics.deadline_miss_under_faults += 1;
            }
            let now = self.now;
            if let Some(stats) = self.stats_mut(task.key()) {
                if on_time {
                    stats.completed_on_time += 1;
                } else {
                    stats.completed_late += 1;
                }
                stats.variant_runs[task.variant().0] += 1;
                stats.wait_ns += (now.saturating_sub(task.released())).as_ns();
                stats.record_sojourn(now.saturating_sub(task.frame_arrival()).as_ns());
            }
        }
        self.trace_event(TraceEventKind::Complete {
            task: task.id().0,
            model: trace_model(task.key()),
            on_time,
        });
        scheduler.on_task_event(&TaskEvent {
            now: self.now,
            task: task.id(),
            key: task.key(),
            counted: task.counted(),
            kind: TaskEventKind::Completed {
                on_time,
                energy_pj: task.energy_pj(),
                worst_energy_pj: node.worst_frame_energy_pj(),
            },
        });
    }

    /// Charges the queueing delay a dispatch ends (counted tasks only).
    pub(crate) fn charge_dispatch_wait(&mut self, task_id: TaskId) {
        let Some(task) = self.arena.get(task_id) else {
            return;
        };
        if !task.counted() {
            return;
        }
        let wait = self.now.saturating_sub(task.last_completion());
        let key = task.key();
        if let Some(stats) = self.stats_mut(key) {
            stats.wait_ns += wait.as_ns();
        }
    }

    /// The stats of model `key`, reached through its dense model index.
    pub(crate) fn stats_mut(&mut self, key: ModelKey) -> Option<&mut ModelStats> {
        let index = self.ws.model_index(key)?;
        self.metrics.get_mut(index, key)
    }

    /// Copies per-accelerator busy time into the metrics at the end of a
    /// run.
    pub(crate) fn finalize_accounting(&mut self) {
        for (i, acc) in self.accs.iter().enumerate() {
            self.metrics.acc_busy_ns[i] = acc.busy_ns();
        }
    }
}
