//! Metric updates and scheduler lifecycle notifications, grouped so the
//! stage modules stay focused on state transitions.

use dream_trace::TraceEventKind;

use crate::metrics::ModelStats;
use crate::scheduler::{Scheduler, TaskEvent, TaskEventKind};
use crate::task::{Task, TaskId};
use crate::workload::ModelKey;

use super::{trace_model, Engine};

impl Engine {
    /// Accounts a task release (counted vs censored, worst-case energy).
    pub(crate) fn record_release(&mut self, task: &Task, worst_energy_pj: f64) {
        if let Some(stats) = self.stats_of(task) {
            if task.counted() {
                stats.released += 1;
                stats.worst_energy_pj += worst_energy_pj;
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
        if let Some(stats) = self.stats_of(task) {
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
            if let Some(stats) = self.stats_of(task) {
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
        worst_energy_pj: f64,
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
            if let Some(stats) = self.stats_of(task) {
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
                worst_energy_pj,
            },
        });
    }

    /// The stats of `task`'s model, reached through its dense model index.
    pub(crate) fn stats_of(&mut self, task: &Task) -> Option<&mut ModelStats> {
        self.stats_at(task.model_index(), task.key())
    }

    /// The stats of model `key`, whose dense model index is `index`.
    pub(crate) fn stats_at(&mut self, index: usize, key: ModelKey) -> Option<&mut ModelStats> {
        debug_assert_eq!(self.ws.model_index(key), Some(index));
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
