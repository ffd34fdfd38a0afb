//! Stage: fault boundaries — masking, permanent failure, and slowdowns.
//!
//! Fault events enter the queue like any other event (canonical rank —
//! completions first, then fault ends, then fault starts; see
//! [`crate::event`]) and mutate the engine's incremental state at their
//! instant:
//!
//! * a **stall** parks the accelerator: it stays out of the idle list
//!   the engine builds for each decision until the window closes.
//!   In-flight work keeps running — a stall models dispatch
//!   unavailability, not lost work;
//! * a **failure** parks the accelerator forever and *aborts* whatever
//!   gang was running on it: the un-run busy time is rolled back, every
//!   surviving gang member is freed, and the task returns to the ready
//!   list with its to-go cache invalidated through the same lazy seam a
//!   gate mutation uses — the scheduler simply sees it as schedulable work
//!   again (Planaria-style single-accelerator fallback then applies
//!   naturally when a gang can no longer be formed);
//! * a **slowdown** registers a latency factor the dispatch stage folds
//!   into `done_at` scheduling (the gang runs at its slowest member).
//!
//! Aborting leaves the already-scheduled `LayerDone` in the queue; the
//! completion stage recognizes it as stale because the task either has no
//! in-flight record or one whose `done_at` is a different instant (the
//! task was re-dispatched). That check runs only when a fault runtime is
//! installed, so the zero-fault path is bit-identical to the pre-fault
//! engine.

use dream_cost::AcceleratorId;
use dream_trace::{FaultTag, TraceEventKind};

use crate::faults::FaultKind;
use crate::task::TaskState;

use super::Engine;

/// Converts a fault kind into the trace crate's tag.
fn fault_tag(kind: FaultKind) -> FaultTag {
    match kind {
        FaultKind::Stall { .. } => FaultTag::Stall,
        FaultKind::Fail => FaultTag::Fail,
        FaultKind::Slowdown { .. } => FaultTag::Slowdown,
    }
}

impl Engine {
    /// Pushes `FaultStart`/`FaultEnd` events for every plan entry from
    /// `from_idx` on, bounded by the current horizon (events at/past it
    /// could never be processed: `End` outranks them at its own instant).
    /// Called with 0 at run/session start, and with the appended index by
    /// a live fault admission.
    pub(crate) fn seed_fault_events(&mut self, from_idx: usize) {
        let Some(faults) = self.faults.as_ref() else {
            return;
        };
        let horizon = self.horizon;
        // Collect first: pushing borrows the queue mutably.
        let spans: Vec<(usize, crate::faults::FaultEvent)> = faults
            .plan()
            .events()
            .iter()
            .enumerate()
            .skip(from_idx)
            .map(|(idx, &ev)| (idx, ev))
            .collect();
        for (idx, ev) in spans {
            if ev.at >= horizon {
                continue;
            }
            self.queue
                .push(ev.at, crate::event::EventKind::FaultStart { fault: idx });
            if let Some(duration) = ev.kind.duration() {
                let end = ev.at + duration;
                if end < horizon {
                    self.queue
                        .push(end, crate::event::EventKind::FaultEnd { fault: idx });
                }
            }
        }
    }

    /// Applies fault `idx` (a plan index) at the current instant.
    pub(crate) fn fault_start(&mut self, idx: usize) {
        let Some(faults) = self.faults.as_ref() else {
            debug_assert!(false, "FaultStart without a fault runtime");
            return;
        };
        let ev = faults.event(idx);
        self.metrics.faults_injected += 1;
        self.trace_event(TraceEventKind::FaultStart {
            fault: idx as u32,
            acc: ev.acc.0 as u32,
            kind: fault_tag(ev.kind),
        });
        match ev.kind {
            FaultKind::Stall { .. } => {
                let st = self.faults.as_mut().expect("checked above").acc_mut(ev.acc);
                st.stall_depth += 1;
            }
            FaultKind::Fail => {
                let st = self.faults.as_mut().expect("checked above").acc_mut(ev.acc);
                st.failed = true;
                // Regardless of prior mask state, a failure loses whatever
                // was running on the accelerator.
                self.abort_running_on(ev.acc);
            }
            FaultKind::Slowdown { factor, .. } => {
                self.faults
                    .as_mut()
                    .expect("checked above")
                    .acc_mut(ev.acc)
                    .slow
                    .push((idx, factor));
            }
        }
    }

    /// Closes the window of fault `idx` at the current instant.
    pub(crate) fn fault_end(&mut self, idx: usize) {
        if self.faults.is_none() {
            debug_assert!(false, "FaultEnd without a fault runtime");
            return;
        }
        let ev = self.faults.as_ref().expect("checked above").event(idx);
        self.trace_event(TraceEventKind::FaultEnd {
            fault: idx as u32,
            acc: ev.acc.0 as u32,
        });
        let faults = self.faults.as_mut().expect("checked above");
        match ev.kind {
            FaultKind::Stall { .. } => {
                let st = faults.acc_mut(ev.acc);
                debug_assert!(st.stall_depth > 0, "FaultEnd without an open stall");
                st.stall_depth = st.stall_depth.saturating_sub(1);
            }
            FaultKind::Slowdown { .. } => {
                faults.acc_mut(ev.acc).slow.retain(|&(i, _)| i != idx);
            }
            FaultKind::Fail => {
                debug_assert!(false, "permanent failures schedule no FaultEnd");
            }
        }
    }

    /// Aborts the gang running on a failed accelerator: rolls back the
    /// un-run busy time on every member, frees them, and requeues the task
    /// as ready with its to-go cache invalidated.
    fn abort_running_on(&mut self, acc: AcceleratorId) {
        let Some(task_id) = self.accs[acc.0].running else {
            return;
        };
        let slot = self
            .arena
            .slot_of(task_id)
            .expect("aborted task is in the arena");
        let run = self
            .arena
            .take_in_flight(slot)
            .expect("running task must have an in-flight layer");
        let gang = match self.arena.task(slot).state() {
            TaskState::Running(gang) => gang.clone(),
            TaskState::Ready => unreachable!("aborted task must be running"),
        };
        let unrun = run.done_at.saturating_sub(self.now).as_ns();
        for &member in gang.iter() {
            let st = &mut self.accs[member.0];
            debug_assert_eq!(st.running, Some(task_id), "gang member ran another task");
            st.running = None;
            st.busy_until = self.now;
            st.busy_ns = st.busy_ns.saturating_sub(unrun);
        }
        self.arena.task_mut(slot).abort_running();
        self.arena.mark_ready(slot);
        self.metrics.fault_requeues += 1;
        self.trace_event(TraceEventKind::Abort {
            task: task_id.0,
            acc: acc.0 as u32,
        });
    }
}
