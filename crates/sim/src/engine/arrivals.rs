//! Stage 1a — workload arrivals: phase starts (with their flush of the
//! previous phase), root-frame arrivals from the pluggable
//! [`ArrivalSource`](crate::arrivals::ArrivalSource), and task release.

use dream_models::{NodeId, PipelineId};
use dream_trace::TraceEventKind;

use crate::event::EventKind;
use crate::scheduler::Scheduler;
use crate::task::{Task, TaskId};
use crate::workload::ModelKey;
use crate::SimTime;

use super::{trace_model, Engine};

impl Engine {
    pub(crate) fn start_phase(&mut self, phase: usize, scheduler: &mut dyn Scheduler) {
        self.current_phase = phase;
        self.trace_event(TraceEventKind::PhaseStart {
            phase: phase as u32,
        });
        // Flush tasks from earlier phases: ready ones leave immediately;
        // running ones drain their current layer and are discarded on
        // completion.
        let stale: Vec<TaskId> = self
            .arena
            .iter()
            .filter(|t| t.key().phase != phase)
            .map(Task::id)
            .collect();
        for id in stale {
            let slot = self.arena.slot_of(id).expect("stale task exists");
            if self.arena.task(slot).is_ready() {
                let task = self.arena.remove(slot);
                self.record_flush(&task, scheduler);
                self.recycle_task(task);
            } else {
                self.flushing_insert(id);
            }
        }
        // Kick off arrivals for every root node of the new phase; the
        // arrival source decides when each node's frame 0 lands.
        let phase_start = self.ws.phases()[phase].start;
        let phase_end = self.ws.phases()[phase].end;
        let arrivals: Vec<ModelKey> = self
            .ws
            .nodes()
            .filter(|n| n.key().phase == phase && n.parent().is_none())
            .map(|n| n.key())
            .collect();
        for key in arrivals {
            let first = self.arrivals.first_arrival(
                self.ws.node(key),
                &self.ws.phases()[phase],
                &self.coin,
            );
            let Some(first) = first else { continue };
            if first >= phase_start && first < phase_end && first < self.horizon {
                self.queue.push(
                    first,
                    EventKind::FrameArrival {
                        phase,
                        pipeline: key.pipeline,
                        node: key.node,
                        frame: 0,
                    },
                );
            }
        }
        let names = self.ws.model_names(phase);
        scheduler.on_phase_start(phase, &names);
    }

    pub(crate) fn frame_arrival(
        &mut self,
        phase: usize,
        pipeline: PipelineId,
        node: NodeId,
        frame: u64,
        scheduler: &mut dyn Scheduler,
    ) {
        let key = ModelKey {
            phase,
            pipeline,
            node,
        };
        self.release_task(key, frame, self.now, scheduler);
        let next = self.arrivals.next_arrival(
            self.ws.node(key),
            &self.ws.phases()[phase],
            frame,
            self.now,
            &self.coin,
        );
        let Some(next) = next else { return };
        let phase_end = self.ws.phases()[phase].end;
        // Arrivals stay strictly inside the phase window and the horizon
        // (release-time censoring is the inclusive counterpart: a frame
        // whose *deadline* lands exactly on either boundary still counts).
        if next >= self.now && next < phase_end && next < self.horizon {
            self.queue.push(
                next,
                EventKind::FrameArrival {
                    phase,
                    pipeline,
                    node,
                    frame: frame + 1,
                },
            );
        }
    }

    pub(crate) fn release_task(
        &mut self,
        key: ModelKey,
        frame: u64,
        frame_arrival: SimTime,
        scheduler: &mut dyn Scheduler,
    ) {
        let ws = &*self.ws;
        let node = ws.node(key);
        let deadline = frame_arrival + node.period();
        let phase_end = ws.phases()[key.phase].end;
        let counted = deadline <= phase_end && deadline <= self.horizon;
        let id = self.arena.allocate_id();
        // Reuse a retired shell when one is pooled — `reinit` repeats
        // `Task::new`'s initialisation (and float-op) sequence exactly, so
        // a recycled release is bit-identical to a fresh one.
        let task = match self.task_pool.pop() {
            Some(mut shell) => {
                shell.reinit(id, node, frame, frame_arrival, self.now, deadline, counted);
                shell
            }
            None => Task::new(id, node, frame, frame_arrival, self.now, deadline, counted),
        };
        debug_assert_eq!(ws.model_index(key), Some(task.model_index()));
        let worst_energy_pj = node.worst_frame_energy_pj();
        self.record_release(&task, worst_energy_pj);
        self.trace_event(TraceEventKind::Release {
            task: id.0,
            model: trace_model(key),
            frame,
            counted,
            deadline_ns: deadline.as_ns(),
        });
        self.notify_release(id, key, counted, scheduler);
        self.arena.insert(task);
    }
}
