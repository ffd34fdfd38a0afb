//! Stages 2 and 3 — scheduling and dispatch: build the borrowed
//! [`SystemView`], collect the scheduler's [`Decision`], validate it, and
//! start the chosen layers.

use dream_trace::TraceEventKind;

use dream_cost::AcceleratorId;

use crate::scheduler::{Decision, Scheduler, SystemView};
use crate::SimTime;

use super::{Engine, InFlight};

impl Engine {
    /// Runs the decide + dispatch stages when there is anything to decide
    /// over. The view borrows the engine's state directly; only the idle
    /// and ready lists it serves are brought up to date first.
    pub(crate) fn invoke_scheduler(&mut self, scheduler: &mut dyn Scheduler) {
        if !self.arena.has_ready() {
            return;
        }
        // The idle list is rebuilt here, once per decision, rather than
        // kept sorted through every dispatch, completion and fault: an
        // accelerator is idle when it runs nothing and no fault masks it.
        self.idle.clear();
        let faults = self.faults.as_deref();
        for acc in &self.accs {
            if acc.is_idle() && !faults.is_some_and(|f| f.acc(acc.id).masked()) {
                self.idle.push(acc.id);
            }
        }
        if self.idle.is_empty() {
            return;
        }
        self.arena.refresh_ready();
        let tracing = self.tracing();
        let decision = {
            let view = SystemView {
                now: self.now,
                phase: self.current_phase,
                accs: &self.accs,
                arena: &self.arena,
                idle: &self.idle,
                workload: &self.ws,
                cost: self.cost.as_ref(),
                platform: &self.platform,
                record_decisions: tracing,
            };
            self.metrics.scheduler_invocations += 1;
            scheduler.schedule(&view)
        };
        if tracing {
            // Decision records land before the dispatches they explain;
            // the post-decision Counter sample closes the invocation.
            for rec in scheduler.take_decision_records() {
                self.trace_event(TraceEventKind::Decision(rec));
            }
        }
        self.apply_decision(decision, scheduler);
        if tracing {
            self.trace_event(TraceEventKind::Counter {
                ready: self.arena.ready_count() as u32,
                running: self.arena.running_count() as u32,
            });
        }
    }

    /// Applies `decision` in three passes (variant switches, then drops,
    /// then assignments), draining each list, and hands the emptied
    /// decision back through [`Scheduler::recycle`] so its buffers seed
    /// the next one.
    pub(crate) fn apply_decision(&mut self, mut decision: Decision, scheduler: &mut dyn Scheduler) {
        let ws = &self.ws;
        for (task_id, variant) in decision.variant_switches.drain(..) {
            let valid = match self.arena.get_mut(task_id) {
                Some(task) if task.is_ready() && !task.started() => {
                    debug_assert_eq!(ws.model_index(task.key()), Some(task.model_index()));
                    task.switch_variant(ws.node_at(task.model_index()), variant, ws)
                }
                _ => false,
            };
            if !valid {
                self.metrics.invalid_decisions += 1;
            }
        }

        for task_id in decision.drops.drain(..) {
            match self.arena.slot_of(task_id) {
                Some(slot) if self.arena.task(slot).is_ready() => {
                    let task = self.arena.remove(slot);
                    self.record_drop(&task, scheduler);
                    self.recycle_task(task);
                }
                _ => self.metrics.invalid_decisions += 1,
            }
        }

        for assignment in decision.assignments.drain(..) {
            if !self.apply_assignment(assignment) {
                self.metrics.invalid_decisions += 1;
            }
        }
        scheduler.recycle(decision);
    }

    pub(crate) fn apply_assignment(&mut self, assignment: crate::scheduler::Assignment) -> bool {
        // Read the gang as a slice once, not through a `Gang` match per use.
        let accs: &[AcceleratorId] = &assignment.accs;
        if accs.is_empty() {
            return false;
        }
        // No duplicate accelerators, all idle, none fault-masked (a
        // stalled/failed accelerator is absent from the idle list, but a
        // scheduler could still name it explicitly — that is an invalid
        // decision, not a dispatch).
        for (i, &acc) in accs.iter().enumerate() {
            if acc.0 >= self.accs.len()
                || accs[..i].contains(&acc)
                || !self.accs[acc.0].is_idle()
                || self.fault_masked(acc)
            {
                return false;
            }
        }
        // The task's slot is resolved once; every read and update below
        // goes through it.
        let Some(slot) = self.arena.slot_of(assignment.task) else {
            return false;
        };
        let task = self.arena.task(slot);
        if !task.is_ready() {
            return false;
        }
        let Some(head) = task.next_layer() else {
            return false;
        };

        let lead = accs[0];
        let (mut latency_ns, mut energy_pj) = if accs.len() == 1 {
            (
                self.ws.latency_ns(head.layer, lead),
                self.ws.energy_pj(head.layer, lead),
            )
        } else {
            // A backend that cannot cost this gang (e.g. a table import
            // without a matching gang row) makes the assignment invalid —
            // counted, never a panic or a silently guessed cost.
            let cost = self
                .platform
                .with_gang(accs, |configs| {
                    self.cost.gang_cost(self.ws.layer(head.layer), configs)
                })
                .expect("validated ids");
            match cost {
                Ok(cost) => (cost.latency_ns, cost.energy_pj),
                Err(_) => return false,
            }
        };

        // Context switch: the lead accelerator last ran a different task.
        // Served from the workload's build-time switch factors — the same
        // bits the backend would return, without a dispatch-path call.
        let lead_state = &self.accs[lead.0];
        if lead_state.last_task != Some(assignment.task) {
            let sw = self.ws.switch_cost(
                self.ws.input_bytes(head.layer),
                lead_state.last_output_bytes,
                lead,
            );
            latency_ns += sw.latency_ns;
            energy_pj += sw.energy_pj;
            if lead_state.last_task.is_some() {
                self.metrics.context_switches += 1;
            }
        }

        // Active slowdown faults stretch the dispatch latency (the gang
        // runs at its slowest member). The factor is exactly 1.0 when no
        // slowdown is active, so the multiply is skipped and the float
        // path stays bit-identical to the fault-free engine; energy is
        // deliberately not rescaled (a slow accelerator does the same
        // work, just later).
        if let Some(faults) = self.faults.as_ref() {
            let factor = faults.gang_slow_factor(accs);
            if factor != 1.0 {
                latency_ns *= factor;
            }
        }

        // The dispatch ends the task's queueing wait (counted tasks only).
        let task = self.arena.task(slot);
        if task.counted() {
            let wait = self.now.saturating_sub(task.last_completion());
            let (index, key) = (task.model_index(), task.key());
            if let Some(stats) = self.stats_at(index, key) {
                stats.wait_ns += wait.as_ns();
            }
        }
        let done_at = self.now + SimTime::from_ns_f64(latency_ns.max(1.0));
        for &acc in accs {
            let st = &mut self.accs[acc.0];
            st.running = Some(assignment.task);
            st.busy_until = done_at;
            st.busy_ns += done_at.saturating_sub(self.now).as_ns();
        }
        if self.tracing() {
            let gang = accs.len() as u32;
            for &acc in accs {
                self.trace_event(TraceEventKind::Dispatch {
                    task: assignment.task.0,
                    acc: acc.0 as u32,
                    gang,
                    layer: head.layer.0 as u32,
                    done_at_ns: done_at.as_ns(),
                });
            }
        }
        // The gang moves from the decision into the task state —
        // completion reads it back from there, so dispatch clones nothing.
        self.arena.task_mut(slot).set_running(assignment.accs);
        self.arena.mark_running(slot);
        self.arena.set_in_flight(
            slot,
            InFlight {
                energy_pj,
                done_at,
                layer: head,
            },
        );
        self.queue.push(
            done_at,
            crate::event::EventKind::LayerDone {
                task: assignment.task,
            },
        );
        true
    }
}
