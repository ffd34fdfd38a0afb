use dream_sim::{
    Assignment, Decision, Scheduler, SchedulerCapabilities, SimTime, SystemView, TaskEvent,
    TaskEventKind, TaskId,
};

/// Dynamic first-come-first-served at model granularity (§5.1 baseline 1,
/// after Nexus/Clockwork): the oldest ready request is dispatched to the
/// first available accelerator and *stays* there — every subsequent layer
/// of that inference runs on the same accelerator until the model
/// completes.
///
/// This is the "dynamic FCFS" of Figure 2: it adapts to what actually
/// arrives (unlike [`crate::StaticScheduler`]) but is blind to deadlines,
/// heterogeneity, and energy.
#[derive(Debug, Default)]
pub struct FcfsScheduler {
    /// The task pinned to each accelerator for the duration of its
    /// model, indexed by accelerator id.
    pins: Vec<Option<TaskId>>,
    /// Reusable oldest-first queue of unpinned ready tasks.
    queue: Vec<(SimTime, TaskId)>,
}

impl FcfsScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities {
            cascade: true,
            concurrent: true,
            realtime: false,
            task_dynamicity: false,
            model_dynamicity: false,
            energy_aware: false,
            heterogeneity_aware: false,
        }
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, decision: &mut Decision) {
        if self.pins.len() < view.accs().len() {
            self.pins.resize(view.accs().len(), None);
        }
        // Oldest-first queue of ready tasks not already pinned somewhere
        // (ids are unique, so the order is total).
        self.queue.clear();
        self.queue.extend(
            view.ready_tasks()
                .filter(|t| !self.pins.contains(&Some(t.id())))
                .map(|t| (t.released(), t.id())),
        );
        self.queue.sort_unstable();
        let mut queue = self.queue.iter().map(|&(_, id)| id);

        for &acc in view.idle_ids() {
            let pin = &mut self.pins[acc.0];
            match pin.and_then(|id| view.task(id)) {
                // The accelerator is working through a model: continue it
                // (running elsewhere cannot happen: this acc owns it).
                Some(task) => {
                    if task.is_ready() {
                        decision
                            .assignments
                            .push(Assignment::single(task.id(), acc));
                    }
                }
                // No pin, or the pinned task finished or vanished: serve
                // the queue.
                None => {
                    *pin = queue.next();
                    if let Some(task) = *pin {
                        decision.assignments.push(Assignment::single(task, acc));
                    }
                }
            }
        }
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        match event.kind {
            TaskEventKind::Completed { .. } | TaskEventKind::Dropped | TaskEventKind::Flushed => {
                for pin in &mut self.pins {
                    if *pin == Some(event.task) {
                        *pin = None;
                    }
                }
            }
            TaskEventKind::Released => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::{Platform, PlatformPreset};
    use dream_models::{CascadeProbability, Scenario, ScenarioKind};
    use dream_sim::{Millis, SimulationBuilder};

    #[test]
    fn fcfs_runs_all_scenarios_without_invalid_decisions() {
        for kind in ScenarioKind::all() {
            let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
            let scenario = Scenario::new(kind, CascadeProbability::default_paper());
            let mut s = FcfsScheduler::new();
            let m = SimulationBuilder::new(platform, scenario)
                .duration(Millis::new(400))
                .seed(3)
                .run(&mut s)
                .unwrap()
                .into_metrics();
            assert_eq!(m.invalid_decisions, 0, "{kind}");
            assert!(m.layer_executions > 0, "{kind}");
        }
    }

    #[test]
    fn fcfs_keeps_models_on_one_accelerator() {
        // With model-granularity pinning, context switches only happen
        // between models, never within one: the switch count must be well
        // below the layer count.
        let platform = Platform::preset(PlatformPreset::Homo4kWs2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut s = FcfsScheduler::new();
        let m = SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(500))
            .seed(3)
            .run(&mut s)
            .unwrap()
            .into_metrics();
        assert!(
            m.context_switches < m.layer_executions / 5,
            "switches {} vs layers {}",
            m.context_switches,
            m.layer_executions
        );
    }
}
