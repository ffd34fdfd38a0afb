use dream_sim::{Assignment, Decision, Scheduler, SchedulerCapabilities, SystemView};

/// Plain earliest-deadline-first at layer granularity: ready tasks in
/// deadline order each take the idle accelerator with the lowest estimated
/// latency for their next layer.
///
/// Not one of the paper's baselines — included as a transparent reference
/// point (deadline-aware and heterogeneity-aware, but with no starvation
/// protection, no energy awareness, and no drop/supernet machinery).
#[derive(Debug, Default)]
pub struct EdfScheduler(());

impl EdfScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for EdfScheduler {
    fn name(&self) -> &str {
        "EDF"
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities {
            cascade: true,
            concurrent: true,
            realtime: true,
            task_dynamicity: false,
            model_dynamicity: false,
            energy_aware: false,
            heterogeneity_aware: true,
        }
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, decision: &mut Decision) {
        let mut ready: Vec<_> = view.ready_tasks().collect();
        ready.sort_by_key(|t| (t.deadline(), t.id()));
        let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
        for task in ready {
            if idle.is_empty() {
                break;
            }
            let Some(next) = task.next_layer() else {
                continue;
            };
            let (pos, _) = idle
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    view.workload()
                        .latency_ns(next.layer, **a)
                        .partial_cmp(&view.workload().latency_ns(next.layer, **b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("idle is non-empty");
            let acc = idle.remove(pos);
            decision
                .assignments
                .push(Assignment::single(task.id(), acc));
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
    fn edf_runs_cleanly() {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(
            ScenarioKind::DroneOutdoor,
            CascadeProbability::default_paper(),
        );
        let mut s = EdfScheduler::new();
        let m = SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(500))
            .run(&mut s)
            .unwrap()
            .into_metrics();
        assert_eq!(m.invalid_decisions, 0);
        assert!(m.layer_executions > 500);
    }
}
