use std::collections::BTreeMap;

use dream_cost::AcceleratorId;
use dream_models::VariantId;
use dream_sim::{Assignment, Decision, ModelKey, Scheduler, SchedulerCapabilities, SystemView};

/// An offline, table-driven static scheduler — the "static" half of the
/// paper's Figure 2 motivation experiment.
///
/// At each workload phase it builds a **fixed layer→accelerator placement**
/// from *worst-case* assumptions (every cascade fires, no layer is skipped,
/// the heaviest supernet variant runs): layers are placed greedily onto the
/// accelerator with the least accumulated worst-case load-per-second. At
/// runtime the table is followed blindly:
///
/// * a layer may only run on its pre-assigned accelerator — no work
///   stealing when the realized workload leaves that accelerator idle;
/// * queueing per accelerator is FIFO by release time — no deadline
///   awareness.
///
/// Both restrictions are exactly what makes static scheduling fragile under
/// RTMM dynamicity (§2.3): capacity reserved for models that do not launch
/// (a negative keyword-spotting result, a skipped SkipNet block) cannot be
/// reused, while bursts on other accelerators overflow.
#[derive(Debug, Default)]
pub struct StaticScheduler {
    /// `(model, graph layer index) → accelerator`, rebuilt per phase.
    placement: BTreeMap<(ModelKey, usize), AcceleratorId>,
    built_for_phase: Option<usize>,
}

impl StaticScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn build_table(&mut self, view: &SystemView<'_>) {
        self.placement.clear();
        let mut load_per_acc: Vec<f64> = vec![0.0; view.accs().len()];
        for node in view.workload().nodes() {
            if node.key().phase != view.phase() {
                continue;
            }
            let fps = node.rate().as_fps();
            // Worst case: default (heaviest) variant, every layer executes,
            // cascade probability treated as 1.
            for (graph_idx, &layer) in node.variant_layers(VariantId(0)).iter().enumerate() {
                let (best_acc, _) = load_per_acc
                    .iter()
                    .enumerate()
                    .map(|(i, &load)| {
                        let lat = view.workload().latency_ns(layer, AcceleratorId(i));
                        (i, load + lat * fps)
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("platforms have at least one accelerator");
                let lat = view.workload().latency_ns(layer, AcceleratorId(best_acc));
                load_per_acc[best_acc] += lat * fps;
                self.placement
                    .insert((node.key(), graph_idx), AcceleratorId(best_acc));
            }
        }
        self.built_for_phase = Some(view.phase());
    }
}

impl Scheduler for StaticScheduler {
    fn name(&self) -> &str {
        "Static"
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities {
            cascade: true,
            concurrent: true,
            realtime: false,
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
        if self.built_for_phase != Some(view.phase()) {
            self.build_table(view);
        }
        for acc in view.idle_accs() {
            // FIFO over the tasks whose next layer is statically placed
            // here.
            let candidate = view
                .ready_tasks()
                .filter(|t| {
                    t.next_layer()
                        .and_then(|l| self.placement.get(&(t.key(), l.graph_idx)))
                        == Some(&acc.id())
                })
                .min_by_key(|t| (t.released(), t.id()));
            if let Some(task) = candidate {
                decision
                    .assignments
                    .push(Assignment::single(task.id(), acc.id()));
            }
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
    fn static_runs_and_completes_frames() {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut s = StaticScheduler::new();
        let m = SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(500))
            .seed(7)
            .run(&mut s)
            .unwrap()
            .into_metrics();
        assert_eq!(m.invalid_decisions, 0);
        let completed: u64 = m.models().map(|(_, s)| s.completed_on_time).sum();
        assert!(completed > 0);
    }

    #[test]
    fn static_violates_more_than_dynamic_fcfs_on_ar_call() {
        // The Figure 2 claim, in miniature: same workload realization, the
        // static scheduler misses more deadlines than dynamic FCFS.
        let run = |s: &mut dyn Scheduler| {
            let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
            let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
            SimulationBuilder::new(platform, scenario)
                .duration(Millis::new(2000))
                .seed(11)
                .run(s)
                .unwrap()
                .into_metrics()
        };
        let m_static = run(&mut StaticScheduler::new());
        let m_fcfs = run(&mut crate::FcfsScheduler::new());
        assert!(
            m_static.overall_raw_violation_rate() >= m_fcfs.overall_raw_violation_rate(),
            "static {} < fcfs {}",
            m_static.overall_raw_violation_rate(),
            m_fcfs.overall_raw_violation_rate()
        );
    }
}
