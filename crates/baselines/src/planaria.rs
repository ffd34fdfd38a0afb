use dream_cost::AcceleratorId;
use dream_sim::{
    canonical_sum, Assignment, Decision, Gang, LayerId, Scheduler, SchedulerCapabilities, SimTime,
    SystemView, Task, TaskId,
};

/// Planaria-style scheduler (Ghodrati et al., MICRO'20): deadline-aware
/// dynamic **spatial fission** of compute resources.
///
/// Planaria splits a large systolic array into subarrays and allocates each
/// DNN just enough compute to meet its deadline. On our multi-accelerator
/// substrate the "subarray pool" is the set of idle sub-accelerators:
///
/// * tasks are served in EDF order;
/// * each task is granted the *smallest gang* of idle accelerators (largest
///   first) whose estimated remaining completion time meets the deadline —
///   resource-hungry tasks close to their deadline get more spatial
///   resources, relaxed tasks get one accelerator;
/// * gang execution pays the fission/synchronisation overhead through the
///   cost model's gang costing, exactly like Planaria's recomposition
///   overhead.
///
/// Deadline- and heterogeneity-aware, but energy-blind (Table 5).
#[derive(Debug, Default)]
pub struct PlanariaScheduler {
    gangs: GangLatencies,
    /// Reusable idle pool, largest accelerators first.
    pool: Vec<AcceleratorId>,
    /// Reusable EDF queue of ready tasks.
    queue: Vec<(SimTime, TaskId)>,
    /// The last decision, handed back emptied by the engine.
    spare: Decision,
}

/// The latency of each layer on each multi-member gang, costed through
/// the backend at most once per run.
///
/// Gang costing is pure in (gang, layer) for a given backend and platform,
/// so a memoised value is the exact `f64` a fresh query returns. The
/// memo is dropped when phase 0 starts, i.e. at the start of every run,
/// because layer ids, backend and platform belong to one run. A live
/// hot-swap appends layers without changing earlier ids, so the tables
/// just grow.
#[derive(Debug, Default)]
struct GangLatencies {
    /// `(ordered gang, latency per LayerId)`, in first-use order. `NaN`
    /// marks a layer not costed yet; a gang the backend cannot cost is
    /// `INFINITY`.
    tables: Vec<(Vec<AcceleratorId>, Vec<f64>)>,
}

impl GangLatencies {
    /// Estimated remaining completion time of `task` if every remaining
    /// layer ran on the gang `ids`.
    ///
    /// Planaria predates RTMM dynamicity, so the estimate is *worst case*:
    /// every remaining layer executes (no skip/exit knowledge) — exactly
    /// the conservatism §2.2 attributes to schedulers that cannot reason
    /// about constrained dynamicity.
    ///
    /// Single-accelerator gangs read the offline latency table the
    /// workload precomputed (bit-identical to an on-demand
    /// `CostBackend::layer_cost`, which is how the table was built); only
    /// true multi-member gangs query the backend's gang costing, once per
    /// (gang, layer). A backend that cannot cost the gang (e.g. a table
    /// import without a matching gang row) yields an infinite estimate,
    /// so the gang never "meets the deadline" and Planaria
    /// deterministically falls back to its minimum single-accelerator
    /// allocation.
    fn remaining_on_gang(
        &mut self,
        view: &SystemView<'_>,
        task: &Task,
        ids: &[AcceleratorId],
    ) -> f64 {
        if let [only] = ids {
            return canonical_sum(
                task.remaining()
                    .map(|q| view.workload().latency_ns(q.layer, *only)),
            );
        }
        let idx = match self.tables.iter().position(|(gang, _)| gang == ids) {
            Some(idx) => idx,
            None => {
                self.tables.push((ids.to_vec(), Vec::new()));
                self.tables.len() - 1
            }
        };
        let table = &mut self.tables[idx].1;
        let layers = view.workload().layer_count();
        if table.len() < layers {
            table.resize(layers, f64::NAN);
        }
        canonical_sum(task.remaining().map(|q| {
            let entry = &mut table[q.layer.0];
            if entry.is_nan() {
                *entry = gang_latency(view, ids, q.layer);
            }
            *entry
        }))
    }
}

/// `layer`'s latency on the gang `ids`, asked of the backend; `INFINITY`
/// when the backend cannot cost the gang.
fn gang_latency(view: &SystemView<'_>, ids: &[AcceleratorId], layer: LayerId) -> f64 {
    view.platform()
        .with_gang(ids, |configs| {
            view.cost().gang_cost(view.workload().layer(layer), configs)
        })
        .expect("pool ids valid")
        .map_or(f64::INFINITY, |c| c.latency_ns)
}

impl PlanariaScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for PlanariaScheduler {
    fn name(&self) -> &str {
        "Planaria"
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
        let mut decision = Decision::reuse(&mut self.spare);
        // Idle pool, largest accelerators first (fission grows by adding
        // the next-largest free subarray).
        let pool = &mut self.pool;
        pool.clear();
        pool.extend_from_slice(view.idle_ids());
        pool.sort_by_key(|id| {
            std::cmp::Reverse(
                view.platform()
                    .accelerator(*id)
                    .map(|a| a.pe_count())
                    .unwrap_or(0),
            )
        });
        // EDF; ids are unique, so the order is total.
        self.queue.clear();
        self.queue
            .extend(view.ready_tasks().map(|t| (t.deadline(), t.id())));
        self.queue.sort_unstable();

        for &(_, id) in &self.queue {
            if pool.is_empty() {
                break;
            }
            let task = view.task(id).expect("ready ids are live");
            let slack = task.slack_ns(view.now());
            // Grow the gang until the estimated completion meets the
            // deadline (or the pool is exhausted).
            let mut chosen = 1;
            let mut estimate = f64::INFINITY;
            for size in 1..=pool.len() {
                chosen = size;
                estimate = self.gangs.remaining_on_gang(view, task, &pool[..size]);
                if estimate <= slack {
                    break;
                }
            }
            // A task that cannot meet its deadline anyway gets the minimum
            // allocation (Planaria does not waste subarrays on lost
            // causes).
            if estimate > slack {
                chosen = 1;
            }
            let accs = if chosen == 1 {
                Gang::One([pool.remove(0)])
            } else {
                Gang::Many(pool.drain(..chosen).collect())
            };
            decision.assignments.push(Assignment { task: id, accs });
        }
        decision
    }

    fn recycle(&mut self, decision: Decision) {
        self.spare = decision;
    }

    fn on_phase_start(&mut self, phase: usize, _model_names: &[&'static str]) {
        if phase == 0 {
            self.gangs.tables.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::{Platform, PlatformPreset};
    use dream_models::{CascadeProbability, Scenario, ScenarioKind};
    use dream_sim::{Millis, SimulationBuilder};

    fn run(kind: ScenarioKind, preset: PlatformPreset, ms: u64) -> dream_sim::Metrics {
        let platform = Platform::preset(preset);
        let scenario = Scenario::new(kind, CascadeProbability::default_paper());
        let mut s = PlanariaScheduler::new();
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(ms))
            .seed(5)
            .run(&mut s)
            .unwrap()
            .into_metrics()
    }

    #[test]
    fn planaria_runs_all_scenarios() {
        for kind in ScenarioKind::all() {
            let m = run(kind, PlatformPreset::Hetero4kWs1Os2, 400);
            assert_eq!(m.invalid_decisions, 0, "{kind}");
            assert!(m.layer_executions > 0, "{kind}");
        }
    }

    #[test]
    fn planaria_outperforms_fcfs_on_deadlines_under_load() {
        let m_planaria = run(
            ScenarioKind::DroneIndoor,
            PlatformPreset::Hetero4kWs1Os2,
            1000,
        );
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(
            ScenarioKind::DroneIndoor,
            CascadeProbability::default_paper(),
        );
        let mut fcfs = crate::FcfsScheduler::new();
        let m_fcfs = SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(1000))
            .seed(5)
            .run(&mut fcfs)
            .unwrap()
            .into_metrics();
        assert!(
            m_planaria.overall_raw_violation_rate() <= m_fcfs.overall_raw_violation_rate(),
            "planaria {} vs fcfs {}",
            m_planaria.overall_raw_violation_rate(),
            m_fcfs.overall_raw_violation_rate()
        );
    }
}
