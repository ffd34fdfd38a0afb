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
}

/// The latency of each layer on each multi-member gang, costed through
/// the backend at most once per run, and the remaining-work suffix
/// tables built from it.
///
/// Gang costing is pure in (gang, layer) for a given backend and platform,
/// so a memoised value is the exact `f64` a fresh query returns. The
/// memo is dropped when phase 0 starts, i.e. at the start of every run,
/// because layer ids, backend and platform belong to one run. A live
/// hot-swap appends layers and models without changing earlier ids, so
/// the tables just grow.
#[derive(Debug, Default)]
struct GangLatencies {
    /// One table per multi-member gang, in first-use order.
    tables: Vec<GangTable>,
}

/// One multi-member gang's memoised latencies.
#[derive(Debug)]
struct GangTable {
    /// The ordered gang.
    gang: Vec<AcceleratorId>,
    /// Latency per `LayerId`. `NaN` marks a layer not costed yet; a gang
    /// the backend cannot cost is `INFINITY`.
    latency: Vec<f64>,
    /// `suffix[model index][variant][h]`: the latency of the variant's
    /// layers from graph index `h` on, summed left to right; empty until
    /// a task of that plan first asks.
    suffix: Vec<Vec<Box<[f64]>>>,
}

impl GangTable {
    /// `layer`'s latency on this gang, costed on first use.
    fn latency(&mut self, view: &SystemView<'_>, layer: LayerId) -> f64 {
        let entry = &mut self.latency[layer.0];
        if entry.is_nan() {
            *entry = gang_latency(view, &self.gang, layer);
        }
        *entry
    }
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
    /// The sum over the queue is a table read: a task's queue is its
    /// plan's layers from the head on ([`Task::plan_suffix`]), so the sum
    /// is a function of the plan, the gang and the head's graph index.
    /// Each table entry is its own left-to-right fold over the latencies
    /// a walk of the queue adds, so every read is bit-identical to that
    /// walk. Single-accelerator gangs read the workload's per-plan tables
    /// ([`Task::remaining_latency_ns`]), built from the offline latency
    /// table (bit-identical to an on-demand `CostBackend::layer_cost`,
    /// which is how that table was built). Multi-member gangs read tables
    /// built here, once per (gang, plan), from the backend's gang
    /// costing, once per (gang, layer). A backend that cannot cost the
    /// gang (e.g. a table import without a matching gang row) yields an
    /// infinite estimate, so the gang never "meets the deadline" and
    /// Planaria deterministically falls back to its minimum
    /// single-accelerator allocation.
    fn remaining_on_gang(
        &mut self,
        view: &SystemView<'_>,
        task: &Task,
        ids: &[AcceleratorId],
    ) -> f64 {
        let ws = view.workload();
        if let [only] = ids {
            return task.remaining_latency_ns(ws, *only);
        }
        let idx = match self.tables.iter().position(|t| t.gang == ids) {
            Some(idx) => idx,
            None => {
                self.tables.push(GangTable {
                    gang: ids.to_vec(),
                    latency: Vec::new(),
                    suffix: Vec::new(),
                });
                self.tables.len() - 1
            }
        };
        let table = &mut self.tables[idx];
        let layers = ws.layer_count();
        if table.latency.len() < layers {
            table.latency.resize(layers, f64::NAN);
        }
        let Some(h) = task.plan_suffix(ws) else {
            return canonical_sum(task.remaining().map(|q| table.latency(view, q.layer)));
        };
        let (model, variant) = (task.model_index(), task.variant());
        if table.suffix.len() <= model {
            table.suffix.resize_with(model + 1, Vec::new);
        }
        if table.suffix[model].len() <= variant.0 {
            table.suffix[model].resize_with(variant.0 + 1, Default::default);
        }
        if table.suffix[model][variant.0].is_empty() {
            let plan = ws.node_at(model).variant_layers(variant);
            let lat: Vec<f64> = plan.iter().map(|&l| table.latency(view, l)).collect();
            table.suffix[model][variant.0] = (0..=lat.len())
                .map(|k| canonical_sum(lat[k..].iter().copied()))
                .collect();
        }
        table.suffix[model][variant.0][h]
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
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, decision: &mut Decision) {
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
    }

    fn on_phase_start(&mut self, phase: usize, _model_names: &[&'static str]) {
        if phase == 0 {
            // Forgets the per-layer memo and the suffix tables together.
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

    /// Planaria with every estimate it can ask for checked first: for
    /// each ready task and every prefix of the decision's pool (the gangs
    /// Planaria grows through), the suffix-table read equals the walk of
    /// the queue it replaces, bit for bit.
    struct Checked {
        inner: PlanariaScheduler,
        single_reads: u64,
        gang_reads: u64,
        infinite_reads: u64,
    }

    impl Scheduler for Checked {
        fn name(&self) -> &str {
            "Planaria (checked)"
        }

        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            let mut decision = Decision::none();
            self.schedule_into(view, &mut decision);
            decision
        }

        fn schedule_into(&mut self, view: &SystemView<'_>, decision: &mut Decision) {
            let ws = view.workload();
            let mut pool = view.idle_ids().to_vec();
            pool.sort_by_key(|id| {
                std::cmp::Reverse(view.platform().accelerator(*id).map(|a| a.pe_count()))
            });
            for task in view.ready_tasks() {
                for size in 1..=pool.len() {
                    let ids = &pool[..size];
                    let read = self.inner.gangs.remaining_on_gang(view, task, ids);
                    let walk = canonical_sum(task.remaining().map(|q| match ids {
                        [only] => ws.latency_ns(q.layer, *only),
                        _ => gang_latency(view, ids, q.layer),
                    }));
                    assert_eq!(read.to_bits(), walk.to_bits(), "{} on {ids:?}", task.id());
                    match size {
                        1 => self.single_reads += 1,
                        _ => self.gang_reads += 1,
                    }
                    self.infinite_reads += u64::from(read.is_infinite());
                }
            }
            self.inner.schedule_into(view, decision);
        }

        fn on_phase_start(&mut self, phase: usize, names: &[&'static str]) {
            self.inner.on_phase_start(phase, names);
        }
    }

    /// The analytical backend's table export with every gang row
    /// stripped: it costs single accelerators only.
    fn gangless(builder: &SimulationBuilder) -> std::sync::Arc<dyn dream_cost::CostBackend> {
        let ws = builder.build_workload().unwrap();
        let table = dream_cost::TableBackend::derive(
            "gangless",
            &dream_cost::CostModel::paper_default(),
            &Platform::preset(PlatformPreset::Hetero4kWs1Os2),
            ws.layers(),
        )
        .unwrap();
        let csv: String = table
            .to_csv_string()
            .lines()
            .filter(|line| !line.starts_with("gang,"))
            .flat_map(|line| [line, "\n"])
            .collect();
        std::sync::Arc::new(dream_cost::TableBackend::from_csv_str(&csv).unwrap())
    }

    #[test]
    fn suffix_reads_match_the_walk_for_every_gang_prefix() {
        for gang_rows in [true, false] {
            let mut checked = Checked {
                inner: PlanariaScheduler::new(),
                single_reads: 0,
                gang_reads: 0,
                infinite_reads: 0,
            };
            for kind in ScenarioKind::all() {
                let scenario = Scenario::new(kind, CascadeProbability::default_paper());
                let builder = SimulationBuilder::new(
                    Platform::preset(PlatformPreset::Hetero4kWs1Os2),
                    scenario,
                )
                .duration(Millis::new(300))
                .seed(11);
                let builder = match gang_rows {
                    true => builder,
                    false => {
                        let table = gangless(&builder);
                        builder.cost_backend(table)
                    }
                };
                let m = builder.run(&mut checked).unwrap();
                assert_eq!(m.metrics().invalid_decisions, 0, "{kind}");
            }
            assert!(checked.single_reads > 0 && checked.gang_reads > 0);
            // Without gang rows every gang estimate is infinite; with
            // them none is.
            assert_eq!(checked.infinite_reads == checked.gang_reads, !gang_rows);
            assert_eq!(checked.infinite_reads == 0, gang_rows);
        }
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
