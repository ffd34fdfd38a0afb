use super::*;
use crate::arrivals::PeriodicArrivals;
use crate::metrics::Metrics;
use crate::scheduler::{Assignment, Decision, Gang, Scheduler, SchedulerCapabilities, SystemView};
use crate::task::TaskId;
use crate::workload::ModelKey;
use crate::Millis;
use dream_cost::PlatformPreset;
use dream_models::{CascadeProbability, NodeId, PipelineId, ScenarioKind};

/// Greedy test scheduler: oldest ready task onto the lowest idle
/// accelerator.
struct Greedy;

impl Scheduler for Greedy {
    fn name(&self) -> &str {
        "greedy-test"
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities::default()
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        let mut ready: Vec<_> = view.ready_tasks().collect();
        ready.sort_by_key(|t| (t.released(), t.id()));
        let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
        for task in ready {
            let Some(acc) = idle.pop() else { break };
            decision
                .assignments
                .push(Assignment::single(task.id(), acc));
        }
        decision
    }
}

fn run_ar_call(seed: u64, ms: u64) -> Metrics {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut sched = Greedy;
    SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(ms))
        .seed(seed)
        .run(&mut sched)
        .unwrap()
        .into_metrics()
}

#[test]
fn frames_flow_and_complete() {
    let m = run_ar_call(7, 500);
    // KWS at 15 fps over 500 ms: ~7 counted frames (deadline within
    // horizon); SkipNet at 30 fps: ~14.
    let mut names = std::collections::BTreeMap::new();
    for (_, s) in m.models() {
        names.insert(s.model_name, s.released);
    }
    assert!(names["KWS_res8"] >= 5, "{names:?}");
    assert!(names["SkipNet"] >= 12, "{names:?}");
    // GNMT released ≈ half of KWS (50% cascade).
    assert!(names["GNMT"] >= 1);
    assert!(names["GNMT"] < names["KWS_res8"]);
    assert_eq!(m.invalid_decisions, 0);
    assert!(m.layer_executions > 100);
}

#[test]
fn deterministic_across_runs() {
    let a = run_ar_call(42, 400);
    let b = run_ar_call(42, 400);
    assert_eq!(a.layer_executions, b.layer_executions);
    assert_eq!(a.events_processed, b.events_processed);
    let rates_a: Vec<_> = a.models().map(|(_, s)| s.violated()).collect();
    let rates_b: Vec<_> = b.models().map(|(_, s)| s.violated()).collect();
    assert_eq!(rates_a, rates_b);
    let e_a: f64 = a.models().map(|(_, s)| s.energy_pj).sum();
    let e_b: f64 = b.models().map(|(_, s)| s.energy_pj).sum();
    assert_eq!(e_a, e_b);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn seeds_change_cascade_realization() {
    let a = run_ar_call(1, 600);
    let b = run_ar_call(2, 600);
    let gnmt = |m: &Metrics| {
        m.models()
            .find(|(_, s)| s.model_name == "GNMT")
            .map(|(_, s)| s.released)
            .unwrap()
    };
    // Different seeds → different cascade draws (with overwhelming
    // probability over ≥8 frames).
    assert_ne!(gnmt(&a), gnmt(&b));
}

#[test]
fn energy_stays_near_worst_case_bound() {
    let m = run_ar_call(3, 800);
    for (_, s) in m.models() {
        if s.released > 0 {
            // The worst-case bound covers layer energy only (Algorithm 2
            // normalises to worst layer-accelerator pairs); context-switch
            // energy comes on top, so allow headroom for a scatter-happy
            // scheduler but catch gross accounting errors.
            assert!(
                s.energy_pj <= s.worst_energy_pj * 1.6,
                "{}: {} > 1.6×{}",
                s.model_name,
                s.energy_pj,
                s.worst_energy_pj
            );
            assert!(s.energy_pj > 0.0, "{} consumed no energy", s.model_name);
        }
    }
}

#[test]
fn zero_duration_rejected() {
    let platform = Platform::preset(PlatformPreset::Homo4kWs2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut s = Greedy;
    let err = SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(0))
        .run(&mut s);
    assert!(matches!(err, Err(SimError::ZeroDuration)));
}

#[test]
fn mismatched_prebuilt_workloads_rejected() {
    let platform = || Platform::preset(PlatformPreset::Homo4kWs2);
    let scenario = || Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let build = |ms: u64, cost: CostModel| {
        std::sync::Arc::new(
            SimulationBuilder::new(platform(), scenario())
                .duration(Millis::new(ms))
                .cost_model(cost)
                .build_workload()
                .unwrap(),
        )
    };
    let mut s = Greedy;

    // Matching prebuilt workload: accepted, bit-identical to fresh.
    let fresh = SimulationBuilder::new(platform(), scenario())
        .duration(Millis::new(200))
        .run(&mut s)
        .unwrap()
        .into_metrics()
        .fingerprint();
    let shared = SimulationBuilder::new(platform(), scenario())
        .duration(Millis::new(200))
        .prebuilt_workload(build(200, CostModel::paper_default()))
        .run(&mut s)
        .unwrap()
        .into_metrics()
        .fingerprint();
    assert_eq!(fresh, shared);

    // Different phase schedule: rejected.
    let err = SimulationBuilder::new(platform(), scenario())
        .duration(Millis::new(300))
        .prebuilt_workload(build(200, CostModel::paper_default()))
        .run(&mut s);
    assert!(
        matches!(err, Err(SimError::WorkloadMismatch { .. })),
        "{err:?}"
    );

    // Different platform width: rejected.
    let err = SimulationBuilder::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario())
        .duration(Millis::new(200))
        .prebuilt_workload(build(200, CostModel::paper_default()))
        .run(&mut s);
    assert!(
        matches!(err, Err(SimError::WorkloadMismatch { .. })),
        "{err:?}"
    );

    // Different cost calibration: rejected.
    let mut params = dream_cost::CostParams::paper_defaults();
    params.dram_energy_pj_per_byte *= 2.0;
    let err = SimulationBuilder::new(platform(), scenario())
        .duration(Millis::new(200))
        .prebuilt_workload(build(200, CostModel::new(params).unwrap()))
        .run(&mut s);
    assert!(
        matches!(err, Err(SimError::WorkloadMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn phase_change_flushes_and_switches_models() {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let p = CascadeProbability::default_paper();
    let mut sched = Greedy;
    let outcome = SimulationBuilder::new(platform, Scenario::new(ScenarioKind::ArCall, p))
        .add_phase(
            Millis::new(250),
            Scenario::new(ScenarioKind::DroneOutdoor, p),
        )
        .duration(Millis::new(500))
        .seed(9)
        .run(&mut sched)
        .unwrap();
    let m = outcome.metrics();
    let names: Vec<_> = m.models().map(|(k, s)| (k.phase, s.model_name)).collect();
    assert!(names.iter().any(|(p, n)| *p == 0 && *n == "SkipNet"));
    assert!(names.iter().any(|(p, n)| *p == 1 && *n == "TrailNet"));
    // Phase-1 models released frames after the switch.
    let trailnet = m
        .models()
        .find(|(k, s)| k.phase == 1 && s.model_name == "TrailNet")
        .unwrap()
        .1;
    assert!(trailnet.released > 5);
}

#[test]
fn invalid_decisions_are_counted_not_fatal() {
    struct Bad;
    impl Scheduler for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            // Assign a bogus task id and a bogus drop every time.
            let mut d = Decision::none();
            d.drops.push(TaskId(u64::MAX));
            if let Some(acc) = view.idle_accs().next() {
                d.assignments
                    .push(Assignment::single(TaskId(u64::MAX), acc.id()));
            }
            d
        }
    }
    let platform = Platform::preset(PlatformPreset::Homo4kWs2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut s = Bad;
    let m = SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(100))
        .run(&mut s)
        .unwrap()
        .into_metrics();
    assert!(m.invalid_decisions > 0);
    // Nothing ever ran.
    assert_eq!(m.layer_executions, 0);
}

#[test]
fn utilization_is_positive_under_load() {
    let m = run_ar_call(5, 500);
    assert!(m.mean_utilization() > 0.01);
    assert!(m.mean_utilization() <= 1.0);
}

/// SkipNet's 30 fps period: divides the windows below exactly, so the
/// boundary frame's deadline lands exactly on the phase end / horizon.
const PERIOD_NS: u64 = 33_333_333;

/// Builds an engine over explicit phases and hand-places one SkipNet task
/// (frame 11, deadline exactly at `12 * PERIOD_NS`) mid-flight on
/// accelerator 0 with a single layer left, returning `(engine, task_id)`.
fn engine_with_boundary_task(
    phases: Vec<crate::workload::Phase>,
    horizon: SimTime,
) -> (Engine, TaskId) {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let cost = CostModel::paper_default();
    let ws = crate::workload::WorkloadSet::build(phases, &platform, &cost).unwrap();
    let mut engine = Engine::new(
        std::sync::Arc::new(ws),
        platform,
        std::sync::Arc::new(cost),
        0,
        horizon,
        Box::new(PeriodicArrivals),
        None,
        None,
    );
    let mut sched = Greedy;
    let key = ModelKey {
        phase: 0,
        pipeline: PipelineId(1),
        node: NodeId(0),
    };
    assert_eq!(engine.ws.node(key).period().as_ns(), PERIOD_NS);
    // Frame 11 arrives at 11 periods; deadline = 12 periods = the boundary.
    engine.now = SimTime::from_ns(11 * PERIOD_NS);
    engine.release_task(key, 11, engine.now, &mut sched);
    let id = engine.arena.iter().next().unwrap().id();
    let slot = engine.arena.slot_of(id).unwrap();
    {
        let task = engine.arena.task_mut(slot);
        assert!(task.counted(), "deadline at the boundary must be counted");
        // Drain all but the last layer, then start it on accelerator 0.
        while task.remaining().len() > 1 {
            task.set_running(vec![dream_cost::AcceleratorId(0)]);
            task.complete_head(engine.now, 0.0);
        }
    }
    engine.accs[0].running = Some(id);
    let head = engine.arena.task(slot).next_layer().unwrap();
    engine.arena.dispatch(
        slot,
        Gang::One([dream_cost::AcceleratorId(0)]),
        InFlight {
            energy_pj: 0.0,
            done_at: SimTime::from_ns(12 * PERIOD_NS),
            layer: head,
        },
    );
    (engine, id)
}

fn two_phases() -> Vec<crate::workload::Phase> {
    let p = CascadeProbability::default_paper();
    vec![
        crate::workload::Phase::new(
            SimTime::ZERO,
            SimTime::from_ns(12 * PERIOD_NS),
            Scenario::new(ScenarioKind::ArCall, p),
        ),
        crate::workload::Phase::new(
            SimTime::from_ns(12 * PERIOD_NS),
            SimTime::from_ns(24 * PERIOD_NS),
            Scenario::new(ScenarioKind::DroneOutdoor, p),
        ),
    ]
}

#[test]
fn completion_at_flush_instant_counts_as_completed() {
    // Regression: a counted frame with deadline exactly at its phase end
    // used to be flushed (→ spurious violation) when its last layer
    // finished exactly at the boundary, because the PhaseStart event
    // processes first at that instant.
    let boundary = SimTime::from_ns(12 * PERIOD_NS);
    let (mut engine, id) =
        engine_with_boundary_task(two_phases(), SimTime::from_ns(24 * PERIOD_NS));
    let mut sched = Greedy;
    engine.now = boundary;
    engine.start_phase(1, &mut sched);
    assert!(
        engine.arena.get(id).is_some(),
        "running stale task drains, not discarded"
    );
    // Its last layer completes exactly at the flush instant.
    engine.layer_done(id, &mut sched);
    let stats = engine.metrics.model(ModelKey {
        phase: 0,
        pipeline: PipelineId(1),
        node: NodeId(0),
    });
    let stats = stats.unwrap();
    assert_eq!(stats.completed_on_time, 1, "on-time: now == deadline");
    assert_eq!(stats.flushed, 0);
    assert_eq!(stats.released, 1);
}

#[test]
fn completion_after_flush_instant_is_still_flushed() {
    let boundary = SimTime::from_ns(12 * PERIOD_NS);
    let (mut engine, id) =
        engine_with_boundary_task(two_phases(), SimTime::from_ns(24 * PERIOD_NS));
    let mut sched = Greedy;
    engine.now = boundary;
    engine.start_phase(1, &mut sched);
    // The layer drains past the boundary: the flush stands.
    engine.now = boundary + SimTime::from_ns(5);
    engine.layer_done(id, &mut sched);
    let stats = engine
        .metrics
        .model(ModelKey {
            phase: 0,
            pipeline: PipelineId(1),
            node: NodeId(0),
        })
        .unwrap();
    assert_eq!(stats.completed_on_time, 0);
    assert_eq!(stats.flushed, 1);
}

#[test]
fn completion_at_horizon_instant_is_recorded() {
    // Regression: a counted frame with deadline exactly at the horizon
    // used to lose its completion when the layer finished exactly at the
    // horizon instant (the End event breaks the loop first).
    let horizon = SimTime::from_ns(12 * PERIOD_NS);
    let phases = vec![crate::workload::Phase::new(
        SimTime::ZERO,
        horizon,
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    )];
    let (mut engine, id) = engine_with_boundary_task(phases, horizon);
    let mut sched = Greedy;
    engine.now = horizon;
    engine
        .queue
        .push(horizon, EventKind::LayerDone { task: id });
    engine.drain_horizon_completions(&mut sched);
    let stats = engine
        .metrics
        .model(ModelKey {
            phase: 0,
            pipeline: PipelineId(1),
            node: NodeId(0),
        })
        .unwrap();
    assert_eq!(stats.completed_on_time, 1, "deadline == horizon is on time");
    assert_eq!(stats.released, 1);
}

fn run_ar_call_with_faults(seed: u64, ms: u64, plan: crate::faults::FaultPlan) -> Metrics {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut sched = Greedy;
    SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(ms))
        .seed(seed)
        .faults(plan)
        .run(&mut sched)
        .unwrap()
        .into_metrics()
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    // The zero-fault golden check: installing an *empty* fault runtime
    // must not perturb a single bit of the metrics — the fault seam is
    // free when unused.
    let bare = run_ar_call(42, 400);
    let empty = run_ar_call_with_faults(42, 400, crate::faults::FaultPlan::new());
    assert_eq!(bare.fingerprint(), empty.fingerprint());
    assert_eq!(empty.faults_injected, 0);
    assert_eq!(empty.fault_requeues, 0);
}

#[test]
fn fault_storm_runs_are_deterministic() {
    let plan = crate::faults::FaultPlan::storm(
        99,
        3,
        SimTime::from_ns(400_000_000),
        crate::faults::StormConfig::default(),
    );
    assert!(!plan.is_empty(), "default storm config produces faults");
    let a = run_ar_call_with_faults(42, 400, plan.clone());
    let b = run_ar_call_with_faults(42, 400, plan);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.faults_injected > 0);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.fault_requeues, b.fault_requeues);
}

#[test]
fn permanent_failure_of_all_accelerators_aborts_and_requeues() {
    // Fail the whole platform mid-run: every in-flight layer is aborted
    // and requeued, nothing dispatches afterwards, and the run still
    // terminates cleanly at the horizon.
    let mut plan = crate::faults::FaultPlan::new();
    for acc in 0..3 {
        plan.push(crate::faults::FaultEvent {
            at: SimTime::from_ns(50_000_000),
            acc: dream_cost::AcceleratorId(acc),
            kind: crate::faults::FaultKind::Fail,
        });
    }
    let m = run_ar_call_with_faults(7, 400, plan);
    assert_eq!(m.faults_injected, 3);
    assert!(m.layer_executions > 0, "work ran before the failure");
    assert!(
        m.fault_requeues > 0,
        "the loaded platform had in-flight work to abort"
    );
    // Busy time is frozen at the failure instant: no accelerator can have
    // accumulated more than 50 ms of busy time.
    for &busy in &m.acc_busy_ns {
        assert!(
            busy <= 50_000_000,
            "busy_ns {busy} past the failure instant"
        );
    }
}

#[test]
fn slowdown_stretches_busy_time() {
    let mut plan = crate::faults::FaultPlan::new();
    for acc in 0..3 {
        plan.push(crate::faults::FaultEvent {
            at: SimTime::ZERO,
            acc: dream_cost::AcceleratorId(acc),
            kind: crate::faults::FaultKind::Slowdown {
                factor: 3.0,
                duration: SimTime::from_ns(400_000_000),
            },
        });
    }
    let base = run_ar_call(13, 400);
    let slow = run_ar_call_with_faults(13, 400, plan);
    let total = |m: &Metrics| m.acc_busy_ns.iter().sum::<u64>();
    assert!(
        total(&slow) > total(&base),
        "a 3x platform-wide slowdown must accumulate more busy time ({} vs {})",
        total(&slow),
        total(&base)
    );
    assert_eq!(slow.faults_injected, 3);
    assert!(
        slow.deadline_miss_under_faults > 0,
        "frames completing late under an active slowdown are attributed to it"
    );
}

#[test]
fn transient_stall_parks_then_recovers() {
    // Stall every accelerator for a 40 ms window: dispatch halts, then
    // resumes, and the run completes deterministically.
    let build = || {
        let mut plan = crate::faults::FaultPlan::new();
        for acc in 0..3 {
            plan.push(crate::faults::FaultEvent {
                at: SimTime::from_ns(100_000_000),
                acc: dream_cost::AcceleratorId(acc),
                kind: crate::faults::FaultKind::Stall {
                    duration: SimTime::from_ns(40_000_000),
                },
            });
        }
        plan
    };
    let a = run_ar_call_with_faults(21, 400, build());
    let b = run_ar_call_with_faults(21, 400, build());
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.faults_injected, 3);
    // Work resumed after the window: strictly more layers ran than in a
    // run cut off at the stall start.
    let cut = run_ar_call(21, 100);
    assert!(a.layer_executions > cut.layer_executions);
}

#[test]
fn invalid_fault_plans_are_rejected() {
    let platform = Platform::preset(PlatformPreset::Homo4kWs2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut plan = crate::faults::FaultPlan::new();
    plan.push(crate::faults::FaultEvent {
        at: SimTime::ZERO,
        acc: dream_cost::AcceleratorId(999),
        kind: crate::faults::FaultKind::Fail,
    });
    let mut s = Greedy;
    let err = SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(100))
        .faults(plan)
        .run(&mut s);
    assert!(matches!(err, Err(SimError::InvalidFault { .. })), "{err:?}");
}

#[test]
fn view_indexed_accessors_agree_with_iteration() {
    struct Probe {
        checked: bool,
    }
    impl Scheduler for Probe {
        fn name(&self) -> &str {
            "view-probe"
        }
        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            if view.task_count() >= 2 && !view.idle_ids().is_empty() {
                self.checked = true;
                // Ready ids resolve to ready tasks, ascending.
                let ids: Vec<_> = view.ready_ids().to_vec();
                assert!(ids.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(ids.len(), view.ready_count());
                for &id in &ids {
                    let t = view.task(id).expect("ready id resolves");
                    assert!(t.is_ready());
                    assert!(t.slack_ns(view.now()).is_finite());
                }
                // Idle ids match the idle iterator and occupancy flags.
                let idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
                assert_eq!(idle, view.idle_ids().to_vec());
                for acc in view.accs() {
                    assert_eq!(acc.is_idle(), idle.contains(&acc.id()));
                }
                // Full iteration is ascending by id and covers ready tasks.
                let all: Vec<_> = view.tasks().map(|t| t.id()).collect();
                assert!(all.windows(2).all(|w| w[0] < w[1]));
                assert!(ids.iter().all(|id| all.contains(id)));
            }
            // Greedy dispatch keeps the simulation moving.
            let mut d = Decision::none();
            let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
            for t in view.ready_tasks() {
                let Some(acc) = idle.pop() else { break };
                d.assignments.push(Assignment::single(t.id(), acc));
            }
            d
        }
    }
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut probe = Probe { checked: false };
    SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(300))
        .seed(11)
        .run(&mut probe)
        .unwrap();
    assert!(probe.checked, "the probe never saw concurrent load");
}
