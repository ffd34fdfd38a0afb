//! The engine owns one decision, which each scheduler fills in place
//! through `Scheduler::schedule_into`, and a gang of one is held inline.
//! These tests pin what that must not change: a wrapper that implements
//! only the by-value `schedule` decides exactly like the bare policy, the
//! decision comes in empty with its capacity kept, and multi-member gangs
//! (formed, dispatched, and aborted by a failure) still behave and replay
//! bit-identically.

use dream::prelude::*;
use dream_models::ScenarioKind;
use dream_sim::{
    Assignment, Decision, DecisionRecord, FaultEvent, FaultKind, FaultPlan, Gang,
    SchedulerCapabilities, SystemView, TaskEvent, TaskId, TraceConfig, TraceEvent, TraceEventKind,
};

const HORIZON_MS: u64 = 1000;

fn builder(platform: Platform, kind: ScenarioKind) -> SimulationBuilder {
    let scenario = Scenario::new(kind, CascadeProbability::default_paper());
    SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(HORIZON_MS))
        .seed(4)
}

fn hetero(kind: ScenarioKind) -> SimulationBuilder {
    builder(Platform::preset(PlatformPreset::Hetero4kWs1Os2), kind)
}

/// The Figure 7 scheduler set: the three baselines and the three DREAM
/// levels (fixed parameters; tuning is not what is under test).
fn figure7_set() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FcfsScheduler::new()),
        Box::new(VeltairScheduler::new()),
        Box::new(PlanariaScheduler::new()),
        Box::new(DreamScheduler::new(DreamConfig::mapscore())),
        Box::new(DreamScheduler::new(DreamConfig::smart_drop())),
        Box::new(DreamScheduler::new(DreamConfig::full())),
    ]
}

/// Forwards every call but implements only the by-value `schedule`, as a
/// timing wrapper does: the wrapped policy fills a fresh decision each
/// time, which the provided `schedule_into` stores in the engine's.
struct PassThrough(Box<dyn Scheduler>);

impl Scheduler for PassThrough {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        self.0.capabilities()
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        self.0.schedule(view)
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        self.0.on_task_event(event);
    }

    fn on_phase_start(&mut self, phase: usize, model_names: &[&'static str]) {
        self.0.on_phase_start(phase, model_names);
    }

    fn take_decision_records(&mut self) -> Vec<DecisionRecord> {
        self.0.take_decision_records()
    }
}

#[test]
fn by_value_wrappers_decide_identically() {
    for kind in ScenarioKind::all() {
        for (direct, wrapped) in figure7_set().into_iter().zip(figure7_set()) {
            let name = direct.name().to_string();
            let mut direct = direct;
            let d = hetero(kind).run(direct.as_mut()).unwrap();
            let w = hetero(kind).run(&mut PassThrough(wrapped)).unwrap();
            assert!(d.metrics().layer_executions > 0, "{name} on {kind}");
            assert_eq!(
                d.metrics().fingerprint(),
                w.metrics().fingerprint(),
                "{name} on {kind}: a by-value wrapper decided differently"
            );
        }
    }
}

/// Dispatches the first ready task to the first idle accelerator, and pads
/// the drop and switch lists with ids no task has (counted invalid), so
/// all three lists are non-empty when the engine applies them. Checks
/// that every decision it is handed is empty and is the same three
/// buffers, with the capacity the first decision reserved.
#[derive(Default)]
struct InPlaceProbe {
    /// Data pointers of the three lists after the first decision.
    buffers: Option<[usize; 3]>,
    decisions: u64,
}

const PROBE_CAPACITY: usize = 16;

fn buffers(d: &Decision) -> [usize; 3] {
    [
        d.assignments.as_ptr() as usize,
        d.drops.as_ptr() as usize,
        d.variant_switches.as_ptr() as usize,
    ]
}

impl Scheduler for InPlaceProbe {
    fn name(&self) -> &str {
        "InPlaceProbe"
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, d: &mut Decision) {
        assert!(
            d.is_empty(),
            "decision {} came in non-empty",
            self.decisions
        );
        match self.buffers {
            None => {
                d.assignments.reserve_exact(PROBE_CAPACITY);
                d.drops.reserve_exact(PROBE_CAPACITY);
                d.variant_switches.reserve_exact(PROBE_CAPACITY);
                self.buffers = Some(buffers(d));
            }
            Some(first) => {
                assert_eq!(buffers(d), first, "decision {}", self.decisions);
                assert!(d.assignments.capacity() >= PROBE_CAPACITY);
                assert!(d.drops.capacity() >= PROBE_CAPACITY);
                assert!(d.variant_switches.capacity() >= PROBE_CAPACITY);
            }
        }
        self.decisions += 1;
        let task = view.ready_ids()[0];
        let acc = view.idle_ids()[0];
        d.assignments.push(Assignment::single(task, acc));
        d.drops.push(TaskId(u64::MAX));
        d.variant_switches
            .push((TaskId(u64::MAX), dream_models::VariantId(0)));
    }
}

#[test]
fn every_decision_comes_in_empty_with_its_capacity_kept() {
    let mut probe = InPlaceProbe::default();
    let out = hetero(ScenarioKind::ArCall).run(&mut probe).unwrap();
    assert!(probe.decisions > 100);
    // The padded drop and switch of every decision were refused.
    assert_eq!(out.metrics().invalid_decisions, 2 * probe.decisions);
    assert!(out.metrics().layer_executions > 0);
}

#[test]
fn gangs_compare_and_read_as_slices_across_representations() {
    let a = dream_cost::AcceleratorId(2);
    let b = dream_cost::AcceleratorId(5);
    assert_eq!(Gang::One([a]), Gang::Many(vec![a]));
    assert_eq!(Gang::Many(vec![a]), Gang::One([a]));
    assert_ne!(Gang::One([a]), Gang::Many(vec![a, b]));
    assert_ne!(Gang::One([a]), Gang::One([b]));
    assert_eq!(Gang::from(vec![a, b]), vec![a, b]);
    assert_eq!(Assignment::single(TaskId(1), a).accs, vec![a]);
    let one = Gang::One([a]);
    let many = Gang::Many(vec![a, b]);
    assert_eq!((one.len(), one[0], one.first()), (1, a, Some(&a)));
    assert_eq!((many.len(), &many[..]), (2, &[a, b][..]));
    assert_eq!(many.iter().rev().copied().collect::<Vec<_>>(), vec![b, a]);
}

/// Six small sub-accelerators: no single one meets the heavier drone
/// models' deadlines, so Planaria forms wide gangs.
fn six_accelerators() -> Platform {
    let sizes = [
        (512, Dataflow::WeightStationary),
        (512, Dataflow::OutputStationary),
    ];
    let accs = (0..6)
        .map(|i| {
            let (pes, df) = sizes[i % 2];
            AcceleratorConfig::new(format!("acc{i}"), pes, df, 0.7, 15.0, 1 << 20).unwrap()
        })
        .collect();
    Platform::new("six-small", accs).unwrap()
}

fn traced(kind: ScenarioKind, faults: FaultPlan) -> (u64, Vec<TraceEvent>, u64) {
    let out = builder(six_accelerators(), kind)
        .trace(TraceConfig::with_capacity(1 << 22))
        .faults(faults)
        .run(&mut PlanariaScheduler::new())
        .unwrap();
    let m = out.metrics();
    assert_eq!(m.invalid_decisions, 0);
    let (fingerprint, requeues) = (m.fingerprint(), m.fault_requeues);
    let trace = out.into_trace().expect("traced run");
    assert_eq!(trace.dropped(), 0, "the ring must hold the whole run");
    (fingerprint, trace.events().to_vec(), requeues)
}

#[test]
fn planaria_forms_wide_gangs_and_a_failure_requeues_one() {
    let kind = ScenarioKind::DroneIndoor;
    let (_, events, _) = traced(kind, FaultPlan::default());
    let widest = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Dispatch { gang, .. } => Some(gang),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(
        widest >= 3,
        "six small accelerators must form gangs of 3+, widest {widest}"
    );

    // Fail a member of the first multi-member gang midway through its layer.
    let (task, acc, at, done_at) = events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::Dispatch {
                task,
                acc,
                gang,
                done_at_ns,
                ..
            } if gang >= 2 && done_at_ns > e.at_ns + 1 => Some((task, acc, e.at_ns, done_at_ns)),
            _ => None,
        })
        .expect("a multi-member gang was dispatched");
    let fail_at = SimTime::from_ns(at + (done_at - at) / 2);
    let plan = FaultPlan::from_events(vec![FaultEvent {
        at: fail_at,
        acc: dream_cost::AcceleratorId(acc as usize),
        kind: FaultKind::Fail,
    }]);
    let (fingerprint, events, requeues) = traced(kind, plan.clone());
    assert_eq!(requeues, 1);
    let abort = events
        .iter()
        .position(|e| matches!(e.kind, TraceEventKind::Abort { task: t, .. } if t == task))
        .expect("the failure aborts the gang's task");
    assert_eq!(events[abort].at_ns, fail_at.as_ns());
    assert!(
        events[abort..].iter().any(|e| matches!(
            e.kind,
            TraceEventKind::Dispatch { task: t, .. } if t == task
        )),
        "the aborted task is requeued and dispatched again"
    );

    let (again, replayed, _) = traced(kind, plan);
    assert_eq!(
        fingerprint, again,
        "the faulted run replays bit-identically"
    );
    assert_eq!(events, replayed);
}
