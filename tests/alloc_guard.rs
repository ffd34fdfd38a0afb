//! Allocation guard for the decide → dispatch loop.
//!
//! A counting global allocator wraps the system one, counted per thread
//! (`tests/support/counting_alloc.rs`). After a warm-up run, each
//! scheduler runs AR_Social for 1 s and for 2 s, and the bounds apply to
//! the difference between the two runs, so engine set-up and teardown
//! (the same in both) cancel out and only the per-decision steady state
//! is measured. Under FCFS, Veltair and the three DREAM levels a
//! decision allocates nothing: single gangs are inline and the scheduler
//! fills the engine's one decision in place
//! (`Scheduler::schedule_into`). Planaria may allocate only the member
//! list of each multi-member gang it dispatches.
//!
//! Run it in the build the benchmark measures:
//! `cargo test --release --test alloc_guard`.

use std::sync::Arc;

use dream::prelude::*;
use dream_models::ScenarioKind;
use dream_sim::{Decision, DecisionRecord, SchedulerCapabilities, SystemView, TaskEvent};

mod support {
    pub mod counting_alloc;
}

use support::counting_alloc::measured;

/// Forwards every call, `schedule_into` included, and counts decisions
/// and the multi-member gangs they dispatch.
struct Counted {
    inner: Box<dyn Scheduler>,
    decisions: u64,
    wide_gangs: u64,
}

impl Scheduler for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        self.inner.capabilities()
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, out: &mut Decision) {
        self.inner.schedule_into(view, out);
        self.decisions += 1;
        self.wide_gangs += out.assignments.iter().filter(|a| a.accs.len() > 1).count() as u64;
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        self.inner.on_task_event(event);
    }

    fn on_phase_start(&mut self, phase: usize, model_names: &[&'static str]) {
        self.inner.on_phase_start(phase, model_names);
    }

    fn take_decision_records(&mut self) -> Vec<DecisionRecord> {
        self.inner.take_decision_records()
    }
}

/// Allocations the longer run may make beyond the shorter one regardless
/// of its scheduler: the amortised doublings of the logs and queues that
/// grow with the run.
const GROWTH_ALLOWANCE: u64 = 64;

#[test]
fn decisions_do_not_allocate() {
    let builder = |ms| {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(ScenarioKind::ArSocial, CascadeProbability::default_paper());
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(ms))
            .seed(6)
    };
    let workloads: Vec<(u64, Arc<_>)> = [1000, 2000]
        .into_iter()
        .map(|ms| {
            (
                ms,
                Arc::new(builder(ms).build_workload().expect("workload builds")),
            )
        })
        .collect();
    // Allocations, decisions and multi-member gangs of one run.
    let run = |sched: &mut Counted, (ms, workload): &(u64, Arc<_>)| {
        let run = builder(*ms).prebuilt_workload(Arc::clone(workload));
        let decisions = sched.decisions;
        let gangs = sched.wide_gangs;
        let (outcome, _, allocations) = measured(|| run.run(sched).expect("simulation runs"));
        assert_eq!(outcome.metrics().invalid_decisions, 0);
        drop(outcome);
        (
            allocations,
            sched.decisions - decisions,
            sched.wide_gangs - gangs,
        )
    };

    let policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FcfsScheduler::new()),
        Box::new(VeltairScheduler::new()),
        Box::new(DreamScheduler::new(DreamConfig::mapscore())),
        Box::new(DreamScheduler::new(DreamConfig::smart_drop())),
        Box::new(DreamScheduler::new(DreamConfig::full())),
        Box::new(PlanariaScheduler::new()),
    ];
    for inner in policies {
        let mut sched = Counted {
            inner,
            decisions: 0,
            wide_gangs: 0,
        };
        run(&mut sched, &workloads[1]);
        let short = run(&mut sched, &workloads[0]);
        let long = run(&mut sched, &workloads[1]);
        let name = sched.name().to_string();
        println!(
            "{name}: 1 s run {short:?}, 2 s run {long:?} (allocations, decisions, wide gangs)"
        );
        let decisions = long.1 - short.1;
        let wide_gangs = long.2 - short.2;
        let allocations = long.0.saturating_sub(short.0);
        assert!(decisions > 2_500, "{name}: only {decisions} more decisions");
        if name == "Planaria" {
            assert!(wide_gangs > 0, "Planaria must form gangs here");
            assert!(
                allocations <= wide_gangs + GROWTH_ALLOWANCE,
                "{name}: {allocations} more allocations for {wide_gangs} more multi-member gangs"
            );
        } else {
            assert!(
                allocations <= GROWTH_ALLOWANCE,
                "{name}: {allocations} more allocations over {decisions} more decisions"
            );
        }
    }
}
