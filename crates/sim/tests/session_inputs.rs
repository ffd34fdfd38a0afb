//! Random input sequences against the one way into a live session,
//! `LiveSession::apply`: a solo session and a shard of two sessions over
//! one prebuilt workload take the same sequence. Every input either
//! applies or is refused with a typed error, the solo session and the
//! shard's first session (same seed, same inputs, same steps) agree on
//! every result, and after `finish` each record replays to the live
//! fingerprint and the live flight-recorder trace, byte for byte — also
//! from its arrival trace saved as CSV and loaded back.

mod inputs;

use std::sync::Arc;

use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{
    Applied, ArrivalTrace, Assignment, Decision, LiveError, LiveSession, LiveSessionRecord,
    Scheduler, SimError, SimOutcome, SimTime, SimulationBuilder, SystemView, TraceConfig,
};
use inputs::{op_sequence, Op, SPAN_NS};
use proptest::prelude::*;

struct Greedy;
impl Scheduler for Greedy {
    fn name(&self) -> &str {
        "greedy"
    }
    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut d = Decision::none();
        let mut ready: Vec<_> = view.ready_tasks().collect();
        ready.sort_by_key(|t| (t.deadline(), t.id()));
        let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
        for t in ready {
            let Some(acc) = idle.pop() else { break };
            d.assignments.push(Assignment::single(t.id(), acc));
        }
        d
    }
}

fn builder(seed: u64) -> SimulationBuilder {
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    SimulationBuilder::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario)
        .duration(SimTime::from_ns(SPAN_NS * 4 / 5))
        .seed(seed)
        .trace(TraceConfig::default())
}

/// Applies `op` to `session`, stepping it for a step op, and checks that
/// a refusal is one of the typed errors an input can meet.
fn run_op(session: &mut LiveSession, op: &Op) -> Option<Result<Applied, LiveError>> {
    if let Some(frontier) = op.frontier(session) {
        session.step_until(frontier);
        return None;
    }
    let input = op.input(session).expect("not a step");
    let result = session.apply(input);
    if let Err(e) = &result {
        assert!(
            matches!(
                e,
                LiveError::UnknownModel { .. }
                    | LiveError::Draining
                    | LiveError::Finished
                    | LiveError::SwapPending { .. }
                    | LiveError::PastHorizon { .. }
                    | LiveError::Sim(SimError::InvalidFault { .. })
            ),
            "{op:?} met an untyped refusal: {e:?}"
        );
    }
    Some(result)
}

/// The replay guarantee for one finished session: fingerprint and
/// flight-recorder CSV equal the live run's, from the in-memory record
/// and from its arrival trace round-tripped through CSV.
fn assert_replays(live: &SimOutcome, record: &LiveSessionRecord, ops: &[Op]) {
    let replay = record
        .replay_traced(TraceConfig::default(), &mut Greedy)
        .unwrap();
    assert_eq!(
        live.metrics().fingerprint(),
        replay.metrics().fingerprint(),
        "replay diverged under {ops:?}"
    );
    assert_eq!(live.final_time(), replay.final_time());
    assert_eq!(
        live.trace().expect("live traced").to_csv(),
        replay.trace().expect("replay traced").to_csv(),
        "trace bytes diverged under {ops:?}"
    );
    let loaded = ArrivalTrace::parse("saved", &record.trace().to_csv()).unwrap();
    let reloaded = record.replay_trace(loaded, &mut Greedy).unwrap();
    assert_eq!(
        live.metrics().fingerprint(),
        reloaded.metrics().fingerprint()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_input_sequences_replay_exactly(ops in op_sequence(), seed in 0u64..1_000) {
        let mut solo = builder(seed).start_live(Box::new(Greedy)).unwrap();
        let ws = Arc::new(builder(seed).build_workload().unwrap());
        let mut shard: Vec<LiveSession> = (0..2u64)
            .map(|i| {
                builder(seed.wrapping_add(i))
                    .prebuilt_workload(Arc::clone(&ws))
                    .start_live(Box::new(Greedy))
                    .unwrap()
            })
            .collect();
        for op in &ops {
            let result = run_op(&mut solo, op);
            if let Some(frontier) = op.frontier(&shard[0]) {
                for session in &mut shard {
                    session.step_until(frontier);
                }
                continue;
            }
            for (i, session) in shard.iter_mut().enumerate() {
                let wide = run_op(session, op);
                prop_assert_eq!(&wide, &result, "session {} diverged at {:?}", i, op);
            }
        }
        let (live, record) = solo.finish().unwrap();
        assert_replays(&live, &record, &ops);
        let wide: Vec<_> = shard.into_iter().map(|s| s.finish().unwrap()).collect();
        prop_assert_eq!(
            wide[0].0.metrics().fingerprint(),
            live.metrics().fingerprint(),
            "stepping inside the shard changed the session"
        );
        for (outcome, record) in &wide {
            assert_replays(outcome, record, &ops);
        }
    }
}
