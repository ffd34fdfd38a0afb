//! Wide stepping: many [`LiveSession`]s advanced round-robin against one
//! shared workload store.
//!
//! A serving shard hosts *hundreds* of concurrent sessions of the same
//! deployment — same platform, same scenario, same cost calibration. Run
//! naively, every session would rebuild and privately own the offline
//! cost tables (the expensive, immutable majority of a session's state).
//! [`MultiSession`] amortizes that: it builds the [`WorkloadSet`] **once**
//! and installs the same `Arc` into every session, so per-session state
//! shrinks to the genuinely dynamic part — the task arena, the event
//! queue, and the metrics.
//!
//! A shard is configured by the same [`SimulationBuilder`] as a batch run
//! or a single live session, and started with its
//! [`start_multi`](SimulationBuilder::start_multi) terminal method.
//!
//! Stepping is deterministic round-robin: [`MultiSession::step_until`]
//! advances every session to the same frontier in index order. Sessions
//! share no mutable state, so the interleaving cannot couple them — each
//! session's outcome is bit-identical to running it alone (asserted by
//! the tests below), and each still carries the full per-session replay
//! guarantee of [`crate::live`].

use std::sync::Arc;

use dream_models::{NodeId, PipelineId};

use crate::engine::{SimOutcome, SimulationBuilder};
use crate::live::{Admission, LiveError, LiveSession, LiveSessionRecord, LiveStatus};
use crate::scheduler::Scheduler;
use crate::workload::WorkloadSet;
use crate::SimTime;

impl SimulationBuilder {
    /// Builds the workload once and starts `count` live sessions over it,
    /// the `i`-th under the scheduler `make_scheduler(i)` returns. Session
    /// `i` inherits every setting of
    /// [`start_live`](Self::start_live) except the seed, which is
    /// `seed + i` (wrapping past `u64::MAX`).
    ///
    /// # Errors
    ///
    /// The configuration errors of [`start_live`](Self::start_live).
    pub fn start_multi(
        self,
        count: usize,
        mut make_scheduler: impl FnMut(usize) -> Box<dyn Scheduler>,
    ) -> Result<MultiSession, LiveError> {
        let shared = self.live_workload()?;
        let sessions = (0..count)
            .map(|i| {
                let seed = self.seed.wrapping_add(i as u64);
                self.live_session(Arc::clone(&shared), seed, make_scheduler(i))
            })
            .collect();
        Ok(MultiSession { shared, sessions })
    }
}

/// Many concurrent [`LiveSession`]s over one shared workload store,
/// stepped round-robin to a common frontier.
///
/// See the [module docs](self) for the sharing and determinism model.
#[derive(Debug)]
pub struct MultiSession {
    shared: Arc<WorkloadSet>,
    sessions: Vec<LiveSession>,
}

impl MultiSession {
    /// Number of sessions (finished ones included).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the shard hosts no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The workload store every session shares.
    pub fn workload(&self) -> &Arc<WorkloadSet> {
        &self.shared
    }

    /// Borrows session `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn session(&self, index: usize) -> &LiveSession {
        &self.sessions[index]
    }

    /// Mutably borrows session `index` — for per-session orders (swap,
    /// drain) the round-robin API does not wrap.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn session_mut(&mut self, index: usize) -> &mut LiveSession {
        &mut self.sessions[index]
    }

    /// Admits one root-frame request into session `index` — exactly
    /// [`LiveSession::admit`].
    ///
    /// # Errors
    ///
    /// The session's admission errors, verbatim.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn admit(
        &mut self,
        index: usize,
        pipeline: PipelineId,
        node: NodeId,
        stamp: SimTime,
    ) -> Result<Admission, LiveError> {
        self.sessions[index].admit(pipeline, node, stamp)
    }

    /// Steps every session to `frontier`, in index order, and returns the
    /// number still running. The order is part of the determinism
    /// contract, but since sessions share no mutable state it cannot
    /// change any session's outcome — only the wall-clock interleaving.
    pub fn step_until(&mut self, frontier: SimTime) -> usize {
        let mut running = 0;
        for session in &mut self.sessions {
            if session.step_until(frontier) == LiveStatus::Running {
                running += 1;
            }
        }
        running
    }

    /// Total events pending across every session's queue — the shard's
    /// aggregate event backlog.
    pub fn event_queue_depth(&self) -> usize {
        self.sessions
            .iter()
            .map(LiveSession::event_queue_depth)
            .sum()
    }

    /// Finishes every session in index order (draining those not already
    /// drained), returning each outcome with its replayable record.
    ///
    /// # Errors
    ///
    /// Propagates the first session's finish error.
    pub fn finish(self) -> Result<Vec<(SimOutcome, LiveSessionRecord)>, LiveError> {
        self.sessions.into_iter().map(LiveSession::finish).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::DEFAULT_HORIZON_CAP_NS;
    use crate::scheduler::{Assignment, Decision, SystemView};
    use crate::workload::{ModelKey, NodeInfo};
    use dream_cost::{Platform, PlatformPreset};
    use dream_models::{CascadeProbability, Scenario, ScenarioKind};

    /// First ready task onto the first idle accelerator (the in-crate
    /// stand-in for the downstream baselines).
    #[derive(Debug, Default)]
    struct Fcfs;

    impl Scheduler for Fcfs {
        fn name(&self) -> &str {
            "fcfs-stub"
        }

        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            let mut d = Decision::none();
            let mut idle = view.idle_ids().iter();
            for &task in view.ready_ids() {
                let Some(&acc) = idle.next() else { break };
                d.assignments.push(Assignment::single(task, acc));
            }
            d
        }
    }

    fn scenario() -> Scenario {
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::new(0.5).unwrap())
    }

    fn builder() -> SimulationBuilder {
        SimulationBuilder::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario())
            .duration(SimTime::from_ns(DEFAULT_HORIZON_CAP_NS))
    }

    fn roots(ws: &WorkloadSet) -> Vec<ModelKey> {
        ws.nodes()
            .filter(|n| n.key().phase == 0 && n.parent().is_none())
            .map(NodeInfo::key)
            .collect()
    }

    /// Drives a distinct admission stream into each session, interleaved
    /// round-robin, occasionally advancing a frontier that stays strictly
    /// below every future stamp (so no admission is clamped and the same
    /// stamps can be fed to a solo session without any stepping at all).
    fn drive(
        admit: &mut dyn FnMut(usize, PipelineId, NodeId, SimTime),
        step: &mut dyn FnMut(SimTime),
        keys: &[ModelKey],
        sessions: usize,
    ) {
        let mut t = vec![0u64; sessions];
        for i in 0..60u64 {
            for (s, t) in t.iter_mut().enumerate() {
                let k = keys[((i + s as u64) % keys.len() as u64) as usize];
                *t += 600_000 + (s as u64 + 1) * 90_000 + (i % 5) * 40_000;
                admit(s, k.pipeline, k.node, SimTime::from_ns(*t));
            }
            if i % 4 == 3 {
                let min_t = *t.iter().min().unwrap();
                step(SimTime::from_ns(min_t - 500_000));
            }
        }
    }

    #[test]
    fn sessions_share_one_workload_store() {
        let multi = builder().start_multi(3, |_| Box::new(Fcfs)).unwrap();
        for i in 0..multi.len() {
            assert!(
                Arc::ptr_eq(multi.workload(), multi.session(i).workload()),
                "session {i} must borrow the shared tables, not own a copy"
            );
        }
    }

    /// The wide-stepping guarantee: a session stepped round-robin inside a
    /// shard produces bit-identical metrics to the same session run alone.
    #[test]
    fn round_robin_stepping_is_invisible_per_session() {
        const N: usize = 3;

        let multi = std::cell::RefCell::new(
            builder()
                .seed(5)
                .start_multi(N, |_| Box::new(Fcfs))
                .unwrap(),
        );
        let keys = roots(multi.borrow().workload());
        // Interleave admissions and frontier slices across sessions.
        drive(
            &mut |s, p, n, at| {
                multi.borrow_mut().admit(s, p, n, at).unwrap();
            },
            &mut |frontier| {
                multi.borrow_mut().step_until(frontier);
            },
            &keys,
            N,
        );
        let wide = multi.into_inner().finish().unwrap();

        for (s, (wide_outcome, _)) in wide.iter().enumerate() {
            let mut solo = builder()
                .seed(5 + s as u64)
                .start_live(Box::new(Fcfs))
                .unwrap();
            // Same stamps, but never stepped until the end: the solo run
            // exercises a completely different slicing.
            drive(
                &mut |which, p, n, at| {
                    if which == s {
                        solo.admit(p, n, at).unwrap();
                    }
                },
                &mut |_| {},
                &keys,
                N,
            );
            let (solo_outcome, _) = solo.finish().unwrap();
            assert_eq!(
                wide_outcome.metrics().fingerprint(),
                solo_outcome.metrics().fingerprint(),
                "session {s} diverged when stepped inside the shard"
            );
        }
    }

    #[test]
    fn aggregate_queue_depth_sums_sessions() {
        let mut multi = builder().start_multi(2, |_| Box::new(Fcfs)).unwrap();
        let keys = roots(multi.workload());
        let k = keys[0];
        // Each session starts with PhaseStart + End pending.
        let base = multi.event_queue_depth();
        assert_eq!(base, 4);
        multi
            .admit(0, k.pipeline, k.node, SimTime::from_ns(10))
            .unwrap();
        multi
            .admit(1, k.pipeline, k.node, SimTime::from_ns(10))
            .unwrap();
        assert_eq!(multi.event_queue_depth(), base + 2);
        assert_eq!(
            multi.event_queue_depth(),
            multi.session(0).event_queue_depth() + multi.session(1).event_queue_depth()
        );
    }

    /// Session `i` runs with `seed + i`, wrapping past `u64::MAX` in every
    /// build profile (plain addition panicked in debug and wrapped in
    /// release).
    #[test]
    fn session_seeds_wrap_past_u64_max() {
        let multi = builder()
            .seed(u64::MAX)
            .start_multi(2, |_| Box::new(Fcfs))
            .unwrap();
        let seeds: Vec<u64> = multi
            .finish()
            .unwrap()
            .iter()
            .map(|(_, record)| record.seed())
            .collect();
        assert_eq!(seeds, [u64::MAX, 0]);
    }
}
