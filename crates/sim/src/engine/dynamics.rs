//! Workload dynamics: the deterministic-coin resolution of cascade edges
//! (model-level dynamicity) and skip/early-exit gates (operator-level
//! dynamicity, §2.2 of the paper).

use crate::determ::DeterministicCoin;
use crate::scheduler::Scheduler;
use crate::task::Task;
use crate::workload::{ModelKey, NodeInfo};

use super::Engine;

/// Gate-id namespaces for the deterministic coin, so cascade, skip, and
/// exit draws never collide (arrival draws use 3000+; see
/// [`crate::arrivals`]).
const GATE_CASCADE: u64 = 0;
const GATE_SKIP_BASE: u64 = 1_000;
const GATE_EXIT_BASE: u64 = 2_000;

/// Resolves the skip/exit gates revealed by completing the layer at
/// `graph_idx` of `task`.
pub(crate) fn resolve_operator_gates(coin: &DeterministicCoin, task: &mut Task, graph_idx: usize) {
    let key = task.key();
    let coin_pl = key.coin_channel();
    let g = graph_idx;
    if let Some(exit) = task.pending_exit_after(g) {
        let take = coin.decide(
            coin_pl,
            key.node.0,
            task.frame(),
            GATE_EXIT_BASE + g as u64,
            exit.p_exit,
        );
        task.resolve_exit(g, take);
    }
    if !task.is_complete() {
        if let Some(blk) = task.pending_skip_starting_at(g + 1) {
            let skip = coin.decide(
                coin_pl,
                key.node.0,
                task.frame(),
                GATE_SKIP_BASE + (g as u64 + 1),
                blk.p_skip,
            );
            task.resolve_skip(g + 1, skip);
        }
    }
}

impl Engine {
    /// Fires the cascade children of a completed task (model-level
    /// dynamicity): each control-dependent child releases with its edge
    /// probability, drawn from the counter-based coin so realization is
    /// scheduler-independent.
    pub(crate) fn fire_cascades(
        &mut self,
        task: &Task,
        node: &NodeInfo,
        scheduler: &mut dyn Scheduler,
    ) {
        let key = task.key();
        let phase_end = self.ws.phases()[key.phase].end;
        if self.now >= phase_end {
            return;
        }
        let coin_pl = key.coin_channel();
        for &child in node.children() {
            let child_key = ModelKey {
                phase: key.phase,
                pipeline: key.pipeline,
                node: child,
            };
            let p = self
                .ws
                .node(child_key)
                .cascade()
                .map(|c| c.value())
                .unwrap_or(1.0);
            if self
                .coin
                .decide(coin_pl, child.0, task.frame(), GATE_CASCADE, p)
            {
                self.release_task(child_key, task.frame(), task.frame_arrival(), scheduler);
            }
        }
    }
}
