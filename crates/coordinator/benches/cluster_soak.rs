//! Distributed soak: a 4-worker in-process cluster runs a real
//! experiment grid over the wire protocol and must merge to the exact
//! single-process fingerprint, then absorb a live fan-out of framed
//! submissions before draining cleanly.
//!
//! This is the soak-scale companion of
//! `tests/cluster_equivalence.rs`: a bigger grid, wall-clock
//! throughput reporting, and the live-ingress path exercised on top of
//! the cell fabric.

// Benchmarks measure wall time by definition; exempt from the
// workspace determinism lint on wall-clock reads.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use dream_bench::{DreamVariant, ExperimentGrid, RunSpec, SchedulerKind};
use dream_coordinator::{spawn_local_worker, Coordinator};
use dream_cost::PlatformPreset;
use dream_models::{NodeId, PipelineId, ScenarioKind};

const N_WORKERS: usize = 4;
const LIVE_SUBMISSIONS: usize = 256;

fn main() {
    let workers: Vec<_> = (0..N_WORKERS)
        .map(|i| spawn_local_worker(100 + i as u64).expect("worker spawns"))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = Coordinator::connect(addrs).expect("cluster reachable");

    // A grid wide enough that every worker gets several cells: 2
    // schedulers × 2 scenarios × 4 seeds = 16 cells, round-robined 4
    // per worker.
    let mut grid = ExperimentGrid::new();
    for scenario in [ScenarioKind::ArCall, ScenarioKind::VrGaming] {
        for scheduler in [
            SchedulerKind::Fcfs,
            SchedulerKind::DreamFixed(DreamVariant::Full, Default::default()),
        ] {
            grid.add_seed_sweep(
                RunSpec::new(scheduler, scenario, PlatformPreset::Homo4kWs2).with_duration_ms(300),
                4,
            );
        }
    }

    let t0 = Instant::now();
    let distributed = coordinator
        .run_grid(&grid, true)
        .expect("distributed grid runs");
    let dist_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let local = grid.run();
    let local_wall = t1.elapsed().as_secs_f64();

    assert_eq!(
        distributed.fingerprint(),
        local.fingerprint(),
        "distributed merge must be bit-identical to the single-process grid"
    );
    let trace = distributed.merged_trace_csv();
    assert!(
        trace.matches("# === cell").count() == grid.len(),
        "every cell ships its recorded trace"
    );
    println!(
        "cluster soak: {} cells on {N_WORKERS} workers in {dist_wall:.2} s \
         ({:.1} cells/s; single-process {local_wall:.2} s), fingerprint {:016x}",
        grid.len(),
        grid.len() as f64 / dist_wall.max(1e-9),
        distributed.fingerprint(),
    );

    // Live fan-out on the same fleet: framed submissions round-robin
    // across workers, then a broadcast drain.
    let mut live = coordinator.live().expect("live fan-out connects");
    for _ in 0..LIVE_SUBMISSIONS {
        live.submit(PipelineId(0), NodeId(0))
            .expect("submission lands");
    }
    live.drain_all().expect("drain broadcast");
    let mut admitted = 0u64;
    for worker in workers {
        let report = worker.shutdown().expect("worker drains cleanly");
        admitted += report.sources.iter().map(|s| s.admitted).sum::<u64>();
    }
    assert_eq!(
        admitted, LIVE_SUBMISSIONS as u64,
        "every live submission admitted exactly once across the fleet"
    );
    println!("cluster_soak ok: {LIVE_SUBMISSIONS} live submissions admitted across the fleet");
}
