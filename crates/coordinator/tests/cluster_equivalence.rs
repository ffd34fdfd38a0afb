//! The tentpole proof: a 4-worker distributed grid run merges to
//! `Metrics` fingerprints bit-identical to the single-process run of
//! the same grid, cell by cell and in aggregate, with recorded traces
//! shipped back intact.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint (bit-identical merging is what the test
// itself asserts).
#![allow(clippy::disallowed_methods)]

use dream_bench::{run_spec, ArrivalConfig, DreamVariant, ExperimentGrid, RunSpec, SchedulerKind};
use dream_coordinator::{spawn_local_worker, CoordError, Coordinator};
use dream_core::ScoreParams;
use dream_cost::PlatformPreset;
use dream_models::{NodeId, PipelineId, ScenarioKind};

fn four_worker_cluster() -> (Vec<dream_coordinator::LocalWorker>, Coordinator) {
    let workers: Vec<_> = (0..4)
        .map(|i| spawn_local_worker(40 + i as u64).expect("worker spawns"))
        .collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = Coordinator::connect(addrs).expect("cluster reachable");
    (workers, coordinator)
}

#[test]
fn four_workers_merge_bit_identically_to_single_process() {
    let (workers, coordinator) = four_worker_cluster();
    assert_eq!(coordinator.n_workers(), 4);

    // 2 schedulers × 3 seeds = 6 cells round-robined over 4 workers, so
    // shards are uneven (2,2,1,1) — merge order must still be grid order.
    let mut grid = ExperimentGrid::new();
    for scheduler in [
        SchedulerKind::Edf,
        SchedulerKind::DreamFixed(DreamVariant::Full, Default::default()),
    ] {
        grid.add_seed_sweep(
            RunSpec::new(scheduler, ScenarioKind::ArCall, PlatformPreset::Homo4kWs2)
                .with_duration_ms(200),
            3,
        );
    }

    let distributed = coordinator
        .run_grid(&grid, true)
        .expect("distributed grid runs");
    let local = grid.run();

    assert_eq!(
        distributed.fingerprint(),
        local.fingerprint(),
        "merged fingerprint must be bit-identical to the single-process grid"
    );
    assert_eq!(distributed.outcomes().len(), grid.len());
    for (i, (run, outcome)) in local.runs().iter().zip(distributed.outcomes()).enumerate() {
        assert_eq!(outcome.index, i as u64, "outcomes arrive in grid order");
        assert_eq!(
            outcome.fingerprint,
            run.metrics.fingerprint(),
            "cell {i} fingerprint must match its local run bit-exactly"
        );
        assert_eq!(outcome.uxcost.to_bits(), run.uxcost.to_bits());
        assert!(
            !outcome.trace_csv.is_empty(),
            "record_traces ships every cell's trace back"
        );
    }

    // The merged trace artifact carries one section per cell, in order.
    let trace = distributed.merged_trace_csv();
    assert_eq!(trace.matches("# === cell").count(), grid.len());

    // The same cluster also serves live framed traffic afterwards.
    let mut live = coordinator.live().expect("live fan-out connects");
    for _ in 0..8 {
        live.submit(PipelineId(0), NodeId(0))
            .expect("submission lands");
    }
    // The fleet metrics plane sees every submission once each worker
    // has published past it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let fleet = loop {
        let view = live.fleet_view().expect("fleet view collects");
        if view.admitted >= 8 {
            break view;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fleet view stuck at {} admitted",
            view.admitted
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(fleet.workers, 4);
    assert_eq!(fleet.admitted, 8);
    assert_eq!(
        fleet.admitted + fleet.shed + fleet.rejected + fleet.ingress_backlog,
        8,
        "fleet funnel: every submission admitted, shed, rejected or queued"
    );
    live.drain_all().expect("drain broadcast");
    let mut admitted = 0u64;
    for worker in workers {
        let report = worker.shutdown().expect("worker drains cleanly");
        admitted += report.sources.iter().map(|s| s.admitted).sum::<u64>();
        for source in &report.sources {
            assert_eq!(source.submitted, source.funnel_total());
        }
    }
    assert_eq!(admitted, 8, "every live submission admitted exactly once");
}

#[test]
fn distributed_cells_match_direct_run_spec_execution() {
    // One worker is enough to prove the wire round trip alone does not
    // perturb a cell: worker-executed outcome == run_spec() locally.
    let worker = spawn_local_worker(77).expect("worker spawns");
    let coordinator =
        Coordinator::connect(vec![worker.addr().to_string()]).expect("worker reachable");

    let spec = RunSpec::new(
        SchedulerKind::DreamTuned(DreamVariant::Full),
        ScenarioKind::VrGaming,
        PlatformPreset::Homo4kWs2,
    )
    .with_duration_ms(200)
    .with_seed(9);
    let mut grid = ExperimentGrid::new();
    grid.push(spec.clone());

    let distributed = coordinator.run_grid(&grid, false).expect("grid runs");
    let direct = run_spec(&spec);
    assert_eq!(distributed.outcomes().len(), 1);
    let outcome = &distributed.outcomes()[0];
    assert_eq!(outcome.fingerprint, direct.metrics.fingerprint());
    assert_eq!(outcome.uxcost.to_bits(), direct.uxcost.to_bits());
    assert!(
        outcome.trace_csv.is_empty(),
        "traces only ship when requested"
    );

    drop(coordinator);
    worker.shutdown().expect("worker drains cleanly");
}

#[test]
fn non_periodic_cells_ship_bit_exactly() {
    // Every field of the cell format travels: Poisson and MMPP arrival
    // parameters and non-default (α, β), each by bit pattern.
    let workers: Vec<_> = (0..2)
        .map(|i| spawn_local_worker(60 + i).expect("worker spawns"))
        .collect();
    let coordinator = Coordinator::connect(workers.iter().map(|w| w.addr().to_string()).collect())
        .expect("cluster reachable");
    let spec = |scheduler| {
        RunSpec::new(scheduler, ScenarioKind::VrGaming, PlatformPreset::Homo4kWs2)
            .with_duration_ms(200)
            .with_cascade(0.3)
    };
    let fixed = SchedulerKind::DreamFixed(
        DreamVariant::SmartDrop,
        ScoreParams::new(0.37, 1.61).unwrap(),
    );
    let mut grid = ExperimentGrid::new();
    grid.push(spec(SchedulerKind::Fcfs).with_arrivals(ArrivalConfig::Poisson { intensity: 1.3 }));
    grid.push(
        spec(SchedulerKind::Planaria).with_arrivals(ArrivalConfig::Mmpp {
            calm: 0.6,
            burst: 2.5,
            p_enter: 0.1,
            p_exit: 0.3,
        }),
    );
    grid.push(spec(fixed));
    grid.push(spec(fixed).with_arrivals(ArrivalConfig::Poisson { intensity: 0.9 }));

    let distributed = coordinator.run_grid(&grid, false).expect("grid runs");
    assert_eq!(distributed.outcomes().len(), grid.len());
    for (spec, outcome) in grid.specs().iter().zip(distributed.outcomes()) {
        let local = run_spec(spec);
        assert_eq!(outcome.fingerprint, local.metrics.fingerprint(), "{spec:?}");
        assert_eq!(outcome.uxcost.to_bits(), local.uxcost.to_bits(), "{spec:?}");
    }
    assert_eq!(distributed.fingerprint(), grid.run().fingerprint());

    drop(coordinator);
    for worker in workers {
        worker.shutdown().expect("worker drains cleanly");
    }
}

#[test]
fn empty_worker_list_is_a_typed_error() {
    match Coordinator::connect(Vec::new()) {
        Err(CoordError::NoWorkers) => {}
        other => panic!("expected NoWorkers, got {other:?}"),
    }
}
