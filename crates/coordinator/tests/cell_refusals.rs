//! A worker refuses bad cells with a typed reply instead of panicking:
//! every parameter a run would assert on is checked when the cell is
//! decoded, the connection keeps serving afterwards, and each refused
//! batch costs exactly one `rejected_invalid`.

use dream_bench::{run_spec, ArrivalConfig, RunSpec, SchedulerKind, MAX_CELL_WORK_MS};
use dream_coordinator::spawn_local_worker;
use dream_cost::PlatformPreset;
use dream_models::ScenarioKind;
use dream_serve::{ClientError, ErrorCode, SessionReport, WireClient};

fn base() -> RunSpec {
    RunSpec::new(
        SchedulerKind::Fcfs,
        ScenarioKind::ArCall,
        PlatformPreset::Homo4kWs2,
    )
    .with_duration_ms(100)
}

fn expect_invalid(client: &mut WireClient, cells: Vec<(u64, Vec<u8>)>, what: &str) {
    match client.run_cells(cells, false) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Invalid, "{what}"),
        other => panic!("{what}: expected an invalid reply, got {other:?}"),
    }
}

/// Every source's funnel balances; returns the summed `rejected_invalid`.
fn rejected_invalid(report: &SessionReport) -> u64 {
    for source in &report.sources {
        assert_eq!(source.submitted, source.funnel_total(), "{}", source.label);
    }
    report.sources.iter().map(|s| s.rejected_invalid).sum()
}

#[test]
fn hostile_cells_are_refused_and_the_connection_keeps_serving() {
    let worker = spawn_local_worker(5).expect("worker spawns");
    let mut client = WireClient::connect_tcp(worker.addr()).expect("worker reachable");
    let mmpp = ArrivalConfig::Mmpp {
        calm: 1.0,
        burst: 2.0,
        p_enter: 1.5,
        p_exit: 0.5,
    };
    let hostile = [
        (
            "poisson 0",
            base().with_arrivals(ArrivalConfig::Poisson { intensity: 0.0 }),
        ),
        (
            "poisson NaN",
            base().with_arrivals(ArrivalConfig::Poisson {
                intensity: f64::NAN,
            }),
        ),
        ("mmpp p_enter 1.5", base().with_arrivals(mmpp)),
        ("duration 0", base().with_duration_ms(0)),
    ];
    for (what, spec) in &hostile {
        expect_invalid(&mut client, vec![(0, spec.encode().unwrap())], what);
    }

    // The same connection then runs a valid cell, bit-identically.
    let spec = base();
    let outcomes = client
        .run_cells(vec![(7, spec.encode().unwrap())], false)
        .expect("a valid cell runs after the refusals");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].index, 7);
    assert_eq!(
        outcomes[0].fingerprint,
        run_spec(&spec).metrics.fingerprint()
    );

    drop(client);
    let report = worker.shutdown().expect("worker drains cleanly");
    assert_eq!(rejected_invalid(&report), hostile.len() as u64);
}

#[test]
fn refused_batches_count_one_invalid_each() {
    let worker = spawn_local_worker(6).expect("worker spawns");
    let mut client = WireClient::connect_tcp(worker.addr()).expect("worker reachable");
    let good = base().encode().unwrap();
    let mut unknown_scenario = good.clone();
    let at = good
        .windows(7)
        .position(|w| w == b"AR_Call")
        .expect("the scenario travels by name");
    unknown_scenario[at..at + 7].copy_from_slice(b"XR_Call");

    let batches = [
        ("bad scheduler tag", vec![(0, vec![0xFF])]),
        ("unknown scenario", vec![(0, unknown_scenario)]),
        (
            "zero duration",
            vec![(0, base().with_duration_ms(0).encode().unwrap())],
        ),
        // A batch with one bad cell is refused whole, and counts once.
        (
            "mixed batch",
            vec![(0, good.clone()), (1, Vec::new()), (2, vec![0xFF])],
        ),
    ];
    for (what, cells) in &batches {
        expect_invalid(&mut client, cells.clone(), what);
    }
    client
        .run_cells(vec![(0, good)], false)
        .expect("the connection keeps serving");

    drop(client);
    let report = worker.shutdown().expect("worker drains cleanly");
    assert_eq!(rejected_invalid(&report), batches.len() as u64);
}

/// One cell cannot demand unbounded work: a horizon times peak arrival
/// intensity over the budget is refused at decode with one
/// `rejected_invalid`, however small the overshoot, while a cell at the
/// budget still decodes; the connection then runs a valid cell
/// bit-identically to `run_spec`.
#[test]
fn cells_over_the_work_budget_are_refused() {
    let worker = spawn_local_worker(7).expect("worker spawns");
    let mut client = WireClient::connect_tcp(worker.addr()).expect("worker reachable");
    let budget_ms = MAX_CELL_WORK_MS as u64;
    let hostile = [
        (
            "periodic, one ms over",
            base().with_duration_ms(budget_ms + 1),
        ),
        (
            "poisson at twice the budget",
            base()
                .with_duration_ms(budget_ms / 2)
                .with_arrivals(ArrivalConfig::Poisson { intensity: 4.0 }),
        ),
        (
            "mmpp bursts over the budget",
            base()
                .with_duration_ms(1_000)
                .with_arrivals(ArrivalConfig::Mmpp {
                    calm: 1.0,
                    burst: MAX_CELL_WORK_MS,
                    p_enter: 0.1,
                    p_exit: 0.5,
                }),
        ),
        (
            "poisson 1e300",
            base().with_arrivals(ArrivalConfig::Poisson { intensity: 1e300 }),
        ),
        ("duration u64::MAX", base().with_duration_ms(u64::MAX)),
    ];
    for (what, spec) in &hostile {
        expect_invalid(&mut client, vec![(0, spec.encode().unwrap())], what);
    }
    for admitted in [
        base().with_duration_ms(budget_ms),
        base()
            .with_duration_ms(2_000)
            .with_arrivals(ArrivalConfig::Mmpp {
                calm: 0.8,
                burst: 2.5,
                p_enter: 0.2,
                p_exit: 0.25,
            }),
    ] {
        let bytes = admitted.encode().unwrap();
        assert!(
            RunSpec::decode(&bytes).is_ok(),
            "{admitted:?} is within budget"
        );
    }

    let spec = base();
    let outcomes = client
        .run_cells(vec![(3, spec.encode().unwrap())], false)
        .expect("a valid cell runs after the refusals");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(
        outcomes[0].fingerprint,
        run_spec(&spec).metrics.fingerprint()
    );

    drop(client);
    let report = worker.shutdown().expect("worker drains cleanly");
    assert_eq!(rejected_invalid(&report), hostile.len() as u64);
}
