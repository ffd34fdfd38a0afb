//! The grid-cell format `RunSpec::encode` / `RunSpec::decode` owns:
//! bit-exact round trips, total decoding of peer bytes, validation of
//! every parameter a run would otherwise assert on, and refusal of
//! process-local state.

use std::sync::Arc;

use dream_bench::{ArrivalConfig, DreamVariant, RunSpec, SchedulerKind};
use dream_core::ScoreParams;
use dream_cost::{CostModel, PlatformPreset};
use dream_models::ScenarioKind;
use proptest::prelude::*;

fn arb_variant() -> impl Strategy<Value = DreamVariant> {
    prop_oneof![
        Just(DreamVariant::MapScore),
        Just(DreamVariant::SmartDrop),
        Just(DreamVariant::Full),
    ]
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Fcfs),
        Just(SchedulerKind::Static),
        Just(SchedulerKind::Edf),
        Just(SchedulerKind::Veltair),
        Just(SchedulerKind::Planaria),
        // α and β anywhere in [0, 2], the range `ScoreParams` accepts.
        (arb_variant(), 0u64..2049, 0u64..2049).prop_map(|(variant, a, b)| {
            let params = ScoreParams::new(a as f64 / 1024.0, b as f64 / 1024.0).unwrap();
            SchedulerKind::DreamFixed(variant, params)
        }),
        arb_variant().prop_map(SchedulerKind::DreamTuned),
    ]
}

fn arb_arrival() -> impl Strategy<Value = ArrivalConfig> {
    prop_oneof![
        Just(ArrivalConfig::Periodic),
        (1u64..4096).prop_map(|i| ArrivalConfig::Poisson {
            intensity: i as f64 / 256.0,
        }),
        (1u64..4096, 1u64..4096, 0.0f64..1.0, 0.0f64..1.0).prop_map(
            |(calm, burst, p_enter, p_exit)| ArrivalConfig::Mmpp {
                calm: calm as f64 / 256.0,
                burst: burst as f64 / 256.0,
                p_enter,
                p_exit,
            }
        ),
    ]
}

fn arb_spec() -> impl Strategy<Value = RunSpec> {
    (
        arb_scheduler(),
        0usize..ScenarioKind::all().len(),
        0usize..PlatformPreset::all().len(),
        0.0f64..1.0,
        (1u64..4000, any::<u64>(), arb_arrival()),
    )
        .prop_map(
            |(scheduler, scenario, preset, cascade, (duration, seed, arrival))| {
                RunSpec::new(
                    scheduler,
                    ScenarioKind::all()[scenario],
                    PlatformPreset::all()[preset],
                )
                .with_cascade(cascade)
                .with_duration_ms(duration)
                .with_seed(seed)
                .with_arrivals(arrival)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode→decode is bit-exact: the decoded spec equals the original
    /// and re-encodes to the same bytes, so every float kept its bits.
    #[test]
    fn specs_round_trip_bit_exactly(spec in arb_spec()) {
        let bytes = spec.encode().expect("analytical specs encode");
        let decoded = RunSpec::decode(&bytes).expect("encoded specs decode");
        prop_assert_eq!(&decoded, &spec);
        prop_assert_eq!(decoded.encode().unwrap(), bytes);
    }

    /// Totality: no byte soup panics the decoder.
    #[test]
    fn decoder_never_panics_on_wild_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..128)
    ) {
        let _ = RunSpec::decode(&bytes);
    }

    /// Nor does a valid cell with one byte overwritten, which reaches the
    /// parameter checks that wild bytes rarely get to. Every strict
    /// prefix of a valid cell is refused.
    #[test]
    fn corrupted_and_truncated_cells_never_panic(
        spec in arb_spec(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let bytes = spec.encode().unwrap();
        let at = at % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[at] = byte;
        let _ = RunSpec::decode(&corrupted);
        prop_assert!(RunSpec::decode(&bytes[..at]).is_err());
    }

    /// A custom cost backend is process-local state, so encoding it is
    /// refused, even when it prices exactly like the analytical default.
    #[test]
    fn custom_backends_are_refused(spec in arb_spec()) {
        let custom = spec.with_cost_backend(Arc::new(CostModel::paper_default()));
        prop_assert!(custom.encode().unwrap_err().contains("cost backend"));
    }
}

/// Every parameter `run_spec` would assert on is refused at decode time
/// with a reason, so it never reaches a worker's run.
#[test]
fn out_of_range_parameters_are_refused_at_decode() {
    let base = RunSpec::new(
        SchedulerKind::Fcfs,
        ScenarioKind::ArCall,
        PlatformPreset::Homo4kWs2,
    );
    let mmpp = |burst, p_enter| ArrivalConfig::Mmpp {
        calm: 1.0,
        burst,
        p_enter,
        p_exit: 0.5,
    };
    let cases = [
        (
            "poisson 0",
            base.clone()
                .with_arrivals(ArrivalConfig::Poisson { intensity: 0.0 }),
        ),
        (
            "poisson NaN",
            base.clone().with_arrivals(ArrivalConfig::Poisson {
                intensity: f64::NAN,
            }),
        ),
        (
            "mmpp p_enter 1.5",
            base.clone().with_arrivals(mmpp(2.0, 1.5)),
        ),
        ("mmpp burst -1", base.clone().with_arrivals(mmpp(-1.0, 0.5))),
        ("duration 0", base.clone().with_duration_ms(0)),
        ("cascade 1.5", base.clone().with_cascade(1.5)),
        ("cascade NaN", base.with_cascade(f64::NAN)),
    ];
    for (what, spec) in cases {
        let bytes = spec.encode().expect("encode leaves validation to decode");
        let err = RunSpec::decode(&bytes).expect_err(what);
        assert!(err.starts_with("bad cell: "), "{what}: {err}");
    }
}

#[test]
fn unknown_names_are_refused_at_decode() {
    let bytes = RunSpec::new(
        SchedulerKind::Fcfs,
        ScenarioKind::ArCall,
        PlatformPreset::Homo4kWs2,
    )
    .encode()
    .unwrap();
    for (name, bad) in [(&b"AR_Call"[..], &b"XR_Call"[..]), (b"4K 2WS", b"9K 2WS")] {
        let at = bytes
            .windows(name.len())
            .position(|w| w == name)
            .expect("names travel as strings");
        let mut renamed = bytes.clone();
        renamed[at..at + name.len()].copy_from_slice(bad);
        let err = RunSpec::decode(&renamed).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
    }
}
