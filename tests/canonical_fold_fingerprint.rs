//! Regression witness for the canonical-fold refactor (detlint D2).
//!
//! The golden fingerprints below were captured *before* the ad-hoc
//! `.sum::<f64>()` / manual `+=` folds in `dream-sim`, `dream-core`, and
//! `dream-baselines` were routed through [`dream_sim::canonical_sum`].
//! The helper replays `<f64 as Sum>`'s exact operation sequence (a
//! left-to-right fold seeded with `-0.0`), so the refactor must be a
//! bit-for-bit no-op: any drift in these fingerprints means a float fold
//! changed its operation order.

use dream::prelude::*;
use dream_baselines::PlanariaScheduler;
use dream_models::ScenarioKind;
use dream_sim::Scheduler;

const HORIZON_MS: u64 = 600;
const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;

fn fingerprint(kind: ScenarioKind, seed: u64, sched: &mut dyn Scheduler) -> u64 {
    let scenario = Scenario::new(kind, CascadeProbability::default_paper());
    SimulationBuilder::new(Platform::preset(PRESET), scenario)
        .duration(Millis::new(HORIZON_MS))
        .seed(seed)
        .run(sched)
        .expect("simulation runs")
        .into_metrics()
        .fingerprint()
}

/// Golden values captured at commit 12cd435 (pre-refactor): the
/// canonical-fold adoption must not move a single bit.
#[test]
fn canonical_fold_adoption_is_bit_identical() {
    let cases: [(ScenarioKind, u64, u64, u64); 3] = [
        (
            ScenarioKind::ArCall,
            17,
            0xc1afbce32e92dbad,
            0xeda87967b026ab92,
        ),
        (
            ScenarioKind::VrGaming,
            5,
            0xd8a6ddc52ab7b4e4,
            0x6b7dbd89703369d4,
        ),
        (
            ScenarioKind::DroneIndoor,
            2024,
            0x8302275fed4aa21d,
            0x05f5e2596013c4e0,
        ),
    ];
    for (kind, seed, golden_dream, golden_planaria) in cases {
        let mut dream = DreamScheduler::new(DreamConfig::full());
        let got = fingerprint(kind, seed, &mut dream);
        assert_eq!(
            got, golden_dream,
            "{kind:?}/{seed} DREAM-Full fingerprint drifted from the pre-refactor golden"
        );
        let mut planaria = PlanariaScheduler::new();
        let got_p = fingerprint(kind, seed, &mut planaria);
        assert_eq!(
            got_p, golden_planaria,
            "{kind:?}/{seed} Planaria fingerprint drifted from the pre-refactor golden"
        );
    }
}

/// The six Figure 7 schedulers, in the paper's order. The DREAM levels
/// run their untuned (α = β = 1) configurations, so the pins need no
/// offline tuning.
fn figure7_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(dream_baselines::FcfsScheduler::new()),
        Box::new(dream_baselines::VeltairScheduler::new()),
        Box::new(PlanariaScheduler::new()),
        Box::new(DreamScheduler::new(DreamConfig::mapscore())),
        Box::new(DreamScheduler::new(DreamConfig::smart_drop())),
        Box::new(DreamScheduler::new(DreamConfig::full())),
    ]
}

/// Seed of every Figure 7 pin.
const FIGURE7_SEED: u64 = 7;

/// Runs one Figure 7 cell: the paper's periodic arrivals, or Poisson
/// arrivals at ×1.3 load, where queues grow and the DREAM levels'
/// frame drop and supernet switching take effect.
fn figure7_fingerprint(kind: ScenarioKind, overload: bool, sched: &mut dyn Scheduler) -> u64 {
    let scenario = Scenario::new(kind, CascadeProbability::default_paper());
    let builder = SimulationBuilder::new(Platform::preset(PRESET), scenario)
        .duration(Millis::new(HORIZON_MS))
        .seed(FIGURE7_SEED);
    let builder = if overload {
        builder.arrivals(dream_sim::PoissonArrivals::new(1.3))
    } else {
        builder
    };
    builder
        .run(sched)
        .expect("simulation runs")
        .into_metrics()
        .fingerprint()
}

/// Golden fingerprints of every Figure 7 scheduler on every scenario,
/// rows in `ScenarioKind::all()` order (periodic arrivals first, then
/// Poisson ×1.3) and columns in `figure7_schedulers()` order. Captured
/// before the engine's O(1) task index and Planaria's gang-cost memo:
/// both are pure refactors and must not move a bit.
#[rustfmt::skip]
const FIGURE7_GOLDEN: [[u64; 6]; 10] = [
    [0x1c26e0ffa4467539, 0xbe424e69cf0b161e, 0x5541a027285ac854, 0x25fd56a976fa60fc, 0x25fd56a976fa60fc, 0x25fd56a976fa60fc],
    [0x80de2283cf96e875, 0x58536dd676250c1a, 0xbbf0879ba3faf3e9, 0x1c6c90892e2827cc, 0x1c6c90892e2827cc, 0x1c6c90892e2827cc],
    [0xa34a6129529ccae9, 0x2a1f211b12a68292, 0x03af6495bf64cd9d, 0x48037e174ef644b6, 0x48037e174ef644b6, 0x48037e174ef644b6],
    [0x91a62b3d00ef1292, 0x65f7c8765af76740, 0x65422c6e3ccaaad4, 0x5ad3b41304fe6b42, 0x5ad3b41304fe6b42, 0x5ad3b41304fe6b42],
    [0x172124f06e3ecb62, 0x2a1a5ba76a9e5086, 0x96eeea07e7ea4941, 0x6da20e360c4d18ff, 0x6da20e360c4d18ff, 0xa742108667938931],
    [0x69df9f497945c851, 0x1e3de04cf895a837, 0x58f26baf76072f3c, 0xcbd1a164d6833e8e, 0x0375149116bc8599, 0x8e9610fb05ac683c],
    [0xf851d097280f6705, 0xacaddd86cc55a0d5, 0x7828518062cf0be8, 0x48b98a763f3cad9d, 0x48b98a763f3cad9d, 0x48b98a763f3cad9d],
    [0xf6d581e769a39364, 0x715e8d2b03870954, 0x6a2216c5b32f3e71, 0x379a868ec973a238, 0x279c5dfde9411bbe, 0x279c5dfde9411bbe],
    [0xdeee91c18ed2be02, 0x7cd132e02955de06, 0x345eab07b68a5031, 0x03c1906b7b8cdd8e, 0xd2771c8ccac87da7, 0xd2771c8ccac87da7],
    [0x4fae024566a9c1c3, 0xdeec778e06bb6ff0, 0x3412f83b9a391ec9, 0x1fc8142a51de5135, 0x06199f164f04842f, 0xc7412b606fe3f7cb],
];

#[test]
fn figure7_set_fingerprints_are_pinned() {
    let mut got = [[0u64; 6]; 10];
    for (row, (overload, kind)) in [false, true]
        .into_iter()
        .flat_map(|o| ScenarioKind::all().map(|k| (o, k)))
        .enumerate()
    {
        for (col, mut sched) in figure7_schedulers().into_iter().enumerate() {
            got[row][col] = figure7_fingerprint(kind, overload, sched.as_mut());
        }
        for (col, sched) in figure7_schedulers().iter().enumerate() {
            assert_eq!(
                got[row][col],
                FIGURE7_GOLDEN[row][col],
                "{kind:?}/{FIGURE7_SEED} (overload: {overload}) {} fingerprint drifted from its golden",
                sched.name()
            );
        }
    }
}
