//! Property-based tests on the analytical cost model.

use dream_cost::{AcceleratorConfig, CostBackend, CostModel, Dataflow, Platform};
use dream_models::{Layer, LayerKind};
use proptest::prelude::*;

fn arb_layer() -> impl Strategy<Value = Layer> {
    prop_oneof![
        (1u32..200, 1u32..200, 1u32..64, 1u32..64, 1u32..4, 1u32..3).prop_map(
            |(h, w, ci, co, k, s)| Layer::new(
                "c",
                LayerKind::Conv2d {
                    in_h: h,
                    in_w: w,
                    in_c: ci * 2,
                    out_c: co * 2,
                    kernel: 2 * k - 1,
                    stride: s,
                    groups: 1,
                }
            )
            .unwrap()
        ),
        (1u32..64, 1u32..2048, 1u32..2048).prop_map(|(m, n, k)| Layer::new(
            "g",
            LayerKind::Gemm { m, n, k }
        )
        .unwrap()),
        (1u64..5_000_000)
            .prop_map(|e| Layer::new("e", LayerKind::Elementwise { elems: e }).unwrap()),
    ]
}

fn arb_acc() -> impl Strategy<Value = AcceleratorConfig> {
    (
        7u32..14, // PE count = 2^exp
        any::<bool>(),
        1u32..10,
    )
        .prop_map(|(exp, ws, bw)| {
            AcceleratorConfig::new(
                "p",
                1 << exp,
                if ws {
                    Dataflow::WeightStationary
                } else {
                    Dataflow::OutputStationary
                },
                0.7,
                f64::from(bw) * 10.0,
                4 << 20,
            )
            .unwrap()
        })
}

proptest! {
    /// Costs are finite and positive for every layer × accelerator pair,
    /// and utilisation is a true fraction.
    #[test]
    fn costs_are_finite_positive(layer in arb_layer(), acc in arb_acc()) {
        let model = CostModel::paper_default();
        let c = model.layer_cost(&layer, &acc);
        prop_assert!(c.latency_ns.is_finite() && c.latency_ns > 0.0);
        prop_assert!(c.energy_pj.is_finite() && c.energy_pj > 0.0);
        prop_assert!(c.compute_ns.is_finite() && c.compute_ns > 0.0);
        prop_assert!(c.dram_ns.is_finite() && c.dram_ns > 0.0);
        prop_assert!((0.0..=1.0).contains(&c.utilization));
        prop_assert!(c.latency_ns >= c.compute_ns.max(c.dram_ns));
    }

    /// Doubling the PE count never slows a layer down (same bandwidth).
    #[test]
    fn more_pes_never_hurt(layer in arb_layer(), exp in 7u32..13, ws in any::<bool>()) {
        let model = CostModel::paper_default();
        let df = if ws { Dataflow::WeightStationary } else { Dataflow::OutputStationary };
        let small =
            AcceleratorConfig::new("s", 1 << exp, df, 0.7, 45.0, 4 << 20).unwrap();
        let big =
            AcceleratorConfig::new("b", 1 << (exp + 1), df, 0.7, 45.0, 4 << 20).unwrap();
        let ls = model.layer_cost(&layer, &small).latency_ns;
        let lb = model.layer_cost(&layer, &big).latency_ns;
        prop_assert!(lb <= ls + 1e-6, "big {lb} > small {ls}");
    }

    /// More bandwidth never slows a layer down (same PEs).
    #[test]
    fn more_bandwidth_never_hurts(layer in arb_layer(), bw in 1.0f64..80.0) {
        let model = CostModel::paper_default();
        let slow = AcceleratorConfig::new(
            "s", 2048, Dataflow::WeightStationary, 0.7, bw, 4 << 20).unwrap();
        let fast = AcceleratorConfig::new(
            "f", 2048, Dataflow::WeightStationary, 0.7, bw * 2.0, 4 << 20).unwrap();
        prop_assert!(
            model.layer_cost(&layer, &fast).latency_ns
                <= model.layer_cost(&layer, &slow).latency_ns + 1e-6
        );
    }

    /// Gangs are never slower than their lead member, and a gang of one is
    /// exactly the single-accelerator cost.
    #[test]
    fn gang_cost_sane(layer in arb_layer(), exp in 8u32..12) {
        let model = CostModel::paper_default();
        let a =
            AcceleratorConfig::new("a", 1 << exp, Dataflow::WeightStationary, 0.7, 30.0, 4 << 20)
                .unwrap();
        let b =
            AcceleratorConfig::new("b", 1 << exp, Dataflow::WeightStationary, 0.7, 30.0, 4 << 20)
                .unwrap();
        let single = model.layer_cost(&layer, &a);
        let gang1 = model.gang_cost(&layer, &[&a]);
        prop_assert!((single.latency_ns - gang1.latency_ns).abs() < 1e-9);
        let gang2 = model.gang_cost(&layer, &[&a, &b]);
        // A gang has double resources but pays overhead; it must at least
        // never exceed the overhead-scaled single cost.
        prop_assert!(gang2.latency_ns <= single.latency_ns * 1.25 + 1e-6);
    }

    /// Switch cost is monotone in bytes and zero for zero bytes.
    #[test]
    fn switch_cost_monotone(inc in 0u64..10_000_000, out in 0u64..10_000_000) {
        let model = CostModel::paper_default();
        let acc =
            AcceleratorConfig::new("a", 2048, Dataflow::WeightStationary, 0.7, 45.0, 4 << 20)
                .unwrap();
        let a = CostBackend::switch_cost(&model, inc, out, &acc).unwrap();
        let b = CostBackend::switch_cost(&model, inc + 1, out + 1, &acc).unwrap();
        prop_assert!(b.latency_ns >= a.latency_ns);
        prop_assert!(b.energy_pj >= a.energy_pj);
        let zero = CostBackend::switch_cost(&model, 0, 0, &acc).unwrap();
        prop_assert_eq!(zero.latency_ns, 0.0);
    }
}

#[test]
fn preset_tables_agree_with_direct_queries() {
    // Cross-check: preset accelerators queried directly equal the same
    // accelerators inside a platform (no hidden state).
    let platform = Platform::preset(dream_cost::PlatformPreset::Hetero4kWs1Os2);
    let model = CostModel::paper_default();
    let layer = Layer::new(
        "x",
        LayerKind::Conv2d {
            in_h: 56,
            in_w: 56,
            in_c: 64,
            out_c: 64,
            kernel: 3,
            stride: 1,
            groups: 1,
        },
    )
    .unwrap();
    for acc in platform.accelerators() {
        let a = model.layer_cost(&layer, acc);
        let b = model.layer_cost(&layer, acc);
        assert_eq!(a, b);
    }
}
