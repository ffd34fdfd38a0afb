//! Differential conformance suite: every [`CostBackend`] answers the same
//! contract, and a table exported from the analytical backend and
//! re-imported reproduces it **bit-for-bit** — per [`LayerCost`] cell,
//! per gang, per switch factor, through both text formats.
//!
//! (The end-to-end half — bit-identical `MapScore` tables and `Metrics`
//! fingerprints across a 5-scenario × 4-seed grid — lives in the
//! workspace-level `tests/backend_fingerprint.rs`, which may depend on
//! the simulator.)

use dream_cost::{CostBackend, CostModel, CostParams, Platform, PlatformPreset, TableBackend};
use dream_models::{CascadeProbability, Layer, Scenario, ScenarioKind};

/// Every distinct layer deployed by `kind` (all pipelines, all variants).
fn scenario_layers(kind: ScenarioKind) -> Vec<Layer> {
    let scenario = Scenario::new(kind, CascadeProbability::default_paper());
    let mut layers = Vec::new();
    for pipeline in scenario.pipelines() {
        for node in pipeline.nodes() {
            for graph in node.model.variants() {
                layers.extend(graph.layers().iter().cloned());
            }
        }
    }
    layers
}

fn assert_costs_bit_equal(a: &dream_cost::LayerCost, b: &dream_cost::LayerCost, what: &str) {
    for (field, x, y) in [
        ("latency_ns", a.latency_ns, b.latency_ns),
        ("energy_pj", a.energy_pj, b.energy_pj),
        ("compute_ns", a.compute_ns, b.compute_ns),
        ("dram_ns", a.dram_ns, b.dram_ns),
        ("sram_bytes", a.sram_bytes, b.sram_bytes),
        ("dram_bytes", a.dram_bytes, b.dram_bytes),
        ("utilization", a.utilization, b.utilization),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {field} diverged ({x} vs {y})"
        );
    }
}

/// All ordered multi-member gangs a ≤3-accelerator platform can form.
fn ordered_gangs(platform: &Platform) -> Vec<Vec<usize>> {
    let n = platform.len();
    let mut out = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            out.push(vec![a, b]);
            for c in 0..n {
                if c != a && c != b {
                    out.push(vec![a, b, c]);
                }
            }
        }
    }
    out
}

/// The core differential property: export → import round trips are
/// bit-identical to the source backend on every query the simulator can
/// make, for every scenario's layer set, on heterogeneous and homogeneous
/// platforms, through the CSV document format.
#[test]
fn exported_table_reproduces_analytical_backend_bit_for_bit() {
    for preset in [PlatformPreset::Hetero4kWs1Os2, PlatformPreset::Homo8kWs2] {
        let platform = Platform::preset(preset);
        let model = CostModel::paper_default();
        for kind in ScenarioKind::all() {
            let layers = scenario_layers(kind);
            assert!(!layers.is_empty(), "{kind}: no layers");
            let derived = TableBackend::derive("conformance", &model, &platform, &layers).unwrap();
            // Round-trip through CSV; the reload must be a bit-exact clone
            // of the derived table.
            let table = TableBackend::from_csv_str(&derived.to_csv_string()).unwrap();
            assert_eq!(table.calibration_digest(), derived.calibration_digest());
            for layer in &layers {
                for acc in platform.accelerators() {
                    let a = CostBackend::layer_cost(&model, layer, acc).unwrap();
                    let b = table.layer_cost(layer, acc).unwrap();
                    assert_costs_bit_equal(
                        &a,
                        &b,
                        &format!("{kind}/{}/{}", layer.name(), acc.name()),
                    );
                    // Single-member gangs resolve through the layer
                    // row and must match the analytical fission
                    // formula (penalty exactly 1.0).
                    let ga = CostBackend::gang_cost(&model, layer, &[acc]).unwrap();
                    let gb = table.gang_cost(layer, &[acc]).unwrap();
                    assert_costs_bit_equal(&ga, &gb, "single-member gang");
                }
                for gang in ordered_gangs(&platform) {
                    let members: Vec<&dream_cost::AcceleratorConfig> =
                        gang.iter().map(|&i| &platform.accelerators()[i]).collect();
                    let a = CostBackend::gang_cost(&model, layer, &members).unwrap();
                    let b = table.gang_cost(layer, &members).unwrap();
                    assert_costs_bit_equal(&a, &b, &format!("gang {gang:?}"));
                }
            }
            for acc in platform.accelerators() {
                let fa = model.switch_factors(acc).unwrap();
                let fb = table.switch_factors(acc).unwrap();
                assert_eq!(fa.bytes_per_ns.to_bits(), fb.bytes_per_ns.to_bits());
                assert_eq!(
                    fa.energy_pj_per_byte.to_bits(),
                    fb.energy_pj_per_byte.to_bits()
                );
                for (i, o) in [(0, 0), (1, 0), (4_096, 0), (123_457, 654_321)] {
                    let sa = CostBackend::switch_cost(&model, i, o, acc).unwrap();
                    let sb = table.switch_cost(i, o, acc).unwrap();
                    assert_eq!(sa.latency_ns.to_bits(), sb.latency_ns.to_bits());
                    assert_eq!(sa.energy_pj.to_bits(), sb.energy_pj.to_bits());
                }
            }
        }
    }
}

/// Backends never alias: the digest separates backend families even when
/// the table is a bit-exact export, separates calibrations within a
/// family, and is stable across re-derivation.
#[test]
fn calibration_digests_separate_backends_and_calibrations() {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let model = CostModel::paper_default();
    let layers = scenario_layers(ScenarioKind::ArCall);
    let table = TableBackend::derive("t", &model, &platform, &layers).unwrap();

    assert_eq!(model.kind(), "analytical");
    assert_eq!(table.kind(), "table");
    assert_ne!(
        model.calibration_digest(),
        table.calibration_digest(),
        "a bit-exact export still identifies as a different backend"
    );

    // Re-deriving is deterministic.
    let again = TableBackend::derive("t2", &model, &platform, &layers).unwrap();
    assert_eq!(table.calibration_digest(), again.calibration_digest());

    // A different calibration exports a different table digest.
    let mut params = CostParams::paper_defaults();
    params.mac_energy_pj *= 2.0;
    let recal = CostModel::new(params).unwrap();
    let recal_table = TableBackend::derive("t3", &recal, &platform, &layers).unwrap();
    assert_ne!(table.calibration_digest(), recal_table.calibration_digest());
}

/// The switch-cost op sequence is shared: a backend reporting the same
/// factors produces the same switch costs, with zero-byte switches
/// costing exactly zero.
#[test]
fn switch_cost_formula_is_shared_and_zero_at_zero_bytes() {
    let platform = Platform::preset(PlatformPreset::Homo4kWs2);
    let model = CostModel::paper_default();
    let layers = scenario_layers(ScenarioKind::ArCall);
    let table = TableBackend::derive("t", &model, &platform, &layers).unwrap();
    let acc = &platform.accelerators()[0];
    let z = table.switch_cost(0, 0, acc).unwrap();
    assert_eq!(z.latency_ns, 0.0);
    assert_eq!(z.energy_pj, 0.0);
    // The analytical answer is the documented formula over the
    // accelerator's DRAM port, and the derived table gives the same bits.
    let via_trait = CostBackend::switch_cost(&model, 10_000, 20_000, acc).unwrap();
    assert_eq!(
        via_trait.latency_ns.to_bits(),
        (30_000.0 / acc.dram_gbps()).to_bits()
    );
    assert_eq!(
        via_trait.energy_pj.to_bits(),
        (30_000.0 * model.params().dram_energy_pj_per_byte).to_bits()
    );
    let tabled = table.switch_cost(10_000, 20_000, acc).unwrap();
    assert_eq!(tabled.latency_ns.to_bits(), via_trait.latency_ns.to_bits());
    assert_eq!(tabled.energy_pj.to_bits(), via_trait.energy_pj.to_bits());
}

/// A table saved to disk and loaded back is the same backend.
#[test]
fn file_round_trip_preserves_the_backend() {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let model = CostModel::paper_default();
    let layers = scenario_layers(ScenarioKind::DroneIndoor);
    let table = TableBackend::derive("disk", &model, &platform, &layers).unwrap();
    let dir = std::env::temp_dir().join(format!("dream-cost-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("table.csv");
    table.save(&path).unwrap();
    let loaded = TableBackend::load(&path).unwrap();
    assert_eq!(loaded.calibration_digest(), table.calibration_digest());
    assert_eq!(loaded.name(), "disk");
    let _ = std::fs::remove_dir_all(&dir);
}
