use crate::{AcceleratorConfig, CostError, CostParams, Dataflow};
use dream_models::Layer;

/// The full cost breakdown of running one layer on one accelerator.
///
/// Besides the headline `latency_ns` / `energy_pj`, intermediate results are
/// exposed so callers (and tests) can see *why* a layer costs what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// End-to-end latency in nanoseconds (roofline + launch overhead).
    pub latency_ns: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Pure compute time in nanoseconds.
    pub compute_ns: f64,
    /// DRAM streaming time in nanoseconds.
    pub dram_ns: f64,
    /// Bytes moved through SRAM (dataflow dependent).
    pub sram_bytes: f64,
    /// Bytes moved through DRAM.
    pub dram_bytes: f64,
    /// Effective spatial utilisation of the PE array in `[0, 1]`
    /// (before the global mapping-efficiency derate).
    pub utilization: f64,
}

/// Latency and energy of a context switch on one accelerator: flushing the
/// outgoing task's live activations and fetching the incoming task's
/// working set through DRAM (§3.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchCost {
    /// Extra latency in nanoseconds.
    pub latency_ns: f64,
    /// Extra energy in picojoules.
    pub energy_pj: f64,
}

/// The analytical cost model (MAESTRO stand-in).
///
/// Stateless and cheap: a [`LayerCost`] query is a handful of floating-point
/// operations, so schedulers may call it online; offline tables are built by
/// the simulator on top of it.
#[derive(Debug, Clone)]
pub struct CostModel {
    params: CostParams,
}

impl CostModel {
    /// Creates a cost model with the given calibration.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidParams`] if the calibration is invalid.
    pub fn new(params: CostParams) -> Result<Self, CostError> {
        params.validate()?;
        Ok(CostModel { params })
    }

    /// A cost model with the calibrated paper defaults.
    pub fn paper_default() -> Self {
        CostModel {
            params: CostParams::paper_defaults(),
        }
    }

    /// The calibration in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Spatial utilisation of a `pe_count`-wide array offered `work` units
    /// of parallelism: `work / (ceil(work / P) · P)` — 1.0 when the work
    /// tiles perfectly, `work / P` when the array is under-filled, and the
    /// usual quantisation loss in between.
    fn fractional_utilization(work: u64, pe_count: u32) -> f64 {
        debug_assert!(work > 0, "layers always expose positive parallel work");
        let p = f64::from(pe_count);
        let work = work as f64;
        let tiles = (work / p).ceil();
        work / (tiles * p)
    }

    /// Estimates the cost of `layer` on `acc`.
    pub fn layer_cost(&self, layer: &Layer, acc: &AcceleratorConfig) -> LayerCost {
        let s = layer.stats();
        let p = &self.params;

        let spatial_work = match acc.dataflow() {
            Dataflow::WeightStationary => s.ws_parallel_work,
            Dataflow::OutputStationary => s.out_elems,
        };
        let utilization = Self::fractional_utilization(spatial_work.max(1), acc.pe_count());

        let work = (s.macs + s.vector_ops) as f64;
        let throughput =
            f64::from(acc.pe_count()) * utilization * p.mapping_efficiency * acc.clock_ghz();
        let compute_ns = work / throughput;

        let dram_bytes = (s.weight_bytes + s.input_bytes + s.output_bytes) as f64;
        let dram_ns = dram_bytes / acc.dram_gbps();

        let kernel_area = s.kernel_area as f64;
        let sram_bytes = match acc.dataflow() {
            Dataflow::WeightStationary => {
                // Weights parked once; inputs re-read per kernel position;
                // partial sums spill when the reduction exceeds the tile.
                let psum_spills = (s.reduction_depth as f64 / p.psum_tile_depth as f64).ceil();
                s.weight_bytes as f64
                    + s.input_bytes as f64 * kernel_area
                    + s.output_bytes as f64 * psum_spills
            }
            Dataflow::OutputStationary => {
                // Outputs accumulate in place; weights re-read once per
                // output tile; inputs shared between neighbouring PEs.
                let output_tiles = (s.out_elems as f64 / f64::from(acc.pe_count())).ceil();
                s.weight_bytes as f64 * output_tiles
                    + s.input_bytes as f64 * (kernel_area / 2.0).max(1.0)
                    + s.output_bytes as f64
            }
        };

        let width = f64::from(layer.bytes_per_elem());
        let energy_pj = s.macs as f64 * p.mac_energy_pj * width * width
            + s.vector_ops as f64 * p.vector_op_energy_pj
            + sram_bytes * p.sram_energy_pj_per_byte
            + dram_bytes * p.dram_energy_pj_per_byte;

        LayerCost {
            latency_ns: compute_ns.max(dram_ns) + p.layer_launch_ns,
            energy_pj,
            compute_ns,
            dram_ns,
            sram_bytes,
            dram_bytes,
            utilization,
        }
    }

    /// Estimates the cost of running `layer` fissioned across a gang of
    /// sub-accelerators (Planaria-style): resources fuse, but the layer pays
    /// a synchronisation overhead per extra member.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn gang_cost(&self, layer: &Layer, members: &[&AcceleratorConfig]) -> LayerCost {
        let merged = AcceleratorConfig::merged(members);
        let mut cost = self.layer_cost(layer, &merged);
        let penalty = 1.0 + self.params.gang_overhead * (members.len() as f64 - 1.0);
        cost.latency_ns *= penalty;
        cost.compute_ns *= penalty;
        // Synchronisation also burns energy (extra SRAM handshakes),
        // proportionally to the overhead.
        cost.energy_pj *= penalty;
        cost
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcceleratorId, CostBackend, Platform};
    use dream_models::{Layer, LayerKind};

    fn ws(pe: u32) -> AcceleratorConfig {
        AcceleratorConfig::new("ws", pe, Dataflow::WeightStationary, 0.7, 45.0, 4 << 20).unwrap()
    }

    fn os(pe: u32) -> AcceleratorConfig {
        AcceleratorConfig::new("os", pe, Dataflow::OutputStationary, 0.7, 45.0, 4 << 20).unwrap()
    }

    fn conv(in_hw: u32, in_c: u32, out_c: u32, k: u32, groups: u32) -> Layer {
        Layer::new(
            "l",
            LayerKind::Conv2d {
                in_h: in_hw,
                in_w: in_hw,
                in_c,
                out_c,
                kernel: k,
                stride: 1,
                groups,
            },
        )
        .unwrap()
    }

    #[test]
    fn fractional_utilization_properties() {
        assert_eq!(CostModel::fractional_utilization(2048, 2048), 1.0);
        assert_eq!(CostModel::fractional_utilization(1024, 2048), 0.5);
        // Just over one tile: two passes, second mostly idle.
        let u = CostModel::fractional_utilization(2049, 2048);
        assert!(u > 0.5 && u < 0.51, "{u}");
    }

    #[test]
    fn depthwise_prefers_output_stationary() {
        let model = CostModel::paper_default();
        let dw = conv(56, 96, 96, 3, 96);
        let c_ws = model.layer_cost(&dw, &ws(2048));
        let c_os = model.layer_cost(&dw, &os(2048));
        assert!(
            c_os.latency_ns < c_ws.latency_ns,
            "OS {} vs WS {}",
            c_os.latency_ns,
            c_ws.latency_ns
        );
    }

    #[test]
    fn dense_conv_compute_matches_roofline() {
        let model = CostModel::paper_default();
        let layer = conv(56, 64, 128, 3, 1);
        let cost = model.layer_cost(&layer, &ws(2048));
        let s = layer.stats();
        // ws_parallel_work = 64·9·128 = 73728 ≫ 2048, so utilisation ≈ 1
        // up to tiling quantisation.
        assert!(cost.utilization == 1.0, "{}", cost.utilization);
        let expect = s.macs as f64 / (2048.0 * model.params().mapping_efficiency * 0.7);
        assert!((cost.compute_ns - expect).abs() / expect < 1e-9);
        assert!(cost.latency_ns >= cost.compute_ns);
    }

    #[test]
    fn gemv_is_dram_bound() {
        let model = CostModel::paper_default();
        // True GEMV (batch 1 fully-connected, VGG fc6 style): weights are
        // used exactly once, so streaming them dominates.
        let layer = Layer::new(
            "g",
            LayerKind::Gemm {
                m: 1,
                n: 4096,
                k: 19_712,
            },
        )
        .unwrap();
        let cost = model.layer_cost(&layer, &ws(2048));
        assert!(
            cost.dram_ns > cost.compute_ns,
            "dram {} compute {}",
            cost.dram_ns,
            cost.compute_ns
        );
    }

    #[test]
    fn os_pays_weight_refetch_energy_on_spatially_large_layers() {
        let model = CostModel::paper_default();
        // Large spatial output with significant weights: many output tiles.
        let layer = conv(112, 64, 64, 3, 1);
        let e_ws = model.layer_cost(&layer, &ws(2048)).sram_bytes;
        let e_os = model.layer_cost(&layer, &os(2048)).sram_bytes;
        assert!(e_os > e_ws, "OS sram {e_os} vs WS {e_ws}");
    }

    #[test]
    fn more_pes_never_slow_a_layer_down() {
        let model = CostModel::paper_default();
        for layer in [
            conv(56, 64, 128, 3, 1),
            conv(28, 96, 96, 3, 96),
            Layer::new(
                "g",
                LayerKind::Gemm {
                    m: 1,
                    n: 1000,
                    k: 512,
                },
            )
            .unwrap(),
        ] {
            let small = model.layer_cost(&layer, &ws(1024)).latency_ns;
            let big = model.layer_cost(&layer, &ws(2048)).latency_ns;
            assert!(big <= small + 1e-9, "{big} > {small}");
        }
    }

    #[test]
    fn fp16_layers_cost_more_mac_energy() {
        let model = CostModel::paper_default();
        let l8 = Layer::new(
            "a",
            LayerKind::Gemm {
                m: 8,
                n: 256,
                k: 256,
            },
        )
        .unwrap();
        let l16 = Layer::with_bytes(
            "b",
            LayerKind::Gemm {
                m: 8,
                n: 256,
                k: 256,
            },
            2,
        )
        .unwrap();
        let a = model.layer_cost(&l8, &ws(1024));
        let b = model.layer_cost(&l16, &ws(1024));
        assert!(b.energy_pj > a.energy_pj);
    }

    #[test]
    fn with_gang_matches_collected_configs_at_every_width() {
        let model = CostModel::paper_default();
        let layer = conv(28, 64, 128, 3, 1);
        let accs: Vec<_> = (0..12)
            .map(|i| if i % 3 == 0 { ws(1024) } else { os(512) })
            .collect();
        let platform = Platform::new("twelve", accs).unwrap();
        for width in 0..=12 {
            // Reversed ids, so the gathered order must follow `ids`.
            let ids: Vec<AcceleratorId> = (0..width).rev().map(AcceleratorId).collect();
            let members: Vec<&AcceleratorConfig> = ids
                .iter()
                .map(|&id| platform.accelerator(id).unwrap())
                .collect();
            let seen = platform
                .with_gang(&ids, |configs| {
                    assert_eq!(configs.len(), members.len(), "width {width}");
                    for (got, want) in configs.iter().zip(&members) {
                        assert!(std::ptr::eq(*got, *want), "width {width}: wrong order");
                    }
                    (width > 0).then(|| model.gang_cost(&layer, configs))
                })
                .unwrap();
            if width == 0 {
                continue;
            }
            let want = model.gang_cost(&layer, &members);
            let got = seen.unwrap();
            assert_eq!(got.latency_ns.to_bits(), want.latency_ns.to_bits());
            assert_eq!(got.energy_pj.to_bits(), want.energy_pj.to_bits());
            // One id off the platform, last or first, yields `None`.
            let mut bad = ids.clone();
            bad[width - 1] = AcceleratorId(12);
            assert!(platform.with_gang(&bad, |_| ()).is_none(), "width {width}");
            bad[width - 1] = ids[width - 1];
            bad[0] = AcceleratorId(40);
            assert!(platform.with_gang(&bad, |_| ()).is_none(), "width {width}");
        }
    }

    #[test]
    fn gang_cost_speeds_up_but_pays_overhead() {
        let model = CostModel::paper_default();
        let layer = conv(56, 256, 256, 3, 1);
        let one = ws(1024);
        let two = [&one, &one];
        let single = model.layer_cost(&layer, &one);
        let gang = model.gang_cost(&layer, &two);
        assert!(gang.latency_ns < single.latency_ns, "gang should be faster");
        // But not a perfect 2× because of the fission overhead.
        assert!(gang.latency_ns > single.latency_ns / 2.0);
    }

    #[test]
    fn switch_cost_scales_with_bytes() {
        let model = CostModel::paper_default();
        let acc = ws(2048);
        let small = CostBackend::switch_cost(&model, 1_000, 1_000, &acc).unwrap();
        let big = CostBackend::switch_cost(&model, 1_000_000, 1_000_000, &acc).unwrap();
        assert!(big.latency_ns > small.latency_ns);
        assert!(big.energy_pj > small.energy_pj);
        let zero = CostBackend::switch_cost(&model, 0, 0, &acc).unwrap();
        assert_eq!(zero.latency_ns, 0.0);
        assert_eq!(zero.energy_pj, 0.0);
    }

    #[test]
    fn cost_model_rejects_bad_params() {
        let mut p = CostParams::paper_defaults();
        p.mapping_efficiency = -1.0;
        assert!(CostModel::new(p).is_err());
    }
}
