//! The pluggable cost-backend seam.
//!
//! The DREAM paper consumes per-(layer, accelerator) latency/energy tables
//! produced offline (by MAESTRO); everything above this crate only ever
//! *reads* costs. [`CostBackend`] is the seam that makes the producer
//! swappable: the analytical [`CostModel`](crate::CostModel) is the default
//! implementation, and [`TableBackend`](crate::TableBackend) serves the
//! same queries from an imported table.
//!
//! # Contract
//!
//! A backend is a **pure function** of its calibration: the same query must
//! return the same bits forever, and [`CostBackend::calibration_digest`]
//! must change whenever any answer could. The simulator resolves every
//! per-(layer, accelerator) quantity into flat tables at
//! `WorkloadSet::build` time and stamps them with the digest, so two
//! workloads built from backends with different digests are never
//! interchangeable — the engine rejects the mismatch — while the decision
//! hot path never pays a dynamic dispatch.
//!
//! Context-switch costs are linear in the switched bytes, so they cross the
//! seam as the two per-accelerator scalars of [`SwitchFactors`]; the
//! provided [`CostBackend::switch_cost`] combines them with **one fixed
//! operation sequence** shared by every backend, which is what lets an
//! imported table reproduce the analytical backend's switch costs
//! bit-for-bit.

use crate::{AcceleratorConfig, CostError, LayerCost, SwitchCost};
use dream_models::Layer;

/// Incremental 64-bit FNV-1a mixer for calibration digests (the same
/// primitive `dream-sim` uses for metrics fingerprints, duplicated here so
/// the dependency arrow keeps pointing upward).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn mix_bytes(&mut self, bytes: &[u8]) {
        // Length first so "ab"+"c" and "a"+"bc" cannot collide.
        self.mix(bytes.len() as u64);
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The two per-accelerator scalars a context-switch cost is linear in.
///
/// Every backend reports these, and the shared
/// [`CostBackend::switch_cost`] implementation combines them as
///
/// ```text
/// latency_ns = (incoming + outgoing) as f64 / bytes_per_ns
/// energy_pj  = (incoming + outgoing) as f64 * energy_pj_per_byte
/// ```
///
/// — exactly one division and one multiplication, so two backends that
/// report bit-equal factors produce bit-equal [`SwitchCost`]s for every
/// byte volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchFactors {
    /// DRAM drain rate paid by a switch, in bytes per nanosecond
    /// (numerically equal to the accelerator's GB/s share).
    pub bytes_per_ns: f64,
    /// DRAM energy per switched byte, in picojoules.
    pub energy_pj_per_byte: f64,
}

impl SwitchFactors {
    /// **The** switch-cost formula — the single implementation behind
    /// [`CostBackend::switch_cost`] and the simulator's build-time-
    /// resolved dispatch charges, so the two can never drift apart.
    pub fn cost(self, incoming_bytes: u64, outgoing_bytes: u64) -> SwitchCost {
        let bytes = (incoming_bytes + outgoing_bytes) as f64;
        SwitchCost {
            latency_ns: bytes / self.bytes_per_ns,
            energy_pj: bytes * self.energy_pj_per_byte,
        }
    }
}

/// A pluggable source of layer / gang / context-switch costs.
///
/// See the [module docs](self) for the purity and digest contract. All
/// methods are fallible because table-driven backends can be asked about
/// pairs they do not cover; the analytical backend never errors.
pub trait CostBackend: std::fmt::Debug + Send + Sync {
    /// Short stable identifier of the backend family (`"analytical"`,
    /// `"table"`); mixed into the calibration digest so two backends
    /// never alias even if their parameter bits coincide.
    fn kind(&self) -> &'static str;

    /// The cost of running `layer` on `acc`.
    ///
    /// # Errors
    ///
    /// [`CostError::MissingEntry`] when the backend has no answer for this
    /// (layer, accelerator) pair.
    fn layer_cost(&self, layer: &Layer, acc: &AcceleratorConfig) -> Result<LayerCost, CostError>;

    /// The cost of running `layer` fissioned across the ordered gang
    /// `members` (Planaria-style spatial fission).
    ///
    /// The member *order* is part of the query: resource fusion folds
    /// floating-point sums in member order, so reordering a gang may
    /// change low bits. Backends that cannot cost a gang return an error;
    /// callers on the decision path treat that as "this gang is not an
    /// option" (the engine counts the assignment invalid, Planaria falls
    /// back to single-accelerator allocations).
    ///
    /// # Errors
    ///
    /// [`CostError::MissingEntry`] for uncovered gangs; backends may also
    /// reject empty member lists as [`CostError::InvalidParams`].
    fn gang_cost(
        &self,
        layer: &Layer,
        members: &[&AcceleratorConfig],
    ) -> Result<LayerCost, CostError>;

    /// The per-byte context-switch factors of `acc`.
    ///
    /// # Errors
    ///
    /// [`CostError::MissingEntry`] when the backend does not cover `acc`.
    fn switch_factors(&self, acc: &AcceleratorConfig) -> Result<SwitchFactors, CostError>;

    /// The cost of a context switch flushing `outgoing_bytes` and
    /// fetching `incoming_bytes` through `acc`'s DRAM port.
    ///
    /// Always [`SwitchFactors::cost`] applied to
    /// [`switch_factors`](Self::switch_factors). **Contract: do not
    /// override.** The simulator resolves factors at build time and
    /// charges [`SwitchFactors::cost`] directly on dispatch, so an
    /// override would be silently ignored there and only surface as a
    /// reference-path divergence — which the conformance suite's
    /// factor-vs-cost cross-checks are there to catch.
    ///
    /// # Errors
    ///
    /// Propagates [`switch_factors`](Self::switch_factors)' error.
    fn switch_cost(
        &self,
        incoming_bytes: u64,
        outgoing_bytes: u64,
        acc: &AcceleratorConfig,
    ) -> Result<SwitchCost, CostError> {
        Ok(self
            .switch_factors(acc)?
            .cost(incoming_bytes, outgoing_bytes))
    }

    /// A stable digest of everything this backend's answers depend on:
    /// two backends with different digests may disagree on some query;
    /// two instances with equal digests must agree on every query,
    /// bit-for-bit. Implementations must mix their [`kind`](Self::kind)
    /// tag so distinct families never collide.
    fn calibration_digest(&self) -> u64;
}

impl CostBackend for crate::CostModel {
    fn kind(&self) -> &'static str {
        "analytical"
    }

    fn layer_cost(&self, layer: &Layer, acc: &AcceleratorConfig) -> Result<LayerCost, CostError> {
        Ok(crate::CostModel::layer_cost(self, layer, acc))
    }

    fn gang_cost(
        &self,
        layer: &Layer,
        members: &[&AcceleratorConfig],
    ) -> Result<LayerCost, CostError> {
        if members.is_empty() {
            return Err(CostError::InvalidParams {
                reason: "cannot cost a gang of zero accelerators".into(),
            });
        }
        Ok(crate::CostModel::gang_cost(self, layer, members))
    }

    fn switch_factors(&self, acc: &AcceleratorConfig) -> Result<SwitchFactors, CostError> {
        Ok(SwitchFactors {
            bytes_per_ns: acc.dram_gbps(),
            energy_pj_per_byte: self.params().dram_energy_pj_per_byte,
        })
    }

    fn calibration_digest(&self) -> u64 {
        let p = self.params();
        let mut h = Fnv64::new();
        h.mix_bytes(self.kind().as_bytes());
        for v in [
            p.mac_energy_pj,
            p.vector_op_energy_pj,
            p.sram_energy_pj_per_byte,
            p.dram_energy_pj_per_byte,
            p.layer_launch_ns,
            p.mapping_efficiency,
            p.gang_overhead,
        ] {
            h.mix(v.to_bits());
        }
        h.mix(p.psum_tile_depth);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, CostParams, Dataflow};
    use dream_models::LayerKind;

    fn acc() -> AcceleratorConfig {
        AcceleratorConfig::new("a", 2048, Dataflow::WeightStationary, 0.7, 45.0, 4 << 20).unwrap()
    }

    fn layer() -> Layer {
        Layer::new(
            "g",
            LayerKind::Gemm {
                m: 4,
                n: 256,
                k: 512,
            },
        )
        .unwrap()
    }

    #[test]
    fn trait_layer_cost_matches_inherent_bitwise() {
        let model = CostModel::paper_default();
        let a = CostModel::layer_cost(&model, &layer(), &acc());
        let b = CostBackend::layer_cost(&model, &layer(), &acc()).unwrap();
        assert_eq!(a.latency_ns.to_bits(), b.latency_ns.to_bits());
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
    }

    #[test]
    fn trait_gang_cost_matches_inherent_and_rejects_empty() {
        let model = CostModel::paper_default();
        let one = acc();
        let members = [&one, &one];
        let a = CostModel::gang_cost(&model, &layer(), &members);
        let b = CostBackend::gang_cost(&model, &layer(), &members).unwrap();
        assert_eq!(a.latency_ns.to_bits(), b.latency_ns.to_bits());
        assert!(matches!(
            CostBackend::gang_cost(&model, &layer(), &[]),
            Err(CostError::InvalidParams { .. })
        ));
    }

    #[test]
    fn digest_tracks_every_param_and_the_kind_tag() {
        let base = CostModel::paper_default().calibration_digest();
        let mut p = CostParams::paper_defaults();
        p.dram_energy_pj_per_byte += 1.0;
        assert_ne!(base, CostModel::new(p).unwrap().calibration_digest());
        let mut p = CostParams::paper_defaults();
        p.psum_tile_depth += 1;
        assert_ne!(base, CostModel::new(p).unwrap().calibration_digest());
        // Same params, same digest.
        assert_eq!(base, CostModel::paper_default().calibration_digest());
    }
}
