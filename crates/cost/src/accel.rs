use crate::CostError;

/// Index of a sub-accelerator within a [`crate::Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AcceleratorId(pub usize);

impl std::fmt::Display for AcceleratorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "acc{}", self.0)
    }
}

/// The spatial dataflow an accelerator's PE array implements.
///
/// The two styles mirror the paper's Table 2: weight-stationary (WS,
/// NVDLA-inspired) pins filter weights in the array and streams activations;
/// output-stationary (OS, ShiDianNao-inspired) pins output accumulations and
/// streams weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weight-stationary: spatial parallelism over the weight footprint
    /// (`in_c/g · k² · out_c`). Excellent for filter-heavy convolutions,
    /// poor for depthwise layers whose weight footprint is tiny.
    WeightStationary,
    /// Output-stationary: spatial parallelism over output elements.
    /// Excellent for activation-heavy layers, pays weight re-fetch energy
    /// on layers with many output tiles.
    OutputStationary,
}

impl Dataflow {
    /// Short form used in platform names ("WS" / "OS").
    pub fn short_name(self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
        }
    }
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// One sub-accelerator: a PE array with a dataflow, a clock, and its static
/// share of the package's SRAM and off-chip bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    name: String,
    pe_count: u32,
    dataflow: Dataflow,
    clock_ghz: f64,
    dram_gbps: f64,
    sram_bytes: u64,
}

impl AcceleratorConfig {
    /// Creates an accelerator description.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidAccelerator`] if `pe_count` is zero or
    /// any rate is non-finite / non-positive.
    pub fn new(
        name: impl Into<String>,
        pe_count: u32,
        dataflow: Dataflow,
        clock_ghz: f64,
        dram_gbps: f64,
        sram_bytes: u64,
    ) -> Result<Self, CostError> {
        let name = name.into();
        if pe_count == 0 {
            return Err(CostError::InvalidAccelerator {
                reason: format!("`{name}`: pe_count must be positive"),
            });
        }
        for (label, v) in [("clock_ghz", clock_ghz), ("dram_gbps", dram_gbps)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CostError::InvalidAccelerator {
                    reason: format!("`{name}`: {label} must be finite and positive, got {v}"),
                });
            }
        }
        if sram_bytes == 0 {
            return Err(CostError::InvalidAccelerator {
                reason: format!("`{name}`: sram_bytes must be positive"),
            });
        }
        Ok(AcceleratorConfig {
            name,
            pe_count,
            dataflow,
            clock_ghz,
            dram_gbps,
            sram_bytes,
        })
    }

    /// The accelerator's display name, e.g. `"WS-2048"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processing elements (MAC units).
    pub fn pe_count(&self) -> u32 {
        self.pe_count
    }

    /// The array's dataflow.
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// Clock frequency in GHz.
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// This accelerator's share of off-chip bandwidth, in GB/s
    /// (= bytes per nanosecond).
    pub fn dram_gbps(&self) -> f64 {
        self.dram_gbps
    }

    /// This accelerator's share of on-chip SRAM, in bytes.
    pub fn sram_bytes(&self) -> u64 {
        self.sram_bytes
    }

    /// Peak MAC throughput in MACs per nanosecond.
    pub fn peak_macs_per_ns(&self) -> f64 {
        f64::from(self.pe_count) * self.clock_ghz
    }

    /// Fuses several sub-accelerators into one logical gang (Planaria-style
    /// spatial fission in reverse): PEs, bandwidth, and SRAM add up; the
    /// dataflow of the largest member wins; the clock must match. The gang
    /// is unnamed, so merging allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty (callers gang at least one accelerator).
    pub fn merged(members: &[&AcceleratorConfig]) -> AcceleratorConfig {
        assert!(!members.is_empty(), "cannot merge zero accelerators");
        let largest = members
            .iter()
            .max_by_key(|a| a.pe_count)
            .expect("non-empty members");
        AcceleratorConfig {
            name: String::new(),
            pe_count: members.iter().map(|a| a.pe_count).sum(),
            dataflow: largest.dataflow,
            clock_ghz: largest.clock_ghz,
            dram_gbps: members.iter().map(|a| a.dram_gbps).sum(),
            sram_bytes: members.iter().map(|a| a.sram_bytes).sum(),
        }
    }
}

impl std::fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} {} PEs @ {:.2} GHz)",
            self.name, self.dataflow, self.pe_count, self.clock_ghz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(pe: u32, df: Dataflow) -> AcceleratorConfig {
        AcceleratorConfig::new("t", pe, df, 0.7, 45.0, 4 << 20).unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(AcceleratorConfig::new("x", 0, Dataflow::WeightStationary, 0.7, 45.0, 1).is_err());
        assert!(AcceleratorConfig::new("x", 8, Dataflow::WeightStationary, 0.0, 45.0, 1).is_err());
        assert!(AcceleratorConfig::new("x", 8, Dataflow::WeightStationary, 0.7, -1.0, 1).is_err());
        assert!(AcceleratorConfig::new("x", 8, Dataflow::WeightStationary, 0.7, 45.0, 0).is_err());
    }

    #[test]
    fn peak_throughput() {
        let a = acc(2048, Dataflow::WeightStationary);
        assert!((a.peak_macs_per_ns() - 2048.0 * 0.7).abs() < 1e-9);
    }

    #[test]
    fn merged_sums_resources_and_takes_largest_dataflow() {
        let big = acc(2048, Dataflow::WeightStationary);
        let small = acc(1024, Dataflow::OutputStationary);
        let gang = AcceleratorConfig::merged(&[&small, &big]);
        assert_eq!(gang.pe_count(), 3072);
        assert_eq!(gang.dataflow(), Dataflow::WeightStationary);
        assert!((gang.dram_gbps() - 90.0).abs() < 1e-9);
        assert_eq!(gang.sram_bytes(), 8 << 20);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Dataflow::WeightStationary.to_string(), "WS");
        assert_eq!(AcceleratorId(3).to_string(), "acc3");
        assert!(acc(8, Dataflow::OutputStationary)
            .to_string()
            .contains("OS"));
    }
}
