use crate::{AcceleratorConfig, AcceleratorId, CostError, Dataflow};

/// The eight hardware platforms of the paper's Table 2, plus helpers for
/// constructing custom ones.
///
/// All presets share the paper's package-level parameters: 8 MiB of on-chip
/// SRAM and 90 GB/s of off-chip bandwidth at a 700 MHz clock, statically
/// partitioned across sub-accelerators in proportion to their PE share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlatformPreset {
    /// 4K PEs, homogeneous: 2 × WS(2K).
    Homo4kWs2,
    /// 4K PEs, homogeneous: 2 × OS(2K).
    Homo4kOs2,
    /// 4K PEs, heterogeneous: 1 WS(2K) + 2 OS(1K).
    Hetero4kWs1Os2,
    /// 4K PEs, heterogeneous: 1 OS(2K) + 2 WS(1K).
    Hetero4kOs1Ws2,
    /// 8K PEs, homogeneous: 2 × WS(4K).
    Homo8kWs2,
    /// 8K PEs, homogeneous: 2 × OS(4K).
    Homo8kOs2,
    /// 8K PEs, heterogeneous: 1 WS(4K) + 2 OS(2K).
    Hetero8kWs1Os2,
    /// 8K PEs, heterogeneous: 1 OS(4K) + 2 WS(2K).
    Hetero8kOs1Ws2,
}

impl PlatformPreset {
    /// All eight Table 2 configurations.
    pub fn all() -> [PlatformPreset; 8] {
        [
            PlatformPreset::Homo4kWs2,
            PlatformPreset::Homo4kOs2,
            PlatformPreset::Hetero4kWs1Os2,
            PlatformPreset::Hetero4kOs1Ws2,
            PlatformPreset::Homo8kWs2,
            PlatformPreset::Homo8kOs2,
            PlatformPreset::Hetero8kWs1Os2,
            PlatformPreset::Hetero8kOs1Ws2,
        ]
    }

    /// The four heterogeneous configurations (Figure 7's platforms).
    pub fn heterogeneous() -> [PlatformPreset; 4] {
        [
            PlatformPreset::Hetero4kWs1Os2,
            PlatformPreset::Hetero4kOs1Ws2,
            PlatformPreset::Hetero8kWs1Os2,
            PlatformPreset::Hetero8kOs1Ws2,
        ]
    }

    /// The four homogeneous configurations (Figure 8's platforms).
    pub fn homogeneous() -> [PlatformPreset; 4] {
        [
            PlatformPreset::Homo4kWs2,
            PlatformPreset::Homo4kOs2,
            PlatformPreset::Homo8kWs2,
            PlatformPreset::Homo8kOs2,
        ]
    }

    /// The name used in the paper's figures, e.g. `"4K 1WS+2OS"`.
    pub fn name(self) -> &'static str {
        match self {
            PlatformPreset::Homo4kWs2 => "4K 2WS",
            PlatformPreset::Homo4kOs2 => "4K 2OS",
            PlatformPreset::Hetero4kWs1Os2 => "4K 1WS+2OS",
            PlatformPreset::Hetero4kOs1Ws2 => "4K 1OS+2WS",
            PlatformPreset::Homo8kWs2 => "8K 2WS",
            PlatformPreset::Homo8kOs2 => "8K 2OS",
            PlatformPreset::Hetero8kWs1Os2 => "8K 1WS+2OS",
            PlatformPreset::Hetero8kOs1Ws2 => "8K 1OS+2WS",
        }
    }

    /// Total PE count (4096 or 8192).
    pub fn total_pes(self) -> u32 {
        match self {
            PlatformPreset::Homo4kWs2
            | PlatformPreset::Homo4kOs2
            | PlatformPreset::Hetero4kWs1Os2
            | PlatformPreset::Hetero4kOs1Ws2 => 4096,
            _ => 8192,
        }
    }
}

impl std::fmt::Display for PlatformPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A multi-accelerator platform: the set of sub-accelerators a scheduler
/// dispatches layers onto.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    accelerators: Vec<AcceleratorConfig>,
}

/// Package-level constants shared by all Table 2 presets.
const CLOCK_GHZ: f64 = 0.7;
const TOTAL_SRAM_BYTES: u64 = 8 << 20; // 8 MiB
const TOTAL_DRAM_GBPS: f64 = 90.0;

impl Platform {
    /// Builds a platform from explicit accelerator configs.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::EmptyPlatform`] if no accelerators are given.
    pub fn new(
        name: impl Into<String>,
        accelerators: Vec<AcceleratorConfig>,
    ) -> Result<Self, CostError> {
        if accelerators.is_empty() {
            return Err(CostError::EmptyPlatform);
        }
        Ok(Platform {
            name: name.into(),
            accelerators,
        })
    }

    /// Builds one of the Table 2 presets.
    pub fn preset(preset: PlatformPreset) -> Self {
        use Dataflow::{OutputStationary as Os, WeightStationary as Ws};
        let specs: Vec<(Dataflow, u32)> = match preset {
            PlatformPreset::Homo4kWs2 => vec![(Ws, 2048), (Ws, 2048)],
            PlatformPreset::Homo4kOs2 => vec![(Os, 2048), (Os, 2048)],
            PlatformPreset::Hetero4kWs1Os2 => vec![(Ws, 2048), (Os, 1024), (Os, 1024)],
            PlatformPreset::Hetero4kOs1Ws2 => vec![(Os, 2048), (Ws, 1024), (Ws, 1024)],
            PlatformPreset::Homo8kWs2 => vec![(Ws, 4096), (Ws, 4096)],
            PlatformPreset::Homo8kOs2 => vec![(Os, 4096), (Os, 4096)],
            PlatformPreset::Hetero8kWs1Os2 => vec![(Ws, 4096), (Os, 2048), (Os, 2048)],
            PlatformPreset::Hetero8kOs1Ws2 => vec![(Os, 4096), (Ws, 2048), (Ws, 2048)],
        };
        let total_pes: u32 = specs.iter().map(|&(_, p)| p).sum();
        let accelerators = specs
            .iter()
            .enumerate()
            .map(|(i, &(df, pe))| {
                let share = f64::from(pe) / f64::from(total_pes);
                AcceleratorConfig::new(
                    format!("{}-{}-{}", df.short_name(), pe, i),
                    pe,
                    df,
                    CLOCK_GHZ,
                    TOTAL_DRAM_GBPS * share,
                    ((TOTAL_SRAM_BYTES as f64) * share) as u64,
                )
                .expect("preset accelerator configs are valid")
            })
            .collect();
        Platform {
            name: preset.name().to_string(),
            accelerators,
        }
    }

    /// The platform's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sub-accelerators, indexable by [`AcceleratorId`].
    pub fn accelerators(&self) -> &[AcceleratorConfig] {
        &self.accelerators
    }

    /// Looks up an accelerator.
    pub fn accelerator(&self, id: AcceleratorId) -> Option<&AcceleratorConfig> {
        self.accelerators.get(id.0)
    }

    /// Calls `f` with the configurations of the gang `ids`, in order, or
    /// returns `None` when an id is not on this platform. Gangs of up to
    /// eight accelerators are gathered on the stack, so costing one
    /// allocates nothing.
    pub fn with_gang<R>(
        &self,
        ids: &[AcceleratorId],
        f: impl FnOnce(&[&AcceleratorConfig]) -> R,
    ) -> Option<R> {
        const INLINE: usize = 8;
        let first = match ids.first() {
            Some(&first) if ids.len() <= INLINE => first,
            // Empty (an empty `Vec` does not allocate) or too wide for the
            // stack buffer.
            _ => {
                let configs: Option<Vec<&AcceleratorConfig>> =
                    ids.iter().map(|&id| self.accelerator(id)).collect();
                return Some(f(&configs?));
            }
        };
        let mut configs = [self.accelerator(first)?; INLINE];
        for (slot, &id) in configs.iter_mut().zip(ids) {
            *slot = self.accelerator(id)?;
        }
        Some(f(&configs[..ids.len()]))
    }

    /// Number of sub-accelerators.
    pub fn len(&self) -> usize {
        self.accelerators.len()
    }

    /// Whether the platform has no accelerators (never true once built).
    pub fn is_empty(&self) -> bool {
        self.accelerators.is_empty()
    }

    /// All accelerator ids.
    pub fn ids(&self) -> impl Iterator<Item = AcceleratorId> {
        (0..self.accelerators.len()).map(AcceleratorId)
    }

    /// Total PE count.
    pub fn total_pes(&self) -> u32 {
        self.accelerators
            .iter()
            .map(AcceleratorConfig::pe_count)
            .sum()
    }

    /// Whether the platform mixes dataflows.
    pub fn is_heterogeneous(&self) -> bool {
        self.accelerators
            .windows(2)
            .any(|w| w[0].dataflow() != w[1].dataflow() || w[0].pe_count() != w[1].pe_count())
    }

    /// Aggregate peak MAC throughput in MACs/ns.
    pub fn peak_macs_per_ns(&self) -> f64 {
        self.accelerators
            .iter()
            .map(AcceleratorConfig::peak_macs_per_ns)
            .sum() // detlint: allow(float-fold) -- build-time fold over the fixed accelerator slice; dream-cost sits below dream-sim, so canonical_sum is unavailable
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} accelerators]",
            self.name,
            self.accelerators.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build_with_table2_totals() {
        for preset in PlatformPreset::all() {
            let p = Platform::preset(preset);
            assert_eq!(p.total_pes(), preset.total_pes(), "{preset}");
            assert!(!p.is_empty());
            // Bandwidth shares sum back to the package total.
            let bw: f64 = p.accelerators().iter().map(|a| a.dram_gbps()).sum();
            assert!((bw - TOTAL_DRAM_GBPS).abs() < 1e-6, "{preset}: {bw}");
        }
    }

    #[test]
    fn heterogeneous_flag_matches_presets() {
        assert!(!Platform::preset(PlatformPreset::Homo4kWs2).is_heterogeneous());
        assert!(Platform::preset(PlatformPreset::Hetero4kWs1Os2).is_heterogeneous());
        assert!(Platform::preset(PlatformPreset::Hetero8kOs1Ws2).is_heterogeneous());
    }

    #[test]
    fn hetero_presets_have_three_accelerators() {
        for preset in PlatformPreset::heterogeneous() {
            assert_eq!(Platform::preset(preset).len(), 3, "{preset}");
        }
        for preset in PlatformPreset::homogeneous() {
            assert_eq!(Platform::preset(preset).len(), 2, "{preset}");
        }
    }

    #[test]
    fn empty_platform_rejected() {
        assert!(matches!(
            Platform::new("e", vec![]),
            Err(CostError::EmptyPlatform)
        ));
    }

    #[test]
    fn accelerator_lookup() {
        let p = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        assert!(p.accelerator(AcceleratorId(0)).is_some());
        assert!(p.accelerator(AcceleratorId(3)).is_none());
        assert_eq!(p.ids().count(), 3);
    }

    #[test]
    fn bigger_platform_has_more_peak_throughput() {
        let small = Platform::preset(PlatformPreset::Homo4kWs2);
        let big = Platform::preset(PlatformPreset::Homo8kWs2);
        assert!(big.peak_macs_per_ns() > small.peak_macs_per_ns());
    }

    #[test]
    fn preset_names_match_paper_figures() {
        assert_eq!(PlatformPreset::Hetero4kWs1Os2.name(), "4K 1WS+2OS");
        assert_eq!(PlatformPreset::Homo8kOs2.name(), "8K 2OS");
        assert_eq!(PlatformPreset::all().len(), 8);
    }
}
