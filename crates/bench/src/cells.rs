//! Wire-shippable experiment cells: the bridge between
//! [`RunSpec`](crate::RunSpec) and `dream-serve`'s protocol-schema
//! [`CellSpec`], plus the [`CellRunner`] a worker node plugs into its
//! listener so a coordinator can ship it grid cells over the wire protocol.
//!
//! The conversion is deliberately *partial*: recorded-trace arrivals
//! and custom cost backends carry process-local state (an
//! `Arc<ArrivalTrace>`, an `Arc<dyn CostBackend>`) that does not travel
//! over the wire, so specs using them are refused at conversion time
//! rather than silently approximated — a worker must never run a cell
//! that is not bit-identical to what the coordinator would run locally.

use dream_core::ScoreParams;
use dream_cost::PlatformPreset;
use dream_serve::{
    parse_scenario_kind, CellArrival, CellDreamVariant, CellOutcome, CellRunner, CellScheduler,
    CellSpec,
};
use dream_sim::{ArrivalTrace, SimTime};

use crate::runner::{run_spec, ArrivalConfig, CostConfig, DreamVariant, RunSpec, SchedulerKind};

/// Converts a local [`RunSpec`] into its wire form, tagged with the
/// cell's global grid `index` (the merge identity).
///
/// # Errors
///
/// A human-readable reason when the spec is not wire-shippable
/// (recorded-trace arrivals, custom cost backends).
pub fn to_cell_spec(index: u64, spec: &RunSpec) -> Result<CellSpec, String> {
    let scheduler = match &spec.scheduler {
        SchedulerKind::Fcfs => CellScheduler::Fcfs,
        SchedulerKind::Static => CellScheduler::Static,
        SchedulerKind::Edf => CellScheduler::Edf,
        SchedulerKind::Veltair => CellScheduler::Veltair,
        SchedulerKind::Planaria => CellScheduler::Planaria,
        SchedulerKind::DreamFixed(variant, params) => CellScheduler::DreamFixed {
            variant: variant_to_wire(*variant),
            alpha: params.alpha(),
            beta: params.beta(),
        },
        SchedulerKind::DreamTuned(variant) => CellScheduler::DreamTuned {
            variant: variant_to_wire(*variant),
        },
    };
    let arrival = match &spec.arrival {
        ArrivalConfig::Periodic => CellArrival::Periodic,
        ArrivalConfig::Poisson { intensity } => CellArrival::Poisson {
            intensity: *intensity,
        },
        ArrivalConfig::Mmpp {
            calm,
            burst,
            p_enter,
            p_exit,
        } => CellArrival::Mmpp {
            calm: *calm,
            burst: *burst,
            p_enter: *p_enter,
            p_exit: *p_exit,
        },
        ArrivalConfig::Trace(t) => {
            return Err(format!(
                "recorded-trace arrivals ({}) are not wire-shippable",
                t.name()
            ))
        }
    };
    if !matches!(spec.cost, CostConfig::Analytical) {
        return Err("custom cost backends are not wire-shippable".into());
    }
    Ok(CellSpec {
        index,
        scheduler,
        scenario: spec.scenario.name().to_string(),
        preset: spec.preset.name().to_string(),
        cascade: spec.cascade,
        duration_ms: spec.duration_ms,
        seed: spec.seed,
        arrival,
    })
}

/// Reconstructs the local [`RunSpec`] a wire [`CellSpec`] denotes —
/// the inverse of [`to_cell_spec`] (bit-exact: every float travels by
/// bit pattern).
///
/// # Errors
///
/// A human-readable reason when a name or parameter does not resolve.
pub fn from_cell_spec(cell: &CellSpec) -> Result<RunSpec, String> {
    let scenario = parse_scenario_kind(&cell.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", cell.scenario))?;
    let preset = PlatformPreset::all()
        .into_iter()
        .find(|p| p.name() == cell.preset)
        .ok_or_else(|| format!("unknown platform preset {:?}", cell.preset))?;
    let scheduler = match cell.scheduler {
        CellScheduler::Fcfs => SchedulerKind::Fcfs,
        CellScheduler::Static => SchedulerKind::Static,
        CellScheduler::Edf => SchedulerKind::Edf,
        CellScheduler::Veltair => SchedulerKind::Veltair,
        CellScheduler::Planaria => SchedulerKind::Planaria,
        CellScheduler::DreamFixed {
            variant,
            alpha,
            beta,
        } => SchedulerKind::DreamFixed(
            variant_from_wire(variant),
            ScoreParams::new(alpha, beta).map_err(|e| format!("bad score params: {e}"))?,
        ),
        CellScheduler::DreamTuned { variant } => {
            SchedulerKind::DreamTuned(variant_from_wire(variant))
        }
    };
    let arrival = match cell.arrival {
        CellArrival::Periodic => ArrivalConfig::Periodic,
        CellArrival::Poisson { intensity } => ArrivalConfig::Poisson { intensity },
        CellArrival::Mmpp {
            calm,
            burst,
            p_enter,
            p_exit,
        } => ArrivalConfig::Mmpp {
            calm,
            burst,
            p_enter,
            p_exit,
        },
    };
    Ok(RunSpec {
        scheduler,
        scenario,
        preset,
        cascade: cell.cascade,
        duration_ms: cell.duration_ms,
        seed: cell.seed,
        arrival,
        cost: CostConfig::Analytical,
    })
}

fn variant_to_wire(v: DreamVariant) -> CellDreamVariant {
    match v {
        DreamVariant::MapScore => CellDreamVariant::MapScore,
        DreamVariant::SmartDrop => CellDreamVariant::SmartDrop,
        DreamVariant::Full => CellDreamVariant::Full,
    }
}

fn variant_from_wire(v: CellDreamVariant) -> DreamVariant {
    match v {
        CellDreamVariant::MapScore => DreamVariant::MapScore,
        CellDreamVariant::SmartDrop => DreamVariant::SmartDrop,
        CellDreamVariant::Full => DreamVariant::Full,
    }
}

/// Runs one wire cell to its outcome. When `record_trace` is set, the
/// cell's arrival stream is additionally materialized offline
/// ([`ArrivalTrace::record`]) and shipped back as CSV for merged-trace
/// auditing.
///
/// # Errors
///
/// Conversion failures from [`from_cell_spec`].
pub fn run_cell(cell: &CellSpec, record_trace: bool) -> Result<CellOutcome, String> {
    let spec = from_cell_spec(cell)?;
    dream_models::CascadeProbability::new(spec.cascade)
        .map_err(|e| format!("invalid cascade: {e}"))?;
    let result = run_spec(&spec);
    let trace_csv = if record_trace {
        let workload = crate::shared_workload(
            spec.scenario,
            spec.preset,
            spec.cascade,
            spec.duration_ms,
            spec.cost.backend(),
        );
        let mut source = spec.arrival.source();
        ArrivalTrace::record(
            format!("cell{}", cell.index),
            workload.as_ref(),
            SimTime::from_ns(spec.duration_ms.saturating_mul(1_000_000)),
            spec.seed,
            source.as_mut(),
        )
        .to_csv()
    } else {
        String::new()
    };
    Ok(CellOutcome {
        index: cell.index,
        fingerprint: result.metrics.fingerprint(),
        uxcost: result.uxcost,
        mean_violation_rate: result.mean_violation_rate,
        mean_norm_energy: result.mean_norm_energy,
        trace_csv,
    })
}

/// The [`CellRunner`] worker nodes plug into their listener: executes
/// each shipped cell through the same [`run_spec`] path as the local
/// [`ExperimentGrid`](crate::ExperimentGrid), so a worker's
/// fingerprints are bit-identical to a single-process run of the same
/// cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct GridCellRunner;

impl CellRunner for GridCellRunner {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        record_traces: bool,
    ) -> Result<Vec<CellOutcome>, String> {
        cells
            .iter()
            .map(|cell| run_cell(cell, record_traces))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::PlatformPreset;
    use dream_models::ScenarioKind;

    #[test]
    fn cell_spec_round_trips_bit_exactly() {
        let spec = RunSpec::new(
            SchedulerKind::DreamFixed(DreamVariant::Full, ScoreParams::new(0.7, 0.3).unwrap()),
            ScenarioKind::VrGaming,
            PlatformPreset::Hetero4kWs1Os2,
        )
        .with_cascade(0.25)
        .with_duration_ms(300)
        .with_seed(7)
        .with_arrivals(ArrivalConfig::Mmpp {
            calm: 0.8,
            burst: 2.5,
            p_enter: 0.1,
            p_exit: 0.4,
        });
        let cell = to_cell_spec(42, &spec).unwrap();
        assert_eq!(cell.index, 42);
        let back = from_cell_spec(&cell).unwrap();
        assert_eq!(back, spec);
        // And the wire round trip of the round trip is stable too.
        assert_eq!(to_cell_spec(42, &back).unwrap(), cell);
    }

    #[test]
    fn local_state_is_refused_not_approximated() {
        let spec = RunSpec::new(
            SchedulerKind::Fcfs,
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
        )
        .with_arrivals(ArrivalConfig::Trace(std::sync::Arc::new(
            ArrivalTrace::from_events("t", Vec::new()),
        )));
        assert!(to_cell_spec(0, &spec).unwrap_err().contains("trace"));
    }

    #[test]
    fn run_cell_matches_local_run_spec() {
        let spec = RunSpec::new(
            SchedulerKind::Fcfs,
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
        )
        .with_duration_ms(200);
        let cell = to_cell_spec(0, &spec).unwrap();
        let outcome = run_cell(&cell, false).unwrap();
        let local = run_spec(&spec);
        assert_eq!(outcome.fingerprint, local.metrics.fingerprint());
        assert_eq!(outcome.uxcost.to_bits(), local.uxcost.to_bits());
    }
}
