//! The [`CellRunner`] a worker node plugs into its listener, so a
//! coordinator can ship it experiment-grid cells over the wire protocol.
//!
//! `dream-serve` carries each cell as opaque bytes; this crate owns
//! their format. A cell is a [`RunSpec`] encoded by
//! [`RunSpec::encode`], and the runner decodes and validates it with
//! [`RunSpec::decode`] before running it through the same [`run_spec`]
//! path as the local [`ExperimentGrid`](crate::ExperimentGrid).

use dream_serve::{CellOutcome, CellRunner};
use dream_sim::{ArrivalTrace, SimTime};

use crate::runner::{run_spec, RunSpec};

/// Decodes and runs one wire cell to its outcome. When `record_trace`
/// is set, the cell's arrival stream is additionally materialized
/// offline ([`ArrivalTrace::record`]) and shipped back as CSV for
/// merged-trace auditing.
///
/// # Errors
///
/// Decoding and validation failures from [`RunSpec::decode`].
fn run_cell(index: u64, cell: &[u8], record_trace: bool) -> Result<CellOutcome, String> {
    let spec = RunSpec::decode(cell)?;
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
            format!("cell{index}"),
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
        index,
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
        cells: &[(u64, Vec<u8>)],
        record_traces: bool,
    ) -> Result<Vec<CellOutcome>, String> {
        cells
            .iter()
            .map(|(index, cell)| run_cell(*index, cell, record_traces))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalConfig, DreamVariant, SchedulerKind};
    use dream_core::ScoreParams;
    use dream_cost::{CostModel, PlatformPreset};
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
        let bytes = spec.encode().unwrap();
        let back = RunSpec::decode(&bytes).unwrap();
        assert_eq!(back, spec);
        // And the round trip of the round trip is stable too.
        assert_eq!(back.encode().unwrap(), bytes);
    }

    #[test]
    fn local_state_is_refused_not_approximated() {
        let spec = RunSpec::new(
            SchedulerKind::Fcfs,
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
        );
        let traced = spec
            .clone()
            .with_arrivals(ArrivalConfig::Trace(std::sync::Arc::new(
                ArrivalTrace::from_events("t", Vec::new()),
            )));
        assert!(traced.encode().unwrap_err().contains("trace"));
        let custom = spec.with_cost_backend(std::sync::Arc::new(CostModel::paper_default()));
        assert!(custom.encode().unwrap_err().contains("cost backend"));
    }

    #[test]
    fn run_cell_matches_local_run_spec() {
        let spec = RunSpec::new(
            SchedulerKind::Fcfs,
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
        )
        .with_duration_ms(200);
        let outcome = run_cell(3, &spec.encode().unwrap(), false).unwrap();
        let local = run_spec(&spec);
        assert_eq!(outcome.index, 3);
        assert_eq!(outcome.fingerprint, local.metrics.fingerprint());
        assert_eq!(outcome.uxcost.to_bits(), local.uxcost.to_bits());
    }
}
