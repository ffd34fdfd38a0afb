//! Export-then-replay: swap the analytical cost model for a table-driven
//! MAESTRO-style import and reproduce the identical simulation.
//!
//! ```text
//! cargo run --release --example table_backend
//! ```
//!
//! The demo does the round trip a real MAESTRO deployment needs:
//!
//! 1. build a workload under the analytical backend,
//! 2. export its per-(layer, accelerator) cost table to CSV
//!    (`TableBackend::derive` — the fixture generator),
//! 3. load the CSV back as a [`TableBackend`],
//! 4. replay the same scenario/seed under the imported table and verify
//!    the run is **bit-identical** to the analytical one — while the two
//!    workloads still identify as different backends (digests differ).

use std::sync::Arc;

use dream::prelude::*;
use dream_cost::{CostBackend, TableBackend};
use dream_models::ScenarioKind;

const HORIZON_MS: u64 = 500;
const SEED: u64 = 11;

fn builder(platform: Platform, scenario: Scenario) -> SimulationBuilder {
    SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(HORIZON_MS))
        .seed(SEED)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::new(0.5)?);

    // 1. The analytical run (and the layer universe its workload needs).
    let ws = builder(platform.clone(), scenario.clone()).build_workload()?;
    let mut sched = DreamScheduler::new(DreamConfig::full());
    let analytical_metrics = builder(platform.clone(), scenario.clone())
        .run(&mut sched)?
        .into_metrics();

    // 2. Export the cost table — the import fixture a MAESTRO run would
    //    otherwise produce.
    let model = CostModel::paper_default();
    let exported = TableBackend::derive("ar-call-demo", &model, &platform, ws.layers())?;
    let dir = dream_bench::artifacts_dir("tables");
    let csv_path = dir.join("ar_call_costs.csv");
    exported.save(&csv_path)?;
    println!(
        "exported {} layer rows, {} gang rows, {} accelerators",
        exported.layer_entry_count(),
        exported.gang_entry_count(),
        exported.accelerator_names().count()
    );
    println!("  CSV: {}", csv_path.display());

    // 3. Import the CSV as a backend of its own.
    let table: Arc<dyn CostBackend> = Arc::new(TableBackend::load(&csv_path)?);
    println!(
        "digests: analytical {:016x} vs table {:016x} (distinct identities)",
        model.calibration_digest(),
        table.calibration_digest()
    );
    assert_ne!(model.calibration_digest(), table.calibration_digest());

    // 4. Replay under the imported table.
    let mut sched = DreamScheduler::new(DreamConfig::full());
    let table_metrics = builder(platform, scenario)
        .cost_backend(Arc::clone(&table))
        .run(&mut sched)?
        .into_metrics();

    println!(
        "analytical fingerprint {:016x}, table-replay fingerprint {:016x}",
        analytical_metrics.fingerprint(),
        table_metrics.fingerprint()
    );
    assert_eq!(
        analytical_metrics.fingerprint(),
        table_metrics.fingerprint(),
        "the imported table must reproduce the analytical run bit-for-bit"
    );
    println!("bit-identical ✔");
    Ok(())
}
