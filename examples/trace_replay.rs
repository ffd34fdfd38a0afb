//! Trace replay: drive the simulator from a recorded request log instead
//! of the paper's fixed-FPS pipelines, and compare schedulers on the
//! request-latency percentiles the log's users would experience.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```
//!
//! The demo does the round trip a served-traffic experiment needs:
//! record a bursty stream into an [`ArrivalTrace`], serialize it to the
//! text format, parse it back, and replay the identical traffic under
//! two schedulers.

use dream::prelude::*;
use dream_sim::{ArrivalTrace, Millis, MmppArrivals, SimTime, TraceArrivals};

const HORIZON_MS: u64 = 800;

fn builder(platform: Platform, scenario: Scenario) -> SimulationBuilder {
    SimulationBuilder::new(platform, scenario)
        .duration(Millis::new(HORIZON_MS))
        .seed(7)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let scenario = Scenario::ar_call(CascadeProbability::new(0.5)?);

    // 1. Record a bursty request log offline: calm traffic at 0.7× the
    //    nominal rate, bursts at 2.5×.
    let ws = builder(platform.clone(), scenario.clone()).build_workload()?;
    let mut bursty = MmppArrivals::new(0.7, 2.5, 0.2, 0.25);
    let horizon = SimTime::from(Millis::new(HORIZON_MS));
    let recorded = ArrivalTrace::record("bursty-log", &ws, horizon, 7, &mut bursty);

    // 2. Serialize to the text format and load it back — what replaying
    //    a log captured from a real deployment looks like.
    let text = recorded.to_csv();
    let trace = ArrivalTrace::parse("bursty-log", &text)?;
    assert_eq!(trace, recorded);
    println!(
        "replaying {} arrivals over {} models ({} ms horizon)\n",
        trace.len(),
        trace.keys().count(),
        HORIZON_MS
    );
    println!("first log lines:");
    for line in text.lines().take(5) {
        println!("  {line}");
    }
    println!();

    // 3. Replay the identical traffic under FCFS and full DREAM.
    for dream in [false, true] {
        let mut fcfs = FcfsScheduler::new();
        let mut full = DreamScheduler::new(DreamConfig::full());
        let scheduler: &mut dyn dream_sim::Scheduler = if dream { &mut full } else { &mut fcfs };
        let metrics = builder(platform.clone(), scenario.clone())
            .arrivals(TraceArrivals::new(trace.clone()))
            .run(scheduler)?
            .into_metrics();
        let sojourn = metrics.sojourn_histogram();
        let pct = |q| {
            sojourn
                .quantile_ms(q)
                .map_or_else(|| "-".into(), |ms| format!("{ms:7.3} ms"))
        };
        println!(
            "{:10} p50 {}  p95 {}  p99 {}  violations {:.3}",
            scheduler.name(),
            pct(0.50),
            pct(0.95),
            pct(0.99),
            metrics.mean_violation_rate(),
        );
        for (key, s) in metrics.models() {
            println!(
                "  {key} {:12} released {:3}  on-time {:3}  p99 {}",
                s.model_name,
                s.released,
                s.completed_on_time,
                s.sojourn_hist
                    .quantile_ms(0.99)
                    .map_or_else(|| "-".into(), |ms| format!("{ms:.3} ms")),
            );
        }
        println!();
    }
    Ok(())
}
