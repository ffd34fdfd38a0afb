//! A worker node: a `dream-serve` engine on a virtual clock, listening
//! on TCP with a grid-cell runner attached, alive until a peer sends a
//! framed `Drain` request (`dream-coordinator --drain` does).
//!
//! ```text
//! dream-worker [--addr HOST:PORT] [--port-file PATH] [--seed N]
//! ```
//!
//! With `--addr 127.0.0.1:0` (the default) the kernel picks the port;
//! `--port-file` writes the bound `host:port` to a file so a driver
//! script can discover it without races.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use dream_bench::GridCellRunner;
use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_serve::{listen_tcp_with_runner, ManualClock, ServeConfig, ServeEngine};

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<String> = None;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--port-file" => port_file = Some(value("--port-file")),
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed: {e}");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!("usage: dream-worker [--addr HOST:PORT] [--port-file PATH] [--seed N]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = seed;
    config.clock = Arc::new(ManualClock::new());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full())))
            .unwrap_or_else(|e| {
                eprintln!("engine: {e}");
                std::process::exit(1);
            });
    let (bound, socket) =
        listen_tcp_with_runner(&handle, addr.as_str(), Some(Arc::new(GridCellRunner)))
            .unwrap_or_else(|e| {
                eprintln!("bind {addr}: {e}");
                std::process::exit(1);
            });
    if let Some(path) = port_file {
        let payload = format!("{bound}\n");
        std::fs::write(&path, payload).unwrap_or_else(|e| {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        });
    }
    println!("dream-worker listening on {bound} (seed {seed})");
    let _ = std::io::stdout().flush();

    // Blocks until a peer drains the session.
    match engine.run() {
        Ok(report) => {
            socket.shutdown();
            println!(
                "dream-worker drained: fingerprint={:016x} ticks={}",
                report.outcome.metrics().fingerprint(),
                report.ticks
            );
        }
        Err(e) => {
            socket.shutdown();
            eprintln!("engine failed: {e}");
            std::process::exit(1);
        }
    }
}
