//! The coordinator CLI: shards an experiment grid across worker nodes
//! over the wire protocol, merges the outcomes, and (with `--verify`)
//! proves the merged fingerprint bit-identical to a single-process run
//! of the same grid.
//!
//! ```text
//! dream-coordinator --workers HOST:PORT,HOST:PORT,... \
//!     [--schedulers fcfs,edf,...] [--scenarios ar_call,...] \
//!     [--preset NAME] [--seeds N] [--duration-ms N] \
//!     [--record-traces] [--verify] [--out CSV] [--trace-out CSV] \
//!     [--drain]
//! ```
//!
//! Exit code 0 means every requested check passed; `--verify` mismatch
//! exits 1.

use std::fmt::Write as _;

use dream_bench::{DreamVariant, ExperimentGrid, RunSpec, SchedulerKind};
use dream_coordinator::Coordinator;
use dream_cost::PlatformPreset;
use dream_models::ScenarioKind;
use dream_serve::parse_scenario_kind;

fn parse_scheduler(name: &str) -> Option<SchedulerKind> {
    Some(match name.to_ascii_lowercase().as_str() {
        "fcfs" => SchedulerKind::Fcfs,
        "static" => SchedulerKind::Static,
        "edf" => SchedulerKind::Edf,
        "veltair" => SchedulerKind::Veltair,
        "planaria" => SchedulerKind::Planaria,
        "dream-mapscore" => SchedulerKind::DreamTuned(DreamVariant::MapScore),
        "dream-smartdrop" => SchedulerKind::DreamTuned(DreamVariant::SmartDrop),
        "dream-full" => SchedulerKind::DreamTuned(DreamVariant::Full),
        _ => return None,
    })
}

fn parse_preset(name: &str) -> Option<PlatformPreset> {
    PlatformPreset::all()
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
}

struct Options {
    workers: Vec<String>,
    schedulers: Vec<SchedulerKind>,
    scenarios: Vec<ScenarioKind>,
    preset: PlatformPreset,
    seeds: u64,
    duration_ms: u64,
    record_traces: bool,
    verify: bool,
    out: Option<String>,
    trace_out: Option<String>,
    drain: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dream-coordinator --workers HOST:PORT[,HOST:PORT...] \
         [--schedulers LIST] [--scenarios LIST] [--preset NAME] [--seeds N] \
         [--duration-ms N] [--record-traces] [--verify] [--out CSV] \
         [--trace-out CSV] [--drain]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        workers: Vec::new(),
        schedulers: vec![SchedulerKind::Fcfs, SchedulerKind::Edf],
        scenarios: vec![ScenarioKind::ArCall],
        preset: PlatformPreset::Homo4kWs2,
        seeds: 2,
        duration_ms: 300,
        record_traces: false,
        verify: false,
        out: None,
        trace_out: None,
        drain: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--workers" => {
                opts.workers = value("--workers")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--schedulers" => {
                opts.schedulers = value("--schedulers")
                    .split(',')
                    .map(|s| {
                        parse_scheduler(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown scheduler {s:?}");
                            usage();
                        })
                    })
                    .collect();
            }
            "--scenarios" => {
                opts.scenarios = value("--scenarios")
                    .split(',')
                    .map(|s| {
                        parse_scenario_kind(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown scenario {s:?}");
                            usage();
                        })
                    })
                    .collect();
            }
            "--preset" => {
                let name = value("--preset");
                opts.preset = parse_preset(&name).unwrap_or_else(|| {
                    eprintln!("unknown preset {name:?}");
                    usage();
                });
            }
            "--seeds" => {
                opts.seeds = value("--seeds").parse().unwrap_or_else(|_| usage());
            }
            "--duration-ms" => {
                opts.duration_ms = value("--duration-ms").parse().unwrap_or_else(|_| usage());
            }
            "--record-traces" => opts.record_traces = true,
            "--verify" => opts.verify = true,
            "--out" => opts.out = Some(value("--out")),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--drain" => opts.drain = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if opts.workers.is_empty() {
        eprintln!("--workers is required");
        usage();
    }
    if opts.schedulers.is_empty() || opts.scenarios.is_empty() || opts.seeds == 0 {
        eprintln!("need at least one scheduler, scenario, and seed");
        usage();
    }
    opts
}

fn main() {
    let opts = parse_options();
    let mut grid = ExperimentGrid::new();
    for &scenario in &opts.scenarios {
        for &scheduler in &opts.schedulers {
            let spec =
                RunSpec::new(scheduler, scenario, opts.preset).with_duration_ms(opts.duration_ms);
            grid.add_seed_sweep(spec, opts.seeds);
        }
    }
    println!(
        "grid: {} cells across {} workers",
        grid.len(),
        opts.workers.len()
    );

    let coordinator = Coordinator::connect(opts.workers.clone()).unwrap_or_else(|e| {
        eprintln!("connect: {e}");
        std::process::exit(1);
    });
    let distributed = coordinator
        .run_grid(&grid, opts.record_traces)
        .unwrap_or_else(|e| {
            eprintln!("distributed run: {e}");
            std::process::exit(1);
        });
    println!("merged fingerprint: {:016x}", distributed.fingerprint());

    if let Some(path) = &opts.out {
        let mut csv =
            String::from("index,fingerprint,uxcost,mean_violation_rate,mean_norm_energy\n");
        for o in distributed.outcomes() {
            let _ = writeln!(
                csv,
                "{},{:016x},{},{},{}",
                o.index, o.fingerprint, o.uxcost, o.mean_violation_rate, o.mean_norm_energy
            );
        }
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        }
        println!("outcomes written to {path}");
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, distributed.merged_trace_csv()) {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        }
        println!("merged trace written to {path}");
    }

    let mut failed = false;
    if opts.verify {
        let local = grid.run();
        let local_fp = local.fingerprint();
        let dist_fp = distributed.fingerprint();
        if local_fp == dist_fp {
            println!("verify: OK — single-process fingerprint {local_fp:016x} matches");
        } else {
            eprintln!(
                "verify: MISMATCH — single-process {local_fp:016x} vs distributed {dist_fp:016x}"
            );
            failed = true;
        }
        // Cell-level audit so a mismatch names its cell.
        for (run, outcome) in local.runs().iter().zip(distributed.outcomes()) {
            if run.metrics.fingerprint() != outcome.fingerprint {
                eprintln!(
                    "verify: cell {} differs (local {:016x}, worker {:016x})",
                    outcome.index,
                    run.metrics.fingerprint(),
                    outcome.fingerprint
                );
            }
        }
    }

    if opts.drain {
        match coordinator.live() {
            Ok(mut live) => {
                if let Err(e) = live.drain_all() {
                    eprintln!("drain: {e}");
                    failed = true;
                } else {
                    println!("workers drained");
                }
            }
            Err(e) => {
                eprintln!("drain connect: {e}");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
