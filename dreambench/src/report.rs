//! Turns a workload's measurements into named metrics: one human-readable
//! block, then the one-line JSON result.

use std::collections::BTreeMap;

use crate::grid::GridRun;
use crate::serve::{ServeRun, Step, MAX_GEN_LATE_P99_MS};
use crate::stats::{self, Percentile};
use crate::timed::{SchedStats, SpanCost};

/// End-to-end metrics (tracing off), with units. Every workload reports
/// every one; see the README for what each means per workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_us", "us"),
];

/// The Fig-7 scheduler names, as the policies report them.
pub const SCHEDULERS: [&str; 6] = [
    "FCFS",
    "Veltair",
    "Planaria",
    "DREAM-MapScore",
    "DREAM-SmartDrop",
    "DREAM-Full",
];

/// Per-layer metrics (traced run), with units. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("cost.build_ms", "ms"),
    ("tune.ms", "ms"),
    ("engine.events", "count"),
    ("engine.events_per_decision", "1"),
    ("engine.ns_per_event", "ns"),
    ("engine.sim_s_per_s", "1"),
    ("sched.FCFS.ns_per_decision", "ns"),
    ("sched.Veltair.ns_per_decision", "ns"),
    ("sched.Planaria.ns_per_decision", "ns"),
    ("sched.DREAM-MapScore.ns_per_decision", "ns"),
    ("sched.DREAM-SmartDrop.ns_per_decision", "ns"),
    ("sched.DREAM-Full.ns_per_decision", "ns"),
    ("sched.task_event_ns", "ns"),
    ("sched.ready_mean", "count"),
    ("sched.empty_ratio", "1"),
    ("sched.score_build_ns", "ns"),
    ("sched.matching_ns", "ns"),
    ("sched.other_ns", "ns"),
    ("sched.drops", "count"),
    ("sched.supernet_switches", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.reply_encode_ns", "ns"),
    ("wire.snapshot_encode_ns", "ns"),
    ("wire.write_us", "us"),
    ("wire.snapshot_bytes", "B"),
    ("ingress.admit_ns_per_req", "ns"),
    ("ingress.backlog_max", "count"),
    ("ingress.shed", "count"),
    ("ingress.rejected", "count"),
    ("ingress.clamped_ratio", "1"),
    ("tick.count", "count"),
    ("tick.busy_ratio", "1"),
    ("tick.step_ns_per_tick", "ns"),
    ("tick.control_ns_per_tick", "ns"),
    ("tick.publish_ns_per_tick", "ns"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("serve.ack_tail_us", "us"),
    ("serve.snapshot_p99_us", "us"),
    ("serve.max_rps_slo", "req/s"),
    ("trace.overhead_pct", "%"),
    ("trace.empty_span_ns", "ns"),
    ("uxcost.dream", "1"),
    ("uxcost.gain_pct", "%"),
    ("fail_ratio", "1"),
];

/// A finished run, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// The human-readable block.
    pub lines: Vec<String>,
    /// Failed checks, one per line.
    pub errors: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The one-line JSON result: the end-to-end metrics, or the
    /// per-layer ones for a traced run.
    ///
    /// # Errors
    ///
    /// A metric the run should have produced is missing or not finite.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value = match self.values.get(*name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM in /proc/self/status".into())
}

fn show(p: &Percentile, unit: &str) -> String {
    format!(
        "{} {:.1} {unit} (n={}, {} beyond)",
        p.label(),
        p.value,
        p.n,
        p.beyond
    )
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sets the per-scheduler and aggregate scheduler metrics from wrapper
/// stats.
fn set_sched(r: &mut Report, span: &SpanCost, per_name: &BTreeMap<String, SchedStats>) {
    for name in SCHEDULERS {
        if let Some(s) = per_name.get(name) {
            r.set(
                &format!("sched.{name}.ns_per_decision"),
                span.per_decision_ns(s),
            );
        }
    }
}

fn set_sched_totals(r: &mut Report, span: &SpanCost, all: &SchedStats, passes: f64) {
    let decisions = all.decisions as f64;
    r.set("sched.task_event_ns", span.per_task_event_ns(all));
    r.set("sched.ready_mean", per(all.ready_sum as f64, decisions));
    r.set("sched.empty_ratio", per(all.empty as f64, decisions));
    r.set("sched.drops", per(all.drops as f64, passes));
    r.set("sched.supernet_switches", per(all.switches as f64, passes));
}

fn set_stages(r: &mut Report, stages: Option<dream_core::StageTimings>) {
    let s = stages.unwrap_or_default();
    let n = s.invocations as f64;
    r.set("sched.score_build_ns", per(s.score_build_ns as f64, n));
    r.set("sched.matching_ns", per(s.matching_ns as f64, n));
    r.set("sched.other_ns", per(s.other_ns as f64, n));
}

/// The report of a grid run.
///
/// # Errors
///
/// The peak RSS could not be read, or a UXCost was not positive.
pub fn grid(run: &GridRun) -> Result<Report, String> {
    let mut r = Report {
        correct: run.errors.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        errors: run.errors.clone(),
        ..Report::default()
    };
    let setup: Vec<f64> = run.setup.iter().map(|s| s.total_s()).collect();
    let rates: Vec<f64> = run
        .passes
        .iter()
        .map(|p| p.sim_s_per_s(&run.cells))
        .collect();
    // Every pass repeats the same work bit for bit, so nothing makes a
    // pass faster than the code allows, while the host imposes slow
    // phases lasting seconds: the fastest pass is the steadiest estimate.
    let chosen = (0..rates.len())
        .max_by(|&a, &b| rates[a].total_cmp(&rates[b]))
        .expect("a grid run makes at least one pass");
    let sim_rate = rates[chosen];
    let uxcost_of = |name: &str| -> Result<f64, String> {
        let values: Vec<f64> = run
            .cells
            .iter()
            .zip(&run.outcomes.uxcost)
            .filter(|(c, _)| c.scheduler.name() == name)
            .map(|(_, u)| *u)
            .collect();
        stats::geomean(&values).ok_or_else(|| format!("{name} has a non-positive UXCost"))
    };
    let dream = uxcost_of("DREAM-Full")?;
    let planaria = uxcost_of("Planaria")?;
    let gain = stats::uxcost_gain_pct(dream, planaria);
    // What a grid user waits for is the whole grid: the same pass's wall
    // time.
    let latency_us = run.passes[chosen].wall_s * 1.0e6;
    let cell_us = stats::sorted(
        run.passes[chosen]
            .cell_s
            .iter()
            .map(|s| s * 1.0e6)
            .collect(),
    );
    let cell_p50 = stats::median(&cell_us);

    r.set("setup_s", stats::median_of(&setup).unwrap_or(0.0));
    r.set("peak_rss_mb", peak_rss_mb()?);
    r.set("engine.sim_s_per_s", sim_rate);
    r.set("uxcost.dream", dream);
    r.set("latency_us", latency_us);
    r.set("uxcost.gain_pct", gain);
    let fail = stats::fail_ratio(run.failed, run.attempted);
    r.set("fail_ratio", fail);

    r.line(format!(
        "cells: {} per pass ({} s horizon each), {} untimed passes",
        run.cells.len(),
        run.cells[0].duration_ms as f64 / 1.0e3,
        run.passes.len()
    ));
    r.line(format!(
        "setup_s: {:.3} s (median of {} set-ups: tables + tuning)",
        r.values["setup_s"],
        setup.len()
    ));
    r.line(format!("peak_rss_mb: {:.1} MB", r.values["peak_rss_mb"]));
    r.line(format!(
        "fail_ratio: {fail} ({} of {} cell runs failed a fingerprint check)",
        run.failed, run.attempted
    ));
    let median_rate = stats::median_of(&rates).unwrap_or(sim_rate);
    r.line(format!(
        "sim_s_per_s: {sim_rate:.1} (fastest of {} passes; median pass {median_rate:.1})",
        rates.len()
    ));
    r.line(format!("uxcost_dream: {dream:.6} (DREAM-Full geomean)"));
    r.line(format!(
        "uxcost_gain_pct: {gain:.2} % (DREAM-Full {dream:.6} vs Planaria {planaria:.6})"
    ));
    r.line(format!(
        "latency_us: {latency_us:.0} us (wall time of that pass; cell {})",
        show(&cell_p50, "us")
    ));

    // Per-layer numbers, from the traced passes.
    let build: Vec<f64> = run.setup.iter().map(|s| s.build_ms).collect();
    let tune: Vec<f64> = run.setup.iter().map(|s| s.tune_ms).collect();
    r.set("cost.build_ms", stats::median_of(&build).unwrap_or(0.0));
    r.set("tune.ms", stats::median_of(&tune).unwrap_or(0.0));
    let o = &run.outcomes;
    r.set("engine.events", o.events as f64);
    r.set(
        "engine.events_per_decision",
        per(o.events as f64, o.decisions as f64),
    );
    r.set("trace.empty_span_ns", run.span.wall_ns);
    if !run.traced.is_empty() {
        let mut per_name: BTreeMap<String, SchedStats> = BTreeMap::new();
        let mut all = SchedStats::default();
        let (mut self_ns, mut events) = (0.0, 0u64);
        for t in &run.traced {
            for (name, s) in &t.per_scheduler {
                per_name.entry(name.clone()).or_default().merge(s);
            }
            let total = t.total();
            self_ns += run.span.engine_self_ns(t.sim_ns, &total);
            events += t.events;
            all.merge(&total);
        }
        r.set("engine.ns_per_event", per(self_ns, events as f64));
        set_sched(&mut r, &run.span, &per_name);
        set_sched_totals(&mut r, &run.span, &all, run.traced.len() as f64);
        let traced_rates: Vec<f64> = run
            .traced
            .iter()
            .map(|t| {
                let virtual_s: f64 = run.cells.iter().map(|c| c.duration_ms as f64 / 1e3).sum();
                virtual_s / t.wall_s
            })
            .collect();
        let traced_rate = stats::median_of(&traced_rates).unwrap_or(median_rate);
        r.set(
            "trace.overhead_pct",
            (median_rate - traced_rate) / median_rate * 100.0,
        );
        r.line(format!(
            "traced: {} passes, median {:.1} virtual s/s traced vs {median_rate:.1} untraced",
            run.traced.len(),
            traced_rate
        ));
    }
    set_stages(&mut r, run.stage_pass.as_ref().map(|s| s.stages()));
    Ok(r)
}

fn step_line(s: &Step) -> String {
    let ack = stats::tail(&s.ack_us)
        .map(|p| show(&p, "us"))
        .unwrap_or_else(|| "no ack tail".into());
    let slo = s.slo();
    format!(
        "step x{}: {:.0} req/s, setup {:.3} s, ack p99 {:.1} us, ack {ack}, clamped {}, \
         backlog growth ingress/events {}/{}, gen late p99 {:.3} ms, fail {}/{} → SLO {}",
        s.accel,
        s.rate,
        s.setup_s,
        slo.ack_p99_us,
        slo.clamped,
        slo.ingress_grows,
        slo.events_grow,
        gen_late_p99_ms(s),
        s.funnel.failed(),
        s.funnel.attempted(),
        if slo.passes() && !gen_lagged(s) {
            "pass"
        } else {
            "fail"
        }
    )
}

fn gen_late_p99_ms(s: &Step) -> f64 {
    if s.late_ms.is_empty() {
        0.0
    } else {
        stats::quantile(&s.late_ms, 0.99)
    }
}

fn gen_lagged(s: &Step) -> bool {
    gen_late_p99_ms(s) > MAX_GEN_LATE_P99_MS
}

/// The report of a serve run.
///
/// # Errors
///
/// The peak RSS could not be read, or the nominal step has no acks.
pub fn serve(run: &ServeRun) -> Result<Report, String> {
    let nominal = run.nominal();
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    for s in run.steps.iter().chain(&run.traced) {
        r.attempted += s.funnel.attempted() + s.errors.len() as u64;
        r.failed += s.funnel.failed() + s.errors.len() as u64;
        r.errors.extend(s.errors.iter().cloned());
    }
    if gen_lagged(nominal) {
        r.errors.push(format!(
            "invalid run: the generator lagged (late p99 {:.3} ms > {MAX_GEN_LATE_P99_MS:.3} ms)",
            gen_late_p99_ms(nominal)
        ));
    }
    r.correct = r.errors.is_empty();
    if nominal.ack_us.is_empty() {
        return Err("the nominal step got no acks".into());
    }
    let p50 = stats::median(&nominal.ack_us);
    let tail = stats::tail(&nominal.ack_us).unwrap_or(p50);
    // Traced runs replay the (identical) nominal session under Planaria.
    let gain = run
        .traced
        .as_ref()
        .and_then(|t| t.replay_uxcost("Planaria"))
        .map(|planaria| (planaria, stats::uxcost_gain_pct(nominal.uxcost(), planaria)));
    let setup: Vec<f64> = run
        .setup_s
        .iter()
        .copied()
        .chain(run.steps.iter().map(|s| s.setup_s))
        .collect();
    r.set("setup_s", stats::median_of(&setup).unwrap_or(0.0));
    r.set("peak_rss_mb", peak_rss_mb()?);
    if let Some(rate) = nominal.replay_rate {
        r.set("engine.sim_s_per_s", rate);
    }
    r.set("uxcost.dream", nominal.uxcost());
    r.set("latency_us", p50.value);
    r.set("serve.ack_tail_us", tail.value);
    if let Some((_, g)) = gain {
        r.set("uxcost.gain_pct", g);
    }
    let slos: Vec<_> = run
        .steps
        .iter()
        .filter(|s| !gen_lagged(s))
        .map(Step::slo)
        .collect();
    let max_rps = stats::max_rate_passing(&slos);
    r.set("serve.max_rps_slo", max_rps);
    let snapshot = stats::tail(&nominal.snapshot_us);
    if let Some(p) = snapshot {
        r.set("serve.snapshot_p99_us", p.value);
    }
    let fail = stats::fail_ratio(r.failed, r.attempted);
    r.set("fail_ratio", fail);

    for s in &run.steps {
        r.line(step_line(s));
    }
    r.line(format!(
        "setup_s: {:.4} s (median of {} set-ups: engine, listener, handshake)",
        r.values["setup_s"],
        setup.len()
    ));
    r.line(format!("peak_rss_mb: {:.1} MB", r.values["peak_rss_mb"]));
    r.line(format!(
        "fail_ratio: {fail} ({} of {} frames and checks failed)",
        r.failed, r.attempted
    ));
    r.line(format!(
        "sim_s_per_s: {:.1} (batch replay of the nominal session; {:.1} inside the live node's step stage)",
        nominal.replay_rate.unwrap_or(0.0),
        nominal.live_sim_s_per_s()
    ));
    r.line(format!(
        "uxcost_dream: {:.6} (live DREAM-Full session, nominal step)",
        nominal.uxcost()
    ));
    match gain {
        Some((planaria, g)) => r.line(format!(
            "uxcost_gain_pct: {g:.2} % (vs Planaria replaying the same record: {planaria:.6})"
        )),
        None => r.line("uxcost_gain_pct: reported by the traced run".into()),
    }
    r.line(format!("latency_us = ack_p50_us: {}", show(&p50, "us")));
    r.line(format!("ack tail (ack_p999_us): {}", show(&tail, "us")));
    match snapshot {
        Some(p) => r.line(format!("snapshot_p99_us: {}", show(&p, "us"))),
        None => r.line(format!(
            "snapshot_p99_us: too few samples ({})",
            nominal.snapshot_us.len()
        )),
    }
    r.line(format!("max_rps_slo: {max_rps:.0} req/s"));

    // Per-layer numbers, from the traced nominal step.
    r.set("trace.empty_span_ns", run.span.wall_ns);
    if let Some(build_ms) = run.build_ms {
        r.set("cost.build_ms", build_ms);
    }
    r.set("tune.ms", run.tune_ms);
    if let Some(t) = &run.traced {
        let m = &t.metrics;
        let events = m.events_processed as f64;
        r.set("engine.events", events);
        r.set(
            "engine.events_per_decision",
            per(events, m.scheduler_invocations as f64),
        );
        if let Some(live) = &t.sched {
            let self_ns = run.span.engine_self_ns(t.profile.step_ns as f64, live);
            r.set("engine.ns_per_event", per(self_ns, events));
            set_sched_totals(&mut r, &run.span, live, 1.0);
        }
        let per_name: BTreeMap<String, SchedStats> =
            t.replays.iter().map(|(n, s, _)| (n.clone(), *s)).collect();
        set_sched(&mut r, &run.span, &per_name);
        set_stages(&mut r, t.stages);
        if let Some(w) = &t.wire {
            r.set("wire.encode_ns", w.encode_ns);
            r.set("wire.decode_ns", w.decode_ns);
            r.set("wire.reply_encode_ns", w.reply_encode_ns);
            r.set("wire.snapshot_encode_ns", w.snapshot_encode_ns);
            r.set("wire.snapshot_bytes", w.snapshot_bytes);
        }
        r.set(
            "wire.write_us",
            per(t.write_ns.iter().sum::<f64>(), t.write_ns.len() as f64) / 1.0e3,
        );
        let admitted: u64 = t.sources.iter().map(|s| s.admitted).sum();
        let p = &t.profile;
        r.set(
            "ingress.admit_ns_per_req",
            per(p.admit_ns as f64, admitted as f64),
        );
        r.set(
            "ingress.backlog_max",
            t.ingress_backlog.iter().copied().fold(0.0, f64::max),
        );
        r.set(
            "ingress.shed",
            t.sources.iter().map(|s| s.shed).sum::<u64>() as f64,
        );
        r.set(
            "ingress.rejected",
            t.sources
                .iter()
                .map(|s| s.rejected_capacity + s.rejected_invalid + s.rejected_closed)
                .sum::<u64>() as f64,
        );
        r.set(
            "ingress.clamped_ratio",
            per(t.clamped() as f64, admitted as f64),
        );
        let ticks = p.ticks as f64;
        r.set("tick.count", ticks);
        r.set(
            "tick.busy_ratio",
            per(p.total_ns() as f64, t.engine_wall_ns),
        );
        r.set("tick.step_ns_per_tick", per(p.step_ns as f64, ticks));
        r.set("tick.control_ns_per_tick", per(p.control_ns as f64, ticks));
        r.set("tick.publish_ns_per_tick", per(p.publish_ns as f64, ticks));
        r.set("gen.late_p99_ms", gen_late_p99_ms(t));
        r.set("gen.late_max_ms", t.late_ms.last().copied().unwrap_or(0.0));
        let untraced = nominal.live_sim_s_per_s();
        r.set(
            "trace.overhead_pct",
            (untraced - t.live_sim_s_per_s()) / untraced * 100.0,
        );
        r.line(format!("traced nominal: {}", step_line(t)));
    }
    Ok(r)
}
