use crate::fold::canonical_sum;
use crate::workload::ModelKey;
use crate::SimTime;

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0,
/// bucket `b` (1..=64) holds values in `[2^(b-1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable log2-bucketed histogram of `u64` samples (nanoseconds in
/// practice).
///
/// Recording is O(1) (a `leading_zeros` and an increment), the memory
/// bound is fixed ([`HISTOGRAM_BUCKETS`] counters), and two histograms
/// merge by adding counts — which is what lets per-model histograms pool
/// into one view, per-snapshot histograms publish over the wire, and
/// per-worker histograms aggregate into a fleet view, all without
/// shipping raw samples. Quantiles resolve to the containing bucket's
/// **upper bound** (nearest-rank), so a reported quantile is always `>=`
/// the exact sample quantile and at most 2× it.
///
/// Like the raw sojourn samples, histograms are **excluded** from
/// [`Metrics::fingerprint`] — they are an observability surface, never a
/// decision input (detlint's D4 enforces the latter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The largest value bucket `idx` can hold (`u64::MAX` for the last).
    pub fn bucket_upper_bound(idx: usize) -> u64 {
        match idx {
            0 => 0,
            64.. => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Resets every count (reusable scratch).
    pub fn clear(&mut self) {
        self.counts = [0; HISTOGRAM_BUCKETS];
        self.total = 0;
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`) as the containing
    /// bucket's upper bound. `None` when empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || !(0.0 < q && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(idx));
            }
        }
        // Unreachable: counts sum to total and rank <= total.
        Some(u64::MAX)
    }

    /// [`quantile`](Self::quantile) in milliseconds (samples are ns).
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|ns| ns as f64 / 1.0e6)
    }

    /// The non-empty buckets as `(bucket index, count)` pairs, ascending —
    /// the sparse form wire snapshots carry.
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuilds a histogram from its [`sparse`](Self::sparse) form.
    /// Out-of-range bucket indices saturate into the last bucket (a
    /// hostile or future peer cannot make this panic).
    pub fn from_sparse(pairs: &[(u32, u64)]) -> Self {
        let mut h = Histogram::new();
        for &(idx, count) in pairs {
            let idx = (idx as usize).min(HISTOGRAM_BUCKETS - 1);
            h.counts[idx] += count;
            h.total += count;
        }
        h
    }
}

/// Per-model outcome counters over the measurement horizon.
///
/// "Counted" frames are those whose deadline falls inside both the
/// simulation horizon and their workload phase; frames cut off at either
/// boundary are *censored* and excluded, so rates are unbiased.
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// The deployed network's name.
    pub model_name: &'static str,
    /// Target FPS.
    pub fps: f64,
    /// Counted frames released.
    pub released: u64,
    /// Frames excluded from metrics (deadline beyond the horizon/phase).
    pub censored: u64,
    /// Counted frames that completed by their deadline.
    pub completed_on_time: u64,
    /// Counted frames that completed after their deadline.
    pub completed_late: u64,
    /// Counted frames dropped by the scheduler.
    pub dropped: u64,
    /// Frames flushed by a phase change (censored by construction).
    pub flushed: u64,
    /// Energy consumed by counted frames (pJ).
    pub energy_pj: f64,
    /// Worst-case energy bound: counted frames × worst per-frame energy.
    pub worst_energy_pj: f64,
    /// Executions per supernet variant (index = variant id).
    pub variant_runs: Vec<u64>,
    /// Total queueing delay accumulated by counted frames (ns).
    pub wait_ns: u64,
    /// Per-request sojourn time of every counted completion, in ns:
    /// originating frame arrival → this model's completion (end-to-end
    /// through the cascade for child models). Dropped and never-finished
    /// frames contribute no sample. Unordered; percentile accessors sort.
    pub sojourn_ns: Vec<u64>,
    /// Log2-bucketed histogram of the same sojourn samples — the bounded,
    /// mergeable form live snapshots and the wire publish. Kept by
    /// [`Metrics::clone_counters`] (fixed size); excluded from the
    /// fingerprint like the raw samples.
    pub sojourn_hist: Histogram,
}

impl ModelStats {
    pub(crate) fn new(model_name: &'static str, fps: f64, variant_count: usize) -> Self {
        ModelStats {
            model_name,
            fps,
            released: 0,
            censored: 0,
            completed_on_time: 0,
            completed_late: 0,
            dropped: 0,
            flushed: 0,
            energy_pj: 0.0,
            worst_energy_pj: 0.0,
            variant_runs: vec![0; variant_count],
            wait_ns: 0,
            sojourn_ns: Vec::new(),
            sojourn_hist: Histogram::new(),
        }
    }

    /// Records one counted completion's sojourn time into both the raw
    /// sample buffer and the bounded histogram.
    pub(crate) fn record_sojourn(&mut self, ns: u64) {
        self.sojourn_ns.push(ns);
        self.sojourn_hist.record(ns);
    }

    /// Counted frames that violated their deadline: completed late, were
    /// dropped (per §4.2.1 drops count as violations), or never finished.
    pub fn violated(&self) -> u64 {
        self.released.saturating_sub(self.completed_on_time)
    }

    /// Deadline-violation rate over counted frames (Algorithm 2 line 6),
    /// with the paper's `1/(2·total)` floor when no violation occurred
    /// (lines 7–8). Returns `None` when no frames were counted.
    pub fn violation_rate(&self) -> Option<f64> {
        if self.released == 0 {
            return None;
        }
        let v = self.violated();
        if v == 0 {
            Some(1.0 / (2.0 * self.released as f64))
        } else {
            Some(v as f64 / self.released as f64)
        }
    }

    /// Raw violation rate without the zero floor (used for violation-rate
    /// reporting, e.g. Figure 2).
    pub fn raw_violation_rate(&self) -> Option<f64> {
        if self.released == 0 {
            None
        } else {
            Some(self.violated() as f64 / self.released as f64)
        }
    }

    /// The `q`-quantile (nearest-rank, `0 < q <= 1`) of this model's
    /// per-request sojourn times, in milliseconds. `None` when no counted
    /// frame completed or `q` is out of range.
    pub fn sojourn_percentile_ms(&self, q: f64) -> Option<f64> {
        self.sojourn_percentiles_ms(&[q])[0]
    }

    /// Several sojourn quantiles at once, copying and sorting the sample
    /// buffer a **single** time (the former single-quantile accessor
    /// cloned and re-sorted per call — 3× per p50/p95/p99 triple).
    pub fn sojourn_percentiles_ms(&self, qs: &[f64]) -> Vec<Option<f64>> {
        let mut samples = self.sojourn_ns.clone();
        samples.sort_unstable();
        qs.iter()
            .map(|&q| sorted_percentile_ms(&samples, q))
            .collect()
    }

    /// Energy normalised to the worst case (Algorithm 2 line 5). `None`
    /// when no frames were counted.
    pub fn normalized_energy(&self) -> Option<f64> {
        if self.released == 0 || self.worst_energy_pj <= 0.0 {
            None
        } else {
            Some(self.energy_pj / self.worst_energy_pj)
        }
    }
}

/// Nearest-rank quantile over an already-sorted sample buffer, in
/// milliseconds.
fn sorted_percentile_ms(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0 < q && q <= 1.0) {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1.0e6)
}

/// Aggregated simulation results.
#[derive(Debug, Clone)]
pub struct Metrics {
    horizon: SimTime,
    /// Per-model stats ascending by key. The engine registers every node
    /// of its workload in order, so position `i` is the workload's dense
    /// model index `i` (see [`WorkloadSet::model_index`](crate::WorkloadSet::model_index)).
    stats: Vec<(ModelKey, ModelStats)>,
    /// Number of scheduler invocations.
    pub scheduler_invocations: u64,
    /// Decision entries the engine rejected (busy accelerator, unknown
    /// task, illegal switch, …). Always zero for well-behaved schedulers.
    pub invalid_decisions: u64,
    /// Layers executed.
    pub layer_executions: u64,
    /// Context switches charged.
    pub context_switches: u64,
    /// Per-accelerator busy time (ns).
    pub acc_busy_ns: Vec<u64>,
    /// Events processed.
    pub events_processed: u64,
    /// Fault events applied (stall/fail/slowdown starts). **Excluded from
    /// [`fingerprint`](Self::fingerprint)** — fingerprints compare
    /// degraded runs against the same schedule replayed, and the schedule
    /// itself is pinned by [`FaultPlan::digest`](crate::FaultPlan::digest).
    pub faults_injected: u64,
    /// In-flight layers aborted and requeued by permanent accelerator
    /// failures. Fingerprint-excluded (diagnostic).
    pub fault_requeues: u64,
    /// Counted frames that missed their deadline (completed late or were
    /// dropped) while at least one fault was in effect — the
    /// degradation-attribution axis the chaos soak compares schedulers on.
    /// Fingerprint-excluded (diagnostic).
    pub deadline_miss_under_faults: u64,
}

impl Metrics {
    pub(crate) fn new(horizon: SimTime, acc_count: usize) -> Self {
        Metrics {
            horizon,
            stats: Vec::new(),
            scheduler_invocations: 0,
            invalid_decisions: 0,
            layer_executions: 0,
            context_switches: 0,
            acc_busy_ns: vec![0; acc_count],
            events_processed: 0,
            faults_injected: 0,
            fault_requeues: 0,
            deadline_miss_under_faults: 0,
        }
    }

    pub(crate) fn entry(
        &mut self,
        key: ModelKey,
        name: &'static str,
        fps: f64,
        variants: usize,
    ) -> &mut ModelStats {
        let pos = match self.position(key) {
            Ok(pos) => pos,
            Err(pos) => {
                self.stats
                    .insert(pos, (key, ModelStats::new(name, fps, variants)));
                pos
            }
        };
        &mut self.stats[pos].1
    }

    fn position(&self, key: ModelKey) -> Result<usize, usize> {
        self.stats.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The stats of `key`, found at `index` (its dense model index) when
    /// the metrics list every workload model, else by search.
    pub(crate) fn get_mut(&mut self, index: usize, key: ModelKey) -> Option<&mut ModelStats> {
        let pos = match self.stats.get(index) {
            Some(&(k, _)) if k == key => index,
            _ => self.position(key).ok()?,
        };
        Some(&mut self.stats[pos].1)
    }

    /// Re-pins the measurement horizon — used by a live session when a
    /// drain resolves the provisional open-ended horizon into the real
    /// one, so the finished metrics fingerprint the same window a batch
    /// replay of the session would.
    pub(crate) fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// The measurement horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Every model's stats, in key order.
    fn all(&self) -> impl Iterator<Item = &ModelStats> {
        self.stats.iter().map(|(_, s)| s)
    }

    /// Per-model stats in deterministic key order.
    pub fn models(&self) -> impl Iterator<Item = (&ModelKey, &ModelStats)> {
        self.stats.iter().map(|(k, s)| (k, s))
    }

    /// Stats for one model.
    pub fn model(&self, key: ModelKey) -> Option<&ModelStats> {
        let pos = self.position(key).ok()?;
        Some(&self.stats[pos].1)
    }

    /// Number of tracked models.
    pub fn model_count(&self) -> usize {
        self.stats.len()
    }

    /// Sum of per-model violation rates (Algorithm 2 line 10), including
    /// the zero-violation floor. Models with no counted frames are skipped.
    pub fn overall_violation_rate(&self) -> f64 {
        canonical_sum(self.all().filter_map(ModelStats::violation_rate))
    }

    /// Sum of per-model raw violation rates (no floor), for violation-rate
    /// plots.
    pub fn overall_raw_violation_rate(&self) -> f64 {
        canonical_sum(self.all().filter_map(ModelStats::raw_violation_rate))
    }

    /// Mean of per-model raw violation rates (a platform-comparable
    /// number in `[0, 1]`).
    pub fn mean_violation_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .all()
            .filter_map(ModelStats::raw_violation_rate)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            canonical_sum(rates.iter().copied()) / rates.len() as f64
        }
    }

    /// Sum of per-model normalised energies (Algorithm 2 line 11).
    pub fn overall_normalized_energy(&self) -> f64 {
        canonical_sum(self.all().filter_map(ModelStats::normalized_energy))
    }

    /// Mean of per-model normalised energies (platform-comparable, `[0,1]`).
    pub fn mean_normalized_energy(&self) -> f64 {
        let es: Vec<f64> = self
            .all()
            .filter_map(ModelStats::normalized_energy)
            .collect();
        if es.is_empty() {
            0.0
        } else {
            canonical_sum(es.iter().copied()) / es.len() as f64
        }
    }

    /// The `q`-quantile (nearest-rank, `0 < q <= 1`) of per-request
    /// sojourn times pooled across every model, in milliseconds — the
    /// served-traffic latency axis (p50/p95/p99). `None` when no counted
    /// frame completed.
    pub fn sojourn_percentile_ms(&self, q: f64) -> Option<f64> {
        self.sojourn_percentiles_ms(&[q])[0]
    }

    /// Several pooled sojourn quantiles at once, sorting the pooled
    /// samples a single time (use this for p50/p95/p99 triples).
    pub fn sojourn_percentiles_ms(&self, qs: &[f64]) -> Vec<Option<f64>> {
        let mut pooled: Vec<u64> = self
            .all()
            .flat_map(|s| s.sojourn_ns.iter().copied())
            .collect();
        pooled.sort_unstable();
        qs.iter()
            .map(|&q| sorted_percentile_ms(&pooled, q))
            .collect()
    }

    /// The sojourn histograms of every model merged into one pooled view —
    /// the bounded counterpart of [`sojourn_percentiles_ms`](Self::sojourn_percentiles_ms),
    /// and the summary live snapshots and the wire `Snapshot` reply carry.
    pub fn sojourn_histogram(&self) -> Histogram {
        let mut pooled = Histogram::new();
        for s in self.all() {
            pooled.merge(&s.sojourn_hist);
        }
        pooled
    }

    /// Total energy consumed by counted frames, in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        canonical_sum(self.all().map(|s| s.energy_pj)) / 1.0e9
    }

    /// A deterministic digest of every counter and energy value in the
    /// metrics (f64s hashed by bit pattern). Two runs produce the same
    /// fingerprint iff their metrics are bit-identical — the witness the
    /// determinism property tests and the `ExperimentGrid` thread-count
    /// equivalence check compare.
    ///
    /// The per-request sojourn samples are deliberately *not* part of the
    /// digest: the counters and energies fully pin down a run's outcome,
    /// and keeping the field set fixed keeps fingerprints comparable with
    /// values recorded before the samples existed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        let mut mix = |v: u64| h.mix(v);
        mix(self.horizon.as_ns());
        mix(self.scheduler_invocations);
        mix(self.invalid_decisions);
        mix(self.layer_executions);
        mix(self.context_switches);
        mix(self.events_processed);
        for &busy in &self.acc_busy_ns {
            mix(busy);
        }
        for (key, s) in &self.stats {
            mix(key.phase as u64);
            mix(key.pipeline.0 as u64);
            mix(key.node.0 as u64);
            mix(s.released);
            mix(s.censored);
            mix(s.completed_on_time);
            mix(s.completed_late);
            mix(s.dropped);
            mix(s.flushed);
            mix(s.energy_pj.to_bits());
            mix(s.worst_energy_pj.to_bits());
            mix(s.wait_ns);
            for &v in &s.variant_runs {
                mix(v);
            }
        }
        h.finish()
    }

    /// A clone with the per-request sojourn sample vectors left empty:
    /// every counter, energy, and histogram is copied, but the raw
    /// samples — which grow one entry per completion, without bound over
    /// a long-running session — are not. This is the bounded-size form
    /// live snapshots publish; the counters fully pin down a run's
    /// outcome (the samples are excluded from [`fingerprint`](Self::fingerprint)
    /// for the same reason).
    pub fn clone_counters(&self) -> Metrics {
        Metrics {
            horizon: self.horizon,
            stats: self
                .stats
                .iter()
                .map(|(key, s)| {
                    (
                        *key,
                        ModelStats {
                            model_name: s.model_name,
                            fps: s.fps,
                            released: s.released,
                            censored: s.censored,
                            completed_on_time: s.completed_on_time,
                            completed_late: s.completed_late,
                            dropped: s.dropped,
                            flushed: s.flushed,
                            energy_pj: s.energy_pj,
                            worst_energy_pj: s.worst_energy_pj,
                            variant_runs: s.variant_runs.clone(),
                            wait_ns: s.wait_ns,
                            sojourn_ns: Vec::new(),
                            sojourn_hist: s.sojourn_hist.clone(),
                        },
                    )
                })
                .collect(),
            scheduler_invocations: self.scheduler_invocations,
            invalid_decisions: self.invalid_decisions,
            layer_executions: self.layer_executions,
            context_switches: self.context_switches,
            acc_busy_ns: self.acc_busy_ns.clone(),
            events_processed: self.events_processed,
            faults_injected: self.faults_injected,
            fault_requeues: self.fault_requeues,
            deadline_miss_under_faults: self.deadline_miss_under_faults,
        }
    }

    /// Mean accelerator utilisation over the horizon, in `[0, 1]`.
    pub fn mean_utilization(&self) -> f64 {
        if self.acc_busy_ns.is_empty() || self.horizon.as_ns() == 0 {
            return 0.0;
        }
        let total: u64 = self.acc_busy_ns.iter().sum();
        total as f64 / (self.horizon.as_ns() as f64 * self.acc_busy_ns.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_models::{NodeId, PipelineId};

    fn key(n: usize) -> ModelKey {
        ModelKey {
            phase: 0,
            pipeline: PipelineId(0),
            node: NodeId(n),
        }
    }

    #[test]
    fn violation_rate_floor_matches_algorithm2() {
        let mut s = ModelStats::new("m", 30.0, 1);
        s.released = 60;
        s.completed_on_time = 60;
        // Zero violations → 1 / (2·60).
        assert!((s.violation_rate().unwrap() - 1.0 / 120.0).abs() < 1e-12);
        assert_eq!(s.raw_violation_rate().unwrap(), 0.0);

        s.completed_on_time = 45;
        s.completed_late = 10;
        s.dropped = 5;
        assert_eq!(s.violated(), 15);
        assert!((s.violation_rate().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unfinished_frames_count_as_violations() {
        let mut s = ModelStats::new("m", 30.0, 1);
        s.released = 10;
        s.completed_on_time = 7;
        // 3 frames never finished.
        assert_eq!(s.violated(), 3);
    }

    #[test]
    fn empty_model_yields_none() {
        let s = ModelStats::new("m", 30.0, 1);
        assert!(s.violation_rate().is_none());
        assert!(s.normalized_energy().is_none());
    }

    #[test]
    fn normalized_energy_ratio() {
        let mut s = ModelStats::new("m", 30.0, 1);
        s.released = 10;
        s.energy_pj = 30.0;
        s.worst_energy_pj = 100.0;
        assert!((s.normalized_energy().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn metrics_aggregation_sums_models() {
        let mut m = Metrics::new(SimTime::from_ns(1_000_000_000), 2);
        {
            let a = m.entry(key(0), "a", 30.0, 1);
            a.released = 10;
            a.completed_on_time = 5;
            a.energy_pj = 50.0;
            a.worst_energy_pj = 100.0;
        }
        {
            let b = m.entry(key(1), "b", 60.0, 1);
            b.released = 20;
            b.completed_on_time = 20;
            b.energy_pj = 20.0;
            b.worst_energy_pj = 100.0;
        }
        assert_eq!(m.model_count(), 2);
        // 0.5 + floor(1/40).
        assert!((m.overall_violation_rate() - (0.5 + 0.025)).abs() < 1e-12);
        assert!((m.overall_raw_violation_rate() - 0.5).abs() < 1e-12);
        assert!((m.overall_normalized_energy() - 0.7).abs() < 1e-12);
        assert!((m.mean_violation_rate() - 0.25).abs() < 1e-12);
        assert!((m.total_energy_mj() - 70.0 / 1.0e9).abs() < 1e-18);
    }

    #[test]
    fn clone_counters_drops_samples_but_fingerprints_identically() {
        let mut m = Metrics::new(SimTime::from_ns(1_000), 1);
        {
            let s = m.entry(key(0), "a", 30.0, 2);
            s.released = 3;
            s.completed_on_time = 3;
            s.variant_runs = vec![2, 1];
            s.record_sojourn(5);
            s.record_sojourn(9);
            s.record_sojourn(7);
            s.energy_pj = 12.5;
        }
        m.layer_executions = 4;
        let c = m.clone_counters();
        assert!(c.model(key(0)).unwrap().sojourn_ns.is_empty());
        assert_eq!(c.model(key(0)).unwrap().variant_runs, vec![2, 1]);
        assert_eq!(c.layer_executions, 4);
        // Samples are not part of the fingerprint, so the counter clone
        // fingerprints identically.
        assert_eq!(c.fingerprint(), m.fingerprint());
        assert!(c.sojourn_percentile_ms(0.5).is_none());
        assert_eq!(m.sojourn_percentile_ms(0.5), Some(7.0 / 1.0e6));
        // The bounded histogram survives the counter clone (it is O(1)
        // per model, unlike the raw sample buffer).
        assert_eq!(c.sojourn_histogram(), m.sojourn_histogram());
        assert_eq!(c.sojourn_histogram().total(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert!(h.quantile(0.5).is_none());
        h.record(0);
        h.record(1);
        h.record(7);
        h.record(1000);
        assert_eq!(h.total(), 4);
        // Nearest-rank on totals: p25 is the first sample (0), p50 the
        // second (1 → bucket upper bound 1), p100 the last
        // (1000 → bucket [512, 1024) upper bound 1023).
        assert_eq!(h.quantile(0.25), Some(0));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.75), Some(7));
        assert_eq!(h.quantile(1.0), Some(1023));
        // The bucket bound always dominates the exact sample and stays
        // within 2× of it.
        assert!(h.quantile(1.0).unwrap() >= 1000);
        assert!(h.quantile(1.0).unwrap() < 2000);
        assert!(h.quantile(0.0).is_none());
        assert!(h.quantile(1.5).is_none());
    }

    #[test]
    fn histogram_merge_matches_pooled_records() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut pooled = Histogram::new();
        for v in [3u64, 90, 1 << 40] {
            a.record(v);
            pooled.record(v);
        }
        for v in [0u64, 7, u64::MAX] {
            b.record(v);
            pooled.record(v);
        }
        a.merge(&b);
        assert_eq!(a, pooled);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn histogram_sparse_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 2, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let sparse = h.sparse();
        // Only the occupied buckets appear.
        assert!(sparse.len() < 8);
        assert_eq!(Histogram::from_sparse(&sparse), h);
        // Out-of-range indices saturate into the last bucket instead of
        // panicking on malformed wire input.
        let bad = vec![(9999u32, 5u64)];
        assert_eq!(Histogram::from_sparse(&bad).total(), 5);
    }

    #[test]
    fn sojourn_percentiles_sort_once_and_agree_with_single() {
        let mut m = Metrics::new(SimTime::from_ns(1_000), 1);
        {
            let s = m.entry(key(0), "a", 30.0, 1);
            for v in [40u64, 10, 30, 20, 50] {
                s.record_sojourn(v);
            }
        }
        let batch = m
            .model(key(0))
            .unwrap()
            .sojourn_percentiles_ms(&[0.5, 0.95, 0.99]);
        for (q, got) in [0.5, 0.95, 0.99].iter().zip(&batch) {
            assert_eq!(*got, m.model(key(0)).unwrap().sojourn_percentile_ms(*q));
        }
        assert_eq!(batch[0], Some(30.0 / 1.0e6));
    }

    #[test]
    fn utilization_fraction() {
        let mut m = Metrics::new(SimTime::from_ns(1000), 2);
        m.acc_busy_ns = vec![500, 1000];
        assert!((m.mean_utilization() - 0.75).abs() < 1e-12);
    }
}
