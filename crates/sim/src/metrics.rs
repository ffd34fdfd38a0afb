use crate::fold::canonical_sum;
use crate::workload::ModelKey;
use crate::SimTime;

/// Number of buckets in a [`Histogram`]: values `0..8` get one bucket
/// each, and every octave `[2^e, 2^(e+1))` with `3 <= e <= 63` is split
/// into 8 equal sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = 496;

/// A mergeable log2 × 8 linear histogram of `u64` samples (nanoseconds
/// in practice).
///
/// Recording is O(1) (a `leading_zeros`, a shift and an increment), the
/// memory bound is fixed ([`HISTOGRAM_BUCKETS`] inline counters, so
/// recording never allocates), and two histograms merge by adding counts
/// — which is what lets per-model histograms pool into one view,
/// per-snapshot histograms publish over the wire, per-seed histograms
/// pool into grid percentiles, and per-worker histograms aggregate into
/// a fleet view, all without shipping raw samples. Quantiles resolve to
/// the containing sub-bucket's **upper bound** (nearest-rank), so a
/// reported quantile is always `>=` the exact sample quantile and at
/// most 12.5% above it; values below 8 are exact.
///
/// Histograms are **excluded** from [`Metrics::fingerprint`] — they are
/// an observability surface, never a decision input (detlint's D4
/// enforces the latter).
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

    /// The bucket index a value lands in: `v` itself below 8, else the
    /// octave `e = floor(log2 v)` in the high bits and the three bits
    /// below the leading one as the sub-bucket.
    pub fn bucket_of(value: u64) -> usize {
        if value < 8 {
            return value as usize;
        }
        let e = 63 - value.leading_zeros();
        (((e - 2) << 3) | ((value >> (e - 3)) & 7) as u32) as usize
    }

    /// The largest value bucket `idx` can hold (`u64::MAX` for the last;
    /// out-of-range indices read as the last).
    pub fn bucket_upper_bound(idx: usize) -> u64 {
        if idx < 8 {
            return idx as u64;
        }
        let idx = idx.min(HISTOGRAM_BUCKETS - 1) as u32;
        let shift = (idx >> 3) - 1;
        let lower = u64::from(8 | (idx & 7)) << shift;
        lower + ((1u64 << shift) - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Adds every count of `other` into `self`, saturating at
    /// `u64::MAX` (merged peer input cannot overflow).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
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
    /// sub-bucket's upper bound. `None` when empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || !(0.0 < q && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(Self::bucket_upper_bound(idx));
            }
        }
        // Unreachable: the counts, saturated or not, sum to at least
        // total, and rank <= total.
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
    /// Out-of-range bucket indices saturate into the last bucket and
    /// counts saturate at `u64::MAX` (a hostile peer cannot make this
    /// panic or wrap).
    pub fn from_sparse(pairs: &[(u32, u64)]) -> Self {
        let mut h = Histogram::new();
        for &(idx, count) in pairs {
            let idx = (idx as usize).min(HISTOGRAM_BUCKETS - 1);
            h.counts[idx] = h.counts[idx].saturating_add(count);
            h.total = h.total.saturating_add(count);
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
    /// Per-request sojourn times of the counted completions, in ns:
    /// originating frame arrival → this model's completion (end-to-end
    /// through the cascade for child models). Dropped and never-finished
    /// frames contribute no sample. Excluded from the fingerprint.
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
            sojourn_hist: Histogram::new(),
        }
    }

    /// Records one counted completion's sojourn time.
    pub(crate) fn record_sojourn(&mut self, ns: u64) {
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
    /// itself is pinned by the run's [`FaultPlan`](crate::FaultPlan).
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

    /// The sojourn histograms of every model merged into one pooled view —
    /// the served-traffic latency axis (p50/p95/p99 via
    /// [`Histogram::quantile_ms`]), and the summary live snapshots and the
    /// wire `Snapshot` reply carry.
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
    /// The sojourn histograms are deliberately *not* part of the digest:
    /// the counters and energies fully pin down a run's outcome, and
    /// keeping the field set fixed keeps fingerprints comparable with
    /// values recorded before the histograms existed.
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
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert!(h.quantile(0.5).is_none());
        h.record(0);
        h.record(1);
        h.record(7);
        h.record(1100);
        assert_eq!(h.total(), 4);
        // Nearest-rank on totals: p25 is the first sample (0), p50 the
        // second (1), p75 the third (7) — all below 8, so exact. p100 is
        // 1100: e = 10, sub-bucket (1100 >> 7) & 7 = 0, so the range is
        // [8 << 7, 9 << 7) = [1024, 1152) with upper bound 1151.
        assert_eq!(h.quantile(0.25), Some(0));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.75), Some(7));
        assert_eq!(h.quantile(1.0), Some(1151));
        assert!(h.quantile(0.0).is_none());
        assert!(h.quantile(1.5).is_none());
    }

    #[test]
    fn histogram_layout_follows_the_formula() {
        // Below 8 a value is its own bucket; 8..16 (e = 3) still has
        // unit-wide sub-buckets.
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_of(v), v as usize);
            assert_eq!(Histogram::bucket_upper_bound(v as usize), v);
        }
        // e = 4: bucket ((4 - 2) << 3) | ((v >> 1) & 7), two values wide.
        assert_eq!(Histogram::bucket_of(16), 16);
        assert_eq!(Histogram::bucket_of(17), 16);
        assert_eq!(Histogram::bucket_of(18), 17);
        assert_eq!(Histogram::bucket_upper_bound(16), 17);
        assert_eq!(Histogram::bucket_upper_bound(23), 31);
        // e = 63, sub-bucket 7: ((63 - 2) << 3) | 7 = 495, the last.
        assert_eq!(Histogram::bucket_of(u64::MAX), 495);
        assert_eq!(Histogram::bucket_of(15 << 60), 495);
        assert_eq!(Histogram::bucket_of((15 << 60) - 1), 494);
        assert_eq!(HISTOGRAM_BUCKETS, 496);
        assert_eq!(Histogram::bucket_upper_bound(495), u64::MAX);
        assert_eq!(Histogram::bucket_upper_bound(9999), u64::MAX);
        // The upper bound is the exact inverse: it lands in its own
        // bucket, and one more lands in the next.
        for b in 0..HISTOGRAM_BUCKETS {
            let ub = Histogram::bucket_upper_bound(b);
            assert_eq!(Histogram::bucket_of(ub), b);
            if b + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(Histogram::bucket_of(ub + 1), b + 1);
            }
        }
    }

    #[test]
    fn histogram_counts_saturate_instead_of_overflowing() {
        let hostile = Histogram::from_sparse(&[(0, u64::MAX), (1, 1)]);
        assert_eq!(hostile.total(), u64::MAX);
        assert_eq!(hostile.quantile(1.0), Some(0));
        let mut merged = hostile.clone();
        merged.merge(&hostile);
        assert_eq!(merged.total(), u64::MAX);
        assert_eq!(merged.sparse(), vec![(0, u64::MAX), (1, 2)]);
        assert_eq!(merged.quantile(0.5), Some(0));
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
    fn utilization_fraction() {
        let mut m = Metrics::new(SimTime::from_ns(1000), 2);
        m.acc_busy_ns = vec![500, 1000];
        assert!((m.mean_utilization() - 0.75).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Small values, values spanning every octave 2^0..2^63, and
        /// `u64::MAX`.
        fn arb_sample() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..16,
                (0u32..64, any::<u64>()).prop_map(|(e, r)| (1u64 << e) | (r & ((1u64 << e) - 1))),
                Just(u64::MAX),
            ]
        }

        /// A sample set with some of its values repeated.
        fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
            (proptest::collection::vec(arb_sample(), 1..64), 0usize..16).prop_map(
                |(mut samples, dups)| {
                    let repeated: Vec<u64> = samples.iter().copied().take(dups).collect();
                    samples.extend(repeated);
                    samples
                },
            )
        }

        /// The exact nearest-rank `q`-quantile of ascending samples.
        fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every reported quantile is the exact nearest-rank sample
            /// or at most 12.5% above it, and exact below 8.
            #[test]
            fn quantiles_bound_the_exact_nearest_rank(samples in arb_samples()) {
                let mut h = Histogram::new();
                for &v in &samples {
                    h.record(v);
                }
                let mut sorted = samples;
                sorted.sort_unstable();
                for q in [0.5, 0.95, 0.99, 1.0] {
                    let exact = nearest_rank(&sorted, q);
                    let got = h.quantile(q).expect("non-empty");
                    prop_assert!(got >= exact, "q {q}: {got} < {exact}");
                    prop_assert!(
                        u128::from(got) * 8 <= u128::from(exact) * 9,
                        "q {q}: {got} more than 12.5% above {exact}"
                    );
                    if exact < 8 {
                        prop_assert_eq!(got, exact);
                    }
                }
                prop_assert_eq!(Histogram::from_sparse(&h.sparse()), h);
            }

            /// `bucket_of` is monotone and its bucket's upper bound covers
            /// the value.
            #[test]
            fn buckets_are_monotone_and_cover_their_values(a in arb_sample(), b in arb_sample()) {
                let (lo, hi) = (a.min(b), a.max(b));
                prop_assert!(Histogram::bucket_of(lo) <= Histogram::bucket_of(hi));
                for v in [a, b] {
                    prop_assert!(Histogram::bucket_upper_bound(Histogram::bucket_of(v)) >= v);
                }
            }
        }
    }
}
