//! The benchmark's own statistics: percentiles by the sample-count rule,
//! geomean UXCost, the serve SLO and its step selection, and the failure
//! ratio from funnel counters.

/// The percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted` samples (`0 < q <= 1`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile together with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile, e.g. `0.999`.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// `p99.9`-style label.
    pub fn label(&self) -> String {
        let pct = format!("{:.2}", self.q * 100.0);
        format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
    }
}

fn percentile(sorted: &[f64], q: f64) -> Percentile {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        q,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// The median of ascending `sorted` samples, with its count.
pub fn median(sorted: &[f64]) -> Percentile {
    percentile(sorted, 0.5)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even p90 has fewer.
/// A fixed ladder keeps the reported percentile the same from run to run
/// when the sample count drifts a little.
pub fn tail(sorted: &[f64]) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&q| percentile(sorted, q))
        .find(|p| p.beyond >= MIN_BEYOND)
}

/// Sorts samples ascending (all finite).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted values; `None` when empty.
pub fn median_of(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(median(&sorted(values.to_vec())).value)
}

/// Geometric mean of UXCost values; `None` when empty or when any value is
/// not a positive finite number (UXCost has a violation-rate floor, so a
/// zero means a broken run, not a perfect one).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let log_mean = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(log_mean.exp())
}

/// The paper's headline: the percent UXCost reduction of `dream` against
/// `baseline` (both geomeans). Positive means DREAM is better.
pub fn uxcost_gain_pct(dream: f64, baseline: f64) -> f64 {
    (1.0 - dream / baseline) * 100.0
}

/// Ack p99 limit: one 60 fps frame period, in microseconds.
pub const SLO_ACK_P99_US: f64 = 1.0e6 / 60.0;

/// Whether a backlog series grows: after dropping the first tenth as
/// warm-up, the mean of the second half exceeds 1.5 × the first half's
/// mean plus `slack`. The absolute slack keeps a queue that wobbles
/// around a handful of entries from reading as growth.
pub fn grows(series: &[f64], slack: f64) -> bool {
    let skip = series.len() / 10;
    let rest = &series[skip..];
    if rest.len() < 4 {
        return false;
    }
    let (a, b) = rest.split_at(rest.len() / 2);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(b) > 1.5 * mean(a) + slack
}

/// What one ladder step of the serve workload measured against the SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSlo {
    /// Offered Submit rate, requests per wall second.
    pub rate: f64,
    /// Submit ack p99 from the due time, microseconds.
    pub ack_p99_us: f64,
    /// Admitted stamps the session had to clamp.
    pub clamped: u64,
    /// Whether the ingress backlog grew over the step.
    pub ingress_grows: bool,
    /// Whether the engine's event backlog grew over the step.
    pub events_grow: bool,
}

impl StepSlo {
    /// The three-part SLO: ack p99 within one 60 fps frame, no clamped
    /// stamp, and no growing backlog.
    pub fn passes(&self) -> bool {
        self.ack_p99_us <= SLO_ACK_P99_US
            && self.clamped == 0
            && !self.ingress_grows
            && !self.events_grow
    }
}

/// The highest offered rate among the steps that pass the SLO; 0 when
/// none passes.
pub fn max_rate_passing(steps: &[StepSlo]) -> f64 {
    steps
        .iter()
        .filter(|s| s.passes())
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

/// Frames a serve run sent and how they ended. A Submit succeeds only
/// when the session admitted it; every other frame succeeds when its
/// reply is the expected kind. Error replies, shed, rejected and unacked
/// frames all land in the difference, each counted once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Submit frames written.
    pub submits_sent: u64,
    /// Submits the session admitted (the source's `admitted` counter).
    pub submits_admitted: u64,
    /// Snapshot, Fault and Drain frames written.
    pub other_sent: u64,
    /// Of those, how many got the expected reply.
    pub other_ok: u64,
}

impl Funnel {
    /// Frames sent.
    pub fn attempted(&self) -> u64 {
        self.submits_sent + self.other_sent
    }

    /// Frames that failed.
    pub fn failed(&self) -> u64 {
        self.submits_sent.saturating_sub(self.submits_admitted)
            + self.other_sent.saturating_sub(self.other_ok)
    }
}

/// `failed / attempted`, 0 for an empty run.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        let p = tail(&ramp(100)).unwrap();
        assert_eq!((p.q, p.value, p.n, p.beyond), (0.90, 90.0, 100, 10));
        // 10_000 samples: p99.9 leaves exactly 10 beyond.
        let p = tail(&ramp(10_000)).unwrap();
        assert_eq!((p.q, p.value, p.beyond), (0.999, 9_990.0, 10));
        // One fewer sample and p99.9 no longer qualifies.
        let p = tail(&ramp(9_999)).unwrap();
        assert_eq!(p.q, 0.99);
        assert!(p.beyond >= MIN_BEYOND);
        // 200k samples reach p99.99.
        assert_eq!(tail(&ramp(200_000)).unwrap().q, 0.9999);
        // Too few samples for any tail.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(10_000)).unwrap().label(), "p99.9");
    }

    #[test]
    fn quantile_and_median_are_nearest_rank() {
        let s = ramp(10);
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.51), 6.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&s).n, 10);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[]), None);
    }

    #[test]
    fn geomean_uxcost() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[0.02, 0.02, 0.02]).unwrap() - 0.02).abs() < 1e-15);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        // Halving every scenario's UXCost is a 50% gain.
        let d = geomean(&[0.1, 0.2]).unwrap();
        let b = geomean(&[0.2, 0.4]).unwrap();
        assert!((uxcost_gain_pct(d, b) - 50.0).abs() < 1e-9);
        assert!(uxcost_gain_pct(b, d) < 0.0);
    }

    fn step(rate: f64, ack_p99_us: f64) -> StepSlo {
        StepSlo {
            rate,
            ack_p99_us,
            clamped: 0,
            ingress_grows: false,
            events_grow: false,
        }
    }

    #[test]
    fn slo_step_selection() {
        let ok = step(6_750.0, 900.0);
        let nominal = step(13_500.0, 2_000.0);
        let slow = step(27_000.0, 20_000.0);
        assert!(ok.passes() && nominal.passes() && !slow.passes());
        assert_eq!(max_rate_passing(&[ok, nominal, slow]), 13_500.0);
        // Each SLO part fails a step on its own.
        let clamped = StepSlo {
            clamped: 1,
            ..nominal
        };
        let ingress = StepSlo {
            ingress_grows: true,
            ..nominal
        };
        let events = StepSlo {
            events_grow: true,
            ..nominal
        };
        for bad in [clamped, ingress, events] {
            assert!(!bad.passes());
            assert_eq!(max_rate_passing(&[ok, bad]), 6_750.0);
        }
        // The limit itself passes; nothing passing reads 0.
        assert!(step(1.0, SLO_ACK_P99_US).passes());
        assert_eq!(max_rate_passing(&[slow]), 0.0);
        assert_eq!(max_rate_passing(&[]), 0.0);
    }

    #[test]
    fn backlog_growth() {
        let flat: Vec<f64> = (0..100).map(|i| 1_000.0 + (i % 7) as f64).collect();
        assert!(!grows(&flat, 32.0));
        let ramp: Vec<f64> = (0..100).map(|i| 10.0 * i as f64).collect();
        assert!(grows(&ramp, 32.0));
        // A queue wobbling between 0 and 5 is not growth.
        let wobble: Vec<f64> = (0..100).map(|i| if i > 50 { 5.0 } else { 0.0 }).collect();
        assert!(!grows(&wobble, 32.0));
        assert!(!grows(&[0.0, 1_000.0], 32.0), "too short to judge");
    }

    #[test]
    fn fail_ratio_from_funnel_counters() {
        let clean = Funnel {
            submits_sent: 1_000,
            submits_admitted: 1_000,
            other_sent: 21,
            other_ok: 21,
        };
        assert_eq!(clean.attempted(), 1_021);
        assert_eq!(clean.failed(), 0);
        assert_eq!(fail_ratio(clean.failed(), clean.attempted()), 0.0);
        // 3 shed/rejected/unacked submits and one error reply to a snapshot.
        let lossy = Funnel {
            submits_admitted: 997,
            other_ok: 20,
            ..clean
        };
        assert_eq!(lossy.failed(), 4);
        assert!((fail_ratio(lossy.failed(), lossy.attempted()) - 4.0 / 1_021.0).abs() < 1e-15);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }
}
