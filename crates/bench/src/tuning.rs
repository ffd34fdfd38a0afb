use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dream_core::{DreamScheduler, ObjectiveKind, OptimizationTrace, ParamOptimizer, ScoreParams};
use dream_cost::{CostBackend, Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{Millis, SimulationBuilder, WorkloadSet};

use crate::{CostConfig, DreamVariant};

/// Offline (α, β) tuning: runs the §3.6 radius-shrinking search where each
/// candidate is evaluated by a full (shorter-horizon) simulation of the
/// same scenario/platform under the *target* DREAM configuration,
/// minimising `objective`. Tuning against the deployed configuration
/// matters: the frame-drop and supernet engines change the dynamics the
/// parameters must match — and the tuning simulations price with the
/// *deployment's* cost backend (`cost`), so parameters fitted for a
/// table-imported calibration track that table, not the analytical model
/// it may have diverged from.
///
/// The tuning simulations use a different seed than the measurement runs so
/// parameters are not fitted to the evaluated realization.
///
/// # Evaluation memo
///
/// A simulation is a pure function of `(α bits, β bits, seed)` within one
/// call, and the search revisits points: each distant probe recurs in two
/// consecutive steps, and ring points clamped onto the box edge can
/// coincide. So every call keeps a memo of the costs it has simulated and
/// runs each distinct `(α, β, seed)` once (960 instead of 1080 simulations
/// for the fifteen `paper_grid` tunes); the search itself sees the same
/// costs, bit for bit, and walks the same path. The memo is local to the
/// call on purpose: it holds at most one entry per evaluation of one tune,
/// and a process-wide result cache is what [`tuned_params_cached`] is for —
/// callers that time `tune_params` (the benchmark's set-up) rely on every
/// call doing the whole search.
pub fn tune_params(
    scenario: ScenarioKind,
    preset: PlatformPreset,
    cascade: f64,
    variant: DreamVariant,
    objective: ObjectiveKind,
    cost: &CostConfig,
) -> ScoreParams {
    let fixture = TuningFixture::new(scenario, preset, cascade, variant, objective, cost);
    memoized_search(|params, seed| fixture.evaluate(params, seed)).final_params
}

/// Simulated horizon of one tuning evaluation.
const TUNING_HORIZON_MS: u64 = 800;

/// Everything one tune's evaluations share, resolved once per call: the
/// platform, the scenario, the cost backend and the prebuilt tables.
struct TuningFixture {
    platform: Platform,
    workload: Scenario,
    backend: Arc<dyn CostBackend>,
    tables: Arc<WorkloadSet>,
    variant: DreamVariant,
    objective: ObjectiveKind,
}

impl TuningFixture {
    fn new(
        scenario: ScenarioKind,
        preset: PlatformPreset,
        cascade: f64,
        variant: DreamVariant,
        objective: ObjectiveKind,
        cost: &CostConfig,
    ) -> Self {
        let backend = cost.backend();
        let tables = crate::shared_workload(
            scenario,
            preset,
            cascade,
            TUNING_HORIZON_MS,
            Arc::clone(&backend),
        );
        TuningFixture {
            platform: Platform::preset(preset),
            workload: Scenario::new(
                scenario,
                CascadeProbability::new(cascade).expect("tuning cascade is valid"),
            ),
            backend,
            tables,
            variant,
            objective,
        }
    }

    /// The objective of one simulation of `params` on workload seed `seed`.
    fn evaluate(&self, params: ScoreParams, seed: u64) -> f64 {
        let mut sched = DreamScheduler::new(self.variant.config().with_params(params));
        let metrics = SimulationBuilder::new(self.platform.clone(), self.workload.clone())
            .duration(Millis::new(TUNING_HORIZON_MS))
            .seed(seed)
            .cost_backend(Arc::clone(&self.backend))
            .prebuilt_workload(Arc::clone(&self.tables))
            .run(&mut sched)
            .expect("tuning simulations are valid")
            .into_metrics();
        self.objective.evaluate(&metrics)
    }
}

/// Two workload realizations per candidate halve the variance the sharp
/// UXCost landscape induces; tuning seeds are disjoint from measurement
/// seeds.
const TUNING_SEEDS: [u64; 2] = [crate::DEFAULT_SEED ^ 0xA5A5, crate::DEFAULT_SEED ^ 0x5A5A];

/// The memo key of one evaluation: the parameters by bit pattern, and
/// the seed.
type EvalKey = (u64, u64, u64);

fn eval_key(params: ScoreParams, seed: u64) -> EvalKey {
    (params.alpha().to_bits(), params.beta().to_bits(), seed)
}

/// The radius search over `evaluate(params, seed)`, averaging each
/// candidate over [`TUNING_SEEDS`] and running each distinct
/// `(α, β, seed)` once (see [`tune_params`]). Each step's new
/// evaluations are independent simulations, so they fan out across the
/// thread pool together.
fn memoized_search(evaluate: impl Fn(ScoreParams, u64) -> f64 + Sync) -> OptimizationTrace {
    let mut memo: BTreeMap<EvalKey, f64> = BTreeMap::new();
    ParamOptimizer::new(ScoreParams::neutral()).run_batched(|candidates| {
        let mut jobs: Vec<(ScoreParams, u64)> = Vec::new();
        for &p in candidates {
            for &s in &TUNING_SEEDS {
                let key = eval_key(p, s);
                if !memo.contains_key(&key) && !jobs.iter().any(|&(q, t)| eval_key(q, t) == key) {
                    jobs.push((p, s));
                }
            }
        }
        let costs = crate::parallel_map(jobs.clone(), |&(p, seed)| evaluate(p, seed));
        memo.extend(jobs.iter().map(|&(p, s)| eval_key(p, s)).zip(costs));
        candidates
            .iter()
            .map(|&p| {
                TUNING_SEEDS
                    .iter()
                    .map(|&s| memo[&eval_key(p, s)])
                    .sum::<f64>()
                    / TUNING_SEEDS.len() as f64
            })
            .collect()
    })
}

/// The cache key: everything the tuned parameters depend on, including
/// the backend's calibration digest — an analytical deployment and a
/// table import never share a tuning entry, even when the table is a
/// bit-exact export (the digest mixes the backend kind).
type TuneKey = (ScenarioKind, PlatformPreset, u64, DreamVariant, u64);

/// Canonical integer key for a cascade probability, shared by the tuning
/// cache and the grid's tune-dedup/cell grouping so the two can never
/// disagree about which cells are "the same".
pub(crate) fn cascade_key(cascade: f64) -> u64 {
    (cascade * 1.0e6).round() as u64
}

static CACHE: Mutex<BTreeMap<TuneKey, ScoreParams>> = Mutex::new(BTreeMap::new());

/// [`tune_params`] with a process-wide cache (UXCost objective), so sweeps
/// that revisit the same (scenario, platform, cascade, variant, backend)
/// key tune only once.
pub fn tuned_params_cached(
    scenario: ScenarioKind,
    preset: PlatformPreset,
    cascade: f64,
    variant: DreamVariant,
    cost: &CostConfig,
) -> ScoreParams {
    let key = (
        scenario,
        preset,
        cascade_key(cascade),
        variant,
        cost.digest(),
    );
    if let Some(p) = CACHE.lock().expect("tuning cache poisoned").get(&key) {
        return *p;
    }
    let params = tune_params(
        scenario,
        preset,
        cascade,
        variant,
        ObjectiveKind::UxCost,
        cost,
    );
    CACHE
        .lock()
        .expect("tuning cache poisoned")
        .insert(key, params);
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_identical_params() {
        let a = tuned_params_cached(
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
            0.5,
            DreamVariant::MapScore,
            &CostConfig::Analytical,
        );
        let b = tuned_params_cached(
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
            0.5,
            DreamVariant::MapScore,
            &CostConfig::Analytical,
        );
        assert_eq!(a, b);
        assert!((0.0..=2.0).contains(&a.alpha()));
        assert!((0.0..=2.0).contains(&a.beta()));
    }

    /// The memo is a pure refactor: the memoized search walks the same
    /// path as a plain search that simulates every (candidate, seed) —
    /// every step's candidates and cost bits and the final parameters are
    /// identical — while simulating each distinct `(α, β, seed)` exactly
    /// once. Every tune revisits a distant probe in consecutive steps, so
    /// the memo must skip some simulations here.
    #[test]
    fn memoized_search_matches_the_plain_search() {
        let fixture = TuningFixture::new(
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
            0.5,
            DreamVariant::MapScore,
            ObjectiveKind::UxCost,
            &CostConfig::Analytical,
        );
        let runs: Mutex<BTreeMap<EvalKey, usize>> = Mutex::new(BTreeMap::new());
        let memoized = memoized_search(|p, s| {
            *runs.lock().unwrap().entry(eval_key(p, s)).or_default() += 1;
            fixture.evaluate(p, s)
        });
        let plain = ParamOptimizer::new(ScoreParams::neutral()).run_batched(|candidates| {
            candidates
                .iter()
                .map(|&p| {
                    TUNING_SEEDS
                        .iter()
                        .map(|&s| fixture.evaluate(p, s))
                        .sum::<f64>()
                        / TUNING_SEEDS.len() as f64
                })
                .collect()
        });

        let bits = |p: ScoreParams| (p.alpha().to_bits(), p.beta().to_bits());
        assert_eq!(memoized.steps.len(), plain.steps.len());
        for (m, r) in memoized.steps.iter().zip(&plain.steps) {
            assert_eq!(bits(m.center), bits(r.center), "step {}", r.index);
            assert_eq!(m.radius.to_bits(), r.radius.to_bits());
            let evals = |s: &dream_core::OptimizerStep| -> Vec<((u64, u64), u64)> {
                s.evaluations
                    .iter()
                    .map(|&(p, c)| (bits(p), c.to_bits()))
                    .collect()
            };
            assert_eq!(evals(m), evals(r), "step {} evaluations", r.index);
            assert_eq!(bits(m.best.0), bits(r.best.0));
            assert_eq!(m.best.1.to_bits(), r.best.1.to_bits());
        }
        assert_eq!(bits(memoized.final_params), bits(plain.final_params));
        assert_eq!(memoized.final_cost.to_bits(), plain.final_cost.to_bits());

        let runs = runs.into_inner().unwrap();
        assert!(
            runs.values().all(|&n| n == 1),
            "each (α, β, seed) is simulated once"
        );
        let distinct: std::collections::BTreeSet<EvalKey> = plain
            .steps
            .iter()
            .flat_map(|s| s.evaluations.iter())
            .flat_map(|&(p, _)| TUNING_SEEDS.iter().map(move |&s| eval_key(p, s)))
            .collect();
        assert_eq!(
            runs.keys()
                .copied()
                .collect::<std::collections::BTreeSet<_>>(),
            distinct,
            "the memoized search simulates exactly the distinct evaluations"
        );
        assert!(
            runs.len() < plain.evaluations() * TUNING_SEEDS.len(),
            "a recurring probe must be served from the memo"
        );
    }

    /// Backends occupy distinct tuning-cache entries (keyed by
    /// calibration digest), and a bit-exact table export tunes to the
    /// *identical* parameters — the tuning simulations under the imported
    /// table are bit-identical to the analytical ones, so the radius
    /// search walks the same path.
    #[test]
    fn table_backend_tunes_separately_but_bit_identically() {
        use dream_cost::{CostModel, TableBackend};
        use dream_sim::Millis;

        let scenario = ScenarioKind::ArCall;
        let preset = PlatformPreset::Homo4kWs2;
        let analytical = CostModel::paper_default();
        let platform = Platform::preset(preset);
        let ws = SimulationBuilder::new(
            platform.clone(),
            Scenario::new(scenario, CascadeProbability::new(0.5).unwrap()),
        )
        .duration(Millis::new(100))
        .build_workload()
        .unwrap();
        let table =
            TableBackend::derive("tuning-test", &analytical, &platform, ws.layers()).unwrap();
        let table_cfg = CostConfig::Backend(std::sync::Arc::new(table));
        assert_ne!(
            table_cfg.digest(),
            CostConfig::Analytical.digest(),
            "export must not impersonate its source backend"
        );
        let tuned_analytical = tuned_params_cached(
            scenario,
            preset,
            0.5,
            DreamVariant::MapScore,
            &CostConfig::Analytical,
        );
        let tuned_table =
            tuned_params_cached(scenario, preset, 0.5, DreamVariant::MapScore, &table_cfg);
        assert_eq!(
            tuned_analytical, tuned_table,
            "a bit-exact table import must tune to the identical (α, β)"
        );
    }
}
