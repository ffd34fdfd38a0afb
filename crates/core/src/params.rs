use std::error::Error;
use std::fmt;

/// Errors from parameter construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// α or β fell outside the paper's constrained search range `[0, 2]`.
    OutOfRange {
        /// Which parameter ("alpha" / "beta").
        which: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::OutOfRange { which, value } => {
                write!(f, "{which} = {value} is outside the search range [0, 2]")
            }
        }
    }
}

impl Error for ParamError {}

/// MapScore's tunable weights: α (starvation) and β (energy).
///
/// The paper constrains both to `[0, 2]` (§5.2, Figure 10) — a
/// "well-conditioned, limited optimization space" that the radius-shrinking
/// search exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreParams {
    alpha: f64,
    beta: f64,
}

impl ScoreParams {
    /// Lower bound of the search range.
    pub const MIN: f64 = 0.0;
    /// Upper bound of the search range.
    pub const MAX: f64 = 2.0;

    /// Creates a parameter pair.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::OutOfRange`] when a value is outside `[0, 2]`
    /// or not finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, ParamError> {
        for (which, v) in [("alpha", alpha), ("beta", beta)] {
            if !v.is_finite() || !(Self::MIN..=Self::MAX).contains(&v) {
                return Err(ParamError::OutOfRange { which, value: v });
            }
        }
        Ok(ScoreParams { alpha, beta })
    }

    /// Creates a pair, clamping each value into `[0, 2]` (NaN becomes the
    /// neutral 1.0). Used by the optimiser when a move lands outside the
    /// box.
    pub fn clamped(alpha: f64, beta: f64) -> Self {
        let fix = |v: f64| {
            if v.is_nan() {
                1.0
            } else {
                v.clamp(Self::MIN, Self::MAX)
            }
        };
        ScoreParams {
            alpha: fix(alpha),
            beta: fix(beta),
        }
    }

    /// The neutral pair α = β = 1 (Figure 9's fixed baseline).
    pub fn neutral() -> Self {
        ScoreParams {
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// Starvation weight α.
    pub fn alpha(self) -> f64 {
        self.alpha
    }

    /// Energy weight β.
    pub fn beta(self) -> f64 {
        self.beta
    }

    /// Euclidean distance to another pair (optimiser convergence metric).
    pub fn distance(self, other: ScoreParams) -> f64 {
        ((self.alpha - other.alpha).powi(2) + (self.beta - other.beta).powi(2)).sqrt()
    }
}

impl Default for ScoreParams {
    fn default() -> Self {
        Self::neutral()
    }
}

impl fmt::Display for ScoreParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(α={:.3}, β={:.3})", self.alpha, self.beta)
    }
}

/// Configuration of a [`crate::DreamScheduler`], mirroring the paper's
/// Table 4 ablation levels.
#[derive(Debug, Clone, PartialEq)]
pub struct DreamConfig {
    /// Initial (or fixed) MapScore parameters.
    pub params: ScoreParams,
    /// Enable online (α, β) adaptation on workload changes (§4.4). The
    /// offline variant — tuning before a measured run — is driven by
    /// [`crate::ParamOptimizer`] and does not need this flag.
    pub online_adaptation: bool,
    /// Enable the smart frame drop engine (§4.2.1).
    pub smart_drop: bool,
    /// Enable supernet switching (§4.5.1).
    pub supernet_switching: bool,
    /// Frame-drop rate cap: at most `max_drops_per_window` drops over the
    /// last `drop_window` released frames of a model (default 2-in-10, the
    /// paper's 20% cap).
    pub drop_window: usize,
    /// See [`DreamConfig::drop_window`].
    pub max_drops_per_window: usize,
    /// Floor applied to `Slack` so urgency stays finite for overdue tasks
    /// (ns).
    pub slack_floor_ns: f64,
    /// Safety factor on the supernet fit test: a variant "fits" when
    /// `now + safety · ToGo ≤ deadline`.
    pub supernet_safety: f64,
    /// Online adaptation settings.
    pub adaptivity: crate::AdaptivityConfig,
}

impl DreamConfig {
    /// `DREAM-MapScore` (Table 4): score-driven dispatch with parameter
    /// optimisation, no frame drop, no supernet switching.
    pub fn mapscore() -> Self {
        DreamConfig {
            params: ScoreParams::neutral(),
            online_adaptation: false,
            smart_drop: false,
            supernet_switching: false,
            drop_window: 10,
            max_drops_per_window: 2,
            slack_floor_ns: 1_000.0,
            supernet_safety: 1.0,
            adaptivity: crate::AdaptivityConfig::default(),
        }
    }

    /// `DREAM-SmartDrop` (Table 4): MapScore + smart frame drop.
    pub fn smart_drop() -> Self {
        DreamConfig {
            smart_drop: true,
            ..Self::mapscore()
        }
    }

    /// `DREAM-Full` (Table 4): MapScore + smart frame drop + supernet
    /// switching.
    pub fn full() -> Self {
        DreamConfig {
            smart_drop: true,
            supernet_switching: true,
            ..Self::mapscore()
        }
    }

    /// Sets the initial/fixed parameters.
    pub fn with_params(mut self, params: ScoreParams) -> Self {
        self.params = params;
        self
    }

    /// Enables online adaptation (used by the Figure 10/11 experiments).
    pub fn with_online_adaptation(mut self) -> Self {
        self.online_adaptation = true;
        self
    }

    /// The Table 4 configuration name.
    pub fn variant_name(&self) -> &'static str {
        match (self.smart_drop, self.supernet_switching) {
            (false, false) => "DREAM-MapScore",
            (true, false) => "DREAM-SmartDrop",
            (true, true) => "DREAM-Full",
            (false, true) => "DREAM-MapScore+Supernet",
        }
    }
}

impl Default for DreamConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validate_range() {
        assert!(ScoreParams::new(0.0, 2.0).is_ok());
        assert!(ScoreParams::new(-0.1, 1.0).is_err());
        assert!(ScoreParams::new(1.0, 2.1).is_err());
        assert!(ScoreParams::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn clamping() {
        let p = ScoreParams::clamped(-1.0, 5.0);
        assert_eq!(p.alpha(), 0.0);
        assert_eq!(p.beta(), 2.0);
        let q = ScoreParams::clamped(f64::NAN, 0.5);
        assert_eq!(q.alpha(), 1.0);
    }

    #[test]
    fn neutral_is_one_one() {
        let p = ScoreParams::neutral();
        assert_eq!((p.alpha(), p.beta()), (1.0, 1.0));
        assert_eq!(ScoreParams::default(), p);
    }

    #[test]
    fn distance_metric() {
        let a = ScoreParams::new(0.0, 0.0).unwrap();
        let b = ScoreParams::new(0.3, 0.4).unwrap();
        assert!((a.distance(b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table4_variant_names() {
        assert_eq!(DreamConfig::mapscore().variant_name(), "DREAM-MapScore");
        assert_eq!(DreamConfig::smart_drop().variant_name(), "DREAM-SmartDrop");
        assert_eq!(DreamConfig::full().variant_name(), "DREAM-Full");
    }

    #[test]
    fn table4_feature_ladder() {
        let ms = DreamConfig::mapscore();
        assert!(!ms.smart_drop && !ms.supernet_switching);
        let sd = DreamConfig::smart_drop();
        assert!(sd.smart_drop && !sd.supernet_switching);
        let full = DreamConfig::full();
        assert!(full.smart_drop && full.supernet_switching);
    }

    #[test]
    fn display_formats() {
        let p = ScoreParams::new(0.5, 1.25).unwrap();
        let s = p.to_string();
        assert!(s.contains("0.500") && s.contains("1.250"));
        assert!(ParamError::OutOfRange {
            which: "alpha",
            value: 3.0
        }
        .to_string()
        .contains("alpha"));
    }
}
