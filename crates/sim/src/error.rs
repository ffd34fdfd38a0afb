use std::error::Error;
use std::fmt;

/// Errors produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The simulation was configured with a zero duration.
    ZeroDuration,
    /// A workload phase starts at or after the end of the simulation, or
    /// phases are not strictly ordered in time.
    InvalidPhase {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An arrival trace is inconsistent with the workload (unknown key,
    /// non-root target, entry outside its phase window) or malformed, or
    /// an arrival source was installed on a live session.
    InvalidTrace {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// Stochastic arrival parameters out of range: a non-positive or
    /// non-finite intensity, or a switch probability outside `[0, 1]`.
    InvalidArrivals {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A fault plan is inconsistent with the platform (accelerator index
    /// out of range, slowdown factor below 1) or malformed.
    InvalidFault {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A prebuilt [`WorkloadSet`](crate::WorkloadSet) handed to
    /// [`SimulationBuilder::prebuilt_workload`](crate::SimulationBuilder::prebuilt_workload)
    /// does not match the builder's configuration (different platform
    /// width or phase schedule).
    WorkloadMismatch {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// Propagated model-construction error.
    Model(dream_models::ModelError),
    /// Propagated cost-model error.
    Cost(dream_cost::CostError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ZeroDuration => write!(f, "simulation duration must be positive"),
            SimError::InvalidPhase { reason } => write!(f, "invalid workload phase: {reason}"),
            SimError::InvalidTrace { reason } => write!(f, "invalid arrival trace: {reason}"),
            SimError::InvalidArrivals { reason } => write!(f, "invalid arrivals: {reason}"),
            SimError::InvalidFault { reason } => write!(f, "invalid fault plan: {reason}"),
            SimError::WorkloadMismatch { reason } => {
                write!(f, "prebuilt workload mismatch: {reason}")
            }
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Cost(e) => write!(f, "cost model error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            SimError::Cost(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dream_models::ModelError> for SimError {
    fn from(e: dream_models::ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<dream_cost::CostError> for SimError {
    fn from(e: dream_cost::CostError) -> Self {
        SimError::Cost(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::Model(dream_models::ModelError::EmptyModel { name: "m".into() });
        assert!(e.to_string().contains("model error"));
        assert!(e.source().is_some());
        assert!(SimError::ZeroDuration.source().is_none());
    }
}
