use std::sync::Arc;

use crate::zoo;
use crate::{CascadeProbability, ModelError, ModelNode, NodeId, PipelineSpec, Rate};

/// The five RTMM workload scenarios of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioKind {
    /// VR gaming: eye + hand + context + audio pipelines (XRBench-derived).
    VrGaming,
    /// AR call: audio pipeline plus SkipNet visual context (XRBench-derived).
    ArCall,
    /// Outdoor drone flight (TrailMAV-derived).
    DroneOutdoor,
    /// Indoor drone flight with parking enforcement (TrailMAV-derived).
    DroneIndoor,
    /// AR social interaction: depth, action, face, and context pipelines.
    ArSocial,
}

impl ScenarioKind {
    /// All five scenarios, in the paper's presentation order.
    pub fn all() -> [ScenarioKind; 5] {
        [
            ScenarioKind::VrGaming,
            ScenarioKind::ArCall,
            ScenarioKind::DroneOutdoor,
            ScenarioKind::DroneIndoor,
            ScenarioKind::ArSocial,
        ]
    }

    /// The scenario's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::VrGaming => "VR_Gaming",
            ScenarioKind::ArCall => "AR_Call",
            ScenarioKind::DroneOutdoor => "Drone_Outdoor",
            ScenarioKind::DroneIndoor => "Drone_Indoor",
            ScenarioKind::ArSocial => "AR_Social",
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete RTMM workload: a named set of concurrent ML pipelines.
///
/// Immutable once built, and cheap to clone: clones share one copy of
/// the pipelines and their model graphs.
#[derive(Debug, Clone)]
pub struct Scenario {
    kind: ScenarioKind,
    pipelines: Arc<[PipelineSpec]>,
}

impl Scenario {
    /// Builds the scenario for `kind` with the given cascade probability on
    /// every control-dependent edge (the paper's default is 0.5; Figure 12
    /// sweeps it to 0.99).
    pub fn new(kind: ScenarioKind, cascade: CascadeProbability) -> Self {
        match kind {
            ScenarioKind::VrGaming => Self::vr_gaming(cascade),
            ScenarioKind::ArCall => Self::ar_call(cascade),
            ScenarioKind::DroneOutdoor => Self::drone_outdoor(),
            ScenarioKind::DroneIndoor => Self::drone_indoor(),
            ScenarioKind::ArSocial => Self::ar_social(cascade),
        }
    }

    /// VR_Gaming: gaze (60), hand detection (30) → pose (30), OFA context
    /// (30), keyword spotting (15) → GNMT (15).
    pub fn vr_gaming(cascade: CascadeProbability) -> Self {
        let pipelines = vec![
            pipeline1("eye", zoo::fbnet_c(), 60.0),
            pipeline_chain(
                "hand",
                zoo::ssd_mobilenet_v2("HandDetection"),
                30.0,
                zoo::hand_pose_net(),
                30.0,
                cascade,
            ),
            pipeline1("context", zoo::ofa_context(), 30.0),
            pipeline_chain("audio", zoo::kws_res8(), 15.0, zoo::gnmt(), 15.0, cascade),
        ];
        Scenario {
            kind: ScenarioKind::VrGaming,
            pipelines: pipelines.into(),
        }
    }

    /// AR_Call: keyword spotting (15) → GNMT (15), SkipNet context (30).
    pub fn ar_call(cascade: CascadeProbability) -> Self {
        let pipelines = vec![
            pipeline_chain("audio", zoo::kws_res8(), 15.0, zoo::gnmt(), 15.0, cascade),
            pipeline1("context", zoo::skipnet(), 30.0),
        ];
        Scenario {
            kind: ScenarioKind::ArCall,
            pipelines: pipelines.into(),
        }
    }

    /// Drone_Outdoor: object detection (30), TrailNet navigation (60),
    /// SOSNet visual odometry (60). No control-dependent cascades.
    pub fn drone_outdoor() -> Self {
        let pipelines = vec![
            pipeline1("detect", zoo::ssd_mobilenet_v2("ObjectDetection"), 30.0),
            pipeline1("navigate", zoo::trailnet(), 60.0),
            pipeline1("odometry", zoo::sosnet(), 60.0),
        ];
        Scenario {
            kind: ScenarioKind::DroneOutdoor,
            pipelines: pipelines.into(),
        }
    }

    /// Drone_Indoor: object detection (30), RAPID-RL navigation (60),
    /// SOSNet obstacle detection (60), GoogLeNet-car classification (60).
    pub fn drone_indoor() -> Self {
        let pipelines = vec![
            pipeline1("detect", zoo::ssd_mobilenet_v2("ObjectDetection"), 30.0),
            pipeline1("navigate", zoo::rapid_rl(), 60.0),
            pipeline1("obstacle", zoo::sosnet(), 60.0),
            pipeline1("parking", zoo::googlenet_car(), 60.0),
        ];
        Scenario {
            kind: ScenarioKind::DroneIndoor,
            pipelines: pipelines.into(),
        }
    }

    /// AR_Social: depth (30), action segmentation (30), face detection (30)
    /// → face verification (30), OFA context (30).
    pub fn ar_social(cascade: CascadeProbability) -> Self {
        let pipelines = vec![
            pipeline1("depth", zoo::focal_length_depth(), 30.0),
            pipeline1("action", zoo::ed_tcn(), 30.0),
            pipeline_chain(
                "face",
                zoo::ssd_mobilenet_v2("FaceDetection"),
                30.0,
                zoo::vgg_voxceleb(),
                30.0,
                cascade,
            ),
            pipeline1("context", zoo::ofa_context(), 30.0),
        ];
        Scenario {
            kind: ScenarioKind::ArSocial,
            pipelines: pipelines.into(),
        }
    }

    /// Which scenario this is.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// The scenario's name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The concurrent pipelines.
    pub fn pipelines(&self) -> &[PipelineSpec] {
        &self.pipelines
    }

    /// Total number of model nodes across all pipelines.
    pub fn node_count(&self) -> usize {
        self.pipelines.iter().map(|p| p.nodes().len()).sum()
    }

    /// Expected steady-state arithmetic demand in ops/second: each node's
    /// expected per-inference work × its rate × the probability its cascade
    /// chain fires. A coarse load proxy used for calibration and tests.
    // detlint: canonical-fold -- build-time load proxy folding in fixed pipeline/node order; dream-models sits below dream-sim, so canonical_sum is unavailable
    pub fn expected_ops_per_second(&self) -> f64 {
        let mut total = 0.0;
        for p in self.pipelines.iter() {
            for (id, node) in p.nodes().iter().enumerate() {
                let mut launch_p = 1.0;
                let mut cur = node;
                loop {
                    if let Some(c) = cur.cascade {
                        launch_p *= c.value();
                    }
                    match cur.parent {
                        Some(pid) => cur = &p.nodes()[pid.0],
                        None => break,
                    }
                }
                let _ = id;
                total +=
                    node.model.default_variant().expected_ops() * node.rate.as_fps() * launch_p;
            }
        }
        total
    }

    /// The names of every distinct model in the scenario (deduplicated, in
    /// pipeline order) — the "inference model list" DREAM's adaptivity
    /// engine tracks to detect workload changes.
    pub fn model_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for p in self.pipelines.iter() {
            for n in p.nodes() {
                if !names.contains(&n.model.name()) {
                    names.push(n.model.name());
                }
            }
        }
        names
    }
}

fn pipeline1(name: &'static str, model: crate::Model, fps: f64) -> PipelineSpec {
    PipelineSpec::new(
        name,
        vec![ModelNode {
            model,
            rate: rate(fps),
            parent: None,
            cascade: None,
        }],
    )
    .expect("single-node pipeline is valid")
}

fn pipeline_chain(
    name: &'static str,
    parent: crate::Model,
    parent_fps: f64,
    child: crate::Model,
    child_fps: f64,
    cascade: CascadeProbability,
) -> PipelineSpec {
    PipelineSpec::new(
        name,
        vec![
            ModelNode {
                model: parent,
                rate: rate(parent_fps),
                parent: None,
                cascade: None,
            },
            ModelNode {
                model: child,
                rate: rate(child_fps),
                parent: Some(NodeId(0)),
                cascade: Some(cascade),
            },
        ],
    )
    .expect("two-node cascade pipeline is valid")
}

fn rate(fps: f64) -> Rate {
    Rate::fps(fps).expect("scenario frame rates are valid")
}

/// Convenience: all five scenarios at the paper's default 50% cascade
/// probability.
///
/// # Errors
///
/// Propagates [`ModelError`] from probability construction (infallible for
/// the constant used here, but kept for API uniformity).
pub fn all_default_scenarios() -> Result<Vec<Scenario>, ModelError> {
    let p = CascadeProbability::new(0.5)?;
    Ok(ScenarioKind::all()
        .into_iter()
        .map(|k| Scenario::new(k, p))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p50() -> CascadeProbability {
        CascadeProbability::new(0.5).unwrap()
    }

    #[test]
    fn table3_scenario_inventory() {
        let s = Scenario::vr_gaming(p50());
        assert_eq!(s.node_count(), 6);
        assert_eq!(s.pipelines().len(), 4);

        let s = Scenario::ar_call(p50());
        assert_eq!(s.node_count(), 3);

        let s = Scenario::drone_outdoor();
        assert_eq!(s.node_count(), 3);

        let s = Scenario::drone_indoor();
        assert_eq!(s.node_count(), 4);

        let s = Scenario::ar_social(p50());
        assert_eq!(s.node_count(), 5);
    }

    #[test]
    fn cascade_edges_fire_where_table3_says() {
        let s = Scenario::vr_gaming(p50());
        // hand pipeline: detection → pose.
        let hand = &s.pipelines()[1];
        assert!(hand.nodes()[1].parent.is_some());
        assert_eq!(hand.nodes()[1].cascade.unwrap().value(), 0.5);
        // audio pipeline: KWS → GNMT.
        let audio = &s.pipelines()[3];
        assert_eq!(audio.nodes()[0].model.name(), "KWS_res8");
        assert_eq!(audio.nodes()[1].model.name(), "GNMT");
    }

    #[test]
    fn fps_targets_match_table3() {
        let s = Scenario::vr_gaming(p50());
        let eye = &s.pipelines()[0].nodes()[0];
        assert_eq!(eye.rate.as_fps(), 60.0);
        let audio = &s.pipelines()[3];
        assert_eq!(audio.nodes()[0].rate.as_fps(), 15.0);
        assert_eq!(audio.nodes()[1].rate.as_fps(), 15.0);
    }

    #[test]
    fn cascade_probability_scales_expected_load() {
        let lo = Scenario::vr_gaming(CascadeProbability::new(0.1).unwrap());
        let hi = Scenario::vr_gaming(CascadeProbability::new(0.9).unwrap());
        assert!(hi.expected_ops_per_second() > lo.expected_ops_per_second());
    }

    #[test]
    fn drone_indoor_is_heavier_than_ar_call() {
        let indoor = Scenario::drone_indoor();
        let call = Scenario::ar_call(p50());
        assert!(indoor.expected_ops_per_second() > call.expected_ops_per_second());
    }

    #[test]
    fn model_names_are_deduplicated() {
        let s = Scenario::ar_social(p50());
        let names = s.model_names();
        assert!(names.contains(&"FocalLengthDepth"));
        assert!(names.contains(&"Once-for-All"));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn all_default_scenarios_builds_five() {
        assert_eq!(all_default_scenarios().unwrap().len(), 5);
    }

    #[test]
    fn scenario_kind_round_trip_names() {
        for k in ScenarioKind::all() {
            assert!(!k.name().is_empty());
            assert_eq!(k.to_string(), k.name());
        }
    }
}
