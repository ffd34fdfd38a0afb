//! Workspace-level checks: the real tree lints clean, every suppression
//! carries a reason, and the D3 anchor actually has teeth — deleting any
//! variant's arm from the real `rank` function must produce a finding.

use std::path::PathBuf;

use detlint::rules::{d4, RuleId};
use detlint::scan::FileAnalysis;
use detlint::{lint_source, lint_workspace, EVENT_FILE, METRICS_FILE};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_tree_is_clean_and_every_allow_has_a_reason() {
    let report = lint_workspace(&workspace_root()).expect("scan");
    let bad: Vec<_> = report.unsuppressed().collect();
    assert!(
        bad.is_empty(),
        "unsuppressed findings in the workspace:\n{bad:#?}"
    );
    for f in &report.findings {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.trim().is_empty()),
            "suppressed finding without a reason: {f:?}"
        );
    }
    // The lint is not vacuously clean: the blessed reference folds are
    // suppressed findings, so the scan demonstrably ran.
    assert!(
        report.findings.iter().any(|f| f.suppressed),
        "expected at least one suppressed finding as proof of scan"
    );
}

#[test]
fn deleting_any_rank_arm_from_real_event_module_trips_d3() {
    let src = std::fs::read_to_string(workspace_root().join(EVENT_FILE)).expect("event.rs");
    // Baseline: the real module passes D3.
    let clean: Vec<_> = lint_source(EVENT_FILE, &src)
        .into_iter()
        .filter(|f| f.rule == RuleId::EventRank && !f.suppressed)
        .collect();
    assert!(clean.is_empty(), "real event.rs should pass D3: {clean:?}");

    for variant in ["FrameArrival", "LayerDone", "PhaseStart", "End"] {
        // Drop the variant's arm from `rank` (the line mentioning both the
        // variant and `=>` inside the fn), keeping the enum intact.
        let mut in_rank = false;
        let mutated: String = src
            .lines()
            .filter(|l| {
                if l.contains("fn rank") {
                    in_rank = true;
                }
                let is_arm = in_rank && l.contains(variant) && l.contains("=>");
                if is_arm {
                    in_rank = false; // one arm per variant; stop after the hit
                }
                !is_arm
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(mutated, src, "no arm removed for {variant}");
        let hits: Vec<_> = lint_source(EVENT_FILE, &mutated)
            .into_iter()
            .filter(|f| f.rule == RuleId::EventRank && !f.suppressed)
            .collect();
        assert!(
            hits.iter().any(|f| f.message.contains(variant)),
            "deleting {variant}'s arm should trip D3, got {hits:?}"
        );
    }
}

#[test]
fn real_metrics_module_keeps_d4_armed() {
    // The D4 docs and fixtures name `sojourn_ns`, a field the metrics
    // module no longer has; the sojourn histogram must still be banned
    // from decisions, field and accessor both.
    let src = std::fs::read_to_string(workspace_root().join(METRICS_FILE)).expect("metrics.rs");
    let mut drift = Vec::new();
    let policy = d4::derive_policy(&FileAnalysis::new(METRICS_FILE, &src), true, &mut drift);
    assert!(drift.is_empty(), "D4 anchor drifted: {drift:?}");
    for name in ["sojourn_hist", "sojourn_histogram"] {
        assert!(
            policy.banned.iter().any(|b| b == name),
            "`{name}` must stay banned from decisions: {:?}",
            policy.banned
        );
    }
}

#[test]
fn json_report_is_well_formed_enough_to_grep() {
    let report = lint_workspace(&workspace_root()).expect("scan");
    let json = detlint::report::to_json(&report);
    assert!(json.contains("\"detlint_version\": 1"));
    assert!(json.contains("\"summary\""));
    assert!(json.contains("\"unsuppressed\": 0"));
    // Every rule appears in the catalog.
    for r in RuleId::ALL {
        assert!(
            json.contains(&format!("\"rule\": \"{}\"", r.name())),
            "{r:?}"
        );
    }
}
