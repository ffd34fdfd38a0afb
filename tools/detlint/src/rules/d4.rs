//! D4 — fingerprint purity.
//!
//! `Metrics::fingerprint` is the replay oracle: two runs agree iff their
//! fingerprints agree. Any observable that is *excluded* from the
//! fingerprint (today: the sojourn histograms and their accessor, and
//! the fault counters) must therefore never feed a scheduling decision — a
//! decision keyed on an unfingerprinted value could diverge between runs
//! the oracle calls identical.
//!
//! The banned set is *derived*, not hard-coded: we parse the metrics
//! module, take every pub field of `ModelStats`/`Metrics` that the
//! `fingerprint` body never mentions, drop the scenario-pinned config
//! fields (`model_name`, `fps` — fixed per scenario before the run, so
//! they cannot diverge), and ban those fields plus any pub accessor
//! sharing their name stem. Decision crates are then scanned for member
//! accesses of banned names.

use crate::lexer::TokKind;
use crate::rules::{Finding, RuleId};
use crate::scan::FileAnalysis;

/// Fields excluded from the fingerprint that are still legal inputs to
/// decisions: pinned per scenario before the run, so they cannot diverge
/// between runs the fingerprint calls identical.
const SCENARIO_PINNED: &[&str] = &["model_name", "fps"];

const METRICS_STRUCTS: &[&str] = &["ModelStats", "Metrics"];

/// The banned-name set derived from the metrics module.
#[derive(Debug, Default)]
pub struct MetricsPolicy {
    /// Field and accessor names that may not appear as member accesses in
    /// decision code.
    pub banned: Vec<String>,
}

/// Derives the policy from the metrics module. `required` marks the
/// designated metrics file: structural drift (structs or `fingerprint`
/// missing) then produces a finding instead of silently disarming D4.
pub fn derive_policy(a: &FileAnalysis, required: bool, out: &mut Vec<Finding>) -> MetricsPolicy {
    let toks = a.toks();
    let mut fields: Vec<String> = Vec::new();
    let mut found_struct = false;
    for s in METRICS_STRUCTS {
        if let Some(fs) = struct_pub_fields(a, s) {
            found_struct = true;
            fields.extend(fs);
        }
    }
    let fingerprint = a.fns.iter().find(|f| f.name == "fingerprint");
    if required && (!found_struct || fingerprint.is_none()) {
        let what = if !found_struct {
            "struct ModelStats/Metrics"
        } else {
            "fn fingerprint"
        };
        out.push(Finding::new(
            RuleId::FingerprintPurity,
            &a.name,
            1,
            0,
            format!(
                "metrics module no longer declares `{what}`; update detlint's D4 anchor so fingerprint purity stays checked"
            ),
            what.to_string(),
        ));
        return MetricsPolicy::default();
    }
    let Some(f) = fingerprint else {
        return MetricsPolicy::default();
    };
    let (lo, hi) = f.body;
    let mentioned = |name: &str| (lo..=hi).any(|k| toks[k].text == name);
    let mut banned: Vec<String> = fields
        .into_iter()
        .filter(|f| !mentioned(f) && !SCENARIO_PINNED.contains(&f.as_str()))
        .collect();
    // Ban pub accessors sharing a banned field's name stem (the word
    // before the first `_`): `sojourn_hist` bans `sojourn_histogram`.
    let stems: Vec<String> = banned
        .iter()
        .map(|f| f.split('_').next().unwrap_or(f).to_string())
        .collect();
    for f in &a.fns {
        if f.is_pub
            && stems
                .iter()
                .any(|s| f.name.starts_with(s.as_str()) && !banned.contains(&f.name))
        {
            banned.push(f.name.clone());
        }
    }
    banned.sort();
    banned.dedup();
    MetricsPolicy { banned }
}

/// Flags member accesses of banned names (`x.sojourn_ns`,
/// `m.sojourn_percentile_ms(...)`) in a decision-path file.
pub fn scan_decisions(a: &FileAnalysis, policy: &MetricsPolicy, out: &mut Vec<Finding>) {
    if policy.banned.is_empty() {
        return;
    }
    let toks = a.toks();
    for i in 1..toks.len() {
        if a.in_test(i) || toks[i].kind != TokKind::Ident || toks[i - 1].text != "." {
            continue;
        }
        let t = toks[i].text.as_str();
        if policy.banned.iter().any(|b| b == t) {
            out.push(Finding::new(
                RuleId::FingerprintPurity,
                &a.name,
                toks[i].line,
                toks[i].col,
                format!(
                    "`{t}` is excluded from Metrics::fingerprint and must not feed scheduling decisions"
                ),
                format!(".{t}"),
            ));
        }
    }
}

/// Pub field names of `struct <name> {{ ... }}`.
fn struct_pub_fields(a: &FileAnalysis, name: &str) -> Option<Vec<String>> {
    let toks = a.toks();
    let mut at = None;
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].text == "struct" && toks[i + 1].text == name && toks[i + 2].text == "{" {
            at = Some(i + 2);
            break;
        }
    }
    let open = at?;
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "{" | "(" | "[" | "<" => depth += 1,
            "}" | ")" | "]" | ">" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "pub" if depth == 1 => {
                let mut j = k + 1;
                // Skip a `pub(crate)`-style visibility group.
                if toks.get(j).is_some_and(|t| t.text == "(") {
                    let mut d = 0i32;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "(" => d += 1,
                            ")" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(j + 1).is_some_and(|t| t.text == ":")
                {
                    fields.push(toks[j].text.clone());
                }
            }
            _ => {}
        }
        k += 1;
    }
    Some(fields)
}
