//! The table-driven cost backend (MAESTRO-style import).
//!
//! The paper's deployment feeds DREAM per-(layer, accelerator) cost tables
//! produced offline by MAESTRO. [`TableBackend`] is that import path: a
//! [`CostBackend`] whose every answer is a lookup into a table loaded from
//! a text document — no arithmetic beyond the shared switch-cost formula.
//!
//! # Document format
//!
//! A table is stored as CSV and round-trips every `f64` **bit-exactly**
//! (floats are written with Rust's shortest-round-trip formatter and
//! re-read with `f64::from_str`). `#` starts a comment, and the header row
//! must come first:
//!
//! ```text
//! table,v1,<table name>
//! switch,<acc>,<bytes_per_ns>,<energy_pj_per_byte>
//! layer,<layer sig>,<acc>,<latency_ns>,<energy_pj>,<compute_ns>,<dram_ns>,<sram_bytes>,<dram_bytes>,<utilization>
//! gang,<layer sig>,<acc>+<acc>[+…],<same seven cost fields>
//! ```
//!
//! Layer rows are keyed by [`layer_signature`], a compact string encoding
//! the layer's full identity (name, shape, operand width) — the stand-in
//! for MAESTRO's per-layer naming. Gang rows are keyed by the **ordered**
//! member list, because gang costing folds resource sums in member order.
//!
//! The loader is strict: malformed rows, non-finite / negative costs,
//! duplicate keys, undeclared accelerators, and layers that do not cover
//! every declared accelerator each produce a typed [`CostError`] — never
//! a panic or a silent default.
//!
//! # Generating import fixtures
//!
//! [`TableBackend::derive`] exports a table from *any* backend over a
//! platform and a layer set, so the analytical model can bootstrap its own
//! import fixtures (and a future real MAESTRO run only has to produce the
//! same document shape). Gang rows are emitted for every multi-member
//! subset of the platform: in **all member orders** for platforms of up
//! to [`GANG_PERMUTATION_LIMIT`] accelerators, and in the canonical
//! largest-first order (descending PE count, ties by platform index —
//! the order Planaria-style fission assembles gangs in) for platforms up
//! to [`GANG_SUBSET_LIMIT`]; larger platforms are rejected explicitly
//! rather than silently truncated.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use dream_models::{Layer, LayerKind};

use crate::backend::{CostBackend, Fnv64, SwitchFactors};
use crate::{AcceleratorConfig, CostError, LayerCost, Platform};

/// Largest platform (accelerator count) for which [`TableBackend::derive`]
/// emits gang rows in every member order.
pub const GANG_PERMUTATION_LIMIT: usize = 4;

/// Largest platform for which [`TableBackend::derive`] emits gang rows at
/// all (canonical order only above [`GANG_PERMUTATION_LIMIT`]).
pub const GANG_SUBSET_LIMIT: usize = 8;

/// The compact, unambiguous identity string of a layer — the key layer
/// rows use. Encodes the name, shape, and operand width, so two layers
/// with equal signatures are equal layers (and therefore cost the same on
/// every backend).
pub fn layer_signature(layer: &Layer) -> String {
    let kind = match layer.kind() {
        LayerKind::Conv2d {
            in_h,
            in_w,
            in_c,
            out_c,
            kernel,
            stride,
            groups,
        } => format!("conv:{in_h}x{in_w}x{in_c}:{out_c}:k{kernel}:s{stride}:g{groups}"),
        LayerKind::Gemm { m, n, k } => format!("gemm:{m}x{n}x{k}"),
        LayerKind::Pool {
            in_h,
            in_w,
            c,
            kernel,
            stride,
        } => format!("pool:{in_h}x{in_w}x{c}:k{kernel}:s{stride}"),
        LayerKind::Elementwise { elems } => format!("elem:{elems}"),
    };
    format!("{}/{kind}/b{}", layer.name(), layer.bytes_per_elem())
}

/// Marker used in [`CostError::MissingEntry`] for switch-factor lookups.
const SWITCH_MARKER: &str = "<switch>";

const LAYER_COST_FIELDS: [&str; 7] = [
    "latency_ns",
    "energy_pj",
    "compute_ns",
    "dram_ns",
    "sram_bytes",
    "dram_bytes",
    "utilization",
];

fn layer_cost_fields(c: &LayerCost) -> [f64; 7] {
    [
        c.latency_ns,
        c.energy_pj,
        c.compute_ns,
        c.dram_ns,
        c.sram_bytes,
        c.dram_bytes,
        c.utilization,
    ]
}

fn layer_cost_from_fields(f: [f64; 7]) -> LayerCost {
    LayerCost {
        latency_ns: f[0],
        energy_pj: f[1],
        compute_ns: f[2],
        dram_ns: f[3],
        sram_bytes: f[4],
        dram_bytes: f[5],
        utilization: f[6],
    }
}

/// Shortest-round-trip float rendering: `v.to_string()`-style output that
/// `f64::from_str` parses back to the identical bits.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// A table-driven [`CostBackend`]: every query is a lookup into rows
/// loaded from a CSV document (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct TableBackend {
    name: String,
    /// Per-accelerator switch factors; also the declared accelerator
    /// universe the completeness check runs against.
    switch: BTreeMap<String, SwitchFactors>,
    /// (layer signature, accelerator name) → cost.
    layers: BTreeMap<(String, String), LayerCost>,
    /// (layer signature, ordered member names joined by `+`) → cost.
    gangs: BTreeMap<(String, String), LayerCost>,
    digest: u64,
}

/// One parsed row before domain validation (`line` is the CSV line number,
/// or 0 for exported rows).
struct Rows {
    name: String,
    switch: Vec<(usize, String, f64, f64)>,
    layers: Vec<(usize, String, String, [f64; 7])>,
    gangs: Vec<(usize, String, Vec<String>, [f64; 7])>,
}

impl TableBackend {
    /// The table's display name (carried through export/import).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared accelerator names, ascending.
    pub fn accelerator_names(&self) -> impl Iterator<Item = &str> {
        self.switch.keys().map(String::as_str)
    }

    /// Number of (layer, accelerator) rows.
    pub fn layer_entry_count(&self) -> usize {
        self.layers.len()
    }

    /// Number of gang rows.
    pub fn gang_entry_count(&self) -> usize {
        self.gangs.len()
    }

    // ---- construction ----

    /// Derives a table from `backend` over `platform` and `layers` — the
    /// exporter that lets any backend (the analytical model today, a real
    /// MAESTRO run tomorrow) produce import fixtures. Duplicate layers
    /// (equal signatures) are folded into one row.
    ///
    /// # Errors
    ///
    /// [`CostError::Export`] for names the format cannot encode,
    /// non-finite costs, or platforms larger than [`GANG_SUBSET_LIMIT`];
    /// any error of the source backend is propagated.
    pub fn derive<'a>(
        name: impl Into<String>,
        backend: &dyn CostBackend,
        platform: &Platform,
        layers: impl IntoIterator<Item = &'a Layer>,
    ) -> Result<Self, CostError> {
        let name = name.into();
        if let Err(reason) = table_name_problem(&name) {
            return Err(CostError::Export {
                reason: format!("table name `{name}` {reason}"),
            });
        }
        let accs = platform.accelerators();
        let mut acc_names = Vec::with_capacity(accs.len());
        for acc in accs {
            check_name(acc.name(), "accelerator", &['+'])?;
            if acc_names.contains(&acc.name().to_string()) {
                return Err(CostError::Export {
                    reason: format!("platform declares accelerator `{}` twice", acc.name()),
                });
            }
            acc_names.push(acc.name().to_string());
        }

        let mut rows = Rows {
            name: name.clone(),
            switch: Vec::new(),
            layers: Vec::new(),
            gangs: Vec::new(),
        };
        for acc in accs {
            let f = backend.switch_factors(acc)?;
            check_finite(f.bytes_per_ns, "bytes_per_ns", acc.name())?;
            check_finite(f.energy_pj_per_byte, "energy_pj_per_byte", acc.name())?;
            rows.switch.push((
                0,
                acc.name().to_string(),
                f.bytes_per_ns,
                f.energy_pj_per_byte,
            ));
        }

        let mut seen = std::collections::BTreeSet::new();
        let mut distinct: Vec<&Layer> = Vec::new();
        for layer in layers {
            check_name(layer.name(), "layer", &[])?;
            if seen.insert(layer_signature(layer)) {
                distinct.push(layer);
            }
        }
        for layer in &distinct {
            let sig = layer_signature(layer);
            for acc in accs {
                let c = backend.layer_cost(layer, acc)?;
                check_cost_finite(&c, &sig, acc.name())?;
                rows.layers.push((
                    0,
                    sig.clone(),
                    acc.name().to_string(),
                    layer_cost_fields(&c),
                ));
            }
        }

        // Gang rows: every multi-member subset, ordered per the module
        // docs. Presets have ≤ 3 sub-accelerators, so this stays small.
        let gang_orders = gang_orders(platform)?;
        for order in &gang_orders {
            let members: Vec<&AcceleratorConfig> = order.iter().map(|&i| &accs[i]).collect();
            let names: Vec<String> = order.iter().map(|&i| acc_names[i].clone()).collect();
            for layer in &distinct {
                let sig = layer_signature(layer);
                let c = backend.gang_cost(layer, &members)?;
                check_cost_finite(&c, &sig, &names.join("+"))?;
                rows.gangs
                    .push((0, sig, names.clone(), layer_cost_fields(&c)));
            }
        }

        Self::build(rows)
    }

    /// Assembles and validates a table from parsed rows (shared by the
    /// CSV loader and the exporter, so every path enforces the same
    /// domain rules).
    fn build(rows: Rows) -> Result<Self, CostError> {
        // The name must survive a CSV round trip: no field separator, no
        // control characters, stable under the loader's line trimming.
        if let Err(reason) = table_name_problem(&rows.name) {
            return Err(CostError::TableParse {
                line: 0,
                reason: format!("table name `{}` {reason}", rows.name),
            });
        }
        let mut switch = BTreeMap::new();
        for (line, acc, bytes_per_ns, energy) in rows.switch {
            validate_value(line, "bytes_per_ns", bytes_per_ns, ValueDomain::Positive)?;
            validate_value(line, "energy_pj_per_byte", energy, ValueDomain::NonNegative)?;
            if switch
                .insert(
                    acc.clone(),
                    SwitchFactors {
                        bytes_per_ns,
                        energy_pj_per_byte: energy,
                    },
                )
                .is_some()
            {
                return Err(CostError::DuplicateEntry {
                    line,
                    key: format!("{SWITCH_MARKER} @ {acc}"),
                });
            }
        }

        let mut layers = BTreeMap::new();
        for (line, sig, acc, fields) in rows.layers {
            validate_cost_fields(line, &fields)?;
            if !switch.contains_key(&acc) {
                return Err(CostError::MissingEntry {
                    layer: SWITCH_MARKER.into(),
                    acc,
                });
            }
            if layers
                .insert((sig.clone(), acc.clone()), layer_cost_from_fields(fields))
                .is_some()
            {
                return Err(CostError::DuplicateEntry {
                    line,
                    key: format!("{sig} @ {acc}"),
                });
            }
        }

        let mut gangs = BTreeMap::new();
        for (line, sig, members, fields) in rows.gangs {
            validate_cost_fields(line, &fields)?;
            if members.len() < 2 {
                return Err(CostError::TableParse {
                    line,
                    reason: "gang rows need at least two members".into(),
                });
            }
            for (i, m) in members.iter().enumerate() {
                if !switch.contains_key(m) {
                    return Err(CostError::MissingEntry {
                        layer: SWITCH_MARKER.into(),
                        acc: m.clone(),
                    });
                }
                if members[..i].contains(m) {
                    return Err(CostError::TableParse {
                        line,
                        reason: format!("gang repeats member `{m}`"),
                    });
                }
            }
            let key = members.join("+");
            if gangs
                .insert((sig.clone(), key.clone()), layer_cost_from_fields(fields))
                .is_some()
            {
                return Err(CostError::DuplicateEntry {
                    line,
                    key: format!("{sig} @ {key}"),
                });
            }
        }

        // Completeness: every layer that appears must cover every declared
        // accelerator — a partial row set would otherwise only surface at
        // query time, deep inside a workload build.
        let layer_sigs: std::collections::BTreeSet<&String> =
            layers.keys().map(|(sig, _)| sig).collect();
        for sig in layer_sigs {
            for acc in switch.keys() {
                if !layers.contains_key(&(sig.clone(), acc.clone())) {
                    return Err(CostError::MissingEntry {
                        layer: sig.clone(),
                        acc: acc.clone(),
                    });
                }
            }
        }

        let mut h = Fnv64::new();
        h.mix_bytes(b"table");
        for (acc, f) in &switch {
            h.mix_bytes(acc.as_bytes());
            h.mix(f.bytes_per_ns.to_bits());
            h.mix(f.energy_pj_per_byte.to_bits());
        }
        for ((sig, acc), c) in &layers {
            h.mix_bytes(sig.as_bytes());
            h.mix_bytes(acc.as_bytes());
            for v in layer_cost_fields(c) {
                h.mix(v.to_bits());
            }
        }
        for ((sig, key), c) in &gangs {
            h.mix_bytes(sig.as_bytes());
            h.mix_bytes(key.as_bytes());
            for v in layer_cost_fields(c) {
                h.mix(v.to_bits());
            }
        }

        Ok(TableBackend {
            name: rows.name,
            switch,
            layers,
            gangs,
            digest: h.finish(),
        })
    }

    // ---- CSV ----

    /// Serialises the table to the CSV document format.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# dream-cost table (see crates/cost docs)");
        let _ = writeln!(out, "table,v1,{}", self.name);
        for (acc, f) in &self.switch {
            let _ = writeln!(
                out,
                "switch,{acc},{},{}",
                fmt_f64(f.bytes_per_ns),
                fmt_f64(f.energy_pj_per_byte)
            );
        }
        for ((sig, acc), c) in &self.layers {
            let _ = write!(out, "layer,{sig},{acc}");
            for v in layer_cost_fields(c) {
                let _ = write!(out, ",{}", fmt_f64(v));
            }
            let _ = writeln!(out);
        }
        for ((sig, key), c) in &self.gangs {
            let _ = write!(out, "gang,{sig},{key}");
            for v in layer_cost_fields(c) {
                let _ = write!(out, ",{}", fmt_f64(v));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Loads a table from the CSV document format.
    ///
    /// # Errors
    ///
    /// Typed [`CostError`]s for every malformation — see the
    /// [module docs](self) for the rules.
    pub fn from_csv_str(src: &str) -> Result<Self, CostError> {
        let mut rows = Rows {
            name: String::new(),
            switch: Vec::new(),
            layers: Vec::new(),
            gangs: Vec::new(),
        };
        let mut saw_header = false;
        for (idx, raw) in src.lines().enumerate() {
            let line = idx + 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = text.split(',').collect();
            if !saw_header {
                if fields.len() != 3 || fields[0] != "table" || fields[1] != "v1" {
                    return Err(CostError::TableParse {
                        line,
                        reason: "expected header `table,v1,<name>`".into(),
                    });
                }
                rows.name = fields[2].to_string();
                saw_header = true;
                continue;
            }
            match fields[0] {
                "switch" => {
                    if fields.len() != 4 {
                        return Err(CostError::TableParse {
                            line,
                            reason: format!("switch rows have 4 fields, got {}", fields.len()),
                        });
                    }
                    rows.switch.push((
                        line,
                        fields[1].to_string(),
                        parse_f64(line, "bytes_per_ns", fields[2])?,
                        parse_f64(line, "energy_pj_per_byte", fields[3])?,
                    ));
                }
                "layer" => {
                    let fv = parse_cost_fields(line, &fields)?;
                    rows.layers
                        .push((line, fields[1].to_string(), fields[2].to_string(), fv));
                }
                "gang" => {
                    let fv = parse_cost_fields(line, &fields)?;
                    let members: Vec<String> = fields[2].split('+').map(str::to_string).collect();
                    rows.gangs.push((line, fields[1].to_string(), members, fv));
                }
                other => {
                    return Err(CostError::TableParse {
                        line,
                        reason: format!("unknown row kind `{other}`"),
                    });
                }
            }
        }
        if !saw_header {
            return Err(CostError::TableParse {
                line: 0,
                reason: "document has no `table,v1,<name>` header".into(),
            });
        }
        Self::build(rows)
    }

    // ---- file IO ----

    /// Loads a table from a CSV file, whatever its extension.
    ///
    /// # Errors
    ///
    /// IO failures surface as [`CostError::TableParse`] (line 0); format
    /// errors as from [`from_csv_str`](Self::from_csv_str).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CostError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| CostError::TableParse {
            line: 0,
            reason: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::from_csv_str(&src)
    }

    /// Writes the table to a file as CSV, whatever its extension.
    ///
    /// # Errors
    ///
    /// IO failures surface as [`CostError::Export`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CostError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_csv_string()).map_err(|e| CostError::Export {
            reason: format!("cannot write {}: {e}", path.display()),
        })
    }
}

impl CostBackend for TableBackend {
    fn kind(&self) -> &'static str {
        "table"
    }

    fn layer_cost(&self, layer: &Layer, acc: &AcceleratorConfig) -> Result<LayerCost, CostError> {
        let sig = layer_signature(layer);
        self.layers
            .get(&(sig.clone(), acc.name().to_string()))
            .copied()
            .ok_or_else(|| CostError::MissingEntry {
                layer: sig,
                acc: acc.name().to_string(),
            })
    }

    fn gang_cost(
        &self,
        layer: &Layer,
        members: &[&AcceleratorConfig],
    ) -> Result<LayerCost, CostError> {
        match members {
            [] => Err(CostError::InvalidParams {
                reason: "cannot cost a gang of zero accelerators".into(),
            }),
            // A single-member "gang" is the layer itself: the analytical
            // model's fission penalty is exactly 1.0 there, so the layer
            // row is the bit-identical answer.
            [only] => self.layer_cost(layer, only),
            _ => {
                let sig = layer_signature(layer);
                let key = members
                    .iter()
                    .map(|m| m.name())
                    .collect::<Vec<_>>()
                    .join("+");
                self.gangs.get(&(sig.clone(), key.clone())).copied().ok_or(
                    CostError::MissingEntry {
                        layer: sig,
                        acc: key,
                    },
                )
            }
        }
    }

    fn switch_factors(&self, acc: &AcceleratorConfig) -> Result<SwitchFactors, CostError> {
        self.switch
            .get(acc.name())
            .copied()
            .ok_or_else(|| CostError::MissingEntry {
                layer: SWITCH_MARKER.into(),
                acc: acc.name().to_string(),
            })
    }

    fn calibration_digest(&self) -> u64 {
        self.digest
    }
}

/// The member orders gang rows are exported for — see the module docs.
fn gang_orders(platform: &Platform) -> Result<Vec<Vec<usize>>, CostError> {
    let n = platform.len();
    if n < 2 {
        return Ok(Vec::new());
    }
    if n > GANG_SUBSET_LIMIT {
        return Err(CostError::Export {
            reason: format!(
                "cannot enumerate gang rows for {n} accelerators (limit {GANG_SUBSET_LIMIT})"
            ),
        });
    }
    let mut orders = Vec::new();
    for mask in 1u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        if members.len() < 2 {
            continue;
        }
        if n <= GANG_PERMUTATION_LIMIT {
            permutations(&members, &mut Vec::new(), &mut orders);
        } else {
            // Canonical largest-first order: descending PE count, ties by
            // ascending platform index — how Planaria assembles gangs.
            let mut canon = members;
            canon.sort_by_key(|&i| (std::cmp::Reverse(platform.accelerators()[i].pe_count()), i));
            orders.push(canon);
        }
    }
    Ok(orders)
}

fn permutations(rest: &[usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if rest.is_empty() {
        out.push(prefix.clone());
        return;
    }
    for (i, &x) in rest.iter().enumerate() {
        let mut remaining = rest.to_vec();
        remaining.remove(i);
        prefix.push(x);
        permutations(&remaining, prefix, out);
        prefix.pop();
    }
}

/// Why `name` cannot serve as a table name in the text formats, if it
/// cannot: it must contain no CSV field separator or control characters,
/// and must be stable under the CSV loader's per-line trimming.
fn table_name_problem(name: &str) -> Result<(), &'static str> {
    if name.contains(',') {
        return Err("contains the CSV field separator");
    }
    if name.chars().any(char::is_control) {
        return Err("contains control characters");
    }
    if name.trim() != name {
        return Err("has leading/trailing whitespace the loader would trim away");
    }
    Ok(())
}

fn check_name(name: &str, what: &str, extra_forbidden: &[char]) -> Result<(), CostError> {
    let bad = name.is_empty()
        || name
            .chars()
            .any(|c| c == ',' || c == '/' || c.is_whitespace() || c.is_control())
        || name.chars().any(|c| extra_forbidden.contains(&c));
    if bad {
        return Err(CostError::Export {
            reason: format!("{what} name `{name}` cannot be encoded in the table format"),
        });
    }
    Ok(())
}

fn check_finite(v: f64, field: &str, acc: &str) -> Result<(), CostError> {
    if !v.is_finite() {
        return Err(CostError::Export {
            reason: format!("{field} for `{acc}` is not finite ({v})"),
        });
    }
    Ok(())
}

fn check_cost_finite(c: &LayerCost, sig: &str, acc: &str) -> Result<(), CostError> {
    for (field, v) in LAYER_COST_FIELDS.iter().zip(layer_cost_fields(c)) {
        if !v.is_finite() {
            return Err(CostError::Export {
                reason: format!("{field} for `{sig}` on `{acc}` is not finite ({v})"),
            });
        }
    }
    Ok(())
}

enum ValueDomain {
    /// Finite and `> 0` (divisors).
    Positive,
    /// Finite and `>= 0`.
    NonNegative,
    /// Finite, `>= 0`, and `<= 1`.
    UnitInterval,
}

fn validate_value(line: usize, field: &str, v: f64, domain: ValueDomain) -> Result<(), CostError> {
    let ok = match domain {
        ValueDomain::Positive => v.is_finite() && v > 0.0,
        ValueDomain::NonNegative => v.is_finite() && v >= 0.0,
        ValueDomain::UnitInterval => v.is_finite() && (0.0..=1.0).contains(&v),
    };
    if !ok {
        return Err(CostError::InvalidCostValue {
            line,
            reason: format!("{field} = {v} is outside its domain"),
        });
    }
    Ok(())
}

fn validate_cost_fields(line: usize, fields: &[f64; 7]) -> Result<(), CostError> {
    for (name, &v) in LAYER_COST_FIELDS.iter().zip(fields) {
        let domain = if *name == "utilization" {
            ValueDomain::UnitInterval
        } else {
            ValueDomain::NonNegative
        };
        validate_value(line, name, v, domain)?;
    }
    Ok(())
}

fn parse_f64(line: usize, field: &str, raw: &str) -> Result<f64, CostError> {
    // `from_str` accepts `NaN`/`inf` spellings; those parse fine here and
    // are rejected later by the domain validation, keeping "malformed"
    // and "out of domain" errors distinct.
    raw.parse::<f64>().map_err(|_| CostError::TableParse {
        line,
        reason: format!("{field}: `{raw}` is not a number"),
    })
}

fn parse_cost_fields(line: usize, fields: &[&str]) -> Result<[f64; 7], CostError> {
    if fields.len() != 10 {
        return Err(CostError::TableParse {
            line,
            reason: format!("cost rows have 10 fields, got {}", fields.len()),
        });
    }
    let mut out = [0.0; 7];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = parse_f64(line, LAYER_COST_FIELDS[i], fields[3 + i])?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, PlatformPreset};
    use dream_models::LayerKind;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::new(
                "conv1",
                LayerKind::Conv2d {
                    in_h: 56,
                    in_w: 56,
                    in_c: 64,
                    out_c: 128,
                    kernel: 3,
                    stride: 1,
                    groups: 1,
                },
            )
            .unwrap(),
            Layer::with_bytes(
                "fc",
                LayerKind::Gemm {
                    m: 1,
                    n: 1000,
                    k: 512,
                },
                2,
            )
            .unwrap(),
        ]
    }

    fn derived() -> TableBackend {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let model = CostModel::paper_default();
        TableBackend::derive("t", &model, &platform, &layers()).unwrap()
    }

    #[test]
    fn signatures_distinguish_shape_and_width() {
        let ls = layers();
        assert_eq!(
            layer_signature(&ls[0]),
            "conv1/conv:56x56x64:128:k3:s1:g1/b1"
        );
        assert_eq!(layer_signature(&ls[1]), "fc/gemm:1x1000x512/b2");
        let narrow = Layer::new(
            "fc",
            LayerKind::Gemm {
                m: 1,
                n: 1000,
                k: 512,
            },
        )
        .unwrap();
        assert_ne!(layer_signature(&ls[1]), layer_signature(&narrow));
    }

    #[test]
    fn derive_covers_every_pair_and_gang_order() {
        let t = derived();
        // 2 layers × 3 accelerators.
        assert_eq!(t.layer_entry_count(), 6);
        // Ordered multi-member subsets of 3 accelerators: P(3,2)+P(3,3)
        // = 6 + 6 = 12 per layer.
        assert_eq!(t.gang_entry_count(), 24);
        assert_eq!(t.accelerator_names().count(), 3);
    }

    #[test]
    fn duplicate_layers_fold_into_one_row() {
        let platform = Platform::preset(PlatformPreset::Homo4kWs2);
        let model = CostModel::paper_default();
        let mut ls = layers();
        ls.extend(layers());
        let t = TableBackend::derive("t", &model, &platform, &ls).unwrap();
        assert_eq!(t.layer_entry_count(), 4);
    }

    #[test]
    fn unknown_layer_and_acc_queries_are_typed_errors() {
        let t = derived();
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let acc0 = &platform.accelerators()[0];
        let stranger = Layer::new("x", LayerKind::Elementwise { elems: 9 }).unwrap();
        assert!(matches!(
            t.layer_cost(&stranger, acc0),
            Err(CostError::MissingEntry { .. })
        ));
        let foreign =
            AcceleratorConfig::new("nope", 8, crate::Dataflow::WeightStationary, 0.7, 1.0, 1)
                .unwrap();
        assert!(matches!(
            t.layer_cost(&layers()[0], &foreign),
            Err(CostError::MissingEntry { .. })
        ));
        assert!(matches!(
            t.switch_factors(&foreign),
            Err(CostError::MissingEntry { .. })
        ));
        assert!(matches!(
            t.gang_cost(&layers()[0], &[]),
            Err(CostError::InvalidParams { .. })
        ));
    }

    #[test]
    fn csv_round_trip_is_bit_exact() {
        let t = derived();
        let re = TableBackend::from_csv_str(&t.to_csv_string()).unwrap();
        assert_eq!(re.name(), t.name());
        assert_eq!(re.calibration_digest(), t.calibration_digest());
        assert_eq!(re.layers, t.layers);
        assert_eq!(re.gangs, t.gangs);
        assert_eq!(re.switch, t.switch);
    }

    #[test]
    fn gang_orders_cover_permutations_on_small_platforms() {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let orders = gang_orders(&platform).unwrap();
        assert_eq!(orders.len(), 12);
        assert!(orders.contains(&vec![0, 1]));
        assert!(orders.contains(&vec![1, 0]));
        assert!(orders.contains(&vec![2, 1, 0]));
    }
}
