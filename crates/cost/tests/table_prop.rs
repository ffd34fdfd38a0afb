//! Property tests for the cost-table loader: hostile documents always
//! fail with a *typed* [`CostError`] (never a panic, never a silently
//! defaulted value), and well-formed documents round-trip every `f64`
//! bit exactly through both text formats.

use dream_cost::{CostBackend, CostError, Dataflow, TableBackend};
use dream_models::{Layer, LayerKind};
use proptest::prelude::*;

/// Positive finite f64 with wild bit patterns: reinterpret random bits,
/// fall back deterministically when the draw is not usable as a cost.
fn cost_from_bits(bits: u64) -> f64 {
    let v = f64::from_bits(bits & !(1u64 << 63));
    if v.is_finite() {
        v
    } else {
        // Salvage the mantissa into a normal value instead of discarding
        // the case.
        f64::from_bits((bits & ((1 << 52) - 1)) | (1023u64 << 52))
    }
}

/// A fraction in [0, 1] with full mantissa diversity.
fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn fmt(v: f64) -> String {
    format!("{v:?}")
}

/// A document with one accelerator (`A`) and one element-wise layer
/// (`l/elem:1/b1`) carrying the given values.
fn one_cell_csv(switch: [f64; 2], cost: [f64; 7]) -> String {
    format!(
        "table,v1,prop\nswitch,A,{},{}\nlayer,l/elem:1/b1,A,{}\n",
        fmt(switch[0]),
        fmt(switch[1]),
        cost.map(fmt).join(","),
    )
}

fn probe_layer() -> Layer {
    Layer::new("l", LayerKind::Elementwise { elems: 1 }).unwrap()
}

fn probe_acc() -> dream_cost::AcceleratorConfig {
    dream_cost::AcceleratorConfig::new("A", 8, Dataflow::WeightStationary, 0.7, 1.0, 1).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: arbitrary in-domain f64 bit patterns survive
    /// CSV → table → CSV → table unchanged, bit for bit.
    #[test]
    fn f64_bits_survive_text_round_trips(
        raw in proptest::collection::vec(any::<u64>(), 9..10),
    ) {
        let switch = [
            // bytes_per_ns must be > 0: nudge zero to the smallest normal.
            cost_from_bits(raw[0]).max(f64::MIN_POSITIVE),
            cost_from_bits(raw[1]),
        ];
        let mut cost = [0.0; 7];
        for i in 0..6 {
            cost[i] = cost_from_bits(raw[2 + i]);
        }
        cost[6] = unit_from_bits(raw[8]); // utilization ∈ [0, 1]
        let doc = one_cell_csv(switch, cost);
        let t1 = TableBackend::from_csv_str(&doc).expect("in-domain doc loads");
        let t2 = TableBackend::from_csv_str(&t1.to_csv_string()).expect("re-serialized doc loads");
        for t in [&t1, &t2] {
            let f = t.switch_factors(&probe_acc()).unwrap();
            prop_assert_eq!(f.bytes_per_ns.to_bits(), switch[0].to_bits());
            prop_assert_eq!(f.energy_pj_per_byte.to_bits(), switch[1].to_bits());
            let c = t.layer_cost(&probe_layer(), &probe_acc()).unwrap();
            prop_assert_eq!(c.latency_ns.to_bits(), cost[0].to_bits());
            prop_assert_eq!(c.energy_pj.to_bits(), cost[1].to_bits());
            prop_assert_eq!(c.compute_ns.to_bits(), cost[2].to_bits());
            prop_assert_eq!(c.dram_ns.to_bits(), cost[3].to_bits());
            prop_assert_eq!(c.sram_bytes.to_bits(), cost[4].to_bits());
            prop_assert_eq!(c.dram_bytes.to_bits(), cost[5].to_bits());
            prop_assert_eq!(c.utilization.to_bits(), cost[6].to_bits());
        }
        prop_assert_eq!(t1.calibration_digest(), t2.calibration_digest());
    }

    /// Truncating a well-formed document anywhere never panics: it either
    /// still loads (cut fell on a row boundary) or fails with a typed
    /// error.
    #[test]
    fn truncated_documents_fail_typed_or_load(cut_seed in any::<u64>()) {
        let doc = one_cell_csv([1.5, 2.5], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5]);
        let cut = (cut_seed as usize) % doc.len();
        let mut trunc = doc[..cut].to_string();
        prop_assert!(matches!(
            TableBackend::from_csv_str(&trunc),
            Ok(_)
                | Err(CostError::TableParse { .. })
                | Err(CostError::MissingEntry { .. })
        ));
        // Garbage appended after the cut is a parse problem, not a panic.
        trunc.push_str("@@@,garbage");
        prop_assert!(TableBackend::from_csv_str(&trunc).is_err());
    }

    /// Random single-byte corruption of the numeric region never panics
    /// and never silently alters a value: the load either fails typed or
    /// yields exactly the original bits (corruption hit redundant text).
    #[test]
    fn corrupted_numbers_never_load_silently(pos_seed in any::<u64>(), byte in any::<u8>()) {
        let cost = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5];
        let doc = one_cell_csv([1.5, 2.5], cost);
        let numeric_start = doc.find("1.5").unwrap();
        let pos = numeric_start + (pos_seed as usize) % (doc.len() - numeric_start);
        let mut bytes = doc.clone().into_bytes();
        bytes[pos] = byte;
        // Non-UTF-8 mutations are not parseable documents; skip those.
        if let Ok(mutated) = String::from_utf8(bytes) {
            match TableBackend::from_csv_str(&mutated) {
                Err(
                    CostError::TableParse { .. }
                    | CostError::InvalidCostValue { .. }
                    | CostError::DuplicateEntry { .. }
                    | CostError::MissingEntry { .. },
                ) => {}
                Err(other) => prop_assert!(false, "untyped error {other:?}"),
                Ok(t) => {
                    // The mutation may legitimately keep the document
                    // well-formed (e.g. a digit changed, or a `#` turned a
                    // row into a comment). What must still hold: the loaded
                    // table is exactly what re-serialization describes — a
                    // stable fixed point, with no silent renormalisation.
                    let again = TableBackend::from_csv_str(&t.to_csv_string())
                        .expect("re-serialized tables always load");
                    prop_assert_eq!(again.calibration_digest(), t.calibration_digest());
                }
            }
        }
    }
}

// ---- explicit malformation taxonomy (the satellite checklist) ----

#[test]
fn nan_infinite_and_negative_costs_are_typed_errors() {
    for bad in ["NaN", "inf", "-inf", "-1.0"] {
        let doc = format!(
            "table,v1,t\nswitch,A,1.0,1.0\nlayer,l/elem:1/b1,A,{bad},2.0,3.0,4.0,5.0,6.0,0.5\n"
        );
        assert!(
            matches!(
                TableBackend::from_csv_str(&doc),
                Err(CostError::InvalidCostValue { line: 3, .. })
            ),
            "latency {bad} must be a typed domain error"
        );
    }
    // Utilisation above 1 is out of domain too.
    let doc = "table,v1,t\nswitch,A,1.0,1.0\nlayer,l/elem:1/b1,A,1.0,2.0,3.0,4.0,5.0,6.0,1.5\n";
    assert!(matches!(
        TableBackend::from_csv_str(doc),
        Err(CostError::InvalidCostValue { .. })
    ));
    // A zero switch drain rate would divide by zero downstream.
    let doc = "table,v1,t\nswitch,A,0.0,1.0\n";
    assert!(matches!(
        TableBackend::from_csv_str(doc),
        Err(CostError::InvalidCostValue { .. })
    ));
}

#[test]
fn duplicate_keys_are_typed_errors() {
    let doc = "table,v1,t\nswitch,A,1.0,1.0\n\
               layer,l/elem:1/b1,A,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n\
               layer,l/elem:1/b1,A,9.0,2.0,3.0,4.0,5.0,6.0,0.5\n";
    assert!(matches!(
        TableBackend::from_csv_str(doc),
        Err(CostError::DuplicateEntry { line: 4, .. })
    ));
    let doc = "table,v1,t\nswitch,A,1.0,1.0\nswitch,A,2.0,2.0\n";
    assert!(matches!(
        TableBackend::from_csv_str(doc),
        Err(CostError::DuplicateEntry { .. })
    ));
}

#[test]
fn missing_pairs_are_typed_errors() {
    // Two declared accelerators, but the layer covers only one.
    let doc = "table,v1,t\nswitch,A,1.0,1.0\nswitch,B,1.0,1.0\n\
               layer,l/elem:1/b1,A,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n";
    match TableBackend::from_csv_str(doc) {
        Err(CostError::MissingEntry { layer, acc }) => {
            assert_eq!(layer, "l/elem:1/b1");
            assert_eq!(acc, "B");
        }
        other => panic!("expected MissingEntry, got {other:?}"),
    }
    // A layer row naming an undeclared accelerator.
    let doc = "table,v1,t\nswitch,A,1.0,1.0\n\
               layer,l/elem:1/b1,X,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n";
    assert!(matches!(
        TableBackend::from_csv_str(doc),
        Err(CostError::MissingEntry { .. })
    ));
}

#[test]
fn malformed_rows_are_typed_errors() {
    // Wrong field counts, unknown kinds, missing header, bad numbers.
    for (doc, what) in [
        ("layer,l,A,1.0\n", "no header"),
        ("table,v2,t\n", "wrong version"),
        ("table,v1,t\nwat,1,2\n", "unknown row kind"),
        ("table,v1,t\nswitch,A,1.0\n", "short switch row"),
        (
            "table,v1,t\nswitch,A,1.0,1.0\nlayer,l/elem:1/b1,A,1.0,2.0\n",
            "short layer row",
        ),
        ("table,v1,t\nswitch,A,1.0,x,\n", "wrong switch field count"),
        ("table,v1,t\nswitch,A,1.0,abc\n", "non-numeric field"),
    ] {
        assert!(
            matches!(
                TableBackend::from_csv_str(doc),
                Err(CostError::TableParse { .. })
            ),
            "{what}: expected TableParse"
        );
    }
}

#[test]
fn malformed_gang_rows_are_typed_errors() {
    let base = "table,v1,t\nswitch,A,1.0,1.0\nswitch,B,1.0,1.0\n\
                layer,l/elem:1/b1,A,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n\
                layer,l/elem:1/b1,B,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n";
    // Single-member gang row.
    let doc = format!("{base}gang,l/elem:1/b1,A,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n");
    assert!(matches!(
        TableBackend::from_csv_str(&doc),
        Err(CostError::TableParse { .. })
    ));
    // Repeated member.
    let doc = format!("{base}gang,l/elem:1/b1,A+A,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n");
    assert!(matches!(
        TableBackend::from_csv_str(&doc),
        Err(CostError::TableParse { .. })
    ));
    // Undeclared member.
    let doc = format!("{base}gang,l/elem:1/b1,A+X,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n");
    assert!(matches!(
        TableBackend::from_csv_str(&doc),
        Err(CostError::MissingEntry { .. })
    ));
    // A valid gang row loads and answers in either member order … only
    // for the order it declares.
    let doc = format!("{base}gang,l/elem:1/b1,A+B,1.0,2.0,3.0,4.0,5.0,6.0,0.5\n");
    let t = TableBackend::from_csv_str(&doc).unwrap();
    let a = probe_acc();
    let b = dream_cost::AcceleratorConfig::new("B", 8, Dataflow::WeightStationary, 0.7, 1.0, 1)
        .unwrap();
    assert!(t.gang_cost(&probe_layer(), &[&a, &b]).is_ok());
    assert!(matches!(
        t.gang_cost(&probe_layer(), &[&b, &a]),
        Err(CostError::MissingEntry { .. })
    ));
}

#[test]
fn json_documents_are_typed_csv_errors() {
    // CSV is the one table format: a JSON document fails at its first
    // line, parsed directly or loaded from a `.json` file.
    let doc = r#"{"schema": "dream-cost-table", "version": 1, "name": "t"}"#;
    assert!(matches!(
        TableBackend::from_csv_str(doc),
        Err(CostError::TableParse { line: 1, .. })
    ));
    let dir = std::env::temp_dir().join(format!("dream-cost-table-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("table.json");
    std::fs::write(&path, doc).unwrap();
    assert!(matches!(
        TableBackend::load(&path),
        Err(CostError::TableParse { line: 1, .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unencodable_table_names_are_typed_errors() {
    let platform =
        dream_cost::Platform::new("p", vec![probe_acc()]).expect("one-acc platform builds");
    let model = dream_cost::CostModel::paper_default();
    let layers = [probe_layer()];
    // Names that cannot survive a CSV round trip are rejected at export…
    for bad in ["my,table", "tabs\tinside\nname", " padded "] {
        assert!(
            matches!(
                TableBackend::derive(bad, &model, &platform, &layers),
                Err(CostError::Export { .. })
            ),
            "derive must reject name {bad:?}"
        );
    }
    // …and a CSV header cannot smuggle one in either.
    for doc in ["table,v1, padded\n", "table,v1,tabs\tinside\n"] {
        assert!(
            matches!(
                TableBackend::from_csv_str(doc),
                Err(CostError::TableParse { .. })
            ),
            "header {doc:?}"
        );
    }
    // A good name still round-trips.
    let t = TableBackend::derive("good-name", &model, &platform, &layers).unwrap();
    assert_eq!(
        TableBackend::from_csv_str(&t.to_csv_string())
            .unwrap()
            .name(),
        "good-name"
    );
}

#[test]
fn empty_tables_load_but_answer_nothing() {
    let t = TableBackend::from_csv_str("table,v1,empty\n").unwrap();
    assert_eq!(t.layer_entry_count(), 0);
    assert!(matches!(
        t.layer_cost(&probe_layer(), &probe_acc()),
        Err(CostError::MissingEntry { .. })
    ));
}
