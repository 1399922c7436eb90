//! Flight-recorder trail schema validation.
//!
//! `ci.sh quick` dumps the soak's decision trail (`--trail`) and pipes
//! it through [`validate_trail`] so a malformed export fails the same
//! gate as a lint finding. The schema is duplicated here on purpose —
//! the lint crate must not depend on `smdb-obs`, or a recorder bug that
//! also broke the exporter could validate its own output.

use smdb_common::json::Json;

/// Event kinds the recorder may emit, with the fields each requires
/// beyond the common `seq` / `event` / `at`.
const EVENT_KINDS: &[(&str, &[(&str, FieldType)])] = &[
    (
        "bucket_closed",
        &[
            ("queries", FieldType::U64),
            ("busy_ms", FieldType::Num),
            ("utilization", FieldType::Num),
            ("morsels", FieldType::U64),
        ],
    ),
    ("tuning_triggered", &[("trigger", FieldType::Str)]),
    (
        "candidate_assessed",
        &[
            ("feature", FieldType::Str),
            ("candidates", FieldType::U64),
            ("predicted_benefit_ms", FieldType::Num),
            ("accepted", FieldType::Bool),
            ("cache_hits", FieldType::U64),
            ("cache_misses", FieldType::U64),
        ],
    ),
    (
        "ilp_order_chosen",
        &[
            ("order", FieldType::StrArray),
            ("objective", FieldType::Num),
            ("dependence", FieldType::NumMatrix),
        ],
    ),
    ("actions_queued", &[("actions", FieldType::U64)]),
    (
        "actions_applied",
        &[
            ("applied", FieldType::U64),
            ("reconfiguration_cost_ms", FieldType::Num),
        ],
    ),
    (
        "slice_applied",
        &[("applied", FieldType::U64), ("remaining", FieldType::U64)],
    ),
    ("slice_deferred", &[("deferred", FieldType::U64)]),
    (
        "instance_stored",
        &[("instance", FieldType::Str), ("actions", FieldType::U64)],
    ),
    (
        "action_rolled_back",
        &[
            ("restored", FieldType::Str),
            ("undo_actions", FieldType::U64),
            ("abandoned_actions", FieldType::U64),
            ("cause", FieldType::Str),
        ],
    ),
    (
        "budget_rebalanced",
        &[
            ("budget_bytes", FieldType::U64),
            ("used_bytes", FieldType::U64),
            ("shares", FieldType::U64Array),
        ],
    ),
    (
        "snapshot_taken",
        &[
            ("bucket", FieldType::U64),
            ("wal_records", FieldType::U64),
            ("bytes", FieldType::U64),
        ],
    ),
    (
        "recovered",
        &[
            ("bucket", FieldType::U64),
            ("replayed_records", FieldType::U64),
            ("dropped_records", FieldType::U64),
        ],
    ),
];

/// Kinds introduced by smdb-trail/v2.1; older documents must not
/// contain them, so pre-durability consumers never see them unannounced.
const V2_1_KINDS: &[&str] = &["snapshot_taken", "recovered"];

#[derive(Debug, Clone, Copy)]
enum FieldType {
    U64,
    Num,
    Str,
    Bool,
    StrArray,
    U64Array,
    NumMatrix,
}

impl FieldType {
    fn label(self) -> &'static str {
        match self {
            FieldType::U64 => "a non-negative integer",
            FieldType::Num => "a number",
            FieldType::Str => "a string",
            FieldType::Bool => "a boolean",
            FieldType::StrArray => "an array of strings",
            FieldType::U64Array => "an array of non-negative integers",
            FieldType::NumMatrix => "an array of number arrays",
        }
    }

    fn matches(self, value: &Json) -> bool {
        match self {
            FieldType::U64 => value.as_u64().is_some(),
            FieldType::Num => value.as_f64().is_some(),
            FieldType::Str => value.as_str().is_some(),
            FieldType::Bool => matches!(value, Json::Bool(_)),
            FieldType::StrArray => value
                .as_array()
                .is_some_and(|a| a.iter().all(|v| v.as_str().is_some())),
            FieldType::U64Array => value
                .as_array()
                .is_some_and(|a| a.iter().all(|v| v.as_u64().is_some())),
            FieldType::NumMatrix => value.as_array().is_some_and(|rows| {
                rows.iter().all(|row| {
                    row.as_array()
                        .is_some_and(|r| r.iter().all(|v| v.as_f64().is_some()))
                })
            }),
        }
    }
}

/// Validates a trail document produced by the flight recorder's JSON
/// export: top-level `capacity` / `dropped` / `events`, per event a
/// strictly increasing `seq`, a known `event` kind, a numeric `at`, and
/// that kind's required fields with the right types.
///
/// Three schema versions coexist. A document with no top-level `schema`
/// field (or `"smdb-trail/v1"`) is **v1** — the single-engine trail,
/// byte-compatible with every trail committed before sharding.
/// `"smdb-trail/v2"` additionally allows an optional per-event `shard`
/// attribution (shard-stamped and merged multi-recorder trails); the
/// `shard` field in a v1 document is an error, so old consumers never
/// see it unannounced. `"smdb-trail/v2.1"` additionally allows the
/// durability event kinds (`snapshot_taken` / `recovered`); those kinds
/// in a lower-versioned document are an error for the same reason.
pub fn validate_trail(doc: &Json) -> Result<TrailSummary, String> {
    let schema_version = match doc.get("schema") {
        None => 1,
        Some(s) => match s.as_str() {
            Some("smdb-trail/v1") => 1,
            Some("smdb-trail/v2") => 2,
            Some("smdb-trail/v2.1") => 3,
            Some(other) => return Err(format!("trail: unknown schema `{other}`")),
            None => return Err("trail: `schema` must be a string".into()),
        },
    };
    let capacity = doc
        .get("capacity")
        .and_then(Json::as_u64)
        .ok_or("trail: missing or non-integer `capacity`")?;
    if capacity == 0 {
        return Err("trail: `capacity` must be at least 1".into());
    }
    doc.get("dropped")
        .and_then(Json::as_u64)
        .ok_or("trail: missing or non-integer `dropped`")?;
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or("trail: missing `events` array")?;
    if events.len() > capacity as usize {
        return Err(format!(
            "trail: {} events exceed the declared capacity {capacity}",
            events.len()
        ));
    }

    let mut last_seq: Option<u64> = None;
    let mut decisions = 0;
    for (i, event) in events.iter().enumerate() {
        let seq = event
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trail: event #{i}: missing or non-integer `seq`"))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!(
                    "trail: event #{i}: seq {seq} not strictly after {prev}"
                ));
            }
        }
        last_seq = Some(seq);
        let kind = event
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trail: event #{i} (seq {seq}): missing `event` kind"))?;
        let fields = EVENT_KINDS
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, fields)| *fields)
            .ok_or_else(|| format!("trail: event #{i} (seq {seq}): unknown kind `{kind}`"))?;
        if schema_version < 3 && V2_1_KINDS.contains(&kind) {
            return Err(format!(
                "trail: event #{i} (seq {seq}): `{kind}` requires smdb-trail/v2.1"
            ));
        }
        event
            .get("at")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trail: event #{i} (seq {seq}): missing or non-integer `at`"))?;
        match event.get("shard") {
            None => {}
            Some(_) if schema_version < 2 => {
                return Err(format!(
                    "trail: event #{i} (seq {seq}): `shard` requires smdb-trail/v2"
                ));
            }
            Some(shard) => {
                if shard.as_u64().is_none() {
                    return Err(format!(
                        "trail: event #{i} (seq {seq}): `shard` must be a non-negative integer"
                    ));
                }
            }
        }
        for (name, ty) in fields {
            let value = event.get(name).ok_or_else(|| {
                format!("trail: event #{i} (seq {seq}, {kind}): missing field `{name}`")
            })?;
            if !ty.matches(value) {
                return Err(format!(
                    "trail: event #{i} (seq {seq}, {kind}): `{name}` must be {}",
                    ty.label()
                ));
            }
        }
        if kind != "bucket_closed" {
            decisions += 1;
        }
    }
    Ok(TrailSummary {
        events: events.len(),
        decisions,
        schema_version,
    })
}

/// What a valid trail contained, for the CLI's one-line report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailSummary {
    /// Total events in the document.
    pub events: usize,
    /// Events other than `bucket_closed` (the tuning decisions).
    pub decisions: usize,
    /// Declared schema version (1 when the `schema` field is absent).
    pub schema_version: u32,
}

impl TrailSummary {
    /// The wire name of the declared schema (the internal version
    /// counter is ordinal — v2.1 is version 3).
    pub fn schema_label(&self) -> &'static str {
        match self.schema_version {
            1 => "smdb-trail/v1",
            2 => "smdb-trail/v2",
            _ => "smdb-trail/v2.1",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::json::parse;

    fn valid_doc() -> String {
        r#"{
          "capacity": 8,
          "dropped": 0,
          "events": [
            {"seq": 0, "event": "bucket_closed", "at": 1,
             "queries": 10, "busy_ms": 1.5, "utilization": 0.2, "morsels": 4},
            {"seq": 1, "event": "tuning_triggered", "at": 2, "trigger": "SlaViolation"},
            {"seq": 2, "event": "candidate_assessed", "at": 2, "feature": "indexing",
             "candidates": 3, "predicted_benefit_ms": 0.5, "accepted": true,
             "cache_hits": 1, "cache_misses": 2},
            {"seq": 3, "event": "ilp_order_chosen", "at": 2,
             "order": ["indexing", "compression"], "objective": 1.25,
             "dependence": [[0.0, 0.1], [0.2, 0.0]]},
            {"seq": 4, "event": "actions_queued", "at": 2, "actions": 4},
            {"seq": 5, "event": "slice_applied", "at": 3, "applied": 2, "remaining": 2},
            {"seq": 6, "event": "action_rolled_back", "at": 4, "restored": "baseline",
             "undo_actions": 2, "abandoned_actions": 2, "cause": "injected"}
          ]
        }"#
        .to_owned()
    }

    #[test]
    fn accepts_a_valid_trail() {
        let doc = parse(&valid_doc()).expect("parses");
        let summary = validate_trail(&doc).expect("valid");
        assert_eq!(
            summary,
            TrailSummary {
                events: 7,
                decisions: 6,
                schema_version: 1,
            }
        );
    }

    #[test]
    fn accepts_a_v2_trail_with_shard_attribution() {
        let doc = parse(
            r#"{
              "schema": "smdb-trail/v2",
              "capacity": 8,
              "dropped": 0,
              "events": [
                {"seq": 0, "event": "tuning_triggered", "at": 1,
                 "trigger": "SlaViolation", "shard": 2},
                {"seq": 1, "event": "budget_rebalanced", "at": 2,
                 "budget_bytes": 524288, "used_bytes": 131072,
                 "shares": [262144, 262144]}
              ]
            }"#,
        )
        .expect("parses");
        let summary = validate_trail(&doc).expect("valid v2");
        assert_eq!(
            summary,
            TrailSummary {
                events: 2,
                decisions: 2,
                schema_version: 2,
            }
        );
    }

    #[test]
    fn rejects_shard_attribution_outside_v2() {
        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "actions_queued", "at": 1,
                  "actions": 1, "shard": 0}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("`shard` requires smdb-trail/v2"), "{err}");

        let doc =
            parse(r#"{"schema": "smdb-trail/v3", "capacity": 4, "dropped": 0, "events": []}"#)
                .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn accepts_a_v2_1_trail_with_durability_events() {
        let doc = parse(
            r#"{
              "schema": "smdb-trail/v2.1",
              "capacity": 8,
              "dropped": 0,
              "events": [
                {"seq": 0, "event": "snapshot_taken", "at": 4,
                 "bucket": 4, "wal_records": 9, "bytes": 2048},
                {"seq": 1, "event": "recovered", "at": 7,
                 "bucket": 7, "replayed_records": 3, "dropped_records": 1},
                {"seq": 2, "event": "tuning_triggered", "at": 8,
                 "trigger": "SlaViolation", "shard": 0}
              ]
            }"#,
        )
        .expect("parses");
        let summary = validate_trail(&doc).expect("valid v2.1");
        assert_eq!(
            summary,
            TrailSummary {
                events: 3,
                decisions: 3,
                schema_version: 3,
            }
        );
    }

    #[test]
    fn rejects_durability_kinds_below_v2_1() {
        // v1 (no schema tag) must not smuggle in recovery events …
        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "recovered", "at": 1,
                  "bucket": 1, "replayed_records": 0, "dropped_records": 0}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(
            err.contains("`recovered` requires smdb-trail/v2.1"),
            "{err}"
        );

        // … and neither may an explicit v2 document.
        let doc = parse(
            r#"{"schema": "smdb-trail/v2", "capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "snapshot_taken", "at": 1,
                  "bucket": 1, "wal_records": 2, "bytes": 64}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(
            err.contains("`snapshot_taken` requires smdb-trail/v2.1"),
            "{err}"
        );
    }

    #[test]
    fn committed_v1_soak_trail_still_validates() {
        // Backward compatibility: a single-engine soak trail (no schema
        // tag, no shard field, no v2.1 kinds — written by the in-memory
        // `soak --trail`) must stay a valid (v1) document.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/trail_v1.json");
        let raw = std::fs::read_to_string(path).expect("committed v1 trail fixture exists");
        let doc = parse(&raw).expect("parses");
        let summary = validate_trail(&doc).expect("committed baseline validates");
        assert_eq!(summary.schema_version, 1, "pre-sharding trail is v1");
        assert!(summary.events > 0);
    }

    #[test]
    fn rejects_unknown_kind_and_missing_fields() {
        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "coffee_break", "at": 1}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("unknown kind `coffee_break`"), "{err}");

        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "tuning_triggered", "at": 1}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("missing field `trigger`"), "{err}");
    }

    #[test]
    fn rejects_wrong_field_types() {
        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "slice_deferred", "at": 1, "deferred": -2}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(
            err.contains("`deferred` must be a non-negative integer"),
            "{err}"
        );

        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 0, "event": "ilp_order_chosen", "at": 1,
                  "order": [1, 2], "objective": 0.0, "dependence": []}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("`order` must be an array of strings"), "{err}");
    }

    #[test]
    fn rejects_non_increasing_seq() {
        let doc = parse(
            r#"{"capacity": 4, "dropped": 0, "events": [
                 {"seq": 3, "event": "actions_queued", "at": 1, "actions": 1},
                 {"seq": 3, "event": "actions_queued", "at": 2, "actions": 1}]}"#,
        )
        .unwrap();
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("seq 3 not strictly after 3"), "{err}");
    }

    #[test]
    fn rejects_structural_problems() {
        let err = validate_trail(&parse(r#"{"dropped": 0, "events": []}"#).unwrap()).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        let err = validate_trail(&parse(r#"{"capacity": 4, "dropped": 0}"#).unwrap()).unwrap_err();
        assert!(err.contains("events"), "{err}");
        let err = validate_trail(
            &parse(
                r#"{"capacity": 1, "dropped": 0, "events": [
                     {"seq": 0, "event": "actions_queued", "at": 1, "actions": 1},
                     {"seq": 1, "event": "actions_queued", "at": 2, "actions": 1}]}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("exceed the declared capacity"), "{err}");
    }

    #[test]
    fn every_recorder_kind_is_known() {
        // The list the recorder documents (DESIGN.md §10) — drift in
        // either direction should be a conscious change to both.
        let kinds = [
            "bucket_closed",
            "tuning_triggered",
            "candidate_assessed",
            "ilp_order_chosen",
            "actions_queued",
            "actions_applied",
            "slice_applied",
            "slice_deferred",
            "instance_stored",
            "action_rolled_back",
            "budget_rebalanced",
            "snapshot_taken",
            "recovered",
        ];
        assert_eq!(EVENT_KINDS.len(), kinds.len());
        for k in kinds {
            assert!(EVENT_KINDS.iter().any(|(id, _)| *id == k), "{k}");
        }
    }
}
