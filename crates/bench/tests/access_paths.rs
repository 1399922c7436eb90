//! Predicted vs executed access paths.
//!
//! `StorageEngine::predict_access_paths` and the cost estimator's
//! feature extraction both claim to take the executor's per-chunk
//! access path exactly. The first test replays the seeded soak stream —
//! the same generator the `soak` binary serves — and asserts the
//! predicted partition (pruned / index / kernel / scalar) equals the
//! executed one on *every* query, across several storage configurations
//! and with the kernel layer both on and off. The second checks the
//! estimator's visit and probe counts against execution on TPC-H
//! template samples.

use smdb_common::ChunkColumnRef;
use smdb_runtime::{events_database, generate, StreamConfig};
use smdb_storage::{ConfigAction, EncodingKind, IndexKind};

#[test]
fn predicted_paths_match_executed_on_every_soak_query() {
    let (db, table) = events_database(24, 1_000).expect("fixture builds");
    let plan = generate(
        table,
        24_000,
        &StreamConfig {
            seed: 42,
            buckets: 12,
            ..StreamConfig::default()
        },
    );

    // Reconfigurations applied between buckets, shifting chunks across
    // the index / kernel / scalar buckets mid-stream the way the online
    // tuner does: hash indexes on part of `k`, dictionary and run-length
    // encodings elsewhere, and finally the kernel layer switched off.
    let reconfigure = |bucket: usize| -> Vec<ConfigAction> {
        match bucket {
            3 => (0..8)
                .map(|c| ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(table.0, 0, c),
                    kind: IndexKind::Hash,
                })
                .collect(),
            6 => (8..16)
                .map(|c| ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(table.0, 0, c),
                    kind: EncodingKind::Dictionary,
                })
                .chain((0..8).map(|c| ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(table.0, 2, c),
                    kind: EncodingKind::RunLength,
                }))
                .collect(),
            _ => Vec::new(),
        }
    };

    let mut checked = 0usize;
    for (bi, bucket) in plan.iter().enumerate() {
        let actions = reconfigure(bi);
        if !actions.is_empty() {
            db.apply_config(&actions).expect("reconfiguration applies");
        }
        if bi == 9 {
            db.engine_mut().set_kernels_enabled(false);
        }
        for q in &bucket.queries {
            let predicted = db
                .engine()
                .predict_access_paths(q.table(), q.predicates())
                .expect("prediction runs");
            let out = db.run_query(q).expect("query runs").output;
            let executed = (
                out.chunks_pruned,
                out.index_probes,
                out.chunks_kernel,
                out.chunks_scalar,
            );
            assert_eq!(
                (
                    predicted.pruned,
                    predicted.index,
                    predicted.kernel,
                    predicted.scalar
                ),
                executed,
                "bucket {bi}, query {q:?}: predicted != executed (pruned, index, kernel, scalar)"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "stream produced only {checked} queries");

    // The cumulative partition in scan_stats is the sum of the per-query
    // partitions, and every visited chunk landed in exactly one bucket.
    let stats = db.scan_stats();
    assert_eq!(
        stats.chunks_index + stats.chunks_kernel + stats.chunks_scalar + stats.chunks_pruned,
        checked as u64 * 24,
        "every (query, chunk) pair must be classified exactly once"
    );
    assert!(stats.chunks_kernel > 0, "kernel path never taken");
    assert!(stats.chunks_scalar > 0, "scalar path never taken");
    assert!(stats.chunks_index > 0, "index path never taken");
    assert!(stats.chunks_pruned > 0, "pruning never happened");
}

/// The cost estimator plans every chunk through the engine's own
/// `plan_chunk`, so on the TPC-H catalog — every predicate column of
/// every chunk indexed, all tiers hot (each feature's tier multiplier
/// is 1) — its visited-chunk and index-probe features equal what the
/// engine executes, for samples of every template. Many of the sampled
/// predicates are broader than the access-path threshold, which is
/// where an index must not drive a probe.
#[test]
fn estimated_visits_and_probes_match_executed_on_tpch_templates() {
    use smdb_bench::setup::{build_engine, DEFAULT_CHUNK, DEFAULT_ROWS, DEFAULT_SEED};
    use smdb_common::seeded_rng;
    use smdb_cost::features::{extract_features, fi, ConfigContext};
    use smdb_workload::tpch::NUM_TEMPLATES;

    for kind in [IndexKind::BTree, IndexKind::Hash] {
        let (mut engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
        let mut rng = seeded_rng(7);
        let queries: Vec<_> = (0..NUM_TEMPLATES)
            .flat_map(|id| (0..20).map(move |_| id))
            .map(|id| templates.sample(id, &mut rng))
            .collect();
        let mut targets = std::collections::BTreeSet::new();
        for q in &queries {
            let table = engine.table(q.table()).expect("table exists");
            for p in q.predicates() {
                for (chunk, _) in table.chunks() {
                    targets.insert(ChunkColumnRef {
                        table: q.table(),
                        column: p.column,
                        chunk,
                    });
                }
            }
        }
        for target in targets {
            engine
                .apply_action(&ConfigAction::CreateIndex { target, kind })
                .expect("index builds");
        }

        let config = engine.current_config();
        let ctx = ConfigContext::new(&engine, &config);
        let mut probes = 0u64;
        for q in &queries {
            let f = extract_features(&engine, &ctx, q, &config).expect("features extract");
            let out = engine
                .scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())
                .expect("query runs");
            assert_eq!(
                (f.0[fi::CHUNKS_VISITED], f.0[fi::INDEX_PROBES]),
                (out.chunks_visited as f64, out.index_probes as f64),
                "{kind:?} indexes, query {q:?}: estimated != executed (visited, probes)"
            );
            probes += out.index_probes;
        }
        assert!(probes > 0, "{kind:?} indexes: no query probed");
    }
}
