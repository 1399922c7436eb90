//! Morsel-driven parallel scan properties: results, total simulated
//! cost and the soak digest must be *bit-identical* across scan-thread
//! counts and morsel sizes, and a heavy scan on the shared pool must
//! never starve light queries (caller-helps-first scheduling bounds
//! their tail latency).

mod harness;

use std::sync::Arc;

use proptest::prelude::*;

use smdb::common::{ColumnId, Cost, TableId};
use smdb::query::{Database, Query};
use smdb::runtime::{Runtime, RuntimeConfig};
use smdb::storage::value::ColumnValues;
use smdb::storage::{
    Aggregate, AggregateOp, ColumnDef, DataType, PredicateOp, ScanPool, ScanPredicate, Schema,
    StorageEngine, Table,
};

/// Thread counts the determinism contract is checked over.
const THREADS: [usize; 3] = [1, 2, 4];
/// Morsel sizes: single chunk, large, whole table.
const MORSEL_CHUNKS: [usize; 3] = [1, 16, 0];

fn database(keys: Vec<i64>, vals: Vec<i64>, chunk_rows: usize) -> Arc<Database> {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ])
    .expect("valid schema");
    let table = Table::from_columns(
        "t",
        schema,
        vec![ColumnValues::Int(keys), ColumnValues::Int(vals)],
        chunk_rows,
    )
    .expect("table builds");
    let mut engine = StorageEngine::default();
    engine.create_table(table).expect("unique");
    Database::new(engine)
}

fn columns() -> impl Strategy<Value = (Vec<i64>, Vec<i64>)> {
    proptest::collection::vec((-40i64..40, -1000i64..1000), 1..600)
        .prop_map(|rows| rows.into_iter().unzip())
}

fn query() -> impl Strategy<Value = Query> {
    let pred = (0i64..4, -50i64..50, -50i64..50).prop_map(|(kind, a, b)| match kind {
        0 => ScanPredicate::eq(ColumnId(0), a),
        1 => ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, a),
        2 => ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, a),
        _ => ScanPredicate::between(ColumnId(0), a.min(b), a.max(b)),
    });
    let agg = proptest::option::of((0usize..5).prop_map(|op| {
        let op = [
            AggregateOp::Count,
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
        ][op];
        Aggregate::new(op, ColumnId(1))
    }));
    (proptest::collection::vec(pred, 0..3), agg).prop_map(|(preds, agg)| {
        let grouped = agg.is_some() && preds.len() < 2;
        let mut q = Query::new(TableId(0), "t", preds, agg, "prop");
        if grouped {
            q = q.with_group_by(ColumnId(0));
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core determinism contract: every result field except the
    /// latency model (`sim_latency`, `morsels`) is bit-identical for any
    /// (thread count × morsel size), including float aggregates — not
    /// merely within tolerance.
    #[test]
    fn results_are_bit_identical_across_threads_and_morsels(
        (keys, vals) in columns(),
        q in query(),
        chunk_rows in 1usize..120,
    ) {
        let db = database(keys, vals, chunk_rows);
        let reference = db.run_query(&q).expect("sequential run").output;
        prop_assert_eq!(reference.morsels, 0);
        prop_assert_eq!(reference.sim_latency, reference.sim_cost);
        for threads in THREADS {
            for morsel_chunks in MORSEL_CHUNKS {
                db.set_scan_pool(Some(ScanPool::new(threads)), morsel_chunks);
                let out = db.run_query(&q).expect("parallel run").output;
                prop_assert_eq!(out.rows_matched, reference.rows_matched);
                prop_assert_eq!(out.agg_value, reference.agg_value, "bitwise agg");
                prop_assert_eq!(&out.groups, &reference.groups, "bitwise groups");
                prop_assert_eq!(out.sim_cost, reference.sim_cost, "total work");
                prop_assert_eq!(out.rows_scanned, reference.rows_scanned);
                prop_assert_eq!(out.chunks_pruned, reference.chunks_pruned);
                prop_assert_eq!(out.chunks_visited, reference.chunks_visited);
                prop_assert_eq!(out.index_probes, reference.index_probes);
            }
        }
    }

    /// The estimator-facing invariant: because `sim_cost` is independent
    /// of the execution mode, feature extraction (which predicts it)
    /// cannot drift from the parallel access-path choice.
    #[test]
    fn feature_extraction_is_execution_mode_independent(
        (keys, vals) in columns(),
        q in query(),
    ) {
        let db = database(keys, vals, 64);
        let config = db.engine().current_config();
        let features = {
            let engine = db.engine();
            let ctx = smdb::cost::features::ConfigContext::new(&engine, &config);
            smdb::cost::extract_features(&engine, &ctx, &q, &config).expect("extracts")
        };
        db.set_scan_pool(Some(ScanPool::new(4)), 1);
        let out = db.run_query(&q).expect("parallel run").output;
        let after = {
            let engine = db.engine();
            let ctx = smdb::cost::features::ConfigContext::new(&engine, &config);
            smdb::cost::extract_features(&engine, &ctx, &q, &config).expect("extracts")
        };
        prop_assert_eq!(&features, &after, "features saw the execution mode");
        // And the quantity they predict is the mode-independent one.
        db.set_scan_pool(None, 1);
        let seq = db.run_query(&q).expect("sequential run").output;
        prop_assert_eq!(out.sim_cost, seq.sim_cost);
    }
}

/// End-to-end soak digest invariance: the full serving runtime (worker
/// pool, live tuning, fault injection) produces the same result digest
/// for every scan-thread count and morsel size.
#[test]
fn soak_digest_is_scan_thread_and_morsel_invariant() {
    let (_, plan) = harness::medium_soak();
    let mut digests = Vec::new();
    for (scan_threads, morsel_chunks) in [(1, 1), (2, 1), (4, 16), (4, 0)] {
        let (db, _) = harness::medium_soak();
        let outcome = Runtime::new(
            db,
            RuntimeConfig {
                workers: 2,
                bucket_capacity: Cost(400.0),
                scan_threads,
                morsel_chunks,
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("soak runs");
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.stats.wrong_results, 0);
        digests.push((scan_threads, morsel_chunks, outcome.stats.result_digest));
    }
    let reference = digests[0].2;
    for (threads, morsels, digest) in &digests {
        assert_eq!(
            *digest, reference,
            "digest drifted at scan_threads={threads} morsel_chunks={morsels}"
        );
    }
}

/// Starvation bound: while a heavy scan floods the shared pool from one
/// thread, light queries submitted from another must keep completing —
/// caller-helps-first scheduling means a submitter executes its own
/// morsels instead of queueing behind the heavy job, so the light p99
/// stays bounded (measured here in simulated cost, which is scheduling-
/// independent, plus a liveness check in wall time).
#[test]
fn heavy_scans_do_not_starve_light_queries() {
    let keys: Vec<i64> = (0..60_000).map(|i| i % 100).collect();
    let vals: Vec<i64> = (0..60_000).map(|i| i % 7).collect();
    let db = database(keys, vals, 500); // 120 chunks
    db.set_scan_pool(Some(ScanPool::new(2)), 4);

    let heavy = Query::new(
        TableId(0),
        "t",
        vec![],
        Some(Aggregate::new(AggregateOp::Sum, ColumnId(1))),
        "heavy",
    );
    let light = Query::new(
        TableId(0),
        "t",
        vec![ScanPredicate::eq(ColumnId(0), 3)],
        None,
        "light",
    );

    // Unloaded baseline: the latency model is a pure function of the
    // query, so contention must never change it (no cross-query
    // queueing is ever charged).
    let unloaded = db.run_query(&light).expect("light runs").output;

    let (light_wall_ms, light_outputs) = std::thread::scope(|scope| {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammer = {
            let db = db.clone();
            let heavy = heavy.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut runs = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    db.run_query(&heavy).expect("heavy runs");
                    runs += 1;
                }
                runs
            })
        };
        let mut walls = Vec::with_capacity(200);
        let mut outputs = Vec::with_capacity(200);
        for _ in 0..200 {
            let start = std::time::Instant::now();
            let r = db.run_query(&light).expect("light runs");
            walls.push(start.elapsed().as_secs_f64() * 1e3);
            outputs.push(r.output);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(hammer.join().expect("hammer joins") > 0);
        (walls, outputs)
    });

    // All 200 light queries completed under heavy-scan pressure
    // (liveness), none had to wait for the heavy job's remaining
    // morsels: the wall-clock p99 stays orders of magnitude below what
    // queueing behind even one 120-chunk heavy scan per light query
    // would cost, and the latency model reports the unloaded figure.
    let mut sorted = light_wall_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p99 = sorted[smdb::obs::metrics::quantile_rank(sorted.len() as u64, 0.99) as usize - 1];
    assert!(
        p99 < 500.0,
        "light p99 {p99} ms — starved by the heavy scan"
    );
    for out in light_outputs {
        assert_eq!(out.sim_latency, unloaded.sim_latency);
        assert_eq!(out.rows_matched, unloaded.rows_matched);
    }
}
