//! Shared soak fixtures for the integration tests.
//!
//! Every soak-style test used to re-declare the same seeded stream and
//! runtime configuration inline; the duplicates had already drifted
//! apart once (bucket capacities, fault plans). This module is the one
//! place the fixtures live: the *bench* fixture mirrors the `soak`
//! bench binary so the tier-1 gate and `BENCH_runtime.json` measure the
//! same scenario, the *small* fixture is the cheap 10-bucket stream the
//! determinism and trail tests share, and the *medium* fixture sits in
//! between for the parallel-scan digest sweep.
//!
//! Not every test file uses every fixture, hence the allow.
#![allow(dead_code)]

use std::sync::Arc;

use smdb::common::Cost;
use smdb::core::{DurabilityConfig, DurabilityManager};
use smdb::durable::{MemPersistence, Persistence};
use smdb::query::Database;
use smdb::runtime::{
    events_database, generate, BucketPlan, FaultPlan, Runtime, RuntimeConfig, StreamConfig,
};

/// The bench `soak` binary's fixture: 24 event kinds, 1 000 rows each,
/// 40 default-shaped buckets over 24 000 rows.
pub fn bench_soak() -> (Arc<Database>, Vec<BucketPlan>) {
    let (db, table) = events_database(24, 1_000).expect("fixture builds");
    let stream = StreamConfig {
        buckets: 40,
        ..StreamConfig::default()
    };
    (db, generate(table, 24_000, &stream))
}

/// The small 10-bucket stream (6 event kinds, 3 000 rows) the
/// determinism, trail and recovery tests share.
pub fn small_soak() -> (Arc<Database>, Vec<BucketPlan>) {
    let (db, table) = events_database(6, 500).expect("fixture builds");
    let stream = StreamConfig {
        buckets: 10,
        heavy_queries: 60,
        light_queries: 8,
        heavy_len: 3,
        light_len: 2,
        ..StreamConfig::default()
    };
    (db, generate(table, 3_000, &stream))
}

/// The mid-size 8-bucket stream (12 event kinds, 7 000 rows) used by
/// the parallel-scan digest sweep.
pub fn medium_soak() -> (Arc<Database>, Vec<BucketPlan>) {
    let (db, table) = events_database(12, 600).expect("fixture builds");
    let stream = StreamConfig {
        buckets: 8,
        heavy_queries: 40,
        light_queries: 6,
        heavy_len: 3,
        light_len: 2,
        ..StreamConfig::default()
    };
    (db, generate(table, 7_000, &stream))
}

/// A soak runtime with an explicit bucket capacity and fault plan; the
/// rest (slice budget, SLA) matches the bench `soak` binary.
pub fn soak_runtime_with(
    db: Arc<Database>,
    workers: usize,
    bucket_capacity: Cost,
    fault_plan: FaultPlan,
) -> Runtime {
    Runtime::new(
        db,
        RuntimeConfig {
            workers,
            bucket_capacity,
            slice_budget: 6,
            fault_plan,
            sla_p95: Some(Cost(1.0)),
            ..RuntimeConfig::default()
        },
    )
}

/// The bench `soak` binary's runtime: three injected apply failures so
/// the rollback path is exercised.
pub fn soak_runtime(db: Arc<Database>, workers: usize) -> Runtime {
    soak_runtime_with(
        db,
        workers,
        Cost(800.0),
        FaultPlan::failing_attempts([0, 1, 2]),
    )
}

/// The runtime configuration the recovery tests serve under: no
/// injected apply faults (the tuner's rollback cooldown is thread-local
/// and not part of the boundary record — see `smdb::runtime::recover`).
pub fn recovery_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        bucket_capacity: Cost(500.0),
        ..RuntimeConfig::default()
    }
}

/// A durable soak runtime logging to `persistence` with the given
/// snapshot cadence.
pub fn durable_soak_runtime(
    db: Arc<Database>,
    persistence: Arc<dyn Persistence>,
    snapshot_every_buckets: u64,
) -> Runtime {
    let dconfig = DurabilityConfig {
        snapshot_every_buckets,
    };
    Runtime::new_durable(
        db,
        recovery_config(2),
        Arc::new(DurabilityManager::new(persistence, dconfig)),
    )
}

/// Deep-copies a store into memory, so a test can damage or recover
/// it (recovery truncate-repairs the WAL in place) without touching
/// the original.
pub fn copy_store(src: &dyn Persistence) -> Arc<MemPersistence> {
    let dst = Arc::new(MemPersistence::new());
    for name in src.list().expect("lists") {
        let blob = src.read(&name).expect("reads").expect("listed blob exists");
        dst.write_atomic(&name, &blob).expect("writes");
    }
    dst
}
