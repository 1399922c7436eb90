//! Golden test of the durable store's byte format.
//!
//! `tests/fixtures/golden_store/` is a small durable run committed as
//! bytes: `events_database(2, 100)`, 12 buckets of 40 heavy / 6 light
//! queries, one worker, a snapshot every 4 buckets and one injected
//! apply failure, so the WAL holds all four record kinds (boundary,
//! instance stored, instance completed, rollback). The run is
//! byte-identical from one execution to the next.
//!
//! The test decodes every WAL record and every snapshot and re-encodes
//! each one: the bytes must come back unchanged, so any codec change
//! that moves a stored byte fails here. Recovering the fixture and
//! serving the rest of the stream must give no wrong results.
//!
//! The fixture is rewritten only when the format changes on purpose:
//!
//! ```text
//! cargo test --release --test durable_format -- --ignored write_golden_store
//! ```

mod harness;

use std::path::PathBuf;
use std::sync::Arc;

use smdb::core::durability::{SnapshotPayload, WalEntry, SNAPSHOT_PREFIX, WAL_NAME};
use smdb::core::{DurabilityConfig, DurabilityManager};
use smdb::durable::{
    read_prefix, ByteReader, DirPersistence, MemPersistence, Persistence, SnapshotStore, Wire,
};
use smdb::runtime::{
    events_database, generate, recover_and_resume, BucketPlan, FaultPlan, Runtime, RuntimeConfig,
    StreamConfig,
};

const SNAPSHOT_EVERY: u64 = 4;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_store")
}

fn dconfig() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every_buckets: SNAPSHOT_EVERY,
    }
}

fn golden_plan() -> (Arc<smdb::query::Database>, Vec<BucketPlan>) {
    let (db, table) = events_database(2, 100).expect("fixture builds");
    let stream = StreamConfig {
        buckets: 12,
        heavy_queries: 40,
        light_queries: 6,
        ..StreamConfig::default()
    };
    (db, generate(table, 200, &stream))
}

fn golden_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        fault_plan: FaultPlan::failing_attempts([0]),
        ..harness::recovery_config(1)
    }
}

/// Rewrites the committed fixture from a fresh run.
#[test]
#[ignore = "rewrites tests/fixtures/golden_store; run only on a deliberate format change"]
fn write_golden_store() {
    let dir = fixture_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let store: Arc<dyn Persistence> = Arc::new(DirPersistence::open(&dir).expect("opens"));
    let (db, plan) = golden_plan();
    let manager = Arc::new(DurabilityManager::new(store, dconfig()));
    let runtime = Runtime::new_durable(db, golden_config(), manager);
    let outcome = runtime.run(&plan).expect("golden run serves");
    assert_eq!(outcome.stats.wrong_results, 0);
}

fn fixture() -> Arc<MemPersistence> {
    harness::copy_store(&DirPersistence::open(fixture_dir()).expect("fixture directory opens"))
}

/// Decodes `bytes` as one `T`, requiring the whole buffer to be used,
/// and re-encodes it.
fn reencode<T: Wire>(bytes: &[u8]) -> Vec<u8> {
    let mut r = ByteReader::new(bytes);
    let value = T::get(&mut r).expect("decodes");
    assert!(r.is_exhausted(), "decoding leaves no trailing bytes");
    value.to_bytes()
}

#[test]
fn every_stored_byte_reencodes_identically() {
    let store = fixture();
    let wal = read_prefix(&store.read(WAL_NAME).expect("reads").expect("WAL exists"));
    assert_eq!(wal.dropped_records, 0);
    let mut tags = [0usize; 4];
    for record in &wal.records {
        let entry = WalEntry::get(&mut ByteReader::new(&record.body)).expect("decodes");
        tags[match entry {
            WalEntry::Boundary(_) => 0,
            WalEntry::InstanceStored(_) => 1,
            WalEntry::InstanceCompleted(_) => 2,
            WalEntry::Rollback(_) => 3,
        }] += 1;
        assert_eq!(reencode::<WalEntry>(&record.body), record.body);
    }
    assert_eq!(
        tags,
        [12, 1, 1, 1],
        "12 boundaries and one of each other kind"
    );

    let snapshots = SnapshotStore::new(SNAPSHOT_PREFIX);
    let versions = snapshots.versions(store.as_ref()).expect("lists");
    assert_eq!(versions, vec![0, 4, 8, 12]);
    for version in versions {
        let payload = snapshots
            .read(store.as_ref(), version)
            .expect("reads")
            .expect("checksum holds");
        assert_eq!(reencode::<SnapshotPayload>(&payload), payload);
        let snapshot = SnapshotPayload::get(&mut ByteReader::new(&payload)).expect("decodes");
        assert_eq!(snapshot.serving.bucket, version);
        assert_eq!(snapshot.tables.len(), 1);
    }
}

#[test]
fn the_golden_store_recovers_and_resumes() {
    let (_, plan) = golden_plan();
    let total: u64 = plan.iter().map(|b| b.queries.len() as u64).sum();
    let whole = recover_and_resume(fixture(), dconfig(), golden_config(), &plan)
        .expect("the fixture recovers");
    assert_eq!(whole.resumed_at_bucket, 12, "the WAL covers the whole run");
    assert_eq!(whole.dropped_records, 0);
    assert_eq!(whole.outcome.stats.queries, total);
    assert_eq!(whole.outcome.stats.wrong_results, 0);

    // Crash mid-run: only the bucket-4 snapshot and half the WAL
    // survive, so recovery replays a tail and serves the rest.
    let crashed = fixture();
    for version in [8u64, 12] {
        crashed
            .remove(&format!("{SNAPSHOT_PREFIX}{version:020}"))
            .expect("removes");
    }
    crashed
        .mutate(WAL_NAME, |b| b.truncate(b.len() / 2))
        .expect("WAL exists");
    let resumed = recover_and_resume(crashed, dconfig(), golden_config(), &plan)
        .expect("the crashed fixture recovers");
    assert!((5..12).contains(&resumed.resumed_at_bucket));
    assert_eq!(resumed.outcome.stats.queries, total);
    assert_eq!(resumed.outcome.stats.errors, 0);
    assert_eq!(resumed.outcome.stats.wrong_results, 0);
    assert_eq!(
        resumed.outcome.stats.result_digest,
        whole.outcome.stats.result_digest
    );
}
