//! Crash-point property tests over the durability layer.
//!
//! The contract under test: recovery is a *total, deterministic*
//! function of whatever bytes survived the crash. Whatever prefix of
//! the WAL made it to storage — a clean boundary, half a record, a
//! bit-flipped checksum, a duplicated tail — recovery must never
//! panic, must degrade to the longest valid prefix, and the resumed
//! run must land on the same result digest as the uninterrupted one.
//!
//! Four layers of evidence:
//! * a property sweep truncating the WAL at arbitrary byte offsets,
//! * the torn-write fault matrix (truncate / flip / duplicate, three
//!   crash attempts each) injected *while the soak is running*,
//! * snapshot faults: flipping or truncating any byte of any snapshot
//!   blob falls back to an older snapshot (or to "nothing to recover"),
//!   and a truncated or absurd-length serving-state encoding is an
//!   error, never a panic,
//! * byte-identity: recovering the same store twice yields the same
//!   serving-state encoding and the same stored-instance set.

mod harness;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use smdb::core::durability::SNAPSHOT_PREFIX;
use smdb::core::{DurabilityConfig, ServingState, StoredInstance};
use smdb::durable::{
    ByteReader, MemPersistence, Persistence, TornWriteKind, TornWritePersistence, TornWritePlan,
    Wire,
};
use smdb::obs::TrailEvent;
use smdb::runtime::{recover_and_resume, recover_runtime, BucketPlan};

/// Snapshot cadence: with the 10-bucket small fixture this leaves
/// snapshots at buckets 0, 4 and 8, so most crash points replay a
/// non-trivial WAL tail.
const SNAPSHOT_EVERY: u64 = 4;

fn dconfig() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every_buckets: SNAPSHOT_EVERY,
    }
}

/// One uninterrupted durable run of the shared small fixture; every
/// crash-point case recovers from a copy of its store and must match
/// its digest.
struct Reference {
    digest: u64,
    queries: u64,
    instances: Vec<StoredInstance>,
    plan: Vec<BucketPlan>,
    store: Arc<MemPersistence>,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let (db, plan) = harness::small_soak();
        let store = Arc::new(MemPersistence::new());
        let runtime = harness::durable_soak_runtime(db, store.clone(), SNAPSHOT_EVERY);
        let outcome = runtime.run(&plan).expect("reference soak runs");
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.stats.wrong_results, 0);
        Reference {
            digest: outcome.stats.result_digest,
            queries: outcome.stats.queries,
            instances: runtime.driver().config_storage().snapshot(),
            plan,
            store,
        }
    })
}

/// Truncates the copied WAL at `cut` bytes: the crash point.
fn crashed_store(src: &dyn Persistence, cut: usize) -> Arc<MemPersistence> {
    let store = harness::copy_store(src);
    store
        .mutate(smdb::core::durability::WAL_NAME, |b| b.truncate(cut))
        .expect("wal blob exists");
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash at an *arbitrary byte offset* into the WAL: recovery never
    /// panics, is deterministic (two independent recoveries of the same
    /// surviving prefix agree on everything), and the resumed run
    /// reproduces the uninterrupted digest.
    #[test]
    fn crash_at_any_wal_byte_offset_recovers_deterministically(frac in 0.0f64..1.0) {
        let reference = reference();
        let wal = reference
            .store
            .read(smdb::core::durability::WAL_NAME)
            .expect("reads")
            .expect("reference run wrote a WAL");
        let cut = (frac * wal.len() as f64) as usize;

        let first = recover_and_resume(
            crashed_store(reference.store.as_ref(), cut),
            dconfig(),
            harness::recovery_config(2),
            &reference.plan,
        )
        .expect("recovery is total");
        let second = recover_and_resume(
            crashed_store(reference.store.as_ref(), cut),
            dconfig(),
            harness::recovery_config(2),
            &reference.plan,
        )
        .expect("recovery is total");

        // Correct: the surviving prefix plus re-served buckets equals
        // the uninterrupted run.
        prop_assert_eq!(first.outcome.stats.result_digest, reference.digest);
        prop_assert_eq!(first.outcome.stats.queries, reference.queries);
        prop_assert_eq!(first.outcome.stats.wrong_results, 0);
        prop_assert_eq!(first.outcome.stats.errors, 0);

        // Deterministic: same surviving prefix, same recovery.
        prop_assert_eq!(first.resumed_at_bucket, second.resumed_at_bucket);
        prop_assert_eq!(first.replayed_records, second.replayed_records);
        prop_assert_eq!(first.dropped_records, second.dropped_records);
        prop_assert_eq!(
            first.outcome.stats.result_digest,
            second.outcome.stats.result_digest
        );
    }
}

/// The reference store's snapshot blob names, oldest first.
fn snapshot_names(store: &dyn Persistence) -> Vec<String> {
    let names: Vec<String> = store
        .list()
        .expect("lists")
        .into_iter()
        .filter(|name| name.starts_with(SNAPSHOT_PREFIX))
        .collect();
    assert_eq!(
        names.len(),
        3,
        "cadence 4 over 10 buckets: snapshots 0, 4, 8"
    );
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Flip or truncate one byte of each snapshot blob in every subset:
    /// recovery falls back to the newest intact snapshot, replays the
    /// WAL from there and reproduces the uninterrupted digest — or,
    /// when every snapshot is damaged, reports nothing to recover.
    #[test]
    fn damaged_snapshots_fall_back_to_an_older_one(frac in 0.0f64..1.0, truncate in 0u8..2) {
        let reference = reference();
        let intact_replay = recover_runtime(
            harness::copy_store(reference.store.as_ref()),
            dconfig(),
            harness::recovery_config(2),
        )
        .expect("recovers")
        .expect("snapshot exists")
        .1
        .replayed_records;
        for damaged in 1u8..8 {
            let store = harness::copy_store(reference.store.as_ref());
            for (i, name) in snapshot_names(store.as_ref()).iter().enumerate() {
                if damaged & (1 << i) == 0 {
                    continue;
                }
                store
                    .mutate(name, |b| {
                        let at = (frac * b.len() as f64) as usize;
                        if truncate == 1 {
                            b.truncate(at);
                        } else {
                            b[at] ^= 0xA5;
                        }
                    })
                    .expect("snapshot blob exists");
            }
            let recovered =
                recover_runtime(store.clone(), dconfig(), harness::recovery_config(2))
                    .expect("recovery is total");
            if damaged == 0b111 {
                prop_assert!(recovered.is_none(), "no valid snapshot: nothing to recover");
                continue;
            }
            let (runtime, rec) = recovered.expect("an intact snapshot remains");
            // Losing the newest snapshot means replaying more WAL.
            if damaged & 0b100 == 0 {
                prop_assert_eq!(rec.replayed_records, intact_replay);
            } else {
                prop_assert!(rec.replayed_records > intact_replay);
            }
            let outcome = runtime
                .run_resumed(&reference.plan, rec.serving.bucket, rec.serving.stats.clone())
                .expect("resumed run completes");
            prop_assert_eq!(outcome.stats.result_digest, reference.digest);
            prop_assert_eq!(outcome.stats.wrong_results, 0);
        }
    }
}

/// A serving-state encoding cut at any offset, or with a length prefix
/// set to `u64::MAX`, decodes to an error and never panics.
#[test]
fn truncated_or_absurd_serving_state_is_an_error() {
    let reference = reference();
    let (_, rec) = recover_runtime(
        harness::copy_store(reference.store.as_ref()),
        dconfig(),
        harness::recovery_config(2),
    )
    .expect("recovers")
    .expect("snapshot exists");
    let state = rec.serving;
    let bytes = state.to_bytes();
    for cut in 0..bytes.len() {
        assert!(
            ServingState::get(&mut ByteReader::new(&bytes[..cut])).is_err(),
            "a serving state cut at {cut} of {} bytes must not decode",
            bytes.len()
        );
    }
    // Offsets of count prefixes: the config's index list, the KPI
    // windows, the history templates and the plan cache.
    let head = (state.bucket, state.stats.clone(), state.clock)
        .to_bytes()
        .len();
    let kpi = head + state.config.to_bytes().len();
    let history = kpi + state.kpi.to_bytes().len();
    let plan_cache = history + state.history.to_bytes().len();
    for at in [head, kpi, history, plan_cache] {
        let mut absurd = bytes.clone();
        absurd[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            ServingState::get(&mut ByteReader::new(&absurd)).is_err(),
            "a u64::MAX count at offset {at} must not decode"
        );
    }
}

/// The torn-write fault matrix, injected live: the soak runs against a
/// sabotaged backend that corrupts one append mid-flight and fails the
/// call — the run dies with an error (never a panic), and recovery
/// degrades to the last valid WAL prefix, records a `recovered` trail
/// event naming the dropped-record count, and the resumed run matches
/// the uninterrupted digest.
#[test]
fn torn_writes_recover_to_last_valid_prefix() {
    let reference = reference();
    // Offset 7 lands inside the 8-byte frame header: truncation leaves
    // a partial header, the bit flip corrupts the checksum field.
    for attempt in [1usize, 4, 8] {
        for kind in TornWriteKind::ALL {
            let (db, _) = harness::small_soak();
            let torn = Arc::new(TornWritePersistence::new(
                MemPersistence::new(),
                TornWritePlan::tearing(attempt, kind, 7),
            ));
            let dying = harness::durable_soak_runtime(db, torn.clone(), SNAPSHOT_EVERY);
            let died = dying.run(&reference.plan);
            assert!(
                died.is_err(),
                "append {attempt} {}: the torn write must surface as an error",
                kind.label()
            );
            assert_eq!(torn.injected(), 1, "exactly one fault fired");

            let (recovered, rec) =
                recover_runtime(torn.clone(), dconfig(), harness::recovery_config(2))
                    .expect("recovery is total")
                    .expect("a snapshot exists");
            assert!(
                rec.dropped_records >= 1,
                "append {attempt} {}: the torn record must be dropped, got {}",
                kind.label(),
                rec.dropped_records
            );

            // The trail names the recovery and its dropped-record count.
            let events = recovered.driver().flight_recorder().events();
            let trail = events
                .iter()
                .find_map(|(_, e)| match e {
                    TrailEvent::Recovered {
                        replayed_records,
                        dropped_records,
                        ..
                    } => Some((*replayed_records, *dropped_records)),
                    _ => None,
                })
                .expect("a recovered trail event");
            assert_eq!(trail, (rec.replayed_records, rec.dropped_records));

            let outcome = recovered
                .run_resumed(
                    &reference.plan,
                    rec.serving.bucket,
                    rec.serving.stats.clone(),
                )
                .expect("resumed run completes");
            assert_eq!(
                outcome.stats.result_digest,
                reference.digest,
                "append {attempt} {}: digest differs from the uninterrupted run",
                kind.label()
            );
            assert_eq!(outcome.stats.wrong_results, 0);
            assert_eq!(outcome.stats.errors, 0);
        }
    }
}

/// Byte-identity of recovery: two recoveries of the same store agree on
/// the serving-state *encoding*, the encoding round-trips through
/// decode, and the recovered instance set equals the live driver's.
#[test]
fn recovered_state_round_trips_byte_identically() {
    let reference = reference();
    let (first, rec1) = recover_runtime(
        harness::copy_store(reference.store.as_ref()),
        dconfig(),
        harness::recovery_config(2),
    )
    .expect("recovers")
    .expect("snapshot exists");
    let (_, rec2) = recover_runtime(
        harness::copy_store(reference.store.as_ref()),
        dconfig(),
        harness::recovery_config(2),
    )
    .expect("recovers")
    .expect("snapshot exists");

    let bytes = rec1.serving.to_bytes();
    assert_eq!(
        bytes,
        rec2.serving.to_bytes(),
        "independent recoveries must encode byte-identically"
    );
    let decoded = ServingState::get(&mut ByteReader::new(&bytes)).expect("decodes");
    assert_eq!(
        bytes,
        decoded.to_bytes(),
        "encoding is a fixed point of the codec"
    );

    assert_eq!(rec1.dropped_records, 0, "clean shutdown drops nothing");
    assert_eq!(
        first.driver().config_storage().snapshot(),
        reference.instances,
        "recovered instance set equals the live driver's"
    );
    assert_eq!(rec1.instances, rec2.instances);
}

/// Losing the whole WAL is still recoverable: serving resumes from the
/// latest snapshot (bucket 8 under the cadence-4 plan) and the re-served
/// tail reproduces the uninterrupted digest.
#[test]
fn empty_wal_recovers_from_latest_snapshot() {
    let reference = reference();
    let recovered = recover_and_resume(
        crashed_store(reference.store.as_ref(), 0),
        dconfig(),
        harness::recovery_config(2),
        &reference.plan,
    )
    .expect("recovery is total");
    assert_eq!(
        recovered.resumed_at_bucket, 8,
        "an empty WAL falls back to the latest snapshot"
    );
    assert_eq!(recovered.replayed_records, 0);
    assert_eq!(recovered.outcome.stats.result_digest, reference.digest);
}
