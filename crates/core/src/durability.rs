//! The driver's durability layer: WAL + snapshots of the serving state.
//!
//! A durable run logs every tuning-state transition to an append-only
//! WAL (`smdb_durable::Wal`) and periodically writes a full snapshot —
//! raw table data, the applied configuration, the tuned `ConfigStorage`
//! instances and the whole serving state (KPI windows, workload history,
//! plan cache, organizer, counters). Recovery replays the WAL tail over
//! the latest valid snapshot, so a restart resumes with the *tuned*
//! physical design instead of re-tuning from cold.
//!
//! WAL record bodies are [`WalEntry`] values, tagged:
//!
//! | tag | record              | written by                          |
//! |-----|---------------------|-------------------------------------|
//! | 1   | `Boundary`          | control thread, after each barrier  |
//! | 2   | `InstanceStored`    | feedback loop (tune / drain)        |
//! | 3   | `InstanceCompleted` | feedback loop (`complete_latest`)   |
//! | 4   | `Rollback`          | failed-apply rollback               |
//!
//! The serving runtime's ack rendezvous guarantees all tuner-thread
//! records for tick *t* land before the control thread appends boundary
//! *t+1*, so the WAL record order — like the decision trail — is
//! deterministic for a given seed.
//!
//! A snapshot is one [`SnapshotPayload`] value. It records how many WAL
//! records it covers; recovery skips those and replays the rest. The
//! WAL itself is never truncated by a snapshot, so it grows for the
//! whole run.
//!
//! Snapshot cadence is the durability layer's tunable: frequent
//! snapshots shorten recovery (fewer records to replay — a lower RTO)
//! but multiply write amplification, since each snapshot rewrites the
//! full state the WAL describes incrementally. [`DurabilityStats`]
//! surfaces both sides as KPIs.
//!
//! Every persisted type here has one [`Wire`] impl, in the codec section
//! at the end of this file or next to its type in a lower crate.

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::Mutex;
use smdb_common::{Cost, Error, LogicalTime, Result};
use smdb_durable::codec::{of_tag, tag_of};
use smdb_durable::{wire_struct, ByteReader, ByteWriter, Persistence, SnapshotStore, Wal, Wire};
use smdb_forecast::WorkloadHistoryState;
use smdb_query::{Query, SessionStats};
use smdb_storage::persist::RawTable;
use smdb_storage::{ConfigAction, ConfigInstance, ConfigSnapshot, StorageEngine, Table};

use crate::config_storage::{complete_latest_instance, RollbackRecord, StoredInstance};
use crate::feature::FeatureKind;
use crate::kpi::KpiState;

/// Blob name of the write-ahead log.
pub const WAL_NAME: &str = "wal.log";
/// Name prefix of snapshot blobs.
pub const SNAPSHOT_PREFIX: &str = "snap-";
/// Format version tag at the head of every snapshot payload.
const SNAPSHOT_VERSION: u8 = 1;

const TAG_BOUNDARY: u8 = 1;
const TAG_INSTANCE_STORED: u8 = 2;
const TAG_INSTANCE_COMPLETED: u8 = 3;
const TAG_ROLLBACK: u8 = 4;

/// Durability tunables.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Take a full snapshot every N buckets (0 disables periodic
    /// snapshots; the run-start snapshot is always written). Lower
    /// values shorten recovery, higher values cut write amplification.
    pub snapshot_every_buckets: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            snapshot_every_buckets: 8,
        }
    }
}

/// Write-side KPIs of the durability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityStats {
    /// WAL records appended this run.
    pub wal_records: u64,
    /// WAL bytes appended this run.
    pub wal_bytes: u64,
    /// Snapshots taken this run.
    pub snapshots_taken: u64,
    /// Snapshot bytes written this run.
    pub snapshot_bytes: u64,
    /// Write amplification: total durable bytes per WAL byte. 1.0 means
    /// pure logging; each snapshot pushes it up — the cadence trade-off.
    pub write_amplification: f64,
}

#[derive(Debug, Default)]
struct ManagerState {
    next_seq: u64,
    wal_records: u64,
    wal_bytes: u64,
    snapshots_taken: u64,
    snapshot_bytes: u64,
}

/// Owns the WAL and the snapshot store of one durable run.
pub struct DurabilityManager {
    persistence: Arc<dyn Persistence>,
    wal: Wal,
    snapshots: SnapshotStore,
    config: DurabilityConfig,
    state: Mutex<ManagerState>,
}

impl std::fmt::Debug for DurabilityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityManager")
            .field("config", &self.config)
            .field("state", &self.state.lock())
            .finish_non_exhaustive()
    }
}

impl DurabilityManager {
    /// A manager over an empty (or to-be-overwritten) log.
    pub fn new(persistence: Arc<dyn Persistence>, config: DurabilityConfig) -> Self {
        Self::with_next_seq(persistence, config, 0)
    }

    /// A manager resuming after recovery: `next_seq` is the number of
    /// valid WAL records already on disk (appends continue after them).
    pub fn with_next_seq(
        persistence: Arc<dyn Persistence>,
        config: DurabilityConfig,
        next_seq: u64,
    ) -> Self {
        DurabilityManager {
            persistence,
            wal: Wal::new(WAL_NAME),
            snapshots: SnapshotStore::new(SNAPSHOT_PREFIX),
            config,
            state: Mutex::new(ManagerState {
                next_seq,
                ..ManagerState::default()
            }),
        }
    }

    /// The durability configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// The backing persistence.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        &self.persistence
    }

    /// Whether the cadence calls for a snapshot after `bucket` completed
    /// buckets (run-start snapshots are requested explicitly).
    pub fn should_snapshot(&self, bucket: u64) -> bool {
        let every = self.config.snapshot_every_buckets;
        every > 0 && bucket > 0 && bucket % every == 0
    }

    /// Write-side statistics for KPI reporting.
    pub fn stats(&self) -> DurabilityStats {
        let s = self.state.lock();
        let total = s.wal_bytes + s.snapshot_bytes;
        DurabilityStats {
            wal_records: s.wal_records,
            wal_bytes: s.wal_bytes,
            snapshots_taken: s.snapshots_taken,
            snapshot_bytes: s.snapshot_bytes,
            write_amplification: if s.wal_bytes > 0 {
                total as f64 / s.wal_bytes as f64
            } else {
                0.0
            },
        }
    }

    /// Total valid WAL records (the next record's sequence number).
    pub fn wal_records(&self) -> u64 {
        self.state.lock().next_seq
    }

    fn append(&self, entry: &WalEntry<'_>) -> Result<()> {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        let bytes = self
            .wal
            .append(self.persistence.as_ref(), seq, &entry.to_bytes())?;
        state.next_seq += 1;
        state.wal_records += 1;
        state.wal_bytes += bytes;
        smdb_obs::metrics::counter("durable.wal_records").inc();
        Ok(())
    }

    /// Logs a bucket-boundary serving state.
    pub fn log_boundary(&self, state: &ServingState) -> Result<()> {
        self.append(&WalEntry::Boundary(Cow::Borrowed(state)))
    }

    /// Logs a newly stored configuration instance.
    pub fn log_instance_stored(&self, instance: &StoredInstance) -> Result<()> {
        self.append(&WalEntry::InstanceStored(Cow::Borrowed(instance)))
    }

    /// Logs the feedback loop completing the latest open instance.
    pub fn log_instance_completed(&self, observed_after: Cost) -> Result<()> {
        self.append(&WalEntry::InstanceCompleted(observed_after))
    }

    /// Logs a rollback to the last good configuration.
    pub fn log_rollback(&self, record: &RollbackRecord) -> Result<()> {
        self.append(&WalEntry::Rollback(Cow::Borrowed(record)))
    }

    /// Writes a full snapshot (version = `serving.bucket`) covering all
    /// WAL records so far. Returns `(wal_records_covered, bytes)`.
    pub fn take_snapshot(
        &self,
        serving: &ServingState,
        engine: &StorageEngine,
        instances: &[StoredInstance],
        rollbacks: &[RollbackRecord],
    ) -> Result<(u64, u64)> {
        let wal_records = self.state.lock().next_seq;
        let payload = SnapshotPayload {
            wal_records,
            serving: Cow::Borrowed(serving),
            tables: engine
                .tables()
                .map(|(_, t)| RawTable::of(t))
                .collect::<Result<_>>()?,
            instances: Cow::Borrowed(instances),
            rollbacks: Cow::Borrowed(rollbacks),
        };
        let bytes = self.snapshots.write(
            self.persistence.as_ref(),
            serving.bucket,
            &payload.to_bytes(),
        )?;
        let mut state = self.state.lock();
        state.snapshots_taken += 1;
        state.snapshot_bytes += bytes;
        smdb_obs::metrics::counter("durable.snapshots").inc();
        Ok((wal_records, bytes))
    }
}

/// Everything recovery reconstructs from the durable store.
#[derive(Debug)]
pub struct RecoveredState {
    /// The serving state at the last valid boundary.
    pub serving: ServingState,
    /// Raw tables, in id order, ready for `StorageEngine::create_table`.
    pub tables: Vec<Table>,
    /// Stored configuration instances, snapshot state plus WAL replay.
    pub instances: Vec<StoredInstance>,
    /// Recorded rollbacks, snapshot state plus WAL replay.
    pub rollbacks: Vec<RollbackRecord>,
    /// WAL records replayed over the snapshot.
    pub replayed_records: u64,
    /// WAL records dropped after the last valid prefix.
    pub dropped_records: u64,
    /// Total valid WAL records — the resumed manager's next sequence.
    pub wal_records: u64,
}

/// Reads the durable store back: latest valid snapshot plus the valid
/// WAL tail. Returns `Ok(None)` when no valid snapshot exists (nothing
/// was ever persisted, or every snapshot is corrupt — there is no base
/// state to replay onto). A corrupt WAL tail is truncated in place so
/// subsequent appends extend the valid prefix.
pub fn recover(p: &dyn Persistence, _config: &DurabilityConfig) -> Result<Option<RecoveredState>> {
    let snapshots = SnapshotStore::new(SNAPSHOT_PREFIX);
    let Some((_, payload)) = snapshots.latest_valid(p)? else {
        return Ok(None);
    };
    let snapshot = SnapshotPayload::get(&mut ByteReader::new(&payload))?;
    let mut serving = snapshot.serving.into_owned();
    let mut instances = snapshot.instances.into_owned();
    let mut rollbacks = snapshot.rollbacks.into_owned();

    // Replay the WAL tail over the snapshot: records the snapshot
    // already covers are skipped by sequence number.
    let raw = p.read(WAL_NAME)?.unwrap_or_default();
    let wal = smdb_durable::read_prefix(&raw);
    let mut replayed = 0u64;
    for record in &wal.records {
        if record.seq < snapshot.wal_records {
            continue;
        }
        match WalEntry::get(&mut ByteReader::new(&record.body))? {
            WalEntry::Boundary(state) => serving = state.into_owned(),
            WalEntry::InstanceStored(inst) => instances.push(inst.into_owned()),
            WalEntry::InstanceCompleted(after) => {
                complete_latest_instance(&mut instances, after);
            }
            WalEntry::Rollback(rb) => rollbacks.push(rb.into_owned()),
        }
        replayed += 1;
    }
    if wal.dropped_bytes > 0 {
        // Degrade to the last valid prefix: future appends must extend
        // it, not a corrupt tail.
        p.write_atomic(WAL_NAME, &raw[..wal.valid_bytes as usize])?;
    }
    Ok(Some(RecoveredState {
        serving,
        tables: snapshot
            .tables
            .into_iter()
            .map(RawTable::into_table)
            .collect::<Result<_>>()?,
        instances,
        rollbacks,
        replayed_records: replayed,
        dropped_records: wal.dropped_records,
        wal_records: wal.records.len() as u64,
    }))
}

/// A deferred tuning being drained slice by slice: what the driver
/// holds between barriers and a boundary record carries.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingReconfig {
    /// The configuration once the drain completes.
    pub final_config: ConfigInstance,
    /// The full action list of the tuning.
    pub actions: Vec<ConfigAction>,
    /// Predicted workload cost after the change.
    pub predicted_cost: Cost,
    /// Mean observed response before the change.
    pub observed_before: Cost,
    /// Reconfiguration cost accrued over completed slices.
    pub accrued_cost: Cost,
}

/// The driver's complete serving state at one bucket boundary — what a
/// boundary WAL record carries and recovery restores.
#[derive(Debug, Clone)]
pub struct ServingState {
    /// Buckets fully served (serving resumes at this bucket index).
    pub bucket: u64,
    /// Cumulative merged session statistics.
    pub stats: SessionStats,
    /// The database's logical clock.
    pub clock: u64,
    /// The applied configuration.
    pub config: ConfigSnapshot,
    /// KPI collector windows.
    pub kpi: KpiState,
    /// Workload history.
    pub history: WorkloadHistoryState,
    /// Plan-cache entries: `(example, executions, total_cost, first_seen,
    /// last_seen)` — templates and ranks are recomputed on restore.
    pub plan_cache: Vec<(Query, u64, Cost, LogicalTime, LogicalTime)>,
    /// Organizer: when the last tuning ran.
    pub organizer_last_tuning: Option<u64>,
    /// Organizer: whether tuning is paused (cooldown).
    pub organizer_paused: bool,
    /// Observed cost of the last closed bucket.
    pub last_bucket_cost: Cost,
    /// Actions still queued for barrier drains.
    pub pending_actions: Vec<ConfigAction>,
    /// In-flight deferred tuning, if any.
    pub pending_reconfig: Option<PendingReconfig>,
    /// Driver counters: buckets_closed, tunings_run, actions_applied,
    /// actions_deferred, apply_failures.
    pub counters: [u64; 5],
}

/// One WAL record body: its tag, then the payload. Logged from
/// borrowed live state, decoded owned.
// An entry lives for one append or one replay step, so the size of an
// owned boundary is not worth a box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WalEntry<'a> {
    /// The serving state after a bucket barrier.
    Boundary(Cow<'a, ServingState>),
    /// A newly stored configuration instance.
    InstanceStored(Cow<'a, StoredInstance>),
    /// The observed cost that completes the latest open instance.
    InstanceCompleted(Cost),
    /// A rollback to the last good configuration.
    Rollback(Cow<'a, RollbackRecord>),
}

/// A snapshot blob's payload: the format version, then these fields in
/// order. `take_snapshot` writes it from live state (tables decoded to
/// raw columns, the rest borrowed) and `recover` reads it back owned.
#[derive(Debug, Clone)]
pub struct SnapshotPayload<'a> {
    /// WAL records the snapshot covers; replay starts at this sequence.
    pub wal_records: u64,
    /// The serving state at the snapshot's boundary.
    pub serving: Cow<'a, ServingState>,
    /// Raw tables, in id order.
    pub tables: Vec<RawTable>,
    /// Stored configuration instances.
    pub instances: Cow<'a, [StoredInstance]>,
    /// Recorded rollbacks.
    pub rollbacks: Cow<'a, [RollbackRecord]>,
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

impl Wire for WalEntry<'_> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            WalEntry::Boundary(state) => {
                TAG_BOUNDARY.put(w);
                state.put(w);
            }
            WalEntry::InstanceStored(inst) => {
                TAG_INSTANCE_STORED.put(w);
                inst.put(w);
            }
            WalEntry::InstanceCompleted(after) => {
                TAG_INSTANCE_COMPLETED.put(w);
                after.put(w);
            }
            WalEntry::Rollback(rb) => {
                TAG_ROLLBACK.put(w);
                rb.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u8::get(r)? {
            TAG_BOUNDARY => WalEntry::Boundary(Wire::get(r)?),
            TAG_INSTANCE_STORED => WalEntry::InstanceStored(Wire::get(r)?),
            TAG_INSTANCE_COMPLETED => WalEntry::InstanceCompleted(Wire::get(r)?),
            TAG_ROLLBACK => WalEntry::Rollback(Wire::get(r)?),
            other => return Err(Error::invalid(format!("unknown WAL record tag {other}"))),
        })
    }
}

impl Wire for SnapshotPayload<'_> {
    fn put(&self, w: &mut ByteWriter) {
        SNAPSHOT_VERSION.put(w);
        self.wal_records.put(w);
        self.serving.put(w);
        self.tables.put(w);
        self.instances.put(w);
        self.rollbacks.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = u8::get(r)?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::invalid(format!(
                "unsupported snapshot version {version}"
            )));
        }
        Ok(SnapshotPayload {
            wal_records: Wire::get(r)?,
            serving: Wire::get(r)?,
            tables: Wire::get(r)?,
            instances: Wire::get(r)?,
            rollbacks: Wire::get(r)?,
        })
    }
}

/// A stored instance's `feature` is one byte: its position in this
/// list, so 0 means "no feature" (not a presence byte plus a tag).
const FEATURE_TAGS: [Option<FeatureKind>; 5] = [
    None,
    Some(FeatureKind::Indexing),
    Some(FeatureKind::Compression),
    Some(FeatureKind::Placement),
    Some(FeatureKind::BufferPool),
];

impl Wire for StoredInstance {
    fn put(&self, w: &mut ByteWriter) {
        self.applied_at.put(w);
        tag_of(&FEATURE_TAGS, &self.feature).put(w);
        self.config.put(w);
        self.actions.put(w);
        self.predicted_cost.put(w);
        self.reconfiguration_cost.put(w);
        self.observed_before.put(w);
        self.observed_after.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(StoredInstance {
            applied_at: Wire::get(r)?,
            feature: of_tag(&FEATURE_TAGS, u8::get(r)?, "feature")?,
            config: Wire::get(r)?,
            actions: Wire::get(r)?,
            predicted_cost: Wire::get(r)?,
            reconfiguration_cost: Wire::get(r)?,
            observed_before: Wire::get(r)?,
            observed_after: Wire::get(r)?,
        })
    }
}

wire_struct!(RollbackRecord: at, abandoned_actions, restored_config, cause);

wire_struct!(KpiState: closed, utilization, memory, bucket_queries, queries_total,
    utilization_stale);

wire_struct!(PendingReconfig: final_config, actions, predicted_cost, observed_before, accrued_cost);

wire_struct!(ServingState: bucket, stats, clock, config, kpi, history, plan_cache,
    organizer_last_tuning, organizer_paused, last_bucket_cost, pending_actions,
    pending_reconfig, counters);

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ChunkColumnRef, ColumnId, LogicalTime, TableId};
    use smdb_durable::MemPersistence;
    use smdb_forecast::TemplateHistory;
    use smdb_storage::{Aggregate, AggregateOp, PredicateOp, ScanPredicate, Value};

    fn sample_query() -> Query {
        Query::new(
            TableId(0),
            "events",
            vec![
                ScanPredicate {
                    column: ColumnId(0),
                    op: PredicateOp::Between,
                    value: Value::Int(4),
                    upper: Some(Value::Int(9)),
                },
                ScanPredicate {
                    column: ColumnId(2),
                    op: PredicateOp::Eq,
                    value: Value::Text("eu".into()),
                    upper: None,
                },
            ],
            Some(Aggregate {
                op: AggregateOp::Sum,
                column: ColumnId(1),
            }),
            "range",
        )
        .with_group_by(ColumnId(2))
    }

    fn sample_instance() -> StoredInstance {
        let mut config = ConfigInstance::default();
        config
            .indexes
            .insert(ChunkColumnRef::new(0, 0, 1), smdb_storage::IndexKind::Hash);
        config.knobs.buffer_pool_mb = 128.0;
        StoredInstance {
            applied_at: LogicalTime(7),
            feature: Some(FeatureKind::Indexing),
            config,
            actions: vec![ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(0, 0, 1),
                kind: smdb_storage::IndexKind::Hash,
            }],
            predicted_cost: Cost(10.5),
            reconfiguration_cost: Cost(2.25),
            observed_before: Cost(20.0),
            observed_after: None,
        }
    }

    fn sample_state() -> ServingState {
        ServingState {
            bucket: 9,
            stats: SessionStats {
                session_id: 0,
                queries: 512,
                errors: 0,
                wrong_results: 0,
                busy: Cost(123.5),
                morsels: 7,
                result_digest: 0xDEAD_BEEF_CAFE_F00D,
            },
            clock: 9,
            config: ConfigSnapshot::from(&ConfigInstance::default()),
            kpi: KpiState {
                closed: vec![vec![1.0, 2.0], vec![0.5]],
                utilization: vec![0.4, 0.1],
                memory: vec![4096],
                bucket_queries: vec![300, 212],
                queries_total: 512,
                utilization_stale: false,
            },
            history: WorkloadHistoryState {
                templates: vec![(
                    42,
                    TemplateHistory {
                        example: sample_query(),
                        buckets: [(3, 5.0), (4, 2.0)].into_iter().collect(),
                        mean_cost: Cost(1.5),
                        total: 7.0,
                    },
                )],
                last_totals: vec![(42, 7, Cost(10.5))],
                span: Some((3, 5)),
            },
            plan_cache: vec![(
                sample_query(),
                7,
                Cost(10.5),
                LogicalTime(3),
                LogicalTime(4),
            )],
            organizer_last_tuning: Some(6),
            organizer_paused: true,
            last_bucket_cost: Cost(55.0),
            pending_actions: vec![ConfigAction::SetKnob {
                knob: smdb_storage::KnobKind::BufferPoolMb,
                value: 96.0,
            }],
            pending_reconfig: Some(PendingReconfig {
                final_config: ConfigInstance::default(),
                actions: vec![],
                predicted_cost: Cost(9.0),
                observed_before: Cost(11.0),
                accrued_cost: Cost(0.5),
            }),
            counters: [9, 2, 5, 3, 1],
        }
    }

    #[test]
    fn serving_state_roundtrips_byte_identically() {
        let state = sample_state();
        let bytes = state.to_bytes();
        let back = ServingState::get(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.stats.result_digest, state.stats.result_digest);
        assert_eq!(back.plan_cache.len(), 1);
        assert_eq!(
            back.plan_cache[0].0.instance_fingerprint(),
            state.plan_cache[0].0.instance_fingerprint(),
            "recomputed fingerprints must match"
        );
        assert_eq!(back.counters, state.counters);
    }

    #[test]
    fn feature_is_one_byte_with_zero_for_none() {
        let mut inst = sample_instance();
        for (tag, feature) in FEATURE_TAGS.into_iter().enumerate() {
            inst.feature = feature;
            let bytes = inst.to_bytes();
            assert_eq!(bytes[8], tag as u8);
            let back = StoredInstance::get(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(back.feature, feature);
        }
        let mut bytes = inst.to_bytes();
        bytes[8] = 5;
        assert!(StoredInstance::get(&mut ByteReader::new(&bytes)).is_err());
        assert_eq!(FEATURE_TAGS[1..].len(), FeatureKind::ALL.len());
    }

    #[test]
    fn manager_logs_and_recovers_boundary_tail() {
        let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
        let config = DurabilityConfig::default();
        let manager = DurabilityManager::new(Arc::clone(&p), config.clone());
        let engine = StorageEngine::default();
        let mut state = sample_state();
        state.bucket = 0;
        manager.take_snapshot(&state, &engine, &[], &[]).unwrap();
        let inst = sample_instance();
        manager.log_instance_stored(&inst).unwrap();
        manager.log_instance_completed(Cost(12.5)).unwrap();
        state.bucket = 1;
        manager.log_boundary(&state).unwrap();
        let rb = RollbackRecord {
            at: LogicalTime(2),
            abandoned_actions: vec![],
            restored_config: ConfigInstance::default(),
            cause: "test".into(),
        };
        manager.log_rollback(&rb).unwrap();

        let rec = recover(p.as_ref(), &config).unwrap().expect("recoverable");
        assert_eq!(rec.serving.bucket, 1);
        assert_eq!(rec.replayed_records, 4);
        assert_eq!(rec.dropped_records, 0);
        assert_eq!(rec.instances.len(), 1);
        assert_eq!(rec.instances[0].observed_after, Some(Cost(12.5)));
        assert_eq!(rec.rollbacks.len(), 1);
        assert_eq!(rec.rollbacks[0].cause, "test");
        // Instance round-trips byte-identically.
        let mut expected = sample_instance();
        expected.observed_after = Some(Cost(12.5));
        assert_eq!(rec.instances[0].to_bytes(), expected.to_bytes());
    }

    #[test]
    fn recover_truncates_corrupt_wal_tail() {
        let mem = Arc::new(MemPersistence::new());
        let p: Arc<dyn Persistence> = mem.clone();
        let config = DurabilityConfig::default();
        let manager = DurabilityManager::new(Arc::clone(&p), config.clone());
        let engine = StorageEngine::default();
        let mut state = sample_state();
        state.bucket = 0;
        manager.take_snapshot(&state, &engine, &[], &[]).unwrap();
        state.bucket = 1;
        manager.log_boundary(&state).unwrap();
        state.bucket = 2;
        manager.log_boundary(&state).unwrap();
        // Tear the last record.
        mem.mutate(WAL_NAME, |b| {
            let cut = b.len() - 7;
            b.truncate(cut);
        })
        .unwrap();
        let rec = recover(p.as_ref(), &config).unwrap().expect("recoverable");
        assert_eq!(rec.serving.bucket, 1, "degraded to the last valid prefix");
        assert_eq!(rec.dropped_records, 1);
        assert_eq!(rec.wal_records, 1);
        // The corrupt tail was truncated: a resumed manager's appends
        // extend the valid prefix.
        let resumed = DurabilityManager::with_next_seq(Arc::clone(&p), config.clone(), 1);
        state.bucket = 2;
        resumed.log_boundary(&state).unwrap();
        let rec = recover(p.as_ref(), &config).unwrap().expect("recoverable");
        assert_eq!(rec.serving.bucket, 2);
        assert_eq!(rec.dropped_records, 0);
    }

    #[test]
    fn no_snapshot_means_nothing_to_recover() {
        let p = MemPersistence::new();
        assert!(recover(&p, &DurabilityConfig::default()).unwrap().is_none());
    }

    #[test]
    fn stats_track_write_amplification() {
        let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
        let manager = DurabilityManager::new(Arc::clone(&p), DurabilityConfig::default());
        let engine = StorageEngine::default();
        let state = sample_state();
        manager.log_boundary(&state).unwrap();
        let wal_only = manager.stats();
        assert_eq!(wal_only.wal_records, 1);
        assert!((wal_only.write_amplification - 1.0).abs() < 1e-12);
        manager.take_snapshot(&state, &engine, &[], &[]).unwrap();
        let with_snap = manager.stats();
        assert_eq!(with_snap.snapshots_taken, 1);
        assert!(with_snap.write_amplification > 1.0);
    }

    #[test]
    fn malformed_table_fails_the_snapshot_before_writing() {
        use smdb_storage::chunk::Chunk;
        use smdb_storage::value::ColumnValues;
        use smdb_storage::{ColumnDef, DataType, Schema};
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ])
        .unwrap();
        let columns = vec![
            ColumnValues::Int((0..8).collect()),
            ColumnValues::Float((0..8).map(f64::from).collect()),
        ];
        let missing = vec![ColumnValues::Int(vec![4, 5, 6, 7])];
        let mistyped = vec![
            ColumnValues::Float(vec![4.0]),
            ColumnValues::Float(vec![4.0]),
        ];
        for bad_chunk in [missing, mistyped] {
            let mut table = Table::from_columns("t", schema.clone(), columns.clone(), 4).unwrap();
            *table.chunk_mut(smdb_common::ChunkId(1)).unwrap() =
                Chunk::from_columns(bad_chunk).unwrap();
            let mut engine = StorageEngine::default();
            engine.create_table(table).unwrap();
            let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
            let manager = DurabilityManager::new(Arc::clone(&p), DurabilityConfig::default());
            assert!(manager
                .take_snapshot(&sample_state(), &engine, &[], &[])
                .is_err());
            assert_eq!(manager.stats().snapshots_taken, 0);
            assert!(recover(p.as_ref(), &DurabilityConfig::default())
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn cadence_gates_snapshots() {
        let manager = DurabilityManager::new(
            Arc::new(MemPersistence::new()),
            DurabilityConfig {
                snapshot_every_buckets: 4,
            },
        );
        assert!(!manager.should_snapshot(0));
        assert!(!manager.should_snapshot(3));
        assert!(manager.should_snapshot(4));
        assert!(manager.should_snapshot(8));
        let off = DurabilityManager::new(
            Arc::new(MemPersistence::new()),
            DurabilityConfig {
                snapshot_every_buckets: 0,
            },
        );
        assert!(!off.should_snapshot(4));
    }
}
