//! The online serving runtime.
//!
//! [`Runtime::run`] serves a pre-generated [`BucketPlan`] stream with a
//! pool of reader threads while a background tuning thread drives the
//! self-management loop:
//!
//! * **workers** partition each bucket's queries round-robin and serve
//!   them through [`Session`]s that verify every answer against a
//!   [`ResultOracle`] — reconfiguration must never change results;
//! * the **control thread** closes a KPI bucket after each served
//!   bucket, applies any actions the tuning thread queued (a budgeted
//!   drain at the bucket *barrier*, never mid-bucket), and hands the
//!   tuning thread a [`TuningTick`] — a consistent snapshot of the
//!   boundary's KPIs;
//! * the **tuning thread** only *decides*, concurrently with the next
//!   bucket's serving: it evaluates the organizer against the tick and
//!   queues chosen actions for the control thread's next barrier. The
//!   control thread waits for the previous tick's acknowledgement
//!   before closing the next bucket, so a decision never overlaps the
//!   history/KPI mutation it reads from;
//! * **failures** (e.g. injected by [`FaultInjectingExecutor`]) roll the
//!   engine back to the last good stored configuration instance and
//!   pause tuning for a cooldown — serving never stops.
//!
//! The workload is pre-generated from a seed, the per-query answer
//! digest is order-independent, and every tuning decision reads a
//! bucket-boundary snapshot, so the served results — and the driver's
//! flight-recorder decision trail — are identical regardless of worker
//! count and scheduling.

use std::iter::{Skip, StepBy};
use std::slice;
use std::sync::mpsc;
use std::sync::Arc;

use smdb_common::{Cost, Error, Result};
use smdb_core::{
    ConstraintSet, DrainTally, Driver, DurabilityManager, DurabilityStats, TuningState, TuningTick,
};
use smdb_obs::metrics::quantile_rank;
use smdb_obs::span;
use smdb_query::{Database, Query, ResultOracle, Session, SessionStats};

use crate::fault::{FaultInjectingExecutor, FaultPlan};
use crate::stream::{BucketPlan, Phase};

/// Serving and tuning parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Reader threads serving each bucket.
    pub workers: usize,
    /// KPI bucket capacity (ms of query work at 100 % utilization).
    pub bucket_capacity: Cost,
    /// Maximum actions applied per low-utilization drain slice.
    pub slice_budget: usize,
    /// Maximum idle buckets the post-workload drain may take.
    pub drain_ticks: usize,
    /// Injected apply failures (attempt-indexed).
    pub fault_plan: FaultPlan,
    /// Optional tail-latency SLA handed to the organizer.
    pub sla_p95: Option<Cost>,
    /// Scan-pool threads for morsel-driven parallel scans. `1` (the
    /// default) serves every scan inline; `> 1` installs a shared
    /// [`smdb_storage::ScanPool`] on the database and workers submit
    /// morsels instead of whole queries. Results and the soak digest are
    /// bit-identical either way — only the simulated latency model (and
    /// on multicore hosts, wall clock) changes.
    pub scan_threads: usize,
    /// Chunks per morsel when `scan_threads > 1` (0 = whole table).
    pub morsel_chunks: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            bucket_capacity: Cost(2_000.0),
            slice_budget: 4,
            drain_ticks: 64,
            fault_plan: FaultPlan::none(),
            sla_p95: None,
            scan_threads: 1,
            morsel_chunks: smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS,
        }
    }
}

/// Buckets tuning stays paused after a failed reconfiguration.
const COOLDOWN_BUCKETS: u64 = 2;

/// What the tuning thread did over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TunerReport {
    /// Ticks processed (one per closed bucket).
    pub ticks: u64,
    /// Tuning passes the organizer triggered.
    pub tunings: u64,
    /// Actions applied via slice-budgeted drains.
    pub drained: u64,
    /// Apply failures handled by rolling back.
    pub failures_handled: u64,
}

/// Outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Merged serving statistics (queries, errors, wrong results, the
    /// order-independent result digest).
    pub stats: SessionStats,
    /// Buckets served from the plan.
    pub buckets_served: usize,
    /// Final snapshot of the driver's tuning machinery.
    pub tuning: TuningState,
    /// What the tuning thread did.
    pub tuner: TunerReport,
    /// Actual apply attempts (fault-injection counter).
    pub apply_attempts: usize,
    /// Failures the fault plan injected.
    pub injected_failures: usize,
    /// Mean response over the first heavy bucket (untuned).
    pub cold_mean: Cost,
    /// p95 response over the first heavy bucket (untuned).
    pub cold_p95: Cost,
    /// Mean response over the last heavy bucket (tuned).
    pub tuned_mean: Cost,
    /// p95 response over the last heavy bucket (tuned).
    pub tuned_p95: Cost,
    /// Durability write KPIs (WAL records/bytes, snapshots, write
    /// amplification); `None` for in-memory runs.
    pub durability: Option<DurabilityStats>,
}

/// Where a kill-and-recover run hard-stops: after serving the first
/// `after_queries` queries of bucket `bucket`, before the bucket closes
/// or any boundary is logged — a crash mid-bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Plan index of the bucket to die in.
    pub bucket: usize,
    /// Queries of that bucket served before the stop.
    pub after_queries: usize,
}

/// How a run enters the serving loop: fresh from bucket 0, or resumed
/// from a recovered boundary.
#[derive(Debug, Clone, Default)]
struct RunControl {
    /// First plan index to serve.
    start_bucket: usize,
    /// Cumulative stats carried over from the recovered boundary.
    initial_stats: SessionStats,
    /// Re-send the restored boundary's tick before serving: the
    /// decision that was in flight when the run died is re-made from the
    /// identical restored state, so the resumed run's tuning sequence
    /// matches the uninterrupted one.
    resume_tick: bool,
    /// Hard-stop point (kill-and-recover soak).
    kill: Option<KillSpec>,
}

/// The serving runtime: a database, its driver, and the fault-injecting
/// executor handle.
pub struct Runtime {
    db: Arc<Database>,
    driver: Arc<Driver>,
    executor: FaultInjectingExecutor,
    config: RuntimeConfig,
}

impl Runtime {
    /// Wires a driver (the builder's indexing + compression tuners and
    /// organizer, a low-utilization-gated fault-injecting executor)
    /// around `db`.
    pub fn new(db: Arc<Database>, config: RuntimeConfig) -> Runtime {
        Self::build(db, config, None)
    }

    /// Like [`Runtime::new`], but the driver persists its state through
    /// `durability` (WAL + snapshots) so a killed run can recover.
    pub fn new_durable(
        db: Arc<Database>,
        config: RuntimeConfig,
        durability: Arc<DurabilityManager>,
    ) -> Runtime {
        Self::build(db, config, Some(durability))
    }

    fn build(
        db: Arc<Database>,
        config: RuntimeConfig,
        durability: Option<Arc<DurabilityManager>>,
    ) -> Runtime {
        let executor = FaultInjectingExecutor::during_low_utilization(config.fault_plan.clone());
        let mut builder = Driver::builder(db.clone())
            .executor(Box::new(executor.clone()))
            .constraints(ConstraintSet {
                sla_p95_response: config.sla_p95,
                ..ConstraintSet::none()
            })
            .kpi_bucket_capacity(config.bucket_capacity);
        if let Some(d) = durability {
            builder = builder.durability(d);
        }
        let driver = Arc::new(builder.build());
        install_scan_pool(&db, config.scan_threads, config.morsel_chunks);
        Runtime {
            db,
            driver,
            executor,
            config,
        }
    }

    /// The database being served.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The self-management driver.
    pub fn driver(&self) -> &Arc<Driver> {
        &self.driver
    }

    /// Serves the whole plan. Returns the merged statistics, the final
    /// tuning state and cold-vs-tuned latency figures.
    pub fn run(&self, plan: &[BucketPlan]) -> Result<SoakOutcome> {
        self.run_range(plan, RunControl::default())?
            .ok_or_else(|| Error::invalid("run without a kill spec cannot be killed"))
    }

    /// Serves the plan until the kill point, then hard-stops: the bucket
    /// is left unclosed, no boundary is logged, and nothing is flushed —
    /// exactly the state a crash mid-bucket leaves behind. The runtime
    /// (and its driver) must be discarded afterwards; recovery builds a
    /// fresh one from the durable store.
    pub fn run_killed(&self, plan: &[BucketPlan], kill: KillSpec) -> Result<()> {
        if kill.bucket >= plan.len() {
            return Err(Error::invalid("kill bucket beyond the plan"));
        }
        match self.run_range(
            plan,
            RunControl {
                kill: Some(kill),
                ..RunControl::default()
            },
        )? {
            None => Ok(()),
            Some(_) => Err(Error::invalid("kill point was never reached")),
        }
    }

    /// Resumes serving at `start_bucket` with the recovered cumulative
    /// `stats` — the driver must already hold the restored state (see
    /// [`crate::recover`]). Re-sends the restored boundary's tick first,
    /// so the tuning decision that was in flight at the crash is re-made
    /// from the identical state.
    pub fn run_resumed(
        &self,
        plan: &[BucketPlan],
        start_bucket: u64,
        stats: SessionStats,
    ) -> Result<SoakOutcome> {
        self.run_range(
            plan,
            RunControl {
                start_bucket: start_bucket as usize,
                initial_stats: stats,
                resume_tick: true,
                kill: None,
            },
        )?
        .ok_or_else(|| Error::invalid("resumed run cannot be killed"))
    }

    /// The serving loop. Returns `None` when the run died at its kill
    /// point, `Some(outcome)` when the plan completed.
    fn run_range(&self, plan: &[BucketPlan], control: RunControl) -> Result<Option<SoakOutcome>> {
        let oracle = Arc::new(ResultOracle::capture(
            &self.db,
            plan.iter().flat_map(|b| b.queries.iter()),
        )?);

        let mut total = control.initial_stats.clone();
        let mut bucket_latencies: Vec<(Phase, Vec<f64>)> = Vec::with_capacity(plan.len());
        let mut buckets_served = 0usize;
        let mut drains = DrainTally::default();
        let mut killed = false;

        // A fresh durable run starts with a full snapshot (version 0), so
        // recovery has a base whatever the crash point. A resumed run
        // already has one.
        if let Some(d) = self.driver.durability() {
            if control.start_bucket == 0 && d.wal_records() == 0 {
                self.driver.persist_snapshot(0, &total)?;
            }
        }

        let mut tuner_report = std::thread::scope(|scope| -> Result<TunerReport> {
            // Capacity 1: the control thread may serve at most one bucket
            // while the tuning thread still decides on the previous tick.
            let (tick_tx, tick_rx) = mpsc::sync_channel::<Option<TuningTick>>(1);
            let (ack_tx, ack_rx) = mpsc::channel::<()>();
            let tuner = scope.spawn(move || tuner_loop(&self.driver, &tick_rx, &ack_tx));
            let mut in_flight = false;
            if control.resume_tick && control.start_bucket > 0 {
                // The boundary record is written from exactly the state
                // its tick is built from, so this tick equals the one the
                // dying run had in flight.
                if tick_tx.send(Some(self.driver.tick())).is_ok() {
                    in_flight = true;
                }
            }
            for (idx, bucket) in plan.iter().enumerate().skip(control.start_bucket) {
                let _span = span!("runtime", "bucket", { queries: bucket.queries.len() });
                if let Some(kill) = control.kill.filter(|k| k.bucket == idx) {
                    // Crash mid-bucket: serve a prefix, then stop dead —
                    // no ack, no close, no boundary record.
                    let n = kill.after_queries.min(bucket.queries.len());
                    let _ = self.serve_bucket(&bucket.queries[..n], &oracle)?;
                    killed = true;
                    break;
                }
                let (stats, latencies) = self.serve_bucket(&bucket.queries, &oracle)?;
                total.merge(&stats);
                bucket_latencies.push((bucket.phase, latencies));
                buckets_served += 1;
                // Rendezvous: the decision on the previous tick must be in
                // (queued actions and all) before this bucket closes — a
                // decision never overlaps the history mutation it read.
                if in_flight {
                    if ack_rx.recv().is_err() {
                        // The tuning thread exited early (it hit an
                        // error); stop serving and surface it via join.
                        break;
                    }
                    in_flight = false;
                }
                self.driver.close_bucket();
                // Barrier: apply whatever the tuning thread queued, in
                // budgeted slices, strictly between buckets.
                drains += self.driver.drain_or_rollback(self.config.slice_budget)?;
                // Boundary record first, tick second, both from the same
                // settled state: recovery restores the boundary and
                // re-sends the identical tick.
                self.driver.persist_boundary((idx + 1) as u64, &total)?;
                // The drain may have reset the KPI window — build the tick
                // the tuning thread sees only now.
                if tick_tx.send(Some(self.driver.tick())).is_err() {
                    break;
                }
                in_flight = true;
            }
            if in_flight {
                let _ = ack_rx.recv();
            }
            let _ = tick_tx.send(None);
            tuner
                .join()
                .map_err(|_| Error::invalid("tuning thread panicked"))?
        })?;
        if killed {
            return Ok(None);
        }

        // Post-workload cooldown: idle buckets drain whatever is still
        // queued so the run ends with a settled configuration.
        drains += self
            .driver
            .settle(self.config.slice_budget, self.config.drain_ticks)?;
        tuner_report.drained = drains.applied;
        tuner_report.failures_handled = drains.rollbacks;

        let (cold_mean, cold_p95) = heavy_metrics(&bucket_latencies, true);
        let (tuned_mean, tuned_p95) = heavy_metrics(&bucket_latencies, false);
        Ok(Some(SoakOutcome {
            stats: total,
            buckets_served,
            tuning: self.driver.tuning_state(),
            tuner: tuner_report,
            apply_attempts: self.executor.attempts(),
            injected_failures: self.executor.injected_failures(),
            cold_mean,
            cold_p95,
            tuned_mean,
            tuned_p95,
            durability: self.driver.durability().map(|d| d.stats()),
        }))
    }

    /// Serves one bucket with the worker pool: each worker verifies its
    /// round-robin share against the oracle and feeds the driver's KPI
    /// window.
    fn serve_bucket(
        &self,
        queries: &[Query],
        oracle: &Arc<ResultOracle>,
    ) -> Result<(SessionStats, Vec<f64>)> {
        let outputs = round_robin(queries, self.config.workers, |w, share| {
            let _span = span!("runtime", "worker", { worker: w });
            let mut session =
                Session::with_oracle(Arc::clone(&self.db), w as u64, Arc::clone(oracle));
            let mut lats = Vec::new();
            for q in share {
                // Engine errors are counted in the session stats;
                // serving continues.
                if let Ok(r) = session.run(q) {
                    // KPIs see the (possibly parallel) simulated latency;
                    // sim_cost stays the work the cost model is
                    // calibrated on.
                    self.driver
                        .record_scan(r.output.sim_latency, r.output.morsels);
                    lats.push(r.output.sim_latency.ms());
                }
            }
            (session.into_stats(), lats)
        })?;
        let mut merged = SessionStats::default();
        let mut latencies = Vec::with_capacity(queries.len());
        for (stats, lats) in outputs {
            merged.merge(&stats);
            latencies.extend(lats);
        }
        Ok((merged, latencies))
    }
}

/// Installs a `threads`-thread scan pool on `db` with `morsel_chunks`
/// chunks per morsel; `threads <= 1` serves every scan inline.
pub(crate) fn install_scan_pool(db: &Database, threads: usize, morsel_chunks: usize) {
    let pool = (threads > 1).then(|| smdb_storage::ScanPool::new(threads));
    db.set_scan_pool(pool, morsel_chunks);
}

/// Serves `items` on `min(workers, available_parallelism)` scoped
/// threads, round-robin: worker `w` takes items `w`, `w + W`, `w + 2W`, …
/// through `serve(w, share)`. Returns the outputs in worker order; a
/// worker panic becomes an [`Error`]. Both serving runtimes partition
/// their buckets here and nowhere else.
pub(crate) fn round_robin<'a, T: Sync, R: Send>(
    items: &'a [T],
    workers: usize,
    serve: impl Fn(usize, StepBy<Skip<slice::Iter<'a, T>>>) -> R + Sync,
) -> Result<Vec<R>> {
    // Physical worker threads are capped at the host's parallelism:
    // extra workers on an oversubscribed host only add spawn and
    // context-switch overhead. Every statistic the runtimes derive is
    // partition-independent (the digest by construction, latency
    // aggregates as multisets), so the clamp cannot change any
    // deterministic output — `digest_is_worker_count_invariant` below is
    // the witness.
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let workers = workers.max(1).min(host);
    let serve = &serve;
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || serve(w, items.iter().skip(w).step_by(workers))))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|r| r.map_err(|_| Error::invalid("worker thread panicked")))
        .collect()
}

/// The tuning thread: one *decision* per closed bucket. It never touches
/// the engine — chosen actions are queued for the control thread's next
/// barrier drain — so faults and rollbacks happen at deterministic
/// points regardless of how this thread is scheduled.
fn tuner_loop(
    driver: &Driver,
    ticks: &mpsc::Receiver<Option<TuningTick>>,
    acks: &mpsc::Sender<()>,
) -> Result<TunerReport> {
    let mut report = TunerReport::default();
    let mut cooldown: Option<u64> = None;
    while let Ok(Some(tick)) = ticks.recv() {
        let _span = span!("runtime", "tuning_tick");
        report.ticks += 1;
        if driver.organizer().is_paused() {
            // Degraded mode after a rollback: serve-only until the
            // cooldown elapses.
            let left = cooldown.get_or_insert(COOLDOWN_BUCKETS);
            *left = left.saturating_sub(1);
            if *left == 0 {
                driver.organizer().resume();
                cooldown = None;
            }
        } else {
            cooldown = None;
            // Decide only: a triggered tuning queues its actions. On an
            // analysis error the loop exits — the dropped ack channel
            // stops the control loop, and join surfaces the error.
            if driver.maybe_tune_deferred(&tick)?.is_some() {
                report.tunings += 1;
            }
        }
        if acks.send(()).is_err() {
            break;
        }
    }
    Ok(report)
}

/// Mean and p95 over the first (`first = true`) or last heavy bucket.
fn heavy_metrics(buckets: &[(Phase, Vec<f64>)], first: bool) -> (Cost, Cost) {
    let mut iter = buckets.iter().filter(|(p, _)| *p == Phase::Heavy);
    let found = if first { iter.next() } else { iter.next_back() };
    let Some((_, lats)) = found else {
        return (Cost::ZERO, Cost::ZERO);
    };
    if lats.is_empty() {
        return (Cost::ZERO, Cost::ZERO);
    }
    let mean = lats.iter().sum::<f64>() / lats.len() as f64;
    let mut sorted = lats.clone();
    sorted.sort_by(f64::total_cmp);
    let p95 = sorted[quantile_rank(sorted.len() as u64, 0.95) as usize - 1];
    (Cost(mean), Cost(p95))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{events_database, generate, StreamConfig};

    fn small_plan() -> (Arc<Database>, Vec<BucketPlan>) {
        let (db, table) = events_database(6, 500).expect("fixture builds");
        let config = StreamConfig {
            buckets: 10,
            heavy_queries: 60,
            light_queries: 8,
            heavy_len: 3,
            light_len: 2,
            ..StreamConfig::default()
        };
        (db, generate(table, 3_000, &config))
    }

    #[test]
    fn soak_serves_everything_correctly_and_tunes() {
        let (db, plan) = small_plan();
        let runtime = Runtime::new(
            db,
            RuntimeConfig {
                workers: 3,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        );
        let outcome = runtime.run(&plan).expect("soak runs");
        let planned: usize = plan.iter().map(|b| b.queries.len()).sum();
        assert_eq!(outcome.stats.queries as usize, planned);
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.stats.wrong_results, 0);
        assert_eq!(outcome.buckets_served, plan.len());
        assert!(outcome.tuning.actions_applied > 0, "{:?}", outcome.tuning);
        assert_eq!(outcome.tuning.pending_actions, 0, "drained at the end");
        assert!(outcome.cold_mean.ms() > 0.0);
        assert!(
            outcome.tuned_mean.ms() < outcome.cold_mean.ms(),
            "tuning should speed up the heavy phase: cold {} tuned {}",
            outcome.cold_mean,
            outcome.tuned_mean
        );
    }

    #[test]
    fn digest_is_worker_count_invariant() {
        let (db_a, plan) = small_plan();
        let (db_b, _) = small_plan();
        let a = Runtime::new(
            db_a,
            RuntimeConfig {
                workers: 1,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("runs");
        let b = Runtime::new(
            db_b,
            RuntimeConfig {
                workers: 4,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("runs");
        assert_eq!(a.stats.queries, b.stats.queries);
        assert_eq!(a.stats.result_digest, b.stats.result_digest);
        assert_eq!(a.stats.wrong_results + b.stats.wrong_results, 0);
    }

    #[test]
    fn digest_is_scan_thread_invariant() {
        // Morsel-parallel scans change the latency model, never the
        // results: same digest, zero wrong answers, and the parallel run
        // actually dispatched morsels.
        let (db_seq, plan) = small_plan();
        let seq = Runtime::new(
            db_seq,
            RuntimeConfig {
                workers: 2,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("runs");
        for (scan_threads, morsel_chunks) in [(2, 1), (4, 2)] {
            let (db_par, _) = small_plan();
            let par = Runtime::new(
                db_par,
                RuntimeConfig {
                    workers: 2,
                    bucket_capacity: Cost(500.0),
                    scan_threads,
                    morsel_chunks,
                    ..RuntimeConfig::default()
                },
            )
            .run(&plan)
            .expect("runs");
            assert_eq!(par.stats.result_digest, seq.stats.result_digest);
            assert_eq!(par.stats.queries, seq.stats.queries);
            assert_eq!(par.stats.wrong_results, 0);
            assert_eq!(seq.stats.morsels, 0);
            assert!(par.stats.morsels > 0, "parallel run dispatched morsels");
        }
    }

    #[test]
    fn injected_failures_roll_back_and_serving_survives() {
        let (db, plan) = small_plan();
        let runtime = Runtime::new(
            db,
            RuntimeConfig {
                workers: 2,
                bucket_capacity: Cost(500.0),
                fault_plan: FaultPlan::failing_attempts([0]),
                ..RuntimeConfig::default()
            },
        );
        let outcome = runtime.run(&plan).expect("soak survives the fault");
        assert_eq!(outcome.stats.wrong_results, 0);
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.injected_failures, 1);
        assert_eq!(outcome.tuning.rollbacks, 1);
        assert!(outcome.tuner.failures_handled >= 1);
        assert_eq!(outcome.tuning.pending_actions, 0);
    }
}
