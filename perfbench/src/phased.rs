//! `phased` and `crash_recover`: single-engine serving of the soak's
//! events table and heavy/light phased stream through `Runtime`.
//!
//! `phased` serves in memory. `crash_recover` serves the same fixture
//! and stream durably (a directory store that fsyncs every WAL append
//! and snapshot, a snapshot every 8 buckets), then kills runs at seeded
//! points, recovers them and checks each resumed digest against the
//! uninterrupted reference run.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use smdb_common::{derive_seed, Cost, Error, Result};
use smdb_core::{DurabilityConfig, DurabilityManager, TuningTick};
use smdb_durable::{DirPersistence, Persistence};
use smdb_query::{result_hash, Database, Query, ResultOracle, SessionStats};
use smdb_runtime::{
    events_database, generate, recover_runtime, BucketPlan, KillSpec, Runtime, RuntimeConfig,
    StreamConfig,
};
use smdb_storage::{ConfigInstance, ScanPool, StorageEngine};

use crate::common::{
    check_serving, decide_loop, end_to_end_sheet, nproc, probe, push_decisions, push_probe,
    repeat_rounds, seeded_sample, timed, timed_setup, Args, Checks, Rounds, Sheet,
};
use crate::layers::{serving_control_metrics, set_chunk_shares, set_trace_health, write_spans};
use crate::stats::{median, quantile, share};
use crate::trace::{Lane, Trace};

const CHUNKS: usize = 24;
const CHUNK_ROWS: usize = 1_000;
/// Buckets served in memory: about 85k queries, well over 1 s.
const PHASED_BUCKETS: usize = 800;
/// Buckets served durably. Snapshots are kept, so the store grows with
/// the run; 200 buckets keep it near 25 snapshots.
const DURABLE_BUCKETS: usize = 200;
const SNAPSHOT_EVERY: u64 = 8;
const PROBE_QUERIES: usize = 1_000;
const PROBE_PASSES: usize = 2;
/// Fixtures each probe runs on per round: the served one plus fresh
/// copies with the same configuration (see `FIXTURE_MEANS`).
const PROBE_FIXTURES: usize = 6;
/// Decisions made after serving, one per replayed plan bucket.
const DECISIONS: usize = 24;
/// Rounds that end with a kill-and-recover cycle (each as long as one
/// more durable run); later rounds only serve, for more samples.
const RECOVERY_ROUNDS: usize = 2;
/// Recoveries timed per killed store (the store is only read).
const RECOVERIES_PER_KILL: usize = 5;

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: nproc(),
        bucket_capacity: Cost(800.0),
        slice_budget: 6,
        sla_p95: Some(Cost(1.0)),
        scan_threads: 1,
        ..RuntimeConfig::default()
    }
}

fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every_buckets: SNAPSHOT_EVERY,
    }
}

/// Seeded inputs shared by every round of a run.
struct Inputs {
    plan: Vec<BucketPlan>,
    probe: Vec<Query>,
    decide_buckets: Vec<Vec<Query>>,
    oracle: Arc<ResultOracle>,
    /// Raw bytes of the table data (rows × columns × 8).
    raw_bytes: f64,
}

fn inputs(seed: u64, durable: bool) -> Result<Inputs> {
    let (db, table) = events_database(CHUNKS, CHUNK_ROWS)?;
    let stream = StreamConfig {
        seed,
        buckets: if durable {
            DURABLE_BUCKETS
        } else {
            PHASED_BUCKETS
        },
        ..StreamConfig::default()
    };
    let plan = generate(table, (CHUNKS * CHUNK_ROWS) as i64, &stream);
    let all: Vec<Query> = plan.iter().flat_map(|b| b.queries.clone()).collect();
    let probe = seeded_sample(&all, PROBE_QUERIES, derive_seed(seed, 1));
    let bucket_queries: Vec<Vec<Query>> = plan.iter().map(|b| b.queries.clone()).collect();
    let decide_buckets = seeded_sample(&bucket_queries, DECISIONS, derive_seed(seed, 2));
    let oracle = Arc::new(ResultOracle::capture(
        &db,
        probe.iter().chain(decide_buckets.iter().flatten()),
    )?);
    let raw_bytes = db.engine().memory_report().data_bytes as f64;
    Ok(Inputs {
        plan,
        probe,
        decide_buckets,
        oracle,
        raw_bytes,
    })
}

fn store_dir(args: &Args, tag: &str) -> PathBuf {
    args.out.join(format!("store-{}-{tag}", args.workload))
}

fn open_store(dir: &Path) -> Result<Arc<dyn Persistence>> {
    let _ = std::fs::remove_dir_all(dir);
    Ok(Arc::new(DirPersistence::open(dir)?))
}

/// Bytes of every file in `dir`, by listing it.
fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// A fresh events database, reconfigured to `config` when given: the
/// probe's extra copies of the untuned or tuned fixture.
fn fixture_with(config: Option<&ConfigInstance>) -> Result<Arc<Database>> {
    let (db, _) = events_database(CHUNKS, CHUNK_ROWS)?;
    if let Some(config) = config {
        let actions = db.engine().current_config().diff(config);
        db.apply_config(&actions)?;
    }
    Ok(db)
}

/// Builds the fixture and its runtime (durable over a fresh store in
/// `dir` when given). This is what `setup_s` times.
fn build(dir: Option<&Path>) -> Result<Runtime> {
    let (db, _) = events_database(CHUNKS, CHUNK_ROWS)?;
    let runtime = match dir {
        None => Runtime::new(db, runtime_config()),
        Some(dir) => Runtime::new_durable(
            db,
            runtime_config(),
            Arc::new(DurabilityManager::new(
                open_store(dir)?,
                durability_config(),
            )),
        ),
    };
    runtime.driver().flight_recorder().set_auto_dump(false);
    Ok(runtime)
}

/// The single-client probe over `Database::run_query`, verified against
/// the oracle: inline scans, or with `pool` a scan pool of `nproc`
/// threads.
fn probe_db(
    db: &Database,
    inputs: &Inputs,
    passes: usize,
    pool: bool,
    checks: &mut Checks,
) -> Vec<f64> {
    let morsels = db.morsel_chunks();
    let lats = probe(
        &inputs.probe,
        passes,
        // A fresh pool per pass: where the scheduler places its helper
        // threads persists for seconds and moves the probe's latency.
        || {
            if pool {
                db.set_scan_pool(Some(ScanPool::new(nproc())), morsels);
            }
        },
        |q| db.run_query(q),
        |q, out| inputs.oracle.verify(q, out) == Some(true),
        checks,
    );
    db.set_scan_pool(None, morsels);
    lats
}

fn check_outcome(
    checks: &mut Checks,
    what: &str,
    stats: &SessionStats,
    planned: u64,
    digest: &mut Option<u64>,
) {
    check_serving(
        checks,
        what,
        stats.queries,
        stats.errors + stats.wrong_results,
        planned,
        stats.result_digest,
        digest,
    );
}

fn planned(plan: &[BucketPlan]) -> u64 {
    plan.iter().map(|b| b.queries.len() as u64).sum()
}

/// A seeded kill point in the middle fifth of the plan, so the WAL a
/// recovery replays stays about the same size across seeds.
fn kill_point(plan: &[BucketPlan], seed: u64, cycle: usize) -> KillSpec {
    let mut rng = smdb_common::seeded_rng(derive_seed(seed, 100 + cycle as u64));
    let lo = plan.len() * 2 / 5;
    let bucket = lo + rand::RngExt::random_range(&mut rng, 0..plan.len() / 5);
    let len = plan[bucket].queries.len().max(1);
    KillSpec {
        bucket,
        after_queries: rand::RngExt::random_range(&mut rng, 0..len),
    }
}

/// One kill-and-recover cycle: a fresh durable run killed at a seeded
/// point, `RECOVERIES_PER_KILL` timed `recover_runtime` calls on the
/// killed store, then the last recovered runtime resumes; its digest
/// must equal the reference digest. Returns the recovery times in ms.
fn recovery_cycle(
    args: &Args,
    inputs: &Inputs,
    cycle: usize,
    reference: u64,
    checks: &mut Checks,
) -> Result<Vec<f64>> {
    let dir = store_dir(args, "kill");
    let dying = build(Some(&dir))?;
    let kill = kill_point(&inputs.plan, args.seed, cycle);
    dying.run_killed(&inputs.plan, kill)?;
    drop(dying);
    let store: Arc<dyn Persistence> = Arc::new(DirPersistence::open(&dir)?);
    let mut times = Vec::with_capacity(RECOVERIES_PER_KILL);
    let mut recovered = None;
    for _ in 0..RECOVERIES_PER_KILL {
        let (rec, secs) =
            timed(|| recover_runtime(Arc::clone(&store), durability_config(), runtime_config()));
        times.push(secs * 1e3);
        recovered = rec?;
    }
    let (runtime, rec) = recovered.ok_or_else(|| Error::invalid("no snapshot to recover"))?;
    runtime.driver().flight_recorder().set_auto_dump(false);
    let outcome =
        runtime.run_resumed(&inputs.plan, rec.serving.bucket, rec.serving.stats.clone())?;
    let mut digest = Some(reference);
    check_outcome(
        checks,
        "resumed run",
        &outcome.stats,
        planned(&inputs.plan),
        &mut digest,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(times)
}

/// What one untraced serving pass of a round measured.
struct Served {
    digest: u64,
    queries: u64,
    tunings: u64,
    actions: u64,
    wall_s: f64,
}

pub fn untraced(args: &Args, checks: &mut Checks, durable: bool) -> Result<Sheet> {
    let inputs = inputs(args.seed, durable)?;
    // `Runtime::run` captures its oracle inside the timed call; the same
    // capture, timed alone on a fresh fixture, gives its share.
    let (capture, capture_s) = timed(|| -> Result<ResultOracle> {
        let (db, _) = events_database(CHUNKS, CHUNK_ROWS)?;
        ResultOracle::capture(&db, inputs.plan.iter().flat_map(|b| b.queries.iter()))
    });
    capture?;
    let mut rounds = Rounds::default();
    let mut digest = None;
    let mut recoveries = Vec::new();
    let mut store_amp = Vec::new();
    let mut last = None;
    let n = repeat_rounds(args.seconds, 2, 50, |round| {
        let dir = store_dir(args, "reference");
        let runtime = timed_setup(&mut rounds, || build(durable.then_some(dir.as_path())))?;
        let db = Arc::clone(runtime.database());

        let mut cold = vec![probe_db(&db, &inputs, PROBE_PASSES, false, checks)];
        for _ in 1..PROBE_FIXTURES {
            let copy = fixture_with(None)?;
            cold.push(probe_db(&copy, &inputs, PROBE_PASSES, false, checks));
        }
        db.plan_cache().clear();

        let (outcome, wall) = timed(|| runtime.run(&inputs.plan));
        let outcome = outcome?;
        check_outcome(
            checks,
            "serving",
            &outcome.stats,
            planned(&inputs.plan),
            &mut digest,
        );
        rounds.push("serve_qps", outcome.stats.queries as f64 / wall);
        if durable {
            store_amp.push(dir_bytes(&dir) / inputs.raw_bytes);
        }

        let mut tuned = vec![probe_db(&db, &inputs, PROBE_PASSES, false, checks)];
        let tuned_config = db.engine().current_config();
        for _ in 1..PROBE_FIXTURES {
            let copy = fixture_with(Some(&tuned_config))?;
            tuned.push(probe_db(&copy, &inputs, PROBE_PASSES, false, checks));
        }
        push_probe(&mut rounds, &cold, &tuned);
        last = Some(Served {
            digest: outcome.stats.result_digest,
            queries: outcome.stats.queries,
            tunings: outcome.tuning.tunings_run,
            actions: outcome.tuning.actions_applied,
            wall_s: wall,
        });

        let decisions = decide_loop(
            runtime.driver(),
            &inputs.decide_buckets,
            false,
            checks,
            |_| Ok(()),
        )?;
        push_decisions(&mut rounds, &decisions);
        // Answers stay correct on the configuration the decisions left.
        probe_db(&db, &inputs, 0, false, checks);
        drop(runtime);
        let _ = std::fs::remove_dir_all(&dir);

        if durable && round < RECOVERY_ROUNDS {
            let reference = digest.expect("set by the first serving pass");
            recoveries.extend(recovery_cycle(args, &inputs, round, reference, checks)?);
        }
        Ok(())
    })?;
    let last = last.expect("at least one round");
    println!(
        "  rounds {n}; per round: {} queries in {:.3}s, digest {:#x}, tunings {}, actions {}",
        last.queries, last.wall_s, last.digest, last.tunings, last.actions
    );
    println!(
        "  config: nproc {}, workers {}, scan threads 1 (serving and probe), shards 1, \
         fixture {CHUNKS} chunks x {CHUNK_ROWS} rows, {} buckets, seed {}, {}",
        nproc(),
        runtime_config().workers,
        inputs.plan.len(),
        args.seed,
        if durable {
            "directory store, fsync per WAL append and per snapshot"
        } else {
            "in memory, no flushes"
        }
    );
    println!(
        "  oracle capture takes about {:.4} of the serving wall",
        capture_s / last.wall_s
    );
    if durable {
        println!(
            "  recovery_ms_p50 {:.4} ms over {} recoveries; store_amp {:.3}",
            median(&recoveries),
            recoveries.len(),
            median(&store_amp)
        );
    }
    Ok(end_to_end_sheet(&rounds))
}

/// Counters of one traced serving pass.
#[derive(Debug, Default)]
struct TracedServe {
    stats: SessionStats,
    wall_s: f64,
    /// Σ worker busy ÷ (workers × bucket serve wall), summed over buckets.
    worker_busy_s: f64,
    worker_slots_s: f64,
    chunks: [u64; 4],
    /// Decisions the organizer triggered, and those that queued nothing.
    decisions: u64,
    noop: u64,
}

/// What one worker did in one bucket.
struct WorkerPass {
    lane: Lane,
    stats: SessionStats,
    busy_s: f64,
    chunks: [u64; 4],
}

/// Serves `plan` the way `Runtime::run` does, from the benchmark's own
/// loop over the layers' public calls: oracle capture; per bucket a
/// worker pool serving round-robin partitions (scan, plan-cache record,
/// oracle check, KPI record), then the barrier (close, drain, persist,
/// tick) and the decision on a tuning thread that overlaps the next
/// bucket. Left out: the rollback cooldown countdown (no faults are
/// injected, so tuning never pauses) and the cold/tuned simulated
/// latency figures.
fn traced_serve(
    runtime: &Runtime,
    plan: &[BucketPlan],
    config: &RuntimeConfig,
    trace: &mut Trace,
    epoch: Instant,
) -> Result<TracedServe> {
    let db = runtime.database();
    let driver = runtime.driver();
    let started = Instant::now();
    let mut ctl = Lane::new(epoch);
    let oracle = Arc::new(ctl.span("runtime.oracle_capture", 0, || {
        ResultOracle::capture(db, plan.iter().flat_map(|b| b.queries.iter()))
    })?);
    let mut out = TracedServe::default();
    if let Some(d) = driver.durability() {
        if d.wal_records() == 0 {
            ctl.span("durable.snapshot", 0, || {
                driver.persist_snapshot(0, &out.stats)
            })?;
        }
    }
    let workers = config.workers.max(1).min(nproc());
    let mut offsets = Vec::with_capacity(plan.len());
    let mut next = 0u64;
    for b in plan {
        offsets.push(next);
        next += b.queries.len() as u64;
    }

    std::thread::scope(|scope| -> Result<()> {
        let (tick_tx, tick_rx) = mpsc::sync_channel::<Option<TuningTick>>(1);
        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        let tuner = scope.spawn(move || -> Result<(Lane, u64, u64)> {
            let mut lane = Lane::new(epoch);
            let (mut request, mut decisions, mut noop) = (0u64, 0u64, 0u64);
            while let Ok(Some(tick)) = lane.wait(|| tick_rx.recv()) {
                if !driver.organizer().is_paused() {
                    let report =
                        lane.span("core.decide", request, || driver.maybe_tune_deferred(&tick))?;
                    if let Some(report) = report {
                        decisions += 1;
                        if report.proposals.iter().all(|p| !p.accepted) {
                            noop += 1;
                        }
                    }
                }
                request += 1;
                if ack_tx.send(()).is_err() {
                    break;
                }
            }
            Ok((lane, decisions, noop))
        });
        let mut in_flight = false;
        for (idx, bucket) in plan.iter().enumerate() {
            let serve_start = Instant::now();
            let passes = ctl.wait(|| {
                serve_bucket_traced(
                    db,
                    driver,
                    &oracle,
                    &bucket.queries,
                    offsets[idx],
                    workers,
                    epoch,
                )
            })?;
            let serve_wall = serve_start.elapsed().as_secs_f64();
            out.worker_slots_s += serve_wall * workers as f64;
            for pass in passes {
                out.stats.merge(&pass.stats);
                out.worker_busy_s += pass.busy_s;
                for (total, c) in out.chunks.iter_mut().zip(pass.chunks) {
                    *total += c;
                }
                trace.absorb(pass.lane);
            }
            if in_flight {
                if ctl.wait(|| ack_rx.recv()).is_err() {
                    break;
                }
                in_flight = false;
            }
            let barrier = ctl.enter("runtime.barrier", idx as u64);
            ctl.span("core.close_bucket", idx as u64, || driver.close_bucket());
            if !driver.organizer().is_paused() && driver.pending_actions() > 0 {
                let drained = ctl.span("core.drain", idx as u64, || {
                    let tick = driver.tick();
                    driver.drain_pending_slice_at(&tick, config.slice_budget)
                });
                if let Err(cause) = drained {
                    driver.rollback_to_last_good(&cause.to_string())?;
                    driver.organizer().pause();
                }
            }
            if let Some(d) = driver.durability() {
                let bucket_no = (idx + 1) as u64;
                ctl.span("durable.boundary", idx as u64, || {
                    d.log_boundary(&driver.export_serving_state(bucket_no, &out.stats))
                })?;
                if d.should_snapshot(bucket_no) {
                    ctl.span("durable.snapshot", idx as u64, || {
                        driver.persist_snapshot(bucket_no, &out.stats)
                    })?;
                }
            }
            let tick = ctl.span("core.tick", idx as u64, || driver.tick());
            ctl.exit(barrier);
            if tick_tx.send(Some(tick)).is_err() {
                break;
            }
            in_flight = true;
        }
        if in_flight {
            let _ = ctl.wait(|| ack_rx.recv());
        }
        let _ = tick_tx.send(None);
        let (lane, decisions, noop) = tuner
            .join()
            .map_err(|_| Error::invalid("tuning thread panicked"))??;
        out.decisions = decisions;
        out.noop = noop;
        trace.absorb(lane);
        Ok(())
    })?;

    let mut ticks = 0;
    while driver.pending_actions() > 0 && ticks < config.drain_ticks {
        ctl.span("core.close_bucket", plan.len() as u64, || {
            driver.close_bucket()
        });
        if driver.organizer().is_paused() {
            driver.organizer().resume();
        }
        let drained = ctl.span("core.drain", plan.len() as u64, || {
            let tick = driver.tick();
            driver.drain_pending_slice_at(&tick, config.slice_budget)
        });
        if let Err(cause) = drained {
            driver.rollback_to_last_good(&cause.to_string())?;
            driver.organizer().pause();
        }
        ticks += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    trace.absorb(ctl);
    Ok(out)
}

/// One bucket served by `workers` threads, each recording its own lane.
fn serve_bucket_traced(
    db: &Arc<Database>,
    driver: &smdb_core::Driver,
    oracle: &ResultOracle,
    queries: &[Query],
    offset: u64,
    workers: usize,
    epoch: Instant,
) -> Result<Vec<WorkerPass>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut pass = WorkerPass {
                        lane: Lane::new(epoch),
                        stats: SessionStats::default(),
                        busy_s: 0.0,
                        chunks: [0; 4],
                    };
                    for (i, q) in queries.iter().enumerate().skip(w).step_by(workers) {
                        let request = offset + i as u64;
                        let lane = &mut pass.lane;
                        let run = lane.enter("query.run", request);
                        let scanned = lane.span("storage.scan", request, || {
                            let engine = db.engine();
                            match db.scan_pool() {
                                Some(pool) if pool.threads() > 1 => engine.scan_grouped_parallel(
                                    q.table(),
                                    q.predicates(),
                                    q.aggregate(),
                                    q.group_by(),
                                    &pool,
                                    db.morsel_chunks(),
                                ),
                                _ => engine.scan_grouped(
                                    q.table(),
                                    q.predicates(),
                                    q.aggregate(),
                                    q.group_by(),
                                ),
                            }
                        });
                        let output = match scanned {
                            Ok(output) => output,
                            Err(_) => {
                                lane.exit(run);
                                pass.stats.errors += 1;
                                continue;
                            }
                        };
                        db.note_scan_output(&output);
                        lane.span("query.record", request, || {
                            db.record_execution(q, output.sim_cost)
                        });
                        lane.exit(run);
                        let ok = lane.span("query.verify", request, || oracle.verify(q, &output));
                        lane.span("core.record_scan", request, || {
                            driver.record_scan(output.sim_latency, output.morsels)
                        });
                        pass.stats.queries += 1;
                        pass.stats.busy += output.sim_cost;
                        pass.stats.morsels += output.morsels;
                        pass.stats.result_digest = pass
                            .stats
                            .result_digest
                            .wrapping_add(result_hash(q, &output));
                        if ok == Some(false) {
                            pass.stats.wrong_results += 1;
                        }
                        pass.chunks[0] += output.chunks_pruned;
                        pass.chunks[1] += output.index_probes;
                        pass.chunks[2] += output.chunks_kernel;
                        pass.chunks[3] += output.chunks_scalar;
                    }
                    pass.busy_s = started.elapsed().as_secs_f64();
                    pass
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| Error::invalid("worker thread panicked"))
            })
            .collect()
    })
}

/// Times one recovery from the layers' public calls: decode
/// (`smdb_core::recover`), then the rebuild `recover_runtime` does
/// (engine, database, durability manager, runtime, restore).
fn traced_recover(
    store: &Arc<dyn Persistence>,
    lane: &mut Lane,
    request: u64,
) -> Result<(Runtime, smdb_core::RecoveredState)> {
    let rec = lane.span("durable.recover_decode", request, || {
        smdb_core::recover(store.as_ref(), &durability_config())
    })?;
    let mut rec = rec.ok_or_else(|| Error::invalid("no snapshot to recover"))?;
    let runtime = lane.span("durable.rebuild", request, || -> Result<Runtime> {
        let mut engine = StorageEngine::default();
        for table in std::mem::take(&mut rec.tables) {
            engine.create_table(table)?;
        }
        let manager = Arc::new(DurabilityManager::with_next_seq(
            Arc::clone(store),
            durability_config(),
            rec.wal_records,
        ));
        let runtime = Runtime::new_durable(Database::new(engine), runtime_config(), manager);
        runtime.driver().restore_from_recovery(&rec)?;
        Ok(runtime)
    })?;
    Ok((runtime, rec))
}

pub fn traced(args: &Args, checks: &mut Checks, durable: bool) -> Result<Sheet> {
    let inputs = inputs(args.seed, durable)?;
    let config = runtime_config();
    let planned = planned(&inputs.plan);
    let epoch = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_last = None;
    let mut digest = None;
    let mut trace = Trace::default();
    let mut served = TracedServe::default();
    let mut traced_counts = (0, 0);
    let mut store_bytes = (0.0, 0.0, 0.0);
    let mut engine_mb = 0.0;
    let mut pool_lats = Vec::new();
    let mut pool_morsels = 0.0;
    // Alternate untraced and traced passes over fresh fixtures; the
    // overhead compares their median walls.
    let rounds = repeat_rounds(args.seconds, 2, 20, |round| {
        let dir = store_dir(args, "reference");
        let runtime = build(durable.then_some(dir.as_path()))?;
        let (untraced_outcome, untraced_wall) = timed(|| runtime.run(&inputs.plan));
        let untraced_outcome = untraced_outcome?;
        check_outcome(
            checks,
            "untraced serving",
            &untraced_outcome.stats,
            planned,
            &mut digest,
        );
        untraced_walls.push(untraced_wall);
        untraced_last = Some((
            untraced_outcome.stats.queries,
            untraced_outcome.stats.result_digest,
            untraced_outcome.tuning.tunings_run,
            untraced_outcome.tuning.actions_applied,
        ));
        drop(runtime);
        let _ = std::fs::remove_dir_all(&dir);

        let runtime = build(durable.then_some(dir.as_path()))?;
        let mut round_trace = Trace::default();
        let pass = traced_serve(&runtime, &inputs.plan, &config, &mut round_trace, epoch)?;
        check_outcome(checks, "traced serving", &pass.stats, planned, &mut digest);
        traced_walls.push(pass.wall_s);
        let state = runtime.driver().tuning_state();
        traced_counts = (state.tunings_run, state.actions_applied);
        engine_mb = runtime.database().engine().memory_report().total_bytes() as f64 / 1e6;
        // The probe once more, through a scan pool of `nproc` threads:
        // the scan pool's only caller in the benchmark.
        let db = runtime.database();
        let before = db.scan_stats();
        pool_lats.extend(probe_db(db, &inputs, 1, true, checks));
        let after = db.scan_stats();
        pool_morsels = share(
            (after.morsels - before.morsels) as f64,
            (after.parallel_scans + after.inline_scans
                - before.parallel_scans
                - before.inline_scans) as f64,
        );
        if durable {
            let mut wal = 0.0;
            let mut snap = 0.0;
            for entry in std::fs::read_dir(&dir).map_err(|e| Error::invalid(e.to_string()))? {
                let entry = entry.map_err(|e| Error::invalid(e.to_string()))?;
                let len = entry.metadata().map(|m| m.len() as f64).unwrap_or(0.0);
                if entry.file_name().to_string_lossy().contains("wal") {
                    wal += len;
                } else {
                    snap += len;
                }
            }
            store_bytes = (wal, snap, (wal + snap) / inputs.raw_bytes);
        }
        drop(runtime);
        let _ = std::fs::remove_dir_all(&dir);

        if durable {
            // One traced kill-and-recover cycle.
            let kill_dir = store_dir(args, "kill");
            let dying = build(Some(&kill_dir))?;
            let kill = kill_point(&inputs.plan, args.seed, round);
            let mut lane = Lane::new(epoch);
            lane.span("runtime.run_killed", round as u64, || {
                dying.run_killed(&inputs.plan, kill)
            })?;
            drop(dying);
            let store: Arc<dyn Persistence> = Arc::new(DirPersistence::open(&kill_dir)?);
            let recovery = lane.enter("durable.recovery", round as u64);
            let (runtime, rec) = traced_recover(&store, &mut lane, round as u64)?;
            lane.exit(recovery);
            runtime.driver().flight_recorder().set_auto_dump(false);
            let outcome = lane.span("runtime.run_resumed", round as u64, || {
                runtime.run_resumed(&inputs.plan, rec.serving.bucket, rec.serving.stats.clone())
            })?;
            check_outcome(checks, "resumed run", &outcome.stats, planned, &mut digest);
            round_trace.absorb(lane);
            drop(runtime);
            let _ = std::fs::remove_dir_all(&kill_dir);
        }
        trace = round_trace;
        served = pass;
        Ok(())
    })?;

    let (u_queries, u_digest, u_tunings, u_actions) = untraced_last.expect("one round");
    println!(
        "  untraced: {u_queries} queries, digest {u_digest:#x}, tunings {u_tunings}, actions {u_actions}"
    );
    println!(
        "  traced:   {} queries, digest {:#x}, tunings {}, actions {}",
        served.stats.queries, served.stats.result_digest, traced_counts.0, traced_counts.1
    );
    if (u_tunings, u_actions) != traced_counts {
        println!("  note: traced tuning counts differ from the untraced run");
    }
    println!(
        "  traced loop leaves out: the rollback cooldown countdown (no faults are \
         injected) and the simulated cold/tuned latency figures"
    );
    checks.check(u_digest == served.stats.result_digest, || {
        "traced digest differs from untraced digest".to_string()
    });
    println!("  rounds {rounds}; spans written for the last traced pass");
    write_spans(args, &trace);

    let mut sheet = layer_sheet_serving(&trace, &served, &untraced_walls, &traced_walls);
    sheet.set("storage.engine_mb", engine_mb, "MB");
    sheet.set("storage.pool_query_us_p50", median(&pool_lats), "us");
    sheet.set("storage.morsels_per_scan", pool_morsels, "count");
    sheet.set(
        "durable.boundary_us",
        median(&trace.durations_us("durable.boundary")),
        "us",
    );
    sheet.set(
        "durable.snapshot_ms",
        median(&trace.durations_us("durable.snapshot")) / 1e3,
        "ms",
    );
    sheet.set("durable.wal_bytes", store_bytes.0, "bytes");
    sheet.set("durable.snapshot_bytes", store_bytes.1, "bytes");
    sheet.set("durable.store_amp", store_bytes.2, "ratio");
    sheet.set(
        "durable.recover_decode_ms",
        median(&trace.durations_us("durable.recover_decode")) / 1e3,
        "ms",
    );
    sheet.set(
        "durable.rebuild_ms",
        median(&trace.durations_us("durable.rebuild")) / 1e3,
        "ms",
    );
    sheet.set(
        "durable.recovery_ms_p50",
        median(&trace.durations_us("durable.recovery")) / 1e3,
        "ms",
    );
    Ok(sheet)
}

/// Per-layer metrics of a single-engine serving trace. Layers the loop
/// does not touch are 0.
fn layer_sheet_serving(
    trace: &Trace,
    served: &TracedServe,
    untraced_walls: &[f64],
    traced_walls: &[f64],
) -> Sheet {
    let mut sheet = crate::zero_layer_sheet();
    let scans = trace.durations_us("storage.scan");
    sheet.set("storage.scan_us_p50", median(&scans), "us");
    sheet.set("storage.scan_us_p99", quantile(&scans, 0.99), "us");
    set_chunk_shares(&mut sheet, served.chunks);
    let runs = trace.durations_us("query.run");
    sheet.set("query.run_us_p50", median(&runs), "us");
    sheet.set(
        "query.plan_cache_record_us",
        median(&trace.durations_us("query.record")),
        "us",
    );
    sheet.set(
        "query.oracle_verify_us",
        median(&trace.durations_us("query.verify")),
        "us",
    );
    sheet.set(
        "runtime.oracle_capture_ms",
        trace.total_ms("runtime.oracle_capture"),
        "ms",
    );
    sheet.set(
        "runtime.barrier_us",
        median(&trace.durations_us("runtime.barrier")),
        "us",
    );
    sheet.set(
        "runtime.worker_idle_share",
        1.0 - share(served.worker_busy_s, served.worker_slots_s),
        "ratio",
    );
    serving_control_metrics(
        &mut sheet,
        trace,
        served.wall_s,
        trace.total_ms("query.run"),
    );
    sheet.set(
        "core.noop_tuning_share",
        share(served.noop as f64, served.decisions as f64),
        "ratio",
    );
    set_trace_health(&mut sheet, trace, untraced_walls, traced_walls);
    sheet
}
