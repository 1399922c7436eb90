//! `tenants`: sharded multi-tenant serving through `ShardedRuntime`.
//!
//! 4 range shards, 1,200 tenants with Zipf 1.1 popularity, `nproc`
//! workers and inline scans on every shard (one scan thread per shard:
//! helper threads beside the workers only oversubscribe a small host).
//! Many tiny routed queries make the router, the per-shard plan caches,
//! the 4 drivers and the budget arbiter dominate; about 3% of queries
//! scatter-gather.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smdb_common::{derive_seed, Error, Result};
use smdb_obs::FlightRecorder;
use smdb_query::{result_hash, ExpectedResult, PlanCache, Query};
use smdb_runtime::{MtSoakConfig, ShardedRuntime};
use smdb_shard::{BudgetArbiter, MultiTenantConfig, ShardSpec, ShardedDatabase, TenantQuery};

use crate::common::{
    check_serving, decide_loop, end_to_end_sheet, nproc, probe, push_decisions, push_probe,
    repeat_rounds, seeded_sample, timed, timed_setup, Args, Checks, Decisions, Rounds, Sheet,
};
use crate::layers::{serving_control_metrics, set_chunk_shares, set_trace_health, write_spans};
use crate::stats::{median, share};
use crate::trace::{Lane, Trace};

const BUCKETS: usize = 30;
const PROBE_QUERIES: usize = 4_000;
const PROBE_PASSES: usize = 3;
/// Fixtures each probe runs on per round (see `FIXTURE_MEANS`).
const PROBE_FIXTURES: usize = 4;
/// Decisions after serving, spread round-robin over the shard drivers.
const DECISIONS: usize = 24;
/// Routed queries per decision bucket.
const DECIDE_BUCKET: usize = 400;

fn config(seed: u64) -> MtSoakConfig {
    MtSoakConfig {
        shards: 4,
        tenants: MultiTenantConfig {
            seed,
            ..MultiTenantConfig::default()
        },
        workers: nproc(),
        buckets: BUCKETS,
        scan_threads: 1,
        ..MtSoakConfig::default()
    }
}

type Expected = HashMap<u64, ExpectedResult>;

struct Inputs {
    plan: Vec<Vec<TenantQuery>>,
    probe: Vec<Query>,
    /// Per shard: the routed plan queries, cut into decision buckets.
    decide_buckets: Vec<Vec<Vec<Query>>>,
    expected: Arc<Expected>,
}

fn capture(db: &ShardedDatabase, queries: impl IntoIterator<Item = Query>) -> Result<Expected> {
    let mut expected = Expected::new();
    for q in queries {
        if let std::collections::hash_map::Entry::Vacant(slot) =
            expected.entry(q.instance_fingerprint())
        {
            slot.insert(ExpectedResult::of(&db.run_query(&q)?.output));
        }
    }
    Ok(expected)
}

fn inputs(seed: u64) -> Result<Inputs> {
    let cfg = config(seed);
    let fixture = ShardedRuntime::new(cfg.clone())?;
    let plan = fixture.plan();
    let db = fixture.database();
    let all: Vec<Query> = plan.iter().flatten().map(|tq| tq.query.clone()).collect();
    let probe = seeded_sample(&all, PROBE_QUERIES, derive_seed(seed, 1));
    let per_shard = DECISIONS / cfg.shards;
    let decide_buckets: Vec<Vec<Vec<Query>>> = (0..cfg.shards)
        .map(|s| {
            let routed: Vec<Query> = all
                .iter()
                .filter(|q| db.route(q) == Some(s))
                .cloned()
                .collect();
            seeded_sample(
                &routed,
                per_shard * DECIDE_BUCKET,
                derive_seed(seed, 10 + s as u64),
            )
            .chunks(DECIDE_BUCKET)
            .map(<[Query]>::to_vec)
            .collect()
        })
        .collect();
    let expected = Arc::new(capture(db, probe.iter().cloned())?);
    Ok(Inputs {
        plan,
        probe,
        decide_buckets,
        expected,
    })
}

/// A fresh sharded fixture, each shard reconfigured like the matching
/// shard of `like` when given: the probe's extra copies of the untuned or
/// tuned fixture.
fn fixture_with(seed: u64, like: Option<&ShardedDatabase>) -> Result<ShardedDatabase> {
    let cfg = config(seed);
    let db = smdb_shard::build_sharded(
        &cfg.tenants,
        &ShardSpec {
            shards: cfg.shards,
            assignment: cfg.assignment,
        },
    )?;
    if let Some(like) = like {
        for (shard, model) in db.shards().iter().zip(like.shards()) {
            let target = model.engine().current_config();
            let actions = shard.engine().current_config().diff(&target);
            shard.apply_config(&actions)?;
        }
    }
    Ok(db)
}

fn probe_sharded(
    db: &ShardedDatabase,
    inputs: &Inputs,
    passes: usize,
    checks: &mut Checks,
) -> Vec<f64> {
    probe(
        &inputs.probe,
        passes,
        || (),
        |q| db.run_query(q),
        |q, out| {
            inputs
                .expected
                .get(&q.instance_fingerprint())
                .is_some_and(|e| e.accepts(out))
        },
        checks,
    )
}

fn planned(plan: &[Vec<TenantQuery>]) -> u64 {
    plan.iter().map(|b| b.len() as u64).sum()
}

pub fn untraced(args: &Args, checks: &mut Checks) -> Result<Sheet> {
    let inputs = inputs(args.seed)?;
    let planned = planned(&inputs.plan);
    let mut rounds = Rounds::default();
    let mut digest = None;
    let mut capture_share = Vec::new();
    let mut last = (0u64, 0u64, 0u64, 0u64);
    let n = repeat_rounds(args.seconds, 2, 50, |_| {
        let runtime = timed_setup(&mut rounds, || ShardedRuntime::new(config(args.seed)))?;
        let db = Arc::clone(runtime.database());

        let mut cold = vec![probe_sharded(&db, &inputs, PROBE_PASSES, checks)];
        for _ in 1..PROBE_FIXTURES {
            let copy = fixture_with(args.seed, None)?;
            cold.push(probe_sharded(&copy, &inputs, PROBE_PASSES, checks));
        }
        let (outcome, wall) = timed(|| runtime.run(&inputs.plan));
        let outcome = outcome?;
        check_serving(
            checks,
            "serving",
            outcome.queries,
            outcome.errors + outcome.wrong_results,
            planned,
            outcome.result_digest,
            &mut digest,
        );
        rounds.push("serve_qps", outcome.queries as f64 / wall);
        capture_share.push(1.0 - outcome.wall_seconds / wall);
        last = (
            outcome.queries,
            outcome.result_digest,
            outcome.shard_tuning.iter().map(|t| t.tunings_run).sum(),
            outcome.shard_tuning.iter().map(|t| t.actions_applied).sum(),
        );
        let mut tuned = vec![probe_sharded(&db, &inputs, PROBE_PASSES, checks)];
        for _ in 1..PROBE_FIXTURES {
            let copy = fixture_with(args.seed, Some(&db))?;
            tuned.push(probe_sharded(&copy, &inputs, PROBE_PASSES, checks));
        }
        push_probe(&mut rounds, &cold, &tuned);

        let mut decisions = Decisions::default();
        for (driver, buckets) in runtime.drivers().iter().zip(&inputs.decide_buckets) {
            let d = decide_loop(driver, buckets, false, checks, |_| Ok(()))?;
            decisions.ms.extend(d.ms);
            decisions.cost_ratios.extend(d.cost_ratios);
        }
        push_decisions(&mut rounds, &decisions);
        probe_sharded(&db, &inputs, 0, checks);
        Ok(())
    })?;
    println!(
        "  rounds {n}; per round: {} queries, digest {:#x}, tunings {}, actions {}",
        last.0, last.1, last.2, last.3
    );
    println!(
        "  config: nproc {}, workers {}, scan threads 1 per shard, shards 4 (range), \
         {} tenants x {} rows, Zipf {}, {BUCKETS} buckets, seed {}, in memory; \
         oracle capture takes {:.4} of the serving wall",
        nproc(),
        config(args.seed).workers,
        MultiTenantConfig::default().tenants,
        MultiTenantConfig::default().rows_per_tenant,
        MultiTenantConfig::default().zipf_s,
        args.seed,
        median(&capture_share)
    );
    Ok(end_to_end_sheet(&rounds))
}

/// Counters of one traced pass.
#[derive(Default)]
struct TracedServe {
    queries: u64,
    bad: u64,
    digest: u64,
    wall_s: f64,
    worker_busy_s: f64,
    worker_slots_s: f64,
    decisions: u64,
    noop: u64,
    chunks: [u64; 4],
    scans: u64,
    morsels: u64,
    routed: u64,
    scattered: u64,
}

struct WorkerPass {
    lane: Lane,
    queries: u64,
    bad: u64,
    digest: u64,
    busy_s: f64,
}

/// Serves `plan` the way `ShardedRuntime::run` does, from the
/// benchmark's own loop: capture, then per bucket a worker pool (route,
/// routed or scatter-gather `run_query`, oracle check, KPI record,
/// per-tenant plan-cache record) and the barrier (per shard: close,
/// tick, decide, drain; then the budget arbiter). Left out: the
/// per-tenant latency statistics and the merged decision trail (the
/// arbiter records into a recorder of the benchmark's own).
fn traced_serve(
    runtime: &ShardedRuntime,
    plan: &[Vec<TenantQuery>],
    cfg: &MtSoakConfig,
    trace: &mut Trace,
    epoch: Instant,
) -> Result<TracedServe> {
    let db = runtime.database();
    let drivers = runtime.drivers();
    let started = Instant::now();
    let mut ctl = Lane::new(epoch);
    let expected = Arc::new(ctl.span("runtime.oracle_capture", 0, || {
        capture(db, plan.iter().flatten().map(|tq| tq.query.clone()))
    })?);
    for shard in db.shards() {
        shard.plan_cache().clear();
        shard.take_scan_stats();
    }
    let (routed_before, scattered_before) = db.routing_counts();
    let tenant_caches: Vec<Mutex<PlanCache>> = (0..cfg.tenants.tenants)
        .map(|_| Mutex::new(PlanCache::new(cfg.tenant_plan_cache)))
        .collect();
    let arbiter = BudgetArbiter::new(cfg.budget_bytes, cfg.budget_floor_bytes);
    let recorder = FlightRecorder::new(cfg.trail_capacity);
    let workers = cfg.workers.max(1).min(nproc());
    let mut out = TracedServe::default();
    let mut offset = 0u64;
    for (b, bucket) in plan.iter().enumerate() {
        let serve_start = Instant::now();
        let passes = ctl.wait(|| {
            serve_bucket_traced(
                db,
                drivers,
                &expected,
                &tenant_caches,
                bucket,
                offset,
                workers,
                epoch,
            )
        })?;
        offset += bucket.len() as u64;
        out.worker_slots_s += serve_start.elapsed().as_secs_f64() * workers as f64;
        for pass in passes {
            out.queries += pass.queries;
            out.bad += pass.bad;
            out.digest = out.digest.wrapping_add(pass.digest);
            out.worker_busy_s += pass.busy_s;
            trace.absorb(pass.lane);
        }
        let barrier = ctl.enter("runtime.barrier", b as u64);
        let mut busy = Vec::with_capacity(drivers.len());
        for (driver, shard) in drivers.iter().zip(db.shards()) {
            let stats = shard.take_scan_stats();
            out.chunks[0] += stats.chunks_pruned;
            out.chunks[1] += stats.chunks_index;
            out.chunks[2] += stats.chunks_kernel;
            out.chunks[3] += stats.chunks_scalar;
            out.scans += stats.parallel_scans + stats.inline_scans;
            out.morsels += stats.morsels;
            let report = ctl.span("core.close_bucket", b as u64, || driver.close_bucket());
            busy.push(report.bucket_cost.ms());
            let tick = ctl.span("core.tick", b as u64, || driver.tick());
            let decided = ctl.span("core.decide", b as u64, || {
                driver.maybe_tune_deferred(&tick)
            })?;
            if let Some(report) = decided {
                out.decisions += 1;
                if report.proposals.iter().all(|p| !p.accepted) {
                    out.noop += 1;
                }
            }
            if !driver.organizer().is_paused() && driver.pending_actions() > 0 {
                let drained = ctl.span("core.drain", b as u64, || {
                    driver.drain_pending_slice_at(&tick, cfg.slice_budget)
                });
                if let Err(cause) = drained {
                    driver.rollback_to_last_good(&cause.to_string())?;
                    driver.organizer().pause();
                }
            }
        }
        ctl.span("shard.rebalance", b as u64, || {
            arbiter.rebalance(b as u64, drivers, &busy, &recorder)
        });
        ctl.exit(barrier);
    }
    for driver in drivers {
        let mut ticks = 0;
        while driver.pending_actions() > 0 && ticks < 32 {
            ctl.span("core.close_bucket", plan.len() as u64, || {
                driver.close_bucket()
            });
            driver.organizer().resume();
            let tick = driver.tick();
            let drained = ctl.span("core.drain", plan.len() as u64, || {
                driver.drain_pending_slice_at(&tick, cfg.slice_budget)
            });
            if drained.is_err() {
                driver.rollback_to_last_good("settle drain failed")?;
                break;
            }
            ticks += 1;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    let (routed_now, scattered_now) = db.routing_counts();
    out.routed = routed_now - routed_before;
    out.scattered = scattered_now - scattered_before;
    trace.absorb(ctl);
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn serve_bucket_traced(
    db: &Arc<ShardedDatabase>,
    drivers: &[Arc<smdb_core::Driver>],
    expected: &Expected,
    tenant_caches: &[Mutex<PlanCache>],
    bucket: &[TenantQuery],
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
                        queries: 0,
                        bad: 0,
                        digest: 0,
                        busy_s: 0.0,
                    };
                    for (i, tq) in bucket.iter().enumerate().skip(w).step_by(workers) {
                        let request = offset + i as u64;
                        let lane = &mut pass.lane;
                        let shard = lane.span("shard.route", request, || db.route(&tq.query));
                        let name = if shard.is_some() {
                            "shard.routed"
                        } else {
                            "shard.scatter"
                        };
                        let Ok(r) = lane.span(name, request, || db.run_query(&tq.query)) else {
                            pass.bad += 1;
                            continue;
                        };
                        pass.queries += 1;
                        pass.digest = pass.digest.wrapping_add(result_hash(&tq.query, &r.output));
                        let ok = lane.span("query.verify", request, || {
                            expected
                                .get(&tq.query.instance_fingerprint())
                                .map(|e| e.accepts(&r.output))
                        });
                        if ok == Some(false) {
                            pass.bad += 1;
                        }
                        let lat = r.output.sim_latency;
                        lane.span("core.record_scan", request, || match shard {
                            Some(s) => drivers[s].record_scan(lat, r.output.morsels),
                            None => {
                                for d in drivers {
                                    d.record_scan(lat, r.output.morsels);
                                }
                            }
                        });
                        if let Some(t) = tq.tenant {
                            if let Some(cache) = tenant_caches.get(t as usize) {
                                lane.span("query.record", request, || {
                                    cache.lock().expect("tenant cache lock poisoned").record(
                                        &tq.query,
                                        r.output.sim_cost,
                                        db.shards()[shard.unwrap_or(0)].now(),
                                    )
                                });
                            }
                        }
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

pub fn traced(args: &Args, checks: &mut Checks) -> Result<Sheet> {
    let inputs = inputs(args.seed)?;
    let cfg = config(args.seed);
    let planned = planned(&inputs.plan);
    let epoch = Instant::now();
    let mut digest = None;
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_last = (0u64, 0u64, 0u64, 0u64);
    let mut traced_last = (0u64, 0u64);
    let mut trace = Trace::default();
    let mut served = TracedServe::default();
    let mut engine_mb = 0.0;
    let rounds = repeat_rounds(args.seconds, 2, 20, |_| {
        let runtime = ShardedRuntime::new(cfg.clone())?;
        let (outcome, wall) = timed(|| runtime.run(&inputs.plan));
        let outcome = outcome?;
        check_serving(
            checks,
            "untraced serving",
            outcome.queries,
            outcome.errors + outcome.wrong_results,
            planned,
            outcome.result_digest,
            &mut digest,
        );
        untraced_walls.push(wall);
        untraced_last = (
            outcome.queries,
            outcome.result_digest,
            outcome.shard_tuning.iter().map(|t| t.tunings_run).sum(),
            outcome.shard_tuning.iter().map(|t| t.actions_applied).sum(),
        );
        drop(runtime);

        let runtime = ShardedRuntime::new(cfg.clone())?;
        let mut round_trace = Trace::default();
        let pass = traced_serve(&runtime, &inputs.plan, &cfg, &mut round_trace, epoch)?;
        check_serving(
            checks,
            "traced serving",
            pass.queries,
            pass.bad,
            planned,
            pass.digest,
            &mut digest,
        );
        traced_walls.push(pass.wall_s);
        let states: Vec<_> = runtime.drivers().iter().map(|d| d.tuning_state()).collect();
        traced_last = (
            states.iter().map(|t| t.tunings_run).sum(),
            states.iter().map(|t| t.actions_applied).sum(),
        );
        engine_mb = runtime
            .database()
            .shards()
            .iter()
            .map(|s| s.engine().memory_report().total_bytes() as f64)
            .sum::<f64>()
            / 1e6;
        trace = round_trace;
        served = pass;
        Ok(())
    })?;
    println!(
        "  untraced: {} queries, digest {:#x}, tunings {}, actions {}",
        untraced_last.0, untraced_last.1, untraced_last.2, untraced_last.3
    );
    println!(
        "  traced:   {} queries, digest {:#x}, tunings {}, actions {}",
        served.queries, served.digest, traced_last.0, traced_last.1
    );
    if (untraced_last.2, untraced_last.3) != traced_last {
        println!("  note: traced tuning counts differ from the untraced run");
    }
    println!(
        "  traced loop leaves out: per-tenant latency statistics and the merged decision \
         trail (the arbiter records into a recorder of the benchmark's own)"
    );
    checks.check(untraced_last.1 == served.digest, || {
        "traced digest differs from untraced digest".to_string()
    });
    println!("  rounds {rounds}; spans written for the last traced pass");
    write_spans(args, &trace);

    let mut sheet = crate::zero_layer_sheet();
    set_chunk_shares(&mut sheet, served.chunks);
    sheet.set(
        "storage.morsels_per_scan",
        share(served.morsels as f64, served.scans as f64),
        "count",
    );
    sheet.set("storage.engine_mb", engine_mb, "MB");
    let mut runs = trace.durations_us("shard.routed");
    let scatters = trace.durations_us("shard.scatter");
    sheet.set("shard.routed_us_p50", median(&runs), "us");
    sheet.set("shard.scatter_us_p50", median(&scatters), "us");
    runs.extend(scatters);
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
    // Plan-cache monitoring here is the per-tenant cache record; each
    // shard's own record happens inside `run_query`.
    let query_ms = trace.total_ms("shard.routed") + trace.total_ms("shard.scatter");
    serving_control_metrics(&mut sheet, &trace, served.wall_s, query_ms);
    sheet.set(
        "core.noop_tuning_share",
        share(served.noop as f64, served.decisions as f64),
        "ratio",
    );
    sheet.set(
        "shard.route_us",
        median(&trace.durations_us("shard.route")),
        "us",
    );
    sheet.set(
        "shard.scatter_share",
        share(
            served.scattered as f64,
            (served.routed + served.scattered) as f64,
        ),
        "ratio",
    );
    sheet.set(
        "shard.rebalance_us",
        median(&trace.durations_us("shard.rebalance")),
        "us",
    );
    set_trace_health(&mut sheet, &trace, &untraced_walls, &traced_walls);
    Ok(sheet)
}
