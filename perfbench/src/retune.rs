//! `retune`: the decision path, single-threaded.
//!
//! The TPC-H-flavoured catalog (40k lineitem rows in chunks of 4,000,
//! the second half of lineitem pushed to the cold tier) under a driver
//! with all four features and the LP ordering policy. Each step serves
//! one bucket of a drifting template mix through `Driver::run_bucket`
//! and then decides through `Driver::force_tune`. Every step shifts the
//! mix to a fresh seeded set of hot templates, so most decisions change
//! the configuration. Forecast, what-if analysis (|S| impacts plus
//! |S|² pairs), LP ordering, recursive tuning and apply dominate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use smdb_bench::setup::{
    apply_pressure, build_engine, train_calibrated, DEFAULT_CHUNK, DEFAULT_ROWS, DEFAULT_SEED,
};
use smdb_common::{derive_seed, Result};
use smdb_core::driver::OrderingPolicy;
use smdb_core::{ConstraintSet, Driver, FeatureKind};
use smdb_cost::CalibratedCostModel;
use smdb_query::{Database, Query, ResultOracle};
use smdb_storage::ConfigInstance;
use smdb_workload::tpch::{TpchTemplates, NUM_TEMPLATES};

use crate::common::{
    check_lp_against_brute_force, decide_loop, end_to_end_sheet, nproc, probe, push_decisions,
    push_probe, repeat_rounds, timed, timed_setup, Args, Checks, Rounds, Sheet,
};
use crate::layers::{serving_control_metrics, set_chunk_shares, set_trace_health, write_spans};
use crate::stats::{mean, median, quantile, share};
use crate::trace::{Lane, Trace};

/// Decisions per round.
const DECISIONS: usize = 60;
const BUCKET_QUERIES: usize = 100;
/// Final decisions under the uniform mix the probe draws from, so the
/// probed configuration is tuned for the probe's own mix.
const SETTLE_DECISIONS: usize = 8;
const PROBE_PER_TEMPLATE: usize = 60;
const PROBE_PASSES: usize = 2;
/// Fixtures each probe runs on per round (see `FIXTURE_MEANS`).
const PROBE_FIXTURES: usize = 6;

struct Fixture {
    db: Arc<Database>,
    driver: Driver,
    /// The driver's learned cost model, which `Driver::run_bucket`
    /// trains on every query.
    model: Arc<CalibratedCostModel>,
    templates: TpchTemplates,
}

struct Inputs {
    buckets: Vec<Vec<Query>>,
    probe: Vec<Query>,
    /// One query per template, checked after every decision.
    verify: Vec<Query>,
    oracle: Arc<ResultOracle>,
}

/// The pressured catalog: the second half of lineitem starts on the cold
/// tier. Returns the hot-tier capacity that makes that constraint bind.
fn database() -> (Arc<Database>, TpchTemplates, i64) {
    let (mut engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let hot_capacity = apply_pressure(&mut engine, &templates);
    (Database::new(engine), templates, hot_capacity)
}

/// A fresh catalog reconfigured to `config` when given: the probe's
/// extra copies of the untuned or tuned fixture.
fn fixture_with(config: Option<&ConfigInstance>) -> Result<Arc<Database>> {
    let (db, _, _) = database();
    if let Some(config) = config {
        let actions = db.engine().current_config().diff(config);
        db.apply_config(&actions)?;
    }
    Ok(db)
}

/// The fixture and its driver: what `setup_s` times. The catalog and the
/// cost model's training sample are fixed; the seed drives the queries.
fn build() -> Result<Fixture> {
    let (db, templates, hot_capacity) = database();
    let model = train_calibrated(&db.engine(), &templates, 240, DEFAULT_SEED)?;
    let driver = Driver::builder(Arc::clone(&db))
        .learned_estimator(Arc::clone(&model))
        .features(vec![
            FeatureKind::Indexing,
            FeatureKind::Compression,
            FeatureKind::Placement,
            FeatureKind::BufferPool,
        ])
        .ordering_policy(OrderingPolicy::LpOptimized)
        .constraints(ConstraintSet {
            index_memory_bytes: Some(8 * 1024 * 1024),
            hot_tier_bytes: Some(hot_capacity),
            ..ConstraintSet::default()
        })
        .build();
    driver.flight_recorder().set_auto_dump(false);
    Ok(Fixture {
        db,
        driver,
        model,
        templates,
    })
}

fn inputs(seed: u64) -> Result<Inputs> {
    let Fixture { db, templates, .. } = build()?;
    // A fixed walk over template pairs, then the uniform mix: every seed
    // drifts through the same mixes, each bucket holds the same number of
    // queries of each of its templates, and only the literals differ.
    let mut rng = smdb_common::seeded_rng(derive_seed(seed, 3));
    let buckets = (0..DECISIONS)
        .map(|d| {
            let hot = [(3 * d) % NUM_TEMPLATES, (5 * d + 1) % NUM_TEMPLATES];
            (0..BUCKET_QUERIES)
                .map(|i| {
                    let id = if d >= DECISIONS - SETTLE_DECISIONS {
                        i % NUM_TEMPLATES
                    } else {
                        hot[i % 2]
                    };
                    templates.sample(id, &mut rng)
                })
                .collect()
        })
        .collect();
    // The same number of queries per template, so the probe's template
    // mix (and with it the median) does not move with the seed.
    let mut rng = smdb_common::seeded_rng(derive_seed(seed, 4));
    let probe: Vec<Query> = (0..NUM_TEMPLATES * PROBE_PER_TEMPLATE)
        .map(|i| templates.sample(i % NUM_TEMPLATES, &mut rng))
        .collect();
    let mut rng = smdb_common::seeded_rng(derive_seed(seed, 6));
    let verify = (0..NUM_TEMPLATES)
        .map(|id| templates.sample(id, &mut rng))
        .collect::<Vec<_>>();
    let oracle = Arc::new(ResultOracle::capture(&db, probe.iter().chain(&verify))?);
    Ok(Inputs {
        buckets,
        probe,
        verify,
        oracle,
    })
}

/// The seed of round `round`'s inputs. The tuned configuration follows
/// the decision path, and the path follows the literals: one path moves
/// the tuned probe's median by up to 1.5x, so each round walks its own
/// and a run averages over them.
fn round_seed(seed: u64, round: usize) -> u64 {
    derive_seed(seed, round as u64)
}

fn probe_db(db: &Database, inputs: &Inputs, checks: &mut Checks) -> Vec<f64> {
    probe(
        &inputs.probe,
        PROBE_PASSES,
        || (),
        |q| db.run_query(q),
        |q, out| inputs.oracle.verify(q, out) == Some(true),
        checks,
    )
}

/// Checks one query per template on the current configuration, straight
/// on the engine so the plan cache and the forecast stay untouched.
fn verify_templates(db: &Database, inputs: &Inputs, checks: &mut Checks) -> Result<()> {
    let engine = db.engine();
    for q in &inputs.verify {
        let out = engine.scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())?;
        checks.check(inputs.oracle.verify(q, &out) == Some(true), || {
            format!("wrong answer for {} after a decision", q.label())
        });
    }
    Ok(())
}

pub fn untraced(args: &Args, checks: &mut Checks) -> Result<Sheet> {
    let mut rounds = Rounds::default();
    let mut summary = (0u64, 0.0, 0u64);
    let n = repeat_rounds(args.seconds, 2, 50, |round| {
        let inputs = inputs(round_seed(args.seed, round))?;
        let Fixture { db, driver, .. } = timed_setup(&mut rounds, build)?;
        let mut cold = vec![probe_db(&db, &inputs, checks)];
        for _ in 1..PROBE_FIXTURES {
            let copy = fixture_with(None)?;
            cold.push(probe_db(&copy, &inputs, checks));
        }
        db.plan_cache().clear();
        let decisions = decide_loop(&driver, &inputs.buckets, true, checks, |checks| {
            verify_templates(&db, &inputs, checks)
        })?;
        rounds.push("serve_qps", decisions.queries as f64 / decisions.serve_s);
        push_decisions(&mut rounds, &decisions);
        summary = (
            decisions.actions,
            decisions.noop_share(),
            decisions.final_config,
        );
        let mut tuned = vec![probe_db(&db, &inputs, checks)];
        let tuned_config = db.engine().current_config();
        for _ in 1..PROBE_FIXTURES {
            let copy = fixture_with(Some(&tuned_config))?;
            tuned.push(probe_db(&copy, &inputs, checks));
        }
        push_probe(&mut rounds, &cold, &tuned);
        Ok(())
    })?;
    println!(
        "  rounds {n}; per round: {DECISIONS} decisions, {} actions, no-op share {:.3}, \
         final config {:#x}",
        summary.0, summary.1, summary.2
    );
    println!(
        "  config: nproc {}, 1 client thread, inline scans, shards 1, lineitem \
         {DEFAULT_ROWS} rows in chunks of {DEFAULT_CHUNK}, {BUCKET_QUERIES} queries per \
         bucket, 4 features, LP ordering, seed {}, in memory",
        nproc(),
        args.seed
    );
    Ok(end_to_end_sheet(&rounds))
}

/// What one traced pass produced.
#[derive(Default)]
struct TracedPass {
    actions: u64,
    noop: usize,
    final_config: u64,
    wall_s: f64,
    bb_nodes: Vec<f64>,
    hits: u64,
    misses: u64,
    scans: smdb_query::ScanStats,
}

/// Runs the decision loop from the layers' public calls: the body of
/// `Driver::run_bucket` (scan, plan-cache record, KPI record, close,
/// drain) and of `Driver::force_tune` (forecast, tick, analyze, LP
/// order, per-feature `tune_in_order`, apply, predicted cost). Left out:
/// the decision trail, the stored configuration instances and the
/// tuning counters, which `force_tune` keeps privately and no decision
/// reads.
fn traced_pass(
    fixture: &Fixture,
    inputs: &Inputs,
    trace: &mut Trace,
    epoch: Instant,
    checks: &mut Checks,
) -> Result<TracedPass> {
    let Fixture {
        db, driver, model, ..
    } = fixture;
    let mut lane = Lane::new(epoch);
    let mut out = TracedPass::default();
    let what_if = driver.multi().what_if();
    let cache_before = what_if.cache_stats().unwrap_or_default();
    let mut wall = 0.0;
    let mut request = 0u64;
    for (d, bucket) in inputs.buckets.iter().enumerate() {
        let started = Instant::now();
        let config = db.engine().current_config();
        for q in bucket {
            let run = lane.enter("query.run", request);
            let output = lane.span("storage.scan", request, || {
                db.engine()
                    .scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())
            })?;
            db.note_scan_output(&output);
            lane.span("query.record", request, || {
                db.record_execution(q, output.sim_cost)
            });
            lane.exit(run);
            lane.span("core.record_scan", request, || {
                driver.record_query(output.sim_cost)
            });
            lane.span("cost.observe", request, || {
                model.observe(&db.engine(), q, &config, output.sim_cost)
            })?;
            request += 1;
        }
        lane.span("core.close_bucket", d as u64, || driver.close_bucket());
        lane.span("core.drain", d as u64, || driver.drain_pending())?;

        let decide = lane.enter("core.decide", d as u64);
        let prior = db.engine().current_config();
        let forecast = lane.span("forecast.predict", d as u64, || driver.forecast());
        let _tick = lane.span("core.tick", d as u64, || driver.tick());
        let constraints = driver.constraints();
        let (report, solution, chosen) = {
            let engine = db.engine();
            let report = lane.span("core.analyze", d as u64, || {
                driver
                    .multi()
                    .analyze(&engine, &forecast, &prior, &constraints)
            })?;
            let solution = lane.span("lp.solve", d as u64, || driver.multi().lp_order(&report))?;
            let mut config = prior.clone();
            for &idx in &solution.order {
                let run = lane.span("core.tune_in_order", d as u64, || {
                    driver
                        .multi()
                        .tune_in_order(&engine, &forecast, &config, &constraints, &[idx])
                })?;
                config = run.final_config;
            }
            (report, solution, config)
        };
        let actions = prior.diff(&chosen);
        lane.span("storage.apply", d as u64, || db.apply_config(&actions))?;
        if let Some(expected) = forecast.expected() {
            lane.span("cost.workload_cost", d as u64, || {
                what_if.workload_cost(&db.engine(), &expected.workload, &chosen)
            })?;
        }
        lane.exit(decide);
        wall += started.elapsed().as_secs_f64();

        out.actions += actions.len() as u64;
        if actions.is_empty() {
            out.noop += 1;
        }
        out.bb_nodes.push(solution.nodes as f64);
        let brute = smdb_lp::permutation::brute_force_order(&report.ordering_problem()?)?;
        let tol = 1e-6 * brute.objective.abs().max(1.0);
        checks.check((solution.objective - brute.objective).abs() <= tol, || {
            format!(
                "LP objective {} differs from brute force {}",
                solution.objective, brute.objective
            )
        });
        for q in &inputs.verify {
            let out =
                db.engine()
                    .scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())?;
            let ok = lane.span("query.verify", d as u64, || inputs.oracle.verify(q, &out));
            checks.check(ok == Some(true), || {
                format!("wrong answer for {} after a decision", q.label())
            });
        }
    }
    let cache = what_if
        .cache_stats()
        .unwrap_or_default()
        .since(&cache_before);
    out.hits = cache.hits;
    out.misses = cache.misses;
    out.final_config = db.engine().current_config().fingerprint();
    out.scans = db.scan_stats();
    out.wall_s = wall;
    trace.absorb(lane);
    Ok(out)
}

/// Per-request sums of the spans named `name`, in ms.
fn per_request_ms(trace: &Trace, name: &str, requests: usize) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    let durations = trace.durations_us(name);
    let ids = trace.requests(name);
    for (us, id) in durations.into_iter().zip(ids) {
        *sums.entry(id).or_default() += us / 1e3;
    }
    debug_assert!(sums.len() <= requests);
    sums.into_values().collect()
}

pub fn traced(args: &Args, checks: &mut Checks) -> Result<Sheet> {
    let epoch = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_last = (0u64, 0usize, 0u64);
    let mut trace = Trace::default();
    let mut pass = TracedPass::default();
    let mut engine_mb = 0.0;
    let rounds = repeat_rounds(args.seconds, 2, 20, |round| {
        let inputs = inputs(round_seed(args.seed, round))?;
        let Fixture { db, driver, .. } = build()?;
        db.plan_cache().clear();
        let mut wall = 0.0;
        let mut actions = 0u64;
        let mut noop = 0usize;
        for bucket in &inputs.buckets {
            let prior = db.engine().current_config();
            let (report, secs) = timed(|| -> Result<_> {
                driver.run_bucket(bucket)?;
                driver.force_tune()
            });
            let report = report?;
            wall += secs;
            let chosen = crate::common::chosen_config(&report, &prior);
            let n = prior.diff(&chosen).len() as u64;
            actions += n;
            if n == 0 {
                noop += 1;
            }
            check_lp_against_brute_force(&driver, &prior, checks)?;
            verify_templates(&db, &inputs, checks)?;
        }
        untraced_walls.push(wall);
        untraced_last = (actions, noop, db.engine().current_config().fingerprint());

        let fixture = build()?;
        fixture.db.plan_cache().clear();
        let mut round_trace = Trace::default();
        pass = traced_pass(&fixture, &inputs, &mut round_trace, epoch, checks)?;
        traced_walls.push(pass.wall_s);
        engine_mb = fixture.db.engine().memory_report().total_bytes() as f64 / 1e6;
        trace = round_trace;
        Ok(())
    })?;
    println!(
        "  untraced: {DECISIONS} decisions, {} actions, {} no-op, final config {:#x}",
        untraced_last.0, untraced_last.1, untraced_last.2
    );
    println!(
        "  traced:   {DECISIONS} decisions, {} actions, {} no-op, final config {:#x}",
        pass.actions, pass.noop, pass.final_config
    );
    println!(
        "  traced loop leaves out: the decision trail, stored configuration instances and \
         tuning counters that force_tune keeps privately"
    );
    checks.check(
        untraced_last == (pass.actions, pass.noop, pass.final_config),
        || "traced decisions differ from the untraced decisions".to_string(),
    );
    println!("  rounds {rounds}; spans written for the last traced pass");
    write_spans(args, &trace);

    let mut sheet = crate::zero_layer_sheet();
    let scans = trace.durations_us("storage.scan");
    sheet.set("storage.scan_us_p50", median(&scans), "us");
    sheet.set("storage.scan_us_p99", quantile(&scans, 0.99), "us");
    set_chunk_shares(
        &mut sheet,
        [
            pass.scans.chunks_pruned,
            pass.scans.chunks_index,
            pass.scans.chunks_kernel,
            pass.scans.chunks_scalar,
        ],
    );
    sheet.set(
        "storage.apply_ms",
        median(&trace.durations_us("storage.apply")) / 1e3,
        "ms",
    );
    sheet.set("storage.engine_mb", engine_mb, "MB");
    sheet.set(
        "query.run_us_p50",
        median(&trace.durations_us("query.run")),
        "us",
    );
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
    serving_control_metrics(&mut sheet, &trace, pass.wall_s, trace.total_ms("query.run"));
    sheet.set(
        "core.noop_tuning_share",
        share(pass.noop as f64, DECISIONS as f64),
        "ratio",
    );
    sheet.set(
        "core.analyze_ms",
        median(&trace.durations_us("core.analyze")) / 1e3,
        "ms",
    );
    sheet.set(
        "core.tune_in_order_ms",
        median(&per_request_ms(&trace, "core.tune_in_order", DECISIONS)),
        "ms",
    );
    sheet.set(
        "cost.whatif_hit_rate",
        share(pass.hits as f64, (pass.hits + pass.misses) as f64),
        "ratio",
    );
    sheet.set(
        "cost.workload_cost_us",
        median(&trace.durations_us("cost.workload_cost")),
        "us",
    );
    sheet.set(
        "forecast.predict_us",
        median(&trace.durations_us("forecast.predict")),
        "us",
    );
    sheet.set(
        "lp.solve_ms",
        median(&trace.durations_us("lp.solve")) / 1e3,
        "ms",
    );
    sheet.set("lp.bb_nodes", mean(&pass.bb_nodes), "count");
    set_trace_health(&mut sheet, &trace, &untraced_walls, &traced_walls);
    Ok(sheet)
}
