//! Online serving soak: the runtime benchmark.
//!
//! ```text
//! cargo run --release -p smdb-bench --bin soak                      # defaults
//! cargo run --release -p smdb-bench --bin soak -- --workers 8
//! cargo run --release -p smdb-bench --bin soak -- --json BENCH_runtime.json
//! cargo run --release -p smdb-bench --bin soak -- --trail TRAIL_soak.json
//! ```
//!
//! Serves a seeded phased query stream with a worker pool while the
//! background tuning thread reconfigures the store online, with
//! injected apply failures exercising the rollback path. Prints a
//! summary and, with `--json PATH`, writes the machine-readable
//! `BENCH_runtime.json` (sustained qps, p95 cold vs tuned, actions
//! applied / rolled back, injected failures).

use std::sync::Arc;
use std::time::Instant;

use smdb_bench::{parse_num, report};
use smdb_common::Cost;
use smdb_runtime::{events_database, generate, FaultPlan, Runtime, RuntimeConfig, StreamConfig};

struct Args {
    workers: usize,
    scan_threads: usize,
    morsel_chunks: usize,
    seed: u64,
    buckets: usize,
    kernels: bool,
    json_path: Option<String>,
    trail_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        workers: 4,
        scan_threads: 1,
        morsel_chunks: smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS,
        seed: 42,
        buckets: 40,
        kernels: true,
        json_path: None,
        trail_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--workers" => parsed.workers = parse_num(&take("--workers"), "--workers"),
            "--scan-threads" => {
                parsed.scan_threads = parse_num(&take("--scan-threads"), "--scan-threads");
            }
            "--morsel-chunks" => {
                parsed.morsel_chunks = parse_num(&take("--morsel-chunks"), "--morsel-chunks");
            }
            "--seed" => parsed.seed = parse_num(&take("--seed"), "--seed"),
            "--buckets" => parsed.buckets = parse_num(&take("--buckets"), "--buckets"),
            "--no-kernels" => parsed.kernels = false,
            "--json" => parsed.json_path = Some(take("--json")),
            "--trail" => parsed.trail_path = Some(take("--trail")),
            other => {
                eprintln!(
                    "unknown argument {other} (valid: --workers N --scan-threads N \
                     --morsel-chunks N --seed N --buckets N --no-kernels \
                     --json PATH --trail PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let stream = StreamConfig {
        seed: args.seed,
        buckets: args.buckets,
        ..StreamConfig::default()
    };
    let (db, table) = match events_database(24, 1_000) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("fixture failed: {e}");
            std::process::exit(1);
        }
    };
    if !args.kernels {
        db.engine_mut().set_kernels_enabled(false);
    }
    let plan = generate(table, 24_000, &stream);
    let planned: usize = plan.iter().map(|b| b.queries.len()).sum();
    let runtime = Runtime::new(
        Arc::clone(&db),
        RuntimeConfig {
            workers: args.workers,
            bucket_capacity: Cost(800.0),
            slice_budget: 6,
            fault_plan: FaultPlan::failing_attempts([0, 1, 2]),
            sla_p95: Some(Cost(1.0)),
            scan_threads: args.scan_threads,
            morsel_chunks: args.morsel_chunks,
            ..RuntimeConfig::default()
        },
    );

    println!(
        "soak: {} buckets / {} queries, {} workers, {} scan threads (morsels of {} chunks), seed {}",
        plan.len(),
        planned,
        args.workers,
        args.scan_threads,
        args.morsel_chunks,
        args.seed
    );
    // Per-(target, name) span tallies: coarse spans only (bucket, tuning
    // tick, worker, drain), so the subscriber costs nothing per query.
    let spans = smdb_obs::CountingSubscriber::new();
    smdb_obs::trace::install(spans.clone());
    let start = Instant::now();
    let outcome = match runtime.run(&plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("soak failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let qps = outcome.stats.queries as f64 / wall.max(1e-9);

    println!(
        "served {} queries in {:.2}s ({:.0} q/s), {} errors, {} wrong results",
        outcome.stats.queries, wall, qps, outcome.stats.errors, outcome.stats.wrong_results
    );
    println!(
        "latency (sim): cold mean {} p95 {} -> tuned mean {} p95 {}",
        outcome.cold_mean, outcome.cold_p95, outcome.tuned_mean, outcome.tuned_p95
    );
    println!(
        "tuning: {} runs, {} actions applied ({} deferred along the way), {} apply attempts",
        outcome.tuning.tunings_run,
        outcome.tuning.actions_applied,
        outcome.tuning.actions_deferred,
        outcome.apply_attempts
    );
    println!(
        "faults: {} injected, {} rollbacks, {} stored config instances, tuning paused: {}",
        outcome.injected_failures,
        outcome.tuning.rollbacks,
        outcome.tuning.stored_instances,
        outcome.tuning.paused
    );

    let scans = db.scan_stats();
    println!(
        "scans: {} parallel / {} inline, {} morsels dispatched",
        scans.parallel_scans, scans.inline_scans, scans.morsels
    );
    println!(
        "access paths: {} pruned / {} index / {} kernel / {} scalar chunks, {} kernel batches",
        scans.chunks_pruned,
        scans.chunks_index,
        scans.chunks_kernel,
        scans.chunks_scalar,
        scans.kernel_batches
    );

    report::record("soak", "workers", (args.workers as u64).into());
    report::record("soak", "scan_threads", (args.scan_threads as u64).into());
    report::record("soak", "morsel_chunks", (args.morsel_chunks as u64).into());
    report::record("soak", "parallel_scans", scans.parallel_scans.into());
    report::record("soak", "inline_scans", scans.inline_scans.into());
    report::record("soak", "morsels_dispatched", scans.morsels.into());
    report::record("soak", "chunks_pruned", scans.chunks_pruned.into());
    report::record("soak", "chunks_index", scans.chunks_index.into());
    report::record("soak", "chunks_kernel", scans.chunks_kernel.into());
    report::record("soak", "chunks_scalar", scans.chunks_scalar.into());
    report::record("soak", "kernel_batches", scans.kernel_batches.into());
    report::record("soak", "seed", args.seed.into());
    report::record(
        "soak",
        "buckets_served",
        (outcome.buckets_served as u64).into(),
    );
    report::record("soak", "queries", outcome.stats.queries.into());
    report::record("soak", "errors", outcome.stats.errors.into());
    report::record("soak", "wrong_results", outcome.stats.wrong_results.into());
    report::record("soak", "result_digest", outcome.stats.result_digest.into());
    report::record("soak", "wall_s", wall.into());
    report::record("soak", "sustained_qps", qps.into());
    report::record("soak", "cold_mean_ms", outcome.cold_mean.ms().into());
    report::record("soak", "cold_p95_ms", outcome.cold_p95.ms().into());
    report::record("soak", "tuned_mean_ms", outcome.tuned_mean.ms().into());
    report::record("soak", "tuned_p95_ms", outcome.tuned_p95.ms().into());
    report::record("soak", "tunings_run", outcome.tuning.tunings_run.into());
    report::record(
        "soak",
        "actions_applied",
        outcome.tuning.actions_applied.into(),
    );
    report::record(
        "soak",
        "actions_deferred",
        outcome.tuning.actions_deferred.into(),
    );
    report::record(
        "soak",
        "apply_attempts",
        (outcome.apply_attempts as u64).into(),
    );
    report::record(
        "soak",
        "apply_failures",
        outcome.tuning.apply_failures.into(),
    );
    report::record(
        "soak",
        "injected_failures",
        (outcome.injected_failures as u64).into(),
    );
    report::record(
        "soak",
        "rollbacks",
        (outcome.tuning.rollbacks as u64).into(),
    );
    report::record(
        "soak",
        "stored_instances",
        (outcome.tuning.stored_instances as u64).into(),
    );

    // Observability section: span tallies, what-if cache traffic and the
    // flight-recorder decision trail.
    smdb_obs::trace::uninstall();
    let recorder = runtime.driver().flight_recorder();
    let events = recorder.events();
    let rollback_events = events
        .iter()
        .filter(|(_, e)| e.kind() == "action_rolled_back")
        .count();
    let cache_hits = smdb_obs::metrics::counter("driver.whatif_cache_hits").get();
    let cache_misses = smdb_obs::metrics::counter("driver.whatif_cache_misses").get();
    let hit_rate = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };
    println!(
        "obs: {} spans, what-if cache {:.1}% hit ({} / {}), trail {} events ({} rollbacks)",
        spans.total(),
        hit_rate * 100.0,
        cache_hits,
        cache_misses,
        events.len(),
        rollback_events
    );
    report::record("obs", "spans_total", spans.total().into());
    for (name, count) in spans.snapshot() {
        report::record("obs", &format!("spans.{name}"), count.into());
    }
    report::record("obs", "whatif_cache_hits", cache_hits.into());
    report::record("obs", "whatif_cache_misses", cache_misses.into());
    report::record("obs", "whatif_cache_hit_rate", hit_rate.into());
    report::record("obs", "trail_events", (events.len() as u64).into());
    report::record("obs", "trail_dropped", recorder.dropped().into());
    report::record(
        "obs",
        "trail_rollback_events",
        (rollback_events as u64).into(),
    );

    if let Some(path) = args.trail_path {
        let doc = recorder.to_json().to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote decision trail to {path}");
    }

    if let Some(path) = args.json_path {
        let doc = report::to_json().to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote metrics to {path}");
    }
}
