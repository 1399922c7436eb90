//! Wall-clock benchmark of the self-managing database.
//!
//! ```text
//! perfbench --workload <phased|tenants|retune|crash_recover> --seed N \
//!           --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics untraced, by
//! timing each layer's public entry point (`Runtime::run`,
//! `ShardedRuntime::run`, `Driver::force_tune`, `recover_runtime`,
//! `Database::run_query`). With `--trace 1` it serves the same workload
//! once more through a loop of the benchmark's own that calls the
//! layers' public functions in the runtime's order, recording spans
//! around each call, and reports the per-layer metrics. Every answer is
//! checked; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed check exits with 1.

mod common;
mod layers;
mod phased;
mod retune;
mod stats;
mod tenants;
mod trace;

use std::path::PathBuf;

use common::{Args, Checks, Sheet};

/// End-to-end metrics every workload reports untraced, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("serve_qps", "q/s"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("cold_query_us_p50", "us"),
    ("decide_ms_p50", "ms"),
    ("decide_ms_p90", "ms"),
    ("tuned_cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports traced, with units. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.scan_us_p50", "us"),
    ("storage.scan_us_p99", "us"),
    ("storage.chunks_pruned_share", "ratio"),
    ("storage.chunks_index_share", "ratio"),
    ("storage.chunks_kernel_share", "ratio"),
    ("storage.chunks_scalar_share", "ratio"),
    ("storage.morsels_per_scan", "count"),
    ("storage.pool_query_us_p50", "us"),
    ("storage.apply_ms", "ms"),
    ("storage.engine_mb", "MB"),
    ("query.run_us_p50", "us"),
    ("query.plan_cache_record_us", "us"),
    ("query.oracle_verify_us", "us"),
    ("runtime.oracle_capture_ms", "ms"),
    ("runtime.barrier_us", "us"),
    ("runtime.worker_idle_share", "ratio"),
    ("core.close_bucket_us", "us"),
    ("core.tick_us", "us"),
    ("core.drain_ms", "ms"),
    ("core.decide_ms", "ms"),
    ("core.noop_tuning_share", "ratio"),
    ("core.analyze_ms", "ms"),
    ("core.tune_in_order_ms", "ms"),
    ("core.selfmgmt_share", "ratio"),
    ("core.monitoring_share", "ratio"),
    ("cost.whatif_hit_rate", "ratio"),
    ("cost.workload_cost_us", "us"),
    ("forecast.predict_us", "us"),
    ("lp.solve_ms", "ms"),
    ("lp.bb_nodes", "count"),
    ("shard.route_us", "us"),
    ("shard.routed_us_p50", "us"),
    ("shard.scatter_us_p50", "us"),
    ("shard.scatter_share", "ratio"),
    ("shard.rebalance_us", "us"),
    ("durable.boundary_us", "us"),
    ("durable.snapshot_ms", "ms"),
    ("durable.wal_bytes", "bytes"),
    ("durable.snapshot_bytes", "bytes"),
    ("durable.recover_decode_ms", "ms"),
    ("durable.rebuild_ms", "ms"),
    ("durable.recovery_ms_p50", "ms"),
    ("durable.store_amp", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.trace_coverage", "ratio"),
];

/// A per-layer sheet with every metric at 0, for workloads to fill.
pub fn zero_layer_sheet() -> Sheet {
    let mut sheet = Sheet::default();
    for (name, unit) in PER_LAYER {
        sheet.set(name, 0.0, unit);
    }
    sheet
}

const WORKLOADS: &[&str] = &["phased", "tenants", "retune", "crash_recover"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("{flag}: invalid value {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Formats a finite number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(checks: &Checks, sheet: &Sheet) -> String {
    let metrics: Vec<String> = sheet
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc()
    );
    let mut checks = Checks::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("phased", false) => phased::untraced(&args, &mut checks, false),
        ("phased", true) => phased::traced(&args, &mut checks, false),
        ("crash_recover", false) => phased::untraced(&args, &mut checks, true),
        ("crash_recover", true) => phased::traced(&args, &mut checks, true),
        ("tenants", false) => tenants::untraced(&args, &mut checks),
        ("tenants", true) => tenants::traced(&args, &mut checks),
        ("retune", false) => retune::untraced(&args, &mut checks),
        ("retune", true) => retune::traced(&args, &mut checks),
        _ => unreachable!("workload validated by parse_args"),
    };
    let sheet = match result {
        Ok(sheet) => sheet,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let expected: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut reported = Sheet::default();
    for (name, unit) in expected {
        match sheet.get(name) {
            Some(v) => {
                println!("  {name:<30} {:>16} {unit}", number(v));
                reported.set(name, v, unit);
            }
            None => {
                eprintln!("perfbench: metric {name} missing");
                std::process::exit(1);
            }
        }
    }
    let sheet = reported;
    for message in checks.messages() {
        eprintln!("check failed: {message}");
    }
    println!("{}", result_line(&checks, &sheet));
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
