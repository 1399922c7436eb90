//! Multi-tenant sharded soak: the scatter-gather benchmark.
//!
//! ```text
//! cargo run --release -p smdb-bench --bin soak_mt                   # defaults
//! cargo run --release -p smdb-bench --bin soak_mt -- --shards 8 --tenants 2000
//! cargo run --release -p smdb-bench --bin soak_mt -- --zipf 1.4 --workers 4
//! cargo run --release -p smdb-bench --bin soak_mt -- --json BENCH_multitenant.json
//! cargo run --release -p smdb-bench --bin soak_mt -- --trail TRAIL_mt.json
//! ```
//!
//! Serves Zipf-skewed traffic from thousands of seeded tenants against
//! a sharded engine: tenant queries route to their home shard, global
//! queries scatter-gather, every shard tunes itself off shard-local KPI
//! snapshots, and a global arbiter re-splits one index-memory budget
//! across the shard drivers each bucket. Prints a summary and, with
//! `--json PATH`, writes `BENCH_multitenant.json` (aggregate qps,
//! per-tenant p95, noisy-neighbor delta, per-shard tuning actions,
//! budget compliance). `--trail PATH` writes the merged smdb-trail/v2
//! decision trail (per-shard tuning + global `budget_rebalanced`
//! events).

use smdb_bench::{parse_num, report};
use smdb_query::result_hash;
use smdb_runtime::{MtSoakConfig, MtSoakOutcome, ShardedRuntime};
use smdb_shard::{build_sharded, MultiTenantConfig, ShardSpec, TenantQuery};

/// Tenants must clear this many queries before their p95 is aggregated.
const P95_MIN_QUERIES: u64 = 20;
/// Queries replayed against a 1-shard build for the digest-invariance
/// witness.
const DIGEST_CHECK_QUERIES: usize = 1_000;

struct Args {
    shards: usize,
    tenants: usize,
    zipf: f64,
    workers: usize,
    buckets: usize,
    seed: u64,
    json_path: Option<String>,
    trail_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        shards: 4,
        tenants: 1200,
        zipf: 1.1,
        workers: 2,
        buckets: 10,
        seed: 42,
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
            "--shards" => parsed.shards = parse_num(&take("--shards"), "--shards"),
            "--tenants" => parsed.tenants = parse_num(&take("--tenants"), "--tenants"),
            "--zipf" => parsed.zipf = parse_num(&take("--zipf"), "--zipf"),
            "--workers" => parsed.workers = parse_num(&take("--workers"), "--workers"),
            "--buckets" => parsed.buckets = parse_num(&take("--buckets"), "--buckets"),
            "--seed" => parsed.seed = parse_num(&take("--seed"), "--seed"),
            "--json" => parsed.json_path = Some(take("--json")),
            "--trail" => parsed.trail_path = Some(take("--trail")),
            other => {
                eprintln!(
                    "unknown argument {other} (valid: --shards N --tenants N --zipf S \
                     --workers N --buckets N --seed N --json PATH --trail PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    if parsed.shards == 0 {
        eprintln!("--shards must be at least 1");
        std::process::exit(2);
    }
    parsed
}

/// The noisy-neighbor probe: among *quiet* tenants (at or below the
/// median query count), how much worse is p95 for those homed on the
/// hottest tenant's shard than for those homed elsewhere? Positive
/// means the hot shard's neighbors pay; ~0 means per-shard tuning and
/// the budget split kept them whole. `None` when the hot tenant has no
/// unique home shard (hash partitioning) or a side has no tenants.
fn noisy_neighbor_delta_ms(runtime: &ShardedRuntime, outcome: &MtSoakOutcome) -> Option<f64> {
    let hot = outcome
        .tenant_stats
        .iter()
        .max_by_key(|&(&tenant, stats)| (stats.queries, std::cmp::Reverse(tenant)))
        .map(|(&tenant, _)| tenant)?;
    let router = runtime.database().router();
    let hot_shard = router.unique_shard_for_tenant(hot)?;
    let mut counts: Vec<u64> = outcome.tenant_stats.values().map(|s| s.queries).collect();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    let (mut on, mut off): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (&tenant, stats) in &outcome.tenant_stats {
        if tenant == hot || stats.queries > median {
            continue;
        }
        match router.unique_shard_for_tenant(tenant) {
            Some(s) if s == hot_shard => on.push(stats.p95_ms),
            Some(_) => off.push(stats.p95_ms),
            None => {}
        }
    }
    if on.is_empty() || off.is_empty() {
        return None;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Some(mean(&on) - mean(&off))
}

/// Replays a sample of the plan against a 1-shard build and the soaked
/// N-shard database; equal digest sums are the shard-count-invariance
/// witness the gate pins exactly.
fn digest_invariant(
    runtime: &ShardedRuntime,
    cfg: &MultiTenantConfig,
    sample: &[TenantQuery],
) -> bool {
    let single = match build_sharded(cfg, &ShardSpec::range(1)) {
        Ok(db) => db,
        Err(_) => return false,
    };
    let mut a = 0u64;
    let mut b = 0u64;
    for tq in sample {
        let Ok(one) = single.run_query(&tq.query) else {
            return false;
        };
        let Ok(many) = runtime.database().run_query(&tq.query) else {
            return false;
        };
        a = a.wrapping_add(result_hash(&tq.query, &one.output));
        b = b.wrapping_add(result_hash(&tq.query, &many.output));
    }
    a == b
}

fn main() {
    let args = parse_args();
    let tenants = MultiTenantConfig {
        tenants: args.tenants,
        zipf_s: args.zipf,
        seed: args.seed,
        ..MultiTenantConfig::default()
    };
    let config = MtSoakConfig {
        shards: args.shards,
        tenants: tenants.clone(),
        workers: args.workers,
        buckets: args.buckets,
        ..MtSoakConfig::default()
    };
    let budget_bytes = config.budget_bytes;
    let runtime = match ShardedRuntime::new(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fixture failed: {e}");
            std::process::exit(1);
        }
    };
    let plan = runtime.plan();
    let planned: usize = plan.iter().map(Vec::len).sum();
    println!(
        "soak-mt: {} shards, {} tenants (zipf {}), {} buckets / {} queries, {} workers, seed {}",
        args.shards,
        args.tenants,
        args.zipf,
        plan.len(),
        planned,
        args.workers,
        args.seed
    );

    let outcome = match runtime.run(&plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("soak-mt failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "served {} queries in {:.2}s ({:.0} q/s), {} errors, {} wrong results",
        outcome.queries,
        outcome.wall_seconds,
        outcome.sustained_qps,
        outcome.errors,
        outcome.wrong_results
    );
    println!(
        "routing: {} routed to a single shard, {} scatter-gathered, {} morsels",
        outcome.routed, outcome.scattered, outcome.morsels
    );

    let mean_p95 = outcome.mean_tenant_p95_ms(P95_MIN_QUERIES);
    let neighbor_delta = noisy_neighbor_delta_ms(&runtime, &outcome);
    println!(
        "tenants: {} active, mean p95 {:.4} ms (>= {} queries), noisy-neighbor delta {} ms",
        outcome.tenant_stats.len(),
        mean_p95,
        P95_MIN_QUERIES,
        neighbor_delta.map_or("n/a".to_string(), |d| format!("{d:.4}")),
    );
    for (s, tuning) in outcome.shard_tuning.iter().enumerate() {
        println!(
            "shard {s}: {} tunings, {} actions applied, {} rollbacks, paused: {}",
            tuning.tunings_run, tuning.actions_applied, tuning.rollbacks, tuning.paused
        );
    }
    println!(
        "organizer: {} of {} shards tuned, budget {} B, peak configured {} B, \
         within budget every bucket: {}",
        outcome.shards_tuned,
        args.shards,
        budget_bytes,
        outcome.max_used_bytes,
        outcome.budget_ok_every_bucket
    );

    let sample: Vec<TenantQuery> = plan
        .iter()
        .flatten()
        .take(DIGEST_CHECK_QUERIES)
        .cloned()
        .collect();
    let invariant = digest_invariant(&runtime, &tenants, &sample);
    println!(
        "digest invariance vs 1 shard over {} queries: {}",
        sample.len(),
        invariant
    );

    report::record("multitenant", "shards", (args.shards as u64).into());
    report::record("multitenant", "tenants", (args.tenants as u64).into());
    report::record("multitenant", "zipf_s", args.zipf.into());
    report::record("multitenant", "workers", (args.workers as u64).into());
    report::record("multitenant", "seed", args.seed.into());
    report::record("multitenant", "buckets", (plan.len() as u64).into());
    report::record("multitenant", "queries", outcome.queries.into());
    report::record("multitenant", "errors", outcome.errors.into());
    report::record("multitenant", "wrong_results", outcome.wrong_results.into());
    report::record("multitenant", "result_digest", outcome.result_digest.into());
    report::record("multitenant", "digest_invariant", invariant.into());
    report::record("multitenant", "routed", outcome.routed.into());
    report::record("multitenant", "scattered", outcome.scattered.into());
    report::record("multitenant", "morsels", outcome.morsels.into());
    report::record("multitenant", "wall_s", outcome.wall_seconds.into());
    report::record("multitenant", "sustained_qps", outcome.sustained_qps.into());
    report::record(
        "multitenant",
        "tenants_active",
        (outcome.tenant_stats.len() as u64).into(),
    );
    report::record("multitenant", "mean_tenant_p95_ms", mean_p95.into());
    report::record(
        "multitenant",
        "noisy_neighbor_delta_ms",
        neighbor_delta.unwrap_or(0.0).into(),
    );
    report::record(
        "multitenant",
        "shards_tuned",
        (outcome.shards_tuned as u64).into(),
    );
    let mut actions_total = 0u64;
    let mut rollbacks_total = 0u64;
    for (s, tuning) in outcome.shard_tuning.iter().enumerate() {
        actions_total += tuning.actions_applied;
        rollbacks_total += tuning.rollbacks as u64;
        report::record(
            "multitenant",
            &format!("shard{s}_actions_applied"),
            tuning.actions_applied.into(),
        );
        report::record(
            "multitenant",
            &format!("shard{s}_tunings_run"),
            tuning.tunings_run.into(),
        );
    }
    report::record("multitenant", "actions_applied", actions_total.into());
    report::record("multitenant", "rollbacks", rollbacks_total.into());
    report::record("multitenant", "budget_bytes", budget_bytes.into());
    report::record(
        "multitenant",
        "max_used_bytes",
        outcome.max_used_bytes.into(),
    );
    report::record(
        "multitenant",
        "budget_ok_every_bucket",
        outcome.budget_ok_every_bucket.into(),
    );

    if let Some(path) = args.trail_path {
        let doc = outcome.trail.to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote merged decision trail to {path}");
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
