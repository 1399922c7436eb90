//! Kill-and-recover benchmark: the durability layer's RTO measurement.
//!
//! ```text
//! cargo run --release -p smdb-bench --bin recover                   # defaults
//! cargo run --release -p smdb-bench --bin recover -- --kill-bucket 27
//! cargo run --release -p smdb-bench --bin recover -- --dir target/ci/recover_store
//! cargo run --release -p smdb-bench --bin recover -- --json BENCH_recovery.json
//! ```
//!
//! Runs the soak fixture durably twice: once uninterrupted (the
//! reference digest and the write-amplification KPI), once hard-stopped
//! mid-bucket and then recovered and resumed. Prints a summary and,
//! with `--json PATH`, writes the machine-readable `BENCH_recovery.json`
//! (recovery time, replayed/dropped WAL records, digest match) that
//! `bench_gate --recovery` checks against the committed baseline.
//!
//! With `--dir PATH` the durable store is a real directory (fsynced
//! appends); the default is in-memory. The directory is wiped first so
//! runs are hermetic.

use std::sync::Arc;
use std::time::Instant;

use smdb_bench::{parse_num, report};
use smdb_common::Cost;
use smdb_core::{DurabilityConfig, DurabilityManager};
use smdb_durable::{DirPersistence, MemPersistence, Persistence};
use smdb_query::Database;
use smdb_runtime::{
    events_database, generate, recover_and_resume, BucketPlan, KillSpec, Runtime, RuntimeConfig,
    StreamConfig,
};

struct Args {
    workers: usize,
    seed: u64,
    buckets: usize,
    kill_bucket: usize,
    kill_after: usize,
    snapshot_every: u64,
    dir: Option<String>,
    json_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        workers: 4,
        seed: 42,
        buckets: 40,
        kill_bucket: 27,
        kill_after: 100,
        snapshot_every: 8,
        dir: None,
        json_path: None,
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
            "--seed" => parsed.seed = parse_num(&take("--seed"), "--seed"),
            "--buckets" => parsed.buckets = parse_num(&take("--buckets"), "--buckets"),
            "--kill-bucket" => {
                parsed.kill_bucket = parse_num(&take("--kill-bucket"), "--kill-bucket");
            }
            "--kill-after" => {
                parsed.kill_after = parse_num(&take("--kill-after"), "--kill-after");
            }
            "--snapshot-every" => {
                parsed.snapshot_every = parse_num(&take("--snapshot-every"), "--snapshot-every");
            }
            "--dir" => parsed.dir = Some(take("--dir")),
            "--json" => parsed.json_path = Some(take("--json")),
            other => {
                eprintln!(
                    "unknown argument {other} (valid: --workers N --seed N --buckets N \
                     --kill-bucket N --kill-after N --snapshot-every N --dir PATH --json PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn fixture(args: &Args) -> (Arc<Database>, Vec<BucketPlan>) {
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
    (db, generate(table, 24_000, &stream))
}

/// No injected apply faults: the tuner's rollback cooldown is
/// thread-local and not part of the boundary record (see
/// `smdb_runtime::recover`), so the kill-and-recover equality contract
/// only holds on the fault-free path.
fn config(args: &Args) -> RuntimeConfig {
    RuntimeConfig {
        workers: args.workers,
        bucket_capacity: Cost(800.0),
        slice_budget: 6,
        sla_p95: Some(Cost(1.0)),
        ..RuntimeConfig::default()
    }
}

fn durable_runtime(db: Arc<Database>, store: Arc<dyn Persistence>, args: &Args) -> Runtime {
    let dconfig = DurabilityConfig {
        snapshot_every_buckets: args.snapshot_every,
    };
    Runtime::new_durable(
        db,
        config(args),
        Arc::new(DurabilityManager::new(store, dconfig)),
    )
}

fn open_store(args: &Args) -> Arc<dyn Persistence> {
    match &args.dir {
        None => Arc::new(MemPersistence::new()),
        Some(dir) => {
            // Hermetic: a stale store from a previous run must not leak
            // into this one's recovery.
            let _ = std::fs::remove_dir_all(dir);
            match DirPersistence::open(dir) {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    eprintln!("cannot open store dir {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn main() {
    let args = parse_args();
    if args.kill_bucket >= args.buckets {
        eprintln!(
            "--kill-bucket {} must lie inside the {}-bucket plan",
            args.kill_bucket, args.buckets
        );
        std::process::exit(2);
    }

    // Uninterrupted durable run: the reference digest and the
    // write-amplification KPI of the chosen snapshot cadence.
    let (db, plan) = fixture(&args);
    let reference = durable_runtime(db, Arc::new(MemPersistence::new()), &args);
    reference.driver().flight_recorder().set_auto_dump(false);
    let expected = match reference.run(&plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("reference soak failed: {e}");
            std::process::exit(1);
        }
    };
    let durability = expected.durability.clone().expect("durable run has stats");
    println!(
        "reference: {} queries, digest {:#018x}; wal {} records / {} bytes, \
         {} snapshots / {} bytes (write amplification {:.2})",
        expected.stats.queries,
        expected.stats.result_digest,
        durability.wal_records,
        durability.wal_bytes,
        durability.snapshots_taken,
        durability.snapshot_bytes,
        durability.write_amplification
    );

    // The dying run: hard-stopped mid-bucket.
    let (db, _) = fixture(&args);
    let store = open_store(&args);
    let dying = durable_runtime(db, Arc::clone(&store), &args);
    dying.driver().flight_recorder().set_auto_dump(false);
    let kill = KillSpec {
        bucket: args.kill_bucket,
        after_queries: args.kill_after,
    };
    if let Err(e) = dying.run_killed(&plan, kill) {
        eprintln!("killed run failed: {e}");
        std::process::exit(1);
    }
    drop(dying);

    // Recover and resume.
    let dconfig = DurabilityConfig {
        snapshot_every_buckets: args.snapshot_every,
    };
    let start = Instant::now();
    let recovered = match recover_and_resume(store, dconfig, config(&args), &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recovery failed: {e}");
            std::process::exit(1);
        }
    };
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let recovery_ms = recovered.recovery_micros as f64 / 1e3;
    let digest_match = recovered.outcome.stats.result_digest == expected.stats.result_digest;

    println!(
        "killed in bucket {} after {} queries; recovered to bucket {} in {:.2} ms \
         ({} records replayed, {} dropped), resumed tail in {:.0} ms",
        args.kill_bucket,
        args.kill_after,
        recovered.resumed_at_bucket,
        recovery_ms,
        recovered.replayed_records,
        recovered.dropped_records,
        total_ms - recovery_ms
    );
    println!(
        "resumed: {} queries, {} errors, {} wrong results, digest match: {}",
        recovered.outcome.stats.queries,
        recovered.outcome.stats.errors,
        recovered.outcome.stats.wrong_results,
        digest_match
    );
    if !digest_match {
        eprintln!(
            "recovered digest {:#018x} != reference {:#018x}",
            recovered.outcome.stats.result_digest, expected.stats.result_digest
        );
    }

    report::record("recover", "seed", args.seed.into());
    report::record("recover", "workers", (args.workers as u64).into());
    report::record("recover", "buckets", (args.buckets as u64).into());
    report::record("recover", "kill_bucket", (args.kill_bucket as u64).into());
    report::record(
        "recover",
        "kill_after_queries",
        (args.kill_after as u64).into(),
    );
    report::record("recover", "snapshot_every", args.snapshot_every.into());
    report::record(
        "recover",
        "store",
        if args.dir.is_some() { "dir" } else { "mem" }.into(),
    );
    report::record(
        "recover",
        "resumed_at_bucket",
        recovered.resumed_at_bucket.into(),
    );
    report::record("recover", "recovery_ms", recovery_ms.into());
    report::record(
        "recover",
        "replayed_records",
        recovered.replayed_records.into(),
    );
    report::record(
        "recover",
        "dropped_records",
        recovered.dropped_records.into(),
    );
    report::record("recover", "digest_match", u64::from(digest_match).into());
    report::record("recover", "queries", recovered.outcome.stats.queries.into());
    report::record("recover", "errors", recovered.outcome.stats.errors.into());
    report::record(
        "recover",
        "wrong_results",
        recovered.outcome.stats.wrong_results.into(),
    );
    report::record("recover", "wal_records", durability.wal_records.into());
    report::record("recover", "wal_bytes", durability.wal_bytes.into());
    report::record(
        "recover",
        "snapshots_taken",
        durability.snapshots_taken.into(),
    );
    report::record(
        "recover",
        "snapshot_bytes",
        durability.snapshot_bytes.into(),
    );
    report::record(
        "recover",
        "write_amplification",
        durability.write_amplification.into(),
    );

    if let Some(path) = args.json_path {
        let doc = report::to_json().to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote metrics to {path}");
    }
    if !digest_match {
        std::process::exit(1);
    }
}
