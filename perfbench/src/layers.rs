//! Per-layer metric assembly shared by the traced runs.

use crate::common::{Args, Sheet};
use crate::stats::{median, share};
use crate::trace::Trace;

/// Sets the per-chunk access-path shares from pruned, index, kernel and
/// scalar chunk counts.
pub fn set_chunk_shares(sheet: &mut Sheet, chunks: [u64; 4]) {
    let total: u64 = chunks.iter().sum();
    let names = [
        "storage.chunks_pruned_share",
        "storage.chunks_index_share",
        "storage.chunks_kernel_share",
        "storage.chunks_scalar_share",
    ];
    for (name, count) in names.into_iter().zip(chunks) {
        sheet.set(name, share(count as f64, total as f64), "ratio");
    }
}

/// Sets the trace's own health: traced ÷ untraced wall − 1, and the
/// share of the lanes' active time inside root spans.
pub fn set_trace_health(sheet: &mut Sheet, trace: &Trace, untraced: &[f64], traced: &[f64]) {
    sheet.set(
        "obs.trace_overhead_share",
        median(traced) / median(untraced) - 1.0,
        "ratio",
    );
    sheet.set("obs.trace_coverage", trace.coverage(), "ratio");
}

/// Writes the spans of the last traced pass next to the stores.
pub fn write_spans(args: &Args, trace: &Trace) {
    let path = args.out.join(format!("spans-{}.tsv", args.workload));
    if let Err(e) = trace.write_tsv(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("  self time by span (ms):");
    for (name, ms) in trace.self_ms_by_name() {
        println!("    {name:<28} {ms:>12.3}");
    }
}

/// Control-path metrics shared by the serving traces: barrier pieces,
/// decisions and the whole-loop self-management share next to the
/// plan-cache-only (monitoring) share.
pub fn serving_control_metrics(sheet: &mut Sheet, trace: &Trace, wall_s: f64, query_ms: f64) {
    sheet.set(
        "core.close_bucket_us",
        median(&trace.durations_us("core.close_bucket")),
        "us",
    );
    sheet.set(
        "core.tick_us",
        median(&trace.durations_us("core.tick")),
        "us",
    );
    sheet.set(
        "core.drain_ms",
        median(&trace.durations_us("core.drain")) / 1e3,
        "ms",
    );
    sheet.set(
        "core.decide_ms",
        median(&trace.durations_us("core.decide")) / 1e3,
        "ms",
    );
    let selfmgmt_ms: f64 = [
        "core.close_bucket",
        "core.tick",
        "core.decide",
        "core.drain",
        "durable.boundary",
        "durable.snapshot",
        "shard.rebalance",
    ]
    .iter()
    .map(|n| trace.total_ms(n))
    .sum();
    let wall_ms = wall_s * 1e3;
    sheet.set("core.selfmgmt_share", share(selfmgmt_ms, wall_ms), "ratio");
    let monitoring = share(trace.total_ms("query.record"), query_ms);
    sheet.set("core.monitoring_share", monitoring, "ratio");
    println!(
        "  self-management: whole loop {:.4} of serving wall (close, tick, decide, drain, \
         persist, rebalance) vs plan-cache monitoring {:.4} of query time; \
         E2 reports the monitoring-only overhead as about 0.2% (at most 1%)",
        share(selfmgmt_ms, wall_ms),
        monitoring
    );
}
