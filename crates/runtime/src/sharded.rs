//! The multi-tenant sharded serving runtime.
//!
//! Serves a Zipf-skewed multi-tenant stream against a
//! [`ShardedDatabase`] while **every shard runs its own tuning loop**
//! off shard-local KPI snapshots, and a **global budget arbiter** (the
//! Organizer role of paper §II) re-splits one index-memory budget
//! across the shard drivers at every bucket boundary:
//!
//! * workers partition each bucket's queries round-robin (the same
//!   partition the single-engine runtime uses); answers are verified
//!   against a [`ResultOracle`] captured before any tuning, and each
//!   worker folds them into [`SessionStats`];
//! * at the bucket barrier the control thread closes every shard's KPI
//!   bucket (draining that shard's scan counters atomically via
//!   [`Database::take_scan_stats`]), lets each shard driver decide and
//!   drain a budgeted action slice, then runs the arbiter — which
//!   retargets per-shard `index_memory_bytes` constraints and records a
//!   `budget_rebalanced` trail event on the global recorder;
//! * per-tenant plan caches and latency buckets feed the per-tenant
//!   p95 / noisy-neighbor metrics of the multi-tenant soak report.
//!
//! Per-shard decision trails (shard-stamped flight recorders) and the
//! global arbiter trail merge into one smdb-trail/v2 document.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use smdb_common::json::Json;
use smdb_common::{Cost, Result};
use smdb_core::{ConstraintSet, Driver, TuningState};
use smdb_obs::metrics::quantile_rank;
use smdb_obs::{span, FlightRecorder};
use smdb_query::{PlanCache, ResultOracle, SessionStats};
use smdb_shard::{
    Assignment, BudgetArbiter, MultiTenantConfig, ShardSpec, ShardedDatabase, TenantQuery,
    TenantStream,
};

use crate::runtime::{install_scan_pool, round_robin};

/// Idle buckets the post-run settle may take per shard.
const SETTLE_TICKS: usize = 32;

/// One worker's share of a bucket: its stats and `(tenant, ms)` latencies.
type WorkerShare = (SessionStats, Vec<(i64, f64)>);

/// Multi-tenant soak parameters.
#[derive(Debug, Clone)]
pub struct MtSoakConfig {
    /// Shard count (each shard gets its own engine + driver).
    pub shards: usize,
    /// Chunk→shard assignment (range keeps tenant locality).
    pub assignment: Assignment,
    /// Fixture and traffic parameters (tenants, skew, seed, …).
    pub tenants: MultiTenantConfig,
    /// Reader threads serving each bucket.
    pub workers: usize,
    /// KPI buckets to serve.
    pub buckets: usize,
    /// Queries per heavy bucket (light buckets serve an eighth).
    pub queries_per_bucket: usize,
    /// Heavy buckets per phase cycle.
    pub heavy_len: usize,
    /// Light buckets per phase cycle.
    pub light_len: usize,
    /// Global index-memory budget the arbiter splits across shards.
    pub budget_bytes: u64,
    /// Minimum share every shard keeps (clamped by the arbiter).
    pub budget_floor_bytes: u64,
    /// Per-shard KPI bucket capacity (ms of work at 100 % utilization).
    pub bucket_capacity: Cost,
    /// Maximum actions drained per shard per bucket barrier.
    pub slice_budget: usize,
    /// Per-shard scan-pool threads (≤ 1 scans inline).
    pub scan_threads: usize,
    /// Chunks per morsel for pool dispatch.
    pub morsel_chunks: usize,
    /// Per-recorder flight-recorder capacity.
    pub trail_capacity: usize,
    /// Per-tenant plan-cache capacity.
    pub tenant_plan_cache: usize,
}

impl Default for MtSoakConfig {
    fn default() -> Self {
        MtSoakConfig {
            shards: 4,
            assignment: Assignment::RangeChunks,
            tenants: MultiTenantConfig::default(),
            workers: 2,
            buckets: 10,
            queries_per_bucket: 12_000,
            heavy_len: 3,
            light_len: 2,
            budget_bytes: 512 * 1024,
            budget_floor_bytes: 16 * 1024,
            bucket_capacity: Cost(2_000.0),
            slice_budget: 8,
            scan_threads: 2,
            morsel_chunks: smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS,
            trail_capacity: 512,
            tenant_plan_cache: 4,
        }
    }
}

/// Per-tenant serving summary.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Queries this tenant issued.
    pub queries: u64,
    /// p95 of the tenant's simulated latencies, ms.
    pub p95_ms: f64,
}

/// Outcome of one multi-tenant soak.
#[derive(Debug)]
pub struct MtSoakOutcome {
    /// Queries served.
    pub queries: u64,
    /// Engine errors (expected 0).
    pub errors: u64,
    /// Answers contradicting the pre-tuning expectations (expected 0).
    pub wrong_results: u64,
    /// Order-independent digest of all answers.
    pub result_digest: u64,
    /// Queries answered by one routed shard.
    pub routed: u64,
    /// Queries answered by scatter-gather.
    pub scattered: u64,
    /// Wall-clock seconds spent serving (capture excluded).
    pub wall_seconds: f64,
    /// Aggregate throughput over the serving phase, queries/second.
    pub sustained_qps: f64,
    /// Per-tenant stats (tenant id → summary), tenants with traffic.
    pub tenant_stats: BTreeMap<i64, TenantStats>,
    /// Final tuning state per shard, shard order.
    pub shard_tuning: Vec<TuningState>,
    /// Shards whose driver applied at least one action.
    pub shards_tuned: usize,
    /// Whether configured index bytes stayed ≤ budget at every bucket.
    pub budget_ok_every_bucket: bool,
    /// Largest configured index-byte total observed at a barrier.
    pub max_used_bytes: u64,
    /// The arbitrated total budget.
    pub budget_bytes: u64,
    /// Morsels dispatched across all shards (scan-pool traffic).
    pub morsels: u64,
    /// The merged smdb-trail/v2 document (global + per-shard trails).
    pub trail: Json,
}

impl MtSoakOutcome {
    /// Mean over tenants (with ≥ `min_queries` queries) of per-tenant
    /// p95 latency, ms.
    pub fn mean_tenant_p95_ms(&self, min_queries: u64) -> f64 {
        let eligible: Vec<f64> = self
            .tenant_stats
            .values()
            .filter(|t| t.queries >= min_queries)
            .map(|t| t.p95_ms)
            .collect();
        if eligible.is_empty() {
            return 0.0;
        }
        eligible.iter().sum::<f64>() / eligible.len() as f64
    }
}

/// The sharded serving runtime: one database-per-shard, one
/// driver-per-shard, one global budget arbiter.
pub struct ShardedRuntime {
    db: Arc<ShardedDatabase>,
    drivers: Vec<Arc<Driver>>,
    arbiter: BudgetArbiter,
    global_recorder: Arc<FlightRecorder>,
    config: MtSoakConfig,
}

impl ShardedRuntime {
    /// Builds the sharded fixture and wires a driver per shard: the
    /// builder's indexing/compression tuners and organizer, shard-stamped
    /// flight recorders, and an even initial budget split the arbiter
    /// will re-target.
    pub fn new(config: MtSoakConfig) -> Result<ShardedRuntime> {
        let spec = ShardSpec {
            shards: config.shards,
            assignment: config.assignment,
        };
        let db = Arc::new(smdb_shard::build_sharded(&config.tenants, &spec)?);
        for shard in db.shards() {
            install_scan_pool(shard, config.scan_threads, config.morsel_chunks);
        }
        let initial_share = config.budget_bytes / config.shards.max(1) as u64;
        let drivers: Vec<Arc<Driver>> = db
            .shards()
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                Arc::new(
                    Driver::builder(Arc::clone(shard))
                        .constraints(ConstraintSet {
                            index_memory_bytes: Some(initial_share as i64),
                            ..ConstraintSet::none()
                        })
                        .kpi_bucket_capacity(config.bucket_capacity)
                        .flight_recorder(Arc::new(FlightRecorder::with_shard(
                            config.trail_capacity,
                            s as u64,
                        )))
                        .build(),
                )
            })
            .collect();
        let arbiter = BudgetArbiter::new(config.budget_bytes, config.budget_floor_bytes);
        Ok(ShardedRuntime {
            db,
            drivers,
            arbiter,
            global_recorder: Arc::new(FlightRecorder::new(config.trail_capacity)),
            config,
        })
    }

    /// The sharded database being served.
    pub fn database(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }

    /// The per-shard drivers, shard order.
    pub fn drivers(&self) -> &[Arc<Driver>] {
        &self.drivers
    }

    /// Pre-generates the whole soak plan: `buckets` buckets of Zipfian
    /// tenant traffic with a heavy/light phase cycle.
    pub fn plan(&self) -> Vec<Vec<TenantQuery>> {
        let mut stream = TenantStream::new(&self.config.tenants);
        let cycle = (self.config.heavy_len + self.config.light_len).max(1);
        (0..self.config.buckets)
            .map(|b| {
                let heavy = b % cycle < self.config.heavy_len;
                let count = if heavy {
                    self.config.queries_per_bucket
                } else {
                    (self.config.queries_per_bucket / 8).max(1)
                };
                (0..count).map(|_| stream.next_query()).collect()
            })
            .collect()
    }

    /// Serves `plan`, tuning each shard locally under the global budget.
    pub fn run(&self, plan: &[Vec<TenantQuery>]) -> Result<MtSoakOutcome> {
        // Ground truth before any tuning: every unique query instance's
        // answer, captured through the same sharded path that serves it.
        let oracle = ResultOracle::capture_with(plan.iter().flatten().map(|tq| &tq.query), |q| {
            Ok(self.db.run_query(q)?.output)
        })?;
        // Capture warmed every shard's plan cache; reset the clocks so
        // serving starts from a clean slate (capture is not traffic).
        for shard in self.db.shards() {
            shard.plan_cache().clear();
            shard.take_scan_stats();
        }
        // Routed/scattered counts should describe the serving phase, not
        // the capture pass that just warmed them.
        let (routed_before, scattered_before) = self.db.routing_counts();

        let tenant_caches: Vec<Mutex<PlanCache>> = (0..self.config.tenants.tenants)
            .map(|_| Mutex::new(PlanCache::new(self.config.tenant_plan_cache)))
            .collect();
        let mut tenant_lats: BTreeMap<i64, Vec<f64>> = BTreeMap::new();

        let mut total = SessionStats::default();
        let mut morsels = 0u64;
        let mut budget_ok = true;
        let mut max_used = 0u64;

        let started = Instant::now();
        for (b, bucket) in plan.iter().enumerate() {
            let _span = span!("sharded", "bucket", { bucket: b, queries: bucket.len() });
            for (stats, lats) in self.serve_bucket(bucket, &oracle, &tenant_caches)? {
                total.merge(&stats);
                for (tenant, lat) in lats {
                    tenant_lats.entry(tenant).or_default().push(lat);
                }
            }
            // Bucket barrier: close every shard's bucket off its local
            // KPI window, let its driver decide, drain a slice, then
            // re-arbitrate the global budget.
            let mut busy = Vec::with_capacity(self.drivers.len());
            for (driver, shard) in self.drivers.iter().zip(self.db.shards()) {
                let stats = shard.take_scan_stats();
                morsels += stats.morsels;
                let report = driver.close_bucket();
                busy.push(report.bucket_cost.ms());
                driver.maybe_tune_deferred(&driver.tick())?;
                driver.drain_or_rollback(self.config.slice_budget)?;
            }
            let outcome =
                self.arbiter
                    .rebalance(b as u64, &self.drivers, &busy, &self.global_recorder);
            budget_ok &= outcome.within_budget;
            max_used = max_used.max(outcome.used_bytes);
        }
        let wall_seconds = started.elapsed().as_secs_f64();

        // Settle: drain anything still queued so the run ends stable.
        for driver in &self.drivers {
            driver.settle(self.config.slice_budget, SETTLE_TICKS)?;
        }

        let tenant_stats: BTreeMap<i64, TenantStats> = tenant_lats
            .into_iter()
            .map(|(tenant, mut lats)| {
                lats.sort_by(f64::total_cmp);
                let p95_ms = lats[quantile_rank(lats.len() as u64, 0.95) as usize - 1];
                let queries = lats.len() as u64;
                (tenant, TenantStats { queries, p95_ms })
            })
            .collect();

        let shard_tuning: Vec<TuningState> =
            self.drivers.iter().map(|d| d.tuning_state()).collect();
        let shards_tuned = shard_tuning
            .iter()
            .filter(|t| t.actions_applied > 0)
            .count();
        let (routed_now, scattered_now) = self.db.routing_counts();
        let (routed, scattered) = (routed_now - routed_before, scattered_now - scattered_before);
        let mut recorders: Vec<&FlightRecorder> = vec![self.global_recorder.as_ref()];
        recorders.extend(self.drivers.iter().map(|d| d.flight_recorder().as_ref()));
        let queries = total.queries;
        Ok(MtSoakOutcome {
            queries,
            errors: total.errors,
            wrong_results: total.wrong_results,
            result_digest: total.result_digest,
            routed,
            scattered,
            wall_seconds,
            sustained_qps: if wall_seconds > 0.0 {
                queries as f64 / wall_seconds
            } else {
                0.0
            },
            tenant_stats,
            shard_tuning,
            shards_tuned,
            budget_ok_every_bucket: budget_ok,
            max_used_bytes: max_used,
            budget_bytes: self.arbiter.total_bytes(),
            morsels,
            trail: FlightRecorder::merged_json(&recorders),
        })
    }

    /// Serves one bucket: each worker routes its round-robin share,
    /// folds every answer into its [`SessionStats`] against `oracle`,
    /// feeds the serving shards' KPI windows and the tenant plan caches,
    /// and returns its per-tenant latencies.
    fn serve_bucket(
        &self,
        bucket: &[TenantQuery],
        oracle: &ResultOracle,
        tenant_caches: &[Mutex<PlanCache>],
    ) -> Result<Vec<WorkerShare>> {
        round_robin(bucket, self.config.workers, |_, share| {
            let mut stats = SessionStats::default();
            let mut tenant_lats = Vec::new();
            for tq in share {
                let shard = self.db.route(&tq.query);
                let result = self.db.run_query(&tq.query);
                stats.record(&tq.query, &result, Some(oracle));
                let Ok(r) = result else { continue };
                let lat = r.output.sim_latency;
                match shard {
                    Some(s) => self.drivers[s].record_scan(lat, r.output.morsels),
                    None => {
                        // A scatter touched every candidate shard; each
                        // shard's KPI window sees the query it served.
                        for d in &self.drivers {
                            d.record_scan(lat, r.output.morsels);
                        }
                    }
                }
                if let Some(t) = tq.tenant {
                    tenant_lats.push((t, lat.ms()));
                    if let Some(cache) = tenant_caches.get(t as usize) {
                        cache.lock().record(
                            &tq.query,
                            r.output.sim_cost,
                            self.db.shards()[shard.unwrap_or(0)].now(),
                        );
                    }
                }
            }
            (stats, tenant_lats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(shards: usize, seed: u64) -> MtSoakConfig {
        MtSoakConfig {
            shards,
            tenants: MultiTenantConfig {
                tenants: 120,
                rows_per_tenant: 20,
                chunk_rows: 200,
                seed,
                ..MultiTenantConfig::default()
            },
            workers: 2,
            buckets: 6,
            queries_per_bucket: 800,
            budget_bytes: 128 * 1024,
            budget_floor_bytes: 8 * 1024,
            ..MtSoakConfig::default()
        }
    }

    #[test]
    fn mt_soak_serves_routes_and_tunes_within_budget() {
        let runtime = ShardedRuntime::new(small_config(4, 7)).expect("builds");
        let plan = runtime.plan();
        let outcome = runtime.run(&plan).expect("runs");
        let planned: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(outcome.queries as usize, planned);
        assert_eq!(outcome.errors, 0);
        assert_eq!(outcome.wrong_results, 0);
        assert!(outcome.routed > 0, "range partitioning routes");
        assert!(outcome.scattered > 0, "global queries scatter");
        assert!(outcome.budget_ok_every_bucket);
        assert!(outcome.max_used_bytes <= outcome.budget_bytes);
        assert!(!outcome.tenant_stats.is_empty());
        let trail_events = outcome
            .trail
            .get("events")
            .and_then(Json::as_array)
            .expect("merged trail")
            .len();
        assert!(trail_events > 0, "trail recorded");
        assert_eq!(
            outcome.trail.get("schema").and_then(Json::as_str),
            Some("smdb-trail/v2")
        );
    }

    #[test]
    fn mt_digest_is_shard_count_invariant() {
        let one = ShardedRuntime::new(small_config(1, 11)).expect("builds");
        let four = ShardedRuntime::new(small_config(4, 11)).expect("builds");
        let plan = one.plan();
        let a = one.run(&plan).expect("runs");
        let b = four.run(&plan).expect("runs");
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.result_digest, b.result_digest, "digest invariant");
        assert_eq!(a.wrong_results + b.wrong_results, 0);
    }

    #[test]
    fn mt_digest_is_worker_count_invariant() {
        let mut cfg = small_config(2, 13);
        cfg.workers = 1;
        let one = ShardedRuntime::new(cfg.clone()).expect("builds");
        cfg.workers = 4;
        let four = ShardedRuntime::new(cfg).expect("builds");
        let plan = one.plan();
        let a = one.run(&plan).expect("runs");
        let b = four.run(&plan).expect("runs");
        assert_eq!(a.result_digest, b.result_digest);
    }
}
