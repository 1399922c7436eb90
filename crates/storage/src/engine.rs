//! The storage engine: catalog, scan execution with ground-truth costing,
//! and configuration application.

use std::collections::{BTreeMap, HashMap};

use smdb_common::{ChunkColumnRef, Cost, Error, Result, TableId};

use crate::config::{ConfigAction, ConfigInstance, Knobs};
use crate::index::ChunkIndex;
use crate::memory::MemoryReport;
use crate::placement::Tier;
use crate::scan::{plan_chunk, Aggregate, AggregateOp, ChunkPath, ScanPredicate};
use crate::simcost::SimCostParams;
use crate::table::Table;
use crate::value::Value;

/// Result of one table scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutput {
    /// Rows satisfying all predicates.
    pub rows_matched: u64,
    /// Aggregate value, when an aggregate was requested and computable.
    pub agg_value: Option<f64>,
    /// Per-group aggregate values when a GROUP BY was requested, sorted
    /// by group key.
    pub groups: Option<Vec<(Value, f64)>>,
    /// Ground-truth simulated cost of the scan: the total *work*
    /// performed, summed over chunks in chunk-index order. Independent
    /// of how (or whether) the scan was parallelised — cost estimators
    /// learn from this figure.
    pub sim_cost: Cost,
    /// Ground-truth simulated *latency* of the scan: equal to
    /// [`ScanOutput::sim_cost`] for an inline scan; for a morsel-driven
    /// parallel scan, the deterministic critical-path latency of
    /// [`crate::parallel::simulated_latency`] (max lane sum plus
    /// per-morsel dispatch overhead). This is what serving KPIs record.
    pub sim_latency: Cost,
    /// Morsels dispatched to the scan pool (0 for an inline scan).
    pub morsels: u64,
    /// Rows actually touched by the driving filter (scan or probe output).
    pub rows_scanned: u64,
    /// Chunks skipped by min/max pruning.
    pub chunks_pruned: u64,
    /// Chunks actually processed.
    pub chunks_visited: u64,
    /// Chunks where an index answered the driving predicate.
    pub index_probes: u64,
    /// Visited chunks whose driving selection ran on a batch kernel.
    /// Together with [`ScanOutput::index_probes`] and
    /// [`ScanOutput::chunks_scalar`] this partitions the visited chunks:
    /// `chunks_visited == index_probes + chunks_kernel + chunks_scalar`.
    pub chunks_kernel: u64,
    /// Visited chunks whose driving selection fell back to the scalar
    /// per-value path.
    pub chunks_scalar: u64,
    /// Batch-kernel invocations (driving filters, refines, aggregate
    /// folds) across all chunks of the scan.
    pub kernel_batches: u64,
}

/// Per-chunk access-path partition of one scan, predicted or executed:
/// every chunk of the table lands in exactly one bucket. The executed
/// partition comes from [`ScanOutput`] (`chunks_pruned`, `index_probes`,
/// `chunks_kernel`, `chunks_scalar`);
/// [`StorageEngine::predict_access_paths`] produces the same partition
/// from statistics alone, and the soak asserts the two agree on every
/// query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictedPaths {
    /// Chunks min/max pruning skips.
    pub pruned: u64,
    /// Chunks where an index probe answers the driving predicate(s).
    pub index: u64,
    /// Chunks whose driving selection runs on a batch kernel.
    pub kernel: u64,
    /// Chunks whose driving selection falls back to the scalar path.
    pub scalar: u64,
}

/// The in-memory storage engine.
///
/// The engine executes scans (with deterministic, configuration-dependent
/// simulated cost) and applies [`ConfigAction`]s, reporting their one-time
/// reconfiguration cost. It is the ground truth the self-management
/// framework tunes against.
#[derive(Debug, Clone)]
pub struct StorageEngine {
    tables: Vec<Table>,
    names: HashMap<String, TableId>,
    knobs: Knobs,
    params: SimCostParams,
    /// Whether batch predicate/aggregation kernels drive covered scans
    /// (on by default; the scalar path remains the semantic reference).
    kernels: bool,
    /// Cached bytes resident on non-hot tiers (drives buffer-pool hit rates).
    nonhot_bytes: u64,
    /// Process-unique catalog identity, refreshed whenever the table set
    /// changes. Cost caches key on it so entries from one engine are
    /// never served for another; clones share the token because their
    /// catalogs (and hence statistics) are identical.
    catalog_token: u64,
}

fn next_catalog_token() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for StorageEngine {
    fn default() -> Self {
        StorageEngine::new(SimCostParams::default())
    }
}

impl StorageEngine {
    /// Creates an empty engine over the given simulated hardware.
    pub fn new(params: SimCostParams) -> Self {
        StorageEngine {
            tables: Vec::new(),
            names: HashMap::new(),
            knobs: Knobs::default(),
            params,
            kernels: true,
            nonhot_bytes: 0,
            catalog_token: next_catalog_token(),
        }
    }

    /// Whether the vectorized kernel layer is enabled.
    pub fn kernels_enabled(&self) -> bool {
        self.kernels
    }

    /// Enables or disables the vectorized kernel layer. Results are
    /// bit-identical either way (see [`crate::kernels`]); only the
    /// execution strategy — and the kernel/scalar chunk counters —
    /// change. Tests use this to diff the two paths.
    pub fn set_kernels_enabled(&mut self, on: bool) {
        self.kernels = on;
    }

    /// The engine's catalog identity token (see field docs).
    pub fn catalog_token(&self) -> u64 {
        self.catalog_token
    }

    /// Predicts, from chunk statistics and the catalog alone, which
    /// access path [`StorageEngine::scan_chunk`] takes on every chunk of
    /// `table` for `predicates` — without executing anything. Both read
    /// the path from the same `plan_chunk`; only the kernel-vs-scalar
    /// split of a filtered chunk is asked of the kernel layer
    /// ([`crate::kernels::covers_filter`], gated on the kernel switch),
    /// which owns that choice at execution time too. `predicted ==
    /// executed` holds by construction, and the soak asserts it per
    /// query against the [`ScanOutput`] counters.
    pub fn predict_access_paths(
        &self,
        table: TableId,
        predicates: &[ScanPredicate],
    ) -> Result<PredictedPaths> {
        let table = self.table(table)?;
        let mut out = PredictedPaths::default();
        for (_, chunk) in table.chunks() {
            match plan_chunk(chunk, predicates, |c| chunk.index(c).map(ChunkIndex::kind))? {
                None => out.pruned += 1,
                Some(ChunkPath::Probe { .. }) => out.index += 1,
                // Full-chunk selection: one batch emit when kernels are on.
                Some(ChunkPath::Full) if self.kernels => out.kernel += 1,
                Some(ChunkPath::Filter { drive })
                    if self.kernels
                        && crate::kernels::covers_filter(
                            chunk.segment(predicates[drive].column)?,
                            &predicates[drive],
                        ) =>
                {
                    out.kernel += 1
                }
                Some(_) => out.scalar += 1,
            }
        }
        Ok(out)
    }

    /// Registers a table; names must be unique.
    pub fn create_table(&mut self, table: Table) -> Result<TableId> {
        if self.names.contains_key(table.name()) {
            return Err(Error::Configuration(format!(
                "table '{}' already exists",
                table.name()
            )));
        }
        let id = TableId(self.tables.len() as u32);
        self.names.insert(table.name().to_string(), id);
        self.tables.push(table);
        self.recompute_residency();
        self.catalog_token = next_catalog_token();
        Ok(id)
    }

    /// Immutable table access.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::not_found("table", format!("{id}")))
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| Error::not_found("table", name))
    }

    /// All table ids with names.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// The current knob settings.
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// The simulated hardware parameters (for tests and the experiment
    /// harness; cost *estimators* must not use this).
    pub fn sim_params(&self) -> &SimCostParams {
        &self.params
    }

    /// Snapshot of the configuration currently in effect, reconstructed
    /// from actual physical state.
    pub fn current_config(&self) -> ConfigInstance {
        let mut config = ConfigInstance {
            knobs: self.knobs.clone(),
            ..ConfigInstance::default()
        };
        for (tid, table) in self.tables() {
            for (cid, chunk) in table.chunks() {
                if chunk.tier() != Tier::Hot {
                    config.placements.insert((tid, cid), chunk.tier());
                }
                for (col, _) in table.schema().iter() {
                    let target = ChunkColumnRef {
                        table: tid,
                        column: col,
                        chunk: cid,
                    };
                    if let Some(idx) = chunk.index(col) {
                        config.indexes.insert(target, idx.kind());
                    }
                    // A schema column always has a segment; a mismatch is
                    // treated as "unencoded" rather than a panic so the
                    // snapshot path can never poison a running server.
                    let enc = chunk
                        .segment(col)
                        .map(|s| s.encoding())
                        .unwrap_or(crate::encoding::EncodingKind::Unencoded);
                    if enc != crate::encoding::EncodingKind::Unencoded {
                        config.encodings.insert(target, enc);
                    }
                }
            }
        }
        config
    }

    /// Applies one configuration action, returning its one-time
    /// reconfiguration cost.
    pub fn apply_action(&mut self, action: &ConfigAction) -> Result<Cost> {
        let cost = match action {
            ConfigAction::CreateIndex { target, kind } => {
                let tier_mult = self.chunk_tier_multiplier(target.table, target.chunk.0)?;
                let table = self.table_mut(target.table)?;
                let chunk = table.chunk_mut(target.chunk)?;
                let rows = chunk.rows();
                let enc = chunk.segment(target.column)?.encoding();
                chunk.create_index(target.column, *kind)?;
                self.params.index_build_cost(rows, enc, tier_mult)
            }
            ConfigAction::DropIndex { target } => {
                let table = self.table_mut(target.table)?;
                table.chunk_mut(target.chunk)?.drop_index(target.column)?;
                Cost(0.1)
            }
            ConfigAction::SetEncoding { target, kind } => {
                let tier_mult = self.chunk_tier_multiplier(target.table, target.chunk.0)?;
                let table = self.table_mut(target.table)?;
                let chunk = table.chunk_mut(target.chunk)?;
                let rows = chunk.rows();
                chunk.set_encoding(target.column, *kind)?;
                self.recompute_residency();
                self.params.reencode_cost(rows, tier_mult)
            }
            ConfigAction::SetPlacement { table, chunk, tier } => {
                let t = self.table_mut(*table)?;
                let c = t.chunk_mut(*chunk)?;
                if c.tier() == *tier {
                    return Err(Error::Configuration(format!(
                        "chunk {table}.{chunk} already on tier {tier}"
                    )));
                }
                let bytes = c.data_bytes();
                c.set_tier(*tier);
                self.recompute_residency();
                self.params.move_cost(bytes)
            }
            ConfigAction::SetKnob { knob, value } => {
                match knob {
                    crate::config::KnobKind::BufferPoolMb => {
                        if *value < 0.0 {
                            return Err(Error::invalid("buffer_pool_mb must be >= 0"));
                        }
                        self.knobs.buffer_pool_mb = *value;
                    }
                }
                Cost(self.params.knob_change_ms)
            }
        };
        Ok(cost)
    }

    /// Applies a list of actions, summing one-time costs. Stops at the
    /// first failure.
    ///
    /// Failure leaves the successfully applied prefix in place (DDL-batch
    /// semantics); use [`StorageEngine::apply_all_atomic`] when a failed
    /// batch must leave the configuration untouched.
    pub fn apply_all(&mut self, actions: &[ConfigAction]) -> Result<Cost> {
        let mut total = Cost::ZERO;
        for a in actions {
            total += self.apply_action(a)?;
        }
        Ok(total)
    }

    /// The action that undoes `action` given the engine's *current*
    /// state. Errors when the action is not applicable (e.g. dropping an
    /// index that does not exist) — in which case applying it would fail
    /// too.
    pub fn inverse_of(&self, action: &ConfigAction) -> Result<ConfigAction> {
        match action {
            ConfigAction::CreateIndex { target, .. } => {
                Ok(ConfigAction::DropIndex { target: *target })
            }
            ConfigAction::DropIndex { target } => {
                let chunk = self.table(target.table)?.chunk(target.chunk)?;
                let kind = chunk
                    .index(target.column)
                    .map(|idx| idx.kind())
                    .ok_or_else(|| Error::Configuration(format!("no index to drop at {target}")))?;
                Ok(ConfigAction::CreateIndex {
                    target: *target,
                    kind,
                })
            }
            ConfigAction::SetEncoding { target, .. } => {
                let chunk = self.table(target.table)?.chunk(target.chunk)?;
                let prior = chunk.segment(target.column)?.encoding();
                Ok(ConfigAction::SetEncoding {
                    target: *target,
                    kind: prior,
                })
            }
            ConfigAction::SetPlacement { table, chunk, .. } => {
                let prior = self.table(*table)?.chunk(*chunk)?.tier();
                Ok(ConfigAction::SetPlacement {
                    table: *table,
                    chunk: *chunk,
                    tier: prior,
                })
            }
            ConfigAction::SetKnob { knob, .. } => {
                let prior = match knob {
                    crate::config::KnobKind::BufferPoolMb => self.knobs.buffer_pool_mb,
                };
                Ok(ConfigAction::SetKnob {
                    knob: *knob,
                    value: prior,
                })
            }
        }
    }

    /// Applies a list of actions atomically: if any action fails, every
    /// already-applied action of the batch is undone (in reverse order)
    /// before the error is returned, so a failed batch leaves the
    /// configuration exactly as it was.
    ///
    /// The one-time cost of a failed batch is not charged; a batch either
    /// lands completely or not at all. Should the undo itself fail — the
    /// engine mutated underneath us, impossible while the caller holds
    /// the engine write lock — the combined error is reported instead of
    /// panicking.
    pub fn apply_all_atomic(&mut self, actions: &[ConfigAction]) -> Result<Cost> {
        let mut undo: Vec<ConfigAction> = Vec::with_capacity(actions.len());
        let mut total = Cost::ZERO;
        for action in actions {
            let inverse = self.inverse_of(action);
            match (inverse, action) {
                (Ok(inv), _) => match self.apply_action(action) {
                    Ok(cost) => {
                        total += cost;
                        undo.push(inv);
                    }
                    Err(e) => {
                        self.undo_applied(&undo, &e)?;
                        return Err(e);
                    }
                },
                // No inverse means the action itself is invalid; surface
                // its own application error after rolling back the prefix.
                (Err(_), _) => {
                    let e = match self.apply_action(action) {
                        Err(e) => e,
                        // Applied without a known inverse: refuse to
                        // continue half-reversible and report it.
                        Ok(_) => Error::Configuration(format!(
                            "action {action} applied but has no inverse; batch aborted"
                        )),
                    };
                    self.undo_applied(&undo, &e)?;
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    /// Reverts `undo` (inverses of an applied prefix, in application
    /// order). On secondary failure, wraps both errors.
    fn undo_applied(&mut self, undo: &[ConfigAction], cause: &Error) -> Result<()> {
        for inv in undo.iter().rev() {
            if let Err(e2) = self.apply_action(inv) {
                return Err(Error::Configuration(format!(
                    "rollback of failed batch ({cause}) itself failed: {e2}"
                )));
            }
        }
        Ok(())
    }

    /// Executes a predicate scan (+ optional aggregate) with ground-truth
    /// costing.
    pub fn scan(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
    ) -> Result<ScanOutput> {
        self.scan_grouped(table_id, predicates, aggregate, None)
    }

    /// Like [`StorageEngine::scan`] with an optional GROUP BY column: the
    /// aggregate is computed per distinct value of `group_by` (hash
    /// aggregation, charged per matched row).
    pub fn scan_grouped(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
    ) -> Result<ScanOutput> {
        self.scan_grouped_with(table_id, predicates, aggregate, group_by, None)
    }

    /// Like [`StorageEngine::scan_grouped`], executed morsel-parallel on
    /// `pool`: the chunk list is split into morsels of `morsel_chunks`
    /// chunks, dispatched to the pool, and the per-chunk partials are
    /// merged in chunk-index order — so every result field except
    /// [`ScanOutput::sim_latency`] and [`ScanOutput::morsels`] is
    /// bit-identical to the sequential scan, for any thread count and
    /// morsel size. Scans that produce fewer than two morsels run
    /// inline (the pool cannot help them).
    pub fn scan_grouped_parallel(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
        pool: &crate::parallel::ScanPool,
        morsel_chunks: usize,
    ) -> Result<ScanOutput> {
        self.scan_grouped_with(
            table_id,
            predicates,
            aggregate,
            group_by,
            Some((pool, morsel_chunks)),
        )
    }

    /// Validates a scan's shape against `table_id`'s schema.
    fn validate_scan(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
    ) -> Result<()> {
        let table = self.table(table_id)?;
        if let Some(g) = group_by {
            table.schema().column(g)?;
            if aggregate.is_none() {
                return Err(Error::invalid("GROUP BY requires an aggregate"));
            }
        }
        for p in predicates {
            table.schema().column(p.column)?;
        }
        if let Some(agg) = aggregate {
            if agg.op != AggregateOp::Count {
                table.schema().column(agg.column)?;
            }
        }
        Ok(())
    }

    /// Computes the per-chunk partials of a scan *without* merging them —
    /// the scatter half of a sharded scatter-gather execution. Each
    /// element is one chunk's contribution, in chunk-index order; a
    /// sharded executor collects partials from every shard, orders them
    /// by global chunk index and folds them once with
    /// [`StorageEngine::merge_scan_partials`], which reproduces the exact
    /// combine tree of an unsharded scan — so every result field except
    /// the latency model is bit-identical for any shard count. With
    /// `parallel`, morsels are dispatched to the pool exactly as in
    /// [`StorageEngine::scan_grouped_parallel`]; partial *values* are
    /// independent of the execution mode.
    pub fn scan_partials(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
        parallel: Option<(&crate::parallel::ScanPool, usize)>,
    ) -> Result<Vec<ChunkPartial>> {
        Ok(self
            .chunk_partials(table_id, predicates, aggregate, group_by, parallel)?
            .0)
    }

    /// Folds partials — the caller's responsibility to order by global
    /// chunk index — into one [`ScanOutput`], using the same combine tree
    /// as every other execution mode. The returned latency equals the
    /// summed work (the inline model); a sharded executor overrides
    /// [`ScanOutput::sim_latency`] / [`ScanOutput::morsels`] with its own
    /// lane model.
    pub fn merge_scan_partials(
        &self,
        partials: Vec<ChunkPartial>,
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
    ) -> ScanOutput {
        let mut out = self.merge_partials(partials, aggregate, group_by);
        out.sim_latency = out.sim_cost;
        out.morsels = 0;
        out
    }

    /// Runs a scan and merges its partials. Latency equals work for an
    /// inline scan; a morsel-parallel one charges the lane model of
    /// [`crate::parallel::simulated_latency`] over its morsel costs.
    fn scan_grouped_with(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
        parallel: Option<(&crate::parallel::ScanPool, usize)>,
    ) -> Result<ScanOutput> {
        let (partials, morsels) =
            self.chunk_partials(table_id, predicates, aggregate, group_by, parallel)?;
        let Some((costs_ms, lanes)) = morsels else {
            return Ok(self.merge_scan_partials(partials, aggregate, group_by));
        };
        let mut out = self.merge_partials(partials, aggregate, group_by);
        out.sim_latency =
            crate::parallel::simulated_latency(&costs_ms, lanes, self.params.morsel_dispatch_ms);
        out.morsels = costs_ms.len() as u64;
        Ok(out)
    }

    /// Validates the scan, picks the execution mode and computes every
    /// chunk's partial in chunk-index order. Morsels go to the pool
    /// only when it has helpers and the table splits into more than one
    /// morsel — otherwise there is no parallelism to exploit, so the
    /// chunks run inline and skip the dispatch overhead. Alongside the
    /// partials come each morsel's summed cost and the lane count when
    /// the scan ran parallel (`None` inline). The merge tree, and so
    /// every float in the result, does not depend on the mode.
    fn chunk_partials(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
        parallel: Option<(&crate::parallel::ScanPool, usize)>,
    ) -> Result<(Vec<ChunkPartial>, Option<(Vec<f64>, usize)>)> {
        self.validate_scan(table_id, predicates, aggregate, group_by)?;
        let table = self.table(table_id)?;
        let chunks: Vec<&crate::chunk::Chunk> = table.chunks().map(|(_, c)| c).collect();
        if let Some((pool, morsel_chunks)) = parallel {
            let ranges = crate::parallel::morsel_ranges(chunks.len(), morsel_chunks);
            if pool.threads() > 1 && ranges.len() > 1 {
                let (partials, costs) = self
                    .partials_parallel(&chunks, predicates, aggregate, group_by, pool, &ranges)?;
                return Ok((partials, Some((costs, pool.threads().min(ranges.len())))));
            }
        }
        let mut positions: Vec<u32> = Vec::new();
        let mut partials = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            partials.push(self.scan_chunk(
                chunk,
                predicates,
                aggregate,
                group_by,
                &mut positions,
            )?);
        }
        Ok((partials, None))
    }

    /// The dispatch half of a morsel-parallel scan: runs every morsel on
    /// the pool and returns the per-chunk partials in chunk-index order
    /// plus each morsel's summed cost (for the lane latency model).
    fn partials_parallel(
        &self,
        chunks: &[&crate::chunk::Chunk],
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
        pool: &crate::parallel::ScanPool,
        ranges: &[(usize, usize)],
    ) -> Result<(Vec<ChunkPartial>, Vec<f64>)> {
        let slots: Vec<parking_lot::Mutex<Option<Result<Vec<ChunkPartial>>>>> = ranges
            .iter()
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        let clean = pool.run(ranges.len(), |m| {
            let (start, end) = ranges[m];
            let mut positions: Vec<u32> = Vec::new();
            let mut parts = Vec::with_capacity(end - start);
            let mut failed = None;
            for chunk in &chunks[start..end] {
                match self.scan_chunk(chunk, predicates, aggregate, group_by, &mut positions) {
                    Ok(p) => parts.push(p),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            *slots[m].lock() = Some(match failed {
                None => Ok(parts),
                Some(e) => Err(e),
            });
        });
        if !clean {
            return Err(Error::invalid("a parallel scan morsel panicked"));
        }
        let mut morsel_costs_ms = Vec::with_capacity(ranges.len());
        let mut all = Vec::with_capacity(chunks.len());
        for slot in &slots {
            let morsel = slot
                .lock()
                .take()
                .ok_or_else(|| Error::invalid("a parallel scan morsel produced no output"))??;
            morsel_costs_ms.push(morsel.iter().map(|p| p.cost.ms()).sum::<f64>());
            all.extend(morsel);
        }
        Ok((all, morsel_costs_ms))
    }

    /// Scans one chunk, returning its partial: counters, aggregate state
    /// and the chunk's share of the simulated work. `positions` is
    /// caller-provided scratch (cleared per call) so a morsel reuses one
    /// allocation across its chunks. A partial is a pure function of
    /// (chunk, query, configuration) — which execution mode computed it,
    /// and in which order, cannot matter.
    fn scan_chunk(
        &self,
        chunk: &crate::chunk::Chunk,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
        positions: &mut Vec<u32>,
    ) -> Result<ChunkPartial> {
        let mut part = ChunkPartial::new(aggregate.map(|a| a.op));
        let Some(path) = plan_chunk(chunk, predicates, |c| chunk.index(c).map(ChunkIndex::kind))?
        else {
            part.pruned = true;
            part.cost += Cost(self.params.prune_check_ms);
            return Ok(part);
        };
        let tier_mult = chunk
            .tier()
            .effective_multiplier(self.knobs.buffer_pool_mb, self.nonhot_bytes);
        part.cost += Cost(self.params.chunk_visit_ms);
        positions.clear();

        // The driving selection.
        match path {
            ChunkPath::Probe { drive, pair } => {
                let index = chunk
                    .index(predicates[drive].column)
                    .ok_or_else(|| Error::invalid("a planned probe has no index"))?;
                let answered = match pair {
                    Some(second) => index.probe_composite(
                        &predicates[drive].value,
                        &predicates[second].value,
                        positions,
                    ),
                    None => index.probe(&predicates[drive], positions),
                };
                debug_assert!(answered, "a planned probe must answer");
                part.index_probes += 1;
                part.cost += Cost(
                    self.params.index_probe_ms
                        + positions.len() as f64 * self.params.index_match_ms,
                ) * tier_mult;
            }
            ChunkPath::Full => {
                // One batch emit either way, so the chunk is classified
                // with the kernel path when enabled.
                part.kernel_chunk = self.kernels;
                positions.extend(0..chunk.rows() as u32);
                part.rows_scanned += chunk.rows() as u64;
                let (units, enc) = chunk
                    .segment(smdb_common::ColumnId(0))
                    .map(|s| (s.scan_units(), s.encoding()))
                    .unwrap_or((chunk.rows(), crate::encoding::EncodingKind::Unencoded));
                part.cost += Cost(
                    units as f64
                        * self.params.scan_ms_per_row
                        * self.params.encoding_scan_factor(enc),
                ) * tier_mult;
            }
            ChunkPath::Filter { drive } => {
                let driving = &predicates[drive];
                let seg = chunk.segment(driving.column)?;
                if self.kernels && crate::kernels::filter(seg, driving, positions) {
                    part.kernel_chunk = true;
                    part.kernel_batches += 1;
                } else {
                    seg.filter(driving, positions);
                }
                part.rows_scanned += chunk.rows() as u64;
                part.cost += Cost(
                    seg.scan_units() as f64
                        * self.params.scan_ms_per_row
                        * self.params.encoding_scan_factor(seg.encoding()),
                ) * tier_mult;
            }
        }

        // Residual predicates refine the position list, in predicate
        // order.
        for (_, p) in predicates
            .iter()
            .enumerate()
            .filter(|&(i, _)| !path.drives(i))
        {
            if positions.is_empty() {
                break;
            }
            let before = positions.len();
            let seg = chunk.segment(p.column)?;
            if self.kernels && crate::kernels::refine(seg, p, positions) {
                part.kernel_batches += 1;
            } else {
                seg.refine(p, positions);
            }
            part.cost += Cost(before as f64 * self.params.refine_ms_per_row) * tier_mult;
        }

        part.rows_matched += positions.len() as u64;
        if let Some(agg) = aggregate {
            let agg_cost = self.aggregate_positions(chunk, agg, group_by, positions, &mut part)?;
            part.cost += agg_cost;
        }
        Ok(part)
    }

    /// Folds per-chunk partials — in chunk-index order — into one
    /// [`ScanOutput`]. This is the *only* combine tree either execution
    /// mode uses, which is the determinism argument: float accumulation
    /// order is fixed by chunk index, never by scheduling.
    fn merge_partials(
        &self,
        partials: Vec<ChunkPartial>,
        aggregate: Option<&Aggregate>,
        group_by: Option<smdb_common::ColumnId>,
    ) -> ScanOutput {
        let mut out = ScanOutput {
            rows_matched: 0,
            agg_value: None,
            groups: None,
            sim_cost: Cost::ZERO,
            sim_latency: Cost::ZERO,
            morsels: 0,
            rows_scanned: 0,
            chunks_pruned: 0,
            chunks_visited: 0,
            index_probes: 0,
            chunks_kernel: 0,
            chunks_scalar: 0,
            kernel_batches: 0,
        };
        let mut agg_state = AggState::new(aggregate.map(|a| a.op));
        let mut group_state: BTreeMap<Value, AggState> = BTreeMap::new();
        for part in partials {
            out.sim_cost += part.cost;
            if part.pruned {
                out.chunks_pruned += 1;
                continue;
            }
            out.chunks_visited += 1;
            out.rows_matched += part.rows_matched;
            out.rows_scanned += part.rows_scanned;
            out.index_probes += part.index_probes;
            out.kernel_batches += part.kernel_batches;
            // Access-path partition of the visited chunks: probe, batch
            // kernel or scalar selection (at most one probe per chunk).
            if part.index_probes == 0 {
                if part.kernel_chunk {
                    out.chunks_kernel += 1;
                } else {
                    out.chunks_scalar += 1;
                }
            }
            agg_state.merge(&part.agg);
            for (key, state) in part.groups {
                group_state
                    .entry(key)
                    .or_insert_with(|| AggState::new(aggregate.map(|a| a.op)))
                    .merge(&state);
            }
        }

        if group_by.is_some() {
            let mut groups: Vec<(Value, f64)> = group_state
                .into_iter()
                .filter_map(|(k, state)| {
                    let count = state.count;
                    state.finish(count).map(|v| (k, v))
                })
                .collect();
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            out.groups = Some(groups);
        } else {
            out.agg_value = agg_state.finish(out.rows_matched);
        }
        out
    }

    /// Accumulates aggregate state for the matched positions of one
    /// chunk, grouped or global, into `part`, and returns the simulated
    /// cost charged. The batched kernels produce bit-identical state to
    /// the scalar loops (see [`crate::kernels`]); the charged cost is a
    /// function of the positions alone, never of the execution strategy.
    fn aggregate_positions(
        &self,
        chunk: &crate::chunk::Chunk,
        agg: &Aggregate,
        group_by: Option<smdb_common::ColumnId>,
        positions: &[u32],
        part: &mut ChunkPartial,
    ) -> Result<Cost> {
        match group_by {
            None => {
                let use_kernel = self.kernels
                    && match part.agg.op {
                        // COUNT touches no segment; the scalar path is
                        // already one counter addition.
                        None | Some(AggregateOp::Count) => false,
                        Some(_) => crate::kernels::covers_accumulate(chunk.segment(agg.column)?),
                    };
                if use_kernel {
                    let seg = chunk.segment(agg.column)?;
                    let st = &mut part.agg;
                    st.count += positions.len() as u64;
                    crate::kernels::accumulate(
                        seg,
                        positions,
                        &mut st.sum,
                        &mut st.min,
                        &mut st.max,
                    );
                    part.kernel_batches += 1;
                } else {
                    part.agg.consume(chunk, agg, positions)?;
                }
                Ok(Cost(positions.len() as f64 * self.params.agg_ms_per_row))
            }
            Some(g) => {
                let group_seg = chunk.segment(g)?;
                let agg_seg = if agg.op == AggregateOp::Count {
                    None
                } else {
                    Some(chunk.segment(agg.column)?)
                };
                let mut batched = false;
                if self.kernels {
                    let mut accs: Vec<(Value, crate::kernels::GroupAcc)> = Vec::new();
                    if crate::kernels::aggregate_grouped(group_seg, agg_seg, positions, &mut accs) {
                        for (key, acc) in accs {
                            part.groups.insert(
                                key,
                                AggState {
                                    op: Some(agg.op),
                                    sum: acc.sum,
                                    count: acc.count,
                                    min: acc.min,
                                    max: acc.max,
                                },
                            );
                        }
                        part.kernel_batches += 1;
                        batched = true;
                    }
                }
                if !batched {
                    for &p in positions {
                        let key = group_seg.value_at(p as usize);
                        let state = part
                            .groups
                            .entry(key)
                            .or_insert_with(|| AggState::new(Some(agg.op)));
                        state.consume(chunk, agg, &[p])?;
                    }
                }
                Ok(Cost(
                    positions.len() as f64
                        * (self.params.agg_ms_per_row + self.params.group_ms_per_row),
                ))
            }
        }
    }

    /// Point-in-time memory report.
    pub fn memory_report(&self) -> MemoryReport {
        let mut report = MemoryReport::default();
        for table in &self.tables {
            report.data_bytes += table.data_bytes();
            report.index_bytes += table.index_bytes();
            for (_, chunk) in table.chunks() {
                *report.per_tier.entry(chunk.tier()).or_insert(0) += chunk.data_bytes();
            }
        }
        report
    }

    fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::not_found("table", format!("{id}")))
    }

    fn chunk_tier_multiplier(&self, table: TableId, chunk: u32) -> Result<f64> {
        let t = self.table(table)?;
        let c = t.chunk(smdb_common::ChunkId(chunk))?;
        Ok(c.tier()
            .effective_multiplier(self.knobs.buffer_pool_mb, self.nonhot_bytes))
    }

    fn recompute_residency(&mut self) {
        self.nonhot_bytes = self
            .tables
            .iter()
            .flat_map(|t| t.chunks())
            .filter(|(_, c)| c.tier() != Tier::Hot)
            .map(|(_, c)| c.data_bytes() as u64)
            .sum();
    }
}

/// One chunk's contribution to a scan. Partials are produced by
/// `StorageEngine::scan_chunk` (on whichever thread ran the morsel) and
/// folded by `StorageEngine::merge_partials` in chunk-index order. The
/// type is opaque outside the engine: a sharded executor obtains
/// partials via [`StorageEngine::scan_partials`], orders them by global
/// chunk index and hands them back to
/// [`StorageEngine::merge_scan_partials`] — it never looks inside, so
/// the combine tree stays the engine's alone.
pub struct ChunkPartial {
    /// The chunk was eliminated by min/max statistics; only
    /// `cost` (the prune check) is meaningful.
    pruned: bool,
    rows_matched: u64,
    rows_scanned: u64,
    index_probes: u64,
    /// The driving selection ran on a batch kernel (never set when an
    /// index probe answered the driving predicate).
    kernel_chunk: bool,
    /// Batch-kernel invocations while scanning this chunk.
    kernel_batches: u64,
    /// The chunk's share of the simulated work.
    cost: Cost,
    /// Ungrouped aggregate state over this chunk's matches.
    agg: AggState,
    /// Per-group aggregate state over this chunk's matches. Ordered so
    /// every per-chunk merge and the final group output are independent
    /// of hash-seed and worker interleaving.
    groups: BTreeMap<Value, AggState>,
}

impl ChunkPartial {
    /// The chunk's share of the simulated work (prune check only when
    /// the chunk was eliminated by statistics). A sharded executor sums
    /// these per shard to drive its lane latency model.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Whether min/max statistics eliminated the chunk.
    pub fn pruned(&self) -> bool {
        self.pruned
    }

    fn new(op: Option<AggregateOp>) -> Self {
        ChunkPartial {
            pruned: false,
            rows_matched: 0,
            rows_scanned: 0,
            index_probes: 0,
            kernel_chunk: false,
            kernel_batches: 0,
            cost: Cost::ZERO,
            agg: AggState::new(op),
            groups: BTreeMap::new(),
        }
    }
}

/// Streaming aggregate state across chunks.
struct AggState {
    op: Option<AggregateOp>,
    sum: f64,
    count: u64,
    min: Option<f64>,
    max: Option<f64>,
}

impl AggState {
    fn new(op: Option<AggregateOp>) -> Self {
        AggState {
            op,
            sum: 0.0,
            count: 0,
            min: None,
            max: None,
        }
    }

    fn consume(
        &mut self,
        chunk: &crate::chunk::Chunk,
        agg: &Aggregate,
        positions: &[u32],
    ) -> Result<()> {
        let Some(op) = self.op else {
            return Ok(());
        };
        self.count += positions.len() as u64;
        if op == AggregateOp::Count {
            return Ok(());
        }
        let seg = chunk.segment(agg.column)?;
        for &p in positions {
            let v = seg.value_at(p as usize);
            let Some(x) = numeric(&v) else {
                continue;
            };
            self.sum += x;
            self.min = Some(self.min.map_or(x, |m| m.min(x)));
            self.max = Some(self.max.map_or(x, |m| m.max(x)));
        }
        Ok(())
    }

    /// Folds another partial state into this one. Sum accumulation order
    /// is the caller's responsibility — [`StorageEngine::merge_partials`]
    /// always merges in chunk-index order, which is what keeps grouped
    /// floats bit-identical across execution modes.
    fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, None) => a,
            (None, b) => b,
        };
    }

    fn finish(&self, matched: u64) -> Option<f64> {
        let op = self.op?;
        match op {
            AggregateOp::Count => Some(matched as f64),
            AggregateOp::Sum => Some(self.sum),
            AggregateOp::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum / self.count as f64)
                }
            }
            AggregateOp::Min => self.min,
            AggregateOp::Max => self.max,
        }
    }
}

fn numeric(v: &Value) -> Option<f64> {
    v.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::index::IndexKind;
    use crate::scan::PredicateOp;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnValues, DataType};
    use smdb_common::{ChunkId, ColumnId};

    fn engine_with_table() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ])
        .unwrap();
        let n = 1000i64;
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..n).map(|i| i % 100).collect()),
                ColumnValues::Float((0..n).map(|i| i as f64).collect()),
            ],
            250,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    #[test]
    fn scan_counts_matches() {
        let (engine, t) = engine_with_table();
        let out = engine
            .scan(t, &[ScanPredicate::eq(ColumnId(0), 7i64)], None)
            .unwrap();
        assert_eq!(out.rows_matched, 10);
        assert_eq!(out.chunks_visited, 4);
        assert!(out.sim_cost.ms() > 0.0);
    }

    #[test]
    fn aggregates_compute() {
        let (engine, t) = engine_with_table();
        let preds = [ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 10i64)];
        let count = engine
            .scan(t, &preds, Some(&Aggregate::count()))
            .unwrap()
            .agg_value
            .unwrap();
        assert_eq!(count, 100.0);
        let sum = engine
            .scan(
                t,
                &[ScanPredicate::eq(ColumnId(0), 0i64)],
                Some(&Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            )
            .unwrap()
            .agg_value
            .unwrap();
        // Rows where k == 0 are v = 0, 100, ..., 900.
        assert_eq!(sum, (0..10).map(|i| (i * 100) as f64).sum::<f64>());
        let avg = engine
            .scan(t, &[], Some(&Aggregate::new(AggregateOp::Avg, ColumnId(1))))
            .unwrap()
            .agg_value
            .unwrap();
        assert!((avg - 499.5).abs() < 1e-9);
    }

    #[test]
    fn index_reduces_cost_and_is_used() {
        let (mut engine, t) = engine_with_table();
        let pred = [ScanPredicate::eq(ColumnId(0), 7i64)];
        let before = engine.scan(t, &pred, None).unwrap();
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: IndexKind::Hash,
                })
                .unwrap();
        }
        let after = engine.scan(t, &pred, None).unwrap();
        assert_eq!(after.rows_matched, before.rows_matched);
        assert_eq!(after.index_probes, 4);
        assert!(after.sim_cost < before.sim_cost);
    }

    #[test]
    fn hash_index_not_used_for_ranges() {
        let (mut engine, t) = engine_with_table();
        engine
            .apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            })
            .unwrap();
        let out = engine
            .scan(
                t,
                &[ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 5i64)],
                None,
            )
            .unwrap();
        assert_eq!(out.index_probes, 0);
    }

    #[test]
    fn pruning_skips_chunks() {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        // Sorted data: each chunk covers a distinct range.
        let table = Table::from_columns(
            "sorted",
            schema,
            vec![ColumnValues::Int((0..1000).collect())],
            250,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let out = engine
            .scan(t, &[ScanPredicate::eq(ColumnId(0), 10i64)], None)
            .unwrap();
        assert_eq!(out.rows_matched, 1);
        assert_eq!(out.chunks_pruned, 3);
        assert_eq!(out.chunks_visited, 1);
    }

    #[test]
    fn placement_penalises_scans_and_buffer_hides_it() {
        let (mut engine, t) = engine_with_table();
        engine
            .apply_action(&ConfigAction::SetKnob {
                knob: crate::config::KnobKind::BufferPoolMb,
                value: 0.0,
            })
            .unwrap();
        let pred = [ScanPredicate::eq(ColumnId(0), 7i64)];
        let hot = engine.scan(t, &pred, None).unwrap().sim_cost;
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::SetPlacement {
                    table: t,
                    chunk: ChunkId(chunk),
                    tier: Tier::Cold,
                })
                .unwrap();
        }
        let cold = engine.scan(t, &pred, None).unwrap().sim_cost;
        assert!(cold.ms() > hot.ms() * 5.0, "cold {cold} vs hot {hot}");
        // A big buffer pool hides the penalty again.
        engine
            .apply_action(&ConfigAction::SetKnob {
                knob: crate::config::KnobKind::BufferPoolMb,
                value: 1024.0,
            })
            .unwrap();
        let buffered = engine.scan(t, &pred, None).unwrap().sim_cost;
        assert!((buffered.ms() - hot.ms()).abs() / hot.ms() < 0.05);
    }

    #[test]
    fn encoding_changes_scan_cost() {
        let (mut engine, t) = engine_with_table();
        let pred = [ScanPredicate::eq(ColumnId(0), 7i64)];
        let raw = engine.scan(t, &pred, None).unwrap().sim_cost;
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: EncodingKind::Dictionary,
                })
                .unwrap();
        }
        let dict = engine.scan(t, &pred, None).unwrap().sim_cost;
        assert!(dict < raw);
    }

    #[test]
    fn current_config_reflects_state() {
        let (mut engine, t) = engine_with_table();
        assert_eq!(engine.current_config(), ConfigInstance::default());
        let target = ChunkColumnRef::new(t.0, 0, 1);
        engine
            .apply_action(&ConfigAction::CreateIndex {
                target,
                kind: IndexKind::BTree,
            })
            .unwrap();
        engine
            .apply_action(&ConfigAction::SetEncoding {
                target,
                kind: EncodingKind::RunLength,
            })
            .unwrap();
        let config = engine.current_config();
        assert_eq!(config.index_of(target), Some(IndexKind::BTree));
        assert_eq!(config.encoding_of(target), EncodingKind::RunLength);
    }

    #[test]
    fn apply_reports_one_time_costs() {
        let (mut engine, t) = engine_with_table();
        let build = engine
            .apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            })
            .unwrap();
        assert!(build.ms() > 0.0);
        let drop = engine
            .apply_action(&ConfigAction::DropIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
            })
            .unwrap();
        assert!(drop.ms() < build.ms());
        // Building over dictionary data is cheaper (Section III dependency).
        engine
            .apply_action(&ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: EncodingKind::Dictionary,
            })
            .unwrap();
        let build_dict = engine
            .apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            })
            .unwrap();
        assert!(build_dict.ms() < build.ms());
    }

    #[test]
    fn apply_all_atomic_rolls_back_failed_batch() {
        let (mut engine, t) = engine_with_table();
        engine
            .apply_action(&ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::Dictionary,
            })
            .unwrap();
        let before = engine.current_config();
        // Batch: valid index + valid encoding + invalid placement.
        let batch = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::RunLength,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(0),
                tier: crate::placement::Tier::Hot, // already hot: fails
            },
        ];
        assert!(engine.apply_all_atomic(&batch).is_err());
        // The whole batch was undone, including the re-encoding.
        assert_eq!(engine.current_config(), before);
        // A valid batch lands completely and reports a positive cost.
        let ok = engine.apply_all_atomic(&batch[..2]).unwrap();
        assert!(ok.ms() > 0.0);
        assert_eq!(engine.current_config().indexes.len(), 1);
    }

    #[test]
    fn inverse_of_round_trips_every_action_kind() {
        let (mut engine, t) = engine_with_table();
        let actions = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::BTree,
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::Dictionary,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(2),
                tier: crate::placement::Tier::Warm,
            },
            ConfigAction::SetKnob {
                knob: crate::config::KnobKind::BufferPoolMb,
                value: 256.0,
            },
        ];
        let before = engine.current_config();
        let mut inverses = Vec::new();
        for a in &actions {
            inverses.push(engine.inverse_of(a).unwrap());
            engine.apply_action(a).unwrap();
        }
        // Dropping the created index inverts to recreating it with kind.
        let drop = ConfigAction::DropIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
        };
        assert_eq!(
            engine.inverse_of(&drop).unwrap(),
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::BTree,
            }
        );
        for inv in inverses.iter().rev() {
            engine.apply_action(inv).unwrap();
        }
        assert_eq!(engine.current_config(), before);
    }

    #[test]
    fn redundant_placement_rejected() {
        let (mut engine, t) = engine_with_table();
        let err = engine.apply_action(&ConfigAction::SetPlacement {
            table: t,
            chunk: ChunkId(0),
            tier: Tier::Hot,
        });
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut engine, _) = engine_with_table();
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let t = Table::from_columns("t", schema, vec![ColumnValues::Int(vec![])], 10).unwrap();
        assert!(engine.create_table(t).is_err());
    }

    #[test]
    fn memory_report_tracks_tiers() {
        let (mut engine, t) = engine_with_table();
        let before = engine.memory_report();
        assert_eq!(before.nonhot_bytes(), 0);
        engine
            .apply_action(&ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(0),
                tier: Tier::Warm,
            })
            .unwrap();
        let after = engine.memory_report();
        assert!(after.nonhot_bytes() > 0);
        assert_eq!(after.total_bytes(), before.total_bytes());
    }

    #[test]
    fn unknown_predicate_column_errors() {
        let (engine, t) = engine_with_table();
        assert!(engine
            .scan(t, &[ScanPredicate::eq(ColumnId(9), 1i64)], None)
            .is_err());
    }
}

#[cfg(test)]
mod composite_tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnValues, DataType};
    use smdb_common::{ChunkColumnRef, ColumnId};

    fn engine() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..2000).map(|i| i % 40).collect()),
                ColumnValues::Int((0..2000).map(|i| (i * 7) % 50).collect()),
            ],
            500,
        )
        .unwrap();
        let mut e = StorageEngine::default();
        let t = e.create_table(table).unwrap();
        (e, t)
    }

    fn two_eq() -> Vec<ScanPredicate> {
        vec![
            ScanPredicate::eq(smdb_common::ColumnId(0), 7i64),
            ScanPredicate::eq(smdb_common::ColumnId(1), 49i64),
        ]
    }

    #[test]
    fn composite_probe_matches_scan_and_is_cheaper() {
        let (mut e, t) = engine();
        let reference = e.scan(t, &two_eq(), None).unwrap();
        for chunk in 0..4u32 {
            e.apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, chunk),
                kind: IndexKind::CompositeHash {
                    second: ColumnId(1),
                },
            })
            .unwrap();
        }
        let probed = e.scan(t, &two_eq(), None).unwrap();
        assert_eq!(probed.rows_matched, reference.rows_matched);
        assert_eq!(probed.index_probes, 4);
        assert!(probed.sim_cost < reference.sim_cost);

        // The composite also beats the single-column index: the latter
        // still pays refinement over all 50 leading matches per chunk.
        let mut single = engine().0;
        for chunk in 0..4u32 {
            single
                .apply_action(&ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: IndexKind::Hash,
                })
                .unwrap();
        }
        let single_out = single.scan(t, &two_eq(), None).unwrap();
        assert_eq!(single_out.rows_matched, reference.rows_matched);
        assert!(probed.sim_cost < single_out.sim_cost);
    }

    #[test]
    fn composite_unused_for_single_predicate() {
        let (mut e, t) = engine();
        e.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind: IndexKind::CompositeHash {
                second: ColumnId(1),
            },
        })
        .unwrap();
        // Only the leading predicate present: must fall back to scanning.
        let out = e
            .scan(
                t,
                &[ScanPredicate::eq(smdb_common::ColumnId(0), 7i64)],
                None,
            )
            .unwrap();
        assert_eq!(out.index_probes, 0);
    }

    #[test]
    fn composite_roundtrips_through_config() {
        let (mut e, t) = engine();
        let kind = IndexKind::CompositeHash {
            second: ColumnId(1),
        };
        e.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind,
        })
        .unwrap();
        let config = e.current_config();
        assert_eq!(config.index_of(ChunkColumnRef::new(t.0, 0, 0)), Some(kind));
        // Diff/apply round-trip preserves the composite kind.
        let actions = ConfigInstance::default().diff(&config);
        let mut replayed = ConfigInstance::default();
        for a in &actions {
            replayed.apply(a);
        }
        assert_eq!(replayed, config);
    }

    #[test]
    fn composite_on_same_column_rejected() {
        let (mut e, t) = engine();
        let err = e.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind: IndexKind::CompositeHash {
                second: ColumnId(0),
            },
        });
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod group_by_tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnValues, DataType};
    use smdb_common::ColumnId;

    fn engine() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("flag", DataType::Int),
            ColumnDef::new("price", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..1200).map(|i| i % 3).collect()),
                ColumnValues::Float((0..1200).map(|i| i as f64).collect()),
            ],
            400,
        )
        .unwrap();
        let mut e = StorageEngine::default();
        let t = e.create_table(table).unwrap();
        (e, t)
    }

    #[test]
    fn grouped_sum_partitions_the_global_sum() {
        let (e, t) = engine();
        let agg = Aggregate::new(AggregateOp::Sum, ColumnId(1));
        let global = e.scan(t, &[], Some(&agg)).unwrap();
        let grouped = e
            .scan_grouped(t, &[], Some(&agg), Some(ColumnId(0)))
            .unwrap();
        let groups = grouped.groups.as_ref().unwrap();
        assert_eq!(groups.len(), 3);
        let total: f64 = groups.iter().map(|(_, v)| v).sum();
        assert!((total - global.agg_value.unwrap()).abs() < 1e-6);
        // Sorted by group key.
        assert_eq!(groups[0].0, Value::Int(0));
        assert_eq!(groups[2].0, Value::Int(2));
        // Grouping costs more than the plain aggregate.
        assert!(grouped.sim_cost > global.sim_cost);
    }

    #[test]
    fn grouped_count_and_predicates() {
        let (e, t) = engine();
        let out = e
            .scan_grouped(
                t,
                &[ScanPredicate::cmp(
                    ColumnId(1),
                    crate::scan::PredicateOp::Lt,
                    600.0,
                )],
                Some(&Aggregate::count()),
                Some(ColumnId(0)),
            )
            .unwrap();
        let groups = out.groups.unwrap();
        assert_eq!(groups.len(), 3);
        assert!((groups.iter().map(|(_, v)| v).sum::<f64>() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_without_aggregate_rejected() {
        let (e, t) = engine();
        assert!(e.scan_grouped(t, &[], None, Some(ColumnId(0))).is_err());
        assert!(e
            .scan_grouped(t, &[], Some(&Aggregate::count()), Some(ColumnId(9)))
            .is_err());
    }

    #[test]
    fn empty_match_produces_empty_groups() {
        let (e, t) = engine();
        let out = e
            .scan_grouped(
                t,
                &[ScanPredicate::eq(ColumnId(0), 99i64)],
                Some(&Aggregate::count()),
                Some(ColumnId(0)),
            )
            .unwrap();
        assert_eq!(out.groups.unwrap().len(), 0);
    }
}
