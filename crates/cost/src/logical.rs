//! The simple logical cost model.
//!
//! A textbook analytic model: per-row scan cost, logarithmic index
//! lookups, per-match costs — but *no* notion of encodings, placement
//! tiers, buffer pools or index kinds. The paper argues such models
//! cannot "represent the interplay of, e.g., data types, encodings, and
//! coprocessors"; experiment E9 measures its bias against the calibrated
//! model.

use smdb_common::{ChunkColumnRef, Cost, Result};
use smdb_query::Query;
use smdb_storage::scan::plan_chunk;
use smdb_storage::{ConfigInstance, StorageEngine};

use crate::estimator::CostEstimator;
use crate::features::ConfigContext;

/// Hardware-oblivious analytic cost model.
#[derive(Debug, Clone)]
pub struct LogicalCostModel {
    /// Assumed per-row scan cost, ms.
    pub row_ms: f64,
    /// Assumed per-probe index cost, ms.
    pub probe_ms: f64,
    /// Assumed per-match cost, ms.
    pub match_ms: f64,
}

impl Default for LogicalCostModel {
    fn default() -> Self {
        // Textbook constants: deliberately *not* the simulated hardware's
        // values — a logical model is calibrated once on some reference
        // machine, not on this one.
        LogicalCostModel {
            row_ms: 1e-4,
            probe_ms: 5e-3,
            match_ms: 1e-4,
        }
    }
}

impl CostEstimator for LogicalCostModel {
    fn name(&self) -> &str {
        "logical"
    }

    fn query_cost(
        &self,
        engine: &StorageEngine,
        _ctx: &ConfigContext,
        query: &Query,
        config: &ConfigInstance,
    ) -> Result<Cost> {
        let table = engine.table(query.table())?;
        let preds = query.predicates();
        let mut total = 0.0f64;
        for (cid, chunk) in table.chunks() {
            // Pruning is the engine's; the path below is deliberately the
            // textbook one, so no index kind is asked for.
            if plan_chunk(chunk, preds, |_| None)?.is_none() {
                continue;
            }
            let rows = chunk.rows() as f64;
            if preds.is_empty() {
                total += rows * self.row_ms;
                continue;
            }
            let driving = &preds[0];
            let target = ChunkColumnRef {
                table: query.table(),
                column: driving.column,
                chunk: cid,
            };
            let sel = chunk.stats(driving.column)?.estimate_selectivity(driving);
            let matches = rows * sel;
            // Any index on the driving column is assumed usable — the
            // logical model does not distinguish hash from B-tree.
            if config.index_of(target).is_some() {
                total += self.probe_ms + matches * self.match_ms;
            } else {
                total += rows * self.row_ms;
            }
            // Residual predicates: per-match work.
            total += matches * self.match_ms * (preds.len() - 1) as f64;
            // Grouped aggregation: one more per-match pass.
            if query.group_by().is_some() {
                total += matches * self.match_ms;
            }
        }
        Ok(Cost(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        ColumnDef, DataType, EncodingKind, IndexKind, ScanPredicate, Schema, Table, Tier,
    };

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..1000).map(|i| i % 50).collect())],
            500,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn q(t: TableId) -> Query {
        Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 7i64)],
            None,
            "q",
        )
    }

    #[test]
    fn index_reduces_estimate() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let ctx = ConfigContext::new(&engine, &base);
        let model = LogicalCostModel::default();
        let without = model.query_cost(&engine, &ctx, &q(t), &base).unwrap();
        let mut with = base.clone();
        with.indexes
            .insert(ChunkColumnRef::new(t.0, 0, 0), IndexKind::Hash);
        with.indexes
            .insert(ChunkColumnRef::new(t.0, 0, 1), IndexKind::Hash);
        let with_cost = model.query_cost(&engine, &ctx, &q(t), &with).unwrap();
        assert!(with_cost < without);
    }

    #[test]
    fn blind_to_encodings_and_tiers() {
        let (engine, t) = setup();
        let model = LogicalCostModel::default();
        let base = ConfigInstance::default();
        let ctx = ConfigContext::new(&engine, &base);
        let plain = model.query_cost(&engine, &ctx, &q(t), &base).unwrap();

        let mut encoded = base.clone();
        encoded
            .encodings
            .insert(ChunkColumnRef::new(t.0, 0, 0), EncodingKind::Dictionary);
        let enc_cost = model.query_cost(&engine, &ctx, &q(t), &encoded).unwrap();
        assert_eq!(plain, enc_cost);

        let mut tiered = base.clone();
        tiered
            .placements
            .insert((t, smdb_common::ChunkId(0)), Tier::Cold);
        let ctx_cold = ConfigContext::new(&engine, &tiered);
        let tier_cost = model
            .query_cost(&engine, &ctx_cold, &q(t), &tiered)
            .unwrap();
        assert_eq!(plain, tier_cost);
    }
}
