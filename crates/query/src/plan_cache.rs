//! The query plan cache.
//!
//! Keyed by template fingerprint, each entry keeps the template, a
//! representative concrete query (the most recent instance — what-if cost
//! estimation needs concrete literals), the execution count and the
//! cumulative execution cost. The workload predictor reads periodic
//! snapshots; no per-query history is retained here, so recording stays
//! O(1) — the "no further overhead … during query execution time"
//! property the paper attributes to plan-cache-driven observation.

use std::collections::BTreeMap;

use smdb_common::{Cost, LogicalTime};

use crate::logical::LogicalTemplate;
use crate::query::Query;

/// One plan-cache entry (per template).
#[derive(Debug, Clone)]
pub struct PlanCacheEntry {
    pub template: LogicalTemplate,
    /// A concrete instance of the template (what-if cost estimation
    /// needs concrete literals). Of all instances recorded so far, the
    /// one with the smallest content hash is kept — a pure function of
    /// the observed query *set*, so the snapshot (and everything tuning
    /// derives from it) is identical however worker threads interleave.
    pub example: Query,
    /// Content hash of `example` (see [`example_rank`]).
    example_rank: u64,
    pub executions: u64,
    /// Summed cost as a count of [`COST_QUANTUM`]s (see there).
    cost_quanta: i64,
    pub first_seen: LogicalTime,
    pub last_seen: LogicalTime,
}

/// FNV-1a over a query's concrete literals (predicate values and the
/// group-by column) — the arrival-order-independent tie-break that picks
/// each template's representative example.
fn example_rank(query: &Query) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
    let eat_value = |v: &smdb_storage::Value, eat: &mut dyn FnMut(u8)| match v {
        smdb_storage::Value::Int(v) => {
            for b in v.to_le_bytes() {
                eat(b);
            }
        }
        smdb_storage::Value::Float(v) => {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        smdb_storage::Value::Text(s) => {
            for &b in s.as_bytes() {
                eat(b);
            }
        }
    };
    for p in query.predicates() {
        eat_value(&p.value, &mut eat);
        eat(0xfe);
        if let Some(upper) = &p.upper {
            eat_value(upper, &mut eat);
        }
        eat(0xff);
    }
    if let Some(col) = query.group_by() {
        for b in col.0.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// The resolution of a template's summed cost, 2^-24. Each recorded
/// cost is rounded to a whole number of quanta and the counts are added
/// as integers, so the total does not depend on the order concurrent
/// workers record in (floating-point addition is not associative:
/// `0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1`). Totals below 2^29 are exact
/// as `f64`, so a persisted `total_cost` restores the same count and a
/// resumed run keeps adding bit-identically.
const COST_QUANTUM: f64 = 1.0 / (1u64 << 24) as f64;

/// `cost` as a whole number of [`COST_QUANTUM`]s (saturating).
fn quanta(cost: Cost) -> i64 {
    (cost.0 / COST_QUANTUM).round() as i64
}

impl PlanCacheEntry {
    /// Summed execution cost of this template.
    pub fn total_cost(&self) -> Cost {
        Cost(self.cost_quanta as f64 * COST_QUANTUM)
    }

    /// Mean execution cost of this template.
    pub fn mean_cost(&self) -> Cost {
        if self.executions == 0 {
            Cost::ZERO
        } else {
            self.total_cost() / self.executions as f64
        }
    }
}

/// A bounded, LRU-evicting query plan cache.
#[derive(Debug)]
pub struct PlanCache {
    entries: BTreeMap<u64, PlanCacheEntry>,
    max_entries: usize,
    evictions: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(4096)
    }
}

impl PlanCache {
    /// Creates a cache bounded to `max_entries` templates.
    pub fn new(max_entries: usize) -> Self {
        PlanCache {
            entries: BTreeMap::new(),
            max_entries: max_entries.max(1),
            evictions: 0,
        }
    }

    /// Records one execution of `query` costing `cost` at time `now`.
    pub fn record(&mut self, query: &Query, cost: Cost, now: LogicalTime) {
        let fp = query.fingerprint();
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.executions += 1;
                e.cost_quanta = e.cost_quanta.saturating_add(quanta(cost));
                e.last_seen = now;
                // Min-rank representative: independent of which instance
                // happened to arrive first under concurrent workers.
                let rank = example_rank(query);
                if rank < e.example_rank {
                    e.example = query.clone();
                    e.example_rank = rank;
                }
            }
            None => {
                if self.entries.len() >= self.max_entries {
                    self.evict_lru();
                }
                let entry = PlanCacheEntry {
                    template: query.template(),
                    example: query.clone(),
                    example_rank: example_rank(query),
                    executions: 1,
                    cost_quanta: quanta(cost),
                    first_seen: now,
                    last_seen: now,
                };
                self.entries.insert(fp, entry);
            }
        }
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of templates evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up the entry of a template fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<&PlanCacheEntry> {
        self.entries.get(&fingerprint)
    }

    /// Reinstates one entry from durable state: the template and the
    /// representative's rank are recomputed from `example`, so a
    /// restored cache is indistinguishable from one that only ever saw
    /// the surviving instances.
    pub fn restore_entry(
        &mut self,
        example: Query,
        executions: u64,
        total_cost: Cost,
        first_seen: LogicalTime,
        last_seen: LogicalTime,
    ) {
        let fp = example.fingerprint();
        if self.entries.len() >= self.max_entries && !self.entries.contains_key(&fp) {
            self.evict_lru();
        }
        let entry = PlanCacheEntry {
            template: example.template(),
            example_rank: example_rank(&example),
            example,
            executions,
            cost_quanta: quanta(total_cost),
            first_seen,
            last_seen,
        };
        self.entries.insert(fp, entry);
    }

    /// A point-in-time snapshot of all entries (cloned, so the predictor
    /// can analyse without holding the cache lock).
    pub fn snapshot(&self) -> Vec<PlanCacheEntry> {
        let mut v: Vec<_> = self.entries.values().cloned().collect();
        // Deterministic order for downstream consumers (entries iterate
        // in query-fingerprint order; resort by template fingerprint).
        v.sort_by_key(|e| e.template.fingerprint());
        v
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn evict_lru(&mut self) {
        if let Some((&fp, _)) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| (e.last_seen, e.template.fingerprint()))
        {
            self.entries.remove(&fp);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::ScanPredicate;

    fn q(table: u32, value: i64) -> Query {
        Query::new(
            TableId(table),
            format!("t{table}"),
            vec![ScanPredicate::eq(ColumnId(0), value)],
            None,
            format!("q{table}"),
        )
    }

    #[test]
    fn record_accumulates_per_template() {
        let mut cache = PlanCache::default();
        cache.record(&q(0, 1), Cost(2.0), LogicalTime(0));
        cache.record(&q(0, 2), Cost(4.0), LogicalTime(1));
        assert_eq!(cache.len(), 1);
        let e = cache.get(q(0, 9).fingerprint()).unwrap();
        assert_eq!(e.executions, 2);
        assert_eq!(e.total_cost(), Cost(6.0));
        assert_eq!(e.mean_cost(), Cost(3.0));
        assert_eq!(e.first_seen, LogicalTime(0));
        assert_eq!(e.last_seen, LogicalTime(1));
        // The representative example is the min-rank instance — the same
        // whichever order the two instances were recorded in.
        let mut reversed = PlanCache::default();
        reversed.record(&q(0, 2), Cost(4.0), LogicalTime(0));
        reversed.record(&q(0, 1), Cost(2.0), LogicalTime(1));
        let r = reversed.get(q(0, 9).fingerprint()).unwrap();
        assert_eq!(
            e.example.predicates()[0].value,
            r.example.predicates()[0].value,
            "example selection must not depend on arrival order"
        );
    }

    #[test]
    fn total_cost_does_not_depend_on_record_order() {
        // Summed as plain `f64`s, these give 0.6000000000000001 one way
        // and 0.6 the other.
        let costs = [0.1, 0.2, 0.3];
        let total = |order: &mut dyn Iterator<Item = &f64>| {
            let mut cache = PlanCache::default();
            for &c in order {
                cache.record(&q(0, 1), Cost(c), LogicalTime(0));
            }
            cache.get(q(0, 1).fingerprint()).unwrap().total_cost().0
        };
        let forward = total(&mut costs.iter());
        let backward = total(&mut costs.iter().rev());
        assert_eq!(forward.to_bits(), backward.to_bits());
        assert!((forward - costs.iter().sum::<f64>()).abs() < 1e-6);

        // A restored total continues bit-identically.
        let mut whole = PlanCache::default();
        let mut resumed = PlanCache::default();
        for &c in &costs {
            whole.record(&q(0, 1), Cost(c), LogicalTime(0));
        }
        let e = whole.get(q(0, 1).fingerprint()).unwrap().clone();
        resumed.restore_entry(
            e.example.clone(),
            e.executions,
            e.total_cost(),
            e.first_seen,
            e.last_seen,
        );
        for cache in [&mut whole, &mut resumed] {
            for c in [7.25, 1e-9, 0.7] {
                cache.record(&q(0, 1), Cost(c), LogicalTime(1));
            }
        }
        let fp = q(0, 1).fingerprint();
        assert_eq!(
            whole.get(fp).unwrap().total_cost().0.to_bits(),
            resumed.get(fp).unwrap().total_cost().0.to_bits()
        );
    }

    #[test]
    fn lru_eviction() {
        let mut cache = PlanCache::new(2);
        cache.record(&q(0, 1), Cost(1.0), LogicalTime(0));
        cache.record(&q(1, 1), Cost(1.0), LogicalTime(1));
        // Touch t0 so t1 becomes LRU.
        cache.record(&q(0, 2), Cost(1.0), LogicalTime(2));
        cache.record(&q(2, 1), Cost(1.0), LogicalTime(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(q(1, 0).fingerprint()).is_none());
        assert!(cache.get(q(0, 0).fingerprint()).is_some());
        assert!(cache.get(q(2, 0).fingerprint()).is_some());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let mut cache = PlanCache::default();
        for t in 0..5 {
            cache.record(&q(t, 0), Cost(1.0), LogicalTime(0));
        }
        let a: Vec<u64> = cache
            .snapshot()
            .iter()
            .map(|e| e.template.fingerprint())
            .collect();
        let b: Vec<u64> = cache
            .snapshot()
            .iter()
            .map(|e| e.template.fingerprint())
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn clear_empties() {
        let mut cache = PlanCache::default();
        cache.record(&q(0, 1), Cost(1.0), LogicalTime(0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
