//! Scan predicates and aggregates — the low-level query surface of the
//! storage engine.
//!
//! The query crate lowers its logical queries to these structures; the
//! engine evaluates them per chunk with encoding- and index-specific
//! paths.

use smdb_common::{ColumnId, Result};

use crate::chunk::Chunk;
use crate::index::IndexKind;
use crate::value::Value;

/// Access-path rule: an index drives a scan only when the predicate's
/// estimated selectivity is at or below this threshold; broader
/// predicates scan (probing produces so many matches that per-match
/// costs exceed the sequential scan). The rule is statistic-based and
/// applied only by [`plan_chunk`], which cost estimators call to
/// predict the engine's access-path choice exactly.
pub const INDEX_SELECTIVITY_THRESHOLD: f64 = 0.1;

/// Comparison operator of a scan predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
    /// Inclusive range `lo <= x <= hi`.
    Between,
}

impl PredicateOp {
    /// Whether the operator describes a range (benefits from ordered
    /// indexes) rather than a point lookup.
    pub fn is_range(self) -> bool {
        !matches!(self, PredicateOp::Eq)
    }
}

/// A single column-vs-constant predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPredicate {
    pub column: ColumnId,
    pub op: PredicateOp,
    /// Comparison value; for `Between` this is the lower bound.
    pub value: Value,
    /// Upper bound, only used by `Between`.
    pub upper: Option<Value>,
}

impl ScanPredicate {
    /// Point equality predicate.
    pub fn eq(column: ColumnId, value: impl Into<Value>) -> Self {
        ScanPredicate {
            column,
            op: PredicateOp::Eq,
            value: value.into(),
            upper: None,
        }
    }

    /// Single-sided comparison predicate.
    pub fn cmp(column: ColumnId, op: PredicateOp, value: impl Into<Value>) -> Self {
        debug_assert!(!matches!(op, PredicateOp::Between));
        ScanPredicate {
            column,
            op,
            value: value.into(),
            upper: None,
        }
    }

    /// Inclusive range predicate.
    pub fn between(column: ColumnId, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        ScanPredicate {
            column,
            op: PredicateOp::Between,
            value: lo.into(),
            upper: Some(hi.into()),
        }
    }

    /// Evaluates the predicate against a concrete value.
    pub fn matches(&self, v: &Value) -> bool {
        match self.op {
            PredicateOp::Eq => v == &self.value,
            PredicateOp::Lt => v < &self.value,
            PredicateOp::Le => v <= &self.value,
            PredicateOp::Gt => v > &self.value,
            PredicateOp::Ge => v >= &self.value,
            PredicateOp::Between => {
                // No upper bound degrades to equality.
                let hi = self.upper.as_ref().unwrap_or(&self.value);
                v >= &self.value && v <= hi
            }
        }
    }

    /// Whether a chunk whose column values span `[min, max]` can contain a
    /// match — used for chunk pruning.
    pub fn overlaps_range(&self, min: &Value, max: &Value) -> bool {
        match self.op {
            PredicateOp::Eq => &self.value >= min && &self.value <= max,
            PredicateOp::Lt => min < &self.value,
            PredicateOp::Le => min <= &self.value,
            PredicateOp::Gt => max > &self.value,
            PredicateOp::Ge => max >= &self.value,
            PredicateOp::Between => {
                let hi = self.upper.as_ref().unwrap_or(&self.value);
                max >= &self.value && min <= hi
            }
        }
    }
}

/// Aggregate operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateOp {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// An aggregate over the rows matching the predicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    pub op: AggregateOp,
    /// Aggregated column; ignored for `Count`.
    pub column: ColumnId,
}

impl Aggregate {
    /// Creates an aggregate specification.
    pub fn new(op: AggregateOp, column: ColumnId) -> Self {
        Aggregate { op, column }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Aggregate {
            op: AggregateOp::Count,
            column: ColumnId(0),
        }
    }
}

/// The access path a visited chunk takes for a predicate list. Indices
/// point into the predicate slice; every predicate the path does not
/// drive refines the selection afterwards, in predicate order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPath {
    /// The index on predicate `drive`'s column answers it — together
    /// with predicate `pair` when that index is composite.
    Probe { drive: usize, pair: Option<usize> },
    /// No predicates: every row is selected.
    Full,
    /// Predicate `drive` filters its segment (batch kernel or scalar —
    /// the kernel layer decides).
    Filter { drive: usize },
}

impl ChunkPath {
    /// Whether predicate `i` is consumed by the driving selection.
    pub fn drives(&self, i: usize) -> bool {
        match *self {
            ChunkPath::Probe { drive, pair } => i == drive || pair == Some(i),
            ChunkPath::Full => false,
            ChunkPath::Filter { drive } => i == drive,
        }
    }
}

/// Derives `chunk`'s access path for `predicates` when each column's
/// index kind is `index_of(column)` — the one access-path rule: the
/// engine calls it with the chunk's built indexes to execute and predict
/// scans, cost estimators with a hypothetical configuration's. Stages,
/// first match wins: min/max pruning (`None`), a composite equality pair
/// whose combined selectivity passes [`INDEX_SELECTIVITY_THRESHOLD`], the
/// full chunk when nothing is filtered, then the first predicate a
/// single-column index supports at or below the threshold drives a
/// probe; when none does, predicate 0 filters.
pub fn plan_chunk(
    chunk: &Chunk,
    predicates: &[ScanPredicate],
    index_of: impl Fn(ColumnId) -> Option<IndexKind>,
) -> Result<Option<ChunkPath>> {
    for p in predicates {
        if !chunk.stats(p.column)?.can_match(p) {
            return Ok(None);
        }
    }
    // The pruning pass above proved every predicate column has stats.
    let selective = |sel: f64| sel <= INDEX_SELECTIVITY_THRESHOLD;
    let selectivity = |p: &ScanPredicate| {
        chunk
            .stats(p.column)
            .map_or(1.0, |s| s.estimate_selectivity(p))
    };
    for (i, p) in predicates.iter().enumerate() {
        if p.op != PredicateOp::Eq {
            continue;
        }
        let Some(IndexKind::CompositeHash { second }) = index_of(p.column) else {
            continue;
        };
        let pair = predicates.iter().enumerate().find(|&(j, q)| {
            i != j
                && q.column == second
                && q.op == PredicateOp::Eq
                && selective(selectivity(p) * selectivity(q))
        });
        if let Some((j, _)) = pair {
            return Ok(Some(ChunkPath::Probe {
                drive: i,
                pair: Some(j),
            }));
        }
    }
    if predicates.is_empty() {
        return Ok(Some(ChunkPath::Full));
    }
    // Composite indexes cannot drive a lone predicate (their pair ran
    // above when both were present).
    let probes = |p: &ScanPredicate| {
        index_of(p.column).is_some_and(|kind| {
            !matches!(kind, IndexKind::CompositeHash { .. }) && kind.supports(p.op)
        }) && selective(selectivity(p))
    };
    Ok(Some(match predicates.iter().position(probes) {
        Some(drive) => ChunkPath::Probe { drive, pair: None },
        None => ChunkPath::Filter { drive: 0 },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_matches() {
        let p = ScanPredicate::eq(ColumnId(0), 5i64);
        assert!(p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(6)));
    }

    #[test]
    fn between_matches_inclusive() {
        let p = ScanPredicate::between(ColumnId(0), 2i64, 4i64);
        assert!(p.matches(&Value::Int(2)));
        assert!(p.matches(&Value::Int(4)));
        assert!(!p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(1)));
    }

    #[test]
    fn comparisons_match() {
        let lt = ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 3i64);
        assert!(lt.matches(&Value::Int(2)) && !lt.matches(&Value::Int(3)));
        let ge = ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 3i64);
        assert!(ge.matches(&Value::Int(3)) && !ge.matches(&Value::Int(2)));
    }

    #[test]
    fn pruning_respects_ranges() {
        let min = Value::Int(10);
        let max = Value::Int(20);
        assert!(ScanPredicate::eq(ColumnId(0), 15i64).overlaps_range(&min, &max));
        assert!(!ScanPredicate::eq(ColumnId(0), 25i64).overlaps_range(&min, &max));
        assert!(!ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 10i64).overlaps_range(&min, &max));
        assert!(ScanPredicate::cmp(ColumnId(0), PredicateOp::Le, 10i64).overlaps_range(&min, &max));
        assert!(ScanPredicate::between(ColumnId(0), 18i64, 30i64).overlaps_range(&min, &max));
        assert!(!ScanPredicate::between(ColumnId(0), 21i64, 30i64).overlaps_range(&min, &max));
    }

    #[test]
    fn range_detection() {
        assert!(!PredicateOp::Eq.is_range());
        assert!(PredicateOp::Between.is_range());
        assert!(PredicateOp::Lt.is_range());
    }
}
