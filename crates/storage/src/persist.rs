//! The durable form of storage-layer state: one [`Wire`] impl per type.
//!
//! Raw table data is encoded chunk-independently: a [`RawTable`] holds
//! chunks decoded to full columns, re-chunked deterministically on load
//! via [`Table::from_columns`], so the on-disk form does not depend on
//! encodings. Configuration state ([`ConfigSnapshot`], [`ConfigAction`])
//! is encoded too. Physical design is *not* serialized with the data —
//! recovery re-applies the recovered configuration to rebuild indexes
//! and encodings from raw values, which keeps the snapshot format a
//! pure function of the logical content.
//!
//! The codec is re-exported here so the crates layered on storage
//! (query, forecast) give their own types a [`Wire`] impl without a
//! dependency edge of their own to `smdb-durable`.

use std::borrow::Cow;

use smdb_common::{Error, Result};
use smdb_durable::wire_tags;
pub use smdb_durable::{wire_struct, ByteReader, ByteWriter, Wire};

use crate::config::{ConfigAction, ConfigInstance, ConfigSnapshot, KnobKind};
use crate::encoding::EncodingKind;
use crate::index::IndexKind;
use crate::placement::Tier;
use crate::scan::{Aggregate, AggregateOp, PredicateOp, ScanPredicate};
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::value::{ColumnValues, DataType, Value};

wire_tags!(DataType: Int, Float, Text);
wire_tags!(EncodingKind: Unencoded, Dictionary, RunLength, FrameOfReference);
wire_tags!(Tier: Hot, Warm, Cold);
wire_tags!(PredicateOp: Eq, Lt, Le, Gt, Ge, Between);
wire_tags!(AggregateOp: Count, Sum, Avg, Min, Max);
wire_tags!(KnobKind: BufferPoolMb);

wire_struct!(ScanPredicate: column, op, value, upper);
wire_struct!(Aggregate: op, column);
wire_struct!(ColumnDef: name, data_type);
wire_struct!(ConfigSnapshot: indexes, encodings, placements, buffer_pool_mb);

/// A value is its data type's tag, then the payload.
impl Wire for Value {
    fn put(&self, w: &mut ByteWriter) {
        self.data_type().put(w);
        match self {
            Value::Int(x) => x.put(w),
            Value::Float(x) => x.put(w),
            Value::Text(s) => s.put(w),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match DataType::get(r)? {
            DataType::Int => Value::Int(Wire::get(r)?),
            DataType::Float => Value::Float(Wire::get(r)?),
            DataType::Text => Value::Text(Wire::get(r)?),
        })
    }
}

/// A column is its data type's tag, then its values as a `Vec`.
impl Wire for ColumnValues {
    fn put(&self, w: &mut ByteWriter) {
        self.data_type().put(w);
        match self {
            ColumnValues::Int(v) => v.put(w),
            ColumnValues::Float(v) => v.put(w),
            ColumnValues::Text(v) => v.put(w),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match DataType::get(r)? {
            DataType::Int => ColumnValues::Int(Wire::get(r)?),
            DataType::Float => ColumnValues::Float(Wire::get(r)?),
            DataType::Text => ColumnValues::Text(Wire::get(r)?),
        })
    }
}

impl Wire for Schema {
    fn put(&self, w: &mut ByteWriter) {
        Cow::Borrowed(self.columns()).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Schema::new(Wire::get(r)?)
    }
}

/// A table's durable form: its name, schema and chunking target, and
/// one full column of raw values per schema column. Chunk segments are
/// decoded and concatenated by [`RawTable::of`], which fails on a chunk
/// that lacks a segment of the schema's type; recovery re-chunks the
/// columns with [`RawTable::into_table`].
#[derive(Debug, Clone, PartialEq)]
pub struct RawTable {
    name: String,
    schema: Schema,
    target_chunk_rows: usize,
    columns: Vec<ColumnValues>,
}

impl RawTable {
    /// Decodes every chunk of `table` into full raw columns.
    pub fn of(table: &Table) -> Result<RawTable> {
        let columns = table
            .schema()
            .iter()
            .map(|(col, def)| {
                let mut full = ColumnValues::empty(def.data_type);
                for (_, chunk) in table.chunks() {
                    if !full.append(chunk.segment(col)?.decode()) {
                        return Err(Error::invalid("chunk segment type mismatch"));
                    }
                }
                Ok(full)
            })
            .collect::<Result<_>>()?;
        Ok(RawTable {
            name: table.name().to_owned(),
            schema: table.schema().clone(),
            target_chunk_rows: table.target_chunk_rows(),
            columns,
        })
    }

    /// Re-chunks the raw columns at the recorded target size.
    pub fn into_table(self) -> Result<Table> {
        Table::from_columns(self.name, self.schema, self.columns, self.target_chunk_rows)
    }
}

/// The columns follow with no count: the schema gives it.
impl Wire for RawTable {
    fn put(&self, w: &mut ByteWriter) {
        self.name.put(w);
        self.schema.put(w);
        self.target_chunk_rows.put(w);
        for column in &self.columns {
            column.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let name = String::get(r)?;
        let schema = Schema::get(r)?;
        let target_chunk_rows = usize::get(r)?;
        let columns = (0..schema.arity())
            .map(|_| ColumnValues::get(r))
            .collect::<Result<_>>()?;
        Ok(RawTable {
            name,
            schema,
            target_chunk_rows,
            columns,
        })
    }
}

const INDEX_HASH: u8 = 0;
const INDEX_BTREE: u8 = 1;
const INDEX_COMPOSITE_HASH: u8 = 2;

/// An index kind is a tag; a composite index adds its second column.
impl Wire for IndexKind {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            IndexKind::Hash => INDEX_HASH.put(w),
            IndexKind::BTree => INDEX_BTREE.put(w),
            IndexKind::CompositeHash { second } => {
                INDEX_COMPOSITE_HASH.put(w);
                second.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            INDEX_HASH => Ok(IndexKind::Hash),
            INDEX_BTREE => Ok(IndexKind::BTree),
            INDEX_COMPOSITE_HASH => Ok(IndexKind::CompositeHash {
                second: Wire::get(r)?,
            }),
            other => Err(Error::invalid(format!("unknown index kind tag {other}"))),
        }
    }
}

/// A configuration instance travels as its [`ConfigSnapshot`].
impl Wire for ConfigInstance {
    fn put(&self, w: &mut ByteWriter) {
        ConfigSnapshot::from(self).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(ConfigInstance::from(&ConfigSnapshot::get(r)?))
    }
}

const ACTION_CREATE_INDEX: u8 = 0;
const ACTION_DROP_INDEX: u8 = 1;
const ACTION_SET_ENCODING: u8 = 2;
const ACTION_SET_PLACEMENT: u8 = 3;
const ACTION_SET_KNOB: u8 = 4;

/// An action is a tag, then the variant's fields in order.
impl Wire for ConfigAction {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            ConfigAction::CreateIndex { target, kind } => {
                ACTION_CREATE_INDEX.put(w);
                target.put(w);
                kind.put(w);
            }
            ConfigAction::DropIndex { target } => {
                ACTION_DROP_INDEX.put(w);
                target.put(w);
            }
            ConfigAction::SetEncoding { target, kind } => {
                ACTION_SET_ENCODING.put(w);
                target.put(w);
                kind.put(w);
            }
            ConfigAction::SetPlacement { table, chunk, tier } => {
                ACTION_SET_PLACEMENT.put(w);
                table.put(w);
                chunk.put(w);
                tier.put(w);
            }
            ConfigAction::SetKnob { knob, value } => {
                ACTION_SET_KNOB.put(w);
                knob.put(w);
                value.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u8::get(r)? {
            ACTION_CREATE_INDEX => ConfigAction::CreateIndex {
                target: Wire::get(r)?,
                kind: Wire::get(r)?,
            },
            ACTION_DROP_INDEX => ConfigAction::DropIndex {
                target: Wire::get(r)?,
            },
            ACTION_SET_ENCODING => ConfigAction::SetEncoding {
                target: Wire::get(r)?,
                kind: Wire::get(r)?,
            },
            ACTION_SET_PLACEMENT => ConfigAction::SetPlacement {
                table: Wire::get(r)?,
                chunk: Wire::get(r)?,
                tier: Wire::get(r)?,
            },
            ACTION_SET_KNOB => ConfigAction::SetKnob {
                knob: Wire::get(r)?,
                value: Wire::get(r)?,
            },
            other => return Err(Error::invalid(format!("unknown action tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ChunkColumnRef, ChunkId, ColumnId, TableId};

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("tag", DataType::Text),
        ])
        .unwrap();
        Table::from_columns(
            "events",
            schema,
            vec![
                ColumnValues::Int((0..10).collect()),
                ColumnValues::Float((0..10).map(|i| i as f64 * 0.5).collect()),
                ColumnValues::Text((0..10).map(|i| format!("t{i}")).collect()),
            ],
            4,
        )
        .unwrap()
    }

    fn raw_bytes(table: &Table) -> Vec<u8> {
        RawTable::of(table).unwrap().to_bytes()
    }

    #[test]
    fn table_roundtrips_including_rechunking() {
        let table = sample_table();
        let bytes = raw_bytes(&table);
        let mut r = ByteReader::new(&bytes);
        let back = RawTable::get(&mut r).unwrap().into_table().unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.name(), table.name());
        assert_eq!(back.rows(), table.rows());
        assert_eq!(back.chunk_count(), table.chunk_count());
        assert_eq!(back.schema(), table.schema());
        // Re-encoding the decoded table is byte-identical.
        assert_eq!(raw_bytes(&back), bytes);
    }

    #[test]
    fn encoded_table_serializes_to_same_raw_bytes() {
        let mut table = sample_table();
        table
            .chunk_mut(ChunkId(0))
            .unwrap()
            .set_encoding(ColumnId(0), EncodingKind::Dictionary)
            .unwrap();
        assert_eq!(
            raw_bytes(&sample_table()),
            raw_bytes(&table),
            "snapshots are encoding-independent"
        );
    }

    #[test]
    fn config_snapshot_roundtrips() {
        let mut c = ConfigInstance::default();
        c.indexes
            .insert(ChunkColumnRef::new(0, 1, 2), IndexKind::BTree);
        c.indexes.insert(
            ChunkColumnRef::new(0, 0, 0),
            IndexKind::CompositeHash {
                second: ColumnId(3),
            },
        );
        c.encodings
            .insert(ChunkColumnRef::new(1, 0, 0), EncodingKind::RunLength);
        c.placements.insert((TableId(0), ChunkId(3)), Tier::Warm);
        c.knobs.buffer_pool_mb = 192.0;
        let snap = ConfigSnapshot::from(&c);
        let bytes = snap.to_bytes();
        let back = ConfigSnapshot::get(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, snap);
        assert_eq!(ConfigInstance::from(&back), c);
    }

    #[test]
    fn all_action_variants_roundtrip() {
        let actions = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(1, 2, 3),
                kind: IndexKind::Hash,
            },
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(1, 2, 3),
                kind: IndexKind::CompositeHash {
                    second: ColumnId(7),
                },
            },
            ConfigAction::DropIndex {
                target: ChunkColumnRef::new(0, 0, 0),
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(2, 1, 0),
                kind: EncodingKind::FrameOfReference,
            },
            ConfigAction::SetPlacement {
                table: TableId(4),
                chunk: ChunkId(9),
                tier: Tier::Cold,
            },
            ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value: 48.5,
            },
        ];
        let bytes = actions.to_bytes();
        let back = <Vec<ConfigAction>>::get(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, actions);
    }

    #[test]
    fn tags_are_list_positions() {
        assert_eq!(DataType::Text.to_bytes(), vec![2]);
        assert_eq!(EncodingKind::FrameOfReference.to_bytes(), vec![3]);
        assert_eq!(Tier::Warm.to_bytes(), vec![1]);
        assert_eq!(PredicateOp::Between.to_bytes(), vec![5]);
        assert_eq!(AggregateOp::Max.to_bytes(), vec![4]);
        assert_eq!(KnobKind::BufferPoolMb.to_bytes(), vec![0]);
        assert_eq!(
            Value::Float(1.0).to_bytes()[0],
            1,
            "a value's tag is its data type"
        );
    }

    #[test]
    fn corrupt_tags_error_cleanly() {
        let bad = [9u8];
        assert!(DataType::get(&mut ByteReader::new(&bad)).is_err());
        assert!(Tier::get(&mut ByteReader::new(&bad)).is_err());
        assert!(EncodingKind::get(&mut ByteReader::new(&bad)).is_err());
        assert!(IndexKind::get(&mut ByteReader::new(&bad)).is_err());
        assert!(ConfigAction::get(&mut ByteReader::new(&bad)).is_err());
        assert!(Value::get(&mut ByteReader::new(&bad)).is_err());
    }
}
