//! The binary codec of everything durable.
//!
//! Every persisted type implements [`Wire`]: one `put` that appends it
//! to a [`ByteWriter`] and one `get` that reads it back from a
//! [`ByteReader`]. Integers are little-endian and floats travel as
//! their IEEE-754 bit patterns ([`f64::to_bits`]), so round-trips are
//! bit-exact — the recovery tests assert byte-identical re-encoding,
//! which text formats cannot provide for `f64`. There is no reflection
//! and no schema language; the format is fixed by these rules:
//!
//! * `usize` travels as `u64`, a `String` as a `u32` byte length plus
//!   UTF-8, a `ColumnId` as a `u32`;
//! * `Option<T>` is a presence byte (0 or 1), then `T` when present;
//! * `Vec<T>` and `BTreeMap<K, V>` are a `usize` count, then the items
//!   in order;
//! * tuples, `[T; N]` and structs ([`wire_struct!`](crate::wire_struct))
//!   are their fields in order, with no prefix;
//! * a fieldless enum ([`wire_tags!`](crate::wire_tags)) is one byte: the
//!   variant's position in the one list that declares its wire order;
//! * a `Cow` is its value, so live state is encoded from a borrow and
//!   decoded owned.
//!
//! A version tag at the container level (WAL record tag, snapshot
//! version byte) gates layout evolution. A decoder never trusts a
//! declared count: it reserves at most what the bytes left in the
//! record could hold, capped at 2^20 items, so a corrupt length ends in
//! a clean `Err` rather than a panic or an oversized allocation.

use std::borrow::Cow;
use std::collections::BTreeMap;

use smdb_common::{ChunkColumnRef, ChunkId, ColumnId, Cost, Error, LogicalTime, Result, TableId};

/// The most elements a decoder reserves up front for one collection;
/// longer collections grow as their items actually decode.
const MAX_PREALLOC: usize = 1 << 20;

/// The growing byte buffer [`Wire::put`] appends to.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// The encoded buffer [`Wire::get`] reads from.
///
/// Every read is bounds-checked and returns
/// [`Error::InvalidArgument`](smdb_common::Error::InvalidArgument) on a
/// truncated or malformed buffer — decoding corrupt durable state must
/// degrade to an error, never panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                Error::invalid(format!(
                    "truncated durable record: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// How many `T`s to reserve for a collection declaring `count`
    /// items: at most [`MAX_PREALLOC`], and never more memory than the
    /// bytes left in the record.
    fn capacity<T>(&self, count: usize) -> usize {
        let fit = self.remaining() / std::mem::size_of::<T>().max(1);
        count.min(fit).min(MAX_PREALLOC)
    }
}

/// A type with a durable byte form: `get` reads back exactly what `put`
/// wrote, in the same order.
pub trait Wire: Sized {
    /// Appends `self` to `w`.
    fn put(&self, w: &mut ByteWriter);

    /// Reads one value; a truncated or malformed buffer is an `Err`.
    fn get(r: &mut ByteReader<'_>) -> Result<Self>;

    /// `self` encoded on its own.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put(&mut w);
        w.into_bytes()
    }
}

macro_rules! little_endian_wire {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                const N: usize = std::mem::size_of::<$ty>();
                let mut bytes = [0; N];
                bytes.copy_from_slice(r.take(N)?);
                Ok(<$ty>::from_le_bytes(bytes))
            }
        }
    )+};
}

little_endian_wire!(u8, u32, u64, i64);

/// Bit-exact: the IEEE-754 bit pattern as a `u64`.
impl Wire for f64 {
    fn put(&self, w: &mut ByteWriter) {
        self.to_bits().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        u64::get(r).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn put(&self, w: &mut ByteWriter) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::invalid(format!("invalid bool byte {other}"))),
        }
    }
}

impl Wire for usize {
    fn put(&self, w: &mut ByteWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        usize::try_from(u64::get(r)?).map_err(|_| Error::invalid("usize overflows platform"))
    }
}

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        (self.len() as u32).put(w);
        w.buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = u32::get(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| Error::invalid("invalid UTF-8 in durable string"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

fn put_slice<T: Wire>(items: &[T], w: &mut ByteWriter) {
    items.len().put(w);
    items.iter().for_each(|item| item.put(w));
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        put_slice(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let count = usize::get(r)?;
        let mut items = Vec::with_capacity(r.capacity::<T>(count));
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let count = usize::get(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..count {
            let k = K::get(r)?;
            map.insert(k, V::get(r)?);
        }
        Ok(map)
    }
}

impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn put(&self, w: &mut ByteWriter) {
        (**self).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        T::get(r).map(Cow::Owned)
    }
}

impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn put(&self, w: &mut ByteWriter) {
        put_slice(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Vec::get(r).map(Cow::Owned)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        self.iter().for_each(|item| item.put(w));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r)?;
        }
        Ok(items)
    }
}

macro_rules! tuple_wire {
    ($($name:ident)+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut ByteWriter) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}

tuple_wire!(A B);
tuple_wire!(A B C);
tuple_wire!(A B C D E);

macro_rules! newtype_wire {
    ($($ty:ident($inner:ty)),+) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                self.0.put(w);
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                <$inner>::get(r).map($ty)
            }
        }
    )+};
}

newtype_wire!(Cost(f64), LogicalTime(u64), TableId(u32), ChunkId(u32));

impl Wire for ColumnId {
    fn put(&self, w: &mut ByteWriter) {
        u32::from(self.0).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        u16::try_from(u32::get(r)?)
            .map(ColumnId)
            .map_err(|_| Error::invalid("column id overflow"))
    }
}

crate::wire_struct!(ChunkColumnRef: table, column, chunk);

/// The wire tag of `v`: its position in `tags`, the list that declares
/// a tagged type's wire order. Used by [`wire_tags!`](crate::wire_tags).
pub fn tag_of<T: PartialEq>(tags: &[T], v: &T) -> u8 {
    tags.iter().take_while(|t| *t != v).count() as u8
}

/// The entry of `tags` whose wire tag is `tag`; `what` names the type
/// in the error for an unknown tag.
pub fn of_tag<T: Copy>(tags: &[T], tag: u8, what: &str) -> Result<T> {
    tags.get(usize::from(tag))
        .copied()
        .ok_or_else(|| Error::invalid(format!("unknown {what} tag {tag}")))
}

/// Implements [`Wire`] for a struct as its named fields, in the listed
/// order. The one list serves both directions; every field must be
/// listed (the decoder builds the struct from it).
///
/// ```
/// # use smdb_durable::{ByteReader, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Span { lo: u64, hi: u64 }
/// smdb_durable::wire_struct!(Span: lo, hi);
///
/// let bytes = Span { lo: 1, hi: 2 }.to_bytes();
/// assert_eq!(bytes.len(), 16);
/// assert_eq!(Span::get(&mut ByteReader::new(&bytes)).unwrap(), Span { lo: 1, hi: 2 });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty: $($field:ident),+ $(,)?) => {
        impl $crate::Wire for $ty {
            fn put(&self, w: &mut $crate::ByteWriter) {
                $($crate::Wire::put(&self.$field, w);)+
            }
            fn get(r: &mut $crate::ByteReader<'_>) -> ::smdb_common::Result<Self> {
                Ok(Self { $($field: $crate::Wire::get(r)?,)+ })
            }
        }
    };
}

/// Implements [`Wire`] for a fieldless enum as a one-byte tag: the
/// variant's position in the list, which is written once and is the
/// wire order. The list must name every variant (checked at compile
/// time); append new variants at the end.
///
/// ```
/// # use smdb_durable::{ByteReader, Wire};
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Shade { Light, Dark }
/// smdb_durable::wire_tags!(Shade: Light, Dark);
///
/// assert_eq!(Shade::Dark.to_bytes(), vec![1]);
/// assert!(Shade::get(&mut ByteReader::new(&[2])).is_err());
/// ```
#[macro_export]
macro_rules! wire_tags {
    ($ty:ident: $($variant:ident),+ $(,)?) => {
        impl $crate::Wire for $ty {
            fn put(&self, w: &mut $crate::ByteWriter) {
                match self {
                    $($ty::$variant)|+ => {}
                }
                $crate::Wire::put(&$crate::codec::tag_of(&[$($ty::$variant),+], self), w);
            }
            fn get(r: &mut $crate::ByteReader<'_>) -> ::smdb_common::Result<Self> {
                let tag = <u8 as $crate::Wire>::get(r)?;
                $crate::codec::of_tag(&[$($ty::$variant),+], tag, stringify!($ty))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        7u8.put(&mut w);
        0xDEAD_BEEFu32.put(&mut w);
        u64::MAX.put(&mut w);
        (-42i64).put(&mut w);
        (-0.0f64).put(&mut w);
        f64::NAN.put(&mut w);
        true.put(&mut w);
        12345usize.put(&mut w);
        String::from("héllo").put(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 8 + 8 + 8 + 1 + 8 + 4 + 6);
        assert_eq!(&bytes[1..5], &[0xEF, 0xBE, 0xAD, 0xDE], "little-endian");

        let mut r = ByteReader::new(&bytes);
        assert_eq!(u8::get(&mut r).unwrap(), 7);
        assert_eq!(u32::get(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::get(&mut r).unwrap(), -42);
        assert_eq!(f64::get(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(f64::get(&mut r).unwrap().is_nan());
        assert!(bool::get(&mut r).unwrap());
        assert_eq!(usize::get(&mut r).unwrap(), 12345);
        assert_eq!(String::get(&mut r).unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> Vec<u8> {
        let bytes = v.to_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(&T::get(&mut r).unwrap(), v);
        assert!(r.is_exhausted());
        bytes
    }

    #[test]
    fn option_is_a_presence_byte_then_the_payload() {
        assert_eq!(
            roundtrip(&Some(9u64)),
            [&[1u8][..], &9u64.to_le_bytes()].concat()
        );
        assert_eq!(roundtrip(&None::<u64>), vec![0]);
        assert_eq!(roundtrip(&Some(Cost(2.5))).len(), 9);
        assert!(Option::<u64>::get(&mut ByteReader::new(&[2])).is_err());
    }

    #[test]
    fn containers_roundtrip_in_order() {
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bc".into())];
        let bytes = roundtrip(&v);
        assert_eq!(&bytes[..8], &2u64.to_le_bytes());
        let map: BTreeMap<u64, f64> = [(3, 5.0), (4, 2.0)].into_iter().collect();
        assert_eq!(roundtrip(&map).len(), 8 + 2 * 16);
        assert_eq!(
            roundtrip(&[1u64, 2, 3, 4, 5]).len(),
            40,
            "arrays carry no count"
        );
        roundtrip(&(1u8, 2u32, 3u64, -4i64, true));
        roundtrip(&ChunkColumnRef::new(1, 2, 3));
        let borrowed: Cow<'_, [u64]> = Cow::Borrowed(&[7, 8]);
        assert_eq!(borrowed.to_bytes(), vec![7u64, 8].to_bytes());
    }

    #[test]
    fn column_id_travels_as_u32_and_rejects_overflow() {
        assert_eq!(roundtrip(&ColumnId(7)), 7u32.to_le_bytes());
        let wide = 70_000u32.to_le_bytes();
        assert!(ColumnId::get(&mut ByteReader::new(&wide)).is_err());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let bytes = 1u64.to_bytes();
        assert!(u64::get(&mut ByteReader::new(&bytes[..3])).is_err());
        // A huge declared string length must not allocate or panic.
        let bytes = u32::MAX.to_bytes();
        assert!(String::get(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn corrupt_counts_reserve_only_what_the_record_can_hold() {
        let bytes = u64::MAX.to_le_bytes();
        assert!(<Vec<u64> as Wire>::get(&mut ByteReader::new(&bytes)).is_err());
        assert!(<BTreeMap<u64, u64> as Wire>::get(&mut ByteReader::new(&bytes)).is_err());
        let record = [0u8; 100];
        let r = ByteReader::new(&record);
        assert_eq!(r.capacity::<u64>(usize::MAX), 12);
        assert_eq!(r.capacity::<[u8; 1000]>(usize::MAX), 0);
        assert_eq!(r.capacity::<u8>(3), 3);
        let big = vec![0u8; MAX_PREALLOC + 1];
        assert_eq!(
            ByteReader::new(&big).capacity::<u8>(usize::MAX),
            MAX_PREALLOC
        );
    }

    #[test]
    fn invalid_bool_and_utf8_are_errors() {
        assert!(bool::get(&mut ByteReader::new(&[2])).is_err());
        let bytes = [2, 0, 0, 0, 0xFF, 0xFE];
        assert!(String::get(&mut ByteReader::new(&bytes)).is_err());
    }
}
