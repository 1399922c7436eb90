//! The append-only write-ahead log.
//!
//! One WAL is one persistence blob holding a sequence of frames:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [seq: u64 LE][body]
//! ```
//!
//! `seq` is a strictly increasing record index starting at 0. The
//! reader accepts the longest prefix of frames that are structurally
//! sound (length fits the remaining bytes and a sanity cap), checksum
//! to their declared CRC32, and carry the expected next sequence
//! number; it stops at the first violation. The sequence check is what
//! catches a *duplicated* tail record — a byte-for-byte copy of a valid
//! frame passes the checksum, but repeats its `seq`. Everything after
//! the stop point is reported as dropped (counting frames where the
//! remaining bytes still parse structurally, plus one for a trailing
//! partial frame), so recovery can tell the operator how much history a
//! torn write cost — and never panics.

use smdb_common::Result;

use crate::codec::{ByteReader, Wire};
use crate::persist::Persistence;

/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (the length field itself may be torn).
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed
/// bytewise without a lookup table — WAL volumes here are tiny.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Record index within the log (0-based, strictly increasing).
    pub seq: u64,
    /// The opaque record body the caller appended.
    pub body: Vec<u8>,
}

/// The result of reading a WAL: its longest valid prefix.
#[derive(Debug, Clone, Default)]
pub struct WalReadResult {
    /// Records in the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by the valid prefix.
    pub valid_bytes: u64,
    /// Bytes discarded after the valid prefix.
    pub dropped_bytes: u64,
    /// Discarded records: structurally parsable frames after the stop
    /// point, plus one for a trailing partial frame.
    pub dropped_records: u64,
}

/// An append-only log stored in one named persistence blob.
#[derive(Debug, Clone)]
pub struct Wal {
    name: String,
}

impl Wal {
    /// A WAL stored under blob `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Wal { name: name.into() }
    }

    /// The blob name this WAL writes to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames and appends one record. Returns the framed size in bytes.
    /// The caller owns sequence numbering (`seq` must increase by 1 per
    /// append; the reader enforces it).
    pub fn append(&self, p: &dyn Persistence, seq: u64, body: &[u8]) -> Result<u64> {
        let mut payload = seq.to_bytes();
        payload.extend_from_slice(body);
        let mut frame = (payload.len() as u32, crc32(&payload)).to_bytes();
        frame.extend_from_slice(&payload);
        let len = frame.len() as u64;
        p.append(&self.name, &frame)?;
        Ok(len)
    }

    /// Reads the longest valid prefix. An absent blob is an empty log.
    pub fn read(&self, p: &dyn Persistence) -> Result<WalReadResult> {
        let Some(data) = p.read(&self.name)? else {
            return Ok(WalReadResult::default());
        };
        Ok(read_prefix(&data))
    }
}

/// Parses the longest valid prefix out of raw WAL bytes.
pub fn read_prefix(data: &[u8]) -> WalReadResult {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut next_seq = 0u64;
    loop {
        match parse_frame(&data[pos..]) {
            Some((consumed, seq, body)) if seq == next_seq => {
                records.push(WalRecord { seq, body });
                pos += consumed;
                next_seq += 1;
            }
            _ => break,
        }
    }
    let valid_bytes = pos as u64;
    let dropped_bytes = (data.len() - pos) as u64;
    WalReadResult {
        records,
        valid_bytes,
        dropped_bytes,
        dropped_records: count_dropped(&data[pos..]),
    }
}

/// The payload length and declared checksum of the frame at the head of
/// `data`, or `None` when the header is truncated or the length does
/// not fit the remaining bytes and the sanity cap.
fn frame_header(data: &[u8]) -> Option<(usize, u32)> {
    let mut r = ByteReader::new(data);
    let (len, crc) = <(u32, u32)>::get(&mut r).ok()?;
    if len > MAX_RECORD_BYTES || (len as usize) > r.remaining() || len < 8 {
        return None;
    }
    Some((len as usize, crc))
}

/// Parses one frame (length + checksum + sequenced payload) at the head
/// of `data`. Returns `(bytes_consumed, seq, body)` or `None` when the
/// frame is truncated, oversized, or fails its checksum.
fn parse_frame(data: &[u8]) -> Option<(usize, u64, Vec<u8>)> {
    let (len, declared_crc) = frame_header(data)?;
    let payload = &data[8..8 + len];
    if crc32(payload) != declared_crc {
        return None;
    }
    let seq = u64::get(&mut ByteReader::new(payload)).ok()?;
    Some((8 + len, seq, payload[8..].to_vec()))
}

/// Counts how many records the discarded suffix plausibly held: frames
/// whose length header still parses structurally (checksum and sequence
/// ignored — they are already known bad), plus one for trailing bytes
/// that do not form a whole frame.
fn count_dropped(mut data: &[u8]) -> u64 {
    let mut dropped = 0u64;
    while !data.is_empty() {
        let Some((len, _)) = frame_header(data) else {
            return dropped + 1;
        };
        dropped += 1;
        data = &data[8 + len..];
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::MemPersistence;

    fn filled_wal(bodies: &[&[u8]]) -> (MemPersistence, Wal) {
        let p = MemPersistence::new();
        let wal = Wal::new("wal.log");
        for (i, body) in bodies.iter().enumerate() {
            wal.append(&p, i as u64, body).unwrap();
        }
        (p, wal)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_read_roundtrip() {
        let (p, wal) = filled_wal(&[b"alpha", b"", b"gamma"]);
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0].body, b"alpha");
        assert_eq!(r.records[1].body, b"");
        assert_eq!(r.records[2].body, b"gamma");
        assert_eq!(r.dropped_records, 0);
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(
            r.valid_bytes,
            p.read("wal.log").unwrap().unwrap().len() as u64
        );
    }

    #[test]
    fn missing_blob_is_empty_log() {
        let p = MemPersistence::new();
        let r = Wal::new("wal.log").read(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.valid_bytes, 0);
    }

    #[test]
    fn truncated_tail_record_drops_exactly_it() {
        let (p, wal) = filled_wal(&[b"aaaa", b"bbbb", b"cccc"]);
        p.mutate("wal.log", |b| {
            let cut = b.len() - 3;
            b.truncate(cut);
        })
        .unwrap();
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.dropped_records, 1);
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn flipped_checksum_byte_stops_the_prefix() {
        let (p, wal) = filled_wal(&[b"aaaa", b"bbbb", b"cccc"]);
        let full = p.read("wal.log").unwrap().unwrap();
        let frame = full.len() / 3;
        // Flip a byte in the second frame's checksum field.
        p.mutate("wal.log", |b| b[frame + 5] ^= 0x40).unwrap();
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 1);
        // The corrupt frame and the (structurally sound) one after it.
        assert_eq!(r.dropped_records, 2);
    }

    #[test]
    fn duplicated_tail_record_is_rejected_by_sequence() {
        let (p, wal) = filled_wal(&[b"aaaa", b"bbbb"]);
        let full = p.read("wal.log").unwrap().unwrap();
        let frame = full.len() / 2;
        let tail = full[frame..].to_vec();
        p.append("wal.log", &tail).unwrap();
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 2, "the duplicate must not replay");
        assert_eq!(r.dropped_records, 1);
    }

    #[test]
    fn garbage_and_oversized_lengths_never_panic() {
        let p = MemPersistence::new();
        p.append("wal.log", &[0xFF; 7]).unwrap();
        let r = Wal::new("wal.log").read(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.dropped_records, 1);

        let p = MemPersistence::new();
        // An absurd length, then a zero checksum.
        p.append("wal.log", &(u32::MAX, 0u32).to_bytes()).unwrap();
        let r = Wal::new("wal.log").read(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.dropped_records, 1);
    }

    #[test]
    fn prefix_reader_is_deterministic_at_every_crash_offset() {
        let (p, _) = filled_wal(&[b"alpha", b"beta", b"gamma", b"delta"]);
        let full = p.read("wal.log").unwrap().unwrap();
        let mut last_len = 0;
        for cut in 0..=full.len() {
            let r = read_prefix(&full[..cut]);
            let again = read_prefix(&full[..cut]);
            assert_eq!(r.records.len(), again.records.len());
            assert!(r.records.len() >= last_len || r.records.len() <= 4);
            last_len = r.records.len().max(last_len);
            // The surviving records are always a true prefix.
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.seq, i as u64);
            }
            assert_eq!(r.valid_bytes + r.dropped_bytes, cut as u64);
        }
        assert_eq!(last_len, 4);
    }
}
