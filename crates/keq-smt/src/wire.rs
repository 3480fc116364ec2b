//! The append-only checksummed wire idiom shared by the persisted
//! obligation store (`obcache`) and the harness's write-ahead verdict
//! journal (`keq-harness::journal`).
//!
//! Both stores speak the same dialect:
//!
//! ```text
//! header:  magic (8 bytes)
//!          container format version  u32 LE
//!          stamp                     u64 LE   (semantics revision /
//!                                              corpus fingerprint)
//! record:  payload length            u32 LE
//!          payload bytes
//!          FNV-1a-32 checksum of the payload  u32 LE
//! ```
//!
//! and share the same fail-soft loading rules: a header mismatch discards
//! the file wholesale; a record whose *framing* is intact but whose
//! checksum fails is skipped individually; a torn tail (truncated final
//! record, or a corrupted length that frames past the end of the file)
//! ends the scan, keeping everything before it. The scanner here encodes
//! exactly those rules once; the two stores differ only in what they do
//! with a skipped record ([`RecordScanner`] reports both the per-record
//! checksum verdict and the structural `valid_end`, so the journal can
//! keep appending past a checksum-failed record while the store simply
//! counts it rejected).
//!
//! Byte-for-byte compatibility with the stores written before this module
//! existed is load-bearing (persisted caches and journals survive
//! upgrades); the fixture tests below pin the exact layout.

/// Total header size: magic + version + stamp.
pub const HEADER_LEN: usize = 8 + 4 + 8;

/// Per-record framing overhead: length prefix + trailing checksum.
pub const RECORD_OVERHEAD: usize = 4 + 4;

/// FNV-1a, 32-bit — the per-record checksum.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// FNV-1a, 64-bit — the fingerprint flavor (function and corpus
/// identities; never used for record checksums).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes the 20-byte store header.
pub fn encode_header(magic: &[u8; 8], version: u32, stamp: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&stamp.to_le_bytes());
    out
}

/// Checks magic and version, returning the header's stamp. `None` means
/// the file is foreign, truncated, or of a different container version —
/// the caller discards it wholesale (the stores' `reset` path). The stamp
/// is returned rather than checked because its meaning differs per store
/// (semantics revision vs. corpus fingerprint).
pub fn decode_header(buf: &[u8], magic: &[u8; 8], version: u32) -> Option<u64> {
    if buf.len() < HEADER_LEN || &buf[..8] != magic {
        return None;
    }
    let v = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if v != version {
        return None;
    }
    Some(u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes")))
}

/// Appends one framed record (length, payload, checksum) to `out`.
pub fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a32(payload).to_le_bytes());
}

/// One framed record as a standalone byte vector.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
    append_record(&mut rec, payload);
    rec
}

/// One structurally-framed record yielded by [`RecordScanner`].
#[derive(Debug, Clone, Copy)]
pub struct ScannedRecord<'a> {
    /// The record's payload bytes (framing verified; contents are only as
    /// trustworthy as [`ScannedRecord::crc_ok`]).
    pub payload: &'a [u8],
    /// Whether the trailing checksum matched the payload.
    pub crc_ok: bool,
    /// Byte offset just past this record — the journal's `valid_end`
    /// candidate: appends after a structurally-framed record are safe even
    /// when the record itself is rejected.
    pub end: usize,
}

/// Fail-soft scan over the records that follow a store header. Iteration
/// ends at the first structural break (torn tail, oversized length);
/// [`RecordScanner::torn`] distinguishes that from a clean end-of-file so
/// callers can count the broken tail.
#[derive(Debug)]
pub struct RecordScanner<'a> {
    buf: &'a [u8],
    at: usize,
    max_payload: u32,
    torn: bool,
}

impl<'a> RecordScanner<'a> {
    /// Scans `buf` from just past the header. `max_payload` bounds
    /// accepted record lengths (forward-compat headroom; anything larger
    /// is treated as corruption).
    pub fn new(buf: &'a [u8], max_payload: u32) -> RecordScanner<'a> {
        RecordScanner { buf, at: HEADER_LEN, max_payload, torn: false }
    }

    /// Whether the scan stopped at a broken tail rather than a clean end.
    pub fn torn(&self) -> bool {
        self.torn
    }
}

impl<'a> Iterator for RecordScanner<'a> {
    type Item = ScannedRecord<'a>;

    fn next(&mut self) -> Option<ScannedRecord<'a>> {
        if self.torn || self.at >= self.buf.len() {
            return None;
        }
        if self.buf.len() - self.at < 4 {
            self.torn = true;
            return None;
        }
        let len = u32::from_le_bytes(self.buf[self.at..self.at + 4].try_into().expect("4 bytes"));
        if len > self.max_payload || self.buf.len() - self.at < RECORD_OVERHEAD + len as usize {
            // Torn tail, or a corrupted length that frames past the end:
            // the scan cannot resynchronize, so it stops here.
            self.torn = true;
            return None;
        }
        let payload = &self.buf[self.at + 4..self.at + 4 + len as usize];
        let crc_at = self.at + 4 + len as usize;
        let crc = u32::from_le_bytes(self.buf[crc_at..crc_at + 4].try_into().expect("4 bytes"));
        self.at = crc_at + 4;
        Some(ScannedRecord { payload, crc_ok: crc == fnv1a32(payload), end: self.at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_are_the_published_ones() {
        // Classic FNV-1a test vectors pin the constants: the on-disk
        // checksum algorithm must never drift.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn header_round_trips_and_rejects_foreign() {
        let h = encode_header(b"KEQTEST1", 3, 0xdead_beef);
        assert_eq!(h.len(), HEADER_LEN);
        assert_eq!(decode_header(&h, b"KEQTEST1", 3), Some(0xdead_beef));
        assert_eq!(decode_header(&h, b"KEQTEST2", 3), None, "foreign magic");
        assert_eq!(decode_header(&h, b"KEQTEST1", 4), None, "foreign version");
        assert_eq!(decode_header(&h[..10], b"KEQTEST1", 3), None, "truncated header");
    }

    /// The exact byte layout the pre-extraction stores wrote, built by
    /// hand: the scanner must accept it unchanged (on-disk compatibility).
    #[test]
    fn hand_built_fixture_scans_byte_compatibly() {
        let mut buf = encode_header(b"KEQFIXT1", 1, 7);
        append_record(&mut buf, b"first");
        // A record framed by hand, exactly as the old inline writers did.
        let payload = b"second";
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&fnv1a32(payload).to_le_bytes());

        let mut scan = RecordScanner::new(&buf, 64);
        let recs: Vec<_> = scan.by_ref().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, b"first");
        assert_eq!(recs[1].payload, b"second");
        assert!(recs.iter().all(|r| r.crc_ok));
        assert_eq!(recs[1].end, buf.len());
        assert!(!scan.torn());
    }

    #[test]
    fn checksum_failure_is_per_record_and_structural() {
        let mut buf = encode_header(b"KEQFIXT1", 1, 0);
        append_record(&mut buf, b"good");
        let bad_at = buf.len();
        append_record(&mut buf, b"bad!");
        append_record(&mut buf, b"tail");
        buf[bad_at + 5] ^= 0x20; // flip a payload bit of the middle record

        let mut scan = RecordScanner::new(&buf, 64);
        let recs: Vec<_> = scan.by_ref().collect();
        assert_eq!(recs.len(), 3, "framing-intact records all scan");
        assert_eq!(recs.iter().map(|r| r.crc_ok).collect::<Vec<_>>(), vec![true, false, true],);
        assert!(!scan.torn());
    }

    #[test]
    fn torn_tail_and_overlong_length_stop_the_scan() {
        let mut buf = encode_header(b"KEQFIXT1", 1, 0);
        append_record(&mut buf, b"kept");
        append_record(&mut buf, b"torn-away");
        let torn = &buf[..buf.len() - 3];
        let mut scan = RecordScanner::new(torn, 64);
        let recs: Vec<_> = scan.by_ref().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"kept");
        assert!(scan.torn());

        // A length field larger than the cap is corruption, not framing.
        let mut buf = encode_header(b"KEQFIXT1", 1, 0);
        buf.extend_from_slice(&1000u32.to_le_bytes());
        let mut scan = RecordScanner::new(&buf, 64);
        assert!(scan.next().is_none());
        assert!(scan.torn());
    }

    #[test]
    fn empty_body_is_a_clean_end() {
        let buf = encode_header(b"KEQFIXT1", 1, 0);
        let mut scan = RecordScanner::new(&buf, 64);
        assert!(scan.next().is_none());
        assert!(!scan.torn());
    }
}
